"""Text grammar for manifold expressions and twisting classes.

Atoms are the rows of ``topology.ATOMS``: ``S(n)``, ``CP(m)``,
``lens(k,d)``, ``N(k)``, ``Wu``, ``Poincare``, ``S2~S(n)``.  The parser
reads each from its row's text form, so an atom is a constructor plus
one row.  Besides the atoms: the product ``S(p)xS(q)`` and the
combinators ``csum(a,b,...)`` and ``susp(e, x)`` with e one of ``0``,
``prim``, ``div(k)`` or a bracketed list ``[e1,...,eL]`` splitting over
the summands.
"""

from __future__ import annotations

import re

from . import topology
from .errors import InputError
from .topology import EulerClass, ManifoldExpr


class ExprSyntaxError(InputError):
    pass


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\d+|[(),\[\]~])")


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExprSyntaxError(f"bad character at position {pos}: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


# The first token of each atom's text form -> (constructor, later tokens),
# with "0" for each integer parameter.
_ATOMS = {
    tokens[0]: (row.make, tokens[1:])
    for row in topology.ATOMS.values()
    for tokens in [_tokenize(row.text.replace("{}", "0"))]
}


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input")
        if expected is not None and tok != expected:
            raise ExprSyntaxError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    def integer(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ExprSyntaxError(f"expected an integer, found {tok!r}")
        return int(tok)

    def done(self):
        if self.peek() is not None:
            raise ExprSyntaxError(f"trailing input: {self.tokens[self.pos:]}")

    # -- manifolds ----------------------------------------------------------
    def manifold(self) -> ManifoldExpr:
        tok = self.take()
        if tok in _ATOMS:
            make, rest = _ATOMS[tok]
            params = []
            for t in rest:
                if t == "0":
                    params.append(self.integer())
                else:
                    self.take(t)
            # S(p)xS(q) is a product, not an atom; its p reads as a sphere's.
            if tok == "S" and self.peek() == "xS":
                self.take()
                self.take("(")
                q = self.integer()
                self.take(")")
                return topology.sphere_product(*params, q)
            return make(*params)
        if tok == "csum":
            self.take("(")
            parts = [self.manifold()]
            while self.peek() == ",":
                self.take()
                parts.append(self.manifold())
            self.take(")")
            return topology.connected_sum(parts)
        if tok == "susp":
            self.take("(")
            e = self.euler()
            self.take(",")
            x = self.manifold()
            self.take(")")
            return topology.suspend(x, e)
        raise ExprSyntaxError(f"unknown token {tok!r}")

    # -- twisting classes ---------------------------------------------------
    def euler(self) -> EulerClass:
        tok = self.peek()
        if tok == "0":
            self.take()
            return EulerClass.zero()
        if tok == "prim":
            self.take()
            return EulerClass.primitive()
        if tok == "div":
            self.take()
            self.take("(")
            k = self.integer()
            self.take(")")
            return EulerClass.of_divisibility(k)
        if tok == "[":
            self.take()
            parts = [self.euler()]
            while self.peek() == ",":
                self.take()
                parts.append(self.euler())
            self.take("]")
            return EulerClass.split(parts)
        raise ExprSyntaxError(f"expected a twisting class, found {tok!r}")


def parse_manifold(text: str) -> ManifoldExpr:
    p = _Parser(text)
    expr = p.manifold()
    p.done()
    return expr


def parse_euler(text: str) -> EulerClass:
    p = _Parser(text)
    e = p.euler()
    p.done()
    return e
