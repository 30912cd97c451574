"""Text grammar for manifold expressions and twisting classes.

Atoms are the rows of ``topology.ATOMS``: ``S(n)``, ``CP(m)``,
``lens(k,d)``, ``N(k)``, ``Wu``, ``Poincare``, ``S2~S(n)`` and
``S(p)xS(q)``.  The parser reads each from its row's text form, so an
atom is a constructor plus one row.  Rows that share a first token
extend one another (``S(p)xS(q)`` extends ``S(n)``): the parser reads
the shortest and reads on into a longer one only while the next token
continues it.  Besides the atoms: the combinators ``csum(a,b,...)`` and
``susp(e, x)`` with e one of ``0``, ``prim``, ``div(k)`` or a bracketed
list ``[e1,...,eL]`` splitting over the summands.
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


# The first token of each atom's text form -> its rows as (constructor,
# later tokens), with "0" for each integer parameter.  Sorted by tokens, a
# row comes before the longer rows that extend it.
_ATOMS: dict = {}
for _tokens, _make in sorted((_tokenize(row.text.replace("{}", "0")), row.make)
                             for row in topology.ATOMS.values()):
    _ATOMS.setdefault(_tokens[0], []).append((_make, _tokens[1:]))


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
    def manifold(self, depth: int = 0) -> ManifoldExpr:
        """The expression at the next token, ``depth`` levels of ``csum(``
        and ``susp(`` in; each level is checked against its cap on entry."""
        tok = self.take()
        if tok in _ATOMS:
            params, read, make = [], 0, None
            for row_make, rest in _ATOMS[tok]:
                # A longer row extends the one read: read on only into it.
                if make is not None and self.peek() != rest[read]:
                    break
                for t in rest[read:]:
                    if t == "0":
                        params.append(self.integer())
                    else:
                        self.take(t)
                read, make = len(rest), row_make
            return make(*params)
        if tok == "csum":
            depth = topology.capped("nesting depth", depth + 1)
            self.take("(")
            parts = [self.manifold(depth)]
            while self.peek() == ",":
                self.take()
                parts.append(self.manifold(depth))
            self.take(")")
            return topology.connected_sum(parts)
        if tok == "susp":
            depth = topology.capped("nesting depth", depth + 1)
            self.take("(")
            e = self.euler()
            self.take(",")
            x = self.manifold(depth)
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
