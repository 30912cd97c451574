"""Symbolic manifold calculus.

A small expression language over a catalog of closed manifolds with
known homology, plus the operations the workbench needs: connected
sums, twisted suspensions (surgery on the fibre of a circle bundle),
circle-bundle bookkeeping, and the diffeomorphism-type rewrites the
catalog supports.  An expression is one of three kinds: an ``atom`` (a
row of ``ATOMS``, the sphere product ``S(p)xS(q)`` among them), a
``connected_sum`` or a ``twisted_suspension``.  A twisting class is its
divisibility k, or a split list of classes, one per summand.

Homology tables are exact (``FgAbGroup`` values).  Twisted suspensions
with a nonzero twisting class are only computed for the families whose
Gysin sequence the catalog actually resolves; anything else raises
``Unsupported`` rather than guessing.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from typing import Callable, NamedTuple

from .errors import DimensionMismatch, DimensionTooSmall, Unsupported
from .fgab import TRIVIAL, Z, FgAbGroup, cyclic, direct_sum

# Entries kept by each memo of dim, pi1, spin and homology.  A process
# that answers many requests would otherwise keep every expression it
# ever saw.  The catalogue atoms that sums share stay among the recent:
# over 16 000 requests of the ``topology_queries`` benchmark workload the
# homology memo hits 0.894 of its calls, against 0.914 unbounded (3526
# entries).
CACHE_SIZE = 256


# ---------------------------------------------------------------------------
# Twisting classes
# ---------------------------------------------------------------------------

class EulerClass(namedtuple("EulerClass", "k parts")):
    """Symbolic degree-2 integral class: its divisibility k (0 the zero
    class, 1 a primitive one), or a split class with k = 0 and ``parts``,
    one class per connected summand."""

    __slots__ = ()

    def __new__(cls, k: int, parts: tuple = ()):
        if type(k) is not int or k < 0:
            raise ValueError(f"a class's divisibility must be an int >= 0, not {k!r}")
        if k and parts:
            raise ValueError("a split class has no divisibility of its own")
        return tuple.__new__(cls, (k, tuple(parts)))

    def render(self) -> str:
        if self.parts:
            return "[" + ",".join(p.render() for p in self.parts) + "]"
        return {0: "0", 1: "prim"}.get(self.k, f"div({self.k})")


ZERO_CLASS = EulerClass(0)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class ManifoldExpr(NamedTuple):
    """Immutable expression tree; attributes are computed lazily."""

    kind: str  # atom | connected_sum | twisted_suspension
    atom: str = ""  # for atoms: its key in ATOMS
    params: tuple = ()
    children: tuple = ()
    euler: EulerClass | None = None

    def render(self) -> str:
        return render(self)

    def __str__(self) -> str:
        return render(self)


def sphere(n: int) -> ManifoldExpr:
    if n < 2:
        raise DimensionTooSmall("spheres of dimension >= 2 only")
    return ManifoldExpr("atom", atom="sphere", params=(n,))


def cp(m: int) -> ManifoldExpr:
    if m < 1:
        raise ValueError("complex projective space needs m >= 1")
    return ManifoldExpr("atom", atom="cp", params=(m,))


def lens(k: int, dim: int) -> ManifoldExpr:
    if k < 2:
        raise ValueError("lens spaces need cyclic order k >= 2")
    if dim < 3 or dim % 2 == 0:
        raise ValueError("lens spaces have odd dimension >= 3")
    return ManifoldExpr("atom", atom="lens", params=(k, dim))


def smale(k: int) -> ManifoldExpr:
    """The closed simply-connected spin 5-manifold with H_2 = Z/k + Z/k."""
    if k < 2:
        raise ValueError("use sphere(5) for k = 1")
    return ManifoldExpr("atom", atom="smale", params=(k,))


def wu_manifold() -> ManifoldExpr:
    return ManifoldExpr("atom", atom="wu", params=())


def poincare_sphere() -> ManifoldExpr:
    return ManifoldExpr("atom", atom="poincare", params=())


def sphere_product(p: int, q: int) -> ManifoldExpr:
    if p < 2 or q < 2:
        raise DimensionTooSmall("sphere factors of dimension >= 2 only")
    return ManifoldExpr("atom", atom="product", params=(p, q))


def twisted_s2_bundle(fiber_dim: int) -> ManifoldExpr:
    """Total space of the nontrivial linear S^q-bundle over S^2 (q >= 3)."""
    if fiber_dim < 3:
        raise DimensionTooSmall("twisted bundle fibre dimension >= 3 only")
    return ManifoldExpr("atom", atom="twisted_s2", params=(fiber_dim,))


def connected_sum(summands) -> ManifoldExpr:
    """Connected sum; requires equal dimensions >= 4 (every catalog
    manifold is orientable, and the operations keep it so)."""
    summands = tuple(summands)
    if not summands:
        raise ValueError("connected sum of nothing")
    if len(summands) == 1:
        return summands[0]
    n = dim(summands[0])
    for x in summands[1:]:
        if dim(x) != n:
            raise DimensionMismatch("connected sum of unequal dimensions")
    if n < 4:
        raise DimensionTooSmall("connected-sum calculus is used for dimension >= 4")
    capped("sum cells", len(summands) * (n + 1))
    return ManifoldExpr("connected_sum", children=summands)


def suspend(x: ManifoldExpr, e: EulerClass) -> ManifoldExpr:
    """Twisted suspension of ``x`` by the class ``e``.

    Construction raises only on structural problems (dimension too
    small, split arity); whether the homology of the result is
    computable is decided lazily.
    """
    if dim(x) < 3:
        raise DimensionTooSmall("suspension requires dimension >= 3")
    if e.parts:
        if x.kind != "connected_sum" or len(e.parts) != len(x.children):
            raise DimensionMismatch("split class arity must match the summands")
    return ManifoldExpr("twisted_suspension", children=(x,), euler=e)


# ---------------------------------------------------------------------------
# The catalogue: one row per atom
# ---------------------------------------------------------------------------

class Atom(NamedTuple):
    """One catalogue atom.  ``text`` has ``{}`` for each integer parameter:
    ``render`` prints it and the grammar reads it.  ``make`` is the
    validating constructor; the rest are functions of the parameters: the
    dimension, the spin flag (True / False / None = unknown), the homology
    groups by degree (absent degrees are trivial) and pi_1 as the text the
    report prints: "trivial", "Z/k" or "binary_icosahedral"."""

    text: str
    make: Callable
    dim: Callable
    spin: Callable
    homology: Callable
    pi1: Callable = lambda *params: "trivial"


ATOMS = {
    "sphere": Atom("S({})", sphere, lambda n: n, lambda n: True, lambda n: {0: Z, n: Z}),
    "cp": Atom("CP({})", cp, lambda m: 2 * m, lambda m: m % 2 == 1,
               lambda m: {2 * i: Z for i in range(m + 1)}),
    # Odd-order lens spaces have no 2-torsion in H^2(.; Z/2).
    "lens": Atom("lens({},{})", lens, lambda k, d: d, lambda k, d: True if k % 2 == 1 else None,
                 lambda k, d: {0: Z, d: Z, **{i: cyclic(k) for i in range(1, d - 1, 2)}},
                 lambda k, d: f"Z/{k}"),
    "smale": Atom("N({})", smale, lambda k: 5, lambda k: True,
                  lambda k: {0: Z, 2: direct_sum(cyclic(k), cyclic(k)), 5: Z}),
    "wu": Atom("Wu", wu_manifold, lambda: 5, lambda: False, lambda: {0: Z, 2: cyclic(2), 5: Z}),
    "poincare": Atom("Poincare", poincare_sphere, lambda: 3, lambda: True, lambda: {0: Z, 3: Z},
                     lambda: "binary_icosahedral"),
    "twisted_s2": Atom("S2~S({})", twisted_s2_bundle, lambda q: q + 2, lambda q: False,
                       lambda q: {0: Z, 2: Z, q: Z, q + 2: Z}),
    # Equal factors share one degree, which holds Z + Z.
    "product": Atom("S({})xS({})", sphere_product, lambda p, q: p + q, lambda p, q: True,
                    lambda p, q: {0: Z, p + q: Z,
                                  **({p: direct_sum(Z, Z)} if p == q else {p: Z, q: Z})}),
}

# The domain's size caps.  A request above one is refused as Unsupported
# (CLI exit 3) before any work that grows with the size.  Each cap is the
# largest size whose costliest request answered in about 1 s on a 2-vCPU
# VM: ``homology 'susp(0,lens(3,19999))'`` (1.0 s, a table of 20 001
# groups), ``gon --standard 699`` (1.0 s, a 1400 x 1400 model), a sum of
# 100 000 S(4) (0.8-1.1 s) and five zero suspensions of lens(3,16667)
# (0.8-1.1 s, 1 999 780 pairs).
CAPS = {
    "dimension": 20000,  # of any expression: spheres, CP's 2m, lens d, products
    "gon edges": 1400,  # m of a gon: 2L + 2 for gon --standard L, or its label count
    "nesting depth": 200,  # of csum(, susp( and a class's [ in an expression's text
    "sum cells": 500000,  # summands x (dimension + 1) of a connected sum
    "torsion pairs": 2000000,  # pairs of invariant factors the sweeps of one table compare
}


def capped(name: str, value: int) -> int:
    """``value``, or Unsupported when it is above the cap on ``name``."""
    if value > CAPS[name]:
        raise Unsupported(f"{name} {value} is above the cap of {CAPS[name]}")
    return value


# ---------------------------------------------------------------------------
# Rendering (the CLI grammar in reverse)
# ---------------------------------------------------------------------------

def render(x: ManifoldExpr) -> str:
    if x.kind == "atom":
        return ATOMS[x.atom].text.format(*x.params)
    if x.kind == "connected_sum":
        return "csum(" + ",".join(render(c) for c in x.children) + ")"
    if x.kind == "twisted_suspension":
        return f"susp({x.euler.render()},{render(x.children[0])})"
    raise ValueError(f"unrenderable expression {x!r}")


# ---------------------------------------------------------------------------
# Dimension / orientability / pi_1 / spin
# ---------------------------------------------------------------------------

@lru_cache(maxsize=CACHE_SIZE)
def dim(x: ManifoldExpr) -> int:
    """The dimension, capped: every homology table reads it first."""
    if x.kind == "atom":
        return capped("dimension", ATOMS[x.atom].dim(*x.params))
    if x.kind == "connected_sum":
        return dim(x.children[0])
    if x.kind == "twisted_suspension":
        return capped("dimension", dim(x.children[0]) + 1)
    raise ValueError(f"unknown expression kind {x.kind!r}")


@lru_cache(maxsize=CACHE_SIZE)
def pi1(x: ManifoldExpr) -> str:
    """pi_1 as the report prints it; "unsupported" for a free product."""
    if x.kind == "atom":
        return ATOMS[x.atom].pi1(*x.params)
    if x.kind == "connected_sum":
        nontrivial = [g for g in map(pi1, x.children) if g != "trivial"]
        if len(nontrivial) > 1:
            return "unsupported"  # free product; not needed downstream
        return nontrivial[0] if nontrivial else "trivial"
    if x.kind == "twisted_suspension":
        # Preserved by surgery on a fibre circle in dimension > 2.
        return pi1(x.children[0])
    raise ValueError(f"unknown expression kind {x.kind!r}")


def simply_connected(x: ManifoldExpr) -> bool:
    return pi1(x) == "trivial"


@lru_cache(maxsize=CACHE_SIZE)
def spin(x: ManifoldExpr):
    """Tri-state spin flag: True / False / None (= unknown)."""
    if x.kind == "atom":
        return ATOMS[x.atom].spin(*x.params)
    if x.kind == "connected_sum":
        flags = [spin(c) for c in x.children]
        if any(f is False for f in flags):
            return False
        if any(f is None for f in flags):
            return None
        return True
    if x.kind == "twisted_suspension":
        return _suspension_spin(x.children[0], x.euler)
    raise ValueError(f"unknown expression kind {x.kind!r}")


def _suspension_spin(base: ManifoldExpr, e: EulerClass):
    """Spin of a suspension: spin iff w_2(base) is congruent to e mod 2."""
    if e.parts:
        return spin(_suspended_summands(base, e.parts))
    s = spin(base)
    if e.k % 2 == 0:
        # e is an even class, so the condition is w_2(base) = 0.
        return s
    # e has odd divisibility.
    if base.kind == "atom" and base.atom == "cp":
        # w_2(CP^m) is (m + 1) times the generator mod 2.
        return (base.params[0] + 1) % 2 == e.k % 2
    if s is True:
        return False  # w_2 = 0 but e is odd
    return None  # w_2 nonzero or unknown; congruence not decidable here


def spin_label(flag) -> str:
    return {True: "yes", False: "no", None: "unknown"}[flag]


# ---------------------------------------------------------------------------
# Homology
# ---------------------------------------------------------------------------

def _table(n: int, groups: dict) -> tuple:
    return tuple(groups.get(i, TRIVIAL) for i in range(n + 1))


@lru_cache(maxsize=CACHE_SIZE)
def homology(x: ManifoldExpr) -> tuple:
    """Integral homology table H_0 .. H_n, or Unsupported."""
    n = dim(x)
    if x.kind == "atom":
        return _table(n, ATOMS[x.atom].homology(*x.params))
    if x.kind == "connected_sum":
        columns = list(zip(*[homology(c) for c in x.children]))[1:n]
        return (Z, *_direct_sums(columns), Z)
    if x.kind == "twisted_suspension":
        return _suspension_homology(x.children[0], x.euler)
    raise ValueError(f"unknown expression kind {x.kind!r}")


def _direct_sums(columns: list) -> list:
    """The direct sum of each column of groups, once the pairs of invariant
    factors that their normal-form sweeps compare are within the cap."""
    counts = [sum(len(g.torsion) for g in column) for column in columns]
    capped("torsion pairs", sum(c * (c - 1) // 2 for c in counts))
    return [direct_sum(*column) for column in columns]


def _suspended_summands(base: ManifoldExpr, parts) -> ManifoldExpr:
    """The split-class rule: a suspension of a connected sum by
    [e1,...,eL] is the sum of the summands' suspensions by e1, ..., eL."""
    return connected_sum([suspend(c, p) for c, p in zip(base.children, parts)])


def _suspension_homology(base: ManifoldExpr, e: EulerClass) -> tuple:
    if e.parts:
        return homology(_suspended_summands(base, e.parts))
    n = dim(base)
    if e.k == 0:
        h = homology(base)
        return (Z, h[1], *_direct_sums(list(zip(h[2:n], h[1:n - 1]))), h[n - 1], Z)
    # Nonzero single class: only the resolved Gysin families.
    if base.kind == "atom" and base.atom == "cp":
        m = base.params[0]
        groups = {0: Z, 2: Z, 2 * m - 1: Z, 2 * m + 1: Z}
        if e.k >= 2:
            for i in range(3, 2 * m - 2, 2):
                groups[i] = cyclic(e.k)
        return _table(2 * m + 1, groups)
    if base.kind == "atom" and base.atom == "lens" and e.k == 1:
        # Cohomology vanishes in degrees 3..n-2 and H^{n-1} = Z/k; dual to
        # a table with torsion Z/k in degrees 1 and n-2 and nothing else.
        k = base.params[0]
        m = dim(base) + 1  # even
        return _table(m, {0: Z, 1: cyclic(k), m - 2: cyclic(k), m: Z})
    raise Unsupported(
        f"twisted suspension of {render(base)} by {e.render()} is outside the catalog"
    )


def cohomology(x: ManifoldExpr) -> tuple:
    """Integral cohomology via universal coefficients: H^i = free(H_i) + tors(H_{i-1})."""
    h = homology(x)
    return tuple(FgAbGroup(g.free_rank, h[i - 1].torsion if i else ())
                 for i, g in enumerate(h))


def betti(x: ManifoldExpr) -> tuple:
    return tuple(g.free_rank for g in homology(x))


def euler_characteristic(x: ManifoldExpr) -> int:
    return sum((-1) ** i * b for i, b in enumerate(betti(x)))


# ---------------------------------------------------------------------------
# Rewrites to connected-sum normal form
# ---------------------------------------------------------------------------

def decompose(x: ManifoldExpr) -> ManifoldExpr:
    """Rewrite toward connected-sum normal form.

    The catalog's diffeomorphism rules: suspensions of sums split
    summand-wise, suspended spheres collapse, generator-twisted
    projective spaces become sphere bundles over S^2, zero-twisted
    products S^2 x S^{2k} split, and trivial S^2 x S^q summands are
    absorbed by a twisted neighbour.  One pass is the fixpoint: children
    are rewritten first, the split rule rewrites its own output, every
    other rule returns atoms (or a sum of two products) that no rule
    matches, and an enclosing sum flattens and absorbs after its
    children.  Homology and spin are preserved; input is returned
    unchanged when no rule fires.
    """
    return _rewrite(x)


def _rewrite(x: ManifoldExpr) -> ManifoldExpr:
    if x.kind == "connected_sum":
        children = []
        for c in x.children:
            c = _rewrite(c)
            if c.kind == "connected_sum":
                children.extend(c.children)
            else:
                children.append(c)
        return connected_sum(_absorb_trivial_bundles(children))
    if x.kind == "twisted_suspension":
        e = x.euler
        if e.parts:  # split over the summands as written: their rewrites may regroup them
            return _rewrite(_suspended_summands(x.children[0], e.parts))
        base = _rewrite(x.children[0])
        if base.kind == "connected_sum" and dim(base) >= 4 and e.k == 0:
            return _rewrite(_suspended_summands(base, [ZERO_CLASS] * len(base.children)))
        if base.kind == "atom" and base.atom == "sphere" and e == ZERO_CLASS:
            return sphere(base.params[0] + 1)
        if base.kind == "atom" and base.atom == "cp" and e.k == 1:
            c = base.params[0]
            if c % 2 == 0:
                return sphere_product(2, 2 * c - 1)
            return twisted_s2_bundle(2 * c - 1)
        if (base.atom == "product" and base.params[0] == 2 and base.params[1] % 2 == 0
                and e == ZERO_CLASS):
            q = base.params[1]
            return connected_sum([sphere_product(2, q + 1), sphere_product(3, q)])
        if base is not x.children[0]:
            return ManifoldExpr("twisted_suspension", children=(base,), euler=e)
        return x
    return x


def _absorb_trivial_bundles(children: list) -> list:
    """Turn S^2 x S^q summands into twisted bundles next to an S2~S^q one."""
    twisted_fibres = {
        c.params[0] for c in children if c.kind == "atom" and c.atom == "twisted_s2"
    }
    if not twisted_fibres:
        return children
    out = []
    for c in children:
        if c.atom == "product" and c.params[0] == 2 and c.params[1] in twisted_fibres:
            out.append(twisted_s2_bundle(c.params[1]))
        else:
            out.append(c)
    return out
