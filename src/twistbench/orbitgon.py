"""Cohomogeneity-two torus orbit data.

The orbit space of an effective T^{n-2}-action on a closed simply
connected n-manifold is an m-gon whose edges carry primitive isotropy
vectors in Z^{n-2}.  This module validates labellings (primitivity,
adjacent basis extension, global generation), computes the second Betti
number m - n + 2, produces the unimodular m x m model matrix extending
the labels, and normalizes the minimal case m = n - 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from . import intlat
from .errors import InvalidLabelling, NotMinimal
from .intlat import IntMatrix


@dataclass(frozen=True)
class GonLabelling:
    n: int  # manifold dimension >= 4
    labels: tuple  # cyclically ordered vectors in Z^{n-2}

    def __post_init__(self):
        if self.n < 4:
            raise InvalidLabelling("manifold dimension must be >= 4")
        if len(self.labels) < 2:
            raise InvalidLabelling("a gon has at least two edges")
        d = self.n - 2
        for a in self.labels:
            if len(a) != d:
                raise InvalidLabelling(f"labels must live in Z^{d}")
            if all(x == 0 for x in a):
                raise InvalidLabelling("labels must be nonzero")

    @property
    def m(self) -> int:
        return len(self.labels)

    @cached_property
    def validation(self) -> GonValidation:
        """``validate(self)``, worked out once per labelling."""
        return validate(self)

    def label_matrix(self) -> IntMatrix:
        """(n-2) x m matrix with the labels as columns."""
        d = self.n - 2
        return IntMatrix.from_rows(
            [[self.labels[j][i] for j in range(self.m)] for i in range(d)], cols=self.m
        )


def gon(n: int, labels) -> GonLabelling:
    """The labelling of dimension ``n`` by the vectors ``labels``.

    Nothing is coerced: n must be an int and ``labels`` a list or tuple of
    lists or tuples of ints, or InvalidLabelling is raised, so a
    fractional label is refused rather than truncated.
    """
    def ints(xs):
        return isinstance(xs, (list, tuple)) and all(type(x) is int for x in xs)

    if type(n) is not int or not isinstance(labels, (list, tuple)) or not all(map(ints, labels)):
        raise InvalidLabelling("a gon needs an integer n and labels that are lists of integers")
    return GonLabelling(n, tuple(map(tuple, labels)))


class GonValidation(NamedTuple):
    primitive: tuple  # per label
    pairs_extend: tuple  # per cyclic adjacent pair (a_i, a_{i+1}), wrapping
    generates: bool
    valid: bool
    failures: tuple

    def as_dict(self) -> dict:
        return {
            "primitive": list(self.primitive),
            "pairs_extend": list(self.pairs_extend),
            "generates": self.generates,
            "valid": self.valid,
            "failures": list(self.failures),
        }


def validate(g: GonLabelling) -> GonValidation:
    """Check the three labelling conditions and report every failure."""
    m = g.m
    prim = tuple(intlat.divisibility(a) == 1 for a in g.labels)
    pairs = []
    for i in range(m):
        a, b = g.labels[i], g.labels[(i + 1) % m]
        pairs.append(intlat.extends_to_basis([a, b]))
    diag = intlat.snf(g.label_matrix()).diagonal()
    needed = g.n - 2
    generates = len(diag) >= needed and all(d == 1 for d in diag[:needed])
    failures = []
    failures.extend(f"label {i} is not primitive" for i, p in enumerate(prim) if not p)
    failures.extend(
        f"pair ({i},{(i + 1) % m}) does not extend to a basis"
        for i, p in enumerate(pairs)
        if not p
    )
    if not generates:
        failures.append("labels do not generate the lattice")
    return GonValidation(
        primitive=prim,
        pairs_extend=tuple(pairs),
        generates=generates,
        valid=not failures,
        failures=tuple(failures),
    )


def _require_valid(g: GonLabelling):
    report = g.validation
    if not report.valid:
        raise InvalidLabelling("; ".join(report.failures))


def betti2(g: GonLabelling) -> int:
    """b_2 of the manifold over the gon: m - n + 2."""
    _require_valid(g)
    if g.m < g.n - 2:
        # Generation already forces this; kept as a loud sanity check.
        raise InvalidLabelling("fewer edges than the lattice rank")
    return g.m - g.n + 2


def unimodular_model(g: GonLabelling) -> IntMatrix:
    """Unimodular m x m matrix whose top n-2 rows are the label matrix."""
    _require_valid(g)
    return intlat.unimodular_extension(g.label_matrix())


def normalize_minimal(g: GonLabelling) -> GonLabelling:
    """For m = n - 2, transform the labels to the standard basis.

    Any two valid minimal labellings differ by a torus automorphism, so
    the normal form is the identity labelling.
    """
    _require_valid(g)
    d = g.n - 2
    if g.m != d:
        raise NotMinimal("normalization applies only to m = n - 2 gons")
    if abs(g.label_matrix().det()) != 1:
        raise InvalidLabelling("minimal labelling must be unimodular")
    # a^{-1} maps the labels, the columns of a, to the standard basis.
    return GonLabelling(g.n, tuple(map(tuple, intlat.identity_lists(d))))


def standard_gon(handles: int) -> GonLabelling:
    """Canonical 4-dimensional gon with b_2 = 2 * handles.

    A (2*handles + 2)-gon with labels alternating between the two
    standard basis vectors; every adjacent pair is the standard basis,
    matching the fixed-point count 2*handles + 2 of the model action.
    """
    if handles < 0:
        raise ValueError("handle count must be nonnegative")
    m = 2 * handles + 2
    labels = tuple((1, 0) if i % 2 == 0 else (0, 1) for i in range(m))
    return GonLabelling(4, labels)


def random_valid_labelling(rng: random.Random, n: int, m: int) -> GonLabelling:
    """Random valid gon for property tests.

    Builds a valid cyclic pattern of standard basis vectors (with the
    all-ones-compatible vector e_0 + e_1 patching odd wraparounds), then
    applies a random unimodular change of basis and random sign flips,
    both of which preserve validity.
    """
    d = n - 2
    if m < d:
        raise ValueError("m must be at least n - 2")
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    seq = list(range(d))
    toggle = [0, 1] if d >= 2 else [0]
    while len(seq) < m:
        seq.append(toggle[(len(seq) - d) % len(toggle)])
    labels = [basis[i] for i in seq]
    if d >= 2 and seq[-1] == seq[0]:
        labels[-1] = tuple(basis[0][i] + basis[1][i] for i in range(d))
    g = GonLabelling(n, tuple(labels))
    report = validate(g)
    assert report.valid, report.failures
    # Random unimodular transform: a few shear/swap/negate moves.
    u = intlat.identity_lists(d)
    for _ in range(4 * d):
        move = rng.randrange(3)
        i = rng.randrange(d)
        j = rng.randrange(d)
        if move == 0 and i != j:
            q = rng.randint(-2, 2)
            for k in range(d):
                u[i][k] += q * u[j][k]
        elif move == 1 and i != j:
            u[i], u[j] = u[j], u[i]
        elif move == 2:
            u[i] = [-x for x in u[i]]
    umat = IntMatrix.from_rows(u)
    assert abs(umat.det()) == 1
    cols = [umat @ IntMatrix.from_rows([[x] for x in a], cols=1) for a in g.labels]
    new_labels = []
    for c in cols:
        vec = tuple(c[i, 0] for i in range(d))
        if rng.random() < 0.3:
            vec = tuple(-x for x in vec)
        new_labels.append(vec)
    out = GonLabelling(n, tuple(new_labels))
    assert validate(out).valid
    return out
