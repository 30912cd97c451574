"""Cohomogeneity-two torus orbit data.

The orbit space of an effective T^{n-2}-action on a closed simply
connected n-manifold is an m-gon whose edges carry primitive isotropy
vectors in Z^{n-2}.  This module validates labellings (primitivity,
adjacent basis extension, global generation), computes the second Betti
number m - n + 2, and produces the unimodular m x m model matrix
extending the labels.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from typing import NamedTuple

from . import intlat, topology
from .errors import InvalidLabelling
from .intlat import IntMatrix


class GonLabelling(namedtuple("GonLabelling", "n labels")):
    """The m-gon of an n-manifold, n >= 4: ``labels`` are its edges' vectors
    in Z^{n-2}, cyclically ordered.  No ``__slots__``: the instance keeps
    ``reduction`` and ``validation`` in its ``__dict__``."""

    def __new__(cls, n: int, labels: tuple):
        if n < 4:
            raise InvalidLabelling("manifold dimension must be >= 4")
        if len(labels) < 2:
            raise InvalidLabelling("a gon has at least two edges")
        d = n - 2
        for a in labels:
            if len(a) != d:
                raise InvalidLabelling(f"labels must live in Z^{d}")
            if all(x == 0 for x in a):
                raise InvalidLabelling("labels must be nonzero")
        return tuple.__new__(cls, (n, labels))

    @property
    def m(self) -> int:
        return len(self.labels)

    @cached_property
    def reduction(self) -> intlat.SnfDecomposition:
        """``intlat.snf`` of the label matrix, worked out once per labelling:
        the generation check and the unimodular model both read it."""
        return intlat.snf(self.label_matrix())

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
    topology.capped("gon edges", len(labels))
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
    prim = tuple(math.gcd(*a) == 1 for a in g.labels)
    pairs = []
    for i in range(m):
        a, b = g.labels[i], g.labels[(i + 1) % m]
        pairs.append(intlat.extends_to_basis([a, b]))
    diag = g.reduction.diagonal()
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
    _require_valid(g)  # generation forces m >= n - 2
    return g.m - g.n + 2


def unimodular_model(g: GonLabelling) -> IntMatrix:
    """Unimodular m x m matrix whose top n-2 rows are the label matrix."""
    _require_valid(g)
    return intlat.unimodular_extension(g.reduction)


def standard_gon(handles: int) -> GonLabelling:
    """Canonical 4-dimensional gon with b_2 = 2 * handles.

    A (2*handles + 2)-gon with labels alternating between the two
    standard basis vectors; every adjacent pair is the standard basis,
    matching the fixed-point count 2*handles + 2 of the model action.
    """
    if handles < 0:
        raise ValueError("handle count must be nonnegative")
    m = topology.capped("gon edges", 2 * handles + 2)
    labels = tuple((1, 0) if i % 2 == 0 else (0, 1) for i in range(m))
    return GonLabelling(4, labels)
