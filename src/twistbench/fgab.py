"""Finitely generated abelian groups in invariant-factor normal form.

A group is stored as a free rank plus an invariant-factor chain
d_1 | d_2 | ... | d_t with every d_i >= 2, so structural equality is
plain field equality.  Normal forms come straight out of the Smith
normal form of a diagonal matrix.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from .intlat import IntMatrix, snf


class FgAbGroup(namedtuple("FgAbGroup", "free_rank torsion")):
    """Z^free_rank plus the invariant factors ``torsion``, a tuple of ints
    each >= 2 that forms a divisibility chain."""

    __slots__ = ()

    def __new__(cls, free_rank: int, torsion: tuple):
        if free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for d in torsion:
            if not isinstance(d, int) or d < 2:
                raise ValueError("torsion coefficients must be integers >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion list must form a divisibility chain")
        return tuple.__new__(cls, (free_rank, torsion))

    def render(self) -> str:
        """Textual form used in JSON reports, e.g. ``Z^2 + Z/4 + Z/12``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.render()


TRIVIAL = FgAbGroup(0, ())
Z = FgAbGroup(1, ())


def free(rank: int) -> FgAbGroup:
    return FgAbGroup(rank, ())


def cyclic(k: int) -> FgAbGroup:
    """Z/k for k >= 2, Z for k = 0, trivial for k = 1."""
    k = abs(int(k))
    if k == 0:
        return Z
    if k == 1:
        return TRIVIAL
    return FgAbGroup(0, (k,))


def from_divisors(divisors: Iterable[int], free_rank: int = 0) -> FgAbGroup:
    """Normal form of (+) Z/d_i (+) Z^free_rank for arbitrary d_i.

    Zeros contribute free summands, ones are dropped, everything else is
    rechained into invariant factors via the SNF of a diagonal matrix.
    """
    tors = []
    rank = free_rank
    for d in divisors:
        d = abs(int(d))
        if d == 0:
            rank += 1
        elif d > 1:
            tors.append(d)
    if not tors:
        return FgAbGroup(rank, ())
    k = len(tors)
    diag = IntMatrix.from_rows(
        [[tors[i] if i == j else 0 for j in range(k)] for i in range(k)]
    )
    chain = [d for d in snf(diag).diagonal() if d > 1]
    return FgAbGroup(rank, tuple(chain))


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """Normal form of the direct sum of the given groups."""
    rank = sum(g.free_rank for g in groups)
    tors = [d for g in groups for d in g.torsion]
    return from_divisors(tors, free_rank=rank)
