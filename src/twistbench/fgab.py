"""Finitely generated abelian groups in invariant-factor normal form.

A group is stored as a free rank plus an invariant-factor chain
d_1 | d_2 | ... | d_t with every d_i >= 2, so structural equality is
plain field equality.  Normal forms come from gcd and lcm alone:
Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), so no matrix is reduced.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd
from typing import Iterable

# Unused here; bench/tests reads it as the second module name of intlat.snf.
from .intlat import snf  # noqa: F401


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

    Zeros contribute free summands and ones are dropped.  The rest is
    rechained in place by one pairwise sweep: for i < j, when a_i does not
    divide a_j, the pair becomes (gcd, lcm), which keeps the group.  After
    its row, a_i divides every later entry, so the list ends as a chain
    a_1 | a_2 | ...; the 1s the gcds leave at its front are dropped.
    """
    tors = []
    rank = free_rank
    for d in divisors:
        d = abs(int(d))
        if d == 0:
            rank += 1
        elif d > 1:
            tors.append(d)
    for i, a in enumerate(tors):
        for j in range(i + 1, len(tors)):
            b = tors[j]
            if b % a:
                g = gcd(a, b)
                tors[j] = a // g * b
                a = g
        tors[i] = a
    return FgAbGroup(rank, tuple(d for d in tors if d > 1))


def direct_sum(*groups: FgAbGroup) -> FgAbGroup:
    """Normal form of the direct sum of the given groups."""
    rank = sum(g.free_rank for g in groups)
    tors = [d for g in groups for d in g.torsion]
    return from_divisors(tors, free_rank=rank)
