import math
import random
from itertools import product

import pytest

from twistbench.fgab import FgAbGroup, TRIVIAL, Z, cyclic, direct_sum, from_divisors
from twistbench.intlat import IntMatrix, snf


def _prime_factors(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _invariant_factors_by_primes(divisors):
    """Oracle: invariant factors by merging prime-power ladders.

    Independent of the SNF route: factor each divisor, stack the
    prime-power exponents in decreasing order, and multiply across rows.
    """
    ladders = {}
    for d in divisors:
        for p, e in _prime_factors(d).items():
            ladders.setdefault(p, []).append(e)
    for p in ladders:
        ladders[p].sort(reverse=True)
    depth = max((len(v) for v in ladders.values()), default=0)
    factors = []
    for i in range(depth):
        f = 1
        for p, exps in ladders.items():
            if i < len(exps):
                f *= p ** exps[i]
        factors.append(f)
    return factors  # descending


def oracle_normal_form(divisors):
    return tuple(sorted(_invariant_factors_by_primes(divisors)))


def test_from_divisors_matches_oracle():
    rng = random.Random(42)
    for _ in range(300):
        divisors = [rng.randint(2, 24) for _ in range(rng.randint(0, 5))]
        got = from_divisors(divisors)
        assert got.torsion == oracle_normal_form(divisors)
        assert got.free_rank == 0


def ladder_form(divisors, free_rank=0):
    """Reference group of (+) Z/d_i (+) Z^free_rank by the prime ladders."""
    zeros = sum(d == 0 for d in divisors)
    return FgAbGroup(free_rank + zeros, oracle_normal_form([abs(d) for d in divisors if d]))


def snf_form(divisors, free_rank=0):
    """Reference group by the Smith normal form of diag(d_1, ..., d_k), the
    route ``from_divisors`` took before the gcd/lcm sweep."""
    k = len(divisors)
    diag = snf(IntMatrix.from_rows(
        [[d if i == j else 0 for j in range(k)] for i, d in enumerate(divisors)]
    )).diagonal() if k else ()
    return FgAbGroup(free_rank + diag.count(0), tuple(d for d in diag if d > 1))


def divisor_lists(rng, top, count=150):
    """Seeded lists of 0..12 entries in [-top, top]: chains, repeats and
    unrelated entries, with zeros and units mixed in."""
    for _ in range(count):
        k = rng.randint(0, 12)
        shape = rng.randrange(3)
        if shape == 0:  # a chain up to sign, restarted at 1 past top
            out, d = [], 1
            for _ in range(k):
                d *= rng.choice((1, 2, 3, rng.randint(2, 1000)))
                if d > top:
                    d = 1
                out.append(d * rng.choice((1, -1)))
        elif shape == 1:  # repeats from a small pool
            pool = [rng.randint(-top, top), rng.randint(-60, 60), rng.randint(2, 12)]
            out = [rng.choice(pool) for _ in range(k)]
        else:  # small entries share factors often, large ones rarely
            out = [rng.choice((rng.randint(-60, 60), rng.randint(-top, top))) for _ in range(k)]
        yield [rng.choice((0, 1, -1)) if rng.random() < 0.15 else d for d in out]


@pytest.mark.parametrize("reference, top, seed", [
    (ladder_form, 10**6, 11),
    (snf_form, 10**30, 12),
], ids=["prime-ladder", "snf"])
def test_from_divisors_and_direct_sum_match_references(reference, top, seed):
    rng = random.Random(seed)
    shapes = set()
    for divisors in divisor_lists(rng, top):
        rank = rng.randint(0, 2)
        want = reference(divisors, rank)
        assert from_divisors(divisors, free_rank=rank) == want, divisors
        # The same group as a direct sum of the references of 1..3 slices.
        cuts = sorted(rng.randint(0, len(divisors)) for _ in range(rng.randint(0, 2)))
        parts = [divisors[a:b] for a, b in zip([0, *cuts], [*cuts, len(divisors)])]
        ranks = [0] * len(parts)
        ranks[rng.randrange(len(parts))] = rank
        groups = [reference(p, r) for p, r in zip(parts, ranks)]
        assert direct_sum(*groups) == want, divisors
        shapes.add((len(divisors) == 0, 0 in divisors, -1 in divisors,
                    any(d < -1 for d in divisors), max(map(abs, divisors), default=0) > 10**5))
    # Every kind of entry showed up: empty lists, zeros, -1, other negatives, large entries.
    assert all(any(s[i] for s in shapes) for i in range(5))


def test_small_enumeration_oracle():
    # Z/2 + Z/3 is cyclic of order 6: every element order divides 6 and
    # some element attains it.
    orders = [
        math.lcm(*(d // math.gcd(d, c) for c, d in zip(el, (2, 3))))
        if any(el)
        else 1
        for el in product(range(2), range(3))
    ]
    assert max(orders) == 6
    assert from_divisors([2, 3]) == cyclic(6)


def test_direct_sum():
    g = FgAbGroup(1, (2,))
    assert direct_sum(g, TRIVIAL) == g
    assert direct_sum(cyclic(2), cyclic(3)) == cyclic(6)
    assert direct_sum(cyclic(4), cyclic(4)) == FgAbGroup(0, (4, 4))


def test_direct_sum_commutative_associative():
    rng = random.Random(8)
    for _ in range(60):
        gs = [
            from_divisors(
                [rng.randint(2, 12) for _ in range(rng.randint(0, 3))],
                free_rank=rng.randint(0, 2),
            )
            for _ in range(3)
        ]
        a, b, c = gs
        assert direct_sum(a, b) == direct_sum(b, a)
        assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))


def test_chained_divisors_fixed():
    assert from_divisors([5, 5]).torsion == (5, 5)
    assert from_divisors([2, 4, 8]).torsion == (2, 4, 8)


def test_accessors_and_render():
    g = FgAbGroup(7, (2,))
    assert g.free_rank == 7
    assert Z.torsion == ()
    assert TRIVIAL.render() == "0"
    assert Z.render() == "Z"
    assert FgAbGroup(2, (4, 12)).render() == "Z^2 + Z/4 + Z/12"
