import math
import random
from itertools import product

from twistbench.fgab import FgAbGroup, TRIVIAL, Z, cyclic, direct_sum, from_divisors


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
