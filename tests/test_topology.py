import random

import pytest

from twistbench import topology as tp
from twistbench.errors import (
    DimensionMismatch,
    DimensionTooSmall,
    Unsupported,
)
from twistbench.fgab import FgAbGroup, TRIVIAL, Z, cyclic, direct_sum
from twistbench.topology import EulerClass, ZERO_CLASS


def table(*entries):
    return tuple(entries)


def zero_suspension_oracle(h, n):
    """Independent re-derivation of the untwisted suspension table."""
    out = []
    for i in range(n + 2):
        if i in (0, 1):
            out.append(h[i])
        elif i in (n, n + 1):
            out.append(h[i - 1])
        else:
            out.append(direct_sum(h[i], h[i - 1]))
    return tuple(out)


# -- atoms -------------------------------------------------------------------

def test_sphere_homology():
    assert tp.homology(tp.sphere(4)) == table(Z, TRIVIAL, TRIVIAL, TRIVIAL, Z)


def test_lens_homology():
    h = tp.homology(tp.lens(3, 5))
    assert h == table(Z, cyclic(3), TRIVIAL, cyclic(3), TRIVIAL, Z)


def test_smale_homology():
    h = tp.homology(tp.smale(7))
    assert h[0] == Z and h[5] == Z
    assert h[2] == FgAbGroup(0, (7, 7))
    assert h[1] == h[3] == h[4] == TRIVIAL


def test_cp_and_wu_and_poincare():
    assert tp.betti(tp.cp(3)) == (1, 0, 1, 0, 1, 0, 1)
    assert tp.homology(tp.wu_manifold())[2] == cyclic(2)
    assert tp.homology(tp.poincare_sphere()) == (Z, TRIVIAL, TRIVIAL, Z)
    assert tp.pi1(tp.poincare_sphere()) == "binary_icosahedral"


def test_product_homology():
    h = tp.homology(tp.sphere_product(2, 4))
    assert tp.betti(tp.sphere_product(2, 4)) == (1, 0, 1, 0, 1, 0, 1)
    assert h[2] == Z and h[4] == Z
    # equal factors double up in the middle
    assert tp.betti(tp.sphere_product(3, 3)) == (1, 0, 0, 2, 0, 0, 1)
    assert tp.homology(tp.sphere_product(3, 3))[3] == direct_sum(Z, Z)


def test_twisted_bundle_homology_matches_product():
    assert tp.homology(tp.twisted_s2_bundle(4)) == tp.homology(tp.sphere_product(2, 4))
    assert tp.spin(tp.twisted_s2_bundle(4)) is False
    assert tp.spin(tp.sphere_product(2, 4)) is True


# -- connected sums ----------------------------------------------------------

def test_connected_sum_single_summand():
    x = tp.sphere(4)
    assert tp.connected_sum([x]) == x


def test_connected_sum_products():
    x = tp.connected_sum([tp.sphere_product(2, 4)] * 3)
    assert tp.betti(x) == (1, 0, 3, 0, 3, 0, 1)


def test_connected_sum_smale_product():
    x = tp.connected_sum([tp.smale(2), tp.sphere_product(2, 3)])
    h = tp.homology(x)
    assert h[2] == direct_sum(Z, cyclic(2), cyclic(2))
    assert h[3] == Z
    assert h[0] == h[5] == Z


def test_connected_sum_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        tp.connected_sum([tp.sphere(4), tp.sphere(5)])


def test_connected_sum_spin():
    assert tp.spin(tp.connected_sum([tp.smale(2), tp.sphere_product(2, 3)])) is True
    assert tp.spin(tp.connected_sum([tp.wu_manifold(), tp.smale(3)])) is False


# -- suspensions -------------------------------------------------------------

def test_suspend_smale_zero():
    x = tp.suspend(tp.smale(2), ZERO_CLASS)
    h = tp.homology(x)
    t = FgAbGroup(0, (2, 2))
    assert h == table(Z, TRIVIAL, t, t, TRIVIAL, TRIVIAL, Z)
    assert tp.simply_connected(x)
    assert tp.spin(x) is True


def test_suspend_sphere_is_sphere():
    x = tp.suspend(tp.sphere(3), ZERO_CLASS)
    assert tp.homology(x) == tp.homology(tp.sphere(4))


def test_suspend_zero_matches_oracle():
    rng = random.Random(77)
    exprs = [
        tp.smale(5),
        tp.lens(4, 5),
        tp.wu_manifold(),
        tp.connected_sum([tp.sphere_product(2, 3), tp.smale(3)]),
        tp.cp(3),
        tp.poincare_sphere(),
    ]
    for x in exprs:
        n = tp.dim(x)
        got = tp.homology(tp.suspend(x, ZERO_CLASS))
        assert got == zero_suspension_oracle(tp.homology(x), n)


def test_suspend_cp_divisibility_four():
    x = tp.suspend(tp.cp(3), EulerClass.of_divisibility(4))
    coh = tp.cohomology(x)
    expected = table(Z, TRIVIAL, Z, TRIVIAL, cyclic(4), Z, TRIVIAL, Z)
    assert coh == expected


def test_suspend_cp_generator_matches_sphere_bundle():
    # generator class: the suspension is the corresponding sphere bundle
    x = tp.suspend(tp.cp(2), EulerClass.primitive())
    assert tp.homology(x) == tp.homology(tp.sphere_product(2, 3))
    y = tp.suspend(tp.cp(3), EulerClass.primitive())
    assert tp.homology(y) == tp.homology(tp.twisted_s2_bundle(5))


def test_suspend_lens_primitive():
    # n even; fundamental group survives and middle homology is killed
    # except the Poincare-dual torsion in degree n-2
    x = tp.suspend(tp.lens(5, 5), EulerClass.primitive())
    assert tp.pi1(x) == "Z/5"
    h = tp.homology(x)
    assert h[1] == cyclic(5)
    assert h[4] == cyclic(5)
    assert all(h[i] == TRIVIAL for i in (2, 3, 5))
    assert h[0] == h[6] == Z
    assert tp.betti(x) == (1, 0, 0, 0, 0, 0, 1)


def test_suspend_dimension_too_small():
    with pytest.raises(DimensionTooSmall):
        tp.suspend(tp.sphere(2), ZERO_CLASS)


def test_suspend_unsupported_twist():
    with pytest.raises(Unsupported):
        tp.homology(tp.suspend(tp.smale(2), EulerClass.primitive()))


def test_suspend_split():
    base = tp.connected_sum([tp.cp(2), tp.cp(2)])
    e = EulerClass.split([EulerClass.primitive(), EulerClass.primitive()])
    x = tp.suspend(base, e)
    assert tp.homology(x) == tp.homology(
        tp.connected_sum([tp.sphere_product(2, 3)] * 2)
    )


def test_split_arity_checked():
    base = tp.connected_sum([tp.cp(2), tp.cp(2)])
    with pytest.raises(DimensionMismatch):
        tp.suspend(base, EulerClass.split([EulerClass.primitive()]))


def test_suspension_spin_rules():
    # even-divisibility twist of a spin manifold stays spin
    assert tp.spin(tp.suspend(tp.cp(3), EulerClass.of_divisibility(4))) is True
    # odd twist of a spin manifold is not spin
    assert tp.spin(tp.suspend(tp.cp(3), EulerClass.primitive())) is False
    # CP(2): w2 is odd, so an odd twist matches it
    assert tp.spin(tp.suspend(tp.cp(2), EulerClass.primitive())) is True
    assert tp.spin(tp.suspend(tp.wu_manifold(), ZERO_CLASS)) is False
    assert tp.spin(tp.suspend(tp.lens(4, 5), ZERO_CLASS)) is None


def test_homology_sphere_preserved():
    x = tp.poincare_sphere()
    for _ in range(3):
        x = tp.suspend(x, ZERO_CLASS)
        assert tp.homology(x) == (Z,) + (TRIVIAL,) * (tp.dim(x) - 1) + (Z,)
    assert tp.pi1(x) == "binary_icosahedral"


def test_rational_homology_sphere_preserved():
    x = tp.lens(3, 5)
    assert tp.betti(x) == (1, 0, 0, 0, 0, 1)
    y = tp.suspend(x, ZERO_CLASS)
    assert tp.betti(y) == (1, 0, 0, 0, 0, 0, 1)


# -- duality / Euler characteristic invariants -------------------------------

CATALOG = [
    tp.sphere(4),
    tp.sphere(7),
    tp.cp(2),
    tp.cp(4),
    tp.lens(3, 5),
    tp.lens(4, 7),
    tp.smale(6),
    tp.wu_manifold(),
    tp.poincare_sphere(),
    tp.sphere_product(2, 5),
    tp.twisted_s2_bundle(3),
    tp.connected_sum([tp.smale(2), tp.smale(3)]),
    tp.suspend(tp.smale(4), ZERO_CLASS),
    tp.suspend(tp.cp(3), EulerClass.of_divisibility(6)),
    tp.suspend(tp.lens(2, 3), EulerClass.primitive()),
    tp.suspend(tp.lens(6, 7), EulerClass.primitive()),
    tp.suspend(tp.connected_sum([tp.cp(2), tp.cp(2), tp.cp(2)]),
               EulerClass.split([EulerClass.primitive()] * 3)),
]


@pytest.mark.parametrize("x", CATALOG, ids=[tp.render(x) for x in CATALOG])
def test_poincare_duality(x):
    h = tp.homology(x)
    n = tp.dim(x)
    b = tp.betti(x)
    assert h[0] == Z
    for i in range(n + 1):
        assert b[i] == b[n - i]
        # torsion of H_i matches torsion of H_{n-i-1}
        if 0 <= n - i - 1 <= n:
            assert h[i].torsion == h[n - i - 1].torsion


@pytest.mark.parametrize("x", CATALOG[:10], ids=[tp.render(x) for x in CATALOG[:10]])
def test_suspension_euler_characteristic(x):
    if tp.dim(x) < 3:
        return
    y = tp.suspend(x, ZERO_CLASS)
    if tp.dim(y) % 2 == 1:
        assert tp.euler_characteristic(y) == 0
    coh = tp.cohomology(y)
    assert len(coh) == tp.dim(y) + 1


# -- decompose ---------------------------------------------------------------

def test_decompose_atom_fixpoint():
    x = tp.lens(3, 5)
    assert tp.decompose(x) == x


def test_decompose_suspended_sphere():
    assert tp.decompose(tp.suspend(tp.sphere(3), ZERO_CLASS)) == tp.sphere(4)


def test_decompose_splits_suspended_sum():
    base = tp.connected_sum([tp.smale(2), tp.sphere_product(2, 3)])
    x = tp.suspend(base, ZERO_CLASS)
    y = tp.decompose(x)
    assert y.kind == "connected_sum"
    assert tp.homology(y) == tp.homology(x)


def test_decompose_bundle_total_space():
    # star pattern of the S1-bundle over M # CP(2m) sums with generator
    # classes: P = susp(M, e) # (l-1) trivial sphere bundles
    base = tp.connected_sum([tp.cp(2)] * 3)
    e = EulerClass.split([EulerClass.primitive()] * 3)
    x = tp.suspend(base, e)
    y = tp.decompose(x)
    assert y == tp.connected_sum([tp.sphere_product(2, 3)] * 3)


def test_decompose_zero_twist_product():
    x = tp.suspend(tp.sphere_product(2, 4), ZERO_CLASS)
    y = tp.decompose(x)
    assert y == tp.connected_sum([tp.sphere_product(2, 5), tp.sphere_product(3, 4)])
    assert tp.homology(y) == tp.homology(x)


def test_decompose_absorbs_trivial_bundles():
    x = tp.connected_sum(
        [tp.twisted_s2_bundle(4), tp.sphere_product(2, 4), tp.sphere_product(3, 3)]
    )
    y = tp.decompose(x)
    assert y == tp.connected_sum(
        [tp.twisted_s2_bundle(4), tp.twisted_s2_bundle(4), tp.sphere_product(3, 3)]
    )
    assert tp.homology(y) == tp.homology(x)
    assert tp.spin(y) == tp.spin(x)


def random_expr(rng, depth=0):
    atoms = [
        lambda: tp.sphere(rng.randint(4, 7)),
        lambda: tp.cp(2),
        lambda: tp.smale(rng.randint(2, 5)),
        lambda: tp.sphere_product(2, rng.randint(2, 5)),
        lambda: tp.twisted_s2_bundle(rng.randint(3, 5)),
        lambda: tp.lens(rng.randint(2, 5), 5),
        lambda: tp.wu_manifold(),
    ]
    x = rng.choice(atoms)()
    if depth < 2 and rng.random() < 0.6:
        if rng.random() < 0.5:
            copies = [x]
            for _ in range(rng.randint(1, 3)):
                y = random_expr(rng, depth + 2)
                if tp.dim(y) == tp.dim(x):
                    copies.append(y)
            if len(copies) > 1 and tp.dim(x) >= 4:
                x = tp.connected_sum(copies)
        if tp.dim(x) >= 3 and rng.random() < 0.7:
            x = tp.suspend(x, ZERO_CLASS)
    return x


def test_decompose_preserves_homology_and_spin_random():
    rng = random.Random(2718)
    checked = 0
    while checked < 200:
        x = random_expr(rng)
        try:
            h = tp.homology(x)
        except Unsupported:
            continue
        y = tp.decompose(x)
        assert tp.homology(y) == h
        assert tp.spin(y) == tp.spin(x)
        checked += 1


# -- prescribed third homology construction ----------------------------------

def test_prescribed_h3_construction():
    # G = Z/4 + Z/12 + Z^2 realized via twisted suspensions of CP(4)
    # and untwisted suspensions of S^2 x S^6
    m = 4
    parts = [
        tp.suspend(tp.cp(m), EulerClass.of_divisibility(4)),
        tp.suspend(tp.cp(m), EulerClass.of_divisibility(12)),
        tp.suspend(tp.sphere_product(2, 2 * m - 2), ZERO_CLASS),
        tp.suspend(tp.sphere_product(2, 2 * m - 2), ZERO_CLASS),
    ]
    mg = tp.connected_sum(parts)
    h = tp.homology(mg)
    assert h[3] == FgAbGroup(2, (4, 12))
    # rational cohomology of #_4 (S^2 x S^7) # #_2 (S^3 x S^6)
    reference = tp.connected_sum(
        [tp.sphere_product(2, 7)] * 4 + [tp.sphere_product(3, 6)] * 2
    )
    assert tp.betti(mg) == tp.betti(reference)
    assert tp.simply_connected(mg)
