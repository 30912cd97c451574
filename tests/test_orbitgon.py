import random

import pytest

from twistbench import intlat
from twistbench import orbitgon as og
from twistbench.errors import InvalidLabelling
from twistbench.intlat import IntMatrix

from generators import matmul, random_valid_labelling


def test_validate_alternating_square():
    g = og.gon(4, [(1, 0), (0, 1), (1, 0), (0, 1)])
    report = og.validate(g)
    assert report.valid
    assert og.betti2(g) == 2


def test_validate_failure_modes():
    g = og.gon(4, [(1, 0), (2, 0)])
    report = og.validate(g)
    assert not report.valid
    assert not report.generates
    assert not all(report.primitive)
    with pytest.raises(InvalidLabelling):
        og.betti2(g)


def test_minimal_two_gon():
    g = og.gon(4, [(1, 0), (0, 1)])
    assert og.validate(g).valid
    assert og.betti2(g) == 0


def test_unimodular_model_identity_case():
    g = og.gon(4, [(1, 0), (0, 1)])
    model = og.unimodular_model(g)
    assert abs(model.det()) == 1
    assert model.row(0) == (1, 0)
    assert model.row(1) == (0, 1)


def test_unimodular_model_postconditions():
    g = og.standard_gon(1)
    model = og.unimodular_model(g)
    assert abs(model.det()) == 1
    a = g.label_matrix()
    for i in range(a.rows):
        assert model.row(i) == a.row(i)


def test_standard_gon():
    g0 = og.standard_gon(0)
    assert g0.m == 2 and g0.labels == ((1, 0), (0, 1))
    g1 = og.standard_gon(1)
    assert og.betti2(g1) == 2
    g3 = og.standard_gon(3)
    assert g3.m == 8
    assert og.betti2(g3) == 6
    for handles in range(11):
        assert og.betti2(og.standard_gon(handles)) == 2 * handles


def test_betti_invariances():
    rng = random.Random(404)
    for _ in range(30):
        n = rng.randint(4, 7)
        m = rng.randint(n - 2, n + 3)
        g = random_valid_labelling(rng, n, m)
        b = og.betti2(g)
        # cyclic relabelling
        k = rng.randrange(g.m)
        rotated = og.gon(n, g.labels[k:] + g.labels[:k])
        assert og.betti2(rotated) == b
        # negating a label
        j = rng.randrange(g.m)
        flipped = list(g.labels)
        flipped[j] = tuple(-x for x in flipped[j])
        assert og.betti2(og.gon(n, flipped)) == b
        # global unimodular change of basis
        d = n - 2
        u = [[1 if a == bcol else 0 for bcol in range(d)] for a in range(d)]
        u[0][d - 1] += 2  # a shear; determinant stays 1
        umat = IntMatrix.from_rows(u)
        assert abs(umat.det()) == 1
        transformed = [
            tuple(sum(u[i][k] * lab[k] for k in range(d)) for i in range(d))
            for lab in g.labels
        ]
        assert og.betti2(og.gon(n, transformed)) == b


def test_random_labellings_validate_and_extend():
    rng = random.Random(31415)
    for _ in range(60):
        n = rng.randint(4, 8)
        m = rng.randint(n - 2, 12)
        g = random_valid_labelling(rng, n, m)
        assert og.validate(g).valid
        model = og.unimodular_model(g)
        assert abs(model.det()) == 1
        a = g.label_matrix()
        for i in range(a.rows):
            assert model.row(i) == a.row(i)
        assert og.betti2(g) == m - n + 2


def _block_product(a: IntMatrix) -> IntMatrix:
    """[[left_inv, 0], [0, I]] right_inv by the general product."""
    dec = intlat.snf(a)
    r, m = a.rows, a.cols
    block = [row + [0] * (m - r) for row in dec.left_inv.to_lists()]
    block += [[0] * r + [int(i == j) for j in range(m - r)] for i in range(m - r)]
    return matmul(IntMatrix.from_rows(block, cols=m), dec.right_inv)


def test_unimodular_extension_is_the_block_product():
    # The extension forms only the top r rows; the general product with
    # the block-diagonal factor is the reference.
    gons = [og.standard_gon(handles) for handles in range(41)]
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randint(4, 7)
        gons.append(random_valid_labelling(rng, n, rng.randint(n - 2, n + 10)))
    for g in gons:
        a = g.label_matrix()
        assert intlat.unimodular_extension(a) == _block_product(a)
