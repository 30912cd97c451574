import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from twistbench.errors import DimensionMismatch, NotGenerating
from twistbench.intlat import (
    IntMatrix,
    divisibility,
    extends_to_basis,
    identity_lists,
    snf,
    unimodular_extension,
)

from generators import matmul


def eye(n: int) -> IntMatrix:
    return IntMatrix.from_rows(identity_lists(n), cols=n)


def minors_gcd(m: IntMatrix, k: int) -> int:
    """Oracle: gcd of all k x k minors (exact, via cofactor determinants)."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = IntMatrix.from_rows([[m[i, j] for j in cols] for i in rows])
            g = math.gcd(g, sub.det())
    return g


def assert_valid_snf(a: IntMatrix):
    dec = snf(a)
    assert matmul(matmul(dec.left_inv, dec.diag), dec.right_inv) == a
    assert abs(dec.left_inv.det()) == 1
    assert abs(dec.right_inv.det()) == 1
    assert all(dec.diag[i, j] == 0 for i in range(a.rows) for j in range(a.cols) if i != j)
    d = dec.diagonal()
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return dec


def test_snf_identity():
    dec = assert_valid_snf(eye(2))
    assert dec.diagonal() == (1, 1)


def test_snf_two_by_two():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    dec = assert_valid_snf(a)
    # gcd of entries is 2 and d1*d2 = |det| = 8
    assert dec.diagonal() == (2, 4)


def test_snf_column_gcd():
    a = IntMatrix.from_rows([[6], [10], [15]])
    dec = assert_valid_snf(a)
    assert dec.diagonal() == (1,)


@pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0), (0, 0)])
def test_snf_empty_shapes(rows, cols):
    dec = assert_valid_snf(IntMatrix(rows, cols, ()))
    assert dec.diagonal() == ()


def test_empty_matrices():
    assert IntMatrix(0, 0, ()).det() == 1
    # No rows to keep: the extension of Z^0 into Z^3 is the identity.
    assert unimodular_extension(IntMatrix(0, 3, ())) == eye(3)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: IntMatrix(-1, 0, ()), ValueError, "nonnegative"),
    (lambda: IntMatrix(2, 2, (1, 2, 3)), ValueError, "entry count"),
    (lambda: IntMatrix(1, 2, (1, 2.0)), ValueError, "integers"),
    (lambda: IntMatrix.from_rows([[1, 2], [3]]), ValueError, "ragged"),
    (lambda: IntMatrix.from_rows([[1, 2]]).det(), DimensionMismatch, "non-square"),
    (lambda: unimodular_extension(IntMatrix.from_rows([[1], [0]])), DimensionMismatch, "rows <= cols"),
    (lambda: extends_to_basis([(1, 0), (1,)]), DimensionMismatch, "unequal length"),
], ids=["negative_dim", "entry_count", "non_int", "ragged", "det_non_square", "extension_tall", "basis_unequal_length"])
def test_input_checks(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_snf_minors_oracle_small():
    rng = random.Random(20240817)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        dec = assert_valid_snf(a)
        d = dec.diagonal()
        prod = 1
        for k in range(1, min(rows, cols) + 1):
            prod *= d[k - 1]
            assert prod == minors_gcd(a, k) or (prod == 0 and minors_gcd(a, k) == 0)


def test_snf_diagonal_product_is_abs_det():
    rng = random.Random(31337)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-12, 12) for _ in range(n)] for _ in range(n)]
        )
        assert math.prod(snf(a).diagonal()) == abs(a.det())


def test_snf_determinism_of_diagonal():
    rng = random.Random(5)
    for _ in range(20):
        a = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(3)] for _ in range(3)]
        )
        perm = IntMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert snf(a).diagonal() == snf(matmul(matmul(perm, a), perm)).diagonal()


def test_snf_property_suite_thousand():
    rng = random.Random(123456)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        )
        assert_valid_snf(a)


def test_unimodular_extension_identity():
    ext = unimodular_extension(eye(2))
    assert ext.rows == ext.cols == 2
    assert abs(ext.det()) == 1
    assert ext.row(0) == (1, 0) and ext.row(1) == (0, 1)


def test_unimodular_extension_row_vector():
    a = IntMatrix.from_rows([[2, 3]])
    ext = unimodular_extension(a)
    assert abs(ext.det()) == 1
    assert ext.row(0) == (2, 3)


def test_unimodular_extension_not_generating():
    with pytest.raises(NotGenerating):
        unimodular_extension(IntMatrix.from_rows([[2, 4]]))


def test_unimodular_extension_random():
    rng = random.Random(99)
    produced = 0
    while produced < 50:
        r = rng.randint(1, 4)
        c = rng.randint(r, 6)
        a = IntMatrix.from_rows(
            [[rng.randint(-7, 7) for _ in range(c)] for _ in range(r)]
        )
        try:
            ext = unimodular_extension(a)
        except NotGenerating:
            continue
        produced += 1
        assert abs(ext.det()) == 1
        for i in range(r):
            assert ext.row(i) == a.row(i)


def test_divisibility():
    assert divisibility((0, 0)) == 0
    assert divisibility((4, 6)) == 2
    assert divisibility((7, 7)) == 7


def test_primitive_iff_divisibility_one():
    rng = random.Random(3)
    for _ in range(200):
        v = [rng.randint(-30, 30) for _ in range(rng.randint(1, 5))]
        if all(x == 0 for x in v):
            continue
        assert extends_to_basis([v]) == (divisibility(v) == 1)


def test_extends_to_basis():
    assert extends_to_basis([(1, 0), (0, 1)])
    assert not extends_to_basis([(1, 0), (1, 2)])
    assert extends_to_basis([(2, 1)])
    with pytest.raises(DimensionMismatch):
        extends_to_basis([(1, 0), (0, 1), (1, 1)])
    with pytest.raises(DimensionMismatch):
        extends_to_basis([])


def test_det_bareiss_matches_cofactor():
    rng = random.Random(11)

    def cofactor_det(m):
        n = m.rows
        if n == 0:
            return 1
        if n == 1:
            return m[0, 0]
        total = 0
        for j in range(n):
            sub = IntMatrix.from_rows(
                [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
            )
            total += (-1) ** j * m[0, j] * cofactor_det(sub)
        return total

    for _ in range(40):
        n = rng.randint(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randint(-10, 10) for _ in range(n)] for _ in range(n)]
        )
        assert a.det() == cofactor_det(a)


def fraction_det(rows) -> int:
    """Oracle: Gaussian elimination over the rationals, with row swaps."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def test_det_bareiss_matches_fraction_elimination():
    # Dense matrices make each pivot differ from the one before; sparse
    # ones give zero multipliers under equal pivots, the rows Bareiss
    # skips, and zero pivots that need a row swap part way through.
    rng = random.Random(2021)
    kinds = {"dense": 0, "singular": 0, "swap": 0, "skip": 0}
    for trial in range(300):
        n = rng.randint(1, 12)
        density = rng.choice((1.0, 0.5, 0.2))
        rows = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ]
        if trial % 5 == 1 and n >= 2:
            # Singular: one row a combination of the others.
            i = rng.randrange(n)
            j, k = (rng.choice([x for x in range(n) if x != i]) for _ in range(2))
            c = rng.randint(-3, 3)
            rows[i] = [c * x + y for x, y in zip(rows[j], rows[k])]
        if trial % 5 == 2 and n >= 2:
            # A zero leading pivot: the first row starts with 0.
            rows[0][0] = 0
            rows[rng.randrange(1, n)][0] = rng.choice((-1, 1)) * rng.randint(1, 9)
        expected = fraction_det(rows)
        assert IntMatrix.from_rows(rows).det() == expected, rows
        kinds["singular"] += expected == 0
        kinds["swap"] += n >= 2 and rows[0][0] == 0
        kinds["dense"] += density == 1.0 and n >= 3
        kinds["skip"] += density == 0.2 and n >= 3
    assert all(count >= 20 for count in kinds.values()), kinds
