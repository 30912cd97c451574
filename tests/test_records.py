"""No record is a dataclass.  The plain records are NamedTuples: frozen like
the frozen dataclasses they were, with their fields in the same order, so
positional construction is unchanged.  The validated value classes are
namedtuple subclasses whose ``__new__`` checks the fields: they compare and
hash by value, refuse assignment, and raise what their dataclass forms
raised.  ``Segment`` and ``WarpProfile`` compare and hash by identity and
refuse assignment too."""

import math

import pytest

from twistbench import fgab, grammar, intlat, orbitgon, plumbing, riccicert, topology, warpmetric
from twistbench.errors import InputError, InvalidLabelling

RECORDS = [
    (intlat.SnfDecomposition, "diag left_inv right_inv"),
    (orbitgon.GonValidation, "primitive pairs_extend generates valid failures"),
    (plumbing.DiscBundleNode, "base euler"),
    (topology.ManifoldExpr, "kind atom params children euler"),
    (riccicert.RicciReport, "margin tail_margin"),
    (riccicert.GluingReport, "resid_fprime resid_cap resid_h_slope passed"),
    (riccicert.CertificationResult,
     "n s0 lam lam0 alpha s_lambda big_n r phi margin_ineq1 margin_ineq2 margin_ineq3"
     " margin_ricci gluing bundle verdict profile neck_report"),
    (warpmetric.WarpParams, "n lam lam0 alpha cap_width tail_width origin_eps step"),
    (warpmetric.CapInfo, "big_n s_prime blend_start blend_end blend_degree blend_error"),
    (warpmetric.TailInfo, "start width degree error"),
    (warpmetric.OriginInfo,
     "radius eps_prime splice_point kink_halfwidth flat_end rejoin flat_value plateau"
     " bridge_degree bridge_error ramp_degree ramp_error"),
    (warpmetric.MarginReport, "min1 min2 min3 tail_min"),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_frozen_with_its_fields_in_order(cls, fields):
    assert cls._fields == tuple(fields.split())
    record = cls(*range(len(cls._fields)))
    for position, name in enumerate(cls._fields):
        assert getattr(record, name) == position
        with pytest.raises(AttributeError):
            setattr(record, name, -1)


EULER3 = topology.EulerClass(3)
DISC3, DISC4 = plumbing.TrivialDiscNode(3), plumbing.TrivialDiscNode(4)
# Each value class, built twice from equal fields, and once from others.
VALUES = [
    (lambda: intlat.IntMatrix(2, 1, (3, 4)), lambda: intlat.IntMatrix(1, 2, (3, 4))),
    (lambda: fgab.FgAbGroup(1, (2, 4)), lambda: fgab.FgAbGroup(1, (4,))),
    (lambda: topology.EulerClass(0, (EULER3,)), lambda: topology.EulerClass(0, (EULER3, EULER3))),
    (lambda: orbitgon.GonLabelling(4, ((1, 0), (0, 1))),
     lambda: orbitgon.GonLabelling(4, ((0, 1), (1, 0)))),
    (lambda: plumbing.TrivialDiscNode(3), lambda: plumbing.TrivialDiscNode(4)),
    (lambda: plumbing.PlumbingGraph((DISC3, DISC4), ((0, 1, "+"),)),
     lambda: plumbing.PlumbingGraph((DISC3, DISC4), ((0, 1, "-"),))),
    (lambda: riccicert.ConnectionModel("bounded", 1.0, 0.5, (0.1, 0.2)),
     lambda: riccicert.ConnectionModel("bounded", 1.0, 0.5, (0.1, 0.3))),
]


@pytest.mark.parametrize("make, other", VALUES, ids=[m().__class__.__name__ for m, _ in VALUES])
def test_value_class_compares_and_hashes_by_value_and_is_read_only(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != other()
    for name in a._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    assert a == b


def test_segment_and_profile_compare_and_hash_by_identity_and_are_read_only():
    seg, twin = (warpmetric.Segment("flat", 0.0, 1.0, None, None) for _ in range(2))
    assert seg == seg and seg != twin and not seg == twin and hash(seg) != hash(twin)
    assert seg.h_scale == 1.0 and len({seg, twin}) == 2
    w, v = (warpmetric.WarpProfile(None, None, (seg,), 0.0, 1.0) for _ in range(2))
    assert w == w and w != v and hash(w) != hash(v)
    assert (w.r, w.cap, w.tail, w.origin) == (1.0, None, None, None)
    assert w._memo == {} and w._outer_memo == [] and w._memo is not v._memo
    assert w._outer_memo is not v._outer_memo
    for record, names in ((seg, seg._fields), (w, ("segments", "r", "_memo", "shape"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
    assert w.segments == (seg,) and w.r == 1.0 and not hasattr(w, "shape")


REFUSALS = [
    (lambda: intlat.IntMatrix(-1, 0, ()), ValueError, "matrix dimensions must be nonnegative"),
    (lambda: intlat.IntMatrix(1, 2, (1,)), ValueError, "entry count does not match shape"),
    (lambda: intlat.IntMatrix(1, 1, (1.0,)), ValueError, "entries must be integers"),
    (lambda: fgab.FgAbGroup(-1, ()), ValueError, "free rank must be nonnegative"),
    (lambda: fgab.FgAbGroup(0, (1,)), ValueError, "torsion coefficients must be integers >= 2"),
    (lambda: fgab.FgAbGroup(0, (2, 3)), ValueError, "torsion list must form a divisibility chain"),
    (lambda: topology.EulerClass(-2), ValueError,
     "a class's divisibility must be an int >= 0, not -2"),
    (lambda: topology.EulerClass("odd"), ValueError,
     "a class's divisibility must be an int >= 0, not 'odd'"),
    (lambda: topology.EulerClass(2.0), ValueError,
     "a class's divisibility must be an int >= 0, not 2.0"),
    (lambda: topology.EulerClass(3, (EULER3,)), ValueError,
     "a split class has no divisibility of its own"),
    (lambda: orbitgon.GonLabelling(3, ((1,), (1,))), InvalidLabelling,
     "manifold dimension must be >= 4"),
    (lambda: orbitgon.GonLabelling(4, ((1, 0),)), InvalidLabelling, "a gon has at least two edges"),
    (lambda: orbitgon.GonLabelling(4, ((1, 0), (1,))), InvalidLabelling, "labels must live in Z^2"),
    (lambda: orbitgon.GonLabelling(4, ((1, 0), (0, 0))), InvalidLabelling,
     "labels must be nonzero"),
    (lambda: plumbing.TrivialDiscNode(2), InputError, "trivial disc nodes need rank >= 3"),
    (lambda: plumbing.PlumbingGraph((DISC3,), ((0, 0, "+"),)), InputError,
     "edge endpoints must be distinct nodes"),
    (lambda: plumbing.PlumbingGraph((DISC3,), ((0, 1, "+"),)), InputError,
     "edge endpoint out of range"),
    (lambda: plumbing.PlumbingGraph((DISC3, DISC4), ((0, 1, "*"),)), InputError,
     "bad edge sign '*'"),
    (lambda: riccicert.ConnectionModel("flat"), InputError, "unknown connection variant 'flat'"),
    (lambda: riccicert.ConnectionModel("bounded", math.nan), InputError,
     "curvature bounds and support must be finite"),
    (lambda: riccicert.ConnectionModel("bounded", -1.0), InputError,
     "curvature bounds must be nonnegative"),
    (lambda: riccicert.ConnectionModel("trivial", 1.0), InputError,
     "trivial connections carry no curvature bounds or support"),
    (lambda: riccicert.ConnectionModel("bounded", 1.0, support=(0.5, 0.5)), InputError,
     "empty curvature support"),
]


@pytest.mark.parametrize("make, kind, message", REFUSALS, ids=[m for _, _, m in REFUSALS])
def test_constructor_refusal_keeps_its_type_and_message(make, kind, message):
    with pytest.raises(kind) as info:
        make()
    assert type(info.value) is kind and str(info.value) == message


def test_equal_suspensions_parsed_apart_share_one_homology_entry():
    # EulerClass sits inside ManifoldExpr, the key of homology's cache.
    for text in ("susp(div(5),CP(6))", "susp(div(4),CP(3))"):
        a, b = (grammar.parse_manifold(text) for _ in range(2))
        assert a is not b and a.euler is not b.euler and a == b and hash(a) == hash(b)
        topology.homology(a)
        before = topology.homology.cache_info()
        assert topology.homology(b) is topology.homology(a)
        after = topology.homology.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
