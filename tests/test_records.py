"""The plain records are NamedTuples: frozen like the frozen dataclasses they
were, with their fields in the same order, so positional construction is
unchanged."""

import pytest

from twistbench import intlat, orbitgon, plumbing, riccicert, topology, warpmetric

RECORDS = [
    (intlat.SnfDecomposition, "diag left_inv right_inv"),
    (orbitgon.GonValidation, "primitive pairs_extend generates valid failures"),
    (plumbing.DiscBundleNode, "base euler"),
    (topology.Pi1, "kind order"),
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
