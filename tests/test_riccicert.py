import math

import numpy as np
import pytest

from twistbench import riccicert as rc, warpmetric as wm
from twistbench.errors import Exhausted, InputError, MarginLost, NotPositive, StageError


@pytest.fixture(scope="module")
def neck():
    return wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))


@pytest.fixture(scope="module")
def finished(neck):
    base, eps = neck
    return wm.smooth_origin(base, 0.5, eps)


def builder_for(neck):
    base, eps = neck
    return lambda r: wm.smooth_origin(base, r, eps)


# -- connection models --------------------------------------------------------

def test_connection_validation():
    with pytest.raises(InputError):
        rc.ConnectionModel("trivial", sup_f=1.0)
    with pytest.raises(InputError):
        rc.ConnectionModel("twisted")  # unknown variant
    with pytest.raises(InputError):
        rc.ConnectionModel("bounded", sup_f=1.0, support=(2.0, 1.0))


# -- neck ----------------------------------------------------------------------

def test_trivial_neck_diagonals_match_margins(finished):
    report = rc.ricci_neck(finished, rc.TRIVIAL_CONNECTION)
    margins = wm.inequality_margins(finished)
    assert report.margin > 0
    assert report.margin == min(margins.min1, margins.min2, margins.min3)
    assert np.all(report.mixed_fibre_sphere == 0)
    assert np.all(report.mixed_fibre_radial == 0)
    assert np.all(report.mixed_sphere_radial == 0)


def test_certify_ricci_margin_is_min_of_inequalities():
    # Trivial mode: the Ricci margin and the inequality margins come from
    # one sampling pass, so they agree exactly on the golden grid.
    for n in (3, 4, 5, 6):
        for s0 in (0.3, 1.0):
            res = rc.certify(n, s0, rc.TRIVIAL_CONNECTION, 2.0)
            expected = min(res.margin_ineq1, res.margin_ineq2, res.margin_ineq3)
            assert res.margin_ricci == expected, (n, s0)


def test_trivial_neck_r_independent(neck):
    build = builder_for(neck)
    rep1 = rc.ricci_neck(build(1.0), rc.TRIVIAL_CONNECTION)
    rep2 = rc.ricci_neck(build(0.5), rc.TRIVIAL_CONNECTION)
    assert rep1.margin == rep2.margin
    assert float(np.min(rep1.diag_fibre)) == float(np.min(rep2.diag_fibre))
    assert float(np.min(rep1.diag_sphere)) == float(np.min(rep2.diag_sphere))
    assert float(np.min(rep1.diag_radial)) == float(np.min(rep2.diag_radial))


def test_fibre_diagonal_closed_form(finished):
    """Core-segment Ric(T,T) against the displayed-identities oracle.

    The sampled-quotient route (raw h, h', h'' values, divisions and
    all) must match (alpha lam0^2 / 2)(alpha - (n - 2)) f^(-alpha-2) to
    a relative 1e-6.
    """
    p = finished.params
    coeff = 0.5 * p.alpha * p.lam0**2 * (p.alpha - (p.n - 2))
    for seg in finished.segments:
        if seg.label != "core":
            continue
        s = finished.segment_grid(seg, 1)
        f, fp, fpp = seg.fmod.eval(s)
        h, hp, hpp = seg.hmod.eval(s)
        numeric = -hpp / h - (p.n - 1) * fp * hp / (f * h)
        oracle = coeff * np.power(f, -p.alpha - 2.0)
        assert np.max(np.abs(numeric / oracle - 1.0)) < 1e-6


def test_sphere_diagonal_lower_bound(finished):
    """Inequality (2) margin dominates f^-2 ((n-2) - alpha lam0^2) on the core."""
    p = finished.params
    coeff = (p.n - 2) - p.alpha * p.lam0**2
    report = rc.ricci_neck(finished, rc.TRIVIAL_CONNECTION)
    for seg in finished.segments:
        if seg.label != "core":
            continue
        s = finished.segment_grid(seg, 1)
        f, _, _ = seg.fmod.eval(s)
        m2 = wm._sample_block(p.n, seg, s).m2
        assert np.all(m2 + 1e-12 >= coeff / (f * f))


def test_bounded_neck_mixed_bound_scaling(neck):
    build = builder_for(neck)
    base_profile, eps = neck
    lo = eps + 0.05 * (base_profile.s_lambda - eps)
    c = rc.ConnectionModel(
        "bounded", sup_f=0.2, sup_delta_f=0.1,
        support=(lo, base_profile.cap.blend_start),
    )
    rep1 = rc.ricci_neck(build(0.5), c)
    rep2 = rc.ricci_neck(build(0.25), c)
    b1 = float(np.max(rep1.mixed_sphere_radial))
    b2 = float(np.max(rep2.mixed_sphere_radial))
    # h scales linearly in r, so the quadratic bound quarters
    assert abs(b1 / b2 - 4.0) < 1e-9


def test_bounded_support_must_avoid_collar(finished):
    c = rc.ConnectionModel("bounded", sup_f=0.1, support=(0.0, 1.0))
    with pytest.raises(InputError):
        rc.ricci_neck(finished, c)


def test_eigen_bound_below_true_minimum(neck):
    """Gershgorin bound versus explicit 3x3 eigen-solve on random draws."""
    rng = np.random.default_rng(1234)
    base_profile, eps = neck
    lo = eps + 0.05 * (base_profile.s_lambda - eps)
    hi = base_profile.cap.blend_start
    beta, beta_d = 1.5, 0.8
    c = rc.ConnectionModel("bounded", sup_f=beta, sup_delta_f=beta_d, support=(lo, hi))
    build = builder_for(neck)
    r, prof, rep = rc.search_r(build, c, 1e-5)
    n = prof.params.n
    for _ in range(100):
        i = int(rng.integers(0, len(rep.s)))
        s = float(rep.s[i])
        f, fp, fpp, h, hp, hpp = prof.evaluate(s)
        inside = lo <= s <= hi
        fx = rng.uniform(-beta, beta, size=n - 1) if inside else np.zeros(n - 1)
        fs = rng.uniform(-beta, beta, size=n - 1) if inside else np.zeros(n - 1)
        fxs = rng.uniform(-beta, beta) if inside else 0.0
        dfx = rng.uniform(-beta_d, beta_d) if inside else 0.0
        dfs = rng.uniform(-beta_d, beta_d) if inside else 0.0
        if h > 0:
            m1 = -(n - 1) * fpp / f - hpp / h
            m2 = -fpp / f + (n - 2) * (1 - fp * fp) / (f * f) - fp * hp / (f * h)
            m3 = -hpp / h - (n - 1) * fp * hp / (f * h)
        else:
            continue
        tt = m3 + (h * h / 4.0) * (2.0 * np.sum(fx * fx) / f**4)
        xx = m2 - (h * h / (2 * f**4)) * np.sum(fx * fx)
        ss = m1 - (h * h / (2 * f * f)) * np.sum(fs * fs)
        tx = (h / 2.0) * (-dfx + 3.0 * (hp / h) * fxs)
        ts = -(h / 2.0) * dfs
        xs = -(h * h / (2 * f**3)) * np.sum(fx * fs)
        mat = np.array([[tt, tx, ts], [tx, xx, xs], [ts, xs, ss]])
        true_min = float(np.linalg.eigvalsh(mat)[0])
        assert rep.eigen_lower[i] <= true_min + 1e-9


def test_not_positive_carries_report(finished):
    c = rc.ConnectionModel(
        "bounded", sup_f=50.0,
        support=(finished.origin.rejoin + 0.05, finished.s_lambda - 0.05),
    )
    with pytest.raises(NotPositive) as exc:
        rc.ricci_neck(finished, c)
    assert exc.value.report is not None
    assert exc.value.report.margin <= 0


# -- bundle --------------------------------------------------------------------

def test_bundle_bound_examples():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    b = rc.ricci_bundle(1.0, c, 0.5 * math.log(2.0 / 3.0), 4)
    assert abs(b.horizontal) < 1e-12  # zero point of the bound
    # phi -> -inf recovers the base bound
    b2 = rc.ricci_bundle(1.0, c, -40.0, 4)
    assert abs(b2.horizontal - 1.0) < 1e-12
    # vanishing curvature: bound equals the base bound for all phi
    c0 = rc.ConnectionModel("bounded", sup_f=0.0)
    assert rc.ricci_bundle(1.0, c0, 3.0, 4).horizontal == 1.0


def test_bundle_monotone_in_phi_and_sup():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    hs = [rc.ricci_bundle(1.0, c, phi, 5).horizontal for phi in (-2.0, -1.0, 0.0)]
    assert hs[0] > hs[1] > hs[2]
    cs = [rc.ConnectionModel("bounded", sup_f=s) for s in (0.5, 1.0, 2.0)]
    hb = [rc.ricci_bundle(1.0, ci, -0.5, 5).horizontal for ci in cs]
    assert hb[0] > hb[1] > hb[2]


def test_choose_phi_inverts_bound():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    for safety in (0.25, 0.5, 0.9):
        phi = rc.choose_phi(1.0, c, safety, 4)
        b = rc.ricci_bundle(1.0, c, phi, 4)
        assert abs(b.horizontal - safety * 1.0) < 1e-12
        # the zero point from the worked example is phi = ln(2/3)/2
        assert phi < 0.5 * math.log(2.0 / 3.0)


def test_choose_phi_degenerate_cases():
    c0 = rc.ConnectionModel("bounded", sup_f=0.0)
    assert rc.choose_phi(1.0, c0, 0.5, 4) == rc.DEFAULT_PHI
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    assert rc.choose_phi(1.0, c, 1.0, 4) == rc.PHI_FLOOR
    phis = [rc.choose_phi(1.0, rc.ConnectionModel("bounded", sup_f=s), 0.5, 4)
            for s in (0.5, 1.0, 2.0)]
    assert phis[0] > phis[1] > phis[2]


# -- gluing ---------------------------------------------------------------------

def test_gluing_residuals(finished):
    rep = rc.verify_gluing(finished, 1.0)
    assert rep.passed
    assert rep.resid_fprime < 1e-8
    assert rep.resid_cap < 1e-8
    assert rep.resid_h_slope < 1e-8
    # N from the descriptor equals f(s_lambda)/sin(s0) to 1e-10
    f = finished.evaluate(finished.s_lambda)[0]
    assert abs(finished.cap.big_n - f / math.sin(1.0)) < 1e-10


def test_gluing_wrong_angle_fails(finished):
    rep = rc.verify_gluing(finished, 0.8)
    assert not rep.passed


# -- fibre-scale search ------------------------------------------------------------

def test_search_r_trivial_returns_one(neck):
    r, prof, rep = rc.search_r(builder_for(neck), rc.TRIVIAL_CONNECTION, 1e-6)
    assert r == 1.0
    assert rep.margin > 0


def test_search_r_exhausted(neck):
    with pytest.raises(Exhausted):
        rc.search_r(builder_for(neck), rc.TRIVIAL_CONNECTION, 1e6)


def test_search_r_bounded_scales_inversely(neck):
    build = builder_for(neck)
    base_profile, eps = neck
    lo = eps + 0.05 * (base_profile.s_lambda - eps)
    hi = base_profile.cap.blend_start
    rs = []
    for sup in (1.0, 2.0):
        c = rc.ConnectionModel("bounded", sup_f=sup, support=(lo, hi))
        r, _, rep = rc.search_r(build, c, 1e-4)
        assert rep.margin >= 1e-4
        rs.append(r)
    assert 1.5 < rs[0] / rs[1] < 2.8


def test_search_r_flattens_f_once(monkeypatch):
    # The f-flattening of the origin collar does not depend on r, so a
    # search builds it once for its neck and eps, not once per probe.
    calls = [0]
    real = wm._flatten_f

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(wm, "_flatten_f", counting)
    base, eps = wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))
    probes = []

    def build(r):
        probes.append(r)
        return wm.smooth_origin(base, r, eps)

    lo = eps + 0.05 * (base.s_lambda - eps)
    c = rc.ConnectionModel("bounded", sup_f=2.0, support=(lo, base.cap.blend_start))
    rc.search_r(build, c, 1e-4)
    assert len(probes) > 5
    assert calls[0] == 1


# -- full pipeline -------------------------------------------------------------------

def test_certify_golden_case():
    res = rc.certify(3, 1.047, rc.TRIVIAL_CONNECTION, 2.0)
    assert res.passed()
    assert res.margin_ricci > 0
    assert res.first_integral_residual < 1e-9
    assert res.gluing.resid_fprime < 1e-8 and res.gluing.resid_cap < 1e-8
    assert abs(res.lam - math.cos(1.047)) < 1e-15
    payload = res.to_json_dict()
    assert payload["verdict"] == "pass"
    assert set(payload) == {"params", "margins", "gluing", "verdict"}


def test_certify_higher_dimension():
    res = rc.certify(6, 0.3, rc.TRIVIAL_CONNECTION, 5.0)
    assert res.passed()


def test_certify_precondition_errors():
    with pytest.raises(InputError):
        rc.certify(3, 0.0)
    with pytest.raises(InputError):
        rc.certify(2, 1.0)
    with pytest.raises(InputError):
        rc.certify(3, 2.0)


def test_certify_bounded_respects_phi_cap(neck):
    base, eps = neck
    lo = eps + 0.05 * (base.s_lambda - eps)
    c = rc.ConnectionModel("bounded", sup_f=1.0, support=(lo, base.cap.blend_start))
    res = rc.certify(4, 1.0, c, ric_min_base=1.0, safety=0.5)
    assert res.passed()
    cap = rc.choose_phi(1.0, c, 0.5, 4)
    assert res.phi <= cap + 1e-12
    # the seam condition defines phi
    h_end = res.profile.evaluate(res.profile.s_lambda)[3]
    assert abs(res.phi - math.log(h_end / res.big_n)) < 1e-12


def test_stage_error_labels():
    with pytest.raises(StageError) as exc:
        rc.certify(3, 1.0, params=wm.WarpParams(n=3, lam=math.cos(1.0), s_budget=0.4))
    assert exc.value.stage == "integrate_core"


def test_stage_error_names_origin_collar():
    # The collar fails inside search_r's probes; the label names the stage
    # that lost the margin, not the search around it.
    with pytest.raises(StageError) as exc:
        rc.certify(3, 0.2, rc.TRIVIAL_CONNECTION, 2.0)
    assert exc.value.stage == "smooth_origin"
    assert isinstance(exc.value.cause, MarginLost)
