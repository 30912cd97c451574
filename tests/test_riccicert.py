import dataclasses
import io
import math
import random

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
    nan, inf = math.nan, math.inf
    for bad in (
        {"sup_f": nan},
        {"sup_f": inf},
        {"sup_f": 1.0, "sup_delta_f": nan},
        {"sup_f": 1.0, "sup_delta_f": inf},
        {"sup_f": 1.0, "support": (nan, 1.0)},
        {"sup_f": 1.0, "support": (0.5, nan)},
        {"sup_f": 1.0, "support": (0.5, inf)},
        {"sup_f": 1.0, "support": (-inf, 1.0)},
    ):
        with pytest.raises(InputError, match="finite"):
            rc.ConnectionModel("bounded", **bad)


# -- neck ----------------------------------------------------------------------

def _frame_bound(n, b, active, beta, beta_delta, scale=1.0):
    """Reference for ``rc._FrameFold``: the frame bound of one block at
    every sample, the curvature terms masked by ``np.where(active, ...)``,
    with h and h' times ``scale``.  Returns the bound and the mixed bounds
    (T-X, T-ds, X-ds)."""
    f, h, hp = b.f, scale * b.h, scale * b.hp
    f_sq = f * f
    h_sq = h * h
    loss_sphere = np.where(active, 0.5 * h_sq / (f_sq * f_sq) * (n - 1) * beta**2, 0.0)
    loss_radial = np.where(active, 0.5 * h_sq / f_sq * (n - 1) * beta**2, 0.0)
    mix_tx = np.where(active, 0.5 * np.abs(h) * beta_delta + 1.5 * np.abs(hp) * beta, 0.0)
    mix_ts = np.where(active, 0.5 * np.abs(h) * beta_delta, 0.0)
    mix_xs = np.where(active, 0.5 * h_sq / (f_sq * f) * (n - 1) * beta**2, 0.0)
    row_t = b.m3 - mix_tx - mix_ts
    row_x = b.m2 - loss_sphere - mix_tx - mix_xs
    row_s = b.m1 - loss_radial - mix_ts - mix_xs
    return np.minimum(row_t, np.minimum(row_x, row_s)), (mix_tx, mix_ts, mix_xs)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_trivial_neck_diagonals_match_margins(finished):
    report = rc.ricci_neck(finished, rc.TRIVIAL_CONNECTION)
    margins = wm.inequality_margins(finished)
    assert report.margin > 0
    assert report.margin == min(margins.min1, margins.min2, margins.min3)
    # Sample by sample: with no curvature acting, whether the bounds are
    # zero or the samples lie outside the support, the frame bound is
    # exactly min(m1, m2, m3) and every mixed bound vanishes.
    n = finished.params.n
    for b in finished.blocks():
        lowest = np.minimum(b.m1, np.minimum(b.m2, b.m3))
        for active, beta, beta_d in (
            (np.ones_like(b.s, dtype=bool), 0.0, 0.0),
            (np.zeros_like(b.s, dtype=bool), 50.0, 10.0),
        ):
            eig, mixed = _frame_bound(n, b, active, beta, beta_d)
            assert np.array_equal(eig, lowest)
            assert all(np.all(m == 0) for m in mixed)
    # The same two cases through the fold: zero bounds on a support that
    # reaches every sample right of the collar, and large bounds on one
    # that reaches none (it lies between two samples).
    blocks = finished.blocks()
    rejoin = finished.origin.rejoin
    zero = rc.ConnectionModel("bounded", support=(rejoin, finished.s_lambda))
    fold = rc._FrameFold(finished, zero, blocks)
    for tail, got in zip((False, True), fold.bounds()):
        want = [np.minimum(b.m1, np.minimum(b.m2, b.m3))[b.s >= rejoin]
                for b in blocks if (b.seg.label == "tail") == tail]
        assert _same_bits(got, np.concatenate(want))
    s = next(b.s for b in blocks if b.seg.label == "core")
    between = (0.6 * s[0] + 0.4 * s[1], 0.4 * s[0] + 0.6 * s[1])
    far = rc.ConnectionModel("bounded", sup_f=50.0, sup_delta_f=10.0, support=between)
    fold = rc._FrameFold(finished, far, blocks)
    assert [len(x) for x in fold.bounds()] == [0, 0]
    assert fold.minima() == (margins.global_min, margins.tail_min)


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
    w1, w2 = build(1.0), build(0.5)
    rep1 = rc.ricci_neck(w1, rc.TRIVIAL_CONNECTION)
    rep2 = rc.ricci_neck(w2, rc.TRIVIAL_CONNECTION)
    assert rep1.margin == rep2.margin
    assert rep1.tail_margin == rep2.tail_margin
    assert wm.inequality_margins(w1) == wm.inequality_margins(w2)

    # The diagonals (fibre m3, sphere m2, radial m1) over every sample,
    # the seam collar included.
    def lowest(w, name):
        return min(float(np.min(getattr(b, name))) for b in w.blocks())

    for name in ("m1", "m2", "m3"):
        assert lowest(w1, name) == lowest(w2, name)


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
        s = finished.segment_grid(seg)
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
        s = finished.segment_grid(seg)
        f, _, _ = seg.fmod.eval(s)
        m2 = wm._sample_block(p.n, seg, s).m2
        assert np.all(m2 + 1e-12 >= coeff / (f * f))


def test_bounded_neck_mixed_bound_scaling(neck):
    build = builder_for(neck)
    base_profile, eps = neck
    lo = eps + 0.05 * (base_profile.s_lambda - eps)
    hi = base_profile.cap.blend_start
    c = rc.ConnectionModel("bounded", sup_f=0.2, sup_delta_f=0.1, support=(lo, hi))

    def sphere_radial(w):
        rc.ricci_neck(w, c)  # certifies at both scales
        bounds = []
        for b in w.blocks():
            active = (b.s >= lo) & (b.s <= hi)
            _, (_, _, mix_xs) = _frame_bound(w.params.n, b, active, 0.2, 0.1)
            bounds.append(float(np.max(mix_xs)))
        return max(bounds)

    b1, b2 = sphere_radial(build(0.5)), sphere_radial(build(0.25))
    assert b2 > 0
    # h scales linearly in r, so the quadratic bound quarters
    assert abs(b1 / b2 - 4.0) < 1e-9


def test_bounded_support_must_avoid_collar(finished):
    c = rc.ConnectionModel("bounded", sup_f=0.1, support=(0.0, 1.0))
    with pytest.raises(InputError):
        rc.ricci_neck(finished, c)


@pytest.mark.parametrize("n, s0", [(4, 1.0), (6, 0.3)])
def test_frame_fold_matches_where_reference(n, s0):
    # The prepared fold against the np.where reference, bit for bit: the
    # bound at every reached sample and the minima per group, on a probe's
    # blocks (as ricci_neck folds them), on the r = 1 probe's outer blocks
    # at the scales search_r folds, and on each outer block alone, where
    # the samples the support misses can hold the minimum.
    base, eps = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    first = wm.smooth_origin(base, 1.0, eps)
    outer = [b for b in first.blocks() if b.seg.s0 >= first.origin.flat_end]
    core = next(b for b in outer if b.seg.label == "core")
    k = len(core.s) // 2
    gap = float(core.s[k + 1] - core.s[k]) / 3.0
    rng = random.Random(1729 + n)
    supports = [tuple(sorted(rng.uniform(eps, first.s_lambda) for _ in range(2)))
                for _ in range(6)]
    reaches = {
        (float(core.s[k]) + gap, float(core.s[k + 1]) - gap): (0, 0),  # no block
        (float(core.s[k]) - gap, float(core.s[k]) + gap): (1, 0),  # one sample
    }
    supports += [*reaches, (0.5 * (eps + first.tail.start), first.s_lambda)]
    connections = [rc.TRIVIAL_CONNECTION] + [
        rc.ConnectionModel("bounded", sup_f=rng.uniform(0.05, 3.0),
                           sup_delta_f=rng.uniform(0.0, 1.0), support=sup)
        for sup in supports
    ]
    probe = wm.smooth_origin(base, 0.5, eps)
    reached_tail = False
    for c in connections:
        for profile, blocks in ((probe, probe.blocks()), (first, outer), *((first, [b]) for b in outer)):
            fold = rc._FrameFold(profile, c, blocks)
            for scale in (1.0, 0.5, 2.0**-19):
                want_eig, want_min = [[np.empty(0)], [np.empty(0)]], [math.inf, math.inf]
                for b in blocks:
                    tail = b.seg.label == "tail"
                    lo, hi = c.support or (math.inf, -math.inf)  # trivial: reaches none
                    active = (b.s >= lo) & (b.s <= hi)
                    eig, _ = _frame_bound(n, b, active, c.sup_f, c.sup_delta_f, scale)
                    want_eig[tail].append(eig[active])
                    want_min[tail] = min(want_min[tail], float(np.min(eig)))
                got = fold.bounds(scale)
                for g, w in zip(got, want_eig):
                    assert _same_bits(g, np.concatenate(w)), (c, scale)
                assert _same_bits(fold.minima(scale), want_min), (c, scale)
            if c.support in reaches and blocks is outer:
                assert tuple(len(x) for x in got) == reaches[c.support]
            reached_tail |= len(got[1]) > 0
    assert reached_tail


def test_frame_fold_never_exceeds_the_margins(finished):
    # Every loss and mixed bound is nonnegative whatever the signs of h and
    # h', so at each sample the support reaches the bound is at most
    # min(m1, m2, m3), and each group's minimum at most its margins'.  The
    # second set of blocks is hand-built with h and h' negated: with
    # sup_f = 0 a signed T-ds bound would raise every row above its margin.
    n, eps = finished.params.n, finished.origin.rejoin
    flipped = [b._replace(h=-b.h, hp=-b.hp) for b in finished.blocks()
               if b.seg.label == "core"]
    support = (eps, finished.s_lambda)
    for blocks in (finished.blocks(), flipped):
        for sup_f, sup_delta_f in ((0.0, 1.0), (0.5, 0.3), (4.0, 0.0)):
            c = rc.ConnectionModel("bounded", sup_f=sup_f, sup_delta_f=sup_delta_f,
                                   support=support)
            fold = rc._FrameFold(finished, c, blocks)
            lowest, floors = [[np.empty(0)], [np.empty(0)]], [math.inf, math.inf]
            for b in blocks:
                tail = b.seg.label == "tail"
                low = np.minimum(b.m1, np.minimum(b.m2, b.m3))
                lowest[tail].append(low[(b.s >= support[0]) & (b.s <= support[1])])
                floors[tail] = min(floors[tail], *b.mins)
            for scale in (1.0, 0.5, 2.0**-19):
                got = fold.bounds(scale)
                assert len(got[0]) > 0
                for g, want in zip(got, map(np.concatenate, lowest)):
                    assert g.shape == want.shape and np.all(g <= want), (c, scale)
                assert all(m <= f for m, f in zip(fold.minima(scale), floors)), (c, scale)


def _frame_matrix(n, f, fp, fpp, h, hp, hpp, fx, fs, fxs, dfx, dfs):
    """The (T, X, ds) frame block of the Ricci tensor for curvature
    components fx and fs (n - 1 each) and fxs, and codifferential
    components dfx and dfs."""
    m1 = -(n - 1) * fpp / f - hpp / h
    m2 = -fpp / f + (n - 2) * (1 - fp * fp) / (f * f) - fp * hp / (f * h)
    m3 = -hpp / h - (n - 1) * fp * hp / (f * h)
    tt = m3 + (h * h / 4.0) * (2.0 * np.sum(fx * fx) / f**4)
    xx = m2 - (h * h / (2 * f**4)) * np.sum(fx * fx)
    ss = m1 - (h * h / (2 * f * f)) * np.sum(fs * fs)
    tx = (h / 2.0) * (-dfx + 3.0 * (hp / h) * fxs)
    ts = -(h / 2.0) * dfs
    xs = -(h * h / (2 * f**3)) * np.sum(fx * fs)
    return np.array([[tt, tx, ts], [tx, xx, xs], [ts, xs, ss]])


def test_eigen_bound_below_true_minimum(neck):
    """Gershgorin bound versus explicit 3x3 eigen-solve on random draws
    and at the worst case.  On the (4, 1.0) neck the fibre row binds at
    every sample the support reaches, on (6, 1.0) the sphere row does."""
    rng = np.random.default_rng(1234)
    for case in (neck, wm.build_neck(wm.WarpParams(n=6, lam=math.cos(1.0)))):
        _check_eigen_bound(case, rng)


def _check_eigen_bound(neck, rng):
    base_profile, eps = neck
    lo = eps + 0.05 * (base_profile.s_lambda - eps)
    hi = base_profile.cap.blend_start
    beta, beta_d = 1.5, 0.8
    c = rc.ConnectionModel("bounded", sup_f=beta, sup_delta_f=beta_d, support=(lo, hi))
    build = builder_for(neck)
    r, prof, rep = rc.search_r(build, c, 1e-5)
    n = prof.params.n
    blocks = prof.blocks()
    bounds = [_frame_bound(n, b, (b.s >= lo) & (b.s <= hi), beta, beta_d)[0]
              for b in blocks]
    # The report folds exactly these per-block minima.
    strict = [float(np.min(e)) for b, e in zip(blocks, bounds) if b.seg.label != "tail"]
    assert rep.margin == min(strict)
    s_all = np.concatenate([b.s for b in blocks])
    eigen_lower = np.concatenate(bounds)
    for _ in range(100):
        i = int(rng.integers(0, len(s_all)))
        s = float(s_all[i])
        f, fp, fpp, h, hp, hpp = prof.evaluate(s)
        inside = lo <= s <= hi
        fx = rng.uniform(-beta, beta, size=n - 1) if inside else np.zeros(n - 1)
        fs = rng.uniform(-beta, beta, size=n - 1) if inside else np.zeros(n - 1)
        fxs = rng.uniform(-beta, beta) if inside else 0.0
        dfx = rng.uniform(-beta_d, beta_d) if inside else 0.0
        dfs = rng.uniform(-beta_d, beta_d) if inside else 0.0
        if h <= 0:
            continue
        mat = _frame_matrix(n, f, fp, fpp, h, hp, hpp, fx, fs, fxs, dfx, dfs)
        true_min = float(np.linalg.eigvalsh(mat)[0])
        assert eigen_lower[i] <= true_min + 1e-9
    # Random draws seldom reach the worst case, where a bound that leaves
    # out a mixed term shows.  At every sample the support reaches, align
    # every component at its bound so that each curvature loss and each
    # |mixed entry| is largest; the bound must sit below that matrix's
    # minimum eigenvalue and below its Gershgorin rows, with Ric(T,T) at
    # its curvature-free floor m3 (its curvature term is nonnegative).
    ones, zeros = np.ones(n - 1), np.zeros(n - 1)
    checked = 0
    for b, eig in zip(blocks, bounds):
        for i in np.flatnonzero((b.s >= lo) & (b.s <= hi)):
            vals = (b.f[i], b.fp[i], b.fpp[i], b.h[i], b.hp[i], b.hpp[i])
            worst = _frame_matrix(n, *vals, beta * ones, beta * ones,
                                  math.copysign(beta, b.hp[i]), -beta_d, beta_d)
            assert eig[i] <= np.linalg.eigvalsh(worst)[0] + 1e-9
            worst[0, 0] = _frame_matrix(n, *vals, zeros, zeros, 0.0, 0.0, 0.0)[0, 0]
            off = np.abs(worst).sum(axis=1) - np.abs(np.diag(worst))
            rows = np.diag(worst) - off
            assert eig[i] <= rows.min() + 1e-9 * (1.0 + abs(rows.min())), (b.s[i], rows)
            checked += 1
    assert checked >= 40  # 74 and 49 samples on the two necks


def test_not_positive_carries_report(finished):
    c = rc.ConnectionModel(
        "bounded", sup_f=50.0,
        support=(finished.origin.rejoin + 0.05, finished.s_lambda - 0.05),
    )
    with pytest.raises(NotPositive) as exc:
        rc.ricci_neck(finished, c)
    assert exc.value.report is not None
    assert exc.value.report.margin <= 0


def test_seam_collar_loss_raises(finished):
    # Curvature confined to the flattened seam collar leaves the strict
    # zone alone and pushes the collar's bound below the floor.
    tail = next(seg for seg in finished.segments if seg.label == "tail")
    c = rc.ConnectionModel(
        "bounded", sup_f=50.0, support=(tail.s0 + 1e-9, finished.s_lambda)
    )
    with pytest.raises(NotPositive, match="seam collar lost nonnegativity") as exc:
        rc.ricci_neck(finished, c)
    assert exc.value.report.margin > 0
    assert exc.value.report.tail_margin < wm.TAIL_FLOOR
    # The support is closed: starting at the seam itself also reaches the
    # last strict-zone sample, so the strict bound fails first.
    c = rc.ConnectionModel("bounded", sup_f=50.0, support=(tail.s0, finished.s_lambda))
    with pytest.raises(NotPositive, match="neck eigenvalue lower bound") as exc:
        rc.ricci_neck(finished, c)
    assert exc.value.report.margin <= 0


# -- bundle --------------------------------------------------------------------

def test_bundle_bound_examples():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    b = rc.ricci_bundle(1.0, c, 0.5 * math.log(2.0 / 3.0), 4)
    assert abs(b) < 1e-12  # zero point of the bound
    # phi -> -inf recovers the base bound
    b2 = rc.ricci_bundle(1.0, c, -40.0, 4)
    assert abs(b2 - 1.0) < 1e-12
    # vanishing curvature: bound equals the base bound for all phi
    c0 = rc.ConnectionModel("bounded", sup_f=0.0)
    assert rc.ricci_bundle(1.0, c0, 3.0, 4) == 1.0


def test_bundle_monotone_in_phi_and_sup():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    hs = [rc.ricci_bundle(1.0, c, phi, 5) for phi in (-2.0, -1.0, 0.0)]
    assert hs[0] > hs[1] > hs[2]
    cs = [rc.ConnectionModel("bounded", sup_f=s) for s in (0.5, 1.0, 2.0)]
    hb = [rc.ricci_bundle(1.0, ci, -0.5, 5) for ci in cs]
    assert hb[0] > hb[1] > hb[2]


def test_choose_phi_inverts_bound():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    for safety in (0.25, 0.5, 0.9):
        phi = rc.choose_phi(1.0, c, safety, 4)
        b = rc.ricci_bundle(1.0, c, phi, 4)
        assert abs(b - safety * 1.0) < 1e-12
        # the zero point from the worked example is phi = ln(2/3)/2
        assert phi < 0.5 * math.log(2.0 / 3.0)


def test_choose_phi_degenerate_cases():
    c0 = rc.ConnectionModel("bounded", sup_f=0.0)
    assert rc.choose_phi(1.0, c0, 0.5, 4) == math.inf  # no constraint
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
    # A trivial connection's margin does not depend on r, so once r = 1
    # misses the target every grid probe fails unbuilt; only the last grid
    # scale above the floor is built, as the witness of the failure.
    base, eps = neck
    probes = []

    def build(r):
        probes.append(r)
        return wm.smooth_origin(base, r, eps)

    with pytest.raises(Exhausted, match="no fibre scale above 1e-06 certifies the margin"):
        rc.search_r(build, rc.TRIVIAL_CONNECTION, 1e6)
    assert probes == [1.0, 2.0**-19]


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
    assert len(probes) >= 3
    assert calls[0] == 1


def test_search_r_rejects_probes_of_another_eps(neck):
    # The pre-test folds the r = 1 probe's outer blocks, so every built
    # probe must hold those segments; a probe with another eps does not.
    base, eps = neck

    def build(r):
        return wm.smooth_origin(base, r, eps if r == 1.0 else 0.9 * eps)

    lo = eps + 0.05 * (base.s_lambda - eps)
    c = rc.ConnectionModel("bounded", sup_f=2.0, support=(lo, base.cap.blend_start))
    with pytest.raises(InputError, match="r = 1 probe's segments"):
        rc.search_r(build, c, 1e-4)


def _search_every_probe(builder, c, target_margin):
    """The search that builds every probe: the reference for ``search_r``."""

    def margin_at(r):
        profile = builder(r)
        try:
            report = rc.ricci_neck(profile, c, r)
        except NotPositive as exc:
            return profile, exc.report
        return profile, report

    prev_fail = None
    k = 0
    while True:
        r = 2.0 ** (-k)
        if r < rc.R_FLOOR:
            raise Exhausted(f"no fibre scale above {rc.R_FLOOR} certifies the margin")
        profile, report = margin_at(r)
        if report.margin >= target_margin:
            break
        prev_fail = r
        k += 1
    if prev_fail is None:
        return r, profile, report
    lo, lo_profile, lo_report = r, profile, report
    hi = prev_fail
    while hi / lo > 1.01:
        mid = 0.5 * (lo + hi)
        profile, report = margin_at(mid)
        if report.margin >= target_margin:
            lo, lo_profile, lo_report = mid, profile, report
        else:
            hi = mid
    return lo, lo_profile, lo_report


def _search_outcome(search, neck, c, target):
    """(r, margins, CSV) of a search, or its Exhausted message, and the
    scales it built."""
    base, eps = neck
    probes = []

    def build(r):
        probes.append(r)
        return wm.smooth_origin(base, r, eps)

    try:
        r, profile, report = search(build, c, target)
    except Exhausted as exc:
        return str(exc), probes
    csv = io.StringIO()
    wm.export_profile(profile, csv)
    margins = (report.margin, report.tail_margin, wm.inequality_margins(profile))
    return (r, margins, csv.getvalue()), probes


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0), (6, 0.3)])
def test_search_r_matches_building_every_probe(n, s0):
    neck = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    base, eps = neck
    rng = random.Random(n)
    span = base.cap.blend_start - eps
    connections = [rc.TRIVIAL_CONNECTION]
    for _ in range(3):
        a = rng.uniform(0.0, 0.9)
        connections.append(rc.ConnectionModel(
            "bounded", sup_f=math.exp(rng.uniform(math.log(0.1), math.log(20.0))),
            support=(eps + a * span, eps + rng.uniform(a + 0.05, 1.0) * span),
        ))
    for c in connections:
        for target in (1e-6, 1e-4):
            expected, every = _search_outcome(_search_every_probe, neck, c, target)
            found, built = _search_outcome(rc.search_r, neck, c, target)
            assert found == expected, (c, target)
            assert set(built) <= set(every) and len(set(built)) == len(built)
            if isinstance(found, str) or found[0] == 1.0:
                continue
            r = found[0]
            hi = min(p for p in built if p > r)  # the bracket's failing end
            assert hi / r <= 1.01 and hi == min(p for p in every if p > r)


def _report_bits(report):
    return tuple(float.hex(getattr(report, f.name)) for f in dataclasses.fields(report))


def _neck_report(profile, c):
    try:
        return rc.ricci_neck(profile, c, profile.r)
    except NotPositive as exc:
        return exc.report


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0)])
def test_search_r_reports_match_ricci_neck(monkeypatch, n, s0):
    # search_r reports every probe it builds, r = 1 first, from its one
    # fold and the probe's collar minima; each report is ricci_neck's for
    # that probe, field for field and bit for bit.  Supports start at the
    # rejoin (one just inside its tolerance, so they reach the
    # f-flattening's last sample), mid-core, and reach into the tail.
    # Every connection is also checked on the fold at fixed scales.
    base, eps = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    reports = []
    real = rc._probe_report

    def recording(w, minima):
        reports.append((w, real(w, minima)))
        return reports[-1][1]

    monkeypatch.setattr(rc, "_probe_report", recording)
    tail = base.tail.start
    supports = [(eps - 5e-13, base.cap.blend_start), (eps, 0.5 * (eps + tail)),
                (math.nextafter(eps, 1.0), base.s_lambda),
                (0.5 * (eps + tail), 0.5 * (tail + base.s_lambda))]
    connections = [rc.ConnectionModel("bounded", sup_f=sup_f, sup_delta_f=0.3, support=sup)
                   for sup in supports for sup_f in (0.5, 4.0)]
    first = wm.smooth_origin(base, 1.0, eps)
    outer = [b for b in first.blocks() if b.seg.s0 >= first.origin.flat_end]
    reported = 0
    for c in [rc.TRIVIAL_CONNECTION, *connections]:
        fold = rc._FrameFold(first, c, outer)
        for r in (1.0, 0.5, 2.0**-10, 2.0**-19):
            probe = wm.smooth_origin(base, r, eps)
            got = real(probe, fold.minima(r))
            assert _report_bits(got) == _report_bits(_neck_report(probe, c)), (c, r)
            # The collar's own term, which the outer fold hides on these necks.
            collar = [b for b in probe.blocks() if b.seg.s0 < probe.origin.flat_end]
            alone = real(probe, (math.inf, math.inf)).margin
            assert alone == rc._FrameFold(probe, c, collar).minima()[0] < math.inf
        for target in (1e-6, 1e-4):
            del reports[:]
            try:
                _, profile, report = rc.search_r(builder_for((base, eps)), c, target)
            except Exhausted:
                pass
            else:
                assert _report_bits(report) == _report_bits(_neck_report(profile, c))
            # The r = 1 probe is reported on the same path as the others.
            assert reports and reports[0][0].r == 1.0, (c, target)
            assert _report_bits(reports[0][1]) == _report_bits(_neck_report(first, c))
            for probe, got in reports:
                assert _report_bits(got) == _report_bits(_neck_report(probe, c)), (c, target)
            reported += len(reports)
    assert reported  # (3, 0.3) misses most targets; (4, 1.0) builds on every support


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


@pytest.mark.parametrize("n, s0", [(14, 0.3), (20, 1.0), (30, 1.5)])
def test_certify_large_dimension(n, s0):
    # Here the cap's root has core slope f'(a) below lam: the blend's core
    # part raises f' again before the arc, so a Newton window (lam, lam0)
    # on f'(a) would reject the root with MarginLost.
    res = rc.certify(n, s0)
    assert res.passed(), (n, s0)
    margins = (res.margin_ineq1, res.margin_ineq2, res.margin_ineq3, res.margin_ricci)
    assert min(margins) > 0, margins
    w = res.profile
    assert 0.0 < w.core.at(w.cap.blend_start)[1] < res.lam


@pytest.mark.parametrize("n, s0", [(40, 1.3), (40, 1.5), (45, 1.3), (45, 1.5)])
def test_certify_sizes_the_core_by_the_verdicts_residual(n, s0):
    # At the default step the core's first-integral residual is 5.9-8.8e-10
    # at the nodes but 1.1-2.0e-9 between them, above tol_ode = 1e-9.  One
    # residual, read at nodes and cell midpoints, sizes the core and gates
    # the verdict, so the core halves its step and the verdict passes.
    res = rc.certify(n, s0)
    assert res.passed(), (n, s0)
    margins = (res.margin_ineq1, res.margin_ineq2, res.margin_ineq3, res.margin_ricci)
    assert min(margins) > 0, margins
    p = res.profile.params
    assert p.step == 0.5 * wm.WarpParams(n=n, lam=res.lam).resolve().step
    assert res.first_integral_residual < p.tol_ode


def _conjuncts(res):
    """The five conditions the verdict reads, by name."""
    return {
        "ricci": res.margin_ricci > 0.0,
        "tail": res.neck_report.tail_margin >= wm.TAIL_FLOOR,
        "gluing": res.gluing.passed,
        "first_integral": res.first_integral_residual < res.profile.params.tol_ode,
        "bundle": res.bundle >= 0.0,
    }


@pytest.fixture
def fail_routes(neck, monkeypatch):
    """For each verdict condition, certify (4, 1.0) so that it alone fails."""
    base, eps = neck
    blend, tail = base.cap.blend_start, base.tail.start

    def first_integral():
        monkeypatch.setattr(wm.WarpProfile, "first_integral_residual", lambda w: 1.0)
        return rc.certify(4, 1.0)

    def bundle():
        monkeypatch.setattr(rc, "ricci_bundle", lambda *args: -1.0)
        return rc.certify(4, 1.0)

    return {
        # The target admits a negative bound, so the search returns one.
        "ricci": lambda: rc.certify(4, 1.0, rc.ConnectionModel(
            "bounded", sup_f=50.0, support=(eps, blend)), target_margin=-1.0),
        # Curvature on the seam collar alone; the search reads the strict zone.
        "tail": lambda: rc.certify(4, 1.0, rc.ConnectionModel(
            "bounded", sup_f=0.1, sup_delta_f=0.1,
            support=(0.5 * (blend + tail), base.s_lambda))),
        "gluing": lambda: rc.certify(4, 1.0, tol_glue=0.0),
        "first_integral": first_integral,
        "bundle": bundle,
    }


@pytest.mark.parametrize("condition", ["ricci", "tail", "gluing", "first_integral", "bundle"])
def test_certify_fails_on_each_condition(fail_routes, condition):
    res = fail_routes[condition]()
    assert res.verdict == "fail"
    assert [k for k, ok in _conjuncts(res).items() if not ok] == [condition]


def test_certify_precondition_errors():
    with pytest.raises(InputError):
        rc.certify(3, 0.0)
    with pytest.raises(InputError):
        rc.certify(2, 1.0)
    with pytest.raises(InputError):
        rc.certify(3, 2.0)
    with pytest.raises(InputError, match="safety"):
        rc.certify(3, 1.0, safety=0.0)  # checked for every connection


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


def test_certify_shrinks_r_when_phi_cap_binds(neck):
    base, eps = neck
    span = base.cap.blend_start - eps
    c = rc.ConnectionModel(
        "bounded", sup_f=0.5, support=(eps + 0.05 * span, eps + 0.145 * span)
    )
    res = rc.certify(4, 1.0, c, ric_min_base=1.0, safety=0.999)
    assert res.passed()
    cap = rc.choose_phi(1.0, c, 0.999, 4)
    assert res.phi <= cap
    # The scale search alone lands above the cap, so certify shrank r.
    r_search, prof, _ = rc.search_r(builder_for(neck), c, 1e-6)
    h_end = prof.evaluate(prof.s_lambda)[3]
    assert math.log(h_end / prof.cap.big_n) > cap
    assert res.r < r_search


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
