import gc
import io
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from twistbench import warpmetric as wm
from twistbench.errors import InputError, MarginLost, NoSolution, NoStop


def build(n=3, lam=0.5, lam0=0.75, alpha=1.389, **kw):
    return wm.WarpParams(n=n, lam=lam, lam0=lam0, alpha=alpha, **kw)


@pytest.fixture(scope="module")
def capped():
    w = wm.integrate_core(build())
    return wm.cap_sine(w, 0.5, w.params.cap_width)


@pytest.fixture(scope="module")
def neck():
    return wm.build_neck(build())


@pytest.fixture(scope="module")
def tailed(neck):
    return neck[0]


@pytest.fixture(scope="module")
def finished(neck):
    tailed, eps = neck
    return wm.smooth_origin(tailed, 0.5, eps)


# -- parameter resolution ------------------------------------------------------

def test_params_strict_intervals():
    with pytest.raises(InputError):
        wm.WarpParams(n=3, lam=1.0).resolve()
    with pytest.raises(InputError):
        wm.WarpParams(n=3, lam=0.5, lam0=0.5).resolve()
    with pytest.raises(InputError):
        wm.WarpParams(n=3, lam=0.5, lam0=0.75, alpha=1.0).resolve()
    p = wm.WarpParams(n=4, lam=0.3).resolve()
    assert p.lam < p.lam0 < 1.0
    assert p.n - 2 < p.alpha < (p.n - 2) / p.lam0**2


# -- core integration ----------------------------------------------------------

def test_core_initial_point():
    w = wm.integrate_core(build())
    f, fp, fpp, h, hp, hpp = w.evaluate(0.0)
    assert f == 1.0 and fp == 0.0
    assert abs(hp - 1.0) < 1e-15  # h' = f^(-alpha-1) = 1 at the origin
    assert h == 0.0


def test_core_stop_matches_first_integral_closed_form():
    w = wm.integrate_core(build())
    f = w.evaluate(w.s_lambda)[0]
    closed = (1.0 - 0.5**2 / 0.75**2) ** (-1.0 / 1.389)
    assert abs(f - closed) < 1e-9
    assert abs(f - 1.527) < 2e-3  # the worked number


def test_core_slope_monotone_and_asymptote():
    w = wm.integrate_core(build(s_budget=140.0))
    core = w.core
    core.extend(120.0)
    fp = np.array(core._fp)
    assert np.all(np.diff(fp) >= 0)
    assert np.all(np.diff(fp[: len(fp) // 2]) > 0)
    assert abs(fp[-1] - 0.75) < 1e-3  # converges to lam0


def test_core_first_integral_residual():
    w = wm.integrate_core(build())
    assert w.first_integral_residual() < w.params.tol_ode


def test_core_fourth_order_convergence():
    p = build(step=0.02, tol_ode=1.0)  # disable adaptive halving
    w1 = wm.integrate_core(p)
    r1 = w1.core.first_integral_residual(w1.s_lambda)
    p2 = build(step=0.01, tol_ode=1.0)
    w2 = wm.integrate_core(p2)
    r2 = w2.core.first_integral_residual(w1.s_lambda)
    assert r1 / r2 >= 8.0


@pytest.mark.parametrize("forced", [False, True])
def test_rk4_forward_and_backward_fourth_order(forced):
    # y = sin t on [0, pi] solves y'' = -y, and also y'' = -2y + sin t,
    # whose forcing is read at the sweep's half-step index.  Sweep
    # forward from t = 0 with h > 0 and backward from t = pi with h < 0.
    def worst(steps, backward):
        h = -math.pi / steps if backward else math.pi / steps
        t0 = math.pi if backward else 0.0

        def acc(i, y):
            return -2.0 * y + math.sin(t0 + 0.5 * h * i) if forced else -y

        ys, yps = wm._rk4(acc, math.sin(t0), math.cos(t0), h, steps)
        t = t0 + h * np.arange(steps + 1)
        return max(np.max(np.abs(np.array(ys) - np.sin(t))),
                   np.max(np.abs(np.array(yps) - np.cos(t))))

    for backward in (False, True):
        coarse, fine = worst(16, backward), worst(32, backward)
        assert coarse < 1e-3, (backward, coarse)
        assert coarse / fine >= 8.0, (backward, coarse, fine)


def test_core_h_identities():
    w = wm.integrate_core(build())
    a = w.params.alpha
    c_h = 2.0 / (a * w.params.lam0**2)
    for s in np.linspace(0.1, w.s_lambda, 7):
        f, fp, fpp, h, hp, hpp = w.evaluate(float(s))
        assert abs(h - c_h * fp) < 1e-12
        assert abs(hp - f ** (-a - 1.0)) < 1e-12
        assert abs(hpp + (a + 1.0) * f ** (-a - 2.0) * fp) < 1e-12


def test_core_h_derivative_consistency():
    # finite differences of sampled h agree with the stored h'
    w = wm.integrate_core(build())
    s = np.linspace(0.2, w.s_lambda - 0.2, 9)
    d = 1e-6
    for si in s:
        hm = w.evaluate(float(si - d))[3]
        hp_mid = w.evaluate(float(si))[4]
        hp_fd = (w.evaluate(float(si + d))[3] - hm) / (2 * d)
        assert abs(hp_fd - hp_mid) < 5e-9


def test_core_no_stop_on_small_budget():
    with pytest.raises(NoStop):
        wm.integrate_core(build(s_budget=0.5))


# -- cap -----------------------------------------------------------------------

def test_cap_arc_scale_near_closed_form(capped):
    closed = (1.0 - 0.5**2 / 0.75**2) ** (-1.0 / 1.389)
    assert abs(capped.cap.big_n - closed / math.sqrt(0.75)) < 0.02


def test_cap_postconditions_exact(capped):
    lam = 0.5
    cap = capped.cap
    f, fp, *_ = capped.evaluate(capped.s_lambda)
    assert abs(fp - lam) < 1e-10
    assert abs(cap.big_n - f / math.sqrt(1 - lam * lam)) < 1e-10
    assert abs(cap.s_prime - (capped.s_lambda - cap.big_n * math.acos(lam))) < 1e-10


def test_cap_matches_sine_on_terminal_zone(capped):
    cap = capped.cap
    for s in np.linspace(cap.blend_end, capped.s_lambda, 9):
        f, fp, *_ = capped.evaluate(float(s))
        th = (s - cap.s_prime) / cap.big_n
        assert abs(f - cap.big_n * math.sin(th)) < 1e-10
        assert abs(fp - math.cos(th)) < 1e-10


def test_cap_preserves_profile_outside(capped):
    w = wm.integrate_core(build())
    hi = min(w.s_lambda, capped.cap.blend_start) - 1e-9
    for s in np.linspace(0.0, hi, 7):
        assert abs(w.evaluate(float(s))[0] - capped.evaluate(float(s))[0]) < 1e-14


def test_cap_rejects_absurd_width():
    w = wm.integrate_core(build())
    with pytest.raises(MarginLost):
        wm.cap_sine(w, 0.5, 50.0)


def test_cap_margins_positive(capped):
    report = wm.inequality_margins(capped)
    assert report.global_min > 0


# -- root solves (blend start, arc scale N) ------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_GRID = [(n, s0) for n in (3, 4, 5, 6) for s0 in (0.3, 1.0)]


@pytest.fixture(scope="module")
def golden_caps():
    """(capped profile, golden N, blend integrations run) per golden point."""
    out = {}
    calls = [0]
    real = wm._integrate_blend

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wm, "_integrate_blend", counting)
        for n, s0 in GOLDEN_GRID:
            p = wm.WarpParams(n=n, lam=math.cos(s0)).resolve()
            base = wm.integrate_core(p)
            calls[0] = 0
            capped = wm.cap_sine(base, p.lam, p.cap_width)
            golden = GOLDEN_DIR / f"certify_n{n}_s{str(s0).replace('.', 'p')}.json"
            big_n = json.loads(golden.read_text())["params"]["N"]
            out[n, s0] = (capped, big_n, calls[0])
    return out


def test_cap_big_n_matches_goldens(golden_caps):
    for key, (capped, golden_n, _) in golden_caps.items():
        assert abs(capped.cap.big_n - golden_n) <= 1e-12 * golden_n, key


def test_cap_amplitude_gap_closed(golden_caps):
    for key, (capped, _, _) in golden_caps.items():
        cap = capped.cap
        fs, fps, _ = wm._integrate_blend(
            capped.core, cap.blend_start, cap.blend_end, cap.big_n
        )
        gap = math.hypot(fs[-1], cap.big_n * fps[-1]) - cap.big_n
        assert abs(gap) <= 1e-12 * cap.big_n, (key, gap)


def test_cap_blend_integration_budget(golden_caps):
    # A bisection for N runs about 333 blend integrations per cap; the
    # bracketed secant needs 29-44 on this grid.
    for key, (_, _, calls) in golden_caps.items():
        assert calls <= 80, (key, calls)


def test_find_slope_hits_target():
    core = wm.integrate_core(build()).core
    fp = np.array(core._fp)
    nodes = fp[[1, 2, len(fp) // 2, -1]]
    for target in np.concatenate((np.linspace(1e-3, fp[-1], 37), nodes)):
        s = core.find_slope(float(target))
        assert abs(float(core.eval(np.array([s]))[1][0]) - target) <= 1e-14, target


# -- tail ----------------------------------------------------------------------

def test_tail_boundary_conditions(tailed):
    *_, h, hp, hpp = tailed.evaluate(tailed.s_lambda)
    assert hp == 0.0
    assert abs(hpp) < 1e-6
    assert h > 0


def test_tail_slope_ratio_inequality(tailed):
    # -h~''/h~' >= -h''/h' wherever h~' > 0
    t0 = tailed.tail.start
    base = wm.integrate_core(build())
    for s in np.linspace(t0 + 1e-6, tailed.s_lambda - 1e-6, 25):
        _, _, _, h, hp, hpp = tailed.evaluate(float(s))
        _, _, _, hb, hpb, hppb = base.evaluate(float(s)) if s <= base.s_lambda else (
            None, None, None, *base.core.eval(np.array([s]))[:1], None, None)
        if hp <= 0:
            continue
        a = tailed.params.alpha
        f = tailed.evaluate(float(s))[0]
        # untouched h ratios from the core identities
        fb, fpb, _ = tailed.core.eval(np.array([s]))
        hp_raw = fb[0] ** (-a - 1.0)
        hpp_raw = -(a + 1.0) * fb[0] ** (-a - 2.0) * fpb[0]
        assert -hpp / hp >= -hpp_raw / hp_raw - 1e-10


def test_tail_width_halving_shrinks_value_gap(capped):
    base_h = capped.evaluate(capped.s_lambda)[3]
    gaps = []
    for width in (0.004, 0.002, 0.001):
        t = wm.flatten_h_tail(capped, width)
        gaps.append(abs(t.evaluate(t.s_lambda)[3] - base_h))
    assert gaps[0] > gaps[1] > gaps[2]


def test_tail_margins(tailed):
    report = wm.inequality_margins(tailed)
    assert report.global_min > 0
    assert report.tail_nonnegative


# -- origin smoothing ------------------------------------------------------------

def test_origin_splice_matching_equations(finished):
    o = finished.origin
    sp = o.splice_point
    f, fp, fpp, h, hp, hpp = finished.evaluate(sp)
    # the spliced sine meets the bridged h with value and slope
    assert abs(o.radius * math.sin((sp - o.eps_prime) / o.radius) - h) < 1e-10
    assert abs(math.cos((sp - o.eps_prime) / o.radius) - hp) < 1e-10


def test_origin_left_slope_exactly_one(finished):
    assert finished.evaluate(finished.s_left)[4] == 1.0
    assert finished.evaluate(finished.s_left)[3] == 0.0


def test_origin_flat_f(finished):
    o = finished.origin
    for s in np.linspace(finished.s_left, o.flat_end, 9):
        f, fp, fpp, *_ = finished.evaluate(float(s))
        assert abs(f - o.flat_value) < 1e-12
        assert fp == 0.0 and fpp == 0.0


def test_origin_rejoins_core_exactly(finished):
    o = finished.origin
    core = finished.core
    f, fp, *_ = finished.evaluate(o.rejoin)
    fc, fpc, _ = core.eval(np.array([o.rejoin]))
    assert abs(f - fc[0]) < 1e-12
    assert abs(fp - fpc[0]) < 1e-12


def test_origin_first_integral_survives(finished):
    assert finished.first_integral_residual() < finished.params.tol_ode


def test_splice_solve_against_root_finder(finished):
    # independent check of the closed-form (R, eps') solve
    brentq = pytest.importorskip("scipy.optimize").brentq
    o = finished.origin
    sp = o.splice_point
    h_val = finished.evaluate(sp)[3]
    hp_val = finished.evaluate(sp)[4]

    def slope_mismatch(radius):
        # for each radius, the phase is set by the value equation
        th = math.asin(min(1.0, h_val / radius))
        return math.cos(th) - hp_val

    r_lo, r_hi = h_val * (1 + 1e-12), h_val * 1e6
    radius = brentq(slope_mismatch, r_lo, r_hi, xtol=1e-15, rtol=1e-14)
    assert abs(radius - o.radius) < 1e-8 * o.radius


def test_splice_no_solution_guard():
    with pytest.raises(NoSolution):
        wm._solve_splice(1.0, 1.2, 1.0)


def test_splice_small_r_phase_limit(neck):
    # r -> 0: the nominal matching angle arccos(r h') tends to a quarter turn
    radius, u = wm._solve_splice(1.2e-3, 0.999, 1e-4)
    assert abs(u - math.pi / 2) < 1e-3
    # and the tiny-scale profile still builds cleanly
    tailed, eps = neck
    w = wm.smooth_origin(tailed, 1e-4, eps)
    assert wm.inequality_margins(w).global_min > 0


def test_origin_margins_and_seams(finished):
    report = wm.inequality_margins(finished)
    assert report.global_min > 0
    assert report.tail_nonnegative
    for s, df, dfp, dh, dhp in finished.seam_residuals():
        assert df < 1e-8 and dfp < 1e-8 and dh < 1e-8 and dhp < 1e-8


def test_origin_scale_validation(neck):
    tailed, eps = neck
    with pytest.raises(InputError):
        wm.smooth_origin(tailed, 1.5, eps)
    with pytest.raises(InputError):
        wm.smooth_origin(tailed, 0.5, 100.0)


@pytest.fixture(scope="module")
def neck_41():
    return wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))


def test_kink_bridge_self_consistent(neck_41):
    # The bridge's stored h'' must be the derivative of its h'.  A sign
    # slip in the backward sweep keeps every seam closed (the splice sine
    # is re-solved through the bridge's end data) but shows here, at
    # about 1e-4 of max|h''| against 3e-7 when correct.
    tailed, eps = neck_41
    for r in (1.0, 0.5, 0.013):
        w = wm.smooth_origin(tailed, r, eps)
        kink = w.segments[1]
        assert kink.s0 == w.origin.splice_point
        curve = kink.hmod.curve_d
        hp, hpp = curve.values, curve.slopes
        centred = (hp[2:] - hp[:-2]) / (2.0 * curve.step)
        err = np.max(np.abs(centred - hpp[1:-1]))
        assert err <= 1e-6 * np.max(np.abs(hpp)), (r, err)


def test_kink_bridge_matches_rk4_sweep(neck_41):
    # The bridge composes one affine map per RK4 step; the reference is
    # the backward _rk4 sweep of the same equation
    # h'' = -(1 - sig) h / R^2 + sig g, with g the rescaled core h''.
    tailed, eps = neck_41
    core = tailed.core
    for r in (1.0, 0.5, 0.013, 1e-4):
        o = wm.smooth_origin(tailed, r, eps).origin
        x0, x1 = o.splice_point, o.splice_point + 2.0 * o.kink_halfwidth
        core_h = wm._CoreH(core)
        h_sp, hp_sp, _ = core_h.eval(np.array([x0]))
        radius_hat, _ = wm._solve_splice(float(h_sp[0]), float(hp_sp[0]), r)
        model, h_x0, hp_x0 = wm._smooth_kink(core_h, r, radius_hat, x0, x1)
        h_vals, hp_vals = model.curve.values, model.curve_d.values

        steps = len(h_vals) - 1
        fine = np.linspace(x0, x1, 2 * steps + 1)
        sig = wm.smoothstep((fine - x0) / (x1 - x0))[::-1].tolist()
        g = (r * core_h.eval(fine)[2])[::-1].tolist()
        inv_r2 = 1.0 / (radius_hat * radius_hat)

        def acc(i, h):
            return -(1.0 - sig[i]) * h * inv_r2 + sig[i] * g[i]

        h1, hp1, _ = core_h.eval(np.array([x1]))
        hstep = -(x1 - x0) / steps
        hs, hps = wm._rk4(acc, r * float(h1[0]), r * float(hp1[0]), hstep, steps)
        ref_h, ref_hp = np.array(hs[::-1]), np.array(hps[::-1])
        assert np.max(np.abs(h_vals - ref_h)) <= 1e-12 * np.max(np.abs(ref_h)), r
        assert np.max(np.abs(hp_vals - ref_hp)) <= 1e-12 * np.max(np.abs(ref_hp)), r
        assert (h_x0, hp_x0) == (h_vals[0], hp_vals[0])


# -- what smooth_origin keeps on the neck ------------------------------------------

def _assert_same_probe(got, want):
    assert got.origin == want.origin
    got_m, want_m = wm.inequality_margins(got), wm.inequality_margins(want)
    assert len(got_m.blocks) == len(want_m.blocks)
    for g, w in zip(got_m.blocks, want_m.blocks):
        assert g[0] == w[0]
        assert all(np.array_equal(a, b) for a, b in zip(g[1:], w[1:]))
    for g, w in zip(got.sample(), want.sample()):
        assert all(np.array_equal(a, b) for a, b in zip(g[1:], w[1:]))


def test_origin_cache_order_free():
    # Probes in any order on one neck match probes on fresh necks.
    params = wm.WarpParams(n=4, lam=math.cos(1.0))
    rs = (1.0, 1e-4, 0.5, 0.013)
    fresh = {}
    for r in rs:
        tailed, eps = wm.build_neck(params)
        fresh[r] = wm.smooth_origin(tailed, r, eps)
    tailed, eps = wm.build_neck(params)
    for r in rs + rs[::-1]:
        _assert_same_probe(wm.smooth_origin(tailed, r, eps), fresh[r])


def test_origin_cache_follows_eps():
    # A second origin budget on the same neck gets its own collar.
    params = wm.WarpParams(n=4, lam=math.cos(1.0))
    tailed, eps = wm.build_neck(params)
    first = wm.smooth_origin(tailed, 0.5, eps)
    second = wm.smooth_origin(tailed, 0.5, 0.5 * eps)
    assert second.origin.rejoin == 0.5 * eps
    fresh, _ = wm.build_neck(params)
    _assert_same_probe(second, wm.smooth_origin(fresh, 0.5, 0.5 * eps))
    _assert_same_probe(wm.smooth_origin(tailed, 0.5, eps), first)


def test_origin_cache_dies_with_neck():
    tailed, eps = wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))
    probe = wm.smooth_origin(tailed, 0.5, eps)
    neck_ref = weakref.ref(tailed)
    del tailed
    gc.collect()
    assert neck_ref() is None  # a probe does not keep its neck alive
    outer_ref = weakref.ref(probe.outer)
    del probe
    gc.collect()
    assert outer_ref() is None


def test_fibre_scale_applied_alike_on_shared_and_own_blocks(neck_41):
    # A probe's outer blocks are the neck's, scaled once per r; sampling
    # the probe's own segment (which carries h_scale = r) and evaluating
    # the profile pointwise must give the same bits.
    tailed, eps = neck_41
    for r in (1.0, 0.5, 0.013):
        w = wm.smooth_origin(tailed, r, eps)
        own = len(w.segments) - len(w.outer.segments)
        for k, seg in enumerate(w.segments):
            got = w.block(k)
            if k >= own:
                assert seg.h_scale == r
                fresh = wm._sample_block(w.params.n, seg, got.s)
                assert fresh.seg is seg
                for a, b in zip(got[1:], fresh[1:]):
                    assert np.array_equal(a, b), (r, k)
            for i in range(1, len(got.s) - 1, 5):
                want = tuple(float(c[i]) for c in got[2:8])
                assert w.evaluate(float(got.s[i])) == want, (r, k, i)


def test_non_finite_margin_fails_closed():
    # h = 0 at a sample makes h''/h infinite; min() would skip a NaN and
    # an inf margin certifies nothing, so the block must refuse it.
    curve = wm._DenseCurve(0.0, 0.5, [1.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    h = wm._Dense(curve, curve, lambda s: np.ones_like(s))
    seg = wm.Segment("flat", 0.0, 1.0, wm._FlatF(1.0), h)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(MarginLost, match=r"segment flat \[0, 1\]"):
            wm._sample_block(4, seg, np.linspace(0.0, 1.0, 5))


# -- margins ---------------------------------------------------------------------

def test_core_inequality_two_lower_bound(finished):
    """Margin of the second inequality dominates f^-2 ((n-2) - alpha lam0^2)."""
    p = finished.params
    bound_coeff = (p.n - 2) - p.alpha * p.lam0**2
    assert bound_coeff > 0
    report = wm.inequality_margins(finished)
    for label, s, m1, m2, m3 in report.blocks:
        if label != "core":
            continue
        f = finished.core.eval(s)[0]
        bound = bound_coeff / (f * f)
        assert np.all(m2 + 1e-12 >= bound)


def test_splice_margin_closed_form(finished):
    o = finished.origin
    report = wm.inequality_margins(finished)
    for label, s, m1, m2, m3 in report.blocks:
        if label == "splice":
            assert np.allclose(m1, 1.0 / o.radius**2, rtol=1e-12)
            assert np.allclose(m3, 1.0 / o.radius**2, rtol=1e-12)
            flat = finished.origin.flat_value
            expected = (finished.params.n - 2) / (flat * flat)
            assert np.allclose(m2, expected, rtol=1e-12)


def test_margin_sweep_across_parameters():
    """Strict margins on every non-tail segment over the parameter sweep."""
    for n in range(3, 9):
        for lam in (0.2, 0.5, 0.8):
            w, eps = wm.build_neck(wm.WarpParams(n=n, lam=lam))
            w = wm.smooth_origin(w, 0.5, eps)
            report = wm.inequality_margins(w)
            assert report.global_min > 0, (n, lam)
            assert report.tail_nonnegative, (n, lam)


# -- export ------------------------------------------------------------------------

def test_export_profile_roundtrip(finished):
    buf = io.StringIO()
    wm.export_profile(finished, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "s,f,fp,fpp,h,hp,hpp,segment"
    rows = [ln.split(",") for ln in lines[1:]]
    expected_rows = sum(len(s) for _, s, *_ in finished.sample())
    assert len(rows) == expected_rows
    # round-trip: parse back and compare against fresh samples
    parsed = np.array([[float(v) for v in row[:7]] for row in rows])
    k = 0
    for seg, s, f, fp, fpp, h, hp, hpp in finished.sample():
        block = parsed[k : k + len(s)]
        assert np.array_equal(block[:, 0], s)
        assert np.array_equal(block[:, 1], f)
        assert np.array_equal(block[:, 4], h)
        k += len(s)
    labels = {row[7] for row in rows}
    assert labels <= {"core", "cap", "tail", "splice", "flat"}
