import gc
import inspect
import io
import json
import math
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from twistbench import riccicert as rc
from twistbench import warpmetric as wm
from twistbench.errors import Exhausted, InputError, MarginLost, NoSolution, NoStop, StageError


def build(n=3, lam=0.5, lam0=0.75, alpha=1.389, **kw):
    return wm.WarpParams(n=n, lam=lam, lam0=lam0, alpha=alpha, **kw)


def wide_core(p, s_wide):
    # A core table wider than any neck reads, ending past s_wide (ds/du >
    # 2u/lam0, so u_max^2 = lam0 s_wide is enough).
    p = p.resolve()
    return wm._CoreSolution(p.lam0, p.alpha, math.sqrt(p.lam0 * s_wide))


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


@pytest.mark.parametrize(
    "name, value",
    [(name, value) for name in ("cap_width", "tail_width", "origin_eps", "step")
     for value in (math.nan, math.inf, 0.0, -1.0)]
    # A step this far below s_est would ask for billions of samples per
    # segment, so this case is only ever resolved, never built.
    + [("step", 1e-9)],
)
def test_params_reject_nonfinite_and_out_of_range(name, value):
    with pytest.raises(InputError, match=name):
        wm.WarpParams(n=4, lam=math.cos(1.0), **{name: value}).resolve()


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
    # On a wide table f' rises and tends to lam0.
    core = wide_core(build(), 140.0)
    assert core.s_end >= 140.0
    fp = core.f_fp(np.linspace(0.0, 120.0, 24001))[1]
    assert np.all(np.diff(fp) >= 0)
    assert np.all(np.diff(fp[: len(fp) // 2]) > 0)
    assert abs(fp[-1] - 0.75) < 1e-3  # converges to lam0


def test_core_first_integral_residual():
    w = wm.integrate_core(build())
    assert w.first_integral_residual() < wm._FIRST_INTEGRAL_TOL


def _quad_s_of_f(p, f):
    # s(f) = int_1^f dx / (lam0 sqrt(1 - x^-alpha)), with x = 1 + v^2.
    quad = pytest.importorskip("scipy.integrate").quad

    def ds_dv(v):
        if v == 0.0:
            return 2.0 / (p.lam0 * math.sqrt(p.alpha))
        return 2.0 * v / (p.lam0 * math.sqrt(-math.expm1(-p.alpha * math.log1p(v * v))))

    return quad(ds_dv, 0.0, math.sqrt(f - 1.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0), (12, 0.3), (40, 1.3)])
def test_core_matches_quadrature_oracle(n, s0):
    # f at scipy's s(f), from f = 1 + 1e-6 up to f at the table's end,
    # which lies past s_lambda.
    p = wm.WarpParams(n=n, lam=math.cos(s0)).resolve()
    core = wm.integrate_core(p).core
    assert core.s_end > core.find_slope(p.lam)
    f_top = float(core.f_fp(np.array([core.s_end]))[0][0])
    for f in np.geomspace(1e-6, f_top - 1.0, 25) + 1.0:
        got = float(core.f_fp(np.array([_quad_s_of_f(p, f)]))[0][0])
        assert abs(got - f) <= 1e-11 * f, (n, s0, f)


def test_gauss_legendre_rules_match_numpy():
    # The hard-coded core cell rule is numpy's, mapped to [0, 1].
    leggauss = pytest.importorskip("numpy.polynomial.legendre").leggauss
    x, w = wm._gauss_legendre(*wm._CORE_RULE)
    nodes, weights = leggauss(4)
    assert _same_bits(x, 0.5 * (nodes + 1.0)) and _same_bits(w, 0.5 * weights)


def test_core_fourth_order_convergence():
    # The residual reads the interpolant's derivative at cell midpoints,
    # where the cubic Hermite error of u' is fourth order: doubling the
    # cells cuts it by about 16.
    core = wide_core(build(), 24.0)
    u_max = float(core._u[-1])
    residuals = []
    for cells in (64, 128):
        core._build(u_max, cells)
        residuals.append(core.first_integral_residual(0.0, 5.0))
    assert residuals[0] / residuals[1] >= 8.0, residuals
    assert residuals[1] > 1e-12  # above rounding, so the ratio is the error's


def test_core_unmet_tolerance_raises(monkeypatch):
    # No table meets a 1e-18 residual: the core fails instead of
    # returning an unchecked solution.
    monkeypatch.setattr(wm, "_FIRST_INTEGRAL_TOL", 1e-18)
    with pytest.raises(NoStop, match="first-integral tolerance"):
        wm.integrate_core(build())


def test_core_table_fails_closed_at_its_cap(monkeypatch):
    monkeypatch.setattr(wm, "_SWEEP_TOL", 0.0)
    with pytest.raises(NoStop, match="core table: error estimate"):
        wm.integrate_core(build())


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


def test_find_slope_past_the_table_raises():
    # A slope below lam0 whose u lies past the table's end is not reached.
    core = wm.integrate_core(build()).core
    end = float(core.f_fp(np.array([core.s_end]))[1][0])
    assert end < 0.75
    assert core.find_slope(0.999 * end) < core.s_end
    with pytest.raises(NoStop, match="on the core table"):
        core.find_slope(0.5 * (end + 0.75))


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
    w = wm.integrate_core(build(cap_width=50.0))
    with pytest.raises(MarginLost):
        wm.cap_sine(w, 0.5, 50.0)


def test_cap_width_must_be_the_profiles():
    # The profile's cap_width sized its core table, so no other is taken.
    w = wm.integrate_core(build())
    with pytest.raises(InputError, match="cap_width"):
        wm.cap_sine(w, 0.5, 0.5 * w.params.cap_width)


@pytest.mark.parametrize("width", [50.0, 1e12])
def test_core_table_past_the_cap_guard_ends_at_the_guard(width):
    # A cap width whose slope target passes the guard sizes the table to
    # the guard alone (862 cells at (4, 1.0) for any such width), and
    # cap_sine fails there before it reads the table.
    p = wm.WarpParams(n=4, lam=math.cos(1.0), cap_width=width)
    w = wm.integrate_core(p)
    guard = w.params.lam0 - 0.02 * (w.params.lam0 - w.params.lam)
    assert len(w.core._h) < 1000
    assert abs(float(w.core.f_fp(np.array([w.core.s_end]))[1][0]) - guard) <= 1e-12
    with pytest.raises(MarginLost, match="cap width too large"):
        wm.cap_sine(w, p.lam, width)


def test_cap_margins_positive(capped):
    report = wm.inequality_margins(capped)
    assert min(report.min1, report.min2, report.min3) > 0


# -- root solves (blend start, arc scale N) ------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_GRID = [(n, s0) for n in (3, 4, 5, 6) for s0 in (0.3, 1.0)]


@pytest.fixture(scope="module")
def golden_caps():
    """Per golden point: the capped profile, the slope target f'(b), the
    golden N, and the number of Newton systems the cap solved."""
    out = {}
    calls = [0]
    real = wm._cap_equations

    def counted(*args):
        calls[0] += 1
        return real(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wm, "_cap_equations", counted)
        for n, s0 in GOLDEN_GRID:
            p = wm.WarpParams(n=n, lam=math.cos(s0)).resolve()
            base = wm.integrate_core(p)
            calls[0] = 0
            capped = wm.cap_sine(base, p.lam, p.cap_width)
            # f'(b) leaves the sine arc half the cap width to reach lam.
            f_stop = float(capped.core.eval(np.array([base.s_lambda]))[0][0])
            root = math.sqrt(1.0 - p.lam * p.lam)
            target = p.lam + root * 0.5 * p.cap_width / (f_stop / root)
            golden = GOLDEN_DIR / f"certify_n{n}_s{str(s0).replace('.', 'p')}.json"
            big_n = json.loads(golden.read_text())["params"]["N"]
            out[n, s0] = (capped, target, big_n, calls[0])
    return out


def _blend(profile):
    # The cap blend's window model and its width as cap_sine solved it.
    seg = profile.segments[1]
    assert seg.label == "cap" and isinstance(seg.fmod, wm._Window)
    return seg.fmod, 0.5 * profile.params.cap_width


def _cap_system(capped, target, g=None, a=None, big_n=None):
    # The cap's Newton system at (g, a, N), by default at the root: f'' at
    # the blend's nodes in order from a is the model's f'' row reversed.
    model, width = _blend(capped)
    cap, core = capped.cap, capped.core
    g = model.rows[2][::-1] if g is None else g
    a = cap.blend_start if a is None else a
    big_n = cap.big_n if big_n is None else big_n
    return wm._cap_equations(core, core.at(a), big_n, g, width, target)


def _cap_end(capped):
    # (f, f') at the blend end b, read from the kept model.
    f, fp, _ = _blend(capped)[0].eval(np.array([capped.cap.blend_end]))
    return float(f[0]), float(fp[0])


def test_cap_big_n_matches_goldens(golden_caps, monkeypatch):
    # The goldens' solver stopped once |f'(b) - target| < 1e-12, so a
    # golden N may sit off the root by 1e-12 |dN/d(slope residual)|; the
    # inverse Jacobian at the root gives that derivative.  That band is
    # 5.4e-11 relative at (3, 0.3) and at least 1.4e-12 elsewhere.  The
    # goldens were also built on an RK4 core, whose error N inherits:
    # against this core (which matches scipy's quadrature to 3e-13) they sit
    # up to 3.2e-11 relative off, at (6, 0.3).  The band adds 1e-10 relative
    # for that.  The root itself is converged in the core: a table of about
    # four times the cells moves N by at most 1e-13 relative.
    for key, (capped, target, golden_n, _) in golden_caps.items():
        _, jac, _ = _cap_system(capped, target)
        dn_dslope = np.linalg.inv(jac)[-1, -1]
        band = 1e-12 * abs(dn_dslope) + 1e-10 * golden_n
        assert abs(capped.cap.big_n - golden_n) <= band, (key, capped.cap.big_n - golden_n, band)
    monkeypatch.setattr(wm, "_CORE_START", 4 * wm._CORE_START)
    for (n, s0), (capped, *_) in golden_caps.items():
        p = wm.WarpParams(n=n, lam=math.cos(s0)).resolve()
        fine = wm.cap_sine(wm.integrate_core(p), p.lam, p.cap_width)
        assert len(fine.core._h) > 3 * len(capped.core._h)
        assert abs(fine.cap.big_n - capped.cap.big_n) <= 1e-13 * capped.cap.big_n, (n, s0)


def test_cap_amplitude_gap_closed(golden_caps):
    for key, (capped, *_) in golden_caps.items():
        fb, pb = _cap_end(capped)
        gap = math.hypot(fb, capped.cap.big_n * pb) - capped.cap.big_n
        assert abs(gap) <= 1e-12 * capped.cap.big_n, (key, gap)


def test_cap_equations_at_rounding_level(golden_caps):
    # Newton converges quadratically, so the kept blend closes both cap
    # equations and its collocation residual to rounding; a solver that
    # stops at a slope residual of 1e-12 leaves 5.7e-13 at (3, 0.3).
    for key, (capped, target, *_) in golden_caps.items():
        big_n = capped.cap.big_n
        fb, pb = _cap_end(capped)
        gap = math.hypot(fb, big_n * pb) - big_n
        assert abs(gap) <= 1e-14 * big_n, (key, gap)
        assert abs(pb - target) <= 1e-14, (key, pb - target)
        res, _, (f, fp, _) = _cap_system(capped, target)
        g = _blend(capped)[0].rows[2][::-1]
        assert np.max(np.abs(res[:-2])) <= 1e-14 * np.max(np.abs(g)), key
        assert (f[-1], fp[-1]) == (fb, pb), key


def test_cap_blend_integration_budget(golden_caps):
    # Newton on (f'' at the nodes, a, N) takes 3 steps on this grid, and the
    # half-degree check one more linear solve.
    for key, (*_, calls) in golden_caps.items():
        assert calls <= 5, (key, calls)


@pytest.mark.parametrize("key", [(3, 0.3), (6, 1.0)])
def test_blend_jacobian_matches_finite_differences(golden_caps, key):
    # A sign slip in the Jacobian only slows Newton down, so no other test
    # would see it.  Each column against a centred difference of the
    # residual, at the root.  The residual is affine in g but for f^(-alpha-1)
    # and the hypot, which move little over the window, so the g steps are
    # wide; the identity part of the g block is exact in both and is taken
    # out, so its small spectral part is what is compared.  Measured: at
    # most 1.1e-7 of a column's largest entry (a g column at (6, 1.0)).
    capped, target, *_ = golden_caps[key]
    cap = capped.cap
    g0 = _blend(capped)[0].rows[2][::-1].copy()
    m = len(g0)
    _, jac, _ = _cap_system(capped, target)

    def residual(dg, da, dn):
        return _cap_system(capped, target, g0 + dg, cap.blend_start + da, cap.big_n + dn)[0]

    zero = np.zeros(m)
    columns = []
    for k in range(m):
        e = np.zeros(m)
        e[k] = 10.0 * np.max(np.abs(g0))
        d = (residual(e, 0.0, 0.0) - residual(-e, 0.0, 0.0)) / (2.0 * e[k])
        d[k] -= 1.0
        got = jac[:, k].copy()
        got[k] -= 1.0
        columns.append((k, got, d))
    da, dn = 1e-4, 1e-5 * cap.big_n
    columns.append(("a", jac[:, m], (residual(zero, da, 0.0) - residual(zero, -da, 0.0)) / (2.0 * da)))
    columns.append(("N", jac[:, m + 1], (residual(zero, 0.0, dn) - residual(zero, 0.0, -dn)) / (2.0 * dn)))
    for k, got, centred in columns:
        assert np.max(np.abs(got - centred)) <= 1e-6 * np.max(np.abs(centred)), (key, k)


def _huge_step(real):
    def equations(*args):
        res, jac, rows = real(*args)
        return 1e6 * res, jac, rows

    return equations


@pytest.mark.parametrize(
    "name, patch, message",
    [
        ("_CAP_NEWTON_STEPS", lambda real: 1, "did not converge"),
        ("_cap_equations", lambda real: lambda *a: (lambda res, jac, rows: (res, 0.0 * jac, rows))(*real(*a)),
         "singular"),
        ("_cap_equations", _huge_step, "left the slope window"),
    ],
)
def test_cap_newton_fails_closed(monkeypatch, name, patch, message):
    monkeypatch.setattr(wm, name, patch(getattr(wm, name)))
    with pytest.raises(StageError) as info:
        wm.build_neck(build())
    assert info.value.stage == "cap_sine"
    assert isinstance(info.value.cause, MarginLost)
    assert message in str(info.value.cause)


@pytest.mark.parametrize("n", [40, 45, 50])
def test_cap_newton_step_damped_inside_the_core(monkeypatch, n):
    # At s0 = 1.56 the full Newton step takes a below 0 (to -2.1e-5,
    # -1.6e-4 and -2.8e-4).  The
    # damped step keeps every iterate in the core table (0, s_end); there is no root
    # there (f'(b) stays above the slope target as a falls), so Newton runs
    # out of steps.  cap_sine reads the core at s_stop once, then at each
    # iterate's a.
    at = []
    real = wm._CoreSolution.at

    def recording(core, s):
        at.append((core, s))
        return real(core, s)

    monkeypatch.setattr(wm._CoreSolution, "at", recording)
    p = wm.WarpParams(n=n, lam=math.cos(1.56))
    with pytest.raises(StageError) as info:
        wm.build_neck(p)
    assert info.value.stage == "cap_sine"
    assert "did not converge" in str(info.value.cause)
    starts = at[1:]
    assert len(starts) == wm._CAP_NEWTON_STEPS
    assert all(0.0 < a < core.s_end for core, a in starts), starts


def _blend_at_degree(capped, target, degree):
    # The blend at the root's (a, N) solved at another degree: Newton in g
    # alone, from 0, to rounding.  Returns (f, f') at the nodes from a.
    g = np.zeros(degree + 1)
    for _ in range(10):
        res, jac, (f, fp, _) = _cap_system(capped, target, g)
        step = np.linalg.solve(jac[:-2, :-2], -res[:-2])
        g += step
        if np.max(np.abs(step)) <= 1e-15 * np.max(np.abs(g)):
            break
    _, _, (f, fp, _) = _cap_system(capped, target, g)
    return f, fp


def test_cap_blend_sized_by_its_error(golden_caps):
    # The first degree meets the tolerance on the golden grid, and the kept
    # estimate, a Python float, is the relative change at the shared nodes
    # from the half-degree solve at the root's (a, N).  The estimate bounds
    # the error: at degrees 4 and 8, where the error is above rounding, the
    # change from half the degree is at least the distance from a
    # degree-128 solve at the same nodes.
    for key, (capped, target, *_) in golden_caps.items():
        cap = capped.cap
        assert cap.blend_degree == wm._BLEND_DEGREE == 32, key
        assert type(cap.blend_error) is float and 0.0 <= cap.blend_error <= wm._SWEEP_TOL, key
        kept = [row[::-1] for row in _blend(capped)[0].rows[:2]]
        half = _blend_at_degree(capped, target, 16)
        assert cap.blend_error == pytest.approx(wm._relative_change(kept, half), abs=1e-15), key
        fine = _blend_at_degree(capped, target, 128)
        for degree in (4, 8):
            rows, coarse = _blend_at_degree(capped, target, degree), _blend_at_degree(capped, target, degree // 2)
            estimate = wm._relative_change(rows, coarse)
            error = max(float(np.max(np.abs(y - y_fine[:: 128 // degree]) / np.abs(y_fine[:: 128 // degree])))
                        for y, y_fine in zip(rows, fine))
            assert error <= estimate, (key, degree, error, estimate)


def test_cap_blend_fails_closed_at_degree_cap(monkeypatch):
    # No estimate meets a negative tolerance (a spectral estimate can read
    # exactly 0), so the blend gives up at the cap.  The core, which reads
    # the same tolerance, is built before it drops.
    base = wm.integrate_core(build())
    monkeypatch.setattr(wm, "_SWEEP_TOL", -1.0)
    with pytest.raises(StageError) as info:
        wm._stage("cap_sine", wm.cap_sine, base, 0.5, base.params.cap_width)
    assert info.value.stage == "cap_sine"
    assert isinstance(info.value.cause, MarginLost)
    assert "cap blend: error estimate" in str(info.value.cause)
    assert str(info.value.cause).endswith(f"at degree {wm._DEGREE_MAX}")


def _blend_oracle(capped, tau):
    # The blend equation in the window parameter tau = (s - a)/(b - a),
    # integrated by DOP853 from the core's (f, f') at a, at the root's (a,
    # N); returns f and f'.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    core, cap = capped.core, capped.cap
    width = cap.blend_end - cap.blend_start

    def rhs(tau, y):
        sig = float(wm.smoothstep(tau))
        fpp = (1.0 - sig) * core.c2 * y[0] ** (-core.alpha - 1.0) - sig * y[0] / cap.big_n**2
        return [y[1], width * width * fpp]

    f_a, fp_a, _ = core.at(cap.blend_start)
    sol = solve_ivp(rhs, (0.0, 1.0), [f_a, width * fp_a], method="DOP853", rtol=1e-13,
                    atol=0.0, t_eval=tau)
    return sol.y[0], sol.y[1] / width


@pytest.mark.parametrize("n, s0", GOLDEN_GRID + [(12, 1.0), (40, 1.3)])
def test_cap_blend_matches_dop853_oracle(n, s0):
    # f and f' at the blend's block samples, b among them, against scipy's
    # DOP853 on the blend equation from the root's (a, N).  Measured: at
    # most 1.0e-15 relative.
    p = wm.WarpParams(n=n, lam=math.cos(s0)).resolve()
    capped = wm.cap_sine(wm.integrate_core(p), p.lam, p.cap_width)
    cap, b = capped.cap, capped.block(1)
    assert (b.s[0], b.s[-1]) == (cap.blend_start, cap.blend_end)
    tau = (b.s - cap.blend_start) / (cap.blend_end - cap.blend_start)
    for got, want in zip((b.f, b.fp), _blend_oracle(capped, tau)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-11, (n, s0)


def test_find_slope_hits_target():
    # f' of the interpolant at find_slope(t) is t: at the neck's lam, and
    # on a wide table at targets up to lam0 and at the f' of table nodes.
    w = wm.integrate_core(build())
    assert abs(w.evaluate(w.s_lambda)[1] - 0.5) <= 1e-14
    core = wide_core(build(), 24.0)
    nodes = core.f_fp(core._s[[1, 2, len(core._s) // 4]])[1]
    for target in np.concatenate((np.linspace(1e-3, 0.74, 37), nodes)):
        s = core.find_slope(float(target))
        assert abs(float(core.eval(np.array([s]))[1][0]) - target) <= 1e-14, target
    assert core.find_slope(0.0) == 0.0
    for target in (0.75, 0.8):  # lam0 and above: never reached
        with pytest.raises(NoStop):
            core.find_slope(target)


@pytest.mark.parametrize("n, s0", GOLDEN_GRID + [(12, 1.0), (40, 1.0), (45, 1.0)])
def test_core_table_ends_where_the_neck_reads_it(n, s0):
    # The table reaches past s_lambda, the last point a neck reads, and no
    # node lies more than 2 cap_width plus one cell past it.  Measured:
    # it ends 0.30 (3, 0.3) to 1.96 (12, 1.0) cap widths past s_lambda.
    # The reach grows like lam0/lam (7.3 cap widths at (12, 1.5)).
    w, _ = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    core, width = w.core, w.params.cap_width
    assert core.s_end >= w.s_lambda
    assert core._s[-2] <= w.s_lambda + 2.0 * width


# -- tail ----------------------------------------------------------------------

def test_tail_boundary_conditions(tailed):
    *_, h, hp, hpp = tailed.evaluate(tailed.s_lambda)
    assert hp == 0.0
    assert hpp == 0.0
    assert h > 0


@pytest.mark.parametrize("n, s0", GOLDEN_GRID)
def test_window_end_data_exact(n, s0):
    # The windows start from their left end's data bit for bit: the blend
    # from the core's (f, f') at a, the tail from h at its start; and the
    # tail's h' and h'' vanish at s_lambda exactly.
    tailed, _ = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    cap, tail, core = tailed.cap, tailed.tail, tailed.core
    f, fp, _ = tailed.segments[1].fmod.eval(np.array([cap.blend_start]))
    assert (float(f[0]), float(fp[0])) == core.at(cap.blend_start)[:2]
    seg = next(seg for seg in tailed.segments if seg.label == "tail")
    assert seg.s0 == tail.start
    h, hp, hpp = seg.hmod.eval(np.array([tail.start, tailed.s_lambda]))
    assert h[0] == wm._CoreH(core).eval(np.array([tail.start]))[0][0]
    assert hp[1] == 0.0 and hpp[1] == 0.0


@pytest.mark.parametrize("n, s0", GOLDEN_GRID)
def test_cap_and_tail_seams_closed(n, s0):
    # f, f', h and h' agree across the blend start, the blend end and the
    # tail start to 1e-13 relative.
    tailed, _ = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    seams = {s: d for s, *d in tailed.seam_residuals()}
    junctions = (tailed.cap.blend_start, tailed.cap.blend_end, tailed.tail.start)
    assert sorted(seams) == sorted(junctions)
    for s in junctions:
        f, fp, _, h, hp, _ = tailed.evaluate(s)
        for d, value in zip(seams[s], (f, fp, h, hp)):
            assert d <= 1e-13 * abs(value), (n, s0, s, seams[s])


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0), (12, 0.3), (40, 1.3), (45, 1.5)])
def test_tail_matches_quadrature_oracle(n, s0):
    # The tail's h at its block samples against h(t0) + int_t0^s psi h',
    # with scipy's quad; h' and h'' at the samples against psi h' and psi
    # h'' + psi' h'.  Measured: h at most 6.4e-16 relative, h' 9.2e-14 of
    # the core's h' (the degree-16 interpolant, at n = 40 and 45).
    quad = pytest.importorskip("scipy.integrate").quad
    tailed, _ = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    t0, s_lam = tailed.tail.start, tailed.s_lambda
    core_h = wm._CoreH(tailed.core)
    k = next(k for k, seg in enumerate(tailed.segments) if seg.label == "tail")
    b = tailed.block(k)

    def psi(x):
        return 1.0 - float(wm.smoothstep((x - t0) / (s_lam - t0)))

    def hp(x):
        return float(core_h.eval(np.array([x]))[1][0])

    h0 = float(core_h.eval(np.array([t0]))[0][0])
    for i, x in enumerate(b.s.tolist()):
        want = h0 + quad(lambda y: psi(y) * hp(y), t0, x, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert abs(b.h[i] - want) <= 1e-12 * want, (n, s0, x)
        assert abs(b.hp[i] - psi(x) * hp(x)) <= 1e-12 * hp(x), (n, s0, x)


def test_tail_fails_closed_at_degree_cap(monkeypatch):
    # As the blend: the capped profile is built before the tolerance drops.
    w = wm.integrate_core(build())
    capped = wm.cap_sine(w, 0.5, w.params.cap_width)
    monkeypatch.setattr(wm, "_SWEEP_TOL", -1.0)
    with pytest.raises(MarginLost, match=f"h tail: error estimate .* at degree {wm._DEGREE_MAX}$"):
        wm.flatten_h_tail(capped)


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
    assert min(report.min1, report.min2, report.min3) > 0
    assert report.tail_min >= wm.TAIL_FLOOR


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
    assert finished.first_integral_residual() < wm._FIRST_INTEGRAL_TOL


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
    report = wm.inequality_margins(wm.smooth_origin(tailed, 1e-4, eps))
    assert min(report.min1, report.min2, report.min3) > 0


def test_origin_margins_and_seams(finished):
    report = wm.inequality_margins(finished)
    assert min(report.min1, report.min2, report.min3) > 0
    assert report.tail_min >= wm.TAIL_FLOOR
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
    # The bridge's h' must be the derivative of its h, and its h'' (a h + b
    # at the nodes) that of its h'.  A sign slip in an integration matrix
    # or in the half-width keeps every seam closed (the splice sine is
    # re-solved through the bridge's end data) but shows here.  The
    # fourth-order centred difference of the model on 129 samples, as a
    # share of the largest slope, reads at most 1.2e-7: its rounding at
    # r = 1, where the window is narrowest, and its truncation, 6.2e-8,
    # elsewhere.
    tailed, eps = neck_41
    for r in (1.0, 0.5, 0.013, 2.0**-10, 2.0**-19):
        w = wm.smooth_origin(tailed, r, eps)
        kink = w.segments[1]
        assert kink.s0 == w.origin.splice_point
        step = (kink.s1 - kink.s0) / 128
        h, hp, hpp = kink.hmod.eval(kink.s0 + step * np.arange(129))
        for v, slope in ((h, hp), (hp, hpp)):
            centred = (8.0 * (v[3:-1] - v[1:-3]) - (v[4:] - v[:-4])) / (12.0 * step)
            err = np.max(np.abs(centred - slope[2:-2]))
            assert err <= 5e-7 * np.max(np.abs(slope)), (r, err)


def _bridge_oracle(core_h, r, radius_hat, x0, x1, tau):
    # The bridge equation in the window parameter tau = (s - x0)/(x1 - x0),
    # integrated by DOP853 from the core's data at x1 to each tau; returns
    # h, h' and h''.  tau is the bridge's own variable: s - x0 at a sample
    # near s = 1e-3 carries an ulp of s, 1e-10 of the window at r = 2^-19.
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
    width = x1 - x0
    inv_r2 = 1.0 / (radius_hat * radius_hat)

    def hpp(tau, h):
        sig = wm.smoothstep(np.asarray(tau))
        return -(1.0 - sig) * h * inv_r2 + sig * r * core_h.eval(x0 + width * np.asarray(tau))[2]

    def rhs(tau, y):
        return [y[1], width * width * float(hpp(tau, y[0]))]

    h1, hp1, _ = core_h.eval(np.array([x1]))
    y1 = [r * float(h1[0]), width * r * float(hp1[0])]
    sol = solve_ivp(rhs, (1.0, 0.0), y1, method="DOP853", rtol=1e-13, atol=0.0, t_eval=tau[::-1])
    h, dh = sol.y[0][::-1], sol.y[1][::-1]
    return h, dh / width, hpp(tau, h)


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0), (6, 0.3), (12, 0.3)])
def test_kink_bridge_matches_dop853_oracle(n, s0):
    # (h, h') at the splice point and h, h', h'' at the bridge's block
    # samples against scipy's DOP853 on the same equation, on the three
    # scale-search necks and n = 12, down to the search's last fibre scale.
    # Measured: at most 4.3e-15 at x0 and 1.2e-13 of a column's largest
    # value on the samples.
    neck = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    tailed, eps = neck
    for r in (1.0, 0.7, 0.5, 2.0**-10, 2.0**-19):
        w = wm.smooth_origin(tailed, r, eps)
        core_h, _, radius_hat, x0, x1 = _kink_args(neck, r)
        b = w.block(1)
        assert (b.s[0], b.s[-1]) == (x0, x1)
        want = _bridge_oracle(core_h, r, radius_hat, x0, x1, (b.s - x0) / (x1 - x0))
        for got, ref in zip((b.h, b.hp, b.hpp), want):
            assert abs(got[0] - ref[0]) <= 1e-11 * abs(ref[0]), (r, got[0], ref[0])
            assert np.max(np.abs(got - ref)) <= 1e-11 * np.max(np.abs(ref)), r


def test_kink_bridge_sized_by_its_error(neck_41):
    # The first degree meets the tolerance at every scale, 2^-19 (the
    # search's last probe) included, and the estimate is a Python float.
    # The (3, 0.25) negative's search reaches that floor and still ends
    # in Exhausted, not in a lost bridge.
    tailed, eps = neck_41
    for r in (1.0, 0.5, 0.013, 1e-4, 2.0**-19):
        o = wm.smooth_origin(tailed, r, eps).origin
        assert type(o.bridge_error) is float and 0.0 <= o.bridge_error <= wm._SWEEP_TOL, r
        assert o.bridge_degree == wm._BRIDGE_DEGREE, r
        flattening = tailed._outer_memo[1].segments[0].fmod  # built once for every r
        assert (o.ramp_degree, o.ramp_error) == (flattening.degree, flattening.error), r
    with pytest.raises(StageError) as info:
        rc.certify(3, 0.25, ric_min_base=2.0)
    assert info.value.stage == "search_r" and isinstance(info.value.cause, Exhausted)


def test_kink_bridge_fails_closed_at_degree_cap(monkeypatch):
    # No estimate meets a negative tolerance (a spectral estimate can read
    # exactly 0), so a window gives up at the cap.  The core and the cap
    # blend share the tolerance, so the necks are built before it drops,
    # and certify gets each neck.  The f-flattening is built before the
    # bridge, once per neck and eps: on a neck whose outer part is cached
    # the bridge fails, and on a fresh neck the flattening's ramps do.
    # The cache is warmed at r = 0.5: the r = 1 probe is kept whole, so
    # certify on a neck warmed at r = 1 would build no bridge.
    params = wm.WarpParams(n=4, lam=math.cos(1.0))
    cached, fresh = wm.build_neck(params), wm.build_neck(params)
    wm.smooth_origin(cached[0], 0.5, cached[1])
    monkeypatch.setattr(wm, "_SWEEP_TOL", -1.0)
    for neck, what, stages in (
        (cached, "origin bridge", ("smooth_origin", "search_r")),
        (fresh, "f-flattening ramp", ("smooth_origin",)),
    ):
        monkeypatch.setattr(wm, "build_neck", lambda params, neck=neck: neck)
        tailed, eps = neck
        with pytest.raises(MarginLost, match=f"{what}.* at degree {wm._DEGREE_MAX}$"):
            wm.smooth_origin(tailed, 0.5, eps)
        with pytest.raises(StageError) as info:
            rc.certify(4, 1.0, ric_min_base=2.0)
        assert info.value.stage in stages, what
        assert isinstance(info.value.cause, MarginLost)
        assert what in str(info.value.cause)


def _kink_args(neck, r):
    # _smooth_kink's arguments as smooth_origin forms them.
    tailed, eps = neck
    o = wm.smooth_origin(tailed, r, eps).origin
    core_h = wm._CoreH(tailed.core)
    h_sp, hp_sp, _ = core_h.from_core(*tailed.core.at(o.splice_point)[:2])
    radius_hat, _ = wm._solve_splice(float(h_sp), float(hp_sp), r)
    return core_h, r, radius_hat, o.splice_point, o.splice_point + 2.0 * o.kink_halfwidth


def test_linspace_matches_numpy():
    # _linspace is np.linspace's arithmetic; seeded spans of every sign
    # and size, the counts the profile uses, the halving nesting of odd
    # grids, and spans too small for a nonzero step.
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(300):
        start = rng.normal() * 10.0 ** rng.integers(-6, 3)
        span = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-15, 2)
        num = int(rng.choice([2, 3, 33, 129, 257, 513, 4097, 16385, rng.integers(2, 16386)]))
        cases.append((float(start), float(start + span), num))
    for start, stop, num in cases:
        want = np.linspace(start, stop, num)
        assert _same_bits(wm._linspace(start, stop, num), want), (start, stop, num)
        if num % 2:  # halving a normal step is exact, so odd grids nest
            assert _same_bits(want[::2], wm._linspace(start, stop, num // 2 + 1))
    for start, stop, num in ((0.0, 1e-322, 64), (1e-322, 0.0, 9), (1.0, 1.0, 33), (-2.5, -2.5, 2)):
        want = np.linspace(start, stop, num)
        assert _same_bits(wm._linspace(start, stop, num), want), (start, stop, num)
    # The zero-step fallback matters: arange times a zero step is not it.
    assert not _same_bits(np.linspace(0.0, 1e-322, 64)[:-1], np.zeros(63))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def test_core_at_matches_eval(neck_41):
    # The float lookup gives the array path's bits, on the table and
    # outside it, where s clamps.
    core = neck_41[0].core
    rng = np.random.default_rng(11)
    s = np.concatenate((rng.uniform(0.0, core.s_end, 200), core._s[:5], [-1.0, core.s_end + 1.0]))
    for x in s:
        assert core.at(float(x)) == tuple(float(c[0]) for c in core.eval(np.array([x])))


@pytest.mark.parametrize("n, s0", [(3, 0.3), (4, 1.0), (12, 0.3)])
def test_flatten_f_matches_closed_forms(n, s0):
    # The f-flattening against the same closed forms built independently,
    # with scipy's quad for every integral of omega f''_c: P from the
    # slope balance, the plateau's f = P f_c + A s + B, and on each ramp
    # f' and f integrated from its outer end.
    quad = pytest.importorskip("scipy.integrate").quad
    neck, eps = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
    core = neck.core
    a0, ramp = 0.002 * eps, 0.008 * eps
    a1, b0 = a0 + ramp, eps - ramp
    model = wm._FlattenedF(core, a0, eps, ramp)
    flat_value, plateau = model.flat_value, model.plateau
    # Both ramps are windows of the first degree, with a float estimate.
    assert model.degree == wm._RAMP_DEGREE and type(model.error) is float
    assert 0.0 < model.error <= wm._SWEEP_TOL

    def fc(x):
        return [float(c[0]) for c in core.eval(np.array([x]))]

    def integral(g, lo, hi, moment=None):
        def integrand(x):
            return g(x) * fc(x)[2] * (1.0 if moment is None else x - moment)

        return quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    def up(x):
        return float(wm.smoothstep((x - a0) / ramp))

    def down(x):
        return float(wm.smoothstep((x - b0) / ramp))

    f_end, fp_end, _ = fc(eps)
    j_r2 = integral(down, b0, eps)
    want_p = (fp_end - j_r2) / (
        integral(up, a0, a1) + fc(b0)[1] - fc(a1)[1] + integral(lambda x: 1.0 - down(x), b0, eps)
    )
    assert abs(plateau - want_p) <= 1e-13 * want_p

    def omega(x):
        return up(x) * (want_p - (want_p - 1.0) * down(x))

    def right(s):  # integrated from (f_c, f'_c) at eps
        return (
            f_end - (eps - s) * fp_end + integral(omega, s, eps, moment=s),
            fp_end - integral(omega, s, eps),
        )

    f_b0, fp_b0 = right(b0)
    big_a = fp_b0 - want_p * fc(b0)[1]
    big_b = f_b0 - want_p * fc(b0)[0] - big_a * b0
    want_flat = want_p * fc(a1)[0] + big_a * a1 + big_b + integral(omega, a0, a1, moment=a1)
    assert abs(flat_value - want_flat) <= 1e-13 * want_flat

    def left(s):  # integrated from (flat value, 0) at flat_end
        return want_flat - integral(omega, a0, s, moment=s), integral(omega, a0, s)

    def plateau_f(s):
        f, fp, _ = fc(s)
        return want_p * f + big_a * s + big_b, want_p * fp + big_a

    s = np.concatenate((
        np.linspace(a0, a1, 9), np.linspace(a1, b0, 9)[1:-1], np.linspace(b0, eps, 9)
    ))
    got = model.eval(s)
    for k, x in enumerate(s.tolist()):
        want = left(x) if x < a1 else right(x) if x > b0 else plateau_f(x)
        assert abs(got[0][k] - want[0]) <= 1e-13 * want[0], (n, s0, x)
        assert abs(got[1][k] - want[1]) <= 1e-13, (n, s0, x)
        assert abs(got[2][k] - omega(x) * fc(x)[2]) <= 1e-15 * fc(x)[2], (n, s0, x)


def test_dense_models_self_consistent():
    # On the cap blend's and the tail's windows, the model's y' and y'' are
    # the derivatives of its y and y': the fourth-order centred difference
    # of the model on 129 samples over the window, against the model's
    # slope, as a share of the largest slope.  A sign slip in an integration
    # matrix, or rows stored in the wrong order, shows here.  Measured
    # shares: cap blend 4.3-8.8e-11 (f') and 5.4-6.8e-8 (f''), tail 4.3-4.9e-8,
    # the difference's own error.
    #
    # The f-flattening is exact on its plateau and a window of f and f' on
    # each ramp.  Sampled at ramp/256 over each ramp and as far into
    # the plateau, its f' and f'' against the same differences of its f
    # and f', as a share of its largest f'', read 8.4e-12 to 1.0e-9 (f')
    # and 1.0e-10 to 9.8e-8 (f''; the difference's own error where omega
    # is only C^2, at the ramps' ends).  Its f' is 0 at flat_end, and its
    # (f, f') at eps are the core's.
    def share(v, slope, step, scale):
        centred = (8.0 * (v[3:-1] - v[1:-3]) - (v[4:] - v[:-4])) / (12.0 * step)
        return np.max(np.abs(centred - slope[2:-2])) / scale

    for n, s0 in ((3, 0.3), (4, 1.0), (12, 0.3)):
        neck, eps = wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0)))
        windows = {seg.label: getattr(seg, model) for seg in neck.segments
                   for model in ("fmod", "hmod") if isinstance(getattr(seg, model), wm._Window)}
        assert sorted(windows) == ["cap", "tail"]
        for name, model in windows.items():
            step = model.width / 128
            y, yp, ypp = model.eval(model.x0 + step * np.arange(129))
            for v, slope in ((y, yp), (yp, ypp)):
                assert share(v, slope, step, np.max(np.abs(slope))) <= 5e-7, (n, s0, name)

        flat = wm.smooth_origin(neck, 0.5, eps).segments[3]  # the first outer segment
        assert flat.label == "flat" and isinstance(flat.fmod, wm._FlattenedF)
        model, ramp = flat.fmod, 0.008 * eps
        step = ramp / 256
        top = float(np.max(np.abs(model.eval(np.linspace(flat.s0, eps, 2001))[2])))
        for lo in (flat.s0, eps - 2.0 * ramp):
            f, fp, fpp = model.eval(lo + step * np.arange(513))
            assert share(f, fp, step, top) <= 5e-9, (n, s0, lo)
            assert share(fp, fpp, step, top) <= 2e-7, (n, s0, lo)
        assert model.eval(np.array([flat.s0]))[1][0] == 0.0
        assert [float(c[0]) for c in model.eval(np.array([eps]))[:2]] == list(neck.core.at(eps)[:2])


def test_derive_replaces_fields_and_keeps_blocks_by_segment(neck):
    # derive builds the profile itself, so it must set every constructor
    # field: a changed one to its new value, every other one to the
    # parent's object.  The probe holds no field at its default, so a
    # field derive drops shows.  Blocks are keyed by the segment object:
    # a kept segment keeps its block, a segment equal field by field but
    # built anew does not.
    base = wm.smooth_origin(neck[0], 0.5, neck[1])
    base.blocks()
    first = base.segments[0]
    twin = wm.Segment(first.label, first.s0, first.s1, first.fmod, first.hmod, first.h_scale)
    assert twin != first and hash(twin) != hash(first)
    fields = inspect.signature(wm.WarpProfile).parameters
    assert list(fields) == [
        "params", "core", "segments", "s_left", "s_lambda", "r", "cap", "tail", "origin"]
    assert all(getattr(base, name) != p.default for name, p in fields.items())
    for changes in ({}, {"s_left": 0.5, "r": 0.25}, {"segments": (twin,) + base.segments[1:]}):
        out = base.derive(**changes)
        assert out is not base and out._memo is not base._memo, changes
        for name in fields:
            assert getattr(out, name) is changes.get(name, getattr(base, name)), name
    assert twin not in out._memo
    assert all(out._memo[seg] is base._memo[seg] for seg in base.segments[1:])


def test_certify_samples_each_block_once(monkeypatch):
    # A stage keeps the blocks of the segments it leaves alone, so one
    # certify samples no (segment, grid) pair twice.
    # Segments compare by identity, so two samplings count as the same
    # when their segments agree field by field.
    sampled = []
    real = wm._sample_block

    def recording(n, seg, s):
        key = (seg.label, seg.s0, seg.s1, seg.fmod, seg.hmod, seg.h_scale)
        sampled.append((key, s))
        return real(n, seg, s)

    monkeypatch.setattr(wm, "_sample_block", recording)
    rc.certify(4, 1.0, ric_min_base=2.0)
    for i, (key, s) in enumerate(sampled):
        for other, t in sampled[:i]:
            assert not (key == other and np.array_equal(s, t)), key[:3]


def test_each_stage_gates_the_segments_it_built(monkeypatch):
    # The gate reads the cached minima of exactly the segments a stage
    # built; the f-flattening and the clipped core are gated once per
    # (neck, eps), not once per probe.
    gated = []
    real = wm._gate

    def recording(w, ks, stage):
        ks = tuple(ks)
        gated.append((stage, tuple(w.segments[k].label for k in ks)))
        return real(w, ks, stage)

    monkeypatch.setattr(wm, "_gate", recording)
    tailed, eps = wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))
    for r in (1.0, 0.5, 0.25):
        wm.smooth_origin(tailed, r, eps)
    # cap_sine gates its blend; the arc is gated by flatten_h_tail, which
    # keeps it only up to the tail start.
    assert gated == [
        ("cap_sine", ("cap",)),
        ("flatten_h_tail", ("cap", "tail")),
        ("smooth_origin", ("flat", "core")),
        *[("smooth_origin", ("splice", "flat", "flat"))] * 3,
    ]


def test_gate_reads_every_minimum_against_its_floor():
    def profile(label, mins):
        seg = wm.Segment(label, 0.0, 1.0, None, None)
        return SimpleNamespace(block=lambda k: SimpleNamespace(seg=seg, mins=mins))

    for i in range(3):
        for label, lost in (("cap", 0.0), ("tail", 2.0 * wm.TAIL_FLOOR)):
            mins = [1.0, 1.0, 1.0]
            mins[i] = lost
            with pytest.raises(MarginLost, match=f"lost on segment {label}"):
                wm._gate(profile(label, tuple(mins)), (0,), "stage")
    wm._gate(profile("tail", (1.0, 0.5 * wm.TAIL_FLOOR, 1.0)), (0,), "stage")


def test_gate_names_the_segment_that_lost_its_margin():
    # On (3, 0.2) the f-flattening's plateau is too high for its margins,
    # at every r, so the once-per-eps gate raises on the first probe.
    tailed, eps = wm.build_neck(wm.WarpParams(n=3, lam=math.cos(0.2)))
    lost = r"smooth_origin: inequality margin -1.346e-03 lost on segment flat \[0.002, 1\]"
    for r in (1.0, 0.5):
        with pytest.raises(MarginLost, match=lost):
            wm.smooth_origin(tailed, r, eps)


# -- what smooth_origin keeps on the neck ------------------------------------------

def _assert_same_probe(got, want):
    assert got.origin == want.origin
    assert wm.inequality_margins(got) == wm.inequality_margins(want)
    assert len(got.blocks()) == len(want.blocks())
    for g, w in zip(got.blocks(), want.blocks()):
        assert g.seg.label == w.seg.label
        # Every field but the CSV text, which fills on a block's first export.
        assert all(np.array_equal(a, b) for a, b in zip(g[1:-1], w[1:-1]))


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


def test_origin_keeps_the_unit_probe_per_eps():
    # The r = 1 probe is built once per (neck, eps): a repeat call returns
    # the same object, and a call with another eps replaces it.  It holds
    # the neck's outer segments and blocks themselves, not x1 copies.
    params = wm.WarpParams(n=4, lam=math.cos(1.0))
    tailed, eps = wm.build_neck(params)
    unit = wm.smooth_origin(tailed, 1.0, eps)
    wm.smooth_origin(tailed, 0.5, eps)
    assert wm.smooth_origin(tailed, 1.0, eps) is unit
    outer = tailed._outer_memo[1]
    assert len(unit.segments) == 3 + len(outer.segments)
    assert all(a is b for a, b in zip(unit.segments[3:], outer.segments))
    assert all(unit.block(3 + k) is b for k, b in enumerate(outer.blocks()))
    fresh, _ = wm.build_neck(params)
    _assert_same_probe(unit, wm.smooth_origin(fresh, 1.0, eps))
    other = wm.smooth_origin(tailed, 1.0, 0.5 * eps)
    assert other is not unit and other.origin.rejoin == 0.5 * eps
    assert wm.smooth_origin(tailed, 1.0, 0.5 * eps) is other
    again = wm.smooth_origin(tailed, 1.0, eps)
    assert again is not unit
    _assert_same_probe(again, unit)


@pytest.mark.parametrize("degree", [8, 16, 32, 64, 128])
def test_node_weights_are_smoothstep_at_the_nodes(degree):
    # Cached in _chebyshev(degree)'s table, read-only, and bit for bit
    # what each window computed at its nodes before: tau = (1 - t)/2,
    # smoothstep(tau) and smoothstep((1 + t)/2), the last one the second
    # reversed (the nodes are exactly symmetric).
    table = wm._chebyshev(degree)
    assert wm._chebyshev(degree) is table
    t, weights = table[0], table[4:]
    want = (0.5 * (1.0 - t), wm.smoothstep(0.5 * (1.0 - t)), wm.smoothstep(0.5 * (1.0 + t)))
    for got, ref in zip(weights, want):
        assert got.tobytes() == ref.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 0.5
    assert weights[2].tobytes() == weights[1][::-1].tobytes()


def test_origin_cache_dies_with_neck():
    tailed, eps = wm.build_neck(wm.WarpParams(n=4, lam=math.cos(1.0)))
    probe = wm.smooth_origin(tailed, 0.5, eps)
    wm.export_profile(probe, io.StringIO())
    # The outer part's row text, kept on its blocks and their scaled copies.
    text = probe.block(3).text
    assert text and text is tailed._outer_memo[1].block(0).text
    neck_ref = weakref.ref(tailed)
    outer_ref = weakref.ref(tailed._outer_memo[1])
    unit_ref = weakref.ref(wm.smooth_origin(tailed, 1.0, eps))  # kept on the neck
    assert unit_ref() is tailed._outer_memo[2]
    flat_ref = weakref.ref(probe.segments[3].fmod)  # the outer part's flattening
    del tailed
    gc.collect()
    assert neck_ref() is None  # a probe does not keep its neck alive
    assert outer_ref() is None  # nor the neck's outer part
    assert unit_ref() is None  # nor the neck's r = 1 probe
    assert flat_ref() is not None
    del probe
    gc.collect()
    assert flat_ref() is None
    lone = []
    assert sys.getrefcount(text) == sys.getrefcount(lone)  # held by this test alone


def _export_matches_cells(w):
    """Whether ``export_profile`` writes every cell of ``blocks()`` as
    ``%.17g`` formats it on its own; on a mismatch, the first bad line."""
    buf = io.StringIO()
    wm.export_profile(w, buf)
    lines = [wm.CSV_HEADER]
    for b in w.blocks():
        for i in range(len(b.s)):
            cells = ["%.17g" % float(column[i]) for column in b[1:8]]
            lines.append(",".join(cells + [b.seg.label]))
    got = buf.getvalue().split("\n")
    if got == lines + [""]:
        return True
    return next((g for g, want in zip(got, lines + [""]) if g != want), "line count")


def test_export_text_shared_across_probes():
    # Exports of probes at r = 1, a repeated r and an r that is no power
    # of two, on two necks interleaved, with one origin budget and then
    # another: each CSV is the cell-by-cell reference, whichever probe
    # formatted the outer blocks' kept text first.  Probes of the first
    # budget, whose outer part the second one replaced, export their own
    # text after that.
    necks = [wm.build_neck(wm.WarpParams(n=n, lam=math.cos(s0))) for n, s0 in ((3, 0.3), (4, 1.0))]
    rs = (1.0, 0.5, 0.1416015625, 0.5)
    kept = []
    for scale in (1.0, 0.5):
        for r in rs:
            for tailed, eps in necks:
                probe = wm.smooth_origin(tailed, r, scale * eps)
                assert _export_matches_cells(probe) is True, (scale, r)
                outer = tailed._outer_memo[1]
                for k, b in enumerate(probe.blocks()[3:]):
                    assert b.text is outer.block(k).text and b.text
                kept.append(probe)
    for probe in kept[: len(rs) * len(necks)]:
        assert _export_matches_cells(probe) is True


def test_fibre_scale_applied_alike_on_shared_and_own_blocks(neck_41):
    # A probe's outer blocks are the neck's, scaled once per r; sampling
    # the probe's own segment (which carries h_scale = r) and evaluating
    # the profile pointwise must give the same bits.
    tailed, eps = neck_41
    for r in (1.0, 0.5, 0.013):
        w = wm.smooth_origin(tailed, r, eps)
        own = 3  # the collar; w.segments[3:] are the neck's outer part
        for k, seg in enumerate(w.segments):
            got = w.block(k)
            if k >= own:
                assert seg.h_scale == r
                fresh = wm._sample_block(w.params.n, seg, got.s)
                assert fresh.seg is seg
                for a, b in zip(got[1:-1], fresh[1:-1]):  # not the CSV text
                    assert np.array_equal(a, b), (r, k)
            for i in range(1, len(got.s) - 1, 5):
                want = tuple(float(c[i]) for c in got[2:8])
                assert w.evaluate(float(got.s[i])) == want, (r, k, i)


class _OneSample:
    """A curve model with constant columns, but ``column`` is ``value`` at
    the middle of five samples."""

    def __init__(self, columns, column, value):
        self.columns, self.column, self.value = columns, column, value

    def eval(self, s):
        out = tuple(np.full_like(s, c) for c in self.columns)
        out[self.column][len(s) // 2] = self.value
        return out


NON_FINITE = (math.nan, math.inf, -math.inf)
NON_FINITE_MESSAGE = r"^non-finite inequality margin on segment flat \[0, 1\]$"


def test_non_finite_margin_fails_closed():
    # min() would skip a NaN and an inf margin certifies nothing, so the
    # block must refuse any non-finite sample, with one message.
    s = np.linspace(0.0, 1.0, 5)
    # h = 0 at a sample makes h''/h infinite.  A degree-2 window has its
    # middle node at s = 0.5, a sample.
    h = wm._Window(0.0, 1.0, 2, tuple(np.array(row) for row in ([1.0, 0.0, 1.0], [0.0] * 3, [1.0] * 3)))
    cases = [wm.Segment("flat", 0.0, 1.0, wm._FlatF(1.0), h)]
    # With f = 1, f' = 1/2, f'' = -1 and h = h' = 1, h'' = -1 at n = 4 the
    # margins are (4, 2, -1/2).  f'' = x turns m1 and m2 into 1 - 3x and 1
    # - x, and h'' = x turns m1 and m3 into 3 - x and -3/2 - x: so NaN,
    # +inf and -inf each reach m1, m2 and m3.
    for bad in NON_FINITE:
        cases.append(wm.Segment("flat", 0.0, 1.0, _OneSample((1.0, 0.5, -1.0), 2, bad),
                                _OneSample((1.0, 1.0, -1.0), 0, 1.0)))
        cases.append(wm.Segment("flat", 0.0, 1.0, _OneSample((1.0, 0.5, -1.0), 0, 1.0),
                                _OneSample((1.0, 1.0, -1.0), 2, bad)))
    for seg in cases:
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(MarginLost, match=NON_FINITE_MESSAGE):
                wm._sample_block(4, seg, s)
    finite = wm._sample_block(4, wm.Segment("flat", 0.0, 1.0, _OneSample((1.0, 0.5, -1.0), 0, 1.0),
                                            _OneSample((1.0, 1.0, -1.0), 0, 1.0)), s)
    assert finite.mins == (4.0, 2.0, -0.5)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_finite_minima_refuses_each_non_finite_value_in_each_margin(k):
    # The check reads each margin's min() and max(): one NaN, +inf or
    # -inf sample anywhere in any margin is refused.
    seg = wm.Segment("flat", 0.0, 1.0, None, None)
    for bad in NON_FINITE:
        for i in (0, 2, 4):
            margins = [np.linspace(1.0, 2.0, 5) for _ in range(3)]
            margins[k][i] = bad
            with pytest.raises(MarginLost, match=NON_FINITE_MESSAGE):
                wm._finite_minima(seg, margins)
    assert wm._finite_minima(seg, [np.linspace(1.0, 2.0, 5)] * 3) == (1.0, 1.0, 1.0)


def test_every_block_column_is_read_only(neck_41):
    # Blocks are shared between profiles: on the neck, on its r = 1 probe
    # (the neck's outer blocks unscaled) and on a probe at r < 1 (their
    # copies with h scaled by r), no column may be written.
    tailed, eps = neck_41
    for w in (tailed, wm.smooth_origin(tailed, 1.0, eps), wm.smooth_origin(tailed, 0.5, eps)):
        for b in w.blocks():
            for name in b._fields[1:11]:
                assert not getattr(b, name).flags.writeable, (w.r, b.seg.label, name)


def test_unit_scale_passes_columns_through():
    seg = wm.Segment("core", 0.0, 1.0, None, None)
    columns = tuple(np.full(3, float(k)) for k in range(6))
    assert all(a is b for a, b in zip(seg.scaled(*columns), columns))
    half = wm.Segment("core", 0.0, 1.0, None, None, 0.5).scaled(*columns)
    assert all(a is b for a, b in zip(half[:3], columns[:3]))
    assert all(np.array_equal(a, 0.5 * b) for a, b in zip(half[3:], columns[3:]))


SEAM_NECKS = [(n, s0) for n in (3, 4, 5, 6) for s0 in (0.3, 1.0)] + [(12, 0.3)]


@pytest.mark.parametrize("n, s0", SEAM_NECKS)
def test_seam_is_the_tail_blocks_last_row(n, s0):
    # verify_gluing and certify read f, f', h and h' at s_lambda from the
    # last row of the tail block: its grid ends at s_lambda exactly, and
    # the row has the bits of evaluating the profile there.
    res = rc.certify(n, s0, rc.TRIVIAL_CONNECTION, 2.0)
    neck, _ = wm.build_neck(res.profile.params)
    for w in (neck, res.profile):
        last = w.segments[-1]
        assert last.label == "tail" and last.s1 == w.s_lambda
        assert w.segment_grid(last)[-1] == w.s_lambda
        assert w.block(len(w.segments) - 1).s[-1] == w.s_lambda
        assert _same_bits(w.seam(), w.evaluate(w.s_lambda)), (n, s0, w.r)


def test_seam_of_a_bounded_probe_below_unit_scale():
    c = rc.ConnectionModel("bounded", sup_f=1.0)
    w = rc.certify(4, 1.0, c, 1.0, safety=0.5).profile
    assert w.r < 1.0
    assert w.segment_grid(w.segments[-1])[-1] == w.s_lambda
    assert _same_bits(w.seam(), w.evaluate(w.s_lambda))
    f, fp, _, _, hp, _ = w.evaluate(w.s_lambda)
    assert rc.verify_gluing(w, 1.0) == rc.GluingReport(
        abs(fp - math.cos(1.0)), abs(f / w.cap.big_n - math.sin(1.0)), abs(hp), True
    )


# -- margins ---------------------------------------------------------------------

def test_core_inequality_two_lower_bound(finished):
    """Margin of the second inequality dominates f^-2 ((n-2) - alpha lam0^2)."""
    p = finished.params
    bound_coeff = (p.n - 2) - p.alpha * p.lam0**2
    assert bound_coeff > 0
    for b in finished.blocks():
        if b.seg.label != "core":
            continue
        f = finished.core.eval(b.s)[0]
        bound = bound_coeff / (f * f)
        assert np.all(b.m2 + 1e-12 >= bound)


def test_splice_margin_closed_form(finished):
    o = finished.origin
    for b in finished.blocks():
        if b.seg.label == "splice":
            assert np.allclose(b.m1, 1.0 / o.radius**2, rtol=1e-12)
            assert np.allclose(b.m3, 1.0 / o.radius**2, rtol=1e-12)
            flat = finished.origin.flat_value
            expected = (finished.params.n - 2) / (flat * flat)
            assert np.allclose(b.m2, expected, rtol=1e-12)


def test_margin_sweep_across_parameters():
    """Strict margins on every non-tail segment over the parameter sweep."""
    for n in range(3, 9):
        for lam in (0.2, 0.5, 0.8):
            w, eps = wm.build_neck(wm.WarpParams(n=n, lam=lam))
            w = wm.smooth_origin(w, 0.5, eps)
            report = wm.inequality_margins(w)
            assert min(report.min1, report.min2, report.min3) > 0, (n, lam)
            assert report.tail_min >= wm.TAIL_FLOOR, (n, lam)


# -- export ------------------------------------------------------------------------

def test_export_profile_roundtrip(finished):
    buf = io.StringIO()
    wm.export_profile(finished, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == "s,f,fp,fpp,h,hp,hpp,segment"
    rows = [ln.split(",") for ln in lines[1:]]
    expected_rows = sum(len(b.s) for b in finished.blocks())
    assert len(rows) == expected_rows
    # round-trip: parse back and compare against fresh samples
    parsed = np.array([[float(v) for v in row[:7]] for row in rows])
    k = 0
    for b in finished.blocks():
        block = parsed[k : k + len(b.s)]
        assert np.array_equal(block[:, 0], b.s)
        assert np.array_equal(block[:, 1], b.f)
        assert np.array_equal(block[:, 4], b.h)
        k += len(b.s)
    labels = {row[7] for row in rows}
    assert labels <= {"core", "cap", "tail", "splice", "flat"}
