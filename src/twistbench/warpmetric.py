"""Construction of the doubly warped profile functions.

The profile consists of two warping functions f (the sphere factor) and
h (the circle factor) on an interval [s_left, s_lambda], built in four
stages:

* ``integrate_core`` solves f'' = (alpha lam0^2 / 2) f^(-alpha-1) with
  f(0) = 1, f'(0) = 0 and stops where f' reaches the target slope; h is
  a fixed multiple of f' there, so the conserved first integral
  f'^2 = lam0^2 (1 - f^(-alpha)) doubles as an accuracy monitor.
* ``cap_sine`` replaces the outer end of f by an exact sine arc
  N sin((s - s')/N), blending second derivatives so the three curvature
  inequalities keep their margins.  N is the root of the arc's amplitude
  equation, solved by bracketed (Illinois) regula falsi; the blend start
  is where f' meets a corrected slope target, solved on the one cubic
  Hermite piece of f' that crosses it.
* ``flatten_h_tail`` multiplies h' by a cutoff so every tracked
  derivative of h vanishes at the outer end.
* ``smooth_origin`` rescales h by r, splices an exact sine with unit
  slope at the new left endpoint, and flattens f to a constant there,
  rejoining the core solution exactly so the first integral survives.

``build_neck`` runs the first three stages under their stage labels and
returns the neck with its origin budget eps; ``certify``, the
``profile-export`` command and the tests build profiles through it and
then call ``smooth_origin`` for each fibre scale r they need.  Only the
origin collar left of its flat end depends on r, so ``smooth_origin``
builds the rest once per (neck, eps) and keeps it on the neck: the
f-flattening (with its flat value and plateau) and the neck right of
the flat end at unit fibre scale, whose samples and margins every
profile built from it shares, with h scaled by r.

f and h on each segment are one of four curve models: the core solution
(``_CoreSolution`` for f, ``_CoreH`` = 2 f'/(alpha lam0^2) for h), an
exact ``_Sine`` (the cap arc of f, the splice of h), a sampled
``_Dense`` curve and a constant ``_FlatF``.  The models describe h at
unit fibre scale; r is applied in one place, ``Segment.h_scale``.  The
margins are scale-free and come from the sampled columns, as ratios
h''/h and h'/h, except for two closed forms: h''/h where h is the core
or the splice sine, and f'h'/(f h) on pure-core segments.  h vanishes at
s = 0 and at the splice's left end, where the column ratios are 0/0.

The two nonlinear ODEs (the core equation and the cap blend) are
integrated by the one fixed-step RK4 sweep ``_rk4`` on Python floats,
with blend weights precomputed on its half-step grid.  The origin
bridge of h solves a linear equation, so each of its RK4 steps is an
affine map of (h, h'); ``_rk4`` computes all of them in one vectorised
step and the bridge composes them.  All blending happens in
second-derivative space with quintic smoothstep weights, which keeps
the inequality margins one-signed; margins are re-evaluated after every
stage and a lost margin raises ``MarginLost`` instead of silently
degrading the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError, MarginLost, NoSolution, NoStop, StageError


# ---------------------------------------------------------------------------
# Smoothstep helpers (C^2 at both ends)
# ---------------------------------------------------------------------------

def smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_d(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(u)
    ui = u[inside]
    out[inside] = 30.0 * ui * ui * (1.0 - ui) ** 2
    return out


def _default_cap_width(n, lam, lam0, alpha, f_stop, s_est):
    """Slope-budget-aware default width of the outer cap.

    The sine arc and the curvature blend each consume part of the slope
    gap lam0 - lam; keeping that consumption to a percent of the gap
    keeps the arc scale N within a fraction of f(s_lambda)/sqrt(1-lam^2)
    and keeps the blend inside the region where the core identities
    control the inequality margins.
    """
    big_n0 = f_stop / math.sqrt(1.0 - lam * lam)
    fpp_stop = 0.5 * alpha * lam0**2 * f_stop ** (-alpha - 1.0)
    sine_curv = (1.0 - lam * lam) / f_stop
    sine_zone = 0.005 * (lam0 - lam) * big_n0 / math.sqrt(1.0 - lam * lam)
    blend_zone = 0.01 * (lam0 - lam) / max(sine_curv - fpp_stop, 0.1 * sine_curv)
    return 2.0 * min(sine_zone, blend_zone, 0.25, 0.15 * s_est)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpParams:
    """Construction parameters; None fields are resolved to defaults.

    lam is the target outer slope of f (the cosine of the gluing
    radius), lam0 the asymptotic slope of the core solution, alpha the
    core exponent.  The open-interval conditions lam in (0,1),
    lam0 in (lam, 1) and alpha in (n-2, (n-2)/lam0^2) are enforced
    strictly.
    """

    n: int
    lam: float
    lam0: float | None = None
    alpha: float | None = None
    cap_width: float | None = None
    tail_width: float | None = None
    origin_eps: float | None = None
    step: float | None = None
    s_budget: float | None = None
    tol_ode: float = 1e-9

    def resolve(self) -> "WarpParams":
        if self.n < 3:
            raise InputError("need dimension n >= 3")
        if not 0.0 < self.lam < 1.0:
            raise InputError("lam must lie strictly in (0, 1)")
        lam0 = self.lam0 if self.lam0 is not None else 0.5 * (self.lam + 1.0)
        if not self.lam < lam0 < 1.0:
            raise InputError("lam0 must lie strictly in (lam, 1)")
        hi = (self.n - 2) / lam0**2
        alpha = self.alpha if self.alpha is not None else 0.5 * ((self.n - 2) + hi)
        if not self.n - 2 < alpha < hi:
            raise InputError("alpha must lie strictly in (n-2, (n-2)/lam0^2)")
        # Closed-form stop estimate from the first integral.
        f_stop = (1.0 - self.lam**2 / lam0**2) ** (-1.0 / alpha)
        s_est = (f_stop - 1.0) / lam0 + 2.0 / (lam0 * math.sqrt(alpha)) + 0.5
        step = self.step if self.step is not None else min(0.01, s_est / 800.0)
        budget = self.s_budget if self.s_budget is not None else 4.0 * s_est + 10.0
        cap = self.cap_width if self.cap_width is not None else _default_cap_width(
            self.n, self.lam, lam0, alpha, f_stop, s_est
        )
        eps = self.origin_eps if self.origin_eps is not None else min(1.0, 0.3 * s_est)
        return replace(
            self,
            lam0=lam0,
            alpha=alpha,
            cap_width=cap,
            origin_eps=eps,
            step=step,
            s_budget=budget,
        )


# ---------------------------------------------------------------------------
# Dense curves (uniform grid + cubic Hermite evaluation)
# ---------------------------------------------------------------------------

class _DenseCurve:
    """Cubic Hermite interpolant on a uniform grid of (value, slope) nodes."""

    def __init__(self, s0: float, step: float, values, slopes):
        self.s0 = float(s0)
        self.step = float(step)
        self.values = np.asarray(values, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        x = np.clip((s - self.s0) / self.step, 0.0, len(self.values) - 1.0)
        k = np.clip(np.floor(x).astype(int), 0, len(self.values) - 2)
        t = x - k
        # snap to nodes so junction evaluations are exact
        t = np.where(np.abs(t) < 1e-9, 0.0, np.where(np.abs(t - 1.0) < 1e-9, 1.0, t))
        y0, y1 = self.values[k], self.values[k + 1]
        d0, d1 = self.slopes[k] * self.step, self.slopes[k + 1] * self.step
        t2, t3 = t * t, t * t * t
        return (
            (1 - 3 * t2 + 2 * t3) * y0
            + (t - 2 * t2 + t3) * d0
            + (3 * t2 - 2 * t3) * y1
            + (t3 - t2) * d1
        )


def _cumulative_trapezoid(y, step):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * step * (y[1:] + y[:-1]), out=out[1:])
    return out


def _trapz(y, step):
    return float(np.sum(0.5 * step * (y[1:] + y[:-1])))


# ---------------------------------------------------------------------------
# RK4 sweep and the core ODE solution
# ---------------------------------------------------------------------------

def _rk4(acc, y, yp, h, steps):
    """Classical RK4 sweep for y'' = acc(i, y) over ``steps`` steps of h.

    ``i`` indexes the half-step grid of the sweep: 2k is node k and
    2k + 1 its midpoint, so callers pass right-hand sides that look up
    precomputed weights by index.  A negative h sweeps backward (callers
    then index their weights from the far end).  Runs on Python floats
    and returns the node values and slopes as lists, starting with
    (y, yp).
    """
    half = 0.5 * h
    sixth = h / 6.0
    ys, yps = [y], [yp]
    for k in range(steps):
        i = 2 * k
        k1v, k1a = yp, acc(i, y)
        k2v, k2a = yp + half * k1a, acc(i + 1, y + half * k1v)
        k3v, k3a = yp + half * k2a, acc(i + 1, y + half * k2v)
        k4v, k4a = yp + h * k3a, acc(i + 2, y + h * k3v)
        y = y + sixth * (k1v + 2 * k2v + 2 * k3v + k4v)
        yp = yp + sixth * (k1a + 2 * k2a + 2 * k3a + k4a)
        ys.append(y)
        yps.append(yp)
    return ys, yps


class _CoreSolution:
    """Fixed-step RK4 solution of the core equation, extendable on demand
    up to ``budget``."""

    def __init__(self, lam0: float, alpha: float, step: float, budget: float):
        self.lam0 = lam0
        self.alpha = alpha
        self.step = step
        self.budget = budget
        self.c2 = 0.5 * alpha * lam0 * lam0
        self._f = [1.0]
        self._fp = [0.0]
        self._arrays = None

    def fpp_of(self, f):
        return self.c2 * np.power(f, -self.alpha - 1.0)

    @property
    def s_end(self) -> float:
        return self.step * (len(self._f) - 1)

    def extend(self, s_target: float):
        last = len(self._f) - 1
        steps = 0
        while self.step * (last + steps) < s_target:
            steps += 1
        if steps == 0:
            return
        c2, expo = self.c2, -self.alpha - 1.0
        fs, fps = _rk4(
            lambda i, f: c2 * f ** expo, self._f[-1], self._fp[-1], self.step, steps
        )
        self._f += fs[1:]
        self._fp += fps[1:]
        self._arrays = None

    def _curves(self):
        if self._arrays is None:
            f = np.array(self._f)
            fp = np.array(self._fp)
            fcurve = _DenseCurve(0.0, self.step, f, fp)
            fpcurve = _DenseCurve(0.0, self.step, fp, self.fpp_of(f))
            self._arrays = (f, fp, fcurve, fpcurve)
        return self._arrays

    def eval(self, s):
        """(f, f', f'') at the given locations."""
        _, _, fcurve, fpcurve = self._curves()
        f = fcurve(s)
        fp = fpcurve(s)
        return f, fp, self.fpp_of(f)

    def first_integral_residual(self, s_hi: float) -> float:
        f, fp, _, _ = self._curves()
        k = int(math.floor(s_hi / self.step)) + 1
        f, fp = f[:k], fp[:k]
        res = fp * fp - self.lam0**2 * (1.0 - np.power(f, -self.alpha))
        return float(np.max(np.abs(res))) if len(res) else 0.0

    def find_slope(self, target: float) -> float:
        """Location where f' crosses ``target`` (f' is increasing).

        The solution is first extended in 200-step chunks until f'
        reaches the target; NoStop if it does not by the budget.  The
        crossing lies on one cubic Hermite piece of the f' curve, so it
        is the root of a scalar cubic in the piece parameter t, found by
        Newton steps kept inside the sign-change bracket [0, 1].
        """
        while self._fp[-1] < target:
            if self.s_end >= self.budget:
                raise NoStop(
                    f"f' stayed below {target} up to s = {self.budget}; "
                    "check lam against lam0"
                )
            self.extend(min(self.s_end + 200 * self.step, self.budget))
        _, fp, _, fpcurve = self._curves()
        idx = int(np.searchsorted(fp, target))
        if idx <= 0:
            return 0.0
        k = idx - 1
        y0, y1 = float(fp[k]), float(fp[idx])
        d0 = float(fpcurve.slopes[k]) * self.step
        d1 = float(fpcurve.slopes[idx]) * self.step
        # Power form of the Hermite piece minus the target.
        c0 = y0 - target
        c2 = 3.0 * (y1 - y0) - 2.0 * d0 - d1
        c3 = 2.0 * (y0 - y1) + d0 + d1
        lo, hi = 0.0, 1.0
        t = -c0 / (y1 - y0)
        for _ in range(60):
            g = c0 + t * (d0 + t * (c2 + t * c3))
            if g < 0.0:
                lo = t
            else:
                hi = t
            slope = d0 + t * (2.0 * c2 + 3.0 * t * c3)
            t_new = t - g / slope if slope > 0.0 else 0.5 * (lo + hi)
            if not lo <= t_new <= hi:
                t_new = 0.5 * (lo + hi)
            if abs(t_new - t) <= 1e-16:
                t = t_new
                break
            t = t_new
        return (k + t) * self.step


# ---------------------------------------------------------------------------
# Curve models: (value, first, second derivative) of f or h on a segment
# ---------------------------------------------------------------------------

class _FlatF:
    """A constant f (the origin collar)."""

    def __init__(self, value):
        self.value = value

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return np.full_like(s, self.value), z, z


class _Sine:
    """amp sin((s - shift)/amp): the cap arc of f and the splice of h."""

    def __init__(self, amp, shift):
        self.amp = amp
        self.shift = shift

    def eval(self, s):
        s = np.asarray(s, dtype=float)
        th = (s - self.shift) / self.amp
        return self.amp * np.sin(th), np.cos(th), -np.sin(th) / self.amp


class _Dense:
    """A sampled curve with its sampled derivative and an analytic second
    derivative (the cap blend, the f-flattening, the h tail and bridge)."""

    def __init__(self, curve, curve_d, d2_func):
        self.curve = curve
        self.curve_d = curve_d
        self.d2_func = d2_func

    def eval(self, s):
        return self.curve(s), self.curve_d(s), self.d2_func(s)


class _CoreH:
    """h = (2/(alpha lam0^2)) f' of the core, with the core identities

    h''/h = -(alpha (alpha+1)/2) lam0^2 f^(-alpha-2) and
    f'h'/(f h) = (alpha/2) lam0^2 f^(-alpha-2), both finite down to s = 0
    where h vanishes.
    """

    def __init__(self, core):
        self.core = core
        self.c_h = 2.0 / (core.alpha * core.lam0**2)

    def eval(self, s):
        a = self.core.alpha
        f, fp, _ = self.core.eval(s)
        h = self.c_h * fp
        hp = np.power(f, -a - 1.0)
        hpp = -(a + 1.0) * np.power(f, -a - 2.0) * fp
        return h, hp, hpp

    def hpp_over_h(self, s):
        a = self.core.alpha
        f, _, _ = self.core.eval(s)
        return -0.5 * a * (a + 1.0) * self.core.lam0**2 * np.power(f, -a - 2.0)

    def fp_hp_over_f_h(self, f):
        """f'h'/(f h) at core values f; the segment's f must be the core."""
        a = self.core.alpha
        return 0.5 * a * self.core.lam0**2 * np.power(f, -a - 2.0)


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """f and h on [s0, s1], each one of the four curve models.

    f is the core solution itself, a ``_Sine`` (the cap arc), a
    ``_Dense`` (the cap blend and the f-flattening) or a ``_FlatF``; h is
    a ``_CoreH``, a ``_Sine`` (the splice), or a ``_Dense`` (the tail and
    the origin bridge).  The models describe h at unit fibre scale, and
    ``h_scale`` is the one place r is applied: ``scaled`` multiplies h,
    h' and h'' by it, for ``eval`` and for every sampled block.  The
    margins are formed before that scaling, from column ratios or, where
    h vanishes at a sample, from the core and sine closed forms.
    """

    label: str  # core | cap | tail | splice | flat
    s0: float
    s1: float
    fmod: object
    hmod: object
    h_scale: float = 1.0

    def scaled(self, f, fp, fpp, h, hp, hpp):
        """Unit-scale columns with h, h' and h'' times ``h_scale``."""
        k = self.h_scale
        return f, fp, fpp, k * h, k * hp, k * hpp

    def eval(self, s):
        """(f, f', f'', h, h', h'') at s, h at fibre scale ``h_scale``."""
        return self.scaled(*self.fmod.eval(s), *self.hmod.eval(s))


@dataclass(frozen=True)
class CapInfo:
    big_n: float
    s_prime: float
    blend_start: float
    blend_end: float


@dataclass(frozen=True)
class TailInfo:
    start: float
    width: float


@dataclass(frozen=True)
class OriginInfo:
    radius: float
    eps_prime: float
    splice_point: float
    kink_halfwidth: float
    flat_end: float
    rejoin: float
    flat_value: float
    plateau: float


@dataclass(frozen=True)
class WarpProfile:
    """Piecewise description of (f, h) plus stage metadata."""

    params: WarpParams
    core: _CoreSolution
    segments: tuple
    s_left: float
    s_lambda: float
    r: float = 1.0
    cap: CapInfo | None = None
    tail: TailInfo | None = None
    origin: OriginInfo | None = None
    # After smooth_origin: the neck right of the collar's flat end at unit
    # fibre scale, shared by every r probed on one neck; the last
    # len(outer.segments) segments are its segments with h_scale = r.
    outer: WarpProfile | None = field(default=None, repr=False, compare=False)
    # Sampled blocks keyed by (segment index, refine), and on a neck the
    # "outer" entry of smooth_origin; they live and die with the profile.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- sampling ----------------------------------------------------------
    def segment_grid(self, seg: Segment, refine: int = 1) -> np.ndarray:
        step = self.params.step / refine
        count = max(32, int(math.ceil((seg.s1 - seg.s0) / step)))
        return np.linspace(seg.s0, seg.s1, count + 1)

    def blocks(self, refine: int = 1) -> tuple:
        """Every segment sampled on its grid, with its margins."""
        return tuple(self.block(k, refine) for k in range(len(self.segments)))

    def block(self, k: int, refine: int = 1) -> _Block:
        """Segment k sampled on its grid, with its margins; computed once.

        An outer segment's block is ``outer``'s, computed once per neck,
        with h, h' and h'' scaled by the segment's ``h_scale`` (the margins
        are scale-free); only the collar's own segments are sampled for
        each r.
        """
        b = self._memo.get((k, refine))
        if b is None:
            seg = self.segments[k]
            shared = len(self.outer.segments) if self.outer is not None else 0
            own = len(self.segments) - shared
            if k < own:
                b = _sample_block(self.params.n, seg, self.segment_grid(seg, refine))
            else:
                u = self.outer.block(k - own, refine)
                b = _Block(seg, u.s, *seg.scaled(*u[2:8]), *u[8:])
            self._memo[k, refine] = b
        return b

    def sample(self, refine: int = 1):
        """Rows of (segment, s, f, fp, fpp, h, hp, hpp) per segment."""
        return [b[:8] for b in self.blocks(refine)]

    def evaluate(self, s: float):
        """(f, fp, fpp, h, hp, hpp) at a single location."""
        for seg in self.segments:
            if seg.s0 - 1e-12 <= s <= seg.s1 + 1e-12:
                return tuple(float(c[0]) for c in seg.eval(np.array([s])))
        raise InputError(f"location {s} outside the profile domain")

    def first_integral_residual(self) -> float:
        """Max first-integral residual over the untouched core range."""
        lo = self.origin.rejoin if self.origin else self.s_left
        hi = self.cap.blend_start if self.cap else self.s_lambda
        s = np.linspace(lo, hi, 2049)
        f, fp, _ = self.core.eval(s)
        res = fp * fp - self.params.lam0**2 * (1.0 - np.power(f, -self.params.alpha))
        return float(np.max(np.abs(res)))

    def seam_residuals(self) -> list:
        """C^1 mismatches of f and h at every interior junction."""
        out = []
        for left, right in zip(self.segments, self.segments[1:]):
            s = left.s1
            lo, hi = left.eval(np.array([s])), right.eval(np.array([s]))
            out.append((s, *(abs(lo[i][0] - hi[i][0]) for i in (0, 1, 3, 4))))
        return out


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarginReport:
    """Pointwise margins of the three inequalities plus their minima.

    The scalar minima run over the strict zone (everything left of the
    flattened seam collar): the tail brings every h-derivative to zero
    at the outer boundary, so inequality (3) closes to zero there by
    construction and the collar is certified nonnegative instead
    (``tail_min``); strictness across the seam is the cited deformation
    step, recorded as an annotation rather than computed.
    """

    blocks: tuple  # (label, s, m1, m2, m3) per segment
    min1: float
    min2: float
    min3: float
    tail_min: float = math.inf

    @property
    def global_min(self) -> float:
        return min(self.min1, self.min2, self.min3)

    @property
    def tail_nonnegative(self) -> bool:
        return self.tail_min >= -1e-12


class _Block(NamedTuple):
    """One segment sampled on its grid: the profile columns and the
    three inequality margins."""

    seg: Segment
    s: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    h: np.ndarray
    hp: np.ndarray
    hpp: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    m3: np.ndarray


def _sample_block(n: int, seg: Segment, s: np.ndarray) -> _Block:
    """Segment ``seg`` sampled at s, with its three inequality margins.

    The margins are scale-free, so they are formed from the unit-scale
    columns (see the module notes on closed forms) before ``seg.scaled``
    applies the fibre scale.  A margin that is not finite raises
    MarginLost, since ``min`` and ``<=`` would silently skip a NaN.
    """
    fmod, hmod = seg.fmod, seg.hmod
    f, fp, fpp = fmod.eval(s)
    h, hp, hpp = hmod.eval(s)
    if isinstance(hmod, _CoreH):
        roh = hmod.hpp_over_h(s)
    elif isinstance(hmod, _Sine):
        roh = np.full_like(s, -1.0 / hmod.amp**2)
    else:
        roh = hpp / h
    if isinstance(fmod, _FlatF):
        # f' = f'' = 0: the inequalities collapse to -h''/h and (n-2)/f^2.
        m1 = -roh
        m2 = (n - 2) / (f * f)
        m3 = -roh
    else:
        if isinstance(fmod, _CoreSolution) and isinstance(hmod, _CoreH):
            cross = hmod.fp_hp_over_f_h(f)
        else:
            cross = fp * (hp / h) / f
        m1 = -(n - 1) * fpp / f - roh
        m2 = -fpp / f + (n - 2) * (1.0 - fp * fp) / (f * f) - cross
        m3 = -roh - (n - 1) * cross
    if not all(np.isfinite(m).all() for m in (m1, m2, m3)):
        raise MarginLost(
            f"non-finite inequality margin on segment {seg.label} "
            f"[{seg.s0:.6g}, {seg.s1:.6g}]"
        )
    columns = (s, *seg.scaled(f, fp, fpp, h, hp, hpp), m1, m2, m3)
    for column in columns:
        column.setflags(write=False)  # blocks are shared between profiles
    return _Block(seg, *columns)


def inequality_margins(w: WarpProfile, refine: int = 1) -> MarginReport:
    """Evaluate the three differential inequalities over the profile."""
    blocks = []
    mins = [math.inf, math.inf, math.inf]
    tail_min = math.inf
    for seg, s, *_, m1, m2, m3 in w.blocks(refine):
        blocks.append((seg.label, s, m1, m2, m3))
        lows = [float(np.min(m)) for m in (m1, m2, m3)]
        if seg.label == "tail":
            tail_min = min(tail_min, *lows)
        else:
            mins = [min(a, b) for a, b in zip(mins, lows)]
    return MarginReport(tuple(blocks), *mins, tail_min)


def _check_margins(w: WarpProfile, lo: float, hi: float, stage: str):
    for k, seg in enumerate(w.segments):
        if seg.s1 <= lo or seg.s0 >= hi:
            continue
        _, s, *_, m1, m2, m3 = w.block(k)
        keep = (s >= lo - 1e-12) & (s <= hi + 1e-12)
        if not keep.any():
            continue
        worst = min(float(np.min(m[keep])) for m in (m1, m2, m3))
        floor = -1e-12 if seg.label == "tail" else 0.0
        if worst <= floor:
            raise MarginLost(
                f"{stage}: inequality margin {worst:.3e} lost on "
                f"segment {seg.label} [{seg.s0:.6g}, {seg.s1:.6g}]"
            )


# ---------------------------------------------------------------------------
# Stage 1: core integration
# ---------------------------------------------------------------------------

def integrate_core(params: WarpParams) -> WarpProfile:
    """Solve the core equation and stop where f' reaches lam.

    The step size is halved (up to four times) until the first-integral
    residual at the accepted nodes is within ``tol_ode``.  Raises NoStop
    if the slope target is not reached inside the budget.
    """
    p = params.resolve()
    step = p.step
    for _ in range(5):
        core = _CoreSolution(p.lam0, p.alpha, step, p.s_budget)
        s_stop = core.find_slope(p.lam)
        if core.first_integral_residual(core.s_end) <= p.tol_ode:
            break
        step *= 0.5
    else:
        raise NoStop("integrator failed to meet the first-integral tolerance")
    p = replace(p, step=step)
    seg = Segment("core", 0.0, s_stop, core, _CoreH(core))
    return WarpProfile(
        params=p, core=core, segments=(seg,), s_left=0.0, s_lambda=s_stop
    )


# ---------------------------------------------------------------------------
# Stage 2: sine cap
# ---------------------------------------------------------------------------

def _integrate_blend(core, a, b, big_n, steps=512):
    """RK4 for f'' = (1-sig) c2 f^(-alpha-1) - sig f/N^2 on [a, b]."""
    c2, expo = core.c2, -core.alpha - 1.0
    nn = big_n * big_n
    width = b - a
    h = width / steps

    # Blend weights on the sweep's half-step grid in one array pass; the
    # nodes s_k = s_(k-1) + h are a sequential cumsum, so the same floats
    # as stepping s by h.
    nodes = np.cumsum(np.concatenate(([a], np.full(steps, h))))
    grid = np.empty(2 * steps + 1)
    grid[0::2] = nodes
    grid[1::2] = nodes[:-1] + 0.5 * h
    sig = smoothstep((grid - a) / width).tolist()

    def acc(i, f):
        return (1.0 - sig[i]) * c2 * f ** expo - sig[i] * f / nn

    f0, fp0, _ = core.eval(np.array([a]))
    fs, fps = _rk4(acc, float(f0[0]), float(fp0[0]), h, steps)
    return np.array(fs), np.array(fps), h


def _illinois(g, lo, hi, glo, ghi, guess=None):
    """Root of g in the sign-change bracket [lo, hi] by Illinois regula falsi.

    Each step moves the bracket end whose value has the sign of g at the
    secant point; when the same end stays put twice in a row its value
    is halved, which keeps the convergence superlinear where plain
    regula falsi would stall on one side.  ``guess`` (a root of a nearby
    problem) replaces the first secant point.  Stops once the bracket is
    within about two ulps of the root, or after 100 steps, and returns
    its midpoint.
    """
    x = guess
    moved = None
    for _ in range(100):
        if hi - lo <= 4e-16 * abs(hi):
            break
        if x is None:
            x = hi - ghi * (hi - lo) / (ghi - glo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        gx = g(x)
        if gx == 0.0:
            return x
        if (gx > 0.0) == (ghi > 0.0):
            hi, ghi = x, gx
            if moved == "hi":
                glo *= 0.5
            moved = "hi"
        else:
            lo, glo = x, gx
            if moved == "lo":
                ghi *= 0.5
            moved = "lo"
        x = None
    return 0.5 * (lo + hi)


def cap_sine(w: WarpProfile, lam: float, width: float) -> WarpProfile:
    """Blend f into an exact sine arc ending with slope lam.

    The blend interpolates second derivatives from the core equation to
    sine curvature -f/N^2 over the first half of ``width``; N is solved
    so that the post-blend arc has amplitude exactly N, making the
    terminal piece N sin((s - s')/N) with f'(s_lambda) = lam and
    N = f(s_lambda) / sqrt(1 - lam^2) holding identically.

    Two unknowns are solved.  The blend start a is a fixed point: the
    slope target at a is corrected by the slope error at the blend end
    until that error is below 1e-12, and each a is located as the root
    of the cubic Hermite piece of f' that crosses the target
    (``_CoreSolution.find_slope``).  For each a, N is the root of the
    amplitude gap hypot(f(b), N f'(b)) - N, found by Illinois regula
    falsi inside the bracket [N0/2, 2 N0] (grown if it holds no sign
    change) to about two ulps; passes after the first start from the
    previous pass's N.  The last pass's blend integration is the one
    the cap keeps.
    """
    p = w.params
    if w.cap is not None:
        raise InputError("cap already applied")
    if abs(lam - p.lam) > 1e-12:
        raise InputError("cap slope must match the profile's lam")
    if width <= 0:
        raise InputError("cap width must be positive")
    blend_w = 0.5 * width
    sine_target = 0.5 * width
    s_stop = w.s_lambda
    core = w.core
    core.extend(s_stop + 4.0 * width + 4.0 * p.step)
    f_at_stop = float(core.eval(np.array([s_stop]))[0][0])
    n0 = f_at_stop / math.sqrt(1.0 - lam * lam)
    slope_target = lam + math.sqrt(1.0 - lam * lam) * sine_target / n0
    if slope_target >= p.lam0 - 0.02 * (p.lam0 - p.lam):
        raise MarginLost("cap width too large for the gap between lam and lam0")

    def solve_big_n(a, b, guess):
        def amp_gap(big_n):
            fs, fps, _ = _integrate_blend(core, a, b, big_n)
            amp = math.hypot(fs[-1], big_n * fps[-1])
            return amp - big_n

        lo, hi = 0.5 * n0, 2.0 * n0
        glo, ghi = amp_gap(lo), amp_gap(hi)
        grow = 0
        while glo * ghi > 0 and grow < 8:
            lo *= 0.7
            hi *= 1.5
            glo, ghi = amp_gap(lo), amp_gap(hi)
            grow += 1
        if glo * ghi > 0:
            raise MarginLost("cap amplitude equation has no bracketed root")
        return _illinois(amp_gap, lo, hi, glo, ghi, guess)

    lam_a = slope_target
    a = b = big_n = None
    for _ in range(10):
        lam_a = min(max(lam_a, p.lam + 1e-9), p.lam0 - 1e-9)
        a = core.find_slope(lam_a)
        b = a + blend_w
        core.extend(b + 4.0 * p.step)
        big_n = solve_big_n(a, b, big_n)
        fs, fps, hstep = _integrate_blend(core, a, b, big_n)
        err = fps[-1] - slope_target
        if abs(err) < 1e-12:
            break
        lam_a -= err
    if fps[-1] <= lam:
        raise MarginLost("cap blend lost too much slope; shrink the width")
    theta_b = math.atan2(fs[-1] / big_n, fps[-1])
    s_prime = b - big_n * theta_b
    s_lam = s_prime + big_n * math.acos(lam)
    if s_lam < b:
        raise MarginLost("sine arc ends before the blend; shrink the width")
    core.extend(s_lam + 4.0 * p.step)

    width_b = b - a

    def blend_rhs(s, f):
        sig = smoothstep((np.asarray(s) - a) / width_b)
        return (1.0 - sig) * core.c2 * np.power(f, -core.alpha - 1.0) - sig * f / (
            big_n * big_n
        )

    fcurve = _DenseCurve(a, hstep, fs, fps)
    fpps = blend_rhs(a + hstep * np.arange(len(fs)), fs)
    fpcurve = _DenseCurve(a, hstep, fps, fpps)
    blend_f = _Dense(fcurve, fpcurve, lambda s: blend_rhs(s, fcurve(s)))
    sine_f = _Sine(big_n, s_prime)
    hmod = w.segments[0].hmod
    segments = (
        Segment("core", w.s_left, a, core, hmod),
        Segment("cap", a, b, blend_f, hmod),
        Segment("cap", b, s_lam, sine_f, hmod),
    )
    cap = CapInfo(big_n, s_prime, a, b)
    out = replace(w, segments=segments, s_lambda=s_lam, cap=cap)
    _check_margins(out, a, s_lam, "cap_sine")
    return out


# ---------------------------------------------------------------------------
# Stage 3: h tail flattening
# ---------------------------------------------------------------------------

def flatten_h_tail(w: WarpProfile, width: float | None = None) -> WarpProfile:
    """Replace h' by psi * h' near the outer end so h flattens there.

    psi is the descending quintic smoothstep: psi and its first two
    derivatives vanish at s_lambda, so h', h'' (and the tracked third
    derivative) vanish at the boundary; h''<= psi h'' keeps inequality
    (3) intact.
    """
    p = w.params
    if w.cap is None:
        raise InputError("apply cap_sine before flattening the tail")
    if w.tail is not None:
        raise InputError("tail already applied")
    sine_zone = w.s_lambda - w.cap.blend_end
    if width is None:
        width = p.tail_width if p.tail_width is not None else 0.5 * sine_zone
    if width <= 0 or width >= w.s_lambda - w.cap.blend_start:
        raise InputError("tail width must sit inside the cap region")
    t0 = w.s_lambda - width
    base = None
    for seg in w.segments:
        if seg.s0 <= t0 < seg.s1:
            base = seg.hmod
    if base is None:
        raise InputError("tail start outside the profile")

    grid = np.linspace(t0, w.s_lambda, 4097)
    hstep = grid[1] - grid[0]
    h0, hp0, _ = base.eval(np.array([t0]))

    def unit(s):
        # snap the endpoints so the boundary conditions are exact zeros
        u = (np.asarray(s, dtype=float) - t0) / width
        u = np.where(u > 1.0 - 1e-13, 1.0, u)
        return np.where(np.abs(u) < 1e-13, 0.0, u)

    def psi(s):
        return 1.0 - smoothstep(unit(s))

    def psi_d(s):
        return -smoothstep_d(unit(s)) / width

    _, hp_nodes, hpp_nodes = base.eval(grid)
    tilde_hp = psi(grid) * hp_nodes
    tilde_h = h0[0] + _cumulative_trapezoid(tilde_hp, hstep)
    curve_h = _DenseCurve(t0, hstep, tilde_h, tilde_hp)

    def hpp_func(s):
        _, hp_s, hpp_s = base.eval(s)
        return psi(s) * hpp_s + psi_d(s) * hp_s

    tilde_hpp = hpp_func(grid)
    curve_hp = _DenseCurve(t0, hstep, tilde_hp, tilde_hpp)
    tail_h = _Dense(curve_h, curve_hp, hpp_func)

    segments = []
    for seg in w.segments:
        if seg.s1 <= t0:
            segments.append(seg)
        elif seg.s0 >= t0:
            segments.append(replace(seg, label="tail", hmod=tail_h))
        else:
            segments.append(replace(seg, s1=t0))
            segments.append(replace(seg, label="tail", s0=t0, hmod=tail_h))
    out = replace(w, segments=tuple(segments), tail=TailInfo(t0, width))
    _check_margins(out, t0, w.s_lambda, "flatten_h_tail")
    return out


# ---------------------------------------------------------------------------
# Stage 4: origin smoothing and rescale
# ---------------------------------------------------------------------------

def _solve_splice(h_val: float, hp_val: float, r: float):
    cosu = r * hp_val
    if cosu >= 1.0:
        raise NoSolution(
            f"splice matching needs r * h'(s0) < 1, got {cosu:.6f}"
        )
    u = math.acos(cosu)
    radius = r * h_val / math.sin(u)
    return radius, u


def _flatten_f(core, flat_end: float, rejoin: float, ramp: float):
    """Second-derivative profile omega * f'' with an exact core rejoin.

    omega rises from 0 at ``flat_end`` to a plateau P and descends to 1
    at ``rejoin``; P is solved linearly so the lost slope of the flat
    zone is recovered exactly, then f is rebuilt by integrating backward
    from the core values at ``rejoin``.
    """
    grid = np.linspace(flat_end, rejoin, 16385)
    hstep = grid[1] - grid[0]
    _, fp_nodes, fpp_nodes = core.eval(grid)
    up = smoothstep((grid - flat_end) / ramp)
    down = smoothstep((grid - (rejoin - ramp)) / ramp)
    base_i = _trapz(up * (1.0 - down) * fpp_nodes, hstep)
    rest_i = _trapz(up * down * fpp_nodes, hstep)
    target = float(fp_nodes[-1])
    plateau = (target - rest_i) / base_i

    def omega(s):
        s = np.asarray(s, dtype=float)
        u = smoothstep((s - flat_end) / ramp)
        d = smoothstep((s - (rejoin - ramp)) / ramp)
        return u * (plateau - (plateau - 1.0) * d)

    def fpp_func(s):
        return omega(s) * core.eval(s)[2]

    fpp_vals = omega(grid) * fpp_nodes
    # Backward cumulative integration anchored at the core values.
    fp_vals = target - (_cumulative_trapezoid(fpp_vals[::-1], hstep)[::-1])
    f_end = float(core.eval(np.array([rejoin]))[0][0])
    f_vals = f_end - (_cumulative_trapezoid(fp_vals[::-1], hstep)[::-1])
    fp_vals[0] = 0.0  # the residual here is quadrature roundoff
    curve_f = _DenseCurve(flat_end, hstep, f_vals, fp_vals)
    curve_fp = _DenseCurve(flat_end, hstep, fp_vals, fpp_vals)
    return _Dense(curve_f, curve_fp, fpp_func), float(f_vals[0]), plateau


def _smooth_kink(core_h, r, radius_hat, x0, x1):
    """Bridge from the splice sine into r times the core h on [x0, x1].

    The second derivative interpolates between sine-type curvature
    -h/radius_hat^2 and the rescaled core h''; both branches are
    negative, so the bridge never loses concavity.  Integrating backward
    from the core values at x1 closes the right seam exactly, and the
    exact sine through the resulting left endpoint data closes the left
    seam exactly (the sine parameters are re-solved there).

    The bridge equation h'' = a(s) h + b(s) is linear, so one RK4 step
    is an affine map of (h, h'): ``_rk4`` takes one step from every node
    at once to get the maps' coefficients, and the sweep composes them.

    Returns the dense bridge model plus (value, slope) at x0.
    """
    steps = 2048
    width = x1 - x0
    hstep = width / steps
    # Core-side curvature at nodes and half-steps for the RK4 sweep.
    fine = np.linspace(x0, x1, 2 * steps + 1)
    gr_fine = r * core_h.eval(fine)[2]
    sig_fine = smoothstep((fine - x0) / width)
    inv_r2 = 1.0 / (radius_hat * radius_hat)
    # The sweep runs backward from x1, so it reads the grid from the end;
    # a step's start, midpoint and end are half-step indices 0, 1 and 2.
    a = (-(1.0 - sig_fine) * inv_r2)[::-1]
    b = (sig_fine * gr_fine)[::-1]
    a_at = (a[:-1:2], a[1::2], a[2::2])
    b_at = (b[:-1:2], b[1::2], b[2::2])
    # Rows: the step images of (h, h') = (1, 0) and (0, 1) without the
    # forcing b, and of (0, 0) with it.
    forced = np.array([[0.0], [0.0], [1.0]])
    ys, yps = _rk4(
        lambda i, y: a_at[i] * y + forced * b_at[i],
        np.array([[1.0], [0.0], [0.0]]),
        np.array([[0.0], [1.0], [0.0]]),
        -hstep,
        1,
    )
    maps = zip(*ys[1].tolist(), *yps[1].tolist())

    h1, hp1, _ = core_h.eval(np.array([x1]))
    h, hp = float(r * h1[0]), float(r * hp1[0])
    hs, hps = [h], [hp]
    for h_h, h_p, h_c, p_h, p_p, p_c in maps:
        h, hp = h_h * h + h_p * hp + h_c, p_h * h + p_p * hp + p_c
        hs.append(h)
        hps.append(hp)
    h_vals = np.array(hs[::-1])
    hp_vals = np.array(hps[::-1])
    node_idx = np.arange(0, 2 * steps + 1, 2)
    hpp_vals = (
        -(1.0 - sig_fine[node_idx]) * h_vals * inv_r2
        + sig_fine[node_idx] * gr_fine[node_idx]
    )
    curve_h = _DenseCurve(x0, hstep, h_vals, hp_vals)
    curve_hp = _DenseCurve(x0, hstep, hp_vals, hpp_vals)
    hpp_curve = _DenseCurve(x0, hstep, hpp_vals, np.gradient(hpp_vals, hstep))
    model = _Dense(curve_h, curve_hp, hpp_curve)
    return model, float(h_vals[0]), float(hp_vals[0])


def _outer_part(w: WarpProfile, eps: float, flat_end: float, ramp: float):
    """The neck from ``flat_end`` out at unit fibre scale, with the flat
    value and plateau of its f-flattening.

    None of it depends on r: the flattening blend ends at eps, and every
    segment right of eps is the neck clipped there.  Built once per
    (neck, eps) and kept on the neck, one eps at a time.
    """
    cached = w._memo.get("outer")
    if cached is None or cached[0] != eps:
        blend_f, flat_value, plateau = _flatten_f(w.core, flat_end, eps, ramp)
        segments = (Segment("flat", flat_end, eps, blend_f, _CoreH(w.core)),) + tuple(
            replace(seg, s0=max(seg.s0, eps)) for seg in w.segments if seg.s1 > eps
        )
        outer = replace(w, segments=segments, s_left=flat_end)
        cached = w._memo["outer"] = (eps, outer, flat_value, plateau)
    return cached[1:]


def smooth_origin(w: WarpProfile, r: float, eps: float) -> WarpProfile:
    """Rescale h by r and rebuild the origin collar.

    After the rescale the spliced segment is an exact sine
    R sin((s - eps')/R) with unit slope at the new left endpoint eps',
    C^1-matched to r*h at the splice point and bridged through a small
    smoothing window; f is flattened to a constant over the splice and
    rejoined to the core solution exactly at ``eps``.  Everything right of
    the flat end is built once per (w, eps) and shared by the profiles of
    every r (see ``_outer_part``).
    """
    p = w.params
    if w.cap is None or w.tail is None:
        raise InputError("smooth_origin expects a capped, tail-flattened profile")
    if w.origin is not None:
        raise InputError("origin smoothing already applied")
    if not 0.0 < r <= 1.0:
        raise InputError("fibre scale r must lie in (0, 1]")
    if not 0.0 < eps < 0.8 * w.cap.blend_start:
        raise InputError("origin budget eps must leave a core zone intact")

    core = w.core
    delta = 0.001 * eps
    flat_end = 2.0 * delta
    ramp = 0.008 * eps
    splice_point = 1.2 * delta

    # Nominal sine through the unsmoothed r*h at the splice point; the
    # bridge below re-solves the exact parameters at the same point.
    core_h = _CoreH(core)
    h_sp, hp_sp, _ = core_h.eval(np.array([splice_point]))
    radius_hat, _ = _solve_splice(float(h_sp[0]), float(hp_sp[0]), r)
    w_k = min(0.2 * (flat_end - splice_point), 0.5 * radius_hat)
    x0, x1 = splice_point, splice_point + 2.0 * w_k

    outer, flat_value, plateau = _outer_part(w, eps, flat_end, ramp)
    flat_f = _FlatF(flat_value)
    kink_h, h_x0, hp_x0 = _smooth_kink(core_h, r, radius_hat, x0, x1)
    if not 0.0 < hp_x0 < 1.0 or h_x0 <= 0.0:
        raise NoSolution(
            f"bridge slope {hp_x0:.6f} at the splice point does not admit a sine"
        )
    radius = h_x0 / math.sqrt(1.0 - hp_x0 * hp_x0)
    u0 = math.atan2(h_x0 / radius, hp_x0)
    eps_prime = x0 - radius * u0

    segments = (
        Segment("splice", eps_prime, x0, flat_f, _Sine(radius, eps_prime)),
        Segment("flat", x0, x1, flat_f, kink_h),
        Segment("flat", x1, flat_end, flat_f, core_h, h_scale=r),
    ) + tuple(replace(seg, h_scale=r) for seg in outer.segments)

    out = replace(
        w,
        segments=segments,
        s_left=eps_prime,
        r=r,
        origin=OriginInfo(
            radius=radius,
            eps_prime=eps_prime,
            splice_point=splice_point,
            kink_halfwidth=w_k,
            flat_end=flat_end,
            rejoin=eps,
            flat_value=flat_value,
            plateau=plateau,
        ),
        outer=outer,
    )
    _check_margins(out, eps_prime, eps + 2 * p.step, "smooth_origin")
    return out


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

def _stage(name, fn, *args, **kwargs):
    """Call fn, wrapping any failure in StageError labelled ``name``."""
    try:
        return fn(*args, **kwargs)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


def build_neck(params: WarpParams):
    """The capped, tail-flattened profile and its origin budget eps.

    Runs ``integrate_core``, ``cap_sine`` and ``flatten_h_tail``, each
    under its stage label, and stops before ``smooth_origin`` because
    callers probe many fibre scales r on one neck.  eps is
    ``origin_eps`` clamped to 0.75 of the blend start, so the origin
    collar leaves a core zone intact.
    """
    w = _stage("integrate_core", integrate_core, params)
    p = w.params
    w = _stage("cap_sine", cap_sine, w, p.lam, p.cap_width)
    w = _stage("flatten_h_tail", flatten_h_tail, w, p.tail_width)
    return w, min(p.origin_eps, 0.75 * w.cap.blend_start)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

CSV_HEADER = "s,f,fp,fpp,h,hp,hpp,segment"


def export_profile(w: WarpProfile, destination) -> None:
    """Write the sampled profile as CSV (17 significant digits)."""
    rows = []
    for seg, *columns in w.sample():
        row = "%.17g," * 7 + seg.label
        rows += [row % cells for cells in zip(*(c.tolist() for c in columns))]
    text = CSV_HEADER + "\n" + "\n".join(rows) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
