"""Construction of the doubly warped profile functions.

The profile consists of two warping functions f (the sphere factor) and
h (the circle factor) on an interval [s_left, s_lambda], built in four
stages:

* ``integrate_core`` solves f'' = (alpha lam0^2 / 2) f^(-alpha-1) with
  f(0) = 1, f'(0) = 0 through its first integral
  f'^2 = lam0^2 (1 - f^(-alpha)): a table of s at uniform nodes in
  u = sqrt(f - 1), ending where the neck stops reading it, interpolated,
  gives f; f' and f'' follow from f in closed form.  It stops where f'
  reaches the target slope, also in closed form; h is a fixed multiple
  of f'.  The first integral, read with f' the derivative of the
  interpolated f at the table's cell midpoints, gates the core: a table
  that misses ``_FIRST_INTEGRAL_TOL`` raises NoStop.
* ``cap_sine`` replaces the outer end of f by an exact sine arc
  N sin((s - s')/N), blending second derivatives so the three curvature
  inequalities keep their margins.  The blend's f'' at the nodes of its
  Chebyshev window, the blend start a and N solve one Newton system: the
  collocation equations and, at the blend end, the arc's amplitude
  equation and its slope target.
* ``flatten_h_tail`` multiplies h' by a cutoff so every tracked
  derivative of h vanishes at the outer end, integrating it on a
  Chebyshev window.
* ``smooth_origin`` rescales h by r, splices an exact sine with unit
  slope at the new left endpoint, and flattens f to a constant there,
  rejoining the core solution exactly so the first integral survives.
  The flattening is exact in terms of the core on its plateau and a
  Chebyshev window on each of its two ramps.

``build_neck`` runs the first three stages under their stage labels and
returns the neck with its origin budget eps; ``certify``, the
``profile-export`` command and the tests build profiles through it and
then call ``smooth_origin`` for each fibre scale r they need.  Only the
origin collar left of its flat end depends on r, so ``smooth_origin``
builds the rest once per (neck, eps) and keeps it on the neck: the
f-flattening (with its flat value and plateau), the neck right of the
flat end at unit fibre scale, and the whole r = 1 probe.  Each other
probe it returns holds that part's sampled blocks with h scaled by r,
next to its own collar's; the r = 1 probe holds them unscaled.

f and h on each segment are one of five curve models: the core solution
(``_CoreSolution`` for f, ``_CoreH`` = 2 f'/(alpha lam0^2) for h), an
exact ``_Sine`` (the cap arc of f, the splice of h), a Chebyshev window
``_Window`` (the cap blend of f, the tail and the origin bridge of h),
the f-flattening ``_FlattenedF`` (the core's closed form on its
plateau, a ``_Window`` of f and f' on each ramp) and a constant
``_FlatF``.  The models describe h at unit fibre scale, except the
bridge and the splice, which are built per r; r is applied in one place,
``Segment.h_scale``.  The margins are scale-free and come from the
sampled columns, as ratios h''/h and h'/h, except for two closed forms:
h''/h where h is the core or the splice sine, and f'h'/(f h) on
pure-core segments.  h vanishes at s = 0 and at the splice's left end,
where the column ratios are 0/0.

The five short windows, the cap blend, the h tail, the origin bridge
and the f-flattening's two ramps, are each built by Chebyshev spectral
integration: values of the blend's f'', the bridge's h'', the tail's h'
or the ramps' omega f''_c at the Chebyshev-Lobatto nodes of the window,
integrated by ``_chebyshev``'s matrices from one end and read back by
barycentric interpolation (``_Window``).  The bridge is linear (one
solve, ``_smooth_kink``), the blend nonlinear (Newton, ``cap_sine``),
and the tail and the ramps quadratures of psi h' (``flatten_h_tail``)
and of omega f''_c (``_FlattenedF``, both ramps in one product).  The
core table's cell count and the windows' degrees are sized by doubling
against an error estimate from half the size and one tolerance,
``_SWEEP_TOL``; ``CapInfo``, ``TailInfo`` and ``OriginInfo`` keep the
windows' degrees with their estimates, the core its ``error``.  All
blending happens in second-derivative space with quintic smoothstep
weights, which keeps the inequality margins one-signed.  Each segment
is sampled once (``WarpProfile.block``), and each stage gates the
segments it built on their cached margin minima (``_gate``), so a lost
margin raises ``MarginLost`` instead of silently degrading the
certificate.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from itertools import chain
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, MarginLost, NoSolution, NoStop, StageError

# Each function imports numpy where it computes, so importing this module,
# as every command does, costs no numpy import: the topology commands
# never load it.
if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# Smoothstep helpers (C^2 at both ends)
# ---------------------------------------------------------------------------

def smoothstep(u):
    import numpy as np
    u = np.minimum(np.maximum(u, 0.0), 1.0)  # np.clip's dispatch costs more
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


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

class WarpParams(NamedTuple):
    """Construction parameters; None fields are resolved to defaults.

    lam is the target outer slope of f (the cosine of the gluing
    radius), lam0 the asymptotic slope of the core solution, alpha the
    core exponent.  The open-interval conditions lam in (0,1),
    lam0 in (lam, 1) and alpha in (n-2, (n-2)/lam0^2) are enforced
    strictly.  The widths and the step must be positive and finite, and
    the step at least s_est 2^-20 (``segment_grid`` samples a segment at
    about one point per step).
    """

    n: int
    lam: float
    lam0: float | None = None
    alpha: float | None = None
    cap_width: float | None = None
    tail_width: float | None = None
    origin_eps: float | None = None
    step: float | None = None

    def resolve(self) -> "WarpParams":
        if self.n < 3:
            raise InputError("need dimension n >= 3")
        for name in ("cap_width", "tail_width", "origin_eps", "step"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise InputError(f"{name} must be positive and finite, not {value}")
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
        if step < s_est * 2.0**-20:
            raise InputError(f"step {step} is below s_est 2^-20 = {s_est * 2.0**-20:.3g}")
        cap = self.cap_width if self.cap_width is not None else _default_cap_width(
            self.n, self.lam, lam0, alpha, f_stop, s_est
        )
        eps = self.origin_eps if self.origin_eps is not None else min(1.0, 0.3 * s_est)
        return WarpParams(self.n, self.lam, lam0, alpha, cap, self.tail_width, eps, step)


# ---------------------------------------------------------------------------
# Uniform grids and cubic Hermite weights
# ---------------------------------------------------------------------------

def _hermite_weights(t):
    """Weights of (y0, d0, y1, d1) in the cubic Hermite piece at parameter
    t in [0, 1], slopes in t units."""
    t2, t3 = t * t, t * t * t
    return 1 - 3 * t2 + 2 * t3, t - 2 * t2 + t3, 3 * t2 - 2 * t3, t3 - t2


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace(start, stop, num)`` bit for bit, without its dispatch.

    It is linspace's own float arithmetic: i (stop - start)/(num - 1) +
    start, with the last entry set to stop.  Halving a normal step is
    exact, so ``_linspace(a, b, 2 m + 1)[::2]`` is ``_linspace(a, b, m +
    1)``.  A span too small for a nonzero step goes to np.linspace, which
    divides before it multiplies there."""
    import numpy as np
    step = (stop - start) / (num - 1)
    if step == 0.0:
        return np.linspace(start, stop, num)
    y = np.arange(num, dtype=float)
    y *= step
    y += start
    y[-1] = stop
    return y


# ---------------------------------------------------------------------------
# The core ODE solution
# ---------------------------------------------------------------------------

# Relative error allowed in what doubling sizes: the core table's u, the
# cap blend's (f, f') and the tail's h at the nodes they share with the
# solve at half the degree, and the origin bridge's (h, h') at x0.  The
# splice radius h/sqrt(1 - h'^2) amplifies the bridge's where h' is near
# 1 (r near 1).
_SWEEP_TOL = 1e-11

# The core's first-integral residual at its table's cell midpoints, where
# the interpolated f' is least accurate, must stay within this
# (``integrate_core``).
_FIRST_INTEGRAL_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes, weights):
    """The Gauss-Legendre rule on [0, 1], nodes and weights, from the
    positive nodes of the symmetric rule on [-1, 1] and their weights
    (as numpy.polynomial.legendre.leggauss gives them).  Built on first
    use, so importing the module does not import numpy."""
    import numpy as np
    x, w = np.array(nodes), np.array(weights)
    return 0.5 + 0.5 * np.concatenate((-x[::-1], x)), 0.5 * np.concatenate((w[::-1], w))


# The rule of each core table cell, four points; the cells are short
# enough that its error stays at rounding, far below the table's
# interpolation error.  Positive nodes and their weights.
_CORE_RULE = (
    (0.33998104358485626, 0.8611363115940526), (0.6521451548625464, 0.34785484513745357)
)
# First core table cell count per unit of sqrt(alpha) u, since f^(-alpha)
# varies on the scale u ~ 1/sqrt(alpha); it meets the tolerance on the
# golden grid and at n = 12 and 40.  The doublings allowed before the
# error estimate's failure raises NoStop.
_CORE_START = 256
_CORE_DOUBLINGS = 6


def _u2_at_slope(core, target: float) -> float:
    """u^2 = f - 1 where f' = target, for the lam0 and alpha of a core or its params."""
    return math.expm1(-math.log1p(-((target / core.lam0) ** 2)) / core.alpha)


class _CoreSolution:
    """The core solution f'' = c2 f^(-alpha-1), f(0) = 1, f'(0) = 0, from
    its first integral f'^2 = lam0^2 (1 - f^(-alpha)).

    With f = 1 + u^2 the inverse is s(u) = int_0^u ds/du, where ds/du =
    2u / (lam0 sqrt(1 - (1 + u^2)^(-alpha))) is smooth down to u = 0.  A
    table holds s at uniform nodes in u on [0, u_max]; each cell's integral
    is a four-point Gauss-Legendre rule, and s is their cumulative sum.
    u(s) is the table's cubic Hermite interpolant, with slopes du/ds =
    1/(ds/du); f = 1 + u^2, and f' and f'' follow from f in closed form.

    The cell count is sized by step doubling: the half-count table is
    every other entry, and its interpolant at the odd nodes, against the
    table there, gives a Richardson estimate of the relative error in u
    (which bounds those of f and f').  It must be within ``_SWEEP_TOL``;
    ``error`` keeps it.
    """

    def __init__(self, lam0: float, alpha: float, u_max: float):
        self.lam0 = lam0
        self.alpha = alpha
        self.c2 = 0.5 * alpha * lam0 * lam0
        cells = 2 * math.ceil(0.5 * _CORE_START * math.sqrt(alpha) * u_max)
        for _ in range(_CORE_DOUBLINGS + 1):
            self._build(u_max, cells)
            if self.error <= _SWEEP_TOL:
                return
            cells *= 2
        raise NoStop(
            f"core table: error estimate {self.error:.3e} above "
            f"{_SWEEP_TOL:.0e} at {cells // 2} cells"
        )

    def _fp_of_u(self, u):
        """f' at f = 1 + u^2, accurate for small u."""
        import numpy as np
        return self.lam0 * np.sqrt(-np.expm1(-self.alpha * np.log1p(u * u)))

    def _build(self, u_max: float, cells: int):
        import numpy as np
        x, w = _gauss_legendre(*_CORE_RULE)
        u = _linspace(0.0, u_max, cells + 1)
        h = u_max / cells
        nodes = u[:-1, None] + h * x  # every node lies inside its cell
        s = np.empty(cells + 1)
        s[0] = 0.0
        np.cumsum((2.0 * nodes / self._fp_of_u(nodes)) @ (h * w), out=s[1:])
        slopes = np.empty(cells + 1)  # du/ds = f'/(2u), lam0 sqrt(alpha)/2 at 0
        slopes[0] = 0.5 * self.lam0 * math.sqrt(self.alpha)
        slopes[1:] = self._fp_of_u(u[1:]) / (2.0 * u[1:])
        self._u, self._s, self._h = u, s, np.diff(s)
        self.s_end = float(s[-1])
        # Each cell's Hermite piece in power form, u = c0 + t (c1 + t (c2 +
        # t c3)) at t = (s - s_k)/h_k, with the slopes in t units: row i of
        # the (4, cells) array holds c_i, so one index gathers all four.
        du, d0, d1 = np.diff(u), slopes[:-1] * self._h, slopes[1:] * self._h
        self._c = np.array((u[:-1], d0, 3.0 * du - 2.0 * d0 - d1, d0 + d1 - 2.0 * du))
        # The half-count table's pieces at the odd nodes, against the table.
        wide = self._h[0::2] + self._h[1::2]
        w0, w1, w2, w3 = _hermite_weights(self._h[0::2] / wide)
        coarse = (
            w0 * u[:-2:2] + w1 * (slopes[:-2:2] * wide)
            + w2 * u[2::2] + w3 * (slopes[2::2] * wide)
        )
        self.error = float(np.max(np.abs(coarse - u[1::2]) / u[1::2])) / 15.0

    def fpp_of(self, f):
        import numpy as np
        return self.fpp_from_hp(np.power(f, -self.alpha - 1.0))

    def fpp_from_hp(self, hp):
        """f'' = c2 f^(-alpha-1) from hp = f^(-alpha-1), the core's h'."""
        return self.c2 * hp

    def f_fp(self, s):
        """(f, f') at the given locations, clamped to the table."""
        import numpy as np
        s = np.minimum(np.maximum(np.asarray(s, dtype=float), 0.0), self.s_end)
        k = np.minimum(self._s.searchsorted(s, side="right") - 1, len(self._h) - 1)
        t = (s - self._s[k]) / self._h[k]
        c0, c1, c2, c3 = self._c[:, k]
        u = c0 + t * (c1 + t * (c2 + t * c3))
        return 1.0 + u * u, self._fp_of_u(u)

    def eval(self, s):
        """(f, f', f'') at the given locations."""
        f, fp = self.f_fp(s)
        return f, fp, self.fpp_of(f)

    def at(self, s: float):
        """(f, f', f'') at one location as floats, the bits of ``eval``:
        the piece in float arithmetic, f' and f'' by the same ufuncs."""
        import numpy as np
        s = min(max(s, 0.0), self.s_end)
        k = min(int(self._s.searchsorted(s, side="right")) - 1, len(self._h) - 1)
        t = (s - float(self._s[k])) / float(self._h[k])
        c0, c1, c2, c3 = self._c[:, k].tolist()
        u = np.array([c0 + t * (c1 + t * (c2 + t * c3))])
        f = 1.0 + u * u
        return float(f[0]), float(self._fp_of_u(u)[0]), float(self.fpp_of(f)[0])

    def first_integral_residual(self, s_lo: float, s_hi: float) -> float:
        """Largest |f'^2 - lam0^2 (1 - f^(-alpha))| at the midpoints of the
        table cells in [s_lo, s_hi], with f' the derivative of the
        interpolated f = 1 + u^2.  At the nodes it vanishes to rounding;
        the interpolation error peaks between them."""
        import numpy as np
        i = int(self._s.searchsorted(s_lo))
        j = int(self._s.searchsorted(s_hi, side="right")) - 1
        if j <= i:
            return 0.0
        c0, c1, c2, c3 = self._c[:, i:j]
        # Each cell's piece and its derivative at t = 1/2.
        u = c0 + 0.5 * c1 + 0.25 * c2 + 0.125 * c3
        up = (c1 + c2 + 0.75 * c3) / self._h[i:j]
        fp = 2.0 * u * up
        res = fp * fp - self.lam0**2 * -np.expm1(-self.alpha * np.log1p(u * u))
        return float(np.max(np.abs(res)))

    def find_slope(self, target: float) -> float:
        """Location where f' reaches ``target`` (f' rises from 0 to lam0).

        The first integral gives f = (1 - target^2/lam0^2)^(-1/alpha) in
        closed form, hence u; the location is where the table's Hermite
        piece through u's cell takes that u, a monotone cubic solved by
        Newton from the linear guess, so that f' of the interpolant is
        ``target`` to rounding.  NoStop unless target < lam0 and u lies
        on the table.
        """
        u = math.sqrt(_u2_at_slope(self, target)) if target < self.lam0 else math.inf
        k = int(self._u.searchsorted(u, side="right")) - 1
        if k < len(self._h):
            c0, c1, c2, c3 = self._c[:, k].tolist()
            t = (u - c0) / (float(self._u[k + 1]) - c0)
            for _ in range(8):
                dt = (c0 - u + t * (c1 + t * (c2 + t * c3))) / (
                    c1 + t * (2.0 * c2 + 3.0 * t * c3)
                )
                t -= dt
                if abs(dt) <= 1e-16:
                    break
            return float(self._s[k]) + t * float(self._h[k])
        raise NoStop(f"f' does not reach {target} on the core table (s <= {self.s_end})")


# ---------------------------------------------------------------------------
# Chebyshev windows
# ---------------------------------------------------------------------------

# The cap blend, the h tail, the origin bridge and the f-flattening's two
# ramps are each built at the Chebyshev-Lobatto nodes of their window:
# node values of the blend's f'', the bridge's h'', the tail's h~' or the
# ramps' omega f''_c integrated by ``_chebyshev``'s K1 and K2 from one end
# of the window, read back by ``_Window``.  Each starts at the degree
# below and doubles while its estimate against the solve at half the
# degree is above ``_SWEEP_TOL``; at ``_DEGREE_MAX`` it raises
# MarginLost.  The first degrees meet the tolerance on the golden
# grid and at n = 12 and 40:
# * the bridge at 32 at every r (the change from 16 reads at most 7e-15);
# * the cap blend at 32 (the change from 16 reads at most 1.0e-15; 16
#   reads up to 1.2e-9 at n = 45);
# * the tail at 16 (the change from 8 reads at most 3.2e-13, at n = 45);
# * the ramps at 16, on all 221 necks of the domain map's grid (the
#   change from 8 reads at most 8.9e-13, at (11, 0.25)).
_BRIDGE_DEGREE, _BLEND_DEGREE, _TAIL_DEGREE, _RAMP_DEGREE, _DEGREE_MAX = 32, 32, 16, 16, 128


@functools.lru_cache(maxsize=None)
def _chebyshev(degree: int):
    """The Chebyshev-Lobatto nodes t_j = cos(j pi/degree), from t = 1 down
    to -1, their barycentric weights, and the matrices K1 and K2 that take
    the node values of g to those of int_1^t g and int_1^t (t - x) g(x) dx:
    the interpolant's Chebyshev series integrated once and twice from t = 1
    (Greengard, SIAM J. Numer. Anal. 28, 1991; Trefethen, Spectral Methods
    in MATLAB, 2000).  Row 0 of both is zero.  Then the blend weights every
    window reads at the nodes: tau = (1 - t)/2, the window parameter from
    its left end, smoothstep(tau) and smoothstep((1 + t)/2).  Built on
    first use; read-only."""
    import numpy as np
    j = np.arange(degree + 1)
    t = np.sin(0.5 * np.pi * (degree - 2 * j) / degree)  # symmetric about 0
    cheb = np.cos(np.outer(np.pi * j / degree, np.arange(degree + 3)))  # T_k(t_j)

    def integral(m):  # m coefficients to m + 1, zero at t = 1 where T_k = 1
        out = np.zeros((m + 1, m))
        k = np.arange(1, m + 1)
        out[k, k - 1] = 0.5 / k
        out[1, 0] = 1.0
        out[k[:-2], k[:-2] + 1] = -0.5 / k[:-2]
        out[0] = -out[1:].sum(axis=0)
        return out

    once = integral(degree + 1) @ np.linalg.inv(cheb[:, : degree + 1])
    k1, k2 = cheb[:, : degree + 2] @ once, cheb @ (integral(degree + 2) @ once)
    k1[0] = k2[0] = 0.0
    weights = (-1.0) ** j
    weights[[0, -1]] *= 0.5
    tau = 0.5 * (1.0 - t)
    out = (t, weights, k1, k2, tau, smoothstep(tau), smoothstep(0.5 * (1.0 + t)))
    for x in out:
        x.setflags(write=False)
    return out


class _Window:
    """A curve on the window [x0, x0 + width] (the cap blend of f, the tail
    and the origin bridge of h, a ramp of the f-flattening): rows y, y' and
    (but on a ramp) y'' at the Chebyshev-Lobatto nodes of ``degree`` in t =
    2 (s - x0)/width - 1, interpolated barycentrically in t.  At a node (x0
    and x0 + width among them) it returns the node values exactly.  Each
    location's sums run along its own row, so one location gets the bits
    it has in a sampled block.

    The bridge and the right ramp are solved from their right end, their
    rows following the nodes from t = 1 down.  The cap blend, the tail and
    the left ramp are solved from their left end and stored reversed: the
    nodes are exactly symmetric, and at even degree so are the weights, so
    row j of the left-end solve is the value at node degree - j."""

    def __init__(self, x0: float, width: float, degree: int, rows):
        self.x0, self.width, self.degree, self.rows = x0, width, degree, rows

    def eval(self, s):
        import numpy as np
        nodes, weights = _chebyshev(self.degree)[:2]
        t = 2.0 * (np.asarray(s, dtype=float) - self.x0) / self.width - 1.0
        d = t[..., None] - nodes
        exact = d == 0.0
        c = weights / np.where(exact, 1.0, d)
        hit = exact.any(axis=-1)
        c[hit] = exact[hit]  # a location on a node takes the node's row
        c /= c.sum(axis=-1, keepdims=True)
        return tuple((c * y).sum(axis=-1) for y in self.rows)


def _by_doubling(solve, degree: int, what: str):
    """``solve(degree)`` returns a result and its error estimate against
    the solve at half the degree; the degree doubles from ``degree`` until
    the estimate is within ``_SWEEP_TOL``.  Returns the result, the degree
    and the estimate; raises MarginLost at ``_DEGREE_MAX``."""
    while True:
        result, error = solve(degree)
        if error <= _SWEEP_TOL:
            return result, degree, error
        if degree >= _DEGREE_MAX:
            raise MarginLost(
                f"{what}: error estimate {error:.3e} above "
                f"{_SWEEP_TOL:.0e} at degree {degree}"
            )
        degree *= 2


def _relative_change(fine, coarse) -> float:
    """The largest relative change of the rows ``fine`` at the nodes they
    share with the rows ``coarse`` of the solve at half the degree (every
    other node: the node sets nest exactly)."""
    import numpy as np
    return max(float(np.max(np.abs(y[::2] - c) / np.abs(y[::2]))) for y, c in zip(fine, coarse))


# ---------------------------------------------------------------------------
# Curve models: (value, first, second derivative) of f or h on a segment
# ---------------------------------------------------------------------------

class _FlatF:
    """A constant f (the origin collar)."""

    def __init__(self, value):
        self.value = value

    def eval(self, s):
        import numpy as np
        s = np.asarray(s, dtype=float)
        z = np.zeros_like(s)
        return np.full_like(s, self.value), z, z


class _Sine:
    """amp sin((s - shift)/amp): the cap arc of f and the splice of h."""

    def __init__(self, amp, shift):
        self.amp = amp
        self.shift = shift

    def eval(self, s):
        import numpy as np
        s = np.asarray(s, dtype=float)
        th = (s - self.shift) / self.amp
        sin = np.sin(th)
        return self.amp * sin, np.cos(th), -sin / self.amp


class _CoreH:
    """h = (2/(alpha lam0^2)) f' of the core, so h' = f^(-alpha-1) and
    h'' = -(alpha+1) f^(-alpha-2) f', with the core identities

    h''/h = -(alpha (alpha+1)/2) lam0^2 f^(-alpha-2) and
    f'h'/(f h) = (alpha/2) lam0^2 f^(-alpha-2), both finite down to s = 0
    where h vanishes.
    """

    def __init__(self, core):
        self.core = core
        self.c_h = 2.0 / (core.alpha * core.lam0**2)

    def eval(self, s):
        return self.from_core(*self.core.f_fp(s))

    def from_core(self, f, fp):
        """(h, h', h'') from the core's f and f' at the same locations."""
        return self.columns(f, fp)[:3]

    def columns(self, f, fp):
        """(h, h', h'', h''/h, f'h'/(f h), f'') from the core's f and f' at
        the same locations, each form of h written here only, with
        f^(-alpha-1) and f^(-alpha-2) taken once; f'h'/(f h) holds where
        the segment's f is the core, and f'' is ``fpp_from_hp`` of h'."""
        import numpy as np
        core, a = self.core, self.core.alpha
        lam0_sq = core.lam0**2
        hp, power = np.power(f, -a - 1.0), np.power(f, -a - 2.0)
        return (
            self.c_h * fp,
            hp,
            -(a + 1.0) * power * fp,
            -0.5 * a * (a + 1.0) * lam0_sq * power,
            0.5 * a * lam0_sq * power,
            core.fpp_from_hp(hp),
        )


# ---------------------------------------------------------------------------
# Profile
# ---------------------------------------------------------------------------

class Segment(namedtuple("Segment", "label s0 s1 fmod hmod h_scale", defaults=(1.0,))):
    """f and h on [s0, s1], each one of the curve models; ``label`` is
    core, cap, tail, splice or flat.

    f is the core solution itself, a ``_Sine`` (the cap arc), a
    ``_Window`` (the cap blend), the f-flattening ``_FlattenedF`` or a
    ``_FlatF``; h is a ``_CoreH``, a ``_Sine`` (the splice) or a
    ``_Window`` (the tail or the origin bridge).  The models describe
    h at unit fibre scale, except the splice and the bridge, which are
    built per r; ``h_scale`` is the one place r is applied to the others:
    ``scaled`` multiplies h, h' and h'' by it, for ``eval`` and for every
    sampled block; at ``h_scale`` 1.0 it passes the columns through
    unchanged, since the product would be the same bits.  The margins are
    formed before that scaling, from column ratios or, where h vanishes at
    a sample, from the core and sine closed forms.  A segment compares and
    hashes by identity: a profile's sampled blocks are keyed by the
    segment object, and a stage that changes a segment builds a new one.
    """

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def scaled(self, f, fp, fpp, h, hp, hpp):
        """Unit-scale columns with h, h' and h'' times ``h_scale``; at unit
        scale the columns themselves, since 1.0 h is h bit for bit."""
        k = self.h_scale
        if k == 1.0:
            return f, fp, fpp, h, hp, hpp
        return f, fp, fpp, k * h, k * hp, k * hpp

    def eval(self, s):
        """(f, f', f'', h, h', h'') at s, h at fibre scale ``h_scale``."""
        return self.scaled(*self.fmod.eval(s), *self.hmod.eval(s))


class CapInfo(NamedTuple):
    """What ``cap_sine`` built: the arc N sin((s - s_prime)/N), the blend
    window [blend_start, blend_end], and the blend's Chebyshev degree with
    its error estimate, the largest relative change of its (f, f') at the
    nodes shared with half that degree."""

    big_n: float
    s_prime: float
    blend_start: float
    blend_end: float
    blend_degree: int
    blend_error: float


class TailInfo(NamedTuple):
    """What ``flatten_h_tail`` built: the tail window [start, s_lambda] of
    the given width, and its Chebyshev degree with its error estimate, the
    largest relative change of its h at the nodes shared with half that
    degree."""

    start: float
    width: float
    degree: int
    error: float


class OriginInfo(NamedTuple):
    radius: float
    eps_prime: float
    splice_point: float
    kink_halfwidth: float
    flat_end: float
    rejoin: float
    flat_value: float
    plateau: float
    # Chebyshev degree of the origin bridge and the relative change of its
    # (h, h') at the splice point from half that degree (``_smooth_kink``).
    bridge_degree: int
    bridge_error: float
    # Chebyshev degree of the f-flattening's ramps and the largest change
    # of their integrals from half that degree (``_FlattenedF``).
    ramp_degree: int
    ramp_error: float


class WarpProfile:
    """Piecewise description of (f, h) plus stage metadata: the
    ``WarpParams``, the ``_CoreSolution``, the segments on [s_left,
    s_lambda], the fibre scale r and the ``CapInfo``, ``TailInfo`` and
    ``OriginInfo`` of the stages that built it.  Read-only; a profile
    compares and hashes by identity."""

    def __init__(self, params, core, segments, s_left, s_lambda, r=1.0, cap=None, tail=None,
                 origin=None):
        # ``_memo``: sampled blocks keyed by segment; they live and die with
        # the profile, and ``derive`` hands on those of the segments it
        # keeps.  ``_outer_memo``, on a neck: smooth_origin's [eps, outer
        # part, r = 1 probe] for the last eps it was called with.
        vars(self).update(params=params, core=core, segments=segments, s_left=s_left,
                          s_lambda=s_lambda, r=r, cap=cap, tail=tail, origin=origin,
                          _memo={}, _outer_memo=[])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def derive(self, **changes) -> WarpProfile:
        """This profile with the fields in ``changes`` replaced, keeping the
        sampled blocks of every segment it keeps: a block depends only on
        its segment, the step and n, and a later stage keeps the segments
        it does not touch."""
        fields = {
            "params": self.params, "core": self.core, "segments": self.segments,
            "s_left": self.s_left, "s_lambda": self.s_lambda, "r": self.r,
            "cap": self.cap, "tail": self.tail, "origin": self.origin,
        }
        fields.update(changes)
        out = WarpProfile(**fields)
        kept = set(out.segments)
        out._memo.update((seg, b) for seg, b in self._memo.items() if seg in kept)
        return out

    # -- sampling ----------------------------------------------------------
    def segment_grid(self, seg: Segment) -> np.ndarray:
        count = max(32, int(math.ceil((seg.s1 - seg.s0) / self.params.step)))
        return _linspace(seg.s0, seg.s1, count + 1)

    def blocks(self) -> tuple:
        """Every segment sampled on its grid, with its margins."""
        return tuple(self.block(k) for k in range(len(self.segments)))

    def block(self, k: int) -> _Block:
        """Segment k sampled on its grid, with its margins; computed once.

        A ``smooth_origin`` probe holds its outer blocks (the neck's, h
        scaled by r) from the start, so only its collar is sampled here."""
        seg = self.segments[k]
        b = self._memo.get(seg)
        if b is None:
            b = _sample_block(self.params.n, seg, self.segment_grid(seg))
            self._memo[seg] = b
        return b

    def seam(self):
        """(f, fp, fpp, h, hp, hpp) at s_lambda: the last row of the last
        segment's block, whose grid ends at s_lambda exactly."""
        b = self.block(len(self.segments) - 1)
        return tuple(float(c[-1]) for c in b[2:8])

    def evaluate(self, s: float):
        """(f, fp, fpp, h, hp, hpp) at a single location."""
        import numpy as np
        for seg in self.segments:
            if seg.s0 - 1e-12 <= s <= seg.s1 + 1e-12:
                return tuple(float(c[0]) for c in seg.eval(np.array([s])))
        raise InputError(f"location {s} outside the profile domain")

    def first_integral_residual(self) -> float:
        """The core's first-integral residual over the untouched core range."""
        lo = self.origin.rejoin if self.origin else self.s_left
        hi = self.cap.blend_start if self.cap else self.s_lambda
        return self.core.first_integral_residual(lo, hi)

    def seam_residuals(self) -> list:
        """C^1 mismatches of f and h at every interior junction."""
        import numpy as np
        out = []
        for left, right in zip(self.segments, self.segments[1:]):
            s = left.s1
            lo, hi = left.eval(np.array([s])), right.eval(np.array([s]))
            out.append((s, *(abs(lo[i][0] - hi[i][0]) for i in (0, 1, 3, 4))))
        return out


# ---------------------------------------------------------------------------
# Margins
# ---------------------------------------------------------------------------

# Lowest margin the flattened seam collar may reach and still count as
# nonnegative: the tail closes inequality (3) to zero at the outer end.
TAIL_FLOOR = -1e-12


class MarginReport(NamedTuple):
    """Minima of the three inequality margins over the profile.

    The three minima run over the strict zone (everything left of the
    flattened seam collar): the tail brings every h-derivative to zero
    at the outer boundary, so inequality (3) closes to zero there by
    construction and the collar is certified nonnegative instead
    (``tail_min``, down to ``TAIL_FLOOR``); strictness across the seam
    is the cited deformation step, not computed.  The pointwise margins
    stay on ``WarpProfile.blocks``.
    """

    min1: float
    min2: float
    min3: float
    tail_min: float = math.inf


class _Block(NamedTuple):
    """One segment sampled on its grid: the profile columns, the three
    inequality margins, their minima and the rows' CSV text up to h."""

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
    mins: tuple  # (min m1, min m2, min m3); scale-free like the margins
    # The rows' CSV text up to h, "s,f,fp,fpp,", filled by the first
    # ``export_profile``; scale-free, so the scaled copies of a block that
    # ``smooth_origin`` gives each probe share it.
    text: list


def _sample_block(n: int, seg: Segment, s: np.ndarray) -> _Block:
    """Segment ``seg`` sampled at s, with its three inequality margins.

    The margins are scale-free, so they are formed from the unit-scale
    columns (see the module notes on closed forms) before ``seg.scaled``
    applies the fibre scale.  A margin that is not finite raises
    MarginLost (``_finite_minima``).
    """
    import numpy as np
    fmod, hmod = seg.fmod, seg.hmod
    pure_core = isinstance(hmod, _CoreH) and fmod is hmod.core
    if isinstance(hmod, _CoreH):
        # One core evaluation for the h columns, the closed forms h''/h
        # and f'h'/(f h) and, on pure-core and f-flattening segments, the
        # f columns.
        core_f, core_fp = hmod.core.f_fp(s)
        h, hp, hpp, roh, core_cross, core_fpp = hmod.columns(core_f, core_fp)
    else:
        h, hp, hpp = hmod.eval(s)
        if isinstance(hmod, _Sine):
            roh = np.full_like(s, -1.0 / hmod.amp**2)
        else:
            roh = hpp / h
    if pure_core:
        f, fp, fpp = core_f, core_fp, core_fpp
    elif isinstance(hmod, _CoreH) and getattr(fmod, "core", None) is hmod.core:
        f, fp, fpp = fmod.from_core(s, core_f, core_fp, core_fpp)  # the f-flattening
    else:
        f, fp, fpp = fmod.eval(s)
    if isinstance(fmod, _FlatF):
        # f' = f'' = 0: the inequalities collapse to -h''/h and (n-2)/f^2.
        m1 = -roh
        m2 = (n - 2) / (f * f)
        m3 = -roh
    else:
        cross = core_cross if pure_core else fp * (hp / h) / f
        m1 = -(n - 1) * fpp / f - roh
        m2 = -fpp / f + (n - 2) * (1.0 - fp * fp) / (f * f) - cross
        m3 = -roh - (n - 1) * cross
    mins = _finite_minima(seg, (m1, m2, m3))
    columns = _read_only((s, *seg.scaled(f, fp, fpp, h, hp, hpp), m1, m2, m3))
    return _Block(seg, *columns, mins, [])


def _finite_minima(seg: Segment, margins) -> tuple:
    """The minima of segment ``seg``'s margins; MarginLost unless every
    sample is finite, since ``min`` and ``<=`` would silently skip a NaN.
    A margin's ``min()`` and ``max()`` both propagate a NaN, so both are
    finite exactly when every sample is."""
    mins = tuple(float(m.min()) for m in margins)
    if not all(math.isfinite(low) and math.isfinite(m.max()) for low, m in zip(mins, margins)):
        raise MarginLost(
            f"non-finite inequality margin on segment {seg.label} "
            f"[{seg.s0:.6g}, {seg.s1:.6g}]"
        )
    return mins


def _read_only(columns):
    """The columns, made read-only: blocks are shared between profiles."""
    for column in columns:
        column.setflags(write=False)
    return columns


def inequality_margins(w: WarpProfile) -> MarginReport:
    """Minima of the three differential inequalities over the profile."""
    mins = [math.inf, math.inf, math.inf]
    tail_min = math.inf
    for b in w.blocks():
        if b.seg.label == "tail":
            tail_min = min(tail_min, *b.mins)
        else:
            mins = [min(x, y) for x, y in zip(mins, b.mins)]
    return MarginReport(*mins, tail_min)


def _gate(w: WarpProfile, ks, stage: str):
    """MarginLost unless the margin minima of each segment k in ``ks``
    lie above its floor: ``TAIL_FLOOR`` on tail segments, 0 elsewhere.

    Each stage passes the segments it built: ``cap_sine`` its blend,
    ``flatten_h_tail`` the pieces it clipped or gave the tail (the arc up
    to the tail start among them, so the arc past it is never sampled),
    ``smooth_origin`` its three collar segments per r and (``_outer_part``)
    the f-flattening and the clipped core once per (neck, eps).  Later
    stages keep the rest."""
    for b in map(w.block, ks):
        worst = min(b.mins)
        if worst <= (TAIL_FLOOR if b.seg.label == "tail" else 0.0):
            raise MarginLost(
                f"{stage}: inequality margin {worst:.3e} lost on "
                f"segment {b.seg.label} [{b.seg.s0:.6g}, {b.seg.s1:.6g}]"
            )


# ---------------------------------------------------------------------------
# Stage 1: core integration
# ---------------------------------------------------------------------------

def integrate_core(params: WarpParams) -> WarpProfile:
    """Build the core solution and stop where f' reaches lam.

    The core comes from its first integral (``_CoreSolution``), and the
    stop from the closed form of ``find_slope``.  The table's u^2 ends 2
    lam0 ``cap_width`` past the cap's slope target, so s ends over 2
    ``cap_width`` past the cap's Newton start (ds/du > 2u/lam0), or at the
    cap's guard if the target passes it.  NoStop if the first-integral
    residual of the interpolated core exceeds ``_FIRST_INTEGRAL_TOL``.
    """
    p = params.resolve()
    _, target, guard = _cap_slope_target(p, 1.0 + _u2_at_slope(p, p.lam))
    pad = 2.0 * p.lam0 * p.cap_width if target < guard else 0.0
    core = _CoreSolution(p.lam0, p.alpha, math.sqrt(_u2_at_slope(p, min(target, guard)) + pad))
    s_stop = core.find_slope(p.lam)
    residual = core.first_integral_residual(0.0, core.s_end)
    if residual > _FIRST_INTEGRAL_TOL:
        raise NoStop(
            f"core table misses the first-integral tolerance: residual "
            f"{residual:.3e} above {_FIRST_INTEGRAL_TOL:.0e}"
        )
    seg = Segment("core", 0.0, s_stop, core, _CoreH(core))
    return WarpProfile(
        params=p, core=core, segments=(seg,), s_left=0.0, s_lambda=s_stop
    )


# ---------------------------------------------------------------------------
# Stage 2: sine cap
# ---------------------------------------------------------------------------

def _cap_slope_target(p, f_stop):
    """N0 = f(s_stop)/sqrt(1 - lam^2), f'(b) for ``cap_width``, and its guard."""
    root = math.sqrt(1.0 - p.lam * p.lam)
    n0 = f_stop / root
    return n0, p.lam + root * (0.5 * p.cap_width) / n0, p.lam0 - 0.02 * (p.lam0 - p.lam)


def _blend_rows(core, start, big_n, g, width):
    """The cap blend on [a, a + width] from g = f'' at the Chebyshev-Lobatto
    nodes, in order from a (s - a = w tau_j with tau_j = (1 - t_j)/2), and
    the core's ``start`` = (f, f', f'') at a: f = f(a) + f'(a)(s - a) +
    (w/2)^2 K2 g and f' = f'(a) - (w/2) K1 g; the right-hand side F(f) =
    (1-sig) c2 f^(-alpha-1) - sig f/N^2 and its derivatives in f and N, at
    the nodes.  sig is read at tau, as the bridge reads it.  Row 0 of K1
    and K2 is zero, so (f, f') at a are the core's bit for bit."""
    k1, k2, tau, sig = _chebyshev(len(g) - 1)[2:6]
    half = 0.5 * width
    f = start[0] + start[1] * (width * tau) + (half * half) * (k2 @ g)
    fp = start[1] - half * (k1 @ g)
    core_term = (1.0 - sig) * core.fpp_of(f)
    nn = big_n * big_n
    sine_term = sig * f / nn
    rhs_f = (-core.alpha - 1.0) * core_term / f - sig / nn
    return f, fp, core_term - sine_term, rhs_f, 2.0 * sine_term / big_n


def _cap_equations(core, start, big_n, g, width, slope_target):
    """The cap's equations in (g, a, N) and their Jacobian.

    They are the blend's collocation residual g - F(f) at the nodes
    (``_blend_rows``) and the two cap equations at the blend end b: the
    amplitude gap hypot(f(b), N f'(b)) - N and the slope error f'(b) -
    slope_target.  At fixed g, moving a moves the window, which changes f
    by f'(a) + f''(a)(s - a) and f' by f''(a), from the core's ``start``
    at a.  Returns the residual, the Jacobian and the rows f, f' and
    F(f)."""
    import numpy as np
    m = len(g)
    k1, k2, tau = _chebyshev(m - 1)[2:5]
    half = 0.5 * width
    f, fp, rhs, rhs_f, rhs_n = _blend_rows(core, start, big_n, g, width)
    fb, pb = float(f[-1]), float(fp[-1])
    amp = math.hypot(fb, big_n * pb)
    jac = np.empty((m + 2, m + 2))
    jac[:m, :m] = np.eye(m) - (rhs_f * (half * half))[:, None] * k2
    jac[:m, m] = -rhs_f * (start[1] + start[2] * (width * tau))
    jac[:m, m + 1] = -rhs_n
    # The slope error's row is f'(b)'s gradient in (g, a, N); the gap's
    # combines it with f(b)'s.
    jac[m + 1, :m], jac[m + 1, m], jac[m + 1, m + 1] = -half * k1[-1], start[2], 0.0
    cf, cp = fb / amp, big_n * big_n * pb / amp
    jac[m, :m] = cf * (half * half) * k2[-1] + cp * jac[m + 1, :m]
    jac[m, m] = cf * (start[1] + start[2] * width) + cp * start[2]
    jac[m, m + 1] = big_n * pb * pb / amp - 1.0
    res = np.concatenate((g - rhs, (amp - big_n, pb - slope_target)))
    return res, jac, (f, fp, rhs)


def _newton_step(jac, res):
    """The cap Newton step -jac^-1 res; MarginLost if jac is singular or
    the step is not finite."""
    import numpy as np
    try:
        step = np.linalg.solve(jac, -res)
    except np.linalg.LinAlgError:
        raise MarginLost("cap Newton Jacobian is singular") from None
    if not np.isfinite(step).all():
        raise MarginLost("cap Newton step is not finite")
    return step


# Newton steps allowed per blend degree; the golden grid and n = 12 take
# 3, n = 40 and 45 take 4.
_CAP_NEWTON_STEPS = 7


def cap_sine(w: WarpProfile, lam: float, width: float) -> WarpProfile:
    """Blend f into an exact sine arc ending with slope lam.

    The blend interpolates second derivatives from the core equation to
    sine curvature -f/N^2 over the first half of ``width``; N is solved
    so that the post-blend arc has amplitude exactly N, making the
    terminal piece N sin((s - s')/N) with f'(s_lambda) = lam and
    N = f(s_lambda) / sqrt(1 - lam^2) holding identically.

    The blend is a Chebyshev window on [a, b], b = a + width/2: f'' at its
    nodes, integrated from the core's (f, f') at a (``_blend_rows``).
    Those node values, the blend start a and N solve one dense Newton
    system (``_cap_equations``): the collocation residual at the nodes,
    the amplitude gap hypot(f(b), N f'(b)) = N and f'(b) = slope_target.
    Newton starts from f'' = 0 at the nodes, a where the core's f' meets
    the target and N0 = f(s_stop)/sqrt(1 - lam^2), and stops once its step
    is within 1e-9 of a and of N, when quadratic convergence puts the next
    iterate at rounding level.  A step that would take a out of the core
    table (0, s_end) is halved until a stays inside.  No convergence within
    ``_CAP_NEWTON_STEPS`` steps, a singular Jacobian or a non-finite step,
    or an iterate with N <= 0 or core slope f'(a) outside (0, lam0) raises
    MarginLost, and so does an arc that ends past the core table.

    The degree starts at ``_BLEND_DEGREE`` and is sized by doubling
    (``_by_doubling``): at the root, the solve at half the degree and the
    same (a, N), one Newton step in f'' from the root's values at the
    shared nodes, gives the estimate, the largest relative change of f
    and f' at those nodes.  At a doubled degree Newton starts again from
    the root's (a, N).  ``CapInfo`` keeps the degree and the estimate.
    """
    import numpy as np
    p = w.params
    if w.cap is not None:
        raise InputError("cap already applied")
    if abs(lam - p.lam) > 1e-12 or width != p.cap_width:
        raise InputError("cap slope and width must be the profile's lam and cap_width")
    blend_w = 0.5 * width  # the sine arc takes the other half
    core = w.core
    n0, slope_target, guard = _cap_slope_target(p, core.at(w.s_lambda)[0])
    if slope_target >= guard:
        raise MarginLost("cap width too large for the gap between lam and lam0")

    def start_at(a, big_n):  # the core's (f, f', f'') at a, in the slope window
        start = core.at(a)
        if big_n > 0.0 and 0.0 < start[1] < p.lam0:
            return start
        raise MarginLost(f"cap Newton iterate a = {a:.6g} left the slope window")

    a, big_n = core.find_slope(slope_target), n0

    def solve(degree):
        nonlocal a, big_n
        g = np.zeros(degree + 1)
        for _ in range(_CAP_NEWTON_STEPS):
            start = start_at(a, big_n)
            res, jac, _ = _cap_equations(core, start, big_n, g, blend_w, slope_target)
            step = _newton_step(jac, res)
            while not 0.0 < a + step[-2] < core.s_end:  # damped: a stays in the core
                step *= 0.5
            g += step[:-2]
            a, big_n = a + float(step[-2]), big_n + float(step[-1])
            if abs(step[-2]) <= 1e-9 * a and abs(step[-1]) <= 1e-9 * big_n:
                break
        else:
            raise MarginLost(f"cap Newton did not converge in {_CAP_NEWTON_STEPS} steps")
        start = start_at(a, big_n)
        rows = _blend_rows(core, start, big_n, g, blend_w)[:3]
        res, jac, _ = _cap_equations(core, start, big_n, g[::2], blend_w, slope_target)
        coarse = g[::2] + _newton_step(jac[:-2, :-2], res[:-2])
        return rows, _relative_change(rows[:2], _blend_rows(core, start, big_n, coarse, blend_w))

    (fs, fps, fpps), degree, error = _by_doubling(solve, _BLEND_DEGREE, "cap blend")
    b = a + blend_w
    if fps[-1] <= lam:
        raise MarginLost("cap blend lost too much slope; shrink the width")
    theta_b = math.atan2(fs[-1] / big_n, fps[-1])
    s_prime = b - big_n * theta_b
    s_lam = s_prime + big_n * math.acos(lam)
    if s_lam < b:
        raise MarginLost("sine arc ends before the blend; shrink the width")
    if s_lam > core.s_end:
        raise MarginLost("sine arc ends past the core table")

    blend_f = _Window(a, b - a, degree, (fs[::-1], fps[::-1], fpps[::-1]))
    sine_f = _Sine(big_n, s_prime)
    hmod = w.segments[0].hmod
    segments = (
        Segment("core", w.s_left, a, core, hmod),
        Segment("cap", a, b, blend_f, hmod),
        Segment("cap", b, s_lam, sine_f, hmod),
    )
    cap = CapInfo(big_n, s_prime, a, b, degree, error)
    out = w.derive(segments=segments, s_lambda=s_lam, cap=cap)
    _gate(out, (1,), "cap_sine")  # flatten_h_tail gates the arc it keeps
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

    The tail is a Chebyshev window on [t0, s_lambda], solved from t0: at
    its nodes h~' = psi h', h~ = h(t0) + int_t0^s psi h' by K1, and h~'' =
    psi h'' + psi' h', with psi read at the nodes' window parameter, so
    h~(t0) = h(t0) and h~'(s_lambda) = h~''(s_lambda) = 0 exactly.  The
    degree starts at ``_TAIL_DEGREE`` and is sized by doubling
    (``_by_doubling``); the estimate is the largest relative change of h~
    at the nodes shared with half the degree.  ``TailInfo`` keeps both.
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

    s_lam = w.s_lambda
    span, half = s_lam - t0, 0.5 * (s_lam - t0)

    def solve(degree):
        k1, _, tau, sig = _chebyshev(degree)[2:6]  # tau in order from t0
        x = t0 + span * tau
        x[-1] = s_lam
        h, hp, hpp = base.eval(x)
        psi = 1.0 - sig
        tilde_hp = psi * hp
        tilde_h = h[0] - half * (k1 @ tilde_hp)
        coarse = h[0] - half * (_chebyshev(degree // 2)[2] @ tilde_hp[::2])
        # psi' = -30 tau^2 (1 - tau)^2 / span, from smoothstep's derivative.
        tilde_hpp = psi * hpp - (30.0 / span) * (tau * (1.0 - tau)) ** 2 * hp
        rows = (tilde_h[::-1], tilde_hp[::-1], tilde_hpp[::-1])
        return rows, _relative_change((tilde_h,), (coarse,))

    rows, degree, error = _by_doubling(solve, _TAIL_DEGREE, "h tail")
    tail_h = _Window(t0, span, degree, rows)

    segments = []
    for seg in w.segments:
        if seg.s1 <= t0:
            segments.append(seg)
        elif seg.s0 >= t0:
            segments.append(Segment("tail", seg.s0, seg.s1, seg.fmod, tail_h, seg.h_scale))
        else:
            segments.append(Segment(seg.label, seg.s0, t0, seg.fmod, seg.hmod, seg.h_scale))
            segments.append(Segment("tail", t0, seg.s1, seg.fmod, tail_h, seg.h_scale))
    out = w.derive(segments=tuple(segments), tail=TailInfo(t0, width, degree, error))
    built = [k for k, s in enumerate(segments) if s not in w.segments]
    _gate(out, built, "flatten_h_tail")
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


class _FlattenedF:
    """f of the f-flattening of the origin collar, exact on its plateau.

    f'' = omega f''_c on [a0, b1] = [flat_end, rejoin], with f'(a0) = 0
    and the core's (f, f') at b1.  omega rises over the left ramp [a0, a1]
    (a1 = a0 + ramp) from 0 to a plateau P and descends over the right
    ramp [b0, b1] (b0 = b1 - ramp) to 1, so f rejoins the core with its
    second derivative too.  P is the linear solve that recovers the slope
    the flat zone lost:

        f'_c(b1) = P (J_L + f'_c(b0) - f'_c(a1) + J_R1) + J_R2,

    with J_L the left ramp's integral of sigma_L f''_c and J_R1, J_R2 the
    right ramp's of (1 - sigma_R) f''_c and sigma_R f''_c; the plateau
    contributes P (f'_c(b0) - f'_c(a1)) in closed form.

    The three integrands at the nodes of both ramps come from one core
    evaluation, and one K1 and one K2 product integrate them, the left
    ramp from a0 and the right from b1; the J are the K1 product's last
    row times -w/2.  Each ramp is then a ``_Window`` of f and f'.  The
    degree starts at ``_RAMP_DEGREE`` and is sized by doubling: the
    estimate (``error``) is each product column's largest change from
    half the degree, as a share of its largest value.  On the plateau
    omega = P, so f = P (f_c - f_c(b0)) + A (s - b0) + f(b0) and f' = P
    f'_c + A, with A = f'(b0) - P f'_c(b0).  f'(a0) = 0 and (f, f') at b1
    are the core's exactly; f'' = omega f''_c everywhere.  ``flat_value``
    is f(a0), ``plateau`` P.
    """

    def __init__(self, core, flat_end: float, rejoin: float, ramp: float):
        import numpy as np
        self.core, self.ramp = core, ramp
        self.a0, self.a1 = flat_end, flat_end + ramp
        self.b0, self.b1 = rejoin - ramp, rejoin
        wl, wr = self.a1 - self.a0, self.b1 - self.b0

        def solve(degree):
            # tau in order from a0 on the left, from b1 on the right.
            k1, k2, tau, sig_l, sig_r = _chebyshev(degree)[2:]
            x = np.concatenate((self.a0 + wl * tau, self.b1 - wr * tau))
            x[degree], x[-1] = self.a1, self.b0
            f_c, fp_c, fpp_c = core.eval(x)
            left, right = fpp_c[: degree + 1], fpp_c[degree + 1:]
            g = np.stack((sig_l * left, (1.0 - sig_r) * right, sig_r * right), axis=1)
            fine = (k1 @ g, k2 @ g)
            coarse = (k @ g[::2] for k in _chebyshev(degree // 2)[2:4])
            change = [np.max(np.abs(y[::2] - c), axis=0) / np.max(np.abs(y), axis=0)
                      for y, c in zip(fine, coarse)]
            return (tau, f_c, fp_c, *fine), float(np.max(change))

        (tau, f_c, fp_c, i1, i2), self.degree, self.error = _by_doubling(
            solve, _RAMP_DEGREE, "f-flattening ramps"
        )
        m, hl, hr = self.degree + 1, 0.5 * wl, 0.5 * wr
        f_end, fp_end = f_c[m], fp_c[m]  # the core's at b1
        j_l, j_r1, j_r2 = -hl * i1[-1, 0], -hr * i1[-1, 1], -hr * i1[-1, 2]
        p = float((fp_end - j_r2) / (j_l + fp_c[-1] - fp_c[m - 1] + j_r1))
        self.plateau = p
        # The right ramp from b1; at b0 it gives f and f' there, and on the
        # plateau f' - P f'_c is the constant A.
        fp_r = fp_end + hr * (p * i1[:, 1] + i1[:, 2])
        f_r = f_end - fp_end * (wr * tau) + (hr * hr) * (p * i2[:, 1] + i2[:, 2])
        self.fc_b0, self.fpc_b0 = f_c[-1], fp_c[-1]
        self.f_b0, self.fp_b0 = f_r[-1], fp_r[-1]
        self.big_a = self.fp_b0 - p * self.fpc_b0
        f_a1 = p * (f_c[m - 1] - self.fc_b0) + self.big_a * (self.a1 - self.b0) + self.f_b0
        self.flat_value = float(f_a1 - (hl * hl) * p * i2[-1, 0])
        # The left ramp from f'(a0) = 0, stored reversed like the cap blend.
        f_l = self.flat_value + (hl * hl) * p * i2[:, 0]
        fp_l = 0.0 - hl * p * i1[:, 0]  # +0.0 at a0, where K1's row is 0
        self.left = _Window(self.a0, wl, self.degree, (f_l[::-1], fp_l[::-1]))
        self.right = _Window(self.b0, wr, self.degree, (f_r, fp_r))

    def omega(self, s):
        sig_l = smoothstep((s - self.a0) / self.ramp)
        sig_r = smoothstep((s - self.b0) / self.ramp)
        return sig_l * (self.plateau - (self.plateau - 1.0) * sig_r)

    def eval(self, s):
        import numpy as np
        s = np.asarray(s, dtype=float)
        return self.from_core(s, *self.core.eval(s))

    def from_core(self, s, f_c, fp_c, fpp_c):
        """(f, f', f'') at the locations s, from the core's f, f' and f''
        there."""
        p = self.plateau
        f = p * (f_c - self.fc_b0) + self.big_a * (s - self.b0) + self.f_b0
        fp = p * (fp_c - self.fpc_b0) + self.fp_b0
        for window, on in ((self.left, s < self.a1), (self.right, s > self.b0)):
            if on.any():
                f[on], fp[on] = window.eval(s[on])
        return f, fp, self.omega(s) * fpp_c


def _smooth_kink(core_h, r, radius_hat, x0, x1):
    """Bridge from the splice sine into r times the core h on [x0, x1].

    The bridge solves h'' = a h + b with a = -(1 - sig)/radius_hat^2 and
    b = sig r h_c'': its second derivative blends sine-type curvature
    into the rescaled core's, both negative, so it never loses concavity.
    It starts from r times the core's (h, h') at x1, which closes the
    right seam exactly, and the exact sine through its (h, h') at x0
    closes the left seam exactly (the sine is re-solved there).

    The solve is Chebyshev spectral integration from x1 (``_chebyshev``):
    with g = h'' at the nodes, h = h1 + h1' (x - x1) + (w/2)^2 K2 g and
    h' = h1' + (w/2) K1 g for the width w, so (I - diag(a) (w/2)^2 K2) g
    = a (h1 + h1' (x - x1)) + b.  sig is read at the nodes' t, which is
    exact; x - x0 near s = 1e-3 would carry an ulp of s, 1e-10 of the
    window at r = 2^-19.  The degree is sized by doubling: the estimate
    is the larger relative change of (h, h') at x0 from the solve at half
    the degree, on every other node (``_by_doubling``).

    Returns the ``_Window`` model (h'' = a h + b at the nodes), (h, h')
    at x0, the degree and the error estimate.
    """
    import numpy as np
    width, half = x1 - x0, 0.5 * (x1 - x0)
    inv_r2 = 1.0 / (radius_hat * radius_hat)

    def integrate(degree, a, b, h1, hp1):
        t, _, k1, k2 = _chebyshev(degree)[:4]
        line = h1 + hp1 * half * (t - 1.0)
        m = np.eye(degree + 1) - (a * (half * half))[:, None] * k2
        g = np.linalg.solve(m, a * line + b)
        return line + (half * half) * (k2 @ g), hp1 + half * (k1 @ g)

    def solve(degree):
        t, *_, sig = _chebyshev(degree)
        x = x0 + half * (1.0 + t)
        x[0] = x1
        h_c, hp_c, hpp_c = core_h.from_core(*core_h.core.f_fp(x))
        a, b = -(1.0 - sig) * inv_r2, sig * (r * hpp_c)
        h1, hp1 = float(r * h_c[0]), float(r * hp_c[0])
        h, hp = integrate(degree, a, b, h1, hp1)
        coarse = integrate(degree // 2, a[::2], b[::2], h1, hp1)
        error = max(abs(y[-1] - c[-1]) / abs(y[-1]) for y, c in zip((h, hp), coarse))
        return (h, hp, a * h + b), float(error)

    rows, degree, error = _by_doubling(solve, _BRIDGE_DEGREE, "origin bridge")
    return _Window(x0, width, degree, rows), float(rows[0][-1]), float(rows[1][-1]), degree, error


def _outer_part(w: WarpProfile, eps: float, flat_end: float, ramp: float):
    """The neck from ``flat_end`` out at unit fibre scale, its first
    segment's f the f-flattening (``_FlattenedF``).

    None of it depends on r: the flattening blend ends at eps, and every
    segment right of eps is the neck clipped there.  Built and gated once
    per (neck, eps) and kept on the neck, one eps at a time, in
    ``_outer_memo`` = [eps, outer part, r = 1 probe]; the last slot is
    empty until ``smooth_origin`` builds that probe, and a new eps
    empties it.
    """
    cached = w._outer_memo
    if not cached or cached[0] != eps:
        blend_f = _FlattenedF(w.core, flat_end, eps, ramp)
        segments = [Segment("flat", flat_end, eps, blend_f, _CoreH(w.core))]
        for seg in w.segments:
            if seg.s0 >= eps:
                segments.append(seg)
            elif seg.s1 > eps:
                segments.append(Segment(seg.label, eps, seg.s1, seg.fmod, seg.hmod, seg.h_scale))
        outer = w.derive(segments=tuple(segments), s_left=flat_end)
        _gate(outer, (0, 1), "smooth_origin")  # eps lies on the neck's core
        cached[:] = (eps, outer, None)
    return cached[1]


def smooth_origin(w: WarpProfile, r: float, eps: float) -> WarpProfile:
    """Rescale h by r and rebuild the origin collar.

    After the rescale the spliced segment is an exact sine
    R sin((s - eps')/R) with unit slope at the new left endpoint eps',
    C^1-matched to r*h at the splice point and bridged through a small
    smoothing window (``_smooth_kink``, a spectral solve of the bridge
    equation); f is flattened to a constant over the splice and
    rejoined to the core solution exactly at ``eps``.  Everything right of
    the flat end is built once per (w, eps) and shared by the profiles of
    every r (see ``_outer_part``).  The r = 1 probe, which every
    ``search_r`` starts from, is built and gated once per (w, eps) too
    and kept beside it: a repeat call returns the same object, until a
    call with another eps replaces the outer part.  It holds the outer
    part's segments and sampled blocks themselves, since at unit scale
    they need no copy, and no reference to w, so it dies with w.
    """
    if w.cap is None or w.tail is None:
        raise InputError("smooth_origin expects a capped, tail-flattened profile")
    if w.origin is not None:
        raise InputError("origin smoothing already applied")
    if not 0.0 < r <= 1.0:
        raise InputError("fibre scale r must lie in (0, 1]")
    if not 0.0 < eps < 0.8 * w.cap.blend_start:
        raise InputError("origin budget eps must leave a core zone intact")
    memo = w._outer_memo  # [eps, outer part, r = 1 probe]
    if r == 1.0 and memo and memo[0] == eps and memo[2] is not None:
        return memo[2]

    core = w.core
    delta = 0.001 * eps
    flat_end = 2.0 * delta
    ramp = 0.008 * eps
    splice_point = 1.2 * delta

    # Nominal sine through the unsmoothed r*h at the splice point; the
    # bridge below re-solves the exact parameters at the same point.
    core_h = _CoreH(core)
    h_sp, hp_sp, _ = core_h.from_core(*core.at(splice_point)[:2])
    radius_hat, _ = _solve_splice(float(h_sp), float(hp_sp), r)
    w_k = min(0.2 * (flat_end - splice_point), 0.5 * radius_hat)
    x0, x1 = splice_point, splice_point + 2.0 * w_k
    if x1 == x0:
        raise NoSolution(f"fibre scale r = {r!r} collapses the origin bridge window to a point")

    outer = _outer_part(w, eps, flat_end, ramp)
    flattening = outer.segments[0].fmod
    flat_f = _FlatF(flattening.flat_value)
    kink_h, h_x0, hp_x0, bridge_degree, bridge_error = _smooth_kink(core_h, r, radius_hat, x0, x1)
    if not 0.0 < hp_x0 < 1.0 or h_x0 <= 0.0:
        raise NoSolution(
            f"bridge slope {hp_x0:.6f} at the splice point does not admit a sine"
        )
    radius = h_x0 / math.sqrt(1.0 - hp_x0 * hp_x0)
    u0 = math.atan2(h_x0 / radius, hp_x0)
    eps_prime = x0 - radius * u0

    # At r = 1 the outer segments are the probe's as they are: with
    # h_scale 1.0 a copy would equal them, and 1.0 h is h bit for bit.
    shared = outer.segments if r == 1.0 else tuple(
        Segment(seg.label, seg.s0, seg.s1, seg.fmod, seg.hmod, r) for seg in outer.segments
    )
    segments = (
        Segment("splice", eps_prime, x0, flat_f, _Sine(radius, eps_prime)),
        Segment("flat", x0, x1, flat_f, kink_h),
        Segment("flat", x1, flat_end, flat_f, core_h, h_scale=r),
    ) + shared

    out = WarpProfile(
        params=w.params,
        core=w.core,
        segments=segments,
        s_left=eps_prime,
        s_lambda=w.s_lambda,
        r=r,
        cap=w.cap,
        tail=w.tail,
        origin=OriginInfo(
            radius=radius,
            eps_prime=eps_prime,
            splice_point=splice_point,
            kink_halfwidth=w_k,
            flat_end=flat_end,
            rejoin=eps,
            flat_value=flattening.flat_value,
            plateau=flattening.plateau,
            bridge_degree=bridge_degree,
            bridge_error=bridge_error,
            ramp_degree=flattening.degree,
            ramp_error=flattening.error,
        ),
    )
    _gate(out, (0, 1, 2), "smooth_origin")
    # The neck's outer blocks with h scaled by r (margins and row text are
    # scale-free); every probe reads them all, so they are built here, not
    # on demand.  At r = 1 they are the outer part's own blocks.
    if r == 1.0:
        out._memo.update(zip(shared, outer.blocks()))
        memo[2] = out
    else:
        out._memo.update(
            (seg, _Block(seg, u.s, *_read_only(seg.scaled(*u[2:8])), *u[8:]))
            for seg, u in zip(shared, outer.blocks())
        )
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
    """Write the sampled profile as CSV (17 significant digits).

    A row is its block's kept text for s, f, f' and f'' (``_Block.text``,
    formatted on the block's first export) followed by h, h' and h''.
    That text lives as long as the block: a probe of ``smooth_origin``
    shares it with its neck's outer part and every other probe of that
    (neck, eps), so across fibre scales r only the h columns and the
    probe's own collar rows are formatted again.
    """
    blocks = []
    for b in w.blocks():
        if not b.text:
            b.text.extend(map("%.17g,%.17g,%.17g,%.17g,".__mod__, zip(
                b.s.tolist(), b.f.tolist(), b.fp.tolist(), b.fpp.tolist()
            )))
        # One format call per block: the row format once per row, over
        # the rows' cells in order.
        rows = "\n".join(["%s%.17g,%.17g,%.17g," + b.seg.label] * len(b.text))
        blocks.append(rows % tuple(chain.from_iterable(zip(
            b.text, b.h.tolist(), b.hp.tolist(), b.hpp.tolist()
        ))))
    text = CSV_HEADER + "\n" + "\n".join(blocks) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8") as fh:
            fh.write(text)
