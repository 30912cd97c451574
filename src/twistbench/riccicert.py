"""Ricci-positivity certification for the doubly warped neck and the
bundle region it glues to.

The neck metric couples the warped profile (f, h_r) to a connection
whose curvature is either identically zero on the neck (``trivial``
mode, the product connection on the trivialized part) or only known
through worst-case bounds on its components (``bounded`` mode).
Diagonal Ricci entries are bounded below, mixed entries above, and the
per-sample eigenvalue lower bound is the Gershgorin bound of the 3x3
frame block (fibre direction, sphere direction, radial direction).
Every curvature term only lowers a row, so the bound never exceeds
min(m1, m2, m3) of the inequality margins, and equals it where no
curvature acts; ``_FrameFold`` runs the bounded arithmetic only on the
samples the curvature support reaches, and a report keeps the two minima
(strict zone, seam collar), not per-sample columns.  ``search_r``
prepares the same fold once on the r = 1 probe's blocks right of the
origin collar and reports every probe, r = 1 included, from that fold
at its scale and the probe's collar minima (``_probe_report``).

The bundle region is handled through the constant-fibre-length
formulas with a harmonic curvature representative, which kills the
mixed term and leaves a closed-form horizontal bound that can be
inverted for the fibre scale.  The vertical entry's honest lower bound
is 0, so the horizontal bound alone decides the bundle region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import warpmetric
from .errors import Exhausted, InputError, NotPositive
from .warpmetric import TAIL_FLOOR, WarpParams, WarpProfile, _stage


# ---------------------------------------------------------------------------
# Connection models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectionModel:
    """Either the product connection on the neck or interval bounds.

    ``sup_f`` bounds the absolute value of every curvature component in
    the orthonormal frame of the round sphere plus the radial direction;
    ``sup_delta_f`` bounds the codifferential's components.  ``support``
    restricts where the curvature may be nonzero; it must stay away from
    the left end of the neck, where the connection is the product one.
    """

    variant: str  # "trivial" | "bounded"
    sup_f: float = 0.0
    sup_delta_f: float = 0.0
    support: tuple | None = None  # (lo, hi) in profile coordinates

    def __post_init__(self):
        if self.variant not in ("trivial", "bounded"):
            raise InputError(f"unknown connection variant {self.variant!r}")
        bounds = (self.sup_f, self.sup_delta_f, *(self.support or ()))
        if not all(map(math.isfinite, bounds)):  # NaN fails every test below
            raise InputError("curvature bounds and support must be finite")
        if self.sup_f < 0 or self.sup_delta_f < 0:
            raise InputError("curvature bounds must be nonnegative")
        if self.variant == "trivial" and (self.sup_f or self.sup_delta_f):
            raise InputError("trivial connections carry no curvature bounds")
        if self.support is not None and self.support[0] >= self.support[1]:
            raise InputError("empty curvature support")


TRIVIAL_CONNECTION = ConnectionModel("trivial")


# ---------------------------------------------------------------------------
# Neck certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RicciReport:
    """The neck's Ricci eigenvalue lower bounds, as minima.

    ``margin`` is the eigenvalue lower bound over the strict zone; the
    flattened seam collar (where the fibre direction is brought exactly
    to the product form, so Ric(T,T) closes to zero at the boundary) is
    certified nonnegative via ``tail_margin``.  Each is at most the
    least inequality margin of its zone.  Per-sample bounds are not
    kept: ``_FrameFold.bounds`` recomputes them.
    """

    margin: float
    tail_margin: float


class _FrameFold:
    """The Ricci frame bound of some sampled blocks, prepared once and
    folded at any fibre scale.

    The frame is (fibre T, sphere X/f, radial ds).  Its diagonal entries
    are the inequality margins less worst-case curvature losses (the
    curvature term in Ric(T,T) is nonnegative and dropped), its mixed
    entries are bounded above in absolute value, and the per-sample bound
    is the Gershgorin bound of the 3x3 block.  Every loss and mixed bound
    is nonnegative whatever the signs of h and h', so the bound never
    exceeds min(m1, m2, m3).  Curvature acts only where a bounded
    connection's support reaches; elsewhere, and everywhere for a trivial
    connection, the bound is min(m1, m2, m3) exactly, which no scale
    changes.  So the blocks are read once, per group (the strict zone,
    and the seam collar labelled ``tail``): f, h, h' and m1-m3 at the
    samples the support reaches, concatenated, and min(m1, m2, m3) over
    the group's other samples.  The support must avoid w's
    product-connection collar.
    """

    def __init__(self, w: WarpProfile, c: ConnectionModel, blocks):
        self.n, self.beta, self.beta_delta = w.params.n, c.sup_f, c.sup_delta_f
        bounded = c.variant == "bounded"
        if bounded:
            collar_end = w.origin.rejoin if w.origin else w.s_left
            lo = c.support[0] if c.support else collar_end
            if lo < collar_end - 1e-12:
                raise InputError("curvature support must avoid the product-connection collar")
            hi = c.support[1] if c.support else w.s_lambda
        reached = {False: [], True: []}  # keyed by "is the seam collar"
        rest = {False: math.inf, True: math.inf}
        for b in blocks:
            tail = b.seg.label == "tail"
            # A block's samples rise along s (``segment_grid``), so the
            # support reaches one run of them, [i, j).
            i, j = 0, 0
            if bounded:
                i, j = int(b.s.searchsorted(lo)), int(b.s.searchsorted(hi, "right"))
            if i >= j:
                rest[tail] = min(rest[tail], *b.mins)
                continue
            reached[tail].append([x[i:j] for x in (b.f, b.h, b.hp, b.m1, b.m2, b.m3)])
            low = np.minimum(b.m1, np.minimum(b.m2, b.m3))
            rest[tail] = min([rest[tail], *(float(np.min(x)) for x in (low[:i], low[j:]) if len(x))])
        self.groups = tuple(
            ([np.concatenate(x) for x in zip(*reached[tail])], rest[tail])
            for tail in (False, True)
        )

    def bounds(self, scale: float = 1.0) -> tuple:
        """The bound at the reached samples of each group (strict, tail),
        with h and h' times ``scale``: ``search_r`` folds the r = 1
        probe's blocks at scale r as the blocks of the probe at r."""
        n, beta, beta_delta = self.n, self.beta, self.beta_delta
        out = []
        for columns, _ in self.groups:
            if not columns:
                out.append(np.empty(0))
                continue
            f, h, hp, m1, m2, m3 = columns
            h, hp = scale * h, scale * hp
            f_sq = f * f
            half_h_sq = 0.5 * (h * h)
            loss_sphere = half_h_sq / (f_sq * f_sq) * (n - 1) * beta**2
            loss_radial = half_h_sq / f_sq * (n - 1) * beta**2
            mix_ts = 0.5 * np.abs(h) * beta_delta
            mix_tx = mix_ts + 1.5 * np.abs(hp) * beta
            mix_xs = half_h_sq / (f_sq * f) * (n - 1) * beta**2
            row_t = m3 - mix_tx - mix_ts
            row_x = m2 - loss_sphere - mix_tx - mix_xs
            row_s = m1 - loss_radial - mix_ts - mix_xs
            out.append(np.minimum(row_t, np.minimum(row_x, row_s)))
        return tuple(out)

    def minima(self, scale: float = 1.0) -> tuple:
        """(strict, tail): the least bound over every sample of each group."""
        return tuple(
            min(float(np.min(eig)), rest) if len(eig) else rest
            for eig, (_, rest) in zip(self.bounds(scale), self.groups)
        )


def ricci_neck(
    w: WarpProfile, c: ConnectionModel, r: float | None = None
) -> RicciReport:
    """Lower-bound the Ricci eigenvalues of the neck metric.

    With no curvature the diagonal entries are exactly the three
    inequality margins (so they do not depend on the fibre scale) and
    every mixed bound vanishes, so the bounds are the minima of
    ``inequality_margins``.  In bounded mode ``_FrameFold`` runs on the
    samples the curvature support reaches, with worst-case signs and the
    profile's scaled h, and folds their minimum with the margins' minimum
    over the other samples.  Raises NotPositive, carrying the report, if
    the strict-zone bound is not positive or the seam collar's falls
    below ``TAIL_FLOOR``.  ``search_r`` gives each of its probes this
    report without calling it.
    """
    if r is not None and abs(r - w.r) > 1e-15:
        raise InputError("profile was built with a different fibre scale")
    strict_min, tail_min = _FrameFold(w, c, w.blocks()).minima()
    report = RicciReport(strict_min, tail_min)
    if strict_min <= 0.0:
        raise NotPositive(f"neck eigenvalue lower bound {strict_min:.3e}", report)
    if tail_min < TAIL_FLOOR:
        raise NotPositive(f"seam collar lost nonnegativity: {tail_min:.3e}", report)
    return report


def _probe_report(w: WarpProfile, minima: tuple) -> RicciReport:
    """``ricci_neck``'s report of a ``search_r`` probe (any verdict), given
    ``minima``, the (strict, tail) fold of its blocks right of its flat end.

    The collar left of the flat end is strict zone that a curvature
    support never reaches, so it adds only the minima of its margins."""
    collar = [m for b in w.blocks() if b.seg.s0 < w.origin.flat_end for m in b.mins]
    return RicciReport(min(minima[0], *collar), minima[1])


# ---------------------------------------------------------------------------
# Bundle region
# ---------------------------------------------------------------------------

def ricci_bundle(
    ric_min_base: float, c_base: ConnectionModel, phi: float, n: int
) -> float:
    """The horizontal Ricci lower bound of the constant-fibre-length
    bundle metric.

    Assumes a harmonic curvature representative, so the fibre-horizontal
    mixed term vanishes.  The vertical entry is (e^{2 phi}/4) |F|^2 >= 0;
    with only a sup bound available its honest lower bound is 0, so the
    bundle region is certified nonnegative exactly when this bound is
    (strict positivity is claimed only where reported).
    """
    if ric_min_base <= 0:
        raise InputError("base Ricci lower bound must be positive")
    return ric_min_base - 0.5 * math.exp(2.0 * phi) * (n - 1) * c_base.sup_f**2


PHI_FLOOR = -20.0


def choose_phi(
    ric_min_base: float, c_base: ConnectionModel, safety: float, n: int
) -> float:
    """Largest phi whose horizontal bundle bound keeps ``safety`` of the base.

    Closed-form inversion of the ricci_bundle bound.  A vanishing
    curvature bound puts no constraint on phi and returns math.inf;
    degenerate safety values clamp to the floor instead of returning
    -inf.
    """
    if not 0.0 < safety <= 1.0:
        raise InputError("safety must lie in (0, 1]")
    if c_base.sup_f == 0.0:
        return math.inf
    slack = (1.0 - safety) * ric_min_base
    if slack <= 0.0:
        return PHI_FLOOR
    phi = 0.5 * math.log(2.0 * slack / ((n - 1) * c_base.sup_f**2))
    return max(phi, PHI_FLOOR)


# ---------------------------------------------------------------------------
# Gluing checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GluingReport:
    resid_fprime: float
    resid_cap: float
    resid_h_slope: float
    passed: bool


def verify_gluing(w: WarpProfile, s0: float, tol: float = 1e-8) -> GluingReport:
    """Check the sphere-cap matching at the outer end.

    The outer slope must be cos(s0), the rescaled cap value sin(s0), and
    the fibre length must be flat (h' = 0) at the seam.
    """
    if w.cap is None:
        raise InputError("profile has no cap to glue")
    lam = math.cos(s0)
    f, fp, _, _, hp, _ = w.evaluate(w.s_lambda)
    resid_fprime = abs(fp - lam)
    resid_cap = abs(f / w.cap.big_n - math.sin(s0))
    resid_h = abs(hp)
    passed = resid_fprime < tol and resid_cap < tol and resid_h < tol
    return GluingReport(resid_fprime, resid_cap, resid_h, passed)


# ---------------------------------------------------------------------------
# Fibre-scale search
# ---------------------------------------------------------------------------

R_FLOOR = 1e-6


def _outer_segments(w: WarpProfile) -> list:
    """The segments of a ``smooth_origin`` probe right of its flat end."""
    if w.origin is None:
        raise InputError("search_r expects profiles built by smooth_origin")
    return [seg for seg in w.segments if seg.s0 >= w.origin.flat_end]


def search_r(builder, c: ConnectionModel, target_margin: float):
    """Largest fibre scale on the grid {2^-k} certifying the target margin.

    ``builder`` maps r to a ``smooth_origin`` probe of one neck and eps.
    After the coarse grid hit, the boundary is bisected to two extra
    decimal digits.  Raises Exhausted when no scale above the floor
    certifies.

    Right of its flat end every probe holds the r = 1 probe's segments
    with h, h' and h'' times r, and a bounded connection's support avoids
    the collar left of it; the collar's margins can only lower the bound.
    So after r = 1 a probe is built only if the r = 1 probe's outer
    blocks, folded at scale r, reach the target; otherwise it fails
    unbuilt, and the decisions are those of building every probe.  That
    fold (``_FrameFold``) is prepared once per search, from the samples
    the support reaches and the margins' minimum over the others, and is
    dropped when the search returns; each scale then runs the bounded
    arithmetic on those samples alone.  Every built probe, r = 1 included,
    takes its report from that fold at its scale and its collar's margins
    (``_probe_report``): the report ``ricci_neck`` gives it, without a
    second fold.  Each built probe must share those segments, or
    InputError is raised; it shares their sampled blocks, and their CSV
    text once exported, with every probe of the neck and eps
    (``smooth_origin``, ``export_profile``).  Two failing scales are built as witnesses: the
    returned bracket's failing end and, before Exhausted, the last grid
    scale above ``R_FLOOR``.  An unbuilt probe never builds its collar,
    so a collar failure at a scale that fails anyway does not stop the
    search; the returned profile is always fully built and gated.
    """
    first = builder(1.0)
    outer = _outer_segments(first)
    built = set()

    def checked(profile, r):
        segments = _outer_segments(profile)
        if len(segments) != len(outer) or any(
            s.label != t.label or (s.s0, s.s1) != (t.s0, t.s1)
            or s.fmod is not t.fmod or s.hmod is not t.hmod or s.h_scale != r
            for s, t in zip(segments, outer)
        ):
            raise InputError(
                "search_r probes must share the r = 1 probe's segments right "
                "of its flat end, with h scaled by r"
            )
        built.add(r)
        return profile

    kept = set(outer)
    fold = _FrameFold(checked(first, 1.0), c, [b for b in first.blocks() if b.seg in kept])
    report = _probe_report(first, fold.minima(1.0))
    if report.margin >= target_margin:
        return 1.0, first, report

    def passing(r):
        """The probe at r and its report if it reaches the target, else None."""
        minima = fold.minima(r)
        if minima[0] < target_margin:
            return None
        profile = checked(builder(r), r)
        report = _probe_report(profile, minima)
        return (profile, report) if report.margin >= target_margin else None

    def witness(r):
        if r not in built:
            checked(builder(r), r)

    k = 1
    while (found := passing(2.0 ** (-k))) is None:
        k += 1
        if 2.0 ** (-k) < R_FLOOR:
            witness(2.0 ** (1 - k))
            raise Exhausted(f"no fibre scale above {R_FLOOR} certifies the margin")
    lo, (lo_profile, lo_report), hi = 2.0 ** (-k), found, 2.0 ** (1 - k)
    while hi / lo > 1.01:
        mid = 0.5 * (lo + hi)
        found = passing(mid)
        if found is None:
            hi = mid
        else:
            lo, (lo_profile, lo_report) = mid, found
    witness(hi)
    return lo, lo_profile, lo_report


# ---------------------------------------------------------------------------
# End-to-end certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertificationResult:
    n: int
    s0: float
    lam: float
    lam0: float
    alpha: float
    s_lambda: float
    big_n: float
    r: float
    phi: float
    margin_ineq1: float
    margin_ineq2: float
    margin_ineq3: float
    margin_ricci: float
    gluing: GluingReport
    bundle: float  # the bundle region's horizontal Ricci lower bound
    first_integral_residual: float
    verdict: str
    profile: WarpProfile = field(repr=False)
    neck_report: RicciReport = field(repr=False)
    annotation: str = (
        "strict positivity certified left of the seam collar; the collar and "
        "bundle region are certified nonnegative, and upgrading the glued "
        "metric to strict positivity everywhere is the cited deformation "
        "step, recorded here rather than computed"
    )

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "n": self.n,
                "s0": self.s0,
                "lambda": self.lam,
                "lambda0": self.lam0,
                "alpha": self.alpha,
                "s_lambda": self.s_lambda,
                "N": self.big_n,
                "r": self.r,
                "phi": self.phi,
            },
            "margins": {
                "ineq1": self.margin_ineq1,
                "ineq2": self.margin_ineq2,
                "ineq3": self.margin_ineq3,
                "ricci": self.margin_ricci,
            },
            "gluing": {
                "resid_fprime": self.gluing.resid_fprime,
                "resid_cap": self.gluing.resid_cap,
                "pass": self.gluing.passed,
            },
            "verdict": self.verdict,
        }


def certify(
    n: int,
    s0: float,
    c: ConnectionModel = TRIVIAL_CONNECTION,
    ric_min_base: float = 1.0,
    *,
    params: WarpParams | None = None,
    target_margin: float = 1e-6,
    safety: float = 0.5,
    tol_glue: float = 1e-8,
) -> CertificationResult:
    """Run the full pipeline for one surgery radius.

    Builds the profile for lam = cos(s0), searches the fibre scale,
    caps it by the bundle-side constraint on the fibre length, and
    bundles every report with a verdict.  Stage failures are wrapped in
    StageError with the stage name.
    """
    if n < 3:
        raise InputError("need dimension n >= 3")
    if not 0.0 < s0 < 0.5 * math.pi:
        raise InputError("gluing radius s0 must lie in (0, pi/2)")
    lam = math.cos(s0)
    if params is None:
        params = WarpParams(n=n, lam=lam)
    elif abs(params.lam - lam) > 1e-12:
        raise InputError("params.lam must equal cos(s0)")
    p = params.resolve()
    base, eps = warpmetric.build_neck(p)

    def builder(r):
        # Labelled here so a collar failure inside search_r names its stage.
        return _stage("smooth_origin", warpmetric.smooth_origin, base, r, eps)

    r, profile, neck_report = _stage("search_r", search_r, builder, c, target_margin)

    # The seam fixes the fibre length: e^phi = h_r(s_lambda) / N.  The
    # curvature side caps phi; shrink r further if the cap binds.
    phi_cap = choose_phi(ric_min_base, c, safety, n)
    h_end = profile.evaluate(profile.s_lambda)[3]
    phi = math.log(h_end / profile.cap.big_n)
    if phi > phi_cap:
        shrink = math.exp(phi_cap - phi)
        r = r * shrink * 0.999
        profile = builder(r)
        neck_report = _stage("ricci_neck", ricci_neck, profile, c, r)
        h_end = profile.evaluate(profile.s_lambda)[3]
        phi = math.log(h_end / profile.cap.big_n)

    bundle = _stage("ricci_bundle", ricci_bundle, ric_min_base, c, phi, n)
    gluing = _stage("verify_gluing", verify_gluing, profile, s0, tol_glue)
    margins = warpmetric.inequality_margins(profile)
    fi_resid = profile.first_integral_residual()

    # The Ricci bounds never exceed the inequality margins of their zone,
    # so the first two conditions also hold the margins above 0 and
    # TAIL_FLOOR.
    ok = (
        neck_report.margin > 0.0
        and neck_report.tail_margin >= TAIL_FLOOR
        and gluing.passed
        and fi_resid < p.tol_ode
        and bundle >= 0.0
    )
    return CertificationResult(
        n=n,
        s0=s0,
        lam=lam,
        lam0=p.lam0,
        alpha=p.alpha,
        s_lambda=profile.s_lambda,
        big_n=profile.cap.big_n,
        r=r,
        phi=phi,
        margin_ineq1=margins.min1,
        margin_ineq2=margins.min2,
        margin_ineq3=margins.min3,
        margin_ricci=neck_report.margin,
        gluing=gluing,
        bundle=bundle,
        first_integral_residual=fi_resid,
        verdict="pass" if ok else "fail",
        profile=profile,
        neck_report=neck_report,
    )
