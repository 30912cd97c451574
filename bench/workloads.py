"""The three benchmark workloads.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  A workload makes its inputs from the
seed alone, runs one op at a time through the program's public entry
points, and checks each op's output between ops, off the clock.

* ``certify_grid`` -- 12 ``twistbench certify`` requests in seed-shuffled
  order: what users run, and where ``warpmetric.cap_sine`` does nearly
  all the work.
* ``scale_search`` -- ``riccicert.search_r`` for seeded bounded
  connections on three base necks built during set-up, then a CSV export
  of the certified profile.  ``cap_sine`` does no work inside these ops;
  origin smoothing, the Ricci bounds and margin sampling do.
* ``topology_queries`` -- a seeded mix of exact-topology CLI requests.
  No warped-metric code runs, so it is the bypass workload for every
  metric-side change.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from itertools import cycle

EXIT_OK, EXIT_FAIL, EXIT_UNSUPPORTED = 0, 1, 3
GOLDEN_REL_TOL = 1e-6
MARGIN_KEYS = ("ineq1", "ineq2", "ineq3", "ricci")


@dataclass
class Op:
    kind: str
    argv: list = field(default_factory=list)
    stdin: str | None = None
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """The verdict of one op's output check; ``passed`` marks a certified result."""

    ok: bool
    passed: bool = False
    detail: str = ""


def run_cli(tb, argv, stdin=None):
    """Call ``twistbench.cli.main`` in-process; return (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tb.cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * abs(b)


# ---------------------------------------------------------------------------
# certify_grid
# ---------------------------------------------------------------------------

GOLDEN_GRID = [(n, s0) for n in (3, 4, 5, 6) for s0 in (0.3, 1.0)]
BOUNDED = "bounded"

# The 12 points in six pairs of about equal cost.  The cost of one point,
# in reference seconds (see speed.py) at the commit that defined the
# benchmark, is 2.7-2.9 for most, 3.7 for (3, 1.0), 3.4 for n=12, 2.2 for
# the bounded point and 2.0 for (4, 1.0) and (6, 0.3); each pair costs
# 5.0-5.7.  A key is (n, s0), or BOUNDED.
CERTIFY_PAIRS = (
    ((3, 1.0), (6, 0.3)), ((12, 0.3), (4, 1.0)), (BOUNDED, (3, 0.25)),
    ((3, 0.3), (4, 0.3)), ((5, 0.3), (5, 1.0)), ((6, 1.0), (3, 0.2)),
)


def certify_points():
    """The 12 certify requests: key -> (kind, config keys)."""
    points = {(n, s0): ("golden", {"n": n, "s0": s0, "ric_min_base": 2.0})
              for n, s0 in GOLDEN_GRID}
    points[BOUNDED] = ("pass", {"n": 4, "s0": 1.0, "connection": "bounded", "sup_f": 1.0,
                                "ric_min_base": 1.0, "safety": 0.5})
    points[12, 0.3] = ("pass", {"n": 12, "s0": 0.3, "ric_min_base": 2.0})
    # Honest negatives: Exhausted after 20 probes, and MarginLost in the
    # origin collar.  The stage label is not pinned.
    points[3, 0.25] = ("negative", {"n": 3, "s0": 0.25, "ric_min_base": 2.0})
    points[3, 0.2] = ("negative", {"n": 3, "s0": 0.2, "ric_min_base": 2.0})
    return points


class CertifyGrid:
    name = "certify_grid"
    certifies = True  # its ops end in a pass or an honest failure
    block_size = 2  # a timed phase ends on a whole pair

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.ops_list = []

    def make_ops(self):
        """The seed-shuffled order of the cost pairs of ``CERTIFY_PAIRS``:
        the pairs in seeded order, each pair's two points in seeded order.
        A run covers whole pairs, so its mean op cost is about the same
        for any seed and any machine speed."""
        rng = random.Random(self.seed)
        points = certify_points()
        pairs = [list(pair) for pair in CERTIFY_PAIRS]
        rng.shuffle(pairs)
        ops = []
        for pair in pairs:
            rng.shuffle(pair)
            for key in pair:
                kind, cfg = points[key]
                path = os.path.join(self.workdir, f"certify{len(ops)}.ini")
                ops.append(Op(kind, ["certify", path], spec=dict(cfg)))
        return ops

    def setup(self, tb):
        self.ops_list = self.make_ops()
        for op in self.ops_list:
            with open(op.argv[1], "w", encoding="utf-8") as fh:
                fh.write("[certify]\n")
                fh.writelines(f"{k} = {v}\n" for k, v in op.spec.items())
            if op.kind == "golden":
                name = "certify_n{}_s{}.json".format(
                    op.spec["n"], str(op.spec["s0"]).replace(".", "p"))
                path = os.path.join(self.root, "tests", "golden", name)
                with open(path, encoding="utf-8") as fh:
                    op.spec["golden"] = json.load(fh)

    def ops(self):
        return cycle(self.ops_list)

    def run(self, tb, op):
        return run_cli(tb, op.argv)

    def check(self, tb, op, result) -> Outcome:
        code, out, err = result
        payload = json.loads(out) if code == EXIT_OK else None
        if op.kind == "negative":
            if code == EXIT_FAIL and not out:
                return Outcome(True)
            # Widening the certified domain may turn a negative into a
            # pass; that is allowed when every margin is positive.
            if code == EXIT_OK and payload["verdict"] == "pass" and all(
                    payload["margins"][k] > 0 for k in MARGIN_KEYS):
                return Outcome(True, passed=True)
            return Outcome(False, detail=f"negative point: exit {code} {err.strip()}")
        if code != EXIT_OK:
            return Outcome(False, detail=f"exit {code}: {err.strip()}")
        if payload["verdict"] != "pass" or payload["gluing"]["pass"] is not True:
            return Outcome(False, detail="verdict or gluing check failed")
        margins = payload["margins"]
        if op.kind == "golden":
            golden = op.spec["golden"]["margins"]
            bad = [k for k in MARGIN_KEYS
                   if not _rel_close(margins[k], golden[k], GOLDEN_REL_TOL)]
            if bad or op.spec["golden"]["verdict"] != "pass":
                return Outcome(False, detail=f"margins off the golden: {bad}")
        elif not all(margins[k] > 0 for k in MARGIN_KEYS):
            return Outcome(False, detail="non-positive margin")
        return Outcome(True, passed=True)


# ---------------------------------------------------------------------------
# scale_search
# ---------------------------------------------------------------------------

BASE_NECKS = ((3, 0.3), (4, 1.0), (6, 0.3))
TARGETS = (1e-6, 1e-4)
UNREACHABLE_TARGET = 10.0  # far above any Ricci margin of these necks
SUP_F_RANGE = (0.1, 20.0)
BOUNDED_PER_BASE = 3  # per block; one from each third of log(sup_f)
R_GRID_FLOOR = 2.0 ** -19  # last probe of search_r before it gives up


@dataclass
class Neck:
    s0: float
    profile: object
    eps: float


def build_neck(tb, n, s0):
    """integrate_core -> cap_sine -> flatten_h_tail, as ``certify`` does."""
    wm = tb.warpmetric
    lam = math.cos(s0)
    p = wm.WarpParams(n=n, lam=lam).resolve()
    w = wm.integrate_core(p)
    w = wm.cap_sine(w, lam, p.cap_width)
    w = wm.flatten_h_tail(w, p.tail_width)
    return Neck(s0, w, min(p.origin_eps, 0.75 * w.cap.blend_start))


class ScaleSearch:
    name = "scale_search"
    certifies = True  # its ops end in a pass or an honest failure
    block_size = 1 + len(BASE_NECKS) * BOUNDED_PER_BASE  # a timed phase ends on a whole block

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.necks = []

    def block(self, rng):
        """Ten ops: per base neck, three bounded searches with log(sup_f)
        drawn from each third of its range, plus one trivial search with
        an unreachable target on a seeded base."""
        ops = [Op("exhausted", spec={"base": rng.randrange(len(BASE_NECKS)),
                                     "variant": "trivial", "target": UNREACHABLE_TARGET})]
        lo, hi = (math.log(x) for x in SUP_F_RANGE)
        third = (hi - lo) / BOUNDED_PER_BASE
        for base, neck in enumerate(BASE_NECKS):
            for k in range(BOUNDED_PER_BASE):
                lo_frac = rng.uniform(0.0, 0.9)
                # (3, 0.3) has a trivial-connection margin of about 1.2e-6,
                # so only the smaller target is reachable there.
                target = TARGETS[0] if neck == (3, 0.3) else rng.choice(TARGETS)
                ops.append(Op("search", spec={
                    "base": base, "variant": "bounded",
                    "sup_f": math.exp(lo + third * (k + rng.random())),
                    "support": (lo_frac, rng.uniform(lo_frac + 0.05, 1.0)),
                    "target": target,
                }))
        rng.shuffle(ops)
        return ops

    def op_stream(self):
        rng = random.Random(self.seed)
        while True:
            yield from self.block(rng)

    def setup(self, tb):
        self.necks = [build_neck(tb, n, s0) for n, s0 in BASE_NECKS]

    def ops(self):
        return self.op_stream()

    def connection(self, tb, op):
        rc = tb.riccicert
        if op.spec["variant"] == "trivial":
            return rc.TRIVIAL_CONNECTION
        neck = self.necks[op.spec["base"]]
        lo, hi = neck.eps, neck.profile.cap.blend_start
        a, b = op.spec["support"]
        return rc.ConnectionModel("bounded", sup_f=op.spec["sup_f"],
                                  support=(lo + a * (hi - lo), lo + b * (hi - lo)))

    def run(self, tb, op):
        neck = self.necks[op.spec["base"]]
        probes = []

        def builder(r):
            probes.append(r)
            return tb.warpmetric.smooth_origin(neck.profile, r, neck.eps)

        conn = self.connection(tb, op)
        try:
            r, profile, report = tb.riccicert.search_r(builder, conn, op.spec["target"])
        except tb.errors.Exhausted:
            return None, probes
        buf = io.StringIO()
        tb.warpmetric.export_profile(profile, buf)
        return (r, report.margin, profile.s_lambda, buf.getvalue()), probes

    def _margin(self, tb, op, r):
        neck = self.necks[op.spec["base"]]
        profile = tb.warpmetric.smooth_origin(neck.profile, r, neck.eps)
        try:
            return tb.riccicert.ricci_neck(profile, self.connection(tb, op), r).margin
        except tb.errors.NotPositive as exc:
            return exc.report.margin

    def check(self, tb, op, result) -> Outcome:
        found, probes = result
        target = op.spec["target"]
        if found is None:
            if op.kind != "exhausted":
                return Outcome(False, detail=f"search exhausted: {op.spec}")
            if min(probes) > R_GRID_FLOOR or self._margin(tb, op, min(probes)) >= target:
                return Outcome(False, detail="exhausted above the floor")
            return Outcome(True)
        r, margin, s_lambda, csv = found
        if self._margin(tb, op, r) != margin or margin < target:
            return Outcome(False, detail=f"margin {margin} at r={r} below {target}")
        above = [p for p in probes if p > r]
        if r < 1.0:
            if not above:
                return Outcome(False, detail="no failed probe above the returned scale")
            hi = min(above)
            if hi / r > 1.01 or self._margin(tb, op, hi) >= target:
                return Outcome(False, detail=f"bracket end {hi} is not a failure")
        neck = self.necks[op.spec["base"]]
        detail = check_profile_csv(tb, csv, s_lambda, math.cos(neck.s0))
        if detail:
            return Outcome(False, detail=detail)
        return Outcome(True, passed=True)


SEGMENT_LABELS = {"core", "cap", "tail", "splice", "flat"}


def check_profile_csv(tb, csv, s_lambda, lam):
    """A dense profile: header, finite rows, s ordered, f positive, h
    nonnegative (it closes to 0 at the origin), and the gluing slope
    cos(s0) at the outer end."""
    lines = csv.splitlines()
    if lines[0] != tb.warpmetric.CSV_HEADER:
        return "bad CSV header"
    prev = -math.inf
    for line in lines[1:]:
        *numbers, label = line.split(",")
        values = [float(x) for x in numbers]
        s, f, fp, _, h, _, _ = values
        if (label not in SEGMENT_LABELS or not all(map(math.isfinite, values))
                or s < prev - 1e-12 or f <= 0 or h < 0):
            return f"bad CSV row {line!r}"
        prev = s
    if len(lines) < 100 or abs(s - s_lambda) > 1e-9 or abs(fp - lam) > 1e-8:
        return "CSV does not end at the gluing point"
    return ""


# ---------------------------------------------------------------------------
# topology_queries
# ---------------------------------------------------------------------------

ATOMS = {
    4: ["S(4)", "CP(2)", "S(2)xS(2)"],
    5: ["S(5)", "N(2)", "N(3)", "N(5)", "Wu", "lens(3,5)", "S(2)xS(3)", "S2~S(3)"],
    6: ["S(6)", "CP(3)", "S(2)xS(4)", "S(3)xS(3)", "S2~S(4)"],
    7: ["S(7)", "lens(3,7)", "lens(5,7)", "S(2)xS(5)", "S(3)xS(4)", "S2~S(5)"],
}

# (base, class) pairs whose suspension homology the catalogue resolves.
SUSPEND_SUPPORTED = [
    ("S(3)", "0"), ("N(2)", "0"), ("N(7)", "0"), ("Wu", "0"), ("Poincare", "0"),
    ("CP(2)", "prim"), ("CP(3)", "div(4)"), ("CP(4)", "div(3)"), ("CP(5)", "prim"),
    ("lens(3,5)", "prim"), ("lens(5,7)", "prim"), ("lens(3,5)", "0"),
    ("S(2)xS(3)", "0"), ("csum(N(3),S(2)xS(3))", "0"),
    ("csum(CP(2),S(2)xS(2))", "[prim,0]"), ("csum(lens(3,5),N(2))", "[prim,0]"),
]
SUSPEND_UNSUPPORTED = [
    ("S(5)", "prim"), ("N(2)", "prim"), ("N(3)", "div(3)"), ("Wu", "prim"),
    ("S(2)xS(3)", "prim"), ("lens(3,5)", "div(2)"), ("Poincare", "prim"),
    ("S2~S(3)", "div(2)"),
]
# Star plumbings: bundle node over a base with a supported class.
PLUMB_BASES = [
    ("S(3)", "0", 3), ("N(2)", "0", 5), ("N(3)", "0", 5), ("lens(3,5)", "0", 5),
    ("lens(3,5)", "prim", 5), ("CP(2)", "prim", 4), ("CP(3)", "div(2)", 6),
]
GON_MAX_L = 40

# Op kinds and how many of each one block of 20 ops holds.
TOPOLOGY_MIX = (
    ("homology", 4), ("decompose", 3), ("suspend", 3), ("suspend_unsupported", 2),
    ("plumb", 3), ("gon_standard", 3), ("gon_random", 2),
)


def star_boundary(base, e, n, leaves):
    """susp(base, e) # (leaves - 1)(S^2 x S^(n-1)): a star plumbing's boundary."""
    summands = [f"susp({e},{base})"] + [f"S(2)xS({n - 1})"] * (leaves - 1)
    return summands[0] if leaves == 1 else f"csum({','.join(summands)})"


def random_gon(rng, n, m):
    """A valid labelling: a cyclic basis pattern under a random unimodular map."""
    d = n - 2
    basis = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    seq = list(range(d)) + [k % 2 for k in range(m - d)]
    labels = [basis[i] for i in seq]
    if seq[-1] == seq[0]:
        labels[-1] = tuple(x + y for x, y in zip(basis[0], basis[1]))
    u = [list(row) for row in basis]
    for _ in range(4 * d):
        move, i, j = rng.randrange(3), rng.randrange(d), rng.randrange(d)
        if move == 0 and i != j:
            q = rng.randint(-2, 2)
            u[i] = [a + q * b for a, b in zip(u[i], u[j])]
        elif move == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    out = []
    for a in labels:
        vec = [sum(u[i][k] * a[k] for k in range(d)) for i in range(d)]
        out.append([-x for x in vec] if rng.random() < 0.3 else vec)
    return out


class TopologyQueries:
    name = "topology_queries"
    certifies = False
    block_size = sum(count for _, count in TOPOLOGY_MIX)  # a timed phase ends on a whole block

    def __init__(self, seed, root, workdir):
        self.seed = seed
        self.reference = {}

    def make_op(self, rng, kind, k=0):
        """One op of ``kind``; ``k`` is its index among that kind's ops in
        the block, which picks the stratum of the large-gon size."""
        if kind in ("homology", "decompose"):
            d = rng.choice(sorted(ATOMS))
            parts = [rng.choice(ATOMS[d]) for _ in range(rng.randint(2, 6))]
            argv = ["homology", f"csum({','.join(parts)})"]
            if kind == "decompose":
                argv.append("--decompose")
            return Op(kind, argv)
        if kind in ("suspend", "suspend_unsupported"):
            pool = SUSPEND_SUPPORTED if kind == "suspend" else SUSPEND_UNSUPPORTED
            base, e = rng.choice(pool)
            return Op(kind, ["suspend", base, e], spec={"base": base})
        if kind == "plumb":
            base, e, n = rng.choice(PLUMB_BASES)
            leaves = rng.randint(1, 5)
            lines = [f"bundle b0 {base} {e}"]
            for k in range(1, leaves + 1):
                lines += [f"disc d{k} {n}", f"edge b0 d{k} +"]
            return Op(kind, ["plumb", "-"], stdin="\n".join(lines) + "\n",
                      spec={"expected": star_boundary(base, e, n, leaves)})
        if kind == "gon_standard":
            count = dict(TOPOLOGY_MIX)[kind]
            handles = rng.randint(1 + GON_MAX_L * k // count, GON_MAX_L * (k + 1) // count)
            return Op(kind, ["gon", "--standard", str(handles)],
                      spec={"n": 4, "m": 2 * handles + 2})
        n = rng.choice((4, 5, 6))
        m = rng.randint(n - 2, n + 10)
        labels = random_gon(rng, n, m)
        return Op(kind, ["gon", "-"], stdin=json.dumps({"n": n, "labels": labels}),
                  spec={"n": n, "m": m, "labels": labels})

    def op_stream(self):
        rng = random.Random(self.seed)
        block = [(kind, k) for kind, count in TOPOLOGY_MIX for k in range(count)]
        while True:
            rng.shuffle(block)
            for kind, k in block:
                yield self.make_op(rng, kind, k)

    def setup(self, tb):
        """Reference reports for the checks, made before any op runs so
        that checking between ops leaves the program's caches alone."""
        exprs = [base for base, _ in SUSPEND_SUPPORTED]
        for base, e, n in PLUMB_BASES:
            exprs += [star_boundary(base, e, n, leaves) for leaves in range(1, 6)]
        for expr in exprs:
            code, out, err = run_cli(tb, ["homology", expr])
            if code != EXIT_OK:
                raise RuntimeError(f"reference {expr}: exit {code} {err}")
            self.reference[expr] = json.loads(out)

    def ops(self):
        return self.op_stream()

    def run(self, tb, op):
        return run_cli(tb, op.argv, op.stdin)

    def check(self, tb, op, result) -> Outcome:
        code, out, err = result
        if op.kind == "suspend_unsupported":
            ok = code == EXIT_UNSUPPORTED and not out
            return Outcome(ok, detail="" if ok else f"expected exit 3, got {code}")
        if code != EXIT_OK:
            return Outcome(False, detail=f"exit {code}: {err.strip()}")
        payload = json.loads(out)
        if op.kind.startswith("gon"):
            return self._check_gon(op, payload)
        detail = _check_report(payload)
        if not detail and op.kind == "suspend":
            if payload["dimension"] != self.reference[op.spec["base"]]["dimension"] + 1:
                detail = "suspension dimension"
        if not detail and op.kind == "plumb":
            if payload["homology"] != self.reference[op.spec["expected"]]["homology"]:
                detail = f"boundary homology differs from {op.spec['expected']}"
        return Outcome(not detail, detail=detail)

    @staticmethod
    def _check_gon(op, payload):
        n, m = op.spec["n"], op.spec["m"]
        if payload["n"] != n or payload["m"] != m or not payload["validation"]["valid"]:
            return Outcome(False, detail="gon shape or validity")
        if payload["b2"] != m - n + 2 or abs(payload["model_det"]) != 1:
            return Outcome(False, detail="gon b2 or model determinant")
        model = payload["model"]
        if len(model) != m or any(len(row) != m for row in model):
            return Outcome(False, detail="model shape")
        labels = op.spec.get("labels")
        if labels is not None and any(
                model[i] != [a[i] for a in labels] for i in range(n - 2)):
            return Outcome(False, detail="model top rows differ from the labels")
        return Outcome(True)


def _check_report(payload):
    """Invariants of a homology report: shape, H_0, H_n and chi."""
    n = payload["dimension"]
    betti = payload["betti"]
    if len(payload["homology"]) != n + 1 or len(betti) != n + 1:
        return "table length"
    if payload["homology"][0] != "Z" or betti[0] != 1:
        return "H_0"
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != payload["euler_characteristic"]:
        return "euler characteristic is not the alternating Betti sum"
    return ""


WORKLOADS = {cls.name: cls for cls in (CertifyGrid, ScaleSearch, TopologyQueries)}
