"""Run one twistbench benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload certify_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; times are scaled to reference seconds by the speed
probe of ``speed.py``.  ``--trace 1`` wraps the program's layer functions
(see ``tracing.py``), prints per-op self times and counts per layer, and
then runs some of the same ops in traced/untraced pairs to report the
tracing overhead.  ``--workload all`` runs each workload in its own process,
one after the other.

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record with the
environment is written to ``bench/out/``.
"""

import os

# One thread for BLAS and OpenMP pools, set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import time  # noqa: E402

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(0, BENCH_DIR)

from speed import SpeedProbe  # noqa: E402
from tracing import LAYERS, OP_SPAN, Tracer, layer_name  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

COUNTED = {  # per-op call counts reported by the traced run
    "warpmetric.smooth_origin.calls": "warpmetric.smooth_origin",
    "riccicert.ricci_neck.calls": "riccicert.ricci_neck",
    "intlat.snf.calls": "intlat.snf",
}
P90_MIN_OPS = 100  # a p90 needs ten samples beyond it
# setup_s is the median of this process's set-up and more set-ups in fresh
# set-up-only processes: as many as fit in SETUP_BUDGET_S, within these limits.
SETUP_SAMPLES = (3, 9)
SETUP_BUDGET_S = 20.0
MAX_ERRORS_SHOWN = 5


def import_program():
    """Import twistbench from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "twistbench", "__init__.py")):
        raise SystemExit(f"error: no twistbench sources under {SRC}")
    sys.path.insert(0, SRC)
    import twistbench
    import twistbench.cli  # noqa: F401  (also imports errors and jsonout)

    if not os.path.abspath(twistbench.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: twistbench imported from {twistbench.__file__}")
    return twistbench


def clear_caches(tb):
    """Empty every memo cache of the program, so each phase starts cold."""
    for name in sorted(sys.modules):
        if name.startswith("twistbench"):
            for value in list(vars(sys.modules[name]).values()):
                # A traced function keeps the cached original as __wrapped__.
                for fn in (value, getattr(value, "__wrapped__", None)):
                    if callable(getattr(fn, "cache_clear", None)):
                        fn.cache_clear()


def timed_phase(tb, wl, seconds, source, tracer=None, between=None, probe=None):
    """Closed loop: run ops from ``source`` until ``seconds`` of op time
    have passed and the last of the workload's blocks is whole.

    The clock runs only while an op runs.  Each op's output is checked
    right after it, off the clock, so outputs are not kept and the
    checks cost no op time.  ``between(busy)``, if given, runs before
    each op, also off the clock.  A ``probe`` samples machine speed
    while an op runs, and its own time is taken out of the op's.
    Returns (op, latency, outcome) per op.
    """
    clear_caches(tb)
    records = []
    busy = 0.0
    for op in source:
        if busy >= seconds and len(records) % wl.block_size == 0:
            break
        if between is not None:
            between(busy)
        error = result = None
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.op(len(records)):
                    result = wl.run(tb, op)
            elif probe is not None:
                with probe.measuring():
                    result = wl.run(tb, op)
            else:
                result = wl.run(tb, op)
        except Exception as exc:  # counted as a failed op, the loop goes on
            error = exc
        latency = time.perf_counter() - t0
        if probe is not None:
            latency -= probe.spent - spent
        busy += latency
        records.append((op, latency, check_op(tb, wl, op, result, error)))
    return records


def check_op(tb, wl, op, result, error):
    """Check one op's output; unexpected exceptions count as failures."""
    if error is not None:
        detail = "".join(traceback.format_exception_only(type(error), error)).strip()
        return Outcome(False, detail=f"raised {detail}")
    try:
        return wl.check(tb, op, result)
    except Exception as exc:  # a malformed output is a failed check
        return Outcome(False, detail=f"check raised {exc!r}")


def overhead_pairs(tb, wl, records, seconds):
    """Tracing overhead from paired runs of the traced phase's ops.

    Each op runs once traced and once untraced, back to back from empty
    caches, in alternating order, so that drifts in machine speed fall
    on both sides alike.  Returns the traced time over the untraced time,
    minus one, and the number of pairs.
    """
    totals = {True: 0.0, False: 0.0}
    deadline = time.perf_counter() + seconds
    pairs = 0
    for op, _, outcome in records:
        if time.perf_counter() >= deadline:
            break
        if not outcome.ok:
            continue
        for traced in (True, False) if pairs % 2 == 0 else (False, True):
            clear_caches(tb)
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                t0 = time.perf_counter()
                wl.run(tb, op)
                totals[traced] += time.perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.restore()
        pairs += 1
    return totals[True] / totals[False] - 1.0, pairs


def child_setup_time(args):
    """Set-up time of a fresh process that does only the set-up:
    (reference seconds, measured seconds)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    sample = json.loads(proc.stdout.splitlines()[-1])
    return sample["setup_s"], sample["setup_raw_s"]


def git_commit():
    """The checked-out commit; None when the checkout is no git work tree
    or git is missing.  The search for a repository stops at ROOT."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(load_start):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "git_commit": git_commit(),
        "thread_pins": {var: os.environ[var] for var in THREAD_VARS},
    }


def per_layer_metrics(tracer, records, homology_cache, overhead):
    """Per-op self times and counts from the traced phase.

    ``homology_cache`` is ``topology.homology.cache_info()`` at the end of
    the traced phase, which starts with empty caches.
    """
    n_ops = len(records)
    inside, outside = tracer.self_times()
    metrics = {}
    for module, path in LAYERS:
        name = layer_name(module, path)
        metrics[f"{name}.self_s"] = (inside.get(name, (0, 0.0))[1] / n_ops, "s")
    for metric, name in COUNTED.items():
        metrics[metric] = (inside.get(name, (0, 0.0))[0] / n_ops, "count")
    probes = tracer.count_children("warpmetric.smooth_origin", "riccicert.search_r")
    metrics["riccicert.search_r.probes"] = (probes / n_ops, "count")
    metrics["warpmetric.cap_sine.setup_s"] = (
        outside.get("warpmetric.cap_sine", (0, 0.0))[1], "s")
    hits, misses = homology_cache.hits, homology_cache.misses
    metrics["topology.homology.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    metrics["op.wall_s"] = (sum(r[1] for r in records) / n_ops, "s")
    metrics["op.unattributed_s"] = (inside[OP_SPAN][1] / n_ops, "s")
    metrics["trace_overhead"] = (overhead, "ratio")
    return metrics


def run_workload(args, probe):
    """One workload in this process.  ``probe``, which is None in a traced
    run, has sampled machine speed since the arguments were parsed."""
    load_start = list(os.getloadavg())
    tb = import_program()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as workdir:
        wl = WORKLOADS[args.workload](args.seed, ROOT, workdir)
        tracer = Tracer() if args.trace else None
        try:
            if tracer is not None:
                tracer.install()
            wl.setup(tb)
            if probe is not None:
                probe.active = False
                setup_raw_s = time.perf_counter() - START - probe.spent
                setup_s = setup_raw_s * probe.speed()
                phase_start = len(probe.samples)
            else:
                setup_raw_s = setup_s = time.perf_counter() - START
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
                return 0
            setups, marks = [(setup_s, setup_raw_s)], []
            if tracer is None:
                # Machine speed drifts over tens of seconds on a shared VM,
                # so the other set-up samples are spread over the timed
                # phase: one each time op time passes a mark.
                lo, hi = SETUP_SAMPLES
                extra = min(hi, max(lo, int(SETUP_BUDGET_S / setup_raw_s))) - 1
                marks = [args.seconds * (k + 0.5) / extra for k in range(extra)]

            def sample_setup(busy):
                while marks and busy >= marks[0]:
                    marks.pop(0)
                    setups.append(child_setup_time(args))

            records = timed_phase(tb, wl, args.seconds, wl.ops(), tracer, sample_setup, probe)
            if tracer is not None:
                homology_cache = tracer.originals["topology.homology"].cache_info()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        finally:
            if tracer is not None:
                tracer.restore()
        if tracer is not None:
            overhead, pairs = overhead_pairs(tb, wl, records, args.seconds / 2)
    setups += [child_setup_time(args) for _ in marks]  # marks the phase did not reach

    latencies = [r[1] for r in records]
    outcomes = [r[2] for r in records]
    failed = sum(not o.ok for o in outcomes)
    report = {
        "ops": (len(records), "count"),
        "error_rate": (failed / len(records), "ratio"),
    }
    if wl.certifies:
        report["certified_ratio"] = (sum(o.passed for o in outcomes) / len(records), "ratio")
    if tracer is None:
        speed = probe.speed(phase_start)
        metrics = {
            "ops_per_s": (len(records) / (sum(latencies) * speed), "1/s"),
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        # The same before scaling to reference seconds, and the speed seen.
        report["ops_per_s_raw"] = (len(records) / sum(latencies), "1/s")
        report["setup_s_raw"] = (statistics.median(r for _, r in setups), "s")
        report["speed"] = (speed, "ratio")
        report["speed_samples"] = (len(probe.samples) - phase_start, "count")
        # Latency percentiles are printed but not bounded: they are in
        # measured seconds, which drift with machine speed on a shared VM.
        report["op_p50_s"] = (statistics.median(latencies), "s")
        if len(latencies) >= P90_MIN_OPS:
            report["op_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s")
        report["setup_samples"] = (len(setups), "count")
    else:
        metrics = per_layer_metrics(tracer, records, homology_cache, overhead)
        report["overhead_pairs"] = (pairs, "count")

    for outcome in [o for o in outcomes if not o.ok][:MAX_ERRORS_SHOWN]:
        print(f"error: {outcome.detail}", file=sys.stderr)
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    env = environment(load_start)
    print("# env " + json.dumps(env, sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "env": env, "metrics": {**metrics, **report}}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write(stem + "-spans.csv.gz")

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and exit (used for set-up samples)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        return run_workload(args, None)
    probe = SpeedProbe()
    probe.active = True  # the rest of set-up is sampled
    probe.start()
    try:
        return run_workload(args, probe)
    finally:
        probe.stop()


if __name__ == "__main__":
    sys.exit(main())
