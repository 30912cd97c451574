"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest bench/tests -q
"""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from itertools import islice

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import speed  # noqa: E402
import workloads as wk  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer, package_modules  # noqa: E402

tb = run.import_program()


def spec_key(op):
    spec = {k: v for k, v in op.spec.items() if k != "golden"}
    return (op.kind, tuple(op.argv[:1]), op.stdin, json.dumps(spec, sort_keys=True))


def op_list(name, seed, count, tmp_path):
    wl = wk.WORKLOADS[name](seed, ROOT, str(tmp_path))
    if name == "certify_grid":
        return wl.make_ops()
    return list(islice(wl.op_stream(), count))


@pytest.mark.parametrize("name,count", [
    ("certify_grid", 12),
    ("scale_search", 2 * (1 + len(wk.BASE_NECKS) * wk.BOUNDED_PER_BASE)),
    ("topology_queries", 2 * sum(n for _, n in wk.TOPOLOGY_MIX)),
])
def test_seed_fixes_the_op_list_and_not_the_mix(name, count, tmp_path):
    first = [spec_key(op) for op in op_list(name, 1, count, tmp_path)]
    again = [spec_key(op) for op in op_list(name, 1, count, tmp_path)]
    other = [spec_key(op) for op in op_list(name, 2, count, tmp_path)]
    assert first == again
    assert first != other
    assert Counter(k[0] for k in first) == Counter(k[0] for k in other)


@pytest.mark.parametrize("seed", [1, 5, 6])
def test_certify_ops_come_in_cost_pairs(seed):
    ops = wk.CertifyGrid(seed, ROOT, "work").make_ops()
    points = wk.certify_points()
    keys = [next(key for key, (_, cfg) in points.items() if cfg == op.spec) for op in ops]
    assert sorted(map(str, keys)) == sorted(map(str, points))
    pairs = {frozenset(keys[i:i + 2]) for i in range(0, len(keys), 2)}
    assert pairs == {frozenset(pair) for pair in wk.CERTIFY_PAIRS}
    assert len(ops) % wk.CertifyGrid.block_size == 0


def test_speed_probe_samples_only_while_measuring():
    probe = SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.1
        while time.perf_counter() < deadline:
            pass
        assert probe.samples == []
        with probe.measuring():
            deadline = time.perf_counter() + 0.2
            while time.perf_counter() < deadline:
                pass
    finally:
        probe.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert len(probe.samples) >= 5
    assert probe.spent == pytest.approx(sum(probe.samples))
    assert probe.speed(len(probe.samples)) == 1.0
    probe.samples = [speed.NOMINAL_S, speed.NOMINAL_S / 2]
    assert probe.speed() == pytest.approx(1.5)


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


SMOKE_SEED = 909  # its run records in bench/out do not replace those of real runs


def smoke(workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(SMOKE_SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload,trace,seconds", [
    ("topology_queries", 0, 0.5),
    ("topology_queries", 1, 0.5),
    ("certify_grid", 1, 0.1),
])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace, seconds):
    contract = load_contract()
    wanted = contract["per_layer" if trace else "end_to_end"]
    lines, result = smoke(workload, trace, seconds)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()}
    for m in wanted:
        assert any(line.startswith(f"{workload} {m['name']} = ") for line in lines)
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())
    elif workload == "topology_queries":
        assert result["metrics"]["topology.homology.cache_hit_ratio"]["value"] > 0


def snapshot():
    state = {(mod.__name__, key): value
             for mod in package_modules() for key, value in vars(mod).items()}
    state.update({("WarpProfile", key): value
                  for key, value in vars(tb.warpmetric.WarpProfile).items()})
    return state


def test_wrappers_restore_every_attribute():
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        assert tb.fgab.snf is not before[("twistbench.fgab", "snf")]
        assert tb.intlat.snf is tb.fgab.snf
        wl = wk.TopologyQueries(3, ROOT, None)
        records = run.timed_phase(tb, wl, 0.2, wl.ops(), tracer)
    finally:
        tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    inside, _ = tracer.self_times()
    assert inside["op"][0] == len(records)
    assert inside["intlat.snf"][0] > 0


def test_self_times_subtract_children():
    tracer = Tracer()
    tracer.spans.extend([
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 4.0, 5.5, 1, 0],
        ["a", 20.0, 21.0, -1, None],
    ])
    inside, outside = tracer.self_times()
    assert inside == {"op": (1, 5.0), "a": (1, 2.5), "b": (2, 2.5)}
    assert outside == {"a": (1, 1.0)}


class PerturbedTopology(wk.TopologyQueries):
    """Reports a wrong Euler characteristic in every homology answer."""

    def run(self, tb, op):
        code, out, err = super().run(tb, op)
        if '"euler_characteristic"' in out:
            payload = json.loads(out)
            payload["euler_characteristic"] += 1
            out = json.dumps(payload)
        return code, out, err


def test_perturbed_output_counts_as_an_error():
    wl = PerturbedTopology(4, ROOT, None)
    wl.setup(tb)
    records = run.timed_phase(tb, wl, 0.3, wl.ops())
    homology_like = {"homology", "decompose", "suspend", "plumb"}
    for op, _, outcome in records:
        assert outcome.ok == (op.kind not in homology_like), op.kind


def golden_result(n, s0, scale=1.0):
    name = "certify_n{}_s{}.json".format(n, str(s0).replace(".", "p"))
    with open(os.path.join(ROOT, "tests", "golden", name), encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["margins"]["ricci"] *= scale
    return 0, json.dumps(payload), ""


def test_certify_checks_hold_the_golden_gate(tmp_path):
    wl = wk.CertifyGrid(1, ROOT, str(tmp_path))
    wl.setup(tb)
    op = next(op for op in wl.ops_list if op.kind == "golden"
              and (op.spec["n"], op.spec["s0"]) == (4, 1.0))
    negative = next(op for op in wl.ops_list if op.kind == "negative")
    assert wl.check(tb, op, golden_result(4, 1.0)).ok
    assert wl.check(tb, op, golden_result(4, 1.0, 1 + 1e-7)).ok
    assert not wl.check(tb, op, golden_result(4, 1.0, 1 + 1e-5)).ok
    assert not wl.check(tb, op, (1, "", "failed: stage 'search_r'")).ok
    assert wl.check(tb, negative, (1, "", "failed: stage 'smooth_origin'")).ok
    assert wl.check(tb, negative, golden_result(4, 1.0)).ok  # a negative may start to pass
    assert not wl.check(tb, negative, (2, "", "error")).ok


def test_without_sources_the_runner_fails_quietly(tmp_path):
    os.mkdir(tmp_path / "bench")
    for name in ("run.py", "workloads.py", "tracing.py", "speed.py"):
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as src:
            (tmp_path / "bench" / name).write_text(src.read())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "topology_queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
