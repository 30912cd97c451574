"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The certification grid is built once and shared by the criteria that
inspect it; golden files pin the certified numbers for regression.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np
import pytest

from twistbench import (
    intlat,
    orbitgon,
    plumbing,
    riccicert as rc,
    topology as tp,
    warpmetric as wm,
)
from twistbench.fgab import FgAbGroup, TRIVIAL, Z, cyclic
from twistbench.topology import EulerClass, ZERO_CLASS

from generators import matmul, random_valid_labelling, suspension_graph

GOLDEN_DIR = Path(__file__).parent / "golden"
GRID = [(n, s0) for n in (3, 4, 5, 6) for s0 in (0.3, 1.0)]


def report(num, ok, text):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def certified():
    results = {}
    for n, s0 in GRID:
        t0 = time.perf_counter()
        res = rc.certify(n, s0, rc.TRIVIAL_CONNECTION, 2.0)
        results[(n, s0)] = (res, time.perf_counter() - t0)
    return results


def test_criterion_1_twisted_suspension_homology():
    t0 = time.perf_counter()
    for k in (2, 3, 7):
        x = tp.suspend(tp.smale(k), ZERO_CLASS)
        h = tp.homology(x)
        t = FgAbGroup(0, (k, k))
        assert h[2] == t and h[3] == t
        assert h[4] == TRIVIAL
        assert h[0] == Z and h[6] == Z
        assert h[1] == TRIVIAL and h[5] == TRIVIAL
        assert tp.simply_connected(x)
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0,
           f"susp(N(k),0) tables for k in 2,3,7 exact in {elapsed:.3f}s")


def test_criterion_2_cp_suspension_cohomology():
    x = tp.suspend(tp.cp(3), EulerClass.of_divisibility(4))
    coh = tp.cohomology(x)
    expected = (Z, TRIVIAL, Z, TRIVIAL, cyclic(4), Z, TRIVIAL, Z)
    report(2, coh == expected,
           "susp(div(4),CP(3)) cohomology is Z at 0,2,5,7 and Z/4 at 4")


def test_criterion_3_prescribed_third_homology():
    m = 4
    parts = [
        tp.suspend(tp.cp(m), EulerClass.of_divisibility(4)),
        tp.suspend(tp.cp(m), EulerClass.of_divisibility(12)),
        tp.suspend(tp.sphere_product(2, 2 * m - 2), ZERO_CLASS),
        tp.suspend(tp.sphere_product(2, 2 * m - 2), ZERO_CLASS),
    ]
    mg = tp.connected_sum(parts)
    target = FgAbGroup(2, (4, 12))
    reference = tp.connected_sum(
        [tp.sphere_product(2, 7)] * 4 + [tp.sphere_product(3, 6)] * 2
    )
    ok = (
        tp.homology(mg)[3] == target
        and tp.betti(mg) == tp.betti(reference)
        and tp.simply_connected(mg)
    )
    report(3, ok, "H_3 = Z^2 + Z/4 + Z/12 with the reference rational Betti numbers")


def test_criterion_4_orbit_gons():
    t0 = time.perf_counter()
    rng = random.Random(960)
    for _ in range(500):
        n = rng.randint(4, 8)
        m = rng.randint(n - 2, 12)
        g = random_valid_labelling(rng, n, m)
        assert orbitgon.betti2(g) == m - n + 2
        model = orbitgon.unimodular_model(g)
        assert abs(model.det()) == 1
        a = g.label_matrix()
        for i in range(a.rows):
            assert model.row(i) == a.row(i)
    for handles in range(11):
        assert orbitgon.betti2(orbitgon.standard_gon(handles)) == 2 * handles
    elapsed = time.perf_counter() - t0
    report(4, elapsed < 5.0,
           f"500 random gons + standard gons verified exactly in {elapsed:.2f}s")


def test_criterion_5_snf_property_suite():
    t0 = time.perf_counter()
    rng = random.Random(112358)
    for _ in range(1000):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = intlat.IntMatrix.from_rows(
            [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        )
        dec = intlat.snf(a)
        assert matmul(matmul(dec.left_inv, dec.diag), dec.right_inv) == a
        assert abs(dec.left_inv.det()) == 1
        assert abs(dec.right_inv.det()) == 1
        d = dec.diagonal()
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
    elapsed = time.perf_counter() - t0
    report(5, elapsed < 10.0, f"1000 exact SNF factorizations in {elapsed:.2f}s")


def test_criterion_6_certification_grid(certified):
    ok = True
    details = []
    for (n, s0), (res, elapsed) in certified.items():
        case_ok = (
            res.passed()
            and res.margin_ricci > 0.0
            and res.profile.first_integral_residual() < 1e-9
            and res.gluing.resid_fprime < 1e-8
            and res.gluing.resid_cap < 1e-8
            and elapsed < 10.0
        )
        ok = ok and case_ok
        details.append(f"n={n},s0={s0}:{res.margin_ricci:.1e}@{elapsed:.1f}s")
    report(6, ok, "certify grid " + " ".join(details))


def test_criterion_7_fibre_ricci_closed_form(certified):
    worst = 0.0
    for res, _ in certified.values():
        p = res.profile.params
        coeff = 0.5 * p.alpha * p.lam0**2 * (p.alpha - (p.n - 2))
        for seg in res.profile.segments:
            if seg.label != "core":
                continue
            s = res.profile.segment_grid(seg)
            f, fp, fpp = seg.fmod.eval(s)
            h, hp, hpp = seg.hmod.eval(s)
            numeric = -hpp / h - (p.n - 1) * fp * hp / (f * h)
            oracle = coeff * np.power(f, -p.alpha - 2.0)
            worst = max(worst, float(np.max(np.abs(numeric / oracle - 1.0))))
    report(7, worst < 1e-6,
           f"core Ric(T,T) matches the closed form to {worst:.2e} relative")


def test_criterion_8_inequality_two_lower_bound(certified):
    worst = math.inf
    for res, _ in certified.values():
        p = res.profile.params
        coeff = (p.n - 2) - p.alpha * p.lam0**2
        for seg in res.profile.segments:
            if seg.label != "core":
                continue
            s = res.profile.segment_grid(seg)
            f, _, _ = seg.fmod.eval(s)
            m2 = wm._sample_block(p.n, seg, s).m2
            gap = m2 - coeff / (f * f)
            worst = min(worst, float(np.min(gap)))
    report(8, worst >= -1e-12,
           f"inequality (2) dominates its displayed bound; min gap {worst:.2e}")


def test_criterion_9_plumbing_star_boundaries():
    bases = [
        (tp.sphere(3), [ZERO_CLASS]),
        (tp.smale(2), [ZERO_CLASS]),
        (tp.lens(3, 5), [ZERO_CLASS, EulerClass.primitive()]),
    ]
    checked = 0
    for base, classes in bases:
        n = tp.dim(base)
        for e in classes:
            for leaves in range(1, 6):
                g = suspension_graph(base, e, leaves)
                b = plumbing.boundary(g)
                expected = tp.connected_sum(
                    [tp.suspend(base, e)]
                    + [tp.sphere_product(2, n - 1)] * (leaves - 1)
                )
                assert tp.homology(b) == tp.homology(expected)
                assert tp.spin(b) == tp.spin(expected)
                checked += 1
    report(9, checked == 20,
           f"{checked} star plumbings match susp(M,e) # (l-1)(S^2 x S^(n-1))")


def test_criterion_10_resolution_stability(certified):
    # Each strict-zone segment resampled with a point between every two of
    # its samples: the three inequality minima, and their global minimum
    # (the trivial-connection Ricci margin), move by under 1 %.
    worst = 0.0
    for (n, s0), (res, _) in certified.items():
        fine = [math.inf] * 3
        for block in res.profile.blocks():
            seg = block.seg
            if seg.label == "tail":
                continue
            s = np.linspace(seg.s0, seg.s1, 2 * len(block.s) - 1)
            mins = wm._sample_block(n, seg, s).mins
            fine = [min(x, y) for x, y in zip(fine, mins)]
        coarse = (res.margin_ineq1, res.margin_ineq2, res.margin_ineq3)
        assert res.margin_ricci == min(coarse)
        for a, b in zip((*coarse, res.margin_ricci), (*fine, min(fine))):
            worst = max(worst, abs(a - b) / abs(a))
        golden = GOLDEN_DIR / f"certify_n{n}_s{str(s0).replace('.', 'p')}.json"
        recorded = json.loads(golden.read_text())
        fresh = res.to_json_dict()
        for key in ("ineq1", "ineq2", "ineq3", "ricci"):
            a, b = recorded["margins"][key], fresh["margins"][key]
            assert abs(a - b) <= 1e-6 * abs(a), (key, a, b)
    report(10, worst < 0.01,
           f"margins move {worst:.2e} relative under grid doubling (golden pinned)")
