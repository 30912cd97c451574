import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import pytest

from twistbench import cli, intlat, orbitgon, topology, warpmetric
from twistbench.errors import ComputedFailure, InputError, StageError, Unsupported


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_suspend_smale(capsys):
    code, out, _ = run(capsys, "suspend", "N(2)", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"][2] == "Z/2 + Z/2"
    assert payload["homology"][3] == "Z/2 + Z/2"
    assert payload["homology"][4] == "0"
    assert payload["simply_connected"] is True
    assert payload["spin"] == "yes"


def test_suspend_sphere(capsys):
    code, out, _ = run(capsys, "suspend", "S(3)", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["homology"] == ["Z", "0", "0", "0", "Z"]


def test_suspend_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "suspend", "S(3", "0")
    assert code == 2
    assert err


def test_suspend_unsupported_exit_code(capsys):
    code, _, err = run(capsys, "homology", "susp(prim,N(2))")
    assert code == 3


def test_homology_decompose(capsys):
    code, out, _ = run(capsys, "homology", "--decompose", "susp(0,S(3))")
    assert code == 0
    payload = json.loads(out)
    assert payload["expression"] == "S(4)"


def test_homology_cp_suspension_table(capsys):
    code, out, _ = run(capsys, "suspend", "CP(3)", "div(4)")
    payload = json.loads(out)
    assert payload["cohomology"] == ["Z", "0", "Z", "0", "Z/4", "Z", "0", "Z"]


def test_deterministic_output(capsys):
    _, out1, _ = run(capsys, "suspend", "csum(N(3),S(2)xS(3))", "0")
    _, out2, _ = run(capsys, "suspend", "csum(N(3),S(2)xS(3))", "0")
    assert out1 == out2


def test_gon_standard(capsys):
    code, out, _ = run(capsys, "gon", "--standard", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["b2"] == 6
    assert payload["m"] == 8
    assert abs(payload["model_det"]) == 1


def test_gon_json_roundtrip(tmp_path, capsys):
    src = tmp_path / "gon.json"
    src.write_text(json.dumps({"n": 4, "labels": [[1, 0], [0, 1]]}))
    code, out, _ = run(capsys, "gon", str(src))
    assert code == 0
    payload = json.loads(out)
    assert payload["validation"]["valid"] is True
    assert payload["b2"] == 0


def test_gon_invalid(capsys, tmp_path):
    src = tmp_path / "gon.json"
    src.write_text(json.dumps({"n": 4, "labels": [[1, 0], [2, 0]]}))
    code, out, _ = run(capsys, "gon", str(src))
    assert code == 1
    payload = json.loads(out)
    assert payload["validation"]["valid"] is False


@pytest.mark.parametrize("argv, labels", [
    (["gon", "--standard", "5"], None),
    (["gon", "-"], [[1, 0], [0, 1], [1, 1]]),
    (["gon", "-"], [[1, 0], [2, 0]]),
])
def test_gon_validates_once_per_request(capsys, monkeypatch, argv, labels):
    # The validation also backs betti2 and unimodular_model, which the
    # command calls after it: one request still validates the labels once.
    calls = []
    validate = orbitgon.validate
    monkeypatch.setattr(orbitgon, "validate", lambda g: calls.append(g) or validate(g))
    if labels is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": 4, "labels": labels})))
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    assert len(calls) == 1
    assert code == (0 if payload["validation"]["valid"] else 1)
    assert ("model" in payload) == payload["validation"]["valid"]


@pytest.mark.parametrize("stdin", [
    "[1, 2]",
    '{"n": "4", "labels": [[1, 0], [0, 1]]}',
    '{"n": 4.0, "labels": [[1, 0], [0, 1]]}',
    '{"n": 4, "labels": 5}',
    '{"n": 4, "labels": [[1.5, 0], [0, 1]]}',  # not truncated to [1, 0]
], ids=["list", "n_string", "n_float", "labels_int", "label_float"])
def test_gon_bad_json_exits_usage(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code, out, err = run(capsys, "gon", "-")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_plumb(tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text(
        "bundle b0 lens(3,5) 0\n"
        "disc d1 5\n"
        "disc d2 5\n"
        "edge b0 d1 +\n"
        "edge b0 d2 +\n"
    )
    code, out, _ = run(capsys, "plumb", str(graph))
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 6
    assert len(payload["reduced_edges"]) == 1


# Every refused declaration names its line: fields missing or past the
# last, an unknown kind, a bad sign, and what the line's fields refuse.
@pytest.mark.parametrize("declaration, fields", [
    ("bundle a S(3)", "bundle needs <name> <manifold-expr> <euler>"),
    ("disc d", "disc needs <name> <rank>"),
    ("edge a", "edge needs <name> <name> [+|-]"),
    ("bundle b0 lens(3,5) 0 junk", "bundle takes <name> <manifold-expr> <euler>"),
    ("disc d1 5 7", "disc takes <name> <rank>"),
    ("edge b0 d1 + x", "edge takes <name> <name> [+|-]"),
    ("foo a", "unknown declaration 'foo'"),
    ("edge b0 d1 *", "bad edge sign '*'"),
    ("bundle b0 foo 0", "unknown token 'foo'"),
    ("disc d1 2", "trivial disc nodes need rank >= 3"),
], ids=["bundle", "disc", "edge", "bundle-extra", "disc-extra", "edge-extra", "unknown", "sign",
        "expr", "rank"])
def test_plumb_short_declaration_names_its_fields(tmp_path, capsys, declaration, fields):
    graph = tmp_path / "graph.txt"
    graph.write_text(f"# a comment\n{declaration}\n")
    code, out, err = run(capsys, "plumb", str(graph))
    assert (code, out, err) == (2, "", f"error: line 2: {fields}\n")


def test_caps_bound_dimension_and_gon_edges():
    # The largest sizes pass the caps; one more is refused.
    assert topology.CAPS == {"dimension": 20000, "gon edges": 1400, "nesting depth": 200}
    zero = topology.EulerClass.zero()
    at_cap = (topology.sphere(20000), topology.cp(10000),
              topology.suspend(topology.sphere(19999), zero))
    assert [topology.dim(x) for x in at_cap] == [20000] * 3
    assert orbitgon.standard_gon(699).m == 1400
    assert orbitgon.gon(4, [[1, 0], [0, 1]] * 700).m == 1400
    for make in (lambda: orbitgon.standard_gon(700), lambda: topology.dim(topology.sphere(20001)),
                 lambda: topology.dim(topology.suspend(topology.sphere(20000), zero)),
                 lambda: orbitgon.gon(4, [[1, 0], [0, 1]] * 701)):
        with pytest.raises(Unsupported, match="above the cap of"):
            make()


# The first two would run for minutes uncapped: never run such a request
# without its cap.
@pytest.mark.parametrize("argv, message", [
    (["gon", "--standard", "100000"], "gon edges 200002 is above the cap of 1400"),
    (["homology", "S(99999999999999999999)"],
     "dimension 99999999999999999999 is above the cap of 20000"),
    (["suspend", "CP(10000)", "0"], "dimension 20001 is above the cap of 20000"),
    (["homology", "csum(S(3)xS(19998),S(2)xS(19999))"],
     "dimension 20001 is above the cap of 20000"),
], ids=["gon", "sphere", "suspend", "product"])
def test_request_above_a_cap_is_refused_before_any_work(capsys, argv, message):
    # Refused before anything that grows with the size is allocated: the
    # traced peak stays far below what a within-cap gon --standard 40 needs.
    cli._parser()  # built once per process; not part of a request's cost
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert cli.main(["gon", "--standard", "40"]) == 0
        within = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert (code, err) == (3, f"unsupported: {message}\n")
    assert peak < 32_000 < 200_000 < within


def cli_in_fresh_process(*argv):
    """Exit code, stdout and stderr of the CLI run as a module in a fresh
    interpreter, whose memos hold no smaller depth of a nested request."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "twistbench.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def nested_suspensions(depth: int) -> str:
    return "susp(0," * depth + "S(3)" + ")" * depth


@pytest.mark.parametrize("argv, dimension", [
    (["homology", nested_suspensions(200)], 203),
    (["homology", nested_suspensions(200), "--decompose"], 203),
    (["suspend", nested_suspensions(200), "0"], 204),
], ids=["homology", "decompose", "suspend"])
def test_request_at_the_nesting_depth_cap_answers(argv, dimension):
    code, out, err = cli_in_fresh_process(*argv)
    assert (code, err) == (0, "")
    assert json.loads(out)["dimension"] == dimension


# Without the cap, 330 nested suspensions overflow the interpreter's stack.
@pytest.mark.parametrize("text", [
    nested_suspensions(201),
    nested_suspensions(1000),
    "csum(S(4)," * 201 + "S(4)" + ")" * 201,
], ids=["susp-201", "susp-1000", "csum-201"])
def test_request_above_the_nesting_depth_cap_exits_3_with_one_line(text):
    code, out, err = cli_in_fresh_process("homology", text)
    assert (code, out, err) == (3, "", "unsupported: nesting depth 201 is above the cap of 200\n")


def reference_expressions(monkeypatch):
    """The 51 expressions whose homology the ``topology_queries`` benchmark
    workload computes as references before its first op."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    wk = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", wk)  # its dataclasses look it up
    spec.loader.exec_module(wk)
    exprs = [base for base, _ in wk.SUSPEND_SUPPORTED]
    for base, e, n in wk.PLUMB_BASES:
        exprs += [wk.star_boundary(base, e, n, leaves) for leaves in range(1, 6)]
    return exprs


def test_homology_path_runs_no_smith_reduction(capsys, monkeypatch, tmp_path):
    # Invariant factors come from gcd and lcm: homology, suspend and plumb
    # answer as before with every name of intlat.snf made to raise.
    graph = tmp_path / "graph.txt"
    graph.write_text("bundle b0 lens(3,5) prim\n"
                     + "".join(f"disc d{k} 5\nedge b0 d{k} +\n" for k in (1, 2, 3)))
    exprs = reference_expressions(monkeypatch)
    assert len(exprs) == 51
    requests = [["homology", x] for x in exprs] + [
        ["homology", f"csum({','.join(['lens(3,5)'] * 300)})"],
        ["homology", "susp(0,csum(lens(3,9),lens(5,9),lens(3,9)))", "--decompose"],
        ["suspend", "csum(lens(3,5),N(2))", "[prim,0]"],
        ["suspend", "lens(5,7)", "prim"],
        ["suspend", "CP(4)", "div(6)"],
        ["plumb", str(graph)],
    ]
    expected = [run(capsys, *argv) for argv in requests]
    assert all(code == 0 for code, _, _ in expected)

    def refuse(a):
        raise AssertionError("Smith reduction on the homology path")

    snf = intlat.snf
    for name, module in list(sys.modules.items()):
        if name.startswith("twistbench"):
            for attr, value in list(vars(module).items()):
                if value is snf:
                    monkeypatch.setattr(module, attr, refuse)
    topology.homology.cache_clear()
    for argv, want in zip(requests, expected):
        assert run(capsys, *argv) == want, argv


def test_certify_config_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 3\ns0 = 1.047\nric_min_base = 2.0\n")
    out_path = tmp_path / "result.json"
    code, _, _ = run(capsys, "certify", str(cfg), "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["verdict"] == "pass"
    assert payload["margins"]["ricci"] > 0
    assert payload["gluing"]["pass"] is True


def test_readme_certify_example_certifies(tmp_path, capsys):
    # README's example config, verbatim: its values carry inline comments.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(b for b in readme.split("```")[1::2] if b.lstrip("\n").startswith("[certify]"))
    assert "s0 = 1.047            # gluing radius" in block
    cfg = tmp_path / "certify.ini"
    cfg.write_text(block)
    code, out, err = run(capsys, "certify", str(cfg))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["verdict"], payload["params"]["n"], payload["params"]["s0"]) == ("pass", 3, 1.047)


def test_certify_bad_s0_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 3\ns0 = 0.0\n")
    code, _, err = run(capsys, "certify", str(cfg))
    assert code == 2


@pytest.mark.parametrize("section", ["certify", "profile"])
@pytest.mark.parametrize("s0", ["1e-9", "0", "2.0", "nan", "inf", "-1.0", repr(2 * math.pi + 1)])
def test_bad_s0_is_named_in_its_own_terms(tmp_path, capsys, section, s0):
    # cos(1e-9) rounds to 1: the one-line error names s0 and its documented
    # range, never a lam the config did not give.
    cfg = tmp_path / "c.ini"
    cfg.write_text(f"[{section}]\nn = 4\ns0 = {s0}\n")
    code, out, err = run(capsys, section.replace("profile", "profile-export"), str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: gluing radius s0 must lie in (0, pi/2) with cos(s0) < 1, not {float(s0)!r}\n"


def test_certify_missing_file_exits_usage(capsys):
    code, _, err = run(capsys, "certify", "/nonexistent/conf.ini")
    assert code == 2


def test_certify_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 3\ns0 = 1.0\nbogus = 1\n")
    code, _, err = run(capsys, "certify", str(cfg))
    assert code == 2
    assert "bogus" in err


@pytest.mark.parametrize("text", [
    "n = 4\ns0 = 1.0\n",
    "[certify]\nn = 4\nn = 5\ns0 = 1.0\n",
    "[certify]\nn = 4\ns0 = 1.0\n[certify]\nsafety = 0.5\n",
    "[certify]\nn = 4\ns0 = 1.0\nsafety\n",
    "[certify]\nn = 4\ns0 = 1.0\nconnection = tri%vial\n",
    "[profile]\nn = 4\ns0 = 1.0\n",
    "[certify]\ns0 = 1.0\n",
], ids=["no_section_header", "duplicate_key", "duplicate_section", "key_without_value",
        "bad_interpolation", "no_certify_section", "no_n"])
def test_certify_malformed_config_exits_usage(tmp_path, capsys, text):
    cfg = tmp_path / "certify.ini"
    cfg.write_text(text)
    code, out, err = run(capsys, "certify", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("section, key", [
    ("certify", "tol_glue"), ("certify", "tol_ode"), ("profile", "tol_ode"),
])
def test_fixed_tolerances_are_unknown_keys(tmp_path, capsys, section, key):
    # The gluing and first-integral tolerances are module constants.
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[{section}]\nn = 4\ns0 = 1.0\n{key} = 1e-8\n")
    code, out, err = run(capsys, section.replace("profile", "profile-export"), str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: unknown config key {key!r} in [{section}]\n"


@pytest.mark.parametrize("extra", [
    "connection = bounded\nsup_f = 1\nsupport_lo = 0.1\n",  # no support_hi
    "connection = trivial\nsup_f = 0.5\n",  # a trivial connection has no curvature
    "connection = twisted\n",
], ids=["support_lo_alone", "trivial_with_sup_f", "unknown_variant"])
def test_certify_bad_connection_exits_usage(tmp_path, capsys, extra):
    cfg = tmp_path / "certify.ini"
    cfg.write_text(f"[certify]\nn = 4\ns0 = 1.0\n{extra}")
    code, out, err = run(capsys, "certify", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certify_non_finite_connection_exits_usage(tmp_path, capsys):
    # A NaN bound fails every comparison, so unchecked it would certify
    # with the trivial connection's margin, as if no curvature acted.
    cfg = tmp_path / "certify.ini"
    base = "[certify]\nn = 4\ns0 = 1.0\nconnection = bounded\n"
    for extra in (
        "sup_f = 50\nsupport_lo = nan\nsupport_hi = 0.9\n",
        "sup_f = nan\n",
        "sup_f = 50\nsup_delta_f = inf\n",
    ):
        cfg.write_text(base + extra)
        code, out, err = run(capsys, "certify", str(cfg))
        assert code == 2, extra
        assert out == "" and "finite" in err, extra


def test_profile_export(tmp_path, capsys):
    cfg = tmp_path / "profile.ini"
    cfg.write_text("[profile]\nn = 4\ns0 = 1.0\nr = 0.5\n")
    out_path = tmp_path / "profile.csv"
    code, _, _ = run(capsys, "profile-export", str(cfg), "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "s,f,fp,fpp,h,hp,hpp,segment"
    assert len(lines) > 100
    segs = {ln.rsplit(",", 1)[1] for ln in lines[1:]}
    assert segs == {"core", "cap", "tail", "splice", "flat"}


@pytest.mark.parametrize("r, code", [("1e-16", 0), ("1e-17", 1), ("1e-120", 1), ("1e-300", 1)])
def test_profile_export_at_tiny_fibre_scale(tmp_path, capsys, r, code):
    # Below about 1e-17 the origin bridge window [x0, x0 + 2 w_k] rounds
    # to a point: smooth_origin names r before anything divides by the
    # window or by the splice radius squared, which underflows at 1e-300.
    cfg = tmp_path / "profile.ini"
    cfg.write_text(f"[profile]\nn = 4\ns0 = 1.0\nr = {r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _, err = run(capsys, "profile-export", str(cfg), "--out", str(tmp_path / "p.csv"))
    assert got == code
    if code:
        assert err == f"failed: fibre scale r = {float(r)!r} collapses the origin bridge window to a point\n"


def test_profile_export_names_failed_stage(tmp_path, capsys):
    cfg = tmp_path / "profile.ini"
    cfg.write_text("[profile]\nn = 4\ns0 = 1.0\ncap_width = 50\n")
    code, _, err = run(capsys, "profile-export", str(cfg))
    assert code == 1
    assert "stage 'cap_sine'" in err


def test_certify_huge_cap_width_fails_in_cap_sine(tmp_path, capsys):
    # A width past the cap's guard fails in cap_sine, and the core table
    # is sized to the guard, not to the width.
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 4\ns0 = 1.0\ncap_width = 1e12\n")
    code, out, err = run(capsys, "certify", str(cfg))
    assert code == 1 and not out
    assert "stage 'cap_sine'" in err and "cap width too large" in err


def test_certify_collar_failure_after_the_phi_cap_shrink_is_a_verdict(tmp_path, capsys):
    # Curvature on the seam collar alone, and a phi cap that caps the
    # searched r below 1: the capped probe fails its seam collar bound,
    # which the search does not gate, and the verdict says so on stdout.
    neck, _ = warpmetric.build_neck(warpmetric.WarpParams(n=4, lam=math.cos(1.0)))
    lo = 0.5 * (neck.cap.blend_start + neck.tail.start)
    cfg = tmp_path / "certify.ini"
    cfg.write_text(
        "[certify]\nn = 4\ns0 = 1.0\nconnection = bounded\nsup_f = 0.1\nsup_delta_f = 0.1\n"
        f"support_lo = {lo!r}\nsupport_hi = {neck.s_lambda!r}\nsafety = 0.999\n"
    )
    code, out, err = run(capsys, "certify", str(cfg))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["verdict"] == "fail" and payload["params"]["r"] < 1.0


def test_certify_overflowing_curvature_bound_is_a_stage_error(tmp_path, capsys):
    # sup_f = 1e200 overflows sup_f**2 in the phi cap and in the frame
    # bound alike; either way the search's stage names the failure on
    # one stderr line, with no traceback.
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 4\ns0 = 1.0\nconnection = bounded\nsup_f = 1e200\n")
    code, out, err = run(capsys, "certify", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: stage 'search_r': ") and err.count("\n") == 1


def test_certify_overflowing_frame_bound_exhausts_quietly(tmp_path, capsys):
    # sup_delta_f = 1e300 overflows b * b in the fold's root: the root is
    # 0, so the search is Exhausted, and numpy's overflow warning stays
    # off stderr, which holds the one failed: line.
    cfg = tmp_path / "certify.ini"
    cfg.write_text("[certify]\nn = 4\ns0 = 1.0\nconnection = bounded\nsup_delta_f = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certify", str(cfg))
    assert (code, out) == (1, "")
    assert err.startswith("failed: stage 'search_r': no fibre scale") and err.count("\n") == 1


def test_certify_underflowing_curvature_bound_certifies(tmp_path, capsys):
    # sup_f = 1e-200 underflows sup_f**2 to 0: the phi cap treats it like
    # sup_f = 0, so the request certifies with the margins of 1e-150,
    # whose square is still a float, instead of dividing by zero.
    outs = []
    for sup_f in ("1e-150", "1e-200"):
        cfg = tmp_path / "certify.ini"
        cfg.write_text(f"[certify]\nn = 4\ns0 = 1.0\nconnection = bounded\nsup_f = {sup_f}\n")
        code, out, err = run(capsys, "certify", str(cfg))
        assert (code, err) == (0, ""), sup_f
        outs.append(json.loads(out))
    assert outs[1]["verdict"] == "pass"
    assert outs[1]["margins"] == outs[0]["margins"]


@pytest.mark.parametrize("line", ["cap_width = nan", "origin_eps = -1", "ric_min_base = inf", "step = 0"])
def test_certify_rejects_nonfinite_and_out_of_range(tmp_path, capsys, line):
    cfg = tmp_path / "certify.ini"
    cfg.write_text(f"[certify]\nn = 4\ns0 = 1.0\n{line}\n")
    code, out, err = run(capsys, "certify", str(cfg))
    assert code == 2 and not out
    assert line.split()[0] in err


def test_stdin_expression(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("lens(3,5)"))
    code, out, _ = run(capsys, "homology", "-")
    assert code == 0
    payload = json.loads(out)
    assert payload["pi1"] == "Z/3"


def test_parser_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # main builds its parser once per process.  A call must answer as a
    # fresh parser would after any earlier call: a flag, a usage error or
    # an --out path of one call does not reach the next.
    out_path = tmp_path / "report.json"
    calls = [
        ("homology", "--decompose", "susp(0,S(3))"),
        ("homology", "susp(0,S(3))"),
        ("homology",),
        ("homology", "lens(3,5)", "--out", str(out_path)),
        ("homology", "lens(3,5)"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(capsys, *argv))
    written = out_path.read_text()
    out_path.unlink()

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    kept = [run(capsys, *argv) for argv in calls]
    assert len(builds) == 1
    assert kept == fresh
    decomposed, plain, usage, to_file, to_stdout = kept
    assert json.loads(decomposed[1])["expression"] == "S(4)"
    assert json.loads(plain[1])["expression"] != "S(4)"
    assert usage[0] == 2 and not usage[1]
    assert to_file == (0, "", "") and out_path.read_text() == written
    assert to_stdout[0] == 0 and to_stdout[1] == written


def test_config_parser_built_once_and_keeps_no_state(capsys, monkeypatch, tmp_path):
    # _load_config reads every config with one parser per process.  A read
    # must give the values and errors a fresh parser gives after any
    # earlier read: no section, [DEFAULT] key or interpolation source of
    # one config reaches the next, nor what a failed read left behind.
    texts = [
        "[DEFAULT]\nsafety = 0.25\nsup_f = 1.0\n[certify]\nn = 4\ns0 = %(sup_f)s\n[extra]\ny = 2\n",
        "[certify]\nn = 4\ns0 = 1.0\n",
        "[certify]\nn = 4\ns0 = %(sup_f)s\n",
        "[extra]\ny = 2\n",
        "[certify]\nn = 4\ns0 = 1.0\n[certify]\nsafety = 0.5\n",
        "[profile]\nn = 4\ns0 = 1.0\n",
    ]
    paths = []
    for i, text in enumerate(texts):
        paths.append(tmp_path / f"config{i}.ini")
        paths[-1].write_text(text)

    def load(path):
        try:
            return cli._load_config(str(path), "certify", cli._CERTIFY_KEYS)
        except InputError as exc:
            return str(exc)

    fresh = []
    for path in paths:
        cli._config_parser.cache_clear()
        fresh.append(load(path))
    builds = []
    real = cli.configparser.ConfigParser
    monkeypatch.setattr(cli.configparser, "ConfigParser",
                        lambda **options: builds.append(1) or real(**options))
    cli._config_parser.cache_clear()
    kept = [load(path) for path in paths]
    assert len(builds) == 1
    assert kept == fresh
    defaults, plain, no_source, no_section, duplicate, other_section = kept
    assert defaults[0] == {"safety": "0.25", "sup_f": "1.0", "n": "4", "s0": "1.0"}
    assert plain[0] == {"n": "4", "s0": "1.0"} and plain[1:3] == (4, 1.0)
    assert no_source.startswith("bad config file") and "'sup_f'" in no_source
    assert no_section == other_section == "config file needs a [certify] section"
    assert duplicate.startswith("bad config file") and "already exists" in duplicate

    # A malformed config exits 2, and the next request still certifies.
    paths[0].write_text("[certify]\nn = 4\ns0 = 1.0\nsafety\n")
    paths[1].write_text("[certify]\nn = 3\ns0 = 1.047\nric_min_base = 2.0\n")
    code, out, err = run(capsys, "certify", str(paths[0]))
    assert (code, out) == (2, "") and err.startswith("error: bad config file")
    code, out, _ = run(capsys, "certify", str(paths[1]))
    assert code == 0 and json.loads(out)["verdict"] == "pass"
    cli._config_parser.cache_clear()
    assert run(capsys, "certify", str(paths[1])) == (0, out, "")
    assert len(builds) == 2


def test_failed_certify_frees_its_neck_without_the_cycle_collector(
    capsys, monkeypatch, tmp_path
):
    # The failed stage's frames hold the neck.  main keeps no reference
    # that ties those frames into a cycle, so the neck is freed when main
    # returns instead of waiting, with its dense grids, for the collector.
    necks = []
    real = warpmetric.build_neck

    def recording(params):
        neck = real(params)
        necks.append(weakref.ref(neck[0]))
        return neck

    monkeypatch.setattr(warpmetric, "build_neck", recording)
    cfg = tmp_path / "certify.ini"
    for s0, stage in ((0.25, "search_r"), (0.2, "smooth_origin")):
        cfg.write_text(f"[certify]\nn = 3\ns0 = {s0}\nric_min_base = 2.0\n")
        gc.collect()
        gc.disable()
        try:
            code, _, err = run(capsys, "certify", str(cfg))
            alive = necks[-1]() is not None
        finally:
            gc.enable()
        assert code == 1 and f"stage '{stage}'" in err
        assert not alive, s0


@pytest.mark.parametrize("wrapped", [False, True])
@pytest.mark.parametrize(
    "kind, code, prefix",
    [
        (Unsupported, 3, "unsupported"),
        (ComputedFailure, 1, "failed"),
        (InputError, 2, "error"),
        (OSError, 2, "error"),
        (ValueError, 2, "error"),
    ],
)
def test_exit_code_follows_the_error_kind(capsys, monkeypatch, wrapped, kind, code, prefix):
    # A StageError exits as its cause would: one map from error kind to
    # exit code and stderr prefix serves both.
    error = StageError("homology", kind("no")) if wrapped else kind("no")

    def fail(text):
        raise error

    monkeypatch.setattr(cli.grammar, "parse_manifold", fail)
    assert run(capsys, "homology", "S(3)") == (code, "", f"{prefix}: {error}\n")
