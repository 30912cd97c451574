"""A seeded fuzz of the exact half's command line.

The cases are valid expressions built from every catalogue row and class
form, byte mutations of them, plumbing texts and gon JSON with bad
labels.  Each runs through ``cli.main`` in-process, with the topology
memos cleared, and must exit 0-3 with at most one stderr line, raise
nothing and finish within a few seconds.  Expressions come through stdin
and a class after ``--``, so argparse never reads a leading ``-`` (its
usage message for that is two lines, by its own design).

Each case's exit code and first stderr line are pinned as well:
``tools/fuzz_golden.py`` must rebuild ``tests/golden/fuzz.json`` byte for
byte.  Regenerate it with ``python3 tools/fuzz_golden.py
tests/golden/fuzz.json`` only when an answer changes on purpose.
"""

import contextlib
import importlib.util
import io
import json
import random
import signal
import sys
from pathlib import Path

from generators import CLASSES, random_expression, random_valid_labelling
from twistbench import cli, topology

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "fuzz.json"
CASES = 800
HANG_S = 5  # a hang guard, not a speed gate

# What a mutation splices in: brackets, digits, a huge int, non-ASCII, NUL.
SPLICES = ["(", ")", ",", "[", "]", "~", "0", "1", "7", str(10**30), "é", "∑", "\x00",
           " ", "\n", "-", "csum(", "susp(", "prim", "div("]
RUNS = "([{,0é\x00"  # characters a run repeats
# What a nesting wraps the text in.
NESTS = [("susp(0,", ")"), ("csum(", ")"), ("[", "]"), ('{"a":', "}")]


class Hang(Exception):
    """A case ran past HANG_S."""


def mutate(rng: random.Random, text: str) -> str:
    """``text`` after one to three edits: a splice, a deletion, a cut, a
    run of up to 2000 copies of one of ``RUNS``, or up to 2000 levels of
    one of ``NESTS`` around it."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        edit = rng.randrange(5)
        if edit == 0:
            text = text[:i] + rng.choice(SPLICES) + text[i:]
        elif edit == 1:
            text = text[:i] + text[i + 1:]
        elif edit == 2:
            text = text[:i]
        elif edit == 3:
            text = text[:i] + rng.choice(RUNS) * rng.randint(2, 2000) + text[i:]
        else:
            opener, closer = rng.choice(NESTS)
            levels = rng.choice([rng.randint(1, 300), rng.randint(1, 2000)])
            text = opener * levels + text + closer * levels
    return text


def class_text(rng: random.Random, arity: int) -> str:
    """A class: split over ``arity`` summands, or a single one, div(10^30) among them."""
    if arity and rng.random() < 0.5:
        return "[" + ",".join(rng.choice(CLASSES).render() for _ in range(arity)) + "]"
    return rng.choice([*CLASSES, topology.EulerClass(10**30)]).render()


def expression_case(rng: random.Random):
    x = random_expression(rng, rng.randint(3, 9))
    text = topology.render(x)
    if rng.random() < 0.5:
        text = mutate(rng, text)
    if rng.random() < 0.5:
        argv = ["homology", "-"] + (["--decompose"] if rng.random() < 0.5 else [])
        return argv, text
    e = class_text(rng, len(x.children) if x.kind == "connected_sum" else 0)
    if rng.random() < 0.5:
        e = mutate(rng, e)
    return ["suspend", "-", "--", e], text


def plumbing_case(rng: random.Random):
    n = rng.randint(3, 6)
    base = random_expression(rng, n, depth=1)
    e = class_text(rng, len(base.children) if base.kind == "connected_sum" else 0)
    lines = [f"bundle b0 {topology.render(base)} {e}"]
    for k in range(1, rng.randint(0, 4) + 1):
        lines += [f"disc d{k} {n}", f"edge b0 d{k} {rng.choice('+-')}"]
    for _ in range(rng.randint(0, 2)):
        k = rng.randrange(len(lines))
        lines[k] = mutate(rng, lines[k])
    return ["plumb", "-"], "\n".join(lines) + "\n"


def gon_case(rng: random.Random):
    n = rng.randint(4, 6)
    labels = [list(a) for a in random_valid_labelling(rng, n, rng.randint(n - 2, n + 6)).labels]
    data = {"n": n, "labels": labels}
    label = rng.choice(labels)
    flaw = rng.randrange(9)
    if flaw == 0:
        label[rng.randrange(len(label))] = rng.choice(["1", None, True, [1], {}])
    elif flaw == 1:
        label[rng.randrange(len(label))] = rng.choice([1.0, 0.5, -2.0, 1e300])
    elif flaw == 2:
        label.append(rng.choice([0, 1])) if rng.random() < 0.5 else label.pop()
    elif flaw == 3:
        label[:] = [0] * len(label)
    elif flaw == 4:
        data["n"] = rng.choice([4.0, "4", None, 3, 10**30, -1])
    elif flaw == 5:
        del data[rng.choice(["n", "labels"])]
    elif flaw == 6:
        label[:] = [2 * v for v in label]  # well formed, but the gon is invalid
    text = json.dumps(data)
    if flaw == 7:
        text = mutate(rng, text)
    return ["gon", "-"], text


def cases():
    """The seeded case stream: CASES pairs of argv and stdin text."""
    rng = random.Random("cli fuzz")
    makers = [expression_case] * 3 + [plumbing_case, gon_case]
    for _ in range(CASES):
        yield rng.choice(makers)(rng)


def run_case(argv: list, stdin: str):
    """Exit code, stdout and stderr of one request, with fresh memos."""
    for memo in (topology.dim, topology.pi1, topology.spin, topology.homology):
        memo.cache_clear()
    out, err = io.StringIO(), io.StringIO()

    def hang(signum, frame):
        raise Hang(f"{argv} ran past {HANG_S} s")

    previous, stdin_was = signal.signal(signal.SIGALRM, hang), sys.stdin
    sys.stdin = io.StringIO(stdin)
    signal.setitimer(signal.ITIMER_REAL, HANG_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sys.stdin = stdin_was
    return code, out.getvalue(), err.getvalue()


def test_every_fuzzed_request_answers_or_is_refused_in_one_line():
    codes = set()
    for case, (argv, stdin) in enumerate(cases()):
        code, out, err = run_case(argv, stdin)
        where = f"case {case}: {argv} with stdin {stdin[:200]!r}"
        assert code in (0, 1, 2, 3), where
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), where
        if code == 0:
            assert err == "" and isinstance(json.loads(out), dict), where
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def test_plumb_of_a_large_star_answers_within_the_hang_guard():
    # A star of one bundle and k discs has k leaves: a reduction that sorted
    # the live leaves at each matching step took 33 s at k = 20000, and the
    # one-pass reduction takes about 0.2 s.
    discs = 20000
    text = "bundle b0 S(3) 0\n" + "".join(
        f"disc d{k} 3\nedge b0 d{k}\n" for k in range(1, discs + 1))
    code, out, err = run_case(["plumb", "-"], text)
    report = json.loads(out)
    assert (code, err) == (0, "")
    assert report["nodes"] == discs + 1 and report["reduced_edges"] == [[0, 1, "+"]]
    assert report["betti"] == [1, 0, 2 * (discs - 1), 0, 1]  # (discs - 1) S^2 x S^2


def _fuzz_golden_tool():
    spec = importlib.util.spec_from_file_location(
        "fuzz_golden", ROOT / "tools" / "fuzz_golden.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_outcomes_match_the_golden():
    recorded = GOLDEN.read_text(encoding="utf-8")
    assert len(json.loads(recorded)) == CASES
    assert _fuzz_golden_tool().fuzz_golden() == recorded


def test_golden_tool_options_print_usage_and_run_no_case(monkeypatch, capsys):
    tool = _fuzz_golden_tool()

    def refuse():
        raise AssertionError("fuzz_golden ran")

    monkeypatch.setattr(tool, "fuzz_golden", refuse)
    assert tool.main(["--help"]) == 0 and tool.main(["-h"]) == 0
    assert capsys.readouterr() == ((tool.USAGE + "\n") * 2, "")
    for argv in (["-o"], ["--out", "x.json"], ["a.json", "b.json"], ["-"]):
        assert tool.main(argv) == 2, argv
        assert capsys.readouterr() == ("", tool.USAGE + "\n"), argv
