"""A seeded fuzz of the exact half's command line.

The cases are valid expressions built from every catalogue row and class
form, byte mutations of them, plumbing texts and gon JSON with bad
labels.  Each runs through ``cli.main`` in-process, with the topology
memos cleared, and must exit 0-3 with at most one stderr line, raise
nothing and finish within a few seconds.  Expressions come through stdin
and a class after ``--``, so argparse never reads a leading ``-`` (its
usage message for that is two lines, by its own design).
"""

import contextlib
import io
import json
import random
import signal
import sys

from generators import CLASSES, random_expression, random_valid_labelling
from twistbench import cli, topology

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


def run_case(argv: list, stdin: str, monkeypatch):
    """Exit code, stdout and stderr of one request, with fresh memos."""
    for memo in (topology.dim, topology.pi1, topology.spin, topology.homology):
        memo.cache_clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out, err = io.StringIO(), io.StringIO()

    def hang(signum, frame):
        raise Hang(f"{argv} ran past {HANG_S} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.setitimer(signal.ITIMER_REAL, HANG_S)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def test_every_fuzzed_request_answers_or_is_refused_in_one_line(monkeypatch):
    rng = random.Random("cli fuzz")
    makers = [expression_case] * 3 + [plumbing_case, gon_case]
    codes = set()
    for case in range(CASES):
        argv, stdin = rng.choice(makers)(rng)
        code, out, err = run_case(argv, stdin, monkeypatch)
        where = f"case {case}: {argv} with stdin {stdin[:200]!r}"
        assert code in (0, 1, 2, 3), where
        assert err.count("\n") <= 1 and err.endswith("\n") == bool(err), where
        if code == 0:
            assert err == "" and isinstance(json.loads(out), dict), where
        codes.add(code)
    assert codes == {0, 1, 2, 3}
