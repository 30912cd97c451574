"""Write a digest of the program's numeric outputs to one text file, or
compare it with the digest of another revision.

    python3 tools/output_digest.py OUT.txt
    python3 tools/output_digest.py --against REV
    python3 tools/output_digest.py --write-golden [NAME ...]

The digest holds, for the sources of the checkout the script sits in:

* stdout, stderr and exit code of the 12 ``certify_grid`` requests of the
  benchmark, in a fixed order, and of one bounded request whose phi cap
  binds, so that the cap, not the fold's root, decides the searched r
  (``phi_cap_request``);
* r, margin and probe trail of ``search_r`` on the three ``scale_search``
  necks, for two seeded blocks of that workload's searches, with the
  SHA-256 of the CSV each successful search exports;
* the SHA-256 of the ``profile-export`` CSV of each of those necks;
* the core table, the cap blend and the h tail of each of those necks:
  the table's cell count and error estimate, N, the blend's ends, degree
  and error estimate from ``CapInfo``, and the tail's start, width,
  degree and error estimate from ``TailInfo``;
* the origin bridge of each of those necks at r in ``ORIGIN_SCALES``:
  the splice radius, eps', the bridge's degree and error estimate and
  the f-flattening ramps' degree and error estimate from
  ``smooth_origin``'s ``OriginInfo``;
* under ``## topology``, the exit code and the SHA-256 of stdout and
  stderr of exact-topology requests: ``gon --standard L`` for L = 0..40,
  seeded valid labellings from the benchmark's ``random_gon``, invalid
  labellings, seeded blocks of the ``topology_queries`` workload
  (homology, suspend, plumb and gon requests), ``homology`` of each
  catalogue atom's text form (``CATALOGUE``) and ``homology --decompose``
  of expressions that run the grammar's ``susp(`` branch and every
  suspension rule of ``decompose`` (``DECOMPOSED``).

Floats are written as ``repr(float(x))``, so two digests compare equal
byte for byte only if every number is bit-identical, and a numpy scalar
prints as the same text under numpy 1.x and 2.x.  ``--against REV`` checks that
a change keeps the outputs: it ``git archive``s REV into a temporary
directory and runs this script there and here.  REV must be e03db95 (the
spectral f-flattening ramps) or later, whose profiles carry every field
the digest reads.  If the digests differ it prints every differing line
with the largest relative move among its numeric fields (``hash
differs`` for a SHA-256 field that changed), then their count and the
largest move over all of them, and exits 1; if they match it exits 0.
It leaves the repository's ``.git`` as it was.

``--write-golden`` writes the stdout of certify requests of the digest
to ``tests/golden/NAME.json``, which the tight golden tests read: of each
NAME given, or of every request that has a golden file if none is given
(``golden_requests``: the benchmark's requests that certify, and the phi
cap's).  A declared output change then shows as a golden diff.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import twistbench  # noqa: E402
import twistbench.cli  # noqa: E402,F401
from workloads import (  # noqa: E402
    BASE_NECKS, ScaleSearch, TopologyQueries, certify_points, random_gon, run_cli,
)

GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")
SEARCH_SEED = 0
SEARCH_BLOCKS = 2
ORIGIN_SCALES = (1.0, 0.7, 0.5, 2.0**-10, 2.0**-19)
ABSOLUTE_BELOW = 1e-12
GON_STANDARD_MAX = 40
GON_RANDOM = 200
TOPOLOGY_SEED = 0
TOPOLOGY_BLOCKS = 5
# Labellings the gon command rejects: a label that is not primitive, an
# adjacent pair that is no basis, labels that do not generate, and input
# errors (wrong length, a zero label, too few edges, no labels key).
INVALID_GONS = (
    {"n": 4, "labels": [[2, 0], [0, 1], [1, 1]]},
    {"n": 4, "labels": [[1, 0], [1, 2], [0, 1]]},
    {"n": 5, "labels": [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 1, 0]]},
    {"n": 4, "labels": [[1, 0], [0, 1, 0]]},
    {"n": 4, "labels": [[1, 0], [0, 0]]},
    {"n": 4, "labels": [[1, 0]]},
    {"n": 4},
)
# One text form per catalogue atom, the sphere product among them.
CATALOGUE = ("S(5)", "CP(3)", "lens(3,5)", "N(3)", "Wu", "Poincare", "S2~S(4)", "S(2)xS(3)")
# The seeded topology requests never parse susp( or reach a suspension
# rule of decompose; these do, and the last one's spin is unknown.
DECOMPOSED = (
    "susp(0,S(4))", "susp(prim,CP(2))", "susp(prim,CP(3))", "susp(0,S(2)xS(4))",
    "susp([prim,0],csum(CP(2),S(2)xS(2)))", "susp(0,csum(N(2),S(5)))",
    "csum(S2~S(4),S(2)xS(4))", "susp(prim,lens(4,5))",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_SHA = re.compile(r"\b[0-9a-f]{64}\b")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def line_move(theirs: str, ours: str):
    """How a differing line moved: (largest move among its numeric fields,
    relative or, below ``ABSOLUTE_BELOW``, absolute; whether a SHA-256
    field differs).  The move is None if
    the lines differ other than in their numbers and hashes."""
    hashes = (_SHA.findall(theirs), _SHA.findall(ours))
    theirs, ours = _SHA.sub("#", theirs), _SHA.sub("#", ours)
    numbers = (_NUMBER.findall(theirs), _NUMBER.findall(ours))
    if _NUMBER.sub("0", theirs) != _NUMBER.sub("0", ours) or len(hashes[0]) != len(hashes[1]):
        return None, hashes[0] != hashes[1]
    move = 0.0
    for a, b in zip(*map(lambda xs: [float(x) for x in xs], numbers)):
        if a != b:
            scale = max(abs(a), abs(b))
            move = max(move, abs(a - b) / (scale if scale >= ABSOLUTE_BELOW else 1.0))
    return move, hashes[0] != hashes[1]


def _write_config(path, section, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[{section}]\n")
        fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())


def phi_cap_request(tb):
    """The certify config of ``test_certify_shrinks_r_when_phi_cap_binds``:
    at (4, 1.0), curvature 0.5 on 5 % to 14.5 % of [eps, blend_start] of
    the neck, and a phi cap below the fold's root.  Only this request
    hands search_r a largest scale below 1, the phi cap's."""
    neck, eps = tb.warpmetric.build_neck(tb.warpmetric.WarpParams(n=4, lam=math.cos(1.0)))
    span = neck.cap.blend_start - eps
    return {"n": 4, "s0": 1.0, "connection": "bounded", "sup_f": 0.5,
            "support_lo": eps + 0.05 * span, "support_hi": eps + 0.145 * span,
            "ric_min_base": 1.0, "safety": 0.999}


def _certify(tb, workdir, cfg):
    """(exit code, stdout, stderr) of ``twistbench certify`` on ``cfg``."""
    path = os.path.join(workdir, "certify.ini")
    _write_config(path, "certify", cfg)
    return run_cli(tb, ["certify", path])


def golden_requests(tb):
    """Golden file name -> certify config, for each request of the digest
    that certifies: the grid points, the bounded request, (12, 0.3) and
    the phi cap's."""
    out = {}
    for key, (kind, cfg) in certify_points().items():
        if kind != "negative":
            name = key if isinstance(key, str) else "n{}_s{}".format(key[0], str(key[1]).replace(".", "p"))
            out[f"certify_{name}"] = cfg
    out["certify_phi_cap"] = phi_cap_request(tb)
    return out


def write_goldens(names, directory=GOLDEN_DIR):
    """Write the certify stdout of each golden request in ``names`` (all of
    them if empty) to ``directory``/NAME.json; SystemExit on an unknown
    name or a request that does not exit 0."""
    requests = golden_requests(twistbench)
    unknown = sorted(set(names) - set(requests))
    if unknown:
        raise SystemExit(f"unknown golden {', '.join(unknown)}; known: {', '.join(sorted(requests))}")
    with tempfile.TemporaryDirectory() as workdir:
        for name in names or sorted(requests):
            code, out, err = _certify(twistbench, workdir, requests[name])
            if code != 0:
                raise SystemExit(f"{name}: certify exited {code}: {err.strip()}")
            with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(out)


def certify_lines(tb, workdir):
    points = certify_points()
    requests = [(repr(key), points[key][1]) for key in sorted(points, key=repr)]
    requests.append(("'phi cap'", phi_cap_request(tb)))
    for key, cfg in requests:
        code, out, err = _certify(tb, workdir, cfg)
        yield f"## certify {key}: exit {code}"
        yield "-- stdout"
        yield out.replace(workdir, "<tmp>")
        yield "-- stderr"
        yield err.replace(workdir, "<tmp>")


def search_lines(tb):
    wl = ScaleSearch(SEARCH_SEED, ROOT, None)
    wl.setup(tb)
    stream = wl.ops()
    for i in range(SEARCH_BLOCKS * wl.block_size):
        op = next(stream)
        found, probes = wl.run(tb, op)
        yield f"## search {i} {op.kind} {sorted(op.spec.items())!r}"
        yield f"probes {probes!r}"
        if found is None:
            yield "exhausted"
        else:
            r, margin, s_lambda, csv = found
            yield f"r {r!r} margin {margin!r} s_lambda {s_lambda!r} csv {_sha(csv)}"


def export_lines(tb, workdir):
    for n, s0 in BASE_NECKS:
        config = os.path.join(workdir, "profile.ini")
        out = os.path.join(workdir, "profile.csv")
        _write_config(config, "profile", {"n": n, "s0": s0, "r": 0.5})
        code, _, err = run_cli(tb, ["profile-export", config, "--out", out])
        with open(out, encoding="utf-8") as fh:
            yield f"## profile-export ({n}, {s0}): exit {code} {err!r} csv {_sha(fh.read())}"


def _fields(info, names):
    """``name value`` for each field in ``names`` of ``info``, a float as
    ``repr(float(x))``."""
    values = ((k, getattr(info, k)) for k in names)
    return " ".join(f"{k} {v!r}" if isinstance(v, int) else f"{k} {float(v)!r}" for k, v in values)


def neck_lines(tb):
    wl = ScaleSearch(SEARCH_SEED, ROOT, None)
    wl.setup(tb)
    for (n, s0), neck in zip(BASE_NECKS, wl.necks):
        core, cap, tail = neck.profile.core, neck.profile.cap, neck.profile.tail
        yield (
            f"## neck ({n}, {s0}): core cells {len(core._h)!r} error {float(core.error)!r} "
            + _fields(cap, ("big_n", "blend_start", "blend_end", "blend_degree", "blend_error"))
            + " tail " + _fields(tail, ("start", "width", "degree", "error"))
        )
        for r in ORIGIN_SCALES:
            o = tb.warpmetric.smooth_origin(neck.profile, r, neck.eps).origin
            yield (
                f"## origin ({n}, {s0}) r {r!r}: radius {float(o.radius)!r} eps_prime "
                f"{float(o.eps_prime)!r} bridge_degree {o.bridge_degree!r} "
                f"bridge_error {float(o.bridge_error)!r} ramp_degree {o.ramp_degree!r} "
                f"ramp_error {float(o.ramp_error)!r}"
            )


def topology_requests():
    """(label, argv, stdin) of every request of the ``## topology`` lines."""
    for handles in range(GON_STANDARD_MAX + 1):
        yield "gon standard", ["gon", "--standard", str(handles)], None
    rng = random.Random(TOPOLOGY_SEED)
    for _ in range(GON_RANDOM):
        n = rng.randint(4, 7)
        m = rng.randint(n - 2, n + 10)
        yield "gon random", ["gon", "-"], json.dumps({"n": n, "labels": random_gon(rng, n, m)})
    for data in INVALID_GONS:
        yield "gon invalid", ["gon", "-"], json.dumps(data)
    wl = TopologyQueries(TOPOLOGY_SEED, ROOT, None)
    stream = wl.ops()
    for _ in range(TOPOLOGY_BLOCKS * wl.block_size):
        op = next(stream)
        yield op.kind, op.argv, op.stdin
    for expr in CATALOGUE:
        yield "catalogue", ["homology", expr], None
    for expr in DECOMPOSED:
        yield "decompose", ["homology", "--decompose", expr], None


def topology_lines(tb):
    for i, (label, argv, stdin) in enumerate(topology_requests()):
        code, out, err = run_cli(tb, argv, stdin)
        given = "-" if stdin is None else _sha(stdin)
        yield (
            f"## topology {i} {label} {argv!r}: stdin {given} exit {code} "
            f"stdout {_sha(out)} stderr {_sha(err)}"
        )


def digest_lines():
    with tempfile.TemporaryDirectory() as workdir:
        return [
            *certify_lines(twistbench, workdir),
            *search_lines(twistbench),
            *export_lines(twistbench, workdir),
            *neck_lines(twistbench),
            *topology_lines(twistbench),
        ]


def against(rev):
    """Compare this checkout's digest with REV's; the exit code."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        script = os.path.join(tree, "tools", "output_digest.py")
        os.makedirs(os.path.dirname(script), exist_ok=True)
        shutil.copyfile(os.path.abspath(__file__), script)
        out = os.path.join(tree, "digest.txt")
        subprocess.run([sys.executable, script, out], check=True)
        with open(out, encoding="utf-8") as fh:
            theirs = fh.read().split("\n")
    ours = ("\n".join(digest_lines()) + "\n").split("\n")
    differ, largest = 0, 0.0
    for i, (mine, other) in enumerate(zip(ours, theirs), 1):
        if mine != other:
            differ += 1
            move, hashed = line_move(other, mine)
            if move is None:
                how = "text differs"
            else:
                largest = max(largest, move)
                how = f"largest move {move:.3g}"
            if hashed:
                how += "; hash differs"
            print(f"line {i} differs ({how})\n{rev}: {other}\nhere: {mine}")
    if len(ours) != len(theirs):
        print(f"{rev} has {len(theirs) - 1} lines, here {len(ours) - 1}")
    elif not differ:
        print(f"digest identical to {rev} ({len(ours) - 1} lines)")
        return 0
    print(
        f"{differ} of {min(len(ours), len(theirs)) - 1} lines differ from {rev}; "
        f"largest move {largest:.3g}"
    )
    return 1


USAGE = (
    "usage: python3 tools/output_digest.py OUT.txt | --against REV"
    " | --write-golden [NAME ...]"
)


def main(argv) -> int:
    """Exit 0 with the digest or the goldens written, or ``against``'s exit
    code; -h or --help prints the usage line and exits 0; any other option,
    or a wrong argument count, exits 2 before any request runs."""
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(argv) == 2 and argv[0] == "--against":
        return against(argv[1])
    if argv[:1] == ["--write-golden"]:
        write_goldens(argv[1:])
        return 0
    if len(argv) != 1 or argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    lines = digest_lines()
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
