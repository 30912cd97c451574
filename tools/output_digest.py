"""Write a digest of the program's numeric outputs to one text file.

    python3 tools/output_digest.py OUT.txt

The digest holds, for the sources of the checkout the script sits in:

* stdout, stderr and exit code of the 12 ``certify_grid`` requests of the
  benchmark, in a fixed order;
* r, margin and probe trail of ``search_r`` on the three ``scale_search``
  necks, for two seeded blocks of that workload's searches, with the
  SHA-256 of the CSV each successful search exports;
* the SHA-256 of the ``profile-export`` CSV of each of those necks.

Floats are written with ``repr``, so two digests compare equal byte for
byte only if every number is bit-identical.  To check that a change keeps
the outputs, copy this script into a checkout of the parent commit, run
it there and here, and ``cmp`` the two files.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import twistbench  # noqa: E402
import twistbench.cli  # noqa: E402,F401
from workloads import BASE_NECKS, ScaleSearch, certify_points, run_cli  # noqa: E402

SEARCH_SEED = 0
SEARCH_BLOCKS = 2


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write_config(path, section, cfg):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"[{section}]\n")
        fh.writelines(f"{k} = {v}\n" for k, v in cfg.items())


def certify_lines(tb, workdir):
    points = certify_points()
    for key in sorted(points, key=repr):
        path = os.path.join(workdir, "certify.ini")
        _write_config(path, "certify", points[key][1])
        code, out, err = run_cli(tb, ["certify", path])
        yield f"## certify {key!r}: exit {code}"
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


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python3 tools/output_digest.py OUT.txt")
    tb = twistbench
    with tempfile.TemporaryDirectory() as workdir:
        lines = [
            *certify_lines(tb, workdir),
            *search_lines(tb),
            *export_lines(tb, workdir),
        ]
    with open(argv[0], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
