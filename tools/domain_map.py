"""Write the map of ``certify(n, s0)`` outcomes over the documented grid.

    python3 tools/domain_map.py [OUT.json]

The grid is n in 3..30 and {35, 40, 45, 50} times s0 in {0.25, 0.3, 0.5,
1.0, 1.3, 1.5, 1.56}, with the default parameters and the trivial
connection: 224 points, a few seconds.  Each point maps to its verdict
(``pass`` or ``fail``), or, when ``certify`` raises ``StageError``, to
the failing stage and the class of its cause, e.g. ``search_r:
Exhausted``.  Any other exception propagates.  The JSON object lists the
points in (n, s0) order, one per line, so the maps of two revisions
compare with ``diff``.  Without OUT the map goes to stdout.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from twistbench import riccicert  # noqa: E402
from twistbench.errors import StageError  # noqa: E402

DIMENSIONS = (*range(3, 31), 35, 40, 45, 50)
RADII = (0.25, 0.3, 0.5, 1.0, 1.3, 1.5, 1.56)


def outcome(n: int, s0: float) -> str:
    try:
        return riccicert.certify(n, s0).verdict
    except StageError as exc:
        return f"{exc.stage}: {type(exc.cause).__name__}"


def domain_map() -> str:
    lines = [
        f"  {json.dumps(f'n={n} s0={s0}')}: {json.dumps(outcome(n, s0))}"
        for n in DIMENSIONS
        for s0 in RADII
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


USAGE = "usage: python3 tools/domain_map.py [OUT.json]"


def main(argv) -> int:
    """Exit 0 with the map written; -h or --help prints the usage line and
    exits 0; any other option, or more than one argument, exits 2 before
    any request runs."""
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    text = domain_map()
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
