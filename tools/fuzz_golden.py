"""Write the outcome of every case of the seeded command-line fuzz.

    python3 tools/fuzz_golden.py [OUT.json]

The cases are the 800 of ``tests/test_fuzz.py``, drawn from its seeded
stream in its order and run as it runs them, in-process with fresh memos:
expressions, plumbing texts and gon JSON, valid and mutated.  Each case
maps to its exit code and the first line of its stderr ("" when it wrote
none).  The JSON object lists the cases one per line, keyed by index and
command, so the outcomes of two revisions compare with ``diff``.  Without
OUT they go to stdout.  It needs no numpy: the exact half never loads it.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import test_fuzz  # noqa: E402


def fuzz_golden() -> str:
    lines = []
    for case, (argv, stdin) in enumerate(test_fuzz.cases()):
        code, _, err = test_fuzz.run_case(argv, stdin)
        first = err.split("\n", 1)[0]
        lines.append(f"  {json.dumps(f'{case} {argv[0]}')}: {json.dumps([code, first])}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


USAGE = "usage: python3 tools/fuzz_golden.py [OUT.json]"


def main(argv) -> int:
    """Exit 0 with the outcomes written; -h or --help prints the usage line
    and exits 0; any other option, or more than one argument, exits 2
    before any case runs."""
    if argv in (["-h"], ["--help"]):
        print(USAGE)
        return 0
    if len(argv) > 1 or argv and argv[0].startswith("-"):
        print(USAGE, file=sys.stderr)
        return 2
    text = fuzz_golden()
    if argv:
        with open(argv[0], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
