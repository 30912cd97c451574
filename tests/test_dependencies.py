"""numpy is the only runtime dependency, and only the metric commands load
it; scipy and mpmath are for tests."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import twistbench

SRC = Path(twistbench.__file__).resolve().parent
TEST_ONLY = {"scipy", "mpmath"}


def test_source_never_imports_test_only_packages():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] in TEST_ONLY]
    assert not found


def fresh(code: str, cwd=None) -> str:
    """Standard output of ``code`` in a fresh interpreter: this test process
    may have scipy or numpy loaded already."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True,
        check=True, timeout=60,
    )
    return out.stdout.strip()


def test_import_loads_no_test_only_package():
    code = (
        "import sys, twistbench, twistbench.cli, twistbench.riccicert\n"
        f"print(sorted({TEST_ONLY!r} & {{m.split('.')[0] for m in sys.modules}}))"
    )
    assert fresh(code) == "[]"


def test_cli_import_loads_no_numpy_polynomial():
    # The Chebyshev matrices are built by hand: importing numpy.polynomial
    # costs about 3.5 ms, which every metric command's start-up would pay.
    code = (
        "import sys, twistbench.cli\n"
        "twistbench.warpmetric._chebyshev(8)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    assert fresh(code) == "[]"


def test_topology_commands_load_no_numpy(tmp_path):
    (tmp_path / "graph.txt").write_text("bundle b0 S(3) 0\ndisc d1 3\nedge b0 d1 +\n")
    (tmp_path / "certify.ini").write_text("[certify]\nn = 4\ns0 = 1.0\n")
    code = (
        "import contextlib, io, sys, twistbench, twistbench.cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert twistbench.cli.main(list(argv)) == 0, argv\n"
        "    return 'numpy' in sys.modules\n"
        "print(run('homology', 'csum(N(3),S(2)xS(3))', '--decompose'),"
        " run('suspend', 'CP(3)', 'div(4)'), run('plumb', 'graph.txt'),"
        " run('gon', '--standard', '3'), run('certify', 'certify.ini'))"
    )
    assert fresh(code, cwd=tmp_path) == "False False False False True"


def test_metric_modules_load_numpy_on_first_use():
    code = (
        "import sys, twistbench\n"
        "before = 'numpy' in sys.modules\n"
        "twistbench.warpmetric.smoothstep(0.5)\n"
        "print(before, twistbench.warpmetric.WarpParams.__name__,"
        " 'numpy' in sys.modules)"
    )
    assert fresh(code) == "False WarpParams True"
