"""numpy is the only runtime dependency; scipy and mpmath are for tests."""

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


def test_import_loads_no_test_only_package():
    # A fresh interpreter: this test process may have scipy loaded already.
    code = (
        "import sys, twistbench, twistbench.cli, twistbench.riccicert\n"
        f"print(sorted({TEST_ONLY!r} & {{m.split('.')[0] for m in sys.modules}}))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]", out.stdout


def test_cli_import_loads_no_numpy_polynomial():
    # The Chebyshev matrices are built by hand: importing numpy.polynomial
    # costs about 3.5 ms, which every command's start-up would pay.
    code = (
        "import sys, twistbench.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]", out.stdout
