"""numpy is the only runtime dependency, and only the metric commands load
it, or configparser; scipy and mpmath are for tests, and the CLI's import
loads neither dataclasses nor inspect.  Every public name in the package has
a caller outside the tests, and every error class has a raiser."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import twistbench

SRC = Path(twistbench.__file__).resolve().parent
REPO = Path(__file__).resolve().parents[1]
TEST_ONLY = {"scipy", "mpmath"}
# Public names that only tests reach, kept on purpose: the pointwise
# reference that sampled blocks are checked against, and the seam check
# whose fate ROADMAP item 3 decides.
TEST_REFERENCES = {"WarpProfile.evaluate", "WarpProfile.seam_residuals"}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_source_never_imports_test_only_packages():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(parse(path)):
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # No class is built by the dataclass decorator: each would exec-compile
    # its methods at import, and importing dataclasses pulls in inspect.
    # A fresh interpreter, since the benchmark harness imports dataclasses.
    code = (
        "import sys, twistbench.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
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
    # Nor configparser, which only the commands that read a config load.
    (tmp_path / "graph.txt").write_text("bundle b0 S(3) 0\ndisc d1 3\nedge b0 d1 +\n")
    (tmp_path / "certify.ini").write_text("[certify]\nn = 4\ns0 = 1.0\n")
    code = (
        "import contextlib, io, sys, twistbench, twistbench.cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert twistbench.cli.main(list(argv)) == 0, argv\n"
        "    return [m in sys.modules for m in ('numpy', 'configparser')]\n"
        "print(run('homology', 'csum(N(3),S(2)xS(3))', '--decompose'),"
        " run('suspend', 'CP(3)', 'div(4)'), run('plumb', 'graph.txt'),"
        " run('gon', '--standard', '3'), run('certify', 'certify.ini'))"
    )
    assert fresh(code, cwd=tmp_path) == "[False, False] " * 4 + "[True, True]"


def test_metric_modules_load_numpy_on_first_use():
    code = (
        "import sys, twistbench\n"
        "before = 'numpy' in sys.modules\n"
        "twistbench.warpmetric.smoothstep(0.5)\n"
        "print(before, twistbench.warpmetric.WarpParams.__name__,"
        " 'numpy' in sys.modules)"
    )
    assert fresh(code) == "False WarpParams True"


def referenced_names() -> tuple:
    """The names that the package, tools and benchmark spell, as two sets:
    the attributes (``x.name``) with the parts of dotted strings (the
    benchmark tracer names its targets as "module.Class.method"), and
    every bare name, imported name and identifier string."""
    names, attributes = set(), set()
    for tree in ("src", "tools", "bench"):
        for path in sorted((REPO / tree).rglob("*.py")):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    parts = node.value.split(".")
                    if all(part.isidentifier() for part in parts):
                        (attributes if len(parts) > 1 else names).update(parts)
    return names, attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    """A function or class counts as reached when any name, attribute or
    string spells it; a method only when an attribute or a dotted string
    does, since a local variable or a keyword of the same name calls
    nothing.  A method whose name is also another class's method or
    field, spelled as an attribute somewhere, still counts as reached:
    ``FgAbGroup.is_trivial`` and ``order`` once hid that way behind a
    record's.  So does a method that a dunder of its class calls:
    ``IntMatrix.matmul`` counted as reached through ``__matmul__``, which
    only the tests' ``@`` ran."""
    names, attributes = referenced_names()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in parse(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node.name, names | attributes)]
            if isinstance(node, ast.ClassDef):
                defs += [(m.name, f"{node.name}.{m.name}", attributes) for m in node.body
                         if isinstance(m, ast.FunctionDef)]
            unreached += [f"{path.stem}.{qual}" for name, qual, reached in defs
                          if not name.startswith("_") and name not in reached
                          and qual not in TEST_REFERENCES]
    assert unreached == []


def test_every_error_class_is_raised_or_a_base_of_one():
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in parse(SRC / "errors.py").body if isinstance(node, ast.ClassDef)}
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    used, stack = set(), [name for name in bases if name in raised]
    while stack:
        name = stack.pop()
        if name not in used:
            used.add(name)
            stack += bases.get(name, [])
    assert sorted(set(bases) - used) == []
