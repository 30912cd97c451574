"""The certified domain, pinned: ``tools/domain_map.py``'s map of
``certify(n, s0)`` outcomes must equal the committed fixture.

Regenerate the fixture with ``python3 tools/domain_map.py
tests/golden/domain_map.json`` only when an outcome changes on purpose;
the map may grow (a fail or a stage error turning into a pass) but a
pass must not be lost.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "golden" / "domain_map.json"


def _domain_map_tool():
    spec = importlib.util.spec_from_file_location(
        "domain_map", ROOT / "tools" / "domain_map.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_domain_map_matches_fixture():
    recorded = FIXTURE.read_text(encoding="utf-8")
    fresh = _domain_map_tool().domain_map()
    outcomes = list(json.loads(recorded).values())
    assert len(outcomes) == 224 and outcomes.count("pass") >= 220
    assert fresh == recorded


def test_options_print_usage_and_run_no_request(monkeypatch, capsys):
    # An option is never taken for the output path: --help prints the usage
    # line and exits 0, any other option exits 2, and neither builds the map.
    tool = _domain_map_tool()

    def refuse():
        raise AssertionError("domain_map ran")

    monkeypatch.setattr(tool, "domain_map", refuse)
    assert tool.main(["--help"]) == 0 and tool.main(["-h"]) == 0
    assert capsys.readouterr() == ((tool.USAGE + "\n") * 2, "")
    for argv in (["-o"], ["--out", "x.json"], ["a.json", "b.json"], ["-"]):
        assert tool.main(argv) == 2, argv
        assert capsys.readouterr() == ("", tool.USAGE + "\n"), argv
