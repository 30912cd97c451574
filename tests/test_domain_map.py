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
