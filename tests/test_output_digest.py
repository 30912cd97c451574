"""How ``tools/output_digest.py --against`` reports a differing line, what
``--write-golden`` writes, and which arguments it refuses."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def digest():
    spec = importlib.util.spec_from_file_location(
        "output_digest", ROOT / "tools" / "output_digest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_move_is_relative_above_the_floor_and_absolute_below(digest):
    move, hashed = digest.line_move("margin 0.5 ricci 2.0", "margin 0.5 ricci 2.2")
    assert move == pytest.approx(0.2 / 2.2) and not hashed
    # Rounding-level fields: 1e-16 -> 3e-16 is a move of 2e-16, not 0.67.
    move, _ = digest.line_move("eps_prime 1e-16 margin 0.5", "eps_prime 3e-16 margin 0.5")
    assert move == pytest.approx(2e-16)
    move, _ = digest.line_move("bridge_error 0.0", "bridge_error 4e-13")
    assert move == pytest.approx(4e-13)


def test_line_move_reports_hashes_and_text(digest):
    a, b = "csv " + "0" * 64, "csv " + "1" * 64
    assert digest.line_move(a, b) == (0.0, True)
    assert digest.line_move("exit 0 pass", "exit 1 fail")[0] is None


def test_golden_requests_name_every_golden_file(digest):
    names = set(digest.golden_requests(digest.twistbench))
    assert names == {p.stem for p in (ROOT / "tests" / "golden").glob("certify_*.json")}


def test_write_golden_writes_only_the_named_files(digest, tmp_path):
    digest.write_goldens(["certify_bounded"], str(tmp_path))
    assert [p.name for p in tmp_path.iterdir()] == ["certify_bounded.json"]
    written = json.loads((tmp_path / "certify_bounded.json").read_text())
    committed = json.loads((ROOT / "tests" / "golden" / "certify_bounded.json").read_text())
    assert written["verdict"] == "pass" and written.keys() == committed.keys()
    with pytest.raises(SystemExit, match="unknown golden certify_nowhere"):
        digest.write_goldens(["certify_nowhere"], str(tmp_path))


def test_options_print_usage_and_run_no_request(digest, monkeypatch, capsys):
    # An option is never taken for the output path: --help prints the usage
    # line and exits 0, any other option or argument count exits 2, and
    # neither builds the digest.
    def refuse():
        raise AssertionError("digest_lines ran")

    monkeypatch.setattr(digest, "digest_lines", refuse)
    assert digest.main(["--help"]) == 0 and digest.main(["-h"]) == 0
    assert capsys.readouterr() == ((digest.USAGE + "\n") * 2, "")
    for argv in ([], ["-o"], ["--out", "x.txt"], ["a.txt", "b.txt"], ["-"], ["--against"],
                 ["--against", "HEAD", "x"]):
        assert digest.main(argv) == 2, argv
        assert capsys.readouterr() == ("", digest.USAGE + "\n"), argv
