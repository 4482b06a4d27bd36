"""The report and exit code of `trilie verify` for every bundled document but
`laurent-quotient-p5` (whose certification alone takes seconds), at seeds 0
and 7, against a fixture: a refactor must leave every report byte-identical
apart from its `duration_s` keys.

Regenerate the fixture, from a commit whose reports are the reference, with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import pathlib

import pytest

from test_cli import strip_durations
from trilie.bundled import bundled_names
from trilie.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "golden_reports.json"
SEEDS = (0, 7)
NAMES = [n for n in bundled_names() if n != "laurent-quotient-p5"]


def verify(name: str, seed: int, out_dir) -> dict:
    """The exit code and the report, without durations, of one verify run."""
    code = main(["verify", name, "--seed", str(seed), "--out-dir", str(out_dir)])
    report = json.loads((pathlib.Path(out_dir) / f"{name}.report.json").read_text())
    return {"exit": code, "report": strip_durations(report)}


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_the_fixture(seed, tmp_path, capsys):
    golden = json.loads(FIXTURE.read_text())[str(seed)]
    assert list(golden) == NAMES
    for name in NAMES:
        # compared as text, so key order counts too
        assert json.dumps(verify(name, seed, tmp_path)) == json.dumps(golden[name]), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {str(s): {n: verify(n, s, tmp) for n in NAMES} for s in SEEDS}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(data, indent=1) + "\n")
