"""The smoke harness (scripts/smoke.py) end to end.

Each subcommand runs its producer and its checks for real: the ``serve``
and ``spans`` checks start a ``repro serve`` subprocess and slam it from
worker processes.  ``live-obs`` is left to CI: its ``repro top
--attach`` leg runs for a fixed four seconds.
"""

import importlib.util
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "smoke.py"
_spec = importlib.util.spec_from_file_location("smoke", _SCRIPT)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)


#: What each check leaves in ``--artifacts``.
ARTIFACTS = {
    "trace": ["trace_smoke.jsonl"],
    "ts": ["ts_smoke.jsonl"],
    "serve": ["slam_report.json"],
    "spans": [
        "server-spans.jsonl",
        "spans-worker00.jsonl",
        "spans-worker01.jsonl",
        "merged-trace.json",
    ],
}


@pytest.mark.parametrize("check", list(ARTIFACTS))
def test_check_passes_and_keeps_its_artifacts(check, tmp_path, capsys):
    assert smoke.main([check, "--artifacts", str(tmp_path)]) == 0
    assert f"{check} smoke OK" in capsys.readouterr().out
    for name in ARTIFACTS[check]:
        assert (tmp_path / name).stat().st_size > 0, name


def test_failed_check_exits_1(tmp_path, capsys):
    (tmp_path / "bad.jsonl").write_text("not json\n")
    with pytest.raises(SystemExit) as excinfo:
        smoke.require_clean(smoke.check_trace(tmp_path / "bad.jsonl"), "bad")
    assert excinfo.value.code == 1
    assert "FAIL: bad: 1 problem(s)" in capsys.readouterr().out
