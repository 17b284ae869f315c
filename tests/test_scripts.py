"""The demo scripts run end to end in-process, exit 0 and print their
summaries; they read the scan flags and the plan preconditions."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run(monkeypatch, capsys, name: str, *argv: str) -> str:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    try:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0), f"{name} exited with {exc.code}"
    return capsys.readouterr().out


def test_scan_rings(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "scan_rings.py")
    assert out.count("== ") == 7
    assert "divisor x^3 - 2018 (order 6) -> ['small_set', 'unbounded_small_values']" in out
    assert ("root alpha=3676 (order 2, pm_one, sigma_bar=128) -> "
            "['small_values', 'unbounded_small_values']") in out
    assert "divisor x^2 - 17 (order 256) -> no attack applies" in out


def test_trace_campaign(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "trace_campaign.py", "--trials", "4")
    assert "table size 631 (analytic bound 3471.9)" in out
    assert "precondition ok: |Sigma| = 631 < q*p0^r = 3564.6" in out
    assert "trials=4  accuracy=1.000" in out


def test_unbounded_demo(monkeypatch, capsys):
    out = _run(monkeypatch, capsys, "unbounded_demo.py", "--trials", "4")
    assert out.count("== q = ") == 2 and out.count("over 4 trials") == 2
    assert "(tau = 50, decides)" in out
