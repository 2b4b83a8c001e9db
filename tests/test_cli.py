"""CLI surface: argument handling, exit codes, artifact side effects."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cosimnet import cli, scenario
from cosimnet.physics import ReferencePhysicsSim
from cosimnet.sync import SyncError

from tests.test_scenario import doc

SCENARIOS = Path(scenario.__file__).parent / "scenarios"


@pytest.fixture
def scenario_file(tmp_path):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc(duration_ns=100_000_000)))
    return p


def test_validate_accepts_a_good_document(scenario_file, capsys):
    assert cli.main(["validate", "--scenario", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "2 agents" in out
    assert "seed 3" in out


def test_validate_rejects_unknown_keys(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc(bogus=1)))
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    assert "$.bogus" in capsys.readouterr().err


def test_validate_rejects_non_dense_agent_ids(tmp_path, capsys):
    document = json.loads((SCENARIOS / "static_los_30m.json").read_text())
    document["agents"][1]["id"] = 5
    p = tmp_path / "sparse.json"
    p.write_text(json.dumps(document))
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    err = capsys.readouterr().err
    assert "agents" in err and "dense" in err
    assert cli.main(["run", "--scenario", str(p), "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o" / "run_summary.json").exists()


def test_validate_rejects_a_world_whose_extent_overflows(tmp_path, capsys):
    # each bound is finite, but max - min is not: the agent's first pose
    # would be NaN
    document = json.loads((SCENARIOS / "static_los_30m.json").read_text())
    document["world"]["bounds"] = {"min": [-1.7e308, 0, 0], "max": [1.7e308, 60, 10]}
    document["agents"][0]["waypoints"] = [[-1.6e308, 30, 2], [1.6e308, 30, 2]]
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(document))
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    err = capsys.readouterr().err
    assert "world.bounds" in err and "overflows" in err


def test_non_finite_radio_values_are_rejected_by_both_commands(tmp_path, capsys):
    for name, radio in (
        ("nan", {"tx_power": float("nan")}),
        ("inf", {"mcs_table": [[5.0, float("inf")]]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(doc(duration_ns=100_000_000, radio=radio)))
        out = tmp_path / name
        assert "NaN" in p.read_text() or "Infinity" in p.read_text()
        for command in (["validate"], ["run", "--out", str(out)]):
            assert cli.main([*command, "--scenario", str(p)]) == 1
            assert "radio: " in (err := capsys.readouterr().err)
            assert "must be finite" in err
        assert not out.exists()


def test_validate_reports_missing_files(tmp_path, capsys):
    assert cli.main(["validate", "--scenario", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_run_writes_artifacts_and_reports(scenario_file, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = cli.main(
        ["run", "--scenario", str(scenario_file), "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "completed 100 windows" in stdout
    assert (out / "rate.csv").is_file()
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["seed"] == 3
    # the printed goodput is the summary's mean, from the same `metrics.mean`
    mean_bps = summary["metrics"]["mean_goodput_bps"]
    assert mean_bps > 0
    assert f"mean goodput {mean_bps / 1e6:.3f} Mb/s" in stdout


def test_run_overrides_take_effect(scenario_file, tmp_path):
    out = tmp_path / "o"
    code = cli.main(
        [
            "run", "--scenario", str(scenario_file),
            "--seed", "77", "--duration-ns", "50000000",
            "--out", str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["seed"] == 77
    assert summary["counters"]["windows_completed"] == 50


def test_run_can_emit_plots(scenario_file, tmp_path):
    out = tmp_path / "p"
    code = cli.main(
        ["run", "--scenario", str(scenario_file), "--out", str(out), "--plots"]
    )
    assert code == 0
    assert (out / "rate.svg").is_file()


def test_runtime_faults_exit_with_code_two(scenario_file, tmp_path, capsys, monkeypatch):
    def explode(config, out, plots=False):
        raise SyncError("window 12: peer desynchronized")

    monkeypatch.setattr(cli, "run_scenario", explode)
    code = cli.main(
        ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "x")]
    )
    assert code == 2
    assert "desynchronized" in capsys.readouterr().err


def test_any_runtime_fault_exits_with_code_two(scenario_file, tmp_path, capsys, monkeypatch):
    def explode(self, dt_ns):
        raise ZeroDivisionError("injected physics fault")

    monkeypatch.setattr(ReferencePhysicsSim, "step", explode)
    out = tmp_path / "x"
    code = cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ZeroDivisionError: injected physics fault" in err
    assert "partial summary left in" in err
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["counters"]["windows_completed"] == 0


def test_more_than_256_flows_are_rejected_by_both_commands(tmp_path, capsys):
    flow = {"src": "10.0.0.1", "dst": "10.0.0.2"}
    p = tmp_path / "flows.json"
    p.write_text(json.dumps(doc(duration_ns=100_000_000, flows=[flow] * 257)))
    out = tmp_path / "x"
    assert cli.main(["validate", "--scenario", str(p)]) == 1
    assert "flows: at most 256 flows" in capsys.readouterr().err
    assert cli.main(["run", "--scenario", str(p), "--out", str(out)]) == 1
    assert "flows: at most 256 flows" in capsys.readouterr().err
    assert not out.exists()


def test_a_fault_before_the_first_window_names_no_partial_summary(
    scenario_file, tmp_path, capsys, monkeypatch
):
    def explode(self, config):
        raise ValueError("injected assembly fault")

    monkeypatch.setattr(scenario.FlowHost, "add_flow", explode)
    out = tmp_path / "x"
    code = cli.main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "ValueError: injected assembly fault" in err
    assert "partial summary" not in err
    assert not (out / "run_summary.json").exists()


def test_module_entry_point(scenario_file):
    # the child finds the package where this process imported it from
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    proc = subprocess.run(
        [sys.executable, "-m", "cosimnet", "validate",
         "--scenario", str(scenario_file)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "is valid" in proc.stdout
