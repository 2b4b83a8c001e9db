"""Scenario parsing, the end-to-end run, and artifact determinism."""

from __future__ import annotations

import csv
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from cosimnet import scenario, wire
from cosimnet.netsim import NetSimError, RadioParams, ReferenceNetSim
from cosimnet.physics import FidelityKind
from cosimnet.scenario import (
    ARTIFACT_NAMES,
    ConfigError,
    MetricsConfig,
    config_as_dict,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from cosimnet.sync import DEFAULT_WINDOW_NS


def doc(**overrides):
    """A small valid scenario: two static agents 30 m apart, one flow."""
    base = {
        "world": {
            "bounds": {"min": [0, 0, 0], "max": [100, 100, 20]},
            "obstacles": [],
        },
        "agents": [
            {"id": 0, "address": "10.0.0.1", "waypoints": [[10, 50, 2]]},
            {"id": 1, "address": "10.0.0.2", "waypoints": [[40, 50, 2]]},
        ],
        "flows": [
            {
                "src": "10.0.0.1",
                "dst": "10.0.0.2",
                "payload_size": 1000,
                "retransmit_timeout_ns": 15_000_000,
            }
        ],
        "duration_ns": 400_000_000,
        "seed": 3,
    }
    base.update(overrides)
    return base


def run(tmp_path, document, name="out", **kw):
    return run_scenario(parse_scenario(document), tmp_path / name, **kw)


# -- parsing ------------------------------------------------------------------


def test_minimal_document_fills_defaults():
    config = parse_scenario(doc())
    assert config.window_ns == DEFAULT_WINDOW_NS
    assert config.radio == RadioParams()
    assert config.fidelity.kind is FidelityKind.LOS_NLOS
    assert config.metrics == MetricsConfig()
    assert config.seed == 3
    assert len(config.flows) == 1
    assert config.flows[0].arq_window == 16


def test_config_echo_reparses_to_the_same_config():
    config = parse_scenario(doc())
    assert parse_scenario(config_as_dict(config)) == config


def test_config_echo_round_trips_non_defaults():
    document = doc(
        world={
            "bounds": {"min": [0, 0, 0], "max": [200, 200, 30]},
            "obstacles": [
                {"min": [10, 10, 0], "max": [20, 20, 12], "loss_db": 7.5}
            ],
        },
        fidelity={"kind": "disk", "radius": 55.0},
        radio={"tx_power": 17.0, "queue_capacity": 64},
        window_ns=2_000_000,
        metrics={"sample_period_ns": 20_000_000},
        seed=99,
    )
    config = parse_scenario(document)
    assert config.radio.tx_power == 17.0
    assert config.fidelity.radius == 55.0
    assert parse_scenario(config_as_dict(config)) == config


@pytest.mark.parametrize(
    "document, path",
    [
        (doc(bogus=1), "$.bogus"),
        (
            doc(world={"bounds": {"min": [0, 0, 0], "max": [9, 9, 9]}, "x": 1}),
            "world.x",
        ),
        (
            doc(
                world={
                    "bounds": {"min": [0, 0, 0], "max": [9, 9, 9]},
                    "obstacles": [
                        {"min": [1, 1, 1], "max": [2, 2, 2], "tint": "red"}
                    ],
                }
            ),
            "world.obstacles[0].tint",
        ),
        (
            doc(
                agents=[
                    {
                        "id": 0,
                        "address": "10.0.0.1",
                        "waypoints": [[1, 1, 1]],
                        "color": 3,
                    }
                ]
            ),
            "agents[0].color",
        ),
        (doc(radio={"foo": 1}), "radio.foo"),
        (
            doc(
                flows=[
                    {"src": "10.0.0.1", "dst": "10.0.0.2", "rate": 5}
                ]
            ),
            "flows[0].rate",
        ),
        (doc(metrics={"bins": 3}), "metrics.bins"),
        (doc(fidelity={"kind": "los_nlos", "mode": 2}), "fidelity.mode"),
    ],
)
def test_unknown_keys_are_rejected_with_their_path(document, path):
    with pytest.raises(ConfigError) as err:
        parse_scenario(document)
    assert err.value.path == path
    assert "unknown key" in str(err.value)


def test_duration_must_be_a_multiple_of_the_window():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(duration_ns=1_500_500))
    assert err.value.path == "duration_ns"
    assert "1500500" in str(err.value)
    assert str(DEFAULT_WINDOW_NS) in str(err.value)


def test_sample_period_must_align_with_the_window():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(metrics={"sample_period_ns": 1_500_000}))
    assert err.value.path == "metrics.sample_period_ns"


def test_sample_period_must_divide_the_duration():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(metrics={"sample_period_ns": 7_000_000}))
    assert "duration" in str(err.value)


def test_smoothing_window_must_align_with_the_sample_period():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(metrics={"smoothing_window_ns": 15_000_000}))
    assert err.value.path == "metrics.smoothing_window_ns"


def test_waypoints_must_stay_inside_the_world():
    agents = [
        {"id": 0, "address": "10.0.0.1", "waypoints": [[10, 50, 2]]},
        {"id": 1, "address": "10.0.0.2", "waypoints": [[10, 10, 2], [300, 10, 2]]},
    ]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(agents=agents))
    assert err.value.path == "agents[1].waypoints[1]"
    assert "outside" in str(err.value)


def test_flow_addresses_must_be_bound_to_agents():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(flows=[{"src": "10.0.0.1", "dst": "10.9.9.9"}]))
    assert err.value.path == "flows[0].dst"
    assert "10.9.9.9" in str(err.value)


def test_duplicate_addresses_are_rejected():
    agents = [
        {"id": 0, "address": "10.0.0.1", "waypoints": [[10, 50, 2]]},
        {"id": 1, "address": "10.0.0.1", "waypoints": [[40, 50, 2]]},
    ]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(agents=agents, flows=[]))
    assert err.value.path == "agents"


def test_agent_ids_must_be_dense():
    agents = [
        {"id": 0, "address": "10.0.0.1", "waypoints": [[10, 50, 2]]},
        {"id": 5, "address": "10.0.0.2", "waypoints": [[40, 50, 2]]},
    ]
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(agents=agents))
    assert err.value.path == "agents"
    assert "dense" in str(err.value)
    # listed out of order is fine: the ids still cover 0..n-1
    shuffled = [dict(agents[1], id=1), agents[0]]
    assert len(parse_scenario(doc(agents=shuffled)).tracks) == 2


def test_malformed_addresses_are_rejected():
    agents = [
        {"id": 0, "address": "999.0.0.1", "waypoints": [[10, 50, 2]]},
        {"id": 1, "address": "10.0.0.2", "waypoints": [[40, 50, 2]]},
    ]
    with pytest.raises(ConfigError):
        parse_scenario(doc(agents=agents, flows=[]))


def test_fidelity_variants():
    config = parse_scenario(doc(fidelity={"kind": "disk", "radius": 40}))
    assert config.fidelity.kind is FidelityKind.DISK
    assert config.fidelity.radius == 40.0
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(fidelity={"kind": "los_nlos", "radius": 40}))
    assert err.value.path == "fidelity.radius"
    with pytest.raises(ConfigError):
        parse_scenario(doc(fidelity={"kind": "disk"}))
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(fidelity={"kind": "magic"}))
    assert err.value.path == "fidelity.kind"


def test_seed_must_fit_in_u64():
    with pytest.raises(ConfigError):
        parse_scenario(doc(seed=-1))
    with pytest.raises(ConfigError):
        parse_scenario(doc(seed=2**64))
    assert parse_scenario(doc(seed=2**64 - 1)).seed == 2**64 - 1


def test_integer_fields_reject_floats():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(flows=[{"src": "10.0.0.1", "dst": "10.0.0.2",
                                   "payload_size": 99.5}]))
    assert err.value.path == "flows[0].payload_size"
    assert "integer" in str(err.value)


def test_mcs_table_rows_are_validated():
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(radio={"mcs_table": [[5.0, 6.5e6], [8.0]]}))
    assert err.value.path == "radio.mcs_table[1]"


def non_finite_radio_values():
    for value in (float("nan"), float("inf"), float("-inf")):
        for key in (
            "tx_power", "noise_floor", "pl0", "ref_distance", "path_loss_exponent",
            "ber_at_threshold", "ber_decade_per_db",
        ):
            yield key, value
        yield "mcs_table", [[value, 6.5e6]]
        yield "mcs_table", [[5.0, 6.5e6], [8.0, value]]


@pytest.mark.parametrize("key, value", list(non_finite_radio_values()))
def test_non_finite_radio_values_are_rejected(key, value):
    # json.loads reads the tokens NaN, Infinity and -Infinity as these floats
    with pytest.raises(ValueError, match="must be finite"):
        RadioParams(**{key: value})
    with pytest.raises(ConfigError, match="must be finite") as err:
        parse_scenario(doc(radio={key: value}))
    assert err.value.path == "radio"


def test_keyword_overrides_win():
    config = parse_scenario(
        doc(), seed=9, window_ns=2_000_000, duration_ns=600_000_000
    )
    assert config.seed == 9
    assert config.window_ns == 2_000_000
    assert config.duration_ns == 600_000_000


@pytest.mark.parametrize(
    "key, value",
    [
        ("window_ns", True), ("window_ns", 1e6), ("window_ns", "1000000"),
        ("duration_ns", True), ("duration_ns", 4e8),
        # the last BEGIN frame's time: a multiple of the window past u64
        ("duration_ns", (2**64 // 10**9 + 1) * 10**9),
        ("seed", True), ("seed", 1.5),
    ],
)
def test_keyword_overrides_get_the_document_type_checks(key, value):
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(), **{key: value})
    assert err.value.path == key
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(**{key: value}))
    assert err.value.path == key


def test_at_most_256_flows():
    flow = {"src": "10.0.0.1", "dst": "10.0.0.2"}
    assert len(parse_scenario(doc(flows=[flow] * 256)).flows) == 256
    with pytest.raises(ConfigError) as err:
        parse_scenario(doc(flows=[flow] * 257))
    assert err.value.path == "flows"
    assert "at most 256 flows" in str(err.value)


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{nope")
    with pytest.raises(ConfigError) as err:
        load_scenario(p)
    assert err.value.path == "$"
    assert "JSON" in str(err.value)


def test_load_scenario_reads_a_file(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text(json.dumps(doc()))
    assert load_scenario(p, seed=42).seed == 42


# -- the run ------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_run_writes_every_artifact(tmp_path):
    result = run(tmp_path, doc())
    assert set(result.artifacts) == set(ARTIFACT_NAMES)
    for path in result.artifacts.values():
        assert path.is_file() and path.stat().st_size > 0

    header, rows = read_csv(result.artifacts["rate.csv"])
    assert header == ["time_s", "goodput_bps", "goodput_smoothed_bps"]
    assert len(rows) == 40  # 400 ms at 10 ms sampling
    values = [float(r[1]) for r in rows]
    assert all(v >= 0 for v in values)
    assert max(values) > 0

    summary = json.loads(result.artifacts["run_summary.json"].read_text())
    assert summary["partial"] is False
    assert summary["counters"]["windows_completed"] == 400
    assert summary["metrics"]["delivered_bits_total"] > 0
    assert summary["config"]["seed"] == 3


def test_run_delivers_no_earlier_than_one_window(tmp_path):
    result = run(tmp_path, doc())
    assert result.deliveries
    window = result.config.window_ns
    assert all(
        d.delivered_at - d.first_sent_at >= window for d in result.deliveries
    )


def test_histogram_artifacts_have_unit_mass(tmp_path):
    result = run(tmp_path, doc())
    for name in ("rate_hist.csv", "delay_hist.csv"):
        header, rows = read_csv(result.artifacts[name])
        assert header[2:] == ["count", "mass", "density"]
        mass = sum(float(r[3]) for r in rows)
        assert mass == pytest.approx(1.0, abs=1e-9)
        integral = sum(
            (float(r[1]) - float(r[0])) * float(r[4]) for r in rows
        )
        assert integral == pytest.approx(1.0, rel=1e-6)


def test_timeline_records_one_sample_per_window_after_the_first(tmp_path):
    result = run(tmp_path, doc(), timeline=True)
    assert len(result.timeline) == 399  # window 0 has no peer END yet
    sample = result.timeline[0]
    assert sample.pair == (0, 1)
    assert sample.los is True
    assert sample.distance == pytest.approx(30.0)
    assert sample.wall_count == 0


def test_each_snapshot_is_validated_once(tmp_path, monkeypatch):
    """In process nothing checks a snapshot: the one check is the channel
    decoder's, and no snapshot crosses a wire here.  The netsim is handed
    one per window but the first."""
    checks, applied = [], []
    check = wire.validate_channel_data
    monkeypatch.setattr(wire, "validate_channel_data", lambda cd: checks.append(cd) or check(cd))
    apply = ReferenceNetSim.apply_channel
    monkeypatch.setattr(
        ReferenceNetSim, "apply_channel", lambda sim, cd: applied.append(cd) or apply(sim, cd)
    )
    config = load_scenario(
        Path(scenario.__file__).parent / "scenarios" / "static_los_30m.json",
        duration_ns=400 * DEFAULT_WINDOW_NS,
    )
    run_scenario(config, tmp_path / "out")
    assert len(applied) == 399  # window 0 applies no snapshot
    # both agents are parked, so every window hands over the one snapshot
    assert len({id(cd) for cd in applied}) == 1
    # where an agent moves, each window's snapshot is a new one
    applied.clear()
    config = load_scenario(
        Path(scenario.__file__).parent / "scenarios" / "patrol.json",
        duration_ns=400 * DEFAULT_WINDOW_NS,
    )
    run_scenario(config, tmp_path / "moving")
    assert len(applied) == 399
    assert len({id(cd) for cd in applied}) == 399
    assert checks == []


def test_same_seed_runs_are_byte_identical(tmp_path):
    a = run(tmp_path, doc(), "a")
    b = run(tmp_path, doc(), "b")
    for name in ARTIFACT_NAMES:
        assert a.artifacts[name].read_bytes() == b.artifacts[name].read_bytes(), name


def test_changing_the_seed_changes_the_outputs(tmp_path):
    a = run(tmp_path, doc(seed=3), "a")
    b = run(tmp_path, doc(seed=4), "b")
    assert (
        a.artifacts["rate.csv"].read_bytes() != b.artifacts["rate.csv"].read_bytes()
    )


def test_failed_run_leaves_a_flagged_partial_summary(tmp_path, monkeypatch):
    class ExplodingNetSim(ReferenceNetSim):
        def advance(self, window_start, window_ns, manifest):
            if window_start >= 100_000_000:
                raise NetSimError("injected fault")
            return super().advance(window_start, window_ns, manifest)

    monkeypatch.setattr(scenario, "ReferenceNetSim", ExplodingNetSim)
    out = tmp_path / "out"
    with pytest.raises(NetSimError):
        run_scenario(parse_scenario(doc()), out)
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["partial"] is True
    assert "injected fault" in summary["error"]
    assert not (out / "rate.csv").exists()
    counters = summary["counters"]
    assert counters["windows_completed"] == 100
    assert counters["captured_total"] >= counters["released_total"] > 0
    assert counters["captured_total"] == (
        counters["released_total"] + counters["expired_total"]
        + counters["held_at_end"] + counters["pending_at_end"]
    )
    assert 100 <= counters["physics_extractions"] <= 101


def test_partial_summary_has_the_full_summary_counters(tmp_path, monkeypatch):
    full = run(tmp_path, doc(), "full")
    full_counters = json.loads(full.artifacts["run_summary.json"].read_text())["counters"]

    class ExplodingNetSim(ReferenceNetSim):
        def advance(self, window_start, window_ns, manifest):
            if window_start >= 100_000_000:
                raise NetSimError("injected fault")
            return super().advance(window_start, window_ns, manifest)

    monkeypatch.setattr(scenario, "ReferenceNetSim", ExplodingNetSim)
    out = tmp_path / "partial"
    with pytest.raises(NetSimError):
        run_scenario(parse_scenario(doc()), out)
    counters = json.loads((out / "run_summary.json").read_text())["counters"]
    assert set(counters) == set(full_counters)
    assert len(counters) == 14
    assert counters["cleared_total"] > 0


def test_physics_fault_ends_the_run_with_its_own_error(tmp_path, monkeypatch):
    class ExplodingSim(scenario.ReferencePhysicsSim):
        steps = 0

        def step(self, dt_ns):
            self.steps += 1
            if self.steps == 50:
                raise ValueError("injected physics fault")
            super().step(dt_ns)

    monkeypatch.setattr(scenario, "ReferencePhysicsSim", ExplodingSim)
    config = load_scenario(
        Path(scenario.__file__).parent / "scenarios" / "static_los_30m.json",
        duration_ns=200_000_000,
    )
    out = tmp_path / "out"
    outcome = {}

    def target():
        try:
            run_scenario(config, out)
        except Exception as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=5)
    assert not runner.is_alive(), "run_scenario hung after a physics fault"
    assert isinstance(outcome.get("error"), ValueError)
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["error"] == "ValueError: injected physics fault"
    assert 48 <= summary["counters"]["windows_completed"] <= 49
    assert summary["counters"]["physics_extractions"] == 49


def test_app_tick_fault_ends_the_run_with_its_own_error(tmp_path, monkeypatch):
    class ExplodingHost(scenario.FlowHost):
        def tick(self, t):
            if t == 50 * DEFAULT_WINDOW_NS:
                raise RuntimeError("injected app fault")
            super().tick(t)

    monkeypatch.setattr(scenario, "FlowHost", ExplodingHost)
    config = load_scenario(
        Path(scenario.__file__).parent / "scenarios" / "static_los_30m.json",
        duration_ns=200_000_000,
    )
    out = tmp_path / "out"
    outcome = {}

    def target():
        try:
            run_scenario(config, out)
        except Exception as exc:
            outcome["error"] = exc

    runner = threading.Thread(target=target, daemon=True)
    runner.start()
    runner.join(timeout=5)
    assert not runner.is_alive(), "run_scenario hung after an app fault"
    assert isinstance(outcome.get("error"), RuntimeError)
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["partial"] is True
    assert summary["error"] == "RuntimeError: injected app fault"
    counters = summary["counters"]
    # window 50 failed in the network side's tick, after its physics step
    assert counters["windows_completed"] == 50
    assert counters["physics_extractions"] == 51
    assert counters["captured_total"] >= counters["released_total"] > 0
    assert counters["captured_total"] == (
        counters["released_total"] + counters["expired_total"]
        + counters["held_at_end"] + counters["pending_at_end"]
    )


def test_run_without_flows_is_quiet(tmp_path):
    result = run(tmp_path, doc(flows=[], duration_ns=100_000_000))
    assert result.deliveries == []
    assert not np.asarray(result.goodput_bps).any()
    assert np.isnan(result.delay_ns).all()
    header, rows = read_csv(result.artifacts["delay.csv"])
    assert all(r[1] == "" for r in rows)
    summary = json.loads(result.artifacts["run_summary.json"].read_text())
    assert summary["metrics"]["delivered_bits_total"] == 0
    assert summary["metrics"]["delay_defined_samples"] == 0
    assert summary["counters"]["captured_total"] == 0


def test_plots_are_written_on_request(tmp_path):
    result = run(tmp_path, doc(duration_ns=100_000_000), plots=True)
    for name in ("rate.svg", "delay.svg", "scatter.svg"):
        path = result.artifacts[name]
        assert path.read_text().startswith("<svg")
