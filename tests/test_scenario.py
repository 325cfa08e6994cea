from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from gridloop.cli import load_scenario
from gridloop.cli import main as cli_main
from gridloop.controller import ControllerConfig
from gridloop.harness import FEEDBACK_MODES, PlanSpec, ScenarioConfig

SCEN = Path(__file__).resolve().parents[1] / "scenarios"
CTL = ControllerConfig(eps_primal=7e-4, eps_dual=1e-3)


def _cfg(**kw) -> ScenarioConfig:
    return ScenarioConfig(**{"network": "ieee33", "controller": CTL, **kw})


@pytest.mark.parametrize("path", sorted(SCEN.glob("*.json")), ids=lambda p: p.name)
def test_shipped_scenarios_echo_their_file(path):
    raw = json.loads(path.read_text())
    candidate = path.parent / raw["network"]
    if candidate.exists():
        raw["network"] = str(candidate)
    cfg = load_scenario(path)
    assert cfg.to_dict() == raw
    assert ScenarioConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize(
    "override, key",
    [
        ("iteration=5", "iteration"),
        ("plan.sensor_fractoin=0.1", "plan.sensor_fractoin"),
        ("foo.bar=1", "foo"),
        ("iterations.x=1", "iterations"),
        ('plan.pseudo_fixed="false"', "plan.pseudo_fixed"),
        ("iterations=2.7", "iterations"),
        ("trials=true", "trials"),
        ("load_scale=\"1.0\"", "load_scale"),
        ("plan.sensor_nodes=[1.5]", "plan.sensor_nodes[0]"),
        ("cost=null", "cost"),
    ],
)
def test_schema_rejects_bad_keys_by_dotted_name(override, key):
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        load_scenario(SCEN / "twobus.json", [override])


def test_schema_requires_controller_steps():
    raw = _cfg().to_dict()
    del raw["controller"]["eps_primal"]
    with pytest.raises(ValueError, match=re.escape("'controller.eps_primal'")):
        ScenarioConfig.from_dict(raw)


def test_schema_defaults_and_coercion_by_annotation():
    cfg = ScenarioConfig.from_dict(
        {"network": "ieee33", "controller": {"eps_primal": 1, "eps_dual": 0.001}, "iterations": 300.0}
    )
    assert cfg == _cfg(controller=ControllerConfig(eps_primal=1.0, eps_dual=1e-3), iterations=300)
    assert type(cfg.controller.eps_primal) is float and type(cfg.iterations) is int
    assert cfg.plan == PlanSpec()


@pytest.mark.parametrize(
    "key", ["controller.eps_dual", "controller.eta", "cost.alpha", "load_scale", "plan.pseudo_sigma"]
)
@pytest.mark.parametrize("value", ["NaN", "-Infinity", "1" + "0" * 400], ids=["nan", "-inf", "1e400"])
def test_nonfinite_numbers_rejected_by_dotted_name(tmp_path, capsys, key, value):
    # NaN passes min()/max() based range checks and would only surface
    # mid-run, as a diverged plant or a NaN certificate; an integer beyond
    # the float range would overflow in the conversion.
    out = tmp_path / "out"
    assert cli_main(["run", str(SCEN / "twobus.json"), "--set", f"{key}={value}", "--out", str(out)]) == 1
    assert f"scenario key {key!r} must be finite" in capsys.readouterr().err
    assert not out.exists()
    raw = _cfg().to_dict()
    section, _, name = key.rpartition(".")
    (raw[section] if section else raw)[name] = json.loads(value)
    with pytest.raises(ValueError, match=re.escape(f"{key!r} must be finite")):
        ScenarioConfig.from_dict(raw)


def test_linearization_must_be_known():
    with pytest.raises(ValueError, match="linearization"):
        _cfg(linearization="lindistfow")


@pytest.mark.parametrize("c", [-2.576, 0.0, float("inf"), float("nan")])
def test_tighten_ci_must_be_finite_and_positive(c):
    with pytest.raises(ValueError, match="tighten_ci"):
        _cfg(tighten_ci=c)


@pytest.mark.parametrize("mode", ["full_exact", "raw_measurements", "linear_model"])
def test_tighten_ci_requires_estimating_mode(mode):
    with pytest.raises(ValueError, match="tighten_ci requires"):
        _cfg(tighten_ci=2.576, feedback_mode=mode)
    _cfg(tighten_ci=2.576, feedback_mode="pseudo_only")


@pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
def test_sensor_fraction_in_unit_interval(fraction):
    with pytest.raises(ValueError, match="sensor_fraction"):
        PlanSpec(sensor_fraction=fraction)
    PlanSpec(sensor_fraction=1.0)


@pytest.mark.parametrize(
    "override, key, message",
    [
        ("plan.sensor_sigma=-1", "plan.sensor_sigma", "must be >= 0, got -1.0"),
        ("plan.pseudo_sigma=-0.5", "plan.pseudo_sigma", "must be >= 0, got -0.5"),
        ("plan.sensor_nodes=[3,3]", "plan.sensor_nodes", "repeats node(s) [3]"),
        ("load_scale=0", "load_scale", "must be > 0, got 0.0"),
        ("load_scale=-2", "load_scale", "must be > 0, got -2.0"),
    ],
)
def test_plan_and_load_scale_rejected_by_dotted_name(override, key, message):
    # Caught at the schema, not later inside prepare as an anonymous
    # "noise levels must be nonnegative" or "duplicate sensor nodes".
    with pytest.raises(ValueError, match=re.escape(f"scenario key {key!r} {message}")):
        load_scenario(SCEN / "twobus.json", [override])


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("cost.wp", 0, "must be > 0, got 0.0"),
        ("cost.wq", -1, "must be > 0, got -1.0"),
        ("cost.alpha", -1, "must be >= 0, got -1.0"),
        ("controller.eps_primal", 0, "must be > 0, got 0.0"),
        ("controller.eps_dual", -1, "must be > 0, got -1.0"),
        ("controller.eta", 0, "must be > 0, got 0.0"),
        ("controller.v_min", 1.1, "must be below 'controller.v_max', got 1.1 and 1.05"),
        ("iterations", 0, "must be >= 1, got 0"),
        ("trials", 0, "must be >= 1, got 0"),
        ("feedback_mode", "bogus", f"must be one of {FEEDBACK_MODES}, got 'bogus'"),
        ("plant_model", "x", "must be one of ('nonlinear', 'linear'), got 'x'"),
        ("estimation_mode", "y", "must be one of ('nonlinear', 'linear'), got 'y'"),
        ("linearization", "foo", "must be one of ('lindistflow', 'jacobian'), got 'foo'"),
        ("tighten_ci", 0, "must be finite and > 0, got 0.0"),
        ("plan.sensor_fraction", 2, "must lie in (0, 1], got 2.0"),
    ],
)
def test_cost_controller_and_counts_rejected_by_dotted_name(tmp_path, capsys, key, value, message):
    # Caught at the schema with the dotted key and the value, not later
    # inside prepare as an anonymous "step sizes and eta must be positive"
    # or "per-node cost weights must be positive".
    expected = f"scenario key {key!r} {message}"
    out = tmp_path / "out"
    args = ["run", str(SCEN / "twobus.json"), "--set", f"{key}={value}", "--out", str(out)]
    assert cli_main(args) == 1
    assert f"error: {expected}" in capsys.readouterr().err
    assert not out.exists()
    raw = _cfg().to_dict()
    section, _, name = key.rpartition(".")
    (raw[section] if section else raw)[name] = value
    with pytest.raises(ValueError, match=re.escape(expected)):
        ScenarioConfig.from_dict(raw)


@pytest.mark.parametrize(
    "overrides, message",
    [
        (["plan.sensor_nodes=[0]"], "scenario key 'plan.sensor_nodes' names node(s) [0] below 1"),
        (["plan.sensor_nodes=[2,-1,0]"], "'plan.sensor_nodes' names node(s) [-1, 0] below 1"),
        (
            ["plan.sensor_nodes=null", "plan.sensor_fraction=null"],
            "scenario keys 'plan.sensor_nodes' and 'plan.sensor_fraction' are null",
        ),
        (["plan.sensor_fraction=null"], "'plan.sensor_nodes' and 'plan.sensor_fraction' are null"),
    ],
    ids=["zero", "negative", "both-null", "fraction-null"],
)
def test_sensor_set_rejected_by_dotted_name(overrides, message):
    # Caught at the schema, not later inside prepare as "sensor nodes must
    # lie in 1..N" or "either sensor_nodes or sensor_fraction is required".
    with pytest.raises(ValueError, match=re.escape(message)):
        load_scenario(SCEN / "ieee33_regulation.json", overrides)


@pytest.mark.parametrize("mode", FEEDBACK_MODES)
def test_sensor_ids_above_network_rejected_by_dotted_name(tmp_path, capsys, mode):
    # Only the loaded network knows N; every mode checks the scenario's ids,
    # also those whose plan does not use them.
    args = ["run", str(SCEN / "ieee33_regulation.json"), "--out", str(tmp_path / "o"),
            "--set", f"feedback_mode={mode}", "--set", "plan.sensor_nodes=[3,40,33]",
            "--set", "iterations=2"]
    assert cli_main(args) == 1
    err = capsys.readouterr().err
    assert "scenario key 'plan.sensor_nodes' names node(s) [40, 33] above 32" in err


@pytest.mark.parametrize("content", ["[]", "3", "null", '"ieee33"'])
def test_scenario_file_must_hold_an_object(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_text(content)
    message = f"scenario file {re.escape(str(path))} must hold a JSON object"
    with pytest.raises(ValueError, match=message):
        load_scenario(path, ["iterations=3"])
    assert cli_main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: scenario file {path}")


def test_empty_network_is_rejected(tmp_path):
    # "" would otherwise resolve to the scenario file's own directory.
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({**_cfg().to_dict(), "network": ""}))
    with pytest.raises(ValueError, match="'network'"):
        load_scenario(path)


@pytest.mark.parametrize(
    "override, key",
    [
        ("base_seed=-1", "base_seed"),
        (f"base_seed={2**63}", "base_seed"),
        ("plan.placement_seed=-3", "plan.placement_seed"),
        (f"plan.placement_seed={2**64}", "plan.placement_seed"),
    ],
)
def test_seeds_must_fit_philox_keys(override, key):
    # Every trial's seed base_seed + trial keys a Philox stream: it must be
    # a nonnegative integer that numpy takes without losing bits.
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        load_scenario(SCEN / "twobus.json", [override])


def test_last_trial_seed_must_fit_philox_key():
    last = 2**63 - 1
    _cfg(base_seed=last)
    _cfg(base_seed=last - 2, trials=3)
    _cfg(plan=PlanSpec(placement_seed=2**64 - 1))
    with pytest.raises(ValueError, match="'base_seed'"):
        _cfg(base_seed=last - 1, trials=3)


def test_cli_base_seed_override_is_checked(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli_main(["run", str(SCEN / "twobus.json"), "--out", str(out), "--set", "base_seed=-1"])
    assert rc == 1
    assert "'base_seed'" in capsys.readouterr().err
    assert not out.exists()
