import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parcap.cli as cli
import parcap.wiener as wiener
from parcap.appell import IdentityResidual
from parcap.averaging import QuadratureSpec
from parcap.capacity import CapacityResult, DilationMemo, Refinement
from parcap.geometry import DyadicShells, LevelShells, Resolution
from parcap.hbrownian import GridPolicy
from parcap.kernel import lower_context
from parcap.measures import DiscreteMeasure
from parcap.reporting import config_keys
from parcap.cli import main
from test_geometry import REGION_TREES


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def run(args):
    return main([str(a) for a in args])


SERIES_CFG = {
    "context": {"dim": 1, "gamma": [0.0], "half_space": "lower"},
    "task": "series",
    "seed": 4242,
    "parameters": {"region": {"kind": "empty"}, "kind": "dyadic", "n_min": 2, "n_max": 8},
}


def test_missing_config_is_error(tmp_path, capsys):
    assert run(["run", tmp_path / "nope.json"]) == 1
    assert "not found" in capsys.readouterr().err


def test_malformed_config_lists_pointer_paths(tmp_path, capsys):
    cfg = write_config(tmp_path, {"context": {"dim": 1, "half_space": "sideways"}, "task": "mystery"})
    assert run(["run", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "/context/half_space" in err
    assert "/task" in err


def test_invalid_json_is_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(["run", path]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_series_task_empty_complement(tmp_path):
    cfg = write_config(tmp_path, SERIES_CFG)
    out = tmp_path / "out"
    assert run(["run", cfg, "--out", out]) == 0
    report = json.loads((out / "series_report.json").read_text())
    assert report["verdict"] == "non_removable"
    assert report["seed"] == 4242
    assert report["criterion"]
    assert all("time_window" in t for t in report["terms"])
    table = (out / "series_table.csv").read_text().splitlines()
    assert table[0] == "n,capacity,term,partial_sum"
    assert len(table) == 1 + len(report["terms"])


def test_byte_identical_reruns(tmp_path):
    cfg = write_config(tmp_path, SERIES_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["run", cfg, "--out", out1]) == 0
    assert run(["run", cfg, "--out", out2]) == 0
    for name in ("series_report.json", "series_table.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_seed_override_recorded(tmp_path):
    cfg = write_config(tmp_path, SERIES_CFG)
    out = tmp_path / "seeded"
    assert run(["run", cfg, "--seed", 7, "--out", out]) == 0
    report = json.loads((out / "series_report.json").read_text())
    assert report["seed"] == 7


def test_emit_selector(tmp_path):
    cfg = write_config(tmp_path, SERIES_CFG)
    out = tmp_path / "jsononly"
    assert run(["run", cfg, "--emit", "json", "--out", out]) == 0
    assert (out / "series_report.json").exists()
    assert not (out / "series_table.csv").exists()


CAPACITY_CFG = {
    "context": {"dim": 1, "gamma": [0.0], "half_space": "lower"},
    "task": "capacity",
    "seed": 1,
    "parameters": {"shell": {"kind": "dyadic", "n": 0}, "levels": [0, 1]},
}


def test_capacity_task(tmp_path):
    cfg = write_config(tmp_path, CAPACITY_CFG)
    out = tmp_path / "cap"
    status = run(["run", cfg, "--out", out])
    report = json.loads((out / "capacity_report.json").read_text())
    # exit 2 marks a measure that fails its own probe certificate; at levels
    # [0, 1] this shell's probe maximum is 1.0024
    certified = report["probe_max_potential"] <= 1.0 + report["tolerance"]
    assert status == (0 if certified else 2)
    assert report["value"] > 0
    assert report["max_potential"] <= 1.0 + 1e-3
    rows = (out / "capacity_measure.csv").read_text().splitlines()
    assert rows[0] == "x1,t,mass"


@pytest.mark.parametrize(
    "max_pot, probe_max, converged, status",
    [
        (1.0, 1.0, False, 0),   # an unconverged but certified measure is a result
        (1.0, 1.01, True, 2),   # fails the fresh-probe certificate
        (1.01, 1.0, True, 2),   # fails the collocation certificate
    ],
)
def test_capacity_exit_status_follows_certificates(
    tmp_path, monkeypatch, max_pot, probe_max, converged, status
):
    def fake_capacity_of_region(compact, **kwargs):
        return CapacityResult(
            value=1.0,
            capacitary=DiscreteMeasure(np.zeros((1, 1)), np.array([-1.0]), np.ones(1)),
            max_potential=max_pot,
            probe_max_potential=probe_max,
            comp_slack_residual=0.0,
            duality_gap=0.0,
            resolution=Resolution(),
            converged=converged,
        )

    monkeypatch.setattr(cli, "capacity_of_region", fake_capacity_of_region)
    cfg = write_config(tmp_path, CAPACITY_CFG)
    out = tmp_path / "cap"
    assert run(["run", cfg, "--out", out]) == status
    report = json.loads((out / "capacity_report.json").read_text())
    assert report["probe_max_potential"] == probe_max


def test_simulate_task_with_estimate(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "context": {"dim": 1, "gamma": [0.0], "half_space": "lower"},
            "task": "simulate",
            "seed": 11,
            "parameters": {
                "start": {"x": [0.0], "t": -1.0},
                "grid": {"t_end": -200.0, "ratio": 0.85},
                "n_paths": 400,
                "region": {"kind": "full"},
                "deltas": [-20.0, -100.0],
            },
        },
    )
    out = tmp_path / "sim"
    assert run(["run", cfg, "--out", out]) == 0
    report = json.loads((out / "simulate_report.json").read_text())
    assert report["estimate"]["verdict"] == "p_one"
    header = (out / "simulate_paths.csv").read_text().splitlines()[0]
    assert header == "path,t,x1"


def test_mean_value_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "context": {"dim": 1, "gamma": [1.0], "half_space": "upper"},
            "task": "mean-value",
            "parameters": {"u": {"kind": "caloric_quadratic"}, "c": 1.0},
        },
    )
    out = tmp_path / "mv"
    assert run(["run", cfg, "--out", out]) == 0
    report = json.loads((out / "mean_value_report.json").read_text())
    assert report["abs_error"] <= 1e-3 * (1 + abs(report["center_value"]))


def test_harnack_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "context": {"dim": 1, "gamma": [0.0], "half_space": "lower"},
            "task": "harnack",
            "parameters": {"u": {"kind": "one"}, "c_values": [0.5, 1.0]},
        },
    )
    out = tmp_path / "ha"
    assert run(["run", cfg, "--out", out]) == 0
    report = json.loads((out / "harnack_report.json").read_text())
    assert report["max_ratio"] == pytest.approx(1.0, rel=1e-10)


def test_appell_check_task(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "context": {"dim": 1, "gamma": [0.5], "half_space": "upper"},
            "task": "appell-check",
            "seed": 77,
            "parameters": {"n_points": 200, "step": 5e-3},
        },
    )
    out = tmp_path / "ap"
    assert run(["run", cfg, "--out", out]) == 0
    report = json.loads((out / "appell_check_report.json").read_text())
    assert report["all_passed"] is True


def test_appell_check_fails_without_step_halving_decay(tmp_path, monkeypatch):
    # residuals under the threshold that do not shrink as the step halves
    monkeypatch.setattr(
        cli, "verify_h_identities", lambda u, z, ctx, step: IdentityResidual(1e-6, 0.0)
    )
    cfg = write_config(
        tmp_path,
        {
            "context": {"dim": 1, "gamma": [0.5], "half_space": "upper"},
            "task": "appell-check",
            "seed": 77,
            "parameters": {"n_points": 200, "step": 5e-3},
        },
    )
    out = tmp_path / "ap"
    assert run(["run", cfg, "--out", out]) == 1
    report = json.loads((out / "appell_check_report.json").read_text())
    transfer = report["checks"][-1]
    assert transfer["halving_ratio"] == 1.0
    assert transfer["residual"] <= transfer["threshold"]
    assert report["all_passed"] is False


# One small config per task, and the nested keys of its JSON report ("a.b"
# for nested objects, "a[].b" for objects in lists) and its CSV header.
_CTX_LO = {"dim": 1, "gamma": [0.0], "half_space": "lower"}
REPORT_KEYS_CASES = {
    "capacity": (
        {"context": _CTX_LO, "task": "capacity", "seed": 1,
         "parameters": {"shell": {"kind": "dyadic", "n": 0}, "levels": [0],
                        "resolution": {"base_time": 6, "base_radial": 2}}},
        {"comp_slack_residual", "context", "context.dim", "context.gamma",
         "context.half_space", "converged", "criterion", "diagnostics",
         "diagnostics.lp_iterations", "diagnostics.lp_rounds",
         "diagnostics.lp_rows", "diagnostics.n_candidates", "diagnostics.n_collocation",
         "diagnostics.n_nodes", "diagnostics.support_size", "duality_gap", "history", "max_potential", "measure",
         "measure.masses", "measure.nodes_t", "measure.nodes_x", "probe_max_potential",
         "rel_stall", "resolution", "resolution.level", "resolution.n_angular",
         "resolution.n_polar", "resolution.n_radial", "resolution.n_time", "seed",
         "shell_time_window", "task", "tolerance", "tool_version", "value"},
        ("capacity_measure.csv", "x1,t,mass"),
    ),
    "series": (
        SERIES_CFG,
        {"confidence", "context", "context.dim", "context.gamma", "context.half_space",
         "criterion", "diagnostics", "diagnostics.n_terms", "diagnostics.reason", "kind",
         "lambda", "orientation", "partial_sums", "policy", "policy.eps_slope",
         "policy.curvature_tol", "policy.min_terms", "policy.rho_max", "policy.window",
         "policy.zero_floor",
         "refinement_levels", "rel_stall", "seed", "task", "terms", "terms[].capacity",
         "terms[].converged", "terms[].level", "terms[].n", "terms[].n_nodes", "terms[].term",
         "terms[].time_window", "terms[].weight", "terms[].max_potential",
         "terms[].probe_max_potential", "terms[].comp_slack_residual", "terms[].duality_gap",
         "tolerance", "tool_version", "verdict"},
        ("series_table.csv", "n,capacity,term,partial_sum"),
    ),
    "simulate": (
        {"context": _CTX_LO, "task": "simulate", "seed": 11,
         "parameters": {"start": {"x": [0.0], "t": -1.0}, "grid": {"t_end": -50.0, "ratio": 0.8},
                        "n_paths": 50, "region": {"kind": "full"}, "deltas": [-10.0, -40.0]}},
        {"context", "context.dim", "context.gamma", "context.half_space", "criterion",
         "estimate", "estimate.ci_high", "estimate.ci_low", "estimate.deltas",
         "estimate.diagnostics", "estimate.diagnostics.n_grid_in_tightest",
         "estimate.diagnostics.tight_halfwidth", "estimate.frequencies",
         "estimate.grid_times", "estimate.n_paths", "estimate.verdict", "grid",
         "grid.n_times", "grid.ratio", "grid.t_end", "grid.t_start", "n_paths", "seed", "task",
         "tool_version"},
        ("simulate_paths.csv", "path,t,x1"),
    ),
    "mean_value": (
        {"context": {"dim": 1, "gamma": [1.0], "half_space": "upper"}, "task": "mean-value",
         "parameters": {"u": {"kind": "caloric_quadratic"}, "c": 1.0}},
        {"abs_error", "c", "center_value", "context", "context.dim", "context.gamma",
         "context.half_space", "criterion", "seed", "task", "time_center", "time_window",
         "tolerance", "tool_version", "value"},
        ("mean_value_table.csv", "c,value,center_value,abs_error"),
    ),
    "harnack": (
        {"context": _CTX_LO, "task": "harnack",
         "parameters": {"u": {"kind": "one"}, "c_values": [0.5, 1.0]}},
        {"context", "context.dim", "context.gamma", "context.half_space", "criterion",
         "max_ratio", "results", "results[].average", "results[].c", "results[].infimum",
         "results[].ratio", "seed", "task", "time_center", "tool_version"},
        ("harnack_table.csv", "c,average,infimum,ratio"),
    ),
    "appell_check": (
        {"context": {"dim": 1, "gamma": [0.5], "half_space": "upper"}, "task": "appell-check",
         "seed": 77, "parameters": {"n_points": 50, "step": 5e-3}},
        {"all_passed", "checks", "checks[].halving_ratio", "checks[].halving_threshold",
         "checks[].name", "checks[].residual", "checks[].threshold", "context", "context.dim",
         "context.gamma", "context.half_space", "criterion", "n_points", "seed", "step", "task",
         "tool_version"},
        ("appell_check_table.csv", "check,residual,threshold"),
    ),
}


def _key_paths(obj, prefix=""):
    if isinstance(obj, dict):
        out = set()
        for k, v in obj.items():
            p = f"{prefix}.{k}" if prefix else k
            out |= {p} | _key_paths(v, p)
        return out
    if isinstance(obj, list):
        return set().union(*(_key_paths(v, prefix + "[]") for v in obj))
    return set()


@pytest.mark.parametrize("stem", sorted(REPORT_KEYS_CASES))
def test_report_keys(tmp_path, stem):
    cfg, keys, (csv_name, header) = REPORT_KEYS_CASES[stem]
    out = tmp_path / stem
    assert run(["run", write_config(tmp_path, cfg), "--out", out]) in (0, 2)
    report = json.loads((out / f"{stem}_report.json").read_text())
    assert _key_paths(report) == keys
    assert sorted(p.name for p in out.glob("*.csv")) == [csv_name]
    assert (out / csv_name).read_text().splitlines()[0] == header


@pytest.mark.parametrize("stem", ["capacity", "mean_value", "harnack"])
def test_csv_cells_are_plain_numbers(tmp_path, stem):
    cfg, _, (csv_name, _) = REPORT_KEYS_CASES[stem]
    out = tmp_path / stem
    run(["run", write_config(tmp_path, cfg), "--emit", "csv", "--out", out])
    for line in (out / csv_name).read_text().splitlines()[1:]:
        assert all(np.isfinite(float(cell)) for cell in line.split(","))


def _fake_result():
    return CapacityResult(
        value=0.0,
        capacitary=DiscreteMeasure.empty(1),
        max_potential=0.0,
        probe_max_potential=0.0,
        comp_slack_residual=0.0,
        duality_gap=0.0,
        resolution=Resolution(),
        converged=True,
    )


def test_series_task_passes_its_seed_to_the_probe(tmp_path, monkeypatch):
    seeds = []

    def fake_capacity_of_region(compact, **kwargs):
        seeds.append(kwargs.get("probe_seed"))
        return _fake_result()

    monkeypatch.setattr(wiener, "capacity_of_region", fake_capacity_of_region)
    cfg = write_config(tmp_path, SERIES_CFG)
    assert run(["run", cfg, "--seed", 7, "--out", tmp_path / "s"]) == 0
    assert seeds == [7] * 7


@pytest.mark.parametrize("task_cfg", [CAPACITY_CFG, SERIES_CFG], ids=["capacity", "series"])
@pytest.mark.parametrize("levels", [[], "012", [-1], [0, 1.0], [True]])
def test_malformed_levels_are_config_errors(tmp_path, capsys, task_cfg, levels):
    cfg = json.loads(json.dumps(task_cfg))
    cfg["parameters"]["levels"] = levels
    assert run(["run", write_config(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert "/parameters/levels" in err
    assert "Traceback" not in err and "/run" not in err


_BALL = {"kind": "space_ball", "center": [0.0], "radius": 1.0}
_POWER = {"kind": "power", "coef": 1.5, "exponent": 0.5}


@pytest.mark.parametrize(
    "key, value, pointer",
    [
        ("resolution", {"base_time": 6, "level": 2}, "/parameters/resolution/level"),
        ("resolution", {"base_radial": 2.0}, "/parameters/resolution/base_radial"),
        ("resolution", {"base_time": "6"}, "/parameters/resolution/base_time"),
        ("resolution", [6, 2], "/parameters/resolution"),
        ("policy", {"window": 4, "zero_floor": 0.0}, "/parameters/policy/zero_floor"),
        ("policy", {"rho_max": "0.8"}, "/parameters/policy/rho_max"),
        ("policy", {"min_terms": True}, "/parameters/policy/min_terms"),
        ("tol", "1e-3", "/parameters/tol"),
        # "<task>.<key>" sets the key in that task's REPORT_KEYS_CASES config
        ("series.n_min", 5.7, "/parameters/n_min"),
        ("series.n_max", 11.2, "/parameters/n_max"),
        ("mean_value.c", "1", "/parameters/c"),
        ("mean_value.tol", "1e-3", "/parameters/tol"),
        ("appell_check.n_points", "50", "/parameters/n_points"),
        ("simulate.grid", {"t_end": -50.0, "ratio": "0.5"}, "/parameters/grid/ratio"),
        ("simulate.n_paths", -5, "/parameters/n_paths"),
        ("harnack.c_values", "abc", "/parameters/c_values"),
        ("harnack.u", "one", "/parameters/u"),
        ("capacity.resolution", {"base_time": 0}, "/parameters/resolution/base_time"),
        # values of the right type outside their range, refused before any compute
        ("capacity.tol", -1, "/parameters/tol"),
        ("capacity.tol", 0, "/parameters/tol"),
        ("series.tol", float("inf"), "/parameters/tol"),
        ("series.rel_stall", -0.5, "/parameters/rel_stall"),
        ("series.rel_stall", float("nan"), "/parameters/rel_stall"),
        ("series.lam", 1.0, "/parameters/lam"),
        ("simulate.start", {"x": [0.0, 0.0], "t": -1.0}, "/parameters/start/x"),
        ("simulate.deltas", [-10.0, 5.0], "/parameters/deltas"),
        ("mean_value.c", 0, "/parameters/c"),
        ("mean_value.time_center", -1.0, "/parameters/time_center"),
        ("capacity.time_center", 1.0, "/parameters/time_center"),
        ("harnack.c_values", [0.5, -1.0], "/parameters/c_values"),
        ("capacity.shell", {"kind": "ball", "scale": -2.0}, "/parameters/shell/scale"),
        ("capacity.shell", {"kind": "lambda", "lam": 0.5, "n": 1}, "/parameters/shell/lam"),
        ("simulate.start", {"x": [0.0], "t": 1.0}, "/parameters/start/t"),
        ("simulate.grid", {"t_end": 5.0, "ratio": 0.8}, "/parameters/grid/t_end"),
        ("mean_value.tol", -1, "/parameters/tol"),
        ("mean_value.tol", 0, "/parameters/tol"),
        ("mean_value.tol", float("nan"), "/parameters/tol"),
        ("harnack.tol", -1, "/parameters/tol"),
        ("harnack.tol", 0, "/parameters/tol"),
        ("harnack.tol", float("nan"), "/parameters/tol"),
        # "<task>.context.<key>" sets the key in that task's context instead
        ("mean_value.context.gamma", [float("nan")], "/context/gamma"),
        ("appell_check.step", float("nan"), "/parameters/step"),
        ("appell_check.step", 0, "/parameters/step"),
        # keys a task does not read, refused at their own pointer
        ("harnack.tol", 1e-3, "/parameters/tol"),
        ("mean_value.tolerance", 1e-12, "/parameters/tolerance"),
        ("mean_value.bogus", 3, "/parameters/bogus"),
        ("series.time_center", -1.0, "/parameters/time_center"),
        ("capacity.policy", {"window": 4}, "/parameters/policy"),
        ("simulate.levels", [0], "/parameters/levels"),
        ("appell_check.c", 1.0, "/parameters/c"),
        # keys a task does not read inside its nested objects
        ("mean_value.u", {"kind": "caloric_quadratic", "scale": 5}, "/parameters/u/scale"),
        ("harnack.u", {"kind": "one", "c": 2.0}, "/parameters/u/c"),
        ("capacity.shell", {"kind": "dyadic", "n": 0, "scale": 2.0}, "/parameters/shell/scale"),
        ("capacity.shell", {"kind": "ball", "scale": 1.0, "n": 3}, "/parameters/shell/n"),
        ("capacity.shell", {"kind": "lambda", "lam": 2.0, "n": 1, "m": 2}, "/parameters/shell/m"),
        ("simulate.start", {"x": [0.0], "t": -1.0, "dt": 0.1}, "/parameters/start/dt"),
        # region nodes: keys are exactly a node's fields, numbers are JSON numbers
        ("simulate.region", {**_BALL, "radiuss": 2.0}, "/parameters/region/radiuss"),
        ("simulate.region", {**_BALL, "radius": "1.0"}, "/parameters/region/radius"),
        ("simulate.region", {**_BALL, "radius": True}, "/parameters/region/radius"),
        ("simulate.region", {"kind": "tube", "profile": {**_POWER, "coef": "1.5"}},
         "/parameters/region/profile/coef"),
        ("simulate.region", {"kind": "tube", "profile": {**_POWER, "scale": 1.0}},
         "/parameters/region/profile/scale"),
        ("simulate.region", {"kind": "half_space", "normal": [1.0], "offset": float("nan")},
         "/parameters/region/offset"),
        ("simulate.region", {"kind": "union", "children": [_BALL, {**_BALL, "radius": "2"}]},
         "/parameters/region/children/1/radius"),
        ("simulate.region", {"kind": "union", "children": _BALL}, "/parameters/region/children"),
        ("simulate.region", {"kind": "cone"}, "/parameters/region/kind"),
        # region values checked against the context (1-D, lower) before any compute
        ("simulate.region", {**_BALL, "center": [0.0, 1.0]}, "/parameters/region/center"),
        ("simulate.region", {"kind": "half_space", "normal": [1.0, 0.0], "offset": 0.0},
         "/parameters/region/normal"),
        ("simulate.region", {"kind": "heat_ball", "time_center": 1.0, "scale": 1.0},
         "/parameters/region/time_center"),
        ("simulate.region", {"kind": "time_slab", "t_min": 2.0, "t_max": 3.0},
         "/parameters/region/t_min"),
        ("simulate.region", {"kind": "time_slab", "t_min": -2.0, "t_max": -3.0},
         "/parameters/region/t_min"),
        ("simulate.region", {"kind": "intersection", "children": [
            _BALL, {"kind": "time_slab", "t_min": 0.0, "t_max": 1.0}]},
         "/parameters/region/children/1/t_min"),
        # "<task>./.<key>" sets a top-level key: a seed is an integer in [0, 2**64)
        ("simulate./.seed", True, "/seed"),
        ("simulate./.seed", -1, "/seed"),
        ("simulate./.seed", 2**64, "/seed"),
        ("appell_check./.seed", -5, "/seed"),
        ("appell_check./.seed", "77", "/seed"),
        ("appell_check./.seed", 7.0, "/seed"),
        # unknown keys at the top level and in the context
        ("series./.bogus", 1, "/bogus"),
        ("series.context.bogus", 1, "/context/bogus"),
        # a trend fit needs a window and a count of at least two, and rho_max > 0
        ("policy", {"window": 1}, "/parameters/policy/window"),
        ("policy", {"window": 0}, "/parameters/policy/window"),
        ("policy", {"window": -3}, "/parameters/policy/window"),
        ("policy", {"min_terms": 1}, "/parameters/policy/min_terms"),
        ("policy", {"rho_max": 0}, "/parameters/policy/rho_max"),
        ("policy", {"rho_max": -0.5}, "/parameters/policy/rho_max"),
        # a kind outside its choices
        ("series.kind", "geometric", "/parameters/kind"),
        ("mean_value.u", {"kind": "cubic"}, "/parameters/u/kind"),
        ("harnack.u", {}, "/parameters/u/kind"),
        ("capacity.shell", {"kind": "cone"}, "/parameters/shell/kind"),
        # an infinite time is refused where it is given, not found in the compute
        ("simulate.grid", {"t_end": float("-inf"), "ratio": 0.8}, "/parameters/grid/t_end"),
        ("simulate.start", {"x": [0.0], "t": float("-inf")}, "/parameters/start"),
        ("harnack.time_center", float("-inf"), "/parameters/time_center"),
        # a shell index whose scale leaves the float range, refused where it is given
        ("capacity.shell", {"kind": "dyadic", "n": 2000}, "/parameters/shell/n"),
        ("capacity.shell", {"kind": "dyadic", "n": -2000}, "/parameters/shell/n"),
        ("capacity.shell", {"kind": "lambda", "lam": 2, "n": -2000}, "/parameters/shell/n"),
        ("capacity.shell", {"kind": "lambda", "lam": 2, "n": 2000}, "/parameters/shell/n"),
        ("series./.parameters", {"region": {"kind": "empty"}, "n_min": 1100, "n_max": 1101},
         "/parameters/n_min"),
        ("series.n_max", 1101, "/parameters/n_max"),
        ("series./.parameters", {"region": {"kind": "empty"}, "n_min": -2000, "n_max": 2},
         "/parameters/n_min"),
        ("series./.parameters", {"region": {"kind": "empty"}, "kind": "lambda", "lam": 2,
                                 "n_min": 2, "n_max": 5000}, "/parameters/n_max"),
        # a finite scale whose shell's native-time window or squared cross-section
        # radii overflow: "<task>./" merges the value's top-level keys into the config
        ("capacity.shell", {"kind": "dyadic", "n": 1023}, "/parameters/shell/n"),
        ("capacity./", {"context": {"dim": 1, "gamma": [0.0], "half_space": "upper"},
                        "parameters": {"shell": {"kind": "dyadic", "n": 1023}}},
         "/parameters/shell/n"),
        ("capacity./", {"context": {"dim": 1, "gamma": [0.0], "half_space": "upper"},
                        "parameters": {"shell": {"kind": "dyadic", "n": 1022}}},
         "/parameters/shell/n"),
        ("capacity./", {"context": {"dim": 3, "gamma": [0.0, 0.0, 0.0], "half_space": "lower"},
                        "parameters": {"shell": {"kind": "dyadic", "n": 1021}}},
         "/parameters/shell/n"),
        ("capacity.shell", {"kind": "dyadic", "n": -60}, "/parameters/shell/n"),
        ("series.n_max", 1023, "/parameters/n_max"),
        ("series./", {"context": {"dim": 1, "gamma": [0.0], "half_space": "upper"},
                      "parameters": {"region": {"kind": "empty"}, "n_min": 2, "n_max": 1022}},
         "/parameters/n_max"),
        ("series.n_min", -60, "/parameters/n_min"),
    ],
)
def test_unknown_or_mistyped_settings_are_config_errors(tmp_path, capsys, key, value, pointer):
    task, _, key = key.rpartition(".")
    task, _, section = task.partition(".")
    cfg = json.loads(json.dumps(REPORT_KEYS_CASES[task or "series"][0]))
    if key == "/":
        cfg.update(value)
    else:
        (cfg if section == "/" else cfg[section or "parameters"])[key] = value
    assert run(["run", write_config(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert pointer in err
    assert "Traceback" not in err and "/run" not in err


def _accepted(family, ctx, n):
    try:
        family.check(ctx, n)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("half_space, value_1000", [
    ("upper", 3.544941777846156), ("lower", 1.112019029980878e+151)])
def test_the_largest_accepted_shell_index_runs_without_overflow(tmp_path, capsys, half_space,
                                                                value_1000):
    """The largest dyadic n the check accepts runs at level 0 with no
    RuntimeWarning, n + 1 is refused, and n = 1000 keeps its value."""
    context = {"dim": 1, "gamma": [0.0], "half_space": half_space}
    largest = max(n for n in range(900, 1100)
                  if _accepted(DyadicShells(), cli.ContextConfig(**context).ctx, n))
    values = {}
    for n in (largest, 1000, largest + 1):
        cfg = {"context": context, "task": "capacity",
               "parameters": {"shell": {"kind": "dyadic", "n": n}, "levels": [0]}}
        out = tmp_path / str(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            status = run(["run", write_config(tmp_path, cfg), "--out", out])
        err = capsys.readouterr().err
        if n > largest:
            assert status == 1 and err.startswith("error /parameters/shell/n: ")
        else:
            assert status in (0, 2) and err == ""
            values[n] = json.loads((out / "capacity_report.json").read_text())["value"]
    assert values[1000] == value_1000


def _json_slots(obj, path=""):
    """(JSON pointer, value) of obj and of everything nested in it."""
    yield path, obj
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, val in items:
        yield from _json_slots(val, f"{path}/{key}")


def _at(obj, path):
    for key in path.split("/")[1:]:
        obj = obj[int(key) if isinstance(obj, list) else key]
    return obj


@settings(max_examples=40, deadline=None)
@given(REGION_TREES, st.data())
def test_mutated_region_configs_fail_at_their_pointer(tmp_path_factory, reg, data):
    """Drop a node's required key, add an unknown one, or put a string, a bool
    or NaN in place of a number: exit 1 at that key, before any compute."""
    region = reg.to_json()
    slots = list(_json_slots(region))
    numbers = [p for p, v in slots if isinstance(v, float)]
    nodes = [p for p, v in slots if isinstance(v, dict)]
    how = data.draw(st.sampled_from(["drop", "add"] + ["retype"] * bool(numbers)))
    if how == "retype":
        path = data.draw(st.sampled_from(numbers))
        parent, _, key = path.rpartition("/")
        node = _at(region, parent)
        node[int(key) if isinstance(node, list) else key] = data.draw(
            st.sampled_from(["1.0", True, False, float("nan")]))
    else:
        parent = data.draw(st.sampled_from(nodes))
        node = _at(region, parent)
        if how == "add":
            key = "bogus"
            node[key] = 1.0
        else:
            # every key of a node is required but a tube's axis
            key = data.draw(st.sampled_from([k for k in node if k != "axis"]))
            del node[key]
        path = f"{parent}/{key}"
    cfg = json.loads(json.dumps(REPORT_KEYS_CASES["simulate"][0]))
    cfg["parameters"]["region"] = region
    tmp = tmp_path_factory.mktemp("mutated")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["run", write_config(tmp, cfg), "--out", tmp / "o"]) == 1
    assert f"error /parameters/region{path}: " in err.getvalue()
    assert "Traceback" not in err.getvalue() and "/run" not in err.getvalue()


# parameters added to the REPORT_KEYS_CASES configs before they are mutated,
# so that every key of every task is mutated
_FUZZ_MORE = {
    "capacity": {"tol": 1e-3, "rel_stall": 0.02, "time_center": -0.25},
    "series": {"lam": 2.0, "tol": 1e-3, "levels": [0],
               "resolution": {"base_time": 6, "base_radial": 2, "base_angular": 8,
                              "base_polar": 4},
               "policy": {"eps_slope": 0.05, "rho_max": 0.8, "window": 6, "min_terms": 6}},
    "mean_value": {"time_center": 1.0, "tol": 1e-3},
    "harnack": {"time_center": -0.25},
}
# the keys a config may not leave out: in every task that has them, and in
# one task only
_REQUIRED = {"/context", "/context/dim", "/context/half_space", "/task", "/parameters/shell",
             "/parameters/shell/kind", "/parameters/shell/n", "/parameters/start",
             "/parameters/start/x", "/parameters/start/t", "/parameters/grid",
             "/parameters/grid/t_end", "/parameters/n_paths", "/parameters/u/kind"}
_REQUIRED_IN = {"series": {"/parameters/region"}, "mean_value": {"/parameters/u"}}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(REPORT_KEYS_CASES)), st.data())
def test_mutated_task_configs_fail_at_their_pointer(tmp_path_factory, stem, data):
    """Drop a required key, add an unknown one, or put a string, a bool or
    NaN in place of a number, anywhere in a task config but inside its
    region: exit 1 at that key, before any compute."""
    cfg = json.loads(json.dumps(REPORT_KEYS_CASES[stem][0]))
    cfg["parameters"].update(json.loads(json.dumps(_FUZZ_MORE.get(stem, {}))))
    slots = [(p, v) for p, v in _json_slots(cfg) if not p.startswith("/parameters/region/")]
    numbers = [p for p, v in slots if isinstance(v, (int, float)) and not isinstance(v, bool)]
    nodes = [p for p, v in slots if isinstance(v, dict)]
    required = [p for p, _ in slots if p in _REQUIRED | _REQUIRED_IN.get(stem, set())]
    how = data.draw(st.sampled_from(["drop", "add", "retype"]))
    if how == "retype":
        path = data.draw(st.sampled_from(numbers))
        parent, _, key = path.rpartition("/")
        node = _at(cfg, parent)
        node[int(key) if isinstance(node, list) else key] = data.draw(
            st.sampled_from(["1.0", True, False, float("nan")]))
    elif how == "add":
        parent = data.draw(st.sampled_from(nodes))
        _at(cfg, parent)["bogus"] = 1.0
        path = f"{parent}/bogus"
    else:
        path = data.draw(st.sampled_from(required))
        parent, _, key = path.rpartition("/")
        del _at(cfg, parent)[key]
    tmp = tmp_path_factory.mktemp("mutated")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(["run", write_config(tmp, cfg), "--out", tmp / "o"]) == 1
    assert f"error {path}: " in err.getvalue()
    assert "Traceback" not in err.getvalue() and "/run" not in err.getvalue()


@pytest.mark.parametrize("seed", [-5, 2**64])
def test_an_out_of_range_seed_override_is_a_config_error(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, REPORT_KEYS_CASES["appell_check"][0])
    assert run(["run", cfg, "--seed", seed, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == (
        f"error /seed: seed must be an integer in [0, 2**64), got {seed}\n")
    assert not (tmp_path / "o").exists()


def test_the_largest_seed_runs(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, {**REPORT_KEYS_CASES["simulate"][0], "seed": 2**64 - 1})
    assert run(["run", cfg, "--out", out]) in (0, 2)
    assert json.loads((out / "simulate_report.json").read_text())["seed"] == 2**64 - 1


@pytest.mark.parametrize("params", [
    {"n_min": 20},
    {"n_max": 1},
    {"n_min": 8, "n_max": 2},
    {"kind": "lambda", "lam": 2.0, "n_min": 8, "n_max": 2},
    {"kind": "lambda", "lam": 2.0, "n_min": 20},
])
def test_an_empty_shell_range_is_a_config_error(tmp_path, capsys, monkeypatch, params):
    """A series needs at least one shell, its range read after the defaults."""
    calls = []
    monkeypatch.setattr(wiener, "capacity_of_region", lambda *args, **kwargs: calls.append(args))
    cfg = {"context": _CTX_LO, "task": "series",
           "parameters": {"region": {"kind": "empty"}, **params}}
    assert run(["run", write_config(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    assert calls == []
    assert capsys.readouterr().err.startswith("error /parameters/n_max: ")


def test_a_lambda_series_given_one_end_picks_its_own_shells(tmp_path, monkeypatch):
    """An end left out is the family's own, as for a dyadic series."""
    monkeypatch.setattr(wiener, "capacity_of_region", lambda *args, **kwargs: _fake_result())
    for ends, ns in (({}, LevelShells(2.0).indices(1)), ({"n_min": 5}, range(5, 11)),
                     ({"n_max": 9}, range(3, 10)), ({"n_min": 4, "n_max": 9}, range(4, 10))):
        cfg = {"context": _CTX_LO, "task": "series",
               "parameters": {"region": {"kind": "empty"}, "kind": "lambda", "lam": 2.0, **ends}}
        out = tmp_path / f"s{len(ends)}{ns.start}"
        assert run(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        terms = json.loads((out / "series_report.json").read_text())["terms"]
        assert [t["n"] for t in terms] == list(ns)


def test_readme_lists_the_keys_each_task_declares():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = {}
    for line in lines[lines.index("| task | accepted parameter keys |") + 2:]:
        if not line.startswith("|"):
            break
        task, keys = (re.findall(r"`([^`]+)`", cell) for cell in line.strip("|").split("|"))
        rows[task[0]] = tuple(keys)
    assert rows == {task: tuple(k for cls in classes for k in config_keys(cls))
                    for task, (_, classes) in cli._TASKS.items()}


def test_unknown_parameters_are_refused_before_any_compute(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "mean_value", lambda *args, **kwargs: calls.append(args))
    cfg = json.loads(json.dumps(REPORT_KEYS_CASES["mean_value"][0]))
    cfg["parameters"].update({"tolerance": 1e-12, "bogus": 3})
    assert run(["run", write_config(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    assert calls == []
    assert capsys.readouterr().err.splitlines() == [
        f"error /parameters/{key}: unknown key, expected one of ('u', 'c', 'time_center', 'tol')"
        for key in ("tolerance", "bogus")
    ]


_SCIPY_PROBE = """
import json, sys
import parcap.cli as cli

def scipy_modules():
    return sorted(m for m in ("scipy", "scipy.optimize", "scipy.optimize._highspy",
                              "scipy.special") if m in sys.modules)

loaded = [scipy_modules()]
for config, out in zip(sys.argv[1::2], sys.argv[2::2]):
    # exit 1 is an error; 0 and 2 are completed runs
    completed = cli.main(["run", config, "--emit", "json", "--out", out]) != 1
    loaded.append([completed, scipy_modules()])
print(json.dumps(loaded))
"""


def test_scipy_loads_only_with_the_first_lp_or_simulation_step(tmp_path):
    """In a fresh interpreter: importing the CLI and running the averaging and
    exchange tasks loads no scipy; a simulation step loads scipy.special and
    a capacity solve scipy.optimize with its HiGHS binding."""
    order = ["mean_value", "harnack", "appell_check", "simulate", "capacity"]
    argv = []
    for stem in order:
        argv += [str(write_config(tmp_path, REPORT_KEYS_CASES[stem][0], f"{stem}.json")),
                 str(tmp_path / stem)]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded[0] == []
    assert loaded[1:] == [
        [True, []],
        [True, []],
        [True, []],
        [True, ["scipy", "scipy.special"]],
        [True, ["scipy", "scipy.optimize", "scipy.optimize._highspy", "scipy.special"]],
    ]


def test_settings_reach_the_solver(tmp_path, monkeypatch):
    calls = []

    def fake_capacity_of_region(compact, **kwargs):
        calls.append(kwargs)
        return _fake_result()

    monkeypatch.setattr(wiener, "capacity_of_region", fake_capacity_of_region)
    cfg = json.loads(json.dumps(SERIES_CFG))
    cfg["parameters"].update({
        "levels": [1, 3], "tol": 0.01, "resolution": {"base_time": 5, "base_polar": 2},
        "policy": {"rho_max": 1, "window": 4},
    })
    out = tmp_path / "s"
    assert run(["run", write_config(tmp_path, cfg), "--out", out]) == 0
    # one dilation memo serves every shell of the call
    memos = [kwargs.pop("memo") for kwargs in calls]
    assert isinstance(memos[0], DilationMemo) and all(m is memos[0] for m in memos)
    assert calls[0] == {
        "refinement": Refinement(levels=(1, 3), tol=0.01, rel_stall=0.02,
                                 resolution=Resolution(base_time=5, base_polar=2)),
        "probe_seed": 4242,
    }
    report = json.loads((out / "series_report.json").read_text())
    assert report["policy"]["rho_max"] == 1.0 and report["policy"]["window"] == 4
    assert report["policy"]["eps_slope"] == 0.05


def test_settings_left_out_take_the_library_defaults(tmp_path, monkeypatch):
    refinements = []

    def fake_capacity_of_region(compact, refinement, probe_seed, memo=None):
        refinements.append(refinement)
        return _fake_result()

    monkeypatch.setattr(cli, "capacity_of_region", fake_capacity_of_region)
    monkeypatch.setattr(wiener, "capacity_of_region", fake_capacity_of_region)
    grid = GridPolicy(t_start=-1.0, t_end=-50.0)
    params = {
        "capacity": {"shell": {"kind": "dyadic", "n": 0}},
        "series": {"region": {"kind": "empty"}},
        "mean_value": {"u": {"kind": "caloric_quadratic"}},
        "simulate": {"start": {"x": [0.0], "t": grid.t_start}, "grid": {"t_end": grid.t_end},
                     "n_paths": 10},
    }
    reports = {}
    for stem, p in params.items():
        cfg = {"context": _CTX_LO, "task": stem.replace("_", "-"), "parameters": p}
        out = tmp_path / stem
        assert run(["run", write_config(tmp_path, cfg), "--out", out]) == 0
        reports[stem] = json.loads((out / f"{stem}_report.json").read_text())

    default = Refinement()
    assert refinements == [default] * (1 + len(DyadicShells().indices(1)))
    for stem in ("capacity", "series"):
        assert reports[stem]["tolerance"] == default.tol
        assert reports[stem]["rel_stall"] == default.rel_stall
    assert reports["series"]["refinement_levels"] == list(default.levels)
    assert [t["n"] for t in reports["series"]["terms"]] == list(DyadicShells().indices(1))
    assert reports["mean_value"]["tolerance"] == QuadratureSpec().tol
    assert reports["simulate"]["grid"]["ratio"] == grid.ratio
    assert reports["simulate"]["grid"]["n_times"] == len(grid.times(lower_context(1)))
