import json
from pathlib import Path

import numpy as np
import pytest

import parcap.cli as cli
import parcap.wiener as wiener
from parcap.appell import IdentityResidual
from parcap.averaging import QuadratureSpec
from parcap.capacity import CapacityResult, Refinement
from parcap.geometry import Resolution
from parcap.hbrownian import GridPolicy
from parcap.kernel import lower_context
from parcap.measures import DiscreteMeasure
from parcap.cli import main


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
         "diagnostics.lp_iterations", "diagnostics.lp_retry", "diagnostics.lp_rounds",
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
         "terms[].time_window", "terms[].weight", "tolerance", "tool_version", "verdict"},
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
    ],
)
def test_unknown_or_mistyped_settings_are_config_errors(tmp_path, capsys, key, value, pointer):
    task, _, key = key.rpartition(".")
    cfg = json.loads(json.dumps(REPORT_KEYS_CASES[task or "series"][0]))
    cfg["parameters"][key] = value
    assert run(["run", write_config(tmp_path, cfg), "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert pointer in err
    assert "Traceback" not in err and "/run" not in err


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

    def fake_capacity_of_region(compact, refinement, probe_seed):
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
    assert refinements == [default] * (1 + len(wiener.DYADIC_RANGE))
    for stem in ("capacity", "series"):
        assert reports[stem]["tolerance"] == default.tol
        assert reports[stem]["rel_stall"] == default.rel_stall
    assert reports["series"]["refinement_levels"] == list(default.levels)
    assert [t["n"] for t in reports["series"]["terms"]] == list(wiener.DYADIC_RANGE)
    assert reports["mean_value"]["tolerance"] == QuadratureSpec().tol
    assert reports["simulate"]["grid"]["ratio"] == grid.ratio
    assert reports["simulate"]["grid"]["n_times"] == len(grid.times(lower_context(1)))
