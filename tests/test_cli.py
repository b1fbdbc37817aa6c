import json
from pathlib import Path

import numpy as np
import pytest

import parcap.cli as cli
from parcap.appell import IdentityResidual
from parcap.capacity import CapacityResult
from parcap.geometry import Resolution
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
    def fake_capacity_of_region(compact, ctx, **kwargs):
        return CapacityResult(
            value=1.0,
            capacitary=DiscreteMeasure(np.zeros((1, 1)), np.array([-1.0]), np.ones(1)),
            max_potential=max_pot,
            min_potential_on_nodes=1.0,
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
