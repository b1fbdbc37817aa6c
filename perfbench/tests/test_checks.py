"""The checks pass on genuine smoke-size outputs and catch corrupted ones;
the benchmark command prints its result line, and fails without parcap."""

import copy
import json
import math
import shutil
import subprocess
import sys

import pytest

import checks
import workloads
from conftest import BENCH

from parcap.cli import main as parcap_main

SEED = 7


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Smoke-size reports of every workload: {workload: (tasks, reports)}."""
    root = tmp_path_factory.mktemp("smoke")
    out = {}
    for workload in workloads.WORKLOADS:
        tasks = workloads.tasks_for(workload, SEED, smoke=True)
        reports = {}
        for task in tasks:
            cfg = root / f"{task.name}.json"
            cfg.write_text(json.dumps(task.config))
            dest = root / workload / task.name
            assert parcap_main(["run", str(cfg), "--emit", "json", "--out", str(dest)]) == 0
            reports[task.name] = json.loads((dest / task.report_file).read_text())
        out[workload] = (tasks, reports)
    return out


def failures(workload, tasks, reports):
    return {name for name, ok, _ in checks.run_checks(workload, tasks, reports) if not ok}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_genuine_outputs_pass(outputs, workload):
    tasks, reports = outputs[workload]
    assert failures(workload, tasks, reports) == set()


def test_flipped_verdict_is_caught(outputs):
    tasks, reports = outputs["series"]
    bad = copy.deepcopy(reports)
    bad["tube_series"]["verdict"] = "non_removable"
    assert failures("series", tasks, bad) == {"series.verdict"}


def test_perturbed_term_is_caught(outputs):
    tasks, reports = outputs["series"]
    bad = copy.deepcopy(reports)
    bad["tube_series"]["terms"][-1]["term"] *= 1.02
    assert {"series.weights", "series.partial_sums", "series.dilation"} <= failures("series", tasks, bad)


def test_perturbed_mass_is_caught(outputs):
    tasks, reports = outputs["capacity"]
    bad = copy.deepcopy(reports)
    masses = bad["upper_shell"]["measure"]["masses"]
    i = max(range(len(masses)), key=masses.__getitem__)
    masses[i] *= 1.01
    assert failures("capacity", tasks, bad) == {"capacity.upper_shell.mass"}


def test_measure_scaled_past_its_potential_bound_is_caught(outputs):
    tasks, reports = outputs["capacity"]
    bad = copy.deepcopy(reports)
    rep = bad["lower_shell"]
    # at the atoms themselves the potential peaks a few percent under 1; the
    # guards just above them carry the binding constraints
    rep["measure"]["masses"] = [1.05 * m for m in rep["measure"]["masses"]]
    rep["value"] = math.fsum(rep["measure"]["masses"])
    assert "capacity.lower_shell.own_kernel_potential" in failures("capacity", tasks, bad)


def test_atom_outside_the_shell_is_caught(outputs):
    tasks, reports = outputs["capacity"]
    bad = copy.deepcopy(reports)
    m = bad["upper_cut"]["measure"]
    i = next(k for k, v in enumerate(m["masses"]) if v > 0.0)
    m["nodes_x"][i] = [m["nodes_x"][i][0] + 50.0]
    assert "capacity.upper_cut.support" in failures("capacity", tasks, bad)


def test_frequency_moved_by_ten_sigma_is_caught(outputs):
    tasks, reports = outputs["montecarlo"]
    bad = copy.deepcopy(reports)
    est = bad["last_time_paths"]["estimate"]
    n = tasks[1].config["parameters"]["n_paths"]
    f = est["frequencies"][0]
    shift = 10.0 * math.sqrt(f * (1.0 - f) / n)
    est["frequencies"] = [v + shift for v in est["frequencies"]]
    assert "montecarlo.last_time.law" in failures("montecarlo", tasks, bad)


def test_wrong_cluster_verdict_is_caught(outputs):
    tasks, reports = outputs["montecarlo"]
    bad = copy.deepcopy(reports)
    bad["tube_paths"]["estimate"]["verdict"] = "p_zero"
    assert failures("montecarlo", tasks, bad) == {"montecarlo.tube.verdict"}


def test_mean_value_off_by_two_thousandths_is_caught(outputs):
    tasks, reports = outputs["averaging"]
    bad = copy.deepcopy(reports)
    bad["mean_1d_lower_caloric_mixed"]["value"] *= 1.002
    assert failures("averaging", tasks, bad) == {"averaging.mean_1d_lower_caloric_mixed.value"}


def test_missing_report_fails_a_check(outputs):
    tasks, reports = outputs["averaging"]
    bad = dict(reports)
    del bad["harnack_source"]
    assert failures("averaging", tasks, bad) == {"averaging.reports"}


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_command_prints_end_to_end_metrics(workload):
    proc = run_bench(BENCH.parent, workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_traced_command_prints_per_layer_metrics():
    proc = run_bench(BENCH.parent, "capacity", 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert result["metrics"]["lp.calls"]["value"] > 0
    assert 0.9 < result["metrics"]["trace.coverage"]["value"] <= 1.0


def test_command_fails_without_parcap(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = run_bench(tmp_path, "series", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
