"""Benchmark of parcap's CLI tasks: one workload per run, outputs checked.

    python3 perfbench/run.py --workload {series,capacity,montecarlo,averaging}
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout that holds `src/parcap`.  The run writes the
workload's configs from the seed, times set-up in separate processes, then
starts one task process (perfbench/worker.py) that repeats the workload's
tasks for about S seconds.  Afterwards it checks every report against
closed forms (checks.py, oracles.py) and that each round's output bytes
equal the first round's.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones (setup_s, wall_s, peak_rss_mb); with --trace 1 they
are the per-layer ones of tracer.py.  Without parcap the run exits 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 2  # set-up-only processes per run, besides the task process itself
GRACE_S = 120.0   # a task process still running this long after its seconds is hung

# One BLAS thread: the runs share two cores with whatever else the machine
# runs.  No transparent huge pages for numpy arrays and a fixed hash seed:
# with either left to chance, the series task's peak RSS moves between ~300
# and ~325 MB from one process to the next on the same input.
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}


ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag, as `setarch -R` sets it


class BenchError(RuntimeError):
    pass


def _fixed_layout():
    """Run the child with a fixed address-space layout.

    With address-space randomization the room the heap has to grow varies
    from one process to the next, and with it the series task's peak RSS
    (~302 or ~327 MB on the same input).
    """
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def _launch(plan_path, result_path, setup_only, timeout):
    """Run one worker; return its result and the monotonic launch time."""
    cmd = [sys.executable, str(WORKER), str(plan_path), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **RUN_ENV}
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, preexec_fn=_fixed_layout)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if code != 0:
        raise BenchError(f"worker exited with code {code}")
    return json.loads(result_path.read_text(encoding="utf-8")), launched


def _outputs(task_dir):
    return {p.name: p.read_bytes() for p in sorted(task_dir.iterdir())}


def measure(workload, seed, seconds, trace, smoke, work):
    tasks = workloads.tasks_for(workload, seed, smoke)
    (work / "configs").mkdir(parents=True)
    plan_tasks = []
    for task in tasks:
        path = work / "configs" / f"{task.name}.json"
        path.write_text(json.dumps(task.config, indent=1), encoding="utf-8")
        plan_tasks.append({"name": task.name, "config": str(path), "emit": task.emit})
    plan = {"tasks": plan_tasks, "seconds": seconds, "trace": bool(trace), "out": str(work / "out")}
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    setups, imports = [], []
    for i in range(SETUP_PROBES):
        res, launched = _launch(plan_path, work / f"setup{i}.json", True, GRACE_S)
        setups.append(res["ready"] - launched)
        imports.append(res["import_s"])
    res, launched = _launch(plan_path, work / "result.json", False, seconds + GRACE_S)
    setups.append(res["ready"] - launched)
    imports.append(res["import_s"])
    rounds = res["rounds"]

    # task exit codes, byte-identical reruns, then the workload's own checks
    results = []
    for k, rnd in enumerate(rounds):
        for task, code in zip(tasks, rnd["exit_codes"]):
            results.append((f"task.{task.name}.round{k}", code == 0, f"exit code {code}"))
    out = work / "out"
    for task in tasks:
        first = _outputs(out / "round0" / task.name)
        for k in range(1, len(rounds)):
            same = _outputs(out / f"round{k}" / task.name) == first
            results.append((f"rerun.{task.name}.round{k}", same, "output bytes equal round 0"))
    reports = {}
    for task in tasks:
        path = out / "round0" / task.name / task.report_file
        if path.exists():
            reports[task.name] = json.loads(path.read_text(encoding="utf-8"))
    results += checks.run_checks(workload, tasks, reports)

    failed = [r for r in results if not r[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)

    walls = [r["wall_s"] for r in rounds if not r["traced"]]
    # the samples behind the metrics, for whoever studies the spread
    print(json.dumps({"round_walls_s": [r["wall_s"] for r in rounds], "setups_s": setups}),
          file=sys.stderr)
    if trace:
        traced = [r for r in rounds if r["traced"]]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["import.s"] = statistics.median(imports)
        traced_wall = statistics.fmean(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = traced_wall - statistics.fmean(walls)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            # the mean, not the median: the machine alternates between two
            # speeds ~30% apart for seconds to minutes, and the median of a
            # run's rounds snaps to one of them (see README)
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "peak_rss_mb": {"value": rounds[0]["maxrss_kb"] / 1024.0, "unit": "MB"},
        }
    return {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": metrics,
    }


def unit_of(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if name.endswith(".mb_computed"):
        return "MB"
    if name == "refine.levels":
        return "levels"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "parcap" / "cli.py").is_file():
        print(f"error: no parcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        summary = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
