"""The four workloads: `parcap run` configs generated from a seed.

A seed changes inputs that leave the amount of work alone (probe and path
seeds, pole parameters of the Monte Carlo and averaging tasks), so the
run-to-run spread of a workload's timings is the machine's, not the
inputs'.  Smoke mode keeps every task kind but shrinks
resolutions and path counts so all four workloads finish in well under a
minute.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import oracles

WORKLOADS = ("series", "capacity", "montecarlo", "averaging")

# the complement of the series workload: {|x| <= 1.5 |t|^(1/2)}
TUBE = {"kind": "tube", "axis": "pole", "profile": {"kind": "power", "coef": 1.5, "exponent": 0.5}}

REPORT_FILE = {
    "series": "series_report.json",
    "capacity": "capacity_report.json",
    "simulate": "simulate_report.json",
    "mean-value": "mean_value_report.json",
    "harnack": "harnack_report.json",
}


@dataclass(frozen=True)
class Task:
    name: str
    config: dict
    emit: str  # --emit value: csv output is skipped where it would dwarf the task

    @property
    def report_file(self) -> str:
        return REPORT_FILE[self.config["task"]]


def _context(dim, gamma, half_space):
    return {"dim": dim, "gamma": [float(g) for g in gamma], "half_space": half_space}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def series_tasks(seed, smoke=False):
    # The seed enters only the report's audit seed: the series task draws its
    # probe clouds from parcap's fixed default seed.  The shell range stays
    # put because, although every shell costs the same, peak RSS moves by
    # ~8% between ranges.  From n = 5 on, the halo rows that break the
    # dilation symmetry move consecutive terms by ~3e-4.
    params = {
        "kind": "dyadic",
        "region": TUBE,
        "n_min": 5,
        "n_max": 10,
        "resolution": {"base_time": 10, "base_radial": 2},
    }
    if smoke:
        params["resolution"] = {"base_time": 6, "base_radial": 1}
        params["levels"] = [0, 1]
    cfg = {"context": _context(1, [0.0], "lower"), "task": "series", "seed": seed, "parameters": params}
    return [Task("tube_series", cfg, "both")]


CAPACITY_GAMMA = 0.5
CAPACITY_N = 3


def capacity_tasks(seed, smoke=False):
    shell = {"kind": "dyadic", "n": CAPACITY_N}
    params = {"shell": shell}
    if smoke:
        params.update({"levels": [0, 1], "resolution": {"base_time": 6, "base_radial": 3}})
    g = [CAPACITY_GAMMA]
    # the cut x <= gamma halves the upper shell along its axis
    cut = {"kind": "half_space", "normal": [1.0], "offset": CAPACITY_GAMMA}
    tasks = []
    for name, hs, extra in (
        ("upper_shell", "upper", {}),
        ("lower_shell", "lower", {}),
        ("upper_cut", "upper", {"region": cut}),
    ):
        cfg = {
            "context": _context(1, g, hs),
            "task": "capacity",
            "seed": seed,
            "parameters": {**params, **extra},
        }
        tasks.append(Task(name, cfg, "both"))
    return tasks


TUBE_GRID = {"start": {"x": [0.0], "t": -1.0}, "grid": {"t_end": -3000.0, "ratio": 0.9}}
TUBE_DELTAS = [-30.0, -100.0, -300.0, -1000.0]
LAST_T_START, LAST_T_END, LAST_RATIO = 1.0, 2.5e-4, 0.9
LAST_Z = -1.2816  # the region holds about a tenth of the final-time law


def last_time_region(gamma, x0):
    """Half-line {x <= m + LAST_Z sd} in a slab that holds only the last grid time."""
    times = oracles.geometric_grid(LAST_T_START, LAST_T_END, LAST_RATIO, True)
    t_last = float(times[-1])
    mean, sd = oracles.marginal([x0], LAST_T_START, t_last, [gamma], True)
    offset = float(mean[0]) + LAST_Z * sd
    slab = {"kind": "time_slab", "t_min": 0.5 * t_last, "t_max": LAST_T_END}
    cut = {"kind": "half_space", "normal": [1.0], "offset": offset}
    return {"kind": "intersection", "children": [slab, cut]}


def montecarlo_tasks(seed, smoke=False):
    rng = random.Random(seed)
    n_tube, n_last = (20_000, 10_000) if smoke else (200_000, 100_000)
    tube = {
        "context": _context(1, [0.0], "lower"),
        "task": "simulate",
        "seed": seed,
        "parameters": {**TUBE_GRID, "n_paths": n_tube, "region": TUBE, "deltas": TUBE_DELTAS},
    }
    gamma = _signed(rng, 0.2, 0.8)
    x0 = gamma + rng.uniform(-1.0, 1.0)
    last = {
        "context": _context(1, [gamma], "upper"),
        "task": "simulate",
        "seed": seed + 1,
        "parameters": {
            "start": {"x": [x0], "t": LAST_T_START},
            "grid": {"t_end": LAST_T_END, "ratio": LAST_RATIO},
            "n_paths": n_last,
            "region": last_time_region(gamma, x0),
            "deltas": [LAST_T_END, 0.01, 0.1],
        },
    }
    return [Task("tube_paths", tube, "json"), Task("last_time_paths", last, "json")]


def averaging_tasks(seed, smoke=False):
    rng = random.Random(seed)
    # both fixtures in both half-spaces in 1-D, and one 2-D ball below: a 2-D
    # ball above costs ~7 s, more than the rest of the round, and would leave
    # a run too few rounds for a steady figure (see README)
    cases = [
        (1, "upper", "caloric_quadratic"),
        (1, "upper", "caloric_mixed"),
        (1, "lower", "caloric_quadratic"),
        (1, "lower", "caloric_mixed"),
    ]
    if not smoke:
        cases.append((2, "lower", "caloric_quadratic"))
    tasks = []
    for dim, hs, kind in cases:
        gamma = [_signed(rng, 0.2, 0.7) for _ in range(dim)]
        cfg = {
            "context": _context(dim, gamma, hs),
            "task": "mean-value",
            "parameters": {"u": {"kind": kind}, "c": 1.0},
        }
        tasks.append(Task(f"mean_{dim}d_{hs}_{kind}", cfg, "both"))
    harnack = {
        "context": _context(1, [_signed(rng, 0.2, 0.7)], "upper"),
        "task": "harnack",
        "parameters": {"u": {"kind": "source_ratio"}, "c_values": [0.5, 1.0, 2.0]},
    }
    tasks.append(Task("harnack_source", harnack, "both"))
    return tasks


TASKS = {
    "series": series_tasks,
    "capacity": capacity_tasks,
    "montecarlo": montecarlo_tasks,
    "averaging": averaging_tasks,
}


def tasks_for(workload, seed, smoke=False):
    return TASKS[workload](seed, smoke)
