"""Output checks: each compares a report with a closed form from `oracles` or
with a property the method must have, never with a stored copy of an
earlier output.

Every check function takes the workload's tasks and a mapping from task name
to parsed report, and returns a list of (check name, passed, detail).
"""

from __future__ import annotations

import math

import numpy as np

import oracles

CERT_TOL = 1e-6  # complementary slackness, duality gap, own-kernel potential excess


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_series(tasks, reports):
    (task,) = tasks
    rep = reports[task.name]
    p = task.config["parameters"]
    dim = task.config["context"]["dim"]
    upper = task.config["context"]["half_space"] == "upper"
    ns = list(range(p["n_min"], p["n_max"] + 1))
    terms = rep["terms"]
    vals = [t["term"] for t in terms]
    out = [
        ("series.verdict", rep["verdict"] == "removable" and rep["confidence"] == "high",
         f"{rep['verdict']} ({rep['confidence']})"),
        ("series.shells", [t["n"] for t in terms] == ns, f"{[t['n'] for t in terms]}"),
        ("series.positive", all(t["capacity"] > 0.0 and t["term"] > 0.0 for t in terms), f"{vals}"),
    ]
    t0 = oracles.center_time(upper)
    out.append(("series.weights", all(
        _rel(t["term"], 2.0 ** (-0.5 * t["n"] * dim) * t["capacity"]) <= 1e-12 for t in terms
    ), "term = 2^(-nN/2) capacity"))
    out.append(("series.windows", all(
        max(_rel(a, b) for a, b in zip(t["time_window"], oracles.window(t0, 2.0 ** t["n"], upper)))
        <= 1e-12 for t in terms
    ), "shell time windows against the closed form"))
    sums = rep["partial_sums"]
    running = np.cumsum(vals)
    out.append(("series.partial_sums",
                all(b > a for a, b in zip(sums, sums[1:]))
                and all(_rel(s, r) <= 1e-12 for s, r in zip(sums, running)),
                f"{sums}"))
    # at gamma = 0 the tube and the shells are invariant under parabolic
    # dilation, so the terms agree up to the halo rows of the collocation
    window = vals[-rep["policy"]["window"]:]
    drift = max(_rel(b, a) for a, b in zip(window, window[1:]))
    out.append(("series.dilation", drift <= 0.01, f"largest consecutive change {drift:.2e}"))
    return out


def _measure(rep):
    m = rep["measure"]
    return np.asarray(m["nodes_x"], dtype=float), np.asarray(m["nodes_t"]), np.asarray(m["masses"])


def check_capacity(tasks, reports):
    out = []
    values = {}
    for task in tasks:
        rep = reports[task.name]
        ctx = task.config["context"]
        gamma, upper = ctx["gamma"], ctx["half_space"] == "upper"
        n = task.config["parameters"]["shell"]["n"]
        tol = rep["tolerance"]
        name = f"capacity.{task.name}"
        values[task.name] = rep["value"]
        certs = {
            "max_potential": rep["max_potential"] <= 1.0 + tol,
            "probe_max_potential": rep["probe_max_potential"] <= 1.0 + tol,
            "comp_slack_residual": rep["comp_slack_residual"] <= CERT_TOL,
            "duality_gap": rep["duality_gap"] <= CERT_TOL,
        }
        out.append((f"{name}.certificates", all(certs.values()),
                    ", ".join(f"{k}={rep[k]:.6g}" for k in certs)))
        xs, ts, ms = _measure(rep)
        out.append((f"{name}.mass", _rel(math.fsum(ms), rep["value"]) <= 1e-12 and np.all(ms >= 0.0),
                    f"value {rep['value']!r}, mass sum {math.fsum(ms)!r}"))
        atoms = ms > 0.0
        inside = oracles.in_dyadic_shell(xs[atoms], ts[atoms], n, gamma, upper)
        region = task.config["parameters"].get("region")
        if region is not None:
            inside &= xs[atoms] @ np.asarray(region["normal"]) <= region["offset"] + 1e-12
        out.append((f"{name}.support", bool(atoms.any() and inside.all()),
                    f"{int(inside.sum())} of {int(atoms.sum())} atoms in the set"))
        pot = oracles.potential(xs[atoms], ts[atoms], ms[atoms], gamma, upper)
        peak = float(pot.max()) if pot.size else 0.0
        out.append((f"{name}.own_kernel_potential", peak <= 1.0 + CERT_TOL, f"max {peak!r}"))
    up, lo, cut = values["upper_shell"], values["lower_shell"], values["upper_cut"]
    tol = reports["upper_cut"]["tolerance"]
    out.append(("capacity.exchange_pair", _rel(lo, up) <= 0.05, f"upper {up!r}, lower {lo!r}"))
    out.append(("capacity.monotone_in_set", cut <= up * (1.0 + tol), f"cut {cut!r} <= shell {up!r}"))
    return out


def _grid_check(name, task, rep, upper):
    p = task.config["parameters"]
    times = oracles.geometric_grid(p["start"]["t"], p["grid"]["t_end"], p["grid"]["ratio"], upper)
    return (f"{name}.grid", rep["grid"]["n_times"] == times.shape[0],
            f"{rep['grid']['n_times']} grid times, closed form {times.shape[0]}")


def _nested(est):
    f, lo, hi = est["frequencies"], est["ci_low"], est["ci_high"]
    # deltas ascend, so each event contains the one before it
    return (est["deltas"] == sorted(est["deltas"])
            and all(b >= a for a, b in zip(f, f[1:]))
            and all(low <= x <= high for low, x, high in zip(lo, f, hi)))


def check_montecarlo(tasks, reports):
    by_name = {t.name: t for t in tasks}
    out = []
    tube, rep = by_name["tube_paths"], reports["tube_paths"]
    est = rep["estimate"]
    half = est["diagnostics"]["tight_halfwidth"]
    out.append(("montecarlo.tube.verdict", est["verdict"] == "p_one",
                f"{est['verdict']}; the series of this tube is removable"))
    out.append(("montecarlo.tube.halfwidth", half < 0.03, f"tightest CI half-width {half:.4f}"))
    out.append(("montecarlo.tube.nested", _nested(est), f"{est['frequencies']}"))
    out.append(_grid_check("montecarlo.tube", tube, rep, upper=False))

    last, rep = by_name["last_time_paths"], reports["last_time_paths"]
    est = rep["estimate"]
    p = last.config["parameters"]
    gamma = last.config["context"]["gamma"]
    times = oracles.geometric_grid(p["start"]["t"], p["grid"]["t_end"], p["grid"]["ratio"], True)
    mean, sd = oracles.marginal(p["start"]["x"], p["start"]["t"], float(times[-1]), gamma, True)
    offset = p["region"]["children"][1]["offset"]
    prob = oracles.normal_cdf((offset - float(mean[0])) / sd)
    n = p["n_paths"]
    z = (est["frequencies"][0] - prob) / math.sqrt(prob * (1.0 - prob) / n)
    out.append(("montecarlo.last_time.law", abs(z) <= 5.0,
                f"frequency {est['frequencies'][0]:.5f}, Gaussian law {prob:.5f}, z = {z:.2f}"))
    out.append(("montecarlo.last_time.nested",
                _nested(est) and len(set(est["frequencies"])) == 1,
                f"{est['frequencies']}; every delta includes only the last time"))
    out.append(_grid_check("montecarlo.last_time", last, rep, upper=True))
    return out


def check_averaging(tasks, reports):
    out = []
    for task in tasks:
        rep = reports[task.name]
        ctx = task.config["context"]
        upper = ctx["half_space"] == "upper"
        name = f"averaging.{task.name}"
        if task.config["task"] == "mean-value":
            kind = task.config["parameters"]["u"]["kind"]
            want = oracles.fixture_center_value(kind, rep["time_center"], ctx["gamma"], upper)
            err = _rel(rep["value"], want)
            out.append((f"{name}.value", err <= 1e-3, f"{rep['value']!r} vs center {want!r}, rel {err:.2e}"))
            out.append((f"{name}.center", _rel(rep["center_value"], want) <= 1e-12,
                        f"reported center {rep['center_value']!r}"))
        else:
            ratios = [r["ratio"] for r in rep["results"]]
            ok = all(math.isfinite(r) and r > 0.0 for r in ratios) and max(ratios) <= 5.0 * min(ratios)
            out.append((f"{name}.ratios", ok, f"{ratios}"))
    return out


CHECKS = {
    "series": check_series,
    "capacity": check_capacity,
    "montecarlo": check_montecarlo,
    "averaging": check_averaging,
}


def run_checks(workload, tasks, reports):
    """All checks of one workload; a report that is missing or malformed fails one check."""
    try:
        return CHECKS[workload](tasks, reports)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [(f"{workload}.reports", False, f"{type(exc).__name__}: {exc}")]
