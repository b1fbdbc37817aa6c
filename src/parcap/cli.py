"""Batch front door: validate a JSON config, run one task, emit reports.

Usage:  parcap run <config.json> [--emit csv|json|both] [--seed N] [--out DIR]

Exit status 0 on success, 2 when the task completed but the verdict is
inconclusive or indeterminate, 1 on errors (schema violations are listed
with JSON-pointer paths).  Reports embed the criterion statement in use,
shell time windows, resolutions, tolerances and the seed, and rerunning the
same config and seed reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .appell import AppellDirection, appell_map_arrays, appell_transform, verify_h_identities
from .averaging import QuadratureSpec, harnack_check, mean_value
from .capacity import capacity_of_region
from .geometry import (
    CompactSet,
    HeatBall,
    Resolution,
    default_time_center,
    dyadic_shell,
    level_shell,
)
from .hbrownian import GridPolicy, cluster_probability, simulate
from .kernel import (
    HalfSpace,
    PoleContext,
    kernel_ratio_matrix,
    log_heat_kernel,
    log_pole_weight,
    point,
)
from .regions import Region, region_from_json
from .reporting import dump_csv, dump_json, to_jsonable
from .wiener import ClassifyPolicy, Verdict, lambda_series_terms, series_terms

CRITERION_TEXT = (
    "sum over n of weight(n) * capacity(complement intersect shell(n)):"
    " divergence <=> removable singularity <=> the conditioned process visits"
    " the complement at times clustering to the pole almost surely;"
    " convergence <=> non-removable <=> almost surely not"
)


# smallest shrink factor of the operator-transfer residual under step halving
HALVING_MIN = 3.0

# refinement settings of the capacity and series tasks when a config sets none
SOLVE_DEFAULTS = {"levels": [0, 1, 2], "tol": 1e-3, "rel_stall": 0.02}
# the config keys of each dataclass the parameters may set
RESOLUTION_KEYS = ("base_time", "base_radial", "base_angular", "base_polar")
POLICY_KEYS = ("eps_slope", "rho_max", "window", "min_terms")


class ConfigError(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# validation helpers (errors carry JSON-pointer paths)
# ---------------------------------------------------------------------------

def _err(errors, pointer, message):
    errors.append(f"{pointer}: {message}")


def _get(obj, key, pointer, errors, required=True, types=None, choices=None, default=None):
    if key not in obj:
        if required:
            _err(errors, f"{pointer}/{key}", "missing required field")
        return default
    val = obj[key]
    if types is not None and not isinstance(val, types):
        _err(errors, f"{pointer}/{key}", f"expected {types}, got {type(val).__name__}")
        return default
    if choices is not None and val not in choices:
        _err(errors, f"{pointer}/{key}", f"expected one of {sorted(choices)}, got {val!r}")
        return default
    return val


def _parse_context(cfg, errors) -> PoleContext | None:
    ctx_obj = _get(cfg, "context", "", errors, types=dict)
    if ctx_obj is None:
        return None
    dim = _get(ctx_obj, "dim", "/context", errors, types=int)
    gamma = _get(ctx_obj, "gamma", "/context", errors, required=False, types=list)
    hs = _get(
        ctx_obj, "half_space", "/context", errors, types=str,
        choices={"upper", "lower"},
    )
    if errors or dim is None or hs is None:
        return None
    if dim < 1:
        _err(errors, "/context/dim", "must be >= 1")
        return None
    g = np.zeros(dim) if gamma is None else np.asarray(gamma, dtype=float)
    if g.shape != (dim,):
        _err(errors, "/context/gamma", f"needs {dim} components")
        return None
    return PoleContext(dim, g, HalfSpace(hs))


def _parse_region(params, key, pointer, errors, required=False) -> Region | None:
    obj = params.get(key)
    if obj is None:
        if required:
            _err(errors, f"{pointer}/{key}", "missing region description")
        return None
    try:
        return region_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        _err(errors, f"{pointer}/{key}", f"bad region: {exc}")
        return None


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return _is_int(val) or isinstance(val, float)


def _parse_fields(cls, obj, keys, pointer, errors):
    """cls from the config object at pointer: each key one of keys, with a
    value of its default's type; the fields the object leaves out keep their
    defaults."""
    if obj is None:
        return cls()
    if not isinstance(obj, dict):
        _err(errors, pointer, f"expected an object, got {type(obj).__name__}")
        return cls()
    defaults = cls()
    kwargs = {}
    for key, val in obj.items():
        want = type(getattr(defaults, key, None))
        if key not in keys:
            _err(errors, f"{pointer}/{key}", f"unknown key, expected one of {list(keys)}")
        elif want is int and _is_int(val):
            kwargs[key] = val
        elif want is float and _is_number(val):
            kwargs[key] = float(val)
        else:
            _err(errors, f"{pointer}/{key}", f"expected {want.__name__}, got {val!r}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _err(errors, pointer, str(exc))
        return cls()


def _parse_solve(params, errors) -> dict:
    """The capacity_of_region keywords the capacity and series tasks share."""
    solve = {k: params.get(k, v) for k, v in SOLVE_DEFAULTS.items()}
    levels = solve["levels"]
    if not (isinstance(levels, list) and levels
            and all(_is_int(v) and v >= 0 for v in levels)):
        _err(errors, "/parameters/levels",
             f"expected a non-empty list of integers >= 0, got {levels!r}")
    for key in ("tol", "rel_stall"):
        if not _is_number(solve[key]):
            _err(errors, f"/parameters/{key}", f"expected a number, got {solve[key]!r}")
        else:
            solve[key] = float(solve[key])
    solve["base_resolution"] = _parse_fields(
        Resolution, params.get("resolution"), RESOLUTION_KEYS, "/parameters/resolution", errors
    )
    return solve


# CSV files not named <stem>_table.csv
_CSV_FILE = {"capacity": "capacity_measure.csv", "simulate": "simulate_paths.csv"}


def _emit(out, emit, stem, report, header, rows):
    """Write `<stem>_report.json` and the CSV table, as --emit selects: the
    rows under header, or, with header None, what the function rows writes
    to the path it is given."""
    if emit in ("json", "both"):
        dump_json(out / f"{stem}_report.json", report)
    if emit in ("csv", "both"):
        path = out / _CSV_FILE.get(stem, f"{stem}_table.csv")
        if header is None:
            rows(path)
        else:
            dump_csv(path, header, rows)


def _named_field(spec_obj, ctx, pointer, errors):
    """Closed-form pole-weighted caloric fixtures addressable from configs."""
    kind = spec_obj.get("kind") if isinstance(spec_obj, dict) else None
    g = ctx.gamma

    if kind == "one":
        return (lambda xs, ts: 1.0), (lambda t0: 1.0)
    if kind == "caloric_quadratic":
        def v(xs, ts):
            return np.sum((xs - g) ** 2, axis=1) + 2.0 * ctx.dim * ts
    elif kind == "caloric_mixed":
        def v(xs, ts):
            s = xs[:, 0] - g[0]
            return s * s + 2.0 * ts + s
    else:
        _err(errors, pointer, f"unknown field fixture {kind!r}")
        return None, None

    def u(xs, ts):
        return v(xs, ts) / np.exp(log_pole_weight(xs, ts, ctx))

    def center_val(t0):
        return float(u(ctx.axis([t0]), np.array([t0]))[0])

    return u, center_val


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------

def _audit(ctx, seed, extra):
    return {
        "tool_version": __version__,
        "criterion": CRITERION_TEXT,
        "context": ctx,
        "seed": seed,
        **extra,
    }


def _run_capacity(ctx, params, seed, out, emit, errors):
    shell_obj = _get(params, "shell", "/parameters", errors, types=dict)
    region = _parse_region(params, "region", "/parameters", errors)
    solve = _parse_solve(params, errors)
    tc = params.get("time_center")
    shell = None
    if shell_obj is not None:
        kind = _get(shell_obj, "kind", "/parameters/shell", errors, types=str,
                    choices={"dyadic", "lambda", "ball"})
        if kind == "dyadic":
            n = _get(shell_obj, "n", "/parameters/shell", errors, types=int)
            if n is not None:
                shell = dyadic_shell(ctx, n, tc)
        elif kind == "lambda":
            lam = _get(shell_obj, "lam", "/parameters/shell", errors, types=(int, float))
            n = _get(shell_obj, "n", "/parameters/shell", errors, types=int)
            if lam is not None and n is not None:
                shell = level_shell(ctx, float(lam), n, tc)
        elif kind == "ball":
            sc = _get(shell_obj, "scale", "/parameters/shell", errors, types=(int, float))
            if sc is not None:
                t0 = tc if tc is not None else default_time_center(ctx)
                shell = HeatBall(ctx, float(t0), float(sc))
    if errors:
        raise ConfigError(errors)

    result = capacity_of_region(CompactSet(shell, region), **solve, probe_seed=seed)
    mu = result.capacitary
    report = _audit(ctx, seed, {
        "task": "capacity",
        "value": result.value,
        "converged": result.converged,
        "max_potential": result.max_potential,
        "probe_max_potential": result.probe_max_potential,
        "comp_slack_residual": result.comp_slack_residual,
        "duality_gap": result.duality_gap,
        "tolerance": solve["tol"],
        "rel_stall": solve["rel_stall"],
        "history": result.history,
        "resolution": result.resolution.describe(),
        "shell_time_window": shell.time_window,
        "diagnostics": result.diagnostics,
        "measure": {"nodes_x": mu.xs, "nodes_t": mu.ts, "masses": mu.masses},
    })
    _emit(out, emit, "capacity", report,
          [f"x{i+1}" for i in range(ctx.dim)] + ["t", "mass"],
          np.column_stack([mu.xs, mu.ts, mu.masses]))
    # a measure that fails its own feasibility certificate is no capacity
    return 0 if result.certified(solve["tol"]) else 2


def _run_series(ctx, params, seed, out, emit, errors):
    region = _parse_region(params, "region", "/parameters", errors, required=True)
    kind = _get(params, "kind", "/parameters", errors, required=False, types=str,
                choices={"dyadic", "lambda"}) or "dyadic"
    lam = params.get("lam")
    if kind == "lambda" and not isinstance(lam, (int, float)):
        _err(errors, "/parameters/lam", "lambda series needs a numeric 'lam' > 1")
    solve = _parse_solve(params, errors)
    policy = _parse_fields(
        ClassifyPolicy, params.get("policy"), POLICY_KEYS, "/parameters/policy", errors
    )
    if errors:
        raise ConfigError(errors)

    if kind == "dyadic":
        n_min = int(params.get("n_min", 2))
        n_max = int(params.get("n_max", 14))
        report_obj = series_terms(
            region, ctx, range(n_min, n_max + 1), policy=policy, probe_seed=seed, **solve
        )
    else:
        n_rng = None
        if "n_min" in params and "n_max" in params:
            n_rng = range(int(params["n_min"]), int(params["n_max"]) + 1)
        report_obj = lambda_series_terms(
            region, ctx, float(lam), n_rng, policy=policy, probe_seed=seed, **solve
        )

    body = to_jsonable(report_obj)
    body["lambda"] = body.pop("lam")
    report = _audit(ctx, seed, {
        "task": "series",
        **body,
        "tolerance": solve["tol"],
        "rel_stall": solve["rel_stall"],
        "refinement_levels": solve["levels"],
    })
    _emit(out, emit, "series", report, ["n", "capacity", "term", "partial_sum"], [
        [t.n, t.capacity, t.term, s]
        for t, s in zip(report_obj.terms, report_obj.partial_sums)
    ])
    return 2 if report_obj.verdict is Verdict.INCONCLUSIVE else 0


def _run_simulate(ctx, params, seed, out, emit, errors):
    start_obj = _get(params, "start", "/parameters", errors, types=dict)
    grid_obj = _get(params, "grid", "/parameters", errors, types=dict)
    n_paths = _get(params, "n_paths", "/parameters", errors, types=int)
    region = _parse_region(params, "region", "/parameters", errors)
    deltas = params.get("deltas")
    if errors:
        raise ConfigError(errors)
    try:
        start = point(np.asarray(start_obj["x"], dtype=float), float(start_obj["t"]))
        grid = GridPolicy(
            t_start=float(start_obj["t"]),
            t_end=float(grid_obj["t_end"]),
            ratio=float(grid_obj.get("ratio", 0.9)),
        )
        times = grid.times(ctx)
    except (KeyError, ValueError) as exc:
        raise ConfigError([f"/parameters: {exc}"]) from exc

    ens = simulate(start, grid, n_paths, ctx, seed)
    est = None
    if deltas:
        est = cluster_probability(ens, region, deltas)

    report = _audit(ctx, seed, {
        "task": "simulate",
        "n_paths": n_paths,
        "grid": {"t_start": grid.t_start, "t_end": grid.t_end, "ratio": grid.ratio,
                 "n_times": int(times.shape[0])},
        "estimate": est,
    })
    _emit(out, emit, "simulate", report, None, ens.to_csv)
    if est is not None and est.verdict.value == "indeterminate":
        return 2
    return 0


def _run_mean_value(ctx, params, seed, out, emit, errors):
    u_obj = _get(params, "u", "/parameters", errors, types=dict)
    c = float(params.get("c", 1.0))
    tc = params.get("time_center")
    t0 = float(tc) if tc is not None else default_time_center(ctx)
    quad = QuadratureSpec(tol=float(params.get("tol", 1e-3)))
    if errors:
        raise ConfigError(errors)
    u, center_val = _named_field(u_obj, ctx, "/parameters/u", errors)
    if errors:
        raise ConfigError(errors)
    ball = HeatBall(ctx, t0, c)
    got = mean_value(u, ball.center, c, ctx, quad=quad)
    expected = center_val(t0)
    report = _audit(ctx, seed, {
        "task": "mean-value",
        "c": c,
        "tolerance": quad.tol,
        "time_center": t0,
        "time_window": list(ball.time_window),
        "value": got,
        "center_value": expected,
        "abs_error": abs(got - expected),
    })
    header = ["c", "value", "center_value", "abs_error"]
    _emit(out, emit, "mean_value", report, header, [[report[k] for k in header]])
    return 0


def _run_harnack(ctx, params, seed, out, emit, errors):
    u_obj = params.get("u", {"kind": "one"})
    c_values = params.get("c_values", [0.5, 1.0, 2.0])
    tc = params.get("time_center")
    t0 = float(tc) if tc is not None else default_time_center(ctx)
    if errors:
        raise ConfigError(errors)

    kind = u_obj.get("kind")
    c_max = max(float(c) for c in c_values)
    if kind == "one":
        u = lambda xs, ts: 1.0
    elif kind == "source_ratio":
        # the kernel ratio from a source below the largest double ball
        big = HeatBall(ctx, t0, 2.0 * c_max)
        lo, _ = big.time_window
        src_t = np.array([0.5 * lo if ctx.is_upper else lo - abs(lo) - 1.0])
        src_x = big.axis(src_t)

        def u(xs, ts):
            return kernel_ratio_matrix(xs, ts, src_x, src_t, ctx)[:, 0]
    else:
        raise ConfigError([f"/parameters/u/kind: unknown fixture {kind!r}"])

    quad = QuadratureSpec(tol=float(params.get("tol", 1e-3)))
    results = []
    for c in map(float, c_values):
        res = harnack_check(u, HeatBall(ctx, t0, c).center, c, ctx, quad=quad)
        results.append({"c": c, **to_jsonable(res)})
    report = _audit(ctx, seed, {
        "task": "harnack",
        "time_center": t0,
        "results": results,
        "max_ratio": max(r["ratio"] for r in results),
    })
    header = ["c", "average", "infimum", "ratio"]
    _emit(out, emit, "harnack", report, header, [[r[k] for k in header] for r in results])
    return 0


def _run_appell_check(ctx, params, seed, out, emit, errors):
    n_points = int(params.get("n_points", 1000))
    step = float(params.get("step", 5e-3))
    if errors:
        raise ConfigError(errors)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    N = ctx.dim
    checks = []

    # round trip of the point map
    xs = rng.normal(size=(n_points, N))
    ts = rng.uniform(0.1, 3.0, n_points)
    fx, ft = appell_map_arrays(xs, ts, AppellDirection.FORWARD)
    bx, bt = appell_map_arrays(fx, ft, AppellDirection.BACKWARD)
    worst = max(np.max(np.abs(bx - xs), initial=0.0), np.max(np.abs(bt - ts), initial=0.0))
    checks.append({"name": "round_trip", "residual": float(worst), "threshold": 1e-12})

    # forward transform of the upper pole function matches the drift exponential
    up = ctx if ctx.is_upper else ctx.mirror()
    lo_ctx = up.mirror()
    h_up = lambda xs, ts: np.exp(log_pole_weight(xs, ts, up))
    xs, ts = rng.normal(size=(200, N)), rng.uniform(-3.0, -0.05, 200)
    a = appell_transform(h_up, AppellDirection.FORWARD)(xs, ts)
    b = np.exp(log_pole_weight(xs, ts, lo_ctx))
    worst = np.max(np.abs(a - b) / np.abs(b))
    checks.append({"name": "pole_function_transport", "residual": float(worst), "threshold": 1e-10})

    # kernel transport: forward transform of F(. - w_i) at row i against the
    # closed form, one source w_i per sample, each target after its source
    wx, wt = rng.normal(size=(200, N)), rng.uniform(0.1, 2.0, 200)
    ix, it = appell_map_arrays(wx, wt, AppellDirection.FORWARD)
    xs = rng.normal(size=(200, N))
    ts = it * rng.uniform(0.3, 0.9, 200)

    def F_w(ys, ss):
        return np.exp(log_heat_kernel(np.sum((ys - wx) ** 2, axis=1), ss - wt, N))

    a = appell_transform(F_w, AppellDirection.FORWARD)(xs, ts)
    pre = (-4.0 * np.pi * it) ** (0.5 * N) * np.exp(-np.sum(ix**2, axis=1) / (4.0 * it))
    b = pre * np.exp(log_heat_kernel(np.sum((xs - ix) ** 2, axis=1), ts - it, N))
    # a vanishing closed-form value would make its sample compare 0 with 0
    worst = np.max(np.abs(a - b) / b) if np.all(b > 0.0) else np.inf
    checks.append({"name": "kernel_transport", "residual": float(worst), "threshold": 1e-10})

    # operator transfer identity at two probe steps; halving must shrink it
    # at least threefold, as a second-order probe should
    u_field = lambda xs, ts: xs[:, 0] * ts
    res_h, res_h2 = 0.0, 0.0
    for x, t in zip(rng.normal(size=(20, N)), rng.uniform(0.4, 1.5, 20)):
        z = point(x, t)
        r1 = verify_h_identities(u_field, z, up, step=step)
        r2 = verify_h_identities(u_field, z, up, step=0.5 * step)
        res_h = max(res_h, r1.residual)
        res_h2 = max(res_h2, r2.residual)
    halving_ratio = res_h / max(res_h2, 1e-300)
    checks.append({
        "name": "operator_transfer",
        "residual": res_h2,
        "threshold": 1e-4,
        "halving_ratio": halving_ratio,
        "halving_threshold": HALVING_MIN,
    })

    ok = all(c["residual"] <= c["threshold"] for c in checks) and halving_ratio >= HALVING_MIN
    report = _audit(ctx, seed, {
        "task": "appell-check",
        "n_points": n_points,
        "step": step,
        "checks": checks,
        "all_passed": ok,
    })
    _emit(out, emit, "appell_check", report, ["check", "residual", "threshold"],
          [[c["name"], c["residual"], c["threshold"]] for c in checks])
    return 0 if ok else 1


_TASKS = {
    "capacity": _run_capacity,
    "series": _run_series,
    "simulate": _run_simulate,
    "mean-value": _run_mean_value,
    "harnack": _run_harnack,
    "appell-check": _run_appell_check,
}


def run_config(config_path, emit="both", seed_override=None, out_dir=".") -> int:
    path = Path(config_path)
    try:
        cfg = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"error /: config file not found: {path}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error /: invalid JSON: {exc}", file=sys.stderr)
        return 1

    errors: list[str] = []
    if not isinstance(cfg, dict):
        print("error /: config must be a JSON object", file=sys.stderr)
        return 1
    ctx = _parse_context(cfg, errors)
    task = _get(cfg, "task", "", errors, types=str, choices=set(_TASKS))
    params = _get(cfg, "parameters", "", errors, required=False, types=dict, default={})
    seed_val = cfg.get("seed", 20240601)
    if not isinstance(seed_val, int):
        _err(errors, "/seed", "seed must be an integer")
    if errors:
        for e in errors:
            print(f"error {e}", file=sys.stderr)
        return 1

    seed = int(seed_override) if seed_override is not None else int(seed_val)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _TASKS[task](ctx, params, seed, out, emit, [])
    except ConfigError as exc:
        for e in exc.errors:
            print(f"error {e}", file=sys.stderr)
        return 1
    except Exception as exc:  # surface compute failures as exit 1, not tracebacks
        print(f"error /run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parcap",
        description="Capacity, removability-series, simulation and averaging tasks "
        "driven by a JSON config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one task from a config file")
    runp.add_argument("config", help="path to the task configuration (JSON)")
    runp.add_argument("--emit", choices=["csv", "json", "both"], default="both")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run_config(args.config, emit=args.emit, seed_override=args.seed, out_dir=args.out)
    parser.error(f"unknown command {args.command}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
