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
from .capacity import Refinement, capacity_of_region
from .geometry import (
    CompactSet,
    HeatBall,
    default_time_center,
    dyadic_shell,
    level_shell,
)
from .hbrownian import GridPolicy, cluster_probability, simulate
from .kernel import (
    DomainError,
    HalfSpace,
    PoleContext,
    kernel_ratio_matrix,
    log_heat_kernel,
    log_pole_weight,
    point,
)
from .regions import Region
from .reporting import dump_csv, dump_json, parse_fields, parse_value, to_jsonable, typed
from .wiener import DYADIC_RANGE, ClassifyPolicy, Verdict, lambda_series_terms, series_terms

CRITERION_TEXT = (
    "sum over n of weight(n) * capacity(complement intersect shell(n)):"
    " divergence <=> removable singularity <=> the conditioned process visits"
    " the complement at times clustering to the pole almost surely;"
    " convergence <=> non-removable <=> almost surely not"
)


# smallest shrink factor of the operator-transfer residual under step halving
HALVING_MIN = 3.0
NUMBER = (int, float)


class ConfigError(ValueError):
    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# validation helpers (errors carry JSON-pointer paths)
# ---------------------------------------------------------------------------

def _err(errors, pointer, message):
    errors.append(f"{pointer}: {message}")


def _get(obj, key, pointer, errors, required=True, types=None, choices=None, default=None,
         items=None, least=None, above=None):
    """obj[key] if it is of types, its items of items, among choices, and
    itself or each of its items at least `least` and above `above`, as given;
    else default, after an error at pointer/key."""
    if key not in obj:
        if required:
            _err(errors, f"{pointer}/{key}", "missing required field")
        return default
    val = obj[key]
    nums = val if items is not None else [val]
    if types is not None and not typed(val, types):
        _err(errors, f"{pointer}/{key}", f"expected {types}, got {type(val).__name__}")
    elif items is not None and not all(typed(v, items) for v in val):
        _err(errors, f"{pointer}/{key}", f"expected a list of {items}, got {val!r}")
    elif choices is not None and val not in choices:
        _err(errors, f"{pointer}/{key}", f"expected one of {sorted(choices)}, got {val!r}")
    elif least is not None and not all(v >= least for v in nums):
        _err(errors, f"{pointer}/{key}", f"must be >= {least}, got {val}")
    elif above is not None and not all(v > above for v in nums):
        _err(errors, f"{pointer}/{key}", f"must be > {above}, got {val}")
    else:
        return val
    return default


def _known(obj, keys, pointer, errors):
    """An error at pointer/key for each key of obj that is not among keys."""
    for key in obj:
        if key not in keys:
            _err(errors, f"{pointer}/{key}", f"unknown key, expected one of {keys}")


def _parse_context(cfg, errors) -> PoleContext | None:
    ctx_obj = _get(cfg, "context", "", errors, types=dict)
    if ctx_obj is None:
        return None
    dim = _get(ctx_obj, "dim", "/context", errors, types=int, least=1)
    gamma = _get(ctx_obj, "gamma", "/context", errors, required=False, types=list, items=NUMBER)
    hs = _get(
        ctx_obj, "half_space", "/context", errors, types=str,
        choices={"upper", "lower"},
    )
    if errors or dim is None or hs is None:
        return None
    g = np.zeros(dim) if gamma is None else np.asarray(gamma, dtype=float)
    try:
        return PoleContext(dim, g, HalfSpace(hs))
    except ValueError as exc:  # gamma of another dimension, or not finite
        _err(errors, "/context/gamma", str(exc))
        return None


def _parse_region(params, ctx, errors, required=False) -> Region | None:
    """The region at /parameters/region, read in ctx; None if not required
    and not given."""
    obj = params.get("region")
    if obj is None and not required:
        return None
    return parse_value(Region, obj, "/parameters/region", errors, ctx)


def _settings(cls, params, errors):
    """cls from its CONFIG_KEYS among the task parameters."""
    own = {k: v for k, v in params.items() if k in cls.CONFIG_KEYS}
    return parse_fields(cls, own, "/parameters", errors)


def _time_center(params, ctx, errors) -> float:
    """The configured time centre, or the context's default one (also after
    an error, so that no caller builds a shell on a time outside ctx)."""
    tc = _get(params, "time_center", "/parameters", errors, required=False, types=NUMBER)
    try:
        if tc is not None:
            ctx.require(tc)
            return float(tc)
    except DomainError as exc:
        _err(errors, "/parameters/time_center", str(exc))
    return default_time_center(ctx)


# the keys of each capacity shell kind
_SHELL_KEYS = {"dyadic": ("kind", "n"), "lambda": ("kind", "lam", "n"), "ball": ("kind", "scale")}

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
    region = _parse_region(params, ctx, errors)
    refinement = _settings(Refinement, params, errors)
    t0 = _time_center(params, ctx, errors)
    shell = None
    if shell_obj is not None:
        kind = _get(shell_obj, "kind", "/parameters/shell", errors, types=str,
                    choices=set(_SHELL_KEYS))
        if kind in _SHELL_KEYS:
            _known(shell_obj, _SHELL_KEYS[kind], "/parameters/shell", errors)
        if kind == "dyadic":
            n = _get(shell_obj, "n", "/parameters/shell", errors, types=int)
            if n is not None:
                shell = dyadic_shell(ctx, n, t0)
        elif kind == "lambda":
            lam = _get(shell_obj, "lam", "/parameters/shell", errors, types=NUMBER, above=1)
            n = _get(shell_obj, "n", "/parameters/shell", errors, types=int)
            if lam is not None and n is not None:
                shell = level_shell(ctx, float(lam), n, t0)
        elif kind == "ball":
            sc = _get(shell_obj, "scale", "/parameters/shell", errors, types=NUMBER, above=0)
            if sc is not None:
                shell = HeatBall(ctx, t0, float(sc))
    if errors:
        raise ConfigError(errors)

    result = capacity_of_region(CompactSet(shell, region), refinement=refinement, probe_seed=seed)
    mu = result.capacitary
    report = _audit(ctx, seed, {
        "task": "capacity",
        "value": result.value,
        "converged": result.converged,
        "max_potential": result.max_potential,
        "probe_max_potential": result.probe_max_potential,
        "comp_slack_residual": result.comp_slack_residual,
        "duality_gap": result.duality_gap,
        "tolerance": refinement.tol,
        "rel_stall": refinement.rel_stall,
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
    return 0 if result.certified(refinement.tol) else 2


def _run_series(ctx, params, seed, out, emit, errors):
    region = _parse_region(params, ctx, errors, required=True)
    kind = _get(params, "kind", "/parameters", errors, required=False, types=str,
                choices={"dyadic", "lambda"}) or "dyadic"
    lam = _get(params, "lam", "/parameters", errors, required=kind == "lambda",
               types=NUMBER, above=1)
    n_min = _get(params, "n_min", "/parameters", errors, required=False, types=int,
                 default=DYADIC_RANGE.start)
    n_max = _get(params, "n_max", "/parameters", errors, required=False, types=int,
                 default=DYADIC_RANGE.stop - 1)
    refinement = _settings(Refinement, params, errors)
    policy = parse_fields(ClassifyPolicy, params.get("policy"), "/parameters/policy", errors)
    if errors:
        raise ConfigError(errors)

    solve = {"refinement": refinement, "policy": policy, "probe_seed": seed}
    if kind == "dyadic":
        report_obj = series_terms(region, ctx, range(n_min, n_max + 1), **solve)
    else:
        # the lambda series picks its own shells unless both ends are given
        n_rng = range(n_min, n_max + 1) if "n_min" in params and "n_max" in params else None
        report_obj = lambda_series_terms(region, ctx, float(lam), n_rng, **solve)

    body = to_jsonable(report_obj)
    body["lambda"] = body.pop("lam")
    report = _audit(ctx, seed, {
        "task": "series",
        **body,
        "tolerance": refinement.tol,
        "rel_stall": refinement.rel_stall,
        "refinement_levels": refinement.levels,
    })
    _emit(out, emit, "series", report, ["n", "capacity", "term", "partial_sum"], [
        [t.n, t.capacity, t.term, s]
        for t, s in zip(report_obj.terms, report_obj.partial_sums)
    ])
    return 2 if report_obj.verdict is Verdict.INCONCLUSIVE else 0


def _run_simulate(ctx, params, seed, out, emit, errors):
    start_obj = _get(params, "start", "/parameters", errors, types=dict, default={})
    _known(start_obj, ("x", "t"), "/parameters/start", errors)
    x0 = _get(start_obj, "x", "/parameters/start", errors, types=list, items=NUMBER)
    if x0 is not None and len(x0) != ctx.dim:
        _err(errors, "/parameters/start/x", f"needs {ctx.dim} components, got {len(x0)}")
    t0 = _get(start_obj, "t", "/parameters/start", errors, types=NUMBER)
    grid = parse_fields(GridPolicy, _get(params, "grid", "/parameters", errors, types=dict),
                         "/parameters/grid", errors, t_start=None if t0 is None else float(t0))
    n_paths = _get(params, "n_paths", "/parameters", errors, types=int, least=0)
    region = _parse_region(params, ctx, errors)
    deltas = _get(params, "deltas", "/parameters", errors, required=False, types=list,
                  items=NUMBER)
    for pointer, t in (("/parameters/start/t", t0),
                       ("/parameters/grid/t_end", None if grid is None else grid.t_end)):
        if t is not None and not ctx.admits(t):
            _err(errors, pointer, f"expected a time in the context's half-space, got {t}")
    if deltas and not np.all(ctx.admits(deltas)):
        _err(errors, "/parameters/deltas", f"expected times in the context's half-space, got {deltas}")
    if errors:
        raise ConfigError(errors)
    try:
        start = point(np.asarray(x0, dtype=float), float(t0))
        times = grid.times(ctx)
    except ValueError as exc:
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
    u_obj = _get(params, "u", "/parameters", errors, types=dict, default={})
    _known(u_obj, ("kind",), "/parameters/u", errors)
    c = float(_get(params, "c", "/parameters", errors, required=False, types=NUMBER,
                   above=0, default=1.0))
    t0 = _time_center(params, ctx, errors)
    quad = _settings(QuadratureSpec, params, errors)
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
    u_obj = _get(params, "u", "/parameters", errors, required=False, types=dict,
                 default={"kind": "one"})
    _known(u_obj, ("kind",), "/parameters/u", errors)
    kind = _get(u_obj, "kind", "/parameters/u", errors, types=str,
                choices={"one", "source_ratio"})
    c_values = _get(params, "c_values", "/parameters", errors, required=False, types=list,
                    items=NUMBER, above=0, default=[0.5, 1.0, 2.0])
    if not c_values:
        _err(errors, "/parameters/c_values", "expected at least one scale")
    t0 = _time_center(params, ctx, errors)
    if errors:
        raise ConfigError(errors)

    c_max = max(float(c) for c in c_values)
    if kind == "one":
        u = lambda xs, ts: 1.0
    else:
        # the kernel ratio from a source below the largest double ball
        big = HeatBall(ctx, t0, 2.0 * c_max)
        lo, _ = big.time_window
        src_t = np.array([0.5 * lo if ctx.is_upper else lo - abs(lo) - 1.0])
        src_x = big.axis(src_t)

        def u(xs, ts):
            return kernel_ratio_matrix(xs, ts, src_x, src_t, ctx)[:, 0]

    results = []
    for c in map(float, c_values):
        res = harnack_check(u, HeatBall(ctx, t0, c).center, c, ctx)
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
    n_points = _get(params, "n_points", "/parameters", errors, required=False, types=int,
                    least=0, default=1000)
    step = float(_get(params, "step", "/parameters", errors, required=False, types=NUMBER,
                      above=0, default=5e-3))
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


# each task's runner and the parameter keys it reads; any other key is an error
_TASKS = {
    "capacity": (_run_capacity, ("shell", "region", "time_center", *Refinement.CONFIG_KEYS)),
    "series": (_run_series, ("region", "kind", "lam", "n_min", "n_max", "policy",
                             *Refinement.CONFIG_KEYS)),
    "simulate": (_run_simulate, ("start", "grid", "n_paths", "region", "deltas")),
    "mean-value": (_run_mean_value, ("u", "c", "time_center", *QuadratureSpec.CONFIG_KEYS)),
    "harnack": (_run_harnack, ("u", "c_values", "time_center")),
    "appell-check": (_run_appell_check, ("n_points", "step")),
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
    runner, keys = _TASKS[task]
    _known(params, keys, "/parameters", errors)
    try:
        return runner(ctx, params, seed, out, emit, errors)
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
