"""Batch front door: validate a JSON config, run one task, emit reports.

Usage:  parcap run <config.json> [--emit csv|json|both] [--seed N] [--out DIR]

Exit status 0 on success, 2 when the task completed but the verdict is
inconclusive or indeterminate, 1 on errors (schema violations are listed
with JSON-pointer paths).  Reports embed the criterion statement in use,
shell time windows, resolutions, tolerances and the seed, and rerunning the
same config and seed reproduces every output byte for byte.

`reporting.parse_fields` reads a config into `RunConfig`, and its parameters
into the settings classes `_TASKS` lists for its task, before any compute.
The task's runner returns its report body, CSV table and exit status, and
`run_config` adds the audit fields and writes the files `--emit` selects.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Literal, Optional

import numpy as np

from . import __version__
from .appell import AppellDirection, appell_map_arrays, appell_transform, verify_h_identities
from .averaging import QuadratureSpec, check_weighted_ball, harnack_check, mean_value
from .capacity import Refinement, capacity_of_region
from .geometry import CompactSet, DyadicShells, HeatBall, LevelShells
from .hbrownian import GridPolicy, cluster_probability, simulate
from .kernel import HalfSpace, PoleContext, kernel_ratio_matrix, log_heat_kernel, log_pole_weight, point
from .regions import Region
from .reporting import config_keys, dump_csv, dump_json, parse_fields, to_jsonable, typed
from .wiener import ClassifyPolicy, Verdict, series_terms

CRITERION_TEXT = (
    "sum over n of weight(n) * capacity(complement intersect shell(n)):"
    " divergence <=> removable singularity <=> the conditioned process visits"
    " the complement at times clustering to the pole almost surely;"
    " convergence <=> non-removable <=> almost surely not"
)


# smallest shrink factor of the operator-transfer residual under step halving
HALVING_MIN = 3.0


# ---------------------------------------------------------------------------
# the config, read by reporting.parse_fields: each object is a frozen
# dataclass whose fields declare its keys, types and defaults; range checks
# sit in __post_init__ and half-space checks in check_context, each message
# led by the key it names
# ---------------------------------------------------------------------------

def _above(name, value, bound):
    if not value > bound:
        raise ValueError(f"{name} must be > {bound}, got {value}")


@dataclass(frozen=True)
class ContextConfig:
    """The config's "context", held as the PoleContext `ctx`; gamma left out
    is zero."""

    dim: int
    half_space: Literal["upper", "lower"]
    gamma: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        gamma = (0.0,) * self.dim if self.gamma is None else self.gamma
        object.__setattr__(self, "ctx", PoleContext(self.dim, gamma, HalfSpace(self.half_space)))


@dataclass(frozen=True)
class RunConfig:
    """A whole config: `task` names an entry of _TASKS, whose settings
    classes read `parameters`."""

    context: ContextConfig
    task: Literal[tuple(_TASKS)]
    parameters: dict = field(default_factory=dict)
    seed: int = 20240601

    def __post_init__(self):
        # the seed keys numpy's unsigned 64-bit Philox streams
        if not (typed(self.seed, int) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")


class Shell:
    """The shell of a capacity task: a kind-tagged node that builds its
    HeatShell or HeatBall at a time centre, shell `n` of its `family`
    unless it overrides both methods."""

    def check_context(self, ctx, t0=None):
        self.family.check(ctx, self.n, time_center=t0)

    def build(self, ctx, t0):
        return self.family.shell(ctx, self.n, t0)


@dataclass(frozen=True)
class DyadicShell(Shell):
    kind = "dyadic"
    family = DyadicShells()
    n: int


@dataclass(frozen=True)
class LambdaShell(Shell):
    kind = "lambda"
    lam: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "family", LevelShells(self.lam))


@dataclass(frozen=True)
class BallShell(Shell):
    kind = "ball"
    scale: float

    def __post_init__(self):
        _above("scale", self.scale, 0)

    def check_context(self, ctx, t0=None):
        self.build(ctx, t0).check(f"scale {self.scale}")

    def build(self, ctx, t0):
        return HeatBall(ctx, t0, self.scale)


class _Centred:
    """A task at `time_center`, or at the context's default time centre when
    it is None (see HeatBall).  Its check_at_centre(ctx) refuses what it
    builds there; the error names time_center when one is given."""

    def check_context(self, ctx):
        tc = self.time_center
        if tc is not None and not (np.isfinite(tc) and ctx.admits(tc)):
            raise ValueError(f"time_center {tc} is not a finite time in the half-space")
        try:
            self.check_at_centre(ctx)
        except ValueError as exc:
            if tc is None:
                raise
            raise ValueError(f"time_center {tc}: {exc}") from None


@dataclass(frozen=True)
class CapacitySettings(_Centred):
    shell: Shell
    region: Optional[Region] = None
    time_center: Optional[float] = None

    def check_at_centre(self, ctx):
        self.shell.check_context(ctx, self.time_center)


# the shell family of each series kind, given the series' lam
_FAMILY = {"dyadic": lambda lam: DyadicShells(), "lambda": LevelShells}


@dataclass(frozen=True)
class SeriesSettings:
    region: Region
    kind: Literal["dyadic", "lambda"] = "dyadic"
    lam: Optional[float] = None
    n_min: Optional[int] = None
    n_max: Optional[int] = None
    policy: ClassifyPolicy = ClassifyPolicy()

    def __post_init__(self):
        if self.lam is not None:
            _above("lam", self.lam, 1)
        object.__setattr__(self, "family", _FAMILY[self.kind](self.lam))

    def check_context(self, ctx):
        ns = self.n_range(ctx)
        if not ns:
            raise ValueError(f"n_max {ns.stop - 1} is below n_min {ns.start}: no shell to sum")
        # scales, windows and radii grow with n, so the two ends bound every
        # shell between
        self.family.check(ctx, ns.start, "n_min")
        self.family.check(ctx, ns[-1], "n_max")

    def n_range(self, ctx) -> range:
        """The shell indices, an end left out taken from the family's own."""
        own = self.family.indices(ctx.dim)
        lo = own.start if self.n_min is None else self.n_min
        hi = own[-1] if self.n_max is None else self.n_max
        return range(lo, hi + 1)


@dataclass(frozen=True)
class Start:
    x: tuple[float, ...]
    t: float

    def __post_init__(self):
        point(self.x, self.t)  # finite components

    def check_context(self, ctx):
        if len(self.x) != ctx.dim:
            raise ValueError(f"x needs {ctx.dim} components, got {len(self.x)}")
        if not ctx.admits(self.t):
            raise ValueError(f"t {self.t} is outside the half-space")


@dataclass(frozen=True)
class Grid:
    """A GridPolicy without its t_start, which is the start point's time."""

    t_end: float
    ratio: float = GridPolicy.ratio

    def check_context(self, ctx):
        if not (np.isfinite(self.t_end) and ctx.admits(self.t_end)):
            raise ValueError(f"t_end {self.t_end} is not a finite time in the half-space")


@dataclass(frozen=True)
class SimulateSettings:
    start: Start
    grid: Grid
    n_paths: int
    region: Optional[Region] = None
    deltas: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.n_paths < 0:
            raise ValueError(f"n_paths must be >= 0, got {self.n_paths}")

    @property
    def grid_policy(self) -> GridPolicy:
        return GridPolicy(self.start.t, self.grid.t_end, self.grid.ratio)

    def check_context(self, ctx):
        if self.deltas and not np.all(ctx.admits(self.deltas)):
            raise ValueError(f"deltas {list(self.deltas)} are not all inside the half-space")
        self.grid_policy.times(ctx)  # at least two times, from start.t toward t_end


@dataclass(frozen=True)
class MeanValueField:
    """A closed-form pole-weighted caloric fixture (see _named_field)."""

    kind: Literal["one", "caloric_quadratic", "caloric_mixed"]


@dataclass(frozen=True)
class MeanValueSettings(_Centred):
    u: MeanValueField
    c: float = 1.0
    time_center: Optional[float] = None

    def __post_init__(self):
        _above("c", self.c, 0)

    def check_at_centre(self, ctx):
        check_weighted_ball(HeatBall(ctx, self.time_center, self.c), f"c {self.c}")


@dataclass(frozen=True)
class HarnackField:
    """The constant 1, or the kernel ratio from a source below the balls."""

    kind: Literal["one", "source_ratio"]


@dataclass(frozen=True)
class HarnackSettings(_Centred):
    u: HarnackField = HarnackField("one")
    c_values: tuple[float, ...] = (0.5, 1.0, 2.0)
    time_center: Optional[float] = None

    def __post_init__(self):
        if not self.c_values:
            raise ValueError("c_values needs at least one scale")
        _above("c_values", min(self.c_values), 0)

    def check_at_centre(self, ctx):
        # each check reads the c ball and the 2c ball of its truncated double
        for c in self.c_values:
            for scale in (c, 2.0 * c):
                HeatBall(ctx, self.time_center, scale).check(f"c_values entry {c}")


@dataclass(frozen=True)
class AppellCheckSettings:
    n_points: int = 1000
    step: float = 5e-3

    def __post_init__(self):
        if self.n_points < 0:
            raise ValueError(f"n_points must be >= 0, got {self.n_points}")
        _above("step", self.step, 0)


# CSV files not named <stem>_table.csv
_CSV_FILE = {"capacity": "capacity_measure.csv", "simulate": "simulate_paths.csv"}


def _emit(out, emit, stem, report, table):
    """Write `<stem>_report.json` and the CSV table, as --emit selects: the
    table is (header, rows), or a function that writes it to the path it is
    given."""
    if emit in ("json", "both"):
        dump_json(out / f"{stem}_report.json", report)
    if emit in ("csv", "both"):
        path = out / _CSV_FILE.get(stem, f"{stem}_table.csv")
        if callable(table):
            table(path)
        else:
            dump_csv(path, *table)


def _named_field(kind, ctx):
    """The MeanValueField of kind, and its value at a centre time."""
    g = ctx.gamma

    if kind == "one":
        return (lambda xs, ts: 1.0), (lambda t0: 1.0)
    if kind == "caloric_quadratic":
        def v(xs, ts):
            return np.sum((xs - g) ** 2, axis=1) + 2.0 * ctx.dim * ts
    else:  # caloric_mixed
        def v(xs, ts):
            s = xs[:, 0] - g[0]
            return s * s + 2.0 * ts + s

    def u(xs, ts):
        return v(xs, ts) / np.exp(log_pole_weight(xs, ts, ctx))

    def center_val(t0):
        return float(u(ctx.axis([t0]), np.array([t0]))[0])

    return u, center_val


# ---------------------------------------------------------------------------
# task runners: each takes (ctx, seed, *settings) and returns its report
# body, its CSV table (see _emit) and its exit status
# ---------------------------------------------------------------------------

def _run_capacity(ctx, seed, task: CapacitySettings, refinement: Refinement):
    shell = task.shell.build(ctx, task.time_center)
    result = capacity_of_region(CompactSet(shell, task.region), refinement=refinement,
                                probe_seed=seed)
    # the result's fields, serialized with the rest of the report by dump_json
    body = {f.name: getattr(result, f.name) for f in fields(result)}
    mu = body.pop("capacitary")
    body.update({
        "tolerance": refinement.tol,
        "rel_stall": refinement.rel_stall,
        "resolution": result.resolution.describe(),
        "shell_time_window": shell.time_window,
        "measure": {"nodes_x": mu.xs, "nodes_t": mu.ts, "masses": mu.masses},
    })
    table = ([f"x{i+1}" for i in range(ctx.dim)] + ["t", "mass"],
             np.column_stack([mu.xs, mu.ts, mu.masses]))
    # a measure that fails its own feasibility certificate is no capacity
    return body, table, 0 if result.certified(refinement.tol) else 2


def _run_series(ctx, seed, task: SeriesSettings, refinement: Refinement):
    report_obj = series_terms(task.region, ctx, task.n_range(ctx), family=task.family,
                              refinement=refinement, policy=task.policy, probe_seed=seed)

    body = to_jsonable(report_obj)
    body["lambda"] = body.pop("lam")
    body.update({
        "tolerance": refinement.tol,
        "rel_stall": refinement.rel_stall,
        "refinement_levels": refinement.levels,
    })
    table = (["n", "capacity", "term", "partial_sum"],
             [[t.n, t.capacity, t.term, s]
              for t, s in zip(report_obj.terms, report_obj.partial_sums)])
    return body, table, 2 if report_obj.verdict is Verdict.INCONCLUSIVE else 0


def _run_simulate(ctx, seed, task: SimulateSettings):
    grid = task.grid_policy
    ens = simulate(point(task.start.x, task.start.t), grid, task.n_paths, ctx, seed)
    est = cluster_probability(ens, task.region, task.deltas) if task.deltas else None
    body = {
        "n_paths": task.n_paths,
        "grid": {**to_jsonable(grid), "n_times": int(ens.times.shape[0])},
        "estimate": est,
    }
    return body, ens.to_csv, 2 if est is not None and est.verdict.value == "indeterminate" else 0


def _run_mean_value(ctx, seed, task: MeanValueSettings, quad: QuadratureSpec):
    u, center_val = _named_field(task.u.kind, ctx)
    ball = HeatBall(ctx, task.time_center, task.c)
    got = mean_value(u, ball, quad)
    expected = center_val(ball.time_center)
    body = {
        "c": task.c,
        "tolerance": quad.tol,
        "time_center": ball.time_center,
        "time_window": list(ball.time_window),
        "value": got,
        "center_value": expected,
        "abs_error": abs(got - expected),
    }
    header = ["c", "value", "center_value", "abs_error"]
    return body, (header, [[body[k] for k in header]]), 0


def _run_harnack(ctx, seed, task: HarnackSettings):
    balls = [HeatBall(ctx, task.time_center, c) for c in task.c_values]
    if task.u.kind == "one":
        u = lambda xs, ts: 1.0
    else:
        # the kernel ratio from a source below the largest double ball
        big = HeatBall(ctx, task.time_center, 2.0 * max(task.c_values))
        lo, _ = big.time_window
        src_t = np.array([0.5 * lo if ctx.is_upper else lo - abs(lo) - 1.0])
        src_x = big.axis(src_t)

        def u(xs, ts):
            return kernel_ratio_matrix(xs, ts, src_x, src_t, ctx)[:, 0]

    results = [{"c": b.scale, **to_jsonable(harnack_check(u, b))} for b in balls]
    body = {
        "time_center": balls[0].time_center,
        "results": results,
        "max_ratio": max(r["ratio"] for r in results),
    }
    header = ["c", "average", "infimum", "ratio"]
    return body, (header, [[r[k] for k in header] for r in results]), 0


def _run_appell_check(ctx, seed, task: AppellCheckSettings):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    N = ctx.dim
    checks = []

    # round trip of the point map
    xs = rng.normal(size=(task.n_points, N))
    ts = rng.uniform(0.1, 3.0, task.n_points)
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
        r1 = verify_h_identities(u_field, z, up, step=task.step)
        r2 = verify_h_identities(u_field, z, up, step=0.5 * task.step)
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
    body = {
        "n_points": task.n_points,
        "step": task.step,
        "checks": checks,
        "all_passed": ok,
    }
    table = (["check", "residual", "threshold"],
             [[c["name"], c["residual"], c["threshold"]] for c in checks])
    return body, table, 0 if ok else 1


# each task's runner, and the settings classes that read its parameters and
# are passed to it after (ctx, seed)
_TASKS = {
    "capacity": (_run_capacity, (CapacitySettings, Refinement)),
    "series": (_run_series, (SeriesSettings, Refinement)),
    "simulate": (_run_simulate, (SimulateSettings,)),
    "mean-value": (_run_mean_value, (MeanValueSettings, QuadratureSpec)),
    "harnack": (_run_harnack, (HarnackSettings,)),
    "appell-check": (_run_appell_check, (AppellCheckSettings,)),
}


def _parse(cfg, seed_override, errors):
    """The run config and the task's settings read from cfg, each error
    listed at its JSON pointer."""
    run = parse_fields(RunConfig, cfg, "", errors)
    if run is not None and seed_override is not None:
        try:
            run = replace(run, seed=seed_override)
        except ValueError as exc:
            errors.append(f"/seed: {exc}")
    if errors:
        return None, []
    classes = _TASKS[run.task][1]
    keys = tuple(k for cls in classes for k in config_keys(cls))
    for key in run.parameters:
        if key not in keys:
            errors.append(f"/parameters/{key}: unknown key, expected one of {keys}")
    return run, [
        parse_fields(cls, {k: v for k, v in run.parameters.items() if k in config_keys(cls)},
                     "/parameters", errors, run.context.ctx)
        for cls in classes
    ]


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
    if not isinstance(cfg, dict):
        print("error /: config must be a JSON object", file=sys.stderr)
        return 1

    errors: list[str] = []
    try:
        run, settings = _parse(cfg, seed_override, errors)
        if errors:
            for e in errors:
                print(f"error {e}", file=sys.stderr)
            return 1
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        ctx = run.context.ctx
        body, table, status = _TASKS[run.task][0](ctx, run.seed, *settings)
        report = {"tool_version": __version__, "criterion": CRITERION_TEXT, "context": ctx,
                  "seed": run.seed, "task": run.task, **body}
        _emit(out, emit, run.task.replace("-", "_"), report, table)
        return status
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
    args = parser.parse_args(argv)  # "run" is the one command
    return run_config(args.config, emit=args.emit, seed_override=args.seed, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
