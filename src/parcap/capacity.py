"""Capacity of compact space-time sets through the normalized kernel.

The capacity of a compact K is the largest total mass of a nonnegative
measure supported in K whose normalized-kernel potential stays below 1 on
the whole half-space.  Discretized, this is a packing linear program over a
node cloud: maximize the mass sum subject to potential <= 1 at a collocation
cloud.  Because the kernel vanishes for non-increasing time gaps, collocation
only on the nodes themselves would let point masses hide; every node is
therefore duplicated with a small forward-in-time guard offset (half its
temporal cell) and a halo of constraint points is added in a slab above the
set.  A seeded random probe cloud, denser than the collocation, re-checks
feasibility of the returned measure; violations are reported, never clipped.

The solver is free as long as the certificates hold.  Here the LP goes to
HiGHS by row generation: only a few percent of the collocation rows bind, so
HiGHS sees a working set of rows that starts at each column's peak row and
grows by every row whose potential exceeds 1, until none does.  The result
carries the feasibility maximum, the complementary slackness residual and
the duality gap, all computed over every collocation row, not only the
working set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .geometry import CompactSet, NodeCloud, Resolution, discretize
from .kernel import PoleContext, SpaceTimePoint, kernel_ratio_matrix, log_pole_weight
from .measures import DiscreteMeasure

__all__ = [
    "DiscreteMeasure",
    "CapacityResult",
    "Refinement",
    "SolverFailure",
    "potential",
    "potential_batch",
    "build_collocation",
    "capacity",
    "capacity_of_region",
]

# probe cloud seed of a solve that is given none
PROBE_SEED = 74321


@dataclass(frozen=True)
class Refinement:
    """The levels a capacity solve runs on ``resolution``, in order, and the
    certificate ``tol`` and relative ``rel_stall`` that settle its value."""

    levels: tuple[int, ...] = (0, 1, 2)
    tol: float = 1e-3
    rel_stall: float = 0.02
    resolution: Resolution = Resolution()

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels or any(isinstance(v, bool) or not isinstance(v, Integral) or v < 0
                             for v in levels):
            raise ValueError(f"levels must be a non-empty sequence of integers >= 0: {levels}")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if not (np.isfinite(self.rel_stall) and self.rel_stall >= 0):
            raise ValueError(f"rel_stall must be finite and >= 0, got {self.rel_stall}")
        object.__setattr__(self, "levels", levels)


class SolverFailure(RuntimeError):
    """LP did not converge; carries the best feasible value found, if any."""

    def __init__(self, message: str, best_value: float = 0.0):
        super().__init__(message)
        self.best_value = best_value


@dataclass(frozen=True)
class CapacityResult:
    value: float
    capacitary: DiscreteMeasure
    max_potential: float          # certified sup over the collocation cloud
    probe_max_potential: float    # sup over the fresh random probe cloud
    comp_slack_residual: float
    duality_gap: float
    resolution: Resolution
    converged: bool
    history: tuple = ()           # (level, value) pairs across refinements
    diagnostics: dict = field(default_factory=dict)

    def certified(self, tol: float) -> bool:
        """The potential stays within 1 + tol on the collocation and on the
        fresh probe cloud; a measure failing either is no capacity."""
        bound = 1.0 + tol
        return self.max_potential <= bound and self.probe_max_potential <= bound


def potential_batch(
    mu: DiscreteMeasure, xs: np.ndarray, ts: np.ndarray, ctx: PoleContext
) -> np.ndarray:
    """Normalized-kernel potential of mu at a batch of points."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    # atoms of zero mass add nothing; an LP optimum has few of the rest
    support = mu.masses > 0.0
    if not np.any(support):
        return np.zeros(ts.shape)
    sx, st, sm = mu.xs[support], mu.ts[support], mu.masses[support]
    out = np.zeros(ts.shape)
    # chunk rows to bound the ratio matrix size
    step = max(1, int(4_000_000 / sm.shape[0]))
    for i in range(0, ts.shape[0], step):
        sl = slice(i, i + step)
        out[sl] = kernel_ratio_matrix(xs[sl], ts[sl], sx, st, ctx) @ sm
    return out


def potential(
    mu: DiscreteMeasure, z: SpaceTimePoint, ctx: PoleContext, normalized: bool = True
) -> float:
    """Potential at a point; normalized=False multiplies back by the pole
    weight, giving the plain heat potential of mu / weight_star."""
    val = float(potential_batch(mu, z.x[None, :], np.array([z.t]), ctx)[0])
    if normalized:
        return val
    w = float(np.exp(log_pole_weight(z.x[None, :], np.array([z.t]), ctx)[0]))
    return w * val


@dataclass(frozen=True)
class Collocation:
    xs: np.ndarray
    ts: np.ndarray

    def __len__(self):
        return self.ts.shape[0]


def build_collocation(cloud: NodeCloud) -> Collocation:
    """Nodes, their forward guards, and a halo slab above the set.

    Guards sit half a temporal cell above each node, displaced onto the
    local kernel-peak line so the binding constraint faces the spike it is
    meant to cap."""
    xs, ts, ctx = cloud.xs, cloud.ts, cloud.ctx
    guard_ts = ts + 0.5 * cloud.cell_dts
    guard_xs = ctx.carry(xs, ts, guard_ts)

    # lateral companions at half a radial cell tame the wiggle between guards
    rad = xs - ctx.axis(ts)
    rn = np.linalg.norm(rad, axis=1, keepdims=True)
    e_rad = np.where(rn > 1e-300, rad / np.maximum(rn, 1e-300), 0.0)
    if np.any(rn <= 1e-300):
        fallback = np.zeros_like(rad)
        fallback[:, 0] = 1.0
        e_rad = np.where(rn > 1e-300, e_rad, fallback)
    off = 0.5 * cloud.cell_drs[:, None] * e_rad

    parts_x = [xs, guard_xs, guard_xs + off, guard_xs - off]
    parts_t = [ts, guard_ts, guard_ts, guard_ts]

    t_top = float(np.max(ts))
    d = float(np.median(cloud.cell_dts))
    halo_ts = []
    for mult in (1.0, 2.0, 4.0, 8.0):
        tt = t_top + mult * d
        if bool(ctx.admits(tt)):
            halo_ts.append(tt)
    if not ctx.is_upper:
        # geometric approach toward the time boundary keeps the halo legal
        for frac in (0.5, 0.25):
            halo_ts.append(t_top * frac)
    halo_ts = sorted(set(halo_ts))
    if halo_ts:
        step = max(1, len(cloud) // 40)
        for tt in halo_ts:
            sub_x = ctx.carry(xs[::step], ts[::step], tt)
            parts_x.append(np.concatenate([sub_x, ctx.axis([tt])], axis=0))
            parts_t.append(np.full(sub_x.shape[0] + 1, tt))

    cx = np.concatenate(parts_x, axis=0)
    ct = np.concatenate(parts_t, axis=0)
    keep = ctx.admits(ct)
    return Collocation(cx[keep], ct[keep])


# probe points per collocation row
PROBE_FACTOR = 4


def _probe_points(cloud: NodeCloud, coll: Collocation, seed: int):
    ctx = cloud.ctx
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n = PROBE_FACTOR * len(coll)
    idx = np.arange(n) % len(cloud)
    # standoff stays at the guard distance from every node below: an atomic
    # cell-aggregated mass has an unbounded potential at vanishing distance,
    # so feasibility is certified at the resolution's own locality scale,
    # between and beyond the guard points
    jt = rng.uniform(0.5, 0.95, n)
    ts = cloud.ts[idx] + jt * cloud.cell_dts[idx]
    base = ctx.carry(cloud.xs[idx], cloud.ts[idx], ts)
    ray = _unit_rays(rng, n, cloud.dim)
    jr = rng.uniform(-1.0, 1.0, n)
    xs = base + (jr * cloud.cell_drs[idx])[:, None] * ray

    # slab above the set: the sup can sit beyond the top slice; the standoff
    # scales with the top slice's own cell height
    t_top = float(np.max(cloud.ts))
    d = float(np.max(cloud.cell_dts[cloud.ts >= t_top - 1e-12]))
    extra_x, extra_t = [], []
    m = max(8, n // 8)
    for mult in (0.55, 1.0, 2.0, 4.0):
        tt = t_top + mult * d
        if bool(ctx.admits(tt)):
            pick = rng.integers(0, len(cloud), m)
            exx = ctx.carry(cloud.xs[pick], cloud.ts[pick], tt) + (
                rng.uniform(-1.0, 1.0, m) * cloud.cell_drs[pick]
            )[:, None] * _unit_rays(rng, m, cloud.dim)
            extra_x.append(exx)
            extra_t.append(np.full(m, tt))
    if extra_x:
        xs = np.concatenate([xs] + extra_x)
        ts = np.concatenate([ts] + extra_t)
    keep = ctx.admits(ts)
    return xs[keep], ts[keep]


def _unit_rays(rng, n, dim):
    ray = rng.normal(size=(n, dim))
    return ray / np.maximum(np.linalg.norm(ray, axis=1, keepdims=True), 1e-300)


# a collocation row joins the working set once the potential there exceeds
# 1 by more than this: stricter than HiGHS's own 1e-7 row tolerance
ROW_EXCESS = 1e-9

# the dense packing program goes to HiGHS without presolve, which costs more
# than it saves here; interior point is the fallback when simplex fails
_METHODS = (("highs", {"presolve": False}), ("highs-ipm", None))


def _solve_by_rows(A, c, start, inv):
    """Minimize c @ x over x >= 0 with A @ x <= 1 by row generation.

    HiGHS sees only a working set of rows, which starts at the rows in start
    and grows by every row whose potential A @ x exceeds 1 + ROW_EXCESS.
    Each round adds a row or ends the loop, and the last restricted optimum
    is feasible on every row, so it is the optimum of the whole program.

    Returns x, the row duals (zero off the working set), A @ x on every row
    and the solver facts.  Raises SolverFailure when a round fails; its best
    value is the last x, scaled onto every row, in the units of inv."""
    working = np.zeros(A.shape[0], dtype=bool)
    working[start] = True
    facts = {"lp_rounds": 0, "lp_rows": 0, "lp_iterations": 0, "lp_retry": False}
    x = np.zeros(A.shape[1])
    while True:
        rows = np.flatnonzero(working)
        sub = A[rows]
        for method, options in _METHODS:
            facts["lp_retry"] |= method == "highs-ipm"
            res = linprog(c=c, A_ub=sub, b_ub=np.ones(rows.shape[0]), bounds=(0.0, None),
                          method=method, options=options)
            facts["lp_iterations"] += int(res.nit)
            if res.x is not None:
                x = np.maximum(res.x, 0.0)
            if res.success:
                break
        facts["lp_rounds"] += 1
        facts["lp_rows"] = int(rows.shape[0])
        pots = A @ x
        if not res.success:
            best = float(np.sum(x * inv)) / max(1.0, float(np.max(pots)))
            raise SolverFailure(f"LP failed: {res.message}", best)
        new = ~working & (pots > 1.0 + ROW_EXCESS)
        if not np.any(new):
            duals = np.zeros(A.shape[0])
            duals[rows] = -np.asarray(res.ineqlin.marginals, dtype=float)
            return x, duals, pots, facts
        working |= new


def capacity(
    cloud: NodeCloud,
    *,
    collocation: Optional[Collocation] = None,
    probe_seed: int = PROBE_SEED,
) -> CapacityResult:
    """Solve the packing program for one node cloud, in its set's context.

    Raises SolverFailure when the LP does not reach optimality; the exception
    carries the value of the last iterate scaled down to potential <= 1 on
    every collocation row.
    """
    if cloud.is_empty:
        return CapacityResult(
            value=0.0,
            capacitary=DiscreteMeasure.empty(cloud.dim),
            max_potential=0.0,
            probe_max_potential=0.0,
            comp_slack_residual=0.0,
            duality_gap=0.0,
            resolution=cloud.resolution,
            converged=True,
            diagnostics={"n_nodes": 0, "n_candidates": cloud.n_candidates},
        )

    ctx = cloud.ctx
    coll = collocation if collocation is not None else build_collocation(cloud)
    A = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs, cloud.ts, ctx)

    peak = A.argmax(axis=0)
    col_max = A[peak, np.arange(A.shape[1])]
    alive = col_max > 0.0
    if not np.any(alive):
        raise SolverFailure("every kernel column is numerically zero", 0.0)
    # scale columns in place; the original matrix is recovered through the
    # column scales, keeping peak memory at one dense copy
    if not np.all(alive):
        A = np.ascontiguousarray(A[:, alive])
    cm = col_max[alive]
    A /= cm

    # normalize the objective too so HiGHS sees O(1) data; the argmin is
    # invariant under positive objective scaling and masses unwind exactly
    inv = 1.0 / cm
    c_scale = float(np.max(inv))
    # every live column's peak row caps its variable at 1, so each restricted
    # program is bounded; scaled_m holds masses in units of the column scales
    scaled_m, duals, pots, lp_facts = _solve_by_rows(A, -(inv / c_scale), peak[alive], inv)
    masses = np.zeros(len(cloud))
    masses[alive] = scaled_m * inv
    value = float(np.sum(masses))
    mu = DiscreteMeasure(cloud.xs, cloud.ts, masses)

    y = np.maximum(duals * c_scale, 0.0)
    dual_value = float(np.sum(y))
    red = cm * (A.T @ y) - 1.0
    scale = max(1.0, value)
    comp_slack = max(
        float(np.max(np.abs(y * (1.0 - pots)))) if y.size else 0.0,
        float(np.max(np.abs(masses[alive] * red))) if red.size else 0.0,
    ) / scale
    gap = abs(dual_value - value) / scale

    px, pt = _probe_points(cloud, coll, probe_seed)
    probe_max = float(np.max(potential_batch(mu, px, pt, ctx))) if pt.size else 0.0

    return CapacityResult(
        value=value,
        capacitary=mu,
        max_potential=float(np.max(pots)),
        probe_max_potential=probe_max,
        comp_slack_residual=comp_slack,
        duality_gap=gap,
        resolution=cloud.resolution,
        converged=True,
        diagnostics={
            "n_nodes": len(cloud),
            "n_collocation": len(coll),
            "n_candidates": cloud.n_candidates,
            "support_size": int(np.sum(masses > 1e-12 * max(value, 1e-30))),
            **lp_facts,
        },
    )


def capacity_of_region(
    compact: CompactSet,
    *,
    refinement: Refinement = Refinement(),
    probe_seed: int = PROBE_SEED,
) -> CapacityResult:
    """Capacity through a refining node-cloud sequence, in the set's context.

    Reports convergence once two successive values agree within rel_stall
    AND the result is certified at tol at that level; if the level budget
    runs out first the result carries converged False with the bracketing
    values in its history.  An empty intersection certifies as zero once two
    consecutive levels emit no nodes.
    """
    history: list[tuple[int, float]] = []
    last: Optional[CapacityResult] = None
    empty_streak = 0
    for lv in refinement.levels:
        resolution = replace(refinement.resolution, level=lv)
        cloud = discretize(compact, resolution)
        if cloud.is_empty:
            empty_streak += 1
            history.append((lv, 0.0))
            last = replace(capacity(cloud, probe_seed=probe_seed),
                           converged=empty_streak >= 2, history=tuple(history))
            if empty_streak >= 2:
                return last
            continue
        empty_streak = 0
        try:
            result = capacity(cloud, probe_seed=probe_seed)
        except SolverFailure as exc:
            history.append((lv, exc.best_value))
            return CapacityResult(
                value=exc.best_value,
                capacitary=DiscreteMeasure.empty(cloud.dim),
                max_potential=np.inf,
                probe_max_potential=np.inf,
                comp_slack_residual=np.inf,
                duality_gap=np.inf,
                resolution=resolution,
                converged=False,
                history=tuple(history),
                diagnostics={"solver_failure": str(exc)},
            )
        history.append((lv, result.value))
        prev = history[-2][1] if len(history) >= 2 else None
        if prev is not None and prev > 0.0:
            stalled = abs(result.value - prev) <= refinement.rel_stall * max(result.value, 1e-300)
            # an uncertified level has not converged yet
            if stalled and result.certified(refinement.tol):
                return replace(result, history=tuple(history), converged=True)
        last = result
    return replace(
        last, history=tuple(history), converged=len(history) == 1 and last.value == 0.0
    )

