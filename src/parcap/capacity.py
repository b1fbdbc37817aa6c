"""Capacity of compact space-time sets through the normalized kernel.

The capacity of a compact K is the largest total mass of a nonnegative
measure supported in K whose normalized-kernel potential stays below 1 on
the whole half-space.  Discretized, this is a packing linear program over a
node cloud: maximize the mass sum subject to potential <= 1 at a collocation
cloud.  Because the kernel vanishes for non-increasing time gaps, collocation
only on the nodes themselves would let point masses hide; every node is
therefore duplicated with a small forward-in-time guard offset (half its
temporal cell) and a halo of constraint points is added in a slab above the
set, each point once.  A seeded random probe cloud, denser than the
collocation, re-checks feasibility of the returned measure; violations are
reported, never clipped.

A 1-D set symmetric about its pole axis (NodeCloud.axisymmetric) is solved
on rings: the ring of radius rho is the atom pair axis +- rho, and the LP
has one column per pair of the cloud and one row per offset |x - axis| of
the collocation, folded onto the + side and kept once.  Its entries are the
kernel's mean over the pair (kernel_ratio_matrix with rings).  Mirroring a
feasible measure keeps it feasible with the same mass, so this is exactly
the atom LP on the rows and their mirror images; where the rows themselves
are not mirror-closed, the mirrored ones can bind and the value is below
the atom LP's on the rows alone.  Each ring's mass is split evenly onto its
two atoms, so the measure is reported on the cloud's nodes and the probe
evaluates those atoms; the potential maximum, the row duals and the row
count are over the folded rows.  Every other cloud is solved on its atoms.

The dense kernel matrix over every collocation row and node is the only
full-size array a solve allocates, unless a column of it is numerically zero
and a copy without that column is taken.  ``kernel_ratio_matrix`` fills it
over row blocks and never computes its non-causal entries, which are exact
zeros, and each column's peak row is found by a scan over row blocks of it.

The solver is free as long as the certificates hold.  Here the LP goes to
HiGHS by row and column generation.  Only a few percent of the collocation
rows bind, so HiGHS sees a working set of rows that starts at each column's
peak row and grows by every row whose potential exceeds 1.  The capacitary
measure lives on the boundary of the set (Watson 2012), so HiGHS also sees
a working set of columns that starts at the node cloud's boundary cells.
Once no row exceeds 1, every other column is priced by its reduced cost, and
the ones that would raise the value join.  The loop ends when neither rows
nor columns join; the reduced costs then certify the optimum of the whole
program (delayed column generation, Gilmore & Gomory, Oper. Res. 9, 1961).
Each solve keeps one HiGHS model, with HiGHS's own scaling off since the
columns and the cost come scaled: a round adds only its new rows or columns
to it, and the simplex re-solves from the last basis instead of from
scratch.  A run that ends with a status that says nothing about the program
is run once more from scratch on the same rows and columns, and counted as
a restart.  The result carries the feasibility maximum, the complementary
slackness residual and the duality gap, all computed over every collocation
row and every column, not only the working sets.

A series solves shells that are dilations of each other: in the lower
half-space each dyadic shell is the parabolic dilation (x, t) -> (sqrt(2) x,
2 t) of the last about its centre, and the program scales with it, masses
and row duals by c^(N/2) at scale c, as every cell height scales by c.  A
``DilationMemo`` keeps, per resolution, the masses and row duals of the last
optimum of one series call, in the LP's own columns and rows (rings on a
symmetric 1-D cloud), over its cloud's cell height to the N/2.  A new
lower-half-space cloud with as many LP columns and rows gets them
scaled back up by its own cell height, and keeps them only if their own
certificates on its collocation show them optimal: potential <= 1 +
ROW_EXCESS on every row, reduced cost A^T y - 1 >= -ROW_EXCESS on every
column, and a duality gap, as the result reports it, within ROW_EXCESS.  A
primal and a dual feasible pair whose objectives agree are both optimal
(weak duality), so no geometry needs to match.  Otherwise the shell is
solved as above.  Either way the certificates are computed on the shell's
own collocation and probe cloud.  A reused optimum is optimal to the same
tolerances as a fresh one but need not be the same vertex, so a shell's
value can differ at the 1e-12 level depending on whether the previous shell
was solved in the same call.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from numbers import Integral
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .geometry import CompactSet, NodeCloud, Resolution, discretize
from .kernel import KERNEL_BLOCK, PoleContext, SpaceTimePoint, kernel_ratio_matrix
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
    "DilationMemo",
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


def potential(mu: DiscreteMeasure, z: SpaceTimePoint, ctx: PoleContext) -> float:
    """Potential at a point."""
    return float(potential_batch(mu, z.x[None, :], np.array([z.t]), ctx)[0])


@dataclass(frozen=True)
class Collocation:
    xs: np.ndarray
    ts: np.ndarray
    # the rows are folded onto the + side of the axis and the LP's columns
    # are rings (see capacity)
    rings: bool = False

    def __len__(self):
        return self.ts.shape[0]


def build_collocation(cloud: NodeCloud) -> Collocation:
    """Nodes, their forward guards, and a halo slab above the set, each
    point once.

    Guards sit half a temporal cell above each node, displaced onto the
    local kernel-peak line so the binding constraint faces the spike it is
    meant to cap.  The lateral companions of radially neighbouring guards
    coincide below, where the guards' carry is a translation; a repeat (to
    SAME_POINT) is dropped and its first occurrence kept."""
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
    cx, ct = cx[keep], ct[keep]
    first = _first_occurrences(cx, ct)
    return Collocation(cx[first], ct[first])


# points whose coordinates all agree to this relative distance are one point
SAME_POINT = 1e-12


def _first_occurrences(xs, ts):
    """The index where each distinct point (x, t) first occurs, in order.
    Points that coincide in exact arithmetic agree only to rounding, which
    differs from one shell to its dilate, so points that agree to SAME_POINT
    count as one: then a dilate drops the same rows as its shell.  A
    dropped point lies within SAME_POINT of a kept one, so the constraints
    move by no more than that."""
    pts = np.column_stack([ts, xs])
    order = np.lexsort(pts.T[::-1])
    s = pts[order]
    same = np.all(np.abs(np.diff(s, axis=0))
                  <= SAME_POINT * np.maximum(np.abs(s[1:]), np.abs(s[:-1])), axis=1)
    group = np.concatenate([[0], np.cumsum(~same)])
    first = np.full(group[-1] + 1, order.size)
    np.minimum.at(first, group, order)
    return np.sort(first)


def _program(cloud: NodeCloud, coll: Collocation) -> tuple[NodeCloud, Collocation]:
    """The LP's columns and rows: cloud and coll themselves, or, on a cloud
    of a 1-D set symmetric about its axis, the + node of each mirror pair
    and coll folded onto the + side."""
    if cloud.axisymmetric and cloud.dim == 1:
        return _ring_nodes(cloud), _fold(coll, cloud.ctx)
    return cloud, coll


def _fold(coll: Collocation, ctx: PoleContext) -> Collocation:
    """coll's rows moved to axis + |x - axis| and each kept once, as the rows
    of the ring LP: a ring's potential is even in the offset."""
    axis = ctx.axis(coll.ts)
    xs = axis + np.abs(coll.xs - axis)
    first = _first_occurrences(xs, coll.ts)
    return Collocation(xs[first], coll.ts[first], rings=True)


def _ring_nodes(cloud: NodeCloud) -> NodeCloud:
    """The + node of each mirror pair of a symmetric 1-D cloud, standing for
    the pair; its cell is on the boundary if either node's is."""
    plus = slice(0, None, 2)
    boundary = cloud.boundary
    if boundary is not None:
        boundary = boundary[0::2] | boundary[1::2]
    return replace(cloud, xs=cloud.xs[plus], ts=cloud.ts[plus], cell_dts=cloud.cell_dts[plus],
                   cell_drs=cloud.cell_drs[plus], boundary=boundary)


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

# the oldest scipy whose bundled HiGHS binding this module is known to drive
SCIPY_FLOOR = "1.17"


def _highs_model():
    """An empty HiGHS model, with presolve, output and scaling off: the
    columns come scaled to peak 1 and the cost to largest entry 1, and with
    scaling on a warm re-solve of a small 2-D shell took more simplex
    iterations than solving each round from scratch.  scipy's binding is
    imported here, at the first LP: the import costs more than a whole
    mean-value task, which solves none, and only a kept model re-solves from
    its last basis."""
    try:
        from scipy.optimize._highspy._core import _Highs
    except ImportError as exc:
        version = getattr(sys.modules.get("scipy"), "__version__", "not installed")
        raise ImportError(
            f"the capacity LP needs scipy >= {SCIPY_FLOOR}, whose HiGHS binding "
            f"scipy.optimize._highspy._core._Highs it drives; scipy {version} lacks it"
        ) from exc
    model = _Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("presolve", "off")
    model.setOptionValue("simplex_scale_strategy", 0)
    return model


def _add_columns(model, c, entries):
    """Add the columns x >= 0 with cost c to model; column j of entries
    holds the values of new column j on the model's rows, in their order."""
    cols, rows = np.nonzero(entries.T)
    n = c.shape[0]
    starts = np.searchsorted(cols, np.arange(n)).astype(np.int32)
    model.addCols(n, c, np.zeros(n), np.full(n, np.inf), rows.size, starts,
                  rows.astype(np.int32), entries[rows, cols])


# model statuses that say nothing about the program: a warm re-solve can end
# on one of them (seen as "Not Set" after HiGHS raised its Markowitz
# threshold), while the same program solves from scratch
_INDEFINITE = ("kNotset", "kSolveError", "kUnknown")


def linprog(model, *, A_ub):
    """Add the rows A_ub @ x <= 1, over the model's columns, to model and
    re-solve it from its last basis; A_ub may have no rows.  A run that ends
    with an indefinite status is run once more from scratch, on the same
    rows and columns, without the last basis.  Returns x over the model's
    columns (None unless optimal), the simplex iterations of the call as
    nit, success, the model status as message and the restarts made (0 or
    1)."""
    m = A_ub.shape[0]
    rows, cols = np.nonzero(A_ub)
    starts = np.searchsorted(rows, np.arange(m)).astype(np.int32)
    model.addRows(m, np.full(m, -np.inf), np.ones(m), rows.size, starts,
                  cols.astype(np.int32), A_ub[rows, cols])
    model.run()
    nit = int(model.getInfo().simplex_iteration_count)
    status = model.getModelStatus()
    restarts = int(status.name in _INDEFINITE)
    if restarts:
        model.clearSolver()
        model.run()
        nit += int(model.getInfo().simplex_iteration_count)
        status = model.getModelStatus()
    success = status == type(status).kOptimal
    return SimpleNamespace(
        x=np.asarray(model.getSolution().col_value) if success else None,
        nit=nit,
        success=success,
        message=model.modelStatusToString(status),
        restarts=restarts,
    )


def _solve_by_generation(A, c, start_rows, start_cols, inv):
    """Minimize c @ x over x >= 0 with A @ x <= 1, for c < 0, by row and
    column generation.

    One HiGHS model sees only a working set of rows and one of columns,
    which start at start_rows and start_cols.  A round adds to the model
    every row whose potential A @ x, summed over the support columns,
    exceeds 1 + ROW_EXCESS.  Once no row does, every column off the model is
    priced by its reduced cost in units of its cost, (A^T y) / -c - 1 over
    the rows with a positive dual y, and the ones below -ROW_EXCESS are added
    with their entries on the model's rows.  Each round re-solves from the
    last basis.  A round adds a row or a column or ends the loop, and the
    last restricted optimum is feasible on every row and prices out every
    column, so it is the optimum of the whole program.

    Returns x over every column, the row duals (zero off the working set),
    A @ x on every row, the solver facts and the model's rows and columns,
    each in the order they joined.  Raises SolverFailure when a round fails;
    its best value is the last x, scaled onto every row, in the units of
    inv."""
    model = _highs_model()
    cols = np.asarray(start_cols, dtype=np.intp)
    _add_columns(model, c[cols], np.zeros((0, cols.size)))
    working = np.zeros(A.shape[0], dtype=bool)
    new = working.copy()
    new[start_rows] = True
    order = np.zeros(0, dtype=np.intp)  # the model's rows, in its order
    facts = {"lp_rounds": 0, "lp_rows": 0, "lp_columns": 0, "lp_iterations": 0,
             "lp_restarts": 0}
    x = np.zeros(cols.size)
    while True:
        rows = np.flatnonzero(new)
        res = linprog(model, A_ub=A[np.ix_(rows, cols)])
        order = np.concatenate([order, rows])
        working |= new
        facts["lp_rounds"] += 1
        facts["lp_iterations"] += int(res.nit)
        if res.x is not None:
            x = np.maximum(res.x, 0.0)
        on = x > 0.0
        pots = A[:, cols[on]] @ x[on]
        if not res.success:
            best = float(np.sum(x * inv[cols])) / max(1.0, float(np.max(pots)))
            raise SolverFailure(f"LP failed: {res.message}", best)
        facts["lp_restarts"] += res.restarts
        new = ~working & (pots > 1.0 + ROW_EXCESS)
        if np.any(new):
            continue
        y = -np.asarray(model.getSolution().row_dual)
        pos = y > 0.0
        red = (y[pos] @ A[order[pos]]) / -c - 1.0
        # HiGHS prices the model's own columns, to its own tolerance
        red[cols] = 0.0
        join = np.flatnonzero(red < -ROW_EXCESS)
        if not join.size:
            break
        _add_columns(model, c[join], A[np.ix_(order, join)])
        cols = np.concatenate([cols, join])
        x = np.concatenate([x, np.zeros(join.size)])
    facts["lp_rows"] = int(order.size)
    facts["lp_columns"] = int(cols.size)
    x_all = np.zeros(A.shape[1])
    x_all[cols] = x
    duals = np.zeros(A.shape[0])
    duals[order] = y
    return x_all, duals, pots, facts, (order, cols)


def capacity(
    cloud: NodeCloud,
    *,
    collocation: Optional[Collocation] = None,
    probe_seed: int = PROBE_SEED,
    memo: Optional[DilationMemo] = None,
) -> CapacityResult:
    """Solve the packing program for one node cloud, in its set's context.

    With memo, a proposal the memo makes is kept if its certificates on this
    collocation show it optimal, and the solution is given back to the memo.

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
    nodes, rows = _program(cloud, coll)
    proposal = None if memo is None else memo.propose(nodes, rows)
    solved = None if proposal is None else _check_proposal(nodes, rows, proposal)
    if solved is None:
        solved = _solve(nodes, rows)
    masses, y, pots, red, lp_facts = solved
    if memo is not None:
        memo.keep(nodes, masses, y)

    comp_slack = max(
        float(np.max(np.abs(y * (1.0 - pots)))) if y.size else 0.0,
        float(np.max(np.abs(masses * red))),
    ) / max(1.0, float(np.sum(masses)))
    gap = _duality_gap(masses, y)
    if rows.rings:
        # each ring's mass goes half to each atom of its pair
        masses = np.repeat(0.5 * masses, 2)
    value = float(np.sum(masses))
    mu = DiscreteMeasure(cloud.xs, cloud.ts, masses)

    # a symmetric measure's potential is even in the offset, so the probe
    # reads the atoms at the points as drawn
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
            "n_collocation": len(rows),
            "n_candidates": cloud.n_candidates,
            "support_size": int(np.sum(masses > 1e-12 * max(value, 1e-30))),
            **lp_facts,
        },
    )


def _solve(cloud: NodeCloud, coll: Collocation):
    """Masses, row duals, the potential on every row and each column's reduced
    cost A^T y - 1 (zero on dead columns) by row and column generation over
    the dense kernel matrix, with the solver facts."""
    A = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs, cloud.ts, cloud.ctx, rings=coll.rings)

    peak, col_max = _column_peaks(A)
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
    # the columns start on the cloud's boundary, where the measure lives;
    # every live column's peak row caps its variable at 1, so each restricted
    # program is bounded; scaled_m holds masses in units of the column scales
    boundary = np.ones(len(cloud), dtype=bool) if cloud.boundary is None else cloud.boundary
    start = np.flatnonzero(boundary[alive])
    scaled_m, duals, pots, lp_facts, _ = _solve_by_generation(
        A, -(inv / c_scale), peak[alive], start, inv)
    masses = np.zeros(len(cloud))
    masses[alive] = scaled_m * inv
    y = np.maximum(duals * c_scale, 0.0)
    red = np.zeros(len(cloud))
    red[alive] = cm * (A.T @ y) - 1.0
    return masses, y, pots, red, lp_facts


def _column_peaks(A):
    """Each column's first row of largest value, and that value, as
    A.argmax(axis=0) gives it, scanning row blocks: argmax along the rows
    copies what it scans, so a block at a time keeps the copy small.  A
    later block takes a column's peak only when it is strictly greater."""
    peak = np.zeros(A.shape[1], dtype=np.intp)
    col_max = np.full(A.shape[1], -np.inf)
    cols = np.arange(A.shape[1])
    step = max(1, KERNEL_BLOCK // A.shape[1])
    for i in range(0, A.shape[0], step):
        block = A[i:i + step]
        rows = block.argmax(axis=0)
        vals = block[rows, cols]
        later = vals > col_max
        peak[later] = rows[later] + i
        col_max[later] = vals[later]
    return peak, col_max


def _duality_gap(masses, y) -> float:
    """|sum y - sum masses| over max(1, sum masses), as the result reports it."""
    value = float(np.sum(masses))
    return abs(float(np.sum(y)) - value) / max(1.0, value)


def _check_proposal(cloud: NodeCloud, coll: Collocation, proposal):
    """The proposal (masses, row duals) with the potential on every row and
    the reduced costs, if it is primal feasible, dual feasible and of duality
    gap within ROW_EXCESS on this collocation, which makes it optimal by weak
    duality; else None.  Only the support columns and the rows with a
    positive dual enter the kernel matrix.  A dead column's reduced cost is
    -1, so a cloud with one is always solved."""
    masses, y = proposal
    if not _duality_gap(masses, y) <= ROW_EXCESS:
        return None
    # the dual test reads a few rows of the matrix, the primal one every row,
    # so a proposal that fails the dual test is refused at the lower cost
    rows = y > 0.0
    red = y[rows] @ kernel_ratio_matrix(coll.xs[rows], coll.ts[rows], cloud.xs, cloud.ts,
                                        cloud.ctx, rings=coll.rings) - 1.0
    if not np.min(red) >= -ROW_EXCESS:
        return None
    on = masses > 0.0
    pots = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs[on], cloud.ts[on], cloud.ctx,
                               rings=coll.rings) @ masses[on]
    if not np.max(pots) <= 1.0 + ROW_EXCESS:
        return None
    return masses, y, pots, red, {"lp_rounds": 0, "lp_rows": 0, "lp_columns": 0,
                                  "lp_iterations": 0, "lp_restarts": 0}


class DilationMemo:
    """The last optimum of one series call at each resolution: its masses and
    row duals over h^(N/2), for h the cloud's first cell height.  A
    parabolic dilation by c scales every cell height by c and the program's
    masses and duals by c^(N/2)."""

    def __init__(self):
        self._kept = {}

    def propose(self, cloud: NodeCloud, coll: Collocation):
        """The kept (masses, row duals) at cloud's resolution scaled up to
        cloud, if the kept program has as many columns and rows as cloud
        and coll, the LP's own (see _program); else None, and always None
        in the upper half-space, whose node placement is not
        dilation-covariant."""
        kept = self._kept.get(cloud.resolution)
        if (cloud.ctx.is_upper or kept is None or kept.masses.size != len(cloud)
                or kept.duals.size != len(coll)):
            return None
        return kept.masses * _unit(cloud), kept.duals * _unit(cloud)

    def keep(self, cloud: NodeCloud, masses, duals) -> None:
        self._kept[cloud.resolution] = SimpleNamespace(masses=masses / _unit(cloud),
                                                       duals=duals / _unit(cloud))


def _unit(cloud: NodeCloud) -> float:
    return float(cloud.cell_dts[0]) ** (0.5 * cloud.dim)


def capacity_of_region(
    compact: CompactSet,
    *,
    refinement: Refinement = Refinement(),
    probe_seed: int = PROBE_SEED,
    memo: Optional[DilationMemo] = None,
) -> CapacityResult:
    """Capacity through a refining node-cloud sequence, in the set's context.

    Reports convergence once two successive values agree within rel_stall
    AND the result is certified at tol at that level; if the level budget
    runs out first the result carries converged False with the bracketing
    values in its history.  An empty intersection certifies as zero once two
    consecutive levels emit no nodes.  With memo, each level may reuse the
    solution of a shell this set's shell dilates.
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
            result = capacity(cloud, probe_seed=probe_seed, memo=memo)
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

