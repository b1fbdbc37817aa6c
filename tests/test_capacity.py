import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import parcap as pc
from parcap.capacity import (
    ROW_EXCESS,
    SCIPY_FLOOR,
    Refinement,
    _column_peaks,
    build_collocation,
    capacity,
    capacity_of_region,
    potential,
    potential_batch,
)
from parcap.geometry import NodeCloud, Resolution, default_time_center, discretize
from parcap.kernel import KERNEL_BLOCK, kernel_ratio_matrix, log_pole_weight
from parcap.measures import DiscreteMeasure
from parcap.regions import (
    HalfSpaceCut,
    Intersection,
    PowerProfile,
    SpaceBall,
    TimeSlab,
    Tube,
    Union,
)


def subcloud(cloud: NodeCloud, mask) -> NodeCloud:
    return NodeCloud(
        cloud.xs[mask],
        cloud.ts[mask],
        cloud.cell_dts[mask],
        cloud.cell_drs[mask],
        cloud.resolution,
        cloud.ctx,
        cloud.n_candidates,
    )


def test_potential_basics():
    lo = pc.lower_context(1, [0.5])
    z = pc.point([0.2], -0.4)
    assert potential(DiscreteMeasure.empty(1), z, lo) == 0.0
    w = pc.point([0.0], -1.0)
    mu = DiscreteMeasure(w.x[None, :], np.array([w.t]), np.array([1.0]))
    assert potential(mu, z, lo) == pytest.approx(pc.kernel_ratio(z, w, lo), rel=1e-14)


def test_empty_cloud_capacity():
    lo = pc.lower_context(1)
    cloud = NodeCloud.empty(lo, Resolution(), 10)
    res = capacity(cloud)
    assert res.value == 0.0 and res.converged


def test_the_solve_takes_its_context_from_the_set():
    # the set carries the pole context; a second one cannot be passed
    up = pc.upper_context(1, [0.5])
    compact = pc.CompactSet(pc.dyadic_shell(up, 1), None)
    cloud = discretize(compact, Resolution(level=0, base_time=4, base_radial=1))
    assert cloud.ctx is up and cloud.dim == 1
    for ctx in (up.mirror(), pc.upper_context(1, [-0.5])):
        with pytest.raises(TypeError):
            capacity_of_region(compact, ctx)
        with pytest.raises(TypeError):
            capacity(cloud, ctx)
        with pytest.raises(TypeError):
            build_collocation(cloud, ctx)
    assert NodeCloud.empty(up, Resolution()).dim == 1


@pytest.mark.parametrize("levels", [(), []])
def test_capacity_of_region_rejects_empty_levels(levels):
    compact = pc.CompactSet(pc.dyadic_shell(pc.lower_context(1), 0), None)
    with pytest.raises(ValueError, match="levels"):
        capacity_of_region(compact, refinement=Refinement(levels=levels))


@pytest.mark.parametrize(
    "max_pot, probe_max, certified",
    [(1.0, 1.0, True), (1.001, 1.001, True), (1.0011, 1.0, False), (1.0, 1.0011, False),
     (np.nan, 1.0, False), (1.0, np.nan, False)],
)
def test_certified_needs_both_certificates(max_pot, probe_max, certified):
    res = pc.CapacityResult(
        value=1.0,
        capacitary=DiscreteMeasure.empty(1),
        max_potential=max_pot,
        probe_max_potential=probe_max,
        comp_slack_residual=0.0,
        duality_gap=0.0,
        resolution=Resolution(),
        converged=True,
    )
    assert res.certified(1e-3) is certified


def test_singleton_mass_vanishes_under_refinement():
    lo = pc.lower_context(1)
    vals = []
    for lv in (0, 1, 2):
        res_cell = Resolution(level=lv)
        base = discretize(
            pc.CompactSet(pc.dyadic_shell(lo, 0), None), res_cell
        )
        one = subcloud(base, np.arange(len(base)) == len(base) // 2)
        vals.append(capacity(one).value)
    # a lone atom is capped by its own guard row, so its mass scales with the
    # square root of the temporal cell and shrinks under refinement
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] <= 0.75 * vals[1]
    assert vals[2] < 0.5


def test_capacity_against_exhaustive_search():
    # independent oracle: feasibility-only grid search with zoom rounds and a
    # final coordinate polish, no optimization theory involved
    lo = pc.lower_context(1)
    cloud = discretize(
        pc.CompactSet(pc.dyadic_shell(lo, 0), None),
        Resolution(level=0, base_time=3, base_radial=1),
    )
    assert 3 <= len(cloud) <= 8
    res = capacity(cloud)

    coll = build_collocation(cloud)
    A = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs, cloud.ts, lo)
    m = len(cloud)
    hi = 1.0 / A.max(axis=0)
    center, span = hi / 2, hi / 2
    best_m, best_v = np.zeros(m), 0.0
    K = 9
    for _ in range(4):
        axes = [
            np.linspace(max(0.0, center[i] - span[i]), center[i] + span[i], K)
            for i in range(m)
        ]
        grids = np.meshgrid(*axes, indexing="ij")
        M = np.stack([g.ravel() for g in grids], axis=1)
        feas = np.all(A @ M.T <= 1.0 + 1e-12, axis=0)
        vals = np.where(feas, M.sum(axis=1), -1.0)
        j = int(np.argmax(vals))
        if vals[j] > best_v:
            best_v, best_m = float(vals[j]), M[j].copy()
        center, span = best_m.copy(), span * (2.0 / (K - 1))
    for _ in range(3):  # coordinate polish: push each mass to its own cap
        load = A @ best_m
        for i in range(m):
            head = 1.0 - (load - A[:, i] * best_m[i])
            cap = np.min(head[A[:, i] > 0] / A[:, i][A[:, i] > 0])
            load += A[:, i] * (cap - best_m[i])
            best_m[i] = cap
    best_v = float(np.sum(best_m))
    assert np.all(A @ best_m <= 1.0 + 1e-9)
    assert abs(best_v - res.value) <= 0.02 * res.value


def test_certificates_on_converged_solve():
    lo = pc.lower_context(1, [0.7])
    compact = pc.CompactSet(pc.dyadic_shell(lo, 1), None)
    res = capacity_of_region(compact)
    assert res.converged
    assert res.max_potential <= 1.0 + 1e-3
    assert res.probe_max_potential <= 1.0 + 1e-3
    assert res.comp_slack_residual < 1e-6
    assert res.duality_gap < 1e-6
    assert res.value == res.capacitary.total_mass()


def test_empty_intersection_certified_zero():
    lo = pc.lower_context(1)
    compact = pc.CompactSet(
        pc.dyadic_shell(lo, 1),
        Intersection([TimeSlab(-100.0, -50.0), SpaceBall([30.0], 0.5)]),
    )
    res = capacity_of_region(compact)
    assert res.value == 0.0 and res.converged


def _family_masks(master, ctx):
    regions = {
        "ballS": SpaceBall([0.0], 1.5),
        "ballL": SpaceBall([0.0], 2.5),
        "tube": Tube(PowerProfile(1.3, 0.5)),
        "slab": TimeSlab(-2.0, -0.9),
        "torus": Union([Tube(PowerProfile(1.3, 0.5)), TimeSlab(-2.0, -0.9)]),
        "wedge": HalfSpaceCut([1.0], 0.5),
    }
    masks = {k: r.contains(master.xs, master.ts, ctx) for k, r in regions.items()}
    masks["full"] = np.ones(len(master), dtype=bool)
    return masks


def test_monotonicity_and_strong_subadditivity():
    lo = pc.lower_context(1)
    master = discretize(
        pc.CompactSet(pc.dyadic_shell(lo, 2), None),
        Resolution(level=2),
    )
    coll = build_collocation(master)
    masks = _family_masks(master, lo)
    vals = {
        k: capacity(subcloud(master, m), collocation=coll).value
        for k, m in masks.items()
    }
    # nested pairs never invert beyond the potential tolerance
    for small, big in (("ballS", "ballL"), ("tube", "torus"), ("slab", "full")):
        assert vals[small] <= vals[big] * (1.0 + 1e-3)
    # strong subadditivity on node-compatible pairs
    for a, b in (("tube", "slab"), ("ballS", "wedge"), ("ballL", "slab")):
        mu_ = masks[a] | masks[b]
        mi = masks[a] & masks[b]
        vu = capacity(subcloud(master, mu_), collocation=coll).value
        vi = capacity(subcloud(master, mi), collocation=coll).value if mi.any() else 0.0
        bound = vals[a] + vals[b]
        assert vu + vi <= bound + 1e-3 * bound + 1e-9


def test_appell_invariance_of_shell_capacity():
    # same shell computed natively in each half-space at matched resolution
    for dim in (1,):
        up = pc.upper_context(dim)
        lo = up.mirror()
        vu = capacity_of_region(
            pc.CompactSet(pc.dyadic_shell(up, 2), None)
        ).value
        vl = capacity_of_region(
            pc.CompactSet(pc.dyadic_shell(lo, 2), None)
        ).value
        assert abs(vu - vl) <= 0.05 * vl


def test_appell_invariance_of_box_capacity():
    # a box-shaped compact, hosted in a wide ball, keeps its capacity across
    # the exchange when both sides discretize natively at matched resolution
    from parcap.geometry import CompactSet, HeatBall
    from parcap.regions import AppellImage

    lo = pc.lower_context(1)
    up = lo.mirror()
    box = Intersection([SpaceBall([0.1], 1.2), TimeSlab(-2.5, -0.6)])
    host_lo = HeatBall(lo, -0.25, 4.0)
    vl = capacity_of_region(CompactSet(host_lo, box)).value
    vu = capacity_of_region(CompactSet(host_lo.appell_image(), AppellImage(box))).value
    assert abs(vu - vl) <= 0.05 * vl


def test_classical_cross_check_two_paths():
    # gamma = 0 below is classical thermal capacity; the pulled-back upper
    # computation of the same set must agree within 3 percent
    lo = pc.lower_context(1)
    up = lo.mirror()
    direct = capacity_of_region(
        pc.CompactSet(pc.dyadic_shell(lo, 1), None)
    ).value
    pulled = capacity_of_region(
        pc.CompactSet(pc.dyadic_shell(up, 1), None)
    ).value
    assert abs(direct - pulled) <= 0.03 * direct


def test_smoothed_reduction_profile():
    lo = pc.lower_context(1)
    shell = pc.dyadic_shell(lo, 0)
    compact = pc.CompactSet(shell, None)
    cloud = discretize(compact, Resolution(level=2))
    tol = 0.025
    res = capacity(cloud)

    lo_t, hi_t = shell.time_window
    span = hi_t - lo_t
    assert potential(res.capacitary, pc.point([0.0], lo_t - 3.0), lo) == 0.0

    mid = (cloud.ts > lo_t + 0.3 * span) & (cloud.ts < hi_t - 0.3 * span)
    pots = potential_batch(res.capacitary, cloud.xs[mid], cloud.ts[mid], lo)
    assert float(np.min(pots)) >= 1.0 - 5.0 * tol
    assert float(np.max(pots)) <= 1.0 + tol

    # weight * potential is annihilated by the heat operator off the support
    mu = res.capacitary

    def f(xs, ts):
        return np.exp(log_pole_weight(xs, ts, lo)) * potential_batch(mu, xs, ts, lo)

    zup = pc.point([0.1], hi_t + 0.3)
    r_coarse = abs(pc.heat_operator_fd(f, zup, step=2e-2, richardson=False))
    r_fine = abs(pc.heat_operator_fd(f, zup, step=1e-2, richardson=False))
    assert r_fine < 1e-5
    assert r_fine < r_coarse / 2.0


# ---------------------------------------------------------------------------
# exact symmetries of the program, each shell solved on its own
# ---------------------------------------------------------------------------

SERIES_RES = dict(base_time=10, base_radial=2)


def _scaled_cloud(cloud, n):
    # node offsets in the frame of the shell of scale 2^n about its centre
    c = 2.0**n
    return (cloud.xs - cloud.ctx.axis(cloud.ts)) / np.sqrt(c), (cloud.ts + 0.25) / c


@pytest.mark.parametrize(
    "region, level, n",
    [(Tube(PowerProfile(1.5, 0.5)), level, n) for level, n in ((0, 7), (0, 9), (1, 6), (1, 8))]
    + [pytest.param(None, level, n, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 10: the absolute-time halo rows at t_top * 0.5 and "
                            "t_top * 0.25 bind on bare shells and break the dilation"))
       for level in (0, 1) for n in (5, 6, 7, 8)],
    ids=lambda v: "bare" if v is None else ("tube" if isinstance(v, Tube) else str(v)),
)
def test_parabolic_dilation_scales_capacity(region, level, n):
    """Consecutive lower dyadic shells at gamma 0 are dilations (x, t) ->
    (sqrt(2) x, 2 t) of each other about their centre, so where their node
    clouds coincide the capacity grows by 2^(N/2)."""
    lo = pc.lower_context(1)
    res = Resolution(level=level, **SERIES_RES)
    small, large = (discretize(pc.CompactSet(pc.dyadic_shell(lo, m), region), res)
                    for m in (n - 1, n))
    for a, b in zip(_scaled_cloud(small, n - 1), _scaled_cloud(large, n)):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-12
    assert capacity(large).value / capacity(small).value == pytest.approx(np.sqrt(2.0), rel=1e-9)


def test_deep_upper_shells_keep_the_dilation_law():
    """Above, the times of dyadic shell n reach down to about 2^-(n+2), yet
    value / 2^(n/2) of the 1-D bare shell is the same from n = 40 to 500
    (to 1e-10 when measured): no kernel entry or time slice of a deep shell
    is lost to a cut-off in absolute time or radius."""
    up = pc.upper_context(1)
    scaled = [capacity(discretize(pc.CompactSet(pc.dyadic_shell(up, n), None),
                                  Resolution())).value / 2.0 ** (n / 2)
              for n in (40, 60, 200, 500)]
    assert scaled == pytest.approx([scaled[0]] * 4, rel=1e-4)


@pytest.mark.parametrize("make_ctx", [pc.lower_context, pc.upper_context],
                         ids=["lower", "upper"])
@pytest.mark.parametrize("c, gamma", [(1.0, 0.0), (3.0, 0.7)])
def test_heat_ball_capacity_converges_to_its_closed_form(make_ctx, c, gamma):
    """The heat ball of scale c has capacity (4 pi c)^(N/2).  Its
    equilibrium measure lies on the heat sphere, where the kernel ratio
    seen from the centre equals the ball's level (4 pi c)^(-N/2), and its
    potential at the centre is 1; so its mass times the level is 1.

    Cell-centre nodes lie inside the open ball, so every level solves a
    smaller set and reads low, by a deficit that halves with the spacing:
    the Richardson value 2 v_2 - v_1 lands on the closed form."""
    ctx = make_ctx(1, [gamma])
    ball = pc.HeatBall(ctx, default_time_center(ctx), c)
    ratios = [capacity(discretize(pc.CompactSet(ball, None), Resolution(level=k))).value
              / (4.0 * np.pi * c) ** 0.5 for k in (0, 1, 2)]
    assert ratios[0] < ratios[1] < ratios[2] < 1.0
    deficits = [1.0 - v for v in ratios]
    for coarse, fine in zip(deficits, deficits[1:]):
        assert 1.8 <= coarse / fine <= 2.2
    assert abs(2.0 * ratios[2] - ratios[1] - 1.0) <= 2e-3


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_shear_leaves_bare_lower_shells_unchanged(n, level):
    """In the lower half-space gamma shears the pole axis and the kernel ratio
    with it, so a bare shell has the capacity of gamma 0."""
    res = Resolution(level=level, **SERIES_RES)
    values = [capacity(discretize(pc.CompactSet(pc.dyadic_shell(pc.lower_context(1, [g]), n),
                                                None), res)).value
              for g in (0.0, 0.5, -3.0)]
    assert values[1] == pytest.approx(values[0], rel=1e-9)
    assert values[2] == pytest.approx(values[0], rel=1e-9)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 8: discretize stores absolute nodes axis + r dir and the kernel subtracts "
    "the axis again, so a lower shell loses its cross-section once 2 |t| |gamma| dwarfs "
    "its radius"))
def test_shear_leaves_a_large_bare_lower_shell_unchanged():
    """The shear of test_shear_leaves_bare_lower_shells_unchanged at n = 120,
    where the axis offset 2 |t| |gamma| is about 2^60 times the radius."""
    values = [capacity(discretize(pc.CompactSet(pc.dyadic_shell(pc.lower_context(1, [g]), 120),
                                                None), Resolution())).value
              for g in (0.0, 0.5)]
    assert values[1] == pytest.approx(values[0], rel=1e-9)


def test_shear_leaves_drift_tube_solves_unchanged():
    """The drift tube follows the sheared pole axis, so its part in a lower
    shell has the capacity of gamma 0 at every level of a whole refining
    solve.  Values only: the vertex HiGHS returns, and with it the probe
    maximum, may differ."""
    tube = Tube(PowerProfile(1.5, 0.5), axis="drift")
    refinement = Refinement(levels=(0, 1), resolution=Resolution(**SERIES_RES))
    histories = [capacity_of_region(pc.CompactSet(pc.dyadic_shell(pc.lower_context(1, [g]), 4),
                                                  tube), refinement=refinement).history
                 for g in (0.0, 0.5, 2.0)]
    levels, values = zip(*histories[0])
    assert levels == (0, 1) and min(values) > 0.0
    for history in histories[1:]:
        assert [lv for lv, _ in history] == [0, 1]
        assert [v for _, v in history] == pytest.approx(values, rel=1e-9)


def _full_matrix_optimum(cloud, coll):
    """Value of the packing program over every collocation row at once, with
    HiGHS's default options (presolve on): a reference the solve never sees."""
    from scipy.optimize import linprog

    K = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs, cloud.ts, cloud.ctx)
    ref = linprog(-np.ones(K.shape[1]), A_ub=K, b_ub=np.ones(K.shape[0]),
                  bounds=(0.0, None), method="highs")
    assert ref.success
    return float(np.sum(ref.x)), K


def _cold_iterations(K, working_sets):
    """Dual simplex iterations of solving each round's working set, given as
    (rows, columns) of K, from scratch, with the solve's scaled cost and
    without presolve."""
    from scipy.optimize import linprog

    Ks = K / K.max(axis=0)
    inv = 1.0 / K.max(axis=0)
    c = -(inv / np.max(inv))
    total = 0
    for rows, cols in working_sets:
        cold = linprog(c[cols], A_ub=Ks[np.ix_(rows, cols)], b_ub=np.ones(rows.size),
                       bounds=(0.0, None), method="highs-ds", options={"presolve": False})
        assert cold.success
        total += cold.nit
    return total


@pytest.mark.parametrize(
    "ctx, region, resolution",
    [
        (pc.lower_context(1), None, Resolution(level=1)),
        (pc.upper_context(1, [0.5]), HalfSpaceCut([1.0], 0.5), Resolution(level=1)),
        (pc.lower_context(2, [0.3, 0.0]), None, Resolution(level=0, base_time=4, base_radial=2)),
    ],
    ids=["lower_shell_1d", "upper_cut_1d", "lower_shell_2d"],
)
def test_row_generation_matches_the_full_matrix_program(monkeypatch, ctx, region, resolution):
    cap_module = sys.modules[capacity.__module__]
    solve, generate = cap_module.linprog, cap_module._solve_by_generation
    rounds, working = [], []

    def recording_linprog(model, *, A_ub):
        rounds.append(np.array(A_ub))
        return solve(model, A_ub=A_ub)

    def recording_generation(*args):
        out = generate(*args)
        working.append(out)
        return out

    monkeypatch.setattr(cap_module, "linprog", recording_linprog)
    monkeypatch.setattr(cap_module, "_solve_by_generation", recording_generation)
    cloud = discretize(pc.CompactSet(pc.dyadic_shell(ctx, 1), region), resolution)
    coll = build_collocation(cloud)
    res = capacity(cloud, collocation=coll)
    ref_value, K = _full_matrix_optimum(cloud, coll)

    assert abs(res.value - ref_value) <= 1e-9 * ref_value
    # the certificates cover every row, not only the ones HiGHS saw
    diag = res.diagnostics
    assert diag["n_collocation"] == len(coll) == K.shape[0]
    assert res.max_potential == pytest.approx(float(np.max(K @ res.capacitary.masses)),
                                              rel=1e-12)
    # rows off the working set end at most 1e-9 above 1, rows on it within
    # HiGHS's own 1e-7 feasibility tolerance
    assert res.max_potential <= 1.0 + 1e-7
    assert res.duality_gap <= 1e-9 and res.comp_slack_residual <= 1e-9
    assert diag["lp_rounds"] >= 2 and diag["lp_rows"] < diag["n_collocation"]
    assert diag["lp_iterations"] > 0
    # the model's columns start at the cloud's boundary and each joins once;
    # a round's rows hold the model's columns of that round, which columns
    # only ever join, so they are a prefix of the final column order
    (_, duals, _, _, (rows, cols)), = working
    assert np.all(K.max(axis=0) > 0.0) and len(rounds) == diag["lp_rounds"]
    assert np.array_equal(cols[:rounds[0].shape[1]], np.flatnonzero(cloud.boundary))
    assert np.unique(cols).size == cols.size == diag["lp_columns"]
    assert np.unique(rows).size == rows.size == diag["lp_rows"]
    Ks = K / K.max(axis=0)
    ends = np.cumsum([r.shape[0] for r in rounds])
    sets = [(rows[:end], cols[:r.shape[1]]) for r, end in zip(rounds, ends)]
    for r, (seen, on), end in zip(rounds, sets, ends):
        assert np.array_equal(r, Ks[np.ix_(seen[end - r.shape[0]:], on)])
    # every round adds rows the model has not seen: no row comes more often
    # than the scaled matrix holds it (neighbouring guards share lateral
    # companions), over the columns every round holds
    first = cols[:rounds[0].shape[1]]
    held = Counter(row.tobytes() for row in Ks[:, first])
    added = np.concatenate([r[:, :first.size] for r in rounds])
    assert all(n <= held[row] for row, n in Counter(r.tobytes() for r in added).items())
    assert added.shape[0] == diag["lp_rows"]
    # the last optimum prices out every column of the dense matrix
    y = duals * np.max(1.0 / K.max(axis=0))
    assert np.min(K.T @ y - 1.0) >= -ROW_EXCESS
    # each round re-solves from the last basis, not from scratch
    assert diag["lp_iterations"] < _cold_iterations(K, sets)


def test_columns_off_the_boundary_are_priced_in():
    """A boundary of one node starts the model on one column; pricing adds
    the rest the optimum needs, which then matches the all-columns one."""
    cloud = discretize(pc.CompactSet(pc.dyadic_shell(pc.upper_context(1, [0.5]), 1),
                                     HalfSpaceCut([1.0], 0.5)), Resolution(level=1))
    coll = build_collocation(cloud)
    one = np.zeros(len(cloud), dtype=bool)
    one[len(cloud) // 2] = True
    res = capacity(replace(cloud, boundary=one), collocation=coll)
    every = capacity(replace(cloud, boundary=None), collocation=coll)
    ref_value, _ = _full_matrix_optimum(cloud, coll)
    assert every.diagnostics["lp_columns"] == len(cloud)
    assert res.diagnostics["lp_columns"] > 1
    assert abs(res.value - every.value) <= 1e-9 * every.value
    assert abs(res.value - ref_value) <= 1e-9 * ref_value
    assert res.max_potential <= 1.0 + 1e-7
    assert res.duality_gap <= 1e-9 and res.comp_slack_residual <= 1e-9


def test_column_peaks_are_argmax_with_its_ties():
    """The blocked scan of each column's peak row gives what argmax over the
    whole matrix gives, ties to the first row, across block boundaries too."""
    ncols = 50
    step = KERNEL_BLOCK // ncols
    A = np.random.default_rng(5).integers(0, 4, size=(2 * step + 7, ncols)).astype(float)
    A[:, 3] = 0.0                 # a dead column
    A[[5, step + 5], 7] = 9.0     # a tie across a block boundary
    A[:, 9] = np.minimum(A[:, 9], 1.0)
    A[2 * step + 3, 9] = 2.0      # a peak only in the last block
    peak, col_max = _column_peaks(A)
    assert np.array_equal(peak, A.argmax(axis=0))
    assert np.array_equal(col_max, A.max(axis=0))
    assert peak[3] == 0 and peak[7] == 5 and peak[9] == 2 * step + 3


class _FailedSolve:
    success = False
    message = "no optimum (forced)"
    nit = 3

    def __init__(self, x):
        self.x = x


@pytest.mark.parametrize("iterate", ["ones", "none"])
def test_solver_failure_reports_a_feasible_value(monkeypatch, iterate):
    cap_module = sys.modules[capacity.__module__]
    calls = []

    def failing_linprog(model, *, A_ub):
        calls.append(A_ub.shape[0])
        return _FailedSolve(np.ones(A_ub.shape[1]) if iterate == "ones" else None)

    monkeypatch.setattr(cap_module, "linprog", failing_linprog)
    lo = pc.lower_context(1)
    cloud = discretize(pc.CompactSet(pc.dyadic_shell(lo, 0), None), Resolution(level=0))
    with pytest.raises(pc.SolverFailure) as info:
        capacity(cloud)
    # one run per round and no retry: the first round fails the solve
    assert len(calls) == 1
    best = info.value.best_value
    if iterate == "none":
        assert best == 0.0
        return
    # the iterate is unit mass in the units of each column's peak on the
    # model's columns, which start at the cloud's boundary: scaled onto
    # every row it is a measure of potential at most 1 everywhere
    coll = build_collocation(cloud)
    K = kernel_ratio_matrix(coll.xs, coll.ts, cloud.xs, cloud.ts, lo)
    assert 0 < np.sum(cloud.boundary) < len(cloud)
    masses = np.where(cloud.boundary, 1.0 / K.max(axis=0), 0.0)
    masses /= max(1.0, float(np.max(K @ masses)))
    assert best == pytest.approx(float(np.sum(masses)), rel=1e-12)
    assert float(np.max(K @ masses)) <= 1.0 + 1e-12
    assert best > 0.0


def test_failure_in_capacity_of_region_keeps_the_feasible_value(monkeypatch):
    cap_module = sys.modules[capacity.__module__]
    monkeypatch.setattr(cap_module, "linprog",
                        lambda model, *, A_ub: _FailedSolve(np.ones(A_ub.shape[1])))
    compact = pc.CompactSet(pc.dyadic_shell(pc.lower_context(1), 0), None)
    res = capacity_of_region(compact, refinement=Refinement(levels=(0,)))
    assert not res.converged and "solver_failure" in res.diagnostics
    assert res.history[0][1] == res.value > 0.0


def test_a_scipy_without_the_highs_binding_is_named(monkeypatch):
    import scipy

    # a None entry makes the import of that module fail
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    cloud = discretize(pc.CompactSet(pc.dyadic_shell(pc.lower_context(1), 0), None),
                       Resolution(level=0))
    with pytest.raises(ImportError) as info:
        capacity(cloud)
    message = str(info.value)
    assert f"scipy >= {SCIPY_FLOOR}" in message
    assert f"scipy {scipy.__version__} lacks it" in message
    # the floor the message names is the one the package declares
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert f'"scipy>={SCIPY_FLOOR}"' in pyproject.read_text()
