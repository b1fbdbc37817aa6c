import numpy as np
import pytest

import parcap as pc
from parcap.capacity import (
    Refinement,
    build_collocation,
    capacity,
    capacity_of_region,
    potential,
    potential_batch,
)
from parcap.geometry import NodeCloud, Resolution, discretize
from parcap.kernel import kernel_ratio_matrix, log_pole_weight
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
        cloud.volumes[mask],
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
    # the un-normalized variant multiplies back by the pole weight
    weight = float(np.exp(log_pole_weight(z.x[None, :], np.array([z.t]), lo)[0]))
    assert potential(mu, z, lo, normalized=False) == pytest.approx(
        weight * pc.kernel_ratio(z, w, lo), rel=1e-13
    )


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
