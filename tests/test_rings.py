"""The 1-D capacity LP on mirror pairs.  A set symmetric about its pole axis
is solved with one column per pair axis +- rho (a ring) and one row per
offset |u|, which is the atom LP on the rows and their mirror images."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import parcap as pc
from parcap.capacity import (
    ROW_EXCESS,
    Collocation,
    _first_occurrences,
    build_collocation,
    capacity,
    potential_batch,
)
from parcap.geometry import CompactSet, HeatBall, HeatBallRegion, Resolution, discretize
from parcap.regions import (
    AppellImage,
    Complement,
    EmptyRegion,
    FullRegion,
    HalfSpaceCut,
    Intersection,
    PowerProfile,
    Region,
    SpaceBall,
    TimeSlab,
    Tube,
    Union,
)

CAP = sys.modules["parcap.capacity"]
TUBE = Tube(PowerProfile(1.5, 0.5))
SERIES_RES = dict(base_time=10, base_radial=2)
UP, LO = pc.upper_context(1, [0.5]), pc.lower_context(1, [0.5])


def _set(name):
    """The symmetric sets the ring LP is pinned on: the capacity workload's
    bare shells, the series workload's tube and a heat ball, with their
    resolutions."""
    return {
        "upper_shell_l1": (CompactSet(pc.dyadic_shell(UP, 3), None), Resolution(level=1)),
        "upper_shell_l2": (CompactSet(pc.dyadic_shell(UP, 3), None), Resolution(level=2)),
        "lower_shell_l1": (CompactSet(pc.dyadic_shell(LO, 3), None), Resolution(level=1)),
        "lower_shell_l2": (CompactSet(pc.dyadic_shell(LO, 3), None), Resolution(level=2)),
        "series_tube": (CompactSet(pc.dyadic_shell(pc.lower_context(1), 7), TUBE),
                        Resolution(level=1, **SERIES_RES)),
        "heat_ball": (CompactSet(HeatBall(pc.upper_context(1, [0.7]), None, 3.0), None),
                      Resolution(level=1)),
    }[name]


def _mirror_closed(coll, ctx):
    """coll's rows and their mirror images about the axis, each once."""
    axis = ctx.axis(coll.ts)
    xs = np.concatenate([coll.xs, 2.0 * axis - coll.xs])
    ts = np.concatenate([coll.ts, coll.ts])
    keep = _first_occurrences(xs, ts)
    return Collocation(xs[keep], ts[keep])


@pytest.mark.parametrize("name", ["upper_shell_l1", "upper_shell_l2", "lower_shell_l1",
                                  "lower_shell_l2", "series_tube", "heat_ball"])
def test_the_ring_lp_is_the_atom_lp_on_mirror_closed_rows(name):
    compact, res = _set(name)
    cloud = discretize(compact, res)
    assert cloud.axisymmetric
    rings = capacity(cloud)
    atoms = capacity(replace(cloud, axisymmetric=False),
                     collocation=_mirror_closed(build_collocation(cloud), compact.ctx))
    assert rings.value == pytest.approx(atoms.value, rel=1e-9)
    # one row per offset |u|, and one column per pair
    assert rings.diagnostics["n_collocation"] < atoms.diagnostics["n_collocation"]
    assert rings.diagnostics["lp_columns"] <= len(cloud) // 2


@pytest.mark.parametrize("name", ["upper_shell_l1", "lower_shell_l2", "series_tube", "heat_ball"])
def test_each_ring_splits_into_its_two_atoms_at_half_mass(name):
    compact, res = _set(name)
    ctx = compact.ctx
    cloud = discretize(compact, res)
    result = capacity(cloud)
    mu = result.capacitary
    # the cloud holds mirror pairs, the + node first
    u = (cloud.xs - ctx.axis(cloud.ts))[:, 0]
    assert np.array_equal(cloud.ts[0::2], cloud.ts[1::2])
    assert np.all(u[0::2] > 0.0) and u[0::2] == pytest.approx(-u[1::2], rel=1e-12)
    assert np.array_equal(mu.xs, cloud.xs) and np.array_equal(mu.masses[0::2], mu.masses[1::2])
    assert math.fsum(mu.masses) == pytest.approx(result.value, rel=1e-12)
    assert np.any(mu.masses > 0.0)
    # the measure's own potential, atom by atom, at its own atoms
    assert float(np.max(potential_batch(mu, mu.xs, mu.ts, ctx))) <= 1.0 + ROW_EXCESS


def test_a_half_space_cut_takes_the_atom_path(monkeypatch):
    kernel = CAP.kernel_ratio_matrix
    rings = []

    def recording(*args, **kwargs):
        rings.append(kwargs.get("rings", False))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(CAP, "kernel_ratio_matrix", recording)
    shell = pc.dyadic_shell(UP, 3)
    cut = discretize(CompactSet(shell, HalfSpaceCut([1.0], 0.5)), Resolution(level=1))
    assert not cut.axisymmetric
    res = capacity(cut)
    assert rings and not any(rings)
    assert res.diagnostics["n_collocation"] == len(build_collocation(cut))
    rings.clear()
    whole = discretize(CompactSet(shell, None), Resolution(level=1))
    assert whole.axisymmetric
    res = capacity(whole)
    assert any(rings)
    assert res.diagnostics["n_collocation"] < len(build_collocation(whole))


def test_the_rows_are_each_point_once_and_dilate_with_the_shell():
    """Lateral companions of radially neighbouring guards coincide in exact
    arithmetic, but not in their last bits.  Kept once each, and the first
    time, the rows of consecutive dilated shells still match one for one,
    as the dilation memo needs."""
    lo = pc.lower_context(1)
    res = Resolution(level=1, **SERIES_RES)
    clouds = [discretize(CompactSet(pc.dyadic_shell(lo, n), TUBE), res) for n in (6, 7, 8)]
    colls = [build_collocation(c) for c in clouds]
    for cloud, coll in zip(clouds, colls):
        assert _first_occurrences(coll.xs, coll.ts).size == len(coll)
        assert np.array_equal(coll.xs[:len(cloud)], cloud.xs)
    # rows in the frame of each shell's scale; the halo slices at half and a
    # quarter of the top node time are absolute and do not dilate
    scaled = [(coll.xs / 2.0 ** (n / 2), (coll.ts + 0.25) / 2.0**n,
               np.isin(coll.ts, [0.5 * cloud.ts.max(), 0.25 * cloud.ts.max()]))
              for n, cloud, coll in zip((6, 7, 8), clouds, colls)]
    for (xa, ta, ha), (xb, tb, hb) in zip(scaled, scaled[1:]):
        assert xa.shape == xb.shape and np.array_equal(ha, hb) and 0 < np.sum(ha) < ha.size
        assert np.max(np.abs(xa - xb)) <= 1e-12 and np.max(np.abs(ta - tb)[~ha]) <= 1e-12


# ---------------------------------------------------------------------------
# the symmetry rule against sampled membership
# ---------------------------------------------------------------------------

def _regions(ctx):
    """Every region kind, and boolean nodes nesting them, in ctx."""
    e = np.eye(ctx.dim)[0]
    g = ctx.gamma
    own = "pole" if ctx.is_upper else "drift"
    other = "drift" if ctx.is_upper else "pole"
    sign = 1.0 if ctx.is_upper else -1.0
    slab = TimeSlab(*sorted((sign * 0.3, sign * 1.2)))
    tube, far_tube = Tube(PowerProfile(1.0, 0.5), own), Tube(PowerProfile(1.0, 0.5), other)
    centred = SpaceBall(g if ctx.is_upper else np.zeros(ctx.dim), 1.0)
    off_axis = SpaceBall(g + 0.4 * e, 1.0)
    cut = HalfSpaceCut(e, float(g[0]) + 0.1)
    mirrored_own = "drift" if ctx.is_upper else "pole"
    return [
        EmptyRegion(), FullRegion(), slab, centred, off_axis, cut, tube, far_tube,
        HeatBallRegion(None, 1.0),
        Union([tube, slab]), Union([cut, slab]),
        Intersection([tube, Complement(centred)]), Intersection([slab, off_axis]),
        Complement(Union([Intersection([tube, slab]), centred])),
        Complement(Intersection([slab, Union([cut, tube])])),
        AppellImage(Tube(PowerProfile(1.0, 0.5), mirrored_own)),
        AppellImage(Tube(PowerProfile(1.0, 0.5), own)),
        AppellImage(Intersection([HeatBallRegion(None, 1.0), HalfSpaceCut(e, 0.1)])),
        Complement(AppellImage(Union([FullRegion(), HeatBallRegion(None, 2.0)]))),
    ]


def _turned(xs, ts, ctx, rng):
    """The points turned about ctx's axis: mirrored in 1-D, rotated by a
    random angle in 2-D."""
    axis = ctx.axis(ts)
    u = xs - axis
    if ctx.dim == 1:
        return axis - u
    th = rng.uniform(0.0, 2.0 * np.pi, ts.size)
    c, s = np.cos(th), np.sin(th)
    return axis + np.stack([c * u[:, 0] - s * u[:, 1], s * u[:, 0] + c * u[:, 1]], axis=1)


@pytest.mark.parametrize("ctx", [
    pc.lower_context(1), pc.lower_context(1, [0.5]), pc.upper_context(1),
    pc.upper_context(1, [0.5]), pc.lower_context(2, [0.3, -0.2]), pc.upper_context(2, [0.3, -0.2]),
], ids=["lower_0", "lower_0.5", "upper_0", "upper_0.5", "lower_2d", "upper_2d"])
def test_the_symmetry_rule_agrees_with_sampled_turns(ctx):
    """A region the rule calls symmetric keeps every sampled point's
    membership under a turn about the axis; every other region here loses
    some.  The sampling is the test's alone: the rule reads structure."""
    rng = np.random.default_rng(11)
    n = 20_000
    ts = (1.0 if ctx.is_upper else -1.0) * rng.uniform(0.05, 2.0, n)
    xs = ctx.axis(ts) + rng.uniform(-2.5, 2.5, (n, ctx.dim))
    turned = _turned(xs, ts, ctx, rng)
    for region in _regions(ctx):
        inside = region.contains(xs, ts, ctx)
        kept = np.array_equal(inside, region.contains(turned, ts, ctx))
        assert region.axisymmetric(ctx) == kept, region
        # the rule is tested only where membership is mixed
        assert region.axisymmetric(ctx) or 0 < np.sum(inside) < n, region
    # the boundary between the two: the rule follows the context's gamma
    assert Tube(PowerProfile(1.0, 0.5), "pole").axisymmetric(ctx) == (
        ctx.is_upper or not np.any(ctx.gamma))


class _SaysSymmetric(Region):
    """The half x <= gamma, under a node that calls itself symmetric."""

    def contains(self, xs, ts, ctx):
        return HalfSpaceCut(ctx.gamma, float(ctx.gamma @ ctx.gamma)).contains(xs, ts, ctx)

    def axisymmetric(self, ctx):
        return True


def test_a_1d_cloud_without_its_mirror_nodes_is_not_recorded_symmetric():
    """Membership that differs on the two sides of the axis, which for a
    symmetric set only rounding at its boundary could cause, leaves 1-D
    nodes without their mirrors; the cloud is then recorded as not
    symmetric, whatever the rule says, and solved on atoms."""
    shell = pc.dyadic_shell(UP, 3)
    lopsided = discretize(CompactSet(shell, _SaysSymmetric()), Resolution(level=0))
    assert not lopsided.axisymmetric and len(lopsided) > 0
    whole = discretize(CompactSet(shell, None), Resolution(level=0))
    assert whole.axisymmetric and len(whole) > len(lopsided)
