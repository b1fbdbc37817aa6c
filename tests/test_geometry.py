import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parcap as pc
from parcap.geometry import (
    CompactSet,
    HeatBall,
    Resolution,
    default_time_center,
    discretize,
    sphere_directions,
)
from parcap.kernel import DomainError
from parcap.regions import (
    AppellImage,
    Complement,
    ConstProfile,
    EmptyRegion,
    FullRegion,
    HalfSpaceCut,
    Intersection,
    PowerProfile,
    SpaceBall,
    TableProfile,
    TimeSlab,
    Tube,
    Union,
    region_from_json,
    tube_profile_from_csv,
)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

def test_region_primitives():
    ctx = pc.lower_context(2, [1.0, 0.0])
    xs = np.array([[0.0, 0.0], [3.0, 0.0], [0.5, 0.5]])
    ts = np.array([-1.0, -2.0, -0.5])
    assert not EmptyRegion().contains(xs, ts, ctx).any()
    assert FullRegion().contains(xs, ts, ctx).all()
    assert list(TimeSlab(-1.5, -0.4).contains(xs, ts, ctx)) == [True, False, True]
    assert list(SpaceBall([0.0, 0.0], 1.0).contains(xs, ts, ctx)) == [True, False, True]
    assert list(HalfSpaceCut([1.0, 0.0], 0.6).contains(xs, ts, ctx)) == [True, False, True]


def test_tube_axes():
    ctx = pc.lower_context(1, [1.0])
    pole_tube = Tube(ConstProfile(0.5), axis="pole")
    # pole axis sits at x = 1
    assert pole_tube.contains(np.array([[1.2]]), np.array([-3.0]), ctx)[0]
    assert not pole_tube.contains(np.array([[2.0]]), np.array([-3.0]), ctx)[0]
    drift_tube = Tube(ConstProfile(0.5), axis="drift")
    # drift axis sits at x = -2 t gamma = 6 at t=-3
    assert drift_tube.contains(np.array([[6.2]]), np.array([-3.0]), ctx)[0]
    assert not drift_tube.contains(np.array([[1.0]]), np.array([-3.0]), ctx)[0]


def test_power_and_table_profiles():
    p = PowerProfile(1.5, 0.5)
    assert p(np.array([-4.0]))[0] == pytest.approx(3.0)
    t = TableProfile([[-2.0, 1.0], [0.0, 0.0], [-1.0, 0.5]])
    assert t(np.array([-1.5]))[0] == pytest.approx(0.75)
    assert t(np.array([-5.0]))[0] == pytest.approx(1.0)  # clamped


def test_tube_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("t,f\n-2.0,1.0\n-1.0,0.5\n0.0,0.0\n")
    prof = tube_profile_from_csv(path)
    assert prof(np.array([-1.5]))[0] == pytest.approx(0.75)


def test_tube_profile_csv_refuses_a_bad_row_after_the_header(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("t,f\n-2.0,1.0\n-1.0,abc\n0.0,0.0\n")
    with pytest.raises(ValueError, match="line 3"):
        tube_profile_from_csv(path)
    path.write_text("-2.0,1.0\nt,f\n0.0,0.0\n")  # a header only leads
    with pytest.raises(ValueError, match="line 2"):
        tube_profile_from_csv(path)


def test_boolean_nodes_and_json_round_trip():
    ctx = pc.lower_context(1)
    reg = Union(
        [
            Intersection([TimeSlab(-3.0, -1.0), SpaceBall([0.0], 2.0)]),
            Complement(Tube(PowerProfile(1.0, 0.5))),
        ]
    )
    clone = region_from_json(json.loads(json.dumps(reg.to_json())))
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(500, 1)) * 3
    ts = -rng.uniform(0.1, 5.0, 500)
    assert np.array_equal(reg.contains(xs, ts, ctx), clone.contains(xs, ts, ctx))


def test_appell_image_region_pullback():
    up = pc.upper_context(1, [0.0])
    lower_box = Intersection([SpaceBall([0.0], 1.0), TimeSlab(-2.0, -0.5)])
    img = AppellImage(lower_box)
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(300, 1))
    ts = rng.uniform(0.05, 3.0, 300)
    got = img.contains(xs, ts, up)
    ys, taus = pc.appell.appell_map_arrays(xs, ts, pc.AppellDirection.FORWARD)
    want = lower_box.contains(ys, taus, up.mirror())
    assert np.array_equal(got, want)


BALL = {"kind": "space_ball", "center": [0.0], "radius": 1.0}
POWER = {"kind": "power", "coef": 1.5, "exponent": 0.5}

# a bad node and the pointer of its error, read in the 1-D lower context
REGION_ERRORS = [
    ({"kind": "nonsense"}, "/kind"),
    ({"no_kind": 1}, "/kind"),
    ({**BALL, "radiuss": 2.0}, "/radiuss"),
    ({**BALL, "radius": "1.0"}, "/radius"),
    ({**BALL, "radius": True}, "/radius"),
    ({"kind": "space_ball", "center": [0.0]}, "/radius"),
    ({"kind": "tube", "profile": {**POWER, "coef": "1.5"}}, "/profile/coef"),
    ({"kind": "tube", "profile": {**POWER, "scale": 2.0}}, "/profile/scale"),
    ({"kind": "tube", "profile": {"kind": "cone"}}, "/profile/kind"),
    ({"kind": "half_space", "normal": [1.0], "offset": float("nan")}, "/offset"),
    ({"kind": "union", "children": [BALL, {**BALL, "center": [0.0, "x"]}]},
     "/children/1/center/1"),
    ({"kind": "union", "children": BALL}, "/children"),
    ({"kind": "complement", "child": [BALL]}, "/child"),
    ({"kind": "tube", "profile": {"kind": "table", "points": [[0.0, 1.0, 2.0], [1.0, 0.0]]}},
     "/profile/points/0"),
    # values checked against the context
    ({**BALL, "center": [0.0, 1.0]}, "/center"),
    ({"kind": "half_space", "normal": [1.0, 0.0], "offset": 0.0}, "/normal"),
    ({"kind": "heat_ball", "time_center": 1.0, "scale": 1.0}, "/time_center"),
    ({"kind": "appell_image", "child": {"kind": "heat_ball", "time_center": -1.0, "scale": 1.0}},
     "/child/time_center"),
    ({"kind": "time_slab", "t_min": -1.0, "t_max": -2.0}, "/t_min"),
    ({"kind": "time_slab", "t_min": 0.0, "t_max": 3.0}, "/t_min"),
    ({"kind": "appell_image", "child": {"kind": "time_slab", "t_min": -3.0, "t_max": 0.0}},
     "/child/t_max"),
]


def test_region_json_errors():
    with pytest.raises(ValueError):
        region_from_json({"kind": "nonsense"})
    with pytest.raises(ValueError):
        region_from_json({"no_kind": 1})
    # each error names its node's key
    for obj, pointer in REGION_ERRORS:
        with pytest.raises(ValueError) as err:
            region_from_json(obj, pc.lower_context(1))
        assert str(err.value).startswith(f"{pointer}: "), obj


def test_region_json_errors_without_a_context_skip_its_checks():
    region_from_json({**BALL, "center": [0.0, 1.0]})
    with pytest.raises(ValueError, match="^/radius: "):
        region_from_json({**BALL, "radius": -1.0})


def _region_trees(upper, depth=2):
    """Region nodes valid in a 1-D context of that half-space, down to depth."""
    sign = 1.0 if upper else -1.0
    num = st.floats(-5.0, 5.0, allow_nan=False)
    pos = st.floats(0.05, 3.0)
    times = st.floats(0.05, 6.0).map(lambda t: sign * t)
    profiles = st.one_of(
        st.builds(ConstProfile, pos),
        st.builds(PowerProfile, pos, st.floats(0.0, 2.0)),
        st.builds(TableProfile, st.lists(st.tuples(num, pos), min_size=2, max_size=4,
                                         unique_by=lambda p: p[0])),
    )
    leaves = st.one_of(
        st.just(EmptyRegion()),
        st.just(FullRegion()),
        st.builds(lambda a, b: TimeSlab(min(a, b), max(a, b)), times, times),
        st.builds(SpaceBall, st.lists(num, min_size=1, max_size=1), pos),
        st.builds(HalfSpaceCut, st.lists(num, min_size=1, max_size=1), num),
        st.builds(Tube, profiles, st.sampled_from(["pole", "drift"])),
        st.builds(pc.HeatBallRegion, st.none() | times, pos),
    )
    if depth == 0:
        return leaves
    sub = _region_trees(upper, depth - 1)
    return st.one_of(
        leaves,
        st.builds(Union, st.lists(sub, max_size=3)),
        st.builds(Intersection, st.lists(sub, max_size=3)),
        st.builds(Complement, sub),
        st.builds(AppellImage, _region_trees(not upper, depth - 1)),
    )


REGION_TREES = _region_trees(upper=False)


@settings(max_examples=60, deadline=None)
@given(REGION_TREES, st.integers(0, 2**32 - 1))
def test_region_json_round_trip_over_every_kind(reg, seed):
    ctx = pc.lower_context(1, [0.3])
    text = json.dumps(reg.to_json())
    clone = region_from_json(json.loads(text), ctx)
    assert json.dumps(clone.to_json()) == text
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(200, 1)) * 3
    ts = -rng.uniform(0.01, 6.0, 200)
    assert np.array_equal(reg.contains(xs, ts, ctx), clone.contains(xs, ts, ctx))


# ---------------------------------------------------------------------------
# balls and shells
# ---------------------------------------------------------------------------

def test_ball_radius_endpoints_and_window():
    up = pc.upper_context(1, [0.2])
    ball = pc.HeatBall(up, 1.0, 2.0)
    lo, hi = ball.time_window
    assert lo == pytest.approx(1.0 / 9.0) and hi == 1.0
    assert pc.ball_radius(lo, ball) == 0.0
    assert pc.ball_radius(hi, ball) == 0.0
    assert pc.ball_radius(0.5, ball) > 0.0
    with pytest.raises(DomainError):
        pc.ball_radius(1.5, ball)


def test_lower_radius_value():
    # unit distance below the center with scale e gives radius sqrt(2)
    lo = pc.lower_context(1)
    ball = pc.HeatBall(lo, -0.25, np.e)
    assert pc.ball_radius(-1.25, ball) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_lower_radius_maximum():
    lo = pc.lower_context(3, [0.1, 0.0, -0.2])
    for c in (0.4, 1.0, 5.0):
        ball = pc.HeatBall(lo, -0.25, c)
        tau_star = -0.25 - c / np.e
        rmax = pc.ball_radius(tau_star, ball)
        assert rmax == pytest.approx(np.sqrt(2 * 3 * c / np.e), rel=1e-10)
        taus = np.linspace(-0.25 - c + 1e-9, -0.25 - 1e-9, 400)
        assert float(np.max(ball.radius(taus))) <= rmax + 1e-10
        assert ball.peak_radius_sq == pytest.approx(rmax**2, rel=1e-12)


@pytest.mark.parametrize("t0", [0.01, 1.0, 50.0])
@pytest.mark.parametrize("c", [1e-3, 0.4, 5.0, 2.0**200])
def test_upper_peak_radius_bounds_the_radius(t0, c):
    """Above, peak_radius_sq bounds every squared radius of the window, and
    is near the largest one found on a fine grid of the window."""
    ball = pc.HeatBall(pc.upper_context(2), t0, c)
    lo, hi = ball.time_window
    # uniform in u = t/t0 and in native time, which crowds the lower end
    ts = np.concatenate([np.linspace(lo, hi, 20001)[1:-1],
                         -0.25 / np.linspace(-0.25 / lo, -0.25 / hi, 20001)[1:-1]])
    largest = float(np.max(ball.radius_sq(ts)))
    assert largest <= ball.peak_radius_sq <= largest + 2 * 2 * t0 * (0.25 + 1 / np.e)


_LEVEL_INDICES = {  # N = 1, 2, 3
    1.5: (range(5, 16), range(10, 31), range(15, 46)),
    2.0: (range(3, 11), range(6, 18), range(9, 27)),
    4.0: (range(2, 10), range(3, 11), range(5, 14)),
}


@pytest.mark.parametrize("N", [1, 2, 3])
def test_shell_families_keep_their_closed_forms(N):
    """Each family's scale, weight and default indices, bit for bit."""
    dyadic = pc.DyadicShells()
    assert dyadic.indices(N) == range(2, 15)
    for n in range(-40, 60):
        assert dyadic.scale(n, N) == 2.0**n
        assert dyadic.weight(n, N) == 2.0 ** (-0.5 * n * N)
    for lam, indices in _LEVEL_INDICES.items():
        family = pc.LevelShells(lam)
        assert family.indices(N) == indices[N - 1]
        for n in range(-40, 60):
            assert family.scale(n, N) == lam ** (2.0 * n / N) / (4.0 * np.pi)
            assert family.weight(n, N) == lam ** (-n)


def test_a_family_shell_sits_between_its_scales():
    lo = pc.lower_context(2)
    for family in (pc.DyadicShells(), pc.LevelShells(1.5)):
        shell = family.shell(lo, 3, time_center=-2.0)
        assert shell.outer.scale == family.scale(3, 2) and shell.inner.scale == family.scale(2, 2)
        assert shell.outer.time_center == shell.inner.time_center == -2.0
    assert pc.dyadic_shell(lo, 3) == pc.DyadicShells().shell(lo, 3)
    for lam in (1.0, 0.5, None):
        with pytest.raises(ValueError, match="^lam must be > 1"):
            pc.LevelShells(lam)


def test_ball_membership_ratio_vs_closed_form():
    rng = np.random.default_rng(2024)
    for make, g in (
        (pc.upper_context, [0.0]),
        (pc.upper_context, [1.0]),
        (pc.lower_context, [0.0]),
        (pc.lower_context, [1.0]),
    ):
        ctx = make(1, g)
        ball = pc.HeatBall(ctx, default_time_center(ctx), 1.3)
        lo_t, hi_t = ball.time_window
        tested = 0
        for _ in range(2500):
            t = rng.uniform(lo_t - 0.2 * (hi_t - lo_t), hi_t + 0.02 * (hi_t - lo_t))
            if not bool(ctx.admits(t)):
                continue
            R = float(ball.radius(np.array([t]))[0])
            x = ball.axis(np.array([t]))[0] + rng.normal(size=1) * max(R, 0.3) * 1.2
            w = pc.point(x, t)
            ratio = pc.kernel_ratio(ball.center, w, ctx)
            if abs(ratio - ball.level) < 1e-10 * ball.level:
                continue  # boundary band excluded
            tested += 1
            assert (ratio > ball.level) == ball.contains_point(w)
        assert tested > 2000


def test_open_ball_excludes_center_shell_includes_it():
    up = pc.upper_context(2, [0.3, 0.3])
    shell = pc.dyadic_shell(up, 1)
    assert not shell.outer.contains_point(shell.center)
    assert shell.contains_point(shell.center)
    # time outside the window fails
    assert not shell.contains_point(pc.point(shell.center.x, 1.2))
    lo_t, _ = shell.time_window
    assert not shell.contains_point(pc.point(shell.center.x, lo_t * 0.5))


def test_shell_two_sided_condition():
    lo = pc.lower_context(1)
    shell = pc.dyadic_shell(lo, 2)
    rng = np.random.default_rng(4)
    level_in, level_out = shell.levels
    assert level_in == pytest.approx((2 * np.pi * 4.0) ** -0.5, rel=1e-14)
    assert level_out == pytest.approx((4 * np.pi * 4.0) ** -0.5, rel=1e-14)
    hits = 0
    for _ in range(2000):
        t = rng.uniform(*shell.time_window)
        R = float(shell.outer.radius(np.array([t]))[0])
        x = rng.normal(size=1) * max(R, 0.5)
        w = pc.point(x, t)
        ratio = pc.kernel_ratio(shell.center, w, lo)
        if abs(ratio - level_in) < 1e-10 * level_in or abs(ratio - level_out) < 1e-10 * level_out:
            continue
        inside = shell.contains_point(w)
        assert inside == (level_out <= ratio <= level_in)
        hits += inside
    assert hits > 100


def test_level_shell_matches_ratio_levels():
    up = pc.upper_context(2, [0.1, 0.0])
    lam, n = 1.5, 4
    shell = pc.LevelShells(lam).shell(up, n)
    level_in, level_out = shell.levels
    assert level_in == pytest.approx(lam ** (-n + 1), rel=1e-12)
    assert level_out == pytest.approx(lam ** (-n), rel=1e-12)


def test_shell_maps_onto_matching_shell_across_halfspaces():
    up = pc.upper_context(1, [0.6])
    shell = pc.dyadic_shell(up, 2)
    image = shell.appell_image()
    rng = np.random.default_rng(11)
    lo_t, hi_t = shell.time_window
    count = 0
    for _ in range(800):
        t = rng.uniform(lo_t, hi_t)
        rin, rout = shell.radius_band(np.array([t]))
        if rout[0] <= 1e-9:
            continue
        r = rng.uniform(rin[0], rout[0])
        margin = 0.02 * (rout[0] - rin[0])
        if r < rin[0] + margin or r > rout[0] - margin:
            continue
        x = shell.outer.axis(np.array([t]))[0] + np.array([r]) * (1 if rng.random() < 0.5 else -1)
        w = pc.point(x, t)
        if not shell.contains_point(w):
            continue
        count += 1
        wm = pc.appell_map(w, pc.AppellDirection.FORWARD)
        assert image.contains_point(wm)
    assert count > 300


def test_harnack_region_geometry():
    up = pc.upper_context(1)
    q = pc.harnack_region(1.0, 0.8, up)
    ball = pc.HeatBall(up, 1.0, 0.8)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(600, 1))
    ts = rng.uniform(0.01, 1.1, 600)
    in_q = q.contains(xs, ts, up)
    in_ball = ball.contains(xs, ts)
    assert np.all(~in_q | in_ball)  # truncated region is a subset
    trunc = 1.0 / (1.0 + 3.0 * 0.8)
    slice_r = ball.radius(np.array([trunc * 1.001]))[0]
    assert slice_r > 0.0  # nonempty at the truncation level
    # JSON round trip carries the heat-ball leaf
    clone = region_from_json(q.to_json())
    assert np.array_equal(clone.contains(xs, ts, up), in_q)


def test_time_slabs_must_reach_into_their_half_space():
    lo, up = pc.lower_context(1), pc.upper_context(1)
    for ctx, inside, outside in ((lo, TimeSlab(-1.0, 0.0), TimeSlab(0.0, 1.0)),
                                 (up, TimeSlab(0.0, 1.0), TimeSlab(-1.0, 0.0))):
        inside.check_context(ctx)
        with pytest.raises(ValueError, match="outside the half-space"):
            outside.check_context(ctx)
        # the truncating slab of a Harnack region lies inside its half-space
        region_from_json(pc.harnack_region(0.5 if ctx.is_upper else -0.5, 2.0, ctx).to_json(), ctx)


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_sphere_directions_measures():
    for dim, total in ((1, 2.0), (2, 2 * np.pi), (3, 4 * np.pi)):
        dirs, w = sphere_directions(dim, Resolution())
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        assert float(np.sum(w)) == pytest.approx(total, rel=1e-12)


def test_discretize_empty_and_filter():
    lo = pc.lower_context(1)
    shell = pc.dyadic_shell(lo, 1)
    empty = pc.CompactSet(shell, EmptyRegion())
    cloud = discretize(empty, Resolution())
    assert cloud.is_empty and cloud.n_candidates > 0

    tube = Tube(PowerProfile(1.0, 0.5))
    compact = pc.CompactSet(shell, tube)
    cloud = discretize(compact, Resolution(level=1))
    assert len(cloud) > 0
    assert compact.contains(cloud.xs, cloud.ts).all()
    assert np.all(cloud.cell_dts * cloud.cell_drs > 0)


def test_discretize_growth_and_determinism():
    for make, dim in ((pc.lower_context, 1), (pc.lower_context, 2)):
        ctx = make(dim)
        shell = pc.dyadic_shell(ctx, 0)
        compact = pc.CompactSet(shell, None)
        n0 = len(discretize(compact, Resolution(level=0)))
        n1 = len(discretize(compact, Resolution(level=1)))
        growth = n1 / n0
        assert 0.55 * 2 ** (dim + 1) <= growth <= 1.6 * 2 ** (dim + 1)
    ctx = pc.upper_context(1, [0.4])
    compact = pc.CompactSet(pc.dyadic_shell(ctx, 3), None)
    a = discretize(compact, Resolution(level=1))
    b = discretize(compact, Resolution(level=1))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ts, b.ts)
    assert np.array_equal(a.cell_dts * a.cell_drs, b.cell_dts * b.cell_drs)


def test_discretize_volume_sanity():
    # the cells of a full ball tile it; in 1-D a node's cell, on one side of
    # the axis, has measure dt * dr
    lo = pc.lower_context(1)
    ball = pc.HeatBall(lo, -0.25, 1.0)
    compact = CompactSet(ball, None)
    cloud = discretize(compact, Resolution(level=2))
    taus = np.linspace(*ball.time_window, 4001)[1:-1]
    true_vol = float(np.trapezoid(2.0 * ball.radius(taus), taus))
    assert float(np.sum(cloud.cell_dts * cloud.cell_drs)) == pytest.approx(true_vol, rel=0.02)
