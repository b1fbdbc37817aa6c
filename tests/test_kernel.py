import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parcap as pc
from parcap.kernel import (
    KERNEL_BLOCK,
    TIME_EPS,
    DimensionMismatchError,
    DomainError,
    kernel_ratio_matrix,
    log_pole_weight,
    log_pole_weight_star,
)


def test_kernel_vanishes_unless_strictly_later():
    z = pc.point([0.0], 1.0)
    assert pc.heat_kernel(z, pc.point([3.0], 1.0)) == 0.0
    assert pc.heat_kernel(z, pc.point([3.0], 2.0)) == 0.0
    assert pc.heat_kernel(z, pc.point([3.0], 0.5)) > 0.0


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2), st.floats(-2, 2))
def test_kernel_support_property(x, y, t, tau):
    v = pc.heat_kernel(pc.point([x], t), pc.point([y], tau))
    if t - tau <= pc.kernel.TIME_EPS:
        assert v == 0.0
    else:
        assert v > 0.0 or (x - y) ** 2 / (4 * (t - tau)) > 700


def test_kernel_unit_normalization_point():
    # prefactor is 1 and the exponent vanishes at coincident positions
    z = pc.point([0.7], 0.3 + 1.0 / (4.0 * np.pi))
    w = pc.point([0.7], 0.3)
    assert pc.heat_kernel(z, w) == pytest.approx(1.0, rel=1e-14)


def test_kernel_two_dim_value():
    z = pc.point([2.0, 0.0], 1.5)
    w = pc.point([0.0, 0.0], 0.5)
    assert pc.heat_kernel(z, w) == pytest.approx(np.exp(-1.0) / (4.0 * np.pi), rel=1e-14)


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pc.heat_kernel(pc.point([0.0], 1.0), pc.point([0.0, 0.0], 0.5))


def test_semigroup_normalization():
    # spatial integral of the kernel is 1 for any positive time gap
    for dim in (1, 2, 3):
        grid = np.linspace(-12.0, 12.0, 161)
        axes = np.meshgrid(*([grid] * dim), indexing="ij")
        pts = np.stack([a.ravel() for a in axes], axis=1)
        dt = 0.7
        logs = -0.5 * dim * np.log(4 * np.pi * dt) - np.sum(pts**2, axis=1) / (4 * dt)
        total = np.sum(np.exp(logs)) * (grid[1] - grid[0]) ** dim
        assert total == pytest.approx(1.0, abs=1e-6)


def test_h_pole_basics():
    ctx = pc.upper_context(1, [0.4])
    assert pc.h_pole(pc.point([0.4], 1.0 / (4 * np.pi)), ctx) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        pc.h_pole(pc.point([0.0], -1.0), ctx)
    # gamma zero reduces to the plain kernel from the origin
    ctx0 = pc.upper_context(2)
    z = pc.point([0.3, -1.0], 0.8)
    assert pc.h_pole(z, ctx0) == pytest.approx(
        pc.heat_kernel(z, pc.point([0.0, 0.0], 0.0)), rel=1e-14
    )


def test_h_pole_under_point_map():
    # h pulled back through the half-space exchange equals the drift
    # exponential times an explicit Gaussian factor
    rng = np.random.default_rng(12)
    for dim in (1, 3):
        g = rng.normal(size=dim)
        up = pc.upper_context(dim, g)
        lo = up.mirror()
        for _ in range(50):
            w = pc.point(rng.normal(size=dim), -rng.uniform(0.05, 3.0))
            zi = pc.appell_map(w, pc.AppellDirection.BACKWARD)
            lhs = pc.h_pole(zi, up)
            rhs = (
                (-np.pi / w.t) ** (-0.5 * dim)
                * np.exp(np.dot(w.x, w.x) / (4.0 * w.t))
                * pc.h_tilde(w, lo)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_h_star_values_and_product():
    ctx = pc.upper_context(1, [0.0])
    assert pc.h_star(pc.point([0.0], np.pi), ctx) == pytest.approx(1.0)
    ctx3 = pc.upper_context(3)
    z = pc.point([0.0, 0.0, 0.0], 0.5)
    assert pc.h_pole(z, ctx3) * pc.h_star(z, ctx3) == pytest.approx(1.0, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.floats(-2, 2), st.floats(0.05, 4.0))
def test_h_times_h_star_identity(x, t):
    ctx = pc.upper_context(1, [0.25])
    z = pc.point([x], t)
    assert pc.h_pole(z, ctx) * pc.h_star(z, ctx) == pytest.approx(
        (2.0 * t) ** -1, rel=1e-11
    )


def test_h_star_under_point_map():
    rng = np.random.default_rng(5)
    dim = 2
    g = np.array([0.8, -0.3])
    up = pc.upper_context(dim, g)
    for _ in range(50):
        w = pc.point(rng.normal(size=dim), -rng.uniform(0.05, 2.0))
        zi = pc.appell_map(w, pc.AppellDirection.BACKWARD)
        lhs = pc.h_star(zi, up)
        shifted = w.x + 2.0 * w.t * g
        rhs = (-4.0 * np.pi * w.t) ** (0.5 * dim) * np.exp(
            -np.dot(shifted, shifted) / (4.0 * w.t)
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_h_tilde_basics():
    ctx0 = pc.lower_context(2)
    assert pc.h_tilde(pc.point([5.0, -3.0], -2.0), ctx0) == 1.0
    ctx = pc.lower_context(2, [1.0, 0.0])
    assert pc.h_tilde(pc.point([2.0, 0.0], -1.0), ctx) == pytest.approx(np.e, rel=1e-14)
    with pytest.raises(DomainError):
        pc.h_tilde(pc.point([0.0, 0.0], 1.0), ctx)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-4.0, -0.01))
def test_h_tilde_product_is_one(x, t):
    ctx = pc.lower_context(1, [1.3])
    w = pc.point([x], t)
    assert pc.h_tilde(w, ctx) * pc.h_tilde_star(w, ctx) == pytest.approx(1.0, rel=1e-12)


def test_kernel_ratio_support_and_level():
    ctx = pc.upper_context(1)
    zc = pc.point([0.0], 1.0)
    assert pc.kernel_ratio(zc, pc.point([0.3], 1.0), ctx) == 0.0
    assert pc.kernel_ratio(zc, pc.point([0.3], 1.5), ctx) == 0.0
    # a point on the ball's bounding surface gives exactly the level value
    c = 1.7
    ball = pc.HeatBall(ctx, 1.0, c)
    t = 0.55
    r = float(ball.radius(np.array([t]))[0])
    w = pc.point([r], t)
    assert pc.kernel_ratio(zc, w, ctx) == pytest.approx(
        (4 * np.pi * c) ** -0.5, rel=1e-11
    )


def test_kernel_ratio_lower_gamma_zero_is_plain_kernel():
    ctx = pc.lower_context(2)
    z = pc.point([0.1, 0.4], -0.3)
    w = pc.point([-0.2, 0.0], -1.1)
    assert pc.kernel_ratio(z, w, ctx) == pytest.approx(
        pc.heat_kernel(z, w), rel=1e-13
    )


def test_ratio_matrix_matches_naive_definition():
    # stable closed forms against the literal F / (weight * weight_star)
    rng = np.random.default_rng(77)
    for make in (pc.upper_context, pc.lower_context):
        ctx = make(2, [0.5, -0.2])
        sgn = 1.0 if ctx.is_upper else -1.0
        zx = rng.normal(size=(20, 2))
        zt = sgn * rng.uniform(0.3, 2.0, 20)
        wx = rng.normal(size=(15, 2))
        wt = sgn * rng.uniform(0.3, 2.0, 15) - (0.0 if ctx.is_upper else 2.0)
        if ctx.is_upper:
            zt, wt = zt + 1.0, wt * 0.3
        m = kernel_ratio_matrix(zx, zt, wx, wt, ctx)
        lw = log_pole_weight(zx, zt, ctx)
        lws = log_pole_weight_star(wx, wt, ctx)
        for i in range(zx.shape[0]):
            for j in range(wx.shape[0]):
                naive = pc.heat_kernel(pc.point(zx[i], zt[i]), pc.point(wx[j], wt[j]))
                naive *= np.exp(-lw[i] - lws[j])
                assert m[i, j] == pytest.approx(naive, rel=1e-10, abs=1e-280)


def _direct_log_ratio(zx, zt, wx, wt, ctx):
    """log of the ratio with the squared distance taken as a direct difference,
    never expanded: |x - y + 2 dt gamma|^2 below, |tau (x - g) - t (y - g)|^2
    above."""
    g, n = ctx.gamma, ctx.dim
    dt = zt[:, None] - wt[None, :]
    if ctx.is_upper:
        tt = zt[:, None] * wt[None, :]
        d = wt[None, :, None] * (zx - g)[:, None, :] - zt[:, None, None] * (wx - g)[None, :, :]
        return -0.5 * n * np.log(np.pi * dt / tt) - np.sum(d**2, axis=2) / (4.0 * tt * dt)
    d = zx[:, None, :] - wx[None, :, :] + 2.0 * dt[:, :, None] * g
    return -0.5 * n * np.log(4.0 * np.pi * dt) - np.sum(d**2, axis=2) / (4.0 * dt)


@pytest.mark.parametrize("gamma", [[2.0], [0.3, -0.2]])
@pytest.mark.parametrize("make", [pc.lower_context, pc.upper_context])
def test_ratio_matrix_precision_on_a_far_shell(make, gamma):
    # shell n = 14 sits at |t| ~ 1e4 below (1e-5 above), where a squared
    # distance expanded in the raw coordinates cancels to ~1e-9
    ctx = make(len(gamma), gamma)
    cloud = pc.discretize(
        pc.CompactSet(pc.dyadic_shell(ctx, 14), None),
        pc.Resolution(level=0, base_time=10, base_radial=2),
    )
    worst, compared = 0.0, 0
    for frac in (0.5, 0.05):
        zt = cloud.ts + frac * cloud.cell_dts
        keep = ctx.admits(zt)
        zx, zt = cloud.xs[keep], zt[keep]
        got = kernel_ratio_matrix(zx, zt, cloud.xs, cloud.ts, ctx)
        with np.errstate(divide="ignore", invalid="ignore"):
            want = np.exp(_direct_log_ratio(zx, zt, cloud.xs, cloud.ts, ctx))
        live = (zt[:, None] - cloud.ts[None, :] > pc.kernel.TIME_EPS) & (want > 1e-280)
        compared += int(np.sum(live))
        worst = max(worst, float(np.max(np.abs(got[live] - want[live]) / want[live])))
    assert compared > 100
    assert worst <= 1e-11


def _dense_reference(zx, zt, wx, wt, ctx):
    """kernel_ratio_matrix as one dense evaluation over full-size scratch
    matrices, kept as the reference for the blocked evaluator."""
    zx = np.atleast_2d(np.asarray(zx, dtype=float))
    wx = np.atleast_2d(np.asarray(wx, dtype=float))
    zt = np.asarray(zt, dtype=float).reshape(-1)
    wt = np.asarray(wt, dtype=float).reshape(-1)

    dt = zt[:, None] - wt[None, :]
    pos = dt > TIME_EPS
    if not np.any(pos):
        return np.zeros(dt.shape)

    uz = zx - ctx.axis(zt)  # (nz, N)
    uw = wx - ctx.axis(wt)  # (nw, N)
    gap = dt
    if ctx.is_upper:
        uz = uz / (2.0 * zt[:, None])
        uw = uw / (2.0 * wt[:, None])
        gap = dt / (4.0 * zt[:, None] * wt[None, :])
    # one scratch matrix, reused in place: |uz - uw|^2 expanded to avoid
    # forming an (nz, nw, N) array, then the log ratio, then its exp
    sq = uz @ uw.T
    sq *= 2.0
    np.subtract(np.sum(uz**2, axis=1)[:, None], sq, out=sq)
    sq += np.sum(uw**2, axis=1)[None, :]
    # gap is a fresh matrix either way; 4 gap, then 4 pi gap, in place
    gap *= 4.0
    # entries off the causal mask may turn inf or nan here; exp skips them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sq /= gap
        gap *= np.pi
        np.log(gap, out=gap, where=pos)
        gap *= -0.5 * ctx.dim
        gap -= sq
    out = sq
    out.fill(0.0)
    with np.errstate(under="ignore"):
        np.exp(gap, out=out, where=pos)
    # entries this small are numerically dead columns for the capacity solver
    out[out < 1e-300] = 0.0
    return out


def _cross_term_bound(zx, zt, wx, wt, ctx):
    """A bound on |log a - log b| for two evaluations of the ratio that round
    the cross term uz . uw differently: each operation from it to the
    exponent is exact to a few eps of (|uz| + |uw|)^2 / (4 gap), the largest
    magnitude it meets, in the lower coordinates the ratio is taken in."""
    uz = zx - ctx.axis(zt)
    uw = wx - ctx.axis(wt)
    gap = zt[:, None] - wt[None, :]
    if ctx.is_upper:
        uz = uz / (2.0 * zt[:, None])
        uw = uw / (2.0 * wt[:, None])
        gap = gap / (4.0 * zt[:, None] * wt[None, :])
    size = (np.linalg.norm(uz, axis=1)[:, None] + np.linalg.norm(uw, axis=1)[None, :]) ** 2
    return 16 * (ctx.dim + 1) * np.finfo(float).eps * (size / (4.0 * gap) + 1.0)


def _assert_matches_reference(zx, zt, wx, wt, ctx):
    """The evaluator against the dense reference: exact zeros off the causal
    set, and equal in 1-D.  With N >= 2 the reference's BLAS product rounds
    the cross term by a path that depends on the matrix shape, while the
    evaluator sums it coordinate by coordinate, so there entries agree to
    _cross_term_bound and the zero sets are equal."""
    got = kernel_ratio_matrix(zx, zt, wx, wt, ctx)
    want = _dense_reference(zx, zt, wx, wt, ctx)
    causal = zt[:, None] - wt[None, :] > TIME_EPS
    assert not np.any(got[~causal]) and not np.any(np.signbit(got))
    if ctx.dim == 1:
        assert np.array_equal(got, want)
    else:
        assert np.array_equal(got == 0.0, want == 0.0)
        live = want > 0.0
        drift = np.abs(np.log(got[live]) - np.log(want[live]))
        assert np.all(drift <= _cross_term_bound(zx, zt, wx, wt, ctx)[live])
    return got, want


def _ratio_inputs(rng, ctx, nz, nw, order, spread=2.0):
    """Rows and columns in ctx's half-space, about half the entries causal,
    with column times shuffled or sorted either way."""
    sgn = 1.0 if ctx.is_upper else -1.0
    zt = sgn * rng.uniform(0.05, 3.0, nz)
    wt = sgn * rng.uniform(0.05, 3.0, nw)
    if order != "shuffled":
        wt.sort()
    if order == "descending":
        wt = wt[::-1].copy()
    zx = spread * rng.normal(size=(nz, ctx.dim))
    wx = spread * rng.normal(size=(nw, ctx.dim))
    return zx, zt, wx, wt


_DIRECTIONS = np.array([1.0, -0.7, 0.4])


@pytest.mark.parametrize("order", ["shuffled", "ascending", "descending"])
@pytest.mark.parametrize("gamma", [0.0, 0.5, -3.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [pc.lower_context, pc.upper_context])
def test_ratio_matrix_matches_the_dense_reference(make, dim, gamma, order):
    ctx = make(dim, gamma * _DIRECTIONS[:dim])
    rng = np.random.default_rng([dim, int(10 * gamma) + 30, len(order)])
    got, _ = _assert_matches_reference(*_ratio_inputs(rng, ctx, 150, 80, order), ctx)
    assert 0.2 < np.mean(got > 0.0) < 0.8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [pc.lower_context, pc.upper_context])
def test_ratio_matrix_at_block_edges(make, dim):
    """Row counts one either side of whole blocks, a first block of rows that
    precede every column, and rows and columns evaluated apart: each entry
    depends on its own two points only, in every dimension."""
    ctx = make(dim, 0.5 * _DIRECTIONS[:dim])
    rng = np.random.default_rng(dim)
    nw = 256
    step = KERNEL_BLOCK // nw
    for nz in (step - 1, step, step + 1, 2 * step - 1, 2 * step + 1):
        zx, zt, wx, wt = _ratio_inputs(rng, ctx, nz, nw, "shuffled")
        # the first block holds no causal entry: its rows precede every column
        lead = rng.uniform(0.2, 0.5, min(nz, step))
        zt[:step] = np.min(wt) * lead if ctx.is_upper else np.min(wt) - lead
        got, _ = _assert_matches_reference(zx, zt, wx, wt, ctx)
        assert not np.any(got[: min(nz, step)])
        for i in (0, step - 1, nz - 1):
            assert np.array_equal(kernel_ratio_matrix(zx[i:i + 1], zt[i:i + 1], wx, wt, ctx),
                                  got[i:i + 1])
        cols = rng.permutation(nw)[:37]
        assert np.array_equal(kernel_ratio_matrix(zx, zt, wx[cols], wt[cols], ctx), got[:, cols])


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("make", [pc.lower_context, pc.upper_context])
def test_ratio_matrix_cuts_entries_that_underflow(make, dim):
    # spread points far apart, so that exponents run through -690 (1e-300)
    # down past -745, where exp itself underflows to zero
    ctx = make(dim, 0.5 * _DIRECTIONS[:dim])
    rng = np.random.default_rng(10 + dim)
    zx, zt, wx, wt = _ratio_inputs(rng, ctx, 300, 120, "shuffled", spread=30.0)
    got, _ = _assert_matches_reference(zx, zt, wx, wt, ctx)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = np.exp(_direct_log_ratio(zx, zt, wx, wt, ctx))
    causal = zt[:, None] - wt[None, :] > TIME_EPS
    assert np.any(causal & (raw > 0.0) & (raw < 1e-300))
    assert np.any(causal & (raw == 0.0))
    assert np.any((got > 0.0) & (got < 1e-250))
    assert not np.any((got > 0.0) & (got < 1e-300))


def test_ratio_matrix_allocates_little_beyond_its_output():
    ctx = pc.lower_context(1, [0.5])
    zx, zt, wx, wt = _ratio_inputs(np.random.default_rng(3), ctx, 3000, 1000, "shuffled")
    tracemalloc.start()
    try:
        out = kernel_ratio_matrix(zx, zt, wx, wt, ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.any(out)
    assert peak <= out.nbytes + 4 * 2**20


@pytest.mark.parametrize("make", [pc.lower_context, pc.upper_context])
def test_pole_context_coordinates(make):
    ctx = make(2, [0.4, -0.7])
    sgn = 1.0 if ctx.is_upper else -1.0
    ts = sgn * np.array([0.3, 1.0, 2.5])
    # native time carries the half-space onto the lower one and is an involution
    assert np.all(ctx.native_time(ts) < 0.0)
    assert np.allclose(ctx.native_time(ctx.native_time(ts)), ts, rtol=1e-15)
    # the axis passes through every heat-ball center
    for t in ts:
        assert np.array_equal(ctx.axis([t])[0], pc.HeatBall(ctx, t, 1.0).center.x)
    # carry is where the literal kernel ratio from a source peaks later on
    src_t, later = (2.0, 2.5) if ctx.is_upper else (-2.0, -0.5)
    src = pc.point([0.2, 0.5], src_t)
    peak = ctx.carry(src.x[None, :], src.t, later)[0]

    def ratio(x):
        z = pc.point(x, later)
        lw = log_pole_weight(z.x[None, :], np.array([z.t]), ctx)[0]
        lws = log_pole_weight_star(src.x[None, :], np.array([src.t]), ctx)[0]
        return pc.heat_kernel(z, src) * np.exp(-lw - lws)

    top = ratio(peak)
    for e in np.eye(2):
        for h in (1e-3, -1e-3, 0.1, -0.1):
            assert ratio(peak + h * e) < top


def test_bridge_increment_exponent_identity():
    rng = np.random.default_rng(100)
    for dim in (1, 2, 3):
        x = rng.normal(size=(2000, dim))
        y = rng.normal(size=(2000, dim))
        t = rng.uniform(0.3, 3.0, 2000)
        tau = rng.uniform(0.05, 1.0, 2000) * (t - 0.2) / 3.0
        lhs = np.sum((tau[:, None] * x - t[:, None] * y) ** 2, axis=1) / (
            4 * t * tau * (t - tau)
        ) - np.sum(y**2, axis=1) / (4 * tau)
        rhs = np.sum((x - y) ** 2, axis=1) / (4 * (t - tau)) - np.sum(
            x**2, axis=1
        ) / (4 * t)
        rel = np.abs(lhs - rhs) / np.maximum.reduce([np.ones_like(lhs), np.abs(lhs), np.abs(rhs)])
        assert float(np.max(rel)) < 1e-12


def test_heat_operator_fd_calibration():
    z = pc.point([0.4, -0.2], 0.9)
    # plainly caloric fields
    f_kernel = lambda xs, ts: np.exp(pc.kernel.log_heat_kernel(np.sum(xs**2, axis=1), ts, 2))
    assert abs(pc.heat_operator_fd(f_kernel, z)) < 1e-8
    f_poly = lambda xs, ts: np.sum(xs**2, axis=1) + 2 * 2 * ts
    assert abs(pc.heat_operator_fd(f_poly, z)) < 1e-7
    assert pc.heat_operator_fd(lambda xs, ts: ts, z) == pytest.approx(1.0, abs=1e-10)


def test_heat_operator_fd_pole_functions_are_caloric():
    up = pc.upper_context(2, [0.3, 0.3])
    lo = up.mirror()
    zu = pc.point([0.5, -0.2], 0.7)
    zl = pc.point([0.5, -0.2], -0.7)
    f_up = lambda xs, ts: np.exp(pc.kernel.log_pole_weight(xs, ts, up))
    f_lo = lambda xs, ts: np.exp(pc.kernel.log_pole_weight(xs, ts, lo))
    r_coarse = abs(pc.heat_operator_fd(f_up, zu, step=2e-2, richardson=False))
    r_fine = abs(pc.heat_operator_fd(f_up, zu, step=1e-2, richardson=False))
    assert r_fine < r_coarse and r_fine < 1e-4
    r_coarse = abs(pc.heat_operator_fd(f_lo, zl, step=2e-2, richardson=False))
    r_fine = abs(pc.heat_operator_fd(f_lo, zl, step=1e-2, richardson=False))
    assert r_fine <= r_coarse + 1e-12 and r_fine < 1e-4


def test_heat_operator_fd_second_order():
    # quartic heat polynomial: plain central differences decay like step^2
    f = lambda xs, ts: xs[:, 0] ** 6
    z = pc.point([1.1], 0.5)
    e1 = abs(pc.heat_operator_fd(f, z, step=4e-2, richardson=False) + 30 * 1.1**4)
    e2 = abs(pc.heat_operator_fd(f, z, step=2e-2, richardson=False) + 30 * 1.1**4)
    assert e2 < e1 / 3.0


def test_heat_operator_fd_halfspace_guard():
    up = pc.upper_context(1)
    with pytest.raises(DomainError):
        pc.heat_operator_fd(lambda xs, ts: ts, pc.point([0.0], 1e-6), step=1e-3, ctx=up)
