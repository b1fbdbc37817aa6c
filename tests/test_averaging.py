from dataclasses import replace

import numpy as np
import pytest

import parcap as pc
from parcap.appell import appell_map_arrays
from parcap.averaging import (
    GapResult,
    PreconditionError,
    QuadratureError,
    QuadratureSpec,
    _COARSE,
    _rho_weight_raw,
    harnack_check,
    mean_value,
    phi,
    phi_prime,
    subparabolic_gap,
)
from parcap.geometry import HeatBall
from parcap.kernel import log_pole_weight

# exact values derived by hand for the lower half-space with gamma = 0, N = 1:
# the raw rho^2 / (t - t0)^2 ball integral of 1 is 8 sqrt(pi c), and for the
# field u = t - t0 the scale functional equals -(8 sqrt(pi) / 3^(5/2)) c
RAW_CONST = lambda c: 8.0 * np.sqrt(np.pi * c)
PHI_SLOPE = -8.0 * np.sqrt(np.pi) / 3.0**2.5


def _over_weight(ctx, v):
    """u = v / weight with its center value, for a caloric polynomial v."""
    g = ctx.gamma

    def u(xs, ts):
        return v(xs, ts) / np.exp(log_pole_weight(xs, ts, ctx))

    def center_value(t0):
        xc = g if ctx.is_upper else -2.0 * t0 * g
        return float(u(xc[None, :], np.array([t0]))[0])

    return u, center_value


def caloric_over_weight(ctx):
    """Pole-weighted caloric test field with a closed-form center value."""
    g = ctx.gamma
    return _over_weight(ctx, lambda xs, ts: np.sum((xs - g) ** 2, axis=1) + 2.0 * ctx.dim * ts)


def caloric_mixed(ctx):
    def v(xs, ts):
        s = xs[:, 0] - ctx.gamma[0]
        return s * s + 2.0 * ts + s

    return _over_weight(ctx, v)


def test_raw_ball_integral_against_closed_form():
    lo = pc.lower_context(1)
    for c in (0.7, 1.0, 2.3):
        ball = HeatBall(lo, -0.25, c)
        raw = _rho_weight_raw(lambda xs, ts: 1.0, ball, _COARSE)
        assert raw == pytest.approx(RAW_CONST(c), rel=1e-3)


def test_phi_of_zero_field():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 1.0)
    res = phi(lambda xs, ts: 0.0, ball)
    assert res.value == 0.0 and res.error_estimate == 0.0


def test_phi_constant_in_scale_for_weighted_caloric_field():
    lo = pc.lower_context(1, [0.5])
    u, _ = caloric_over_weight(lo)
    a = phi(u, HeatBall(lo, -0.25, 0.5)).value
    b = phi(u, HeatBall(lo, -0.25, 1.0)).value
    assert a == pytest.approx(b, rel=2e-3)


def test_phi_linear_fixture_and_derivative():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 1.0)
    u = lambda xs, ts: ts - (-0.25)
    for c in (0.5, 1.0):
        assert phi(u, HeatBall(lo, -0.25, c)).value == pytest.approx(PHI_SLOPE * c, rel=1e-4)
    pp = phi_prime(u, ball, hu_operator=lambda xs, ts: 1.0)
    assert pp.value == pytest.approx(PHI_SLOPE, rel=1e-6)
    ppf = phi_prime(u, ball)  # finite-difference operator probe
    assert ppf.value == pytest.approx(PHI_SLOPE, rel=1e-6)


def test_phi_prime_matches_scale_difference_quotient():
    for ctx in (pc.lower_context(1), pc.upper_context(1, [0.3])):
        t0 = -0.25 if not ctx.is_upper else 1.0
        ball = HeatBall(ctx, t0, 1.0)
        u = lambda xs, ts: ts
        pp = phi_prime(u, ball, hu_operator=lambda xs, ts: 1.0)
        h = 0.02
        fd = (
            phi(u, HeatBall(ctx, t0, 1.0 + h)).value
            - phi(u, HeatBall(ctx, t0, 1.0 - h)).value
        ) / (2 * h)
        assert pp.value == pytest.approx(fd, rel=1e-3)


def test_phi_prime_vanishes_for_weighted_caloric_field():
    up = pc.upper_context(1, [0.2])
    ball = HeatBall(up, 1.0, 1.0)
    res = phi_prime(lambda xs, ts: 1.0, ball)
    assert abs(res.value) < 1e-6


@pytest.mark.parametrize("gamma", [0.0, 1.0])
@pytest.mark.parametrize("side", ["upper", "lower"])
def test_mean_value_identity(side, gamma):
    ctx = pc.upper_context(1, [gamma]) if side == "upper" else pc.lower_context(1, [gamma])
    t0 = 1.0 if side == "upper" else -0.25
    ball = HeatBall(ctx, t0, 1.0)
    fixtures = [(lambda xs, ts: 1.0, lambda _: 1.0), caloric_over_weight(ctx), caloric_mixed(ctx)]
    for u, center_value in fixtures:
        got = mean_value(u, ball)
        want = center_value(t0)
        assert abs(got - want) <= 1e-3 * (1.0 + abs(want))


def test_quadrature_error_raises_with_partial_value():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 1.0)
    spec = QuadratureSpec(tol=1e-14)
    with pytest.raises(QuadratureError) as err:
        mean_value(lambda xs, ts: 1.0, ball, quad=spec)
    assert err.value.partial == pytest.approx(RAW_CONST(1.0), rel=1e-3)


def test_subparabolic_gap_weighted_caloric_field_is_flat():
    lo = pc.lower_context(1, [0.4])
    ball = HeatBall(lo, -0.25, 0.5)
    u, _ = caloric_over_weight(lo)
    res = subparabolic_gap(u, ball, precheck_tol=1e-4)
    assert abs(res.rhs) < 1e-6
    assert res.lhs >= -2e-3 * (1 + abs(phi(u, ball).value))


def test_subparabolic_gap_strict_fixture_constant_stable():
    lo = pc.lower_context(1)
    u = lambda xs, ts: -(ts + 0.25)
    fitted = []
    for c in (0.25, 0.5, 1.0):
        res = subparabolic_gap(u, HeatBall(lo, -0.25, c), hu_operator=lambda xs, ts: -1.0)
        assert res.lhs > 0.0 and res.rhs > 0.0
        fitted.append(res.fitted_constant)
    assert max(fitted) <= 10.0 * min(fitted)
    assert min(fitted) > 0.0


def test_subparabolic_gap_bump_potential_fixture():
    # field = minus the potential of a smooth bump measure; the weighted heat
    # operator is minus the bump density, so the mass side is exact
    lo = pc.lower_context(1)
    t0, c = -0.25, 1.0
    ball = HeatBall(lo, t0, c)
    sigma = 0.15
    tau_a, tau_b = t0 - 0.45 * c, t0 - 0.2 * c

    def psi(tau):  # smooth normalized bump in time
        s = (tau - tau_a) / (tau_b - tau_a)
        inside = (s > 0) & (s < 1)
        out = np.zeros(s.shape)
        si = s[inside]
        out[inside] = np.exp(-1.0 / (si * (1 - si))) * np.exp(4.0)
        return out

    qs = tau_a + (np.arange(48) + 0.5) * (tau_b - tau_a) / 48.0
    wq = np.full(qs.shape, (tau_b - tau_a) / 48.0)
    psi_total = float(np.sum(psi(qs) * wq))

    def u(xs, ts):  # exact spatial convolution leaves a smooth time integral
        lag = ts[:, None] - qs[None, :]
        live = lag > 0
        var = sigma**2 + 2.0 * np.where(live, lag, 0.0)
        terms = wq * psi(qs) * np.exp(-xs[:, :1] ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
        return -np.sum(np.where(live, terms, 0.0), axis=1)

    def hu_op(xs, ts):  # minus the bump density
        return -psi(ts) * np.exp(-xs[:, 0] ** 2 / (2 * sigma**2)) / np.sqrt(2 * np.pi * sigma**2)

    res = subparabolic_gap(u, ball, hu_operator=hu_op)
    assert res.lhs > 0.0 and res.rhs > 0.0
    # mass side equals the bump mass inside the half-scale ball; the spatial
    # part reduces to an error function, leaving a smooth one-dimensional
    # oracle integral
    from scipy.special import erf

    half = HeatBall(lo, t0, 0.5 * c)
    taus = np.linspace(tau_a, tau_b, 4001)
    radii = half.radius(taus)
    vals = psi(taus) * erf(radii / (sigma * np.sqrt(2.0)))
    oracle = float(np.trapezoid(vals, taus)) / np.sqrt(c)
    assert res.rhs == pytest.approx(oracle, rel=0.05)
    assert res.rhs <= psi_total / np.sqrt(c) * 1.001
    assert res.fitted_constant > 0.0


def test_subparabolic_gap_precondition():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 0.5)
    with pytest.raises(PreconditionError) as err:
        subparabolic_gap(lambda xs, ts: (ts + 0.25), ball)
    assert err.value.where.t < -0.25


def test_harnack_constant_field_and_sources():
    for ctx in (pc.lower_context(1), pc.upper_context(1, [0.4])):
        t0 = -0.25 if not ctx.is_upper else 1.0
        res = harnack_check(lambda xs, ts: 1.0, HeatBall(ctx, t0, 1.0))
        assert res.average == pytest.approx(1.0, rel=1e-12)
        assert res.infimum == pytest.approx(1.0, rel=1e-12)
        assert res.ratio == pytest.approx(1.0, rel=1e-12)

        ratios = []
        for c in (0.5, 1.0, 2.0):
            big = HeatBall(ctx, t0, 2.0 * 2.0)
            lo_t, _ = big.time_window
            src_t = 0.5 * lo_t if ctx.is_upper else lo_t - 1.0
            src_x = big.axis(np.array([src_t]))[0] + 0.2
            u = lambda xs, ts: pc.kernel_ratio_matrix(xs, ts, src_x[None, :], [src_t], ctx)[:, 0]
            r = harnack_check(u, HeatBall(ctx, t0, c))
            assert np.isfinite(r.ratio) and r.ratio > 0
            ratios.append(r.ratio)
        assert max(ratios) <= 50.0
        assert max(ratios) <= 5.0 * min(ratios)


def test_harnack_negative_field_rejected():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 1.0)
    with pytest.raises(PreconditionError):
        harnack_check(lambda xs, ts: -1.0, ball)


def _pulled(f, divide_by_4tau2=False):
    """f on the upper side read at the backward images of lower points."""

    def g(xs, ts):
        vals = f(*appell_map_arrays(xs, ts, pc.AppellDirection.BACKWARD))
        return vals / (4.0 * ts * ts) if divide_by_4tau2 else vals

    return g


HU_UP = lambda xs, ts: -(1.0 + xs[:, 0] ** 2) * ts  # negative on the upper side

# each functional as a tuple of floats, from (field, ball, operator)
TRANSPORTED = {
    "phi": lambda u, ball, hu: (phi(u, ball).value,),
    "mean_value": lambda u, ball, hu: (mean_value(u, ball),),
    "phi_prime_operator": lambda u, ball, hu: (phi_prime(u, ball, hu_operator=hu).value,),
    "phi_prime_residual": lambda u, ball, hu: (phi_prime(u, ball).value,),
    "subparabolic_gap": lambda u, ball, hu: tuple(
        vars(subparabolic_gap(u, replace(ball, scale=0.5), hu_operator=hu)).values()
    ),
    "harnack_check": lambda u, ball, hu: tuple(vars(harnack_check(u, ball)).values()),
}


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("functional", sorted(TRANSPORTED))
def test_scale_functional_transports_across_halfspaces(functional, dim):
    # every upper functional is the lower one of the pulled-back field (and
    # operator over 4 tau^2) on the image ball, with the same scale
    up = pc.upper_context(dim, [0.6, -0.3][:dim])
    u_up = lambda xs, ts: 2.0 + xs[:, 0] + ts  # smooth and positive near the balls
    ball_up = HeatBall(up, 1.0, 1.0)
    ball_lo = ball_up.appell_image()
    f = TRANSPORTED[functional]
    a = f(u_up, ball_up, HU_UP)
    b = f(_pulled(u_up), ball_lo, _pulled(HU_UP, divide_by_4tau2=True))
    assert np.allclose(a, b, rtol=1e-12, atol=0.0), (a, b)


def test_mean_value_makes_one_field_call_per_time_segment():
    lo = pc.lower_context(1, [0.5])
    ball = HeatBall(lo, -0.25, 1.0)
    u, center_value = caloric_over_weight(lo)
    sizes = []

    def counted(xs, ts):
        sizes.append(ts.shape[0])
        return u(xs, ts)

    got = mean_value(counted, ball)
    want = center_value(-0.25)
    assert abs(got - want) <= 1e-3 * (1.0 + abs(want))
    # one call per time segment of the two passes, plus each pass's cap base
    assert len(sizes) <= 100
    assert max(sizes) > 1


def test_field_of_wrong_shape_raises():
    lo = pc.lower_context(1)
    ball = HeatBall(lo, -0.25, 1.0)
    # a scalar-style field: x[0] is the first row of xs, shape (1,)
    with pytest.raises(ValueError, match="shape"):
        mean_value(lambda x, t: x[0], ball)
