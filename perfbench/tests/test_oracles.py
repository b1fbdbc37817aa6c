"""The benchmark's closed forms against textbook identities."""

import math

import numpy as np
import pytest

import oracles

RNG = np.random.default_rng(20240601)


def heat_residual(f, x, t, h=1e-4):
    """(d/dt - Laplacian) f at (x, t) by central differences."""
    x = np.asarray(x, dtype=float)
    ft = (f(x, t + h) - f(x, t - h)) / (2.0 * h)
    lap = 0.0
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        lap += (f(x + e, t) - 2.0 * f(x, t) + f(x - e, t)) / (h * h)
    return ft - lap


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pole_weight_times_adjoint_is_2t_to_minus_n(dim):
    g = RNG.normal(size=dim)
    xs = RNG.normal(size=(50, dim))
    ts = RNG.uniform(0.05, 3.0, 50)
    prod = np.exp(oracles.log_weight(xs, ts, g, True) + oracles.log_weight_star(xs, ts, g, True))
    assert np.allclose(prod, (2.0 * ts) ** (-dim), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_drift_weight_times_adjoint_is_one(dim):
    g = RNG.normal(size=dim)
    xs = RNG.normal(size=(50, dim))
    ts = -RNG.uniform(0.05, 3.0, 50)
    prod = np.exp(oracles.log_weight(xs, ts, g, False) + oracles.log_weight_star(xs, ts, g, False))
    assert np.allclose(prod, 1.0, rtol=1e-12)


def test_heat_kernel_has_unit_mass_and_vanishes_backward():
    x = np.linspace(-40.0, 40.0, 200_001)
    for t in (0.1, 1.0, 7.0):
        f = np.exp(oracles.log_heat_kernel(x**2, t, 1))
        assert np.trapezoid(f, x) == pytest.approx(1.0, rel=1e-10)
    assert np.all(oracles.log_heat_kernel(np.ones(3), np.array([0.0, -1.0, -5.0]), 2) == -np.inf)


@pytest.mark.parametrize("upper", [True, False])
def test_pole_weights_are_caloric(upper):
    g = np.array([0.4, -0.7])
    t = 0.8 if upper else -0.8

    def w(x, tt):
        return math.exp(float(oracles.log_weight(x[None, :], [tt], g, upper)[0]))

    x = np.array([0.3, 0.1])
    assert abs(heat_residual(w, x, t)) <= 1e-5 * w(x, t)


@pytest.mark.parametrize("kind", ["caloric_quadratic", "caloric_mixed"])
def test_fixtures_are_caloric(kind):
    g = np.array([0.5, -0.3])
    for x, t in ((np.array([0.2, 1.1]), 0.7), (np.array([-1.0, 0.4]), -2.0)):
        v = lambda xx, tt: oracles.fixture_caloric(kind, xx, tt, g)
        assert abs(heat_residual(v, x, t)) <= 1e-5


def test_center_values_in_closed_form():
    g = np.array([0.5, -0.3])
    gg = float(g @ g)
    # above, v = 2N t0 at the center and h = (4 pi t0)^(-N/2)
    assert oracles.fixture_center_value("caloric_quadratic", 1.0, g, True) == pytest.approx(
        4.0 * (4.0 * math.pi), rel=1e-14)
    # below, the center is -2 t0 gamma and h~ there is exp(-t0 |gamma|^2)
    t0 = -0.25
    v = gg * (1.0 + 2.0 * t0) ** 2 + 4.0 * t0
    assert oracles.fixture_center_value("caloric_quadratic", t0, g, False) == pytest.approx(
        v * math.exp(t0 * gg), rel=1e-14)


@pytest.mark.parametrize("upper", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
def test_ball_boundary_is_the_kernel_level_set(upper, dim):
    """The closed-form radius puts the kernel ratio from the center at (4 pi c)^(-N/2)."""
    g = RNG.uniform(-0.8, 0.8, dim)
    t0 = oracles.center_time(upper)
    c = 3.0
    lo, hi = oracles.window(t0, c, upper)
    ts = lo + (hi - lo) * np.array([0.1, 0.4, 0.7, 0.95])
    r = np.sqrt(oracles.radius_sq(ts, t0, c, dim, upper))
    d = RNG.normal(size=(ts.shape[0], dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    ws = oracles.axis(ts, t0, g, upper) + r[:, None] * d
    center = (g if upper else -2.0 * t0 * g)[None, :]
    ratio = oracles.kernel(center, [t0], ws, ts, g, upper)[0]
    assert np.allclose(ratio, (4.0 * math.pi * c) ** (-0.5 * dim), rtol=1e-10)


@pytest.mark.parametrize("upper", [True, False])
def test_shell_membership_follows_the_radii(upper):
    g = [0.5]
    n = 3
    t0 = oracles.center_time(upper)
    lo, hi = oracles.window(t0, 2.0 ** (n - 1), upper)
    t = np.array([0.5 * (lo + hi)])
    r_in = math.sqrt(oracles.radius_sq(t, t0, 2.0 ** (n - 1), 1, upper)[0])
    r_out = math.sqrt(oracles.radius_sq(t, t0, 2.0**n, 1, upper)[0])
    a = float(oracles.axis(t, t0, g, upper)[0, 0])
    inside = oracles.in_dyadic_shell([[a + 0.5 * (r_in + r_out)]], t, n, g, upper)
    hole = oracles.in_dyadic_shell([[a + 0.5 * r_in]], t, n, g, upper)
    beyond = oracles.in_dyadic_shell([[a + 1.01 * r_out]], t, n, g, upper)
    assert inside[0] and not hole[0] and not beyond[0]


@pytest.mark.parametrize("upper", [True, False])
def test_marginals_compose(upper):
    """Chapman-Kolmogorov: t0 -> t1 -> t2 in two Gaussian steps is the t0 -> t2 law."""
    g = np.array([0.7])
    x0 = np.array([1.3])
    t0, t1, t2 = (1.0, 0.3, 0.02) if upper else (-1.0, -4.0, -30.0)
    m1, s1 = oracles.marginal(x0, t0, t1, g, upper)
    m2, s2 = oracles.marginal(m1, t1, t2, g, upper)
    slope = t2 / t1 if upper else 1.0
    m02, s02 = oracles.marginal(x0, t0, t2, g, upper)
    assert np.allclose(m2, m02, rtol=1e-14)
    assert math.hypot(s2, slope * s1) == pytest.approx(s02, rel=1e-12)


def test_normal_cdf_and_grids():
    assert oracles.normal_cdf(0.0) == 0.5
    assert oracles.normal_cdf(1.959963984540054) == pytest.approx(0.975, rel=1e-12)
    lower = oracles.geometric_grid(-1.0, -3000.0, 0.9, False)
    assert lower.shape[0] == 77 and lower[-1] <= -3000.0 < lower[-2]
    upper = oracles.geometric_grid(1.0, 2.5e-4, 0.9, True)
    assert upper[-1] <= 2.5e-4 < upper[-2]
