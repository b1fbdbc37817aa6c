"""Closed forms the benchmark checks parcap's outputs against.

Nothing here imports parcap: each quantity is written out again from its
definition, so a fault in parcap's own kernel, geometry, fixtures or sampler
cannot hide behind the same fault in the check.

Conventions follow the paper's two half-spaces.  Upper (t > 0): pole weight
h(x, t) = F(x - gamma, t) and adjoint h*(x, t) = (pi/t)^(N/2) exp(|x - gamma|^2 / 4t).
Lower (t < 0): h~(x, t) = exp(<x, gamma> + |gamma|^2 t), adjoint h~* = 1 / h~.
"""

from __future__ import annotations

import math

import numpy as np


def log_heat_kernel(sq_dist, dt, dim):
    """log F for the Gaussian fundamental solution; -inf where dt <= 0."""
    sq_dist = np.asarray(sq_dist, dtype=float)
    dt = np.asarray(dt, dtype=float)
    safe = np.where(dt > 0.0, dt, 1.0)
    val = -0.5 * dim * np.log(4.0 * math.pi * safe) - sq_dist / (4.0 * safe)
    return np.where(dt > 0.0, val, -np.inf)


def log_weight(xs, ts, gamma, upper):
    """log h (upper) or log h~ (lower) at points (xs[i], ts[i])."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    g = np.asarray(gamma, dtype=float)
    if upper:
        return log_heat_kernel(np.sum((xs - g) ** 2, axis=1), ts, xs.shape[1])
    return xs @ g + float(g @ g) * ts


def log_weight_star(xs, ts, gamma, upper):
    """log h* (upper) or log h~* (lower) at points (xs[i], ts[i])."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    g = np.asarray(gamma, dtype=float)
    if upper:
        n = xs.shape[1]
        return 0.5 * n * np.log(math.pi / ts) + np.sum((xs - g) ** 2, axis=1) / (4.0 * ts)
    return -(xs @ g) - float(g @ g) * ts


def kernel(zx, zt, wx, wt, gamma, upper):
    """Matrix F(z - w) / (weight(z) weight*(w)), rows z and columns w, in log space."""
    zx = np.atleast_2d(np.asarray(zx, dtype=float))
    wx = np.atleast_2d(np.asarray(wx, dtype=float))
    zt = np.asarray(zt, dtype=float).reshape(-1)
    wt = np.asarray(wt, dtype=float).reshape(-1)
    sq = np.sum((zx[:, None, :] - wx[None, :, :]) ** 2, axis=2)
    log_f = log_heat_kernel(sq, zt[:, None] - wt[None, :], zx.shape[1])
    log_r = (
        log_f
        - log_weight(zx, zt, gamma, upper)[:, None]
        - log_weight_star(wx, wt, gamma, upper)[None, :]
    )
    return np.exp(log_r)


def potential(xs, ts, masses, gamma, upper):
    """Normalized potential of the measure sum m_j delta_(x_j, t_j) at its own atoms."""
    return kernel(xs, ts, xs, ts, gamma, upper) @ np.asarray(masses, dtype=float)


# ---------------------------------------------------------------------------
# heat balls and shells
# ---------------------------------------------------------------------------

def center_time(upper):
    """parcap's canonical center times: t0 = 1 above, -1/4 below."""
    return 1.0 if upper else -0.25


def window(t0, c, upper):
    """Time window of the heat ball of scale c centered at time t0."""
    if upper:
        return (t0 / (1.0 + 4.0 * t0 * c), t0)
    return (t0 - c, t0)


def axis(ts, t0, gamma, upper):
    """Section centers: gamma above, -2 t gamma below (the center sits on it)."""
    ts = np.asarray(ts, dtype=float).reshape(-1)
    g = np.asarray(gamma, dtype=float)
    if upper:
        return np.broadcast_to(g, (ts.shape[0], g.shape[0]))
    return -2.0 * ts[:, None] * g


def radius_sq(ts, t0, c, dim, upper):
    """Squared section radius of the ball where the ratio equals (4 pi c)^(-N/2).

    Above: (2N/t0) t (t0 - t) log(4 t t0 c / (t0 - t)); below: 2N s log(c / s)
    with s = t0 - t.  Zero outside the open window.
    """
    ts = np.asarray(ts, dtype=float).reshape(-1)
    lo, hi = window(t0, c, upper)
    inside = (ts > lo) & (ts < hi)
    t = np.where(inside, ts, 0.5 * (lo + hi))
    if upper:
        val = (2.0 * dim / t0) * t * (t0 - t) * np.log(4.0 * t * t0 * c / (t0 - t))
    else:
        s = t0 - t
        val = 2.0 * dim * s * np.log(c / s)
    return np.where(inside, np.maximum(val, 0.0), 0.0)


def in_dyadic_shell(xs, ts, n, gamma, upper, rel=1e-9):
    """Closed membership in the shell between scales 2^(n-1) and 2^n.

    ``rel`` widens the band by a relative margin so a node on the boundary
    is not rejected by rounding.
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    t0 = center_time(upper)
    dim = xs.shape[1]
    lo, hi = window(t0, 2.0**n, upper)
    span = hi - lo
    in_window = (ts >= lo - rel * span) & (ts <= hi + rel * span)
    d2 = np.sum((xs - axis(ts, t0, gamma, upper)) ** 2, axis=1)
    r_out = radius_sq(ts, t0, 2.0**n, dim, upper)
    r_in = radius_sq(ts, t0, 2.0 ** (n - 1), dim, upper)
    return in_window & (d2 <= r_out * (1.0 + rel) + rel) & (d2 >= r_in * (1.0 - rel) - rel)


# ---------------------------------------------------------------------------
# caloric fixtures
# ---------------------------------------------------------------------------

def fixture_caloric(kind, x, t, gamma):
    """The caloric v of parcap's named fixtures u = v / weight.

    caloric_quadratic: v = |x - gamma|^2 + 2 N t;  caloric_mixed: v = s^2 + 2t + s
    with s = x_1 - gamma_1.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if kind == "caloric_quadratic":
        return float(np.sum((x - g) ** 2)) + 2.0 * g.shape[0] * t
    if kind == "caloric_mixed":
        s = float(x[0] - g[0])
        return s * s + 2.0 * t + s
    raise ValueError(f"no closed form for fixture {kind!r}")


def fixture_center_value(kind, t0, gamma, upper):
    """u = v / weight at the heat-ball center (gamma, t0) above, (-2 t0 gamma, t0) below."""
    g = np.asarray(gamma, dtype=float)
    xc = g if upper else -2.0 * t0 * g
    v = fixture_caloric(kind, xc, t0, g)
    return v / math.exp(float(log_weight(xc[None, :], [t0], g, upper)[0]))


# ---------------------------------------------------------------------------
# the conditioned process
# ---------------------------------------------------------------------------

def marginal(x0, t0, t, gamma, upper):
    """Mean vector and per-coordinate standard deviation of X_t given X_t0 = x0.

    Above, the process is the Brownian bridge to the pole (gamma, 0) run down
    from t0; below, Brownian motion with drift 2 gamma per unit of elapsed
    downward time.  Both laws are Gaussian for any pair of times.
    """
    x0 = np.asarray(x0, dtype=float)
    g = np.asarray(gamma, dtype=float)
    if upper:
        return g + (x0 - g) * (t / t0), math.sqrt(2.0 * t * (t0 - t) / t0)
    return x0 + 2.0 * g * (t0 - t), math.sqrt(2.0 * (t0 - t))


def normal_cdf(z):
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def geometric_grid(t_start, t_end, ratio, upper):
    """Grid times t_start ratio^k above (t_start / ratio^k below), down to t_end."""
    if upper:
        k = math.ceil(math.log(t_end / t_start) / math.log(ratio))
        return t_start * ratio ** np.arange(k + 1)
    k = math.ceil(math.log(t_end / t_start) / math.log(1.0 / ratio))
    return t_start / ratio ** np.arange(k + 1)
