"""Heat-ball averaging: the mean-value identity, its scale derivative, the
sub-caloric gap inequality and a two-sided Harnack-type check.

Each functional takes the field and the HeatBall it integrates over, whose
context, time center and scale fix the half-space, the center and c.  All
functionals integrate over heat balls with a weight carrying a vertex
singularity |t - t_center|^(-2) softened by the squared distance to the
section axis.  Quadrature is slice-wise: Gauss-Legendre in time over a
dyadically graded mesh accumulating at both window ends, Gauss-Legendre in
radius across each section, and an equal-measure direction grid.  A small
vertex cap is excluded and its contribution is estimated semi-analytically
(the geometric factor is a one-dimensional integral of the closed-form
section radius; the field is frozen at the cap base).  Every public value is
the fine one of two fixed passes, a coarse and a fine rule; their difference
is its error estimate, and an estimate above QuadratureSpec.tol (or NaN)
raises with the partial value attached.

Every functional is computed in the lower half-space: an upper call is the
lower one of the field pulled back through the exchange map (Appell's
transformation) on the image ball, which has the same scale.

Normalization constants are pinned by the u = 1 identity: a weighted-mean of
any pole-weighted caloric function over a ball must reproduce its center
value, and the constant-field case fixes the constants.  The scale
derivative was cross-checked against closed-form fixtures and a finite
difference of the mean functional; both fix the scale exponent at
(N + 2) / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .appell import AppellDirection, appell_map_arrays
from .geometry import HeatBall, Resolution, sphere_directions
from .kernel import (
    Field,
    SpaceTimePoint,
    fd_step,
    field_values,
    heat_operator_fd_batch,
    log_pole_weight,
    point,
)

__all__ = [
    "QuadratureSpec",
    "QuadratureError",
    "PreconditionError",
    "QuadResult",
    "GapResult",
    "HarnackResult",
    "phi",
    "phi_prime",
    "mean_value",
    "subparabolic_gap",
    "harnack_check",
    "weighted_heat_residual",
    "check_weighted_ball",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """The tolerance of ball quadrature: the relative error estimated from a
    coarse and a fine pass must come in under tol, else the operation
    raises."""

    tol: float = 1e-3

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


class _Rule(NamedTuple):
    """Slice counts and grading of one quadrature pass."""

    gauss: int            # Gauss-Legendre points per time segment
    radial: int           # Gauss-Legendre points across a section
    base_levels: int      # dyadic grading depth toward the far window end
    cap_fraction: float   # relative height of the excluded vertex cap


_COARSE = _Rule(8, 12, 8, 1e-6)
_FINE = _Rule(10, 16, 10, 2.5e-7)
# the direction grid of every pass and of the Harnack slice
_DIRECTIONS = Resolution(base_angular=16, base_polar=8)


class QuadratureError(RuntimeError):
    """Quadrature failed its own error estimate; carries the partial value."""

    def __init__(self, message: str, partial: float, estimate: float):
        super().__init__(message)
        self.partial = partial
        self.estimate = estimate


class PreconditionError(ValueError):
    """A pointwise hypothesis failed; carries the offending sample point, in
    the lower half-space the check ran in (the image point of an upper call)."""

    def __init__(self, message: str, where: SpaceTimePoint):
        super().__init__(message)
        self.where = where


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class GapResult:
    lhs: float   # phi(2c) - phi(c)
    rhs: float   # the scaled sub-caloric mass term (constant-free)
    fitted_constant: float


@dataclass(frozen=True)
class HarnackResult:
    average: float
    infimum: float
    ratio: float


# ---------------------------------------------------------------------------
# ball quadrature engine
# ---------------------------------------------------------------------------

def _gauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


def _time_segments(ball: HeatBall, rule: _Rule):
    """Graded segments of the time window; the vertex cap is split off."""
    lo, hi = ball.time_window
    T = hi - lo
    half = 0.5 * T
    edges = [lo]
    for j in range(rule.base_levels, 0, -1):
        edges.append(lo + half * 2.0 ** (-j))
    edges.append(lo + half)
    jv = max(4, math.ceil(math.log2(1.0 / (2.0 * rule.cap_fraction))))
    for j in range(1, jv + 1):
        edges.append(hi - half * 2.0 ** (-j))
    cap_base = hi - half * 2.0 ** (-jv)
    segs = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    return segs, cap_base


def _ball_integral(
    ball: HeatBall,
    g: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    rule: _Rule,
) -> tuple[float, float]:
    """Integral over the ball of g(x, t, r, R_t) r^(N-1) dr dsigma dt.

    g takes the (M, N) points and the (M,) times, radii and section radii of
    one time segment's (gauss x radial x direction) grid and returns (M,)
    values.  Returns (value over the capped window, cap base time).
    """
    N = ball.dim
    dirs, wdir = sphere_directions(N, _DIRECTIONS)
    gx, gw = _gauss(rule.gauss)
    rx, rw = _gauss(rule.radial)
    segs, cap_base = _time_segments(ball, rule)

    total = 0.0
    for a, b in segs:
        width = b - a
        if width <= 0.0:
            continue
        t = a + width * gx
        R = ball.radius(t)
        live = R > 0.0
        t, R, tw = t[live], R[live], gw[live]
        if t.size == 0:
            continue
        rs = R[:, None] * rx[None, :]  # (T, K)
        xs = ball.axis(t)[:, None, None, :] + rs[:, :, None, None] * dirs[None, None, :, :]
        shape = xs.shape[:3]
        vals = g(
            xs.reshape(-1, N),
            np.broadcast_to(t[:, None, None], shape).reshape(-1),
            np.broadcast_to(rs[:, :, None], shape).reshape(-1),
            np.broadcast_to(R[:, None, None], shape).reshape(-1),
        ).reshape(shape)
        ring = vals @ wdir
        slices = np.sum(rw * rs ** (N - 1) * ring, axis=1)
        total += float(np.sum(tw * width * R * slices))
    return total, cap_base


def _sphere_area(dim: int) -> float:
    """|S^(N-1)| = 2 pi^(N/2) / Gamma(N/2)."""
    return 2.0 * math.pi ** (0.5 * dim) / math.gamma(0.5 * dim)


def _cap_geometric_factor(
    ball: HeatBall, k_of_t: Callable[[np.ndarray], np.ndarray], cap_base: float
) -> float:
    """Integral of k(t) |S^(N-1)| R(t)^(N+2) / (N+2) over the vertex cap."""
    N = ball.dim
    _, hi = ball.time_window
    h = hi - cap_base
    if h <= 0.0:
        return 0.0
    gx, gw = _gauss(6)
    # dyadic subcells toward the vertex handle the residual singularity
    j = np.arange(14)[:, None]
    b = hi - h * 2.0 ** (-j)
    width = (hi - h * 2.0 ** (-(j + 1))) - b
    t = b + width * gx
    R = ball.radius(t).reshape(t.shape)
    return float(np.sum(gw * width * k_of_t(t) * _sphere_area(N) * R ** (N + 2) / (N + 2)))


def _below(u: Field, ball: HeatBall, hu_operator=None):
    """The arguments themselves below; above, the field pulled back through
    the exchange map, the image ball and the pulled operator over 4 tau^2
    (the weighted heat operator's transfer identity)."""
    if not ball.ctx.is_upper:
        return u, ball, hu_operator
    back = lambda xs, ts: appell_map_arrays(xs, ts, AppellDirection.BACKWARD)
    pulled = lambda xs, ts: field_values(u, *back(xs, ts))
    op = lambda xs, ts: field_values(hu_operator, *back(xs, ts)) / (4.0 * ts * ts)
    return pulled, ball.appell_image(), op if hu_operator is not None else None


def _rho_weight_raw(u: Field, ball: HeatBall, rule: _Rule) -> float:
    """Raw integral of u rho^2 / (t - t0)^2 over a lower ball."""
    t0 = ball.time_center
    k = lambda t: 1.0 / (t - t0) ** 2

    def g(xs, ts, rs, Rs):
        return field_values(u, xs, ts) * rs * rs * k(ts)

    val, cap_base = _ball_integral(ball, g, rule)
    cap_t = np.array([cap_base])
    u_ref = field_values(u, ball.axis(cap_t), cap_t)[0]
    val += u_ref * _cap_geometric_factor(ball, k, cap_base)
    return val


# |t - t0| at the vertex cap's deepest node, over the window length, is
# above 2^-36 in either pass (_time_segments, _cap_geometric_factor)
_NEAREST = 2.0**-40


def check_weighted_ball(ball: HeatBall, lead: str) -> None:
    """Refuse, with a ValueError led by lead, a ball that HeatBall.check
    refuses or over which the weight rho^2 (t - t0)^-2 of _rho_weight_raw
    leaves the floats.  The weight is read on the ball below (the image ball
    above): there |t - t0| runs from the window length L down to more than
    L * _NEAREST, and rho^2 up to the peak squared radius R^2.  So L^2,
    (L * _NEAREST)^-2 and R^2 (L * _NEAREST)^-2 must be finite."""
    ball.check(lead)
    below = ball.appell_image() if ball.ctx.is_upper else ball
    lo, hi = below.time_window
    far = hi - lo
    near_sq = far * _NEAREST * far * _NEAREST
    if not (math.isfinite(far * far) and near_sq > 0.0
            and math.isfinite(below.peak_radius_sq / near_sq)):
        raise ValueError(f"{lead} gives the mean-value weight a range that floats cannot hold")


def _with_estimate(raw_fn, quad: QuadratureSpec, label: str) -> QuadResult:
    coarse = raw_fn(_COARSE)
    fine = raw_fn(_FINE)
    err = abs(fine - coarse)
    # a NaN estimate fails too
    if not err <= quad.tol * (abs(fine) + 1.0):
        raise QuadratureError(
            f"{label}: estimated error {err:.3e} above tolerance", fine, err
        )
    return QuadResult(fine, err)


# ---------------------------------------------------------------------------
# public functionals
# ---------------------------------------------------------------------------

def phi(u: Field, ball: HeatBall, quad: QuadratureSpec = QuadratureSpec()) -> QuadResult:
    """Scale functional: the normalized rho^2-weighted integral of u over
    the ball.

    Constant in the ball's scale exactly when u is pole-weighted caloric;
    its value then determines u at the center (see mean_value).
    """
    u, ball, _ = _below(u, ball)
    pref = ball.scale ** (-0.5 * ball.dim)
    res = _with_estimate(lambda r: _rho_weight_raw(u, ball, r), quad, "phi")
    return QuadResult(pref * res.value, pref * res.error_estimate)


def mean_value(u: Field, ball: HeatBall, quad: QuadratureSpec = QuadratureSpec()) -> float:
    """Weighted ball average reproducing u(ball.center) for pole-weighted
    caloric u.

    It is phi / (2^(N+2) pi^(N/2)), that is (2^(N+2) (pi c)^(N/2))^(-1) times
    the integral of u rho^2 / (t - t0)^2 over the lower ball; the power of
    two is the one the u = 1 test singles out.  An upper call is the lower
    one of the pulled-back field over the image ball.
    """
    N = ball.dim
    return phi(u, ball, quad).value / (2.0 ** (N + 2) * np.pi ** (0.5 * N))


def weighted_heat_residual(u: Field, ball: HeatBall) -> Field:
    """Probe of H[weight * u] / weight by finite differences, as a field.

    The step shrinks near the ball's time window so stencils stay in the
    smooth zone; pass an analytic operator instead wherever it is known.
    """
    ctx = ball.ctx

    def weighted(xs, ts):
        return np.exp(log_pole_weight(xs, ts, ctx)) * field_values(u, xs, ts)

    def q(xs, ts):
        h = fd_step(xs, ts)
        lo, hi = ball.time_window
        h = np.minimum(h, 0.2 * np.abs(hi - ts) + 1e-12)
        h = np.minimum(h, 0.2 * np.abs(ts - lo) + 1e-12)
        h = np.minimum(h, 0.2 * np.abs(ts))
        return heat_operator_fd_batch(weighted, xs, ts, h) / np.exp(
            log_pole_weight(xs, ts, ctx)
        )

    return q


def phi_prime(
    u: Field,
    ball: HeatBall,
    quad: QuadratureSpec = QuadratureSpec(),
    hu_operator: Optional[Field] = None,
) -> QuadResult:
    """Derivative of phi in the scale, as a bulk integral of the weighted
    heat operator against the section-gap weight (R^2 - rho^2)."""
    u, ball, hu_operator = _below(u, ball, hu_operator)
    N, c = ball.dim, ball.scale
    t0 = ball.time_center
    q = hu_operator if hu_operator is not None else weighted_heat_residual(u, ball)
    pref = N / (2.0 * c ** (0.5 * (N + 2)))

    def g(xs, ts, rs, Rs):
        return field_values(q, xs, ts) * (Rs * Rs - rs * rs) / (ts - t0)

    def raw(rule: _Rule) -> float:
        return _ball_integral(ball, g, rule)[0]

    res = _with_estimate(raw, quad, "phi_prime")
    return QuadResult(pref * res.value, pref * res.error_estimate)


def _sample_ball_points(ball: HeatBall, n_time=10, n_radial=4):
    """Deterministic interior sample grid of a ball, for precondition checks."""
    lo, hi = ball.time_window
    dirs, _ = sphere_directions(ball.dim, Resolution(base_angular=8, base_polar=4))
    fr = (np.arange(n_time) + 0.5) / n_time
    ts = lo + fr * (hi - lo)
    R = ball.radius(ts)
    ts, R = ts[R > 0], R[R > 0]
    rfrac = (np.arange(n_radial) + 0.5) / n_radial
    rs = rfrac[None, :] * R[:, None]
    pts = ball.axis(ts)[:, None, None, :] + rs[:, :, None, None] * dirs[None, None, :, :]
    pts_t = np.broadcast_to(ts[:, None, None], pts.shape[:3])
    return pts.reshape(-1, ball.dim), pts_t.reshape(-1)


def subparabolic_gap(
    u: Field,
    ball: HeatBall,
    quad: QuadratureSpec = QuadratureSpec(),
    hu_operator: Optional[Field] = None,
    precheck_tol: float = 1e-6,
) -> GapResult:
    """Both sides of the scale-gap inequality for sub-caloric weighted fields,
    between the ball and its double, with the mass term over its half.

    Requires H[weight * u] <= 0 across the double ball (checked by sampling;
    violations raise with the offending point).  The right side excludes the
    unknown universal constant; the fitted quotient lhs / rhs is returned so
    the constant can be tracked across fixtures.
    """
    u, ball, hu_operator = _below(u, ball, hu_operator)
    c = ball.scale
    big = replace(ball, scale=2.0 * c)
    q = hu_operator if hu_operator is not None else weighted_heat_residual(u, big)

    xs, ts = _sample_ball_points(big)
    vals = field_values(q, xs, ts)
    allowed = precheck_tol * (1.0 + float(np.max(np.abs(vals))) if vals.size else 1.0)
    if vals.size and float(np.max(vals)) > allowed:
        i = int(np.argmax(vals))
        raise PreconditionError(
            f"weighted heat operator positive ({vals[i]:.3e}) at a sample point",
            point(xs[i], ts[i]),
        )

    lhs = phi(u, big, quad).value - phi(u, ball, quad).value

    half = replace(ball, scale=0.5 * c)

    def g(xs, ts, rs, Rs):
        return -field_values(q, xs, ts)

    def raw(rule: _Rule) -> float:
        return _ball_integral(half, g, rule)[0]

    res = _with_estimate(raw, quad, "subparabolic_gap")
    rhs = res.value / c ** (0.5 * ball.dim)
    fitted = lhs / rhs if rhs > 0 else float("inf")
    return GapResult(lhs, rhs, fitted)


def _require_nonnegative(vals, xs, ts, message):
    """Raise at the first sample point with a negative field value."""
    neg = vals < 0
    if np.any(neg):
        i = int(np.argmax(neg))
        raise PreconditionError(message, point(xs[i], ts[i]))


def harnack_check(u: Field, ball: HeatBall) -> HarnackResult:
    """Bottom-slice average against the infimum over the inner 3c/4 ball.

    For nonnegative pole-weighted caloric fields on the truncated double ball
    the ratio is bounded by a constant depending only on the dimension, not
    on the scale; fixtures track the measured ratio across scales.
    """
    u, ball, _ = _below(u, ball)
    N, c = ball.dim, ball.scale
    t_s = ball.time_center - 1.5 * c
    r_s = 0.5 * math.sqrt(3.0 * N * c)
    slice_center = ball.axis([t_s])[0]

    dirs, wdir = sphere_directions(N, _DIRECTIONS)
    rx, rw = _gauss(_FINE.radial)
    r = r_s * rx
    xs = (slice_center + r[:, None, None] * dirs[None, :, :]).reshape(-1, N)
    ts = np.full(xs.shape[0], t_s)
    vals = field_values(u, xs, ts)
    _require_nonnegative(vals, xs, ts, "field is negative on the averaging slice")
    acc = float(np.sum((rw * r ** (N - 1))[:, None] * wdir[None, :] * vals.reshape(r.size, -1)))
    disk_measure = _sphere_area(N) * r_s**N / N
    average = acc * r_s / disk_measure

    inner = replace(ball, scale=0.75 * c)
    xs, ts = _sample_ball_points(inner, n_time=24, n_radial=8)
    vals = field_values(u, xs, ts)
    _require_nonnegative(vals, xs, ts, "field is negative inside the inner ball")
    inf_val = float(np.min(vals)) if vals.size else math.inf
    return HarnackResult(average, inf_val, average / inf_val if inf_val > 0 else math.inf)
