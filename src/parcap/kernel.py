"""Gaussian fundamental solution, pole functions and normalized kernel ratios.

Two dual settings share one API.  In the upper half-space (t > 0) the
distinguished boundary point is the space-time pole (gamma, 0) and the pole
function ``h`` is the fundamental solution centered there; its adjoint
companion ``h_star`` solves the backward equation.  In the lower half-space
(t < 0) the distinguished point is at infinity and the pole function is the
drift exponential ``h_tilde`` with adjoint ``h_tilde_star``.

The exchange (x, t) -> (x/2t, -1/4t) makes the upper setting the image of the
lower one, so the split between the two is a change of coordinates kept in
one place: ``PoleContext.axis`` (the pole axis), ``PoleContext.carry`` (the
line along which the kernel from a point peaks at later times) and
``PoleContext.native_time`` (-1/4t above, t below).  Every other module reads
these instead of restating the split.

The normalized ratio F(z - w) / (weight(z) * weight_star(w)) is the only
kernel the capacity machinery consumes.  It has one closed form, the plain
heat kernel applied to offsets from the pole axis in lower coordinates, with
a single non-positive exponent: naive evaluation would subtract exponents of
order |gamma|^2 * |t| and lose everything to cancellation.

All functions are pure; values are plain floats / ndarrays and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

__all__ = [
    "TIME_EPS",
    "DomainError",
    "DimensionMismatchError",
    "HalfSpace",
    "PoleContext",
    "SpaceTimePoint",
    "upper_context",
    "lower_context",
    "point",
    "heat_kernel",
    "log_heat_kernel",
    "h_pole",
    "h_star",
    "h_tilde",
    "h_tilde_star",
    "log_pole_weight",
    "log_pole_weight_star",
    "kernel_ratio",
    "kernel_ratio_matrix",
    "Field",
    "field_values",
    "heat_operator_fd",
    "heat_operator_fd_batch",
    "fd_step",
]

# Time gaps below TIME_EPS fall on the vanishing branch of the kernel; this
# removes the 0 * inf ambiguity on the diagonal.
TIME_EPS = 1e-14

# entries per block of kernel_ratio_matrix: its temporaries stay in cache
# and their size no longer grows with the matrix
KERNEL_BLOCK = 1 << 16


class DomainError(ValueError):
    """A point lies outside the half-space the operation is defined on."""


class DimensionMismatchError(ValueError):
    """Operands carry different space dimensions."""


class HalfSpace(Enum):
    UPPER = "upper"  # t > 0, pole at (gamma, 0)
    LOWER = "lower"  # t < 0, pole at infinity


@dataclass(frozen=True)
class PoleContext:
    """Ambient setting: space dimension, pole parameter gamma, half-space."""

    dim: int
    gamma: np.ndarray
    half_space: HalfSpace

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        g = np.asarray(self.gamma, dtype=float).reshape(-1)
        if g.shape != (self.dim,):
            raise DimensionMismatchError(
                f"gamma has shape {g.shape}, expected ({self.dim},)"
            )
        if not np.all(np.isfinite(g)):
            raise ValueError("gamma must be finite")
        g.flags.writeable = False
        object.__setattr__(self, "gamma", g)

    @property
    def is_upper(self) -> bool:
        return self.half_space is HalfSpace.UPPER

    def admits(self, t) -> np.ndarray:
        """Boolean mask: does time t lie strictly inside the half-space."""
        t = np.asarray(t, dtype=float)
        return t > 0.0 if self.is_upper else t < 0.0

    def require(self, t: float) -> None:
        if not bool(self.admits(t)):
            side = "t > 0" if self.is_upper else "t < 0"
            raise DomainError(f"time {t} outside half-space ({side})")

    def mirror(self) -> "PoleContext":
        other = HalfSpace.LOWER if self.is_upper else HalfSpace.UPPER
        return PoleContext(self.dim, np.array(self.gamma), other)

    def axis(self, ts) -> np.ndarray:
        """Pole-axis points at times ts, shape (M, N): gamma above, -2 t gamma
        below.  Read-only above, where every row is gamma itself."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        if self.is_upper:
            return np.broadcast_to(self.gamma, (ts.shape[0], self.dim))
        return -2.0 * ts[:, None] * self.gamma

    def carry(self, xs, t, new_t) -> np.ndarray:
        """Where the kernel from a mass at (x, t) peaks at the later time new_t.

        Above, the peak continues the bridge line through the pole, scaling
        x - gamma by new_t / t; below, it drifts along -2 (new_t - t) gamma.
        Run to an earlier new_t, the same line is the mean of the conditioned
        process.  Times broadcast against the rows of xs.
        """
        g = self.gamma
        t = np.asarray(t, dtype=float)
        new_t = np.asarray(new_t, dtype=float)
        if self.is_upper:
            return g + (xs - g) * (new_t / t)[..., None]
        return xs - 2.0 * (new_t - t)[..., None] * g

    def native_time(self, t):
        """The time coordinate in which the half-space is the lower one:
        -1/(4t) above, t itself below.  The map is its own inverse."""
        return -1.0 / (4.0 * t) if self.is_upper else t


def upper_context(dim: int, gamma=None) -> PoleContext:
    g = np.zeros(dim) if gamma is None else gamma
    return PoleContext(dim, g, HalfSpace.UPPER)


def lower_context(dim: int, gamma=None) -> PoleContext:
    g = np.zeros(dim) if gamma is None else gamma
    return PoleContext(dim, g, HalfSpace.LOWER)


@dataclass(frozen=True)
class SpaceTimePoint:
    """A space-time point z = (x, t) with x in R^N."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        if x.ndim != 1:
            raise ValueError("x must be a vector")
        if not (np.all(np.isfinite(x)) and np.isfinite(self.t)):
            raise ValueError("point components must be finite")
        x.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "t", float(self.t))

    @property
    def dim(self) -> int:
        return self.x.shape[0]


def point(x, t) -> SpaceTimePoint:
    return SpaceTimePoint(np.atleast_1d(np.asarray(x, dtype=float)), float(t))


# ---------------------------------------------------------------------------
# fundamental solution
# ---------------------------------------------------------------------------

def log_heat_kernel(sq_dist, dt, dim: int) -> np.ndarray:
    """log F for squared distance and time gap arrays; -inf where dt <= eps."""
    sq_dist = np.asarray(sq_dist, dtype=float)
    dt = np.asarray(dt, dtype=float)
    out = np.full(np.broadcast(sq_dist, dt).shape, -np.inf)
    pos = dt > TIME_EPS
    if np.any(pos):
        d = np.broadcast_to(dt, out.shape)[pos]
        s = np.broadcast_to(sq_dist, out.shape)[pos]
        out[pos] = -0.5 * dim * np.log(4.0 * np.pi * d) - s / (4.0 * d)
    return out


def heat_kernel(z: SpaceTimePoint, w: SpaceTimePoint) -> float:
    """F(z - w): the Gaussian kernel, zero unless t_z > t_w."""
    if z.dim != w.dim:
        raise DimensionMismatchError(f"dim {z.dim} vs {w.dim}")
    dt = z.t - w.t
    if dt <= TIME_EPS:
        return 0.0
    sq = float(np.sum((z.x - w.x) ** 2))
    return float(np.exp(log_heat_kernel(sq, dt, z.dim)))


# ---------------------------------------------------------------------------
# pole functions
# ---------------------------------------------------------------------------

def _check_ctx_point(z: SpaceTimePoint, ctx: PoleContext) -> None:
    if z.dim != ctx.dim:
        raise DimensionMismatchError(f"point dim {z.dim} vs context dim {ctx.dim}")
    ctx.require(z.t)


def h_pole(z: SpaceTimePoint, ctx: PoleContext) -> float:
    """Upper pole function h(x, t) = F(x - gamma, t)."""
    if not ctx.is_upper:
        raise DomainError("h_pole is an upper half-space function")
    _check_ctx_point(z, ctx)
    return float(np.exp(log_pole_weight(z.x[None, :], np.array([z.t]), ctx)[0]))


def h_star(z: SpaceTimePoint, ctx: PoleContext) -> float:
    """Adjoint pole function h_*(x, t) = (pi/t)^(N/2) exp(|x - gamma|^2 / 4t).

    Unbounded as written; h * h_star == (2t)^(-N) holds identically and is
    used as a self-test.
    """
    if not ctx.is_upper:
        raise DomainError("h_star is an upper half-space function")
    _check_ctx_point(z, ctx)
    return float(np.exp(log_pole_weight_star(z.x[None, :], np.array([z.t]), ctx)[0]))


def h_tilde(w: SpaceTimePoint, ctx: PoleContext) -> float:
    """Lower pole function: the drift exponential exp(<x, gamma> + |gamma|^2 t)."""
    if ctx.is_upper:
        raise DomainError("h_tilde is a lower half-space function")
    _check_ctx_point(w, ctx)
    return float(np.exp(log_pole_weight(w.x[None, :], np.array([w.t]), ctx)[0]))


def h_tilde_star(w: SpaceTimePoint, ctx: PoleContext) -> float:
    """Adjoint of h_tilde: exp(-<x, gamma> - |gamma|^2 t); their product is 1."""
    if ctx.is_upper:
        raise DomainError("h_tilde_star is a lower half-space function")
    _check_ctx_point(w, ctx)
    return float(np.exp(log_pole_weight_star(w.x[None, :], np.array([w.t]), ctx)[0]))


def log_pole_weight(xs: np.ndarray, ts: np.ndarray, ctx: PoleContext) -> np.ndarray:
    """log of the z-side normalizer: log h (upper) or log h_tilde (lower)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float)
    g = ctx.gamma
    if ctx.is_upper:
        sq = np.sum((xs - g) ** 2, axis=-1)
        return -0.5 * ctx.dim * np.log(4.0 * np.pi * ts) - sq / (4.0 * ts)
    return xs @ g + np.dot(g, g) * ts


def log_pole_weight_star(xs: np.ndarray, ts: np.ndarray, ctx: PoleContext) -> np.ndarray:
    """log of the w-side normalizer: log h_star (upper) or log h_tilde_star."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float)
    g = ctx.gamma
    if ctx.is_upper:
        sq = np.sum((xs - g) ** 2, axis=-1)
        return 0.5 * ctx.dim * np.log(np.pi / ts) + sq / (4.0 * ts)
    return -(xs @ g) - np.dot(g, g) * ts


# ---------------------------------------------------------------------------
# normalized kernel ratio
# ---------------------------------------------------------------------------

def kernel_ratio_matrix(
    zx: np.ndarray,
    zt: np.ndarray,
    wx: np.ndarray,
    wt: np.ndarray,
    ctx: PoleContext,
) -> np.ndarray:
    """Matrix of F(z - w) / (weight(z) * weight_star(w)) over rows z, cols w.

    One closed form, the plain heat kernel in lower coordinates: offsets
    u = x - axis(t) from the pole axis and the gap dt give

        (4 pi dt)^(-N/2) * exp(-|u_z - u_w|^2 / (4 dt)).

    Above, the exchange map carries both points there first: offsets are
    divided by 2t and the gap becomes dt / (4 t tau), taken from dt itself
    rather than as a difference of the -1/(4t) coordinates, which would lose
    digits between nearby rows.  Measuring offsets from the axis keeps the
    squared distance free of the large |gamma|^2 |t| terms that cancel.

    Entries whose gap (dt below, dt / (4 t tau) above) is <= TIME_EPS are
    exactly zero.  The cut reads the gap the closed form uses: above, the
    times of dyadic shell n reach down to about 2^-(n+2), where the
    differences dt between its nodes fall under TIME_EPS and their gaps do
    not.

    The output is the only full-size allocation.  It is filled over blocks
    of about KERNEL_BLOCK entries, and in each block of rows only the column
    prefix that can be causal is computed: past it every column has
    t_w >= max t_z over the block, so its entries stay zero and never reach
    log or exp.  Each entry goes through the same operations whatever the
    blocking, so the matrix does not depend on it.
    """
    zx = np.atleast_2d(np.asarray(zx, dtype=float))
    wx = np.atleast_2d(np.asarray(wx, dtype=float))
    zt = np.asarray(zt, dtype=float).reshape(-1)
    wt = np.asarray(wt, dtype=float).reshape(-1)
    out = np.zeros((zt.shape[0], wt.shape[0]))
    if out.size == 0:
        return out

    uz = zx - ctx.axis(zt)  # (nz, N)
    uw = wx - ctx.axis(wt)  # (nw, N)
    if ctx.is_upper:
        uz = uz / (2.0 * zt[:, None])
        uw = uw / (2.0 * wt[:, None])
    uz2 = np.sum(uz**2, axis=1)
    uw2 = np.sum(uw**2, axis=1)
    # suffix_min[j] = min(wt[j:]) is sorted, so the first column from which
    # no later column is causal for any row of a block is a binary search;
    # fmin passes over NaN times, which are never causal
    suffix_min = np.fmin.accumulate(wt[::-1])[::-1]
    step = max(1, KERNEL_BLOCK // wt.shape[0])
    for i in range(0, zt.shape[0], step):
        rows = slice(i, i + step)
        p = int(np.searchsorted(suffix_min, np.max(zt[rows])))
        if p == 0:
            continue
        dt = zt[rows, None] - wt[None, :p]
        gap = dt
        if ctx.is_upper:
            gap = dt / (4.0 * zt[rows, None] * wt[None, :p])
        pos = gap > TIME_EPS
        # |uz - uw|^2 expanded to avoid forming an (rows, p, N) array, then
        # the log ratio, then its exp, in place.  The cross term is summed
        # coordinate by coordinate rather than by a BLAS product, whose
        # rounding depends on the shape it is called with
        sq = uz[rows, None, 0] * uw[None, :p, 0]
        for k in range(1, uz.shape[1]):
            sq += uz[rows, None, k] * uw[None, :p, k]
        sq *= 2.0
        np.subtract(uz2[rows, None], sq, out=sq)
        sq += uw2[None, :p]
        gap *= 4.0
        # entries off the causal mask may turn inf or nan here; exp skips them
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sq /= gap
            gap *= np.pi
            np.log(gap, out=gap, where=pos)
            gap *= -0.5 * ctx.dim
            gap -= sq
        block = out[rows, :p]
        with np.errstate(under="ignore"):
            np.exp(gap, out=block, where=pos)
        # entries this small are numerically dead columns for the capacity solver
        block[block < 1e-300] = 0.0
    return out


def kernel_ratio(z_ref: SpaceTimePoint, w: SpaceTimePoint, ctx: PoleContext) -> float:
    """Normalized kernel between two points of the context half-space.

    Zero whenever t_z <= t_w.  This single ratio is what potentials and heat
    balls are built from.
    """
    _check_ctx_point(z_ref, ctx)
    _check_ctx_point(w, ctx)
    m = kernel_ratio_matrix(
        z_ref.x[None, :], np.array([z_ref.t]), w.x[None, :], np.array([w.t]), ctx
    )
    return float(m[0, 0])


# ---------------------------------------------------------------------------
# batched fields and the finite-difference heat operator probe
# ---------------------------------------------------------------------------

Field = Callable[[np.ndarray, np.ndarray], "np.ndarray | float"]
"""A scalar field on space-time, evaluated on point arrays.

``u(xs, ts)`` takes xs of shape (M, N) and ts of shape (M,) and returns the
M values as an (M,) array, or one scalar for a field constant in both.
"""


def field_values(u: Field, xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The (M,) values of u at the rows of (xs, ts).

    Any other output shape raises: a scalar-style field indexing x[0] would
    otherwise return a row of xs and broadcast silently.
    """
    vals = np.asarray(u(xs, ts), dtype=float)
    if vals.ndim == 0:
        return np.full(ts.shape, float(vals))
    if vals.shape != ts.shape:
        raise ValueError(
            f"field returned shape {vals.shape}; expected {ts.shape} or a scalar"
        )
    return vals


def fd_step(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Default probe steps 1e-4 * (1 + |z|) for the rows z = (x, t)."""
    return 1e-4 * (1.0 + np.sqrt(np.sum(xs**2, axis=1) + ts**2))


def _hf_once(f: Field, xs: np.ndarray, ts: np.ndarray, hs: np.ndarray) -> np.ndarray:
    """Central differences of f at every row, one call on the stacked stencil.

    The stencil of a row is (x, t + h), (x, t - h), (x, t) and (x +- h e_i, t),
    2N + 3 points in all.
    """
    m, n = xs.shape
    sx = np.repeat(xs[None, :, :], 2 * n + 3, axis=0)
    st = np.repeat(ts[None, :], 2 * n + 3, axis=0)
    st[0] += hs
    st[1] -= hs
    for i in range(n):
        sx[3 + 2 * i, :, i] += hs
        sx[4 + 2 * i, :, i] -= hs
    vals = field_values(f, sx.reshape(-1, n), st.reshape(-1)).reshape(2 * n + 3, m)
    ft = (vals[0] - vals[1]) / (2.0 * hs)
    lap = sum(
        (vals[3 + 2 * i] - 2.0 * vals[2] + vals[4 + 2 * i]) / (hs * hs) for i in range(n)
    )
    return ft - lap


def heat_operator_fd_batch(
    f: Field, xs: np.ndarray, ts: np.ndarray, steps: np.ndarray, richardson: bool = True
) -> np.ndarray:
    """Central-difference probe of (d/dt - Laplacian) f at each row of (xs, ts),
    with its own step per row; see heat_operator_fd."""
    if np.any(steps <= 0.0):
        raise ValueError("step must be positive")
    coarse = _hf_once(f, xs, ts, steps)
    if not richardson:
        return coarse
    fine = _hf_once(f, xs, ts, 0.5 * steps)
    return (4.0 * fine - coarse) / 3.0


def heat_operator_fd(
    f: Field,
    z: SpaceTimePoint,
    step: float | None = None,
    ctx: PoleContext | None = None,
    richardson: bool = True,
) -> float:
    """Central-difference probe of (d/dt - Laplacian) f at z.

    O(step^2) truncation; one Richardson pass (on by default) lifts smooth
    fields to O(step^4).  If a context is given the stencil must stay inside
    its half-space.
    """
    xs, ts = z.x[None, :], np.array([z.t])
    h = fd_step(xs, ts) if step is None else np.array([float(step)])
    if ctx is not None:
        if z.dim != ctx.dim:
            raise DimensionMismatchError(f"point dim {z.dim} vs context dim {ctx.dim}")
        for tt in (z.t + h[0], z.t - h[0]):
            if not bool(ctx.admits(tt)):
                raise DomainError(f"stencil time {tt} leaves the half-space")
    return float(heat_operator_fd_batch(f, xs, ts, h, richardson)[0])
