"""Heat balls and shells, their closed-form geometry, and discretization.

A heat ball is a super-level set of the normalized kernel ratio seen from a
center point on the pole axis.  Both half-space variants reduce to explicit
cross-section radii:

  upper, center (gamma, t0):  |x - gamma|^2 < (2N/t0) t (t0 - t) log(4 t t0 c / (t0 - t))
                              for t0/(1 + 4 t0 c) < t < t0
  lower, center (-2 gamma tau0, tau0):  |y + 2 tau gamma|^2 < 2N (tau0 - tau) log(c / (tau0 - tau))
                              for tau0 - c < tau < tau0

with ratio level (4 pi c)^(-N/2).  A shell is the closed region between the
levels of two scales (together with the center point).  Its two families,
dyadic shells between scales 2^(n-1) and 2^n and level shells that sandwich
the ratio between lambda^(-n+1) and lambda^(-n), are ShellFamily types that
also hold each shell's series weight and default indices.

Cross-sections are centered on the context's pole axis (``PoleContext.axis``).
Discretization covers a shell-and-region intersection with space-time cells:
time cells uniform in the context's native time (``PoleContext.native_time``:
tau itself below, -1/(4t) above, which is the image of a uniform grid under
the half-space exchange map and is what keeps large shells resolvable near
the pole), radial cells per slice across the shell band, and a direction grid
on the sphere.  Emitted nodes are cell centers that pass the membership
predicate, ordered lexicographically in (time cell, radial cell, direction).
A ``CompactSet`` takes its context from its shell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .kernel import DomainError, PoleContext, SpaceTimePoint, point
from .regions import Region, TimeSlab, Intersection

__all__ = [
    "HeatBall",
    "HeatShell",
    "ShellFamily",
    "DyadicShells",
    "LevelShells",
    "dyadic_shell",
    "ball_radius",
    "harnack_region",
    "HeatBallRegion",
    "Resolution",
    "NodeCloud",
    "CompactSet",
    "discretize",
    "sphere_directions",
    "default_time_center",
]


def default_time_center(ctx: PoleContext) -> float:
    """Canonical center times: t0 = 1 above, tau0 = -1/4 below."""
    return 1.0 if ctx.is_upper else -0.25


@dataclass(frozen=True)
class HeatBall:
    """Open super-level set of the kernel ratio from a pole-axis center."""

    ctx: PoleContext
    time_center: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        self.ctx.require(self.time_center)

    @property
    def dim(self) -> int:
        return self.ctx.dim

    @property
    def center(self) -> SpaceTimePoint:
        return point(self.axis([self.time_center])[0], self.time_center)

    @property
    def level(self) -> float:
        return float((4.0 * np.pi * self.scale) ** (-0.5 * self.dim))

    @property
    def time_window(self) -> tuple[float, float]:
        if self.ctx.is_upper:
            t0, c = self.time_center, self.scale
            return (t0 / (1.0 + 4.0 * t0 * c), t0)
        return (self.time_center - self.scale, self.time_center)

    def axis(self, ts) -> np.ndarray:
        """Cross-section centers at the given times, shape (M, N)."""
        return self.ctx.axis(ts)

    def radius_sq(self, ts) -> np.ndarray:
        """Squared cross-section radius; zero at and outside the window ends."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo, hi = self.time_window
        out = np.zeros(ts.shape)
        inside = (ts > lo) & (ts < hi)
        if not np.any(inside):
            return out
        t = ts[inside]
        n = self.dim
        if self.ctx.is_upper:
            t0, c = self.time_center, self.scale
            val = (2.0 * n / t0) * t * (t0 - t) * np.log(4.0 * t * t0 * c / (t0 - t))
        else:
            s = self.time_center - t
            val = 2.0 * n * s * np.log(self.scale / s)
        out[inside] = np.maximum(val, 0.0)
        return out

    def radius(self, ts) -> np.ndarray:
        return np.sqrt(self.radius_sq(ts))

    @property
    def peak_radius_sq(self) -> float:
        """The largest squared cross-section radius, 2N c/e at tau0 - c/e
        below; above, its bound 2N t0 (log+(4 t0 c)/4 + 1/e), from u(1 - u)
        <= 1/4 and (1 - u) log(1/(1 - u)) <= 1/e at u = t/t0.  Past the float
        range it is inf, without a warning."""
        n, c = self.dim, self.scale
        if self.ctx.is_upper:
            t0 = self.time_center
            return 2.0 * n * t0 * (math.log(max(4.0 * t0 * c, 1.0)) / 4.0 + 1.0 / math.e)
        return 2.0 * n * c / math.e

    def contains(self, xs, ts) -> np.ndarray:
        """Open-ball membership from the closed-form inequality."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo, hi = self.time_window
        mask = (ts > lo) & (ts < hi)
        if not np.any(mask):
            return mask
        d2 = np.sum((xs - self.axis(ts)) ** 2, axis=1)
        return mask & (d2 < self.radius_sq(ts))

    def contains_point(self, w: SpaceTimePoint) -> bool:
        return bool(self.contains(w.x[None, :], np.array([w.t]))[0])

    def appell_image(self) -> "HeatBall":
        """The matching ball across the half-space exchange (same scale)."""
        t0 = self.time_center
        return HeatBall(self.ctx.mirror(), -1.0 / (4.0 * t0), self.scale)


@dataclass(frozen=True)
class HeatShell:
    """Closed region between the ratio levels of scales c and c_inner.

    Equals the closure of outer-ball minus inner-ball, together with the
    shared center point.  A ShellFamily picks the two scales.
    """

    outer: HeatBall
    inner: HeatBall
    label: str = "shell"

    def __post_init__(self):
        if self.inner.scale >= self.outer.scale:
            raise ValueError("inner scale must be smaller than outer scale")
        if self.inner.time_center != self.outer.time_center:
            raise ValueError("shell balls must share their center")

    @property
    def ctx(self) -> PoleContext:
        return self.outer.ctx

    @property
    def center(self) -> SpaceTimePoint:
        return self.outer.center

    @property
    def time_window(self) -> tuple[float, float]:
        return self.outer.time_window

    @property
    def levels(self) -> tuple[float, float]:
        """(upper level from the inner ball, lower level from the outer)."""
        return (self.inner.level, self.outer.level)

    def radius_band(self, ts) -> tuple[np.ndarray, np.ndarray]:
        return (self.inner.radius(ts), self.outer.radius(ts))

    def contains(self, xs, ts) -> np.ndarray:
        """Closed two-sided membership; the center belongs by convention."""
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ts = np.asarray(ts, dtype=float).reshape(-1)
        lo, hi = self.time_window
        window = (ts >= lo) & (ts <= hi)
        d2 = np.sum((xs - self.outer.axis(ts)) ** 2, axis=1)
        return window & (d2 <= self.outer.radius_sq(ts)) & (d2 >= self.inner.radius_sq(ts))

    def contains_point(self, w: SpaceTimePoint) -> bool:
        return bool(self.contains(w.x[None, :], np.array([w.t]))[0])

    def appell_image(self) -> "HeatShell":
        return HeatShell(self.outer.appell_image(), self.inner.appell_image(), self.label)


class ShellFamily:
    """Shells n between the heat balls of scales scale(n - 1) and scale(n),
    weighted weight(n) in the removability series; a series given no indices
    sums indices(N).  A subclass defines the three and its `kind` and `lam`,
    which the series report records."""

    def shell(self, ctx: PoleContext, n: int, time_center: float | None = None) -> HeatShell:
        t0 = default_time_center(ctx) if time_center is None else float(time_center)
        outer = HeatBall(ctx, t0, self.scale(n, ctx.dim))
        inner = HeatBall(ctx, t0, self.scale(n - 1, ctx.dim))
        return HeatShell(outer, inner, label=f"{self.kind} n={n}")

    def check(self, ctx: PoleContext, n: int, key: str = "n") -> None:
        """Refuse shell n, at the default time center, with a ValueError led
        by key unless its scales are floats with 0 < inner < outer < inf, its
        native-time window is finite with lo < hi, and four times its peak
        squared radius (a bound on the squared distances within a cross
        section) is finite."""
        try:
            ok = 0.0 < self.scale(n - 1, ctx.dim) < self.scale(n, ctx.dim) < math.inf
        except OverflowError:
            ok = False
        if not ok:
            raise ValueError(f"{key} {n} puts the shell's scale outside the float range")
        outer = self.shell(ctx, n).outer
        try:
            lo, hi = map(ctx.native_time, outer.time_window)
        except ZeroDivisionError:  # a window from t = 0 above
            lo = hi = math.nan
        if not (math.isfinite(lo) and lo < hi < math.inf
                and math.isfinite(4.0 * outer.peak_radius_sq)):
            raise ValueError(
                f"{key} {n} gives the shell a time window or cross-section that floats cannot hold")


@dataclass(frozen=True)
class DyadicShells(ShellFamily):
    """Shell n between scales 2^(n-1) and 2^n, weight 2^(-n N / 2)."""

    kind = "dyadic"
    lam = None

    def scale(self, n: int, N: int) -> float:
        """Raises OverflowError past the float range."""
        return 2.0**n

    def weight(self, n: int, N: int) -> float:
        return 2.0 ** (-0.5 * n * N)

    def indices(self, N: int) -> range:
        return range(2, 15)


@dataclass(frozen=True)
class LevelShells(ShellFamily):
    """Shell n between kernel-ratio levels lambda^(-n+1) and lambda^(-n),
    weight lambda^(-n), any lambda > 1."""

    kind = "lambda"
    lam: float

    def __post_init__(self):
        if not (self.lam is not None and self.lam > 1):
            raise ValueError(f"lam must be > 1, got {self.lam}")

    def scale(self, n: int, N: int) -> float:
        """The scale lambda^(2n/N) / 4 pi of the ball at ratio level
        lambda^(-n).  Raises OverflowError past the float range."""
        return self.lam ** (2.0 * n / N) / (4.0 * np.pi)

    def weight(self, n: int, N: int) -> float:
        return self.lam ** (-n)

    def indices(self, N: int) -> range:
        """The shells spanning roughly the scales [4, 16384], extended past
        the top to at least 8 terms for the classifier."""
        n_lo = max(1, math.ceil(N * math.log(4.0 * math.pi * 4.0) / (2.0 * math.log(self.lam))))
        n_hi = math.floor(N * math.log(4.0 * math.pi * 16384.0) / (2.0 * math.log(self.lam)))
        n_hi = max(n_hi, n_lo + 7)
        return range(n_lo, n_hi + 1)


def dyadic_shell(ctx: PoleContext, n: int, time_center: float | None = None) -> HeatShell:
    """Shell at scale 2^n with inner scale 2^(n-1)."""
    return DyadicShells().shell(ctx, n, time_center)


def ball_radius(t_or_tau: float, ball: HeatBall) -> float:
    """Cross-section radius at one time; zero exactly at the window ends."""
    t = float(t_or_tau)
    lo, hi = ball.time_window
    if t < lo or t > hi:
        raise DomainError(f"time {t} outside ball window [{lo}, {hi}]")
    return float(ball.radius(np.array([t]))[0])


# ---------------------------------------------------------------------------
# regions built from balls
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeatBallRegion(Region):
    """A heat ball as a CSG leaf; the context arrives at membership time, and
    time_center None stands for its default time center."""

    kind = "heat_ball"
    time_center: Optional[float]
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    def check_context(self, ctx: PoleContext) -> None:
        if self.time_center is not None and not ctx.admits(self.time_center):
            raise ValueError(f"time_center {self.time_center} is outside the half-space")

    def _ball(self, ctx: PoleContext) -> HeatBall:
        t0 = default_time_center(ctx) if self.time_center is None else self.time_center
        return HeatBall(ctx, t0, self.scale)

    def contains(self, xs, ts, ctx):
        return self._ball(ctx).contains(xs, ts)


def harnack_region(time_center: float, c: float, ctx: PoleContext) -> Region:
    """Heat ball truncated above its lower portion, where the two-sided
    estimate holds: above, cuts below t0/(1 + 3 t0 c); below, cuts below
    tau0 - 3c/4."""
    if c <= 0:
        raise ValueError("c must be positive")
    trunc = ctx.native_time(ctx.native_time(time_center) - 0.75 * c)
    return Intersection(
        [HeatBallRegion(time_center, c), TimeSlab(trunc, time_center)]
    )


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Resolution:
    """Refinement level over base cell counts; each level halves spacing."""

    CONFIG_KEYS = ("base_time", "base_radial", "base_angular", "base_polar")
    level: int = 0
    base_time: int = 12
    base_radial: int = 3
    base_angular: int = 8  # N = 2 azimuthal count
    base_polar: int = 4     # N = 3 polar count (paired with base_angular)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        for name in ("base_time", "base_radial", "base_angular", "base_polar"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def n_time(self) -> int:
        return self.base_time * 2**self.level

    @property
    def n_radial(self) -> int:
        return self.base_radial * 2**self.level

    @property
    def n_angular(self) -> int:
        return self.base_angular * 2**self.level

    @property
    def n_polar(self) -> int:
        return self.base_polar * 2**self.level

    def refined(self) -> "Resolution":
        return replace(self, level=self.level + 1)

    def describe(self) -> dict:
        return {
            "level": self.level,
            "n_time": self.n_time,
            "n_radial": self.n_radial,
            "n_angular": self.n_angular,
            "n_polar": self.n_polar,
        }


def sphere_directions(dim: int, res: Resolution) -> tuple[np.ndarray, np.ndarray]:
    """Direction grid with matching surface-measure weights (sums to |S^(N-1)|)."""
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
        return dirs, np.array([1.0, 1.0])
    if dim == 2:
        n = res.n_angular
        th = 2.0 * np.pi * (np.arange(n) + 0.5) / n
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(n, 2.0 * np.pi / n)
    if dim == 3:
        nu, nphi = res.n_polar, res.n_angular
        u = -1.0 + 2.0 * (np.arange(nu) + 0.5) / nu
        phi = 2.0 * np.pi * (np.arange(nphi) + 0.5) / nphi
        uu, pp = np.meshgrid(u, phi, indexing="ij")
        s = np.sqrt(1.0 - uu**2)
        dirs = np.stack([s * np.cos(pp), s * np.sin(pp), uu], axis=-1).reshape(-1, 3)
        w = np.full(dirs.shape[0], (2.0 / nu) * (2.0 * np.pi / nphi))
        return dirs, w
    raise NotImplementedError("direction grids implemented for N <= 3")


@dataclass(frozen=True)
class NodeCloud:
    """Cell-center nodes of a discretized compact set with cell extents."""

    xs: np.ndarray        # (M, N)
    ts: np.ndarray        # (M,)
    cell_dts: np.ndarray  # (M,) temporal extent of each node's cell
    cell_drs: np.ndarray  # (M,) radial extent of each node's cell
    resolution: Resolution
    ctx: PoleContext      # the context of the set the nodes discretize
    n_candidates: int = 0  # cells examined, including rejected ones

    def __len__(self) -> int:
        return self.ts.shape[0]

    @property
    def dim(self) -> int:
        return self.ctx.dim

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    @staticmethod
    def empty(ctx: PoleContext, resolution: Resolution, n_candidates: int = 0) -> "NodeCloud":
        z = np.zeros(0)
        return NodeCloud(np.zeros((0, ctx.dim)), z, z, z, resolution, ctx, n_candidates)


@dataclass(frozen=True)
class CompactSet:
    """A shell (or ball) intersected with a complement-set description.

    Pass region None (or a full region) for the bare shell; an empty region
    yields the empty set.  The context is the shell's own.
    """

    shell: HeatShell | HeatBall
    region: Optional[Region]

    @property
    def ctx(self) -> PoleContext:
        return self.shell.ctx

    def contains(self, xs, ts) -> np.ndarray:
        mask = self.shell.contains(xs, ts)
        if self.region is not None:
            mask = mask & self.region.contains(xs, ts, self.ctx)
        return mask


def _time_edges(shell, n_time: int) -> np.ndarray:
    """Cell edges in real time, uniform in the native time coordinate."""
    native = shell.ctx.native_time
    lo, hi = shell.time_window
    return native(np.linspace(native(lo), native(hi), n_time + 1))


def discretize(compact: CompactSet, resolution: Resolution | int) -> NodeCloud:
    """Node cloud for a compact shell intersection.

    Cells live in (time, radial offset from the section axis, direction).
    A node is emitted at the center of every cell whose center passes the
    membership predicate, so every emitted node satisfies contains().
    Refinement halves all spacings.
    """
    if isinstance(resolution, int):
        resolution = Resolution(level=resolution)
    shell = compact.shell
    ctx = compact.ctx
    N = ctx.dim
    dirs, _ = sphere_directions(N, resolution)
    ndir = dirs.shape[0]
    edges = _time_edges(shell, resolution.n_time)
    n_r = resolution.n_radial

    xs_parts, ts_parts, dt_parts, dr_parts = [], [], [], []
    candidates = 0
    for k in range(resolution.n_time):
        t_lo, t_hi = float(edges[k]), float(edges[k + 1])
        t_mid = 0.5 * (t_lo + t_hi)
        dt = t_hi - t_lo
        if isinstance(shell, HeatShell):
            r_in, r_out = shell.radius_band(np.array([t_mid]))
            r_in, r_out = float(r_in[0]), float(r_out[0])
        else:
            r_in, r_out = 0.0, float(shell.radius(np.array([t_mid]))[0])
        width = r_out - r_in
        if r_out <= 0.0 or width <= 1e-12 * max(1.0, r_out):
            continue
        r_edges = np.linspace(r_in, r_out, n_r + 1)
        r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
        axis = ctx.axis([t_mid])[0]

        # candidate block: radial index varies slowest, then direction
        pts = axis[None, None, :] + r_mid[:, None, None] * dirs[None, :, :]
        pts = pts.reshape(-1, N)
        drs = np.repeat(np.diff(r_edges), ndir)
        tt = np.full(pts.shape[0], t_mid)
        candidates += pts.shape[0]

        keep = compact.contains(pts, tt)
        if not np.any(keep):
            continue
        xs_parts.append(pts[keep])
        ts_parts.append(tt[keep])
        dt_parts.append(np.full(int(np.sum(keep)), dt))
        dr_parts.append(drs[keep])

    if not xs_parts:
        return NodeCloud.empty(ctx, resolution, candidates)
    return NodeCloud(
        np.concatenate(xs_parts),
        np.concatenate(ts_parts),
        np.concatenate(dt_parts),
        np.concatenate(dr_parts),
        resolution,
        ctx,
        candidates,
    )
