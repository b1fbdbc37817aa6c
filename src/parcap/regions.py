"""Implicit space-time regions: CSG trees with vectorized membership.

A region describes an open set (or its complement) inside one half-space via
a pure predicate.  Primitives cover time slabs, spatial balls, spatial
half-spaces and tubes around an axis; boolean nodes combine them.  Tube
profiles may be closed-form or tabulated (piecewise-linear, so membership is
deterministic and resolution-independent).

Every node is a frozen dataclass whose ``kind`` class attribute tags its
JSON object, the other keys being exactly its fields; `reporting.to_jsonable`
writes nodes and `reporting.parse_value` reads them, each error at its JSON
pointer.  Tube profile tables round-trip through CSV files of (t, f(t)) rows.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .kernel import DomainError, HalfSpace, PoleContext
from .reporting import parse_value, to_jsonable

__all__ = [
    "Region",
    "EmptyRegion",
    "FullRegion",
    "TimeSlab",
    "SpaceBall",
    "HalfSpaceCut",
    "Tube",
    "Union",
    "Intersection",
    "Complement",
    "AppellImage",
    "TubeProfile",
    "ConstProfile",
    "PowerProfile",
    "TableProfile",
    "tube_profile_from_csv",
    "region_from_json",
]


class Region(ABC):
    """Membership predicate over one half-space, total on that half-space.

    A node valid only in some contexts defines ``check_context(ctx)``, and one
    whose children live in another context ``child_context(ctx)``."""

    @abstractmethod
    def contains(self, xs: np.ndarray, ts: np.ndarray, ctx: PoleContext) -> np.ndarray:
        """Boolean mask for points (xs[i], ts[i]); xs is (M, N), ts is (M,)."""

    def to_json(self) -> dict:
        return to_jsonable(self)

    def contains_point(self, x, t, ctx) -> bool:
        xs = np.atleast_2d(np.asarray(x, dtype=float))
        return bool(self.contains(xs, np.array([float(t)]), ctx)[0])


def _as_batch(xs, ts):
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    return xs, ts


# ---------------------------------------------------------------------------
# tube profiles
# ---------------------------------------------------------------------------

class TubeProfile(ABC):
    @abstractmethod
    def __call__(self, ts: np.ndarray) -> np.ndarray:
        ...


@dataclass(frozen=True)
class ConstProfile(TubeProfile):
    kind = "const"
    value: float

    def __call__(self, ts):
        return np.full(np.asarray(ts).shape, float(self.value))


@dataclass(frozen=True)
class PowerProfile(TubeProfile):
    """f(t) = coef * |t|^exponent; the sqrt profile is exponent 0.5."""

    kind = "power"
    coef: float
    exponent: float

    def __call__(self, ts):
        return self.coef * np.abs(np.asarray(ts, dtype=float)) ** self.exponent


@dataclass(frozen=True, eq=False)  # eq=False: an array field has no truth value
class TableProfile(TubeProfile):
    """Tabulated radius, linear between knots, clamped outside the table;
    points are held as a (K, 2) array sorted by t."""

    kind = "table"
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("points must hold at least two (t, f) rows")
        pts = pts[np.argsort(pts[:, 0])]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_t", pts[:, 0].copy())
        object.__setattr__(self, "_f", pts[:, 1].copy())
        if not np.all(self._f >= 0):
            raise ValueError("points must have f >= 0: a tube profile is nonnegative")

    def __call__(self, ts):
        return np.interp(np.asarray(ts, dtype=float), self._t, self._f)


def tube_profile_from_csv(path) -> TableProfile:
    """Load a (t, f(t)) table.  A non-numeric first row is a header and
    skipped; any later row not of two numbers is an error naming its line."""
    rows, first = [], True
    with open(path, newline="") as fh:
        for line, rec in enumerate(csv.reader(fh), start=1):
            if not rec:
                continue
            try:
                rows.append((float(rec[0]), float(rec[1])))
            except (ValueError, IndexError):
                if not first:
                    raise ValueError(f"{path}, line {line}: expected t,f, got {rec}") from None
            first = False
    return TableProfile(rows)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptyRegion(Region):
    kind = "empty"

    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return np.zeros(ts.shape, dtype=bool)


@dataclass(frozen=True)
class FullRegion(Region):
    kind = "full"

    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return np.ones(ts.shape, dtype=bool)


@dataclass(frozen=True)
class TimeSlab(Region):
    """t_min <= t <= t_max, a slab that must reach into its half-space."""

    kind = "time_slab"
    t_min: float
    t_max: float

    def __post_init__(self):
        if self.t_min > self.t_max:
            raise ValueError(f"t_min {self.t_min} exceeds t_max {self.t_max}")

    def check_context(self, ctx):
        if ctx.is_upper and self.t_max <= 0.0:
            raise ValueError(f"t_max {self.t_max} leaves the slab outside the half-space t > 0")
        if not ctx.is_upper and self.t_min >= 0.0:
            raise ValueError(f"t_min {self.t_min} leaves the slab outside the half-space t < 0")

    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return (ts >= self.t_min) & (ts <= self.t_max)


@dataclass(frozen=True, eq=False)
class SpaceBall(Region):
    """|x - center| <= radius at every time; center is held as an array."""

    kind = "space_ball"
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.atleast_1d(np.asarray(self.center, dtype=float)))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def check_context(self, ctx):
        if self.center.size != ctx.dim:
            raise ValueError(f"center needs {ctx.dim} components, got {self.center.size}")

    def contains(self, xs, ts, ctx):
        xs, _ = _as_batch(xs, ts)
        return np.sum((xs - self.center) ** 2, axis=1) <= self.radius**2


@dataclass(frozen=True, eq=False)
class HalfSpaceCut(Region):
    """Spatial half-space <normal, x> <= offset; normal is held as an array."""

    kind = "half_space"
    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):
        object.__setattr__(self, "normal", np.atleast_1d(np.asarray(self.normal, dtype=float)))

    def check_context(self, ctx):
        if self.normal.size != ctx.dim:
            raise ValueError(f"normal needs {ctx.dim} components, got {self.normal.size}")

    def contains(self, xs, ts, ctx):
        xs, _ = _as_batch(xs, ts)
        return xs @ self.normal <= self.offset


@dataclass(frozen=True)
class Tube(Region):
    """Points within profile distance of an axis: |x - axis(t)| <= f(t).

    axis "pole" is the constant line x = gamma; axis "drift" follows the
    moving center x = -2 t gamma natural to the lower half-space.
    """

    kind = "tube"
    profile: TubeProfile
    axis: str = "pole"

    def __post_init__(self):
        if self.axis not in ("pole", "drift"):
            raise ValueError(f"axis must be 'pole' or 'drift', got {self.axis!r}")

    def _axis_points(self, ts: np.ndarray, ctx: PoleContext) -> np.ndarray:
        # the pole line is the upper half-space's axis, the drift line the
        # lower's, whichever half-space the tube is tested in
        side = HalfSpace.UPPER if self.axis == "pole" else HalfSpace.LOWER
        return PoleContext(ctx.dim, ctx.gamma, side).axis(ts)

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        rad = self.profile(ts)
        d2 = np.sum((xs - self._axis_points(ts, ctx)) ** 2, axis=1)
        return d2 <= rad**2


# ---------------------------------------------------------------------------
# boolean nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Union(Region):
    kind = "union"
    children: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        out = np.zeros(ts.shape, dtype=bool)
        for ch in self.children:
            out |= ch.contains(xs, ts, ctx)
        return out


@dataclass(frozen=True)
class Intersection(Region):
    kind = "intersection"
    children: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        out = np.ones(ts.shape, dtype=bool)
        for ch in self.children:
            out &= ch.contains(xs, ts, ctx)
        return out


@dataclass(frozen=True)
class Complement(Region):
    kind = "complement"
    child: Region

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        return ~self.child.contains(xs, ts, ctx)


@dataclass(frozen=True)
class AppellImage(Region):
    """Image of a region from the opposite half-space under the point map.

    Membership pulls each point back through the inverse map and asks the
    child (evaluated in the mirrored context).
    """

    kind = "appell_image"
    child: Region

    @staticmethod
    def child_context(ctx: PoleContext) -> PoleContext:
        return ctx.mirror()

    def contains(self, xs, ts, ctx):
        from .appell import AppellDirection, appell_map_arrays

        xs, ts = _as_batch(xs, ts)
        if np.any(ts == 0.0):
            raise DomainError("membership undefined on the t = 0 hyperplane")
        # the inverse of either direction is the map from the current side
        direction = (
            AppellDirection.FORWARD if ctx.is_upper else AppellDirection.BACKWARD
        )
        ys, taus = appell_map_arrays(xs, ts, direction)
        return self.child.contains(ys, taus, ctx.mirror())


def region_from_json(obj: dict, ctx: PoleContext | None = None) -> Region:
    """The region a JSON node describes, checked against ctx if given; a
    ValueError lists every error at its JSON pointer."""
    errors: list[str] = []
    region = parse_value(Region, obj, "", errors, ctx)
    if errors:
        raise ValueError("; ".join(errors))
    return region
