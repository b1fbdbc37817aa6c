"""Implicit space-time regions: CSG trees with vectorized membership.

A region describes an open set (or its complement) inside one half-space via
a pure predicate.  Primitives cover time slabs, spatial balls, spatial
half-spaces and tubes around an axis; boolean nodes combine them.  Tube
profiles may be closed-form or tabulated (piecewise-linear, so membership is
deterministic and resolution-independent).

Regions serialize to and from plain JSON dicts; the schema is one object per
node with a "kind" tag, parameters, and nested children.  Tube profile tables
round-trip through CSV files of (t, f(t)) rows.
"""

from __future__ import annotations

import csv
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .kernel import DomainError, HalfSpace, PoleContext

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
    """Membership predicate over one half-space, total on that half-space."""

    @abstractmethod
    def contains(self, xs: np.ndarray, ts: np.ndarray, ctx: PoleContext) -> np.ndarray:
        """Boolean mask for points (xs[i], ts[i]); xs is (M, N), ts is (M,)."""

    @abstractmethod
    def to_json(self) -> dict:
        ...

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

    @abstractmethod
    def to_json(self) -> dict:
        ...


@dataclass(frozen=True)
class ConstProfile(TubeProfile):
    value: float

    def __call__(self, ts):
        return np.full(np.asarray(ts).shape, float(self.value))

    def to_json(self):
        return {"kind": "const", "value": self.value}


@dataclass(frozen=True)
class PowerProfile(TubeProfile):
    """f(t) = coef * |t|^exponent; the sqrt profile is exponent 0.5."""

    coef: float
    exponent: float

    def __call__(self, ts):
        return self.coef * np.abs(np.asarray(ts, dtype=float)) ** self.exponent

    def to_json(self):
        return {"kind": "power", "coef": self.coef, "exponent": self.exponent}


class TableProfile(TubeProfile):
    """Tabulated radius, linear between knots, clamped outside the table."""

    def __init__(self, points: Sequence[Sequence[float]]):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise ValueError("table profile needs at least two (t, f) rows")
        order = np.argsort(pts[:, 0])
        self._t = pts[order, 0]
        self._f = pts[order, 1]
        if np.any(self._f < 0):
            raise ValueError("tube profile must be nonnegative")

    def __call__(self, ts):
        return np.interp(np.asarray(ts, dtype=float), self._t, self._f)

    def to_json(self):
        return {
            "kind": "table",
            "points": [[float(a), float(b)] for a, b in zip(self._t, self._f)],
        }


def _profile_from_json(obj: dict) -> TubeProfile:
    kind = obj.get("kind")
    if kind == "const":
        return ConstProfile(float(obj["value"]))
    if kind == "power":
        return PowerProfile(float(obj["coef"]), float(obj["exponent"]))
    if kind == "table":
        return TableProfile(obj["points"])
    raise ValueError(f"unknown profile kind {kind!r}")


def tube_profile_from_csv(path) -> TableProfile:
    """Load a (t, f(t)) table; header rows are skipped if non-numeric."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec:
                continue
            try:
                rows.append((float(rec[0]), float(rec[1])))
            except ValueError:
                continue
    return TableProfile(rows)


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmptyRegion(Region):
    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return np.zeros(ts.shape, dtype=bool)

    def to_json(self):
        return {"kind": "empty"}


@dataclass(frozen=True)
class FullRegion(Region):
    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return np.ones(ts.shape, dtype=bool)

    def to_json(self):
        return {"kind": "full"}


@dataclass(frozen=True)
class TimeSlab(Region):
    t_min: float
    t_max: float

    def contains(self, xs, ts, ctx):
        _, ts = _as_batch(xs, ts)
        return (ts >= self.t_min) & (ts <= self.t_max)

    def to_json(self):
        return {"kind": "time_slab", "t_min": self.t_min, "t_max": self.t_max}


class SpaceBall(Region):
    """|x - center| <= radius at every time."""

    def __init__(self, center, radius: float):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.radius = float(radius)
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")

    def contains(self, xs, ts, ctx):
        xs, _ = _as_batch(xs, ts)
        return np.sum((xs - self.center) ** 2, axis=1) <= self.radius**2

    def to_json(self):
        return {
            "kind": "space_ball",
            "center": [float(v) for v in self.center],
            "radius": self.radius,
        }


class HalfSpaceCut(Region):
    """Spatial half-space <normal, x> <= offset."""

    def __init__(self, normal, offset: float):
        self.normal = np.atleast_1d(np.asarray(normal, dtype=float))
        self.offset = float(offset)

    def contains(self, xs, ts, ctx):
        xs, _ = _as_batch(xs, ts)
        return xs @ self.normal <= self.offset

    def to_json(self):
        return {
            "kind": "half_space",
            "normal": [float(v) for v in self.normal],
            "offset": self.offset,
        }


class Tube(Region):
    """Points within profile distance of an axis: |x - axis(t)| <= f(t).

    axis "pole" is the constant line x = gamma; axis "drift" follows the
    moving center x = -2 t gamma natural to the lower half-space.
    """

    def __init__(self, profile: TubeProfile, axis: str = "pole"):
        if axis not in ("pole", "drift"):
            raise ValueError(f"axis must be 'pole' or 'drift', got {axis!r}")
        self.profile = profile
        self.axis = axis

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

    def to_json(self):
        return {"kind": "tube", "axis": self.axis, "profile": self.profile.to_json()}


# ---------------------------------------------------------------------------
# boolean nodes
# ---------------------------------------------------------------------------

class Union(Region):
    def __init__(self, children: Sequence[Region]):
        self.children = list(children)

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        out = np.zeros(ts.shape, dtype=bool)
        for ch in self.children:
            out |= ch.contains(xs, ts, ctx)
        return out

    def to_json(self):
        return {"kind": "union", "children": [c.to_json() for c in self.children]}


class Intersection(Region):
    def __init__(self, children: Sequence[Region]):
        self.children = list(children)

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        out = np.ones(ts.shape, dtype=bool)
        for ch in self.children:
            out &= ch.contains(xs, ts, ctx)
        return out

    def to_json(self):
        return {
            "kind": "intersection",
            "children": [c.to_json() for c in self.children],
        }


class Complement(Region):
    def __init__(self, child: Region):
        self.child = child

    def contains(self, xs, ts, ctx):
        xs, ts = _as_batch(xs, ts)
        return ~self.child.contains(xs, ts, ctx)

    def to_json(self):
        return {"kind": "complement", "child": self.child.to_json()}


class AppellImage(Region):
    """Image of a region from the opposite half-space under the point map.

    Membership pulls each point back through the inverse map and asks the
    child (evaluated in the mirrored context).
    """

    def __init__(self, child: Region):
        self.child = child

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

    def to_json(self):
        return {"kind": "appell_image", "child": self.child.to_json()}


# ---------------------------------------------------------------------------
# JSON factory
# ---------------------------------------------------------------------------

def region_from_json(obj: dict) -> Region:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("region node must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "empty":
        return EmptyRegion()
    if kind == "full":
        return FullRegion()
    if kind == "time_slab":
        return TimeSlab(float(obj["t_min"]), float(obj["t_max"]))
    if kind == "space_ball":
        return SpaceBall(obj["center"], float(obj["radius"]))
    if kind == "half_space":
        return HalfSpaceCut(obj["normal"], float(obj["offset"]))
    if kind == "tube":
        return Tube(_profile_from_json(obj["profile"]), obj.get("axis", "pole"))
    if kind == "union":
        return Union([region_from_json(c) for c in obj["children"]])
    if kind == "intersection":
        return Intersection([region_from_json(c) for c in obj["children"]])
    if kind == "complement":
        return Complement(region_from_json(obj["child"]))
    if kind == "appell_image":
        return AppellImage(region_from_json(obj["child"]))
    if kind == "heat_ball":
        from .geometry import HeatBallRegion

        tc = obj.get("time_center")
        return HeatBallRegion(None if tc is None else float(tc), float(obj["scale"]))
    raise ValueError(f"unknown region kind {kind!r}")
