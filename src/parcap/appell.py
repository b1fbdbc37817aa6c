"""The space-time homeomorphism between the two half-space settings.

The point map sends (x, t) to (x / 2t, -1/4t) and exchanges the upper and
lower half-spaces, carrying the finite pole to infinity and back.  Its induced
transform on scalar fields multiplies by a Gaussian factor going forward and
by the fundamental solution coming back, and maps caloric functions to
caloric functions.  Everything here is exact transport: transformed fields
are composed lazily, never resampled, so identity tests see only rounding.
Mapping a point with t == 0 raises instead of producing fake large
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .kernel import (
    DomainError,
    Field,
    PoleContext,
    SpaceTimePoint,
    field_values,
    heat_operator_fd,
    log_pole_weight,
    point,
)
from .measures import DiscreteMeasure

__all__ = [
    "AppellDirection",
    "appell_map",
    "appell_map_arrays",
    "appell_transform",
    "push_measure",
    "IdentityResidual",
    "verify_h_identities",
]


class AppellDirection(Enum):
    FORWARD = "forward"    # upper (t > 0)  ->  lower (t < 0)
    BACKWARD = "backward"  # lower (t < 0)  ->  upper (t > 0)


def appell_map_arrays(xs: np.ndarray, ts: np.ndarray, direction: AppellDirection):
    """Vectorized point map; forward is (x/2t, -1/4t), backward (-x/2t, -1/4t)."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if np.any(ts == 0.0):
        raise DomainError("t == 0 maps to the pole or to infinity, not to coordinates")
    sign = 1.0 if direction is AppellDirection.FORWARD else -1.0
    return sign * xs / (2.0 * ts[:, None]), -1.0 / (4.0 * ts)


def appell_map(z: SpaceTimePoint, direction: AppellDirection) -> SpaceTimePoint:
    """Map a point across half-spaces; a point with t == 0 raises, since its
    image would not be coordinates."""
    xs, ts = appell_map_arrays(z.x[None, :], np.array([z.t]), direction)
    return point(xs[0], ts[0])


def appell_transform(u: Field, direction: AppellDirection) -> Field:
    """Induced transform on fields, composed lazily.

    Forward takes a field on the upper half-space to one on the lower:
    v(x, t) = (-pi/t)^(N/2) exp(-|x|^2/4t) u(-x/2t, -1/4t), defined for t < 0.
    Backward takes a lower field to F(x, t) u(x/2t, -1/4t), t > 0.
    """
    forward = direction is AppellDirection.FORWARD
    inverse = AppellDirection.BACKWARD if forward else AppellDirection.FORWARD

    def v(xs: np.ndarray, ts: np.ndarray) -> np.ndarray:
        outside = ts >= 0.0 if forward else ts <= 0.0
        if np.any(outside):
            side = "t < 0" if forward else "t > 0"
            raise DomainError(f"{direction.value}-transformed field lives in {side}")
        n = xs.shape[1]
        gauss = np.exp(-np.sum(xs**2, axis=1) / (4.0 * ts))
        pre = (-np.pi / ts) ** (0.5 * n) if forward else (4.0 * np.pi * ts) ** (-0.5 * n)
        ys, ss = appell_map_arrays(xs, ts, inverse)
        return pre * gauss * field_values(u, ys, ss)

    return v


def push_measure(mu: DiscreteMeasure, direction: AppellDirection) -> DiscreteMeasure:
    """Pushforward of a weighted point cloud: nodes mapped, masses copied."""
    if len(mu) == 0:
        return mu
    xs, ts = appell_map_arrays(mu.xs, mu.ts, direction)
    return DiscreteMeasure(xs, ts, np.array(mu.masses))


@dataclass(frozen=True)
class IdentityResidual:
    lhs: float
    rhs: float

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def verify_h_identities(
    u: Field,
    z: SpaceTimePoint,
    ctx: PoleContext,
    step: float = 1e-3,
) -> IdentityResidual:
    """Probe the transfer identity for the weighted heat operator.

    From an upper ctx (forward): for smooth u on the upper half-space and
    upper point z with image w, compares H[h u] / h at z against
    4 tau_w^2 H[h~ u(inverse)] / h~ at w, both sides by finite differences.
    From a lower ctx (backward) it starts from a lower field and point, with
    the roles of h and h~ exchanged.  The difference of the two sides is the
    residual.
    """
    forward = ctx.is_upper
    direction = AppellDirection.FORWARD if forward else AppellDirection.BACKWARD
    image_ctx = ctx.mirror()
    inverse = AppellDirection.BACKWARD if forward else AppellDirection.FORWARD
    w = appell_map(z, direction)

    def weight(xs, ts, c):
        return np.exp(log_pole_weight(xs, ts, c))

    def weight_at(p, c):
        return float(weight(p.x, p.t, c)[0])

    def weighted(xs, ts):
        return weight(xs, ts, ctx) * field_values(u, xs, ts)

    def weighted_pullback(xs, ts):
        ys, ss = appell_map_arrays(xs, ts, inverse)
        return weight(xs, ts, image_ctx) * field_values(u, ys, ss)

    lhs = heat_operator_fd(weighted, z, step=step, ctx=ctx) / weight_at(z, ctx)
    rhs = (
        4.0
        * w.t**2
        * heat_operator_fd(weighted_pullback, w, step=step, ctx=image_ctx)
        / weight_at(w, image_ctx)
    )
    return IdentityResidual(lhs, rhs)
