"""Averaging identities on heat balls and the two-sided estimate.

A pole-weighted caloric field equals its weighted average over any heat ball
(each functional takes the HeatBall it integrates over), at every scale: the constant field pins the normalization,
and quotients of caloric polynomials by the pole weight give nontrivial
closed-form fixtures.  The scale derivative of the underlying functional is a
bulk integral of the weighted heat operator, checked here against a
difference quotient, and the bottom-slice average of a nonnegative weighted
caloric field is controlled by its infimum over the inner ball, uniformly in
the scale.
"""

import numpy as np

import parcap as pc
from parcap.averaging import harnack_check, mean_value, phi, phi_prime, subparabolic_gap
from parcap.geometry import HeatBall
from parcap.kernel import log_pole_weight

lo = pc.lower_context(1, gamma=[1.0])
ball = HeatBall(lo, -0.25, 1.0)

# mean value: constant field and a weighted caloric quotient; a field takes
# point arrays xs (M, N), ts (M,) and returns M values (or one constant)
print("mean of constant field      :", mean_value(lambda xs, ts: 1.0, ball))

def u_quad(xs, ts):
    v = np.sum((xs - lo.gamma) ** 2, axis=1) + 2.0 * ts
    return v / np.exp(log_pole_weight(xs, ts, lo))

center_val = u_quad(ball.center.x[None, :], np.array([ball.center.t]))[0]
got = mean_value(u_quad, ball)
print("weighted caloric quotient   :", got, "center value:", center_val)

# the scale functional is flat in the scale exactly for such fields
a = phi(u_quad, HeatBall(lo, -0.25, 0.5)).value
b = phi(u_quad, ball).value
print("scale functional at c=.5, 1 :", a, b)

# derivative identity vs a difference quotient, for a non-caloric field
u_t = lambda xs, ts: ts
pp = phi_prime(u_t, ball, hu_operator=lambda xs, ts: 1.0).value
h = 0.02
fd = (phi(u_t, HeatBall(lo, -0.25, 1.0 + h)).value
      - phi(u_t, HeatBall(lo, -0.25, 1.0 - h)).value) / (2 * h)
print("\nscale derivative            :", pp)
print("difference quotient         :", fd)

# gap inequality for a strictly sub-caloric weighted field
gamma0 = pc.lower_context(1)
u_sub = lambda xs, ts: -(ts + 0.25)
print("\ngap inequality (lhs >= C * rhs):")
for c in (0.25, 0.5, 1.0):
    res = subparabolic_gap(u_sub, HeatBall(gamma0, -0.25, c), hu_operator=lambda xs, ts: -1.0)
    print(f"  c={c:<5} lhs={res.lhs:.5f} rhs={res.rhs:.5f} fitted constant={res.fitted_constant:.4f}")

# two-sided estimate: slice average against the inner-ball infimum
big = HeatBall(gamma0, -0.25, 4.0)
src_x, src_t = np.array([[0.3]]), np.array([big.time_window[0] - 1.0])
u_src = lambda xs, ts: pc.kernel_ratio_matrix(xs, ts, src_x, src_t, gamma0)[:, 0]
print("\ntwo-sided estimate ratios over scales:")
for c in (0.5, 1.0, 2.0):
    res = harnack_check(u_src, HeatBall(gamma0, -0.25, c))
    print(f"  c={c:<4} average={res.average:.5f} infimum={res.infimum:.5f} ratio={res.ratio:.3f}")
