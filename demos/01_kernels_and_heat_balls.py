"""Kernels, pole functions, and the heat balls they carve out.

Walks through the basic objects: the Gaussian kernel, the two pole-function
pairs, the normalized ratio, and the closed-form ball geometry that the ratio
level sets produce.
"""

import numpy as np

import parcap as pc
from parcap.kernel import log_pole_weight

# the kernel is a probability density in space for any positive time gap
z = pc.point([0.0, 0.0], 1.0)
w = pc.point([2.0, 0.0], 0.0)
print("kernel value F(z - w)       :", pc.heat_kernel(z, w))
print("vanishing branch (t <= tau) :", pc.heat_kernel(w, z))

# upper half-space: pole function and its adjoint multiply to (2t)^(-N)
up = pc.upper_context(2, gamma=[0.5, 0.0])
zz = pc.point([0.8, -0.3], 0.7)
print("\nupper pole function h       :", pc.h_pole(zz, up))
print("adjoint pole function h*    :", pc.h_star(zz, up))
print("product vs (2t)^-N          :", pc.h_pole(zz, up) * pc.h_star(zz, up), (2 * 0.7) ** -2)

# lower half-space: the drift exponential pair multiplies to 1
lo = up.mirror()
ww = pc.point([0.8, -0.3], -0.7)
print("\nlower pair product          :", pc.h_tilde(ww, lo) * pc.h_tilde_star(ww, lo))

# heat balls are super-level sets of the normalized kernel ratio; their
# cross-sections have closed-form radii, vanishing at both window ends
ball = pc.HeatBall(lo, -0.25, 1.0)
lo_t, hi_t = ball.time_window
print("\nlower ball window           :", (lo_t, hi_t))
for t in np.linspace(lo_t + 1e-6, hi_t - 1e-6, 5):
    print(f"  section radius at t={t:+.3f}: {pc.ball_radius(t, ball):.4f}")
print("maximum radius (closed form):", np.sqrt(ball.peak_radius_sq), "=", np.sqrt(2 * 2 * 1.0 / np.e))

# ratio-threshold membership and the closed-form inequality agree
probe = pc.point([0.4, 0.1], -0.6)
ratio = pc.kernel_ratio(ball.center, probe, lo)
print("\nratio vs level              :", ratio, ">", ball.level, "=>", ball.contains_point(probe))

# a finite-difference probe of the heat operator certifies caloric fields;
# fields take point arrays xs (M, N), ts (M,) and return M values
f = lambda xs, ts: np.exp(log_pole_weight(xs, ts, up))
print("heat operator on h (fd)     :", pc.heat_operator_fd(f, zz))
