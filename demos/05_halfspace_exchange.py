"""The homeomorphism between the half-spaces and what it transports.

The point map (x, t) -> (x/2t, -1/4t) exchanges the two settings, sending the
finite pole to infinity.  Its induced transform carries caloric functions to
caloric functions, one pole-function pair onto the other, measures onto
measures with their potentials, and heat balls onto heat balls of the same
scale, which is why capacities and series verdicts match across the exchange.
"""

import numpy as np

import parcap as pc
from parcap.appell import AppellDirection as D
from parcap.kernel import log_pole_weight
from parcap.measures import DiscreteMeasure

rng = np.random.default_rng(1)
up = pc.upper_context(1, gamma=[0.7])
lo = up.mirror()

# round trip of the point map is the identity
z = pc.point([1.3], 0.8)
back = pc.appell_map(pc.appell_map(z, D.FORWARD), D.BACKWARD)
print("round trip error:", abs(back.t - z.t), np.abs(back.x - z.x))

# the forward transform of the upper pole function is the drift exponential;
# fields and their transforms take point arrays xs (M, N), ts (M,)
h_up = lambda xs, ts: np.exp(log_pole_weight(xs, ts, up))
Ah = pc.appell_transform(h_up, D.FORWARD)
ws_x, ws_t = np.array([[0.4], [-0.3]]), np.array([-1.1, -0.5])
print("transformed pole function :", Ah(ws_x, ws_t))
print("drift exponential         :", np.exp(log_pole_weight(ws_x, ws_t, lo)))

# measures push forward with their masses; potentials transport pointwise
mu = DiscreteMeasure(rng.normal(size=(25, 1)), rng.uniform(0.2, 0.9, 25), rng.uniform(0, 1, 25))
pushed = pc.push_measure(mu, D.FORWARD)
zl = pc.point([0.2], -0.8)
zu = pc.appell_map(zl, D.BACKWARD)
a = pc.potential(mu, zu, up)
b = pc.potential(pushed, zl, lo)
print("\npotential upstairs        :", a)
print("potential of pushforward  :", b)

# heat balls map onto heat balls of the same scale
shell = pc.dyadic_shell(up, 1)
image = shell.appell_image()
probe = pc.point([0.7], 0.35)
if shell.contains_point(probe):
    mapped = pc.appell_map(probe, D.FORWARD)
    print("\nshell membership preserved:", image.contains_point(mapped))

# capacity is invariant under the exchange (matched native resolutions)
vu = pc.capacity_of_region(pc.CompactSet(shell, None)).value
vl = pc.capacity_of_region(pc.CompactSet(shell.appell_image(), None)).value
print("capacity upstairs/downstairs:", vu, vl, f"(rel diff {abs(vu - vl) / vl:.3%})")

# the operator transfer identity, probed by finite differences
res = pc.verify_h_identities(lambda xs, ts: xs[:, 0] * ts, pc.point([0.2], 0.9), up, step=4e-3)
print("\noperator identity sides   :", res.lhs, res.rhs, "residual", res.residual)
