"""Capacity of a heat shell through the collocation program.

Discretizes a dyadic shell, solves for the maximizing measure, and prints the
certificates that accompany every solve: the feasibility maximum over the
collocation cloud, the fresh-probe maximum, complementary slackness and the
duality gap.  Ends with the refining-sequence driver and a CSV dump of the
measure.
"""

import numpy as np

import parcap as pc
from parcap.capacity import capacity, capacity_of_region
from parcap.geometry import Resolution, discretize

lo = pc.lower_context(1)
dyadic = pc.DyadicShells()  # shell n between the heat balls of scales 2^(n-1) and 2^n
shell = dyadic.shell(lo, 2)
compact = pc.CompactSet(shell, None)

print("ball scales      :", (dyadic.scale(1, lo.dim), dyadic.scale(2, lo.dim)))
print("series weight    :", dyadic.weight(2, lo.dim))
print("shell time window:", shell.time_window)
print("ratio levels     :", shell.levels)

for level in (0, 1):
    cloud = discretize(compact, Resolution(level=level))
    res = capacity(cloud)
    print(
        f"level {level}: nodes={len(cloud):4d} value={res.value:.4f} "
        f"max_pot={res.max_potential:.4f} probe={res.probe_max_potential:.4f} "
        f"slack={res.comp_slack_residual:.1e} gap={res.duality_gap:.1e}"
    )

# the driver refines until two values agree within 2 percent and the result
# is certified; the history shows the bracketing values
res = capacity_of_region(compact)
print("\nrefined value :", res.value, "converged:", res.converged)
print("history       :", res.history)
print("support size  :", res.diagnostics["support_size"], "of", res.diagnostics["n_nodes"])

# the capacitary measure transports exactly across the half-space exchange
mu = res.capacitary
pushed = pc.push_measure(mu, pc.AppellDirection.BACKWARD)
print("mass preserved:", mu.total_mass() == pushed.total_mass())

rows = np.column_stack([mu.xs[:, 0], mu.ts, mu.masses])
np.savetxt("capacity_measure_demo.csv", rows, delimiter=",", header="x1,t,mass", comments="")
print("wrote capacity_measure_demo.csv")
