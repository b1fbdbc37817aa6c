"""The shell series that decides removability of the fundamental singularity.

For an open set whose complement is described as a region tree, the series
sums weight(n) * capacity(complement intersect shell(n)) over shells marching
toward the pole.  Divergence means the singularity is removable; convergence
means it is not.  The demo runs a paraboloid tube (removable: the complement
keeps a scale-invariant share of every shell) and a compact far box
(non-removable: shells eventually miss it), then shows the general level-shell
variant agreeing with the dyadic one.
"""

import parcap as pc
from parcap.regions import Intersection, PowerProfile, SpaceBall, TimeSlab, Tube

lo = pc.lower_context(1)
FAST = dict(n_range=range(2, 11), refinement=pc.Refinement(levels=(0, 1), tol=1e-2, rel_stall=0.03))

tube = Tube(PowerProfile(1.5, 0.5))           # |x| <= 1.5 sqrt(|t|)
box = Intersection([SpaceBall([0.0], 2.0), TimeSlab(-6.0, -1.0)])

for name, region in (("paraboloid tube", tube), ("far box", box)):
    rep = pc.series_terms(region, lo, **FAST)
    print(f"--- {name} ---")
    print(f"{'n':>3} {'window_bottom':>14} {'capacity':>10} {'term':>8} {'partial':>8}")
    for t, s in zip(rep.terms, rep.partial_sums):
        print(f"{t.n:3d} {t.time_window[0]:14.2f} {t.capacity:10.3f} {t.term:8.4f} {s:8.3f}")
    print("verdict:", rep.verdict.value, f"({rep.confidence})", rep.diagnostics, "\n")

# the level-shell variant re-indexes the same dichotomy for any lambda > 1
for lam in (1.5, 2.0):
    rep = pc.lambda_series_terms(tube, lo, lam, n_range=range(3, 11), refinement=FAST["refinement"])
    print(f"lambda={lam}: verdict={rep.verdict.value} terms={[round(t.term, 3) for t in rep.terms]}")

# half-space duality: the image region in the upper half-space gets the same
# verdict through its own series
up = lo.mirror()
rep_dual = pc.series_terms(pc.AppellImage(tube), up, **FAST)
print("\nupper-image verdict:", rep_dual.verdict.value)
