import numpy as np
import pytest

import parcap as pc
from parcap.wiener import ClassifyPolicy, Verdict, auto_level_range, classify
from parcap.regions import (
    EmptyRegion,
    FullRegion,
    Intersection,
    PowerProfile,
    SpaceBall,
    TimeSlab,
    Tube,
    Union,
)

FAST = dict(n_range=range(2, 10), refinement=pc.Refinement(levels=(0, 1), tol=1e-2, rel_stall=0.03))


def test_classify_constant_terms_diverges():
    v, conf, diag = classify([0.7] * 8)
    assert v is Verdict.REMOVABLE and conf == "high"
    assert abs(diag["slope"]) < 1e-12


def test_classify_geometric_terms_converge():
    v, conf, _ = classify([2.0 ** (-n) for n in range(10)])
    assert v is Verdict.NON_REMOVABLE and conf == "high"


def test_classify_harmonic_terms_lean_removable():
    v, conf, diag = classify([1.0 / n for n in range(3, 16)])
    assert v is Verdict.REMOVABLE and conf == "low"
    assert diag["curvature"] > 0


def test_classify_needs_enough_terms():
    v, conf, _ = classify([1.0, 1.0, 1.0])
    assert v is Verdict.INCONCLUSIVE


def test_classify_vanishing_tail():
    v, conf, _ = classify([1.0, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert v is Verdict.NON_REMOVABLE and conf == "high"


def test_classify_mid_geometric_is_inconclusive():
    # decay ratio between the thresholds with no curvature signal
    v, conf, _ = classify([0.9**n for n in range(12)], ClassifyPolicy())
    assert v is Verdict.INCONCLUSIVE


def test_classify_unconverged_window_downgrades():
    terms = [1.0 / n for n in range(3, 16)]
    flags = [True] * len(terms)
    flags[-2] = False
    v, conf, _ = classify(terms, converged_flags=flags)
    assert v is Verdict.INCONCLUSIVE


def test_series_empty_complement_is_non_removable():
    lo = pc.lower_context(1)
    rep = pc.series_terms(EmptyRegion(), lo, **FAST)
    assert rep.verdict is Verdict.NON_REMOVABLE
    assert all(t.term == 0.0 for t in rep.terms)
    assert rep.partial_sums[-1] == 0.0


def test_series_full_complement_is_removable_with_positive_terms():
    lo = pc.lower_context(1)
    rep = pc.series_terms(FullRegion(), lo, **FAST)
    assert rep.verdict is Verdict.REMOVABLE and rep.confidence == "high"
    terms = rep.term_values
    assert min(terms) > 0.0
    assert min(terms) >= 0.5 * max(terms)
    sums = np.asarray(rep.partial_sums)
    assert np.all(np.diff(sums) >= 0.0)


def test_series_report_orientation_and_windows():
    lo = pc.lower_context(1)
    rep = pc.series_terms(EmptyRegion(), lo, **FAST)
    bottoms = [t.time_window[0] for t in rep.terms]
    assert all(b2 < b1 for b1, b2 in zip(bottoms, bottoms[1:]))  # marching to the pole
    assert "pole" in rep.orientation


def test_lambda_series_agrees_with_dyadic_verdict():
    lo = pc.lower_context(1)
    tube = Tube(PowerProfile(1.5, 0.5))
    d = pc.series_terms(tube, lo, **FAST)
    l2 = pc.lambda_series_terms(tube, lo, 2.0, n_range=range(3, 11), refinement=FAST["refinement"])
    assert d.verdict == l2.verdict == Verdict.REMOVABLE


def test_lambda_validation_and_auto_range():
    lo = pc.lower_context(1)
    with pytest.raises(ValueError):
        pc.lambda_series_terms(EmptyRegion(), lo, 1.0)
    rng = auto_level_range(lo, 4.0)
    assert len(list(rng)) >= 8


def test_verdict_monotone_under_complement_growth():
    # enlarging the complement never flips removable to non-removable
    lo = pc.lower_context(1)
    small = Intersection([SpaceBall([0.0], 2.0), TimeSlab(-6.0, -1.0)])
    big = Union([small, Tube(PowerProfile(1.5, 0.5))])
    va = pc.series_terms(small, lo, **FAST).verdict
    vb = pc.series_terms(big, lo, **FAST).verdict
    assert not (va is Verdict.REMOVABLE and vb is Verdict.NON_REMOVABLE)
    assert va is Verdict.NON_REMOVABLE
    assert vb is Verdict.REMOVABLE


def test_duality_of_verdicts():
    lo = pc.lower_context(1)
    up = lo.mirror()
    box = Intersection([SpaceBall([0.0], 2.0), TimeSlab(-6.0, -1.0)])
    vl = pc.series_terms(box, lo, **FAST).verdict
    vu = pc.series_terms(pc.AppellImage(box), up, **FAST).verdict
    assert vl == vu == Verdict.NON_REMOVABLE
