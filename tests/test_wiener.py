import sys

import numpy as np
import pytest

import parcap as pc
from parcap.capacity import (
    DilationMemo,
    Refinement,
    _probe_points,
    build_collocation,
    capacity_of_region,
    potential_batch,
)
from parcap.geometry import CompactSet, Resolution, discretize, dyadic_shell
from parcap.wiener import ClassifyPolicy, Verdict, classify
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
    terms = [t.term for t in rep.terms]
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
    l2 = pc.series_terms(tube, lo, range(3, 11), family=pc.LevelShells(2.0),
                         refinement=FAST["refinement"])
    assert d.verdict == l2.verdict == Verdict.REMOVABLE


def test_lambda_validation_and_auto_range():
    lo = pc.lower_context(1)
    with pytest.raises(ValueError):
        pc.series_terms(EmptyRegion(), lo, family=pc.LevelShells(1.0))
    rng = pc.LevelShells(4.0).indices(lo.dim)
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


# ---------------------------------------------------------------------------
# reuse of dilated shells within one series call
# ---------------------------------------------------------------------------

CAP = sys.modules[capacity_of_region.__module__]
TUBE = Tube(PowerProfile(1.5, 0.5))
SMALL = Refinement(levels=(0, 1), resolution=Resolution(base_time=10, base_radial=2))


def _record_lp(monkeypatch):
    rounds = []
    solve = CAP.linprog

    def recording_linprog(model, *, A_ub):
        rounds.append(A_ub.shape)
        return solve(model, A_ub=A_ub)

    monkeypatch.setattr(CAP, "linprog", recording_linprog)
    return rounds


def _record_checks(monkeypatch):
    """(a proposal was made, it was kept) for every proposal checked."""
    checks = []
    check = CAP._check_proposal

    def recording_check(cloud, coll, proposal):
        out = check(cloud, coll, proposal)
        checks.append((proposal is not None, out is not None))
        return out

    monkeypatch.setattr(CAP, "_check_proposal", recording_check)
    return checks


def _alone(region, ctx, ns, refinement):
    return [capacity_of_region(CompactSet(dyadic_shell(ctx, n), region), refinement=refinement)
            for n in ns]


def test_series_reuses_dilated_shells_with_the_same_result(monkeypatch):
    lp = _record_lp(monkeypatch)
    checks = _record_checks(monkeypatch)
    lo = pc.lower_context(1)
    rep = pc.series_terms(TUBE, lo, range(5, 11), refinement=SMALL)
    series_calls = len(lp)
    alone = _alone(TUBE, lo, range(5, 11), SMALL)
    assert series_calls < len(lp) - series_calls
    assert any(kept for _, kept in checks)
    for term, res in zip(rep.terms, alone):
        assert term.capacity == pytest.approx(res.value, rel=1e-9)
        assert (term.level, term.converged) == (res.resolution.level, res.converged)
    verdict, confidence, _ = classify([t.weight * r.value for t, r in zip(rep.terms, alone)],
                                      rep.policy, [r.converged for r in alone])
    assert (rep.verdict, rep.confidence) == (verdict, confidence)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_bare_shells_refuse_every_proposal(monkeypatch, gamma):
    # their absolute-time halo rows bind, so no shell's solution carries over
    lp = _record_lp(monkeypatch)
    checks = _record_checks(monkeypatch)
    ctx = pc.lower_context(1, [gamma])
    refinement = Refinement(levels=(0, 1))
    rep = pc.series_terms(None, ctx, range(2, 9), refinement=refinement)
    series_calls = len(lp)
    alone = _alone(None, ctx, range(2, 9), refinement)
    assert any(made for made, _ in checks) and not any(kept for _, kept in checks)
    assert series_calls == len(lp) - series_calls == 37
    assert [t.capacity for t in rep.terms] == [r.value for r in alone]


def test_a_raised_proposal_is_refused_and_solved(monkeypatch):
    propose = DilationMemo.propose

    def raised(self, cloud, coll):
        out = propose(self, cloud, coll)
        return None if out is None else (1.01 * out[0], out[1])

    monkeypatch.setattr(DilationMemo, "propose", raised)
    lp = _record_lp(monkeypatch)
    checks = _record_checks(monkeypatch)
    lo = pc.lower_context(1)
    rep = pc.series_terms(TUBE, lo, range(5, 11), refinement=SMALL)
    series_calls = len(lp)
    alone = _alone(TUBE, lo, range(5, 11), SMALL)
    assert any(made for made, _ in checks) and not any(kept for _, kept in checks)
    assert series_calls == len(lp) - series_calls
    assert [t.capacity for t in rep.terms] == [r.value for r in alone]


def test_a_lowered_proposal_is_refused_and_solved(monkeypatch):
    # masses below the optimum stay primal feasible and the duals dual
    # feasible, so only the duality gap tells the proposal is not optimal
    propose = DilationMemo.propose

    def lowered(self, cloud, coll):
        out = propose(self, cloud, coll)
        return None if out is None else (0.99 * out[0], out[1])

    monkeypatch.setattr(DilationMemo, "propose", lowered)
    checks = _record_checks(monkeypatch)
    lo = pc.lower_context(1)
    one_level = Refinement(levels=(1,), resolution=SMALL.resolution)
    memo = DilationMemo()
    _, second = (
        capacity_of_region(CompactSet(dyadic_shell(lo, n), TUBE), refinement=one_level,
                           memo=memo)
        for n in (6, 7)
    )
    fresh = capacity_of_region(CompactSet(dyadic_shell(lo, 7), TUBE), refinement=one_level)
    assert checks == [(True, False)]
    assert second.diagnostics["lp_rounds"] > 0
    assert second.value == pytest.approx(fresh.value, rel=1e-9)
    assert second.duality_gap <= 1e-9


def test_an_upper_series_gets_no_proposal(monkeypatch):
    checks = _record_checks(monkeypatch)
    up = pc.upper_context(1)
    cloud = discretize(CompactSet(dyadic_shell(up, 3), None), SMALL.resolution)
    coll = build_collocation(cloud)
    memo = DilationMemo()
    memo.keep(cloud, np.ones(len(cloud)), np.ones(len(coll)))
    assert memo.propose(cloud, coll) is None
    rep = pc.series_terms(None, up, range(2, 6), refinement=SMALL)
    assert checks == [] and all(t.capacity > 0.0 for t in rep.terms)


def test_a_reused_shell_is_certified_on_its_own_clouds():
    lo = pc.lower_context(1)
    one_level = Refinement(levels=(1,), resolution=SMALL.resolution)
    memo = DilationMemo()
    # a probe seed of its own: the dilated probe cloud of the same seed would
    # give the first shell's probe maximum exactly
    first, second = (
        capacity_of_region(CompactSet(dyadic_shell(lo, n), TUBE), refinement=one_level,
                           probe_seed=seed, memo=memo)
        for n, seed in ((6, 5), (7, 6))
    )
    assert first.diagnostics["lp_rounds"] > 0 and second.diagnostics["lp_rounds"] == 0
    # the reused measure is the first one, dilated
    assert np.allclose(second.capacitary.masses, np.sqrt(2.0) * first.capacitary.masses,
                       rtol=1e-12, atol=0.0)
    cloud = discretize(CompactSet(dyadic_shell(lo, 7), TUBE), second.resolution)
    coll = build_collocation(cloud)
    mu = second.capacitary
    assert second.max_potential == pytest.approx(
        float(np.max(potential_batch(mu, coll.xs, coll.ts, lo))), rel=1e-12)
    px, pt = _probe_points(cloud, coll, 6)
    assert second.probe_max_potential == float(np.max(potential_batch(mu, px, pt, lo)))
    assert second.probe_max_potential != first.probe_max_potential
    assert second.duality_gap <= 1e-9 and second.comp_slack_residual <= 1e-9
