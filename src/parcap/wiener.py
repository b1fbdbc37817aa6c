"""Removability diagnosis through the capacity series over shrinking shells.

For an open set with the pole on its boundary, the singularity of the pole
function is removable exactly when the series

    sum_n  weight_n * capacity( complement  intersect  shell_n )

diverges, and non-removable when it converges.  The shells and weights come
from a ShellFamily of `geometry`: dyadic shells, or level shells for any
lambda above 1.  Larger n means shells marching toward the pole (time windows
approach t = 0 above, and recede to -infinity below); the report prints each
shell's time window so the orientation is auditable.

A finite truncation of an asymptotic dichotomy must be allowed to abstain:
the classifier fits the log-term trend over a trailing window and returns
removable (no summable decay), non-removable (geometric decay), or
inconclusive, with a confidence grade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .capacity import PROBE_SEED, DilationMemo, Refinement, capacity_of_region
from .geometry import CompactSet, DyadicShells, ShellFamily
from .kernel import PoleContext
from .regions import Region

__all__ = [
    "Verdict",
    "ClassifyPolicy",
    "ShellTerm",
    "SeriesReport",
    "classify",
    "series_terms",
]


class Verdict(Enum):
    REMOVABLE = "removable"          # series looks divergent
    NON_REMOVABLE = "non_removable"  # series looks convergent
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ClassifyPolicy:
    """Thresholds for the trailing-window trend fit.

    Slopes are of log(term) against n.  A slope above -eps_slope reads as
    non-summable; decay at ratio rho_max or faster reads as geometric.  The
    in-between band falls back on log-convexity: rising term ratios (as for
    1/n tails) lean removable with low confidence.
    """

    CONFIG_KEYS = ("eps_slope", "rho_max", "window", "min_terms")
    eps_slope: float = 0.05
    rho_max: float = 0.8
    window: int = 6
    min_terms: int = 6
    curvature_tol: float = 2e-3
    zero_floor: float = 1e-300

    def __post_init__(self):
        # a trend needs two points to fit and a ratio to take the log of
        for name in ("window", "min_terms"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2, got {getattr(self, name)}")
        if not self.rho_max > 0:
            raise ValueError(f"rho_max must be > 0, got {self.rho_max}")


@dataclass(frozen=True)
class ShellTerm:
    n: int
    capacity: float
    weight: float
    term: float
    converged: bool
    time_window: tuple[float, float]
    n_nodes: int
    level: int  # refinement level the capacity settled at
    # the capacity's certificates, computed on the shell's own clouds
    max_potential: float
    probe_max_potential: float
    comp_slack_residual: float
    duality_gap: float


@dataclass(frozen=True)
class SeriesReport:
    kind: str                      # "dyadic" or "lambda"
    lam: Optional[float]
    terms: tuple[ShellTerm, ...]
    partial_sums: tuple[float, ...]
    verdict: Verdict
    confidence: str                # "high" or "low"
    diagnostics: dict
    policy: ClassifyPolicy
    orientation: str = (
        "shell index n increases toward the pole; each term lists its time window"
    )


def classify(
    terms: Sequence[float],
    policy: ClassifyPolicy = ClassifyPolicy(),
    converged_flags: Optional[Sequence[bool]] = None,
) -> tuple[Verdict, str, dict]:
    """Verdict for a finite run of series terms.

    Returns (verdict, confidence, diagnostics).  Fewer than min_terms computed
    terms is inconclusive by definition.
    """
    terms = [float(t) for t in terms]
    diag: dict = {"n_terms": len(terms)}
    if len(terms) < policy.min_terms:
        diag["reason"] = "too few terms"
        return Verdict.INCONCLUSIVE, "low", diag

    window = terms[-policy.window :]
    flags = list(converged_flags) if converged_flags is not None else [True] * len(terms)
    window_flags = flags[-policy.window :]

    zero = [t <= policy.zero_floor for t in window]
    if all(zero):
        diag["reason"] = "terms vanish"
        return Verdict.NON_REMOVABLE, "high", diag
    if len(zero) >= 2 and zero[-1] and zero[-2]:
        diag["reason"] = "trailing terms vanish"
        return Verdict.NON_REMOVABLE, "high", diag
    if any(zero):
        diag["reason"] = "mixed zero and positive terms"
        return Verdict.INCONCLUSIVE, "low", diag

    logs = np.log(np.asarray(window))
    ns = np.arange(len(window), dtype=float)
    slope = float(np.polyfit(ns, logs, 1)[0])
    diag["slope"] = slope
    diag["decay_ratio"] = math.exp(slope)

    curv = float(np.mean(np.diff(logs, 2))) if len(logs) >= 3 else 0.0
    diag["curvature"] = curv

    if slope >= -policy.eps_slope:
        verdict, conf = Verdict.REMOVABLE, "high"
    elif slope <= math.log(policy.rho_max):
        verdict, conf = Verdict.NON_REMOVABLE, "high"
    elif curv > policy.curvature_tol:
        diag["reason"] = "sub-geometric decay with rising ratios"
        verdict, conf = Verdict.REMOVABLE, "low"
    else:
        diag["reason"] = "trend between thresholds"
        verdict, conf = Verdict.INCONCLUSIVE, "low"

    if not all(window_flags) and conf != "high":
        diag["reason"] = diag.get("reason", "") + "; unconverged shells in window"
        return Verdict.INCONCLUSIVE, "low", diag
    return verdict, conf, diag


def series_terms(
    region: Optional[Region],
    ctx: PoleContext,
    n_range: Optional[Sequence[int]] = None,
    *,
    family: ShellFamily = DyadicShells(),
    refinement: Refinement = Refinement(),
    policy: ClassifyPolicy = ClassifyPolicy(),
    probe_seed: int = PROBE_SEED,
) -> SeriesReport:
    """The family's series over its shells n_range (None: its own indices).

    Each shell's capacity is solved in the shell's own context; ``region``
    describes the complement set directly (None or a full region gives the
    bare shells; an empty region zeroes every term).  Every shell draws its
    probe cloud from ``probe_seed``.  One DilationMemo serves the call, so a
    shell that dilates an earlier one may reuse its solution once it passes
    on the new shell.
    """
    ns = family.indices(ctx.dim) if n_range is None else n_range
    memo = DilationMemo()
    out_terms: list[ShellTerm] = []
    sums: list[float] = []
    total = 0.0
    for n in ns:
        shell = family.shell(ctx, n)
        weight = family.weight(n, ctx.dim)
        result = capacity_of_region(
            CompactSet(shell, region), refinement=refinement, probe_seed=probe_seed, memo=memo
        )
        term = weight * result.value
        total += term
        sums.append(total)
        out_terms.append(
            ShellTerm(
                n=n,
                capacity=result.value,
                weight=weight,
                term=term,
                converged=result.converged,
                time_window=shell.time_window,
                n_nodes=int(result.diagnostics.get("n_nodes", 0)),
                level=result.resolution.level,
                max_potential=result.max_potential,
                probe_max_potential=result.probe_max_potential,
                comp_slack_residual=result.comp_slack_residual,
                duality_gap=result.duality_gap,
            )
        )
    verdict, conf, diag = classify(
        [t.term for t in out_terms], policy, [t.converged for t in out_terms]
    )
    return SeriesReport(
        kind=family.kind,
        lam=family.lam,
        terms=tuple(out_terms),
        partial_sums=tuple(sums),
        verdict=verdict,
        confidence=conf,
        diagnostics=diag,
        policy=policy,
    )
