"""Conditioned Brownian motion run downward in time, with exact transitions.

Weighting the heat kernel by the pole function conditions the process: above,
paths form a space-time bridge pinned to the pole (gamma, 0) as t drops to 0;
below, paths drift along 2 gamma per unit of elapsed downward time forever.
Both one-step transition laws are Gaussian in closed form,

    upper:  mean gamma + (x - gamma) (tau / t),  variance 2 tau (t - tau) / t
    lower:  mean x + 2 gamma (t - tau),          variance 2 (t - tau)

per coordinate, so sampling on any grid is exact in law: no discretization
drift, only grid-sampled hitting detection.  Time grids are geometric and
accumulate at the pole, where the clustering question lives.

Randomness is counter-based: each grid step draws from its own keyed stream
(seed, step), normals via inverse transform, so ensembles are reproducible
bit for bit under any execution schedule and stable under path-count growth.

An ensemble is a description, not an array: its context, start, grid, path
count and seed.  `blocks(lo, hi)` runs the transitions of paths lo..hi
afresh and yields one (hi - lo, N) block of positions per grid time,
keeping only the current one alive; it draws words lo * N onward of each
step's stream, so every run of any path range is the same bit for bit.
Both readers cut the ensemble into chunks of at most `_CHUNK_PATHS` paths
and walk each chunk's whole grid on a thread pool of up to one thread per
available core (`concurrent.futures`): numpy and scipy.special release the
interpreter lock in the Philox, inverse-normal and membership kernels that
take nearly all of the time.
Clustering keeps one integer per path, the deepest grid index at which the
path was in the region, so it needs O(n_paths) memory in all, plus one
block per running chunk.  Only `paths`, the (n_paths, K, N) array that the
CSV writer reads, holds the whole ensemble; it is built at its first use,
each chunk writing its own path slice, and kept.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .kernel import DomainError, PoleContext, SpaceTimePoint
from .regions import Region

__all__ = [
    "GridPolicy",
    "PathEnsemble",
    "ClusterPolicy",
    "ClusterVerdict",
    "ClusterEstimate",
    "step_normals",
    "transition_parameters",
    "simulate",
    "cluster_probability",
    "wilson_interval",
]


@dataclass(frozen=True)
class GridPolicy:
    """Geometric grid from t_start toward the pole.

    Above: times t_start * ratio^k down to t_end (0 < t_end < t_start).
    Below: magnitudes grow geometrically, t_start / ratio^k down to t_end
    (t_end < t_start < 0).
    """

    t_start: float
    t_end: float
    ratio: float = 0.9

    def times(self, ctx: PoleContext) -> np.ndarray:
        if not (0.0 < self.ratio < 1.0):
            raise ValueError("ratio must lie in (0, 1)")
        ctx.require(self.t_start)
        ctx.require(self.t_end)
        if ctx.is_upper:
            if not (self.t_end < self.t_start):
                raise ValueError("need t_end < t_start")
            k = int(np.ceil(np.log(self.t_end / self.t_start) / np.log(self.ratio)))
            ts = self.t_start * self.ratio ** np.arange(k + 1)
        else:
            if not (self.t_end < self.t_start):
                raise ValueError("need t_end < t_start (more negative)")
            k = int(np.ceil(np.log(self.t_end / self.t_start) / np.log(1.0 / self.ratio)))
            ts = self.t_start / self.ratio ** np.arange(k + 1)
        if ts.shape[0] < 2:
            raise ValueError("grid must contain at least two times")
        return ts


@dataclass(frozen=True)
class PathEnsemble:
    """n_paths exact paths from start over the grid times, keyed by seed."""

    ctx: PoleContext
    start: SpaceTimePoint
    times: np.ndarray            # strictly decreasing, times[0] == start.t
    n_paths: int
    seed: int

    def blocks(self, lo: int = 0, hi: Optional[int] = None) -> Iterator[np.ndarray]:
        """The (hi - lo, N) positions of paths lo..hi at each grid time in
        turn; step k draws its normals from the stream (seed, k), starting at
        path lo's words."""
        hi = self.n_paths if hi is None else hi
        xs = np.full((hi - lo, self.ctx.dim), self.start.x)
        yield xs
        for k in range(self.times.shape[0] - 1):
            xs, std = transition_parameters(
                self.ctx, xs, float(self.times[k]), float(self.times[k + 1]))
            xs += std * step_normals(self.seed, k, hi - lo, self.ctx.dim, first=lo)
            yield xs

    @cached_property
    def paths(self) -> np.ndarray:
        """All positions, (n_paths, K, N): a view of time-major storage."""
        steps = np.empty((self.times.shape[0], self.n_paths, self.ctx.dim))

        def fill(lo: int, hi: int) -> None:
            for k, xs in enumerate(self.blocks(lo, hi)):
                steps[k, lo:hi] = xs

        _map_chunks(fill, self.n_paths)
        return steps.transpose(1, 0, 2)

    def to_csv(self, path) -> None:
        """One row per (path, time): path index, t, coordinates."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["path", "t"] + [f"x{i+1}" for i in range(self.ctx.dim)])
            for p in range(self.n_paths):
                for k, t in enumerate(self.times):
                    w.writerow(
                        [p, repr(float(t))]
                        + [repr(float(v)) for v in self.paths[p, k]]
                    )


def step_normals(
    seed: int, step: int, n_paths: int, dim: int, first: int = 0
) -> np.ndarray:
    """Standard normals for paths first..first + n_paths of one grid step,
    from a keyed counter stream: words first * dim onward of (seed, step).

    Philox makes four 64-bit words per counter, so the stream is advanced
    by whole counters and the remainder dropped.  The top 53 bits of each
    raw word give u in [0, 1 - 2**-53]; u is raised to at least 1e-16 and
    never needs lowering, since 1 - 2**-53 is the double nearest 1 - 1e-16."""
    from scipy.special import ndtri  # scipy.special loads at the first step

    key = np.array([np.uint64(seed), np.uint64(step)], dtype=np.uint64)
    skip = int(first) * dim  # Philox.advance refuses numpy integers
    bitgen = np.random.Philox(key=key)
    bitgen.advance(skip // 4)
    raw = bitgen.random_raw(skip % 4 + n_paths * dim)[skip % 4:]
    raw >>= np.uint64(11)
    u = raw.astype(np.float64)
    u *= 2.0**-53
    np.maximum(u, 1e-16, out=u)
    return ndtri(u, out=u).reshape(n_paths, dim)


# Paths per chunk of an ensemble walk.  Chunks are the unit of work of the
# walk's threads; each holds a few (chunk, N) arrays per grid time, so the
# size bounds the walk's memory as well as its scheduling grain.  On two
# cores, with 2e5 and 1e5 paths over 77 and 80 grid times, 50k-path chunks
# ran about 4% faster than 25k and peaked 3 MB higher; 12.5k paid for the
# per-step Python calls, and 100k rose 6 MB in peak memory.
_CHUNK_PATHS = 50_000


def _workers() -> int:
    """Threads for an ensemble walk: the cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_chunks(fn: Callable[[int, int], object], n_paths: int) -> list:
    """fn(lo, hi) over consecutive chunks of at most _CHUNK_PATHS paths that
    cover 0..n_paths (one empty chunk when there are none), results in chunk
    order.  Up to `_workers()` threads of a ThreadPoolExecutor take the
    chunks; with one, the calling thread runs them.  An exception raised by
    fn, or an interrupt, drops the chunks not yet started, and every thread
    is joined before this returns or raises."""
    chunks = [(lo, min(lo + _CHUNK_PATHS, n_paths))
              for lo in range(0, max(n_paths, 1), _CHUNK_PATHS)]
    workers = min(_workers(), len(chunks))
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in chunks]
    # imported here: concurrent.futures loads logging, which set-up never needs
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(workers, thread_name_prefix="parcap-walk")
    try:
        return list(pool.map(fn, *zip(*chunks)))
    finally:
        pool.shutdown(cancel_futures=True)


def transition_parameters(
    ctx: PoleContext, xs: np.ndarray, t: float, next_t: float
) -> tuple[np.ndarray, float]:
    """Gaussian mean array and per-coordinate standard deviation for one step."""
    if next_t >= t:
        raise DomainError(f"downward step needs next_t < t, got {next_t} >= {t}")
    ctx.require(t)
    ctx.require(next_t)
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    mean = ctx.carry(xs, t, next_t)
    if ctx.is_upper:
        var = 2.0 * next_t * (t - next_t) / t
    else:
        var = 2.0 * (t - next_t)
    return mean, float(np.sqrt(var))


def simulate(
    start: SpaceTimePoint,
    grid: GridPolicy,
    n_paths: int,
    ctx: PoleContext,
    seed: int,
) -> PathEnsemble:
    """Exact-in-law ensemble over the grid times, reproducible from the seed.
    Nothing is sampled here: the ensemble runs its paths when read."""
    if start.dim != ctx.dim:
        raise DomainError(f"start dim {start.dim} vs context dim {ctx.dim}")
    if n_paths < 0:
        raise ValueError(f"n_paths must be >= 0, got {n_paths}")
    ctx.require(start.t)
    times = grid.times(ctx)
    if abs(times[0] - start.t) > 1e-12 * max(1.0, abs(start.t)):
        raise ValueError("grid must start at the start point's time")
    return PathEnsemble(ctx, start, times, n_paths, seed)


# ---------------------------------------------------------------------------
# clustering estimates
# ---------------------------------------------------------------------------

class ClusterVerdict(Enum):
    P_ONE = "p_one"
    P_ZERO = "p_zero"
    INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class ClusterPolicy:
    p_high: float = 0.85
    p_low: float = 0.15
    z: float = 1.96
    max_halfwidth: float = 0.05  # required CI half-width at the tightest level


@dataclass(frozen=True)
class ClusterEstimate:
    deltas: tuple[float, ...]
    frequencies: tuple[float, ...]
    ci_low: tuple[float, ...]
    ci_high: tuple[float, ...]
    verdict: ClusterVerdict
    n_paths: int
    grid_times: int
    diagnostics: dict


def wilson_interval(k: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


def cluster_probability(
    ensemble: PathEnsemble,
    region: Optional[Region],
    deltas: Sequence[float],
    policy: ClusterPolicy = ClusterPolicy(),
) -> ClusterEstimate:
    """Frequency of grid-sampled visits to the complement set near the pole.

    For each threshold delta the event is: some grid time at or beyond delta
    (toward the pole) lands in the region.  Frequencies are nested in delta
    by construction.  The verdict extrapolates the trend toward the pole;
    abstains when the tightest confidence interval is too wide or the trend
    sits between the thresholds.  Grid resolution is reported because hitting
    is only checked at grid times (under-detection is possible, not hidden).

    Membership is asked once per grid time and chunk of paths, on that
    chunk's block.  Each path keeps only the deepest grid index at which it
    was in the region (-1 if never): the grid decreases toward the pole, so
    the times at or beyond delta are a suffix of it, and a path visits that
    suffix exactly when its deepest hit lies in it.
    """
    ctx = ensemble.ctx
    times = ensemble.times
    n_paths = ensemble.n_paths
    deltas = sorted(float(d) for d in deltas)
    if not deltas:
        raise ValueError("need at least one delta level")
    for d in deltas:
        ctx.require(d)

    if region is None:
        deepest = np.full(n_paths, -1)
    else:
        def walk(lo: int, hi: int) -> np.ndarray:
            deep = np.full(hi - lo, -1)
            ts = np.empty(hi - lo)
            for k, (t, xs) in enumerate(zip(times, ensemble.blocks(lo, hi))):
                ts.fill(t)
                deep[region.contains(xs, ts, ctx)] = k
            return deep

        deepest = np.concatenate(_map_chunks(walk, n_paths))

    freqs, lo, hi = [], [], []
    for d in deltas:
        first = int(np.searchsorted(-times, -d))  # first grid index with t <= d
        k = int(np.count_nonzero(deepest >= first))
        f = k / n_paths if n_paths else 0.0
        a, b = wilson_interval(k, n_paths, policy.z)
        freqs.append(f)
        lo.append(a)
        hi.append(b)

    # tightest level = smallest delta above, most negative below: deltas are
    # sorted ascending, so index 0 is nearest the pole in both half-spaces
    f0, lo0, hi0 = freqs[0], lo[0], hi[0]
    halfwidth = 0.5 * (hi0 - lo0)
    diag = {"tight_halfwidth": halfwidth, "n_grid_in_tightest": int(np.sum(times <= deltas[0]))}
    if halfwidth > policy.max_halfwidth or n_paths == 0:
        verdict = ClusterVerdict.INDETERMINATE
        diag["reason"] = "confidence interval too wide"
    elif lo0 >= policy.p_high:
        verdict = ClusterVerdict.P_ONE
    elif hi0 <= policy.p_low:
        verdict = ClusterVerdict.P_ZERO
    else:
        verdict = ClusterVerdict.INDETERMINATE
        diag["reason"] = "frequency between thresholds"

    return ClusterEstimate(
        deltas=tuple(deltas),
        frequencies=tuple(freqs),
        ci_low=tuple(lo),
        ci_high=tuple(hi),
        verdict=verdict,
        n_paths=n_paths,
        grid_times=int(times.shape[0]),
        diagnostics=diag,
    )
