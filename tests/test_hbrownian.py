import sys
import threading

import numpy as np
import pytest
from scipy import stats

import parcap as pc
from parcap import hbrownian
from parcap.hbrownian import (
    ClusterPolicy,
    ClusterVerdict,
    GridPolicy,
    cluster_probability,
    simulate,
    step_normals,
    transition_parameters,
    wilson_interval,
)
from parcap.kernel import DomainError
from parcap.regions import (
    AppellImage,
    EmptyRegion,
    FullRegion,
    HalfSpaceCut,
    Intersection,
    PowerProfile,
    SpaceBall,
    TimeSlab,
    Tube,
    Union,
)


def test_grid_policy_shapes():
    up = pc.upper_context(1)
    ts = GridPolicy(1.0, 1e-3, ratio=0.8).times(up)
    assert ts[0] == 1.0 and ts[-1] <= 1e-3
    assert np.all(np.diff(ts) < 0)
    lo = pc.lower_context(1)
    ts = GridPolicy(-1.0, -100.0, ratio=0.9).times(lo)
    assert ts[0] == -1.0 and ts[-1] <= -100.0
    assert np.all(np.diff(ts) < 0)
    with pytest.raises(ValueError):
        GridPolicy(1.0, 2.0).times(up)


def test_step_normals_keyed_streams():
    a = step_normals(7, 5, 2000, 3)
    assert np.array_equal(a, step_normals(7, 5, 2000, 3))
    assert np.array_equal(step_normals(7, 5, 800, 3), a[:800])  # prefix stable
    assert not np.array_equal(a, step_normals(7, 6, 2000, 3))
    assert not np.array_equal(a, step_normals(8, 5, 2000, 3))
    # standard normal at the 1 percent level
    ks = stats.kstest(a.ravel(), "norm")
    assert ks.pvalue > 0.01


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_step_normals_from_an_offset_continue_the_stream(dim):
    # most of these offsets start inside a Philox counter's four words
    for first in (1, 2, 3, 5, 7, 13, 1001):
        for n_paths in (0, 1, 6, 257):
            want = step_normals(7, 5, first + n_paths, dim)[first:]
            assert np.array_equal(step_normals(7, 5, n_paths, dim, first=first), want)
            assert np.array_equal(step_normals(7, 5, n_paths, dim, first=np.int64(first)), want)


def _clipped_normals(seed, step, n_paths, dim):
    """step_normals as a chain of fresh arrays with a two-sided clip: the
    reference for the in-place form."""
    from scipy.special import ndtri

    key = np.array([np.uint64(seed), np.uint64(step)], dtype=np.uint64)
    raw = np.random.Philox(key=key).random_raw(n_paths * dim)
    u = (raw >> np.uint64(11)).astype(np.float64) * (2.0**-53)
    u = np.clip(u, 1e-16, 1.0 - 1e-16)
    return ndtri(u).reshape(n_paths, dim)


@pytest.mark.parametrize("seed, step", [(0, 0), (7, 5), (401, 1234), (2**64 - 1, 2**40)])
def test_step_normals_match_the_clipped_reference_bit_for_bit(seed, step):
    # the largest u is 1 - 2**-53, the double that 1 - 1e-16 rounds to, so
    # the in-place form needs no upper clip
    assert 1.0 - 1e-16 == 1.0 - 2.0**-53
    for n_paths, dim in ((1, 1), (5000, 1), (3001, 2)):
        assert np.array_equal(step_normals(seed, step, n_paths, dim),
                              _clipped_normals(seed, step, n_paths, dim))


def _numerical_transition_oracle(ctx, x0, t, tau):
    """Normalization and moments of the weighted transition density by
    quadrature; the independent check of the closed-form Gaussian law."""
    ys = np.linspace(-40.0, 40.0, 160001)
    logF = -0.5 * np.log(4 * np.pi * (t - tau)) - (x0 - ys) ** 2 / (4 * (t - tau))
    if ctx.is_upper:
        g = float(ctx.gamma[0])
        logh_y = -0.5 * np.log(4 * np.pi * tau) - (ys - g) ** 2 / (4 * tau)
        logh_x = -0.5 * np.log(4 * np.pi * t) - (x0 - g) ** 2 / (4 * t)
    else:
        g = float(ctx.gamma[0])
        logh_y = ys * g + g * g * tau
        logh_x = x0 * g + g * g * t
    q = np.exp(logF + logh_y - logh_x)
    dy = ys[1] - ys[0]
    mass = float(np.sum(q) * dy)
    mean = float(np.sum(ys * q) * dy / mass)
    var = float(np.sum((ys - mean) ** 2 * q) * dy / mass)
    return mass, mean, var


@pytest.mark.parametrize(
    "make_ctx,t,tau",
    [
        (lambda: pc.upper_context(1, [0.5]), 1.2, 0.4),
        (lambda: pc.lower_context(1, [0.8]), -0.5, -2.1),
        (lambda: pc.lower_context(1, [0.0]), -0.5, -1.5),
    ],
)
def test_transition_parameters_match_density_quadrature(make_ctx, t, tau):
    ctx = make_ctx()
    x0 = 1.3
    mass, mean_o, var_o = _numerical_transition_oracle(ctx, x0, t, tau)
    assert mass == pytest.approx(1.0, abs=1e-6)  # proper probability density
    mean, std = transition_parameters(ctx, np.array([[x0]]), t, tau)
    assert mean[0, 0] == pytest.approx(mean_o, abs=1e-6)
    assert std**2 == pytest.approx(var_o, rel=1e-6)


def test_transition_parameters_closed_forms():
    up = pc.upper_context(2, [1.0, -1.0])
    x = np.array([[2.0, 0.0]])
    mean, std = transition_parameters(up, x, 1.0, 0.25)
    assert np.allclose(mean, up.gamma + (x - up.gamma) * 0.25)
    assert std == pytest.approx(np.sqrt(2 * 0.25 * 0.75 / 1.0))
    lo = pc.lower_context(2, [0.5, 0.0])
    mean, std = transition_parameters(lo, x, -1.0, -2.5)
    assert np.allclose(mean, x + 2.0 * lo.gamma * 1.5)
    assert std == pytest.approx(np.sqrt(2 * 1.5))
    with pytest.raises(DomainError):
        transition_parameters(up, x, 0.5, 0.5)


def test_simulate_empty_and_deterministic():
    up = pc.upper_context(1, [0.0])
    grid = GridPolicy(1.0, 1e-2, ratio=0.7)
    empty = simulate(pc.point([0.0], 1.0), grid, 0, up, seed=1)
    assert empty.paths.shape[0] == 0
    a = simulate(pc.point([0.0], 1.0), grid, 500, up, seed=9)
    b = simulate(pc.point([0.0], 1.0), grid, 500, up, seed=9)
    assert np.array_equal(a.paths, b.paths)
    c = simulate(pc.point([0.0], 1.0), grid, 500, up, seed=10)
    assert not np.array_equal(a.paths, c.paths)


def test_upper_paths_cluster_at_pole():
    g = np.array([0.7])
    up = pc.upper_context(1, g)
    ens = simulate(pc.point([2.0], 1.0), GridPolicy(1.0, 1e-4, ratio=0.8), 3000, up, seed=3)
    final = ens.paths[:, -1, :]
    t_last = float(ens.times[-1])
    assert abs(float(np.mean(final)) - 0.7) < 0.01
    # terminal spread matches the bridge variance scale and shrinks with t
    assert float(np.std(final)) < 3.0 * np.sqrt(2 * t_last)
    mid = ens.paths[:, len(ens.times) // 2, :]
    assert float(np.std(final)) < 0.2 * float(np.std(mid))


def test_lower_paths_follow_drift():
    g = np.array([1.0])
    lo = pc.lower_context(1, g)
    ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -60.0, ratio=0.85), 4000, lo, seed=5)
    expect = 2.0 * g[0] * (ens.times[0] - ens.times)
    err = np.abs(ens.paths[:, :, 0].mean(axis=0) - expect)
    se = np.sqrt(2.0 * (ens.times[0] - ens.times)) / np.sqrt(4000)
    assert np.all(err[1:] <= 4.0 * se[1:] + 1e-9)


def test_one_step_marginal_distribution_fit():
    up = pc.upper_context(1, [0.5])
    start = pc.point([2.0], 1.0)
    ens = simulate(start, GridPolicy(1.0, 0.4, ratio=0.4), 100_000, up, seed=11)
    mean, std = transition_parameters(up, start.x[None, :], 1.0, float(ens.times[1]))
    ks = stats.kstest(ens.paths[:, 1, 0], "norm", args=(mean[0, 0], std))
    assert ks.pvalue > 0.01


def test_wilson_interval_sane():
    lo_, hi_ = wilson_interval(50, 100)
    assert 0.4 < lo_ < 0.5 < hi_ < 0.6
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_cluster_probability_extremes_and_nesting():
    lo = pc.lower_context(1)
    ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -500.0, ratio=0.9), 2000, lo, seed=12)
    deltas = [-10.0, -50.0, -200.0]
    est0 = cluster_probability(ens, EmptyRegion(), deltas)
    assert est0.verdict is ClusterVerdict.P_ZERO and max(est0.frequencies) == 0.0
    est1 = cluster_probability(ens, FullRegion(), deltas)
    assert est1.verdict is ClusterVerdict.P_ONE and min(est1.frequencies) == 1.0
    tube = Tube(PowerProfile(1.0, 0.5))
    est = cluster_probability(ens, tube, deltas)
    freqs = list(est.frequencies)  # ascending delta = nested windows
    assert all(a <= b + 1e-12 for a, b in zip(freqs, freqs[1:]))


def test_cluster_probability_abstains_on_wide_intervals():
    lo = pc.lower_context(1)
    ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -100.0, ratio=0.9), 40, lo, seed=13)
    est = cluster_probability(ens, Tube(PowerProfile(1.0, 0.5)), [-50.0], ClusterPolicy(max_halfwidth=0.01))
    assert est.verdict is ClusterVerdict.INDETERMINATE


def test_paired_verdicts_match_series():
    # the probabilistic and capacity-series diagnoses agree domain by domain
    lo = pc.lower_context(1)
    ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -3000.0, ratio=0.9), 4000, lo, seed=99)
    deltas = [-30.0, -100.0, -300.0, -1000.0]
    fixtures = [
        (EmptyRegion(), ClusterVerdict.P_ZERO),
        (Tube(PowerProfile(1.5, 0.5)), ClusterVerdict.P_ONE),
        (Intersection([SpaceBall([0.0], 2.0), TimeSlab(-6.0, -1.0)]), ClusterVerdict.P_ZERO),
    ]
    for region, expected in fixtures:
        est = cluster_probability(ens, region, deltas)
        assert est.verdict is expected


def test_grid_refinement_hitting_bias_is_small():
    # hitting is grid-sampled; refining the grid must not move confident
    # frequencies by more than the sampling scale
    lo = pc.lower_context(1)
    tube = Tube(PowerProfile(1.5, 0.5))
    deltas = [-30.0, -100.0]
    freqs = []
    for ratio in (0.92, 0.85):
        ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -1000.0, ratio=ratio), 4000, lo, seed=77)
        est = cluster_probability(ens, tube, deltas)
        freqs.append(est.frequencies)
    assert abs(freqs[0][0] - freqs[1][0]) < 0.05
    assert abs(freqs[0][1] - freqs[1][1]) < 0.05


def test_ensemble_csv_export(tmp_path):
    lo = pc.lower_context(2, [0.0, 0.0])
    ens = simulate(pc.point([0.0, 0.0], -1.0), GridPolicy(-1.0, -2.0, ratio=0.7), 3, lo, seed=2)
    path = tmp_path / "paths.csv"
    ens.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "path,t,x1,x2"
    assert len(lines) == 1 + 3 * len(ens.times)


def test_simulate_refuses_a_negative_path_count():
    lo = pc.lower_context(1)
    with pytest.raises(ValueError, match="^n_paths"):
        simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -50.0), -1, lo, seed=1)


def test_blocks_rerun_the_ensemble_one_grid_time_at_a_time():
    up = pc.upper_context(2, [0.4, -0.2])
    ens = simulate(pc.point([1.0, 0.5], 1.0), GridPolicy(1.0, 1e-3, ratio=0.7), 300, up, seed=4)
    first = list(ens.blocks())
    assert "paths" not in vars(ens)
    assert len(first) == ens.times.shape[0]
    assert all(xs.shape == (300, 2) for xs in first)
    assert np.array_equal(np.stack(first, axis=1), ens.paths)
    assert all(np.array_equal(a, b) for a, b in zip(first, ens.blocks()))


def test_simulate_matches_path_major_loop():
    # the transition applied to one (n_paths, K, N) array, step by step
    for ctx, start, grid in [
        (pc.upper_context(2, [0.4, -0.2]), pc.point([1.0, 0.5], 1.0), GridPolicy(1.0, 1e-3, ratio=0.7)),
        (pc.lower_context(1, [0.3]), pc.point([0.0], -1.0), GridPolicy(-1.0, -80.0, ratio=0.85)),
    ]:
        n_paths, seed = 700, 21
        times = grid.times(ctx)
        want = np.zeros((n_paths, times.shape[0], ctx.dim))
        want[:, 0, :] = start.x
        for k in range(times.shape[0] - 1):
            mean, std = transition_parameters(ctx, want[:, k, :], float(times[k]), float(times[k + 1]))
            want[:, k + 1, :] = mean + std * step_normals(seed, k, n_paths, ctx.dim)
        got = simulate(start, grid, n_paths, ctx, seed).paths
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def _flat_mask_estimate(ens, region, deltas, policy=ClusterPolicy()):
    """Clustering from one membership call over the flattened (n_paths, K)
    grid and the whole hit mask: the reference for the per-time walk."""
    ctx, times, n_paths = ens.ctx, ens.times, ens.n_paths
    deltas = sorted(float(d) for d in deltas)
    if region is None or n_paths == 0:
        hit = np.zeros((n_paths, times.shape[0]), dtype=bool)
    else:
        flat_t = np.repeat(times[None, :], n_paths, axis=0).reshape(-1)
        hit = region.contains(ens.paths.reshape(-1, ctx.dim), flat_t, ctx).reshape(n_paths, -1)
    freqs, lo, hi = [], [], []
    for d in deltas:
        sel = times <= d
        k = int(np.sum(np.any(hit[:, sel], axis=1))) if np.any(sel) else 0
        a, b = wilson_interval(k, n_paths, policy.z)
        freqs.append(k / n_paths if n_paths else 0.0)
        lo.append(a)
        hi.append(b)
    halfwidth = 0.5 * (hi[0] - lo[0])
    diag = {"tight_halfwidth": halfwidth, "n_grid_in_tightest": int(np.sum(times <= deltas[0]))}
    if halfwidth > policy.max_halfwidth or n_paths == 0:
        verdict = ClusterVerdict.INDETERMINATE
        diag["reason"] = "confidence interval too wide"
    elif lo[0] >= policy.p_high:
        verdict = ClusterVerdict.P_ONE
    elif hi[0] <= policy.p_low:
        verdict = ClusterVerdict.P_ZERO
    else:
        verdict = ClusterVerdict.INDETERMINATE
        diag["reason"] = "frequency between thresholds"
    return pc.ClusterEstimate(tuple(deltas), tuple(freqs), tuple(lo), tuple(hi), verdict,
                              n_paths, int(times.shape[0]), diag)


CLUSTER_CASES = [
    *(f"lower-{name}" for name in ("empty", "full", "tube", "slab_cut", "none")),
    *(f"upper-{name}" for name in ("empty", "full", "tube", "slab_cut", "appell_union", "none")),
    "no_paths",
]


@pytest.fixture(scope="module")
def cluster_cases():
    """name -> (ensemble, region, deltas) in both half-spaces; the deltas
    sit on grid times, between them, and past the grid's end."""
    lo = pc.lower_context(1)
    up = lo.mirror()
    lo_ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -3000.0, ratio=0.9), 3000, lo, seed=41)
    up_ens = simulate(pc.point([1.0], 1.0), GridPolicy(1.0, 2e-4, ratio=0.9), 3000, up, seed=42)
    lo_deltas = [float(lo_ens.times[30]), -100.0, float(lo_ens.times[60]), -1000.0, -5000.0]
    up_deltas = [float(up_ens.times[40]), 0.01, float(up_ens.times[70]), 0.05, 1e-5]
    tube = Tube(PowerProfile(1.5, 0.5))
    lo_box = Intersection([TimeSlab(-400.0, -20.0), HalfSpaceCut([1.0], -0.5)])
    regions = {
        "lower": {"empty": EmptyRegion(), "full": FullRegion(), "tube": tube,
                  "slab_cut": lo_box, "none": None},
        "upper": {"empty": EmptyRegion(), "full": FullRegion(), "tube": tube,
                  "slab_cut": Intersection([TimeSlab(0.001, 0.1), HalfSpaceCut([1.0], 0.0)]),
                  "appell_union": AppellImage(Union([Tube(PowerProfile(0.5, 0.5), axis="drift"),
                                                     lo_box])),
                  "none": None},
    }
    cases = {
        f"{side}-{name}": (ens, region, deltas)
        for side, ens, deltas in (("lower", lo_ens, lo_deltas), ("upper", up_ens, up_deltas))
        for name, region in regions[side].items()
    }
    no_paths = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -50.0, ratio=0.8), 0, lo, seed=1)
    cases["no_paths"] = (no_paths, tube, [-10.0, -40.0])
    return cases


@pytest.mark.parametrize("name", CLUSTER_CASES)
def test_cluster_probability_equals_flat_mask_reference(cluster_cases, name):
    ens, region, deltas = cluster_cases[name]
    got = cluster_probability(ens, region, deltas)
    assert got == _flat_mask_estimate(ens, region, deltas)
    if isinstance(region, FullRegion):
        # every path is in the region at every time, but no grid time lies
        # at or beyond the tightest delta
        assert got.frequencies[0] == 0.0 and got.frequencies[1:] == (1.0,) * 4


def test_cluster_probability_memory_is_o_n_paths():
    # beyond the path array, clustering keeps O(n_paths) per grid time: well
    # under one byte per (path, time), where a whole-grid mask alone takes one
    import tracemalloc

    lo = pc.lower_context(1)
    ens = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -3000.0, ratio=0.9), 20_000, lo, seed=5)
    n_paths, K, _ = ens.paths.shape
    assert K == 77
    tube = Tube(PowerProfile(1.5, 0.5))
    tracemalloc.start()
    try:
        cluster_probability(ens, tube, [-30.0, -100.0, -300.0, -1000.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_paths * K


def test_clustering_a_fresh_ensemble_never_builds_the_path_array():
    # simulating and clustering together stay under one byte per (path, time),
    # an eighth of the path array, which is never built
    import tracemalloc

    lo = pc.lower_context(1)
    grid = GridPolicy(-1.0, -3000.0, ratio=0.9)
    n_paths, K = 20_000, grid.times(lo).shape[0]
    assert K == 77
    tube = Tube(PowerProfile(1.5, 0.5))
    step_normals(5, 0, 1, 1)  # scipy.special loads at the first step
    tracemalloc.start()
    try:
        ens = simulate(pc.point([0.0], -1.0), grid, n_paths, lo, seed=5)
        cluster_probability(ens, tube, [-30.0, -100.0, -300.0, -1000.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "paths" not in vars(ens)
    assert peak < n_paths * K


def _walk_cases():
    """(ensemble, region, deltas) in 1-D below and 3-D above, per path count."""
    lo = pc.lower_context(1)
    up = pc.upper_context(3, [0.3, -0.2, 0.1])
    lo_region = Union([Tube(PowerProfile(1.5, 0.5)),
                       Intersection([TimeSlab(-40.0, -5.0), HalfSpaceCut([1.0], -2.0)])])
    up_region = Union([Tube(PowerProfile(1.0, 0.5)),
                       Intersection([TimeSlab(0.002, 0.05), HalfSpaceCut([1.0, 1.0, -1.0], 0.0)])])
    return {
        "lower_1d": (lambda n: simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -200.0, ratio=0.8),
                                        n, lo, seed=51),
                     lo_region, [-10.0, -50.0, -150.0]),
        "upper_3d": (lambda n: simulate(pc.point([1.0, 0.5, -0.5], 1.0),
                                        GridPolicy(1.0, 1e-3, ratio=0.8), n, up, seed=52),
                     up_region, [0.1, 0.01, 0.002]),
    }


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("n_paths", [0, 1, 3, 1001])
@pytest.mark.parametrize("case", ["lower_1d", "upper_3d"])
def test_chunked_walk_equals_the_flat_mask_reference(monkeypatch, case, n_paths, workers):
    make, region, deltas = _walk_cases()[case]
    ref = make(n_paths)  # one chunk, built before the chunk size shrinks
    want = _flat_mask_estimate(ref, region, deltas)
    # chunks of 7 paths cut Philox counters in every dimension but 4
    monkeypatch.setattr(hbrownian, "_CHUNK_PATHS", 7)
    monkeypatch.setattr(hbrownian, "_workers", lambda: workers)
    assert cluster_probability(make(n_paths), region, deltas) == want
    chunked = make(n_paths)
    assert np.array_equal(chunked.paths, ref.paths)
    lo_, hi_ = min(5, n_paths), min(12, n_paths)
    assert np.array_equal(np.stack(list(chunked.blocks(lo_, hi_)), axis=1), ref.paths[lo_:hi_])
    if n_paths == 1001:
        assert 0.0 < want.frequencies[-1] < 1.0  # the region splits the paths


class _Boom(RuntimeError):
    pass


class _FailsOnTheLastChunk:
    """Membership that raises on blocks of `rows` paths, the last chunk's size."""

    def __init__(self, rows):
        self.rows = rows

    def contains(self, xs, ts, ctx):
        if xs.shape[0] == self.rows:
            raise _Boom("membership failed")
        return np.zeros(xs.shape[0], dtype=bool)


@pytest.mark.parametrize("workers", [1, 3])
def test_an_exception_in_one_chunk_reaches_the_caller(monkeypatch, workers):
    make, _, deltas = _walk_cases()["lower_1d"]
    monkeypatch.setattr(hbrownian, "_CHUNK_PATHS", 7)
    monkeypatch.setattr(hbrownian, "_workers", lambda: workers)
    before = threading.active_count()
    with pytest.raises(_Boom, match="membership failed"):
        cluster_probability(make(1000), _FailsOnTheLastChunk(1000 % 7), deltas)
    assert threading.active_count() == before


def test_chunk_map_under_contention(monkeypatch):
    # more threads than cores and a short switch interval: every chunk runs
    # exactly once and the results come back in chunk order
    monkeypatch.setattr(hbrownian, "_CHUNK_PATHS", 7)
    monkeypatch.setattr(hbrownian, "_workers", lambda: 8)
    calls = []
    lock = threading.Lock()

    def fn(lo, hi):
        with lock:
            calls.append(lo)
        return (lo, hi)

    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = hbrownian._map_chunks(fn, 1001)
    finally:
        sys.setswitchinterval(interval)
    edges = list(range(0, 1001, 7)) + [1001]
    assert got == list(zip(edges[:-1], edges[1:]))
    assert sorted(calls) == edges[:-1]
    assert threading.active_count() == before
