"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figures when run with -s (or visible via -rP).  Tolerances are
pinned here, not configured elsewhere.
"""

import json
import time

import numpy as np
import pytest
from scipy import stats

import parcap as pc
from parcap.appell import AppellDirection as D
from parcap.averaging import harnack_check, mean_value, phi, phi_prime
from parcap.capacity import Refinement, build_collocation, capacity, capacity_of_region
from parcap.cli import main as cli_main
from parcap.geometry import HeatBall, NodeCloud, Resolution, default_time_center, discretize
from parcap.hbrownian import ClusterVerdict, GridPolicy, cluster_probability, simulate, transition_parameters
from parcap.kernel import log_heat_kernel, log_pole_weight
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
from parcap.wiener import Verdict, series_terms

_cache: dict = {}


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. kernel exponent identity
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (1, 2, 3):
        x = rng.normal(size=(10_000, dim))
        y = rng.normal(size=(10_000, dim))
        t = rng.uniform(0.3, 3.0, 10_000)
        tau = rng.uniform(0.05, 0.9, 10_000) * t / 3.0
        lhs = np.sum((tau[:, None] * x - t[:, None] * y) ** 2, axis=1) / (
            4 * t * tau * (t - tau)
        ) - np.sum(y**2, axis=1) / (4 * tau)
        rhs = np.sum((x - y) ** 2, axis=1) / (4 * (t - tau)) - np.sum(x**2, axis=1) / (4 * t)
        rel = np.abs(lhs - rhs) / np.maximum.reduce(
            [np.ones_like(lhs), np.abs(lhs), np.abs(rhs)]
        )
        worst = max(worst, float(np.max(rel)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"exponent identity, worst rel err {worst:.2e} over 3x10^4 points, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. half-space exchange suite
# ---------------------------------------------------------------------------

def test_criterion_2_appell_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    dim = 2
    g = np.array([0.6, -0.4])
    up = pc.upper_context(dim, g)
    lo = up.mirror()

    xs = rng.normal(size=(10_000, dim))
    ts = rng.uniform(0.01, 10.0, 10_000)
    fx, ft = pc.appell.appell_map_arrays(xs, ts, D.FORWARD)
    bx, bt = pc.appell.appell_map_arrays(fx, ft, D.BACKWARD)
    rt = max(
        float(np.max(np.abs(bx - xs) / (1 + np.abs(xs)))),
        float(np.max(np.abs(bt - ts) / (1 + np.abs(ts)))),
    )
    assert rt <= 1e-12

    h_up = lambda xs, ts: np.exp(log_pole_weight(xs, ts, up))
    Ah = pc.appell_transform(h_up, D.FORWARD)
    draws = [(rng.normal(size=dim), -rng.uniform(0.02, 4.0)) for _ in range(1000)]
    xs = np.array([x for x, _ in draws])
    ts = np.array([t for _, t in draws])
    want = np.exp(log_pole_weight(xs, ts, lo))
    worst_h = float(np.max(np.abs(Ah(xs, ts) - want) / want))
    assert worst_h <= 1e-10

    worst_k = 0.0
    for _ in range(300):
        w = pc.point(rng.normal(size=dim), rng.uniform(0.1, 2.0))
        wt = pc.appell_map(w, D.FORWARD)
        x = rng.normal(size=dim)
        t = wt.t * rng.uniform(0.3, 0.9)  # after the image source
        Fw = lambda ys, ss: np.exp(log_heat_kernel(np.sum((ys - w.x) ** 2, axis=1), ss - w.t, dim))
        got = pc.appell_transform(Fw, D.FORWARD)(x[None, :], np.array([t]))[0]
        pre = (-4.0 * np.pi * wt.t) ** (0.5 * dim) * np.exp(-np.dot(wt.x, wt.x) / (4.0 * wt.t))
        want = pre * pc.heat_kernel(pc.point(x, t), wt)
        assert want > 0.0
        worst_k = max(worst_k, abs(got - want) / want)
    assert worst_k <= 1e-10

    ratios = []
    for u in (lambda xs, ts: ts, lambda xs, ts: xs[:, 0]):
        z = pc.point(rng.normal(size=dim) * 0.3, 0.8)
        r1 = pc.verify_h_identities(u, z, up, step=8e-3).residual
        r2 = pc.verify_h_identities(u, z, up, step=4e-3).residual
        assert r2 < 1e-5
        ratios.append(r1 / max(r2, 1e-300))
    assert min(ratios) >= 3.0  # at least quadratic decay under halving

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        2,
        f"round trip {rt:.1e}, pole transport {worst_h:.1e}, kernel transport "
        f"{worst_k:.1e}, operator-identity halving ratios {min(ratios):.1f}x, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. geometry
# ---------------------------------------------------------------------------

def test_criterion_3_geometry():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    configs = [
        (pc.upper_context(1, [0.0]), 1.0),
        (pc.upper_context(1, [1.0]), 2.0),
        (pc.lower_context(1, [0.0]), 1.0),
        (pc.lower_context(1, [1.0]), 0.6),
    ]
    for ctx, c in configs:
        ball = HeatBall(ctx, default_time_center(ctx), c)
        lo_t, hi_t = ball.time_window
        span = hi_t - lo_t
        ts = rng.uniform(lo_t - 0.2 * span, hi_t + 0.02 * span, 10_000)
        ts = ts[np.asarray(ctx.admits(ts))]
        radii = ball.radius(ts)
        axes = ball.axis(ts)
        xs = axes + (rng.normal(size=ts.shape) * np.maximum(radii, 0.3) * 1.2)[:, None]
        ratios = pc.kernel_ratio_matrix(
            ball.center.x[None, :], np.array([ball.center.t]), xs, ts, ctx
        )[0]
        keep = np.abs(ratios - ball.level) >= 1e-10 * ball.level
        agree = (ratios[keep] > ball.level) == ball.contains(xs[keep], ts[keep])
        assert bool(np.all(agree)), f"membership disagreement in {ctx.half_space}"

    lo = pc.lower_context(2, [0.3, -0.1])
    worst_max = 0.0
    for c in (0.5, 1.0, 4.0):
        ball = HeatBall(lo, -0.25, c)
        got = float(ball.radius(np.array([-0.25 - c / np.e]))[0])
        want = np.sqrt(2 * 2 * c / np.e)
        worst_max = max(worst_max, abs(got - want) / want)
    assert worst_max <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(
        3,
        f"level-set membership agrees on 4x10^4 points, section maximum err "
        f"{worst_max:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. capacity
# ---------------------------------------------------------------------------

def _subcloud(cloud: NodeCloud, mask) -> NodeCloud:
    return NodeCloud(
        cloud.xs[mask], cloud.ts[mask], cloud.cell_dts[mask], cloud.cell_drs[mask],
        cloud.resolution, cloud.ctx, cloud.n_candidates,
    )


def test_criterion_4_capacity():
    start = time.perf_counter()
    lo = pc.lower_context(1)
    tol = 1e-3
    deep = Refinement(levels=(0, 1, 2, 3), tol=tol)

    family = {
        "shell_n0": (0, None),
        "shell_n1": (1, None),
        "shell_n2": (2, None),
        "ball_small": (2, SpaceBall([0.0], 1.5)),
        "ball_big": (2, SpaceBall([0.0], 2.5)),
        "tube": (2, Tube(PowerProfile(1.3, 0.5))),
        "slab": (2, TimeSlab(-2.0, -0.9)),
        "tube_or_slab": (2, Union([Tube(PowerProfile(1.3, 0.5)), TimeSlab(-2.0, -0.9)])),
        "tube_and_slab": (2, Intersection([Tube(PowerProfile(1.3, 0.5)), TimeSlab(-2.0, -0.9)])),
        "halfspace": (2, HalfSpaceCut([1.0], 0.5)),
    }
    worst_probe, worst_time = 0.0, 0.0
    for name, (n, reg) in family.items():
        t0 = time.perf_counter()
        res = capacity_of_region(
            pc.CompactSet(pc.dyadic_shell(lo, n), reg), refinement=deep
        )
        dt = time.perf_counter() - t0
        worst_time = max(worst_time, dt)
        worst_probe = max(worst_probe, res.probe_max_potential)
        assert res.max_potential <= 1.0 + tol, name
        assert res.probe_max_potential <= 1.0 + tol, name
        assert res.comp_slack_residual < 1e-6, name
        assert dt < 60.0, name

    # monotonicity and strong subadditivity at one shared discretization
    master = discretize(
        pc.CompactSet(pc.dyadic_shell(lo, 2), None), Resolution(level=2)
    )
    coll = build_collocation(master)
    regions = {k: v[1] for k, v in family.items() if v[1] is not None}
    masks = {k: r.contains(master.xs, master.ts, lo) for k, r in regions.items()}
    masks["full"] = np.ones(len(master), dtype=bool)
    vals = {k: capacity(_subcloud(master, m), collocation=coll).value for k, m in masks.items()}
    for small, big in (("ball_small", "ball_big"), ("tube", "tube_or_slab"), ("slab", "full")):
        assert vals[small] <= vals[big] * (1.0 + tol), (small, big)
    sub_margin = np.inf
    for a, b in (("tube", "slab"), ("ball_small", "halfspace"), ("ball_big", "slab")):
        mu_ = masks[a] | masks[b]
        mi = masks[a] & masks[b]
        vu = capacity(_subcloud(master, mu_), collocation=coll).value
        vi = capacity(_subcloud(master, mi), collocation=coll).value if mi.any() else 0.0
        bound = vals[a] + vals[b]
        assert vu + vi <= bound + tol * bound + 1e-9, (a, b)
        sub_margin = min(sub_margin, bound + tol * bound - vu - vi)

    # half-space exchange invariance of shell capacity at matched resolution
    worst_inv = 0.0
    for dim, shells, refinement in (
        (1, (0, 2), deep),
        (2, (0, 2), Refinement(levels=(0, 1), tol=tol,
                               resolution=Resolution(base_time=10, base_radial=2))),
    ):
        up_d = pc.upper_context(dim)
        lo_d = up_d.mirror()
        for n in shells:
            t0 = time.perf_counter()
            vu = capacity_of_region(
                pc.CompactSet(pc.dyadic_shell(up_d, n), None), refinement=refinement
            ).value
            vl = capacity_of_region(
                pc.CompactSet(pc.dyadic_shell(lo_d, n), None), refinement=refinement
            ).value
            assert time.perf_counter() - t0 < 120.0
            rel = abs(vu - vl) / vl
            worst_inv = max(worst_inv, rel)
            assert rel <= 0.05, (dim, n, vu, vl)

    elapsed = time.perf_counter() - start
    _report(
        4,
        f"family probe max {worst_probe:.5f} <= 1.001, slowest set {worst_time:.1f}s, "
        f"subadditivity margin {sub_margin:.2e}, exchange invariance {worst_inv:.3%}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 5. removability series
# ---------------------------------------------------------------------------

def _series_fixtures(lo):
    return {
        "empty": EmptyRegion(),
        "full": FullRegion(),
        "tube": Tube(PowerProfile(1.5, 0.5)),
        "far_box": Intersection([SpaceBall([0.0], 2.0), TimeSlab(-6.0, -1.0)]),
    }


EXPECTED_VERDICT = {
    "empty": Verdict.NON_REMOVABLE,
    "full": Verdict.REMOVABLE,
    "tube": Verdict.REMOVABLE,
    "far_box": Verdict.NON_REMOVABLE,
}


def _series_results():
    if "series" in _cache:
        return _cache["series"]
    lo = pc.lower_context(1)
    up = lo.mirror()
    loose = Refinement(tol=1e-2)
    out = {"dyadic": {}, "dual": {}, "lambda": {}}
    for name, region in _series_fixtures(lo).items():
        out["dyadic"][name] = series_terms(region, lo, refinement=loose)
        out["dual"][name] = series_terms(AppellImage(region), up, refinement=loose)
        out["lambda"][name] = {
            lam: series_terms(region, lo, family=pc.LevelShells(lam), refinement=loose)
            for lam in (1.5, 2.0, 4.0)
        }
    _cache["series"] = out
    return out


def test_criterion_5_wiener_series():
    start = time.perf_counter()
    results = _series_results()

    for name, expected in EXPECTED_VERDICT.items():
        rep = results["dyadic"][name]
        assert rep.verdict is expected, (name, rep.verdict, rep.diagnostics)

    # certified per-term lower bound for the full complement
    full = results["dyadic"]["full"]
    terms = [t.term for t in full.terms]
    low_bound = min(terms)
    assert low_bound > 0.0
    assert low_bound >= 0.5 * max(terms)

    # level-shell variants agree with the dyadic verdict for every lambda
    for name in EXPECTED_VERDICT:
        for lam, rep in results["lambda"][name].items():
            assert rep.verdict is EXPECTED_VERDICT[name], (name, lam, rep.diagnostics)

    # half-space exchange leaves every verdict invariant
    for name in EXPECTED_VERDICT:
        assert results["dual"][name].verdict is EXPECTED_VERDICT[name], name

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    _report(
        5,
        f"verdicts {[(k, v.value) for k, v in EXPECTED_VERDICT.items()]}, per-term "
        f"lower bound {low_bound:.3f}, lambda and exchange agreement on 4 fixtures, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. conditioned process
# ---------------------------------------------------------------------------

def test_criterion_6_hbrownian():
    start = time.perf_counter()
    up = pc.upper_context(1, [0.5])
    z0 = pc.point([2.0], 1.0)
    ens1 = simulate(z0, GridPolicy(1.0, 0.4, ratio=0.4), 100_000, up, seed=606)
    mean, std = transition_parameters(up, z0.x[None, :], 1.0, float(ens1.times[1]))
    ks = stats.kstest(ens1.paths[:, 1, 0], "norm", args=(mean[0, 0], std))
    assert ks.pvalue > 0.01

    lo = pc.lower_context(1, [0.3])
    zl = pc.point([0.0], -1.0)
    ensl = simulate(zl, GridPolicy(-1.0, -3.0, ratio=0.5), 100_000, lo, seed=607)
    meanl, stdl = transition_parameters(lo, zl.x[None, :], -1.0, float(ensl.times[1]))
    ksl = stats.kstest(ensl.paths[:, 1, 0], "norm", args=(meanl[0, 0], stdl))
    assert ksl.pvalue > 0.01

    cluster = simulate(pc.point([2.0], 1.0), GridPolicy(1.0, 1e-4, ratio=0.8), 5000, up, seed=608)
    final = cluster.paths[:, -1, 0]
    assert abs(float(np.mean(final)) - 0.5) < 0.01
    assert float(np.std(final)) < 0.05

    # paired verdicts against the series on three domains, both half-spaces
    series = _series_results()
    verdict_map = {
        Verdict.REMOVABLE: ClusterVerdict.P_ONE,
        Verdict.NON_REMOVABLE: ClusterVerdict.P_ZERO,
    }
    lo0 = pc.lower_context(1)
    ens_lo = simulate(pc.point([0.0], -1.0), GridPolicy(-1.0, -3000.0, ratio=0.9), 10_000, lo0, seed=609)
    deltas_lo = [-30.0, -100.0, -300.0, -1000.0]
    up0 = lo0.mirror()
    ens_up = simulate(pc.point([1.0], 1.0), GridPolicy(1.0, 2e-4, ratio=0.9), 10_000, up0, seed=610)
    deltas_up = [0.002, 0.01, 0.05, 0.2]
    worst_hw = 0.0
    for name in ("empty", "tube", "far_box"):
        region = _series_fixtures(lo0)[name]
        est = cluster_probability(ens_lo, region, deltas_lo)
        worst_hw = max(worst_hw, est.diagnostics["tight_halfwidth"])
        assert est.diagnostics["tight_halfwidth"] < 0.03
        assert est.verdict is verdict_map[series["dyadic"][name].verdict], name
        est_up = cluster_probability(ens_up, AppellImage(region), deltas_up)
        worst_hw = max(worst_hw, est_up.diagnostics["tight_halfwidth"])
        assert est_up.diagnostics["tight_halfwidth"] < 0.03
        assert est_up.verdict is verdict_map[series["dual"][name].verdict], name

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(
        6,
        f"distribution fit p={ks.pvalue:.2f}/{ksl.pvalue:.2f}, terminal spread "
        f"{float(np.std(final)):.3f}, paired verdicts agree on 3 domains x 2 "
        f"half-spaces (max CI half-width {worst_hw:.3f}), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. averaging
# ---------------------------------------------------------------------------

def test_criterion_7_averaging():
    start = time.perf_counter()

    def weighted_caloric(ctx):
        g = ctx.gamma

        def weight(xs, ts):
            return np.exp(log_pole_weight(xs, ts, ctx))

        def u_quad(xs, ts):
            return (np.sum((xs - g) ** 2, axis=1) + 2.0 * ctx.dim * ts) / weight(xs, ts)

        def u_mixed(xs, ts):
            s = xs[:, 0] - g[0]
            return (s * s + 2.0 * ts + s) / weight(xs, ts)

        def center(t0, v):
            xc = g if ctx.is_upper else -2.0 * t0 * g
            return float(v(xc[None, :], np.array([t0]))[0])

        return weight, u_quad, u_mixed, center

    worst_mv = 0.0
    for side in ("upper", "lower"):
        for gamma in (0.0, 1.0):
            ctx = (
                pc.upper_context(1, [gamma]) if side == "upper" else pc.lower_context(1, [gamma])
            )
            t0 = default_time_center(ctx)
            ball = HeatBall(ctx, t0, 1.0)
            _, u_quad, u_mixed, center = weighted_caloric(ctx)
            for u, want in (
                (lambda xs, ts: 1.0, 1.0),
                (u_quad, center(t0, u_quad)),
                (u_mixed, center(t0, u_mixed)),
            ):
                got = mean_value(u, ball)
                err = abs(got - want) / (1.0 + abs(want))
                worst_mv = max(worst_mv, err)
                assert err <= 1e-3, (side, gamma, got, want)

    # scale derivative against a difference quotient of the scale functional
    worst_dd = 0.0
    for ctx in (pc.lower_context(1), pc.upper_context(1, [0.3])):
        t0 = default_time_center(ctx)
        ball = HeatBall(ctx, t0, 1.0)
        u = lambda xs, ts: ts
        pp = phi_prime(u, ball, hu_operator=lambda xs, ts: 1.0).value
        h = 0.02
        fd = (
            phi(u, HeatBall(ctx, t0, 1.0 + h)).value - phi(u, HeatBall(ctx, t0, 1.0 - h)).value
        ) / (2 * h)
        rel = abs(pp - fd) / abs(fd)
        worst_dd = max(worst_dd, rel)
        assert rel <= 1e-3

    # two-sided estimate: ratio bounded uniformly over the scale
    worst_ratio = 0.0
    for ctx in (pc.lower_context(1), pc.upper_context(1, [0.4])):
        t0 = default_time_center(ctx)
        big = HeatBall(ctx, t0, 4.0)
        lo_t, _ = big.time_window
        src_t = 0.5 * lo_t if ctx.is_upper else lo_t - 1.0
        src_x = big.axis(np.array([src_t])) + 0.2
        u = lambda xs, ts: pc.kernel_ratio_matrix(xs, ts, src_x, [src_t], ctx)[:, 0]
        ratios = [harnack_check(u, HeatBall(ctx, t0, c)).ratio for c in (0.5, 1.0, 2.0)]
        assert all(np.isfinite(r) and 0 < r <= 50.0 for r in ratios)
        assert max(ratios) <= 5.0 * min(ratios)
        worst_ratio = max(worst_ratio, max(ratios))

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(
        7,
        f"mean-value worst err {worst_mv:.1e} <= 1e-3 over 12 fixtures, derivative "
        f"match {worst_dd:.1e}, two-sided ratios <= {worst_ratio:.2f}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    configs = {
        "series": {
            "context": {"dim": 1, "gamma": [0.0], "half_space": "lower"},
            "task": "series",
            "seed": 808,
            "parameters": {"region": {"kind": "empty"}, "n_min": 2, "n_max": 8},
        },
        "simulate": {
            "context": {"dim": 1, "gamma": [0.2], "half_space": "lower"},
            "task": "simulate",
            "seed": 808,
            "parameters": {
                "start": {"x": [0.0], "t": -1.0},
                "grid": {"t_end": -50.0, "ratio": 0.8},
                "n_paths": 50,
                "region": {"kind": "full"},
                "deltas": [-10.0, -30.0],
            },
        },
    }
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(["run", str(path), "--out", str(out_a)]) in (0, 2)
        assert cli_main(["run", str(path), "--out", str(out_b)]) in (0, 2)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), fname
    elapsed = time.perf_counter() - start
    _report(8, f"reruns byte-identical across {len(configs)} tasks, {elapsed:.1f}s")
