import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import parcap as pc
from parcap.appell import AppellDirection as D
from parcap.kernel import DomainError, log_heat_kernel, log_pole_weight
from parcap.measures import DiscreteMeasure
from parcap.capacity import potential_batch


def test_point_map_values():
    z = pc.appell_map(pc.point([0.0], 1.0), D.FORWARD)
    assert np.allclose(z.x, [0.0]) and z.t == pytest.approx(-0.25)
    # the upper canonical center maps onto the lower canonical center
    g = np.array([0.8, -0.1])
    zc = pc.appell_map(pc.point(g, 1.0), D.FORWARD)
    assert np.allclose(zc.x, g / 2.0) and zc.t == pytest.approx(-0.25)


def test_point_map_halfspace_exchange_and_pole():
    assert pc.appell_map(pc.point([1.0], 2.0), D.FORWARD).t < 0
    assert pc.appell_map(pc.point([1.0], -2.0), D.BACKWARD).t > 0
    with pytest.raises(DomainError):
        pc.appell_map(pc.point([1.0], 0.0), D.FORWARD)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=1, max_size=3),
    st.floats(0.01, 10.0),
)
def test_point_map_round_trip(x, t):
    z = pc.point(x, t)
    back = pc.appell_map(pc.appell_map(z, D.FORWARD), D.BACKWARD)
    assert np.max(np.abs(back.x - z.x)) <= 1e-12 * (1 + np.max(np.abs(z.x)))
    assert abs(back.t - z.t) <= 1e-12 * (1 + abs(z.t))


def test_transform_of_pole_function_is_drift_exponential():
    rng = np.random.default_rng(42)
    for dim in (1, 2):
        g = rng.normal(size=dim)
        up = pc.upper_context(dim, g)
        lo = up.mirror()
        h_up = lambda xs, ts: np.exp(log_pole_weight(xs, ts, up))
        Ah = pc.appell_transform(h_up, D.FORWARD)
        draws = [(rng.normal(size=dim), -rng.uniform(0.02, 4.0)) for _ in range(200)]
        xs = np.array([x for x, _ in draws])
        ts = np.array([t for _, t in draws])
        expected = np.exp(log_pole_weight(xs, ts, lo))
        assert np.all(np.abs(Ah(xs, ts) - expected) <= 1e-10 * expected)


def test_backward_transform_of_one_is_kernel():
    v = pc.appell_transform(lambda xs, ts: 1.0, D.BACKWARD)
    z = pc.point([0.4, 0.1], 0.9)
    assert v(z.x[None, :], np.array([z.t]))[0] == pytest.approx(
        pc.heat_kernel(z, pc.point([0.0, 0.0], 0.0)), rel=1e-14
    )


def test_transform_domain_errors():
    v = pc.appell_transform(lambda xs, ts: 1.0, D.FORWARD)
    with pytest.raises(DomainError):
        v(np.array([[0.0]]), np.array([0.5]))


def kernel_from(w):
    """The field F(. - w) of a source w."""
    return lambda xs, ts: np.exp(log_heat_kernel(np.sum((xs - w.x) ** 2, axis=1), ts - w.t, w.dim))


def test_kernel_transport_forward():
    # forward image of the kernel from an upper source against the closed form
    rng = np.random.default_rng(9)
    dim = 2
    for _ in range(200):
        w = pc.point(rng.normal(size=dim), rng.uniform(0.1, 2.0))
        wt = pc.appell_map(w, D.FORWARD)
        x = rng.normal(size=dim)
        t = wt.t * rng.uniform(0.3, 0.9)  # after the image source
        got = pc.appell_transform(kernel_from(w), D.FORWARD)(x[None, :], np.array([t]))[0]
        pre = (-4.0 * np.pi * wt.t) ** (0.5 * dim) * np.exp(
            -np.dot(wt.x, wt.x) / (4.0 * wt.t)
        )
        want = pre * pc.heat_kernel(pc.point(x, t), wt)
        assert want > 0.0
        assert abs(got - want) <= 1e-10 * max(want, 1e-290)


def test_kernel_transport_backward():
    rng = np.random.default_rng(10)
    dim = 1
    for _ in range(200):
        w = pc.point(rng.normal(size=dim), -rng.uniform(0.3, 2.0))
        wt = pc.appell_map(w, D.BACKWARD)
        x = rng.normal(size=dim)
        t = wt.t * (1.0 + rng.uniform(0.1, 0.8))  # after the image source
        got = pc.appell_transform(kernel_from(w), D.BACKWARD)(x[None, :], np.array([t]))[0]
        pre = (wt.t / np.pi) ** (0.5 * dim) * np.exp(-np.dot(wt.x, wt.x) / (4.0 * wt.t))
        want = pre * pc.heat_kernel(pc.point(x, t), wt)
        assert want > 0.0
        assert abs(got - want) <= 1e-10 * max(want, 1e-290)


def test_transform_preserves_caloricity():
    u = lambda xs, ts: xs[:, 0] ** 4 + 12 * xs[:, 0] ** 2 * ts + 12 * ts**2
    Au = pc.appell_transform(u, D.FORWARD)
    z = pc.point([0.3, -0.4], -0.6)
    r_coarse = abs(pc.heat_operator_fd(Au, z, step=4e-3, richardson=False))
    r_fine = abs(pc.heat_operator_fd(Au, z, step=2e-3, richardson=False))
    assert r_fine < r_coarse / 2.5  # quadratic decay of the probe residual
    assert abs(pc.heat_operator_fd(Au, z, step=2e-3)) < 1e-5  # extrapolated


def test_push_measure_empty_and_mass():
    empty = DiscreteMeasure.empty(2)
    assert len(pc.push_measure(empty, D.FORWARD)) == 0
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(
        rng.normal(size=(40, 2)), rng.uniform(0.1, 1.0, 40), rng.uniform(0, 2, 40)
    )
    pushed = pc.push_measure(mu, D.FORWARD)
    assert np.array_equal(pushed.masses, mu.masses)
    assert pushed.total_mass() == mu.total_mass()
    zz = pc.appell_map(pc.point(mu.xs[7], mu.ts[7]), D.FORWARD)
    assert np.allclose(pushed.xs[7], zz.x) and pushed.ts[7] == zz.t


def test_push_measure_pole_node_error():
    mu = DiscreteMeasure(np.zeros((1, 1)), np.zeros(1), np.ones(1))
    with pytest.raises(DomainError):
        pc.push_measure(mu, D.FORWARD)


def test_potential_transport():
    rng = np.random.default_rng(21)
    dim = 2
    g = np.array([0.4, 0.0])
    up = pc.upper_context(dim, g)
    lo = up.mirror()
    mu = DiscreteMeasure(
        rng.normal(size=(30, dim)), rng.uniform(0.1, 0.9, 30), rng.uniform(0, 1, 30)
    )
    pushed = pc.push_measure(mu, D.FORWARD)
    for _ in range(100):
        zl = pc.point(rng.normal(size=dim), -rng.uniform(0.05, 2.0))
        zu = pc.appell_map(zl, D.BACKWARD)
        a = potential_batch(mu, zu.x[None, :], np.array([zu.t]), up)[0]
        b = potential_batch(pushed, zl.x[None, :], np.array([zl.t]), lo)[0]
        assert abs(a - b) <= 1e-8 * max(b, 1e-200)


@pytest.mark.parametrize("direction", [D.FORWARD, D.BACKWARD])
def test_operator_transfer_identity(direction):
    dim = 2
    ctx = pc.upper_context(dim, [0.2, -0.5])
    if direction is D.BACKWARD:
        ctx = ctx.mirror()
    tsign = 1.0 if direction is D.FORWARD else -1.0
    rng = np.random.default_rng(8)

    # constant field: both sides vanish (the weights are caloric)
    z = pc.point(rng.normal(size=dim) * 0.3, tsign * 0.8)
    res = pc.verify_h_identities(lambda xs, ts: 1.0, z, ctx, step=3e-3)
    assert abs(res.lhs) < 1e-6 and abs(res.rhs) < 1e-6

    for u in (lambda xs, ts: ts, lambda xs, ts: xs[:, 0]):
        z = pc.point(rng.normal(size=dim) * 0.3, tsign * 0.7)
        r1 = pc.verify_h_identities(u, z, ctx, step=8e-3)
        r2 = pc.verify_h_identities(u, z, ctx, step=4e-3)
        assert r2.residual < 1e-5
        assert r2.residual <= r1.residual / 2.0 + 1e-12
