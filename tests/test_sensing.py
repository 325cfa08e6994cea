from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from gridloop.linearizer import lindistflow
from gridloop.sensing import (
    MeasurementPlan,
    make_plan,
    place_sensors,
    plan_reference_sigmas,
    sample_measurements,
)

from oracles import linear_measurement_model


def _plan33(net, sensors=(5, 17), sensor_sigma=0.01, pseudo_sigma=0.5, seed=99, **kw):
    return make_plan(
        n=net.n,
        sensor_nodes=sensors,
        sensor_fraction=None,
        placement_seed=0,
        sensor_sigma=sensor_sigma,
        pseudo_sigma=pseudo_sigma,
        pseudo_base=np.concatenate([net.p0, net.q0]),
        seed=seed,
        **kw,
    )


def test_noiseless_batch_reads_truth_and_base(net33):
    plan = _plan33(net33, sensor_sigma=0.0, pseudo_sigma=0.0)
    truth_v = np.linspace(0.95, 1.0, 32)
    y = sample_measurements(plan, truth_v, iter=3)
    assert y[0] == truth_v[4]
    assert y[1] == truth_v[16]
    assert np.array_equal(y[2:34], net33.p0)
    assert np.array_equal(y[34:], net33.q0)
    assert (plan_reference_sigmas(plan, lindistflow(net33)) > 0).all()


def test_determinism_same_seed_and_iteration(net33):
    plan = _plan33(net33)
    truth_v = np.full(32, 0.98)
    a = sample_measurements(plan, truth_v, iter=7)
    b = sample_measurements(plan, truth_v, iter=7)
    assert np.array_equal(a, b)
    c = sample_measurements(plan, truth_v, iter=8)
    assert not np.array_equal(a, c)
    d = sample_measurements(replace(plan, seed=100), truth_v, iter=7)
    assert not np.array_equal(a, d)


def test_pseudo_fixed_reuses_iteration_zero_noise(net33):
    plan = _plan33(net33, pseudo_fixed=True)
    truth_v = np.full(32, 1.0)
    a = sample_measurements(plan, truth_v, iter=0)
    b = sample_measurements(plan, truth_v, iter=5)
    ns = len(plan.sensor_nodes)
    assert np.array_equal(a[ns:], b[ns:])
    assert not np.array_equal(a[:ns], b[:ns])


def test_sensor_channel_statistics(net33):
    # 1e5 draws of one sensor channel at truth 1.0 with 1% relative noise.
    plan = _plan33(net33, sensors=(1,), sensor_sigma=0.01, pseudo_sigma=0.5)
    truth_v = np.ones(32)
    vals = np.array(
        [
            sample_measurements(plan, truth_v, iter=k)[0]
            for k in range(100_000)
        ]
    )
    assert abs(vals.mean() - 1.0) < 1e-4
    assert abs(vals.std() - 0.01) < 0.01 * 0.02


def test_channel_cross_correlation(net33):
    plan = _plan33(net33, sensors=(3, 9), sensor_sigma=0.01, pseudo_sigma=0.5)
    truth_v = np.ones(32)
    draws = np.array(
        [
            sample_measurements(plan, truth_v, iter=k)[:6]
            for k in range(10_000)
        ]
    )
    corr = np.corrcoef(draws, rowvar=False)
    off = corr[~np.eye(6, dtype=bool)]
    assert np.abs(off).max() <= 0.03


def test_noise_independent_across_iterations(net33):
    plan = _plan33(net33, sensors=(3,), sensor_sigma=0.01, pseudo_sigma=0.5)
    truth_v = np.ones(32)
    series = np.array(
        [
            sample_measurements(plan, truth_v, iter=k)[0]
            for k in range(10_000)
        ]
    )
    lagged = np.corrcoef(series[:-1], series[1:])[0, 1]
    assert abs(lagged) <= 0.03


def test_pseudo_floor_guards_zero_load_nodes(net33):
    p0 = net33.p0.copy()
    p0[5] = 0.0
    plan = make_plan(
        n=32, sensor_nodes=(), sensor_fraction=None, placement_seed=0,
        sensor_sigma=0.0, pseudo_sigma=0.5, pseudo_base=np.concatenate([p0, net33.q0]), seed=1,
    )
    sigma = plan_reference_sigmas(plan, lindistflow(net33))
    assert sigma[5] == pytest.approx(0.5 * 0.01)


def test_plan_arrays_are_derived_once_and_read_only(net33):
    # The pseudo means and deviations are built once per plan, not per
    # sample; equality and replace see only the fields.
    plan = _plan33(net33)
    sample_measurements(plan, np.ones(32), iter=4)
    assert plan.pseudo_std is plan.pseudo_std
    assert not plan.pseudo_mean.flags.writeable and not plan.pseudo_std.flags.writeable
    assert plan == _plan33(net33)
    halved = replace(plan, pseudo_sigma=0.25)
    assert halved != plan
    assert np.array_equal(halved.pseudo_std, 0.5 * plan.pseudo_std)


def _fresh_normals(seed, lane, k, count):
    gen = np.random.Generator(np.random.Philox(counter=[0, 0, 0, k], key=[seed, lane]))
    return gen.standard_normal(count)


def test_kept_streams_match_fresh_philox(net33):
    # One generator per (seed, lane), its counter reset to [0, 0, 0, k] per
    # draw: the same numbers as a fresh generator at that counter, in any
    # order of k, with two plans interleaved, for both lanes.
    plans = [_plan33(net33, seed=99), _plan33(net33, seed=2**63 - 1, pseudo_fixed=True)]
    truth_v = np.linspace(0.95, 1.0, 32)
    ks = [*range(8), 2**40, 5, 0, 3]
    np.random.default_rng(4).shuffle(ks)
    for k in ks:
        for plan in plans:
            xi_v = _fresh_normals(plan.seed, 0, k, 2)
            xi_z = _fresh_normals(plan.seed, 1, 0 if plan.pseudo_fixed else k, 64)
            want = np.concatenate(
                [
                    truth_v[plan.sensor_index] * (1.0 + plan.sensor_sigma * xi_v),
                    plan.pseudo_mean + plan.pseudo_std * xi_z,
                ]
            )
            assert sample_measurements(plan, truth_v, iter=k).tobytes() == want.tobytes()
            for lane, stream in enumerate(plan.streams):
                got = stream.normals(k, 7)
                assert got.tobytes() == _fresh_normals(plan.seed, lane, k, 7).tobytes()


def test_place_sensors_fraction():
    nodes = place_sensors(32, 0.036, placement_seed=4)
    assert len(nodes) == 1
    assert 1 <= nodes[0] <= 32
    assert place_sensors(32, 0.036, placement_seed=4) == nodes
    many = place_sensors(1000, 0.036, placement_seed=4)
    assert len(many) == 36
    assert len(set(many)) == 36


def test_plan_validation(net33):
    with pytest.raises(ValueError, match="sensor nodes"):
        _plan33(net33, sensors=(0,))
    with pytest.raises(ValueError, match="sensor nodes"):
        _plan33(net33, sensors=(33,))
    with pytest.raises(ValueError, match="nonnegative"):
        _plan33(net33, sensor_sigma=-0.1)


@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64 - 1])
def test_plan_rejects_seed_philox_cannot_key(net33, seed):
    # A measurement seed is one word of the Philox key: outside [0, 2**63)
    # numpy wraps it or rounds it through float64 (2**63 + 1 would get the
    # stream of 2**63), so make_plan and replace both reject it by value.
    message = rf"measurement seed must lie in \[0, 2\*\*63\), got {seed}$"
    with pytest.raises(ValueError, match=message):
        _plan33(net33, seed=seed)
    with pytest.raises(ValueError, match=f"got {seed}$"):
        replace(_plan33(net33), seed=seed)
    assert _plan33(net33, seed=2**63 - 1).seed == 2**63 - 1


def test_linear_measurement_model_structure(net33):
    model = lindistflow(net33)
    plan = _plan33(net33, sensors=(7,))
    H, w = linear_measurement_model(plan, model)
    assert H.shape == (1 + 64, 64)
    assert np.array_equal(H[0, :], model.G[6, :])
    assert np.array_equal(H[1:, :], np.eye(64))
    assert w[0] == pytest.approx((0.01 * 1.0) ** -2)


def test_no_sensor_model_is_pure_selector(net33):
    model = lindistflow(net33)
    plan = make_plan(
        n=32, sensor_nodes=(), sensor_fraction=None, placement_seed=0,
        sensor_sigma=0.01, pseudo_sigma=0.5, pseudo_base=np.concatenate([net33.p0, net33.q0]), seed=1,
    )
    H, _ = linear_measurement_model(plan, model)
    assert np.array_equal(H, np.eye(64))


def test_observability_normal_matrix(net33):
    # H^T W H must be positive definite with finite condition number.
    model = lindistflow(net33)
    plan = _plan33(net33, sensors=tuple(place_sensors(32, 0.1, 2)))
    H, w = linear_measurement_model(plan, model)
    normal = H.T @ (H * w[:, None])
    eigvals = np.linalg.eigvalsh(normal)
    assert eigvals.min() > 0
    assert eigvals.max() / eigvals.min() < 1e12
