"""Measurement generation: sparse voltage sensors plus injection pseudo-measurements.

Each iteration produces one stacked vector y = [sensor voltages; pseudo p;
pseudo q]. Sensor noise is relative to the instantaneous true voltage; pseudo
channels read the configured nominal base injections corrupted by noise whose
standard deviation is relative to the base magnitude (floored at 0.01 pu so no
channel has zero variance). Randomness comes from counter-based Philox4x64
streams keyed by (seed, lane), lane 0 for the sensors and 1 for the pseudo
channels, with the iteration index in the top counter word, making trials
reproducible and independent of evaluation order.

A plan keeps one generator per lane and, for each draw, resets its counter to
``[0, 0, 0, k]``. A Philox stream is a function of key and counter alone, so
this gives the same numbers, bit for bit, as a fresh
``Philox(counter=[0, 0, 0, k], key=[seed, lane])``, without building two
generators per iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.random  # noqa: F401  (numpy 2 loads it at first use; load it with the package)

from .linearizer import LinearFlowModel

# Relative pseudo noise is taken against at least this magnitude, and the
# estimator's channel deviations are floored so the WLS weight matrix always
# exists. The floor also bounds the weight spread across channels, keeping the
# factorized normal equations inside double-precision headroom when some
# channels are configured noiseless.
PSEUDO_MAGNITUDE_FLOOR = 0.01
SIGMA_FLOOR = 1e-6
# The measurement seed is one word of the Philox key list [seed, lane], which
# numpy reads through np.asarray: from 2**63 on the seed becomes a float64 and
# loses its low bits (2**64 - 1 rounds to 2**64, which the cast to uint64
# cannot hold), and a negative seed wraps, so distinct seeds would share a
# stream.
SEED_LIMIT = 2**63


@dataclass(frozen=True)
class MeasurementPlan:
    """Where sensors sit and how noisy every channel is.

    ``pseudo_base`` holds the injections z = (p, q) used as pseudo-measurement
    means (normally the nominal load pattern). With ``pseudo_fixed`` the
    pseudo noise drawn at iteration 0 is reused every iteration. The arrays
    every iteration reads (sensor indices, pseudo means and deviations) and
    the two noise streams are derived once per plan, the arrays read-only.
    """

    n: int
    sensor_nodes: tuple[int, ...]
    sensor_sigma: float
    pseudo_sigma: float
    pseudo_base: tuple[float, ...]
    seed: int
    pseudo_fixed: bool = False

    def __post_init__(self) -> None:
        if any(not (1 <= s <= self.n) for s in self.sensor_nodes):
            raise ValueError(f"sensor nodes must lie in 1..{self.n}: {self.sensor_nodes}")
        if len(set(self.sensor_nodes)) != len(self.sensor_nodes):
            raise ValueError("duplicate sensor nodes")
        if self.sensor_sigma < 0 or self.pseudo_sigma < 0:
            raise ValueError("noise levels must be nonnegative")
        if len(self.pseudo_base) != 2 * self.n:
            raise ValueError("pseudo_base must provide (p, q) for every node")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"measurement seed must lie in [0, 2**63), got {self.seed}")

    @cached_property
    def sensor_index(self) -> np.ndarray:
        """0-based node index of each sensor channel."""
        return _freeze(np.array(self.sensor_nodes, dtype=int) - 1)

    @cached_property
    def pseudo_mean(self) -> np.ndarray:
        """Pseudo-measurement means, ``pseudo_base`` as an array."""
        return _freeze(np.array(self.pseudo_base))

    @cached_property
    def pseudo_std(self) -> np.ndarray:
        """Pseudo-measurement deviations, relative to the base magnitude
        floored at ``PSEUDO_MAGNITUDE_FLOOR``."""
        return _freeze(
            self.pseudo_sigma * np.maximum(np.abs(self.pseudo_mean), PSEUDO_MAGNITUDE_FLOOR)
        )

    @cached_property
    def streams(self) -> tuple[NoiseStream, NoiseStream]:
        """The sensor (lane 0) and pseudo (lane 1) noise streams."""
        return NoiseStream(self.seed, 0), NoiseStream(self.seed, 1)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def make_plan(
    n: int,
    sensor_nodes: tuple[int, ...] | None,
    sensor_fraction: float | None,
    placement_seed: int,
    sensor_sigma: float,
    pseudo_sigma: float,
    pseudo_base: np.ndarray,
    seed: int,
    pseudo_fixed: bool = False,
) -> MeasurementPlan:
    """Build a plan from either an explicit sensor set or a random placement
    of round(fraction * n) sensors (at least one)."""
    if sensor_nodes is None:
        if sensor_fraction is None:
            raise ValueError("either sensor_nodes or sensor_fraction is required")
        sensor_nodes = place_sensors(n, sensor_fraction, placement_seed)
    return MeasurementPlan(
        n=n,
        sensor_nodes=tuple(sorted(int(s) for s in sensor_nodes)),
        sensor_sigma=float(sensor_sigma),
        pseudo_sigma=float(pseudo_sigma),
        pseudo_base=tuple(map(float, pseudo_base)),
        seed=int(seed),
        pseudo_fixed=bool(pseudo_fixed),
    )


def place_sensors(n: int, fraction: float, placement_seed: int) -> tuple[int, ...]:
    """Randomly pick round(fraction * n) distinct nodes, at least one."""
    count = max(1, int(round(fraction * n)))
    if count > n:
        raise ValueError(f"sensor fraction {fraction} exceeds the network size")
    rng = np.random.Generator(np.random.Philox(key=placement_seed))
    nodes = rng.choice(np.arange(1, n + 1), size=count, replace=False)
    return tuple(sorted(int(v) for v in nodes))


class NoiseStream:
    """Standard normals from the Philox4x64 stream keyed by (seed, lane),
    with the iteration index in the top counter word, so streams for
    different iterations never overlap.

    One generator serves every draw: ``normals`` puts it back into the state
    a fresh ``Philox(counter=[0, 0, 0, k], key=[seed, lane])`` starts in. The
    key is read from such a generator once, so it is converted exactly as a
    fresh one converts it. A draw changes the generator's state, so a stream
    is not shared between threads; each trial's plan has its own streams.
    """

    def __init__(self, seed: int, lane: int):
        bits = np.random.Philox(key=[seed, lane])
        self._gen = np.random.Generator(bits)
        self._key = bits.state["state"]["key"].tolist()

    def normals(self, k: int, count: int) -> np.ndarray:
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, k], "key": self._key},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self._gen.standard_normal(count)


def sample_measurements(plan: MeasurementPlan, truth_v: np.ndarray, iter: int) -> np.ndarray:
    """Draw the iteration-k measurement vector y.

    ``y`` stacks the sensor voltages, then the pseudo p and pseudo q of every
    node. Sensor channels read truth_v[node] * (1 + sensor_sigma * xi); pseudo
    channels read the plan's base injections plus absolute noise (pseudo
    means deliberately track the configured base pattern, not the
    instantaneous injections). Identical (plan.seed, iter) always yields a
    bit-identical vector.
    """
    ns = len(plan.sensor_nodes)
    sensor_noise, pseudo_noise = plan.streams
    v_true = np.asarray(truth_v, dtype=float)[plan.sensor_index]
    xi_v = sensor_noise.normals(iter, ns) if ns else np.empty(0)
    y_v = v_true * (1.0 + plan.sensor_sigma * xi_v)

    k_pseudo = 0 if plan.pseudo_fixed else iter
    xi_z = pseudo_noise.normals(k_pseudo, 2 * plan.n)
    y_z = plan.pseudo_mean + plan.pseudo_std * xi_z

    return np.concatenate([y_v, y_z])


def plan_reference_sigmas(plan: MeasurementPlan, model: LinearFlowModel) -> np.ndarray:
    """Per-channel deviations at the nominal reference (sensor noise taken
    against the intercept voltage). These weights are iteration-independent,
    so the estimator's factorizations can be cached per plan."""
    sensor_std = plan.sensor_sigma * np.abs(model.r0[plan.sensor_index])
    return np.maximum(np.concatenate([sensor_std, plan.pseudo_std]), SIGMA_FLOOR)
