"""Nonlinear radial power flow: the physical network the controller acts on.

Solves the PQ fixed point with a backward/forward sweep (current-injection
variant): nodal currents are aggregated down the tree and voltage drops
accumulated back up, which for a radial feeder is one multiplication by the
common-path impedance matrix (``netmodel.path_sum``: dense on small
networks, the O(N) tree kernel on large ones). Shunt admittances enter as
node current injections. Every solve starts flat at v0.

At 33 buses a sweep works on 32-element arrays, so its cost is the number
of numpy calls, not arithmetic. The loop invariants are built once per
network (``NetworkModel._sweep``): the read-only flat start, ``y_bar * v0``
and whether any node has a shunt. Each sweep takes ``|v|`` once and runs
both divergence checks on it, reduces through the ufuncs' ``reduce``
instead of the ``min``/``max``/``all`` wrappers, and multiplies through the
``Z`` product ``_sweep`` picked (``ndarray.dot`` on dense operators). These
change no arithmetic: voltages, sweep counts and residual histories are bit
for bit those of the plain loop (``tests/oracles.reference_sweep``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NetworkModel


@dataclass(frozen=True)
class PowerFlowSolution:
    """Voltages and substation active power for one operating point.

    ``v`` (complex) and its magnitude ``v_mag`` cover the N non-slack nodes;
    ``residual`` is the worst per-node complex power mismatch
    |s_computed - s_specified|.
    """

    v: np.ndarray
    v_mag: np.ndarray
    p_slack: float
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]


def solve_power_flow(
    net: NetworkModel,
    p: np.ndarray,
    q: np.ndarray,
    max_iter: int = 500,
) -> PowerFlowSolution:
    """Solve the power flow for injections (p, q), length N each.

    Returns a solution whose ``converged`` flag is False when ``max_iter``
    sweeps did not bring the mismatch under 1e-10 (the residual history is
    kept for diagnosis); no exception is raised here so callers can decide.
    """
    s = np.asarray(p, dtype=float) + 1j * np.asarray(q, dtype=float)
    if s.shape != (net.n,):
        raise ValueError(f"injection vectors must have length {net.n}, got {s.shape}")
    z_dot, Y, y_bar, y00, y_bar_v0, flat, shunts = net._sweep
    y_dot = Y.dot
    v = flat
    history: list[float] = []
    converged = False
    iterations = 0
    residual = np.inf
    v_mag = None
    for iterations in range(1, max_iter + 1):
        i_inj = np.conj(s / v)
        if shunts is not None:
            i_inj -= shunts * v
        v = flat + z_dot(i_inj)
        v_mag = np.abs(v)
        # Diverged: a non-finite voltage or one below 0.05 pu. |v| is NaN
        # or inf wherever v is not finite, except that |v| also overflows
        # for finite parts near the float maximum, so that case is told
        # apart on v itself.
        if not np.minimum.reduce(v_mag) >= 0.05 or (
            np.maximum.reduce(v_mag) == np.inf and not np.isfinite(v).all()
        ):
            history.append(float("inf"))
            break
        s_calc = v * np.conj(y_dot(v) + y_bar_v0)
        residual = float(np.maximum.reduce(np.abs(s_calc - s)))
        history.append(residual)
        if residual <= 1e-10:
            converged = True
            break
    if v_mag is None:
        v_mag = np.abs(v)
    v0 = complex(net.v0)
    s_slack = v0 * np.conj(y00 * v0 + y_bar @ v)
    return PowerFlowSolution(
        v=v,
        v_mag=v_mag,
        p_slack=float(s_slack.real),
        converged=converged,
        iterations=iterations,
        residual=float(residual),
        residual_history=tuple(history),
    )

