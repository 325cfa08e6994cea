"""Nonlinear radial power flow: the physical network the controller acts on.

Solves the PQ fixed point with a backward/forward sweep (current-injection
variant): nodal currents are aggregated down the tree and voltage drops
accumulated back up, which for a radial feeder is one multiplication by the
common-path impedance matrix (``netmodel.path_sum``: dense on small
networks, the O(N) tree kernel on large ones). Shunt admittances enter as
node current injections. Every solve starts flat at v0.

The power mismatch that stops the loop needs no admittance matrix. Z is
the exact inverse of the reduced line Laplacian Y_L, and Y_L 1 = -y_bar,
so at v_new = v0 + Z i_old, with i_old = conj(s / v_old) - y_sh v_old, the
network current is ``Y v_new + y_bar v0 = i_old + y_sh v_new`` and the
mismatch is

    s_calc - s = (s / v_old) d + v_new conj(y_sh d),    d = v_new - v_old,

in O(N) from ``s / v_old``, which the sweep forms for i_old anyway. Its
rounding differs from that of the full product ``v conj(Y v + y_bar v0)``
by a few 1e-12 at the voltages a converged sweep reaches, so a residual
that lands that close to the 1e-10 tolerance may stop one sweep earlier or
later than the full-product loop (``tests/oracles.reference_sweep``) does;
voltages and sweep counts otherwise match it bit for bit.

At 33 buses a sweep works on 32-element arrays, so its cost is the number
of numpy calls, not arithmetic. The loop invariants are built once per
network (``NetworkModel._sweep``): the read-only flat start and whether any
node has a shunt. Each sweep takes ``|v|`` once and runs both divergence
checks on it, reduces through the ufuncs' ``reduce`` instead of the
``min``/``max``/``all`` wrappers, and multiplies through the ``Z`` product
``_sweep`` picked (``ndarray.dot`` on dense operators).
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
    z_dot, y_bar, y00, flat, shunts = net._sweep
    v = flat
    history: list[float] = []
    converged = False
    iterations = 0
    residual = np.inf
    v_mag = None
    for iterations in range(1, max_iter + 1):
        s_v = s / v
        i_inj = np.conj(s_v)
        if shunts is not None:
            i_inj -= shunts * v
        v_old, v = v, flat + z_dot(i_inj)
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
        d = v - v_old
        mismatch = s_v * d
        if shunts is not None:
            mismatch += v * np.conj(shunts * d)
        residual = float(np.maximum.reduce(np.abs(mismatch)))
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

