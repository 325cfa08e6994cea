"""Nonlinear radial power flow: the physical network the controller acts on.

Solves the PQ fixed point with a backward/forward sweep (current-injection
variant): nodal currents are aggregated down the tree and voltage drops
accumulated back up, which for a radial feeder is one multiplication by the
common-path impedance matrix (``netmodel.path_sum``: dense on small
networks, the O(N) tree kernel on large ones). Shunt admittances enter as
node current injections. Every solve starts flat at v0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NetworkModel


@dataclass(frozen=True)
class PowerFlowSolution:
    """Voltages and substation injection for one operating point.

    ``v_mag``/``v_ang`` cover the N non-slack nodes; ``residual`` is the worst
    per-node complex power mismatch |s_computed - s_specified|.
    """

    v_mag: np.ndarray
    v_ang: np.ndarray
    p_slack: float
    q_slack: float
    converged: bool
    iterations: int
    residual: float
    residual_history: tuple[float, ...]


def solve_power_flow(
    net: NetworkModel,
    p: np.ndarray,
    q: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> PowerFlowSolution:
    """Solve the power flow for injections (p, q), length N each.

    Returns a solution whose ``converged`` flag is False when ``max_iter``
    sweeps did not bring the mismatch under ``tol`` (the residual history is
    kept for diagnosis); no exception is raised here so callers can decide.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    s = np.asarray(p, dtype=float) + 1j * np.asarray(q, dtype=float)
    if s.shape != (net.n,):
        raise ValueError(f"injection vectors must have length {net.n}, got {s.shape}")
    Z, Y, y_bar, y00 = net._sweep
    v0 = complex(net.v0)
    v = np.full(net.n, v0, dtype=complex)
    history: list[float] = []
    converged = False
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        i_inj = np.conj(s / v) - net.shunts * v
        v = v0 + Z @ i_inj
        if not np.all(np.isfinite(v)) or np.abs(v).min() < 0.05:
            history.append(float("inf"))
            break
        s_calc = v * np.conj(Y @ v + y_bar * v0)
        residual = float(np.abs(s_calc - s).max())
        history.append(residual)
        if residual <= tol:
            converged = True
            break
    s_slack = v0 * np.conj(y00 * v0 + y_bar @ v)
    return PowerFlowSolution(
        v_mag=np.abs(v),
        v_ang=np.angle(v),
        p_slack=float(s_slack.real),
        q_slack=float(s_slack.imag),
        converged=converged,
        iterations=iterations,
        residual=float(residual),
        residual_history=tuple(history),
    )

