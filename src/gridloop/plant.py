"""Nonlinear radial power flow: the physical network the controller acts on.

Solves the PQ fixed point with a backward/forward sweep (current-injection
variant): nodal currents are aggregated down the tree and voltage drops
accumulated back up, which for a radial feeder is one multiplication by the
common-path impedance matrix. Small networks use that dense matrix directly;
large ones run the sweep level by level. Shunt admittances enter as node
current injections. Every solve starts flat at v0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .netmodel import NetworkModel, build_admittance, path_sum_matrix

_DENSE_LIMIT = 1024


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


class _SweepStructure:
    """Per-network arrays reused across solves."""

    def __init__(self, net: NetworkModel):
        self.n = net.n
        self.v0 = net.v0
        self.shunts = net.shunts
        Y, y_bar, y00 = build_admittance(net)
        self.y_bar = y_bar
        self.y00 = y00
        if net.n <= _DENSE_LIMIT:
            self.Y = Y.toarray()
            z = net.branch_z
            self.zpath = path_sum_matrix(net, z.real) + 1j * path_sum_matrix(net, z.imag)
            self.levels = None
        else:
            self.Y = Y
            self.zpath = None
            self.levels = [
                (lev, net.parent[lev] - 1, net.branch_z[lev]) for lev in net._levels
            ]


@lru_cache(maxsize=16)
def _structure(net: NetworkModel) -> _SweepStructure:
    return _SweepStructure(net)


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
    st = _structure(net)
    v0 = complex(st.v0)
    v = np.full(net.n, v0, dtype=complex)
    history: list[float] = []
    converged = False
    iterations = 0
    residual = np.inf
    for iterations in range(1, max_iter + 1):
        i_inj = np.conj(s / v) - st.shunts * v
        if st.zpath is not None:
            v = v0 + st.zpath @ i_inj
        else:
            v = _level_sweep(st, i_inj, v0)
        if not np.all(np.isfinite(v)) or np.abs(v).min() < 0.05:
            history.append(float("inf"))
            break
        s_calc = v * np.conj(st.Y @ v + st.y_bar * v0)
        residual = float(np.abs(s_calc - s).max())
        history.append(residual)
        if residual <= tol:
            converged = True
            break
    s_slack = v0 * np.conj(st.y00 * v0 + st.y_bar @ v)
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


def _level_sweep(st: _SweepStructure, i_inj: np.ndarray, v0: complex) -> np.ndarray:
    """One backward current aggregation and forward voltage update pass."""
    flow = -i_inj.copy()
    for nodes, par, _z in reversed(st.levels[1:]):
        np.add.at(flow, par, flow[nodes])
    v = np.empty(st.n, dtype=complex)
    root_nodes, _, root_z = st.levels[0]
    v[root_nodes] = v0 - root_z * flow[root_nodes]
    for nodes, par, z in st.levels[1:]:
        v[nodes] = v[par] - z * flow[nodes]
    return v

