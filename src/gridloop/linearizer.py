"""Linear voltage models r = G z + r0, z = (p, q), for radial feeders.

Two constructions are provided: the LinDistFlow common-path model, whose
squared-magnitude sensitivities are rescaled by 1/(2 v0) onto voltage
magnitude (so |v| ~ v0 + (R p + X q)/v0), and a numerical Jacobian of the
nonlinear plant around an operating point. Models are immutable and fixed for
the duration of a run.

The sensitivity G = [A B] is one operator: LinDistFlow's comes from
``netmodel.path_sum``, a dense N x 2N array on small networks and an O(N)
``PathSum`` block row on large ones, so every consumer uses only ``G @ z``,
``G.T @ r`` and the ``netmodel`` helpers that accept both forms. The Jacobian
model is always dense: it takes 4N perturbed plant solves and O(N^2) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netmodel import NetworkModel, PathSum, path_sum
from .plant import solve_power_flow

LINEARIZATIONS = ("lindistflow", "jacobian")


@dataclass(frozen=True)
class LinearFlowModel:
    """Sensitivity G (N x 2N) of voltage magnitude to z = (p, q), intercept r0."""

    G: np.ndarray | PathSum
    r0: np.ndarray

    @property
    def n(self) -> int:
        return self.r0.shape[0]


def lindistflow(net: NetworkModel) -> LinearFlowModel:
    """LinDistFlow model: A_ij sums branch resistance over the shared
    substation path of nodes i and j (B_ij the reactance), scaled by 1/v0."""
    z = net.branch_z
    G = path_sum(net, np.stack([z.real, z.imag])) / net.v0
    r0 = np.full(net.n, float(net.v0))
    for m in (G, r0):
        if isinstance(m, np.ndarray):
            m.setflags(write=False)
    return LinearFlowModel(G=G, r0=r0)


def jacobian_linearize(
    net: NetworkModel,
    p_star: np.ndarray,
    q_star: np.ndarray,
) -> LinearFlowModel:
    """Central-difference Jacobian (step 1e-5) of the plant's voltage magnitudes
    at (p*, q*); the intercept reproduces the plant exactly at the base point."""
    h = 1e-5
    p_star = np.asarray(p_star, dtype=float)
    q_star = np.asarray(q_star, dtype=float)
    n = net.n
    base = _solved_v(net, p_star, q_star)
    G = np.empty((n, 2 * n))
    for j in range(n):
        dp = np.zeros(n)
        dp[j] = h
        G[:, j] = (_solved_v(net, p_star + dp, q_star) - _solved_v(net, p_star - dp, q_star)) / (2 * h)
        G[:, n + j] = (_solved_v(net, p_star, q_star + dp) - _solved_v(net, p_star, q_star - dp)) / (2 * h)
    r0 = base - G @ np.concatenate([p_star, q_star])
    for m in (G, r0):
        m.setflags(write=False)
    return LinearFlowModel(G=G, r0=r0)


def _solved_v(net: NetworkModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    sol = solve_power_flow(net, p, q)
    if not sol.converged:
        raise RuntimeError(
            f"power flow diverged while linearizing at a perturbed point "
            f"(residual {sol.residual:.3e})"
        )
    return sol.v_mag


def eval_linear(model: LinearFlowModel, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Evaluate r = G (p, q) + r0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (model.n,) or q.shape != (model.n,):
        raise ValueError(f"expected injection vectors of length {model.n}")
    return model.G @ np.concatenate([p, q]) + model.r0


def linearize(net: NetworkModel, method: str = "lindistflow") -> LinearFlowModel:
    """Build the configured model; the Jacobian variant expands around the
    network's nominal injections."""
    if method == "lindistflow":
        return lindistflow(net)
    if method == "jacobian":
        return jacobian_linearize(net, net.p0, net.q0)
    raise ValueError(f"unknown linearization method {method!r}; choose from {LINEARIZATIONS}")

