"""Linear voltage models r = G z + r0, z = (p, q), for radial feeders.

Two constructions are provided: the LinDistFlow common-path model, whose
squared-magnitude sensitivities are rescaled by 1/(2 v0) onto voltage
magnitude (so |v| ~ v0 + (R p + X q)/v0), and a numerical Jacobian of the
nonlinear plant around an operating point. Models are immutable and fixed for
the duration of a run. The injections are one vector z of length 2N, every
node's p, then every node's q: ``eval_linear`` and ``jacobian_linearize``
take it whole, and only the plant call splits it.

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


def jacobian_linearize(net: NetworkModel, z_star: np.ndarray) -> LinearFlowModel:
    """Central-difference Jacobian (step 1e-5) of the plant's voltage magnitudes
    at z* = (p*, q*); the intercept reproduces the plant exactly at the base point."""
    h = 1e-5
    z_star = np.asarray(z_star, dtype=float)
    base = _solved_v(net, z_star)
    G = np.empty((net.n, z_star.size))
    for j in range(z_star.size):
        dz = np.zeros(z_star.size)
        dz[j] = h
        G[:, j] = (_solved_v(net, z_star + dz) - _solved_v(net, z_star - dz)) / (2 * h)
    r0 = base - G @ z_star
    for m in (G, r0):
        m.setflags(write=False)
    return LinearFlowModel(G=G, r0=r0)


def _solved_v(net: NetworkModel, z: np.ndarray) -> np.ndarray:
    sol = solve_power_flow(net, z[: net.n], z[net.n :])
    if not sol.converged:
        raise RuntimeError(
            f"power flow diverged while linearizing at a perturbed point "
            f"(residual {sol.residual:.3e})"
        )
    return sol.v_mag


def eval_linear(model: LinearFlowModel, z: np.ndarray) -> np.ndarray:
    """Evaluate r = G z + r0."""
    z = np.asarray(z, dtype=float)
    if z.shape != (2 * model.n,):
        raise ValueError(f"expected an injection vector z = (p, q) of length {2 * model.n}")
    return model.G @ z + model.r0


def linearize(net: NetworkModel, method: str = "lindistflow") -> LinearFlowModel:
    """Build the configured model; the Jacobian variant expands around the
    network's nominal injections."""
    if method == "lindistflow":
        return lindistflow(net)
    if method == "jacobian":
        return jacobian_linearize(net, np.concatenate([net.p0, net.q0]))
    raise ValueError(f"unknown linearization method {method!r}; choose from {LINEARIZATIONS}")

