"""Closed-form linear WLS state estimation and its error analytics.

The estimate is z = (H^T W H)^-1 H^T W y for state z = (p, q). Since pseudo
rows are an identity block, the normal matrix is diagonal-plus-low-rank and is
factorized once per measurement plan through the matrix inversion lemma; the
same factorization serves every iteration and trial. Per-state variances come
from the estimator gain as Var[z_j] = sum_i Gamma_ji^2 sigma_i^2, which equals
diag((H^T W H)^-1) when W is the inverse noise covariance (the equality is
exercised in the tests).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linearizer import LinearFlowModel, eval_linear
from .netmodel import NetworkModel, PathSum
from .plant import solve_power_flow
from .sensing import MeasurementPlan, plan_reference_sigmas


class EstimationError(RuntimeError):
    """Raised when the WLS normal equations cannot be solved reliably."""


def _weight_diagonal(W) -> np.ndarray:
    if sp.issparse(W):
        return np.asarray(W.diagonal(), dtype=float)
    W = np.asarray(W, dtype=float)
    if W.ndim == 1:
        return W
    return np.diag(W).astype(float)


def wls_solve(H, W, y_adjusted: np.ndarray) -> np.ndarray:
    """Solve the weighted normal equations for an explicit (H, W).

    Postcondition: the normal-equation residual ||H^T W (y - H z)|| stays
    below 1e-10 ||H^T W y||; a singular normal matrix means the plan is not
    observable and raises :class:`EstimationError`.
    """
    H = np.asarray(H, dtype=float)
    w = _weight_diagonal(W)
    y = np.asarray(y_adjusted, dtype=float)
    HtW = H.T * w
    lhs = HtW @ H
    rhs = HtW @ y
    try:
        cho = sla.cho_factor(lhs)
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"singular normal matrix (observability failure): {exc}") from exc
    except ValueError as exc:
        raise EstimationError(f"invalid normal matrix: {exc}") from exc
    z = sla.cho_solve(cho, rhs)
    residual = np.linalg.norm(rhs - lhs @ z)
    if residual > 1e-10 * max(np.linalg.norm(rhs), 1e-300):
        raise EstimationError(f"normal-equation residual too large: {residual:.3e}")
    return z


class WlsEstimator:
    """Plan-bound linear WLS solver with cached factorization.

    Holds the measurement structure for one (plan, linear model) pair:
    sensor rows U = [A_S B_S], diagonal pseudo weights, and the Cholesky
    factor of the small lemma matrix K = W_s^-1 + U D^-1 U^T. Solving for a
    new measurement vector is O(n_sensors * 2N).
    """

    def __init__(self, plan: MeasurementPlan, model: LinearFlowModel):
        self.plan = plan
        self.model = model
        self.n = plan.n
        self.sensors = np.array(plan.sensor_nodes, dtype=int)
        self.ns = self.sensors.size
        self.sigma = plan_reference_sigmas(plan, model)
        w = self.sigma**-2.0
        self.w_sensor = w[: self.ns]
        self.w_pseudo = w[self.ns :]
        self.U = model.voltage_rows(self.sensors - 1)
        self.r0_offset = model.r0[self.sensors - 1]
        if self.ns:
            K = np.diag(1.0 / self.w_sensor) + (self.U / self.w_pseudo) @ self.U.T
            try:
                self._K_cho = sla.cho_factor(K, lower=True)
            except np.linalg.LinAlgError as exc:
                raise EstimationError(f"singular lemma matrix: {exc}") from exc
        else:
            self._K_cho = None

    def solve(self, y_adjusted: np.ndarray) -> np.ndarray:
        """Estimate z from an intercept-adjusted measurement vector."""
        y_s = y_adjusted[: self.ns]
        y_p = y_adjusted[self.ns :]
        b = self.w_pseudo * y_p
        if self.ns:
            b = b + self.U.T @ (self.w_sensor * y_s)
        return self.solve_normal(b)

    def adjust(self, y: np.ndarray) -> np.ndarray:
        """Fold the linear model's intercept out of the sensor channels."""
        y = y.copy()
        y[: self.ns] -= self.r0_offset
        return y

    @cached_property
    def var(self) -> np.ndarray:
        """Per-state variance diag((H^T W H)^-1) via the lemma factorization."""
        base = 1.0 / self.w_pseudo
        if not self.ns:
            return base
        L = sla.solve_triangular(self._K_cho[0], self.U, lower=True)
        return base - (L**2).sum(axis=0) / self.w_pseudo**2

    @cached_property
    def gamma(self) -> np.ndarray:
        """Explicit estimator gain Gamma = (H^T W H)^-1 H^T W (2N x channels);
        dense, O(N^2) memory, a reference for tests."""
        HtW = np.hstack(
            [self.U.T * self.w_sensor, np.eye(2 * self.n) * self.w_pseudo[:, None]]
        )
        return self.solve_normal(HtW)

    def solve_normal(self, b: np.ndarray) -> np.ndarray:
        """Apply (H^T W H)^-1 to a vector or to each column of a matrix."""
        t = (b.T / self.w_pseudo).T
        if not self.ns:
            return t
        v = sla.cho_solve(self._K_cho, self.U @ t)
        return t - ((self.U.T @ v).T / self.w_pseudo).T

    def voltage_variance(self) -> np.ndarray:
        """Variance of the linearly reconstructed voltages G z_hat, G = [A B].

        With the lemma form of the covariance, ``D^-1 - D^-1 U^T K^-1 U D^-1``
        (D the pseudo weights, K = L L^T), entry i is ``sum_j G_ij^2 / w_j``
        minus ``||L^-1 U D^-1 G^T e_i||^2``. The first term is O(N) on the
        tree (``PathSum.diag_quad``), the second takes two (N, ns) products and
        one triangular solve, so no N x N array is formed.
        """
        A, B = self.model.A, self.model.B
        n = self.n
        d = 1.0 / self.w_pseudo
        var = _diag_quad(A, d[:n]) + _diag_quad(B, d[n:])
        if self.ns:
            ud = self.U * d
            cross = A @ ud[:, :n].T + B @ ud[:, n:].T
            z = sla.solve_triangular(self._K_cho[0], cross.T, lower=True)
            var = var - (z**2).sum(axis=0)
        return var


def _diag_quad(m: np.ndarray | PathSum, d: np.ndarray) -> np.ndarray:
    """``diag(M diag(d) M^T)``."""
    if isinstance(m, np.ndarray):
        return (m * m) @ d
    return m.diag_quad(d)


def estimate_voltages(
    z_hat: np.ndarray,
    net: NetworkModel,
    model: LinearFlowModel,
    mode: str = "nonlinear",
) -> tuple[np.ndarray, bool]:
    """Reconstruct voltage magnitudes from estimated injections.

    Nonlinear mode runs the power-flow plant at the estimated injections and
    falls back to the linear model (flagged) if that diverges; linear mode
    evaluates the model directly. Returns (r_hat, fell_back).
    """
    n = net.n
    z_hat = np.asarray(z_hat, dtype=float)
    if not np.all(np.isfinite(z_hat)):
        raise ValueError("state estimate contains non-finite entries")
    p_hat, q_hat = z_hat[:n], z_hat[n:]
    if mode == "linear":
        return eval_linear(model, p_hat, q_hat), False
    if mode != "nonlinear":
        raise ValueError(f"unknown voltage reconstruction mode {mode!r}")
    sol = solve_power_flow(net, p_hat, q_hat)
    if sol.converged:
        return sol.v_mag, False
    return eval_linear(model, p_hat, q_hat), True
