"""Closed-form linear WLS state estimation and its error analytics.

The estimate is z = (H^T W H)^-1 H^T W y for state z = (p, q). Since pseudo
rows are an identity block, the normal matrix is diagonal-plus-low-rank and is
factorized once per measurement plan through the matrix inversion lemma; the
same factorization serves every iteration and trial. The error analytics are
the variances of the linearly reconstructed voltages, diag(G (H^T W H)^-1
G^T) with G = [A B], which equal the gain form sum_i (G Gamma)_ji^2 sigma_i^2
when W is the inverse noise covariance (the tests check it against the
explicit gain).

On a model with dense A and B the sensor rows U = [A_S B_S] are stored; on a
``PathSum`` model (LinDistFlow above ``DENSE_LIMIT``) they are applied through
the tree kernel, so neither the set-up, a solve nor the voltage variance keeps
or builds an ns x 2N array.
"""

from __future__ import annotations

import copy

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dpotrs

from .linearizer import LinearFlowModel, eval_linear
from .netmodel import NetworkModel, PathSum, path_gram
from .plant import solve_power_flow
from .sensing import MeasurementPlan, plan_reference_sigmas


# Sensor columns per block of the operator path's Gram products (the lemma
# matrix K and the variance cross term). A block's temporaries are a few
# (N, 8) arrays, 0.26 MB each at 4000 nodes and 3.2 MB at 50000, whatever the
# sensor count; unblocked (N, ns) products grow as N^2. Set-up plus variance,
# medians on a 2-CPU x86 host: 4000 nodes 175/137/119/185/303 ms and 20000
# nodes 5.3/4.8/6.8/7.8/9.7 s for 4/8/16/32/64 columns. Wider blocks fall
# out of the cache, narrower ones pay per-call overhead.
GRAM_BLOCK = 8


class EstimationError(RuntimeError):
    """Raised when the WLS normal equations cannot be solved reliably."""


class WlsEstimator:
    """Plan-bound linear WLS solver with cached factorization.

    Holds the measurement structure for one (plan, linear model) pair:
    sensor rows U = [A_S B_S], diagonal pseudo weights, and the Cholesky
    factor of the small lemma matrix K = W_s^-1 + U D^-1 U^T. With dense A
    and B, U is an (ns, 2N) array and a solve is O(ns * 2N); with ``PathSum``
    A and B it is a :class:`_SensorRows` operator, a solve is O(N) and the
    set-up O(N * ns).
    """

    def __init__(self, plan: MeasurementPlan, model: LinearFlowModel):
        self.model = model
        self.n = plan.n
        self.ns = len(plan.sensor_nodes)
        self.sigma = plan_reference_sigmas(plan, model)
        w = self.sigma**-2.0
        self.w_sensor = w[: self.ns]
        self.w_pseudo = w[self.ns :]
        idx = plan.sensor_index
        self.r0_offset = model.r0[idx]
        if isinstance(model.A, np.ndarray):
            self.U: np.ndarray | _SensorRows = np.hstack([model.A[idx], model.B[idx]])
        else:
            self.U = _SensorRows(model, idx)
        if self.ns:
            K = np.diag(1.0 / self.w_sensor)
            if isinstance(self.U, np.ndarray):
                K = K + (self.U / self.w_pseudo) @ self.U.T
            else:
                for blk, g in self.U.gram_blocks(1.0 / self.w_pseudo, np.eye(self.ns), rows=idx):
                    K[:, blk] += g
            try:
                self._K_cho = sla.cho_factor(K, lower=True)
            except np.linalg.LinAlgError as exc:
                raise EstimationError(f"singular lemma matrix: {exc}") from exc
        else:
            self._K_cho = None

    def solve(self, y_adjusted: np.ndarray) -> np.ndarray:
        """Estimate z from an intercept-adjusted measurement vector.

        On ``PathSum`` models this is the update form of the same solution,
        ``y_p + D^-1 U^T K^-1 (y_s - U y_p)``: two operator products instead
        of the three that ``solve_normal`` of ``H^T W y`` takes.
        """
        y_s = y_adjusted[: self.ns]
        y_p = y_adjusted[self.ns :]
        if isinstance(self.U, _SensorRows) and self.ns:
            v = _cho_apply(self._K_cho, y_s - self.U @ y_p)
            return y_p + (self.U.T @ v) / self.w_pseudo
        b = self.w_pseudo * y_p
        if self.ns:
            b = b + self.U.T @ (self.w_sensor * y_s)
        return self.solve_normal(b)

    def adjust(self, y: np.ndarray) -> np.ndarray:
        """Fold the linear model's intercept out of the sensor channels."""
        y = y.copy()
        y[: self.ns] -= self.r0_offset
        return y

    def solve_normal(self, b: np.ndarray) -> np.ndarray:
        """Apply (H^T W H)^-1 to a vector or to each column of a matrix."""
        t = (b.T / self.w_pseudo).T
        if not self.ns:
            return t
        v = _cho_apply(self._K_cho, self.U @ t)
        return t - ((self.U.T @ v).T / self.w_pseudo).T

    def voltage_variance(self) -> np.ndarray:
        """Variance of the linearly reconstructed voltages G z_hat, G = [A B].

        With the lemma form of the covariance, ``D^-1 - D^-1 U^T K^-1 U D^-1``
        (D the pseudo weights, K = L L^T), entry i is ``sum_j G_ij^2 / w_j``
        minus ``||L^-1 U D^-1 G^T e_i||^2``. The first term is O(N) on the
        tree (``PathSum.diag_quad``). On dense models the second takes two
        (N, ns) products and one triangular solve; on ``PathSum`` models it is
        the squared norm of row i of ``G D^-1 G^T E L^-T`` (E scatters onto
        the sensor nodes), taken ``GRAM_BLOCK`` columns at a time, so no
        N x N or (N, ns) array is formed.
        """
        A, B = self.model.A, self.model.B
        n = self.n
        d = 1.0 / self.w_pseudo
        var = _diag_quad(A, d[:n]) + _diag_quad(B, d[n:])
        if not self.ns:
            return var
        if isinstance(self.U, np.ndarray):
            ud = self.U * d
            cross = A @ ud[:, :n].T + B @ ud[:, n:].T
            z = sla.solve_triangular(self._K_cho[0], cross.T, lower=True)
            return var - (z**2).sum(axis=0)
        linv_t = sla.solve_triangular(self._K_cho[0], np.eye(self.ns), lower=True).T
        for _, g in self.U.gram_blocks(d, linv_t):
            var -= (g**2).sum(axis=1)
        return var


class _SensorRows:
    """The sensor rows U = [A_S B_S] of a ``PathSum`` model, applied without
    forming them: ``U @ t`` is ``(A t_p + B t_q)[S]`` and ``U.T @ w`` is
    ``[A x; B x]`` with x = w scattered onto the sensor nodes (A and B are
    symmetric). Both are O(N) per column."""

    def __init__(self, model: LinearFlowModel, idx: np.ndarray):
        self.A, self.B, self.idx = model.A, model.B, idx
        self.n = model.n
        self.transposed = False

    @property
    def T(self) -> _SensorRows:
        out = copy.copy(self)
        out.transposed = not self.transposed
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.n
        if not self.transposed:
            return (self.A @ x[:n] + self.B @ x[n:])[self.idx]
        scattered = np.zeros((n,) + x.shape[1:])
        scattered[self.idx] = x
        return np.concatenate([self.A @ scattered, self.B @ scattered])

    def gram_blocks(self, d: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None):
        """Yield ``(block, G diag(d) G^T E cols[:, block])``, G = [A B] and E
        the scatter onto the sensor nodes, for ``GRAM_BLOCK`` columns of the
        (ns, m) array ``cols`` at a time; with ``rows``, only those rows."""
        terms = ((self.A, d[: self.n]), (self.B, d[self.n :]))
        for start in range(0, cols.shape[1], GRAM_BLOCK):
            blk = slice(start, start + GRAM_BLOCK)
            x = np.zeros((self.n, cols[:, blk].shape[1]))
            x[self.idx] = cols[:, blk]
            yield blk, path_gram(terms, x, rows)


def _cho_apply(factor: tuple[np.ndarray, bool], b: np.ndarray) -> np.ndarray:
    """``sla.cho_solve(factor, b)`` for float64 ``b``, through LAPACK
    ``dpotrs`` directly: the same call and result without the wrapper's
    dispatch, which costs some 20 us per solve at 33 buses. Keeps the
    wrapper's finiteness and ``info`` checks; the factor is finite, since
    ``cho_factor`` checked the matrix it came from."""
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    x, info = dpotrs(factor[0], b, lower=factor[1])
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


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
    if not np.isfinite(z_hat).all():
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
