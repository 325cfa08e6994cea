"""Closed-form linear WLS state estimation and its error analytics.

The estimate is z = (H^T W H)^-1 H^T W y for state z = (p, q), the
injection vector the controller and the linear model use; the voltage
reconstruction takes it whole and splits it only for the plant. Since pseudo
rows are an identity block, the normal matrix is diagonal-plus-low-rank and is
factorized once per measurement plan through the matrix inversion lemma; the
same factorization serves every iteration and trial. The error analytics are
the variances of the linearly reconstructed voltages, diag(G (H^T W H)^-1
G^T) with G the model's sensitivity, which equal the gain form sum_i (G
Gamma)_ji^2 sigma_i^2 when W is the inverse noise covariance (the tests
check it against the explicit gain).

The sensor rows U = G_S (G's rows at the sensors) are never stored: they are
applied through ``G @`` and ``G.T @``, G dense or a ``PathSum``. So a solve
is one code path for every linear model, and on the tree none of them keeps
or builds an ns x 2N array. The set-up takes K's sensor block in closed form
on the tree (``netmodel.sensor_gram``: O(N) tree passes and an O(ns^2)
assembly) and from ``path_gram`` columns on dense models. The voltage
variance on the tree needs no K at all: it is the exact two-pass smoother of
the Gaussian model on the tree (``netmodel.tree_variance``, O(N)); dense
models take it from K's factor.
"""

from __future__ import annotations

import numpy as np

from .linearizer import LinearFlowModel, eval_linear
from .netmodel import NetworkModel, PathSum, path_gram, sensor_gram, tree_variance
from .plant import solve_power_flow
from .sensing import MeasurementPlan, plan_reference_sigmas


# Sensor columns per block of the path_gram products on dense models: K
# and the variance's cross term. A block's temporaries are a few (N, 8)
# arrays, whatever the sensor count; unblocked (N, ns) products grow as N^2.
GRAM_BLOCK = 8


class EstimationError(RuntimeError):
    """Raised when the WLS normal equations cannot be solved reliably."""


class WlsEstimator:
    """Plan-bound linear WLS solver with cached factorization.

    Holds the measurement structure for one (plan, linear model) pair: the
    sensor indices, diagonal pseudo weights, and the inverse ``L^-1`` of the
    Cholesky factor of the small lemma matrix K = W_s^-1 + U D^-1 U^T = L L^T.
    A solve is a ``G @`` and a ``G.T @`` product and the ns x ns products
    ``L^-T (L^-1 b)``: O(ns * N) on dense models, O(N) on ``PathSum`` ones.
    On ``PathSum`` models K costs O(N + ns^2) (:func:`netmodel.sensor_gram`)
    and its factor and inverse O(ns^3); on dense ones K is ``GRAM_BLOCK``
    columns of ``path_gram`` at a time. The voltage variance is O(N) on
    ``PathSum`` models (:func:`netmodel.tree_variance`) and O(ns * N^2) on
    dense ones.
    """

    def __init__(self, plan: MeasurementPlan, model: LinearFlowModel):
        self.model = model
        self.n = plan.n
        self.ns = len(plan.sensor_nodes)
        w = plan_reference_sigmas(plan, model) ** -2.0
        self.w_sensor = w[: self.ns]
        self.w_pseudo = w[self.ns :]
        self.idx = plan.sensor_index
        self.r0_offset = model.r0[self.idx]
        if self.ns:
            d = 1.0 / self.w_pseudo
            K = np.diag(1.0 / self.w_sensor)
            if isinstance(model.G, PathSum):
                K += sensor_gram(model.G, d, self.idx)
            else:
                for blk, g in self._gram_blocks(d, np.eye(self.ns), rows=self.idx):
                    K[:, blk] += g
            try:
                self._linv = np.linalg.inv(np.linalg.cholesky(K))
            except np.linalg.LinAlgError as exc:
                raise EstimationError(f"singular lemma matrix: {exc}") from exc
        else:
            self._linv = None

    def solve(self, y_adjusted: np.ndarray) -> np.ndarray:
        """Estimate z from an intercept-adjusted measurement vector, in the
        update form ``y_p + D^-1 U^T K^-1 (y_s - U y_p)``. ``U t`` is
        ``(G t)[S]`` and ``U^T v`` is ``G^T x`` with x = v scattered onto the
        sensor nodes."""
        y_s = y_adjusted[: self.ns]
        y_p = y_adjusted[self.ns :]
        if not self.ns:
            return y_p.copy()
        G = self.model.G
        b = y_s - (G @ y_p)[self.idx]
        if not np.isfinite(b).all():
            raise ValueError("array must not contain infs or NaNs")
        v = self._linv.T @ (self._linv @ b)
        x = np.zeros(self.n)
        x[self.idx] = v
        return y_p + (G.T @ x) / self.w_pseudo

    def adjust(self, y: np.ndarray) -> np.ndarray:
        """Fold the linear model's intercept out of the sensor channels."""
        y = y.copy()
        y[: self.ns] -= self.r0_offset
        return y

    def voltage_variance(self) -> np.ndarray:
        """Variance of the linearly reconstructed voltages G z_hat.

        On ``PathSum`` models it is :func:`netmodel.tree_variance`, the
        exact two-pass smoother of the Gaussian model on the tree: O(N).
        On dense ones it is the lemma form of the covariance, ``D^-1 - D^-1
        U^T K^-1 U D^-1`` (D the pseudo weights, K = L L^T): entry i is
        ``sum_j G_ij^2 / w_j`` minus the squared norm of row i of ``G D^-1
        G^T E L^-T`` (E scatters onto the sensor nodes), taken
        ``GRAM_BLOCK`` columns at a time.
        """
        d = 1.0 / self.w_pseudo
        G = self.model.G
        if isinstance(G, PathSum):
            ws = np.zeros(self.n)
            ws[self.idx] = self.w_sensor
            return tree_variance(G, d, ws)
        var = (G * G) @ d
        if not self.ns:
            return var
        for _, g in self._gram_blocks(d, self._linv.T):
            var -= (g**2).sum(axis=1)
        return var

    def _gram_blocks(self, d: np.ndarray, cols: np.ndarray, rows: np.ndarray | None = None):
        """Yield ``(block, G diag(d) G^T E cols[:, block])``, E the scatter
        onto the sensor nodes, for ``GRAM_BLOCK`` columns of the (ns, m)
        array ``cols`` at a time; with ``rows``, only those rows."""
        for start in range(0, cols.shape[1], GRAM_BLOCK):
            blk = slice(start, start + GRAM_BLOCK)
            x = np.zeros((self.n, cols[:, blk].shape[1]))
            x[self.idx] = cols[:, blk]
            yield blk, path_gram(self.model.G, d, x, rows)


def estimate_voltages(
    z_hat: np.ndarray,
    net: NetworkModel,
    model: LinearFlowModel,
    mode: str = "nonlinear",
) -> tuple[np.ndarray, bool]:
    """Reconstruct voltage magnitudes from estimated injections z_hat = (p, q).

    Nonlinear mode runs the power-flow plant at the estimated injections and
    falls back to the linear model (flagged) if that diverges; linear mode
    evaluates the model directly. Returns (r_hat, fell_back).
    """
    z_hat = np.asarray(z_hat, dtype=float)
    if not np.isfinite(z_hat).all():
        raise ValueError("state estimate contains non-finite entries")
    if mode == "linear":
        return eval_linear(model, z_hat), False
    if mode != "nonlinear":
        raise ValueError(f"unknown voltage reconstruction mode {mode!r}")
    sol = solve_power_flow(net, z_hat[: net.n], z_hat[net.n :])
    if sol.converged:
        return sol.v_mag, False
    return eval_linear(model, z_hat), True
