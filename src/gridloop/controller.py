"""Regularized primal-dual gradient controller for voltage-constrained OPF.

The Lagrangian couples per-node quadratic deviation costs and a substation
tracking term with voltage-band constraints through dual pairs (mu_lower,
mu_upper), damped by a Tikhonov term -(eta/2)||mu||^2. The primal variable
is the injection vector z = (p, q) of length 2N, as in the linear model's
G z: it descends the Lagrangian and projects onto the device feasible sets;
duals ascend with the regularized residual and clip at zero. The saddle
operator is strongly monotone with modulus M = min(cost curvature, eta) and
Lipschitz with the spectral norm L of its Jacobian, so steps below 2M/L^2
contract with per-step factor sqrt(e^2 L^2 - 2 e M + 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linearizer import LinearFlowModel
from .netmodel import NetworkModel, project_feasible_net


@dataclass(frozen=True)
class CostParams:
    """Quadratic deviation weights and the substation tracking term.

    The local cost is sum_i w_i (z_i - z_ref_i)^2 over the 2N entries of
    z = (p, q); the substation term alpha (P0 - p0_target)^2 uses the
    lossless aggregate P0(p) = -sum(p) for gradients while reported costs
    may use the plant's true slack power.
    """

    w: np.ndarray
    alpha: float
    p0_target: float
    z_ref: np.ndarray

    def __post_init__(self) -> None:
        if not (self.w > 0).all():
            raise ValueError("per-node cost weights must be positive (strong convexity)")
        if self.alpha < 0:
            raise ValueError("substation weight must be nonnegative")

    @classmethod
    def for_network(
        cls,
        net: NetworkModel,
        wp: float | np.ndarray = 1.0,
        wq: float | np.ndarray = 1.0,
        alpha: float = 0.0,
        p0_target: float | None = None,
    ) -> "CostParams":
        """Deviation-from-nominal cost, the weights ``wp`` on p and ``wq``
        on q; the substation target defaults to the lossless nominal import
        -sum(p0)."""
        n = net.n
        return cls(
            w=np.concatenate([np.broadcast_to(wp, n), np.broadcast_to(wq, n)]).astype(float),
            alpha=float(alpha),
            p0_target=float(-net.p0.sum()) if p0_target is None else float(p0_target),
            z_ref=np.concatenate([net.p0, net.q0]),
        )

    def local_cost(self, z: np.ndarray) -> np.ndarray:
        """The local cost of each row of the (K, 2N) injection block z: the
        p half, then the q half, squared, weighted and summed in one (K, N)
        temporary."""
        n = self.w.size // 2
        d = np.empty((*z.shape[:-1], n))
        cost = 0.0
        for half in (slice(None, n), slice(n, None)):
            np.subtract(z[..., half], self.z_ref[half], out=d)
            d *= d
            d *= self.w[half]
            cost = cost + np.add.reduce(d, axis=-1)
        return cost

    def substation_cost(self, p0_actual: float) -> float:
        return float(self.alpha * (p0_actual - self.p0_target) ** 2)


@dataclass(frozen=True)
class ControllerConfig:
    """Step sizes, Tikhonov coefficient, and the voltage band."""

    eps_primal: float
    eps_dual: float
    eta: float = 1e-3
    v_min: float = 0.95
    v_max: float = 1.05

    def __post_init__(self) -> None:
        for key in ("eps_primal", "eps_dual", "eta"):
            value = getattr(self, key)
            if not value > 0.0:
                raise ValueError(f"scenario key 'controller.{key}' must be > 0, got {value}")
        if not self.v_min < self.v_max:
            raise ValueError(
                f"scenario key 'controller.v_min' must be below 'controller.v_max', "
                f"got {self.v_min} and {self.v_max}"
            )


@dataclass(frozen=True)
class ControllerState:
    """Iterate x = (z, mu_lower, mu_upper), z = (p, q)."""

    z: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.z, self.mu_lower, self.mu_upper])

    def distance(self, other: "ControllerState") -> float:
        return float(np.linalg.norm(self.as_vector() - other.as_vector()))


def initial_state(net: NetworkModel) -> ControllerState:
    """The nominal injections projected onto the feasible sets, with zero
    duals: the loop starts inside the controller's own domain."""
    n = net.n
    z = project_feasible_net(np.concatenate([net.p0, net.q0]), net)
    return ControllerState(z, np.zeros(n), np.zeros(n))


def primal_grad(
    state: ControllerState,
    cost: CostParams,
    model: LinearFlowModel,
) -> np.ndarray:
    """Lagrangian gradient in z = (p, q).

    The voltage constraints contribute G^T (mu_upper - mu_lower); the
    substation term uses the lossless sensitivity dP0/dp = -1, so it enters
    the p half only.
    """
    n = model.n
    g = 2.0 * cost.w * (state.z - cost.z_ref)
    g[:n] += -2.0 * cost.alpha * (-state.z[:n].sum() - cost.p0_target)
    g += model.G.T @ (state.mu_upper - state.mu_lower)
    return g


def primal_step(
    state: ControllerState, g: np.ndarray, net: NetworkModel, config: ControllerConfig
) -> ControllerState:
    """Projected gradient descent on z along the gradient ``g``; duals unchanged."""
    z = project_feasible_net(state.z - config.eps_primal * g, net)
    return ControllerState(z, state.mu_lower, state.mu_upper)


def dual_step(
    state: ControllerState, r_hat: np.ndarray, config: ControllerConfig
) -> ControllerState:
    """Regularized dual ascent with the voltage feedback r_hat, clipped at 0."""
    eps = config.eps_dual
    eta = config.eta
    mu_l = state.mu_lower + eps * ((config.v_min - r_hat) - eta * state.mu_lower)
    mu_u = state.mu_upper + eps * ((r_hat - config.v_max) - eta * state.mu_upper)
    return ControllerState(state.z, np.maximum(mu_l, 0.0), np.maximum(mu_u, 0.0))


@dataclass(frozen=True)
class StepSizeCertificate:
    """Monotonicity/Lipschitz constants and the admissible step range."""

    M: float
    L: float
    eps_max: float
    eps_configured: float

    def delta(self, eps: float | None = None) -> float:
        """Squared per-step contraction factor at step size eps."""
        e = self.eps_configured if eps is None else eps
        return e * e * self.L * self.L - 2.0 * e * self.M + 1.0

    @property
    def certified(self) -> bool:
        return 0.0 < self.eps_configured < self.eps_max


def certify_step_size(
    cost: CostParams,
    model: LinearFlowModel,
    config: ControllerConfig,
) -> StepSizeCertificate:
    """Bound the saddle operator's constants and the admissible step size.

    M is the smallest curvature among the separable cost terms and eta (the
    substation rank-one term only adds curvature). L is the spectral norm of
    the operator Jacobian [[Hc, G^T], [-G, eta I]], by Lanczos on J^T J
    (:func:`_operator_norm`); the certificate conservatively evaluates the
    larger of the two configured step sizes.
    """
    M = float(min(2.0 * cost.w.min(), config.eta))
    if M <= 0:
        raise ValueError("strong monotonicity requires positive weights and eta")
    L = _operator_norm(cost, model, config.eta)
    L = max(L, M)
    eps_max = 2.0 * M / (L * L)
    return StepSizeCertificate(
        M=M,
        L=L,
        eps_max=eps_max,
        eps_configured=float(max(config.eps_primal, config.eps_dual)),
    )


def _operator_norm(cost: CostParams, model: LinearFlowModel, eta: float) -> float:
    """Largest singular value of the saddle Jacobian J by Lanczos on J^T J from a
    fixed random start (Kuczynski and Wozniakowski, 1992), not reorthogonalized,
    until its rising estimate gains at most 1e-15 relative, beta = 0 or 4N steps."""
    n = model.n
    G = model.G
    wz2 = 2.0 * cost.w
    a2 = 2.0 * cost.alpha

    def j_apply(v: np.ndarray) -> np.ndarray:
        z, vl, vu = v[: 2 * n], v[2 * n : 3 * n], v[3 * n :]
        t = G @ z
        top = wz2 * z
        top[:n] += a2 * z[:n].sum()
        top += G.T @ (vu - vl)
        return np.concatenate([top, t + eta * vl, -t + eta * vu])

    # Dots by numpy's pairwise sum, not BLAS: a threaded BLAS dot of a long
    # vector depends on the thread count, and L would with it.
    rng = np.random.Generator(np.random.Philox(key=0))
    v = rng.standard_normal(4 * n)
    v /= math.sqrt(np.add.reduce(v * v))
    # J^T = S J S with S the sign flip of the dual block.
    sign = np.concatenate([np.ones(2 * n), -np.ones(2 * n)])
    alpha, beta, v_prev, b, theta = [], [], 0.0, 0.0, 0.0
    for _ in range(4 * n):
        w = sign * j_apply(sign * j_apply(v)) - b * v_prev
        alpha.append(float(np.add.reduce(w * v)))
        w -= alpha[-1] * v
        b = math.sqrt(np.add.reduce(w * w))
        prev, theta = theta, _top_eigenvalue(alpha, beta, theta)
        if b == 0.0 or theta - prev <= 1e-15 * theta:
            break
        beta.append(b)
        v_prev, v = v, np.divide(w, b, out=w)
    return math.sqrt(theta)


def _top_eigenvalue(alpha: list[float], beta: list[float], lo: float) -> float:
    """Largest eigenvalue, at least ``lo``, of the symmetric tridiagonal T with
    diagonal ``alpha`` and off-diagonal ``beta``, by bisection from a Gershgorin
    bound to adjacent floats: T - x I has a negative pivot per eigenvalue below x."""
    hi = max(lo, max(alpha) + 2.0 * max(beta, default=0.0))
    while lo < (x := 0.5 * (lo + hi)) < hi:
        d, below = 1.0, 0
        for a, b in zip(alpha, [0.0, *beta]):
            d = (a - x - b * b / d) or -1e-300
            below += d < 0.0
        lo, hi = (lo, x) if below == len(alpha) else (x, hi)
    return hi
