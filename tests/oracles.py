"""Independent reference implementations used only to check the package.

Everything here is deliberately built from first principles (full-bus Newton
power flow, closed forms, scalar objective, dense normal equations) and
shares no code with the implementations under test. The references:

- ``full_ybus`` and ``newton_power_flow``: the bus admittance matrix and a
  polar Newton-Raphson power flow, for the sweep plant;
- ``one_branch_voltage``: the exact two-bus voltage;
- ``scalar_lagrangian``: the controller's Lagrangian written out longhand;
- ``dense_sensitivities``: the explicit N x 2N matrix ``[A B]`` of a linear
  model, from ``PathSum`` operators too;
- ``linear_measurement_model``: the explicit dense WLS model (H, w) of a
  plan, whose channel weights are the plan's reference deviations
  (``sensing.plan_reference_sigmas``, the problem's definition, not its
  solve);
- ``wls_gain``, ``wls_closed_form`` and ``state_variance``: the WLS gain,
  the estimate by orthogonal factorization and the per-state variance
  diag((H^T W H)^-1), all dense;
- ``reference_sweep``: the sweep loop before its invariants were hoisted;
- ``reference_trace_statistics`` and ``reference_bound_terms``: a trace's
  statistics and the bound audit's terms computed one iteration at a time,
  as the loop and the audit did before they were derived from whole rows.
"""

from __future__ import annotations

import math

import numpy as np

from gridloop.netmodel import path_sum
from gridloop.sensing import plan_reference_sigmas


def full_ybus(net) -> np.ndarray:
    """(N+1) x (N+1) dense bus admittance matrix, substation row/col included."""
    nb = net.n + 1
    Y = np.zeros((nb, nb), dtype=complex)
    for b, (a, z) in enumerate(zip(net.parent, net.branch_z), start=1):
        y = 1.0 / z
        Y[a, a] += y
        Y[b, b] += y
        Y[a, b] -= y
        Y[b, a] -= y
    Y[np.diag_indices(nb)] += np.concatenate(([net.shunt0], net.shunts))
    return Y


def newton_power_flow(net, p, q, tol=1e-12, max_iter=60):
    """Polar Newton-Raphson solve of the PQ network; returns complex voltages
    of the non-slack nodes. Raises if Newton stalls."""
    nb = net.n + 1
    Y = full_ybus(net)
    s_spec = np.concatenate(([0.0], np.asarray(p) + 1j * np.asarray(q)))
    vm = np.full(nb, float(net.v0))
    va = np.zeros(nb)
    pq = np.arange(1, nb)
    for _ in range(max_iter):
        V = vm * np.exp(1j * va)
        Ibus = Y @ V
        mis = V * np.conj(Ibus) - s_spec
        f = np.concatenate([mis[pq].real, mis[pq].imag])
        if np.abs(f).max() < tol:
            return V[1:]
        diagV = np.diag(V)
        diagI = np.diag(Ibus)
        diagVn = np.diag(np.exp(1j * va))
        dS_dVa = 1j * diagV @ np.conj(diagI - Y @ diagV)
        dS_dVm = diagV @ np.conj(Y @ diagVn) + np.conj(diagI) @ diagVn
        J = np.block(
            [
                [dS_dVa[np.ix_(pq, pq)].real, dS_dVm[np.ix_(pq, pq)].real],
                [dS_dVa[np.ix_(pq, pq)].imag, dS_dVm[np.ix_(pq, pq)].imag],
            ]
        )
        dx = np.linalg.solve(J, -f)
        va[pq] += dx[: len(pq)]
        vm[pq] += dx[len(pq) :]
    raise RuntimeError("Newton power flow did not converge")


def one_branch_voltage(v0: float, z: complex, p: float, q: float) -> float:
    """Exact voltage magnitude at the receiving end of a single branch.

    Solves the quadratic in u = |V1|^2 obtained from V1 = V0 + z conj(s/V1):
    u^2 - u (2a + V0^2) + (a^2 + b^2) = 0 with a + jb = conj(z) s, taking the
    high-voltage root.
    """
    s = complex(p, q)
    w = np.conj(z) * s
    a, b = w.real, w.imag
    disc = (2 * a + v0**2) ** 2 - 4 * (a * a + b * b)
    u = ((2 * a + v0**2) + math.sqrt(disc)) / 2.0
    return math.sqrt(u)


def scalar_lagrangian(p, q, mu_l, mu_u, *, wp, wq, alpha, p0, q0, p0_target,
                      A, B, r0, v_min, v_max, eta) -> float:
    """Regularized Lagrangian value, written out longhand for gradient checks."""
    r = A @ p + B @ q + r0
    local = float(np.sum(wp * (p - p0) ** 2) + np.sum(wq * (q - q0) ** 2))
    substation = float(alpha * (-np.sum(p) - p0_target) ** 2)
    coupling = float(mu_l @ (v_min - r) + mu_u @ (r - v_max))
    tikhonov = 0.5 * eta * float(mu_l @ mu_l + mu_u @ mu_u)
    return local + substation + coupling - tikhonov


def dense_sensitivities(model) -> np.ndarray:
    """The explicit N x 2N matrix ``[A B]``; a ``PathSum`` block is applied
    to the identity (O(N^2) memory)."""
    blocks = [m if isinstance(m, np.ndarray) else m @ np.eye(model.n) for m in (model.A, model.B)]
    return np.hstack(blocks)


def linear_measurement_model(plan, model):
    """Dense (H, w) of the linear WLS model for the state z = (p, q): the
    sensor rows are the voltage rows [A_i B_i] of the model (its r0
    intercept folded into y), the pseudo rows the identity, and w the
    inverse-variance channel weights. O(N^2) memory."""
    sensors = np.array(plan.sensor_nodes, dtype=int) - 1
    G = dense_sensitivities(model)
    H = np.vstack([G[sensors], np.eye(2 * plan.n)])
    return H, plan_reference_sigmas(plan, model) ** -2.0


def wls_gain(H, w):
    """Explicit WLS gain Gamma = (H^T W H)^-1 H^T W for diagonal weights w,
    from a dense solve of the normal equations (2N x channels, O(N^2))."""
    HtW = H.T * w
    return np.linalg.solve(HtW @ H, HtW)


def wls_closed_form(H, w, y):
    """Weighted least squares via orthogonal factorization of sqrt(w) H."""
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(H * sw[:, None], y * sw, rcond=None)
    return sol


def state_variance(H, w):
    """Per-state WLS variance diag((H^T W H)^-1) for diagonal weights w, from
    the explicit inverse of the dense normal matrix."""
    return np.diag(np.linalg.inv((H.T * w) @ H))


def reference_sweep(net, p, q, tol=1e-10, max_iter=500):
    """The backward/forward sweep loop of ``plant.solve_power_flow`` as it
    stood before its loop invariants were hoisted, kept verbatim (on the
    network's own common-path impedance and admittance) so the lean loop
    can be checked bit for bit: returns ``(v, iterations, residual_history)``."""
    s = np.asarray(p, dtype=float) + 1j * np.asarray(q, dtype=float)
    Z = path_sum(net, net.branch_z)
    Y, y_bar, y00 = net._sweep[1:4]
    v0 = complex(net.v0)
    v = np.full(net.n, v0, dtype=complex)
    history: list[float] = []
    iterations = 0
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
            break
    return v, iterations, tuple(history)


def reference_trace_statistics(trace, ctx, p_slack):
    """The per-iteration bookkeeping of the closed loop as it stood when the
    loop computed its statistics one iteration at a time, kept verbatim (the
    cost formulas written out) so the statistics derived after the loop can
    be checked bit for bit. ``p_slack`` holds the plant's slack power per
    iteration as Python floats. Returns ``(columns, summary)``, the columns
    keyed by trace field."""
    cfgc, cost = ctx.cfg.controller, ctx.cost
    k_iter, n = trace.p.shape
    mu_l_norm, mu_u_norm, cost_local, cost_sub, violation, se_mean, se_max = (
        np.empty(k_iter) for _ in range(7)
    )
    dist = np.full(k_iter, np.nan)
    x_star_vec = None if ctx.x_star is None else ctx.x_star.as_vector()
    for k in range(k_iter):
        p_k, q_k = trace.p[k], trace.q[k]
        mu_lower, mu_upper = trace.mu_lower[k], trace.mu_upper[k]
        r_true, r_hat = trace.v_true[k], trace.r_hat[k]
        mu_l_norm[k] = math.sqrt(mu_lower.dot(mu_lower))
        mu_u_norm[k] = math.sqrt(mu_upper.dot(mu_upper))
        cost_local[k] = float(
            np.add.reduce(cost.wp * (p_k - cost.p_ref) ** 2)
            + np.add.reduce(cost.wq * (q_k - cost.q_ref) ** 2)
        )
        cost_sub[k] = float(cost.alpha * (p_slack[k] - cost.p0_target) ** 2)
        violation[k] = max(
            0.0,
            float(cfgc.v_min - np.minimum.reduce(r_true)),
            float(np.maximum.reduce(r_true) - cfgc.v_max),
        )
        err = np.abs(r_hat - r_true)
        se_mean[k] = float(np.add.reduce(err)) / n
        se_max[k] = np.maximum.reduce(err)
        if x_star_vec is not None:
            dist[k] = np.linalg.norm(np.concatenate([p_k, q_k, mu_lower, mu_upper]) - x_star_vec)
    columns = {
        "mu_lower_norm": mu_l_norm,
        "mu_upper_norm": mu_u_norm,
        "cost_local": cost_local,
        "cost_substation": cost_sub,
        "max_violation": violation,
        "se_err_mean": se_mean,
        "se_err_max": se_max,
        "dist_to_saddle": dist,
    }
    summary = {
        "trial": trace.summary["trial"],
        "seed": trace.summary["seed"],
        "final_cost_local": float(cost_local[-1]),
        "final_cost_substation": float(cost_sub[-1]),
        "final_max_violation": float(violation[-1]),
        "final_nodes_below_vmin": int((trace.v_true[-1] < cfgc.v_min).sum()),
        "se_err_mean_avg": float(se_mean.mean()),
    }
    return columns, summary


def reference_bound_terms(trace, model, x_star_vec):
    """The bound audit's per-iteration gradient-map gaps and squared saddle
    distance as they stood when computed one iteration at a time, kept
    verbatim (the linear model written out as ``A p + B q + r0``)."""
    k_iter = trace.iterations
    d_alpha = np.empty(k_iter)
    d_rho = np.empty(k_iter)
    dist_sq = np.empty(k_iter)
    for k in range(k_iter):
        r_lin = model.A @ trace.p[k] + model.B @ trace.q[k] + model.r0
        d_alpha[k] = 2.0 * float(np.sum((r_lin - trace.r_hat[k]) ** 2))
        d_rho[k] = 2.0 * float(np.sum((trace.r_hat[k] - trace.v_true[k]) ** 2))
        x = np.concatenate([trace.p[k], trace.q[k], trace.mu_lower[k], trace.mu_upper[k]])
        dist_sq[k] = float(np.sum((x - x_star_vec) ** 2))
    return d_alpha, d_rho, dist_sq
