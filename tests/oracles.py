"""Independent reference implementations used only to check the package.

Everything here is deliberately built from first principles (full-bus Newton
power flow, closed forms, scalar objective, dense normal equations) and
shares no code with the implementations under test. The references:

- ``full_ybus`` and ``newton_power_flow``: the bus admittance matrix and a
  polar Newton-Raphson power flow, for the sweep plant (the package builds
  no admittance matrix: its plant takes the power mismatch from the sweep
  itself, and only the slack row for the substation's power); Newton's
  stop is relative to ``mismatch_scale``;
- ``one_branch_voltage``: the exact two-bus voltage;
- ``scalar_lagrangian``: the controller's Lagrangian written out longhand;
- ``dense_sensitivities``: the explicit N x 2N sensitivity matrix G of a
  linear model, from ``PathSum`` operators too;
- ``linear_measurement_model``: the explicit dense WLS model (H, w) of a
  plan, whose channel weights are the plan's reference deviations
  (``sensing.plan_reference_sigmas``, the problem's definition, not its
  solve);
- ``wls_gain``, ``wls_closed_form`` and ``state_variance``: the WLS gain,
  the estimate by orthogonal factorization and the per-state variance
  diag((H^T W H)^-1) (or that of a mapped estimate), all dense;
- ``reference_sweep``: the sweep loop before its invariants were hoisted,
  with the power mismatch taken through the full-bus admittance matrix;
- ``reference_trace_statistics`` and ``reference_bound_terms``: a trace's
  statistics and the bound audit's terms computed one iteration at a time,
  as the loop and the audit did before they were derived from whole rows;
- ``lbfgsb_saddle``: the saddle point by scipy's L-BFGS-B and Newton-CG;
- ``reference_loop``: one trial of the closed loop composed from the
  references above, the noise drawn from a fresh Philox generator per draw
  and the controller's step written out.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize as sopt
import scipy.sparse.linalg as sspla

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


def newton_power_flow(net, p, q, tol=1e-14, max_iter=60):
    """Polar Newton-Raphson solve of the PQ network; returns complex voltages
    of the non-slack nodes. It stops when the real and imaginary parts of
    every mismatch lie within ``tol`` times their row's scale
    :func:`mismatch_scale`, the size of the terms the mismatch sums: an
    absolute stop is below the rounding of those terms where line
    admittances are large. Raises if Newton stalls."""
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
        if (np.abs(f) <= tol * np.tile(mismatch_scale(Y, vm)[pq], 2)).all():
            return V[1:]
        # The products with diagonal matrices as row and column scalings.
        Vn = np.exp(1j * va)
        dS_dVa = 1j * V[:, None] * np.conj(np.diag(Ibus) - Y * V)
        dS_dVm = V[:, None] * np.conj(Y * Vn) + np.diag(np.conj(Ibus) * Vn)
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


def mismatch_scale(Y: np.ndarray, v_mag: np.ndarray) -> np.ndarray:
    """Per bus i, |V_i| sum_j |Y_ij| |V_j|: the largest the terms of its
    power mismatch V_i conj(sum_j Y_ij V_j) can be, and so the scale of
    their rounding."""
    return v_mag * (np.abs(Y) @ v_mag)


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
                      G, r0, v_min, v_max, eta) -> float:
    """Regularized Lagrangian value, written out longhand for gradient checks."""
    r = G @ np.concatenate([p, q]) + r0
    local = float(np.sum(wp * (p - p0) ** 2) + np.sum(wq * (q - q0) ** 2))
    substation = float(alpha * (-np.sum(p) - p0_target) ** 2)
    coupling = float(mu_l @ (v_min - r) + mu_u @ (r - v_max))
    tikhonov = 0.5 * eta * float(mu_l @ mu_l + mu_u @ mu_u)
    return local + substation + coupling - tikhonov


def dense_sensitivities(model) -> np.ndarray:
    """The explicit N x 2N sensitivity G; a ``PathSum`` is applied to the
    identity (O(N^2) memory)."""
    G = model.G
    return G if isinstance(G, np.ndarray) else G @ np.eye(2 * model.n)


def linear_measurement_model(plan, model):
    """Dense (H, w) of the linear WLS model for the state z = (p, q): the
    sensor rows are the rows G_i of the model's sensitivity (its r0
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


def state_variance(H, w, G=None):
    """Per-state WLS variance diag((H^T W H)^-1) for diagonal weights w, from
    the explicit inverse of the dense normal matrix; given a map ``G``, the
    variance diag(G (H^T W H)^-1 G^T) of the mapped estimate ``G z_hat``."""
    cov = np.linalg.inv((H.T * w) @ H)
    return np.diag(cov) if G is None else np.einsum("ij,jk,ik->i", G, cov, G)


def reference_sweep(net, p, q, tol=1e-10, max_iter=500):
    """The backward/forward sweep loop of ``plant.solve_power_flow`` as it
    stood before its loop invariants were hoisted, on the network's own
    common-path impedance, with the power mismatch ``v conj(Y v + y_bar v0)
    - s`` of the non-slack rows of :func:`full_ybus` (dense at any size):
    returns ``(v, iterations, residual_history)``."""
    s = np.asarray(p, dtype=float) + 1j * np.asarray(q, dtype=float)
    Z = path_sum(net, net.branch_z)
    full = full_ybus(net)
    Y, y_bar = full[1:, 1:], full[1:, 0]
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
    cost formulas written out, each norm a pairwise sum of squares) so the
    statistics derived after the loop can be checked bit for bit.
    ``p_slack`` holds the plant's slack power per iteration as Python
    floats. Returns ``(columns, summary)``, the columns keyed by trace
    field."""
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
        mu_l_norm[k] = math.sqrt(np.add.reduce(mu_lower * mu_lower))
        mu_u_norm[k] = math.sqrt(np.add.reduce(mu_upper * mu_upper))
        cost_local[k] = float(
            np.add.reduce(cost.w[:n] * (p_k - cost.z_ref[:n]) ** 2)
            + np.add.reduce(cost.w[n:] * (q_k - cost.z_ref[n:]) ** 2)
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
            gap = np.concatenate([p_k, q_k, mu_lower, mu_upper]) - x_star_vec
            dist[k] = math.sqrt(np.add.reduce(gap * gap))
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
    verbatim (the linear model written out as ``G z + r0``)."""
    k_iter = trace.iterations
    d_alpha = np.empty(k_iter)
    d_rho = np.empty(k_iter)
    dist_sq = np.empty(k_iter)
    for k in range(k_iter):
        r_lin = model.G @ np.concatenate([trace.p[k], trace.q[k]]) + model.r0
        d_alpha[k] = 2.0 * float(np.sum((r_lin - trace.r_hat[k]) ** 2))
        d_rho[k] = 2.0 * float(np.sum((trace.r_hat[k] - trace.v_true[k]) ** 2))
        x = np.concatenate([trace.p[k], trace.q[k], trace.mu_lower[k], trace.mu_upper[k]])
        dist_sq[k] = float(np.sum((x - x_star_vec) ** 2))
    return d_alpha, d_rho, dist_sq


def lbfgsb_saddle(ctx):
    """The saddle point ``(p, q, mu_lower, mu_upper)`` of a prepared run
    context as one vector, by the solve the saddle oracle used before its
    projected Newton method: L-BFGS-B on C(z) + ||[g(z)]_+||^2 / (2 eta)
    from the same three starts, then Newton-CG on the set of variables more
    than 1e-9 inside the box (Nocedal and Wright, 2006, sec. 7.1) from the
    start with the lowest objective, with scipy's solvers throughout."""
    net, model, cost, cfgc = ctx.net, ctx.model, ctx.cost, ctx.cfg.controller
    n, (pmin, pmax, qmin, qmax, _) = net.n, net.box
    G, eta = model.G, cfgc.eta
    d_l = cfgc.v_min - model.r0
    d_u = model.r0 - cfgc.v_max
    wz, z_ref = 2.0 * cost.w, cost.z_ref
    lo = np.concatenate([pmin, qmin])
    hi = np.concatenate([pmax, qmax])

    def objective(z):
        r = G @ z
        gl = np.maximum(d_l - r, 0.0)
        gu = np.maximum(r + d_u, 0.0)
        agg = z[:n].sum() + cost.p0_target
        val = 0.5 * np.sum(wz * (z - z_ref) ** 2) + cost.alpha * agg**2 + (gl @ gl + gu @ gu) / (2.0 * eta)
        grad = wz * (z - z_ref) + G.T @ (gu - gl) / eta
        grad[:n] += 2.0 * cost.alpha * agg
        return val, grad

    def hessian(z, free):
        r = G @ z
        active = ((d_l - r) > 0.0) | ((r + d_u) > 0.0)
        full = np.zeros(2 * n)

        def matvec(v):
            full[free] = v.ravel()
            hv = wz * full + G.T @ (active * (G @ full)) / eta
            hv[:n] += 2.0 * cost.alpha * full[:n].sum()
            return hv[free]

        k = int(free.sum())
        return sspla.LinearOperator((k, k), matvec=matvec, dtype=float)

    rng = np.random.Generator(np.random.Philox(key=ctx.cfg.base_seed))
    starts = [z_ref] + [lo + rng.uniform(0.0, 1.0, 2 * n) * (hi - lo) for _ in range(2)]
    sols = [
        sopt.minimize(
            objective, np.clip(z0, lo, hi), jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
            options={"maxiter": 20000, "ftol": 1e-18, "gtol": 1e-12},
        ).x
        for z0 in starts
    ]
    z = min(sols, key=lambda zz: objective(zz)[0])
    for _ in range(40):
        at_lo = z <= lo + 1e-9
        at_hi = z >= hi - 1e-9
        free = ~(at_lo | at_hi)
        z_new = np.where(at_lo, lo, np.where(at_hi, hi, z))
        if free.any():
            step, _ = sspla.cg(hessian(z_new, free), -objective(z_new)[1][free], rtol=1e-14)
            z_new[free] += step
        z_new = np.clip(z_new, lo, hi)
        done = np.abs(z_new - z).max() < 1e-14
        z = z_new
        if done:
            break
    r = G @ z
    return np.concatenate([z, np.maximum(d_l - r, 0.0) / eta, np.maximum(r + d_u, 0.0) / eta])


# Each feedback mode's voltage rule: the plant's truth, the raw sensor
# readings, the WLS estimate reconstructed, or the linear model at the iterate.
REFERENCE_RULES = {
    "se_loop": "estimate",
    "raw_measurements": "raw",
    "full_exact": "truth",
    "pseudo_only": "estimate",
    "linear_model": "linear",
}


def reference_loop(ctx, trial=0, newton_tol=1e-14):
    """Trial ``trial`` of the closed loop on a prepared run context, composed
    from the references alone: the plant and the nonlinear reconstruction by
    :func:`newton_power_flow`, the linear ones by the dense G of
    :func:`dense_sensitivities`; the noise of iteration k from a fresh
    ``Philox(counter=[0, 0, 0, k], key=[seed, lane])`` per draw (lane 0 the
    sensors, lane 1 the pseudo channels, k = 0 under ``pseudo_fixed``), as
    ``gridloop.sensing`` defines it; the estimate by :func:`wls_closed_form`
    on :func:`linear_measurement_model`; and the gradient, the box clip and
    the regularized dual ascent written out. The context supplies the
    network, the linear model, the scenario and the mode's sensor nodes.
    Newton stops at a mismatch of ``newton_tol`` relative to its row's
    :func:`mismatch_scale`. Returns the per-iteration
    rows of ``p``, ``q``, ``mu_lower``, ``mu_upper``, ``v_true`` and ``r_hat``
    keyed by those names."""
    cfg, net, model = ctx.cfg, ctx.net, ctx.model
    cfgc, spec, cost = cfg.controller, cfg.plan, cfg.cost
    if net.disk_capped:
        raise ValueError("the reference loop clips to boxes only")
    n, seed, rule = net.n, cfg.base_seed + trial, REFERENCE_RULES[cfg.feedback_mode]
    G, r0 = dense_sensitivities(model), model.r0
    sensors = np.array(ctx.plan.sensor_nodes, dtype=int) - 1
    H, w = linear_measurement_model(ctx.plan, model)
    base = np.concatenate([net.p0, net.q0])
    pseudo_std = spec.pseudo_sigma * np.maximum(np.abs(base), 0.01)
    pmin, pmax, qmin, qmax, _ = net.box
    target = -net.p0.sum() if cost.p0_target is None else cost.p0_target

    def voltages(p, q, kind):
        if kind == "linear":
            return G @ np.concatenate([p, q]) + r0
        return np.abs(newton_power_flow(net, p, q, tol=newton_tol))

    def normals(lane, k, count):
        bits = np.random.Philox(counter=[0, 0, 0, k], key=[seed, lane])
        return np.random.Generator(bits).standard_normal(count)

    p, q = np.clip(net.p0, pmin, pmax), np.clip(net.q0, qmin, qmax)
    mu_l, mu_u = np.zeros(n), np.zeros(n)
    rows = {name: [] for name in ("p", "q", "mu_lower", "mu_upper", "v_true", "r_hat")}
    for k in range(cfg.iterations):
        v = voltages(p, q, cfg.plant_model)
        if rule == "truth":
            r = v
        elif rule == "linear":
            r = voltages(p, q, "linear")
        else:
            readings = v[sensors] * (1.0 + spec.sensor_sigma * normals(0, k, len(sensors)))
            r = readings
            if rule == "estimate":
                pseudo = base + pseudo_std * normals(1, 0 if spec.pseudo_fixed else k, 2 * n)
                z_hat = wls_closed_form(H, w, np.concatenate([readings - r0[sensors], pseudo]))
                r = voltages(z_hat[:n], z_hat[n:], cfg.estimation_mode)
        for name, value in zip(rows, (p, q, mu_l, mu_u, v, r)):
            rows[name].append(value)
        g_mu = G.T @ (mu_u - mu_l)
        g_p = 2.0 * cost.wp * (p - net.p0) + 2.0 * cost.alpha * (p.sum() + target) + g_mu[:n]
        g_q = 2.0 * cost.wq * (q - net.q0) + g_mu[n:]
        p = np.clip(p - cfgc.eps_primal * g_p, pmin, pmax)
        q = np.clip(q - cfgc.eps_primal * g_q, qmin, qmax)
        mu_l = np.maximum(mu_l + cfgc.eps_dual * (cfgc.v_min - r - cfgc.eta * mu_l), 0.0)
        mu_u = np.maximum(mu_u + cfgc.eps_dual * (r - cfgc.v_max - cfgc.eta * mu_u), 0.0)
    return {name: np.array(values) for name, values in rows.items()}
