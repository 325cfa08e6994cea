"""Closed-loop execution: controller against plant with estimation feedback.

One iteration follows the online pattern: the plant responds to the current
injections, sensors sample that response, the estimator reconstructs the
voltage profile, the primal variables take a projected gradient step, and the
duals ascend using the reconstructed voltages. Everything is deterministic
given the scenario seeds; trials differ only through their measurement seed.

``prepare`` turns a ``ScenarioConfig`` into a ``RunContext``; the loop, the
saddle oracle, the audits and the baseline comparison run on that context
and read every setting from ``ctx.cfg``. ``run_trials`` yields a scenario's
trials one after another, each run on that one context in the process that
prepared it. ``scenario_certificate`` builds only what the step-size
certificate reads.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from functools import cached_property, partial
from itertools import combinations
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import floatfmt
from .controller import (
    ControllerConfig,
    ControllerState,
    CostParams,
    StepSizeCertificate,
    certify_step_size,
    dual_step,
    initial_state,
    primal_grad,
    primal_step,
)
from .estimator import WlsEstimator, estimate_voltages
from .feeders import resolve_network
from .linearizer import LINEARIZATIONS, LinearFlowModel, eval_linear, linearize
from .netmodel import NetworkModel, load_network, scale_injections, z_bounds
from .plant import solve_power_flow
from .sensing import SEED_LIMIT, MeasurementPlan, make_plan, sample_measurements

# A feedback mode is a plan's sensors (the scenario's, none or every node)
# and a rule for the voltage the dual update uses: the truth, the raw sensor
# readings, the WLS estimate reconstructed, or the linear model at the
# injections (see ``_measurement`` and ``_feedback_rule``).
_MODES = {
    "se_loop": ("scenario", "estimate"),
    "raw_measurements": ("every node", "raw"),
    "full_exact": ("scenario", "truth"),
    "pseudo_only": ("none", "estimate"),
    "linear_model": ("scenario", "linear"),
}
FEEDBACK_MODES = tuple(_MODES)
# Feedback modes that run the WLS estimator (and so have confidence intervals).
ESTIMATING_MODES = tuple(mode for mode, (_, rule) in _MODES.items() if rule == "estimate")
BASELINE_MODES = ("se_loop", "raw_measurements", "pseudo_only")
# Seeds key Philox streams. The sensor placement seed is a 64-bit key word;
# the measurement seed of every trial (base_seed + trial) must stay below
# ``sensing.SEED_LIMIT``.
PLACEMENT_SEED_LIMIT = 2**64


class HarnessError(RuntimeError):
    pass


class PlantDivergence(HarnessError):
    """The physical solve failed mid-run; message carries the diagnostic."""


class CertificateError(HarnessError):
    """Configured step sizes exceed the certified range and no override is set."""


@dataclass(frozen=True)
class PlanSpec:
    """Scenario-level description of the measurement system."""

    sensor_nodes: tuple[int, ...] | None = None
    sensor_fraction: float | None = 0.036
    placement_seed: int = 0
    sensor_sigma: float = 0.01
    pseudo_sigma: float = 0.5
    pseudo_fixed: bool = False

    def __post_init__(self) -> None:
        fraction = self.sensor_fraction
        if fraction is not None and not 0.0 < fraction <= 1.0:
            raise ValueError(f"scenario key 'plan.sensor_fraction' must lie in (0, 1], got {fraction}")
        if self.sensor_nodes is None and fraction is None:
            raise ValueError("scenario keys 'plan.sensor_nodes' and 'plan.sensor_fraction' are null")
        if not 0 <= self.placement_seed < PLACEMENT_SEED_LIMIT:
            raise ValueError(
                f"scenario key 'plan.placement_seed' must lie in [0, 2**64), got {self.placement_seed}"
            )
        for key in ("sensor_sigma", "pseudo_sigma"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"scenario key 'plan.{key}' must be >= 0, got {getattr(self, key)}")
        nodes = self.sensor_nodes or ()
        below = [s for s in nodes if s < 1]
        if below:
            raise ValueError(f"scenario key 'plan.sensor_nodes' names node(s) {below} below 1")
        if len(set(nodes)) != len(nodes):
            dup = sorted({s for s in nodes if nodes.count(s) > 1})
            raise ValueError(f"scenario key 'plan.sensor_nodes' repeats node(s) {dup}")


@dataclass(frozen=True)
class CostSpec:
    wp: float = 1.0
    wq: float = 1.0
    alpha: float = 0.0005
    p0_target: float | None = None

    def __post_init__(self) -> None:
        for key in ("wp", "wq"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"scenario key 'cost.{key}' must be > 0, got {getattr(self, key)}")
        if not self.alpha >= 0.0:
            raise ValueError(f"scenario key 'cost.alpha' must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce a run, serializable to the scenario file."""

    network: str
    controller: ControllerConfig
    cost: CostSpec = CostSpec()
    plan: PlanSpec = PlanSpec()
    load_scale: float = 1.0
    linearization: str = "lindistflow"
    feedback_mode: str = "se_loop"
    plant_model: str = "nonlinear"
    estimation_mode: str = "nonlinear"
    iterations: int = 1000
    trials: int = 1
    base_seed: int = 0
    allow_uncertified: bool = False
    track_saddle: bool = False
    verify_bound: bool = False
    tighten_ci: float | None = None

    def __post_init__(self) -> None:
        if not self.network:
            raise ValueError("scenario key 'network' must name a builtin network or a file")
        if not self.load_scale > 0.0:
            raise ValueError(f"scenario key 'load_scale' must be > 0, got {self.load_scale}")
        for key in ("iterations", "trials"):
            if getattr(self, key) < 1:
                raise ValueError(f"scenario key {key!r} must be >= 1, got {getattr(self, key)}")
        if not 0 <= self.base_seed <= SEED_LIMIT - self.trials:
            raise ValueError(
                f"scenario key 'base_seed' must be >= 0 with base_seed + trials - 1 < 2**63, "
                f"got {self.base_seed} with {self.trials} trials"
            )
        models = ("nonlinear", "linear")
        choices = {"feedback_mode": FEEDBACK_MODES, "plant_model": models,
                   "estimation_mode": models, "linearization": LINEARIZATIONS}
        for key, options in choices.items():
            value = getattr(self, key)
            if value not in options:
                raise ValueError(f"scenario key {key!r} must be one of {options}, got {value!r}")
        c = self.tighten_ci
        if c is not None:
            if not (math.isfinite(c) and c > 0):
                raise ValueError(f"scenario key 'tighten_ci' must be finite and > 0, got {c}")
            if self.feedback_mode not in ESTIMATING_MODES:
                raise ValueError(
                    f"scenario key 'feedback_mode' must be one of {ESTIMATING_MODES}, as "
                    f"tighten_ci requires an estimating mode, got {self.feedback_mode!r}"
                )

    def to_dict(self) -> dict:
        return _to_raw(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Build from a scenario mapping; defaults come from the dataclasses.

        Unknown or missing keys and values of the wrong type raise
        ``ValueError`` naming the dotted key.
        """
        return _from_raw(cls, raw, "")


def _to_raw(value):
    if is_dataclass(value):
        return {f.name: _to_raw(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_to_raw(v) for v in value]
    return value


def _from_raw(cls, raw, key: str):
    if not isinstance(raw, dict):
        raise ValueError(f"scenario key {key or '<root>'!r} must be an object, got {raw!r}")
    prefix = f"{key}." if key else ""
    names = {f.name for f in fields(cls)}
    unknown = sorted(set(raw) - names)
    if unknown:
        raise ValueError(f"unknown scenario key {prefix + unknown[0]!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name in raw:
            kwargs[f.name] = _coerce(hints[f.name], raw[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing scenario key {prefix + f.name!r}")
    return cls(**kwargs)


def _coerce(tp, value, key: str):
    """``value`` as the annotated type ``tp``: JSON numbers may widen from int
    to float but never narrow, floats must be finite (JSON ``NaN`` and
    ``Infinity`` parse), and only JSON booleans are booleans."""
    if is_dataclass(tp):
        return _from_raw(tp, value, key)
    args = get_args(tp)
    if isinstance(tp, UnionType):
        if value is None and type(None) in args:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _coerce(tp, value, key)
    if get_origin(tp) is tuple and isinstance(value, (list, tuple)):
        return tuple(_coerce(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if tp in (bool, str) and type(value) is tp:
        return value
    if tp is float and type(value) in (int, float):
        # Exact comparison: False for NaN, infinities and ints beyond floats.
        if abs(value) <= sys.float_info.max:
            return float(value)
        raise ValueError(f"scenario key {key!r} must be finite, got {value!r}")
    if tp is int and (type(value) is int or type(value) is float and value.is_integer()):
        return int(value)
    raise ValueError(f"scenario key {key!r} must be {tp.__name__}, got {value!r}")


@dataclass
class RunContext:
    """Prepared runtime bundle shared by every trial of one scenario; the
    harness's entry points read every setting from ``cfg``."""

    cfg: ScenarioConfig
    net: NetworkModel
    model: LinearFlowModel
    cost: CostParams
    plan: MeasurementPlan
    certificate: StepSizeCertificate | None
    estimator: WlsEstimator | None
    x_star: ControllerState | None = None

    def require_certificate(self) -> StepSizeCertificate:
        if self.certificate is None:
            self.certificate = certify_step_size(self.cost, self.model, self.cfg.controller)
        return self.certificate

    @cached_property
    def voltage_variance(self) -> np.ndarray:
        """The estimator's voltage variance, computed once per context and
        shared by the run's confidence intervals and the tightening
        (read-only)."""
        var = self.estimator.voltage_variance()
        var.flags.writeable = False
        return var


def prepare(cfg: ScenarioConfig, net: NetworkModel | None = None) -> RunContext:
    """Load the network, linearize, certify steps, and bind the feedback
    mode's measurement plan and estimator.

    With allow_uncertified the (possibly expensive) certificate is deferred
    until something asks for it. ``net`` short-circuits file loading for
    programmatically built feeders.
    """
    net, model, cost = _problem(cfg, net)
    certificate = None
    if not cfg.allow_uncertified:
        certificate = certify_step_size(cost, model, cfg.controller)
        if not certificate.certified:
            raise CertificateError(
                f"step size {certificate.eps_configured:.3e} is not certified "
                f"(eps_max = {certificate.eps_max:.3e}); set allow_uncertified to override"
            )
    plan, estimator = _measurement(cfg, net, model)
    ctx = RunContext(cfg, net, model, cost, plan, certificate, estimator)
    if cfg.track_saddle:
        ctx.x_star = saddle_oracle(ctx)
    return ctx


def scenario_certificate(cfg: ScenarioConfig) -> StepSizeCertificate:
    """The step-size certificate of ``cfg``, built from only what it reads:
    the network, the linear model and the cost."""
    _, model, cost = _problem(cfg)
    return certify_step_size(cost, model, cfg.controller)


def _problem(cfg: ScenarioConfig, net: NetworkModel | None = None):
    """The scaled network (loaded unless given), its linear model and the cost."""
    if net is None:
        net = load_network(resolve_network(cfg.network))
    net = scale_injections(net, cfg.load_scale)
    model = linearize(net, cfg.linearization)
    return net, model, CostParams.for_network(net, **asdict(cfg.cost))


def _measurement(cfg: ScenarioConfig, net: NetworkModel, model: LinearFlowModel):
    """The plan of ``cfg.feedback_mode`` (the scenario's sensors, none or
    every node) and, when its rule estimates, the plan's WLS estimator."""
    spec = cfg.plan
    beyond = [s for s in spec.sensor_nodes or () if s > net.n]
    if beyond:
        raise ValueError(f"scenario key 'plan.sensor_nodes' names node(s) {beyond} above {net.n}")
    sensors, rule = _MODES[cfg.feedback_mode]
    nodes, fraction = spec.sensor_nodes, spec.sensor_fraction
    if sensors != "scenario":
        nodes, fraction = (() if sensors == "none" else tuple(range(1, net.n + 1))), None
    plan = make_plan(
        net.n, nodes, fraction, spec.placement_seed, spec.sensor_sigma, spec.pseudo_sigma,
        np.concatenate([net.p0, net.q0]), cfg.base_seed, spec.pseudo_fixed,
    )
    return plan, WlsEstimator(plan, model) if rule == "estimate" else None


# ---------------------------------------------------------------------------
# Closed loop


@dataclass
class SimulationTrace:
    """Per-iteration records of one trial (row k reflects iterate k); ``z``
    holds the injections (p, q), and ``p`` and ``q`` are read-only views of
    its halves."""

    z: np.ndarray
    v_true: np.ndarray
    r_hat: np.ndarray
    mu_lower: np.ndarray
    mu_upper: np.ndarray
    mu_lower_norm: np.ndarray
    mu_upper_norm: np.ndarray
    cost_local: np.ndarray
    cost_substation: np.ndarray
    max_violation: np.ndarray
    se_err_mean: np.ndarray
    se_err_max: np.ndarray
    dist_to_saddle: np.ndarray
    summary: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.z.shape[0]

    @property
    def p(self) -> np.ndarray:
        return self._half(slice(None, self.z.shape[1] // 2))

    @property
    def q(self) -> np.ndarray:
        return self._half(slice(self.z.shape[1] // 2, None))

    def _half(self, cols: slice) -> np.ndarray:
        view = self.z[:, cols]
        view.flags.writeable = False
        return view

    def to_csv(self, path: str | Path) -> None:
        """Write the trace with :func:`write_rows`, one row per iteration."""
        n = self.v_true.shape[1]
        # One comma-joined group of labels per vector: 16,000 f-strings took
        # 4.6 ms of writing a 4000-node trace.
        nodes = list(map(str, range(1, n + 1)))
        header = ["iter", *(f"{label}_" + f",{label}_".join(nodes) for label, _ in _CSV_VECTORS)]
        header += _CSV_SCALARS
        blocks = [getattr(self, name) for _, name in _CSV_VECTORS]
        blocks.append(np.column_stack([getattr(self, name) for name in _CSV_SCALARS]))
        rows = (
            row
            for part in _row_blocks(self.iterations, len(_CSV_VECTORS) * n + len(_CSV_SCALARS))
            for row in np.concatenate([block[part] for block in blocks], axis=1)
        )
        write_rows(path, header, enumerate(rows))


def write_rows(path: str | Path, header: list[str], rows: Iterable, end: str = "\n") -> None:
    """Write a CSV in a byte-stable format: the header, then per ``(k,
    cells)`` of ``rows`` the integer ``k`` and the float64 array ``cells`` as
    shortest round-trip ``repr`` values, each line ended by ``end``.

    The cells are formatted by :func:`floatfmt.format_cells`, the bytes of
    ``repr`` from numpy blocks of at most ``_BLOCK_CELLS`` cells: short rows
    are gathered into one block, their ``k,`` heads written together, and a
    longer row is split over several. ``rows`` may be a generator; what is
    held is one block of rows and one block of text."""
    endb = end.encode()
    sep = floatfmt.separator(endb)
    with open(path, "wb") as fh:
        fh.write(f"{','.join(header)}{end}".encode())
        keys, parts, fill, limit = [], [], 0, _BLOCK_CELLS
        for k, cells in rows:
            fill += cells.size
            if fill > limit and parts:
                _write_block(fh, keys, parts, endb, sep)
                keys, parts, fill = [], [], cells.size
            keys.append(k)
            parts.append(cells)
        if parts:
            _write_block(fh, keys, parts, endb, sep)


# Cells per floatfmt.format_cells call: about 95 numpy calls a block, and
# temporaries of about 63 bytes a cell (0.52 MB at 8192 cells; at 16384
# tests/test_harness.py's 0.6 MB cap on writing a long row fails). 4096
# cells a block wrote a trace about 10% slower.
_BLOCK_CELLS = 8192
# Cells per block of rows in the trace reductions (_row_blocks). At 4096 a
# bound-audit run held more than 0.8 MB above its trace (tests/test_cli.py).
_ROW_BLOCK_CELLS = 2048


def _write_block(fh, keys, parts, endb, sep) -> None:
    """Write the rows ``parts`` headed by ``keys``: several rows of at most
    ``_BLOCK_CELLS`` cells in all by one ``format_cells`` call, one longer
    row a block at a time."""
    if len(parts) == 1 and parts[0].size > _BLOCK_CELLS:
        (row,) = parts
        fh.write(b"%d," % keys[0])
        for start in range(0, row.size, _BLOCK_CELLS):
            cells = row[start : start + _BLOCK_CELLS]
            ends = [cells.size - 1] if start + _BLOCK_CELLS >= row.size else []
            fh.write(floatfmt.format_cells(cells, np.array(ends, np.intp), sep))
        return
    sizes = np.fromiter(map(len, parts), np.intp, len(parts))
    ends = np.cumsum(sizes)
    ends -= 1
    cells = np.concatenate(parts)
    parts.clear()  # the rows' own blocks go before the formatting peaks
    text = floatfmt.format_cells(cells, ends[sizes > 0], sep)
    del cells
    segments = text.split(endb)
    del text
    if not sizes.all():
        it = iter(segments)
        segments = [next(it) if size else b"" for size in sizes.tolist()]
    lines = [None] * (2 * len(keys))
    lines[::2] = keys
    lines[1::2] = segments[: len(keys)]
    fh.write((b"%d,%b" + endb) * len(keys) % tuple(lines))


# Trace CSV columns after "iter": (header label, field) per node, then scalars.
_CSV_VECTORS = (("v_true", "v_true"), ("v_hat", "r_hat"), ("p", "p"), ("q", "q"))
_CSV_SCALARS = (
    "mu_lower_norm",
    "mu_upper_norm",
    "cost_local",
    "cost_substation",
    "max_violation",
    "se_err_mean",
    "se_err_max",
    "dist_to_saddle",
)


def _plant_truth(ctx: RunContext, z: np.ndarray, k: int):
    """True response and slack power under the configured plant."""
    n = ctx.net.n
    if ctx.cfg.plant_model == "linear":
        return eval_linear(ctx.model, z), float(-z[:n].sum())
    p, q = z[:n], z[n:]
    sol = solve_power_flow(ctx.net, p, q)
    if not sol.converged:
        raise PlantDivergence(
            f"plant diverged at iteration {k} (residual {sol.residual:.3e}, "
            f"{sol.iterations} sweeps; injections norm {np.linalg.norm(p + 1j * q):.3f})"
        )
    return sol.v_mag, sol.p_slack


def _feedback_rule(ctx: RunContext, plan: MeasurementPlan):
    """The feedback mode's rule, ``rule(r_true, z, k)``: the voltage
    vector iteration k hands the dual update. Noiseless sensors on every
    node read the truth, so that plan takes the truth rule and draws no
    sample (``r * (1 + 0 * xi)`` is ``r`` bit for bit)."""
    rule = _MODES[ctx.cfg.feedback_mode][1]
    ns = len(plan.sensor_nodes)
    if rule in ("raw", "estimate") and plan.sensor_sigma == 0.0 and ns == ctx.net.n:
        rule = "truth"
    if rule == "truth":
        return lambda r_true, z, k: r_true
    if rule == "linear":
        return lambda r_true, z, k: eval_linear(ctx.model, z)
    if rule == "raw":
        return lambda r_true, z, k: sample_measurements(plan, r_true, k)[:ns]
    est, net, model, recon = ctx.estimator, ctx.net, ctx.model, ctx.cfg.estimation_mode

    def estimate(r_true, z, k):
        z_hat = est.solve(est.adjust(sample_measurements(plan, r_true, k)))
        return estimate_voltages(z_hat, net, model, recon)[0]

    return estimate


def run_closed_loop(ctx: RunContext, trial: int = 0) -> SimulationTrace:
    """Run one trial of the feedback loop on the prepared context and
    collect its trace.

    The measurement seed for trial t is base_seed + t; everything else is
    shared across trials. An iteration records the iterate, the plant's
    response and the feedback, then steps; :func:`_derive_trace` does the rest.
    """
    cfg, cfgc = ctx.cfg, ctx.cfg.controller
    plan = replace(ctx.plan, seed=cfg.base_seed + trial)
    z = np.empty((cfg.iterations, 2 * ctx.net.n))
    mu_l, mu_u, v_true, r_hat = (np.empty((cfg.iterations, ctx.net.n)) for _ in range(4))
    p_slack = np.empty(cfg.iterations)
    state = initial_state(ctx.net)
    feedback = _feedback_rule(ctx, plan)
    for k in range(cfg.iterations):
        z[k], mu_l[k], mu_u[k] = state.z, state.mu_lower, state.mu_upper
        v_true[k], p_slack[k] = _plant_truth(ctx, state.z, k)
        r_hat[k] = feedback(v_true[k], state.z, k)
        state = _step(ctx, state, r_hat[k], cfgc)
    return _derive_trace(ctx, plan.seed, trial, z, mu_l, mu_u, v_true, r_hat, p_slack)


def _step(ctx: RunContext, state: ControllerState, r: np.ndarray, cfgc: ControllerConfig):
    """The next iterate: a projected primal step, then a dual step with the
    voltage feedback ``r``. The primal step keeps the duals and the dual
    step keeps the primal variables, so chaining them gives the iterate."""
    g = primal_grad(state, ctx.cost, ctx.model)
    return dual_step(primal_step(state, g, ctx.net, cfgc), r, cfgc)


def _derive_trace(ctx, seed, trial, z, mu_l, mu_u, v_true, r_hat, p_slack) -> SimulationTrace:
    """The trace of one trial from its records (row k for iteration k), each
    scalar column and the summary derived one statistic at a time. Sums,
    minima and maxima reduce the rows of C-order (K, N) blocks, which gives
    each row the bytes of its own 1-D reduction; so do the norms
    (:func:`_row_norms`, :func:`_saddle_dist_sq`). The substation cost keeps
    Python-float ``pow``: numpy's square can differ from it in the last bit."""
    cfgc, n = ctx.cfg.controller, v_true.shape[1]
    cost_local = ctx.cost.local_cost(z)
    cost_sub = np.array([ctx.cost.substation_cost(s) for s in p_slack.tolist()])
    below = cfgc.v_min - np.minimum.reduce(v_true, axis=1)
    violation = np.maximum(0.0, np.maximum(below, np.maximum.reduce(v_true, axis=1) - cfgc.v_max))
    err = r_hat - v_true
    np.abs(err, out=err)
    se_mean = np.add.reduce(err, axis=1) / n
    dist = np.full(len(z), np.nan)
    if ctx.x_star is not None:
        dist = np.sqrt(_saddle_dist_sq(z, mu_l, mu_u, ctx.x_star.as_vector()))
    summary = {
        "trial": trial,
        "seed": seed,
        "final_cost_local": float(cost_local[-1]),
        "final_cost_substation": float(cost_sub[-1]),
        "final_max_violation": float(violation[-1]),
        "final_nodes_below_vmin": int((v_true[-1] < cfgc.v_min).sum()),
        "se_err_mean_avg": float(se_mean.mean()),
    }
    return SimulationTrace(
        z, v_true, r_hat, mu_l, mu_u, _row_norms(mu_l), _row_norms(mu_u), cost_local,
        cost_sub, violation, se_mean, np.maximum.reduce(err, axis=1), dist, summary,
    )


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm by a pairwise sum, not a thread-dependent
    BLAS dot, over blocks of rows (:func:`_row_blocks`)."""
    out = np.empty(len(rows))
    for block in _row_blocks(*rows.shape):
        x = rows[block]
        out[block] = np.add.reduce(x * x, axis=1)
    return np.sqrt(out, out=out)


def _saddle_dist_sq(z, mu_l, mu_u, x_star_vec: np.ndarray) -> np.ndarray:
    """``||x_k - x_star||^2`` of each iterate ``x_k = (z, mu_l, mu_u)`` by a
    pairwise sum per row, over blocks of rows (:func:`_row_blocks`): a whole
    (K, 4N) block would copy the trace's z and dual blocks."""
    out = np.empty(len(z))
    for rows in _row_blocks(len(z), x_star_vec.size):
        gap = np.concatenate([z[rows], mu_l[rows], mu_u[rows]], axis=1)
        gap -= x_star_vec
        out[rows] = np.add.reduce(gap * gap, axis=1)
    return out


def _row_blocks(k_rows: int, width: int) -> Iterator[slice]:
    """Slices of ``k_rows`` rows of ``width`` cells, each of one row or of
    as many as fit in ``_ROW_BLOCK_CELLS`` cells."""
    step = max(1, _ROW_BLOCK_CELLS // width)
    return (slice(k, k + step) for k in range(0, k_rows, step))


def run_trials(ctx: RunContext) -> Iterator[SimulationTrace]:
    """Every trial in order, each run on the prepared ``ctx`` when asked for."""
    for t in range(ctx.cfg.trials):
        yield run_closed_loop(ctx, t)


# ---------------------------------------------------------------------------
# Saddle-point oracle


def saddle_oracle(ctx: RunContext) -> ControllerState:
    """The unique saddle point of the regularized Lagrangian under the linear
    pipeline.

    Maximizing the duals in closed form (mu = [g]_+ / eta) turns the saddle
    problem into a strongly convex box-constrained minimization of
    f(z) = C(z) + ||[g(z)]_+||^2 / (2 eta), solved from three starts
    (agreement within 1e-8 checks uniqueness) by projected Newton
    (Bertsekas, SIAM J. Control Optim. 20(2), 1982). Each round holds a
    variable only when it sits on a bound with its gradient pointing out of
    the box, solves ``H_ff d = -grad_f`` on the free ones by conjugate
    gradients, and halves t from 1 along the arc ``z_t = clip(z + t d)``
    until ``f(z_t) - f(z) <= 1e-4 grad . (z_t - z)`` (Armijo, give or take
    1e-13 f(z) for rounding). It stops when a round moves no variable by
    1e-14 and raises after ``_NEWTON_ROUNDS`` rounds. The sensitivity G is
    applied only as ``G @`` and ``G.T @``, so on ``PathSum`` models every
    product is O(N). The result must be a fixed point of the
    projected primal-dual map within 1e-12.
    """
    net, model, cost, cfgc = ctx.net, ctx.model, ctx.cost, ctx.cfg.controller
    n = net.n
    if net.disk_capped:
        raise HarnessError(
            "the saddle oracle supports box feasible sets only (apparent-power "
            "caps are outside the closed-form dual elimination)"
        )
    G, eta = model.G, cfgc.eta
    d_l = cfgc.v_min - model.r0
    d_u = model.r0 - cfgc.v_max
    wz, z_ref = 2.0 * cost.w, cost.z_ref
    lo, hi = z_bounds(net)

    def objective(z):
        r = G @ z
        gl = np.maximum(d_l - r, 0.0)
        gu = np.maximum(r + d_u, 0.0)
        agg = z[:n].sum() + cost.p0_target
        val = 0.5 * np.sum(wz * (z - z_ref) ** 2) + cost.alpha * agg**2
        val += (gl @ gl + gu @ gu) / (2.0 * eta)
        grad = wz * (z - z_ref) + G.T @ (gu - gl) / eta
        grad[:n] += 2.0 * cost.alpha * agg
        return val, grad

    def hessian(z, free):
        # v -> H_ff v (v zero off ``free``) of the quadratic f is on the pieces active at z.
        r = G @ z
        active = ((d_l - r) > 0.0) | ((r + d_u) > 0.0)

        def matvec(v):
            hv = wz * v + G.T @ (active * (G @ v)) / eta
            hv[:n] += 2.0 * cost.alpha * v[:n].sum()
            return hv * free

        return matvec

    rng = np.random.Generator(np.random.Philox(key=ctx.cfg.base_seed))
    starts = [z_ref] + [lo + rng.uniform(0.0, 1.0, 2 * n) * (hi - lo) for _ in range(2)]
    sols = [_projected_newton(np.clip(z0, lo, hi), objective, hessian, lo, hi) for z0 in starts]
    if max(np.linalg.norm(a - b) for a, b in combinations(sols, 2)) > 1e-8:
        raise HarnessError(
            "saddle solves from different starts disagree; "
            "the problem may not be strongly convex as configured"
        )
    z = min(sols, key=lambda zz: objective(zz)[0])

    r = G @ z
    mu_l = np.maximum(d_l - r, 0.0) / eta
    mu_u = np.maximum(r + d_u, 0.0) / eta
    x_star = ControllerState(z, mu_l, mu_u)

    eps = ctx.require_certificate().eps_max / 10.0
    residual = _fixed_point_residual(x_star, ctx, eps)
    if residual > 1e-12:
        raise HarnessError(f"saddle candidate is not a fixed point (residual {residual:.2e} > 1e-12)")
    return x_star


# Rounds the saddle oracle's projected Newton method may take from one start.
_NEWTON_ROUNDS = 100


def _projected_newton(z, objective, hessian, lo, hi):
    """The minimizer of ``objective`` over the box [lo, hi] from ``z`` in
    it, by the projected Newton rounds :func:`saddle_oracle` describes."""
    val, grad = objective(z)
    for _ in range(_NEWTON_ROUNDS):
        free = ~(((z <= lo) & (grad > 0.0)) | ((z >= hi) & (grad < 0.0)))
        d = _conjugate_gradient(hessian(z, free), -grad * free)
        for t in (0.5**i for i in range(41)):  # down to 2**-40
            z_t = np.clip(z + t * d, lo, hi)
            val_t, grad_t = objective(z_t)
            if val_t - val <= 1e-4 * (grad @ (z_t - z)) + 1e-13 * val:
                break
        moved = np.abs(z_t - z).max()
        z, val, grad = z_t, val_t, grad_t
        if moved < 1e-14:
            return z
    raise HarnessError(
        f"saddle oracle: projected Newton stopped at its round cap ({_NEWTON_ROUNDS}) "
        f"unsettled, the last step size {t:.3g} moving a variable by {moved:.2e}"
    )


def _conjugate_gradient(matvec, b):
    """x with ``matvec(x) = b`` for a symmetric positive definite map, by
    conjugate gradients from 0 until the residual is 1e-14 of ``|b|``."""
    x, r = np.zeros_like(b), b.copy()
    p, rr = r.copy(), r @ r
    stop = 1e-28 * rr
    for _ in range(10 * len(b)):
        if rr <= stop:
            break
        hp = matvec(p)
        a = rr / (p @ hp)
        x += a * p
        r -= a * hp
        rr, rr_prev = r @ r, rr
        p = r + (rr / rr_prev) * p
    return x


def _fixed_point_residual(state: ControllerState, ctx: RunContext, eps: float) -> float:
    """Distance moved by one exact primal-dual step from the candidate point."""
    single = replace(ctx.cfg.controller, eps_primal=eps, eps_dual=eps)
    return state.distance(_step(ctx, state, eval_linear(ctx.model, state.z), single))


# ---------------------------------------------------------------------------
# Stochastic error-bound audit


@dataclass
class BoundReport:
    """Empirical error-bound audit for the stochastic feedback loop.

    alpha_hat estimates the worst expected squared gap between the model-based
    and estimation-based gradient maps; rho_hat the worst squared gap between
    estimation-based and physical-feedback maps; both are taken along realized
    trajectories (noise expectation approximated by the trial average at each
    iteration). The bound is (rho + 3 alpha) / (2 M / eps - L^2) against the
    tail average (last 20% of iterations) of the mean squared distance to the
    saddle point.
    """

    alpha_hat: float
    rho_hat: float
    bound: float
    empirical: float
    satisfied: bool
    eps: float
    M: float
    L: float
    trials: int
    iterations: int
    mean_dist_sq: np.ndarray

    def to_dict(self) -> dict:
        """The scalar fields, ``empirical`` named ``empirical_tail_mean_sq_dist``."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "mean_dist_sq"}
        out["empirical_tail_mean_sq_dist"] = out.pop("empirical")
        out["expectation_note"] = "expectations estimated over noise draws along realized trajectories"
        return out


def verify_error_bound(ctx: RunContext, traces: Iterable[SimulationTrace]) -> BoundReport:
    """Measure the stochastic-feedback error terms and audit the bound.

    The terms are read off the realized trajectories ``traces``, one per
    trial, such as the stream ``run_trials`` yields; each trace is dropped
    before the next is asked for. The reference point, ``ctx.x_star`` or
    the saddle oracle's when the context has none, and the certificate are
    taken before the first trace. Per iteration and trial the three gradient
    maps differ only in the voltage vector entering the dual ascent, so the
    squared map gaps reduce to 2 ||r_a - r_b||^2 of the corresponding
    voltage vectors.
    """
    x_star = ctx.x_star if ctx.x_star is not None else saddle_oracle(ctx)
    x_star_vec = x_star.as_vector()

    cert = ctx.require_certificate()
    eps = cert.eps_configured
    denom = 2.0 * cert.M / eps - cert.L**2
    if denom <= 0:
        raise HarnessError(
            f"bound denominator nonpositive (eps {eps:.3e} >= {2 * cert.M / cert.L**2:.3e})"
        )

    k_iter = ctx.cfg.iterations
    # map, unlike a comprehension's loop variable, holds no trace while the next one runs
    terms = list(map(partial(_bound_terms, model=ctx.model, x_star_vec=x_star_vec), traces))
    if not terms or any(gaps.size != k_iter for gaps, _, _ in terms):
        raise HarnessError(f"bound audit needs one trace of {k_iter} iterations per trial")
    d_alpha, d_rho, dist_sq = (np.array(series) for series in zip(*terms))

    alpha_hat = float(d_alpha.mean(axis=0).max())
    rho_hat = float(d_rho.max())
    bound = (rho_hat + 3.0 * alpha_hat) / denom
    mean_dist_sq = dist_sq.mean(axis=0)
    tail = mean_dist_sq[int(0.8 * k_iter):]
    empirical = float(tail.mean())
    return BoundReport(
        alpha_hat=alpha_hat,
        rho_hat=rho_hat,
        bound=bound,
        empirical=empirical,
        satisfied=empirical <= bound,
        eps=eps,
        M=cert.M,
        L=cert.L,
        trials=len(terms),
        iterations=k_iter,
        mean_dist_sq=mean_dist_sq,
    )


def _bound_terms(trace: SimulationTrace, model: LinearFlowModel, x_star_vec: np.ndarray):
    """Per-iteration gradient-map gaps and squared saddle distance of one
    trace. The linear model is evaluated one row at a time (a block product
    through BLAS is not bitwise the per-row one), and its rows are stacked
    into blocks (:func:`_row_blocks`) for the pairwise sums."""
    d_alpha = np.empty(trace.iterations)
    for rows in _row_blocks(trace.iterations, trace.r_hat.shape[1]):
        gap = np.array([eval_linear(model, z) for z in trace.z[rows]])
        gap -= trace.r_hat[rows]
        d_alpha[rows] = np.add.reduce(gap * gap, axis=1)
    d_alpha *= 2.0
    d_rho = 2.0 * np.add.reduce((trace.r_hat - trace.v_true) ** 2, axis=1)
    dist_sq = _saddle_dist_sq(trace.z, trace.mu_lower, trace.mu_upper, x_star_vec)
    return d_alpha, d_rho, dist_sq


# ---------------------------------------------------------------------------
# Baseline comparison and bound tightening


@dataclass
class ComparisonReport:
    """Shared-seed comparison of feedback modes (voltage-estimation errors)."""

    modes: tuple[str, ...]
    err_mean: dict
    err_max: dict
    running_avg_mean: dict
    running_avg_max: dict
    final_violations: dict
    reduction_vs_raw: float
    reduction_vs_pseudo: float


def running_average(series: np.ndarray) -> np.ndarray:
    return np.cumsum(series) / np.arange(1, series.size + 1)


def run_baseline_comparison(ctx: RunContext) -> ComparisonReport:
    """Run trial 0 of the prepared scenario under each baseline feedback
    mode with shared seeds (the tightening experiment is not part of a
    comparison): on ``ctx`` with the mode's own plan and estimator, so the
    network, linear model, certificate and saddle point are built once."""
    err_mean: dict[str, np.ndarray] = {}
    err_max: dict[str, np.ndarray] = {}
    violations: dict[str, int] = {}
    for mode in BASELINE_MODES:
        mode_cfg = replace(ctx.cfg, feedback_mode=mode, tighten_ci=None)
        plan, estimator = _measurement(mode_cfg, ctx.net, ctx.model)
        trace = run_closed_loop(replace(ctx, cfg=mode_cfg, plan=plan, estimator=estimator))
        err_mean[mode], err_max[mode] = trace.se_err_mean, trace.se_err_max
        violations[mode] = trace.summary["final_nodes_below_vmin"]
    run_mean = {mode: running_average(err) for mode, err in err_mean.items()}
    tail = slice(min(100, ctx.cfg.iterations - 1), None)

    def _ratio(other: str) -> float:
        denom = run_mean[other][tail].mean()
        return float(run_mean["se_loop"][tail].mean() / denom) if denom > 0 else float("nan")

    return ComparisonReport(
        modes=BASELINE_MODES,
        err_mean=err_mean,
        err_max=err_max,
        running_avg_mean=run_mean,
        running_avg_max={mode: running_average(err) for mode, err in err_max.items()},
        final_violations=violations,
        reduction_vs_raw=_ratio("raw_measurements"),
        reduction_vs_pseudo=_ratio("pseudo_only"),
    )


@dataclass
class TighteningReport:
    """Outcome of the confidence-interval bound-tightening experiment."""

    confidence: float
    halfwidth: float
    v_min_original: float
    v_min_tightened: float
    base_violations: int
    tightened_violations: int
    base_cost: float
    tightened_cost: float


def tightened_bound_experiment(ctx: RunContext, c: float, base: dict) -> TighteningReport:
    """Re-run trial 0 with the lower voltage bound raised by the worst
    analytic confidence halfwidth of the reconstructed voltages, and compare
    true violations of the original bound plus cost against ``base``, the
    trial-0 trace summary of the untightened scenario.

    The tightened trial runs on ``ctx`` with only ``v_min`` changed: the
    network, linear model, cost, plan, estimator and certificate do not
    depend on it. The saddle point does, so under ``track_saddle`` it is
    recomputed for the tightened band.
    """
    cfg = ctx.cfg
    if ctx.estimator is None:
        raise HarnessError("bound tightening requires an estimating feedback mode")
    halfwidth = float(c * np.sqrt(ctx.voltage_variance.max()))
    v_min0 = cfg.controller.v_min
    v_min_new = v_min0 + halfwidth
    if v_min_new >= cfg.controller.v_max:
        raise HarnessError(
            f"tightened lower bound {v_min_new:.4f} reaches v_max {cfg.controller.v_max:.4f}"
        )
    tight_cfg = replace(cfg, controller=replace(cfg.controller, v_min=v_min_new))
    tight_ctx = replace(ctx, cfg=tight_cfg, x_star=None)
    if tight_cfg.track_saddle:
        tight_ctx.x_star = saddle_oracle(tight_ctx)
    tight = run_closed_loop(tight_ctx)
    return TighteningReport(
        confidence=c,
        halfwidth=halfwidth,
        v_min_original=v_min0,
        v_min_tightened=v_min_new,
        base_violations=base["final_nodes_below_vmin"],
        tightened_violations=int((tight.v_true[-1] < v_min0).sum()),
        base_cost=base["final_cost_local"] + base["final_cost_substation"],
        tightened_cost=float(tight.cost_local[-1] + tight.cost_substation[-1]),
    )
