"""Radial distribution network model: loading, validation, admittance, device limits.

Conventions: all quantities are per-unit on a single base. Node 0 is the
substation (slack) bus held at voltage magnitude ``v0``; every other node is a
PQ bus whose net injection is specified (loads carry negative sign). The line
graph must be a spanning tree rooted at node 0.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp

# Networks with at most this many non-slack nodes use dense N x N path-sum
# and admittance matrices; larger ones use the O(N) PathSum kernel and a
# sparse admittance. Measured on a 2-CPU x86 host, a dense product and a
# PathSum product cost the same between 256 and 384 nodes (README, "Scaling").
DENSE_LIMIT = 300


class NetworkError(ValueError):
    """A network file or model failed validation. Message names the offender."""


class ProjectionError(RuntimeError):
    """Alternating projection failed to reach tolerance (tolerance too tight)."""


@dataclass(frozen=True)
class Node:
    """A bus. ``p0``/``q0`` are nominal injections (negative for loads);
    ``shunt`` is the self admittance to ground."""

    id: int
    p0: float = 0.0
    q0: float = 0.0
    shunt: complex = 0j


@dataclass(frozen=True)
class Line:
    """A branch with series impedance ``z``, oriented away from the substation."""

    from_bus: int
    to_bus: int
    z: complex

    @property
    def y(self) -> complex:
        return 1.0 / self.z


@dataclass(frozen=True)
class FeasibleSet:
    """Injection limits for one node: a (p, q) box, optionally intersected with
    an origin-centered apparent-power disk of radius ``s_max``."""

    p_min: float
    p_max: float
    q_min: float
    q_max: float
    s_max: float | None = None


@dataclass(frozen=True)
class NetworkModel:
    """Immutable radial network. ``nodes`` includes the slack (id 0);
    ``feasible[i]`` bounds node ``i + 1``. Safe to share across trials."""

    nodes: tuple[Node, ...]
    lines: tuple[Line, ...]
    v0: float
    feasible: tuple[FeasibleSet, ...]

    # Derived structure below is cached; ids are contiguous so node i maps to
    # array index i - 1.

    @cached_property
    def n(self) -> int:
        return len(self.nodes) - 1

    @cached_property
    def p0(self) -> np.ndarray:
        return _freeze(np.array([nd.p0 for nd in self.nodes[1:]], dtype=float))

    @cached_property
    def q0(self) -> np.ndarray:
        return _freeze(np.array([nd.q0 for nd in self.nodes[1:]], dtype=float))

    @cached_property
    def shunts(self) -> np.ndarray:
        return _freeze(np.array([nd.shunt for nd in self.nodes[1:]], dtype=complex))

    @cached_property
    def parent(self) -> np.ndarray:
        """parent[i] = id of the upstream node of node i+1 (0 = substation)."""
        par = np.zeros(self.n, dtype=int)
        for ln in self.lines:
            par[ln.to_bus - 1] = ln.from_bus
        return _freeze(par)

    @cached_property
    def branch_z(self) -> np.ndarray:
        """branch_z[i] = impedance of the line feeding node i+1."""
        z = np.zeros(self.n, dtype=complex)
        for ln in self.lines:
            z[ln.to_bus - 1] = ln.z
        return _freeze(z)

    @cached_property
    def _dfs_span(self) -> tuple[np.ndarray, np.ndarray]:
        """DFS preorder slot and subtree end slot per non-slack node, so the
        subtree of node i+1 occupies slots [pos[i], end[i])."""
        children: dict[int, list[int]] = {i: [] for i in range(self.n + 1)}
        for ln in self.lines:
            children[ln.from_bus].append(ln.to_bus)
        pos = np.zeros(self.n, dtype=int)
        end = np.zeros(self.n, dtype=int)
        slot = 0
        stack = [(c, False) for c in reversed(children[0])]
        while stack:
            nid, closing = stack.pop()
            if closing:
                end[nid - 1] = slot
                continue
            pos[nid - 1] = slot
            slot += 1
            stack.append((nid, True))
            for c in reversed(children[nid]):
                stack.append((c, False))
        return _freeze(pos), _freeze(end)

    @cached_property
    def _tree(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gather indices of the path-sum kernel (see :class:`PathSum`):
        the node in each DFS slot, each slot's subtree end, each node's slot,
        the slots sorted by subtree end, and per slot the number of subtrees
        that end at or before it."""
        pos, end = self._dfs_span
        order = np.empty(self.n, dtype=int)
        order[pos] = np.arange(self.n)
        end_slot = end[order]
        by_end = np.argsort(end_slot, kind="stable")
        closed = np.searchsorted(end_slot[by_end], np.arange(self.n), side="right")
        return tuple(_freeze(a) for a in (order, end_slot, pos, by_end, closed))  # type: ignore[return-value]

    @cached_property
    def _sweep(self) -> tuple:
        """Operators and loop invariants of the backward/forward sweep,
        built once per network: the product with the common-path impedance
        ``Z`` (:func:`path_sum` of the branch impedances), ``ndarray.dot``
        when Z is dense (the BLAS product of ``@`` without the matmul
        ufunc's dispatch) and ``PathSum.__matmul__`` otherwise; the admittance
        partition ``(Y, y_bar, y00)`` of :func:`build_admittance`, with
        ``Y`` dense up to ``DENSE_LIMIT`` nodes and sparse above;
        ``y_bar * v0``; the flat start ``v0`` at every node; and the shunt
        admittances, or None when no node has one. The arrays are
        read-only."""
        Y, y_bar, y00 = build_admittance(self)
        if self.n <= DENSE_LIMIT:
            Y = Y.toarray()
        v0 = complex(self.v0)
        flat = np.full(self.n, v0, dtype=complex)
        shunts = self.shunts if self.shunts.any() else None
        Z = path_sum(self, self.branch_z)
        return (
            Z.dot if isinstance(Z, np.ndarray) else Z.__matmul__,
            _freeze(Y) if isinstance(Y, np.ndarray) else Y,
            _freeze(y_bar),
            y00,
            _freeze(y_bar * v0),
            _freeze(flat),
            shunts,
        )

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stacked (p_min, p_max, q_min, q_max, s_max) arrays; s_max = inf if absent."""
        fs = self.feasible
        pmin = np.array([f.p_min for f in fs])
        pmax = np.array([f.p_max for f in fs])
        qmin = np.array([f.q_min for f in fs])
        qmax = np.array([f.q_max for f in fs])
        smax = np.array([math.inf if f.s_max is None else f.s_max for f in fs])
        return tuple(_freeze(a) for a in (pmin, pmax, qmin, qmax, smax))  # type: ignore[return-value]

    @cached_property
    def disk_capped(self) -> bool:
        """Whether any node's feasible set has a finite apparent-power cap."""
        return bool(np.isfinite(self.box[4]).any())


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


# ---------------------------------------------------------------------------
# Loading

# The network document, the parsed form of a network file: the keys each
# object may hold and the kind of value each takes (see build_network).
_INT, _NUMBER, _BOUND = "an integer", "a finite number", "a finite number or null"
_ARRAY = "an array"
_DOCUMENT_KEYS = {"v0": _NUMBER, "nodes": _ARRAY, "lines": _ARRAY}
_NODE_KEYS = {
    "id": _INT, "p0": _NUMBER, "q0": _NUMBER, "shunt_g": _NUMBER, "shunt_b": _NUMBER,
    "pmin": _BOUND, "pmax": _BOUND, "qmin": _BOUND, "qmax": _BOUND, "smax": _BOUND,
}
_LINE_KEYS = {"from": _INT, "to": _INT, "r": _NUMBER, "x": _NUMBER}
_FLOAT_MAX = sys.float_info.max


def load_network(path: str | Path) -> NetworkModel:
    """Read a network file and build its model with :func:`build_network`.

    Raises :class:`NetworkError` naming the file when it cannot be read or
    parsed as JSON, or when its document fails a check.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise NetworkError(f"cannot parse network file {path}: {exc}") from exc
    try:
        return build_network(doc)
    except NetworkError as exc:
        raise NetworkError(f"network file {path}: {exc}") from exc


def _checked(obj, where: str, keys: dict[str, str], required: Iterable[str]) -> dict:
    """``obj`` once it is an object holding ``required`` and other ``keys``
    only, each value of the kind ``keys`` names. A number is a JSON int or
    float (not a bool) that a float holds finitely."""
    if type(obj) is not dict:
        raise NetworkError(f"{where} must be an object, got {_shown(obj)}")
    for key, val in obj.items():
        kind = keys.get(key)
        if kind is None:
            raise NetworkError(f"{where}: unknown key {key!r}; known keys: {', '.join(keys)}")
        if kind is _INT:
            ok = type(val) is int
        elif kind is _ARRAY:
            ok = type(val) is list
        elif val is None:
            ok = kind is _BOUND
        else:
            ok = (type(val) is float or type(val) is int) and abs(val) <= _FLOAT_MAX
        if not ok:
            raise NetworkError(f"{where}: {key!r} must be {kind}, got {_shown(val)}")
    for key in required:
        if key not in obj:
            raise NetworkError(f"{where}: missing key {key!r}")
    return obj


def _shown(val) -> str:
    """A document value as its JSON text."""
    return json.dumps(val, default=repr)


def build_network(doc: dict) -> NetworkModel:
    """Check a network document and build its model.

    The document is ``{"v0", "nodes": [{"id", "p0", "q0", "shunt_g",
    "shunt_b", "pmin", "pmax", "qmin", "qmax", "smax"}], "lines": [{"from",
    "to", "r", "x"}]}``: objects with these keys only. ``nodes``, ``lines``,
    each ``id`` and every line key are required. Ids and endpoints are
    integers, every other value a finite number (:func:`_checked`), and only
    the bounds may be null. ``v0`` defaults to 1.0 and the injections and
    shunts to 0.0; a missing or null bound fixes the node at p0 or q0, and a
    missing or null smax means no apparent-power cap. Line orientation is
    normalized to point away from the substation. Raises
    :class:`NetworkError` naming the offending node, line, key or value.
    """
    doc = _checked(doc, "the document", _DOCUMENT_KEYS, ("nodes", "lines"))
    v0 = float(doc.get("v0", 1.0))
    by_id: dict[int, Node] = {}
    boxes: dict[int, FeasibleSet] = {}
    for k, row in enumerate(doc["nodes"]):
        get = _checked(row, f"nodes[{k}]", _NODE_KEYS, ("id",)).get
        nid = row["id"]
        if nid in by_id:
            raise NetworkError(f"duplicate node id {nid}")
        p0, q0 = float(get("p0", 0.0)), float(get("q0", 0.0))
        shunt = complex(float(get("shunt_g", 0.0)), float(get("shunt_b", 0.0)))
        by_id[nid] = Node(id=nid, p0=p0, q0=q0, shunt=shunt)
        if nid != 0:
            boxes[nid] = fs = FeasibleSet(
                p_min=p0 if get("pmin") is None else float(row["pmin"]),
                p_max=p0 if get("pmax") is None else float(row["pmax"]),
                q_min=q0 if get("qmin") is None else float(row["qmin"]),
                q_max=q0 if get("qmax") is None else float(row["qmax"]),
                s_max=None if get("smax") is None else float(row["smax"]),
            )
            _check_feasible_set(fs, nid)
    if 0 not in by_id:
        raise NetworkError("node 0 (substation) is missing")
    n = len(by_id) - 1
    if n < 1:
        raise NetworkError("network needs at least one non-slack node")
    if sorted(by_id) != list(range(n + 1)):
        raise NetworkError(f"node ids must be contiguous 0..{n}, got {sorted(by_id)}")
    if not v0 > 0.0:
        raise NetworkError(f"slack voltage v0 must be positive, got {v0}")

    # Validate lines and build adjacency for orientation.
    lines: list[Line] = []
    adjacency: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n + 1)}
    for k, row in enumerate(doc["lines"]):
        _checked(row, f"lines[{k}]", _LINE_KEYS, _LINE_KEYS)
        a, b, r, x = row["from"], row["to"], row["r"], row["x"]
        for endpoint in (a, b):
            if endpoint not in by_id:
                raise NetworkError(
                    f"dangling line endpoint: line {k} ({a} -> {b}) references unknown node {endpoint}"
                )
        if a == b:
            raise NetworkError(f"non-radial topology: line {k} is a self-loop at node {a}")
        if r < 0.0:
            raise NetworkError(f"line {k} ({a} -> {b}): negative resistance {r}")
        if math.hypot(r, x) == 0.0:
            raise NetworkError(f"line {k} ({a} -> {b}): zero impedance")
        lines.append(Line(from_bus=a, to_bus=b, z=complex(float(r), float(x))))
        adjacency[a].append((b, k))
        adjacency[b].append((a, k))

    if len(lines) != n:
        raise NetworkError(
            f"non-radial topology: {len(lines)} lines for {n} non-slack nodes "
            f"(a spanning tree needs exactly {n})"
        )

    # BFS from the substation, orienting each line away from it.
    oriented: dict[int, Line] = {}
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v, k in adjacency[u]:
                if v in seen:
                    continue
                seen.add(v)
                ln = lines[k]
                oriented[k] = ln if ln.from_bus == u else Line(from_bus=u, to_bus=v, z=ln.z)
                nxt.append(v)
        frontier = nxt
    if len(seen) != n + 1:
        missing = sorted(set(range(n + 1)) - seen)
        raise NetworkError(f"non-radial topology: node(s) {missing} unreachable from the substation")
    if len(oriented) != len(lines):
        k = min(set(range(len(lines))) - set(oriented))
        a, b = lines[k].from_bus, lines[k].to_bus
        raise NetworkError(f"non-radial topology: line {k} ({a} -> {b}) closes a cycle")

    return NetworkModel(
        nodes=tuple(by_id[i] for i in range(n + 1)),
        lines=tuple(oriented[k] for k in sorted(oriented)),
        v0=v0,
        feasible=tuple(boxes[i] for i in range(1, n + 1)),
    )


def _check_feasible_set(fs: FeasibleSet, node_id: int) -> None:
    if fs.p_min > fs.p_max:
        raise NetworkError(
            f"empty feasible set at node {node_id}: p_min {fs.p_min} > p_max {fs.p_max}"
        )
    if fs.q_min > fs.q_max:
        raise NetworkError(
            f"empty feasible set at node {node_id}: q_min {fs.q_min} > q_max {fs.q_max}"
        )
    if fs.s_max is not None:
        if not fs.s_max > 0.0:
            raise NetworkError(f"node {node_id}: s_max must be positive, got {fs.s_max}")
        # Nearest box point to the origin must lie inside the disk.
        p_near = min(max(0.0, fs.p_min), fs.p_max)
        q_near = min(max(0.0, fs.q_min), fs.q_max)
        if math.hypot(p_near, q_near) > fs.s_max:
            raise NetworkError(
                f"empty feasible set at node {node_id}: box and s_max={fs.s_max} disk are disjoint"
            )


def scale_injections(net: NetworkModel, factor: float) -> NetworkModel:
    """A copy of the network with nominal injections and device boxes scaled.

    Used to stress a feeder (for example to force an under-voltage profile)
    while keeping curtailment ranges proportional to the loads.
    """
    if factor <= 0:
        raise ValueError("load scale must be positive")
    if factor == 1.0:
        return net
    nodes = tuple(
        Node(id=nd.id, p0=factor * nd.p0, q0=factor * nd.q0, shunt=nd.shunt)
        for nd in net.nodes
    )
    feasible = tuple(
        FeasibleSet(
            p_min=factor * fs.p_min,
            p_max=factor * fs.p_max,
            q_min=factor * fs.q_min,
            q_max=factor * fs.q_max,
            s_max=None if fs.s_max is None else factor * fs.s_max,
        )
        for fs in net.feasible
    )
    return NetworkModel(nodes=nodes, lines=net.lines, v0=net.v0, feasible=feasible)


def path_sum(net: NetworkModel, weights: np.ndarray) -> np.ndarray | PathSum:
    """The common-path product of ``weights`` in the form that is faster for
    this network: the dense :func:`path_sum_matrix` up to ``DENSE_LIMIT``
    non-slack nodes, the O(N) :class:`PathSum` above. Callers use only ``@``,
    ``.T @``, division by a scalar, :func:`diag_quad` and :func:`path_gram`,
    which accept both forms."""
    if net.n <= DENSE_LIMIT:
        return _freeze(path_sum_matrix(net, weights))
    return PathSum(net, weights)


class PathSum:
    """The matrix of :func:`path_sum_matrix`, applied without forming it.

    ``P @ x`` gives ``y_i = sum_{k in path(i)} weights[k] * sum_{j in
    subtree(k)} x_j``: the backward sweep (subtree sums) and forward sweep
    (path sums) of a radial feeder (Shirmohammadi et al., 1988; Baran and
    Wu, 1989). Both are a ``cumsum`` over the DFS slots of
    ``NetworkModel._dfs_span``: a subtree is a contiguous slot range, and a
    path sum at slot t is the prefix sum of the branch terms up to t minus
    those of the subtrees that closed at or before t. Each product is O(N)
    per column, for a vector or an (N, m) block, real or complex. P is
    symmetric, so ``P.T`` is ``P``.
    """

    def __init__(self, net: NetworkModel, weights: np.ndarray):
        self._order, self._end, self._pos, self._by_end, self._closed = net._tree
        self._w = np.asarray(weights)[self._order]
        self.shape = (net.n, net.n)

    @property
    def T(self) -> PathSum:
        return self

    def __truediv__(self, scale: float) -> PathSum:
        out = copy.copy(self)
        out._w = self._w / scale
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"operand has {x.shape[0]} rows, expected {self.shape[1]}")
        w = self._w if x.ndim == 1 else self._w[:, None]
        return self._path(w * self._subtree(x[self._order]))[self._pos]

    def diag_quad(self, d: np.ndarray) -> np.ndarray:
        """``diag(P diag(d) P)`` in O(N).

        Entry i is ``sum_j P_ij^2 d_j``. Since P_ij is the weight sum R(a)
        of the path to a = lca(i, j), it equals the path sum over a in
        path(i) of ``Dsub(a) (R(a)^2 - R(parent a)^2)``, with Dsub the
        subtree sum of d.
        """
        w = self._w
        r = self._path(w)
        dsub = self._subtree(np.asarray(d)[self._order])
        return self._path(dsub * w * (2.0 * r - w))[self._pos]

    def _subtree(self, xs: np.ndarray) -> np.ndarray:
        """Subtree sums per DFS slot of values given per DFS slot."""
        c = _prefix(xs)
        return c[self._end] - c[:-1]

    def _path(self, us: np.ndarray) -> np.ndarray:
        """Path sums per DFS slot of branch terms given per DFS slot."""
        return _prefix(us)[1:] - _prefix(us[self._by_end])[self._closed]


def diag_quad(m: np.ndarray | PathSum, d: np.ndarray) -> np.ndarray:
    """``diag(M diag(d) M^T)`` of a dense or a path-sum operator."""
    if isinstance(m, PathSum):
        return m.diag_quad(d)
    return (m * m) @ d


def path_gram(
    terms: tuple[tuple[np.ndarray | PathSum, np.ndarray], ...],
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """``sum_m M_m diag(d_m) M_m^T x`` at every node or only at the 0-based
    ``rows``, for dense operators or path-sum operators on one tree.

    Path-sum operators differ only in their branch weights (LinDistFlow's A
    and B), so the subtree sums of ``x`` are shared and the outer path sum is
    taken once for the whole sum, and the stages stay in DFS slot order: for
    two terms that is three subtree and three path passes instead of the
    four full products (each with its own subtree pass and permutations).
    """
    first = terms[0][0]
    x = np.asarray(x)
    col = (slice(None),) + (None,) * (x.ndim - 1)
    if not isinstance(first, PathSum):
        at = slice(None) if rows is None else rows
        return sum(m[at] @ (np.asarray(d)[col] * (m.T @ x)) for m, d in terms)
    order, pos = first._order, first._pos
    sub = first._subtree(x[order])
    acc = 0.0
    for op, d in terms:
        if op._order is not order:
            raise ValueError("path_gram needs operators on one tree")
        w = op._w[col]
        inner = op._path(w * sub) * np.asarray(d)[order][col]
        acc = acc + w * op._subtree(inner)
    return first._path(acc)[pos if rows is None else pos[rows]]


def _prefix(x: np.ndarray) -> np.ndarray:
    """Prefix sums along axis 0 with a leading zero row: out[k] = x[:k].sum(0).
    (``np.add.accumulate``: ``np.cumsum`` costs 2 us more per call.)"""
    out = np.zeros((x.shape[0] + 1,) + x.shape[1:], dtype=x.dtype)
    np.add.accumulate(x, axis=0, out=out[1:])
    return out


def path_sum_matrix(net: NetworkModel, weights: np.ndarray) -> np.ndarray:
    """N x N matrix of branch-weight sums over common substation paths.

    Entry (i, j) sums ``weights[k]`` over every branch k lying on both the
    substation-to-(i+1) and substation-to-(j+1) paths. With branch resistances
    as weights this is the common-path resistance matrix of a radial feeder.
    O(N^2) time and memory; the reference :class:`PathSum` is tested against.
    """
    n = net.n
    pos, end = net._dfs_span
    parent = net.parent
    m = np.zeros((n, n), dtype=np.asarray(weights).dtype)
    # DFS preorder (the node in each slot) fills every parent before its children.
    for i in net._tree[0]:
        pid = parent[i]
        if pid > 0:
            m[i, :] = m[pid - 1, :]
        m[i, pos[i] : end[i]] += weights[i]
    return m[:, pos]


# ---------------------------------------------------------------------------
# Admittance


def build_admittance(net: NetworkModel) -> tuple[sp.csr_matrix, np.ndarray, complex]:
    """Build the bus admittance partition (Y, y_bar, y00).

    Y is the N x N block over non-slack nodes with Y_ii = sum of incident line
    admittances plus the node's shunt and Y_ij = -y_ij for lines; y_bar is the
    slack coupling column and y00 the slack self-admittance, so that
    [I0; i] = [[y00, y_bar^T]; [y_bar, Y]] [V0; v].
    """
    n = net.n
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    y_bar = np.zeros(n, dtype=complex)
    y00 = complex(net.nodes[0].shunt)
    diag = np.array([complex(nd.shunt) for nd in net.nodes[1:]])
    for ln in net.lines:
        y = ln.y
        a, b = ln.from_bus, ln.to_bus
        if a == 0:
            y00 += y
            y_bar[b - 1] += -y
            diag[b - 1] += y
        else:
            diag[a - 1] += y
            diag[b - 1] += y
            rows += [a - 1, b - 1]
            cols += [b - 1, a - 1]
            vals += [-y, -y]
    rows += list(range(n))
    cols += list(range(n))
    vals += list(diag)
    Y = sp.csr_matrix(
        (np.array(vals, dtype=complex), (np.array(rows), np.array(cols))), shape=(n, n)
    )
    return Y, y_bar, y00


# ---------------------------------------------------------------------------
# Feasible-set projection


def project_feasible_net(
    p: np.ndarray, q: np.ndarray, net: NetworkModel
) -> tuple[np.ndarray, np.ndarray]:
    """Node-wise projection of injection vectors onto the network's feasible sets."""
    pmin, pmax, qmin, qmax, smax = net.box
    return project_box_disk(p, q, pmin, pmax, qmin, qmax, smax if net.disk_capped else None)


def project_box_disk(
    p: np.ndarray,
    q: np.ndarray,
    pmin: np.ndarray,
    pmax: np.ndarray,
    qmin: np.ndarray,
    qmax: np.ndarray,
    smax: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection onto box intersect origin-centered disk, per
    entry. ``smax`` is inf where an entry has no disk; None (the caller
    knows that no entry has one) skips the test for a finite radius."""
    pc = p.clip(pmin, pmax)
    qc = q.clip(qmin, qmax)
    if smax is None or not np.isfinite(smax).any():
        return pc, qc

    # Already feasible within tol: return unchanged (exact idempotency).
    tol = 1e-12
    rad = np.hypot(p, q)
    feasible = (
        (p >= pmin - tol)
        & (p <= pmax + tol)
        & (q >= qmin - tol)
        & (q <= qmax + tol)
        & (rad <= smax + tol)
    )
    # Box projection already inside the disk is the answer (intersection is a
    # subset of the box, so no intersection point can be closer).
    clamp_ok = np.hypot(pc, qc) <= smax
    done = feasible | clamp_ok
    out_p = np.where(feasible, p, pc)
    out_q = np.where(feasible, q, qc)
    if done.all():
        return out_p, out_q

    idx = np.flatnonzero(~done)
    pd, qd = _project_mixed_active(
        p[idx], q[idx], pmin[idx], pmax[idx], qmin[idx], qmax[idx], smax[idx]
    )
    out_p = out_p.copy()
    out_q = out_q.copy()
    out_p[idx] = pd
    out_q[idx] = qd
    return out_p, out_q


def _project_mixed_active(p, q, pmin, pmax, qmin, qmax, smax):
    """Exact projection when box clamp and disk scaling both fail.

    The optimum's active set is one of a handful of patterns, so every
    pattern's closed form is evaluated and the nearest feasible point wins:
    the box clamp, radial disk scaling, and each point where the disk arc
    crosses one box bound.
    """
    slack = 1e-12
    cand_p = [np.clip(p, pmin, pmax)]
    cand_q = [np.clip(q, qmin, qmax)]
    rad = np.maximum(np.hypot(p, q), 1e-300)
    scale = np.minimum(1.0, smax / rad)
    cand_p.append(p * scale)
    cand_q.append(q * scale)
    for pb in (pmin, pmax):
        arc = np.sqrt(np.maximum(smax**2 - pb**2, 0.0))
        for sign in (1.0, -1.0):
            cand_p.append(pb)
            cand_q.append(sign * arc)
    for qb in (qmin, qmax):
        arc = np.sqrt(np.maximum(smax**2 - qb**2, 0.0))
        for sign in (1.0, -1.0):
            cand_p.append(sign * arc)
            cand_q.append(qb)
    cp = np.stack(np.broadcast_arrays(*cand_p)).astype(float)
    cq = np.stack(np.broadcast_arrays(*cand_q)).astype(float)
    feasible = (
        (cp >= pmin - slack)
        & (cp <= pmax + slack)
        & (cq >= qmin - slack)
        & (cq <= qmax + slack)
        & (np.hypot(cp, cq) <= smax + slack)
    )
    dist = np.where(feasible, (cp - p) ** 2 + (cq - q) ** 2, np.inf)
    best = dist.argmin(axis=0)
    cols = np.arange(cp.shape[1])
    if not np.isfinite(dist[best, cols]).all():
        raise ProjectionError("no feasible projection candidate; feasible set empty?")
    return cp[best, cols], cq[best, cols]
