"""Radial distribution network model: loading, validation, path sums, device limits.

Conventions: all quantities are per-unit on a single base. Node 0 is the
substation (slack) bus held at voltage magnitude ``v0``; every other node is a
PQ bus whose net injection is specified (loads carry negative sign). The line
graph must be a spanning tree rooted at node 0.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import sys
from collections.abc import Iterable
from functools import cached_property
from itertools import repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# Networks with at most this many non-slack nodes use dense N x N path-sum
# matrices (the plant's Z, LinDistFlow's G); larger ones use the O(N)
# PathSum kernel. Measured on a 2-CPU x86 host, a dense product and
# a PathSum product cost the same between 256 and 384 nodes (README, "Scaling").
DENSE_LIMIT = 300


class NetworkError(ValueError):
    """A network file or model failed validation. Message names the offender."""


class ProjectionError(RuntimeError):
    """The box-and-disk projection found no feasible closed-form candidate
    (``_project_mixed_active``): an empty feasible set or non-finite input."""


@dataclasses.dataclass(frozen=True, eq=False)
class NetworkModel:
    """Immutable radial network as read-only arrays, safe to share across
    trials. Entry i of every array belongs to non-slack node i + 1:
    ``p0``/``q0`` are its nominal injections (negative for loads),
    ``shunts`` its self admittance to ground, ``parent`` the id of its
    upstream node (0 = substation), ``branch_z`` the impedance of the line
    feeding it, and ``box`` = (p_min, p_max, q_min, q_max, s_max) its
    injection limits: a (p, q) box, intersected with an origin-centered
    apparent-power disk of radius s_max (inf for none). ``shunt0`` is the
    substation's shunt."""

    v0: float
    shunt0: complex
    p0: np.ndarray
    q0: np.ndarray
    shunts: np.ndarray
    parent: np.ndarray
    branch_z: np.ndarray
    box: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        for a in (self.p0, self.q0, self.shunts, self.parent, self.branch_z, *self.box):
            _freeze(a)

    @cached_property
    def n(self) -> int:
        return len(self.p0)

    # Record views with Python scalars and s_max None where uncapped, read
    # only by perfbench/workloads.py (_write_feeder), which writes them to
    # JSON. network_document is the serializer everything else uses.

    @property
    def nodes(self) -> list[SimpleNamespace]:
        p0, q0 = [0.0, *self.p0.tolist()], [0.0, *self.q0.tolist()]
        return [SimpleNamespace(id=i, p0=p, q0=q) for i, (p, q) in enumerate(zip(p0, q0))]

    @property
    def feasible(self) -> list[SimpleNamespace]:
        return [
            SimpleNamespace(p_min=a, p_max=b, q_min=c, q_max=d, s_max=None if math.isinf(s) else s)
            for a, b, c, d, s in zip(*(col.tolist() for col in self.box))
        ]

    @property
    def lines(self) -> list[SimpleNamespace]:
        return [
            SimpleNamespace(from_bus=a, to_bus=i, z=z)
            for i, (a, z) in enumerate(zip(self.parent.tolist(), self.branch_z.tolist()), 1)
        ]

    @cached_property
    def _dfs_span(self) -> tuple[np.ndarray, np.ndarray]:
        """DFS preorder slot and subtree end slot per non-slack node, so the
        subtree of node i+1 occupies slots [pos[i], end[i]). Children are
        visited in id order."""
        children: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, a in enumerate(self.parent.tolist(), 1):
            children[a].append(i)
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
    def _tree(self) -> tuple[np.ndarray, ...]:
        """Gather indices of the path-sum kernel (see :class:`PathSum`):
        the node in each DFS slot, each slot's subtree end, each node's slot,
        the slots sorted by subtree end, per slot the number of subtrees
        that end at or before it, and the slot of each slot's parent (N for
        the substation)."""
        pos, end = self._dfs_span
        order = np.empty(self.n, dtype=int)
        order[pos] = np.arange(self.n)
        end_slot = end[order]
        by_end = np.argsort(end_slot, kind="stable")
        closed = np.searchsorted(end_slot[by_end], np.arange(self.n), side="right")
        # Parent id 0 picks the appended N: ids are 1-based, index -1 is last.
        up = np.append(pos, self.n)[self.parent[order] - 1]
        return tuple(_freeze(a) for a in (order, end_slot, pos, by_end, closed, up))

    @cached_property
    def _sweep(self) -> tuple:
        """Operators and loop invariants of the backward/forward sweep,
        built once per network: the product with the common-path impedance
        ``Z`` (:func:`path_sum` of the branch impedances), ``ndarray.dot``
        when Z is dense (the BLAS product of ``@`` without the matmul
        ufunc's dispatch) and ``PathSum.__matmul__`` otherwise; the slack
        row of the bus admittance matrix, as the coupling column ``y_bar``
        (minus the admittance of each line from the substation) and the
        self-admittance ``y00`` (the substation's shunt plus those lines'
        admittances, summed in id order), for the slack power; the flat
        start ``v0`` at every node; and the shunt admittances, or None when
        no node has one. The arrays are read-only."""
        root = self.parent == 0
        # CPython's complex division, one line at a time: numpy's 1.0 / z
        # differs from it in the last bit.
        y_root = np.array([1.0 / z for z in self.branch_z[root].tolist()], dtype=complex)
        y_bar = np.zeros(self.n, dtype=complex)
        y_bar[root] -= y_root
        y00 = self.shunt0
        for y_k in y_root.tolist():
            y00 += y_k
        flat = np.full(self.n, complex(self.v0), dtype=complex)
        shunts = self.shunts if self.shunts.any() else None
        Z = path_sum(self, self.branch_z)
        return (
            Z.dot if isinstance(Z, np.ndarray) else Z.__matmul__,
            _freeze(y_bar),
            y00,
            _freeze(flat),
            shunts,
        )

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
_TYPES = {_INT: {int}, _ARRAY: {list}, _NUMBER: {int, float}, _BOUND: {int, float, type(None)}}
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


def _checked(obj, where: str, keys: dict[str, str], required: Iterable[str]) -> None:
    """Raise :class:`NetworkError` unless ``obj`` is an object holding ``required``
    and other ``keys`` only, each value of the kind ``keys`` names. A number is a
    JSON int or float (not a bool) that a float holds finitely."""
    if type(obj) is not dict:
        raise NetworkError(f"{where} must be an object, got {json.dumps(obj, default=repr)}")
    for key, val in obj.items():
        kind = keys.get(key)
        if kind is None:
            raise NetworkError(f"{where}: unknown key {key!r}; known keys: {', '.join(keys)}")
        if type(val) not in _TYPES[kind] or (
            kind is not _INT and type(val) in (int, float) and not abs(val) <= _FLOAT_MAX
        ):
            raise NetworkError(f"{where}: {key!r} must be {kind}, got {json.dumps(val, default=repr)}")
    for key in required:
        if key not in obj:
            raise NetworkError(f"{where}: missing key {key!r}")


def _columns(rows: list, where: str, keys: dict[str, str], required: Iterable[str]) -> dict:
    """The objects of the list ``rows`` as one column per key: ints, or
    floats with 0.0 for a missing number and NaN for a missing or null bound.
    :func:`_checked`'s checks run on whole columns; only if one fails does it
    scan the objects one by one, to name the first bad one in its words."""
    cols: dict = {}
    if set(map(type, rows)) <= {dict} and set().union(*rows) <= keys.keys():
        for key, kind in keys.items():
            default = 0.0 if kind is _NUMBER and key not in required else None
            col = list(map(dict.get, rows, repeat(key), repeat(default)))
            types = set(map(type, col))
            if not types <= _TYPES[kind]:
                break
            if kind is not _INT:
                # A float must hold each int finitely, and only nulls read as NaN.
                if int in types and any(abs(v) > _FLOAT_MAX for v in col if type(v) is int):
                    break
                nulls = col.count(None) if type(None) in types else 0
                col = np.array(col, dtype=float)
                if np.count_nonzero(np.isfinite(col)) + nulls < len(col):
                    break
            cols[key] = col
        else:
            return cols
    for k, row in enumerate(rows):
        _checked(row, f"{where}[{k}]", keys, required)
    raise AssertionError(f"{where}: a column check failed on valid objects")


def build_network(doc: dict) -> NetworkModel:
    """Check a network document and build its model.

    The document is ``{"v0", "nodes": [{"id", "p0", "q0", "shunt_g",
    "shunt_b", "pmin", "pmax", "qmin", "qmax", "smax"}], "lines": [{"from",
    "to", "r", "x"}]}``: objects with these keys only. ``nodes``, ``lines``,
    each ``id`` and every line key are required. Ids and endpoints are
    integers, every other value a finite number (:func:`_checked`), and only
    the bounds may be null. ``v0`` defaults to 1.0 and the injections and
    shunts to 0.0; a missing or null bound fixes the node at p0 or q0, and a
    missing or null smax means no apparent-power cap. Neither the order of
    the nodes and lines nor the direction of a line matters. Raises
    :class:`NetworkError` naming the offending node, line, key or value:
    each check runs over all nodes or lines and names the first in id or
    line order.
    """
    _checked(doc, "the document", _DOCUMENT_KEYS, ("nodes", "lines"))
    v0 = float(doc.get("v0", 1.0))
    nodes = _columns(doc["nodes"], "nodes", _NODE_KEYS, ("id",))
    ids = sorted(nodes["id"])
    dup = next((a for a, b in zip(ids, ids[1:]) if a == b), None)
    if dup is not None:
        raise NetworkError(f"duplicate node id {dup}")
    if 0 not in ids:
        raise NetworkError("node 0 (substation) is missing")
    n = len(ids) - 1
    if n < 1:
        raise NetworkError("network needs at least one non-slack node")
    if ids != list(range(n + 1)):
        raise NetworkError(f"node ids must be contiguous 0..{n}, got {ids}")
    if not v0 > 0.0:
        raise NetworkError(f"slack voltage v0 must be positive, got {v0}")

    def column(key: str, default) -> np.ndarray:
        """The non-slack nodes' ``key`` in id order, ``default`` where null."""
        col = nodes.pop(key)[order[1:]]
        return np.where(np.isnan(col), default, col)

    order = np.argsort(nodes["id"], kind="stable")
    # Stacking the parts keeps signed zeros, which re + 1j * im would not.
    shunts = np.column_stack([nodes.pop("shunt_g"), nodes.pop("shunt_b")]).view(complex)[order, 0]
    p0, q0 = column("p0", 0.0), column("q0", 0.0)
    pmin, pmax = column("pmin", p0), column("pmax", p0)
    qmin, qmax = column("qmin", q0), column("qmax", q0)
    smax = column("smax", math.inf)
    empty = "empty feasible set at node"
    _reject(pmin > pmax, lambda k: f"{empty} {k + 1}: p_min {pmin[k]} > p_max {pmax[k]}")
    _reject(qmin > qmax, lambda k: f"{empty} {k + 1}: q_min {qmin[k]} > q_max {qmax[k]}")
    _reject(smax <= 0.0, lambda k: f"node {k + 1}: s_max must be positive, got {smax[k]}")
    # The box point nearest the origin must lie inside the disk.
    near = np.hypot(pmin.clip(0.0, pmax), qmin.clip(0.0, qmax))
    _reject(near > smax, lambda k: f"{empty} {k + 1}: box and s_max={smax[k]} disk are disjoint")

    lines = _columns(doc["lines"], "lines", _LINE_KEYS, _LINE_KEYS)
    frm, to = lines["from"], lines["to"]
    ends = np.array([frm, to])
    _reject(
        ((ends < 0) | (ends > n)).any(axis=0),
        lambda k: f"dangling line endpoint: line {k} ({frm[k]} -> {to[k]}) references unknown "
        f"node {frm[k] if not 0 <= frm[k] <= n else to[k]}",
    )
    z = np.column_stack([lines.pop("r"), lines.pop("x")]).view(complex)[:, 0]
    radial = "non-radial topology:"
    _reject(ends[0] == ends[1], lambda k: f"{radial} line {k} is a self-loop at node {frm[k]}")
    _reject(
        z.real < 0.0,
        lambda k: f"line {k} ({frm[k]} -> {to[k]}): negative resistance {doc['lines'][k]['r']}",
    )
    _reject(z == 0.0, lambda k: f"line {k} ({frm[k]} -> {to[k]}): zero impedance")
    if len(frm) != n:
        raise NetworkError(
            f"{radial} {len(frm)} lines for {n} non-slack nodes (a spanning tree needs exactly {n})"
        )

    # Search from the substation for each node's parent and feeding line.
    # With n lines, reaching all n + 1 nodes uses every line once: a tree.
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (a, b) in enumerate(zip(frm, to)):
        incident[a].append(k)
        incident[b].append(k)
    parent, feeder = [-1] * (n + 1), [0] * (n + 1)
    parent[0], stack = 0, [0]
    while stack:
        u = stack.pop()
        for k in incident[u]:
            v = frm[k] + to[k] - u
            if parent[v] < 0:
                parent[v], feeder[v] = u, k
                stack.append(v)
    missing = [i for i, a in enumerate(parent) if a < 0]
    if missing:
        raise NetworkError(f"{radial} node(s) {missing} unreachable from the substation")

    return NetworkModel(
        v0=v0,
        shunt0=complex(shunts[0]),
        p0=p0,
        q0=q0,
        shunts=shunts[1:],
        parent=np.array(parent[1:]),
        branch_z=z[feeder[1:]],
        box=(pmin, pmax, qmin, qmax, smax),
    )


def _reject(bad: np.ndarray, message) -> None:
    """Raise :class:`NetworkError` with ``message(k)`` for the first index
    ``k`` where ``bad`` holds."""
    hit = np.flatnonzero(bad)
    if hit.size:
        raise NetworkError(message(int(hit[0])))


def network_document(net: NetworkModel) -> dict:
    """The network document of ``net``, the inverse of :func:`build_network`:
    the node rows in id order (the slack's injection as 0.0, shunt keys only
    where nonzero, smax null where uncapped) and one line per non-slack
    node, from its parent, in id order."""

    def shunt(y: complex) -> dict:
        return {"shunt_g": y.real, "shunt_b": y.imag} if y else {}

    nodes = [{"id": 0, "p0": 0.0, "q0": 0.0, **shunt(net.shunt0)}]
    columns = zip(net.p0.tolist(), net.q0.tolist(), net.shunts.tolist(), *(b.tolist() for b in net.box))
    for i, (p, q, y, pmin, pmax, qmin, qmax, smax) in enumerate(columns, 1):
        nodes.append(
            {"id": i, "p0": p, "q0": q, **shunt(y), "pmin": pmin, "pmax": pmax, "qmin": qmin,
             "qmax": qmax, "smax": None if math.isinf(smax) else smax}
        )
    lines = [
        {"from": a, "to": i, "r": z.real, "x": z.imag}
        for i, (a, z) in enumerate(zip(net.parent.tolist(), net.branch_z.tolist()), 1)
    ]
    return {"v0": net.v0, "nodes": nodes, "lines": lines}


def scale_injections(net: NetworkModel, factor: float) -> NetworkModel:
    """A copy of the network with nominal injections and device boxes scaled.

    Used to stress a feeder (for example to force an under-voltage profile)
    while keeping curtailment ranges proportional to the loads.
    """
    if factor <= 0:
        raise ValueError("load scale must be positive")
    if factor == 1.0:
        return net
    return dataclasses.replace(
        net, p0=factor * net.p0, q0=factor * net.q0, box=tuple(factor * b for b in net.box)
    )


def path_sum(net: NetworkModel, weights: np.ndarray) -> np.ndarray | PathSum:
    """The common-path product of ``weights`` (of each row of a (k, N) stack,
    side by side) in the form faster for this network: dense up to
    ``DENSE_LIMIT`` non-slack nodes, a :class:`PathSum` above. Callers use
    ``@``, ``.T @`` and ``/`` by a scalar on both forms, :func:`path_gram`
    on the dense one, :func:`sensor_gram` and :func:`tree_variance` on a
    ``PathSum``."""
    if net.n <= DENSE_LIMIT:
        return _freeze(np.hstack([path_sum_matrix(net, w) for w in np.atleast_2d(weights)]))
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
    symmetric, so ``P.T`` is ``P``. A (k, N) stack of weights gives the block
    row ``[P_1 ... P_k]``, whose products add (``.T``: stack) the blocks' in
    block order.
    """

    def __init__(self, net: NetworkModel, weights: np.ndarray):
        self._order, self._end, self._pos, self._by_end, self._closed, self._up = net._tree
        self._w = np.atleast_2d(weights)[:, self._order]
        self.shape = (net.n, self._w.size)

    @property
    def T(self) -> PathSum:
        out = copy.copy(self)
        out.shape = self.shape[::-1]
        return out

    def __truediv__(self, scale: float) -> PathSum:
        out = copy.copy(self)
        out._w = self._w / scale
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"operand has {x.shape[0]} rows, expected {self.shape[1]}")
        ws = self._w if x.ndim == 1 else self._w[..., None]
        n = len(self._pos)
        if self.shape[0] != n:
            return np.concatenate([self._block(w, x) for w in ws])
        out = self._block(ws[0], x[:n])
        for k in range(1, len(ws)):
            out += self._block(ws[k], x[k * n : (k + 1) * n])
        return out

    @property
    def _depth(self) -> np.ndarray:
        """Depth per DFS slot, 1 for the substation's children: the path sum
        of ones."""
        return self._path(np.ones(len(self._pos))).astype(np.int64)

    @cached_property
    def _levels(self) -> tuple:
        """The depth-level schedule of :func:`tree_variance`, built on first
        use: the slots in level order (by depth, then by parent slot, then by
        slot, so that siblings are adjacent), each position's parent position
        (n for the substation), the first position of each level and of the
        next (a list), the index of each level's first sibling group (a
        list), and per group its first position relative to its level and
        its parent's position."""
        n, depth = len(self._pos), self._depth
        lvl = np.lexsort((self._up, depth))
        rank = np.full(n + 1, n)
        rank[lvl] = np.arange(n)
        ppos = rank[self._up[lvl]]
        dl = depth[lvl]
        bounds = np.searchsorted(dl, np.arange(1, dl[-1] + 2))
        first = np.flatnonzero(np.append(True, ppos[1:] != ppos[:-1]))
        groups = np.searchsorted(first, bounds)
        rel = first - bounds[dl[first] - 1]
        return lvl, ppos, bounds.tolist(), groups.tolist(), rel, ppos[first]

    def _block(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``P @ x`` for one block's weights w per DFS slot."""
        return self._path(w * self._subtree(x[self._order]))[self._pos]

    def _subtree(self, xs: np.ndarray) -> np.ndarray:
        """Subtree sums per DFS slot of values given per DFS slot."""
        c = _prefix(xs)
        return c[self._end] - c[:-1]

    def _path(self, us: np.ndarray) -> np.ndarray:
        """Path sums per DFS slot of branch terms given per DFS slot."""
        return _prefix(us)[1:] - _prefix(us[self._by_end])[self._closed]


def path_gram(
    G: np.ndarray,
    d: np.ndarray,
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """``G diag(d) G^T x`` for a dense G, at every node or only at the
    0-based ``rows``."""
    x = np.asarray(x)
    at = slice(None) if rows is None else rows
    return G[at] @ (np.asarray(d)[(slice(None),) + (None,) * (x.ndim - 1)] * (G.T @ x))


# Sensor pairs per row block of sensor_gram: a block's temporaries are a few
# arrays of this many entries (2 MB of float64), whatever the sensor count.
GRAM_PAIRS = 1 << 18


def sensor_gram(G: PathSum, d: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``(G diag(d) G^T)[rows][:, rows]`` for a path-sum G and distinct
    0-based ``rows``, in O(N + ns^2) for ns rows.

    ``(P diag(d) P)_ab`` is ``sum_k W(lca(a, k)) d_k W(lca(b, k))``, with W
    the path sum of the branch weights. With Dsub the subtree sums of d, S
    the path sums of ``w Dsub`` and Q those of ``Dsub w (2W - w)`` (the
    diagonal: ``sum_j P_ij^2 d_j`` is the path sum over a in path(i) of
    ``Dsub(a) (W(a)^2 - W(parent a)^2)``), an entry is
    ``Q(c) + W(c) ((S(a) - S(c)) + (S(b) - S(c)))`` with c = lca(a, b): the
    k that branch off the path to a or b below c add ``W(c)`` times the
    path sums of ``w Dsub`` from c down to a or b. All three are 0 at the
    substation; G's blocks add.

    The LCAs come from the DFS slots. For rows sorted by slot, the LCA of
    two slot-adjacent rows s < t is the parent of the shallowest slot in
    (s, t], and that of any two rows is the shallowest of the adjacent LCAs
    between them (Bender and Farach-Colton, LATIN 2000): one segmented
    minimum over the slots, then running minima per row, ``GRAM_PAIRS``
    pairs at a time.
    """
    order, up = G._order, G._up
    ns, n, m = len(rows), len(order), len(G._w)
    if not ns:
        return np.zeros((0, 0))
    # Per DFS slot, one column per block; row n is the substation's zeros.
    w = G._w.T
    dsub = G._subtree(np.reshape(d, G._w.shape)[:, order].T)
    W = G._path(w)
    SQ = G._path(np.concatenate([w * dsub, dsub * w * (2.0 * W - w)], axis=1))
    W, S, Q = (np.vstack([a, np.zeros((1, m))]) for a in (W, SQ[:, :m], SQ[:, m:]))
    Q = Q.sum(axis=1)

    # Sort key per slot: the depth first, the slot to tell equal depths apart.
    depth = np.append(G._depth, 0)
    key = depth * (n + 1) + np.arange(n + 1)
    slots = G._pos[rows]
    perm = np.argsort(slots)
    t = slots[perm]
    shallow = np.minimum.reduceat(key[: t[-1] + 1], t[:-1] + 1) % (n + 1)
    adj = key[up[shallow]]
    big = np.iinfo(np.int64).max
    k = np.arange(ns - 1)
    gram = np.empty((ns, ns))
    step = max(1, GRAM_PAIRS // ns)
    for start in range(0, ns, step):
        r = np.arange(start, min(start + step, ns))
        # lca(t[r], t[j]) is the shallowest of adj[r:j] for j > r, of adj[j:r] for j < r.
        right = np.minimum.accumulate(np.where(k >= r[:, None], adj, big), axis=1)
        left = np.minimum.accumulate(np.where(k < r[:, None], adj, big)[:, ::-1], axis=1)
        c = np.full((len(r), ns), big)
        c[:, :-1] = left[:, ::-1]
        c[:, 1:] = np.minimum(c[:, 1:], right)
        c[np.arange(len(r)), r] = key[t[r]]
        c %= n + 1
        val = Q[c]
        for col in range(m):
            s_c = S[c, col]
            val += W[c, col] * ((S[t[r], col][:, None] - s_c) + (S[t, col] - s_c))
        gram[np.ix_(perm[r], perm)] = val
    return gram


def tree_variance(G: PathSum, d: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """``diag(G (diag(d)^-1 + G^T diag(ws) G)^-1 G^T)`` for a two-block
    path-sum G = [P_1 P_2], d > 0 and ws >= 0 (one entry per node), by one
    upward and one downward pass over the depth levels: O(N) work in O(depth)
    numpy calls, and no BLAS call.

    It is the posterior variance of u = G z for z = (p, q) with independent
    priors of variances d and observations of u with weights ws: a Gaussian
    model on the tree (Chou, Willsky and Benveniste, IEEE TAC 1994; Rauch,
    Tung and Striebel, AIAA J. 1965). With F_i = (F, H)_i the subtree sums of
    (p, q) and w_i the node's two branch weights, u_i = u_parent + w_i . F_i,
    and F_i = z_i + sum of the children's F_c. Only second moments enter.

    Upward, deepest level first, subtree i tells its parent how F_i is
    distributed given the parent's voltage: F_i ~ N(b_i u_parent, C_i),
    times an information lambda_i on u_parent. At node i the children's
    messages add, and the node's own terms join them: C' = sum C_c +
    diag(d_p, d_q), b = sum b_c and lam = sum lambda_c + wli. Reading u_i as
    N(0, 1/lam) and F_i | u_i as N(b u_i, C'), u_parent = u_i - w . F_i gives
    the message in closed form: with k = C' w, v = w . k, t = 1 - w . b and
    s = t^2 + lam v, lambda_i = lam / s, b_i = (t b - lam k) / s and C_i = C'
    + (b (v b + t k)^T + k (t b - lam k)^T) / s.

    Downward, shallowest level first, the posterior covariance P of (u_i,
    F_i) passes to each child c. Given (u_i, F_i), F_c is the Kalman update
    of N(b_c u_i, C_c) on F_i = z_i + sum F_c: with K = C_c C'^-1, F_c =
    (b_c - K b) u_i + K F_i plus an independent residual of covariance R =
    C_c - K C_c. So Cov(F_c) = B P B^T + R with B = [b_c - K b, K], and u_c =
    u_i + w_c . F_c. The substation's P is zero (u_0 = 0).
    """
    lvl, ppos, bounds, groups, rel, gpar = G._levels
    n = len(lvl)
    node = G._order[lvl]
    w = G._w[:, lvl]
    # Upward. Per level position: C (2 x 2, rows 0-3), b (rows 4-5) and the
    # information (row 6); ``acc`` starts from the node's own terms.
    acc = np.zeros((7, n))
    acc[[0, 3]] = np.reshape(d, G._w.shape)[:, node]
    acc[6] = ws[node]
    msg = np.empty((7, n))
    acc_c, msg_c = acc[:4].reshape(2, 2, n), msg[:4].reshape(2, 2, n)
    for level in range(len(bounds) - 1, 0, -1):
        s = slice(bounds[level - 1], bounds[level])
        c, b, lam, wl = acc_c[:, :, s], acc[4:6, s], acc[6, s], w[:, s]
        k = (c * wl).sum(axis=1)
        v = (wl * k).sum(axis=0)
        t = 1.0 - (wl * b).sum(axis=0)
        sc = t * t + lam * v
        e = t * b - lam * k
        f = v * b + t * k
        np.add(c, (b[:, None] * f + k[:, None] * e) / sc, out=msg_c[:, :, s])
        np.divide(e, sc, out=msg[4:6, s])
        np.divide(lam, sc, out=msg[6, s])
        if level > 1:
            g = slice(groups[level - 1], groups[level])
            acc[:, gpar[g]] += np.add.reduceat(msg[:, s], rel[g], axis=1)
    # The gains of every child at once: K = C_c C'^-1 of its parent, in
    # closed form; zero below the substation.
    (c11, c12), (c21, c22) = acc_c
    inv = np.zeros((2, 2, n + 1))
    inv[:, :, :n] = np.array([[c22, -c12], [-c21, c11]]) / (c11 * c22 - c12 * c21)
    b_s = np.append(acc[4:6], np.zeros((2, 1)), axis=1)[:, ppos]
    gain = (msg_c[:, :, None] * inv[None, :, :, ppos]).sum(axis=1)
    coef = np.empty((2, 3, n))
    coef[:, 0] = msg[4:6] - (gain * b_s).sum(axis=1)
    coef[:, 1:] = gain
    resid = msg_c - (gain[:, :, None] * msg_c[None]).sum(axis=1)
    # Downward. P of (u, F) per level position, the substation's in column n.
    post = np.zeros((3, 3, n + 1))
    for level in range(1, len(bounds)):
        s = slice(bounds[level - 1], bounds[level])
        p, cs, wl = post[:, :, ppos[s]], coef[:, :, s], w[:, s]
        pb = (p[:, None] * cs).sum(axis=2)
        x = (cs[:, :, None] * pb).sum(axis=1) + resid[:, :, s]
        y = pb[0]
        cov = y + (x * wl).sum(axis=1)
        post[0, 0, s] = p[0, 0] + (wl * (y + cov)).sum(axis=0)
        post[0, 1:, s] = cov
        post[1:, 0, s] = cov
        post[1:, 1:, s] = x
    var = np.empty(n)
    var[node] = post[0, 0, :n]
    return var


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
# Feasible-set projection


def project_feasible_net(z: np.ndarray, net: NetworkModel) -> np.ndarray:
    """Node-wise projection of the injections z = (p, q) onto the network's
    feasible sets."""
    n, (pmin, pmax, qmin, qmax, smax) = net.n, net.box
    pq = project_box_disk(z[:n], z[n:], pmin, pmax, qmin, qmax, smax if net.disk_capped else None)
    return np.concatenate(pq)


def z_bounds(net: NetworkModel) -> tuple[np.ndarray, np.ndarray]:
    """The box's lower and upper bounds on z = (p, q)."""
    pmin, pmax, qmin, qmax, _ = net.box
    return np.concatenate([pmin, qmin]), np.concatenate([pmax, qmax])


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
