"""Exact offline optima for measuring competitive ratios.

Integral bipartite matching comes from Hopcroft-Karp (scipy's C
implementation) with a vectorized Konig construction for the matching-size
vertex cover.  Fractional optima in general graphs use the bipartite
double cover: two copies per vertex turn the half-integral LP optimum into
an integral bipartite one, solved exactly.  Weighted graphs route the
double cover through a minimum s-t cut instead.  A tiny-instance
enumeration over {0, 1/2, 1} potentials serves as an independent check.

The optimum of every prefix of a stream, which worst-prefix ratios divide
by, comes from one solver kept across the whole stream instead of one
solve per prefix: for unit weights a maximum matching that grows by one
augmenting-path search per added node, for weights one max-flow residual
network whose flow continues after each arrival.  The from-scratch
solvers above are the independent reference the tests compare it with.

All public functions are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from .errors import LengthMismatch, NotBipartite, TooLarge, ValidationError
from .instance import InstanceStream, Side

_FEAS_EPS = 1e-9


@dataclass(frozen=True)
class StaticGraph:
    """Offline view of an instance prefix: weights, edges, optional sides."""

    n: int
    weights: np.ndarray
    edges: np.ndarray  # shape (m, 2), u < v not required but no self loops
    sides: tuple[Side, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        object.__setattr__(self, "edges", edges)
        if self.weights.shape != (self.n,):
            raise ValidationError("weights must have one entry per vertex")
        if edges.size:
            if edges.min() < 0 or edges.max() >= self.n:
                raise ValidationError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                raise ValidationError("self loops are not allowed")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            if np.unique(lo * self.n + hi).size != edges.shape[0]:
                raise ValidationError("duplicate edges are not allowed")

    def is_unit_weight(self) -> bool:
        return bool(np.all(self.weights == 1.0))


def static_from_stream(stream: InstanceStream, upto: int | None = None) -> StaticGraph:
    """Offline snapshot of the first ``upto`` arrivals (all by default)."""
    n = len(stream) if upto is None else upto
    if not (0 <= n <= len(stream)):
        raise ValidationError("prefix length out of range")
    u, v = stream.edge_arrays()
    keep = v < n
    sides = tuple(ev.side for ev in stream.events[:n])
    if any(s is Side.UNLABELED for s in sides):
        sides = None
    return StaticGraph(
        n=n,
        weights=np.array([ev.weight for ev in stream.events[:n]]),
        edges=np.column_stack((u[keep], v[keep])) if n else np.empty((0, 2), np.int64),
        sides=sides,
    )


@dataclass(frozen=True)
class OracleResult:
    """Optimal values plus witnesses; construction re-verifies both sides."""

    max_matching_value: float
    min_cover_value: float
    matching_witness: dict[tuple[int, int], float]
    cover_witness: np.ndarray
    mode: str  # "integral-bipartite" | "fractional-general"

    def __post_init__(self):
        if self.max_matching_value > self.min_cover_value + _FEAS_EPS:
            raise ValidationError("weak duality violated in oracle result")
        if abs(self.max_matching_value - self.min_cover_value) > _FEAS_EPS * max(
            1.0, self.min_cover_value
        ):
            raise ValidationError(f"{self.mode}: optimal values must coincide")
        if self.mode == "fractional-general":
            y = self.cover_witness
            if not np.all((y == 0.0) | (y == 0.5) | (y == 1.0)):
                raise ValidationError("fractional cover witness must be half-integral")


def _verify_witnesses(g: StaticGraph, res: OracleResult):
    y = res.cover_witness
    if g.edges.size:
        if np.min(y[g.edges[:, 0]] + y[g.edges[:, 1]]) < 1.0 - _FEAS_EPS:
            raise ValidationError("cover witness leaves an edge uncovered")
    x_agg = np.zeros(g.n)
    for (u, v), val in res.matching_witness.items():
        x_agg[u] += val
        x_agg[v] += val
    if np.any(x_agg > g.weights + _FEAS_EPS):
        raise ValidationError("matching witness violates a vertex capacity")


# ------------------------------------------------------- bipartite integral


def _bipartite_sides(g: StaticGraph) -> tuple[np.ndarray, np.ndarray]:
    if g.sides is None:
        raise NotBipartite("side labels required")
    left = np.array([s is Side.LEFT for s in g.sides])
    right = np.array([s is Side.RIGHT for s in g.sides])
    if not np.all(left | right):
        raise NotBipartite("every vertex must be labeled L or R")
    if g.edges.size:
        same = left[g.edges[:, 0]] == left[g.edges[:, 1]]
        if np.any(same):
            raise NotBipartite("an edge joins two same-side vertices")
    return np.flatnonzero(left), np.flatnonzero(right)


def _biadjacency(g: StaticGraph, left: np.ndarray, right: np.ndarray) -> csr_matrix:
    lpos = np.full(g.n, -1, dtype=np.int64)
    rpos = np.full(g.n, -1, dtype=np.int64)
    lpos[left] = np.arange(left.size)
    rpos[right] = np.arange(right.size)
    if g.edges.size:
        e0, e1 = g.edges[:, 0], g.edges[:, 1]
        swap = lpos[e0] < 0
        rows = np.where(swap, lpos[e1], lpos[e0])
        cols = np.where(swap, rpos[e0], rpos[e1])
    else:
        rows = cols = np.empty(0, dtype=np.int64)
    data = np.ones(rows.size, dtype=np.int8)
    return csr_matrix(
        (data, (rows, cols)), shape=(max(left.size, 1), max(right.size, 1))
    )


def _hk_matching(bi: csr_matrix) -> np.ndarray:
    """Matched column per row (-1 if unmatched)."""
    if bi.nnz == 0:
        return np.full(bi.shape[0], -1, dtype=np.int64)
    return maximum_bipartite_matching(bi, perm_type="column").astype(np.int64)


def _konig_cover(bi: csr_matrix, match_lr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum vertex cover masks (left, right) from a maximum matching.

    Alternating reachability from unmatched left vertices, vectorized over
    whole frontiers: any edge goes left-to-right, matching edges come back.
    """
    nl, nr = bi.shape
    match_rl = np.full(nr, -1, dtype=np.int64)
    matched = match_lr >= 0
    match_rl[match_lr[matched]] = np.flatnonzero(matched)
    visited_l = ~matched  # start from every unmatched left
    visited_r = np.zeros(nr, dtype=bool)
    frontier = visited_l.copy()
    while frontier.any():
        cols = np.unique(bi[frontier].indices)
        new_r = cols[~visited_r[cols]]
        visited_r[new_r] = True
        back = match_rl[new_r]
        back = back[back >= 0]
        new_l = back[~visited_l[back]]
        visited_l[new_l] = True
        frontier = np.zeros(nl, dtype=bool)
        frontier[new_l] = True
    return ~visited_l & matched, visited_r


def max_matching_bipartite(g: StaticGraph) -> OracleResult:
    """Maximum-cardinality matching and a Konig cover of equal size."""
    if not g.is_unit_weight():
        raise ValidationError("cardinality oracle requires unit weights")
    left, right = _bipartite_sides(g)
    bi = _biadjacency(g, left, right)
    match = _hk_matching(bi)
    cover_l, cover_r = _konig_cover(bi, match)
    y = np.zeros(g.n)
    y[left[cover_l[: left.size]]] = 1.0
    y[right[cover_r[: right.size]]] = 1.0
    witness = {}
    for li in np.flatnonzero(match >= 0):
        u = int(left[li])
        v = int(right[match[li]])
        witness[(min(u, v), max(u, v))] = 1.0
    size = float(np.count_nonzero(match >= 0))
    res = OracleResult(
        max_matching_value=size,
        min_cover_value=float(y.sum()),
        matching_witness=witness,
        cover_witness=y,
        mode="integral-bipartite",
    )
    _verify_witnesses(g, res)
    return res


# ------------------------------------------------------ fractional general


def _double_cover_csr(g: StaticGraph) -> csr_matrix:
    """n x n biadjacency of the double cover: rows u-left, cols v-right."""
    if g.edges.size:
        e0, e1 = g.edges[:, 0], g.edges[:, 1]
        rows = np.concatenate((e0, e1))
        cols = np.concatenate((e1, e0))
    else:
        rows = cols = np.empty(0, dtype=np.int64)
    return csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(g.n, g.n)
    )


def fractional_optima_general(g: StaticGraph) -> OracleResult:
    """Exact fractional matching/cover optima of any simple graph.

    Both values come from one integral solution on the double cover, so
    they coincide by construction; the cover witness is half-integral.
    """
    if g.n == 0:
        return OracleResult(0.0, 0.0, {}, np.zeros(0), "fractional-general")
    if g.is_unit_weight():
        bi = _double_cover_csr(g)
        match = _hk_matching(bi)
        cover_l, cover_r = _konig_cover(bi, match)
        y = (cover_l.astype(float) + cover_r.astype(float)) / 2.0
        witness: dict[tuple[int, int], float] = {}
        for u in np.flatnonzero(match >= 0):
            v = int(match[u])
            key = (min(int(u), v), max(int(u), v))
            witness[key] = witness.get(key, 0.0) + 0.5
        value = float(np.count_nonzero(match >= 0)) / 2.0
        res = OracleResult(value, float(y.sum()), witness, y, "fractional-general")
    else:
        flow, cover_l, cover_r, edge_flows = _min_cut_cover(g)
        y = (cover_l.astype(float) + cover_r.astype(float)) / 2.0
        witness = {}
        for (u, v), fv in edge_flows.items():
            if fv > 0.0:
                key = (min(u, v), max(u, v))
                witness[key] = witness.get(key, 0.0) + fv / 2.0
        cover_value = float((y * g.weights).sum())
        res = OracleResult(flow / 2.0, cover_value, witness, y, "fractional-general")
    _verify_witnesses(g, res)
    return res


class _Dinic:
    """Max flow with float capacities.

    Residual tests are exact (> 0): the bottleneck subtraction zeroes its
    edge exactly, so blocking flows terminate without an epsilon, and any
    rounding dust on non-bottleneck edges stays nonnegative.
    """

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[float] = []

    def add(self, u: int, v: int, c: float) -> int:
        idx = len(self.to)
        self.head[u].append(idx)
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(idx + 1)
        self.to.append(u)
        self.cap.append(0.0)
        return idx

    def _bfs(self, s: int, t: int) -> bool:
        self.level = [-1] * self.n
        self.level[s] = 0
        q = [s]
        for u in q:
            for ei in self.head[u]:
                v = self.to[ei]
                if self.cap[ei] > 0.0 and self.level[v] < 0:
                    self.level[v] = self.level[u] + 1
                    q.append(v)
        return self.level[t] >= 0

    def _dfs(self, u: int, t: int, pushed: float) -> float:
        if u == t:
            return pushed
        while self.iter[u] < len(self.head[u]):
            ei = self.head[u][self.iter[u]]
            v = self.to[ei]
            if self.cap[ei] > 0.0 and self.level[v] == self.level[u] + 1:
                d = self._dfs(v, t, min(pushed, self.cap[ei]))
                if d > 0.0:
                    self.cap[ei] -= d
                    self.cap[ei ^ 1] += d
                    return d
            self.iter[u] += 1
        return 0.0

    def max_flow(self, s: int, t: int) -> float:
        total = 0.0
        while self._bfs(s, t):
            self.iter = [0] * self.n
            while True:
                f = self._dfs(s, t, float("inf"))
                if f <= 0.0:
                    break
                total += f
        return total

    def source_side(self, s: int) -> np.ndarray:
        seen = np.zeros(self.n, dtype=bool)
        seen[s] = True
        q = [s]
        for u in q:
            for ei in self.head[u]:
                v = self.to[ei]
                if self.cap[ei] > 0.0 and not seen[v]:
                    seen[v] = True
                    q.append(v)
        return seen


def _min_cut_cover(g: StaticGraph):
    """Weighted double cover solved as a minimum s-t cut.

    Nodes: source, u-left copies, v-right copies, sink.  Left capacities
    are vertex weights, ditto right; crossing edges are uncapacitated, so
    the min cut picks a vertex cover and max flow a fractional b-matching.
    """
    n = g.n
    s, t = 2 * n, 2 * n + 1
    dinic = _Dinic(2 * n + 2)
    for u in range(n):
        dinic.add(s, u, float(g.weights[u]))
        dinic.add(n + u, t, float(g.weights[u]))
    mid_edges = {}
    for u, v in g.edges.tolist():
        # strictly dearer than cutting either endpoint, so a min cut only
        # ever selects vertices; also keeps capacities near the weight scale
        cap = float(g.weights[u] + g.weights[v] + 1.0)
        mid_edges[(u, v)] = dinic.add(u, n + v, cap)
        mid_edges[(v, u)] = dinic.add(v, n + u, cap)
    flow = dinic.max_flow(s, t)
    reach = dinic.source_side(s)
    cover_l = ~reach[:n]
    cover_r = reach[n : 2 * n]
    # net flow sits on the reverse edge, accumulated exactly from zero
    edge_flows = {
        key: dinic.cap[ei ^ 1]
        for key, ei in mid_edges.items()
        if dinic.cap[ei ^ 1] > 0.0
    }
    cut_value = float((g.weights[cover_l]).sum() + (g.weights[cover_r]).sum())
    if abs(cut_value - flow) > 1e-6 * max(1.0, flow):
        raise ValidationError("min cut does not match max flow")
    return flow, cover_l, cover_r, edge_flows


# ------------------------------------------------------------- brute force


_POW3 = 3 ** np.arange(17, dtype=np.int64)


def brute_force_half_integral(g: StaticGraph) -> float:
    """Minimum weighted cover over all potentials in {0, 1/2, 1}^V.

    Valid as the exact fractional optimum because the cover LP always has
    a half-integral optimal point.  Exhaustive, so capped at n <= 16.
    """
    if g.n > 16:
        raise TooLarge(f"brute force capped at 16 vertices, got {g.n}")
    if g.edges.size == 0:
        return 0.0
    levels = np.array([0.0, 0.5, 1.0])
    total = int(3**g.n)
    best = np.inf
    chunk = 3 ** min(g.n, 12)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // _POW3[None, : g.n]) % 3
        y = levels[digits]
        ok = np.ones(idx.size, dtype=bool)
        for u, v in g.edges.tolist():
            ok &= y[:, u] + y[:, v] >= 1.0
        if ok.any():
            best = min(best, float((y[ok] @ g.weights).min()))
    return best


# ----------------------------------------------------------- prefix oracle


class _GrowingMatching:
    """Maximum matching of a bipartite graph that grows one node at a time.

    Nodes are the stream's vertices (``double=False``: side-labeled
    streams, every edge joins L and R) or the two copies of each vertex in
    the bipartite double cover (``double=True``: node v is the row copy,
    n + v the column copy).  Every vertex owns one slice of a single int32
    adjacency array: its back-edges first, then later arrivals in reveal
    order, filled in as they arrive, so its arrived neighbours are always
    the first ``count[v]`` entries of its slice.
    """

    def __init__(self, stream: InstanceStream, double: bool):
        n = len(stream)
        total = np.zeros(n, dtype=np.int32)
        for ev in stream.events:
            total[ev.id] += ev.neighbors.size
            total[ev.neighbors] += 1
        entries = int(total.sum())
        if entries >= 2**31:
            raise TooLarge(f"{entries} adjacency entries overflow the int32 index")
        self.n = n
        self.double = double
        self.start = np.zeros(n, dtype=np.int32)
        np.cumsum(total[:-1], out=self.start[1:])
        self.adj = np.empty(entries, dtype=np.int32)
        self.count = np.zeros(n, dtype=np.int32)
        span = 2 * n if double else n
        if double:
            self.side = np.arange(span) >= n  # column copies on side 1
        else:
            self.side = np.array([ev.side is Side.RIGHT for ev in stream.events])
        self.mate = np.full(span, -1, dtype=np.int32)
        self.parent = np.zeros(span, dtype=np.int32)
        self.seen = np.zeros(span, dtype=np.int32)  # number of the last search
        self.slot = np.zeros(span, dtype=np.int32)  # workspace for deduplication
        self.searches = 0
        self.free = [0, 0]  # unmatched nodes that have joined, per side
        self.size = 0

    def arrive(self, v: int, nbrs: np.ndarray) -> None:
        """Record v's back-edges in v's slice and v in each neighbour's."""
        a = self.start[v]
        self.adj[a : a + nbrs.size] = nbrs
        self.count[v] = nbrs.size
        self.adj[self.start[nbrs] + self.count[nbrs]] = v
        self.count[nbrs] += 1

    def join(self, node: int, nbrs: np.ndarray) -> None:
        """Add a free node (its vertex has arrived) and keep the matching maximum.

        The matching was maximum before, so every augmenting path now
        starts at ``node`` and ends at a free node of the other side.
        ``nbrs`` are the node's neighbours as vertex ids.
        """
        side = int(self.side[node])
        self.free[side] += 1
        if nbrs.size and self.free[1 - side] and self._augment(node, nbrs):
            self.free[0] -= 1
            self.free[1] -= 1
            self.size += 1

    def _neighbours(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Arrived neighbours (vertex ids) of all nodes, concatenated.

        Also returns the end offset of each node's run, so that
        ``searchsorted(ends, i, "right")`` names the node of entry i.
        """
        base = nodes % self.n if self.double else nodes
        lens = self.count[base]
        ends = np.cumsum(lens, dtype=np.int32)
        idx = np.arange(ends[-1], dtype=np.int32)
        idx += np.repeat(self.start[base] - (ends - lens), lens)
        return self.adj[idx], ends

    def _augment(self, root: int, nbrs: np.ndarray) -> bool:
        """Search one augmenting path from ``root`` and flip it if found.

        Breadth-first over whole frontiers: a free neighbour ends the
        search; otherwise the frontier moves on to the mates of the
        neighbours not yet seen.
        """
        self.searches += 1
        stamp = self.searches
        mate, seen, slot = self.mate, self.seen, self.slot
        off = 0  # node id of vertex 0 on the side opposite the root
        if self.double and root < self.n:
            off = self.n
            # the column copy joins only after this search: a path into it
            # would skip its own search and leave the matching short
            seen[root + off] = stamp
        frontier = np.array([root], dtype=np.int32)
        cand, ends = nbrs.astype(np.int32) + off, np.array([nbrs.size])
        while True:
            pos = np.flatnonzero(seen[cand] != stamp)
            if not pos.size:
                return False
            tgt = cand[pos]
            free = np.flatnonzero(mate[tgt] < 0)
            if free.size:
                i = free[0]
                self._flip(int(tgt[i]), int(frontier[np.searchsorted(ends, pos[i], "right")]))
                return True
            # keep one entry per target; whichever write to slot won, it
            # names a frontier node adjacent to that target
            order = np.arange(tgt.size, dtype=np.int32)
            slot[tgt] = order
            keep = slot[tgt] == order
            tgt, pos = tgt[keep], pos[keep]
            seen[tgt] = stamp
            self.parent[tgt] = frontier[np.searchsorted(ends, pos, "right")]
            frontier = mate[tgt]
            cand, ends = self._neighbours(frontier)
            cand += off

    def _flip(self, b: int, a: int) -> None:
        """Match a-b, then rematch along the search tree back to the root."""
        mate, parent = self.mate, self.parent
        while True:
            prev = int(mate[a])
            mate[a] = b
            mate[b] = a
            if prev < 0:
                return
            b, a = prev, int(parent[prev])


def _unit_prefix_values(stream: InstanceStream) -> np.ndarray:
    """Maximum (fractional) matching size after each arrival, unit weights.

    Side-labeled streams match L against R directly.  Otherwise each
    arrival adds its row copy and then its column copy to the double
    cover, and the value is half the double cover's matching.  Each added
    node raises the matching by at most one augmenting path (Berge).
    """
    labeled = stream.has_side_labels()
    m = _GrowingMatching(stream, double=not labeled)
    vals = np.zeros(len(stream))
    for ev in stream.events:
        v, nbrs = ev.id, ev.neighbors
        m.arrive(v, nbrs)
        m.join(v, nbrs)
        if not labeled:
            m.join(m.n + v, nbrs)
        vals[v] = m.size if labeled else m.size / 2.0
    return vals


def _weighted_prefix_values(stream: InstanceStream) -> np.ndarray:
    """Minimum weighted fractional cover after each arrival.

    One residual network of the weighted double cover (as in
    ``_min_cut_cover``) grows with the stream: an arrival adds its source
    and sink arcs and its mid arcs, and ``max_flow`` continues from the
    previous flow, since adding arcs never lowers the maximum.  The cover
    is the minimum cut read from the residual graph, whose weight must
    equal the flow at every prefix.
    """
    n = len(stream)
    w = stream.weights()
    s, t = 2 * n, 2 * n + 1
    net = _Dinic(2 * n + 2)
    flow = 0.0
    vals = np.zeros(n)
    for ev in stream.events:
        v = ev.id
        wv = float(w[v])
        net.add(s, v, wv)
        net.add(n + v, t, wv)
        for u in ev.neighbors.tolist():
            cap = float(w[u] + w[v] + 1.0)
            net.add(u, n + v, cap)
            net.add(v, n + u, cap)
        flow += net.max_flow(s, t)
        reach = net.source_side(s)
        cover_l = ~reach[: v + 1]
        cover_r = reach[n : n + v + 1]
        wj = w[: v + 1]
        cut_value = float(wj[cover_l].sum() + wj[cover_r].sum())
        if abs(cut_value - flow) > 1e-6 * max(1.0, flow):
            raise ValidationError(f"prefix {v + 1}: min cut does not match max flow")
        y = (cover_l.astype(float) + cover_r.astype(float)) / 2.0
        vals[v] = float((y * wj).sum())
    return vals


def prefix_optimal_values(stream: InstanceStream) -> np.ndarray:
    """Offline optimum after each arrival, from one solver kept across arrivals.

    The returned number is simultaneously the minimum fractional cover and
    the maximum fractional matching: the two coincide for bipartite
    instances (integrality plus duality) and for general ones (double
    cover).  Unit weights keep one maximum matching and search one
    augmenting path per added node; weights keep one max-flow residual
    network and continue the flow.  At every prefix the value equals what
    a from-scratch ``fractional_optima_general`` solve returns, exactly
    wherever the flow sums are exact (unit or integer weights) and up to
    rounding otherwise.
    """
    if stream.is_unit_weight():
        return _unit_prefix_values(stream)
    return _weighted_prefix_values(stream)


# ------------------------------------------------------------ ratio helper


def competitive_ratio(run, opt_per_prefix, objective: str = "cover", mode: str = "final") -> float:
    """ALG/OPT over prefixes: max for cover, min for matching.

    ``run`` may be a RunTrace or a plain sequence of per-prefix objective
    values.  Prefixes with OPT = 0 contribute ratio 1 when ALG = 0; a
    positive cover against OPT = 0 reports +inf (cannot happen for
    feasible algorithms, since OPT = 0 means no edges).
    """
    objective = objective.lower()
    mode = mode.lower().replace("-", "_").replace("worstprefix", "worst_prefix")
    if objective not in ("cover", "matching"):
        raise ValidationError(f"unknown objective {objective!r}")
    if mode not in ("final", "worst_prefix"):
        raise ValidationError(f"unknown mode {mode!r}")
    if hasattr(run, "rows"):
        if objective == "cover":
            alg = [row.cover_cost for row in run.rows]
        else:
            alg = [row.matching_value for row in run.rows]
    else:
        alg = list(run)
    opt = list(opt_per_prefix)
    if len(alg) != len(opt):
        raise LengthMismatch(f"{len(alg)} trace snapshots vs {len(opt)} oracle values")
    if not alg:
        raise LengthMismatch("empty trace")

    def ratio(a: float, o: float) -> float:
        if o <= 0.0:
            return 1.0 if abs(a) <= 1e-12 else float("inf")
        return a / o

    ratios = [ratio(a, o) for a, o in zip(alg, opt)]
    if mode == "final":
        return ratios[-1]
    return max(ratios) if objective == "cover" else min(ratios)
