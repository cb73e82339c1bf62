"""Exact offline optima for measuring competitive ratios.

Every oracle takes an ``InstanceStream`` and solves the graph of all its
arrivals; the first j arrivals are the stream ``static_from_stream(stream,
j)``.  The stream is validated once when it is built, so the oracles check
nothing about the graph again.

There is one solver per weight class.  Unit weights: ``_unit_optimum``
runs Hopcroft-Karp (scipy's C implementation) on an n x n biadjacency,
row u the left copy of u and column v the right copy of v, and reads a
Konig cover off the matching.  It serves the integral bipartite oracle
(each edge from its L row to its R column) and the fractional general
one (the bipartite double cover, each edge both ways, turns the
half-integral LP optimum into an integral bipartite one).  Weights: the
double cover as a minimum s-t cut, one ``_CoverNetwork`` whose max flow
follows augmenting paths of any length without recursion.  Both count in
integers (halves, or weights over a common power of two), so every check
is an exact comparison and each value is rounded to a float once.  A
tiny-instance enumeration over {0, 1/2, 1} potentials is the
independent check of both constructions.

The optimum of every prefix of a stream, which worst-prefix ratios divide
by, comes from one solver kept across the whole stream instead of one
solve per prefix: for unit weights a maximum matching that grows by one
augmenting-path search per added node, for weights the same
``_CoverNetwork`` as the from-scratch solve, solved after each arrival
with its flow continued.  The tests compare both with from-scratch solves
of every prefix.

scipy is loaded only by the from-scratch unit-weight solvers, on their
first call (``sparse_backend``), never when this module is imported.  The
prefix oracle, the weighted network and the brute force are numpy and
Python only, so a run that uses nothing else never imports scipy.

All public functions are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NotBipartite, TooLarge, ValidationError
from .instance import SIDE_CODES, InstanceStream, Side, VertexEvent


def static_from_stream(stream: InstanceStream, upto: int | None = None) -> InstanceStream:
    """The first ``upto`` arrivals (all by default) as a stream of their own.

    It shares the events, so no event is validated or sorted again.
    """
    if upto is None or upto == len(stream):
        return stream
    if not (0 <= upto <= len(stream)):
        raise ValidationError("prefix length out of range")
    return InstanceStream(stream.events[:upto], min(stream.offline_count, upto))


@dataclass(frozen=True)
class OracleResult:
    """Optimal values plus witnesses; construction re-verifies both sides."""

    max_matching_value: float
    min_cover_value: float
    matching_witness: dict[tuple[int, int], float]
    cover_witness: np.ndarray
    mode: str  # "integral-bipartite" | "fractional-general"

    def __post_init__(self):
        if self.max_matching_value != self.min_cover_value:
            raise ValidationError(f"{self.mode}: optimal values must coincide")
        if self.mode == "fractional-general":
            y = self.cover_witness
            if not np.all((y == 0.0) | (y == 0.5) | (y == 1.0)):
                raise ValidationError("fractional cover witness must be half-integral")


def _scaled_weights(stream: InstanceStream) -> tuple[np.ndarray, int]:
    """The weights as Python ints over their largest power-of-two denominator, and it."""
    ratios = [w.as_integer_ratio() for w in stream.weights().tolist()]
    den = max((d for _, d in ratios), default=1)
    return np.array([a * (den // d) for a, d in ratios], dtype=object), den


def _to_float(num: int, den: int) -> float:
    """``num / den``, correctly rounded; a value beyond the float range is an error."""
    try:
        return num / den
    except OverflowError:
        raise ValidationError("the optimum is beyond the float range") from None


def _certified(stream: InstanceStream, cover2: np.ndarray, arcs, mode: str) -> OracleResult:
    """Check integer witnesses exactly, then convert them to floats once.

    ``cover2`` holds the potentials in halves; ``arcs`` yields (a, b, x), the
    matching x on the double-cover arc a -> b in units of 1/(2 den).
    """
    iw, den = _scaled_weights(stream)
    u, v = stream.edge_arrays()
    if u.size and np.min(cover2[u] + cover2[v]) < 2:
        raise ValidationError("cover witness leaves an edge uncovered")
    pairs: dict[tuple[int, int], int] = {}
    load = [0] * len(stream)
    for a, b, x in arcs:
        key = (min(a, b), max(a, b))
        pairs[key] = pairs.get(key, 0) + x
        load[a] += x
        load[b] += x
    if any(x > 2 * c for x, c in zip(load, iw)):  # each vertex has two copies
        raise ValidationError("matching witness violates a vertex capacity")
    scale = 2 * den
    value = _to_float(sum(pairs.values()), scale)
    witness = {k: x / scale for k, x in pairs.items()}
    return OracleResult(value, _to_float((cover2 * iw).sum(), scale), witness, cover2 / 2.0, mode)


# ------------------------------------------------------------ unit weights


def sparse_backend():
    """scipy's ``csr_matrix`` and Hopcroft-Karp, imported on the first call.

    ``_unit_optimum`` is scipy's only user.  A caller that is about to
    run it may call this first to take the import out of whatever it
    times next.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching as hopcroft_karp

    return csr_matrix, hopcroft_karp


def maximum_bipartite_matching(graph) -> np.ndarray:
    """Matched column per row of a csr biadjacency (-1 if unmatched).

    scipy's Hopcroft-Karp, imported on the first call.
    """
    return sparse_backend()[1](graph, perm_type="column")


def _konig_cover(bi, match_lr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _unit_optimum(stream: InstanceStream, double: bool) -> OracleResult:
    """Unit-weight optimum from one Hopcroft-Karp matching and its Konig cover.

    The biadjacency is n x n: row u is u's left copy, column v is v's
    right copy.  ``double=True`` is the bipartite double cover of any
    graph (each edge both ways, values and potentials halved);
    otherwise each edge of a side-labeled stream runs from its L row to
    its R column, and the rows of R and columns of L stay empty.
    """
    csr_matrix = sparse_backend()[0]
    n = len(stream)
    e0, e1 = stream.edge_arrays()
    if double:
        rows, cols = np.concatenate((e0, e1)), np.concatenate((e1, e0))
    else:
        swap = stream.side_codes[e0] == SIDE_CODES[Side.RIGHT]
        rows, cols = np.where(swap, e1, e0), np.where(swap, e0, e1)
    bi = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    match = np.full(n, -1, dtype=np.int64)
    if bi.nnz:  # through the module global, so a wrapper put there sees every solve
        match = maximum_bipartite_matching(bi).astype(np.int64)
    cover_l, cover_r = _konig_cover(bi, match)
    share = 1 if double else 2  # halves per matched row
    arcs = ((int(u), int(match[u]), share) for u in np.flatnonzero(match >= 0))
    mode = "fractional-general" if double else "integral-bipartite"
    return _certified(stream, (cover_l.astype(np.int64) + cover_r) * share, arcs, mode)


def max_matching_bipartite(stream: InstanceStream) -> OracleResult:
    """Maximum-cardinality matching and a Konig cover of equal size."""
    if not stream.is_unit_weight():
        raise ValidationError("cardinality oracle requires unit weights")
    if not stream.has_side_labels():
        raise NotBipartite("every vertex must be labeled L or R")
    return _unit_optimum(stream, double=False)


# ------------------------------------------------------ fractional general


def fractional_optima_general(stream: InstanceStream) -> OracleResult:
    """Exact fractional matching/cover optima of a stream's whole graph.

    Both values come from one integral solution on the double cover, so
    they coincide by construction; the cover witness is half-integral.
    """
    if not len(stream):
        return OracleResult(0.0, 0.0, {}, np.zeros(0), "fractional-general")
    if stream.is_unit_weight():
        return _unit_optimum(stream, double=True)
    net = _CoverNetwork(stream)
    for ev in stream.events:
        net.add(ev)
    return _certified(stream, net.solve()[0], net.edge_flows(), "fractional-general")


class _CoverNetwork:
    """The weighted double cover as a max-flow network, grown by arrivals.

    Nodes: u-left copies 0..n-1, v-right copies n..2n-1, source 2n, sink
    2n+1.  Left and right capacities are vertex weights; crossing arcs
    are dearer than cutting either endpoint, so a minimum cut picks a
    vertex cover and the maximum flow is a fractional b-matching.  Adding
    arcs never lowers the maximum, so ``solve`` continues the flow from
    the previous one (Dinic's blocking flows).

    Capacities and flows are exact Python ints: the weights are scaled by
    their common power-of-two denominator ``den``, and a crossing arc holds
    w_u + w_v + den.  The cover's value is rounded once, to cut / (2 den).
    """

    def __init__(self, stream: InstanceStream):
        n = len(stream)
        self.n, self.s, self.t = n, 2 * n, 2 * n + 1
        self.w, self.den = _scaled_weights(stream)
        self.head: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.to: list[int] = []  # arc i and its reverse i ^ 1
        self.cap: list[int] = []
        self.level: list[int] = []
        self.arrived = 0
        self.flow = 0

    def _arc(self, u: int, v: int, c: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(c)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def add(self, ev: VertexEvent) -> None:
        """An arrival's source and sink arcs, then its crossing arcs."""
        n, w, v = self.n, self.w, ev.id
        self._arc(self.s, v, w[v])
        self._arc(n + v, self.t, w[v])
        for u in ev.neighbors.tolist():
            cap = w[u] + w[v] + self.den
            self._arc(u, n + v, cap)
            self._arc(v, n + u, cap)
        self.arrived = v + 1

    def _bfs(self) -> bool:
        head, to, cap = self.head, self.to, self.cap
        level = [-1] * len(head)
        level[self.s] = 0
        q = [self.s]
        for u in q:
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        self.level = level
        return level[self.t] >= 0

    def _augment(self, nxt: list[int]) -> int:
        """Push flow along one path of the level graph, found depth-first.

        The path is an explicit stack of arcs, so it may be of any length.
        ``nxt[u]`` is u's first arc not yet found to lead to a dead end in
        this phase.  Returns the amount pushed, 0 once the phase's flow is
        blocking.
        """
        head, to, cap, level = self.head, self.to, self.cap, self.level
        path: list[int] = []
        u = self.s
        while u != self.t:
            arcs, i, up = head[u], nxt[u], level[u] + 1
            while i < len(arcs):
                ei = arcs[i]
                if cap[ei] > 0 and level[to[ei]] == up:
                    break
                i += 1
            nxt[u] = i
            if i < len(arcs):
                path.append(ei)
                u = to[ei]
            elif path:  # dead end: back up and skip the arc that led here
                u = to[path.pop() ^ 1]
                nxt[u] += 1
            else:
                return 0
        d = min(cap[ei] for ei in path)
        for ei in path:
            cap[ei] -= d
            cap[ei ^ 1] += d
        return d

    def solve(self) -> tuple[np.ndarray, int]:
        """Continue the flow to a maximum; the cover in halves and its cut.

        The last search fails to reach the sink, and the nodes it reached
        are the source side of a minimum cut, whose capacity must equal
        the flow.
        """
        while self._bfs():
            nxt = [0] * len(self.head)
            while d := self._augment(nxt):
                self.flow += d
        n, k = self.n, self.arrived
        reach = np.asarray(self.level) >= 0
        cover_l, cover_r = ~reach[:k], reach[n : n + k]
        cut = self.w[:k][cover_l].sum() + self.w[:k][cover_r].sum()
        if cut != self.flow:
            raise ValidationError(f"{k} arrivals: min cut does not match max flow")
        return cover_l.astype(np.int64) + cover_r, cut

    def edge_flows(self) -> list[tuple[int, int, int]]:
        """(u, v, flow) per crossing arc u-left -> v-right with flow, read off its reverse arc."""
        n, to, cap = self.n, self.to, self.cap
        return [
            (to[ei + 1], to[ei] - n, cap[ei + 1])
            for ei in range(0, len(to), 2)
            if to[ei + 1] < n and cap[ei + 1] > 0
        ]


# ------------------------------------------------------------- brute force


_POW3 = 3 ** np.arange(17, dtype=np.int64)


def brute_force_half_integral(stream: InstanceStream) -> float:
    """Minimum weighted cover over all potentials in {0, 1/2, 1}^V.

    Valid as the exact fractional optimum because the cover LP always has
    a half-integral optimal point.  Exhaustive, so capped at n <= 16.
    """
    n = len(stream)
    if n > 16:
        raise TooLarge(f"brute force capped at 16 vertices, got {n}")
    if not stream.edge_count():
        return 0.0
    e0, e1 = stream.edge_arrays()
    levels = np.array([0.0, 0.5, 1.0])
    total = int(3**n)
    best = np.inf
    chunk = 3 ** min(n, 12)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = (idx[:, None] // _POW3[None, :n]) % 3
        y = levels[digits]
        ok = np.ones(idx.size, dtype=bool)
        for u, v in zip(e0.tolist(), e1.tolist()):
            ok &= y[:, u] + y[:, v] >= 1.0
        if ok.any():
            best = min(best, float((y[ok] @ stream.weights()).min()))
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
        total = np.diff(stream.edge_offsets).astype(np.int32)  # back-edges
        for ev in stream.events:  # forward edges, without a flat edge copy
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
            self.side = stream.side_codes == SIDE_CODES[Side.RIGHT]
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
    """Minimum weighted fractional cover after each arrival: one
    ``_CoverNetwork`` grows with the stream and is solved per arrival."""
    net = _CoverNetwork(stream)
    vals = np.zeros(len(stream))
    for ev in stream.events:
        net.add(ev)
        vals[ev.id] = _to_float(net.solve()[1], 2 * net.den)
    return vals


def prefix_optimal_values(stream: InstanceStream) -> np.ndarray:
    """Offline optimum after each arrival, from one solver kept across arrivals.

    The returned number is simultaneously the minimum fractional cover and
    the maximum fractional matching: the two coincide for bipartite
    instances (integrality plus duality) and for general ones (double
    cover).  Unit weights keep one maximum matching and search one
    augmenting path per added node; weights keep one max-flow residual
    network and continue the flow.  At every prefix the value equals what
    a from-scratch ``fractional_optima_general`` solve returns.
    """
    if stream.is_unit_weight():
        return _unit_prefix_values(stream)
    return _weighted_prefix_values(stream)


# ------------------------------------------------------------ ratio helper


def prefix_ratios(alg, opt) -> np.ndarray:
    """ALG/OPT after each arrival, from per-prefix ALG and OPT values.

    The worst prefix of a cover is ``.max()``, of a matching ``.min()``;
    the final ratio is ``[-1]``.  A prefix with OPT = 0 (no edges yet)
    has ratio 1 when ALG is 0 and +inf otherwise (impossible for a
    feasible algorithm).
    """
    a = np.asarray(alg, dtype=float)
    o = np.asarray(opt, dtype=float)
    if a.ndim != 1 or a.shape != o.shape:
        raise LengthMismatch(f"{a.size} ALG values vs {o.size} OPT values")
    if not a.size:
        raise LengthMismatch("no prefixes")
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(o > 0.0, a / o, np.where(np.abs(a) <= 1e-12, 1.0, np.inf))
