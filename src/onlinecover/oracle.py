"""Exact offline optima for measuring competitive ratios.

Every oracle takes an ``InstanceStream`` and solves the graph of all its
arrivals; the first j arrivals are ``static_from_stream(stream, j)``, the
only prefix view, a stream over slices of the columns.  A stream is
validated when it is built, so the oracles check nothing about it again.

There is one from-scratch solver per weight class.  Both solve the
bipartite double cover of the graph, which turns the half-integral LP
optimum into an integral bipartite one.  They read no side labels: on a
bipartite graph the fractional optimum already equals the integral one
(Konig), so no separate integral oracle is needed.
Unit weights: ``_unit_optimum`` runs Hopcroft-Karp, written here in
Python and numpy, on the n x n biadjacency ``_adjacency`` builds, row u
the left copy of u and column v the right copy of v, and reads a Konig
cover off the last, failed search.
Weights: a minimum s-t cut of one ``_CoverNetwork``, the double cover's
arcs, whose flow ``_dinic`` maximises along augmenting paths of any length
without recursion.  Both count in
integers (halves, or weights over a common power of two), so every check
is an exact comparison and each value is rounded to a float once.  A
tiny-instance enumeration over {0, 1/2, 1} potentials is the
independent check of both constructions.

The optimum of every prefix of a stream, which worst-prefix ratios divide
by, comes from one solver kept across the whole stream instead of one
solve per prefix: each arrival is ``add``-ed to the solver and its exact
integer value read.  For weights the solver is a ``_KeptTrees``, the
same network with source and sink search trees kept across arrivals: it
continues the flow from them after each arrival, certifies each prefix
by the kept cut and steps every arrival.  Each max-flow algorithm has one
type: Dinic's is one function that keeps nothing between calls, and the
kept trees are the only type that holds tree state.
For unit weights it is a maximum matching of the same biadjacency, one
``_adjacency`` with the same row and column numbers, grown one added node
at a time: matched to a free arrived neighbour if it has one, else by one
augmenting-path search.  The optimum never falls, and an arrival raises it
by at most one, so once one from-scratch solve of the whole stream (the
anchor) is known, a prefix whose value is the anchor's, or whose value
plus the most every later arrival may add is the anchor's, fixes every
later value, and the loop stops stepping.  The anchor is bought right
after the first arrival whose join searched: until then each join read
only its own neighbours, and from then on a join may search much of the
graph, so one Hopcroft-Karp solve is cheap beside the rest of the pass.
The tests compare both solvers with from-scratch solves of every prefix.

Everything here is numpy and Python only; the tests check the unit
solver against scipy's Hopcroft-Karp.

All public functions are pure functions of their inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, TooLarge, ValidationError
from .instance import InstanceStream, Side, VertexEvent


def static_from_stream(stream: InstanceStream, length: int) -> InstanceStream:
    """The first ``length`` arrivals as a stream of their own: the one prefix view.

    Its columns are slices of the stream's, validated again as a whole.
    """
    if length == len(stream):
        return stream
    if not (0 <= length <= len(stream)):
        raise ValidationError("prefix length out of range")
    off = stream.edge_offsets[: length + 1]
    return InstanceStream(stream.weights[:length], stream.side_codes[:length], off,
                          stream.neighbors[: off[-1]], min(stream.offline_count, length))


@dataclass(frozen=True)
class OracleResult:
    """The two optimal values and a half-integral cover witness; construction
    checks that the values coincide and that the witness is half-integral."""

    max_matching_value: float
    min_cover_value: float
    cover_witness: np.ndarray

    def __post_init__(self):
        if self.max_matching_value != self.min_cover_value:
            raise ValidationError("optimal values must coincide")
        y = self.cover_witness
        if not np.all((y == 0.0) | (y == 0.5) | (y == 1.0)):
            raise ValidationError("fractional cover witness must be half-integral")


def _scaled_weights(stream: InstanceStream) -> tuple[np.ndarray, int]:
    """The weights as Python ints over their largest power-of-two denominator, and it."""
    ratios = [w.as_integer_ratio() for w in stream.weights.tolist()]
    den = max((d for _, d in ratios), default=1)
    return np.array([a * (den // d) for a, d in ratios], dtype=object), den


def _to_float(num: int, den: int) -> float:
    """``num / den``, correctly rounded; a value beyond the float range is an error."""
    try:
        return num / den
    except OverflowError:
        raise ValidationError("the optimum is beyond the float range") from None


def _certified(stream: InstanceStream, cover2: np.ndarray, a, b, x) -> OracleResult:
    """Check integer witnesses exactly, then convert the values to floats once.

    ``cover2`` holds the potentials in halves; the matching is x[i] on the
    double-cover arc a[i] -> b[i] in units of 1/(2 den), x int64 or, for
    Python-int flows, object.  The cover must cover every edge and the
    matching respect every capacity; the result checks that their values
    coincide.
    """
    n = len(stream)
    iw, den = _scaled_weights(stream)
    u, v = stream.edge_arrays()
    c8 = cover2.astype(np.int8)  # potentials 0, 1, 2: a byte per edge per temporary
    if u.size and np.min(c8[u] + c8[v]) < 2:
        raise ValidationError("cover witness leaves an edge uncovered")
    load = np.zeros(n, dtype=x.dtype)
    np.add.at(load, a, x)
    np.add.at(load, b, x)
    if np.any(load > 2 * iw):  # each vertex has two copies
        raise ValidationError("matching witness violates a vertex capacity")
    scale = 2 * den
    value = _to_float(int(x.sum()), scale)
    return OracleResult(value, _to_float((cover2 * iw).sum(), scale), cover2 / 2.0)


# ------------------------------------------------------------ unit weights


_BLOCK = 1 << 14  # keys formed per step in ``_adjacency``


def _adjacency(stream: InstanceStream) -> tuple[np.ndarray, np.ndarray]:
    """The whole graph's adjacency: v's neighbours are ``idx[ptr[v]:ptr[v + 1]]``.

    One sort of v * n + neighbour keys builds it, so each slice is
    ascending: v's earlier neighbours, then its later ones in arrival
    order.  Keys and ``ptr`` are int32 while n * n fits, and ``idx`` is
    int32 for every n: the keys themselves below n = 46,341, an int32 copy
    of them from there on.  The key buffer's halves first hold each edge's
    endpoints, then the keys, formed in place a block at a time.
    """
    n = len(stream)
    off = stream.edge_offsets
    e = int(off[-1])
    dtype = np.int32 if n * n < 2**31 else np.int64
    keys = np.zeros(2 * e, dtype=dtype)
    if e:
        u, v = keys[:e], keys[e:]
        u[:] = stream.neighbors
        # edge i's arrival is the number of events after 0 starting at or before i
        starts = off[1:-1]
        np.add.at(v, starts[starts < e], 1)
        np.cumsum(v, out=v)
        for i in range(0, e, _BLOCK):
            lo, hi = u[i : i + _BLOCK], v[i : i + _BLOCK]
            t = lo * n
            lo += hi * n
            hi += t
        keys.sort()
    ptr = np.full(n + 1, 2 * e, dtype=dtype)
    # needles of the keys' own dtype: other needles make searchsorted copy the keys
    ptr[:n] = np.searchsorted(keys, np.arange(n, dtype=dtype) * n)
    keys %= n
    return ptr, keys.astype(np.int32, copy=False)


def _gather(ptr: np.ndarray, idx: np.ndarray, nodes, lens) -> tuple[np.ndarray, np.ndarray]:
    """The first ``lens[i]`` entries of each ``nodes[i]``'s slice, concatenated,
    and where each node's run ends: ``searchsorted(ends, i, "right")`` names
    the node of entry i."""
    ends = np.cumsum(lens, dtype=ptr.dtype)
    pos = np.arange(ends[-1], dtype=ptr.dtype)
    pos += np.repeat(ptr[nodes] - (ends - lens), lens)
    return idx[pos], ends


_LONG_ROW = 64  # the greedy start scans longer rows with numpy


def maximum_bipartite_matching(ptr: np.ndarray, idx: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Hopcroft-Karp on the biadjacency whose row u has the columns ``idx[ptr[u]:ptr[u + 1]]``.

    A greedy start visits rows in ascending degree order and gives each
    its free column of least degree.  Then each phase finds a maximal set of
    disjoint shortest augmenting paths: a breadth-first search from every
    free row, one numpy step per layer, stops at the first layer that
    reaches a free column, and a depth-first walk with an explicit stack
    follows the layers, so a path may be of any length.  Returns the
    matched column per row (-1 if none) and the layer of every row the
    last search reached (-1 if none): that search found no free column,
    so it reached exactly the rows that alternating paths from free rows
    reach (Konig).
    """
    n = ptr.size - 1
    p = ptr.tolist()
    rmate, cmate = [-1] * n, [-1] * n
    rows: list[list[int] | None] = [None] * n  # a row's columns, listed when first scanned
    taken = np.zeros(n, dtype=bool)
    deg = np.diff(ptr)
    dl = deg.tolist()
    for u in np.argsort(deg, kind="stable")[np.count_nonzero(deg == 0) :].tolist():
        a, b = p[u], p[u + 1]
        if b - a <= _LONG_ROW:
            rows[u] = row = idx[a:b].tolist()
            v, dv = -1, n
            for x in row:
                if cmate[x] < 0 and dl[x] < dv:
                    v, dv = x, dl[x]
            if v < 0:
                continue
        else:
            cand = idx[a:b]
            free = cand[~taken[cand]]
            if not free.size:
                continue
            v = int(free[np.argmin(deg[free])])
        rmate[u], cmate[v], taken[v] = v, u, True

    while True:
        mate = np.array(cmate, dtype=np.int64)
        dist = np.full(n, -1, dtype=np.int64)
        layer = np.flatnonzero((np.array(rmate) < 0) & (deg > 0))
        dist[layer] = 0
        depth = 0
        while layer.size:
            lens = deg[layer]
            w = mate[_gather(ptr, idx, layer, lens)[0]]
            if (w < 0).any():
                break
            dist[w[dist[w] < 0]] = depth + 1
            layer = np.flatnonzero(dist == depth + 1)
            depth += 1
        else:
            return rmate, dist
        # of the last layer, keep only the rows next to a free column
        dist[layer] = -1
        dist[np.repeat(layer, lens)[w < 0]] = depth
        for u in np.flatnonzero(dist >= 0).tolist():
            if rows[u] is None:
                rows[u] = idx[p[u] : p[u + 1]].tolist()
        _augment_layers(rows, rmate, cmate, dist.tolist())


def _augment_layers(
    rows: list[list[int]], rmate: list[int], cmate: list[int], dist: list[int]
) -> None:
    """Flip a maximal set of disjoint augmenting paths through the layers.

    Each walk starts at a free row and goes from a row of layer d through
    a matched column to the column's mate in layer d + 1, and ends at a
    free column, which only rows of the last layer are next to.  ``nxt[u]``
    is u's first arc not yet tried; a row on a path or at a dead end
    leaves the layers.
    """
    nxt = [0] * len(rmate)
    for root, d in enumerate(dist):
        if d or rmate[root] >= 0:
            continue
        path, cols = [root], []
        while path:
            u = path[-1]
            arcs, i, du = rows[u], nxt[u], dist[u]
            while i < len(arcs):
                v = arcs[i]
                w = cmate[v]
                i += 1
                if w < 0 or dist[w] == du + 1:
                    break
            else:
                dist[u] = -1  # dead end: back up
                path.pop()
                if cols:
                    cols.pop()
                continue
            nxt[u] = i
            cols.append(v)
            if w < 0:  # a free column: flip the path
                for x, c in zip(path, cols):
                    rmate[x], cmate[c] = c, x
                    dist[x] = -1
                break
            path.append(w)


def _unit_optimum(stream: InstanceStream, ptr, idx) -> tuple[OracleResult, int]:
    """Unit-weight optimum from one Hopcroft-Karp matching of the stream's
    adjacency ``ptr``, ``idx`` and its Konig cover; also the matching's size,
    the optimum in halves.

    The biadjacency is the n x n bipartite double cover: row u is u's
    left copy, column v is v's right copy, and each edge runs both ways,
    so row u's columns are u's neighbours.  Each matched row carries half
    a unit of matching, and a vertex's potential is half the number of
    its copies in the cover: its row if matched and unreached by the last
    search, its column if its mate row was reached.
    """
    # through the module global, so a wrapper put there sees every solve
    match, dist = maximum_bipartite_matching(ptr, idx)
    match = np.array(match, dtype=np.int64)
    rows = np.flatnonzero(match >= 0)
    cols = match[rows]
    reached = dist[rows] >= 0
    cover2 = np.zeros(len(stream), dtype=np.int64)
    cover2[rows[~reached]] = 1
    cover2[cols[reached]] += 1
    return _certified(stream, cover2, rows, cols, np.ones(rows.size, dtype=np.int64)), rows.size


def _weighted_optimum(stream: InstanceStream) -> OracleResult:
    """Weighted optimum from one ``_CoverNetwork`` of the whole stream."""
    net = _CoverNetwork(stream)
    for ev in stream:
        net.add(ev)
    cover2 = _dinic(net)  # the flows are read once it is maximum
    return _certified(stream, cover2, *net.edge_flows())


# ------------------------------------------------------ fractional general


def fractional_optima_general(stream: InstanceStream) -> OracleResult:
    """Exact fractional matching/cover optima of a stream's whole graph.

    Both values come from one integral solution on the double cover, so
    they coincide by construction; the cover witness is half-integral.
    """
    if not len(stream):
        return OracleResult(0.0, 0.0, np.zeros(0))
    if stream.is_unit_weight():
        return _unit_optimum(stream, *_adjacency(stream))[0]
    return _weighted_optimum(stream)


class _CoverNetwork:
    """The weighted double cover as a max-flow network, grown by arrivals.

    Nodes: u-left copies 0..n-1, v-right copies n..2n-1, source 2n, sink
    2n+1.  Left and right capacities are vertex weights; crossing arcs
    are dearer than cutting either endpoint, so a minimum cut picks a
    vertex cover and the maximum flow is a fractional b-matching.

    Capacities and flows are exact Python ints: the weights are scaled by
    their common power-of-two denominator ``den``, and a crossing arc holds
    w_u + w_v + den.  The cover's value is rounded once, to cut / (2 den).

    Only the arcs and the flow live here.  ``_dinic`` maximises the flow
    from scratch; ``_KeptTrees`` adds search trees kept across arrivals.
    """

    def __init__(self, stream: InstanceStream):
        n = len(stream)
        self.n, self.s, self.t = n, 2 * n, 2 * n + 1
        self.w, self.den = _scaled_weights(stream)
        self.head: list[list[int]] = [[] for _ in range(2 * n + 2)]
        self.to: list[int] = []  # arc i and its reverse i ^ 1
        self.cap: list[int] = []
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

    def edge_flows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays u, v, flow over the crossing arcs u-left -> v-right with flow,
        read off each arc's reverse, whose head is its tail; flows are Python ints."""
        to = np.array(self.to)
        tail, flow = to[1::2], np.array(self.cap[1::2], dtype=object)
        keep = (tail < self.n) & (flow > 0)
        return tail[keep], to[0::2][keep] - self.n, flow[keep]


def _dinic(net: _CoverNetwork) -> np.ndarray:
    """Continue the network's flow to a maximum by Dinic's blocking flows;
    the minimum cover in halves.

    Each phase levels the residual network by a breadth-first search from
    the source, then pushes along level-graph paths found depth-first.  A
    path is an explicit stack of arcs, so it may be of any length, and
    ``nxt[u]`` is u's first arc not yet found to lead to a dead end in the
    phase.  The last search fails to reach the sink, and the nodes it
    reached are the source side of a minimum cut, whose capacity must
    equal the flow.
    """
    head, to, cap, s, t = net.head, net.to, net.cap, net.s, net.t
    while True:
        level = [-1] * len(head)
        level[s] = 0
        q = [s]
        for u in q:
            for ei in head[u]:
                v = to[ei]
                if cap[ei] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        if level[t] < 0:
            break
        nxt = [0] * len(head)
        path: list[int] = []
        u = s
        while True:
            if u == t:  # push the bottleneck, then search again from the source
                d = min(cap[ei] for ei in path)
                for ei in path:
                    cap[ei] -= d
                    cap[ei ^ 1] += d
                net.flow += d
                path, u = [], s
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
            else:  # the phase's flow is blocking
                break
    n, k, w = net.n, net.arrived, net.w
    reach = np.asarray(level) >= 0
    cover_l, cover_r = ~reach[:k], reach[n : n + k]
    if w[:k][cover_l].sum() + w[:k][cover_r].sum() != net.flow:
        raise ValidationError(f"{k} arrivals: min cut does not match max flow")
    return cover_l.astype(np.int64) + cover_r


_FREE, _SRC, _SNK = 0, 1, 2  # tree membership of a network node
_NONE, _ORPHAN = -1, -2  # parent arc of a free node and of an orphan


class _KeptTrees(_CoverNetwork):
    """A ``_CoverNetwork`` whose maximum flow is kept across arrivals by a
    source tree S and a sink tree T (Boykov & Kolmogorov, PAMI 2004, reused
    across graph changes as in Kohli & Torr, ICCV 2005).

    ``units`` settles each new arc where it lands, then grows the trees
    from their active nodes, pushes flow wherever they touch and re-adopts
    or frees the orphans.  Every S node with a residual arc out of S is
    active, so once none is, S is the source side of a minimum cut.  S's
    capacity, every arc out of it counted, is kept across arrivals: each
    prefix adds the new arcs and the nodes that changed sides, then checks
    it against the flow.  A tree node's ``par`` is its arc toward the
    root, in its own list; ``ts`` and ``dist`` mark nodes whose path to the
    root is known, so an orphan's walks to find a new parent stop at a
    marked node.
    """

    def __init__(self, stream: InstanceStream):
        super().__init__(stream)
        m = 2 * self.n + 2
        self.tree = [_FREE] * m
        self.tree[self.s], self.tree[self.t] = _SRC, _SNK
        self.par = [_NONE] * m
        self.ts = [0] * m
        self.dist = [0] * m
        self.time = 0  # the roots' mark: the number of pushes so far
        self.active: deque[int] = deque()
        self.queued = [False] * m
        self.orphans: deque[int] = deque()
        self.settled = 0  # arcs below this index are settled
        self.cut = 0  # capacity of the arcs out of S, as of the last count
        self.moved: dict[int, bool] = {}  # nodes that joined or left S since: were they in S

    def units(self) -> int:
        """The minimum cover of the arrived graph, in units of 1/(2 den):
        the kept trees' maximum flow, certified by the capacity of S.

        The arcs added since the last call are settled as one range, the
        cut first counting them all under the memberships as they stand.
        """
        lo, hi = self.settled, len(self.to)
        self.settled = hi
        self._settle(lo, hi)
        self._grow()
        self._recount()
        if self.cut != self.flow:
            raise ValidationError(f"{self.arrived} arrivals: min cut does not match max flow")
        return self.cut

    def _settle(self, lo: int, hi: int) -> None:
        """Settle the new arcs a -> b, arcs lo..hi - 1 and their reverses.

        A free end joins the tree of the other end; an arc from S to T is
        pushed while it stays one.  The ends already in a tree are not
        activated: their other arcs were settled before.
        """
        to, cap, tree = self.to, self.cap, self.tree
        for ei in range(lo, hi, 2):
            if tree[to[ei + 1]] == _SRC and tree[to[ei]] != _SRC:
                self.cut += cap[ei]
        for ei in range(lo, hi, 2):
            a, b = to[ei + 1], to[ei]
            while cap[ei] and tree[a] == _SRC:
                if tree[b] == _FREE:
                    self._join(b, _SRC, ei + 1)
                if tree[b] != _SNK:
                    break
                self._push(ei)
            else:
                if cap[ei] and tree[a] == _FREE and tree[b] == _SNK:
                    self._join(a, _SNK, ei)

    def _join(self, p: int, side: int, pe: int) -> None:
        """Free node p joins ``side``'s tree through its arc pe to its
        parent, and becomes active."""
        q = self.to[pe]
        self.tree[p], self.par[p] = side, pe
        self.ts[p], self.dist[p] = self.ts[q], self.dist[q] + 1
        if side == _SRC:
            self.moved.setdefault(p, False)
        if not self.queued[p]:
            self.queued[p] = True
            self.active.append(p)

    def _recount(self) -> None:
        """Bring the cut up to date with the nodes now on the other side of
        S than at the last count.  They are put back on their old sides,
        then moved over one at a time, each adding its arcs now out of S
        and taking off its arcs now into S (or the reverse when it left).
        A node that joined and left again costs nothing."""
        tree = self.tree
        flips = [(x, tree[x]) for x, was in self.moved.items() if (tree[x] == _SRC) != was]
        self.moved.clear()
        for x, side in flips:
            tree[x] = _FREE if side == _SRC else _SRC
        for x, side in flips:
            tree[x] = side
            d = self._cut_change(x)
            self.cut += d if side == _SRC else -d

    def _cut_change(self, p: int) -> int:
        """How much the cut grows when p joins S: p's arcs to nodes outside
        S less its arcs from nodes in S."""
        to, cap, tree = self.to, self.cap, self.tree
        delta = 0
        for ei in self.head[p]:
            if tree[to[ei]] == _SRC:
                if ei & 1:
                    delta -= cap[ei] + cap[ei ^ 1]
            elif not ei & 1:
                delta += cap[ei] + cap[ei ^ 1]
        return delta

    def _grow(self) -> None:
        """Grow the trees from the active nodes, pushing flow wherever an S
        node's residual arc reaches T, until no node is active.

        S grows over residual arcs p -> q, T over residual arcs q -> p.  A
        node of the tree that p can give a shorter path to the root
        (Boykov & Kolmogorov's distance heuristic) is hung under p.
        """
        head, to, cap, tree, par = self.head, self.to, self.cap, self.tree, self.par
        ts, dist, active, queued = self.ts, self.dist, self.active, self.queued
        while active:
            p = active[0]
            side = tree[p]
            if side == _FREE:
                active.popleft()
                queued[p] = False
                continue
            back = side == _SNK
            other = _SRC + _SNK - side
            meet = _NONE
            for ei in head[p]:
                if cap[ei ^ back]:
                    q = to[ei]
                    if tree[q] == _FREE:
                        self._join(q, side, ei ^ 1)
                    elif tree[q] == other:
                        meet = ei
                        break
                    elif ts[q] <= ts[p] and dist[q] > dist[p]:
                        # shorter paths keep the orphans' walks to the root short:
                        # without this, reweighted two-phase:100 took 1.7x as long
                        par[q], ts[q], dist[q] = ei ^ 1, ts[p], dist[p] + 1
            if meet == _NONE:
                active.popleft()
                queued[p] = False
            else:  # p stays at the front and is scanned again
                self._push(meet ^ back)

    def _push(self, mid: int) -> None:
        """Push the bottleneck along s ~> a -> b ~> t, where mid is the arc
        a -> b from S to T, then restore the trees: each node whose parent
        arc was saturated is an orphan."""
        to, cap, par, orphans = self.to, self.cap, self.par, self.orphans
        s, t = self.s, self.t
        up: list[int] = []  # S's arcs on the path, each into its child
        x = to[mid ^ 1]
        while x != s:
            up.append(par[x] ^ 1)
            x = to[par[x]]
        down: list[int] = []  # T's arcs on the path, each out of its child
        x = to[mid]
        while x != t:
            down.append(par[x])
            x = to[par[x]]
        path = [mid, *up, *down]
        d = min(cap[e] for e in path)
        for e in path:
            cap[e] -= d
            cap[e ^ 1] += d
        for e in up:
            if not cap[e]:
                par[to[e]] = _ORPHAN
                orphans.appendleft(to[e])
        for e in down:
            if not cap[e]:
                par[to[e ^ 1]] = _ORPHAN
                orphans.appendleft(to[e ^ 1])
        self.flow += d
        self.time += 1
        self.ts[s] = self.ts[t] = self.time
        self._adopt()

    def _adopt(self) -> None:
        """Give each orphan a new parent in its own tree, the one nearest
        the root over a residual arc, or free it.

        A candidate's walk toward the root stops at a node marked in this
        round (its distance is known) or at an orphan (no origin); the
        nodes a walk passes are marked.  A freed node's tree neighbours with
        a residual arc to it become active (the roots never are), its
        children become orphans, and a freed S node waits for the next cut
        count.
        """
        head, to, cap, tree, par = self.head, self.to, self.cap, self.tree, self.par
        ts, dist, time, orphans = self.ts, self.dist, self.time, self.orphans
        active, queued, t = self.active, self.queued, self.t
        while orphans:
            i = orphans.popleft()
            side = tree[i]
            back = side == _SRC  # S takes the reverse arcs j -> i, T arcs i -> j
            best = dmin = _NONE
            arcs = head[i]
            for ei in arcs:
                j = to[ei]
                if tree[j] != side or not cap[ei ^ back]:
                    continue
                x, d = j, 0
                while ts[x] != time and par[x] != _ORPHAN:
                    d += 1
                    x = to[par[x]]
                if ts[x] != time:
                    continue
                d += dist[x]
                # the nearest root, not the first candidate that reaches one: the
                # first was 5-19% faster on sparse streams but up to 1.9x slower on
                # dense ones (reweighted two-phase and triangular)
                if best == _NONE or d < dmin:
                    best, dmin = ei, d
                x = j
                while ts[x] != time:
                    ts[x], dist[x] = time, d
                    d -= 1
                    x = to[par[x]]
            if best != _NONE:
                par[i], ts[i], dist[i] = best, time, dmin + 1
                continue
            tree[i], par[i] = _FREE, _NONE
            if back:
                self.moved.setdefault(i, True)
            for ei in arcs:
                j = to[ei]
                if tree[j] != side:
                    continue
                if cap[ei ^ back] and j < t - 1 and not queued[j]:
                    queued[j] = True
                    active.append(j)
                if par[j] == ei ^ 1:
                    par[j] = _ORPHAN
                    orphans.append(j)


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
            best = min(best, float((y[ok] @ stream.weights).min()))
    return best


# ----------------------------------------------------------- prefix oracle


class _GrowingMatching:
    """Maximum matching of the bipartite double cover, grown one node at a time.

    Node v is vertex v's row copy and n + v its column copy, as in
    ``_unit_optimum``.  The adjacency is ``_adjacency``'s, whose slices
    list each vertex's earlier neighbours and then its later ones in
    arrival order, so a vertex's arrived neighbours are always the first
    ``count[v]`` entries of its slice; an arrival only updates counts.

    A side-labeled stream's L vertex joins as its row and R vertex as its
    column, a matching of the graph itself; otherwise each arrival adds
    its row, then its column, and the value is half the double cover's
    matching.  Each added node adds at most one augmenting path (Berge).
    Most paths are one edge long, so a join first reads its arrived
    neighbours as a view and matches the first free one, with no search;
    on the paper's dense streams nearly every join ends there.
    ``searches`` counts the joins that went on to ``_augment``.
    """

    def __init__(self, stream: InstanceStream):
        self.n = n = len(stream)
        self.labeled = stream.has_side_labels()
        self.ptr, self.idx = _adjacency(stream)
        self.count = np.zeros(n, dtype=self.ptr.dtype)
        self.mate = np.full(2 * n, -1, dtype=np.int32)
        self.parent = np.zeros(2 * n, dtype=np.int32)
        self.seen = np.zeros(2 * n, dtype=np.int32)  # number of the last search
        self.slot = np.zeros(2 * n, dtype=np.int32)  # workspace for deduplication
        self.searches = 0
        self.free = [0, 0]  # unmatched nodes that have joined: rows, columns
        self.size = 0

    def add(self, ev: VertexEvent) -> None:
        """Count the arrival's back-edges as arrived, then join its copies."""
        v = ev.id
        self.count[v] = ev.neighbors.size
        self.count[ev.neighbors] += 1
        if not self.labeled or ev.side is Side.LEFT:
            self.join(v)
        if not self.labeled or ev.side is Side.RIGHT:
            self.join(self.n + v)

    def units(self) -> int:
        """The maximum fractional matching of the arrived graph, in halves."""
        return 2 * self.size if self.labeled else self.size

    def whole(self, stream: InstanceStream) -> int:
        """The whole stream's optimum in halves, certified: one Hopcroft-Karp
        solve of this matcher's own adjacency."""
        return _unit_optimum(stream, self.ptr, self.idx)[1]

    def join(self, node: int) -> None:
        """Add a free node (its vertex has arrived) and keep the matching maximum.

        The matching was maximum before, so every augmenting path now
        starts at ``node`` and ends at a free node of the other side.  The
        search's first round reads the node's arrived neighbours, a view of
        its slice, and matches the first free one in slice order; only if
        none is free does ``_augment`` go on from them.
        """
        n = self.n
        side = int(node >= n)
        self.free[side] += 1
        u, off = (node - n, 0) if side else (node, n)  # off: vertex 0's node on the other side
        k = int(self.count[u])
        if not (k and self.free[1 - side]):
            return
        a = int(self.ptr[u])
        nbrs = self.idx[a : a + k]  # a view of the adjacency: read, never written
        open_ = self.mate[off : off + n][nbrs] < 0
        i = int(open_.argmax())
        if open_[i]:
            partner = int(nbrs[i]) + off
            self.mate[node] = partner
            self.mate[partner] = node
        elif not self._augment(node, nbrs + off):
            return
        self.free[0] -= 1
        self.free[1] -= 1
        self.size += 1

    def _augment(self, root: int, tgt: np.ndarray) -> bool:
        """Search one augmenting path from ``root``, whose neighbours ``tgt``
        on the other side are all matched, and flip it if found.

        Breadth-first over whole frontiers, the first being the mates of
        ``tgt``: a free neighbour ends the search; otherwise the frontier
        moves on to the mates of the neighbours not yet seen.
        """
        self.searches += 1
        stamp = self.searches
        n, mate, seen, slot = self.n, self.mate, self.seen, self.slot
        off = n if root < n else 0  # node id of vertex 0 on the side opposite the root
        # a row's own column joins only after this search (a path into it
        # would skip its own search and leave the matching short); a column
        # root marks itself
        seen[root + off] = stamp
        seen[tgt] = stamp
        self.parent[tgt] = root
        frontier = mate[tgt]
        while True:
            base = frontier % n
            cand, ends = _gather(self.ptr, self.idx, base, self.count[base])
            cand += off
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


def prefix_optimal_values(stream: InstanceStream) -> np.ndarray:
    """Offline optimum after each arrival, from one solver kept across arrivals.

    The returned number is simultaneously the minimum fractional cover and
    the maximum fractional matching: the two coincide for bipartite
    instances (integrality plus duality) and for general ones (double
    cover).  Each arrival is ``add``-ed to the weight class's solver and
    its exact integer value U read and rounded once.

    Weighted, a ``_KeptTrees`` steps every arrival, and its kept cut
    certifies each U, in units of 1/(2 den).  Unit, a ``_GrowingMatching``
    counts U in halves, and arrival v raises it by at most 2 (the old cover
    plus y_v = 1), so once the whole stream's value A is known, a prefix
    with U = A or with A - U = 2 (n - v - 1), the most the later arrivals
    may add, fixes every later value: the same U, or U plus 2 per later
    arrival.  A is bought, one certified Hopcroft-Karp solve, right after
    the first arrival whose join searched; from then on each arrival checks
    the two cases.  At every prefix the value equals what a from-scratch
    ``fractional_optima_general`` solve returns.
    """
    n = len(stream)
    vals = np.zeros(n)
    if not stream.is_unit_weight():
        net = _KeptTrees(stream)
        for ev in stream:
            net.add(ev)
            vals[ev.id] = _to_float(net.units(), 2 * net.den)
        return vals
    matcher = _GrowingMatching(stream)
    anchor = None
    for ev in stream:
        v = ev.id
        matcher.add(ev)
        units = matcher.units()
        vals[v] = units / 2
        if anchor is None and matcher.searches:
            anchor = matcher.whole(stream)
        if anchor is None:
            continue
        gap, rest = anchor - units, 2 * (n - v - 1)
        if not 0 <= gap <= rest:
            raise ValidationError(f"{v + 1} arrivals: prefix optimum out of the anchor's reach")
        if gap == 0:
            vals[v + 1 :] = vals[v]
            break
        if gap == rest:
            vals[v + 1 :] = vals[v] + np.arange(1, n - v)
            break
    return vals


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
