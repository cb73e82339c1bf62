"""Online-arrival instances: data model, line-based file format, generators.

An instance is an ordered list of vertex arrivals.  Each arrival reveals
only edges to previously arrived vertices, so neighbor ids are always
smaller than the arrival's id.  The first ``offline_count`` arrivals form
the offline set and carry no edges among themselves.  A stream is stored
as columns (a CSR in arrival order) and validated in one vectorised pass
when it is built; events are built from its columns on demand, with
read-only neighbours.  Streams are immutable after construction and safe
to share across concurrent runs; generators are pure functions of their
parameters and seed.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParseError, ValidationError


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    UNLABELED = "-"


# side code per vertex in ``InstanceStream.side_codes``
SIDE_CODES = {Side.LEFT: 0, Side.RIGHT: 1, Side.UNLABELED: -1}
_SIDE_OF = {code: side for side, code in SIDE_CODES.items()}
_L, _R = SIDE_CODES[Side.LEFT], SIDE_CODES[Side.RIGHT]

# largest stream a generator may build, a ski-rental spec reduce to, and
# an adversary budget emit
MAX_ARRIVALS = 1_000_000


class VertexEvent(NamedTuple):
    """One arrival: id, weight, optional bipartite side, and back-edges.

    A plain record; ``InstanceStream.from_events`` checks hand-built ones.
    """

    id: int
    weight: float
    side: Side
    neighbors: np.ndarray


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry, or the mask's length if there is none."""
    return int(mask.argmax()) if mask.any() else mask.size


@dataclass(frozen=True, eq=False)
class InstanceStream:
    """The arrivals as read-only columns, plus the size of the offline prefix.

    Arrival v has weight ``weights[v]``, side code ``side_codes[v]``
    (``SIDE_CODES``) and the back-edges ``neighbors[edge_offsets[v]:
    edge_offsets[v + 1]]`` in reveal order.  Construction validates the
    columns in one vectorised pass, the package's only validator; each
    check reports its first offending arrival in ``ValidationError.event``.
    ``neighbors`` is int32; the side codes and offsets are int64, not
    narrower: numpy ops on a dtype the rest of a run never touches add to
    its peak resident memory.
    """

    weights: np.ndarray
    side_codes: np.ndarray
    edge_offsets: np.ndarray
    neighbors: np.ndarray
    offline_count: int

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        codes = np.asarray(self.side_codes, dtype=np.int64)
        off = np.asarray(self.edge_offsets, dtype=np.int64)
        nbrs = np.asarray(self.neighbors)  # an empty list is float64
        n, e = weights.size, nbrs.size
        deg = np.diff(off)
        if not (codes.shape == (n,) and off.shape == (n + 1,) and off[0] == 0 and off[-1] == e
                and np.all(deg >= 0) and np.all(np.abs(codes) <= 1)):
            raise ValidationError("stream columns do not fit together")
        # the temporaries are kept to a few bytes per edge: a stream's
        # validation must not set its run's peak resident memory
        ids = np.repeat(np.arange(n, dtype=np.int32), deg)  # each edge's arrival
        # per arrival, in this order: its weight, its neighbours' range, a repeat
        bad = [_first(~(np.isfinite(weights) & (weights >= 0.0)))]
        ok = (nbrs >= 0) & (nbrs < ids)  # a NaN is out of range too
        if nbrs.dtype.kind == "f":
            ok &= nbrs == np.trunc(nbrs)  # 0.7 is no arrival's id, not arrival 0
        i = _first(~ok)
        bad.append(int(ids[i]) if i < e else n)
        nbrs = nbrs.astype(np.int32, copy=False)  # exact below the first arrival with a fault
        # a repeat, among the arrivals before both faults, whose neighbours are
        # in range: one sort of v * n + neighbour keys finds the first
        k = int(off[min(bad)])
        keys = ids[:k].astype(np.int32 if n * n < 2**31 else np.int64)
        keys *= n
        keys += nbrs[:k]
        keys.sort()
        i = _first(keys[1:] == keys[:-1])
        bad.append(int(keys[i] // n) if i < k - 1 else n)
        v = min(bad)
        if v < n:
            faults = ("weight must be finite and >= 0",
                      "neighbors must reference earlier arrivals", "duplicate neighbor")
            raise ValidationError(f"event {v}: {faults[bad.index(v)]}", event=v)
        if not (0 <= self.offline_count <= n):
            raise ValidationError("offline_count out of range")
        if off[self.offline_count]:  # then the first arrival with an edge is offline
            v = int(ids[0])
            raise ValidationError(f"offline event {v} must have no neighbors", event=v)
        left, right = codes == _L, codes == _R
        i = _first((left[ids] & left[nbrs]) | (right[ids] & right[nbrs]))
        if i < e:
            v = int(ids[i])
            raise ValidationError(
                f"edge ({nbrs[i]}, {v}) joins two {_SIDE_OF[int(codes[v])].value}-side vertices",
                event=v,
            )
        # the level solve sums neighbour weights, which must stay finite; the
        # running sum finds the first arrival at which the total overflows
        with np.errstate(over="ignore"):
            v = _first(np.isinf(np.cumsum(weights)))
        if v < n:
            raise ValidationError(f"event {v}: total weight overflows the float range", event=v)
        for name, a in zip(("weights", "side_codes", "edge_offsets", "neighbors"),
                           (weights, codes, off, nbrs)):
            a = a.view()  # the caller's own array stays writeable
            a.flags.writeable = False  # shared by every run of the stream
            object.__setattr__(self, name, a)

    @classmethod
    def from_events(cls, events: Iterable[VertexEvent], offline_count: int) -> "InstanceStream":
        """The stream of hand-built events numbered 0, 1, 2, ...: one concatenation."""
        events = list(events)
        for i, ev in enumerate(events):
            if ev.id != i:
                raise ValidationError(
                    f"event ids must be consecutive from 0, got {ev.id} at {i}", event=i
                )
        nbrs = [np.asarray(ev.neighbors) for ev in events]  # int32 ones stay int32
        return cls(
            np.fromiter((ev.weight for ev in events), float, len(events)),
            np.fromiter((SIDE_CODES[ev.side] for ev in events), np.int64, len(events)),
            _offsets([a.size for a in nbrs]),
            np.concatenate(nbrs) if events else np.zeros(0, dtype=np.int64),
            offline_count,
        )

    def __len__(self) -> int:
        return self.weights.size

    def _event(self, v: int, weight: float, code: int, lo: int, hi: int) -> VertexEvent:
        """Arrival v; its neighbours are a read-only intp copy of its slice
        of ``neighbors``: numpy converts int32 indices on every use, which
        costs a run's steps more than one copy per event."""
        nbrs = self.neighbors[lo:hi].astype(np.intp)
        nbrs.flags.writeable = False
        return VertexEvent(v, weight, _SIDE_OF[code], nbrs)

    def __iter__(self) -> Iterator[VertexEvent]:
        """The arrivals in order, their columns read as Python numbers once."""
        off = self.edge_offsets.tolist()
        return map(self._event, range(len(self)), self.weights.tolist(),
                   self.side_codes.tolist(), off[:-1], off[1:])

    def has_side_labels(self) -> bool:
        return bool(np.all(self.side_codes >= 0))

    def is_unit_weight(self) -> bool:
        return bool(np.all(self.weights == 1.0))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (earlier endpoint, arriving endpoint) arrays in reveal order."""
        vs = np.repeat(np.arange(len(self), dtype=np.int32), np.diff(self.edge_offsets))
        return self.neighbors, vs

    def edge_count(self) -> int:
        return int(self.edge_offsets[-1])


def _offsets(degrees) -> np.ndarray:
    """``edge_offsets`` of arrivals with the given degrees."""
    return np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))


def _ranges(starts, off: np.ndarray) -> np.ndarray:
    """The neighbour column in which arrival v's back-edges are ``starts[v]``,
    ``starts[v] + 1``, ..., as many as ``off`` gives it."""
    nbrs = np.arange(off[-1], dtype=np.int32)
    nbrs += np.repeat((starts - off[:-1]).astype(np.int32), np.diff(off))
    return nbrs


# -------------------------------------------------------------- file format


def serialize_instance(stream: InstanceStream) -> str:
    """Text form: `offline <count>`, then one line per event.

    Weights are printed with 17 significant digits so that parsing a
    serialized stream reproduces its floats bit-exactly.
    """
    lines = [f"offline {stream.offline_count}"]
    for ev in stream:
        line = f"{ev.id} {ev.weight:.17g} {ev.side.value} {ev.neighbors.size}"
        lines.append(" ".join([line, *map(str, ev.neighbors.tolist())]))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceStream:
    """Parse the line format; ParseError carries the offending line number.

    A fault the stream's validation finds names the line of the event it
    rejects, or the header line for an offline count beyond the events.
    """
    events: list[VertexEvent] = []
    event_lines: list[int] = []
    offline_count: int | None = None
    header_line = 1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if offline_count is None:
            if tokens[0] != "offline" or len(tokens) != 2:
                raise ParseError(line_no, "expected header `offline <count>`")
            try:
                offline_count = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"bad offline count {tokens[1]!r}") from None
            if offline_count < 0:
                raise ParseError(line_no, "offline count must be >= 0")
            header_line = line_no
            continue
        if len(tokens) < 4:
            raise ParseError(line_no, "event line needs `<id> <weight> <side> <deg> ...`")
        try:
            vid = int(tokens[0])
            weight = float(tokens[1])
            deg = int(tokens[3])
        except ValueError as exc:
            raise ParseError(line_no, str(exc)) from None
        if vid != len(events):
            raise ParseError(line_no, f"expected id {len(events)}, got {vid}")
        try:
            side = Side(tokens[2])
        except ValueError:
            raise ParseError(line_no, f"side must be L, R or -, got {tokens[2]!r}") from None
        nbr_tokens = tokens[4:]
        if len(nbr_tokens) != deg:
            raise ParseError(line_no, f"declared degree {deg} but {len(nbr_tokens)} neighbors")
        try:
            nbrs = np.array([int(t) for t in nbr_tokens], dtype=np.int64)
        except (ValueError, OverflowError) as exc:  # not an integer, or beyond int64
            raise ParseError(line_no, str(exc)) from None
        events.append(VertexEvent(vid, weight, side, nbrs))
        event_lines.append(line_no)
    if offline_count is None:
        raise ParseError(1, "empty input: missing `offline <count>` header")
    try:
        return InstanceStream.from_events(events, offline_count)
    except ValidationError as exc:
        line_no = header_line if exc.event is None else event_lines[exc.event]
        raise ParseError(line_no, str(exc)) from None


# -------------------------------------------------------------- generators


def _check_size(arrivals: int, *sizes: int) -> None:
    if min(sizes) < 1:
        raise ValidationError(f"generator sizes must be >= 1, got {', '.join(map(str, sizes))}")
    if arrivals > MAX_ARRIVALS:
        raise ValidationError(f"generator would build {arrivals} arrivals, more than {MAX_ARRIVALS}")


def gen_triangular(n: int) -> InstanceStream:
    """n offline left vertices, then n online rights of shrinking degree.

    The i-th online vertex (1-based) neighbors the first n+1-i lefts, so a
    perfect matching always exists while early onlines see many choices.
    """
    _check_size(2 * n, n)
    off = _offsets(np.concatenate((np.zeros(n, dtype=np.int64), np.arange(n, 0, -1))))
    return InstanceStream(np.ones(2 * n), np.repeat([_L, _R], n), off, _ranges(0, off), n)


def gen_two_phase_matching_hard(n: int) -> InstanceStream:
    """Two-alternation matching-hard family with maximum matching 2n.

    Offline block of n lefts; 2n rights (first n complete to the lefts,
    last n triangular to them); then n more lefts triangular to the first
    n rights.
    """
    _check_size(4 * n, n)
    shrinking = np.arange(n, 0, -1)
    off = _offsets(np.concatenate((np.zeros(n, dtype=np.int64), np.full(n, n), shrinking,
                                   shrinking)))
    nbrs = _ranges(np.repeat([0, n], [3 * n, n]), off)
    return InstanceStream(np.ones(4 * n), np.repeat([_L, _R, _L], [n, 2 * n, n]), off, nbrs, n)


def gen_complete_bipartite(d: int, m: int) -> InstanceStream:
    """d offline lefts; m online rights each adjacent to every left."""
    _check_size(d + m, d, m)
    off = _offsets(np.repeat([0, d], [d, m]))
    return InstanceStream(np.ones(d + m), np.repeat([_L, _R], [d, m]), off, _ranges(0, off), d)


RANDOM_MODES = ("general", "bipartite_one_sided", "bipartite_alternating")


def gen_random(n: int, p: float, seed: int, mode: str = "general") -> InstanceStream:
    """Seeded random arrival stream; each eligible back-edge appears w.p. p.

    Modes: ``general`` (no sides), ``bipartite_one_sided`` (first half
    offline lefts, rest online rights), ``bipartite_alternating`` (sides
    alternate by arrival parity, all online).
    """
    _check_size(n, n)
    if not (0.0 <= p <= 1.0):
        raise ValidationError("p must lie in [0, 1]")
    if mode not in RANDOM_MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {', '.join(RANDOM_MODES)}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    offline_count = 0
    if mode == "general":
        codes = np.full(n, SIDE_CODES[Side.UNLABELED])
    elif mode == "bipartite_one_sided":
        offline_count = (n + 1) // 2
        codes = np.repeat([_L, _R], [offline_count, n - offline_count])
    else:
        codes = np.where(np.arange(n) % 2 == 0, _L, _R)
    chosen = []
    for i in range(n):  # each arrival's candidates only when it comes: O(n + E) memory
        if mode == "general":
            cand = np.arange(i, dtype=np.int32)
        elif mode == "bipartite_one_sided":
            cand = np.arange(offline_count if i >= offline_count else 0, dtype=np.int32)
        else:  # the earlier arrivals of the other parity
            cand = np.arange((i + 1) % 2, i, 2, dtype=np.int32)
        chosen.append(cand[rng.random(cand.size) < p])
    off = _offsets([a.size for a in chosen])
    return InstanceStream(np.ones(n), codes, off, np.concatenate(chosen), offline_count)


# -------------------------------------------------------------- ski rental


@dataclass(frozen=True)
class SkiRentalSpec:
    """Multislope rent-or-buy: states with buy cost b_i and rent rate r_i.

    Costs must be finite, and a spec whose reduction exceeds
    ``MAX_ARRIVALS`` arrivals is rejected, both with a ValidationError.
    """

    states: tuple[tuple[float, float], ...]
    epsilon: float
    t_end: float

    def __post_init__(self):
        object.__setattr__(self, "states", tuple((float(b), float(r)) for b, r in self.states))
        if not self.states:
            raise ValidationError("at least one state required")
        bs = [b for b, _ in self.states]
        rs = [r for _, r in self.states]
        # NaN passes every comparison below as false, so it is caught here
        if not all(map(math.isfinite, bs + rs)):
            raise ValidationError(f"buy costs and rent rates must be finite, got {bs} and {rs}")
        if bs[0] != 0.0:
            raise ValidationError("first buy cost must be 0")
        if any(b2 < b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValidationError("buy costs must be nondecreasing")
        if any(r2 > r1 for r1, r2 in zip(rs, rs[1:])):
            raise ValidationError("rent rates must be nonincreasing")
        # buy costs start at 0 and never fall; rents never rise, so the last is the least
        if rs[-1] < 0.0:
            raise ValidationError("costs must be >= 0")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValidationError("epsilon must be finite and > 0")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValidationError("t_end must be finite and > 0")
        # n lefts plus n arrivals per interval; the ratio alone may be inf
        ratio = self.t_end / self.epsilon
        if (
            ratio > MAX_ARRIVALS
            or self.n_states * (1 + self.intervals()) > MAX_ARRIVALS
        ):
            raise ValidationError(
                f"t_end / epsilon = {ratio:.3g} with {self.n_states} states reduces to "
                f"more than {MAX_ARRIVALS} arrivals"
            )

    @property
    def n_states(self) -> int:
        return len(self.states)

    def intervals(self) -> int:
        return int(math.ceil(self.t_end / self.epsilon))


def reduce_ski_rental(spec: SkiRentalSpec) -> InstanceStream:
    """Rewrite a multislope spec as weighted one-sided bipartite cover.

    Left vertex i carries the marginal buy cost between consecutive
    states; the last left stands in for the never-buyable top state and
    carries a large sentinel weight (1e12 times the largest positive weight
    in the instance).  Interval q contributes n online vertices: the k-th
    has weight (r_k - r_{k+1}) * eps and neighbors the first k lefts.  A
    reduced weight or sentinel that overflows is a ValidationError.
    """
    n = spec.n_states
    bs = [b for b, _ in spec.states]
    rs = [r for _, r in spec.states] + [0.0]
    left_w = [bs[i + 1] - bs[i] for i in range(n - 1)]
    online_w = [(rs[k] - rs[k + 1]) * spec.epsilon for k in range(n)]
    if not all(map(math.isfinite, online_w)):
        raise ValidationError(f"reduced weight (r_k - r_k+1) * epsilon overflows: {online_w}")
    positive = [w for w in left_w + online_w if w > 0.0]
    sentinel = 1e12 * (max(positive) if positive else 1.0)
    if not math.isfinite(sentinel):
        raise ValidationError(f"sentinel weight 1e12 * {max(positive):g} overflows")
    left_w.append(sentinel)

    # each interval repeats one block of n arrivals
    q_total = spec.intervals()
    degrees = np.tile(np.arange(1, n + 1), q_total)
    off = _offsets(np.concatenate((np.zeros(n, dtype=np.int64), degrees)))
    weights = np.concatenate((left_w, np.tile(online_w, q_total)))
    return InstanceStream(weights, np.repeat([_L, _R], [n, n * q_total]), off, _ranges(0, off), n)


def ski_rental_strategy_optimum(spec: SkiRentalSpec) -> float:
    """Best offline cost over final states and single switch times.

    Strategies start in the cheapest state and may switch once at an
    interval boundary; with nondecreasing buy costs and nonincreasing
    rents, multi-switch strategies are dominated by these.
    """
    q_total = spec.intervals()
    rs = [r for _, r in spec.states]
    bs = [b for b, _ in spec.states]
    best = math.inf
    for f in range(spec.n_states):
        for q in range(q_total + 1):
            cost = bs[f] + spec.epsilon * (q * rs[0] + (q_total - q) * rs[f])
            best = min(best, cost)
    return best
