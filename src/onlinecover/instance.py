"""Online-arrival instances: data model, line-based file format, generators.

An instance is an ordered list of vertex events.  Each event reveals only
edges to previously arrived vertices, so neighbor ids are always smaller
than the event id.  The first ``offline_count`` events form the offline
set and carry no edges among themselves.  Streams are immutable after
construction and safe to share across concurrent runs; generators are
pure functions of their parameters and seed.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError


def has_repeats(values: np.ndarray) -> bool:
    """Whether an integer array holds some value twice.

    Sorts and compares neighbours: ``np.unique`` answers the same but, on
    int64 under numpy 2.4, takes a hashing path many times slower.
    """
    s = np.sort(values)
    return bool(np.any(s[1:] == s[:-1]))


class Side(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    UNLABELED = "-"


# side code per vertex in ``InstanceStream.side_codes``
SIDE_CODES = {Side.LEFT: 0, Side.RIGHT: 1, Side.UNLABELED: -1}

# largest stream a ski-rental spec may reduce to, and the largest an
# adversary budget may emit
MAX_ARRIVALS = 1_000_000


@dataclass(frozen=True)
class VertexEvent:
    """One arrival: id, weight, optional bipartite side, and back-edges."""

    id: int
    weight: float
    side: Side
    neighbors: np.ndarray

    def __post_init__(self):
        # a read-only view: the stream cannot be written through, the
        # caller's own array stays writeable
        nbrs = np.asarray(self.neighbors, dtype=np.int64).view()
        nbrs.flags.writeable = False
        object.__setattr__(self, "neighbors", nbrs)
        if self.weight < 0.0 or not math.isfinite(self.weight):
            raise ValidationError(f"event {self.id}: weight must be finite and >= 0")
        if nbrs.size:
            if nbrs.min() < 0 or nbrs.max() >= self.id:
                raise ValidationError(
                    f"event {self.id}: neighbors must reference earlier arrivals"
                )
            if has_repeats(nbrs):
                raise ValidationError(f"event {self.id}: duplicate neighbor")

    def degree(self) -> int:
        return int(self.neighbors.size)


@dataclass(frozen=True)
class InstanceStream:
    """Ordered arrival events plus the size of the offline prefix.

    Construction validates the stream as a whole and builds its read-only
    per-vertex arrays once: ``weights()``, ``side_codes`` (``SIDE_CODES``)
    and ``edge_offsets``, where arrival v's back-edges are edges
    ``edge_offsets[v]`` to ``edge_offsets[v + 1]`` in reveal order.  Edges
    stay in their events; ``edge_arrays`` builds a flat cut on demand.
    The codes are int64, not int8: numpy ops on a dtype the rest of a run
    never touches add to its peak resident memory.
    """

    events: tuple[VertexEvent, ...]
    offline_count: int
    description: str = ""
    side_codes: np.ndarray = field(init=False, repr=False, compare=False)
    edge_offsets: np.ndarray = field(init=False, repr=False, compare=False)
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        n = len(events)
        if not (0 <= self.offline_count <= n):
            raise ValidationError("offline_count out of range")
        codes = np.fromiter((SIDE_CODES[ev.side] for ev in events), np.int64, n)
        for i, ev in enumerate(events):
            if ev.id != i:
                raise ValidationError(
                    f"event ids must be consecutive from 0, got {ev.id} at {i}", event=i
                )
            if not ev.neighbors.size:
                continue
            if i < self.offline_count:
                raise ValidationError(f"offline event {i} must have no neighbors", event=i)
            if ev.side is not Side.UNLABELED:
                same = codes[ev.neighbors] == codes[i]
                if same.any():
                    raise ValidationError(
                        f"edge ({ev.neighbors[same.argmax()]}, {i}) joins two "
                        f"{ev.side.value}-side vertices",
                        event=i,
                    )
        sizes = (ev.neighbors.size for ev in events)
        offsets = np.fromiter(itertools.accumulate(sizes, initial=0), np.int64, n + 1)
        weights = np.fromiter((ev.weight for ev in events), float, n)
        # the level solve sums neighbour weights, which must stay finite;
        # a Python float sum overflows to inf without a numpy warning
        if math.isinf(sum(weights.tolist())):
            i = next(i for i, t in enumerate(itertools.accumulate(weights.tolist()))
                     if math.isinf(t))
            raise ValidationError(f"event {i}: total weight overflows the float range", event=i)
        for name, a in (("side_codes", codes), ("edge_offsets", offsets), ("_weights", weights)):
            a.flags.writeable = False  # shared by every run of the stream
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return len(self.events)

    def weights(self) -> np.ndarray:
        return self._weights

    def sides(self) -> list[Side]:
        return [ev.side for ev in self.events]

    def has_side_labels(self) -> bool:
        return bool(np.all(self.side_codes >= 0))

    def is_unit_weight(self) -> bool:
        return bool(np.all(self._weights == 1.0))

    def edge_arrays(self, upto: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Flat (earlier endpoint, arriving endpoint) arrays in reveal order.

        Only the edges of the first ``upto`` arrivals (all by default).
        """
        n = len(self) if upto is None else upto
        if not self.edge_offsets[n]:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        us = np.concatenate([ev.neighbors for ev in self.events[:n]])
        vs = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.edge_offsets[: n + 1]))
        return us, vs

    def edge_count(self) -> int:
        return int(self.edge_offsets[-1])


# -------------------------------------------------------------- file format


def serialize_instance(stream: InstanceStream) -> str:
    """Text form: `offline <count>`, then one line per event.

    Weights are printed with 17 significant digits so that parsing a
    serialized stream reproduces its floats bit-exactly.
    """
    lines = [f"offline {stream.offline_count}"]
    for ev in stream.events:
        nbrs = " ".join(str(int(u)) for u in ev.neighbors)
        line = f"{ev.id} {ev.weight:.17g} {ev.side.value} {ev.degree()}"
        lines.append(f"{line} {nbrs}" if nbrs else line)
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> InstanceStream:
    """Parse the line format; ParseError carries the offending line number.

    A fault of the stream as a whole names the line of the event it
    rejects, or the header line for an offline count beyond the events.
    """
    events: list[VertexEvent] = []
    event_lines: list[int] = []
    offline_count: int | None = None
    header_line = 1
    expected_id = 0
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
        if vid != expected_id:
            raise ParseError(line_no, f"expected id {expected_id}, got {vid}")
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
        try:
            events.append(VertexEvent(vid, weight, side, nbrs))
        except ValidationError as exc:
            raise ParseError(line_no, str(exc)) from None
        event_lines.append(line_no)
        expected_id += 1
    if offline_count is None:
        raise ParseError(1, "empty input: missing `offline <count>` header")
    try:
        return InstanceStream(tuple(events), offline_count)
    except ValidationError as exc:
        line_no = header_line if exc.event is None else event_lines[exc.event]
        raise ParseError(line_no, str(exc)) from None


# -------------------------------------------------------------- generators


def gen_triangular(n: int) -> InstanceStream:
    """n offline left vertices, then n online rights of shrinking degree.

    The i-th online vertex (1-based) neighbors the first n+1-i lefts, so a
    perfect matching always exists while early onlines see many choices.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    events = [VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.int64)) for i in range(n)]
    for i in range(1, n + 1):
        events.append(
            VertexEvent(n + i - 1, 1.0, Side.RIGHT, np.arange(n + 1 - i, dtype=np.int64))
        )
    return InstanceStream(tuple(events), n, description=f"triangular n={n}")


def gen_two_phase_matching_hard(n: int) -> InstanceStream:
    """Two-alternation matching-hard family with maximum matching 2n.

    Offline block of n lefts; 2n rights (first n complete to the lefts,
    last n triangular to them); then n more lefts triangular to the first
    n rights.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    events = [VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.int64)) for i in range(n)]
    for j in range(n):
        events.append(
            VertexEvent(n + j, 1.0, Side.RIGHT, np.arange(n, dtype=np.int64))
        )
    for i in range(1, n + 1):
        events.append(
            VertexEvent(2 * n + i - 1, 1.0, Side.RIGHT, np.arange(n + 1 - i, dtype=np.int64))
        )
    for i in range(1, n + 1):
        events.append(
            VertexEvent(
                3 * n + i - 1,
                1.0,
                Side.LEFT,
                np.arange(n, n + (n + 1 - i), dtype=np.int64),
            )
        )
    return InstanceStream(tuple(events), n, description=f"two-phase n={n}")


def gen_complete_bipartite(d: int, m: int) -> InstanceStream:
    """d offline lefts; m online rights each adjacent to every left."""
    if d < 1 or m < 1:
        raise ValidationError("d and m must be >= 1")
    events = [VertexEvent(i, 1.0, Side.LEFT, np.empty(0, np.int64)) for i in range(d)]
    for j in range(m):
        events.append(VertexEvent(d + j, 1.0, Side.RIGHT, np.arange(d, dtype=np.int64)))
    return InstanceStream(tuple(events), d, description=f"complete-bipartite {d}x{m}")


RANDOM_MODES = ("general", "bipartite_one_sided", "bipartite_alternating")


def gen_random(n: int, p: float, seed: int, mode: str = "general") -> InstanceStream:
    """Seeded random arrival stream; each eligible back-edge appears w.p. p.

    Modes: ``general`` (no sides), ``bipartite_one_sided`` (first half
    offline lefts, rest online rights), ``bipartite_alternating`` (sides
    alternate by arrival parity, all online).
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValidationError("p must lie in [0, 1]")
    if mode not in RANDOM_MODES:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {', '.join(RANDOM_MODES)}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    events: list[VertexEvent] = []
    offline_count = 0
    if mode == "general":
        sides = [Side.UNLABELED] * n
    elif mode == "bipartite_one_sided":
        offline_count = (n + 1) // 2
        sides = [Side.LEFT] * offline_count + [Side.RIGHT] * (n - offline_count)
    else:
        sides = [Side.LEFT if i % 2 == 0 else Side.RIGHT for i in range(n)]
    for i in range(n):  # each arrival's candidates only when it comes: O(n + E) memory
        if mode == "general":
            cand = np.arange(i, dtype=np.int64)
        elif mode == "bipartite_one_sided":
            cand = np.arange(offline_count if i >= offline_count else 0, dtype=np.int64)
        else:  # the earlier arrivals of the other parity
            cand = np.arange((i + 1) % 2, i, 2, dtype=np.int64)
        mask = rng.random(cand.size) < p
        events.append(VertexEvent(i, 1.0, sides[i], cand[mask]))
    return InstanceStream(
        tuple(events), offline_count, description=f"random n={n} p={p} seed={seed} mode={mode}"
    )


# -------------------------------------------------------------- ski rental


@dataclass(frozen=True)
class SkiRentalSpec:
    """Multislope rent-or-buy: states with buy cost b_i and rent rate r_i.

    A spec whose reduction exceeds ``MAX_ARRIVALS`` arrivals is
    rejected with a ValidationError.
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
        if bs[0] != 0.0:
            raise ValidationError("first buy cost must be 0")
        if any(b2 < b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValidationError("buy costs must be nondecreasing")
        if any(r2 > r1 for r1, r2 in zip(rs, rs[1:])):
            raise ValidationError("rent rates must be nonincreasing")
        if rs[-1] < 0.0 or any(r < 0.0 for r in rs) or any(b < 0.0 for b in bs):
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
    carries a large sentinel weight (1e12 times the largest finite weight
    in the instance).  Interval q contributes n online vertices: the k-th
    has weight (r_k - r_{k+1}) * eps and neighbors the first k lefts.
    """
    n = spec.n_states
    bs = [b for b, _ in spec.states]
    rs = [r for _, r in spec.states] + [0.0]
    left_w = [bs[i + 1] - bs[i] for i in range(n - 1)]
    online_w = [(rs[k] - rs[k + 1]) * spec.epsilon for k in range(n)]
    finite = [w for w in left_w + online_w if w > 0.0]
    sentinel = 1e12 * (max(finite) if finite else 1.0)
    left_w.append(sentinel)

    events = [
        VertexEvent(i, left_w[i], Side.LEFT, np.empty(0, np.int64)) for i in range(n)
    ]
    q_total = spec.intervals()
    vid = n
    for _q in range(q_total):
        for k in range(1, n + 1):
            events.append(
                VertexEvent(vid, online_w[k - 1], Side.RIGHT, np.arange(k, dtype=np.int64))
            )
            vid += 1
    return InstanceStream(
        tuple(events),
        n,
        description=(
            f"ski-rental n={n} eps={spec.epsilon} t_end={spec.t_end} "
            f"sentinel_vertex={n - 1}"
        ),
    )


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
