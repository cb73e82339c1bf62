"""Tests for the instance model, file format, and generators."""

import hashlib
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import onlinecover
from onlinecover.errors import ParseError, ValidationError
from onlinecover.harness import AdversaryBudget, adaptive_adversary_vc, resolve_allocation
from onlinecover.instance import (
    MAX_ARRIVALS,
    RANDOM_MODES,
    SIDE_CODES,
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    parse_instance,
    reduce_ski_rental,
    serialize_instance,
    ski_rental_strategy_optimum,
)
from onlinecover.oracle import static_from_stream


def edges_of(stream):
    u, v = stream.edge_arrays()
    return list(zip(u.tolist(), v.tolist()))


# ---------------------------------------------------------------- format


def test_parse_minimal_graph():
    s = parse_instance("offline 0\n0 1.0 - 0\n1 1.0 - 1 0\n")
    assert len(s) == 2
    assert s.offline_count == 0
    assert edges_of(s) == [(0, 1)]


def test_parse_bipartite_with_offline():
    s = parse_instance("offline 1\n0 1.0 L 0\n1 1.0 R 1 0\n")
    assert s.offline_count == 1
    assert [ev.side for ev in s] == [Side.LEFT, Side.RIGHT]


def test_parse_forward_edge_rejected():
    with pytest.raises(ParseError):
        parse_instance("0 1.0 - 1 1")
    with pytest.raises(ParseError):
        parse_instance("offline 0\n0 1.0 - 1 1\n")


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_instance("offline 0\n0 1.0 - 0\n1 spam - 0\n")
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "text",
    [
        "",  # missing header
        "offline -1\n",
        "offline 0\n0 1.0 X 0\n",  # bad side
        "offline 0\n0 1.0 - 2 0\n",  # degree mismatch
        "offline 0\n0 -1.0 - 0\n",  # negative weight
        "offline 0\n5 1.0 - 0\n",  # non-consecutive id
        "offline 0\n0 1.0 - 0\n1 1.0 - 2 0 0\n",  # duplicate neighbor
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_instance(text)


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        # one case per InstanceStream check; comments shift the line numbers
        ("# two offline\noffline 2\n0 1 L 0\n", 2, "offline_count out of range"),
        ("offline 0\n0 1 - 0\n\n2 1 - 0\n", 4, "expected id 1"),
        ("offline 2\n0 1 L 0\n# next\n1 1 R 1 0\n", 4, "offline event 1 must have no neighbors"),
        ("offline 0\n0 1 L 0\n1 1 R 1 0\n2 1 R 1 1\n", 4, "joins two R-side vertices"),
        # each weight is a float, their sum is not (and no numpy warning)
        ("offline 0\n0 1.7e308 - 0\n1 0 - 0\n2 1e308 - 0\n", 4, "total weight overflows"),
    ],
)
def test_stream_faults_name_their_line(text, line_no, message):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert exc.value.line_no == line_no
    assert message in str(exc.value)


def test_stream_fault_names_its_event():
    events = (VertexEvent(0, 1.0, Side.LEFT, []), VertexEvent(1, 1.0, Side.LEFT, [0]))
    for offline, event in ((0, 1), (2, 1), (3, None)):
        with pytest.raises(ValidationError) as exc:
            InstanceStream.from_events(events, offline)
        assert exc.value.event == event
    with pytest.raises(ValidationError) as exc:
        InstanceStream.from_events(events[1:], 0)
    assert exc.value.event == 0


def test_non_integer_neighbour_is_rejected():
    """A float neighbour must be an integer id: 0.7 named no arrival, yet was
    truncated into the edge (0, 1).  Integral floats and the float64 array
    of an empty list still pass."""
    head = [VertexEvent(0, 1.0, Side.UNLABELED, [])]
    with pytest.raises(ValidationError, match="earlier arrivals") as exc:
        InstanceStream.from_events(head + [VertexEvent(1, 1.0, Side.UNLABELED, [0.7])], 0)
    assert exc.value.event == 1
    s = InstanceStream.from_events(head + [VertexEvent(1, 1.0, Side.UNLABELED, [0.0])], 0)
    assert edges_of(s) == [(0, 1)]
    assert len(InstanceStream.from_events(head, 0)) == 1


def test_iteration_builds_the_events_one_by_one_builds():
    """Each event is its arrival's columns: a float weight, its side and a
    read-only intp copy of its slice of ``neighbors``."""
    for s in (gen_random(40, 0.3, 1), gen_two_phase_matching_hard(3),
              reduce_ski_rental(SkiRentalSpec(((0.0, 2.0), (5.0, 0.0)), 1.0, 3.0))):
        events = list(s)
        assert len(events) == len(s)
        off = s.edge_offsets
        for v, a in enumerate(events):
            assert a.id == v
            assert type(a.weight) is float and a.weight == s.weights[v]
            assert SIDE_CODES[a.side] == s.side_codes[v]
            assert a.neighbors.dtype == np.intp
            assert a.neighbors.tolist() == s.neighbors[off[v] : off[v + 1]].tolist()
            assert not a.neighbors.flags.writeable


def test_parse_overflowing_neighbour_is_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse_instance("offline 0\n0 1 - 0\n1 1 - 1 99999999999999999999\n")
    assert exc.value.line_no == 3


# tokens that are valid in some field, invalid in others, or in none; the
# long integers are int64's bounds, one past them, and far beyond them
_TOKENS = st.sampled_from(
    ["0", "1", "2", "-1", "-0", "0.5", "1e-17", "1e999", "nan", "inf", "L", "R", "-", "X", "#",
     "offline", "1_0", "0x1", "9223372036854775807", "-9223372036854775808",
     "9223372036854775808", "-9223372036854775809", "99999999999999999999",
     "-99999999999999999999"]
)
_EVENT = st.tuples(
    st.sampled_from(["1", "2.5", "0", "1e-17"]),  # weight
    st.sampled_from(["L", "R", "-"]),
    st.lists(st.integers(0, 4), max_size=3, unique=True),  # back-edges, kept if earlier
)
# (line, field, token): the token replaces that field of that line (line 0
# is the header) or the whole line when the field is 6; past the line's end
# it is appended, on an event line as one more neighbour
_SWAP = st.none() | st.tuples(st.integers(0, 6), st.integers(0, 6), _TOKENS)


def _instance_text(offline, events, swap):
    lines = [["offline", str(offline)]]
    for vid, (weight, side, nbrs) in enumerate(events):
        back = [str(u) for u in nbrs if u < vid]
        lines.append([str(vid), weight, side, str(len(back)), *back])
    if swap is not None:
        line, field, token = swap
        line %= len(lines)
        fields = lines[line]
        if field == 6:
            fields[:] = [token]
        elif field < len(fields):
            fields[field] = token
        else:
            fields.append(token)
            if line:
                fields[3] = str(len(fields) - 4)
    return "\n".join(" ".join(fields) for fields in lines) + "\n"


@given(offline=st.integers(0, 2), events=st.lists(_EVENT, max_size=6), swap=_SWAP)
@settings(max_examples=500, deadline=None)
def test_parse_fuzz_round_trips_or_raises_own_error(offline, events, swap):
    """Any text either parses to a stream that survives serialize -> parse or
    raises a ParseError with its line number, never another exception."""
    try:
        s = parse_instance(_instance_text(offline, events, swap))
    except ParseError:
        return
    text = serialize_instance(s)
    s2 = parse_instance(text)
    assert serialize_instance(s2) == text
    assert s2.offline_count == s.offline_count
    assert np.array_equal(s2.side_codes, s.side_codes)
    assert np.array_equal(s2.weights.view(np.uint64), s.weights.view(np.uint64))
    assert edges_of(s2) == edges_of(s)


def reference_validate(events, offline_count):
    """The rules streams were checked by before their columnar validation:
    each event alone (weight, neighbour range, repeats), in order, then the
    stream (offline count, ids, offline edges, same-side edges, total
    weight).  Raises the ValidationError ``from_events`` must raise, naming
    the position of the event at fault."""
    for i, ev in enumerate(events):
        nbrs = np.asarray(ev.neighbors, dtype=np.int64)
        if ev.weight < 0.0 or not math.isfinite(ev.weight):
            raise ValidationError(f"event {ev.id}: weight must be finite and >= 0", event=i)
        if nbrs.size:
            if nbrs.min() < 0 or nbrs.max() >= ev.id:
                raise ValidationError(
                    f"event {ev.id}: neighbors must reference earlier arrivals", event=i
                )
            if np.unique(nbrs).size != nbrs.size:
                raise ValidationError(f"event {ev.id}: duplicate neighbor", event=i)
    if not (0 <= offline_count <= len(events)):
        raise ValidationError("offline_count out of range")
    for i, ev in enumerate(events):
        if ev.id != i:
            raise ValidationError(
                f"event ids must be consecutive from 0, got {ev.id} at {i}", event=i
            )
        if not len(ev.neighbors):
            continue
        if i < offline_count:
            raise ValidationError(f"offline event {i} must have no neighbors", event=i)
        for u in ev.neighbors:
            if ev.side is not Side.UNLABELED and events[u].side is ev.side:
                raise ValidationError(
                    f"edge ({u}, {i}) joins two {ev.side.value}-side vertices", event=i
                )
    for i, total in enumerate(itertools.accumulate(ev.weight for ev in events)):
        if math.isinf(total):
            raise ValidationError(f"event {i}: total weight overflows the float range", event=i)


@st.composite
def _event_lists(draw):
    """Consecutive ids, and every kind of fault: out-of-range, negative and
    repeated neighbours, same-side and offline edges, NaN, infinite and
    negative weights, and weights whose sum overflows."""
    events = []
    for i in range(draw(st.integers(0, 6))):
        weight = draw(st.sampled_from(
            [1.0, 1.0, 0.0, 2.5, 1e308, 1.7e308, -1.0, math.nan, math.inf, -math.inf]
        ))
        side = draw(st.sampled_from(list(Side)))
        nbrs = draw(st.lists(st.integers(-1, i + 1), max_size=3))
        events.append(VertexEvent(i, weight, side, nbrs))
    return events, draw(st.integers(-1, len(events) + 1))


@given(_event_lists())
@example(  # repeats apart in the reveal order, then side by side at a later arrival
    ([VertexEvent(i, 1.0, Side.UNLABELED, nbrs) for i, nbrs in
      enumerate([[], [0], [1, 0, 1], [0, 0]])], 0)
)
@settings(max_examples=500, deadline=None)
def test_from_events_agrees_with_the_reference_validator(case):
    """``from_events`` accepts exactly what the per-event rules accept, and
    rejects with the same message and event."""
    events, offline = case
    try:
        reference_validate(events, offline)
        expected = None
    except ValidationError as exc:
        expected = (str(exc), exc.event)
    try:
        s = InstanceStream.from_events(events, offline)
        got = None
    except ValidationError as exc:
        got = (str(exc), exc.event)
    assert got == expected
    if got is None:
        for ev, mine in itertools.zip_longest(s, events):
            assert (ev.id, ev.weight, ev.side) == (mine.id, mine.weight, mine.side)
            assert ev.neighbors.tolist() == list(mine.neighbors)


def test_comments_and_blank_lines_ignored():
    s = parse_instance("# header\noffline 0\n\n0 1.0 - 0\n# mid\n1 1.0 - 1 0\n")
    assert len(s) == 2


def test_same_side_edge_rejected():
    with pytest.raises(ValidationError):
        InstanceStream.from_events(
            (
                VertexEvent(0, 1.0, Side.LEFT, []),
                VertexEvent(1, 1.0, Side.LEFT, [0]),
            ),
            0,
        )


def test_offline_events_must_be_isolated():
    with pytest.raises(ValidationError):
        InstanceStream.from_events(
            (
                VertexEvent(0, 1.0, Side.LEFT, []),
                VertexEvent(1, 1.0, Side.LEFT, [0]),
            ),
            2,
        )


def test_stream_arrays_and_prefix_edges():
    s = gen_triangular(3)  # lefts 0-2; rights 3, 4, 5 see 3, 2, 1 lefts
    assert s.weights.tolist() == [1.0] * 6
    assert s.side_codes.tolist() == [0, 0, 0, 1, 1, 1]
    assert s.edge_offsets.tolist() == [0, 0, 0, 0, 3, 5, 6]
    prefix = static_from_stream(s, 5).edge_arrays()
    assert edges_of(s)[:5] == list(zip(*(a.tolist() for a in prefix)))
    assert static_from_stream(s, 3).edge_arrays()[0].size == 0


def test_stream_arrays_are_read_only():
    """Runs share a stream, so the arrays it stores cannot be written
    through."""
    s = gen_triangular(3)
    for stored in (s.weights, s.side_codes, s.edge_offsets, s.neighbors):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 7


def test_event_neighbors_are_a_read_only_view():
    """A validated stream cannot be written through its events, and the
    array a caller built an event from stays theirs to write."""
    mine = np.array([0, 1], dtype=np.int64)
    s = InstanceStream.from_events(
        (
            VertexEvent(0, 1.0, Side.LEFT, []),
            VertexEvent(1, 1.0, Side.LEFT, []),
            VertexEvent(2, 1.0, Side.RIGHT, mine),
        ),
        2,
    )
    with pytest.raises(ValueError, match="read-only"):
        list(s)[2].neighbors[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        next(iter(s)).neighbors[:0] = 1
    assert edges_of(s) == [(0, 2), (1, 2)]
    mine[0] = 1  # raises if the caller's array was frozen too


def test_roundtrip_is_bit_exact():
    s = gen_random(20, 0.4, seed=3)
    text = serialize_instance(s)
    s2 = parse_instance(text)
    assert serialize_instance(s2) == text
    assert s2.weights.tolist() == s.weights.tolist()
    assert edges_of(s2) == edges_of(s)


def test_roundtrip_preserves_ugly_weights():
    ev = (
        VertexEvent(0, 0.1 + 0.2, Side.LEFT, []),
        VertexEvent(1, 1e-17, Side.RIGHT, [0]),
        VertexEvent(2, 123456789.123456789, Side.RIGHT, [0]),
    )
    s = InstanceStream.from_events(ev, 1)
    s2 = parse_instance(serialize_instance(s))
    assert s2.weights.tolist() == [e.weight for e in ev]


@given(n=st.integers(1, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(n, p, seed):
    s = gen_random(n, p, seed, mode="bipartite_alternating")
    s2 = parse_instance(serialize_instance(s))
    assert edges_of(s2) == edges_of(s)
    assert s2.offline_count == s.offline_count
    assert np.array_equal(s2.side_codes, s.side_codes)


def test_every_generator_roundtrips():
    streams = [
        gen_triangular(6),
        gen_two_phase_matching_hard(3),
        gen_complete_bipartite(4, 7),
        gen_random(15, 0.35, seed=5, mode="bipartite_one_sided"),
        reduce_ski_rental(
            SkiRentalSpec(states=((0.0, 3.0), (4.0, 1.0), (9.0, 0.0)), epsilon=0.5, t_end=3.0)
        ),
    ]
    for s in streams:
        s2 = parse_instance(serialize_instance(s))
        assert edges_of(s2) == edges_of(s)
        assert s2.weights.tolist() == s.weights.tolist()
        assert s2.offline_count == s.offline_count


# ---------------------------------------------------------------- generators


def test_triangular_smallest():
    s = gen_triangular(1)
    assert len(s) == 2 and s.offline_count == 1
    assert edges_of(s) == [(0, 1)]


def test_triangular_degrees_and_count():
    s = gen_triangular(3)
    assert np.diff(s.edge_offsets)[3:].tolist() == [3, 2, 1]
    assert s.edge_count() == 6  # n(n+1)/2


def test_two_phase_n1_unrolled():
    s = gen_two_phase_matching_hard(1)
    assert len(s) == 4
    assert edges_of(s) == [(0, 1), (0, 2), (1, 3)]
    assert [e.side for e in s] == [Side.LEFT, Side.RIGHT, Side.RIGHT, Side.LEFT]


def test_two_phase_n2_degree_profile():
    s = gen_two_phase_matching_hard(2)
    assert len(s) == 8
    # rights: two complete (deg 2), two triangular (deg 2, 1);
    # phase-2 lefts triangular to the first two rights (deg 2, 1)
    assert [e.neighbors.size for e in s] == [0, 0, 2, 2, 2, 1, 2, 1]
    assert edges_of(s) == [
        (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4), (0, 5),
        (2, 6), (3, 6), (2, 7),
    ]


def test_complete_bipartite_shapes():
    assert edges_of(gen_complete_bipartite(1, 1)) == [(0, 1)]
    assert gen_complete_bipartite(3, 2).edge_count() == 6


def test_random_p0_edgeless():
    assert gen_random(10, 0.0, seed=1).edge_count() == 0


def test_random_p1_complete():
    s = gen_random(4, 1.0, seed=1, mode="general")
    assert s.edge_count() == 6


# sha256 of the serialized streams of each group, pinned when every
# generator still built one event at a time
SERIALIZED_DIGESTS = {
    "triangular:1..40": "b32f6f392873885752298862ea7fb614c429b706cf8a4cee3526f9588ba77dab",
    "two-phase:1..20": "d11a8eab0d92a5864cfb617fe5448e23f77de715cf77c91b1d4dce848af93c03",
    "complete:3,7": "b1ba8ed1867bb8cba55df64835d2b789d87c545ff84d79bbe59027ed7a6af493",
    "random:60,0.2,general": "741484151441426180e9d328c7529012bafe3c8352f1518fa28a41aaaac3064a",
    "random:60,0.2,bipartite_one_sided":
        "26e8dfabea75bc99828a3ee6f4a0ac46a855ef0fd2e6f1a4d842de63360607b1",
    "random:60,0.2,bipartite_alternating":
        "3c8f4812607f5b1c2b26d60facaf4da271fe5cb39fb1557c3b410827a451e3d5",
    "ski-rental": "0c9ecd5186a766e45279fc0c4b773a923dd6166f96ef4bb32c85372343ab9994",
    "adversary:3,120": "764515091df4cef8d500174eeb35adb49ffde4121740f5a890bb2b856778da62",
}


def test_seeds_map_to_the_pinned_streams():
    """Every generator, the ski-rental reduction and the adversary still
    emit the same streams, byte for byte."""
    groups = {
        "triangular:1..40": [gen_triangular(n) for n in range(1, 41)],
        "two-phase:1..20": [gen_two_phase_matching_hard(n) for n in range(1, 21)],
        "complete:3,7": [gen_complete_bipartite(3, 7)],
        **{
            f"random:60,0.2,{mode}": [gen_random(60, 0.2, seed, mode) for seed in range(5)]
            for mode in RANDOM_MODES
        },
        "ski-rental": [reduce_ski_rental(
            SkiRentalSpec(states=((0.0, 2.0), (40.0, 1.0), (100.0, 0.0)), epsilon=1.0, t_end=200.0)
        )],
        "adversary:3,120": [adaptive_adversary_vc(
            AdversaryBudget(3, 120), "primal-dual", resolve_allocation("optimal")
        ).transcript],
    }
    for name, streams in groups.items():
        text = "".join(serialize_instance(s) for s in streams)
        assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_DIGESTS[name], name


def test_random_deterministic():
    a = gen_random(30, 0.3, seed=42)
    b = gen_random(30, 0.3, seed=42)
    assert serialize_instance(a) == serialize_instance(b)
    c = gen_random(30, 0.3, seed=43)
    assert serialize_instance(a) != serialize_instance(c)


def run_capped(limit: int, code: str) -> str:
    """Run ``code`` in a fresh interpreter with ``limit`` bytes of address space."""
    capped = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
    src = str(Path(onlinecover.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", capped + code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_random_stream_fits_in_a_gigabyte():
    """30,000 arrivals have 4.5e8 candidate back-edges, 3.6 GB as int64: the
    generator never holds them all, so it runs with 1 GiB of address space."""
    out = run_capped(1 << 30, """
from onlinecover.instance import gen_random
print(gen_random(30_000, 1e-4, 0).edge_count())
""")
    assert int(out) > 0


def test_large_ski_rental_reduces_in_384_mib():
    """990,003 arrivals with 1,980,000 edges: the columns are built by
    tiling one interval's block and validated in one pass."""
    out = run_capped(384 << 20, """
from onlinecover.instance import SkiRentalSpec, reduce_ski_rental
s = reduce_ski_rental(SkiRentalSpec(((0, 2), (40, 1), (100, 0)), 1.0, 330_000.0))
print(len(s), s.edge_count())
""")
    assert out.split() == ["990003", "1980000"]


@pytest.mark.parametrize("mode", ["bipartite_one_sided", "bipartite_alternating"])
def test_random_bipartite_modes_validate(mode):
    s = gen_random(25, 0.5, seed=9, mode=mode)
    assert s.has_side_labels()  # construction already rejects same-side edges
    if mode == "bipartite_one_sided":
        assert s.offline_count == 13
        assert s.edge_offsets[s.offline_count] == 0


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        gen_triangular(0)
    with pytest.raises(ValidationError):
        gen_random(5, 1.5, seed=0)
    with pytest.raises(ValidationError):
        gen_random(5, 0.5, seed=0, mode="spam")


# ---------------------------------------------------------------- ski rental


def classical_spec(B=100.0, eps=1.0, t_end=300.0):
    return SkiRentalSpec(states=((0.0, 1.0), (B, 0.0)), epsilon=eps, t_end=t_end)


def test_ski_rental_classical_weights():
    s = reduce_ski_rental(classical_spec())
    assert s.offline_count == 2
    assert s.weights[0] == 100.0
    assert s.weights[1] == 1e14  # 1e12 * max finite weight (100)
    # per interval: one rent-difference vertex of weight eps, one of weight 0
    events = list(s)
    assert s.weights[2] == 1.0 and list(events[2].neighbors) == [0]
    assert s.weights[3] == 0.0 and list(events[3].neighbors) == [0, 1]


def test_ski_rental_event_count():
    s = reduce_ski_rental(classical_spec(B=100.0, eps=1.0, t_end=300.0))
    assert len(s) - s.offline_count == 600  # ceil(300/1) * 2


def test_ski_rental_spec_validation():
    with pytest.raises(ValidationError):
        SkiRentalSpec(states=((1.0, 1.0),), epsilon=1.0, t_end=1.0)  # b1 != 0
    with pytest.raises(ValidationError):
        SkiRentalSpec(states=((0.0, 1.0), (5.0, 2.0)), epsilon=1.0, t_end=1.0)
    with pytest.raises(ValidationError):
        SkiRentalSpec(states=((0.0, 1.0), (-5.0, 0.5)), epsilon=1.0, t_end=1.0)
    # two states reduce to 2 lefts plus 2 arrivals per interval
    states = ((0.0, 1.0), (4.0, 0.0))
    cap_t_end = MAX_ARRIVALS / 2 - 1
    SkiRentalSpec(states=states, epsilon=1.0, t_end=cap_t_end)
    for eps, t_end in ((1.0, cap_t_end + 1), (1e-9, 1e9), (1e-300, 1e300)):
        with pytest.raises(ValidationError, match="arrivals"):
            SkiRentalSpec(states=states, epsilon=eps, t_end=t_end)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["buy", "rent first", "rent last"])
def test_ski_rental_spec_rejects_non_finite_costs(bad, where):
    """A NaN cost passes every ordering and sign check, and an infinite one
    only reaches the reduction's weights: the spec names the costs."""
    states = {
        "buy": ((0.0, 2.0), (bad, 1.0)),
        "rent first": ((0.0, bad), (4.0, 1.0)),
        "rent last": ((0.0, 2.0), (4.0, bad)),
    }[where]
    with pytest.raises(ValidationError, match="buy costs and rent rates must be finite"):
        SkiRentalSpec(states=states, epsilon=1.0, t_end=5.0)


def test_ski_rental_strategy_optimum_small():
    # two states, B = 3, 5 intervals of length 1: rent always costs 5,
    # buying at once costs 3
    spec = SkiRentalSpec(states=((0.0, 1.0), (3.0, 0.0)), epsilon=1.0, t_end=5.0)
    assert ski_rental_strategy_optimum(spec) == 3.0
    spec2 = SkiRentalSpec(states=((0.0, 1.0), (30.0, 0.0)), epsilon=1.0, t_end=5.0)
    assert ski_rental_strategy_optimum(spec2) == 5.0


def test_every_valid_cover_dominates_a_rental_strategy():
    # soundness of the reduction: any integral cover of the reduced
    # instance costs at least some single-buy rental strategy, so the
    # cover optimum can never undercut the rental optimum
    spec = SkiRentalSpec(
        states=((0.0, 3.0), (2.0, 1.0), (5.0, 0.0)), epsilon=1.0, t_end=3.0
    )
    stream = reduce_ski_rental(spec)
    n, q_total = spec.n_states, spec.intervals()
    u, v = stream.edge_arrays()
    weights = stream.weights.tolist()
    bs = [b for b, _ in spec.states]
    rs = [r for _, r in spec.states]
    total = len(stream)
    for mask in range(1 << total):
        cover = {i for i in range(total) if mask >> i & 1}
        if not all(a in cover or b in cover for a, b in zip(u.tolist(), v.tolist())):
            continue
        cost = sum(weights[i] for i in cover)
        first_missing = next((i for i in range(n) if i not in cover), None)
        if first_missing is None:
            assert cost >= weights[n - 1]  # paid the sentinel; dominates anything
            continue
        strategy = bs[first_missing] + q_total * spec.epsilon * rs[first_missing]
        assert cost >= strategy - 1e-9


def test_ski_rental_strategy_cover_cost_matches():
    # mapping a (final state, switch time) strategy onto the reduced
    # instance yields a valid cover of the full stream with equal cost
    spec = SkiRentalSpec(
        states=((0.0, 4.0), (3.0, 2.0), (7.0, 1.0), (12.0, 0.0)),
        epsilon=1.0,
        t_end=6.0,
    )
    stream = reduce_ski_rental(spec)
    n = spec.n_states
    q_total = spec.intervals()
    u, v = stream.edge_arrays()
    rs = [r for _, r in spec.states]
    bs = [b for b, _ in spec.states]
    for f in range(n):
        for q in range(q_total + 1):
            cover = set(range(f))  # lefts bought when entering state f+1
            cost = bs[f]
            for qq in range(q_total):
                state = 0 if qq < q else f
                for k in range(state, n):  # onlines k+1..n of this interval
                    vid = n + qq * n + k
                    cover.add(vid)
                    cost += stream.weights[vid]
            assert all(a in cover or b in cover for a, b in zip(u.tolist(), v.tolist()))
            expected = bs[f] + spec.epsilon * (q * rs[0] + (q_total - q) * rs[f])
            assert cost == pytest.approx(expected, abs=1e-9)
