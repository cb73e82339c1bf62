"""Tests for the instance model, file format, and generators."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import onlinecover
from onlinecover.errors import ParseError, ValidationError
from onlinecover.instance import (
    MAX_ARRIVALS,
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    has_repeats,
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
    assert s.events[0].side is Side.LEFT
    assert s.events[1].side is Side.RIGHT


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
            InstanceStream(events, offline)
        assert exc.value.event == event
    with pytest.raises(ValidationError) as exc:
        InstanceStream(events[1:], 0)
    assert exc.value.event == 0


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
    assert [e.side for e in s2.events] == [e.side for e in s.events]
    assert np.array_equal(s2.weights().view(np.uint64), s.weights().view(np.uint64))
    assert edges_of(s2) == edges_of(s)


@given(st.lists(st.integers(-3, 3), max_size=12))
def test_has_repeats_agrees_with_unique(values):
    arr = np.array(values, dtype=np.int64)
    assert has_repeats(arr) == (np.unique(arr).size != arr.size)


def test_comments_and_blank_lines_ignored():
    s = parse_instance("# header\noffline 0\n\n0 1.0 - 0\n# mid\n1 1.0 - 1 0\n")
    assert len(s) == 2


def test_same_side_edge_rejected():
    with pytest.raises(ValidationError):
        InstanceStream(
            (
                VertexEvent(0, 1.0, Side.LEFT, []),
                VertexEvent(1, 1.0, Side.LEFT, [0]),
            ),
            0,
        )


def test_offline_events_must_be_isolated():
    with pytest.raises(ValidationError):
        InstanceStream(
            (
                VertexEvent(0, 1.0, Side.LEFT, []),
                VertexEvent(1, 1.0, Side.LEFT, [0]),
            ),
            2,
        )


def test_stream_arrays_and_prefix_edges():
    s = gen_triangular(3)  # lefts 0-2; rights 3, 4, 5 see 3, 2, 1 lefts
    assert s.weights().tolist() == [1.0] * 6
    assert s.side_codes.tolist() == [0, 0, 0, 1, 1, 1]
    assert s.edge_offsets.tolist() == [0, 0, 0, 0, 3, 5, 6]
    prefix = static_from_stream(s, 5).edge_arrays()
    assert edges_of(s)[:5] == list(zip(*(a.tolist() for a in prefix)))
    assert static_from_stream(s, 3).edge_arrays()[0].size == 0


def test_stream_arrays_are_read_only():
    """Runs share a stream, so the arrays it stores cannot be written
    through."""
    s = gen_triangular(3)
    for stored in (s.weights(), s.side_codes, s.edge_offsets):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 7


def test_event_neighbors_are_a_read_only_view():
    """A validated stream cannot be written through its events, and the
    array a caller built an event from stays theirs to write."""
    mine = np.array([0, 1], dtype=np.int64)
    s = InstanceStream(
        (
            VertexEvent(0, 1.0, Side.LEFT, []),
            VertexEvent(1, 1.0, Side.LEFT, []),
            VertexEvent(2, 1.0, Side.RIGHT, mine),
        ),
        2,
    )
    with pytest.raises(ValueError, match="read-only"):
        s.events[2].neighbors[0] = 1
    assert edges_of(s) == [(0, 2), (1, 2)]
    mine[0] = 1  # raises if the caller's array was frozen too


def test_roundtrip_is_bit_exact():
    s = gen_random(20, 0.4, seed=3)
    text = serialize_instance(s)
    s2 = parse_instance(text)
    assert serialize_instance(s2) == text
    assert [e.weight for e in s2.events] == [e.weight for e in s.events]
    assert edges_of(s2) == edges_of(s)


def test_roundtrip_preserves_ugly_weights():
    ev = (
        VertexEvent(0, 0.1 + 0.2, Side.LEFT, []),
        VertexEvent(1, 1e-17, Side.RIGHT, [0]),
        VertexEvent(2, 123456789.123456789, Side.RIGHT, [0]),
    )
    s = InstanceStream(ev, 1)
    s2 = parse_instance(serialize_instance(s))
    assert all(a.weight == b.weight for a, b in zip(s.events, s2.events))


@given(n=st.integers(1, 12), p=st.floats(0.0, 1.0), seed=st.integers(0, 999))
@settings(max_examples=30, deadline=None)
def test_roundtrip_property(n, p, seed):
    s = gen_random(n, p, seed, mode="bipartite_alternating")
    s2 = parse_instance(serialize_instance(s))
    assert edges_of(s2) == edges_of(s)
    assert s2.offline_count == s.offline_count
    assert [e.side for e in s2.events] == [e.side for e in s.events]


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
        assert [e.weight for e in s2.events] == [e.weight for e in s.events]
        assert s2.offline_count == s.offline_count


# ---------------------------------------------------------------- generators


def test_triangular_smallest():
    s = gen_triangular(1)
    assert len(s) == 2 and s.offline_count == 1
    assert edges_of(s) == [(0, 1)]


def test_triangular_degrees_and_count():
    s = gen_triangular(3)
    degs = [e.degree() for e in s.events[3:]]
    assert degs == [3, 2, 1]
    assert s.edge_count() == 6  # n(n+1)/2


def test_two_phase_n1_unrolled():
    s = gen_two_phase_matching_hard(1)
    assert len(s) == 4
    assert edges_of(s) == [(0, 1), (0, 2), (1, 3)]
    assert [e.side for e in s.events] == [Side.LEFT, Side.RIGHT, Side.RIGHT, Side.LEFT]


def test_two_phase_n2_degree_profile():
    s = gen_two_phase_matching_hard(2)
    assert len(s) == 8
    # rights: two complete (deg 2), two triangular (deg 2, 1);
    # phase-2 lefts triangular to the first two rights (deg 2, 1)
    assert [e.degree() for e in s.events] == [0, 0, 2, 2, 2, 1, 2, 1]
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


def test_random_deterministic():
    a = gen_random(30, 0.3, seed=42)
    b = gen_random(30, 0.3, seed=42)
    assert serialize_instance(a) == serialize_instance(b)
    c = gen_random(30, 0.3, seed=43)
    assert serialize_instance(a) != serialize_instance(c)


MEMORY_CAPPED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from onlinecover.instance import gen_random
print(gen_random(30_000, 1e-4, 0).edge_count())
"""


def test_random_stream_fits_in_a_gigabyte():
    """30,000 arrivals have 4.5e8 candidate back-edges, 3.6 GB as int64: the
    generator never holds them all, so it runs with 1 GiB of address space."""
    src = str(Path(onlinecover.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", MEMORY_CAPPED],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


@pytest.mark.parametrize("mode", ["bipartite_one_sided", "bipartite_alternating"])
def test_random_bipartite_modes_validate(mode):
    s = gen_random(25, 0.5, seed=9, mode=mode)
    assert s.has_side_labels()  # construction already rejects same-side edges
    if mode == "bipartite_one_sided":
        assert s.offline_count == 13
        assert all(e.degree() == 0 for e in s.events[: s.offline_count])


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
    assert s.events[0].weight == 100.0
    assert s.events[1].weight == 1e14  # 1e12 * max finite weight (100)
    # per interval: one rent-difference vertex of weight eps, one of weight 0
    assert s.events[2].weight == 1.0 and list(s.events[2].neighbors) == [0]
    assert s.events[3].weight == 0.0 and list(s.events[3].neighbors) == [0, 1]


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
    weights = [e.weight for e in stream.events]
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
                    cost += stream.events[vid].weight
            assert all(a in cover or b in cover for a, b in zip(u.tolist(), v.tolist()))
            expected = bs[f] + spec.epsilon * (q * rs[0] + (q_total - q) * rs[f])
            assert cost == pytest.approx(expected, abs=1e-9)
