"""Tests for the offline oracles, cross-validated against enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinecover import oracle
from onlinecover.errors import LengthMismatch, TooLarge, ValidationError
from onlinecover.harness import cli_main
from onlinecover.instance import (
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    reduce_ski_rental,
    serialize_instance,
)
from onlinecover.oracle import (
    OracleResult,
    brute_force_half_integral,
    fractional_optima_general,
    prefix_optimal_values,
    prefix_ratios,
    static_from_stream,
)

LR = (Side.LEFT, Side.RIGHT)
MODES = ("general", "bipartite_one_sided", "bipartite_alternating")


def graph_stream(n, edges, sides=None, weights=None):
    """A stream in which vertex j arrives with its edges to earlier vertices."""
    back = [[] for _ in range(n)]
    for u, v in edges:
        back[max(u, v)].append(min(u, v))
    w = np.ones(n) if weights is None else weights
    sides = sides or (Side.UNLABELED,) * n
    events = tuple(VertexEvent(j, float(w[j]), sides[j], back[j]) for j in range(n))
    return InstanceStream(events, 0)


def random_graph(rng, n, p, weights=None):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_stream(n, edges, weights=weights)


def unlabeled(stream):
    events = tuple(VertexEvent(e.id, e.weight, Side.UNLABELED, e.neighbors) for e in stream.events)
    return InstanceStream(events, stream.offline_count)


# ----------------------------------------------------------- bipartite


# On a bipartite graph the fractional optimum is the integral one (Konig),
# so the integral values below come from the fractional oracle.


def test_single_edge():
    r = fractional_optima_general(graph_stream(2, [(0, 1)], sides=LR))
    assert r.max_matching_value == 1.0
    assert r.min_cover_value == 1.0
    assert r.matching_witness == {(0, 1): 1.0}


def test_path_of_three_edges():
    g = graph_stream(4, [(0, 1), (1, 2), (2, 3)], sides=LR + LR)
    r = fractional_optima_general(g)
    assert r.max_matching_value == 2.0
    assert r.min_cover_value == 2.0


@pytest.mark.parametrize("n", range(1, 51))
def test_triangular_has_perfect_matching(n):
    g = gen_triangular(n)
    assert fractional_optima_general(g).max_matching_value == float(n)


def test_triangular_1000_perfect_matching():
    g = gen_triangular(1000)
    assert fractional_optima_general(g).max_matching_value == 1000.0


@pytest.mark.parametrize("n", range(1, 21))
def test_two_phase_matching_is_2n(n):
    g = gen_two_phase_matching_hard(n)
    assert fractional_optima_general(g).max_matching_value == float(2 * n)


def test_complete_bipartite_cover_is_min_side():
    from onlinecover.instance import gen_complete_bipartite

    g = gen_complete_bipartite(100, 1000)
    assert fractional_optima_general(g).min_cover_value == 100.0


def test_not_bipartite_errors():
    # the stream itself rejects a same-side edge, before any oracle runs
    with pytest.raises(ValidationError):
        graph_stream(3, [(0, 1), (1, 2), (0, 2)], sides=(Side.LEFT, Side.RIGHT, Side.LEFT))


# ----------------------------------------------------------- fractional


def test_single_edge_fractional():
    r = fractional_optima_general(graph_stream(2, [(0, 1)]))
    assert r.max_matching_value == 1.0
    assert r.min_cover_value == 1.0


def test_triangle_and_cycle():
    tri = fractional_optima_general(graph_stream(3, [(0, 1), (1, 2), (0, 2)]))
    assert tri.min_cover_value == 1.5
    assert np.all(tri.cover_witness == 0.5)
    c5 = fractional_optima_general(graph_stream(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    assert c5.min_cover_value == 2.5


def test_brute_force_basics():
    assert brute_force_half_integral(graph_stream(3, [])) == 0.0
    assert brute_force_half_integral(graph_stream(2, [(0, 1)])) == 1.0
    assert brute_force_half_integral(graph_stream(3, [(0, 1), (1, 2), (0, 2)])) == 1.5
    with pytest.raises(TooLarge):
        brute_force_half_integral(graph_stream(17, []))


def test_fractional_matches_brute_force_sample():
    rng = np.random.default_rng(7)
    for trial in range(60):
        n = int(rng.integers(1, 11))
        p = [0.2, 0.5, 0.8][trial % 3]
        g = random_graph(rng, n, p)
        assert fractional_optima_general(g).min_cover_value == pytest.approx(
            brute_force_half_integral(g), abs=1e-12
        )


def test_weighted_fractional_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        w = rng.integers(0, 8, n).astype(float)
        g = random_graph(rng, n, 0.5, weights=w)
        assert fractional_optima_general(g).min_cover_value == pytest.approx(
            brute_force_half_integral(g), abs=1e-9
        )


def test_bipartite_inputs_agree_across_modes():
    """A labeled stream against its unlabeled copy and the brute force, on
    edgeless and one-vertex streams and on streams where R arrives before
    its L."""
    streams = [graph_stream(1, [], sides=(side,)) for side in LR]
    streams += [gen_random(n, 0.0, 0, mode=m) for n in (1, 6) for m in MODES[1:]]
    rng = np.random.default_rng(3)
    streams += [
        gen_random(int(rng.integers(2, 25)), 0.4, int(rng.integers(0, 999)), mode=MODES[2])
        for _ in range(20)
    ]
    for s in streams:
        labeled = fractional_optima_general(s)
        frac = fractional_optima_general(unlabeled(s))  # drop labels on purpose
        assert labeled.max_matching_value == frac.max_matching_value
        assert labeled.min_cover_value == frac.min_cover_value
        assert labeled.min_cover_value == float(int(labeled.min_cover_value))
        if len(s) <= 12:  # 3^n potentials: n = 16 alone takes seconds
            assert labeled.min_cover_value == brute_force_half_integral(s)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 9, 0.5)
    base = fractional_optima_general(g).min_cover_value
    for _ in range(5):
        perm = rng.permutation(9)
        u, v = g.edge_arrays()
        g2 = graph_stream(9, zip(perm[u].tolist(), perm[v].tolist()))
        assert fractional_optima_general(g2).min_cover_value == base


def test_weak_duality_enforced():
    with pytest.raises(ValidationError):
        OracleResult(2.0, 1.0, {}, np.zeros(2))


def test_static_from_stream_prefix():
    s = gen_triangular(4)
    g = static_from_stream(s, 5)  # 4 offline + first online
    assert len(g) == 5
    assert g.offline_count == 4
    assert g.edge_count() == 4  # first online sees all lefts
    assert fractional_optima_general(g).max_matching_value == 1.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_weak_duality_property(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, int(rng.integers(1, 12)), 0.4)
    r = fractional_optima_general(g)
    assert r.max_matching_value <= r.min_cover_value + 1e-9
    assert np.all((r.cover_witness == 0) | (r.cover_witness == 0.5) | (r.cover_witness == 1))


# ------------------------------------------------------------- prefixes


def test_prefix_values_match_full_oracle():
    for stream in (
        gen_triangular(8),
        gen_two_phase_matching_hard(4),
        gen_random(14, 0.3, seed=2),
        gen_random(13, 0.5, seed=4, mode="bipartite_alternating"),
    ):
        vals = prefix_optimal_values(stream)
        for j in range(1, len(stream) + 1):
            full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
            assert vals[j - 1] == full


def test_prefix_values_weighted_path():
    spec = SkiRentalSpec(states=((0.0, 2.0), (5.0, 0.0)), epsilon=1.0, t_end=4.0)
    stream = reduce_ski_rental(spec)
    vals = prefix_optimal_values(stream)
    for j in range(1, len(stream) + 1):
        full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
        assert vals[j - 1] == full


def with_weights(stream, w):
    events = tuple(
        VertexEvent(ev.id, float(w[ev.id]), ev.side, ev.neighbors) for ev in stream.events
    )
    return InstanceStream(events, stream.offline_count)


def reweighted(stream, rng):
    """The same arrivals with small integer weights (some zero) and one
    sentinel 1e12 times the largest, like the ski-rental reduction."""
    w = rng.integers(0, 8, len(stream)).astype(float)
    w[rng.integers(len(stream))] = 0.0
    w[rng.integers(len(stream))] = 1e12 * max(w.max(), 1.0)
    return with_weights(stream, w)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 14),
    p=st.sampled_from((0.15, 0.3, 0.6)),
    mode=st.sampled_from(MODES),
    weighted=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_warm_prefix_values_equal_from_scratch(seed, n, p, mode, weighted):
    """Every prefix value equals a from-scratch solve of that prefix exactly
    (all arithmetic here is on integers and halves), and for prefixes of at
    most 8 vertices also the {0, 1/2, 1} enumeration."""
    stream = gen_random(n, p, seed, mode)
    if weighted:
        stream = reweighted(stream, np.random.default_rng(seed))
    vals = prefix_optimal_values(stream)
    for j in range(1, n + 1):
        g = static_from_stream(stream, j)
        assert vals[j - 1] == fractional_optima_general(g).min_cover_value
        if j <= 8:
            assert vals[j - 1] == brute_force_half_integral(g)


def test_warm_prefix_values_float_weights():
    """With arbitrary float weights too, the warm and the from-scratch solves
    count the same exact integers and round them once, to the same float."""
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 16))
        base = gen_random(n, 0.4, int(rng.integers(0, 999)), MODES[trial % 3])
        stream = with_weights(base, rng.uniform(0.0, 3.0, n))
        vals = prefix_optimal_values(stream)
        for j in range(1, n + 1):
            full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
            assert vals[j - 1] == full


def exact_cover(stream, j):
    """Minimum cover of the first j arrivals over {0, 1/2, 1}^j, as a Fraction."""
    w = [Fraction(x) for x in stream.weights()[:j].tolist()]
    den = math.lcm(*(x.denominator for x in w))
    iw = [int(x * den) for x in w]
    edges = [(a, b) for a, b in zip(*(e.tolist() for e in stream.edge_arrays())) if max(a, b) < j]
    best = min(
        sum(c * x for c, x in zip(halves, iw))
        for halves in itertools.product((0, 1, 2), repeat=j)
        if all(halves[a] + halves[b] >= 2 for a, b in edges)
    )
    return Fraction(best, 2 * den)


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 6),
    p=st.sampled_from((0.3, 0.6, 1.0)),
    mode=st.sampled_from(MODES),
    weights=st.lists(
        st.one_of(st.sampled_from((0.0, 1.0, 1e12)), st.floats(0.01, 5.0)), min_size=6, max_size=6
    ),
)
@settings(max_examples=400, deadline=None)
def test_weighted_optima_are_the_correctly_rounded_exact_optimum(seed, n, p, mode, weights):
    """The final and every prefix value are the exact rational optimum,
    rounded to the nearest float, at weights mixing 0, 1, 1e12 and floats."""
    stream = with_weights(gen_random(n, p, seed, mode), weights)
    assert fractional_optima_general(stream).min_cover_value == float(exact_cover(stream, n))
    vals = prefix_optimal_values(stream)
    for j in range(1, n + 1):
        assert vals[j - 1] == float(exact_cover(stream, j))


def test_prefix_oracle_does_not_solve_per_prefix(monkeypatch):
    """One warm-started solver per stream: the from-scratch entry points run
    at most once in total, where a per-prefix loop would call them per
    arrival, and a weighted stream builds exactly one flow network."""
    calls = []
    for name in ("maximum_bipartite_matching", "fractional_optima_general"):
        fn = getattr(oracle, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    networks = []

    class CountedNetwork(oracle._CoverNetwork):
        def __init__(self, stream):
            networks.append(stream)
            super().__init__(stream)

    monkeypatch.setattr(oracle, "_CoverNetwork", CountedNetwork)
    spec = SkiRentalSpec(states=((0.0, 2.0), (5.0, 1.0), (9.0, 0.0)), epsilon=1.0, t_end=6.0)
    for stream, built in ((gen_triangular(60), 0), (reduce_ski_rental(spec), 1)):
        calls.clear()
        networks.clear()
        vals = oracle.prefix_optimal_values(stream)
        assert vals[-1] > 0.0
        assert len(calls) <= 1
        assert len(networks) == built


def zigzag(m):
    """R_0..R_{m-1} offline, L_i (i >= 1) adjacent to R_{i-1} and R_i, then
    L_0 adjacent to R_0 alone, every weight 2: the last arrival's augmenting
    path runs through all 2m vertices."""
    events = [VertexEvent(i, 2.0, Side.RIGHT, []) for i in range(m)]
    events += [VertexEvent(m - 1 + i, 2.0, Side.LEFT, [i - 1, i]) for i in range(1, m)]
    events.append(VertexEvent(2 * m - 1, 2.0, Side.LEFT, [0]))
    return InstanceStream(tuple(events), m)


def test_augmenting_path_longer_than_the_recursion_limit(tmp_path, capsys):
    stream = zigzag(600)
    assert fractional_optima_general(stream).min_cover_value == 1200.0
    assert prefix_optimal_values(stream)[-1] == 1200.0
    path = tmp_path / "zigzag.txt"
    path.write_text(serialize_instance(stream))
    argv = ["simulate", "--input", str(path), "--algo", "waterfill", "--f", "linear-alpha"]
    assert cli_main(argv) == 0
    assert cli_main(argv + ["--prefix"]) == 0
    assert capsys.readouterr().out.count("#summary") == 2


# ---------------------------------------------------------------- ratios


def test_competitive_ratio_basics():
    assert prefix_ratios([2.0, 4.0], [2.0, 4.0]).max() == 1.0
    assert prefix_ratios([2.0], [1.0])[-1] == 2.0
    assert prefix_ratios([0.5, 1.0], [1.0, 2.0]).min() == 0.5
    # OPT = 0 with ALG = 0 counts as ratio 1
    assert prefix_ratios([0.0, 2.0], [0.0, 1.0]).tolist() == [1.0, 2.0]
    assert prefix_ratios([1.0], [0.0])[-1] == float("inf")


def test_competitive_ratio_errors():
    with pytest.raises(LengthMismatch):
        prefix_ratios([1.0], [1.0, 2.0])
    with pytest.raises(LengthMismatch):
        prefix_ratios([], [])
