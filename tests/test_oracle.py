"""Tests for the offline oracles, cross-validated against enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinecover import oracle
from onlinecover.errors import LengthMismatch, NotBipartite, TooLarge, ValidationError
from onlinecover.instance import (
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    reduce_ski_rental,
)
from onlinecover.oracle import (
    OracleResult,
    StaticGraph,
    brute_force_half_integral,
    competitive_ratio,
    fractional_optima_general,
    max_matching_bipartite,
    prefix_optimal_values,
    static_from_stream,
)

LR = (Side.LEFT, Side.RIGHT)


def unit_graph(n, edges, sides=None):
    return StaticGraph(
        n,
        np.ones(n),
        np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        sides=sides,
    )


def random_graph(rng, n, p, weights=None):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    w = np.ones(n) if weights is None else weights
    return StaticGraph(n, w, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


# ----------------------------------------------------------- bipartite


def test_single_edge():
    r = max_matching_bipartite(unit_graph(2, [(0, 1)], sides=LR))
    assert r.max_matching_value == 1.0
    assert r.min_cover_value == 1.0
    assert r.matching_witness == {(0, 1): 1.0}


def test_path_of_three_edges():
    g = unit_graph(4, [(0, 1), (1, 2), (2, 3)], sides=LR + LR)
    r = max_matching_bipartite(g)
    assert r.max_matching_value == 2.0
    assert r.min_cover_value == 2.0


@pytest.mark.parametrize("n", range(1, 51))
def test_triangular_has_perfect_matching(n):
    g = static_from_stream(gen_triangular(n))
    assert max_matching_bipartite(g).max_matching_value == float(n)


def test_triangular_1000_perfect_matching():
    g = static_from_stream(gen_triangular(1000))
    assert max_matching_bipartite(g).max_matching_value == 1000.0


@pytest.mark.parametrize("n", range(1, 21))
def test_two_phase_matching_is_2n(n):
    g = static_from_stream(gen_two_phase_matching_hard(n))
    assert max_matching_bipartite(g).max_matching_value == float(2 * n)


def test_complete_bipartite_cover_is_min_side():
    from onlinecover.instance import gen_complete_bipartite

    g = static_from_stream(gen_complete_bipartite(100, 1000))
    assert max_matching_bipartite(g).min_cover_value == 100.0


def test_not_bipartite_errors():
    with pytest.raises(NotBipartite):
        max_matching_bipartite(unit_graph(3, [(0, 1)]))
    with pytest.raises(NotBipartite):
        max_matching_bipartite(
            unit_graph(3, [(0, 1), (1, 2), (0, 2)], sides=(Side.LEFT, Side.RIGHT, Side.LEFT))
        )


# ----------------------------------------------------------- fractional


def test_single_edge_fractional():
    r = fractional_optima_general(unit_graph(2, [(0, 1)]))
    assert r.max_matching_value == 1.0
    assert r.min_cover_value == 1.0


def test_triangle_and_cycle():
    tri = fractional_optima_general(unit_graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert tri.min_cover_value == 1.5
    assert np.all(tri.cover_witness == 0.5)
    c5 = fractional_optima_general(unit_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    assert c5.min_cover_value == 2.5


def test_brute_force_basics():
    assert brute_force_half_integral(unit_graph(3, [])) == 0.0
    assert brute_force_half_integral(unit_graph(2, [(0, 1)])) == 1.0
    assert brute_force_half_integral(unit_graph(3, [(0, 1), (1, 2), (0, 2)])) == 1.5
    with pytest.raises(TooLarge):
        brute_force_half_integral(unit_graph(17, []))


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
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = gen_random(int(rng.integers(2, 25)), 0.4, int(rng.integers(0, 999)), mode="bipartite_alternating")
        g = static_from_stream(s)
        integral = max_matching_bipartite(g)
        frac = fractional_optima_general(
            StaticGraph(g.n, g.weights, g.edges)  # drop labels on purpose
        )
        assert frac.max_matching_value == pytest.approx(integral.max_matching_value, abs=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    g = random_graph(rng, 9, 0.5)
    base = fractional_optima_general(g).min_cover_value
    for _ in range(5):
        perm = rng.permutation(9)
        edges = perm[g.edges]
        g2 = StaticGraph(9, np.ones(9), edges)
        assert fractional_optima_general(g2).min_cover_value == base


def test_weak_duality_enforced():
    with pytest.raises(ValidationError):
        OracleResult(2.0, 1.0, {}, np.zeros(2), "fractional-general")


def test_static_graph_validation():
    with pytest.raises(ValidationError):
        StaticGraph(2, np.ones(2), [(0, 0)])
    with pytest.raises(ValidationError):
        StaticGraph(2, np.ones(2), [(0, 1), (1, 0)])
    with pytest.raises(ValidationError):
        StaticGraph(2, np.ones(2), [(0, 5)])


def test_static_from_stream_prefix():
    s = gen_triangular(4)
    g = static_from_stream(s, 5)  # 4 offline + first online
    assert g.n == 5
    assert g.edges.shape[0] == 4  # first online sees all lefts
    assert max_matching_bipartite(g).max_matching_value == 1.0


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
            full = fractional_optima_general(
                StaticGraph(
                    j,
                    static_from_stream(stream, j).weights,
                    static_from_stream(stream, j).edges,
                )
            ).min_cover_value
            assert vals[j - 1] == pytest.approx(full, abs=1e-12)


def test_prefix_values_weighted_path():
    spec = SkiRentalSpec(states=((0.0, 2.0), (5.0, 0.0)), epsilon=1.0, t_end=4.0)
    stream = reduce_ski_rental(spec)
    vals = prefix_optimal_values(stream)
    for j in range(1, len(stream) + 1):
        full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
        assert vals[j - 1] == full


MODES = ("general", "bipartite_one_sided", "bipartite_alternating")


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
    """With arbitrary float weights the flow sums round, so the warm and the
    from-scratch solves may part in the last bits, never further."""
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(2, 16))
        base = gen_random(n, 0.4, int(rng.integers(0, 999)), MODES[trial % 3])
        stream = with_weights(base, rng.uniform(0.0, 3.0, n))
        vals = prefix_optimal_values(stream)
        for j in range(1, n + 1):
            full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
            assert vals[j - 1] == pytest.approx(full, rel=1e-9, abs=1e-12)


def test_prefix_oracle_does_not_solve_per_prefix(monkeypatch):
    """One warm-started solver per stream: the from-scratch entry points run
    at most once in total, where a per-prefix loop would call them per arrival."""
    calls = []
    for name in ("maximum_bipartite_matching", "fractional_optima_general"):
        fn = getattr(oracle, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    spec = SkiRentalSpec(states=((0.0, 2.0), (5.0, 1.0), (9.0, 0.0)), epsilon=1.0, t_end=6.0)
    for stream in (gen_triangular(60), reduce_ski_rental(spec)):
        calls.clear()
        vals = oracle.prefix_optimal_values(stream)
        assert vals[-1] > 0.0
        assert len(calls) <= 1


# ---------------------------------------------------------------- ratios


def test_competitive_ratio_basics():
    assert competitive_ratio([2.0, 4.0], [2.0, 4.0], "cover", "worst_prefix") == 1.0
    assert competitive_ratio([2.0], [1.0], "cover", "final") == 2.0
    assert competitive_ratio([0.5, 1.0], [1.0, 2.0], "matching", "worst_prefix") == 0.5
    # OPT = 0 with ALG = 0 counts as ratio 1
    assert competitive_ratio([0.0, 2.0], [0.0, 1.0], "cover", "worst_prefix") == 2.0
    assert competitive_ratio([1.0], [0.0], "cover", "final") == float("inf")


def test_competitive_ratio_errors():
    with pytest.raises(LengthMismatch):
        competitive_ratio([1.0], [1.0, 2.0], "cover", "final")
    with pytest.raises(LengthMismatch):
        competitive_ratio([], [], "cover", "final")
    with pytest.raises(ValidationError):
        competitive_ratio([1.0], [1.0], "spam", "final")
