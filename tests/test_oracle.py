"""Tests for the offline oracles, cross-validated against enumeration."""

import dataclasses
import itertools
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onlinecover import oracle
from onlinecover.errors import LengthMismatch, TooLarge, ValidationError
from onlinecover.harness import cli_main
from onlinecover.instance import (
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
    return InstanceStream.from_events(events, 0)


def random_graph(rng, n, p, weights=None):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return graph_stream(n, edges, weights=weights)


def unlabeled(stream):
    codes = np.full(len(stream), SIDE_CODES[Side.UNLABELED])
    return dataclasses.replace(stream, side_codes=codes)


# ----------------------------------------------------------- bipartite


# On a bipartite graph the fractional optimum is the integral one (Konig),
# so the integral values below come from the fractional oracle.


def test_single_edge():
    r = fractional_optima_general(graph_stream(2, [(0, 1)], sides=LR))
    assert r.max_matching_value == 1.0
    assert r.min_cover_value == 1.0


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
        assert prefix_optimal_values(s).tolist() == prefix_optimal_values(unlabeled(s)).tolist()
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
        OracleResult(2.0, 1.0, np.zeros(2))


def test_cover_witness_must_be_half_integral():
    with pytest.raises(ValidationError, match="half-integral"):
        OracleResult(1.0, 1.0, np.array([0.25, 0.75]))


def test_certificate_rejects_an_uncovered_edge():
    g = graph_stream(3, [(0, 1), (1, 2)])
    # potentials 1/2, 0, 1/2 in halves leave both edges at 1/2
    with pytest.raises(ValidationError, match="uncovered"):
        oracle._certified(g, np.array([1, 0, 1]), np.array([0]), np.array([1]), np.array([1]))


def test_certificate_rejects_a_matching_over_capacity():
    g = graph_stream(2, [(0, 1)])
    # 3 halves on arc 0 -> 1 exceed each endpoint's 2: two copies of weight 1
    with pytest.raises(ValidationError, match="capacity"):
        oracle._certified(g, np.array([2, 0]), np.array([0]), np.array([1]), np.array([3]))


def test_cover_network_rejects_a_tampered_flow():
    g = graph_stream(3, [(0, 1), (1, 2)], weights=[1.0, 2.5, 0.5])
    net = oracle._CoverNetwork(g)
    for ev in g:
        net.add(ev)
    net.flow += 1
    with pytest.raises(ValidationError, match="min cut does not match max flow"):
        oracle._dinic(net)


def test_the_from_scratch_network_holds_only_arcs(monkeypatch):
    """The network a weighted from-scratch solve builds holds the double
    cover's arcs and flow, and none of the kept trees' state."""
    built = []

    class Recorded(oracle._CoverNetwork):
        def __init__(self, stream):
            super().__init__(stream)
            built.append(self)

    monkeypatch.setattr(oracle, "_CoverNetwork", Recorded)
    stream = with_weights(gen_random(40, 0.2, 3), [0.5, 1.0, 3.0, 7.0, 1e12] * 8)
    assert fractional_optima_general(stream).min_cover_value > 0.0
    [net] = built
    assert sorted(vars(net)) == ["arrived", "cap", "den", "flow", "head", "n", "s", "t", "to", "w"]
    assert not isinstance(net, oracle._KeptTrees) and not hasattr(net, "units")


def test_kept_trees_reject_a_tampered_flow():
    """The kept trees check their cut against the flow at every prefix: one
    unit of flow too many is an error at the next prefix."""
    g = graph_stream(3, [(0, 1), (1, 2)], weights=[1.0, 2.5, 0.5])
    net = oracle._KeptTrees(g)
    for ev in g:
        net.add(ev)
        if ev.id == 2:
            net.flow += 1
            with pytest.raises(ValidationError, match="3 arrivals: min cut does not match max flow"):
                net.units()
        else:
            net.units()


def check_kept_trees(net):
    """The kept cut from scratch: the capacity of every arc out of S, with
    no residual one among them; every tree node hangs off its root by
    residual arcs, and nothing is left to grow or adopt."""
    to, cap, tree, par = net.to, net.cap, net.tree, net.par
    in_s = [side == oracle._SRC for side in tree]
    cut = 0
    for ei in range(0, len(to), 2):
        a, b = to[ei + 1], to[ei]
        if in_s[a] and not in_s[b]:
            cut += cap[ei] + cap[ei + 1]
            assert cap[ei] == 0, "a residual arc leaves S"
        if in_s[b] and not in_s[a]:
            assert cap[ei + 1] == 0, "a residual arc leaves S"
    assert cut == net.cut == net.flow
    assert not net.active and not net.orphans
    for x, side in enumerate(tree):
        if side == oracle._FREE or x in (net.s, net.t):
            continue
        pe = par[x]
        assert tree[to[pe]] == side
        assert cap[pe ^ 1] if side == oracle._SRC else cap[pe]


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 14),
    p=st.sampled_from((0.15, 0.3, 0.6, 1.0)),
    mode=st.sampled_from(MODES),
    strip=st.booleans(),
    weights=st.lists(st.sampled_from((0.0, 2.0**-30, 0.5, 1.0, 3.0, 7.25, 1e12)),
                     min_size=14, max_size=14),
)
@settings(max_examples=150, deadline=None)
def test_kept_cut_is_the_capacity_of_s(seed, n, p, mode, strip, weights):
    """At every prefix of labeled and unlabeled weighted streams (zero
    weights, 2^-30 and the 1e12 sentinel among them), the kept trees' cut
    is S's capacity recomputed over all arcs, no residual arc leaves S, and
    the value is that of a from-scratch solve of the prefix."""
    stream = with_weights(gen_random(n, p, seed, mode), weights)
    if strip:
        stream = unlabeled(stream)
    net = oracle._KeptTrees(stream)
    for ev in stream:
        net.add(ev)
        units = net.units()
        check_kept_trees(net)
        g = static_from_stream(stream, ev.id + 1)
        assert oracle._to_float(units, 2 * net.den) == fractional_optima_general(g).min_cover_value


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
    """The same arrivals with the first len(stream) weights of ``w``."""
    return dataclasses.replace(stream, weights=np.asarray(w[: len(stream)], dtype=float))


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
    w = [Fraction(x) for x in stream.weights[:j].tolist()]
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
    """One warm-started solver per stream and at most one whole-stream
    anchor: the from-scratch entry points run at most once in total, where a
    per-prefix loop would call them per arrival.  A unit stream builds
    exactly one growing matching, one adjacency and no flow network (its
    anchor solves that adjacency); a weighted stream builds exactly one
    ``_KeptTrees``, no other network, no matching and no adjacency, and
    never runs Dinic: its kept cut certifies every prefix."""
    calls = []
    for name in ("maximum_bipartite_matching", "fractional_optima_general", "_weighted_optimum",
                 "_dinic", "_adjacency"):
        fn = getattr(oracle, name)

        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)
    built = []
    for name in ("_CoverNetwork", "_KeptTrees", "_GrowingMatching"):
        base = getattr(oracle, name)

        class Counted(base):
            def __init__(self, stream, _name=name):
                built.append(_name)
                super().__init__(stream)

        monkeypatch.setattr(oracle, name, Counted)
    spec = SkiRentalSpec(states=((0.0, 2.0), (5.0, 1.0), (9.0, 0.0)), epsilon=1.0, t_end=6.0)
    for stream, solver in ((gen_triangular(60), "_GrowingMatching"),
                           (gen_random(200, 0.05, 3), "_GrowingMatching"),
                           (reduce_ski_rental(spec), "_KeptTrees")):
        calls.clear()
        built.clear()
        vals = oracle.prefix_optimal_values(stream)
        assert vals[-1] > 0.0
        assert built == [solver]
        solves = [c for c in calls if c != "_adjacency"]
        if solver == "_GrowingMatching":
            assert calls.count("_adjacency") == 1
            assert len(solves) <= 1
        else:
            assert calls == []


def warm_run(mp, stream, matcher=oracle._GrowingMatching):
    """The prefix values, the warm solver (the first one built) and the
    from-scratch solves made (``_dinic`` runs counted too), each as the
    number of arrivals the solver had been handed when it ran.  The solver is a
    counting subclass of ``_KeptTrees`` or of ``matcher``: ``runs`` counts
    a matcher's ``_augment`` calls and ``searched`` lists the count after
    each arrival."""
    solvers, bought = [], []
    for name, base in (("_KeptTrees", oracle._KeptTrees), ("_GrowingMatching", matcher)):

        class Counted(base):
            def __init__(self, stream):
                super().__init__(stream)
                self.runs, self.searched = 0, []
                solvers.append(self)

            def add(self, ev):
                super().add(ev)
                self.searched.append(self.runs)

            def _augment(self, *args):
                self.runs += 1
                return super()._augment(*args)

        mp.setattr(oracle, name, Counted)
    for name in ("_unit_optimum", "_weighted_optimum", "_dinic"):
        fn = getattr(oracle, name)

        def counted(*args, _fn=fn):
            bought.append(len(solvers[0].searched))
            return _fn(*args)

        mp.setattr(oracle, name, counted)
    vals = oracle.prefix_optimal_values(stream)
    mp.undo()
    return vals, solvers[0], bought


def assert_from_scratch(stream, vals):
    for j in range(1, len(stream) + 1):
        full = fractional_optima_general(static_from_stream(stream, j)).min_cover_value
        assert vals[j - 1] == full


@pytest.mark.parametrize("stream", [gen_triangular(60), gen_two_phase_matching_hard(15)],
                         ids=["triangular", "two-phase"])
def test_the_anchor_pins_the_rest_of_the_stream(monkeypatch, stream):
    """On these streams the warm matcher buys one anchor and stops before
    the last arrival, and every value it did not step to still equals a
    from-scratch solve."""
    vals, solver, bought = warm_run(monkeypatch, stream)
    assert len(bought) == 1 and len(solver.searched) < len(stream)
    assert_from_scratch(stream, vals)


def test_the_weighted_pass_buys_no_anchor(monkeypatch):
    """On a ski rental the kept trees step every arrival, with no
    from-scratch solve and no Dinic path, and each value is a from-scratch
    solve's."""
    stream = reduce_ski_rental(SkiRentalSpec(((0.0, 2.0), (40.0, 1.0), (100.0, 0.0)), 1.0, 60.0))
    vals, solver, bought = warm_run(monkeypatch, stream)
    assert bought == [] and solver.runs == 0 and len(solver.searched) == len(stream)
    assert_from_scratch(stream, vals)


@given(
    seed=st.integers(0, 10_000),
    family=st.sampled_from(("random", "triangular", "two-phase")),
    n=st.integers(1, 14),
    p=st.sampled_from((0.15, 0.3, 0.6, 1.0)),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=150, deadline=None)
def test_the_anchor_is_bought_right_after_the_first_search(seed, family, n, p, mode):
    """On small unit streams the anchor is bought if and only if some join
    ran ``_augment``, right after the first arrival whose join did, and
    every value is a from-scratch solve's."""
    if family == "random":
        stream = gen_random(n, p, seed, mode)
    elif family == "triangular":
        stream = gen_triangular((n + 1) // 2)  # 2k vertices
    else:
        stream = gen_two_phase_matching_hard((n + 2) // 3)  # 3k vertices
    with pytest.MonkeyPatch.context() as mp:
        vals, solver, bought = warm_run(mp, stream)
    first = next((i for i, runs in enumerate(solver.searched, 1) if runs), None)
    assert bought == ([] if first is None else [first])
    assert_from_scratch(stream, vals)


class Eager(oracle._GrowingMatching):
    """A prefix matcher that counts a search before any join, so the prefix
    oracle buys its anchor right after the first arrival."""

    def __init__(self, stream):
        super().__init__(stream)
        self.searches = 1


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 14),
    p=st.sampled_from((0.15, 0.3, 0.6)),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=100, deadline=None)
def test_an_anchor_bought_at_once_keeps_every_value(seed, n, p, mode):
    """With the anchor bought after the first arrival, each later arrival
    checks the pin; on unlabeled and labeled unit streams every value is
    still a from-scratch solve's."""
    stream = gen_random(n, p, seed, mode)
    with pytest.MonkeyPatch.context() as mp:
        vals, _, bought = warm_run(mp, stream, Eager)
    assert bought == [1]
    assert_from_scratch(stream, vals)


def test_streams_without_edges_have_zero_prefix_values(monkeypatch):
    """An empty stream, and edgeless streams of unit and of other weights,
    labeled or not: every prefix value is 0, every arrival is added, and
    nothing is searched or solved from scratch."""
    weights = [0.0, 0.5, 1.0, 3.0, 1e12, 2.0**-30]
    for stream in (graph_stream(0, []), graph_stream(6, []), graph_stream(6, [], LR * 3),
                   graph_stream(6, [], weights=weights),
                   graph_stream(6, [], LR * 3, weights=weights)):
        vals, solver, bought = warm_run(monkeypatch, stream)
        assert vals.tolist() == [0.0] * len(stream)
        assert bought == [] and solver.runs == 0 and len(solver.searched) == len(stream)


def test_triangular_2000_prefix_values_are_fast():
    """Triangular(n): n offline lefts, then every right raises the matching
    by one, so prefix t's optimum is max(0, t - n); the anchor fixes most of
    them at once."""
    n = 2000
    t0 = time.monotonic()
    vals = prefix_optimal_values(gen_triangular(n))
    elapsed = time.monotonic() - t0
    assert vals.tolist() == [float(max(0, t - n)) for t in range(1, 2 * n + 1)]
    assert elapsed < 2.0


def test_sparse_weighted_prefix_values_are_fast():
    """A sparse random stream reweighted from {0.5, 1, 3, 7, 1e12} pins only
    at its last arrival, so all the others step the kept trees; the pass
    stays well under a second where a search from the source per arrival
    took seconds."""
    stream = gen_random(2000, 0.002, 0)
    stream = with_weights(stream, np.random.default_rng(0).choice([0.5, 1, 3, 7, 1e12], 2000))
    t0 = time.monotonic()
    vals = prefix_optimal_values(stream)
    elapsed = time.monotonic() - t0
    assert vals[-1] == fractional_optima_general(stream).min_cover_value
    assert elapsed < 1.0


def test_the_adversary_transcript_buys_no_anchor(monkeypatch):
    """No join of the warm matcher on the 3-phase, d = 120 adversary
    searches: no anchor is bought and every arrival is added."""
    from onlinecover.harness import AdversaryBudget, adaptive_adversary_vc, resolve_allocation

    transcript = adaptive_adversary_vc(
        AdversaryBudget(3, 120), "primal-dual", resolve_allocation("optimal")
    ).transcript
    _, solver, bought = warm_run(monkeypatch, transcript)
    assert bought == [] and solver.runs == 0 and len(solver.searched) == len(transcript)


class Probed(oracle._GrowingMatching):
    """A prefix matcher that checks each join against a loop over the
    joining node's arrived neighbours, in slice order: a node with a free
    neighbour on the other side is matched to the first one and starts no
    search; ``probed`` and ``searched`` count the two kinds of join."""

    def __init__(self, stream):
        super().__init__(stream)
        self.probed = self.searched = 0

    def join(self, node):
        n = self.n
        u, off = node % n, (n if node < n else 0)
        a = int(self.ptr[u])
        nbrs = self.idx[a : a + self.count[u]].tolist()
        first_free = next((w + off for w in nbrs if self.mate[w + off] < 0), None)
        before = self.searched
        super().join(node)
        if first_free is None:
            return
        assert self.searched == before
        assert self.mate[node] == first_free and self.mate[first_free] == node
        self.probed += 1

    def _augment(self, root, tgt):
        self.searched += 1
        return super()._augment(root, tgt)


def test_a_join_next_to_a_free_node_takes_the_first_and_searches_no_further():
    """On a dense, a sparse and an adversary stream, ``_augment`` runs only
    for joins with no free arrived neighbour on the other side, each other
    join matches its first free one in slice order, and the values are the
    from-scratch optima."""
    from onlinecover.harness import AdversaryBudget, adaptive_adversary_vc, resolve_allocation

    transcript = adaptive_adversary_vc(
        AdversaryBudget(3, 40), "primal-dual", resolve_allocation("optimal")
    ).transcript
    probed = searched = 0
    for stream in (gen_triangular(200), gen_random(200, 0.05, 3), transcript):
        m = Probed(stream)
        for ev in stream:
            m.add(ev)
        assert m.units() / 2 == fractional_optima_general(stream).min_cover_value
        probed += m.probed
        searched += m.searched
    assert probed and searched


def test_the_probe_keeps_the_work_that_buys_the_anchor(monkeypatch):
    """A join next to a free node is settled by the probe, with no search:
    on triangular(500) the first search, and with it the anchor, comes at
    arrival 751, and the anchor pins every later value there."""
    vals, solver, bought = warm_run(monkeypatch, gen_triangular(500))
    assert bought == [751] and solver.searched[749:] == [0, 1]
    assert vals.tolist() == [float(max(0, t - 500)) for t in range(1, 1001)]


def test_an_anchor_out_of_reach_is_an_error(monkeypatch):
    """An anchor below a prefix's optimum, or above what the later arrivals
    can add to it, contradicts the warm solver: an error, not a fill."""
    for shift in (-1, 10**6):

        class Off(Eager):
            def whole(self, stream, _s=shift):
                return self.units() + _s

        monkeypatch.setattr(oracle, "_GrowingMatching", Off)
        with pytest.raises(ValidationError, match="out of the anchor's reach"):
            prefix_optimal_values(gen_triangular(5))


def shuffled(stream, rng):
    """The stream's text form with every neighbour list shuffled, parsed back."""
    lines = serialize_instance(stream).splitlines()
    for i, line in enumerate(lines[1:], start=1):
        tokens = line.split()
        lines[i] = " ".join(tokens[:4] + rng.permutation(tokens[4:]).tolist())
    return parse_instance("\n".join(lines) + "\n")


@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 40),
    p=st.sampled_from((0.1, 0.3, 0.7)),
    mode=st.sampled_from(MODES),
    shuffle=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_arrived_neighbours_lead_every_slice(seed, n, p, mode, shuffle):
    """The prefix matcher reads the from-scratch adjacency and only counts
    arrivals: after each arrival, the first count[v] entries of v's slice
    are exactly v's neighbours among the arrived vertices, also when the
    events list their neighbours out of order."""
    stream = gen_random(n, p, seed, mode)
    if shuffle:
        stream = shuffled(stream, np.random.default_rng(seed))
    m = oracle._GrowingMatching(stream)
    arrived = [[] for _ in range(n)]
    for ev in stream:
        m.add(ev)
        for u in ev.neighbors.tolist():
            arrived[u].append(ev.id)
            arrived[ev.id].append(u)
        for v in range(n):
            a = int(m.ptr[v])
            assert sorted(m.idx[a : a + m.count[v]].tolist()) == sorted(arrived[v])


def test_adjacency_peak_memory_is_its_output():
    """The key buffer is the only array as long as the edge list: building
    the adjacency allocates at most 1.25 times the bytes it returns."""
    stream = gen_complete_bipartite(200, 1000)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ptr, idx = oracle._adjacency(stream)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * (ptr.nbytes + idx.nbytes)


def test_int64_keys_give_the_values_of_the_relabelled_stream():
    """From n = 46,341 the adjacency's keys v * n + u are int64, and
    ``idx`` is an int32 copy of them.  Past that size, a
    sparse stream has the adjacency, final optimum and prefix optima of
    its edge-bearing vertices relabelled 0..k-1, which stay on the int32
    path (arrivals without edges change no optimum)."""
    n = 46_400
    rng = np.random.default_rng(5)
    active = np.unique(np.concatenate((rng.choice(n - 2, 300, replace=False), [n - 2, n - 1])))
    k = active.size
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.01]
    edges.append((k - 2, k - 1))  # the largest key, about 2.15e9
    small = graph_stream(k, edges)
    big = graph_stream(n, [(int(active[i]), int(active[j])) for i, j in edges])
    ptr, idx = oracle._adjacency(big)
    assert ptr.dtype == np.int64 and idx.dtype == np.int32
    sptr, sidx = oracle._adjacency(small)
    assert sptr.dtype == np.int32
    for i, v in enumerate(active.tolist()):
        assert idx[ptr[v] : ptr[v + 1]].tolist() == active[sidx[sptr[i] : sptr[i + 1]]].tolist()
    assert (
        fractional_optima_general(big).min_cover_value
        == fractional_optima_general(small).min_cover_value
    )
    # an arrival's prefix value is that of the last edge-bearing arrival up to it
    last = np.searchsorted(active, np.arange(n), "right")
    expected = np.concatenate(([0.0], prefix_optimal_values(small)))[last]
    assert np.array_equal(prefix_optimal_values(big), expected)


def zigzag(m):
    """R_0..R_{m-1} offline, L_i (i >= 1) adjacent to R_{i-1} and R_i, then
    L_0 adjacent to R_0 alone, every weight 2: the last arrival's augmenting
    path runs through all 2m vertices."""
    events = [VertexEvent(i, 2.0, Side.RIGHT, []) for i in range(m)]
    events += [VertexEvent(m - 1 + i, 2.0, Side.LEFT, [i - 1, i]) for i in range(1, m)]
    events.append(VertexEvent(2 * m - 1, 2.0, Side.LEFT, [0]))
    return InstanceStream.from_events(events, m)


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


# ------------------------------------------------ unit solver vs scipy


def scipy_matching_size(stream):
    """Maximum matching of the double cover by scipy's Hopcroft-Karp on a
    csr biadjacency, as the unit oracle used to solve it (scipy is a
    test-only reference)."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    n = len(stream)
    e0, e1 = stream.edge_arrays()
    if not e0.size:
        return 0
    rows, cols = np.concatenate((e0, e1)), np.concatenate((e1, e0))
    bi = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    return int((maximum_bipartite_matching(bi, perm_type="column") >= 0).sum())


def check_unit_solver(stream):
    size = scipy_matching_size(stream)
    match, _ = oracle.maximum_bipartite_matching(*oracle._adjacency(stream))
    assert sum(v >= 0 for v in match) == size
    r = fractional_optima_general(stream)
    assert r.max_matching_value == size / 2
    assert r.min_cover_value == size / 2
    if len(stream) <= 12:
        assert r.min_cover_value == brute_force_half_integral(stream)


@given(
    seed=st.integers(0, 10_000),
    n=st.one_of(st.integers(1, 12), st.integers(13, 300)),
    p=st.sampled_from((0.01, 0.05, 0.2, 0.5, 0.8)),
    mode=st.sampled_from(MODES),
)
@settings(max_examples=100, deadline=None)
def test_unit_solver_equals_scipy_hopcroft_karp(seed, n, p, mode):
    """The in-repo Hopcroft-Karp finds a matching as large as scipy's on
    general, one-sided and alternating streams, sparse and dense, and the
    values equal the {0, 1/2, 1} enumeration where it is affordable."""
    check_unit_solver(gen_random(n, p, seed, mode))


def unit_zigzag(m):
    """The path L_0 - R_0 - L_1 - R_1 - ... - L_{m-1} - R_{m-1}, unit weights:
    R_i is arrival i and L_i arrival 2m - 1 - i, so the L ids fall along
    the path.  Visiting rows of equal degree in id order, the greedy start
    gives L_i the column R_{i-1} and R_i the column L_{i+1} along most of
    the path, which leaves one augmenting path through about m rows in
    each copy of the double cover."""
    events = [VertexEvent(i, 1.0, Side.RIGHT, []) for i in range(m)]
    events += [VertexEvent(m + j, 1.0, Side.LEFT, [m - 2 - j, m - 1 - j]) for j in range(m - 1)]
    events.append(VertexEvent(2 * m - 1, 1.0, Side.LEFT, [0]))
    return InstanceStream.from_events(events, m)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_triangular(1000),
        lambda: gen_two_phase_matching_hard(300),
        lambda: gen_complete_bipartite(100, 1000),
        lambda: unit_zigzag(sys.getrecursionlimit() + 10),
    ],
    ids=["triangular-1000", "two-phase-300", "complete-100x1000", "unit-zigzag"],
)
def test_unit_solver_equals_scipy_on_hard_families(make):
    check_unit_solver(make())


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
