"""Tests for the online engine: levels, steps, runs, rounding, monitors."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onlinecover import engine
from onlinecover.allocation import ALPHA, AllocationFunction, QuadratureTable, beta_of, optimal_k
from onlinecover.engine import (
    FEAS_EPS,
    INV_EPS,
    LEVEL_EPS,
    Algorithm,
    CoverState,
    MatchingState,
    PrimalDualState,
    WaterCoverState,
    _solve_level,
    check_invariants,
    check_rounding_covers,
    greedy_allocation_step,
    greedy_baseline_step,
    primal_dual_step,
    round_bipartite,
    run_stream,
)
from onlinecover.errors import InvariantViolation, NumericError, SideError, ValidationError
from onlinecover.instance import (
    RANDOM_MODES,
    Side,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    parse_instance,
)
from onlinecover.oracle import (
    brute_force_half_integral,
    fractional_optima_general,
    prefix_optimal_values,
    prefix_ratios,
    static_from_stream,
)

K_STAR = 1.1996786402577338
# fixed point of the optimal family member, mpmath 40 digits
SINGLE_EDGE_LEVEL = 0.5540549715917157

LIN = AllocationFunction.linear_alpha()
FK = AllocationFunction.family(K_STAR)
BETA_STAR = beta_of(FK).beta


# -------------------------------------------------------------- water level


def star_level(neighbors, v_weight, func):
    """One arrival's level, from greedy_allocation_step on a star.

    The leaves have already arrived with the given (potential, weight)
    pairs, and f at their potentials from one array call, as a run would
    have left it; the center arrives adjacent to all of them, so the
    raised vertex ids are the input indices.
    """
    m = len(neighbors)
    cover = WaterCoverState.fresh(m + 1, func)
    cover.weights[:m] = [w for _, w in neighbors]
    cover.y[:m] = [p for p, _ in neighbors]
    if m:
        cover.fy[:m] = func(cover.y[:m])
    cover.arrived = m
    center = VertexEvent(m, v_weight, Side.UNLABELED, np.arange(m, dtype=np.int64))
    _, out = greedy_allocation_step(cover, center, func)
    return out


def test_level_no_neighbors():
    out = star_level([], 1.0, LIN)
    assert out.level == 1.0
    assert out.raised.tolist() == []
    assert not out.saturated


def test_level_two_fresh_neighbors():
    out = star_level([(0.0, 1.0), (0.0, 1.0)], 1.0, LIN)
    assert out.level == pytest.approx(ALPHA, abs=1e-12)
    assert out.saturated
    assert out.raised.tolist() == [0, 1]


@pytest.mark.parametrize("d", [2, 3, 7])
def test_level_d_fresh_neighbors(d):
    # d*y = y + alpha has root alpha/(d-1)
    out = star_level([(0.0, 1.0)] * d, 1.0, LIN)
    assert out.level == pytest.approx(ALPHA / (d - 1), abs=1e-12)


def test_level_zero_weight_arrival():
    # constraint collapses to "raise nothing with positive weight"
    out = star_level([(0.3, 1.0), (0.1, 0.0)], 0.0, FK)
    assert out.level == pytest.approx(0.3, abs=1e-12)
    assert out.saturated
    assert out.raised.tolist() == [1]


@given(
    pots=st.lists(st.floats(0.0, 1.0), min_size=0, max_size=8),
    k=st.floats(1.0, 2.5),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_level_dichotomy_property(pots, k, seed):
    rng = np.random.default_rng(seed)
    ws = rng.uniform(0.1, 3.0, len(pots))
    func = AllocationFunction.family(k)
    v_weight = float(rng.uniform(0.2, 2.0))
    out = star_level(list(zip(pots, ws)), v_weight, func)
    assert (out.level == 1.0) != out.saturated  # exactly one side holds
    lhs = sum(w * max(out.level - p, 0.0) for p, w in zip(pots, ws))
    budget = v_weight * float(func(out.level))
    assert lhs <= budget + 1e-9 * max(1.0, sum(ws))
    if out.saturated:
        assert lhs == pytest.approx(budget, abs=1e-8 * max(1.0, sum(ws), v_weight))
    raised_ids = set(out.raised.tolist())
    assert raised_ids == {i for i, p in enumerate(pots) if p < out.level}


def test_level_certificate_ignores_heavy_neighbor_above_level():
    # f jumps from 2 to 0.01 at 0.3, so the gap t - f(t) never crosses 0 and
    # the bisection ends at |gap| = 1.7; the 1e12 neighbor sits at potential
    # 1.0, above every candidate level, and must not scale the tolerance up
    def jump(t):
        return np.where(np.asarray(t) < 0.3, 2.0, 0.01)

    with pytest.raises(NumericError):
        star_level([(1.0, 1e12), (0.0, 1.0)], 1.0, jump)


def numpy_per_call_level(pots, fs, ws, v_weight, func, f1):
    """The level solve by bisection, as it stood before its secant steps:
    one ``np.searchsorted`` and one f call on a 0-d array per step.  It
    takes the solve's arguments but ignores the f values ``fs`` and
    ``f1``: f is evaluated afresh everywhere, at the level it returns too.
    Its certificate bound is returned as the solve returns it."""
    order = np.argsort(pots, kind="stable")
    sp = pots[order]
    sw = ws[order]
    csw = np.concatenate(([0.0], np.cumsum(sw)))
    cswp = np.concatenate(([0.0], np.cumsum(sw * sp)))

    def gap(t):
        i = int(np.searchsorted(sp, t, side="left"))
        return csw[i] * t - cswp[i] - v_weight * float(func(np.asarray(t)))

    if gap(1.0) <= LEVEL_EPS:
        return 1.0, False, float(func(np.asarray(1.0))), LEVEL_EPS
    lo = 0.0
    if sp.size:
        vals = csw[: sp.size] * sp - cswp[: sp.size] - v_weight * np.asarray(func(sp))
        feas = np.flatnonzero(vals <= 0.0)
        if feas.size:
            lo = float(sp[feas[-1]])
    if gap(lo) > 0.0:
        lo = 0.0
    hi = 1.0
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if gap(mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    residual = abs(gap(lo))
    scale = max(1.0, float(csw[np.searchsorted(sp, lo, side="left")]), v_weight)
    if residual > LEVEL_EPS * scale:
        raise NumericError("water level not certified")
    return lo, True, float(func(np.asarray(lo))), LEVEL_EPS * scale


def level_or_error(solve, pots, ws, v_weight, func):
    """``solve`` on a star whose f values come from one array call of f."""
    try:
        return solve(pots, func(pots), ws, v_weight, func, float(func(1.0)))
    except NumericError:
        return "uncertified"


LEVEL_FUNCS = {
    "linear-alpha": LIN,
    "greedy": AllocationFunction.greedy(),
    "family-k:1": AllocationFunction.family(1.0),
    "family-k:optimal": FK,
    "family-k:2.5": AllocationFunction.family(2.5),
}


WEIGHTS = st.one_of(st.sampled_from([0.0, 1.0, 1e12]), st.floats(0.01, 5.0))


@given(
    star=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
            WEIGHTS,
        ),
        max_size=12,
    ),
    v_weight=WEIGHTS,
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
)
# the root lies within 1e-15 above the 1e12 neighbour's breakpoint: bisection
# cannot certify it, the secant steps may
@example(star=[(0.5, 1e12), (0.49, 1.0)], v_weight=0.01, kind="linear-alpha")
# a stop on bracket width alone returns the breakpoint below the root, where
# the certificate does not yet count the 1e12 neighbours
@example(star=[(0.9988027833363755, 1e12)] * 3, v_weight=2.0, kind="family-k:1")
@settings(max_examples=400, deadline=None)
def test_level_solve_certifies_where_bisection_does(star, v_weight, kind):
    """One-sided contract against the bisection reference: every level it
    certifies is certified too, on the same side of the dichotomy and within
    1e-12, and every star the secant solve rejects the reference rejects.
    The f value returned with a level is f's own there, to the bit."""
    pots = np.array([p for p, _ in star])
    ws = np.array([w for _, w in star])
    func = LEVEL_FUNCS[kind]
    fast = level_or_error(_solve_level, pots, ws, v_weight, func)
    slow = level_or_error(numpy_per_call_level, pots, ws, v_weight, func)
    if slow != "uncertified":
        assert fast != "uncertified"
        assert fast[1] == slow[1]
        assert abs(fast[0] - slow[0]) <= 1e-12
    if fast != "uncertified":
        assert fast[2] == float(func(np.asarray(fast[0])))
    if fast == "uncertified":
        assert slow == "uncertified"


@given(
    star=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
            WEIGHTS,
        ),
        max_size=40,
    ),
    v_weight=WEIGHTS,
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
)
@settings(max_examples=300, deadline=None)
def test_level_solve_list_branch_is_bitwise_numpy_branch(star, v_weight, kind):
    """Below ``_LIST_DEGREE`` neighbors the level solve sorts and sums on
    lists; forced to either branch at every degree it returns the same
    level, f value and certificate bound to the bit, on the same side of
    the dichotomy, or
    rejects the star on both (tied potentials, zero and 1e12 weights
    included)."""
    pots = np.array([p for p, _ in star])
    ws = np.array([w for _, w in star])
    func = LEVEL_FUNCS[kind]
    results = []
    for threshold in (0, len(star) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_LIST_DEGREE", threshold)
            out = level_or_error(_solve_level, pots, ws, v_weight, func)
        results.append(
            out if isinstance(out, str) else (out[0].hex(), out[1], out[2].hex(), out[3].hex())
        )
    assert results[0] == results[1]


@given(
    star=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0)),
            WEIGHTS,
        ),
        max_size=40,
    ),
    v_weight=WEIGHTS,
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
)
@example(star=[(0.25, 1.0), (0.25, 0.0), (0.5, 1e12)], v_weight=0.0, kind="greedy")
@settings(max_examples=300, deadline=None)
def test_feasible_breakpoints_are_a_prefix(star, v_weight, kind):
    """The level solve bisects for its bracket because H(t) = C(t) t - P(t)
    - v_weight f(t) is convex with H(0) <= 0: the sorted breakpoints with
    H <= 0 come first.  H is taken in the solve's own arithmetic: prefix
    sums in ``np.cumsum``'s order, a tie group judged at its first entry,
    f from one array call."""
    pots = np.array([p for p, _ in star])
    ws = np.array([w for _, w in star])
    func = LEVEL_FUNCS[kind]
    order = np.argsort(pots, kind="stable")
    sp, sw = pots[order], ws[order]
    csw = np.concatenate(([0.0], np.cumsum(sw)))
    cswp = np.concatenate(([0.0], np.cumsum(sw * sp)))
    first = np.searchsorted(sp, sp, side="left")
    feasible = (csw[first] * sp - cswp[first] - v_weight * func(sp) <= 0.0).tolist()
    assert feasible == sorted(feasible, reverse=True)


def run_or_error(stream, algo, func):
    try:
        return run_stream(stream, algo, func)
    except (NumericError, InvariantViolation) as exc:
        return type(exc)


@given(
    n=st.integers(1, 8),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(RANDOM_MODES),
    weights=st.lists(WEIGHTS, min_size=8, max_size=8),
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
)
@settings(max_examples=100, deadline=None)
def test_weighted_trajectories_match_bisection(n, p, seed, mode, weights, kind):
    """Whole runs with the secant level solve and the per-step monitors on:
    the cover is within beta of the exact optimum, the invariants hold when
    recomputed from scratch, and the cover cost is that of a run whose level
    solve is the bisection reference (one-sided, as for a single level)."""
    base = gen_random(n, p, seed=seed, mode=mode)
    stream = dataclasses.replace(base, weights=np.array(weights[:n]))
    func = LEVEL_FUNCS[kind]
    beta = beta_of(func).beta
    opt = brute_force_half_integral(stream)
    wmax = max(1.0, max(weights[:n]))
    # each level is resolved to about 1e-15, which moves a 1e12-weighted
    # cost by about 1e-3: cost slack is relative plus that resolution times
    # the total weight, with room for 8 arrivals
    resolution = 1e-13 * sum(weights[:n])
    # the final and the prefix oracle agree with the enumeration on weights
    opt_slack = 1e-9 * max(1.0, opt) + resolution
    assert abs(fractional_optima_general(stream).min_cover_value - opt) <= opt_slack
    assert abs(prefix_optimal_values(stream)[-1] - opt) <= opt_slack
    for algo in ("waterfill", "primal-dual"):
        run = run_or_error(stream, algo, func)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_solve_level", numpy_per_call_level)
            ref = run_or_error(stream, algo, func)
        if run is NumericError:
            assert ref is run
            continue
        assert not isinstance(run, type), run
        cost = run.cover.total_cost
        slack = 1e-9 * max(1.0, cost) + resolution
        assert cost <= beta * opt + slack
        if not isinstance(ref, type):
            assert abs(cost - ref.cover.total_cost) <= slack
        if algo == "primal-dual":
            rep = check_invariants(run.cover, run.matching, func, run.beta, stream)
            assert rep.max_inv1_slack <= INV_EPS * wmax
            # a 1e12-weight arrival can leave a coupling residual the level
            # certificates allow, which the run carries in inv2_bound
            scale = max(1.0, cost)
            assert rep.inv2_rel_slack * scale <= INV_EPS * scale + run.matching.inv2_bound
            assert rep.min_edge_gap >= -FEAS_EPS
            assert rep.max_capacity_excess <= FEAS_EPS * wmax


@given(
    n=st.integers(1, 30),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(RANDOM_MODES),
    weights=st.lists(WEIGHTS, min_size=30, max_size=30),
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
)
@settings(max_examples=150, deadline=None)
def test_step_budget_slacks_match_the_slow_path(n, p, seed, mode, weights, kind):
    """The steps read each budget bracket from the f column (linear-alpha
    evaluates F); with the monitors on, every arrived vertex's slack is the
    one re-derived from f and F at its potential and its arrival potential,
    as ``check_invariants`` derives it, within INV_EPS * max(1, w_u).  A
    level no solve certifies ends the run early; the arrivals before it
    are checked."""
    base = gen_random(n, p, seed=seed, mode=mode)
    stream = dataclasses.replace(base, weights=np.array(weights[:n]))
    func = LEVEL_FUNCS[kind]
    alg = Algorithm("primal-dual", func, n)
    try:
        for ev in stream:
            alg.step(ev)
    except NumericError:
        pass
    a = alg.cover.arrived
    assert alg.steps == a
    w, y, z = alg.cover.weights[:a], alg.cover.y[:a], alg.matching.z_arrival[:a]
    tbl = func.table()
    rhs = w * ((y + func(1.0 - z) + tbl.eval(y) - tbl.eval(z)) / alg.beta)
    slow = alg.matching.x_agg[:a] - rhs
    fast = alg.matching.inv1_slack[:a]
    assert np.all(np.abs(fast - slow) <= INV_EPS * np.maximum(1.0, w))


def test_level_solve_f_calls_per_arrival(monkeypatch):
    # bisection took 49 calls per arrival here; the secant steps brought
    # primal-dual to 11.7 scalar calls and 0.9 array calls (the breakpoint
    # pass); reading f at the breakpoints and at 1 from the cover state
    # brought it to 9.3 scalar calls and 1.9 F calls; reading the budget
    # bracket from that state too, it makes 6.4 scalar calls, all in the
    # water-filling step, none on arrays, and F only once, in beta_of
    func = optimal_k().func()
    stream = gen_random(1000, 0.01, seed=7)
    calls = {"scalar": 0, "array": 0, "F": 0}
    call, evaluate = AllocationFunction.__call__, QuadratureTable.eval

    def counted(self, z):
        calls["scalar" if isinstance(z, float) else "array"] += 1
        return call(self, z)

    def counted_F(self, x):
        calls["F"] += 1
        return evaluate(self, x)

    monkeypatch.setattr(AllocationFunction, "__call__", counted)
    monkeypatch.setattr(QuadratureTable, "eval", counted_F)
    run_stream(stream, "primal-dual", func)
    assert calls["array"] == 0
    assert calls["scalar"] <= 7 * len(stream)
    assert calls["F"] <= 1


@given(
    n=st.integers(1, 40),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
    mode=st.sampled_from(RANDOM_MODES),
    weights=st.lists(WEIGHTS, min_size=40, max_size=40),
    kind=st.sampled_from(sorted(LEVEL_FUNCS)),
    algo=st.sampled_from(["waterfill", "primal-dual"]),
)
@settings(max_examples=150, deadline=None)
def test_cached_f_column_is_f_at_the_potentials(n, p, seed, mode, weights, kind, algo):
    """The steps keep f(y_u) for every arrived u beside y_u: after a run,
    or after the step that raised, the column equals one array call of f
    on the potentials, bit for bit."""
    base = gen_random(n, p, seed=seed, mode=mode)
    stream = dataclasses.replace(base, weights=np.array(weights[:n]))
    func = LEVEL_FUNCS[kind]
    alg = Algorithm(algo, func, n)
    try:
        for ev in stream:
            alg.step(ev)
    except (NumericError, InvariantViolation):
        pass
    a = alg.cover.arrived
    assert a >= len(alg.rows)
    assert alg.cover.fy[:a].tobytes() == func(alg.cover.y[:a]).tobytes()
    assert alg.cover.f1 == float(func(np.ones(1))[0])


# -------------------------------------------------------------------- steps


def single_edge_stream():
    return parse_instance("offline 0\n0 1.0 - 0\n1 1.0 - 1 0\n")


def test_isolated_arrival():
    stream = parse_instance("offline 0\n0 1.0 - 0\n")
    cover = WaterCoverState.fresh(1, LIN)
    cover, out = greedy_allocation_step(cover, stream.event(0), LIN)
    assert out.level == 1.0
    assert cover.y[0] == 0.0
    assert cover.total_cost == 0.0


def test_first_online_arrival_complete_bipartite():
    d = 10
    stream = gen_complete_bipartite(d, 1)
    cover = WaterCoverState.fresh(d + 1, LIN)
    for ev in stream:
        cover, out = greedy_allocation_step(cover, ev, LIN)
    assert out.level == pytest.approx(ALPHA / (d - 1), abs=1e-12)
    assert cover.y[d] == pytest.approx(1.0 - ALPHA / (d - 1), abs=1e-12)
    assert cover.total_cost == pytest.approx(1.0 + ALPHA, abs=1e-10)


@pytest.mark.parametrize("algo", engine.ALGOS)
def test_step_rejects_events_out_of_id_order(algo):
    """Vertices arrive in id order: a step rejects an event that skips
    ahead of the arrival count and an event that arrived before."""
    first, second = single_edge_stream()
    alg = Algorithm(algo, FK, 2)
    with pytest.raises(ValidationError, match="out of order"):
        alg.step(second)
    alg.step(first)
    with pytest.raises(ValidationError, match="out of order"):
        alg.step(first)
    assert alg.cover.arrived == 1 and len(alg.rows) == 1


@pytest.mark.parametrize("algo", engine.ALGOS)
def test_step_rejects_neighbours_that_have_not_arrived(algo):
    """A bare event is checked for its neighbours' range before any state
    changes: one at or above its own id, or a negative one, is rejected."""
    alg = Algorithm(algo, FK, 3)
    for nbrs in ([2], [0], [-1]):
        event = VertexEvent(0, 1.0, Side.UNLABELED, np.array(nbrs))
        with pytest.raises(ValidationError, match="earlier arrivals") as exc:
            alg.step(event)
        assert exc.value.event == 0
    assert alg.cover.arrived == 0 and len(alg.rows) == 0
    assert not alg.cover.y.any() and alg.cover.total_cost == 0.0


def test_single_edge_primal_dual_closed_form():
    stream = single_edge_stream()
    trace = run_stream(stream, "primal-dual", FK)
    assert trace.rows["level"][1] == pytest.approx(SINGLE_EDGE_LEVEL, abs=1e-9)
    edge = stream.edge_offsets[1]  # edge (0, 1)
    assert trace.matching.x[edge] == pytest.approx(1.0 / BETA_STAR, abs=1e-9)
    # cover potentials split the edge exactly
    assert trace.cover.y[0] + trace.cover.y[1] == pytest.approx(1.0, abs=1e-12)
    assert trace.rows["inv2_slack"][1] < 1e-12


def test_primal_dual_invariants_random_run():
    stream = gen_random(120, 0.15, seed=5)
    trace = run_stream(stream, "primal-dual", FK)
    assert trace.rows["inv1_slack"].max() < 1e-8
    assert trace.rows["inv2_slack"].max() < 1e-8
    assert trace.feas_slack > -1e-9
    # primal feasibility: capacities never exceeded
    assert float(np.max(trace.matching.x_agg - trace.cover.weights)) < 1e-9


def test_row_inv1_is_the_maximum_over_every_vertex():
    """The row's inv1_slack is a running maximum, rescanned only when the
    vertex holding it moves (four times here); it equals the
    maximum over every vertex at every step."""
    stream = gen_random(60, 0.2, seed=1)
    alg = Algorithm("primal-dual", FK, len(stream))
    for ev in stream:
        alg.step(ev)
        assert alg.rows["inv1_slack"][-1] == float(np.max(alg.matching.inv1_slack))
    assert alg.matching.inv1_rescans > 0


def test_a_nan_fails_the_monitors_and_reaches_the_report(monkeypatch, capsys):
    """F returns NaN once, at a different call per run: under linear-alpha,
    the one kind whose steps evaluate F, the step that reads it raises, and
    so the CLI exits 1.  The from-scratch checker never raises; a NaN edge
    value reaches every field it feeds."""
    from onlinecover.harness import cli_main

    stream = gen_random(60, 0.2, seed=1)
    argv = ["simulate", "--gen", "random:60,0.2", "--seed", "1", "--algo", "primal-dual",
            "--f", "linear-alpha"]
    evaluate = QuadratureTable.eval
    for target in range(4, 80, 12):
        calls = 0

        def nan_once(self, x):
            nonlocal calls
            calls += 1
            return np.nan if calls == target else evaluate(self, x)

        alg = Algorithm("primal-dual", LIN, len(stream))
        monkeypatch.setattr(QuadratureTable, "eval", nan_once)
        with pytest.raises(InvariantViolation):
            for ev in stream:
                alg.step(ev)
        # the raising step advanced the cover but wrote no row
        assert len(alg.rows) == alg.cover.arrived - 1
        assert len(alg.to_csv().splitlines()) == 1 + len(alg.rows)
        calls = 0
        assert cli_main(argv) == 1
        assert "failed at vertex" in capsys.readouterr().err
        monkeypatch.setattr(QuadratureTable, "eval", evaluate)

    trace = run_stream(stream, "primal-dual", FK)
    trace.matching.x[stream.edge_offsets[30]] = np.nan
    rep = check_invariants(trace.cover, trace.matching, FK, trace.beta, stream)
    assert np.isnan(rep.max_inv1_slack)
    assert np.isnan(rep.inv2_rel_slack)
    assert np.isnan(rep.max_capacity_excess)


def test_a_nan_from_f_fails_the_budget_monitor(monkeypatch):
    """Family kinds read the budget bracket from the f column: f returns NaN
    at one step's arrival potential 1 - level, so the column holds NaN
    there, and the raised neighbours' slacks, which read it, fail that
    step and no later one."""
    stream = gen_random(60, 0.2, seed=1)
    clean = run_stream(stream, "primal-dual", FK)
    call = AllocationFunction.__call__
    for k in (2, 21, 57):  # steps that raise neighbours
        z_k = 1.0 - float(clean.rows["level"][k])

        def nan_at_z_k(self, z):
            return np.nan if isinstance(z, float) and z == z_k else call(self, z)

        monkeypatch.setattr(AllocationFunction, "__call__", nan_at_z_k)
        alg = Algorithm("primal-dual", FK, len(stream))
        with pytest.raises(InvariantViolation, match="budget invariant"):
            for ev in stream:
                alg.step(ev)
        monkeypatch.setattr(AllocationFunction, "__call__", call)
        assert alg.steps == k and np.isnan(alg.cover.fy[k])
        assert alg.rows.tobytes() == clean.rows[:k].tobytes()


def budget_slack_by_loop(cover, matching, func, beta):
    """The largest budget slack, one arrived vertex at a time on scalars."""
    tbl = func.table()
    worst = -np.inf
    for u in range(cover.arrived):
        zu, yu = matching.z_arrival[u], cover.y[u]
        rhs = cover.weights[u] * (
            (yu + float(func(1.0 - zu)) + float(tbl.eval(yu)) - float(tbl.eval(zu))) / beta
        )
        worst = max(worst, float(matching.x_agg[u] - rhs))
    return worst


def test_check_invariants_stepwise():
    # the dense stream has arrivals with eight or more raised neighbours,
    # whose edge values numpy sums pairwise rather than one at a time
    for stream in (gen_random(40, 0.25, seed=8), gen_random(60, 0.5, seed=0)):
        cover = WaterCoverState.fresh(len(stream), FK)
        matching = PrimalDualState.fresh(len(stream))
        for ev in stream:
            cover, matching, _ = primal_dual_step(cover, matching, ev, FK, BETA_STAR)
            rep = check_invariants(
                cover, matching, FK, BETA_STAR, static_from_stream(stream, ev.id + 1)
            )
            # the array form does the loop's arithmetic, to the bit
            assert rep.max_inv1_slack == budget_slack_by_loop(cover, matching, FK, BETA_STAR)
            assert rep.max_inv1_slack < 1e-8
            assert rep.inv2_rel_slack < 1e-8
            assert rep.min_edge_gap > -1e-9
            assert rep.max_capacity_excess < 1e-9


def weighted_stream(seed: int):
    """Random general-graph arrivals with integer weights in 1..5."""
    base = gen_random(70, 0.15, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    weights = [float(rng.integers(1, 6)) for _ in range(len(base))]
    return dataclasses.replace(base, weights=np.array(weights))


def test_weighted_primal_dual_bounds_and_invariants():
    for seed in (0, 1):
        stream = weighted_stream(seed)
        trace = run_stream(stream, "primal-dual", FK)
        assert trace.rows["inv1_slack"].max() < 1e-8
        assert trace.rows["inv2_slack"].max() < 1e-8
        assert trace.feas_slack > -1e-9
        assert float(np.max(trace.matching.x_agg - trace.cover.weights)) < 1e-9
        opt = fractional_optima_general(stream).min_cover_value
        assert trace.cover.total_cost <= BETA_STAR * opt + 1e-6
        assert trace.matching.total_value >= opt / BETA_STAR - 1e-6


def test_edge_values_scale_the_water_filling_lift():
    """The water-filling step reports each raised neighbour's lift
    w_u (level - y_u), y_u before the step: the cost it adds on that
    neighbour.  Primal-dual's edge values are lift / beta * (1 + (1-y)/f(y)),
    to the bit, and 0 on every other new edge."""
    for stream in (gen_random(50, 0.2, seed=3), weighted_stream(2)):
        cover = WaterCoverState.fresh(len(stream), FK)
        matching = PrimalDualState.fresh(len(stream))
        raised = 0
        for ev in stream:
            before, cost = cover.y.copy(), cover.total_cost
            cover, matching, out = primal_dual_step(cover, matching, ev, FK, BETA_STAR)
            nbrs, level = ev.neighbors, out.level
            assert np.array_equal(out.mask, before[nbrs] < level)
            assert np.array_equal(out.raised, nbrs[out.mask])
            for u, lift in zip(out.raised.tolist(), out.lift.tolist()):
                assert lift == cover.weights[u] * (level - before[u])
                assert lift == cover.weights[u] * (cover.y[u] - before[u])
            assert cover.total_cost == cost + float(out.lift.sum()) + ev.weight * (1.0 - level)
            factor = 1.0 + (1.0 - level) / float(FK(level)) if level < 1.0 else 1.0
            xvals = matching.x[stream.edge_offsets[ev.id] : stream.edge_offsets[ev.id + 1]]
            assert xvals[out.mask].tolist() == [x / BETA_STAR * factor for x in out.lift.tolist()]
            assert not xvals[~out.mask].any()
            raised += out.raised.size
        assert raised > 0


def test_waterfill_cover_matches_primal_dual_cover():
    # the dual side of the primal-dual step is exactly the water-filling step
    stream = gen_random(50, 0.2, seed=3)
    a = run_stream(stream, "waterfill", FK)
    b = run_stream(stream, "primal-dual", FK)
    assert a.cover.total_cost == pytest.approx(b.cover.total_cost, abs=1e-12)
    opt = fractional_optima_general(stream).min_cover_value
    assert a.cover.total_cost <= BETA_STAR * opt + 1e-6


def test_corrupted_state_triggers_violation():
    stream = single_edge_stream()
    cover = WaterCoverState.fresh(2, FK)
    matching = PrimalDualState.fresh(2)
    cover, matching, _ = primal_dual_step(cover, matching, stream.event(0), FK, BETA_STAR)
    matching.x_agg[0] += 1.0  # simulate an out-of-band edge-value bug
    with pytest.raises(InvariantViolation):
        primal_dual_step(cover, matching, stream.event(1), FK, BETA_STAR)


def test_understated_beta_shows_up_as_capacity_excess():
    # the two maintained invariants are scale-invariant in beta, so an
    # understated beta must surface in the capacity check instead
    stream = gen_complete_bipartite(2, 12)
    cover = WaterCoverState.fresh(len(stream), FK)
    matching = PrimalDualState.fresh(len(stream))
    for ev in stream:
        cover, matching, _ = primal_dual_step(cover, matching, ev, FK, beta=1.0)
    rep = check_invariants(cover, matching, FK, 1.0, stream)
    assert rep.max_capacity_excess > 0.1
    assert rep.max_inv1_slack < 1e-8  # still consistent internally


def test_check_invariants_fresh_state():
    stream = gen_random(5, 0.5, seed=1)
    rep = check_invariants(
        CoverState.fresh(5), MatchingState.fresh(5), FK, BETA_STAR, static_from_stream(stream, 0)
    )
    assert rep.max_inv1_slack == 0.0
    assert rep.inv2_rel_slack == 0.0


def test_monotone_potentials():
    stream = gen_random(80, 0.2, seed=13)
    cover = WaterCoverState.fresh(len(stream), FK)
    prev = cover.y.copy()
    for ev in stream:
        cover, _ = greedy_allocation_step(cover, ev, FK)
        assert np.all(cover.y >= prev - 1e-15)
        prev = cover.y.copy()


# ----------------------------------------------------------------- baseline


def test_baseline_single_edge():
    trace = run_stream(single_edge_stream(), "greedy")
    assert trace.matching.total_value == 1.0
    assert trace.cover.total_cost == 2.0


def test_baseline_star_ratio_two():
    text = "offline 1\n0 1.0 L 0\n" + "".join(
        f"{i} 1.0 R 1 0\n" for i in range(1, 7)
    )
    stream = parse_instance(text)
    trace = run_stream(stream, "greedy")
    assert trace.matching.total_value == 1.0
    assert trace.cover.total_cost == 2.0
    opt = fractional_optima_general(stream).min_cover_value
    assert trace.cover.total_cost / opt == 2.0


def test_baseline_triangle_any_order():
    stream = parse_instance("offline 0\n0 1.0 - 0\n1 1.0 - 1 0\n2 1.0 - 2 0 1\n")
    trace = run_stream(stream, "greedy")
    assert trace.matching.total_value == 1.0
    assert trace.cover.total_cost == 2.0  # integral optimum is also 2


def test_baseline_matches_lowest_unmatched_neighbor():
    # 2 takes the lowest free neighbor 0; 3 finds 0 matched and takes 1
    stream = parse_instance(
        "offline 0\n0 1.0 - 0\n1 1.0 - 0\n2 1.0 - 2 1 0\n3 1.0 - 2 1 0\n"
    )
    trace = run_stream(stream, "greedy")
    # each arrival's edge values are aligned with its neighbours [1, 0]
    off = stream.edge_offsets
    assert trace.matching.x[off[2] : off[3]].tolist() == [0.0, 1.0]
    assert trace.matching.x[off[3] : off[4]].tolist() == [1.0, 0.0]
    assert trace.matching.total_value == 2.0


def test_baseline_requires_unit_weights():
    stream = parse_instance("offline 0\n0 2.0 - 0\n1 1.0 - 1 0\n")
    with pytest.raises(ValidationError):
        run_stream(stream, "greedy")


# ----------------------------------------------------------------- rounding


def test_round_threshold_cases():
    sides = parse_instance("offline 1\n0 1 L 0\n1 1 R 0\n").side_codes
    assert round_bipartite([0.6, 0.4], sides, 0.5) == {0}
    assert round_bipartite([0.5, 0.5], sides, 0.5) == {0, 1}
    assert round_bipartite([0.5, 0.5], sides, 0.4) == {0}
    assert round_bipartite([0.5, 0.5], sides, 0.6) == {1}
    unlabeled = parse_instance("offline 0\n0 1 L 0\n1 1 - 0\n").side_codes
    with pytest.raises(SideError, match="vertex 1 has no side label"):
        round_bipartite([0.5, 0.5], unlabeled, 0.5)
    with pytest.raises(TypeError):  # sides, not their codes
        round_bipartite([0.5, 0.5], [Side.LEFT, Side.RIGHT], 0.5)


def test_round_monte_carlo_mean():
    stream = gen_complete_bipartite(20, 100)
    trace = run_stream(stream, "waterfill", LIN)
    y = trace.cover.y
    sides = stream.side_codes
    rng = np.random.default_rng(17)
    sizes = []
    for t in rng.uniform(0.0, 1.0, 2000):
        cover = round_bipartite(y, sides, float(t))
        assert check_rounding_covers(stream, cover)
        sizes.append(len(cover))
    assert np.mean(sizes) == pytest.approx(float(y.sum()), rel=0.01)


def test_round_monotone_over_trace():
    stream = gen_complete_bipartite(6, 30)
    cover = WaterCoverState.fresh(len(stream), LIN)
    sides = stream.side_codes
    # at t = 1 every right vertex rounds into the cover, arrived or not
    prev_covers = {t: set() for t in (0.12, 0.5, 0.87, 1.0)}
    for ev in stream:
        cover, _ = greedy_allocation_step(cover, ev, LIN)
        for t, prev in prev_covers.items():
            cur = round_bipartite(cover.y, sides, t)
            assert prev.issubset(cur)
            assert check_rounding_covers(static_from_stream(stream, ev.id + 1), cur)
            prev_covers[t] = cur


# --------------------------------------------------------------------- runs


def test_run_empty_stream():
    stream = parse_instance("offline 0\n")
    trace = run_stream(stream, "waterfill", LIN)
    assert len(trace.rows) == 0
    assert trace.cover.total_cost == 0.0


# float64 columns per arrival: the record's five, weights and potentials,
# then f at the potentials (water-filling, primal-dual), the edge-value
# aggregate (primal-dual, greedy), and the arrival potential and budget slack
# (primal-dual)
RUN_FLOATS = {"waterfill": 5 + 2 + 1, "primal-dual": 5 + 2 + 1 + 1 + 2, "greedy": 5 + 2 + 1}


@pytest.mark.parametrize("algo", engine.ALGOS)
def test_run_record_footprint(algo):
    """A finished run keeps its state and its columnar record: the float
    columns of ``RUN_FLOATS`` per arrival, the edge-value array at most
    twice the edge count, and a few KiB of objects (4-10 KiB measured at
    n = 500-4,000).  Per-arrival objects would cost hundreds of bytes per
    arrival."""
    func = None if algo == "greedy" else FK
    stream = gen_random(1000, 0.01, seed=3)  # about 5 edges per arrival
    run_stream(gen_random(20, 0.3, seed=3), algo, func)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_stream(stream, algo, func)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.rows) == len(stream)
    x_size = 0 if trace.matching is None else trace.matching.x.size
    assert x_size <= 2 * stream.edge_count()
    assert kept <= 8 * RUN_FLOATS[algo] * len(stream) + 8 * x_size + 16 * 1024


def test_run_is_deterministic():
    stream = gen_random(60, 0.3, seed=21)
    a = run_stream(stream, "primal-dual", FK).to_csv()
    b = run_stream(stream, "primal-dual", FK).to_csv()
    assert a == b


def test_run_rejects_bad_args():
    stream = single_edge_stream()
    with pytest.raises(ValidationError):
        run_stream(stream, "quantum")
    with pytest.raises(ValidationError):
        run_stream(stream, "waterfill", func=None)


@pytest.mark.parametrize("algo", ["waterfill", "primal-dual", "greedy"])
def test_stepping_by_hand_equals_run_stream(algo):
    """Each vertex's weight comes from its event alone, so a stepper sized
    by the arrival count alone runs a reweighted stream as run_stream does."""
    func = None if algo == "greedy" else FK
    streams = [gen_random(60, 0.2, seed=4)]
    if algo != "greedy":  # the greedy baseline takes unit weights only
        streams.append(weighted_stream(4))
    for stream in streams:
        alg = Algorithm(algo, func, len(stream))
        for ev in stream:
            alg.step(ev)
        trace = run_stream(stream, algo, func)
        assert alg.rows.tolist() == trace.rows.tolist()
        assert alg.feas_slack == trace.feas_slack
        assert np.array_equal(alg.cover.y, trace.cover.y)
        assert np.array_equal(alg.cover.weights, stream.weights)
        if algo == "primal-dual":
            # the row monitors agree with the from-scratch checker at every prefix
            alg = Algorithm(algo, func, len(stream))
            for ev in stream:
                alg.step(ev)
                row = alg.rows[-1]
                rep = check_invariants(
                    alg.cover, alg.matching, FK, alg.beta, static_from_stream(stream, ev.id + 1)
                )
                assert row["inv1_slack"] == pytest.approx(rep.max_inv1_slack, abs=1e-12)
                assert row["inv2_slack"] == pytest.approx(rep.inv2_rel_slack, abs=1e-12)
    # each algorithm builds only its own state
    expected = {"waterfill": type(None), "primal-dual": PrimalDualState, "greedy": MatchingState}
    assert type(alg.matching) is expected[algo]


def test_csv_schema_and_reparse():
    stream = gen_random(15, 0.4, seed=2)
    for algo in engine.ALGOS:
        trace = run_stream(stream, algo, None if algo == "greedy" else FK)
        lines = trace.to_csv().strip().split("\n")
        assert lines[0] == "step,vertex,level,cover_cost,matching_value,inv1_slack,inv2_slack"
        parsed = [line.split(",") for line in lines[1:]]
        assert len(parsed) == len(stream)
        for i, (row, rec) in enumerate(zip(trace.rows.tolist(), parsed)):
            assert int(rec[0]) == int(rec[1]) == i
            # 17 digits round-trip exactly, in every float column
            assert [float(x) for x in rec[2:]] == list(row)


def test_waterfill_prefix_ratio_bound():
    stream = gen_complete_bipartite(10, 80)
    trace = run_stream(stream, "waterfill", LIN)
    opts = prefix_optimal_values(stream)
    ratio = prefix_ratios(trace.rows["cover_cost"], opts).max()
    assert ratio <= 1.0 + ALPHA + 1e-6


def test_triangular_prefix_ratio_bound():
    stream = gen_triangular(60)
    trace = run_stream(stream, "waterfill", LIN)
    opts = prefix_optimal_values(stream)
    ratio = prefix_ratios(trace.rows["cover_cost"], opts).max()
    assert ratio <= 1.0 + ALPHA + 1e-6


def test_greedy_equivalent_stays_within_factor_two():
    f1 = AllocationFunction.greedy()
    for seed in (1, 2, 3):
        stream = gen_random(60, 0.2, seed=seed)
        trace = run_stream(stream, "waterfill", f1)
        opt = fractional_optima_general(stream).min_cover_value
        if opt > 0:
            assert trace.cover.total_cost <= 2.0 * opt + 1e-6


def test_zero_weight_arrivals_flagged():
    from onlinecover.instance import SkiRentalSpec, reduce_ski_rental

    spec = SkiRentalSpec(states=((0.0, 1.0), (10.0, 0.0)), epsilon=1.0, t_end=5.0)
    stream = reduce_ski_rental(spec)
    trace = run_stream(stream, "waterfill", LIN)
    # the zero rent-difference vertices arrive without raising any cost
    zero = [ev.id for ev in stream if ev.id >= stream.offline_count and ev.weight == 0.0]
    assert zero
    for v in zero:
        assert trace.rows["cover_cost"][v] == trace.rows["cover_cost"][v - 1]
    # the sentinel left vertex is never charged
    assert trace.cover.y[1] == 0.0


@given(seed=st.integers(0, 5000), algo=st.sampled_from(["waterfill", "primal-dual"]))
@settings(max_examples=15, deadline=None)
def test_dual_feasibility_property(seed, algo):
    stream = gen_random(40, 0.25, seed=seed)
    trace = run_stream(stream, algo, FK)
    u, v = stream.edge_arrays()
    if u.size:
        assert float(np.min(trace.cover.y[u] + trace.cover.y[v])) >= 1.0 - 1e-9
