"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts the same condition, including the stated runtime budget.
"""

import math
import time

import numpy as np
import pytest

from onlinecover import allocation, engine, oracle
from onlinecover.allocation import AllocationFunction
from onlinecover.harness import cli_main, run_ski_rental
from onlinecover.instance import (
    InstanceStream,
    Side,
    SkiRentalSpec,
    VertexEvent,
    gen_complete_bipartite,
    gen_random,
    gen_triangular,
    gen_two_phase_matching_hard,
    ski_rental_strategy_optimum,
)

FK = allocation.optimal_k(1e-6).func()
LIN = AllocationFunction.linear_alpha()
BETA = allocation.beta_of(FK).beta


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


# 1. optimal-constant reproduction ------------------------------------------


def test_criterion_1_optimal_constants(capsys):
    t0 = time.monotonic()
    res = allocation.optimal_k(1e-6)
    elapsed = time.monotonic() - t0
    assert cli_main(["optimize-f", "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    k = float(out.split("k = ")[1].split("\n")[0])
    beta = float(out.split("beta = ")[1].split("\n")[0])
    coth_gap = abs(1.0 / math.tanh(res.k) - res.k)
    ok = (
        1.1992 <= k <= 1.2002
        and 1.9001 <= beta <= 1.9011
        and abs(res.k - res.k_coth) <= 1e-4
        and coth_gap <= 1e-4
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"k={k:.6f}, beta={beta:.6f}, coth gap={coth_gap:.2e}, {elapsed:.2f}s < 1s")


# 2. identity suite ----------------------------------------------------------


def test_criterion_2_identities():
    t0 = time.monotonic()
    ode = {k: allocation.ode_residual(k) for k in (1.0, 1.1997, 2.0)}
    prod = {k: allocation.product_identity_residual(k) for k in (1.0, 1.1997, 3.0)}
    # flatness from the trapezoid in ratio_functional, which does not use
    # the closed-form F that beta_of reads
    grid = np.linspace(0.0, 1.0, 10_000)
    spread = {
        k: float(np.ptp(allocation.ratio_functional(AllocationFunction.family(k)(grid), grid)))
        for k in (1.05, 1.1997, 1.5)
    }
    beta1 = allocation.beta_of(AllocationFunction.family(1.0)).beta
    elapsed = time.monotonic() - t0
    ok = (
        all(v < 1e-5 for v in ode.values())
        and all(v < 1e-9 for v in prod.values())
        and all(v < 1e-6 for v in spread.values())
        and abs(beta1 - 2.0) <= 1e-9
        and elapsed < 5.0
    )
    _report(
        2,
        ok,
        f"ode<= {max(ode.values()):.1e}, prod<= {max(prod.values()):.1e}, "
        f"spread<= {max(spread.values()):.1e}, |beta(f_1)-2|={abs(beta1 - 2.0):.1e}, "
        f"{elapsed:.2f}s < 5s",
    )


# 3. constant-ratio smoother -------------------------------------------------


def test_criterion_3_smoother():
    t0 = time.monotonic()
    out = allocation.smooth_to_constant(
        lambda p: 1.1 * (1.0 - p), 2.0, max_iters=10_000, tol=1e-5, grid_nodes=2001
    )
    residual = float(
        np.max(np.abs(allocation.ratio_functional(out.values, out.grid) - 2.0))
    )
    elapsed = time.monotonic() - t0
    ok = residual < 1e-4 and out.iterations <= 10_000 and elapsed < 10.0
    _report(
        3,
        ok,
        f"residual={residual:.2e} < 1e-4 in {out.iterations} iterations, {elapsed:.2f}s < 10s",
    )


# 4. one-sided bipartite optimality ------------------------------------------


def test_criterion_4_bipartite_optimality():
    t0 = time.monotonic()
    ratios = {}
    for name, stream in (
        ("complete(100,2000)", gen_complete_bipartite(100, 2000)),
        ("triangular(1000)", gen_triangular(1000)),
    ):
        trace = engine.run_stream(stream, "waterfill", LIN)
        opts = oracle.prefix_optimal_values(stream)
        ratios[name] = oracle.prefix_ratios(trace.rows["cover_cost"], opts).max()
    elapsed = time.monotonic() - t0
    ok = (
        all(r <= 1.5820 for r in ratios.values())
        and ratios["complete(100,2000)"] >= 1.50
        and elapsed < 30.0
    )
    _report(
        4,
        ok,
        f"worst-prefix ratios {ratios['complete(100,2000)']:.6f}, "
        f"{ratios['triangular(1000)']:.6f} <= 1.5820, {elapsed:.1f}s < 30s",
    )


# 5 + 6. general-graph bounds and per-step invariants -------------------------


@pytest.fixture(scope="module")
def general_graph_runs():
    t0 = time.monotonic()
    runs = []
    seeds = iter(range(1000))
    ps = [0.05] * 17 + [0.1] * 17 + [0.3] * 16
    for p in ps:
        stream = gen_random(200, p, seed=next(seeds))
        trace = engine.run_stream(stream, "primal-dual", FK)
        opt = oracle.fractional_optima_general(stream).min_cover_value
        runs.append((f"random p={p}", trace, opt))
    stream = gen_two_phase_matching_hard(200)
    trace = engine.run_stream(stream, "primal-dual", FK)
    opt = oracle.fractional_optima_general(stream).min_cover_value
    runs.append(("two-phase(200)", trace, opt))
    return runs, time.monotonic() - t0


def test_criterion_5_general_bounds(general_graph_runs):
    runs, elapsed = general_graph_runs
    worst_cover, worst_match = 0.0, 1.0
    for _, trace, opt in runs:
        if opt <= 0.0:
            continue
        worst_cover = max(worst_cover, trace.cover.total_cost / opt)
        worst_match = min(worst_match, trace.matching.total_value / opt)
    ok = worst_cover <= 1.9011 and worst_match >= 0.5259 and elapsed < 120.0
    _report(
        5,
        ok,
        f"{len(runs)} runs: cover ratio <= {worst_cover:.6f}, "
        f"matching ratio >= {worst_match:.6f}, {elapsed:.1f}s < 2min",
    )


def test_criterion_6_invariants(general_graph_runs):
    runs, _ = general_graph_runs
    inv1 = max(trace.rows["inv1_slack"].max() for _, trace, _ in runs)
    inv2 = max(trace.rows["inv2_slack"].max() for _, trace, _ in runs)
    feas = min(trace.feas_slack for _, trace, _ in runs)
    ok = inv1 < 1e-8 and inv2 < 1e-8 and feas > -1e-9
    _report(
        6,
        ok,
        f"per-step slacks: inv1 {inv1:.1e} < 1e-8, inv2 {inv2:.1e} < 1e-8, "
        f"dual feasibility {feas:.1e} > -1e-9",
    )


# 7. oracle cross-validation --------------------------------------------------


def _unit_stream(n, edges):
    """Unit-weight unlabeled stream; vertex j reveals its edges (i, j), i < j."""
    events = tuple(
        VertexEvent(j, 1.0, Side.UNLABELED, [i for i, k in edges if k == j]) for j in range(n)
    )
    return InstanceStream.from_events(events, 0)


def test_criterion_7_oracle_cross_validation():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        p = (0.2, 0.5, 0.8)[trial % 3]
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        g = _unit_stream(n, edges)
        a = oracle.fractional_optima_general(g).min_cover_value
        b = oracle.brute_force_half_integral(g)
        worst = max(worst, abs(a - b))
    tri = oracle.fractional_optima_general(
        _unit_stream(3, [(0, 1), (1, 2), (0, 2)])
    ).min_cover_value
    c5 = oracle.fractional_optima_general(
        _unit_stream(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    ).min_cover_value
    ok = worst <= 1e-12 and tri == 1.5 and c5 == 2.5
    _report(7, ok, f"200 graphs max gap {worst:.1e} <= 1e-12, triangle={tri}, 5-cycle={c5}")


# 8. threshold rounding --------------------------------------------------------


def test_criterion_8_rounding():
    stream = gen_complete_bipartite(50, 500)
    cover = engine.WaterCoverState.fresh(len(stream))
    yu_at_reveal, yv_at_reveal = [], []
    prev = cover.y.copy()
    monotone = True
    for ev in stream:
        cover, _ = engine.greedy_allocation_step(cover, ev, LIN)
        monotone &= bool(np.all(cover.y >= prev - 1e-15))
        prev = cover.y.copy()
        for u in ev.neighbors:
            yu_at_reveal.append(cover.y[u])
            yv_at_reveal.append(cover.y[ev.id])
    yu_r = np.asarray(yu_at_reveal)  # left endpoint potential when edge appears
    yv_r = np.asarray(yv_at_reveal)
    y = cover.y
    y_left, y_right = y[:50], y[50:]
    u_fin, v_fin = stream.edge_arrays()

    rng = np.random.default_rng(99)
    ts = rng.uniform(0.0, 1.0, 10_000)
    valid = True
    for t in ts:
        # covered at reveal time and (by monotonicity) ever after
        if not np.all((yu_r >= t) | (yv_r >= 1.0 - t)):
            valid = False
            break
        if not np.all((y[u_fin] >= t) | (y[v_fin] >= 1.0 - t)):
            valid = False
            break
    sorted_l = np.sort(y_left)
    sorted_r = np.sort(y_right)
    sizes = (50 - np.searchsorted(sorted_l, ts, side="left")) + (
        500 - np.searchsorted(sorted_r, 1.0 - ts, side="left")
    )
    mean = float(np.mean(sizes))
    expected = float(y.sum())
    rel = abs(mean - expected) / expected
    ok = valid and monotone and rel < 0.01
    _report(
        8,
        ok,
        f"10^4 thresholds valid+monotone={valid and monotone}, "
        f"mean size {mean:.3f} vs sum(y) {expected:.3f} (rel {rel:.4f} < 1%)",
    )


# 9. upper-bound family --------------------------------------------------------


def test_criterion_9_triangular_2000():
    t0 = time.monotonic()
    stream = gen_triangular(2000)
    trace = engine.run_stream(stream, "primal-dual", FK)
    opt = oracle.fractional_optima_general(stream).max_matching_value
    ratio = trace.matching.total_value / opt
    elapsed = time.monotonic() - t0
    ok = 0.5259 <= ratio <= 0.6322 and elapsed < 30.0
    _report(9, ok, f"matching ratio {ratio:.6f} in [0.5259, 0.6322], {elapsed:.1f}s < 30s")


# 10. ski rental ----------------------------------------------------------------


def test_criterion_10_ski_rental():
    classical = SkiRentalSpec(states=((0.0, 1.0), (100.0, 0.0)), epsilon=1.0, t_end=300.0)
    _, report = run_ski_rental(classical, "waterfill", LIN)
    ratio_ok = report["worst_prefix_cover_ratio"] <= 1.5820

    rng = np.random.default_rng(12)
    exact = True
    for _ in range(10):
        n = int(rng.integers(2, 5))
        buys = np.concatenate(([0.0], np.sort(rng.integers(1, 50, n - 1)))).astype(float)
        rents = np.sort(rng.integers(0, 12, n))[::-1].astype(float)
        spec = SkiRentalSpec(
            states=tuple(zip(buys, rents)), epsilon=1.0, t_end=float(rng.integers(2, 20))
        )
        _, rep = run_ski_rental(spec, "waterfill", LIN)
        if rep["reduced_optimum"] != ski_rental_strategy_optimum(spec):
            exact = False
    ok = ratio_ok and exact and report["sentinel_potential"] == 0.0
    _report(
        10,
        ok,
        f"classical worst-prefix {report['worst_prefix_cover_ratio']:.6f} <= 1.5820, "
        f"10 multislope optima exact={exact}, sentinel potential {report['sentinel_potential']}",
    )
