"""Output checks for the benchmark's workloads.

Each check reads the CLI's summary line and the objects the command's
public entry points returned, recomputes what it can from scratch, and
yields (name, passed, detail).  Checks run after the command has
returned, outside every timed region.
"""

from __future__ import annotations

import math
import random
import re

COVER_RATIO_BOUND = 1.9011     # beta = 1.90076, rounded up
MATCHING_RATIO_BOUND = 0.5259  # 1 / beta = 0.52610, rounded down
ONE_SIDED_BOUND = 1.5820       # 1 / (1 - 1/e) = 1.58198, rounded up
INV_EPS = 1e-8
FEAS_EPS = 1e-9
ADVERSARY_TOL = 1e-6
PREFIX_SAMPLE = 8


def parse_summary(text: str) -> dict[str, str]:
    """Fields of the last ``#summary,k=v,...`` line (values may hold lists)."""
    lines = [ln for ln in text.splitlines() if ln.startswith("#summary,")]
    if not lines:
        return {}
    return dict(re.findall(r"([A-Za-z_]+)=(\[[^\]]*\]|[^,]*)", lines[-1][len("#summary,"):]))


def _unit_steps(values):
    """Unit-weight bipartite prefix optima: an arrival adds at most one edge
    to a maximum matching and removes none."""
    steps = set(float(d) for d in values[1:] - values[:-1])
    return "prefix values grow by 0 or 1", steps <= {0.0, 1.0}, sorted(steps)


def pd_sparse_general(pkg, captured, summary, seed):
    stream, func, trace = captured["run_stream"]
    beta = pkg.allocation.beta_of(func).beta
    rep = pkg.engine.check_invariants(trace.cover, trace.matching, func, beta, stream)
    yield "inv1 from scratch", rep.max_inv1_slack < INV_EPS, rep.max_inv1_slack
    yield "inv2 from scratch", rep.inv2_rel_slack < INV_EPS, rep.inv2_rel_slack
    yield "feasibility from scratch", rep.min_edge_gap > -FEAS_EPS, rep.min_edge_gap
    cover = float(summary["cover_ratio"])
    yield "cover ratio", cover <= COVER_RATIO_BOUND, cover
    matching = float(summary["matching_ratio"])
    yield "matching ratio", matching >= MATCHING_RATIO_BOUND, matching


def waterfill_prefix_triangular(pkg, captured, summary, seed):
    ratio = float(summary["cover_ratio"])
    yield "worst-prefix ratio", ratio <= ONE_SIDED_BOUND, ratio
    stream, values = captured["prefix_optimal_values"]
    n = len(stream)
    yield _unit_steps(values)
    online = range(stream.offline_count + 1, n)  # prefixes with edges, but the last
    sample = sorted(random.Random(seed).sample(online, PREFIX_SAMPLE)) + [n]
    for j in sample:
        g = pkg.oracle.static_from_stream(stream, j)
        fresh = pkg.oracle.fractional_optima_general(g).min_cover_value
        yield f"prefix {j} from scratch", float(values[j - 1]) == fresh, (float(values[j - 1]), fresh)


def ski_rental_weighted(pkg, captured, summary, seed):
    reduced = float(summary["reduced_optimum"])
    strategy = float(summary["strategy_optimum"])
    yield "reduced optimum equals strategy optimum", reduced == strategy, (reduced, strategy)
    sentinel = float(summary["sentinel_potential"])
    yield "sentinel potential", sentinel == 0.0, sentinel


def adversary_alternating(pkg, captured, summary, seed):
    outcome = captured["adaptive_adversary_vc"]
    beta = pkg.allocation.beta_of(pkg.harness.resolve_allocation("optimal")).beta
    ratio = float(summary["ratio"])
    yield "ratio within beta", ratio <= beta + ADVERSARY_TOL, (ratio, beta)
    yield "summary ratio matches outcome", ratio == outcome.ratio, (ratio, outcome.ratio)
    finite = all(math.isfinite(float(r)) for r in outcome.prefix_ratios)
    yield "prefix ratios finite", finite, len(outcome.prefix_ratios)
    yield _unit_steps(captured["prefix_optimal_values"][1])


CHECKS = {
    "pd-sparse-general": pd_sparse_general,
    "waterfill-prefix-triangular": waterfill_prefix_triangular,
    "ski-rental-weighted": ski_rental_weighted,
    "adversary-alternating": adversary_alternating,
}
