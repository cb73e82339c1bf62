"""Online algorithms: water-filling cover, primal-dual cover+matching.

A step processes one arrival: solve for the water level y, raise lagging
neighbors to y, give the newcomer potential 1-y.  The primal-dual variant
additionally writes edge values that keep the cover cost exactly beta
times the matching value; the greedy baseline matches each arrival to its
lowest-id unmatched neighbor.

``Algorithm`` is the one stepper and the only record of a run: it
validates its arguments, builds only the state its algorithm needs,
dispatches each arrival to the step function, runs the per-step monitors
(dual feasibility of the revealed edges and the two primal-dual
invariants) and records one row per arrival.  ``run_stream`` drives it
over a whole stream and returns it; the adaptive adversary in ``harness``
drives it one arrival at a time and reads its rows and potentials back.
Monitor violations beyond tolerance raise (they indicate a bug, not an
expected runtime condition).

States are owned by a single run and mutated in place; allocation
functions are shared read-only.
"""

from __future__ import annotations

import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .allocation import AllocationFunction, beta_of
from .errors import (
    InvariantViolation,
    NumericError,
    SideError,
    ValidationError,
)
from .instance import InstanceStream, Side, VertexEvent

LEVEL_EPS = 1e-10  # level certificate, relative to the weight it sums
FEAS_EPS = 1e-9
INV_EPS = 1e-8
ALGOS = ("waterfill", "primal-dual", "greedy")


@dataclass
class WaterLevelOutcome:
    """Solved level, the ids of the raised neighbors, and which side of the dichotomy."""

    level: float
    raised: np.ndarray  # int64 ids
    saturated: bool


def _solve_level(pots, ws, v_weight, func):
    """Maximal y <= 1 with sum_u w_u max(y - y_u, 0) <= v_weight * f(y).

    Returns (level, saturated): (1.0, False) when the gap H(t) = C(t) t -
    P(t) - v_weight f(t) at 1 is within LEVEL_EPS of feasible, else the
    crossing of H, certified.  Breakpoints are the sorted neighbor
    potentials; one array call of f finds the last one with H <= 0, which
    brackets the crossing with the next breakpoint above it (or 1).  On
    that segment C and P are constant and H is convex (f is concave), so
    the root is found by regula falsi with the Illinois weight halving,
    keeping H(lo) <= 0 < H(hi).  Each point is clamped 4e-16 inside the
    bracket: the root often sits on a breakpoint, where the unclamped
    secant would only creep towards it.

    The loop stops when the bracket is at most 1e-15 wide and the
    certificate holds at lo, or when lo and hi are adjacent floats; lo is
    returned.  The certificate is |H(lo)| <= LEVEL_EPS times the largest
    weight H sums at lo: the arrival's, or that of the neighbors below lo
    (a heavy neighbor above the level does not loosen it); NumericError
    if it fails.

    The sorted potentials and prefix sums become lists once per arrival,
    so each step is float arithmetic, a ``bisect_left`` and one scalar f
    call.
    """
    order = np.argsort(pots, kind="stable")
    sp = pots[order]
    sw = ws[order]
    csw = np.concatenate(([0.0], np.cumsum(sw)))
    cswp = np.concatenate(([0.0], np.cumsum(sw * sp)))
    sp_l, csw_l, cswp_l = sp.tolist(), csw.tolist(), cswp.tolist()

    def gap(t: float) -> float:
        i = bisect_left(sp_l, t)
        return csw_l[i] * t - cswp_l[i] - v_weight * float(func(t))

    def bound(t: float) -> float:
        return LEVEL_EPS * max(1.0, csw_l[bisect_left(sp_l, t)], v_weight)

    g_hi = gap(1.0)
    if g_hi <= LEVEL_EPS:
        return 1.0, False

    lo, hi = 0.0, 1.0
    if sp.size:
        vals = csw[: sp.size] * sp - cswp[: sp.size] - v_weight * np.asarray(func(sp))
        feas = np.flatnonzero(vals <= 0.0)
        if feas.size:
            lo = sp_l[feas[-1]]
        j = bisect_right(sp_l, lo)
        if j < len(sp_l):  # an infeasible breakpoint: H(hi) = vals[j] > 0
            hi = sp_l[j]
            g_hi = gap(hi)
    g_lo = gap(lo)
    if g_lo > 0.0:
        lo = 0.0
        g_lo = gap(lo)
    a, b = g_lo, g_hi  # interpolation weights; Illinois halves a stale one
    side = 0
    for _ in range(200):
        w = hi - lo
        if w <= 1e-15 and (abs(g_lo) <= bound(lo) or math.nextafter(lo, hi) >= hi):
            break
        if w > 8e-16:
            t = min(max(lo - a * w / (b - a), lo + 4e-16), hi - 4e-16)
        else:
            t = 0.5 * (lo + hi)
        g = gap(t)
        if g <= 0.0:
            lo, g_lo, a = t, g, g
            if side < 0:
                b *= 0.5
            side = -1
        else:
            hi, b = t, g
            if side > 0:
                a *= 0.5
            side = 1
    if abs(g_lo) > bound(lo):
        raise NumericError(
            f"water level not certified: |gap({lo})| = {abs(g_lo):.3e} "
            f"exceeds {bound(lo):.3e}"
        )
    return lo, True


# ------------------------------------------------------------------- states


@dataclass
class CoverState:
    """Monotone fractional cover potentials with arrival values."""

    weights: np.ndarray
    y: np.ndarray
    z_arrival: np.ndarray
    is_arrived: np.ndarray
    total_cost: float = 0.0

    @classmethod
    def fresh(cls, n: int, weights=None) -> "CoverState":
        w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
        return cls(
            weights=w,
            y=np.zeros(n),
            z_arrival=np.zeros(n),
            is_arrived=np.zeros(n, dtype=bool),
        )


@dataclass
class MatchingState:
    """Edge values set once at creation, plus per-vertex aggregates."""

    x_agg: np.ndarray
    x_by_step: dict[int, tuple[np.ndarray, np.ndarray]]
    total_value: float = 0.0

    @classmethod
    def fresh(cls, n: int) -> "MatchingState":
        return cls(x_agg=np.zeros(n), x_by_step={})

    def x_of(self, u: int, v: int) -> float:
        """Value of edge (u, v) where v is the later arrival."""
        nbrs, vals = self.x_by_step[v]
        idx = np.flatnonzero(nbrs == u)
        if idx.size == 0:
            raise KeyError(f"no edge ({u}, {v})")
        return float(vals[idx[0]])


@dataclass(kw_only=True)
class PrimalDualState(MatchingState):
    """Matching plus the primal-dual budget monitor.

    ``inv1_base[u]`` is f(1-z_u) - F(z_u), frozen when u arrives;
    ``inv1_slack[u]`` is the current slack of u's budget inequality, -inf
    until u arrives.
    """

    inv1_base: np.ndarray
    inv1_slack: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "PrimalDualState":
        return cls(
            x_agg=np.zeros(n),
            x_by_step={},
            inv1_base=np.zeros(n),
            inv1_slack=np.full(n, -np.inf),
        )


def _arrive(cover: CoverState, event: VertexEvent):
    if np.any(~cover.is_arrived[event.neighbors]):
        raise ValidationError(f"event {event.id}: neighbor not yet arrived")
    if cover.is_arrived[event.id]:
        raise ValidationError(f"event {event.id} arrived twice")


def greedy_allocation_step(
    cover: CoverState,
    event: VertexEvent,
    func: AllocationFunction,
) -> tuple[CoverState, WaterLevelOutcome]:
    """Water-filling cover update for one arrival (state is mutated)."""
    _arrive(cover, event)
    nbrs = event.neighbors
    pots = cover.y[nbrs]
    level, saturated = _solve_level(pots, cover.weights[nbrs], float(event.weight), func)
    raised_mask = pots < level
    ridx = nbrs[raised_mask]
    cover.total_cost += float(
        np.sum(cover.weights[ridx] * (level - pots[raised_mask]))
    )
    cover.y[ridx] = level
    v = event.id
    cover.y[v] = 1.0 - level
    cover.z_arrival[v] = 1.0 - level
    cover.total_cost += event.weight * (1.0 - level)
    cover.is_arrived[v] = True
    return cover, WaterLevelOutcome(level=level, raised=ridx, saturated=saturated)


def primal_dual_step(
    cover: CoverState,
    matching: PrimalDualState,
    event: VertexEvent,
    func: AllocationFunction,
    beta: float,
) -> tuple[CoverState, PrimalDualState, WaterLevelOutcome]:
    """Cover update as in water-filling, plus edge values for raised neighbors.

    Raised edge (u, v) gets w_u (y - y_u) / beta * (1 + (1-y)/f(y)); other
    new edges get 0.  Both maintained invariants are re-checked for every
    touched vertex; failure beyond tolerance raises InvariantViolation.
    """
    nbrs = event.neighbors
    old_pots = cover.y[nbrs].copy()
    cover, outcome = greedy_allocation_step(cover, event, func)
    level = outcome.level
    v = event.id

    if level < 1.0:
        fy = float(func(level))
        factor = 1.0 + (1.0 - level) / fy if fy > 0.0 else 1.0
    else:
        factor = 1.0  # (1-y)/f(y) vanishes as y -> 1
    raised_mask = old_pots < level
    xvals = np.zeros(nbrs.size)
    xvals[raised_mask] = (
        cover.weights[nbrs[raised_mask]] * (level - old_pots[raised_mask]) / beta * factor
    )
    matching.x_by_step[v] = (nbrs, xvals)
    matching.x_agg[nbrs] += xvals
    xv = float(xvals.sum())
    matching.x_agg[v] += xv
    matching.total_value += xv

    # refresh budget slacks for touched vertices; all others are unchanged
    tbl = func.table()
    zv = cover.z_arrival[v]
    matching.inv1_base[v] = float(func(1.0 - zv)) - float(tbl.eval(zv))
    touched = np.concatenate((nbrs[raised_mask], [v])).astype(np.int64)
    w_t = cover.weights[touched]
    rhs = w_t * (cover.y[touched] + matching.inv1_base[touched] + tbl.eval(cover.y[touched])) / beta
    matching.inv1_slack[touched] = matching.x_agg[touched] - rhs

    worst = float(np.max(matching.inv1_slack[touched]))
    if worst > INV_EPS * max(1.0, float(np.max(w_t))):
        bad = int(touched[int(np.argmax(matching.inv1_slack[touched]))])
        raise InvariantViolation(
            f"budget invariant failed at vertex {bad} (slack {worst:.3e})",
            vertex=bad,
            slack=worst,
        )
    inv2 = abs(cover.total_cost - beta * matching.total_value)
    if inv2 > INV_EPS * max(1.0, cover.total_cost):
        raise InvariantViolation(
            f"cost-coupling invariant failed after vertex {v} "
            f"(|dual - beta*primal| = {inv2:.3e})",
            vertex=v,
            slack=inv2,
        )
    return cover, matching, outcome


def greedy_baseline_step(
    cover: CoverState,
    matching: MatchingState,
    event: VertexEvent,
) -> tuple[CoverState, MatchingState, WaterLevelOutcome]:
    """Match to the lowest-id unmatched arrived neighbor; cover both ends."""
    if event.weight != 1.0 or np.any(cover.weights != 1.0):
        raise ValidationError("greedy baseline requires unit weights")
    _arrive(cover, event)
    v = event.id
    nbrs = event.neighbors
    # an arrived vertex is matched iff its aggregate is nonzero: greedy
    # gives every edge it picks exactly 1.0 and every other edge 0.0
    free = nbrs[matching.x_agg[nbrs] == 0.0]
    raised: list[int] = []
    if free.size:
        partner = int(free.min())
        matching.x_by_step[v] = (nbrs, np.where(nbrs == partner, 1.0, 0.0))
        matching.x_agg[partner] += 1.0
        matching.x_agg[v] += 1.0
        matching.total_value += 1.0
        for u in (partner, v):
            if cover.y[u] < 1.0:
                raised.append(u)
                cover.total_cost += 1.0 - cover.y[u]
                cover.y[u] = 1.0
    else:
        matching.x_by_step[v] = (nbrs, np.zeros(nbrs.size))
    cover.is_arrived[v] = True
    level = 1.0 - cover.y[v]
    return cover, matching, WaterLevelOutcome(
        level=float(level), raised=np.array(raised, dtype=np.int64), saturated=False
    )


# ----------------------------------------------------------------- rounding


def round_bipartite(final_y, sides, t: float) -> set[int]:
    """Threshold rounding: lefts with y >= t, rights with y >= 1 - t.

    With dual-feasible potentials every revealed edge ends up covered, and
    because potentials only rise, a fixed t yields a monotone integral
    cover across the run.
    """
    y = np.asarray(final_y, dtype=float)
    cover: set[int] = set()
    for v, side in enumerate(sides):
        if side is Side.LEFT:
            if y[v] >= t:
                cover.add(v)
        elif side is Side.RIGHT:
            if y[v] >= 1.0 - t:
                cover.add(v)
        else:
            raise SideError(f"vertex {v} has no side label")
    return cover


def check_rounding_covers(stream: InstanceStream, cover: set[int], upto: int | None = None) -> bool:
    u, v = stream.edge_arrays(upto)
    in_cover = np.zeros(len(stream), dtype=bool)
    in_cover[list(cover)] = True
    return bool(np.all(in_cover[u] | in_cover[v]))


# -------------------------------------------------------------------- runs


@dataclass
class StepRow:
    step: int
    vertex: int
    level: float
    cover_cost: float
    matching_value: float
    inv1_slack: float
    inv2_slack: float


class Algorithm:
    """One online run: owns its state, steps arrivals, monitors every step.

    Builds only the state its algorithm needs (a ``MatchingState`` for the
    greedy baseline, a ``PrimalDualState`` for primal-dual, none for
    water-filling) and computes beta for primal-dual.  ``step`` dispatches
    to the step function, checks dual feasibility of the newly revealed
    edges (earlier edges stay feasible because potentials never decrease),
    reads the primal-dual monitors, and appends one ``StepRow``;
    ``feas_slack`` is the most negative y_u + y_v - 1 seen on a revealed edge.
    """

    def __init__(self, algo: str, func: AllocationFunction | None, n: int, weights=None):
        if algo not in ALGOS:
            raise ValidationError(f"unknown algorithm {algo!r}")
        if algo != "greedy" and func is None:
            raise ValidationError(f"{algo} requires an allocation function")
        self.algo = algo
        self.func = None if algo == "greedy" else func  # greedy reads no f
        self.cover = CoverState.fresh(n, weights)
        self.matching: MatchingState | None = None
        self.beta = 0.0
        if algo == "primal-dual":
            self.matching = PrimalDualState.fresh(n)
            self.beta = beta_of(func).beta
        elif algo == "greedy":
            self.matching = MatchingState.fresh(n)
        self.rows: list[StepRow] = []
        self.feas_slack = 0.0

    def step(self, event: VertexEvent) -> StepRow:
        cover, matching = self.cover, self.matching
        inv1 = inv2 = total_match = 0.0
        if self.algo == "waterfill":
            _, outcome = greedy_allocation_step(cover, event, self.func)
        elif self.algo == "primal-dual":
            _, _, outcome = primal_dual_step(cover, matching, event, self.func, self.beta)
            # entries of vertices not yet arrived are -inf
            inv1 = float(np.max(matching.inv1_slack))
            inv2 = abs(cover.total_cost - self.beta * matching.total_value) / max(
                1.0, cover.total_cost
            )
            total_match = matching.total_value
        else:
            _, _, outcome = greedy_baseline_step(cover, matching, event)
            total_match = matching.total_value
        if event.neighbors.size:
            edge_gap = float(np.min(cover.y[event.neighbors] + cover.y[event.id] - 1.0))
            self.feas_slack = min(self.feas_slack, edge_gap)
            if edge_gap < -FEAS_EPS:
                raise InvariantViolation(
                    f"dual feasibility failed at vertex {event.id} "
                    f"(gap {edge_gap:.3e})",
                    vertex=event.id,
                    slack=edge_gap,
                )
        row = StepRow(
            step=len(self.rows),
            vertex=event.id,
            level=outcome.level,
            cover_cost=cover.total_cost,
            matching_value=total_match,
            inv1_slack=inv1,
            inv2_slack=inv2,
        )
        self.rows.append(row)
        return row

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("step,vertex,level,cover_cost,matching_value,inv1_slack,inv2_slack\n")
        for r in self.rows:
            out.write(
                f"{r.step},{r.vertex},{r.level:.17g},{r.cover_cost:.17g},"
                f"{r.matching_value:.17g},{r.inv1_slack:.17g},{r.inv2_slack:.17g}\n"
            )
        return out.getvalue()


def run_stream(
    stream: InstanceStream, algo: str, func: AllocationFunction | None = None
) -> Algorithm:
    """Step every arrival in order through one ``Algorithm`` and return it.

    Fully deterministic: identical inputs give identical rows.
    """
    alg = Algorithm(algo, func, len(stream), stream.weights())
    for event in stream.events:
        alg.step(event)
    return alg


# -------------------------------------------------------------- full checks


@dataclass
class InvariantReport:
    max_inv1_slack: float
    inv2_rel_slack: float
    min_edge_gap: float
    max_capacity_excess: float


def check_invariants(
    cover: CoverState,
    matching: MatchingState,
    func: AllocationFunction,
    beta: float,
    stream: InstanceStream,
    upto: int | None = None,
) -> InvariantReport:
    """Recompute every invariant from scratch over an arrival prefix.

    Independent of the incremental bookkeeping the steps maintain: edge
    values are re-aggregated, totals re-summed, and the per-vertex budget
    inequality re-derived from f and F.  Reports slacks, never raises.
    """
    n = len(stream) if upto is None else upto
    arrived = np.flatnonzero(cover.is_arrived[:n])
    x_agg = np.zeros(len(cover.y))
    total_x = 0.0
    for v in arrived.tolist():
        if v in matching.x_by_step:
            nbrs, vals = matching.x_by_step[v]
            x_agg[nbrs] += vals
            x_agg[v] += vals.sum()
            total_x += float(vals.sum())
    tbl = func.table()
    max_inv1 = -np.inf
    for u in arrived.tolist():
        zu = cover.z_arrival[u]
        rhs = (
            cover.weights[u]
            * (cover.y[u] + float(func(1.0 - zu)) + float(tbl.eval(cover.y[u])) - float(tbl.eval(zu)))
            / beta
        )
        max_inv1 = max(max_inv1, float(x_agg[u] - rhs))
    total_y = float(np.sum(cover.weights[arrived] * cover.y[arrived]))
    inv2 = abs(total_y - beta * total_x) / max(1.0, total_y)
    u, v = stream.edge_arrays(n)
    min_gap = float(np.min(cover.y[u] + cover.y[v] - 1.0)) if u.size else 0.0
    cap_excess = float(np.max(x_agg[arrived] - cover.weights[arrived])) if arrived.size else 0.0
    return InvariantReport(
        max_inv1_slack=max_inv1 if arrived.size else 0.0,
        inv2_rel_slack=inv2,
        min_edge_gap=min_gap,
        max_capacity_excess=cap_excess,
    )
