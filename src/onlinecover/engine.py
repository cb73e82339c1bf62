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
invariants) and writes one row of floats per arrival.  ``run_stream``
drives it over a whole stream and returns it; the adaptive adversary in
``harness`` drives it one arrival at a time and reads its rows and
potentials back.
Every monitor goes through ``_check``, which raises ``InvariantViolation``
unless the residual is within its bound, so a NaN residual fails too (a
violation indicates a bug, not an expected runtime condition).

An arrival with fewer than ``_LIST_DEGREE`` neighbors is stepped on
Python floats: the steps gather the neighbors' values once and read them
as lists, solve the level, raise and write the potentials, edge values
and slacks one element at a time, and run the monitors, all in numpy's
arithmetic to the bit (its summation order, and its NaN rule for min,
max and argmax), since a numpy call's fixed cost exceeds a short loop.
From ``_LIST_DEGREE`` neighbors they work on arrays.  Either way a run
leaves the same bytes.

States are owned by a single run and mutated in place; each holds only
its algorithm's fields (f at the potentials lives on ``WaterCoverState``:
the level solve reads it, and so does primal-dual's budget refresh, which
for every family member makes no f or F call; the arrival potentials
``z_arrival``, which linear-alpha's budget refresh and
``check_invariants`` read, live on ``PrimalDualState``).  Allocation
functions are shared read-only.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .allocation import AllocationFunction, beta_of
from .errors import InvariantViolation, NumericError, SideError, ValidationError
from .instance import SIDE_CODES, InstanceStream, Side, VertexEvent

LEVEL_EPS = 1e-10  # level certificate, relative to the weight it sums
FEAS_EPS = 1e-9
INV_EPS = 1e-8
ALGOS = ("waterfill", "primal-dual", "greedy")
# the run record's columns, one float64 each; to_csv prefixes step and vertex
ROW_FIELDS = ("level", "cover_cost", "matching_value", "inv1_slack", "inv2_slack")
# below this many neighbors a step works on Python floats (lists), from it on
# on numpy arrays, to the same bits: a call's fixed cost outweighs a short loop
_LIST_DEGREE = 40


class WaterLevelOutcome(NamedTuple):
    """One water-filling step: the solved level, the ids of the raised
    neighbors, whether the level is saturated (below 1), which neighbor
    entries were raised, each raised one's weight w_u and lift
    w_u (level - y_u), f(level), and the level certificate's bound on
    |H(level)|, 0 at level 1 (see ``_solve_level``).

    The four per-neighbor fields are sequences in neighbor order: lists of
    Python ints, bools and floats below ``_LIST_DEGREE`` neighbors, numpy
    arrays from it on, with the same values either way."""

    level: float
    raised: Sequence[int]
    saturated: bool
    mask: Sequence[bool]
    weights: Sequence[float]
    lift: Sequence[float]
    f_level: float
    level_bound: float


def _pairwise_sum(xs) -> float:
    """The sum of a float list, to the bit of numpy's float64 ``add.reduce``
    over the same values as a contiguous array.

    numpy adds its pairwise sum to 0.0 (so -0.0 entries sum to 0.0).  Below
    8 entries that sum adds them one at a time; up to 128 it runs 8
    interleaved sums, each from its first entry, combines them pairwise and
    adds the entries after the last multiple of 8 in turn; above 128 it
    adds the sums of two parts split at n/2 rounded down to a multiple of 8.
    IEEE addition rounds alike in C and Python, so the same order gives the
    same bits (a NaN's payload aside).
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    return 0.0 + _unrolled_sum(xs, 0, n)


def _unrolled_sum(xs, lo: int, n: int) -> float:
    """numpy's pairwise sum of the n >= 8 entries of ``xs`` from ``lo``."""
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _unrolled_sum(xs, lo, half) + _unrolled_sum(xs, lo + half, n - half)
    end = lo + n - n % 8
    acc = []
    for j in range(lo, lo + 8):
        lane = xs[j:end:8]
        total = lane[0]
        for x in lane[1:]:
            total += x
        acc.append(total)
    total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for x in xs[end : lo + n]:
        total += x
    return total


def _first_max(xs) -> int:
    """``np.argmax`` of a nonempty float list: the first NaN, else the first
    largest entry."""
    at, best = 0, xs[0]
    for i, x in enumerate(xs):
        if x != x:
            return i
        if x > best:
            at, best = i, x
    return at


def _numpy_extreme(pick, xs) -> float:
    """``pick`` (``min`` or ``max``) of a nonempty float list, NaN if an
    entry is, as numpy's reductions give (Python's ignore a NaN unless it
    comes first)."""
    for x in xs:
        if x != x:
            return x
    return pick(xs)


def _nan_last(triple):
    """Sort key of a (potential, f, weight) triple: NaN potentials last, as
    ``np.argsort`` puts them."""
    return triple[0] != triple[0], triple[0]


def _solve_level(pots, fs, ws, v_weight, func):
    """Maximal y <= 1 with sum_u w_u max(y - y_u, 0) <= v_weight * f(y).

    ``fs`` holds f at each neighbor potential and ``func.f1`` is f(1):
    every breakpoint is an earlier level or 1 - level, where f was evaluated
    already, so H is evaluated there from these values and f is called only
    at points inside a segment.  Returns (level, f(level), bound) for the
    gap H(t) = C(t) t - P(t) - v_weight f(t): (1.0, f(1), 0.0) when H(1) <= 0,
    else the crossing of H, certified, with the certificate's bound on
    |H(level)|.  Breakpoints are the sorted neighbor potentials.  H is
    convex on [0, 1] (C t - P is convex and piecewise linear, and every f
    kind is concave) and H = -v_weight f <= 0 at the lowest breakpoint, so
    the breakpoints with H <= 0 are a nonempty prefix of the sorted ones.
    H is evaluated at every breakpoint at once, each tie group judged at
    its first entry, where C and P count the potentials strictly below it.
    One bisection over their indices finds the last feasible one, lo, and
    the first infeasible one, hi (or 1), in O(log m) reads.  Inside
    (lo, hi) C and P are the constant sums over the breakpoints up to lo,
    so the root is found by regula falsi with the Illinois weight halving,
    keeping H(lo) <= 0 < H(hi), with no search per step.  Each point is
    clamped 4e-16 inside the bracket: the root often sits on a breakpoint,
    where the unclamped secant would only creep towards it.

    The loop stops when the bracket is at most 1e-15 wide and the
    certificate holds at lo, or when lo and hi are adjacent floats; lo is
    returned, with the f value H was evaluated with there.  The
    certificate is |H(lo)| <= LEVEL_EPS times the largest weight H sums at
    lo: the arrival's, or that of the neighbors below lo (a heavy neighbor
    above the level does not loosen it); NumericError if it fails, NaN
    included.  Neither rule has a floor, so scaling every weight by a power
    of two (short of overflow and underflow) leaves the level to the bit.

    The solve takes arrays, as the step gathers them.  From
    ``_LIST_DEGREE`` neighbors the sort, the prefix sums and H are numpy
    arrays, of which the bisection and the loop read O(log m) entries;
    below it they are lists, as the rest of the step's work is, bit for bit
    as numpy builds them: ``sorted`` is stable like the stable argsort and
    puts a NaN potential last like it, a running sum adds in
    ``np.cumsum``'s order, and a tie group reads the sums at its first
    entry, the one ``searchsorted`` finds.
    """
    m = pots.size
    if m < _LIST_DEGREE:
        sp = pots.tolist()
        # argsort puts a NaN last, where a bare float key would leave it anywhere
        key = _nan_last if any(map(math.isnan, sp)) else itemgetter(0)
        triples = sorted(zip(sp, fs.tolist(), ws.tolist()), key=key)
        sp, sf, cf, h = [], [], [], []
        csw, cswp = [0.0], [0.0]
        c = cp = 0.0
        prev = None
        for p, f, w in triples:
            if p != prev:  # a tie group starts: C and P below it
                prev, c_first, cp_first = p, c, cp
            sp.append(p)
            sf.append(f)
            cf.append(c_first)
            h.append(c_first * p - cp_first - v_weight * f)
            c += w
            cp += w * p
            csw.append(c)
            cswp.append(cp)
        at = list.__getitem__
        below1 = bisect_left(sp, 1.0)
    else:
        order = np.argsort(pots, kind="stable")
        sp, sw = pots[order], ws[order]
        csw, cswp = np.zeros(m + 1), np.zeros(m + 1)
        np.cumsum(sw, out=csw[1:])
        np.cumsum(sw * sp, out=cswp[1:])
        at = np.ndarray.item
        below1 = int(sp.searchsorted(1.0))
    g_hi = at(csw, below1) - at(cswp, below1) - v_weight * func.f1
    if g_hi <= 0.0:
        return 1.0, func.f1, 0.0
    if m >= _LIST_DEGREE:
        sf = fs[order]
        first = sp.searchsorted(sp)
        cf = csw[first]
        h = cf * sp - cswp[first] - v_weight * sf
    # the feasible breakpoints are a nonempty prefix: i ends on the last, j on the first infeasible
    i, j, g_lo = 0, m, at(h, 0)
    while j - i > 1:
        k = (i + j) // 2
        g = at(h, k)
        if g <= 0.0:
            i, g_lo = k, g
        else:
            j, g_hi = k, g
    hi = at(sp, j) if j < m else 1.0
    lo, f_lo = at(sp, i), at(sf, i)
    # C and P on (lo, hi) sum the j breakpoints up to lo; at lo itself C is
    # its tie group's, which the certificate reads until lo moves inside
    c, cp, c_lo = at(csw, j), at(cswp, j), at(cf, i)
    a, b = g_lo, g_hi  # interpolation weights; Illinois halves a stale one
    side = 0
    for _ in range(200):
        w = hi - lo
        if w <= 1e-15 and (
            abs(g_lo) <= LEVEL_EPS * max(c_lo, v_weight) or math.nextafter(lo, hi) >= hi
        ):
            break
        if w > 8e-16:
            # min(max(t, floor), ceil) without the calls, NaN passing through alike
            t, floor, ceil = lo - a * w / (b - a), lo + 4e-16, hi - 4e-16
            if floor > t:
                t = floor
            if ceil < t:
                t = ceil
        else:
            t = 0.5 * (lo + hi)
        ft = float(func(t))
        g = c * t - cp - v_weight * ft
        if g <= 0.0:
            lo, f_lo, g_lo, a, c_lo = t, ft, g, g, c
            if side < 0:
                b *= 0.5
            side = -1
        else:
            hi, b = t, g
            if side > 0:
                a *= 0.5
            side = 1
    cert = LEVEL_EPS * max(c_lo, v_weight)
    if not abs(g_lo) <= cert:
        raise NumericError(
            f"water level not certified: |gap({lo})| = {abs(g_lo):.3e} exceeds {cert:.3e}"
        )
    return lo, f_lo, cert


# ------------------------------------------------------------------- states


@dataclass
class CoverState:
    """Monotone fractional cover potentials.

    Vertices arrive in id order, so ``arrived`` counts them: ids below it
    have arrived.  Each vertex's weight is recorded from its event when it
    arrives.
    """

    weights: np.ndarray
    y: np.ndarray
    arrived: int = 0
    total_cost: float = 0.0

    @classmethod
    def fresh(cls, n: int) -> "CoverState":
        return cls(weights=np.zeros(n), y=np.zeros(n))


@dataclass(kw_only=True)
class WaterCoverState(CoverState):
    """Cover potentials plus f at each of them, for the level solve.

    ``fy[u]`` is f(y_u) for every arrived u, written wherever ``y`` is: a
    raised neighbor gets f(level) as the level solve evaluated it, an
    arrival f(1 - level).  The steps keep it to the bit of ``func(y)``; a
    state built by hand must too.
    """

    fy: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "WaterCoverState":
        return cls(weights=np.zeros(n), y=np.zeros(n), fy=np.zeros(n))


@dataclass
class MatchingState:
    """Edge values set once at creation, plus per-vertex aggregates.

    ``x[:edges]`` holds the revealed edges' values in the stream's edge
    order, aligned with ``neighbors``.  Only ``new_edges`` grows ``x``,
    doubling it from ``np.zeros``: unwritten capacity holds no resident
    memory, and a run need not know its edge count in advance.
    """

    x_agg: np.ndarray
    x: np.ndarray = field(default_factory=lambda: np.zeros(0))
    edges: int = 0
    total_value: float = 0.0

    def new_edges(self, k: int) -> np.ndarray:
        """A zeroed view of the next ``k`` edge values, valid until the next call."""
        lo, hi = self.edges, self.edges + k
        if hi > self.x.size:
            x = np.zeros(max(hi, 2 * self.x.size))
            x[:lo] = self.x[:lo]
            self.x = x
        self.edges = hi
        return self.x[lo:hi]

    @classmethod
    def fresh(cls, n: int) -> "MatchingState":
        return cls(x_agg=np.zeros(n))


@dataclass(kw_only=True)
class PrimalDualState(MatchingState):
    """Matching plus the primal-dual monitors' state.

    ``z_arrival[u]`` is 1 - level at u's arrival, the potential u arrived
    with; the budget inequality reads it (the steps only under
    linear-alpha, ``check_invariants`` always).  ``inv1_slack[u]`` is the
    current slack of u's budget inequality, -inf until u arrives.
    ``inv1_max`` is the largest slack, held by ``inv1_argmax``: a step
    changes only the slacks it touches, so the maximum is rescanned over
    every vertex only when its holder's slack moved, which
    ``inv1_rescans`` counts.  ``inv2_slack`` is the last step's relative
    cost-coupling residual |cost - beta * value| / cost (0 at cost 0).
    ``inv1_bound`` and ``inv2_bound`` are the budget slack and the
    absolute coupling residual that the steps' level certificates allow
    so far (see ``primal_dual_step``).  The monitors fail on a NaN slack
    or residual: a step that would leave one raises instead.
    """

    z_arrival: np.ndarray
    inv1_slack: np.ndarray
    inv1_max: float = -math.inf
    inv1_argmax: int = 0
    inv1_rescans: int = 0
    inv2_slack: float = 0.0
    inv1_bound: float = 0.0
    inv2_bound: float = 0.0

    def track_max(self, vertex: int, value: float) -> None:
        """Update the maximum after a step whose largest touched slack is
        ``value`` at ``vertex``."""
        if self.inv1_slack[self.inv1_argmax] != self.inv1_max:
            self.inv1_argmax = int(np.argmax(self.inv1_slack))
            self.inv1_max = float(self.inv1_slack[self.inv1_argmax])
            self.inv1_rescans += 1
        elif value > self.inv1_max:
            self.inv1_max, self.inv1_argmax = value, vertex

    @classmethod
    def fresh(cls, n: int) -> "PrimalDualState":
        return cls(
            x_agg=np.zeros(n),
            z_arrival=np.zeros(n),
            inv1_slack=np.full(n, -np.inf),
        )


def _check(residual: float, bound: float, what: str, vertex: int) -> None:
    """Raise ``InvariantViolation`` unless ``residual <= bound``; NaN fails."""
    if not residual <= bound:
        raise InvariantViolation(
            f"{what} failed at vertex {vertex} (residual {residual:.3e}, bound {bound:.3e})",
            vertex=vertex,
            slack=residual,
        )


def _arrive(cover: CoverState, event: VertexEvent, ids: list[int] | None = None):
    # a validated stream's event, but its neighbours index the state: recheck
    # their range, on ``ids`` when the caller has read them as a list
    v, nbrs = event.id, event.neighbors
    if v != cover.arrived:
        raise ValidationError(f"event {v} arrived out of order: expected {cover.arrived}")
    if ids is None:
        out_of_range = nbrs.size and not (nbrs.min() >= 0 and nbrs.max() < v)
    else:
        out_of_range = ids and not (min(ids) >= 0 and max(ids) < v)
    if out_of_range:
        raise ValidationError(f"event {v}: neighbors must reference earlier arrivals", event=v)
    cover.weights[v] = event.weight


def greedy_allocation_step(
    cover: WaterCoverState,
    event: VertexEvent,
    func: AllocationFunction,
) -> tuple[WaterCoverState, WaterLevelOutcome]:
    """Water-filling cover update for one arrival (state is mutated).

    Below ``_LIST_DEGREE`` neighbors everything after the gathers runs on
    Python floats and the outcome holds lists; from it on, numpy arrays.
    """
    nbrs = event.neighbors
    listed = nbrs.size < _LIST_DEGREE
    ids = nbrs.tolist() if listed else None
    _arrive(cover, event, ids)
    pots, ws = cover.y[nbrs], cover.weights[nbrs]
    level, f_level, level_bound = _solve_level(pots, cover.fy[nbrs], ws, float(event.weight), func)
    if listed:
        raised_mask, ridx, w_r, lift = [], [], [], []
        y, fy = cover.y, cover.fy
        for u, p, w in zip(ids, pots.tolist(), ws.tolist()):
            raised = p < level
            raised_mask.append(raised)
            if raised:
                ridx.append(u)
                w_r.append(w)
                lift.append(w * (level - p))
                y[u] = level
                fy[u] = f_level
        cover.total_cost += _pairwise_sum(lift)
    else:
        raised_mask = pots < level
        ridx = nbrs[raised_mask]
        w_r = ws[raised_mask]
        lift = w_r * (level - pots[raised_mask])
        cover.total_cost += float(lift.sum())
        cover.y[ridx] = level
        cover.fy[ridx] = f_level
    v = event.id
    cover.y[v] = 1.0 - level
    cover.fy[v] = float(func(1.0 - level))
    cover.total_cost += event.weight * (1.0 - level)
    cover.arrived += 1
    return cover, WaterLevelOutcome(
        level, ridx, level < 1.0, raised_mask, w_r, lift, f_level, level_bound
    )


def primal_dual_step(
    cover: WaterCoverState,
    matching: PrimalDualState,
    event: VertexEvent,
    func: AllocationFunction,
    beta: float,
) -> tuple[WaterCoverState, PrimalDualState, WaterLevelOutcome]:
    """Cover update as in water-filling, plus edge values for raised neighbors.

    Raised edge (u, v) gets the water-filling step's lift w_u (y - y_u)
    / beta * (1 + (1-y)/f(y)); other new edges get 0.  Both maintained
    invariants are re-checked for every touched vertex (the raised
    neighbors and v; no other slack moves); failure beyond tolerance, or a
    NaN, raises InvariantViolation.

    The budget inequality's right side is w (y + f(1-z) + F(y) - F(z)) /
    beta, z the arrival potential.  v arrives at y = z = 1 - level, so its
    bracket is z + f(level), the level solve's f, for every f.  A family
    member's F(x) = f(1-x) - f(1) makes a raised neighbor's bracket y +
    f(1-y) at the level y, and f(1 - level) is the arrival's ``fy``.  So
    only linear-alpha evaluates F here, for the raised neighbors.

    The level is certified only up to its gap H(y) (see ``_solve_level``),
    and the monitors allow what that leaves, beside their rounding bounds
    (INV_EPS times the largest touched weight, and INV_EPS * cost, with no
    floor).  v's budget slack is H(y) (1 + (1-y)/f(y)) / beta when it
    arrives, and a raise only lowers a slack (beyond rounding), since
    (1-t)/f(t) is nonincreasing: the budget monitor allows the largest of
    these over the arrivals so far.  A step moves cost - beta * value by
    -(1-y)/f(y) H(y): the coupling monitor allows their sum.
    """
    m = event.neighbors.size
    cover, outcome = greedy_allocation_step(cover, event, func)
    level, f_level = outcome.level, outcome.f_level
    v = event.id
    listed = m < _LIST_DEGREE  # then the outcome holds lists

    # (1-y)/f(y), which vanishes as y -> 1
    ratio = (1.0 - level) / f_level if level < 1.0 and f_level > 0.0 else 0.0
    ridx = outcome.raised
    x_agg = matching.x_agg
    xvals = matching.new_edges(m)
    if listed:
        scale = 1.0 + ratio
        xs = [0.0] * m  # the other new edges are 0
        for pos, u, lift in zip(compress(range(m), outcome.mask), ridx, outcome.lift):
            xs[pos] = xvals[pos] = x = lift / beta * scale
            x_agg[u] = x_agg.item(u) + x
        xv = _pairwise_sum(xs)
    else:
        x_r = outcome.lift / beta * (1.0 + ratio)
        xvals[outcome.mask] = x_r
        x_agg[ridx] += x_r
        xv = float(xvals.sum())
    x_agg[v] += xv
    matching.total_value += xv

    # refresh the budget slacks of v and the raised neighbors; the bracket
    # (at most g(z) <= beta) is divided first, which keeps w * (...) <= w finite
    zv = 1.0 - level
    matching.z_arrival[v] = zv
    bracket_v = zv + f_level
    if func.kind != "linear-alpha":
        quota_r = (level + float(cover.fy[v])) / beta
    elif len(ridx):
        tbl = func.table()
        z_r = matching.z_arrival[ridx]
        bracket_r = level + (func(1.0 - z_r) - tbl.eval(z_r)) + float(tbl.eval(level))
        quota_r = bracket_r / beta
    w_v = float(event.weight)
    worst = float(x_agg[v]) - w_v * (bracket_v / beta)
    matching.inv1_slack[v] = worst
    at, w_max = v, w_v
    if len(ridx):
        if listed:
            quotas = quota_r.tolist() if func.kind == "linear-alpha" else repeat(quota_r)
            inv1, slack_r = matching.inv1_slack, []
            for u, w, q in zip(ridx, outcome.weights, quotas):
                inv1[u] = slack = x_agg.item(u) - w * q
                slack_r.append(slack)
            i = _first_max(slack_r)
            w_top = _numpy_extreme(max, outcome.weights)
        else:
            slack_r = x_agg[ridx] - outcome.weights * quota_r
            matching.inv1_slack[ridx] = slack_r
            i = int(np.argmax(slack_r))  # the first NaN, if any
            w_top = float(outcome.weights.max())
        r = float(slack_r[i])
        # as np.argmax over the raised and then v: a tie or a NaN goes to the raised
        if r >= worst or math.isnan(r):
            worst, at = r, int(ridx[i])
        w_max = max(w_max, w_top)
    bound = outcome.level_bound
    matching.inv1_bound = max(matching.inv1_bound, bound * (1.0 + ratio) / beta)
    _check(worst, INV_EPS * w_max + matching.inv1_bound, "budget invariant", at)
    matching.track_max(at, worst)

    matching.inv2_bound += ratio * bound
    cost = cover.total_cost
    residual = abs(cost - beta * matching.total_value)
    matching.inv2_slack = residual / cost if cost else 0.0
    _check(residual, INV_EPS * cost + matching.inv2_bound, "cost-coupling invariant", v)
    return cover, matching, outcome


def greedy_baseline_step(
    cover: CoverState,
    matching: MatchingState,
    event: VertexEvent,
) -> tuple[CoverState, MatchingState, float]:
    """Match to the lowest-id unmatched arrived neighbor; cover both ends.

    Returns the states and the arrival's level 1 - y_v: 0 if it was
    matched, else 1.  It solves no water level.
    """
    if event.weight != 1.0:
        raise ValidationError("greedy baseline requires unit weights")
    _arrive(cover, event)
    v = event.id
    nbrs = event.neighbors
    # an arrived vertex is matched iff its aggregate is nonzero: greedy
    # gives every edge it picks exactly 1.0 and every other edge 0.0
    free = nbrs[matching.x_agg[nbrs] == 0.0]
    xvals = matching.new_edges(nbrs.size)
    if free.size:
        partner = int(free.min())
        xvals[nbrs == partner] = 1.0
        matching.x_agg[partner] += 1.0
        matching.x_agg[v] += 1.0
        matching.total_value += 1.0
        # both ends are unmatched, so at 0: only a match raises a potential
        cover.y[[partner, v]] = 1.0
        cover.total_cost += 2.0
    cover.arrived += 1
    return cover, matching, float(1.0 - cover.y[v])


# ----------------------------------------------------------------- rounding


def round_bipartite(final_y, side_codes, t: float) -> set[int]:
    """Threshold rounding: lefts with y >= t, rights with y >= 1 - t.

    ``side_codes`` are a stream's (``SIDE_CODES``); every vertex needs a
    side.  With dual-feasible potentials every revealed edge ends up
    covered, and because potentials only rise, a fixed t yields a monotone
    integral cover across the run.  A t outside [0, 1], or NaN, is rejected.
    """
    if not 0.0 <= t <= 1.0:
        raise ValidationError(f"rounding threshold must lie in [0, 1], got {t!r}")
    y = np.asarray(final_y, dtype=float)
    codes = np.asarray(side_codes, dtype=np.int64)  # ``Side`` objects raise TypeError
    unlabeled = np.flatnonzero(codes == SIDE_CODES[Side.UNLABELED])
    if unlabeled.size:
        raise SideError(f"vertex {unlabeled[0]} has no side label")
    left = codes == SIDE_CODES[Side.LEFT]
    return set(np.flatnonzero(np.where(left, y >= t, y >= 1.0 - t)).tolist())


def check_rounding_covers(stream: InstanceStream, cover: set[int]) -> bool:
    """Every edge of ``stream`` has an endpoint in ``cover``, which may name
    vertices beyond a prefix."""
    u, v = stream.edge_arrays()
    marked = list(cover)
    return bool(np.all(np.isin(u, marked) | np.isin(v, marked)))


# -------------------------------------------------------------------- runs


class Algorithm:
    """One online run: owns its state, steps arrivals, monitors every step.

    Builds only the state its algorithm needs (for water-filling a
    ``WaterCoverState``, which keeps f at the potentials; for primal-dual
    that and a ``PrimalDualState``; for the greedy baseline a plain
    ``CoverState`` and a ``MatchingState``) and computes beta for
    primal-dual.  ``step`` dispatches to the step function, checks dual
    feasibility of the newly revealed edges (earlier edges stay feasible
    because potentials never decrease), reads the primal-dual monitors,
    and writes the next row of a structured array of ``ROW_FIELDS`` sized
    for n arrivals; ``rows`` is its first ``steps`` rows, row v for vertex
    v.  A step that raises writes no row, though its state may have
    advanced; n < 0, or an event id >= n, raises ``ValidationError`` first.
    ``feas_slack`` is the most negative y_u + y_v - 1 seen on a revealed
    edge.  ``step`` takes the events of a validated stream, as the step
    functions do.
    """

    def __init__(self, algo: str, func: AllocationFunction | None, n: int):
        if algo not in ALGOS:
            raise ValidationError(f"unknown algorithm {algo!r}")
        if algo != "greedy" and func is None:
            raise ValidationError(f"{algo} requires an allocation function")
        self.algo = algo
        self.func = None if algo == "greedy" else func  # greedy reads no f
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValidationError(f"a run's capacity must be an integer >= 0 arrivals, got {n!r}")
        self.cover = CoverState.fresh(n) if algo == "greedy" else WaterCoverState.fresh(n)
        self.matching: MatchingState | None = None
        self.beta = 0.0
        if algo == "primal-dual":
            self.matching = PrimalDualState.fresh(n)
            self.beta = beta_of(func).beta
        elif algo == "greedy":
            self.matching = MatchingState.fresh(n)
        self._record = np.zeros(n, dtype=[(name, float) for name in ROW_FIELDS])
        self.steps = 0
        self.feas_slack = 0.0

    @property
    def rows(self) -> np.ndarray:
        """The completed steps' rows; row i is step i and vertex i."""
        return self._record[: self.steps]

    def step(self, event: VertexEvent) -> None:
        if not event.id < len(self._record):
            raise ValidationError(f"event {event.id} exceeds the capacity of {len(self._record)}")
        cover, matching = self.cover, self.matching
        inv1 = inv2 = total_match = 0.0
        if self.algo == "waterfill":
            level = greedy_allocation_step(cover, event, self.func)[1].level
        elif self.algo == "primal-dual":
            level = primal_dual_step(cover, matching, event, self.func, self.beta)[2].level
            inv1, inv2 = matching.inv1_max, matching.inv2_slack
            total_match = matching.total_value
        else:
            _, _, level = greedy_baseline_step(cover, matching, event)
            total_match = matching.total_value
        nbrs = event.neighbors
        if nbrs.size:
            # rounding is monotone, so the least y_u gives the least y_u + y_v - 1, NaN included
            if nbrs.size < _LIST_DEGREE:
                least = _numpy_extreme(min, cover.y[nbrs].tolist())
            else:
                least = float(cover.y[nbrs].min())
            edge_gap = least + float(cover.y[event.id]) - 1.0
            self.feas_slack = min(self.feas_slack, edge_gap)
            _check(-edge_gap, FEAS_EPS, "dual feasibility", event.id)
        self._record[self.steps] = (level, cover.total_cost, total_match, inv1, inv2)
        self.steps += 1

    def to_csv(self) -> str:
        lines = [",".join(("step", "vertex", *ROW_FIELDS))]
        for i, row in enumerate(self.rows.tolist()):
            lines.append(f"{i},{i}," + ",".join(f"{x:.17g}" for x in row))
        return "\n".join(lines) + "\n"


def run_stream(
    stream: InstanceStream, algo: str, func: AllocationFunction | None = None
) -> Algorithm:
    """Step every arrival in order through one ``Algorithm`` and return it.

    Fully deterministic: identical inputs give identical rows.
    """
    alg = Algorithm(algo, func, len(stream))
    for event in stream:
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
    matching: PrimalDualState,
    func: AllocationFunction,
    beta: float,
    stream: InstanceStream,
) -> InvariantReport:
    """Recompute every invariant from scratch over the arrivals of ``stream``.

    Independent of the incremental bookkeeping the steps maintain: edge
    values are re-aggregated, totals re-summed, and the per-vertex budget
    inequality re-derived from f and F and ``matching.z_arrival``.  Reports
    slacks (the coupling one relative to the cost), never raises; a NaN
    anywhere reaches the fields it feeds.  A prefix is checked by passing
    ``static_from_stream(stream, j)``.
    """
    a = min(cover.arrived, len(stream))
    u, v = stream.edge_arrays()
    max_inv1 = cap_excess = total_x = 0.0
    if a:
        # the steps' arithmetic: each arrival's own edge values summed as one
        # array into a running total, then its later edges one at a time
        off = stream.edge_offsets[: a + 1].tolist()
        m = off[-1]  # the arrived vertices' edges
        x_agg = np.zeros(len(cover.y))
        x_agg[:a] = [matching.x[lo:hi].sum() for lo, hi in zip(off, off[1:])]
        total_x = float(np.cumsum(x_agg[:a])[-1])
        np.add.at(x_agg, u[:m], matching.x[:m])
        w, y, z = cover.weights[:a], cover.y[:a], matching.z_arrival[:a]
        tbl = func.table()
        rhs = w * ((y + func(1.0 - z) + tbl.eval(y) - tbl.eval(z)) / beta)
        max_inv1 = float(np.max(x_agg[:a] - rhs))
        cap_excess = float(np.max(x_agg[:a] - w))
    total_y = float(np.sum(cover.weights[:a] * cover.y[:a]))
    inv2 = abs(total_y - beta * total_x) / total_y if total_y else 0.0
    min_gap = float(np.min(cover.y[u] + cover.y[v] - 1.0)) if u.size else 0.0
    return InvariantReport(
        max_inv1_slack=max_inv1,
        inv2_rel_slack=inv2,
        min_edge_gap=min_gap,
        max_capacity_excess=cap_excess,
    )
