"""Allocation functions for water-filling cover algorithms.

An allocation function f caps the total neighbor-potential increase at
f(y) when the water level reaches y.  This module houses the three
families used by the engine, the antiderivative F(x) = int_0^x (1-t)/f(t) dt,
the worst-case ratio functional

    beta(f) = max_{z in [0,1]}  1 + f(1-z) + int_z^1 (1-t)/f(t) dt,

the solver for the optimal member of the closed-form family, the
constant-ratio smoothing iteration, and residual checks for the
functional identities the family satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    PreconditionError,
    QuadratureError,
    ValidationError,
)

# 1/(e-1): the additive constant of the classic 1/(1-1/e) water-filling bound.
ALPHA = 1.0 / (math.e - 1.0)

DEFAULT_QUAD_TOL = 1e-10
_QUAD_DEPTH_CAP = 40
_TABLE_SEGMENTS = 4096
_CHECK_GRID = 10_000


def _adaptive_simpson(g, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson on [a, b] to absolute tolerance tol.

    Raises QuadratureError when the recursion depth cap is hit before the
    Richardson error estimate meets tol.
    """
    fa, fb = g(a), g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = g(lm), g(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        if abs(err) <= 15.0 * tol:
            return left + right + err / 15.0
        if depth >= _QUAD_DEPTH_CAP:
            raise QuadratureError(
                f"adaptive Simpson hit depth {depth} on [{a}, {b}] "
                f"with error estimate {abs(err) / 15.0:.3e} > tol {tol:.3e}"
            )
        return recurse(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1) + recurse(
            m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1
        )

    return recurse(a, fa, m, fm, b, fb, whole, tol, 0)


@dataclass(frozen=True)
class QuadratureTable:
    """Cumulative values of F on a uniform grid, with exact node derivatives.

    Evaluation between nodes uses cubic Hermite interpolation, whose error
    is O(h^4) and far below ``tol`` for the smooth integrands handled here.
    """

    grid: np.ndarray
    F_values: np.ndarray
    deriv: np.ndarray
    tol: float

    def __post_init__(self):
        if self.F_values[0] != 0.0:
            raise ValidationError("QuadratureTable: F_values[0] must be 0")
        if np.any(np.diff(self.F_values) < -1e-15):
            raise ValidationError("QuadratureTable: F_values must be nondecreasing")

    def eval(self, x):
        """Hermite-interpolated F at x (scalar or ndarray in [0, 1])."""
        x = np.asarray(x, dtype=float)
        m = len(self.grid) - 1
        h = 1.0 / m
        i = np.clip((x * m).astype(int), 0, m - 1)
        t = x * m - i
        t2 = t * t
        t3 = t2 * t
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h10 = t3 - 2.0 * t2 + t
        h01 = -2.0 * t3 + 3.0 * t2
        h11 = t3 - t2
        out = (
            h00 * self.F_values[i]
            + h10 * h * self.deriv[i]
            + h01 * self.F_values[i + 1]
            + h11 * h * self.deriv[i + 1]
        )
        return float(out) if out.ndim == 0 else out


@dataclass
class BetaReport:
    """Grid maximum of the ratio objective, its argmax, and its spread."""

    beta: float
    argmax_z: float
    spread: float


class AllocationFunction:
    """An evaluable allocation function with cached antiderivative.

    Three kinds:

    * ``linear-alpha``: f(z) = z + 1/(e-1), the optimal choice when all
      offline vertices arrive first.
    * ``family-k``: f(z) = ((1+k)/2 - z)^((1+k)/(2k)) (z + (k-1)/2)^((k-1)/(2k))
      for k >= 1; every member makes the ratio objective constant in z,
      and the best member minimizes 1 + f(0).
    * ``greedy``: f(z) = 1 - z, the k = 1 endpoint of the family (with
      0^0 := 1), equivalent to a variant of the greedy algorithm.

    Construction checks, on a 10^4-node grid, that f > 0 on [0, 1) with
    f(1) >= 0, and that (1-t)/f(t) is nonincreasing.  Instances are
    immutable after construction and safe to share across runs.
    """

    def __init__(self, kind: str, k: float | None = None):
        if kind not in ("linear-alpha", "family-k", "greedy"):
            raise ValidationError(f"unknown allocation kind {kind!r}")
        if kind == "family-k":
            if k is None or not (1.0 <= k < math.inf):
                raise ValidationError("family-k requires a finite k >= 1")
        elif k is not None:
            raise ValidationError(f"kind {kind!r} takes no parameter k")
        self.kind = kind
        self.k = k
        self._table: QuadratureTable | None = None
        self._validate_shape()

    # -- constructors ------------------------------------------------------

    @classmethod
    def linear_alpha(cls) -> "AllocationFunction":
        return cls("linear-alpha")

    @classmethod
    def family(cls, k: float) -> "AllocationFunction":
        return cls("family-k", k=k)

    @classmethod
    def greedy(cls) -> "AllocationFunction":
        return cls("greedy")

    # -- evaluation --------------------------------------------------------

    def __call__(self, z):
        """f(z) for scalar or ndarray z in [0, 1]."""
        arr = np.asarray(z, dtype=float)
        if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
            raise DomainError(f"allocation argument outside [0, 1]: {z!r}")
        arr = np.clip(arr, 0.0, 1.0)
        if self.kind == "linear-alpha":
            out = arr + ALPHA
        elif self.kind == "greedy":
            out = 1.0 - arr
        else:
            k = self.k
            a = 0.5 * (1.0 + k) - arr
            b = arr + 0.5 * (k - 1.0)
            e1 = (1.0 + k) / (2.0 * k)
            e2 = (k - 1.0) / (2.0 * k)
            # at k == 1 the second exponent is 0; 0^0 := 1 keeps the
            # family continuous at its greedy endpoint
            with np.errstate(invalid="ignore"):
                out = np.power(np.maximum(a, 0.0), e1) * np.power(
                    np.maximum(b, 0.0), e2
                )
        return float(out) if out.ndim == 0 else out

    def describe(self) -> str:
        if self.kind == "family-k":
            return f"family-k:{self.k:.12g}"
        return self.kind

    def _validate_shape(self):
        t = np.linspace(0.0, 1.0, _CHECK_GRID + 1)
        v = self(t)
        if np.any(v[:-1] <= 0.0) or v[-1] < 0.0:
            raise ValidationError(
                "allocation function must be positive on [0, 1) and >= 0 at 1"
            )
        # (1-t)/f(t) nonincreasing; skip t = 1 where both sides vanish
        ratio = (1.0 - t[:-1]) / v[:-1]
        if np.any(np.diff(ratio) > 1e-12):
            raise ValidationError("(1-t)/f(t) must be nonincreasing on [0, 1]")

    # -- antiderivative ----------------------------------------------------

    def _integrand(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "greedy" or (self.kind == "family-k" and self.k == 1.0):
            # (1-t)/(1-t) is identically 1 once the endpoint is removed
            out = np.ones_like(t)
        else:
            out = (1.0 - t) / self(t)
        return float(out) if out.ndim == 0 else out

    def table(self) -> QuadratureTable:
        """The cached cumulative-integral table (built on first use)."""
        tbl = self._table
        if tbl is None:
            tbl = _build_table(self)
            self._table = tbl
        return tbl

    def F(self, x, tol: float = DEFAULT_QUAD_TOL):
        return F_eval(self, x, tol)


def _build_table(func: AllocationFunction, segments: int = _TABLE_SEGMENTS) -> QuadratureTable:
    """Cumulative integrals of (1-t)/f(t) per segment, Richardson-verified.

    A vectorized two-level Simpson pass handles the smooth bulk; segments
    whose error estimate misses the per-segment budget fall back to the
    scalar adaptive routine.
    """
    seg_tol = 1e-13
    xs = np.linspace(0.0, 1.0, 4 * segments + 1)
    g = np.asarray(func._integrand(xs))
    x0 = xs[0:-1:4]
    h = xs[4] - xs[0]
    g0, g1, g2, g3 = (g[i:-1:4] for i in range(4))
    g4 = g[4::4]
    coarse = h / 6.0 * (g0 + 4.0 * g2 + g4)
    fine = h / 12.0 * (g0 + 4.0 * g1 + 2.0 * g2 + 4.0 * g3 + g4)
    err = (fine - coarse) / 15.0
    vals = fine + err
    bad = np.abs(err) > seg_tol
    for i in np.flatnonzero(bad):
        vals[i] = _adaptive_simpson(func._integrand, x0[i], x0[i] + h, seg_tol)
    F_values = np.concatenate(([0.0], np.cumsum(vals)))
    grid = np.linspace(0.0, 1.0, segments + 1)
    return QuadratureTable(grid=grid, F_values=F_values, deriv=np.asarray(func._integrand(grid)), tol=seg_tol * segments)


def f_eval(func: AllocationFunction, z: float) -> float:
    """Evaluate f at z; DomainError outside [0, 1]."""
    return float(func(z))


def F_eval(func: AllocationFunction, x, tol: float = DEFAULT_QUAD_TOL):
    """F(x) = int_0^x (1-t)/f(t) dt to absolute error tol.

    Served from the cached Hermite table whenever its accuracy covers tol;
    tighter requests run adaptive Simpson directly (QuadratureError if the
    depth cap is hit first).
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise DomainError(f"F argument outside [0, 1]: {x!r}")
    arr = np.clip(arr, 0.0, 1.0)
    if tol >= 1e-11:
        return func.table().eval(arr)
    if arr.ndim == 0:
        if float(arr) == 0.0:
            return 0.0
        return _adaptive_simpson(func._integrand, 0.0, float(arr), tol)
    return np.array([F_eval(func, xi, tol) for xi in arr])


def beta_of(func: AllocationFunction, grid_size: int = 10_000) -> BetaReport:
    """Grid maximum of g(z) = 1 + f(1-z) + F(1) - F(z).

    For every closed-form family member g is constant in z, so the spread
    doubles as a consistency check on f and F together.
    """
    if grid_size < 100:
        raise DomainError("grid_size must be >= 100")
    z = np.linspace(0.0, 1.0, grid_size)
    F1 = float(func.table().eval(1.0))
    g = 1.0 + func(1.0 - z) + F1 - func.table().eval(z)
    i = int(np.argmax(g))
    report = BetaReport(beta=float(g[i]), argmax_z=float(z[i]), spread=float(g.max() - g.min()))
    assert report.beta >= 1.0 + float(np.min(func(1.0 - z))) - 1e-12
    return report


def optimal_k(tol: float = 1e-6) -> "OptimalAllocation":
    """Best closed-form family member: minimize 1 + f_k(0) over k in (1, 3].

    Golden-section search assumes unimodality; the result is cross-checked
    against an independent derivation, the real fixed point of the
    hyperbolic cotangent (the stationarity condition of 1 + f_k(0) reduces
    to coth(k) = k).  The two must agree within 10*tol.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")

    def h(k: float) -> float:
        a = 0.5 * (1.0 + k)
        b = 0.5 * (k - 1.0)
        e1 = (1.0 + k) / (2.0 * k)
        e2 = (k - 1.0) / (2.0 * k)
        f0 = a**e1 * (b**e2 if b > 0.0 else 1.0)
        return 1.0 + f0

    lo, hi = 1.0 + 1e-12, 3.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    hc, hd = h(c), h(d)
    while hi - lo > tol:
        if hc < hd:
            hi, d, hd = d, c, hc
            c = hi - inv_phi * (hi - lo)
            hc = h(c)
        else:
            lo, c, hc = c, d, hd
            d = lo + inv_phi * (hi - lo)
            hd = h(d)
    k_min = 0.5 * (lo + hi)

    # independent cross-check: bisection on coth(k) - k
    a, b = 1.0 + 1e-9, 3.0
    ga = 1.0 / math.tanh(a) - a
    for _ in range(200):
        m = 0.5 * (a + b)
        gm = 1.0 / math.tanh(m) - m
        if (ga > 0.0) == (gm > 0.0):
            a, ga = m, gm
        else:
            b = m
        if b - a < 1e-14:
            break
    k_coth = 0.5 * (a + b)

    if abs(k_min - k_coth) > 10.0 * tol:
        raise ConvergenceError(
            f"optimal k disagrees with coth fixed point: {k_min} vs {k_coth}"
        )
    return OptimalAllocation(k=k_min, beta=h(k_min), k_coth=k_coth)


@dataclass(frozen=True)
class OptimalAllocation:
    k: float
    beta: float
    k_coth: float

    def func(self) -> AllocationFunction:
        return AllocationFunction.family(self.k)


@dataclass
class SmoothedFunction:
    """Result of the constant-ratio smoothing iteration."""

    grid: np.ndarray
    values: np.ndarray
    iterations: int
    residual: float


def ratio_functional(r: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """R(p) = r(p) + int_{1-p}^1 (1-x)/r(x) dx on a uniform grid (trapezoid).

    Grid nodes where r = 0 are tolerated only where the integrand's
    numerator also vanishes (x = 1); anywhere else the result is +inf.
    """
    m = len(grid) - 1
    num = 1.0 - grid
    g = np.full_like(r, np.inf)
    pos = r > 0.0
    g[pos] = num[pos] / r[pos]
    g[(~pos) & (num == 0.0)] = 0.0
    # right cumulative trapezoid: ct[i] = int_{x_i}^1 g
    h = 1.0 / m
    seg = 0.5 * h * (g[:-1] + g[1:])
    ct = np.concatenate((np.cumsum(seg[::-1])[::-1], [0.0]))
    return r + ct[::-1]


def smooth_to_constant(
    r1,
    gamma: float,
    max_iters: int = 10_000,
    tol: float = 1e-5,
    grid_nodes: int = 2001,
) -> SmoothedFunction:
    """Iterate r <- r + gamma - R(r) until R is constantly gamma.

    ``r1`` may be a callable on [0, 1] or an ndarray of node values.  The
    iteration increases r monotonically and keeps R <= gamma at grid level,
    so the sup-norm step size equals the current residual; it stops once
    that drops below tol.

    Raises PreconditionError when R(r1) exceeds gamma anywhere on the grid,
    and ConvergenceError when max_iters passes without the residual
    reaching tol.
    """
    if callable(r1):
        grid = np.linspace(0.0, 1.0, grid_nodes)
        r = np.asarray(r1(grid), dtype=float).copy()
    else:
        r = np.asarray(r1, dtype=float).copy()
        grid = np.linspace(0.0, 1.0, len(r))
    if np.any(r < 0.0) or np.any((r == 0.0) & (grid < 1.0)):
        raise PreconditionError("r1 must be positive on [0, 1)")

    R = ratio_functional(r, grid)
    if np.any(R > gamma + 1e-12):
        worst = int(np.argmax(R - gamma))
        raise PreconditionError(
            f"R(r1) exceeds gamma at p={grid[worst]:.4f}: "
            f"{R[worst]:.6g} > {gamma:.6g}"
        )

    for it in range(1, max_iters + 1):
        step = gamma - R
        r = r + step
        R = ratio_functional(r, grid)
        if float(np.max(np.abs(gamma - R))) < tol:
            residual = float(np.max(np.abs(R - gamma)))
            return SmoothedFunction(grid=grid, values=r, iterations=it, residual=residual)
    raise ConvergenceError(
        f"smoothing iteration did not reach tol={tol} in {max_iters} iterations "
        f"(residual {float(np.max(np.abs(gamma - R))):.3e})"
    )


def ode_residual(k: float, grid_size: int = 2001, h: float = 1e-5) -> float:
    """Max grid residual of f(z) f'(1-z) - (z-1) for a family member.

    f' is taken by central differences of step h; nodes within 2h of the
    endpoints are excluded (the family's exponents make f' one-sidedly
    steep there).
    """
    if k < 1.0:
        raise DomainError("k must be >= 1")
    if not (1e-7 <= h <= 1e-3):
        raise DomainError("h must lie in [1e-7, 1e-3]")
    func = AllocationFunction.family(k)
    z = np.linspace(0.0, 1.0, grid_size)
    z = z[(z >= 2.0 * h) & (z <= 1.0 - 2.0 * h)]
    w = 1.0 - z
    fprime = (func(w + h) - func(w - h)) / (2.0 * h)
    return float(np.max(np.abs(func(z) * fprime - (z - 1.0))))


def product_identity_residual(k: float, grid_size: int = 10_000) -> float:
    """Max grid residual of f(p) f(1-p) - (p - p^2 + (k^2-1)/4)."""
    if k < 1.0:
        raise DomainError("k must be >= 1")
    func = AllocationFunction.family(k)
    p = np.linspace(0.0, 1.0, grid_size)
    c = (k * k - 1.0) / 4.0
    return float(np.max(np.abs(func(p) * func(1.0 - p) - (p - p * p + c))))
