"""Allocation functions for water-filling cover algorithms.

An allocation function f caps the total neighbor-potential increase at
f(y) when the water level reaches y.  This module houses the three
families used by the engine, the antiderivative F(x) = int_0^x (1-t)/f(t) dt
in closed form for each of them, the worst-case ratio functional

    beta(f) = max_{z in [0,1]}  1 + f(1-z) + int_z^1 (1-t)/f(t) dt,

which every function here attains at z = 0, so ``beta_of`` returns
1 + f(1) + F(1) in closed form; the solver for the optimal member of the
closed-form family, the constant-ratio smoothing iteration, and residual
checks for the functional identities the family satisfies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    PreconditionError,
    ValidationError,
)

# 1/(e-1): the additive constant of the classic 1/(1-1/e) water-filling bound.
ALPHA = 1.0 / (math.e - 1.0)

_CHECK_GRID = 10_000

# 1 + f_k(0) is flat at its minimum, so in floats the golden section cannot
# place k closer than about 6.5e-9 to the coth fixed point; a finer tol
# could never pass optimal_k's 10 * tol cross-check.
_MIN_TOL = 1e-9


class QuadratureTable:
    """F(x) = int_0^x (1-t)/f(t) dt of one allocation function, in closed form.

    Every family member, greedy included, solves f(z) f'(1-z) = z - 1, so
    (1-t)/f(t) = d/dt f(1-t) and F(x) = f(1-x) - f(1), computed by calling
    f; linear-alpha integrates to (1+alpha) log1p(x/alpha) - x.  Nothing is
    tabulated.  The engine's steps evaluate F only under linear-alpha (for
    a family member the budget bracket reduces to y + f(1-y), read from the
    f column); the class stays for ``beta_of``, which calls it once per
    run, for ``engine.check_invariants``, and for the benchmark's tracer,
    which counts F calls by patching ``QuadratureTable.eval``.
    """

    def __init__(self, func: "AllocationFunction"):
        self._func = func
        self._f1 = None if func.kind == "linear-alpha" else func(1.0)

    def eval(self, x):
        """F at x (scalar or ndarray in [0, 1]).

        Arguments outside [0, 1] by more than 1e-12, NaN included, raise
        DomainError, the same bounds f uses; inside them x is clamped to
        [0, 1], since 1 - x would otherwise leave f's slack.  A Python float
        (or numpy float64, or a 0-d array) takes a scalar branch that runs
        the same IEEE operations on floats, so its value is bit-identical to
        the array path's; both use ``np.log1p``, which ``math.log1p`` can
        differ from in the last bit.
        """
        if isinstance(x, float):
            if not (-1e-12 <= x <= 1.0 + 1e-12):
                raise DomainError(f"F argument outside [0, 1]: {x!r}")
            x = 0.0 if x < 0.0 else 1.0 if x > 1.0 else float(x)
            if self._f1 is None:
                return (1.0 + ALPHA) * float(np.log1p(x / ALPHA)) - x
            return self._func(1.0 - x) - self._f1
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return self.eval(float(x))
        # min/max propagate NaN, which then fails the comparison
        if x.size and not (x.min() >= -1e-12 and x.max() <= 1.0 + 1e-12):
            raise DomainError(f"F argument outside [0, 1]: {x!r}")
        x = np.minimum(np.maximum(x, 0.0), 1.0)
        if self._f1 is None:
            return (1.0 + ALPHA) * np.log1p(x / ALPHA) - x
        return self._func(1.0 - x) - self._f1


@dataclass
class BetaReport:
    """The worst-case ratio beta(f) of an allocation function."""

    beta: float


class AllocationFunction:
    """An evaluable allocation function with its closed-form antiderivative.

    Three kinds:

    * ``linear-alpha``: f(z) = z + 1/(e-1), the optimal choice when all
      offline vertices arrive first.
    * ``family-k``: f(z) = ((1+k)/2 - z)^((1+k)/(2k)) (z + (k-1)/2)^((k-1)/(2k))
      for k >= 1; every member makes the ratio objective constant in z,
      and the best member minimizes 1 + f(0).
    * ``greedy``: f(z) = 1 - z, the k = 1 endpoint of the family (with
      0^0 := 1), equivalent to a variant of the greedy algorithm.

    Construction checks, on a 10^4-node grid, that f > 0 on [0, 1) with
    f(1) >= 0, and that (1-t)/f(t) is nonincreasing.  ``table()`` returns
    F (see ``QuadratureTable``).  Instances are immutable after
    construction and safe to share across runs.
    """

    def __init__(self, kind: str, k: float | None = None):
        if kind not in ("linear-alpha", "family-k", "greedy"):
            raise ValidationError(f"unknown allocation kind {kind!r}")
        if kind == "family-k":
            # 2k appears in both exponents: k above float max / 2 would make f = 1
            if k is None or not (1.0 <= k and 2.0 * k < math.inf):
                raise ValidationError("family-k requires k >= 1 with 2k finite")
        elif k is not None:
            raise ValidationError(f"kind {kind!r} takes no parameter k")
        self.kind = kind
        self.k = k
        if kind == "family-k":
            # f(z) = (a0 - z)^e1 (z + b0)^e2
            self._a0 = 0.5 * (1.0 + k)
            self._b0 = 0.5 * (k - 1.0)
            self._e1 = (1.0 + k) / (2.0 * k)
            self._e2 = (k - 1.0) / (2.0 * k)
            self._exps = np.array([self._e1, self._e2])  # the scalar branch's one np.power call
        self._validate_shape()
        self._F = QuadratureTable(self)

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
        """f(z) for scalar or ndarray z in [0, 1] (DomainError otherwise, NaN included).

        A Python float (or numpy float64) takes a scalar branch: the same
        domain check and clamp by comparison and the same IEEE operations
        on floats, so its value is bit-identical to the array path's.
        ``family-k`` raises both bases with one ``np.power`` call there
        (two on arrays, where stacking the bases would cost more than the
        call it saves); with ``math.pow`` in its place, f differs in the
        last bit at about one point in ten.
        """
        if isinstance(z, float):
            if not (-1e-12 <= z <= 1.0 + 1e-12):
                raise DomainError(f"allocation argument outside [0, 1]: {z!r}")
            x = 0.0 if z < 0.0 else 1.0 if z > 1.0 else float(z)
            if self.kind == "linear-alpha":
                return x + ALPHA
            if self.kind == "greedy":
                return 1.0 - x
            a, b = np.power((self._a0 - x, x + self._b0), self._exps).tolist()
            return a * b
        arr = np.asarray(z, dtype=float)
        # min/max propagate NaN, which then fails the comparison
        if arr.size and not (arr.min() >= -1e-12 and arr.max() <= 1.0 + 1e-12):
            raise DomainError(f"allocation argument outside [0, 1]: {z!r}")
        arr = np.minimum(np.maximum(arr, 0.0), 1.0)
        if self.kind == "linear-alpha":
            out = arr + ALPHA
        elif self.kind == "greedy":
            out = 1.0 - arr
        else:
            # both bases are >= 0 on [0, 1]; at k == 1 the second exponent
            # is 0, and 0^0 := 1 keeps the family continuous at its greedy
            # endpoint
            out = np.power(self._a0 - arr, self._e1) * np.power(arr + self._b0, self._e2)
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

    def table(self) -> QuadratureTable:
        """This function's antiderivative F."""
        return self._F


def beta_of(func: AllocationFunction) -> BetaReport:
    """beta(f) = max of g(z) = 1 + f(1-z) + F(1) - F(z), which is g(0) = 1 + f(1) + F(1).

    g'(z) = -f'(1-z) - (1-z)/f(z), so z = 0 is the maximum whenever
    f(z) f'(1-z) >= z - 1 on [0, 1].  Every family member, greedy included,
    meets it with equality (g is constant, 1 + f(0)); linear-alpha has
    f' = 1 and meets it strictly (g decreases).  F(0) = 0 exactly, so one
    expression serves every kind.  A NaN from a corrupted f or F raises
    NumericError.
    """
    beta = 1.0 + func(1.0) + float(func.table().eval(1.0))
    if math.isnan(beta):
        raise NumericError(f"beta(f) is NaN for {func.describe()}")
    return BetaReport(beta=beta)


def optimal_k(tol: float = 1e-6) -> "OptimalAllocation":
    """Best closed-form family member: minimize 1 + f_k(0) over k in (1, 3].

    Golden-section search assumes unimodality; the result is cross-checked
    against an independent derivation, the real fixed point of the
    hyperbolic cotangent (the stationarity condition of 1 + f_k(0) reduces
    to coth(k) = k).  The two must agree within 10*tol.  A tol below
    1e-9 is rejected up front: h is so flat at its minimum that floats
    cannot locate k more finely than about 6.5e-9.
    """
    if not (_MIN_TOL <= tol < math.inf):
        raise DomainError(f"tol must be finite and >= {_MIN_TOL:g}, got {tol!r}")

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


def ode_residual(k: float) -> float:
    """Max residual of f(z) f'(1-z) - (z-1) for a family member on 2001 nodes.

    f' is taken by central differences of step h = 1e-5; nodes within 2h
    of the endpoints are excluded (the family's exponents make f'
    one-sidedly steep there).
    """
    if k < 1.0:
        raise DomainError("k must be >= 1")
    func = AllocationFunction.family(k)
    h = 1e-5
    z = np.linspace(0.0, 1.0, 2001)
    z = z[(z >= 2.0 * h) & (z <= 1.0 - 2.0 * h)]
    w = 1.0 - z
    fprime = (func(w + h) - func(w - h)) / (2.0 * h)
    return float(np.max(np.abs(func(z) * fprime - (z - 1.0))))


def product_identity_residual(k: float) -> float:
    """Max residual of f(p) f(1-p) - (p - p^2 + (k^2-1)/4) on 10,000 nodes."""
    if k < 1.0:
        raise DomainError("k must be >= 1")
    func = AllocationFunction.family(k)
    p = np.linspace(0.0, 1.0, 10_000)
    c = (k * k - 1.0) / 4.0
    return float(np.max(np.abs(func(p) * func(1.0 - p) - (p - p * p + c))))
