"""Tests for allocation functions, the ratio functional, and identities.

Reference values were frozen from 40-digit mpmath evaluations of the
closed forms: the coth fixed point, f_k(0), and analytic antiderivatives.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from onlinecover.allocation import (
    ALPHA,
    AllocationFunction,
    QuadratureTable,
    beta_of,
    ode_residual,
    optimal_k,
    product_identity_residual,
    ratio_functional,
    smooth_to_constant,
)
from onlinecover.errors import (
    ConvergenceError,
    DomainError,
    NumericError,
    PreconditionError,
    ValidationError,
)

K_STAR = 1.1996786402577338  # real fixed point of coth, mpmath 40 digits
BETA_STAR = 1.9007616968738465  # 1 + f_{k*}(0)
F0_AT_1_1997 = 0.9007616973416453  # f_k(0) at the rounded k = 1.1997


# ------------------------------------------------------------- evaluating f


def test_family_k1_is_one_minus_z():
    f = AllocationFunction.family(1.0)
    assert f(0.3) == pytest.approx(0.7, abs=1e-15)
    # 0^0 := 1 keeps the k = 1 member continuous at z = 0
    assert f(0.0) == 1.0


def test_linear_alpha_at_zero():
    f = AllocationFunction.linear_alpha()
    assert f(0.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-15)
    assert ALPHA == pytest.approx(0.5819767068693265, abs=1e-16)


def test_family_at_optimum_equals_beta_minus_one():
    f = AllocationFunction.family(1.1997)
    v = f(0.0)
    assert v == pytest.approx(F0_AT_1_1997, abs=1e-12)
    # agrees with the 1.901 ratio to three decimals
    assert round(v, 3) == round(BETA_STAR - 1.0, 3) == 0.901


def test_f_eval_domain_errors():
    f = AllocationFunction.linear_alpha()
    with pytest.raises(DomainError):
        f(-0.2)
    with pytest.raises(DomainError):
        f(1.2)


BRANCH_FUNCS = {
    "linear-alpha": AllocationFunction.linear_alpha(),
    "greedy": AllocationFunction.greedy(),
    "family-k:1": AllocationFunction.family(1.0),
    "family-k:optimal": AllocationFunction.family(K_STAR),
    "family-k:2.5": AllocationFunction.family(2.5),
}
BRANCH_POINTS = np.linspace(0.0, 1.0, 10_001).tolist() + [0.0, 1.0, -1e-12, 1.0 + 1e-12]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("kind", sorted(BRANCH_FUNCS))
def test_scalar_branch_is_bitwise_array_branch(kind):
    """The level solve evaluates f on a whole array of breakpoints and on
    scalars in between, so both branches must agree to the bit: on
    1-element arrays, on the whole point array, and on slices of odd
    length (a vector loop's tail included)."""
    f = BRANCH_FUNCS[kind]
    tbl = f.table()
    arr = np.array(BRANCH_POINTS)
    parts = [slice(None), slice(3, 10_006), slice(1, 8)]
    scalar_f = [f(x) for x in BRANCH_POINTS]
    assert all(type(v) is float for v in scalar_f)
    assert np.array_equal(bits(scalar_f), bits([f(np.array([x]))[0] for x in BRANCH_POINTS]))
    for part in parts:
        assert np.array_equal(bits(scalar_f)[part], bits(f(arr[part])))
    scalar_F = [tbl.eval(x) for x in BRANCH_POINTS]
    assert np.array_equal(
        bits(scalar_F), bits([tbl.eval(np.array([x]))[0] for x in BRANCH_POINTS])
    )
    for part in parts:
        assert np.array_equal(bits(scalar_F)[part], bits(tbl.eval(arr[part])))


@pytest.mark.parametrize("kind", sorted(BRANCH_FUNCS))
def test_f1_is_f_at_one(kind):
    """The level solve, F and beta read f(1) from ``f1``: f's own value at
    1, to the bit, on either branch."""
    f = BRANCH_FUNCS[kind]
    assert type(f.f1) is float
    assert bits(f.f1) == bits(f(1.0)) == bits(f(np.ones(1))[0])


@pytest.mark.parametrize("kind", sorted(BRANCH_FUNCS))
def test_out_of_range_raises_on_both_branches(kind):
    f = BRANCH_FUNCS[kind]
    tbl = f.table()
    for x in (-2e-12, 1.0 + 2e-12, -0.5, 1.5, 2.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            f(x)
        with pytest.raises(DomainError):
            f(np.array([x]))
        with pytest.raises(DomainError):
            tbl.eval(x)
        with pytest.raises(DomainError):
            tbl.eval(np.array([0.5, x]))


def test_nan_is_a_domain_error():
    f = AllocationFunction.family(K_STAR)
    for arg in (math.nan, np.float64("nan"), np.array(math.nan), np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            f(arg)
        with pytest.raises(DomainError):
            f.table().eval(arg)


def test_construction_rejects_bad_k():
    with pytest.raises(ValidationError):
        AllocationFunction.family(0.8)
    # 2k = inf would make both exponents 0 and f = 1; just below, f is built
    with pytest.raises(ValidationError, match="2k finite"):
        AllocationFunction.family(1e308)
    assert AllocationFunction.family(8e307)(0.5) > 1e307
    with pytest.raises(ValidationError):
        AllocationFunction("no-such-kind")


# ---------------------------------------------------------------- F


def test_F_at_zero_is_zero():
    for f in (
        AllocationFunction.greedy(),
        AllocationFunction.linear_alpha(),
        AllocationFunction.family(K_STAR),
    ):
        assert f.table().eval(0.0) == 0.0
        assert f.table().eval(np.array([0.0, -1e-12]))[1] == 0.0


def test_F_greedy_is_the_identity():
    F = AllocationFunction.greedy().table()
    assert F.eval(0.5) == pytest.approx(0.5, abs=1e-12)
    assert F.eval(1.0) == pytest.approx(1.0, abs=1e-12)


def test_F_linear_alpha_closed_form():
    # int_0^x (1-t)/(t+a) dt = (1+a) ln((x+a)/a) - x; at x = 1 this is a
    # because (a+1) ln(1+1/a) = 1+a for a = 1/(e-1)
    f = AllocationFunction.linear_alpha()
    assert (ALPHA + 1.0) * math.log(1.0 + 1.0 / ALPHA) == pytest.approx(
        1.0 + ALPHA, abs=1e-14
    )
    assert f.table().eval(1.0) == pytest.approx(ALPHA, abs=1e-10)
    x = 0.37
    expected = (1.0 + ALPHA) * math.log((x + ALPHA) / ALPHA) - x
    assert f.table().eval(x) == pytest.approx(expected, abs=1e-10)


def _allocation(kind):
    """A family member for a number k, else the named kind."""
    if isinstance(kind, float):
        return AllocationFunction.family(kind)
    return AllocationFunction(kind)


@pytest.mark.parametrize(
    "k", [1.05, K_STAR, 1.5, 2.0, 1.0, 2.5, 3.0, "linear-alpha", "greedy"]
)
@pytest.mark.parametrize("x", [0.1, 0.5, 0.9, 1.0])
def test_F_matches_independent_quadrature(k, x):
    f = _allocation(k)
    ref, err = quad(lambda t: (1.0 - t) / float(f(t)), 0.0, x, epsabs=1e-13, epsrel=1e-13)
    assert f.table().eval(x) == pytest.approx(ref, abs=1e-12)


def test_F_monotone_and_finite():
    f = AllocationFunction.family(1.3)
    xs = np.linspace(0.0, 1.0, 257)
    vals = f.table().eval(xs)
    assert np.all(np.diff(vals) >= -1e-14)
    assert np.isfinite(vals[-1])


# ---------------------------------------------------------------- beta_of


def test_beta_greedy_is_two_and_flat():
    rep = beta_of(AllocationFunction.greedy())
    assert rep.beta == pytest.approx(2.0, abs=1e-9)


def test_beta_at_optimal_k():
    rep = beta_of(AllocationFunction.family(K_STAR))
    assert rep.beta == pytest.approx(BETA_STAR, abs=1e-9)


def test_beta_linear_alpha():
    # g(z) = 2 + 2a - z - F(z) is decreasing, so the max sits at z = 0
    # with value 2 + 2a (analytic; no flatness for this function)
    rep = beta_of(AllocationFunction.linear_alpha())
    assert rep.beta == pytest.approx(2.0 + 2.0 * ALPHA, abs=1e-9)


@pytest.mark.parametrize(
    "func",
    [AllocationFunction.family(k) for k in (1.0, 1.05, K_STAR, 1.5, 2.5, 3.0)]
    + [AllocationFunction.linear_alpha(), AllocationFunction.greedy()],
    ids=lambda f: f.describe(),
)
def test_beta_is_the_grid_maximum_of_the_objective(func):
    # beta_of returns g(0) in closed form; the maximum of g over a grid is
    # the reference it replaced, and rounding may lift that a few ulps
    z = np.linspace(0.0, 1.0, 10_000)
    F = func.table().eval
    g = 1.0 + func(1.0 - z) + F(1.0) - F(z)
    beta = beta_of(func).beta
    assert beta == 1.0 + func(1.0) + F(1.0)
    assert 0.0 <= g.max() - beta <= 4 * np.spacing(beta)


def test_beta_rejects_corrupted_table(monkeypatch):
    # a NaN from F poisons beta; the check must raise, also under -O
    f = AllocationFunction.family(K_STAR)
    monkeypatch.setattr(QuadratureTable, "eval", lambda self, x: np.full(np.shape(x), np.nan))
    with pytest.raises(NumericError):
        beta_of(f)


@pytest.mark.parametrize("k", [1.05, 1.1997, 1.5])
def test_every_family_member_has_flat_objective(k):
    # flatness holds across the family; optimality picks the member with
    # the smallest constant, so spread alone does not identify it.  beta_of
    # reads g at z = 0 only, so the flatness is measured on the trapezoid
    # of ratio_functional, which does not use the closed-form F
    f = AllocationFunction.family(k)
    grid = np.linspace(0.0, 1.0, 10_000)
    assert np.ptp(ratio_functional(f(grid), grid)) < 1e-6
    assert beta_of(f).beta == pytest.approx(1.0 + f(0.0), abs=1e-8)


# ---------------------------------------------------------------- optimal_k


def test_optimal_k_brackets():
    res = optimal_k(1e-6)
    assert 1.1992 <= res.k <= 1.2002
    assert 1.9001 <= res.beta <= 1.9011
    assert abs(res.k - K_STAR) < 1e-5
    assert abs(res.beta - BETA_STAR) < 1e-9


def test_optimal_k_coth_cross_check():
    res = optimal_k(1e-6)
    k = res.k
    assert abs(math.cosh(k) / math.sinh(k) - k) < 1e-4
    assert abs(res.k_coth - K_STAR) < 1e-10


def test_greedy_endpoint_of_family():
    # 1 + f_1(0) = 2: the flat objective of the k = 1 member
    assert 1.0 + AllocationFunction.family(1.0)(0.0) == 2.0


def test_optimal_k_rejects_bad_tol():
    with pytest.raises(DomainError):
        optimal_k(-1.0)
    # below 1e-9 float h cannot place k within 10 * tol of the coth fixed
    # point: a domain error naming the floor, not a failed cross-check
    with pytest.raises(DomainError, match="1e-09"):
        optimal_k(1e-10)
    res = optimal_k(1e-9)
    assert abs(res.k - res.k_coth) <= 1e-8


# ---------------------------------------------------------------- smoothing


def test_smoothing_fixed_point_of_optimal_member():
    res = optimal_k(1e-8)
    f = res.func()
    grid = np.linspace(0.0, 1.0, 2001)
    r1 = np.asarray(f(grid))
    out = smooth_to_constant(r1, res.beta - 1.0, max_iters=100, tol=1e-5)
    # already satisfies the constant-ratio condition; nothing moves beyond
    # grid-quadrature noise
    assert np.max(np.abs(out.values - r1)) < 1e-4
    assert out.residual < 1e-4


def test_smoothing_from_linear_start():
    out = smooth_to_constant(lambda p: 1.1 * (1.0 - p), 2.0, max_iters=10_000, tol=1e-5)
    assert out.residual < 1e-4
    R = ratio_functional(out.values, out.grid)
    assert np.max(np.abs(R - 2.0)) < 1e-4
    # iterates never decrease
    assert np.all(out.values >= 1.1 * (1.0 - out.grid) - 1e-12)


def test_smoothing_initial_functional_matches_analytic():
    grid = np.linspace(0.0, 1.0, 2001)
    r1 = 1.1 * (1.0 - grid)
    R1 = ratio_functional(r1, grid)
    expected = 1.1 * (1.0 - grid) + grid / 1.1
    # trapezoid + the removable endpoint keep this within O(h)
    assert np.max(np.abs(R1 - expected)) < 5e-4


def test_smoothing_precondition_rejected():
    with pytest.raises(PreconditionError):
        smooth_to_constant(lambda p: 0.01 + 0.0 * p, 2.0)


@pytest.mark.parametrize(
    "r1,gamma,grid_nodes",
    [
        (lambda p: 1.1 * (1.0 - p), math.nan, 2001),
        (lambda p: 1.1 * (1.0 - p), math.inf, 2001),
        (lambda p: 1.1 * (1.0 - p), 2.0, 1),
        (lambda p: 1.1 * (1.0 - p), 2.0, 0),
        (np.array([1.0]), 2.0, 2001),
        (np.array([]), 2.0, 2001),
    ],
)
def test_smoothing_rejects_degenerate_parameters(r1, gamma, grid_nodes):
    """A non-finite gamma, or a grid of fewer than 2 nodes, is rejected
    before the first iteration."""
    with pytest.raises(PreconditionError):
        smooth_to_constant(r1, gamma, grid_nodes=grid_nodes)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-5])
def test_smoothing_rejects_a_bad_tol(tol):
    """A tol that is not finite and > 0 is rejected before the first
    iteration (a nan tol used to run every iteration and report residual 0)."""
    with pytest.raises(PreconditionError, match="tol"):
        smooth_to_constant(lambda p: 1.1 * (1.0 - p), 2.0, max_iters=3, tol=tol)


@pytest.mark.parametrize(
    "r1",
    [
        lambda p: 1.1 * (1.0 - p[:-1]),
        lambda p: 1.1 * (1.0 - np.concatenate((p, p))),
        lambda p: 1.1 * (1.0 - p)[None, :],
        lambda p: 1.1,
        np.ones((2, 5)),
        np.ones((5, 1)),
    ],
    ids=["short", "long", "callable-2d", "scalar", "array-2x5", "array-5x1"],
)
def test_smoothing_rejects_r1_off_the_grid(r1):
    """An r1 that is not one value per grid node, from a callable or an
    array, is a PreconditionError, not numpy's broadcast or index error."""
    with pytest.raises(PreconditionError, match="one value per node"):
        smooth_to_constant(r1, 2.0, grid_nodes=11)


def test_smoothing_exhausts_iterations():
    with pytest.raises(ConvergenceError):
        smooth_to_constant(lambda p: 1.1 * (1.0 - p), 2.0, max_iters=1, tol=1e-12)


# ---------------------------------------------------------------- identities


def test_ode_residual_at_k1_exact():
    assert ode_residual(1.0) < 1e-10


@pytest.mark.parametrize("k", [1.1997, 2.0])
def test_ode_residual_small_across_family(k):
    assert ode_residual(k) < 1e-5


def test_ode_residual_domain():
    with pytest.raises(DomainError):
        ode_residual(0.5)


def test_product_identity_k1():
    assert product_identity_residual(1.0) < 1e-15


@pytest.mark.parametrize("k", [1.1997, 3.0])
def test_product_identity_family(k):
    assert product_identity_residual(k) < 1e-9


# ---------------------------------------------------------------- properties


@given(k=st.floats(min_value=1.0, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_family_shape_properties(k):
    f = AllocationFunction.family(k)
    t = np.linspace(0.0, 1.0, 1001)
    v = np.asarray(f(t))
    assert np.all(v[:-1] > 0.0) and v[-1] >= 0.0
    ratio = (1.0 - t[:-1]) / v[:-1]
    assert np.all(np.diff(ratio) <= 1e-12)


@given(k=st.floats(min_value=1.01, max_value=2.5))
@settings(max_examples=15, deadline=None)
def test_family_objective_flat_property(k):
    # the trapezoid of ratio_functional does not use the closed-form F
    grid = np.linspace(0.0, 1.0, 10_000)
    assert np.ptp(ratio_functional(AllocationFunction.family(k)(grid), grid)) < 1e-6
