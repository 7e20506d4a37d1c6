import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from d1q3rv.scheme import (TAU_MAT, WORKING_SET_BYTES, SchemeParameters, _operands,
                           build_relaxation_matrix, equilibrium_weights, relaxation_factors,
                           relaxation_matrices)
from d1q3rv.stability import (GUARD_BAND, TAU_STAB, _chain_terms, _max, _min, _necessary, _u_zero,
                              _verdict, alpha_feasible, alpha_interval, chain_bounds,
                              gamma_feasible_interval, matrix_entry_verdict, necessary_region,
                              necessary_slacks, nine_inequalities, pinned_gamma,
                              reduced_condition, reduced_parameters,
                              relaxation_entries_closed_form, u_zero_region, u_zero_slacks)


def params(V=0.25, u=0.0, s=1.0, s_prime=1.0, alpha=0.0):
    return SchemeParameters(V=V, u=u, s=s, s_prime=s_prime, alpha=alpha)


def same_bits(a, b) -> bool:
    """Equal float64 bit patterns; any two NaNs count as equal."""
    a, b = np.float64(a), np.float64(b)
    return bool(np.isnan(a) and np.isnan(b)) or a.tobytes() == b.tobytes()


# ---------------------------------------------------------------- nine entries

def test_nine_inequalities_stable_projection_point():
    v = nine_inequalities(params(0.25, 0.0, 1.0, 1.0, 0.0))
    assert v.stable
    assert v.route == "nine"
    assert min(v.slacks) >= 1.25 / 6 - 1e-14


def test_nine_inequalities_negative_entry_point():
    v = nine_inequalities(params(0.25, 0.0, 1.6, 1.3, 4 / 13))
    assert not v.stable
    assert v.slacks[0] == pytest.approx(-0.15, abs=1e-14)
    assert v.min_slack == pytest.approx(-0.15, abs=1e-14)
    assert 0 in v.binding or v.min_slack < -1e-9  # slack 0 is genuinely negative


def test_nine_inequalities_identity_boundary():
    v = nine_inequalities(params(0.7, 0.4, 0.0, 0.0, 1.3))
    assert v.stable
    assert v.slacks == pytest.approx((1, 0, 0, 0, 1, 0, 0, 0, 1), abs=1e-14)
    assert v.binding == (1, 2, 3, 5, 6, 7)


def test_closed_form_matches_matrix_product():
    rng = np.random.default_rng(5)
    for _ in range(300):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        closed = relaxation_entries_closed_form(p.V, p.u, p.s, p.s_prime, p.alpha)
        assert np.max(np.abs(closed - build_relaxation_matrix(p))) <= 1e-12


# ------------------------------------------------------------ reduced variables

def test_reduced_parameters_no_shift():
    r = reduced_parameters(params(0.3, 0.0, 1.7, 0.9, 0.4))
    assert r.u_bar == 0.0
    assert r.gamma == pytest.approx(0.9 * 0.6 / 6, abs=1e-15)


def test_reduced_parameters_equal_rates():
    r = reduced_parameters(params(0.3, 0.8, 1.2, 1.2, -0.5))
    assert r.u_bar == 0.0
    assert r.gamma == pytest.approx(1.2 * 1.5 / 6, abs=1e-15)


def test_reduced_parameters_benchmark_row():
    r = reduced_parameters(params(0.25, 0.25, 1.6, 1.3, -0.17548076923076938))
    assert r.u_bar == pytest.approx(0.15, abs=1e-15)
    assert r.gamma == pytest.approx(0.2359375, abs=1e-15)


def test_reduced_condition_stable_point():
    v = reduced_condition(params(0.25, 0.0, 1.0, 1.0, 0.0))
    assert v.stable and v.route == "reduced"
    assert len(v.slacks) == 5
    # 2 gamma = 1/3 inside [0, 0.75]
    assert v.slacks[0] == pytest.approx(1 / 3, abs=1e-14)
    assert v.slacks[2] == pytest.approx(0.75 - 1 / 3, abs=1e-14)


def test_reduced_condition_empty_chain_point():
    v = reduced_condition(params(0.25, 0.0, 1.6, 1.3, 4 / 13))
    assert not v.stable
    assert v.slacks[2] == pytest.approx(0.0 - 0.3, abs=1e-14)


def test_reduced_condition_zero_rates_boundary():
    v = reduced_condition(params(0.9, 0.6, 0.0, 0.0, 1.7))
    assert v.stable
    assert v.slacks == pytest.approx((1.0, 0.0, 2.0, 0.0, 0.0), abs=1e-14)


def test_three_routes_agree_off_boundary():
    rng = np.random.default_rng(9)
    checked = 0
    while checked < 2000:
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        nine = nine_inequalities(p)
        red = reduced_condition(p)
        ent = matrix_entry_verdict(p)
        margin = min(min(abs(x) for x in nine.slacks), min(abs(x) for x in red.slacks))
        if margin < 1e-9:
            continue
        assert nine.stable == red.stable == ent.stable
        checked += 1


@pytest.mark.parametrize("p", [SchemeParameters(0, 0, 0, -1e308, -1e308),
                               SchemeParameters(1, 1, 1e308, 0, 0)], ids=["R11", "R10"])
def test_nan_slack_makes_the_verdict_unstable(p):
    # overflow leaves NaN entries after finite ones; min() alone would skip them
    with np.errstate(over="ignore", invalid="ignore"):
        verdicts = (nine_inequalities(p), matrix_entry_verdict(p), reduced_condition(p))
    assert np.isnan(verdicts[0].slacks).any() and np.isnan(verdicts[1].slacks).any()
    for v in verdicts:
        assert v.stable is False
        assert np.isnan(v.min_slack) == np.isnan(v.slacks).any()


def test_every_route_gives_python_float_slacks_and_min_slack():
    # the routes hand _verdict Python floats, for NumPy-scalar fields (even rows) too
    for row in _edge_rows()[1]:
        p = SchemeParameters(*row)
        with np.errstate(all="ignore"):   # R's (3, 3) products are array arithmetic
            verdicts = (nine_inequalities(p), matrix_entry_verdict(p), reduced_condition(p))
        for v in verdicts:
            assert all(type(y) is float for y in v.slacks) and type(v.min_slack) is float, row
            assert type(v.stable) is bool


@pytest.mark.parametrize("k", [0, 4, 8], ids=["first", "middle", "last"])
def test_verdict_with_a_nan_first_or_last_is_unstable(k):
    x = np.linspace(0.1, 0.9, 9).tolist()
    x[k] = math.nan
    v = _verdict(x, "nine")
    assert v.stable is False and math.isnan(v.min_slack)


def test_verdict_of_opposite_infinities_without_nan_is_minus_infinity():
    # inf + -inf makes the slacks' sum NaN although no slack is NaN
    for slacks in ([math.inf, -math.inf] + [0.5] * 7, [0.5] * 7 + [-math.inf, math.inf]):
        v = _verdict(slacks, "nine")
        assert v.min_slack == -math.inf and v.stable is False and v.binding == ()


def test_verdict_binding_is_the_full_enumeration():
    x = np.random.default_rng(79).uniform(-1, 1, 9)
    x[3], x[5] = 5e-10, -0.0   # within the guard band: binding
    v = _verdict(x.tolist(), "nine")
    assert v.binding == (3, 5) and v.min_slack == x.min()
    rng = np.random.default_rng(83)
    bound = 0
    for _ in range(3000):
        x = rng.uniform(-1, 1, 9) * 10.0 ** rng.integers(-10, 1, 9)
        pick = rng.random(9)
        x[pick < 0.05] = 5e-10
        x[(pick >= 0.05) & (pick < 0.1)] = -5e-10
        x[(pick >= 0.1) & (pick < 0.15)] = -0.0
        x[(pick >= 0.15) & (pick < 0.2)] = GUARD_BAND   # on the band's edge: binding
        if rng.random() < 0.1:
            x[rng.integers(9)] = np.nan   # where it comes first, min(|x|) is NaN: no shortcut
        slacks = x.tolist()
        v = _verdict(slacks, "nine")
        assert v.binding == tuple(i for i, y in enumerate(slacks) if abs(y) <= GUARD_BAND), slacks
        bound += bool(v.binding)
    assert 0 < bound < 3000   # both the shortcut and the enumeration ran


def test_reduced_condition_on_numpy_scalars_is_the_python_float_call_without_warnings():
    # V * u overflows; on NumPy scalars that would warn, an error under filterwarnings = error
    p = SchemeParameters(np.float64(1e200), np.float64(1e200), 1e200, 1.0)
    q = SchemeParameters(1e200, 1e200, 1e200, 1.0)
    got, want = reduced_condition(p), reduced_condition(q)
    assert repr(got) == repr(want)   # repr: the slacks hold NaN, which == never matches
    assert repr(reduced_parameters(p)) == repr(reduced_parameters(q))
    assert all(type(x) is float for x in (*got.slacks, *vars(reduced_parameters(p)).values()))


def test_reduced_slacks_are_the_chain_bounds():
    # the lower two slacks are 2g - lower sides, the upper three upper sides - 2g;
    # equal as numbers, not in the sign of a zero: min() keeps either of -0.0 and 0.0
    rng = np.random.default_rng(51)
    n = 4000
    V, u, s, sp, alpha = (rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n),
                          rng.uniform(-0.5, 2.5, n), rng.uniform(-0.5, 2.5, n),
                          rng.uniform(-2, 2, n))
    sp[::7] = 0.0
    u[::11] = -0.0
    s[::13] = -0.0
    V[::17] = -0.0
    for k in range(n):
        p = params(*(float(x[k]) for x in (V, u, s, sp, alpha)))
        slacks = reduced_condition(p).slacks
        two_gamma = 2.0 * reduced_parameters(p).gamma
        lower, upper = chain_bounds(p.V, p.u, p.s, p.s_prime)
        for got, want in ((min(slacks[:2]), two_gamma - lower),
                          (min(slacks[2:]), upper - two_gamma)):
            assert got == want or same_bits(got, want)


# ------------------------------------------------------------- gamma interval

def test_gamma_interval_examples():
    iv = gamma_feasible_interval(0.25, 0.0, 1.0, 1.0)
    assert not iv.empty
    assert (iv.lower, iv.upper) == pytest.approx((0.0, 0.375), abs=1e-14)

    iv = gamma_feasible_interval(1.0, 0.0, 1.0, 1.0)
    assert not iv.empty
    assert (iv.lower, iv.upper) == pytest.approx((0.0, 0.0), abs=1e-14)

    iv = gamma_feasible_interval(0.25, 0.0, 1.6, 1.3)
    assert iv.empty
    assert iv.lower == pytest.approx(0.15, abs=1e-14)


def test_interval_consistent_with_reduced_condition():
    rng = np.random.default_rng(15)
    for _ in range(500):
        V, u = rng.uniform(-1, 1), rng.uniform(-1, 1)
        s, sp = rng.uniform(-0.5, 2.5), rng.uniform(0.05, 2.5)
        alpha = rng.uniform(-2, 2)
        p = params(V, u, s, sp, alpha)
        iv = gamma_feasible_interval(V, u, s, sp)
        gam = reduced_parameters(p).gamma
        if reduced_condition(p).stable:
            assert not iv.empty and iv.lower - TAU_STAB <= gam <= iv.upper + TAU_STAB


def test_interval_emptiness_matches_alpha_sweep():
    # An alpha making the scheme stable exists iff the gamma interval is
    # nonempty (s' != 0).  The sweep direction is only conclusive when the
    # feasible alpha interval measurably intersects the swept range.
    rng = np.random.default_rng(21)
    alphas = np.arange(-3.0, 2.0 + 1e-9, 1e-3)
    n_forward = 0
    for _ in range(10000):
        V, u = rng.uniform(-1, 1), rng.uniform(-1, 1)
        s, sp = rng.uniform(-0.5, 2.5), rng.uniform(0.05, 2.5)
        lower, upper = (float(b) for b in chain_bounds(V, u, s, sp))
        gam = (sp / 6.0) * (1.0 - alphas) - u * (s - sp) * V
        hit = np.any((2 * gam >= lower) & (2 * gam <= upper))
        iv = gamma_feasible_interval(V, u, s, sp)
        if hit:
            assert not iv.empty
        if not iv.empty:
            ab = alpha_interval(V, u, s, sp)
            a_lo = max(ab[0], -3.0)
            a_hi = min(ab[1], 2.0)
            if a_hi - a_lo >= 5e-3 and upper - lower >= 1e-6:
                assert hit
                n_forward += 1
    assert n_forward > 400  # the forward direction was actually exercised


# ------------------------------------------------------------------ alpha maps

def test_alpha_interval_ends_map_back_to_the_gamma_interval_ends():
    rng = np.random.default_rng(25)
    checked = 0
    for _ in range(1000):
        V, u = rng.uniform(-1, 1), rng.uniform(-0.3, 0.3)
        s, sp = rng.uniform(0, 2.2), rng.uniform(0.05, 2.2)
        iv = gamma_feasible_interval(V, u, s, sp)
        if iv.empty:
            continue
        ends = sorted(reduced_parameters(params(V, u, s, sp, a)).gamma
                      for a in alpha_interval(V, u, s, sp))
        assert ends == pytest.approx(sorted((iv.lower, iv.upper)), abs=1e-10)
        checked += 1
    assert checked > 150


def test_benchmark_row_has_gamma_0_15():
    # (V, u, s, s', alpha) = (0.25, 0, 1.6, 1.3, 4/13): gamma = (1.3/6)(9/13)
    assert reduced_parameters(params(0.25, 0.0, 1.6, 1.3, 4 / 13)).gamma == \
        pytest.approx(0.15, abs=1e-14)


@pytest.mark.parametrize("V,u,s,sp,empty,feasible", [
    (0.0, 0.0, 1.0, 0.0, False, True),          # interval [0, 0] holds the pinned 0
    (0.25, 0.0, 1.0, 0.0, True, False),         # upper end -|sV|/2 < 0 <= lower end
    (1e6, 1e5, 1e-17, 0.0, False, False),       # pinned -1e-6 lies below the interval
    (0.25, 0.5, 1.6, 0.0, True, False),         # |u_bar| = 1.6 > 1/2 (lemma (a))
], ids=["feasible", "empty", "pinned-outside", "u-nonzero"])
def test_alpha_interval_is_none_at_zero_rate_and_alpha_feasible_decides(V, u, s, sp, empty,
                                                                        feasible):
    # s' = 0: alpha drops out of gamma, so there is no alpha interval to give
    # whether every alpha or no alpha works; alpha_feasible tells them apart
    assert gamma_feasible_interval(V, u, s, sp).empty is empty
    assert alpha_feasible(V, u, s, sp) is feasible
    assert alpha_interval(V, u, s, sp) is None


def test_alpha_feasible_degenerate_rate():
    # s' = 0 pins gamma at -u s V; stability needs that pinned value in the chain
    assert alpha_feasible(0.0, 0.0, 1.0, 0.0)       # pinned 0, interval {0}
    assert not alpha_feasible(0.5, 0.3, 1.0, 0.0)   # upper bound -|sV| < 0
    assert pinned_gamma(0.5, 0.3, 1.0) == pytest.approx(-0.15)
    assert not np.signbit(pinned_gamma(0.0, 0.1, 1.0))   # -0.1 * 1.0 * 0.0 is -0.0


def test_alpha_feasible_arrays_match_scalar_calls():
    # s' = 0 in the first column, NaN in two cells
    S, SP = np.meshgrid(np.linspace(0.0, 2.2, 23), np.linspace(0.0, 2.2, 23), indexing="ij")
    S[3, 5] = SP[7, 2] = np.nan
    for V, u in ((0.0, 0.0), (0.25, 0.125), (0.5, 0.3), (2 / 3, -1 / 3), (-0.4, 0.2)):
        got = alpha_feasible(V, u, S, SP)
        assert got.dtype == bool and got.shape == S.shape
        scalar = np.array([[alpha_feasible(V, u, a, b) for a, b in zip(*rows)]
                           for rows in zip(S.tolist(), SP.tolist())])
        assert np.array_equal(got, scalar)
        # the array interval is the scalar one, bitwise, and carries the same rule
        grid_iv = gamma_feasible_interval(V, u, S, SP)
        for i, j in np.ndindex(S.shape):
            iv = gamma_feasible_interval(V, u, float(S[i, j]), float(SP[i, j]))
            assert type(iv.lower) is float and type(iv.empty) is bool
            assert same_bits(grid_iv.lower[i, j], iv.lower)
            assert same_bits(grid_iv.upper[i, j], iv.upper)
            assert grid_iv.empty[i, j] == iv.empty
            pinned = pinned_gamma(V, u, S[i, j])
            in_iv = iv.lower - TAU_STAB <= pinned <= iv.upper + TAU_STAB
            assert got[i, j] == (not iv.empty and (in_iv or SP[i, j] != 0.0))
        assert grid_iv.empty[3, 5] and grid_iv.empty[7, 2]
        assert not got[3, 5] and not got[7, 2]
    assert alpha_feasible(0.0, 0.0, S, SP)[:, 0].any()
    # s' = 0: the interval is nonempty within tol, but the pinned gamma 4e-11 lies above it
    assert not gamma_feasible_interval(10.0, -4.0, 1e-12, 0.0).empty
    assert not alpha_feasible(10.0, -4.0, np.array([1e-12]), 0.0).any()
    # and here the pinned gamma -1e-6 lies below it; list and tuple s' are converted before
    # the s' = 0 rule is read, so every kind of input gives the same answer
    assert not gamma_feasible_interval(1e6, 1e5, 1e-17, 0.0).empty
    assert alpha_feasible(1e6, 1e5, 1e-17, 0.0) is False
    for s, sp in ((np.array([1e-17]), np.array([0.0])), ([1e-17], [0.0]), ((1e-17,), (0,))):
        got = alpha_feasible(1e6, 1e5, s, sp)
        assert got.dtype == bool and got.tolist() == [False], (s, sp)
    assert type(alpha_feasible(0.25, 0.0, 1.0, 1.0)) is bool
    assert type(alpha_feasible(0.5, 0.3, 1.0, 0.0)) is bool


@pytest.mark.parametrize("k", range(4), ids=["V", "u", "s", "s_prime"])
def test_nan_input_is_infeasible(k):
    args = [0.25, 0.1, 1.0, 1.0]
    args[k] = float("nan")
    assert gamma_feasible_interval(*args).empty
    assert alpha_feasible(*args) is False
    assert alpha_interval(*args) is None


# ----------------------------------------------------------------- u=0 region

def test_u_zero_region_examples():
    assert u_zero_region(2 / 3, 1.0, 1.0)
    assert not u_zero_region(2 / 3, 1.5, 1.0)   # s above 2/(1+V)
    assert not u_zero_region(0.0, 2.0, 2.0)     # s' above min(3-s, 1+s)
    assert not u_zero_region(1.2, 0.5, 0.5)     # advection faster than lattice
    assert u_zero_region(-2 / 3, 1.0, 1.0)      # sign symmetry


def test_u_zero_region_matches_interval_on_grid():
    ax = np.linspace(0.0, 2.2, 45)
    S, SP = np.meshgrid(ax, ax, indexing="ij")
    for V in (0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0):
        region = u_zero_region(V, S, SP)
        lower, upper = chain_bounds(V, 0.0, S, SP)
        nonempty = lower / 2 <= upper / 2 + TAU_STAB
        assert np.array_equal(region, nonempty)


def test_u_zero_alpha_interval_examples():
    for V, want in ((0.0, (-2.0, 1.0)), (0.25, (-1.25, 1.0))):
        assert u_zero_region(V, 1.0, 1.0)
        assert alpha_interval(V, 0.0, 1.0, 1.0) == pytest.approx(want, abs=1e-14)


def test_u_zero_alpha_interval_upper_endpoint_is_one_without_lower_slack():
    # whenever s' <= 1 the chain floor is 0, forcing the alpha ceiling to 1
    rng = np.random.default_rng(33)
    for _ in range(100):
        V = rng.uniform(0, 1)
        s, sp = rng.uniform(0, 2), rng.uniform(0.05, 1.0)
        if not u_zero_region(V, s, sp):
            continue
        bounds = alpha_interval(V, 0.0, s, sp)
        assert bounds[1] == pytest.approx(1.0, abs=1e-12)


def test_u_zero_alpha_interval_never_exceeds_one_and_rate_cap():
    rng = np.random.default_rng(35)
    found = 0
    while found < 200:
        V = rng.uniform(0, 1)
        s, sp = rng.uniform(0, 2.2), rng.uniform(0.05, 2.2)
        if not u_zero_region(V, s, sp):
            continue
        lo, hi = alpha_interval(V, 0.0, s, sp)
        assert hi <= 1.0 + TAU_STAB
        assert sp * (lo + 2.0) <= 3.0 + 1e-9   # s' <= 3/(alpha+2) at the low end
        found += 1


def test_alpha_interval_errors():
    # alpha_interval takes scalars only: an array V, s or s', of one or two
    # elements, is a ValueError that names the array functions
    for args in ((np.array([0.25, 0.5]), 0.0, 1.0, 1.0),
                 (np.array([0.25]), 0.0, 1.0, 1.0),
                 (0.25, 0.0, np.array([1.0, 1.6]), 1.0),
                 (0.25, 0.0, 1.0, np.array([1.0])),
                 (0.25, 0.0, 1.0, np.array([1.0, 1.0])),
                 (0.25, 0.0, 1.0, np.array([0.0, 0.0]))):
        with pytest.raises(ValueError, match="^alpha_interval takes scalars only; "
                                             "gamma_feasible_interval and alpha_feasible take arrays$"):
            alpha_interval(*args)


@pytest.mark.parametrize("V,s", [(0.0, 1.0), (0.25, 0.0)])
def test_u_zero_pinned_points_inside_the_region_are_alpha_unconstrained(V, s):
    assert u_zero_region(V, s, 0.0)
    assert alpha_feasible(V, 0.0, s, 0.0) is True
    assert alpha_interval(V, 0.0, s, 0.0) is None


def test_u_zero_alpha_interval_agrees_with_verdict():
    rng = np.random.default_rng(39)
    found = 0
    while found < 100:
        V = rng.uniform(0, 1)
        s, sp = rng.uniform(0, 2.2), rng.uniform(0.05, 2.2)
        if not u_zero_region(V, s, sp):
            continue
        lo, hi = alpha_interval(V, 0.0, s, sp)
        mid = (lo + hi) / 2
        assert nine_inequalities(params(V, 0.0, s, sp, mid)).stable
        if hi - lo > 1e-6:
            assert not nine_inequalities(params(V, 0.0, s, sp, hi + 0.01 * (hi - lo) + 1e-9)).stable
        found += 1


# ------------------------------------------------------------ necessary region

def test_necessary_region_examples():
    assert necessary_region(0.5, 1.0, 1.0)
    assert not necessary_region(0.5, 1.5, 2.0)


def test_necessary_region_reduces_at_zero_velocity():
    ax = np.linspace(0.0, 2.2, 56)
    S, SP = np.meshgrid(ax, ax, indexing="ij")
    got = necessary_region(0.0, S, SP)
    expect = (S <= 2.0 + TAU_STAB) & (SP <= np.minimum(2.0, np.minimum(S + 1, 3 - S)) + TAU_STAB)
    assert np.array_equal(got, expect)


def test_necessary_grid_is_the_unchunked_expression_in_bounded_memory():
    # a region grid: the slack stack of all 221^2 cells would take 3.7 MiB
    ax = np.linspace(0.0, 2.2, 221)
    S, SP = np.meshgrid(ax, ax, indexing="ij")
    whole = np.broadcast_arrays(np.float64(2 / 3), S, SP)
    for fn, kernel, region in ((necessary_slacks, _necessary, False),
                               (necessary_region, _necessary, True),
                               (u_zero_slacks, _u_zero, False),
                               (u_zero_region, _u_zero, True)):
        tracemalloc.start()
        try:
            got = fn(2 / 3, S, SP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = kernel(*whole).min(axis=-1) >= -TAU_STAB if region else kernel(*whole)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert peak <= got.nbytes + WORKING_SET_BYTES, (peak, got.nbytes)


def test_empty_batches_keep_their_shape_and_dtype():
    e = np.empty((3, 0))
    iv = gamma_feasible_interval(2 / 3, 0.1, e, e)
    for got, tail, dtype in (
        (relaxation_matrices(2 / 3, 0.1, e, e, 0.3, 2.0), (3, 3), np.float64),
        (relaxation_entries_closed_form(2 / 3, 0.1, e, e, 0.3), (3, 3), np.float64),
        *((bound, (), np.float64) for bound in chain_bounds(2 / 3, 0.1, e, e)),
        (iv.lower, (), np.float64), (iv.upper, (), np.float64), (iv.empty, (), np.bool_),
        (alpha_feasible(2 / 3, 0.1, e, e), (), np.bool_),
        (u_zero_slacks(2 / 3, e, e), (9,), np.float64), (u_zero_region(2 / 3, e, e), (), np.bool_),
        (necessary_slacks(2 / 3, e, e), (10,), np.float64),
        (necessary_region(2 / 3, e, e), (), np.bool_),
    ):
        assert type(got) is np.ndarray and got.shape == e.shape + tail and got.dtype == dtype


# Edge values: signed zeros, the least subnormal, values whose products overflow 1e308, inf and NaN
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, 1e308, -1e308, np.inf, -np.inf, np.nan)
ARRAY_FUNCTIONS = (  # each function, with the columns (V, u, s, s', alpha, lam) it takes
    (relaxation_matrices, (0, 1, 2, 3, 4, 5)), (relaxation_entries_closed_form, (0, 1, 2, 3, 4)),
    (chain_bounds, (0, 1, 2, 3)), (gamma_feasible_interval, (0, 1, 2, 3)),
    (alpha_feasible, (0, 1, 2, 3)), (u_zero_slacks, (0, 2, 3)), (u_zero_region, (0, 2, 3)),
    (necessary_slacks, (0, 2, 3)), (necessary_region, (0, 2, 3)),
)


def _parts(result):
    if isinstance(result, tuple):
        return result
    if hasattr(result, "empty"):
        return result.lower, result.upper, result.empty
    return (result,)


def _unnamed(caught):
    """Each caught warning as (category, message without its trailing "in <operation>")."""
    return [(w.category, str(w.message).rsplit(" in ", 1)[0]) for w in caught]


def _matmul_warnings(row):
    """The warnings of R's product by np.matmul (@) over row's six factors, unnamed."""
    M_inv, T_inv, S, T, E, M = relaxation_factors(SchemeParameters(*row))
    eye = np.eye(3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        M_inv @ T_inv @ (eye + S @ (T @ E @ T_inv - eye)) @ T @ M
    return _unnamed(caught)


def _edge_rows():
    """600 seeded (V, u, s, s', alpha, lam) columns and their rows.

    The last 400 tuples take an edge value in each field but lam with
    probability 1/2; odd rows hold Python floats, even rows NumPy scalars.
    """
    rng = np.random.default_rng(73)
    n = 600
    cols = [rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n), rng.uniform(-0.5, 2.5, n),
            rng.uniform(-0.5, 2.5, n), rng.uniform(-2, 2, n), rng.choice([0.5, 1.0, 3.0], n)]
    for col in cols[:5]:
        edge = rng.random(n) < 0.5
        edge[:200] = False
        col[edge] = rng.choice(EDGES, edge.sum())
    rows = [row if i % 2 else tuple(map(np.float64, row))
            for i, row in enumerate(zip(*(c.tolist() for c in cols)))]
    return cols, rows


def test_scalar_calls_have_the_bytes_and_type_of_their_batched_row():
    cols, rows = _edge_rows()
    warned = 0
    for fn, fields in ARRAY_FUNCTIONS:
        with np.errstate(all="ignore"):   # array arithmetic warns at overflow and NaN
            batched = _parts(fn(*(cols[k] for k in fields)))
        for i, row in enumerate(rows):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = _parts(fn(*(row[k] for k in fields)))
            # scalar arithmetic warns at nothing; only R's (3, 3) products are array arithmetic
            assert [str(w.message) for w in caught if not (
                fn is relaxation_matrices and str(w.message).endswith(("in matmul", "in dot")))] == []
            if fn is relaxation_matrices:   # and they warn exactly where np.matmul would
                assert _unnamed(caught) == _matmul_warnings(row), row
                warned += bool(caught)
            for g, b in zip(got, batched, strict=True):
                want = b[i]
                if isinstance(want, np.ndarray):
                    assert type(g) is type(want) and g.dtype == want.dtype
                else:   # unboxed: a Python float or bool
                    assert type(g) is type(want.item())
                assert np.asarray(g).tobytes() == want.tobytes(), (fn.__name__, row)
    assert warned > 0   # the edge rows do reach R's warnings


def test_direct_scalar_routes_have_the_bytes_of_their_batched_rows():
    # nine_inequalities takes its slacks from the closed form's expression text
    # and matrix_entry_verdict from R's product, each without the array function;
    # tobytes, not ==, so that signed zeros and NaN count
    cols, rows = _edge_rows()
    with np.errstate(all="ignore"):
        closed = relaxation_entries_closed_form(*cols[:5]).reshape(-1, 9)
        R = relaxation_matrices(*cols).reshape(-1, 9)
        for i, row in enumerate(rows):
            p = SchemeParameters(*row)
            assert np.array(nine_inequalities(p).slacks).tobytes() == closed[i].tobytes(), row
            assert np.array(matrix_entry_verdict(p).slacks).tobytes() == R[i].tobytes(), row


def test_entry_combinations_and_invariants_of_r():
    """2 R02 + R12 = s(1 - V), 2 R20 + R10 = s(1 + V), trace R = 3 - s - s' and
    det R = (1 - s)(1 - s'), within TAU_MAT, for the closed form and the product.

    The first two sum entries 2 and 5, and 6 and 3, of the entry text; the
    last two hold because R's eigenvalues are 1, 1 - s and 1 - s' (proof in
    relaxation_entries_closed_form's docstring).
    """
    rng = np.random.default_rng(89)
    n = 2000
    V, u, s, sp, alpha = (rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n), rng.uniform(-0.5, 2.5, n),
                          rng.uniform(-0.5, 2.5, n), rng.uniform(-2, 2, n))
    lam = rng.choice([0.5, 1.0, 3.0], n)
    for R in (relaxation_entries_closed_form(V, u, s, sp, alpha), relaxation_matrices(V, u, s, sp, alpha, lam)):
        assert np.abs(2 * R[:, 0, 2] + R[:, 1, 2] - s * (1 - V)).max() <= TAU_MAT
        assert np.abs(2 * R[:, 2, 0] + R[:, 1, 0] - s * (1 + V)).max() <= TAU_MAT
        assert np.abs(np.trace(R, axis1=1, axis2=2) - (3 - s - sp)).max() <= TAU_MAT
        assert np.abs(np.linalg.det(R) - (1 - s) * (1 - sp)).max() <= TAU_MAT


def weights(V, alpha):
    """Equilibrium weights (w0, w1, w2) of scheme.equilibrium_weights, for arrays."""
    return (2 - 3 * V + alpha) / 6, (2 - 2 * alpha) / 6, (2 + 3 * V + alpha) / 6


def test_entries_are_scaled_weights_where_v_times_the_rate_gap_is_zero():
    """R01 = s' w0 + V(s - s')(u - 1/2), R21 = s' w2 + V(s - s')(u + 1/2) and
    R10 + R12 = 2 s' w1 - 4 V u (s - s'), within TAU_MAT, for the closed form
    and the product (lemma (d), proof in relaxation_entries_closed_form)."""
    rng = np.random.default_rng(34)
    n = 2000
    V, u, s, sp, alpha = (rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n), rng.uniform(-0.5, 2.5, n),
                          rng.uniform(-0.5, 2.5, n), rng.uniform(-2, 2, n))
    w0, w1, w2 = weights(V, alpha)
    gap = V * (s - sp)
    for R in (relaxation_entries_closed_form(V, u, s, sp, alpha), relaxation_matrices(V, u, s, sp, alpha)):
        assert np.abs(R[:, 0, 1] - (sp * w0 + gap * (u - 0.5))).max() <= TAU_MAT
        assert np.abs(R[:, 2, 1] - (sp * w2 + gap * (u + 0.5))).max() <= TAU_MAT
        assert np.abs(R[:, 1, 0] + R[:, 1, 2] - (2 * sp * w1 - 4 * u * gap)).max() <= TAU_MAT


def test_stable_verdicts_bound_the_weights_by_the_tolerance_over_the_rates():
    """A stable verdict, min R >= -TAU_STAB, gives w >= -TAU_STAB / s' where
    V(s - s') = 0 (lemma (d)); for |V| <= 1, min w >= -2 TAU_STAB / min(s, s')
    holds on tuples at and just past the ends of the widened gamma interval,
    s and s' log-uniform in [1e-9, 2]."""
    rng = np.random.default_rng(34)
    n = 40_000
    V, u = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n)
    s, sp = np.exp(rng.uniform(math.log(1e-9), math.log(2), (2, n)))
    lower, upper, empty = gamma_feasible_interval(V, u, s, sp)
    V, u, s, sp, lower, upper = (a[~empty] for a in (V, u, s, sp, lower, upper))
    stable = 0
    for gamma in (lower, upper, *(lower - d * TAU_STAB for d in (0.25, 0.5, 0.75)),
                  *(upper + d * TAU_STAB for d in (0.25, 0.5, 1.0))):
        alpha = 1 - 6 * (gamma + u * (s - sp) * V) / sp   # alpha_interval's map, for arrays
        keep = relaxation_matrices(V, u, s, sp, alpha).reshape(-1, 9).min(axis=1) >= -TAU_STAB
        w = np.stack(weights(V, alpha))[:, keep]
        assert (w.min(axis=0) >= -2 * TAU_STAB / np.minimum(s, sp)[keep]).all()
        stable += keep.sum()
    assert stable > 5000


def test_a_stable_verdict_can_have_a_weight_far_below_the_tolerance():
    # R10 = s'(1 - alpha)/3 = -3.3e-13 is within TAU_STAB, yet w1 = (1 - alpha)/3
    # is 1e9 times that: only w >= -TAU_STAB / s' follows
    p = params(V=0.0, u=0.0, s=1.0, s_prime=1e-9, alpha=1.001)
    verdict = matrix_entry_verdict(p)
    w = equilibrium_weights(p)
    assert verdict.stable and -TAU_STAB < verdict.min_slack < -3e-13
    assert w[1] == pytest.approx(-1 / 3000, rel=1e-12)
    assert w.min() >= -TAU_STAB / p.s_prime


def test_max_and_min_of_python_floats_have_the_bytes_of_the_ufuncs():
    # _bounds takes a scalar chain's max and min by comparison; NumPy's rules
    # are that a NaN in either operand wins and a tie (0.0 and -0.0) gives the
    # second operand, and this pins them for the build at hand
    pairs = list(itertools.product(EDGES, repeat=2))
    a, b = (np.array(c) for c in zip(*pairs))
    for helper, ufunc in ((_max, np.maximum), (_min, np.minimum)):
        batched = ufunc(a, b)
        for (x, y), want in zip(pairs, batched, strict=True):
            got = helper(x, y)
            assert type(got) is float
            assert np.float64(got).tobytes() == ufunc(x, y).tobytes() == want.tobytes(), \
                (ufunc.__name__, x, y)


def test_signed_zero_tie_of_the_upper_sides_gives_positive_zero():
    # at s = -0.0 the upper sides are 2, -0.0 and +0.0; np.minimum's tie gives
    # the second operand, +0.0, where min() would keep the first, -0.0
    lower, upper = chain_bounds(0.0, 0.0, -0.0, 0.0)
    positive_zero = np.float64(0.0).tobytes()
    assert type(upper) is float and np.float64(upper).tobytes() == positive_zero
    interval_upper = gamma_feasible_interval(0.0, 0.0, -0.0, 0.0).upper
    assert np.float64(interval_upper).tobytes() == positive_zero


def test_reduced_slacks_and_alpha_interval_keep_their_definitions():
    # reduced_condition takes 2 gamma and the chain sides from one conversion,
    # and alpha_interval maps the interval core's endpoints with the operands
    # that conversion gives: Python floats for NumPy-scalar rows too
    for row in _edge_rows()[1]:
        p, chain = SchemeParameters(*row), row[:4]
        two_gamma = 2 * reduced_parameters(p).gamma
        lower, upper = _chain_terms(*_operands(*chain))
        slacks = tuple([two_gamma - x for x in lower] + [x - two_gamma for x in upper])
        assert repr(reduced_condition(p).slacks) == repr(slacks), row
        iv = gamma_feasible_interval(*chain)
        got = alpha_interval(*chain)
        if iv.empty or p.s_prime == 0.0:
            want = None
        else:
            V, u, s, sp = _operands(*chain)
            a, b = (1.0 - 6.0 * (g + u * (s - sp) * V) / sp for g in (iv.lower, iv.upper))
            want = (min(a, b), max(a, b))
            assert type(got) is tuple and all(type(x) is float for x in got), row
        assert repr(got) == repr(want), row
    zero_d = alpha_interval(*map(np.array, (0.25, 0.1, 1.2, 0.9)))
    assert repr(zero_d) == repr(alpha_interval(0.25, 0.1, 1.2, 0.9)) == "(-0.9166666666666667, 0.75)"


def test_necessary_region_contains_every_feasible_point():
    rng = np.random.default_rng(43)
    for _ in range(3000):
        V = rng.uniform(0, 1.5)
        u = rng.uniform(-1, 1)
        s, sp = rng.uniform(-0.5, 2.5, 2)
        iv = gamma_feasible_interval(V, u, s, sp)
        if not iv.empty and iv.upper - iv.lower >= 1e-9:
            assert necessary_region(V, s, sp)


def test_equal_unit_rates_always_feasible():
    rng = np.random.default_rng(47)
    for _ in range(300):
        assert not gamma_feasible_interval(rng.uniform(0, 1), rng.uniform(-2, 2), 1.0, 1.0).empty


def test_u_bar_bound_probe():
    rng = np.random.default_rng(49)
    for _ in range(2000):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        if reduced_condition(p).stable:
            assert abs(reduced_parameters(p).u_bar) <= 0.5 + TAU_STAB


def test_u_bar_bound_vacuous_on_unstable_point():
    p = params(0.25, 0.8, 2.4, 0.1, 0.0)  # |u_bar| = 0.8 * 2 * 2.3 >> 1/2, unstable
    assert abs(reduced_parameters(p).u_bar) > 0.5
    assert not reduced_condition(p).stable


def finite_floats(rng, n, below=np.inf):
    """n seeded float64 values from random bit patterns: every exponent, both signs, finite and |x| < below."""
    x = rng.integers(0, 2**64, 4 * n, dtype=np.uint64).view(np.float64)
    x = x[np.abs(x) < below][:n]
    assert len(x) == n
    return x


def test_unit_rates_chain_bounds_are_exact():
    # Lemma (b) of d1q3rv.stability: at (s, s') = (1, 1), u_bar = 0 and the chain is 0 <= 2 gamma <= 1 - |V|
    rng = np.random.default_rng(61)
    V = finite_floats(rng, 100_000)
    # 2.0 * u overflows from |u| = 2**1023 on; there u_bar is NaN and the cell infeasible (NaN rule)
    u = finite_floats(rng, 100_000, below=2.0**1023)
    lower, upper = chain_bounds(V, u, 1.0, 1.0)
    assert lower.tobytes() == np.zeros_like(V).tobytes()
    assert upper.tobytes() == (1.0 - np.abs(V)).tobytes()
    for V1, u1 in zip(V[:50], u[:50]):
        lower, upper = chain_bounds(V1, u1, 1.0, 1.0)
        assert same_bits(lower, 0.0) and same_bits(upper, 1.0 - abs(V1))
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(chain_bounds(0.5, 2.0**1023, 1.0, 1.0)).all()
        assert not alpha_feasible(0.5, -2.0**1023, 1.0, 1.0)


@pytest.mark.parametrize("v, feasible", [(0.0, True), (0.5, True), (1.0, True),
                                         (1 + 1e-9, False), (1.25, False), (2.0, False)])
def test_unit_rates_feasible_iff_velocity_at_most_one(v, feasible):
    for V in (v, -v):
        for u in (0.0, 0.3, -1.7):
            assert alpha_feasible(V, u, 1.0, 1.0) is feasible
