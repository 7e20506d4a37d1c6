"""Property-based checks of the algebraic invariants."""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings, strategies as st, target

from d1q3rv.scheme import (TAU_MAT, SchemeParameters, build_relaxation_matrix,
                           change_basis_relaxation_matrix, equilibrium_distributions,
                           relaxation_factors)
from d1q3rv.stability import (TAU_STAB, chain_bounds, gamma_feasible_interval,
                              necessary_region, nine_inequalities, reduced_condition,
                              reduced_parameters, relaxation_entries_closed_form)
from reference import moments

finite = dict(allow_nan=False, allow_infinity=False)
velocities = st.floats(min_value=-1.5, max_value=1.5, **finite)
shifts = st.floats(min_value=-1.0, max_value=1.0, **finite)
rates = st.floats(min_value=-0.5, max_value=2.5, **finite)
alphas = st.floats(min_value=-2.0, max_value=2.0, **finite)
lambdas = st.sampled_from([0.5, 1.0, 3.0, 7.3])

param_tuples = st.builds(SchemeParameters, V=velocities, u=shifts, s=rates,
                         s_prime=rates, alpha=alphas, lam=lambdas)


@given(param_tuples)
def test_columns_sum_to_one(p):
    assert np.max(np.abs(build_relaxation_matrix(p).sum(axis=0) - 1.0)) <= 1e-12


@given(param_tuples)
def test_operator_independent_of_lattice_velocity(p):
    base = SchemeParameters(V=p.V, u=p.u, s=p.s, s_prime=p.s_prime, alpha=p.alpha, lam=1.0)
    assert np.max(np.abs(build_relaxation_matrix(p) - build_relaxation_matrix(base))) <= 1e-12


@given(param_tuples)
def test_matrix_product_matches_closed_form(p):
    closed = relaxation_entries_closed_form(p.V, p.u, p.s, p.s_prime, p.alpha)
    assert np.max(np.abs(build_relaxation_matrix(p) - closed)) <= 1e-12


@given(param_tuples, st.floats(min_value=0.0, max_value=10.0, **finite))
def test_equilibria_are_fixed_points(p, rho):
    feq = equilibrium_distributions(rho, p)
    assert np.max(np.abs(build_relaxation_matrix(p) @ feq - feq)) <= 1e-12


@given(param_tuples,
       st.tuples(*[st.floats(min_value=-2, max_value=2, **finite)] * 3))
def test_moments_match_matrix_route(p, F):
    f = relaxation_factors(p)
    ref = f.T @ f.M @ np.asarray(F)
    assert np.max(np.abs(moments(F, p) - ref)) <= 1e-10 * max(1.0, p.lam**2)


@given(param_tuples)
def test_decision_routes_agree_outside_guard_band(p):
    nine = nine_inequalities(p)
    red = reduced_condition(p)
    margin = min(min(abs(x) for x in nine.slacks), min(abs(x) for x in red.slacks))
    if margin >= 1e-9:
        assert nine.stable == red.stable


@given(param_tuples)
def test_stability_implies_small_u_bar(p):
    if reduced_condition(p).stable:
        assert abs(reduced_parameters(p).u_bar) <= 0.5 + TAU_STAB


def chain_sides(V, u, s, sp):
    """The reduced chain's two lower and three upper sides, in units of 2*gamma.

    Written out here, apart from the package, for Fractions and floats alike.
    """
    u_bar = 2 * u * (s - sp)
    sV = s * V
    return (sp - 1, abs(u_bar)), (2 - s - abs(u_bar - sV), s - abs(u_bar + sV), sp - abs(sV))


def fractions(low, high):
    return st.fractions(min_value=Fraction(low), max_value=Fraction(high), max_denominator=64)


@settings(max_examples=200)
@example(V=Fraction(0), u=Fraction(1, 2), s=Fraction(1), sp=Fraction(1, 2))   # |u_bar| = 1/2, tight
@given(V=fractions(-1.5, 1.5), u=fractions(-1, 1), s=fractions(-0.5, 2.5), sp=fractions(-0.5, 2.5))
def test_feasible_chain_has_u_bar_at_most_one_half_exactly(V, u, s, sp):
    # Lemma (a) of d1q3rv.stability, in exact arithmetic: no tolerance
    lower, upper = chain_sides(V, u, s, sp)
    gap = max(lower) - min(upper)
    u_bar = abs(2 * u * (s - sp))
    # steer the search into the feasible set (gap <= 0), then toward large |u_bar|
    target(float(u_bar) if gap <= 0 else -float(gap))
    if gap <= 0:
        assert u_bar <= Fraction(1, 2)
    # the same sides on floats are the package's chain bounds
    lower, upper = chain_sides(*map(float, (V, u, s, sp)))
    bounds = chain_bounds(*map(float, (V, u, s, sp)))
    assert abs(max(lower) - bounds[0]) <= TAU_MAT and abs(min(upper) - bounds[1]) <= TAU_MAT


@given(param_tuples)
def test_feasibility_implies_necessary_conditions(p):
    # guard band: within ~1e-11 of the exact boundary the two closed-region
    # tolerances may disagree by design, so only clearly feasible points count
    iv = gamma_feasible_interval(p.V, p.u, p.s, p.s_prime)
    if not iv.empty and iv.upper - iv.lower >= 1e-9:
        assert necessary_region(p.V, p.s, p.s_prime)


@given(st.floats(min_value=0.0, max_value=1.0, **finite),
       st.floats(min_value=-2.0, max_value=2.0, **finite))
def test_unit_rates_always_feasible(V, u):
    assert not gamma_feasible_interval(V, u, 1.0, 1.0).empty


@settings(max_examples=60)
@given(param_tuples,
       st.floats(min_value=-1, max_value=1, **finite),
       st.floats(min_value=-1, max_value=1, **finite),
       st.floats(min_value=0.5, max_value=2.0, **finite),
       st.floats(min_value=0.5, max_value=2.0, **finite),
       st.sampled_from([-1, 1]), st.sampled_from([-1, 1]))
def test_uncoupled_basis_changes_leave_operator_invariant(p, c21, c31, m22, m33, sg2, sg3):
    C = np.array([[1.0, 0.0, 0.0], [c21, sg2 * m22, 0.0], [c31, 0.0, sg3 * m33]])
    diff = change_basis_relaxation_matrix(C, p) - build_relaxation_matrix(p)
    assert np.max(np.abs(diff)) <= 1e-10


@settings(max_examples=60)
@given(param_tuples,
       st.floats(min_value=0.2, max_value=1.0, **finite),
       st.sampled_from([-1, 1]))
def test_coupled_basis_changes_move_operator_when_rates_differ(p, c23, sign):
    if abs(p.s - p.s_prime) < 0.1:
        return
    C = np.eye(3)
    C[1, 2] = sign * c23
    diff = change_basis_relaxation_matrix(C, p) - build_relaxation_matrix(p)
    assert np.max(np.abs(diff)) > 1e-8
