"""Non-negativity of the relaxation operator.

R is called stable when all nine of its entries are >= 0: distributions
that start non-negative then stay non-negative for all times, which bounds
them through mass conservation.  Three equivalent decision routes are
provided:

  * entrywise non-negativity of the assembled matrix,
  * the nine entry values written as closed-form polynomials in
    (V, u, s, s', alpha),
  * a reduced five-comparison chain in the variables
    u_bar = 2 u (s - s') and gamma = (s'/6)(1 - alpha) - u (s - s') V:

        max(s' - 1, |u_bar|) <= 2 gamma
                             <= min(2 - s - |u_bar - sV|,
                                    s - |u_bar + sV|,
                                    s' - |sV|).

Since gamma is an affine function of alpha (for s' != 0), the chain also
yields the feasible gamma interval at fixed (V, u, s, s') and from it the
feasible alpha interval.  Two lemmas follow from the chain alone:

  (a) A feasible chain gives |u_bar| <= 1/2.  The lower sides give
      2|u_bar| <= 4 gamma; the first two upper sides sum to
      4 gamma <= 2 - |u_bar - sV| - |u_bar + sV| <= 2 - 2|u_bar|.  With
      every side loosened by TAU_STAB, the bound is 1/2 + TAU_STAB.
  (b) (s, s') = (1, 1) is feasible iff |V| <= 1.  There u_bar = 0, the lower
      sides are 0, all three upper sides are 1 - |V|, and gamma =
      (1 - alpha)/6 takes any value.

Everything is pure.  The vectorized functions
(relaxation_entries_closed_form, chain_bounds, gamma_feasible_interval,
alpha_feasible, u_zero_slacks, u_zero_region, necessary_slacks,
necessary_region) accept scalars or numpy arrays; a scalar call evaluates
the same expressions on Python floats and returns float64 chain bounds,
Python floats or bools, with the bytes of its row in a batched call.  Scalar
arithmetic emits no NumPy overflow or invalid RuntimeWarning; array
arithmetic does, and so do R's (3, 3) products, which for a scalar R run
through ndarray.dot and warn "in dot" ("in matmul" for a stack).  Arrays go
through scheme._batched, the one chunk loop, at one chunk size for every
kernel here (_CHUNK): each result's trailing shape and dtype come from the
kernel, and the working memory beyond the results stays within
WORKING_SET_BYTES.  The u = 0 region and the necessary region are one rule,
every slack of their kernel >= -TAU_STAB, so neither builds its slack stack
whole.  The verdict routes and the alpha intervals take scalars only.
TAU_STAB and GUARD_BAND are constants, not arguments.  A NaN slack makes a
verdict unstable; NaN input is never feasible.
"""

from __future__ import annotations

import math
import numpy as np
from dataclasses import dataclass

from .scheme import (WORKING_SET_BYTES, SchemeParameters, _batched, _operands,
                     build_relaxation_matrix)

# Verdict tolerance: entries within -TAU_STAB of zero still count as
# non-negative (closed regions; ties resolved toward stability).
TAU_STAB = 1e-11

# Constraints with |slack| below this are reported as binding; property
# checks exclude samples this close to a boundary so rounding cannot flip
# an exact-arithmetic equivalence.
GUARD_BAND = 1e-9

# Tuples per chunk of every batched kernel here.  The closed form peaks at about
# 180 B per tuple (tracemalloc), the most of them, so 208 keeps a chunk about a
# seventh under WORKING_SET_BYTES.
_CHUNK = WORKING_SET_BYTES // 208


@dataclass(frozen=True)
class ReducedParameters:
    """The two combinations that carry all stability information."""

    u_bar: float
    gamma: float


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of one decision route.

    slacks holds the signed residuals of that route's constraints (nine
    matrix entries or five chain margins), min_slack their minimum, and
    binding the indices within the guard band of zero.  The route tag keeps
    consumers agnostic of which shape they received.
    """

    stable: bool
    slacks: tuple
    min_slack: float
    binding: tuple
    route: str


@dataclass(frozen=True)
class GammaInterval:
    """Feasible gamma interval at fixed (V, u, s, s'), possibly empty; arrays for array input."""

    lower: float
    upper: float
    empty: bool


def _verdict(slacks, route: str) -> StabilityVerdict:
    """The verdict on slacks, a float64 array or a list of floats, held as Python floats."""
    slacks = tuple(slacks.tolist() if isinstance(slacks, np.ndarray) else map(float, slacks))
    # min() skips a NaN unless it comes first, so test for one explicitly
    m = math.nan if any(map(math.isnan, slacks)) else min(slacks)
    binding = tuple([i for i, x in enumerate(slacks) if abs(x) <= GUARD_BAND])
    return StabilityVerdict(stable=m >= -TAU_STAB, slacks=slacks, min_slack=m,
                            binding=binding, route=route)


def _unbox(res, kind):
    """A 0-d NumPy result as a Python kind (float or bool); arrays pass through."""
    return res if res.ndim else kind(res)


def _region(slacks, V, s, s_prime):
    """Whether every slack of the kernel slacks is >= -TAU_STAB, in chunks; a bool for scalars."""
    return _unbox(_batched(lambda *ops: slacks(*ops).min(axis=-1) >= -TAU_STAB, _CHUNK,
                           V, s, s_prime), bool)


def _closed_form(V, u, s, sp, al) -> np.ndarray:
    """The nine entries of R for Python floats or 1-d operands, shape (3, 3) or (n, 3, 3).

    Entry k is row k of R's transpose: an integer-indexed store, cheap on a
    scalar, and strided like R[..., i, j] on a batch, so R stays contiguous.
    """
    shape = getattr(V, "shape", ())   # np.shape would box a Python float in an array
    R = np.empty(shape + (9,))
    Rt = R.T
    common_top = V * s * u - V * sp * u + al * sp / 6
    Rt[0] = common_top - 0.5 * V * s + s * u - 0.5 * s - sp * u - sp / 6 + 1
    Rt[1] = common_top - 0.5 * V * s + sp / 3
    Rt[2] = common_top - 0.5 * V * s - s * u + 0.5 * s + sp * u - sp / 6
    Rt[3] = -2 * common_top - 2 * s * u + 2 * sp * u + sp / 3
    Rt[4] = -2 * common_top - 2 * sp / 3 + 1
    Rt[5] = -2 * common_top + 2 * s * u - 2 * sp * u + sp / 3
    Rt[6] = common_top + 0.5 * V * s + s * u + 0.5 * s - sp * u - sp / 6
    Rt[7] = common_top + 0.5 * V * s + sp / 3
    Rt[8] = common_top + 0.5 * V * s - s * u - 0.5 * s + sp * u - sp / 6 + 1
    return R.reshape(shape + (3, 3))


def relaxation_entries_closed_form(V, u, s, s_prime, alpha) -> np.ndarray:
    """The nine entries of R as explicit polynomials, shape (..., 3, 3).

    Independent of the matrix-product construction in the scheme module and
    of lam; serves as its cross-check and as the slack vector of the
    nine-inequality route.  Arrays are evaluated in chunks, as R is.
    """
    return _batched(_closed_form, _CHUNK, V, u, s, s_prime, alpha)


def nine_inequalities(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the nine closed-form entry values (row-major slacks)."""
    entries = relaxation_entries_closed_form(p.V, p.u, p.s, p.s_prime, p.alpha)
    return _verdict(entries.reshape(9), route="nine")


def matrix_entry_verdict(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the entries of the assembled matrix product."""
    return _verdict(build_relaxation_matrix(p).reshape(9), route="entries")


def reduced_parameters(p: SchemeParameters) -> ReducedParameters:
    """u_bar and gamma of p, computed on float64 operands (_operands)."""
    V, u, s, sp, al = _operands(p.V, p.u, p.s, p.s_prime, p.alpha)
    return ReducedParameters(u_bar=2.0 * u * (s - sp),
                             gamma=(sp / 6.0) * (1.0 - al) - u * (s - sp) * V)


def _chain_terms(V, u, s, sp):
    """The chain's sides for float64 operands, in units of 2*gamma.

    Returns (two lower sides, three upper sides).
    """
    ubar = 2.0 * u * (s - sp)
    sV = s * V
    return (sp - 1.0, abs(ubar)), (2.0 - s - abs(ubar - sV), s - abs(ubar + sV), sp - abs(sV))


def _bounds(V, u, s, sp):
    """(lower, upper) of the chain for float64 operands."""
    (l1, l2), (u1, u2, u3) = _chain_terms(V, u, s, sp)
    return np.maximum(l1, l2), np.minimum(np.minimum(u1, u2), u3)


def chain_bounds(V, u, s, s_prime):
    """Lower and upper bounds of the reduced chain, in units of 2*gamma.

    Vectorized; returns (lower, upper) where stability at given alpha reads
    lower <= 2*gamma <= upper.  Scalar inputs give float64 bounds; arrays
    are evaluated in chunks, as R is.
    """
    return _batched(_bounds, _CHUNK, V, u, s, s_prime)


def reduced_condition(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the five-comparison chain.

    Slacks, in order: 2g - (s'-1), 2g - |u_bar|, (2 - s - |u_bar - sV|) - 2g,
    (s - |u_bar + sV|) - 2g, (s' - |sV|) - 2g.
    """
    two_gamma = 2.0 * reduced_parameters(p).gamma
    lower, upper = _chain_terms(*_operands(p.V, p.u, p.s, p.s_prime))
    return _verdict([two_gamma - x for x in lower] + [x - two_gamma for x in upper], "reduced")


def gamma_feasible_interval(V, u, s, s_prime) -> GammaInterval:
    """Feasible gamma interval: the chain bounds halved, empty unless lower <= upper + TAU_STAB.

    NaN input gives an empty interval.  Scalar inputs give floats and a bool.
    """
    lower, upper = chain_bounds(V, u, s, s_prime)
    lo, hi = _unbox(lower, float) / 2.0, _unbox(upper, float) / 2.0
    fits = lo <= hi + TAU_STAB
    empty = ~fits if isinstance(fits, np.ndarray) else not fits
    return GammaInterval(lower=lo, upper=hi, empty=empty)


def pinned_gamma(V, u, s) -> float:
    """The value gamma is forced to when s' = 0 (alpha then drops out); a zero is +0.0."""
    return -u * s * V + 0.0


def alpha_from_gamma(gamma, V, u, s, s_prime):
    """Invert gamma back to alpha; None when s' = 0 (alpha-unconstrained).

    For s' = 0 the definition pins gamma at -u*s*V whatever alpha is, so
    callers must instead test that pinned value against the interval.
    """
    if s_prime == 0.0:
        return None
    return 1.0 - 6.0 * (gamma + u * (s - s_prime) * V) / s_prime


def alpha_interval(V, u, s, s_prime):
    """Feasible alpha interval, or None when empty or alpha-unconstrained.

    Maps the gamma interval endpoints through alpha_from_gamma (alpha is
    affine, decreasing in gamma for s' > 0).
    """
    iv = gamma_feasible_interval(V, u, s, s_prime)
    if iv.empty or s_prime == 0.0:
        return None
    a, b = (alpha_from_gamma(g, V, u, s, s_prime) for g in (iv.lower, iv.upper))
    return (min(a, b), max(a, b))


def _feasible_interval(V, u, s, s_prime):
    """The gamma interval and alpha_feasible's mask (0-d for scalar input) from one chain_bounds call."""
    iv = gamma_feasible_interval(V, u, s, s_prime)
    pinned = _batched(pinned_gamma, _CHUNK, V, u, s)
    pin_ok = (pinned >= iv.lower - TAU_STAB) & (pinned <= iv.upper + TAU_STAB)
    return iv, np.logical_and(np.logical_not(iv.empty), (s_prime != 0.0) | pin_ok)


def alpha_feasible(V, u, s, s_prime):
    """Whether some alpha (any alpha, when s' = 0) makes the scheme stable.

    Where s' = 0 the nonempty gamma interval must also hold the pinned gamma.
    NaN input is infeasible.  Scalar inputs give a bool; arrays a bool array.
    """
    return _unbox(_feasible_interval(V, u, s, s_prime)[1], bool)


def u_zero_slacks(V, s, s_prime):
    """Signed residuals of the explicit u = 0 region conditions (vectorized, in chunks as R).

    Conditions, for v = |V|: 0 <= s <= 2, 0 <= s' <= 2, s' >= s v,
    s <= 2/(1+v), s' <= 3 - (1+v) s, s' <= 1 + (1-v) s, and v <= 1.
    """
    return _batched(_u_zero, _CHUNK, V, s, s_prime)


def _u_zero(V, s, sp):
    """The nine u = 0 slacks for float64 operands of one shape B, shape B + (9,)."""
    v = abs(V)
    return np.stack((
        s, 2.0 - s, sp, 2.0 - sp, sp - s * v, 2.0 - s * (1.0 + v),
        (3.0 - (1.0 + v) * s) - sp, (1.0 + (1.0 - v) * s) - sp, 1.0 - v,
    ), axis=-1)


def u_zero_region(V, s, s_prime):
    """Explicit stability region in (s, s') when the relative velocity is zero.

    Negative V is folded to |V| (the region only depends on |V|).  For
    |V| <= 1 this is equivalent to the gamma interval at u = 0 being
    nonempty.  Scalar inputs give a bool; arrays a bool array, in chunks.
    """
    return _region(_u_zero, V, s, s_prime)


def u_zero_alpha_bounds(V, s, s_prime):
    """Feasible alpha interval at u = 0; None when s' = 0 (alpha-unconstrained).

    Raises ValueError outside u_zero_region(V, s, s_prime), at s' = 0 as
    elsewhere.  The upper endpoint never exceeds 1, and the lower endpoint
    satisfies s' <= 3/(alpha + 2).
    """
    if not u_zero_region(V, s, s_prime):
        raise ValueError(f"(V={V}, s={s}, s_prime={s_prime}) is outside the u=0 stability region")
    return alpha_interval(V, 0.0, s, s_prime)


def _necessary(V, s, sp):
    """The ten necessary-condition slacks for float64 operands of one shape B, shape B + (10,)."""
    v = abs(V)
    sv = s * v
    return np.stack((
        sv, sp - sv, 2.0 - sp, 1.0 - sv, s, 2.0 - s,
        (2.0 - sv) - sp, (s + 1.0) - sp, (3.0 - s) - sp, 2.0 - s * (1.0 + v),
    ), axis=-1)


def necessary_slacks(V, s, s_prime):
    """Signed residuals of the conditions every stable (s, s') must satisfy.

    For v = |V|: 0 <= s v <= s' <= 2, s v <= 1, 0 <= s <= 2,
    s' <= min(2 - s v, s + 1, 3 - s), s <= 2/(1+v).  These hold whatever u
    and alpha are, so they bound the union of all stability regions.  Arrays
    are evaluated in chunks, as R is.
    """
    return _batched(_necessary, _CHUNK, V, s, s_prime)


def necessary_region(V, s, s_prime):
    """Necessary-condition polytope in (s, s'); superset of every stable region.

    Arrays are evaluated in chunks, as R is, so the slack stack of a grid is
    never built whole.
    """
    return _region(_necessary, V, s, s_prime)

