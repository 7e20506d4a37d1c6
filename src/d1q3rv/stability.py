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
the same expressions on Python floats and returns Python floats or bools
(arrays for the entries and the slacks), with the bytes of its row in a
batched call.  Scalar arithmetic emits no NumPy overflow or invalid
RuntimeWarning; array arithmetic does, and so do R's (3, 3) products, which
for a scalar R run through ndarray.dot and warn "in dot" ("in matmul" for a
stack).  A scalar chain's max and min are comparisons (_max, _min) that
reproduce np.maximum and np.minimum: a NaN in either operand wins, and a tie
gives the second operand, so a tie of 0.0 and -0.0 takes the sign the
installed NumPy gives (a test pins it).  Arrays go through scheme._batched,
the one chunk loop, at one chunk size for every kernel here (_CHUNK): each
result's trailing shape and dtype come from the kernel, and the working
memory beyond the results stays within WORKING_SET_BYTES.  alpha_feasible,
gamma_feasible_interval and regionscan.scan come from one _batched pass of
the chain (_feasibility), and alpha_interval from its kernel (_interval),
each on the operands _operands converted, list and tuple input included, so
the s' = 0 rule reads the s' the chain reads.  The u = 0 region and the
necessary region are one rule, every slack of their kernel >= -TAU_STAB, so
neither builds its slack stack whole.
The verdict routes take a SchemeParameters, whose fields are Python floats (an
array field is a ValueError naming it), and alpha_interval alone takes
scalars only: an array there is a ValueError that names
gamma_feasible_interval and alpha_feasible.  The nine-inequality route
evaluates the closed form's own expression text (_entries) on the record's
Python floats, so it boxes no slack in an array, and the entries route reads
build_relaxation_matrix's R; a verdict's slacks and min_slack are Python
floats.  StabilityVerdict and GammaInterval are NamedTuples.  TAU_STAB and
GUARD_BAND are constants, not arguments.  A NaN slack makes a verdict unstable; NaN input is never feasible.
"""

from __future__ import annotations

import math
import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

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


class StabilityVerdict(NamedTuple):
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


class GammaInterval(NamedTuple):
    """Feasible gamma interval at fixed (V, u, s, s'), possibly empty; arrays for array input."""

    lower: float
    upper: float
    empty: bool


def _verdict(slacks, route: str) -> StabilityVerdict:
    """The verdict on slacks, an iterable of Python floats."""
    slacks = tuple(slacks)
    # min() skips a NaN unless it comes first.  A NaN anywhere makes the sum NaN,
    # as inf + -inf does, so only a NaN sum has the slacks searched for one.
    total = sum(slacks)
    m = math.nan if total != total and any(map(math.isnan, slacks)) else min(slacks)
    # a NaN first makes the least |slack| NaN, so it takes the enumeration too
    binding = () if min(map(abs, slacks)) > GUARD_BAND else tuple(
        [i for i, x in enumerate(slacks) if abs(x) <= GUARD_BAND])
    return StabilityVerdict(m >= -TAU_STAB, slacks, m, binding, route)


def _region(slacks, V, s, s_prime):
    """Whether every slack of the kernel slacks is >= -TAU_STAB, in chunks; a bool for scalars."""
    inside = _batched(lambda *ops: slacks(*ops).min(axis=-1) >= -TAU_STAB, _CHUNK, V, s, s_prime)
    return inside if inside.ndim else bool(inside)


def _entries(V, u, s, sp, al):
    """The nine entries of R as explicit polynomials, row-major, one at a time.

    Python floats give Python floats, 1-d operands 1-d arrays; the one
    expression text of both the nine-inequality route and the closed form.
    """
    common_top = V * s * u - V * sp * u + al * sp / 6
    yield common_top - 0.5 * V * s + s * u - 0.5 * s - sp * u - sp / 6 + 1
    yield common_top - 0.5 * V * s + sp / 3
    yield common_top - 0.5 * V * s - s * u + 0.5 * s + sp * u - sp / 6
    yield -2 * common_top - 2 * s * u + 2 * sp * u + sp / 3
    yield -2 * common_top - 2 * sp / 3 + 1
    yield -2 * common_top + 2 * s * u - 2 * sp * u + sp / 3
    yield common_top + 0.5 * V * s + s * u + 0.5 * s - sp * u - sp / 6
    yield common_top + 0.5 * V * s + sp / 3
    yield common_top + 0.5 * V * s - s * u - 0.5 * s + sp * u - sp / 6 + 1


def _closed_form(V, u, s, sp, al) -> np.ndarray:
    """The nine entries of R for Python floats or 1-d operands, shape (3, 3) or (n, 3, 3).

    Entry k is row k of R's transpose: an integer-indexed store, cheap on a
    scalar, and strided like R[..., i, j] on a batch, so R stays contiguous.
    """
    shape = getattr(V, "shape", ())   # np.shape would box a Python float in an array
    R = np.empty(shape + (9,))
    Rt = R.T
    entries = _entries(V, u, s, sp, al)
    for k in range(9):   # no name holds entry k while entry k + 1 is computed
        Rt[k] = next(entries)
    return R.reshape(shape + (3, 3))


def relaxation_entries_closed_form(V, u, s, s_prime, alpha) -> np.ndarray:
    """The nine entries of R as explicit polynomials, shape (..., 3, 3).

    Independent of the matrix-product construction in the scheme module and
    of lam; serves as its cross-check and as the slack vector of the
    nine-inequality route.  Arrays are evaluated in chunks, as R is.

    Four identities guard the entry text.  Entries 2 and 5, and 6 and 3, of
    _entries give 2 R02 + R12 = s(1 - V) and 2 R20 + R10 = s(1 + V), so
    R >= 0 forces s >= 0 and s(1 - |V|) >= 0.  And R's eigenvalues are 1,
    1 - s and 1 - s': T^-1's first row is (1, 0, 0) and only E's first
    column is non-zero, so E T^-1 = E and T E T^-1 has only its first column
    non-zero; with S = diag(0, s, s'), I + S (T E T^-1 - I) is then lower
    triangular with diagonal (1, 1 - s, 1 - s'), and R is similar to it.
    Hence trace R = 3 - s - s' and det R = (1 - s)(1 - s').

    Three more tie R to the equilibrium weights w of (V, alpha).  With
    common_top = V u (s - s') + alpha s'/6, entries 1, 7, and 3 plus 5 give
    R01 = s' w0 + V(s - s')(u - 1/2), R21 = s' w2 + V(s - s')(u + 1/2) and
    R10 + R12 = 2 s' w1 - 4 V u (s - s').  So where V(s - s') = 0 and s' > 0
    (lemma (d)), R >= 0 gives w >= 0 directly, and a stable verdict,
    R >= -TAU_STAB, only w >= -TAU_STAB / s': at (V, u, s, s', alpha) =
    (0, 0, 1, 1e-9, 1.001) the least entry is -3.3e-13, yet w1 = -3.3e-4.
    """
    return _batched(_closed_form, _CHUNK, V, u, s, s_prime, alpha)


def nine_inequalities(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the nine closed-form entry values (row-major slacks).

    The closed form's expression text (_entries) on the record's Python floats:
    the bytes of relaxation_entries_closed_form, without an array.
    """
    return _verdict(_entries(p.V, p.u, p.s, p.s_prime, p.alpha), "nine")


def matrix_entry_verdict(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the entries of the assembled matrix product (build_relaxation_matrix)."""
    return _verdict(build_relaxation_matrix(p).reshape(9).tolist(), "entries")


def _reduced(V, u, s, sp, al):
    """(u_bar, gamma) of float64 operands."""
    return 2.0 * u * (s - sp), (sp / 6.0) * (1.0 - al) - u * (s - sp) * V


def reduced_parameters(p: SchemeParameters) -> ReducedParameters:
    """u_bar and gamma of p, computed on its Python floats."""
    return ReducedParameters(*_reduced(p.V, p.u, p.s, p.s_prime, p.alpha))


def _chain_terms(V, u, s, sp):
    """The chain's sides for float64 operands, in units of 2*gamma.

    Returns (two lower sides, three upper sides).
    """
    ubar = 2.0 * u * (s - sp)
    sV = s * V
    return (sp - 1.0, abs(ubar)), (2.0 - s - abs(ubar - sV), s - abs(ubar + sV), sp - abs(sV))


def _max(a, b):
    """np.maximum on Python floats: a NaN in either operand wins, and a tie gives b."""
    return a if a > b or a != a else b


def _min(a, b):
    """np.minimum on Python floats: a NaN in either operand wins, and a tie gives b."""
    return a if a < b or a != a else b


def _bounds(V, u, s, sp):
    """(lower, upper) of the chain for float64 operands: Python floats for Python floats."""
    (l1, l2), (u1, u2, u3) = _chain_terms(V, u, s, sp)
    if type(l1) is float:
        return _max(l1, l2), _min(_min(u1, u2), u3)
    return np.maximum(l1, l2), np.minimum(np.minimum(u1, u2), u3)


def chain_bounds(V, u, s, s_prime):
    """Lower and upper bounds of the reduced chain, in units of 2*gamma.

    Vectorized; returns (lower, upper) where stability at given alpha reads
    lower <= 2*gamma <= upper.  Scalar inputs give Python floats; arrays
    are evaluated in chunks, as R is.
    """
    return _batched(_bounds, _CHUNK, V, u, s, s_prime)


def reduced_condition(p: SchemeParameters) -> StabilityVerdict:
    """Stability by the five-comparison chain.

    Slacks, in order: 2g - (s'-1), 2g - |u_bar|, (2 - s - |u_bar - sV|) - 2g,
    (s - |u_bar + sV|) - 2g, (s' - |sV|) - 2g.
    """
    two_gamma = 2.0 * _reduced(p.V, p.u, p.s, p.s_prime, p.alpha)[1]
    lower, upper = _chain_terms(p.V, p.u, p.s, p.s_prime)
    return _verdict([two_gamma - x for x in lower] + [x - two_gamma for x in upper], "reduced")


def _interval(V, u, s, sp):
    """(lower, upper, empty, feasible) of the gamma interval for float64 operands.

    feasible is alpha_feasible's answer: a nonempty interval that, where
    s' = 0, also holds the pinned gamma.  Python floats give floats and bools.
    """
    lower, upper = _bounds(V, u, s, sp)
    lower, upper = lower / 2.0, upper / 2.0
    fits = lower <= upper + TAU_STAB
    pinned = pinned_gamma(V, u, s)
    pin_ok = (pinned >= lower - TAU_STAB) & (pinned <= upper + TAU_STAB)
    return lower, upper, fits ^ True, fits & ((sp != 0.0) | pin_ok)


def _feasibility(V, u, s, s_prime):
    """_interval on the converted operands, in one chunked pass: the source of every interval."""
    return _batched(_interval, _CHUNK, V, u, s, s_prime)


def gamma_feasible_interval(V, u, s, s_prime) -> GammaInterval:
    """Feasible gamma interval: the chain bounds halved, empty unless lower <= upper + TAU_STAB.

    NaN input gives an empty interval.  Scalar inputs give floats and a bool.
    """
    return GammaInterval(*_feasibility(V, u, s, s_prime)[:3])


def pinned_gamma(V, u, s) -> float:
    """The value gamma is forced to when s' = 0 (alpha then drops out); a zero is +0.0."""
    return -u * s * V + 0.0


def alpha_interval(V, u, s, s_prime):
    """Feasible alpha interval, or None when the gamma interval is empty or s' = 0; scalars only.

    The operands are converted once (_operands), so the ends are Python
    floats for NumPy scalars and 0-d arrays too.  Each gamma endpoint g maps to alpha = 1 - 6 (g + u (s - s') V) / s'
    (affine, decreasing in gamma for s' > 0).  At s' = 0 alpha drops out of
    gamma, which is pinned at -u s V; alpha_feasible then tells "every
    alpha" from "no alpha".
    """
    V, u, s, s_prime = _operands(V, u, s, s_prime)
    if type(V) is not float:
        raise ValueError("alpha_interval takes scalars only; gamma_feasible_interval and "
                         "alpha_feasible take arrays")
    lower, upper, empty, _ = _interval(V, u, s, s_prime)
    if empty or s_prime == 0.0:
        return None
    a, b = (1.0 - 6.0 * (g + u * (s - s_prime) * V) / s_prime for g in (lower, upper))
    return (min(a, b), max(a, b))


def alpha_feasible(V, u, s, s_prime):
    """Whether some alpha (any alpha, when s' = 0) makes the scheme stable.

    Where s' = 0 the nonempty gamma interval must also hold the pinned gamma.
    "Any alpha" there is a statement about R alone: alpha leaves R unchanged,
    but not the equilibrium weights, which R >= 0 keeps non-negative only
    when s s' != 0; at (V, u, s, s', alpha) = (0, 0, 1, 0, 5), R >= 0 and
    w = (7/6, -4/3, 7/6).
    NaN input is infeasible.  Scalar inputs give a bool; arrays a bool array.
    """
    return _feasibility(V, u, s, s_prime)[3]


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

