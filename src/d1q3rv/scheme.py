"""D1Q3 lattice Boltzmann scheme with relative velocity.

The scheme lives on a 1D lattice with the three velocities -lambda, 0,
+lambda, those of f1, f2 and f3 (matrix row and column 0 belong to the left
mover).  Collisions relax the first and second shifted moments toward
advection equilibria at rates s and s'; the shift is controlled by the
relative velocity u.  This module builds the moment matrix M, the basis
shift T(u), the relaxation rates S, the equilibrium projector E, and the
resulting per-cell relaxation operator

    R = M^-1 T^-1 (I + S (T E T^-1 - I)) T M,

which acts directly on the distribution triple (f1, f2, f3).  All values
are float64; every function is pure.
"""

from __future__ import annotations

import math
import numbers
import operator
import numpy as np
from dataclasses import dataclass
from typing import NamedTuple

_EYE = np.eye(3)

# Entrywise absolute tolerance for 3x3 matrix identities.  All entries are
# low-degree polynomials of O(1) inputs, so double precision leaves margin.
TAU_MAT = 1e-12

# Working memory a batched path may hold beyond its result: advance's history
# block and a relaxation_matrices chunk are sized to stay within it.
WORKING_SET_BYTES = 2**20

# Tuples per relaxation_matrices chunk.  A chunk's six (3, 3) factors, the
# product's temporaries and its slices of the inputs peak at about 710 B per
# tuple plus 75 KiB (tracemalloc); 896 B per tuple keeps it about a tenth
# under WORKING_SET_BYTES.
_CHUNK = WORKING_SET_BYTES // 896


@dataclass(frozen=True)
class SchemeParameters:
    """One scheme instance.

    V is the nondimensional advection velocity (physical speed lam*V),
    u the relative velocity shifting the moment basis, s and s_prime the
    relaxation rates, alpha the second equilibrium parameter, and lam the
    lattice velocity dx/dt.  Each field is stored as a Python float, converted
    once here (_real): a value that is not a real number, or does not fit a
    float, is a ValueError naming its field, and NaN and +-inf are kept.
    Beyond lam > 0 no admissibility restriction is applied here; the
    stability module decides which tuples yield a non-negative R.
    """

    V: float
    u: float = 0.0
    s: float = 1.0
    s_prime: float = 1.0
    alpha: float = 0.0
    lam: float = 1.0

    def __post_init__(self):
        for name in ("V", "u", "s", "s_prime", "alpha", "lam"):
            value = getattr(self, name)
            if type(value) is not float:
                object.__setattr__(self, name, _real(value, name))
        if not self.lam > 0:
            raise ValueError(f"lattice velocity must be positive, got lam={self.lam}")


def _integer(value, name: str) -> int:
    """value as an int by operator.index, so NumPy integers pass; a ValueError naming it otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name: str) -> float:
    """value as a Python float; a ValueError naming it unless it is a real number that fits one.

    A finite value that rounds to +-inf (a wide np.longdouble) does not fit; +-inf and NaN do.
    """
    if isinstance(value, numbers.Real):
        try:
            x = float(value)
        except OverflowError:
            pass
        else:
            if not math.isinf(x) or x == value:
                return x
    raise ValueError(f"{name} must be a real number that fits a float, got {value!r}")


def _write_lines(out, lines) -> None:
    """Write the strings of lines to out: an open text file, or a path opened
    here once, as UTF-8 with newlines written as they are."""
    if hasattr(out, "write"):
        return out.writelines(lines)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)


_SCALAR_TYPES = frozenset((float, int, np.float64))


def _operands(*xs):
    """Inputs as float64 operands for one expression text.

    All 0-d (float, int, np.float64 or 0-d arrays): Python floats.  Their
    + - * / and abs round as float64 does, at about a quarter of a NumPy
    scalar's cost per operation, and unlike NumPy scalars they emit no
    overflow or invalid RuntimeWarning.  Otherwise: the float arrays broadcast
    to one shape, with NumPy's warnings.
    """
    if _SCALAR_TYPES.issuperset(map(type, xs)):
        return tuple(map(float, xs))
    arrays = [np.asarray(x, float) for x in xs]
    if all(a.ndim == 0 for a in arrays):
        return tuple(map(float, arrays))
    return np.broadcast_arrays(*arrays)


def _factors(V, u, s, sp, al, lam) -> np.ndarray:
    """R's six factors (M^-1, T(-u), S, T(u), E, M), in product order.

    Python floats give shape (6, 3, 3); 1-d operands of length n give a
    (6, n, 3, 3) view.  The 54 entries go into one flat array, which is
    reshaped: np.array of a nested list costs several times more.  The two
    divisions by lam divide a NumPy float64, so lam = 0 gives NaN with a
    RuntimeWarning for scalars too.
    """
    shape = getattr(V, "shape", ())   # np.shape would box a Python float in an array
    o, z = (np.ones(shape), np.zeros(shape)) if shape else (1.0, 0.0)
    l2 = lam * lam
    a, b, c = o / 3.0, np.float64(1.0) / (2.0 * lam), np.float64(1.0) / (6.0 * l2)

    def shift(v):
        return [o, z, z, -lam * v, o, z, 3.0 * l2 * (v * v), -6.0 * lam * v, o]

    f = np.array([a, -b, c, a, z, -2.0 * c, a, b, c, *shift(-u),
                  z, z, z, z, s, z, z, z, sp, *shift(u),
                  o, z, z, V * lam, z, z, al * l2, z, z,
                  o, o, o, -lam, z, lam, l2, -2.0 * l2, l2], dtype=float).reshape((6, 3, 3) + shape)
    return np.moveaxis(f, (1, 2), (-2, -1)) if shape else f


def _relaxation_product(M_inv, T_inv, S, T, E, M) -> np.ndarray:
    """R = M^-1 T^-1 (I + S (T E T^-1 - I)) T M, for single matrices or stacks.

    Single (3, 3) factors go through ndarray.dot, stacks through @.  Both run
    the same BLAS gemm per 3x3 product, so the bytes agree, and dot costs less
    dispatch per call; its RuntimeWarnings say "in dot", not "in matmul".
    """
    if M_inv.ndim == 2:
        return M_inv.dot(T_inv).dot(_EYE + S.dot(T.dot(E).dot(T_inv) - _EYE)).dot(T).dot(M)
    return M_inv @ T_inv @ (_EYE + S @ (T @ E @ T_inv - _EYE)) @ T @ M


class RelaxationFactors(NamedTuple):
    """The six factors of R = M^-1 T^-1 (I + S (T E T^-1 - I)) T M, as 3x3 float64 arrays.

    M is the moment matrix: its rows evaluate 1, lam*X, lam^2*(3X^2-2) at the
    velocities, and det M = 6 lam^3, so M_inv is its closed-form inverse.  T
    shifts plain moments to moments of (c - u); it is lower triangular with
    unit diagonal, hence invertible for any u, and T_inv = T(-u).  S holds the
    diagonal relaxation rates (0, s, s'): density is conserved, q and eps
    relax.  E is the equilibrium projector in the unshifted moment basis; only
    its first column is nonzero, as equilibria depend on the density alone.
    """

    M_inv: np.ndarray
    T_inv: np.ndarray
    S: np.ndarray
    T: np.ndarray
    E: np.ndarray
    M: np.ndarray


def relaxation_factors(p: SchemeParameters) -> RelaxationFactors:
    """R's six factors for one scheme instance, built from its Python floats."""
    return RelaxationFactors(*_factors(p.V, p.u, p.s, p.s_prime, p.alpha, p.lam))


def build_relaxation_matrix(p: SchemeParameters) -> np.ndarray:
    """Per-cell collision operator R acting on (f1, f2, f3).

    Entries are independent of lam and each column sums to 1 (density
    conservation).  Non-negativity of all nine entries is the stability
    notion studied by the stability module.  This is the 0-d case of
    relaxation_matrices, the record's Python floats going straight to its kernel.
    """
    return _relaxation_product(*_factors(p.V, p.u, p.s, p.s_prime, p.alpha, p.lam))


def _flat(a: np.ndarray):
    """a's elements in row-major order as a 1-d view, or as a.flat where no view has them.

    A contiguous a, or one value broadcast (all strides 0), reshapes to a view.
    A view's slices cost nothing; a.flat copies each slice element by element.
    """
    if a.flags.c_contiguous or not any(a.strides):
        return a.reshape(-1)
    return a.flat


def _batched(kernel, chunk, *args):
    """kernel on args as float64 operands (_operands), evaluated chunk tuples at a time.

    kernel maps operands of one shape B to an array of shape B + tail, or to a
    tuple of them; each result takes the first chunk's tail and dtype.  Scalar
    operands, Python floats, go to kernel as they are; array operands go in
    1-d slices of their flattened broadcast shape (an empty batch in one empty
    slice), so the working memory beyond the results stays within
    WORKING_SET_BYTES for any batch size.  A chunk runs a scalar call's
    expressions, and IEEE arithmetic rounds alike on both kinds of float: the
    bytes agree.
    """
    ops = _operands(*args)
    if type(ops[0]) is float:
        return kernel(*ops)
    shape, ops = ops[0].shape, [_flat(a) for a in ops]
    for k in range(0, max(len(ops[0]), 1), chunk):
        parts = kernel(*(a[k:k + chunk] for a in ops))
        parts = parts if isinstance(parts, tuple) else (parts,)
        if not k:
            outs = [np.empty(shape + p.shape[1:], p.dtype) for p in parts]
        for out, p in zip(outs, parts):
            out.reshape((-1,) + p.shape[1:])[k:k + chunk] = p
        del parts, p   # so the next chunk's temporaries do not meet this one's outputs
    return tuple(outs) if len(outs) > 1 else outs[0]


def relaxation_matrices(V, u, s, s_prime, alpha, lam=1.0) -> np.ndarray:
    """Relaxation operators R, shape broadcast(inputs) + (3, 3).

    Scalar inputs give one (3, 3) matrix, built from Python floats; arrays
    give a stack, built in chunks without per-tuple Python calls (_batched):
    its working memory beyond the result stays within WORKING_SET_BYTES for
    any batch size, and a tuple's R has the same bytes either way.
    """
    return _batched(lambda *ops: _relaxation_product(*_factors(*ops)), _CHUNK,
                    V, u, s, s_prime, alpha, lam)


def equilibrium_weights(p: SchemeParameters) -> np.ndarray:
    """Equilibrium distribution per unit density; independent of u."""
    return np.array([
        (2.0 - 3.0 * p.V + p.alpha) / 6.0,
        (2.0 - 2.0 * p.alpha) / 6.0,
        (2.0 + 3.0 * p.V + p.alpha) / 6.0,
    ])


def equilibrium_distributions(rho, p: SchemeParameters) -> np.ndarray:
    """Equilibrium triple(s) for density rho: rho times equilibrium_weights.

    The weights sum to 1 only up to rounding, so the triple sums back to rho
    within 2 eps rho sum|w_k| (a test bounds seeded tuples), not exactly:
    (V, alpha, rho) = (0.25, 0, 0.3) gives 0.29999999999999993.  rho may be
    a scalar (returns shape (3,)) or an array of cell densities (returns
    rho.shape + (3,)).
    """
    return np.asarray(rho, float)[..., None] * equilibrium_weights(p)


def _check_moment_change(C: np.ndarray) -> np.ndarray:
    C = np.asarray(C, float)
    if C.shape != (3, 3):
        raise ValueError(f"change-of-basis matrix must be 3x3, got shape {C.shape}")
    if np.max(np.abs(C[0] - np.array([1.0, 0.0, 0.0]))) > TAU_MAT:
        raise ValueError("change of basis must preserve the density moment: first row must be (1, 0, 0)")
    if abs(np.linalg.det(C)) <= TAU_MAT:
        raise ValueError("change-of-basis matrix must be invertible")
    return C


def basis_commutator(C, p: SchemeParameters) -> np.ndarray:
    """(S C - C S) T (E - I) for a moment change of basis C.

    This matrix is zero for all (s, s') exactly when C[1,2] = C[2,1] = 0,
    which is the condition for the relaxation operator to be unchanged by
    the change of basis.  C must be invertible with first row (1, 0, 0).
    """
    C = _check_moment_change(C)
    _, _, S, T, E, _ = relaxation_factors(p)
    return (S @ C - C @ S) @ T @ (E - _EYE)


def change_basis_relaxation_matrix(C, p: SchemeParameters) -> np.ndarray:
    """Relaxation operator of the scheme rebuilt in the moment basis C @ M.

    The shifted basis becomes C T C^-1, the equilibrium projector C E, and
    the relaxation rates stay diagonal.  The result differs from
    build_relaxation_matrix(p) by M^-1 T^-1 C^-1 @ basis_commutator(C, p) @ M.
    """
    C = _check_moment_change(C)
    Cinv = np.linalg.inv(C)
    M_inv, T_inv, S, T, E, M = relaxation_factors(p)
    return _relaxation_product(M_inv @ Cinv, C @ T_inv @ Cinv, S, C @ T @ Cinv, C @ E, C @ M)
