import functools
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from d1q3rv.scheme import (_CHUNK, TAU_MAT, WORKING_SET_BYTES, RelaxationFactors, SchemeParameters,
                           _flat, basis_commutator, build_relaxation_matrix, change_basis_relaxation_matrix,
                           equilibrium_distributions, equilibrium_weights, relaxation_factors,
                           relaxation_matrices)
from d1q3rv.simulator import InitialProfile
from d1q3rv.stability import _CHUNK as _KERNEL_CHUNK
from d1q3rv.stability import (chain_bounds, necessary_slacks, relaxation_entries_closed_form,
                              u_zero_slacks)
from reference import moments

TOL = 1e-12

# Same shape, and entrywise within TAU_MAT; a NaN matches nothing.
assert_close = functools.partial(np.testing.assert_allclose, rtol=0, atol=TAU_MAT, equal_nan=False)

# A long double wider than a float (x86's 80-bit one) holds finite values that round to +-inf.
WIDE_LONGDOUBLE = np.finfo(np.longdouble).max > np.finfo(float).max


def params(V=0.25, u=0.0, s=1.0, s_prime=1.0, alpha=0.0, lam=1.0):
    return SchemeParameters(V=V, u=u, s=s, s_prime=s_prime, alpha=alpha, lam=lam)


def test_lambda_must_be_positive():
    with pytest.raises(ValueError):
        SchemeParameters(V=0.0, lam=0.0)
    with pytest.raises(ValueError):
        SchemeParameters(V=0.0, lam=-1.0)


# Every numeric field of both records, with how to build a record from one value of it.
RECORD_FIELDS = [*((name, lambda **kw: SchemeParameters(**{"V": 0.25, **kw}))
                   for name in ("V", "u", "s", "s_prime", "alpha", "lam")),
                 *((name, lambda **kw: InitialProfile(**kw)) for name in ("low", "high", "center", "width"))]


@pytest.mark.parametrize("name,record", RECORD_FIELDS, ids=[name for name, _ in RECORD_FIELDS])
def test_a_record_holds_its_numbers_as_python_floats(name, record):
    # Positive finite values, so that lam > 0, width > 0 and a finite center hold.
    for x in (0.25, 3, True, np.float64(0.1), np.float32(0.1), np.int64(7), np.uint8(2),
              Fraction(1, 3)):
        value = getattr(record(**{name: x}), name)
        assert type(value) is float and value.hex() == float(x).hex(), (x, value)
    for x in (np.array([0.1, 0.2]), np.array(0.5), "0.5", Decimal("0.5"), 10**400, 1j,
              *(np.longdouble(v) for v in (["1e400", "-1e400"] if WIDE_LONGDOUBLE else [])),
              *([] if name in ("center", "width") else [None])):
        with pytest.raises(ValueError, match=f"^{name} must be a real number that fits a float"):
            record(**{name: x})
    if name in ("center", "width"):
        assert getattr(record(), name) is None
    if name not in ("lam", "center", "width"):
        for x in (math.nan, math.inf, -math.inf, np.float64(-math.inf), np.longdouble("inf")):
            assert getattr(record(**{name: x}), name).hex() == float(x).hex()


def test_build_M_unit_lambda():
    assert_close(relaxation_factors(params(lam=1)).M, [[1, 1, 1], [-1, 0, 1], [1, -2, 1]])


def test_build_M_scales_with_lambda():
    assert_close(relaxation_factors(params(lam=2)).M, [[1, 1, 1], [-2, 0, 2], [4, -8, 4]])


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 7.3])
def test_build_M_determinant(lam):
    # det M = 6 lam^3, never zero
    det = np.linalg.det(relaxation_factors(params(lam=lam)).M)
    assert det == pytest.approx(6 * lam**3, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
def test_inverse_M_closed_form(lam):
    f = relaxation_factors(params(lam=lam))
    assert_close(f.M_inv @ f.M, np.eye(3))
    assert_close(f.M @ f.M_inv, np.eye(3))


def test_build_T_no_shift_is_identity():
    assert_close(relaxation_factors(params(u=0.0)).T, np.eye(3))


def test_build_T_unit_values():
    assert_close(relaxation_factors(params(u=1.0, lam=1.0)).T, [[1, 0, 0], [-1, 1, 0], [3, -6, 1]])


@pytest.mark.parametrize("u,lam", [(0.3, 1.0), (-0.7, 2.0), (1.0, 0.5), (2.5, 3.0)])
def test_inverse_T_by_substitution(u, lam):
    f = relaxation_factors(params(u=u, lam=lam))
    assert_close(f.T @ f.T_inv, np.eye(3))
    assert_close(f.T_inv @ f.T, np.eye(3))


def test_build_S_diagonal():
    assert_close(relaxation_factors(params(s=1.0, s_prime=1.0)).S, np.diag([0.0, 1.0, 1.0]))
    assert_close(relaxation_factors(params(s=1.6, s_prime=1.3)).S, np.diag([0.0, 1.6, 1.3]))
    assert_close(relaxation_factors(params(s=0.0, s_prime=0.0)).S, np.zeros((3, 3)))


def test_build_E_first_column_only():
    E = relaxation_factors(params(V=0.0, alpha=0.0, lam=1.0)).E
    assert_close(E, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    E = relaxation_factors(params(V=0.25, alpha=4 / 13, lam=1.0)).E
    assert_close(E[:, 0], [1.0, 0.25, 4 / 13])
    assert np.all(E[:, 1:] == 0)


def test_E_absorbs_density_preserving_basis_change():
    # E C = E whenever the first row of C is (1, 0, 0)
    E = relaxation_factors(params(V=0.7, alpha=-0.4, lam=2.0)).E
    rng = np.random.default_rng(3)
    for _ in range(5):
        C = np.vstack([[1.0, 0.0, 0.0], rng.uniform(-2, 2, (2, 3))])
        assert_close(E @ C, E)


def test_relaxation_factors_multiply_to_R_in_product_order():
    p = params(V=0.7, u=-0.4, s=1.6, s_prime=1.3, alpha=-0.4, lam=2.0)
    f = relaxation_factors(p)
    assert isinstance(f, RelaxationFactors)
    assert all(x.shape == (3, 3) and x.dtype == np.float64 for x in f)
    assert np.array_equal(f.T_inv, relaxation_factors(params(V=0.7, u=0.4, lam=2.0)).T)
    assert np.array_equal(np.diag(f.T), np.ones(3)) and not np.triu(f.T, 1).any()
    M_inv, T_inv, S, T, E, M = f
    R = M_inv @ T_inv @ (np.eye(3) + S @ (T @ E @ T_inv - np.eye(3))) @ T @ M
    assert np.array_equal(R, build_relaxation_matrix(p))


def test_relaxation_factors_of_integer_fields_are_float64():
    ints = relaxation_factors(SchemeParameters(V=1, u=0, s=1, s_prime=2, alpha=0, lam=2))
    floats = relaxation_factors(SchemeParameters(V=1.0, u=0.0, s=1.0, s_prime=2.0, alpha=0.0, lam=2.0))
    for a, b in zip(ints, floats):
        assert a.dtype == np.float64 and np.array_equal(a, b)


def test_relaxation_identity_when_rates_vanish():
    assert_close(build_relaxation_matrix(params(s=0.0, s_prime=0.0, V=0.7, u=0.3, alpha=1.4)),
                 np.eye(3))


@pytest.mark.parametrize("u", [0.0, 0.4, -1.1])
def test_relaxation_projects_onto_equilibrium_at_unit_rates(u):
    p = params(V=0.3, u=u, s=1.0, s_prime=1.0, alpha=0.2)
    R = build_relaxation_matrix(p)
    w = equilibrium_weights(p)
    assert_close(R, np.outer(w, np.ones(3)))


def test_relaxation_rows_frozen_example():
    R = build_relaxation_matrix(params(V=0.25, u=0.0, s=1.0, s_prime=1.0, alpha=0.0))
    expect = np.outer([1.25 / 6, 2.0 / 6, 2.75 / 6], np.ones(3))
    assert_close(R, expect)


def test_relaxation_negative_entry_example():
    # this tuple is often quoted as stable but its operator has a negative entry
    R = build_relaxation_matrix(params(V=0.25, u=0.0, s=1.6, s_prime=1.3, alpha=4 / 13))
    assert R[0, 0] == pytest.approx(-0.15, abs=1e-14)


def test_relaxation_column_sums_and_lambda_independence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        V, u = rng.uniform(-1.5, 1.5), rng.uniform(-1, 1)
        s, sp = rng.uniform(-0.5, 2.5, 2)
        alpha = rng.uniform(-2, 2)
        R1 = build_relaxation_matrix(params(V, u, s, sp, alpha, lam=1.0))
        R2 = build_relaxation_matrix(params(V, u, s, sp, alpha, lam=7.3))
        assert np.max(np.abs(R1.sum(axis=0) - 1.0)) <= TOL
        assert np.max(np.abs(R1 - R2)) <= TOL


def test_relaxation_fixes_equilibrium():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        feq = equilibrium_distributions(rng.uniform(0.1, 5.0), p)
        assert np.max(np.abs(build_relaxation_matrix(p) @ feq - feq)) <= TOL


def _tuples(rng, n):
    return (rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n), rng.uniform(-0.5, 2.5, n),
            rng.uniform(-0.5, 2.5, n), rng.uniform(-2, 2, n), rng.choice([0.5, 1.0, 3.0], n))


def _scalar_calls(*args):
    """R through one scalar call per tuple, stacked in the broadcast shape."""
    cols = np.broadcast_arrays(*args)
    rows = zip(*(c.ravel().tolist() for c in cols))
    return np.array([relaxation_matrices(*t) for t in rows]).reshape(cols[0].shape + (3, 3))


def test_batched_matches_scalar_construction():
    V, u, s, sp, alpha, lam = _tuples(np.random.default_rng(13), 50)
    batch = relaxation_matrices(V, u, s, sp, alpha, lam)
    assert batch.shape == (50, 3, 3)
    for k in range(50):
        Rk = build_relaxation_matrix(params(V[k], u[k], s[k], sp[k], alpha[k], lam[k]))
        assert batch[k].tobytes() == Rk.tobytes()


def test_flat_of_one_broadcast_value_is_a_zero_stride_view():
    a = np.broadcast_to(2.0, (300, 300))
    flat = _flat(a)
    assert np.shares_memory(flat, a)
    assert flat.shape == (90_000,) and flat.strides == (0,)
    assert (flat == 2.0).all()


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1, 0])
def test_batches_across_chunk_boundaries_are_the_bytes_of_scalar_calls(n):
    args = _tuples(np.random.default_rng(n), n)
    batch = relaxation_matrices(*args)
    assert batch.shape == (n, 3, 3)
    assert batch.tobytes() == _scalar_calls(*args).tobytes()


def test_broadcast_batch_over_several_chunks_is_the_bytes_of_scalar_calls():
    rng = np.random.default_rng(29)
    n, m = 5, _CHUNK // 2 + 7   # chunk boundaries fall inside rows of the (n, m) grid
    args = (rng.uniform(-1.5, 1.5, (n, 1)), rng.uniform(-1, 1, m), 1.6,
            rng.uniform(-0.5, 2.5, m), rng.uniform(-2, 2, (n, 1)), 3.0)
    batch = relaxation_matrices(*args)
    assert batch.shape == (n, m, 3, 3) and n * m > 2 * _CHUNK
    assert batch.tobytes() == _scalar_calls(*args).tobytes()


def test_batched_working_memory_stays_within_one_mebibyte():
    # Beyond its result, a batch holds at most one chunk's working set.
    args = _tuples(np.random.default_rng(50), 50_000)
    tracemalloc.start()
    try:
        R = relaxation_matrices(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= R.nbytes + 2**20, (peak, R.nbytes)


# The other batched calls, all in chunks of _KERNEL_CHUNK tuples: (function, number of inputs)
_CHUNKED = {"closed form": (relaxation_entries_closed_form, 5),
            "chain bounds": (chain_bounds, 4),
            "necessary slacks": (necessary_slacks, 3),
            "u = 0 slacks": (u_zero_slacks, 3)}


def _batch_and_scalar_calls(fn, *args):
    """fn on arrays, and fn through one scalar call per tuple, as arrays of one shape."""
    batch = fn(*args)
    batch = np.stack(batch, axis=-1) if isinstance(batch, tuple) else batch
    cols = np.broadcast_arrays(*args)
    rows = [fn(*t) for t in zip(*(c.ravel().tolist() for c in cols))]
    return batch, np.array(rows).reshape(batch.shape)


@pytest.mark.parametrize("name", sorted(_CHUNKED))
def test_closed_form_and_bounds_across_chunk_boundaries_are_the_bytes_of_scalar_calls(name):
    fn, n_args = _CHUNKED[name]
    for n in (_KERNEL_CHUNK - 1, _KERNEL_CHUNK + 1, 0):
        batch, scalar = _batch_and_scalar_calls(fn, *_tuples(np.random.default_rng(n), n)[:n_args])
        assert batch.shape[0] == n and batch.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("name", sorted(_CHUNKED))
def test_closed_form_and_bounds_broadcast_over_several_chunks_are_the_bytes_of_scalar_calls(name):
    fn, n_args = _CHUNKED[name]
    rng = np.random.default_rng(31)
    m = _KERNEL_CHUNK // 2 + 7   # chunk boundaries fall inside rows
    mixed = (rng.uniform(-1.5, 1.5, (5, 1)), rng.uniform(-1, 1, m), 1.6,
             rng.uniform(-0.5, 2.5, m), rng.uniform(-2, 2, (5, 1)))
    grid = (2 / 3, 0.4, rng.uniform(0, 2.2, (3, m)), rng.uniform(0, 2.2, (3, m)), 0.3)
    for args in (mixed, grid):
        batch, scalar = _batch_and_scalar_calls(fn, *args[:n_args])
        assert batch.size > 2 * _KERNEL_CHUNK and batch.tobytes() == scalar.tobytes()


@pytest.mark.parametrize("name", sorted(_CHUNKED))
def test_closed_form_and_bounds_working_memory_stays_within_one_mebibyte(name):
    fn, n_args = _CHUNKED[name]
    args = _tuples(np.random.default_rng(50), 100_000)[:n_args]
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
    assert peak <= result + WORKING_SET_BYTES, (peak, result)


def test_relaxation_matrices_broadcast_mixed_shapes():
    rng = np.random.default_rng(19)
    V = rng.uniform(-1.5, 1.5, (4, 1))
    u = rng.uniform(-1, 1, 3)
    batch = relaxation_matrices(V, u, 1.6, 1.3, 0.3, 2.0)
    assert batch.shape == (4, 3, 3, 3)
    closed = relaxation_entries_closed_form(V, u, 1.6, 1.3, 0.3)
    assert np.max(np.abs(batch - closed)) <= TAU_MAT
    single = relaxation_matrices(0.25, 0.25, 1.6, 1.3, 0.3)
    assert single.shape == (3, 3)
    closed = relaxation_entries_closed_form(0.25, 0.25, 1.6, 1.3, 0.3)
    assert np.max(np.abs(single - closed)) <= TAU_MAT


def test_scalar_calls_agree_with_batched_rows():
    # Scalar calls run the batched expressions on float64 scalars, and the
    # closed form, the chain bounds and R keep every bit.
    n = 10_000
    V, u, s, sp, alpha, lam = _tuples(np.random.default_rng(4242), n)
    u[::5] = 0.0
    sp[::7] = 0.0
    rows = list(zip(*(c.tolist() for c in (V, u, s, sp, alpha, lam))))
    scalar_R = np.array([relaxation_matrices(*t) for t in rows])
    assert scalar_R.tobytes() == relaxation_matrices(V, u, s, sp, alpha, lam).tobytes()
    scalar_closed = np.array([relaxation_entries_closed_form(*t[:5]) for t in rows])
    assert scalar_closed.tobytes() == relaxation_entries_closed_form(V, u, s, sp, alpha).tobytes()
    scalar_bounds = np.array([chain_bounds(*t[:4]) for t in rows]).T
    assert scalar_bounds.tobytes() == np.array(chain_bounds(V, u, s, sp)).tobytes()


def test_scalar_calls_return_matrices_and_float_bounds():
    R = relaxation_matrices(0.25, 0.25, 1.6, 1.3, 0.3, 2.0)
    assert type(R) is np.ndarray and R.shape == (3, 3)
    assert relaxation_entries_closed_form(0.25, 0.25, 1.6, 1.3, 0.3).shape == (3, 3)
    assert all(type(b) is float for b in chain_bounds(0.25, 0.25, 1.6, 1.3))
    assert u_zero_slacks(0.25, 1.6, 1.3).shape == (9,)
    assert necessary_slacks(0.25, 1.6, 1.3).shape == (10,)


INTEGRAL = (1.0, -1.0, 2.0, 1.0, 0.0, 3.0)
FRACTIONAL = (0.25, -0.375, 1.6, 1.3, 0.3, 0.5)


@pytest.mark.parametrize("values,convert", [
    (INTEGRAL, int), (INTEGRAL, np.int64), (INTEGRAL, lambda x: np.array(int(x))),
    (FRACTIONAL, np.float64), (FRACTIONAL, np.array),
])
def test_zero_d_inputs_give_the_bits_of_float_inputs(values, convert):
    args = tuple(map(convert, values))
    V, u, s, sp, alpha, lam = args
    for got, want in [
        (relaxation_matrices(*args), relaxation_matrices(*values)),
        (relaxation_entries_closed_form(*args[:5]), relaxation_entries_closed_form(*values[:5])),
        (np.array(chain_bounds(*args[:4])), np.array(chain_bounds(*values[:4]))),
        (u_zero_slacks(V, s, sp), u_zero_slacks(values[0], values[2], values[3])),
        (necessary_slacks(V, s, sp), necessary_slacks(values[0], values[2], values[3])),
    ]:
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lam", [0.0, np.zeros(2)])
def test_zero_lambda_gives_nan_with_a_warning(lam):
    with pytest.warns(RuntimeWarning):
        R = relaxation_matrices(0.25, 0.25, 1.6, 1.3, 0.3, lam)
    assert np.isnan(R).any()


def test_equilibrium_examples():
    f = equilibrium_distributions(1.0, params(V=0.0, alpha=1.0))
    assert np.allclose(f, [0.5, 0.0, 0.5], atol=TOL)
    f = equilibrium_distributions(1.0, params(V=0.0, alpha=0.0))
    assert np.allclose(f, [1 / 3, 1 / 3, 1 / 3], atol=TOL)
    f = equilibrium_distributions(6.0, params(V=1 / 3, alpha=0.0))
    assert np.allclose(f, [1.0, 2.0, 3.0], atol=TOL)


def test_equilibrium_sums_to_density_up_to_rounding():
    # the weights sum to 1 only up to rounding: f1 + f2 + f3 is off rho by at
    # most 2 eps rho sum|w_k|, and for (V, alpha, rho) = (0.25, 0, 0.3) by one ulp
    f = equilibrium_distributions(0.3, params(V=0.25, alpha=0.0))
    assert f[0] + f[1] + f[2] == 0.29999999999999993
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    inexact = 0
    for _ in range(2000):
        p = params(rng.uniform(-1.5, 1.5), alpha=rng.uniform(-3, 3))
        rho = rng.uniform(0, 10, 10)
        f = equilibrium_distributions(rho, p)
        mass = f[:, 0] + f[:, 1] + f[:, 2]
        assert (np.abs(mass - rho) <= 2 * eps * rho * np.abs(equilibrium_weights(p)).sum()).all()
        inexact += int((mass != rho).sum())
    assert inexact > 1000


def assert_moments(F, p, want):
    # the definitions (reference.moments) and the shifted moment basis T(u) M
    # both give want exactly
    f = relaxation_factors(p)
    assert moments(F, p).tolist() == list(want)
    assert (f.T @ f.M @ np.asarray(F, float)).tolist() == list(want)


def test_moments_rest_particle():
    assert_moments([0, 1, 0], params(u=0.0, lam=1.0), (1.0, 0.0, -2.0))


def test_moments_right_mover():
    assert_moments([0, 0, 1], params(u=0.0, lam=1.0), (1.0, 1.0, 1.0))


def test_moments_shifted():
    assert_moments([1, 1, 1], params(u=1.0, lam=1.0), (3.0, -3.0, 9.0))


def test_moments_equal_shift_of_matrix_product():
    rng = np.random.default_rng(19)
    for _ in range(100):
        p = params(V=0.0, u=rng.uniform(-1, 1), lam=rng.choice([0.5, 1.0, 3.0]))
        F = rng.uniform(-1, 2, 3)
        f = relaxation_factors(p)
        ref = f.T @ f.M @ F
        assert np.allclose(moments(F, p), ref, atol=1e-11)


def commutator_closed_form(C, p):
    # (s - s') * [[0, 0, 0],
    #             [c23 lam^2 (alpha - 6 u V), 6 lam u c23, -c23],
    #             [-c32 lam V,                c32,          0  ]]
    c23, c32 = C[1][2], C[2][1]
    K = np.zeros((3, 3))
    K[1, 0] = c23 * p.lam**2 * (p.alpha - 6 * p.u * p.V)
    K[1, 1] = 6 * p.lam * p.u * c23
    K[1, 2] = -c23
    K[2, 0] = -c32 * p.lam * p.V
    K[2, 1] = c32
    return (p.s - p.s_prime) * K


def random_basis_change(rng, c23=None, c32=None):
    C = np.eye(3)
    C[1, 0], C[2, 0] = rng.uniform(-1, 1, 2)
    C[1, 1] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
    C[2, 2] = rng.uniform(0.5, 2.0) * rng.choice([-1, 1])
    C[1, 2] = rng.uniform(-1, 1) if c23 is None else c23
    C[2, 1] = rng.uniform(-1, 1) if c32 is None else c32
    if abs(np.linalg.det(C)) < 0.1:
        return random_basis_change(rng, c23, c32)
    return C


def test_commutator_identity_basis_is_zero():
    p = params(V=0.7, u=0.3, s=1.6, s_prime=0.4, alpha=-0.8, lam=2.0)
    assert_close(basis_commutator(np.eye(3), p), np.zeros((3, 3)))


def test_commutator_zero_iff_offdiagonal_couplings_vanish():
    rng = np.random.default_rng(23)
    for _ in range(50):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2), rng.choice([0.5, 1.0, 3.0]))
        C = random_basis_change(rng, c23=0.0, c32=0.0)
        assert_close(basis_commutator(C, p), np.zeros((3, 3)))


def test_commutator_zero_at_equal_rates():
    rng = np.random.default_rng(29)
    for _ in range(20):
        s = rng.uniform(-0.5, 2.5)
        p = params(rng.uniform(-1, 1), rng.uniform(-1, 1), s, s, rng.uniform(-2, 2))
        C = random_basis_change(rng)
        assert_close(basis_commutator(C, p), np.zeros((3, 3)))


def test_commutator_closed_form_agrees():
    rng = np.random.default_rng(31)
    for _ in range(200):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2), rng.choice([0.5, 1.0, 3.0]))
        C = random_basis_change(rng)
        assert_close(basis_commutator(C, p), commutator_closed_form(C, p))


def test_commutator_rejects_density_breaking_basis():
    p = params()
    bad = np.eye(3)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        basis_commutator(bad, p)
    with pytest.raises(ValueError):
        change_basis_relaxation_matrix(bad, p)
    with pytest.raises(ValueError, match=r"must be 3x3, got shape \(2, 2\)"):
        basis_commutator(np.eye(2), p)


def test_commutator_rejects_singular_basis():
    p = params()
    C = np.eye(3)
    C[1] = 0.0  # rank 2
    with pytest.raises(ValueError):
        basis_commutator(C, p)


def test_change_basis_identity():
    p = params(V=0.25, u=0.25, s=1.6, s_prime=1.3, alpha=0.3)
    assert_close(change_basis_relaxation_matrix(np.eye(3), p), build_relaxation_matrix(p))


def test_change_basis_invariant_without_couplings():
    rng = np.random.default_rng(37)
    for _ in range(50):
        p = params(rng.uniform(-1.5, 1.5), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        C = random_basis_change(rng, c23=0.0, c32=0.0)
        assert_close(change_basis_relaxation_matrix(C, p), build_relaxation_matrix(p))


def test_change_basis_differs_with_coupling():
    p = params(V=0.25, u=0.25, s=1.6, s_prime=1.3, alpha=0.3)
    C = np.eye(3)
    C[1, 2] = 1.0
    diff = np.max(np.abs(change_basis_relaxation_matrix(C, p) - build_relaxation_matrix(p)))
    assert diff > 1e-6


def test_change_basis_difference_factorization():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p = params(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-0.5, 2.5),
                   rng.uniform(-0.5, 2.5), rng.uniform(-2, 2))
        C = random_basis_change(rng)
        lhs = change_basis_relaxation_matrix(C, p) - build_relaxation_matrix(p)
        f = relaxation_factors(p)
        rhs = f.M_inv @ f.T_inv @ np.linalg.inv(C) @ basis_commutator(C, p) @ f.M
        assert_close(lhs, rhs)
