import dataclasses
import io
import math
import sys
import threading
import warnings
from fractions import Fraction

import numpy as np
import pytest

from d1q3rv import simulator
from d1q3rv.regionscan import ScanSpec
from d1q3rv.scheme import (TAU_MAT, WORKING_SET_BYTES, SchemeParameters, build_relaxation_matrix,
                           equilibrium_distributions, equilibrium_weights, relaxation_matrices)
from d1q3rv.simulator import (CUSTOM, HAT, SMOOTH, STEP, Grid1D, InitialProfile,
                              _block_steps, _step_stats, advance, default_grid, density,
                              exact_density, init_state, run, run_batch,
                              write_diagnostics_csv, write_snapshots_csv)
from d1q3rv.stability import matrix_entry_verdict, nine_inequalities
from reference import reference_advance, relax, stream


def params(V=0.25, u=0.0, s=1.0, s_prime=1.0, alpha=0.0, lam=1.0):
    return SchemeParameters(V=V, u=u, s=s, s_prime=s_prime, alpha=alpha, lam=lam)


# ----------------------------------------------------------------------- grid

def test_grid_derived_quantities():
    g = Grid1D(n_cells=200)
    assert g.dx == 0.005
    assert g.length == pytest.approx(1.0)
    assert g.positions().shape == (200,)
    assert g.positions()[1] == pytest.approx(0.005)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n_cells=0)


@pytest.mark.parametrize("n_cells", [0, -3])
def test_default_grid_rejects_non_positive_cells(n_cells):
    with pytest.raises(ValueError, match="n_cells must be positive"):
        default_grid(n_cells)


@pytest.mark.parametrize("n_cells", [2.5, 3.0, "3"])
def test_grid_rejects_a_non_integer_cell_count(n_cells):
    with pytest.raises(ValueError, match="n_cells must be an integer"):
        Grid1D(n_cells)


def test_grid_takes_numpy_integers():
    assert Grid1D(np.int64(4)).positions().tolist() == [0.0, 0.25, 0.5, 0.75]


@pytest.mark.parametrize("integer,n_cells,n_steps,snap_every",
                         [(np.uint8, 200, 255, 5), (np.int8, 100, 127, 5),
                          (np.int64, 200, 1000, 100), (bool, 1, 1, 1)],
                         ids=["uint8", "int8", "int64", "bool"])
def test_integer_counts_are_converted_once_to_int(integer, n_cells, n_steps, snap_every):
    # A NumPy integer or a bool count is stored and passed on as the int it
    # stands for, so no step or snapshot count wraps in its type and the exact
    # profile's roll (V = 1) is not taken modulo a NumPy cell count.  Each
    # call has the bytes of the call with Python ints.
    grid = Grid1D(integer(n_cells))
    assert type(grid.n_cells) is int and grid == Grid1D(n_cells)
    counts = simulator._check_counts(integer(n_steps), integer(snap_every))
    assert counts == (n_steps, snap_every) and all(type(c) is int for c in counts)
    for p, steps, snaps in ((params(0.25), integer(n_steps), integer(snap_every)),
                            (params(1.0, alpha=1.0), 1000, 0)):
        want = run(InitialProfile(), Grid1D(n_cells), p, int(steps), int(snaps))
        got = run(InitialProfile(), grid, p, steps, snaps)
        assert got.snap_steps == want.snap_steps and all(type(j) is int for j in got.snap_steps)
        assert got.diagnostics.as_csv_row() == want.diagnostics.as_csv_row()
        assert got.f.tobytes() == want.f.tobytes()
        assert got.snapshots.tobytes() == want.snapshots.tobytes()
    f0 = init_state(InitialProfile(), Grid1D(n_cells), params(0.25))[None]
    R = build_relaxation_matrix(params(0.25))[None]
    want = advance(f0, R, n_steps, snap_every)
    got = advance(f0, R, integer(n_steps), integer(snap_every))
    assert got.snap_steps == want.snap_steps and all(type(j) is int for j in got.snap_steps)
    for name in ("f", "min_f", "min_rho", "max_rho", "mass_drift", "snapshots"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    if n_cells < 2:
        with pytest.raises(ValueError, match="^s_points must be >= 2, got 1$"):
            ScanSpec(0.25, s_points=integer(n_cells))
        return
    spec = ScanSpec(0.25, s_points=integer(n_cells), s_prime_points=integer(n_cells))
    assert type(spec.s_points) is int and type(spec.s_prime_points) is int
    assert spec == ScanSpec(0.25, s_points=n_cells, s_prime_points=n_cells)


# ------------------------------------------------------------------- profiles

def test_step_profile_values():
    g = default_grid(200)
    rho = InitialProfile(kind=STEP).sample(g)
    x = g.positions()
    inside = np.abs(x - 0.25) <= 0.1
    assert np.all(rho[inside] == 1.0)
    assert np.all(rho[~inside][np.abs(x[~inside] - 0.25) < 0.4] == 0.0)


def test_hat_profile_peak_and_feet():
    g = default_grid(200)
    rho = InitialProfile(kind=HAT).sample(g)
    assert rho.max() == pytest.approx(1.0)
    k0 = int(round(0.25 / g.dx))
    assert rho[k0] == pytest.approx(1.0)
    assert rho[k0 + 10] == pytest.approx(0.5)   # half-width is 20 cells
    assert rho[k0 + 20] == pytest.approx(0.0)


def test_smooth_profile_is_gaussian_bump():
    g = default_grid(200)
    rho = InitialProfile(kind=SMOOTH, low=0.5, high=1.5).sample(g)
    k0 = int(round(0.25 / g.dx))
    assert rho[k0] == pytest.approx(1.5)
    assert rho[k0 + 20] == pytest.approx(0.5 + np.exp(-1.0), abs=1e-12)
    assert rho.min() >= 0.5


def test_custom_profile_round_trip():
    g = default_grid(16)
    vals = np.arange(16, dtype=float)
    rho = InitialProfile(kind=CUSTOM, values=vals).sample(g)
    assert np.allclose(rho, vals)
    # values are stored once, as a tuple of Python floats; a list of ints gives the same profile
    stored = InitialProfile(kind=CUSTOM, values=vals).values
    assert type(stored) is tuple and all(type(v) is float for v in stored)
    assert np.array_equal(InitialProfile(kind=CUSTOM, values=list(range(16))).sample(g), rho)
    with pytest.raises(ValueError):
        InitialProfile(kind=CUSTOM, values=vals).sample(default_grid(8))
    with pytest.raises(ValueError):
        InitialProfile(kind=CUSTOM)


def test_custom_profile_is_its_own_sample():
    # Interpolating the values at dx * i, against nodes at length * i / n,
    # moved 370 of the cell counts 1-399 by up to 5.4e-14; at 49 cells a
    # one-cell unit density read 0.9999999999999972 and leaked into cell 23.
    rng = np.random.default_rng(34)
    for n in range(1, 401):
        values = rng.uniform(0, 1, n)
        rho = InitialProfile(kind=CUSTOM, values=values).sample(default_grid(n))
        assert rho.dtype == np.float64 and rho.tobytes() == values.tobytes(), n
    spike = np.zeros(49)
    spike[24] = 1.0
    profile = InitialProfile(kind=CUSTOM, values=spike)
    assert profile.sample(default_grid(49)).tobytes() == spike.tobytes()
    shifted = exact_density(profile, default_grid(49), params(V=1.0), 3)   # an integer shift
    assert shifted.tobytes() == np.roll(spike, 3).tobytes()


def test_custom_profiles_compare_and_hash_by_value_and_are_read_only():
    a = InitialProfile(kind=CUSTOM, values=np.arange(4.0))
    b = InitialProfile(kind=CUSTOM, values=[0, 1, 2, 3])
    assert a == b and hash(a) == hash(b)
    assert a != InitialProfile(kind=CUSTOM, values=[0.0, 1.0, 2.0, 4.0])
    assert len({a, b, InitialProfile(kind=STEP), InitialProfile(kind=STEP)}) == 2
    with pytest.raises(TypeError):
        a.values[0] = 9.0
    assert a.values == (0.0, 1.0, 2.0, 3.0)
    assert InitialProfile(kind=HAT, width=0.1) == InitialProfile(kind=HAT, width=0.1)
    assert InitialProfile(kind=HAT, width=0.1) != InitialProfile(kind=HAT, width=0.2)


@pytest.mark.parametrize("values", [1.0, ["a"] * 8, np.ones((8, 2)), [], [[1.0, 2.0], [3.0]]],
                         ids=["scalar", "strings", "2-d", "empty", "ragged"])
def test_custom_values_are_checked_when_the_profile_is_built(values):
    with pytest.raises(ValueError, match="^values must be a non-empty 1-d sequence of real numbers, got "):
        InitialProfile(kind=CUSTOM, values=values)


@pytest.mark.parametrize("kind,name", [(STEP, "values"), (HAT, "values"), (SMOOTH, "values"),
                                       (CUSTOM, "center"), (CUSTOM, "width"), (CUSTOM, "low"),
                                       (CUSTOM, "high")])
def test_profile_refuses_a_field_its_kind_does_not_read(kind, name):
    extra = {name: 0.2} if kind == CUSTOM else {}
    with pytest.raises(ValueError, match=f"^{name} is not read by {kind} profiles$"):
        InitialProfile(kind=kind, values=[1, 2, 3], **extra)


def test_profile_low_and_high_default_where_they_are_read():
    for kind in (STEP, HAT, SMOOTH):
        profile = InitialProfile(kind=kind)
        assert (profile.low, profile.high) == (0.0, 1.0) and type(profile.low) is float
        assert InitialProfile(kind=kind, high=2) == InitialProfile(kind=kind, low=0, high=2.0)
    custom = InitialProfile(kind=CUSTOM, values=[1, 2, 3, 4, 5])
    assert custom.low is None and custom.high is None
    with pytest.raises(ValueError, match="^low is not read by custom profiles$"):
        InitialProfile(kind=CUSTOM, values=[1, 2, 3, 4, 5], low=5, high=-3)


def test_profile_kind_validation():
    with pytest.raises(ValueError):
        InitialProfile(kind="sawtooth")


@pytest.mark.parametrize("width", [0.0, -0.1, float("nan")])
def test_profile_width_must_be_positive(width):
    with pytest.raises(ValueError, match="width"):
        InitialProfile(kind=HAT, width=width)
    assert InitialProfile(kind=HAT, width=0.05).sample(default_grid(40)).max() == 1.0


@pytest.mark.parametrize("kind", [STEP, HAT, SMOOTH])
@pytest.mark.parametrize("center", [float("nan"), float("inf"), float("-inf")])
def test_profile_center_must_be_finite(kind, center):
    with pytest.raises(ValueError, match="center"):
        InitialProfile(kind=kind, center=center)


# ----------------------------------------------------------------------- init

def test_init_constant_density_rest_state():
    g = default_grid(8)
    f = init_state(InitialProfile(kind=CUSTOM, values=np.ones(8)), g, params(V=0.0, alpha=0.0))
    assert f.shape == (8, 3) and np.allclose(f, 1.0 / 3.0, atol=1e-15)


def test_init_step_cells_are_zero_or_equilibrium():
    g = default_grid(40)
    p = params()
    f = init_state(InitialProfile(kind=STEP), g, p)
    feq1 = equilibrium_distributions(1.0, p)
    for trip in f:
        assert np.allclose(trip, 0.0) or np.allclose(trip, feq1)


def test_init_conserves_profile_mass():
    g = default_grid(200)
    p = params(V=0.7, alpha=0.3)
    profile = InitialProfile(kind=SMOOTH, low=0.2, high=2.0)
    f = init_state(profile, g, p)
    assert density(f).sum() == pytest.approx(profile.sample(g).sum(), rel=1e-13)


def test_init_rejects_negative_density():
    with pytest.raises(ValueError):
        init_state(InitialProfile(kind=STEP, low=-0.5), default_grid(16), params())


def test_init_warns_on_negative_equilibrium_weights():
    with pytest.warns(UserWarning):
        init_state(InitialProfile(kind=STEP), default_grid(16), params(V=1.0, alpha=0.0))


def test_non_negative_r_has_negative_weights_at_s_prime_zero():
    # R >= 0 forces w >= 0 only when s s' != 0: at s' = 0 "any alpha" is about R alone
    p = params(V=0.0, u=0.0, s=1.0, s_prime=0.0, alpha=5.0)
    R = np.array([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]])
    assert build_relaxation_matrix(p).tobytes() == R.tobytes()
    assert matrix_entry_verdict(p).stable
    assert equilibrium_weights(p).tobytes() == np.array([7 / 6, -4 / 3, 7 / 6]).tobytes()
    with pytest.warns(UserWarning, match=r"R to have a negative entry or s\*s' = 0") as caught:
        init_state(InitialProfile(kind=STEP), default_grid(16), p)
    assert len(caught) == 1 and "\n" not in str(caught[0].message)


# ------------------------------------------------------------ relax and stream

def test_relax_identity_at_zero_rates():
    g = default_grid(16)
    f = init_state(InitialProfile(kind=HAT), g, params())
    out = relax(f, build_relaxation_matrix(params(s=0.0, s_prime=0.0)))
    assert np.allclose(out, f, atol=1e-14)


def test_relax_projects_at_unit_rates():
    g = default_grid(16)
    p = params(V=0.3, alpha=0.1, s=1.0, s_prime=1.0)
    rng = np.random.default_rng(2)
    f = rng.uniform(0, 1, (16, 3))
    out = relax(f, build_relaxation_matrix(p))
    assert np.allclose(out, equilibrium_distributions(density(f), p), atol=1e-13)


def test_relax_preserves_equilibrium_cells():
    p = params(V=0.4, u=0.2, s=1.7, s_prime=0.6, alpha=-0.3)
    f = equilibrium_distributions(np.linspace(0.5, 2.0, 12), p)
    out = relax(f, build_relaxation_matrix(p))
    assert np.allclose(out, f, atol=1e-13)


def test_stream_moves_right_mover_up_one_cell():
    f = np.zeros((8, 3))
    f[3, 2] = 1.0
    out = stream(f)
    assert out[4, 2] == 1.0 and out.sum() == 1.0


def test_stream_moves_left_mover_down_one_cell():
    f = np.zeros((8, 3))
    f[0, 0] = 1.0
    out = stream(f)
    assert out[7, 0] == 1.0 and out.sum() == 1.0


def test_stream_periodicity():
    rng = np.random.default_rng(4)
    f = rng.uniform(0, 1, (9, 3))
    out = f
    for _ in range(9):
        out = stream(out)
    assert np.array_equal(out, f)


def test_stream_inverse():
    rng = np.random.default_rng(6)
    f0 = rng.uniform(0, 1, (11, 3))

    def unstream(f):
        f = f.copy()
        f[:, 0] = np.roll(f[:, 0], 1)
        f[:, 2] = np.roll(f[:, 2], -1)
        return f

    assert np.array_equal(unstream(stream(f0)), f0)
    assert np.array_equal(stream(unstream(f0)), f0)


def test_stream_preserves_value_multiset_and_min():
    rng = np.random.default_rng(8)
    f = rng.uniform(-1, 1, (20, 3))
    out = stream(f)
    assert sorted(out.ravel()) == sorted(f.ravel())
    assert out.min() == f.min()


# --------------------------------------------------------------------- kernel

def bitwise_equal(a, b):
    """Equal values, NaN equal to NaN, and the same sign of zero."""
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_matches_reference(out, b, f0, R, n_steps, snap_every=0):
    f, diags, snapshots = reference_advance(f0, R, n_steps, snap_every)
    assert bitwise_equal(out.f[b], f)
    kernel = (out.min_f[b], out.min_rho[b], out.max_rho[b], out.mass_drift[b])
    for got, want in zip(kernel, diags):
        assert got == want or (np.isnan(got) and np.isnan(want))
        assert bitwise_equal(got, want)
    assert list(out.snap_steps) == [step for step, _ in snapshots]
    for j, (_, snap) in enumerate(snapshots):
        assert bitwise_equal(out.snapshots[j, b], snap)


def initial(profile, n_cells, p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # negative equilibrium weights are expected here
        return init_state(profile, default_grid(n_cells), p), build_relaxation_matrix(p)


KERNEL_CASES = [
    # divergent: f overflows to inf and then NaN well before step 700
    ((0.9, 0.9, 1.99, 0.05, -1.9), InitialProfile(kind=STEP), 700),
    # zero mass: drift is |mass|, and f holds both 0.0 and -0.0
    ((-0.85, -0.02, 0.43, 0.27, -0.48), InitialProfile(kind=STEP, low=0.0, high=0.0), 40),
    # a NaN start stays NaN, as Python's min/max keep it
    ((0.25, 0.0, 1.0, 1.0, 0.0), InitialProfile(kind=CUSTOM, values=np.r_[np.nan, np.ones(23)]), 40),
] + [(tuple(np.random.default_rng(k).uniform((-1, -1, 0, 0, -2), (1, 1, 2, 2, 1))),
      InitialProfile(kind=(SMOOTH, HAT, STEP)[k % 3]), 97) for k in range(8)]


@pytest.mark.parametrize("row,profile,n_steps", KERNEL_CASES)
def test_advance_matches_step_loop(row, profile, n_steps):
    f0, R = initial(profile, 24, params(*row))
    with np.errstate(all="ignore"):
        out = advance(f0[None], R[None], n_steps, snap_every=9)
        assert_matches_reference(out, 0, f0, R, n_steps, snap_every=9)
    if row[0] == 0.9:
        assert not np.isfinite(out.f).all() and np.isnan(out.f).any()
    if np.isnan(f0).any():   # a NaN start is not read as mass conserved
        assert np.isnan(out.mass_drift[0]) and np.isnan(out.min_rho[0])


def test_run_that_is_nan_from_the_start_reports_nan_diagnostics():
    profile = InitialProfile(kind=CUSTOM, values=np.r_[np.nan, np.ones(23)])
    with np.errstate(all="ignore"):
        diag = run(profile, default_grid(24), params(), 5).diagnostics
    assert diag.as_csv_row() == ",".join(["nan"] * 7)


def test_run_of_an_infinite_profile_warns_once_from_the_l1_error(gemm_order):
    # The final and the exact density both hold inf, so the L1 error's
    # subtraction makes a NaN and warns; the overshoot's inf - inf also makes
    # a NaN but, as for Python floats, silently.  With fused multiply-adds the
    # cells of density 1 stay exactly 1; with plain sums they lose an ulp or two.
    profile = InitialProfile(kind=CUSTOM, values=np.r_[np.inf, np.ones(23)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        diag = run(profile, default_grid(24), params(), 5).diagnostics
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning, "invalid value encountered in subtract")]
    rows = {"fused": "0.20833333333333331,1,inf,nan,nan,nan,0",
            "plain": "0.20833333333333326,0.99999999999999967,inf,nan,nan,nan,3.3306690738754696e-16"}
    assert diag.as_csv_row() == rows.get(gemm_order), (gemm_order, diag.as_csv_row())


def test_advance_batch_equals_single_runs():
    cases = [initial(profile, 24, params(*row)) for row, profile, _ in KERNEL_CASES[:6]]
    f0 = np.stack([f for f, _ in cases])
    R = np.stack([r for _, r in cases])
    with np.errstate(all="ignore"):
        batch = advance(f0, R, 700, snap_every=150)
        singles = [advance(f0[b:b + 1], R[b:b + 1], 700, snap_every=150) for b in range(6)]
    for b, one in enumerate(singles):
        for name in ("f", "min_f", "min_rho", "max_rho", "mass_drift"):
            assert bitwise_equal(getattr(batch, name)[b], getattr(one, name)[0])
        assert batch.snap_steps == one.snap_steps
        assert bitwise_equal(batch.snapshots[:, b], one.snapshots[:, 0])


def test_advance_reports_a_zero_min_f_as_positive_zero():
    # R = I (s = s' = 0) keeps every cell; the states hold 0.0 and -0.0, and
    # which one a minimum or maximum over them returns depends on the order it
    # visits them in.  Every zero min_f, min_rho or max_rho is +0.0.
    R = np.eye(3)
    f0 = np.random.default_rng(1).choice([0.0, -0.0, 0.5], (3, 24, 3))
    f0[1][f0[1] == 0] = -0.0   # the second run's zero cells are three -0.0
    f0[2] = -0.0               # and every cell of the third is
    assert np.signbit(f0.min(axis=(1, 2))).all()   # NumPy's minimum is -0.0 here
    n_steps = 2 * _block_steps(3, 24) + 3
    out = advance(f0, np.stack([R] * 3), n_steps, snap_every=7)
    for b in range(3):
        assert_matches_reference(out, b, f0[b], R, n_steps, snap_every=7)
    # density() of the third run is -0.0 in every cell, and advance's own +0.0
    assert (out.min_f == 0).all() and (out.min_rho[1:] == 0).all() and out.max_rho[2] == 0
    for extremum in (out.min_f, out.min_rho, out.max_rho):
        assert not np.signbit(extremum[extremum == 0]).any()


def test_advance_keeps_a_nan_start_that_later_turns_finite():
    # cell 2 sums to NaN at step 0, no density is NaN at step 1 (the least is
    # 1.0), and NaN comes back at step 2; a NaN start is kept, so none reads 1.0
    f0 = np.ones((1, 6, 3))
    f0[0, 2] = (-np.inf, 0.0, np.inf)
    R = np.array([[-1, .5, 1], [-.5, .2, .5], [-.25, .3, .25]])
    with np.errstate(all="ignore"):
        out = advance(f0, R[None], 3, snap_every=1)
        assert_matches_reference(out, 0, f0[0], R, 3, snap_every=1)
        rho = out.snapshots[:, 0].sum(axis=2)
    assert np.array_equal(rho.min(axis=1), [np.nan, 1.0, np.nan, np.nan], equal_nan=True)
    assert np.isnan([out.min_rho[0], out.max_rho[0], out.mass_drift[0]]).all()


@pytest.mark.parametrize("batch,gemm", [(1, "dot"), (2, "matmul")])
def test_an_infinite_difference_in_a_density_warns_once_in_its_gemm(batch, gemm):
    # cell 2 holds +inf and -inf, so its density is NaN: a state's densities
    # are the fourth row of the gemm that steps it, and the one gemm that
    # makes the NaNs of the density and of the step warns once; a NaN that is
    # already there makes no warning.  The masses' reduction meets the NaN
    # densities only, silently.
    f0 = np.ones((batch, 6, 3))
    f0[:, 2] = (np.inf, 1.0, -np.inf)
    R = np.full((batch, 3, 3), 1 / 3)
    invalid = (RuntimeWarning, f"invalid value encountered in {gemm}")
    for n_steps in (0, 1, 70):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = advance(f0, R, n_steps)
        assert [(w.category, str(w.message)) for w in caught] == [invalid], n_steps
        assert np.isnan([out.min_rho, out.max_rho, out.mass_drift]).all()
    # +inf and +inf make no NaN density, but R's mixed signs make NaN in the
    # step: the final state's gemm, whose triple no state reads, does not warn
    f0[:, 2] = (np.inf, 1.0, np.inf)
    R[:, :, 2] *= -1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert np.isinf(advance(f0, R, 0).max_rho).all()
        assert not caught
        advance(f0, R, 1)
    assert [(w.category, str(w.message)) for w in caught] == [invalid]


BLOCK = _block_steps(1, 200)


@pytest.mark.parametrize("n_steps", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_advance_step_counts_around_a_block(n_steps):
    # snap_every = 1 compares every history slot and both block seams
    f0, R = initial(InitialProfile(kind=STEP), 200, params(0.25, 0.0, 1.9, 1.4, 1 / 7))
    for snap_every in (0, 1):
        out = advance(f0[None], R[None], n_steps, snap_every)
        assert_matches_reference(out, 0, f0, R, n_steps, snap_every)


def test_advance_snapshot_cadence_across_blocks():
    f0, R = initial(InitialProfile(kind=HAT), 200, params(0.25, 0.25, 1.6, 1.3, -0.175))
    n_steps = 2 * BLOCK + 3
    assert n_steps % 5, "the final step must fall off the cadence"
    out = advance(f0[None], R[None], n_steps, snap_every=5)
    assert out.snap_steps == (*range(0, n_steps + 1, 5), n_steps)
    assert_matches_reference(out, 0, f0, R, n_steps, snap_every=5)


def test_advance_block_stays_under_a_mebibyte():
    for batch, n_cells in ((1, 200), (12, 200), (1, 600), (100, 2), (1, 450), (3, 4000)):
        k = _block_steps(batch, n_cells)
        history = (k + 1) * batch * 4 * (n_cells + k + 1)   # k+1 slots of 4 rows, k+1 ghost cells
        masses = k * batch                                   # per-state masses
        stats = 5 * batch                                    # the block's statistics
        assert 8 * (history + masses + stats) <= 2**20
    assert _block_steps(1, 200) == 64
    assert _block_steps(12, 200) == 11
    assert _block_steps(3, 4000) == 1
    assert _block_steps(1, 1_000_000) == 1
    assert _block_steps(1, 450) == 62


def test_one_byte_count_sizes_and_keeps_the_step_plan(monkeypatch):
    # _block_steps and advance's keep rule read one count, _plan_bytes, and it
    # is the plan's arrays' bytes.  A block length chosen by another count
    # than the kept plan's once left shapes such as (1, 406) over budget, and
    # advance rebuilt its plan on every call.
    rng = np.random.default_rng(32)
    shapes = [(1, 406), (1, 415), (1, 450), (12, 126), (3, 4000),
              *zip(rng.integers(1, 13, 24).tolist(), rng.integers(1, 3000, 24).tolist())]
    for batch, n_cells in shapes:
        block, _, _, slots, _, _, _, _, _, masses, stats = simulator._step_plan(batch, n_cells)
        nbytes = sum(a.nbytes for a in (slots[0].base, masses, stats))
        assert simulator._plan_bytes(batch, n_cells, block) == nbytes, (batch, n_cells)
        assert block == 1 or nbytes <= WORKING_SET_BYTES
    f0, R = rng.uniform(0, 1, (1, 450, 3)), rng.uniform(0, 0.5, (1, 3, 3))
    simulator._spare.clear()
    want = advance(f0, R, 70)
    shape, plan = simulator._spare[None]
    assert shape == (1, 450) and plan[0] == 62

    def rebuild(*args):
        raise AssertionError("the spare plan was rebuilt")
    monkeypatch.setattr(simulator, "_step_plan", rebuild)
    got = advance(f0, R, 70)
    assert simulator._spare[None][1] is plan
    assert bitwise_equal(got.f, want.f)


@pytest.mark.parametrize("batch,n_cells", [(2, 2), (3, 4000)])
def test_advance_matches_step_loop_at_edge_shapes(batch, n_cells):
    # two cells stream onto each other's neighbours; 3 x 4000 cells is a one-step block
    assert n_cells == 2 or _block_steps(batch, n_cells) == 1
    rng = np.random.default_rng(n_cells)
    f0 = rng.uniform(0, 1, (batch, n_cells, 3))
    R = np.stack([build_relaxation_matrix(params(*row)) for row, _, _ in KERNEL_CASES[3:3 + batch]])
    n_steps = 2 * _block_steps(batch, n_cells) + 3
    with np.errstate(all="ignore"):
        out = advance(f0, R, n_steps, snap_every=2)
        for b in range(batch):
            assert_matches_reference(out, b, f0[b], R[b], n_steps, snap_every=2)


def _infinite_or_overflowing(kind, batch, n_cells, n_steps, rng):
    """f0 and R for runs across block seams whose diagnostics meet inf or NaN.

    "infinite": a +inf and a -inf cell half the lattice apart.  R > 0 spreads
    each by a cell a step, so f holds both infinities and no NaN through
    n_steps, and every mass is NaN.  "overflowing": a finite start and a
    mixed-sign R that overflows to +-inf about mid-run and then to NaN, so
    only the later steps are NaN.
    """
    f0 = rng.uniform(0.5, 1, (batch, n_cells, 3))
    if kind == "infinite":
        f0[:, 0], f0[:, n_cells // 2] = np.inf, -np.inf
        return f0, rng.uniform(0.1, 1, (batch, 3, 3))
    return f0, rng.uniform(-1, 1, (batch, 3, 3)) * 10.0 ** (600 / n_steps)


@pytest.mark.parametrize("kind", ["infinite", "overflowing"])
@pytest.mark.parametrize("batch,n_cells", [(1, 600), (12, 200), (3, 4000)])
def test_advance_matches_step_loop_on_non_finite_runs_across_block_seams(kind, batch, n_cells):
    n_steps = 2 * _block_steps(batch, n_cells) + 3
    assert n_steps < n_cells // 4   # the infinities do not meet
    f0, R = _infinite_or_overflowing(kind, batch, n_cells, n_steps, np.random.default_rng(batch))
    with np.errstate(all="ignore"):
        out = advance(f0, R, n_steps, snap_every=1)
        for b in range(batch):
            assert_matches_reference(out, b, f0[b], R[b], n_steps, snap_every=1)
    nan_steps = np.isnan(out.snapshots).any(axis=(2, 3))
    if kind == "infinite":
        assert not nan_steps.any() and np.isinf(out.f).any()
        assert np.isnan(out.mass_drift).all()
        assert (out.min_f == -np.inf).all() and (out.max_rho == np.inf).all()
    else:
        assert not nan_steps[:n_steps // 4].any() and nan_steps[-1].all()
        assert not np.isnan([out.min_f, out.min_rho, out.max_rho, out.mass_drift]).any()


@pytest.mark.parametrize("batch", [1, 3])
def test_no_step_reads_a_component_off_its_lattice_cell(batch):
    # R's rows have the signs (+, -, +), so a step makes infinities of both
    # signs, yet read from their own cells they never meet in a triple: the
    # reference below holds no NaN.  +inf in component 0 of cell 0 and -inf
    # in component 2 of cell 300 spread a cell a step each way and meet only
    # after 150 steps.  A component read from another row or cell, as row
    # 2's cell 0 is when the periodic copy after each step is skipped, puts
    # infinities of both signs into one triple, and its gemm's inf - inf
    # warns, an error in this suite.  Only the masses, sums over both
    # fronts, are inf - inf.
    n_cells = 600
    n_steps = 2 * _block_steps(batch, n_cells) + 3
    assert n_steps < n_cells // 4
    rng = np.random.default_rng(40)
    f0 = rng.uniform(0.5, 1, (batch, n_cells, 3))
    f0[:, 0, 0], f0[:, n_cells // 2, 2] = np.inf, -np.inf
    R = rng.uniform(0.1, 1, (batch, 3, 3)) * np.array([1.0, -1.0, 1.0])[:, None]
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "invalid value encountered in reduce", RuntimeWarning)
        out = advance(f0, R, n_steps, snap_every=1)
        for b in range(batch):
            assert_matches_reference(out, b, f0[b], R[b], n_steps, snap_every=1)
    assert not np.isnan(out.snapshots).any()
    assert np.isposinf(out.f).any() and np.isneginf(out.f).any()
    assert np.isnan(out.mass_drift).all() and (out.min_f == -np.inf).all()


def test_advance_skips_a_nan_that_first_appears_mid_block():
    # A finite start and a mixed-sign R that overflows: f first holds inf and
    # NaN a few steps apart, mid-way through the second block, after finite
    # steps of the same block that hold the run's density extremes.  Taking
    # that block's one reduction (NaN) as a skipped step would lose them.
    # The run stays NaN for three more blocks and a partial one, each of
    # which falls back to per-step reductions on its own.
    rng = np.random.default_rng(3)
    f0 = rng.uniform(0.5, 1, (1, 24, 3))
    R = rng.uniform(-1, 1, (3, 3))
    R *= 10.0 ** (308 / 96) / np.abs(np.linalg.eigvals(R)).max()
    block = _block_steps(1, 24)
    n_steps = 5 * block + 3
    with np.errstate(all="ignore"):
        out = advance(f0, R[None], n_steps, snap_every=1)
        assert_matches_reference(out, 0, f0[0], R, n_steps, snap_every=1)
        rho = out.snapshots[:, 0].sum(axis=2)
    first_nan = np.isnan(out.snapshots[:, 0]).any(axis=(1, 2)).argmax()
    seam = first_nan - (first_nan - 1) % block      # the first step of its block
    assert block < seam < first_nan - 1 and np.isfinite(rho[:first_nan - 1]).all()
    assert np.isnan(out.snapshots[first_nan:, 0]).any(axis=(1, 2)).all()
    assert seam + 4 * block <= n_steps   # NaN in every step of three more whole blocks
    assert np.isfinite([out.min_rho[0], out.max_rho[0]]).all()
    assert out.max_rho[0] > np.abs(rho[:seam]).max() and out.min_rho[0] < -np.abs(rho[:seam]).max()


POSITIVE_ROWS = [(0.25, 0.0, 1.0, 1.0, 0.0), (0.5, 0.0, 1.0, 1.0, 0.0), (0.25, 0.1, 1.2, 0.9, -0.1)]


@pytest.mark.parametrize("batch", [1, 3])
def test_advance_min_f_is_the_states_least_f(batch):
    # min f reduces two stacked views of each block's states: row 0 from its
    # last n_cells cells on into row 1, and row 2.  With R > 0 and a positive
    # start the least f is positive, so a cell of the history that no call
    # wrote, such as the 0.0 of a fresh page, would show; a partial last block
    # and a second call on the spare plan, with larger values, read the same
    # slots.
    n_cells = 200
    cases = [initial(InitialProfile(kind=SMOOTH, low=0.5), n_cells, params(*row))
             for row in POSITIVE_ROWS[:batch]]
    f0, R = np.stack([f for f, _ in cases]), np.stack([r for _, r in cases])
    assert (R > 0).all() and (f0 > 0).all()
    n_steps = _block_steps(batch, n_cells) + 3
    simulator._spare.clear()
    plans = []
    for scale in (1.0, 4.0):
        out = advance(scale * f0, R, n_steps)
        plans.append(simulator._spare[None][1])
        for b in range(batch):
            assert_matches_reference(out, b, scale * f0[b], R[b], n_steps)
        assert (out.min_f > 0).all()
    assert plans[0] is plans[1]


def block_stats(states):
    """_step_stats of a block of states (k, B, 3, n) into fresh buffers, zeros as +0.0.

    The parts are laid out as advance's views read them: row 0 run on into
    row 1, then row 2; the densities are np.add.reduce's."""
    k, batch = states.shape[:2]
    out = np.empty((5, batch))
    parts = [np.concatenate([states[:, :, 0], states[:, :, 1]], axis=2), states[:, :, 2]]
    _step_stats(parts, np.add.reduce(states, axis=2), np.empty((k, batch)), out)
    return out + 0.0


def test_step_stats_skip_a_nan_step_as_if_the_block_had_not_held_it():
    # One step of run 1 holds NaN, so the whole-block reductions are NaN and
    # the per-step ones run for the block.  Each run's statistics must have
    # the bytes of its block without its NaN steps, reduced whole: run 0
    # keeps all five steps, run 1 the other four.
    rng = np.random.default_rng(13)
    states = rng.choice([-0.0, 0.0, 0.25, -1.5, 2.0], (5, 2, 3, 7))
    states[3, 1, 0, 4] = np.nan
    got = block_stats(states)
    assert np.isfinite(got).all()
    for b, n_kept in ((0, 5), (1, 4)):
        kept = ~np.isnan(states[:, b]).any(axis=(1, 2))
        assert kept.sum() == n_kept
        alone = states[kept, b:b + 1]
        assert not np.isnan(alone).any()
        assert block_stats(alone).tobytes() == got[:, b:b + 1].tobytes()


def test_step_zero_is_read_from_a_refreshed_slot():
    # advance's step 0 statistics are those of state 0, which the refresh
    # fills from f0.  A second call of the same shape takes the spare plan,
    # whose slots still hold the first call's smaller values; with no steps
    # it must still give exactly f0's extrema.
    rng = np.random.default_rng(34)
    first = rng.uniform(0, 1, (2, 30, 3))
    R = rng.uniform(0, 0.6, (2, 3, 3))
    second = rng.uniform(5, 6, (2, 30, 3))
    simulator._spare.clear()
    advance(first, R, BLOCK + 3)
    plan = simulator._spare[None][1]
    out = advance(second, R, 0)
    assert simulator._spare[None][1] is plan
    rho = density(second)
    assert bitwise_equal(out.min_f, second.min(axis=(1, 2)))
    assert bitwise_equal(out.min_rho, rho.min(axis=1))
    assert bitwise_equal(out.max_rho, rho.max(axis=1))
    assert bitwise_equal(out.f, second)


def test_advance_leaves_nothing_for_the_next_call():
    # The spare step plan goes from shape A to B and back, and a call of A
    # leaves NaN and inf in every buffer; a shorter call of A on fresh data
    # still has the bytes of a call that found no spare plan.
    rng = np.random.default_rng(11)
    dirty = rng.uniform(-1, 1, (2, 24, 3))
    dirty[:, ::5] = np.nan
    dirty[:, 1::5] = np.inf
    fresh = rng.uniform(0, 1, (2, 24, 3))
    R = rng.uniform(0, 1, (2, 3, 3))
    n_steps = BLOCK // 2 + 3
    simulator._spare.clear()
    want = advance(fresh, R, n_steps, snap_every=4)
    with np.errstate(all="ignore"):
        for f0 in (dirty, rng.uniform(0, 1, (5, 7, 3)), dirty):
            advance(f0, rng.uniform(-2, 2, (len(f0), 3, 3)), 3 * BLOCK + 5, snap_every=1)
    assert simulator._spare[None][0] == (2, 24)
    got = advance(fresh, R, n_steps, snap_every=4)
    for name in ("f", "min_f", "min_rho", "max_rho", "mass_drift", "snapshots"):
        assert bitwise_equal(getattr(got, name), getattr(want, name))
    for b in range(2):
        assert_matches_reference(got, b, fresh[b], R[b], n_steps, snap_every=4)


def test_advance_in_two_threads_at_once_equals_serial_runs():
    # Both threads step the same shape, so without the one-owner spare plan
    # they would write each other's buffers.
    rng = np.random.default_rng(12)
    inputs = [(rng.uniform(0, 1, (3, 40, 3)), rng.uniform(0, 0.6, (3, 3, 3))) for _ in range(2)]
    serial = [advance(f0, R, 2 * BLOCK + 7, snap_every=9) for f0, R in inputs]
    start, results, errors = threading.Barrier(2), [[], []], []

    def work(i):
        try:
            start.wait(timeout=30)
            for _ in range(15):
                results[i].append(advance(*inputs[i], 2 * BLOCK + 7, snap_every=9))
        except Exception as exc:   # reported below, with the thread's result
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for want, got in zip(serial, results):
        assert len(got) == 15
        for out in got:
            for name in ("f", "min_f", "min_rho", "max_rho", "mass_drift", "snapshots"):
                assert bitwise_equal(getattr(out, name), getattr(want, name))


def test_advance_one_cell_is_two_equal_cells():
    # A one-cell lattice is a two-cell lattice of equal cells.  The one-cell
    # reference rounds otherwise, because numpy multiplies a one-row state by
    # R^T through a matrix-vector product, so it is matched within 1e-14.
    R = build_relaxation_matrix(params(0.25, 0.0, 1.9, 1.4, 1 / 7))
    f0 = np.random.default_rng(1).uniform(0, 1, (1, 3))
    n_steps = 2 * _block_steps(1, 1) + 3
    out = advance(f0[None], R[None], n_steps, snap_every=2)
    f, diags, snapshots = reference_advance(np.repeat(f0, 2, axis=0), R, n_steps, snap_every=2)
    assert bitwise_equal(out.f[0], f[:1])
    assert bitwise_equal(out.snapshots[:, 0], [snap[:1] for _, snap in snapshots])
    assert bitwise_equal([out.min_f[0], out.min_rho[0], out.max_rho[0]], diags[:3])
    f, diags, _ = reference_advance(f0, R, n_steps)
    assert np.allclose(out.f[0], f, rtol=1e-14, atol=0)
    assert np.allclose([out.min_f[0], out.min_rho[0], out.max_rho[0], out.mass_drift[0]], diags,
                       rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("n_steps", [0, 2 * BLOCK + 3])
def test_advance_never_writes_its_inputs(n_steps):
    f0, R = initial(InitialProfile(kind=HAT), 24, params(0.25, 0.25, 1.6, 1.3, -0.175))
    f0, R = f0[None].copy(), R[None].copy()
    want_f0, want_R = f0.copy(), R.copy()
    f0.flags.writeable = R.flags.writeable = False
    out = advance(f0, R, n_steps, snap_every=5)
    assert bitwise_equal(f0, want_f0) and bitwise_equal(R, want_R)
    assert not np.shares_memory(out.f, f0) and not np.shares_memory(out.snapshots, f0)


def test_advance_underflow_changes_at_most_the_sign_of_a_zero():
    # products below half the smallest subnormal round to signed zeros, which
    # the component-major BLAS product may sum to the other zero than the
    # reference does; with OpenBLAS this data gives such pairs
    tiny = np.finfo(float).smallest_subnormal
    rng = np.random.default_rng(3)
    f0 = rng.choice([-0.0, 0.0, 1.0, 50.0, -50.0], (4, 16, 3)) * tiny
    R = rng.uniform(-1, 1, (4, 3, 3)) * rng.choice([1.0, 1e-3], (4, 3, 3))
    out = advance(f0, R, 3, snap_every=1)
    for b in range(4):
        f, diags, snapshots = reference_advance(f0[b], R[b], 3, snap_every=1)
        got = np.concatenate([out.f[b].ravel(), out.snapshots[:, b].ravel(),
                              [out.min_f[b], out.min_rho[b], out.max_rho[b], out.mass_drift[b]]])
        want = np.concatenate([f.ravel(), np.ravel([snap for _, snap in snapshots]), diags])
        assert np.array_equal(got, want, equal_nan=True)
        differs = got.view(np.uint64) != want.view(np.uint64)
        assert np.all(got[differs] == 0) and np.all(want[differs] == 0)


def test_advance_rejects_bad_shapes_and_step_counts():
    f0, R = initial(InitialProfile(kind=STEP), 8, params())
    with pytest.raises(ValueError):
        advance(f0, R[None], 3)
    with pytest.raises(ValueError):
        advance(f0[None], R, 3)
    with pytest.raises(ValueError):
        advance(f0[None], R[None], -1)
    with pytest.raises(ValueError, match="n_cells"):
        advance(np.empty((1, 0, 3)), R[None], 3)
    with pytest.raises(ValueError, match="^n_steps must be an integer, got 2.5$"):
        advance(f0[None], R[None], 2.5)
    with pytest.raises(ValueError, match="^snap_every must be an integer, got 2.5$"):
        advance(f0[None], R[None], 3, snap_every=2.5)
    with pytest.raises(ValueError, match="^snap_every must be >= 0, got -3$"):
        advance(f0[None], R[None], 3, snap_every=-3)
    assert advance(f0[None], R[None], np.int64(3), snap_every=np.int32(2)).snap_steps == (0, 2, 3)


# ------------------------------------------------------------------------ runs

def test_run_batch_of_no_cases_is_empty():
    assert run_batch([], default_grid(8), 5) == []
    with pytest.raises(ValueError):
        run_batch([], default_grid(8), -1)


def test_run_batch_checks_step_counts_before_initializing_cases():
    # init_state would reject this negative density, so each error must name the count
    profile, p = InitialProfile(kind=STEP, low=-1.0), params()
    for counts, name in (((2.5,), "n_steps"), ((3, 2.5), "snap_every"), ((3, -3), "snap_every")):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run_batch([(profile, p)], default_grid(8), *counts)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            run(profile, default_grid(8), p, *counts)


def test_run_batch_raises_the_first_bad_cases_error():
    # case 0 has a negative density, case 1 a custom profile of the wrong length
    cases = [(InitialProfile(kind=STEP, low=-1.0), params()),
             (InitialProfile(kind=CUSTOM, values=np.ones(3)), params())]
    with pytest.raises(ValueError, match="^initial density must be non-negative, min is -1$"):
        run_batch(cases, default_grid(8), 4)
    with pytest.raises(ValueError, match="^custom profile has 3 values for 8 cells$"):
        run_batch(cases[::-1], default_grid(8), 4)


def test_run_identity_dynamics():
    # V = 0 with frozen rates is the identity when nothing moves: alpha = -2
    # puts all equilibrium mass on the rest velocity, so streaming is a no-op
    g = default_grid(40)
    p = params(V=0.0, s=0.0, s_prime=0.0, alpha=-2.0)
    result = run(InitialProfile(kind=HAT), g, p, 25)
    f0 = init_state(InitialProfile(kind=HAT), g, p)
    assert np.allclose(result.f, f0, atol=1e-13)
    assert result.diagnostics.l1_error <= 1e-13


def test_run_identity_dynamics_constant_profile():
    # with a constant profile the split populations are indistinguishable,
    # so frozen rates keep any-alpha equilibria unchanged
    g = default_grid(24)
    p = params(V=0.0, s=0.0, s_prime=0.0, alpha=0.7)
    profile = InitialProfile(kind=CUSTOM, values=np.full(24, 1.3))
    result = run(profile, g, p, 11)
    f0 = init_state(profile, g, p)
    assert np.allclose(result.f, f0, atol=1e-13)
    assert result.diagnostics.l1_error <= 1e-13


def test_run_non_negative_parameters_keep_everything_non_negative():
    result = run(InitialProfile(kind=STEP), default_grid(200), params(0.25, 0.0, 1.0, 1.0, 0.0), 1000)
    d = result.diagnostics
    assert d.min_f_over_run >= -1e-14
    assert d.undershoot <= 1e-12
    assert d.overshoot <= 1e-12
    assert d.mass_drift <= 1e-12


def test_run_oscillating_parameters_show_step_undershoot():
    p = params(0.25, 0.0, 1.9, 1.4, 0.14285714285714302)
    d = run(InitialProfile(kind=STEP), default_grid(200), p, 1000).diagnostics
    assert d.undershoot > 0.01
    assert d.min_f_over_run < -0.01


def test_run_smooth_profile_hides_the_instability():
    p = params(0.25, 0.0, 1.9, 1.4, 0.14285714285714302)
    d = run(InitialProfile(kind=SMOOTH), default_grid(200), p, 1000).diagnostics
    assert d.undershoot <= 1e-3


def two_steps_from_one_cell(cases):
    """min_f of 2 advance steps from a unit equilibrium density in cell 4 of 9, per case, and (R, w)."""
    R = np.stack([build_relaxation_matrix(p) for p in cases])
    w = np.stack([equilibrium_weights(p) for p in cases])
    f0 = np.zeros((len(cases), 9, 3))
    f0[:, 4] = w
    return advance(f0, R, 2).min_f, R, w


def test_two_steps_from_one_cell_reach_the_least_weighted_entry():
    # Lemma (c) of d1q3rv.simulator: with w > 0, min_f = min(0, min_ik R_ik w_k)
    rng = np.random.default_rng(83)
    cases = [params(rng.uniform(-1, 1), rng.uniform(-1, 1), *rng.uniform(-0.5, 2.5, 2),
                    rng.uniform(-2, 1)) for _ in range(1200)]
    cases = [p for p in cases if equilibrium_weights(p).min() > 0]
    assert len(cases) >= 500
    min_f, R, w = two_steps_from_one_cell(cases)
    expected = np.minimum(0.0, (R * w[:, None, :]).min(axis=(1, 2)))
    assert np.abs(min_f - expected).max() <= TAU_MAT
    assert (expected < -0.01).sum() >= 100   # most of these operators are not >= 0


def test_two_steps_from_one_cell_exempt_a_zero_weight_column():
    # alpha = 1 gives w_1 = 0: the middle column's -0.5 never reaches f
    p = params(V=-0.75, u=-0.5, s=1.6, s_prime=1.2, alpha=1.0)
    (min_f,), (R,), (w,) = two_steps_from_one_cell([p])
    assert w[1] == 0
    others = (R * w)[:, [0, 2]].min()
    assert R[:, 1].min() < others - 0.1
    assert abs(min_f - others) <= TAU_MAT


def sweep_draws(seed, n=2000):
    """n tuples (V, u, s, s', alpha) drawn as the sweep benchmark draws them, and their R."""
    rng = np.random.default_rng(seed)
    rows = np.column_stack((rng.uniform(0, 1, n), rng.uniform(-1, 1, n), rng.uniform(0, 2, n),
                            rng.uniform(0, 2, n), rng.uniform(-2, 1, n)))
    return rows, relaxation_matrices(*rows.T)


def total_variation(f):
    """Periodic total variation along the cell axis (1) of f (B, n_cells, ...)."""
    return np.abs(np.roll(f, -1, axis=1) - f).sum(axis=1)


def test_non_negative_r_runs_are_l1_contractive_and_tvd():
    # Lemma (e) of d1q3rv.simulator.  Rounding: a step computes each value as
    # a three-term dot product with R >= 0, whose columns sum to 1 within a few
    # ulps, so it moves the values by at most 4 eps ||f||_1 in all, and TV_f
    # and ||f - g||_1 by twice that; 16 eps per unit of L1 norm bounds a step.
    rows, R = sweep_draws(29)
    keep = R.reshape(-1, 9).min(axis=1) >= 1e-9
    rows, R = rows[keep][:12], R[keep][:12]
    assert len(rows) == 12
    grid, n_steps = default_grid(200), 100
    f0 = np.stack([init_state(InitialProfile(kind=STEP), grid, params(*row)) for row in rows])
    g0 = np.random.default_rng(30).uniform(-1, 1, f0.shape)
    f = advance(f0, R, n_steps, snap_every=1).snapshots.transpose(1, 0, 2, 3)   # (B, steps, n, 3)
    g = advance(g0, R, n_steps, snap_every=1).snapshots.transpose(1, 0, 2, 3)
    eps = np.finfo(float).eps
    step_tol = 16 * eps * np.abs(f0).sum(axis=(1, 2))[:, None]
    tv_rho = total_variation(density(f).transpose(0, 2, 1))       # (B, steps)
    assert np.allclose(tv_rho[:, 0], 2, rtol=8 * eps, atol=0)   # w sums to 1 within rounding
    assert (tv_rho - tv_rho[:, :1] <= n_steps * step_tol).all()
    tv_f = total_variation(f.transpose(0, 2, 1, 3)).sum(axis=2)
    assert (np.diff(tv_f, axis=1) <= step_tol).all()
    distance = np.abs(f - g).sum(axis=(2, 3))
    step_tol += 16 * eps * np.abs(g0).sum(axis=(1, 2))[:, None]
    assert (np.diff(distance, axis=1) <= step_tol).all()
    assert (distance[:, -1] < 0.9 * distance[:, 0]).all()   # they do draw together


def test_a_negative_column_entry_grows_a_spike_total_variation():
    # The converse of lemma (e): one step takes a unit spike in velocity k
    # (TV_f = 2) to the spikes R_ik, one per velocity, so TV_f grows by the
    # factor sum_i |R_ik|, which is 1 + 2 sum_i max(-R_ik, 0) > 1.
    _, R = sweep_draws(31, 200)
    R = R[R.reshape(-1, 9).min(axis=1) < -1e-3][:12]
    columns = [(b, k) for b in range(len(R)) for k in range(3) if R[b, :, k].min() < -1e-3]
    assert len(R) == 12 and len(columns) >= 12
    f0 = np.zeros((len(columns), 9, 3))
    for j, (b, k) in enumerate(columns):
        f0[j, 4, k] = 1.0
    f1 = advance(f0, np.stack([R[b] for b, _ in columns]), 1).f
    growth = total_variation(f1).sum(axis=1) / total_variation(f0).sum(axis=1)
    factor = np.array([np.abs(R[b, :, k]).sum() for b, k in columns])
    assert np.allclose(growth, factor, rtol=4 * np.finfo(float).eps, atol=0)
    assert (growth > 1 + 2e-3).all()


@pytest.mark.parametrize("kind", [SMOOTH, HAT, STEP])
@pytest.mark.parametrize("n_steps", [1, 137, 777])
def test_run_exact_advection_at_unit_velocity(kind, n_steps):
    # V=1, s=s'=1, alpha=1: equilibrium weights are (0,0,1), a pure right shift
    p = params(V=1.0, s=1.0, s_prime=1.0, alpha=1.0)
    d = run(InitialProfile(kind=kind), default_grid(200), p, n_steps).diagnostics
    assert d.l1_error <= 1e-13


def test_run_mass_conservation_across_parameters():
    # Conservation is exact in real arithmetic; in float64 the roundoff is
    # proportional to the running amplitude, so assert it where amplitudes
    # stay bounded: non-negative operators plus the mildly oscillating
    # benchmark rows.
    from d1q3rv.stability import nine_inequalities
    rng = np.random.default_rng(10)
    found = 0
    while found < 10:
        p = params(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 2),
                   rng.uniform(0, 2), rng.uniform(-2, 1))
        if not nine_inequalities(p).stable:
            continue
        d = run(InitialProfile(kind=HAT, low=0.5), default_grid(100), p, 200).diagnostics
        assert d.mass_drift <= 1e-12
        found += 1
    for row in ((0.25, 0.0, 1.6, 1.3, 0.3076923076923076),
                (0.25, 0.0, 1.9, 1.4, 0.14285714285714302)):
        d = run(InitialProfile(kind=HAT, low=0.5), default_grid(100), params(*row), 200).diagnostics
        assert d.mass_drift <= 1e-12


def test_run_far_outside_region_amplifies_exponentially():
    # deep in the unstable zone the combined stream/collide step amplifies
    # short waves each step; this is the instability the region analysis rules out
    p = params(0.9, 0.9, 1.99, 0.05, -1.9)
    with pytest.warns(UserWarning):   # its equilibrium weights are negative too
        d = run(InitialProfile(kind=STEP), default_grid(100), p, 200).diagnostics
    assert d.max_rho > 1e3


# Two non-negative rows at V = 1/4: upwind, and a row that diffuses less,
# with their density diffusion nu = (1/s - 1/2)((2 + alpha)/3 - V^2) per step
# and their step-profile L1 errors after 4 n steps on n cells, n = 100 ... 800.
LEAST_DIFFUSION_ROWS = {
    (Fraction(1, 4), Fraction(0), Fraction(1), Fraction(1), Fraction(-5, 4)):
        (Fraction(3, 32), (0.136853, 0.097641, 0.069083, 0.048855)),
    (Fraction(1, 4), Fraction(1, 4), Fraction(8, 5), Fraction(4, 5), Fraction(-7, 8)):
        (Fraction(5, 128), (0.089190, 0.063076, 0.044602, 0.031539)),
}


def test_a_relative_velocity_row_diffuses_less_than_upwind():
    # The second row's error is sqrt(nu ratio) = sqrt(5/12) of upwind's, as a
    # diffused step's L1 error grows like sqrt(nu t); both keep f and the
    # density's minimum at zero up to rounding.
    errors = []
    for row, (nu, want) in LEAST_DIFFUSION_ROWS.items():
        V, u, s, sp, alpha = row
        assert (1 / s - Fraction(1, 2)) * ((2 + alpha) / 3 - V * V) == nu
        p = params(*map(float, row))
        assert nine_inequalities(p).stable
        for n_cells, l1 in zip((100, 200, 400, 800), want):
            d = run(InitialProfile(kind=STEP), default_grid(n_cells), p, 4 * n_cells).diagnostics
            assert d.l1_error == pytest.approx(l1, abs=5e-7), (row, n_cells)
            assert d.undershoot <= 3e-17 and d.min_f_over_run >= -3e-17
        errors.append(d.l1_error)
    assert abs(errors[1] / errors[0] - math.sqrt(5 / 12)) <= 1e-3


def test_run_snapshots_cadence():
    result = run(InitialProfile(kind=HAT), default_grid(20), params(), 10, snap_every=4)
    assert result.snap_steps == (0, 4, 8, 10)
    # run hands back the kernel's own arrays for the same case, bit for bit
    f0, R = initial(InitialProfile(kind=HAT), 20, params())
    out = advance(f0[None], R[None], 10, snap_every=4)
    assert bitwise_equal(result.f, out.f[0])
    assert result.snapshots.shape == (4, 20, 3)
    assert bitwise_equal(result.snapshots, out.snapshots[:, 0])


def test_run_batch_integer_shift_l1_error_matches_fresh_reference():
    # at an integer shift (V * n_steps = 10 cells) the L1 error is the one
    # against the exact reference exact_density gives on its own
    cases = [(InitialProfile(kind=kind), params(V=0.25)) for kind in (STEP, HAT, SMOOTH)]
    g = default_grid(200)
    want = [exact_density(profile, g, p, 40) for profile, p in cases]
    results = run_batch(cases, g, 40)
    for (profile, p), ref, result in zip(cases, want, results):
        l1 = np.sum(np.abs(density(result.f) - ref)) * g.dx
        assert result.diagnostics.l1_error == l1


def test_exact_density_integer_shift_rolls_samples():
    g = default_grid(200)
    p = params(V=0.25)
    profile = InitialProfile(kind=STEP)
    ref = exact_density(profile, g, p, 1000)   # displacement is exactly 250 cells
    assert np.array_equal(ref, np.roll(profile.sample(g), 250))


def test_exact_density_fractional_shift_resamples():
    g = default_grid(200)
    p = params(V=0.3)
    ref = exact_density(InitialProfile(kind=SMOOTH), g, p, 1)   # 0.3 cells
    x = g.positions() - 0.3 * g.dx
    expect = InitialProfile(kind=SMOOTH).sample_at(np.mod(x, g.length), g.length)
    assert np.allclose(ref, expect, atol=1e-15)
    for n_steps in (1, 0):   # a fractional and an integer shift
        with pytest.raises(ValueError, match="7 values for 200 cells"):
            exact_density(InitialProfile(kind=CUSTOM, values=np.ones(7)), g, p, n_steps)


# --------------------------------------------------------------------- output

def test_diagnostics_csv_round_trip():
    d = run(InitialProfile(kind=STEP), default_grid(50), params(), 100).diagnostics
    buf = io.StringIO()
    write_diagnostics_csv(d, buf)
    header, row = buf.getvalue().strip().split("\n")
    assert header == "min_f_over_run,min_rho,max_rho,mass_drift,l1_error,overshoot,undershoot"
    vals = [float(v) for v in row.split(",")]
    assert vals[0] == d.min_f_over_run
    assert vals[4] == d.l1_error


def test_snapshots_csv_shape():
    g = default_grid(10)
    result = run(InitialProfile(kind=HAT), g, params(), 4, snap_every=2)
    buf = io.StringIO()
    write_snapshots_csv(result, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "step,cell,x,f1,f2,f3,rho"
    assert len(lines) == 1 + len(result.snap_steps) * 10
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"


def test_snapshots_csv_bytes_match_per_value_format():
    g = default_grid(7)
    result = run(InitialProfile(kind=STEP), g, params(s=1.9, s_prime=1.4, alpha=1 / 7), 6,
                 snap_every=3)
    odd = np.array([[-0.0, 5e-324, 1 / 3], [-1e300, 2.5, 1e-17]] + [[0.1, 0.2, 0.3]] * 5)
    result = dataclasses.replace(result, snap_steps=result.snap_steps + (99,),
                                 snapshots=np.concatenate([result.snapshots, odd[None]]))
    buf = io.StringIO()
    write_snapshots_csv(result, buf)
    x = g.positions()
    expect = ["step,cell,x,f1,f2,f3,rho"]
    for step, f in zip(result.snap_steps, result.snapshots):
        rho = density(f)
        for k in range(g.n_cells):
            vals = (x[k], *f[k], rho[k])
            expect.append(f"{step},{k}," + ",".join(format(v, ".17g") for v in vals))
    assert buf.getvalue() == "\n".join(expect) + "\n"
