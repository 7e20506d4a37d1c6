"""Linear advection runs of the scheme on a periodic 1D lattice.

A step is collide-then-stream: every cell's distribution triple is
multiplied by the relaxation operator, then the left- and right-moving
components shift one cell (periodically).  Runs record non-negativity,
conservation, extrema, and the L1 distance to the exactly advected
profile, which is what exhibits (or rules out) spurious oscillations.

A state is a plain (n_cells, 3) array of distribution triples, and density
is the one definition of a cell's density.  advance's statistics add each
triple in density's order through one stacked ones-vector product, with
density's bytes except that a (-0.0, -0.0, -0.0) triple sums to +0.0 there
and to -0.0 in density (see _step_stats).  Every run goes through advance,
one kernel over a batch of states; run_batch builds each run's record from
advance's arrays, and run is its batch-of-one case.  The tests check advance
against a step-by-step reference (tests/reference.py): per step, f @ R.T,
then the left movers rolled one cell down and the right movers one cell up.

With positive equilibrium weights w, R >= 0 is also necessary for
non-negative runs from equilibrium data (lemma (c)).  Collision fixes
equilibria, R w = w, so from a unit density in one cell the first step
moves each w_k one cell along its velocity c_k into a cell of its own, and
the second collides these into the columns R_ik w_k, whose nine values each
stream to a slot of their own: the least f over steps 0 to 2 is
min(0, min_ik R_ik w_k).  A zero weight w_k exempts column k.

With R >= 0 every run is L1-contractive and total-variation-diminishing
(lemma (e)).  A step maps the (cell, velocity) values g linearly, by a
non-negative matrix P with unit column sums: R's columns sum to 1 (collision
keeps mass) and streaming permutes.  So ||P g||_1 <= sum_k (sum_i R_ik)
|g_k| = ||g||_1 for every g, and two runs with one R never draw apart:
||f_n - g_n||_1 never grows.  P commutes with the cell shift X, so neither
does TV_f(f) = ||f - X f||_1.  From equilibrium data f_0 = w rho_0 with
w >= 0 (which R >= 0 forces when s s' != 0, see init_state), TV(rho_n) <=
TV_f(f_n) <= TV_f(f_0) = TV(rho_0): the density gains no new extrema
(Harten, J. Comput. Phys. 49:357, 1983).  Conversely, when column k of R
has a negative entry, one step takes a unit spike in velocity k, of TV_f 2,
to the spikes R_ik, one per velocity, of TV_f 2 sum_i |R_ik|; with the
column summing to 1, that factor is 1 + 2 sum_i max(-R_ik, 0) > 1.
"""

from __future__ import annotations

import itertools
import math
import reprlib
import warnings
import numpy as np
from dataclasses import astuple, dataclass, fields

from .scheme import (WORKING_SET_BYTES, SchemeParameters, _integer, _real, _write_lines,
                     build_relaxation_matrix, equilibrium_distributions, equilibrium_weights)

SMOOTH = "smooth"
HAT = "hat"
STEP = "step"
CUSTOM = "custom"
PROFILE_KINDS = (SMOOTH, HAT, STEP, CUSTOM)


@dataclass(frozen=True)
class Grid1D:
    """Periodic lattice of n_cells cells (a positive integer, stored as an
    int) of width dx = 1 / n_cells; its length is n_cells * dx, which need not
    round to exactly 1.0."""

    n_cells: int

    def __post_init__(self):
        n_cells = _integer(self.n_cells, "n_cells")
        if n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {n_cells}")
        object.__setattr__(self, "n_cells", n_cells)

    @property
    def dx(self) -> float:
        return 1.0 / self.n_cells

    @property
    def length(self) -> float:
        return self.n_cells * self.dx

    def positions(self) -> np.ndarray:
        return self.dx * np.arange(self.n_cells)


def default_grid(n_cells: int = 200) -> Grid1D:
    """Unit-length periodic grid, 200 cells unless told otherwise."""
    return Grid1D(n_cells)


@dataclass(frozen=True)
class InitialProfile:
    """Initial density shape; low/high are the baseline and peak values.

    smooth is a Gaussian bump, hat a triangular pulse (half-width width),
    step a rectangular pulse, custom takes per-cell densities.  center and
    width default to L/4 and L/10.  Distances wrap periodically.  low, high
    and a given center or width are stored as Python floats; a value that is
    not a real number, or does not fit a float, is a ValueError naming its
    field.  Given values are stored as a tuple of at least one Python float
    (NaN and +-inf kept), so profiles compare and hash by value and the
    values cannot be rewritten in place; anything but a non-empty 1-d
    sequence of real numbers is a ValueError naming values.  Only custom reads
    values, and custom reads neither center nor width: a field the kind does
    not read is a ValueError naming it.
    """

    kind: str = STEP
    center: float = None
    width: float = None
    low: float = 0.0
    high: float = 1.0
    values: tuple = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}")
        if self.kind == CUSTOM and self.values is None:
            raise ValueError("custom profiles need explicit density values")
        for name in ("center", "width") if self.kind == CUSTOM else ("values",):
            if getattr(self, name) is not None:
                raise ValueError(f"{name} is not read by {self.kind} profiles")
        for name in ("low", "high", "center", "width"):
            value = getattr(self, name)
            if value is not None or name in ("low", "high"):
                object.__setattr__(self, name, _real(value, name))
        if self.width is not None and not self.width > 0:
            raise ValueError(f"profile width must be positive, got {self.width}")
        if self.center is not None and not math.isfinite(self.center):
            raise ValueError(f"profile center must be finite, got {self.center}")
        if self.values is not None:
            object.__setattr__(self, "values", _densities(self.values))

    def sample_at(self, x, length: float) -> np.ndarray:
        """Density at positions x on a periodic domain of the given length."""
        x = np.asarray(x, float)
        if self.kind == CUSTOM:
            n = len(self.values)
            grid_x = length * np.arange(n) / n
            return np.interp(np.mod(x, length), grid_x, self.values, period=length)
        x0 = self.center if self.center is not None else length / 4.0
        w = self.width if self.width is not None else length / 10.0
        d = np.abs(x - x0) % length
        d = np.minimum(d, length - d)
        if self.kind == SMOOTH:
            return self.low + (self.high - self.low) * np.exp(-((d / w) ** 2))
        if self.kind == HAT:
            return self.low + (self.high - self.low) * np.maximum(0.0, 1.0 - d / w)
        return np.where(d <= w, self.high, self.low)

    def _check_fits(self, grid: Grid1D) -> None:
        if self.kind == CUSTOM and len(self.values) != grid.n_cells:
            raise ValueError(f"custom profile has {len(self.values)} values for {grid.n_cells} cells")

    def sample(self, grid: Grid1D) -> np.ndarray:
        """Density at the cells of grid.  A custom profile's values are its
        sample, bit for bit; sample_at interpolates them off the grid."""
        self._check_fits(grid)
        if self.kind == CUSTOM:
            return np.array(self.values)
        return self.sample_at(grid.positions(), grid.length)


def _densities(values) -> tuple:
    """values as a tuple of Python floats; a ValueError naming them unless they
    are a non-empty 1-d sequence of real numbers."""
    try:
        a = np.asarray(values)
        if a.dtype.kind in "biuf" and a.ndim == 1 and a.size:
            return tuple(a.astype(float).tolist())
    except ValueError:   # a ragged nesting
        pass
    raise ValueError("values must be a non-empty 1-d sequence of real numbers, "
                     f"got {reprlib.repr(values)}")


def density(f) -> np.ndarray:
    """Cell densities f1 + f2 + f3 of states f (..., 3), added in that order.

    A run's mass is density(f).sum(), so it rounds the same in any layout.
    """
    return f[..., 0] + f[..., 1] + f[..., 2]


def init_state(profile: InitialProfile, grid: Grid1D, p: SchemeParameters) -> np.ndarray:
    """Equilibrium state (n_cells, 3) of the density profile.sample(grid).

    Rejects profiles with negative density; warns when the equilibrium
    weights themselves are negative for (V, alpha), since then even a
    non-negative density gives negative distribution values.  The warning
    says why: R w = w with weights summing to 1, and when s s' != 0 the
    eigenvalue 1 of R is simple, so R >= 0 has a non-negative such w
    (Perron-Frobenius).  Negative weights thus need R to have a negative
    entry, or s s' = 0, where (V, u, s, s', alpha) = (0, 0, 1, 0, 5) has
    R >= 0 and w = (7/6, -4/3, 7/6).
    """
    rho0 = profile.sample(grid)
    if rho0.min() < 0:
        raise ValueError(f"initial density must be non-negative, min is {rho0.min():g}")
    if equilibrium_weights(p).min() < 0:
        warnings.warn(
            f"equilibrium weights are negative for V={p.V}, alpha={p.alpha}, which needs "
            "R to have a negative entry or s*s' = 0; initial distributions will not all "
            "be non-negative",
            stacklevel=2,
        )
    return equilibrium_distributions(rho0, p)


@dataclass(frozen=True)
class RunDiagnostics:
    """One run's record; its fields, in order, are the CSV columns.

    min_f_over_run, min_rho, max_rho and mass_drift are advance's min_f,
    min_rho, max_rho and mass_drift for the run.  mass_drift is the largest
    relative change of mass (the sum of cell densities) seen at any step;
    overshoot/undershoot measure density excursions beyond the initial
    range, the signature of spurious oscillations; l1_error compares the
    final density with the exactly advected initial profile.
    """

    min_f_over_run: float
    min_rho: float
    max_rho: float
    mass_drift: float
    l1_error: float
    overshoot: float
    undershoot: float

    def as_csv_row(self) -> str:
        return ",".join(format(v, ".17g") for v in astuple(self))


DIAGNOSTICS_CSV_HEADER = ",".join(field.name for field in fields(RunDiagnostics))
SNAPSHOT_CSV_HEADER = "step,cell,x,f1,f2,f3,rho"


@dataclass(frozen=True)
class RunResult:
    """One case of run_batch: its diagnostics, the final state f (n_cells, 3),
    and snapshots[j] (n_cells, 3), the state at step snap_steps[j].  f and
    snapshots are views of advance's BatchRun, under its field names.
    """

    diagnostics: RunDiagnostics
    f: np.ndarray
    snap_steps: tuple
    snapshots: np.ndarray


def exact_density(profile: InitialProfile, grid: Grid1D, p: SchemeParameters,
                  n_steps: int) -> np.ndarray:
    """Advected initial profile after n_steps time steps.

    The displacement is V * n_steps cells; when that is an integer the
    reference is profile.sample(grid) rolled by it (avoids re-sampling noise
    at profile discontinuities), otherwise the profile is re-sampled at the
    shifted positions.  A non-finite displacement gives an all-NaN reference.
    """
    profile._check_fits(grid)
    shift_cells = p.V * n_steps
    if not np.isfinite(shift_cells):
        return np.full(grid.n_cells, np.nan)
    nearest = round(shift_cells)
    if abs(shift_cells - nearest) < 1e-9:
        return np.roll(profile.sample(grid), nearest % grid.n_cells)
    x = grid.positions() - shift_cells * grid.dx
    return profile.sample_at(np.mod(x, grid.length), grid.length)


def _check_counts(n_steps, snap_every) -> tuple:
    """(n_steps, snap_every) as ints; a ValueError naming one unless it is an integer >= 0."""
    counts = []
    for value, name in ((n_steps, "n_steps"), (snap_every, "snap_every")):
        count = _integer(value, name)
        if count < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        counts.append(count)
    return tuple(counts)


def _plan_bytes(batch: int, n_cells: int, k: int) -> int:
    """Bytes of the arrays of _step_plan(batch, n_cells) at block length k:
    the history (k+1, B, 3, L) with k spare values, the ghost-cell index wrap
    (L), the (k, B, n_cells) densities, the (k, B) masses and the (5, B) block
    statistics, 8 bytes a value, where L = n_cells + 2(k+1).  _block_steps
    sizes a plan by it, and advance keeps a plan as the spare by it."""
    width = n_cells + 2 * k + 2
    return 8 * ((k + 1) * batch * 3 * width + k + width + k * batch * n_cells + k * batch + 5 * batch)


def _block_steps(batch: int, n_cells: int) -> int:
    """Steps per history block: 64, fewer where the plan's arrays would pass
    WORKING_SET_BYTES (1 MiB), and 1 where even a one-step plan is larger.

    The bytes are the one count _plan_bytes, the ghost-cell index wrap
    included, which advance also reads to keep a plan in its
    ((B, n_cells), plan) slot, so every plan with k > 1 is kept.
    """
    k = 64
    while k > 1 and _plan_bytes(batch, n_cells, k) > WORKING_SET_BYTES:
        k -= 1
    return k


matmul = np.matmul   # a step looks up one global, not a global and an attribute
_ONES = np.ones(3)   # _step_stats' densities are _ONES @ states, one sum per triple


def _step_stats(slots: np.ndarray, interior: slice, rho: np.ndarray, masses: np.ndarray,
                out: np.ndarray) -> None:
    """Least mass, min f, min rho, max rho and greatest mass, in that order,
    over a block of steps' history slots (k, B, 3, m), into out (5, B).

    The states are the slots' interior cells, slots[..., interior].  min f
    is read from the whole slots, whose other cells hold +inf or bitwise
    copies of interior values (see advance), so the minimum is the
    interiors'.  Writes the densities into rho (k, B, n) as one stacked
    product _ONES @ states, which adds (f1 + f2) + f3 as density() does
    (1.0 * x is exact, and a fused multiply-add rounds as the plain sum), and
    each step's mass into masses (k, B), the pairwise np.add.reduce of
    density(f).sum().  Both have density()'s bytes but for one exception: the
    product's sums start from +0.0, so a (-0.0, -0.0, -0.0) triple has density
    +0.0 here and -0.0 in density(), and a step whose every triple is one has
    mass +0.0 here and -0.0 there.  A NaN step is skipped: the
    masses are folded over the steps with np.fmin and np.fmax, and min f,
    min rho and max rho, one exact reduction each over the whole block, are
    recomputed per step and folded the same way when one of them is NaN.
    (A NaN mass alone, as in a run holding +inf and -inf, needs no
    recomputation.)  Every block tries the whole-block reductions first, so
    each block of a run that met NaN pays for both.  The sign of a zero
    extremum depends on the traversal order, so advance makes it +0.0.
    """
    matmul(_ONES, slots[..., interior], out=rho)
    np.add.reduce(rho, axis=2, out=masses)
    np.fmin.reduce(masses, axis=0, out=out[0])
    np.fmax.reduce(masses, axis=0, out=out[4])
    np.minimum.reduce(slots, axis=(0, 2, 3), out=out[1])
    np.minimum.reduce(rho, axis=(0, 2), out=out[2])
    np.maximum.reduce(rho, axis=(0, 2), out=out[3])
    if np.isnan(out[1:4]).any():
        np.fmin.reduce(np.minimum.reduce(slots, axis=(2, 3)), axis=0, out=out[1])
        np.fmin.reduce(np.minimum.reduce(rho, axis=2), axis=0, out=out[2])
        np.fmax.reduce(np.maximum.reduce(rho, axis=2), axis=0, out=out[3])


def _step_plan(batch: int, n_cells: int) -> tuple:
    """What advance's steps use that depends only on (B, n_cells): the block
    length k from _block_steps, the batch index of the step views (0 for a
    batch of one, which steps with 2-D matmuls, else the whole batch), the
    interior slice, the history and its per-step matmul views, the
    ghost-cell index wrap and the statistics buffers, whose bytes _plan_bytes
    counts.  advance indexes R with the batch index, so the batch-of-one
    rule is stated here only, and keeps the plan as the spare slot
    ((B, n_cells), plan) when its arrays fit WORKING_SET_BYTES."""
    block = _block_steps(batch, n_cells)
    edge = block + 1
    width = n_cells + 2 * edge
    slot = batch * 3 * width
    # shifted[j] starts at cell j of slot j+1; the unused tail of its rows
    # runs up to block - 1 values past the last slot, hence the spare values.
    # The cells no step writes stay +inf, so min f can read whole slots.
    buf = np.full((block + 1) * slot + block, np.inf)
    hist = buf[:(block + 1) * slot].reshape(block + 1, batch, 3, width)
    shifted = np.ndarray((block, batch, 3, width - 2), buffer=buf, offset=slot * buf.itemsize,
                         strides=np.multiply((slot + 1, 3 * width, width + 1, 1), buf.itemsize))
    runs = 0 if batch == 1 else slice(None)
    ins = [hist[j, runs, :, 1 + j:width - 1 - j] for j in range(block)]
    outs = [shifted[j, runs, :, :width - 2 - 2 * j] for j in range(block)]
    wrap = edge + (np.arange(width) - edge) % n_cells
    rho = np.empty((block, batch, n_cells))
    masses = np.empty((block, batch))
    stats = np.empty((5, batch))
    return block, runs, slice(edge, edge + n_cells), hist, ins, outs, wrap, rho, masses, stats


# The one spare step plan, as ((B, n_cells), plan) under the key None.  A call
# pops it for its whole duration, so concurrent calls never share buffers and a
# call of another shape drops it before building its own, and puts its own
# plan back on return unless _plan_bytes puts it over WORKING_SET_BYTES.
_spare = {}


@dataclass(frozen=True)
class BatchRun:
    """What advance returns for B runs of n_cells cells.

    f holds the final states, shape (B, n_cells, 3).  min_f, min_rho, max_rho
    and mass_drift, each of shape (B,), are taken over steps 0 to n_steps.
    snapshots[j] holds the states at step snap_steps[j].
    """

    f: np.ndarray
    min_f: np.ndarray
    min_rho: np.ndarray
    max_rho: np.ndarray
    mass_drift: np.ndarray
    snap_steps: tuple
    snapshots: np.ndarray


def advance(f0, R, n_steps: int, snap_every: int = 0) -> BatchRun:
    """Relax-then-stream a batch of runs n_steps times.

    f0 has shape (B, n_cells, 3) and R, shape (B, 3, 3), is each run's
    relaxation matrix; neither is written to.  The states live
    component-major in a block of history slots (k+1, B, 3, L), each row
    padded with E = k+1 periodic ghost cells on both sides (L = n_cells + 2E).
    Step j is one matmul of R with slot j's still-valid cells, written
    through a view of slot j+1 whose row stride is L+1, so the three
    components land one cell down, in place and one cell up: the write
    address does the streaming, and the valid window shrinks by a cell on
    each side.  A state enters slot 0 one way only: the ghost refresh,
    which fills the whole of slot 0 from the interior of another slot.  f0
    is written into the interior of the last slot and refreshed into slot 0
    before the first block, and each block refreshes slot 0 from its last
    slot at its end, so the final state is read from slot 0.  The densities
    and snapshots are read from the slots' interiors, in no second layout.
    A batch of one steps with 2-D matmuls, through views without the batch
    axis; _step_plan gives the batch index that R is read with.
    _block_steps sets k: at most 64 steps, and at most WORKING_SET_BYTES
    (1 MiB) of plan arrays by the one byte count _plan_bytes, which counts
    the ghost-cell index wrap too, so memory stays O(B * n_cells).

    The history starts filled with +inf, and min f over a block's steps is
    one reduction over their whole slots.  The refresh maps every cell of
    slot 0 to an interior cell, and every cell a step writes is R times a
    triple bitwise equal to that of the interior cell it is a periodic copy
    of (the refresh copies whole triples, and the product rounds every
    column alike), so it holds that cell's value bit for bit; the cells no
    step writes stay +inf, so the minimum is the interiors'.  Step j writes
    the same cells of slot j+1 in every block, and the refresh all of slot
    0, so no value of an earlier block or call is read.  Step 0's
    statistics are those of slot 0, read as each block's are.

    Once per block, _step_stats reduces the block's states to min f, min
    rho, max rho and the least and the greatest per-step mass; one np.fmin
    folds the minima and the least mass into the run's, and one np.fmax the
    greatest mass and max rho, so NaN steps are skipped and a NaN start is
    kept.  A zero min_f, min_rho or max_rho is +0.0.  The mass drift is formed
    once, at the end, from the least and the greatest mass; it is NaN where
    the initial mass is not finite.  The step views and buffers depend only on
    (B, n_cells).  A call keeps them between calls in the one spare slot,
    _spare[None] = ((B, n_cells), plan), whenever _plan_bytes fits
    WORKING_SET_BYTES, that is, unless even a one-step plan is larger; a call
    of the same shape takes them from there, and concurrent calls never share
    them.

    The states and snapshots are bitwise equal to those of the step-by-step
    reference (f @ R.T, then the movers rolled; see the module docstring),
    and the diagnostics to a fold of its steps' values with Python's min and
    max, with every zero extremum +0.0.  There are two exceptions.  Where a
    product underflows below half the smallest subnormal, a zero may have the
    other sign than the reference's (the values are equal as numbers).
    With n_cells = 1, the reference's f @ R.T multiplies a one-row state
    through a matrix-vector product, which rounds otherwise; advance then
    equals the reference run on two equal cells.  A run's result does not
    depend on the rest of its batch.

    A cell holding +inf and -inf has a NaN density, whose product warns
    "invalid value encountered in matmul" (the densities are a matmul, see
    _step_stats), as a step's product that makes a NaN does.

    snap_every > 0 records the states every that many steps (step 0 and the
    final step included), and 0 records none.  n_steps and snap_every must
    be integers >= 0 (NumPy integers too, converted once to int); anything
    else is a ValueError.
    """
    f0 = np.ascontiguousarray(f0, dtype=float)
    R = np.asarray(R, dtype=float)
    if f0.ndim != 3 or f0.shape[2] != 3 or f0.shape[1] == 0 or R.shape != (len(f0), 3, 3):
        raise ValueError(f"expected f0 of shape (B, n_cells >= 1, 3) and R of shape (B, 3, 3), "
                         f"got {f0.shape} and {R.shape}")
    n_steps, snap_every = _check_counts(n_steps, snap_every)
    batch, n_cells, _ = f0.shape
    shape, plan = _spare.pop(None, (None, None))
    if shape != (batch, n_cells):
        del plan   # freed before the new plan's +inf fill touches its pages
        plan = _step_plan(batch, n_cells)
    block, runs, interior, hist, ins, outs, wrap, rho, masses, stats = plan
    snap_steps = (tuple(sorted(set(range(0, n_steps + 1, snap_every)) | {n_steps}))
                  if snap_every > 0 else ())
    snapshots = np.empty((len(snap_steps), batch, n_cells, 3))
    snapshots[:1] = f0   # step 0, when there are snapshots
    R = R[runs]
    hist[block, :, :, interior] = f0.transpose(0, 2, 1)
    np.take(hist[block], wrap, axis=2, out=hist[0], mode="clip")
    _step_stats(hist[:1], interior, rho[:1], masses[:1], stats)
    mass0 = masses[0].copy()
    # running is laid out as stats: min mass, min f and min rho fold with
    # np.fmin, max rho and max mass with np.fmax.  NaN steps are skipped, and
    # as neither makes a NaN, only a NaN start stays NaN, so the masks are
    # fixed; a non-finite mass0 starts both mass extrema at NaN (no drift).
    running = stats.copy()
    running[0] = running[4] = np.where(np.isfinite(mass0), mass0, np.nan)
    lows, highs = running[:3], running[3:]
    keep_lows, keep_highs = ~np.isnan(lows), ~np.isnan(highs)
    done, snapped = 0, 1
    while done < n_steps:
        k = min(block, n_steps - done)
        for a, b in zip(ins[:k], outs[:k]):
            matmul(R, a, b)
        _step_stats(hist[1:k + 1], interior, rho[:k], masses[:k], stats)
        np.fmin(lows, stats[:3], out=lows, where=keep_lows)
        np.fmax(highs, stats[3:], out=highs, where=keep_highs)
        while snapped < len(snap_steps) and snap_steps[snapped] <= done + k:
            snapshots[snapped] = hist[snap_steps[snapped] - done, :, :, interior].transpose(0, 2, 1)
            snapped += 1
        np.take(hist[k], wrap, axis=2, out=hist[0], mode="clip")
        done += k
    f = hist[0, :, :, interior].transpose(0, 2, 1).copy()
    if _plan_bytes(batch, n_cells, block) <= WORKING_SET_BYTES:
        _spare[None] = ((batch, n_cells), plan)
    low_mass, min_f, min_rho, max_rho, high_mass = running
    # The largest |mass - mass0| of any step is that of the least or the
    # greatest mass, as rounding is monotone; drift is |mass| when mass0 == 0.
    scale = np.where(mass0 != 0, np.abs(mass0), 1.0)
    drift = np.maximum(np.abs(low_mass - mass0), np.abs(high_mass - mass0)) / scale
    return BatchRun(f=f, min_f=min_f + 0.0,
                    min_rho=min_rho + 0.0, max_rho=max_rho + 0.0, mass_drift=drift,
                    snap_steps=snap_steps, snapshots=snapshots)


def run_batch(cases, grid: Grid1D, n_steps: int, snap_every: int = 0) -> list:
    """Run every (profile, params) pair of cases on grid with one advance call.

    Returns one RunResult per case, in order, each equal to what run gives
    for that case alone.  The step counts are checked, as advance checks
    them, before any case is initialized, and the cases are initialized in
    order, so a bad case raises before any later one is looked at.
    """
    n_steps, snap_every = _check_counts(n_steps, snap_every)
    if not cases:
        return []
    f0 = np.stack([init_state(profile, grid, p) for profile, p in cases])
    out = advance(f0, np.stack([build_relaxation_matrix(p) for _, p in cases]), n_steps, snap_every)
    rho0 = density(f0)
    exact = np.stack([exact_density(profile, grid, p, n_steps) for profile, p in cases])
    with np.errstate(invalid="ignore"):   # inf - inf is NaN, silently, as for floats
        overshoot = np.maximum(out.max_rho - rho0.max(axis=1), 0.0)   # NaN stays NaN
        undershoot = np.maximum(rho0.min(axis=1) - out.min_rho, 0.0)
    l1_error = np.sum(np.abs(density(out.f) - exact), axis=1) * grid.dx
    rows = np.column_stack((out.min_f, out.min_rho, out.max_rho, out.mass_drift, l1_error,
                            overshoot, undershoot)).tolist()   # RunDiagnostics' field order
    return [RunResult(RunDiagnostics(*row), out.f[b], out.snap_steps, out.snapshots[:, b])
            for b, row in enumerate(rows)]


def run(profile: InitialProfile, grid: Grid1D, p: SchemeParameters, n_steps: int,
        snap_every: int = 0) -> RunResult:
    """Advance relax-then-stream n_steps times, collecting diagnostics.

    The batch-of-one case of run_batch.  snap_every > 0 records the state
    every that many steps (step 0 and the final step included).
    """
    return run_batch([(profile, p)], grid, n_steps, snap_every)[0]


def write_diagnostics_csv(diag: RunDiagnostics, out) -> None:
    """Single-row CSV with 17 significant digits; out is a text-mode file object or a path."""
    _write_lines(out, (DIAGNOSTICS_CSV_HEADER + "\n", diag.as_csv_row() + "\n"))


def write_snapshots_csv(result: RunResult, out) -> None:
    """Long-format CSV of result's snapshots, one row per (step, cell), 17 digits.

    x is the cell's position on Grid1D(n_cells), n_cells being the snapshots'
    own cell count.  Each row is one '%' of a line format after a prebuilt
    "cell,x," prefix; out is a text-mode file object or a path.
    """
    x = Grid1D(result.snapshots.shape[1]).positions()
    cell_x = list(map("%d,%.17g,".__mod__, enumerate(x.tolist())))
    steps = ("".join(map(f"{step},%s%.17g,%.17g,%.17g,%.17g\n".__mod__,
                         zip(cell_x, *f.T.tolist(), density(f).tolist())))
             for step, f in zip(result.snap_steps, result.snapshots))
    _write_lines(out, itertools.chain((SNAPSHOT_CSV_HEADER + "\n",), steps))
