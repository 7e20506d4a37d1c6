"""Linear advection runs of the scheme on a periodic 1D lattice.

A step is collide-then-stream: every cell's distribution triple is
multiplied by the relaxation operator, then the left- and right-moving
components shift one cell (periodically).  Runs record non-negativity,
conservation, extrema, and the L1 distance to the exactly advected
profile, which is what exhibits (or rules out) spurious oscillations.

A state is a plain (n_cells, 3) array of distribution triples, and density
is the one definition of a cell's density.  Every run goes through advance,
one kernel over a batch of states; run_batch builds each run's record from
advance's arrays, and run is its batch-of-one case.  relax and stream, on
(n_cells, 3) arrays, are the one-step reference advance is tested against.
"""

from __future__ import annotations

import warnings
import numpy as np
from dataclasses import astuple, dataclass, fields

from .scheme import (WORKING_SET_BYTES, SchemeParameters, _integer, build_relaxation_matrix,
                     equilibrium_distributions, equilibrium_weights)

SMOOTH = "smooth"
HAT = "hat"
STEP = "step"
CUSTOM = "custom"
PROFILE_KINDS = (SMOOTH, HAT, STEP, CUSTOM)


@dataclass(frozen=True)
class Grid1D:
    """Periodic lattice of n_cells cells (a positive integer) of width
    dx = 1 / n_cells; its length is n_cells * dx, which need not round to
    exactly 1.0."""

    n_cells: int

    def __post_init__(self):
        if _integer(self.n_cells, "n_cells") <= 0:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")

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
    width default to L/4 and L/10.  Distances wrap periodically.
    """

    kind: str = STEP
    center: float = None
    width: float = None
    low: float = 0.0
    high: float = 1.0
    values: np.ndarray = None

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}")
        if self.kind == CUSTOM and self.values is None:
            raise ValueError("custom profiles need explicit density values")
        if self.width is not None and not self.width > 0:
            raise ValueError(f"profile width must be positive, got {self.width}")

    def sample_at(self, x, length: float) -> np.ndarray:
        """Density at positions x on a periodic domain of the given length."""
        x = np.asarray(x, float)
        if self.kind == CUSTOM:
            vals = np.asarray(self.values, float)
            grid_x = length * np.arange(len(vals)) / len(vals)
            return np.interp(np.mod(x, length), grid_x, vals, period=length)
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
        if self.kind == CUSTOM and len(np.asarray(self.values)) != grid.n_cells:
            raise ValueError(f"custom profile has {len(self.values)} values for {grid.n_cells} cells")

    def sample(self, grid: Grid1D) -> np.ndarray:
        self._check_fits(grid)
        return self.sample_at(grid.positions(), grid.length)


def density(f) -> np.ndarray:
    """Cell densities f1 + f2 + f3 of states f (..., 3), added in that order.

    A run's mass is density(f).sum(), so it rounds the same in any layout.
    """
    return f[..., 0] + f[..., 1] + f[..., 2]


def init_state(profile: InitialProfile, grid: Grid1D, p: SchemeParameters) -> np.ndarray:
    """Equilibrium state (n_cells, 3) of the sampled density.

    Rejects profiles with negative density; warns when the equilibrium
    weights themselves are negative for (V, alpha), since then even a
    non-negative density gives negative distribution values.
    """
    rho0 = profile.sample(grid)
    if rho0.min() < 0:
        raise ValueError(f"initial density must be non-negative, min is {rho0.min():g}")
    if equilibrium_weights(p).min() < 0:
        warnings.warn(
            f"equilibrium weights are negative for V={p.V}, alpha={p.alpha}; "
            "initial distributions will not all be non-negative",
            stacklevel=2,
        )
    return equilibrium_distributions(rho0, p)


def relax(f: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Collision: multiply every cell's triple of f (n_cells, 3) by R.

    One step of the reference that advance is tested against.
    """
    return f @ R.T


def stream(f: np.ndarray) -> np.ndarray:
    """Transport: left movers shift one cell down, right movers one cell up.

    A permutation: it keeps the multiset of values, and mass up to rounding.
    One step of the reference that advance is tested against.
    """
    f = f.copy()
    f[:, 0] = np.roll(f[:, 0], -1)
    f[:, 2] = np.roll(f[:, 2], 1)
    return f


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
    reference is the rolled initial samples (avoids re-sampling noise at
    profile discontinuities), otherwise the profile is re-sampled at the
    shifted positions.  A non-finite displacement gives an all-NaN reference.
    """
    profile._check_fits(grid)
    shift_cells = float(p.V) * n_steps
    if not np.isfinite(shift_cells):
        return np.full(grid.n_cells, np.nan)
    nearest = round(shift_cells)
    if abs(shift_cells - nearest) < 1e-9:
        return np.roll(profile.sample(grid), nearest % grid.n_cells)
    x = grid.positions() - shift_cells * grid.dx
    return profile.sample_at(np.mod(x, grid.length), grid.length)


def _check_counts(n_steps, snap_every) -> None:
    """A ValueError naming n_steps or snap_every unless it is an integer >= 0."""
    for value, name in ((n_steps, "n_steps"), (snap_every, "snap_every")):
        if _integer(value, name) < 0:
            raise ValueError(f"{name} must be >= 0, got {value}")


def _block_steps(batch: int, n_cells: int) -> int:
    """Steps per history block: 64, fewer where a block's float64 arrays would
    pass WORKING_SET_BYTES (1 MiB), and 1 where even a one-step block is larger.

    They are the history (k+1, B, 3, n_cells + 2(k+1)) with k spare values,
    the (k, B, n_cells) densities and the (4, k, B) per-step statistics that
    _step_stats writes.
    """
    k = 64
    while k > 1 and (8 * batch * (3 * (k + 1) * (n_cells + 2 * k + 2) + k * n_cells + 4 * k)
                     + 8 * k > WORKING_SET_BYTES):
        k -= 1
    return k


def _step_stats(states: np.ndarray, rho: np.ndarray, out: np.ndarray) -> None:
    """Per-step min f, and min, sum and max of the density, of states (k, B, 3, n).

    Writes the densities into rho (k, B, n), added (f1 + f2) + f3 as density()
    adds them, and the four statistics, in that order, into out (4, k, B); the
    sums are bitwise those of density(f).sum().  The sign of a zero extremum
    depends on the traversal order, so advance makes it +0.0.
    """
    np.add.reduce(states, axis=2, out=rho)
    np.minimum.reduce(states, axis=(2, 3), out=out[0])
    np.minimum.reduce(rho, axis=2, out=out[1])
    np.add.reduce(rho, axis=2, out=out[2])
    np.maximum.reduce(rho, axis=2, out=out[3])


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
    each side.  Once per block the ghost cells are refilled from the
    interior of the last slot; the diagnostics and snapshots are read from
    the slots' interiors, in no second layout.  _block_steps sets k: at most
    64 steps and about 1 MiB of block arrays, so memory stays O(B * n_cells).

    Once per block, _step_stats writes every step's min f and density min,
    sum and max into buffers allocated once per call; one np.fmin folds the
    minima and the least mass, and one np.fmax the greatest mass and max rho,
    so NaN steps are skipped and a NaN start is kept.  A zero min_f, min_rho
    or max_rho is +0.0.  The mass drift is formed once, at the end, from the
    least and the greatest mass; it is NaN where the initial mass is not
    finite.

    The states and snapshots are bitwise equal to stream(relax(...)) applied
    step by step, and the diagnostics to a fold of its steps' values with
    Python's min and max, with every zero extremum +0.0.  There are two
    exceptions.  Where a product underflows below half the smallest
    subnormal, a zero may have the other sign than the reference's (the
    values are equal as numbers).
    With n_cells = 1, relax multiplies a one-row state through a
    matrix-vector product, which rounds otherwise; advance then equals the
    reference run on two equal cells.  A run's result does not depend on
    the rest of its batch.

    snap_every > 0 records the states every that many steps (step 0 and the
    final step included), and 0 records none.  n_steps and snap_every must
    be integers >= 0 (NumPy integers too); anything else is a ValueError.
    """
    f0 = np.ascontiguousarray(f0, dtype=float)
    R = np.asarray(R, dtype=float)
    if f0.ndim != 3 or f0.shape[2] != 3 or f0.shape[1] == 0 or R.shape != (len(f0), 3, 3):
        raise ValueError(f"expected f0 of shape (B, n_cells >= 1, 3) and R of shape (B, 3, 3), "
                         f"got {f0.shape} and {R.shape}")
    _check_counts(n_steps, snap_every)
    batch, n_cells, _ = f0.shape
    block = _block_steps(batch, n_cells)
    edge = block + 1
    width = n_cells + 2 * edge
    interior = slice(edge, edge + n_cells)
    slot = batch * 3 * width
    # shifted[j] starts at cell j of slot j+1; the unused tail of its rows
    # runs up to block - 1 values past the last slot, hence the spare values.
    buf = np.empty((block + 1) * slot + block)
    hist = buf[:(block + 1) * slot].reshape(block + 1, batch, 3, width)
    shifted = np.ndarray((block, batch, 3, width - 2), buffer=buf, offset=slot * buf.itemsize,
                         strides=np.multiply((slot + 1, 3 * width, width + 1, 1), buf.itemsize))
    ins = [hist[j, :, :, 1 + j:width - 1 - j] for j in range(block)]
    outs = [shifted[j, :, :, :width - 2 - 2 * j] for j in range(block)]
    wrap = edge + (np.arange(width) - edge) % n_cells
    snap_steps = (tuple(sorted(set(range(0, n_steps + 1, snap_every)) | {n_steps}))
                  if snap_every > 0 else ())
    snapshots = np.empty((len(snap_steps), batch, n_cells, 3))
    snapshots[:1] = f0   # step 0, when there are snapshots
    last = block
    hist[last, :, :, interior] = f0.transpose(0, 2, 1)
    rho = np.empty((block, batch, n_cells))
    stats = np.empty((4, block, batch))
    _step_stats(hist[last:, :, :, interior], rho[:1], stats[:, :1])
    mass0 = stats[2, 0].copy()
    start = np.where(np.isfinite(mass0), mass0, np.nan)   # no drift from a non-finite mass
    # min f, min rho and min mass fold with np.fmin, max mass and max rho with
    # np.fmax: NaN steps are skipped, and as neither makes a NaN, only a NaN
    # start stays NaN, so the masks are fixed.
    running = np.stack((stats[0, 0], stats[1, 0], start, start, stats[3, 0]))
    lows, highs = running[:3], running[3:]
    keep_lows, keep_highs = ~np.isnan(lows), ~np.isnan(highs)
    done, snapped = 0, 1
    while done < n_steps:
        k = min(block, n_steps - done)
        np.take(hist[last], wrap, axis=2, out=hist[0], mode="clip")
        for j in range(k):
            np.matmul(R, ins[j], out=outs[j])
        last = k
        step = stats[:, :k]
        _step_stats(hist[1:k + 1, :, :, interior], rho[:k], step)
        np.fmin(lows, np.fmin.reduce(step[:3], axis=1), out=lows, where=keep_lows)
        np.fmax(highs, np.fmax.reduce(step[2:], axis=1), out=highs, where=keep_highs)
        while snapped < len(snap_steps) and snap_steps[snapped] <= done + k:
            snapshots[snapped] = hist[snap_steps[snapped] - done, :, :, interior].transpose(0, 2, 1)
            snapped += 1
        done += k
    min_f, min_rho, low_mass, high_mass, max_rho = running
    # The largest |mass - mass0| of any step is that of the least or the
    # greatest mass, as rounding is monotone; drift is |mass| when mass0 == 0.
    scale = np.where(mass0 != 0, np.abs(mass0), 1.0)
    drift = np.maximum(np.abs(low_mass - mass0), np.abs(high_mass - mass0)) / scale
    return BatchRun(f=hist[last, :, :, interior].transpose(0, 2, 1).copy(), min_f=min_f + 0.0,
                    min_rho=min_rho + 0.0, max_rho=max_rho + 0.0, mass_drift=drift,
                    snap_steps=snap_steps, snapshots=snapshots)


def run_batch(cases, grid: Grid1D, n_steps: int, snap_every: int = 0) -> list:
    """Run every (profile, params) pair of cases on grid with one advance call.

    Returns one RunResult per case, in order, each equal to what run gives
    for that case alone.  The step counts are checked, as advance checks
    them, before any case is initialized.
    """
    _check_counts(n_steps, snap_every)
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
    columns = dict(min_f_over_run=out.min_f, min_rho=out.min_rho, max_rho=out.max_rho,
                   mass_drift=out.mass_drift, l1_error=l1_error, overshoot=overshoot,
                   undershoot=undershoot)
    return [RunResult(RunDiagnostics(**{name: float(col[b]) for name, col in columns.items()}),
                      out.f[b], out.snap_steps, out.snapshots[:, b]) for b in range(len(cases))]


def run(profile: InitialProfile, grid: Grid1D, p: SchemeParameters, n_steps: int,
        snap_every: int = 0) -> RunResult:
    """Advance relax-then-stream n_steps times, collecting diagnostics.

    The batch-of-one case of run_batch.  snap_every > 0 records the state
    every that many steps (step 0 and the final step included).
    """
    return run_batch([(profile, p)], grid, n_steps, snap_every)[0]


def write_diagnostics_csv(diag: RunDiagnostics, out) -> None:
    """Single-row CSV with 17 significant digits."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_diagnostics_csv(diag, fh)
        return
    out.write(DIAGNOSTICS_CSV_HEADER + "\n")
    out.write(diag.as_csv_row() + "\n")


def write_snapshots_csv(result: RunResult, grid: Grid1D, out) -> None:
    """Long-format CSV of result's snapshots, one row per (step, cell), 17 digits.

    Each row is one '%' of a line format after a prebuilt "cell,x," prefix.
    """
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_snapshots_csv(result, grid, fh)
        return
    cell_x = list(map("%d,%.17g,".__mod__, enumerate(grid.positions().tolist())))
    out.write(SNAPSHOT_CSV_HEADER + "\n")
    for step, f in zip(result.snap_steps, result.snapshots):
        line = f"{step},%s%.17g,%.17g,%.17g,%.17g\n"
        out.write("".join(map(line.__mod__, zip(cell_x, *f.T.tolist(), density(f).tolist()))))
