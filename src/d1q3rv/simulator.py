"""Linear advection runs of the scheme on a periodic 1D lattice.

A step is collide-then-stream: every cell's distribution triple is
multiplied by the relaxation operator, then the left- and right-moving
components shift one cell (periodically).  Runs record non-negativity,
conservation, extrema, and the L1 distance to the exactly advected
profile, which is what exhibits (or rules out) spurious oscillations.

Every run goes through advance, one kernel over a batch of states; run is
its batch-of-one case.  relax and stream are the one-step reference it is
tested against.
"""

from __future__ import annotations

import warnings
import numpy as np
from dataclasses import dataclass

from .scheme import (SchemeParameters, build_relaxation_matrix,
                     equilibrium_distributions, equilibrium_weights)

SMOOTH = "smooth"
HAT = "hat"
STEP = "step"
CUSTOM = "custom"
PROFILE_KINDS = (SMOOTH, HAT, STEP, CUSTOM)


@dataclass(frozen=True)
class Grid1D:
    """Periodic lattice: n_cells cells of width dx, time step dx/lam."""

    n_cells: int
    dx: float
    lam: float = 1.0

    def __post_init__(self):
        if self.n_cells <= 0:
            raise ValueError(f"n_cells must be positive, got {self.n_cells}")
        if not self.dx > 0 or not self.lam > 0:
            raise ValueError(f"dx and lam must be positive, got dx={self.dx}, lam={self.lam}")

    @property
    def dt(self) -> float:
        return self.dx / self.lam

    @property
    def length(self) -> float:
        return self.n_cells * self.dx

    def positions(self) -> np.ndarray:
        return self.dx * np.arange(self.n_cells)


def default_grid(n_cells: int = 200, lam: float = 1.0) -> Grid1D:
    """Unit-length periodic grid."""
    if n_cells <= 0:
        raise ValueError(f"n_cells must be positive, got {n_cells}")
    return Grid1D(n_cells=n_cells, dx=1.0 / n_cells, lam=lam)


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

    def sample(self, grid: Grid1D) -> np.ndarray:
        if self.kind == CUSTOM and len(np.asarray(self.values)) != grid.n_cells:
            raise ValueError(f"custom profile has {len(self.values)} values for {grid.n_cells} cells")
        return self.sample_at(grid.positions(), grid.length)


@dataclass(frozen=True)
class LatticeState:
    """Distribution triples per cell, shape (n_cells, 3), plus the time index."""

    f: np.ndarray
    step_count: int = 0

    def density(self) -> np.ndarray:
        return self.f.sum(axis=1)

    def mass(self) -> float:
        return float(self.f.sum())


def init_state(profile: InitialProfile, grid: Grid1D, p: SchemeParameters) -> LatticeState:
    """Equilibrium initialization from the sampled density.

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
    return LatticeState(f=equilibrium_distributions(rho0, p), step_count=0)


def relax(state: LatticeState, p: SchemeParameters, matrix: np.ndarray = None) -> LatticeState:
    """Collision: multiply every cell's triple by R (precomputable via matrix).

    One step of the reference that advance is tested against.
    """
    R = build_relaxation_matrix(p) if matrix is None else matrix
    return LatticeState(f=state.f @ R.T, step_count=state.step_count)


def stream(state: LatticeState) -> LatticeState:
    """Transport: left movers shift one cell down, right movers one cell up.

    A pure permutation, so mass and the multiset of values are exactly
    preserved.  One step of the reference that advance is tested against.
    """
    f = state.f.copy()
    f[:, 0] = np.roll(f[:, 0], -1)
    f[:, 2] = np.roll(f[:, 2], 1)
    return LatticeState(f=f, step_count=state.step_count)


@dataclass(frozen=True)
class RunDiagnostics:
    """Scalars accumulated over a run.

    advance reduces them once per block of up to 32 steps, a block it keeps
    under about 1 MiB (or at one step when a single state is larger), so a
    run's memory is that block and does not grow with its number of steps.

    mass_drift is the largest relative mass change seen at any step;
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
        vals = (self.min_f_over_run, self.min_rho, self.max_rho, self.mass_drift,
                self.l1_error, self.overshoot, self.undershoot)
        return ",".join(format(v, ".17g") for v in vals)


DIAGNOSTICS_CSV_HEADER = ("min_f_over_run,min_rho,max_rho,mass_drift,"
                          "l1_error,overshoot,undershoot")
SNAPSHOT_CSV_HEADER = "step,cell,x,f1,f2,f3,rho"


@dataclass(frozen=True)
class RunResult:
    diagnostics: RunDiagnostics
    final_state: LatticeState
    snapshots: list


def exact_density(profile: InitialProfile, grid: Grid1D, p: SchemeParameters,
                  n_steps: int) -> np.ndarray:
    """Advected initial profile at time n_steps * dt.

    The displacement is V * n_steps cells; when that is an integer the
    reference is the rolled initial samples (avoids re-sampling noise at
    profile discontinuities), otherwise the profile is re-sampled at the
    shifted positions.
    """
    shift_cells = p.V * n_steps
    rho0 = profile.sample(grid)
    nearest = round(shift_cells)
    if abs(shift_cells - nearest) < 1e-9:
        return np.roll(rho0, nearest % grid.n_cells)
    x = grid.positions() - shift_cells * grid.dx
    return profile.sample_at(np.mod(x, grid.length), grid.length)


def _stream_permutation(n_cells: int) -> np.ndarray:
    """Flat source index of every (cell, component) of a streamed state."""
    cell = np.arange(n_cells)
    src = np.stack([(cell + 1) % n_cells, cell, (cell - 1) % n_cells], axis=1)
    return (3 * src + np.arange(3)).ravel()


def _block_steps(batch: int, n_cells: int) -> int:
    """Steps per history block: 32, fewer where the block would pass ~1 MiB."""
    return min(32, max(1, 2**20 // max(1, batch * n_cells * 24)))


def _step_stats(states: np.ndarray):
    """Per-step min f, min and max density, and mass of states (k, B, n, 3).

    Density is summed component by component and mass over each state's
    cell-major values, so both round exactly as LatticeState's do.
    """
    rho = states[..., 0] + states[..., 1] + states[..., 2]
    return (states.min(axis=(2, 3)), rho.min(axis=2), rho.max(axis=2),
            states.sum(axis=(2, 3)))


def _fold(running: np.ndarray, steps: np.ndarray, reduce, better) -> None:
    """Fold the rows of steps (k, B) into running (B,) in place, as Python's
    running = min(running, x) (or max) over the rows would.

    reduce/better are fmin/less for a minimum and fmax/greater for a
    maximum.  As in Python, a NaN step never replaces a number, a NaN start
    is never replaced, and of equal values (0.0 and -0.0) the first is kept.
    """
    best = reduce.reduce(steps, axis=0)
    first = steps[(steps == best).argmax(axis=0), np.arange(steps.shape[1])]
    np.copyto(running, first, where=better(first, running))


@dataclass(frozen=True)
class BatchRun:
    """What advance returns for B runs of n_cells cells.

    f holds the final states, shape (B, n_cells, 3).  min_f, min_rho,
    max_rho and mass_drift, each of shape (B,), are taken over steps 0 to
    n_steps.  snapshots[j] holds the states at step snap_steps[j].
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
    relaxation matrix.  A step is one matmul with R^T and one gather through
    the precomputed stream permutation into a preallocated block of states;
    the diagnostics are reduced once per block.  The block holds at most 32
    steps and about 1 MiB, so memory stays O(B * n_cells).  Every output is
    bitwise equal to stream(relax(...)) applied step by step, and a run's
    result does not depend on the rest of its batch.

    snap_every > 0 records the states every that many steps (step 0 and the
    final step included).
    """
    f0 = np.asarray(f0, dtype=float)
    R = np.asarray(R, dtype=float)
    if f0.ndim != 3 or f0.shape[2] != 3 or R.shape != (len(f0), 3, 3):
        raise ValueError(f"expected f0 of shape (B, n_cells, 3) and R of shape (B, 3, 3), "
                         f"got {f0.shape} and {R.shape}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    batch, n_cells, _ = f0.shape
    block = _block_steps(batch, n_cells)
    hist = np.empty((block + 1, batch, n_cells, 3))
    flat = hist.reshape(block + 1, batch, 3 * n_cells)
    tmp = np.empty((batch, n_cells, 3))
    RT = R.transpose(0, 2, 1)
    perm = _stream_permutation(n_cells)
    snap_steps = (tuple(sorted(set(range(0, n_steps + 1, snap_every)) | {n_steps}))
                  if snap_every > 0 else ())
    snapshots = np.empty((len(snap_steps), batch, n_cells, 3))
    if snap_steps:
        snapshots[0] = f0
    hist[0] = f0
    min_f, min_rho, max_rho, mass0 = (v[0] for v in _step_stats(hist[:1]))
    drift = np.zeros(batch)
    scale = np.where(mass0 != 0, np.abs(mass0), 1.0)   # drift is |mass| when mass0 == 0
    done, snapped = 0, 1
    while done < n_steps:
        k = min(block, n_steps - done)
        for i in range(k):
            np.matmul(hist[i], RT, out=tmp)
            np.take(tmp.reshape(batch, -1), perm, axis=1, out=flat[i + 1], mode="clip")
        step_min_f, step_min_rho, step_max_rho, mass = _step_stats(hist[1:k + 1])
        _fold(min_f, step_min_f, np.fmin, np.less)
        _fold(min_rho, step_min_rho, np.fmin, np.less)
        _fold(max_rho, step_max_rho, np.fmax, np.greater)
        _fold(drift, np.abs(mass - mass0) / scale, np.fmax, np.greater)
        while snapped < len(snap_steps) and snap_steps[snapped] <= done + k:
            snapshots[snapped] = hist[snap_steps[snapped] - done]
            snapped += 1
        hist[0] = hist[k]
        done += k
    return BatchRun(f=hist[0].copy(), min_f=min_f, min_rho=min_rho, max_rho=max_rho,
                    mass_drift=drift, snap_steps=snap_steps, snapshots=snapshots)


def run_batch(cases, grid: Grid1D, n_steps: int, snap_every: int = 0) -> list:
    """Run every (profile, params) pair of cases on grid with one advance call.

    Returns one RunResult per case, in order, each equal to what run gives
    for that case alone.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    for _, p in cases:
        if grid.lam != p.lam:
            raise ValueError(f"grid and scheme disagree on the lattice velocity: "
                             f"{grid.lam} vs {p.lam}")
    states = [init_state(profile, grid, p) for profile, p in cases]
    out = advance(np.stack([st.f for st in states]),
                  np.stack([build_relaxation_matrix(p) for _, p in cases]),
                  n_steps, snap_every)
    results = []
    for b, ((profile, p), state0) in enumerate(zip(cases, states)):
        rho0 = state0.density()
        min_rho0, max_rho0 = float(rho0.min()), float(rho0.max())
        min_rho, max_rho = float(out.min_rho[b]), float(out.max_rho[b])
        final = LatticeState(f=out.f[b], step_count=n_steps)
        rho_exact = exact_density(profile, grid, p, n_steps)
        diag = RunDiagnostics(
            min_f_over_run=float(out.min_f[b]),
            min_rho=min_rho,
            max_rho=max_rho,
            mass_drift=float(out.mass_drift[b]),
            l1_error=float(np.sum(np.abs(final.density() - rho_exact)) * grid.dx),
            overshoot=max(0.0, max_rho - max_rho0),
            undershoot=max(0.0, min_rho0 - min_rho),
        )
        snapshots = [LatticeState(f=out.snapshots[j, b], step_count=step)
                     for j, step in enumerate(out.snap_steps)]
        results.append(RunResult(diagnostics=diag, final_state=final, snapshots=snapshots))
    return results


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


def write_snapshots_csv(snapshots, grid: Grid1D, out) -> None:
    """Long-format CSV, one row per (snapshot step, cell)."""
    if not hasattr(out, "write"):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            write_snapshots_csv(snapshots, grid, fh)
        return
    cell_x = (np.arange(grid.n_cells).astype(str).astype(object) + ","
              + np.char.mod("%.17g", grid.positions()).astype(object) + ",")
    out.write(SNAPSHOT_CSV_HEADER + "\n")
    for st in snapshots:
        values = np.column_stack([st.f, st.density()])
        f1, f2, f3, rho = np.char.mod("%.17g", values).astype(object).T
        lines = f"{st.step_count}," + cell_x + f1 + "," + f2 + "," + f3 + "," + rho + "\n"
        out.write("".join(lines))
