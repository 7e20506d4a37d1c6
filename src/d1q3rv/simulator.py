"""Linear advection runs of the scheme on a periodic 1D lattice.

A step is collide-then-stream: every cell's distribution triple is
multiplied by the relaxation operator, then the left- and right-moving
components shift one cell (periodically).  Runs record non-negativity,
conservation, extrema, and the L1 distance to the exactly advected
profile, which is what exhibits (or rules out) spurious oscillations.
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
    """Collision: multiply every cell's triple by R (precomputable via matrix)."""
    R = build_relaxation_matrix(p) if matrix is None else matrix
    return LatticeState(f=state.f @ R.T, step_count=state.step_count)


def stream(state: LatticeState) -> LatticeState:
    """Transport: left movers shift one cell down, right movers one cell up.

    A pure permutation, so mass and the multiset of values are exactly
    preserved.
    """
    f = state.f.copy()
    f[:, 0] = np.roll(f[:, 0], -1)
    f[:, 2] = np.roll(f[:, 2], 1)
    return LatticeState(f=f, step_count=state.step_count)


def unstream(state: LatticeState) -> LatticeState:
    """Exact inverse of stream."""
    f = state.f.copy()
    f[:, 0] = np.roll(f[:, 0], 1)
    f[:, 2] = np.roll(f[:, 2], -1)
    return LatticeState(f=f, step_count=state.step_count)


@dataclass(frozen=True)
class RunDiagnostics:
    """Scalars accumulated over a run (memory stays O(n_cells)).

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


def run(profile: InitialProfile, grid: Grid1D, p: SchemeParameters, n_steps: int,
        snap_every: int = 0) -> RunResult:
    """Advance relax-then-stream n_steps times, collecting diagnostics.

    snap_every > 0 records the state every that many steps (step 0 and the
    final step included).
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if grid.lam != p.lam:
        raise ValueError(f"grid and scheme disagree on the lattice velocity: {grid.lam} vs {p.lam}")
    state = init_state(profile, grid, p)
    R = build_relaxation_matrix(p)
    rho = state.density()
    min_f = float(state.f.min())
    min_rho0, max_rho0 = float(rho.min()), float(rho.max())
    min_rho, max_rho = min_rho0, max_rho0
    mass0 = state.mass()
    drift = 0.0
    snapshots = []

    def snap(st):
        snapshots.append(LatticeState(f=st.f.copy(), step_count=st.step_count))

    if snap_every > 0:
        snap(state)
    for step in range(1, n_steps + 1):
        state = stream(relax(state, p, R))
        state = LatticeState(f=state.f, step_count=step)
        min_f = min(min_f, float(state.f.min()))
        rho = state.density()
        min_rho = min(min_rho, float(rho.min()))
        max_rho = max(max_rho, float(rho.max()))
        drift = max(drift, abs(state.mass() - mass0) / abs(mass0) if mass0 else abs(state.mass()))
        if snap_every > 0 and (step % snap_every == 0 or step == n_steps):
            snap(state)

    rho_exact = exact_density(profile, grid, p, n_steps)
    l1 = float(np.sum(np.abs(state.density() - rho_exact)) * grid.dx)
    diag = RunDiagnostics(
        min_f_over_run=min_f,
        min_rho=min_rho,
        max_rho=max_rho,
        mass_drift=drift,
        l1_error=l1,
        overshoot=max(0.0, max_rho - max_rho0),
        undershoot=max(0.0, min_rho0 - min_rho),
    )
    return RunResult(diagnostics=diag, final_state=state, snapshots=snapshots)


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
