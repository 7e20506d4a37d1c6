"""Reference definitions the package is tested against, kept out of its API.

moments evaluates the moment definitions term by term; relax and stream,
on (n_cells, 3) states, make up the step-by-step loop reference_advance that
simulator.advance replaces.
"""

import numpy as np

from d1q3rv.simulator import density


def moments(F, p) -> np.ndarray:
    """(rho, q, eps) of a distribution triple F at the velocities (-1, 0, 1) lam:
    rho = sum f_j, q = lam sum (c_j - u) f_j, eps = 3 lam^2 sum (c_j - u)^2 f_j
    - 2 lam^2 sum f_j."""
    f = np.asarray(F, float)
    c = np.array([-1.0, 0.0, 1.0]) - p.u
    return np.array([f.sum(), p.lam * (c * f).sum(),
                     3.0 * p.lam**2 * (c**2 * f).sum() - 2.0 * p.lam**2 * f.sum()])


def relax(f: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Collision: multiply every cell's triple of f (n_cells, 3) by R."""
    return f @ R.T


def stream(f: np.ndarray) -> np.ndarray:
    """Transport: left movers shift one cell down, right movers one cell up.

    A permutation: it keeps the multiset of values, and mass up to rounding.
    """
    f = f.copy()
    f[:, 0] = np.roll(f[:, 0], -1)
    f[:, 2] = np.roll(f[:, 2], 1)
    return f


def reference_advance(f0, R, n_steps, snap_every=0):
    """The step-by-step loop advance replaces: stream(relax(...)) per step,
    diagnostics folded with Python's min/max, every zero extremum taken as
    +0.0, and the drift starting at NaN when the initial mass is not finite."""
    f = f0
    rho = density(f)
    min_f, min_rho, max_rho = float(f.min()), float(rho.min()), float(rho.max())
    mass0 = float(rho.sum())
    drift = 0.0 if np.isfinite(mass0) else np.nan
    snapshots = [(0, f)] if snap_every > 0 else []
    for step in range(1, n_steps + 1):
        f = stream(relax(f, R))
        rho = density(f)
        mass = float(rho.sum())
        min_f = min(min_f, float(f.min()))
        min_rho = min(min_rho, float(rho.min()))
        max_rho = max(max_rho, float(rho.max()))
        drift = max(drift, abs(mass - mass0) / abs(mass0) if mass0 else abs(mass))
        if snap_every > 0 and (step % snap_every == 0 or step == n_steps):
            snapshots.append((step, f))
    return f, (min_f + 0.0, min_rho + 0.0, max_rho + 0.0, drift), snapshots
