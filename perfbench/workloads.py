"""The three benchmark workloads: seeded inputs, one timed pass, output checks.

Each workload is a ``prepare(seed, small, workdir)`` that builds the inputs
(counted in set-up time), a ``run(inputs, clock)`` that makes one pass through
the public API, timing every call through ``clock`` (a ``hostspeed.Clock``),
and returns its outputs, and a ``check(inputs, outputs)`` that returns
``(attempted, failed, digest)``.
``digest`` hashes the outputs, so a traced and an untraced pass of the same
seed can be compared.  ``small`` shrinks the work for the harness self-test.

All calls go through module attributes (``simulator.run``, ``cli.main``, ...)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

from d1q3rv import cli, regionscan, scheme, simulator, stability

GUARD = stability.GUARD_BAND
HERE = Path(__file__).resolve().parent


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli(argv):
    """Run the command line in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- sweep: criterion-8 advection runs, then `d1q3rv reproduce` -------------

# Undershoots of the step-profile runs of the two rows labelled unstable,
# frozen in tests/test_acceptance.py (200 cells, 1000 steps).
FROZEN_STEP_UNDERSHOOT = {2: 9.714906e-02, 3: 7.024962e-02}


def sweep_prepare(seed, small, workdir):
    n_ops, n_steps = (4, 100) if small else (100, 1000)
    rng = np.random.default_rng(seed)
    params = []
    while len(params) < n_ops:
        V = rng.uniform(0.0, 1.0, 2000)
        u = rng.uniform(-1.0, 1.0, 2000)
        s = rng.uniform(0.0, 2.0, 2000)
        sp = rng.uniform(0.0, 2.0, 2000)
        alpha = rng.uniform(-2.0, 1.0, 2000)
        entries = stability.relaxation_entries_closed_form(V, u, s, sp, alpha)
        ok = np.nonzero(entries.reshape(2000, 9).min(axis=1) >= 1e-3)[0]
        params += [scheme.SchemeParameters(V=V[k], u=u[k], s=s[k], s_prime=sp[k], alpha=alpha[k])
                   for k in ok]
    return {"params": params[:n_ops], "n_steps": n_steps,
            "profile": simulator.InitialProfile(kind=simulator.STEP),
            "grid": simulator.default_grid(200)}


def sweep_run(inp, clock):
    diags = [clock.time("op", simulator.run, inp["profile"], inp["grid"], p,
                        inp["n_steps"]).diagnostics for p in inp["params"]]
    return {"diags": diags, "reproduce": clock.time("other", _cli, ["reproduce"])}


def _reproduce_ok(code, text) -> bool:
    results = re.findall(r"RESULT (\w+)\s*: undershoot=(\S+)", text)
    if code != 0 or len(results) != 12:
        return False
    if not re.search(r"DISCREPANCY.*R\[0,0\] = -0\.15", text):
        return False
    for row, frozen in FROZEN_STEP_UNDERSHOOT.items():
        kind, undershoot = results[3 * row + 2]
        if kind != "step" or abs(float(undershoot) - frozen) > 1e-5 * frozen:
            return False
    return True


def sweep_check(inp, out):
    failed = sum(not (d.min_f_over_run >= -1e-14 and d.mass_drift <= 1e-12
                      and d.undershoot <= 1e-12) for d in out["diags"])
    code, text = out["reproduce"]
    failed += not _reproduce_ok(code, text)
    rows = "\n".join(d.as_csv_row() for d in out["diags"])
    return len(out["diags"]) + 1, failed, _sha((rows + text).encode())


# --- region: `d1q3rv region --V 2/3` with CSV and SVG, then parse_csv -------

REGION_V = "2/3"
SPOT_CELLS = 300


def region_prepare(seed, small, workdir):
    points = 41 if small else 221
    rng = np.random.default_rng(seed)
    n_u = len(regionscan.default_u_list(float(Fraction(REGION_V))))
    digests = json.loads((HERE / "region_digests.json").read_text())[str(points)]
    return {
        "argv": ["region", "--V", REGION_V, "--grid", str(points),
                 "--out-csv", str(workdir / "region.csv"), "--out-svg", str(workdir / "region.svg")],
        "csv": [workdir / f"region_u{i}.csv" for i in range(n_u)],
        "svg": [workdir / f"region_u{i}.svg" for i in range(n_u)],
        "points": points,
        "spots": rng.integers(0, points, size=(n_u, SPOT_CELLS, 2)),
        "digests": digests,
    }


def region_run(inp, clock):
    code, text = clock.time("other", _cli, inp["argv"])
    grids = [clock.time("op", regionscan.parse_csv, path) for path in inp["csv"]]
    return {"code": code, "stdout": text, "grids": grids}


def _same_grid(a, b) -> bool:
    return (a.V == b.V and a.u == b.u
            and np.array_equal(a.s_values, b.s_values)
            and np.array_equal(a.s_prime_values, b.s_prime_values)
            and np.array_equal(a.codes, b.codes)
            and np.array_equal(a.gamma_lower, b.gamma_lower, equal_nan=True)
            and np.array_equal(a.gamma_upper, b.gamma_upper, equal_nan=True))


def _spots_ok(grid, spots) -> bool:
    """Seeded cells outside the guard band agree with stability.alpha_feasible."""
    feasible = ~np.isnan(grid.gamma_lower)
    for i, j in spots:
        s, sp = float(grid.s_values[i]), float(grid.s_prime_values[j])
        lower, upper = stability.chain_bounds(grid.V, grid.u, s, sp)
        lo, hi = float(lower) / 2, float(upper) / 2
        if abs(hi - lo) < GUARD:
            continue
        if sp == 0.0:
            pinned = stability.pinned_gamma(grid.V, grid.u, s)
            if min(abs(pinned - lo), abs(pinned - hi)) < GUARD:
                continue
        if bool(feasible[i, j]) != stability.alpha_feasible(grid.V, grid.u, s, sp):
            return False
    return True


def _u_zero_ok(grid) -> bool:
    """The u = 0 grid agrees with the explicit region outside the guard band."""
    S, SP = np.meshgrid(grid.s_values, grid.s_prime_values, indexing="ij")
    explicit = stability.u_zero_slacks(grid.V, S, SP).min(axis=-1)
    lower, upper = stability.chain_bounds(grid.V, 0.0, S, SP)
    keep = (np.abs(explicit) >= GUARD) & (np.abs(upper - lower) / 2 >= GUARD)
    feasible = ~np.isnan(grid.gamma_lower)
    return np.array_equal(feasible[keep], (explicit >= -stability.TAU_STAB)[keep])


def region_check(inp, out):
    n = inp["points"]
    direct = regionscan.scan(regionscan.ScanSpec(V=float(Fraction(REGION_V)),
                                                 s_points=n, s_prime_points=n))
    failed = int(out["code"] != 0 or len(out["stdout"].splitlines()) != len(direct))
    files = []
    for k, (parsed, ref) in enumerate(zip(out["grids"], direct)):
        csv, svg = inp["csv"][k].read_bytes(), inp["svg"][k].read_bytes()
        files += [_sha(csv), _sha(svg)]
        ok = (_same_grid(parsed, ref)
              and files[-2] == inp["digests"]["csv"][k] and files[-1] == inp["digests"]["svg"][k]
              and _spots_ok(parsed, inp["spots"][k])
              and (ref.u != 0.0 or _u_zero_ok(parsed)))
        failed += not ok
    return 1 + len(direct), failed, _sha((out["stdout"] + "".join(files)).encode())


# --- verdicts: scalar tuple checks, then one batched pass --------------------


def _tuples(rng, n):
    return (rng.uniform(-1.5, 1.5, n), rng.uniform(-1.0, 1.0, n), rng.uniform(-0.5, 2.5, n),
            rng.uniform(-0.5, 2.5, n), rng.uniform(-2.0, 2.0, n))


def verdicts_prepare(seed, small, workdir):
    n_scalar, n_batch = (200, 5000) if small else (3000, 100_000)
    rng = np.random.default_rng(seed)
    scalar = [scheme.SchemeParameters(*map(float, t)) for t in zip(*_tuples(rng, n_scalar))]
    batch = _tuples(rng, n_batch) + (rng.choice([0.5, 1.0, 3.0], n_batch),)
    return {"scalar": scalar, "batch": batch}


def _scalar_tuple(p):
    return (stability.nine_inequalities(p), stability.reduced_condition(p),
            stability.matrix_entry_verdict(p),
            stability.gamma_feasible_interval(p.V, p.u, p.s, p.s_prime),
            stability.alpha_interval(p.V, p.u, p.s, p.s_prime))


def _batched(V, u, s, sp, alpha, lam):
    return (scheme.relaxation_matrices(V, u, s, sp, alpha, lam),
            stability.relaxation_entries_closed_form(V, u, s, sp, alpha),
            stability.chain_bounds(V, u, s, sp))


def verdicts_run(inp, clock):
    scalar = [clock.time("op", _scalar_tuple, p) for p in inp["scalar"]]
    R, closed, bounds = clock.time("other", _batched, *inp["batch"])
    return {"scalar": scalar, "R": R, "closed": closed, "bounds": bounds}


def _scalar_ok(p, nine, reduced, entries, iv, alpha_iv) -> bool:
    if iv.empty != (alpha_iv is None):
        return False
    if min(map(abs, nine.slacks)) < GUARD or min(map(abs, reduced.slacks)) < GUARD:
        return True
    in_interval = alpha_iv is not None and alpha_iv[0] <= p.alpha <= alpha_iv[1]
    return nine.stable == reduced.stable == entries.stable == in_interval


def verdicts_check(inp, out):
    failed = sum(not _scalar_ok(p, *r) for p, r in zip(inp["scalar"], out["scalar"]))
    V, u, s, sp, alpha, lam = inp["batch"]
    R, closed = out["R"], out["closed"]
    lower, upper = out["bounds"]
    two_gamma = 2 * ((sp / 6) * (1 - alpha) - u * (s - sp) * V)
    nine_min = closed.reshape(-1, 9).min(axis=1)
    keep = ((np.abs(closed).reshape(-1, 9).min(axis=1) >= GUARD)
            & (np.abs(two_gamma - lower) >= GUARD) & (np.abs(upper - two_gamma) >= GUARD))
    tol = stability.TAU_STAB
    chain_ok = (two_gamma >= lower - tol) & (two_gamma <= upper + tol)
    ok = ((np.abs(R - closed).reshape(-1, 9).max(axis=1) <= scheme.TAU_MAT)
          & (np.abs(R.sum(axis=-2) - 1.0).max(axis=1) <= scheme.TAU_MAT)
          & (~keep | ((nine_min >= -tol) == chain_ok)))
    failed += int((~ok).sum())
    digest = hashlib.sha256()
    for r in out["scalar"]:
        digest.update(repr((r[0].slacks, r[1].slacks, r[2].slacks, r[3], r[4])).encode())
    for a in (R, closed, lower, upper):
        digest.update(a.tobytes())
    return len(inp["scalar"]) + len(V), failed, digest.hexdigest()


WORKLOADS = {
    "sweep": (sweep_prepare, sweep_run, sweep_check),
    "region": (region_prepare, region_run, region_check),
    "verdicts": (verdicts_prepare, verdicts_run, verdicts_check),
}
