"""Command-line interface.

Subcommands: matrix (inspect the relaxation operator), check (stability
verdicts / feasible intervals), region (scan and plot (s, s') regions),
simulate (advection runs with diagnostics), reproduce (bundled benchmark
parameter sets).  Exit codes: 0 success or stable, 1 unstable/infeasible,
2 usage error, 3 output failure, 4 invalid input data or a request too large
for memory, all set by main.  Each flag's type carries its range rule, and
every usage error is one ``error:`` line.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import regionscan, simulator, stability
from .scheme import SchemeParameters, build_relaxation_matrix
from .simulator import InitialProfile, default_grid

# Undershoot beyond this times max(1, |low|, |high|) is flagged as oscillation.
OSCILLATION_FLAG_THRESHOLD = 1e-3

# Benchmark advection scenarios: label, V, u, s, s', alpha.  The first two
# are traditionally labelled stable, the last two unstable; the computed
# verdict is reported next to the label and disagreements are flagged.
BENCHMARK_ROWS = (
    ("left (stable)", "0.25", "0.0", "1.6", "1.3", "0.3076923076923076"),
    ("left (stable)", "0.25", "0.25", "1.6", "1.3", "-0.17548076923076938"),
    ("right (unstable)", "0.25", "0.0", "1.9", "1.4", "0.14285714285714302"),
    ("right (unstable)", "0.25", "0.25", "1.9", "1.4", "-0.10491071428571441"),
)


def parse_number(text: str) -> float:
    """Decimal or simple-fraction literal ('0.25', '2/3'), parsed exactly."""
    try:
        return float(Fraction(text))
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"out of floating-point range: {text!r}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a number or fraction: {text!r}") from exc


def parse_number_list(text: str) -> tuple:
    try:
        return tuple(parse_number(part) for part in text.split(",") if part.strip())
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}") from exc


def _checked(parse, ok, rule):
    """Flag type: parse, then reject values failing ok; named like parse for argparse."""
    def check(text):
        value = parse(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
        return value
    check.__name__ = parse.__name__
    return check


class _Parser(argparse.ArgumentParser):
    """Every usage error is one 'error: ...' line on stderr and exit 2.

    A word that starts with '-' and a digit, or with '-.' and a digit, is a
    value, as no option here looks like that: argparse's own rule takes only
    forms like -5 and -.5, and would read --u -1/4 or --alpha -1e-2 as a
    flag without its value.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _add_scheme_flags(parser, alpha_optional=False):
    parser.add_argument("--V", type=parse_number, required=True,
                        help="advection velocity (fractions like 2/3 accepted)")
    parser.add_argument("--u", type=parse_number, default=0.0, help="relative velocity")
    parser.add_argument("--s", type=parse_number, required=True, help="first relaxation rate")
    parser.add_argument("--sp", type=parse_number, required=True, help="second relaxation rate")
    parser.add_argument("--alpha", type=parse_number, required=not alpha_optional,
                        default=None, help="equilibrium parameter")


def _params(args) -> SchemeParameters:
    return SchemeParameters(V=args.V, u=args.u, s=args.s, s_prime=args.sp, alpha=args.alpha)


def _note_if_not_finite(*values) -> None:
    """One stderr line when a reported value overflowed (inf) or is undefined (nan)."""
    if not all(np.isfinite(v).all() for v in values):
        print("note: some values overflow float64 (inf) or are undefined (nan)", file=sys.stderr)


def _fmt_matrix(R) -> str:
    return "\n".join("  [" + "  ".join(f"{v: .12f}" for v in row) + "]" for row in R)


def cmd_matrix(args) -> int:
    p = _params(args)
    R = build_relaxation_matrix(p)
    C = stability.relaxation_entries_closed_form(p.V, p.u, p.s, p.s_prime, p.alpha)
    print(f"parameters: V={p.V:g} u={p.u:g} s={p.s:g} s'={p.s_prime:g} alpha={p.alpha:.17g}")
    print("relaxation operator (matrix product):")
    print(_fmt_matrix(R))
    print("relaxation operator (closed form):")
    print(_fmt_matrix(C))
    print(f"max discrepancy: {np.max(np.abs(R - C)):.3e}")
    print("column sums:", "  ".join(f"{v:.15f}" for v in R.sum(axis=0)))
    verdict = stability.nine_inequalities(p)
    print("entry slacks (row-major):", "  ".join(f"{v: .6f}" for v in verdict.slacks))
    print(f"non-negative: {'yes' if verdict.stable else 'no'} (min slack {verdict.min_slack:.6g})")
    _note_if_not_finite(R, C)
    return 0


def cmd_check(args) -> int:
    if args.alpha is not None:
        p = _params(args)
        verdicts = (stability.nine_inequalities(p), stability.reduced_condition(p),
                    stability.matrix_entry_verdict(p))
        for v in verdicts:
            binding = ",".join(map(str, v.binding)) if v.binding else "-"
            print(f"route {v.route:8s}: {'stable' if v.stable else 'unstable'} "
                  f"(min slack {v.min_slack: .6g}, binding [{binding}])")
        _note_if_not_finite(*(v.slacks for v in verdicts))
        return 0 if verdicts[0].stable else 1
    iv = stability.gamma_feasible_interval(args.V, args.u, args.s, args.sp)
    _note_if_not_finite(iv.lower, iv.upper)
    if iv.empty:
        sep = " >" if iv.lower > iv.upper else ","   # a NaN bound compares false
        print(f"gamma interval: empty (lower {iv.lower:.6g}{sep} upper {iv.upper:.6g})")
        return 1
    print(f"gamma interval: [{iv.lower:.17g}, {iv.upper:.17g}]")
    if args.sp == 0.0:
        pinned = stability.pinned_gamma(args.V, args.u, args.s)
        feasible = stability.alpha_feasible(args.V, args.u, args.s, args.sp)
        print(f"alpha-unconstrained (s' = 0 pins gamma at {pinned:.17g})"
              + ("" if feasible else ", outside the gamma interval"))
        return 0 if feasible else 1
    lo, hi = stability.alpha_interval(args.V, args.u, args.s, args.sp)
    print(f"alpha interval: [{lo:.17g}, {hi:.17g}]")
    return 0


def _scan_outputs(base: str, count: int):
    if count == 1:
        return [Path(base)]
    stem, suffix = os.path.splitext(base)
    return [Path(f"{stem}_u{i}{suffix}") for i in range(count)]


def cmd_region(args) -> int:
    grids = regionscan.scan(regionscan.ScanSpec(V=args.V, u_list=args.u_list,
                                                s_points=args.grid, s_prime_points=args.grid))
    csv_paths = _scan_outputs(args.out_csv, len(grids)) if args.out_csv else []
    svg_paths = _scan_outputs(args.out_svg, len(grids)) if args.out_svg else []
    for i, grid in enumerate(grids):
        if csv_paths:
            regionscan.emit_csv(grid, csv_paths[i])
        if svg_paths:
            regionscan.emit_svg(grid, svg_paths[i])
        written = " ".join(str(paths[i]) for paths in (csv_paths, svg_paths) if paths)
        print(f"V={grid.V:g} u={grid.u:g}: feasible={grid.count(regionscan.FEASIBLE)} "
              f"necessary_only={grid.count(regionscan.NECESSARY_ONLY)} "
              f"outside={grid.count(regionscan.OUTSIDE)}"
              + (f" -> {written}" if written else ""))
    return 0


def cmd_simulate(args) -> int:
    p = _params(args)
    profile = InitialProfile(kind=args.profile, center=args.center, width=args.width,
                             low=args.low, high=args.high)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        # snapshots go next to --out, so without it none are recorded
        result = simulator.run(profile, default_grid(args.ncells), p, args.steps,
                               args.snap_every if args.out else 0)
    for w in caught:  # the library's warnings as note lines, without its source text
        print(f"note: {w.message}", file=sys.stderr)
    diag = result.diagnostics
    verdict = stability.nine_inequalities(p)
    _note_if_not_finite(verdict.slacks, (diag.min_f_over_run, diag.min_rho, diag.max_rho,
                                         diag.mass_drift, diag.l1_error))
    threshold = OSCILLATION_FLAG_THRESHOLD * max(1.0, abs(args.low), abs(args.high))
    flagged = diag.undershoot > threshold
    print(f"R non-negative: {'yes' if verdict.stable else 'no'} "
          f"(min slack {verdict.min_slack:.6g}); undershoot {diag.undershoot:.6g}"
          + (f" OSCILLATIONS (> {threshold:g})" if flagged else ""))
    print(f"mass drift: {diag.mass_drift:.6g}")
    if not args.out:
        simulator.write_diagnostics_csv(diag, sys.stdout)
        return 0
    simulator.write_diagnostics_csv(diag, args.out)
    if result.snap_steps:
        stem, suffix = os.path.splitext(args.out)
        snap_path = f"{stem}.snapshots{suffix or '.csv'}"
        simulator.write_snapshots_csv(result, snap_path)
        print(f"wrote {args.out} and {snap_path}")
    else:
        print(f"wrote {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    rows = [(label, SchemeParameters(*map(Fraction, fields)))
            for label, *fields in BENCHMARK_ROWS]
    kinds = (simulator.SMOOTH, simulator.HAT, simulator.STEP)
    results = iter(simulator.run_batch([(InitialProfile(kind=kind), p)
                                        for _, p in rows for kind in kinds], default_grid(), 1000))
    print("benchmark advection runs: 200 cells, 1000 steps, lambda=1, "
          "equilibrium initialization")
    discrepancies = 0
    for label, p in rows:
        verdict = stability.nine_inequalities(p)
        iv = stability.gamma_feasible_interval(p.V, p.u, p.s, p.s_prime)
        computed = "stable" if verdict.stable else "unstable"
        expected = "stable" if "(stable)" in label else "unstable"
        print(f"\nrow V={p.V:g} u={p.u:g} s={p.s:g} s'={p.s_prime:g} alpha={p.alpha:.17g} [{label}]")
        print(f"  computed verdict: {computed} (min entry {verdict.min_slack:.6g}); "
              f"gamma interval: {'empty' if iv.empty else f'[{iv.lower:.6g}, {iv.upper:.6g}]'}")
        if computed != expected:
            discrepancies += 1
            worst = verdict.slacks.index(verdict.min_slack)
            print(f"  DISCREPANCY: labelled '{label}' but computed {computed}: "
                  f"R[{worst // 3},{worst % 3}] = {verdict.min_slack:.6g} < 0")
        for kind in kinds:
            d = next(results).diagnostics
            print(f"  RESULT {kind:6s}: undershoot={d.undershoot:.6e} "
                  f"overshoot={d.overshoot:.6e} min_f={d.min_f_over_run:.6e} "
                  f"l1_error={d.l1_error:.6e}")
    print(f"\n{discrepancies} of {len(BENCHMARK_ROWS)} rows disagree with their label")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="d1q3rv",
        description="Three-velocity lattice Boltzmann advection scheme with relative "
                    "velocity: relaxation operator, non-negativity regions, simulations.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp_matrix = sub.add_parser("matrix", help="print the relaxation operator and its slacks")
    _add_scheme_flags(sp_matrix)
    sp_matrix.set_defaults(func=cmd_matrix)

    sp_check = sub.add_parser("check", help="stability verdict, or feasible intervals without --alpha")
    _add_scheme_flags(sp_check, alpha_optional=True)
    sp_check.set_defaults(func=cmd_check)

    sp_region = sub.add_parser("region", help="classify an (s, s') grid and emit CSV/SVG")
    sp_region.add_argument("--V", type=parse_number, required=True)
    sp_region.add_argument("--u-list", default=None,
                           type=_checked(parse_number_list, len,
                                         "must name at least one relative velocity"),
                           help="comma-separated relative velocities "
                                "(default -2V,-V,0,V/2,V,2V)")
    sp_region.add_argument("--grid", type=_checked(int, lambda n: n >= 2, "must be at least 2"),
                           default=221, help="points per axis over [0, 2.2] (default 221)")
    sp_region.add_argument("--out-csv", default=None, help="CSV output path (per-u suffix added)")
    sp_region.add_argument("--out-svg", default=None, help="SVG output path (per-u suffix added)")
    sp_region.set_defaults(func=cmd_region)

    sp_sim = sub.add_parser("simulate", help="run advection and report diagnostics")
    _add_scheme_flags(sp_sim)
    sp_sim.add_argument("--profile", choices=(simulator.SMOOTH, simulator.HAT, simulator.STEP),
                        default=simulator.STEP)
    sp_sim.add_argument("--ncells", type=_checked(int, lambda n: n >= 1, "must be at least 1"),
                        default=200)
    count = _checked(int, lambda n: n >= 0, "must be at least 0")
    sp_sim.add_argument("--steps", type=count, default=1000)
    sp_sim.add_argument("--snap-every", type=count, default=0,
                        help="record the state every N steps into a snapshots CSV next to "
                             "--out (0 = never; ignored without --out)")
    sp_sim.add_argument("--low", type=parse_number, default=0.0, help="baseline density")
    sp_sim.add_argument("--high", type=parse_number, default=1.0, help="peak density")
    sp_sim.add_argument("--center", type=parse_number, default=None)
    sp_sim.add_argument("--width", type=_checked(parse_number, lambda w: w > 0, "must be positive"),
                        default=None)
    sp_sim.add_argument("--out", default=None, help="diagnostics CSV path (stdout if omitted)")
    sp_sim.set_defaults(func=cmd_simulate)

    sp_rep = sub.add_parser("reproduce",
                            help="run the four bundled benchmark rows on all three profiles")
    sp_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):   # non-finite results get one note line instead
            return args.func(args)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:   # such as a --grid or --ncells NumPy cannot allocate
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
