"""Benchmark of d1q3rv: three seeded workloads, timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Every repetition is a fresh interpreter (``child.py``), so set-up time and
peak memory are real; repetitions run one after another until the next one
would end after ``--seconds`` (at least three untraced repetitions, or one
untraced/traced pair with ``--trace 1``).  With ``--trace 0`` each pass is
followed by two processes that only set up, for more set-up samples.  The
program under test is the ``d1q3rv`` package in ``src/`` of the same checkout.

The host this was sized on changes speed by up to 2x in phases of seconds to
minutes, and a phase can cover a whole run.  ``wall_s`` and ``op_p50_ms`` are
therefore medians of times corrected for the host's speed, which a fixed
kernel run on a timer during each pass measures (``hostspeed.py``); the
measured medians are printed alongside.  ``setup_s`` is the median of the
measured set-up times.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced repetition with the median wall time.  The last line of
standard output is one JSON object; the lines above it are a readable table.
Exit status: 0 when every output check passed, 1 when one failed, 2 when the
harness could not run (for example, no ``src/d1q3rv`` to import).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

MIN_REPS = 3
SETUP_ONLY_PER_ROUND = 2
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MiB"))

# What one operation is on each workload.
OPERATIONS = {
    "sweep": "one simulator.run",
    "region": "one regionscan.parse_csv of a grid's CSV",
    "verdicts": "one scalar tuple: three routes and two intervals",
}

PER_LAYER = (
    ("scheme.build_relaxation_matrix.calls", "count"),
    ("scheme.build_relaxation_matrix.self_s", "s"),
    ("scheme.relaxation_matrices.tuples", "count"),
    ("scheme.relaxation_matrices.self_s", "s"),
    ("scheme.other.self_s", "s"),
    ("stability.scalar_routes.calls", "count"),
    ("stability.scalar_routes.self_s", "s"),
    ("stability.intervals.self_s", "s"),
    ("stability.batched.self_s", "s"),
    ("stability.other.self_s", "s"),
    ("simulator.steps", "count"),
    ("simulator.cell_updates", "count"),
    ("simulator.bytes_computed", "B"),
    ("simulator.init_state.self_s", "s"),
    ("simulator.relax.self_s", "s"),
    ("simulator.stream.self_s", "s"),
    ("simulator.exact_density.self_s", "s"),
    ("simulator.run.self_s", "s"),
    ("simulator.other.self_s", "s"),
    ("simulator.run_p90_ms", "ms"),
    ("simulator.run_p90_samples", "count"),
    ("regionscan.points", "count"),
    ("regionscan.scan.self_s", "s"),
    ("regionscan.emit_csv.self_s", "s"),
    ("regionscan.emit_csv.bytes", "B"),
    ("regionscan.parse_csv.self_s", "s"),
    ("regionscan.emit_svg.self_s", "s"),
    ("regionscan.emit_svg.bytes", "B"),
    ("regionscan.other.self_s", "s"),
    ("cli.region.self_s", "s"),
    ("cli.reproduce.self_s", "s"),
    ("cli.other.self_s", "s"),
    ("bench.raw_wall_s", "s"),
    ("bench.raw_op_p50_ms", "ms"),
    ("bench.host_speed", "x"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unattributed_s", "s"),
)


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def spawn(args, trace: int, workdir: Path, setup_only: bool = False) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON record."""
    env = {k: v for k, v in os.environ.items() if k != "D1Q3_THREADS"}
    cmd = [sys.executable, "-I", str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--small", str(int(args.small)), "--trace", str(trace),
           "--setup-only", str(int(setup_only)), "--workdir", str(workdir), "--spawned-at"]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(spawned_at)], capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"repetition timed out after {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def repetitions(args, workdir: Path) -> dict:
    """Untraced (key 0) and, with --trace 1, traced (key 1) repetition records."""
    kinds = (0, 1) if args.trace else (0,)
    min_rounds = 1 if args.trace else MIN_REPS
    reps = {k: [] for k in kinds}
    start = time.monotonic()
    rounds = 0
    while True:
        for k in kinds:
            reps[k].append(spawn(args, k, workdir))
            if k:
                (workdir / "spans.npz").replace(workdir / f"spans-{rounds}.npz")
        if not args.trace:
            reps[0][-1]["extra_setup_s"] = [spawn(args, 0, workdir, setup_only=True)["setup_s"]
                                            for _ in range(SETUP_ONLY_PER_ROUND)]
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > args.seconds:
            return reps


def end_to_end(args, reps: dict) -> dict:
    plain = reps[0]
    setups = [s for r in plain for s in [r["setup_s"], *r["extra_setup_s"]]]
    walls = [r["wall_s"] for r in plain]
    ops = [t * 1e3 for r in plain for t in r["op_s"]]
    raw_wall = statistics.median(r["raw_wall_s"] for r in plain)
    raw_op = statistics.median(t for r in plain for t in r["raw_op_s"]) * 1e3
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(ops),
        # cli region's two worker threads make the peak vary from pass to pass
        # in steps of one malloc arena; the run's peak is the largest
        "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
    }
    print(f"setup_s      {values['setup_s']:.6g} s    median of {len(setups)} processes "
          "(start to inputs ready)")
    print(f"wall_s       {values['wall_s']:.6g} s    median of {len(walls)} passes, "
          f"corrected for host speed (measured {raw_wall:.6g} s)")
    print(f"op_p50_ms    {values['op_p50_ms']:.6g} ms   median of {len(ops)} operations, "
          f"corrected for host speed (measured {raw_op:.6g} ms); "
          f"operation: {OPERATIONS[args.workload]}")
    print(f"peak_rss_mb  {values['peak_rss_mb']:.6g} MiB  largest of {len(plain)} processes")
    return values


def per_layer(args, reps: dict, workdir: Path) -> dict:
    traced = reps[1]
    order = sorted(range(len(traced)), key=lambda i: traced[i]["raw_wall_s"])
    pick = order[(len(order) - 1) // 2]
    values = dict(traced[pick]["layers"])
    values["bench.raw_wall_s"] = statistics.median(r["raw_wall_s"] for r in reps[0])
    # each traced pass runs right after an untraced one; pairing them cancels
    # most of the host's drift in speed
    values["bench.trace_overhead_s"] = statistics.median(
        t["raw_wall_s"] - p["raw_wall_s"] for p, t in zip(reps[0], traced))
    values["bench.raw_op_p50_ms"] = statistics.median(
        t for r in reps[0] for t in r["raw_op_s"]) * 1e3
    values["bench.host_speed"] = REF_S / statistics.median(r["kernel_s"] for r in reps[0])
    runs = [t for r in reps[0] for t in r["raw_op_s"]] if args.workload == "sweep" else []
    values["simulator.run_p90_ms"] = statistics.quantiles(runs, n=10)[-1] * 1e3 if len(runs) > 1 else 0.0
    values["simulator.run_p90_samples"] = len(runs)
    OUT.mkdir(exist_ok=True)
    (workdir / f"spans-{pick}.npz").replace(OUT / f"{args.workload}.spans.npz")
    for name, unit in PER_LAYER:
        values.setdefault(name, 0)
        print(f"{name:40s} {values[name]:.6g} {unit}")
    print(f"(traced pass {pick + 1} of {len(traced)}, median traced wall; "
          f"spans in {OUT.name}/{args.workload}.spans.npz)")
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(OPERATIONS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        reps = repetitions(args, workdir)
        print(f"workload {args.workload}, seed {args.seed}, "
              f"{len(reps[0])} untraced repetitions" + (f", {len(reps[1])} traced" if args.trace else ""))
        metrics = per_layer(args, reps, workdir) if args.trace else end_to_end(args, reps)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for k in reps for r in reps[k]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    # traced and untraced passes of one seed must produce the same outputs
    failed += sum(r["digest"] != records[0]["digest"] for r in records)
    print(f"failed_frac  {failed / attempted:.6g}      {failed} of {attempted} operations failed their check")
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
