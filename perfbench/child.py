"""One repetition of a workload in a fresh interpreter; started by run.py.

Prints one JSON line: set-up time (from the parent's spawn time to inputs
ready), the pass's wall time and per-operation times (measured, and without
--trace also corrected for the host's speed: see hostspeed.py), peak RSS,
the output check, and with --trace 1 the per-layer metrics of the pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", type=int, default=0, help="stop once the inputs are ready")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    args = ap.parse_args()

    sys.path[:0] = [str(SRC), str(HERE)]
    import d1q3rv
    if not Path(d1q3rv.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"d1q3rv was imported from {d1q3rv.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from hostspeed import Clock

    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed, bool(args.small), args.workdir)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from d1q3rv import cli, regionscan, scheme, simulator, stability
        from spans import Tracer
        tracer = Tracer()
        tracer.install(d1q3rv, {"scheme": scheme, "stability": stability, "simulator": simulator,
                                "regionscan": regionscan, "cli": cli})
        tracer.active = True
    clock = Clock(calibrate=not args.trace)
    clock.start()
    outputs = run(inputs, clock)
    clock.finish()
    times = clock.summary()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.active = False

    attempted, failed, digest = check(inputs, outputs)
    result = {"setup_s": setup_s, **times, "peak_rss_mb": peak_rss_mb,
              "attempted": attempted, "failed": failed, "digest": digest}
    if tracer is not None:
        result["layers"] = tracer.metrics(times["raw_wall_s"])
        tracer.save(args.workdir / "spans.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
