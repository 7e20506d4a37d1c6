"""Self-test of the benchmark harness at reduced size.

    python3 perfbench/selftest.py

For every workload, an untraced and a traced run with ``--small``: each must
exit 0 with every output check passed (the traced run also compares the
traced pass's outputs with the untraced pass's), report exactly the metrics
named in BENCHMARK.json with their units, and, when traced, have self times
plus ``bench.unattributed_s`` add up to ``bench.traced_wall_s``.  Finally the
harness must refuse to run, without printing a result, in a copy that holds
only BENCHMARK.json and this directory.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        raise SystemExit(f"{where}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: {result['failed']} of {result['attempted']} checks failed")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        raise SystemExit(f"{where}: metrics {got} differ from BENCHMARK.json {declared}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        parts = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["bench.unattributed_s"]
        if not math.isclose(parts, m["bench.traced_wall_s"], rel_tol=1e-9, abs_tol=1e-9):
            raise SystemExit(f"{where}: self times add to {parts}, traced wall is "
                             f"{m['bench.traced_wall_s']}")
    print(f"ok  {where}: {result['attempted']} operations checked")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(bare, "verdicts", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok  refuses to run without src/ (exit {proc.returncode})")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_source()


if __name__ == "__main__":
    main()
