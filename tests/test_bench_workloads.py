"""The benchmark workloads of perfbench/, run in-process at reduced size.

Each workload's prepare, run and check go through the public API, so an API
change that breaks the benchmark fails here and not only when the benchmark
runs.  perfbench/ is only read.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
hostspeed = _load("hostspeed")


def _one_pass(name, small, workdir):
    """(attempted, failed) of one checked pass of a workload with seed 7."""
    prepare, run, check = workloads.WORKLOADS[name]
    inputs = prepare(7, small, workdir)
    clock = hostspeed.Clock(calibrate=False)
    clock.start()
    outputs = run(inputs, clock)
    clock.finish()
    return check(inputs, outputs)[:2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_output_checks(name, tmp_path):
    attempted, failed = _one_pass(name, True, tmp_path)
    assert attempted > 0 and failed == 0


def test_region_workload_passes_its_output_checks_at_full_size(tmp_path):
    # The 221^2 files span many parse_csv pieces (the reduced 41^2 ones about
    # two), and their sha256 digests are pinned in region_digests.json.
    attempted, failed = _one_pass("region", False, tmp_path)
    assert attempted == 7 and failed == 0


def test_sweep_workload_passes_its_output_checks_at_full_size(tmp_path):
    # 100 criterion-8 runs of 200 cells x 1000 steps, the benchmark's own
    # size, each held to min f, mass drift and undershoot bounds, and
    # reproduce's frozen step undershoots.
    attempted, failed = _one_pass("sweep", False, tmp_path)
    assert attempted == 101 and failed == 0


def test_verdicts_workload_passes_its_output_checks_at_full_size(tmp_path):
    # 3000 scalar tuples through the three routes and both intervals, then
    # one 1e5-tuple batch through R, the closed form and the chain bounds.
    attempted, failed = _one_pass("verdicts", False, tmp_path)
    assert attempted == 103_000 and failed == 0
