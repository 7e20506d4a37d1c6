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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_its_output_checks(name, tmp_path):
    prepare, run, check = workloads.WORKLOADS[name]
    inputs = prepare(7, True, tmp_path)
    clock = hostspeed.Clock(calibrate=False)
    clock.start()
    outputs = run(inputs, clock)
    clock.finish()
    attempted, failed, _ = check(inputs, outputs)
    assert attempted > 0 and failed == 0
