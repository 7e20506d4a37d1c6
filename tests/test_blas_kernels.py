"""Scalar R against its batched row under two OpenBLAS gemm kernels.

OpenBLAS picks its gemm kernel at import, and OPENBLAS_CORETYPE forces one.
Haswell chains fused multiply-adds and Sandybridge does not, so R's bytes
differ between them: on an x86-64 host with FMA (OpenBLAS 0.3.31), the
script's 500 batched R have sha256 456ddab8... under Haswell and
9931308a... under Sandybridge.  What must hold under either kernel is that a
scalar R, and the slacks of the entries route, have the bytes of the batched
row.  The variable is read at import, so each kernel runs in its own
interpreter; a BLAS that is not OpenBLAS ignores it, and the check then runs
twice on the one kernel it has.  The byte-pinned tests (PINNED) hold one pin
per gemm summation order, chosen by conftest.gemm_order; they run here under
both kernels too.  advance's densities are a BLAS product too, of a ones
vector with each step's states, and their bytes must not depend on the
kernel: they are the bytes of np.add.reduce, under either kernel.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = """
import hashlib, json
import numpy as np
from d1q3rv.scheme import SchemeParameters, build_relaxation_matrix, relaxation_matrices
from d1q3rv.stability import matrix_entry_verdict

rng = np.random.default_rng(97)
n = 500
cols = (rng.uniform(-1.5, 1.5, n), rng.uniform(-1, 1, n), rng.uniform(-0.5, 2.5, n),
        rng.uniform(-0.5, 2.5, n), rng.uniform(-2, 2, n), rng.choice([0.5, 1.0, 3.0], n))
batch = relaxation_matrices(*cols)
mismatches = []
for i, row in enumerate(zip(*(c.tolist() for c in cols))):
    p = SchemeParameters(*row)
    want = batch[i].tobytes()
    if (build_relaxation_matrix(p).tobytes() != want
            or np.array(matrix_entry_verdict(p).slacks).tobytes() != want):
        mismatches.append(i)
print(json.dumps({"mismatches": mismatches, "sha256": hashlib.sha256(batch.tobytes()).hexdigest()}))
"""

DENSITY_SCRIPT = """
import json
import numpy as np
from d1q3rv.simulator import _step_stats, density

rng = np.random.default_rng(31)
special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300])
failures = []
for k, batch, n in [(64, 1, 200), (11, 12, 200), (1, 100, 200), (64, 1, 1), (64, 1, 24)]:
    slots = rng.standard_normal((k, batch, 3, n + 6)) * 10.0 ** rng.integers(-8, 8, (k, batch, 3, n + 6))
    mixed = rng.random(slots.shape) < 0.1
    slots[mixed] = rng.choice(special, mixed.sum())
    slots.transpose(0, 1, 3, 2)[rng.random((k, batch, n + 6)) < 0.05] = -0.0
    states = slots[..., 3:3 + n]
    rho, masses, out = np.empty((k, batch, n)), np.empty((k, batch)), np.empty((5, batch))
    with np.errstate(all="ignore"):
        _step_stats(slots, slice(3, 3 + n), rho, masses, out)
        reduced = np.add.reduce(states, axis=2)
        negative_zero = ((states == 0) & np.signbit(states)).all(axis=2)
        # density() gives -0.0 for an all-(-0.0) triple, the product +0.0
        summed = np.where(negative_zero, 0.0, density(states.transpose(0, 1, 3, 2)))
    if (rho.tobytes() != reduced.tobytes() or rho.tobytes() != summed.tobytes()
            or masses.tobytes() != np.add.reduce(summed, axis=2).tobytes()
            or not negative_zero.any()):
        failures.append([k, batch, n])
print(json.dumps({"failures": failures}))
"""


ROOT = Path(__file__).resolve().parents[1]

PINNED = ["tests/test_cli.py::test_simulate_output_files_are_pinned",
          "tests/test_simulator.py::test_run_of_an_infinite_profile_warns_once_from_the_l1_error"]


def kernel_env(kernel):
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_CORETYPE=kernel)


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_scalar_r_has_the_bytes_of_its_batched_row_under_each_gemm_kernel(kernel):
    env = kernel_env(kernel)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["mismatches"] == [], result


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_step_densities_have_the_bytes_of_add_reduce_under_each_gemm_kernel(kernel):
    done = subprocess.run([sys.executable, "-c", DENSITY_SCRIPT], env=kernel_env(kernel),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"failures": []}


@pytest.mark.parametrize("kernel", ["Haswell", "Sandybridge"])
def test_byte_pinned_tests_pass_under_each_gemm_kernel(kernel):
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *PINNED],
                          cwd=ROOT, env=kernel_env(kernel), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
