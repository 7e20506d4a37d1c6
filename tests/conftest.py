from fractions import Fraction

import numpy as np
import pytest


def _fused(a, b):
    """fma(a2, b2, fma(a1, b1, a0 b0)), each step rounded once: float() of a Fraction rounds correctly."""
    acc = a[0] * b[0]
    for x, y in zip(a[1:], b[1:]):
        acc = float(Fraction(x) * Fraction(y) + Fraction(acc))
    return acc


def _plain(a, b):
    """(a0 b0 + a1 b1) + a2 b2, every product and sum rounded."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


@pytest.fixture(scope="session")
def gemm_order():
    """How the loaded BLAS sums a 3x3 gemm's three products: "fused" or "plain", None for neither.

    OpenBLAS picks its gemm kernel at import, and byte-pinned outputs of R and
    advance depend on it: Haswell and SkylakeX chain fused multiply-adds,
    Sandybridge adds rounded products.  A seeded (3, 3) @ (3, 32) product,
    the shape of advance's step, tells the two apart.
    """
    rng = np.random.default_rng(5)
    A, B = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 32))
    got = (A @ B).tolist()
    rows, cols = A.tolist(), B.T.tolist()
    fused = [[_fused(a, b) for b in cols] for a in rows]
    plain = [[_plain(a, b) for b in cols] for a in rows]
    assert fused != plain   # else the probe could not tell the orders apart
    return "fused" if got == fused else "plain" if got == plain else None
