"""Shared fixtures and oracles for the test suite."""

import ctypes
import os

# One BLAS thread, set before numpy loads: acceptance criterion 2 fits
# complexity slopes to wall-clock times, which BLAS thread pools disturb.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc serves every allocation from its heap and never hands freed memory
# back: acceptance criterion 2 fits slopes to wall-clock times, and page
# faults must not be in them.  By default the mmap threshold is dynamic, so
# after earlier tests some probe lengths get heap memory and others fresh
# mmap pages (a step in the FAVOR+ timings); pinned at its 128 KiB default,
# every exact-attention buffer is faulted in afresh and the exact slope
# falls to its bound.  With no mmap and no trimming, each length's warm-up
# call leaves resident pages that its timed calls reuse.
try:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _mallopt(-4, 0)  # M_MMAP_MAX: no mmapped chunks
    _mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD: keep freed heap resident
except AttributeError:  # a libc without mallopt (not glibc)
    pass

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import fastforecast.tensor as T  # noqa: E402
from fastforecast.attention import _check_qkv, softmax_window  # noqa: E402
from fastforecast.tensor import GradTape, Tensor  # noqa: E402


def scaled_dot_attention(q, k, v):
    """softmax(Q Kᵀ / √d_k) V on tensors, as one tape node over the window
    function the model's exact-attention heads run."""
    _check_qkv(q, k, v)
    return T._make((q, k, v), *softmax_window(q.data, k.data, v.data))


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def finite_difference(f, arrays, h=1e-5):
    """Central finite differences of a scalar function of numpy arrays.

    ``f`` takes the arrays and returns a float; one gradient array per input
    is returned.  This is the independent oracle every analytic gradient in
    the package is checked against.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr, dtype=np.float64)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*arrays)
            flat[i] = orig - h
            fm = f(*arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def rel_err(analytic, numeric):
    """|analytic - numeric| / max(1, |numeric|), elementwise max over inputs."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.max(np.abs(a - n) / np.maximum(1.0, np.abs(n))))


def check_gradients(build, arrays, tol=1e-6, h=1e-5):
    """Compare tape gradients of ``build`` against central finite differences.

    ``build`` maps Tensors to a scalar Tensor.  Returns the worst relative
    error over all inputs.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with GradTape() as tape:
        loss = build(*leaves)
    tape.backward(loss)

    def f(*arrs):
        ts = [Tensor(a) for a in arrs]
        return build(*ts).item()

    numeric = finite_difference(f, [l.data for l in leaves], h=h)
    worst = 0.0
    for leaf, num in zip(leaves, numeric):
        assert leaf.grad is not None
        worst = max(worst, rel_err(leaf.grad, num))
    assert worst <= tol, f"gradient mismatch: rel err {worst:.3e} > {tol}"
    return worst
