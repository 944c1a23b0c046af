"""FAVOR+ linear attention: positive orthogonal random features.

The softmax kernel exp(xᵀy) is estimated by E[φ(x)ᵀφ(y)] with the positive
feature map

    φ(x) = r^{-1/2} · exp(-‖x‖²/2) · [exp(ω_iᵀ x)]_{i=1..r}

where the projection rows ω_i are Gaussian directions, orthogonalised in
blocks of d_k rows (Gram–Schmidt) with norms re-sampled from the χ
distribution of a standard d_k-dimensional Gaussian.  Queries and keys are
scaled by d_k^{-1/4} before the map, so the estimated attention matrix is
exp(q_i k_jᵀ/√d_k) — the same kernel the exact path computes.

Both attention variants stay linear in sequence length: the bidirectional
form contracts K̂ᵀV and K̂ᵀ1 first; the causal form takes prefix sums of
φ(k_j)v_jᵀ and φ(k_j).  No L×L buffer is ever materialised.

``favor_window`` runs both forms over one window in numpy, with the same
arithmetic as the equivalent composition of tensor primitives (so the
outputs agree bit for bit), and returns the output with its backward pass,
derived by hand.  ``attention.multi_head`` calls it per window and head
inside one tape node; ``favor_bidirectional`` and ``favor_unidirectional``
record it as a tape node of its own.  The two forms share φ (``_phi`` and
``_phi_grad``), the finiteness checks, the denominator floor and the
division; only the three contractions and their adjoints differ.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .attention import _check_qkv, exact_bidirectional
from .errors import ConfigError, ShapeError
from .tensor import EXP_CLAMP, Tensor

# denominators φ(q)ᵀz are mathematically positive; this floor only guards
# against float underflow, and trips the diagnostics counter when hit
DENOM_FLOOR = 1e-30


@dataclass
class Diagnostics:
    """Counters for numerical guard rails (per process, best effort)."""

    exp_clamped: int = 0
    denom_floored: int = 0


DIAGNOSTICS = Diagnostics()


@dataclass(frozen=True, kw_only=True)
class FavorConfig:
    """Random-feature attention settings."""

    r: int = 128
    d_k: int
    seed: int
    causal: bool = False
    redraw_interval: int | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ConfigError("random-feature count r must be >= 1")
        if self.d_k < 1:
            raise ConfigError("d_k must be >= 1")
        if type(self.seed) is not int or self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not isinstance(self.causal, bool):
            raise ConfigError(f"causal must be true or false, got {self.causal!r}")
        interval = self.redraw_interval
        if interval is not None and (type(interval) is not int or interval < 1):
            raise ConfigError(f"redraw_interval must be an integer >= 1 or null, got {interval!r}")


def _gram_schmidt(block: np.ndarray) -> np.ndarray:
    """Orthonormalise the rows of a square block (modified Gram–Schmidt)."""
    q = block.copy()
    n = q.shape[0]
    for i in range(n):
        for j in range(i):
            q[i] -= (q[i] @ q[j]) * q[j]
        norm = np.linalg.norm(q[i])
        if norm < 1e-12:
            raise ConfigError("degenerate Gaussian block during orthogonalisation")
        q[i] /= norm
    return q


def draw_features(cfg: FavorConfig) -> np.ndarray:
    """Sample the (r, d_k) projection Ω: blockwise-orthogonal Gaussian
    directions with χ-resampled norms.

    Deterministic for a given seed.  For r <= d_k all rows are pairwise
    orthogonal; for larger r each consecutive block of d_k rows is.
    """
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    remaining = cfg.r
    while remaining > 0:
        g = rng.standard_normal((cfg.d_k, cfg.d_k))
        q = _gram_schmidt(g)
        take = min(remaining, cfg.d_k)
        blocks.append(q[:take])
        remaining -= take
    directions = np.vstack(blocks)
    # norms of independent standard Gaussians keep the χ marginal
    norms = np.linalg.norm(rng.standard_normal((cfg.r, cfg.d_k)), axis=1)
    return directions * norms[:, None]


def _phi(x: np.ndarray, omega: np.ndarray):
    """φ of the rows of x: returns φ(x) and the mask of unclamped exponents
    (None when nothing was clamped)."""
    phi = x @ np.ascontiguousarray(omega.T)  # one (L, r) buffer, from exponent to φ
    phi -= 0.5 * (x * x).sum(axis=1, keepdims=True)
    T.check_finite(phi)
    mask = None
    clamped = int(np.count_nonzero(phi >= EXP_CLAMP))
    if clamped:
        DIAGNOSTICS.exp_clamped += clamped
        mask = phi < EXP_CLAMP
        np.minimum(phi, EXP_CLAMP, out=phi)
    np.exp(phi, out=phi)
    phi *= 1.0 / math.sqrt(omega.shape[0])
    return phi, mask


def _phi_grad(x: np.ndarray, omega: np.ndarray, phi: np.ndarray, mask, g: np.ndarray):
    """Gradient with respect to x of ⟨g, φ(x)⟩, given φ(x) and its clamp mask."""
    g_arg = g * phi  # φ = r^{-1/2} exp(arg); a clamped exponent passes nothing
    if mask is not None:
        g_arg *= mask
    return g_arg @ omega - x * g_arg.sum(axis=1, keepdims=True)


def _reverse_cumsum(x: np.ndarray) -> np.ndarray:
    """Row i holds the sum of rows i.. of x (the adjoint of a prefix sum)."""
    return np.cumsum(x[::-1], axis=0)[::-1]


def favor_window(qd: np.ndarray, kd: np.ndarray, vd: np.ndarray, omega: np.ndarray,
                 causal: bool):
    """Both FAVOR+ forms over one window: returns the output, unchecked, and
    its backward pass, which maps the output gradient to those of Q, K and V.
    Only the three contractions differ.

    Bidirectional: K̂ᵀV (r, d_v), Q̂(K̂ᵀV) and K̂ᵀ1.  Causal: the prefix sums
    S_i = Σ_{j<=i} φ(k_j) v_jᵀ (stacked (L, r, d_v)) and z_i = Σ_{j<=i} φ(k_j),
    read by row i as φ(q_i)ᵀS_i and φ(q_i)ᵀz_i; their adjoints are reverse
    cumulative sums over i >= j.
    """
    d_k = omega.shape[1]
    if qd.shape[1] != d_k:
        raise ShapeError(f"FAVOR+ expects queries and keys of width {d_k}, got {qd.shape}")
    scale = d_k ** -0.25
    qs, ks = qd * scale, kd * scale
    q_hat, q_mask = _phi(qs, omega)
    k_hat, k_mask = _phi(ks, omega)
    if causal:
        kv = np.cumsum(k_hat[:, :, None] * vd[:, None, :], axis=0)  # (L, r, d_v)
        num = (q_hat[:, None, :] @ kv)[:, 0]  # (L, d_v)
        z = np.cumsum(k_hat, axis=0)  # (L, r)
        den = (q_hat[:, None, :] @ z[:, :, None])[:, 0]  # (L, 1)
    else:
        kv = k_hat.T @ vd  # (r, d_v)
        num = q_hat @ kv  # (L, d_v)
        z = k_hat.sum(axis=0, keepdims=True)  # (1, r) = (K̂ᵀ·1)ᵀ
        den = q_hat @ z.T  # (L, 1)
    T.check_finite(kv, num, z, den)
    T.note_buffers(q_hat, k_hat, kv, num, z, den)
    floored = int(np.count_nonzero(den <= DENOM_FLOOR))
    DIAGNOSTICS.denom_floored += floored
    inv = 1.0 / np.maximum(den, DENOM_FLOOR)

    def backward(g):
        g_num = g * inv
        g_den = -(g * num).sum(axis=1, keepdims=True) * inv * inv
        if floored:
            g_den *= den > DENOM_FLOOR  # the floor passes no gradient
        if causal:
            g_kv = _reverse_cumsum(q_hat[:, :, None] * g_num[:, None, :])  # (L, r, d_v)
            g_q_hat = (kv @ g_num[:, :, None])[:, :, 0] + g_den * z
            g_k_hat = (g_kv @ vd[:, :, None])[:, :, 0] + _reverse_cumsum(g_den * q_hat)
            g_v = (k_hat[:, None, :] @ g_kv)[:, 0]
        else:
            g_kv = q_hat.T @ g_num
            g_q_hat = g_num @ kv.T + g_den * z
            g_k_hat = vd @ g_kv.T + g_den.T @ q_hat
            g_v = k_hat @ g_kv
        return (_phi_grad(qs, omega, q_hat, q_mask, g_q_hat) * scale,
                _phi_grad(ks, omega, k_hat, k_mask, g_k_hat) * scale,
                g_v)

    return num * inv, backward


def favor_bidirectional(q: Tensor, k: Tensor, v: Tensor, omega: np.ndarray) -> Tensor:
    """D̂⁻¹ (Q̂ (K̂ᵀ V)); O(L·r·d) time, no L×L intermediate.  One tape node."""
    _check_qkv(q, k, v)
    return T._make((q, k, v), *favor_window(q.data, k.data, v.data, omega, causal=False))


def favor_unidirectional(q: Tensor, k: Tensor, v: Tensor, omega: np.ndarray) -> Tensor:
    """Causal linear attention: row i is (φ(q_i)ᵀ S_i) / (φ(q_i)ᵀ z_i) over the
    prefix sums S_i and z_i; O(L·r·d) time, no L×L intermediate.  One tape node."""
    _check_qkv(q, k, v)
    return T._make((q, k, v), *favor_window(q.data, k.data, v.data, omega, causal=True))


# ---------------------------------------------------------------------------
# complexity probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeRow:
    mode: str
    L: int
    d_k: int
    r: int
    rep: int
    wall_ns: int
    peak_bytes_estimate: int


PROBE_COLUMNS = tuple(f.name for f in fields(ProbeRow))


def complexity_probe(mode: str, lengths, d_k: int, r: int, reps: int,
                     seed: int = 0) -> list[ProbeRow]:
    """Time one attention forward pass per (L, rep) and log allocations.

    ``mode`` selects the exact or the random-feature bidirectional kernel.
    The byte figure sums every intermediate tensor the kernel creates — for
    the exact kernel that includes the L×L attention matrix, for FAVOR+ it
    stays linear in L by construction.
    """
    if mode not in ("exact", "favor"):
        raise ConfigError(f"unknown probe mode '{mode}'")
    if any(length < 1 for length in lengths):
        raise ConfigError(f"sequence lengths must be >= 1, got {list(lengths)}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    omega = draw_features(FavorConfig(r=r, d_k=d_k, seed=seed))  # checks d_k, r and seed
    rng = np.random.default_rng(seed)
    rows = []
    for length in lengths:
        q = Tensor(rng.standard_normal((length, d_k)))
        k = Tensor(rng.standard_normal((length, d_k)))
        v = Tensor(rng.standard_normal((length, d_k)))

        def run():
            if mode == "exact":
                return exact_bidirectional(q, k, v)
            return favor_bidirectional(q, k, v, omega)

        run()  # warm-up: page in buffers, trigger lazy BLAS init
        for rep in range(reps):
            with T.track_allocations() as log:
                start = time.perf_counter_ns()
                run()
                wall = time.perf_counter_ns() - start
            rows.append(ProbeRow(mode, int(length), d_k, r, rep, int(wall),
                                 int(log.total_bytes)))
    return rows


def loglog_slope(rows: list[ProbeRow]) -> float:
    """Fitted slope of log(median wall time) against log(L)."""
    by_length: dict[int, list[int]] = {}
    for row in rows:
        by_length.setdefault(row.L, []).append(row.wall_ns)
    lengths = sorted(by_length)
    if len(lengths) < 2:
        raise ConfigError("need at least two lengths to fit a slope")
    medians = [float(np.median(by_length[L])) for L in lengths]
    coeffs = np.polyfit(np.log(np.asarray(lengths, dtype=float)), np.log(medians), 1)
    return float(coeffs[0])

