"""Dense float64 arrays with a reverse-mode gradient tape.

Every differentiable operation in the package is a primitive registered
through :func:`_make`: the seven primitives in this module (``add``,
``sub``, ``mul``, ``relu``, ``matmul``, ``tsum`` and ``take_rows``), plus
two fused kernels: the BiLSTM layer (``lstm.bilstm_forward_steps``, which
runs ``lstm.lstm_sequence`` once per direction) and the encoder block
(``model.Model._encoder_block``, which composes ``attention.multi_head``,
``model.layer_norm`` and ``model.feed_forward`` a chunk of windows at a
time; a weight's gradient sums over the whole batch in one gemm or sum,
since a sum split by chunk would round differently).
A primitive computes its forward value with numpy and, when a
:class:`GradTape` is active and an input requires gradients, records one
node whose closure maps the output gradient to per-input gradients; a fused
kernel's closure is its hand-derived backward pass.
Replaying the tape in reverse (``tape.backward``) fills ``Tensor.grad`` for
every leaf.  Ops are module functions, called as ``T.add(a, b)``,
``T.matmul(a, b)`` and so on; ``Tensor`` has no operator methods.

Design constraints honoured here:
  * float64 everywhere,
  * non-finite values raise :class:`FiniteError` immediately; a fused kernel
    raises on exactly the inputs its composed form would have rejected,
    checking (``check_finite``) each intermediate that no later check
    covers, and notes its buffers in the allocation log (``note_buffers``),
  * ``add``/``sub``/``mul`` broadcast as numpy does, but only where the
    result has the shape of one operand (a (3, 1) with a (1, 4) raises
    :class:`ShapeError`); a Python number is a constant with no gradient, and
    each backward pass sums the gradient over the broadcast axes
    (``_sum_to``).
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import FiniteError, ShapeError

# exp() of anything above this overflows float64 (~709.78); clamp with margin
EXP_CLAMP = 700.0

_state = threading.local()


def _active_tape() -> "GradTape | None":
    return getattr(_state, "tape", None)


def _observer() -> "list | None":
    return getattr(_state, "alloc_log", None)


class AllocationLog:
    """Records the shape and byte size of every tensor an op creates.

    Used by the complexity probe to verify, structurally, that a kernel
    never materialises a sequence-length-squared buffer.
    """

    def __init__(self):
        self.shapes: list[tuple[int, ...]] = []
        self.total_bytes: int = 0

    def __enter__(self):
        if _observer() is not None:
            raise RuntimeError("allocation log already active on this thread")
        _state.alloc_log = self
        return self

    def __exit__(self, *exc):
        _state.alloc_log = None
        return False

    def _note(self, arr: np.ndarray) -> None:
        self.shapes.append(arr.shape)
        self.total_bytes += arr.nbytes


class Tensor:
    """A dense float64 array, optionally tracked for gradients.

    Only the constructor guarantees that ``data`` is a C-contiguous ndarray;
    a primitive keeps the array its numpy expression returns.
    ``grad`` is filled by ``GradTape.backward`` and has the same shape as
    ``data``.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if not np.all(np.isfinite(arr)):
            raise FiniteError("tensor initialised with NaN/Inf")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        if requires_grad:
            tape = _active_tape()
            if tape is not None:
                tape.watch(self)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("inputs", "out", "backward")

    def __init__(self, inputs, out, backward):
        self.inputs = inputs
        self.out = out
        self.backward = backward


class GradTape:
    """Ordered record of primitive ops, replayed in reverse for gradients.

    Use as a context manager; ops executed inside the context are recorded
    in execution order (a valid topological order).  The tape is append-only.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._watched: list[Tensor] = []

    def __enter__(self):
        if _active_tape() is not None:
            raise RuntimeError("gradient tapes do not nest")
        _state.tape = self
        return self

    def __exit__(self, *exc):
        _state.tape = None
        return False

    def watch(self, t: Tensor) -> None:
        """Register a leaf so it receives a (possibly zero) gradient."""
        self._watched.append(t)

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, loss: Tensor) -> None:
        """Fill ``grad`` for every requires_grad leaf reachable from ``loss``.

        Watched leaves that do not influence the loss get zero gradients.
        """
        if loss.data.shape != ():
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
        for node in reversed(self._nodes):
            g = grads.pop(node.out, None)
            if g is None:
                continue
            for t, ig in zip(node.inputs, node.backward(g)):
                if ig is None or not t.requires_grad:
                    continue
                acc = grads.get(t)
                grads[t] = ig if acc is None else acc + ig
        for t, g in grads.items():
            if t.requires_grad:
                g = np.asarray(g, dtype=np.float64)
                t.grad = np.ascontiguousarray(g) if g.ndim else g
        for t in self._watched:
            if t not in grads:
                t.grad = np.zeros_like(t.data)


def track_allocations() -> AllocationLog:
    """Context manager recording every intermediate tensor's shape/bytes."""
    return AllocationLog()


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def check_finite(*arrays: np.ndarray) -> None:
    """Raise FiniteError if any array holds NaN/Inf."""
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise FiniteError("operation produced NaN/Inf")


def note_buffers(*arrays: np.ndarray) -> None:
    """Record a fused kernel's intermediate buffers in the active allocation log."""
    log = _observer()
    if log is not None:
        for arr in arrays:
            log._note(arr)


def _make(inputs: Sequence[Tensor], out_data: np.ndarray,
          backward: Callable[[np.ndarray], tuple], check: bool = True) -> Tensor:
    """Wrap an op result, record it on the active tape, log allocations."""
    if check:
        check_finite(out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out.requires_grad = any(t.requires_grad for t in inputs)
    log = _observer()
    if log is not None:
        log._note(out_data)
    if out.requires_grad:
        tape = _active_tape()
        if tape is not None:
            tape._nodes.append(_Node(tuple(inputs), out, backward))
    return out


def _require_2d(name: str, *ts: Tensor) -> None:
    for t in ts:
        if t.data.ndim != 2:
            raise ShapeError(f"{name} expects rank-2 tensors, got shape {t.shape}")


# ---------------------------------------------------------------------------
# binary elementwise (broadcast to the shape of one operand)
# ---------------------------------------------------------------------------

def _broadcast(name: str, a, b) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; their broadcast shape must be one of theirs."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        shape = np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        shape = None
    if shape not in (a.data.shape, b.data.shape):
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast "
                         f"to the shape of either")
    return a, b


def _sum_to(t: Tensor, g: np.ndarray) -> np.ndarray:
    """``g`` summed over the axes that broadcasting stretched ``t`` along."""
    shape = t.data.shape
    if g.shape == shape:
        return g
    padded = (1,) * (g.ndim - len(shape)) + shape
    axes = tuple(i for i, (m, n) in enumerate(zip(g.shape, padded)) if m != n)
    return g.sum(axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _broadcast("add", a, b)
    return _make((a, b), a.data + b.data, lambda g: (_sum_to(a, g), _sum_to(b, g)))


def sub(a, b) -> Tensor:
    a, b = _broadcast("sub", a, b)
    return _make((a, b), a.data - b.data, lambda g: (_sum_to(a, g), -_sum_to(b, g)))


def mul(a, b) -> Tensor:
    a, b = _broadcast("mul", a, b)
    ad, bd = a.data, b.data

    def backward(g):
        return (_sum_to(a, g * bd) if a.requires_grad else None,
                _sum_to(b, g * ad) if b.requires_grad else None)

    return _make((a, b), ad * bd, backward)


# ---------------------------------------------------------------------------
# unary elementwise
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _make((x,), np.maximum(x.data, 0.0), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# matrix ops and reductions
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _require_2d("matmul", a, b)
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: inner extents {a.shape} x {b.shape} disagree")
    ad, bd = a.data, b.data

    def backward(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return _make((a, b), ad @ bd, backward)


def tsum(x: Tensor, axis: int | None = None) -> Tensor:
    """Sum over ``axis`` of a rank-2 tensor, kept with extent 1 (0 gives
    (1, n), 1 gives (m, 1)), or over everything to shape () for ``None``."""
    if axis is not None:
        _require_2d("tsum", x)
    shape = x.data.shape
    return _make((x,), np.asarray(x.data.sum(axis=axis, keepdims=axis is not None)),
                 lambda g: (np.broadcast_to(g, shape),))


# ---------------------------------------------------------------------------
# shape movement
# ---------------------------------------------------------------------------

def take_rows(x: Tensor, idx) -> Tensor:
    """Gather rows by index; gradient scatter-adds (handles repeats)."""
    _require_2d("take_rows", x)
    idx = np.asarray(idx, dtype=np.intp)
    shape = x.data.shape

    def backward(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return _make((x,), x.data[idx], backward, check=False)
