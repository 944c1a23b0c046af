"""Dense float64 arrays with a reverse-mode gradient tape.

Every differentiable stage of the model is one tape node, registered
through :func:`_make` with its numpy output and its hand-derived backward
pass, a closure that maps the output gradient to one gradient per input:
the embedding, each encoder block, each BiLSTM layer, the head and the loss
(see ``model`` and ``lstm``).  When a :class:`GradTape` is active and an
input requires gradients, ``_make`` records the node; replaying the tape in
reverse (``tape.backward``) fills ``Tensor.grad`` for every leaf.

Design constraints honoured here:
  * float64 everywhere,
  * non-finite values raise :class:`FiniteError` immediately; a node
    checks (``check_finite``) each intermediate that no later check covers,
    so it raises on exactly the inputs that a composition of one node per
    operation would reject, and notes its buffers in the allocation log
    (``note_buffers``).
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
    """Records the shape and byte size of each node's output and of every
    buffer noted with ``note_buffers``.

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
    a node keeps the array it was given.
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
    """Ordered record of nodes, replayed in reverse for gradients.

    Use as a context manager; nodes made inside the context are recorded
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
    """Wrap a node's output, record it on the active tape, log allocations."""
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
