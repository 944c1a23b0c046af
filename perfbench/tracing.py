"""In-memory span tracer that wraps the library's entry points from outside.

Each entry point is replaced, under the name its callers look up at call
time, by a wrapper that records a span (name, parent span, start, end) and
then calls the original.  Spans stay in memory until the run ends.  A
layer's self time is its span duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute path, span name).  The attribute is the one the caller
# resolves at call time: ``model._attention_sublayer`` reads the kernels from
# the ``fastforecast.model`` namespace, ``make_dataset`` reads
# ``build_features`` from ``fastforecast.data``, and ``lstm_forward_steps``
# reads ``lstm_cell`` from ``fastforecast.lstm``.
SPANS = (
    ("fastforecast.data", "load_csv", "data.load_csv"),
    ("fastforecast.data", "make_dataset", "data.make_dataset"),
    ("fastforecast.data", "build_features", "indicators.build_features"),
    ("fastforecast.model", "train", "model.train"),
    ("fastforecast.model", "Model.forward_batch", "model.forward"),
    ("fastforecast.model", "multi_head", "attention.multi_head"),
    ("fastforecast.model", "favor_bidirectional", "favor.kernel"),
    ("fastforecast.model", "favor_unidirectional", "favor.kernel"),
    ("fastforecast.model", "bilstm_forward_steps", "lstm.bilstm"),
    ("fastforecast.tensor", "GradTape.backward", "tensor.backward"),
)

# Called too often (once per timestep, gate set and direction) for a span to
# be worth its cost; only the number of calls is kept.
COUNTED = (
    ("fastforecast.lstm", "lstm_cell", "lstm.cell"),
)


def _resolve(module_name: str, path: str):
    """Return (owner, attribute, original) or fail loudly if the name is gone."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            break
    original = getattr(owner, attr, None) if owner is not None else None
    if not callable(original):
        raise LookupError(f"traced entry point {module_name}.{path} no longer exists; "
                          "update perfbench/tracing.py")
    return owner, attr, original


class Tracer:
    """Context manager: installs the wrappers on enter, restores on exit.

    ``observers`` maps a span name to ``f(counts, call, *args, **kwargs)``,
    which performs ``call`` itself and adds exact counters to ``counts``.
    """

    def __init__(self, observers=None):
        self.observers = observers or {}
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        try:
            for module_name, path, name in SPANS:
                self._patch(module_name, path, self._span_wrapper(name))
            for module_name, path, name in COUNTED:
                self._patch(module_name, path, self._count_wrapper(name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _patch(self, module_name, path, make_wrapper):
        owner, attr, original = _resolve(module_name, path)
        setattr(owner, attr, make_wrapper(original))
        self._patched.append((owner, attr, original))

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, name):
        observer = self.observers.get(name)

        def make(original):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    if observer is None:
                        return original(*args, **kwargs)
                    return observer(self.counts, original, *args, **kwargs)
            return wrapper
        return make

    def _count_wrapper(self, name):
        def make(original):
            def wrapper(*args, **kwargs):
                self.calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def span(self, name):
        return _Span(self, name)

    def self_seconds(self) -> dict:
        """Self time per span name, summed over every recorded span."""
        child_ns = defaultdict(int)
        for _, parent, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name] += (end - start - child_ns[i]) * 1e-9
        return dict(out)

    def write(self, path) -> None:
        """One JSON object per span: id, parent id, name and times in ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t.spans.append([self.name, parent, time.perf_counter_ns(), None])
        t._stack.append(self.index)
        t.calls[self.name] += 1
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][3] = time.perf_counter_ns()
        t._stack.pop()
        return False
