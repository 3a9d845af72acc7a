"""Span tracing for the svmem benchmark, installed from outside the package.

Every public function of the six layer modules, and StateVector's JSON
methods, is replaced by a wrapper that records a span. A function is
rebound at every place it is bound: its home module, the package
namespace, and each module that imported it by name (for example
`svmem.grover.apply_phase`, `svmem.cli.encode`, `svmem.cli.grover_run`),
so a call from one layer into another appears as a child span named after
the callee's home (`oracle.apply_phase`, `statevec.encode`, `grover.run`).
`install` and `uninstall` swap the bindings, so an untraced pass runs the
package's own functions with no wrapper in the way.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("statevec", "boolfn", "oracle", "memory", "grover", "cli")
METHODS = (("statevec", "StateVector", "to_json_dict"), ("statevec", "StateVector", "from_json_dict"))

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """Spans in memory: [name, start, end, parent index, op id, exception id]."""

    def __init__(self, svmem):
        self.spans: list[list] = []
        self.op = None  # spans are recorded only while an op id is set
        self.names: set[str] = set()  # every span name a wrapper can record
        self._stack: list[int] = []
        modules = {layer: importlib.import_module(f"svmem.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        self._sites = []  # (owner, attribute, original, replacement)
        for mod in (svmem, *modules.values()):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._sites.append((mod, attr, obj, wrappers[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[attr]
            name = f"{layer}.{attr}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._sites.append((cls, attr, raw, new))

    def _wrap(self, name, fn):
        self.names.add(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                record[ERROR] = id(exc)
                raise
            finally:
                stack.pop()
                record[END] = clock()

        return traced

    def install(self) -> None:
        for owner, attr, _, new in self._sites:
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old, _ in self._sites:
            setattr(owner, attr, old)


def summarize(spans, op_times: dict, rejected_ops: set) -> dict:
    """Per-span-name calls, busy and self time, and per-layer errors.

    Self time is a span's duration minus the durations of its direct
    children; the harness's own time in an op is the op's duration minus
    its top-level spans. Both are totals over the traced ops.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            parent = spans[s[PARENT]]
            if not (parent[START] <= s[START] and s[END] <= parent[END] and parent[OP] == s[OP]):
                raise ValueError(f"span {s[NAME]} is not nested inside {parent[NAME]}")
            child[s[PARENT]] += s[END] - s[START]
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_time = defaultdict(float)
    top = defaultdict(float)
    raised = defaultdict(set)  # (layer, expected rejection?) -> {(op, exception id)}
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        calls[s[NAME]] += 1
        busy[s[NAME]] += duration
        self_time[s[NAME]] += duration - child[i]
        if s[PARENT] < 0:
            top[s[OP]] += duration
        if s[ERROR] is not None:
            layer = s[NAME].split(".", 1)[0]
            raised[layer, s[OP] in rejected_ops].add((s[OP], s[ERROR]))
    harness = sum(op_times[op] - top[op] for op in op_times)
    return {
        "calls": calls,
        "busy": busy,
        "self": self_time,
        "harness_self": harness,
        "errors": {layer: len(raised[layer, False]) for layer in LAYERS},
        "rejections": {layer: len(raised[layer, True]) for layer in LAYERS},
    }
