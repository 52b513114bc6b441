"""Outside-in span tracer for the ``qmedr`` package.

The tracer replaces every public function of each ``qmedr`` module, at every
binding in the ``qmedr`` namespace (``pipeline.build_problem`` as well as
``embedding.build_problem``), with a wrapper that records a span: its name,
its parent, its start and end, and, when installed with ``memory=True``, the
``tracemalloc`` peak reached inside it above the traced memory at entry.
``tracemalloc`` slows every Python allocation, so times are taken from
rounds traced without it. Spans are recorded only while a report is open,
are kept in memory and are written out once by the caller. Nothing in the
package itself changes; ``uninstall`` restores every binding.

A direct recursive call (``json_clean`` calling itself) is counted but folded
into the open span, so a walk over a large nested document adds one span, not
one per element.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

LAYERS = (
    "datasets", "embedding", "linalg", "classical", "block_encoding",
    "quantum_sim", "resources", "pipeline", "cli",
)


class Tracer:
    def __init__(self, package: str = "qmedr"):
        root = importlib.import_module(package)
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        names = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    names[id(obj)] = (obj, f"{layer}.{name}")
        self._wrappers = {fid: self._wrap(fn, key) for fid, (fn, key) in names.items()}
        self._bindings = [
            (ns, attr, obj)
            for ns in (root, *modules.values())
            for attr, obj in list(vars(ns).items())
            if id(obj) in self._wrappers
        ]
        self.spans: list[tuple] = []
        self.calls: dict[int, dict[str, int]] = {}
        self._stack: list[list] = []
        self._report: int | None = None
        self._memory = False
        self._next_id = 0

    @property
    def binding_count(self) -> int:
        return len(self._bindings)

    def install(self, memory: bool) -> None:
        for ns, attr, fn in self._bindings:
            setattr(ns, attr, self._wrappers[id(fn)])
        self._memory = memory
        if memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self._memory:
            tracemalloc.stop()
        for ns, attr, fn in self._bindings:
            setattr(ns, attr, fn)

    def begin_report(self, report: int) -> None:
        self._report = report
        self.calls[report] = {}

    def end_report(self) -> None:
        if self._stack:
            raise RuntimeError("report ended with open spans")
        self._report = None

    def _wrap(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            report = tracer._report
            if report is None:
                return fn(*args, **kwargs)
            calls = tracer.calls[report]
            calls[key] = calls.get(key, 0) + 1
            stack = tracer._stack
            if stack and stack[-1][2] == key:
                return fn(*args, **kwargs)
            frame = tracer._enter(key)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(frame)

        return wrapper

    def _enter(self, key: str) -> list:
        current, peak = tracemalloc.get_traced_memory() if self._memory else (0, 0)
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent[6] = max(parent[6], peak)
            parent_id = parent[0]
        else:
            parent_id = None
        if self._memory:
            tracemalloc.reset_peak()
        self._next_id += 1
        # [id, parent, key, start, child time, memory at entry, carried peak]
        frame = [self._next_id, parent_id, key, 0.0, 0.0, current, current]
        stack.append(frame)
        frame[3] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        peak = max(frame[6], tracemalloc.get_traced_memory()[1] if self._memory else 0)
        stack = self._stack
        stack.pop()
        duration = end - frame[3]
        if stack:
            parent = stack[-1]
            parent[4] += duration
            parent[6] = max(parent[6], peak)
        self.spans.append((
            self._report, frame[0], frame[1], frame[2], frame[3], end,
            duration - frame[4], peak - frame[5],
        ))


SPAN_FIELDS = ("report", "id", "parent", "name", "start", "end", "self_s", "peak_bytes")


def summarize(spans, calls: dict[str, int]) -> dict:
    """Per-report totals: self time, calls and peak per layer and per function.

    ``root_s`` is the duration of the outermost spans; the self times of all
    spans add up to it exactly, because spans nest in one thread.
    """
    out: dict[str, float] = {}
    root = 0.0
    for span in spans:
        name, self_s, peak = span[3], span[6], span[7]
        layer = name.split(".", 1)[0]
        for key in (layer, name):
            out[f"{key}.s"] = out.get(f"{key}.s", 0.0) + self_s
            out[f"{key}.peak_mb"] = max(out.get(f"{key}.peak_mb", 0.0), peak / 2**20)
        if span[2] is None:
            root += span[5] - span[4]
    for name, n in calls.items():
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + n
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + n
    out["root_s"] = root
    return out
