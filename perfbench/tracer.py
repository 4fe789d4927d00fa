"""Span tracing for the traced run, applied from outside the package.

Each traced layer is a public function of ``specgraft``. The tracer rebinds
every module-level name in the package that refers to that function, so a
call made through ``engine``, ``drafttree`` or any other module passes
through one timing wrapper. Nothing inside ``src/`` changes, and removing
the tracer restores the original bindings.

Spans are kept in memory as per-thread aggregates (calls, total time, self
time, work units) and merged when the traced window ends. A span's self time
is its duration minus the time of the traced spans it called.
"""

from __future__ import annotations

import importlib
import pkgutil
import threading
import time
from dataclasses import dataclass

# (module, function) -> span name. Several functions may share a span name;
# their calls and times are then summed.
LAYERS = {
    ("drafttree", "expand_layer"): "drafttree.expand_layer",
    ("drafttree", "select_retained"): "drafttree.select_retained",
    ("drafttree", "resolve_stage"): "drafttree.resolve_stage",
    ("engine", "decode_session"): "engine.decode_session",
    ("engine", "build_next_tree"): "engine.build_next_tree",
    ("verify", "node_distributions"): "verify.node_distributions",
    ("verify", "verify_greedy"): "verify.greedy",
    ("verify", "verify_stochastic"): "verify.stochastic",
    ("retrieval", "update_from_verification"): "retrieval.update",
    ("retrieval", "instantiate"): "retrieval.instantiate",
    ("hybrid", "merge"): "hybrid.build",
    ("hybrid", "draft_only"): "hybrid.build",
    ("hybrid", "insert_root_variant"): "hybrid.build",
    ("hybrid", "insert_tail_variant"): "hybrid.build",
    ("_kernels", "stochastic_trials"): "_kernels.stochastic_trials",
}


def _distinct_rows(args, kwargs) -> int:
    """Matrix rows refreshed by one ``update_from_verification`` call."""
    pairs = kwargs.get("pairs", args[1] if len(args) > 1 else ())
    if not isinstance(pairs, (list, tuple)):
        return 0
    return len({int(p[0]) for p in pairs})


def _walks(args, kwargs) -> int:
    """Walks run by one ``stochastic_trials`` call (one row of uniforms each)."""
    uniforms = kwargs.get("uniforms", args[4] if len(args) > 4 else None)
    return 0 if uniforms is None else int(uniforms.shape[0])


# span name -> work units counted per call
WORK = {
    "retrieval.update": _distinct_rows,
    "_kernels.stochastic_trials": _walks,
}


@dataclass
class Span:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    work: int = 0

    def add(self, other: "Span") -> None:
        self.calls += other.calls
        self.total_ns += other.total_ns
        self.self_ns += other.self_ns
        self.work += other.work


class Tracer:
    """Install with :meth:`install`, remove with :meth:`remove`."""

    def __init__(self, package):
        self.package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, Span]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = {}
            local.stack = []
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def _wrap(self, fn, name: str):
        tracer = self
        count = WORK.get(name)

        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                child_ns = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span = state.spans.get(name)
                if span is None:
                    span = state.spans[name] = Span()
                span.calls += 1
                span.total_ns += elapsed
                span.self_ns += elapsed - child_ns
                if count is not None:
                    span.work += count(args, kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _modules(self):
        yield self.package
        for info in pkgutil.iter_modules(self.package.__path__):
            yield importlib.import_module(f"{self.package.__name__}.{info.name}")

    def install(self) -> None:
        modules = list(self._modules())
        for (module_name, attr), span_name in LAYERS.items():
            home = getattr(self.package, module_name, None)
            fn = getattr(home, attr, None)
            if fn is None:
                continue  # layer renamed or removed: its metrics read 0
            wrapper = self._wrap(fn, span_name)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, name, fn))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def spans(self) -> dict[str, Span]:
        merged: dict[str, Span] = {}
        with self._lock:
            for spans in self._per_thread:
                for name, span in spans.items():
                    merged.setdefault(name, Span()).add(span)
        return merged
