"""Per-layer span tracer for the benchmark's traced runs.

:func:`install` wraps public callables of each layer of ``repro`` (named
after the package's modules) so every call becomes a span.  A layer's *self
time* is the time its spans were open minus the time covered by nested
spans on the same thread, so the layers of one process add up to at most
the process's busy time.

The tracer lives in the benchmark's own files; the program is unchanged.
A wrapped name that does not exist in the checked-out program is recorded
in ``absent`` and its layer simply reports nothing.

Pool workers fork from a traced parent and inherit the wrappers.  The fork
hook resets their totals, and each worker rewrites ``trace-<pid>.json`` in
the dump directory whenever one of its outermost spans ends (forked workers
exit through ``os._exit``, so nothing may wait for their shutdown).  The
traced process itself calls :meth:`Tracer.dump` when it is done;
:func:`merge` sums every file of a dump directory.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: layer -> callables ("module:attribute.path") whose calls are its spans.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "api.resolve": ("repro.api.session:Session.resolve",),
    "workloads.build": ("repro.workloads.synthetic:build_workload",),
    "stressmark.codegen": ("repro.stressmark.codegen:CodeGenerator.generate",),
    "ga": ("repro.ga.engine:GeneticAlgorithm.run",),
    "parallel.dispatch": ("repro.parallel.backends:EvaluationBackend.evaluate_batch",),
    "uarch.kernel_build": (
        "repro.uarch.kernel:kernel_for",
        "repro.uarch.kernel:batch_kernel_for",
        "repro.uarch.kernel:vector_kernel_for",
    ),
    "uarch.warm_clone": (
        "repro.uarch.kernel_batch:WarmState.materialize",
        "repro.uarch.kernel_vector:VectorWarmState.materialize",
    ),
    "uarch.run": (
        "repro.uarch.kernel_backends:KernelBackend.run_one",
        "repro.uarch.kernel_backends:KernelBackend.run_many",
    ),
    "memory.warm": ("repro.memory.hierarchy:MemoryHierarchy.warm_region",),
    "memory.finalize": ("repro.memory.hierarchy:MemoryHierarchy.finalize",),
    "vuln.collect": ("repro.vuln.ledger:VulnerabilityLedger.collect",),
    "avf.report": ("repro.avf.report:build_report",),
    "store.get": (
        "repro.store.result_store:ResultStore.get",
        "repro.store.artifacts:ArtifactStore.get",
    ),
    "store.put": (
        "repro.store.result_store:ResultStore.put",
        "repro.store.artifacts:ArtifactStore.put",
    ),
}

#: Calls that are counted but open no span.  A compile is the work a kernel
#: lookup does on a memo miss, so it counts kernel builds without taking
#: time away from the ``uarch.kernel_build`` layer.
COUNT_TARGETS: dict[str, tuple[str, ...]] = {
    "uarch.kernel_compiles": (
        "repro.uarch.kernel:compile_kernel",
        "repro.uarch.kernel:compile_batch_kernel",
        "repro.uarch.kernel:compile_vector_kernel",
    ),
}

#: Fallback counters the program exposes ("module:attribute.path").
FALLBACK_COUNTERS = (
    "repro.uarch.kernel:STATS.failures",
    "repro.uarch.kernel_vector:STATS.fallbacks",
)


def _resolve(target: str):
    """(owner, attribute name, current value) of a target, or None."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


def _read_counter(target: str) -> int:
    found = _resolve(target)
    return int(found[2]) if found is not None and isinstance(found[2], int) else 0


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class Tracer:
    """Span accounting shared by every wrapper installed in one process."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = Path(dump_dir)
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._auto_dump = False
        self._reset()

    def _reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._fallback_base = sum(_read_counter(name) for name in FALLBACK_COUNTERS)

    def after_fork(self) -> None:
        """A forked pool worker: start from zero and dump as spans close."""
        self._lock = threading.Lock()
        self._local = threading.local()
        self._auto_dump = True
        self._reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def call(self, layer: str, fn, args, kwargs):
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            with self._lock:
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
            if self._auto_dump and not stack:
                self.dump()

    def in_layer(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack())

    def snapshot(self) -> dict:
        fallbacks = sum(_read_counter(name) for name in FALLBACK_COUNTERS) - self._fallback_base
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": {**self.counts, "uarch.fallbacks": fallbacks},
                "absent": list(self.absent),
            }

    def dump(self) -> None:
        path = self.dump_dir / f"trace-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.snapshot()))
        os.replace(tmp, path)


def _span_wrapper(tracer: Tracer, layer: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(layer, fn, args, kwargs)
    return wrapper


def _run_wrapper(tracer: Tracer, fn):
    """uarch.run: also count the path taken and the simulated totals.

    Only the outermost kernel-backend call of a thread counts, so a backend
    that falls back to another backend's method is not counted twice.
    """
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        outermost = not tracer.in_layer("uarch.run")
        result = tracer.call("uarch.run", fn, (self, *args), kwargs)
        if outermost:
            backend = getattr(type(self), "name", type(self).__name__)
            tracer.count(f"uarch.path.{backend}")
            for sim in result if isinstance(result, list) else [result]:
                stats = getattr(sim, "stats", None)
                if stats is not None:
                    tracer.count("sim.cycles", int(stats.total_cycles))
                    tracer.count("sim.instructions", int(stats.committed_instructions))
        return result
    return wrapper


def _get_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call("store.get", fn, args, kwargs)
        tracer.count("store.gets")
        if result is not None:
            tracer.count("store.hits")
        return result
    return wrapper


def _count_wrapper(tracer: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(key)
        return fn(*args, **kwargs)
    return wrapper


def _make_wrapper(tracer: Tracer, layer: str, fn):
    if layer == "uarch.run":
        return _run_wrapper(tracer, fn)
    if layer == "store.get":
        return _get_wrapper(tracer, fn)
    return _span_wrapper(tracer, layer, fn)


def _patch(tracer: Tracer, target: str, make) -> None:
    found = _resolve(target)
    if found is None:
        tracer.absent.append(target)
        return
    owner, attr, value = found
    if isinstance(owner, type):
        # Patch the class and every subclass that overrides the method.
        for cls in _subclasses(owner):
            if attr in cls.__dict__ and callable(cls.__dict__[attr]):
                setattr(cls, attr, make(cls.__dict__[attr]))
        return
    replacement = make(value)
    # Rebind the function everywhere it was imported by name.
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and getattr(module, attr, None) is value:
            setattr(module, attr, replacement)


def install(dump_dir: str) -> Tracer:
    """Wrap every layer target and register the fork hook; returns the tracer."""
    import repro.api.session  # noqa: F401  (imports every layer's module)

    tracer = Tracer(dump_dir)
    for layer, targets in SPAN_TARGETS.items():
        for target in targets:
            _patch(tracer, target, lambda fn, layer=layer: _make_wrapper(tracer, layer, fn))
    for key, targets in COUNT_TARGETS.items():
        for target in targets:
            _patch(tracer, target, lambda fn, key=key: _count_wrapper(tracer, key, fn))
    os.register_at_fork(after_in_child=tracer.after_fork)
    return tracer


def merge(dump_dir: str) -> dict:
    """Sum the snapshots of every process that dumped into ``dump_dir``."""
    total = {"self_s": defaultdict(float), "calls": defaultdict(int),
             "counts": defaultdict(int), "absent": set(), "processes": 0}
    for path in sorted(Path(dump_dir).glob("trace-*.json")):
        snap = json.loads(path.read_text())
        total["processes"] += 1
        for section in ("self_s", "calls", "counts"):
            for key, value in snap[section].items():
                total[section][key] += value
        total["absent"].update(snap["absent"])
    return {
        "self_s": dict(total["self_s"]),
        "calls": dict(total["calls"]),
        "counts": dict(total["counts"]),
        "absent": sorted(total["absent"]),
        "processes": total["processes"],
    }
