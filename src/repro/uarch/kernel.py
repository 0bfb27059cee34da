"""The compiled simulator kernel: one per machine configuration, memoized.

:func:`vector_kernel_for` turns a machine configuration into the compiled
``vector_run(core, program, max_instructions, body_infos, warm)`` callable
of :mod:`repro.uarch.kernel_vector` by asking :mod:`repro.uarch.kernelgen`
for config-specialized Python source and ``compile()``/``exec()``-ing it
once.  Kernels are memoized at two levels:

* **in-process** — a bounded table keyed by config digest; every later
  simulation on the same configuration reuses the compiled code object.
  Worker processes keep their own table, so a process pool compiles each
  configuration's kernel at most once per worker.
* **across processes** — when an
  :class:`~repro.store.artifacts.ArtifactStore` is attached via
  :func:`configure_source_store` (the experiment context wires the result
  store's artifact database in), generated *source text* is persisted under
  a schema-versioned digest key.  Only source ships between processes and
  sessions — never closures or code objects — and each process compiles
  what it loads.  The operand plans of :mod:`repro.uarch.kernel_vector`
  persist through the same store.

``REPRO_KERNEL=0`` (also ``false``/``off``/``no``) disables the compiled
path globally; :meth:`OutOfOrderCore.run` then executes the interpreted
reference loop.  The two paths are bit-identical by construction (see
``tests/test_kernel_differential.py``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.parallel.cache import evaluation_context_digest
from repro.uarch.kernelgen import KERNEL_SCHEMA, generate_vector_kernel_source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.config import MachineConfig

#: Environment switch: set to 0/false/off/no to force the interpreted loop.
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: Programs with more static body instructions than this take the
#: interpreted path — bodies this large amortise interpretation fine.
MAX_KERNEL_BODY = 4096


@dataclass
class KernelStats:
    """Process-local counters for the kernel cache (observability/tests)."""

    generated: int = 0
    compiled: int = 0
    memo_hits: int = 0
    source_store_hits: int = 0
    failures: int = 0
    failed_digests: set = field(default_factory=set)

    def reset(self) -> None:
        self.generated = 0
        self.compiled = 0
        self.memo_hits = 0
        self.source_store_hits = 0
        self.failures = 0
        self.failed_digests.clear()


STATS = KernelStats()

#: Compiled kernels are one per distinct machine configuration — a GA
#: search uses exactly one — but a long-lived ``repro serve`` daemon can
#: meet many configs over its lifetime, so the memo is bounded.
CONFIG_KERNEL_CACHE_LIMIT = 64

#: Compiled vector kernels, keyed by config digest.
_vector_kernels: dict[str, Callable] = {}
_source_store = None
_source_store_pid: Optional[int] = None


def _lru_get(cache: dict, key):
    """Bounded-memo lookup that refreshes recency (move-to-end on hit).

    All kernel/plan/warm memos are plain insertion-ordered dicts bounded by
    evicting ``next(iter(...))``; refreshing on hit makes that eviction
    least-recently-*used* rather than first-inserted, so a long-lived serve
    daemon cycling through many configs keeps its hot entries.
    """
    value = cache.get(key)
    if value is not None:
        del cache[key]
        cache[key] = value
    return value


def _lru_put(cache: dict, key, value, limit: int) -> None:
    """Insert into a bounded memo, evicting least-recently-used entries."""
    if key in cache:
        del cache[key]
    while len(cache) >= limit:
        del cache[next(iter(cache))]
    cache[key] = value


def kernel_enabled() -> bool:
    """Whether the specialized-kernel path is active (default: yes)."""
    value = os.environ.get(KERNEL_ENV_VAR, "").strip().lower()
    return value not in ("0", "false", "off", "no")


def program_digest(program: "Program") -> str:
    """Content digest of a program (everything the generated source bakes in)."""
    return evaluation_context_digest("kernel-program", KERNEL_SCHEMA, program)


def config_digest(config: "MachineConfig") -> str:
    """Content digest of a machine configuration."""
    return evaluation_context_digest("kernel-config", KERNEL_SCHEMA, config)


def vector_source_key(cfg_digest: str) -> str:
    """ArtifactStore key one config's vector-kernel source is persisted under."""
    return f"kernel-vector-src|v{KERNEL_SCHEMA}|{cfg_digest}"


def configure_source_store(store) -> None:
    """Attach (or detach, with ``None``) a durable source cache.

    ``store`` is any ``get``/``put`` mapping — in practice the result
    store's :class:`~repro.store.artifacts.ArtifactStore`.  Generated source
    is written through so later processes and sessions skip codegen; the
    caller owns the store's lifetime.
    """
    global _source_store, _source_store_pid
    _source_store = store
    _source_store_pid = os.getpid() if store is not None else None


def detach_source_store(store) -> None:
    """Detach ``store`` if it is the currently configured source cache.

    Called when the owner (an experiment context whose result store is being
    closed) releases it, so the module never holds a closed database.  A
    different store configured in the meantime is left in place.
    """
    global _source_store
    if _source_store is store:
        configure_source_store(None)


# Attachment bookkeeping: several experiment contexts can share one result
# store (Session memoizes contexts per scale/jobs), and sessions over
# *different* stores can interleave.  The stack records attachment order
# (one entry per attach, duplicates allowed) so releasing the currently
# configured store restores the most recently attached survivor instead of
# silently disabling persistence for a still-open owner.
_attach_stack: list = []


def attach_source_store(store) -> None:
    """Stacked :func:`configure_source_store` for shared/interleaved owners."""
    _attach_stack.append(store)
    configure_source_store(store)


def release_source_store(store) -> None:
    """Drop one attachment of ``store``; reconfigure to the newest survivor."""
    for index in range(len(_attach_stack) - 1, -1, -1):
        if _attach_stack[index] is store:
            del _attach_stack[index]
            break
    if _source_store is not store:
        return
    for survivor in reversed(_attach_stack):
        if survivor is store:
            # Another attachment of the same store is still live.
            return
    configure_source_store(_attach_stack[-1] if _attach_stack else None)


def _discard_failed_store(store) -> None:
    """Drop a store that raised, everywhere: current slot *and* attach stack.

    A broken store (closed database, locked file) must neither stay
    configured nor lurk on the stack to be re-attached when a sibling
    releases; the newest healthy survivor — if any — takes over.
    """
    _attach_stack[:] = [entry for entry in _attach_stack if entry is not store]
    if _source_store is store:
        configure_source_store(_attach_stack[-1] if _attach_stack else None)


def _active_source_store():
    """The source store safe to use from *this* process.

    A sqlite connection must never be used across ``fork()``: pool workers
    inherit the module global, so on first use in a child process the store
    is reopened at the same path with a private connection (concurrent
    writers are serialized by sqlite's file locking).  Stores that cannot be
    reopened — or are not path-backed — are detached in the child.
    """
    global _source_store, _source_store_pid
    store = _source_store
    if store is None or _source_store_pid == os.getpid():
        return store
    path = getattr(store, "path", None)
    if path is None:
        _discard_failed_store(store)
        return None
    try:
        from repro.store.artifacts import ArtifactStore

        _source_store = ArtifactStore(path)
    except Exception:
        _discard_failed_store(store)
        return None
    _source_store_pid = os.getpid()
    return _source_store


def vector_kernel_for(config: "MachineConfig") -> Optional[Callable]:
    """The compiled config-specialized vector kernel, or ``None`` on failure.

    Failures (codegen or compile errors) are remembered per config digest
    and never retried, so a pathological configuration degrades to the
    interpreter once instead of paying the failed generation per run.
    """
    cfg_digest = config_digest(config)
    kernel = _lru_get(_vector_kernels, cfg_digest)
    if kernel is not None:
        STATS.memo_hits += 1
        return kernel
    failed_key = ("vector", cfg_digest)
    if failed_key in STATS.failed_digests:
        return None

    store = _active_source_store()
    source: Optional[str] = None
    from_store = False
    if store is not None:
        try:
            stored = store.get(vector_source_key(cfg_digest))
        except Exception:
            _discard_failed_store(store)
            store = None
            stored = None
        if isinstance(stored, str):
            source = stored
            from_store = True
            STATS.source_store_hits += 1

    kernel = None
    if source is not None:
        try:
            kernel = compile_vector_kernel(source, cfg_digest)
        except Exception:
            kernel = None
            source = None
            from_store = False
    if kernel is None:
        try:
            source = generate_vector_kernel_source(config)
            STATS.generated += 1
            kernel = compile_vector_kernel(source, cfg_digest)
        except Exception:
            STATS.failures += 1
            STATS.failed_digests.add(failed_key)
            return None
    if not from_store:
        store = _active_source_store()
        if store is not None:
            try:
                store.put(vector_source_key(cfg_digest), source)
            except Exception:
                _discard_failed_store(store)

    STATS.compiled += 1
    _lru_put(_vector_kernels, cfg_digest, kernel, CONFIG_KERNEL_CACHE_LIMIT)
    return kernel


def compile_vector_kernel(source: str, cfg_digest: str) -> Callable:
    """Compile generated vector-kernel source; returns its ``vector_run``."""
    filename = f"<repro-vector-kernel {cfg_digest[:12]}>"
    namespace: dict[str, object] = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["vector_run"]  # type: ignore[return-value]


def clear_kernels() -> None:
    """Drop every compiled kernel and reset counters (tests/benchmarks)."""
    _vector_kernels.clear()
    STATS.reset()
    from repro.uarch import kernel_vector

    kernel_vector.clear_vector_caches()
