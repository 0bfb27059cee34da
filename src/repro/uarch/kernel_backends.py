"""Kernel backends: how a simulation request executes.

*How* :meth:`repro.uarch.pipeline.OutOfOrderCore.run` executes is a
registered component, selectable per run via spec (``kernel_backend``),
CLI (``--kernel-backend``) or environment (``REPRO_KERNEL_BACKEND``).
There is one compiled path and one oracle:

* ``vector`` (default) — the config-specialized compiled kernel over
  precomputed operand columns (:mod:`repro.uarch.kernel_vector`).  Every
  simulation goes through ``run_many``; a single run is a batch of one.
  Programs the column lowering cannot express run interpreted, per
  program.
* ``interpreted`` — the reference loop, the semantics oracle the compiled
  path is differentially tested against.

``batch`` and ``source`` — the names of two retired compiled paths — stay
accepted as aliases of ``vector``, so existing specs, scripts and
environments keep working.  Both backends are bit-identical by
construction; selection is purely about speed, which is why evaluation and
fitness-cache digests deliberately do *not* include the backend name —
results cached under one backend are valid under the other.

``REPRO_KERNEL=0`` forces the interpreter regardless of any selection.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.isa.program import Program
    from repro.uarch.pipeline import OutOfOrderCore, SimulationResult

#: Environment selector; the ``REPRO_KERNEL=0`` kill switch takes precedence.
BACKEND_ENV_VAR = "REPRO_KERNEL_BACKEND"

DEFAULT_BACKEND = "vector"

#: Retired backend names and the backend that now serves them.
ALIASES = {"batch": "vector", "source": "vector"}

KERNEL_BACKENDS = Registry("kernel backend")


class KernelBackend:
    """One way of executing a batch of simulations.

    ``run_many`` simulates a batch sharing whatever the backend can share
    (compiled code, warm state, operand plans); ``run_one`` is a batch of
    one.  Every backend must be bit-identical to the interpreted
    reference — the differential suite and the kernel-smoke gate enforce it.
    """

    name = "base"

    def run_one(
        self, core: "OutOfOrderCore", program: "Program", max_instructions: int
    ) -> "SimulationResult":
        return self.run_many(core, [program], max_instructions)[0]

    def run_many(
        self, core: "OutOfOrderCore", programs: list["Program"], max_instructions: int
    ) -> list["SimulationResult"]:
        raise NotImplementedError


class InterpretedBackend(KernelBackend):
    """The reference loop — the oracle the compiled path diffs against."""

    name = "interpreted"

    def run_many(self, core, programs, max_instructions):
        return [core.run_interpreted(program, max_instructions, True) for program in programs]


class VectorKernelBackend(KernelBackend):
    """The compiled column plane (see :mod:`repro.uarch.kernel_vector`)."""

    name = "vector"

    def run_many(self, core, programs, max_instructions):
        from repro.uarch import kernel_vector

        return kernel_vector.run_many(core, programs, max_instructions)


INTERPRETED = InterpretedBackend()
VECTOR = VectorKernelBackend()

KERNEL_BACKENDS.register("vector", lambda: VECTOR)
KERNEL_BACKENDS.register("interpreted", lambda: INTERPRETED)
for _alias in ALIASES:
    KERNEL_BACKENDS.register(_alias, lambda: VECTOR)


def resolve(name: Optional[str] = None) -> KernelBackend:
    """The kernel backend a run should execute through.

    Precedence: the ``REPRO_KERNEL=0`` kill switch (forces the
    interpreter), then an explicit ``name`` (spec/CLI pin), then
    ``REPRO_KERNEL_BACKEND``, then the default (``vector``).
    """
    from repro.uarch import kernel as _kernel

    if not _kernel.kernel_enabled():
        return INTERPRETED
    if not name:
        name = os.environ.get(BACKEND_ENV_VAR, "").strip() or DEFAULT_BACKEND
    return KERNEL_BACKENDS.create(name)
