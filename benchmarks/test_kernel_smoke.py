"""Compiled-kernel parity + throughput gate (tier-2 ``kernel_smoke``).

Checks on the compiled ``vector`` path (ARCHITECTURE.md, "Kernel
lifecycle"):

* **Golden parity** — the full ``avf-smoke`` workload matrix is simulated
  twice, once through the compiled path and once through the interpreted
  reference loop (``REPRO_KERNEL=0``), and the canonical AVF/SER payloads
  are compared byte for byte; the compiled payload must also still match
  the checked-in ``benchmarks/golden_avf.json``.
* **Population parity** — one GA-generation-shaped population of derived
  stressmarks per config (baseline and extended) is simulated through the
  ``vector`` backend and through the interpreter, and the canonical
  per-structure AVF / group SER payloads are compared byte for byte at full
  ``repr`` precision.  Every genome must actually take the compiled path.
* **Throughput floor** — the 50k-op reference simulation through the
  compiled path must not fall more than 30% below the kernel baseline
  recorded in ``BENCH_pipeline.json``, and must beat the same entry's
  interpreted time.
* **Speedup floors** — :func:`repro.experiments.bench.bench_vector_speedup`
  is rerun and its vector-vs-interpreter speedups on a GA batch and on the
  workload suite are held to the first such baseline recorded in
  ``BENCH_ga.json`` minus the shared 30% regression allowance — and the GA
  floor never below what the retired batch-smoke floors demanded; the
  compiled path must also never be slower than the interpreter on either
  shape.

Run via ``make kernel-smoke`` or ``REPRO_KERNEL_SMOKE=1``; skipped in plain
test runs (the matrices take tens of seconds).
"""

from __future__ import annotations

import difflib
import json
import os

import pytest

from _bench_utils import MAX_REGRESSION, assert_kernel_throughput_floor, ga_bench_path
from repro.api.registry import CONFIGS
from repro.avf.analysis import StructureGroup
from repro.avf.goldens import avf_smoke_payload, golden_path, render_payload
from repro.avf.report import build_report
from repro.experiments.bench import baseline_entry, bench_pipeline, bench_vector_speedup
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel, kernel_vector
from repro.uarch.kernel_backends import INTERPRETED, VECTOR
from repro.uarch.pipeline import OutOfOrderCore

pytestmark = [pytest.mark.kernel_smoke]
if not os.environ.get("REPRO_KERNEL_SMOKE"):
    pytestmark.append(
        pytest.mark.skip(
            reason="kernel smoke disabled (set REPRO_KERNEL_SMOKE=1 or run `make kernel-smoke`)"
        )
    )

#: The retired batch-smoke gate demanded, on this GA batch shape, batch >=
#: 1.716x the per-program ``source`` path (recorded 2.451x - 30%) and
#: vector >= 3.353x batch (recorded 4.790x - 30%): vector >= 5.753x
#: ``source``.  ``source`` ran fresh genomes at 0.739x the interpreter's
#: speed (2 vCPU, Python 3.11), so those floors demanded vector >= 4.25x the
#: interpreter; the GA floor never drops below that.
RETIRED_GA_FLOOR = 4.25

#: The population parity matrix: the paper baseline and the flag-gated extensions.
SMOKE_CONFIGS = ("baseline", "extended")
POPULATION = 6
INSTRUCTIONS = 4_000


def _diff(expected: str, got: str, tofile: str) -> str:
    return "\n".join(
        difflib.unified_diff(
            expected.splitlines(), got.splitlines(),
            fromfile="interpreted", tofile=tofile, lineterm="", n=2,
        )
    )[:4000]


def _population_payload(config_name: str, backend) -> str:
    """Canonical AVF/SER JSON of one simulated population (byte-comparable)."""
    config = CONFIGS.create(config_name)
    generator = StressmarkGenerator(config=config, max_instructions=INSTRUCTIONS)
    knobs = reference_knobs(config)
    programs = [
        generator.codegen.generate(knobs.derive(random_seed=seed))
        for seed in range(1, POPULATION + 1)
    ]
    core = OutOfOrderCore(config, seed=generator.simulation_seed)
    results = backend.run_many(core, programs, INSTRUCTIONS)
    payload: dict[str, object] = {}
    for index, result in enumerate(results):
        report = build_report(result, generator.fault_rates)
        payload[f"{config_name}/genome-{index}"] = {
            "cycles": report.total_cycles,
            "instructions": report.committed_instructions,
            "avf": {s.value: repr(v) for s, v in report.structure_avf.items()},
            "ser": {g.value: repr(report.ser(g)) for g in StructureGroup},
        }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


class TestKernelParity:
    def test_golden_matrix_identical_under_kernels(self, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        assert kernel.kernel_enabled()
        kernel_vector.STATS.reset()
        kernel_payload = render_payload(avf_smoke_payload())
        assert kernel_vector.STATS.vector_runs > 0, "compiled path never engaged"
        assert kernel_vector.STATS.fallbacks == 0, "golden programs fell back"

        monkeypatch.setenv(kernel.KERNEL_ENV_VAR, "0")
        assert not kernel.kernel_enabled()
        interpreted_payload = render_payload(avf_smoke_payload())

        if kernel_payload != interpreted_payload:
            pytest.fail(
                "kernel path diverged from the interpreter:\n"
                + _diff(interpreted_payload, kernel_payload, "kernel")
            )

        path = golden_path()
        if path.exists():
            assert kernel_payload == path.read_text(), (
                "kernel path drifted from benchmarks/golden_avf.json"
            )

    @pytest.mark.parametrize("config_name", SMOKE_CONFIGS)
    def test_population_identical_under_vector_plane(self, config_name):
        kernel.clear_kernels()
        vector_payload = _population_payload(config_name, VECTOR)
        assert kernel_vector.STATS.vector_runs == POPULATION, (
            "vector kernel did not run every genome — the gate compared too little "
            f"(fallbacks: {kernel_vector.STATS.fallbacks})"
        )
        interpreted_payload = _population_payload(config_name, INTERPRETED)
        if vector_payload != interpreted_payload:
            pytest.fail(
                "vector plane diverged from the interpreter:\n"
                + _diff(interpreted_payload, vector_payload, "vector")
            )


class TestKernelThroughput:
    def test_kernel_throughput_floor(self, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        metrics = bench_pipeline(instructions=50_000, repeats=3)
        assert metrics["kernel"], "kernel path inactive despite REPRO_KERNEL being unset"
        assert metrics["cold_seconds"] >= metrics["seconds"] > 0
        assert metrics["seconds"] <= metrics["interpreted_seconds"] * (1.0 + 0.05), (
            f"kernel ({metrics['seconds']:.3f}s) slower than the interpreter "
            f"({metrics['interpreted_seconds']:.3f}s)"
        )
        assert_kernel_throughput_floor(metrics, pytest)

    def test_vector_speedup_floors(self, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        metrics = bench_vector_speedup()
        assert metrics["kernel"], "kernel path inactive despite REPRO_KERNEL being unset"
        assert metrics["deterministic"], "vector and interpreted paths disagreed"
        for shape in ("ga", "suite"):
            assert metrics[f"{shape}_speedup"] >= 1.0, (
                f"{shape}: vector ({metrics[f'{shape}_vector_seconds']:.3f}s) slower than "
                f"the interpreter ({metrics[f'{shape}_interpreted_seconds']:.3f}s)"
            )
        recorded = baseline_entry(
            ga_bench_path(),
            lambda entry: isinstance(entry.get("kernel_vector"), dict)
            and "suite_speedup" in entry["kernel_vector"]
            and entry["kernel_vector"].get("kernel"),
        )
        if recorded is None:
            pytest.skip("no recorded vector baseline (run `python -m repro bench` first)")
        for shape in ("ga", "suite"):
            baseline = recorded["kernel_vector"][f"{shape}_speedup"]
            floor = baseline * (1.0 - MAX_REGRESSION)
            if shape == "ga":
                floor = max(floor, RETIRED_GA_FLOOR)
            assert metrics[f"{shape}_speedup"] >= floor, (
                f"{shape}: vector speedup {metrics[f'{shape}_speedup']:.2f}x fell below "
                f"recorded baseline {baseline:.2f}x (-{MAX_REGRESSION:.0%} floor {floor:.2f}x)"
            )
