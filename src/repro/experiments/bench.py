"""Performance regression harness (``repro bench``).

Times the repository's throughput-critical paths and records the numbers
as *trajectories* in JSON files, so every future change is held to the
recorded baselines:

* ``BENCH_pipeline.json`` — one 50k-instruction detailed simulation of the
  reference stressmark on the baseline configuration (the unit of work every
  GA fitness evaluation pays), cold (kernel build included) and warm.
* ``BENCH_ga.json`` — one full quick-scale GA stressmark search (a small
  number of generations, the shape of every figure-5/7/8 experiment), plus
  the wall-clock speedup of the default ``--jobs`` pool over the serial
  backend on one batch of independent evaluations, plus the compiled path's
  speedup over the interpreted reference on a GA-shaped batch of fresh
  genomes and on the workload-proxy suite (``kernel_vector``).

Every entry also records the environment it was measured in (python,
machine, numpy version or ``"absent"``, timestamp) so trajectory numbers
are comparable across hosts and installs.

Each ``repro bench`` run appends an entry to the files' ``entries`` list;
the first entry is the recorded baseline that ``benchmarks/
test_perf_simulator.py`` (the ``perf_smoke`` tier-2 gate, see
PERFORMANCE.md) compares against.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Optional

from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.ga.individual import Individual
from repro.parallel.backends import SerialBackend, create_backend, resolve_jobs
from repro.stressmark.generator import StressmarkEvaluator, StressmarkGenerator, reference_knobs
from repro.stressmark.knobs import KnobSpace
from repro.uarch.config import baseline_config
from repro.uarch.pipeline import OutOfOrderCore

#: Default trajectory file names (written to the current working directory).
PIPELINE_BENCH_FILE = "BENCH_pipeline.json"
GA_BENCH_FILE = "BENCH_ga.json"


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        callable_()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def bench_pipeline(instructions: int = 50_000, repeats: int = 3) -> dict:
    """Time a single detailed simulation of the reference stressmark.

    Times both execution paths — the compiled kernel (the default; see
    PERFORMANCE.md and ``REPRO_KERNEL``) and the interpreted reference loop
    — and asserts they produce identical results.  ``cold_seconds`` is the
    first run after every kernel memo is cleared, so it includes the kernel
    build, the functional warm-up and its freeze, as a fresh process pays
    them; ``seconds`` / ``instructions_per_second`` describe the warm path
    every later GA fitness evaluation pays.  ``kernel_build_seconds`` is the
    codegen + compile cost of the configuration's kernel alone.
    """
    from repro.uarch import kernel as kernel_cache
    from repro.uarch.kernelgen import generate_vector_kernel_source

    config = baseline_config()
    generator = StressmarkGenerator(config=config, max_instructions=instructions)
    program = generator.codegen.generate(reference_knobs(config))
    core = OutOfOrderCore(config, seed=1)

    interpreted_result = core.run_interpreted(program, max_instructions=instructions)
    interpreted_seconds = _best_of(
        lambda: core.run_interpreted(program, max_instructions=instructions), repeats
    )

    kernel_active = kernel_cache.kernel_enabled()
    build_seconds = 0.0
    if kernel_active:
        # Direct codegen + compile cost, independent of the memo state (the
        # throwaway code object is not installed in the kernel cache).
        build_start = time.perf_counter()
        kernel_cache.compile_vector_kernel(generate_vector_kernel_source(config), "bench-probe")
        build_seconds = time.perf_counter() - build_start
    kernel_cache.clear_kernels()
    cold_start = time.perf_counter()
    result = core.run(program, max_instructions=instructions)
    cold_seconds = time.perf_counter() - cold_start
    seconds = _best_of(lambda: core.run(program, max_instructions=instructions), repeats)
    kernel_identical = _signature(result) == _signature(interpreted_result)
    return {
        "instructions": instructions,
        "seconds": seconds,
        "cold_seconds": cold_seconds,
        "instructions_per_second": instructions / seconds if seconds > 0 else 0.0,
        "total_cycles": result.stats.total_cycles,
        "ipc": result.stats.ipc,
        "kernel": kernel_active,
        "kernel_identical": kernel_identical,
        "kernel_build_seconds": build_seconds,
        "interpreted_seconds": interpreted_seconds,
        "kernel_speedup": interpreted_seconds / seconds if kernel_active and seconds > 0 else 1.0,
    }


def _signature(result) -> tuple:
    """Everything a simulation result can be compared on, exactly."""
    return (
        result.stats,
        {n: (a.occupied_entry_cycles, a.ace_bit_cycles) for n, a in result.accumulators.items()},
    )


def bench_ledger(events: int = 200_000, repeats: int = 3) -> dict:
    """Time the vulnerability ledger's event paths in isolation.

    Two probes, mirroring how the simulator drives the ledger:

    * ``events`` fill/read/write/evict lifetime events against one storage
      structure's word tracker (the per-access cost the memory hierarchy
      pays), over a working set small enough to stay allocation-stable;
    * one :meth:`~repro.vuln.ledger.VulnerabilityLedger.credit` flush per
      simulated run for the core structures (amortised to ~zero — recorded
      here so a regression to per-op account writes would show up).
    """
    from repro.vuln.ledger import VulnerabilityLedger

    config = baseline_config()

    def drive_events() -> None:
        ledger = VulnerabilityLedger(config)
        tracker = ledger.word_tracker("dl1", 64)
        fill = tracker.record_fill
        read = tracker.record_read
        write = tracker.record_write
        evict = tracker.record_evict
        lines = 512
        for i in range(events // 4):
            line = i % lines
            word = (i >> 3) % 8
            fill(line, word, i)
            read(line, word, i + 1, ace=True)
            write(line, word, i + 2, ace=bool(i & 1))
            evict(line, word, i + 3)
        tracker.finalize(events)
        ledger.collect()

    seconds = _best_of(drive_events, repeats)

    core_names = ("iq", "rob", "lq_tag", "lq_data", "sq_tag", "sq_data", "rf", "fu")
    flushes_per_structure = 1_000

    def drive_credits() -> None:
        ledger = VulnerabilityLedger(config)
        credit = ledger.credit
        for name in core_names:
            for _ in range(flushes_per_structure):
                credit(name, 10.0, 640.0)

    credit_seconds = _best_of(drive_credits, repeats)
    return {
        "events": events,
        "seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else 0.0,
        "credit_flushes": len(core_names) * flushes_per_structure,
        "credit_seconds": credit_seconds,
    }


def bench_ga(jobs: Optional[int] = None, generations: int = 2, population: int = 8) -> dict:
    """Time a small GA stressmark search at quick scale.

    Routed through the declarative run API like every other consumer: the
    benchmark is one canned :class:`RunSpec` whose ``scale_overrides`` pin
    the GA effort, executed by a :class:`Session`.
    """
    jobs = resolve_jobs(jobs)
    spec = RunSpec(
        kind="stressmark",
        name="bench_ga",
        scale="quick",
        scale_overrides={
            "stressmark_instructions": 6_000,
            "ga_population": population,
            "ga_generations": generations,
            "simulation_seed": 1,
        },
        seed=7,
    )
    with Session(jobs=jobs) as session:
        start = time.perf_counter()
        result = session.run(spec)
        seconds = time.perf_counter() - start
    ga = result.ga or {}
    return {
        "jobs": jobs,
        "cores": os.cpu_count() or 1,
        "generations": generations,
        "population": population,
        "seconds": seconds,
        "evaluation_seconds": ga.get("evaluation_seconds", 0.0),
        "evaluations": ga.get("evaluations", 0),
        "cache_hits": ga.get("cache_hits", 0),
        "cache_misses": ga.get("cache_misses", 0),
        "best_fitness": ga.get("best_fitness", 0.0),
    }


def bench_parallel_speedup(jobs: Optional[int] = None, batch: int = 8) -> dict:
    """Serial vs pooled wall clock on one batch of GA evaluations.

    The pooled side is the backend ``create_backend(jobs)`` returns — the
    one every ``--jobs`` run uses (the resilient pool for ``jobs > 1``);
    ``backend`` records its class name.

    The batch mirrors one GA generation: ``batch`` independent fitness
    evaluations of distinct genomes.  Fitness values must be identical under
    both backends (the determinism contract).

    Warm-up and steady state are timed **separately**, and the steady batch
    is shaped like a real GA generation: *fresh* genomes on a warm pool.
    ``warmup_seconds`` covers pool spin-up (process fork, module
    initialisation) plus one full untimed batch of distinct genomes so
    every worker builds its per-task state; ``steady_seconds`` then times a
    second batch of previously unseen genomes — each paying its own
    simulator-kernel build, exactly as GA generations do — on the warm
    workers.  The serial reference runs the *same* fresh batch in the
    parent process, which compiled none of its kernels (the pool forks
    before the parent touches them), so neither side gets a memoization
    head start and the headline ``speedup`` (serial over steady) measures
    parallelism honestly.  (Field-meaning change in the trajectory:
    entries before PR 5 recorded ``parallel_seconds`` after an untimed
    single-item warm-up — spin-up excluded, but ``jobs - 1`` workers still
    paying first-task construction inside the timed batch; since PR 5
    ``parallel_seconds`` is ``warmup + steady`` and *includes* spin-up, so
    compare ``steady_seconds`` across the boundary.)  ``cores`` records
    how much hardware parallelism was actually available: with fewer cores
    than jobs a steady-state speedup >1 is not physically reachable for
    this CPU-bound work, and the entry says so instead of hiding it.
    """
    jobs = resolve_jobs(jobs)
    config = baseline_config()
    knob_space = KnobSpace(config)
    generator = StressmarkGenerator(config=config, max_instructions=6_000)
    evaluator = StressmarkEvaluator(
        config=config,
        fault_rates=generator.fault_rates,
        fitness=generator.fitness,
        knob_space=knob_space,
        max_instructions=generator.max_instructions,
        simulation_seed=generator.simulation_seed,
    )
    reference = reference_knobs(config)

    def genomes(first_seed: int) -> list[Individual]:
        return [
            Individual(genome=reference.derive(random_seed=seed).to_genome())
            for seed in range(first_seed, first_seed + batch)
        ]

    warm_batch = genomes(0)
    # Two distinct fresh batches: a timing is only as good as its quietest
    # run, so steady/serial are each the best of two cold batches (a batch
    # can be cold only once — repeats would hit the kernel memo).
    fresh_batches = [genomes(batch), genomes(2 * batch)]

    # Pool first: workers fork before the parent compiles any fresh-batch
    # kernel, so the pool's steady batches and the serial reference both
    # meet those genomes cold.
    pool = create_backend(jobs)
    pool_outcomes = []
    steady_timings = []
    try:
        start = time.perf_counter()
        pool.evaluate_individuals(evaluator, [individual.copy() for individual in warm_batch])
        warmup_seconds = time.perf_counter() - start
        for fresh in fresh_batches:
            start = time.perf_counter()
            pool_outcomes.append(
                pool.evaluate_individuals(evaluator, [ind.copy() for ind in fresh])
            )
            steady_timings.append(time.perf_counter() - start)
    finally:
        pool.close()
    steady_seconds = min(steady_timings)

    serial = SerialBackend()
    serial.evaluate_individuals(evaluator, [warm_batch[0].copy()])  # untimed warm-up
    serial_outcomes = []
    serial_timings = []
    for fresh in fresh_batches:
        start = time.perf_counter()
        serial_outcomes.append(
            serial.evaluate_individuals(evaluator, [ind.copy() for ind in fresh])
        )
        serial_timings.append(time.perf_counter() - start)
    serial_seconds = min(serial_timings)

    serial_fitness = [fitness for run in serial_outcomes for fitness, _ in run]
    pool_fitness = [fitness for run in pool_outcomes for fitness, _ in run]
    return {
        "jobs": jobs,
        "backend": type(pool).__name__,
        "cores": os.cpu_count() or 1,
        "batch": batch,
        "serial_seconds": serial_seconds,
        "warmup_seconds": warmup_seconds,
        "steady_seconds": steady_seconds,
        "parallel_seconds": warmup_seconds + steady_seconds,
        "speedup": serial_seconds / steady_seconds if steady_seconds > 0 else 0.0,
        "deterministic": serial_fitness == pool_fitness,
    }


def bench_vector_speedup(
    batch: int = 8, instructions: int = 6_000, suite_instructions: int = 4_000
) -> dict:
    """The compiled path vs the interpreted reference, on two shapes.

    * **GA batch** — one GA-generation-shaped batch of ``batch`` *fresh*
      genomes (never seen by any memo) through the ``vector`` backend's
      ``run_many`` and through the interpreter.  An untimed warm-up batch
      first compiles the config kernel and freezes the shared warm state,
      so the vector side measures the steady state a GA search lives in;
      fresh batches still pay their own operand plans and column builds
      inside the timed region (so does every real generation).  Each side
      is best-of-two over two distinct fresh batches.
    * **workload suite** — every workload proxy of the registered suites,
      built for the baseline config and simulated one at a time through
      ``run_one``, as the figure commands do.  Each proxy has its own
      warm-up footprint, so the vector side pays one functional warm-up and
      freeze per proxy inside the timed region; only the config kernel is
      compiled beforehand.

    Both shapes must be bit-identical to the interpreter
    (``deterministic``).  ``ga_speedup`` and ``suite_speedup`` are the
    numbers the ``kernel-smoke`` tier-2 gate holds future changes to.
    """
    from repro.uarch import kernel as kernel_cache
    from repro.uarch.kernel_backends import INTERPRETED, VECTOR
    from repro.workloads.suite import all_profiles
    from repro.workloads.synthetic import build_workload

    config = baseline_config()
    generator = StressmarkGenerator(config=config, max_instructions=instructions)
    reference = reference_knobs(config)
    codegen = generator.codegen

    def programs(first_seed: int) -> list:
        return [
            codegen.generate(reference.derive(random_seed=seed))
            for seed in range(first_seed, first_seed + batch)
        ]

    kernel_cache.clear_kernels()
    core = OutOfOrderCore(config, seed=generator.simulation_seed)
    kernel_active = kernel_cache.kernel_enabled()
    VECTOR.run_many(core, programs(0), instructions)  # untimed warm-up batch

    def timed(run) -> tuple[float, list]:
        start = time.perf_counter()
        results = run()
        return time.perf_counter() - start, results

    fresh_batches = [programs(batch), programs(2 * batch)]
    vector_runs = [timed(lambda: VECTOR.run_many(core, fresh, instructions)) for fresh in fresh_batches]
    interpreted_runs = [
        timed(lambda: INTERPRETED.run_many(core, fresh, instructions)) for fresh in fresh_batches
    ]
    ga_vector_seconds = min(seconds for seconds, _ in vector_runs)
    ga_interpreted_seconds = min(seconds for seconds, _ in interpreted_runs)

    suite = [build_workload(profile, config, seed=11) for profile in all_profiles()]
    kernel_cache.clear_kernels()
    kernel_cache.vector_kernel_for(config)
    suite_vector_seconds, suite_vector = timed(
        lambda: [VECTOR.run_one(core, program, suite_instructions) for program in suite]
    )
    suite_interpreted_seconds, suite_interpreted = timed(
        lambda: [INTERPRETED.run_one(core, program, suite_instructions) for program in suite]
    )

    pairs = [
        (via_vector, via_interpreted)
        for (_, vector_run), (_, interpreted_run) in zip(vector_runs, interpreted_runs)
        for via_vector, via_interpreted in zip(vector_run, interpreted_run)
    ]
    pairs.extend(zip(suite_vector, suite_interpreted))
    deterministic = all(_signature(a) == _signature(b) for a, b in pairs)
    return {
        "batch": batch,
        "instructions": instructions,
        "suite_programs": len(suite),
        "suite_instructions": suite_instructions,
        "kernel": kernel_active,
        "ga_vector_seconds": ga_vector_seconds,
        "ga_interpreted_seconds": ga_interpreted_seconds,
        "ga_speedup": ga_interpreted_seconds / ga_vector_seconds if ga_vector_seconds > 0 else 0.0,
        "suite_vector_seconds": suite_vector_seconds,
        "suite_interpreted_seconds": suite_interpreted_seconds,
        "suite_speedup": (
            suite_interpreted_seconds / suite_vector_seconds if suite_vector_seconds > 0 else 0.0
        ),
        "deterministic": deterministic,
    }


# ----------------------------------------------------------- trajectories


def _environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def load_trajectory(path: str | Path) -> dict:
    path = Path(path)
    if path.exists():
        return json.loads(path.read_text())
    return {"benchmark": path.stem, "entries": []}


def append_entry(path: str | Path, metrics: dict) -> dict:
    """Append one run's metrics to a trajectory file; returns the trajectory."""
    trajectory = load_trajectory(path)
    trajectory["entries"].append({**_environment(), **metrics})
    Path(path).write_text(json.dumps(trajectory, indent=2) + "\n")
    return trajectory


def baseline_entry(path: str | Path, predicate=None) -> Optional[dict]:
    """The first recorded entry of a trajectory (the regression baseline).

    ``predicate`` selects the first *matching* entry instead — used for
    metrics added to the trajectory after its first recording (e.g. the
    ledger microbenchmark).
    """
    entries = load_trajectory(path).get("entries", [])
    if predicate is None:
        return entries[0] if entries else None
    for entry in entries:
        if predicate(entry):
            return entry
    return None


def run_benchmarks(
    jobs: Optional[int] = None,
    pipeline_path: str | Path = PIPELINE_BENCH_FILE,
    ga_path: str | Path = GA_BENCH_FILE,
    instructions: int = 50_000,
    repeats: int = 3,
) -> dict:
    """Run the full harness, append to the trajectory files, return metrics."""
    jobs = resolve_jobs(jobs)
    pipeline_metrics = bench_pipeline(instructions=instructions, repeats=repeats)
    ledger_metrics = bench_ledger(repeats=repeats)
    ga_metrics = bench_ga(jobs=jobs)
    # The speedup probe always runs multi-worker (default 4) so the recorded
    # number is meaningful even when the GA itself was benchmarked serially.
    speedup_metrics = bench_parallel_speedup(jobs=jobs if jobs > 1 else 4)
    vector_metrics = bench_vector_speedup()
    append_entry(pipeline_path, {**pipeline_metrics, "ledger": ledger_metrics})
    append_entry(
        ga_path,
        {
            "ga": ga_metrics,
            "parallel": speedup_metrics,
            "kernel_vector": vector_metrics,
        },
    )
    return {
        "pipeline": pipeline_metrics,
        "ledger": ledger_metrics,
        "ga": ga_metrics,
        "parallel": speedup_metrics,
        "kernel_vector": vector_metrics,
    }
