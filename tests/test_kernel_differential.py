"""Differential suite: the compiled ``vector`` path vs the interpreted reference.

Every comparison checks *bit-identity*, not closeness: total cycles, commit
counters, branch/miss statistics, and every ledger account's occupancy and
ACE bit-cycle totals must match exactly (same float addition order, same RNG
consumption).  Programs cover the stressmark generator's output, the
synthetic workload proxies, seeded randomized programs over the whole ISA
and hypothesis-drawn ones; configurations cover the paper baseline, a
constrained derivative (small queues, fewer architected registers than the
ISA — exercising the kernel's non-resident register path), and the
``extended`` config (store buffer + L2 TLB).  Compiled runs also assert
that the column plane actually engaged (no silent fallback).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.instructions import (
    OperandWidth,
    make_alu,
    make_branch,
    make_div,
    make_load,
    make_mul,
    make_nop,
    make_prefetch,
    make_store,
)
from repro.isa.memoryref import (
    FixedPattern,
    LineCoverPattern,
    PointerChasePattern,
    RandomPattern,
    StridedPattern,
)
from repro.isa.program import BranchBehavior, Program, WarmupRegion
from repro.stressmark.generator import StressmarkGenerator, reference_knobs
from repro.uarch import kernel, kernel_backends, kernel_vector
from repro.uarch.config import MachineConfig, baseline_config, config_a, extended_config
from repro.uarch.kernel_backends import INTERPRETED, KERNEL_BACKENDS, VECTOR
from repro.uarch.pipeline import OutOfOrderCore
from repro.utils.rng import DeterministicRng
from repro.workloads.suite import all_profiles
from repro.workloads.synthetic import build_workload

STAT_FIELDS = (
    "total_cycles",
    "committed_instructions",
    "committed_ace_instructions",
    "branch_count",
    "branch_mispredictions",
    "l2_misses",
    "dl1_miss_rate",
    "l2_miss_rate",
    "dtlb_miss_rate",
)


def constrained_config() -> MachineConfig:
    """Small queues + fewer architected registers than the ISA exposes."""
    return baseline_config().derive(
        name="constrained",
        iq_entries=4,
        rob_entries=12,
        lq_entries=4,
        sq_entries=4,
        rename_registers=40,
        architected_registers=24,
        int_alus=1,
        int_multipliers=1,
        memory_issue_width=1,
        dispatch_width=2,
        commit_width=2,
    )


def assert_identical(reference, candidate, label: str) -> None:
    """Exact (bitwise) equality of two SimulationResults."""
    for fieldname in STAT_FIELDS:
        ref_value = getattr(reference.stats, fieldname)
        got_value = getattr(candidate.stats, fieldname)
        assert ref_value == got_value, f"{label}: stats.{fieldname} {ref_value} != {got_value}"
    assert list(reference.accumulators) == list(candidate.accumulators), f"{label}: account order"
    for name, ref_account in reference.accumulators.items():
        got_account = candidate.accumulators[name]
        assert ref_account.occupied_entry_cycles == got_account.occupied_entry_cycles, (
            f"{label}: {name} occupancy"
        )
        assert ref_account.ace_bit_cycles == got_account.ace_bit_cycles, f"{label}: {name} ACE"


def run_both(config, program, max_instructions, seed=3):
    core = OutOfOrderCore(config, seed=seed)
    reference = core.run_interpreted(program, max_instructions=max_instructions)
    fallbacks = kernel_vector.STATS.fallbacks
    candidate = VECTOR.run_one(core, program, max_instructions)
    assert kernel_vector.STATS.fallbacks == fallbacks, "compiled path fell back"
    return reference, candidate


def random_program(seed: int, name: str) -> Program:
    """A seeded random program spanning the whole ISA and pattern set."""
    rng = DeterministicRng(seed)
    body = []
    branch_behaviors = {}
    patterns = [
        FixedPattern(address=rng.randint(0, 1 << 16) * 8),
        StridedPattern(base=8192, stride=rng.randint(8, 256), region=1 << rng.randint(12, 18)),
        PointerChasePattern(base=1 << 20, stride=64, region=1 << 16),
        LineCoverPattern(base=4096, line_bytes=64, region=1 << 14,
                         slot=rng.randint(0, 1), slots=2, iteration_offset=rng.randint(-1, 1)),
        RandomPattern(base=0, region=1 << rng.randint(12, 20)),
    ]
    size = rng.randint(6, 24)
    for index in range(size):
        kind = rng.randint(0, 8)
        width = rng.choice([OperandWidth.WORD32, OperandWidth.WORD64])
        ace = rng.coin(0.8)
        dest = rng.randint(0, 31)
        srcs = [rng.randint(0, 31) for _ in range(rng.randint(0, 2))]
        if kind <= 2:
            body.append(make_alu(dest, srcs, width=width, ace=ace))
        elif kind == 3:
            body.append(make_mul(dest, srcs, width=width, ace=ace))
        elif kind == 4:
            body.append(make_div(dest, srcs, width=width, ace=ace))
        elif kind == 5:
            body.append(make_load(dest, rng.choice(patterns), srcs=srcs, width=width, ace=ace))
        elif kind == 6:
            body.append(make_store(rng.choice(patterns), srcs=srcs or [dest], width=width, ace=ace))
        elif kind == 7:
            if rng.coin(0.3):
                body.append(make_nop())
            else:
                body.append(make_prefetch(rng.choice(patterns)))
        else:
            body.append(make_branch(srcs=srcs, taken_probability=rng.uniform(0.0, 1.0), ace=ace))
            if rng.coin(0.5):
                branch_behaviors[index] = BranchBehavior.LOOP_CLOSING
    metadata = {}
    if rng.coin(0.5):
        metadata = {"frontend_miss_rate": rng.uniform(0.001, 0.05), "frontend_miss_penalty": rng.randint(4, 16)}
    return Program(
        name=name,
        body=body,
        iterations=rng.randint(20, 4000),
        branch_behaviors=branch_behaviors,
        warmup_regions=[WarmupRegion(base=4096, size_bytes=1 << 15, dirty=rng.coin(0.7))],
        metadata=metadata,
    )




class TestKernelDifferential:
    @pytest.mark.parametrize("config_factory", [baseline_config, config_a, extended_config, constrained_config])
    def test_reference_stressmark(self, config_factory):
        config = config_factory()
        generator = StressmarkGenerator(config=config, max_instructions=4_000)
        program = generator.codegen.generate(reference_knobs(config))
        reference, candidate = run_both(config, program, 4_000)
        assert_identical(reference, candidate, f"stressmark/{config.name}")

    @pytest.mark.parametrize("knob_seed", [1, 2, 3])
    def test_derived_stressmarks(self, knob_seed):
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=3_000)
        knobs = reference_knobs(config).derive(random_seed=knob_seed)
        program = generator.codegen.generate(knobs)
        reference, candidate = run_both(config, program, 3_000)
        assert_identical(reference, candidate, f"stressmark-knobs-{knob_seed}")

    @pytest.mark.parametrize("profile_index", [0, 7, 15, 23, 31])
    def test_workload_programs(self, profile_index):
        config = baseline_config()
        profile = all_profiles()[profile_index % len(all_profiles())]
        program = build_workload(profile, config, seed=11)
        reference, candidate = run_both(config, program, 3_000)
        assert_identical(reference, candidate, f"workload/{profile.name}")

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_programs(self, seed):
        program = random_program(seed, f"random-{seed}")
        for config_factory in (baseline_config, extended_config, constrained_config):
            config = config_factory()
            reference, candidate = run_both(config, program, 2_500)
            assert_identical(reference, candidate, f"random-{seed}/{config.name}")

    @pytest.mark.parametrize("budget", [1, 17, 81, 82, 1000, 2_047])
    def test_partial_iteration_budgets(self, budget):
        """Budgets that end mid-iteration exercise the kernel's tail pass."""
        config = baseline_config()
        program = random_program(99, "tail-program")
        reference, candidate = run_both(config, program, budget)
        assert_identical(reference, candidate, f"budget-{budget}")
        assert candidate.stats.committed_instructions == min(
            budget, len(program.body) * program.iterations
        )

    @settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        program_seed=st.integers(min_value=0, max_value=10_000),
        budget=st.integers(min_value=1, max_value=2_500),
        config_factory=st.sampled_from([baseline_config, extended_config]),
    )
    def test_random_programs_match_interpreter(self, program_seed, budget, config_factory):
        """Property: any random program, any budget, vector == interpreted."""
        config = config_factory()
        program = random_program(program_seed, f"prop-{program_seed}")
        reference, candidate = run_both(config, program, budget)
        assert_identical(reference, candidate, f"prop-{program_seed}/{config.name}/{budget}")

    @settings(
        max_examples=12,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        regions=st.lists(
            st.builds(
                WarmupRegion,
                base=st.integers(min_value=0, max_value=1 << 22).map(lambda value: value * 8),
                size_bytes=st.sampled_from([64, 100, 4096, 1 << 16, 3 << 18, 1 << 21, 5 << 20]),
                dirty=st.booleans(),
                ace=st.booleans(),
                word_fraction=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
                recurrent=st.booleans(),
            ),
            min_size=1,
            max_size=4,
        ),
        config_factory=st.sampled_from([baseline_config, extended_config, constrained_config]),
    )
    def test_random_footprints_match_interpreter(self, regions, config_factory):
        """Property: any overlapping warm-up footprint, vector == interpreted."""
        config = config_factory()
        program = random_program(len(regions), "footprint")
        program.warmup_regions = regions
        reference, candidate = run_both(config, program, 1_200)
        assert_identical(reference, candidate, f"footprint/{config.name}")

    def test_dispatcher_uses_kernel_by_default(self, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        monkeypatch.delenv(kernel_backends.BACKEND_ENV_VAR, raising=False)
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(5, "dispatch-check")
        core = OutOfOrderCore(config, seed=3)
        core.run(program, max_instructions=500)
        assert kernel.STATS.compiled == 1
        assert kernel_vector.STATS.vector_runs == 1
        core.run(program, max_instructions=500)
        assert kernel.STATS.memo_hits >= 1

    def test_repro_kernel_zero_forces_interpreter(self, monkeypatch):
        monkeypatch.setenv(kernel.KERNEL_ENV_VAR, "0")
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(6, "disabled-check")
        core = OutOfOrderCore(config, seed=3)
        core.kernel_backend = "vector"  # the kill switch beats an explicit pin
        disabled = core.run(program, max_instructions=500)
        assert kernel.STATS.compiled == 0 and kernel.STATS.generated == 0
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        enabled = core.run(program, max_instructions=500)
        assert kernel_vector.STATS.vector_runs == 1
        assert_identical(disabled, enabled, "env-switch")

    def test_explicit_setup_section_falls_back_to_interpreter(self):
        """functional_setup=False is out of kernel scope — results still match."""
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(7, "setup-check")
        program.setup = [make_alu(1, [0]), make_store(FixedPattern(address=64), srcs=[1])]
        core = OutOfOrderCore(config, seed=3)
        via_run = core.run(program, max_instructions=500, functional_setup=False)
        reference = core.run_interpreted(program, max_instructions=500, functional_setup=False)
        assert kernel.STATS.compiled == 0
        assert_identical(reference, via_run, "setup-fallback")


class TestBackendSelection:
    @pytest.mark.parametrize("alias", ["batch", "source"])
    def test_retired_names_resolve_to_vector(self, alias, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        assert KERNEL_BACKENDS.create(alias) is VECTOR
        assert kernel_backends.resolve(alias) is VECTOR
        monkeypatch.setenv(kernel_backends.BACKEND_ENV_VAR, alias)
        assert kernel_backends.resolve() is VECTOR

    def test_default_and_precedence(self, monkeypatch):
        monkeypatch.delenv(kernel.KERNEL_ENV_VAR, raising=False)
        monkeypatch.delenv(kernel_backends.BACKEND_ENV_VAR, raising=False)
        assert kernel_backends.resolve() is VECTOR
        monkeypatch.setenv(kernel_backends.BACKEND_ENV_VAR, "interpreted")
        assert kernel_backends.resolve() is INTERPRETED
        assert kernel_backends.resolve("vector") is VECTOR  # a pin beats the env
        monkeypatch.setenv(kernel.KERNEL_ENV_VAR, "0")
        assert kernel_backends.resolve("vector") is INTERPRETED  # kill switch wins

    def test_registry_holds_two_implementations(self):
        backends = {id(KERNEL_BACKENDS.create(name)) for name in KERNEL_BACKENDS.names()}
        assert backends == {id(VECTOR), id(INTERPRETED)}


def _with_setup(program):
    program.setup = [make_alu(1, [0]), make_store(FixedPattern(address=64), srcs=[1])]
    return program


def _emptied(program):
    program.body = []  # not constructible directly; emptied post-validation
    return program


def _double_resolve(monkeypatch, core):
    """Stores whose info claims a dynamic latency resolve at issue and commit."""
    info_of = core._instruction_info

    def patched(instruction, index, setup, program):
        info = info_of(instruction, index, setup, program)
        if info[4]:  # is_store
            info = info[:14] + (None,) + info[15:]
        return info

    monkeypatch.setattr(core, "_instruction_info", patched)


class TestFallbacks:
    """Every reason the column plane declines a program lands on the
    interpreter — bit-identical — and bumps ``STATS.fallbacks``."""

    @pytest.mark.parametrize(
        "reason",
        [
            "setup_section",
            "empty_body",
            "oversize_body",
            "op_budget",
            "double_resolve",
            "kernel_build_failure",
        ],
    )
    def test_fallback_runs_interpreted(self, reason, monkeypatch):
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(81, f"fallback-{reason}")
        core = OutOfOrderCore(config, seed=3)
        if reason == "setup_section":
            _with_setup(program)
        elif reason == "empty_body":
            _emptied(program)
        elif reason == "oversize_body":
            monkeypatch.setattr(kernel, "MAX_KERNEL_BODY", len(program.body) - 1)
        elif reason == "op_budget":
            monkeypatch.setattr(kernel_vector, "VECTOR_MAX_OPS", 10)
        elif reason == "double_resolve":
            program.body.append(make_store(StridedPattern(base=0, stride=8, region=4096), srcs=[1]))
            _double_resolve(monkeypatch, core)
        elif reason == "kernel_build_failure":
            def boom(config):
                raise RuntimeError("codegen exploded")

            monkeypatch.setattr(kernel, "generate_vector_kernel_source", boom)
        reference = core.run_interpreted(program, max_instructions=600)
        result = VECTOR.run_one(core, program, 600)
        assert_identical(reference, result, f"fallback-{reason}")
        assert kernel_vector.STATS.fallbacks == 1
        assert kernel_vector.STATS.vector_runs == 0

    def test_negative_address_raises_like_the_interpreter(self):
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(83, "negative-address")
        program.body.append(make_load(4, FixedPattern(address=-64)))
        core = OutOfOrderCore(config, seed=3)
        with pytest.raises(ValueError) as reference_error:
            core.run_interpreted(program, max_instructions=600)
        with pytest.raises(ValueError) as vector_error:
            VECTOR.run_one(core, program, 600)
        assert str(vector_error.value) == str(reference_error.value)
        assert kernel_vector.STATS.fallbacks == 1


class TestBatchKernelDifferential:
    """Callers naming the retired ``batch`` plane run the vector plane.

    Populations go through the ``batch`` alias and must match the
    interpreter program for program; the population sharing the batch plane
    introduced — one operand plan per batch, one warm state per footprint —
    lives in :mod:`repro.uarch.kernel_vector` and is checked here.
    """

    def _assert_batch_alias(self, config, programs, budget, label):
        core = OutOfOrderCore(config, seed=3)
        backend = KERNEL_BACKENDS.create("batch")
        assert backend is VECTOR
        via_batch = backend.run_many(core, programs, budget)
        assert len(via_batch) == len(programs)
        for index, (program, candidate) in enumerate(zip(programs, via_batch)):
            reference = core.run_interpreted(program, max_instructions=budget)
            assert_identical(reference, candidate, f"{label}[{index}] batch-alias-vs-interp")

    @pytest.mark.parametrize(
        "config_factory", [baseline_config, config_a, extended_config, constrained_config]
    )
    def test_stressmark_population(self, config_factory):
        """A GA-generation-shaped batch of derived stressmarks, per config."""
        config = config_factory()
        generator = StressmarkGenerator(config=config, max_instructions=2_500)
        knobs = reference_knobs(config)
        programs = [
            generator.codegen.generate(knobs.derive(random_seed=seed))
            for seed in range(1, 5)
        ]
        self._assert_batch_alias(config, programs, 2_500, f"batch-stressmark/{config.name}")

    def test_mixed_program_lengths_in_one_batch(self):
        """One batch mixing random programs and stressmarks of varying size."""
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=2_000)
        programs = [
            random_program(41, "mixed-a"),
            generator.codegen.generate(reference_knobs(config)),
            random_program(43, "mixed-b"),
            generator.codegen.generate(reference_knobs(config).derive(random_seed=9)),
            random_program(47, "mixed-c"),
        ]
        assert len({len(program.body) for program in programs}) > 1
        self._assert_batch_alias(config, programs, 2_000, "batch-mixed-lengths")

    @pytest.mark.parametrize("budget", [1, 17, 81, 1_999, 2_001])
    def test_partial_final_iteration_budgets(self, budget):
        """Budgets ending mid-iteration exercise the kernel's tail pass."""
        config = baseline_config()
        programs = [random_program(97, "batch-tail-a"), random_program(99, "batch-tail-b")]
        self._assert_batch_alias(config, programs, budget, f"batch-budget-{budget}")

    def test_duplicate_programs_share_one_plan_entry(self):
        """The same digest appearing twice is planned once, simulated twice."""
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(51, "batch-dup")
        self._assert_batch_alias(config, [program, program, program], 1_500, "batch-dup")
        assert kernel_vector.STATS.plans_built == 1
        assert kernel_vector.STATS.vector_runs == 3

    def test_setup_program_skips_warm_sharing(self):
        """Explicit setup instructions never build a shared warm state."""
        kernel.clear_kernels()
        config = baseline_config()
        with_setup = _with_setup(random_program(53, "batch-setup"))
        plain = random_program(54, "batch-plain")
        assert not kernel_vector.supports_vector(with_setup)
        assert kernel_vector.supports_vector(plain)
        self._assert_batch_alias(config, [with_setup, plain], 1_500, "batch-setup-mix")
        assert kernel_vector.STATS.warm_builds == 1  # only the plain program shares

    def test_warm_state_reused_across_batches(self):
        """A second batch with the same footprint rebuilds nothing."""
        kernel.clear_kernels()
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=1_500)
        knobs = reference_knobs(config)
        first = [generator.codegen.generate(knobs.derive(random_seed=s)) for s in (1, 2)]
        second = [generator.codegen.generate(knobs.derive(random_seed=s)) for s in (3, 4)]
        core = OutOfOrderCore(config, seed=3)
        kernel_vector.run_many(core, first, 1_500)
        builds_after_first = kernel_vector.STATS.warm_builds
        kernel_vector.run_many(core, second, 1_500)
        assert kernel_vector.STATS.warm_hits > 0
        assert kernel_vector.STATS.warm_builds == builds_after_first

    def test_empty_body_program_runs_interpreted_inline(self):
        """An emptied body inside a batch runs interpreted; the rest vectorize."""
        kernel.clear_kernels()
        config = baseline_config()
        empty = _emptied(random_program(57, "batch-emptied"))
        plain = random_program(58, "batch-nonempty")
        self._assert_batch_alias(config, [empty, plain], 1_000, "batch-empty-body")
        assert kernel_vector.STATS.vector_runs == 1


class TestVectorKernelDifferential:
    """Vector plane vs the interpreter, population at a time.

    Every program of a batch must be bit-identical to the interpreted
    reference; the vector path additionally asserts it actually engaged
    (``kernel_vector.STATS.vector_runs``) rather than silently falling back
    — a fallback-everything implementation would pass the equality checks
    while vectorizing nothing.
    """

    def _assert_two_way(self, config, programs, budget, label, expect_vectorized=None):
        kernel_vector.STATS.reset()
        core = OutOfOrderCore(config, seed=3)
        via_vector = kernel_vector.run_many(core, programs, budget)
        assert len(via_vector) == len(programs)
        for index, (program, candidate) in enumerate(zip(programs, via_vector)):
            reference = core.run_interpreted(program, max_instructions=budget)
            assert_identical(reference, candidate, f"{label}[{index}] vector-vs-interp")
        if expect_vectorized is None:
            expect_vectorized = len(programs)
        assert kernel_vector.STATS.vector_runs == expect_vectorized, (
            f"{label}: expected {expect_vectorized} vectorized runs, "
            f"got {kernel_vector.STATS.vector_runs} "
            f"(fallbacks: {kernel_vector.STATS.fallbacks})"
        )

    @pytest.mark.parametrize(
        "config_factory", [baseline_config, config_a, extended_config, constrained_config]
    )
    def test_stressmark_population(self, config_factory):
        """A GA-generation-shaped batch of derived stressmarks, per config."""
        config = config_factory()
        generator = StressmarkGenerator(config=config, max_instructions=2_500)
        knobs = reference_knobs(config)
        programs = [
            generator.codegen.generate(knobs.derive(random_seed=seed))
            for seed in range(1, 5)
        ]
        self._assert_two_way(config, programs, 2_500, f"vector-stressmark/{config.name}")

    def test_mixed_program_lengths_in_one_batch(self):
        """One batch mixing random programs and stressmarks of varying size."""
        config = baseline_config()
        generator = StressmarkGenerator(config=config, max_instructions=2_000)
        programs = [
            random_program(41, "vmixed-a"),
            generator.codegen.generate(reference_knobs(config)),
            random_program(43, "vmixed-b"),
            generator.codegen.generate(reference_knobs(config).derive(random_seed=9)),
            random_program(47, "vmixed-c"),
        ]
        assert len({len(program.body) for program in programs}) > 1
        self._assert_two_way(config, programs, 2_000, "vector-mixed-lengths")

    @pytest.mark.parametrize("budget", [1, 17, 81, 1_999, 2_001])
    def test_partial_final_iteration_budgets(self, budget):
        """Budgets ending mid-iteration exercise the vector kernel's tail."""
        config = baseline_config()
        programs = [random_program(97, "vtail-a"), random_program(99, "vtail-b")]
        self._assert_two_way(config, programs, budget, f"vector-budget-{budget}")

    def test_setup_program_runs_interpreted(self):
        """Explicit setup sections are out of vector scope; results still match."""
        config = baseline_config()
        with_setup = _with_setup(random_program(53, "vsetup"))
        plain = random_program(54, "vplain")
        self._assert_two_way(
            config, [with_setup, plain], 1_500, "vector-setup-mix", expect_vectorized=1
        )
        assert kernel_vector.STATS.fallbacks == 1

    def test_empty_body_program_runs_interpreted_inline(self):
        """The vector runner's empty-body guard routes to the interpreter."""
        config = baseline_config()
        empty = _emptied(random_program(57, "vemptied"))
        plain = random_program(58, "vnonempty")
        self._assert_two_way(config, [empty, plain], 1_000, "vector-empty-body", expect_vectorized=1)

    def test_backend_run_many_routes_through_vector_plane(self):
        """The registered backend engages the vector plane for batches."""
        kernel_vector.STATS.reset()
        config = baseline_config()
        programs = [random_program(61, "vbackend-a"), random_program(62, "vbackend-b")]
        core = OutOfOrderCore(config, seed=3)
        backend = KERNEL_BACKENDS.create("vector")
        assert backend is VECTOR
        results = backend.run_many(core, programs, 1_000)
        assert kernel_vector.STATS.vector_runs == 2
        for index, program in enumerate(programs):
            assert_identical(
                core.run_interpreted(program, max_instructions=1_000),
                results[index],
                f"vector-backend[{index}]",
            )


_NUMPY_BLOCKED_RUN = """
import importlib.abc, json, sys

class BlockNumpy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError("numpy blocked for this test")
        return None

sys.meta_path.insert(0, BlockNumpy())
import repro.api.session
from repro.api.session import Session
from repro.api.spec import RunSpec
from repro.uarch import kernel_vector

imported = "numpy" in sys.modules
with Session() as session:
    simulate = session.run(RunSpec(kind="simulate", workloads=("429.mcf_proxy", "sha_proxy"),
                                   kernel_backend="vector", jobs=1,
                                   scale_overrides={"workload_instructions": 800}))
    stressmark = session.run(RunSpec(kind="stressmark", kernel_backend="vector", jobs=1,
                                     scale_overrides={"ga_population": 4, "ga_generations": 1,
                                                      "stressmark_instructions": 800}))
print(json.dumps({
    "numpy_imported": imported or "numpy" in sys.modules,
    "vector_runs": kernel_vector.STATS.vector_runs,
    "fallbacks": kernel_vector.STATS.fallbacks,
    "rows": len(simulate.rows),
    "ser": bool(stressmark.ser),
}))
"""


class TestVectorWithoutNumpy:
    def test_spec_naming_vector_still_validates(self):
        """With numpy unimportable, importing the API pulls no numpy in and
        simulate + stressmark specs naming ``vector`` validate and run on
        the vector plane."""
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        for name in (kernel.KERNEL_ENV_VAR, kernel_backends.BACKEND_ENV_VAR, "REPRO_JOBS"):
            env.pop(name, None)
        completed = subprocess.run(
            [sys.executable, "-c", _NUMPY_BLOCKED_RUN],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-4000:]
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        assert report["numpy_imported"] is False
        assert report["vector_runs"] > 0 and report["fallbacks"] == 0
        assert report["rows"] >= 1 and report["ser"]


class TestKernelCache:
    def test_source_store_round_trip(self, tmp_path):
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(11, "store-check")
        store = ArtifactStore(tmp_path / "kernels.sqlite")
        try:
            kernel.configure_source_store(store)
            first = kernel.vector_kernel_for(config)
            assert first is not None and kernel.STATS.generated == 1
            key = kernel.vector_source_key(kernel.config_digest(config))
            assert isinstance(store.get(key), str)

            # A fresh process (simulated by clearing the in-process memo)
            # loads source from the store instead of regenerating.
            kernel.clear_kernels()
            second = kernel.vector_kernel_for(config)
            assert second is not None
            assert kernel.STATS.generated == 0
            assert kernel.STATS.source_store_hits == 1
            core = OutOfOrderCore(config, seed=3)
            assert_identical(
                core.run_interpreted(program, max_instructions=400),
                VECTOR.run_one(core, program, 400),
                "store-kernel",
            )
            assert kernel_vector.STATS.vector_runs == 1
        finally:
            kernel.configure_source_store(None)
            store.close()
            kernel.clear_kernels()

    def test_failure_remembered_not_retried(self, monkeypatch):
        kernel.clear_kernels()
        config = baseline_config()
        program = random_program(13, "failure-check")
        calls = {"n": 0}

        def boom(*args, **kwargs):
            calls["n"] += 1
            raise RuntimeError("codegen exploded")

        monkeypatch.setattr(kernel, "generate_vector_kernel_source", boom)
        assert kernel.vector_kernel_for(config) is None
        assert kernel.vector_kernel_for(config) is None
        assert calls["n"] == 1 and kernel.STATS.failures == 1
        # The dispatcher degrades to the interpreter transparently.
        core = OutOfOrderCore(config, seed=3)
        result = core.run(program, max_instructions=300)
        assert result.stats.committed_instructions == 300
        assert calls["n"] == 1
        kernel.clear_kernels()

    def test_closed_source_store_detaches_instead_of_failing(self, tmp_path):
        """A source store outliving its session must not poison generation.

        Regression test: sessions attach their result store's artifact
        database as the kernel source cache; after the session closes the
        sqlite handle, kernel generation must detach the dead store and
        keep compiling locally (not record a failure).
        """
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        store = ArtifactStore(tmp_path / "kernels.sqlite")
        kernel.configure_source_store(store)
        store.close()  # the owner went away without detaching

        assert kernel.vector_kernel_for(baseline_config()) is not None
        assert kernel.STATS.failures == 0
        kernel.clear_kernels()

    def test_context_detaches_kernel_store_on_close(self, tmp_path):
        from repro.experiments.runner import ExperimentContext, ExperimentScale
        from repro.store.result_store import open_store

        kernel.clear_kernels()
        store = open_store(tmp_path / "store")
        context = ExperimentContext(ExperimentScale.quick(), store=store)
        context.close()
        store.close()
        assert kernel.vector_kernel_for(baseline_config()) is not None
        assert kernel.STATS.failures == 0
        kernel.clear_kernels()

    def test_shared_store_survives_sibling_context_close(self, tmp_path):
        """Closing one of two contexts on a store must not detach the cache."""
        from repro.experiments.runner import ExperimentContext, ExperimentScale
        from repro.store.result_store import open_store

        kernel.clear_kernels()
        store = open_store(tmp_path / "store")
        try:
            first = ExperimentContext(ExperimentScale.quick(), store=store)
            second = ExperimentContext(ExperimentScale.quick(), store=store)
            first.close()
            assert kernel._active_source_store() is not None, (
                "source store detached while a sibling context still owns it"
            )
            second.close()
            assert kernel._active_source_store() is None
        finally:
            store.close()
            kernel.clear_kernels()

    def test_failed_store_pruned_from_attach_stack(self, tmp_path):
        """A store that raises is evicted everywhere; the survivor takes over."""
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        healthy = ArtifactStore(tmp_path / "healthy.sqlite")
        broken = ArtifactStore(tmp_path / "broken.sqlite")
        try:
            kernel.attach_source_store(healthy)
            kernel.attach_source_store(broken)
            broken.close()  # now every get/put on it raises
            assert kernel.vector_kernel_for(baseline_config()) is not None
            assert kernel.STATS.failures == 0
            # The broken store was pruned and the healthy one restored —
            # persistence keeps working (source landed in the survivor).
            assert kernel._active_source_store() is healthy
            key = kernel.vector_source_key(kernel.config_digest(baseline_config()))
            assert isinstance(healthy.get(key), str)
        finally:
            kernel.release_source_store(healthy)
            kernel.release_source_store(broken)
            kernel.configure_source_store(None)
            healthy.close()
            kernel.clear_kernels()

    def test_memo_is_bounded(self, monkeypatch):
        kernel.clear_kernels()
        monkeypatch.setattr(kernel, "CONFIG_KERNEL_CACHE_LIMIT", 2)
        for config in (baseline_config(), config_a(), extended_config()):
            assert kernel.vector_kernel_for(config) is not None
        assert len(kernel._vector_kernels) == 2
        kernel.clear_kernels()

    def test_memo_eviction_is_least_recently_used(self, monkeypatch):
        """A hit refreshes recency, so eviction drops the coldest entry."""
        kernel.clear_kernels()
        monkeypatch.setattr(kernel, "CONFIG_KERNEL_CACHE_LIMIT", 2)
        configs = {"a": baseline_config(), "b": config_a(), "c": extended_config()}
        keys = {label: kernel.config_digest(config) for label, config in configs.items()}
        assert kernel.vector_kernel_for(configs["a"]) is not None
        assert kernel.vector_kernel_for(configs["b"]) is not None
        assert kernel.vector_kernel_for(configs["a"]) is not None  # refresh a
        assert kernel.vector_kernel_for(configs["c"]) is not None  # evicts b
        assert keys["a"] in kernel._vector_kernels and keys["c"] in kernel._vector_kernels
        assert keys["b"] not in kernel._vector_kernels
        kernel.clear_kernels()

    def test_memo_eviction_does_not_break_reuse(self, monkeypatch):
        """Evicted warm/plan entries regenerate transparently, bit-identically.

        Warm states and operand plans are LRU-bounded; with the bounds
        pinched to one entry, alternating between two footprints evicts the
        other's state every batch — results must stay identical anyway.
        """
        kernel.clear_kernels()
        monkeypatch.setattr(kernel_vector, "WARM_CACHE_LIMIT", 1)
        monkeypatch.setattr(kernel_vector, "PLAN_CACHE_LIMIT", 1)
        config = baseline_config()
        first = random_program(74, "evict-a")
        second = random_program(75, "evict-b")
        second.warmup_regions = [WarmupRegion(base=8192, size_bytes=1 << 14, dirty=False)]
        assert kernel_vector.warm_signature(first) != kernel_vector.warm_signature(second)
        core = OutOfOrderCore(config, seed=3)
        expected = {
            program.name: core.run_interpreted(program, max_instructions=800)
            for program in (first, second)
        }
        for round_index in range(2):
            for program in (first, second):  # each batch evicts the other's state
                results = kernel_vector.run_many(core, [program], 800)
                assert_identical(
                    expected[program.name], results[0],
                    f"evict-round-{round_index}/{program.name}",
                )
        assert len(kernel_vector._warm_states) == 1
        assert len(kernel_vector._plans) == 1
        assert kernel_vector.STATS.warm_builds >= 4  # rebuilt after each eviction
        assert kernel_vector.STATS.vector_runs == 4
        kernel.clear_kernels()

    def test_vector_frozen_warm_eviction_does_not_break_reuse(self, monkeypatch):
        """The warm key includes the config: one footprint, two configs."""
        kernel.clear_kernels()
        monkeypatch.setattr(kernel_vector, "WARM_CACHE_LIMIT", 1)
        program = random_program(76, "vevict")
        for round_index in range(2):
            for config in (baseline_config(), extended_config()):
                core = OutOfOrderCore(config, seed=3)
                results = kernel_vector.run_many(core, [program], 800)
                assert_identical(
                    core.run_interpreted(program, max_instructions=800),
                    results[0],
                    f"vevict-round-{round_index}/{config.name}",
                )
        assert len(kernel_vector._warm_states) == 1
        assert kernel_vector.STATS.warm_builds == 4
        kernel.clear_kernels()

    def test_vector_source_store_round_trip(self, tmp_path):
        """Kernel source and operand plans both persist in the store."""
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        config = baseline_config()
        programs = [random_program(78, "plan-a"), random_program(79, "plan-b")]
        core = OutOfOrderCore(config, seed=3)
        store = ArtifactStore(tmp_path / "kernels.sqlite")
        try:
            kernel.configure_source_store(store)
            first = kernel_vector.run_many(core, programs, 700)
            assert kernel.STATS.generated == 1 and kernel_vector.STATS.plans_built == 1
            kernel.clear_kernels()
            second = kernel_vector.run_many(core, programs, 700)
            assert kernel.STATS.generated == 0
            assert kernel.STATS.source_store_hits == 1
            assert kernel_vector.STATS.plans_built == 0
            assert kernel_vector.STATS.plan_store_hits == 1
            for index, (before, after) in enumerate(zip(first, second)):
                assert_identical(before, after, f"plan-store[{index}]")
        finally:
            kernel.configure_source_store(None)
            store.close()
            kernel.clear_kernels()

    def test_corrupt_stored_source_falls_back_to_local_generation(self, tmp_path):
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        config = baseline_config()
        store = ArtifactStore(tmp_path / "kernels.sqlite")
        try:
            key = kernel.vector_source_key(kernel.config_digest(config))
            store.put(key, "def vector_run(:  # truncated garbage")
            kernel.configure_source_store(store)
            kernel_run = kernel.vector_kernel_for(config)
            assert kernel_run is not None, "corrupt stored source must not disable the kernel"
            assert kernel.STATS.failures == 0
            assert kernel.STATS.generated == 1
            # The repaired source overwrites the corrupt entry.
            assert "truncated garbage" not in store.get(key)
        finally:
            kernel.configure_source_store(None)
            store.close()
            kernel.clear_kernels()

    def test_source_store_reopened_after_fork(self, tmp_path):
        """A child process must not reuse the parent's sqlite connection."""
        from repro.store.artifacts import ArtifactStore

        kernel.clear_kernels()
        store = ArtifactStore(tmp_path / "kernels.sqlite")
        try:
            kernel.configure_source_store(store)
            # Simulate being on the other side of a fork().
            kernel._source_store_pid = -1
            reopened = kernel._active_source_store()
            assert reopened is not None and reopened is not store
            assert reopened.path == store.path
            reopened.close()
        finally:
            kernel.configure_source_store(None)
            store.close()
            kernel.clear_kernels()

    def test_distinct_configs_get_distinct_kernels(self):
        kernel.clear_kernels()
        assert kernel.config_digest(baseline_config()) != kernel.config_digest(extended_config())
        assert kernel.vector_kernel_for(baseline_config()) is not kernel.vector_kernel_for(
            extended_config()
        )
        assert kernel.STATS.compiled == 2
        kernel.clear_kernels()
