"""Tests for the fully-associative data TLB model."""

from __future__ import annotations

import pytest

from repro.memory.tlb import Tlb, TlbConfig


def small_tlb(entries: int = 4, page: int = 4096) -> Tlb:
    return Tlb(TlbConfig(entries=entries, page_bytes=page))


class TestTlbConfig:
    def test_reach(self):
        config = TlbConfig(entries=256, page_bytes=8 * 1024)
        assert config.reach_bytes == 2 * 1024 * 1024
        assert config.total_bits == 256 * 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TlbConfig(entries=0, page_bytes=4096)


class TestHitsAndMisses:
    def test_first_access_misses(self):
        tlb = small_tlb()
        assert not tlb.access(0, cycle=1)
        assert tlb.stats.misses == 1

    def test_same_page_hits(self):
        tlb = small_tlb()
        tlb.access(0, cycle=1)
        assert tlb.access(4095, cycle=2)

    def test_different_page_misses(self):
        tlb = small_tlb()
        tlb.access(0, cycle=1)
        assert not tlb.access(4096, cycle=2)

    def test_miss_rate(self):
        tlb = small_tlb()
        tlb.access(0, cycle=1)
        tlb.access(0, cycle=2)
        tlb.access(4096, cycle=3)
        assert tlb.stats.miss_rate == pytest.approx(2 / 3)


class TestEviction:
    def test_lru_eviction_on_overflow(self):
        tlb = small_tlb(entries=2)
        tlb.access(0 * 4096, cycle=1)
        tlb.access(1 * 4096, cycle=2)
        tlb.access(0 * 4096, cycle=3)       # refresh page 0
        tlb.access(2 * 4096, cycle=4)       # evicts page 1
        assert tlb.access(0 * 4096, cycle=5)
        assert not tlb.access(1 * 4096, cycle=6)

    def test_entry_count_bounded(self):
        tlb = small_tlb(entries=4)
        for page in range(20):
            tlb.access(page * 4096, cycle=page)
        assert tlb.resident_entry_count() <= 4
        assert tlb.stats.evictions >= 16


class TestAceAccounting:
    def test_ace_interval_is_first_to_last_use(self):
        tlb = small_tlb()
        tlb.access(0, cycle=10)
        tlb.access(0, cycle=60)
        tlb.access(0, cycle=110)
        tlb.finalize(cycle=500)
        # Residency ACE from first use (10) to last use (110).
        assert tlb.ace_entry_cycles == 100

    def test_unused_tail_not_ace(self):
        tlb = small_tlb()
        tlb.access(0, cycle=10)
        tlb.finalize(cycle=1000)
        assert tlb.ace_entry_cycles == 0

    def test_unace_accesses_do_not_extend(self):
        tlb = small_tlb()
        tlb.access(0, cycle=10, ace=True)
        tlb.access(0, cycle=50, ace=True)
        tlb.access(0, cycle=90, ace=False)
        tlb.finalize(cycle=100)
        assert tlb.ace_entry_cycles == 40

    def test_eviction_closes_interval(self):
        tlb = small_tlb(entries=1)
        tlb.access(0, cycle=10)
        tlb.access(0, cycle=30)
        tlb.access(4096, cycle=100)  # evicts page 0
        tlb.finalize(cycle=200)
        assert tlb.ace_entry_cycles == 20

    def test_avf_bounds(self):
        tlb = small_tlb(entries=2)
        tlb.access(0, cycle=0)
        tlb.access(0, cycle=100)
        tlb.finalize(cycle=100)
        assert 0.0 < tlb.avf(100) <= 1.0

    def test_avf_zero_cycles(self):
        assert small_tlb().avf(0) == 0.0

    def test_ace_bit_cycles_scaling(self):
        tlb = small_tlb()
        tlb.access(0, cycle=0)
        tlb.access(0, cycle=10)
        tlb.finalize(cycle=10)
        assert tlb.ace_bit_cycles() == pytest.approx(10 * 64)


class TestWarmPage:
    def test_recurrent_warm_page_ace_for_whole_window(self):
        tlb = small_tlb()
        tlb.warm_page(0, cycle=0, ace=True, recurrent=True)
        tlb.finalize(cycle=300)
        assert tlb.ace_entry_cycles == 300

    def test_non_recurrent_warm_page_needs_uses(self):
        tlb = small_tlb()
        tlb.warm_page(0, cycle=0, ace=True, recurrent=False)
        tlb.finalize(cycle=300)
        assert tlb.ace_entry_cycles == 0

    def test_recurrent_page_evicted_loses_extrapolation(self):
        tlb = small_tlb(entries=1)
        tlb.warm_page(0, cycle=0, ace=True, recurrent=True)
        tlb.access(4096, cycle=50)   # evicts the warm page
        tlb.finalize(cycle=300)
        assert tlb.ace_entry_cycles == 0

    def test_warm_page_counts_as_resident(self):
        tlb = small_tlb()
        tlb.warm_page(0, cycle=0)
        assert tlb.access(0, cycle=5)
        assert tlb.resident_entry_count() == 1
