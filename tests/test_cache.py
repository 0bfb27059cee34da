"""Tests for the set-associative writeback cache model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.cache import Cache, CacheConfig


def small_cache(associativity: int = 2, size: int = 1024, line: int = 64) -> Cache:
    return Cache(CacheConfig(name="test", size_bytes=size, associativity=associativity,
                             line_bytes=line, hit_latency=3))


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(name="c", size_bytes=64 * 1024, associativity=2, line_bytes=64, hit_latency=3)
        assert config.num_sets == 512
        assert config.num_lines == 1024
        assert config.words_per_line == 8
        assert config.total_bits == 64 * 1024 * 8

    def test_direct_mapped(self):
        config = CacheConfig(name="c", size_bytes=1024 * 1024, associativity=1, line_bytes=64, hit_latency=7)
        assert config.num_sets == config.num_lines == 16384

    def test_validation_size_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=1000, associativity=3, line_bytes=64, hit_latency=1)

    def test_validation_line_word_multiple(self):
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=1024, associativity=1, line_bytes=60, hit_latency=1)

    def test_validation_positive(self):
        with pytest.raises(ValueError):
            CacheConfig(name="c", size_bytes=0, associativity=1, line_bytes=64, hit_latency=1)


class TestHitsAndMisses:
    def test_first_access_misses(self):
        cache = small_cache()
        assert not cache.access(0, is_write=False, cycle=1).hit
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0, is_write=False, cycle=1)
        assert cache.access(0, is_write=False, cycle=2).hit

    def test_same_line_different_word_hits(self):
        cache = small_cache()
        cache.access(0, is_write=False, cycle=1)
        assert cache.access(8, is_write=False, cycle=2).hit

    def test_different_line_misses(self):
        cache = small_cache()
        cache.access(0, is_write=False, cycle=1)
        assert not cache.access(64, is_write=False, cycle=2).hit

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0, is_write=False, cycle=1)
        cache.access(0, is_write=False, cycle=2)
        assert cache.stats.miss_rate == pytest.approx(0.5)

    def test_negative_like_aliasing_not_possible(self):
        cache = small_cache()
        result = cache.access(0, is_write=True, cycle=1)
        assert not result.hit and not result.evicted_dirty


class TestLruEviction:
    def test_lru_victim_selected(self):
        # 2-way, 1024 B, 64 B lines -> 8 sets; addresses 0, 8*64, 16*64 map to set 0.
        cache = small_cache(associativity=2, size=1024)
        cache.access(0, is_write=False, cycle=1)
        cache.access(8 * 64, is_write=False, cycle=2)
        cache.access(0, is_write=False, cycle=3)          # refresh line 0
        cache.access(16 * 64, is_write=False, cycle=4)    # evicts line 8*64 (LRU)
        assert cache.access(0, is_write=False, cycle=5).hit
        assert not cache.access(8 * 64, is_write=False, cycle=6).hit

    def test_eviction_reports_dirty_victim(self):
        cache = small_cache(associativity=1, size=512)
        cache.access(0, is_write=True, cycle=1)
        result = cache.access(8 * 64, is_write=False, cycle=2)  # same set, evicts dirty line 0
        assert result.evicted_dirty
        assert result.evicted_address == 0
        assert result.evicted_ace

    def test_clean_eviction_not_dirty(self):
        cache = small_cache(associativity=1, size=512)
        cache.access(0, is_write=False, cycle=1)
        result = cache.access(8 * 64, is_write=False, cycle=2)
        assert not result.evicted_dirty

    def test_unace_dirty_eviction_flagged(self):
        cache = small_cache(associativity=1, size=512)
        cache.access(0, is_write=True, cycle=1, ace=False)
        result = cache.access(8 * 64, is_write=False, cycle=2)
        assert result.evicted_dirty
        assert not result.evicted_ace

    def test_resident_line_count_bounded(self):
        cache = small_cache(associativity=2, size=1024)
        for index in range(100):
            cache.access(index * 64, is_write=False, cycle=index)
        assert cache.resident_line_count() <= cache.config.num_lines


class TestAvf:
    def test_written_then_resident_line_is_ace(self):
        cache = small_cache(size=512, associativity=1)
        cache.access(0, is_write=True, cycle=0)
        cache.finalize(cycle=1000)
        # One 64-bit word of one line ACE for ~1000 cycles.
        expected = 64 * 1000 / (cache.config.total_bits * 1000)
        assert cache.avf(1000) == pytest.approx(expected, rel=1e-6)

    def test_untouched_cache_zero_avf(self):
        cache = small_cache()
        cache.finalize(cycle=100)
        assert cache.avf(100) == 0.0

    def test_avf_bounded(self):
        cache = small_cache(size=512, associativity=1)
        for index in range(64):
            cache.access(index * 8, is_write=True, cycle=index)
        cache.finalize(cycle=64)
        assert 0.0 <= cache.avf(64) <= 1.0

    def test_zero_cycles(self):
        assert small_cache().avf(0) == 0.0


class TestWarmLine:
    def test_warm_dirty_line_fully_ace(self):
        cache = small_cache(size=512, associativity=1)
        cache.warm_line(0, cycle=0, dirty=True, ace=True)
        cache.finalize(cycle=100)
        line_bits = 64 * 8
        assert cache.lifetime.ace_bit_cycles() == pytest.approx(line_bits * 100)

    def test_warm_clean_line_not_ace_without_reads(self):
        cache = small_cache(size=512, associativity=1)
        cache.warm_line(0, cycle=0, dirty=False, ace=True)
        cache.finalize(cycle=100)
        assert cache.lifetime.ace_bit_cycles() == 0.0

    def test_warm_partial_word_fraction(self):
        cache = small_cache(size=512, associativity=1)
        cache.warm_line(0, cycle=0, dirty=True, ace=True, word_fraction=0.5)
        cache.finalize(cycle=10)
        assert cache.lifetime.ace_bit_cycles() == pytest.approx(4 * 64 * 10)

    def test_warm_line_makes_subsequent_access_hit(self):
        cache = small_cache()
        cache.warm_line(0, cycle=0)
        assert cache.access(0, is_write=False, cycle=5).hit

    def test_warm_line_word_fraction_validation(self):
        with pytest.raises(ValueError):
            small_cache().warm_line(0, word_fraction=2.0)

    def test_warm_respects_capacity(self):
        cache = small_cache(associativity=1, size=512)
        for index in range(32):
            cache.warm_line(index * 64, cycle=0)
        assert cache.resident_line_count() <= cache.config.num_lines


class TestWriteback:
    def test_writeback_installs_dirty_line(self):
        cache = small_cache()
        cache.writeback(128, cycle=3, ace=True)
        assert cache.access(128, is_write=False, cycle=4).hit


class TestCacheProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=150),
        writes=st.lists(st.booleans(), min_size=1, max_size=150),
    )
    def test_invariants_under_random_access(self, addresses, writes):
        cache = small_cache()
        cycle = 0
        for address, is_write in zip(addresses, writes):
            cycle += 1
            cache.access(address, is_write=is_write, cycle=cycle)
        cache.finalize(cycle + 1)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert cache.resident_line_count() <= cache.config.num_lines
        assert 0.0 <= cache.avf(cycle + 1) <= 1.0
