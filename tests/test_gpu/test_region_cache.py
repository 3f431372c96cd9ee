"""Tests for the fast region-granular cache, including agreement with the
reference line-granular model on simple streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig
from repro.gpu.region_cache import RegionCache
from tests.test_gpu.line_cache import SetAssociativeCache


def make_cache(size=1024, line=64) -> RegionCache:
    return RegionCache(CacheConfig("t", size, line, associativity=2))


class TestBasics:
    def test_first_access_streams_in(self):
        cache = make_cache()
        result = cache.access("a", distinct_lines=4, total_accesses=10)
        assert result.misses == 4
        assert cache.stats.hits == 6

    def test_resident_region_hits(self):
        cache = make_cache()
        cache.access("a", 4, 10)
        result = cache.access("a", 4, 10)
        assert result.misses == 0
        assert cache.stats.hits == 16

    def test_oversized_region_streams_through(self):
        cache = make_cache(size=256)  # 4 lines
        result = cache.access("big", distinct_lines=100, total_accesses=100)
        assert result.misses == 100
        # Nothing retained: a second pass misses again.
        assert cache.access("big", 100, 100).misses == 100

    def test_oversized_write_region_writes_back(self):
        cache = make_cache(size=256)
        result = cache.access("big", 100, 100, write=True)
        assert result.writeback_lines == 100

    def test_growing_region_restreams(self):
        cache = make_cache()
        cache.access("a", 2, 2)
        result = cache.access("a", 4, 4)
        assert result.misses == 4

    def test_shrunk_access_of_resident_region_hits(self):
        cache = make_cache()
        cache.access("a", 8, 8)
        assert cache.access("a", 4, 4).misses == 0

    def test_total_accesses_floored_at_distinct(self):
        cache = make_cache()
        cache.access("a", 4, 1)  # caller under-counted
        assert cache.stats.accesses == 4

    @pytest.mark.parametrize("kwargs", [
        {"distinct_lines": 0, "total_accesses": 1},
        {"distinct_lines": 1, "total_accesses": 0},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(SimulationError):
            make_cache().access("a", **kwargs)


class TestCapacityAndLRU:
    def test_lru_region_evicted(self):
        cache = make_cache(size=1024)  # 16 lines
        cache.access("a", 8, 8)
        cache.access("b", 8, 8)
        cache.access("c", 8, 8)  # evicts "a"
        assert cache.access("b", 8, 8).misses in (0, 8)  # b may also go
        assert cache.access("a", 8, 8).misses == 8

    def test_dirty_eviction_generates_writebacks(self):
        cache = make_cache(size=1024)
        cache.access("a", 8, 8, write=True)
        cache.access("b", 8, 8)
        result = cache.access("c", 8, 8)
        assert result.writeback_lines == 8

    def test_resident_lines_bounded(self):
        cache = make_cache(size=1024)
        for key in range(20):
            cache.access(key, 5, 5)
        assert cache.resident_lines <= cache.capacity_lines

    def test_invalidate(self):
        cache = make_cache()
        cache.access("a", 4, 4, write=True)
        assert cache.invalidate("a") == 4
        assert cache.invalidate("a") == 0

    def test_invalidate_clean_region_no_writeback(self):
        cache = make_cache()
        cache.access("a", 4, 4)
        assert cache.invalidate("a") == 0

    def test_flush(self):
        cache = make_cache()
        cache.access("a", 4, 4, write=True)
        cache.access("b", 2, 2)
        assert cache.flush() == 4
        assert cache.resident_lines == 0


class TestAgreementWithReferenceModel:
    """The region model must reproduce the line model's miss counts on
    streams made of whole-region sweeps (its design domain)."""

    def _line_model_region_sweep(self, cache, base, lines):
        misses = 0
        for i in range(lines):
            misses += cache.access(base + i * 64)
        return misses

    def test_repeated_small_region(self):
        line_cache = SetAssociativeCache(CacheConfig("l", 2048, 64, 32))
        region_cache = make_cache(size=2048)
        for _ in range(5):
            line_misses = self._line_model_region_sweep(line_cache, 0, 8)
            region_misses = region_cache.access("r", 8, 8).misses
            assert line_misses == region_misses

    def test_streaming_large_region(self):
        line_cache = SetAssociativeCache(CacheConfig("l", 512, 64, 8))
        region_cache = make_cache(size=512)
        for _ in range(3):
            line_misses = self._line_model_region_sweep(line_cache, 0, 64)
            region_misses = region_cache.access("big", 64, 64).misses
            assert line_misses == region_misses  # both stream every pass

    def test_two_alternating_regions_that_fit(self):
        line_cache = SetAssociativeCache(CacheConfig("l", 2048, 64, 32))
        region_cache = make_cache(size=2048)
        for _ in range(4):
            for base, key in ((0, "a"), (1 << 20, "b")):
                line_misses = self._line_model_region_sweep(line_cache, base, 8)
                region_misses = region_cache.access(key, 8, 8).misses
                assert line_misses == region_misses

    @given(
        sweep_keys=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=30)
    )
    @settings(max_examples=30)
    def test_fully_associative_agreement(self, sweep_keys):
        """With regions that all fit, misses agree with a fully associative
        line cache under the same sweep sequence."""
        bases = {"a": 0, "b": 1 << 20, "c": 2 << 20}
        lines_per_region = 4
        line_cache = SetAssociativeCache(CacheConfig("l", 768, 64, 12))
        region_cache = make_cache(size=768)  # 12 lines = 3 regions max
        for key in sweep_keys:
            expected = self._line_model_region_sweep(
                line_cache, bases[key], lines_per_region
            )
            actual = region_cache.access(key, lines_per_region, lines_per_region)
            assert actual.misses == expected


class TestInvariants:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(min_value=1, max_value=30),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_counters_consistent(self, ops):
        cache = make_cache(size=1024)
        for key, lines, write in ops:
            cache.access(key, lines, lines * 2, write=write)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert cache.resident_lines <= cache.capacity_lines
