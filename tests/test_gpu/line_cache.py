"""Reference set-associative cache model (line granularity), a test oracle.

A set-associative, LRU-replacement, write-back cache operating on
individual line addresses.  It is exact but touches one Python object per
access; the simulators use the region-granular model in
:mod:`repro.gpu.region_cache`, which ``test_region_cache.py`` validates
against this model.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig
from repro.gpu.stats import CacheStats


@dataclass(slots=True)
class _Line:
    """Metadata of one resident cache line."""

    dirty: bool = False


class SetAssociativeCache:
    """A set-associative LRU write-back cache over 64-byte lines.

    Addresses are *byte* addresses; the cache indexes them by line.  Each
    access touches exactly one line.  Runs of repeated accesses to the same
    line can be batched with ``count`` (the first access consults the
    tags, the remaining ``count - 1`` hit by definition).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        # One ordered dict per set: line_tag -> _Line, LRU order = insertion
        # order (move_to_end on touch).
        self._sets: list[OrderedDict[int, _Line]] = [
            OrderedDict() for _ in range(config.sets)
        ]

    def _locate(self, byte_addr: int) -> tuple[OrderedDict[int, _Line], int]:
        if byte_addr < 0:
            raise SimulationError(f"negative address {byte_addr}")
        line_addr = byte_addr // self.config.line_bytes
        set_index = line_addr % self.config.sets
        return self._sets[set_index], line_addr

    def access(self, byte_addr: int, write: bool = False, count: int = 1) -> int:
        """Access a line ``count`` times; return the number of misses (0/1).

        Returns the number of misses generated toward the next level (either
        0 or 1: only the first access of the run can miss).  Writeback
        traffic is recorded in :attr:`stats` and queried via
        :meth:`pop_writebacks`.
        """
        if count < 1:
            raise SimulationError(f"count must be >= 1, got {count}")
        cache_set, line_addr = self._locate(byte_addr)
        self.stats.accesses += count
        line = cache_set.get(line_addr)
        if line is not None:
            cache_set.move_to_end(line_addr)
            line.dirty = line.dirty or write
            self.stats.hits += count
            return 0
        # Miss: allocate, evicting LRU if the set is full.
        self.stats.misses += 1
        self.stats.hits += count - 1
        if len(cache_set) >= self.config.associativity:
            _, evicted = cache_set.popitem(last=False)
            if evicted.dirty:
                self.stats.writebacks += 1
        cache_set[line_addr] = _Line(dirty=write)
        return 1

    def contains(self, byte_addr: int) -> bool:
        """Return whether the line holding ``byte_addr`` is resident."""
        cache_set, line_addr = self._locate(byte_addr)
        return line_addr in cache_set

    def flush(self) -> int:
        """Invalidate everything; return the number of dirty lines written back."""
        dirty = 0
        for cache_set in self._sets:
            dirty += sum(1 for line in cache_set.values() if line.dirty)
            cache_set.clear()
        self.stats.writebacks += dirty
        return dirty

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(s) for s in self._sets)
