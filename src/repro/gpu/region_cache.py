"""Fast region-granular cache model.

The timing simulator processes work in (draw call x resource) batches; one
batch touches a contiguous *region* of memory (a vertex buffer, a texture
footprint, a tile's polygon list) with a known number of distinct lines and
total accesses.  Simulating every line of every batch through an exact
set-associative model costs one Python operation per line, which is
intractable for multi-thousand-frame sequences (see DESIGN.md).

This model keeps LRU state at *region* granularity instead:

* A region access with ``distinct_lines <= capacity`` either finds the
  region resident (all accesses hit) or streams it in (``distinct_lines``
  misses, the remaining accesses hit), and makes it most-recently-used.
* A region larger than the cache streams through (``distinct_lines``
  misses) and retains nothing, like an LRU cache scanned by a large loop.
* Total resident lines are bounded by the capacity; least-recently-used
  regions are evicted (generating writeback traffic for dirty regions).

The approximation ignores set conflicts (associativity) and partial region
residency; tests/test_gpu/test_region_cache.py validates it against the
reference line-granular model on synthetic streams.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.errors import SimulationError
from repro.gpu.config import CacheConfig
from repro.gpu.stats import CacheStats


@dataclass(slots=True)
class _Region:
    """A resident region: how many lines it occupies and its dirtiness."""

    lines: int
    dirty: bool


@dataclass(frozen=True, slots=True)
class RegionAccessResult:
    """Outcome of one region access, propagated to the next level."""

    misses: int
    writeback_lines: int


class RegionCache:
    """LRU cache tracked at region granularity.

    Region keys are arbitrary hashables chosen by the caller (e.g.
    ``("vtx", mesh_id)`` or ``("tex", texture_id, mip_band)``).  Two keys
    never alias; capacity pressure is the only interaction between regions.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._regions: OrderedDict[object, _Region] = OrderedDict()
        self._resident_lines = 0

    @property
    def capacity_lines(self) -> int:
        """Total line capacity of the cache."""
        return self.config.lines

    @property
    def resident_lines(self) -> int:
        """Lines currently held (sum over resident regions)."""
        return self._resident_lines

    def access(
        self,
        key: object,
        distinct_lines: int,
        total_accesses: int,
        write: bool = False,
    ) -> RegionAccessResult:
        """Access a region; return misses and writeback lines generated.

        Args:
            key: identity of the region.
            distinct_lines: number of distinct cache lines the batch touches.
            total_accesses: total accesses in the batch
                (``>= distinct_lines`` unless the batch revisits nothing).
            write: whether the batch dirties the region.
        """
        if distinct_lines < 1:
            raise SimulationError(f"distinct_lines must be >= 1, got {distinct_lines}")
        if total_accesses < 1:
            raise SimulationError(f"total_accesses must be >= 1, got {total_accesses}")
        total_accesses = max(total_accesses, distinct_lines)
        self.stats.accesses += total_accesses

        region = self._regions.get(key)
        if region is not None and region.lines >= distinct_lines:
            # Fully resident: every access hits.
            self._regions.move_to_end(key)
            region.dirty = region.dirty or write
            self.stats.hits += total_accesses
            return RegionAccessResult(misses=0, writeback_lines=0)

        # (Re)stream the region in: one miss per distinct line.
        misses = distinct_lines
        self.stats.misses += misses
        self.stats.hits += total_accesses - misses
        writebacks = 0
        if region is not None:
            # Growing region: drop the stale entry, re-insert at new size.
            self._resident_lines -= region.lines
            del self._regions[key]
        if distinct_lines <= self.capacity_lines:
            self._regions[key] = _Region(lines=distinct_lines, dirty=write)
            self._resident_lines += distinct_lines
            writebacks += self._evict_over_capacity()
        elif write:
            # A write region larger than the cache streams straight through;
            # its lines are written back as they are evicted.
            writebacks += distinct_lines
        self.stats.writebacks += writebacks
        return RegionAccessResult(misses=misses, writeback_lines=writebacks)

    def invalidate(self, key: object) -> int:
        """Drop a region if resident; return writeback lines (dirty only)."""
        region = self._regions.pop(key, None)
        if region is None:
            return 0
        self._resident_lines -= region.lines
        writebacks = region.lines if region.dirty else 0
        self.stats.writebacks += writebacks
        return writebacks

    def flush(self) -> int:
        """Invalidate all regions; return total dirty lines written back."""
        writebacks = sum(r.lines for r in self._regions.values() if r.dirty)
        self._regions.clear()
        self._resident_lines = 0
        self.stats.writebacks += writebacks
        return writebacks

    def _evict_over_capacity(self) -> int:
        writebacks = 0
        while self._resident_lines > self.capacity_lines and len(self._regions) > 1:
            _, evicted = self._regions.popitem(last=False)
            self._resident_lines -= evicted.lines
            if evicted.dirty:
                writebacks += evicted.lines
        return writebacks
