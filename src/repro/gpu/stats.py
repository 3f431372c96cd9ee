"""Simulation output statistics.

:class:`FrameStats` holds everything the cycle-accurate simulator reports
for one frame; sequences aggregate by summation.  The class supports the
two operations the sampling methodology needs:

* :meth:`merge` — accumulate another frame's statistics (used to total a
  fully simulated sequence), and
* :meth:`scaled` — multiply every metric by a cluster population (used to
  extrapolate a representative frame's statistics to its whole cluster,
  Section III-E of the paper).

The four *key metrics* the paper evaluates accuracy on (Section V-B) are
exposed as properties: :attr:`cycles`, :attr:`dram_accesses`,
:attr:`l2_accesses` and :attr:`tile_cache_accesses`.

:class:`CacheStats` holds the running counters of one cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.gpu.dram import DRAMStats

#: Names of the paper's four headline accuracy metrics, in Figure 7 order.
KEY_METRICS = ("cycles", "dram_accesses", "l2_accesses", "tile_cache_accesses")


@dataclass(slots=True)
class CacheStats:
    """Running counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses that hit; 0.0 for an untouched cache."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def merge(self, other: "CacheStats") -> None:
        """Accumulate ``other`` into ``self``."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks

    def to_dict(self) -> dict:
        """JSON-serializable representation (for the artifact store)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheStats":
        """Rebuild counters saved with :meth:`to_dict`."""
        return cls(
            accesses=payload["accesses"],
            hits=payload["hits"],
            misses=payload["misses"],
            writebacks=payload["writebacks"],
        )


@dataclass(slots=True)
class FrameStats:
    """Statistics of one simulated frame (or a scaled/merged aggregate)."""

    # Timing.
    cycles: float = 0.0
    geometry_cycles: float = 0.0
    tiling_cycles: float = 0.0
    raster_cycles: float = 0.0
    stall_cycles: float = 0.0

    # Work counts.
    vertex_instructions: float = 0.0
    fragment_instructions: float = 0.0
    vertices_shaded: float = 0.0
    primitives_submitted: float = 0.0
    primitives_binned: float = 0.0
    prim_tile_pairs: float = 0.0
    fragments_generated: float = 0.0
    fragments_shaded: float = 0.0

    # Memory system.
    vertex_cache: CacheStats = field(default_factory=CacheStats)
    texture_cache: CacheStats = field(default_factory=CacheStats)
    tile_cache: CacheStats = field(default_factory=CacheStats)
    l2_cache: CacheStats = field(default_factory=CacheStats)
    color_buffer: CacheStats = field(default_factory=CacheStats)
    depth_buffer: CacheStats = field(default_factory=CacheStats)
    dram: DRAMStats = field(default_factory=DRAMStats)

    # Energy (arbitrary consistent units), attributed to the three main
    # pipeline phases the paper weighs features by (Figure 4).
    energy_geometry: float = 0.0
    energy_tiling: float = 0.0
    energy_raster: float = 0.0

    # ------------------------------------------------------------------
    # Headline metrics.
    # ------------------------------------------------------------------

    @property
    def dram_accesses(self) -> float:
        """Main memory accesses (reads + writes), the paper's 2nd metric."""
        return self.dram.total_accesses

    @property
    def l2_accesses(self) -> float:
        """L2 cache accesses, the paper's 3rd metric."""
        return self.l2_cache.accesses

    @property
    def tile_cache_accesses(self) -> float:
        """Tile cache (L1) accesses, the paper's 4th metric."""
        return self.tile_cache.accesses

    @property
    def total_instructions(self) -> float:
        """Shader instructions executed (vertex + fragment)."""
        return self.vertex_instructions + self.fragment_instructions

    @property
    def ipc(self) -> float:
        """Shader instructions per cycle (Table II's IPC column)."""
        if self.cycles == 0:
            return 0.0
        return self.total_instructions / self.cycles

    @property
    def total_energy(self) -> float:
        """Energy across the three pipeline phases (picojoules)."""
        return self.energy_geometry + self.energy_tiling + self.energy_raster

    def average_power_watts(self, frequency_mhz: float = 600.0) -> float:
        """Average GPU power over the simulated interval, in watts.

        Energy is tracked in picojoules and time is ``cycles / frequency``;
        the default frequency is the Table I baseline clock.
        """
        if self.cycles <= 0:
            return 0.0
        seconds = self.cycles / (frequency_mhz * 1e6)
        return (self.total_energy * 1e-12) / seconds

    def power_fractions(self) -> tuple[float, float, float]:
        """Return (geometry, raster, tiling) energy fractions (Figure 4).

        The order matches the paper's feature-weight vector for
        (VSCV, FSCV, PRIM).  Returns the paper's average split when no
        energy has been recorded (degenerate empty frame).
        """
        total = self.total_energy
        if total == 0:
            return (0.108, 0.745, 0.147)
        return (
            self.energy_geometry / total,
            self.energy_raster / total,
            self.energy_tiling / total,
        )

    def key_metrics(self) -> dict[str, float]:
        """Return the paper's four accuracy metrics by name."""
        return {name: getattr(self, name) for name in KEY_METRICS}

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def merge(self, other: "FrameStats") -> None:
        """Accumulate ``other`` into ``self`` (both unchanged semantics)."""
        for spec in fields(self):
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if isinstance(mine, (CacheStats, DRAMStats)):
                mine.merge(theirs)
            else:
                setattr(self, spec.name, mine + theirs)

    def scaled(self, factor: float) -> "FrameStats":
        """Return a copy with every metric multiplied by ``factor``.

        Used to extrapolate one representative frame to a cluster of
        ``factor`` frames.  Rates (hit rates, IPC) are invariant under
        scaling because numerator and denominator scale together.
        """
        result = FrameStats()
        for spec in fields(self):
            mine = getattr(self, spec.name)
            if isinstance(mine, CacheStats):
                setattr(
                    result,
                    spec.name,
                    CacheStats(
                        accesses=mine.accesses * factor,
                        hits=mine.hits * factor,
                        misses=mine.misses * factor,
                        writebacks=mine.writebacks * factor,
                    ),
                )
            elif isinstance(mine, DRAMStats):
                setattr(
                    result,
                    spec.name,
                    DRAMStats(
                        read_accesses=mine.read_accesses * factor,
                        write_accesses=mine.write_accesses * factor,
                        row_hits=mine.row_hits * factor,
                        row_misses=mine.row_misses * factor,
                        busy_cycles=mine.busy_cycles * factor,
                    ),
                )
            else:
                setattr(result, spec.name, mine * factor)
        return result

    @staticmethod
    def total(stats: list["FrameStats"]) -> "FrameStats":
        """Sum a list of per-frame statistics into one aggregate."""
        aggregate = FrameStats()
        for entry in stats:
            aggregate.merge(entry)
        return aggregate

    # ------------------------------------------------------------------
    # Persistence (the artifact store's encode/decode hooks).
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable representation; round-trips floats exactly."""
        payload = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, (CacheStats, DRAMStats)):
                payload[spec.name] = value.to_dict()
            else:
                payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "FrameStats":
        """Rebuild statistics saved with :meth:`to_dict`."""
        kwargs = {}
        for spec in fields(cls):
            value = payload[spec.name]
            if spec.name == "dram":
                kwargs[spec.name] = DRAMStats.from_dict(value)
            elif isinstance(value, dict):
                kwargs[spec.name] = CacheStats.from_dict(value)
            else:
                kwargs[spec.name] = value
        return cls(**kwargs)
