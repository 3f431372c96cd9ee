"""GPU configuration (Table I of the paper).

:func:`default_config` returns the exact parameters of the paper's baseline
GPU — an architecture resembling an Arm Mali-450: 600 MHz, 1440x720 screen,
32x32-pixel tiles, 4 vertex + 4 fragment processors, the Table I cache
hierarchy and a dual-channel LPDDR3-like main memory.

:class:`CycleConfig` selects *how* the cycle model is executed — the
batched vector backend (the production default) or the scalar reference
implementation it is checked against (`docs/simulation-backends.md`) —
without changing *what* it models: both backends produce bit-identical
results for any :class:`GPUConfig`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigError

#: Execution backends of the cycle simulator.  "vector" is the batched
#: lowering every evaluation runs by default; "scalar" is the reference
#: event loop it must stay bit-identical to (guarded by
#: ``repro.gpu.parity``), run only by parity checks, tests and an explicit
#: ``--backend scalar``.
CYCLE_BACKENDS = ("scalar", "vector")

#: Fixed per-frame overhead (command processing, state changes, scheduling).
FRAME_OVERHEAD_CYCLES = 2000.0


@dataclass(frozen=True, slots=True)
class CacheConfig:
    """Parameters of one cache (Table I, "Caches")."""

    name: str
    size_bytes: int
    line_bytes: int = 64
    associativity: int = 2
    banks: int = 1
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0:
            raise ConfigError(f"cache {self.name}: sizes must be positive")
        if self.size_bytes % self.line_bytes != 0:
            raise ConfigError(
                f"cache {self.name}: size {self.size_bytes} not a multiple of "
                f"line size {self.line_bytes}"
            )
        if self.associativity < 1:
            raise ConfigError(f"cache {self.name}: associativity must be >= 1")
        total_lines = self.size_bytes // self.line_bytes
        if total_lines % self.associativity != 0:
            raise ConfigError(
                f"cache {self.name}: {total_lines} lines not divisible by "
                f"associativity {self.associativity}"
            )
        if self.banks < 1 or self.latency_cycles < 1:
            raise ConfigError(f"cache {self.name}: banks/latency must be >= 1")

    @property
    def lines(self) -> int:
        """Total number of cache lines."""
        return self.size_bytes // self.line_bytes

    @property
    def sets(self) -> int:
        """Number of sets."""
        return self.lines // self.associativity


@dataclass(frozen=True, slots=True)
class DRAMConfig:
    """Main memory parameters (Table I, "Main memory")."""

    frequency_mhz: int = 400
    min_latency_cycles: int = 50
    max_latency_cycles: int = 100
    bandwidth_bytes_per_cycle: int = 4
    line_bytes: int = 64
    size_bytes: int = 1 << 30
    banks: int = 8
    row_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.min_latency_cycles > self.max_latency_cycles:
            raise ConfigError("DRAM min latency exceeds max latency")
        if self.bandwidth_bytes_per_cycle <= 0:
            raise ConfigError("DRAM bandwidth must be positive")
        if self.row_bytes % self.line_bytes != 0:
            raise ConfigError("DRAM row size must be a multiple of the line size")

    @property
    def line_transfer_cycles(self) -> int:
        """GPU cycles to stream one line over the memory bus."""
        return self.line_bytes // self.bandwidth_bytes_per_cycle


@dataclass(frozen=True, slots=True)
class QueueConfig:
    """An inter-stage queue (Table I, "Queues").

    Queue depth bounds how many outstanding work items can hide memory
    latency between two stages (the memory-level parallelism the pipeline
    can extract).
    """

    name: str
    entries: int
    entry_bytes: int

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ConfigError(f"queue {self.name}: entries must be >= 1")
        if self.entry_bytes < 1:
            raise ConfigError(f"queue {self.name}: entry_bytes must be >= 1")

    @property
    def capacity_bytes(self) -> int:
        """Total queue storage in bytes."""
        return self.entries * self.entry_bytes


@dataclass(frozen=True)
class GPUConfig:
    """Full baseline GPU configuration (Table I).

    The defaults model the paper's Mali-450-like baseline.  ``screen_width``
    / ``screen_height`` give the render target, ``tile_size`` the TBR tile
    edge in pixels, and the processor counts the programmable stages.
    """

    frequency_mhz: int = 600
    voltage: float = 1.0
    technology_nm: int = 22
    screen_width: int = 1440
    screen_height: int = 720
    tile_size: int = 32

    # Rendering architecture (Section II-A / Section IV-A extension):
    #   "tbr"  — Tile-Based Rendering, the paper's baseline (Mali-like);
    #   "tbdr" — TBR with a Hidden Surface Removal stage (PowerVR-like
    #            deferred rendering): opaque overdraw is never shaded;
    #   "imr"  — Immediate-Mode Rendering: no tiling engine, colors are
    #            written to memory per fragment (the overdraw traffic TBR
    #            avoids).
    rendering_mode: str = "tbr"

    vertex_processors: int = 4
    fragment_processors: int = 4

    # Non-programmable stage throughputs (Table I).
    primitive_assembly_vertices_per_cycle: int = 1
    rasterizer_attributes_per_cycle: int = 1
    rasterized_attributes_per_fragment: int = 1
    early_z_inflight_quads: int = 8

    # Queues (Table I).
    vertex_input_queue: QueueConfig = QueueConfig("vertex_input", 16, 136)
    vertex_output_queue: QueueConfig = QueueConfig("vertex_output", 16, 136)
    triangle_queue: QueueConfig = QueueConfig("triangle", 16, 388)
    tile_queue: QueueConfig = QueueConfig("tile", 16, 388)
    fragment_queue: QueueConfig = QueueConfig("fragment", 64, 233)
    color_queue: QueueConfig = QueueConfig("color", 64, 24)

    # Caches (Table I).  Texture caches are replicated per fragment
    # processor (x4 in the table).
    vertex_cache: CacheConfig = CacheConfig("vertex", 4 * 1024, latency_cycles=1)
    texture_cache: CacheConfig = CacheConfig("texture", 8 * 1024, latency_cycles=2)
    tile_cache: CacheConfig = CacheConfig("tile", 32 * 1024, latency_cycles=2)
    l2_cache: CacheConfig = CacheConfig(
        "l2", 256 * 1024, banks=8, latency_cycles=18
    )
    color_buffer: CacheConfig = CacheConfig("color_buffer", 1024, latency_cycles=1)
    depth_buffer: CacheConfig = CacheConfig("depth_buffer", 1024, latency_cycles=1)

    dram: DRAMConfig = field(default_factory=DRAMConfig)

    # Bytes of a polygon-list entry written by the Polygon List Builder for
    # every (primitive, tile) pair: indices plus edge equations and
    # interpolation parameters (cf. the 388-byte triangle queue entries).
    polygon_list_entry_bytes: int = 40
    # Bytes per transformed vertex stored in the varyings buffer: in TBR the
    # geometry phase output (clip-space position + interpolants) is written
    # to memory by the Tiling Engine and read back during rasterization.
    varyings_bytes_per_vertex: int = 32
    # Bytes per pixel of the color render target / depth buffer.
    color_bytes_per_pixel: int = 4
    depth_bytes_per_pixel: int = 4

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0:
            raise ConfigError("frequency_mhz must be positive")
        if self.screen_width <= 0 or self.screen_height <= 0:
            raise ConfigError("screen dimensions must be positive")
        if self.tile_size <= 0:
            raise ConfigError("tile_size must be positive")
        if self.vertex_processors < 1 or self.fragment_processors < 1:
            raise ConfigError("processor counts must be >= 1")
        if self.rendering_mode not in ("tbr", "tbdr", "imr"):
            raise ConfigError(
                f"rendering_mode must be 'tbr', 'tbdr' or 'imr', "
                f"got {self.rendering_mode!r}"
            )

    @property
    def tiles_x(self) -> int:
        """Number of tile columns (partial tiles count)."""
        return -(-self.screen_width // self.tile_size)

    @property
    def tiles_y(self) -> int:
        """Number of tile rows (partial tiles count)."""
        return -(-self.screen_height // self.tile_size)

    @property
    def total_tiles(self) -> int:
        """Number of screen tiles."""
        return self.tiles_x * self.tiles_y

    @property
    def screen_pixels(self) -> int:
        """Number of pixels in the render target."""
        return self.screen_width * self.screen_height

    @property
    def tile_pixels(self) -> int:
        """Pixels per tile."""
        return self.tile_size * self.tile_size


def default_config() -> GPUConfig:
    """Return the paper's Table I baseline configuration."""
    return GPUConfig()


@dataclass(frozen=True, slots=True)
class CycleConfig:
    """Execution strategy of the cycle-accurate simulator.

    ``backend`` picks the implementation: ``"vector"`` (the default) runs
    the batched lowering in :mod:`repro.gpu.vector`, ``"scalar"`` runs the
    per-access reference event loop that serves as its oracle.  The two
    are bit-identical by contract; the parity harness
    (:mod:`repro.gpu.parity`) and the CI gate enforce it.  The choice is
    part of every pipeline stage fingerprint, so the artifact store never
    conflates backends.
    """

    backend: str = "vector"

    def __post_init__(self) -> None:
        if self.backend not in CYCLE_BACKENDS:
            raise ConfigError(
                f"backend must be one of {'/'.join(CYCLE_BACKENDS)}, "
                f"got {self.backend!r}"
            )


_ACTIVE_CYCLE: CycleConfig | None = None


def default_cycle_config() -> CycleConfig:
    """Return the ambient :class:`CycleConfig`.

    This is the value :meth:`repro.pipeline.request.PipelineRequest.create`
    falls back to when the caller does not pass one explicitly — the
    mechanism behind the CLI's ``--backend`` flag.  Outside any
    :func:`cycle_scope` it is the production vector backend.
    """
    if _ACTIVE_CYCLE is None:
        return CycleConfig()
    return _ACTIVE_CYCLE


def set_cycle_config(cycle: CycleConfig | None) -> None:
    """Install ``cycle`` as the ambient default (``None`` resets it)."""
    global _ACTIVE_CYCLE
    _ACTIVE_CYCLE = cycle


@contextmanager
def cycle_scope(cycle: CycleConfig | str | None) -> Iterator[CycleConfig]:
    """Temporarily make ``cycle`` the ambient :class:`CycleConfig`.

    Accepts a backend name as shorthand (``cycle_scope("vector")``);
    ``None`` leaves the current ambient default in place, so callers can
    thread an optional override without branching.
    """
    global _ACTIVE_CYCLE
    if isinstance(cycle, str):
        cycle = CycleConfig(backend=cycle)
    previous = _ACTIVE_CYCLE
    if cycle is not None:
        _ACTIVE_CYCLE = cycle
    try:
        yield default_cycle_config()
    finally:
        _ACTIVE_CYCLE = previous
