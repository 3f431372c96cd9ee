"""GPU simulation substrate.

This package is the reproduction's stand-in for TEAPOT: a Tile-Based
Rendering (TBR) mobile GPU model resembling an Arm Mali-450 (Table I of the
paper).  It contains:

* a **functional simulator** (`repro.gpu.functional_sim`) that quickly
  profiles every frame of a trace and produces the per-frame shader
  execution counts and primitive counts MEGsim consumes, and
* a **cycle-accurate simulator** (`repro.gpu.cycle_sim`) that models the
  full pipeline — geometry, tiling engine, rasterization, early-Z, fragment
  shading, blending — together with the cache hierarchy, DRAM and a power
  model, and reports the output statistics the paper samples (total cycles,
  DRAM / L2 / tile-cache accesses, per-phase energy).
"""

from repro.gpu.config import (
    GPUConfig,
    CacheConfig,
    CycleConfig,
    DRAMConfig,
    QueueConfig,
    cycle_scope,
    default_config,
    default_cycle_config,
)
from repro.gpu.cycle_sim import CycleAccurateSimulator, SequenceResult
from repro.gpu.functional_sim import FrameProfile, FunctionalSimulator, SequenceProfile
from repro.gpu.parity import ParityReport, check_backend_parity, sample_frame_ids
from repro.gpu.stats import CacheStats, FrameStats

__all__ = [
    "GPUConfig",
    "CacheConfig",
    "CycleConfig",
    "DRAMConfig",
    "QueueConfig",
    "cycle_scope",
    "default_config",
    "default_cycle_config",
    "CycleAccurateSimulator",
    "SequenceResult",
    "FunctionalSimulator",
    "FrameProfile",
    "SequenceProfile",
    "FrameStats",
    "CacheStats",
    "ParityReport",
    "check_backend_parity",
    "sample_frame_ids",
]
