"""Sharded fleet execution with a zero-copy shared-memory warm-state arena.

The ROADMAP's north star is a *fleet*: hundreds of simulated SSDs per
run, not a handful of collocated vSSDs on one device.  Running each
device as its own sweep cell pays for a device build+warm per device
and keeps a private copy of identical post-warm columns in every
worker.  This package removes that cost:

* :class:`~repro.fleet.arena.SharedArena` places the warm-snapshot numpy
  columns (``BlockStore.page_lpns``/``erase_count``, ``ChannelArrays``
  horizons, L2P tables) into a named ``multiprocessing.shared_memory``
  segment; shard workers restore devices from a zero-copy view instead
  of unpickling (``REPRO_ARENA=off|shm`` selects the mode).
* :class:`~repro.fleet.runner.FleetShardRunner` schedules device shards
  round-robin across the persistent worker pool of ``repro.parallel``.
  Each shard returns its devices' telemetry over the result pipe and
  the parent merges it in device order — the merged fleet telemetry is
  byte-identical to a serial loop over the same devices
  (:func:`~repro.fleet.runner.run_fleet_serial`), because both run each
  device through the same sweep-cell function.

Shard timings appear in ``repro profile`` under ``fleet.shard<k>.*``;
the ``arena.attach``, ``arena.hits`` and ``ipc.bytes_saved`` counters
quantify the snapshot traffic the arena removed.
"""

from repro.fleet.arena import ArenaManifest, SharedArena, arena_mode, leaked_segments
from repro.fleet.runner import FleetResult, FleetShardRunner, build_fleet, run_fleet_serial
from repro.fleet.spec import DeviceSpec, FleetShardCell

__all__ = [
    "ArenaManifest",
    "SharedArena",
    "arena_mode",
    "leaked_segments",
    "FleetResult",
    "FleetShardRunner",
    "build_fleet",
    "run_fleet_serial",
    "DeviceSpec",
    "FleetShardCell",
]
