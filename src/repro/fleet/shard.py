"""Worker-side shard executor.

Runs one :class:`~repro.fleet.spec.FleetShardCell` — a device-ordered
slice of the fleet — inside a pool worker.  Each device runs through
:func:`repro.parallel.worker._run_experiment_cell`, the same function
:func:`~repro.fleet.runner.run_fleet_serial` runs, so a device's
telemetry bytes come from one code path however the fleet is executed.
The shard returns them in its outcome's ``result`` dict over the result
pipe, and the parent merges them in device order.

Degradation ladder, in order of preference:

1. arena restore — zero-copy views of the shared warm-state segment;
2. the regular snapshot cache, or a cold build+warm — the arena was
   not published or its attach failed.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.fleet.arena import install_manifest
from repro.fleet.spec import FleetShardCell
from repro.parallel.worker import CellOutcome, _run_experiment_cell
from repro.profiling import PROFILER


def run_fleet_shard(cell: FleetShardCell) -> CellOutcome:
    """Run every device of the shard, in device order.

    The outcome's ``result`` is a plain dict: ``telemetry`` (device
    index → that device's telemetry bytes), ``device_wall_s`` (device
    index → seconds), and the arena attach diagnostic.
    """
    arena_attached = False
    if cell.arena is not None:
        arena_attached = install_manifest(cell.arena)
    telemetry: Dict[int, bytes] = {}
    device_wall_s: Dict[int, float] = {}
    for spec in cell.devices:
        started = time.perf_counter()
        with PROFILER.timer("fleet.device"):
            outcome = _run_experiment_cell(spec.experiment_cell())
        telemetry[spec.index] = outcome.telemetry
        device_wall_s[spec.index] = time.perf_counter() - started
    return CellOutcome(
        cell=cell,
        ok=True,
        result={
            "arena_attached": arena_attached,
            "telemetry": telemetry,
            "device_wall_s": device_wall_s,
        },
        telemetry=b"",
    )
