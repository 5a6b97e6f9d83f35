"""Fleet work units: device specs and shard cells.

A fleet run is N :class:`DeviceSpec` rows — one simulated SSD each —
partitioned round-robin into K :class:`FleetShardCell` work units that
the persistent pool of ``repro.parallel`` executes like any other cell.
Registering the shard runner happens at import time, and because
unpickling a cell imports this module, a pool worker that receives a
fleet cell always has the runner before ``run_cell`` looks it up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.fleet.arena import ArenaManifest
from repro.parallel.matrix import ExperimentCell
from repro.parallel.worker import CellOutcome, register_runner


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated SSD of the fleet.

    ``index`` is the device's position in fleet order — the merge key
    that makes sharded telemetry byte-identical to a serial device loop.
    """

    index: int
    workloads: Tuple[str, ...]
    policy: str
    seed: int
    duration_s: float = 4.0
    measure_after_s: float = 1.0
    num_channels: Optional[int] = None

    @property
    def device_id(self) -> str:
        """Stable identity, e.g. ``dev007/ycsb+terasort/adaptive/s7``."""
        return (
            f"dev{self.index:03d}/{'+'.join(self.workloads)}/"
            f"{self.policy}/s{self.seed}"
        )

    def experiment_cell(self) -> ExperimentCell:
        """The single-device sweep cell that runs this device."""
        return ExperimentCell(
            scenario="+".join(self.workloads),
            workloads=self.workloads,
            policy=self.policy,
            seed=self.seed,
            duration_s=self.duration_s,
            measure_after_s=self.measure_after_s,
            num_channels=self.num_channels,
        )


@dataclass(frozen=True)
class FleetShardCell:
    """One shard: a worker-sized slice of the fleet, in device order."""

    shard_index: int
    devices: Tuple[DeviceSpec, ...]
    #: Shared warm-state arena (None: regular snapshot path).
    arena: Optional[ArenaManifest] = None
    #: Name of the registered cell runner (``repro.parallel.worker``).
    runner: str = "fleet_shard"

    @property
    def cell_id(self) -> str:
        """Stable human-readable identity, e.g. ``fleet/shard3(x8)``."""
        return f"fleet/shard{self.shard_index}(x{len(self.devices)})"


def _run_fleet_shard_cell(cell: FleetShardCell) -> CellOutcome:
    """Thin registry wrapper: the executor lives in ``repro.fleet.shard``.

    Deferred import keeps cell *unpickling* (which imports this module)
    from dragging the whole harness stack into workers that only route
    other cell types.
    """
    from repro.fleet.shard import run_fleet_shard

    return run_fleet_shard(cell)


register_runner("fleet_shard", _run_fleet_shard_cell)
