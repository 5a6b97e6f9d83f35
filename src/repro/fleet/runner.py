"""Parent-side fleet orchestration.

:class:`FleetShardRunner` is the fleet counterpart of
:class:`repro.parallel.runner.ParallelRunner`: it slices N device specs
round-robin into K :class:`~repro.fleet.spec.FleetShardCell` work units,
publishes the warm-state arena (when ``REPRO_ARENA=shm``), runs the
shards on the persistent worker pool, and merges the per-device
telemetry each shard returns over the result pipe **in device-index
order** — the merged bytes are identical to :func:`run_fleet_serial`
over the same specs, a serial loop of single-device sweep cells.

The arena segment is parent-owned: created before the fan-out and
unlinked in a ``finally`` (with an ``atexit`` backstop inside
:class:`~repro.fleet.arena.SharedArena`), so worker crashes and watchdog
kills cannot leak ``/dev/shm`` entries.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import SSDConfig
from repro.fleet.arena import SharedArena, arena_mode
from repro.fleet.spec import DeviceSpec, FleetShardCell
from repro.harness import snapshots
from repro.harness.experiment import Experiment
from repro.parallel.policy_cache import warm_policy_cache
from repro.parallel.runner import CellOutcome, ParallelRunner, run_serial
from repro.profiling import merge_profiles, namespace_profile


def build_fleet(
    devices: int,
    workloads: Sequence[str] = ("ycsb", "terasort"),
    policy: str = "adaptive",
    base_seed: int = 42,
    duration_s: float = 4.0,
    measure_after_s: float = 1.0,
    num_channels: Optional[int] = None,
) -> List[DeviceSpec]:
    """A homogeneous fleet: same workloads/policy, per-device seeds."""
    return [
        DeviceSpec(
            index=i,
            workloads=tuple(workloads),
            policy=policy,
            seed=base_seed + i,
            duration_s=duration_s,
            measure_after_s=measure_after_s,
            num_channels=num_channels,
        )
        for i in range(devices)
    ]


@dataclass
class FleetResult:
    """Merged outcome of one fleet run."""

    specs: List[DeviceSpec] = field(default_factory=list)
    shards: int = 1
    workers: int = 1
    mode: str = "serial"
    #: Shard-level outcomes (CellOutcome | CellFailure), shard order.
    outcomes: list = field(default_factory=list)
    #: Fleet device index -> that device's telemetry bytes.
    device_telemetry: Dict[int, bytes] = field(default_factory=dict)
    wall_s: float = 0.0
    profile: dict = field(default_factory=dict)
    #: Arena diagnostics: mode, whether a segment was published, its
    #: key/size, and how many shards actually restored from it.
    arena: dict = field(default_factory=dict)
    #: Human-readable reconstruction/shard failures.
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and len(self.device_telemetry) == len(self.specs)

    @property
    def telemetry(self) -> bytes:
        """Merged fleet telemetry, device-index order."""
        return b"".join(
            self.device_telemetry[i] for i in sorted(self.device_telemetry)
        )

    @property
    def telemetry_digest(self) -> str:
        import hashlib

        return hashlib.sha256(self.telemetry).hexdigest()

    @property
    def devices_per_sec(self) -> float:
        return len(self.specs) / self.wall_s if self.wall_s > 0 else 0.0


def run_fleet_serial(
    specs: Sequence[DeviceSpec], profile: bool = True
) -> FleetResult:
    """The reference output: a serial loop of per-device experiments.

    Byte-for-byte, each device contributes exactly what a sweep cell
    ships over the result pipe (results CSV + window CSV) — this is the
    baseline the sharded runner's merged telemetry must equal.
    """
    started = time.perf_counter()
    specs = list(specs)
    sweep = run_serial([spec.experiment_cell() for spec in specs], profile=profile)
    device_telemetry: Dict[int, bytes] = {}
    errors: List[str] = []
    for spec, outcome in zip(specs, sweep.outcomes):
        if isinstance(outcome, CellOutcome) and outcome.ok:
            device_telemetry[spec.index] = outcome.telemetry
        else:
            errors.append(outcome.describe())
    return FleetResult(
        specs=specs,
        shards=1,
        workers=1,
        mode="serial",
        outcomes=sweep.outcomes,
        device_telemetry=device_telemetry,
        wall_s=time.perf_counter() - started,
        profile=sweep.profile,
        arena={"mode": "off", "published": False},
        errors=errors,
    )


class FleetShardRunner:
    """Schedules device shards across the persistent worker pool."""

    def __init__(
        self,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        arena: Optional[bool] = None,
        join_timeout_s: Optional[float] = 900.0,
        max_attempts: int = 2,
        profile: bool = True,
    ) -> None:
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.workers = workers
        #: None: honour ``REPRO_ARENA``; True/False: explicit override.
        self.arena = arena
        self.join_timeout_s = join_timeout_s
        self.max_attempts = max_attempts
        self.profile = profile

    # -- arena ----------------------------------------------------------
    def _publish_arena(self, spec: DeviceSpec) -> Optional[SharedArena]:
        """Build one probe device in the parent and publish its warm
        columns as a shared segment.

        The probe's warm state is seed-independent (deterministic
        sequential warm fill, no engine events or RNG draws before
        capture), so the segment — keyed by ``warm_columns_key`` and
        stripped of stream states — serves every device of the
        homogeneous fleet regardless of per-device seeds.
        """
        config = (
            SSDConfig(num_channels=spec.num_channels)
            if spec.num_channels is not None
            else SSDConfig()
        )
        probe = Experiment(
            spec.experiment_cell().plans(), spec.policy, ssd_config=config, seed=spec.seed
        )
        probe.build()
        snap = snapshots.capture_experiment(probe)
        if snap is None:
            return None
        key = snapshots.warm_columns_key(probe, probe._plan_allocation())
        snap.pop("streams", None)
        return SharedArena(key, snap)

    # -- run -------------------------------------------------------------
    def run(self, specs: Sequence[DeviceSpec]) -> FleetResult:
        started = time.perf_counter()
        specs = list(specs)
        if not specs:
            return FleetResult(mode="fleet/empty")
        cores = multiprocessing.cpu_count()
        shard_count = self.shards or min(len(specs), max(cores - 1, 1))
        shard_count = max(1, min(shard_count, len(specs)))

        arena_on = self.arena if self.arena is not None else arena_mode() == "shm"
        arena_obj: Optional[SharedArena] = None
        arena_stats: dict = {"mode": "shm" if arena_on else "off", "published": False}
        try:
            if arena_on:
                arena_obj = self._publish_arena(specs[0])
                if arena_obj is not None:
                    arena_stats.update(
                        published=True,
                        key=arena_obj.manifest.columns_key,
                        payload_nbytes=arena_obj.manifest.payload_nbytes,
                        segment=arena_obj.manifest.name,
                    )
            cells = [
                FleetShardCell(
                    shard_index=k,
                    devices=tuple(specs[k::shard_count]),
                    arena=arena_obj.manifest if arena_obj is not None else None,
                )
                for k in range(shard_count)
            ]
            # FleetIO policies need the pre-trained net + classifier; warm
            # once in the parent so fork children inherit the memo caches.
            warm_policy_cache([spec.experiment_cell() for spec in specs])
            runner = ParallelRunner(
                workers=self.workers or shard_count,
                profile=self.profile,
                join_timeout_s=self.join_timeout_s,
                max_attempts=self.max_attempts,
            )
            sweep = runner.run(cells)
        finally:
            if arena_obj is not None:
                arena_obj.unlink()
        device_telemetry: Dict[int, bytes] = {}
        errors: List[str] = []
        attached = 0
        for outcome in sweep.outcomes:
            if not (isinstance(outcome, CellOutcome) and outcome.ok):
                errors.append(outcome.describe())
                continue
            payload = outcome.result
            assert isinstance(payload, dict)
            attached += bool(payload["arena_attached"])
            device_telemetry.update(payload["telemetry"])
        arena_stats["attached_shards"] = attached
        profile = merge_profiles(
            namespace_profile(outcome.profile, f"fleet.shard{k}.")
            for k, outcome in enumerate(sweep.outcomes)
            if isinstance(outcome, CellOutcome) and outcome.ok
        )
        return FleetResult(
            specs=specs,
            shards=shard_count,
            workers=sweep.workers,
            mode=f"fleet/{sweep.mode}",
            outcomes=sweep.outcomes,
            device_telemetry=device_telemetry,
            wall_s=time.perf_counter() - started,
            profile=profile,
            arena=arena_stats,
            errors=errors,
        )
