"""Fleet runner: sharded telemetry byte-equality, degradation, healing.

The fleet contract in one line: however the devices are executed —
serial loop, sharded pool, arena on or off, a shard worker crashing and
being retried — the merged telemetry is byte-identical and ``/dev/shm``
ends empty, even when the watchdog kills a hung shard worker.
"""

import dataclasses
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.fleet import (
    DeviceSpec,
    FleetShardRunner,
    build_fleet,
    leaked_segments,
    run_fleet_serial,
)
from repro.fleet.arena import install_manifest
from repro.harness import snapshots
from repro.parallel.worker import RUNNERS

SPECS = build_fleet(
    4,
    workloads=("ycsb",),
    policy="hardware",
    base_seed=11,
    duration_s=0.5,
    measure_after_s=0.1,
)


@pytest.fixture(scope="module")
def serial():
    result = run_fleet_serial(SPECS)
    assert result.ok, result.errors
    return result


def test_build_fleet_is_homogeneous_with_per_device_seeds():
    assert [spec.index for spec in SPECS] == [0, 1, 2, 3]
    assert [spec.seed for spec in SPECS] == [11, 12, 13, 14]
    assert {spec.workloads for spec in SPECS} == {("ycsb",)}
    assert SPECS[2].device_id == "dev002/ycsb/hardware/s13"


def test_sharded_fleet_matches_serial_arena_off(serial):
    fleet = FleetShardRunner(shards=2, arena=False).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.shards == 2
    assert fleet.telemetry == serial.telemetry
    assert fleet.arena == {"mode": "off", "published": False,
                           "attached_shards": 0}
    # Telemetry travels over the result pipe: with no arena, nothing is
    # credited as saved.
    assert "ipc.bytes_saved" not in fleet.profile["counters"]
    assert leaked_segments() == []


def test_sharded_fleet_matches_serial_arena_on(serial):
    # Forked shard workers inherit this process's snapshot cache, which
    # the serial fixture filled: start cold so devices restore from the
    # arena rather than from inherited cache entries.
    snapshots.clear_memory_cache()
    fleet = FleetShardRunner(shards=2, arena=True).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.telemetry == serial.telemetry
    assert fleet.arena["published"]
    assert fleet.arena["attached_shards"] == 2
    counters = fleet.profile["counters"]
    assert counters["arena.attach"] >= 1
    assert counters["arena.hits"] >= 1
    # The counter's one meaning: arena payload bytes per zero-copy restore.
    assert counters["ipc.bytes_saved"] == (
        counters["arena.hits"] * fleet.arena["payload_nbytes"]
    )
    assert leaked_segments() == []
    # Per-shard profiler namespaces surface in the merged profile.
    assert any(
        name.startswith("fleet.shard0.") for name in fleet.profile["timers"]
    )
    assert any(
        name.startswith("fleet.shard1.") for name in fleet.profile["timers"]
    )


def test_empty_fleet_is_ok():
    result = FleetShardRunner(shards=1).run([])
    assert result.ok
    assert result.telemetry == b""
    assert leaked_segments() == []


def _flaky_fleet_shard(cell):
    """Crash the whole worker once per shard, then run the real thing."""
    from repro.fleet.shard import run_fleet_shard

    marker = Path(os.environ["REPRO_TEST_FLAKY_DIR"]) / f"shard{cell.shard_index}"
    if not marker.exists():
        marker.write_text("crashed-once\n")
        os._exit(13)
    return run_fleet_shard(cell)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the flaky runner is injected via fork inheritance",
)
def test_crashed_shard_retried_byte_identical_and_leak_free(
    serial, tmp_path, monkeypatch
):
    """Every shard worker dies once mid-run; the retried shards' merged
    bytes still equal serial."""
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    monkeypatch.setitem(RUNNERS, "fleet_shard", _flaky_fleet_shard)
    fleet = FleetShardRunner(shards=2, arena=True, max_attempts=2).run(SPECS)
    assert fleet.ok, fleet.errors
    assert fleet.telemetry == serial.telemetry
    assert all(outcome.attempts == 2 for outcome in fleet.outcomes)
    assert leaked_segments() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the crash runner is injected via fork inheritance",
)
def test_crashing_every_attempt_reports_errors_without_leaks(monkeypatch):
    def _always_crash(cell):
        os._exit(13)

    monkeypatch.setitem(RUNNERS, "fleet_shard", _always_crash)
    fleet = FleetShardRunner(shards=2, arena=True, max_attempts=2).run(SPECS)
    assert not fleet.ok
    assert fleet.errors
    assert fleet.device_telemetry == {}
    assert leaked_segments() == []


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the hang runner is injected via fork inheritance",
)
def test_hung_shard_killed_by_watchdog_without_leaks(monkeypatch):
    """A shard worker that attached the arena and then wedges is killed
    at its deadline; the run reports the shard and leaks no segment."""
    hang = RUNNERS["hang"]

    def _attach_then_hang(cell):
        assert install_manifest(cell.arena)
        return hang(cell)

    monkeypatch.setitem(RUNNERS, "fleet_shard", _attach_then_hang)
    fleet = FleetShardRunner(
        shards=2, arena=True, join_timeout_s=1.0, max_attempts=1
    ).run(SPECS)
    assert not fleet.ok
    assert fleet.arena["published"]
    assert len(fleet.errors) == 2
    for k, error in enumerate(fleet.errors):
        assert f"fleet/shard{k}(" in error and "hung" in error
    assert leaked_segments() == []


def test_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        FleetShardRunner(shards=0)


def test_fleet_respects_device_spec_immutability():
    spec = SPECS[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.seed = 99
    assert isinstance(spec, DeviceSpec)
