"""Fleet scale benchmark: devices/sec, arena A/B, and byte-equality.

Runs one homogeneous fleet (adaptive policy over the ycsb+terasort
collocation, one seed per device) three ways —

* ``baseline``         — one pool task per device: each device is a
  sweep cell on the persistent pool, no sharding and no arena;
* ``fleet/arena-off``  — devices sharded over the persistent pool, with
  per-worker snapshot restores;
* ``fleet/arena-on``   — same, plus the zero-copy shared-memory warm
  -state arena (``REPRO_ARENA=shm`` equivalent).

— asserts all three merged telemetries are **byte-identical**, that no
``/dev/shm`` segment outlives the runs, and writes ``BENCH_fleet.json``
with devices/sec for each mode plus the arena's state-plane counters
(``arena.attach``, ``arena.hits``, ``ipc.bytes_saved``).

Gates follow the established idiom: byte equality and the leak scan are
unconditional; the >= 1.5x devices/sec gate over the one-task-per-device
baseline needs >= 4 cores *and* the full 32-device fleet, and records
``skipped(<reason>)`` in the JSON otherwise (small hosts still measure
the arena A/B, which does not depend on parallel hardware).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from benchmarks.common import print_expectation, print_gate, print_header
from repro.fleet import FleetShardRunner, build_fleet, leaked_segments, run_fleet_serial
from repro.parallel import ParallelRunner

CORES = os.cpu_count() or 1
#: The acceptance fleet is 32 devices; hosts too small to enforce the
#: throughput gate run a 6-device fleet so the byte-equality and leak
#: contracts (and the arena A/B) still get exercised everywhere.
FULL_DEVICES = 32
DEVICES = FULL_DEVICES if CORES >= 4 else 6
DURATION_S = 0.8
MEASURE_AFTER_S = 0.2
BASE_SEED = 42
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fleet.json"

#: Required devices/sec improvement of the arena-backed fleet over the
#: one-pool-task-per-device baseline (at N >= 32 devices on >= 4 cores).
MIN_FLEET_SPEEDUP = 1.5

SPECS = build_fleet(
    DEVICES,
    workloads=("ycsb", "terasort"),
    policy="adaptive",
    base_seed=BASE_SEED,
    duration_s=DURATION_S,
    measure_after_s=MEASURE_AFTER_S,
)


@pytest.fixture(scope="module")
def runs():
    cells = [spec.experiment_cell() for spec in SPECS]
    shards = max(min(CORES - 1, DEVICES), 1)
    baseline_runner = ParallelRunner(workers=shards)
    baseline = baseline_runner.run(cells)
    fleet_off = FleetShardRunner(shards=shards, arena=False).run(SPECS)
    fleet_on = FleetShardRunner(shards=shards, arena=True).run(SPECS)
    return baseline, fleet_off, fleet_on


def test_fleet_byte_identical_and_leak_free(benchmark, runs):
    """Sharded fleet telemetry == one pool task per device, byte for
    byte, arena on or off — and nothing left behind in /dev/shm."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    baseline, fleet_off, fleet_on = runs
    assert baseline.ok, [f.describe() for f in baseline.failures]
    assert fleet_off.ok, fleet_off.errors
    assert fleet_on.ok, fleet_on.errors
    assert len(baseline.telemetry) > 0
    # The baseline sweep merges in matrix order == device-index order,
    # so its telemetry IS the serial device loop's bytes.
    assert fleet_off.telemetry == baseline.telemetry
    assert fleet_on.telemetry == baseline.telemetry
    assert leaked_segments() == []


def test_fleet_throughput_and_bench_json(benchmark, runs):
    baseline, fleet_off, fleet_on = runs

    def regenerate():
        baseline_dps = DEVICES / baseline.wall_s if baseline.wall_s else 0.0
        speedup_on = (
            fleet_on.devices_per_sec / baseline_dps if baseline_dps else 0.0
        )
        speedup_off = (
            fleet_off.devices_per_sec / baseline_dps if baseline_dps else 0.0
        )
        arena_speedup = (
            fleet_off.wall_s / fleet_on.wall_s if fleet_on.wall_s else 0.0
        )
        counters = fleet_on.profile.get("counters", {})
        capped = CORES < 4
        if os.environ.get("REPRO_FLEET_GATE", "on") == "off":
            reason = "REPRO_FLEET_GATE=off"
        elif CORES < 4:
            reason = (
                f"host has {CORES} core(s); the devices/sec gate needs >= 4 — "
                "shards time-slice one core instead of running in parallel"
            )
        elif DEVICES < FULL_DEVICES:
            reason = f"fleet of {DEVICES} devices; the gate needs >= {FULL_DEVICES}"
        else:
            reason = None
        gate = "enforced" if reason is None else f"skipped({reason})"
        print_header(
            "Fleet scale",
            f"{DEVICES} devices x adaptive, {fleet_on.shards} shards, "
            f"{CORES} cores",
        )
        print(f"  task per device:  {baseline.wall_s:6.1f}s  "
              f"{baseline_dps:6.2f} devices/s  ({baseline.mode})")
        print(f"  fleet/arena-off:  {fleet_off.wall_s:6.1f}s  "
              f"{fleet_off.devices_per_sec:6.2f} devices/s  ({fleet_off.mode})")
        print(f"  fleet/arena-on:   {fleet_on.wall_s:6.1f}s  "
              f"{fleet_on.devices_per_sec:6.2f} devices/s")
        print(f"  speedup:          {speedup_on:6.2f}x  (arena-on vs baseline)")
        print(f"  arena A/B:        {arena_speedup:6.2f}x  (arena-on vs arena-off)")
        print(f"  state plane:      arena.attach={counters.get('arena.attach', 0)} "
              f"arena.hits={counters.get('arena.hits', 0)} "
              f"ipc.bytes_saved={counters.get('ipc.bytes_saved', 0)}")
        payload = {
            "devices": DEVICES,
            "devices_requested": FULL_DEVICES,
            "shards": fleet_on.shards,
            "workers": fleet_on.workers,
            "capped": capped,
            "cpu_count": CORES,
            "mode": fleet_on.mode,
            "gate": gate,
            "baseline_wall_s": round(baseline.wall_s, 3),
            "baseline_devices_per_sec": round(baseline_dps, 3),
            "fleet_off_wall_s": round(fleet_off.wall_s, 3),
            "fleet_off_devices_per_sec": round(fleet_off.devices_per_sec, 3),
            "fleet_on_wall_s": round(fleet_on.wall_s, 3),
            "fleet_on_devices_per_sec": round(fleet_on.devices_per_sec, 3),
            "speedup_vs_process_per_cell": round(speedup_on, 3),
            "speedup_off_vs_process_per_cell": round(speedup_off, 3),
            "arena_speedup": round(arena_speedup, 3),
            "arena": {
                "published": fleet_on.arena.get("published", False),
                "payload_nbytes": fleet_on.arena.get("payload_nbytes", 0),
                "attached_shards": fleet_on.arena.get("attached_shards", 0),
                "attach": counters.get("arena.attach", 0),
                "hits": counters.get("arena.hits", 0),
                "ipc_bytes_saved": counters.get("ipc.bytes_saved", 0),
            },
            "telemetry_bytes": len(fleet_on.telemetry),
            "telemetry_sha256": fleet_on.telemetry_digest,
            "telemetry_byte_equal": (
                fleet_on.telemetry == baseline.telemetry
                and fleet_off.telemetry == baseline.telemetry
            ),
            "leaked_segments": leaked_segments(),
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_PATH.name}")
        return payload

    payload = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_expectation(
        f"arena-backed fleet >= {MIN_FLEET_SPEEDUP}x devices/sec over "
        f"one pool task per device (>= 4 cores, {FULL_DEVICES} devices)",
        f"{payload['speedup_vs_process_per_cell']:.2f}x at "
        f"{payload['devices']} devices on {payload['cpu_count']} cores",
    )
    print_gate("fleet-throughput", payload["gate"])
    assert payload["telemetry_byte_equal"]
    assert payload["leaked_segments"] == []
    # The arena must actually be in play when published: every shard
    # attached and at least one device restored from it.
    if payload["arena"]["published"]:
        assert payload["arena"]["attached_shards"] == payload["shards"]
        assert payload["arena"]["hits"] > 0
        assert payload["arena"]["ipc_bytes_saved"] > 0
    if payload["gate"] != "enforced":
        pytest.skip(
            f"{payload['gate']} — byte-equality and the leak scan were "
            "asserted; BENCH_fleet.json still records the measured numbers"
        )
    assert payload["speedup_vs_process_per_cell"] >= MIN_FLEET_SPEEDUP


def test_fleet_serial_reference_matches(benchmark, runs):
    """The in-process serial device loop is the same bytes again (ties
    the fleet contract to ``run_fleet_serial``, which the CLI's
    ``--verify-serial`` uses)."""
    baseline, _fleet_off, _fleet_on = runs
    serial = benchmark.pedantic(
        lambda: run_fleet_serial(SPECS), rounds=1, iterations=1
    )
    assert serial.ok, serial.errors
    assert serial.telemetry == baseline.telemetry
