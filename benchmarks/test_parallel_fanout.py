"""Parallel fan-out benchmark: speedup, determinism, and warm amortization.

Runs one experiment matrix (2 policies x 2 seeds over the ycsb+terasort
collocation) four ways —

* ``serial/cold``   — in-process, snapshots off (every cell pays build+warm)
* ``parallel/cold`` — pool, snapshots off (4 workers; every cell pays
  build+warm)
* ``serial/warm``   — in-process, snapshots on (first cell per key warms,
  the rest restore; this pass also primes the parent's snapshot cache)
* ``pool/warm``     — persistent worker pool, snapshots on (forked workers
  inherit the primed cache, so no cell pays build+warm)

— asserts all four merged telemetries are **byte-identical**, and writes
``BENCH_parallel.json`` with the measured speedups plus *amortized
per-cell metrics*: ``build_ns``/``warm_ns``/``restore_ns`` and snapshot
hit/miss counters per cell, so the speedup gate reports where the time
went instead of one opaque wall number.

Gates follow the established idiom: byte equality is unconditional;
wall-clock gates are ``pytest.skip``-with-reason on hosts that cannot
express the effect (< 4 cores for fan-out, a non-fork start method for
snapshot inheritance).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from benchmarks.common import print_expectation, print_gate, print_header
from repro.harness import snapshots
from repro.parallel import (
    ExperimentMatrix,
    ParallelRunner,
    run_serial,
    warm_policy_cache,
)
from repro.profiling import format_profile

#: The canonical 4-cell matrix.  Cells are deliberately short (1.0
#: simulated second): the consumers this amortization serves —
#: adversarial candidate evaluation and pretraining fan-out — run many
#: short episodes, the regime where the fixed build+warm cost is a large
#: share of every cell and snapshot reuse pays off most.
MATRIX = ExperimentMatrix.from_workloads(
    ["ycsb", "terasort"],
    ["hardware", "software"],
    seeds=(0, 1),
    duration_s=1.0,
    measure_after_s=0.3,
)
WORKERS = 4
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"

#: Required wall-clock improvement of the amortized sweep (snapshot reuse
#: on the persistent pool) over the cold pool sweep.
MIN_AMORTIZED_SPEEDUP = 1.5


def _per_cell_metrics(sweep):
    """Amortization columns for every cell of a profiled sweep."""
    rows = []
    for outcome in sweep.outcomes:
        timers = outcome.profile.get("timers", {})
        counters = outcome.profile.get("counters", {})

        def ns(name):
            return timers.get(name, {}).get("total_ns", 0)

        rows.append(
            {
                "cell": outcome.cell.cell_id,
                "wall_s": round(outcome.wall_s, 3),
                "build_ns": ns("harness.build"),
                "warm_ns": ns("harness.warm"),
                "save_ns": ns("snapshot.save"),
                "restore_ns": ns("snapshot.restore"),
                "snapshot_hits": counters.get("snapshot.hits", 0),
                "snapshot_misses": counters.get("snapshot.misses", 0),
            }
        )
    return rows


@pytest.fixture(scope="module")
def sweeps():
    cells = MATRIX.cells()
    warm_policy_cache(cells)
    prior = os.environ.get("REPRO_SNAPSHOTS")
    try:
        os.environ["REPRO_SNAPSHOTS"] = "off"
        serial_cold = run_serial(cells)
        parallel_cold = ParallelRunner(workers=WORKERS).run(cells)
        os.environ["REPRO_SNAPSHOTS"] = "mem"
        snapshots.clear_memory_cache()
        snapshots.reset_stats()
        # The warm serial pass pays one build+warm per distinct cache key
        # and primes this process's snapshot cache ...
        serial_warm = run_serial(cells)
        # ... which the pool's forked workers inherit: no cell re-warms.
        pool_warm = ParallelRunner(workers=WORKERS).run(cells)
    finally:
        snapshots.clear_memory_cache()
        if prior is None:
            os.environ.pop("REPRO_SNAPSHOTS", None)
        else:
            os.environ["REPRO_SNAPSHOTS"] = prior
    return serial_cold, parallel_cold, serial_warm, pool_warm


def test_all_modes_byte_identical(benchmark, sweeps):
    """Serial vs pool, snapshots off vs on: the merged telemetry must
    not change by a single byte."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    serial_cold, parallel_cold, serial_warm, pool_warm = sweeps
    for sweep in sweeps:
        assert sweep.ok, [f.describe() for f in sweep.failures]
        assert len(sweep.succeeded) == len(MATRIX)
    assert len(serial_cold.telemetry) > 0
    assert serial_cold.telemetry == parallel_cold.telemetry
    assert serial_cold.telemetry == serial_warm.telemetry
    assert serial_cold.telemetry == pool_warm.telemetry


def test_parallel_speedup_and_bench_json(benchmark, sweeps):
    serial_cold, parallel_cold, serial_warm, pool_warm = sweeps

    def regenerate():
        cores = os.cpu_count() or 1
        speedup = (
            serial_cold.wall_s / parallel_cold.wall_s
            if parallel_cold.wall_s
            else 0.0
        )
        amortized_speedup = (
            parallel_cold.wall_s / pool_warm.wall_s if pool_warm.wall_s else 0.0
        )
        pool_counters = pool_warm.profile.get("counters", {})
        # Gate status is decided *before* the payload is written, so the
        # JSON a capped host records carries the reason its numbers are
        # not gate-quality (workers:1 vs workers_requested:4 used to
        # record speedup 0.506 with no explanation).
        capped = parallel_cold.workers < WORKERS
        if os.environ.get("REPRO_FANOUT_GATE", "on") == "off":
            reason = "REPRO_FANOUT_GATE=off"
        elif cores < 4:
            reason = (
                f"host has {cores} core(s); speedup gates need >= 4 — "
                "fan-out cannot beat serial without parallel hardware"
            )
        else:
            reason = None
        gate = "enforced" if reason is None else f"skipped({reason})"
        if reason is None and "fork" not in pool_warm.mode:
            amortized_gate = (
                f"skipped(start method {pool_warm.mode}: spawned pool "
                "workers cannot inherit the primed snapshot cache)"
            )
        else:
            amortized_gate = gate
        print_header(
            "Parallel fan-out",
            f"{len(MATRIX)} cells, {parallel_cold.workers} workers, "
            f"{cores} cores",
        )
        print(f"  serial/cold:   {serial_cold.wall_s:6.1f}s")
        print(f"  parallel/cold: {parallel_cold.wall_s:6.1f}s  "
              f"({parallel_cold.mode})")
        print(f"  serial/warm:   {serial_warm.wall_s:6.1f}s")
        print(f"  pool/warm:     {pool_warm.wall_s:6.1f}s  ({pool_warm.mode})")
        print(f"  speedup:       {speedup:6.2f}x  (cold fan-out vs serial)")
        print(f"  amortized:     {amortized_speedup:6.2f}x  "
              "(pool+snapshots vs cold pool)")
        print()
        print(format_profile(parallel_cold.profile, total_label="sim.event_loop"))
        payload = {
            "cells": [cell.cell_id for cell in MATRIX.cells()],
            # ``workers`` is the sweep's *effective* worker count — the
            # runner caps the request at the host's core count, so the
            # recorded number reflects what actually ran.
            "workers": parallel_cold.workers,
            "workers_requested": WORKERS,
            #: True when the runner's core cap reduced the request — the
            #: recorded walls then measure time-slicing, not fan-out.
            "capped": capped,
            "cpu_count": cores,
            "start_method": parallel_cold.mode,
            "gate": gate,
            "serial_wall_s": round(serial_cold.wall_s, 3),
            "parallel_wall_s": round(parallel_cold.wall_s, 3),
            "speedup": round(speedup, 3),
            "snapshots": {
                "serial_warm_wall_s": round(serial_warm.wall_s, 3),
                "pool_wall_s": round(pool_warm.wall_s, 3),
                "pool_mode": pool_warm.mode,
                "amortized_speedup": round(amortized_speedup, 3),
                "gate": amortized_gate,
                "hits": pool_counters.get("snapshot.hits", 0),
                "misses": pool_counters.get("snapshot.misses", 0),
            },
            "per_cell": {
                "cold": _per_cell_metrics(parallel_cold),
                "amortized": _per_cell_metrics(pool_warm),
            },
            "telemetry_bytes": len(parallel_cold.telemetry),
            "telemetry_sha256": parallel_cold.telemetry_digest,
            "telemetry_byte_equal": (
                serial_cold.telemetry == parallel_cold.telemetry
                and serial_cold.telemetry == serial_warm.telemetry
                and serial_cold.telemetry == pool_warm.telemetry
            ),
            "profile": parallel_cold.profile,
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {BENCH_PATH.name}")
        return payload

    payload = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print_expectation(
        "4-worker sweep >= 2x faster than serial (on >= 4 cores); "
        f"pool+snapshots >= {MIN_AMORTIZED_SPEEDUP}x over the cold pool",
        f"{payload['speedup']:.2f}x cold, "
        f"{payload['snapshots']['amortized_speedup']:.2f}x amortized "
        f"on {payload['cpu_count']} cores"
        + (" (workers capped at the core count)" if payload["capped"] else ""),
    )
    print_gate("fanout-speedup", payload["gate"])
    print_gate("amortized-speedup", payload["snapshots"]["gate"])
    assert payload["telemetry_byte_equal"]
    assert payload["profile"]["timers"]["sim.event_loop"]["calls"] == len(MATRIX)
    # Cold cells must show the full fixed cost, amortized cells none.
    for row in payload["per_cell"]["cold"]:
        assert row["warm_ns"] > 0 and row["snapshot_hits"] == 0, row
    if "fork" in payload["snapshots"]["pool_mode"]:
        assert payload["snapshots"]["hits"] == len(MATRIX)
        for row in payload["per_cell"]["amortized"]:
            assert row["snapshot_hits"] == 1, row
            assert row["warm_ns"] == 0, row
            assert row["restore_ns"] > 0, row
    # The skip decisions replay exactly what the payload recorded, so the
    # JSON's gate fields and the test's runtime behavior cannot drift.
    if payload["gate"] != "enforced":
        pytest.skip(
            f"{payload['gate']} — byte-equality was asserted; "
            "BENCH_parallel.json still records the measured numbers"
        )
    assert payload["speedup"] >= 2.0
    if payload["snapshots"]["gate"] != "enforced":
        pytest.skip(payload["snapshots"]["gate"])
    assert payload["snapshots"]["amortized_speedup"] >= MIN_AMORTIZED_SPEEDUP
