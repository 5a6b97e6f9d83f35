"""One unit of benchmark work, run in a fresh interpreter.

    python3 -m perfbench.unit --workload cell --seed 0 --spawned-at T [--trace]

A unit is what a user pays for once: start Python, import, load the
primed artifacts, build, then do the work.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` includes interpreter start-up and imports.  The unit prints
one JSON line: the telemetry (or parameter) digest, ``setup_s``,
``run_s``, simulated device-seconds, peak RSS of this process and its
children, outcome figures and, with ``--trace``, the per-layer
counters.  ``--prime`` builds the cached policy and classifier instead.
"""

from __future__ import annotations

import time

_IMPORT_STARTED = time.monotonic()

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

#: The canonical collocation: the ROADMAP's digests all refer to it.
CELL = {
    "workloads": ("ycsb", "terasort"),
    "policy": "fleetio",
    "duration_s": 8.0,
    "measure_after_s": 2.0,
}
#: A homogeneous software-isolated fleet on the persistent pool.
FLEET = {
    "workloads": ("vdi-web", "pagerank"),
    "policy": "software",
    "devices": 4,
    "duration_s": 2.0,
    "measure_after_s": 0.5,
}
#: Scalar-engine pre-training (the engine of the canonical policy).
PRETRAIN = {"iterations": 12}

#: What ``references.json`` was generated for, JSON-normalised.
CONFIGS = json.loads(json.dumps({"cell": CELL, "fleet": FLEET, "pretrain": PRETRAIN}))
WORKLOADS = tuple(CONFIGS)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is KiB on Linux


def _tenant_rows(telemetry: bytes) -> list:
    """Rows of the results-CSV section that heads every telemetry blob."""
    from repro.harness.report import CSV_COLUMNS

    header = ",".join(CSV_COLUMNS)
    rows = []
    for block in telemetry.decode("utf-8").split(header + "\r\n")[1:]:
        for row in csv.reader(io.StringIO(block, newline="")):
            if len(row) != len(CSV_COLUMNS):
                break  # the window-CSV section starts
            rows.append(dict(zip(CSV_COLUMNS, row)))
    return rows


def _tenant_outcome(telemetry: bytes, latency: str, bandwidth: str) -> dict:
    """Latency tenant p99 + samples and bandwidth tenant MB/s.

    Over several devices (a fleet), the median device's figure.
    """
    rows = _tenant_rows(telemetry)
    p99 = sorted(float(r["p99_latency_us"]) for r in rows if r["vssd"] == latency)
    samples = sum(int(r["completed"]) for r in rows if r["vssd"] == latency)
    bw = sorted(float(r["mean_bw_mbps"]) for r in rows if r["vssd"] == bandwidth)
    return {
        "sim_ls_p99_ms": p99[len(p99) // 2] / 1000.0 if p99 else 0.0,
        "sim_ls_samples": samples,
        "sim_bw_mbps": bw[len(bw) // 2] if bw else 0.0,
    }


def run_cell(seed: int) -> dict:
    from repro.config import SSDConfig
    from repro.harness.experiment import Experiment
    from repro.harness.report import results_csv_bytes
    from repro.harness.telemetry import windows_csv_bytes
    from repro.parallel.matrix import plans_for

    # Same construction and telemetry as repro.parallel.worker.run_cell,
    # split so the build is timed apart from the run.
    experiment = Experiment(
        plans_for(CELL["workloads"]), CELL["policy"], ssd_config=SSDConfig(), seed=seed
    )
    experiment.build()
    started = time.monotonic()
    result = experiment.run(CELL["duration_s"], CELL["measure_after_s"])
    run_s = time.monotonic() - started
    telemetry = results_csv_bytes({CELL["policy"]: result}) + windows_csv_bytes(
        {name: monitor.window_history for name, monitor in experiment.monitors.items()}
    )
    return {
        "started": started,
        "run_s": run_s,
        "sim_s": CELL["duration_s"],
        "digest": hashlib.sha256(telemetry).hexdigest(),
        "telemetry_bytes": len(telemetry),
        "outcome": _tenant_outcome(telemetry, *CELL["workloads"]),
    }


def fleet_specs(seed: int) -> list:
    from repro.fleet import build_fleet

    return build_fleet(
        FLEET["devices"],
        workloads=FLEET["workloads"],
        policy=FLEET["policy"],
        base_seed=seed,
        duration_s=FLEET["duration_s"],
        measure_after_s=FLEET["measure_after_s"],
    )


def run_fleet(seed: int) -> dict:
    from repro.fleet import FleetShardRunner, leaked_segments

    specs = fleet_specs(seed)
    present = set(leaked_segments())
    shards = min(2, os.cpu_count() or 1)
    started = time.monotonic()
    result = FleetShardRunner(shards=shards, workers=shards, arena=True).run(specs)
    wall_s = time.monotonic() - started
    leaked = sorted(set(leaked_segments()) - present)
    if not result.ok:
        raise RuntimeError(f"fleet run failed: {result.errors}")
    timers = result.profile.get("timers", {})
    # Critical path of the simulation: the busiest shard's device runs
    # minus their builds (build = arena restore or cold build + warm).
    # Everything else in the fleet's wall (pool start, arena publish,
    # shard restores, merge) is set-up.
    busiest = max(
        timers.get(f"fleet.shard{k}.fleet.device", {}).get("total_ns", 0)
        - timers.get(f"fleet.shard{k}.harness.build", {}).get("total_ns", 0)
        for k in range(result.shards)
    ) / 1e9
    telemetry = result.telemetry
    return {
        "started": started + (wall_s - busiest),
        "run_s": busiest,
        "sim_s": FLEET["duration_s"] * len(specs),
        "digest": result.telemetry_digest,
        "telemetry_bytes": len(telemetry),
        "leaked_segments": leaked,
        "outcome": _tenant_outcome(telemetry, *FLEET["workloads"]),
        "worker_counters": result.profile.get("counters", {}),
    }


def run_pretrain(seed: int) -> dict:
    from repro.config import RLConfig
    from repro.core.pretrain import pretrain
    from repro.profiling import PROFILER

    # The per-window counters pretrain emits give the env-step count.
    PROFILER.enable()
    before = dict(PROFILER.counters())
    started = time.monotonic()
    result = pretrain(iterations=PRETRAIN["iterations"], seed=seed)
    run_s = time.monotonic() - started
    counters = PROFILER.counters()
    windows = counters.get("pretrain.windows", 0) - before.get("pretrain.windows", 0)
    transitions = counters.get("pretrain.transitions", 0) - before.get(
        "pretrain.transitions", 0
    )
    params = result.net.get_flat_params()
    return {
        "started": started,
        "run_s": run_s,
        "sim_s": windows * RLConfig().decision_interval_s,
        "digest": hashlib.sha256(params.tobytes()).hexdigest(),
        "outcome": {
            "train_reward": result.final_reward,
            "train_rate": transitions / run_s,
        },
    }


RUNNERS = {"cell": run_cell, "fleet": run_fleet, "pretrain": run_pretrain}


def prime() -> None:
    """Build the canonical policy and classifier into REPRO_CACHE_DIR."""
    from repro.harness.pretrained import get_classifier, get_pretrained_net

    get_classifier()
    # The seed search fans out over the pool; the cache key (and the
    # winner) do not depend on the worker count.
    get_pretrained_net(workers=min(2, os.cpu_count() or 1))


def probe_facts() -> dict:
    """numpy's version and the host fast-path probes, as this process
    left them."""
    import numpy

    from repro.core import vector_env
    from repro.rl import nets

    return {
        "numpy": numpy.__version__,
        "gemm_row_stable": {
            "x".join(map(str, key)): value
            for key, value in sorted(nets._ROW_STABLE_CACHE.items())
        },
        "pow4_stable": vector_env._POW4_STABLE,
    }


def inject_delay(target: str) -> None:
    """Spin for a fixed host time around one public function.

    ``target`` is ``module:Class.method=seconds``; the layer-map
    self-test uses it to slow one layer down from outside.
    """
    import importlib

    where, seconds = target.rsplit("=", 1)
    module_name, path = where.split(":")
    owner_name, attr = path.rsplit(".", 1)
    owner = getattr(importlib.import_module(module_name), owner_name)
    inner = getattr(owner, attr)
    delay = float(seconds)

    def delayed(*args, **kwargs):
        until = time.perf_counter() + delay
        while time.perf_counter() < until:
            pass
        return inner(*args, **kwargs)

    setattr(owner, attr, delayed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--prime", action="store_true")
    parser.add_argument("--delay", action="append", default=[],
                        metavar="MODULE:CLASS.METHOD=SECONDS")
    args = parser.parse_args(argv)
    if args.prime:
        prime()
        return 0
    spawned = args.spawned_at if args.spawned_at is not None else _IMPORT_STARTED
    report: dict = {"workload": args.workload, "seed": args.seed, "ok": False}
    try:
        for target in args.delay:
            inject_delay(target)
        if args.trace:
            from perfbench import tracer
            from repro.profiling import PROFILER

            tracer.install()
            PROFILER.enable()
        report.update(RUNNERS[args.workload](args.seed))
        report["setup_s"] = report.pop("started") - spawned
        if args.trace:
            tracer.flush()
            counters = dict(PROFILER.counters())
            for name, value in report.pop("worker_counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            report["counters"] = counters
        report.pop("worker_counters", None)
        report["probes"] = probe_facts()
        report["ok"] = not report.get("leaked_segments")
    except Exception as exc:  # a failed unit is reported, not raised
        report["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    report["rss_mb"] = _peak_rss_mb()
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
