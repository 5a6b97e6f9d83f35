"""The simulator's benchmark: cell, fleet and pre-training workloads.

    python3 perfbench/run.py --workload cell --seed 3 --seconds 20 --trace 0

Run from the root of a source tree.  Each unit of work runs in a fresh
interpreter (``perfbench/unit.py``), as a user's ``repro`` command
would; units repeat until ``--seconds`` have passed and every metric is
the median over the units.  Every unit's output is checked against
``perfbench/references.json``; a unit that raises, mismatches or leaks
a ``/dev/shm`` segment counts as failed.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/tracer.py``) plus
the outcome figures and the tracing overhead.  Human-readable lines
start with ``#``; the last line is the JSON result.  Without the
program's sources beside it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE_DIR = ROOT / ".perfbench-cache"
REFERENCES = HERE / "references.json"
sys.path.insert(0, str(ROOT))  # perfbench.*, when run as a script

from perfbench.unit import CONFIGS, WORKLOADS  # noqa: E402

#: At least this many timed units per run, whatever ``--seconds`` says.
MIN_UNITS = 3
#: Traced units per ``--trace 1`` run (after the untraced ones).
TRACED_UNITS = 3
#: A run must end within 180 s; no unit starts after this mark.
LAST_START_S = 120.0
UNIT_TIMEOUT_S = 150.0
#: Priming the canonical policy from a cold cache takes minutes.
PRIME_TIMEOUT_S = 850.0

#: Environment knobs the program reads: unset so defaults apply.
UNSET_KNOBS = ("REPRO_SNAPSHOTS", "REPRO_ARENA", "REPRO_DETSAN")
#: One BLAS thread per process: the fleet already runs one worker per
#: core, and threaded BLAS on small matrices only adds noise.  A fixed
#: hash seed gives every unit the same dict and set layout (the
#: program's output does not depend on it; its speed varies with it).
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}
#: Outcome figures a unit reports (``unit.py``), by workload kind.
OUTCOMES = ("sim_ls_p99_ms", "sim_ls_samples", "sim_bw_mbps", "train_reward", "train_rate")


def unit_seeds(workload: str, seed: int, refs: dict) -> list:
    """The unit seeds of one run, in order: a shuffle of the reference
    pool drawn from ``seed``.  Every cell run starts with seed 0, the
    canonical cell (digest ``3636a8ff``)."""
    head = [0] if workload == "cell" else []
    rest = sorted(int(s) for s in refs[workload]["digests"] if int(s) not in head)
    random.Random(seed).shuffle(rest)
    return head + rest


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_KNOBS}
    env.update(PINNED)
    env["REPRO_CACHE_DIR"] = str(CACHE_DIR)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def run_unit(workload: str, seed: int, trace: bool, env: dict, extra: tuple = ()) -> dict:
    """One unit in a fresh interpreter; its JSON line, or a failure."""
    cmd = [sys.executable, "-m", "perfbench.unit", "--workload", workload,
           "--seed", str(seed), *extra, "--spawned-at"]
    if trace:
        cmd.insert(-1, "--trace")
    cmd.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"workload": workload, "seed": seed, "ok": False, "error": "timeout"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"workload": workload, "seed": seed, "ok": False,
                "error": f"exit {proc.returncode}: {tail[0]}"}


def check(unit: dict, refs: dict) -> dict:
    """Mark the unit failed unless its digest is the reference's."""
    if unit.get("ok"):
        want = refs[unit["workload"]]["digests"].get(str(unit["seed"]))
        if unit.get("digest") != want:
            unit["ok"] = False
            unit["error"] = f"digest {unit.get('digest', '')[:8]} != reference {str(want)[:8]}"
    return unit


def prime(env: dict) -> None:
    """Build the canonical policy and classifier once per checkout, so
    no timed unit pays for it."""
    marker = CACHE_DIR / "primed"
    if marker.exists():
        return
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    subprocess.run([sys.executable, "-m", "perfbench.unit", "--prime"], cwd=ROOT,
                   env=env, check=True, timeout=PRIME_TIMEOUT_S,
                   stdout=subprocess.DEVNULL)
    marker.write_text("canonical policy and classifier are cached here\n")


def host_facts(units: list) -> dict:
    """Host, interpreter and pinned environment, plus the numpy version
    and fast-path probe results the units reported."""
    probes = next((u["probes"] for u in units if "probes" in u), {})
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or revision
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "revision": revision,
        "env": {"unset": list(UNSET_KNOBS), "REPRO_CACHE_DIR": str(CACHE_DIR), **PINNED},
        **probes,
    }


def median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(units: list) -> dict:
    ok = [u for u in units if u.get("ok")]
    return {
        "setup_s": median([u["setup_s"] for u in ok]),
        "sim_rate": median([u["sim_s"] / u["run_s"] for u in ok]),
        "peak_rss_mb": median([u["rss_mb"] for u in ok]),
    }


def per_layer(untraced: list, traced: list) -> dict:
    """Per traced unit: its layer metrics and outcome figures; then the
    median of each over the traced units, the failed fraction and the
    tracing overhead against the untraced units of the same seeds."""
    from perfbench.tracer import layer_metrics

    ok = [u for u in traced if u.get("ok")]
    rows = []
    for u in ok:
        row = dict.fromkeys(OUTCOMES, 0.0)  # a workload has only some of them
        row.update(layer_metrics(u["counters"]))
        row["harness.telemetry_bytes"] = u.get("telemetry_bytes", 0)
        row.update(u["outcome"])
        rows.append(row)
    metrics = {name: median([row[name] for row in rows]) for name in rows[0]} if rows else {}
    # A host rate: from the untraced units.
    metrics["train_rate"] = median(
        [u["outcome"]["train_rate"] for u in untraced if u.get("ok") and "train_rate" in u["outcome"]]
    )
    metrics["fleet.leaked_segments"] = sum(len(u.get("leaked_segments", [])) for u in traced)
    units = untraced + traced
    metrics["failed_frac"] = sum(not u.get("ok") for u in units) / len(units)

    def walls(units: list) -> list:
        return [u["setup_s"] + u["run_s"] for u in units if u.get("ok")]

    plain = walls(untraced[: len(traced)])
    metrics["trace.overhead"] = median(walls(ok)) / median(plain) - 1.0 if plain and ok else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCES.read_text())
    if refs.get(args.workload, {}).get("config") != CONFIGS[args.workload]:
        print(f"perfbench: {REFERENCES.name} does not match the {args.workload} config; "
              "regenerate it with python3 -m perfbench.make_references", file=sys.stderr)
        return 2
    env = child_env()
    # Only cell uses the policy, but whichever run comes first in a
    # checkout pays for it, so no later run's time limit is at risk.
    prime(env)
    seeds = unit_seeds(args.workload, args.seed, refs)
    started = time.monotonic()
    untraced: list = []
    while len(untraced) < MIN_UNITS or time.monotonic() - started < args.seconds:
        if time.monotonic() - started > LAST_START_S:
            break
        seed = seeds[len(untraced) % len(seeds)]
        untraced.append(check(run_unit(args.workload, seed, False, env), refs))
    traced: list = []
    if args.trace:
        for seed in seeds[:TRACED_UNITS]:
            traced.append(check(run_unit(args.workload, seed, True, env), refs))
    units = untraced + traced
    failed = [u for u in units if not u.get("ok")]
    print("# host " + json.dumps(host_facts(units), sort_keys=True))
    for u in failed:
        print(f"# FAILED {u['workload']} seed {u['seed']}: {u.get('error', 'leaked shm segment')}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        values, kind = per_layer(untraced, traced), "per_layer"
    else:
        values, kind = end_to_end(untraced), "end_to_end"
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in declared[kind]
    }
    for name, entry in metrics.items():
        print(f"# {args.workload:8s} {name:26s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0



if __name__ == "__main__":
    sys.exit(main())
