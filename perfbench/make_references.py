"""Regenerate ``perfbench/references.json`` from the program's own paths.

    python3 -m perfbench.make_references

Each workload's reference digests come from the program's reference
path for that work, not from the benchmark's unit code:

* cell — ``repro.parallel.worker.run_cell`` on the cell's
  ``ExperimentCell`` (sha256 of results CSV + window CSV);
* fleet — ``repro.fleet.run_fleet_serial``, the serial device loop the
  sharded run must equal byte for byte;
* pretrain — sha256 of the trained net's flat parameters.

Run it only when a change is meant to alter simulated output, and say
so: every speed-only change must leave these digests alone.
"""

from __future__ import annotations

import os
import sys

from perfbench import run as bench

os.environ.update(bench.child_env())  # before numpy loads its BLAS
sys.path.insert(0, str(bench.ROOT / "src"))

import hashlib  # noqa: E402
import json  # noqa: E402

from perfbench import unit  # noqa: E402


def cell_digest(seed: int) -> str:
    from repro.parallel.matrix import ExperimentCell
    from repro.parallel.worker import run_cell

    cell = ExperimentCell(
        scenario="+".join(unit.CELL["workloads"]),
        workloads=unit.CELL["workloads"],
        policy=unit.CELL["policy"],
        seed=seed,
        duration_s=unit.CELL["duration_s"],
        measure_after_s=unit.CELL["measure_after_s"],
    )
    outcome = run_cell(cell, profile=False)
    if not outcome.ok:
        raise RuntimeError(f"{cell.cell_id}: {outcome.error}")
    return hashlib.sha256(outcome.telemetry).hexdigest()


def fleet_digest(seed: int) -> str:
    from repro.fleet import run_fleet_serial

    result = run_fleet_serial(unit.fleet_specs(seed), profile=False)
    if not result.ok:
        raise RuntimeError(f"fleet seed {seed}: {result.errors}")
    return result.telemetry_digest


def pretrain_digest(seed: int) -> str:
    return unit.run_pretrain(seed)["digest"]


DIGESTS = {"cell": cell_digest, "fleet": fleet_digest, "pretrain": pretrain_digest}
#: Seeds per workload: more than one run's units, so runs at different
#: ``--seed`` draw different subsets.
POOL = 24


def main() -> int:
    bench.prime(bench.child_env())
    refs = {
        workload: {
            "config": unit.CONFIGS[workload],
            "digests": {str(seed): DIGESTS[workload](seed) for seed in range(POOL)},
        }
        for workload in unit.WORKLOADS
    }
    bench.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
