"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench -q      # a few minutes; primes on first use

* Tracing must not change the simulation: traced and untraced units
  give the reference digests, and two traced units at one seed give
  identical work counts, so those counts can be cited as exact.  Where
  the program counts the same work itself, the counts agree.
* The layer map must hold: a host-time delay injected around
  ``VssdFtl.run_gc`` moves ``sim_rate`` on ``cell`` by more than its
  bound and leaves ``fleet`` within it; a delay around
  ``TokenBucketStridePolicy.select`` does the opposite.
"""

from __future__ import annotations

import json
import statistics

import pytest

from perfbench import run as bench
from perfbench.tracer import layer_metrics

ENV = bench.child_env()
REFS = json.loads(bench.REFERENCES.read_text())
BENCHMARK = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SIM_RATE_BOUND = next(m["bound"] for m in BENCHMARK["end_to_end"] if m["name"] == "sim_rate")

#: Work counts that must repeat exactly at a fixed seed.
EXACT = (
    "sim.events", "sched.submits", "ssd.pages_written", "ssd.pages_read",
    "ssd.gc_pages_moved", "ssd.blocks_erased", "ssd.warm_pages",
    "workloads.requests", "core.env_steps", "rl.forward_rows", "rl.transitions",
)
#: Per workload, counts that must be non-zero (the layer was traced).
EXERCISED = {
    "cell": ("sim.events", "ssd.gc_pages_moved", "rl.forward_rows", "virt.actions_submitted"),
    "fleet": ("sim.events", "sched.select_calls", "parallel.tasks", "fleet.arena_attach"),
    "pretrain": ("core.env_steps", "rl.forward_rows", "rl.transitions"),
}

#: Tracer counts that the program also counts itself (profiler counters).
PROGRAM_COUNTERS = {
    "ssd.span_calls": "ftl.io_requests",
    "ssd.blocks_erased": "ftl.gc_blocks_erased",
    "core.decision_windows": "rl.decision_windows",
    "rl.transitions": "pretrain.transitions",
}

GC_DELAY = "repro.ssd.ftl:VssdFtl.run_gc=0.003"
SELECT_DELAY = "repro.sched.policies:TokenBucketStridePolicy.select=0.00002"


@pytest.fixture(scope="module", autouse=True)
def primed() -> None:
    bench.prime(ENV)


def unit(workload: str, seed: int, trace: bool = False, extra: tuple = ()) -> dict:
    result = bench.check(bench.run_unit(workload, seed, trace, ENV, extra), REFS)
    assert result["ok"], result.get("error")
    return result


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_tracing_does_not_change_the_simulation(workload: str) -> None:
    seed = bench.unit_seeds(workload, 0, REFS)[0]
    plain = unit(workload, seed)
    traced = [unit(workload, seed, trace=True) for _ in range(2)]
    want = REFS[workload]["digests"][str(seed)]
    assert [plain["digest"]] + [t["digest"] for t in traced] == [want] * 3
    first, second = (layer_metrics(t["counters"]) for t in traced)
    assert {n: first[n] for n in EXACT} == {n: second[n] for n in EXACT}
    assert all(first[n] > 0 for n in EXERCISED[workload]), first
    counters = traced[0]["counters"]
    assert {n: first[n] for n in PROGRAM_COUNTERS} == {
        n: counters.get(c, 0) for n, c in PROGRAM_COUNTERS.items()
    }
    # The traced run reports exactly the per-layer metrics BENCHMARK.json declares.
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(bench.per_layer([plain], traced)) == declared


def sim_rate(workload: str, extra: tuple = ()) -> float:
    seeds = bench.unit_seeds(workload, 0, REFS)[:3]
    return statistics.median(
        u["sim_s"] / u["run_s"] for u in (unit(workload, s, extra=extra) for s in seeds)
    )


def test_injected_delays_move_only_their_layer() -> None:
    base = {w: sim_rate(w) for w in ("cell", "fleet")}
    gc = {w: sim_rate(w, ("--delay", GC_DELAY)) for w in base}
    select = {w: sim_rate(w, ("--delay", SELECT_DELAY)) for w in base}

    def slowdown(rates: dict, workload: str) -> float:
        return 1.0 - rates[workload] / base[workload]

    report = {w: (base[w], gc[w], select[w]) for w in base}
    assert slowdown(gc, "cell") > SIM_RATE_BOUND, report
    assert abs(slowdown(gc, "fleet")) <= SIM_RATE_BOUND, report
    assert slowdown(select, "fleet") > SIM_RATE_BOUND, report
    assert abs(slowdown(select, "cell")) <= SIM_RATE_BOUND, report
