"""Per-layer tracing from outside the program.

``install()`` wraps the public functions of every layer the benchmark
breaks down (sim, sched, ssd, virt, workloads, core, rl, harness,
parallel, fleet) in timing wrappers.  Each wrapper keeps a call count,
inclusive host time and self time (inclusive minus the wrapped calls it
contains) on a per-process span stack, plus exact work counts read from
the call's arguments, return value or the objects' public stats.

Records live in this module and are flushed into the program's public
``repro.profiling.PROFILER`` counters under ``perfbench.*`` names.  The
profiler is the sink that crosses process boundaries: a fleet shard
worker forks with the wrappers already installed, runs with the
profiler enabled, and its counter delta comes back in each
``CellOutcome``.  The wrapped shard executor zeroes the records it
inherited at fork time and flushes its own before returning.

``layer_metrics()`` turns the merged counters into the per-layer
metrics named in ``BENCHMARK.json``.  Install before the experiment is
built and before the pool forks, because the program binds some of
these methods once at build time (``IoDispatcher.submit`` is handed to
each workload's request generator, ``policy.select`` to the dispatch
loop).
"""

from __future__ import annotations

import functools
import pickle
import time

PREFIX = "perfbench."

#: span name -> [calls, inclusive ns, self ns]
_SPANS: dict = {}
#: work-count name -> int
_WORK: dict = {}
#: Child time accumulated by the frames currently open; index 0 is a
#: root that absorbs top-level spans.
_STACK: list = [0]
_installed = False


def _add(name: str, n: int) -> None:
    _WORK[name] = _WORK.get(name, 0) + n


def _wrap(owner, attr: str, span: str, after=None) -> None:
    """Replace ``owner.attr`` with a timing wrapper credited to ``span``.

    ``after(args, kwargs, result)`` records work counts once the call
    has returned.
    """
    fn = getattr(owner, attr)
    rec = _SPANS.setdefault(span, [0, 0, 0])
    stack = _STACK
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack.append(0)
        started = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = clock() - started
            child = stack.pop()
            stack[-1] += elapsed
            rec[0] += 1
            rec[1] += elapsed
            rec[2] += elapsed - child
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# -- work-count hooks ---------------------------------------------------
def _span_pages(kind: str):
    def after(args, kwargs, result) -> None:
        _add(f"ssd.span_pages_{kind}", _arg(args, kwargs, 2, "num_pages"))

    return after


def _warm_pages(args, kwargs, result) -> None:
    _add("ssd.warm_pages", int(result))


def _forward_rows(args, kwargs, result) -> None:
    x = _arg(args, kwargs, 1, "x")
    _add("rl.forward_rows", x.shape[0] if getattr(x, "ndim", 1) == 2 else 1)


def _update_rows(args, kwargs, result) -> None:
    _add("rl.transitions", len(_arg(args, kwargs, 1, "buffer")))


def _cache_get(args, kwargs, result) -> None:
    _add("harness.snapshot_hits" if result is not None else "harness.snapshot_misses", 1)


def _parallel_run(args, kwargs, result) -> None:
    from repro.parallel.runner import CellOutcome

    outcomes = result.outcomes
    _add("parallel.tasks", len(outcomes))
    _add("parallel.workers", result.workers)
    for outcome in outcomes:
        _add("parallel.attempts", outcome.attempts)
        if not (isinstance(outcome, CellOutcome) and outcome.ok):
            _add("parallel.failures", 1)
        if isinstance(outcome, CellOutcome):
            _add("parallel.busy_ns", int(outcome.wall_s * 1e9))
        _add("parallel.result_bytes", len(pickle.dumps(outcome)))


def _fleet_run(args, kwargs, result) -> None:
    from repro.parallel.runner import CellOutcome

    _add("fleet.devices", len(result.specs))
    _add("fleet.arena_bytes", int(result.arena.get("payload_nbytes", 0)))
    walls = []
    for outcome in result.outcomes:
        if isinstance(outcome, CellOutcome) and outcome.ok:
            walls.append(outcome.wall_s)
            if (outcome.result or {}).get("overflow_from") is not None:
                _add("fleet.ring_overflows", 1)
    if walls:
        # Max / mean shard wall, in parts per million (counters are ints).
        _add("fleet.shard_imbalance_ppm", int(1e6 * max(walls) * len(walls) / sum(walls)))


def _experiment_state(experiment) -> dict:
    virt = experiment.virt
    state = {
        "ssd.pages_written": 0,
        "ssd.pages_read": 0,
        "ssd.gc_pages_moved": 0,
        "ssd.blocks_erased": 0,
        "ssd.gc_runs": 0,
        "virt.actions_submitted": virt.admission.stats.submitted,
        "virt.actions_denied": virt.admission.stats.denied,
        "virt.harvests": virt.gsb_manager.stats.gsbs_harvested,
        "virt.harvest_misses": virt.gsb_manager.stats.harvest_misses,
        "virt.blocks_offered": virt.gsb_manager.stats.blocks_offered,
    }
    for plan in experiment.plans:
        stats = virt.vssd_by_name(plan.name).ftl.stats
        state["ssd.pages_written"] += stats.host_writes
        state["ssd.pages_read"] += stats.host_reads
        state["ssd.gc_pages_moved"] += stats.gc_writes
        state["ssd.blocks_erased"] += stats.blocks_erased
        state["ssd.gc_runs"] += stats.gc_runs
    return state


def _wrap_experiment_run(experiment_cls) -> None:
    """Credit the FTL / admission / gSB stats a run changed."""
    inner = experiment_cls.run

    @functools.wraps(inner)
    def run(self, *args, **kwargs):
        self.build()  # run() builds first anyway; stats need the devices
        _HARNESS_MONITORS.clear()
        _HARNESS_MONITORS.update(id(m) for m in self.monitors.values())
        before = _experiment_state(self)
        result = inner(self, *args, **kwargs)
        for name, value in _experiment_state(self).items():
            _add(name, value - before[name])
        return result

    experiment_cls.run = run


#: ids of the running experiment's own monitors.  Under fleetio the
#: controller keeps a second monitor per vSSD fed by the same
#: completions; only the experiment's are counted.
_HARNESS_MONITORS: set = set()


def _wrap_monitor_completion(monitor_cls) -> None:
    """Queue delay (dispatch - submit, simulated) of every completion the
    experiment's monitors fold into their QDelay telemetry field."""
    inner = monitor_cls.on_complete

    @functools.wraps(inner)
    def on_complete(self, request):
        inner(self, request)
        if id(self) in _HARNESS_MONITORS and request.vssd_id == self.vssd.vssd_id \
                and not request.failed:
            delay_ns = int(round((request.dispatch_time - request.submit_time) * 1000.0))
            _add("sched.queue_delay_ns", delay_ns)
            _add("sched.completions", 1)

    monitor_cls.on_complete = on_complete


def _wrap_shard_executor(shard_module) -> None:
    """Fleet shard workers: drop records inherited at fork, flush our own
    before the outcome's profiler delta is taken."""
    inner = shard_module.run_fleet_shard

    @functools.wraps(inner)
    def run_fleet_shard(cell):
        reset()
        try:
            return inner(cell)
        finally:
            flush()

    shard_module.run_fleet_shard = run_fleet_shard


def install() -> None:
    """Wrap every traced public function (idempotent)."""
    global _installed
    if _installed:
        return
    _installed = True
    from repro.core.controller import FleetIoController
    from repro.core.fast_env import FastFleetEnv
    from repro.core.monitor import VssdMonitor
    from repro.fleet import shard as shard_module
    from repro.fleet.arena import SharedArena
    from repro.fleet.runner import FleetShardRunner
    from repro.harness import snapshots
    from repro.harness.experiment import Experiment
    from repro.parallel.runner import ParallelRunner
    from repro.rl.nets import PolicyValueNet
    from repro.rl.ppo import PpoTrainer
    from repro.sched.dispatcher import IoDispatcher
    from repro.sched.policies import FifoPolicy, PriorityPolicy, TokenBucketStridePolicy
    from repro.sim.engine import Simulator
    from repro.ssd.ftl import VssdFtl
    from repro.virt.admission import AdmissionController
    from repro.virt.gsb_manager import GsbManager
    from repro.workloads.model import WorkloadModel

    # run_windows chunks through run_until_seconds, so this one wrapper
    # sees both entry points without counting a chunked loop twice.
    _wrap(Simulator, "run_until_seconds", "sim.loop")
    _wrap(IoDispatcher, "submit", "sched.submit")
    for policy in (FifoPolicy, PriorityPolicy, TokenBucketStridePolicy):
        _wrap(policy, "select", "sched.select")
    _wrap(VssdFtl, "write_span", "ssd.span", _span_pages("written"))
    _wrap(VssdFtl, "read_span", "ssd.span", _span_pages("read"))
    _wrap(VssdFtl, "run_gc", "ssd.gc")
    _wrap(VssdFtl, "recycle_region", "ssd.gc")
    _wrap(VssdFtl, "warm_fill", "ssd.warm", _warm_pages)
    for name in ("make_harvestable", "harvest", "reclaim_excess", "pump_reclaims",
                 "reclaim_degraded", "release_harvested"):
        _wrap(GsbManager, name, "virt.gsb")
    _wrap(AdmissionController, "process_batch", "virt.gsb")
    _wrap(WorkloadModel, "sample_request", "workloads.sample")
    _wrap(FleetIoController, "run_window", "core.window")
    _wrap(VssdMonitor, "snapshot_window", "core.monitor")
    _wrap(FastFleetEnv, "step", "core.env_step")
    _wrap(PolicyValueNet, "forward", "rl.forward", _forward_rows)
    _wrap(PolicyValueNet, "forward_batch", "rl.forward", _forward_rows)
    _wrap(PpoTrainer, "update", "rl.update", _update_rows)
    _wrap(Experiment, "build", "harness.build")
    _wrap(snapshots, "capture_experiment", "harness.capture")
    _wrap(snapshots, "restore_experiment", "harness.restore")
    _wrap(snapshots, "cache_get", "harness.cache_get", _cache_get)
    _wrap(ParallelRunner, "run", "parallel.run", _parallel_run)
    _wrap(SharedArena, "__init__", "fleet.arena_publish")
    _wrap(FleetShardRunner, "run", "fleet.run", _fleet_run)
    _wrap_experiment_run(Experiment)
    _wrap_monitor_completion(VssdMonitor)
    _wrap_shard_executor(shard_module)


def reset() -> None:
    """Zero the records and the span stack of this process."""
    for rec in _SPANS.values():
        rec[0] = rec[1] = rec[2] = 0
    _WORK.clear()
    del _STACK[1:]
    _STACK[0] = 0


def flush() -> None:
    """Move this process's records into the program's profiler counters."""
    from repro.profiling import PROFILER

    for name, (calls, total_ns, self_ns) in _SPANS.items():
        PROFILER.count(f"{PREFIX}{name}.calls", calls)
        PROFILER.count(f"{PREFIX}{name}.ns", total_ns)
        PROFILER.count(f"{PREFIX}{name}.self_ns", self_ns)
    for name, value in _WORK.items():
        PROFILER.count(f"{PREFIX}{name}", value)
    reset()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counters: dict) -> dict:
    """Per-layer metrics from merged profiler counters.

    ``counters`` holds the ``perfbench.*`` records of every process of
    one unit plus the program's own counters (``sim.events``,
    ``sim.heap_compactions``, ``arena.*``, ``fleet.ring_bytes``).
    Layers that did no work read 0.
    """

    def get(name: str) -> float:
        return counters.get(PREFIX + name, 0)

    def span(name: str, field: str) -> float:
        return get(f"{name}.{field}")

    def secs(name: str, field: str = "ns") -> float:
        return span(name, field) / 1e9

    events = counters.get("sim.events", 0)
    span_pages = get("ssd.span_pages_written") + get("ssd.span_pages_read")
    host_pages = get("ssd.pages_written")
    gc_pages = get("ssd.gc_pages_moved")
    harvests = get("virt.harvests")
    misses = get("virt.harvest_misses")
    rows = get("rl.forward_rows")
    env_steps = span("core.env_step", "calls")
    run_s = secs("parallel.run")
    workers = get("parallel.workers")
    devices = get("fleet.devices")
    return {
        "sim.events": events,
        "sim.loop_s": secs("sim.loop"),
        "sim.self_s": secs("sim.loop", "self_ns"),
        "sim.ns_per_event": _ratio(span("sim.loop", "ns"), events),
        "sim.heap_compactions": counters.get("sim.heap_compactions", 0),
        "sched.submits": span("sched.submit", "calls"),
        "sched.self_s": secs("sched.submit", "self_ns") + secs("sched.select", "self_ns"),
        "sched.select_calls": span("sched.select", "calls"),
        "sched.select_s": secs("sched.select"),
        "sched.queue_delay_us": _ratio(
            get("sched.queue_delay_ns") / 1000.0, get("sched.completions")
        ),
        "ssd.pages_written": host_pages,
        "ssd.pages_read": get("ssd.pages_read"),
        "ssd.gc_pages_moved": gc_pages,
        "ssd.blocks_erased": get("ssd.blocks_erased"),
        "ssd.gc_runs": get("ssd.gc_runs"),
        "ssd.span_calls": span("ssd.span", "calls"),
        "ssd.span_s": secs("ssd.span", "self_ns"),
        "ssd.ns_per_page": _ratio(span("ssd.span", "self_ns"), span_pages),
        "ssd.gc_s": secs("ssd.gc"),
        "ssd.ns_per_gc_page": _ratio(span("ssd.gc", "ns"), gc_pages),
        "ssd.gc_share": _ratio(gc_pages, host_pages + gc_pages),
        "sim_waf": _ratio(host_pages + gc_pages, host_pages),
        "ssd.warm_pages": get("ssd.warm_pages"),
        "ssd.warm_s": secs("ssd.warm"),
        "virt.actions_submitted": get("virt.actions_submitted"),
        "virt.actions_denied": get("virt.actions_denied"),
        "virt.harvests": harvests,
        "virt.harvest_misses": misses,
        "virt.harvest_hit_ratio": _ratio(harvests, harvests + misses),
        "virt.blocks_offered": get("virt.blocks_offered"),
        "virt.gsb_s": secs("virt.gsb", "self_ns"),
        "workloads.requests": span("workloads.sample", "calls"),
        "workloads.sample_s": secs("workloads.sample"),
        "core.decision_windows": span("core.window", "calls"),
        "core.window_s": secs("core.window"),
        "core.monitor_s": secs("core.monitor"),
        "core.env_steps": env_steps,
        "core.env_step_s": secs("core.env_step"),
        "core.ns_per_env_step": _ratio(span("core.env_step", "ns"), env_steps),
        "rl.forward_calls": span("rl.forward", "calls"),
        "rl.forward_rows": rows,
        "rl.forward_s": secs("rl.forward"),
        "rl.ns_per_forward_row": _ratio(span("rl.forward", "ns"), rows),
        "rl.ppo_updates": span("rl.update", "calls"),
        "rl.update_s": secs("rl.update"),
        "rl.transitions": get("rl.transitions"),
        "harness.build_s": secs("harness.build"),
        "harness.capture_s": secs("harness.capture"),
        "harness.restore_s": secs("harness.restore"),
        "harness.snapshot_hits": get("harness.snapshot_hits"),
        "harness.snapshot_misses": get("harness.snapshot_misses"),
        "parallel.tasks": get("parallel.tasks"),
        "parallel.attempts": get("parallel.attempts"),
        "parallel.failures": get("parallel.failures"),
        "parallel.run_s": run_s,
        "parallel.worker_busy_s": get("parallel.busy_ns") / 1e9,
        "parallel.worker_idle_frac": (
            1.0 - get("parallel.busy_ns") / 1e9 / (workers * run_s)
            if workers and run_s
            else 0.0
        ),
        "parallel.result_bytes": get("parallel.result_bytes"),
        "fleet.arena_publish_s": secs("fleet.arena_publish"),
        "fleet.arena_bytes": get("fleet.arena_bytes"),
        "fleet.arena_attach": counters.get("arena.attach", 0),
        "fleet.arena_hit_ratio": _ratio(counters.get("arena.hits", 0), devices),
        "fleet.ring_bytes": counters.get("fleet.ring_bytes", 0),
        "fleet.ring_overflows": get("fleet.ring_overflows"),
        "fleet.shard_imbalance": get("fleet.shard_imbalance_ppm") / 1e6,
    }
