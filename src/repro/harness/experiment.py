"""Collocation experiments: one run = one policy over one workload mix.

The five systems of Section 4.1 are expressed as policies:

* ``hardware`` — equal dedicated channels per vSSD, no manager.
* ``ssdkeeper`` — dedicated channels sized by the DNN demand predictor.
* ``adaptive`` — dedicated channels + proportional-utilization manager.
* ``software`` — all vSSDs share all channels behind a token-bucket +
  stride dispatcher.
* ``fleetio`` — dedicated channels + per-vSSD RL agents (harvesting,
  priorities, fine-tuned rewards).
* ``mixed`` — per-plan isolation (Figure 16's Mixed Isolation), no
  manager; ``fleetio-mixed`` adds FleetIO on top.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.config import RLConfig, SSDConfig
from repro.core.controller import FleetIoController
from repro.core.monitor import VssdMonitor
from repro.faults.guardrails import GuardrailConfig, Guardrails
from repro.faults.injector import FaultInjector
from repro.baselines.adaptive import AdaptiveManager
from repro.baselines.ssdkeeper import SsdKeeperAllocator
from repro.harness import snapshots
from repro.harness.metrics import ExperimentResult, VssdResult, bandwidth_series
from repro.profiling import PROFILER
from repro.sched.policies import PriorityPolicy, TokenBucketStridePolicy
from repro.sim.random import RandomStreams
from repro.virt.manager import StorageVirtualizer
from repro.workloads.catalog import get_spec
from repro.workloads.drivers import make_driver
from repro.workloads.model import WorkloadModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.detsan import DetsanRecorder
    from repro.clustering.classifier import WorkloadTypeClassifier
    from repro.faults.injector import FaultSpec
    from repro.rl.nets import PolicyValueNet
    from repro.sched.request import IoRequest
    from repro.virt.vssd import Vssd
    from repro.workloads.drivers import _DriverBase
    from repro.workloads.spec import WorkloadSpec

PROFILER.declare("harness.build", "harness.warm", "harness.collect")  # report rows even when this section never fires

POLICIES = ("hardware", "ssdkeeper", "adaptive", "software", "fleetio")

#: Fraction of owned pages written during warm-up (Section 4.1 warms each
#: vSSD until at least half its free blocks are consumed).
WARM_FRACTION = 0.55


@dataclass
class VssdPlan:
    """One tenant in an experiment."""

    workload: str
    name: Optional[str] = None
    n_channels: Optional[int] = None
    isolation: str = "hardware"
    slo_latency_us: Optional[float] = None

    def __post_init__(self) -> None:
        if self.name is None:
            self.name = self.workload

    @property
    def category(self) -> str:
        """The plan's workload category (latency / bandwidth)."""
        return get_spec(self.workload).category


def plans_for_pair(latency_workload: str, bandwidth_workload: str) -> list:
    """The paper's standard two-tenant collocation."""
    return [VssdPlan(latency_workload), VssdPlan(bandwidth_workload)]


class Experiment:
    """Builds and runs one policy over one collocation plan."""

    def __init__(
        self,
        plans: list,
        policy: str,
        ssd_config: Optional[SSDConfig] = None,
        rl_config: Optional[RLConfig] = None,
        seed: int = 0,
        pretrained_net: Optional["PolicyValueNet"] = None,
        classifier: Optional["WorkloadTypeClassifier"] = None,
        fleetio_kwargs: Optional[dict] = None,
        faults: Optional["list[FaultSpec]"] = None,
        guardrails: Union[bool, GuardrailConfig, Guardrails, None] = None,
        snapshots: Optional[bool] = None,
    ) -> None:
        if not plans:
            raise ValueError("need at least one vSSD plan")
        known = set(POLICIES) | {"mixed", "fleetio-mixed"}
        if policy not in known:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {sorted(known)}"
            )
        names = [p.name for p in plans]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate vSSD names in {names}")
        self.plans = [replace(p) for p in plans]
        self.policy = policy
        self.config = ssd_config or SSDConfig()
        self.rl_config = rl_config or RLConfig()
        self.seed = seed
        self.streams = RandomStreams(seed)
        self.pretrained_net = pretrained_net
        self.classifier = classifier
        self.fleetio_kwargs = fleetio_kwargs or {}
        #: Declarative fault specs (repro.faults) armed at build time.
        self.faults = list(faults or [])
        # ``guardrails`` accepts True (defaults), a GuardrailConfig, or a
        # prebuilt Guardrails; only meaningful for fleetio policies.
        if guardrails is True:
            guardrails = Guardrails()
        elif guardrails is False:
            guardrails = None
        elif isinstance(guardrails, GuardrailConfig):
            guardrails = Guardrails(guardrails)
        self.guardrails: Optional[Guardrails] = guardrails
        # Warm-state snapshot reuse: None defers to REPRO_SNAPSHOTS (the
        # ``repro sweep --snapshots on|off`` escape hatch sets the env),
        # True/False force it per experiment.
        self.snapshots = snapshots
        self.injector: Optional[FaultInjector] = None
        self.virt: Optional[StorageVirtualizer] = None
        self.monitors: dict = {}
        self.drivers: dict = {}
        self.controller: Optional[FleetIoController] = None
        self.manager: Optional[AdaptiveManager] = None
        self._built = False
        self._measure_start_s = 0.0
        #: Recorder attached by the last detsan-instrumented run().
        self.detsan: Optional["DetsanRecorder"] = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> "Experiment":
        """Construct the virtualizer, tenants, drivers, and manager."""
        if self._built:
            return self
        with PROFILER.timer("harness.build"):
            self._build_inner()
        return self

    def _build_inner(self) -> None:
        uses_fleetio = self.policy.startswith("fleetio")
        sched_policy = (
            TokenBucketStridePolicy(
                rate_bytes_per_us=self._device_bw_bytes_per_us(),
                burst_bytes=64 * 1024 * 1024,
            )
            if self.policy == "software"
            else PriorityPolicy()
        )
        self.virt = StorageVirtualizer(config=self.config, policy=sched_policy)
        allocation = self._plan_allocation()
        mode = self._snapshots_mode()
        cached = None
        key = None
        if mode != "off":
            key = snapshots.warm_cache_key(self, allocation)
            cached = snapshots.cache_get(key, mode)
        if cached is None and snapshots.arena_available():
            # Fleet shard workers hold attached shared-memory arena
            # segments; a zero-copy view of the warm columns beats both
            # the disk layer and a cold build+warm.  The key is
            # seed-independent (see warm_columns_key) so one segment
            # serves every device of a homogeneous fleet.
            cached = snapshots.arena_get(
                snapshots.warm_columns_key(self, allocation)
            )
        for plan, channels in zip(self.plans, allocation):
            isolation = self._plan_isolation(plan)
            kwargs = {}
            if isolation == "software":
                sharers = sum(
                    1 for p in self.plans if self._plan_isolation(p) == "software"
                )
                kwargs["blocks_per_channel"] = (
                    self.config.blocks_per_channel // max(sharers, 1)
                )
            vssd = self.virt.create_vssd(
                plan.name,
                channels,
                isolation=isolation,
                slo_latency_us=plan.slo_latency_us,
                **kwargs,
            )
            monitor = VssdMonitor(vssd)
            self.virt.dispatcher.add_completion_callback(
                monitor.on_complete, vssd_id=vssd.vssd_id
            )
            self.monitors[plan.name] = monitor
            self._attach_driver(plan, vssd)
            if cached is None:
                self._warm(plan, vssd)
        if cached is not None:
            # A restored device is bit-identical to a cold build+warm: the
            # snapshot holds every column the warm mutated plus the RNG
            # draw positions, and nothing before this point scheduled an
            # engine event or drew randomness.
            snapshots.restore_experiment(self, cached)
        elif key is not None:
            snap = snapshots.capture_experiment(self)
            if snap is not None:
                snapshots.cache_put(key, snap, mode)
        if uses_fleetio:
            self._build_fleetio()
        elif self.policy == "adaptive":
            self.manager = AdaptiveManager(
                self.virt, window_s=self.rl_config.decision_interval_s
            )
            for plan in self.plans:
                vssd = self.virt.vssd_by_name(plan.name)
                self.manager.register_vssd(vssd, self.monitors[plan.name])
        if self.faults:
            self.injector = FaultInjector(self.virt, monitors=self._fault_monitors())
            self.injector.arm(self.faults)
        self._built = True

    def _snapshots_mode(self) -> str:
        """Effective warm-snapshot mode: constructor flag over env."""
        if self.snapshots is False:
            return "off"
        mode = snapshots.snapshots_mode()
        if self.snapshots is True and mode == "off":
            mode = "mem"
        return mode

    def _fault_monitors(self) -> dict:
        """Name -> monitor map for monitor-targeted faults.

        Under fleetio, monitor faults hit the *controller's* monitors —
        the ones feeding RL observations — so corruption reaches the
        agents while the harness metrics keep recording ground truth.
        """
        if self.controller is not None:
            return {
                plan.name: self.controller.monitors[
                    self.virt.vssd_by_name(plan.name).vssd_id
                ]
                for plan in self.plans
            }
        return dict(self.monitors)

    def _plan_isolation(self, plan: VssdPlan) -> str:
        if self.policy == "software":
            return "software"
        if self.policy in ("mixed", "fleetio-mixed"):
            return plan.isolation
        return "hardware"

    def _plan_allocation(self) -> list:
        """Channel id lists per plan, per the policy's allocation rule."""
        total = self.config.num_channels
        n = len(self.plans)
        if self.policy == "software":
            return [list(range(total))] * n
        if self.policy == "ssdkeeper":
            allocator = SsdKeeperAllocator(self.config, seed=self.seed)
            allocator.train()
            counts = allocator.partition([p.workload for p in self.plans], total)
        elif self.policy in ("mixed", "fleetio-mixed"):
            return self._mixed_allocation()
        else:
            counts = [p.n_channels or 0 for p in self.plans]
            unassigned = [i for i, c in enumerate(counts) if c == 0]
            remaining = total - sum(counts)
            if unassigned:
                share = remaining // len(unassigned)
                for i in unassigned:
                    counts[i] = share
                counts[unassigned[-1]] += remaining - share * len(unassigned)
        if sum(counts) > total:
            raise ValueError(f"allocation {counts} exceeds {total} channels")
        allocation = []
        cursor = 0
        for count in counts:
            allocation.append(list(range(cursor, cursor + count)))
            cursor += count
        return allocation

    def _mixed_allocation(self) -> list:
        """Hardware plans get dedicated channels; software plans share the
        remainder."""
        total = self.config.num_channels
        hw_plans = [p for p in self.plans if p.isolation == "hardware"]
        hw_total = sum(p.n_channels or 0 for p in hw_plans)
        if any((p.n_channels or 0) <= 0 for p in hw_plans):
            raise ValueError("mixed isolation requires explicit n_channels for hardware plans")
        shared = list(range(hw_total, total))
        allocation = []
        cursor = 0
        for plan in self.plans:
            if plan.isolation == "hardware":
                allocation.append(list(range(cursor, cursor + plan.n_channels)))
                cursor += plan.n_channels
            else:
                allocation.append(shared)
        return allocation

    def _attach_driver(self, plan: VssdPlan, vssd: "Vssd") -> None:
        spec = get_spec(plan.workload)
        working_set = self._working_set_pages(spec, vssd)
        rng = self.streams.get(f"workload:{plan.name}")
        model = WorkloadModel(spec, rng, working_set)
        driver = make_driver(
            model,
            vssd.vssd_id,
            self.virt.sim,
            self.virt.dispatcher.submit,
            self.config.page_size,
        )
        self.drivers[plan.name] = driver

        def route_completion(
            request: "IoRequest",
            driver: "_DriverBase" = driver,
            vssd_id: int = vssd.vssd_id,
        ) -> None:
            """Forward this vSSD's completions to its workload driver."""
            if request.vssd_id == vssd_id:
                driver.on_complete(request)

        self.virt.dispatcher.add_completion_callback(
            route_completion, vssd_id=vssd.vssd_id
        )

    def _working_set_pages(self, spec: "WorkloadSpec", vssd: "Vssd") -> int:
        owned_pages = (
            sum(vssd.ftl._own_blocks_per_channel.values())
            * self.config.pages_per_block
        )
        logical = int(owned_pages * (1.0 - self.config.overprovision_ratio))
        return max(int(logical * spec.working_set_fraction), 1024)

    def _warm(self, plan: VssdPlan, vssd: "Vssd") -> None:
        """Consume >=50% of the vSSD's blocks before measurement."""
        with PROFILER.timer("harness.warm"):
            spec = get_spec(plan.workload)
            working_set = self._working_set_pages(spec, vssd)
            owned_pages = (
                sum(vssd.ftl._own_blocks_per_channel.values())
                * self.config.pages_per_block
            )
            target_writes = int(owned_pages * WARM_FRACTION)
            lpns = (lpn % working_set for lpn in range(target_writes))
            vssd.ftl.warm_fill(lpns)

    def _build_fleetio(self) -> None:
        if self.pretrained_net is None:
            from repro.harness.pretrained import get_pretrained_net

            self.pretrained_net = get_pretrained_net()
        if self.classifier is None and not self.fleetio_kwargs.get(
            "unified_alpha_only", False
        ):
            from repro.harness.pretrained import get_classifier

            self.classifier = get_classifier()
        self.controller = FleetIoController(
            self.virt,
            self.pretrained_net,
            rl_config=self.rl_config,
            classifier=self.classifier,
            seed=self.seed,
            guardrails=self.guardrails,
            **self.fleetio_kwargs,
        )
        for plan in self.plans:
            vssd = self.virt.vssd_by_name(plan.name)
            # The controller's own monitor drives RL state; the harness
            # monitor (already registered) keeps result metrics separate.
            self.controller.register_vssd(vssd)

    def _device_bw_bytes_per_us(self) -> float:
        mbps = self.virt_total_bandwidth_mbps()
        return mbps * 1024.0 * 1024.0 / 1_000_000.0

    def virt_total_bandwidth_mbps(self) -> float:
        """The device's nominal aggregate write bandwidth (MB/s)."""
        return self.config.num_channels * self.config.channel_write_bandwidth_mbps

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self,
        duration_s: float = 30.0,
        measure_after_s: float = 6.0,
        detsan: Optional["DetsanRecorder"] = None,
    ) -> ExperimentResult:
        """Run the experiment and collect per-vSSD and device metrics.

        With a :class:`~repro.analysis.detsan.DetsanRecorder` (passed
        explicitly or implied by the ``REPRO_DETSAN`` environment
        variable), the run is chunked at decision-window boundaries and
        a read-only checkpoint is recorded at each.  Chunking is
        behavior-identical to one straight ``run_until``: the clock
        lands exactly on every boundary either way, events with
        timestamps inside a chunk fire in the same (time, seq) order,
        and checkpoints neither draw randomness nor schedule events.
        """
        self.build()
        sim = self.virt.sim
        self._measure_start_s = sim.now_seconds + measure_after_s
        for monitor in self.monitors.values():
            monitor.measure_from_s = self._measure_start_s
        for driver in self.drivers.values():
            driver.start()
        if self.controller is not None:
            self.controller.start()
        elif self.manager is not None:
            self.manager.start()
        start_s = sim.now_seconds
        end_s = start_s + duration_s
        if detsan is None:
            from repro.analysis.detsan import DetsanRecorder, detsan_enabled

            if detsan_enabled():
                detsan = DetsanRecorder(label=f"{self.policy}/s{self.seed}")
        if detsan is None:
            sim.run_until_seconds(end_s)
        else:
            recorder = detsan
            sim.run_windows(
                start_s,
                end_s,
                self.rl_config.decision_interval_s,
                lambda window: recorder.checkpoint(window, self),
            )
            self.detsan = detsan
        return self._collect(end_s)

    def schedule_workload_switch(self, plan_name: str, new_workload: str, at_s: float) -> None:
        """Swap a vSSD's workload mid-run (the Figure 17 robustness test)."""
        self.build()

        def do_switch() -> None:
            """Stop the old driver and start the new workload's driver."""
            old_driver = self.drivers[plan_name]
            old_driver.stop()
            vssd = self.virt.vssd_by_name(plan_name)
            plan = next(p for p in self.plans if p.name == plan_name)
            plan.workload = new_workload
            spec = get_spec(new_workload)
            rng = self.streams.get(f"workload:{plan_name}:switched")
            model = WorkloadModel(spec, rng, self._working_set_pages(spec, vssd))
            driver = make_driver(
                model,
                vssd.vssd_id,
                self.virt.sim,
                self.virt.dispatcher.submit,
                self.config.page_size,
            )
            self.drivers[plan_name] = driver

            def route_completion(
                request: "IoRequest",
                driver: "_DriverBase" = driver,
                vssd_id: int = vssd.vssd_id,
            ) -> None:
                """Forward this vSSD's completions to its workload driver."""
                if request.vssd_id == vssd_id:
                    driver.on_complete(request)

            self.virt.dispatcher.add_completion_callback(
                route_completion, vssd_id=vssd.vssd_id
            )
            driver.start()

        self.virt.sim.schedule_at(at_s * 1_000_000.0, do_switch)

    def reset_measurement_at(self, at_s: float) -> None:
        """Restart metric collection at ``at_s`` (post-switch measurement)."""
        self.build()

        def do_reset() -> None:
            """Clear accumulated metrics and restart measurement here."""
            for monitor in self.monitors.values():
                monitor.measure_from_s = at_s
                monitor.all_latencies.clear()
                monitor.all_read_latencies.clear()
                monitor.completion_times_s.clear()
                monitor.completion_bytes.clear()
                monitor.total_bytes = 0
                monitor.total_completed = 0
            self._measure_start_s = at_s

        self.virt.sim.schedule_at(at_s * 1_000_000.0, do_reset)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _collect(self, end_s: float) -> ExperimentResult:
        with PROFILER.timer("harness.collect"):
            return self._collect_inner(end_s)

    def _collect_inner(self, end_s: float) -> ExperimentResult:
        elapsed = max(end_s - self._measure_start_s, 1e-9)
        result = ExperimentResult(
            policy=self.policy,
            duration_s=elapsed,
            measure_start_s=self._measure_start_s,
            total_bandwidth_mbps=self.virt_total_bandwidth_mbps(),
            admission_stats=self.virt.admission.stats,
            gsb_stats=self.virt.gsb_manager.stats,
            fault_events=list(self.injector.event_log) if self.injector else [],
            guardrail_events=list(self.guardrails.event_log) if self.guardrails else [],
        )
        all_times: list = []
        all_bytes: list = []
        for plan in self.plans:
            monitor = self.monitors[plan.name]
            vssd = self.virt.vssd_by_name(plan.name)
            spec = get_spec(plan.workload)
            result.vssds[plan.name] = VssdResult(
                name=plan.name,
                workload=plan.workload,
                category=spec.category,
                completed=monitor.total_completed,
                mean_bw_mbps=monitor.mean_bandwidth_mbps(elapsed),
                mean_latency_us=float(np.mean(monitor.all_latencies))
                if monitor.all_latencies
                else 0.0,
                p95_latency_us=monitor.latency_percentile(95),
                p99_latency_us=monitor.latency_percentile(99),
                p999_latency_us=monitor.latency_percentile(99.9),
                slo_latency_us=monitor.slo_latency_us,
                slo_violation_frac=monitor.overall_slo_violation_frac(),
                write_amplification=vssd.ftl.stats.write_amplification,
                gc_runs=vssd.ftl.stats.gc_runs,
            )
            all_times.extend(monitor.completion_times_s)
            all_bytes.extend(monitor.completion_bytes)
        result.util_series = bandwidth_series(
            all_times, all_bytes, self._measure_start_s, end_s, interval_s=1.0
        )
        return result


def run_policy_comparison(
    plans: list,
    policies: tuple = POLICIES,
    duration_s: float = 30.0,
    measure_after_s: float = 6.0,
    ssd_config: Optional[SSDConfig] = None,
    rl_config: Optional[RLConfig] = None,
    seed: int = 0,
    calibrate_slo: bool = True,
    fleetio_kwargs: Optional[dict] = None,
) -> dict:
    """Run every policy over one plan; returns {policy: ExperimentResult}.

    When ``calibrate_slo`` is set, the hardware-isolation run executes
    first and each vSSD's SLO defaults to its P99 latency under hardware
    isolation (Section 3.3.1), as in the paper.
    """
    results: dict = {}
    ordered = ["hardware"] + [p for p in policies if p != "hardware"]
    ordered = [p for p in ordered if p in policies or p == "hardware"]
    for policy in ordered:
        experiment = Experiment(
            plans,
            policy,
            ssd_config=ssd_config,
            rl_config=rl_config,
            seed=seed,
            fleetio_kwargs=fleetio_kwargs if policy.startswith("fleetio") else None,
        )
        results[policy] = experiment.run(duration_s, measure_after_s)
        if policy == "hardware" and calibrate_slo:
            for plan in plans:
                if plan.slo_latency_us is None:
                    plan.slo_latency_us = results["hardware"].vssd(plan.name).p99_latency_us
    return {p: results[p] for p in policies if p in results}
