"""Tests for the parallel sweep runner.

The heavy guarantee — merged serial-vs-parallel telemetry is
byte-identical — is asserted here on a small matrix; the benchmark suite
repeats it at full scale.
"""

import pytest

from repro.parallel import (
    CellFailure,
    CellOutcome,
    ExperimentCell,
    ExperimentMatrix,
    ParallelRunner,
    run_cell,
    run_serial,
)

#: A small but non-trivial matrix: two policies x two seeds, short runs.
MATRIX = ExperimentMatrix.from_workloads(
    ["ycsb", "terasort"],
    ["hardware", "software"],
    seeds=(0, 1),
    duration_s=1.0,
    measure_after_s=0.25,
)


@pytest.fixture(scope="module")
def serial_result():
    return run_serial(MATRIX.cells())


@pytest.fixture(scope="module")
def parallel_result():
    return ParallelRunner(workers=2).run(MATRIX.cells())


def test_run_cell_returns_result_and_telemetry():
    cell = ExperimentCell(
        "s", ("ycsb",), "hardware", 0, duration_s=0.5, measure_after_s=0.1
    )
    outcome = run_cell(cell)
    assert outcome.ok
    assert outcome.result is not None
    assert outcome.result.policy == "hardware"
    assert outcome.telemetry.startswith(b"policy,")
    assert outcome.profile["timers"]["sim.event_loop"]["calls"] == 1
    assert outcome.wall_s > 0


def test_run_cell_catches_exceptions():
    cell = ExperimentCell("s", ("no-such-workload",), "hardware", 0)
    outcome = run_cell(cell)
    assert not outcome.ok
    assert outcome.error["type"] == "KeyError"
    assert "no-such-workload" in outcome.error["message"]


def test_serial_and_parallel_telemetry_byte_equal(serial_result, parallel_result):
    assert serial_result.ok and parallel_result.ok
    assert len(serial_result.succeeded) == len(MATRIX)
    assert serial_result.telemetry == parallel_result.telemetry
    assert serial_result.telemetry_digest == parallel_result.telemetry_digest
    assert len(parallel_result.telemetry) > 0
    assert parallel_result.mode.startswith("pool/")


def test_parallel_outcomes_in_matrix_order(parallel_result):
    ids = [o.cell.cell_id for o in parallel_result.outcomes]
    assert ids == [c.cell_id for c in MATRIX.cells()]


def test_profiles_merge_across_workers(parallel_result):
    profile = parallel_result.profile
    assert profile["timers"]["sim.event_loop"]["calls"] == len(MATRIX)
    assert profile["counters"]["sim.events"] > 0


#: Warm-amortization timers whose call counts legitimately depend on the
#: snapshot-cache state each process starts from (a serial sweep warms
#: once per key and restores the rest; a forked worker inherits whatever
#: the parent had cached).  Telemetry stays byte-equal either way — only
#: where the *fixed cost* was paid moves.
WARM_AMORTIZED_TIMERS = frozenset(
    {"harness.warm", "snapshot.save", "snapshot.restore"}
)


def test_serial_parallel_profile_call_counts_match(serial_result, parallel_result):
    serial_timers = serial_result.profile["timers"]
    parallel_timers = parallel_result.profile["timers"]
    # Declared zero-call rows keep the row sets identical even when a
    # timer fired in one topology and not the other.
    assert set(serial_timers) == set(parallel_timers)
    for name, entry in serial_timers.items():
        if name in WARM_AMORTIZED_TIMERS:
            continue
        assert entry["calls"] == parallel_timers[name]["calls"], name


def test_results_keyed_by_cell_id(parallel_result):
    results = parallel_result.results()
    assert set(results) == {c.cell_id for c in MATRIX.cells()}


def test_dead_worker_is_isolated():
    cells = [
        ExperimentCell(
            "good", ("ycsb",), "hardware", 0, duration_s=0.5, measure_after_s=0.1
        ),
        ExperimentCell("boom", ("ycsb",), "hardware", 0, runner="crash"),
        ExperimentCell(
            "also-good", ("ycsb",), "hardware", 1, duration_s=0.5, measure_after_s=0.1
        ),
    ]
    result = ParallelRunner(workers=2).run(cells)
    assert not result.ok
    assert len(result.succeeded) == 2
    (failure,) = result.failures
    assert isinstance(failure, CellFailure)
    assert failure.exitcode == 13
    assert "worker died" in failure.describe()


def test_runner_exception_recorded_as_failure():
    cells = [ExperimentCell("bad", ("no-such-workload",), "hardware", 0)]
    result = ParallelRunner(workers=1).run(cells)
    (failure,) = result.failures
    assert failure.error["type"] == "KeyError"
    assert failure.exitcode is None
    assert "KeyError" in failure.describe()


def test_serial_records_failures_too():
    cells = [ExperimentCell("bad", ("no-such-workload",), "hardware", 0)]
    result = run_serial(cells)
    assert not result.ok
    (failure,) = result.failures
    assert failure.error["type"] == "KeyError"


def test_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        ParallelRunner(workers=0)


def test_rejects_bad_hardening_parameters():
    with pytest.raises(ValueError):
        ParallelRunner(join_timeout_s=0.0)
    with pytest.raises(ValueError):
        ParallelRunner(max_attempts=0)
    with pytest.raises(ValueError):
        ParallelRunner(retry_backoff_s=-1.0)


def test_outcome_types(parallel_result):
    assert all(isinstance(o, CellOutcome) for o in parallel_result.outcomes)


# ----------------------------------------------------------------------
# Self-healing: retry-with-backoff, hung-worker watchdog
# ----------------------------------------------------------------------
def _good_cell(scenario, seed=0):
    return ExperimentCell(
        scenario, ("ycsb",), "hardware", seed, duration_s=0.5, measure_after_s=0.1
    )


def test_crashed_worker_retried_then_succeeds(tmp_path):
    """A worker that hard-crashes once is replaced, and its cell comes
    back on attempt 2 while the cells around it run once."""
    marker = tmp_path / "flaky-marker"
    cells = [
        _good_cell("good"),
        ExperimentCell(str(marker), ("ycsb",), "hardware", 0, runner="flaky"),
        _good_cell("also-good", seed=1),
    ]
    result = ParallelRunner(
        workers=2, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    assert result.ok
    flaky = result.outcomes[1]
    assert isinstance(flaky, CellOutcome)
    assert flaky.attempts == 2
    assert flaky.telemetry == b"flaky-ok\n"
    assert result.outcomes[0].attempts == 1
    assert result.outcomes[2].attempts == 1
    assert marker.exists()


def test_crash_every_attempt_fails_with_attempt_count():
    cells = [ExperimentCell("boom", ("ycsb",), "hardware", 0, runner="crash")]
    result = ParallelRunner(
        workers=1, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    (failure,) = result.failures
    assert isinstance(failure, CellFailure)
    assert failure.attempts == 2
    assert failure.exitcode == 13
    assert not failure.hung
    assert "after 2 attempts" in failure.describe()


def test_deterministic_exception_is_not_retried():
    """A runner that raises fails on attempt 1 even with retries allowed,
    and the worker that caught it goes on to run the next cell."""
    cells = [
        ExperimentCell("bad", ("no-such-workload",), "hardware", 0),
        _good_cell("good"),
    ]
    result = ParallelRunner(workers=1, max_attempts=3).run(cells)
    assert len(result.succeeded) == 1
    (failure,) = result.failures
    assert failure.error["type"] == "KeyError"
    assert failure.attempts == 1


def test_hung_worker_terminated_with_partial_results():
    """The watchdog kills a wedged worker; other cells' results survive
    and merge byte-identically to a serial run of the good cells."""
    good = [_good_cell("good", 0), _good_cell("also-good", 1)]
    cells = [
        good[0],
        ExperimentCell("wedge", ("ycsb",), "hardware", 0, runner="hang"),
        good[1],
    ]
    result = ParallelRunner(
        workers=3, join_timeout_s=1.5, max_attempts=1
    ).run(cells)
    assert not result.ok
    (failure,) = result.failures
    assert isinstance(failure, CellFailure)
    assert failure.hung
    assert failure.attempts == 1
    assert "hung" in failure.describe()
    assert len(result.succeeded) == 2
    assert result.telemetry == run_serial(good).telemetry


def test_hung_worker_retried_before_failing():
    cells = [ExperimentCell("wedge", ("ycsb",), "hardware", 0, runner="hang")]
    result = ParallelRunner(
        workers=1, join_timeout_s=0.5, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    (failure,) = result.failures
    assert failure.hung
    assert failure.attempts == 2


def test_retried_worker_profile_absorbed_once(tmp_path):
    """A crash-then-succeed cell's profiler data merges once per cell.

    The flaky runner bumps the ``flaky.attempts`` counter on *every*
    attempt, including the one that dies without reporting.  If a
    retried attempt's profile ever survived into the merged sweep
    profile (absorb once per attempt instead of once per cell), the
    counter would read 2 here.
    """
    from repro.profiling import Profiler

    marker = tmp_path / "flaky-profile-marker"
    cells = [
        ExperimentCell(str(marker), ("ycsb",), "hardware", 0, runner="flaky"),
    ]
    result = ParallelRunner(
        workers=1, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    assert result.ok
    (outcome,) = result.outcomes
    assert outcome.attempts == 2  # the crash really happened
    # The sweep-level merge sees one profile per cell...
    assert result.profile["counters"]["flaky.attempts"] == 1
    # ...and the pretrain-style per-outcome absorb loop agrees.
    parent = Profiler()
    for o in result.outcomes:
        if isinstance(o, CellOutcome):
            parent.absorb(o.profile)
    assert parent.counters()["flaky.attempts"] == 1


# ----------------------------------------------------------------------
# Persistent worker pool
# ----------------------------------------------------------------------
def test_pool_reuses_workers_across_cells():
    """More cells than workers: the pool must reuse processes rather
    than forking one per cell."""
    cells = [_good_cell(f"s{i}", seed=i % 2) for i in range(4)]
    result = ParallelRunner(workers=2).run(cells)
    assert result.ok
    pids = {o.pid for o in result.outcomes}
    assert len(pids) <= 2


def test_pool_worker_snapshot_cache_amortizes_warm(monkeypatch, tmp_path):
    """A pooled worker running two same-key cells warms once: the second
    cell restores from the worker's in-process snapshot cache."""
    from repro.harness import snapshots

    # Forked pool workers inherit this process's snapshot cache: start
    # cold so earlier tests' entries cannot turn the warm miss into a hit.
    snapshots.clear_memory_cache()
    monkeypatch.setenv("REPRO_SNAPSHOTS", "mem")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    cells = [_good_cell("a", seed=0), _good_cell("b", seed=0)]
    result = ParallelRunner(workers=1, profile=True).run(cells)
    assert result.ok
    merged = result.profile
    assert merged["counters"].get("snapshot.misses", 0) == 1
    assert merged["counters"].get("snapshot.hits", 0) == 1
    assert merged["timers"]["harness.warm"]["calls"] == 1
    assert merged["timers"]["snapshot.restore"]["calls"] == 1


# The five tests below pin the pool's worker lifecycle: which process
# runs a cell after a crash, a raise or a hang.  Their single-mode
# counterparts above assert the outcome of the failing cell itself.
def test_pool_telemetry_byte_equal_to_serial(serial_result):
    """One worker runs the whole matrix in sequence: state a cell leaves
    in the long-lived process never shows in the next cell's bytes."""
    result = ParallelRunner(workers=1).run(MATRIX.cells())
    assert result.ok
    assert len({o.pid for o in result.outcomes}) == 1
    assert result.telemetry == serial_result.telemetry
    assert result.telemetry_digest == serial_result.telemetry_digest
    ids = [o.cell.cell_id for o in result.outcomes]
    assert ids == [c.cell_id for c in MATRIX.cells()]


def test_pool_dead_worker_respawned_and_cell_retried(tmp_path):
    """A crashed worker is replaced by a new process, which runs both
    the queued cell and the crashed cell's retry."""
    marker = tmp_path / "pool-flaky-marker"
    cells = [
        _good_cell("good"),
        ExperimentCell(str(marker), ("ycsb",), "hardware", 0, runner="flaky"),
        _good_cell("also-good", seed=1),
    ]
    result = ParallelRunner(
        workers=1, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    assert result.ok
    first, flaky, after = result.outcomes
    assert flaky.attempts == 2
    assert flaky.telemetry == b"flaky-ok\n"
    assert flaky.pid == after.pid
    assert flaky.pid != first.pid
    assert marker.exists()


def test_pool_crash_every_attempt_fails_with_attempt_count():
    """A cell that kills every worker it lands on fails after its last
    attempt, and the pool still spawns a worker for the next cell."""
    cells = [
        ExperimentCell("boom", ("ycsb",), "hardware", 0, runner="crash"),
        _good_cell("good"),
    ]
    result = ParallelRunner(
        workers=1, max_attempts=2, retry_backoff_s=0.05
    ).run(cells)
    (failure,) = result.failures
    assert isinstance(failure, CellFailure)
    assert failure.attempts == 2
    assert not failure.hung
    (good,) = result.succeeded
    assert good.cell.scenario == "good"
    assert good.attempts == 1


def test_pool_deterministic_exception_not_retried():
    """A runner that raises costs its cell, not its worker: the same
    process runs the cells before and after it."""
    cells = [
        _good_cell("good"),
        ExperimentCell("bad", ("no-such-workload",), "hardware", 0),
        _good_cell("also-good", seed=1),
    ]
    result = ParallelRunner(workers=1, max_attempts=3).run(cells)
    (failure,) = result.failures
    assert failure.error["type"] == "KeyError"
    assert failure.attempts == 1
    assert len(result.succeeded) == 2
    assert len({o.pid for o in result.succeeded}) == 1


def test_pool_hung_worker_terminated_with_partial_results():
    """With one worker, the watchdog's kill frees the pool: a new
    process runs the cell queued behind the hung one."""
    good = [_good_cell("good", 0)]
    cells = [
        ExperimentCell("wedge", ("ycsb",), "hardware", 0, runner="hang"),
        good[0],
    ]
    result = ParallelRunner(
        workers=1, join_timeout_s=1.5, max_attempts=1
    ).run(cells)
    assert not result.ok
    (failure,) = result.failures
    assert failure.hung
    assert failure.attempts == 1
    assert len(result.succeeded) == 1
    assert result.telemetry == run_serial(good).telemetry
