"""The parallel sweep runner: fan an experiment matrix across processes.

Design notes:

* **A persistent worker pool.**  At most ``workers`` long-lived
  processes drain the cell queue, each over its own duplex pipe.  A
  worker outlives individual cells, so its in-process caches — the
  warm-state snapshot cache above all — amortize across every cell it
  runs.
* **Crash isolation per worker process.**  A cell that segfaults, OOMs,
  or calls ``os._exit`` kills only the worker running it; the pool
  loses that one cell, retries it on a fresh worker with backoff, and
  records a structured :class:`CellFailure` once the retry budget is
  spent.  A worker silent past its deadline is terminated the same way.
  (``concurrent.futures`` would instead raise ``BrokenProcessPool`` for
  every queued cell.)
* **Results over pipes.**  Each worker sends one pickled
  :class:`~repro.parallel.worker.CellOutcome` per cell.  The parent
  waits on pipes *and* process sentinels simultaneously, so a worker
  that dies before sending is detected by its sentinel.
* **Fork start method.**  When available (Linux), ``fork`` shares the
  parent's warmed pre-train/classifier and snapshot caches
  copy-on-write, so workers never redundantly pre-train.  Other
  platforms fall back to ``spawn``, where the disk cache (warmed by
  :func:`warm_policy_cache`) serves the same purpose.
* **Determinism.**  Cells are seeded by their matrix coordinates alone,
  and merging happens in matrix order — so a sweep's merged telemetry is
  byte-identical no matter how many workers ran it, which worker ran
  which cell, or which finished first.  ``run_serial`` runs the same
  :func:`run_cell` code in-process; :meth:`SweepResult.telemetry`
  equality between the two is asserted in the test suite and checkable
  via ``repro sweep --verify-serial``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import time
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Optional, Sequence

from repro.parallel.worker import CellOutcome, WorkCell, run_cell
from repro.profiling import merge_profiles


@dataclass
class CellFailure:
    """A cell whose worker died or whose runner raised."""

    cell: WorkCell
    #: Process exit code (None when the runner raised in-process).
    exitcode: Optional[int] = None
    #: ``{"type", "message", "traceback"}`` when the runner raised.
    error: Optional[dict] = None
    #: How many launches this cell got before being declared failed.
    attempts: int = 1
    #: True when the final attempt was terminated by the hung-worker
    #: watchdog rather than dying on its own.
    hung: bool = False

    def describe(self) -> str:
        """One line: what failed and how."""
        retries = f" after {self.attempts} attempts" if self.attempts > 1 else ""
        if self.error is not None:
            return (
                f"{self.cell.cell_id}: {self.error['type']}: "
                f"{self.error['message']}"
            )
        if self.hung:
            return f"{self.cell.cell_id}: worker hung (terminated){retries}"
        return f"{self.cell.cell_id}: worker died (exitcode={self.exitcode}){retries}"


@dataclass
class SweepResult:
    """Merged outcome of one sweep, in matrix order."""

    #: One entry per cell, matrix order: CellOutcome or CellFailure.
    outcomes: list = field(default_factory=list)
    wall_s: float = 0.0
    workers: int = 1
    mode: str = "serial"

    @property
    def succeeded(self) -> list:
        """Successful outcomes, matrix order."""
        return [o for o in self.outcomes if isinstance(o, CellOutcome) and o.ok]

    @property
    def failures(self) -> list:
        """Failures (worker deaths and runner exceptions), matrix order."""
        return [o for o in self.outcomes if not isinstance(o, CellOutcome) or not o.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def telemetry(self) -> bytes:
        """Merged telemetry: successful cells' bytes, matrix order."""
        return b"".join(o.telemetry for o in self.succeeded)

    @property
    def telemetry_digest(self) -> str:
        """SHA-256 of the merged telemetry (the determinism fingerprint)."""
        return hashlib.sha256(self.telemetry).hexdigest()

    @property
    def profile(self) -> dict:
        """Per-subsystem timings/counters merged across all cells."""
        return merge_profiles(o.profile for o in self.succeeded)

    def results(self) -> dict:
        """``cell_id -> ExperimentResult`` for the successful cells."""
        return {o.cell.cell_id: o.result for o in self.succeeded}

    def detsan_traces(self) -> dict:
        """``cell_id -> serialized detsan trace`` for instrumented cells.

        Empty unless the sweep ran with ``REPRO_DETSAN`` set (workers
        inherit the variable through fork/spawn).
        """
        return {
            o.cell.cell_id: o.detsan
            for o in self.succeeded
            if o.detsan is not None
        }


def _worker_main(conn: connection.Connection) -> None:
    """Persistent worker body: drain a queue of cells over one pipe.

    The process outlives individual cells, so its in-process caches —
    the warm-state snapshot cache above all — amortize across every
    cell it runs.  ``run_cell``'s before/after profiler delta keeps
    per-cell profiles correct in a long-lived process.  A ``None``
    message (or a closed pipe) is the shutdown signal.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, cell, attempt, profile = message
        outcome = run_cell(cell, profile=profile)
        outcome.attempts = attempt
        conn.send((index, outcome))
    conn.close()


def run_serial(
    cells: Sequence[WorkCell], profile: bool = True
) -> SweepResult:
    """Run every cell in-process, matrix order — the reference output."""
    started = time.perf_counter()
    outcomes: list = []
    for cell in cells:
        outcome = run_cell(cell, profile=profile)
        if outcome.ok:
            outcomes.append(outcome)
        else:
            outcomes.append(CellFailure(cell=cell, error=outcome.error))
    return SweepResult(
        outcomes=outcomes,
        wall_s=time.perf_counter() - started,
        workers=1,
        mode="serial",
    )


class ParallelRunner:
    """Fans cells across a pool of worker processes with crash isolation."""

    def __init__(
        self,
        workers: Optional[int] = None,
        profile: bool = True,
        start_method: Optional[str] = None,
        join_timeout_s: Optional[float] = 900.0,
        max_attempts: int = 2,
        retry_backoff_s: float = 0.5,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if join_timeout_s is not None and join_timeout_s <= 0:
            raise ValueError(f"join_timeout_s must be positive, got {join_timeout_s}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if retry_backoff_s < 0:
            raise ValueError(f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        #: Hung-worker watchdog: a worker that neither reports nor exits
        #: within this budget of receiving a cell is terminated (``None``
        #: disables the watchdog).  The sweep then retries or records the
        #: cell as a hung :class:`CellFailure` and *returns the other
        #: cells' results* — one wedged worker never hangs the whole sweep.
        self.join_timeout_s = join_timeout_s
        #: Total launches a cell may consume.  Worker *deaths* (crash or
        #: hang — environmental failures) are retried with exponential
        #: backoff up to this bound; a runner that raises in-process is
        #: deterministic and fails immediately without retry.
        self.max_attempts = max_attempts
        self.retry_backoff_s = retry_backoff_s
        # Cap at the core count: more workers than cores cannot run
        # concurrently — they just time-slice one another and add process
        # startup/scheduling overhead, turning "parallel" runs slower
        # than serial on small hosts (observed 0.73x with 4 workers on a
        # 1-core box).  An explicit request is still honoured up to the
        # cap; the default leaves one core for the parent.
        cores = multiprocessing.cpu_count()
        requested = workers or max(cores - 1, 1)
        self.workers = min(requested, cores)
        self.profile = profile
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = multiprocessing.get_context(start_method)
        self.start_method = start_method

    def _reap(self, proc) -> None:
        """Bounded shutdown of a finished or condemned worker process.

        ``join`` with a timeout instead of an unbounded join: a child
        that closed its pipe but wedged on the way out (atexit hook,
        stuck flush) cannot hang the sweep.  Escalates to ``terminate``
        and then ``kill`` before the final reaping join.
        """
        proc.join(5.0)
        if proc.is_alive():
            proc.terminate()
            proc.join(5.0)
        if proc.is_alive():  # pragma: no cover - needs an unkillable child
            proc.kill()
            proc.join()

    def _retry_or_fail(
        self,
        index: int,
        cell: WorkCell,
        attempt: int,
        pending: list,
        outcomes: dict,
        exitcode: Optional[int],
        hung: bool,
    ) -> None:
        """Queue a dead worker's cell for retry, or record the failure."""
        if attempt < self.max_attempts:
            not_before = time.monotonic() + self.retry_backoff_s * (
                2.0 ** (attempt - 1)
            )
            pending.append((index, cell, attempt + 1, not_before))
        else:
            outcomes[index] = CellFailure(
                cell=cell, exitcode=exitcode, attempts=attempt, hung=hung
            )

    def _spawn_worker(self, serial: int) -> list:
        """Start one long-lived worker; returns its mutable slot.

        Slot layout: ``[proc, conn, assignment, deadline]`` where
        ``assignment`` is ``(index, cell, attempt)`` while the worker is
        busy and None while idle.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-pool-{serial}",
        )
        proc.start()
        child_conn.close()
        return [proc, parent_conn, None, None]

    def run(self, cells: Sequence[WorkCell]) -> SweepResult:
        """Run the cells; returns merged results in matrix order.

        Outcomes are keyed by matrix index and merged in that order, so
        which worker ran a cell (and in what sequence) never shows in
        the result bytes.
        """
        started = time.perf_counter()
        cells = list(cells)
        outcomes: dict = {}  # index -> CellOutcome | CellFailure
        # Queue entries: (index, cell, attempt, not_before).  The initial
        # pass dispatches in matrix order; crashed/hung cells re-enter at
        # the back with a backoff-delayed not_before.
        pending: list = [(i, cell, 1, 0.0) for i, cell in enumerate(cells)]
        workers: dict = {}  # wid -> [proc, conn, assignment, deadline]
        next_wid = 0
        target = min(self.workers, max(len(cells), 1))
        while pending or any(slot[2] is not None for slot in workers.values()):
            now = time.monotonic()
            i = 0
            while i < len(pending):
                index, cell, attempt, not_before = pending[i]
                if not_before > now:
                    i += 1
                    continue
                wid = next(
                    (w for w, slot in workers.items() if slot[2] is None), None
                )
                if wid is None:
                    if len(workers) >= target:
                        break
                    wid = next_wid
                    next_wid += 1
                    workers[wid] = self._spawn_worker(wid)
                pending.pop(i)
                slot = workers[wid]
                slot[1].send((index, cell, attempt, self.profile))
                slot[2] = (index, cell, attempt)
                slot[3] = (
                    None
                    if self.join_timeout_s is None
                    else time.monotonic() + self.join_timeout_s
                )
            if all(slot[2] is None for slot in workers.values()):
                if pending:
                    # Every queued cell is waiting out its retry backoff.
                    wake = min(entry[3] for entry in pending)
                    time.sleep(max(wake - time.monotonic(), 0.0) + 0.001)
                continue
            self._collect(workers, outcomes, pending)
        for slot in workers.values():
            proc, conn = slot[0], slot[1]
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass  # already dead; _reap below collects it
            conn.close()
            self._reap(proc)
        return SweepResult(
            outcomes=[outcomes[i] for i in range(len(cells))],
            wall_s=time.perf_counter() - started,
            workers=self.workers,
            mode=f"pool/{self.start_method}",
        )

    def _collect(self, workers: dict, outcomes: dict, pending: list) -> None:
        """Wait for at least one worker event; collect whatever is ready.

        A worker death is environmental (its cell is retried with
        backoff), an in-process runner error is deterministic (no
        retry), and a worker silent past its deadline is terminated —
        the hung-worker watchdog.  Waiting is bounded by the nearest
        deadline or retry wake-up.  Dead and condemned workers just
        leave the pool; :meth:`run` spawns replacements while work
        remains.
        """
        handles = []
        for slot in workers.values():
            if slot[2] is not None:
                handles.append(slot[1])
            handles.append(slot[0].sentinel)
        horizons = [slot[3] for slot in workers.values() if slot[3] is not None]
        horizons.extend(entry[3] for entry in pending)
        timeout = (
            max(min(horizons) - time.monotonic(), 0.0) if horizons else None
        )
        ready = set(connection.wait(handles, timeout=timeout))
        dead = []
        for wid, slot in workers.items():
            proc, conn, assignment, _deadline = slot
            if assignment is not None and conn in ready:
                try:
                    index, payload = conn.recv()
                except (EOFError, OSError):
                    dead.append(wid)  # closed pipe: sentinel path handles it
                    continue
                if payload.ok:
                    outcomes[index] = payload
                else:
                    # In-process raise: deterministic, fail without retry.
                    outcomes[index] = CellFailure(
                        cell=assignment[1],
                        error=payload.error,
                        attempts=assignment[2],
                    )
                slot[2] = None
                slot[3] = None
            if proc.sentinel in ready and wid not in dead:
                dead.append(wid)
        for wid in dead:
            proc, conn, assignment, _deadline = workers.pop(wid)
            # A buffered result may have raced the worker's death.
            payload = None
            if assignment is not None and conn.poll():
                try:
                    index, payload = conn.recv()
                except (EOFError, OSError):
                    payload = None
            self._reap(proc)
            conn.close()
            if assignment is None:
                continue
            index, cell, attempt = assignment
            if payload is not None and payload.ok:
                outcomes[index] = payload
            elif payload is not None:
                outcomes[index] = CellFailure(
                    cell=cell, error=payload.error, attempts=attempt
                )
            else:
                self._retry_or_fail(
                    index, cell, attempt, pending, outcomes, proc.exitcode, False
                )
        now = time.monotonic()
        expired = [
            wid
            for wid, slot in workers.items()
            if slot[3] is not None and now >= slot[3]
        ]
        for wid in expired:
            proc, conn, assignment, _deadline = workers.pop(wid)
            proc.terminate()
            self._reap(proc)
            conn.close()
            index, cell, attempt = assignment
            self._retry_or_fail(
                index, cell, attempt, pending, outcomes, proc.exitcode, True
            )
