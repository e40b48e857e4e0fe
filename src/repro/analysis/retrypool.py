"""A process pool that survives its workers: retry, timeout, rebuild.

``concurrent.futures.ProcessPoolExecutor`` has three failure modes that
a long-running sweep service cannot tolerate:

* an exception in one task aborts a plain ``pool.map`` and discards
  every sibling result still in flight;
* a worker that dies (OOM kill, segfault) raises ``BrokenProcessPool``
  and poisons the whole pool — every queued future fails, and the pool
  object is unusable afterwards;
* a worker that hangs blocks ``pool.map`` forever; there is no per-task
  timeout and no way to kill a single worker.

:func:`run_tasks` is the sweep executor's answer, behind both
``run_plan`` and single runs.  It submits at most ``worker_count`` tasks
at a time (a sliding window, so every in-flight future has a known
submission time for deadline tracking), collects with
``wait(FIRST_COMPLETED)``, and on failure applies a deterministic
:class:`RetryPolicy`: failed tasks are requeued with exponential backoff
until their attempts are exhausted; a broken or deadline-blown pool is
killed (workers terminated and joined, never leaked) and rebuilt,
requeueing only the tasks that were lost.  ``KeyboardInterrupt`` shuts
the pool down promptly and returns the results finished so far instead
of leaking workers.

Retry backoff is executed *inside* the worker (sleep before running),
so a delayed retry never blocks the parent from collecting sibling
results; the delay is folded into that task's deadline.  A task may
perform several runs (``runs``, the sweep's stream groups): its
deadline is ``timeout_s`` per run.

Determinism note: when a worker dies, the pool cannot tell which task
killed it — every in-flight future fails identically.  All of them get
a ``worker-lost`` attempt; innocent tasks succeed on requeue, and with
deterministic faults the culprit exhausts its attempts.  This is the
same convergence argument chaos tests rely on throughout.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro import faults
from repro.errors import ConfigurationError

#: Grace period when joining terminated worker processes.
_JOIN_TIMEOUT_S = 5.0


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry/timeout policy for pooled execution.

    ``max_attempts`` bounds tries per task (1 = no retry).  Attempt *n*
    (n >= 2) is delayed by ``base_delay_s * 2**(n-2)`` seconds of
    exponential backoff.  ``timeout_s`` bounds one run's wall-clock: an
    attempt of a task of *n* runs is due ``n * timeout_s`` after its
    submission and backoff; an overdue task's worker is killed with the
    pool and the task is charged a ``timeout`` attempt.
    ``timeout_s=None`` disables deadlines entirely.
    """

    max_attempts: int = 1
    base_delay_s: float = 0.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("retry max_attempts must be >= 1")
        if self.base_delay_s < 0:
            raise ConfigurationError("retry base_delay_s must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("retry timeout_s must be positive")

    def delay_for(self, attempt: int) -> float:
        """Backoff before *attempt* (1-based; the first try is free)."""
        if attempt <= 1 or self.base_delay_s == 0:
            return 0.0
        return self.base_delay_s * (2.0 ** (attempt - 2))


@dataclass(frozen=True)
class TaskFailure:
    """One task that permanently failed (or was interrupted)."""

    index: int
    kind: str  # "error" | "timeout" | "worker-lost" | "interrupted"
    attempts: int
    error: str


@dataclass
class PoolReport:
    """What :func:`run_tasks` accomplished, exhaustively accounted.

    ``results`` maps task index to result for every task that finished;
    ``failures`` lists the rest.  The counters aggregate what the retry
    machinery had to do, and feed the ``bench:"faults"`` trajectory.
    """

    results: Dict[int, object] = field(default_factory=dict)
    failures: List[TaskFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    interrupted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures and not self.interrupted


def _invoke(
    worker: Callable[[object], object],
    payload: object,
    attempt: int,
    delay_s: float,
    plan: Optional[faults.FaultPlan],
) -> object:
    """Run one attempt inside a pool worker.

    Installs the fault plan (shipped explicitly — spawn-safe, and fork
    inheritance would go stale after an executor-side ``install``), sets
    the ambient attempt number for rule matching, and sleeps the backoff
    here rather than in the parent so sibling collection never blocks.
    An already-matching plan is left alone so per-process ``fires=``
    counters survive across tasks reusing the same worker.
    """
    if plan is not None and faults.active() != plan:
        faults.install(plan)
    faults.set_attempt(attempt)
    try:
        if delay_s > 0:
            time.sleep(delay_s)
        return worker(payload)
    finally:
        faults.set_attempt(1)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down *now*, terminating and reaping its workers.

    ``shutdown(wait=False)`` alone leaks live processes (they linger
    until their current task returns — forever, for a hung worker).
    Termination uses the private ``_processes`` map because the public
    API offers no kill switch; guarded so a future stdlib change
    degrades to a plain shutdown instead of crashing.

    The pool's manager thread reaps the same workers.  It is joined
    before returning: while it is still inside ``waitpid``, a worker it
    has already reaped reads as alive to every other caller (their
    ``waitpid`` fails with ``ECHILD`` before the exit code is stored),
    so returning early let callers observe phantom live children.
    """
    try:
        processes = list(getattr(pool, "_processes", {}).values())
        manager = getattr(pool, "_executor_manager_thread", None)
    except Exception:
        processes, manager = [], None
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    if manager is not None:
        manager.join(_JOIN_TIMEOUT_S)
    for process in processes:
        try:
            process.join(_JOIN_TIMEOUT_S)
        except Exception:
            pass


@dataclass
class _InFlight:
    """Bookkeeping for one submitted attempt."""

    index: int
    attempt: int
    deadline: Optional[float]


def run_tasks(
    payloads: Sequence[object],
    worker: Callable[[object], object],
    policy: RetryPolicy = RetryPolicy(),
    max_workers: int = 1,
    keep_going: bool = False,
    runs: Optional[Sequence[int]] = None,
) -> PoolReport:
    """Run ``worker(payload)`` for every payload with retry and timeout.

    Results preserve payload order via their indices in the report.
    With ``keep_going`` every task runs to success or exhaustion; without
    it the first permanent failure stops submission (finished results
    are still returned).  Tasks are submitted in payload order.
    ``runs`` counts the runs each task performs (default one each); a
    task's deadline is ``timeout_s`` per run.

    Inline fast path: a single worker (or single payload) with no
    deadline runs in-process — same retry semantics, no pool overhead.
    A ``timeout_s`` forces the pool path even for one task, because an
    in-process hang cannot be killed.
    """
    runs = list(runs) if runs is not None else [1] * len(payloads)
    if len(runs) != len(payloads):
        raise ConfigurationError("runs must match payloads one-to-one")
    report = PoolReport()
    if not payloads:
        return report
    plan = faults.active()
    shipped_plan = plan if plan else None

    if (max_workers <= 1 or len(payloads) == 1) and policy.timeout_s is None:
        # Inline tasks run in this process where the plan is already
        # ambient; shipping it would re-install and reset fire counters.
        _run_inline(payloads, worker, policy, keep_going, report, None)
        return report
    _run_pooled(payloads, worker, policy, max_workers, keep_going, runs,
                report, shipped_plan)
    return report


def _run_inline(payloads, worker, policy, keep_going, report, plan):
    """Serial execution with the same retry accounting as the pool."""
    queued = list(range(len(payloads)))
    while queued:
        index = queued.pop(0)
        payload = payloads[index]
        attempt = 1
        while True:
            try:
                report.results[index] = _invoke(
                    worker, payload, attempt, policy.delay_for(attempt), plan
                )
            except KeyboardInterrupt:
                report.interrupted = True
                _mark_interrupted(report, [index], attempt)
                _mark_interrupted(report, queued, 0)
                return
            except Exception as exc:
                if attempt >= policy.max_attempts:
                    report.failures.append(TaskFailure(
                        index, "error", attempt, _render(exc)
                    ))
                    if not keep_going:
                        return
                    break
                attempt += 1
                report.retries += 1
                continue
            # Fire the collection fault site inline too — the pooled
            # path fires it after each gathered result, and a chaos rule
            # targeting it must not silently no-op on 1-worker sweeps.
            # The task's own result is already collected, so (matching
            # the pooled semantics, where the finished future has left
            # in_flight) an injected interrupt here marks only the
            # *remaining* tasks interrupted.
            try:
                faults.fire("pool.collect", key=str(index))
            except KeyboardInterrupt:
                report.interrupted = True
                _mark_interrupted(report, queued, 0)
                return
            break


def _mark_interrupted(report, indices, attempts):
    for index in indices:
        report.failures.append(TaskFailure(
            index, "interrupted", attempts, "KeyboardInterrupt"
        ))


def _render(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_pooled(payloads, worker, policy, max_workers, keep_going, runs,
                report, plan):
    """Sliding-window pooled execution with kill/rebuild recovery."""
    worker_count = min(max_workers, len(payloads))
    queue = deque(range(len(payloads)))
    attempts = [0] * len(payloads)
    pool = ProcessPoolExecutor(max_workers=worker_count)
    in_flight: Dict[object, _InFlight] = {}

    def submit_ready() -> None:
        while queue and len(in_flight) < worker_count:
            index = queue.popleft()
            attempts[index] += 1
            delay = policy.delay_for(attempts[index])
            deadline = (
                time.monotonic() + delay + policy.timeout_s * runs[index]
                if policy.timeout_s is not None else None
            )
            future = pool.submit(
                _invoke, worker, payloads[index], attempts[index], delay, plan
            )
            in_flight[future] = _InFlight(index, attempts[index], deadline)

    def fail_or_requeue(index: int, kind: str, error: str) -> bool:
        """Charge one failed attempt; requeue or record. True = permanent."""
        if attempts[index] < policy.max_attempts:
            report.retries += 1
            queue.append(index)
            return False
        report.failures.append(TaskFailure(
            index, kind, attempts[index], error
        ))
        return True

    def rebuild_pool(overdue: List[object]) -> None:
        """Kill the pool, requeue what was lost, start a fresh pool."""
        nonlocal pool
        _kill_pool(pool)
        report.pool_rebuilds += 1
        for future, entry in list(in_flight.items()):
            if future in overdue:
                continue  # already charged by the caller
            # Innocent bystanders: their attempt died with the pool, but
            # it was not their fault — requeue without charging it.
            attempts[entry.index] -= 1
            queue.append(entry.index)
        in_flight.clear()
        pool = ProcessPoolExecutor(max_workers=worker_count)

    stop = False
    try:
        submit_ready()
        while in_flight:
            wait_s = None
            if policy.timeout_s is not None:
                now = time.monotonic()
                wait_s = max(
                    0.0,
                    min(e.deadline for e in in_flight.values()) - now,
                )
            done, _pending = wait(
                set(in_flight), timeout=wait_s, return_when=FIRST_COMPLETED
            )

            if not done:
                # Deadline expired with nothing finished: at least one
                # worker is hung.  The only kill switch is pool-wide.
                now = time.monotonic()
                overdue = [
                    future for future, entry in in_flight.items()
                    if entry.deadline is not None and entry.deadline <= now
                ]
                if not overdue:
                    continue  # spurious wakeup; recompute and re-wait
                for future in overdue:
                    entry = in_flight[future]
                    report.timeouts += 1
                    if fail_or_requeue(
                        entry.index, "timeout",
                        "attempt exceeded "
                        f"{policy.timeout_s * runs[entry.index]:g}s deadline",
                    ) and not keep_going:
                        stop = True
                rebuild_pool(overdue)
                if stop:
                    return
                submit_ready()
                continue

            broken = False
            for future in done:
                entry = in_flight.pop(future)
                try:
                    result = future.result()
                except KeyboardInterrupt:
                    raise
                except (BrokenProcessPool, CancelledError):
                    # A worker died; every in-flight future is poisoned.
                    if fail_or_requeue(
                        entry.index, "worker-lost",
                        "worker process died (pool broken)",
                    ) and not keep_going:
                        stop = True
                    broken = True
                except Exception as exc:
                    if fail_or_requeue(
                        entry.index, "error", _render(exc)
                    ) and not keep_going:
                        stop = True
                else:
                    report.results[entry.index] = result
                    faults.fire("pool.collect", key=str(entry.index))
            if broken:
                # Remaining in-flight futures are poisoned too: charge
                # each a worker-lost attempt, then rebuild.
                for future, entry in list(in_flight.items()):
                    if fail_or_requeue(
                        entry.index, "worker-lost",
                        "worker process died (pool broken)",
                    ) and not keep_going:
                        stop = True
                in_flight.clear()
                _kill_pool(pool)
                report.pool_rebuilds += 1
                pool = ProcessPoolExecutor(max_workers=worker_count)
            if stop:
                return
            submit_ready()
    except KeyboardInterrupt:
        report.interrupted = True
        interrupted = sorted(
            [(e.index, e.attempt) for e in in_flight.values()]
            + [(index, attempts[index]) for index in queue]
        )
        for index, attempt in interrupted:
            report.failures.append(TaskFailure(
                index, "interrupted", attempt, "KeyboardInterrupt"
            ))
        in_flight.clear()
    finally:
        _kill_pool(pool)
