"""Sweep execution engine: process-pool fan-out plus an on-disk result cache.

The engine runs :class:`~repro.analysis.plan.RunSpec`s and returns
:class:`~repro.stats.snapshot.MachineSnapshot`s, resolving each run through
three tiers:

1. **In-memory cache** — within one process, repeated requests for the same
   spec return the identical snapshot object (the contract the figure
   generators rely on).
2. **On-disk cache** — snapshots are serialized to JSON under a cache
   directory, content-addressed by the spec's SHA-256 digest combined with
   the library version and serialization schema, so repeated benchmark or
   figure invocations across processes (and across pytest sessions) are
   near-free.  Entries from older code versions simply miss.
3. **Execution** — cache misses are simulated, either inline or fanned out
   over a :class:`concurrent.futures.ProcessPoolExecutor`.  Workers receive
   only the picklable spec and rebuild the workload stream deterministically
   from it, so parallel results are bit-identical to serial ones.  One
   pool task is one *stream group*: the pending specs that share a
   workload stream (every policy and probe-filter variant of one
   workload).  The task builds the stream once and runs its specs in
   ascending probe-filter size, so a sweep generates each stream once,
   pooled or not.

A sweep simulates a larger probe-filter size only when it must.  Specs
equal in every field but ``pf_size`` form a *family*, and a family
member is *derived* from a finished member of its group when both build
the same machine, or when the finished member is smaller and never
evicted a probe-filter entry: it gets the same snapshot
(:func:`derives_from` says why that is exact), is stored under its own
cache key and reported with source ``"derived"``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import faults
from repro.analysis.plan import RunSpec, SweepPlan
from repro.analysis.retrypool import RetryPolicy, run_tasks
from repro.errors import ExecutionError
from repro.ioutil import atomic_write_bytes
from repro.stats.snapshot import SNAPSHOT_SCHEMA_VERSION, MachineSnapshot
from repro.system.config import SystemConfig
from repro.system.simulator import simulate
from repro.trace.binary import write_trace_v3
from repro.trace.record import AccessRecord
from repro.version import __version__

#: Bump to invalidate every on-disk cache entry written by older engines.
CACHE_SCHEMA_VERSION = 3

_CODE_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of the package's source files, computed once per process.

    Folding this into every cache key means *any* source edit — a latency
    constant, a seed function, a protocol fix — silently invalidates old
    snapshots, without requiring anyone to remember a manual version bump.
    Sources unreadable (e.g. a frozen deployment) degrade to the library
    version alone.
    """
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is None:
        package_root = Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        try:
            for path in sorted(package_root.rglob("*.py")):
                digest.update(str(path.relative_to(package_root)).encode("utf-8"))
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
            _CODE_FINGERPRINT = digest.hexdigest()
        except OSError:
            _CODE_FINGERPRINT = "source-unavailable"
    return _CODE_FINGERPRINT


def execute_run_spec(spec: RunSpec) -> MachineSnapshot:
    """Simulate one spec from scratch and return its snapshot.

    The spec rebuilds its machine configuration and access stream
    deterministically.  Every call builds its stream afresh: only the
    specs of one sweep task (a stream group, :func:`_run_group`) share
    a stream.
    """
    result = simulate(
        spec.config(), spec.access_stream(), spec.workload_name, engine=spec.engine
    )
    return result.snapshot


def _sweep_fault_key(index: int, spec: RunSpec) -> str:
    """The ``sweep.run`` fault-site key naming one pending run."""
    return f"#{index}:{spec.workload_name}:{spec.policy}:pf{spec.pf_size}"


def _run_group(task):
    """Pool worker body: execute one stream group's pending specs.

    *task* is ``(policy, members)``: the sweep's
    :class:`~repro.analysis.retrypool.RetryPolicy` and the group's
    ``(index, spec)`` pairs in ascending ``pf_size``, then pending
    order, where *index* is the spec's position in the pending list.
    The result is ``(done, failed, retries, generated)``: *done* maps
    each settled index to ``(snapshot, seconds, source)``, *failed*
    lists ``(index, attempts, error)`` for each spec that failed for
    good, *retries* counts the retries made in place and *generated*
    says whether the group built its stream.

    A member is derived, not run, when a finished member of its family
    builds the same machine, or is smaller and never evicted a
    probe-filter entry (:func:`derives_from`).  Any other member fires
    the ``sweep.run`` fault site (the chaos hook standing in for real
    worker failures; a no-op with no plan installed) and runs, timed.  A
    member that raises is retried in place under *policy*: its attempt
    number starts at the task's (the ambient attempt the pool set) and
    grows by one per retry, with the policy's backoff before each.
    One that fails for good fails alone: the rest of the group still
    runs or derives.

    A group builds its stream once, on first use, as an immutable tuple
    that no run can change.  A record-fed machine holds no reference
    cycle, so it is freed as soon as its run drops it, and a worker
    holds one run's state at a time.
    """
    policy, members = task
    first_attempt = faults.current_attempt()
    done: Dict[int, Tuple[MachineSnapshot, float, str]] = {}
    failed: List[Tuple[int, int, str]] = []
    retries = 0
    stream: Optional[Tuple[AccessRecord, ...]] = None
    finished: List[Tuple[RunSpec, SystemConfig, MachineSnapshot]] = []
    for index, spec in members:
        family, config = replace(spec, pf_size=1), spec.config()
        sibling = next((
            snapshot for other, built, snapshot in finished
            if other == family and (
                built == config
                or (not snapshot.pf_evictions and derives_from(built, config))
            )
        ), None)
        if sibling is not None:
            done[index] = (sibling, 0.0, SOURCE_DERIVED)
            continue
        attempt = first_attempt
        while True:
            faults.set_attempt(attempt)
            try:
                faults.fire("sweep.run", key=_sweep_fault_key(index, spec))
                started = time.perf_counter()
                if stream is None:
                    stream = tuple(spec.access_stream())
                snapshot = simulate(
                    config, stream, spec.workload_name, engine=spec.engine
                ).snapshot
            except Exception as exc:
                if attempt >= policy.max_attempts:
                    failed.append((index, attempt, f"{type(exc).__name__}: {exc}"))
                    break
                attempt += 1
                retries += 1
                time.sleep(policy.delay_for(attempt))
                continue
            done[index] = (snapshot, time.perf_counter() - started, SOURCE_EXECUTED)
            finished.append((family, config, snapshot))
            break
    return done, failed, retries, stream is not None


def trace_file_name(spec: RunSpec) -> str:
    """File name of *spec*'s recorded workload stream in a trace directory.

    Combines the stream digest (shared by every policy/filter-size
    variant of one workload) with the code fingerprint, so any source
    edit — a generator tweak, a seed change — retires old recordings:
    a file name always names the stream the current code generates.
    Recordings are v3 blocked traces (``.rpt3``).
    """
    return f"{spec.stream_digest()}-{code_fingerprint()[:12]}.rpt3"


def record_spec_trace(
    spec: RunSpec,
    path: Union[str, Path],
    epoch_records: Optional[int] = None,
) -> int:
    """Capture *spec*'s workload stream as a v3 blocked trace at *path*.

    *epoch_records* adds the v3.1 seekable epoch index a resumed replay
    seeks with.  Returns the number of records written.  The write is
    atomic, so a reader (or a concurrent recorder of the same stream)
    never sees a partial trace.
    """
    return write_trace_v3(path, spec.access_stream(), epoch_records=epoch_records)


@functools.lru_cache(maxsize=4096)
def cache_key(spec: RunSpec) -> str:
    """Content-addressed cache key: spec digest + code/schema versions.

    Memoised process-wide: every input is fixed for the life of the
    process, and a sweep asks for each key more than once (the disk
    load, then the store; a warm pass rebuilds its plan and asks again).
    """
    payload = "|".join(
        (
            spec.cache_token(),
            f"lib={__version__}",
            f"code={code_fingerprint()}",
            f"cache_schema={CACHE_SCHEMA_VERSION}",
            f"snapshot_schema={SNAPSHOT_SCHEMA_VERSION}",
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SnapshotCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    quarantined: int = 0


def _snapshot_digest(snapshot_value: object) -> Tuple[bytes, str]:
    """The canonical JSON bytes of a snapshot value and their SHA-256.

    The one encoder of a cache entry's payload line, which holds a
    snapshot's row (:meth:`MachineSnapshot.to_row`): sorted keys, no
    whitespace, UTF-8.  The digest covers exactly these bytes.
    """
    payload = json.dumps(
        snapshot_value, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return payload, hashlib.sha256(payload).hexdigest()


class SnapshotCache:
    """On-disk, content-addressed store of serialized machine snapshots.

    Layout: ``<root>/<key[:2]>/<key>.json`` where *key* is
    :func:`cache_key`'s SHA-256 hex digest.  Each file is two lines: a
    small JSON header ``{"sha256": ..., "spec": ...}`` naming the
    originating spec, then the snapshot's row
    (:meth:`~repro.stats.snapshot.MachineSnapshot.to_row`) as canonical
    JSON (:func:`_snapshot_digest`).  The header's ``sha256`` covers
    exactly the payload bytes, so a load hashes the bytes it read and
    decodes them once, and the cache directory stays self-describing.
    The row is positional, which is safe because :func:`cache_key` folds
    in :func:`code_fingerprint`: a reordered field changes every key, so
    a row written by other code is never addressed.  Writes
    are atomic (temp file + ``os.replace``) so concurrent executors
    never observe torn entries.

    The cache is self-healing: an entry that fails to parse or whose
    digest disagrees with its payload is *quarantined* — renamed to
    ``<key>.json.corrupt`` and counted in ``stats.quarantined`` — so a
    damaged file is inspected once, preserved for forensics, and never
    re-read on subsequent loads.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._root = str(self.root)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        """Return the file this spec's snapshot lives at (existing or not)."""
        return Path(self._entry(spec))

    def _entry(self, spec: RunSpec) -> str:
        # A plain string: a warm pass loads every spec of the grid, and
        # pathlib joins cost several microseconds each.
        key = cache_key(spec)
        return f"{self._root}/{key[:2]}/{key}.json"

    def _quarantine(self, path: str) -> None:
        """Move a damaged entry aside as ``<name>.corrupt``."""
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            return  # racing loader already moved it; nothing to preserve
        self.stats.quarantined += 1

    def load(self, spec: RunSpec) -> Optional[MachineSnapshot]:
        """Return the verified cached snapshot for *spec*, or ``None``.

        Any damage — a missing header or payload line, unparsable JSON,
        a row of the wrong schema, length or type, a digest mismatch
        from a torn or bit-rotted write — quarantines the entry and
        reports a miss, so the next sweep re-executes and rewrites it.
        """
        path = self._entry(spec)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            header, payload = data.split(b"\n", 1)
            digest = hashlib.sha256(payload).hexdigest()
            if digest != json.loads(header)["sha256"]:
                raise ValueError("snapshot payload digest mismatch")
            snapshot = MachineSnapshot.from_row(json.loads(payload))
        except Exception:
            # Corrupt, truncated or stale-schema entry: quarantine it and
            # treat as a miss.
            self.stats.invalid += 1
            self.stats.misses += 1
            self._quarantine(path)
            return None
        self.stats.hits += 1
        return snapshot

    def store(self, spec: RunSpec, snapshot: MachineSnapshot) -> Path:
        """Atomically persist *snapshot*, digest-stamped, under *spec*'s key."""
        path = self.path_for(spec)
        payload, digest = _snapshot_digest(snapshot.to_row())
        header = json.dumps(
            {"sha256": digest, "spec": spec.describe()}, sort_keys=True
        )
        atomic_write_bytes(path, header.encode("utf-8") + b"\n" + payload)
        self.stats.stores += 1
        return path

    def entry_count(self) -> int:
        """Number of snapshot files currently in the cache."""
        return sum(1 for _ in self.root.glob("*/*.json"))


#: Where a sweep result came from.
SOURCE_EXECUTED = "executed"
SOURCE_DERIVED = "derived"
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"


def derives_from(small: SystemConfig, large: SystemConfig) -> bool:
    """True when an eviction-free run on *small* fixes the run on *large*.

    The two configurations must be equal but for the probe filter's
    coverage, and *large*'s coverage must be at least *small*'s.  Set
    counts are powers of two at one associativity and the set index is
    taken from the low line bits, so each set of the larger filter
    tracks a subset of one set of the smaller (Hill & Smith's set
    refinement).  If the smaller filter never evicts, by induction over
    the accesses neither does the larger, and every directory decision
    reads the same tracked lines, owners and sharers in both runs; LRU
    stamps only choose victims, and none is chosen.  No snapshot field
    or latency depends on the coverage, so the snapshots are equal.
    """
    coverage = small.directory.probe_filter_coverage
    return (
        large.directory.probe_filter_coverage >= coverage
        and large.with_probe_filter_coverage(coverage) == small
    )


@dataclass
class SweepResult:
    """One finished run of a plan: the spec, its snapshot and provenance."""

    spec: RunSpec
    snapshot: MachineSnapshot
    source: str
    duration_s: float = 0.0


@dataclass(frozen=True)
class RunFailure:
    """One spec that permanently failed within a sweep.

    ``kind`` is ``"error"`` (the run raised), ``"timeout"`` (it blew its
    per-run deadline), ``"worker-lost"`` (its worker process died) or
    ``"interrupted"`` (Ctrl-C before it finished); ``attempts`` counts
    tries actually charged to this spec.
    """

    spec: RunSpec
    kind: str
    attempts: int
    error: str


@dataclass
class SweepOutcome:
    """All results of one :meth:`SweepExecutor.run_plan` invocation.

    ``results`` holds the runs that completed (in plan order); with a
    ``keep_going`` executor — or after an interrupt — that may be a
    subset, and ``failures`` accounts for every spec that did not make
    it.  ``plan_size`` is the number of specs the plan asked for —
    the denominator of :attr:`cached_fraction` — so failed runs count
    as uncached instead of silently shrinking the ratio's base.  The
    retry counters aggregate what fault tolerance had to do: they are
    zero on a healthy sweep and feed the ``bench:"faults"`` trajectory
    in chaos runs.  ``streams_generated`` counts the completed stream
    groups that built their workload stream, once per group.
    """

    plan_name: str
    plan_size: int = 0
    results: List[SweepResult] = field(default_factory=list)
    elapsed_s: float = 0.0
    failures: List[RunFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0
    interrupted: bool = False
    streams_generated: int = 0

    @property
    def ok(self) -> bool:
        """True when every spec of the plan completed."""
        return not self.failures and not self.interrupted

    def __len__(self) -> int:
        return len(self.results)

    @property
    def derived(self) -> int:
        """Runs whose snapshot came from a smaller, eviction-free sibling."""
        return self.counts_by_source()[SOURCE_DERIVED]

    def counts_by_source(self) -> Dict[str, int]:
        """How many runs were executed, derived or served from each cache tier."""
        counts = {
            SOURCE_EXECUTED: 0,
            SOURCE_DERIVED: 0,
            SOURCE_MEMORY: 0,
            SOURCE_DISK: 0,
        }
        for result in self.results:
            counts[result.source] = counts.get(result.source, 0) + 1
        return counts

    @property
    def cached_fraction(self) -> float:
        """Fraction of the *plan* served without simulation.

        The denominator is the full plan size, not the completed-result
        count, so a ``keep_going`` sweep where most of the grid failed
        cannot pass the CLI's ``--min-cache-fraction`` gate on its few
        disk-served survivors.  Failures are uncached by definition.
        """
        total = self.plan_size or len(self.results)
        if not total:
            return 0.0
        counts = self.counts_by_source()
        cached = counts[SOURCE_MEMORY] + counts[SOURCE_DISK]
        return cached / total


class SweepExecutor:
    """Runs specs and plans through the cache tiers and the process pool.

    Parameters
    ----------
    workers:
        Maximum worker processes for :meth:`run_plan`.  ``1`` (the
        default) executes inline — no pool, no pickling — which is also
        the fallback whenever a plan has at most one uncached run.
    cache_dir:
        Optional directory for the on-disk snapshot cache; ``None``
        disables disk caching (the in-memory tier still applies).
    retry:
        :class:`~repro.analysis.retrypool.RetryPolicy` applied to each
        uncached run: per-run attempts, exponential backoff and an
        optional per-run wall-clock deadline.  The default retries
        nothing (one attempt, no timeout).  A policy with ``timeout_s``
        forces pool execution even for a single pending run, because an
        inline hang cannot be killed.
    keep_going:
        When a spec exhausts its attempts, record it in
        ``SweepOutcome.failures`` and keep sweeping instead of raising
        :class:`~repro.errors.ExecutionError` — one poisoned spec no
        longer discards a 100-run grid.
    """

    def __init__(
        self,
        workers: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = False,
    ) -> None:
        self.workers = max(1, int(workers))
        self.disk_cache = SnapshotCache(cache_dir) if cache_dir else None
        self.retry = retry if retry is not None else RetryPolicy()
        self.keep_going = bool(keep_going)
        self._memory: Dict[RunSpec, MachineSnapshot] = {}

    # ------------------------------------------------------------------
    # Single-spec path (ExperimentRunner facade, serve handlers)
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> MachineSnapshot:
        """Resolve one spec through memory -> disk -> execution.

        An uncached spec runs as a stream group of one through the same
        :func:`~repro.analysis.retrypool.run_tasks` machinery as
        :meth:`run_plan` — retry/backoff/timeout from the executor's
        ``retry`` policy, the ``sweep.run`` fault site, pool isolation
        when a deadline demands it.  A spec that exhausts its attempts
        raises :class:`~repro.errors.ExecutionError`; an interrupt
        re-raises ``KeyboardInterrupt``.
        """
        cached = self._resolve_cached(spec)
        if cached is not None:
            return cached[0]
        outcome = SweepOutcome(plan_name=spec.workload_name, plan_size=1)
        results = self._execute_pending([spec], outcome)
        if outcome.interrupted:
            raise KeyboardInterrupt
        if outcome.failures:
            failure = outcome.failures[0]
            raise ExecutionError(
                f"run {spec.workload_name}/{spec.policy} failed permanently "
                f"({failure.kind} after {failure.attempts} attempt(s)): "
                f"{failure.error}",
                failures=[failure],
            )
        snapshot = results[0][0]
        self._finish(spec, snapshot)
        return snapshot

    def lookup(self, spec: RunSpec):
        """Probe the cache tiers only; ``(snapshot, source)`` or ``None``.

        Never executes.  This is the warm-tier fast path the serve layer
        answers from before considering coalescing or execution.
        """
        return self._resolve_cached(spec)

    def _resolve_cached(self, spec: RunSpec):
        """Probe the cache tiers; return ``(snapshot, source)`` or ``None``."""
        snapshot = self._memory.get(spec)
        if snapshot is not None:
            return snapshot, SOURCE_MEMORY
        if self.disk_cache is not None:
            snapshot = self.disk_cache.load(spec)
            if snapshot is not None:
                self._memory[spec] = snapshot
                return snapshot, SOURCE_DISK
        return None

    # ------------------------------------------------------------------
    # Plan path (used by the sweep CLI and the benchmarks)
    # ------------------------------------------------------------------
    def run_plan(self, plan: SweepPlan) -> SweepOutcome:
        """Run every spec of *plan*, fanning uncached runs over the pool.

        Results come back in plan order regardless of which worker
        finished first, and are bit-identical to a serial execution
        because workers rebuild their workload streams from the spec
        (see :meth:`_execute_pending`).

        Failure semantics follow the executor's ``retry``/``keep_going``
        configuration: a spec that exhausts its attempts raises
        :class:`~repro.errors.ExecutionError` (carrying the partial
        outcome) unless ``keep_going`` is set, in which case it lands in
        ``outcome.failures`` instead.  ``KeyboardInterrupt`` shuts the
        pool down promptly and returns the partial outcome with
        ``interrupted=True`` — finished results are never discarded.
        """
        started = time.perf_counter()
        outcome = SweepOutcome(plan_name=plan.name, plan_size=len(plan))
        resolved: Dict[RunSpec, SweepResult] = {}
        pending: List[RunSpec] = []

        for spec in plan:
            if spec in resolved:
                continue
            cached = self._resolve_cached(spec)
            if cached is not None:
                resolved[spec] = SweepResult(spec, cached[0], cached[1])
            else:
                pending.append(spec)

        results = self._execute_pending(pending, outcome)
        for index in sorted(results):
            snapshot, duration, source = results[index]
            spec = pending[index]
            self._finish(spec, snapshot)
            resolved[spec] = SweepResult(spec, snapshot, source, duration)

        outcome.results = [
            resolved[spec] for spec in plan if spec in resolved
        ]
        outcome.elapsed_s = time.perf_counter() - started
        if outcome.failures and not self.keep_going and not outcome.interrupted:
            first = outcome.failures[0]
            raise ExecutionError(
                f"{len(outcome.failures)} of {len(plan)} runs failed "
                f"permanently; first: {first.spec.workload_name}/"
                f"{first.spec.policy} ({first.kind} after "
                f"{first.attempts} attempt(s)): {first.error}",
                failures=outcome.failures,
                outcome=outcome,
            )
        return outcome

    # ------------------------------------------------------------------
    def _execute_pending(
        self, pending: List[RunSpec], outcome: SweepOutcome
    ) -> Dict[int, Tuple[MachineSnapshot, float, str]]:
        """Execute uncached runs; return ``{index: (snapshot, seconds, source)}``.

        One pool task per stream group (:func:`_run_group`): the pending
        specs sharing a stream digest, in ascending ``pf_size``, then
        pending order.  Larger groups are queued first (else in order of
        first appearance), so the long groups overlap the short ones
        instead of leaving a worker idle at the end of the sweep.  A
        group's deadline is the retry policy's ``timeout_s`` per spec.
        Each spec keeps its index in *pending*, which names it in its
        ``sweep.run`` fault key and in the returned results.

        The per-spec failures and the retry counters are recorded in
        *outcome*.  A spec fails with its group task when the task does
        (its worker died or overran the deadline on every attempt, or an
        interrupt), else alone (:func:`_run_group`).
        """
        groups: Dict[str, List[Tuple[int, RunSpec]]] = {}
        for index, spec in enumerate(pending):
            groups.setdefault(spec.stream_digest(), []).append((index, spec))
        tasks = sorted(groups.values(), key=len, reverse=True)
        for members in tasks:
            members.sort(key=lambda member: member[1].pf_size)
        report = run_tasks(
            [(self.retry, members) for members in tasks],
            _run_group,
            policy=self.retry,
            max_workers=self.workers,
            keep_going=self.keep_going,
            runs=[len(members) for members in tasks],
        )
        results: Dict[int, Tuple[MachineSnapshot, float, str]] = {}
        failures: List[Tuple[int, RunFailure]] = []
        for done, failed, retries, generated in report.results.values():
            results.update(done)
            failures += [
                (index, RunFailure(pending[index], "error", attempts, error))
                for index, attempts, error in failed
            ]
            outcome.retries += retries
            outcome.streams_generated += generated
        for task in report.failures:
            failures += [
                (index, RunFailure(
                    pending[index], task.kind, task.attempts, task.error
                ))
                for index, _spec in tasks[task.index]
            ]
        outcome.failures = [
            failure for _index, failure in sorted(failures, key=lambda f: f[0])
        ]
        outcome.retries += report.retries
        outcome.timeouts = report.timeouts
        outcome.pool_rebuilds = report.pool_rebuilds
        outcome.interrupted = report.interrupted
        return results

    def _finish(self, spec: RunSpec, snapshot: MachineSnapshot) -> None:
        self._memory[spec] = snapshot
        if self.disk_cache is not None:
            self.disk_cache.store(spec, snapshot)

    # ------------------------------------------------------------------
    def forget(self) -> None:
        """Drop the in-memory tier (the disk cache, if any, is kept)."""
        self._memory.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cache = self.disk_cache.root if self.disk_cache else None
        return f"SweepExecutor(workers={self.workers}, cache_dir={cache})"
