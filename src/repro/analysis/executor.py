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
   from it, so parallel results are bit-identical to serial ones.  Pending
   specs are dispatched grouped by stream (every policy and probe-filter
   variant of one workload shares a stream), and each worker keeps the last
   stream it generated, so a worker generates each stream at most once per
   sweep and replays it for the rest of the group.

When a ``trace_dir`` is configured, execution replays recorded v3
blocked traces (:mod:`repro.trace.binary`) instead of regenerating streams:
specs whose workload stream has been captured (one trace per distinct
stream — every policy/filter-size variant of a workload shares it) are
executed via :meth:`~repro.analysis.plan.RunSpec.with_trace`, which is
bit-identical to generation but skips the generator's RNG work.  With
``record_traces`` enabled, missing traces are captured on first use, in
the parent process so that pool workers never race to write one file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro import faults
from repro.analysis.plan import RunSpec, SweepPlan
from repro.analysis.retrypool import RetryPolicy, run_tasks
from repro.errors import ExecutionError
from repro.ioutil import atomic_write_json
from repro.stats.snapshot import SNAPSHOT_SCHEMA_VERSION, MachineSnapshot
from repro.system.simulator import simulate
from repro.trace.binary import write_trace_v3
from repro.trace.io import read_trace_native
from repro.trace.record import AccessRecord
from repro.version import __version__

#: Bump to invalidate every on-disk cache entry written by older engines.
CACHE_SCHEMA_VERSION = 1

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

    Module-level (and therefore picklable) so it can be shipped to pool
    workers; the spec rebuilds its machine configuration and access stream
    deterministically on whatever process it lands.  A recorded trace is
    fed in its stored shape, so a v3 blocked trace replays through the
    chunk kernel and everything else record by record.  Every call builds
    its stream afresh: only a sweep's own tasks share streams, through
    the per-sweep stream memo.
    """
    if spec.trace_source is not None:
        accesses = read_trace_native(spec.trace_source)
    else:
        accesses = spec.access_stream()
    return _simulate_spec(spec, accesses)


def _simulate_spec(spec: RunSpec, accesses) -> MachineSnapshot:
    result = simulate(spec.config(), accesses, spec.workload_name, engine=spec.engine)
    return result.snapshot


class _StreamMemo(threading.local):
    """The last stream a sweep task generated: ``(stream_digest, records)``.

    One entry, so a worker holds at most one stream; a tuple, so no run
    can mutate the stream its successors replay; thread-local, so
    concurrent ``serve`` handler threads never trade streams.  The sweep
    parent clears it around every batch of pending runs.
    """

    entry: Optional[Tuple[str, Tuple[AccessRecord, ...]]] = None


_stream_memo = _StreamMemo()


def _memoized_stream(spec: RunSpec) -> Tuple[Tuple[AccessRecord, ...], bool]:
    """Return ``(records, generated)`` for a generated spec's stream."""
    digest = spec.stream_digest()
    entry = _stream_memo.entry
    if entry is not None and entry[0] == digest:
        return entry[1], False
    _stream_memo.entry = None  # free the old stream before building the next
    records = tuple(spec.access_stream())
    _stream_memo.entry = (digest, records)
    return records, True


def _sweep_fault_key(index: int, spec: RunSpec) -> str:
    """The ``sweep.run`` fault-site key naming one pending run."""
    return f"#{index}:{spec.workload_name}:{spec.policy}:pf{spec.pf_size}"


def _run_task(task):
    """Pool worker body: execute one pending spec, timed.

    *task* is ``(index, effective_spec)``; the result is ``(snapshot,
    seconds, generated)``, where *generated* says whether this task built
    its workload stream (a replayed trace or a memo hit did not).  The
    :func:`faults.fire` call is the chaos hook standing in for real
    worker failures — with no plan installed it is a no-op.
    """
    index, spec = task
    faults.fire("sweep.run", key=_sweep_fault_key(index, spec))
    started = time.perf_counter()
    if spec.trace_source is not None:
        snapshot, generated = execute_run_spec(spec), False
    else:
        records, generated = _memoized_stream(spec)
        snapshot = _simulate_spec(spec, records)
    return snapshot, time.perf_counter() - started, generated


def trace_file_name(spec: RunSpec) -> str:
    """File name of *spec*'s recorded workload stream in a trace directory.

    Combines the stream digest (shared by every policy/filter-size
    variant of one workload) with the code fingerprint, so any source
    edit — a generator tweak, a seed change — silently retires old
    recordings instead of replaying streams the current code would no
    longer produce (which would poison the snapshot cache under the new
    code's identity).  Recordings are v3 blocked traces (``.rpt3``).
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


def cache_key(spec: RunSpec) -> str:
    """Content-addressed cache key: spec digest + code/schema versions."""
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


def _snapshot_digest(snapshot_dict: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of a snapshot dict."""
    canonical = json.dumps(
        snapshot_dict, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SnapshotCache:
    """On-disk, content-addressed store of serialized machine snapshots.

    Layout: ``<root>/<key[:2]>/<key>.json`` where *key* is
    :func:`cache_key`'s SHA-256 hex digest.  Each file holds the snapshot
    plus the originating spec description and a ``sha256`` digest of the
    snapshot payload, so the cache directory is self-describing and
    every load is verified end-to-end.  Writes are atomic (temp file +
    ``os.replace``) so concurrent executors never observe torn entries.

    The cache is self-healing: an entry that fails to parse or whose
    digest disagrees with its payload is *quarantined* — renamed to
    ``<key>.json.corrupt`` and counted in ``stats.quarantined`` — so a
    damaged file is inspected once, preserved for forensics, and never
    re-read on subsequent loads (previously it sat in place and was
    re-parsed and re-rejected forever).
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        """Return the file this spec's snapshot lives at (existing or not)."""
        key = cache_key(spec)
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside as ``<name>.corrupt``."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:
            return  # racing loader already moved it; nothing to preserve
        self.stats.quarantined += 1

    def load(self, spec: RunSpec) -> Optional[MachineSnapshot]:
        """Return the verified cached snapshot for *spec*, or ``None``.

        Any damage — unparsable JSON, missing fields, a digest mismatch
        from a torn or bit-rotted write — quarantines the entry and
        reports a miss, so the next sweep re-executes and rewrites it.
        """
        path = self.path_for(spec)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            data = json.loads(text)
            stored_digest = data["sha256"]
            snapshot_dict = data["snapshot"]
            if _snapshot_digest(snapshot_dict) != stored_digest:
                raise ValueError("snapshot payload digest mismatch")
            snapshot = MachineSnapshot.from_dict(snapshot_dict)
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
        snapshot_dict = snapshot.to_dict()
        atomic_write_json(path, {
            "spec": spec.describe(),
            "snapshot": snapshot_dict,
            "sha256": _snapshot_digest(snapshot_dict),
        })
        self.stats.stores += 1
        return path

    def entry_count(self) -> int:
        """Number of snapshot files currently in the cache."""
        return sum(1 for _ in self.root.glob("*/*.json"))


#: Where a sweep result came from.
SOURCE_EXECUTED = "executed"
SOURCE_REPLAYED = "replayed"
SOURCE_MEMORY = "memory"
SOURCE_DISK = "disk"


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
    in chaos runs.  ``streams_generated`` counts the completed runs that
    built their workload stream; the others replayed a trace or a stream
    their worker had already generated.
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

    def counts_by_source(self) -> Dict[str, int]:
        """How many runs were executed vs. served from each cache tier."""
        counts = {
            SOURCE_EXECUTED: 0,
            SOURCE_REPLAYED: 0,
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
        count: a ``keep_going`` sweep where most of the grid failed used
        to report its few disk-served survivors as a high fraction and
        sail through the CLI's ``--min-cache-fraction`` gate.  Failures
        are uncached by definition.
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
    trace_dir:
        Optional directory of recorded v3 blocked traces, one per distinct
        workload stream, named by
        :meth:`~repro.analysis.plan.RunSpec.stream_digest`.  Specs whose
        trace exists are replayed from it instead of regenerating the
        stream; snapshots are bit-identical either way, so results are
        cached under the original (generated) spec identity.
    record_traces:
        With a ``trace_dir``, capture the trace of any spec whose stream
        is not yet recorded before executing it (recording happens in
        the parent process, so pool workers never race on one file).
    retry:
        :class:`~repro.analysis.retrypool.RetryPolicy` applied to each
        uncached run: per-run attempts, exponential backoff and an
        optional per-run wall-clock deadline.  The default retries
        nothing (one attempt, no timeout) — exactly the old behaviour,
        minus the old failure mode of losing sibling results.  A policy
        with ``timeout_s`` forces pool execution even for a single
        pending run, because an inline hang cannot be killed.
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
        trace_dir: Optional[Union[str, Path]] = None,
        record_traces: bool = False,
        retry: Optional[RetryPolicy] = None,
        keep_going: bool = False,
    ) -> None:
        self.workers = max(1, int(workers))
        self.disk_cache = SnapshotCache(cache_dir) if cache_dir else None
        self.trace_dir = Path(trace_dir) if trace_dir else None
        self.record_traces = bool(record_traces)
        self.retry = retry if retry is not None else RetryPolicy()
        self.keep_going = bool(keep_going)
        self._memory: Dict[RunSpec, MachineSnapshot] = {}

    # ------------------------------------------------------------------
    # Single-spec path (ExperimentRunner facade, serve handlers)
    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> MachineSnapshot:
        """Resolve one spec through memory -> disk -> execution.

        Uncached runs go through the same
        :func:`~repro.analysis.retrypool.run_tasks` machinery as
        :meth:`run_plan` — retry/backoff/timeout from the executor's
        ``retry`` policy, the ``sweep.run`` fault site, pool isolation
        when a deadline demands it.  (This path used to call
        :func:`execute_run_spec` directly, so single runs — every facade
        call, every server request — silently got *none* of the fault
        tolerance the sweep path advertised.)  A spec that exhausts its
        attempts raises :class:`~repro.errors.ExecutionError`; an
        interrupt re-raises ``KeyboardInterrupt``.
        """
        cached = self._resolve_cached(spec)
        if cached is not None:
            return cached[0]
        report, _sources = self._execute_pending([spec])
        if report.interrupted:
            raise KeyboardInterrupt
        if 0 not in report.results:
            failure = RunFailure(
                spec,
                report.failures[0].kind,
                report.failures[0].attempts,
                report.failures[0].error,
            )
            raise ExecutionError(
                f"run {spec.workload_name}/{spec.policy} failed permanently "
                f"({failure.kind} after {failure.attempts} attempt(s)): "
                f"{failure.error}",
                failures=[failure],
            )
        snapshot, _duration, _generated = report.results[0]
        self._finish(spec, snapshot)
        return snapshot

    def lookup(self, spec: RunSpec):
        """Probe the cache tiers only; ``(snapshot, source)`` or ``None``.

        Never executes.  This is the warm-tier fast path the serve layer
        answers from before considering coalescing or execution.
        """
        return self._resolve_cached(spec)

    # ------------------------------------------------------------------
    # Trace replay
    # ------------------------------------------------------------------
    def trace_path_for(self, spec: RunSpec) -> Optional[Path]:
        """Where this spec's workload stream is (or would be) recorded."""
        if self.trace_dir is None:
            return None
        return self.trace_dir / trace_file_name(spec)

    def _effective_spec(self, spec: RunSpec) -> RunSpec:
        """Return the spec to actually execute: as-is, or trace-replayed.

        Specs that already carry a trace source are passed through; for
        the rest, an available recorded trace (captured on demand when
        ``record_traces`` is set) turns the run into a replay.
        """
        if spec.trace_source is not None:
            return spec
        path = self.trace_path_for(spec)
        if path is None:
            return spec
        if not path.exists():
            if not self.record_traces:
                return spec
            record_spec_trace(spec, path)
        return spec.with_trace(path)

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
        (once per stream and worker; see :meth:`_execute_pending`).

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

        report, sources = self._execute_pending(pending)
        for index in sorted(report.results):
            snapshot, duration, generated = report.results[index]
            spec = pending[index]
            self._finish(spec, snapshot)
            resolved[spec] = SweepResult(spec, snapshot, sources[index], duration)
            outcome.streams_generated += generated

        outcome.results = [
            resolved[spec] for spec in plan if spec in resolved
        ]
        outcome.failures = [
            RunFailure(pending[f.index], f.kind, f.attempts, f.error)
            for f in report.failures
        ]
        outcome.retries = report.retries
        outcome.timeouts = report.timeouts
        outcome.pool_rebuilds = report.pool_rebuilds
        outcome.interrupted = report.interrupted
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
    def _execute_pending(self, pending: List[RunSpec]):
        """Execute uncached runs; return ``(PoolReport, sources)``.

        Results are keyed by the *original* spec even when execution
        replays a recorded trace: the snapshot is bit-identical, and the
        caches must serve future generated runs of the same spec.
        Scheduling, retries, deadlines and pool recovery all live in
        :func:`repro.analysis.retrypool.run_tasks`.

        Runs are dispatched grouped by stream digest — groups in order of
        first appearance, plan order within a group — so a worker's
        stream memo serves the rest of a group after its first run
        generates the stream.  Each task keeps its index in *pending* (and
        so its ``sweep.run`` fault key), and the report is mapped back to
        those indices.  The memo is cleared before dispatch (forked
        workers start empty) and after it (no stream outlives the call,
        so a re-registered workload is never served a stale one).
        """
        effective = [self._effective_spec(spec) for spec in pending]
        sources = [
            SOURCE_EXECUTED if spec is run_as else SOURCE_REPLAYED
            for spec, run_as in zip(pending, effective)
        ]
        groups: Dict[str, List[int]] = {}
        for index, spec in enumerate(pending):
            groups.setdefault(spec.stream_digest(), []).append(index)
        order = [index for group in groups.values() for index in group]
        _stream_memo.entry = None
        try:
            report = run_tasks(
                [(index, effective[index]) for index in order],
                _run_task,
                policy=self.retry,
                max_workers=self.workers,
                keep_going=self.keep_going,
                keys=[_sweep_fault_key(index, effective[index]) for index in order],
            )
        finally:
            _stream_memo.entry = None
        report.results = {
            order[position]: result for position, result in report.results.items()
        }
        report.failures = [
            replace(failure, index=order[failure.index])
            for failure in report.failures
        ]
        return report, sources

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
