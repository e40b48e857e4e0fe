"""In-process side of the paper-grid benchmark: inputs, set-up, measurement.

``perfbench/run.py`` runs this file in fresh interpreters, with
``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 perfbench/stages.py setup WORKLOAD --seed N --work DIR
    python3 perfbench/stages.py measure WORKLOAD --seed N --seconds S \\
        --trace 0|1 --work DIR

Each invocation prints one JSON object as the last line of its standard
output: set-up prints the per-layer metrics it measured (possibly none).
Inputs are a pure function of the seed: the seed selects one of
:data:`VARIANTS` input variants, and every unit's snapshot is checked
against the digest recorded for that variant in ``expected.json`` (see
``record_expected.py``).  Measured times are normalised for host speed
(``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import repro.system.simulator as simulator_module
from repro.analysis import figures
from repro.analysis.executor import SnapshotCache, SweepExecutor, code_fingerprint
from repro.analysis.experiments import ExperimentRunner
from repro.analysis.plan import ExperimentSettings, full_plan
from repro.analysis.retrypool import RetryPolicy
from repro.system.config import experiment_config
from repro.system.fastcore import ENGINES, resolve_engine
from repro.system.simulator import Simulator, simulate
from repro.trace.binary import write_trace_v3
from repro.trace.io import read_trace_chunks
from repro.trace.record import AccessRecord, AccessType

from hostspeed import BackgroundSampler, Calibration
from tracer import Tracer

#: Number of input variants; a seed selects variant ``seed % VARIANTS``.
VARIANTS = 16
#: Pool size of the pooled executors (the paper grid's ``--workers 2``).
POOL_WORKERS = 2
#: Per-spec deadline of the pooled grid, so that a hung spec is counted
#: as a timed-out unit; a healthy spec takes well under a second.
RUN_TIMEOUT_S = 60.0

#: Default ``ExperimentSettings`` of the paper grid, spelled out so that
#: no environment override can change them.
PAPER_SCALE = 8
PAPER_ACCESSES = 20_000
PAPER_MP_ACCESSES = 8_000
#: paper-warm fills its cache at a short access count: a cached snapshot
#: has the same shape at any access count, so load cost does not depend
#: on it, and set-up stays a few seconds instead of a full cold grid.
WARM_ACCESSES = 100
#: paper-warm's wall_s is the host time of this many passes.
WARM_BATCH_PASSES = 100
#: Passes of the traced paper-warm run.
WARM_TRACED_PASSES = 50
#: Calibration bursts after each hits-replay replay, and the interval of
#: the bursts sampled while paper-cold's pool runs.
BURSTS_PER_REPLAY = 8
COLD_SAMPLE_INTERVAL_S = 0.3

#: hits-replay trace: 16 threads, each reading and writing a private
#: 16 KiB region (half of Table I's 32 kB L1), so after the first touch
#: of each line nearly every access hits in L1.
HIT_RECORDS = 1_000_000
HIT_THREADS = 16
HIT_LINES_PER_THREAD = 256
HIT_WRITE_FRACTION = 0.3
HIT_BASE = 0x1000_0000
HIT_REGION_STRIDE = 1 << 20
LINE_SIZE = 64
#: Machine configs each replay pass runs: both policies at two
#: probe-filter sizes, full-size Table I caches (scale 1).
REPLAY_CONFIGS = (
    ("baseline", 512 * 1024),
    ("allarm", 512 * 1024),
    ("baseline", 128 * 1024),
    ("allarm", 128 * 1024),
)

#: Guards that each workload still has the shape it was chosen for.
HIT_MAX_RESIDUE = 0.02
COLD_MIN_L2_MISS_SHARE = 0.5
COLD_STREAMS_AND_SPECS = (12, 72)
#: The traced run's layer seconds must cover its wall time this closely.
COVERAGE_TOLERANCE = 0.05

EXPECTED_PATH = Path(__file__).with_name("expected.json")


class GuardError(RuntimeError):
    """A workload lost the shape it was chosen for, or tracing lost time."""


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def variant_of(seed: int) -> int:
    return seed % VARIANTS


def paper_settings(variant: int) -> ExperimentSettings:
    return ExperimentSettings(
        scale=PAPER_SCALE,
        accesses=PAPER_ACCESSES,
        multiprocess_accesses=PAPER_MP_ACCESSES,
        seed=variant,
    )


def warm_settings(variant: int) -> ExperimentSettings:
    return ExperimentSettings(
        scale=PAPER_SCALE,
        accesses=WARM_ACCESSES,
        multiprocess_accesses=WARM_ACCESSES,
        seed=variant,
    )


def hit_records(variant: int):
    """The hits-replay access stream of *variant* (round-robin threads)."""
    rng = random.Random(f"perfbench-hits-{variant}")
    read, write = AccessType.READ, AccessType.WRITE
    for index in range(HIT_RECORDS):
        core = index % HIT_THREADS
        skew = rng.random()
        line = int(skew * skew * HIT_LINES_PER_THREAD)
        word = (index // HIT_THREADS) % 8
        vaddr = HIT_BASE + core * HIT_REGION_STRIDE + line * LINE_SIZE + word * 8
        kind = write if rng.random() < HIT_WRITE_FRACTION else read
        yield AccessRecord(core, vaddr, kind)


def replay_engine() -> str:
    """The engine that replays columnar chunks, else the default engine."""
    return "batched" if "batched" in ENGINES else resolve_engine(None)


def replay_key(policy: str, pf_size: int) -> str:
    return f"{policy}/{pf_size}"


def replay_config(policy: str, pf_size: int):
    return experiment_config(policy, scale=1, nominal_probe_filter_coverage=pf_size)


def spec_key(spec) -> str:
    return f"{spec.workload_name}/{spec.policy}/{spec.pf_size}"


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def snapshot_digest(snapshot) -> str:
    canonical = json.dumps(snapshot.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def build_figures(runner: ExperimentRunner) -> dict:
    """Every figure and table built from the paper grid."""
    return {
        "figure2": figures.figure2_local_remote(runner),
        "figure3": figures.figure3_comparison(runner),
        "figure3h": figures.figure3h_pf_size_sweep(runner),
        "figure4": figures.figure4_multiprocess(runner),
        "area": figures.area_table(),
    }


def figures_digest(built: dict) -> str:
    rows = {
        name: [dataclasses.asdict(row) for row in table]
        for name, table in built.items()
    }
    canonical = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def load_expected(workload: str, variant: int) -> dict:
    return json.loads(EXPECTED_PATH.read_text())[workload][str(variant)]


class Tally:
    """Units attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def unit(self, error=None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


def check_digest(key: str, snapshot, expected: dict):
    """``None`` when *snapshot* matches the digest expected for *key*."""
    want = expected.get(key)
    got = snapshot_digest(snapshot)
    if got != want:
        return f"{key}: snapshot digest {got} != expected {want}"
    return None


def peak_rss_mb() -> float:
    """Largest peak RSS so far of this process and of its reaped children
    (the pool).

    Runs read it after their first unit of ``wall_s``: the peak of one
    unit is what one invocation of the program would see, and later
    units only add allocator fragmentation, whose amount depends on how
    many units fit in a run.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def wall_result(units) -> dict:
    """``wall_s`` and its host-time parts, from ``(host seconds,
    Calibration)`` per unit of work.

    ``wall_s`` is the median of the units' normalised seconds
    (``hostspeed.py``); ``host_wall_s`` is the median of their host
    seconds and ``host_speed`` the median host speed.
    """
    return {
        "wall_s": statistics.median(c.normalise(seconds) for seconds, c in units),
        "host_wall_s": statistics.median(seconds for seconds, _c in units),
        "host_speed": statistics.median(c.speed for _seconds, c in units),
        "repeats": len(units),
    }


def meta(engine: str) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "engine": engine,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "code_fingerprint": code_fingerprint()[:16],
    }


def check_coverage(layers: dict, covered: float, wall: float) -> None:
    layers["bench.traced_wall_s"] = wall
    layers["bench.layer_coverage"] = covered / wall
    if abs(1.0 - covered / wall) > COVERAGE_TOLERANCE:
        raise GuardError(
            f"layer seconds {covered:.3f} cover {covered / wall:.1%} of the "
            f"traced wall {wall:.3f} s; the spans no longer tile the run"
        )


# ----------------------------------------------------------------------
# paper-cold: the 72-spec grid on a fresh cache, pooled
# ----------------------------------------------------------------------
def setup_cold(variant: int, work: Path) -> dict:
    full_plan(paper_settings(variant))
    return {}


def measure_cold(variant: int, seconds: float, trace: bool, work: Path) -> dict:
    expected = load_expected("paper-cold", variant)
    plan = full_plan(paper_settings(variant))
    tally = Tally()
    walls = []
    first = None
    started = time.perf_counter()
    while True:
        cache_dir = work / "cold-cache"
        shutil.rmtree(cache_dir, ignore_errors=True)
        executor = SweepExecutor(
            workers=POOL_WORKERS, cache_dir=cache_dir, keep_going=True,
            retry=RetryPolicy(timeout_s=RUN_TIMEOUT_S),
        )
        calibration = Calibration()
        with BackgroundSampler(calibration, COLD_SAMPLE_INTERVAL_S):
            begin = time.perf_counter()
            outcome = executor.run_plan(plan)
            wall = time.perf_counter() - begin
        walls.append((wall, calibration))
        if len(walls) == 1:
            rss_mb = peak_rss_mb()
        for failure in outcome.failures:
            tally.unit(f"{spec_key(failure.spec)}: {failure.kind}: {failure.error}")
        for result in outcome.results:
            tally.unit(check_digest(spec_key(result.spec), result.snapshot, expected))
        if first is None:
            first = {
                "wall": wall,
                "duration_sum": sum(r.duration_s for r in outcome.results),
                "speed": calibration.speed,
                "retries": outcome.retries,
                "timeouts": outcome.timeouts,
                "pool_rebuilds": outcome.pool_rebuilds,
            }
        if time.perf_counter() - started + wall > seconds:
            break
    shutil.rmtree(work / "cold-cache", ignore_errors=True)
    result = {
        **wall_result(walls),
        "peak_rss_mb": rss_mb,
        "meta": meta(plan.specs[0].engine),
        **tally.as_dict(),
    }
    if trace:
        result["layers"] = traced_cold(variant, expected, first, work)
    return result


def traced_cold(variant: int, expected: dict, untraced: dict, work: Path) -> dict:
    """Serial in-process grid with a span around every layer call."""
    tracer = Tracer()
    cache_dir = work / "traced-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache = SnapshotCache(cache_dir)
    records = fast = deferred = store_bytes = 0
    l2_misses = l2_accesses = pf_evictions = messages = 0
    mismatches = []
    calibration = Calibration()
    with tracer.wrapping(simulator_module, "collect", "stats.collect"):
        begin = time.perf_counter()
        with tracer.span("analysis.plan.build"):
            plan = full_plan(paper_settings(variant))
        for spec in plan:
            with tracer.span("workloads.generate"):
                if spec.engine == "batched":
                    accesses = list(spec.access_chunks())
                else:
                    accesses = list(spec.access_stream())
            with tracer.span("system.simulate"):
                sim = Simulator(spec.config(), engine=spec.engine)
                run = sim.run(accesses, workload_name=spec.workload_name)
            with tracer.span("analysis.executor.store"):
                path = cache.store(spec, run.snapshot)
            del accesses
            records += run.accesses_simulated
            summary = getattr(sim.machine, "miss_path_summary", dict)()
            fast += summary.get("fast_misses", 0)
            deferred += summary.get("deferred_misses", 0)
            snapshot = run.snapshot
            l2_misses += snapshot.l2_misses
            l2_accesses += snapshot.l2_accesses
            pf_evictions += snapshot.pf_evictions
            messages += snapshot.network_messages
            store_bytes += path.stat().st_size
            error = check_digest(spec_key(spec), snapshot, expected)
            if error:
                mismatches.append(error)
            calibration.sample()
        wall = time.perf_counter() - begin - sum(calibration.bursts)
    shutil.rmtree(cache_dir, ignore_errors=True)
    if mismatches:
        raise GuardError(f"traced grid disagrees with expected: {mismatches[:3]}")

    own = tracer.self_seconds()
    distinct = len({spec.stream_digest() for spec in plan})
    generate_s = own["workloads.generate"]
    simulate_s = own["system.simulate"]
    layers = {
        "workloads.generate_s": generate_s,
        "workloads.records": records,
        "workloads.streams_distinct": distinct,
        "workloads.specs": len(plan),
        "workloads.reuse_ceiling_s": generate_s * (1.0 - distinct / len(plan)),
        "system.simulate_s": simulate_s,
        "system.ns_per_access": simulate_s / records * 1e9,
        "system.fast_misses": fast,
        "system.deferred_misses": deferred,
        "cache.l2_miss_share": l2_misses / l2_accesses,
        "core.pf_evictions": pf_evictions,
        "noc.messages": messages,
        "stats.collect_s": own["stats.collect"],
        "analysis.plan.build_s": own["analysis.plan.build"],
        "analysis.executor.store_s": own["analysis.executor.store"],
        "analysis.executor.store_bytes": store_bytes,
        "analysis.retrypool.dispatch_s": (
            POOL_WORKERS * untraced["wall"] - untraced["duration_sum"]
        ),
        "analysis.retrypool.retries": untraced["retries"],
        "analysis.retrypool.timeouts": untraced["timeouts"],
        "analysis.retrypool.pool_rebuilds": untraced["pool_rebuilds"],
        # The untraced per-spec durations cover generation, simulation
        # and collect; the traced wall adds plan build and stores.
        "bench.tracing_overhead": (
            calibration.normalise(wall)
            / (untraced["duration_sum"] * untraced["speed"]) - 1.0
        ),
    }
    check_coverage(layers, tracer.covered_seconds(), wall)
    if layers["cache.l2_miss_share"] < COLD_MIN_L2_MISS_SHARE:
        raise GuardError(
            f"paper-cold L2 miss share {layers['cache.l2_miss_share']:.3f} "
            f"fell below {COLD_MIN_L2_MISS_SHARE}; the grid is no longer "
            f"miss-heavy"
        )
    if (distinct, len(plan)) != COLD_STREAMS_AND_SPECS:
        raise GuardError(
            f"paper-cold has {distinct} distinct streams over {len(plan)} "
            f"specs, expected {COLD_STREAMS_AND_SPECS}"
        )
    return layers


# ----------------------------------------------------------------------
# paper-warm: fresh executor on a warm cache, run_plan, every figure
# ----------------------------------------------------------------------
def setup_warm(variant: int, work: Path) -> dict:
    cache_dir = work / "warm-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    executor = SweepExecutor(workers=POOL_WORKERS, cache_dir=cache_dir)
    executor.run_plan(full_plan(warm_settings(variant)))
    return {}


def warm_pass(settings: ExperimentSettings, cache_dir: Path, tracer=None):
    """One regenerate-the-figures pass; spans only when *tracer* is given."""
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with span("analysis.plan.build"):
        plan = full_plan(settings)
    with span("analysis.executor.run_plan"):
        executor = SweepExecutor(workers=POOL_WORKERS, cache_dir=cache_dir)
        outcome = executor.run_plan(plan)
    with span("analysis.figures.build"):
        built = build_figures(ExperimentRunner(settings, executor))
    return executor, outcome, built


class WarmCheck:
    """Checks paper-warm passes against the expected digests.

    The first pass that matches becomes the reference; later passes are
    compared with it field for field, which is exact and much cheaper
    than hashing 72 snapshots again.
    """

    def __init__(self, expected: dict) -> None:
        self.expected = expected
        self.reference = None

    def __call__(self, outcome, built):
        """``None`` when the pass served every spec from disk and built
        the expected snapshots and figures, else the reason."""
        snapshots = {spec_key(r.spec): r.snapshot for r in outcome.results}
        sources = {result.source for result in outcome.results}
        if len(snapshots) != len(self.expected["snapshots"]) or sources != {"disk"}:
            return f"pass served {len(snapshots)} specs from {sorted(sources)}"
        if self.reference is not None:
            if (snapshots, built) != self.reference:
                return "pass differs from the first verified pass"
            return None
        for key, snapshot in snapshots.items():
            error = check_digest(key, snapshot, self.expected["snapshots"])
            if error:
                return error
        got = figures_digest(built)
        if got != self.expected["figures"]:
            return f"figures digest {got} != expected {self.expected['figures']}"
        self.reference = (snapshots, built)
        return None


def measure_warm(variant: int, seconds: float, trace: bool, work: Path) -> dict:
    expected = load_expected("paper-warm", variant)
    settings = warm_settings(variant)
    cache_dir = work / "warm-cache"
    check = WarmCheck(expected)
    tally = Tally()
    batches = []
    disk_hits = disk_attempts = 0
    started = time.perf_counter()
    while True:
        batch = 0.0
        calibration = Calibration()
        for _ in range(WARM_BATCH_PASSES):
            begin = time.perf_counter()
            try:
                executor, outcome, built = warm_pass(settings, cache_dir)
                error = None
            except Exception as exc:  # a failed pass is a failed unit
                error = f"pass raised {type(exc).__name__}: {exc}"
            batch += time.perf_counter() - begin
            if error is None:
                error = check(outcome, built)
                stats = executor.disk_cache.stats
                disk_hits += stats.hits
                disk_attempts += stats.hits + stats.misses
            tally.unit(error)
            calibration.sample()
        batches.append((batch, calibration))
        if len(batches) == 1:
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(batches) > seconds:
            break
    result = {
        **wall_result(batches),
        "peak_rss_mb": rss_mb,
        "meta": meta(resolve_engine(None)),
        **tally.as_dict(),
    }
    if trace:
        result["layers"] = traced_warm(
            settings, cache_dir, check, result["wall_s"] / WARM_BATCH_PASSES,
            disk_hits / disk_attempts,
        )
    return result


_IMPORT_PROBE = """
import time
begin = time.perf_counter()
import repro.__main__
imported = time.perf_counter()
from repro.analysis.executor import code_fingerprint
code_fingerprint()
print(imported - begin, time.perf_counter() - imported)
"""


def fresh_interpreter_costs(repeats: int = 3):
    """Median ``import repro.__main__`` and first ``code_fingerprint()``
    seconds, each measured in a fresh interpreter."""
    imports, fingerprints = [], []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            check=True, capture_output=True, text=True, timeout=60,
        ).stdout.split()
        imports.append(float(out[0]))
        fingerprints.append(float(out[1]))
    return statistics.median(imports), statistics.median(fingerprints)


def traced_warm(settings, cache_dir: Path, check: WarmCheck,
                untraced_pass_s: float, disk_hit_share: float) -> dict:
    """50 passes with spans; *untraced_pass_s* is normalised seconds."""
    tracer = Tracer()
    calibration = Calibration()
    wall = 0.0
    with tracer.wrapping(SnapshotCache, "load", "analysis.executor.load"):
        for _ in range(WARM_TRACED_PASSES):
            begin = time.perf_counter()
            executor, outcome, built = warm_pass(settings, cache_dir, tracer)
            wall += time.perf_counter() - begin
            error = check(outcome, built)
            if error:
                raise GuardError(f"traced pass disagrees with expected: {error}")
            calibration.sample()
    load_bytes = sum(
        executor.disk_cache.path_for(result.spec).stat().st_size
        for result in outcome.results
    )
    own = tracer.self_seconds()
    import_s, fingerprint_s = fresh_interpreter_costs()
    layers = {
        "analysis.plan.build_s": own["analysis.plan.build"],
        "analysis.executor.run_plan_s": own["analysis.executor.run_plan"],
        "analysis.executor.load_s": own["analysis.executor.load"],
        "analysis.executor.load_bytes": load_bytes * WARM_TRACED_PASSES,
        "analysis.executor.disk_hit_share": disk_hit_share,
        "analysis.figures.build_s": own["analysis.figures.build"],
        "main.import_s": import_s,
        "analysis.executor.fingerprint_s": fingerprint_s,
        "bench.tracing_overhead": (
            calibration.normalise(wall / WARM_TRACED_PASSES) / untraced_pass_s - 1.0
        ),
    }
    check_coverage(layers, tracer.covered_seconds(), wall)
    if disk_hit_share != 1.0:
        raise GuardError(
            f"paper-warm disk hit share {disk_hit_share} is not 1.0; passes "
            f"are simulating instead of loading"
        )
    return layers


# ----------------------------------------------------------------------
# hits-replay: one recorded v3 blocked trace, replayed per machine config
# ----------------------------------------------------------------------
def setup_hits(variant: int, work: Path) -> dict:
    path = work / "hits.rpt3"
    records = list(hit_records(variant))
    begin = time.perf_counter()
    count = write_trace_v3(path, records)
    return {
        "trace.write_s": time.perf_counter() - begin,
        "trace.bytes_per_record": path.stat().st_size / count,
    }


def measure_hits(variant: int, seconds: float, trace: bool, work: Path) -> dict:
    expected = load_expected("hits-replay", variant)
    path = work / "hits.rpt3"
    engine = replay_engine()
    configs = [
        (replay_key(policy, size), replay_config(policy, size))
        for policy, size in REPLAY_CONFIGS
    ]
    tally = Tally()
    passes = []
    started = time.perf_counter()
    while True:
        elapsed_pass = 0.0
        calibration = Calibration()
        for key, config in configs:
            # Earlier replays leave their machines as cyclic garbage.
            # Collecting it first makes every replay start from the same
            # heap, as a separate `trace replay` invocation would, so
            # peak RSS does not depend on how many replays fit in a run.
            gc.collect()
            begin = time.perf_counter()
            try:
                run = simulate(config, read_trace_chunks(path), engine=engine)
                error = None
            except Exception as exc:  # a failed replay is a failed unit
                error = f"{key}: replay raised {type(exc).__name__}: {exc}"
            elapsed_pass += time.perf_counter() - begin
            tally.unit(error or check_digest(key, run.snapshot, expected))
            for _ in range(BURSTS_PER_REPLAY):
                calibration.sample()
        passes.append((elapsed_pass, calibration))
        if len(passes) == 1:
            rss_mb = peak_rss_mb()
        if time.perf_counter() - started + elapsed_pass > seconds:
            break
    result = {
        **wall_result(passes),
        "peak_rss_mb": rss_mb,
        "meta": meta(engine),
        **tally.as_dict(),
    }
    if trace:
        result["layers"] = traced_hits(path, engine, configs, expected,
                                       result["wall_s"])
    return result


def traced_hits(path: Path, engine: str, configs, expected: dict,
                untraced_pass_s: float) -> dict:
    """One traced pass; *untraced_pass_s* is normalised seconds."""
    tracer = Tracer()
    calibration = Calibration()
    accesses = bulk_hits = residue = l2_misses = l2_accesses = 0
    wall = 0.0
    with tracer.wrapping(simulator_module, "collect", "stats.collect"):
        for key, config in configs:
            gc.collect()  # as in the untraced replays
            begin = time.perf_counter()
            with tracer.span("trace.decode"):
                chunks = list(read_trace_chunks(path))
            with tracer.span("system.simulate"):
                sim = Simulator(config, engine=engine)
                run = sim.run(chunks)
            wall += time.perf_counter() - begin
            del chunks
            error = check_digest(key, run.snapshot, expected)
            if error:
                raise GuardError(f"traced replay disagrees with expected: {error}")
            summary = getattr(sim.machine, "batch_summary", dict)()
            accesses += run.accesses_simulated
            bulk_hits += summary.get("bulk_hits", 0)
            residue += summary.get("residue", 0) + summary.get("fallback_accesses", 0)
            l2_misses += run.snapshot.l2_misses
            l2_accesses += run.snapshot.l2_accesses
            for _ in range(BURSTS_PER_REPLAY):
                calibration.sample()
    own = tracer.self_seconds()
    decode_s = own["trace.decode"]
    simulate_s = own["system.simulate"]
    trace_bytes = path.stat().st_size * len(configs)
    layers = {
        "trace.decode_s": decode_s,
        "trace.decode_mb_s": trace_bytes / decode_s / 1e6,
        "system.simulate_s": simulate_s,
        "system.ns_per_access": simulate_s / accesses * 1e9,
        "system.bulk_hits": bulk_hits,
        "system.residue_ratio": residue / accesses,
        "cache.l2_miss_share": l2_misses / l2_accesses,
        "stats.collect_s": own["stats.collect"],
        "bench.tracing_overhead": calibration.normalise(wall) / untraced_pass_s - 1.0,
    }
    check_coverage(layers, tracer.covered_seconds(), wall)
    if layers["system.residue_ratio"] > HIT_MAX_RESIDUE:
        raise GuardError(
            f"hits-replay residue ratio {layers['system.residue_ratio']:.4f} "
            f"exceeds {HIT_MAX_RESIDUE}; the trace is no longer hit-dominated"
        )
    return layers


# ----------------------------------------------------------------------
SETUPS = {
    "paper-cold": setup_cold,
    "paper-warm": setup_warm,
    "hits-replay": setup_hits,
}
MEASURES = {
    "paper-cold": measure_cold,
    "paper-warm": measure_warm,
    "hits-replay": measure_hits,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("setup", "measure"))
    parser.add_argument("workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    variant = variant_of(args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    if args.stage == "setup":
        result = SETUPS[args.workload](variant, args.work)
    else:
        result = MEASURES[args.workload](
            variant, args.seconds, bool(args.trace), args.work
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
