"""Hot-path perf gates for both simulation engines, with a persisted trajectory.

Replays a hit-dominated trace (a handful of hot lines, all L1 hits after
warm-up) on the **reference** and the **packed** engine, then asserts:

* both engines produce the bit-identical snapshot (a free cross-engine
  check on exactly the workload shape the packed fast path optimises);
* the packed engine sustains at least ``REPRO_PERF_MIN_RATE`` accesses/s
  (an absolute regression floor, generous for machine noise); and
* the packed engine is at least ``REPRO_PERF_MIN_RATIO`` times faster
  than the reference engine measured in the same session — a pure
  ratio, robust to host speed, which is the CI perf-regression gate.

Every measurement is appended to ``BENCH_hotpath.json`` at the repo root
(see :mod:`repro.analysis.benchlog`), one entry per engine with the git
sha, so the accesses/s trajectory is visible across PRs and uploadable
as a CI artifact.

History: the seed implementation reached ~225k accesses/s on the
reference container, PR 1's fast path ~340k/s, and the packed engine of
PR 3 ~1.0M/s.

A second gate covers the **miss path**: the miss-heavy micro families
(false-sharing, migratory, hotspot) replay on both engines and the
packed engine must hold at least ``REPRO_PERF_MISS_MIN_RATIO`` (default
2.0x) on every family — the workloads that degenerated to reference
speed before the packed directory fast path existed.  Each family/engine
measurement is appended to the same trajectory with ``bench:
"miss_path"``.

A third gate covers the **structural path**: eviction-heavy
configurations (a starved probe filter under the baseline policy, so
almost every allocation evicts and fans out invalidations) replay on
both engines; the packed engine must hold
``REPRO_PERF_STRUCTURAL_MIN_RATIO`` (default 2.0x; measured ~3.5x) per
family — before the packed structural path these runs fell back to the
reference machinery wholesale and sat at ~1x.  Entries land in the
trajectory with ``bench: "structural_path"``.

A fourth gate covers **batched (chunk-fed) replay**: the same
hit-dominated trace, pre-packed into columnar chunks outside the timed
region (the shape the blocked-trace decoder delivers), fed to the packed
engine's chunk kernel, must replay at least
``REPRO_PERF_BATCHED_MIN_RATIO`` (default 10x) faster than the
reference engine and ``REPRO_PERF_BATCHED_PACKED_MIN_RATIO`` (default
3x) faster than the packed engine, with a residue ratio under 10%.
Entries land in the trajectory with ``bench: "batched"`` carrying the
chunk size and residue ratio; a companion (ungated) sweep reports the
residue ratio of every micro family — the registered families are all
miss-heavy at experiment scale, so their ratios document where the
vector path cannot help rather than gate it.

Every ratio gate interleaves its engines: each round replays every
engine (or feed) once, and the gate compares the per-engine best
times.  A slow stretch of the host therefore lands on all engines
alike instead of on one engine's block of repeats.

Knobs:

* ``REPRO_SKIP_PERF=1``            — skip entirely (for slow/shared CI hosts).
* ``REPRO_PERF_MIN_RATE=N``        — packed accesses/second floor (default 100k).
* ``REPRO_PERF_MIN_RATIO=F``       — packed/reference hot-path ratio floor
  (default 2.5; the tentpole target is 3x).
* ``REPRO_PERF_MISS_MIN_RATIO=F``  — packed/reference miss-path ratio floor
  per miss-heavy family (default 2.0).
* ``REPRO_PERF_STRUCTURAL_MIN_RATIO=F`` — packed/reference ratio floor per
  eviction-heavy family (default 2.0).
* ``REPRO_PERF_BATCHED_MIN_RATIO=F`` — chunk-fed/reference hot-path
  ratio floor (default 10.0).
* ``REPRO_PERF_BATCHED_PACKED_MIN_RATIO=F`` — chunk-fed/record-fed packed
  hot-path ratio floor (default 3.0).
* ``REPRO_PERF_ACCESSES=N``        — override the hot-path trace length.
* ``REPRO_PERF_MISS_ACCESSES=N``   — override the per-family miss trace length.
* ``REPRO_PERF_STRUCTURAL_ACCESSES=N`` — override the per-family
  eviction-heavy trace length.
* ``REPRO_BENCH_LOG=0``            — do not append to BENCH_hotpath.json.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import time
from pathlib import Path

import pytest

from repro.analysis.benchlog import append_bench_entry
from repro.stats.compare import assert_snapshots_identical
from repro.system.config import experiment_config
from repro.system.simulator import Simulator
from repro.trace.record import CHUNK_RECORDS, AccessRecord, AccessType

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1 disables the hot-path perf guard",
)

#: Generous absolute floor (accesses/second) for the packed engine.
DEFAULT_MIN_RATE = 100_000.0
#: Packed/reference speed ratio floor (the CI perf-regression gate).
DEFAULT_MIN_RATIO = 2.5
#: Packed/reference ratio floor on each miss-heavy family.
DEFAULT_MISS_MIN_RATIO = 2.0
#: The families whose misses the packed directory fast path targets.
MISS_HEAVY_FAMILIES = ("false-sharing", "migratory", "hotspot")
#: Packed/reference ratio floor on each eviction-heavy configuration.
DEFAULT_STRUCTURAL_MIN_RATIO = 2.0
#: Families for the structural gate: run under the baseline policy with a
#: starved probe filter, so almost every allocation evicts and fans out.
STRUCTURAL_FAMILIES = ("stream-scan", "hotspot")
#: Nominal probe-filter coverage for the structural gate (scaled /16 at
#: run time: 2 kB of actual coverage — constant thrash).
STRUCTURAL_PF_SIZE = 32 * 1024
#: Hot-set size in lines; fits the L1 so steady state is all hits.
HOT_LINES = 16
LINE_SIZE = 64
BASE_VADDR = 0x2000_0000

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_LOG = REPO_ROOT / "BENCH_hotpath.json"


def _hit_dominated_trace(access_count: int):
    read = AccessType.READ
    return [
        AccessRecord(
            core=0,
            vaddr=BASE_VADDR + (index % HOT_LINES) * LINE_SIZE,
            access_type=read,
        )
        for index in range(access_count)
    ]


def _interleaved_runs(config, feeds, label: str, repeats: int):
    """Best-of-*repeats* replay per feed, the feeds' repeats interleaved.

    *feeds* maps a name to ``(engine, source)``; each round replays every
    feed once, in order.  Best-of-N suppresses one-off scheduler and
    frequency noise — the quantity being gated is the engine's
    attainable rate, not the host's worst moment — and interleaving
    keeps a slow stretch of the host from landing on one engine only.
    Simulators are single-use, so each repeat builds one; construction
    and collecting the previous run's garbage stay outside the timed
    region.  Returns ``{name: (result, best_elapsed_s, machine)}`` with
    the last repeat's result and machine.
    """
    best = dict.fromkeys(feeds, float("inf"))
    last = {}
    for _ in range(repeats):
        for name, (engine, source) in feeds.items():
            simulator = Simulator(config, engine=engine)
            gc.collect()
            started = time.perf_counter()
            result = simulator.run(source, label)
            best[name] = min(best[name], time.perf_counter() - started)
            last[name] = (result, simulator.machine)
    return {name: (last[name][0], best[name], last[name][1]) for name in feeds}


def _hot_path_runs(trace, chunks=None):
    """Interleaved hot-path runs: reference and packed, plus chunk feed."""
    feeds = {"reference": ("reference", trace), "packed": ("packed", trace)}
    if chunks is not None:
        feeds["batched"] = ("packed", chunks)
    return _interleaved_runs(
        experiment_config("baseline", scale=16), feeds, "hot-path-guard", repeats=3
    )


def test_packed_hot_path_rate_and_ratio():
    access_count = int(os.environ.get("REPRO_PERF_ACCESSES", "200000"))
    min_rate = float(os.environ.get("REPRO_PERF_MIN_RATE", str(DEFAULT_MIN_RATE)))
    min_ratio = float(os.environ.get("REPRO_PERF_MIN_RATIO", str(DEFAULT_MIN_RATIO)))

    trace = _hit_dominated_trace(access_count)
    runs = _hot_path_runs(trace)
    reference_result, reference_s, _ = runs["reference"]
    packed_result, packed_s, _ = runs["packed"]

    assert reference_result.accesses_simulated == access_count
    assert packed_result.accesses_simulated == access_count
    # Steady state must be hit-dominated, otherwise the rate measures the
    # coherence path rather than the fast path.
    assert packed_result.snapshot.l2_misses < access_count // 100
    # The engines must agree bit-for-bit on this trace.
    assert_snapshots_identical(
        reference_result.snapshot, packed_result.snapshot, context="hot-path"
    )

    reference_rate = access_count / reference_s
    packed_rate = access_count / packed_s
    ratio = packed_rate / reference_rate
    print(
        f"\nhot path: reference {reference_rate:,.0f}/s, "
        f"packed {packed_rate:,.0f}/s — {ratio:.2f}x"
    )

    for engine, rate, elapsed in (
        ("reference", reference_rate, reference_s),
        ("packed", packed_rate, packed_s),
    ):
        append_bench_entry(
            BENCH_LOG,
            {
                "bench": "hot_path",
                "engine": engine,
                "accesses": access_count,
                "elapsed_s": round(elapsed, 4),
                "accesses_per_s": round(rate, 1),
                "packed_over_reference": round(ratio, 3),
            },
            repo_root=REPO_ROOT,
        )

    assert packed_rate >= min_rate, (
        f"packed hot path sustained {packed_rate:,.0f} accesses/s, below the "
        f"{min_rate:,.0f}/s regression floor"
    )
    assert ratio >= min_ratio, (
        f"packed engine is only {ratio:.2f}x the reference engine on the "
        f"hot path, below the {min_ratio:.2f}x regression gate"
    )


#: Chunk-fed/reference hot-path ratio floor (the batched CI perf gate).
DEFAULT_BATCHED_MIN_RATIO = 10.0
#: Chunk-fed/record-fed packed hot-path ratio floor.
DEFAULT_BATCHED_PACKED_MIN_RATIO = 3.0


@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="the batched ratio gate measures the vector path ([fast] extra)",
)
def test_batched_hot_path_rate_and_ratio():
    """The chunk kernel must carry the hit-dominated path 10x past reference.

    Chunks are pre-packed outside the timed region; the measured replay
    is classification + bulk commits + residue, exactly what a blocked
    trace pays.  Bit-identity with record-fed replay rides along, as
    does the <10% residue requirement — if the
    classifier starts leaking hits into the residue the ratio gate may
    still pass on a fast host, but the residue gate will not.
    """
    from repro.trace.record import chunk_records

    access_count = int(os.environ.get("REPRO_PERF_ACCESSES", "200000"))
    min_ratio = float(
        os.environ.get("REPRO_PERF_BATCHED_MIN_RATIO", str(DEFAULT_BATCHED_MIN_RATIO))
    )
    min_packed_ratio = float(
        os.environ.get(
            "REPRO_PERF_BATCHED_PACKED_MIN_RATIO",
            str(DEFAULT_BATCHED_PACKED_MIN_RATIO),
        )
    )

    trace = _hit_dominated_trace(access_count)
    # Chunks are pre-packed outside the timed region: a blocked (v3)
    # trace decodes straight into these blocks, so per-record Python
    # work is not part of the replayed path being measured.
    runs = _hot_path_runs(trace, chunks=list(chunk_records(trace)))
    reference_result, reference_s, _ = runs["reference"]
    packed_result, packed_s, _ = runs["packed"]
    batched_result, batched_s, machine = runs["batched"]
    assert batched_result.accesses_simulated == access_count

    assert_snapshots_identical(
        packed_result.snapshot, batched_result.snapshot, context="batched-hot-path"
    )
    assert_snapshots_identical(
        reference_result.snapshot, batched_result.snapshot, context="batched-hot-path"
    )
    residue_ratio = machine.batched_residue_ratio
    assert residue_ratio < 0.10, (
        f"batched residue ratio {residue_ratio:.3f} on the hit-dominated "
        f"trace; the vector path is leaking hits into per-access replay"
    )

    reference_rate = access_count / reference_s
    packed_rate = access_count / packed_s
    batched_rate = access_count / batched_s
    ratio = batched_rate / reference_rate
    packed_ratio = batched_rate / packed_rate
    print(
        f"\nbatched hot path: reference {reference_rate:,.0f}/s, "
        f"packed {packed_rate:,.0f}/s, batched {batched_rate:,.0f}/s — "
        f"{ratio:.1f}x reference, {packed_ratio:.1f}x packed "
        f"(residue {residue_ratio:.4f})"
    )

    append_bench_entry(
        BENCH_LOG,
        {
            "bench": "batched",
            "family": "hot-path",
            "engine": "packed",
            "feed": "chunks",
            "accesses": access_count,
            "elapsed_s": round(batched_s, 4),
            "accesses_per_s": round(batched_rate, 1),
            "chunk_records": CHUNK_RECORDS,
            "batched_residue_ratio": round(residue_ratio, 6),
            "batched_over_reference": round(ratio, 3),
            "batched_over_packed": round(packed_ratio, 3),
        },
        repo_root=REPO_ROOT,
    )

    assert ratio >= min_ratio, (
        f"chunk-fed replay is only {ratio:.2f}x the reference engine on "
        f"the hot path, below the {min_ratio:.2f}x regression gate"
    )
    assert packed_ratio >= min_packed_ratio, (
        f"chunk-fed replay is only {packed_ratio:.2f}x record-fed packed "
        f"replay on the hot path, below the {min_packed_ratio:.2f}x "
        f"regression gate"
    )


def test_batched_residue_ratio_per_family():
    """Report (not gate) the residue ratio of every micro family.

    At experiment scale every registered family is miss-heavy (50-70%
    L2 misses), so their residue ratios sit near 1.0 by design — the
    entries document that the kernel correctly recognises streams it
    cannot vectorise instead of thrashing on them.  The bulk-path claim
    is gated by the hit-dominated test above.
    """
    from repro.analysis.plan import ExperimentSettings, RunSpec
    from repro.trace.record import chunk_records

    settings = ExperimentSettings(
        scale=16, accesses=20000, multiprocess_accesses=10000, seed=0
    )
    for family in MISS_HEAVY_FAMILIES:
        spec = RunSpec(family, "allarm", settings=settings)
        chunks = list(chunk_records(spec.access_stream()))
        simulator = Simulator(spec.config(), engine="packed")
        started = time.perf_counter()
        result = simulator.run(chunks, family)
        elapsed = time.perf_counter() - started
        machine = simulator.machine
        ratio = machine.batched_residue_ratio
        assert 0.0 <= ratio <= 1.0
        rate = result.accesses_simulated / elapsed
        print(f"\nbatched [{family}]: {rate:,.0f}/s, residue {ratio:.3f}")
        append_bench_entry(
            BENCH_LOG,
            {
                "bench": "batched",
                "family": family,
                "engine": "packed",
                "feed": "chunks",
                "accesses": result.accesses_simulated,
                "elapsed_s": round(elapsed, 4),
                "accesses_per_s": round(rate, 1),
                "chunk_records": CHUNK_RECORDS,
                "batched_residue_ratio": round(ratio, 6),
            },
            repo_root=REPO_ROOT,
        )


def _family_runs(config, records):
    """Interleaved reference/packed best-of-2 replay of a family stream."""
    runs = _interleaved_runs(
        config,
        {"reference": ("reference", records), "packed": ("packed", records)},
        "miss-path-guard",
        repeats=2,
    )
    return runs["reference"], runs["packed"]


def test_packed_miss_path_rate_and_ratio():
    """Miss-heavy families: packed must beat reference on its miss path.

    Before the packed directory fast path these families fell back to
    the reference machinery on (almost) every access and the in-session
    ratio sat near 1x; the gate pins the recovered speedup per family
    and verifies the fast path actually carried the misses.
    """
    from repro.analysis.plan import ExperimentSettings, RunSpec

    access_count = int(os.environ.get("REPRO_PERF_MISS_ACCESSES", "30000"))
    min_ratio = float(
        os.environ.get("REPRO_PERF_MISS_MIN_RATIO", str(DEFAULT_MISS_MIN_RATIO))
    )
    settings = ExperimentSettings(
        scale=16, accesses=access_count, multiprocess_accesses=access_count, seed=0
    )

    ratios = {}
    for family in MISS_HEAVY_FAMILIES:
        spec = RunSpec(family, "allarm", settings=settings)
        records = list(spec.access_stream())
        config = spec.config()
        (reference_result, reference_s, _), (packed_result, packed_s, machine) = (
            _family_runs(config, records)
        )

        # The engines must agree bit-for-bit, and the workload must
        # really be miss-heavy.
        assert_snapshots_identical(
            reference_result.snapshot,
            packed_result.snapshot,
            context=f"miss-path/{family}",
        )
        assert packed_result.snapshot.l2_misses > len(records) // 10
        assert machine.transactions_serviced > 0

        reference_rate = len(records) / reference_s
        packed_rate = len(records) / packed_s
        ratio = packed_rate / reference_rate
        ratios[family] = ratio
        print(
            f"\nmiss path [{family}]: reference {reference_rate:,.0f}/s, "
            f"packed {packed_rate:,.0f}/s — {ratio:.2f}x "
            f"(misses={machine.transactions_serviced})"
        )
        for engine, rate, elapsed in (
            ("reference", reference_rate, reference_s),
            ("packed", packed_rate, packed_s),
        ):
            append_bench_entry(
                BENCH_LOG,
                {
                    "bench": "miss_path",
                    "family": family,
                    "engine": engine,
                    "accesses": len(records),
                    "elapsed_s": round(elapsed, 4),
                    "accesses_per_s": round(rate, 1),
                    "packed_over_reference": round(ratio, 3),
                },
                repo_root=REPO_ROOT,
            )

    failing = {f: r for f, r in ratios.items() if r < min_ratio}
    assert not failing, (
        f"packed engine below the {min_ratio:.2f}x miss-path gate on: "
        + ", ".join(f"{f} ({r:.2f}x)" for f, r in failing.items())
    )


def test_packed_structural_path_rate_and_ratio():
    """Eviction-heavy configs: the packed structural path must carry them.

    A starved probe filter under the baseline policy makes almost every
    allocation evict a victim and fan out invalidations — exactly the
    runs that fell back to the reference machinery (and sat near 1x)
    before the packed structural path.  The gate pins the recovered
    speedup per family and requires genuinely eviction-heavy behaviour.
    """
    from repro.analysis.plan import ExperimentSettings, RunSpec

    access_count = int(os.environ.get("REPRO_PERF_STRUCTURAL_ACCESSES", "30000"))
    min_ratio = float(
        os.environ.get(
            "REPRO_PERF_STRUCTURAL_MIN_RATIO", str(DEFAULT_STRUCTURAL_MIN_RATIO)
        )
    )
    settings = ExperimentSettings(
        scale=16, accesses=access_count, multiprocess_accesses=access_count, seed=0
    )

    ratios = {}
    for family in STRUCTURAL_FAMILIES:
        spec = RunSpec(
            family, "baseline", pf_size=STRUCTURAL_PF_SIZE, settings=settings
        )
        records = list(spec.access_stream())
        config = spec.config()
        (reference_result, reference_s, _), (packed_result, packed_s, _) = (
            _family_runs(config, records)
        )

        assert_snapshots_identical(
            reference_result.snapshot,
            packed_result.snapshot,
            context=f"structural-path/{family}",
        )
        # The run must really hammer the structural events.
        assert packed_result.snapshot.pf_evictions > len(records) // 100

        reference_rate = len(records) / reference_s
        packed_rate = len(records) / packed_s
        ratio = packed_rate / reference_rate
        ratios[family] = ratio
        print(
            f"\nstructural path [{family}]: reference {reference_rate:,.0f}/s, "
            f"packed {packed_rate:,.0f}/s — {ratio:.2f}x "
            f"(pf_evictions={packed_result.snapshot.pf_evictions})"
        )
        for engine, rate, elapsed in (
            ("reference", reference_rate, reference_s),
            ("packed", packed_rate, packed_s),
        ):
            append_bench_entry(
                BENCH_LOG,
                {
                    "bench": "structural_path",
                    "family": family,
                    "engine": engine,
                    "accesses": len(records),
                    "elapsed_s": round(elapsed, 4),
                    "accesses_per_s": round(rate, 1),
                    "packed_over_reference": round(ratio, 3),
                },
                repo_root=REPO_ROOT,
            )

    failing = {f: r for f, r in ratios.items() if r < min_ratio}
    assert not failing, (
        f"packed engine below the {min_ratio:.2f}x structural-path gate on: "
        + ", ".join(f"{f} ({r:.2f}x)" for f, r in failing.items())
    )
