"""Binary trace format gate: size and replay-speed ratios over text.

Generates a workload stream (1M records by default), writes it in both
trace formats and asserts the v2 binary format's contract:

* the binary file is at least **5x smaller** than the text file, and
* replaying (reading back) the binary trace is at least **2x faster**
  than replaying the text trace.

Both assertions are ratios of quantities measured on the same machine in
the same process, so they are robust to host speed; the speed floor can
still be relaxed for noisy shared runners via an environment knob.

Replay timings are appended to ``BENCH_trace.json`` at the repo root
(one entry per format, with MB/s and the git sha) so the trace-replay
trajectory is visible across PRs; disable with ``REPRO_BENCH_LOG=0``.

A second gate covers the **blocked (v3) format + batched (chunk-fed)
replay** as an end-to-end pipeline: a hit-dominated stream stored as a
v3 blocked trace must *decode and simulate* at
``REPRO_TRACE_BATCHED_MIN_MBPS`` (default 50 MB/s of trace bytes)
through the packed engine's chunk kernel.  The v3 format
trades bytes for bandwidth (fixed-width columns, ~11 B/record vs v2's
~2), so the gated quantity is the full replay rate, not raw decode.

Knobs:

* ``REPRO_SKIP_PERF=1``            — skip the (timing-based) speed gate.
* ``REPRO_TRACE_PERF_RECORDS=N``   — approximate stream length
  (default 1,000,000; CI uses a shorter stream).
* ``REPRO_TRACE_MIN_SHRINK=F``     — size-ratio floor (default 5.0).
* ``REPRO_TRACE_MIN_SPEEDUP=F``    — replay-speed floor (default 2.0).
* ``REPRO_TRACE_BATCHED_MIN_MBPS=F`` — blocked-replay floor in MB/s of
  trace bytes through the chunk kernel (default 50.0).
"""

from __future__ import annotations

import gc
import importlib.util
import os
import time
from pathlib import Path

import pytest

from repro.analysis.benchlog import append_bench_entry
from repro.trace.io import FORMAT_BINARY, read_trace, write_trace
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import build_spec

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_LOG = REPO_ROOT / "BENCH_trace.json"

DEFAULT_RECORDS = 1_000_000
DEFAULT_MIN_SHRINK = 5.0
DEFAULT_MIN_SPEEDUP = 2.0
DEFAULT_BATCHED_MIN_MBPS = 50.0


def _stream(record_target: int):
    # total_accesses excludes the init phase, so the stream is slightly
    # longer than the target; that only makes the gate more realistic.
    spec = build_spec("barnes", total_accesses=record_target, seed=11)
    return list(SyntheticWorkload(spec).generate())


@pytest.fixture(scope="module")
def trace_pair(tmp_path_factory):
    records = _stream(int(os.environ.get("REPRO_TRACE_PERF_RECORDS", DEFAULT_RECORDS)))
    root = tmp_path_factory.mktemp("trace-perf")
    text, binary = root / "trace.txt", root / "trace.rpt2"
    write_trace(text, records)
    write_trace(binary, records, format=FORMAT_BINARY)
    return records, text, binary


def test_binary_is_5x_smaller(trace_pair):
    records, text, binary = trace_pair
    min_shrink = float(os.environ.get("REPRO_TRACE_MIN_SHRINK", DEFAULT_MIN_SHRINK))
    shrink = text.stat().st_size / binary.stat().st_size
    print(
        f"\n{len(records)} records: text {text.stat().st_size} B, "
        f"binary {binary.stat().st_size} B — {shrink:.2f}x smaller"
    )
    assert shrink >= min_shrink


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1 disables timing-based gates",
)
def test_binary_replays_2x_faster(trace_pair):
    records, text, binary = trace_pair
    min_speedup = float(os.environ.get("REPRO_TRACE_MIN_SPEEDUP", DEFAULT_MIN_SPEEDUP))

    def timed_read(path):
        # Measure decode speed, not the surrounding suite's heap: collect
        # garbage beforehand and keep the collector out of the timed loop
        # (a million fresh records otherwise trigger generational scans
        # whose cost depends on whatever earlier tests left alive).
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            decoded = list(read_trace(path))
            return decoded, time.perf_counter() - started
        finally:
            gc.enable()

    from_text, text_s = timed_read(text)
    # The comparison is only meaningful if decoding is faithful; check and
    # free before timing binary so both runs see the same live heap.
    assert from_text == records
    del from_text

    from_binary, binary_s = timed_read(binary)
    assert from_binary == records

    speedup = text_s / binary_s
    rate = len(records) / binary_s
    print(
        f"\nreplay of {len(records)} records: text {text_s:.2f}s, "
        f"binary {binary_s:.2f}s — {speedup:.2f}x faster ({rate:,.0f} rec/s)"
    )

    for fmt, path, elapsed in (("text", text, text_s), ("binary", binary, binary_s)):
        size = path.stat().st_size
        append_bench_entry(
            BENCH_LOG,
            {
                "bench": "trace_replay",
                "format": fmt,
                "records": len(records),
                "file_bytes": size,
                "elapsed_s": round(elapsed, 4),
                "records_per_s": round(len(records) / elapsed, 1),
                "mb_per_s": round(size / elapsed / 1_000_000, 3),
                "binary_over_text": round(speedup, 3),
            },
            repo_root=REPO_ROOT,
        )

    assert speedup >= min_speedup


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1 disables timing-based gates",
)
@pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="the blocked-replay gate measures the vector path ([fast] extra)",
)
def test_blocked_trace_batched_replay_bandwidth(tmp_path):
    """v3 blocked decode + chunk-fed simulation must sustain 50 MB/s.

    The stream is hit-dominated (a hot L1-resident line set) because the
    gated quantity is the columnar pipeline — block decode into chunks
    plus the vectorised hit path.  Miss-heavy streams replay at packed
    speed by design and are gated elsewhere.  The machine is built
    outside the timed region (construction is a fixed cost unrelated to
    trace bandwidth); the timed region is exactly decode + simulate.
    """
    from repro.system.config import experiment_config
    from repro.system.simulator import Simulator
    from repro.trace.binary import write_trace_v3
    from repro.trace.io import read_trace_chunks
    from repro.trace.record import CHUNK_RECORDS, AccessRecord, AccessType

    record_count = int(os.environ.get("REPRO_TRACE_PERF_RECORDS", DEFAULT_RECORDS))
    min_mbps = float(
        os.environ.get("REPRO_TRACE_BATCHED_MIN_MBPS", DEFAULT_BATCHED_MIN_MBPS)
    )
    read = AccessType.READ
    records = [
        AccessRecord(core=0, vaddr=0x2000_0000 + (i % 16) * 64, access_type=read)
        for i in range(record_count)
    ]
    path = tmp_path / "hot.rpt3"
    write_trace_v3(path, records)
    del records
    file_bytes = path.stat().st_size

    best_elapsed = float("inf")
    machine = None
    result = None
    for _ in range(3):
        simulator = Simulator(
            experiment_config("baseline", scale=16), engine="packed"
        )
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = simulator.run(read_trace_chunks(path), "blocked-replay")
            best_elapsed = min(best_elapsed, time.perf_counter() - started)
        finally:
            gc.enable()
        machine = simulator.machine

    assert result.accesses_simulated == record_count
    mbps = file_bytes / best_elapsed / 1_000_000
    rate = record_count / best_elapsed
    residue_ratio = machine.batched_residue_ratio
    print(
        f"\nblocked replay of {record_count} records ({file_bytes} B): "
        f"{best_elapsed:.2f}s — {mbps:.1f} MB/s, {rate:,.0f} rec/s "
        f"(residue {residue_ratio:.4f})"
    )

    append_bench_entry(
        BENCH_LOG,
        {
            "bench": "trace_replay",
            "format": "blocked",
            "engine": "packed",
            "feed": "chunks",
            "records": record_count,
            "file_bytes": file_bytes,
            "elapsed_s": round(best_elapsed, 4),
            "records_per_s": round(rate, 1),
            "mb_per_s": round(mbps, 3),
            "chunk_records": CHUNK_RECORDS,
            "batched_residue_ratio": round(residue_ratio, 6),
        },
        repo_root=REPO_ROOT,
    )

    assert mbps >= min_mbps, (
        f"blocked replay through the chunk kernel sustained {mbps:.1f} MB/s, "
        f"below the {min_mbps:.1f} MB/s gate"
    )
