"""Blocked trace replay gate: v3 decode plus chunk-fed simulation bandwidth.

A hit-dominated stream stored as a v3 blocked trace must *decode and
simulate* at ``REPRO_TRACE_BATCHED_MIN_MBPS`` (default 50 MB/s of trace
bytes) through the packed engine's chunk kernel.  The v3 format trades
bytes for bandwidth (fixed-width columns, ~11 B/record), so the gated
quantity is the full replay rate, not raw decode.

With ``REPRO_BENCH_LOG=1`` the replay timing is appended to
``BENCH_trace.json`` at the repo root (with MB/s and the git sha) so the
trace-replay trajectory is visible over time.

Knobs:

* ``REPRO_SKIP_PERF=1``            — skip the (timing-based) gate.
* ``REPRO_TRACE_PERF_RECORDS=N``   — stream length (default 1,000,000;
  CI uses a shorter stream).
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

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_LOG = REPO_ROOT / "BENCH_trace.json"

DEFAULT_RECORDS = 1_000_000
DEFAULT_BATCHED_MIN_MBPS = 50.0


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
