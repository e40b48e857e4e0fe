"""Serve gate: the cache-front server under concurrent duplicate load.

Hosts one :class:`~repro.serve.server.SweepServer` on an ephemeral port
over a throwaway cache and drives it with the load generator in two
phases:

* **cold burst** — many concurrent clients all requesting the same few
  specs; the coalescer must collapse the duplicates so the server
  executes each distinct spec exactly **once**, and every response's
  snapshot must hash identically (the serve layer's bit-identity
  contract);
* **warm sweep** — the same requests again; everything must come from
  the cache tiers with **zero** further executions.

With ``REPRO_BENCH_LOG=1`` both phases append a ``bench:"serve"`` entry
(throughput, p50/p99 latency, coalesced/warm-hit counts) to
``BENCH_serve.json`` so the service's performance trajectory is visible
across PRs.

Knobs:

* ``REPRO_SKIP_PERF=1``           — skip this module (coverage/chaos runs
  would only pollute the latency trajectory).
* ``REPRO_SERVE_BENCH_REQUESTS=N`` — requests per phase (default 24).
* ``REPRO_SERVE_BENCH_CLIENTS=N``  — concurrent clients (default 8).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.benchlog import append_bench_entry
from repro.analysis.executor import SweepExecutor
from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.serve import BackgroundServer, SweepServer, run_load
from repro.stats.compare import snapshot_diff
from repro.stats.snapshot import MachineSnapshot

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_LOG = REPO_ROOT / "BENCH_serve.json"

DEFAULT_REQUESTS = 24
DEFAULT_CLIENTS = 8

#: Small but not trivial: large enough that an execution visibly beats a
#: cache read, small enough that the bench stays seconds, not minutes.
SETTINGS = ExperimentSettings(scale=16, accesses=4000, multiprocess_accesses=2000)


def _specs():
    return [
        RunSpec("barnes", "allarm", settings=SETTINGS),
        RunSpec("hotspot", "baseline", settings=SETTINGS),
    ]


def _entry(phase, report):
    return {
        "bench": "serve",
        "phase": phase,
        "requests": report.requests,
        "concurrency": report.concurrency,
        "distinct_specs": report.distinct_specs,
        "executed": report.executed,
        "coalesced": report.coalesced,
        "warm_hits": report.warm_hits,
        "throughput_rps": round(report.throughput_rps, 2),
        "p50_ms": round(report.p50_ms, 3),
        "p99_ms": round(report.p99_ms, 3),
    }


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1 disables timing-based gates",
)
def test_serve_coalescing_under_load(tmp_path):
    requests = int(os.environ.get("REPRO_SERVE_BENCH_REQUESTS", DEFAULT_REQUESTS))
    clients = int(os.environ.get("REPRO_SERVE_BENCH_CLIENTS", DEFAULT_CLIENTS))
    specs = _specs()
    direct = {spec.digest(): SweepExecutor().run(spec) for spec in specs}

    server = SweepServer(
        executor=SweepExecutor(cache_dir=tmp_path / "cache"), parallel=4
    )
    with BackgroundServer(server):
        cold = run_load(
            server.host, server.port, specs,
            requests=requests, concurrency=clients,
        )
        warm = run_load(
            server.host, server.port, specs,
            requests=requests, concurrency=clients,
        )

    print(
        f"\ncold: {cold.ok} ok @ {cold.throughput_rps:.1f} req/s "
        f"(p50 {cold.p50_ms:.1f}ms, p99 {cold.p99_ms:.1f}ms) — "
        f"{cold.executed} executed, {cold.coalesced} coalesced, "
        f"{cold.warm_hits} warm"
    )
    print(
        f"warm: {warm.ok} ok @ {warm.throughput_rps:.1f} req/s "
        f"(p50 {warm.p50_ms:.1f}ms, p99 {warm.p99_ms:.1f}ms) — "
        f"{warm.executed} executed, {warm.warm_hits} warm"
    )

    # Cold phase: exactly one execution per distinct spec; every
    # duplicate either coalesced onto the in-flight run or arrived
    # after completion and hit the warm tier.
    assert cold.ok == requests and cold.errors == 0
    assert cold.executed == len(specs)
    assert cold.coalesced + cold.warm_hits == requests - len(specs)
    assert cold.bit_identical()
    for digest, digests in cold.snapshot_digests.items():
        assert len(digests) == 1
    # Responses are bit-identical to direct executor runs (the server
    # adds transport, not noise).
    assert set(cold.snapshot_digests) == set(direct)

    # Warm phase: zero executions, everything from the cache tiers.
    assert warm.ok == requests and warm.errors == 0
    assert warm.executed == 0 and warm.coalesced == 0
    assert warm.warm_hits == requests
    assert warm.bit_identical()
    assert warm.snapshot_digests == cold.snapshot_digests

    append_bench_entry(BENCH_LOG, _entry("cold", cold), repo_root=REPO_ROOT)
    append_bench_entry(BENCH_LOG, _entry("warm", warm), repo_root=REPO_ROOT)


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF") == "1",
    reason="REPRO_SKIP_PERF=1 disables timing-based gates",
)
def test_serve_responses_match_direct_execution(tmp_path):
    """Transport-level bit-identity: wire snapshot == in-process snapshot."""
    from repro.serve import ServeClient

    spec = _specs()[0]
    direct = SweepExecutor().run(spec)
    server = SweepServer(executor=SweepExecutor(cache_dir=tmp_path / "cache"))
    with BackgroundServer(server):
        with ServeClient(server.host, server.port) as client:
            response = client.run(spec)
    rebuilt = MachineSnapshot.from_dict(response.snapshot)
    assert snapshot_diff(direct, rebuilt) == []
