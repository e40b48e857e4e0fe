"""Residue-compaction and chunk-protocol tests for batched (chunk-fed) replay.

The packed engine replays a chunk source — columnar
:class:`~repro.trace.record.AccessChunk` batches — through its chunk
kernel (:mod:`repro.system.batchcore`), which vectorises the common case
and replays everything else — the *residue* — through the per-access
packed path.  Its contract is the record path's: bit-identical
snapshots, now at chunk granularity.  This suite attacks the seams of
that contract directly:

* same-set conflict storms *inside one chunk*, where residue accesses
  displace lines the classification already blessed as hits;
* misses placed exactly at chunk boundaries, across a spread of chunk
  sizes including degenerate ones;
* a ``max_accesses`` cap cutting a chunk mid-way;
* the pure-``array`` fallback (numpy handle patched away), the non-LRU
  and non-dyadic bail-outs, and the residue-ratio accounting the benches
  report;
* the input shape choosing the path, and ``"batched"`` no longer being
  an engine name.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.executor import execute_run_spec, record_spec_trace
from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import ConfigurationError, SimulationError
from repro.stats.compare import assert_snapshots_identical, snapshot_diff
from repro.stats.snapshot import collect
from repro.system import batchcore
from repro.system.config import (
    CoreConfig,
    DirectoryConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.system.fastcore import ENGINES, PackedMachine, build_machine, resolve_engine
from repro.system.simulator import Simulator
from repro.trace.record import AccessRecord, AccessType, chunk_records, iter_chunks

#: Vector-path assertions need numpy (the ``[fast]`` extra); everything
#: else in this suite runs — and must pass — on the stdlib fallback.
requires_numpy = pytest.mark.skipif(
    importlib.util.find_spec("numpy") is None,
    reason="vector path requires numpy (install the [fast] extra)",
)

CORES = 4
BASE_VADDR = 0x4000_0000
TINY = ExperimentSettings(scale=16, accesses=2000, multiprocess_accesses=1000, seed=7)


def tiny_config(policy: str = "baseline", replacement: str = "lru") -> SystemConfig:
    """A 4-node machine small enough that conflict streams thrash it."""
    return SystemConfig(
        core_count=CORES,
        core=CoreConfig(
            l1i_size=1024, l1d_size=1024, l2_size=2048, replacement=replacement
        ),
        directory=DirectoryConfig(
            probe_filter_coverage=2048, memory_bytes=64 * 1024 * 1024
        ),
        network=NetworkConfig(mesh_width=2, mesh_height=2),
        directory_policy=policy,
    )


def read(core: int, line: int, page: int = 0, pid: int = 0) -> AccessRecord:
    return AccessRecord(
        core=core,
        vaddr=BASE_VADDR + page * 4096 + line * 64,
        access_type=AccessType.READ,
        process_id=pid,
    )


def write(core: int, line: int, page: int = 0, pid: int = 0) -> AccessRecord:
    return AccessRecord(
        core=core,
        vaddr=BASE_VADDR + page * 4096 + line * 64,
        access_type=AccessType.WRITE,
        process_id=pid,
    )


def hit_stream(n: int, lines: int = 8) -> list:
    """Hot-line reads on core 0: everything after warm-up is an L1 hit."""
    return [read(0, i % lines) for i in range(n)]


def assert_feeds_identical(config, records, chunk_size, **kw):
    """Run *records* as records and as chunks; return both results."""
    results = {
        "records": Simulator(config).run(list(records), "t", **kw),
        "chunks": Simulator(config).run(
            chunk_records(records, chunk_size), "t", **kw
        ),
    }
    assert_snapshots_identical(
        results["records"].snapshot,
        results["chunks"].snapshot,
        context=f"chunks of {chunk_size}",
    )
    return results


def replay_packed(config: SystemConfig, stream, work_ns: float = 1.0):
    """Per-access packed replay of *stream* with the simulator's clocks."""
    packed = PackedMachine(config)
    for r in stream:
        clock = packed.nodes[r.core].clock
        clock.instructions += 1
        clock.now_ns += work_ns
        latency = packed.perform_access(
            r.core,
            r.process_id,
            r.vaddr,
            r.access_type is AccessType.WRITE,
            r.access_type is AccessType.INSTRUCTION,
        )
        clock.now_ns += latency
        clock.stall_ns += latency
    return packed


class TestEngineRegistration:
    def test_batched_is_not_an_engine(self):
        assert ENGINES == ("reference", "packed")
        with pytest.raises(
            ConfigurationError, match=r"expected one of \('reference', 'packed'\)"
        ):
            resolve_engine("batched")

    def test_env_batched_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            resolve_engine(None)

    def test_cli_engine_batched_is_rejected(self, capsys):
        code = main(["sweep", "--plan", "micro", "--engine", "batched"])
        assert code == 2
        assert "expected one of ('reference', 'packed')" in capsys.readouterr().err

    def test_packed_machine_binds_the_kernel_on_the_first_chunk(self):
        machine = build_machine(tiny_config(), "packed")
        assert isinstance(machine, PackedMachine)
        assert machine._chunk_kernel is None  # record-fed machines never bind it
        machine.perform_chunk(next(chunk_records(hit_stream(16))), 1.0)
        assert machine._chunk_kernel is not None

    def test_record_path_keeps_shared_instance_keys(self):
        # CPython (3.11+) stops sharing instance-dict keys past 29
        # attributes, which slows every ``self.`` load in
        # perform_access; chunk-path state must stay off the machine.
        assert len(vars(PackedMachine(tiny_config()))) < 30

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="chunk size"):
            list(chunk_records(hit_stream(4), chunk_size=0))


class TestImportHygiene:
    """Record-fed runs (every generated sweep) must stay free of the
    chunk kernel and numpy: importing either costs the paper grid setup
    time and resident memory for nothing."""

    def test_record_fed_run_never_imports_numpy_or_the_kernel(self):
        script = textwrap.dedent(
            """
            import sys
            import repro.__main__
            from repro.analysis.executor import execute_run_spec
            from repro.analysis.plan import ExperimentSettings, RunSpec

            settings = ExperimentSettings(scale=16, accesses=1500, seed=7)
            execute_run_spec(RunSpec("barnes", "allarm", settings=settings))
            print(sorted(
                name for name in ("numpy", "repro.system.batchcore")
                if name in sys.modules
            ))
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[]"


class TestChunkHelpers:
    def test_chunk_records_packs_columns(self):
        records = [read(1, 3, page=2, pid=1), write(2, 5), read(0, 0)]
        chunks = list(chunk_records(records, chunk_size=2))
        assert [len(c) for c in chunks] == [2, 1]
        assert list(chunks[0].cores) == [1, 2]
        assert list(chunks[0].types) == [0, 1]  # READ, WRITE codes
        back = [r for c in chunks for r in c.records()]
        assert back == records

    def test_truncated_keeps_prefix(self):
        chunk = next(chunk_records([read(0, i) for i in range(10)], chunk_size=10))
        cut = chunk.truncated(3)
        assert len(cut) == 3
        assert list(cut.vaddrs) == list(chunk.vaddrs[:3])

    def test_iter_chunks_passes_chunks_through(self):
        chunk = next(chunk_records(hit_stream(16), chunk_size=16))
        assert list(iter_chunks([chunk])) == [chunk]

    def test_iter_chunks_rejects_mixed_streams(self):
        chunk = next(chunk_records(hit_stream(4), chunk_size=4))
        with pytest.raises(SimulationError, match="mixed chunk/record"):
            list(iter_chunks([chunk, read(0, 0)]))
        with pytest.raises(SimulationError, match="mixed chunk/record"):
            Simulator(tiny_config()).run([chunk, read(0, 0)], "t")

    def test_source_shape_picks_the_path(self):
        stream = hit_stream(300)
        fed_records = Simulator(tiny_config())
        fed_records.run(stream, "t")
        assert fed_records.machine._chunk_kernel is None
        assert fed_records.machine.batch_summary()["accesses"] == 0
        fed_chunks = Simulator(tiny_config())
        fed_chunks.run(chunk_records(stream, 64), "t")
        assert fed_chunks.machine.batch_summary()["accesses"] == len(stream)
        assert fed_chunks.machine.batch_summary()["chunks"] == 5

    def test_reference_engine_replays_chunks_record_by_record(self):
        stream = [read(i % CORES, (i * 5) % 32, page=i % 3) for i in range(400)]
        packed = Simulator(tiny_config()).run(stream, "t").snapshot
        reference = Simulator(tiny_config(), engine="reference").run(
            chunk_records(stream, 37), "t"
        )
        assert reference.accesses_simulated == len(stream)
        assert_snapshots_identical(packed, reference.snapshot, context="reference")


class TestResidueCompaction:
    """The seams where residue replay and bulk commits interleave."""

    @requires_numpy
    def test_same_set_conflicts_within_one_chunk(self):
        # Alternate A-way-exceeding same-set lines with hot-line hits so
        # residue evictions land *between* classified hit runs inside a
        # single chunk — the disturbance/poison machinery must demote the
        # stale classifications instead of bulk-committing them.
        config = tiny_config()
        probe = PackedMachine(config)
        l1d = probe.nodes[0].caches.l1d
        set_span = (l1d.set_mask + 1) << l1d.line_shift
        assert set_span <= 4096, "conflict stride must stay inside one page"
        conflicts = l1d.associativity * 2
        stream = []
        for i in range(conflicts * 8):
            stream.append(read(0, (i % conflicts) * (set_span // 64)))
            stream.append(read(0, 1))  # hot line: classified hit candidate
            stream.append(write(0, 2))  # hot write: needs writable L2 copy
        machine = PackedMachine(config)
        machine.perform_chunk(
            next(chunk_records(stream, chunk_size=len(stream))), 1.0
        )
        packed = replay_packed(config, stream)
        assert snapshot_diff(collect(packed), collect(machine)) == []
        # The stream must actually have thrashed the set...
        assert sum(n.caches.l1d.evictions for n in machine.nodes) > 0
        # ... and the kernel must still have committed hits in bulk.
        assert machine.batch_summary()["residue"] > 0
        assert machine.batch_summary()["bulk_hits"] > 0

    @pytest.mark.parametrize("chunk_size", [1, 3, 16, 50, 128])
    def test_misses_at_chunk_boundaries(self, chunk_size):
        # A fresh cold line every `chunk_size` accesses puts a miss at
        # the first slot of every chunk; the remainder are hits whose
        # classification was taken after the boundary miss.
        stream = []
        for i in range(chunk_size * 6 + chunk_size // 2 + 1):
            if i % chunk_size == 0:
                stream.append(read(i % CORES, i % 64, page=i % 6))
            else:
                stream.append(read(0, i % 4))
        assert_feeds_identical(tiny_config(), stream, chunk_size)

    def test_chunk_size_does_not_change_results(self):
        stream = [
            read(i % CORES, (i * 7) % 48, page=i % 5, pid=i % 2) for i in range(900)
        ]
        for size in (4, 37, 256):
            assert_feeds_identical(tiny_config(), stream, size)

    def test_max_accesses_cuts_mid_chunk(self):
        stream = [read(i % CORES, (i * 3) % 40, page=i % 4) for i in range(500)]
        for cap in (1, 63, 64, 65, 250, 333):
            results = assert_feeds_identical(
                tiny_config(), stream, 64, max_accesses=cap
            )
            assert results["chunks"].accesses_simulated == cap
            assert results["records"].accesses_simulated == cap

    def test_bad_core_raises_like_packed(self):
        stream = hit_stream(10) + [read(CORES + 3, 0)]
        with pytest.raises(SimulationError, match="core 7"):
            Simulator(tiny_config()).run(chunk_records(stream), "t")


class TestFallbacks:
    """Every degraded mode must still be bit-identical, just slower."""

    def test_force_fallback_is_bit_identical(self, monkeypatch):
        stream = [read(i % CORES, (i * 5) % 32, page=i % 3) for i in range(600)]
        config = tiny_config()
        vector = Simulator(config).run(chunk_records(stream), "t").snapshot
        monkeypatch.setattr(batchcore, "_np", None)
        simulator = Simulator(config)
        fallback = simulator.run(chunk_records(stream), "t").snapshot
        assert simulator.machine.batch_summary()["vector_path"] is False
        assert_snapshots_identical(vector, fallback, context="fallback")
        assert simulator.machine.batch_summary()["fallback_accesses"] == len(stream)

    def test_fallback_machine_never_imports_numpy_paths(self, monkeypatch):
        # The import guard: with numpy patched away, the kernel must not
        # touch a numpy handle at all during replay.
        monkeypatch.setattr(batchcore, "_np", None)
        machine = PackedMachine(tiny_config())
        chunk = next(chunk_records(hit_stream(64), chunk_size=64))
        machine.perform_chunk(chunk, 1.0)
        assert machine._chunk_kernel._numpy is None
        assert machine.batch_summary()["fallback_accesses"] == 64

    @pytest.mark.parametrize("replacement", ["plru", "random"])
    def test_non_lru_replacement_degrades_not_diverges(self, replacement):
        stream = [read(i % CORES, (i * 5) % 32, page=i % 3) for i in range(400)]
        config = tiny_config(replacement=replacement)
        simulator = Simulator(config)
        chunked = simulator.run(chunk_records(stream), "t").snapshot
        assert simulator.machine.batch_summary()["vector_path"] is False
        packed = Simulator(config).run(stream, "t").snapshot
        assert_snapshots_identical(packed, chunked, context=replacement)

    def test_non_dyadic_work_falls_back_sequential(self):
        # 0.3 ns is not a multiple of 2**-12: bulk k*(work+latency) would
        # not be bit-exact, so the chunk must replay sequentially.
        config = tiny_config()
        machine = PackedMachine(config)
        chunk = next(chunk_records(hit_stream(128), chunk_size=128))
        machine.perform_chunk(chunk, 0.3)
        assert machine.batch_summary()["fallback_accesses"] == len(chunk)
        packed = replay_packed(config, hit_stream(128), work_ns=0.3)
        assert snapshot_diff(collect(packed), collect(machine)) == []


class TestResidueAccounting:
    @requires_numpy
    def test_hit_dominated_stream_has_low_residue(self):
        machine = PackedMachine(tiny_config())
        for chunk in chunk_records(hit_stream(4096), chunk_size=512):
            machine.perform_chunk(chunk, 1.0)
        assert machine.batched_residue_ratio < 0.10
        summary = machine.batch_summary()
        assert summary["chunks"] == 8
        assert summary["accesses"] == 4096
        assert summary["bulk_hits"] + summary["residue"] == 4096
        assert summary["vector_path"] is True

    def test_miss_heavy_stream_has_high_residue(self):
        # Every access a fresh page: nothing is ever a classified hit.
        stream = [read(i % CORES, 0, page=i) for i in range(256)]
        machine = PackedMachine(tiny_config())
        machine.perform_chunk(next(chunk_records(stream, chunk_size=256)), 1.0)
        assert machine.batched_residue_ratio > 0.5

    def test_empty_machine_reports_zero_ratio(self):
        assert PackedMachine(tiny_config()).batched_residue_ratio == 0.0


class TestPhasedWorkloads:
    """Multi-phase DSL streams through the chunked path.

    A phase switch changes the access pattern mid-stream — a
    sequential fill becomes a stationary mix becomes a stride thrash —
    and with odd chunk sizes the switch lands *inside* an
    ``AccessChunk``.  Classifications taken before the boundary must
    not be bulk-committed past it: the kernel may classify
    conservatively (more residue), but bit-identity with the record
    path is non-negotiable.
    """

    def phased_spec(self, total_accesses=3000):
        # Needs phases AND <= CORES threads (the tiny 4-node machine).
        from repro.workloads.generator import build_family_spec

        for index in range(16):
            spec = build_family_spec(11, index, total_accesses=total_accesses)
            if spec.phases and spec.thread_count <= CORES:
                return spec
        raise AssertionError("no small phased family in scenario set 11")

    def phased_stream(self, total_accesses=3000):
        from repro.workloads.base import SyntheticWorkload

        return list(SyntheticWorkload(self.phased_spec(total_accesses)).generate())

    @pytest.mark.parametrize("chunk_size", [1, 7, 63, 8191])
    def test_phase_switch_mid_chunk_is_bit_identical(self, chunk_size):
        assert_feeds_identical(tiny_config(), self.phased_stream(), chunk_size)

    def test_phased_residue_accounting_stays_sane(self):
        stream = self.phased_stream()
        machine = PackedMachine(tiny_config())
        for chunk in chunk_records(stream, chunk_size=256):
            machine.perform_chunk(chunk, 1.0)
        summary = machine.batch_summary()
        assert summary["accesses"] == len(stream)
        assert summary["bulk_hits"] + summary["residue"] == len(stream)
        assert 0.0 <= machine.batched_residue_ratio <= 1.0

    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_scenario_runspec_matches_packed(self, policy, tmp_path, monkeypatch):
        spec = RunSpec(self.phased_spec().name, policy, settings=TINY)
        assert_blocked_replay_matches(spec, tmp_path, monkeypatch)


def assert_blocked_replay_matches(spec: RunSpec, tmp_path, monkeypatch):
    """The harness path: a v3-trace-sourced spec replays through the
    chunk kernel and matches the generated (record-fed) run."""
    generated = execute_run_spec(spec)
    trace = tmp_path / "stream.rpt3"
    record_spec_trace(spec, trace)
    chunk_calls = []
    original = PackedMachine.perform_chunk

    def counting(machine, *args, **kwargs):
        chunk_calls.append(1)
        return original(machine, *args, **kwargs)

    monkeypatch.setattr(PackedMachine, "perform_chunk", counting)
    replayed = execute_run_spec(spec.with_trace(trace))
    assert chunk_calls, "a v3 trace source must take the chunk path"
    assert replayed.to_dict() == generated.to_dict()


class TestRunSpecPath:
    """The real harness path: RunSpec → executor → chunked replay."""

    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_family_run_matches_packed(self, policy, tmp_path, monkeypatch):
        spec = RunSpec("barnes", policy, settings=TINY)
        assert_blocked_replay_matches(spec, tmp_path, monkeypatch)

    def test_workload_chunk_emission_matches_record_stream(self):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        from_records = Simulator(spec.config()).run(spec.access_stream(), "t")
        from_chunks = Simulator(spec.config()).run(
            chunk_records(spec.access_stream(), 777), "t"
        )
        assert_snapshots_identical(
            from_records.snapshot, from_chunks.snapshot, context="chunk emission"
        )
