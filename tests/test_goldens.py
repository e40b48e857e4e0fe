"""Golden-snapshot corpus: round trip, tamper detection, mutation strength.

The corpus layer (:mod:`repro.stats.goldens`) is the conformance
instrument that survives refactors of *both* engines, so its own failure
modes are tested here: a recorded corpus must verify cleanly, any
mutation of the stored digests must fail ``check``, and — the mutation
strength test — an injected corruption of the packed eviction
bookkeeping must be caught by **both** layers independently: the machine
invariants (structural residue) and the golden check (behavioural
digest drift against frozen history).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.plan import RunSpec
from repro.coherence.invariants import (
    check_machine_invariants,
    check_packed_eviction_bookkeeping,
)
from repro.core.packed_directory import PackedDirectoryFastPath
from repro.errors import ProtocolError, SimulationError
from repro.stats.goldens import (
    GOLDEN_SETTINGS,
    check_corpus,
    golden_specs,
    load_corpus,
    record_corpus,
    run_golden_spec,
    snapshot_digest,
    spec_key,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
COMMITTED_CORPUS = REPO_ROOT / "tests" / "golden" / "corpus.json"

#: A reduced grid for the round-trip tests: one eviction-heavy run (the
#: starved filter keeps the packed fan-out path hot) and one hit-heavy.
MINI_SPECS = (
    RunSpec("stream-scan", "baseline", pf_size=32 * 1024, settings=GOLDEN_SETTINGS),
    RunSpec("hotspot", "allarm", pf_size=512 * 1024, settings=GOLDEN_SETTINGS),
)


class TestRoundTrip:
    def test_record_then_check_passes_on_both_engines(self, tmp_path):
        path = tmp_path / "corpus.json"
        corpus = record_corpus(path, specs=MINI_SPECS)
        assert len(corpus["entries"]) == len(MINI_SPECS)
        assert check_corpus(path, specs=MINI_SPECS) == []
        assert check_corpus(path, engine="reference", specs=MINI_SPECS) == []

    def test_digest_is_engine_independent_and_key_excludes_engine(self):
        spec = MINI_SPECS[0]
        packed = snapshot_digest(run_golden_spec(spec, "packed"))
        reference = snapshot_digest(run_golden_spec(spec, "reference"))
        assert packed == reference
        assert spec_key(spec) == spec_key(spec.with_engine("reference"))
        assert "engine" not in spec_key(spec)

    def test_missing_file_and_bad_schema_are_clean_errors(self, tmp_path):
        with pytest.raises(SimulationError, match="does not exist"):
            load_corpus(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(SimulationError, match="schema"):
            load_corpus(bad)
        bad.write_text("not json at all {")
        with pytest.raises(SimulationError, match="unreadable"):
            load_corpus(bad)

    def test_committed_corpus_covers_the_full_grid(self):
        corpus = load_corpus(COMMITTED_CORPUS)
        keys = set(corpus["entries"])
        assert keys == {spec_key(spec) for spec in golden_specs()}


class TestTamperDetection:
    def _recorded(self, tmp_path) -> Path:
        path = tmp_path / "corpus.json"
        record_corpus(path, specs=MINI_SPECS)
        return path

    def test_mutated_digest_fails_check(self, tmp_path):
        path = self._recorded(tmp_path)
        corpus = json.loads(path.read_text())
        key = spec_key(MINI_SPECS[0])
        digest = corpus["entries"][key]["digest"]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        corpus["entries"][key]["digest"] = flipped
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path, specs=MINI_SPECS)
        assert len(problems) == 1
        assert "digest" in problems[0]
        assert "stream-scan" in problems[0]

    def test_chunk_path_divergence_fails_check(self, tmp_path, monkeypatch):
        # check replays every spec from a chunk source too, so a chunk
        # kernel bug the record path cannot see still fails it.
        from repro.system import batchcore

        path = self._recorded(tmp_path)
        original = batchcore.ChunkKernel.perform_chunk

        def lossy(kernel, chunk, work_ns, limit=None):
            return original(kernel, chunk.truncated(len(chunk) - 1), work_ns, limit)

        monkeypatch.setattr(batchcore.ChunkKernel, "perform_chunk", lossy)
        problems = check_corpus(path, specs=MINI_SPECS)
        assert len(problems) == len(MINI_SPECS)
        assert all("(chunks)" in problem for problem in problems)

    def test_missing_and_stale_entries_are_reported(self, tmp_path):
        path = self._recorded(tmp_path)
        corpus = json.loads(path.read_text())
        removed = corpus["entries"].pop(spec_key(MINI_SPECS[0]))
        corpus["entries"]["{\"benchmark\": \"ghost\"}"] = removed
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path, specs=MINI_SPECS)
        assert any("no recorded golden entry" in p for p in problems)
        assert any("stale corpus entry" in p for p in problems)


class TestCommittedCorpusConformance:
    """The PR's acceptance gate: current code matches the frozen history."""

    def test_packed_engine_matches_committed_corpus(self):
        assert check_corpus(COMMITTED_CORPUS, engine="packed") == []


def _drive_eviction_heavy_machine():
    """A packed machine driven until probe-filter evictions occurred."""
    from repro.system.simulator import Simulator

    spec = MINI_SPECS[0]
    simulator = Simulator(spec.config(), engine="packed")
    simulator.run(spec.access_stream(), spec.workload_name)
    machine = simulator.machine
    assert machine.nodes[0].probe_filter.evictions > 0
    return machine


class TestMutationStrength:
    """Injected eviction-bookkeeping corruption must not survive either layer."""

    def test_invariants_catch_residual_stamp_on_free_slot(self):
        machine = _drive_eviction_heavy_machine()
        check_machine_invariants(machine)  # sane before corruption
        pf = machine.nodes[0].probe_filter
        # The starved filter is full; free a way legitimately, then
        # simulate a deallocation that forgot to reset its recency.
        occupied = next(s for s in range(pf.entry_count) if pf.tags[s] >= 0)
        pf.deallocate_fast(occupied)
        free_slot = pf.tags.index(-1)
        pf.stamps[free_slot] = 7
        with pytest.raises(ProtocolError, match="residual LRU stamp"):
            check_packed_eviction_bookkeeping(machine)

    def test_invariants_catch_residual_state_in_cache(self):
        machine = _drive_eviction_heavy_machine()
        l2 = machine.nodes[1].caches.l2
        free_slot = l2.tags.index(-1)
        l2.states[free_slot] = 2  # invalidation that forgot the state byte
        with pytest.raises(ProtocolError, match="residual state code"):
            check_packed_eviction_bookkeeping(machine)

    def test_invariants_catch_stamp_beyond_monotonic_counter(self):
        machine = _drive_eviction_heavy_machine()
        pf = machine.nodes[0].probe_filter
        occupied = next(s for s in range(pf.entry_count) if pf.tags[s] >= 0)
        pf.stamps[occupied] = pf.stamp + 100
        with pytest.raises(ProtocolError, match="monotonic counter"):
            check_packed_eviction_bookkeeping(machine)

    def test_golden_check_catches_corrupted_eviction_fanout(
        self, tmp_path, monkeypatch
    ):
        # Record with healthy code, then break the packed eviction
        # fan-out (drop every invalidation) and re-check: the digest of
        # the eviction-heavy run must drift from the frozen history, and
        # the headline diagnosis must point at the eviction counters.
        path = tmp_path / "corpus.json"
        record_corpus(path, specs=MINI_SPECS[:1])
        monkeypatch.setattr(
            PackedDirectoryFastPath,
            "_evict_victim",
            lambda self, line_address, holder_mask: None,
        )
        problems = check_corpus(path, specs=MINI_SPECS[:1])
        assert len(problems) == 1
        assert "eviction_messages" in problems[0]
