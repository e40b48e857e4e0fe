"""Concurrent multi-process sharing of one snapshot-cache directory.

The serve layer's shard deployment has N server processes (plus any
direct :class:`SweepExecutor` users) pointed at one ``cache_dir``.  The
contract that makes that safe: cache writes are atomic and digest-
stamped, so a racing reader sees either a complete verified entry or a
miss — never a torn one — and damaged entries are quarantined by
whichever process trips over them first, without disturbing the rest.

These tests race real processes at one directory and assert every
returned snapshot is bit-identical to a serial fault-free run.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from repro.analysis.executor import SnapshotCache, SweepExecutor
from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.serve import shard_of
from repro.stats.compare import snapshot_diff
from repro.stats.snapshot import MachineSnapshot

TINY = ExperimentSettings(scale=16, accesses=1500, multiprocess_accesses=800)


def _specs():
    return [
        RunSpec(benchmark, policy, settings=TINY)
        for benchmark in ("barnes", "hotspot")
        for policy in ("baseline", "allarm")
    ]


def _run_all(args):
    """Worker: resolve every spec through a private executor on the
    shared cache; return ``{digest: snapshot_dict}``."""
    cache_dir, specs = args
    executor = SweepExecutor(cache_dir=cache_dir)
    return {
        spec.digest(): executor.run(spec).to_dict() for spec in specs
    }


def _run_owned_shard(args):
    """Worker: execute only the specs this shard owns, then read back
    the full set (warm reads cross shard boundaries)."""
    cache_dir, specs, shard_index, shard_count = args
    executor = SweepExecutor(cache_dir=cache_dir)
    for spec in specs:
        if shard_of(spec, shard_count) == shard_index:
            executor.run(spec)
    # Every spec is eventually readable here, whoever executed it.
    observed = {}
    for spec in specs:
        found = executor.lookup(spec)
        if found is not None:
            observed[spec.digest()] = found[0].to_dict()
    return observed


def _baseline(specs):
    executor = SweepExecutor()
    return {spec.digest(): executor.run(spec) for spec in specs}


def _assert_identical(baseline, observed):
    for digest, snapshot_dict in observed.items():
        rebuilt = MachineSnapshot.from_dict(snapshot_dict)
        assert snapshot_diff(baseline[digest], rebuilt) == []


def _entry_verifies(path: Path) -> bool:
    """The entry's header digest is the SHA-256 of its payload bytes."""
    header, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header)["sha256"] == hashlib.sha256(payload).hexdigest()


def _no_torn_entries(cache_dir: Path) -> bool:
    """Every .json entry in the cache verifies against its digest."""
    return all(map(_entry_verifies, Path(cache_dir).glob("*/*.json")))


@pytest.mark.parametrize("processes", [2, 4])
def test_racing_executors_stay_bit_identical(tmp_path, processes):
    """N processes race store/load on one cold cache; all agree."""
    specs = _specs()
    baseline = _baseline(specs)
    cache_dir = tmp_path / "shared"

    with multiprocessing.Pool(processes) as pool:
        results = pool.map(
            _run_all, [(str(cache_dir), specs)] * processes
        )

    assert len(results) == processes
    for observed in results:
        assert len(observed) == len(specs)
        _assert_identical(baseline, observed)
    assert _no_torn_entries(cache_dir)
    # The racing writers may each have executed some specs (last atomic
    # write wins, all writes identical) but the cache holds exactly one
    # entry per spec, never duplicates or partials.
    assert SnapshotCache(cache_dir).entry_count() == len(specs)


def test_sharded_executors_partition_work_and_share_results(tmp_path):
    """Two shard processes split executions yet read the whole grid."""
    specs = _specs()
    baseline = _baseline(specs)
    shard_count = 2
    cache_dir = tmp_path / "shared"
    assert {shard_of(spec, shard_count) for spec in specs} == {0, 1}, \
        "spec set must cover both shards for this test to bite"

    with multiprocessing.Pool(shard_count) as pool:
        results = pool.map(
            _run_owned_shard,
            [
                (str(cache_dir), specs, index, shard_count)
                for index in range(shard_count)
            ],
        )

    # Each shard certainly resolved its own specs; between the two of
    # them the full grid exists exactly once on disk, bit-identical.
    for observed in results:
        _assert_identical(baseline, observed)
    cache = SnapshotCache(cache_dir)
    assert cache.entry_count() == len(specs)
    for spec in specs:
        loaded = cache.load(spec)
        assert loaded is not None
        assert snapshot_diff(baseline[spec.digest()], loaded) == []


def test_racing_loaders_quarantine_a_torn_entry_once(tmp_path):
    """A torn entry is healed under concurrency: one quarantine, no
    process ever serves the damaged bytes."""
    specs = _specs()[:1]
    baseline = _baseline(specs)
    cache_dir = tmp_path / "shared"

    # Seed the cache, then tear the entry the way a cut-short write
    # would have (truncated JSON).
    seeder = SweepExecutor(cache_dir=cache_dir)
    seeder.run(specs[0])
    entry = SnapshotCache(cache_dir).path_for(specs[0])
    entry.write_text(entry.read_text()[: entry.stat().st_size // 2])

    with multiprocessing.Pool(4) as pool:
        results = pool.map(_run_all, [(str(cache_dir), specs)] * 4)

    for observed in results:
        _assert_identical(baseline, observed)
    # Exactly one process won the quarantine race; the forensic copy
    # exists and the healed entry parses and verifies.
    corrupt = list(Path(cache_dir).glob("*/*.corrupt"))
    assert len(corrupt) == 1
    healed = SnapshotCache(cache_dir).load(specs[0])
    assert healed is not None
    assert snapshot_diff(baseline[specs[0].digest()], healed) == []


def test_atomic_store_never_exposes_partial_files(tmp_path):
    """A reader polling during a store sees only absent-or-complete."""
    spec = _specs()[0]
    snapshot = SweepExecutor().run(spec)
    cache_dir = tmp_path / "shared"
    cache = SnapshotCache(cache_dir)

    # Store repeatedly while scanning the directory for temp files that
    # a non-atomic writer would leak into the reader's glob.
    for _ in range(5):
        cache.store(spec, snapshot)
        visible = list(Path(cache_dir).glob("*/*.json"))
        assert len(visible) == 1
        assert _entry_verifies(visible[0])
        payload = visible[0].read_bytes().split(b"\n", 1)[1]
        assert MachineSnapshot.from_row(json.loads(payload)) == snapshot
    reread = cache.load(spec)
    assert reread is not None and snapshot_diff(snapshot, reread) == []
