"""Chaos suite: the execution layer under deterministic injected faults.

The contract under test: with worker crashes, worker deaths (simulated
OOM kills), hangs, and torn cache/checkpoint writes injected through
:mod:`repro.faults`, sweeps and checkpointed replays must *complete* — via
retries, pool rebuilds and quarantine — and their final snapshots must
be **bit-identical** (``snapshot_diff == []``) to fault-free runs, with
the packed engine fed records and fed chunks.  Every fault here is deterministic
(site/key/attempt matching, per-process fire caps, seeded corruption):
there are no sleeps-and-hope races, so a failure is a real regression.

The golden-grid gate at the bottom also appends a ``bench:"faults"``
entry to ``BENCH_faults.json`` recording what the machinery absorbed.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from pathlib import Path

import pytest

from repro import faults
from repro.analysis.executor import (
    SnapshotCache,
    SweepExecutor,
    execute_run_spec,
)
from repro.analysis.benchlog import append_bench_entry
from repro.analysis.plan import ExperimentSettings, RunSpec, SweepPlan
from repro.analysis.retrypool import RetryPolicy, run_tasks
from repro.analysis.resume import latest_checkpoint, record_checkpoints
from repro.errors import (
    ConfigurationError,
    ExecutionError,
    InjectedFaultError,
    SimulationError,
)
from repro.ioutil import atomic_write_bytes, atomic_write_json
from repro.stats.compare import snapshot_diff
from repro.stats.goldens import golden_specs
from repro.system.checkpoint import encode_checkpoint, verify_checkpoint
from repro.system.simulator import simulate
from repro.trace.binary import write_trace_v3
from repro.trace.io import read_trace

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_LOG = REPO_ROOT / "BENCH_faults.json"

#: Deliberately tiny settings so retry-machinery tests stay fast.
TINY = ExperimentSettings(scale=16, accesses=1500, multiprocess_accesses=800)

BLOCK = 256
EPOCH = 512


@pytest.fixture(autouse=True)
def _isolated_faults():
    """Every test starts and ends with no fault plan installed."""
    faults.clear()
    yield
    faults.clear()


def _tiny_plan(benchmarks=("barnes", "hotspot")):
    """A small multi-spec plan: both policies per benchmark."""
    specs = []
    for benchmark in benchmarks:
        for policy in ("baseline", "allarm"):
            specs.append(RunSpec(benchmark, policy, settings=TINY))
    return SweepPlan(name="chaos-tiny", specs=tuple(specs))


def _interleaved_plan(benchmarks=("barnes", "hotspot"), allarm_sizes=(512 * 1024,)):
    """A B A B ...: each machine variant runs every benchmark in turn, so
    stream-grouped dispatch reorders the pending runs."""
    variants = [("baseline", 512 * 1024)]
    variants += [("allarm", size) for size in allarm_sizes]
    specs = tuple(
        RunSpec(benchmark, policy, pf_size=size, settings=TINY)
        for policy, size in variants
        for benchmark in benchmarks
    )
    return SweepPlan(name="chaos-interleaved", specs=specs)


def _no_leaked_children():
    """True when no worker process outlived its pool."""
    return not any(p.is_alive() for p in multiprocessing.active_children())


# ----------------------------------------------------------------------
# Fault plan parsing and matching
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_rules_and_options(self):
        plan = faults.parse_faults(
            "sweep.run crash key=#2: attempts=2; "
            "io.write torn key=.json fires=1; "
            "sim.epoch hang delay=3600; "
            "io.write corrupt key=.ckpt seed=7"
        )
        kinds = [rule.kind for rule in plan.rules]
        assert kinds == ["crash", "torn", "hang", "corrupt"]
        assert plan.rules[0].key == "#2:" and plan.rules[0].attempts == 2
        assert plan.rules[1].fires == 1
        assert plan.rules[2].delay_s == 3600.0
        assert plan.rules[3].seed == 7

    def test_describe_round_trips(self):
        text = (
            "sweep.run crash key=#2: attempts=2; io.write torn fires=1; "
            "sim.epoch slow delay=0.5 seed=3"
        )
        plan = faults.parse_faults(text)
        assert faults.parse_faults(plan.describe()) == plan

    def test_plan_is_picklable(self):
        import pickle

        plan = faults.parse_faults("sweep.run exit key=#1 attempts=1")
        assert pickle.loads(pickle.dumps(plan)) == plan

    @pytest.mark.parametrize(
        "text",
        [
            "sweep.run explode",  # unknown kind
            "crash",  # missing site/kind
            "sweep.run crash attempts=zero",  # malformed int
            "sweep.run crash attempts=0",  # out of range
            "sweep.run crash fires=0",
            "sweep.run crash bogus=1",  # unknown option
            "sweep.run crash key",  # not name=value
        ],
    )
    def test_malformed_plans_fail_loudly(self, text):
        with pytest.raises(ConfigurationError):
            faults.parse_faults(text)

    def test_environment_activation(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "sweep.run crash key=#0")
        faults.clear()
        assert faults.active().rules[0].kind == "crash"
        with pytest.raises(InjectedFaultError):
            faults.fire("sweep.run", key="#0:barnes")
        # Non-matching key passes through.
        faults.fire("sweep.run", key="#1:barnes")

    def test_injected_restores_previous_plan(self):
        with faults.injected("sweep.run crash"):
            assert faults.active()
            with faults.injected(faults.FaultPlan()):
                assert not faults.active()
            assert faults.active()
        assert not faults.active()

    def test_attempt_matching(self):
        with faults.injected("sweep.run crash attempts=2"):
            faults.set_attempt(2)
            with pytest.raises(InjectedFaultError):
                faults.fire("sweep.run", key="x")
            faults.set_attempt(3)
            faults.fire("sweep.run", key="x")  # attempt 3 > attempts=2

    def test_fires_cap_is_per_process(self):
        with faults.injected("io.write torn fires=2"):
            data = b"0123456789abcdef"
            assert faults.filter_bytes("io.write", "a.json", data) != data
            assert faults.filter_bytes("io.write", "b.json", data) != data
            # Cap reached: third write is untouched.
            assert faults.filter_bytes("io.write", "c.json", data) == data
            counts = faults.fire_counts()
            assert list(counts.values()) == [2]

    def test_corruption_is_deterministic(self):
        data = bytes(range(256))
        with faults.injected("io.write corrupt seed=9"):
            first = faults.filter_bytes("io.write", "x.ckpt", data)
        with faults.injected("io.write corrupt seed=9"):
            second = faults.filter_bytes("io.write", "x.ckpt", data)
        assert first == second != data
        with faults.injected("io.write corrupt seed=10"):
            third = faults.filter_bytes("io.write", "x.ckpt", data)
        assert third != first

    def test_slow_fault_falls_through(self):
        with faults.injected("sweep.run slow delay=0"):
            faults.fire("sweep.run", key="x")  # returns, does not raise


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.5)
        assert policy.delay_for(1) == 0.0
        assert policy.delay_for(2) == 0.5
        assert policy.delay_for(3) == 1.0
        assert policy.delay_for(4) == 2.0

    def test_zero_delay_stays_zero(self):
        assert RetryPolicy(max_attempts=3).delay_for(3) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"base_delay_s": -1.0},
            {"timeout_s": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Durable atomic writes
# ----------------------------------------------------------------------
class TestDurableWrites:
    def test_fsync_flushes_file_and_directory(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        atomic_write_json(tmp_path / "plain.json", {"a": 1})
        assert synced == []  # durability is opt-in
        atomic_write_bytes(tmp_path / "durable.bin", b"payload", fsync=True)
        assert len(synced) == 2  # temp file, then parent directory

    def test_torn_write_fault_routes_through_writers(self, tmp_path):
        payload = {"numbers": list(range(64))}
        with faults.injected("io.write torn key=torn.json fires=1"):
            atomic_write_json(tmp_path / "torn.json", payload)
            atomic_write_json(tmp_path / "clean.json", payload)
        with pytest.raises(ValueError):
            json.loads((tmp_path / "torn.json").read_text())
        assert json.loads((tmp_path / "clean.json").read_text()) == payload


# ----------------------------------------------------------------------
# Self-healing snapshot cache
# ----------------------------------------------------------------------
class TestCacheSelfHealing:
    def _spec(self):
        return RunSpec("barnes", "baseline", settings=TINY)

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        spec = self._spec()
        cache = SnapshotCache(tmp_path)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.load(spec) is None
        assert cache.stats.quarantined == 1
        assert not path.exists()
        quarantined = path.with_name(path.name + ".corrupt")
        assert quarantined.read_text() == "{not json"
        # The damaged bytes are gone from the load path: the next load is
        # a clean miss, not another parse-and-reject of the same file.
        assert cache.load(spec) is None
        assert cache.stats.invalid == 1

    def test_digest_catches_tampered_but_parsable_entries(self, tmp_path):
        spec = self._spec()
        snapshot = execute_run_spec(spec)
        cache = SnapshotCache(tmp_path)
        path = cache.store(spec, snapshot)
        data = json.loads(path.read_text())
        data["snapshot"]["l2_misses"] += 1  # silent bit-rot stand-in
        path.write_text(json.dumps(data))
        assert cache.load(spec) is None
        assert cache.stats.quarantined == 1
        assert cache.load(spec) is None  # quarantined, not re-parsed

    def test_injected_torn_write_heals_on_next_sweep(self, tmp_path):
        spec = self._spec()
        baseline = execute_run_spec(spec)
        with faults.injected("io.write torn key=.json fires=1"):
            writer = SweepExecutor(cache_dir=tmp_path)
            writer.run(spec)
        # The torn entry is on disk; a fresh executor quarantines it,
        # re-executes, and ends bit-identical to the fault-free run.
        reader = SweepExecutor(cache_dir=tmp_path)
        healed = reader.run(spec)
        assert snapshot_diff(baseline, healed) == []
        assert reader.disk_cache.stats.quarantined == 1
        third = SweepExecutor(cache_dir=tmp_path)
        assert snapshot_diff(baseline, third.run(spec)) == []
        assert third.disk_cache.stats.hits == 1


# ----------------------------------------------------------------------
# Sweep executor under faults (tiny grid: retry machinery semantics)
# ----------------------------------------------------------------------
class TestSweepRetries:
    def _baseline(self, plan):
        return {
            result.spec: result.snapshot
            for result in SweepExecutor().run_plan(plan).results
        }

    def _assert_identical(self, outcome, baseline):
        assert len(outcome.results) == len(baseline)
        for result in outcome.results:
            assert snapshot_diff(baseline[result.spec], result.snapshot) == []

    def test_retry_until_success_is_bit_identical(self):
        plan = _tiny_plan()
        baseline = self._baseline(plan)
        with faults.injected("sweep.run crash key=#1: attempts=2"):
            outcome = SweepExecutor(
                workers=2, retry=RetryPolicy(max_attempts=3)
            ).run_plan(plan)
        assert outcome.ok and outcome.retries == 2
        self._assert_identical(outcome, baseline)

    def test_exhausted_attempts_raise_with_partial_outcome(self):
        plan = _tiny_plan()
        with faults.injected("sweep.run crash key=#1: attempts=99"):
            with pytest.raises(ExecutionError) as info:
                SweepExecutor(
                    workers=2, retry=RetryPolicy(max_attempts=2)
                ).run_plan(plan)
        assert len(info.value.failures) == 1
        failure = info.value.failures[0]
        assert failure.kind == "error" and failure.attempts == 2
        assert info.value.outcome is not None

    def test_keep_going_completes_the_rest_of_the_grid(self):
        plan = _tiny_plan()
        baseline = self._baseline(plan)
        with faults.injected("sweep.run crash key=#1: attempts=99"):
            outcome = SweepExecutor(
                workers=2, retry=RetryPolicy(max_attempts=2), keep_going=True
            ).run_plan(plan)
        assert not outcome.ok
        assert len(outcome.failures) == 1
        assert len(outcome.results) == len(plan) - 1
        for result in outcome.results:
            assert snapshot_diff(baseline[result.spec], result.snapshot) == []

    def test_worker_death_rebuilds_pool_and_requeues(self):
        plan = _tiny_plan()
        baseline = self._baseline(plan)
        with faults.injected("sweep.run exit key=#2: attempts=1"):
            outcome = SweepExecutor(
                workers=2, retry=RetryPolicy(max_attempts=3)
            ).run_plan(plan)
        assert outcome.ok and outcome.pool_rebuilds >= 1
        self._assert_identical(outcome, baseline)
        assert _no_leaked_children()

    def test_hung_worker_is_killed_at_the_deadline(self):
        plan = _tiny_plan(benchmarks=("barnes",))
        baseline = self._baseline(plan)
        with faults.injected("sweep.run hang key=#0: attempts=1 delay=3600"):
            outcome = SweepExecutor(
                workers=2, retry=RetryPolicy(max_attempts=2, timeout_s=4.0)
            ).run_plan(plan)
        assert outcome.ok and outcome.timeouts >= 1
        self._assert_identical(outcome, baseline)
        assert _no_leaked_children()

    def test_interrupt_preserves_finished_results(self):
        plan = _tiny_plan()
        with faults.injected("pool.collect interrupt key=0"):
            outcome = SweepExecutor(workers=2).run_plan(plan)
        assert outcome.interrupted and not outcome.ok
        assert len(outcome.results) >= 1
        assert len(outcome.results) + len(outcome.failures) == len(plan)
        assert all(f.kind == "interrupted" for f in outcome.failures)
        assert _no_leaked_children()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fault_key_names_the_plan_index_not_the_dispatch_slot(self, workers):
        # Grouped dispatch sends #0 #2 #1 #3; the key and the failure
        # must still name plan[2].
        plan = _interleaved_plan()
        with faults.injected("sweep.run crash key=#2: attempts=99"):
            outcome = SweepExecutor(
                workers=workers, retry=RetryPolicy(max_attempts=2),
                keep_going=True,
            ).run_plan(plan)
        assert [f.spec for f in outcome.failures] == [plan.specs[2]]
        assert outcome.failures[0].attempts == 2
        assert [r.spec for r in outcome.results] == [
            spec for index, spec in enumerate(plan) if index != 2
        ]

    def test_worker_death_mid_stream_group_heals(self):
        # The barnes runs #0 #2 #4 are dispatched back to back, and the
        # worker running #2 dies in the middle of that group.
        plan = _interleaved_plan(allarm_sizes=(512 * 1024, 256 * 1024))
        barnes = plan.specs[0].stream_digest()
        assert [spec.stream_digest() == barnes for spec in plan] == [
            True, False, True, False, True, False
        ]
        baseline = self._baseline(plan)
        with faults.injected("sweep.run exit key=#2: attempts=1"):
            outcome = SweepExecutor(
                workers=2, retry=RetryPolicy(max_attempts=3)
            ).run_plan(plan)
        assert outcome.ok and outcome.pool_rebuilds >= 1
        self._assert_identical(outcome, baseline)
        assert _no_leaked_children()

    def test_inline_serial_retry(self):
        plan = _tiny_plan(benchmarks=("barnes",))
        baseline = self._baseline(plan)
        with faults.injected("sweep.run crash key=#0: attempts=1"):
            outcome = SweepExecutor(
                workers=1, retry=RetryPolicy(max_attempts=2)
            ).run_plan(plan)
        assert outcome.ok and outcome.retries == 1
        self._assert_identical(outcome, baseline)


# ----------------------------------------------------------------------
# Checkpoint discovery under damage
# ----------------------------------------------------------------------
class TestCheckpointQuarantine:
    def test_latest_checkpoint_skips_and_quarantines_torn_files(self, tmp_path):
        good = encode_checkpoint({"epoch": 1})
        (tmp_path / "epoch-000001.ckpt").write_bytes(good)
        (tmp_path / "epoch-000002.ckpt").write_bytes(good[: len(good) // 2])
        found = latest_checkpoint(tmp_path)
        assert found is not None
        epoch, path = found
        assert epoch == 1 and path.name == "epoch-000001.ckpt"
        assert (tmp_path / "epoch-000002.ckpt.corrupt").exists()
        assert not (tmp_path / "epoch-000002.ckpt").exists()

    def test_unverified_scan_keeps_old_behaviour(self, tmp_path):
        good = encode_checkpoint({"epoch": 1})
        (tmp_path / "epoch-000001.ckpt").write_bytes(good)
        (tmp_path / "epoch-000002.ckpt").write_bytes(b"garbage")
        epoch, _path = latest_checkpoint(tmp_path, verify=False)
        assert epoch == 2
        assert (tmp_path / "epoch-000002.ckpt").exists()

    def test_verify_checkpoint_matches_decode_errors(self):
        blob = encode_checkpoint({"x": 1})
        assert verify_checkpoint(blob)
        with pytest.raises(SimulationError):
            verify_checkpoint(blob[:-1])


# ----------------------------------------------------------------------
# Golden-grid chaos gate (the acceptance criterion)
# ----------------------------------------------------------------------
def _grid():
    """Family-covering slice of the golden grid (as in test_resume)."""
    specs = golden_specs()
    return [specs[3], specs[11], specs[17]]


def _write_trace(spec, path):
    write_trace_v3(
        path,
        list(spec.access_stream()),
        block_records=BLOCK,
        epoch_records=EPOCH,
    )


def _plain_snapshot(config, trace):
    return simulate(config, read_trace(trace)).snapshot


#: Input shape per chaos feed.  The packed engine is the only fast
#: engine; ``batched`` feeds it chunks (runs replayed from a v3.1 blocked
#: trace, the chunk kernel's path), ``packed`` feeds it records.
FEED_SHAPES = {"packed": "records", "batched": "chunks"}


def _fed(spec, feed, tmp_path, name="stream"):
    """*spec* as fed on *feed*: generated records, or a v3.1 trace."""
    if FEED_SHAPES[feed] == "records":
        return spec
    trace = tmp_path / f"{name}.rpt3"
    _write_trace(spec, trace)
    return spec.with_trace(trace)


CHAOS_SWEEP_PLAN = (
    # Run 0 crashes on its first attempt, run 1's worker is OOM-killed,
    # and the first snapshot-cache write is torn on disk.
    "sweep.run crash key=#0: attempts=1; "
    "sweep.run exit key=#1: attempts=1; "
    "io.write torn key=.json fires=1"
)


@pytest.mark.parametrize("feed", FEED_SHAPES)
def test_golden_sweep_chaos_bit_identical(tmp_path, feed):
    plan = SweepPlan(
        name=f"chaos-golden-{feed}",
        specs=tuple(
            _fed(spec, feed, tmp_path, f"grid-{index}")
            for index, spec in enumerate(_grid())
        ),
    )
    baseline = {
        result.spec: result.snapshot
        for result in SweepExecutor().run_plan(plan).results
    }

    cache_dir = tmp_path / "cache"
    with faults.injected(CHAOS_SWEEP_PLAN):
        executor = SweepExecutor(
            workers=2, cache_dir=cache_dir, retry=RetryPolicy(max_attempts=3)
        )
        outcome = executor.run_plan(plan)
    assert outcome.ok
    assert outcome.retries >= 2  # the crash and the worker death
    for result in outcome.results:
        assert snapshot_diff(baseline[result.spec], result.snapshot) == []

    # One cache entry was torn on disk; a fresh fault-free executor
    # quarantines it, re-executes that one run, and the whole grid is
    # again bit-identical.
    healer = SweepExecutor(cache_dir=cache_dir)
    healed = healer.run_plan(plan)
    assert healed.ok
    assert healer.disk_cache.stats.quarantined == 1
    for result in healed.results:
        assert snapshot_diff(baseline[result.spec], result.snapshot) == []

    append_bench_entry(
        BENCH_LOG,
        {
            "bench": "faults",
            "engine": "packed",
            "feed": FEED_SHAPES[feed],
            "scenario": "sweep-crash-exit-torn",
            "runs": len(plan),
            "retries": outcome.retries,
            "timeouts": outcome.timeouts,
            "pool_rebuilds": outcome.pool_rebuilds,
            "quarantines": healer.disk_cache.stats.quarantined,
        },
        repo_root=REPO_ROOT,
    )


@pytest.mark.parametrize("feed", FEED_SHAPES)
def test_golden_checkpointed_replay_chaos_bit_identical(tmp_path, feed):
    """Checkpointed replay heals from a torn checkpoint and a crash.

    The trace's format picks the input shape: a v1 text trace replays
    as records, a v3.1 trace as chunks.
    """
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "chaos.trace"
    if FEED_SHAPES[feed] == "chunks":
        _write_trace(spec, trace)
    else:
        trace.write_text(
            "".join(f"{r.to_line()}\n" for r in spec.access_stream())
        )
    base = _plain_snapshot(config, trace)
    ckpt = tmp_path / "ck"

    # Attempt 1 tears the epoch-1 checkpoint on disk, then crashes at
    # the epoch-2 boundary.  The retry quarantines the torn checkpoint,
    # restarts from scratch (nothing intact remains), and completes.
    with faults.injected(
        "io.write torn key=epoch-000001 fires=1; "
        "sim.epoch crash key=#2 attempts=1"
    ):
        result = record_checkpoints(
            config, trace, EPOCH, ckpt, retry=RetryPolicy(max_attempts=2),
        )
    assert snapshot_diff(base, result.snapshot) == []
    assert (ckpt / "epoch-000001.ckpt.corrupt").exists()
    found = latest_checkpoint(ckpt)
    assert found is not None and found[0] >= 2

    append_bench_entry(
        BENCH_LOG,
        {
            "bench": "faults",
            "engine": "packed",
            "feed": FEED_SHAPES[feed],
            "scenario": "checkpoint-torn-crash",
            "runs": 1,
            "retries": 1,
            "timeouts": 0,
            "quarantines": 1,
        },
        repo_root=REPO_ROOT,
    )


def test_retry_resume_restarts_from_epoch_checkpoint(tmp_path):
    """A retried serial replay resumes mid-trace, not from the world's start."""
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "resume.rpt3"
    _write_trace(spec, trace)
    base = _plain_snapshot(config, trace)
    ckpt = tmp_path / "ck"

    # Crash at epoch 3 on attempt 1; epochs 1-2 survive on disk intact.
    with faults.injected("sim.epoch crash key=#3 attempts=1"):
        result = record_checkpoints(
            config, trace, EPOCH, ckpt, engine="packed",
            retry=RetryPolicy(max_attempts=2),
        )
    assert snapshot_diff(base, result.snapshot) == []
    # Epochs 1-2 survived attempt 1 intact, so the retry resumed rather
    # than replaying from zero; the directory is fully refilled.
    found = latest_checkpoint(ckpt)
    assert found is not None and found[0] >= 3


# ----------------------------------------------------------------------
# Single-run fault tolerance (run() used to bypass run_tasks entirely)
# ----------------------------------------------------------------------
class TestSingleRunFaultTolerance:
    """``SweepExecutor.run`` honours the retry policy like ``run_plan``.

    The single-run path used to call ``execute_run_spec`` directly: no
    retries, no deadline, and the ``sweep.run`` fault site never fired,
    so every facade call and server request silently ran without the
    fault tolerance the executor advertised.
    """

    def _spec(self, feed="packed", tmp_path=None):
        return _fed(RunSpec("barnes", "allarm", settings=TINY), feed, tmp_path)

    @pytest.mark.parametrize("feed", FEED_SHAPES)
    def test_run_retries_and_heals(self, feed, tmp_path):
        spec = self._spec(feed, tmp_path)
        baseline = SweepExecutor().run(spec)
        with faults.injected("sweep.run crash key=#0: attempts=1"):
            executor = SweepExecutor(retry=RetryPolicy(max_attempts=2))
            healed = executor.run(spec)
            fired = sum(faults.fire_counts().values())
        assert fired >= 1  # the crash really hit the single-run path
        assert snapshot_diff(baseline, healed) == []

    @pytest.mark.parametrize("feed", FEED_SHAPES)
    def test_run_exhausted_attempts_raise(self, feed, tmp_path):
        spec = self._spec(feed, tmp_path)
        with faults.injected("sweep.run crash key=#0: attempts=99"):
            executor = SweepExecutor(retry=RetryPolicy(max_attempts=2))
            with pytest.raises(ExecutionError, match="permanently") as info:
                executor.run(spec)
        assert len(info.value.failures) == 1
        failure = info.value.failures[0]
        assert failure.spec == spec and failure.attempts == 2

    def test_run_hang_is_killed_at_the_deadline(self):
        spec = self._spec()
        baseline = SweepExecutor().run(spec)
        with faults.injected("sweep.run hang key=#0: attempts=1 delay=3600"):
            executor = SweepExecutor(
                retry=RetryPolicy(max_attempts=2, timeout_s=4.0)
            )
            healed = executor.run(spec)
        assert snapshot_diff(baseline, healed) == []
        assert _no_leaked_children()

    def test_run_interrupt_propagates(self):
        spec = self._spec()
        with faults.injected("pool.collect interrupt key=0"):
            with pytest.raises(KeyboardInterrupt):
                SweepExecutor().run(spec)

    def test_run_default_policy_still_fails_fast(self):
        spec = self._spec()
        with faults.injected("sweep.run crash key=#0: attempts=1"):
            with pytest.raises(ExecutionError):
                SweepExecutor().run(spec)


# ----------------------------------------------------------------------
# Inline pool.collect parity (the 1-worker path used to skip the site)
# ----------------------------------------------------------------------
class TestInlineCollectParity:
    def test_inline_sweep_fires_pool_collect(self):
        plan = _tiny_plan()
        with faults.injected("pool.collect interrupt key=0"):
            outcome = SweepExecutor(workers=1).run_plan(plan)
        assert outcome.interrupted and not outcome.ok
        # The interrupt fired *after* run 0 was collected: its result is
        # preserved, the remainder is marked interrupted — exactly the
        # pooled path's semantics.
        assert len(outcome.results) == 1
        assert len(outcome.failures) == len(plan) - 1
        assert all(f.kind == "interrupted" for f in outcome.failures)

    def test_inline_collect_counts_match_pooled(self):
        payloads = [1, 2, 3]
        with faults.injected("pool.collect slow delay=0"):
            inline = run_tasks(payloads, _double, max_workers=1)
            inline_fired = sum(faults.fire_counts().values())
        faults.clear()
        with faults.injected("pool.collect slow delay=0"):
            pooled = run_tasks(payloads, _double, max_workers=2)
            pooled_fired = sum(faults.fire_counts().values())
        assert inline.results == pooled.results
        assert inline_fired == pooled_fired == len(payloads)


def _double(value):
    return value * 2


# ----------------------------------------------------------------------
# Pool recovery reaps every worker, every time (repeat-N regression)
# ----------------------------------------------------------------------
#: Repetitions per scenario: the leak this pins was intermittent.
REAP_REPEATS = 5


def _fire_and_double(value):
    faults.fire("sweep.run", key=f"#{value}")
    return value * 2


@pytest.mark.parametrize(
    "rule, policy",
    [
        ("sweep.run exit key=#1 attempts=1", RetryPolicy(max_attempts=3)),
        (
            "sweep.run hang key=#0 attempts=1 delay=3600",
            RetryPolicy(max_attempts=2, timeout_s=1.5),
        ),
    ],
    ids=["worker-death", "deadline-kill"],
)
def test_pool_recovery_reaps_every_worker_repeatedly(rule, policy):
    """Regression: ``run_tasks`` returned while the killed pool's manager
    thread was still reaping workers.  A worker that thread had already
    reaped then read as alive to anyone else (their ``waitpid`` failed
    with ECHILD before the exit code was stored), which is how
    ``_no_leaked_children`` flaked after the worker-death and
    deadline-kill scenarios.  Every recovery must now leave no pool
    thread running and no child that reads as alive, however often it
    is polled."""
    threads_before = threading.active_count()
    for _ in range(REAP_REPEATS):
        with faults.injected(rule):
            report = run_tasks(
                list(range(4)), _fire_and_double, policy=policy, max_workers=2
            )
        assert report.ok and report.pool_rebuilds >= 1
        assert report.results == {i: i * 2 for i in range(4)}
        assert threading.active_count() <= threads_before
        assert all(_no_leaked_children() for _ in range(200))


# ----------------------------------------------------------------------
# cached_fraction regression: failures count against the full plan
# ----------------------------------------------------------------------
def test_cached_fraction_counts_failures_against_plan(tmp_path):
    plan = _tiny_plan()  # 4 specs
    SweepExecutor(cache_dir=tmp_path).run_plan(plan)

    # Evict one entry so exactly one spec must re-execute — and fail.
    cache = SnapshotCache(tmp_path)
    cache.path_for(plan.specs[1]).unlink()
    with faults.injected("sweep.run crash key=#0: attempts=99"):
        outcome = SweepExecutor(
            cache_dir=tmp_path,
            retry=RetryPolicy(max_attempts=2),
            keep_going=True,
        ).run_plan(plan)

    assert not outcome.ok and len(outcome.failures) == 1
    assert len(outcome.results) == len(plan) - 1
    # 3 of 4 planned runs came from cache.  The old computation divided
    # by the completed-result count and reported 3/3 = 1.0, letting a
    # partly failed sweep sail through --min-cache-fraction gates.
    assert outcome.cached_fraction == pytest.approx(3 / 4)
