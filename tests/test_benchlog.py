"""Regression tests for the persisted benchmark trajectory store.

The original implementation could silently wipe the whole trajectory:
``load_bench_log`` degraded *any* damage — one corrupt byte, a stale
schema field, a stray non-dict entry — to an empty log, and the next
append rewrote the file with only the new entry.  Outside a git checkout
or on a dirty tree the ``git_sha`` stamp was also misleading.  These
tests pin the fixed behaviour: schema validation on append, salvage
instead of wipe, corrupt-file preservation, and robust sha resolution.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.analysis.benchlog import (
    BENCH_LOG_SCHEMA,
    MAX_ENTRIES,
    append_bench_entry,
    git_sha,
    latest_entry,
    load_bench_log,
    validate_entry,
)


def read_json(path):
    return json.loads(path.read_text())


@pytest.fixture(autouse=True)
def logging_enabled(monkeypatch):
    """Isolate from the host environment (CI runs tier-1 with logging off)."""
    monkeypatch.setenv("REPRO_BENCH_LOG", "1")


class TestAppendAndLoad:
    def test_round_trip_and_stamping(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        append_bench_entry(log, {"bench": "x", "rate": 1.5})
        append_bench_entry(log, {"bench": "y", "rate": 2.5})
        data = load_bench_log(log)
        assert data["schema"] == BENCH_LOG_SCHEMA
        assert [e["bench"] for e in data["entries"]] == ["x", "y"]
        for entry in data["entries"]:
            assert entry["git_sha"] == "cafebabe"
            assert "timestamp" in entry
        assert latest_entry(log, bench="x")["rate"] == 1.5

    def test_entry_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        payload = {
            "schema": BENCH_LOG_SCHEMA,
            "entries": [{"bench": "old", "n": i} for i in range(MAX_ENTRIES)],
        }
        log.write_text(json.dumps(payload))
        append_bench_entry(log, {"bench": "new"})
        entries = load_bench_log(log)["entries"]
        assert len(entries) == MAX_ENTRIES
        assert entries[-1]["bench"] == "new"
        assert entries[0]["n"] == 1  # oldest scrolled off

    def test_disabled_logging_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_LOG", "0")
        log = tmp_path / "BENCH.json"
        assert append_bench_entry(log, {"bench": "x"}) is None
        assert not log.exists()


class TestSchemaValidationOnAppend:
    @pytest.mark.parametrize(
        "bad",
        [
            {},
            "not a dict",
            {"": 1},
            {3: "x"},
            {"nested": {"a": 1}},
            {"listy": [1, 2]},
            {"nan": float("nan")},
            {"inf": float("inf")},
            {"timestamp": "forged"},
            {"git_sha": "forged"},
        ],
    )
    def test_rejects_malformed_entries(self, tmp_path, bad):
        with pytest.raises(ValueError):
            validate_entry(bad)
        log = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            append_bench_entry(log, bad)
        assert not log.exists()

    def test_accepts_flat_scalar_entries(self):
        validate_entry({"bench": "x", "rate": 1.0, "n": 3, "ok": True, "note": None})


class TestBatchedSchema:
    """``bench: "batched"`` entries carry the kernel-shape fields."""

    def good(self, **overrides):
        entry = {
            "bench": "batched",
            "family": "baseline",
            "accesses_per_s": 8.0e6,
            "chunk_records": 8192,
            "batched_residue_ratio": 0.002,
        }
        entry.update(overrides)
        return entry

    def test_accepts_well_formed_batched_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        validate_entry(self.good())
        log = tmp_path / "BENCH.json"
        append_bench_entry(log, self.good())
        stored = latest_entry(log, bench="batched")
        assert stored["chunk_records"] == 8192
        assert stored["batched_residue_ratio"] == 0.002

    def test_ratio_boundaries_are_inclusive(self):
        validate_entry(self.good(batched_residue_ratio=0.0))
        validate_entry(self.good(batched_residue_ratio=1.0))
        validate_entry(self.good(batched_residue_ratio=1))  # int in range is fine

    @pytest.mark.parametrize(
        "overrides",
        [
            {"chunk_records": None},  # missing-equivalent
            {"chunk_records": 0},
            {"chunk_records": -8192},
            {"chunk_records": 8192.0},  # must be an int
            {"chunk_records": True},  # bool is not a count
            {"batched_residue_ratio": None},
            {"batched_residue_ratio": -0.01},
            {"batched_residue_ratio": 1.01},
            {"batched_residue_ratio": True},
            {"batched_residue_ratio": "0.5"},
        ],
    )
    def test_rejects_malformed_batched_fields(self, tmp_path, overrides):
        bad = self.good(**overrides)
        with pytest.raises(ValueError):
            validate_entry(bad)
        log = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            append_bench_entry(log, bad)
        assert not log.exists()

    def test_missing_batched_fields_rejected(self):
        entry = self.good()
        del entry["chunk_records"]
        with pytest.raises(ValueError):
            validate_entry(entry)
        entry = self.good()
        del entry["batched_residue_ratio"]
        with pytest.raises(ValueError):
            validate_entry(entry)

    def test_other_benches_do_not_need_batched_fields(self):
        # Backward compatibility: the batched requirements are scoped to
        # bench == "batched" only.
        validate_entry({"bench": "hot_path", "engine": "packed", "rate": 1.0e6})


class TestFaultsSchema:
    """``bench: "faults"`` entries carry the chaos-run counters."""

    def good(self, **overrides):
        entry = {
            "bench": "faults",
            "engine": "packed",
            "scenario": "sweep-crash-exit-torn",
            "retries": 2,
            "timeouts": 0,
            "quarantines": 1,
        }
        entry.update(overrides)
        return entry

    def test_accepts_well_formed_faults_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        validate_entry(self.good())
        log = tmp_path / "BENCH.json"
        append_bench_entry(log, self.good())
        stored = latest_entry(log, bench="faults")
        assert stored["retries"] == 2
        assert stored["quarantines"] == 1

    def test_zero_counters_are_valid(self):
        validate_entry(self.good(retries=0, timeouts=0, quarantines=0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"retries": None},
            {"retries": -1},
            {"retries": 2.0},  # must be an int
            {"retries": True},  # bool is not a count
            {"timeouts": None},
            {"timeouts": -3},
            {"timeouts": "0"},
            {"quarantines": None},
            {"quarantines": -1},
            {"quarantines": False},
        ],
    )
    def test_rejects_malformed_faults_fields(self, tmp_path, overrides):
        bad = self.good(**overrides)
        with pytest.raises(ValueError):
            validate_entry(bad)
        log = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            append_bench_entry(log, bad)
        assert not log.exists()

    def test_missing_faults_fields_rejected(self):
        for field in ("retries", "timeouts", "quarantines"):
            entry = self.good()
            del entry[field]
            with pytest.raises(ValueError, match=field):
                validate_entry(entry)

    def test_other_benches_do_not_need_faults_fields(self):
        validate_entry({"bench": "hotpath", "accesses_per_s": 1.0e6})


class TestServeSchema:
    """``bench: "serve"`` entries carry the service load-run shape."""

    def good(self, **overrides):
        entry = {
            "bench": "serve",
            "requests": 32,
            "concurrency": 8,
            "executed": 2,
            "coalesced": 12,
            "warm_hits": 18,
            "throughput_rps": 140.5,
            "p50_ms": 12.0,
            "p99_ms": 55.0,
        }
        entry.update(overrides)
        return entry

    def test_accepts_well_formed_serve_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        validate_entry(self.good())
        log = tmp_path / "BENCH.json"
        append_bench_entry(log, self.good())
        stored = latest_entry(log, bench="serve")
        assert stored["coalesced"] == 12
        assert stored["throughput_rps"] == 140.5

    def test_zero_coalesced_and_warm_are_valid(self):
        # A fully cold, duplicate-free run coalesces nothing.
        validate_entry(self.good(coalesced=0, warm_hits=0, p50_ms=0, p99_ms=0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"requests": 0},
            {"requests": None},
            {"requests": 8.0},  # must be an int
            {"requests": True},  # bool is not a count
            {"concurrency": 0},
            {"concurrency": -2},
            {"coalesced": -1},
            {"coalesced": None},
            {"coalesced": "3"},
            {"warm_hits": -1},
            {"warm_hits": False},
            {"throughput_rps": 0},
            {"throughput_rps": -1.0},
            {"throughput_rps": None},
            {"p50_ms": -0.1},
            {"p50_ms": None},
            {"p99_ms": -5},
            {"p99_ms": "fast"},
        ],
    )
    def test_rejects_malformed_serve_fields(self, tmp_path, overrides):
        bad = self.good(**overrides)
        with pytest.raises(ValueError):
            validate_entry(bad)
        log = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            append_bench_entry(log, bad)
        assert not log.exists()

    def test_missing_serve_fields_rejected(self):
        for field in (
            "requests", "concurrency", "coalesced", "warm_hits",
            "throughput_rps", "p50_ms", "p99_ms",
        ):
            entry = self.good()
            del entry[field]
            with pytest.raises(ValueError, match=field):
                validate_entry(entry)

    def test_other_benches_do_not_need_serve_fields(self):
        validate_entry({"bench": "hotpath", "accesses_per_s": 1.0e6})


class TestScenariosSchema:
    """``bench: "scenarios"`` entries carry the generated-set shape."""

    def good(self, **overrides):
        entry = {
            "bench": "scenarios",
            "families": 8,
            "generator_seed": 11,
            "gen_records_per_s": 1.4e6,
        }
        entry.update(overrides)
        return entry

    def test_accepts_well_formed_scenarios_entry(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        validate_entry(self.good())
        log = tmp_path / "BENCH.json"
        append_bench_entry(log, self.good())
        stored = latest_entry(log, bench="scenarios")
        assert stored["families"] == 8
        assert stored["generator_seed"] == 11

    def test_generator_seed_zero_is_valid(self):
        # Seed 0 is a legitimate generator seed, not a missing value.
        validate_entry(self.good(generator_seed=0))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"families": 0},
            {"families": -3},
            {"families": None},
            {"families": 8.0},  # must be an int
            {"families": True},  # bool is not a count
            {"generator_seed": -1},
            {"generator_seed": None},
            {"generator_seed": "11"},
            {"generator_seed": False},
            {"gen_records_per_s": 0},
            {"gen_records_per_s": -1.0},
            {"gen_records_per_s": None},
            {"gen_records_per_s": "fast"},
        ],
    )
    def test_rejects_malformed_scenarios_fields(self, tmp_path, overrides):
        bad = self.good(**overrides)
        with pytest.raises(ValueError):
            validate_entry(bad)
        log = tmp_path / "BENCH.json"
        with pytest.raises(ValueError):
            append_bench_entry(log, bad)
        assert not log.exists()

    def test_missing_scenarios_fields_rejected(self):
        for field in ("families", "generator_seed", "gen_records_per_s"):
            entry = self.good()
            del entry[field]
            with pytest.raises(ValueError, match=field):
                validate_entry(entry)

    def test_other_benches_do_not_need_scenarios_fields(self):
        validate_entry({"bench": "hotpath", "accesses_per_s": 1.0e6})


class TestDamageSalvage:
    """One bad byte must never erase the whole perf history again."""

    def test_stale_schema_keeps_valid_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        log.write_text(
            json.dumps({"schema": 999, "entries": [{"bench": "old", "rate": 1.0}]})
        )
        append_bench_entry(log, {"bench": "new"})
        entries = load_bench_log(log)["entries"]
        assert [e["bench"] for e in entries] == ["old", "new"]

    def test_stray_non_dict_entries_are_dropped_not_fatal(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        log.write_text(
            json.dumps(
                {
                    "schema": BENCH_LOG_SCHEMA,
                    "entries": [{"bench": "old"}, "garbage", 42, {"bench": "old2"}],
                }
            )
        )
        append_bench_entry(log, {"bench": "new"})
        entries = load_bench_log(log)["entries"]
        assert [e["bench"] for e in entries] == ["old", "old2", "new"]

    def test_unparsable_file_is_preserved_not_overwritten(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        log.write_text("{this is not json")
        append_bench_entry(log, {"bench": "new"})
        assert [e["bench"] for e in load_bench_log(log)["entries"]] == ["new"]
        backup = tmp_path / "BENCH.json.corrupt"
        assert backup.read_text() == "{this is not json"

    def test_valid_empty_log_is_not_flagged_corrupt(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        log.write_text(json.dumps({"schema": BENCH_LOG_SCHEMA, "entries": []}))
        append_bench_entry(log, {"bench": "new"})
        assert [e["bench"] for e in load_bench_log(log)["entries"]] == ["new"]
        assert not (tmp_path / "BENCH.json.corrupt").exists()

    def test_second_corruption_does_not_clobber_first_backup(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_GIT_SHA", "cafebabe")
        log = tmp_path / "BENCH.json"
        log.write_text("first damage")
        append_bench_entry(log, {"bench": "a"})
        log.write_text("second damage")
        append_bench_entry(log, {"bench": "b"})
        assert (tmp_path / "BENCH.json.corrupt").read_text() == "first damage"
        assert (tmp_path / "BENCH.json.corrupt-1").read_text() == "second damage"
        assert [e["bench"] for e in load_bench_log(log)["entries"]] == ["b"]


class TestShaResolution:
    def test_env_override_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_GIT_SHA", "deadbeef")
        assert git_sha(tmp_path) == "deadbeef"

    def test_outside_checkout_is_unknown(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        assert git_sha(tmp_path) == "unknown"

    def test_nonexistent_root_does_not_crash(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        assert isinstance(git_sha(tmp_path / "missing" / "deeper"), str)

    def _git(self, *args, cwd):
        return subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True, timeout=30
        )

    def test_real_checkout_sha_and_dirty_suffix(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        if self._git("--version", cwd=tmp_path).returncode != 0:
            pytest.skip("git unavailable")
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git("init", "-q", cwd=repo)
        self._git("config", "user.email", "t@example.com", cwd=repo)
        self._git("config", "user.name", "t", cwd=repo)
        (repo / "file.txt").write_text("one\n")
        self._git("add", "file.txt", cwd=repo)
        commit = self._git("commit", "-q", "-m", "init", cwd=repo)
        if commit.returncode != 0:
            pytest.skip(f"cannot commit in sandbox: {commit.stderr.strip()}")
        clean = git_sha(repo)
        assert len(clean) == 40 and "+dirty" not in clean
        # Resolution walks up from nested paths inside the checkout.
        nested = repo / "a" / "b"
        nested.mkdir(parents=True)
        assert git_sha(nested) == clean
        (repo / "file.txt").write_text("two\n")
        assert git_sha(repo) == clean + "+dirty"

    def test_trajectory_files_do_not_count_as_dirty(self, tmp_path, monkeypatch):
        # Appending to a git-tracked BENCH_*.json must not make every
        # subsequent entry of the same run read "+dirty".
        monkeypatch.delenv("REPRO_GIT_SHA", raising=False)
        if self._git("--version", cwd=tmp_path).returncode != 0:
            pytest.skip("git unavailable")
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git("init", "-q", cwd=repo)
        self._git("config", "user.email", "t@example.com", cwd=repo)
        self._git("config", "user.name", "t", cwd=repo)
        (repo / "BENCH_hotpath.json").write_text("{}")
        self._git("add", "BENCH_hotpath.json", cwd=repo)
        commit = self._git("commit", "-q", "-m", "init", cwd=repo)
        if commit.returncode != 0:
            pytest.skip(f"cannot commit in sandbox: {commit.stderr.strip()}")
        clean = git_sha(repo)
        assert "+dirty" not in clean
        # Modified trajectory + a brand-new .corrupt backup: still clean.
        (repo / "BENCH_hotpath.json").write_text('{"schema": 1, "entries": []}')
        (repo / "BENCH_hotpath.json.corrupt").write_text("damage")
        assert git_sha(repo) == clean
        # Real source damage still flips the suffix.
        (repo / "code.py").write_text("x = 1\n")
        assert git_sha(repo) == clean + "+dirty"
