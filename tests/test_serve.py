"""The sweep service: wire protocol, coalescing, and the server itself.

The load-bearing claims under test:

- K concurrent requests for one cold spec cause exactly **one**
  execution (``coalescer.started == 1``), and every response carries a
  snapshot **bit-identical** (``snapshot_diff == []``) to a direct
  :class:`SweepExecutor` run of the same spec;
- warm requests are answered from the memory/disk cache tiers without
  executing;
- cold requests for a spec owned by another shard are refused with a
  421 while warm ones are served regardless of ownership;
- a fault injected at the ``serve.request`` site turns into a 500 for
  that request and the server keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import faults
from repro.analysis.executor import SweepExecutor
from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import ConfigurationError, ServeError
from repro.serve import (
    STATUS_WRONG_SHARD,
    BackgroundServer,
    RunCoalescer,
    ServeClient,
    SweepServer,
    run_load,
    shard_of,
    spec_from_wire,
    spec_to_wire,
    specs_from_wire,
)
from repro.serve.protocol import decode_events, encode_event
from repro.stats.compare import snapshot_diff
from repro.stats.snapshot import MachineSnapshot

#: Deliberately tiny settings so service tests stay fast.
TINY = ExperimentSettings(scale=16, accesses=1500, multiprocess_accesses=800)


@pytest.fixture(autouse=True)
def _isolated_faults():
    faults.clear()
    yield
    faults.clear()


def _spec(benchmark="barnes", policy="allarm", **kwargs):
    return RunSpec(benchmark, policy, settings=TINY, **kwargs)


@pytest.fixture
def server(tmp_path):
    """One background server over a fresh cache; yields the running server."""
    instance = SweepServer(
        executor=SweepExecutor(cache_dir=tmp_path / "cache"), parallel=4
    )
    with BackgroundServer(instance):
        yield instance


@pytest.fixture
def client(server):
    with ServeClient(server.host, server.port) as connected:
        yield connected


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
class TestWireProtocol:
    def test_spec_round_trips(self):
        spec = _spec(pf_size=256 * 1024, layout="2p", engine="reference")
        assert spec_from_wire(spec_to_wire(spec)) == spec
        assert spec_from_wire(spec_to_wire(spec)).digest() == spec.digest()

    def test_settings_survive_the_wire(self):
        wire = spec_to_wire(_spec())
        rebuilt = spec_from_wire(wire)
        assert rebuilt.settings == TINY

    def test_defaults_apply_when_fields_are_omitted(self):
        rebuilt = spec_from_wire({"benchmark": "barnes", "policy": "allarm"})
        assert rebuilt == RunSpec("barnes", "allarm")

    def test_trace_source_is_rejected(self):
        wire = spec_to_wire(_spec())
        wire["trace_source"] = "/etc/passwd"
        with pytest.raises(ServeError, match="trace_source"):
            spec_from_wire(wire)

    def test_unknown_fields_are_rejected(self):
        wire = spec_to_wire(_spec())
        wire["pf_sise"] = 1024  # the typo must 400, not silently default
        with pytest.raises(ServeError, match="pf_sise"):
            spec_from_wire(wire)

    def test_unknown_settings_fields_are_rejected(self):
        wire = spec_to_wire(_spec())
        wire["settings"]["sede"] = 1
        with pytest.raises(ServeError, match="sede"):
            spec_from_wire(wire)

    def test_unknown_benchmark_maps_to_serve_error(self):
        with pytest.raises(ServeError, match="unknown benchmark"):
            spec_from_wire({"benchmark": "nope", "policy": "allarm"})

    @pytest.mark.parametrize("bad", [None, [], "spec", 7])
    def test_non_object_specs_are_rejected(self, bad):
        with pytest.raises(ServeError):
            spec_from_wire(bad)

    def test_specs_from_wire_requires_a_non_empty_list(self):
        with pytest.raises(ServeError):
            specs_from_wire([])
        with pytest.raises(ServeError):
            specs_from_wire({"benchmark": "barnes"})

    def test_events_round_trip(self):
        events = [{"event": "accepted", "runs": 2}, {"event": "summary"}]
        lines = [encode_event(event) for event in events]
        assert list(decode_events(lines)) == events

    def test_malformed_event_lines_fail_loudly(self):
        with pytest.raises(ServeError):
            list(decode_events([b"not json\n"]))
        with pytest.raises(ServeError):
            list(decode_events([b'{"no": "event-field"}\n']))

    def test_shard_of_is_stable_and_in_range(self):
        spec = _spec()
        owner = shard_of(spec, 4)
        assert 0 <= owner < 4
        assert shard_of(spec, 4) == owner  # pure function of the digest
        assert shard_of(spec, 1) == 0
        with pytest.raises(ConfigurationError):
            shard_of(spec, 0)

    def test_shard_routing_derives_from_spec_identity(self):
        # Routing must survive redeploys: it hashes digest() — a pure
        # function of the spec's content — so every process (and every
        # code version) computes the same owner for the same spec.
        spec = _spec()
        assert shard_of(spec, 8) == int(spec.digest()[:16], 16) % 8


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------
class TestRunCoalescer:
    def test_identical_specs_share_one_execution(self):
        async def scenario():
            coalescer = RunCoalescer()
            launched = 0
            release = asyncio.Event()

            async def runner():
                nonlocal launched
                launched += 1
                await release.wait()
                return "snapshot"

            spec = _spec()
            futures = [coalescer.submit(spec, runner) for _ in range(5)]
            assert coalescer.in_flight == 1
            assert [started for _f, started in futures] == [True] + [False] * 4
            release.set()
            results = await asyncio.gather(
                *[coalescer.wait(f) for f, _s in futures]
            )
            assert results == ["snapshot"] * 5
            assert coalescer.started == 1 and coalescer.coalesced == 4
            assert coalescer.in_flight == 0

        asyncio.run(scenario())

    def test_distinct_specs_do_not_coalesce(self):
        async def scenario():
            coalescer = RunCoalescer()

            async def runner():
                return "done"

            _f1, started1 = coalescer.submit(_spec("barnes"), runner)
            _f2, started2 = coalescer.submit(_spec("hotspot"), runner)
            assert started1 and started2
            assert coalescer.started == 2 and coalescer.coalesced == 0

        asyncio.run(scenario())

    def test_completion_clears_the_inflight_slot(self):
        async def scenario():
            coalescer = RunCoalescer()

            async def runner():
                return 1

            spec = _spec()
            future, _started = coalescer.submit(spec, runner)
            assert coalescer.is_inflight(spec)
            await coalescer.wait(future)
            assert not coalescer.is_inflight(spec)
            # A later request is a fresh execution, not a stale join.
            _f, started = coalescer.submit(spec, runner)
            assert started and coalescer.started == 2

        asyncio.run(scenario())

    def test_failures_propagate_to_every_waiter(self):
        async def scenario():
            coalescer = RunCoalescer()

            async def runner():
                raise RuntimeError("boom")

            spec = _spec()
            first, _ = coalescer.submit(spec, runner)
            second, _ = coalescer.submit(spec, runner)
            for future in (first, second):
                with pytest.raises(RuntimeError, match="boom"):
                    await coalescer.wait(future)
            assert not coalescer.is_inflight(spec)

        asyncio.run(scenario())

    def test_cancelled_waiter_does_not_cancel_the_execution(self):
        async def scenario():
            coalescer = RunCoalescer()
            release = asyncio.Event()

            async def runner():
                await release.wait()
                return "survived"

            spec = _spec()
            future, _ = coalescer.submit(spec, runner)
            waiter = asyncio.ensure_future(coalescer.wait(future))
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            # The shared execution is still alive; a new waiter gets it.
            release.set()
            assert await coalescer.wait(future) == "survived"

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Server integration (real sockets, background event loop)
# ----------------------------------------------------------------------
class TestServerBasics:
    def test_health(self, server, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["shard_index"] == 0 and health["shard_count"] == 1

    def test_cold_run_executes_then_serves_warm(self, server, client):
        spec = _spec()
        direct = SweepExecutor().run(spec)

        cold = client.run(spec)
        assert cold.source == "executed"
        rebuilt = MachineSnapshot.from_dict(cold.snapshot)
        assert snapshot_diff(direct, rebuilt) == []

        warm = client.run(spec)
        assert warm.source == "memory"
        assert warm.snapshot_digest() == cold.snapshot_digest()

        stats = client.stats()
        assert stats["executed"] == 1 and stats["warm_memory"] == 1

    def test_disk_tier_serves_other_processes_work(self, tmp_path):
        spec = _spec()
        cache_dir = tmp_path / "shared-cache"
        direct = SweepExecutor(cache_dir=cache_dir).run(spec)

        # A fresh server over the same cache dir: the entry is on disk,
        # not in its memory tier — served warm without executing.
        instance = SweepServer(executor=SweepExecutor(cache_dir=cache_dir))
        with BackgroundServer(instance):
            with ServeClient(instance.host, instance.port) as client:
                response = client.run(spec)
        assert response.source == "disk"
        assert instance.stats.executed == 0
        rebuilt = MachineSnapshot.from_dict(response.snapshot)
        assert snapshot_diff(direct, rebuilt) == []

    def test_unknown_route_is_404_and_connection_survives(self, server, client):
        with pytest.raises(ServeError) as info:
            client._json("GET", "/nope")
        assert info.value.status == 404
        assert client.health()["status"] == "ok"  # same connection still up

    def test_bad_wire_spec_is_400(self, server, client):
        with pytest.raises(ServeError) as info:
            client._json("POST", "/run", {"spec": {"benchmark": "barnes"}})
        assert info.value.status == 400
        assert client.stats()["bad_requests"] == 1

    def test_wire_schema_mismatch_is_refused(self, server, client):
        with pytest.raises(ServeError, match="wire schema"):
            client._json("POST", "/run", {
                "wire_schema": 99, "spec": spec_to_wire(_spec()),
            })


class TestCoalescingOverHttp:
    def test_concurrent_duplicates_execute_once_bit_identical(self, server):
        """The tentpole claim: K requests, one execution, one snapshot."""
        spec = _spec()
        direct = SweepExecutor().run(spec)
        duplicates = 6

        responses = []
        errors = []
        barrier = threading.Barrier(duplicates)

        def issue():
            try:
                with ServeClient(server.host, server.port) as client:
                    barrier.wait(timeout=10)
                    responses.append(client.run(spec))
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=issue) for _ in range(duplicates)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(responses) == duplicates

        # Exactly one execution; every duplicate coalesced or (if it
        # arrived after completion) hit the warm tier.
        assert server.coalescer.started == 1
        assert server.stats.executed == 1
        assert server.stats.coalesced + server.stats.warm_memory \
            == duplicates - 1

        # Every response is bit-identical to the direct executor run.
        for response in responses:
            rebuilt = MachineSnapshot.from_dict(response.snapshot)
            assert snapshot_diff(direct, rebuilt) == []

    def test_run_load_reports_the_same_invariant(self, server):
        report = run_load(
            server.host, server.port, [_spec()], requests=5, concurrency=5
        )
        assert report.ok == 5 and report.errors == 0
        assert report.executed == 1
        assert report.coalesced + report.warm_hits == 4
        assert report.bit_identical()
        assert report.throughput_rps > 0
        assert report.p99_ms >= report.p50_ms >= 0


class TestStreaming:
    def test_cold_stream_event_sequence(self, server, client):
        events = client.run_streaming(_spec())
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "scheduled", "completed"]
        assert events[0]["digest"] == _spec().digest()
        assert events[-1]["source"] == "executed"
        assert "snapshot" in events[-1]

    def test_warm_stream_event_sequence(self, server, client):
        client.run(_spec())
        events = client.run_streaming(_spec())
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "warm", "completed"]
        assert events[1]["source"] == "memory"

    def test_sweep_streams_per_run_completions(self, server, client):
        specs = [_spec("barnes"), _spec("hotspot")]
        events = client.sweep(specs)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "accepted" and kinds[-1] == "summary"
        assert kinds[1:-1].count("completed") == 2
        summary = events[-1]
        assert summary["runs"] == 2
        assert summary["completed"] == 2 and summary["failed"] == 0
        digests = {event["digest"] for event in events[1:-1]}
        assert digests == {spec.digest() for spec in specs}

    def test_sweep_rejects_empty_spec_list(self, server, client):
        with pytest.raises(ServeError, match="non-empty"):
            client.sweep([])


class TestSharding:
    def _specs_by_owner(self, shard_count, want_each=1):
        """One spec owned by shard 0 and one by a different shard."""
        owned, foreign = [], []
        for seed in range(64):
            spec = RunSpec(
                "barnes", "allarm",
                settings=ExperimentSettings(
                    scale=16, accesses=1500,
                    multiprocess_accesses=800, seed=seed,
                ),
            )
            bucket = owned if shard_of(spec, shard_count) == 0 else foreign
            if len(bucket) < want_each:
                bucket.append(spec)
            if len(owned) >= want_each and len(foreign) >= want_each:
                return owned, foreign
        raise AssertionError("could not find specs for both shards")

    def test_cold_foreign_spec_is_421_warm_is_served(self, tmp_path):
        owned, foreign = self._specs_by_owner(shard_count=2)
        cache_dir = tmp_path / "cache"
        instance = SweepServer(
            executor=SweepExecutor(cache_dir=cache_dir),
            shard_index=0, shard_count=2,
        )
        with BackgroundServer(instance):
            with ServeClient(instance.host, instance.port) as client:
                # Owned spec executes here.
                assert client.run(owned[0]).source == "executed"
                # Cold foreign spec: refused, with the owner named.
                with pytest.raises(ServeError) as info:
                    client.run(foreign[0])
                assert info.value.status == STATUS_WRONG_SHARD
                assert instance.stats.rejected_shard == 1
                # Another process (stand-in: a direct executor on the
                # shared cache) completes it; now this shard serves it
                # warm despite not owning it.
                SweepExecutor(cache_dir=cache_dir).run(foreign[0])
                assert client.run(foreign[0]).source == "disk"
        assert instance.stats.executed == 1

    def test_shard_validation(self):
        with pytest.raises(ConfigurationError):
            SweepServer(shard_count=0)
        with pytest.raises(ConfigurationError):
            SweepServer(shard_index=2, shard_count=2)


class TestServeFaults:
    def test_request_fault_is_500_and_server_survives(self, server, client):
        with faults.injected("serve.request crash key=/run fires=1"):
            with pytest.raises(ServeError) as info:
                client.run(_spec())
            assert info.value.status == 500
            # The very next request on a fresh connection succeeds.
            with ServeClient(server.host, server.port) as second:
                assert second.run(_spec()).source == "executed"
        assert server.stats.failures == 1

    def test_execution_failure_is_500_with_digest(self, server, client):
        with faults.injected("sweep.run crash key=#0: attempts=99"):
            with pytest.raises(ServeError) as info:
                client.run(_spec())
        assert info.value.status == 500
        assert server.stats.failures == 1
        # The failed run does not poison the server: clear the faults
        # and the same spec executes cleanly.
        faults.clear()
        assert client.run(_spec()).source == "executed"

    def test_streamed_failure_emits_failed_event(self, server, client):
        with faults.injected("sweep.run crash key=#0: attempts=99"):
            events = client.run_streaming(_spec())
        kinds = [event["event"] for event in events]
        assert kinds == ["accepted", "scheduled", "failed"]
        assert events[-1]["status"] == 500
