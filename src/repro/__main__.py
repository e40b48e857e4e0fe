"""Command line for the sweep engine: ``python -m repro <command>``.

Commands
--------
``sweep``
    Run a named sweep plan (``fig3``, ``fig3h``, ``fig4``, ``micro`` or
    ``all``) through the :class:`~repro.analysis.executor.SweepExecutor`,
    optionally fanning runs out over worker processes, caching snapshots
    on disk and replaying recorded traces, and print a per-run result
    table.
``trace record``
    Capture the workload streams of a plan as v3 blocked traces, one
    file per distinct stream (``--epoch-records N`` adds the v3.1
    seekable epoch index).
``trace replay``
    Replay one trace file against a configurable machine and print the
    run's headline statistics (a v3 blocked trace replays through the
    chunk kernel, a v1 text trace record by record).
``trace info``
    Summarise a trace file (format, records, size, access mix, epochs).
``replay``
    Checkpointed replay of one trace: periodic machine checkpoints
    (``--checkpoint-dir``, every ``--epoch-records`` accesses), resumable
    after a kill (``--resume``).  Snapshots are bit-identical to a plain
    uninterrupted replay.
``golden record``
    Run the canonical conformance grid and (re)write the golden-snapshot
    corpus (``tests/golden/corpus.json`` by default).
``golden check``
    Re-run the grid on the chosen engine, from a record source and from
    a chunk source, and verify every snapshot digest against the
    committed corpus; exits non-zero on any mismatch.
``serve``
    Run the coalescing cache-front sweep server: warm snapshots from the
    cache tiers, identical in-flight requests coalesced into a single
    execution, cold work sharded across server processes sharing one
    cache directory (see ``docs/serving.md``).
``serve-bench``
    Load-generate against a sweep server (or a self-hosted ephemeral
    one) and report throughput, latency percentiles and the server's
    executed/coalesced/warm counters; optionally append the measurement
    to a ``bench:"serve"`` trajectory file.
``scenarios sample``
    Sample a reproducible set of generated workload families from the
    parameter distributions of :mod:`repro.workloads.generator`, print
    the set, and optionally write its JSON manifest / append a
    ``bench:"scenarios"`` generation-throughput entry.
``scenarios describe``
    Print the full spec (regions, mix, phases, seeds, digest) a
    ``scenario-<seed>-<index>`` name deterministically resolves to.
``plans``
    List the named plans and how many runs each contains at the current
    settings.
``version``
    Print the library version banner.

Examples
--------
::

    python -m repro sweep --plan fig3 --workers 4 --cache-dir .repro-cache
    python -m repro sweep --plan fig3 --engine reference --cache-dir .repro-cache
    python -m repro sweep --plan all --workers 4 --retries 2 \\
        --run-timeout 300 --keep-going
    python -m repro sweep --plan fig3 --trace-dir .repro-traces --record-traces
    python -m repro trace record --plan micro --trace-dir .repro-traces
    python -m repro trace record --plan micro --trace-dir .repro-traces \\
        --epoch-records 98304
    python -m repro trace replay .repro-traces/<digest>.rpt3 --policy allarm
    python -m repro trace info .repro-traces/<digest>.rpt3
    python -m repro replay .repro-traces/<digest>.rpt3 \\
        --epoch-records 98304 --checkpoint-dir .repro-ckpt --resume
    python -m repro golden record
    python -m repro golden check --engine reference
    python -m repro serve --cache-dir .repro-cache --retries 2
    python -m repro serve --port 8643 --shard-index 1 --shard-count 2 \\
        --cache-dir .repro-cache
    python -m repro serve-bench --plan micro --specs 2 --requests 32 \\
        --concurrency 8 --bench-log BENCH_serve.json
    python -m repro scenarios sample --seed 11 --count 8 \\
        --manifest scenarios.json
    python -m repro scenarios describe scenario-11-3
    python -m repro sweep --plan scenarios --workers 4
    python -m repro plans
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro.analysis.executor import (
    SOURCE_DISK,
    SOURCE_EXECUTED,
    SOURCE_MEMORY,
    SOURCE_REPLAYED,
    SweepExecutor,
    SweepOutcome,
    record_spec_trace,
    trace_file_name,
)
from repro.analysis.plan import (
    PLAN_BUILDERS,
    ExperimentSettings,
    build_plan,
)
from repro.analysis.retrypool import RetryPolicy
from repro.errors import ExecutionError, ReproError
from repro.system.fastcore import DEFAULT_ENGINE, ENGINES
from repro.trace.binary import DEFAULT_BLOCK_RECORDS
from repro.version import version_string


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    """Environment-derived settings with command-line overrides applied."""
    settings = ExperimentSettings.from_environment()
    overrides = {}
    if args.accesses is not None:
        overrides["accesses"] = args.accesses
    if args.mp_accesses is not None:
        overrides["multiprocess_accesses"] = args.mp_accesses
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        from dataclasses import replace

        settings = replace(settings, **overrides)
    return settings


def _parse_benchmarks(value: Optional[str]) -> Optional[List[str]]:
    if not value:
        return None
    return [name.strip() for name in value.split(",") if name.strip()]


def format_outcome_table(outcome: SweepOutcome) -> str:
    """Render one sweep outcome as an aligned text table."""
    header = (
        f"{'benchmark':<16} {'policy':<9} {'layout':<6} {'pf(kB)':>7} "
        f"{'time(ns)':>14} {'l2miss':>9} {'pf_evict':>9} {'local%':>7} {'source':>9}"
    )
    lines = [header, "-" * len(header)]
    for result in outcome.results:
        spec, snap = result.spec, result.snapshot
        lines.append(
            f"{spec.benchmark:<16} {spec.policy:<9} {spec.layout:<6} "
            f"{spec.pf_size // 1024:>7} {snap.execution_time_ns:>14.1f} "
            f"{snap.l2_misses:>9} {snap.pf_evictions:>9} "
            f"{snap.local_fraction * 100:>6.1f}% {result.source:>9}"
        )
    return "\n".join(lines)


def format_outcome_summary(outcome: SweepOutcome) -> str:
    """One-line provenance summary of a sweep outcome."""
    counts = outcome.counts_by_source()
    generated = outcome.streams_generated
    return (
        f"{len(outcome)} runs in {outcome.elapsed_s:.2f}s — "
        f"{counts[SOURCE_EXECUTED]} executed, "
        f"{counts[SOURCE_REPLAYED]} replayed from traces, "
        f"{counts[SOURCE_DISK]} from disk cache, "
        f"{counts[SOURCE_MEMORY]} from memory "
        f"({outcome.cached_fraction * 100:.0f}% cached), "
        f"{generated} stream{'' if generated == 1 else 's'} generated"
    )


def _retry_policy_from_args(args: argparse.Namespace) -> RetryPolicy:
    """Build the run-level retry policy from the shared CLI flags."""
    return RetryPolicy(
        max_attempts=max(1, args.retries + 1),
        base_delay_s=args.retry_delay,
        timeout_s=args.run_timeout,
    )


def format_failures(outcome: SweepOutcome) -> str:
    """Render a sweep's permanent failures, one line each."""
    lines = []
    for failure in outcome.failures:
        spec = failure.spec
        lines.append(
            f"FAILED {spec.workload_name} {spec.policy} "
            f"pf{spec.pf_size // 1024}kB — {failure.kind} after "
            f"{failure.attempts} attempt(s): {failure.error}"
        )
    return "\n".join(lines)


def _report_sweep_outcome(outcome: SweepOutcome) -> int:
    """Print a finished (possibly partial) outcome; return the exit code."""
    print(format_outcome_table(outcome))
    if outcome.retries or outcome.timeouts or outcome.pool_rebuilds:
        print(
            f"fault tolerance: {outcome.retries} retries, "
            f"{outcome.timeouts} timeouts, "
            f"{outcome.pool_rebuilds} pool rebuilds"
        )
    if outcome.failures:
        print(format_failures(outcome), file=sys.stderr)
    print(format_outcome_summary(outcome))
    if outcome.interrupted:
        print("interrupted: partial results above", file=sys.stderr)
        return 130
    return 1 if outcome.failures else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    benchmarks = _parse_benchmarks(args.benchmarks)
    plan = build_plan(args.plan, settings, benchmarks)
    if args.engine is not None:
        plan = plan.with_engine(args.engine)
    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    executor = SweepExecutor(
        workers=args.workers,
        cache_dir=cache_dir,
        trace_dir=args.trace_dir,
        record_traces=args.record_traces,
        retry=_retry_policy_from_args(args),
        keep_going=args.keep_going,
    )

    engines = sorted({spec.engine for spec in plan})
    print(
        f"plan {plan.name!r}: {len(plan)} runs, workers={executor.workers}, "
        f"engine={'/'.join(engines)}, "
        f"cache={'off' if cache_dir is None else cache_dir}, "
        f"traces={'off' if args.trace_dir is None else args.trace_dir}"
    )
    try:
        outcome = executor.run_plan(plan)
    except ExecutionError as exc:
        # The partial outcome still carries every run that finished.
        if exc.outcome is not None:
            code = _report_sweep_outcome(exc.outcome)
        else:
            code = 1
        print(f"error: {exc}", file=sys.stderr)
        return code or 1
    code = _report_sweep_outcome(outcome)
    if code:
        return code

    if args.min_cache_fraction is not None:
        if outcome.cached_fraction < args.min_cache_fraction:
            print(
                f"error: cached fraction {outcome.cached_fraction:.2f} below "
                f"required {args.min_cache_fraction:.2f}",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_trace_record(args: argparse.Namespace) -> int:
    from pathlib import Path

    settings = _settings_from_args(args)
    benchmarks = _parse_benchmarks(args.benchmarks)
    plan = build_plan(args.plan, settings, benchmarks)
    trace_dir = Path(args.trace_dir)

    # Many specs share one workload stream (the policy/filter-size grid
    # varies the machine, not the workload); record each stream once.
    streams = {}
    for spec in plan:
        streams.setdefault(spec.stream_digest(), spec)

    print(
        f"plan {plan.name!r}: {len(plan)} runs over {len(streams)} distinct "
        f"workload streams -> {trace_dir}"
    )
    header = f"{'workload':<20} {'records':>9} {'bytes':>10} {'B/rec':>6}  file"
    print(header)
    print("-" * len(header))
    recorded = skipped = 0
    for _digest, spec in sorted(streams.items()):
        path = trace_dir / trace_file_name(spec)
        if path.exists() and not args.force:
            skipped += 1
            continue
        count = record_spec_trace(spec, path, epoch_records=args.epoch_records)
        size = path.stat().st_size
        print(
            f"{spec.workload_name:<20} {count:>9} {size:>10} "
            f"{size / max(1, count):>6.2f}  {path.name}"
        )
        recorded += 1
    print(f"{recorded} streams recorded, {skipped} already present")
    return 0


def _cmd_trace_replay(args: argparse.Namespace) -> int:
    from repro.system.config import experiment_config
    from repro.system.simulator import simulate
    from repro.trace.io import read_trace_native

    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    config = experiment_config(
        args.policy,
        nominal_probe_filter_coverage=args.pf_size,
        **overrides,
    )
    started = time.perf_counter()
    result = simulate(
        config,
        read_trace_native(args.path),
        workload_name=args.label or args.path,
        max_accesses=args.max_accesses,
        engine=args.engine,
    )
    elapsed = time.perf_counter() - started
    rate = result.accesses_simulated / elapsed if elapsed > 0 else 0.0
    print(
        f"replayed {result.accesses_simulated} accesses in {elapsed:.2f}s "
        f"({rate:,.0f}/s) under policy {args.policy!r} "
        f"(engine {result.engine!r})"
    )
    for key, value in result.snapshot.as_dict().items():
        print(f"  {key:<24} {value}")
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    from repro.trace.binary import inspect_trace

    info = inspect_trace(args.path)
    print(f"{info.path}: {info.format} trace")
    print(f"  records        {info.records}")
    print(f"  file bytes     {info.file_bytes}")
    print(f"  bytes/record   {info.bytes_per_record:.2f}")
    print(f"  reads          {info.reads}")
    print(f"  writes         {info.writes}")
    print(f"  instructions   {info.instructions}")
    print(f"  cores          {info.core_count}")
    print(f"  processes      {info.process_count}")
    blocks_label = "blocks" if info.format == "blocked" else "decode chunks"
    print(f"  {blocks_label:<14} {info.blocks}")
    print(f"  records/block  {info.records_per_block:.1f}")
    if info.format == "blocked":
        if info.epochs:
            print(
                f"  epochs         {info.epochs} "
                f"({info.epoch_records} records each)"
            )
        else:
            print("  epochs         none (no epoch index)")
    print(f"  decode MB/s    {info.decode_mb_s:.1f}")
    print("  streams")
    for stream, count in info.stream_records.items():
        print(f"    {stream:<12} {count}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.analysis.resume import record_checkpoints
    from repro.system.config import experiment_config

    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    config = experiment_config(
        args.policy,
        nominal_probe_filter_coverage=args.pf_size,
        **overrides,
    )
    started = time.perf_counter()
    result = record_checkpoints(
        config,
        args.path,
        epoch_records=args.epoch_records,
        checkpoint_dir=args.checkpoint_dir,
        engine=args.engine,
        resume=args.resume,
        retry=_retry_policy_from_args(args),
    )
    elapsed = time.perf_counter() - started
    replayed = result.accesses_simulated
    rate = replayed / elapsed if elapsed > 0 else 0.0
    print(
        f"replayed to access {replayed} in {elapsed:.2f}s "
        f"({rate:,.0f}/s), checkpoints in {args.checkpoint_dir}"
    )
    for key, value in result.snapshot.as_dict().items():
        print(f"  {key:<24} {value}")
    return 0


def _cmd_golden_record(args: argparse.Namespace) -> int:
    from repro.stats.goldens import golden_specs, record_corpus, spec_key

    specs = golden_specs()
    print(
        f"recording golden corpus: {len(specs)} runs "
        f"(engine {args.engine or 'per-spec default'}) -> {args.path}"
    )
    corpus = record_corpus(args.path, engine=args.engine)
    header = f"{'workload':<20} {'policy':<9} {'pf(kB)':>7}  digest"
    print(header)
    print("-" * len(header))
    entries = corpus["entries"]
    for spec in specs:
        digest = entries[spec_key(spec)]["digest"]
        print(
            f"{spec.workload_name:<20} {spec.policy:<9} "
            f"{spec.pf_size // 1024:>7}  {digest[:16]}…"
        )
    print(f"{len(specs)} golden digests written to {args.path}")
    return 0


def _cmd_golden_check(args: argparse.Namespace) -> int:
    from repro.stats.goldens import check_corpus, golden_specs

    specs = golden_specs()
    print(
        f"checking {len(specs)} golden runs against {args.path} "
        f"(engine {args.engine or 'per-spec default'})"
    )
    problems = check_corpus(args.path, engine=args.engine)
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}", file=sys.stderr)
        print(
            f"error: {len(problems)} golden conformance problem(s); if the "
            f"behaviour change is intended, re-record with "
            f"'python -m repro golden record'",
            file=sys.stderr,
        )
        return 1
    print(f"all {len(specs)} golden digests match")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import SweepServer

    cache_dir = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None
    executor = SweepExecutor(
        cache_dir=cache_dir,
        trace_dir=args.trace_dir,
        retry=_retry_policy_from_args(args),
    )
    server = SweepServer(
        executor=executor,
        host=args.host,
        port=args.port,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        parallel=args.parallel,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(shard {server.shard_index}/{server.shard_count}, "
            f"parallel={args.parallel}, "
            f"cache={'off' if cache_dir is None else cache_dir})",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
        return 0
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import contextlib
    import tempfile

    from repro.analysis.benchlog import append_bench_entry
    from repro.serve import BackgroundServer, SweepServer, run_load

    settings = _settings_from_args(args)
    benchmarks = _parse_benchmarks(args.benchmarks)
    plan = build_plan(args.plan, settings, benchmarks)
    specs = list(plan)
    if args.specs is not None:
        specs = specs[: args.specs]
    if not specs:
        print("error: the chosen plan subset is empty", file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        if args.url:
            stripped = args.url.replace("http://", "").rstrip("/")
            host, _, port_text = stripped.partition(":")
            if not port_text:
                print("error: --url needs host:port", file=sys.stderr)
                return 2
            host, port = host, int(port_text)
        else:
            # Self-hosted: an ephemeral server on a throwaway cache so
            # the cold/coalesced path is actually measured.
            cache_dir = args.cache_dir or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-serve-bench-")
            )
            server = SweepServer(
                executor=SweepExecutor(
                    cache_dir=cache_dir, retry=_retry_policy_from_args(args)
                ),
                parallel=args.parallel,
            )
            stack.enter_context(BackgroundServer(server))
            host, port = server.host, server.port

        print(
            f"load: {args.requests} requests x {args.concurrency} clients "
            f"over {len(specs)} spec(s) against {host}:{port}"
        )
        report = run_load(
            host, port, specs,
            requests=args.requests,
            concurrency=args.concurrency,
        )

    print(
        f"{report.ok} ok / {report.errors} errors in {report.elapsed_s:.2f}s "
        f"({report.throughput_rps:.1f} req/s) — "
        f"p50 {report.p50_ms:.1f}ms, p99 {report.p99_ms:.1f}ms"
    )
    print(
        f"server counters: {report.executed} executed, "
        f"{report.coalesced} coalesced, {report.warm_hits} warm hits; "
        f"responses bit-identical: {report.bit_identical()}"
    )
    if not report.bit_identical():
        print("error: a spec produced differing snapshots", file=sys.stderr)
        return 1
    if args.assert_single_execution:
        if report.errors or report.executed != report.distinct_specs:
            print(
                f"error: expected exactly {report.distinct_specs} execution(s) "
                f"for {report.distinct_specs} distinct spec(s), measured "
                f"{report.executed} (errors: {report.errors})",
                file=sys.stderr,
            )
            return 1
    if args.bench_log:
        entry = {
            "bench": "serve",
            "requests": report.requests,
            "concurrency": report.concurrency,
            "distinct_specs": report.distinct_specs,
            "executed": report.executed,
            "coalesced": report.coalesced,
            "warm_hits": report.warm_hits,
            "throughput_rps": report.throughput_rps,
            "p50_ms": report.p50_ms,
            "p99_ms": report.p99_ms,
        }
        written = append_bench_entry(args.bench_log, entry)
        if written is not None:
            print(f"trajectory entry appended to {written}")
    return 0


def _cmd_scenarios_sample(args: argparse.Namespace) -> int:
    from itertools import islice

    from repro.analysis.benchlog import append_bench_entry
    from repro.ioutil import atomic_write_json
    from repro.workloads.base import SyntheticWorkload
    from repro.workloads.generator import sample_scenarios

    scenario_set = sample_scenarios(args.seed, args.count)
    print(
        f"sampled {len(scenario_set)} families (generator seed {args.seed}); "
        f"names resolve in any process, no registration needed"
    )
    header = (
        f"{'name':<18} {'thr':>3} {'sh':>2} {'footprint':>10} {'accesses':>9} "
        f"{'phases':<28} digest"
    )
    print(header)
    print("-" * len(header))
    for family in scenario_set:
        info = family.describe()
        shapes = "+".join(p["pattern"] for p in info["phases"]) or "mix"
        print(
            f"{family.name:<18} {info['threads']:>3} {info['shared_regions']:>2} "
            f"{info['footprint_bytes']:>10} {info['total_accesses']:>9} "
            f"{shapes:<28} {info['spec_digest'][:12]}…"
        )
    if args.manifest:
        atomic_write_json(args.manifest, scenario_set.manifest())
        print(f"manifest written to {args.manifest}")
    if args.bench_log:
        # Generation throughput over a bounded prefix of every family:
        # the number a trajectory reader needs to budget fuzz/sweep time.
        produced = 0
        started = time.perf_counter()
        for family in scenario_set:
            workload = SyntheticWorkload(family.builder(total_accesses=20_000))
            produced += sum(1 for _ in islice(workload.generate(), 20_000))
        elapsed = time.perf_counter() - started
        entry = {
            "bench": "scenarios",
            "families": len(scenario_set),
            "generator_seed": args.seed,
            "gen_records_per_s": produced / elapsed if elapsed > 0 else 1.0,
        }
        written = append_bench_entry(args.bench_log, entry)
        if written is not None:
            print(f"trajectory entry appended to {written}")
    return 0


def _cmd_scenarios_describe(args: argparse.Namespace) -> int:
    from repro.workloads.generator import parse_family_name, spec_digest
    from repro.workloads.registry import build_spec

    for name in args.names:
        if parse_family_name(name) is None:
            print(f"error: {name!r} is not a scenario family name", file=sys.stderr)
            return 2
        spec = build_spec(name)
        print(f"{name}: {spec.description}")
        print(f"  workload seed   {spec.seed}")
        print(f"  spec digest     {spec_digest(spec)}")
        print(f"  threads         {spec.thread_count}")
        print(f"  total accesses  {spec.total_accesses} (at the builder default)")
        print("  regions")
        for region in spec.regions:
            sharing = f" sharing={region.sharing}" if region.kind == "shared" else ""
            print(
                f"    {region.name:<10} {region.kind:<8} "
                f"{region.bytes_per_instance:>9}B{sharing} reuse={region.reuse} "
                f"wf={region.write_fraction:.3f} mix={spec.mix.get(region.name, 0.0)}"
            )
        if spec.phases:
            print("  phases")
            for phase in spec.phases:
                target = phase.region or "(spec-wide mix)"
                extra = (
                    f" stride={phase.stride_lines}" if phase.pattern == "stride" else ""
                )
                print(
                    f"    {phase.name:<8} {phase.pattern:<16} weight={phase.weight} "
                    f"region={target}{extra}"
                )
        else:
            print("  phases          none (stationary mix)")
    return 0


def _cmd_plans(args: argparse.Namespace) -> int:
    settings = _settings_from_args(args)
    benchmarks = _parse_benchmarks(args.benchmarks)
    for name in sorted(PLAN_BUILDERS):
        plan = build_plan(name, settings, benchmarks)
        print(f"{name:<8} {len(plan):>4} runs")
    return 0


def _cmd_version(_: argparse.Namespace) -> int:
    print(version_string())
    return 0


def _add_engine_argument(parser: argparse.ArgumentParser, help_text: str) -> None:
    """The shared ``--engine`` flag.

    Validated by :func:`~repro.system.fastcore.resolve_engine` rather
    than argparse ``choices``, so the flag, ``REPRO_ENGINE`` and the
    library reject an unknown engine with the same error.
    """
    parser.add_argument(
        "--engine", metavar="{" + ",".join(ENGINES) + "}", help=help_text
    )


def _add_retry_arguments(parser: argparse.ArgumentParser) -> None:
    """Shared fault-tolerance flags (``sweep`` and ``replay``)."""
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help=(
            "retry each failed run up to this many times with exponential "
            "backoff (default: 0, fail on the first error)"
        ),
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "kill any pooled run exceeding this many seconds of wall clock "
            "and charge it a retry attempt (default: no deadline; serial "
            "checkpointed replay cannot be deadlined)"
        ),
    )
    parser.add_argument(
        "--retry-delay",
        type=float,
        default=0.0,
        metavar="S",
        help="base of the exponential retry backoff in seconds (default: 0)",
    )


def _add_settings_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--benchmarks",
        help="comma-separated benchmark subset (default: the paper's list)",
    )
    parser.add_argument(
        "--accesses", type=int, help="compute accesses per 16-thread run"
    )
    parser.add_argument(
        "--mp-accesses", type=int, help="accesses per copy in 2-process runs"
    )
    parser.add_argument("--scale", type=int, help="machine/footprint down-scale factor")
    parser.add_argument("--seed", type=int, help="base workload seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sweep engine for the ALLARM reproduction.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser("sweep", help="run a sweep plan")
    sweep.add_argument(
        "--plan",
        choices=sorted(PLAN_BUILDERS),
        default="fig3",
        help="which figure grid to run (default: fig3)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for uncached runs (default: 1, serial)",
    )
    sweep.add_argument(
        "--cache-dir",
        help="on-disk snapshot cache directory (default: $REPRO_CACHE_DIR)",
    )
    sweep.add_argument(
        "--min-cache-fraction",
        type=float,
        help="exit non-zero unless at least this fraction of runs was cached",
    )
    sweep.add_argument(
        "--trace-dir",
        help="directory of recorded traces to replay runs from (see 'trace record')",
    )
    sweep.add_argument(
        "--record-traces",
        action="store_true",
        help="with --trace-dir: capture any missing workload trace before running",
    )
    _add_engine_argument(
        sweep,
        "simulation engine for every run in the plan "
        f"(default: {DEFAULT_ENGINE}; engines are verified bit-identical)",
    )
    sweep.add_argument(
        "--keep-going",
        action="store_true",
        help=(
            "on a permanently failed run, record the failure and finish "
            "the rest of the grid instead of aborting (exit code 1)"
        ),
    )
    _add_retry_arguments(sweep)
    _add_settings_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    trace = subparsers.add_parser("trace", help="record, replay and inspect traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser(
        "record", help="capture a plan's workload streams as v3 blocked traces"
    )
    record.add_argument(
        "--plan",
        choices=sorted(PLAN_BUILDERS),
        default="fig3",
        help="plan whose workload streams to record (default: fig3)",
    )
    record.add_argument(
        "--trace-dir", required=True, help="directory to write traces into"
    )
    record.add_argument(
        "--force", action="store_true", help="re-record streams already on disk"
    )
    record.add_argument(
        "--epoch-records",
        type=int,
        default=None,
        help=(
            "add the v3.1 seekable epoch index, one entry per this many "
            "records (lets 'replay --resume' seek to its epoch; must be a "
            f"multiple of the {DEFAULT_BLOCK_RECORDS}-record block)"
        ),
    )
    _add_settings_arguments(record)
    record.set_defaults(func=_cmd_trace_record)

    replay = trace_sub.add_parser(
        "replay", help="replay one trace file and print run statistics"
    )
    replay.add_argument("path", help="trace file (v3 blocked or v1 text)")
    replay.add_argument(
        "--policy",
        choices=("baseline", "allarm"),
        default="baseline",
        help="directory policy to replay under (default: baseline)",
    )
    replay.add_argument(
        "--pf-size",
        type=int,
        default=512 * 1024,
        help="nominal probe-filter coverage in bytes (default: 512 kB)",
    )
    replay.add_argument(
        "--scale",
        type=int,
        help="machine down-scale factor (default: the harness-wide default)",
    )
    replay.add_argument("--label", help="workload label recorded in the result")
    replay.add_argument(
        "--max-accesses", type=int, help="replay at most this many records"
    )
    _add_engine_argument(replay, f"simulation engine (default: {DEFAULT_ENGINE})")
    replay.set_defaults(func=_cmd_trace_replay)

    info = trace_sub.add_parser("info", help="summarise a trace file")
    info.add_argument("path", help="trace file (v3 blocked or v1 text)")
    info.set_defaults(func=_cmd_trace_info)

    resume = subparsers.add_parser(
        "replay",
        help="checkpointed replay of one trace (resume after kill)",
    )
    resume.add_argument("path", help="trace file to replay")
    resume.add_argument(
        "--checkpoint-dir",
        required=True,
        help="directory holding the epoch checkpoints and manifest",
    )
    resume.add_argument(
        "--epoch-records",
        type=int,
        required=True,
        help="checkpoint every this many accesses",
    )
    resume.add_argument(
        "--resume",
        action="store_true",
        help="resume a killed replay from its newest checkpoint",
    )
    resume.add_argument(
        "--policy",
        choices=("baseline", "allarm"),
        default="baseline",
        help="directory policy to replay under (default: baseline)",
    )
    resume.add_argument(
        "--pf-size",
        type=int,
        default=512 * 1024,
        help="nominal probe-filter coverage in bytes (default: 512 kB)",
    )
    resume.add_argument(
        "--scale",
        type=int,
        help="machine down-scale factor (default: the harness-wide default)",
    )
    _add_engine_argument(resume, f"simulation engine (default: {DEFAULT_ENGINE})")
    _add_retry_arguments(resume)
    resume.set_defaults(func=_cmd_replay)

    golden = subparsers.add_parser(
        "golden", help="record/check the golden-snapshot conformance corpus"
    )
    golden_sub = golden.add_subparsers(dest="golden_command", required=True)
    for name, handler, blurb in (
        ("record", _cmd_golden_record, "run the canonical grid and write the corpus"),
        ("check", _cmd_golden_check, "verify snapshot digests against the corpus"),
    ):
        sub = golden_sub.add_parser(name, help=blurb)
        sub.add_argument(
            "--path",
            default="tests/golden/corpus.json",
            help="corpus file (default: tests/golden/corpus.json)",
        )
        _add_engine_argument(
            sub,
            "simulation engine to run the grid on, from both a record and "
            f"a chunk source (default: {DEFAULT_ENGINE}; digests are "
            "engine-independent)",
        )
        sub.set_defaults(func=handler)

    serve = subparsers.add_parser(
        "serve",
        help="run the coalescing cache-front sweep server (see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (0 picks an ephemeral one; default: 8642)",
    )
    serve.add_argument(
        "--cache-dir",
        help="on-disk snapshot cache directory (default: $REPRO_CACHE_DIR)",
    )
    serve.add_argument(
        "--trace-dir",
        help="directory of recorded traces to replay runs from",
    )
    serve.add_argument(
        "--parallel", type=int, default=2,
        help="concurrent executions this server runs (default: 2)",
    )
    serve.add_argument(
        "--shard-index", type=int, default=0,
        help="this process's slot in a shard group (default: 0)",
    )
    serve.add_argument(
        "--shard-count", type=int, default=1,
        help=(
            "number of server processes sharing the cache directory; cold "
            "executions are partitioned by spec digest (default: 1)"
        ),
    )
    _add_retry_arguments(serve)
    serve.set_defaults(func=_cmd_serve)

    serve_bench = subparsers.add_parser(
        "serve-bench",
        help="load-generate against a sweep server and report throughput/latency",
    )
    serve_bench.add_argument(
        "--url",
        help=(
            "server to drive as host:port (default: self-host an ephemeral "
            "server on a throwaway cache)"
        ),
    )
    serve_bench.add_argument(
        "--plan",
        choices=sorted(PLAN_BUILDERS),
        default="micro",
        help="plan whose specs form the request mix (default: micro)",
    )
    serve_bench.add_argument(
        "--specs", type=int, default=None,
        help="use only the first N specs of the plan (default: all)",
    )
    serve_bench.add_argument(
        "--requests", type=int, default=32,
        help="total requests to issue (default: 32)",
    )
    serve_bench.add_argument(
        "--concurrency", type=int, default=8,
        help="concurrent client connections (default: 8)",
    )
    serve_bench.add_argument(
        "--parallel", type=int, default=2,
        help="self-hosted server's execution threads (default: 2)",
    )
    serve_bench.add_argument(
        "--cache-dir",
        help="self-hosted server's cache directory (default: throwaway temp dir)",
    )
    serve_bench.add_argument(
        "--bench-log",
        default=None,
        metavar="PATH",
        help=(
            "append a bench:'serve' entry to this trajectory file "
            "(e.g. BENCH_serve.json; default: don't)"
        ),
    )
    serve_bench.add_argument(
        "--assert-single-execution",
        action="store_true",
        help=(
            "exit non-zero unless the server executed each distinct spec "
            "exactly once (every duplicate coalesced or served warm)"
        ),
    )
    _add_retry_arguments(serve_bench)
    _add_settings_arguments(serve_bench)
    serve_bench.set_defaults(func=_cmd_serve_bench)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="sample and inspect generated workload families (docs/scenarios.md)",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    sample = scenarios_sub.add_parser(
        "sample", help="sample a reproducible scenario set and print its manifest"
    )
    sample.add_argument(
        "--seed", type=int, default=0,
        help="generator seed keying the whole set (default: 0)",
    )
    sample.add_argument(
        "--count", type=int, default=8,
        help="families to sample (default: 8)",
    )
    sample.add_argument(
        "--manifest", metavar="PATH",
        help="write the set's JSON manifest (names, seeds, spec digests) here",
    )
    sample.add_argument(
        "--bench-log", metavar="PATH",
        help=(
            "append a bench:'scenarios' generation-throughput entry to this "
            "trajectory file (e.g. BENCH_scenarios.json; default: don't)"
        ),
    )
    sample.set_defaults(func=_cmd_scenarios_sample)

    describe = scenarios_sub.add_parser(
        "describe", help="print the full spec a scenario name resolves to"
    )
    describe.add_argument(
        "names", nargs="+", metavar="NAME",
        help="scenario family names (e.g. scenario-11-3)",
    )
    describe.set_defaults(func=_cmd_scenarios_describe)

    plans = subparsers.add_parser("plans", help="list named plans and sizes")
    _add_settings_arguments(plans)
    plans.set_defaults(func=_cmd_plans)

    version = subparsers.add_parser("version", help="print the version banner")
    version.set_defaults(func=_cmd_version)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro``."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
