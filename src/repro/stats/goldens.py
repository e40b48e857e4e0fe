"""Golden-snapshot conformance corpus: frozen history the engines must match.

The differential suites (cross-engine, lock-step fuzzing) compare the two
*in-process* engines against each other, so a bug that lands in **both**
engines at once — a refactor that changes a counter's semantics, a
"harmless" reordering of float additions — sails straight through them.
This module closes that hole the way Monat et al.'s dual-implementation
semantics and DateSAT's exhaustive grids anchor their reproductions: a
small canonical grid of :class:`~repro.analysis.plan.RunSpec`\\ s is run
once, each resulting :class:`~repro.stats.snapshot.MachineSnapshot` is
reduced to a SHA-256 digest of its canonical JSON, and the digests are
committed to ``tests/golden/corpus.json``.  Every future engine, refactor
or optimisation then diffs against *frozen history*, not just against the
sibling implementation of the same session.

The corpus grid is chosen to cover the structural paths the packed engine
services in place: both policies over every microbenchmark family at the
paper's nominal probe-filter size **and** a starved filter (constant
probe-filter evictions with their invalidation fan-out, L2 eviction
notifications, cold translation fills), plus a two-process layout run.
Settings are pinned literally — never read from the environment — so a
``REPRO_BENCH_*`` override can never silently re-key the corpus.

Workflow::

    python -m repro golden record            # (re)write the corpus
    python -m repro golden check             # verify current code against it
    python -m repro golden check --engine reference

``check`` runs every spec with the requested engine (default: packed)
twice — fed records, then fed the same stream packed into
:class:`~repro.trace.record.AccessChunk` blocks (the packed engine's
chunk-kernel path) — and reports any digest mismatch together with the
headline counters recorded
beside each digest, so a divergence reads as a protocol diagnosis.  A
legitimate behaviour change (a new counter, a fixed bug) is expected to
fail ``check``: re-record with ``golden record`` and commit the new
corpus alongside the change, leaving the review trail in git history.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import SimulationError
from repro.ioutil import atomic_write_json
from repro.stats.snapshot import MachineSnapshot
from repro.system.simulator import simulate
from repro.trace.record import chunk_records
from repro.workloads.registry import MICROBENCH_FAMILIES

#: Version of the corpus file layout (not of the snapshots inside it —
#: those carry their own ``SNAPSHOT_SCHEMA_VERSION`` via the digest).
GOLDEN_SCHEMA_VERSION = 1

#: Where the committed corpus lives, relative to the repo root (the CLI
#: default; tests and tools may point elsewhere).
DEFAULT_CORPUS_PATH = "tests/golden/corpus.json"

#: Harness settings for every golden run — pinned literally so that
#: environment overrides (REPRO_BENCH_*) can never re-key the corpus.
GOLDEN_SETTINGS = ExperimentSettings(
    scale=16, accesses=4_000, multiprocess_accesses=2_000, seed=1
)

#: Nominal probe-filter sizes per family: the paper's default and a
#: starved filter that keeps the eviction fan-out path hot.
GOLDEN_PF_SIZES: Tuple[int, ...] = (512 * 1024, 32 * 1024)

#: Generated-scenario slice of the corpus: a pinned generator seed and
#: family count (multi-phase DSL streams whose fill/thrash regimes the
#: hand-written grid lacks).  Scenario names are self-describing, so the
#: grid rebuilds identically on every machine with no manifest file.
GOLDEN_SCENARIO_SEED = 11
GOLDEN_SCENARIO_COUNT = 4

#: The starved filter only: the scenario families' thrash phases are
#: what the second size exists for, so one size keeps the grid cheap.
GOLDEN_SCENARIO_PF_SIZE = 32 * 1024

#: Headline counters stored beside each digest as a mismatch diagnosis
#: aid (the digest alone says "different", these say roughly *where*).
HEADLINE_FIELDS: Tuple[str, ...] = (
    "execution_time_ns",
    "l2_misses",
    "pf_evictions",
    "pf_allocations",
    "eviction_messages",
    "invalidations_sent",
    "network_bytes",
    "dram_writes",
)


def golden_specs() -> Tuple[RunSpec, ...]:
    """The canonical corpus grid, rebuilt identically on every machine."""
    specs: List[RunSpec] = []
    for family in MICROBENCH_FAMILIES:
        for policy in ("baseline", "allarm"):
            for pf_size in GOLDEN_PF_SIZES:
                specs.append(
                    RunSpec(
                        family,
                        policy,
                        pf_size=pf_size,
                        settings=GOLDEN_SETTINGS,
                    )
                )
    for policy in ("baseline", "allarm"):
        specs.append(
            RunSpec(
                "barnes",
                policy,
                pf_size=32 * 1024,
                layout="2p",
                settings=GOLDEN_SETTINGS,
            )
        )
    from repro.workloads.generator import sample_scenarios

    scenario_names = sample_scenarios(
        GOLDEN_SCENARIO_SEED, GOLDEN_SCENARIO_COUNT
    ).names
    for family in scenario_names:
        for policy in ("baseline", "allarm"):
            specs.append(
                RunSpec(
                    family,
                    policy,
                    pf_size=GOLDEN_SCENARIO_PF_SIZE,
                    settings=GOLDEN_SETTINGS,
                )
            )
    return tuple(specs)


def spec_key(spec: RunSpec) -> str:
    """Engine-independent identity of a golden run.

    Both engines must reproduce the same snapshot, so the corpus is
    keyed by everything *except* the engine (and the trace source, which
    is an execution strategy, not an identity).
    """
    identity = {
        name: value
        for name, value in spec.describe().items()
        if name not in ("engine", "trace_source")
    }
    return json.dumps(identity, sort_keys=True)


def snapshot_digest(snapshot: MachineSnapshot) -> str:
    """SHA-256 over the snapshot's canonical (sorted-keys) JSON form."""
    return hashlib.sha256(snapshot.to_json().encode("utf-8")).hexdigest()


def run_golden_spec(
    spec: RunSpec, engine: Optional[str] = None, chunked: bool = False
) -> MachineSnapshot:
    """Execute one golden run and return its snapshot.

    *chunked* feeds the stream as ``AccessChunk`` blocks instead of
    records, which sends it down the chunk path.
    """
    accesses = spec.access_stream()
    result = simulate(
        spec.config(),
        chunk_records(accesses) if chunked else accesses,
        workload_name=spec.workload_name,
        engine=engine or spec.engine,
    )
    return result.snapshot


def _headline(snapshot: MachineSnapshot) -> Dict[str, object]:
    return {name: getattr(snapshot, name) for name in HEADLINE_FIELDS}


def record_corpus(
    path: Union[str, Path],
    engine: Optional[str] = None,
    specs: Optional[Sequence[RunSpec]] = None,
) -> Dict[str, object]:
    """Run the golden grid and (atomically) write the corpus to *path*.

    Returns the corpus document that was written.  *specs* exists for
    tests that need a reduced grid; the committed corpus always uses
    :func:`golden_specs`.
    """
    entries: Dict[str, Dict[str, object]] = {}
    for spec in specs if specs is not None else golden_specs():
        snapshot = run_golden_spec(spec, engine)
        entries[spec_key(spec)] = {
            "digest": snapshot_digest(snapshot),
            "headline": _headline(snapshot),
        }
    corpus: Dict[str, object] = {
        "schema": GOLDEN_SCHEMA_VERSION,
        "entries": entries,
    }
    atomic_write_json(path, corpus)
    return corpus


def load_corpus(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a corpus file."""
    path = Path(path)
    if not path.exists():
        raise SimulationError(
            f"golden corpus {path} does not exist; run 'python -m repro "
            f"golden record' to create it"
        )
    try:
        corpus = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SimulationError(f"golden corpus {path} is unreadable: {exc}") from exc
    if not isinstance(corpus, dict) or corpus.get("schema") != GOLDEN_SCHEMA_VERSION:
        raise SimulationError(
            f"golden corpus {path} has schema {corpus.get('schema')!r}; "
            f"expected {GOLDEN_SCHEMA_VERSION} (re-record it)"
        )
    entries = corpus.get("entries")
    if not isinstance(entries, dict):
        raise SimulationError(f"golden corpus {path} has no entries mapping")
    return corpus


def check_corpus(
    path: Union[str, Path],
    engine: Optional[str] = None,
    specs: Optional[Sequence[RunSpec]] = None,
) -> List[str]:
    """Re-run the golden grid and diff digests against the stored corpus.

    Every spec runs from a record source and then from a chunk source.
    Returns a list of problem descriptions (empty = conformant): digest
    mismatches (with the source and the headline counters that differ),
    specs missing from the corpus, and stale corpus entries no current
    spec produces.
    """
    corpus = load_corpus(path)
    entries: Dict[str, Dict[str, object]] = corpus["entries"]  # type: ignore[assignment]
    problems: List[str] = []
    current = specs if specs is not None else golden_specs()
    seen = set()
    for spec in current:
        key = spec_key(spec)
        seen.add(key)
        stored = entries.get(key)
        label = f"{spec.workload_name}/{spec.policy}/pf{spec.pf_size // 1024}k"
        if stored is None:
            problems.append(f"{label}: no recorded golden entry (re-record)")
            continue
        for source in ("records", "chunks"):
            snapshot = run_golden_spec(spec, engine, chunked=source == "chunks")
            digest = snapshot_digest(snapshot)
            if digest == stored.get("digest"):
                continue
            detail = [f"{label} ({source}): digest {digest[:12]}… != "
                      f"recorded {str(stored.get('digest'))[:12]}…"]
            recorded_headline = stored.get("headline") or {}
            for name, value in _headline(snapshot).items():
                recorded = recorded_headline.get(name)
                if recorded != value:
                    detail.append(f"    {name}: {value!r} != recorded {recorded!r}")
            problems.append("\n".join(detail))
            break  # one problem per spec: the first source that diverges
    for key in entries:
        if key not in seen:
            problems.append(f"stale corpus entry with no current spec: {key}")
    return problems
