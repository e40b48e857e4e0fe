"""Persisted benchmark trajectory: append-only perf history files.

The perf benches (``benchmarks/test_perf_hot_path.py`` and
``benchmarks/test_trace_perf.py``) measure throughput on whatever
machine runs them; a single number is only meaningful relative to the
numbers that came before it on comparable hardware.  This module gives
them a tiny append-only store — ``BENCH_hotpath.json`` and
``BENCH_trace.json`` at the repository root — so the accesses/s and
replay-MB/s trajectory is visible across PRs (and uploadable as a CI
artifact) instead of evaporating with each pytest session.

File format (stable, ``schema`` guards future shape changes)::

    {
      "schema": 1,
      "entries": [
        {"timestamp": "...", "git_sha": "...", "engine": "packed",
         "accesses_per_s": 1.05e6, ...},
        ...
      ]
    }

Entries are appended, never rewritten; corrupt or stale-schema files are
replaced rather than crashing the bench.  Nothing is appended unless
``REPRO_BENCH_LOG=1``: an ordinary test run leaves the tracked files
alone, and the CI jobs that upload a trajectory set it.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.ioutil import atomic_write_json

#: Version of the on-disk trajectory layout.
BENCH_LOG_SCHEMA = 1

#: Cap on retained entries per file: old history scrolls off rather than
#: growing the checked-in file without bound.
MAX_ENTRIES = 400


def bench_logging_enabled() -> bool:
    """True only when ``REPRO_BENCH_LOG=1`` enables trajectory logging."""
    return os.environ.get("REPRO_BENCH_LOG") == "1"


def _discover_git_root(start: Path) -> Optional[Path]:
    """Walk up from *start* to the first directory containing ``.git``."""
    try:
        current = start.resolve()
    except OSError:
        return None
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / ".git").exists():
            return candidate
    return None


def _run_git(args: List[str], cwd: Path) -> Optional[str]:
    """Run a git command, returning stripped stdout or ``None`` on failure."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(cwd),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip()


def git_sha(repo_root: Union[str, Path, None] = None) -> str:
    """Commit hash stamping a bench entry; robust to messy environments.

    Resolution order:

    1. ``REPRO_GIT_SHA`` when set (CI images and containers without a
       ``.git`` directory can still stamp entries correctly);
    2. ``git rev-parse HEAD`` run from the nearest ancestor of
       *repo_root* that contains ``.git`` — the bench-log path may sit
       anywhere inside the checkout, and a non-existent ``cwd`` must not
       crash the bench;
    3. ``"unknown"`` outside any checkout.

    A dirty working tree gets a ``+dirty`` suffix so trajectory entries
    recorded mid-PR are not attributed to the previous commit's code.
    """
    override = os.environ.get("REPRO_GIT_SHA")
    if override:
        return override
    root = _discover_git_root(Path(repo_root) if repo_root else Path.cwd())
    if root is None:
        return "unknown"
    sha = _run_git(["rev-parse", "HEAD"], cwd=root)
    if not sha:
        return "unknown"
    status = _run_git(["status", "--porcelain"], cwd=root)
    if status and any(
        not _is_trajectory_artifact(line) for line in status.splitlines()
    ):
        return sha + "+dirty"
    return sha


def _is_trajectory_artifact(porcelain_line: str) -> bool:
    """True when a ``git status --porcelain`` line names a bench-log product.

    The trajectory files are themselves git-tracked, so the first append
    of a run would otherwise dirty the tree and stamp every subsequent
    entry of the same clean checkout ``+dirty`` — the store must not
    count its own output as source damage.  Parsed by splitting off the
    status column rather than by fixed offset (``_run_git`` strips the
    output, which eats the leading space of the first line).
    """
    parts = porcelain_line.strip().split(None, 1)
    if len(parts) != 2:
        return False
    path = parts[1].split(" -> ")[-1].strip().strip('"')
    name = path.rsplit("/", 1)[-1]
    return name.startswith("BENCH_") and ".json" in name


#: JSON scalar types allowed as bench-entry field values.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def validate_entry(entry: Dict[str, object]) -> None:
    """Validate one measurement against the trajectory schema.

    An entry is a non-empty flat dict of string keys to JSON scalars
    (no nesting, no NaN/inf — those round-trip inconsistently), and may
    not smuggle in the stamped ``timestamp``/``git_sha`` fields.
    Entries declaring ``bench: "batched"`` (the chunk-kernel bench; the
    label predates the kernel's move into the packed engine) carry the
    kernel shape fields: a positive integer ``chunk_records`` and a
    ``batched_residue_ratio`` in ``[0, 1]`` — the two numbers a
    trajectory reader needs to interpret a chunk-path throughput figure.
    Entries declaring ``bench: "faults"`` carry the chaos-run shape:
    non-negative integer ``retries``, ``timeouts`` and ``quarantines``
    counters — what the fault-tolerance machinery had to absorb for the
    run to finish bit-identical.  Entries declaring ``bench: "serve"`` carry the
    service load-run shape: positive integers ``requests`` and
    ``concurrency``, non-negative integers ``coalesced`` and
    ``warm_hits``, a positive ``throughput_rps`` and non-negative
    ``p50_ms``/``p99_ms`` latency percentiles.  Entries declaring
    ``bench: "scenarios"`` carry the generated-workload-set shape: a
    positive integer ``families``, a non-negative integer
    ``generator_seed`` (together they reproduce the exact set) and a
    positive ``gen_records_per_s`` stream-generation throughput.  Raises
    :class:`ValueError` naming the offending
    field, so a malformed bench fails loudly instead of poisoning the
    persisted trajectory.
    """
    if not isinstance(entry, dict) or not entry:
        raise ValueError("bench entry must be a non-empty dict")
    for key, value in entry.items():
        if not isinstance(key, str) or not key:
            raise ValueError(f"bench entry key {key!r} is not a non-empty string")
        if key in ("timestamp", "git_sha"):
            raise ValueError(f"bench entry may not set the stamped field {key!r}")
        if not isinstance(value, _SCALAR_TYPES):
            raise ValueError(
                f"bench entry field {key!r} has non-scalar value {value!r}"
            )
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"bench entry field {key!r} is not a finite number")
    if entry.get("bench") == "batched":
        chunk_records = entry.get("chunk_records")
        if not isinstance(chunk_records, int) or isinstance(chunk_records, bool) \
                or chunk_records <= 0:
            raise ValueError(
                "batched bench entry needs a positive integer 'chunk_records' "
                f"(got {chunk_records!r})"
            )
        ratio = entry.get("batched_residue_ratio")
        if not isinstance(ratio, (int, float)) or isinstance(ratio, bool) \
                or not 0.0 <= float(ratio) <= 1.0:
            raise ValueError(
                "batched bench entry needs a 'batched_residue_ratio' in [0, 1] "
                f"(got {ratio!r})"
            )
    if entry.get("bench") == "faults":
        for key in ("retries", "timeouts", "quarantines"):
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"faults bench entry needs a non-negative integer {key!r} "
                    f"(got {value!r})"
                )
    if entry.get("bench") == "serve":
        for key in ("requests", "concurrency"):
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value <= 0:
                raise ValueError(
                    f"serve bench entry needs a positive integer {key!r} "
                    f"(got {value!r})"
                )
        for key in ("coalesced", "warm_hits"):
            value = entry.get(key)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"serve bench entry needs a non-negative integer {key!r} "
                    f"(got {value!r})"
                )
        throughput = entry.get("throughput_rps")
        if not isinstance(throughput, (int, float)) or isinstance(throughput, bool) \
                or not throughput > 0:
            raise ValueError(
                "serve bench entry needs a positive 'throughput_rps' "
                f"(got {throughput!r})"
            )
        for key in ("p50_ms", "p99_ms"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"serve bench entry needs a non-negative {key!r} "
                    f"(got {value!r})"
                )
    if entry.get("bench") == "scenarios":
        families = entry.get("families")
        if not isinstance(families, int) or isinstance(families, bool) \
                or families <= 0:
            raise ValueError(
                "scenarios bench entry needs a positive integer 'families' "
                f"(got {families!r})"
            )
        generator_seed = entry.get("generator_seed")
        if not isinstance(generator_seed, int) or isinstance(generator_seed, bool) \
                or generator_seed < 0:
            raise ValueError(
                "scenarios bench entry needs a non-negative integer "
                f"'generator_seed' (got {generator_seed!r})"
            )
        rate = entry.get("gen_records_per_s")
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) \
                or not rate > 0:
            raise ValueError(
                "scenarios bench entry needs a positive 'gen_records_per_s' "
                f"(got {rate!r})"
            )


#: Sentinel distinguishing "file exists but is not JSON" from "no file".
_PARSE_FAILED = object()


def _parse_log(path: Union[str, Path]):
    """Parse a trajectory file: JSON value, ``None`` (no file), or sentinel.

    Returns :data:`_PARSE_FAILED` only when the file exists but cannot be
    parsed at all — the one case where overwriting would destroy bytes we
    cannot interpret, so the caller preserves them first.
    """
    try:
        text = Path(path).read_text()
    except OSError:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return _PARSE_FAILED


def _salvage(data) -> Dict[str, object]:
    """Coerce a parsed JSON value into a well-formed log, keeping what's valid.

    A parsable file with a stale schema or stray non-dict entries keeps
    its well-formed dict entries instead of silently discarding the whole
    history (the pre-fix behaviour that could wipe the trajectory on the
    next append).
    """
    if not isinstance(data, dict):
        return {"schema": BENCH_LOG_SCHEMA, "entries": []}
    entries = data.get("entries")
    if not isinstance(entries, list):
        return {"schema": BENCH_LOG_SCHEMA, "entries": []}
    return {
        "schema": BENCH_LOG_SCHEMA,
        "entries": [e for e in entries if isinstance(e, dict)],
    }


def load_bench_log(path: Union[str, Path]) -> Dict[str, object]:
    """Read a trajectory file, salvaging whatever valid entries it holds.

    Unreadable or unparsable files degrade to an empty log (see
    :func:`_salvage` for the shape-repair rules applied to parsable
    ones); this accessor never touches the filesystem beyond reading.
    """
    data = _parse_log(path)
    if data is None or data is _PARSE_FAILED:
        return {"schema": BENCH_LOG_SCHEMA, "entries": []}
    return _salvage(data)


def _preserve_corrupt_file(path: Path) -> None:
    """Move an unparsable trajectory aside rather than overwriting it.

    The backup name never clobbers an earlier backup: ``<name>.corrupt``,
    then ``<name>.corrupt-1``, ``-2``, ...
    """
    backup = path.with_name(path.name + ".corrupt")
    suffix = 0
    while backup.exists():
        suffix += 1
        backup = path.with_name(f"{path.name}.corrupt-{suffix}")
    try:
        os.replace(path, backup)
    except OSError:
        pass


def append_bench_entry(
    path: Union[str, Path],
    entry: Dict[str, object],
    repo_root: Union[str, Path, None] = None,
) -> Optional[Path]:
    """Append one measurement to the trajectory file at *path*.

    The entry is validated against the schema first (:func:`validate_entry`
    raises ``ValueError`` on damage), then stamped with an ISO-8601 UTC
    timestamp and the current git sha (``+dirty`` on a modified tree;
    see :func:`git_sha`).  The write is atomic (temp file +
    ``os.replace``), so concurrent bench processes never tear the file —
    last writer wins, which is fine for an append-only perf log.  A
    pre-existing file that cannot be parsed at all is preserved as
    ``<name>.corrupt`` instead of being silently replaced, so history is
    never destroyed by one bad write.  Returns the path written, or
    ``None`` when logging is disabled.
    """
    validate_entry(entry)
    if not bench_logging_enabled():
        return None
    path = Path(path)
    parsed = _parse_log(path)
    if parsed is _PARSE_FAILED:
        _preserve_corrupt_file(path)
        parsed = None
    data = _salvage(parsed) if parsed is not None else {
        "schema": BENCH_LOG_SCHEMA,
        "entries": [],
    }
    stamped = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": git_sha(repo_root if repo_root is not None else path.parent),
    }
    stamped.update(entry)
    entries: List[object] = list(data["entries"])
    entries.append(stamped)
    data["entries"] = entries[-MAX_ENTRIES:]

    return atomic_write_json(path, data)


def latest_entry(
    path: Union[str, Path], **filters: object
) -> Optional[Dict[str, object]]:
    """Return the newest entry matching all *filters* (field == value)."""
    for entry in reversed(load_bench_log(path)["entries"]):
        if isinstance(entry, dict) and all(
            entry.get(key) == value for key, value in filters.items()
        ):
            return entry
    return None
