"""Trace file reader and writer, with transparent format sniffing.

Two on-disk formats are read; one is written:

* **v3 blocked** (:mod:`repro.trace.binary`) — fixed-width columnar
  blocks that decode into parallel arrays with no per-record work; the
  format the packed engine's chunk kernel replays at trace-file
  bandwidth, and the only one :func:`write_trace` and every recorder
  write.
* **v1 text** — one access per line, ``<process> <core> <R|W|I> <hex
  address>`` with ``#`` comment lines.  Read only: it is the import path
  for traces from other tools (or from the real SPLASH2/Parsec binaries
  run under a binary-instrumentation tool), which a one-line awk script
  converts.

:func:`read_trace` sniffs the file's leading bytes and dispatches, so
every consumer — the simulator, the CLI, the sweep executor — handles
both formats without caring which one it was given.  :func:`read_trace_chunks`
is the columnar variant: it yields
:class:`~repro.trace.record.AccessChunk` blocks (natively for v3, by
packing for text).  :func:`read_trace_native` yields each format in the
shape it is stored in — chunks for v3, records for text — which is what
replay commands feed the simulator, so the source picks the replay path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.errors import WorkloadError
from repro.trace.binary import (
    TRACE_V3_MAGIC,
    read_trace_v3,
    read_trace_v3_chunks,
    stored_record_count,
    write_trace_v3,
)
from repro.trace.record import CHUNK_RECORDS, AccessRecord, chunk_records

PathLike = Union[str, Path]

#: Format labels returned by :func:`sniff_format`.
FORMAT_TEXT = "text"
FORMAT_BLOCKED = "blocked"


def sniff_format(path: PathLike) -> str:
    """Return ``"blocked"`` or ``"text"`` for *path*.

    A file is v3 blocked exactly when it starts with the v3 magic;
    anything else (including an empty file) is treated as v1 text, whose
    reader reports malformed content with line numbers.
    """
    source = Path(path)
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    try:
        with source.open("rb") as handle:
            prefix = handle.read(len(TRACE_V3_MAGIC))
    except OSError as exc:
        # E.g. a directory or an unreadable file.
        raise WorkloadError(f"trace file {source} cannot be read: {exc}") from exc
    return FORMAT_BLOCKED if prefix == TRACE_V3_MAGIC else FORMAT_TEXT


def write_trace(
    path: PathLike,
    records: Iterable[AccessRecord],
    epoch_records: Optional[int] = None,
) -> int:
    """Write *records* to *path* as a v3 blocked trace; return the count.

    *epoch_records* adds the v3.1 seekable epoch index a resumed replay
    seeks with.
    """
    return write_trace_v3(path, records, epoch_records=epoch_records)


def read_trace(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records stored in the trace file at *path* (either format)."""
    if sniff_format(path) == FORMAT_BLOCKED:
        return read_trace_v3(path)
    return _read_trace_text(path)


def read_trace_chunks(path: PathLike, chunk_size: int = CHUNK_RECORDS):
    """Yield the trace at *path* as ``AccessChunk`` column blocks.

    v3 blocked traces stream their stored blocks directly (no per-record
    Python work; *chunk_size* is ignored — blocks keep their stored
    size); text traces are parsed sequentially and packed into chunks of
    *chunk_size* records.
    """
    if sniff_format(path) == FORMAT_BLOCKED:
        return read_trace_v3_chunks(path)
    return chunk_records(_read_trace_text(path), chunk_size)


def read_trace_native(path: PathLike) -> Iterable:
    """Yield the trace at *path* in its stored shape.

    v3 blocked traces yield ``AccessChunk`` blocks (a simulator replays
    them through the chunk kernel); text traces yield records (the
    per-record loop, with no packing cost).
    """
    if sniff_format(path) == FORMAT_BLOCKED:
        return read_trace_v3_chunks(path)
    return _read_trace_text(path)


def _read_trace_text(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records of a v1 text trace.

    A line that is not UTF-8 (an old v2 binary trace, an image) raises
    :class:`WorkloadError` naming the file and line, like any other
    malformed line.
    """
    source = Path(path)
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    with source.open("rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                stripped = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise WorkloadError(
                    f"{source}:{line_number}: neither a v3 blocked trace "
                    f"nor UTF-8 text"
                ) from None
            if not stripped or stripped.startswith("#"):
                continue
            try:
                yield AccessRecord.from_line(stripped)
            except WorkloadError as exc:
                raise WorkloadError(
                    f"{source}:{line_number}: {exc}"
                ) from exc


def count_records(path: PathLike) -> int:
    """Return the number of access records in a trace file.

    v3 traces store their record count in the header, making this O(1);
    text traces (and v3 traces whose writer never closed cleanly) fall
    back to a full scan.
    """
    if sniff_format(path) == FORMAT_BLOCKED:
        stored = stored_record_count(path)
        if stored >= 0:
            return stored
    return sum(1 for _ in read_trace(path))
