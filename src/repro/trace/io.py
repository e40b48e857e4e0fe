"""Trace file reader and writer, with transparent format sniffing.

Three on-disk formats exist:

* **v1 text** — one access per line, ``<process> <core> <R|W|I> <hex
  address>`` with ``#`` comment lines.  Deliberately simple so traces
  from other tools (or from the real SPLASH2/Parsec binaries run under a
  binary-instrumentation tool) can be converted with a one-line awk
  script.
* **v2 binary** (:mod:`repro.trace.binary`) — packed, varint
  delta-encoded records, 5-8x smaller and more than twice as fast to
  replay than text; the most compact format, but inherently sequential
  to decode.
* **v3 blocked** (:mod:`repro.trace.binary`) — fixed-width columnar
  blocks that decode into parallel arrays with no per-record work; the
  format the packed engine's chunk kernel replays at trace-file
  bandwidth.  Larger on disk than v2, by design: it trades bytes for
  decode speed.

:func:`read_trace` sniffs the file's leading bytes and dispatches, so
every consumer — the simulator, the CLI, the sweep executor — handles
all formats without caring which one it was given.  :func:`read_trace_chunks`
is the columnar variant: it yields
:class:`~repro.trace.record.AccessChunk` blocks (natively for v3, by
packing for v1/v2).  :func:`read_trace_native` yields each format in the
shape it is stored in — chunks for v3, records otherwise — which is what
replay commands feed the simulator, so the source picks the replay path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.errors import WorkloadError
from repro.trace.binary import (
    TRACE_V2_MAGIC,
    TRACE_V3_MAGIC,
    read_trace_v2,
    read_trace_v3,
    read_trace_v3_chunks,
    stored_record_count,
    write_trace_v2,
    write_trace_v3,
)
from repro.trace.record import CHUNK_RECORDS, AccessRecord, chunk_records

PathLike = Union[str, Path]

#: Format labels returned by :func:`sniff_format`.
FORMAT_TEXT = "text"
FORMAT_BINARY = "binary"
FORMAT_BLOCKED = "blocked"

_MAGIC_LENGTH = max(len(TRACE_V2_MAGIC), len(TRACE_V3_MAGIC))


def sniff_format(path: PathLike) -> str:
    """Return ``"blocked"``, ``"binary"`` or ``"text"`` for *path*.

    A file is v3 blocked or v2 binary exactly when it starts with the
    corresponding magic; anything else (including an empty file) is
    treated as v1 text, whose reader reports malformed content with line
    numbers.
    """
    source = Path(path)
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    try:
        with source.open("rb") as handle:
            prefix = handle.read(_MAGIC_LENGTH)
    except OSError as exc:
        # E.g. a directory or an unreadable file.
        raise WorkloadError(f"trace file {source} cannot be read: {exc}") from exc
    if prefix.startswith(TRACE_V3_MAGIC):
        return FORMAT_BLOCKED
    if prefix.startswith(TRACE_V2_MAGIC):
        return FORMAT_BINARY
    return FORMAT_TEXT


def write_trace(
    path: PathLike,
    records: Iterable[AccessRecord],
    format: str = FORMAT_TEXT,
    epoch_records: Optional[int] = None,
) -> int:
    """Write *records* to *path*; return the number of records written.

    *format* selects v1 ``"text"`` (the default, interoperable), v2
    ``"binary"`` (compact) or v3 ``"blocked"`` (columnar, fastest to
    replay).  *epoch_records* (blocked only) adds the v3.1 seekable
    epoch index a resumed replay seeks with.
    """
    if epoch_records is not None and format != FORMAT_BLOCKED:
        raise WorkloadError(
            f"epoch_records requires the {FORMAT_BLOCKED!r} format; "
            f"the sequential formats cannot be seeked by epoch"
        )
    if format == FORMAT_BINARY:
        return write_trace_v2(path, records)
    if format == FORMAT_BLOCKED:
        return write_trace_v3(path, records, epoch_records=epoch_records)
    if format != FORMAT_TEXT:
        raise WorkloadError(
            f"unknown trace format {format!r}; expected {FORMAT_TEXT!r}, "
            f"{FORMAT_BINARY!r} or {FORMAT_BLOCKED!r}"
        )
    count = 0
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        handle.write("# repro trace v1: <process> <core> <R|W|I> <address>\n")
        for record in records:
            handle.write(record.to_line())
            handle.write("\n")
            count += 1
    return count


def read_trace(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records stored in the trace file at *path* (any format)."""
    fmt = sniff_format(path)
    if fmt == FORMAT_BLOCKED:
        return read_trace_v3(path)
    if fmt == FORMAT_BINARY:
        return read_trace_v2(path)
    return _read_trace_text(path)


def read_trace_chunks(path: PathLike, chunk_size: int = CHUNK_RECORDS):
    """Yield the trace at *path* as ``AccessChunk`` column blocks.

    v3 blocked traces stream their stored blocks directly (no per-record
    Python work; *chunk_size* is ignored — blocks keep their stored
    size); v1/v2 traces are decoded sequentially and packed into chunks
    of *chunk_size* records.
    """
    if sniff_format(path) == FORMAT_BLOCKED:
        return read_trace_v3_chunks(path)
    return chunk_records(read_trace(path), chunk_size)


def read_trace_native(path: PathLike) -> Iterable:
    """Yield the trace at *path* in its stored shape.

    v3 blocked traces yield ``AccessChunk`` blocks (a simulator replays
    them through the chunk kernel); v1/v2 traces yield records (the
    per-record loop, with no packing cost).
    """
    if sniff_format(path) == FORMAT_BLOCKED:
        return read_trace_v3_chunks(path)
    return read_trace(path)


def _read_trace_text(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records of a v1 text trace."""
    source = Path(path)
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    with source.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
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

    v2 and v3 traces store their record count in the header, making this
    O(1); text traces (and binary traces whose writer never closed
    cleanly) fall back to a full scan.
    """
    if sniff_format(path) in (FORMAT_BINARY, FORMAT_BLOCKED):
        stored = stored_record_count(path)
        if stored >= 0:
            return stored
    return sum(1 for _ in read_trace(path))
