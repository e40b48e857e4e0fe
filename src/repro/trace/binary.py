"""Blocked columnar trace format v3, the format every recording uses.

Records are laid out in fixed-size blocks of fixed-width columns, so a
reader turns a whole block into parallel arrays with four buffer
reinterpretations and no per-record arithmetic; the blocks decode
straight into :class:`~repro.trace.record.AccessChunk` columns, which the
packed engine replays through its chunk kernel.  The layout (see
:class:`BlockedTraceWriter`) costs about 11 bytes per record on disk.
v3.1 adds an optional epoch-index footer that lets a resumed replay seek
to an epoch without scanning the blocks before it.

The v1 text format (:mod:`repro.trace.io`) stays readable, as the import
path for traces produced by other tools.
"""

from __future__ import annotations

import os
import struct
from array import array
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import WorkloadError
from repro.trace.record import CHUNK_RECORDS, AccessChunk, AccessRecord, AccessType

PathLike = Union[str, Path]

#: Magic prefix identifying a v3 blocked columnar trace (PNG-style, so
#: text-mode newline translation or 7-bit truncation of the file shows).
TRACE_V3_MAGIC = b"\x89RPT3\r\n\x1a"

#: Byte offset of the little-endian record-count field.
_COUNT_OFFSET = len(TRACE_V3_MAGIC)

#: Sentinel stored in the count field while it is unknown.
_COUNT_UNKNOWN = (1 << 64) - 1

#: Total header size: magic plus the record-count field.
HEADER_SIZE = _COUNT_OFFSET + 8

_TYPE_CODES: Dict[AccessType, int] = {
    AccessType.READ: 0,
    AccessType.WRITE: 1,
    AccessType.INSTRUCTION: 2,
}


def _check_v3_header(data: bytes, source: Path) -> int:
    """Validate a v3 header; return the stored count (or the sentinel).

    A file torn inside its 16-byte header raises rather than reading as
    an empty trace.
    """
    if not data.startswith(TRACE_V3_MAGIC):
        raise WorkloadError(f"{source}: not a v3 blocked trace (bad magic)")
    if len(data) < HEADER_SIZE:
        raise WorkloadError(
            f"{source}: truncated header ({len(data)} of {HEADER_SIZE} bytes)"
        )
    return int.from_bytes(data[_COUNT_OFFSET:HEADER_SIZE], "little")


def _read_v3(source: Path) -> Tuple[bytes, int]:
    """Read the whole v3 file at *source*; return it and the stored count."""
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    data = source.read_bytes()
    return data, _check_v3_header(data, source)


def stored_record_count(path: PathLike) -> int:
    """Return the v3 header record count, or -1 when it says unknown.

    Only the fixed-size header is read, so this is O(1) regardless of
    trace length — the fast path behind
    :func:`repro.trace.io.count_records`.
    """
    source = Path(path)
    try:
        with source.open("rb") as handle:
            data = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise WorkloadError(f"trace file {source} cannot be read: {exc}") from exc
    count = _check_v3_header(data, source)
    return -1 if count == _COUNT_UNKNOWN else count


# ----------------------------------------------------------------------
# Blocks
# ----------------------------------------------------------------------
#: Records per block the v3 writer emits by default: one decoded block
#: feeds one kernel chunk with no re-blocking.
DEFAULT_BLOCK_RECORDS = CHUNK_RECORDS

#: Per-block header: u32 record count + u32 reserved (keeps the address
#: column 8-byte aligned relative to the block start).
_BLOCK_HEADER = struct.Struct("<II")

# ----------------------------------------------------------------------
# v3.1 epoch index (optional seekable footer)
# ----------------------------------------------------------------------
#: Marker opening the epoch-index footer and closing its trailer.
EPOCH_INDEX_MAGIC = b"\x89RPT3EI\x1a"

#: Fixed-size trailer at EOF: u64 footer byte length (from footer magic
#: up to but excluding the trailer itself) + the marker again.  Readers
#: discover the footer by seeking 16 bytes back from EOF, so a v3.1 file
#: stays a valid v3 stream for block scanners that stop at the footer.
_EPOCH_TRAILER = struct.Struct("<Q8s")

#: Footer body layout: marker, u64 records-per-epoch, u64 epoch count,
#: then per epoch a u64 byte offset of its first block and a u64 record
#: count (the final epoch may hold fewer than records-per-epoch).
_EPOCH_FOOTER_HEAD = struct.Struct("<8sQQ")
_EPOCH_ENTRY = struct.Struct("<QQ")


def _require_numpy():
    """Return numpy, or None when it is not installed."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class BlockedTraceWriter:
    """Streaming writer for v3 blocked columnar traces.

    Layout::

        magic   8 bytes   b"\\x89RPT3\\r\\n\\x1a"
        count   8 bytes   little-endian record count; all-ones when unknown
        blocks  ...       until EOF, each:
            n        u32    records in this block (non-zero)
            reserved u32    zero
            addrs    n*i64  virtual addresses, little-endian
            cores    n*u8
            pids     n*u8
            types    n*u8   0=READ 1=WRITE 2=INSTRUCTION
            pad      0-7 bytes of zeros to the next 8-byte boundary

    Cores and process ids must fit a byte — true of every machine this
    harness models; the writer raises :class:`WorkloadError` otherwise.

    With ``epoch_records`` (v3.1), the writer additionally appends a
    seekable epoch-index footer on :meth:`close`: every *epoch_records*
    records start a new epoch, and the footer records each epoch's first
    block byte offset and record count so readers can start at any
    epoch without scanning the blocks before it.  Epoch boundaries must
    coincide with block boundaries, so *epoch_records* must be a
    positive multiple of *block_records*.  The footer lives after the
    last block with a fixed-size trailer at EOF; v3.0 readers of this
    harness stop at the footer, and footer-less files stay fully
    readable.
    """

    def __init__(
        self,
        path: PathLike,
        block_records: int = DEFAULT_BLOCK_RECORDS,
        epoch_records: Optional[int] = None,
    ) -> None:
        if block_records <= 0:
            raise WorkloadError("block_records must be positive")
        if epoch_records is not None and (
            epoch_records <= 0 or epoch_records % block_records != 0
        ):
            raise WorkloadError(
                f"epoch_records ({epoch_records}) must be a positive "
                f"multiple of block_records ({block_records}) so epoch "
                f"boundaries fall on block boundaries"
            )
        self.path = Path(path)
        self.block_records = block_records
        self.epoch_records = epoch_records
        self._handle = self.path.open("wb")
        self._handle.write(TRACE_V3_MAGIC)
        self._handle.write(_COUNT_UNKNOWN.to_bytes(8, "little"))
        self._count = 0
        self._addrs: List[int] = []
        self._cores = bytearray()
        self._pids = bytearray()
        self._types = bytearray()
        self._write_offset = HEADER_SIZE
        self._epochs: List[List[int]] = []  # [first-block offset, records]
        self._closed = False

    # ------------------------------------------------------------------
    def write(self, record: AccessRecord) -> None:
        """Encode and buffer one record; flush on a full block."""
        core = record.core
        process_id = record.process_id
        if core > 0xFF or process_id > 0xFF:
            raise WorkloadError(
                f"v3 blocked traces store cores and process ids as bytes; "
                f"got core {core}, process {process_id}"
            )
        self._addrs.append(record.vaddr)
        self._cores.append(core)
        self._pids.append(process_id)
        self._types.append(_TYPE_CODES[record.access_type])
        self._count += 1
        if len(self._addrs) >= self.block_records:
            self._flush_block()

    def write_all(self, records: Iterable[AccessRecord]) -> int:
        """Write every record of *records*; return how many were written."""
        before = self._count
        for record in records:
            self.write(record)
        return self._count - before

    def _flush_block(self) -> None:
        n = len(self._addrs)
        if not n:
            return
        try:
            addr_bytes = struct.pack(f"<{n}q", *self._addrs)
        except struct.error as exc:
            raise WorkloadError(f"address out of int64 range: {exc}") from exc
        block = bytearray(_BLOCK_HEADER.pack(n, 0))
        block += addr_bytes
        block += self._cores
        block += self._pids
        block += self._types
        block += b"\x00" * (-len(block) % 8)
        if self.epoch_records is not None:
            # Blocks flush at exactly block_records (epoch_records is a
            # multiple of it), so a new epoch always starts on a block.
            if not self._epochs or self._epochs[-1][1] >= self.epoch_records:
                self._epochs.append([self._write_offset, 0])
            self._epochs[-1][1] += n
        self._handle.write(block)
        self._write_offset += len(block)
        self._addrs.clear()
        self._cores.clear()
        self._pids.clear()
        self._types.clear()

    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Number of records written so far."""
        return self._count

    def close(self) -> None:
        """Flush, append the epoch footer (v3.1), patch the count, close.

        The footer and the header count are the last things written, so
        a writer killed mid-stream leaves a footer-less file with the
        unknown-count sentinel — readers fall back to a full block scan.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._flush_block()
            if self.epoch_records is not None:
                footer = bytearray(
                    _EPOCH_FOOTER_HEAD.pack(
                        EPOCH_INDEX_MAGIC, self.epoch_records, len(self._epochs)
                    )
                )
                for offset, records in self._epochs:
                    footer += _EPOCH_ENTRY.pack(offset, records)
                self._handle.write(footer)
                self._handle.write(
                    _EPOCH_TRAILER.pack(len(footer), EPOCH_INDEX_MAGIC)
                )
            self._handle.seek(_COUNT_OFFSET)
            self._handle.write(self._count.to_bytes(8, "little"))
        finally:
            self._handle.close()

    def __enter__(self) -> "BlockedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def write_trace_v3(
    path: PathLike,
    records: Iterable[AccessRecord],
    block_records: int = DEFAULT_BLOCK_RECORDS,
    epoch_records: Optional[int] = None,
) -> int:
    """Write *records* to *path* in blocked columnar v3; return the count.

    The write is atomic: records are encoded into a sibling temporary
    file and renamed over *path* only once complete, so concurrent
    readers (and parallel sweep workers recording the same stream) never
    observe a torn trace.  Passing
    ``epoch_records`` appends the v3.1 seekable epoch-index footer (see
    :class:`BlockedTraceWriter`).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        with BlockedTraceWriter(
            tmp_name, block_records=block_records, epoch_records=epoch_records
        ) as writer:
            count = writer.write_all(records)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return count


def _v3_layout(
    data: bytes, source: Path
) -> Tuple[int, int, Optional[List[Tuple[int, int]]]]:
    """Locate the optional v3.1 epoch-index footer.

    Returns ``(blocks_end, epoch_records, entries)``: the byte offset
    where the block region ends (EOF for footer-less files), the
    records-per-epoch the footer was written with (0 without a footer)
    and the per-epoch ``(first_block_offset, record_count)`` table
    (``None`` without a footer).  A present-but-inconsistent footer
    raises :class:`WorkloadError` rather than silently scanning garbage.
    """
    end = len(data)
    if end < HEADER_SIZE + _EPOCH_TRAILER.size:
        return end, 0, None
    footer_size, marker = _EPOCH_TRAILER.unpack_from(data, end - _EPOCH_TRAILER.size)
    if marker != EPOCH_INDEX_MAGIC:
        return end, 0, None
    footer_start = end - _EPOCH_TRAILER.size - footer_size
    if (
        footer_size < _EPOCH_FOOTER_HEAD.size
        or footer_start < HEADER_SIZE
        or data[footer_start : footer_start + 8] != EPOCH_INDEX_MAGIC
    ):
        raise WorkloadError(
            f"{source}: corrupt epoch-index footer (trailer points "
            f"{footer_size} bytes back but no footer marker is there); "
            f"re-record the trace to repair the index"
        )
    _marker, epoch_records, count = _EPOCH_FOOTER_HEAD.unpack_from(
        data, footer_start
    )
    expected_size = _EPOCH_FOOTER_HEAD.size + count * _EPOCH_ENTRY.size
    if footer_size != expected_size:
        raise WorkloadError(
            f"{source}: corrupt epoch-index footer ({count} epochs need "
            f"{expected_size} bytes, trailer says {footer_size})"
        )
    entries = [
        (offset, records)
        for offset, records in _EPOCH_ENTRY.iter_unpack(
            data[footer_start + _EPOCH_FOOTER_HEAD.size : footer_start + footer_size]
        )
    ]
    return footer_start, epoch_records, entries


def v3_epoch_index(path: PathLike) -> Optional[Dict[str, object]]:
    """Return the epoch index of a v3.1 trace, or None for plain v3.

    The index is ``{"epoch_records": N, "entries": [(offset, records),
    ...]}`` — one entry per epoch, in trace order.  A resumed replay
    uses it to seek to its checkpoint epoch without scanning.
    """
    source = Path(path)
    data, _stored = _read_v3(source)
    _blocks_end, epoch_records, entries = _v3_layout(data, source)
    if entries is None:
        return None
    return {"epoch_records": epoch_records, "entries": entries}


def _iter_v3_blocks(
    data: bytes,
    source: Path,
    start: int = HEADER_SIZE,
    end: Optional[int] = None,
) -> Iterator[Tuple[int, int, int]]:
    """Yield ``(offset_of_addrs, n, next_block_offset)`` per v3 block.

    *start*/*end* bound the scan to a byte range of whole blocks — a
    seeking read passes its start offset straight from the footer, and
    every scan passes the block-region end so the footer itself is never
    misread as a block.
    """
    pos = start
    if end is None:
        end = len(data)
    index = 0
    while pos < end:
        if end - pos < _BLOCK_HEADER.size:
            raise WorkloadError(
                f"{source}: block {index} at byte {pos}: truncated block header"
            )
        n, _reserved = _BLOCK_HEADER.unpack_from(data, pos)
        if n == 0:
            raise WorkloadError(
                f"{source}: block {index} at byte {pos}: empty block"
            )
        body = pos + _BLOCK_HEADER.size
        payload = 11 * n  # 8-byte address + 3 column bytes per record
        next_pos = body + payload + (-(body + payload) % 8)
        if next_pos > end:
            raise WorkloadError(
                f"{source}: block {index} at byte {pos}: truncated block body"
            )
        yield body, n, next_pos
        pos = next_pos
        index += 1


def read_trace_v3_chunks(path: PathLike, start_epoch: Optional[int] = None):
    """Yield the blocks of a v3 trace as ``AccessChunk`` column sets.

    This is the chunk kernel's native ingestion path: with numpy, each
    block decodes with four zero-copy buffer views; without it, with
    ``array``/``memoryview`` reinterpretation — either way no per-record
    Python object is created.

    ``start_epoch`` starts the read at that epoch of a v3.1 trace: the
    epoch-index footer maps it to a byte offset, so a resumed replay
    decodes only the blocks it replays.  Requesting a start epoch on a
    trace without an epoch index raises :class:`WorkloadError`.
    """
    source = Path(path)
    data, stored = _read_v3(source)
    blocks_end, _epoch_records, entries = _v3_layout(data, source)
    if start_epoch is None:
        scan_start = HEADER_SIZE
        expected = None if stored == _COUNT_UNKNOWN else stored
        promise = "header"
    else:
        if entries is None:
            raise WorkloadError(
                f"{source}: start epoch requested but the trace has no "
                f"epoch index; re-record it with epoch_records set "
                f"(trace record --epoch-records) to let a resume seek"
            )
        epochs = len(entries)
        if not 0 <= start_epoch <= epochs:
            raise WorkloadError(
                f"{source}: start epoch {start_epoch} outside the trace's "
                f"{epochs} epochs"
            )
        scan_start = (
            entries[start_epoch][0] if start_epoch < epochs else blocks_end
        )
        expected = sum(records for _offset, records in entries[start_epoch:])
        promise = "epoch index"
    np = _require_numpy()
    total = 0
    for body, n, _next_pos in _iter_v3_blocks(data, source, scan_start, blocks_end):
        addrs = array("q")
        addrs.frombytes(data[body : body + 8 * n])
        if sys.byteorder != "little":  # pragma: no cover - exotic hosts
            addrs.byteswap()
        col = body + 8 * n
        if np is not None:
            bytes_view = np.frombuffer(data, dtype=np.uint8, offset=col, count=3 * n)
            cores = array("q")
            cores.frombytes(bytes_view[:n].astype(np.int64).tobytes())
            pids = array("q")
            pids.frombytes(bytes_view[n : 2 * n].astype(np.int64).tobytes())
            types = array("q")
            types.frombytes(bytes_view[2 * n :].astype(np.int64).tobytes())
            bad = int(bytes_view[2 * n :].max()) > 2 or int(
                np.frombuffer(data, dtype="<i8", offset=body, count=n).min()
            ) < 0
        else:
            # array('q', <bytes>) would reinterpret raw bytes; build from
            # int lists (C-speed iteration over the byte columns).
            cores = array("q", list(data[col : col + n]))
            pids = array("q", list(data[col + n : col + 2 * n]))
            types = array("q", list(data[col + 2 * n : col + 3 * n]))
            bad = max(types) > 2 or min(addrs) < 0
        if bad:
            raise WorkloadError(
                f"{source}: block at byte {body - _BLOCK_HEADER.size}: "
                f"invalid access-type code or negative address"
            )
        total += n
        yield AccessChunk(cores, addrs, types, pids)
    if expected is not None and total != expected:
        raise WorkloadError(
            f"{source}: {promise} promises {expected} records but the "
            f"file holds {total}"
        )


def read_trace_v3(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records of the v3 blocked trace at *path*."""
    for chunk in read_trace_v3_chunks(path):
        yield from chunk.records()


def v3_block_stats(path: PathLike) -> Dict[str, float]:
    """Block-level statistics of a v3 trace (``trace info`` CLI)."""
    source = Path(path)
    data, _stored = _read_v3(source)
    blocks_end, epoch_records, entries = _v3_layout(data, source)
    sizes = [
        n for _body, n, _next in _iter_v3_blocks(data, source, end=blocks_end)
    ]
    records = sum(sizes)
    return {
        "blocks": len(sizes),
        "records_per_block": records / len(sizes) if sizes else 0.0,
        "max_block_records": max(sizes) if sizes else 0,
        "epochs": len(entries) if entries is not None else 0,
        "epoch_records": epoch_records,
    }


# ----------------------------------------------------------------------
# Inspection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceInfo:
    """Summary of one trace file, any format (``trace info`` CLI).

    Beyond the access mix, the summary carries the columnar-replay
    figures the chunk kernel cares about: per-stream record counts
    (one stream per (process, core) pair), how the records group into
    blocks (stored blocks for v3, would-be decode chunks for v1 text) and
    a measured decode rate for the scan itself.
    """

    path: str
    format: str
    records: int
    file_bytes: int
    reads: int
    writes: int
    instructions: int
    core_count: int
    process_count: int
    #: Records per (process, core) stream, keyed ``"p<process>/c<core>"``.
    stream_records: Dict[str, int] = field(default_factory=dict)
    #: Blocks the trace decodes into: stored blocks for v3, chunks of
    #: :data:`DEFAULT_BLOCK_RECORDS` for text traces.
    blocks: int = 0
    #: Average records per block/chunk.
    records_per_block: float = 0.0
    #: Epochs in the v3.1 seekable index; 0 when the trace has none.
    epochs: int = 0
    #: Records per full epoch the index was written with (0 without one).
    epoch_records: int = 0
    #: Decode throughput of the inspection scan itself, in MB/s.
    decode_mb_s: float = 0.0

    @property
    def bytes_per_record(self) -> float:
        """Average encoded size of one record."""
        if self.records == 0:
            return 0.0
        return self.file_bytes / self.records


def inspect_trace(path: PathLike) -> TraceInfo:
    """Scan a trace (any format) and return its :class:`TraceInfo`."""
    # Imported here, not at module top, to keep binary.py importable from
    # io.py without a cycle.
    import time

    from repro.trace.io import read_trace, sniff_format

    source = Path(path)
    fmt = sniff_format(source)
    reads = writes = instructions = 0
    streams: Dict[Tuple[int, int], int] = {}
    count = 0
    started = time.perf_counter()
    for record in read_trace(source):
        count += 1
        key = (record.process_id, record.core)
        streams[key] = streams.get(key, 0) + 1
        if record.access_type is AccessType.WRITE:
            writes += 1
        elif record.access_type is AccessType.INSTRUCTION:
            instructions += 1
        else:
            reads += 1
    elapsed = time.perf_counter() - started
    file_bytes = source.stat().st_size
    if fmt == "blocked":
        stats = v3_block_stats(source)
        blocks = int(stats["blocks"])
        records_per_block = stats["records_per_block"]
        epochs = int(stats["epochs"])
        epoch_records = int(stats["epoch_records"])
    else:
        blocks = -(-count // DEFAULT_BLOCK_RECORDS) if count else 0
        records_per_block = count / blocks if blocks else 0.0
        epochs = 0
        epoch_records = 0
    return TraceInfo(
        path=str(source),
        format=fmt,
        records=count,
        file_bytes=file_bytes,
        reads=reads,
        writes=writes,
        instructions=instructions,
        core_count=len({core for _pid, core in streams}),
        process_count=len({pid for pid, _core in streams}),
        stream_records={
            f"p{pid}/c{core}": n
            for (pid, core), n in sorted(streams.items())
        },
        blocks=blocks,
        records_per_block=records_per_block,
        epochs=epochs,
        epoch_records=epoch_records,
        decode_mb_s=(file_bytes / elapsed / 1e6) if elapsed > 0 else 0.0,
    )
