"""Binary trace format v2: packed, delta-encoded access records.

The v1 text format (:mod:`repro.trace.io`) spends ~18 bytes and three
``int()`` parses per access, which makes million-record traces both large
and slow to replay.  Format v2 packs each record into a few bytes by
exploiting the structure real traces have:

* **Predictable stream interleaving.**  Workload generators interleave
  (process, core) streams round-robin, so the next record's stream is
  almost always either the same as the last one or the *next stream in
  first-seen order* (wrapping).  Both coder sides keep that first-seen
  ring, and both cases are encoded in the header byte with no payload at
  all — including the wrap from the last core back to the first and the
  strict process alternation of the two-process workloads.
* **Per-stream address registers.**  Each (process, core) stream keeps
  four *address registers*.  A record's address is delta-encoded against
  one of them (the header says which), and that register is then updated
  to the new address.  Because the writer steers each data region a
  stream touches onto its own register, the alternation between, say, a
  thread's private heap and a shared table costs a small intra-region
  delta instead of a multi-megabyte jump.
* **Line-aligned deltas.**  Nearly every delta is a multiple of the
  64-byte line size; such deltas are stored in line units (one varint
  bit flags the unit), and deltas of 0 and ±1 line (repeated hot line,
  sequential scan) are folded into the header byte entirely.

The resulting layout is::

    magic   8 bytes   b"\\x89RPT2\\r\\n\\x1a"  (PNG-style, detects text-mode damage)
    count   8 bytes   little-endian record count; all-ones when unknown
    records ...       one variable-length record per access, to EOF

Each record starts with one header byte::

    bits 0-1  access type: 0=READ, 1=WRITE, 2=INSTRUCTION (3 invalid)
    bits 2-3  stream: 0=same as previous, 1=next stream in the ring,
              2=core varint follows (process unchanged),
              3=core varint then process-id varint follow
    bits 4-5  address register index within the record's stream
    bits 6-7  delta: 0=varint follows, 1=zero, 2=+1 line, 3=-1 line

followed by the optional core, process and delta varints, in that order.
Varints are LEB128 (7 bits per byte, high bit continues).  A delta varint
carries ``zigzag(delta_in_units) << 1 | line_flag`` where ``line_flag``
says whether the unit is one 64-byte line or one byte.  Decoder state
(the stream ring starting at (process 0, core 0), all registers zero) is
deterministic, so any prefix of a trace decodes identically to the
stream it was truncated from.  Explicitly-coded streams (modes 2/3) are
appended to the ring on first sight; the register *choice* is encoded in
the record, so the writer's steering heuristic can evolve without
touching the reader.

On the workload mixes in this repository the format is 6-8x smaller than
v1 text and replays about 3x faster (see
``benchmarks/test_trace_perf.py``).
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

#: Magic prefix identifying a v2 binary trace (and, PNG-style, catching
#: text-mode newline translation or 7-bit truncation of the file).
TRACE_V2_MAGIC = b"\x89RPT2\r\n\x1a"

#: Magic prefix identifying a v3 blocked columnar trace (same scheme).
TRACE_V3_MAGIC = b"\x89RPT3\r\n\x1a"

#: Byte offset of the little-endian record-count field.
_COUNT_OFFSET = len(TRACE_V2_MAGIC)

#: Sentinel stored in the count field while it is unknown.
_COUNT_UNKNOWN = (1 << 64) - 1

#: Total header size: magic plus the record-count field.
HEADER_SIZE = _COUNT_OFFSET + 8

#: Address-delta unit used when a delta's line flag is set.
_LINE_UNIT = 64

#: Address registers per (process, core) stream.
_REGISTER_COUNT = 4

#: Writer heuristic: a jump farther than this from every live register is
#: treated as entering a new data region and opens a fresh register (the
#: workload layout separates regions by at least a 1 MiB gap).
_NEW_REGION_BYTES = 1 << 20

#: Stream keys pack the process id above the core id; cores are machine
#: core numbers and never approach this bound.
_STREAM_SHIFT = 48

_TYPE_CODES: Dict[AccessType, int] = {
    AccessType.READ: 0,
    AccessType.WRITE: 1,
    AccessType.INSTRUCTION: 2,
}
_TYPES_BY_CODE: Tuple[AccessType, ...] = (
    AccessType.READ,
    AccessType.WRITE,
    AccessType.INSTRUCTION,
)


def _append_uvarint(buffer: bytearray, value: int) -> None:
    """Append *value* (non-negative) to *buffer* as a LEB128 varint."""
    while value >= 0x80:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def _zigzag(value: int) -> int:
    """Map a signed integer to an unsigned one, small magnitudes first."""
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


class BinaryTraceWriter:
    """Streaming writer for v2 binary traces.

    Records are encoded incrementally and flushed in chunks, so traces
    larger than memory can be captured.  The record count in the header
    is patched in on :meth:`close` (the file is opened by path and is
    therefore seekable).  Usable as a context manager.
    """

    #: Flush the encode buffer to disk once it exceeds this many bytes.
    FLUSH_BYTES = 1 << 20

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle = self.path.open("wb")
        self._handle.write(TRACE_V2_MAGIC)
        self._handle.write(_COUNT_UNKNOWN.to_bytes(8, "little"))
        self._buffer = bytearray()
        self._count = 0
        # Stream ring in first-seen order.  Each entry is
        # [core, process_id, registers, registers_in_use]; entry 0 is the
        # implicit initial stream (process 0, core 0).
        self._ring: List[List] = [[0, 0, [0] * _REGISTER_COUNT, 1]]
        self._ring_index: Dict[int, int] = {0: 0}
        self._ring_pos = 0
        self._closed = False

    # ------------------------------------------------------------------
    def write(self, record: AccessRecord) -> None:
        """Encode and buffer one record."""
        buffer = self._buffer
        header = _TYPE_CODES[record.access_type]
        core = record.core
        process_id = record.process_id
        vaddr = record.vaddr

        ring = self._ring
        pos = self._ring_pos
        entry = ring[pos]
        core_payload = ()
        if core != entry[0] or process_id != entry[1]:
            next_pos = pos + 1
            if next_pos == len(ring):
                next_pos = 0
            candidate = ring[next_pos]
            if core == candidate[0] and process_id == candidate[1]:
                header |= 1 << 2
                pos = next_pos
                entry = candidate
            else:
                key = (process_id << _STREAM_SHIFT) | core
                index = self._ring_index.get(key)
                if index is None:
                    index = len(ring)
                    self._ring_index[key] = index
                    ring.append([core, process_id, [0] * _REGISTER_COUNT, 1])
                if process_id == entry[1]:
                    header |= 2 << 2
                    core_payload = (core,)
                else:
                    header |= 3 << 2
                    core_payload = (core, process_id)
                pos = index
                entry = ring[pos]
            self._ring_pos = pos
        regs, used = entry[2], entry[3]

        # Pick the live register closest to the new address; a jump far
        # from all of them means the stream entered a new data region, so
        # open a fresh register for it while one is free.
        best_index = 0
        best_delta = vaddr - regs[0]
        best_magnitude = abs(best_delta)
        for index in range(1, used):
            delta = vaddr - regs[index]
            magnitude = abs(delta)
            if magnitude < best_magnitude:
                best_index, best_delta, best_magnitude = index, delta, magnitude
        if best_magnitude > _NEW_REGION_BYTES and used < _REGISTER_COUNT:
            best_index = used
            best_delta = vaddr
            entry[3] = used + 1
        regs[best_index] = vaddr
        header |= best_index << 4

        delta = best_delta
        if delta == 0:
            header |= 1 << 6
            delta_payload = None
        elif delta == _LINE_UNIT:
            header |= 2 << 6
            delta_payload = None
        elif delta == -_LINE_UNIT:
            header |= 3 << 6
            delta_payload = None
        elif delta % _LINE_UNIT == 0:
            delta_payload = _zigzag(delta // _LINE_UNIT) << 1 | 1
        else:
            delta_payload = _zigzag(delta) << 1

        buffer.append(header)
        for value in core_payload:
            _append_uvarint(buffer, value)
        if delta_payload is not None:
            _append_uvarint(buffer, delta_payload)

        self._count += 1
        if len(buffer) >= self.FLUSH_BYTES:
            self._handle.write(buffer)
            buffer.clear()

    def write_all(self, records: Iterable[AccessRecord]) -> int:
        """Write every record of *records*; return how many were written."""
        before = self._count
        for record in records:
            self.write(record)
        return self._count - before

    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Number of records written so far."""
        return self._count

    def close(self) -> None:
        """Flush, patch the header record count and close the file."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._buffer:
                self._handle.write(self._buffer)
                self._buffer.clear()
            self._handle.seek(_COUNT_OFFSET)
            self._handle.write(self._count.to_bytes(8, "little"))
        finally:
            self._handle.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def write_trace_v2(path: PathLike, records: Iterable[AccessRecord]) -> int:
    """Write *records* to *path* in binary v2; return the record count.

    The write is atomic: records are encoded into a temporary file in the
    target directory which is renamed over *path* only once complete, so
    concurrent readers (and parallel sweep workers recording the same
    stream) never observe a torn trace.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(target.parent), prefix=target.name, suffix=".tmp"
    )
    os.close(fd)
    try:
        with BinaryTraceWriter(tmp_name) as writer:
            count = writer.write_all(records)
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return count


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def _check_header(data: bytes, source: Path) -> int:
    """Validate the v2 magic and return the stored count (or the sentinel)."""
    if len(data) < HEADER_SIZE or not data.startswith(TRACE_V2_MAGIC):
        raise WorkloadError(f"{source}: not a v2 binary trace (bad magic)")
    return int.from_bytes(data[_COUNT_OFFSET:HEADER_SIZE], "little")


def stored_record_count(path: PathLike) -> int:
    """Return the header record count, or -1 when the header says unknown.

    Works for both binary formats (v2 varint and v3 blocked share the
    8-byte-magic + 8-byte-count header layout).  Only the fixed-size
    header is read, so this is O(1) regardless of trace length — the
    fast path behind :func:`repro.trace.io.count_records`.
    """
    source = Path(path)
    try:
        with source.open("rb") as handle:
            data = handle.read(HEADER_SIZE)
    except OSError as exc:
        raise WorkloadError(f"trace file {source} cannot be read: {exc}") from exc
    if len(data) < HEADER_SIZE or not (
        data.startswith(TRACE_V2_MAGIC) or data.startswith(TRACE_V3_MAGIC)
    ):
        raise WorkloadError(f"{source}: not a binary trace (bad magic)")
    count = int.from_bytes(data[_COUNT_OFFSET:HEADER_SIZE], "little")
    return -1 if count == _COUNT_UNKNOWN else count


def read_trace_v2(path: PathLike) -> Iterator[AccessRecord]:
    """Yield the records of the v2 binary trace at *path*.

    The file is read into memory in one call (a million-record trace is a
    few megabytes) and decoded with a tight loop; malformed input raises
    :class:`~repro.errors.WorkloadError` naming the file, the record
    index and the byte offset of the offending record.  This loop is the
    replay hot path: records are built with ``tuple.__new__`` (inputs are
    structurally non-negative by construction, and the address is checked
    explicitly), which is what buys replay its speed margin over text.
    """
    source = Path(path)
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    data = source.read_bytes()
    stored = _check_header(data, source)

    pos = HEADER_SIZE
    end = len(data)
    # Stream ring mirroring the writer: entries are [core, process_id,
    # registers], appended in first-explicit-sight order after the
    # implicit initial (process 0, core 0) stream.
    ring: List[List] = [[0, 0, [0] * _REGISTER_COUNT]]
    ring_index: Dict[int, int] = {0: 0}
    ring_pos = 0
    core, process_id, regs = 0, 0, ring[0][2]
    types = _TYPES_BY_CODE
    new = tuple.__new__
    cls = AccessRecord
    line_unit = _LINE_UNIT
    index = 0

    while pos < end:
        record_start = pos
        try:
            header = data[pos]
            pos += 1

            type_code = header & 3
            if type_code == 3:
                raise WorkloadError("invalid access-type code 3")

            stream_mode = (header >> 2) & 3
            if stream_mode:
                if stream_mode == 1:
                    ring_pos += 1
                    if ring_pos == len(ring):
                        ring_pos = 0
                    entry = ring[ring_pos]
                else:
                    byte = data[pos]
                    pos += 1
                    if byte < 0x80:
                        core = byte
                    else:
                        core = byte & 0x7F
                        shift = 7
                        while True:
                            byte = data[pos]
                            pos += 1
                            core |= (byte & 0x7F) << shift
                            if byte < 0x80:
                                break
                            shift += 7
                    if stream_mode == 3:
                        byte = data[pos]
                        pos += 1
                        if byte < 0x80:
                            process_id = byte
                        else:
                            process_id = byte & 0x7F
                            shift = 7
                            while True:
                                byte = data[pos]
                                pos += 1
                                process_id |= (byte & 0x7F) << shift
                                if byte < 0x80:
                                    break
                                shift += 7
                    key = (process_id << _STREAM_SHIFT) | core
                    ring_pos = ring_index.get(key, -1)
                    if ring_pos < 0:
                        ring_pos = len(ring)
                        ring_index[key] = ring_pos
                        ring.append([core, process_id, [0] * _REGISTER_COUNT])
                    entry = ring[ring_pos]
                core, process_id, regs = entry

            delta_tag = header >> 6
            if delta_tag == 0:
                byte = data[pos]
                pos += 1
                if byte < 0x80:
                    raw = byte
                else:
                    raw = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        raw |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                unit = line_unit if raw & 1 else 1
                raw >>= 1
                delta = (raw >> 1) if not (raw & 1) else -((raw + 1) >> 1)
                delta *= unit
            elif delta_tag == 1:
                delta = 0
            elif delta_tag == 2:
                delta = line_unit
            else:
                delta = -line_unit

            register = (header >> 4) & 3
            vaddr = regs[register] + delta
            if vaddr < 0:
                raise WorkloadError(f"negative decoded address {vaddr:#x}")
            regs[register] = vaddr
        except IndexError:
            raise WorkloadError(
                f"{source}: record {index} at byte {record_start}: "
                f"truncated trace"
            ) from None
        except WorkloadError as exc:
            raise WorkloadError(
                f"{source}: record {index} at byte {record_start}: {exc}"
            ) from None
        yield new(cls, (core, vaddr, types[type_code], process_id))
        index += 1

    if stored != _COUNT_UNKNOWN and index != stored:
        raise WorkloadError(
            f"{source}: header promises {stored} records but the file "
            f"holds {index}"
        )


# ----------------------------------------------------------------------
# Format v3: blocked columnar records
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

    Where v2 optimises *bytes per record* (varint deltas, implicit stream
    coding — inherently sequential to decode), v3 optimises *decode
    bandwidth*: records are laid out in fixed-size blocks of fixed-width
    columns (addresses as little-endian ``int64``, cores/processes/types
    as single bytes), so a reader turns a whole block into parallel
    arrays with four buffer reinterpretations and no per-record
    arithmetic.  The ~11 bytes/record cost over v2's ~2 is the price of
    replay-speed decode; the blocks decode straight into
    :class:`~repro.trace.record.AccessChunk` columns, which the packed
    engine replays through its chunk kernel.

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

    Atomic like :func:`write_trace_v2`: encoded into a sibling temporary
    file and renamed over *path* only once complete.  Passing
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
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    data = source.read_bytes()
    if not data.startswith(TRACE_V3_MAGIC):
        raise WorkloadError(f"{source}: not a v3 blocked trace (bad magic)")
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
    if not source.exists():
        raise WorkloadError(f"trace file {source} does not exist")
    data = source.read_bytes()
    if not data.startswith(TRACE_V3_MAGIC):
        raise WorkloadError(f"{source}: not a v3 blocked trace (bad magic)")
    stored = int.from_bytes(data[_COUNT_OFFSET:HEADER_SIZE], "little")
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
    data = source.read_bytes()
    if not data.startswith(TRACE_V3_MAGIC):
        raise WorkloadError(f"{source}: not a v3 blocked trace (bad magic)")
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
    blocks (stored blocks for v3, would-be decode chunks for v1/v2) and
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
    #: :data:`DEFAULT_BLOCK_RECORDS` for the sequential formats.
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
