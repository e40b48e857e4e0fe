"""Trace format: access records and file I/O (v3 blocked; v1 text read for import)."""

from repro.trace.binary import (
    TRACE_V3_MAGIC,
    BlockedTraceWriter,
    TraceInfo,
    inspect_trace,
    read_trace_v3,
    read_trace_v3_chunks,
    v3_epoch_index,
    write_trace_v3,
)
from repro.trace.io import (
    FORMAT_BLOCKED,
    FORMAT_TEXT,
    count_records,
    read_trace,
    read_trace_chunks,
    read_trace_native,
    sniff_format,
    write_trace,
)
from repro.trace.record import AccessChunk, AccessRecord, AccessType, chunk_records

__all__ = [
    "AccessChunk",
    "AccessRecord",
    "AccessType",
    "BlockedTraceWriter",
    "FORMAT_BLOCKED",
    "FORMAT_TEXT",
    "TRACE_V3_MAGIC",
    "TraceInfo",
    "count_records",
    "inspect_trace",
    "read_trace",
    "chunk_records",
    "read_trace_chunks",
    "read_trace_native",
    "read_trace_v3",
    "read_trace_v3_chunks",
    "sniff_format",
    "v3_epoch_index",
    "write_trace",
    "write_trace_v3",
]
