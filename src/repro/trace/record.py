"""Trace records: the unit of work the trace-driven simulator consumes.

A trace is an ordered sequence of :class:`AccessRecord` objects, each
describing one memory reference made by one core of one process.  Synthetic
workload generators produce these records directly; the reader/writer pair
in :mod:`repro.trace` serialises them to disk so traces can be captured
once and replayed against many machine configurations.

:class:`AccessRecord` is a :class:`typing.NamedTuple` rather than a frozen
dataclass: tens of millions are created per sweep (one per simulated
memory reference), and tuple construction is several times cheaper than a
frozen dataclass's ``object.__setattr__`` per field — which is visible
directly in generation and trace-replay throughput.  The public surface
(keyword construction, field access, equality, hashing, pickling,
validation on construction) is unchanged.

:class:`AccessChunk` is the columnar form of the same stream: a block of
accesses as parallel ``array('q')`` columns.  v3 blocked traces decode
straight into chunks, and a simulator fed chunks replays them through
the vectorised chunk kernel (:mod:`repro.system.batchcore`) instead of
record by record.
"""

from __future__ import annotations

from array import array
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Optional

from repro.errors import ConfigurationError, SimulationError, WorkloadError


class AccessType(Enum):
    """Kind of memory reference."""

    READ = "R"
    WRITE = "W"
    INSTRUCTION = "I"

    @property
    def is_write(self) -> bool:
        """True for store references."""
        return self is AccessType.WRITE

    @property
    def is_instruction(self) -> bool:
        """True for instruction-fetch references."""
        return self is AccessType.INSTRUCTION

    @classmethod
    def from_code(cls, code: str) -> "AccessType":
        """Parse the single-character trace code (``R``/``W``/``I``)."""
        for member in cls:
            if member.value == code:
                return member
        raise WorkloadError(f"unknown access type code {code!r}")


class _AccessRecordFields(NamedTuple):
    core: int
    vaddr: int
    access_type: AccessType
    process_id: int = 0


class AccessRecord(_AccessRecordFields):
    """One memory reference in a trace.

    Attributes
    ----------
    core:
        The core (hardware thread) issuing the reference.
    vaddr:
        Virtual address referenced.
    access_type:
        Read, write or instruction fetch.
    process_id:
        Simulated process; distinct processes have distinct page tables
        (used by the multi-process experiments of Section III-B).
    """

    __slots__ = ()

    def __new__(
        cls,
        core: int,
        vaddr: int,
        access_type: AccessType,
        process_id: int = 0,
    ) -> "AccessRecord":
        if core < 0:
            raise WorkloadError(f"negative core id {core}")
        if vaddr < 0:
            raise WorkloadError(f"negative virtual address {vaddr:#x}")
        if process_id < 0:
            raise WorkloadError(f"negative process id {process_id}")
        return tuple.__new__(cls, (core, vaddr, access_type, process_id))

    @property
    def is_write(self) -> bool:
        """True for store references."""
        return self.access_type.is_write

    @property
    def is_instruction(self) -> bool:
        """True for instruction-fetch references."""
        return self.access_type.is_instruction

    def to_line(self) -> str:
        """Serialise to the one-line text trace format."""
        return (
            f"{self.process_id} {self.core} {self.access_type.value} {self.vaddr:#x}"
        )

    @classmethod
    def from_line(cls, line: str) -> "AccessRecord":
        """Parse a record from the one-line text trace format."""
        parts = line.split()
        if len(parts) != 4:
            raise WorkloadError(f"malformed trace line: {line!r}")
        process_id, core, code, vaddr = parts
        try:
            return cls(
                core=int(core),
                vaddr=int(vaddr, 0),
                access_type=AccessType.from_code(code),
                process_id=int(process_id),
            )
        except ValueError as exc:
            raise WorkloadError(f"malformed trace line: {line!r}") from exc


#: Columnar access-type codes (the ``types`` column of an AccessChunk).
TYPE_READ = 0
TYPE_WRITE = 1
TYPE_INSTRUCTION = 2

_TYPE_CODES = {
    AccessType.READ: TYPE_READ,
    AccessType.WRITE: TYPE_WRITE,
    AccessType.INSTRUCTION: TYPE_INSTRUCTION,
}
_CODE_TYPES = (AccessType.READ, AccessType.WRITE, AccessType.INSTRUCTION)

#: Records per chunk when a record stream is packed into chunks (and per
#: block of a v3 trace, so one decoded block feeds one kernel chunk).
CHUNK_RECORDS = 8192


class AccessChunk:
    """A block of accesses as parallel columns (struct-of-arrays).

    Columns are ``array('q')`` so pure-Python code indexes them directly
    and the vector kernel views them zero-copy via ``np.frombuffer``.
    ``types`` holds the ``TYPE_*`` codes.
    """

    __slots__ = ("cores", "vaddrs", "types", "pids")

    def __init__(
        self,
        cores: Optional[array] = None,
        vaddrs: Optional[array] = None,
        types: Optional[array] = None,
        pids: Optional[array] = None,
    ) -> None:
        self.cores = cores if cores is not None else array("q")
        self.vaddrs = vaddrs if vaddrs is not None else array("q")
        self.types = types if types is not None else array("q")
        self.pids = pids if pids is not None else array("q")

    def __len__(self) -> int:
        return len(self.cores)

    def append_record(self, record: AccessRecord) -> None:
        """Append one :class:`AccessRecord`."""
        self.cores.append(record.core)
        self.vaddrs.append(record.vaddr)
        self.types.append(_TYPE_CODES[record.access_type])
        self.pids.append(record.process_id)

    def sliced(self, start: int, stop: int) -> "AccessChunk":
        """Return a copy holding accesses ``[start, stop)``.

        Chunk boundaries never affect simulated state, so splitting a
        chunk (at a ``max_accesses`` cut or an epoch boundary) is
        bit-transparent.
        """
        return AccessChunk(
            self.cores[start:stop],
            self.vaddrs[start:stop],
            self.types[start:stop],
            self.pids[start:stop],
        )

    def truncated(self, count: int) -> "AccessChunk":
        """Return a copy holding only the first *count* accesses."""
        return self.sliced(0, count)

    def records(self) -> Iterator[AccessRecord]:
        """Materialise the chunk back into :class:`AccessRecord` tuples."""
        types = self.types
        for i in range(len(self.cores)):
            yield AccessRecord(
                core=self.cores[i],
                vaddr=self.vaddrs[i],
                access_type=_CODE_TYPES[types[i]],
                process_id=self.pids[i],
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AccessChunk({len(self)} accesses)"


def chunk_records(
    records: Iterable[AccessRecord], chunk_size: int = CHUNK_RECORDS
) -> Iterator[AccessChunk]:
    """Pack an access-record stream into :class:`AccessChunk` blocks.

    Packing is columnar: each column of a block is built by the
    ``array`` constructor from one list comprehension, so the per-record
    Python cost is a tuple index at C speed rather than four method
    calls.
    """
    if chunk_size <= 0:
        raise ConfigurationError(f"chunk size must be positive (got {chunk_size})")
    codes = _TYPE_CODES
    read = AccessType.READ
    iterator = iter(records)
    while True:
        block = list(islice(iterator, chunk_size))
        if not block:
            return
        yield AccessChunk(
            array("q", [r[0] for r in block]),
            array("q", [r[1] for r in block]),
            array(
                "q",
                [TYPE_READ if r[2] is read else codes[r[2]] for r in block],
            ),
            array("q", [r[3] for r in block]),
        )


def iter_chunks(source: Iterable[AccessChunk]) -> Iterator[AccessChunk]:
    """Yield the chunks of a chunk source, refusing records mixed in."""
    for chunk in source:
        if not isinstance(chunk, AccessChunk):
            raise SimulationError(
                "mixed chunk/record access stream; chunk sources must "
                "yield AccessChunk blocks exclusively"
            )
        yield chunk
