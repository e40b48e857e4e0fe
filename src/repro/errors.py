"""Exception hierarchy for the ALLARM reproduction library.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch a single base class.  Specific subclasses exist for the
major subsystems (configuration, memory allocation, coherence protocol,
network and workload generation) to make failures easy to attribute.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A system, cache, directory or network configuration is invalid.

    Raised during construction (for example a cache whose size is not a
    multiple of ``line_size * associativity``) rather than at use time, so
    that misconfiguration is reported as early as possible.
    """


class AddressError(ReproError):
    """An address is out of range or incorrectly aligned."""


class AllocationError(ReproError):
    """The NUMA allocator could not satisfy a request.

    This occurs only when *every* node's frame pool is exhausted; spilling
    to a remote node is handled transparently and does not raise.
    """


class ProtocolError(ReproError):
    """The coherence protocol reached an inconsistent state.

    These indicate bugs in the protocol engine (or corrupted external
    state), not user errors: for instance a directory entry naming an
    owner whose cache does not hold the line in an owned state.
    """


class NetworkError(ReproError):
    """A message was routed to a non-existent node or link."""


class WorkloadError(ReproError):
    """A workload specification is invalid or a trace is malformed."""


class SimulationError(ReproError):
    """The simulator was driven incorrectly (e.g. run twice)."""


class InjectedFaultError(ReproError):
    """A fault deliberately raised by the :mod:`repro.faults` harness.

    Chaos tests inject these to stand in for real worker failures (OOM
    kills, segfaults, flaky storage).  They carry the fault site and key
    so a retry trace reads like a real incident report.
    """


class ServeError(ReproError):
    """A sweep-service request or response is invalid.

    Raised by the :mod:`repro.serve` layer for malformed wire payloads
    (bad JSON, unknown fields, a spec naming a server-side trace path),
    protocol violations, and client-observed HTTP failures.  Carries an
    optional ``status`` with the HTTP status code the condition maps to.
    """

    def __init__(self, message, status=400):
        super().__init__(message)
        self.status = status


class ExecutionError(ReproError):
    """One or more runs of a sweep failed permanently.

    Raised after the retry policy is exhausted.  ``failures`` lists the
    per-run :class:`~repro.analysis.executor.RunFailure` records and
    ``outcome`` (when available) holds the partial
    :class:`~repro.analysis.executor.SweepOutcome` with every result
    that *did* complete, so callers can salvage finished work even from
    a failed sweep.
    """

    def __init__(self, message, failures=(), outcome=None):
        super().__init__(message)
        self.failures = list(failures)
        self.outcome = outcome
