"""Versioned, digest-stamped checkpoints of live machine state.

A checkpoint captures *everything* a machine mutates while replaying
accesses — cache tags/states/LRU stamps and recency stacks, probe
filters, directory/DRAM/network counters and the DRAM open row, core
clocks, the NUMA allocator (each frame pool's allocated count and the
translation map), plus the engine-specific counters — so
that ``restore()`` onto a freshly built machine of the same
configuration and engine continues the run **bit-identically**: the
final :class:`~repro.stats.snapshot.MachineSnapshot` of a
checkpoint/restore run must satisfy
``stats.compare.snapshot_diff(expected, actual) == []`` against an
uninterrupted run.  That contract is what makes resumable long runs
(:mod:`repro.analysis.resume`) safe.

Two serialization paths share one walker:

* the packed engine exposes ``state_dict()``/``load_state_dict()`` on
  its flat-array components (:class:`~repro.cache.packed.PackedCache`,
  :class:`~repro.cache.packed.PackedHierarchy`,
  :class:`~repro.core.packed_directory.PackedProbeFilter`) — restore is
  equal-length slice assignment into the existing buffers;
* the reference :class:`~repro.system.machine.Machine` takes a slower
  dict-based path (per-set line dicts, LRU recency stacks), so
  cross-engine checks can checkpoint too.

Wire format: 8-byte magic, little-endian ``u32`` version, 32-byte
SHA-256 of the payload, pickled state payload.  Decoding verifies all
three and raises :class:`~repro.errors.SimulationError` with an
actionable message on mismatch — a torn or corrupt checkpoint file must
never silently restore garbage.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import fields
from typing import Dict, List

from repro.cache.cache import CacheLine
from repro.coherence.states import LineState
from repro.core.probe_filter import ProbeFilterEntry
from repro.errors import SimulationError

#: Magic prefix of every checkpoint blob.
CHECKPOINT_MAGIC = b"\x89RCKP\r\n\x1a"

#: Version of the checkpoint state layout.  Bump on any change to the
#: walker's dict shape; decode rejects mismatched versions.
CHECKPOINT_VERSION = 7

_HEADER = struct.Struct("<I")
_DIGEST_BYTES = 32


class CheckpointVersionError(SimulationError):
    """An intact checkpoint whose layout version this build does not read."""


# ----------------------------------------------------------------------
# Envelope
# ----------------------------------------------------------------------
def encode_checkpoint(state: Dict[str, object]) -> bytes:
    """Wrap a state dict in the versioned, digest-stamped envelope."""
    payload = pickle.dumps(state, protocol=4)
    digest = hashlib.sha256(payload).digest()
    return CHECKPOINT_MAGIC + _HEADER.pack(CHECKPOINT_VERSION) + digest + payload


def verify_checkpoint(blob: bytes) -> bytes:
    """Validate the envelope of a checkpoint blob, returning its payload.

    Checks length, magic, the SHA-256 digest and the version — everything
    short of unpickling — and raises :class:`SimulationError` on damage.
    This is what lets checkpoint *discovery* (``resume.latest_checkpoint``)
    quarantine torn files without paying for, or trusting, a pickle load.
    The version is checked last, so :class:`CheckpointVersionError`
    means an intact file from a build with another state layout, never
    a torn one.
    """
    header_len = len(CHECKPOINT_MAGIC) + _HEADER.size + _DIGEST_BYTES
    if len(blob) < header_len:
        raise SimulationError(
            f"checkpoint blob is {len(blob)} bytes, shorter than the "
            f"{header_len}-byte header; the file is truncated or not a "
            f"checkpoint"
        )
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise SimulationError(
            "bad checkpoint magic; the file is not a repro checkpoint"
        )
    digest_off = len(CHECKPOINT_MAGIC) + _HEADER.size
    stored = blob[digest_off : digest_off + _DIGEST_BYTES]
    payload = blob[header_len:]
    if hashlib.sha256(payload).digest() != stored:
        raise SimulationError(
            "checkpoint payload digest mismatch; the file is corrupt "
            "(torn write or bit rot) — re-record from the last good epoch"
        )
    (version,) = _HEADER.unpack_from(blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} is not supported "
            f"(this build writes version {CHECKPOINT_VERSION}); use a fresh "
            f"--checkpoint-dir or re-record the checkpoints"
        )
    return payload


def decode_checkpoint(blob: bytes) -> Dict[str, object]:
    """Unwrap and verify a checkpoint blob; raise on any damage."""
    return pickle.loads(verify_checkpoint(blob))


def checkpoint_file_name(epoch: int) -> str:
    """File name of the epoch-*epoch* checkpoint inside a checkpoint dir.

    Epoch *k*'s file holds the machine state after ``k *
    checkpoint_every`` accesses have been replayed.
    """
    return f"epoch-{epoch:06d}.ckpt"


def parse_checkpoint_epoch(name: str) -> int:
    """Inverse of :func:`checkpoint_file_name`; ``-1`` for other files."""
    if not name.startswith("epoch-") or not name.endswith(".ckpt"):
        return -1
    digits = name[len("epoch-") : -len(".ckpt")]
    if not digits.isdigit():
        return -1
    return int(digits)


def config_digest(config: object) -> str:
    """Short fingerprint of a machine configuration.

    Nested frozen dataclasses have deterministic ``repr``s, so hashing
    the repr catches restoring a checkpoint onto a differently
    configured machine without serializing the config itself.
    """
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# Generic dataclass-stats helpers
# ----------------------------------------------------------------------
def _stats_state(obj: object) -> Dict[str, object]:
    """Copy a stats dataclass's fields (dict fields copied shallowly)."""
    out: Dict[str, object] = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        out[f.name] = dict(value) if isinstance(value, dict) else value
    return out


def _load_stats_state(obj: object, state: Dict[str, object]) -> None:
    """Restore dataclass fields; dict-valued fields are updated in place.

    In-place dict updates keep any reference held to a stats dict (such
    as ``NetworkStats.messages_by_type``) attached to the restored values.
    """
    for name, value in state.items():
        if isinstance(value, dict):
            current = getattr(obj, name)
            current.clear()
            current.update(value)
        else:
            setattr(obj, name, value)


# ----------------------------------------------------------------------
# Reference-engine component serializers (dict-based slow path)
# ----------------------------------------------------------------------
def _reference_cache_state(cache) -> Dict[str, object]:
    return {
        "sets": [
            (
                [
                    (way, line.line_address, line.state.value)
                    for way, line in cache_set.lines.items()
                ],
                list(cache_set.policy._stack),
            )
            for cache_set in cache._sets
        ],
        "stats": _stats_state(cache.stats),
    }


def _load_reference_cache_state(cache, state: Dict[str, object]) -> None:
    if len(state["sets"]) != len(cache._sets):
        raise SimulationError(
            f"cache {cache.name}: checkpoint does not match this geometry"
        )
    for cache_set, (lines, stack) in zip(cache._sets, state["sets"]):
        cache_set.lines.clear()
        for way, line_address, state_value in lines:
            cache_set.lines[way] = CacheLine(
                line_address=line_address,
                state=LineState(state_value),
                way=way,
            )
        cache_set.policy._stack[:] = stack
    _load_stats_state(cache.stats, state["stats"])


def _reference_hierarchy_state(hierarchy) -> Dict[str, object]:
    return {
        "l1i": _reference_cache_state(hierarchy.l1i),
        "l1d": _reference_cache_state(hierarchy.l1d),
        "l2": _reference_cache_state(hierarchy.l2),
    }


def _load_reference_hierarchy_state(hierarchy, state: Dict[str, object]) -> None:
    _load_reference_cache_state(hierarchy.l1i, state["l1i"])
    _load_reference_cache_state(hierarchy.l1d, state["l1d"])
    _load_reference_cache_state(hierarchy.l2, state["l2"])


def _reference_pf_state(pf) -> Dict[str, object]:
    return {
        "sets": [
            (
                [
                    (way, entry.line_address, entry.owner, sorted(entry.sharers))
                    for way, entry in filter_set.entries.items()
                ],
                list(filter_set.policy._stack),
            )
            for filter_set in pf._sets
        ],
        "stats": _stats_state(pf.stats),
    }


def _load_reference_pf_state(pf, state: Dict[str, object]) -> None:
    if len(state["sets"]) != len(pf._sets):
        raise SimulationError(
            "probe filter checkpoint does not match this geometry"
        )
    for filter_set, (entries, stack) in zip(pf._sets, state["sets"]):
        filter_set.entries.clear()
        for way, line_address, owner, sharers in entries:
            filter_set.entries[way] = ProbeFilterEntry(
                line_address=line_address,
                owner=owner,
                sharers=set(sharers),
                way=way,
            )
        filter_set.policy._stack[:] = stack
    _load_stats_state(pf.stats, state["stats"])


# ----------------------------------------------------------------------
# Shared component serializers
# ----------------------------------------------------------------------
def _hierarchy_state(hierarchy) -> Dict[str, object]:
    if hasattr(hierarchy, "state_dict"):
        return {"packed": True, "state": hierarchy.state_dict()}
    return {"packed": False, "state": _reference_hierarchy_state(hierarchy)}


def _load_hierarchy_state(hierarchy, state: Dict[str, object]) -> None:
    if state["packed"] != hasattr(hierarchy, "state_dict"):
        raise SimulationError(
            "checkpoint cache-hierarchy representation does not match the "
            "live engine (packed vs reference)"
        )
    if state["packed"]:
        hierarchy.load_state_dict(state["state"])
    else:
        _load_reference_hierarchy_state(hierarchy, state["state"])


def _pf_state(pf) -> Dict[str, object]:
    if hasattr(pf, "state_dict"):
        return {"packed": True, "state": pf.state_dict()}
    return {"packed": False, "state": _reference_pf_state(pf)}


def _load_pf_state(pf, state: Dict[str, object]) -> None:
    if state["packed"] != hasattr(pf, "state_dict"):
        raise SimulationError(
            "checkpoint probe-filter representation does not match the "
            "live engine (packed vs reference)"
        )
    if state["packed"]:
        pf.load_state_dict(state["state"])
    else:
        _load_reference_pf_state(pf, state["state"])


def _allocator_state(allocator) -> Dict[str, object]:
    return {
        "allocated": {
            node: pool.allocated for node, pool in allocator.frames.pools.items()
        },
        "memo": dict(allocator._translation_cache),
    }


def _load_allocator_state(allocator, state: Dict[str, object]) -> None:
    for node, allocated in state["allocated"].items():
        allocator.frames.pools[node].restore(allocated)
    # The translation map is refilled *in place*: PackedMachine's
    # ``_translation_memo`` is the same dict object.
    memo = allocator._translation_cache
    memo.clear()
    memo.update(state["memo"])


# ----------------------------------------------------------------------
# Machine walker
# ----------------------------------------------------------------------
def machine_state(machine) -> Dict[str, object]:
    """Collect the full mutable state of *machine* as a plain dict.

    Stats kept aside by a fast path (the packed message tally) are
    folded into their components first, so the state holds none.
    """
    machine.settle_stats()
    nodes: List[Dict[str, object]] = []
    for node in machine.nodes:
        clock = node.clock
        nodes.append(
            {
                "clock": (clock.now_ns, clock.memory_accesses),
                "caches": _hierarchy_state(node.caches),
                "probe_filter": _pf_state(node.probe_filter),
                "directory_stats": _stats_state(node.directory.stats),
                "dram": {
                    "open_row": node.dram._open_row,
                    "stats": _stats_state(node.dram.stats),
                },
            }
        )
    state: Dict[str, object] = {
        "machine_class": type(machine).__name__,
        "config_digest": config_digest(machine.config),
        "transactions_serviced": machine.transactions_serviced,
        "nodes": nodes,
        "network": _stats_state(machine.network.stats),
        "allocator": _allocator_state(machine.allocator),
    }
    if hasattr(machine, "translation_fills"):
        state["packed"] = {
            "translation_fills": machine.translation_fills,
            "chunk_counters": machine.chunk_counters(),
        }
    return state


def load_machine_state(machine, state: Dict[str, object]) -> None:
    """Restore a :func:`machine_state` dict onto *machine*, in place."""
    if state["machine_class"] != type(machine).__name__:
        raise SimulationError(
            f"checkpoint was written by a {state['machine_class']} but is "
            f"being restored onto a {type(machine).__name__}; build the "
            f"same engine before restoring"
        )
    if state["config_digest"] != config_digest(machine.config):
        raise SimulationError(
            "checkpoint configuration digest does not match this machine; "
            "restore requires an identically configured machine"
        )
    if len(state["nodes"]) != len(machine.nodes):
        raise SimulationError(
            f"checkpoint has {len(state['nodes'])} nodes but the machine "
            f"has {len(machine.nodes)}"
        )
    machine.transactions_serviced = state["transactions_serviced"]
    for node, node_state in zip(machine.nodes, state["nodes"]):
        clock = node.clock
        clock.now_ns, clock.memory_accesses = node_state["clock"]
        _load_hierarchy_state(node.caches, node_state["caches"])
        _load_pf_state(node.probe_filter, node_state["probe_filter"])
        _load_stats_state(node.directory.stats, node_state["directory_stats"])
        node.dram._open_row = node_state["dram"]["open_row"]
        _load_stats_state(node.dram.stats, node_state["dram"]["stats"])
    # Fold any tally the live machine still holds into the stats the
    # checkpoint then overwrites, so it cannot leak into the restored run.
    machine.settle_stats()
    _load_stats_state(machine.network.stats, state["network"])
    _load_allocator_state(machine.allocator, state["allocator"])
    if "packed" in state:
        packed = state["packed"]
        machine.translation_fills = packed["translation_fills"]
        machine.restore_chunk_counters(packed["chunk_counters"])


def checkpoint_machine(machine) -> bytes:
    """Serialize *machine*'s full mutable state into a checkpoint blob."""
    return encode_checkpoint(machine_state(machine))


def restore_machine(machine, blob: bytes) -> None:
    """Restore a :func:`checkpoint_machine` blob onto *machine*."""
    load_machine_state(machine, decode_checkpoint(blob))
