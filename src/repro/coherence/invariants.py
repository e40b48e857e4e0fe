"""Machine-wide coherence invariants, checkable after any access.

Litmus-style randomized validation (in the spirit of DateSAT's
constraint-driven exploration of input spaces) drives a
:class:`~repro.system.machine.Machine` with arbitrary access streams and
asserts, after every step, the safety properties the protocol must never
violate no matter what the workload does:

* **single-writer / multiple-reader** — at most one cache holds a line
  in a writable (M/E) state, and while one does, no other cache holds
  the line at all; at most one cache is the line's owner (M/O/E).
* **directory-cache agreement** — a probe-filter entry's recorded
  holders must cover every cache that actually holds the line (entries
  may *over*-approximate, because clean sharers drop lines silently
  under the default ``"dirty"`` eviction-notification mode, but an
  under-approximation would let a stale copy survive an invalidation).
* **probe-filter inclusivity** — every cached line is tracked by its
  home directory, with the single documented exception: under ALLARM,
  the home node's *own* cache may hold lines of local memory untracked
  (that is the paper's optimization).
* **structural sanity** — no duplicate probe-filter entries, entries
  sit in the set their address hashes to, holder fields name real nodes
  (a flipped sharer bit or corrupted owner id is caught), occupancy
  never exceeds capacity.  Both filter representations are understood:
  the reference per-set dicts and the packed flat arrays of
  :class:`~repro.core.packed_directory.PackedProbeFilter`.
* **packed eviction bookkeeping** — on the packed engine, a freed or
  victimised slot (cache or probe filter) keeps no residual LRU stamp
  or MOESI code, stamps never exceed the monotonic counter, no two
  slots of one store share a nonzero stamp, and every live line sits
  in the set its address hashes to — the in-place eviction
  paths must leave no recency residue that would bias a later victim
  choice, and the first-minimum victim rule needs distinct stamps.

Violations raise :class:`~repro.errors.ProtocolError` naming the line
and nodes involved.  The checks walk every cache and probe filter, so
they are meant for tests and debugging, not for the simulation hot path.
"""

from __future__ import annotations

from typing import Dict, List

from repro.coherence.states import LineState
from repro.errors import ProtocolError


def cached_line_states(machine) -> Dict[int, Dict[int, LineState]]:
    """Map each cached physical line to ``{node: coherence state}``.

    The L2 image is the coherence-visible truth of each node (the L1s
    are inclusive shadows), so only L2s are walked.
    """
    lines: Dict[int, Dict[int, LineState]] = {}
    for node in machine.nodes:
        for line in node.caches.l2.resident_lines():
            lines.setdefault(line.line_address, {})[node.node_id] = line.state
    return lines


def check_single_writer(machine) -> None:
    """Assert at most one writer and at most one owner per line."""
    for line_address, holders in cached_line_states(machine).items():
        writers = [n for n, s in holders.items() if s.can_write]
        owners = [n for n, s in holders.items() if s.is_owner]
        if len(writers) > 1:
            raise ProtocolError(
                f"line {line_address:#x}: multiple writable copies "
                f"on nodes {sorted(writers)} ({holders})"
            )
        if writers and len(holders) > 1:
            raise ProtocolError(
                f"line {line_address:#x}: node {writers[0]} holds a writable "
                f"copy while nodes {sorted(set(holders) - set(writers))} "
                f"also hold the line ({holders})"
            )
        if len(owners) > 1:
            raise ProtocolError(
                f"line {line_address:#x}: multiple owners "
                f"on nodes {sorted(owners)} ({holders})"
            )


def check_inclusion(machine) -> None:
    """Assert every L1-resident line is also L2-resident (inclusive L2s)."""
    for node in machine.nodes:
        l2 = node.caches.l2
        for l1 in (node.caches.l1i, node.caches.l1d):
            for line in l1.resident_lines():
                if not l2.contains(line.line_address):
                    raise ProtocolError(
                        f"node {node.node_id}: line {line.line_address:#x} in "
                        f"{l1.name} but not in {l2.name}"
                    )


def check_directory_tracking(machine) -> None:
    """Assert probe filters track (at least) every actual holder.

    Under the baseline policy every cached line must be tracked by its
    home directory.  Under ALLARM the home node's own cache may hold
    lines homed in its local memory untracked — but any *remote* holder
    must always be tracked, and when an entry exists its holder set must
    cover every actual holder.
    """
    allarm = machine.config.uses_allarm
    for line_address, holders in cached_line_states(machine).items():
        home_node = machine.address_map.home_node(line_address)
        entry = machine.node(home_node).probe_filter.peek(line_address)
        if entry is None:
            untrackable = {home_node} if allarm else set()
            untracked = set(holders) - untrackable
            if untracked:
                raise ProtocolError(
                    f"line {line_address:#x} (home {home_node}): cached by "
                    f"nodes {sorted(untracked)} but not tracked by the home "
                    f"probe filter"
                )
            continue
        missing = set(holders) - entry.holders
        if allarm:
            missing.discard(home_node)
        if missing:
            raise ProtocolError(
                f"line {line_address:#x} (home {home_node}): probe-filter "
                f"entry lists holders {sorted(entry.holders)} but nodes "
                f"{sorted(missing)} actually hold the line"
            )


def check_probe_filter_structure(machine) -> None:
    """Assert each probe filter's structural integrity.

    Walks the backing storage directly (rather than the flattened
    ``entries()`` view) so that an entry filed in a set its address does
    not hash to — which ``lookup``/``peek`` would silently miss — is
    caught too.  Both representations are understood: the reference
    filter's per-set entry dicts and the packed filter's flat
    tag/owner/sharer-word arrays.  Holder fields are additionally
    range-checked against the machine's node count, catching a flipped
    sharer bit or a corrupted owner id that points outside the mesh.
    """
    node_count = len(machine.nodes)
    for node in machine.nodes:
        probe_filter = node.probe_filter
        if hasattr(probe_filter, "_sets"):
            count = _walk_reference_filter_sets(node, probe_filter, node_count)
        else:
            count = _walk_packed_filter_arrays(node, probe_filter, node_count)
        if count != probe_filter.occupancy():
            raise ProtocolError(
                f"probe filter {node.node_id}: occupancy() reports "
                f"{probe_filter.occupancy()} but {count} entries exist"
            )
        if count > probe_filter.entry_count:
            raise ProtocolError(
                f"probe filter {node.node_id}: {count} entries exceed "
                f"capacity {probe_filter.entry_count}"
            )


def _check_holder_range(node, line_address: int, owner, sharers, node_count: int) -> None:
    """Owner/sharer ids must name real nodes (catches flipped mask bits)."""
    if owner is not None and not 0 <= owner < node_count:
        raise ProtocolError(
            f"probe filter {node.node_id}: entry for {line_address:#x} "
            f"records owner {owner} outside the {node_count}-node machine"
        )
    bogus = [s for s in sharers if not 0 <= s < node_count]
    if bogus:
        raise ProtocolError(
            f"probe filter {node.node_id}: entry for {line_address:#x} "
            f"records sharers {sorted(bogus)} outside the "
            f"{node_count}-node machine"
        )


def _walk_reference_filter_sets(node, probe_filter, node_count: int) -> int:
    seen: Dict[int, int] = {}
    count = 0
    for set_number, fset in enumerate(probe_filter._sets):
        for way, entry in fset.entries.items():
            count += 1
            if entry.line_address in seen:
                raise ProtocolError(
                    f"probe filter {node.node_id}: duplicate entries for "
                    f"line {entry.line_address:#x}"
                )
            seen[entry.line_address] = entry.way
            if probe_filter.set_index(entry.line_address) != set_number:
                raise ProtocolError(
                    f"probe filter {node.node_id}: entry for "
                    f"{entry.line_address:#x} filed in set {set_number} "
                    f"but hashes to set "
                    f"{probe_filter.set_index(entry.line_address)}"
                )
            if way != entry.way or not 0 <= way < probe_filter.associativity:
                raise ProtocolError(
                    f"probe filter {node.node_id}: entry for "
                    f"{entry.line_address:#x} in impossible way "
                    f"{entry.way} (stored under {way})"
                )
            _check_holder_range(
                node, entry.line_address, entry.owner, entry.sharers, node_count
            )
    return count


def _walk_packed_filter_arrays(node, probe_filter, node_count: int) -> int:
    seen: Dict[int, int] = {}
    count = 0
    associativity = probe_filter.associativity
    tags = probe_filter.tags
    owners = probe_filter.owners
    sharer_bits = probe_filter.sharer_bits
    for slot in range(probe_filter.entry_count):
        tag = tags[slot]
        if tag < 0:
            if owners[slot] >= 0 or sharer_bits[slot]:
                raise ProtocolError(
                    f"probe filter {node.node_id}: free way "
                    f"{slot % associativity} of set {slot // associativity} "
                    f"still records holders"
                )
            continue
        count += 1
        if tag in seen:
            raise ProtocolError(
                f"probe filter {node.node_id}: duplicate entries for "
                f"line {tag:#x}"
            )
        seen[tag] = slot
        mask = sharer_bits[slot]
        if mask < 0:
            raise ProtocolError(
                f"probe filter {node.node_id}: entry for {tag:#x} has a "
                f"negative sharer word"
            )
        sharers = set()
        while mask:
            low = mask & -mask
            sharers.add(low.bit_length() - 1)
            mask ^= low
        owner = owners[slot]
        _check_holder_range(
            node, tag, owner if owner >= 0 else None, sharers, node_count
        )
    return count


def _check_packed_store_bookkeeping(node, label: str, store) -> None:
    """Shared walk for one packed tag/recency store (cache or filter).

    *store* is anything with the packed layout contract: ``tags``,
    ``stamps``, ``stamp``, the residency map ``where``, the set hash
    (``line_shift``, ``set_mask``, ``associativity``) and, for caches,
    ``states``.  A fill chooses among the ways of the set a line hashes
    to, so a line filed in another set breaks that set's capacity and
    LRU order.  The in-place eviction bookkeeping must leave no
    residue: a freed or victimised slot that keeps its old LRU stamp
    (or a cache slot its old MOESI code) would bias every future
    replacement decision in that set — a divergence the snapshot differ
    cannot see until a victim choice finally differs.

    Way choice takes the *first* minimum stamp of a set.  That is the
    first free way while only free slots carry stamp 0, so an occupied
    slot with stamp 0 is corruption; and it is the LRU way only while
    every occupied slot carries a distinct stamp, so a repeated stamp
    is corruption too.  Every lookup reads ``where``, so it must map
    exactly the live tags to their slots.
    """
    tags = store.tags
    stamps = store.stamps
    states = getattr(store, "states", None)
    line_shift = store.line_shift
    set_mask = store.set_mask
    associativity = store.associativity
    stamped: Dict[int, int] = {}
    live: Dict[int, int] = {}
    for slot in range(len(tags)):
        stamp = stamps[slot]
        if tags[slot] < 0:
            if stamp != 0:
                raise ProtocolError(
                    f"node {node.node_id} {label}: free slot {slot} keeps "
                    f"residual LRU stamp {stamp}"
                )
            if states is not None and states[slot] != 0:
                raise ProtocolError(
                    f"node {node.node_id} {label}: free slot {slot} keeps "
                    f"residual state code {states[slot]}"
                )
            continue
        line = tags[slot]
        live[line] = slot
        home_set = (line >> line_shift) & set_mask
        if home_set != slot // associativity:
            raise ProtocolError(
                f"node {node.node_id} {label}: line {line:#x} filed in set "
                f"{slot // associativity} but hashes to set {home_set}"
            )
        if stamp > store.stamp:
            raise ProtocolError(
                f"node {node.node_id} {label}: slot {slot} stamp "
                f"{stamp} exceeds the monotonic counter {store.stamp}"
            )
        if stamp == 0:
            raise ProtocolError(
                f"node {node.node_id} {label}: occupied slot {slot} has "
                f"never been stamped, so a fill would take it before a "
                f"free way"
            )
        other = stamped.setdefault(stamp, slot)
        if other != slot:
            raise ProtocolError(
                f"node {node.node_id} {label}: slots {other} and {slot} "
                f"share LRU stamp {stamp}"
            )
    if store.where != live:
        stale = sorted(
            line
            for line in set(store.where) | set(live)
            if store.where.get(line) != live.get(line)
        )
        raise ProtocolError(
            f"node {node.node_id} {label}: residency map disagrees with the "
            f"tags for line(s) {', '.join(f'{line:#x}' for line in stale[:4])}"
        )


def check_packed_eviction_bookkeeping(machine) -> None:
    """Assert packed stores carry no stale recency, state or residency entry.

    Applies to the packed engine only (reference stores drop per-line
    objects wholesale, so they cannot leak this way); walks every
    packed cache and packed probe filter.  Reference machines pass
    vacuously.
    """
    for node in machine.nodes:
        caches = node.caches
        for cache in (caches.l1i, caches.l1d, caches.l2):
            if hasattr(cache, "stamps") and hasattr(cache, "tags"):
                _check_packed_store_bookkeeping(node, cache.name, cache)
        probe_filter = node.probe_filter
        if not hasattr(probe_filter, "_sets") and hasattr(probe_filter, "stamps"):
            _check_packed_store_bookkeeping(node, "probe filter", probe_filter)


#: The individual checks run by :func:`check_machine_invariants`.
ALL_CHECKS = (
    check_single_writer,
    check_inclusion,
    check_directory_tracking,
    check_probe_filter_structure,
    check_packed_eviction_bookkeeping,
)


def check_machine_invariants(machine) -> None:
    """Run every coherence invariant check against *machine*.

    Raises :class:`~repro.errors.ProtocolError` on the first violation;
    returns ``None`` when the machine state is coherent.
    """
    for check in ALL_CHECKS:
        check(machine)


def holder_summary(machine) -> List[str]:
    """Human-readable dump of every cached line's holders (debug aid)."""
    rows = []
    for line_address, holders in sorted(cached_line_states(machine).items()):
        states = ", ".join(
            f"{node}:{state.value}" for node, state in sorted(holders.items())
        )
        rows.append(f"{line_address:#x}: {states}")
    return rows
