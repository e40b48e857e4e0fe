"""Wire protocol of the sweep service: specs, events, shard routing.

The service speaks HTTP/1.1 with JSON bodies.  A request names one or
more runs as *wire specs* — plain-dict serializations of
:class:`~repro.analysis.plan.RunSpec` — and a response is either a
single JSON document or, in streaming mode, a chunked sequence of
newline-delimited JSON *events* (one ``{"event": ...}`` object per
line), so a client watches per-run progress without polling.

Shard routing is part of the protocol: :func:`shard_of` maps a spec's
content digest onto ``shard_count`` buckets, so any client (or fronting
proxy) computes the owning server process without asking it.  The
digest covers the spec identity only — not the code fingerprint — so a
routing table survives server redeploys.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Dict, Iterable, List

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import ConfigurationError, ServeError

#: Bump when the wire shapes change incompatibly; servers reject
#: requests declaring a different version.
WIRE_SCHEMA_VERSION = 1

#: Fields a wire spec may carry (``benchmark`` and ``policy`` required).
_SPEC_FIELDS = frozenset(
    ("benchmark", "policy", "pf_size", "layout", "frames_per_node",
     "engine", "settings")
)

#: Fields of the nested ``settings`` object (all optional).
_SETTINGS_FIELDS = frozenset(
    ("scale", "accesses", "multiprocess_accesses", "seed")
)


def spec_to_wire(spec: RunSpec) -> Dict[str, object]:
    """Serialize *spec* for transport."""
    return {
        "benchmark": spec.benchmark,
        "policy": spec.policy,
        "pf_size": spec.pf_size,
        "layout": spec.layout,
        "frames_per_node": spec.frames_per_node,
        "engine": spec.engine,
        "settings": {
            "scale": spec.settings.scale,
            "accesses": spec.settings.accesses,
            "multiprocess_accesses": spec.settings.multiprocess_accesses,
            "seed": spec.settings.seed,
        },
    }


def spec_from_wire(data: object) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire form, strictly validated.

    Unknown fields are rejected rather than ignored — a client sending
    ``"pf_sise"`` must learn about its typo from a 400, not from a
    sweep of default-sized filters.  Integer fields take JSON integers
    only: a float, bool or string is rejected, not truncated or coerced.
    Spec-level validation (unknown benchmark/policy/layout, non-positive
    sizes) is delegated to ``RunSpec`` and re-raised as
    :class:`ServeError` so the server maps it to a 400.
    """
    if not isinstance(data, dict):
        raise ServeError(f"wire spec must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise ServeError(f"wire spec has unknown fields: {sorted(unknown)}")
    for field in ("benchmark", "policy"):
        if not isinstance(data.get(field), str):
            raise ServeError(f"wire spec needs a string {field!r}")
    settings_data = data.get("settings", {})
    if not isinstance(settings_data, dict):
        raise ServeError("wire spec 'settings' must be a JSON object")
    unknown = set(settings_data) - _SETTINGS_FIELDS
    if unknown:
        raise ServeError(f"wire settings has unknown fields: {sorted(unknown)}")
    numbers = {f"settings.{k}": v for k, v in settings_data.items()}
    numbers.update(
        (k, data[k]) for k in ("pf_size", "frames_per_node")
        if data.get(k) is not None
    )
    for name, value in numbers.items():
        if type(value) is not int:  # also rejects bool
            raise ServeError(f"wire spec {name!r} must be a JSON integer")
    try:
        kwargs = {
            "benchmark": data["benchmark"],
            "policy": data["policy"],
            "settings": replace(ExperimentSettings(), **settings_data),
        }
        for name in ("pf_size", "layout", "frames_per_node", "engine"):
            if data.get(name) is not None:
                kwargs[name] = data[name]
        return RunSpec(**kwargs)
    except ConfigurationError as exc:
        raise ServeError(str(exc)) from None


def specs_from_wire(items: object) -> List[RunSpec]:
    """Decode a request's ``specs`` list (non-empty, each validated)."""
    if not isinstance(items, list) or not items:
        raise ServeError("request needs a non-empty 'specs' list")
    return [spec_from_wire(item) for item in items]


# ----------------------------------------------------------------------
# Shard routing
# ----------------------------------------------------------------------
def shard_of(spec: RunSpec, shard_count: int) -> int:
    """The shard index owning *spec* among ``shard_count`` servers.

    Pure function of the spec's content digest, so every process —
    server, client, proxy — derives the same owner.  Executions are
    partitioned by it; cache *reads* are not (any shard may serve a
    warm snapshot, because cache writes are atomic and content-
    addressed, so concurrent readers never see torn entries).
    """
    if shard_count < 1:
        raise ConfigurationError("shard_count must be >= 1")
    return int(spec.digest()[:16], 16) % shard_count


# ----------------------------------------------------------------------
# Streaming events
# ----------------------------------------------------------------------
def encode_event(event: Dict[str, object]) -> bytes:
    """One NDJSON line: compact JSON + newline (the chunk payload)."""
    return (json.dumps(event, separators=(",", ":")) + "\n").encode("utf-8")


def decode_events(lines: Iterable[bytes]) -> Iterable[Dict[str, object]]:
    """Parse NDJSON lines back into event dicts, skipping blanks."""
    for line in lines:
        text = line.decode("utf-8").strip()
        if not text:
            continue
        try:
            event = json.loads(text)
        except ValueError as exc:
            raise ServeError(f"malformed event line {text!r}: {exc}") from None
        if not isinstance(event, dict) or "event" not in event:
            raise ServeError(f"event line {text!r} is not an event object")
        yield event
