"""Deterministic fault injection for chaos-testing the execution layer.

The sweep executor, checkpointed replay and checkpoint writers all
claim to survive worker crashes, hangs and torn writes.  This module is the
harness that proves it: production code calls :func:`fire` at named
*sites* (and routes artifact bytes through :func:`filter_bytes`), and a
test — or the ``REPRO_FAULTS`` environment variable — installs a
:class:`FaultPlan` describing exactly which site/key/attempt
combinations misbehave and how.  With no plan installed every hook is a
no-op costing one attribute load, so the production paths carry no
measurable overhead.

Everything is deterministic: rules match on site, key substring and the
ambient *attempt* number (set by the retry machinery), artifact
corruption is seeded, and per-process fire caps replace wall-clock
randomness.  The same plan against the same workload always produces
the same failure history, which is what lets the chaos suite assert
bit-identical final snapshots instead of "it probably recovered".

Fault sites wired into the library:

========== =============================================================
site        fired
========== =============================================================
sweep.run   in a pool worker, before executing one ``RunSpec``
            (key: ``#<index>:<workload>:<policy>:pf<size>``)
sim.epoch   in :meth:`Simulator.run` before writing an epoch checkpoint
            (key: ``#<epoch>``)
io.write    inside ``ioutil.atomic_write_*`` — a *filter* site: torn /
            corrupt rules damage the bytes (key: destination file name)
pool.collect in the sweep parent, after collecting each finished result
            (key: task index) — drives the KeyboardInterrupt path;
            fired on both the pooled and the inline execution path
serve.request in the sweep server, after parsing each request body
            (key: ``<method> <path>``) — drives request-level failures
            without killing the server process
========== =============================================================

``REPRO_FAULTS`` syntax — rules separated by ``;``, fields by
whitespace; the first two fields are ``<site> <kind>``, the rest are
``name=value`` options::

    REPRO_FAULTS="sweep.run crash key=#2: attempts=2; io.write torn key=.json fires=1"

Kinds: ``crash`` (raise :class:`InjectedFaultError`), ``exit``
(``os._exit(86)`` — simulates an OOM kill / segfault, breaking the
pool), ``hang`` (sleep ``delay`` seconds, default 3600 — relies on the
caller's timeout), ``slow`` (sleep ``delay`` seconds, default 0.05),
``interrupt`` (raise ``KeyboardInterrupt``), ``torn`` (truncate the
artifact to its first half), ``corrupt`` (seeded XOR over the artifact
bytes).  Options: ``key=<substr>`` (match keys containing this, default
any), ``attempts=<n>`` (fire only while the ambient attempt is <= n,
default 1 — "fail the first n tries"), ``fires=<n>`` (fire at most n
times in this process, default unlimited), ``delay=<seconds>``,
``seed=<int>`` (corruption seed, default 0).
"""

from __future__ import annotations

import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import ConfigurationError, InjectedFaultError

#: Environment variable naming the ambient fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Process exit status used by ``exit`` faults, chosen to be
#: recognisable in worker post-mortems (and unlike any signal code).
EXIT_STATUS = 86

#: Fault kinds that abort or delay execution at a :func:`fire` site.
_FIRE_KINDS = ("crash", "exit", "hang", "slow", "interrupt")

#: Fault kinds that damage artifact bytes at a :func:`filter_bytes` site.
_FILTER_KINDS = ("torn", "corrupt")

_VALID_KINDS = _FIRE_KINDS + _FILTER_KINDS

#: Default sleep lengths (seconds) for the delay kinds.
_DEFAULT_DELAYS = {"hang": 3600.0, "slow": 0.05}


@dataclass(frozen=True)
class FaultRule:
    """One deterministic failure: where, what, and for how many attempts."""

    site: str
    kind: str
    key: Optional[str] = None
    attempts: int = 1
    fires: Optional[int] = None
    delay_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(_VALID_KINDS)})"
            )
        if not self.site:
            raise ConfigurationError("fault rule needs a non-empty site")
        if self.attempts < 1:
            raise ConfigurationError("fault rule attempts must be >= 1")
        if self.fires is not None and self.fires < 1:
            raise ConfigurationError("fault rule fires must be >= 1")
        if self.delay_s is not None and self.delay_s < 0:
            raise ConfigurationError("fault rule delay must be >= 0")

    def matches(self, site: str, key: str, attempt: int) -> bool:
        """True when this rule applies to *site*/*key* on *attempt*."""
        if site != self.site:
            return False
        if self.key is not None and self.key not in key:
            return False
        return attempt <= self.attempts

    def describe(self) -> str:
        """Render the rule back into ``REPRO_FAULTS`` syntax."""
        parts = [self.site, self.kind]
        if self.key is not None:
            parts.append(f"key={self.key}")
        if self.attempts != 1:
            parts.append(f"attempts={self.attempts}")
        if self.fires is not None:
            parts.append(f"fires={self.fires}")
        if self.delay_s is not None:
            parts.append(f"delay={self.delay_s:g}")
        if self.seed:
            parts.append(f"seed={self.seed}")
        return " ".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, picklable set of fault rules.

    Plans travel to pool workers as part of the task payload (spawn-safe:
    nothing relies on fork inheriting module state), so they must pickle
    cleanly and cheaply.
    """

    rules: Tuple[FaultRule, ...] = ()

    def describe(self) -> str:
        """Render the whole plan in ``REPRO_FAULTS`` syntax."""
        return "; ".join(rule.describe() for rule in self.rules)

    def __bool__(self) -> bool:
        return bool(self.rules)


def parse_faults(text: str) -> FaultPlan:
    """Parse ``REPRO_FAULTS`` syntax into a :class:`FaultPlan`.

    Raises :class:`ConfigurationError` on malformed input — a chaos run
    with a typoed plan must fail loudly, not run fault-free and "pass".
    """
    rules: List[FaultRule] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        fields = clause.split()
        if len(fields) < 2:
            raise ConfigurationError(
                f"fault clause {clause!r} needs at least '<site> <kind>'"
            )
        site, kind = fields[0], fields[1]
        options: Dict[str, Union[str, int, float]] = {}
        for option in fields[2:]:
            name, sep, value = option.partition("=")
            if not sep or not name or not value:
                raise ConfigurationError(
                    f"fault option {option!r} is not name=value"
                )
            options[name] = value
        try:
            rule = FaultRule(
                site=site,
                kind=kind,
                key=str(options["key"]) if "key" in options else None,
                attempts=int(options.get("attempts", 1)),
                fires=int(options["fires"]) if "fires" in options else None,
                delay_s=float(options["delay"]) if "delay" in options else None,
                seed=int(options.get("seed", 0)),
            )
        except ValueError as exc:
            raise ConfigurationError(
                f"fault clause {clause!r} has a malformed option: {exc}"
            ) from None
        unknown = set(options) - {"key", "attempts", "fires", "delay", "seed"}
        if unknown:
            raise ConfigurationError(
                f"fault clause {clause!r} has unknown options: "
                f"{', '.join(sorted(unknown))}"
            )
        rules.append(rule)
    return FaultPlan(tuple(rules))


# ---------------------------------------------------------------------------
# Per-process ambient state.
#
# ``_plan`` is the installed plan (None = consult the environment once and
# memoize).  ``_attempt`` is the ambient retry attempt for rule matching,
# set by the retry machinery around each task invocation.  ``_fired``
# counts fires per rule for the ``fires=`` cap.  All of it is
# process-local by design: pool workers receive their plan explicitly via
# ``install`` and start their own counters.
# ---------------------------------------------------------------------------

_UNSET = object()

_plan: object = _UNSET
_attempt: int = 1
_fired: Dict[int, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Install *plan* for this process, resetting fire counters.

    ``install(None)`` re-arms environment lookup (the next :func:`active`
    call re-reads ``REPRO_FAULTS``).
    """
    global _plan
    _plan = _UNSET if plan is None else plan
    _fired.clear()


def clear() -> None:
    """Remove any installed plan and forget fire counters and attempt."""
    global _plan, _attempt
    _plan = _UNSET
    _attempt = 1
    _fired.clear()


def active() -> FaultPlan:
    """The plan in effect: explicitly installed, else parsed from the env."""
    global _plan
    if _plan is _UNSET:
        _plan = parse_faults(os.environ.get(FAULTS_ENV, ""))
    return _plan  # type: ignore[return-value]


def set_attempt(attempt: int) -> None:
    """Set the ambient attempt number used for rule matching."""
    global _attempt
    _attempt = max(1, int(attempt))


def current_attempt() -> int:
    """The ambient attempt number (1 outside any retry loop)."""
    return _attempt


def fire_counts() -> Dict[str, int]:
    """How many times each rule has fired in this process (for tests)."""
    plan = active()
    return {
        rule.describe(): _fired.get(index, 0)
        for index, rule in enumerate(plan.rules)
    }


@contextmanager
def injected(spec_or_plan: Union[str, FaultPlan]) -> Iterator[FaultPlan]:
    """Context manager installing a plan (or syntax string) temporarily."""
    global _plan
    plan = (
        parse_faults(spec_or_plan)
        if isinstance(spec_or_plan, str)
        else spec_or_plan
    )
    previous = _plan
    install(plan)
    try:
        yield plan
    finally:
        _plan = previous
        _fired.clear()


def _consume(site: str, key: str, kinds: Tuple[str, ...]) -> List[FaultRule]:
    """Matching rules of the given kinds, with fire counters advanced."""
    plan = active()
    if not plan.rules:
        return []
    matched: List[FaultRule] = []
    for index, rule in enumerate(plan.rules):
        if rule.kind not in kinds:
            continue
        if not rule.matches(site, key, _attempt):
            continue
        if rule.fires is not None and _fired.get(index, 0) >= rule.fires:
            continue
        _fired[index] = _fired.get(index, 0) + 1
        matched.append(rule)
    return matched


def fire(site: str, key: str = "") -> None:
    """Run any execution faults registered for *site*/*key*.

    Called from production code at the named sites.  With no matching
    rule this returns immediately.  ``slow`` rules sleep and fall
    through (execution continues); the aborting kinds act in rule order.
    """
    for rule in _consume(site, key, _FIRE_KINDS):
        if rule.kind == "slow":
            time.sleep(
                rule.delay_s if rule.delay_s is not None
                else _DEFAULT_DELAYS["slow"]
            )
            continue
        if rule.kind == "hang":
            time.sleep(
                rule.delay_s if rule.delay_s is not None
                else _DEFAULT_DELAYS["hang"]
            )
            continue
        if rule.kind == "exit":
            os._exit(EXIT_STATUS)
        if rule.kind == "interrupt":
            raise KeyboardInterrupt(
                f"injected interrupt at {site} key={key!r}"
            )
        raise InjectedFaultError(
            f"injected {rule.kind} at {site} key={key!r} "
            f"attempt={_attempt}"
        )


def filter_bytes(site: str, key: str, data: bytes) -> bytes:
    """Apply any artifact faults registered for *site*/*key* to *data*.

    ``torn`` truncates to the first half (an interrupted write that
    still got renamed into place); ``corrupt`` XORs a seeded random mask
    over up to 64 bytes (silent media damage).  Both are deterministic
    for a given rule and input.
    """
    for rule in _consume(site, key, _FILTER_KINDS):
        if rule.kind == "torn":
            data = data[: len(data) // 2]
        else:
            rng = random.Random(rule.seed)
            buffer = bytearray(data)
            for _ in range(min(64, len(buffer))):
                position = rng.randrange(len(buffer))
                buffer[position] ^= rng.randrange(1, 256)
            data = bytes(buffer)
    return data


def task_key(index: int, label: str = "") -> str:
    """Canonical fault key for pool task *index* (``#<index>:<label>``)."""
    return f"#{index}:{label}" if label else f"#{index}"
