"""Declarative run plans: picklable specs for every simulation the paper needs.

Every figure in the paper is a sweep over (benchmark x policy x probe-filter
size x thread/process layout).  This module makes those sweeps first-class:

* :class:`ExperimentSettings` — the harness-wide knobs (down-scaling factor,
  access counts, seeds), overridable from ``REPRO_BENCH_*`` environment
  variables.
* :class:`RunSpec` — one fully-determined simulation run.  A spec is frozen,
  hashable and picklable, so it can key caches, cross process boundaries,
  and rebuild its workload stream *deterministically* anywhere: the same
  spec always produces the bit-identical access trace and therefore the
  bit-identical :class:`~repro.stats.snapshot.MachineSnapshot`.
* :class:`SweepPlan` — an ordered, de-duplicated collection of specs, with
  builders enumerating the grids behind Figures 3a-3h and Figure 4.

The executor layer (:mod:`repro.analysis.executor`) consumes plans; the
figures and the ``python -m repro sweep`` command line produce them.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.system.config import DEFAULT_EXPERIMENT_SCALE, SystemConfig, experiment_config
from repro.system.fastcore import DEFAULT_ENGINE, ENGINES
from repro.trace.record import AccessRecord
from repro.workloads.base import SyntheticWorkload
from repro.workloads.multiprocess import build_multiprocess_spec, generate_multiprocess
from repro.workloads.registry import (
    MICROBENCH_FAMILIES,
    MULTIPROCESS_BENCHMARKS,
    PAPER_BENCHMARKS,
    build_spec,
    is_registered,
)

#: Nominal probe-filter sizes swept by Figure 3h (bytes, paper units).
FIG3H_PF_SIZES: Tuple[int, ...] = (512 * 1024, 256 * 1024, 128 * 1024)

#: Nominal probe-filter sizes swept by Figure 4 (bytes, paper units).
FIG4_PF_SIZES: Tuple[int, ...] = (
    512 * 1024,
    256 * 1024,
    128 * 1024,
    64 * 1024,
    32 * 1024,
)

#: Thread/process layouts a spec may request: the paper's 16-thread runs
#: and the Section III-B two-process runs.
LAYOUTS: Tuple[str, ...] = ("16t", "2p")


def env_int(name: str, default: int) -> int:
    """Read an integer environment override; *default* when it is unset.

    A value that is not an integer raises :class:`ConfigurationError`
    naming the variable, instead of silently running another experiment.
    """
    value = os.environ.get(name)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(f"{name}={value!r} is not an integer") from None


def seed_for(benchmark: str, base_seed: int = 0) -> int:
    """Stable per-benchmark seed, perturbed by the harness base seed.

    Uses a CRC-32 digest of the benchmark name so that distinct names get
    distinct seeds (a plain character sum would give anagram benchmarks —
    and any same-multiset renames — identical access streams).  The value
    is a pure function of its inputs, so worker processes derive the same
    seed as the parent without any shared state.
    """
    return base_seed * 1_000_003 + zlib.crc32(benchmark.encode("utf-8"))


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared settings for the experiment harness.

    Attributes
    ----------
    scale:
        Common down-scaling factor applied to caches, probe filters and
        workload footprints (see ``docs/model.md``).
    accesses:
        Compute-phase accesses per 16-thread run.
    multiprocess_accesses:
        Compute-phase accesses per copy in the two-process runs.
    seed:
        Base seed offset applied to every workload.
    """

    scale: int = DEFAULT_EXPERIMENT_SCALE
    accesses: int = 20_000
    multiprocess_accesses: int = 8_000
    seed: int = 0

    def __post_init__(self) -> None:
        # A bad setting fails every run of a sweep; reject it before any
        # run starts.  ``type() is int`` also rejects ``bool``.
        for name in ("scale", "accesses", "multiprocess_accesses"):
            value = getattr(self, name)
            if type(value) is not int or value <= 0:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        if type(self.seed) is not int:
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")

    @classmethod
    def from_environment(cls) -> "ExperimentSettings":
        """Build settings honouring ``REPRO_BENCH_*`` environment overrides."""
        return cls(
            scale=env_int("REPRO_BENCH_SCALE", DEFAULT_EXPERIMENT_SCALE),
            accesses=env_int("REPRO_BENCH_ACCESSES", 20_000),
            multiprocess_accesses=env_int("REPRO_BENCH_MP_ACCESSES", 8_000),
            seed=env_int("REPRO_BENCH_SEED", 0),
        )

    def quick(self, accesses: int = 12_000) -> "ExperimentSettings":
        """A reduced copy for unit tests and smoke runs."""
        return replace(
            self, accesses=accesses, multiprocess_accesses=max(4_000, accesses // 3)
        )


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run.

    A spec carries everything needed to reproduce a run from scratch —
    benchmark, directory policy, nominal probe-filter size, thread/process
    layout, memory pressure and the harness settings — and nothing else.
    Two equal specs always produce bit-identical snapshots, which is what
    lets the executor fan runs out across processes and cache their
    results on disk.

    ``engine`` selects the simulation core (``"packed"``, the default,
    or ``"reference"``).  The engines are verified bit-identical, but the
    field still participates in the cache identity (via
    :meth:`cache_token`'s ``asdict``) so snapshots produced by the two
    implementations can never alias each other in the on-disk cache —
    an engine-difference bug must surface as a test failure, not be
    masked by a stale cache hit.
    """

    benchmark: str
    policy: str
    pf_size: int = 512 * 1024
    layout: str = "16t"
    frames_per_node: Optional[int] = None
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        # Fail at spec construction (plan-build time), not minutes into a
        # sweep when the bad run finally executes.
        if not is_registered(self.benchmark):
            raise ConfigurationError(f"unknown benchmark {self.benchmark!r}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown simulation engine {self.engine!r}; "
                f"expected one of {ENGINES}"
            )
        if self.layout not in LAYOUTS:
            raise ConfigurationError(
                f"unknown layout {self.layout!r}; expected one of {LAYOUTS}"
            )
        if self.layout == "2p" and self.benchmark not in MULTIPROCESS_BENCHMARKS:
            raise ConfigurationError(
                f"benchmark {self.benchmark!r} is not part of the multi-process "
                f"study; expected one of {MULTIPROCESS_BENCHMARKS}"
            )
        if self.policy not in ("baseline", "allarm"):
            raise ConfigurationError(f"unknown directory policy {self.policy!r}")
        if type(self.pf_size) is not int or self.pf_size <= 0:
            raise ConfigurationError(
                f"pf_size must be a positive integer, got {self.pf_size!r}"
            )
        if self.frames_per_node is not None and (
            type(self.frames_per_node) is not int or self.frames_per_node <= 0
        ):
            raise ConfigurationError(
                "frames_per_node must be None or a positive integer, "
                f"got {self.frames_per_node!r}"
            )

    # ------------------------------------------------------------------
    # Derived identity
    # ------------------------------------------------------------------
    @property
    def workload_name(self) -> str:
        """Label recorded in results ("barnes", "barnes-2p", ...)."""
        return self.benchmark if self.layout == "16t" else f"{self.benchmark}-2p"

    @property
    def workload_seed(self) -> int:
        """Deterministic seed of this spec's workload stream."""
        base = seed_for(self.benchmark, self.settings.seed)
        return base if self.layout == "16t" else base + 1

    def with_engine(self, engine: str) -> "RunSpec":
        """Return a copy that runs on a different simulation engine."""
        return replace(self, engine=engine)

    def stream_token(self) -> str:
        """Canonical identity of this spec's *workload stream*.

        Unlike :meth:`cache_token`, this covers only the fields the
        access stream depends on — benchmark, layout, access counts,
        footprint scale and seed — so every policy and probe-filter
        variant of one workload shares a single recorded trace.
        """
        return json.dumps(
            {
                "benchmark": self.benchmark,
                "layout": self.layout,
                "accesses": self.settings.accesses,
                "multiprocess_accesses": self.settings.multiprocess_accesses,
                "scale": self.settings.scale,
                "seed": self.settings.seed,
            },
            sort_keys=True,
        )

    def stream_digest(self) -> str:
        """SHA-256 of :meth:`stream_token` (names recorded trace files)."""
        return hashlib.sha256(self.stream_token().encode("utf-8")).hexdigest()

    def cache_token(self) -> str:
        """Canonical string identity of the run (excludes code version).

        Derived from every field via :func:`dataclasses.asdict` so that a
        future field added to the spec (or its settings) is part of the
        identity automatically — a hand-maintained field list would let a
        forgotten field silently alias distinct runs to one cache entry.
        """
        return json.dumps(asdict(self), sort_keys=True, default=repr)

    def digest(self) -> str:
        """SHA-256 of the canonical identity (content-addressed cache key)."""
        return hashlib.sha256(self.cache_token().encode("utf-8")).hexdigest()

    def describe(self) -> Dict[str, object]:
        """Plain-dict view of the spec (stored beside cached snapshots)."""
        return {
            "benchmark": self.benchmark,
            "policy": self.policy,
            "pf_size": self.pf_size,
            "layout": self.layout,
            "frames_per_node": self.frames_per_node,
            "scale": self.settings.scale,
            "accesses": self.settings.accesses,
            "multiprocess_accesses": self.settings.multiprocess_accesses,
            "seed": self.settings.seed,
            "engine": self.engine,
        }

    # ------------------------------------------------------------------
    # Materialisation
    # ------------------------------------------------------------------
    def config(self) -> SystemConfig:
        """Build the machine configuration this spec runs on."""
        return experiment_config(
            self.policy,
            scale=self.settings.scale,
            nominal_probe_filter_coverage=self.pf_size,
            frames_per_node=self.frames_per_node,
        )

    def access_stream(self) -> Iterator[AccessRecord]:
        """Rebuild the deterministic access stream of this run.

        Workers call this instead of shipping traces across process
        boundaries: the stream is a pure function of the spec.
        """
        if self.layout == "16t":
            spec = build_spec(
                self.benchmark,
                total_accesses=self.settings.accesses,
                seed=self.workload_seed,
            ).with_footprint_scale(self.settings.scale)
            return SyntheticWorkload(spec).generate()

        mp_spec = build_multiprocess_spec(
            self.benchmark,
            total_accesses_per_copy=self.settings.multiprocess_accesses,
            seed=self.workload_seed,
        )
        scaled_copies = tuple(
            copy.with_footprint_scale(self.settings.scale) for copy in mp_spec.copies
        )
        mp_spec = replace(mp_spec, copies=scaled_copies)
        return generate_multiprocess(mp_spec)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered collection of runs behind one figure (or several)."""

    name: str
    specs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        if len(set(self.specs)) != len(self.specs):
            raise ConfigurationError(f"plan {self.name!r} contains duplicate specs")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    def merged_with(self, other: "SweepPlan", name: Optional[str] = None) -> "SweepPlan":
        """Union of two plans, preserving order and dropping duplicates."""
        seen = set()
        specs: List[RunSpec] = []
        for spec in tuple(self.specs) + tuple(other.specs):
            if spec not in seen:
                seen.add(spec)
                specs.append(spec)
        return SweepPlan(name=name or f"{self.name}+{other.name}", specs=tuple(specs))

    def with_engine(self, engine: str) -> "SweepPlan":
        """Return a copy of the plan with every spec on *engine*."""
        return SweepPlan(
            name=self.name,
            specs=tuple(spec.with_engine(engine) for spec in self.specs),
        )


# ----------------------------------------------------------------------
# Plan builders: the exact grids behind the paper's figures
# ----------------------------------------------------------------------
def figure3_plan(
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
    pf_size: int = 512 * 1024,
) -> SweepPlan:
    """The sixteen (benchmark x policy) runs shared by Figures 3a-3g."""
    names = PAPER_BENCHMARKS if benchmarks is None else list(benchmarks)
    specs = tuple(
        RunSpec(benchmark=b, policy=p, pf_size=pf_size, settings=settings)
        for b in names
        for p in ("baseline", "allarm")
    )
    return SweepPlan(name="fig3", specs=specs)


def figure3h_plan(
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
    pf_sizes: Tuple[int, ...] = FIG3H_PF_SIZES,
) -> SweepPlan:
    """Figure 3h: the largest-size baseline reference plus ALLARM at each size."""
    if not pf_sizes:
        raise ConfigurationError("figure3h_plan needs at least one pf size")
    names = PAPER_BENCHMARKS if benchmarks is None else list(benchmarks)
    reference_size = max(pf_sizes)
    specs: List[RunSpec] = []
    for b in names:
        specs.append(
            RunSpec(
                benchmark=b, policy="baseline", pf_size=reference_size, settings=settings
            )
        )
        for size in pf_sizes:
            specs.append(
                RunSpec(benchmark=b, policy="allarm", pf_size=size, settings=settings)
            )
    return SweepPlan(name="fig3h", specs=tuple(specs))


def figure4_plan(
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
    pf_sizes: Tuple[int, ...] = FIG4_PF_SIZES,
    policies: Tuple[str, ...] = ("baseline", "allarm"),
) -> SweepPlan:
    """Figure 4: two-process runs swept over probe-filter sizes."""
    names = MULTIPROCESS_BENCHMARKS if benchmarks is None else list(benchmarks)
    specs = tuple(
        RunSpec(
            benchmark=b, policy=p, pf_size=size, layout="2p", settings=settings
        )
        for b in names
        for p in policies
        for size in pf_sizes
    )
    return SweepPlan(name="fig4", specs=specs)


#: Nominal probe-filter sizes the microbenchmark plan sweeps: the paper's
#: default plus a starved filter, where the families' sharing extremes
#: separate the policies most clearly.
MICRO_PF_SIZES: Tuple[int, ...] = (512 * 1024, 128 * 1024)


def microbench_plan(
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
    pf_sizes: Tuple[int, ...] = MICRO_PF_SIZES,
) -> SweepPlan:
    """Both policies over the microbenchmark families at two filter sizes.

    Exercises probe-filter policies on the canonical sharing patterns
    (false sharing, migratory locks, streaming scans, read-mostly
    hotspots) the paper's eight benchmarks only blend together.
    """
    names = MICROBENCH_FAMILIES if benchmarks is None else list(benchmarks)
    specs = tuple(
        RunSpec(benchmark=b, policy=p, pf_size=size, settings=settings)
        for b in names
        for p in ("baseline", "allarm")
        for size in pf_sizes
    )
    return SweepPlan(name="micro", specs=specs)


#: Nominal probe-filter sizes the scenario plan sweeps: the paper's
#: default plus a starved filter (sampled working sets vary over two
#: orders of magnitude, so the starved size keeps eviction paths hot on
#: the large draws).
SCENARIO_PF_SIZES: Tuple[int, ...] = (512 * 1024, 64 * 1024)


def scenario_plan(
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
    generator_seed: Optional[int] = None,
    count: Optional[int] = None,
    pf_sizes: Tuple[int, ...] = SCENARIO_PF_SIZES,
    policies: Tuple[str, ...] = ("baseline", "allarm"),
) -> SweepPlan:
    """Both policies over a sampled scenario set at two filter sizes.

    With *benchmarks* given, those names (typically ``scenario-*`` names
    from a recorded manifest, resolved dynamically by the registry) form
    the family axis; otherwise a fresh set is sampled from
    ``generator_seed``/*count* (defaults: ``$REPRO_SCENARIO_SEED`` else
    the settings seed; ``$REPRO_SCENARIO_COUNT`` else 8).  Sampling is
    deterministic, so every worker process rebuilds the same streams
    from the spec names alone — no registration hand-off needed.
    """
    if benchmarks is not None:
        names = list(benchmarks)
    else:
        from repro.workloads.generator import sample_scenarios

        if generator_seed is None:
            generator_seed = env_int("REPRO_SCENARIO_SEED", settings.seed)
        if count is None:
            count = env_int("REPRO_SCENARIO_COUNT", 8)
        names = sample_scenarios(generator_seed, count).names
    specs = tuple(
        RunSpec(benchmark=b, policy=p, pf_size=size, settings=settings)
        for b in names
        for p in policies
        for size in pf_sizes
    )
    return SweepPlan(name="scenarios", specs=specs)


def full_plan(
    settings: ExperimentSettings, benchmarks: Optional[Iterable[str]] = None
) -> SweepPlan:
    """Every run the paper's evaluation needs, de-duplicated."""
    benchmarks = list(benchmarks) if benchmarks is not None else None
    mp = None
    if benchmarks is not None:
        # Only the Fig. 4 subset is valid for the two-process layout; an
        # empty subset simply contributes no 2p runs.
        mp = [b for b in benchmarks if b in MULTIPROCESS_BENCHMARKS]
    plan = figure3_plan(settings, benchmarks)
    plan = plan.merged_with(figure3h_plan(settings, benchmarks))
    plan = plan.merged_with(figure4_plan(settings, mp))
    return SweepPlan(name="all", specs=plan.specs)


#: Named plan builders addressable from the command line.
PLAN_BUILDERS = {
    "fig3": figure3_plan,
    "fig3h": figure3h_plan,
    "fig4": figure4_plan,
    "micro": microbench_plan,
    "scenarios": scenario_plan,
    "all": full_plan,
}


def build_plan(
    name: str,
    settings: ExperimentSettings,
    benchmarks: Optional[Iterable[str]] = None,
) -> SweepPlan:
    """Build a named plan (``fig3``, ``fig3h``, ``fig4``, ``micro`` or ``all``)."""
    try:
        builder = PLAN_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown plan {name!r}; expected one of {sorted(PLAN_BUILDERS)}"
        )
    return builder(settings, benchmarks)
