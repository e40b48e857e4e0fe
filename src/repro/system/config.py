"""System configuration (Table I of the paper) and validation.

:class:`SystemConfig` gathers every parameter of the simulated machine.
The default values reproduce Table I exactly: 16 cores at 2 GHz in a 4x4
mesh, 64-byte lines, 32 kB 4-way L1 caches, a 256 kB 4-way private L2, a
probe filter covering 512 kB of cached data (2x L2 coverage), 2 GB of DRAM
at 60 ns, 4-byte flits, 8/72-byte control/data messages, 8 GB/s links with
10 ns latency, and a NUMA-enabled OS using first-touch allocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.core.policy import PhysicalRange
from repro.errors import ConfigurationError
from repro.memory.address import AddressMap


@dataclass(frozen=True)
class CoreConfig:
    """Core and per-core cache parameters."""

    frequency_ghz: float = 2.0
    cache_access_latency_ns: float = 1.0
    l1i_size: int = 32 * 1024
    l1d_size: int = 32 * 1024
    l1_associativity: int = 4
    l2_size: int = 256 * 1024
    l2_associativity: int = 4
    #: Nanoseconds of non-memory work charged per instruction between
    #: memory references (models a CPI-1 pipeline at 2 GHz).
    cpu_work_per_access_ns: float = 0.5


@dataclass(frozen=True)
class DirectoryConfig:
    """Sparse directory (probe filter) and DRAM parameters.

    ``eviction_notification`` controls which cache evictions inform the
    home directory so its entry can be reclaimed:

    * ``"dirty"`` (default) — only writebacks (M/O lines) reach the
      directory; clean lines are dropped silently, leaving their entries
      behind until the probe filter itself evicts them.  This is how
      deployed Hammer probe filters behave and is the regime in which the
      paper's eviction pressure arises.
    * ``"owned"`` — additionally notify on clean-exclusive (E) evictions,
      the stronger reading of the paper's "already optimized baseline";
      available as an ablation (see ``docs/model.md``).
    * ``"none"`` — never notify; dirty data is still written back.
    """

    probe_filter_coverage: int = 512 * 1024
    probe_filter_associativity: int = 4
    directory_access_latency_ns: float = 1.0
    dram_latency_ns: float = 60.0
    dram_row_hit_latency_ns: float = 40.0
    memory_bytes: int = 2 * 1024 * 1024 * 1024
    on_die_link_ns: float = 2.0
    eviction_notification: str = "dirty"

    def __post_init__(self) -> None:
        if self.eviction_notification not in ("none", "dirty", "owned"):
            raise ConfigurationError(
                f"unknown eviction_notification {self.eviction_notification!r}"
            )


@dataclass(frozen=True)
class NetworkConfig:
    """Mesh interconnect parameters."""

    mesh_width: int = 4
    mesh_height: int = 4
    flit_bytes: int = 4
    control_message_bytes: int = 8
    data_message_bytes: int = 72
    link_bandwidth_gbps: float = 8.0
    link_latency_ns: float = 10.0
    router_latency_ns: float = 1.5

    @property
    def link_bandwidth_bytes_per_ns(self) -> float:
        """Link bandwidth converted to bytes per nanosecond."""
        return self.link_bandwidth_gbps


@dataclass(frozen=True)
class OsConfig:
    """Operating-system model parameters (NUMA allocation)."""

    placement_policy: str = "first-touch"
    page_size: int = 4096
    frames_per_node: Optional[int] = None


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of the simulated machine.

    ``directory_policy`` selects the paper's contribution: ``"baseline"``
    allocates a probe-filter entry on every miss, ``"allarm"`` only on a
    remote miss.  ``allarm_ranges`` optionally restricts ALLARM to
    physical ranges (Section II-C), and ``allarm_disabled_nodes`` turns
    ALLARM off for individual directories (Section III-A.1).
    """

    core_count: int = 16
    line_size: int = 64
    core: CoreConfig = field(default_factory=CoreConfig)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    os: OsConfig = field(default_factory=OsConfig)
    directory_policy: str = "baseline"
    allarm_ranges: Optional[Tuple[PhysicalRange, ...]] = None
    allarm_disabled_nodes: Tuple[int, ...] = ()

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        mesh_nodes = self.network.mesh_width * self.network.mesh_height
        if self.core_count != mesh_nodes:
            raise ConfigurationError(
                f"core_count ({self.core_count}) must equal the number of "
                f"mesh nodes ({mesh_nodes}); the paper uses one core per node"
            )
        if self.directory_policy not in ("baseline", "allarm"):
            raise ConfigurationError(
                f"unknown directory policy {self.directory_policy!r}"
            )
        if self.directory.memory_bytes % self.core_count != 0:
            raise ConfigurationError("memory must divide evenly across nodes")
        for node in self.allarm_disabled_nodes:
            if node < 0 or node >= self.core_count:
                raise ConfigurationError(f"disabled node {node} out of range")

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes (one directory / memory controller per core)."""
        return self.core_count

    @property
    def uses_allarm(self) -> bool:
        """True when the machine runs the ALLARM allocation policy."""
        return self.directory_policy == "allarm"

    def address_map(self) -> AddressMap:
        """Build the physical address map implied by this configuration."""
        return AddressMap(
            line_size=self.line_size,
            page_size=self.os.page_size,
            node_count=self.node_count,
            memory_bytes=self.directory.memory_bytes,
        )

    # ------------------------------------------------------------------
    def with_policy(self, policy: str) -> "SystemConfig":
        """Return a copy of this configuration with a different policy."""
        return replace(self, directory_policy=policy)

    def with_probe_filter_coverage(self, coverage_bytes: int) -> "SystemConfig":
        """Return a copy with a different probe-filter size (Fig. 3h / 4)."""
        return replace(
            self, directory=replace(self.directory, probe_filter_coverage=coverage_bytes)
        )

    def with_frames_per_node(self, frames: Optional[int]) -> "SystemConfig":
        """Return a copy with a cap on usable page frames per node."""
        return replace(self, os=replace(self.os, frames_per_node=frames))

    def with_placement_policy(self, policy: str) -> "SystemConfig":
        """Return a copy with a different NUMA placement policy."""
        return replace(self, os=replace(self.os, placement_policy=policy))

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, str]:
        """Return Table I as a dictionary of human-readable rows."""
        return {
            "Cores": f"{self.core_count}",
            "Frequency": f"{self.core.frequency_ghz} GHz",
            "Block size": f"{self.line_size} bytes",
            "Cache access latency": f"{self.core.cache_access_latency_ns} ns",
            "ICache": f"{self.core.l1i_size // 1024} kB, {self.core.l1_associativity}-way",
            "DCache": f"{self.core.l1d_size // 1024} kB, {self.core.l1_associativity}-way",
            "L2 Cache": f"{self.core.l2_size // 1024} kB, {self.core.l2_associativity}-way",
            "Directory": (
                f"tracks {self.directory.probe_filter_coverage // 1024} kB of cached data, "
                f"{self.directory.directory_access_latency_ns} ns access latency"
            ),
            "Memory": (
                f"{self.directory.memory_bytes // (1024 ** 3)} GB, "
                f"{self.directory.dram_latency_ns} ns access latency"
            ),
            "OS": f"NUMA enabled, {self.os.placement_policy} allocation",
            "Topology": f"{self.network.mesh_width}x{self.network.mesh_height} mesh",
            "Flit size": f"{self.network.flit_bytes} bytes",
            "Control message": f"{self.network.control_message_bytes} bytes",
            "Data message": f"{self.network.data_message_bytes} bytes",
            "Link bandwidth": f"{self.network.link_bandwidth_gbps} GB/s",
            "Link latency": f"{self.network.link_latency_ns} ns",
            "Directory policy": self.directory_policy,
        }


def paper_config(policy: str = "baseline", **overrides) -> SystemConfig:
    """Return the paper's Table I configuration with the given policy.

    Keyword overrides are applied with :func:`dataclasses.replace`, e.g.
    ``paper_config("allarm", core_count=16)``.
    """
    config = SystemConfig(directory_policy=policy)
    if overrides:
        config = replace(config, **overrides)
    return config


def scaled_config(
    policy: str = "baseline",
    probe_filter_coverage: int = 512 * 1024,
    frames_per_node: Optional[int] = None,
    placement_policy: str = "first-touch",
) -> SystemConfig:
    """Convenience builder used by the experiment harness.

    Produces the paper configuration with the probe-filter coverage,
    memory pressure and NUMA placement settings the individual figures
    sweep over.
    """
    config = paper_config(policy)
    config = config.with_probe_filter_coverage(probe_filter_coverage)
    config = config.with_frames_per_node(frames_per_node)
    config = config.with_placement_policy(placement_policy)
    return config


#: Default down-scaling factor used by the experiment harness.  Simulation
#: time forces the paper to use reduced input sets with proportionally
#: scaled caches (Section III, citing Kim et al. and Cuesta et al.); we do
#: the same, shrinking caches, probe filters and workload footprints by a
#: common factor so that every capacity ratio of Table I is preserved.
DEFAULT_EXPERIMENT_SCALE = 8


def experiment_config(
    policy: str = "baseline",
    scale: int = DEFAULT_EXPERIMENT_SCALE,
    nominal_probe_filter_coverage: int = 512 * 1024,
    frames_per_node: Optional[int] = None,
    placement_policy: str = "first-touch",
    allarm_disabled_nodes: Tuple[int, ...] = (),
) -> SystemConfig:
    """Paper configuration with caches and probe filter scaled down by *scale*.

    ``nominal_probe_filter_coverage`` is expressed in the paper's units
    (512 kB, 256 kB, ... as in Figures 3h and 4); the actual simulated
    coverage is the nominal value divided by *scale*.  Cache capacities
    scale identically, so the probe filter keeps its 2x L2 coverage and
    every experiment sweeps the same *relative* sizes the paper does.
    """
    if scale <= 0:
        raise ConfigurationError("scale must be positive")
    base = SystemConfig()
    core = replace(
        base.core,
        l1i_size=max(4 * 1024, base.core.l1i_size // scale),
        l1d_size=max(4 * 1024, base.core.l1d_size // scale),
        l2_size=max(8 * 1024, base.core.l2_size // scale),
    )
    directory = replace(
        base.directory,
        probe_filter_coverage=max(4 * 1024, nominal_probe_filter_coverage // scale),
    )
    os_config = replace(
        base.os,
        frames_per_node=frames_per_node,
        placement_policy=placement_policy,
    )
    return SystemConfig(
        core=core,
        directory=directory,
        os=os_config,
        directory_policy=policy,
        allarm_disabled_nodes=allarm_disabled_nodes,
    )
