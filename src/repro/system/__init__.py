"""System assembly: configuration, nodes, machine and the simulator."""

from repro.system.config import (
    CoreConfig,
    DirectoryConfig,
    NetworkConfig,
    OsConfig,
    SystemConfig,
    experiment_config,
    paper_config,
    scaled_config,
)
from repro.system.fastcore import (
    DEFAULT_ENGINE,
    ENGINES,
    PackedMachine,
    build_machine,
    resolve_engine,
)
from repro.system.machine import Machine
from repro.system.node import CoreClock, Node
from repro.system.simulator import SimulationResult, Simulator, simulate

__all__ = [
    "SystemConfig",
    "CoreConfig",
    "DirectoryConfig",
    "NetworkConfig",
    "OsConfig",
    "paper_config",
    "scaled_config",
    "experiment_config",
    "Machine",
    "PackedMachine",
    "build_machine",
    "resolve_engine",
    "ENGINES",
    "DEFAULT_ENGINE",
    "Node",
    "CoreClock",
    "Simulator",
    "SimulationResult",
    "simulate",
]
