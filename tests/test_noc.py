"""Tests for the mesh topology and the network's delivery model."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.coherence.messages import MessageFactory, MessageType
from repro.errors import ConfigurationError, NetworkError
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.system.config import DirectoryConfig, NetworkConfig, SystemConfig
from repro.system.fastcore import PackedMachine
from repro.system.machine import Machine


class TestMeshTopology:
    def test_paper_mesh(self):
        mesh = MeshTopology(4, 4)
        assert mesh.node_count == 16
        assert mesh.coordinate(0).x == 0 and mesh.coordinate(0).y == 0
        assert mesh.coordinate(15).x == 3 and mesh.coordinate(15).y == 3

    def test_hop_distance(self):
        mesh = MeshTopology(4, 4)
        assert mesh.hop_distance(0, 0) == 0
        assert mesh.hop_distance(0, 3) == 3
        assert mesh.hop_distance(0, 15) == 6
        assert mesh.are_adjacent(0, 1)
        assert not mesh.are_adjacent(0, 5)

    def test_average_distance_positive(self):
        mesh = MeshTopology(4, 4)
        assert 2.0 < mesh.average_distance() < 3.0

    def test_invalid_nodes_rejected(self):
        mesh = MeshTopology(4, 4)
        with pytest.raises(NetworkError):
            mesh.coordinate(16)

    def test_invalid_dimensions(self):
        with pytest.raises(ConfigurationError):
            MeshTopology(0, 4)


class TestRouting:
    def test_routes_are_minimal(self):
        """Every pair is charged the Manhattan distance, the minimal route."""
        network = Network()
        mesh = network.topology
        factory = MessageFactory()
        for src in mesh.nodes():
            for dst in mesh.nodes():
                a, b = mesh.coordinate(src), mesh.coordinate(dst)
                minimal = abs(a.x - b.x) + abs(a.y - b.y)
                assert network.hop_distance(src, dst) == minimal
                message = factory.make(MessageType.GET_SHARED, src, dst, 0)
                before = network.stats.flit_hops
                network.deliver(message)
                assert network.stats.flit_hops - before == message.flits * minimal


class TestLinkAndRouter:
    def test_link_latency_includes_serialization(self):
        network = Network(
            link_bandwidth_bytes_per_ns=8.0, link_latency_ns=10.0, router_latency_ns=0.0
        )
        assert network.transit_ns(1, 8) == pytest.approx(11.0)
        assert network.transit_ns(1, 72) == pytest.approx(19.0)


class TestNetwork:
    def make(self) -> Network:
        return Network()

    def test_local_delivery_is_free_and_untracked(self):
        network = self.make()
        message = MessageFactory().make(MessageType.LOCAL_STATE_PROBE, 5, 5, 0x40)
        assert network.deliver(message) == 0.0
        assert network.stats.bytes_injected == 0
        assert network.stats.messages_sent == 0
        assert network.stats.flit_hops == 0
        assert network.stats.messages_by_type == {"LocalProbe": 1}

    def test_remote_delivery_charges_per_hop(self):
        network = self.make()
        message = MessageFactory().make(MessageType.GET_SHARED, 0, 3, 0x40)
        latency = network.deliver(message)
        # Three hops of router (1.5) + link latency (10) + serialization (1).
        assert latency == pytest.approx(3 * (1.5 + 10.0 + 1.0))
        assert network.stats.bytes_injected == 8
        assert network.stats.flit_hops == 2 * 3

    def test_data_message_serialization(self):
        network = self.make()
        message = MessageFactory().make(MessageType.DATA_FROM_MEMORY, 0, 1, 0x40)
        assert network.deliver(message) == pytest.approx(1.5 + 10.0 + 9.0)
        assert network.stats.bytes_injected == 72
        assert network.stats.flit_hops == 18

    def test_traffic_accumulates_by_type(self):
        network = self.make()
        factory = MessageFactory()
        network.deliver(factory.make(MessageType.INVALIDATE, 0, 1, 0))
        network.deliver(factory.make(MessageType.INVALIDATE, 0, 2, 0))
        assert network.stats.messages_by_type["Inv"] == 2
        assert network.stats.bytes_injected == 16

    def test_latency_estimate_matches_delivery(self):
        network = self.make()
        estimate = network.transit_ns(network.hop_distance(0, 3), 8)
        message = MessageFactory().make(MessageType.GET_SHARED, 0, 3, 0)
        assert network.deliver(message) == pytest.approx(estimate)

    def test_invalid_endpoint_rejected(self):
        network = self.make()
        message = MessageFactory().make(MessageType.ACK, 0, 99, 0)
        with pytest.raises(NetworkError):
            network.deliver(message)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="router latency"):
            Network(router_latency_ns=-1)
        with pytest.raises(ConfigurationError, match="link bandwidth"):
            Network(link_bandwidth_bytes_per_ns=0)
        with pytest.raises(ConfigurationError, match="link latency"):
            Network(link_latency_ns=-1)
        with pytest.raises(ConfigurationError, match="flit size"):
            Network(flit_bytes=0)

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    def test_latency_monotonic_in_distance(self, src, dst):
        network = Network()
        message = MessageFactory().make(MessageType.GET_SHARED, src, dst, 0)
        direct = network.deliver(message)
        assert direct >= 0
        if src != dst:
            assert direct > 0


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("router_latency_ns", -1.0, "router latency"),
        ("link_bandwidth_gbps", 0.0, "link bandwidth"),
        ("link_latency_ns", -1.0, "link latency"),
        ("flit_bytes", 0, "flit size"),
    ],
    ids=["router_latency", "link_bandwidth", "link_latency", "flit_bytes"],
)
def test_machine_rejects_bad_network_config(field, value, match):
    config = SystemConfig(network=replace(NetworkConfig(), **{field: value}))
    with pytest.raises(ConfigurationError, match=match):
        Machine(config)


def _per_hop_sum(hops: int, size_bytes: int, net: NetworkConfig) -> float:
    """The per-hop latency sum, in the order the router/link model added it."""
    latency = 0.0
    for _ in range(hops):
        latency += net.router_latency_ns
        latency += net.link_latency_ns + size_bytes / net.link_bandwidth_bytes_per_ns
    return latency


@pytest.mark.parametrize("width, height", [(4, 4), (2, 1), (3, 5)])
def test_delivery_is_a_function_of_hop_distance(width, height):
    """Every (src, dst) pair: latency and flit-hops follow the hop count.

    All links and routers share one set of parameters and every route is
    minimal, so XY and YX routing cannot differ; the packed engine's
    cached route constants must equal ``Network.deliver`` under ``==``.
    """
    nodes = width * height
    net = NetworkConfig(mesh_width=width, mesh_height=height)
    machine = PackedMachine(
        SystemConfig(
            core_count=nodes,
            network=net,
            directory=DirectoryConfig(memory_bytes=nodes * (1 << 26)),
        )
    )
    network = machine.network
    directory = machine._directories[0]
    factory = MessageFactory(machine.sizing)
    for src in range(nodes):
        for dst in range(nodes):
            hops = network.topology.hop_distance(src, dst)
            route = src * nodes + dst
            for msg_type, route_latency in (
                (MessageType.GET_SHARED, directory.ctl_lat[route]),
                (MessageType.DATA_FROM_MEMORY, directory.data_lat[route]),
            ):
                message = factory.make(msg_type, src, dst, 0)
                before = network.stats.flit_hops
                latency = network.deliver(message)
                assert latency == _per_hop_sum(hops, message.size_bytes, net)
                assert network.stats.flit_hops - before == message.flits * hops
                assert latency == route_latency
