"""Tests for the simulated network, nodes, topology, and failures."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.runtime import (ETHERNET_1G, INTEL_XEON, RASPBERRY_PI_4B,
                           ROOT_NAME, local_name)
from repro.runtime.serialization import (WireFormat, event_payload_size,
                                         message_size)
from repro.core.runner import RunConfig
from repro.experiments.fig11 import _rpi_kwargs
from repro.runtime.driver import build_run
from repro.sim import (MessageFaultInjector, Network, SimNode, Simulator,
                       build_star, crash_node_at, peer_mesh,
                       recover_node_at)
from repro.sim.network import Link


class Recorder:
    """Minimal behaviour recording message deliveries."""

    def __init__(self, service=0.0):
        self.received = []
        self.service = service
        self.started = False

    def on_start(self, node):
        self.started = True

    def on_message(self, node, msg):
        self.received.append((node.sim.now, msg))

    def service_time(self, node, msg):
        return self.service


from dataclasses import replace

#: Xeon profile without per-message overhead, so link-timing tests can
#: assert exact arrival times.
NO_OVERHEAD = replace(INTEL_XEON, message_overhead_s=0.0)


def two_node_net(service=0.0, bandwidth=1000.0, latency=0.1,
                 size=100, profile=NO_OVERHEAD):
    sim = Simulator()
    net = Network(sim, sizer=lambda msg: size,
                  default_bandwidth=bandwidth, default_latency=latency)
    a = net.attach(SimNode(sim, "a", profile, Recorder(service)))
    b = net.attach(SimNode(sim, "b", profile, Recorder(service)))
    net.connect("a", "b")
    return sim, net, a, b


class TestLink:
    def test_transmission_plus_latency(self):
        sim, net, a, b = two_node_net(bandwidth=1000.0, latency=0.1,
                                      size=100)
        a.send("b", "hello")
        sim.run()
        # 100 B at 1000 B/s = 0.1 s tx + 0.1 s latency.
        assert b.behavior.received == [(pytest.approx(0.2), "hello")]

    def test_fifo_serialization(self):
        sim, net, a, b = two_node_net(bandwidth=1000.0, latency=0.0,
                                      size=500)
        a.send("b", 1)
        a.send("b", 2)
        sim.run()
        times = [t for t, _ in b.behavior.received]
        assert times == [pytest.approx(0.5), pytest.approx(1.0)]

    def test_byte_accounting(self):
        sim, net, a, b = two_node_net(size=123)
        a.send("b", "x")
        a.send("b", "y")
        sim.run()
        assert net.link("a", "b").stats.bytes_sent == 246
        assert net.bytes_from("a") == 246
        assert net.bytes_into("b") == 246
        assert net.total_bytes() == 246

    def test_invalid_link_params(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            Link(sim, 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            Link(sim, 100.0, -1.0)

    def test_missing_link(self):
        sim, net, a, b = two_node_net()
        with pytest.raises(ConfigurationError, match="no link"):
            net.send("b", "missing", "x")


class TestSimNode:
    def test_service_time_queues_cpu(self):
        sim, net, a, b = two_node_net(service=1.0, bandwidth=1e12,
                                      latency=0.0)
        a.send("b", 1)
        a.send("b", 2)
        sim.run()
        times = [t for t, _ in b.behavior.received]
        # Messages arrive ~instantly but the CPU serializes them (the
        # Xeon profile has 3 threads, so service is 1/3 s each).
        assert times[0] == pytest.approx(1 / 3, rel=1e-3)
        assert times[1] == pytest.approx(2 / 3, rel=1e-3)
        assert b.metrics.busy_s == pytest.approx(2 / 3, rel=1e-3)
        assert b.metrics.messages == 2

    def test_crash_drops_messages(self):
        sim, net, a, b = two_node_net()
        b.crash()
        a.send("b", 1)
        sim.run()
        assert b.behavior.received == []

    def test_recover(self):
        sim, net, a, b = two_node_net()
        b.crash()
        b.recover()
        a.send("b", 1)
        sim.run()
        assert len(b.behavior.received) == 1

    def test_crashed_node_does_not_send(self):
        sim, net, a, b = two_node_net()
        a.crash()
        a.send("b", 1)
        sim.run()
        assert b.behavior.received == []

    def test_unattached_send_rejected(self):
        sim = Simulator()
        n = SimNode(sim, "x", INTEL_XEON, Recorder())
        with pytest.raises(SimulationError):
            n.send("y", 1)

    def test_duplicate_name_rejected(self):
        sim = Simulator()
        net = Network(sim, sizer=lambda m: 1)
        net.attach(SimNode(sim, "a", INTEL_XEON))
        with pytest.raises(ConfigurationError):
            net.attach(SimNode(sim, "a", INTEL_XEON))

    def test_negative_service_rejected(self):
        sim, net, a, b = two_node_net()
        b.behavior.service = -1.0
        a.send("b", 1)
        with pytest.raises(SimulationError):
            sim.run()

    def test_account_events(self):
        sim, net, a, b = two_node_net()
        b.account_events(500)
        assert b.metrics.events_processed == 500


class TestSerializationSizes:
    def test_binary_event_payload(self):
        assert event_payload_size(10, WireFormat.BINARY) == 240

    def test_string_costs_more(self):
        binary = message_size(n_events=100, fmt=WireFormat.BINARY)
        text = message_size(n_events=100, fmt=WireFormat.STRING)
        assert text > 2.5 * binary

    def test_scalar_fields(self):
        base = message_size()
        assert message_size(n_scalars=2) == base + 16

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            event_payload_size(-1)
        with pytest.raises(ConfigurationError):
            message_size(n_scalars=-1)


class TestTopology:
    def test_star_shape(self):
        topo = build_star(4, sizer=lambda m: 10)
        assert topo.n_locals == 4
        assert topo.root.name == ROOT_NAME
        for i in range(4):
            assert topo.network.link(local_name(i), ROOT_NAME)
            assert topo.network.link(ROOT_NAME, local_name(i))

    def test_start_invokes_behaviors(self):
        rec = Recorder()
        topo = build_star(2, sizer=lambda m: 1, root_behavior=rec,
                          local_behavior_factory=lambda i: Recorder())
        topo.start()
        assert rec.started
        assert all(n.behavior.started for n in topo.locals)

    def test_rpi_star_profiles(self):
        """Fig. 11's Raspberry Pi testbed (Section 5.3) as the driver
        builds it from the figure's config: Pi locals, an Intel root
        and 1 GbE links both ways."""
        config = RunConfig(scheme="central", n_nodes=2,
                           **_rpi_kwargs(scale=0.01))
        topo, _ = build_run(config)
        assert topo.root.profile == INTEL_XEON
        for i in range(2):
            assert topo.local(i).profile == RASPBERRY_PI_4B
            for src, dst in ((local_name(i), ROOT_NAME),
                             (ROOT_NAME, local_name(i))):
                assert topo.network.link(src, dst).bandwidth == ETHERNET_1G

    def test_peer_mesh(self):
        topo = build_star(3, sizer=lambda m: 1)
        peer_mesh(topo)
        assert topo.network.link(local_name(0), local_name(2))
        assert topo.network.link(local_name(2), local_name(1))

    def test_zero_locals_rejected(self):
        with pytest.raises(ConfigurationError):
            build_star(0, sizer=lambda m: 1)


class TestFailureInjection:
    def make(self, **kwargs):
        topo = build_star(1, sizer=lambda m: 10,
                          local_behavior_factory=lambda i: Recorder(),
                          root_behavior=Recorder())
        injector = MessageFaultInjector(topo, **kwargs)
        return topo, injector

    def test_drop_all(self):
        topo, injector = self.make(drop_probability=1.0)
        topo.local(0).send(ROOT_NAME, "x")
        topo.sim.run()
        assert topo.root.behavior.received == []
        assert injector.stats.dropped == 1
        link = topo.network.link(local_name(0), ROOT_NAME)
        assert link.stats.messages_dropped == 1
        assert link.stats.bytes_sent == 0

    def test_delay_all(self):
        topo, injector = self.make(delay_probability=1.0, delay_s=5.0)
        topo.local(0).send(ROOT_NAME, "x")
        topo.sim.run()
        t, _ = topo.root.behavior.received[0]
        assert t >= 5.0
        assert injector.stats.delayed == 1

    def test_pair_scoping(self):
        topo, injector = self.make(
            drop_probability=1.0,
            pairs={(ROOT_NAME, local_name(0))})
        topo.local(0).send(ROOT_NAME, "up")  # not in scoped pair
        topo.sim.run()
        assert len(topo.root.behavior.received) == 1

    def test_invalid_probabilities(self):
        topo = build_star(1, sizer=lambda m: 1)
        with pytest.raises(ConfigurationError):
            MessageFaultInjector(topo, drop_probability=1.5)
        with pytest.raises(ConfigurationError):
            MessageFaultInjector(topo, delay_probability=-0.1)
        with pytest.raises(ConfigurationError):
            MessageFaultInjector(topo, delay_s=-1.0)

    def test_crash_and_recover_schedule(self):
        topo, _ = self.make()
        crash_node_at(topo, local_name(0), 1.0)
        recover_node_at(topo, local_name(0), 2.0)
        topo.sim.run(until=1.5)
        assert topo.local(0).crashed
        topo.sim.run()
        assert not topo.local(0).crashed
