"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.runtime import INTEL_XEON, Timeout
from repro.sim.kernel import Simulator
from repro.sim.node import SimNode


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_equal_times_fifo(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_cancellation(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []
        assert sim.events_executed == 0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        a = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        a.cancel()
        assert sim.pending() == 1

    def test_peek_skips_cancelled_heads(self):
        sim = Simulator()
        fired = []
        first = sim.schedule(1.0, lambda: fired.append(1))
        second = sim.schedule(2.0, lambda: fired.append(2))
        third = sim.schedule(3.0, lambda: fired.append(3))
        assert sim.peek() is first
        first.cancel()
        second.cancel()
        assert sim.pending() == 1
        # Dropping the dead heads leaves the live count alone, and
        # peeking does not consume the event.
        assert sim.peek() is third
        assert sim.peek() is third
        assert sim.pending() == 1
        assert list(sim.live_events()) == [third]
        sim.run()
        assert fired == [3]
        assert sim.peek() is None
        assert sim.pending() == 0

    def test_same_key_events_never_compare_handles(self):
        # Equal (time, phase, rank): the unique sort_seq decides, under
        # a salt too, so the heap never falls through to the event.
        for salt in (0, 5):
            sim = Simulator(tiebreak_salt=salt)
            fired = []
            for i in range(8):
                sim.schedule_at(1.0, lambda i=i: fired.append(i))
            sim.run()
            assert fired == sorted(range(8), key=lambda i: i ^ salt)

    def test_clear_drops_everything_and_disarms_handles(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.clear()
        assert sim.pending() == 0
        assert sim.peek() is None
        handle.cancel()  # already inert: no second decrement
        assert sim.pending() == 0
        sim.run()
        assert fired == []

    def test_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def chain(depth):
            times.append(sim.now)
            if depth:
                sim.schedule(1.0, lambda: chain(depth - 1))

        sim.schedule(0.0, lambda: chain(3))
        sim.run()
        assert times == [0.0, 1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_past_absolute_time_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_non_finite_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(float("inf"), lambda: None)

    def test_stop(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def reenter():
            try:
                sim.run()
            except SimulationError as e:
                errors.append(e)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(errors) == 1


class TestTimeout:
    """The Section 4.3.4 timer, on the simulator's node driver."""

    @staticmethod
    def node():
        sim = Simulator()
        return sim, SimNode(sim, "n", INTEL_XEON)

    def test_fires(self):
        sim, node = self.node()
        fired = []
        t = Timeout(node, lambda: fired.append(sim.now))
        t.arm(2.5)
        assert t.armed
        sim.run()
        assert fired == [2.5]
        assert not t.armed

    def test_rearm_resets(self):
        sim, node = self.node()
        fired = []
        t = Timeout(node, lambda: fired.append(sim.now))
        t.arm(1.0)
        t.arm(5.0)  # re-arm before firing
        sim.run()
        assert fired == [5.0]

    def test_cancel(self):
        sim, node = self.node()
        fired = []
        t = Timeout(node, lambda: fired.append(1))
        t.arm(1.0)
        t.cancel()
        assert not t.armed
        sim.run()
        assert fired == []

    def test_cancel_idempotent(self):
        _, node = self.node()
        t = Timeout(node, lambda: None)
        t.cancel()
        t.cancel()
