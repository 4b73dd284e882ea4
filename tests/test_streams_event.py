"""Unit tests for the event model."""

from repro.streams.event import Event, TICKS_PER_SECOND, ticks_to_seconds


class TestEvent:
    def test_fields(self):
        e = Event(3, 1.5, 42)
        assert e.id == 3
        assert e.value == 1.5
        assert e.ts == 42

    def test_is_tuple(self):
        # Events are plain tuples (the paper's t = (i, v, tau)).
        assert tuple(Event(1, 2.0, 3)) == (1, 2.0, 3)

    def test_ordering_by_position(self):
        assert Event(0, 0.0, 1) < Event(0, 0.0, 2)
        assert Event(0, 0.0, 2) < Event(1, 0.0, 0)


class TestTickConversion:
    def test_round_trip_seconds(self):
        assert ticks_to_seconds(1_500_000) == 1.5

    def test_one_second_is_ticks_per_second(self):
        assert ticks_to_seconds(TICKS_PER_SECOND) == 1.0
