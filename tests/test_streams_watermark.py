"""Tests for watermark tracking."""

import pytest

from repro.errors import StreamError
from repro.streams.watermark import WatermarkTracker


class TestWatermarkTracker:
    def test_initial(self):
        assert WatermarkTracker().current == -1

    def test_advance(self):
        w = WatermarkTracker()
        assert w.advance(10) == 10
        assert w.current == 10

    def test_advance_equal_ok(self):
        w = WatermarkTracker(5)
        assert w.advance(5) == 5

    def test_regression_rejected(self):
        w = WatermarkTracker(10)
        with pytest.raises(StreamError, match="regress"):
            w.advance(9)
