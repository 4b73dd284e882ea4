"""Unit tests for the count window specs."""

import pytest

from repro.errors import ConfigurationError
from repro.windows import SlidingCountWindow, TumblingCountWindow


class TestSpecsValidation:
    @pytest.mark.parametrize("spec", [
        TumblingCountWindow(0),
        SlidingCountWindow(0, 1),
        SlidingCountWindow(4, 0),
        SlidingCountWindow(4, 5),
    ])
    def test_invalid(self, spec):
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_valid(self):
        TumblingCountWindow(5).validate()
        SlidingCountWindow(6, 2).validate()
