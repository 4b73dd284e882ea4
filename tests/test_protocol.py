"""Tests for protocol messages and their wire-size model."""

import numpy as np
import pytest

from repro.core.protocol import (CorrectionReport, CorrectionRequest,
                                 FrontBuffer, LocalWindowReport, Message,
                                 RateReport, RawEvents, SourceBatch,
                                 StartWindow, WindowAssignment,
                                 make_sizer, sizeof_message)
from repro.runtime.serialization import WireFormat
from repro.streams.batch import EventBatch


def batch(n):
    return EventBatch(np.arange(n), np.ones(n), np.arange(n))


def sample_messages():
    return [
        SourceBatch(sender="source-0", events=batch(10)),
        RawEvents(sender="local-0", window_index=1, events=batch(10)),
        RateReport(sender="local-0", window_index=1, event_rate=100.0,
                   events_seen=10),
        LocalWindowReport(sender="local-0", window_index=1, epoch=0,
                          partial=5.0, slice_count=10, event_rate=1.0,
                          buffer=batch(4)),
        FrontBuffer(sender="local-0", window_index=1, epoch=0,
                    spec_start=0, events=batch(4)),
        CorrectionReport(sender="local-0", window_index=1, epoch=0,
                         partial=5.0, count=10, last_event=batch(1)),
        WindowAssignment(sender="root", window_index=1, epoch=0,
                         predicted_size=10, delta=2),
        CorrectionRequest(sender="root", window_index=1, epoch=0,
                          actual_size=10),
        StartWindow(sender="root", window_index=1, epoch=0),
    ]


class TestSizes:
    def test_source_batch_free(self):
        # The generator is co-located with the local node.
        msg = SourceBatch(sender="source-0", events=batch(1000))
        assert sizeof_message(msg) == 0

    def test_raw_events_scale_with_count(self):
        small = RawEvents(sender="l", window_index=0, events=batch(1))
        large = RawEvents(sender="l", window_index=0, events=batch(100))
        assert sizeof_message(large) - sizeof_message(small) == 99 * 24

    def test_string_format_costs_about_3x(self):
        msg = RawEvents(sender="l", window_index=0, events=batch(1000))
        binary = sizeof_message(msg, WireFormat.BINARY)
        text = sizeof_message(msg, WireFormat.STRING)
        assert 2.5 < text / binary < 3.5

    def test_control_messages_are_small(self):
        for msg in (WindowAssignment(sender="root", window_index=0,
                                     epoch=0, predicted_size=10**6,
                                     delta=1000),
                    StartWindow(sender="root", window_index=0, epoch=0),
                    RateReport(sender="l", window_index=0,
                               event_rate=1e9, events_seen=10**6)):
            assert sizeof_message(msg) < 128

    def test_report_counts_all_buffers(self):
        base = LocalWindowReport(sender="l", window_index=0, epoch=0,
                                 partial=0.0, slice_count=5,
                                 event_rate=1.0)
        full = LocalWindowReport(sender="l", window_index=0, epoch=0,
                                 partial=0.0, slice_count=5,
                                 event_rate=1.0, buffer=batch(2),
                                 fbuffer=batch(3), ebuffer=batch(4))
        assert sizeof_message(full) - sizeof_message(base) == 9 * 24

    def test_all_messages_sized(self):
        for msg in sample_messages():
            assert sizeof_message(msg) >= 0

    def test_unknown_message_rejected(self):
        class Strange(Message):
            pass

        with pytest.raises(TypeError):
            sizeof_message(Strange(sender="x"))

    def test_make_sizer_binds_format(self):
        msg = RawEvents(sender="l", window_index=0, events=batch(10))
        assert make_sizer(WireFormat.STRING)(msg) == \
            sizeof_message(msg, WireFormat.STRING)
        assert make_sizer()(msg) == sizeof_message(msg)


class TestMessageFields:
    def test_messages_are_frozen(self):
        msg = StartWindow(sender="root", window_index=1, epoch=0)
        with pytest.raises(AttributeError):
            msg.window_index = 2

    def test_report_defaults(self):
        msg = LocalWindowReport(sender="l", window_index=0, epoch=0,
                                partial=0.0, slice_count=5,
                                event_rate=1.0)
        assert len(msg.buffer) == 0
        assert msg.fbuffer is None
        assert msg.ebuffer is None
        assert msg.spec_start == -1
        assert msg.slice_start == -1

    def test_assignment_defaults(self):
        msg = WindowAssignment(sender="root", window_index=0, epoch=0,
                               predicted_size=10, delta=1)
        assert msg.start_position == -1
        assert msg.release_before == -1
        assert msg.watermark == -1
