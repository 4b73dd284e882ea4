"""Failure-path tests for the serve runtime.

A load-testing runtime earns its keep on the unhappy paths: a node
process crashing mid-window must surface as a :class:`ServeError`
naming the node (not a hang), worker connections must retry with
backoff while the coordinator's listener comes up, and a finished run
must drain gracefully — every worker exits 0 on its own, no process
left behind.
"""

import asyncio
import socket
import threading
import time

import pytest

from repro.core.runner import RunConfig
from repro.errors import ServeError
from repro.serve import framing, run_scheme_served
from repro.serve.coordinator import Coordinator
from repro.serve.framing import connect_with_retry
from repro.serve.worker import CRASH_ENV

import repro.core  # noqa: F401  (registers deco_* schemes)
import repro.baselines  # noqa: F401  (registers baselines)


def tiny_config(scheme="deco_sync", **overrides):
    kwargs = dict(scheme=scheme, n_nodes=2, window_size=400,
                  n_windows=3, rate_per_node=20_000.0, seed=7)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def lingering_workers():
    """PIDs of serve worker processes still alive on this machine."""
    import os
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if b"repro.serve.worker" in cmdline:
            pids.append(int(entry))
    return pids


class TestNodeCrash:
    def test_crash_mid_window_raises_and_cleans_up(self, monkeypatch):
        # Every worker self-destructs before replying to its third
        # dispatch (INJECT, START, first timer) — a crash mid-window.
        monkeypatch.setenv(CRASH_ENV, "3")
        with pytest.raises(ServeError) as excinfo:
            run_scheme_served(tiny_config())
        message = str(excinfo.value)
        assert "died" in message
        assert "exited 1" in message
        # The harness must have reaped or terminated every worker.
        deadline = time.monotonic() + 10.0
        while lingering_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert lingering_workers() == []


class TestConnectRetry:
    def test_retries_until_listener_appears(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        accepted = []

        def late_listener():
            time.sleep(0.15)
            server = socket.socket()
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind(("127.0.0.1", port))
            server.listen(1)
            conn, _ = server.accept()
            accepted.append(True)
            conn.close()
            server.close()

        thread = threading.Thread(target=late_listener, daemon=True)
        thread.start()
        sock = connect_with_retry("127.0.0.1", port, attempts=8,
                                  base_delay=0.05)
        sock.close()
        thread.join(timeout=5.0)
        assert accepted == [True]

    def test_exhausted_attempts_raise(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with pytest.raises(ServeError, match="could not connect"):
            connect_with_retry("127.0.0.1", port, attempts=3,
                               base_delay=0.01)
        # Backoff actually waited between attempts (0.01 + 0.02).
        assert time.monotonic() - start >= 0.03


class TestHandshakeTimeout:
    def test_missing_workers_named(self):
        coord = Coordinator(tiny_config())
        with pytest.raises(ServeError, match="local-1"):
            asyncio.run(coord.wait_for_workers(timeout=0.05))

    def test_second_hello_for_connected_node_refused(self):
        # A newcomer claiming a connected node's name must not replace
        # the live connection (that would orphan the real worker).
        coord = Coordinator(tiny_config())

        async def hello(port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            await framing.send_frame_async(
                writer, framing.HELLO, {"node": "local-0"})
            return reader, writer

        async def scenario():
            server = await asyncio.start_server(
                coord.on_connect, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await hello(port)
                kind, _, _ = await asyncio.wait_for(
                    framing.recv_frame_async(reader), 5.0)
                assert kind == framing.ACK
                first = coord._conns["local-0"]
                late_reader, late_writer = await hello(port)
                with pytest.raises(ServeError):  # closed, never ACKed
                    await asyncio.wait_for(
                        framing.recv_frame_async(late_reader), 5.0)
                assert coord._conns["local-0"] is first
                # The first connection still carries coordinator frames.
                await framing.send_frame_async(
                    first[1], framing.START, {"now": 0.0})
                kind, _, _ = await asyncio.wait_for(
                    framing.recv_frame_async(reader), 5.0)
                assert kind == framing.START
                writer.close()
                late_writer.close()
                first[1].close()
            finally:
                server.close()
                await server.wait_closed()

        asyncio.run(scenario())


class TestSpawnFailure:
    def test_worker_dying_before_handshake_fails_fast(self,
                                                      monkeypatch):
        # A worker that exits before connecting (bad identity here;
        # import errors and argv typos behave the same) must surface
        # immediately — not after the full handshake timeout — and
        # must not leave the sibling workers running.
        from repro.serve import harness
        from repro.serve.coordinator import HANDSHAKE_TIMEOUT_S
        real_argv = harness.worker_argv

        def broken_argv(host, port, node, config):
            argv = real_argv(host, port, node, config)
            return [arg.replace("local-1", "local-99")
                    for arg in argv]

        monkeypatch.setattr(harness, "worker_argv", broken_argv)
        start = time.monotonic()
        with pytest.raises(ServeError, match="before handshake"):
            run_scheme_served(tiny_config())
        elapsed = time.monotonic() - start
        assert elapsed < HANDSHAKE_TIMEOUT_S / 2
        deadline = time.monotonic() + 10.0
        while lingering_workers() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert lingering_workers() == []


class TestGracefulShutdown:
    def test_all_workers_exit_zero_after_final(self):
        # run_scheme_served itself raises if any worker lingers or
        # exits non-zero after FINAL; success means the drain worked.
        report = run_scheme_served(tiny_config("central"))
        assert report.result.n_windows == 3
        assert lingering_workers() == []
