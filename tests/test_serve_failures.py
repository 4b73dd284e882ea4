"""Failure-path tests for the serve runtime.

A load-testing runtime earns its keep on the unhappy paths: a node
process crashing mid-window must surface as a :class:`ServeError`
naming the node (not a hang), worker connections must retry with
backoff while the coordinator's listener comes up, and a finished run
must drain gracefully — every worker exits 0 on its own, no process
left behind.
"""

import os
import socket
import threading
import time

import pytest

from repro.core.runner import RunConfig
from repro.errors import ServeError
from repro.serve import coordinator, framing, harness, run_scheme_served
from repro.serve.coordinator import SocketTransport
from repro.serve.framing import connect_with_retry
from repro.serve.worker import WorkerRuntime

import repro.core  # noqa: F401  (registers deco_* schemes)
import repro.baselines  # noqa: F401  (registers baselines)


def tiny_config(scheme="deco_sync", **overrides):
    kwargs = dict(scheme=scheme, n_nodes=2, window_size=400,
                  n_windows=3, rate_per_node=20_000.0, seed=7)
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def lingering_workers():
    """PIDs of this process's children that are still running or not
    yet reaped.

    Serve workers are forked, so they carry this process's command
    line; the parent link in ``/proc/<pid>/status`` is what tells them
    apart.
    """
    tag = f"\nPPid:\t{os.getpid()}\n"
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status") as fh:
                status = fh.read()
        except OSError:
            continue
        if tag in status:
            pids.append(int(entry))
    return pids


def crash_before_handle(monkeypatch, n, node=None):
    """Make each forked worker (or only ``node``) hard-exit before its
    ``n``-th ``WorkerRuntime.handle``: forked children inherit the
    patch.  The test process itself never exits through it."""
    real, left, test_pid = WorkerRuntime.handle, [n], os.getpid()

    def crashing(self, kind, header, blob):
        if os.getpid() != test_pid and node in (None, self.node_name):
            left[0] -= 1
            if not left[0]:
                # Die without replying, as a real crashed process
                # would; os._exit skips atexit/socket teardown.
                os._exit(1)
        return real(self, kind, header, blob)

    monkeypatch.setattr(WorkerRuntime, "handle", crashing)


def wait_no_lingering_workers():
    deadline = time.monotonic() + 10.0
    while lingering_workers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert lingering_workers() == []


class TestNodeCrash:
    def test_crash_mid_window_raises_and_cleans_up(self, monkeypatch):
        # Every worker self-destructs before replying to its third
        # request (START, an epoch, then its second epoch) — a crash
        # mid-window.
        crash_before_handle(monkeypatch, 3)
        with pytest.raises(ServeError) as excinfo:
            run_scheme_served(tiny_config())
        message = str(excinfo.value)
        assert "died" in message
        assert "exited 1" in message
        # The harness must have reaped or terminated every worker.
        wait_no_lingering_workers()


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


NAMES = ["root", "local-0", "local-1"]


def say_hello(listener, node):
    """A client socket whose HELLO for ``node`` is already in flight
    (connect completes against the backlog, before any accept)."""
    sock = socket.create_connection(listener.getsockname())
    sock.settimeout(5.0)
    framing.send_frame(sock, framing.HELLO, {"node": node})
    return sock


@pytest.fixture
def listener():
    with socket.create_server(("127.0.0.1", 0)) as server:
        yield server


class TestHandshakeTimeout:
    def test_missing_workers_named(self, listener, monkeypatch):
        monkeypatch.setattr(harness, "HANDSHAKE_TIMEOUT_S", 0.2)
        transport = SocketTransport()
        clients = [say_hello(listener, "root"),
                   say_hello(listener, "local-0")]
        with pytest.raises(ServeError, match=r"\['local-1'\]"):
            harness._accept_workers(listener, transport, NAMES, {})
        assert sorted(transport.socks) == ["local-0", "root"]
        for sock in [*clients, *transport.socks.values()]:
            sock.close()

    def test_second_hello_for_connected_node_refused(self, listener):
        # A newcomer claiming a connected node's name must not replace
        # the live connection (that would orphan the real worker).
        transport = SocketTransport()
        first = say_hello(listener, "local-0")
        late = say_hello(listener, "local-0")
        rest = [say_hello(listener, "root"),
                say_hello(listener, "local-1")]
        harness._accept_workers(listener, transport, NAMES, {})
        assert framing.recv_frame(first)[0] == framing.ACK
        with pytest.raises(ServeError):  # closed, never ACKed
            framing.recv_frame(late)
        # The first connection is the registered one and still
        # carries coordinator frames.
        transport.send("local-0", framing.START, {}, b"")
        assert framing.recv_frame(first)[0] == framing.START
        for sock in [first, late, *rest, *transport.socks.values()]:
            sock.close()

    def test_silent_connection_does_not_block_the_cluster(
            self, listener, monkeypatch):
        # A stranger that connects first and never says HELLO costs
        # the accept loop its short HELLO deadline, not the handshake.
        monkeypatch.setattr(coordinator, "HELLO_TIMEOUT_S", 0.1)
        transport = SocketTransport()
        silent = socket.create_connection(listener.getsockname())
        clients = [say_hello(listener, name) for name in NAMES]
        start = time.monotonic()
        harness._accept_workers(listener, transport, NAMES, {})
        assert time.monotonic() - start < 5.0
        assert sorted(transport.socks) == sorted(NAMES)
        for sock in clients:
            assert framing.recv_frame(sock)[0] == framing.ACK
        for sock in [silent, *clients, *transport.socks.values()]:
            sock.close()

    def test_garbage_hello_is_closed(self, listener, monkeypatch):
        monkeypatch.setattr(harness, "HANDSHAKE_TIMEOUT_S", 0.2)
        transport = SocketTransport()
        junk = socket.create_connection(listener.getsockname())
        junk.sendall(framing.encode_frame(framing.HELLO, {})[:-2]
                     + b"[]")
        with pytest.raises(ServeError, match="never connected"):
            harness._accept_workers(listener, transport, NAMES, {})
        assert transport.socks == {}
        junk.close()


def silent_worker(host, port, node, config, traced):
    """Stands in for ``run_worker``: completes the handshake, then
    never answers a request."""
    sock = framing.connect_with_retry(host, port)
    framing.send_frame(sock, framing.HELLO, {"node": node})
    framing.recv_frame(sock)
    time.sleep(60)  # run_worker would reply here


class TestReplyDeadline:
    def test_silent_worker_fails_the_run_by_name(self, monkeypatch):
        # local-0 is alive and connected but never replies to START:
        # the read must hit its deadline, not hang the run.
        monkeypatch.setattr(framing, "REPLY_TIMEOUT_S", 0.5)
        real_worker = harness.run_worker

        def worker(host, port, node, config, traced):
            body = silent_worker if node == "local-0" else real_worker
            body(host, port, node, config, traced)

        monkeypatch.setattr(harness, "run_worker", worker)
        start = time.monotonic()
        with pytest.raises(ServeError, match="'local-0'.*hung.*timed out"):
            run_scheme_served(tiny_config())
        assert time.monotonic() - start < \
            coordinator.HANDSHAKE_TIMEOUT_S / 2
        wait_no_lingering_workers()


class TestWorkerReadDeadline:
    def test_silent_coordinator_fails_the_worker(self, listener,
                                                 monkeypatch):
        # A coordinator that ACKs and then never sends must not hang
        # the worker: its reads carry the same deadline.
        from repro.serve.worker import WorkerRuntime, serve_forever
        monkeypatch.setattr(framing, "REPLY_TIMEOUT_S", 0.5)
        rt = WorkerRuntime("local-0", tiny_config())
        accepted = []

        def silent_coordinator():
            conn, _ = listener.accept()
            conn.settimeout(5.0)
            framing.recv_frame(conn)  # HELLO
            framing.send_frame(conn, framing.ACK, {})
            accepted.append(conn)  # held open, never written again

        thread = threading.Thread(target=silent_coordinator, daemon=True)
        thread.start()
        start = time.monotonic()
        with socket.create_connection(listener.getsockname()) as sock:
            with pytest.raises(ServeError, match="timed out after 0.5s"):
                serve_forever(sock, rt)
        assert time.monotonic() - start < 5.0
        thread.join(timeout=5.0)
        for conn in accepted:
            conn.close()


class TestSpawnFailure:
    def test_worker_dying_before_handshake_fails_fast(self,
                                                      monkeypatch):
        # A worker that exits before connecting (bad identity here;
        # a failing constructor or a port race behave the same) must
        # surface immediately — not after the full handshake timeout —
        # and must not leave the sibling workers running.
        real_worker = harness.run_worker

        def broken_worker(host, port, node, config, traced):
            real_worker(host, port, node.replace("local-1", "local-99"),
                        config, traced)

        monkeypatch.setattr(harness, "run_worker", broken_worker)
        start = time.monotonic()
        with pytest.raises(ServeError, match="before handshake"):
            run_scheme_served(tiny_config())
        elapsed = time.monotonic() - start
        assert elapsed < coordinator.HANDSHAKE_TIMEOUT_S / 2
        wait_no_lingering_workers()

    def test_worker_exiting_zero_before_handshake_fails_fast(
            self, monkeypatch):
        # A clean exit is no handshake either: a worker exits on its
        # own only after FINAL, so exit 0 before connecting fails the
        # run at once and names the code.
        real_worker = harness.run_worker

        def quitting_worker(host, port, node, config, traced):
            if node != "local-0":
                real_worker(host, port, node, config, traced)

        monkeypatch.setattr(harness, "run_worker", quitting_worker)
        start = time.monotonic()
        with pytest.raises(ServeError, match="before handshake: "
                           "local-0 exited 0"):
            run_scheme_served(tiny_config())
        elapsed = time.monotonic() - start
        assert elapsed < coordinator.HANDSHAKE_TIMEOUT_S / 2
        wait_no_lingering_workers()


class TestGracefulShutdown:
    def test_all_workers_exit_zero_after_final(self):
        # run_scheme_served itself raises if any worker lingers or
        # exits non-zero after FINAL; success means the drain worked.
        report = run_scheme_served(tiny_config("central"))
        assert report.result.n_windows == 3
        assert lingering_workers() == []

    def test_lingering_workers_sees_a_live_cluster(self, monkeypatch):
        # The helper above must see every worker while a run is live,
        # or each "no lingering worker" check would pass vacuously.
        seen = []
        real_run = coordinator.Coordinator.run

        def run(self):
            seen.append(lingering_workers())
            real_run(self)

        monkeypatch.setattr(coordinator.Coordinator, "run", run)
        config = tiny_config("central")
        run_scheme_served(config)
        assert len(seen) == 1 and len(seen[0]) == config.n_nodes + 1
        assert lingering_workers() == []
