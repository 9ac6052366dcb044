"""``events`` auto-reconnect: a killed stream resumes at its cursor.

The ROADMAP open item: the v2 ``events`` op always supported resuming
at a sequence cursor (``from``), but a dropped connection used to
kill the whole stream.  ``ServiceClient.events(reconnect=True)`` now
reconnects and re-issues from the cursor after the last delivered
event.

Two layers of coverage:

* a **drop server** that deterministically kills the stream after a
  configurable number of events and records every ``from`` cursor it
  is asked for — the exact client contract (raise without
  ``reconnect``, resume exactly once with it);
* the **real service**, with the client's socket shut down mid-grid —
  end to end, the merged stream is gapless and duplicate-free.
"""

import json
import socket
import threading

import pytest

from repro.exceptions import ServiceError, ServiceTransportError
from repro.service.client import ServiceClient
from repro.service.ipc import IPCServer
from repro.service.server import ExplorationServer


def _event(seq):
    return {
        "v": 2, "kind": "point", "job": "job-0001", "seq": seq,
        "index": seq, "total": 4, "payload": {"seq": seq},
    }


EVENTS = [_event(seq) for seq in range(4)]


class DropServer:
    """Serves an ``events`` stream, dropping it after N lines.

    Connection k (0-based) serves at most ``drop_after[k]`` event
    lines from the requested cursor, then hard-closes the socket —
    unless its budget covers the rest, in which case the ``done``
    line follows.  ``cursors`` records every ``from`` the server was
    asked for, which is how the tests assert exactly-once resumption.
    """

    def __init__(self, drop_after, events=EVENTS):
        self.drop_after = list(drop_after)
        self.events = list(events)
        self.cursors = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        for budget in self.drop_after:
            try:
                conn, _ = self._listener.accept()
            except OSError:  # pragma: no cover - closed mid-accept
                return
            with conn:
                reader = conn.makefile("rb")
                request = json.loads(reader.readline())
                start = int(request.get("from", 0))
                self.cursors.append(start)
                pending = self.events[start:]
                for event in pending[:budget]:
                    line = json.dumps({"ok": True, "event": event})
                    conn.sendall(line.encode() + b"\n")
                if budget >= len(pending):
                    done = json.dumps(
                        {"ok": True, "done": True, "status": "done"}
                    )
                    conn.sendall(done.encode() + b"\n")
                # Hard drop (or orderly end): the makefile reader
                # keeps the fd alive past conn.close(), so shut the
                # socket down explicitly — the client must see EOF.
                reader.close()
                conn.shutdown(socket.SHUT_RDWR)

    def close(self):
        self._listener.close()


class TestClientContract:
    def test_drop_without_reconnect_raises_transport_error(self):
        server = DropServer(drop_after=[2])
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                stream = client.events("job-0001")
                assert next(stream)["seq"] == 0
                assert next(stream)["seq"] == 1
                with pytest.raises(ServiceTransportError):
                    next(stream)
        finally:
            server.close()

    def test_drop_with_reconnect_resumes_exactly_once(self):
        server = DropServer(drop_after=[2, 10])
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                events = list(client.events(
                    "job-0001", reconnect=True
                ))
            assert [event["seq"] for event in events] == [0, 1, 2, 3]
            # Second connection resumed exactly after the last
            # delivered event — no replays, no gaps.
            assert server.cursors == [0, 2]
        finally:
            server.close()

    def test_every_line_dropped_exhausts_the_budget(self):
        # Zero progress per connection: the retry budget must not
        # loop forever.
        server = DropServer(drop_after=[0] * 10)
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                with pytest.raises(ServiceTransportError):
                    list(client.events("job-0001", reconnect=True))
            assert len(server.cursors) == 6  # first try + 5 retries
        finally:
            server.close()

    def test_progress_resets_the_retry_budget(self):
        # One event per connection, eight connections: more drops
        # than max_reconnects allows consecutively, but each
        # connection delivers progress, which resets the budget.
        server = DropServer(
            drop_after=[1] * 7 + [10],
            events=[_event(seq) for seq in range(8)],
        )
        try:
            with ServiceClient(port=server.port, timeout=30) as client:
                events = list(client.events(
                    "job-0001", reconnect=True
                ))
            assert [event["seq"] for event in events] == list(range(8))
            assert server.cursors == list(range(8))
        finally:
            server.close()


@pytest.fixture
def ipc():
    with ExplorationServer(max_workers=1) as exploration:
        server = IPCServer(exploration, port=0).start()
        yield server
        server.stop()


def connect(ipc):
    host, port = ipc.address
    return ServiceClient(host=host, port=port, timeout=120)


GRID = dict(socs=["d695"], widths=[6, 8, 10, 12], num_tams=2)


class TestAgainstRealService:
    def test_killed_stream_still_delivers_every_event_once(self, ipc):
        with connect(ipc) as reference:
            job_id = reference.submit(**GRID)
            expected = list(reference.events(job_id, timeout=120))
        assert len(expected) == 4

        with connect(ipc) as client:
            events = []
            # The connection is dead before the stream starts, so the
            # first request always has to reconnect.
            killed = [client._sock]
            client._sock.shutdown(socket.SHUT_RDWR)
            for event in client.events(
                job_id, timeout=120, reconnect=True
            ):
                events.append(event)
                # Kill each connection after its first event; the
                # client reconnects and resumes at the cursor.  The
                # job is finished, so the server may push the rest of
                # the stream in one burst that the client's buffered
                # reader already holds; it then yields from the
                # buffer on the same (dead) socket, which is correct,
                # and a second shutdown of that socket would raise
                # ENOTCONN once the server has closed its end.  (The
                # server-side drop that always forces a mid-stream
                # resume is pinned in test_chaos.py.)
                if not any(sock is client._sock for sock in killed):
                    killed.append(client._sock)
                    client._sock.shutdown(socket.SHUT_RDWR)
            assert events == expected
            assert len(killed) >= 2  # the client did reconnect

    def test_mid_run_kill_against_live_grid(self, ipc):
        # The same protocol against a job still *running* when the
        # stream dies (max_workers=1: the grid runs inline in the
        # dispatcher, so events trickle while we consume).
        with connect(ipc) as client:
            job_id = client.submit(**GRID)
            seen = []
            killed = False
            for event in client.events(
                job_id, timeout=300, reconnect=True
            ):
                seen.append(event)
                if not killed:
                    killed = True
                    client._sock.shutdown(socket.SHUT_RDWR)
            assert [event["seq"] for event in seen] == [0, 1, 2, 3]

    def test_server_side_errors_are_never_retried(self, ipc):
        with connect(ipc) as client:
            with pytest.raises(ServiceError) as failure:
                list(client.events(
                    "job-9999", timeout=5, reconnect=True
                ))
            assert not isinstance(
                failure.value, ServiceTransportError
            )


class TestCliStreamUsesReconnect:
    def test_submit_stream_renders_every_point(self, ipc, capsys):
        from repro.cli import main

        host, port = ipc.address
        code = main([
            "submit", "d695", "-W", "6", "8", "-B", "2",
            "--host", host, "--port", str(port), "--stream",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[1/2]" in out and "[2/2]" in out
