"""The serve hardening surface: ``health``, admission control
(``overloaded`` + ``retry_after``) and client retry/backoff."""

import threading
import time

import pytest

from repro.serve import ServeClient, ServeError, ServerThread, protocol
from repro.verify.discharge import DischargeEngine


def _hold_discharge(monkeypatch) -> threading.Event:
    """Make every discharge unit wait until the returned event is set.

    The server runs in-process under :class:`ServerThread`, so the patch
    reaches its request threads and a verify request stays admitted for
    as long as the test needs.
    """
    release = threading.Event()
    original = DischargeEngine.discharge_unit

    def held(self, *args, **kwargs):
        release.wait(60)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DischargeEngine, "discharge_unit", held)
    return release


def _wait_for_admission(server) -> None:
    deadline = time.monotonic() + 10
    while server._inflight == 0:
        assert time.monotonic() < deadline, "blocker never admitted"
        time.sleep(0.02)


class TestHealth:
    def test_health_ok_on_a_fresh_server(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with ServerThread(socket_path=sock):
            with ServeClient(socket_path=sock) as client:
                health = client.health()
                assert health["type"] == "health"
                assert health["status"] == "ok"
                assert health["causes"] == []
                assert health["uptime_seconds"] >= 0
                assert health["inflight"] == 0
                assert health["max_queue"] >= 1

    def test_health_degraded_when_store_is_memory_only(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        sock = str(tmp_path / "serve.sock")
        store = str(blocker / "store.sqlite")
        with ServerThread(socket_path=sock, store=store):
            with ServeClient(socket_path=sock) as client:
                result = client.verify(spec="svt")
                assert result["outcome"]["verified"] is True
                health = client.health()
                assert health["status"] == "degraded"
                assert any("obligation-store" in c for c in health["causes"])

    def test_health_draining_during_shutdown(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with ServerThread(socket_path=sock) as st:
            with ServeClient(socket_path=sock) as client:
                st.server._draining = True
                try:
                    assert client.health()["status"] == "draining"
                finally:
                    st.server._draining = False


class TestAdmissionControl:
    def test_overloaded_rejection_carries_retry_after(self, tmp_path, monkeypatch):
        sock = str(tmp_path / "serve.sock")
        release = _hold_discharge(monkeypatch)
        with ServerThread(
            socket_path=sock, max_concurrent=1, max_queue=1
        ) as st:
            done = threading.Event()
            errors = []

            def blocker():
                try:
                    with ServeClient(socket_path=sock) as c:
                        c.verify(spec="svt")
                except Exception as err:  # surfaces in the main thread
                    errors.append(err)
                finally:
                    done.set()

            thread = threading.Thread(target=blocker)
            thread.start()
            try:
                _wait_for_admission(st.server)
                with ServeClient(socket_path=sock, retries=0) as client:
                    with pytest.raises(ServeError) as excinfo:
                        client.verify(spec="noisy_max")
                    assert excinfo.value.code == "overloaded"
                    assert excinfo.value.retry_after > 0
                # The typed code is part of the protocol catalogue.
                assert "overloaded" in protocol.ERROR_CODES
            finally:
                release.set()
                done.wait(60)
                thread.join(60)
            assert not thread.is_alive()
            assert not errors
            assert st.server.counters["overloaded"] >= 1

    def test_client_retries_through_an_overloaded_window(self, tmp_path, monkeypatch):
        sock = str(tmp_path / "serve.sock")
        release = _hold_discharge(monkeypatch)
        with ServerThread(socket_path=sock, max_concurrent=1, max_queue=1) as st:
            done = threading.Event()

            def blocker():
                try:
                    with ServeClient(socket_path=sock) as c:
                        c.verify(spec="svt")
                finally:
                    done.set()

            thread = threading.Thread(target=blocker)
            thread.start()
            # The blocker holds the only admission slot for 0.5 s.
            timer = threading.Timer(0.5, release.set)
            try:
                _wait_for_admission(st.server)
                timer.start()
                with ServeClient(
                    socket_path=sock, retries=8, backoff=0.2
                ) as client:
                    result = client.verify(spec="noisy_max")
                    assert result["outcome"]["verified"] is True
                assert st.server.counters["overloaded"] >= 1
            finally:
                timer.cancel()
                release.set()
                done.wait(60)
                thread.join(60)
            assert not thread.is_alive()


class TestClientRetry:
    def test_shutdown_is_never_retried(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with ServerThread(socket_path=sock):
            with ServeClient(socket_path=sock) as client:
                ack = client.shutdown()
                assert ack["type"] == "shutdown-ack"

    def test_retry_budget_exhausts_on_dead_server(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with ServerThread(socket_path=sock) as st:
            client = ServeClient(socket_path=sock, retries=1, backoff=0.01)
        # Server gone: the request fails with a connection error after
        # the (cheap) retry budget, not an unbounded loop.
        start = time.monotonic()
        with pytest.raises(ServeError) as excinfo:
            client.ping()
        assert excinfo.value.code == "connection"
        assert time.monotonic() - start < 10
        client.close()

    def test_non_retryable_codes_surface_immediately(self, tmp_path):
        sock = str(tmp_path / "serve.sock")
        with ServerThread(socket_path=sock):
            with ServeClient(socket_path=sock) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.verify(spec="no_such_algorithm")
                assert excinfo.value.code == "unknown-spec"
