"""End-to-end tests for the ``repro serve`` daemon and client.

Each test runs a real :class:`VerifyServer` on a background event-loop
thread listening on a unix socket (one test covers TCP) and talks to it
through :class:`ServeClient` — the same code path as ``repro client``.

The load-bearing properties pinned here:

* handshake and protocol-version rejection;
* per-request results identical to direct in-process pipeline runs
  (verdicts, obligation ids, query counters);
* the two single-flight layers under concurrency — N clients verifying
  the *same* program produce exactly one pipeline execution, and a mix
  of *different* programs produces verdicts and aggregate solver totals
  identical to a serial one-shot reference;
* warm-cache behaviour (``--warm`` preload, cached replays issuing zero
  new solves);
* cooperative cancellation: per-request timeouts and drain-on-shutdown
  deliver ``early-exit`` events plus a terminal error, and leave the
  caches serviceable.
"""

import socket
import threading

import pytest

from repro import __version__
from repro.algorithms import registry
from repro.pipeline import Pipeline, spec_config
from repro.serve import ServeClient, ServeError, ServerThread, protocol

#: Three quick registry rows for sweep-style tests.
SPECS = ("svt", "noisy_max", "partial_sum")


@pytest.fixture
def server(tmp_path):
    sock = str(tmp_path / "serve.sock")
    with ServerThread(socket_path=sock, max_concurrent=4) as st:
        yield st, sock


def _connect(sock: str) -> ServeClient:
    return ServeClient(socket_path=sock)


def _signature(result):
    """The schedule-invariant per-request fingerprint of a wire result."""
    outcome = result["outcome"]
    return (
        result["name"],
        outcome["verified"],
        tuple(outcome["oids"]),
        outcome["obligations_total"],
        tuple(sorted(f["oid"] for f in outcome["failures"])),
        outcome["counters"]["queries"],
        outcome["counters"]["units"],
    )


def _serial_reference(specs):
    """Fresh-process serial runs: per-spec signatures + aggregate totals."""
    pipe = Pipeline()
    signatures, solves, hits = [], 0, 0
    for name in specs:
        spec = registry.get(name)
        run = pipe.run(spec.source, config=spec_config(spec))
        outcome = run.outcome
        stats = outcome.solver_stats()
        signatures.append(
            (
                run.name,
                outcome.verified,
                tuple(outcome.oids),
                outcome.obligations_total,
                tuple(sorted(f.obligation.oid for f in outcome.failures)),
                stats["queries"],
                stats["units"],
            )
        )
        solves += stats["solve_calls"]
        hits += stats["cache_hits"]
    return signatures, solves, hits


# ---------------------------------------------------------------------------
# Handshake, status, basic requests
# ---------------------------------------------------------------------------


class TestHandshake:
    def test_hello_reports_version_and_protocol(self, server):
        _, sock = server
        with _connect(sock) as client:
            assert client.server_info["server"] == "repro-serve"
            assert client.server_info["version"] == __version__
            assert client.server_info["protocol"] == protocol.PROTOCOL_VERSION
            assert client.ping()["type"] == "pong"

    def test_mismatched_protocol_rejected(self, server):
        _, sock = server
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock)
        reader = raw.makefile("rb")
        try:
            hello = protocol.decode_line(reader.readline())
            assert hello["type"] == "hello"
            raw.sendall(
                protocol.encode_line(
                    {"type": "hello", "protocol": protocol.PROTOCOL_VERSION + 1}
                )
            )
            answer = protocol.decode_line(reader.readline())
            assert answer["type"] == "error"
            assert answer["code"] == "protocol-mismatch"
            assert reader.readline() == b""  # server closed the connection
        finally:
            reader.close()
            raw.close()

    def test_rejection_is_counted(self, server):
        st, sock = server
        with pytest.raises(ServeError) as err:
            # A client that leads with a request instead of a hello.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(sock)
            reader = raw.makefile("rb")
            reader.readline()  # server hello
            raw.sendall(protocol.encode_line({"type": "status"}))
            answer = protocol.decode_line(reader.readline())
            reader.close()
            raw.close()
            raise ServeError(answer["message"], code=answer["code"])
        assert err.value.code == "protocol-mismatch"
        with _connect(sock) as client:
            assert client.status()["requests"]["rejected"] == 1

    def test_failed_connect_closes_its_socket(self, tmp_path, monkeypatch):
        opened = []

        class TrackedSocket(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        monkeypatch.setattr(socket, "socket", TrackedSocket)
        with pytest.raises(ServeError):
            _connect(str(tmp_path / "nowhere.sock"))
        assert len(opened) == 1
        assert opened[0].fileno() == -1  # closed, not left to the collector


class TestStatus:
    def test_status_shape(self, server):
        _, sock = server
        with _connect(sock) as client:
            status = client.status()
            assert status["server"]["version"] == __version__
            assert status["server"]["protocol"] == protocol.PROTOCOL_VERSION
            assert status["server"]["uptime_seconds"] >= 0
            assert status["server"]["draining"] is False
            assert status["server"]["max_concurrent"] == 4
            assert status["requests"]["active"] == 0
            assert set(status["query_cache"]) >= {"entries", "hits", "misses", "pending"}
            assert set(status["stage_memo"]) == {"entries", "in_flight", "hits", "misses"}
            assert "svt" in status["registry"]

    def test_unknown_request_type(self, server):
        _, sock = server
        with _connect(sock) as client:
            with pytest.raises(ServeError) as err:
                client._request({"type": "frobnicate"})
            assert err.value.code == "bad-request"


# ---------------------------------------------------------------------------
# Verify requests vs direct pipeline runs
# ---------------------------------------------------------------------------


class TestVerify:
    def test_matches_direct_pipeline_run(self, server):
        _, sock = server
        with _connect(sock) as client:
            result = client.verify(spec="svt")
        (reference,), _, _ = _serial_reference(["svt"])
        assert result["cached"] is False
        assert _signature(result) == reference
        # Cold counters match a cold in-process run exactly.
        spec = registry.get("svt")
        direct = Pipeline().run(spec.source, config=spec_config(spec)).outcome
        assert result["outcome"]["counters"]["solve_calls"] == (
            direct.solver_stats()["solve_calls"]
        )
        assert result["source_sha256"] == Pipeline().run(
            spec.source, config=spec_config(spec), stop_after="parse"
        ).source_hash

    def test_inline_source_with_wire_config(self, server):
        _, sock = server
        spec = registry.get("svt")
        config = {
            "bindings": {k: str(v) for k, v in spec.fixed_bindings.items()},
            "assumptions": list(spec.assumptions),
        }
        with _connect(sock) as client:
            by_spec = client.verify(spec="svt")
            by_source = client.verify(source=spec.source, config=config)
        assert by_source["outcome"]["verified"] is True
        assert by_source["outcome"]["oids"] == by_spec["outcome"]["oids"]

    def test_refuted_program_reports_failures(self, server):
        _, sock = server
        with _connect(sock) as client:
            result = client.verify(spec="bad_svt_leaks_value")
        outcome = result["outcome"]
        assert outcome["verified"] is False
        assert outcome["failures"]
        for failure in outcome["failures"]:
            assert failure["oid"] in outcome["oids"]

    def test_events_streamed_incrementally(self, server):
        _, sock = server
        events = []
        with _connect(sock) as client:
            result = client.verify(spec="svt", on_event=events.append)
        kinds = [e["kind"] for e in events]
        assert "unit-started" in kinds
        assert "unit-finished" in kinds
        verdicts = [e for e in events if e["kind"] == "obligation-discharged"]
        oids = result["outcome"]["oids"]
        assert len(verdicts) == result["outcome"]["obligations_total"]
        # Units are discharged in plan order, so verdicts stream in
        # outcome order.
        assert [e["oid"] for e in verdicts] == oids
        # Every event is tagged with the request id of its verify.
        assert {e["id"] for e in events} == {result["id"]}

    def test_stream_false_suppresses_events(self, server):
        _, sock = server
        events = []
        with _connect(sock) as client:
            result = client.verify(spec="svt", stream=False, on_event=events.append)
        assert events == []
        assert result["outcome"]["verified"] is True

    def test_cached_replay_issues_no_queries(self, server):
        _, sock = server
        with _connect(sock) as client:
            first = client.verify(spec="svt")
            before = client.status()["query_cache"]
            events = []
            second = client.verify(spec="svt", on_event=events.append)
            after = client.status()["query_cache"]
        assert first["cached"] is False
        assert second["cached"] is True
        assert events == []  # memoized results replay without a discharge
        assert second["outcome"]["oids"] == first["outcome"]["oids"]
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_warm_query_cache_across_configs(self, server):
        """A re-verify under a different config (new memo key, same
        obligations) answers every query from the warm cache."""
        _, sock = server
        with _connect(sock) as client:
            cold = client.verify(spec="svt")
            warm = client.verify(spec="svt", config={"fail_fast": True})
        assert warm["cached"] is False  # distinct fingerprint: really re-ran
        counters = warm["outcome"]["counters"]
        assert counters["solve_calls"] == 0
        assert counters["cache_hits"] == counters["queries"]
        assert warm["outcome"]["oids"] == cold["outcome"]["oids"]

    def test_unknown_spec(self, server):
        _, sock = server
        with _connect(sock) as client:
            with pytest.raises(ServeError) as err:
                client.verify(spec="laplace_oracle")
            assert err.value.code == "unknown-spec"

    def test_verify_needs_a_program(self, server):
        _, sock = server
        with _connect(sock) as client:
            with pytest.raises(ServeError) as err:
                client._request({"type": "verify"})
            assert err.value.code == "bad-request"

    def test_bad_config_rejected(self, server):
        _, sock = server
        with _connect(sock) as client:
            with pytest.raises(ServeError) as err:
                client.verify(spec="svt", config={"jobs": 2})
            assert err.value.code == "bad-request"
            assert "jobs" in str(err.value)
            # The connection survives a rejected request.
            assert client.ping()["type"] == "pong"


# ---------------------------------------------------------------------------
# Concurrency determinism (the service-layer property)
# ---------------------------------------------------------------------------


def _concurrent_verify(sock, requests):
    """Run one verify per thread, all released simultaneously."""
    barrier = threading.Barrier(len(requests))
    results = [None] * len(requests)
    errors = []

    def worker(slot, spec):
        try:
            with _connect(sock) as client:
                barrier.wait()
                results[slot] = client.verify(spec=spec)
        except BaseException as err:  # surfaced in the main thread
            errors.append(err)
            try:
                barrier.abort()
            except threading.BrokenBarrierError:
                pass

    threads = [
        threading.Thread(target=worker, args=(slot, spec))
        for slot, spec in enumerate(requests)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    assert all(r is not None for r in results)
    return results


class TestConcurrencyDeterminism:
    def test_identical_requests_share_one_execution(self, server):
        st, sock = server
        results = _concurrent_verify(sock, ["svt"] * 4)
        signatures = {_signature(r) for r in results}
        assert len(signatures) == 1  # byte-identical verdicts and counters
        (reference,), _, _ = _serial_reference(["svt"])
        assert signatures == {reference}
        # The stage memo's single flight: exactly one request produced,
        # the other three received the memoized artifact as a hit.
        assert sum(1 for r in results if not r["cached"]) == 1
        memo = st.server.pipeline.memo_stats()
        assert memo["misses"]["verify"] == 1
        assert memo["in_flight"] == 0

    def test_distinct_requests_match_serial_reference(self, server):
        st, sock = server
        results = _concurrent_verify(sock, list(SPECS))
        by_name = {r["name"]: r for r in results}
        reference, ref_solves, ref_hits = _serial_reference(SPECS)
        assert [_signature(by_name[sig[0]]) for sig in reference] == reference
        # Aggregate solver totals are schedule-invariant: the solve count
        # equals the number of distinct normalized queries, and every
        # other query is a hit — regardless of which request got there
        # first.  (The per-request hit/solve *split* is the one quantity
        # concurrency may shuffle when distinct programs share queries.)
        solves = sum(r["outcome"]["counters"]["solve_calls"] for r in results)
        hits = sum(r["outcome"]["counters"]["cache_hits"] for r in results)
        assert solves == ref_solves
        assert hits == ref_hits
        cache = st.server.pipeline.query_cache.stats()
        assert cache["pending"] == 0

    def test_second_pass_is_warm(self, server):
        """Satellite property: a warm second sweep — cache hits > 0 and
        strictly fewer solves than cold (here: zero)."""
        st, sock = server
        with _connect(sock) as client:
            cold = [client.verify(spec=name) for name in SPECS]
            cache_after_cold = client.status()["query_cache"]
            warm = [client.verify(spec=name) for name in SPECS]
            cache_after_warm = client.status()["query_cache"]
        cold_solves = sum(r["outcome"]["counters"]["solve_calls"] for r in cold)
        assert cold_solves > 0
        assert all(r["cached"] for r in warm)
        assert [_signature(r) for r in warm] == [_signature(r) for r in cold]
        # Zero new solves: the query cache was not even consulted.
        assert cache_after_warm["misses"] == cache_after_cold["misses"]
        memo = st.server.pipeline.memo_stats()
        assert sum(memo["hits"].values()) > 0


# ---------------------------------------------------------------------------
# Warm start
# ---------------------------------------------------------------------------


class TestWarmStart:
    def test_warm_server_serves_everything_cached(self, tmp_path):
        sock = str(tmp_path / "warm.sock")
        with ServerThread(socket_path=sock, warm_specs=list(SPECS)) as st:
            with _connect(sock) as client:
                status = client.status()
                assert status["server"]["warmed"] == list(SPECS)
                before = status["query_cache"]
                results = client.sweep(specs=SPECS)
                after = client.status()["query_cache"]
            assert all(r["cached"] for r in results)
            assert all(r["outcome"]["verified"] for r in results)
            assert after["misses"] == before["misses"]  # zero new solves


class TestObligationStore:
    def test_status_reports_no_store_by_default(self, server):
        _, sock = server
        with _connect(sock) as client:
            assert client.status()["obligation_store"] is None

    def test_shared_store_serves_repeat_work_without_solving(self, tmp_path):
        """One store behind every request: a config variation that forks
        the stage memo (fail_fast) is still answered from disk."""
        sock = str(tmp_path / "store.sock")
        store_path = str(tmp_path / "store.sqlite")
        with ServerThread(socket_path=sock, store=store_path) as st:
            with _connect(sock) as client:
                cold = client.verify(spec="svt")
                status = client.status()
                warm = client.verify(spec="svt", config={"fail_fast": True})
        total = cold["outcome"]["obligations_total"]
        assert cold["cached"] is False
        assert cold["outcome"]["counters"]["store"]["writes"] == total
        block = status["obligation_store"]
        assert block is not None
        assert block["path"] == store_path
        assert block["entries"] == total
        assert block["writes"] == total
        # The fail_fast variation missed the memo but hit the store for
        # every obligation: no solver work at all.
        assert warm["cached"] is False
        assert warm["outcome"]["counters"]["store"]["hits"] == total
        assert warm["outcome"]["counters"]["solve_calls"] == 0
        assert warm["outcome"]["verified"] is True
        assert st.server.store.counters.hits == total

    def test_wire_config_cannot_redirect_the_store(self):
        """The store is server-side state, not a request knob."""
        assert "store" not in protocol.CONFIG_KEYS
        with pytest.raises(protocol.ProtocolError):
            protocol.config_from_wire({"store": "/tmp/evil.sqlite"})


# ---------------------------------------------------------------------------
# Timeouts, drain and lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_request_timeout_cancels_and_recovers(self, server):
        st, sock = server
        events = []
        with _connect(sock) as client:
            with pytest.raises(ServeError) as err:
                client.verify(spec="num_svt", timeout=0.05, on_event=events.append)
            assert err.value.code == "timeout"
            # The cancelled run told its client it stopped early.
            assert any(e["kind"] == "early-exit" for e in events)
            assert any(
                e["reason"] == "cancelled"
                for e in events
                if e["kind"] == "early-exit"
            )
            # The caches were not poisoned: the same request, unhurried,
            # completes on the same connection.
            result = client.verify(spec="num_svt")
            assert result["outcome"]["verified"] is True
            status = client.status()
            assert status["requests"]["cancelled"] == 1
            assert status["query_cache"]["pending"] == 0

    def test_shutdown_request_drains(self, tmp_path):
        sock = str(tmp_path / "drain.sock")
        st = ServerThread(socket_path=sock)
        st.start()
        with _connect(sock) as client:
            client.verify(spec="svt")
            client.shutdown()
        st._thread.join(timeout=30)
        assert not st._thread.is_alive()
        # The listener is gone: new connections fail.
        with pytest.raises(ServeError):
            _connect(sock)

    def test_drain_cancels_inflight_requests(self, tmp_path):
        sock = str(tmp_path / "drain2.sock")
        st = ServerThread(socket_path=sock)
        st.start()
        started = threading.Event()
        outcome = {}

        def slow_client():
            try:
                with _connect(sock) as client:
                    outcome["result"] = client.verify(
                        spec="num_svt",
                        on_event=lambda e: (
                            outcome.setdefault("events", []).append(e),
                            started.set(),
                        ),
                    )
            except ServeError as err:
                outcome["error"] = err

        thread = threading.Thread(target=slow_client)
        thread.start()
        assert started.wait(timeout=60)  # the verify is genuinely running
        st.server.request_shutdown("test drain")
        thread.join(timeout=60)
        assert not thread.is_alive()
        st._thread.join(timeout=60)
        assert not st._thread.is_alive()
        # The in-flight request was cancelled (or, in the unlikely race,
        # finished just before the drain) — never dropped silently.
        if "error" in outcome:
            assert outcome["error"].code == "cancelled"
            assert any(
                e["kind"] == "early-exit" and e["reason"] == "cancelled"
                for e in outcome.get("events", ())
            )
        else:
            assert outcome["result"]["outcome"]["verified"] is True

    def test_tcp_endpoint(self, tmp_path):
        with ServerThread(port=0) as st:
            port = st.server.tcp_port
            assert port
            with ServeClient(port=port) as client:
                assert client.ping()["type"] == "pong"
                assert client.status()["server"]["version"] == __version__


# ---------------------------------------------------------------------------
# The CLI front ends
# ---------------------------------------------------------------------------


class TestCLI:
    def test_version_flag(self, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert f"repro {__version__}" in out
        assert f"protocol {protocol.PROTOCOL_VERSION}" in out

    def test_client_verify_and_status(self, server, capsys):
        from repro.cli import main as cli_main

        _, sock = server
        assert cli_main(["client", "verify", "--spec", "svt", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "SVT: verified" in out

        assert cli_main(["client", "status", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "repro-serve" in out
        assert "1 completed" in out

    def test_client_progress_events(self, server, capsys):
        from repro.cli import main as cli_main

        _, sock = server
        rc = cli_main(
            ["client", "verify", "--spec", "partial_sum", "--socket", sock, "--progress"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "started (" in out
        assert "ok " in out

    def test_client_refuted_exit_code(self, server):
        from repro.cli import main as cli_main

        _, sock = server
        rc = cli_main(
            ["client", "verify", "--spec", "bad_svt_leaks_value", "--socket", sock]
        )
        assert rc == 1

    def test_client_connection_error(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        rc = cli_main(
            ["client", "status", "--socket", str(tmp_path / "nowhere.sock")]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err
