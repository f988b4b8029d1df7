"""Chaos tests: the serve stack under a combined fault plan.

These pin the end-to-end robustness contract: injected connection
drops and store corruption may cost retries and re-solves, but never
change a verdict, an obligation id or a query counter.
"""

import pytest

from repro import faults
from repro.algorithms import registry
from repro.pipeline import Pipeline, spec_config
from repro.serve import ServeClient, ServerThread


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.install(None)
    faults.reset()


def _reference(name):
    spec = registry.get(name)
    outcome = Pipeline().run(spec.source, config=spec_config(spec)).outcome
    return (
        outcome.verified,
        tuple(outcome.oids),
        outcome.obligations_total,
        outcome.solver_stats()["queries"],
    )


def _signature(result):
    outcome = result["outcome"]
    return (
        outcome["verified"],
        tuple(outcome["oids"]),
        outcome["obligations_total"],
        outcome["counters"]["queries"],
    )


class TestDroppedConnections:
    def test_client_retry_recovers_a_dropped_stream(self, tmp_path):
        """The server severs the connection mid event stream; the
        client reconnects, retries, and the result is byte-identical
        to the fault-free reference (single-flight released the memo
        slot, so the retry re-runs cleanly)."""
        reference = _reference("svt")
        sock = str(tmp_path / "serve.sock")
        plan = faults.install("serve-drop@4")
        with ServerThread(socket_path=sock):
            events = []
            with ServeClient(socket_path=sock, retries=3, backoff=0.01) as client:
                result = client.verify(spec="svt", on_event=events.append)
        assert _signature(result) == reference
        assert events, "the retried stream must deliver events"
        assert plan.snapshot() == [("serve-drop", "4")]

    def test_drop_fires_once_so_retries_succeed_without_spares(self, tmp_path):
        """One drop directive cannot starve a finite retry budget."""
        sock = str(tmp_path / "serve.sock")
        faults.install("serve-drop@4")
        with ServerThread(socket_path=sock):
            with ServeClient(socket_path=sock, retries=1, backoff=0.01) as client:
                assert client.verify(spec="svt")["outcome"]["verified"] is True


class TestCombinedPlan:
    def test_drop_and_poison_leave_verdicts_intact(self, tmp_path):
        """The full chaos plan at once, against one server: the dropped
        connection is retried, the poisoned store row is quarantined —
        every verdict matches the fault-free reference, and ``health``
        reads ``ok``, since a quarantined row is not a degradation."""
        reference = _reference("svt")
        sock = str(tmp_path / "serve.sock")
        store = str(tmp_path / "store.sqlite")
        faults.install("serve-drop@4,store-poison@1")
        with ServerThread(socket_path=sock, store=store) as st:
            with ServeClient(socket_path=sock, retries=3, backoff=0.01) as client:
                # The first request eats the connection drop (retried) and
                # writes the store batch whose first row is poisoned.
                first = client.verify(spec="svt")
                assert _signature(first) == reference

                # Same spec, new fingerprint: the store lookup trips the
                # poisoned row, quarantines it, re-solves, verdict holds.
                second = client.verify(spec="svt", config={"fail_fast": True})
                assert _signature(second)[:3] == reference[:3]
                assert (
                    second["outcome"]["counters"]["store"]["invalid"] >= 1
                )

                health = client.health()
                assert health["status"] == "ok"
                assert health["causes"] == []
            assert st.server.counters["completed"] >= 2
