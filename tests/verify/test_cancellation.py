"""Cooperative-cancellation regression tests.

A discharge run interrupted mid-plan (per-request timeout, server
drain, Ctrl-C) must unwind *cleanly*: pushed solver scopes popped,
single-flight query-cache acquisitions released (serve's request
threads share one cache, so a leaked flight would deadlock them), the
rest of the plan never started — and the shared caches must remain
fully usable afterwards.
"""

import threading

import pytest

from repro.algorithms import get
from repro.pipeline import Pipeline, spec_config
from repro.solver.context import QueryCache
from repro.verify.discharge import (
    DischargeCancelled,
    DischargeEngine,
    DischargePlan,
    EarlyExit,
    ObligationDischarged,
    UnitFinished,
)
from repro.verify.verifier import iter_obligations, verify_target

import dataclasses


def _svt():
    spec = get("svt")
    return spec.target(), spec_config(spec)


def _config(base, **kwargs):
    return dataclasses.replace(base, **kwargs)


class TestCancelEvent:
    def test_preset_cancel_raises_before_any_work(self):
        target, config = _svt()
        cancel = threading.Event()
        cancel.set()
        cache = QueryCache()
        with pytest.raises(DischargeCancelled):
            verify_target(target, _config(config, cancel_event=cancel), cache=cache)
        stats = cache.stats()
        assert stats["pending"] == 0
        assert stats["misses"] == 0  # nothing was even looked up

    def test_cancel_during_the_last_unit_is_not_a_success(self):
        """A cancel that arrives while the last unit solves, after its
        last member boundary, is seen when discharge ends: the run raises
        instead of returning a verdict its timeout already gave up on."""
        target, config = _svt()
        plan = DischargePlan.from_obligations(iter_obligations(target, config))
        last = plan.units[-1].uid
        cancel = threading.Event()
        events = []

        def sink(event):
            events.append(event)
            if isinstance(event, ObligationDischarged) and event.unit == last:
                cancel.set()

        with pytest.raises(DischargeCancelled):
            verify_target(
                target, _config(config, cancel_event=cancel),
                cache=QueryCache(), on_event=sink,
            )
        exits = [e for e in events if isinstance(e, EarlyExit)]
        assert len(exits) == 1
        assert exits[0].reason == "cancelled"
        # Every unit ran: only the end-of-discharge check could see it.
        assert [e.unit for e in events if isinstance(e, UnitFinished)][-1] == last

    def test_cancel_mid_sweep_releases_single_flight(self):
        """Cancel a run midway through its plan.

        After the cancellation no single-flight acquisition may remain
        pending (a leaked flight deadlocks every later identical query),
        and the same shared cache must complete a fresh run.
        """
        target, config = _svt()
        plan = DischargePlan.from_obligations(iter_obligations(target, config))
        assert len(plan.units) > 2  # precondition: there is a "midway"

        cache = QueryCache()
        cancel = threading.Event()
        events = []

        def sink(event):
            events.append(event)
            discharged = sum(1 for e in events if isinstance(e, ObligationDischarged))
            if discharged >= 3:
                cancel.set()

        with pytest.raises(DischargeCancelled):
            verify_target(
                target,
                _config(config, cancel_event=cancel),
                cache=cache,
                on_event=sink,
            )

        # No leaked single-flight acquisitions ...
        assert cache.stats()["pending"] == 0
        # ... exactly one early-exit notification reached the stream ...
        exits = [e for e in events if isinstance(e, EarlyExit)]
        assert len(exits) == 1
        assert exits[0].reason == "cancelled"
        # ... and the run genuinely stopped early: not every obligation
        # received a verdict.
        verdicts = sum(1 for e in events if isinstance(e, ObligationDischarged))
        assert verdicts < len(plan.obligations)

        # The shared cache is still fully serviceable: a fresh run over
        # the same plan completes (a leaked flight would deadlock here).
        outcome = verify_target(target, config, cache=cache)
        assert outcome.verified is True
        assert cache.stats()["pending"] == 0

    def test_interrupt_mid_collection_drops_queued_units(self, monkeypatch):
        """KeyboardInterrupt in a unit must not run the rest of the plan,
        and must leave no single flight pending."""
        target, config = _svt()
        plan = DischargePlan.from_obligations(iter_obligations(target, config))
        assert len(plan.units) > 2

        calls = []
        original = DischargeEngine.discharge_unit

        def exploding(self, unit, *args, **kwargs):
            calls.append(unit.uid)
            raise KeyboardInterrupt

        monkeypatch.setattr(DischargeEngine, "discharge_unit", exploding)
        cache = QueryCache()
        with pytest.raises(KeyboardInterrupt):
            verify_target(target, config, cache=cache)
        # The first unit raised; the rest of the plan never started.
        assert len(calls) == 1
        assert cache.stats()["pending"] == 0

        monkeypatch.setattr(DischargeEngine, "discharge_unit", original)
        outcome = verify_target(target, config, cache=cache)
        assert outcome.verified is True


class TestPipelineCancellation:
    def test_cancelled_stage_releases_memo_flight(self):
        """A cancelled verify must not wedge the pipeline's stage memo."""
        spec = get("svt")
        config = spec_config(spec)
        pipe = Pipeline()
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(DischargeCancelled):
            pipe.run(spec.source, config=_config(config, cancel_event=cancel))
        assert pipe.memo_stats()["in_flight"] == 0

        # Same pipeline, same request, no cancellation: runs to completion
        # (a leaked flight would block forever waiting on itself).
        run = pipe.run(spec.source, config=config)
        assert run.verified is True
        # The cancelled attempt memoized nothing for the verify stage.
        assert run.stages["verify"].cached is False

    def test_cancel_event_not_part_of_memo_key(self):
        """Requests differing only in their cancel event share one memo
        entry — cancellation plumbing must not fork the cache."""
        spec = get("svt")
        config = spec_config(spec)
        pipe = Pipeline()
        first = pipe.run(spec.source, config=config)
        again = pipe.run(
            spec.source, config=_config(config, cancel_event=threading.Event())
        )
        assert first.stages["verify"].cached is False
        assert again.stages["verify"].cached is True


class TestOneShotBackendCancellation:
    def test_cancel_between_obligations_stops_the_unit(self):
        """OneShotBackend re-checks the cancel event before every member
        of a unit, not just at unit boundaries — a cancellation arriving
        mid-unit must stop after the in-flight obligation."""
        target, config = _svt()
        config = _config(config, incremental=False)
        plan = DischargePlan.from_obligations(iter_obligations(target, config))
        total = len(plan.obligations)
        assert total > 3

        cancel = threading.Event()
        events = []

        def sink(event):
            events.append(event)
            discharged = sum(1 for e in events if isinstance(e, ObligationDischarged))
            if discharged >= 2:
                cancel.set()

        with pytest.raises(DischargeCancelled):
            verify_target(
                target,
                _config(config, cancel_event=cancel),
                on_event=sink,
            )

        exits = [e for e in events if isinstance(e, EarlyExit)]
        assert len(exits) == 1
        assert exits[0].reason == "cancelled"
        verdicts = sum(1 for e in events if isinstance(e, ObligationDischarged))
        # Stopped promptly: at most one obligation past the trigger.
        assert 2 <= verdicts <= 3
        assert verdicts < total
