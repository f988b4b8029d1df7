"""Tests for the first-class obligation & discharge API.

Covers: stable content-derived obligation ids (with snapshots pinned
over registry programs), provenance records, discharge-plan
partitioning, agreement with a per-obligation reference (identical
verdicts, failing obligations and obligation ids across the registry
in both regimes), the single-flight query cache shared by concurrent serve requests, the
typed event stream, fail-fast early exit, and the constant-guard
folding pass.
"""

import threading

import pytest

from repro.algorithms import all_specs, get
from repro.ir import ast_to_cfg, fold_constant_guards
from repro.lang.parser import parse_command
from repro.pipeline import spec_config
from repro.solver.context import CacheEntry, QueryCache
from repro.solver.interface import ValidityChecker
from repro.verify.discharge import (
    DischargePlan,
    EarlyExit,
    ObligationDischarged,
    ObligationRefuted,
    PlanProgress,
    UnitFinished,
    UnitStarted,
    event_kind,
)
from repro.verify.vcgen import VCGenerator
from repro.verify.verifier import (
    VerificationConfig,
    iter_obligations,
    prepare_generator,
    verify_target,
)


def _gen(source, **kwargs):
    gen = VCGenerator(**kwargs)
    gen.run(parse_command(source))
    return gen


# ---------------------------------------------------------------------------
# Obligation ids and provenance
# ---------------------------------------------------------------------------


class TestObligationIds:
    def test_id_is_content_derived(self):
        # Two independent walks of the same program produce the same ids.
        source = "havoc x; assert(x > 0); assert(x > 1);"
        first = [ob.oid for ob in _gen(source).obligations]
        second = [ob.oid for ob in _gen(source).obligations]
        assert first == second
        assert len(set(first)) == 2

    def test_id_depends_on_path_and_tag(self):
        gen = _gen("havoc c; if (c > 0) { assert(c > 1); } else { assert(c > 1); }")
        a, b = gen.obligations
        assert a.goal == b.goal
        assert a.oid != b.oid  # different arms → different paths → ids

    def test_provenance_excluded_from_equality(self):
        gen = _gen("havoc x; assert(x > 0);")
        (ob,) = gen.obligations
        clone = type(ob)(ob.goal, ob.path, ob.tag, ob.label, None)
        assert clone == ob
        assert clone.oid == ob.oid

    #: Snapshots over registry programs: these ids are the public,
    #: addressable names of the obligations — they must not drift across
    #: refactors unless the obligation *content* genuinely changes.
    SVT_IDS = [
        "0e731a3fb668", "914a39d3850c", "db8d081c859f", "0cbea8d8401c",
        "5994d24c5325", "3cb2162a17c5", "e75b8cdfb34f", "da8dfd13c52d",
        "cebbef82dadd", "55104f0cae03", "2414fc1a8106", "d0534fc2daf0",
    ]
    NOISY_MAX_ID_PREFIX = ["31de48f803cc", "6c9444e238e1", "629f8f9c1a8b"]

    def test_svt_id_snapshot(self):
        spec = get("svt")
        obs = list(iter_obligations(spec.target(), spec_config(spec)))
        assert [ob.oid for ob in obs] == self.SVT_IDS

    def test_noisy_max_id_snapshot(self):
        spec = get("noisy_max")
        obs = list(iter_obligations(spec.target(), spec_config(spec)))
        assert [ob.oid for ob in obs][:3] == self.NOISY_MAX_ID_PREFIX


class TestProvenance:
    def test_straight_line_provenance(self):
        gen = _gen("havoc x; assert(x > 0);")
        (ob,) = gen.obligations
        assert ob.provenance is not None
        assert ob.provenance.region == "fn"
        assert ob.provenance.statement == "assert(x > 0);"
        assert ob.provenance.path_depth == 0
        assert ob.provenance.iteration is None

    def test_loop_provenance_carries_iteration(self):
        gen = _gen(
            "i := 0; havoc t; while (i < 2) { assert(t > i); i := i + 1; }",
            unroll_limit=4,
        )
        iterations = [ob.provenance.iteration for ob in gen.obligations]
        assert iterations == [1, 2]
        assert all("loop@b" in ob.provenance.region for ob in gen.obligations)

    def test_invariant_provenance_names_loop_head(self):
        gen = _gen(
            "x := 1; while (x < 5) invariant x >= 1; { x := x + 1; }",
            use_invariants=True,
        )
        tags = {(ob.tag, ob.provenance.loop_head is not None) for ob in gen.obligations}
        assert tags == {("invariant-preserved", True)}

    def test_stream_yields_incrementally(self):
        gen = VCGenerator()
        stream = gen.stream(parse_command("havoc x; assert(x > 0); assert(x > 1);"))
        first = next(stream)
        # The first obligation arrives before the walk has finished.
        assert first.tag == "assert"
        assert gen.final_state is None
        rest = list(stream)
        assert len(rest) == 1
        assert gen.final_state is not None


# ---------------------------------------------------------------------------
# The discharge plan
# ---------------------------------------------------------------------------


class TestDischargePlan:
    def test_chain_grouping(self):
        # Obligations whose paths extend the chain's base share a unit;
        # the else-arm (diverging from the then-arm base) and the
        # post-merge assert (shorter path) each reset the chain.
        gen = _gen(
            "havoc d;"
            "if (d > 0) { assert(d > 1); assert(d > 2); } else { assert(d < 1); }"
            "assert(d < 99);"
        )
        plan = DischargePlan.from_obligations(gen.obligations)
        sizes = [len(unit.members) for unit in plan.units]
        assert sum(sizes) == len(gen.obligations)
        assert sizes == [2, 1, 1]
        # Suffixes are relative to the unit base.
        first = plan.units[0]
        assert first.members[0][2] == ()

    def test_units_are_deterministic_and_indexed(self):
        spec = get("svt")
        obs = list(iter_obligations(spec.target(), spec_config(spec)))
        plan_a = DischargePlan.from_obligations(obs)
        plan_b = DischargePlan.from_obligations(obs)
        assert [u.uid for u in plan_a.units] == [u.uid for u in plan_b.units]
        assert [u.index for u in plan_a.units] == list(range(len(plan_a.units)))

    def test_stream_units_is_incremental(self):
        gen = _gen("havoc c; if (c > 0) { assert(c > 1); } else { assert(c < 1); }")
        units = DischargePlan.stream_units(iter(gen.obligations))
        first = next(units)
        assert first.index == 0
        assert len(list(units)) == 1

    def test_plan_to_dict_lists_units_and_provenance(self):
        spec = get("svt")
        plan = DischargePlan.from_obligations(
            iter_obligations(spec.target(), spec_config(spec))
        )
        data = plan.to_dict()
        assert len(data["obligations"]) == sum(
            len(u["obligations"]) for u in data["units"]
        )
        assert all("provenance" in ob for ob in data["obligations"])


# ---------------------------------------------------------------------------
# Agreement with a per-obligation reference
# ---------------------------------------------------------------------------


def _verdicts(outcome):
    return (
        outcome.verified,
        sorted(f.obligation.oid for f in outcome.failures),
        outcome.oids,
    )


def _reference(target, config):
    """``_verdicts`` computed with one query per streamed obligation.

    No units, no conjoined goals, no shared solver context: each goal is
    asked once, on its own, under its full premise list.
    """
    _, checker = prepare_generator(target, config)
    validity = ValidityChecker()
    oids, failing = [], []
    for obligation in iter_obligations(target, config):
        oids.append(obligation.oid)
        valid, _ = validity.entailment(obligation.goal, checker.premises_for(obligation))
        if not valid:
            failing.append(obligation.oid)
    return (not failing, sorted(failing), oids)


class TestReferenceAgreement:
    """Unit discharge agrees with the per-obligation reference on
    verdicts, failing obligations and obligation ids over the registry,
    and a query cache handed to ``verify_target`` spans runs."""

    @staticmethod
    def _agree(target, config):
        outcome = verify_target(target, config)
        assert _verdicts(outcome) == _reference(target, config)
        return outcome

    @pytest.mark.parametrize("name", [s.name for s in all_specs(include_buggy=False)])
    def test_invariant_regime_full_registry(self, name):
        spec = get(name)
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        assert self._agree(spec.target(), config).verified

    @pytest.mark.parametrize("name", ["svt", "bad_svt_no_budget"])
    def test_unroll_regime(self, name):
        spec = get(name)
        bindings = dict(spec.fixed_bindings)
        bindings["size"] = 3
        config = VerificationConfig(
            mode="unroll",
            bindings=bindings,
            assumptions=spec.assumption_exprs(),
            unroll_limit=16,
        )
        assert self._agree(spec.target(), config).verified == (name == "svt")

    def test_registry_agrees_with_reference(self):
        """Every registry row in its Table-1 regime, buggy ones included."""
        for spec in all_specs():
            outcome = self._agree(spec.target(), spec_config(spec))
            assert outcome.verified == spec.expect_verified, spec.name
            # Each refutation carries the countermodel of the solve
            # that refuted it: no solve beyond the questions asked.
            assert all(f.arith_model is not None for f in outcome.failures), spec.name
            assert outcome.solve_calls <= outcome.solver_queries, spec.name

    def test_query_cache_spans_runs(self):
        spec = get("svt")
        config = spec_config(spec)
        cache = QueryCache()
        first = verify_target(spec.target(), config, cache=cache)
        second = verify_target(spec.target(), config, cache=cache)
        assert first.verified and second.verified
        assert first.solve_calls > 0
        # Every query of the second run is answered from the first run's
        # cache: same questions, zero new solves.
        assert second.solve_calls == 0
        assert second.cache_hits == second.solver_queries


# ---------------------------------------------------------------------------
# Single-flight cache: shared by serve's concurrent requests
# ---------------------------------------------------------------------------


class TestSingleFlightCache:
    def test_acquire_counts_like_lookup_when_uncontended(self):
        cache = QueryCache()
        assert cache.acquire("k") is None
        cache.store("k", CacheEntry(valid=True, status="unsat"))
        assert cache.acquire("k").valid
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_concurrent_identical_queries_solve_once(self):
        cache = QueryCache()
        solves = []
        barrier = threading.Barrier(4)

        def worker():
            barrier.wait()
            entry = cache.acquire("key")
            if entry is None:
                solves.append(1)  # we own the flight: "solve" slowly
                threading.Event().wait(0.01)
                cache.store("key", CacheEntry(valid=True, status="unsat"))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(solves) == 1
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 3

    def test_cancel_hands_flight_to_waiter(self):
        cache = QueryCache()
        assert cache.acquire("k") is None
        handed_over = []

        def waiter():
            handed_over.append(cache.acquire("k"))

        thread = threading.Thread(target=waiter)
        thread.start()
        cache.cancel("k")
        thread.join()
        # The waiter became the new flight owner (miss, not a hit).
        assert handed_over == [None]
        assert cache.stats()["misses"] == 2
        cache.cancel("k")


# ---------------------------------------------------------------------------
# Events and fail-fast
# ---------------------------------------------------------------------------


class TestEventStream:
    def test_serial_event_stream_is_consistent(self):
        spec = get("svt")
        events = []
        outcome = verify_target(spec.target(), spec_config(spec), on_event=events.append)
        assert outcome.verified
        started = [e for e in events if isinstance(e, UnitStarted)]
        finished = [e for e in events if isinstance(e, UnitFinished)]
        discharged = [e for e in events if isinstance(e, ObligationDischarged)]
        assert len(started) == len(finished) == outcome.units
        assert len(discharged) == outcome.obligations_total
        assert not [e for e in events if isinstance(e, ObligationRefuted)]
        # Per-unit stats sum to the outcome's deterministic totals.
        assert sum(e.stats["solve_calls"] for e in finished) == outcome.solve_calls
        assert sum(e.stats["queries"] for e in finished) == outcome.solver_queries
        plans = [e for e in events if isinstance(e, PlanProgress)]
        assert [e.unit for e in plans] == [e.unit for e in started]

    def test_refutation_events_carry_counterexamples(self):
        spec = get("bad_svt_no_budget")
        events = []
        outcome = verify_target(spec.target(), spec_config(spec), on_event=events.append)
        refuted = [e for e in events if isinstance(e, ObligationRefuted)]
        assert not outcome.verified
        assert {e.oid for e in refuted} == {f.obligation.oid for f in outcome.failures}
        assert all(e.counterexample for e in refuted)

    def test_event_kind_names(self):
        assert event_kind(UnitStarted("u0", 1)) == "unit-started"
        assert event_kind(ObligationRefuted("u0", "x", "assert")) == "obligation-refuted"

    def test_fail_fast_stops_early(self):
        # This variant's first refutation lands in unit 0 of 4, so a
        # fail-fast run must leave later units undischarged.
        spec = get("bad_svt_leaks_value")
        config = spec_config(spec)
        full = verify_target(spec.target(), config)
        events = []
        fast = verify_target(
            spec.target(),
            VerificationConfig(
                mode=config.mode,
                bindings=config.bindings,
                assumptions=config.assumptions,
                unroll_limit=config.unroll_limit,
                fail_fast=True,
            ),
            on_event=events.append,
        )
        assert not fast.verified
        assert fast.early_exit
        assert fast.units < full.units
        assert any(isinstance(e, EarlyExit) for e in events)
        # The refutations it did find agree with the full run's.
        fast_ids = {f.obligation.oid for f in fast.failures}
        full_ids = {f.obligation.oid for f in full.failures}
        assert fast_ids <= full_ids and fast_ids


# ---------------------------------------------------------------------------
# Constant-guard folding
# ---------------------------------------------------------------------------


class TestConstantGuardFolding:
    def test_true_branch_folds_to_then_arm(self):
        cfg = ast_to_cfg(parse_command("if (1 > 0) { x := 1; } else { x := 2; }"))
        folded = fold_constant_guards(cfg)
        from repro.ir.cfg import Branch

        assert not any(
            isinstance(b.term, Branch) for _, b in folded.walk_blocks()
        )

    def test_false_loop_removed_only_when_folding_loops(self):
        cfg = ast_to_cfg(parse_command("while (1 < 0) { x := 1; }"))
        from repro.ir.cfg import LoopHeader

        kept = fold_constant_guards(cfg, fold_loops=False)
        assert any(isinstance(b.term, LoopHeader) for _, b in kept.walk_blocks())
        dropped = fold_constant_guards(cfg, fold_loops=True)
        assert not any(isinstance(b.term, LoopHeader) for _, b in dropped.walk_blocks())

    def test_folding_preserves_obligation_stream(self):
        source = (
            "havoc x; if (1 > 0) { assert(x > 0); } else { assert(x > 9); }"
            "while (1 < 0) { assert(x > 5); } assert(x > 1);"
        )
        plain = _gen(source).obligations
        gen = VCGenerator()
        gen.run(fold_constant_guards(ast_to_cfg(parse_command(source)), fold_loops=True))
        assert [ob.oid for ob in gen.obligations] == [ob.oid for ob in plain]
        assert [ob.oid for ob in plain] == [
            ob.oid for ob in _gen(source).obligations
        ]

    def test_symbolic_guards_untouched(self):
        cfg = ast_to_cfg(parse_command("havoc c; if (c > 0) { x := 1; }"))
        folded = fold_constant_guards(cfg)
        from repro.ir.cfg import Branch

        assert any(isinstance(b.term, Branch) for _, b in folded.walk_blocks())
