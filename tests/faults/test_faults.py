"""The fault-plan grammar, firing semantics and process-wide installation."""

import pytest

from repro import faults
from repro.faults import FaultPlan, FaultPlanError, InjectedFault


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.install(None)
    faults.reset()


class TestGrammar:
    def test_whitespace_and_empty_parts_tolerated(self):
        plan = FaultPlan(" store-poison@1 , , store-busy@3 ")
        assert len(plan.directives) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus@1",                 # unknown site
            "worker-kill@1",           # retired sites fail loudly
            "solve-fail@1",
            "solve-delay@1:0.5",
            "store-busy",              # missing @KEY
            "store-busy@x",            # non-integer key
            "store-busy@-1",           # negative key
            "store-poison@0",          # occurrence keys are 1-based
            "store-poison@*",          # occurrence sites reject '*'
            "serve-drop@*",
            "store-busy@1:boom",       # sites take no argument
            "",                        # empty plan
            " , ,",
        ],
    )
    def test_bad_specs_fail_loudly(self, spec):
        with pytest.raises(FaultPlanError):
            FaultPlan(spec)


class TestFiring:
    def test_occurrence_sites_fire_on_the_nth_call_only(self):
        plan = FaultPlan("store-busy@2")
        assert plan.store_busy() is False
        assert plan.store_busy() is True
        assert plan.store_busy() is False
        assert plan.snapshot() == [("store-busy", "2")]

    def test_occurrence_counters_are_per_site(self):
        plan = FaultPlan("store-poison@1,store-busy@1")
        assert plan.store_busy() is True
        assert plan.store_poison() is True  # own counter, unaffected

    def test_serve_drop_fires_at_most_once(self):
        plan = FaultPlan("serve-drop@3")
        assert plan.drop_connection(2) is False
        assert plan.drop_connection(3) is True
        # A retried connection reaching frame 3 survives.
        assert plan.drop_connection(3) is False

    def test_trail_records_typed_faults(self):
        plan = FaultPlan("witness-corrupt@2")
        plan.witness_corrupt()
        plan.witness_corrupt()
        (fault,) = plan.trail
        assert isinstance(fault, InjectedFault)
        assert fault.site == "witness-corrupt" and fault.key == "2"
        assert fault.describe() == "witness-corrupt@2"


class TestInstallation:
    def test_active_is_none_when_nothing_installed(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV_VAR, raising=False)
        faults.reset()
        assert faults.active() is None
        assert faults.active() is None  # cached, no re-read

    def test_install_and_clear(self):
        plan = faults.install("store-busy@1")
        assert faults.active() is plan
        faults.install(None)
        assert faults.active() is None

    def test_install_accepts_a_plan_object(self):
        plan = FaultPlan("store-busy@1")
        assert faults.install(plan) is plan
        assert faults.active() is plan

    def test_env_var_is_read_lazily_once(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "serve-drop@5")
        faults.reset()
        plan = faults.active()
        assert plan is not None
        assert plan.directives[0].site == "serve-drop"
        # Later env changes are invisible until the next reset().
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "store-busy@1")
        assert faults.active() is plan

    def test_bad_env_plan_raises(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV_VAR, "nope@1")
        faults.reset()
        with pytest.raises(FaultPlanError):
            faults.active()
