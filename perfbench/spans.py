"""An in-memory span tracer that times the verifier's layers from outside.

:class:`Tracer` wraps the public entry point of every layer (a module
function or a class method) with a timing shim, installed and removed at
run time; the program itself carries no instrumentation.  Each call
becomes a :class:`Span` with a name, a start, an end and a parent, and
every span opened while the benchmark runs one operation (a program, an
inference search, a request) carries that operation's id.

A layer's *busy* time is the duration of its outermost spans; its *self*
time is each span's duration minus the part its child spans cover.  Self
times of all layers partition the traced operations' wall time.

Counts come from the program's own counters where it has them
(``SolverProfile`` deltas around each ``SMTSolver.check``, ``StoreStats``
through lookup results, pipeline memo tallies) and from call counts
otherwise.  Counts taken inside ``verify_target`` are also kept apart
(``scoped``) so they can be compared with the counters that the same
calls' ``VerificationOutcome`` reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, span name).  The layer is the span name's
#: prefix before the first dot.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.lang.parser", "parse_function", "lang.parse"),
    ("repro.core.checker", "check_function", "core.check"),
    ("repro.ir.build", "ast_to_cfg", "ir.ast_to_cfg"),
    ("repro.ir.passes", "PassManager.run", "ir.passes"),
    ("repro.target.transform", "to_target", "target.lower"),
    ("repro.target.transform", "TargetProgram.optimized", "target.optimize"),
    ("repro.pipeline", "Pipeline.run", "pipeline.run"),
    ("repro.verify.verifier", "verify_target", "verify.verify_target"),
    ("repro.verify.vcgen", "VCGenerator.stream", "vcgen.next"),
    ("repro.verify.discharge", "DischargeEngine.discharge_unit", "discharge.unit"),
    ("repro.solver.context", "SolverContext.check_entailment", "context.entailment"),
    ("repro.solver.encode", "Encoder.boolean", "encode.boolean"),
    ("repro.solver.smt", "SMTSolver.check", "smt.check"),
    ("repro.solver.sat", "CDCLSolver.solve", "sat.solve"),
    ("repro.solver.simplex", "Simplex.check", "simplex.check"),
    ("repro.verify.store", "ObligationStore.lookup", "store.lookup"),
    ("repro.verify.store", "ObligationStore.record_many", "store.record"),
    ("repro.witness.validate", "validate", "witness.validate"),
    ("repro.automation.inference", "infer_annotations", "automation.search"),
    ("repro.verify.houdini", "infer_invariants", "houdini.run"),
    ("repro.serve.client", "ServeClient.__init__", "serve.connect"),
    ("repro.serve.client", "ServeClient.verify", "serve.verify"),
)

#: Every layer, in pipeline order; ``bench`` is the benchmark's own
#: per-operation root span.
LAYERS: Tuple[str, ...] = (
    "lang", "core", "ir", "target", "pipeline", "verify", "vcgen", "discharge",
    "context", "encode", "smt", "sat", "simplex", "store", "witness",
    "automation", "houdini", "serve",
)

#: SolverProfile fields read around each ``SMTSolver.check``.
PROFILE_FIELDS = (
    "rounds", "decisions", "propagations", "conflicts", "learned_clauses",
    "pivots", "bound_asserts", "theory_conflicts",
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "tid", "child_ns",
                 "outermost", "scoped")

    def __init__(self, name, layer, start, parent, op, tid, outermost, scoped):
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.tid = tid
        self.child_ns = 0
        self.outermost = outermost
        self.scoped = scoped

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.end - self.start - self.child_ns


class Tracer:
    """Spans and counts for one traced phase; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(int)
        self.scoped: Dict[str, float] = defaultdict(int)
        #: span name -> calls, all and inside ``verify_target``.
        self.calls: Dict[str, int] = defaultdict(int)
        self.scoped_calls: Dict[str, int] = defaultdict(int)
        #: Counters the outcomes of ``verify_target`` calls report.
        self.outcomes: Dict[str, int] = defaultdict(int)
        self.outcome_profiles = True
        #: op id -> label of the operation it ran.
        self.ops: Dict[int, str] = {}
        self.maxima: Dict[str, float] = defaultdict(int)
        #: Per-request samples on the serve path.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []
        self._next_op = 0
        self._ops_lock = threading.Lock()
        self._counts_lock = threading.Lock()

    # -- span stack --------------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.depth = defaultdict(int)
            self._local.op = -1
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        depth = self._local.depth
        parent = stack[-1] if stack else None
        span = Span(
            name,
            layer,
            time.perf_counter_ns(),
            parent,
            self._local.op,
            threading.get_ident(),
            depth[name] == 0,
            name == "verify.verify_target" or (parent is not None and parent.scoped),
        )
        depth[name] += 1
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        stack = self._local.stack
        stack.pop()
        self._local.depth[span.name] -= 1
        if span.parent is not None:
            span.parent.child_ns += span.end - span.start
        with self._counts_lock:  # serve traces from two client threads
            self.spans.append(span)
            self.calls[span.name] += 1
            if span.scoped:
                self.scoped_calls[span.name] += 1

    def count(self, span: Span, key: str, value: float = 1) -> None:
        with self._counts_lock:
            self.counts[key] += value
            if span.scoped:
                self.scoped[key] += value

    def operation(self, label: str) -> "_Operation":
        """Context manager: the root ``bench.op`` span of one operation."""
        return _Operation(self, label)

    # -- installing shims ----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            shim = self._shim(original, name)
            if owner is module:
                # A module function is also bound by name wherever it was
                # imported with ``from ... import``; rebind every alias.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro"):
                        for attr, value in list(vars(loaded).items()):
                            if value is original:
                                self._installed.append((loaded, attr, value))
                                setattr(loaded, attr, shim)
            else:
                self._installed.append((owner, parts[-1], original))
                setattr(owner, parts[-1], shim)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _shim(self, fn: Callable, name: str) -> Callable:
        layer = name.split(".", 1)[0]
        before, after = _HOOKS.get(name, (None, None))
        if name == "vcgen.next":
            return self._generator_shim(fn, name, layer)
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                # Direct recursion (Encoder.boolean) stays one span.
                return fn(*args, **kwargs)
            token = before(args) if before is not None else None
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(span)
                if after is not None:
                    after(tracer, span, token, args, None, err)
                raise
            tracer._close(span)
            if after is not None:
                after(tracer, span, token, args, result, None)
            return result

        return shim

    def _generator_shim(self, fn: Callable, name: str, layer: str) -> Callable:
        """Time each step of a generator, so lazily consumed obligation
        streams are charged to ``vcgen`` where the consumer pulls them."""
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = tracer._open(name, layer)
                try:
                    item = next(inner)
                except StopIteration as stop:
                    tracer._close(span)
                    return stop.value
                except BaseException:
                    tracer._close(span)
                    raise
                tracer._close(span)
                tracer.count(span, "vcgen.obligations")
                yield item

        return shim

    # -- summaries -------------------------------------------------------------------

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, busy seconds, self seconds and the longest span.

        Calls, busy time and the longest span count only spans with no
        ancestor in the same layer (``to_target`` may run the optimizer).
        """
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(
                span.layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "max_s": 0.0}
            )
            row["self_s"] += span.self_ns / 1e9
            parent = span.parent
            while parent is not None and parent.layer != span.layer:
                parent = parent.parent
            if parent is None:
                duration = span.duration_ns / 1e9
                row["calls"] += 1
                row["busy_s"] += duration
                row["max_s"] = max(row["max_s"], duration)
        return table

    def name_busy(self, name: str) -> float:
        return sum(s.duration_ns for s in self.spans if s.name == name and s.outermost) / 1e9

    def aggregates(self, passes: int) -> Dict[str, Any]:
        """Everything the per-layer metrics are computed from, as plain
        JSON-ready data for ``run.py``."""
        return {
            "passes": passes,
            "layers": self.layer_table(),
            "name_busy": {
                name: self.name_busy(name)
                for name in ("target.lower", "target.optimize", "store.lookup", "store.record")
            },
            "counts": dict(self.counts),
            "calls": dict(self.calls),
            "scoped": dict(self.scoped),
            "scoped_calls": dict(self.scoped_calls),
            "outcomes": dict(self.outcomes),
            "outcome_profiles": self.outcome_profiles,
            "maxima": dict(self.maxima),
            "smt_self_s": sum(s.self_ns for s in self.spans if s.name == "smt.check") / 1e9,
            "samples": {key: list(values) for key, values in self.samples.items()},
            "connect_s": [s.duration_ns / 1e9 for s in self.spans if s.name == "serve.connect"],
            "ops_wall_s": sum(s.duration_ns for s in self.spans if s.name == "bench.op") / 1e9,
            "longest": self.longest("smt.check") + self.longest("bench.op"),
        }

    def longest(self, name: str, limit: int = 5) -> List[Dict[str, Any]]:
        spans = sorted(
            (s for s in self.spans if s.name == name), key=lambda s: -s.duration_ns
        )[:limit]
        return [
            {"span": s.name, "seconds": s.duration_ns / 1e9, "op": self.ops.get(s.op, "")}
            for s in spans
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        """The spans as Chrome trace-event JSON (opens in Perfetto)."""
        base = min((s.start for s in self.spans), default=0)
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.tid, len(tids) + 1)
            events.append(
                {
                    "name": span.name,
                    "cat": span.layer,
                    "ph": "X",
                    "ts": (span.start - base) / 1000,
                    "dur": span.duration_ns / 1000,
                    "pid": 1,
                    "tid": tid,
                    "args": {"op": span.op, "program": self.ops.get(span.op, "")},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


class _Operation:
    def __init__(self, tracer: Tracer, label: str) -> None:
        self.tracer = tracer
        self.label = label

    def __enter__(self) -> Span:
        tracer = self.tracer
        tracer._stack()
        with tracer._ops_lock:
            op = tracer._next_op
            tracer._next_op += 1
            tracer.ops[op] = self.label
        tracer._local.op = op
        self.span = tracer._open("bench.op", "bench")
        return self.span

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.span)
        self.tracer._local.op = -1


# ---------------------------------------------------------------------------
# Per-entry-point hooks: ``before(args) -> token`` runs before the call,
# ``after(tracer, span, token, args, result, error)`` after it.
# ---------------------------------------------------------------------------


def _profile_before(args):
    profile = args[0].profile
    return tuple(getattr(profile, field) for field in PROFILE_FIELDS)


def _profile_after(tracer, span, token, args, result, error):
    profile = args[0].profile
    deltas = {
        field: getattr(profile, field) - before
        for field, before in zip(PROFILE_FIELDS, token)
    }
    for field, value in deltas.items():
        tracer.count(span, f"profile.{field}", value)
    tracer.maxima["smt.rounds_max"] = max(tracer.maxima["smt.rounds_max"], deltas["rounds"])


def _entailment_before(args):
    return args[0].stats.cache_hits


def _entailment_after(tracer, span, token, args, result, error):
    if args[0].stats.cache_hits > token:
        tracer.count(span, "context.cache_hits")


def _unit_before(args):
    return len(args[2])


def _unit_after(tracer, span, token, args, result, error):
    tracer.count(span, "discharge.refuted", len(args[2]) - token)


def _lookup_after(tracer, span, token, args, result, error):
    if result is not None:
        tracer.count(span, "store.hits")


def _record_after(tracer, span, token, args, result, error):
    if result:
        tracer.count(span, "store.writes", result)


def _validate_after(tracer, span, token, args, result, error):
    if error is not None:
        tracer.count(span, "witness.rejects")


def _check_after(tracer, span, token, args, result, error):
    if error is not None and type(error).__name__ == "ShadowDPTypeError":
        tracer.count(span, "core.check_rejects")


def _cfg_after(tracer, span, token, args, result, error):
    if result is not None:
        tracer.count(span, "ir.blocks", result.stats()["blocks"])


def _memo_before(args):
    pipe = args[0]
    return sum(pipe.cache_hits.values()), sum(pipe.cache_misses.values())


def _memo_after(tracer, span, token, args, result, error):
    pipe = args[0]
    tracer.count(span, "pipeline.memo_hits", sum(pipe.cache_hits.values()) - token[0])
    tracer.count(span, "pipeline.memo_misses", sum(pipe.cache_misses.values()) - token[1])


def _outcome_after(tracer, span, token, args, result, error):
    if result is None:
        return
    outcomes = tracer.outcomes
    outcomes["smt.check"] += result.solve_calls
    outcomes["context.entailment"] += result.solver_queries
    outcomes["vcgen.obligations"] += result.obligations_total
    outcomes["store.hits"] += (result.store or {}).get("hits", 0)
    if result.profile is None:
        tracer.outcome_profiles = False
    else:
        outcomes["sat.solve"] += result.profile["rounds"]
        outcomes["profile.pivots"] += result.profile["pivots"]


def _inference_after(tracer, span, token, args, result, error):
    if result is not None:
        tracer.count(span, "automation.candidates", result.candidates_tried)
        tracer.count(span, "automation.type_checked", result.type_checked)


def _houdini_after(tracer, span, token, args, result, error):
    if result is not None:
        tracer.count(span, "houdini.rounds", result.rounds)


def _serve_verify_after(tracer, span, token, args, result, error):
    from repro.serve import protocol

    if result is None:
        return
    roundtrip = span.duration_ns / 1e9
    server = sum(stage.get("seconds", 0.0) for stage in result.get("stages", ()))
    tracer.samples["roundtrip_s"].append(roundtrip)
    tracer.samples["server_s"].append(server)
    tracer.samples["wire_s"].append(roundtrip - server)
    tracer.samples["response_bytes"].append(len(protocol.encode_line(result)))


_HOOKS: Dict[str, Tuple[Optional[Callable], Optional[Callable]]] = {
    "smt.check": (_profile_before, _profile_after),
    "context.entailment": (_entailment_before, _entailment_after),
    "discharge.unit": (_unit_before, _unit_after),
    "store.lookup": (None, _lookup_after),
    "store.record": (None, _record_after),
    "witness.validate": (None, _validate_after),
    "core.check": (None, _check_after),
    "ir.ast_to_cfg": (None, _cfg_after),
    "pipeline.run": (_memo_before, _memo_after),
    "verify.verify_target": (None, _outcome_after),
    "automation.search": (None, _inference_after),
    "houdini.run": (None, _houdini_after),
    "serve.verify": (None, _serve_verify_after),
}
