"""The benchmark's workloads: what each one sets up, runs and checks.

Every workload exposes ``setup()`` (timed into ``setup_s``),
``operations()`` (the labelled operations of one pass), ``run_pass(rng,
tracer)`` (one pass in seeded order, one record per operation) and
``close()``.  An operation record is a dict with ``label``, ``seconds``
(time to verdict), ``ok`` (the verdict and its evidence matched
expectations), ``error`` (why not) and, where the program reports them,
``rounds`` and ``pivots``.

Inputs come from the registry in ``repro.algorithms``; the workload seed
only orders them.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms import TABLE1_ORDER, get, registry
from repro.pipeline import Pipeline, spec_config
from repro.verify.verifier import VerificationConfig

Record = Dict[str, Any]
#: An operation: returns (ok, error, extra fields for its record).
Body = Callable[[], Tuple[bool, Optional[str], Dict]]


def run_op(tracer, label: str, body: Body) -> Record:
    """Run and time one operation; exceptions count as failed operations."""
    start = time.perf_counter()
    try:
        if tracer is None:
            ok, error, extra = body()
        else:
            with tracer.operation(label):
                ok, error, extra = body()
    except Exception as err:  # a crash is a failed operation, not a dead run
        ok, error, extra = False, f"{type(err).__name__}: {err}", {}
    seconds = time.perf_counter() - start
    return {"label": label, "start": start, "seconds": seconds, "ok": ok, "error": error,
            **extra}


def _check_run(spec, run) -> Tuple[bool, Optional[str], Dict]:
    """A pipeline run's verdict must match the spec, and every
    refutation must carry a countermodel."""
    outcome = run.outcome
    extra = {
        "verified": outcome.verified,
        "rounds": (outcome.profile or {}).get("rounds"),
        "pivots": (outcome.profile or {}).get("pivots"),
        "solves": outcome.solve_calls,
    }
    if outcome.verified != spec.expect_verified:
        return False, f"verdict {outcome.verified}, expected {spec.expect_verified}", extra
    for failure in outcome.failures:
        if failure.arith_model is None and failure.bool_model is None:
            return False, f"refutation without a countermodel: {failure.describe()}", extra
    return True, None, extra


def shuffled(rng: random.Random, items: List) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


class Workload:
    #: Passes the measured worker runs at least, however long they take.
    min_passes = 1
    #: How many passes the traced worker runs (per-layer counts are per pass).
    traced_passes = 1

    def setup(self) -> None:
        pass

    def operations(self) -> List[Tuple[str, Body]]:
        """(label, body) per operation of a pass, in registry order."""
        raise NotImplementedError

    def run_pass(self, rng: random.Random, tracer) -> List[Record]:
        return [run_op(tracer, label, body) for label, body in shuffled(rng, self.operations())]

    def close(self) -> None:
        pass


class Table1(Workload):
    """Every Table-1 row in both regimes plus the buggy variants, each
    program through a fresh ``Pipeline`` as in a one-shot ``repro verify``.
    A pass takes 15-25 s; at least two passes give every program, the
    long pole (num_svt) included, two samples."""

    min_passes = 2

    def setup(self) -> None:
        self.programs = []
        for name, extra in TABLE1_ORDER:
            spec = get(name)
            suffix = "" if not extra else "_" + "_".join(f"{k}{v}" for k, v in extra.items())
            fixed = spec_config(spec)
            bindings = dict(fixed.bindings, **(extra or {}))
            self.programs.append(
                (f"{name}{suffix}/fix", spec,
                 dataclasses.replace(fixed, bindings=bindings, profile=True))
            )
            self.programs.append(
                (f"{name}{suffix}/rewrite", spec,
                 VerificationConfig(mode="invariant", bindings=dict(extra or {}),
                                    assumptions=spec.assumption_exprs(), profile=True))
            )
        for spec in registry.all_specs():
            if not spec.expect_verified:
                self.programs.append(
                    (f"{spec.name}/fix", spec,
                     dataclasses.replace(spec_config(spec), profile=True))
                )

    def operations(self):
        return [
            (label,
             lambda spec=spec, config=config:
                 _check_run(spec, Pipeline().run(spec.source, config=config)))
            for label, spec, config in self.programs
        ]


class Inference(Workload):
    """Annotation search on noisy_max and svt plus Houdini on noisy_max,
    with the configurations of ``benchmarks/bench_inference.py``."""

    min_passes = 2

    def setup(self) -> None:
        # Called through their modules, so a tracer's shims are seen.
        from repro.automation import inference
        from repro.lang import ast
        from repro.verify import houdini as houdini_mod

        def annotations(name, bindings, shadow, **kwargs):
            spec = get(name)
            config = VerificationConfig(
                mode="unroll", bindings=bindings, assumptions=spec.assumption_exprs(),
                unroll_limit=5, collect_models=False,
            )

            def body():
                result = inference.infer_annotations(spec.function(), config, **kwargs)
                extra = {"candidates": result.candidates_tried}
                if not result.found:
                    return False, "no annotation found", extra
                if shadow and not ast.selector_uses_shadow(result.annotations["eta"][0]):
                    return False, "noisy_max selector does not use the shadow", extra
                return True, None, extra

            return body

        def houdini():
            spec = get("noisy_max")
            config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
            result = houdini_mod.infer_invariants(spec.target(), config, peel=1)
            extra = {"rounds_houdini": result.rounds,
                     "solves": result.solver_stats.get("solve_calls")}
            if not result.outcome.verified:
                return False, "Houdini did not verify noisy_max", extra
            return True, None, extra

        self.ops = [
            ("noisy_max/annotations", annotations("noisy_max", {"size": 3}, True)),
            ("svt/annotations",
             annotations("svt", {"size": 3, "N": 1}, False, max_candidates=600)),
            ("noisy_max/houdini", houdini),
        ]

    def operations(self):
        return self.ops


class StoreWarm(Workload):
    """A registry sweep (without num_svt) served from a witnessed sqlite
    store that set-up populates; each sweep uses a fresh ``Pipeline``."""

    traced_passes = 5

    def __init__(self, workdir: str) -> None:
        self.path = os.path.join(workdir, f"store-{os.getpid()}.sqlite")

    def setup(self) -> None:
        self.specs = [s for s in registry.all_specs() if s.name != "num_svt"]
        self.configs = {
            spec.name: dataclasses.replace(
                spec_config(spec), store=self.path, witness=True, profile=True
            )
            for spec in self.specs
        }
        for spec in self.specs:
            run = Pipeline().run(spec.source, config=self.configs[spec.name])
            ok, error, _ = _check_run(spec, run)
            if not ok:
                raise RuntimeError(f"store populate: {spec.name}: {error}")
        # One untimed warm sweep, so one-time costs of the read path
        # (lazy imports, sqlite page cache) land in set-up.
        self.run_pass(random.Random(0), None)

    def operations(self):
        def body(spec, config):
            run = Pipeline().run(spec.source, config=config)
            ok, error, extra = _check_run(spec, run)
            store = run.outcome.store or {}
            if ok and run.outcome.solve_calls:
                ok, error = False, f"{run.outcome.solve_calls} verify-stage solves"
            if ok and store.get("witness_rejects"):
                ok, error = False, f"{store['witness_rejects']} witness rejects"
            return ok, error, extra

        return [
            (spec.name, lambda spec=spec: body(spec, self.configs[spec.name]))
            for spec in self.specs
        ]

    def close(self) -> None:
        for suffix in ("", "-journal", "-wal", "-shm"):
            if os.path.exists(self.path + suffix):
                os.remove(self.path + suffix)


#: The serve workload's request mix.
SERVE_SPECS = (
    "noisy_max", "svt", "laplace_mech", "above_threshold", "partial_sum",
    "prefix_sum", "bad_svt_no_budget",
)
#: One connection: with the daemon, two busy processes on a two-core host;
#: a second client connection would only measure the scheduler.
SERVE_CONNECTIONS = 1


class Serve(Workload):
    """A ``repro serve`` daemon in its own process, driven by a closed loop
    over ``SERVE_CONNECTIONS`` connections after a cold pass in set-up.

    A pass is one connection's sweep over the request mix in seeded
    order; ``run_timed`` runs passes on every connection until the
    deadline.
    """

    def __init__(self, workdir: str) -> None:
        # Unix socket paths are short: keep it relative to the checkout.
        self.socket = os.path.relpath(os.path.join(workdir, f"serve-{os.getpid()}.sock"))
        self.daemon: Optional[subprocess.Popen] = None
        self.expected: Dict[str, bool] = {}

    def setup(self) -> None:
        from repro.serve.client import ServeClient, ServeError

        if os.path.exists(self.socket):
            os.remove(self.socket)
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--quiet", "--socket", self.socket],
            stdin=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while True:
            if self.daemon.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.daemon.returncode}")
            try:
                client = ServeClient(socket_path=self.socket, retries=0)
                break
            except ServeError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)
        with client:
            for name in SERVE_SPECS:
                result = client.verify(spec=name)
                self.expected[name] = result["outcome"]["verified"]

    def run_timed(self, rng: random.Random, tracer, seconds: float):
        """Closed loop on every connection until ``seconds`` pass; returns
        (per-connection passes, phase wall seconds)."""
        from repro.serve.client import ServeClient

        seeds = [rng.randrange(2**32) for _ in range(SERVE_CONNECTIONS)]
        passes: List[List[Tuple[float, List[Record]]]] = [[] for _ in seeds]
        errors: List[BaseException] = []
        barrier = threading.Barrier(SERVE_CONNECTIONS + 1)
        clients = [ServeClient(socket_path=self.socket) for _ in seeds]

        def loop(slot: int) -> None:
            local = random.Random(seeds[slot])
            client = clients[slot]
            try:
                barrier.wait()
                deadline = time.perf_counter() + seconds
                while time.perf_counter() < deadline:
                    start = time.perf_counter()
                    records = [
                        run_op(tracer, name, lambda name=name: self._request(client, name))
                        for name in shuffled(local, SERVE_SPECS)
                    ]
                    passes[slot].append((time.perf_counter() - start, records))
            except BaseException as err:  # reported by the caller
                errors.append(err)
                barrier.abort()

        threads = [threading.Thread(target=loop, args=(slot,)) for slot in range(len(seeds))]
        for thread in threads:
            thread.start()
        barrier.wait()
        start = time.perf_counter()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        for client in clients:
            client.close()
        if errors:
            raise errors[0]
        return passes, wall

    def _request(self, client, name: str):
        result = client.verify(spec=name)
        verified = result["outcome"]["verified"]
        extra = {"verified": verified, "cached": result.get("cached")}
        if verified != self.expected[name]:
            return False, f"verdict {verified} differs from the cold pass", extra
        return True, None, extra

    def check_in_process(self) -> List[str]:
        """Names whose served verdict differs from an in-process run."""
        return [
            name for name in SERVE_SPECS
            if Pipeline().run(get(name).source, config=spec_config(get(name))).verified
            != self.expected[name]
        ]

    def peak_rss_mb(self) -> Optional[float]:
        """The daemon's peak resident memory, read before it stops."""
        try:
            with open(f"/proc/{self.daemon.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024
        except OSError:
            return None
        return None

    def close(self) -> None:
        from repro.serve.client import ServeClient, ServeError

        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None:
                with ServeClient(socket_path=self.socket, retries=0) as client:
                    client.shutdown()
                self.daemon.wait(timeout=20)
        except (ServeError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.daemon.poll() is None:
                self.daemon.kill()
                self.daemon.wait()
            if os.path.exists(self.socket):
                os.remove(self.socket)


def make(name: str, workdir: str) -> Workload:
    if name == "table1":
        return Table1()
    if name == "inference":
        return Inference()
    if name == "store-warm":
        return StoreWarm(workdir)
    if name == "serve":
        return Serve(workdir)
    raise ValueError(f"unknown workload {name!r}")

