"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``check FILE``
    Type check an annotated ShadowDP source file.
``ir FILE``
    Type check and dump the checked body's basic-block CFG (the
    ``lower_ir`` stage artifact): blocks, edges, loop headers with
    their invariant annotations, and graph statistics.
``transform FILE``
    Type check and print the transformed target program.
``verify FILE [--mode unroll|invariant] [--bind name=value ...]``
    Run the full pipeline and report the verification outcome.
``obligations FILE [--json]``
    List the program's proof obligations — stable content-derived ids,
    CFG provenance (region/block/iteration), path-condition depth and
    the discharge-plan unit each belongs to — *without* solving
    anything.
``pipeline FILE [FILE ...] [--stage STAGE] [--json]``
    Run the staged pipeline, reporting per-stage timings, solver-query
    counts and cache hits; with several files the stages share one
    memoization cache and one solver query cache (``Pipeline.run_many``).

Solver flags (``verify`` and ``pipeline``): ``--store PATH`` enables the
persistent obligation store (``REPRO_STORE`` env sets a default), so
verdicts are reused across runs by content id, ``--no-incremental``
disables push/pop context reuse (one-shot solver per query),
``--fail-fast`` stops discharging at the first refutation,
``--progress`` streams discharge events (units started/finished,
obligations discharged/refuted) as they happen, ``--solver-stats``
prints query/cache/solve-call counters after the verdict, and
``--profile`` additionally reports the inner-loop solver profile (SAT
decisions/propagations/conflicts/restarts, simplex pivots,
interned-node hits), and ``--witness`` emits a self-contained proof
certificate (Farkas coefficients + DRUP-style clause trail) for every
valid obligation, persisted alongside the verdict when a store is
active.
``cache ACTION``
    Inspect or maintain the persistent obligation store: ``stats``,
    ``gc`` (``--max-age-days`` / ``--max-entries``), ``clear``,
    ``path``.
``witness ACTION``
    Proof-certificate tooling: ``show FILE`` verifies with witnesses
    on and summarizes each obligation's certificate as it would be
    stored (``--oid`` dumps that certificate's canonical JSON), so the
    two describe one object; ``check FILE`` re-validates a
    certificate file with the trusted kernel alone (exit 1 on
    rejection), ``sweep`` re-validates every stored certificate for the
    registry — zero solver calls; ``--populate`` verifies first.
``run FILE [--input name=value ...] [--seed N]``
    Execute the source program with real Laplace noise.
``table1``
    Regenerate the paper's Table 1 (see also benchmarks/).
``serve [--socket PATH] [--port N] [--warm] [--max-concurrent N]``
    Run the long-lived verification service: one warm pipeline (stage
    memo + solver query cache) shared across requests, discharge events
    streamed to clients, graceful drain on SIGTERM/Ctrl-C.  ``--warm``
    preloads the full registry sweep before accepting connections.
``client [--socket PATH | --port N] ACTION``
    Talk to a running server: ``status`` (cache stats, uptime,
    counters), ``verify`` (``--spec NAME`` or ``--file FILE``),
    ``sweep`` (the whole registry), ``witness`` (``--oid ID`` fetches a
    stored certificate and re-validates it server-side; ``--full``
    ships the canonical JSON), ``ping``, ``shutdown``.

``repro --version`` prints the package version and the serve-protocol
revision (the server embeds both in its handshake and status reply).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from repro.core.errors import ShadowDPError
from repro.lang.parser import ParseError, parse_expr
from repro.lang.pretty import pretty_command
from repro.pipeline import STAGES, Pipeline
from repro.verify.verifier import VerificationConfig


def _read_source(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _parse_bindings(pairs):
    bindings = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        try:
            if not (name and sep):
                raise ValueError(pair)
            bindings[name] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SystemExit(
                f"error: --bind expects NAME=VALUE with a rational VALUE, got {pair!r}"
            )
    return bindings


#: Single source of truth for the verification flags: argparse reads the
#: defaults from here and ``_config_from_args`` falls back to the same
#: values, so the two can never drift.
_VERIFICATION_FLAG_DEFAULTS = {
    "mode": "unroll",
    "unroll": 32,
    "store": None,
    "no_incremental": False,
    "fail_fast": False,
    "progress": False,
    "solver_stats": False,
    "profile": False,
    "faults": None,
    "witness": False,
}


def _flag_default(args, name: str):
    return getattr(args, name, _VERIFICATION_FLAG_DEFAULTS[name])


def _store_from_args(args):
    """The persistent-store path: ``--store`` wins, then ``REPRO_STORE``."""
    from repro.verify.store import STORE_ENV_VAR

    store = _flag_default(args, "store")
    if store is None:
        store = os.environ.get(STORE_ENV_VAR) or None
    return store


def _config_from_args(args) -> VerificationConfig:
    return VerificationConfig(
        mode=_flag_default(args, "mode"),
        bindings=_parse_bindings(getattr(args, "bind", None)),
        assumptions=tuple(parse_expr(a) for a in (getattr(args, "assume", None) or ())),
        unroll_limit=_flag_default(args, "unroll"),
        incremental=not _flag_default(args, "no_incremental"),
        fail_fast=_flag_default(args, "fail_fast"),
        profile=_flag_default(args, "profile"),
        store=_store_from_args(args),
        witness=_flag_default(args, "witness"),
    )


def _progress_sink(args):
    """An event printer for ``--progress``, or None when not asked for."""
    from repro.verify.discharge import (
        EarlyExit,
        ObligationDischarged,
        ObligationRefuted,
        RoundFinished,
        UnitFinished,
        UnitStarted,
    )

    if not _flag_default(args, "progress"):
        return None

    def emit(event) -> None:
        if isinstance(event, UnitStarted):
            print(f"  [{event.unit}] started ({event.obligations} obligations)")
        elif isinstance(event, ObligationDischarged):
            note = " (cached)" if event.cached else ""
            print(f"  [{event.unit}] ok {event.oid} {event.tag}{note}")
        elif isinstance(event, ObligationRefuted):
            print(f"  [{event.unit}] REFUTED {event.oid} {event.tag}")
            if event.counterexample:
                print(f"      {event.counterexample}")
        elif isinstance(event, UnitFinished):
            stats = event.stats
            print(
                f"  [{event.unit}] finished in {event.seconds:.3f}s "
                f"({stats['solve_calls']} solves, {stats['cache_hits']} cache hits)"
            )
        elif isinstance(event, EarlyExit):
            print(f"  [{event.unit}] early exit: {event.reason}")
        elif isinstance(event, RoundFinished):
            print(
                f"  [houdini] round {event.round}: pruned {event.pruned}, "
                f"{event.surviving} surviving"
            )

    return emit


def _print_solver_stats(stats, indent: str = "") -> None:
    print(
        f"{indent}solver: {stats['queries']} queries, "
        f"{stats['cache_hits']} cache hits, {stats['solve_calls']} solves, "
        f"{stats['pushes']} pushes/{stats['pops']} pops, "
        f"backend={stats.get('backend', 'serial')} "
        f"({stats.get('units', 0)} units)"
    )
    if stats.get("witnesses") is not None:
        print(f"{indent}witnesses: {stats['witnesses']} certificates collected")
    store = stats.get("store")
    if store is not None:
        degraded = " [DEGRADED: memory-only]" if store.get("degraded") else ""
        busy = (
            f", {store['busy_retries']} busy retries"
            if store.get("busy_retries")
            else ""
        )
        witnessed = ""
        if store.get("validated_hits") or store.get("witness_rejects"):
            witnessed = (
                f", {store.get('validated_hits', 0)} validated hits"
                f", {store.get('witness_rejects', 0)} witness rejects"
            )
        print(
            f"{indent}store: {store['hits']} hits, {store['misses']} misses, "
            f"{store['writes']} writes, {store['invalid']} invalid "
            f"({store.get('entries', 0)} entries on disk){busy}{witnessed}{degraded}"
        )


def _print_check_stats(result, indent: str = "") -> None:
    """The ``check`` stage's solver line, when the stage ran this time."""
    stats = result.solver_stats if result is not None else None
    if stats is None:
        return
    line = (
        f"{indent}check: {stats['queries']} queries, {stats['cache_hits']} cache hits, "
        f"{stats['solve_calls']} solves"
    )
    if "certificates" in stats:
        line += f", {stats['certificates']} certificates"
    store = stats.get("store")
    if store is not None:
        line += (
            f"; store: {store['hits']} hits, {store['misses']} misses, "
            f"{store['writes']} writes, {store['validated_hits']} validated hits, "
            f"{store['witness_rejects']} witness rejects"
        )
    print(line)


def _print_profile(profile, indent: str = "") -> None:
    """Render the inner-loop SolverProfile counters, grouped by layer."""
    groups = (
        ("sat", ("decisions", "propagations", "conflicts", "restarts",
                 "learned_clauses", "deleted_clauses")),
        ("theory", ("pivots", "bound_asserts", "theory_conflicts")),
        ("terms", ("intern_hits", "intern_misses")),
        ("loop", ("solve_calls", "rounds")),
    )
    for label, names in groups:
        rendered = ", ".join(f"{name}={profile.get(name, 0)}" for name in names)
        print(f"{indent}profile[{label}]: {rendered}")


def cmd_check(args) -> int:
    run = Pipeline().run(_read_source(args.file), stop_after="check")
    checked = run.checked
    mode = "aligned-only (LightDP fragment)" if checked.aligned_only else "shadow execution"
    print(
        f"{run.name}: type checks [{mode}; {checked.solver_queries} solver queries, "
        f"{checked.solve_calls} solves]"
    )
    return 0


def cmd_ir(args) -> int:
    from repro.ir import cfg as ir_cfg

    run = Pipeline().run(_read_source(args.file), stop_after="lower_ir")
    ir = run.ir
    stats = ir.stats()
    print(
        f"{run.name}: {stats['blocks']} blocks, {stats['edges']} edges, "
        f"{stats['loops']} loops"
    )
    print(ir_cfg.dump(ir.cfg))
    return 0


def cmd_transform(args) -> int:
    run = Pipeline().run(_read_source(args.file), stop_after="optimize")
    print(pretty_command(run.target.body))
    return 0


def cmd_obligations(args) -> int:
    from repro.verify.discharge import DischargePlan
    from repro.verify.verifier import iter_obligations

    run = Pipeline().run(_read_source(args.file), stop_after="optimize")
    config = _config_from_args(args)
    plan = DischargePlan.from_obligations(iter_obligations(run.target, config))
    if args.json:
        data = plan.to_dict()
        data["name"] = run.name
        data["mode"] = config.mode
        print(json.dumps(data, indent=2))
        return 0
    obligations = plan.obligations
    print(
        f"{run.name}: {len(obligations)} obligations in {len(plan.units)} "
        f"discharge units [mode={config.mode}]"
    )
    for unit in plan.units:
        print(f"  {unit.uid}  (base depth {len(unit.base)})")
        for _, obligation, _ in unit.members:
            provenance = obligation.provenance
            where = provenance.describe() if provenance is not None else "?"
            print(
                f"    {obligation.oid}  {obligation.tag:<20s} {where:<28s} "
                f"depth {provenance.path_depth if provenance else '?'}"
            )
            print(f"        {obligation.describe()}")
    return 0


def cmd_verify(args) -> int:
    run = Pipeline(config=_config_from_args(args)).run(
        _read_source(args.file), on_event=_progress_sink(args)
    )
    outcome = run.outcome
    print(outcome.describe())
    for failure in outcome.failures:
        print("  " + failure.describe())
    if args.solver_stats:
        _print_check_stats(run.stages.get("check"))
        _print_solver_stats(outcome.solver_stats())
    if args.profile and outcome.profile is not None:
        _print_profile(outcome.profile)
    return 0 if outcome.verified else 1


def cmd_pipeline(args) -> int:
    pipe = Pipeline(config=_config_from_args(args))
    runs = pipe.run_many(
        [_read_source(path) for path in args.files],
        stop_after=args.stage,
        on_event=_progress_sink(args),
        stop_on_failure=_flag_default(args, "fail_fast"),
    )
    if args.json:
        print(json.dumps([run.to_dict() for run in runs], indent=2))
    else:
        for run in runs:
            print(f"{run.name}  (sha256 {run.source_hash[:12]})")
            for stage in STAGES:
                result = run.stages.get(stage)
                if result is None:
                    continue
                cached = "  [cached]" if result.cached else ""
                queries = (
                    f"  {result.solver_queries:5d} solver queries"
                    if result.solver_queries
                    else ""
                )
                print(f"  {stage:<8s} {result.seconds:8.3f}s{queries}{cached}")
            print(f"  total    {run.seconds:8.3f}s  {run.solver_queries} solver queries")
            if run.outcome is not None:
                print(f"  {run.outcome.describe()}")
                for failure in run.outcome.failures:
                    print("    " + failure.describe())
                if args.solver_stats:
                    _print_check_stats(run.stages.get("check"), indent="  ")
                    _print_solver_stats(run.outcome.solver_stats(), indent="  ")
                if args.profile and run.outcome.profile is not None:
                    _print_profile(run.outcome.profile, indent="  ")
            print()
    failed = any(run.outcome is not None and not run.outcome.verified for run in runs)
    return 1 if failed else 0


def cmd_run(args) -> int:
    from repro.lang.parser import parse_function
    from repro.semantics.interpreter import RandomNoise, run_function

    function = parse_function(_read_source(args.file))
    inputs = {}
    for pair in args.input or ():
        name, sep, value = pair.partition("=")
        try:
            if not (name and sep):
                raise ValueError(pair)
            if "," in value:
                inputs[name] = tuple(float(v) for v in value.split(","))
            else:
                inputs[name] = float(value)
        except ValueError:
            raise SystemExit(
                f"error: --input expects NAME=VALUE (or NAME=V1,V2,...), got {pair!r}"
            )
    result, interp = run_function(function, inputs, noise=RandomNoise(seed=args.seed))
    print(f"result: {result}")
    print(f"samples drawn: {len(interp.samples)}")
    return 0


def cmd_table1(args) -> int:
    from repro.algorithms.table1 import generate_table1, render_table1

    rows = generate_table1()
    print(render_table1(rows))
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import VerifyServer

    from repro.verify.store import STORE_ENV_VAR

    try:
        server = VerifyServer(
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            max_concurrent=args.max_concurrent,
            request_timeout=args.request_timeout,
            warm=args.warm,
            store=args.store or os.environ.get(STORE_ENV_VAR) or None,
            quiet=args.quiet,
        )
    except ValueError as err:
        raise SystemExit(f"error: {err}")
    try:
        asyncio.run(server.run(install_signal_handlers=True))
    except KeyboardInterrupt:
        pass
    return 0


def _client_event_printer(args):
    """A printer for streamed wire events, or None without --progress."""
    if not getattr(args, "progress", False):
        return None

    def emit(event) -> None:
        kind = event.get("kind")
        if kind == "unit-started":
            print(f"  [{event['unit']}] started ({event['obligations']} obligations)")
        elif kind == "obligation-discharged":
            note = " (cached)" if event.get("cached") else ""
            print(f"  [{event['unit']}] ok {event['oid']} {event['tag']}{note}")
        elif kind == "obligation-refuted":
            print(f"  [{event['unit']}] REFUTED {event['oid']} {event['tag']}")
            if event.get("counterexample"):
                print(f"      {event['counterexample']}")
        elif kind == "unit-finished":
            print(f"  [{event['unit']}] finished in {event['seconds']:.3f}s")
        elif kind == "early-exit":
            print(f"  [{event['unit']}] early exit: {event['reason']}")

    return emit


def _client_wire_config(args):
    """The verify request's ``config`` dict from the client flags."""
    config = {}
    if getattr(args, "mode", None):
        config["mode"] = args.mode
    bindings = _parse_bindings(getattr(args, "bind", None))
    if bindings:
        config["bindings"] = {name: str(value) for name, value in bindings.items()}
    if getattr(args, "assume", None):
        config["assumptions"] = list(args.assume)
    if getattr(args, "unroll", None) is not None:
        config["unroll_limit"] = args.unroll
    if getattr(args, "fail_fast", False):
        config["fail_fast"] = True
    if getattr(args, "witness", False):
        config["witness"] = True
    return config or None


def _print_wire_result(result, json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(result, indent=2, sort_keys=True))
        return
    outcome = result["outcome"]
    counters = outcome["counters"]
    verdict = "verified" if outcome["verified"] else "REFUTED"
    cached = " [cached]" if result.get("cached") else ""
    print(
        f"{result['name']}: {verdict} — {outcome['obligations_total']} obligations, "
        f"{counters['solve_calls']} solves, {counters['cache_hits']} cache hits"
        f"{cached}"
    )
    for failure in outcome["failures"]:
        print("  " + failure["description"])


def _print_status(status) -> None:
    server, requests = status["server"], status["requests"]
    cache, memo = status["query_cache"], status["stage_memo"]
    print(
        f"repro-serve {server['version']} (protocol {server['protocol']}), "
        f"up {server['uptime_seconds']:.0f}s"
        f"{', draining' if server['draining'] else ''}"
    )
    warmed = server["warmed"]
    print(
        f"  workers: {server['max_concurrent']}, "
        f"warmed: {len(warmed)} algorithm(s)"
    )
    print(
        f"  requests: {requests['active']} active, {requests['completed']} completed, "
        f"{requests['cancelled']} cancelled, {requests['failed']} failed, "
        f"{requests['rejected']} rejected"
    )
    print(
        f"  query cache: {cache['entries']} entries, {cache['hits']} hits, "
        f"{cache['misses']} misses, {cache['pending']} in flight"
    )
    print(
        f"  stage memo: {memo['entries']} entries, "
        f"{sum(memo['hits'].values())} hits, {sum(memo['misses'].values())} misses"
    )
    store = status.get("obligation_store")
    if store is not None:
        print(
            f"  obligation store: {store['entries']} entries at {store['path']}, "
            f"{store['hits']} hits, {store['misses']} misses, "
            f"{store['writes']} writes"
        )
        print(
            f"    witnesses: {store.get('witnesses', 0)} stored, "
            f"{store.get('validated_hits', 0)} validated hits, "
            f"{store.get('witness_rejects', 0)} rejects"
        )


def cmd_client(args) -> int:
    from repro.serve.client import ServeClient, ServeError

    try:
        client = ServeClient(socket_path=args.socket, host=args.host, port=args.port)
    except (ServeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    with client:
        try:
            if args.action == "status":
                status = client.status()
                if args.json:
                    print(json.dumps(status, indent=2, sort_keys=True))
                else:
                    _print_status(status)
                return 0
            if args.action == "health":
                health = client.health()
                if args.json:
                    print(json.dumps(health, indent=2, sort_keys=True))
                else:
                    print(
                        f"{health['status']} (up {health['uptime_seconds']:.0f}s, "
                        f"{health['inflight']}/{health['max_queue']} in flight)"
                    )
                    for cause in health["causes"]:
                        print(f"  cause: {cause}")
                return 0 if health["status"] == "ok" else 1
            if args.action == "ping":
                client.ping()
                print("pong")
                return 0
            if args.action == "shutdown":
                client.shutdown()
                print("server draining")
                return 0
            on_event = _client_event_printer(args)
            config = _client_wire_config(args)
            if args.action == "witness":
                if not args.oid:
                    raise SystemExit("error: client witness needs --oid")
                if bool(args.file) == bool(args.spec):
                    raise SystemExit(
                        "error: client witness needs exactly one of --file and --spec"
                    )
                if args.spec and len(args.spec) != 1:
                    raise SystemExit("error: client witness takes exactly one --spec")
                out = client.witness(
                    args.oid,
                    source=_read_source(args.file) if args.file else None,
                    spec=args.spec[0] if args.spec else None,
                    config=config,
                    full=args.full,
                )
                if args.json:
                    print(json.dumps(out, indent=2, sort_keys=True))
                elif not out["found"]:
                    print(f"{args.oid}: no stored verdict")
                elif not out.get("witnessed"):
                    verdict = "valid" if out["valid"] else "refuted"
                    print(f"{args.oid}: {verdict}, no certificate stored")
                elif out.get("validated"):
                    summary = out["summary"]
                    print(
                        f"{args.oid}: certificate validated — "
                        f"{summary['inputs']} inputs, {summary['lemmas']} lemmas, "
                        f"{summary['learned']} learned clauses, "
                        f"{summary['atoms']} atoms"
                    )
                    if args.full:
                        print(out["certificate"])
                else:
                    print(f"{args.oid}: certificate REJECTED — {out.get('error')}")
                return 0 if out.get("validated") else 1
            if args.action == "sweep":
                results = client.sweep(
                    specs=args.spec or None,
                    config=config,
                    timeout=args.timeout,
                    on_event=on_event,
                )
                for result in results:
                    _print_wire_result(result, args.json)
                return 0 if all(r["outcome"]["verified"] for r in results) else 1
            # verify
            if bool(args.file) == bool(args.spec):
                raise SystemExit(
                    "error: client verify needs exactly one of --file and --spec"
                )
            if args.spec and len(args.spec) != 1:
                raise SystemExit("error: client verify takes exactly one --spec")
            result = client.verify(
                source=_read_source(args.file) if args.file else None,
                spec=args.spec[0] if args.spec else None,
                config=config,
                timeout=args.timeout,
                on_event=on_event,
            )
            _print_wire_result(result, args.json)
            return 0 if result["outcome"]["verified"] else 1
        except ServeError as err:
            print(f"error [{err.code}]: {err}", file=sys.stderr)
            return 2


def cmd_cache(args) -> int:
    from repro.verify.store import (
        STORE_ENV_VAR,
        ObligationStore,
        default_store_path,
    )

    path = args.store or os.environ.get(STORE_ENV_VAR) or default_store_path()
    if args.cache_action == "path":
        print(path)
        return 0
    store = ObligationStore(path)
    if args.cache_action == "stats":
        stats = store.stats()
        breakdown = store.breakdown()
        if args.json:
            stats["breakdown"] = breakdown
            print(json.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"store: {stats['path']}")
        print(
            f"  {stats['entries']} entries ({breakdown['valid']} valid, "
            f"{breakdown['refuted']} refuted), {stats['bytes']} bytes, "
            f"schema v{stats['schema_version']}"
        )
        print(
            f"  witnesses: {stats['witnesses']} of {breakdown['valid']} "
            f"valid entries carry a proof certificate "
            f"({stats['witness_bytes'] / 1024:.1f} KiB)"
        )
        print(
            f"  traffic (this process): {stats['hits']} hits, "
            f"{stats['misses']} misses, {stats['writes']} writes, "
            f"{stats['invalid']} invalid, "
            f"{stats['validated_hits']} validated hits, "
            f"{stats['witness_rejects']} witness rejects"
        )
        return 0
    if args.cache_action == "gc":
        if args.max_age_days is None and args.max_entries is None:
            raise SystemExit(
                "error: cache gc needs --max-age-days and/or --max-entries"
            )
        removed = store.gc(
            max_age_days=args.max_age_days, max_entries=args.max_entries
        )
        print(f"removed {removed} entries ({store.entry_count()} remain)")
        return 0
    if args.cache_action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entries")
        return 0
    raise SystemExit(f"error: unknown cache action {args.cache_action!r}")


def _witness_show(args) -> int:
    """Discharge one file with witnesses on; summarize each oid's stored
    certificate, or print one of them with ``--oid``."""
    from dataclasses import replace

    from repro.verify.verifier import prepare_generator, target_cfg

    config = replace(_config_from_args(args), witness=True)
    run = Pipeline().run(_read_source(args.file), stop_after="optimize")
    generator, checker = prepare_generator(run.target, config)
    failures = checker.discharge_stream(
        generator.stream(target_cfg(run.target, config)),
        emit=_progress_sink(args),
    )
    refuted = {failure.obligation.oid for failure in failures}
    if args.oid is not None:
        text = checker.witness_text(args.oid)
        if text is None:
            known = any(ob.oid == args.oid for ob in generator.obligations)
            what = "no certificate" if known else "no such obligation"
            print(f"error: {what} for {args.oid!r}", file=sys.stderr)
            return 1
        print(text)
        return 0
    print(
        f"{run.name}: {len(checker.certificates)} certificates for "
        f"{len(generator.obligations)} obligations "
        f"[fingerprint {checker.store_fingerprint[:12]}]"
    )
    for obligation in generator.obligations:
        certificate = checker.stored_certificate(obligation.oid)
        if obligation.oid in refuted:
            status = "refuted (no certificate)"
        elif certificate is None:
            status = "valid, no certificate"
        else:
            summary = certificate.summary()
            status = (
                f"{summary['inputs']} inputs, {summary['lemmas']} lemmas, "
                f"{summary['learned']} learned, {summary['atoms']} atoms"
            )
        print(f"  {obligation.oid}  {obligation.tag:<20s} {status}")
    return 0 if not failures else 1


def _witness_check(args) -> int:
    """Validate one serialized certificate with the trusted checker."""
    from repro.witness import Certificate, WitnessError, validate

    try:
        certificate = Certificate.from_json(_read_source(args.file))
        checked = validate(certificate)
    except WitnessError as err:
        print(f"REJECTED [{err.step}]: {err.detail}", file=sys.stderr)
        return 1
    oid = certificate.oid or "<unbound>"
    print(
        f"{oid}: certificate validated — {checked['inputs']} inputs, "
        f"{checked['lemmas']} lemmas, {checked['rup_steps']} RUP steps"
    )
    return 0


def _witness_sweep(args) -> int:
    """Re-validate every stored certificate across the registry.

    Pure trusted-kernel work: obligations are enumerated symbolically
    and verdicts come from the store — no SAT/simplex solver is ever
    constructed.  Every check-stage row in the store (the type checker's
    answers) is re-validated too.  Exit 0 only when every valid
    obligation's certificate is present and checks, and every valid
    check-stage row's certificate checks.  ``--populate`` first runs
    each program witnessed, which writes both kinds of row.
    """
    from dataclasses import replace

    from repro.algorithms import registry
    from repro.pipeline import spec_config
    from repro.verify.store import (
        CHECK_FINGERPRINT,
        STORE_ENV_VAR,
        ObligationStore,
        default_store_path,
    )
    from repro.verify.verifier import prepare_generator, target_cfg, verify_target
    from repro.witness import Certificate, WitnessError, validate

    path = args.store or os.environ.get(STORE_ENV_VAR) or default_store_path()
    store = ObligationStore(path)
    specs = registry.all_specs(include_buggy=False)
    if args.spec:
        specs = [registry.get(name) for name in args.spec]
    pipe = Pipeline()
    totals = {"missing": 0, "refuted": 0, "unwitnessed": 0, "validated": 0, "rejected": 0}

    def tally(counts, verdict) -> None:
        if verdict is None:
            counts["missing"] += 1
        elif not verdict.valid:
            counts["refuted"] += 1
        elif verdict.witness is None:
            counts["unwitnessed"] += 1
        else:
            try:
                validate(Certificate.from_json(verdict.witness))
                counts["validated"] += 1
            except WitnessError:
                counts["rejected"] += 1

    rows = []
    for spec in specs:
        config = replace(spec_config(spec), store=store, witness=True)
        # Only a populating sweep type checks against the store; the
        # check stage would solve what it misses.
        run = pipe.run(
            spec.source, config=config if args.populate else None, stop_after="optimize"
        )
        if args.populate:
            verify_target(run.target, config)
        generator, checker = prepare_generator(run.target, config)
        counts = dict.fromkeys(totals, 0)
        for obligation in generator.stream(target_cfg(run.target, config)):
            tally(counts, store.lookup(obligation.oid, checker.store_fingerprint))
        rows.append({"spec": spec.name, **counts})
    check = dict.fromkeys(totals, 0)
    for oid in store.oids(CHECK_FINGERPRINT):
        tally(check, store.lookup(oid, CHECK_FINGERPRINT))
    for counts in rows + [check]:
        for key in totals:
            totals[key] += counts[key]
    if args.json:
        print(json.dumps({"specs": rows, "check": check, "totals": totals},
                         indent=2, sort_keys=True))
    else:
        for row in rows + [{"spec": "(type checker)", **check}]:
            print(
                f"{row['spec']:<24s} {row['validated']} validated, "
                f"{row['refuted']} refuted, {row['unwitnessed']} unwitnessed, "
                f"{row['missing']} missing, {row['rejected']} rejected"
            )
        print(
            f"total: {totals['validated']} certificates validated with zero "
            f"solver calls ({totals['refuted']} refuted, "
            f"{totals['unwitnessed']} unwitnessed, {totals['missing']} missing, "
            f"{totals['rejected']} rejected)"
        )
    clean = not (totals["missing"] or totals["unwitnessed"] or totals["rejected"])
    return 0 if clean else 1


def cmd_witness(args) -> int:
    if args.witness_action == "show":
        return _witness_show(args)
    if args.witness_action == "check":
        return _witness_check(args)
    if args.witness_action == "sweep":
        return _witness_sweep(args)
    raise SystemExit(f"error: unknown witness action {args.witness_action!r}")


def _add_verification_flags(parser) -> None:
    defaults = _VERIFICATION_FLAG_DEFAULTS
    parser.add_argument(
        "--mode", choices=("unroll", "invariant"), default=defaults["mode"]
    )
    parser.add_argument("--bind", action="append", metavar="NAME=VALUE")
    parser.add_argument("--assume", action="append", metavar="EXPR")
    parser.add_argument("--unroll", type=int, default=defaults["unroll"])
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=defaults["store"],
        help="persistent obligation store: verdicts keyed by content id are "
        "reused across runs (default: REPRO_STORE env if set, else disabled)",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        default=defaults["no_incremental"],
        help="disable push/pop solver-context reuse (one-shot solver per query)",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        default=defaults["fail_fast"],
        help="stop discharging at the first refuted obligation",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        default=defaults["progress"],
        help="stream discharge events (unit started/finished, obligation "
        "discharged/refuted) as they happen",
    )
    parser.add_argument(
        "--solver-stats",
        action="store_true",
        default=defaults["solver_stats"],
        help="print query/cache-hit/solve-call counters after the verdict",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=defaults["profile"],
        help="collect and print the inner-loop solver profile (pivots, "
        "propagations, conflicts, restarts, interned-node hits, ...)",
    )
    parser.add_argument(
        "--faults",
        metavar="SPEC",
        default=defaults["faults"],
        help="install a deterministic fault-injection plan (testing only): "
        "comma-separated SITE@KEY directives, e.g. "
        "'store-busy@1,store-poison@2'; equivalent to REPRO_FAULTS "
        "(see docs/faults.md)",
    )
    parser.add_argument(
        "--witness",
        action="store_true",
        default=defaults["witness"],
        help="emit proof certificates for valid obligations (persisted with "
        "--store; warm store hits are re-validated by the trusted checker)",
    )


def main(argv=None) -> int:
    from repro import __version__
    from repro.serve.protocol import PROTOCOL_VERSION

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__} (serve protocol {PROTOCOL_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="type check a ShadowDP file")
    p_check.add_argument("file")
    p_check.set_defaults(func=cmd_check)

    p_ir = sub.add_parser("ir", help="dump the checked body's basic-block CFG")
    p_ir.add_argument("file")
    p_ir.set_defaults(func=cmd_ir)

    p_tr = sub.add_parser("transform", help="print the transformed program")
    p_tr.add_argument("file")
    p_tr.set_defaults(func=cmd_transform)

    p_ver = sub.add_parser("verify", help="verify the transformed program")
    p_ver.add_argument("file")
    _add_verification_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_obl = sub.add_parser(
        "obligations",
        help="list proof obligations with ids and provenance, without solving",
    )
    p_obl.add_argument("file")
    p_obl.add_argument("--json", action="store_true", help="machine-readable output")
    _add_verification_flags(p_obl)
    p_obl.set_defaults(func=cmd_obligations)

    p_pipe = sub.add_parser(
        "pipeline", help="run the staged pipeline with per-stage accounting"
    )
    p_pipe.add_argument("files", nargs="+", metavar="FILE")
    p_pipe.add_argument(
        "--stage",
        choices=STAGES,
        default="verify",
        help="run the pipeline through this stage (inclusive)",
    )
    p_pipe.add_argument("--json", action="store_true", help="machine-readable output")
    _add_verification_flags(p_pipe)
    p_pipe.set_defaults(func=cmd_pipeline)

    p_run = sub.add_parser("run", help="execute with real noise")
    p_run.add_argument("file")
    p_run.add_argument("--input", action="append", metavar="NAME=VALUE")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_t1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p_t1.set_defaults(func=cmd_table1)

    p_cache = sub.add_parser(
        "cache", help="inspect or maintain the persistent obligation store"
    )
    p_cache.add_argument(
        "cache_action",
        choices=("stats", "gc", "clear", "path"),
        metavar="ACTION",
        help="stats (entry counts + traffic), gc (drop stale entries), "
        "clear (drop everything), path (print the resolved store path)",
    )
    p_cache.add_argument(
        "--store",
        metavar="PATH",
        help="store path (default: REPRO_STORE env, else the user cache dir)",
    )
    p_cache.add_argument(
        "--max-age-days",
        type=float,
        metavar="DAYS",
        help="gc: drop entries not used within DAYS",
    )
    p_cache.add_argument(
        "--max-entries",
        type=int,
        metavar="N",
        help="gc: keep only the N most recently used entries",
    )
    p_cache.add_argument("--json", action="store_true", help="machine-readable output")
    p_cache.set_defaults(func=cmd_cache)

    p_wit = sub.add_parser(
        "witness", help="emit, inspect and re-validate proof certificates"
    )
    wit_sub = p_wit.add_subparsers(dest="witness_action", required=True)
    p_wshow = wit_sub.add_parser(
        "show",
        help="discharge FILE with witnesses on and print per-obligation "
        "certificate summaries",
    )
    p_wshow.add_argument("file")
    p_wshow.add_argument(
        "--oid",
        metavar="OID",
        help="print this obligation's full canonical certificate JSON instead",
    )
    _add_verification_flags(p_wshow)
    p_wshow.set_defaults(func=cmd_witness)
    p_wcheck = wit_sub.add_parser(
        "check",
        help="validate a serialized certificate (JSON file) with the trusted "
        "checker; exit 0 iff it checks",
    )
    p_wcheck.add_argument("file")
    p_wcheck.set_defaults(func=cmd_witness)
    p_wsweep = wit_sub.add_parser(
        "sweep",
        help="re-validate every stored certificate across the registry with "
        "zero solver calls; exit 0 iff all valid obligations check",
    )
    p_wsweep.add_argument(
        "--store",
        metavar="PATH",
        help="store path (default: REPRO_STORE env, else the user cache dir)",
    )
    p_wsweep.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="restrict the sweep to these registry algorithms (repeatable)",
    )
    p_wsweep.add_argument(
        "--populate",
        action="store_true",
        help="run the witnessed verification first so the store is warm",
    )
    p_wsweep.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_wsweep.set_defaults(func=cmd_witness)

    p_srv = sub.add_parser(
        "serve", help="run the long-lived verification service (warm caches)"
    )
    p_srv.add_argument("--socket", metavar="PATH", help="unix socket to listen on")
    p_srv.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p_srv.add_argument(
        "--port", type=int, metavar="N", help="TCP port to listen on (0 = ephemeral)"
    )
    p_srv.add_argument(
        "--max-concurrent",
        type=int,
        default=4,
        metavar="N",
        help="verify requests processed at once (further requests queue)",
    )
    p_srv.add_argument(
        "--request-timeout",
        type=float,
        metavar="SECONDS",
        help="default per-request wall-clock budget (cooperative cancellation)",
    )
    p_srv.add_argument(
        "--warm",
        action="store_true",
        help="preload the registry sweep before accepting connections",
    )
    p_srv.add_argument(
        "--store",
        metavar="PATH",
        help="persistent obligation store shared by all requests "
        "(default: REPRO_STORE env if set, else disabled)",
    )
    p_srv.add_argument("--quiet", action="store_true", help="suppress serve logging")
    p_srv.add_argument(
        "--faults",
        metavar="SPEC",
        help="install a deterministic fault-injection plan (testing only): "
        "comma-separated SITE@KEY directives; equivalent to "
        "REPRO_FAULTS (see docs/faults.md)",
    )
    p_srv.set_defaults(func=cmd_serve)

    p_cl = sub.add_parser("client", help="talk to a running verification server")
    p_cl.add_argument(
        "action",
        choices=(
            "status",
            "health",
            "verify",
            "sweep",
            "witness",
            "ping",
            "shutdown",
        ),
    )
    p_cl.add_argument("--socket", metavar="PATH", help="server unix socket")
    p_cl.add_argument("--host", default="127.0.0.1", help="server TCP host")
    p_cl.add_argument("--port", type=int, metavar="N", help="server TCP port")
    p_cl.add_argument("--file", metavar="FILE", help="verify: a ShadowDP source file")
    p_cl.add_argument(
        "--spec",
        action="append",
        metavar="NAME",
        help="registry algorithm name (verify: one; sweep: repeatable filter)",
    )
    p_cl.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="per-request server timeout"
    )
    p_cl.add_argument("--mode", choices=("unroll", "invariant"))
    p_cl.add_argument("--bind", action="append", metavar="NAME=VALUE")
    p_cl.add_argument("--assume", action="append", metavar="EXPR")
    p_cl.add_argument("--unroll", type=int, metavar="N")
    p_cl.add_argument("--fail-fast", action="store_true")
    p_cl.add_argument(
        "--witness",
        action="store_true",
        help="verify: emit proof certificates server-side",
    )
    p_cl.add_argument(
        "--oid", metavar="OID", help="witness: the obligation id to look up"
    )
    p_cl.add_argument(
        "--full",
        action="store_true",
        help="witness: also print the canonical certificate JSON",
    )
    p_cl.add_argument(
        "--progress", action="store_true", help="print streamed discharge events"
    )
    p_cl.add_argument("--json", action="store_true", help="machine-readable output")
    p_cl.set_defaults(func=cmd_client)

    args = parser.parse_args(argv)
    if getattr(args, "faults", None):
        from repro import faults
        from repro.faults import FaultPlanError

        try:
            faults.install(args.faults)
        except FaultPlanError as err:
            print(f"error: --faults: {err}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except (ShadowDPError, ParseError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
