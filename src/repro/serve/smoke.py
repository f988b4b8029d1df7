"""The ``repro serve`` end-to-end smoke check (the CI ``serve-smoke`` job).

Run as ``PYTHONPATH=src python -m repro.serve.smoke``.  It exercises the
full deployment shape — a real daemon subprocess, real sockets — and
asserts the service-mode contract:

1. start ``repro serve`` on a unix socket and wait for the socket to
   appear (the server binds only once it is ready);
2. compute a serial in-process reference for three registry rows;
3. first client sweep (cold): verdicts, obligation ids and query
   counters must equal the serial reference exactly;
4. second client sweep (warm): every result served from the stage memo
   (``cached``), zero new solver queries, nonzero memo hits;
5. clean shutdown via SIGTERM: the daemon drains and exits 0, removing
   its socket.

``--chaos`` instead runs the fault-tolerance smoke (the CI
``chaos-smoke`` job): the same daemon under a committed fault plan — a
dropped connection mid-stream and a poisoned obligation-store row.
Verdicts must stay byte-identical to fault-free serial references, and
``health`` must read ``ok``: a quarantined row is not a degradation.

Any violated assertion exits nonzero, failing the CI job.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time

from repro.algorithms import registry
from repro.pipeline import Pipeline, spec_config
from repro.serve.client import ServeClient

#: The registry rows the smoke sweeps (ISSUE floor: at least three).
SPECS = ("svt", "noisy_max", "partial_sum")

#: The committed chaos plan: sever the first connection at its 4th
#: frame (mid event stream) and poison the first verdict row written to
#: the store.
CHAOS_SERVE_PLAN = "serve-drop@4,store-poison@1"


def _signature(result):
    outcome = result["outcome"]
    return (
        result["name"],
        outcome["verified"],
        tuple(outcome["oids"]),
        outcome["obligations_total"],
        outcome["counters"]["queries"],
    )


def _serial_reference():
    pipe = Pipeline()
    signatures = []
    for name in SPECS:
        spec = registry.get(name)
        run = pipe.run(spec.source, config=spec_config(spec))
        outcome = run.outcome
        signatures.append(
            (
                run.name,
                outcome.verified,
                tuple(outcome.oids),
                outcome.obligations_total,
                outcome.solver_stats()["queries"],
            )
        )
    return signatures


def _wait_for_socket(path: str, process: subprocess.Popen, timeout: float = 120.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if process.poll() is not None:
            raise SystemExit(
                f"FAIL: server exited with {process.returncode} before binding"
            )
        time.sleep(0.05)
    raise SystemExit(f"FAIL: server socket {path} did not appear in {timeout:.0f}s")


def check(condition: bool, label: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {label}")
    print(f"ok: {label}")


def chaos_serve() -> None:
    """The daemon under drop + poison: correct results, healthy server."""
    tmp = tempfile.mkdtemp(prefix="repro-chaos-smoke-")
    sock = os.path.join(tmp, "serve.sock")
    store = os.path.join(tmp, "verdicts.sqlite")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock, "--store", store],
        env={**os.environ, "PYTHONPATH": "src", "REPRO_FAULTS": CHAOS_SERVE_PLAN},
    )
    try:
        _wait_for_socket(sock, server)
        print(f"chaos server up on {sock} (pid {server.pid}, plan {CHAOS_SERVE_PLAN})")

        reference = _serial_reference()

        with ServeClient(socket_path=sock, retries=4) as client:
            # Cold sweep: serve-drop severs the first connection mid
            # event stream; the client must reconnect, retry and still
            # land byte-identical on the serial reference.  The store
            # poison corrupts the first verdict row written here.
            cold = [client.verify(spec=name) for name in SPECS]
            check(
                [_signature(r) for r in cold] == reference,
                "chaos cold sweep matches the serial reference "
                "despite a dropped connection",
            )

            # Warm re-verify of the first cold row with a different
            # config fingerprint: the stage memo misses, the store
            # lookup trips over the poisoned row, quarantines it and
            # re-solves — verdict unchanged.
            poisoned = client.verify(spec=SPECS[0], config={"fail_fast": True})
            check(
                (poisoned["name"], poisoned["outcome"]["verified"],
                 tuple(poisoned["outcome"]["oids"]),
                 poisoned["outcome"]["obligations_total"]) == reference[0][:4],
                "poisoned store row: verdict and obligations intact",
            )
            # The quarantine (invalid counter) lands on whichever run
            # first re-read the poisoned row — usually the retried cold
            # request after the connection drop, else this warm one.
            check(
                any(
                    (r["outcome"]["counters"].get("store") or {}).get("invalid", 0)
                    for r in cold + [poisoned]
                ),
                "poisoned store row detected and quarantined",
            )

            health = client.health()
            check(
                health["status"] == "ok" and health["causes"] == [],
                "health reads ok: a quarantined row is not a degradation",
            )

        server.send_signal(signal.SIGTERM)
        check(server.wait(timeout=60) == 0, "chaos server drains to a clean exit")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def chaos_main() -> int:
    chaos_serve()
    print("chaos smoke: PASS")
    return 0


def main() -> int:
    if "--chaos" in sys.argv[1:]:
        return chaos_main()
    sock = os.path.join(tempfile.mkdtemp(prefix="repro-serve-smoke-"), "serve.sock")
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", sock],
        env={**os.environ, "PYTHONPATH": "src"},
    )
    try:
        _wait_for_socket(sock, server)
        print(f"server up on {sock} (pid {server.pid})")

        reference = _serial_reference()
        print(f"serial reference computed for {', '.join(SPECS)}")

        with ServeClient(socket_path=sock) as client:
            cold = [client.verify(spec=name) for name in SPECS]
            check(
                [_signature(r) for r in cold] == reference,
                "cold sweep matches the serial reference "
                "(verdicts, obligation ids, query counters)",
            )
            check(
                not any(r["cached"] for r in cold),
                "cold sweep genuinely executed (nothing pre-cached)",
            )
            status_cold = client.status()

            warm = [client.verify(spec=name) for name in SPECS]
            status_warm = client.status()
            check(
                [_signature(r) for r in warm] == reference,
                "warm sweep matches the serial reference",
            )
            check(all(r["cached"] for r in warm), "warm sweep fully cache-served")
            check(
                status_warm["query_cache"]["misses"]
                == status_cold["query_cache"]["misses"],
                "warm sweep issued zero new solver queries",
            )
            check(
                sum(status_warm["stage_memo"]["hits"].values()) > 0,
                "warm sweep produced stage-memo hits",
            )
            check(
                status_warm["requests"]["completed"] == 2 * len(SPECS),
                "all requests accounted for",
            )

        server.send_signal(signal.SIGTERM)
        returncode = server.wait(timeout=60)
        check(returncode == 0, "SIGTERM drains the server to a clean exit")
        check(not os.path.exists(sock), "socket removed on shutdown")
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
