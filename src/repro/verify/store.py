"""The persistent obligation store: cross-run incremental verification.

Every :class:`~repro.verify.vcgen.Obligation` carries a stable,
content-derived ``.oid`` — the same proof obligation hashes to the same
id across runs, processes and machines.  This module keys verdicts by
``(oid, fingerprint)`` in a small sqlite database, where the
*fingerprint* digests everything that could change a verdict without
changing the obligation itself: the bound precondition Ψ, the global
assumptions and the lemma policy.  Edit one line of a program and a
rerun re-proves only the obligations whose content actually changed;
everything else is answered from disk without a single solve.

Design rules (see ``docs/cache.md`` for the on-disk format spec):

* **Versioned schema** — ``PRAGMA user_version`` records the layout; a
  mismatch (older or newer writer) drops the table and starts clean
  rather than guessing at field meanings.
* **Atomic writes** — verdicts for a run are inserted in one
  transaction; readers never observe a half-written batch.
* **Corruption is a miss, never a crash** — an unreadable database file
  is recreated, an undecodable row is deleted and treated as a miss,
  both under the ``invalid`` counter so the degradation is observable.
* **Auditable records** — each row stores the verdict *and* its
  provenance (tag, CFG region, countermodel, timestamps), so a cached
  refutation can be replayed and inspected, not just trusted.

The store is consulted *before* any unit is planned (hits never reach
the solver) and written *after* a clean, complete run (early-exited or
cancelled runs record nothing — a partially-discharged unit must not
masquerade as a verdict).  Lookups only read; the rows a run was
answered from get their ``last_used`` refreshed in one batch.

The same table keeps the type checker's solver answers, for witnessed
runs, under one check-stage fingerprint (:class:`CheckAnswers`): a
program is admitted only when its type rules' side conditions hold, so
those answers are trusted on the same terms as verdicts.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro import faults as faults_mod
from repro.lang import ast
from repro.solver.context import CacheEntry, query_oid
from repro.witness import Certificate, WitnessError, trim_certificate, validate

#: Environment variable naming a store path; the CLI consults it when
#: ``--store`` is not given, so ``REPRO_STORE=~/.cache/... repro verify``
#: enables cross-run caching without touching the command line.
STORE_ENV_VAR = "REPRO_STORE"

#: On-disk layout version, recorded in ``PRAGMA user_version``.  Bump on
#: any change to the table shape or the meaning of stored fields; a
#: mismatched database is cleared, never reinterpreted.
SCHEMA_VERSION = 2

_TABLE = """
CREATE TABLE IF NOT EXISTS obligations (
    oid        TEXT NOT NULL,
    fp         TEXT NOT NULL,
    valid      INTEGER NOT NULL,
    status     TEXT NOT NULL,
    model      TEXT,
    witness    TEXT,
    tag        TEXT NOT NULL DEFAULT '',
    region     TEXT NOT NULL DEFAULT '',
    created    REAL NOT NULL,
    last_used  REAL NOT NULL,
    PRIMARY KEY (oid, fp)
)
"""


def default_store_path() -> str:
    """``$XDG_CACHE_HOME/repro/obligations.sqlite`` (or ``~/.cache/…``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "obligations.sqlite")


def premise_fingerprint(
    psi: ast.Expr, assumptions: Sequence[ast.Expr], use_lemmas: bool
) -> str:
    """Digest the verdict-relevant context an oid does not capture.

    Two runs share store entries exactly when their obligations would be
    discharged under the same premise regime: same bound precondition,
    same global assumptions (order-insensitive), same lemma policy.
    """
    payload = repr(
        (
            SCHEMA_VERSION,
            psi,
            tuple(sorted(repr(a) for a in assumptions)),
            bool(use_lemmas),
        )
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


#: The fingerprint every check-stage row sits under.  A type-check
#: query's canonical text carries its whole premise set, so one constant
#: names them all; like every fingerprint it moves with the schema.
CHECK_FINGERPRINT = hashlib.sha256(
    repr((SCHEMA_VERSION, "check")).encode("utf-8")
).hexdigest()[:16]


@dataclass(frozen=True)
class StoredVerdict:
    """One persisted obligation verdict, decoded and type-checked.

    ``witness`` is the canonical-JSON proof certificate behind a valid
    verdict, when the recording run emitted one (see ``repro.witness``);
    consumers must *validate* it before trusting a witnessed hit.
    """

    valid: bool
    status: str
    arith_model: Optional[Dict[str, Fraction]] = None
    bool_model: Optional[Dict[str, bool]] = None
    witness: Optional[str] = None


@dataclass
class StoreStats:
    """Store traffic counters for one consumer's accounting window."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    invalid: int = 0
    #: Transient ``database is locked``/``busy`` errors absorbed by the
    #: short-backoff retry loop (the operation ultimately succeeded or
    #: was counted elsewhere).
    busy_retries: int = 0
    #: Verdicts recorded in the in-memory fallback after the disk store
    #: degraded (write failure survived instead of failing the run).
    memory_writes: int = 0
    #: Warm hits whose stored proof certificate was re-checked by the
    #: trusted witness kernel and accepted.
    validated_hits: int = 0
    #: Warm hits whose stored certificate failed decoding or validation;
    #: each one was degraded to a counted re-solve, never trusted.
    witness_rejects: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalid": self.invalid,
            "busy_retries": self.busy_retries,
            "memory_writes": self.memory_writes,
            "validated_hits": self.validated_hits,
            "witness_rejects": self.witness_rejects,
        }


def _encode_model(verdict_model: Optional[Tuple[Dict, Dict]]) -> Optional[str]:
    if verdict_model is None:
        return None
    arith, booleans = verdict_model
    return json.dumps(
        {
            "arith": {name: str(value) for name, value in sorted(arith.items())},
            "bool": {name: bool(value) for name, value in sorted(booleans.items())},
        },
        sort_keys=True,
    )


def _decode_model(
    text: Optional[str],
) -> Tuple[Optional[Dict[str, Fraction]], Optional[Dict[str, bool]]]:
    if text is None:
        return None, None
    payload = json.loads(text)
    arith = {str(k): Fraction(v) for k, v in payload["arith"].items()}
    booleans = {str(k): bool(v) for k, v in payload["bool"].items()}
    return arith, booleans


class ObligationStore:
    """A thread-safe on-disk verdict cache keyed by ``(oid, fingerprint)``.

    One instance owns one sqlite connection (serialized by a lock, so a
    long-lived ``repro serve`` can share the store across request
    threads).  All failure modes degrade to a miss: a corrupt database
    file is recreated, a mismatched schema version is cleared, and an
    undecodable row is deleted — each tallied in :attr:`counters`.
    """

    #: Transient-busy retry policy: attempts per operation and the base
    #: of the exponential backoff between them.
    BUSY_ATTEMPTS = 5
    BUSY_BACKOFF = 0.005

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = os.path.expanduser(path) if path else default_store_path()
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self.counters = StoreStats()
        #: True once a write failed past the retry budget: the store
        #: keeps serving (and recording) verdicts from ``_memory`` so
        #: requests degrade instead of failing; nothing persists.
        self.degraded = False
        self._memory: Dict[Tuple[str, str], StoredVerdict] = {}
        #: Per thread: the ``(oid, fingerprint)`` rows touched inside a
        #: :meth:`batched_touches` block, or None outside one.
        self._touches = threading.local()

    def _run(self, action):
        """Run one sqlite action, retrying transient busy/locked errors
        with short exponential backoff; callers hold ``self._lock``."""
        attempt = 0
        while True:
            try:
                plan = faults_mod.active()
                if plan is not None and plan.store_busy():
                    raise sqlite3.OperationalError("database is locked (injected)")
                return action()
            except sqlite3.OperationalError as err:
                message = str(err).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt + 1 >= self.BUSY_ATTEMPTS:
                    raise
                self.counters.busy_retries += 1
                time.sleep(self.BUSY_BACKOFF * (2 ** attempt))
                attempt += 1

    # -- connection management -------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        """Open (or recover) the database; callers hold ``self._lock``."""
        if self._conn is not None:
            return self._conn
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        try:
            conn = self._open()
        except sqlite3.DatabaseError:
            # The file exists but is not a database we can read (torn
            # write, truncation, a stray file at the store path).  The
            # store is a cache: recreate rather than fail the run.
            self.counters.invalid += 1
            try:
                os.remove(self.path)
            except OSError:
                pass
            conn = self._open()
        self._conn = conn
        return conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=10.0, check_same_thread=False)
        try:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            if version != SCHEMA_VERSION:
                # Older or newer layout: clear rather than reinterpret.
                if version != 0:
                    self.counters.invalid += 1
                conn.execute("DROP TABLE IF EXISTS obligations")
                conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION:d}")
            conn.execute(_TABLE)
            conn.execute("PRAGMA synchronous = NORMAL")
            conn.commit()
        except sqlite3.DatabaseError:
            conn.close()
            raise
        return conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None

    # -- lookups ---------------------------------------------------------------

    def lookup(self, oid: str, fingerprint: str) -> Optional[StoredVerdict]:
        """The persisted verdict for ``(oid, fingerprint)``, or None.

        Read-only on a decodable row: a verification run marks the rows
        it was answered from with one :meth:`touch` batch.  Every decode
        failure deletes the offending row and reports a miss — a damaged
        entry costs one re-solve, never a crash.
        """
        with self._lock:
            if self.degraded:
                verdict = self._memory.get((oid, fingerprint))
                if verdict is None:
                    self.counters.misses += 1
                else:
                    self.counters.hits += 1
                return verdict
            try:
                conn = self._connect()
                row = self._run(
                    lambda: conn.execute(
                        "SELECT valid, status, model, witness FROM obligations"
                        " WHERE oid = ? AND fp = ?",
                        (oid, fingerprint),
                    ).fetchone()
                )
            except (sqlite3.DatabaseError, OSError):
                self.counters.invalid += 1
                self.counters.misses += 1
                self._reset_connection()
                return None
            if row is None:
                self.counters.misses += 1
                return None
            try:
                valid = bool(row[0])
                status = str(row[1])
                if status not in ("unsat", "sat", "unknown"):
                    raise ValueError(f"bad status {status!r}")
                arith, booleans = _decode_model(row[2])
                witness = str(row[3]) if row[3] is not None else None
                if valid and status != "unsat":
                    raise ValueError("valid verdict with non-unsat status")
            except (ValueError, KeyError, TypeError, ZeroDivisionError,
                    json.JSONDecodeError):
                self.counters.invalid += 1
                self.counters.misses += 1
                try:
                    conn.execute(
                        "DELETE FROM obligations WHERE oid = ? AND fp = ?",
                        (oid, fingerprint),
                    )
                    conn.commit()
                except sqlite3.DatabaseError:
                    self._reset_connection()
                return None
            self.counters.hits += 1
            if witness is not None:
                plan = faults_mod.active()
                if plan is not None and plan.witness_corrupt():
                    # Truncation keeps the row intact on disk while
                    # guaranteeing the validator rejects what we serve.
                    witness = witness[: len(witness) // 2]
            return StoredVerdict(valid, status, arith, booleans, witness)

    def validated(self, witness_text: str) -> Optional[Certificate]:
        """Decode a stored certificate and re-check it with the trusted
        kernel: the certificate if accepted (counted in
        ``validated_hits``), else None (counted in ``witness_rejects``).
        A stored ``valid`` answer is trusted only through this check."""
        try:
            certificate = Certificate.from_json(witness_text)
            validate(certificate)
        except WitnessError:
            with self._lock:
                self.counters.witness_rejects += 1
            return None
        with self._lock:
            self.counters.validated_hits += 1
        return certificate

    def oids(self, fingerprint: str) -> List[str]:
        """The oids stored under ``fingerprint``, sorted."""
        with self._lock:
            if self.degraded:
                return sorted(oid for oid, fp in self._memory if fp == fingerprint)
            try:
                conn = self._connect()
                rows = conn.execute(
                    "SELECT oid FROM obligations WHERE fp = ? ORDER BY oid",
                    (fingerprint,),
                ).fetchall()
            except (sqlite3.DatabaseError, OSError):
                self._reset_connection()
                return []
        return [row[0] for row in rows]

    def touch(self, fingerprint: str, oids: Sequence[str]) -> None:
        """Set ``last_used`` (which drives :meth:`gc`) to now on the rows
        a verification run was answered from.

        One UPDATE batch and one commit for the whole run, retried on a
        transient busy error; inside a :meth:`batched_touches` block the
        rows join that block's batch instead.  A no-op for an empty list
        or a degraded store; a write that still fails only leaves
        ``last_used`` stale.
        """
        if not oids:
            return
        pending = getattr(self._touches, "rows", None)
        if pending is not None:
            pending.extend((oid, fingerprint) for oid in oids)
            return
        self._touch_rows([(oid, fingerprint) for oid in oids])

    @contextmanager
    def batched_touches(self) -> Iterator[None]:
        """Collect this thread's :meth:`touch` calls and commit them as
        one batch when the block exits.

        :meth:`repro.pipeline.Pipeline.run` runs its stages in one, so
        a run marks the rows its check and verify stages were answered
        from in a single transaction.  A nested block joins the
        outermost one.
        """
        if getattr(self._touches, "rows", None) is not None:
            yield
            return
        self._touches.rows = []
        try:
            yield
        finally:
            rows, self._touches.rows = self._touches.rows, None
            self._touch_rows(rows)

    def _touch_rows(self, pairs: Sequence[Tuple[str, str]]) -> None:
        if not pairs:
            return
        now = time.time()
        rows = [(now, oid, fingerprint) for oid, fingerprint in pairs]
        with self._lock:
            if self.degraded:
                return
            try:
                conn = self._connect()

                def write():
                    conn.executemany(
                        "UPDATE obligations SET last_used = ? WHERE oid = ? AND fp = ?",
                        rows,
                    )
                    conn.commit()

                self._run(write)
            except (sqlite3.DatabaseError, OSError):
                self._reset_connection()

    def _reset_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None

    # -- writes ----------------------------------------------------------------

    def record_many(
        self,
        fingerprint: str,
        entries: Iterable[
            Tuple[str, str, str, bool, str, Optional[Tuple[Dict, Dict]], Optional[str]]
        ],
    ) -> int:
        """Persist ``(oid, tag, region, valid, status, model, witness)``
        verdicts.

        ``witness`` is the serialized proof certificate for a valid
        verdict (None when witnesses were off or unavailable).  One
        transaction for the whole batch — readers see all of a run's
        verdicts or none of them.  Returns the rows written.

        A write that still fails after the transient-busy retries
        degrades the store to a counted in-memory-only mode (this batch
        and everything after it is kept in ``_memory`` and served from
        there) instead of failing the run.
        """
        entries = list(entries)
        if not entries:
            return 0
        now = time.time()
        rows = [
            (oid, fingerprint, int(valid), status, _encode_model(model),
             witness, tag, region, now, now)
            for oid, tag, region, valid, status, model, witness in entries
        ]
        plan = faults_mod.active()
        if plan is not None and plan.store_poison():
            # An undecodable row: the next lookup must count it invalid,
            # delete it and re-solve — the corruption-is-a-miss path.
            oid0, fp0, valid0, _, model0, w0, tag0, region0, c0, l0 = rows[0]
            rows[0] = (oid0, fp0, valid0, "poisoned", model0, w0, tag0, region0, c0, l0)
        with self._lock:
            if self.degraded:
                return self._record_memory(fingerprint, entries)
            try:
                conn = self._connect()

                def write():
                    conn.executemany(
                        "INSERT OR REPLACE INTO obligations"
                        " (oid, fp, valid, status, model, witness,"
                        "  tag, region, created, last_used)"
                        " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                        rows,
                    )
                    conn.commit()

                self._run(write)
            except (sqlite3.DatabaseError, OSError):
                self.counters.invalid += 1
                self._reset_connection()
                self.degraded = True
                return self._record_memory(fingerprint, entries)
        self.counters.writes += len(rows)
        return len(rows)

    def _record_memory(self, fingerprint: str, entries) -> int:
        """Keep a batch's verdicts in memory (the degraded write path);
        callers hold ``self._lock``."""
        for oid, tag, region, valid, status, model, witness in entries:
            arith = booleans = None
            if model is not None:
                arith, booleans = model
            self._memory[(oid, fingerprint)] = StoredVerdict(
                bool(valid), status, arith, booleans, witness
            )
        self.counters.memory_writes += len(entries)
        return len(entries)

    # -- maintenance -----------------------------------------------------------

    def entry_count(self) -> int:
        with self._lock:
            if self.degraded:
                return len(self._memory)
            try:
                conn = self._connect()
                return conn.execute("SELECT COUNT(*) FROM obligations").fetchone()[0]
            except (sqlite3.DatabaseError, OSError):
                self._reset_connection()
                return 0

    def witness_count(self) -> int:
        """How many stored verdicts carry a proof certificate."""
        return self.witness_totals()[0]

    def witness_totals(self) -> Tuple[int, int]:
        """``(count, length)`` of the stored proof certificates: how many
        verdicts carry one, and their summed serialized length."""
        with self._lock:
            if self.degraded:
                texts = [v.witness for v in self._memory.values() if v.witness is not None]
                return len(texts), sum(map(len, texts))
            try:
                conn = self._connect()
                count, length = conn.execute(
                    "SELECT COUNT(witness), SUM(LENGTH(witness)) FROM obligations"
                ).fetchone()
                return count, length or 0
            except (sqlite3.DatabaseError, OSError):
                self._reset_connection()
                return 0, 0

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_entries: Optional[int] = None,
    ) -> int:
        """Drop stale entries; returns how many were removed.

        ``max_age_days`` removes entries not used since the cutoff;
        ``max_entries`` then keeps only the most recently used N.
        """
        removed = 0
        with self._lock:
            try:
                conn = self._connect()
                if max_age_days is not None:
                    cutoff = time.time() - max_age_days * 86400.0
                    cursor = conn.execute(
                        "DELETE FROM obligations WHERE last_used < ?", (cutoff,)
                    )
                    removed += cursor.rowcount
                if max_entries is not None:
                    cursor = conn.execute(
                        "DELETE FROM obligations WHERE rowid NOT IN ("
                        " SELECT rowid FROM obligations"
                        " ORDER BY last_used DESC, rowid DESC LIMIT ?)",
                        (max(0, int(max_entries)),),
                    )
                    removed += cursor.rowcount
                conn.commit()
                conn.execute("VACUUM")
            except sqlite3.DatabaseError:
                self._reset_connection()
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many there were."""
        with self._lock:
            try:
                conn = self._connect()
                count = conn.execute("SELECT COUNT(*) FROM obligations").fetchone()[0]
                conn.execute("DELETE FROM obligations")
                conn.commit()
                conn.execute("VACUUM")
                return count
            except sqlite3.DatabaseError:
                self._reset_connection()
                return 0

    # -- reporting -------------------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        """The traffic counters as a plain dict (see :class:`StoreStats`)."""
        return self.counters.to_dict()

    def delta_since(self, before: Dict[str, int]) -> Dict[str, int]:
        after = self.snapshot()
        return {key: after[key] - before.get(key, 0) for key in after}

    def stats(self) -> Dict[str, object]:
        """Traffic counters plus database facts, for status endpoints."""
        out: Dict[str, object] = dict(self.snapshot())
        out["path"] = self.path
        out["schema_version"] = SCHEMA_VERSION
        out["entries"] = self.entry_count()
        out["witnesses"], out["witness_bytes"] = self.witness_totals()
        out["degraded"] = self.degraded
        try:
            out["bytes"] = os.path.getsize(self.path)
        except OSError:
            out["bytes"] = 0
        return out

    def breakdown(self) -> Dict[str, int]:
        """Entry counts by verdict, for ``repro cache stats``."""
        with self._lock:
            try:
                conn = self._connect()
                rows = conn.execute(
                    "SELECT valid, COUNT(*) FROM obligations GROUP BY valid"
                ).fetchall()
            except sqlite3.DatabaseError:
                self._reset_connection()
                return {"valid": 0, "refuted": 0}
        out = {"valid": 0, "refuted": 0}
        for flag, count in rows:
            out["valid" if flag else "refuted"] = count
        return out


class CheckAnswers:
    """The type checker's answers, kept as rows of an :class:`ObligationStore`.

    The check stage's :class:`~repro.solver.interface.ValidityChecker`
    consults :meth:`lookup` before each solve and reports each fresh
    answer to :meth:`record`.  A row's oid is
    :func:`~repro.solver.context.query_oid` of the normalized query and
    its fingerprint is :data:`CHECK_FINGERPRINT`.

    * A ``valid`` row is used only after the trusted kernel accepts its
      certificate.  A rejected certificate is counted in
      ``witness_rejects`` and the query is solved again; a valid row
      without a certificate is solved again too.
    * A refuted row is used as stored: a refutation can only make the
      checker reject, the conservative direction.

    :meth:`flush` writes the fresh answers, with their trimmed
    certificates, in one transaction and touches the rows used.
    """

    def __init__(self, store: ObligationStore) -> None:
        self.store = store
        self._used: List[str] = []
        self._fresh: List[Tuple] = []

    def lookup(self, key: Tuple) -> Optional[CacheEntry]:
        oid = query_oid(key)
        verdict = self.store.lookup(oid, CHECK_FINGERPRINT)
        if verdict is None:
            return None
        if verdict.valid:
            certificate = None
            if verdict.witness is not None:
                certificate = self.store.validated(verdict.witness)
            if certificate is None:
                return None
            entry = CacheEntry(True, "unsat", certificate=certificate)
        else:
            model = None
            if verdict.arith_model is not None or verdict.bool_model is not None:
                model = (verdict.arith_model or {}, verdict.bool_model or {})
            entry = CacheEntry(False, verdict.status, model)
        self._used.append(oid)
        return entry

    def record(self, key: Tuple, entry: CacheEntry) -> None:
        oid = query_oid(key)
        witness = None
        if entry.certificate is not None:
            core = trim_certificate(entry.certificate) or entry.certificate
            witness = replace(core, oid=oid, fingerprint=CHECK_FINGERPRINT).to_json()
        self._fresh.append(
            (oid, "check", "", entry.valid, entry.status, entry.model, witness)
        )

    def flush(self) -> None:
        """Write the fresh answers and touch the rows that were used."""
        self.store.record_many(CHECK_FINGERPRINT, self._fresh)
        self.store.touch(CHECK_FINGERPRINT, self._used)


def resolve_store(value: object) -> Optional[ObligationStore]:
    """An :class:`ObligationStore` from a config value.

    None stays None (store disabled — the library default); an existing
    instance passes through (the server's shared store); anything else
    is a path.
    """
    if value is None:
        return None
    if isinstance(value, ObligationStore):
        return value
    return ObligationStore(str(value))
