"""The encoder's memo must not change what an encoding returns or records.

:class:`ReferenceEncoder` overrides the memo step to call straight
through — the unmemoized encoder, kept as the reference.  A memoized
encoder must return the *identical* interned formula for every
expression and leave ``opaque`` and ``monomials`` with equal contents in
equal insertion order (lemma order, and so solver work, depends on it).
"""

import os
import sys
import threading
import time

import pytest

from repro.algorithms import registry
from repro.lang.parser import parse_expr
from repro.pipeline import spec_config
from repro.solver.context import QueryCache
from repro.solver.encode import EncodeError, Encoder, EncodingMemo
from repro.verify.verifier import VerificationConfig, prepare_generator, target_cfg


class ReferenceEncoder(Encoder):
    def _memoized(self, expr, encode):
        return encode(expr)


def _encode(encoder, expr):
    """The formula, or the message of the EncodeError raised."""
    try:
        return encoder.boolean(expr)
    except EncodeError as err:
        return str(err)


def _assert_same(memoized, reference, expr):
    got, want = _encode(memoized, expr), _encode(reference, expr)
    if isinstance(want, str):
        assert got == want
    else:
        assert got is want
    assert list(memoized.opaque.items()) == list(reference.opaque.items())
    assert list(memoized.monomials.items()) == list(reference.monomials.items())


def _registry_rows():
    rows = [(spec.name, "unroll") for spec in registry.all_specs()]
    rows += [(spec.name, "invariant") for spec in registry.all_specs(include_buggy=False)]
    return rows


@pytest.mark.parametrize("name,mode", _registry_rows())
def test_registry_premises_encode_like_the_reference(name, mode):
    spec = registry.get(name)
    if mode == "unroll":
        config = spec_config(spec)
    else:
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
    target = spec.target()
    generator, checker = prepare_generator(target, config)
    memo = EncodingMemo()
    for obligation in generator.stream(target_cfg(target, config)):
        memoized, reference = Encoder(memo=memo), ReferenceEncoder()
        for expr in checker.premises_for(obligation) + [obligation.goal]:
            _assert_same(memoized, reference, expr)
    assert len(memo) > 0


def test_encode_error_is_raised_again_and_never_stored():
    memo = EncodingMemo()
    expr = parse_expr("x * y < 1 && z / 0 < 1")
    for _ in range(2):
        encoder = Encoder(memo=memo)
        with pytest.raises(EncodeError):
            encoder.boolean(expr)
        # What was recorded before the error stays, as without a memo.
        assert list(encoder.monomials) == ["mon:x*y"]
    assert len(memo) == 1  # the comparison that did encode


def test_bool_vars_are_part_of_the_key():
    memo = EncodingMemo()
    expr = parse_expr("b")
    Encoder(bool_vars={"b"}, memo=memo).boolean(expr)
    with pytest.raises(EncodeError):
        Encoder(memo=memo).boolean(expr)


def test_shared_memo_keeps_side_tables_per_encoder():
    memo = EncodingMemo()
    first, second = Encoder(memo=memo), Encoder(memo=memo)
    product, quotient = parse_expr("x * y < 1"), parse_expr("u / (v + 1) < 1")
    first.boolean(product)
    second.boolean(quotient)
    assert list(first.monomials) == ["mon:x*y"] and not first.opaque
    assert list(second.opaque) == ["<u / (v + 1)>"] and not second.monomials
    second.boolean(product)  # a hit replays into the caller's tables only
    assert list(second.monomials) == ["mon:x*y"]
    assert not first.opaque


def test_memo_is_bounded_by_max_entries_and_cleared_with_the_cache():
    cache = QueryCache(max_entries=3)
    for k in range(10):
        Encoder(memo=cache.encodings).boolean(parse_expr(f"x * y <= {k}"))
        assert len(cache.encodings) <= 3
    assert cache.stats()["encodings"] == 3
    cache.clear()
    assert len(cache.encodings) == 0
    assert cache.stats()["encodings"] == 0


STRESS_EXPRS = [
    parse_expr(text)
    for text in (
        "x * y <= eps",
        "abs(x - y) < 1",
        "(x > 0 ? a * b : a / (b + 1)) < 2",
        "q[i] + q[2] >= 0 && eps / (2 * N) > 0",
        "q^o[0] * eps <= N || count * (eps / N) < eps",
        "abs(q[1] - q^s[1]) <= 1 && x * x >= 0",
        "(count + 1) * (eps / (2 * N)) == count * eps / (2 * N) + eps / (2 * N)",
        "x / (y + z) > 0 || abs(x) < y",
        "z / 0 < 1",
    )
]


def test_threads_sharing_a_memo_encode_like_the_reference():
    """More threads than cores, a tiny switch interval and a memo small
    enough to evict while lookups race: every encoding still equals the
    reference encoder's."""
    expected = {}
    for expr in STRESS_EXPRS:
        reference = ReferenceEncoder()
        expected[expr] = (
            _encode(reference, expr), list(reference.opaque.items()),
            list(reference.monomials.items()),
        )
    memo = QueryCache(max_entries=4).encodings
    mismatches = []
    deadline = time.monotonic() + 2.0

    def encode_all(offset):
        rounds = 0
        while rounds < 50 and time.monotonic() < deadline:
            rounds += 1
            for k in range(len(STRESS_EXPRS)):
                expr = STRESS_EXPRS[(offset + k) % len(STRESS_EXPRS)]
                encoder = Encoder(memo=memo)
                got = _encode(encoder, expr)
                formula, opaque, monomials = expected[expr]
                same = got == formula if isinstance(formula, str) else got is formula
                if not (same and list(encoder.opaque.items()) == opaque
                        and list(encoder.monomials.items()) == monomials):
                    mismatches.append(expr)

    def worker(offset):
        try:
            encode_all(offset)
        except Exception as err:  # a thread's exception would otherwise vanish
            mismatches.append(err)

    threads = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(2 * (os.cpu_count() or 1) + 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert mismatches == []
    assert len(memo) <= 4
