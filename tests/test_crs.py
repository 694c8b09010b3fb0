"""One-way-chain status tokens: setup, issuance, offline verification."""

import hashlib
import math
import os
import random
import signal
import time
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revokebench import core
from revokebench.core import DAY, DecodeError, OneWayFunction
from revokebench.crs import (
    CrsAuthority,
    CrsStatus,
    CrsToken,
    CrsTokenKind,
    crs_verify,
    parse_token,
    token_wire_size,
)


def naive_chain(seed: bytes, length: int, width_bits: int = 100) -> list[bytes]:
    """Independent oracle: the whole chain by repeated single applications."""
    width_bytes = (width_bits + 7) // 8
    mask = 0xFF >> (width_bytes * 8 - width_bits)
    out = [seed]
    cur = seed
    for _ in range(length):
        digest = hashlib.blake2s(cur, digest_size=width_bytes, person=b"owf-%d" % width_bits).digest()
        cur = bytes([digest[0] & mask]) + digest[1:]
        out.append(cur)
    return out


@pytest.fixture
def f():
    return OneWayFunction(100)


@pytest.fixture
def authority(f):
    return CrsAuthority(f)


class TestSetup:
    def test_chain_costs_lifetime_plus_one_applications(self, authority, f, rng):
        [(anchor, secret)] = authority.setup([1], 365, 86400, rng)
        assert f.apply_count == 365 + 1  # the Y chain, then N = F(N0)
        assert authority.chain_value(1, 365) == anchor.y
        assert authority.chain_value(1, 0) == secret.y0

    def test_single_period_chain(self, authority, f, rng):
        [(anchor, secret)] = authority.setup([1], 1, 86400, rng)
        assert anchor.y == f.apply(secret.y0)
        assert anchor.n == f.apply(secret.n0)

    def test_year_long_chain(self, authority, f, rng):
        [(anchor, secret)] = authority.setup([1], 365, 86400, rng)
        assert anchor.y == f.iterate(secret.y0, 365)

    def test_toy_chain_matches_loop_oracle(self, authority, rng):
        [(anchor, secret)] = authority.setup([1], 4, 86400, rng)
        oracle = naive_chain(secret.y0, 4)
        for j in range(5):
            assert authority.chain_value(1, j) == oracle[j]
        assert anchor.y == oracle[4]

    def test_served_bound_keeps_the_chain_tail(self, authority, rng):
        [(anchor, secret)] = authority.setup([1], 4, 86400, rng, served=2)
        oracle = naive_chain(secret.y0, 4)
        for j in (2, 3, 4):  # F^(L-2) .. F^L serve periods 2, 1 and the anchor
            assert authority.chain_value(1, j) == oracle[j]
        with pytest.raises(ValueError):
            authority.chain_value(1, 1)
        for served in (-1, 5):
            with pytest.raises(ValueError):
                authority.setup([2], 4, 86400, rng, served=served)

    def test_duplicate_setup_rejected(self, authority, rng):
        authority.setup([1], 4, 86400, rng)
        with pytest.raises(ValueError):
            authority.setup([1], 4, 86400, rng)


class TestIssueToken:
    def test_final_period_reveals_y0(self, authority, rng):
        [(_, secret)] = authority.setup([1], 4, 86400, rng)
        token = authority.issue_token(1, 4)
        assert token.kind is CrsTokenKind.VALID
        assert token.value == secret.y0

    def test_revocation_is_permanent(self, authority, rng):
        [(_, secret)] = authority.setup([1], 10, 86400, rng)
        authority.revoke(1)
        for period in (3, 5, 10):
            token = authority.issue_token(1, period)
            assert token.kind is CrsTokenKind.REVOKED
            assert token.value == secret.n0

    def test_intermediate_value_matches_oracle(self, authority, rng):
        [(_, secret)] = authority.setup([1], 4, 86400, rng)
        token = authority.issue_token(1, 2)
        assert token.value == naive_chain(secret.y0, 2)[2]  # F^(L-i) = F^2

    def test_unknown_serial_and_bad_period(self, authority, rng):
        with pytest.raises(KeyError):
            authority.issue_token(9, 1)
        authority.setup([1], 4, 86400, rng)
        with pytest.raises(ValueError):
            authority.issue_token(1, 0)
        with pytest.raises(ValueError):
            authority.issue_token(1, 5)


class TestVerify:
    def test_every_period_of_a_small_lifetime(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        for i in range(1, 31):
            token = authority.issue_token(1, i)
            assert crs_verify(token, anchor, i, f) is CrsStatus.VALID_AT_PERIOD

    def test_revocation_token(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        authority.revoke(1)
        token = authority.issue_token(1, 7)
        assert crs_verify(token, anchor, 7, f) is CrsStatus.REVOKED

    def test_stale_replay_rejected(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        day1 = authority.issue_token(1, 1)
        assert crs_verify(day1, anchor, 2, f) is CrsStatus.INVALID_TOKEN

    def test_forged_period_hint_rejected(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        day1 = authority.issue_token(1, 1)
        forged = CrsToken(serial=1, kind=day1.kind, period=2, value=day1.value)
        assert crs_verify(forged, anchor, 2, f) is CrsStatus.INVALID_TOKEN

    def test_expired_certificate_rejected(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        token = authority.issue_token(1, 30)
        assert crs_verify(token, anchor, 31, f) is CrsStatus.INVALID_TOKEN
        assert crs_verify(token, anchor, 0, f) is CrsStatus.INVALID_TOKEN

    def test_garbage_value_rejected(self, authority, f, rng):
        [(anchor, _)] = authority.setup([1], 30, 86400, rng)
        junk = CrsToken(serial=1, kind=CrsTokenKind.VALID, period=3, value=b"\x01" * 12)
        assert crs_verify(junk, anchor, 3, f) is CrsStatus.INVALID_TOKEN

    def test_unforgeability_from_held_tokens(self, authority, f, rng):
        """An adversary holding every token up to period i cannot pass
        verification for period i+1, even hashing everything it holds."""
        [(anchor, _)] = authority.setup([1], 12, 86400, rng)
        held = [authority.issue_token(1, i).value for i in range(1, 7)]
        candidates = set(held)
        candidates.update(f.apply(v) for v in held)
        candidates.update(f.iterate(v, 2) for v in held)
        target = 7
        for value in candidates:
            forged = CrsToken(serial=1, kind=CrsTokenKind.VALID, period=target, value=value)
            assert crs_verify(forged, anchor, target, f) is not CrsStatus.VALID_AT_PERIOD


class TestPublishUpdate:
    def test_empty_population(self, authority):
        assert authority.publish_update({}) == []

    def test_one_token_per_live_certificate(self, authority, f, rng):
        for serial in range(1, 6):
            authority.setup([serial], 10, 86400, rng)
        tokens = authority.publish_update({s: 3 for s in range(1, 6)})
        assert len(tokens) == 5
        assert all(len(t.value) == f.width_bytes for t in tokens)  # ~100-bit values
        assert [t.serial for t in tokens] == [1, 2, 3, 4, 5]

    def test_kinds_match_revocation_ledger(self, authority, rng):
        revoked = {2, 4}
        for serial in range(1, 6):
            authority.setup([serial], 10, 86400, rng)
        for serial in revoked:
            authority.revoke(serial)
        tokens = authority.publish_update({s: 3 for s in range(1, 6)})
        for token in tokens:  # oracle: direct ledger lookup per serial
            expected = CrsTokenKind.REVOKED if token.serial in revoked else CrsTokenKind.VALID
            assert token.kind is expected

    def test_expired_serials_dropped(self, authority, rng):
        authority.setup([1], 3, 86400, rng)
        authority.setup([2], 10, 86400, rng)
        tokens = authority.publish_update({1: 4, 2: 4})
        assert [t.serial for t in tokens] == [2]


class TestAsOf:
    def test_cutoff_counts_only_earlier_revocations(self, authority, rng):
        for serial in range(1, 5):
            authority.setup([serial], 10, 86400, rng)
        before = authority.revocation_count
        authority.revoke(2)
        after_first = authority.revocation_count
        authority.revoke(4)
        authority.revoke(2)  # repeating a revocation keeps its place
        assert (before, after_first, authority.revocation_count) == (0, 1, 2)
        assert authority.issue_token(2, 3, as_of=before).kind is CrsTokenKind.VALID
        assert authority.issue_token(2, 3, as_of=after_first).kind is CrsTokenKind.REVOKED
        assert authority.issue_token(4, 3, as_of=after_first).kind is CrsTokenKind.VALID
        assert authority.issue_token(4, 3).kind is CrsTokenKind.REVOKED
        for cutoff in (0, 1, 2, None):
            assert authority.issue_token(1, 3, as_of=cutoff).kind is CrsTokenKind.VALID

    def test_late_tokens_equal_eager_updates(self, authority, rng):
        """Oracle: each period's eager publish_update. Tokens built after every
        revocation has happened, as_of that period's count, must equal it."""
        serials = list(range(1, 21))
        for serial in serials:
            authority.setup([serial], 12, 86400, rng)
        pending = serials[:]
        rng.shuffle(pending)
        snapshots = []
        for period in range(1, 13):
            for _ in range(rng.randrange(3)):
                if pending:
                    authority.revoke(pending.pop())
            eager = authority.publish_update({s: period for s in serials})
            snapshots.append((period, authority.revocation_count, eager))
        for period, cutoff, eager in snapshots:
            assert [authority.issue_token(s, period, as_of=cutoff) for s in serials] == eager
        assert any(t.kind is CrsTokenKind.REVOKED for t in snapshots[-1][2])


class TestWire:
    def test_round_trip(self, authority, f, rng):
        authority.setup([1], 10, 86400, rng)
        token = authority.issue_token(1, 3)
        data = token.to_bytes()
        assert len(data) == token_wire_size(f) == 8 + 1 + 4 + 13
        assert parse_token(data, f) == token

    def test_wrong_length_rejected(self, f):
        with pytest.raises(ValueError):
            parse_token(b"\x00" * 10, f)

    def test_kind_bytes(self, authority, f, rng):
        authority.setup([1], 10, 86400, rng)
        data = bytearray(authority.issue_token(1, 3).to_bytes())
        data[8] = 0
        data[9:13] = bytes(4)  # a revoked token's period is 0
        assert parse_token(bytes(data), f).kind is CrsTokenKind.REVOKED
        for junk in (2, 0x80, 0xFF):
            data[8] = junk
            with pytest.raises(ValueError):
                parse_token(bytes(data), f)

    @pytest.mark.parametrize("period", [1, 5, 2**32 - 1])
    def test_a_revoked_token_with_a_period_is_rejected(self, authority, f, rng, period):
        """crs_verify ignores a revoked token's period, so a decoder that took
        any period would give one revoked token 2**32 encodings."""
        authority.setup([1], 10, 86400, rng)
        authority.revoke(1)
        token = authority.issue_token(1, 5)
        assert token.kind is CrsTokenKind.REVOKED and token.period == 0
        data = bytearray(token.to_bytes())
        assert parse_token(bytes(data), f) == token
        data[9:13] = period.to_bytes(4, "big")
        with pytest.raises(DecodeError, match=f"token is revoked but has period {period}"):
            parse_token(bytes(data), f)

    def test_every_truncation_and_extension_is_rejected(self, authority, f, rng):
        authority.setup([1], 10, 86400, rng)
        data = authority.issue_token(1, 3).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(DecodeError, match="token truncated"):
                parse_token(data[:cut], f)
        with pytest.raises(DecodeError, match="token has 1 trailing bytes"):
            parse_token(data + b"\x00", f)


def test_verification_is_pure(authority, f, rng):
    """Directory-neutrality: the verdict is a function of token, anchor, and
    claimed period alone; repeated calls agree and touch no authority state."""
    [(anchor, _)] = authority.setup([1], 10, 86400, rng)
    token = authority.issue_token(1, 4)
    fresh_f = OneWayFunction(100)
    assert crs_verify(token, anchor, 4, f) is crs_verify(token, anchor, 4, fresh_f)


def _state(authority):
    """All that setup writes: kept chains, secrets, lifetimes, revocations, count."""
    return (
        dict(authority._chains),
        dict(authority._secrets),
        dict(authority._lifetimes),
        dict(authority._revoked),
        authority.f.apply_count,
    )


def _hung(signum, frame):
    raise TimeoutError("chain walk still running after 30 s")


@contextmanager
def chain_walk(split: bool):
    """Every tails batch walked in chunks by this process and a forked child
    (split) or all in this process, whatever the batch size and the CPUs;
    yields the os.fork spy. A walk left hanging raises TimeoutError after
    30 s."""
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(30)
    try:
        with mock.patch.object(core, "_SPLIT_APPLICATIONS", 0 if split else math.inf), \
                mock.patch.object(core, "_second_cpu", lambda: split), \
                mock.patch.object(os, "fork", wraps=os.fork) as fork:
            yield fork
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class WalkFault(Exception):
    pass


def _seeds(count: int, seed: int = 0) -> list[bytes]:
    rng = random.Random(seed)
    return [OneWayFunction(100).random_value(rng) for _ in range(count)]


def _in_parent(walk, delay: float, calls: list):
    """`OneWayFunction._tails` that, in this process only, records each
    chunk and sleeps delay seconds first, so the forked child takes the
    chunks this process is not quick enough to take."""
    parent = os.getpid()

    def slowed(self, seeds, n, first):
        if os.getpid() == parent:
            calls.append(len(seeds))
            time.sleep(delay)
        return walk(self, seeds, n, first)

    return slowed


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split walk forks a child")
class TestSplitWalk:
    """A batch walked in chunks by two processes equals the batch walked in
    one, and a walk that fails in either process sets up nothing and leaves
    no child behind."""

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.integers(min_value=1, max_value=50),
        lifetime=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
        data=st.data(),
    )
    def test_split_equals_inline(self, batch, lifetime, seed, data):
        served = data.draw(st.none() | st.integers(min_value=0, max_value=lifetime), label="served")
        results = []
        for split in (True, False):
            authority = CrsAuthority(OneWayFunction(100))
            rng = random.Random(seed)
            with chain_walk(split) as fork:
                issued = authority.setup(range(1, batch + 1), lifetime, DAY, rng, served=served)
            assert fork.call_count == 2 * split  # the Y chains, then each F(N0)
            results.append((issued, _state(authority), rng.getstate()))
        assert results[0] == results[1]
        assert results[0][1][-1] == lifetime * batch + batch  # the Y chains, then each F(N0)

    @pytest.mark.parametrize(
        "chunk_applications, n, batch",
        [
            # the real chunk of seeds of 40 applications: around one and two chunks
            *(
                (core._CHUNK_APPLICATIONS, 40, b)
                for c in [-(-core._CHUNK_APPLICATIONS // 40)]
                for b in (1, c - 1, c, c + 1, 2 * c - 1, 2 * c, 2 * c + 1)
            ),
            # one seed a chunk: around the most chunks the queue holds, past
            # which chunks grow to two seeds
            *(
                (1, 2, b)
                for q in [core._QUEUE_CHUNKS]
                for b in (q - 1, q, q + 1, 2 * q, 2 * q + 1)
            ),
        ],
    )
    def test_chunk_boundaries(self, chunk_applications, n, batch):
        seeds = _seeds(batch)
        f = OneWayFunction(100)
        with mock.patch.object(core, "_CHUNK_APPLICATIONS", chunk_applications):
            with chain_walk(split=True) as fork:
                tails = f.tails(seeds, n, 1)
        assert fork.call_count == 1
        assert tails == OneWayFunction(100)._tails(seeds, n, 1)
        assert f.apply_count == n * batch

    def test_slow_parent_leaves_the_child_more_chunks(self):
        """20 chunks of 50 seeds; this process sleeps 50 ms before each
        chunk it walks, in which the child walks several."""
        seeds = _seeds(1000)
        f = OneWayFunction(100)
        calls: list[int] = []
        slowed = _in_parent(OneWayFunction._tails, 0.05, calls)
        with mock.patch.object(core, "_CHUNK_APPLICATIONS", 50 * 40):
            with chain_walk(split=True) as fork, \
                    mock.patch.object(OneWayFunction, "_tails", slowed):
                tails = f.tails(seeds, 40, 30)
        assert fork.call_count == 1
        assert tails == OneWayFunction(100)._tails(seeds, 40, 30)
        assert f.apply_count == 40 * 1000
        assert set(calls) == {50}
        assert len(calls) < 20 / 2  # the child walked the most chunks

    @pytest.mark.parametrize(
        "where, fault",
        [("child", "raise"), ("child", "short"), ("child", "long"), ("parent", "raise")],
    )
    def test_failed_walk_sets_up_nothing(self, rng, where, fault):
        """400 chains of 40 applications are two chunks, and a chunk's tails
        are 41 values of 13 bytes for about 200 serials, over 100 KB, more
        than a 64 KiB pipe holds; so a parent that waited for the child
        before closing its end of the pipe would hang. Where the child is
        at fault, this process is slowed, so the child surely takes a chunk.
        A long record, read for the length its chunk must have, leaves
        bytes that are no record."""
        authority = CrsAuthority(OneWayFunction(100))
        authority.setup([1], 10, DAY, rng)
        before = _state(authority)
        parent = os.getpid()
        walk = OneWayFunction._tails
        if where == "child":
            walk = _in_parent(walk, 0.2, [])

        def faulty(self, seeds, n, first):
            tails = walk(self, seeds, n, first)
            if (os.getpid() == parent) != (where == "parent"):
                return tails
            if fault == "raise":
                raise WalkFault
            if fault == "long":
                return [tail + b"\0" for tail in tails]
            return [tail[:-1] for tail in tails]

        expected = WalkFault if where == "parent" else RuntimeError
        with chain_walk(split=True), mock.patch.object(OneWayFunction, "_tails", faulty):
            with pytest.raises(expected):
                authority.setup(range(2, 402), 40, DAY, rng)
        assert _state(authority) == before
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize(
        "serials, lifetime, served",
        [
            ([2, 3, 2], 10, None),  # a serial twice in the batch
            ([2, 1], 10, None),  # a serial set up before
            ([2, 3], 10, -1),
            ([2, 3], 10, 11),
            ([2, 3], 0, None),
        ],
    )
    def test_bad_batch_draws_nothing(self, rng, serials, lifetime, served):
        authority = CrsAuthority(OneWayFunction(100))
        authority.setup([1], 10, DAY, rng)
        before, drawn = _state(authority), rng.getstate()
        with pytest.raises(ValueError):
            authority.setup(serials, lifetime, DAY, rng, served=served)
        assert _state(authority) == before
        assert rng.getstate() == drawn
