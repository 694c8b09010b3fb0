"""Online responder: signed nonce-bound responses, cached acceptance, the
naive per-certificate statement baseline, and key rotation."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revokebench.core import KeyStore, Ledger, Signature, UnknownKeyError, make_certificate
from revokebench.responder import (
    OcspResponder,
    OcspStatus,
    ResponderKey,
    ResponderKeyChain,
    SignedStatusStatement,
    StatusRequest,
    StatusResponse,
    cached_until,
    make_key_chain,
    make_request,
    publish_statements,
    verify_response,
    verify_statement,
)


@pytest.fixture
def ledger(keystore):
    lg = Ledger()
    for serial in range(1, 6):
        lg.issue([serial], [None], 0, 1_000_000, keystore, "ca")
    lg.revoke(2, 500)
    return lg


@pytest.fixture
def chain(keystore, rng):
    return make_key_chain(
        [ResponderKey("resp-a", 0, 10_000), ResponderKey("resp-b", 10_000, 2_000_000)],
        keystore,
        "ca",
        rng,
    )


@pytest.fixture
def ocsp(keystore, chain, ledger):
    return OcspResponder(keystore, chain, ledger)


class TestRespond:
    def test_revoked_serial(self, ocsp, keystore, chain, rng):
        request = make_request(2, 600, rng)
        response = ocsp.respond(request)
        assert response.status is OcspStatus.REVOKED
        assert verify_response(response, request, keystore, chain)

    def test_good_only_means_not_revoked(self, ocsp, rng):
        assert ocsp.respond(make_request(3, 600, rng)).status is OcspStatus.GOOD
        # revocation instant not yet reached: still good
        assert ocsp.respond(make_request(2, 400, rng)).status is OcspStatus.GOOD

    def test_unissued_serial_is_unknown(self, ocsp, rng):
        assert ocsp.respond(make_request(999, 600, rng)).status is OcspStatus.UNKNOWN

    def test_wrong_nonce_rejected_as_replay(self, ocsp, keystore, chain, rng):
        first = make_request(3, 600, rng)
        response = ocsp.respond(first)
        second = make_request(3, 700, rng)
        assert not verify_response(response, second, keystore, chain)

    def test_tampered_response_rejected(self, ocsp, keystore, chain, rng):
        request = make_request(2, 600, rng)
        response = ocsp.respond(request)
        forged = StatusResponse(
            serial=response.serial,
            status=OcspStatus.GOOD,  # flip revoked -> good
            produced_at=response.produced_at,
            nonce=response.nonce,
            responder_key_id=response.responder_key_id,
            signature=response.signature,
        )
        assert not verify_response(forged, request, keystore, chain)

    def test_flood_costs_one_signature_each(self, ocsp, keystore, rng):
        """Oracle: the KeyStore's own count; every request is individually signed."""
        n = 500
        before = keystore.sign_count
        for _ in range(n):
            ocsp.respond(make_request(3, 600, rng))
        assert keystore.sign_count - before == n

    def test_malformed_dropped_and_counted(self, ocsp, keystore):
        before = keystore.sign_count
        assert ocsp.handle_raw(b"short", 100) is None
        assert ocsp.malformed_dropped == 1
        assert keystore.sign_count - before == 0

    def test_key_rotation(self, ocsp, keystore, chain, rng):
        early = ocsp.respond(make_request(3, 600, rng))
        late = ocsp.respond(make_request(3, 20_000, rng))
        assert early.responder_key_id == "resp-a"
        assert late.responder_key_id == "resp-b"
        # a response claiming production outside its key window is rejected
        stale_claim = StatusResponse(
            serial=early.serial,
            status=early.status,
            produced_at=50_000,
            nonce=early.nonce,
            responder_key_id="resp-a",
            signature=early.signature,
        )
        request = make_request(3, 50_000, rng)
        assert not verify_response(stale_claim, request, keystore, chain)

    def test_chain_signed_by_ca(self, keystore, chain):
        assert chain.verify(keystore, "ca")


def reference_response_payload(response: StatusResponse) -> bytes:
    """Per-field encoding of the signed response fields, spelled out."""

    def text(b):
        return struct.pack(">I", len(b)) + b

    return (
        struct.pack(">Q", response.serial)
        + text(response.status.value.encode("utf-8"))
        + struct.pack(">Q", response.produced_at)
        + text(response.nonce)
        + text(response.responder_key_id.encode("utf-8"))
    )


class TestResponseEncoding:
    @pytest.mark.parametrize("serial,at", [(2, 600), (3, 600), (999, 600), (3, 20_000)])
    def test_payload_is_pinned(self, ocsp, keystore, rng, serial, at):
        response = ocsp.respond(make_request(serial, at, rng))
        assert response.signed_payload() == reference_response_payload(response)
        assert keystore.verify(
            reference_response_payload(response), response.signature, response.responder_key_id
        )

    @pytest.mark.parametrize("serial,at", [(2, 600), (3, 600), (999, 600), (3, 20_000)])
    def test_wire_size_is_the_encoding_length(self, ocsp, rng, serial, at):
        response = ocsp.respond(make_request(serial, at, rng))
        assert response.wire_size == len(response.to_bytes())

    def test_one_signature_per_respond(self, ocsp, keystore, rng):
        for i in range(1, 6):
            before = keystore.sign_count
            ocsp.respond(make_request(i, 600 + i, rng))
            assert keystore.sign_count - before == 1


class TestReplacedResponse:
    """respond hands its signed payload to the response it returns. A
    `_replace` copy with altered fields must encode those fields again and
    so fail."""

    @pytest.mark.parametrize(
        "changes",
        [
            {"status": OcspStatus.GOOD},
            {"status": OcspStatus.UNKNOWN},
            {"serial": 3},
            {"nonce": b"\x07" * 16},
            {"produced_at": 601},
            {"serial": 3, "nonce": b"\x07" * 16},
        ],
    )
    def test_altered_fields_fail_verification(self, ocsp, keystore, chain, rng, changes):
        request = make_request(2, 600, rng)
        response = ocsp.respond(request)
        assert verify_response(response, request, keystore, chain)
        altered = response._replace(**changes)
        assert altered.signed_payload() == reference_response_payload(altered)
        assert altered.signed_payload() != response.signed_payload()
        assert altered.wire_size == len(altered.to_bytes())
        # a request the altered response echoes, so only the MAC can reject it
        echoed = StatusRequest(serial=altered.serial, nonce=altered.nonce, sent_at=600)
        assert not verify_response(altered, echoed, keystore, chain)
        assert not altered.verify(keystore, altered.responder_key_id)

    def test_unchanged_replace_still_verifies(self, ocsp, keystore, chain, rng):
        request = make_request(2, 600, rng)
        copy = ocsp.respond(request)._replace()
        assert verify_response(copy, request, keystore, chain)



class TestRequestAndResponseRecords:
    """Requests and responses are immutable value records, and every way of
    building a request checks its nonce length."""

    @pytest.mark.parametrize("nonce", [b"", b"\x00" * 15, b"\x00" * 17])
    def test_every_request_construction_checks_the_nonce(self, rng, nonce):
        with pytest.raises(ValueError):
            StatusRequest(3, nonce, 600)
        with pytest.raises(ValueError):
            StatusRequest._make((3, nonce, 600))
        with pytest.raises(ValueError):
            make_request(3, 600, rng)._replace(nonce=nonce)

    def test_fields_cannot_be_set(self, ocsp, rng):
        request = make_request(3, 600, rng)
        response = ocsp.respond(request)
        for record in (request, response):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
        with pytest.raises(AttributeError):
            request.extra = 1

    def test_equal_and_hashable_by_value(self, ocsp, rng):
        request = make_request(3, 600, rng)
        twin = StatusRequest(request.serial, bytes(request.nonce), request.sent_at)
        assert twin == request and hash(twin) == hash(request)
        assert len({request, twin, request._replace(sent_at=601)}) == 2
        response, again = ocsp.respond(request), ocsp.respond(twin)
        assert response is not again
        assert again == response and hash(again) == hash(response)
        assert len({response, again, response._replace(produced_at=601)}) == 2

    def test_request_wire_size_is_the_encoding_length(self, ocsp, keystore, chain, rng):
        request = make_request(3, 600, rng)
        assert request.wire_size == len(request.to_bytes()) == 8 + 16 + 8
        # the encoding is what handle_raw reads back
        response = ocsp.handle_raw(request.to_bytes(), 600)
        assert verify_response(response, request, keystore, chain)


def scanned_key(keys, at):
    """Oracle: the linear scan the chain's bisection replaces."""
    for k in keys:
        if k.valid_from <= at < k.valid_to:
            return k.key_id
    return None


class TestKeyChainLookup:
    @settings(max_examples=80, deadline=None)
    @given(
        start=st.integers(0, 3),
        windows=st.lists(
            st.tuples(st.integers(0, 4), st.integers(1, 5), st.sampled_from("abc")), max_size=10
        ),
    )
    def test_bisection_matches_the_linear_scan(self, start, windows):
        """Sorted disjoint windows, some with gaps between them, key ids
        repeating; every instant from before the first to past the last."""
        keys, t = [], start
        for gap, length, key_id in windows:
            t += gap
            keys.append(ResponderKey(key_id, t, t + length))
            t += length
        chain = ResponderKeyChain(tuple(keys), Signature("ca", b""))
        for at in range(t + 3):
            expected = scanned_key(keys, at)
            if expected is None:
                with pytest.raises(LookupError):
                    chain.current_key(at)
            else:
                assert chain.current_key(at) == expected
            for key_id in "abcd":
                assert chain.is_current(key_id, at) == any(
                    k.key_id == key_id and k.valid_from <= at < k.valid_to for k in keys
                )

    @pytest.mark.parametrize(
        "keys,match",
        [
            ([ResponderKey("a", 5, 5)], "empty"),
            ([ResponderKey("a", 0, 10), ResponderKey("b", 20, 19)], "empty"),
            ([ResponderKey("a", 10, 20), ResponderKey("b", 0, 10)], "unsorted"),
            ([ResponderKey("a", 0, 10), ResponderKey("b", 9, 20)], "overlap"),
        ],
        ids=["empty", "empty-later", "unsorted", "overlapping"],
    )
    def test_bad_windows_rejected_before_anything_is_registered(
        self, keystore, rng, keys, match
    ):
        counts, rng_state = dict(keystore.counts), rng.getstate()
        with pytest.raises(ValueError, match=match):
            make_key_chain(keys, keystore, "ca", rng)
        assert keystore.counts == counts and rng.getstate() == rng_state
        for k in keys:
            with pytest.raises(UnknownKeyError):
                keystore.verify(b"", Signature(k.key_id, b""), k.key_id)
        with pytest.raises(ValueError, match=match):
            ResponderKeyChain(tuple(keys), Signature("ca", b""))


class TestCachedUntil:
    def test_zero_max_age_accepts_only_same_instant(self, ocsp, rng):
        response = ocsp.respond(make_request(3, 600, rng))
        assert cached_until(response, 0) == response.produced_at + 1 == 601

    def test_within_and_beyond_max_age(self, ocsp, rng):
        response = ocsp.respond(make_request(3, 600, rng))
        # usable at 900 (exactly max_age old), too old from 901
        assert cached_until(response, 300) == response.produced_at + 301 == 901


def eager_statements(ledger, period_index, now, secret, key_id):
    """Oracle for publish_statements: every statement built as a record at
    once, in serial order, its MAC computed with hmac.new over its payload,
    as a period was published before it was kept as one batch."""
    out = []
    for serial, cert in sorted(ledger.certificates.items()):
        if now >= cert.not_after:
            continue
        revoked = ledger.is_revoked(serial, now)
        status = OcspStatus.REVOKED if revoked else OcspStatus.GOOD
        unsigned = SignedStatusStatement(serial, status, period_index, Signature(key_id, b""))
        mac = hmac.new(secret, unsigned._payload(), hashlib.sha256).digest()
        out.append(unsigned._replace(signature=Signature(key_id, mac)))
    return out


STATEMENT_SECRET = b"statement-oracle-key"


@st.composite
def statement_ledgers(draw):
    """A ledger of 0-6 batches of up to 12 certificates, each batch with a
    window of its own, some certificates revoked inside their windows; and
    an instant that may fall before, inside or after any of the windows."""
    keystore = KeyStore()
    keystore.register("ca", b"issuer")
    ledger = Ledger()
    serials = iter(draw(st.permutations(range(1, 6 * 12 + 1))))
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        not_before = draw(st.integers(min_value=0, max_value=1000))
        not_after = not_before + draw(st.integers(min_value=1, max_value=1000))
        batch = [next(serials) for _ in range(draw(st.integers(min_value=0, max_value=12)))]
        ledger.issue(batch, [None] * len(batch), not_before, not_after, keystore, "ca")
        for serial in batch:
            if draw(st.booleans()):
                at = draw(st.integers(min_value=not_before, max_value=not_after - 1))
                ledger.revoke(serial, at)
    return ledger, draw(st.integers(min_value=0, max_value=2100))


class TestStatementBatch:
    """A period kept as one batch reads as the statements built at once."""

    @settings(max_examples=80, deadline=None)
    @given(
        drawn=statement_ledgers(),
        period=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batch_equals_the_eager_statements(self, drawn, period):
        ledger, now = drawn
        keystore = KeyStore()
        keystore.register("ca", STATEMENT_SECRET)
        batch = publish_statements(ledger, period, now, keystore, "ca")
        oracle = eager_statements(ledger, period, now, STATEMENT_SECRET, "ca")
        assert keystore.counts == ({("sign", None): len(oracle)} if oracle else {})
        assert len(batch) == len(oracle) == len(ledger.non_expired_serials(now))
        assert list(batch) == [s.serial for s in oracle]
        for expected in oracle:
            got = batch[expected.serial]
            assert type(got) is SignedStatusStatement
            assert got.serial == expected.serial
            assert got.status is expected.status
            assert got.period_index == expected.period_index == period
            assert got.signature == expected.signature
            assert got.to_bytes() == expected.to_bytes()
            assert verify_statement(got, keystore, "ca", period)
        assert batch.wire_size == sum(len(s.to_bytes()) for s in batch.values())
        assert keystore.sign_count == len(oracle)  # reading a statement signs nothing

    def test_empty_ledger_signs_nothing(self):
        keystore = KeyStore()
        keystore.register("ca", STATEMENT_SECRET)
        batch = publish_statements(Ledger(), 1, 1000, keystore, "ca")
        assert len(batch) == batch.wire_size == 0
        assert keystore.counts == {}  # no zero entry for reports to list

    def test_unknown_serial_is_missing(self, keystore, ledger):
        batch = publish_statements(ledger, 1, 1000, keystore, "ca")
        assert 6 not in batch and 0 not in batch and 5 in batch
        assert batch.get(6) is None
        with pytest.raises(KeyError):
            batch[6]


class TestStatements:
    def test_empty_ledger(self, keystore):
        assert publish_statements(Ledger(), 1, 1000, keystore, "ca") == {}

    def test_one_signed_statement_per_certificate(self, keystore, ledger):
        before = keystore.sign_count
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        assert len(statements) == 5
        assert keystore.sign_count - before == 5
        assert statements[2].status is OcspStatus.REVOKED
        assert statements[3].status is OcspStatus.GOOD
        for s in statements.values():
            assert verify_statement(s, keystore, "ca", 1)

    def test_expired_certificates_excluded(self, keystore):
        lg = Ledger()
        lg.issue([1], [None], 0, 500, keystore, "ca")
        lg.issue([2], [None], 0, 5000, keystore, "ca")
        statements = publish_statements(lg, 1, 1000, keystore, "ca")
        assert [s.serial for s in statements.values()] == [2]

    def test_withholding_directory_detected(self, keystore, ledger):
        """A directory cannot hide a revocation by dropping the statement: the
        client demands one statement per query, and absence is a failure."""
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        dishonest = {
            s.serial: s for s in statements.values() if s.status is not OcspStatus.REVOKED
        }

        def client_checks(serial):
            statement = dishonest.get(serial)
            if statement is None:
                return "withheld"  # detected: no statement arrived at all
            assert verify_statement(statement, keystore, "ca", 1)
            return statement.status.value

        assert client_checks(3) == "good"
        assert client_checks(2) == "withheld"

    def test_one_encoding_per_statement(self, keystore, ledger):
        before = keystore.sign_count
        statements = publish_statements(ledger, 7, 1000, keystore, "ca")
        assert keystore.sign_count - before == len(statements)
        assert {s.status for s in statements.values()} == {OcspStatus.GOOD, OcspStatus.REVOKED}
        for s in statements.values():
            assert s.wire_size == len(s.to_bytes())
            assert verify_statement(s, keystore, "ca", 7)
        assert statements.wire_size == sum(len(s.to_bytes()) for s in statements.values())
        assert publish_statements(Ledger(), 7, 1000, keystore, "ca").wire_size == 0

    def test_stale_period_rejected(self, keystore, ledger):
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        assert not verify_statement(statements[1], keystore, "ca", expected_period=2)


class TestStatementRecord:
    """A statement is an immutable value record whose signature covers
    every field."""

    @pytest.fixture
    def statements(self, keystore, ledger):
        return list(publish_statements(ledger, 1, 1000, keystore, "ca").values())

    def test_fields_cannot_be_set(self, statements):
        with pytest.raises(AttributeError):
            statements[0].status = OcspStatus.REVOKED
        with pytest.raises(AttributeError):
            statements[0].extra = 1

    def test_equal_and_hashable_by_value(self, keystore, ledger, statements):
        again = list(publish_statements(ledger, 1, 1000, keystore, "ca").values())
        assert again == statements
        assert [hash(s) for s in again] == [hash(s) for s in statements]
        assert len(set(statements) | set(again)) == len(statements)

    def test_altered_fields_fail_verification(self, keystore, statements):
        revoked = next(s for s in statements if s.status is OcspStatus.REVOKED)
        assert verify_statement(revoked, keystore, "ca", 1)
        assert not verify_statement(revoked._replace(status=OcspStatus.GOOD), keystore, "ca", 1)
        moved = revoked._replace(period_index=2)
        assert not verify_statement(moved, keystore, "ca", 2)
