"""Online responder: signed nonce-bound responses, cached acceptance, the
naive per-certificate statement baseline, and key rotation."""

import struct

import pytest

from revokebench.core import Ledger, make_certificate
from revokebench.responder import (
    OcspResponder,
    OcspStatus,
    ResponderKey,
    StatusResponse,
    accept_cached,
    make_key_chain,
    make_request,
    publish_statements,
    verify_key_chain,
    verify_response,
    verify_statement,
)


@pytest.fixture
def ledger(keystore):
    lg = Ledger()
    for serial in range(1, 6):
        lg.add_certificate(make_certificate(serial, f"s{serial}", 0, 1_000_000, keystore, "ca"))
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

    def test_flood_costs_one_signature_each(self, ocsp, rng):
        """Oracle: the request counter; every request is individually signed."""
        n = 500
        for _ in range(n):
            ocsp.respond(make_request(3, 600, rng))
        assert ocsp.requests_served == n
        assert ocsp.signatures_made == n

    def test_malformed_dropped_and_counted(self, ocsp):
        assert ocsp.handle_raw(b"short", 100) is None
        assert ocsp.malformed_dropped == 1
        assert ocsp.signatures_made == 0

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
        assert verify_key_chain(chain, keystore, "ca")


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


class TestAcceptCached:
    def test_zero_max_age_accepts_only_same_instant(self, ocsp, keystore, chain, rng):
        response = ocsp.respond(make_request(3, 600, rng))
        assert accept_cached(response, 0, 600, keystore, chain)
        assert not accept_cached(response, 0, 601, keystore, chain)

    def test_within_and_beyond_max_age(self, ocsp, keystore, chain, rng):
        response = ocsp.respond(make_request(3, 600, rng))
        max_age = 300
        assert accept_cached(response, max_age, 900, keystore, chain)  # exactly max_age
        assert not accept_cached(response, max_age, 901, keystore, chain)  # one past


class TestStatements:
    def test_empty_ledger(self, keystore):
        assert publish_statements(Ledger(), 1, 1000, keystore, "ca") == []

    def test_one_signed_statement_per_certificate(self, keystore, ledger):
        before = keystore.sign_count
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        assert len(statements) == 5
        assert keystore.sign_count - before == 5
        by_serial = {s.serial: s for s in statements}
        assert by_serial[2].status is OcspStatus.REVOKED
        assert by_serial[3].status is OcspStatus.GOOD
        for s in statements:
            assert verify_statement(s, keystore, "ca", 1)

    def test_expired_certificates_excluded(self, keystore):
        lg = Ledger()
        lg.add_certificate(make_certificate(1, "a", 0, 500, keystore, "ca"))
        lg.add_certificate(make_certificate(2, "b", 0, 5000, keystore, "ca"))
        statements = publish_statements(lg, 1, 1000, keystore, "ca")
        assert [s.serial for s in statements] == [2]

    def test_withholding_directory_detected(self, keystore, ledger):
        """A directory cannot hide a revocation by dropping the statement: the
        client demands one statement per query, and absence is a failure."""
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        dishonest = {s.serial: s for s in statements if s.status is not OcspStatus.REVOKED}

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
        assert {s.status for s in statements} == {OcspStatus.GOOD, OcspStatus.REVOKED}
        for s in statements:
            assert s.wire_size == len(s.to_bytes())
            assert verify_statement(s, keystore, "ca", 7)

    def test_stale_period_rejected(self, keystore, ledger):
        statements = publish_statements(ledger, 1, 1000, keystore, "ca")
        assert not verify_statement(statements[0], keystore, "ca", expected_period=2)
