"""The signed-record contract, checked on each of the seven signed types.

Every record here is built by its signing path, so the types whose signed
records hold the bytes they were signed over are tested holding them. The
four records signed on their own are made by `Signed.sign`, which checks a
record before it signs it.
"""

import dataclasses

import pytest

from revokebench.core import (
    DAY,
    Certificate,
    CrsAnchor,
    Ledger,
    RevocationRecord,
    Signature,
    Signed,
    UnknownKeyError,
)
from revokebench.crl import (
    CrlDocument,
    CrlIssuer,
    CrlKind,
    IssuanceSchedule,
    PartitionError,
    RedirectTable,
    make_redirect_table,
)
from revokebench.crt import SignedRoot, crt_build
from revokebench.responder import (
    OcspResponder,
    OcspStatus,
    ResponderKey,
    ResponderKeyChain,
    SignedStatusStatement,
    StatusResponse,
    make_key_chain,
    make_request,
    publish_statements,
)

SIGNED_TYPES = (
    Certificate,
    CrlDocument,
    RedirectTable,
    SignedRoot,
    StatusResponse,
    SignedStatusStatement,
    ResponderKeyChain,
)

# The records signed on their own, through `Signed.sign`
SIGNED_ALONE = (CrlDocument, RedirectTable, SignedRoot, ResponderKeyChain)


def forged(signature: Signature) -> Signature:
    return Signature(signature.key_id, bytes(len(signature.mac)))


def genuine_records(keystore, rng) -> dict:
    """Type name -> (a record built by signing, the key it verifies under,
    a different valid value for each of its fields)."""
    anchor = CrsAnchor(b"y" * 13, b"n" * 13, 365, DAY)
    ledger = Ledger()
    ledger.issue([5], [anchor], 0, DAY, keystore, "ca")
    cert = ledger.certificates[5]
    table = make_redirect_table(1, [(0, 99, "A"), (100, 999, "B")], keystore, "ca")
    issuer = CrlIssuer(keystore, "ca", IssuanceSchedule(base_period=DAY))
    doc = issuer.segment([RevocationRecord(5, 10), RevocationRecord(150, 20)], table, 100)[0]
    root = crt_build([5, 11], 0, DAY, keystore, "ca").signed_root
    chain = make_key_chain([ResponderKey("resp-a", 0, DAY)], keystore, "ca", rng)
    response = OcspResponder(keystore, chain, ledger).respond(make_request(5, 600, rng))
    statement = publish_statements(ledger, 7, 600, keystore, "ca")[5]
    return {
        "Certificate": (cert, "ca", dict(
            serial=6, not_before=1, not_after=2 * DAY,
            issuer_signature=forged(cert.signature), crs_anchor=None,
        )),
        "CrlDocument": (doc, "ca", dict(
            issuer="other", kind=CrlKind.FULL, this_update=101, next_update=DAY + 101,
            entries=((6, 10),), signature=forged(doc.signature), window_start=0,
            segment_id="B",
        )),
        "RedirectTable": (table, "ca", dict(
            version=2, ranges=((0, 199, "A"), (200, 999, "B")),
            signature=forged(table.signature),
        )),
        "SignedRoot": (root, "ca", dict(
            root=bytes(32), issued_at=1, next_update=DAY + 1, signature=forged(root.signature),
        )),
        "StatusResponse": (response, "resp-a", dict(
            serial=6, status=OcspStatus.REVOKED, produced_at=601, nonce=bytes(16),
            responder_key_id="resp-b", signature=forged(response.signature),
        )),
        "SignedStatusStatement": (statement, "ca", dict(
            serial=6, status=OcspStatus.REVOKED, period_index=8,
            signature=forged(statement.signature),
        )),
        "ResponderKeyChain": (chain, "ca", dict(
            keys=(ResponderKey("resp-a", 0, 2 * DAY),), signature=forged(chain.signature),
        )),
    }


def field_names(record) -> list[str]:
    if isinstance(record, tuple):
        return list(record._fields)
    return [f.name for f in dataclasses.fields(record)]


def altered(record, field: str, value):
    if isinstance(record, tuple):
        return record._replace(**{field: value})
    return dataclasses.replace(record, **{field: value})


NAMES = [t.__name__ for t in SIGNED_TYPES]


@pytest.mark.parametrize("name", NAMES)
class TestSignedContract:
    def test_genuine_record_verifies(self, keystore, rng, name):
        record, key, _ = genuine_records(keystore, rng)[name]
        assert type(record).__name__ == name
        assert record.signed_payload() == record._payload()
        assert record.verify(keystore, key)
        assert not record.verify(keystore, "other")

    def test_bytes_are_payload_then_signature(self, keystore, rng, name):
        record, _, _ = genuine_records(keystore, rng)[name]
        assert record.to_bytes() == record.signed_payload() + record.signature.to_bytes()
        assert record.wire_size == len(record.to_bytes())

    def test_every_altered_field_re_encodes_and_fails(self, keystore, rng, name):
        record, key, changes = genuine_records(keystore, rng)[name]
        assert sorted(changes) == sorted(field_names(record))
        for field, value in changes.items():
            copy = altered(record, field, value)
            assert getattr(copy, field) != getattr(record, field)
            assert copy.signed_payload() == copy._payload(), field
            assert copy.wire_size == len(copy.to_bytes()), field
            assert not copy.verify(keystore, key), field

    def test_contract_is_inherited_not_restated(self, name):
        cls = next(t for t in SIGNED_TYPES if t.__name__ == name)
        assert issubclass(cls, Signed)
        for attr in ("signed_payload", "to_bytes", "wire_size", "verify"):
            assert getattr(cls, attr) is getattr(Signed, attr)
        if cls in SIGNED_ALONE:
            assert cls.sign.__func__ is Signed.sign.__func__


def issuer(keystore):
    return CrlIssuer(keystore, "ca", IssuanceSchedule(base_period=DAY))


REPEATED = [RevocationRecord(5, 10), RevocationRecord(5, 10)]

# name -> (an attempt to sign a record that its checks reject, the error)
REJECTED = {
    "issue_full repeated serial": (
        lambda ks, rng: issuer(ks).issue_full(REPEATED, 100), ValueError,
    ),
    "segment repeated serial": (
        lambda ks, rng: issuer(ks).segment(
            REPEATED, RedirectTable(1, ((0, 999, "A"),), Signature("ca", b"")), 100
        ),
        ValueError,
    ),
    "redirect table overlapping ranges": (
        lambda ks, rng: make_redirect_table(1, [(0, 99, "A"), (50, 999, "B")], ks, "ca"),
        PartitionError,
    ),
    "key chain overlapping windows": (
        lambda ks, rng: make_key_chain(
            [ResponderKey("resp-a", 0, DAY), ResponderKey("resp-b", DAY - 1, 2 * DAY)],
            ks, "ca", rng,
        ),
        ValueError,
    ),
}


@pytest.mark.parametrize("name", list(REJECTED))
def test_a_rejected_record_signs_nothing(keystore, rng, name):
    attempt, error = REJECTED[name]
    with pytest.raises(error):
        attempt(keystore, rng)
    assert keystore.counts == {}
    for key_id in ("resp-a", "resp-b"):  # no responder key registered
        with pytest.raises(UnknownKeyError):
            keystore.sign(b"", key_id)
