"""Real-time status services.

An online responder returns signed, nonce-bound statements that a certificate
has (or has not) been revoked; "good" promises nothing beyond non-revocation.
Responder keys are short-lived and rotate along a CA-published key chain.
The per-certificate signed-statement baseline that hash-chain tokens improve
on lives here too.

Requests, responses and statements are tuples, not frozen dataclasses,
because nonce-mode OCSP builds a request and a response on every validation
and a period builds a statement per live certificate. A request is a
`core.Checked` tuple, its nonce length checked on every way of building one.
Responses, statements and the key chain are `core.Signed` records, checked
by their signature instead; a response from `OcspResponder.respond` holds
the bytes it was signed over, so its client verifies them without encoding
the fields again.

The responder key chain is indexed by window start when it is built, so the
current key at an instant is one bisection, however many keys rotate.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional

from .core import (
    Checked, KeyStore, Ledger, Signature, Signed, keep_payload, pack_str, pack_u32, pack_u64
)


class OcspStatus(Enum):
    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


NONCE_BYTES = 16

_STATUS_FIELD = {status: pack_str(status.value) for status in OcspStatus}


class _StatusRequestFields(NamedTuple):
    serial: int
    nonce: bytes
    sent_at: int


class StatusRequest(Checked, _StatusRequestFields):
    """A nonce-bound status query."""

    __slots__ = ()

    def _check(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")

    def to_bytes(self) -> bytes:
        return pack_u64(self.serial) + self.nonce + pack_u64(self.sent_at)

    @property
    def wire_size(self) -> int:
        # serial, nonce, sent_at
        return 8 + len(self.nonce) + 8


def make_request(serial: int, now: int, rng) -> StatusRequest:
    nonce = rng.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "big")
    return StatusRequest(serial, nonce, now)


_pack_time_and_length = struct.Struct(">QI").pack  # produced_at, the nonce's length prefix


def _response_payload(
    serial: int, status: OcspStatus, produced_at: int, nonce: bytes, key_id: str
) -> bytes:
    return (
        pack_u64(serial)
        + _STATUS_FIELD[status]
        + _pack_time_and_length(produced_at, len(nonce))
        + nonce
        + pack_str(key_id)
    )


class _StatusResponseFields(NamedTuple):
    serial: int
    status: OcspStatus
    produced_at: int
    nonce: bytes
    responder_key_id: str
    signature: Signature


class StatusResponse(Signed, _StatusResponseFields):
    """A signed answer to one request. Unlike the other tuple records it
    has an instance dict, to hold the bytes it was signed over."""

    def _payload(self) -> bytes:
        serial, status, produced_at, nonce, key_id, _ = self
        return _response_payload(serial, status, produced_at, nonce, key_id)


@dataclass(frozen=True)
class ResponderKey:
    key_id: str
    valid_from: int
    valid_to: int


def _key_chain_payload(keys: tuple[ResponderKey, ...]) -> bytes:
    parts = [pack_u32(len(keys))]
    parts.extend(pack_str(k.key_id) + pack_u64(k.valid_from) + pack_u64(k.valid_to) for k in keys)
    return b"".join(parts)


def _check_windows(keys) -> None:
    """Every window non-empty, and the windows sorted and disjoint."""
    for k in keys:
        if not k.valid_from < k.valid_to:
            raise ValueError(f"responder key {k.key_id} has an empty validity window")
    for a, b in zip(keys, keys[1:]):
        if b.valid_from < a.valid_from:
            raise ValueError(f"responder key {b.key_id} starts before {a.key_id}: unsorted")
        if b.valid_from < a.valid_to:
            raise ValueError(f"responder keys {a.key_id} and {b.key_id} overlap")


@dataclass(frozen=True)
class ResponderKeyChain(Signed):
    """Short-lived responder keys, their validity windows signed by the CA.

    The windows must be non-empty, sorted and disjoint, so at most one key is
    valid at any instant and the chain finds it by bisecting the starts.
    """

    keys: tuple[ResponderKey, ...]
    signature: Signature

    def __post_init__(self) -> None:
        _check_windows(self.keys)

    @cached_property
    def _starts(self) -> list[int]:
        return [k.valid_from for k in self.keys]

    def _key_at(self, at: int) -> Optional[ResponderKey]:
        i = bisect_right(self._starts, at) - 1
        if i < 0:
            return None
        key = self.keys[i]
        return key if at < key.valid_to else None

    def _payload(self) -> bytes:
        return _key_chain_payload(self.keys)

    def current_key(self, now: int) -> str:
        key = self._key_at(now)
        if key is None:
            raise LookupError(f"no responder key valid at {now}")
        return key.key_id

    def is_current(self, key_id: str, at: int) -> bool:
        key = self._key_at(at)
        return key is not None and key.key_id == key_id


def make_key_chain(
    keys: list[ResponderKey],
    keystore: KeyStore,
    ca_key: str,
    key_rng,
) -> ResponderKeyChain:
    """Register the listed keys and publish their CA-signed validity chain.

    Windows that are empty, unsorted or overlapping raise ValueError before
    any key is registered or anything is signed.
    """
    _check_windows(keys)
    for k in keys:
        keystore.generate(k.key_id, key_rng)
    chain_keys = tuple(keys)
    payload = _key_chain_payload(chain_keys)
    return keep_payload(ResponderKeyChain(chain_keys, keystore.sign(payload, ca_key)), payload)


class OcspResponder:
    """Signs one response per well-formed request; malformed ones are dropped
    and counted, never answered (unsigned answers would invite spoofed-
    revocation denial of service)."""

    def __init__(self, keystore: KeyStore, chain: ResponderKeyChain, ledger: Ledger) -> None:
        self.keystore = keystore
        self.chain = chain
        self.ledger = ledger
        self.requests_served = 0
        self.malformed_dropped = 0

    def status_of(self, serial: int, at: int) -> OcspStatus:
        # Never-issued serials are unknown, not good: the responder does not
        # vouch that the serial belongs to any certificate.
        if not self.ledger.is_issued(serial):
            return OcspStatus.UNKNOWN
        if self.ledger.is_revoked(serial, at):
            return OcspStatus.REVOKED
        return OcspStatus.GOOD

    def respond(self, request: StatusRequest, now: Optional[int] = None) -> StatusResponse:
        produced_at = request.sent_at if now is None else now
        key_id = self.chain.current_key(produced_at)
        self.requests_served += 1
        status = self.status_of(request.serial, produced_at)
        serial, nonce, _ = request
        payload = _response_payload(serial, status, produced_at, nonce, key_id)
        response = StatusResponse(
            serial, status, produced_at, nonce, key_id, self.keystore.sign(payload, key_id)
        )
        return keep_payload(response, payload)

    def handle_raw(self, data: bytes, now: int) -> Optional[StatusResponse]:
        if len(data) != 8 + NONCE_BYTES + 8:
            self.malformed_dropped += 1
            return None
        request = StatusRequest(
            serial=int.from_bytes(data[0:8], "big"),
            nonce=data[8 : 8 + NONCE_BYTES],
            sent_at=int.from_bytes(data[8 + NONCE_BYTES :], "big"),
        )
        return self.respond(request, now)


def verify_response(
    response: StatusResponse,
    request: StatusRequest,
    keystore: KeyStore,
    chain: ResponderKeyChain,
) -> bool:
    """Nonce-mode acceptance: signature under a chain-current key, and the
    response must echo this request's nonce and serial (replay rejection)."""
    if response.serial != request.serial or response.nonce != request.nonce:
        return False
    key_id = response.responder_key_id
    return chain.is_current(key_id, response.produced_at) and response.verify(keystore, key_id)


def cached_until(response: StatusResponse, max_age: int) -> int:
    """The first instant a cached response is too old to use: it is usable
    while now - produced_at <= max_age."""
    return response.produced_at + max_age + 1


def _statement_tail(status: OcspStatus, period_index: int) -> bytes:
    """A statement's payload after its serial: the same for every statement
    of one status in one period."""
    return _STATUS_FIELD[status] + pack_u32(period_index)


class _StatementFields(NamedTuple):
    serial: int
    status: OcspStatus
    period_index: int
    signature: Signature


class SignedStatusStatement(Signed, _StatementFields):
    """Naive baseline: one signed statement per non-expired certificate per
    period, positive and negative both (an untrusted directory could
    otherwise withhold the negatives)."""

    __slots__ = ()

    def _payload(self) -> bytes:
        return pack_u64(self.serial) + _statement_tail(self.status, self.period_index)


def publish_statements(
    ledger: Ledger,
    period_index: int,
    now: int,
    keystore: KeyStore,
    key_id: str,
) -> list[SignedStatusStatement]:
    """Sign one statement per non-expired certificate, in serial order.

    The period is signed in one batch: every payload is encoded in one pass
    (the status and period bytes are the same for every statement of a
    status, so they are joined once), then `KeyStore.sign_batch` MACs them
    all under the one key, which it looks up and counts once.
    """
    good, revoked = OcspStatus.GOOD, OcspStatus.REVOKED
    good_tail = _statement_tail(good, period_index)
    revoked_tail = _statement_tail(revoked, period_index)
    revoked_now = {s for s, r in ledger.revocations.items() if r.revoked_at <= now}
    serials = ledger.non_expired_serials(now)
    statuses = [revoked if s in revoked_now else good for s in serials]
    payloads = [
        pack_u64(s) + (good_tail if status is good else revoked_tail)
        for s, status in zip(serials, statuses)
    ]
    signatures = keystore.sign_batch(payloads, key_id)
    new = tuple.__new__
    return [
        new(SignedStatusStatement, (s, status, period_index, sig))
        for s, status, sig in zip(serials, statuses, signatures)
    ]


def statements_wire_size(statements: list[SignedStatusStatement]) -> int:
    """The bytes of one period's statements from `publish_statements`.

    Every statement of a period carries a signature under the one key, so
    the total is a fixed payload size per status (the serial and the
    status's tail) plus one signature size per statement, with no
    per-statement property call.
    """
    if not statements:
        return 0
    period_index = statements[0].period_index
    statuses = list(map(itemgetter(1), statements))
    heads = sum(
        len(pack_u64(0) + _statement_tail(status, period_index)) * statuses.count(status)
        for status in OcspStatus
    )
    return heads + len(statements) * statements[0].signature.wire_size


def verify_statement(
    statement: SignedStatusStatement,
    keystore: KeyStore,
    key_id: str,
    expected_period: int,
) -> bool:
    return statement.period_index == expected_period and statement.verify(keystore, key_id)
