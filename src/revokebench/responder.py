"""Real-time status services.

An online responder returns signed, nonce-bound statements that a certificate
has (or has not) been revoked; "good" promises nothing beyond non-revocation.
Responder keys are short-lived and rotate along a CA-published key chain.
The per-certificate signed-statement baseline that hash-chain tokens improve
on lives here too.

Requests, responses and statements are tuples, not frozen dataclasses,
because nonce-mode OCSP builds a request and a response on every validation
and a naive client reads a statement on every validation. A request is a
`core.Checked` tuple, its nonce length checked on every way of building one.
Responses, statements and the key chain are `core.Signed` records, checked
by their signature instead. The key chain is signed on its own by
`Signed.sign`, which checks its windows before it signs; a period's
statements are MACed in one batch by `KeyStore.mac_batch`; and
`OcspResponder.respond` signs each response directly, since a tuple cannot
take its signature after it is built. A response holds the bytes it was
signed over, so its client verifies them without encoding the fields again.

The responder key chain is indexed by window start when it is built, so the
current key at an instant is one bisection, however many keys rotate.

A period of the naive baseline signs a statement per live certificate, but
clients read few of them, so the period is kept as one `StatementBatch`: its
serials, the revoked ones among them and the MACs as one bytes, with a
statement built only when it is read.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

from .core import (
    MAC_BYTES, Checked, KeyStore, Ledger, Signature, Signed, keep_payload, pack_str, pack_u32,
    pack_u64,
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


@dataclass(frozen=True)
class ResponderKeyChain(Signed):
    """Short-lived responder keys, their validity windows signed by the CA.

    The windows must be non-empty, sorted and disjoint, so at most one key is
    valid at any instant and the chain finds it by bisecting the starts.
    """

    keys: tuple[ResponderKey, ...]
    signature: Signature

    def __post_init__(self) -> None:
        keys = self.keys
        for k in keys:
            if not k.valid_from < k.valid_to:
                raise ValueError(f"responder key {k.key_id} has an empty validity window")
        for a, b in zip(keys, keys[1:]):
            if b.valid_from < a.valid_from:
                raise ValueError(f"responder key {b.key_id} starts before {a.key_id}: unsorted")
            if b.valid_from < a.valid_to:
                raise ValueError(f"responder keys {a.key_id} and {b.key_id} overlap")

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
        parts = [pack_u32(len(self.keys))]
        parts.extend(
            pack_str(k.key_id) + pack_u64(k.valid_from) + pack_u64(k.valid_to) for k in self.keys
        )
        return b"".join(parts)

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
    """Sign the listed keys' validity chain under the CA key, then register
    the keys.

    Windows that are empty, unsorted or overlapping raise ValueError before
    anything is signed or any key is registered.
    """
    chain = ResponderKeyChain.sign(keystore, ca_key, keys=tuple(keys))
    for k in keys:
        keystore.generate(k.key_id, key_rng)
    return chain


class OcspResponder:
    """Signs one response per well-formed request; malformed ones are dropped
    and counted, never answered (unsigned answers would invite spoofed-
    revocation denial of service)."""

    def __init__(self, keystore: KeyStore, chain: ResponderKeyChain, ledger: Ledger) -> None:
        self.keystore = keystore
        self.chain = chain
        self.ledger = ledger
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
        status = self.status_of(request.serial, produced_at)
        serial, nonce, _ = request
        # Built whole with its signature, not by `Signed.sign`: a NamedTuple
        # cannot take its signature after it is built, and this runs once per
        # nonce-mode validation, 22,414 times in a validation_storm rep. On a
        # 2-vCPU Xeon VM a response built this way takes 4.1 us; built, then
        # given its signature by `_replace`, 5.3-5.6 us.
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


class StatementBatch(Mapping):
    """One period's statements as a read-only serial -> SignedStatusStatement
    mapping, in serial order.

    It holds what the statements share once, the period and the key id, then
    the ascending serials, the revoked ones among them and the MACs as one
    bytes of 32 per statement. Each read builds the statement from them, and
    nothing keeps it. `wire_size` is the bytes of all its statements.
    """

    __slots__ = ("period_index", "key_id", "serials", "revoked", "macs", "wire_size")

    def __init__(
        self, period_index: int, key_id: str, serials: list[int], revoked: set[int], macs: bytes
    ) -> None:
        self.period_index = period_index
        self.key_id = key_id
        self.serials = serials
        self.revoked = revoked
        self.macs = macs
        # Every statement of a status has one payload size, and every
        # signature is under the one key, so one of each sizes them all.
        good, bad = (
            len(pack_u64(0) + _statement_tail(status, period_index))
            for status in (OcspStatus.GOOD, OcspStatus.REVOKED)
        )
        signature = Signature(key_id, macs[:MAC_BYTES]).wire_size
        self.wire_size = (
            good * (len(serials) - len(revoked)) + bad * len(revoked) + signature * len(serials)
        )

    def __getitem__(self, serial: int) -> SignedStatusStatement:
        serials = self.serials
        i = bisect_left(serials, serial)
        if i == len(serials) or serials[i] != serial:
            raise KeyError(serial)
        status = OcspStatus.REVOKED if serial in self.revoked else OcspStatus.GOOD
        new = tuple.__new__
        signature = new(Signature, (self.key_id, self.macs[i * MAC_BYTES : (i + 1) * MAC_BYTES]))
        return new(SignedStatusStatement, (serial, status, self.period_index, signature))

    def __iter__(self) -> Iterator[int]:
        return iter(self.serials)

    def __len__(self) -> int:
        return len(self.serials)


def publish_statements(
    ledger: Ledger,
    period_index: int,
    now: int,
    keystore: KeyStore,
    key_id: str,
) -> StatementBatch:
    """Sign one statement per non-expired certificate, as one batch.

    Every payload is encoded in one pass (the status and period bytes are
    the same for every statement of a status, so they are joined once), then
    `KeyStore.mac_batch` MACs them all under the one key, which it looks up
    and counts once. The batch keeps the MACs; a statement is built only
    when it is read.
    """
    good_tail = _statement_tail(OcspStatus.GOOD, period_index)
    revoked_tail = _statement_tail(OcspStatus.REVOKED, period_index)
    revoked_now = {s for s, r in ledger.revocations.items() if r.revoked_at <= now}
    serials = ledger.non_expired_serials(now)
    payloads = [pack_u64(s) + (revoked_tail if s in revoked_now else good_tail) for s in serials]
    macs = keystore.mac_batch(payloads, key_id)
    return StatementBatch(period_index, key_id, serials, revoked_now.intersection(serials), macs)


def verify_statement(
    statement: SignedStatusStatement,
    keystore: KeyStore,
    key_id: str,
    expected_period: int,
) -> bool:
    return statement.period_index == expected_period and statement.verify(keystore, key_id)
