"""Real-time status services.

An online responder returns signed, nonce-bound statements that a certificate
has (or has not) been revoked; "good" promises nothing beyond non-revocation.
Responder keys are short-lived and rotate along a CA-published key chain.
The per-certificate signed-statement baseline that hash-chain tokens improve
on lives here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

from .core import KeyStore, Ledger, Signature, pack_bytes, pack_str, pack_u32, pack_u64


class OcspStatus(Enum):
    GOOD = "good"
    REVOKED = "revoked"
    UNKNOWN = "unknown"


NONCE_BYTES = 16

_STATUS_FIELD = {status: pack_str(status.value) for status in OcspStatus}


@dataclass(frozen=True)
class StatusRequest:
    serial: int
    nonce: bytes
    sent_at: int

    def __post_init__(self) -> None:
        if len(self.nonce) != NONCE_BYTES:
            raise ValueError(f"nonce must be {NONCE_BYTES} bytes")

    def to_bytes(self) -> bytes:
        return pack_u64(self.serial) + self.nonce + pack_u64(self.sent_at)

    @property
    def wire_size(self) -> int:
        return len(self.to_bytes())


def make_request(serial: int, now: int, rng) -> StatusRequest:
    nonce = rng.getrandbits(NONCE_BYTES * 8).to_bytes(NONCE_BYTES, "big")
    return StatusRequest(serial=serial, nonce=nonce, sent_at=now)


def _response_payload(
    serial: int, status: OcspStatus, produced_at: int, nonce: bytes, key_id: str
) -> bytes:
    return (
        pack_u64(serial)
        + _STATUS_FIELD[status]
        + pack_u64(produced_at)
        + pack_bytes(nonce)
        + pack_str(key_id)
    )


@dataclass(frozen=True)
class StatusResponse:
    serial: int
    status: OcspStatus
    produced_at: int
    nonce: bytes
    responder_key_id: str
    signature: Signature

    @cached_property
    def _payload(self) -> bytes:
        return _response_payload(
            self.serial, self.status, self.produced_at, self.nonce, self.responder_key_id
        )

    def signed_payload(self) -> bytes:
        return self._payload

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature.to_bytes()

    @property
    def wire_size(self) -> int:
        return len(self._payload) + self.signature.wire_size


@dataclass(frozen=True)
class ResponderKey:
    key_id: str
    valid_from: int
    valid_to: int


@dataclass(frozen=True)
class ResponderKeyChain:
    """Short-lived responder keys, their validity windows signed by the CA."""

    keys: tuple[ResponderKey, ...]
    signature: Signature

    def signed_payload(self) -> bytes:
        parts = [pack_u32(len(self.keys))]
        parts.extend(
            pack_str(k.key_id) + pack_u64(k.valid_from) + pack_u64(k.valid_to) for k in self.keys
        )
        return b"".join(parts)

    def current_key(self, now: int) -> str:
        for k in self.keys:
            if k.valid_from <= now < k.valid_to:
                return k.key_id
        raise LookupError(f"no responder key valid at {now}")

    def is_current(self, key_id: str, at: int) -> bool:
        return any(k.key_id == key_id and k.valid_from <= at < k.valid_to for k in self.keys)


def make_key_chain(
    keys: list[ResponderKey],
    keystore: KeyStore,
    ca_key: str,
    key_rng,
) -> ResponderKeyChain:
    """Register the listed keys and publish their CA-signed validity chain."""
    for k in keys:
        keystore.generate(k.key_id, key_rng)
    unsigned = ResponderKeyChain(keys=tuple(keys), signature=Signature(ca_key, b""))
    return ResponderKeyChain(
        keys=tuple(keys),
        signature=keystore.sign(unsigned.signed_payload(), ca_key),
    )


def verify_key_chain(chain: ResponderKeyChain, keystore: KeyStore, ca_key: str) -> bool:
    return keystore.verify(chain.signed_payload(), chain.signature, ca_key)


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
        payload = _response_payload(request.serial, status, produced_at, request.nonce, key_id)
        response = StatusResponse(
            serial=request.serial,
            status=status,
            produced_at=produced_at,
            nonce=request.nonce,
            responder_key_id=key_id,
            signature=self.keystore.sign(payload, key_id),
        )
        # Cache the bytes just signed on this object only; a dataclasses.replace
        # copy encodes its own fields again, so altered fields fail to verify.
        response.__dict__["_payload"] = payload
        return response

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
    if not chain.is_current(response.responder_key_id, response.produced_at):
        return False
    return keystore.verify(response.signed_payload(), response.signature, response.responder_key_id)


def cached_until(response: StatusResponse, max_age: int) -> int:
    """The first instant a cached response is too old to use: it is usable
    while now - produced_at <= max_age."""
    return response.produced_at + max_age + 1


def accept_cached(
    response: StatusResponse,
    max_age: int,
    now: int,
    keystore: KeyStore,
    chain: ResponderKeyChain,
) -> bool:
    """Cached-acceptance mode (mutually exclusive with nonce mode): a signed
    response is usable from produced_at until cached_until."""
    if not response.produced_at <= now < cached_until(response, max_age):
        return False
    if not chain.is_current(response.responder_key_id, response.produced_at):
        return False
    return keystore.verify(response.signed_payload(), response.signature, response.responder_key_id)


def _statement_payload(serial: int, status: OcspStatus, period: bytes) -> bytes:
    return pack_u64(serial) + _STATUS_FIELD[status] + period


@dataclass(frozen=True)
class SignedStatusStatement:
    """Naive baseline: one signed statement per non-expired certificate per
    period, positive and negative both (an untrusted directory could
    otherwise withhold the negatives)."""

    serial: int
    status: OcspStatus
    period_index: int
    signature: Signature

    def signed_payload(self) -> bytes:
        return _statement_payload(self.serial, self.status, pack_u32(self.period_index))

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature.to_bytes()

    @property
    def wire_size(self) -> int:
        # serial, status, period_index, then the signature
        return 8 + len(_STATUS_FIELD[self.status]) + 4 + self.signature.wire_size


def publish_statements(
    ledger: Ledger,
    period_index: int,
    now: int,
    keystore: KeyStore,
    key_id: str,
) -> list[SignedStatusStatement]:
    """Sign one statement per non-expired certificate; each payload is
    encoded once, for its signature."""
    period = pack_u32(period_index)
    out = []
    for serial in ledger.non_expired_serials(now):
        status = OcspStatus.REVOKED if ledger.is_revoked(serial, now) else OcspStatus.GOOD
        sig = keystore.sign(_statement_payload(serial, status, period), key_id)
        out.append(SignedStatusStatement(serial, status, period_index, sig))
    return out


def verify_statement(
    statement: SignedStatusStatement,
    keystore: KeyStore,
    key_id: str,
    expected_period: int,
) -> bool:
    if statement.period_index != expected_period:
        return False
    return keystore.verify(statement.signed_payload(), statement.signature, key_id)
