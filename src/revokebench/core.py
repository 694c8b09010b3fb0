"""Shared domain types for the revocation workbench.

Serial numbers, simulated time, certificates, revocation records, the keyed
signature primitive, and the one-way function used by hash-chain tokens.
Every byte that gets signed or hashed anywhere in the workbench flows through
the canonical serialization helpers defined here.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence

# Serial numbers are unsigned 64-bit integers. 0 and 2**64-1 are reserved as
# the tree sentinels; real serials live strictly between them.
SERIAL_BITS = 64
SERIAL_MIN = 0
SERIAL_MAX = 2**64 - 1

# Simulated clock: seconds since epoch 0 of the run, unsigned 64-bit.
TIME_MAX = 2**64 - 1

DAY = 86_400
HOUR = 3_600


class ReasonCode(Enum):
    COMPROMISE = "compromise"
    DEPARTURE = "departure"
    ROLE_CHANGE = "role_change"
    OTHER = "other"


class UnknownKeyError(KeyError):
    """Signing or verification requested under an unregistered key id."""


class WidthError(ValueError):
    """Input to the one-way function has the wrong bit width."""


def check_serial(serial: int) -> int:
    if not SERIAL_MIN <= serial <= SERIAL_MAX:
        raise ValueError(f"serial {serial} outside unsigned 64-bit range")
    return serial


def check_time(t: int) -> int:
    """Guard simulated-time arithmetic against u64 overflow."""
    if not 0 <= t <= TIME_MAX:
        raise OverflowError(f"simulated time {t} outside unsigned 64-bit range")
    return t


# ---------------------------------------------------------------------------
# Canonical byte serialization: fixed field order, big-endian integers,
# length-prefixed byte strings. This is the bit-exact input to all signing
# and hashing.
# ---------------------------------------------------------------------------

pack_u8 = struct.Struct(">B").pack
pack_u32 = struct.Struct(">I").pack
pack_u64 = struct.Struct(">Q").pack


def pack_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def pack_str(s: str) -> bytes:
    return pack_bytes(s.encode("utf-8"))


def pack_opt_u64(v: Optional[int]) -> bytes:
    return b"\x00" if v is None else b"\x01" + pack_u64(v)


def pack_opt_str(s: Optional[str]) -> bytes:
    return b"\x00" if s is None else b"\x01" + pack_str(s)


class Signature(NamedTuple):
    """A MAC and the id of the key that made it.

    A tuple, not a frozen dataclass, because one is built per signature: a
    tuple is built in one allocation, without a frozen dataclass's
    `object.__setattr__` per field.
    """

    key_id: str
    mac: bytes

    def to_bytes(self) -> bytes:
        return pack_str(self.key_id) + pack_bytes(self.mac)

    @property
    def wire_size(self) -> int:
        # two u32 length prefixes, then the key id and the mac
        return 8 + len(self.key_id.encode("utf-8")) + len(self.mac)


_HMAC_BLOCK = 64  # SHA-256 block size in bytes
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


class KeyStore:
    """Deterministic keyed-MAC signer behind the workbench signature contract.

    The schemes only care about signature sizes and operation counts, so a
    keyed hash stands in for an asymmetric algorithm; the contract (sign /
    verify / per-key identity) allows swapping one in later. Each sign and
    verify is counted in `counts` under (op, the `phase` its caller set).

    The MAC is HMAC-SHA256 (RFC 2104). register hashes the padded key's
    inner and outer blocks once, and each MAC continues copies of those two
    SHA-256 states, so the bytes equal hmac.new(secret, message, sha256).
    """

    MAC_BYTES = 32

    def __init__(self) -> None:
        # key id -> (inner, outer) SHA-256 states after one key block each
        self._keys: dict[str, tuple] = {}
        self.phase: Optional[str] = None
        self.counts: dict[tuple[str, Optional[str]], int] = {}

    @property
    def sign_count(self) -> int:
        return sum(n for (op, _), n in self.counts.items() if op == "sign")

    @property
    def verify_count(self) -> int:
        return sum(n for (op, _), n in self.counts.items() if op == "verify")

    def register(self, key_id: str, secret: bytes) -> None:
        key = bytes(secret)
        if len(key) > _HMAC_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_HMAC_BLOCK, b"\x00")
        self._keys[key_id] = (
            hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)),
        )

    def generate(self, key_id: str, rng) -> None:
        """Register a fresh key drawn from the given rng (seedable for tests)."""
        self.register(key_id, rng.getrandbits(256).to_bytes(32, "big"))

    def _pads(self, key_id: str) -> tuple:
        pads = self._keys.get(key_id)
        if pads is None:
            raise UnknownKeyError(key_id)
        return pads

    @staticmethod
    def _mac(pads: tuple, message: bytes) -> bytes:
        inner = pads[0].copy()
        inner.update(message)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.digest()

    def sign(self, message: bytes, key_id: str) -> Signature:
        pads = self._pads(key_id)
        key = ("sign", self.phase)
        self.counts[key] = self.counts.get(key, 0) + 1
        return Signature(key_id, self._mac(pads, message))

    def sign_batch(self, messages: list[bytes], key_id: str) -> list[Signature]:
        """Sign each message under one key: equal to [sign(m, key_id) for m
        in messages], with the key looked up and the count added once."""
        pads = self._pads(key_id)
        if messages:  # an empty batch leaves no zero entry for reports to list
            key = ("sign", self.phase)
            self.counts[key] = self.counts.get(key, 0) + len(messages)
        mac = self._mac
        new = tuple.__new__
        return [new(Signature, (key_id, mac(pads, m))) for m in messages]

    def verify(self, message: bytes, signature: Signature, key_id: str) -> bool:
        """True iff signature was produced over message under exactly key_id."""
        pads = self._pads(key_id)
        key = ("verify", self.phase)
        self.counts[key] = self.counts.get(key, 0) + 1
        if signature.key_id != key_id:
            return False
        return hmac.compare_digest(self._mac(pads, message), signature.mac)


# ---------------------------------------------------------------------------
# One-way function F: {0,1}^w -> {0,1}^w, default w = 100 bits.
# ---------------------------------------------------------------------------

_BYTES = tuple(bytes((b,)) for b in range(256))


class OneWayFunction:
    """Fixed-width one-way function, realized as a domain-separated hash
    truncated (and bit-masked) to the configured width.

    Values are big-endian byte strings of ceil(width/8) bytes whose excess
    high bits are zero, so the function's range is exactly its domain and
    iterate(x, a + b) == iterate(iterate(x, b), a) holds by construction.
    """

    _PREFIX = b"owf:"
    # SHA-256 state after the prefix; each application continues a copy.
    _STATE = hashlib.sha256(_PREFIX)

    def __init__(self, width_bits: int = 100) -> None:
        if width_bits < 8 or width_bits > 256:
            raise ValueError("width must be between 8 and 256 bits")
        self.width_bits = width_bits
        self.width_bytes = (width_bits + 7) // 8
        excess = self.width_bytes * 8 - width_bits
        self._mask = 0xFF >> excess
        # First output byte by first digest byte, excess high bits cleared.
        # The mask is 2**k - 1, so b & mask runs through 0..mask repeatedly.
        self._first = _BYTES[: self._mask + 1] * (256 // (self._mask + 1))
        self.apply_count = 0

    def check_width(self, x: bytes) -> bytes:
        if len(x) != self.width_bytes or (x[0] & ~self._mask & 0xFF):
            raise WidthError(
                f"value must be exactly {self.width_bits} bits "
                f"({self.width_bytes} bytes, excess high bits zero)"
            )
        return x

    def random_value(self, rng) -> bytes:
        return rng.getrandbits(self.width_bits).to_bytes(self.width_bytes, "big")

    def apply(self, x: bytes) -> bytes:
        return self.iterate(x, 1)

    def iterate(self, x: bytes, n: int) -> bytes:
        """Apply F n times; iterate(x, 0) == x."""
        cur = x
        for cur in self._walk(x, n):
            pass
        return cur

    def chain(self, x: bytes, n: int) -> bytes:
        """F^0(x) .. F^n(x) concatenated, width_bytes each."""
        return b"".join([x, *self._walk(x, n)])

    def _walk(self, x: bytes, n: int):
        """Yield F^1(x) .. F^n(x) from one tight loop: n and the width are
        checked once (before anything is yielded), apply_count rises by n."""
        if n < 0:
            raise ValueError("iteration count must be >= 0")
        self.check_width(x)
        state = self._STATE
        first = self._first
        nbytes = self.width_bytes
        cur = x
        for _ in range(n):
            h = state.copy()
            h.update(cur)
            digest = h.digest()
            cur = first[digest[0]] + digest[1:nbytes]
            yield cur
        self.apply_count += n


# ---------------------------------------------------------------------------
# Certificates and revocation records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrsAnchor:
    """Public chain endpoints embedded in a certificate: Y = F^L(Y0), N = F(N0)."""

    y: bytes
    n: bytes
    lifetime_periods: int
    period_length: int

    def to_bytes(self) -> bytes:
        return (
            pack_bytes(self.y)
            + pack_bytes(self.n)
            + pack_u32(self.lifetime_periods)
            + pack_u64(self.period_length)
        )


def _check_certificate_fields(serial: int, not_before: int, not_after: int) -> None:
    check_serial(serial)
    if not not_before < not_after:
        raise ValueError("certificate validity window is empty")


_pack_head = struct.Struct(">QI").pack  # serial, then the subject's length prefix
_pack_window = struct.Struct(">QQ").pack


def _certificate_payload(
    serial: int,
    subject: str,
    not_before: int,
    not_after: int,
    crs_anchor: Optional[CrsAnchor],
    segment_id: Optional[str],
) -> bytes:
    """The bytes a certificate's issuer signature covers, in field order."""
    name = subject.encode("utf-8")
    anchor = b"\x00" if crs_anchor is None else b"\x01" + crs_anchor.to_bytes()
    return (
        _pack_head(serial, len(name))
        + name
        + _pack_window(not_before, not_after)
        + anchor
        + pack_opt_str(segment_id)
    )


class _CertificateFields(NamedTuple):
    serial: int
    subject: str
    not_before: int
    not_after: int
    issuer_signature: Signature
    crs_anchor: Optional[CrsAnchor] = None
    segment_id: Optional[str] = None


class Certificate(_CertificateFields):
    """An issued certificate: its fields and the issuer's signature over them.

    The record is a tuple, not a frozen dataclass, because a run builds one
    per user and issuance is the largest cost of a write-heavy run; a tuple
    is built in one allocation with no per-field attribute writes. It is
    immutable and compares and hashes by value; being a tuple, it also
    unpacks and indexes in field order. Every way of building one checks the
    fields: `Certificate(...)` and `_replace` check them here, and
    `make_certificates` checks them before it signs.
    """

    __slots__ = ()

    def __new__(
        cls,
        serial: int,
        subject: str,
        not_before: int,
        not_after: int,
        issuer_signature: Signature,
        crs_anchor: Optional[CrsAnchor] = None,
        segment_id: Optional[str] = None,
    ) -> "Certificate":
        _check_certificate_fields(serial, not_before, not_after)
        return tuple.__new__(
            cls, (serial, subject, not_before, not_after, issuer_signature, crs_anchor, segment_id)
        )

    @classmethod
    def _make(cls, iterable) -> "Certificate":
        # _replace builds through _make; route it through the checks too
        return cls(*iterable)

    def signed_payload(self) -> bytes:
        return _certificate_payload(
            self.serial,
            self.subject,
            self.not_before,
            self.not_after,
            self.crs_anchor,
            self.segment_id,
        )

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.issuer_signature.to_bytes()

    @property
    def wire_size(self) -> int:
        # serial, length-prefixed subject, window, optional anchor and
        # segment id (a presence byte each), then the issuer signature
        size = 8 + 4 + len(self.subject.encode("utf-8")) + 16 + 1 + 1
        if self.crs_anchor is not None:
            size += 8 + len(self.crs_anchor.y) + len(self.crs_anchor.n) + 4 + 8
        if self.segment_id is not None:
            size += 4 + len(self.segment_id.encode("utf-8"))
        return size + self.issuer_signature.wire_size

    def is_valid_at(self, now: int) -> bool:
        return self.not_before <= now < self.not_after


def make_certificate(
    serial: int,
    subject: str,
    not_before: int,
    not_after: int,
    keystore: KeyStore,
    key_id: str,
    crs_anchor: Optional[CrsAnchor] = None,
    segment_id: Optional[str] = None,
) -> Certificate:
    """Build and sign a certificate in one step (signature covers all other fields).

    The one-certificate case of `make_certificates`.
    """
    return make_certificates(
        [serial], [subject], [crs_anchor], not_before, not_after, keystore, key_id, segment_id
    )[0]


def make_certificates(
    serials: Sequence[int],
    subjects: Sequence[str],
    crs_anchors: Sequence[Optional[CrsAnchor]],
    not_before: int,
    not_after: int,
    keystore: KeyStore,
    key_id: str,
    segment_id: Optional[str] = None,
) -> list[Certificate]:
    """Build and sign one certificate per (serial, subject, anchor), all with
    the same validity window and segment id.

    Every field of every certificate is checked before anything is signed, so
    a bad input anywhere signs nothing. The payloads are then signed as one
    `KeyStore.sign_batch`, which counts the batch once, under the keystore's
    current phase; the records are built without checking them a second time.
    """
    for serial in serials:
        _check_certificate_fields(serial, not_before, not_after)
    rows = list(zip(serials, subjects, crs_anchors, strict=True))
    signatures = keystore.sign_batch(
        [
            _certificate_payload(serial, subject, not_before, not_after, anchor, segment_id)
            for serial, subject, anchor in rows
        ],
        key_id,
    )
    new = tuple.__new__
    return [
        new(Certificate, (serial, subject, not_before, not_after, signature, anchor, segment_id))
        for (serial, subject, anchor), signature in zip(rows, signatures)
    ]


def verify_certificate(cert: Certificate, keystore: KeyStore, key_id: str) -> bool:
    return keystore.verify(cert.signed_payload(), cert.issuer_signature, key_id)


@dataclass(frozen=True)
class RevocationRecord:
    serial: int
    revoked_at: int
    reason: ReasonCode = ReasonCode.OTHER


class Ledger:
    """The CA's ground-truth record of issued and revoked certificates.

    Single-writer; every scheme's published documents derive from this state,
    and the simulator checks client decisions against it.
    """

    def __init__(self) -> None:
        self.certificates: dict[int, Certificate] = {}
        self.revocations: dict[int, RevocationRecord] = {}
        # (serial, revoked_at, not_after, record), ascending by serial
        self._revoked_by_serial: list[tuple[int, int, int, RevocationRecord]] = []

    def add_certificate(self, cert: Certificate) -> None:
        if cert.serial in self.certificates:
            raise ValueError(f"serial {cert.serial} already issued")
        self.certificates[cert.serial] = cert

    def revoke(self, serial: int, revoked_at: int, reason: ReasonCode = ReasonCode.OTHER) -> RevocationRecord:
        cert = self.certificates.get(serial)
        if cert is None:
            raise KeyError(f"serial {serial} was never issued")
        if serial in self.revocations:
            raise ValueError(f"serial {serial} already revoked")
        if not cert.is_valid_at(revoked_at):
            raise ValueError("revocation instant outside certificate validity window")
        record = RevocationRecord(serial=serial, revoked_at=revoked_at, reason=reason)
        self.revocations[serial] = record
        # serials are unique here, so tuples never compare past the serial
        insort(self._revoked_by_serial, (serial, revoked_at, cert.not_after, record))
        return record

    def is_issued(self, serial: int) -> bool:
        return serial in self.certificates

    def revoked_at(self, serial: int) -> Optional[int]:
        record = self.revocations.get(serial)
        return None if record is None else record.revoked_at

    def is_revoked(self, serial: int, now: int) -> bool:
        record = self.revocations.get(serial)
        return record is not None and record.revoked_at <= now

    def non_expired_serials(self, now: int) -> list[int]:
        return sorted(s for s, c in self.certificates.items() if now < c.not_after)

    def revoked_non_expired(self, now: int) -> list[RevocationRecord]:
        """Records for certificates revoked by `now` and not yet expired, by serial."""
        return [r for _, at, end, r in self._revoked_by_serial if at <= now < end]
