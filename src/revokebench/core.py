"""Shared domain types for the revocation workbench.

Serial numbers, simulated time, certificates, revocation records, the keyed
signature primitive, and the one-way function used by hash-chain tokens.
Every byte that gets signed or hashed anywhere in the workbench flows through
the canonical serialization helpers defined here, and every decoder reads
wire bytes back through their strict inverse, `Reader`.

Every signed record (a certificate, CRL, redirect table, CRT root, OCSP
response, signed statement or responder key chain) inherits `Signed`: it
gives the encoder of its signed fields, and `signed_payload`, `to_bytes`,
`wire_size` and `verify` come from the one contract. Tuple records whose
fields have an invariant inherit `Checked`, which checks it on every way of
building one.

A record signed on its own (a CRL, redirect table, CRT root or responder
key chain) is made by `Signed.sign`, which builds it, and so checks it,
before anything is signed. Certificates and naive statements are MACed in
batches by `KeyStore.mac_batch`. An OCSP response, signed once per
nonce-mode validation, is the one record `OcspResponder.respond` signs
directly.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from bisect import bisect_right, insort
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import chain
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional, Sequence

# Serial numbers are unsigned 64-bit integers. 0 and 2**64-1 are reserved as
# the tree sentinels; real serials live strictly between them.
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


class DecodeError(ValueError):
    """Bytes that are not the canonical encoding of the record asked for."""


def check_serial(serial: int) -> int:
    if not SERIAL_MIN <= serial <= SERIAL_MAX:
        raise ValueError(f"serial {serial} outside unsigned 64-bit range")
    return serial


def json_int(value) -> int:
    """An integer field read from JSON. A float, bool or string raises
    TypeError, before it reaches an encoder that would fail less clearly or
    (for a bool) take it as 0 or 1."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_str(value) -> str:
    """A string field read from JSON; anything else raises TypeError."""
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


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


@dataclass
class Reader:
    """Strict cursor over the wire bytes of one record, the inverse of the
    pack helpers. Every decoder reads through one: a read past the end, a
    0-or-1 byte of any other value, text that is not UTF-8 and, at `done()`,
    any byte left over raise DecodeError, whose message starts with `what`.
    So a decoder accepts exactly the encodings its encoder writes."""

    data: bytes
    what: str
    pos: int = 0

    def error(self, problem: str) -> DecodeError:
        return DecodeError(f"{self.what} {problem}")

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise self.error(f"truncated: needs {end} bytes, has {len(self.data)}")
        self.pos = end
        return self.data[end - n : end]

    def uint(self, size: int) -> int:
        """A big-endian unsigned integer of size bytes."""
        return int.from_bytes(self.take(size), "big")

    def bit(self) -> int:
        """A byte that is 0 or 1: an option's presence flag (pack_opt_u64,
        pack_opt_str) or a proof sibling's side."""
        value = self.uint(1)
        if value > 1:
            raise self.error(f"has {value} at byte {self.pos - 1}, where 0 or 1 belongs")
        return value

    def blob(self) -> bytes:
        """pack_bytes: a u32 length, then that many bytes."""
        return self.take(self.uint(4))

    def text(self) -> str:
        """pack_str; strict UTF-8, so the text encodes back to its bytes."""
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"text is not UTF-8: {exc}") from exc

    def done(self) -> None:
        if self.pos != len(self.data):
            raise self.error(f"has {len(self.data) - self.pos} trailing bytes")


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
    It stays SHA-256 while the one-way function and the CRT hashes run on
    BLAKE2s: a MAC also covers whole CRLs, and on kilobytes SHA-256 with the
    CPU's SHA instructions is the faster of the two.
    """

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

    def mac_batch(self, messages: Sequence[bytes], key_id: str) -> bytes:
        """The MACs of the messages under one key, joined in order, counted
        as len(messages) signatures under the current phase:
        b"".join(sign(m, key_id).mac for m in messages), with the key looked
        up and the count added once."""
        pads = self._pads(key_id)
        if messages:  # an empty batch leaves no zero entry for reports to list
            key = ("sign", self.phase)
            self.counts[key] = self.counts.get(key, 0) + len(messages)
        mac = self._mac
        return b"".join([mac(pads, m) for m in messages])

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

# A batch of fewer one-way-function applications than this is walked in the
# calling process alone. A fork round trip (fork, pipe, waitpid) takes
# 1.8-2.9 ms on a 2-vCPU Xeon VM with a 40 MB heap, the time of 3.5k-5k
# applications at 0.5-0.8 us each, so from 64k on the part walked beside it
# saves far more.
_SPLIT_APPLICATIONS = 1 << 16

# A split walk hands its seeds out in chunks of about this many applications,
# 4-7 ms at 0.5-0.8 us each. Both processes take the next chunk until none is
# left, so the one that ends first waits at most one chunk for the other; and
# a chunk is long enough that its queue read and its record cost a few
# microseconds of it.
_CHUNK_APPLICATIONS = 1 << 13

# At most this many chunks are queued, whatever the batch: their 4-byte
# indices then take at most 512 bytes, the least PIPE_BUF that POSIX allows,
# so the whole queue goes into the empty pipe in one write that never blocks.
_QUEUE_CHUNKS = 128


def _second_cpu() -> bool:
    """A forked child can walk on a CPU of its own."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) >= 2
    )


class OneWayFunction:
    """Fixed-width one-way function: BLAKE2s (RFC 7693) with a digest of
    ceil(width/8) bytes, personalised with the width in bits, and the excess
    high bits of its first byte masked.

    The personalisation b"owf-<width>" separates it from the CRT's tree
    hashes and gives each width its own function, and the digest is exactly
    the value's size, so no output byte is thrown away. Values are big-endian
    byte strings of ceil(width/8) bytes whose excess high bits are zero, so
    the function's range is exactly its domain and
    iterate(x, a + b) == iterate(iterate(x, b), a) holds by construction.
    """

    def __init__(self, width_bits: int = 100) -> None:
        if width_bits < 8 or width_bits > 256:
            raise ValueError("width must be between 8 and 256 bits")
        self.width_bits = width_bits
        self.width_bytes = (width_bits + 7) // 8
        # The BLAKE2s state before any input; each application continues a
        # copy, which costs about half a SHA-256 state copy at these sizes.
        self._state = hashlib.blake2s(digest_size=self.width_bytes, person=b"owf-%d" % width_bits)
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
        if n < 0:
            raise ValueError("iteration count must be >= 0")
        self.check_width(x)
        cur = self._advance(x, n)
        self.apply_count += n
        return cur

    def tails(self, seeds: Sequence[bytes], n: int, first: int) -> list[bytes]:
        """For each seed x, F^first(x) .. F^n(x) concatenated, width_bytes each.

        The first `first` steps are walked but not kept. Every input is
        checked before any walk, and apply_count rises by n per seed once the
        whole batch is walked. A batch of at least _SPLIT_APPLICATIONS
        applications, when this process may run on two CPUs, is walked in
        chunks by this process and a forked child (`_split_tails`).
        """
        if not 0 <= first <= n:
            raise ValueError(f"need 0 <= first <= n, got first={first}, n={n}")
        for x in seeds:
            self.check_width(x)
        if n * len(seeds) >= _SPLIT_APPLICATIONS and _second_cpu():
            out = self._split_tails(seeds, n, first)
        else:
            out = self._tails(seeds, n, first)
        self.apply_count += n * len(seeds)
        return out

    def _split_tails(self, seeds: Sequence[bytes], n: int, first: int) -> list[bytes]:
        """_tails, walked by this process and a forked child that take the
        next chunk of seeds from a queue until it is empty.

        The queue is a pipe holding each chunk's index as 4 bytes, written
        whole before the fork. The child keeps its tails until the queue is
        empty, then sends one record per chunk, its index and then its
        tails, and always leaves by os._exit. Each record is placed by its
        index and read for exactly the length that chunk's tails have; a
        record that does not fit, or a chunk that no one walked, raises
        RuntimeError.
        """
        count = len(seeds)
        per_chunk = max(-(-_CHUNK_APPLICATIONS // max(n, 1)), -(-count // _QUEUE_CHUNKS))
        chunks = -(-count // per_chunk)
        size = (n - first + 1) * self.width_bytes
        out: list[Optional[list[bytes]]] = [None] * chunks

        def walk(record: bytes) -> tuple[int, list[bytes]]:
            index = int.from_bytes(record, "big")
            return index, self._tails(seeds[index * per_chunk : (index + 1) * per_chunk], n, first)

        queue_fd, queue_write_fd = os.pipe()
        try:
            os.write(queue_write_fd, b"".join(map(pack_u32, range(chunks))))
        finally:
            os.close(queue_write_fd)
        read_fd, write_fd = os.pipe()
        with open(queue_fd, "rb", buffering=0) as queue, \
                open(read_fd, "rb") as reader, open(write_fd, "wb") as writer:
            # Unbuffered, so each read takes exactly one index from the pipe,
            # and each index goes to one of the two processes.
            take = partial(queue.read, 4)
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    reader.close()
                    mine = [walk(record) for record in iter(take, b"")]
                    for index, tails in mine:
                        writer.write(pack_u32(index))
                        writer.write(b"".join(tails))
                    writer.close()
                    status = 0
                finally:
                    os._exit(status)
            writer.close()
            try:
                for record in iter(take, b""):
                    index, tails = walk(record)
                    out[index] = tails
                while record := reader.read(4):
                    index = int.from_bytes(record, "big")
                    if len(record) != 4 or index >= chunks or out[index] is not None:
                        raise RuntimeError(f"chain walk in child {pid} sent a malformed record")
                    expected = (min(count, (index + 1) * per_chunk) - index * per_chunk) * size
                    data = reader.read(expected)
                    if len(data) != expected:
                        raise RuntimeError(f"chain walk in child {pid} sent too few bytes")
                    out[index] = [data[i : i + size] for i in range(0, expected, size)]
            finally:
                reader.close()  # a child still writing to a full pipe now fails and exits
                _, status = os.waitpid(pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            raise RuntimeError(f"chain walk in child {pid} failed with exit code {code}")
        if any(tails is None for tails in out):
            raise RuntimeError(f"chain walk in child {pid} sent too few chunks")
        return list(chain.from_iterable(out))

    def _tails(self, seeds: Sequence[bytes], n: int, first: int) -> list[bytes]:
        """tails without its checks and count."""
        state = self._state
        head = self._first
        out = []
        for x in seeds:
            x = self._advance(x, first)
            kept = [x]
            keep = kept.append
            for _ in range(n - first):
                h = state.copy()
                h.update(x)
                digest = h.digest()
                x = head[digest[0]] + digest[1:]
                keep(x)
            out.append(b"".join(kept))
        return out

    def _advance(self, x: bytes, n: int) -> bytes:
        """F^n(x) in one tight loop; the callers check the inputs and count
        the applications."""
        state = self._state
        head = self._first
        for _ in range(n):
            h = state.copy()
            h.update(x)
            digest = h.digest()
            x = head[digest[0]] + digest[1:]
        return x


# ---------------------------------------------------------------------------
# Record contracts: signed records and checked tuples
# ---------------------------------------------------------------------------

class Signed:
    """A signed record: the canonical encoding of its fields, then its
    `signature` over exactly those bytes.

    A type gives only `_payload()`, the encoder of its signed fields; the
    bytes, the size and the signature check are defined here once. A record
    signed on its own is made by `sign`, which checks it before it signs.
    A record built by signing holds the bytes just signed (`keep_payload`),
    and one built by a strict decoder the bytes received, so sizing or
    verifying it does not encode its fields again. Any other record, a
    `_replace` or `dataclasses.replace` copy included, starts without them
    and encodes its own fields, so a copy with any field altered fails
    `verify`.

    Certificates and naive statements are signed in batches through
    `KeyStore.mac_batch`, and an OCSP response directly by
    `OcspResponder.respond`: both are tuples, which cannot take a signature
    after they are built.
    """

    __slots__ = ()
    _held: Optional[bytes] = None

    @classmethod
    def sign(cls, keystore: KeyStore, key_id: str, **fields):
        """The frozen dataclass record of these fields, signed under key_id.

        It is built with no signature first, so its own checks run before
        anything is signed: a record they reject raises and signs nothing.
        Then its payload is signed, the signature set, and the signed bytes
        kept.
        """
        record = cls(signature=None, **fields)
        payload = record._payload()
        object.__setattr__(record, "signature", keystore.sign(payload, key_id))
        return keep_payload(record, payload)

    def signed_payload(self) -> bytes:
        held = self._held
        return self._payload() if held is None else held

    def to_bytes(self) -> bytes:
        return self.signed_payload() + self.signature.to_bytes()

    @property
    def wire_size(self) -> int:
        return len(self.signed_payload()) + self.signature.wire_size

    def verify(self, keystore: KeyStore, key_id: str) -> bool:
        """True iff the signature covers this record's bytes under key_id."""
        return keystore.verify(self.signed_payload(), self.signature, key_id)


def keep_payload(record, payload: bytes):
    """Have `record`, just built with a signature over `payload` or decoded
    from it, hold those bytes, and return it. Only records with an instance
    dict can hold them; the slotted tuples built by the thousand
    (certificates, statements) do not, and encode their fields when asked."""
    record.__dict__["_held"] = payload
    return record


class Checked(tuple):
    """Base of a checked tuple record: `_check()` runs on every way of
    building one, `Type(...)`, `_make` and `_replace` (which builds through
    `_make`). A record built in bulk from inputs already checked may skip it
    with `tuple.__new__`.

    Records are tuples, not frozen dataclasses, where a run builds one per
    certificate or per validation: a tuple is built in one allocation,
    without a frozen dataclass's `object.__setattr__` per field, and it is
    immutable and compares and hashes by value.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        record._check()
        return record

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


def parse_anchor(data: bytes) -> CrsAnchor:
    """Decode CrsAnchor.to_bytes(); anything else raises DecodeError."""
    r = Reader(data, "anchor")
    anchor = CrsAnchor(r.blob(), r.blob(), r.uint(4), r.uint(8))
    r.done()
    return anchor


def _check_window(not_before: int, not_after: int) -> None:
    check_time(not_before)
    check_time(not_after)
    if not not_before < not_after:
        raise ValueError("certificate validity window is empty")


_pack_head = struct.Struct(">QI").pack  # serial, then the subject's length prefix
_pack_window = struct.Struct(">QQ").pack


def _certificate_payloads(
    serials: Sequence[int],
    crs_anchors: Sequence[Optional[CrsAnchor]],
    not_before: int,
    not_after: int,
) -> list[bytes]:
    """The bytes each certificate's issuer signature covers, in field order,
    for certificates that share a validity window. The bytes they share (the
    window, the anchor flag of those without an anchor) are encoded once.
    Certificate s has subject `subject-<s>`: no record carries it, it is
    derived here. The last byte, 0x00, is the absent option of the segment
    id that the certificate format has room for and no certificate carries:
    clients find a serial's segment by the redirect table."""
    window = _pack_window(not_before, not_after)
    plain = window + b"\x00\x00"  # the tail of every certificate without an anchor
    return [
        _pack_head(serial, len(name := b"subject-%d" % serial))
        + name
        + (plain if anchor is None else window + b"\x01" + anchor.to_bytes() + b"\x00")
        for serial, anchor in zip(serials, crs_anchors)
    ]


class _CertificateFields(NamedTuple):
    serial: int
    not_before: int
    not_after: int
    issuer_signature: Signature
    crs_anchor: Optional[CrsAnchor] = None


class Certificate(Checked, Signed, _CertificateFields):
    """An issued certificate: its fields and the issuer's signature over them.

    A ledger does not keep these. It keeps each issuance batch as one record
    (`Ledger.issue`) and builds a Certificate, equal field for field to the
    one it signed, each time `Ledger.certificates` is read. A checked tuple,
    so that a record built any other way checks its fields; the ledger
    checks a batch before it signs and builds its records without checking
    again.
    """

    __slots__ = ()
    signature = _CertificateFields.issuer_signature  # the name `Signed` reads

    def _check(self) -> None:
        check_serial(self.serial)
        _check_window(self.not_before, self.not_after)

    def _payload(self) -> bytes:
        serial, not_before, not_after, _, anchor = self
        return _certificate_payloads([serial], [anchor], not_before, not_after)[0]


def make_certificate(
    serial: int,
    not_before: int,
    not_after: int,
    keystore: KeyStore,
    key_id: str,
    crs_anchor: Optional[CrsAnchor] = None,
) -> Certificate:
    """Build and sign a certificate in one step (signature covers all other
    fields): the one-certificate batch of `Ledger.issue`, on a ledger of its
    own."""
    ledger = Ledger()
    ledger.issue([serial], [crs_anchor], not_before, not_after, keystore, key_id)
    return ledger.certificates[serial]


@dataclass(frozen=True)
class RevocationRecord:
    serial: int
    revoked_at: int
    reason: ReasonCode = ReasonCode.OTHER


MAC_BYTES = hashlib.sha256().digest_size  # one KeyStore MAC
_ISSUE_CHUNK = 4096  # certificates encoded and MACed together by Ledger.issue


class _Batch(NamedTuple):
    """One issuance: the fields its certificates share, once, then one entry
    per certificate, in issue order."""

    start: int  # the ledger ordinal of its first certificate
    not_before: int
    not_after: int
    key_id: str
    serials: list[int]
    crs_anchors: list[Optional[CrsAnchor]]
    macs: bytes  # the issuer MACs, MAC_BYTES each


_batch_start = attrgetter("start")  # batches are kept in ascending start order


class _IssuedCertificates(Mapping):
    """A ledger's certificates as a read-only serial -> Certificate mapping,
    in issue order. Each read builds the record from its batch, and nothing
    keeps it."""

    __slots__ = ("_ledger",)

    def __init__(self, ledger: "Ledger") -> None:
        self._ledger = ledger

    def __getitem__(self, serial: int) -> Certificate:
        batch, i = self._ledger._locate(serial)
        mac = batch.macs[i * MAC_BYTES : (i + 1) * MAC_BYTES]
        new = tuple.__new__
        signature = new(Signature, (batch.key_id, mac))
        return new(
            Certificate,
            (
                batch.serials[i],
                batch.not_before,
                batch.not_after,
                signature,
                batch.crs_anchors[i],
            ),
        )

    def __contains__(self, serial: object) -> bool:
        return serial in self._ledger._where

    def __iter__(self) -> Iterator[int]:
        return iter(self._ledger._where)

    def __len__(self) -> int:
        return len(self._ledger._where)


class Ledger:
    """The CA's ground-truth record of issued and revoked certificates.

    Single-writer; every scheme's published documents derive from this state,
    and the simulator checks client decisions against it.

    Certificates are issued by batch (`issue`), and each batch is kept as one
    record: its window and key id once, its serials and anchors as lists,
    its MACs as one bytes of 32 per certificate, with a serial -> ordinal
    index over all batches. `certificates` builds a Certificate only when
    one is read. The readers of a single field read it
    from the batch: `revoke` the window, `non_expired_serials` the expiry
    and `crs_anchor` the anchor.
    """

    def __init__(self) -> None:
        self.revocations: dict[int, RevocationRecord] = {}
        # (serial, revoked_at, not_after, record), ascending by serial
        self._revoked_by_serial: list[tuple[int, int, int, RevocationRecord]] = []
        self._batches: list[_Batch] = []
        self._where: dict[int, int] = {}  # serial -> ordinal, in issue order

    @property
    def certificates(self) -> Mapping[int, Certificate]:
        """Every issued certificate by serial, in issue order, built when read."""
        return _IssuedCertificates(self)

    def issue(
        self,
        serials: Sequence[int],
        crs_anchors: Sequence[Optional[CrsAnchor]],
        not_before: int,
        not_after: int,
        keystore: KeyStore,
        key_id: str,
    ) -> None:
        """Sign and record one certificate per (serial, anchor), all with
        the one validity window and key.

        Every input is checked before anything is signed: one anchor per
        serial, both window ends on the u64 clock and the window not empty,
        every serial in range, and no serial repeated in the batch or issued
        before. So a bad input anywhere signs nothing and leaves the ledger
        as it was. The payloads are then encoded with the bytes the batch
        shares joined once (`_certificate_payloads`), and
        `KeyStore.mac_batch` MACs them under the one key, counted under the
        keystore's phase. Both go _ISSUE_CHUNK certificates at a time, and
        the chunks' MACs are joined once at the end, so the whole batch's
        payloads and MAC objects are never held at once.
        """
        n = len(serials)
        if n != len(crs_anchors):
            raise ValueError("a batch needs one anchor per serial")
        _check_window(not_before, not_after)
        if n:  # checking the least and the greatest checks every serial
            check_serial(min(serials))
            check_serial(max(serials))
        where = self._where
        if len(set(serials)) != n or not where.keys().isdisjoint(serials):
            seen: set[int] = set()
            for serial in serials:
                if serial in where or serial in seen:
                    raise ValueError(f"serial {serial} already issued")
                seen.add(serial)

        chunks = []
        for lo in range(0, n or 1, _ISSUE_CHUNK):  # an empty batch still looks the key up
            hi = lo + _ISSUE_CHUNK
            payloads = _certificate_payloads(
                serials[lo:hi], crs_anchors[lo:hi], not_before, not_after
            )
            chunks.append(keystore.mac_batch(payloads, key_id))
        macs = b"".join(chunks)
        del payloads, chunks  # freed before the lists and the index are kept, to lower the peak
        start = len(where)
        self._batches.append(
            _Batch(
                start,
                not_before,
                not_after,
                key_id,
                list(serials),
                list(crs_anchors),
                macs,
            )
        )
        where.update(zip(serials, range(start, start + n)))

    def _locate(self, serial: int) -> tuple[_Batch, int]:
        """The serial's batch and its position there; KeyError if never issued."""
        ordinal = self._where[serial]
        batch = self._batches[bisect_right(self._batches, ordinal, key=_batch_start) - 1]
        return batch, ordinal - batch.start

    def crs_anchor(self, serial: int) -> Optional[CrsAnchor]:
        """The CRS anchor in the serial's certificate, read without building it."""
        batch, i = self._locate(serial)
        return batch.crs_anchors[i]

    def revoke(self, serial: int, revoked_at: int, reason: ReasonCode = ReasonCode.OTHER) -> RevocationRecord:
        if serial not in self._where:
            raise KeyError(f"serial {serial} was never issued")
        if serial in self.revocations:
            raise ValueError(f"serial {serial} already revoked")
        batch, _ = self._locate(serial)
        if not batch.not_before <= revoked_at < batch.not_after:
            raise ValueError("revocation instant outside certificate validity window")
        record = RevocationRecord(serial=serial, revoked_at=revoked_at, reason=reason)
        self.revocations[serial] = record
        # serials are unique here, so tuples never compare past the serial
        insort(self._revoked_by_serial, (serial, revoked_at, batch.not_after, record))
        return record

    def is_issued(self, serial: int) -> bool:
        return serial in self._where

    def revoked_at(self, serial: int) -> Optional[int]:
        record = self.revocations.get(serial)
        return None if record is None else record.revoked_at

    def is_revoked(self, serial: int, now: int) -> bool:
        record = self.revocations.get(serial)
        return record is not None and record.revoked_at <= now

    def non_expired_serials(self, now: int) -> list[int]:
        """Serials of the certificates not expired at now, ascending; each
        batch has one expiry, so whole batches are kept or left out."""
        return sorted(chain.from_iterable(b.serials for b in self._batches if now < b.not_after))

    def revoked_non_expired(self, now: int) -> list[RevocationRecord]:
        """Records for certificates revoked by `now` and not yet expired, by serial."""
        return [r for _, at, end, r in self._revoked_by_serial if at <= now < end]
