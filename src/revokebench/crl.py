"""The CRL family: full lists, deltas, sliding-window deltas, over-issuing
schedules, segmented lists with redirect tables, and the client-side status
check over a document cache.

CRLs and redirect tables are `core.Signed` records, each signed on its own
by `Signed.sign`: the issuer's documents and `make_redirect_table`'s tables
are built, and so checked, before they are signed, and hold the bytes they
were signed over. A document with a repeated serial, or a table whose
ranges do not tile, raises and signs nothing. A CRL travels as its wire
bytes, `to_bytes()`, and only as those: `parse_crl` reads them back
strictly, and the document it returns holds the bytes received, so its
signature is checked over exactly them.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import (
    KeyStore,
    Reader,
    RevocationRecord,
    Signature,
    Signed,
    check_time,
    keep_payload,
    pack_opt_str,
    pack_opt_u64,
    pack_str,
    pack_u32,
    pack_u64,
)


class CrlKind(Enum):
    FULL = "full"
    DELTA = "delta"
    SEGMENT = "segment"


class CrlStatus(Enum):
    REVOKED = "revoked"
    NOT_REVOKED = "not_revoked"
    STALE_INFORMATION = "stale_information"


class DeltaBaseError(ValueError):
    """A delta entry predates the referenced base issuance."""


class PartitionError(ValueError):
    """Redirect table ranges overlap, leave gaps, or do not cover a serial."""


@dataclass(frozen=True)
class CrlDocument(Signed):
    """A signed status list. Authoritative over [this_update, next_update)."""

    issuer: str
    kind: CrlKind
    this_update: int
    next_update: int
    entries: tuple[tuple[int, int], ...]  # (serial, revoked_at), strictly ascending
    signature: Signature
    window_start: Optional[int] = None
    segment_id: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.this_update < self.next_update:
            raise ValueError("this_update must precede next_update")
        serials = [s for s, _ in self.entries]
        if any(a >= b for a, b in zip(serials, serials[1:])):
            raise ValueError("entries must be strictly ascending by serial")
        if self.kind is CrlKind.DELTA and self.window_start is not None:
            if any(t < self.window_start for _, t in self.entries):
                raise ValueError("delta entry revoked before window_start")

    def _payload(self) -> bytes:
        entries = self.entries
        parts = [
            pack_str(self.issuer),
            pack_str(self.kind.value),
            pack_u64(self.this_update),
            pack_u64(self.next_update),
            pack_opt_u64(self.window_start),
            pack_opt_str(self.segment_id),
            pack_u32(len(entries)),
            struct.pack(f">{2 * len(entries)}Q", *chain.from_iterable(entries)),
        ]
        return b"".join(parts)

    def covers(self, now: int) -> bool:
        return self.this_update <= now < self.next_update

    @cached_property
    def _listed(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.entries)

    def lists(self, serial: int) -> bool:
        return serial in self._listed


def parse_crl(data: bytes) -> CrlDocument:
    """Decode CrlDocument.to_bytes() strictly: any other bytes, or fields
    that no document may hold, raise DecodeError. The document holds the
    payload bytes it was read from, which its signature must cover."""
    r = Reader(data, "crl")
    issuer, kind = r.text(), r.text()
    this_update, next_update = r.uint(8), r.uint(8)
    window_start = r.uint(8) if r.bit() else None
    segment_id = r.text() if r.bit() else None
    count = r.uint(4)
    flat = struct.unpack(f">{2 * count}Q", r.take(16 * count))
    payload = r.data[: r.pos]
    signature = Signature(r.text(), r.blob())
    r.done()
    try:
        doc = CrlDocument(
            issuer=issuer,
            kind=CrlKind(kind),
            this_update=this_update,
            next_update=next_update,
            entries=tuple(zip(flat[0::2], flat[1::2])),
            signature=signature,
            window_start=window_start,
            segment_id=segment_id,
        )
    except ValueError as exc:  # an unknown kind, or fields out of order
        raise r.error(f"is not a valid document: {exc}") from exc
    return keep_payload(doc, payload)


@dataclass(frozen=True)
class IssuanceSchedule:
    """How often documents are released.

    overissue_factor f staggers equally long-lived documents every
    base_period / f. A sliding window, when configured, must reach at least
    one base period back or reconstruction from deltas alone cannot be
    guaranteed.
    """

    base_period: int
    delta_period: Optional[int] = None
    overissue_factor: int = 1
    window_length: Optional[int] = None

    def __post_init__(self) -> None:
        if self.base_period <= 0:
            raise ValueError("base_period must be positive")
        if self.delta_period is not None:
            if self.delta_period <= 0 or self.base_period % self.delta_period:
                raise ValueError("delta_period must evenly divide base_period")
        if self.overissue_factor < 1:
            raise ValueError("overissue_factor must be >= 1")
        if self.base_period % self.overissue_factor:
            raise ValueError("overissue_factor must evenly divide base_period")
        if self.window_length is not None and self.window_length < self.base_period:
            raise ValueError("window_length must be at least base_period")

    @property
    def release_interval(self) -> int:
        return self.base_period // self.overissue_factor


@dataclass(frozen=True)
class RedirectTable(Signed):
    """Signed, versioned map from serial ranges to segment ids.

    Ranges are closed intervals, pairwise disjoint, and must tile the table's
    whole envelope without gaps so every serial in the managed space resolves
    to exactly one segment.
    """

    version: int
    ranges: tuple[tuple[int, int, str], ...]  # (lo, hi, segment_id)
    signature: Signature

    def __post_init__(self) -> None:
        """The ranges are non-empty closed intervals that tile their
        envelope: pairwise disjoint, with no gap between neighbours."""
        if not self.ranges:
            raise PartitionError("redirect table has no ranges")
        ordered = sorted(self.ranges)
        for lo, hi, _ in ordered:
            if lo > hi:
                raise PartitionError(f"empty range [{lo}, {hi}]")
        for (_, hi_a, _), (lo_b, _, _) in zip(ordered, ordered[1:]):
            if lo_b <= hi_a:
                raise PartitionError("redirect table ranges overlap")
            if lo_b != hi_a + 1:
                raise PartitionError(f"gap between {hi_a} and {lo_b}")

    def _payload(self) -> bytes:
        parts = [pack_u32(self.version), pack_u32(len(self.ranges))]
        parts.extend(
            pack_u64(lo) + pack_u64(hi) + pack_str(seg) for lo, hi, seg in sorted(self.ranges)
        )
        return b"".join(parts)

    def segment_ids(self) -> list[str]:
        return sorted({seg for _, _, seg in self.ranges})

    @cached_property
    def _by_start(self) -> tuple[list[int], list[tuple[int, int, str]]]:
        """The ranges sorted by start, and their starts, for bisection."""
        ordered = sorted(self.ranges)
        return [lo for lo, _, _ in ordered], ordered


def make_redirect_table(
    version: int,
    ranges: Sequence[tuple[int, int, str]],
    keystore: KeyStore,
    key_id: str,
) -> RedirectTable:
    """The signed table; a malformed one raises PartitionError before
    anything is signed."""
    return RedirectTable.sign(keystore, key_id, version=version, ranges=tuple(ranges))


def resolve_segment(serial: int, table: RedirectTable) -> str:
    """The unique segment whose range contains serial; closed-interval bounds.

    The ranges are disjoint, so the only candidate is the last one starting
    at or below serial, found by bisecting the sorted starts.
    """
    starts, ordered = table._by_start
    i = bisect_right(starts, serial) - 1
    if i >= 0:
        _, hi, seg = ordered[i]
        if serial <= hi:
            return seg
    raise PartitionError(f"serial {serial} not covered by redirect table v{table.version}")


class CrlIssuer:
    """Single-writer issuer for the CRL family under one CA key."""

    def __init__(self, keystore: KeyStore, key_id: str, schedule: IssuanceSchedule) -> None:
        self.keystore = keystore
        self.key_id = key_id
        self.schedule = schedule

    def _signed(
        self,
        kind: CrlKind,
        this_update: int,
        next_update: int,
        entries: Iterable[tuple[int, int]],
        window_start: Optional[int] = None,
        segment_id: Optional[str] = None,
    ) -> CrlDocument:
        """The document, its entries sorted by serial, checked and then
        signed under the issuer's key."""
        check_time(next_update)
        return CrlDocument.sign(
            self.keystore,
            self.key_id,
            issuer=self.key_id,
            kind=kind,
            this_update=this_update,
            next_update=next_update,
            entries=tuple(sorted(entries)),
            window_start=window_start,
            segment_id=segment_id,
        )

    def issue_full(self, revoked: Iterable[RevocationRecord], now: int) -> CrlDocument:
        """Full list authoritative over [now, now + base_period).

        Every record given is listed, in serial order; the list drops nothing.
        Leaving out the certificates that have expired is the caller's part:
        the simulator and the CLI pass `Ledger.revoked_non_expired(now)`.
        """
        entries = [(record.serial, record.revoked_at) for record in revoked]
        return self._signed(CrlKind.FULL, now, now + self.schedule.base_period, entries)

    def issue_delta(
        self,
        revoked_since: Iterable[RevocationRecord],
        base_ref: CrlDocument,
        now: int,
    ) -> CrlDocument:
        """Changes to a base CRL: everything revoked after the base was issued."""
        if base_ref.kind is not CrlKind.FULL:
            raise DeltaBaseError("delta must reference a full CRL")
        if self.schedule.delta_period is None:
            raise ValueError("schedule has no delta_period")
        entries = []
        for record in revoked_since:
            if record.revoked_at <= base_ref.this_update:
                raise DeltaBaseError(
                    f"record for serial {record.serial} predates base issuance"
                )
            entries.append((record.serial, record.revoked_at))
        return self._signed(
            CrlKind.DELTA,
            now,
            now + self.schedule.delta_period,
            entries,
            window_start=base_ref.this_update,
        )

    def issue_sliding_delta(
        self,
        all_records: Iterable[RevocationRecord],
        now: int,
    ) -> CrlDocument:
        """Delta over a fixed trailing window: revocations in (now - W, now]."""
        window = self.schedule.window_length
        if window is None:
            raise ValueError("sliding delta requires a window_length")
        if self.schedule.delta_period is None:
            raise ValueError("schedule has no delta_period")
        # A window reaching past epoch 0 covers all history, bound inclusive.
        bound = now - window
        entries = [
            (r.serial, r.revoked_at)
            for r in all_records
            if (bound < r.revoked_at <= now) or (bound < 0 and r.revoked_at <= now)
        ]
        return self._signed(
            CrlKind.DELTA,
            now,
            now + self.schedule.delta_period,
            entries,
            window_start=max(0, bound),
        )

    def segment(
        self,
        records: Iterable[RevocationRecord],
        partition: RedirectTable,
        now: int,
    ) -> list[CrlDocument]:
        """One segment document per segment id; entries routed by serial range."""
        buckets: dict[str, list[tuple[int, int]]] = {seg: [] for seg in partition.segment_ids()}
        for record in records:
            seg = resolve_segment(record.serial, partition)
            buckets[seg].append((record.serial, record.revoked_at))
        return [
            self._signed(
                CrlKind.SEGMENT,
                now,
                now + self.schedule.base_period,
                buckets[seg],
                segment_id=seg,
            )
            for seg in partition.segment_ids()
        ]


def check_status(
    serial: int,
    docs: Iterable[CrlDocument],
    now: int,
    keystore: KeyStore,
    issuer_key: str,
) -> CrlStatus:
    """Status decision over a cache of documents whose signatures are unchecked.

    A document with a bad signature is discarded as if absent; the rest go
    to decide_status, with no redirect table, so a segment document is no
    base here. A client that verifies each document when it arrives, or
    holds a redirect table, calls decide_status on its cache directly.
    """
    valid = [d for d in docs if d.verify(keystore, issuer_key)]
    return decide_status(serial, valid, now)


_this_update = attrgetter("this_update")


def decide_status(
    serial: int,
    verified_docs: Iterable[CrlDocument],
    now: int,
    table: Optional[RedirectTable] = None,
) -> CrlStatus:
    """Client-side status decision over a cache of verified documents.

    Signatures are not checked here: every document must already have passed
    `CrlDocument.verify`. The answer is authoritative only when some base (full,
    or the serial's segment) plus a chain of deltas with contiguous windows
    reaches a document whose [this_update, next_update) covers `now`;
    otherwise the information is stale. Chaining means each delta's
    window_start is at or before the coverage point established so far, so
    no revocation can fall in a gap.
    """
    scope_segment: Optional[str] = None
    if table is not None:
        scope_segment = resolve_segment(serial, table)

    # one pass: the newest base in scope (the first of a tie) and every delta
    base: Optional[CrlDocument] = None
    deltas: list[CrlDocument] = []
    for d in verified_docs:
        kind = d.kind
        if kind is CrlKind.DELTA:
            deltas.append(d)
        elif kind is CrlKind.FULL or (scope_segment is not None and d.segment_id == scope_segment):
            if base is None or d.this_update > base.this_update:
                base = d
    if base is None:
        return CrlStatus.STALE_INFORMATION
    if len(deltas) > 1:
        deltas.sort(key=_this_update)  # stable, as sorted is

    covered_until = base.this_update
    current = base.covers(now)
    listed = base.lists(serial)
    for delta in deltas:
        start = delta.window_start if delta.window_start is not None else covered_until
        if start <= covered_until and delta.this_update >= covered_until:
            covered_until = delta.this_update
            current = current or delta.covers(now)
            listed = listed or delta.lists(serial)
    if not current:
        return CrlStatus.STALE_INFORMATION
    return CrlStatus.REVOKED if listed else CrlStatus.NOT_REVOKED
