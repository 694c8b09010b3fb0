"""The CRL family: full lists, deltas, sliding-window deltas, over-issuing
schedules, segmented lists with redirect tables, and the client-side status
check over a document cache.

CRLs and redirect tables are `core.Signed` records; the issuer's documents
and `make_redirect_table`'s tables hold the bytes they were signed over.
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
    TIME_MAX,
    KeyStore,
    RevocationRecord,
    Signature,
    Signed,
    check_time,
    json_int,
    json_str,
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


class ExpiredEntryError(ValueError):
    """A record for an already-expired certificate was offered for listing."""


class DeltaBaseError(ValueError):
    """A delta entry predates the referenced base issuance."""


class PartitionError(ValueError):
    """Redirect table ranges overlap, leave gaps, or do not cover a serial."""


def _crl_payload(
    issuer: str,
    kind: CrlKind,
    this_update: int,
    next_update: int,
    window_start: Optional[int],
    segment_id: Optional[str],
    entries: tuple[tuple[int, int], ...],
) -> bytes:
    """The bytes a CRL's signature covers, in field order."""
    parts = [
        pack_str(issuer),
        pack_str(kind.value),
        pack_u64(this_update),
        pack_u64(next_update),
        pack_opt_u64(window_start),
        pack_opt_str(segment_id),
        pack_u32(len(entries)),
        struct.pack(f">{2 * len(entries)}Q", *chain.from_iterable(entries)),
    ]
    return b"".join(parts)


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
        return _crl_payload(
            self.issuer,
            self.kind,
            self.this_update,
            self.next_update,
            self.window_start,
            self.segment_id,
            self.entries,
        )

    def covers(self, now: int) -> bool:
        return self.this_update <= now < self.next_update

    @cached_property
    def _listed(self) -> frozenset[int]:
        return frozenset(s for s, _ in self.entries)

    def lists(self, serial: int) -> bool:
        return serial in self._listed

    def to_json_dict(self) -> dict:
        return {
            "issuer": self.issuer,
            "kind": self.kind.value,
            "this_update": self.this_update,
            "next_update": self.next_update,
            "window_start": self.window_start,
            "segment_id": self.segment_id,
            "entries": [[s, t] for s, t in self.entries],
            "signature": {"key_id": self.signature.key_id, "mac": self.signature.mac.hex()},
        }

    @staticmethod
    def from_json_dict(d: dict) -> "CrlDocument":
        """The document to_json_dict wrote. A field of the wrong JSON type
        raises TypeError here, once, rather than in __post_init__, which
        every simulated publication runs."""
        window_start = d.get("window_start")
        segment_id = d.get("segment_id")
        return CrlDocument(
            issuer=json_str(d["issuer"]),
            kind=CrlKind(d["kind"]),
            this_update=json_int(d["this_update"]),
            next_update=json_int(d["next_update"]),
            window_start=None if window_start is None else json_int(window_start),
            segment_id=None if segment_id is None else json_str(segment_id),
            entries=tuple((json_int(s), json_int(t)) for s, t in d["entries"]),
            signature=Signature(
                json_str(d["signature"]["key_id"]), bytes.fromhex(d["signature"]["mac"])
            ),
        )


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


def _table_payload(version: int, ranges: tuple[tuple[int, int, str], ...]) -> bytes:
    parts = [pack_u32(version), pack_u32(len(ranges))]
    parts.extend(pack_u64(lo) + pack_u64(hi) + pack_str(seg) for lo, hi, seg in sorted(ranges))
    return b"".join(parts)


def _check_partition(ranges: Sequence[tuple[int, int, str]]) -> None:
    """The ranges are non-empty closed intervals that tile their envelope:
    pairwise disjoint, with no gap between neighbours."""
    if not ranges:
        raise PartitionError("redirect table has no ranges")
    ordered = sorted(ranges)
    for lo, hi, _ in ordered:
        if lo > hi:
            raise PartitionError(f"empty range [{lo}, {hi}]")
    for (_, hi_a, _), (lo_b, _, _) in zip(ordered, ordered[1:]):
        if lo_b <= hi_a:
            raise PartitionError("redirect table ranges overlap")
        if lo_b != hi_a + 1:
            raise PartitionError(f"gap between {hi_a} and {lo_b}")


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
        _check_partition(self.ranges)

    def _payload(self) -> bytes:
        return _table_payload(self.version, self.ranges)

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
    """Check the partition, sign the table's encoded fields, then build it;
    a malformed table raises PartitionError before anything is signed."""
    ranges = tuple(ranges)
    _check_partition(ranges)
    payload = _table_payload(version, ranges)
    return keep_payload(RedirectTable(version, ranges, keystore.sign(payload, key_id)), payload)


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
        """Encode the fields, sign them, then build the document once, so its
        checks run once; it holds the bytes just signed."""
        check_time(next_update)
        entries = tuple(sorted(entries))
        payload = _crl_payload(
            self.key_id, kind, this_update, next_update, window_start, segment_id, entries
        )
        doc = CrlDocument(
            issuer=self.key_id,
            kind=kind,
            this_update=this_update,
            next_update=next_update,
            window_start=window_start,
            segment_id=segment_id,
            entries=entries,
            signature=self.keystore.sign(payload, self.key_id),
        )
        return keep_payload(doc, payload)

    def issue_full(
        self,
        revoked: Iterable[RevocationRecord],
        now: int,
        expiry: Optional[dict[int, int]] = None,
    ) -> CrlDocument:
        """Full list of all currently valid (non-expired) but revoked certificates.

        When an expiry map is supplied the not-yet-expired precondition is
        enforced; entries for expired certificates are a caller error, not
        something to silently drop.
        """
        entries = []
        for record in revoked:
            if expiry is not None and expiry.get(record.serial, TIME_MAX) <= now:
                raise ExpiredEntryError(f"serial {record.serial} expired before {now}")
            entries.append((record.serial, record.revoked_at))
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
    table: Optional[RedirectTable] = None,
) -> CrlStatus:
    """Status decision over a cache of documents whose signatures are unchecked.

    A document with a bad signature is discarded as if absent; the rest go
    to decide_status. A client that verifies each document when it arrives
    calls decide_status on its cache directly.
    """
    valid = [d for d in docs if d.verify(keystore, issuer_key)]
    return decide_status(serial, valid, now, table)


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
