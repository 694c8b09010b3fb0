"""CRL family: issuance, deltas, sliding windows, segments, status checks."""

import dataclasses
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revokebench.core import (
    DAY, HOUR, SERIAL_MAX, DecodeError, KeyStore, RevocationRecord, Signature
)
from revokebench.crl import (
    CrlDocument,
    CrlIssuer,
    CrlKind,
    CrlStatus,
    DeltaBaseError,
    IssuanceSchedule,
    PartitionError,
    check_status,
    decide_status,
    make_redirect_table,
    parse_crl,
    resolve_segment,
)


def make_issuer(keystore, **kwargs):
    kwargs.setdefault("base_period", DAY)
    return CrlIssuer(keystore, "ca", IssuanceSchedule(**kwargs))


def records_of(*pairs):
    return [RevocationRecord(serial=s, revoked_at=t) for s, t in pairs]


def two_pass_decide_status(serial, verified_docs, now, table=None):
    """decide_status as it was before it took one pass: the oracle for it."""
    valid = list(verified_docs)

    scope_segment = None
    if table is not None:
        scope_segment = resolve_segment(serial, table)

    bases = [
        d
        for d in valid
        if d.kind is CrlKind.FULL
        or (d.kind is CrlKind.SEGMENT and scope_segment is not None and d.segment_id == scope_segment)
    ]
    if not bases:
        return CrlStatus.STALE_INFORMATION
    base = max(bases, key=lambda d: d.this_update)

    deltas = sorted(
        (d for d in valid if d.kind is CrlKind.DELTA),
        key=lambda d: d.this_update,
    )
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


class TestIssueFull:
    def test_empty(self, keystore):
        doc = make_issuer(keystore).issue_full([], 0)
        assert doc.kind is CrlKind.FULL
        assert doc.entries == ()
        assert doc.verify(keystore, "ca")

    def test_direct_construction(self, keystore):
        doc = make_issuer(keystore).issue_full(records_of((3, 0), (7, 0)), 0)
        assert [s for s, _ in doc.entries] == [3, 7]
        assert doc.next_update == 86400

    def test_thousand_records_match_brute_force(self, keystore, rng):
        now = 1_000_000
        expiry = {}
        raw = []
        for serial in range(1, 1001):
            expiry[serial] = rng.randrange(1, 2 * now)
            raw.append(RevocationRecord(serial=serial, revoked_at=rng.randrange(now)))
        survivors = [r for r in raw if expiry[r.serial] > now]  # oracle: linear scan
        doc = make_issuer(keystore).issue_full(survivors, now)
        assert sorted(s for s, _ in doc.entries) == sorted(r.serial for r in survivors)


class TestTimeOffTheClock:
    """A `now` off the u64 clock raises OverflowError, as check_time does,
    on every issue path and before anything is signed: a negative one
    reached the encoder and raised struct.error there."""

    @pytest.mark.parametrize("now", [-5, -1, 2**64 - 1, 2**64])
    def test_signs_nothing(self, keystore, now):
        other = KeyStore()
        other.register("ca", b"base-key")
        base = make_issuer(other).issue_full([], 0)
        issuer = make_issuer(keystore, delta_period=HOUR, window_length=2 * DAY)
        table = make_redirect_table(1, [(0, SERIAL_MAX, "all")], other, "ca")
        records = records_of((3, 0))
        calls = [
            lambda: issuer.issue_full([], now),
            lambda: issuer.issue_full(records, now),
            lambda: issuer.issue_delta([], base, now),
            lambda: issuer.issue_sliding_delta(records, now),
            lambda: issuer.segment(records, table, now),
        ]
        for call in calls:
            with pytest.raises(OverflowError, match="outside unsigned 64-bit range"):
                call()
        assert keystore.counts == {}


class TestBuiltOnce:
    """Each issued document is built once, so its checks run once."""

    def test_one_construction_per_issued_document(self, keystore, monkeypatch):
        built = []
        original = CrlDocument.__post_init__

        def counted(doc):
            built.append(doc.kind)
            original(doc)

        monkeypatch.setattr(CrlDocument, "__post_init__", counted)
        issuer = make_issuer(keystore, delta_period=HOUR, window_length=2 * DAY)
        records = records_of((3, 10), (70, 20), (150, 30))
        base = issuer.issue_full(records, 100)
        assert built == [CrlKind.FULL]
        issuer.issue_delta(records_of((4, 200)), base, 300)
        assert built[1:] == [CrlKind.DELTA]
        issuer.issue_sliding_delta(records, 400)
        assert built[2:] == [CrlKind.DELTA]
        table = make_redirect_table(1, [(0, 99, "A"), (100, 999, "B")], keystore, "ca")
        segments = issuer.segment(records, table, 500)
        assert built[3:] == [CrlKind.SEGMENT] * len(segments) == [CrlKind.SEGMENT] * 2


class TestIssueDelta:
    def test_empty_delta_still_signed(self, keystore):
        issuer = make_issuer(keystore, delta_period=HOUR)
        base = issuer.issue_full([], 0)
        delta = issuer.issue_delta([], base, 100)
        assert delta.kind is CrlKind.DELTA
        assert delta.entries == ()
        assert delta.verify(keystore, "ca")

    def test_window_start_is_base_issuance(self, keystore):
        issuer = make_issuer(keystore, delta_period=HOUR)
        base = issuer.issue_full([], 0)
        delta = issuer.issue_delta(records_of((1, 100), (2, 200)), base, 300)
        assert delta.window_start == 0
        assert [s for s, _ in delta.entries] == [1, 2]

    def test_record_predating_base_rejected(self, keystore):
        issuer = make_issuer(keystore, delta_period=HOUR)
        base = issuer.issue_full([], 500)
        with pytest.raises(DeltaBaseError):
            issuer.issue_delta(records_of((1, 400)), base, 600)

    def test_delta_on_delta_rejected(self, keystore):
        issuer = make_issuer(keystore, delta_period=HOUR)
        base = issuer.issue_full([], 0)
        delta = issuer.issue_delta([], base, 100)
        with pytest.raises(DeltaBaseError):
            issuer.issue_delta([], delta, 200)

    def test_apply_equals_full_reissue(self, keystore, rng):
        """Oracle: recompute the full list from all records at delta time."""
        issuer = make_issuer(keystore, delta_period=HOUR)
        early = records_of(*[(s, rng.randrange(1000)) for s in range(1, 30)])
        base = issuer.issue_full(early, 1000)
        late = records_of(*[(s, 1001 + rng.randrange(1000)) for s in range(30, 50)])
        delta = issuer.issue_delta(late, base, 2500)
        merged = dict(base.entries)  # union by serial
        merged.update(delta.entries)
        full = issuer.issue_full(early + late, 2500)
        assert sorted(merged.items()) == list(full.entries)


class TestSlidingDelta:
    def test_window_covering_history_equals_full_list(self, keystore):
        issuer = make_issuer(keystore, delta_period=HOUR, window_length=10 * DAY)
        recs = records_of((1, 0), (2, 500), (3, 900))
        doc = issuer.issue_sliding_delta(recs, 1000)
        assert [s for s, _ in doc.entries] == [1, 2, 3]

    def test_window_boundaries(self, keystore):
        issuer = make_issuer(keystore, base_period=100, delta_period=50, window_length=100)
        recs = records_of((1, 899), (2, 900), (3, 1000), (4, 1001))
        doc = issuer.issue_sliding_delta(recs, 1000)
        # (now - W, now] is half-open at the old end
        assert [s for s, _ in doc.entries] == [3]
        assert doc.window_start == 900

    def test_random_stream_matches_time_filter(self, keystore, rng):
        issuer = make_issuer(keystore, delta_period=HOUR, window_length=3 * DAY)
        recs = records_of(*[(s, rng.randrange(30 * DAY)) for s in range(1, 500)])
        now = 20 * DAY
        doc = issuer.issue_sliding_delta(recs, now)
        oracle = sorted(r.serial for r in recs if now - 3 * DAY < r.revoked_at <= now)
        assert [s for s, _ in doc.entries] == oracle


class TestCheckStatus:
    def test_membership_on_current_full(self, keystore):
        issuer = make_issuer(keystore)
        doc = issuer.issue_full(records_of((7, 10)), 100)
        assert check_status(7, [doc], 200, keystore, "ca") is CrlStatus.REVOKED
        assert check_status(8, [doc], 200, keystore, "ca") is CrlStatus.NOT_REVOKED

    def test_empty_cache_is_stale(self, keystore):
        assert check_status(7, [], 0, keystore, "ca") is CrlStatus.STALE_INFORMATION

    def test_expired_doc_is_stale(self, keystore):
        issuer = make_issuer(keystore)
        doc = issuer.issue_full([], 0)
        assert check_status(7, [doc], DAY, keystore, "ca") is CrlStatus.STALE_INFORMATION

    def test_tampered_doc_discarded(self, keystore):
        issuer = make_issuer(keystore)
        good = issuer.issue_full(records_of((7, 10)), 100)
        bad = CrlDocument(
            issuer=good.issuer,
            kind=good.kind,
            this_update=good.this_update,
            next_update=good.next_update,
            entries=((8, 10),),  # entry swapped after signing
            signature=good.signature,
        )
        assert check_status(8, [bad], 200, keystore, "ca") is CrlStatus.STALE_INFORMATION

    def test_base_plus_current_delta_covers(self, keystore):
        issuer = make_issuer(keystore, base_period=1000, delta_period=100)
        base = issuer.issue_full([], 0)
        delta = issuer.issue_delta(records_of((9, 1500)), base, 1500)
        # base expired at 1000, but the chained current delta keeps coverage
        assert check_status(9, [base, delta], 1550, keystore, "ca") is CrlStatus.REVOKED
        assert check_status(4, [base, delta], 1550, keystore, "ca") is CrlStatus.NOT_REVOKED

    def test_chain_gap_is_stale(self, keystore):
        issuer = make_issuer(keystore, base_period=100, delta_period=50, window_length=100)
        base = issuer.issue_full([], 0)
        # window (100, 200] does not reach back to the base issued at 0
        orphan = issuer.issue_sliding_delta([], 200)
        assert check_status(1, [base, orphan], 210, keystore, "ca") is CrlStatus.STALE_INFORMATION

    def test_segment_scope_respected(self, keystore):
        """A segment document only answers for serials its range covers."""
        issuer = make_issuer(keystore)
        table = make_redirect_table(1, [(0, 99, "A"), (100, 999, "B")], keystore, "ca")
        docs = issuer.segment(records_of((3, 0), (300, 0)), table, 0)
        doc_a = next(d for d in docs if d.segment_id == "A")
        status = decide_status(300, [doc_a], 50, table)
        assert status is CrlStatus.STALE_INFORMATION  # wrong segment: no basis
        doc_b = next(d for d in docs if d.segment_id == "B")
        assert decide_status(300, [doc_b], 50, table) is CrlStatus.REVOKED
        assert decide_status(150, [doc_b], 50, table) is CrlStatus.NOT_REVOKED

    def test_71h_gaps_never_need_second_base(self, keystore):
        """Client consulting at least every 71h under a 72h window keeps full
        coverage from its first base forever."""
        issuer = make_issuer(keystore, base_period=DAY, delta_period=15 * 60, window_length=72 * HOUR)
        all_records = records_of(*[(s, s * 7919 % (30 * DAY)) for s in range(1, 200)])
        cache = [issuer.issue_full([r for r in all_records if r.revoked_at <= 0], 0)]
        t = 0
        for _ in range(10):
            t += 71 * HOUR
            tick = (t // (15 * 60)) * (15 * 60)
            current = [r for r in all_records if r.revoked_at <= tick]
            cache.append(issuer.issue_sliding_delta(current, tick))
            status = check_status(1, cache, t, keystore, "ca")
            assert status is not CrlStatus.STALE_INFORMATION


class TestSegments:
    def test_degenerate_partition_matches_full(self, keystore):
        issuer = make_issuer(keystore)
        table = make_redirect_table(1, [(0, 2**64 - 2, "all")], keystore, "ca")
        recs = records_of((3, 0), (300, 0))
        [seg] = issuer.segment(recs, table, 0)
        full = issuer.issue_full(recs, 0)
        assert seg.entries == full.entries

    def test_direct_routing(self, keystore):
        issuer = make_issuer(keystore)
        table = make_redirect_table(1, [(0, 99, "A"), (100, 999, "B")], keystore, "ca")
        docs = {d.segment_id: d for d in issuer.segment(records_of((3, 0), (300, 0)), table, 0)}
        assert [s for s, _ in docs["A"].entries] == [3]
        assert [s for s, _ in docs["B"].entries] == [300]

    def test_random_partition_matches_range_filter(self, keystore, rng):
        issuer = make_issuer(keystore)
        bounds = sorted(rng.sample(range(1, 10_000), 7))
        ranges = []
        lo = 0
        for i, b in enumerate(bounds):
            ranges.append((lo, b, f"s{i}"))
            lo = b + 1
        ranges.append((lo, 10_000, "s7"))
        table = make_redirect_table(1, ranges, keystore, "ca")
        recs = records_of(*[(rng.randrange(1, 10_000), 0) for _ in range(500)])
        recs = list({r.serial: r for r in recs}.values())
        docs = {d.segment_id: d for d in issuer.segment(recs, table, 0)}
        for lo_r, hi_r, seg in ranges:  # oracle: per-range linear filter
            expected = sorted(r.serial for r in recs if lo_r <= r.serial <= hi_r)
            assert [s for s, _ in docs[seg].entries] == expected
        all_entries = sorted(s for d in docs.values() for s, _ in d.entries)
        assert all_entries == sorted(r.serial for r in recs)

    def test_partition_gap_rejected(self, keystore):
        with pytest.raises(PartitionError):
            make_redirect_table(1, [(0, 99, "A"), (101, 999, "B")], keystore, "ca")
        assert keystore.sign_count == 0  # rejected before signing

    def test_partition_overlap_rejected(self, keystore):
        with pytest.raises(PartitionError):
            make_redirect_table(1, [(0, 100, "A"), (100, 999, "B")], keystore, "ca")
        assert keystore.sign_count == 0

    @pytest.mark.parametrize("ranges", [[], [(5, 4, "A")]])
    def test_empty_table_or_range_rejected(self, keystore, ranges):
        with pytest.raises(PartitionError):
            make_redirect_table(1, ranges, keystore, "ca")
        assert keystore.sign_count == 0


class TestResolveSegment:
    def test_boundary_serial_belongs_to_its_range(self, keystore):
        table = make_redirect_table(1, [(0, 99, "A"), (100, 999, "B")], keystore, "ca")
        assert resolve_segment(99, table) == "A"
        assert resolve_segment(100, table) == "B"

    def test_repartition_re_resolves(self, keystore):
        v1 = make_redirect_table(1, [(0, 999, "hot")], keystore, "ca")
        v2 = make_redirect_table(2, [(0, 499, "left"), (500, 999, "right")], keystore, "ca")
        assert resolve_segment(700, v1) == "hot"
        assert resolve_segment(700, v2) == "right"

    def test_uncovered_serial_rejected(self, keystore):
        table = make_redirect_table(1, [(0, 99, "A")], keystore, "ca")
        with pytest.raises(PartitionError):
            resolve_segment(100, table)

    def test_random_tables_match_linear_scan(self, keystore, rng):
        for _ in range(20):
            bounds = sorted(rng.sample(range(1, 5000), rng.randrange(1, 6)))
            ranges, lo = [], 0
            for i, b in enumerate(bounds):
                ranges.append((lo, b, f"s{i}"))
                lo = b + 1
            ranges.append((lo, 5000, "last"))
            table = make_redirect_table(1, ranges, keystore, "ca")
            for _ in range(50):
                serial = rng.randrange(5001)
                expected = next(seg for lo_r, hi_r, seg in ranges if lo_r <= serial <= hi_r)
                assert resolve_segment(serial, table) == expected


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), sliding=st.booleans())
    def test_reconstruction_equals_single_full(self, seed, sliding):
        """Status from (base + deltas) equals status from one fresh full CRL."""
        r = random.Random(seed)
        keystore = KeyStore()
        keystore.generate("ca", random.Random(1))
        issuer = make_issuer(
            keystore, base_period=1000, delta_period=250, window_length=1000
        )
        records = [
            RevocationRecord(serial=s, revoked_at=r.randrange(1, 2400))
            for s in r.sample(range(1, 100), 40)
        ]
        def upto(t):
            return [rec for rec in records if rec.revoked_at <= t]

        base = issuer.issue_full(upto(0), 0)
        docs = [base]
        for t in (250, 500, 750, 1000, 1250, 1500, 1750, 2000, 2250):
            if sliding:
                docs.append(issuer.issue_sliding_delta(upto(t), t))
            else:
                if t % 1000 == 0:
                    base = issuer.issue_full(upto(t), t)
                    docs.append(base)
                else:
                    since = [rec for rec in upto(t) if rec.revoked_at > base.this_update]
                    docs.append(issuer.issue_delta(since, base, t))
        # The reference full list is issued at the same instant as the last
        # delta, so both sides share the same knowledge horizon.
        reference = issuer.issue_full(upto(2250), 2250)
        now = 2400
        for serial in range(1, 100):
            via_docs = check_status(serial, docs, now, keystore, "ca")
            via_full = check_status(serial, [reference], now, keystore, "ca")
            assert via_docs == via_full

    def test_tamper_evidence_on_every_entry(self, keystore, rng):
        issuer = make_issuer(keystore)
        recs = records_of(*[(s, rng.randrange(100)) for s in range(1, 20)])
        doc = issuer.issue_full(recs, 100)
        for i in range(len(doc.entries)):
            entries = list(doc.entries)
            serial, at = entries[i]
            entries[i] = (serial + 5000, at)
            mutated = CrlDocument(
                issuer=doc.issuer,
                kind=doc.kind,
                this_update=doc.this_update,
                next_update=doc.next_update,
                entries=tuple(sorted(entries)),
                signature=doc.signature,
            )
            assert not mutated.verify(keystore, "ca")


def reference_crl_payload(doc: CrlDocument) -> bytes:
    """Per-entry encoding of the signed CRL fields, spelled out."""

    def u64(v):
        return struct.pack(">Q", v)

    def text(s):
        b = s.encode("utf-8")
        return struct.pack(">I", len(b)) + b

    out = text(doc.issuer) + text(doc.kind.value) + u64(doc.this_update) + u64(doc.next_update)
    out += b"\x00" if doc.window_start is None else b"\x01" + u64(doc.window_start)
    out += b"\x00" if doc.segment_id is None else b"\x01" + text(doc.segment_id)
    out += struct.pack(">I", len(doc.entries))
    for serial, revoked_at in doc.entries:
        out += u64(serial) + u64(revoked_at)
    return out


class TestCrlEncoding:
    @pytest.mark.parametrize("n", [0, 1, 2, 500])
    @pytest.mark.parametrize(
        "kind,window_start,segment_id",
        [(CrlKind.FULL, None, None), (CrlKind.DELTA, 7, None), (CrlKind.SEGMENT, None, "seg-2")],
    )
    def test_signed_payload_is_pinned(self, n, kind, window_start, segment_id):
        serials = [1 + 3 * i for i in range(n - 1)] + [SERIAL_MAX - 1] if n else []
        doc = CrlDocument(
            issuer="ca-ü",
            kind=kind,
            this_update=10,
            next_update=2**64 - 1,
            entries=tuple((s, 7 + s % 1000) for s in serials),
            signature=Signature("ca", b"\x00" * 32),
            window_start=window_start,
            segment_id=segment_id,
        )
        assert doc.signed_payload() == reference_crl_payload(doc)
        assert doc.wire_size == len(reference_crl_payload(doc)) + doc.signature.wire_size


WIRE_KEYS = KeyStore()
WIRE_KEYS.generate("ca", random.Random(2))
KINDS = ["full", "delta", "sliding", "segment"]


def wire_crls(kind, records, now):
    """The documents of one kind the issuer makes over records at now,
    signed under WIRE_KEYS' "ca": one, or for segments one per segment."""
    issuer = make_issuer(WIRE_KEYS, delta_period=HOUR, window_length=DAY)
    if kind == "full":
        return [issuer.issue_full(records, now)]
    if kind == "delta":
        base = issuer.issue_full([r for r in records if r.revoked_at <= 2000], 2000)
        return [issuer.issue_delta([r for r in records if r.revoked_at > 2000], base, now)]
    if kind == "sliding":
        return [issuer.issue_sliding_delta(records, now)]
    table = make_redirect_table(
        1, [(0, 2**63, "seg-a"), (2**63 + 1, SERIAL_MAX, "seg-\u00fc")], WIRE_KEYS, "ca"
    )
    return issuer.segment(records, table, now)


@st.composite
def issued_crls(draw):
    """A document of any kind the issuer makes, over a few revocations."""
    serials = st.integers(1, SERIAL_MAX - 1)
    revoked = draw(st.dictionaries(serials, st.integers(1, 5000), max_size=6))
    now = draw(st.integers(5000, 10_000))
    kind = draw(st.sampled_from(KINDS))
    return draw(st.sampled_from(wire_crls(kind, records_of(*revoked.items()), now)))


class TestWire:
    """parse_crl reads back exactly the bytes to_bytes writes, and nothing else."""

    @settings(max_examples=60, deadline=None)
    @given(doc=issued_crls())
    def test_round_trip_holds_the_bytes_received(self, doc):
        data = doc.to_bytes()
        parsed = parse_crl(data)
        assert parsed == doc
        assert parsed.to_bytes() == data
        # it holds the payload received, and that is what its fields encode to
        assert vars(parsed)["_held"] == parsed._payload() == doc.signed_payload()
        assert parsed.verify(WIRE_KEYS, "ca")

    @settings(max_examples=30, deadline=None)
    @given(doc=issued_crls())
    def test_every_truncation_and_extension_is_rejected(self, doc):
        data = doc.to_bytes()
        for cut in range(len(data)):
            with pytest.raises(DecodeError, match="crl truncated"):
                parse_crl(data[:cut])
        for extra in range(256):
            with pytest.raises(DecodeError, match="crl has 1 trailing bytes"):
                parse_crl(data + bytes([extra]))

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_single_byte_change_is_rejected_or_fails_verify(self, kind):
        [doc, *_] = wire_crls(kind, records_of((3, 1500), (2**63 + 9, 2500)), 6000)
        data = doc.to_bytes()
        for i in range(len(data)):
            for value in range(256):
                if value == data[i]:
                    continue
                try:
                    changed = parse_crl(data[:i] + bytes([value]) + data[i + 1 :])
                except DecodeError:
                    continue
                assert not changed.verify(WIRE_KEYS, "ca"), (i, value)

    @pytest.mark.parametrize("flag", [2, 3, 255])
    @pytest.mark.parametrize("which", ["window_start", "segment_id"])
    def test_an_option_flag_other_than_0_or_1_is_rejected(self, keystore, flag, which):
        doc = make_issuer(keystore).issue_full(records_of((5, 30)), 100)
        at = 4 + 2 + 4 + 4 + 16  # issuer "ca", kind "full", the two update times
        if which == "segment_id":
            at += 1  # past the absent window_start's flag
        data = doc.to_bytes()
        assert data[at] == 0
        with pytest.raises(DecodeError, match=f"has {flag} at byte {at}"):
            parse_crl(data[:at] + bytes([flag]) + data[at + 1 :])

    def test_an_unknown_kind_is_rejected(self, keystore):
        data = make_issuer(keystore).issue_full([], 100).to_bytes()
        assert data[6:14] == b"\x00\x00\x00\x04full"
        with pytest.raises(DecodeError, match="'fuzz' is not a valid CrlKind"):
            parse_crl(data[:10] + b"fuzz" + data[14:])

    def test_fields_no_document_holds_are_rejected(self, keystore):
        """Bytes that frame well but break a document's own rule."""
        doc = make_issuer(keystore).issue_full(records_of((5, 30), (9, 40)), 100)
        swapped = dataclasses.replace(doc, entries=((5, 30), (9, 40)))
        data = swapped.to_bytes()
        entries_at = data.index(struct.pack(">QQ", 5, 30))
        out_of_order = (
            data[:entries_at] + struct.pack(">QQQQ", 9, 40, 5, 30) + data[entries_at + 32 :]
        )
        with pytest.raises(DecodeError, match="strictly ascending"):
            parse_crl(out_of_order)


class TestDecideStatus:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_check_status_decides_over_the_verified_documents(self, data):
        keystore = KeyStore()
        keystore.generate("ca", random.Random(1))
        issuer = make_issuer(keystore, base_period=1000, delta_period=250, window_length=1000)
        table = make_redirect_table(
            1, [(0, 49, "seg0"), (50, SERIAL_MAX, "seg1")], keystore, "ca"
        )
        revoked_at = data.draw(st.dictionaries(st.integers(1, 99), st.integers(1, 3000)))
        records = [RevocationRecord(serial=s, revoked_at=t) for s, t in revoked_at.items()]

        def upto(t):
            return [r for r in records if r.revoked_at <= t]

        times = st.sampled_from(range(0, 3000, 250))
        docs = []
        for kind in data.draw(
            st.lists(st.sampled_from(["full", "delta", "sliding", "segment"]), max_size=6)
        ):
            t = data.draw(times)
            if kind == "full":
                doc = issuer.issue_full(upto(t), t)
            elif kind == "delta":
                b = data.draw(st.sampled_from(range(0, t + 1, 250)))
                base = issuer.issue_full(upto(b), b)
                doc = issuer.issue_delta([r for r in upto(t) if r.revoked_at > b], base, t)
            elif kind == "sliding":
                doc = issuer.issue_sliding_delta(upto(t), t)
            else:
                doc = data.draw(st.sampled_from(issuer.segment(upto(t), table, t)))
            if data.draw(st.booleans()):
                mac = bytearray(doc.signature.mac)
                bit = data.draw(st.integers(0, 8 * len(mac) - 1))
                mac[bit // 8] ^= 1 << bit % 8
                doc = dataclasses.replace(doc, signature=Signature("ca", bytes(mac)))
            docs.append(doc)
        serial = data.draw(st.sampled_from(sorted(revoked_at)) if revoked_at else st.just(0))
        now = data.draw(st.sampled_from([d.this_update for d in docs] or [0]))
        now += data.draw(st.integers(0, 1200))
        verified = [d for d in docs if d.verify(keystore, "ca")]
        assert check_status(serial, docs, now, keystore, "ca") == decide_status(
            serial, verified, now
        )

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_pass_equals_the_two_pass_oracle(self, data):
        """decide_status equals its earlier two-pass form on any document
        set: shuffled, with tied bases, gapped or open-window deltas, segments
        in and out of scope, and `now` before, inside or after the coverage."""
        keystore = KeyStore()
        keystore.generate("ca", random.Random(1))
        table = make_redirect_table(1, [(0, 4, "seg0"), (5, SERIAL_MAX, "seg1")], keystore, "ca")
        kinds = data.draw(st.lists(st.sampled_from([CrlKind.FULL, CrlKind.SEGMENT]), max_size=3))
        kinds += [CrlKind.DELTA] * data.draw(st.integers(0, 4))
        docs = []
        for kind in kinds:
            # deltas reach past the bases, so chains of them form
            latest = 600 if kind is CrlKind.DELTA else 400
            this_update = data.draw(st.sampled_from(range(0, latest, 100)))
            window_start = None
            if kind is CrlKind.DELTA:
                window_start = data.draw(
                    st.sampled_from([None, *range(0, this_update + 1, 100)])
                )
            serials = data.draw(st.sets(st.integers(1, 9), max_size=3))
            docs.append(
                CrlDocument(
                    issuer="ca",
                    kind=kind,
                    this_update=this_update,
                    next_update=this_update + data.draw(st.sampled_from([50, 100, 250])),
                    entries=tuple((s, this_update) for s in sorted(serials)),
                    signature=Signature("ca", bytes(16)),
                    window_start=window_start,
                    segment_id=(
                        data.draw(st.sampled_from(["seg0", "seg1"]))
                        if kind is CrlKind.SEGMENT
                        else None
                    ),
                )
            )
        docs = data.draw(st.permutations(docs))
        # a listed serial, or one in either segment that may be listed nowhere
        serial = data.draw(st.sampled_from([s for d in docs for s, _ in d.entries] + [1, 8]))
        # from before a document's coverage to past it
        now = data.draw(st.sampled_from([d.this_update for d in docs] or [0]))
        now = max(0, now + data.draw(st.integers(-100, 300)))
        scope = data.draw(st.sampled_from([None, table]))
        assert decide_status(serial, iter(docs), now, scope) is two_pass_decide_status(
            serial, docs, now, scope
        )

    def test_deltas_chain_in_this_update_order_whatever_the_input_order(self, keystore):
        issuer = make_issuer(keystore, delta_period=100)
        base = issuer.issue_full([], 0)
        older = issuer.issue_delta(records_of((7, 50)), base, 100)
        newer = issuer.issue_delta([], base, 200)
        for docs in ([base, older, newer], [newer, older, base], [older, newer, base]):
            assert decide_status(7, docs, 250) is CrlStatus.REVOKED
            assert decide_status(8, docs, 250) is CrlStatus.NOT_REVOKED

    def test_the_first_of_two_tied_bases_decides(self, keystore):
        issuer = make_issuer(keystore)
        listing = issuer.issue_full(records_of((7, 50)), 100)
        empty = issuer.issue_full([], 100)
        assert decide_status(7, [listing, empty], 150) is CrlStatus.REVOKED
        assert decide_status(7, [empty, listing], 150) is CrlStatus.NOT_REVOKED

    @settings(max_examples=60)
    @given(
        serials=st.sets(st.integers(0, SERIAL_MAX), max_size=40),
        probes=st.lists(st.integers(0, SERIAL_MAX), max_size=10),
    )
    @example(serials=set(), probes=[0, 1, SERIAL_MAX])
    @example(serials={7}, probes=[6, 7, 8])
    @example(serials=set(range(1, 400, 3)), probes=list(range(0, 402)))
    def test_lists_is_membership_of_the_entry_serials(self, serials, probes):
        entries = tuple((s, 1) for s in sorted(serials))
        doc = CrlDocument(
            issuer="ca",
            kind=CrlKind.FULL,
            this_update=0,
            next_update=1,
            entries=entries,
            signature=Signature("ca", b""),
        )
        listed = {s for s, _ in entries}
        for serial in probes + sorted(serials):
            assert doc.lists(serial) == (serial in listed)


def test_schedule_validation():
    with pytest.raises(ValueError):
        IssuanceSchedule(base_period=100, delta_period=33)
    with pytest.raises(ValueError):
        IssuanceSchedule(base_period=100, overissue_factor=0)
    with pytest.raises(ValueError):
        IssuanceSchedule(base_period=100, window_length=50)  # window below base
    s = IssuanceSchedule(base_period=100, overissue_factor=4)
    assert s.release_interval == 25
