"""Core primitives: signatures, the one-way function, certificates, ledger."""

import hashlib
import hmac
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revokebench.core import (
    Certificate,
    CrsAnchor,
    KeyStore,
    Ledger,
    OneWayFunction,
    ReasonCode,
    Signature,
    UnknownKeyError,
    WidthError,
    SERIAL_MAX,
    check_time,
    make_certificate,
    make_certificates,
    verify_certificate,
)


def naive_F(x: bytes, n: int, width_bits: int = 100) -> bytes:
    """Independent oracle: n single applications, spelled out from scratch."""
    width_bytes = (width_bits + 7) // 8
    mask = 0xFF >> (width_bytes * 8 - width_bits)
    cur = x
    for _ in range(n):
        digest = hashlib.sha256(b"owf:" + cur).digest()[:width_bytes]
        cur = bytes([digest[0] & mask]) + digest[1:]
    return cur


class TestSignatures:
    def test_round_trip(self, keystore):
        sig = keystore.sign(b"hello", "ca")
        assert keystore.verify(b"hello", sig, "ca")

    def test_flipped_bit_rejected(self, keystore):
        msg = b"a message of some length"
        sig = keystore.sign(msg, "ca")
        tampered = bytes([msg[0] ^ 0x01]) + msg[1:]
        assert not keystore.verify(tampered, sig, "ca")

    def test_wrong_key_rejected(self, keystore):
        sig = keystore.sign(b"hello", "ca")
        assert not keystore.verify(b"hello", sig, "other")

    def test_unknown_key_errors(self, keystore):
        with pytest.raises(UnknownKeyError):
            keystore.sign(b"x", "nope")
        with pytest.raises(UnknownKeyError):
            keystore.verify(b"x", Signature("nope", b""), "nope")

    def test_wire_size_is_encoded_length(self, keystore):
        for sig in (keystore.sign(b"x", "ca"), Signature("clé-ü", b"\x01" * 7), Signature("", b"")):
            assert sig.wire_size == len(sig.to_bytes())

    def test_soundness_thousand_flips(self, keystore, rng):
        for _ in range(1000):
            msg = rng.getrandbits(256).to_bytes(32, "big")
            sig = keystore.sign(msg, "ca")
            pos = rng.randrange(len(msg))
            bit = 1 << rng.randrange(8)
            flipped = msg[:pos] + bytes([msg[pos] ^ bit]) + msg[pos + 1 :]
            assert not keystore.verify(flipped, sig, "ca")


class TestMacReference:
    """KeyStore MACs are the standard library's HMAC-SHA256 bytes."""

    @settings(max_examples=60)
    @given(
        secret=st.sampled_from([0, 1, 32, 64, 65, 200]).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        message=st.one_of(st.binary(max_size=80), st.binary(min_size=1000, max_size=5000)),
    )
    def test_equals_stdlib_hmac(self, secret, message):
        ks = KeyStore()
        ks.register("k", secret)
        sig = ks.sign(message, "k")
        assert sig.mac == hmac.new(secret, message, hashlib.sha256).digest()
        assert ks.verify(message, sig, "k")

    def test_register_replaces_the_key(self):
        ks = KeyStore()
        ks.register("k", b"first")
        old = ks.sign(b"msg", "k")
        ks.register("k", b"second")
        assert ks.sign(b"msg", "k").mac == hmac.new(b"second", b"msg", hashlib.sha256).digest()
        assert not ks.verify(b"msg", old, "k")

    def test_flipped_mac_bit_and_wrong_key_id_rejected(self, keystore):
        sig = keystore.sign(b"payload", "ca")
        for pos in range(len(sig.mac)):
            for bit in range(8):
                mac = bytearray(sig.mac)
                mac[pos] ^= 1 << bit
                assert not keystore.verify(b"payload", Signature("ca", bytes(mac)), "ca")
        assert not keystore.verify(b"payload", Signature("other", sig.mac), "ca")
        assert not keystore.verify(b"payload", sig, "other")

    def test_counters_rise_by_one_per_call(self, keystore):
        for n in range(1, 4):
            sig = keystore.sign(b"m" * n, "ca")
            assert (keystore.sign_count, keystore.verify_count) == (n, n - 1)
            keystore.verify(b"m" * n, sig, "other")
            assert (keystore.sign_count, keystore.verify_count) == (n, n)


class TestSignBatch:
    MESSAGES = [b"", b"a", b"m" * 200, b"a"]

    def test_equals_one_sign_per_message(self, keystore):
        batch = keystore.sign_batch(self.MESSAGES, "ca")
        assert batch == [keystore.sign(m, "ca") for m in self.MESSAGES]
        assert all(type(sig) is Signature for sig in batch)

    def test_counts_the_batch_under_the_current_phase_only(self, keystore):
        keystore.phase = "publish"
        keystore.sign_batch(self.MESSAGES, "ca")
        assert keystore.counts == {("sign", "publish"): len(self.MESSAGES)}
        keystore.phase = "setup"
        assert keystore.sign_batch([], "ca") == []
        assert keystore.counts == {("sign", "publish"): len(self.MESSAGES)}
        assert keystore.sign_count == len(self.MESSAGES)

    @pytest.mark.parametrize("messages", [[], [b"x"]])
    def test_unknown_key_raises_before_counting(self, keystore, messages):
        with pytest.raises(UnknownKeyError):
            keystore.sign_batch(messages, "nobody")
        assert keystore.counts == {}


class TestOneWayFunction:
    def test_zero_iterations_is_identity(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        assert f.iterate(x, 0) == x

    def test_composition(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        assert f.iterate(f.iterate(x, 2), 3) == f.iterate(x, 5)

    def test_365_matches_naive_loop(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        assert f.iterate(x, 365) == naive_F(x, 365)

    def test_wrong_width_rejected(self):
        f = OneWayFunction()
        with pytest.raises(WidthError):
            f.apply(b"\x00" * 12)
        with pytest.raises(WidthError):
            f.apply(b"\xff" * 13)  # excess high bits set

    def test_output_stays_in_domain(self, rng):
        f = OneWayFunction(100)
        x = f.random_value(rng)
        for _ in range(50):
            x = f.apply(x)
            f.check_width(x)

    def test_other_widths(self, rng):
        for width in (8, 64, 160, 256):
            f = OneWayFunction(width)
            x = f.random_value(rng)
            assert len(f.apply(x)) == f.width_bytes

    @settings(max_examples=40)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        a=st.integers(min_value=0, max_value=64),
        b=st.integers(min_value=0, max_value=64),
    )
    def test_composition_property(self, seed, a, b):
        f = OneWayFunction()
        x = f.random_value(random.Random(seed))
        assert f.iterate(x, a + b) == f.iterate(f.iterate(x, b), a)


class TestChain:
    @pytest.mark.parametrize("width", [8, 100, 160, 256])
    def test_equals_repeated_apply(self, rng, width):
        f = OneWayFunction(width)
        x = f.random_value(rng)
        expected = [x]
        for _ in range(40):
            expected.append(f.apply(expected[-1]))
        assert f.chain(x, 40) == b"".join(expected)
        assert f.chain(x, 40)[-f.width_bytes :] == f.iterate(x, 40) == naive_F(x, 40, width)

    def test_zero_steps_is_the_input(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        assert f.chain(x, 0) == x
        assert f.apply_count == 0

    def test_counts_exactly_n_applications(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        f.chain(x, 365)
        assert f.apply_count == 365

    def test_bad_width_rejected_without_counting(self):
        f = OneWayFunction()
        for bad in (b"\x00" * 12, b"\xff" * 13):
            with pytest.raises(WidthError):
                f.chain(bad, 5)
        with pytest.raises(ValueError):
            f.chain(b"\x00" * 13, -1)
        assert f.apply_count == 0


def reference_F(x: bytes, width_bits: int) -> bytes:
    """One application, from a fresh hashlib call over the prefixed input."""
    width_bytes = (width_bits + 7) // 8
    digest = hashlib.sha256(b"owf:" + x).digest()
    return bytes([digest[0] & (0xFF >> (width_bytes * 8 - width_bits))]) + digest[1:width_bytes]


class TestOwfReference:
    """apply, chain and iterate continue a copy of a prefix-seeded SHA-256
    state; each must equal a fresh hashlib.sha256(b"owf:" + x) per step."""

    @settings(max_examples=60, deadline=None)
    @given(
        width=st.integers(min_value=8, max_value=256),
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=0, max_value=40),
    )
    def test_apply_chain_iterate(self, width, seed, n):
        f = OneWayFunction(width)
        x = f.random_value(random.Random(seed))
        expected = [x]
        for _ in range(n):
            expected.append(reference_F(expected[-1], width))

        assert f.apply(x) == reference_F(x, width)
        assert f.apply_count == 1
        assert f.chain(x, n) == b"".join(expected)
        assert f.apply_count == 1 + n
        assert f.iterate(x, n) == expected[-1]
        assert f.apply_count == 1 + 2 * n

    def test_iterate_rejects_before_counting(self):
        f = OneWayFunction()
        for bad in (b"\x00" * 12, b"\xff" * 13):
            with pytest.raises(WidthError):
                f.iterate(bad, 5)
        with pytest.raises(ValueError):
            f.iterate(b"\x00" * 13, -1)
        assert f.apply_count == 0

    def test_instances_do_not_share_state(self, rng):
        a, b = OneWayFunction(100), OneWayFunction(64)
        x, y = a.random_value(rng), b.random_value(rng)
        for _ in range(3):
            assert a.apply(x) == reference_F(x, 100)
            assert b.iterate(y, 2) == reference_F(reference_F(y, 64), 64)
        assert (a.apply_count, b.apply_count) == (3, 6)


class TestCertificates:
    def test_signature_covers_all_fields(self, keystore):
        cert = make_certificate(5, "alice", 0, 100, keystore, "ca")
        assert verify_certificate(cert, keystore, "ca")
        forged = Certificate(
            serial=6,
            subject=cert.subject,
            not_before=cert.not_before,
            not_after=cert.not_after,
            issuer_signature=cert.issuer_signature,
        )
        assert not verify_certificate(forged, keystore, "ca")

    def test_empty_validity_rejected(self, keystore):
        with pytest.raises(ValueError):
            make_certificate(5, "alice", 100, 100, keystore, "ca")

    def test_serialization_is_stable(self, keystore):
        a = make_certificate(5, "alice", 0, 100, keystore, "ca")
        b = make_certificate(5, "alice", 0, 100, keystore, "ca")
        assert a.to_bytes() == b.to_bytes()


def reference_certificate_payload(cert: Certificate) -> bytes:
    """Per-field encoding of the signed certificate fields, spelled out."""

    def u32(v):
        return struct.pack(">I", v)

    def u64(v):
        return struct.pack(">Q", v)

    def text(s):
        b = s.encode("utf-8")
        return u32(len(b)) + b

    out = u64(cert.serial) + text(cert.subject) + u64(cert.not_before) + u64(cert.not_after)
    a = cert.crs_anchor
    if a is None:
        out += b"\x00"
    else:
        out += b"\x01" + u32(len(a.y)) + a.y + u32(len(a.n)) + a.n
        out += u32(a.lifetime_periods) + u64(a.period_length)
    return out + (b"\x00" if cert.segment_id is None else b"\x01" + text(cert.segment_id))


BAD_FIELDS = pytest.mark.parametrize(
    "serial,not_before,not_after",
    [(-1, 0, 100), (2**64, 0, 100), (5, 100, 100), (5, 100, 50)],
)


class TestCertificateEncoding:
    @pytest.mark.parametrize("with_anchor", [False, True])
    @pytest.mark.parametrize("segment_id", [None, "", "seg-ü3"])
    def test_signed_payload_is_pinned(self, keystore, with_anchor, segment_id):
        anchor = CrsAnchor(y=b"\x01" * 13, n=b"\x02" * 13, lifetime_periods=365, period_length=86_400)
        cert = make_certificate(
            SERIAL_MAX,
            "subject-ü",
            2**40,
            2**64 - 1,
            keystore,
            "ca",
            crs_anchor=anchor if with_anchor else None,
            segment_id=segment_id,
        )
        assert cert.signed_payload() == reference_certificate_payload(cert)
        assert cert.issuer_signature == keystore.sign(reference_certificate_payload(cert), "ca")
        assert cert.to_bytes() == cert.signed_payload() + cert.issuer_signature.to_bytes()

    @pytest.mark.parametrize("anchor_bytes", [None, (13, 13), (1, 32)])
    @pytest.mark.parametrize("segment_id", [None, "", "seg-ü3"])
    @pytest.mark.parametrize("subject", ["", "alice", "subject-ü", "証明書-🔑"])
    def test_wire_size_is_the_encoding_length(self, keystore, anchor_bytes, segment_id, subject):
        anchor = None
        if anchor_bytes is not None:
            y_len, n_len = anchor_bytes
            anchor = CrsAnchor(y=b"\x01" * y_len, n=b"\x02" * n_len, lifetime_periods=3, period_length=9)
        cert = make_certificate(
            7, subject, 0, 100, keystore, "ca", crs_anchor=anchor, segment_id=segment_id
        )
        assert cert.wire_size == len(cert.to_bytes())

    @BAD_FIELDS
    def test_bad_fields_raise_before_signing(self, keystore, serial, not_before, not_after):
        with pytest.raises(ValueError):
            make_certificate(serial, "alice", not_before, not_after, keystore, "ca")
        assert keystore.sign_count == 0


class TestCertificateRecord:
    """Certificate and Signature are immutable value records, and every way
    of building a Certificate checks its fields."""

    @pytest.fixture
    def cert(self, keystore):
        anchor = CrsAnchor(y=b"\x01" * 13, n=b"\x02" * 13, lifetime_periods=3, period_length=9)
        return make_certificate(5, "alice", 0, 100, keystore, "ca", crs_anchor=anchor, segment_id="s")

    def test_fields_cannot_be_set(self, cert):
        with pytest.raises(AttributeError):
            cert.serial = 6
        with pytest.raises(AttributeError):
            cert.issuer_signature.mac = b""
        with pytest.raises(AttributeError):
            cert.extra = 1

    @BAD_FIELDS
    def test_direct_construction_checks_fields(self, cert, serial, not_before, not_after):
        with pytest.raises(ValueError):
            Certificate(serial, "alice", not_before, not_after, cert.issuer_signature)
        with pytest.raises(ValueError):
            cert._replace(serial=serial, not_before=not_before, not_after=not_after)

    def test_equal_and_hashable_by_value(self, keystore, cert):
        twin = make_certificate(
            5, "alice", 0, 100, keystore, "ca", crs_anchor=cert.crs_anchor, segment_id="s"
        )
        assert twin == cert and hash(twin) == hash(cert)
        assert len({cert, twin, cert._replace(subject="bob")}) == 2
        sig = cert.issuer_signature
        assert Signature(sig.key_id, bytes(sig.mac)) == sig
        assert hash(Signature(sig.key_id, bytes(sig.mac))) == hash(sig)
        assert len({sig, Signature("other", sig.mac)}) == 2

    def test_make_certificate_builds_what_the_constructor_builds(self, keystore, cert):
        direct = Certificate(
            serial=cert.serial,
            subject=cert.subject,
            not_before=cert.not_before,
            not_after=cert.not_after,
            issuer_signature=cert.issuer_signature,
            crs_anchor=cert.crs_anchor,
            segment_id=cert.segment_id,
        )
        assert type(cert) is type(direct) is Certificate
        assert tuple(cert) == tuple(direct) and cert == direct
        assert verify_certificate(direct, keystore, "ca")
        plain = make_certificate(7, "bob", 1, 2, keystore, "ca")
        assert (plain.crs_anchor, plain.segment_id) == (None, None)
        assert plain == Certificate(7, "bob", 1, 2, plain.issuer_signature)


class TestMakeCertificates:
    """One signed batch equals one make_certificate per input, and is counted once."""

    SERIALS = [5, 1, SERIAL_MAX, 0, 9]
    SUBJECTS = ["alice", "", "subject-ü", "証明書-🔑", "alice"]

    @classmethod
    def anchors(cls, with_anchors):
        """One anchor per serial; with anchors, the last serial still has none."""
        anchors = [None] * len(cls.SERIALS)
        if with_anchors:
            for i in range(len(anchors) - 1):
                anchors[i] = CrsAnchor(
                    y=bytes([i]) * 13, n=bytes([i + 1]) * 13, lifetime_periods=i, period_length=9
                )
        return anchors

    @pytest.mark.parametrize("with_anchors", [False, True])
    @pytest.mark.parametrize("segment_id", [None, "seg-ü3"])
    def test_equals_one_make_certificate_per_input(self, keystore, with_anchors, segment_id):
        anchors = self.anchors(with_anchors)
        batch = make_certificates(
            self.SERIALS, self.SUBJECTS, anchors, 10, 100, keystore, "ca", segment_id
        )
        one_by_one = [
            make_certificate(serial, subject, 10, 100, keystore, "ca", anchor, segment_id)
            for serial, subject, anchor in zip(self.SERIALS, self.SUBJECTS, anchors)
        ]
        assert [type(c) for c in batch] == [Certificate] * len(self.SERIALS)
        assert [tuple(c) for c in batch] == [tuple(c) for c in one_by_one]
        for cert in batch:
            assert cert.issuer_signature == keystore.sign(reference_certificate_payload(cert), "ca")

    def test_counts_the_batch_once_under_the_current_phase(self, keystore):
        keystore.phase = "issue_certificate"
        make_certificates(self.SERIALS, self.SUBJECTS, self.anchors(True), 0, 100, keystore, "ca")
        assert keystore.counts == {("sign", "issue_certificate"): len(self.SERIALS)}
        keystore.phase = "setup"
        assert make_certificates([], [], [], 0, 100, keystore, "ca") == []
        assert keystore.counts == {("sign", "issue_certificate"): len(self.SERIALS)}

    @pytest.mark.parametrize("bad_at", [0, 2, 4])
    @BAD_FIELDS
    def test_bad_fields_anywhere_raise_before_signing(
        self, keystore, bad_at, serial, not_before, not_after
    ):
        serials = list(self.SERIALS)
        serials[bad_at] = serial  # a good serial where the window is the bad field
        with pytest.raises(ValueError):
            make_certificates(
                serials, self.SUBJECTS, self.anchors(False), not_before, not_after, keystore, "ca"
            )
        assert keystore.counts == {}

    @pytest.mark.parametrize("short", ["serials", "subjects", "anchors"])
    def test_unequal_lengths_raise_before_signing(self, keystore, short):
        args = {"serials": self.SERIALS, "subjects": self.SUBJECTS, "anchors": self.anchors(False)}
        args[short] = args[short][:-1]
        with pytest.raises(ValueError):
            make_certificates(args["serials"], args["subjects"], args["anchors"], 0, 100, keystore, "ca")
        assert keystore.counts == {}


class TestRevocationIndex:
    """revoked_non_expired against a scan-filter-sort over the ledger's dicts."""

    @staticmethod
    def brute_force(ledger, now):
        out = [
            r
            for r in ledger.revocations.values()
            if r.revoked_at <= now < ledger.certificates[r.serial].not_after
        ]
        return sorted(out, key=lambda r: r.serial)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_matches_brute_force(self, data):
        ks = KeyStore()
        ks.register("ca", b"key")
        ledger = Ledger()
        serials = data.draw(
            st.lists(st.integers(min_value=1, max_value=SERIAL_MAX - 1), unique=True, max_size=25)
        )
        for serial in serials:
            not_before = data.draw(st.integers(min_value=0, max_value=500))
            lifetime = data.draw(st.integers(min_value=1, max_value=500))
            ledger.add_certificate(
                make_certificate(serial, "s", not_before, not_before + lifetime, ks, "ca")
            )
        # revocations arrive in a drawn order, not in serial order
        for serial in data.draw(st.permutations(serials)):
            if not data.draw(st.booleans()):
                continue
            cert = ledger.certificates[serial]
            at = data.draw(st.integers(min_value=cert.not_before, max_value=cert.not_after - 1))
            ledger.revoke(serial, at)
            assert ledger.revoked_non_expired(at) == self.brute_force(ledger, at)
        instants = {0}
        for serial, record in ledger.revocations.items():
            end = ledger.certificates[serial].not_after
            for t in (record.revoked_at, end):
                instants.update((t - 1, t, t + 1))
        for now in sorted(instants):
            assert ledger.revoked_non_expired(now) == self.brute_force(ledger, now)


class TestLedger:
    def test_revocation_window_enforced(self, keystore):
        ledger = Ledger()
        ledger.add_certificate(make_certificate(1, "a", 10, 100, keystore, "ca"))
        with pytest.raises(ValueError):
            ledger.revoke(1, 5)  # before not_before
        with pytest.raises(ValueError):
            ledger.revoke(1, 100)  # at expiry
        record = ledger.revoke(1, 50, ReasonCode.COMPROMISE)
        assert record.reason is ReasonCode.COMPROMISE
        assert ledger.is_revoked(1, 50)
        assert not ledger.is_revoked(1, 49)
        with pytest.raises(ValueError):
            ledger.revoke(1, 60)  # double revocation

    def test_unissued_serial(self):
        ledger = Ledger()
        with pytest.raises(KeyError):
            ledger.revoke(42, 10)

    def test_non_expired_filter(self, keystore):
        ledger = Ledger()
        ledger.add_certificate(make_certificate(1, "a", 0, 100, keystore, "ca"))
        ledger.add_certificate(make_certificate(2, "b", 0, 300, keystore, "ca"))
        ledger.revoke(1, 50)
        ledger.revoke(2, 50)
        assert [r.serial for r in ledger.revoked_non_expired(200)] == [2]


def test_time_overflow_guard():
    check_time(2**64 - 1)
    with pytest.raises(OverflowError):
        check_time(2**64)
