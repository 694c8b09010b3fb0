"""Core primitives: signatures, the one-way function, certificates, ledger."""

import hashlib
import hmac
import random
import struct
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revokebench import core
from revokebench.core import (
    Certificate,
    CrsAnchor,
    DecodeError,
    KeyStore,
    Ledger,
    OneWayFunction,
    ReasonCode,
    Reader,
    Signature,
    UnknownKeyError,
    WidthError,
    DAY,
    SERIAL_MAX,
    SERIAL_MIN,
    TIME_MAX,
    check_time,
    make_certificate,
    pack_opt_str,
    pack_opt_u64,
    pack_str,
    pack_u32,
    pack_u64,
    parse_anchor,
)


def naive_F(x: bytes, n: int, width_bits: int = 100) -> bytes:
    """Independent oracle: n single applications, spelled out from scratch."""
    width_bytes = (width_bits + 7) // 8
    mask = 0xFF >> (width_bytes * 8 - width_bits)
    cur = x
    for _ in range(n):
        digest = hashlib.blake2s(cur, digest_size=width_bytes, person=b"owf-%d" % width_bits).digest()
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
    """`KeyStore.mac_batch`, the batch signing of issuance and of the naive
    statements: one MAC per message, counted as one signature each."""

    MESSAGES = [b"", b"a", b"m" * 200, b"a"]

    def test_equals_one_sign_per_message(self, keystore):
        batch = keystore.mac_batch(self.MESSAGES, "ca")
        assert batch == b"".join(keystore.sign(m, "ca").mac for m in self.MESSAGES)
        assert type(batch) is bytes

    def test_counts_the_batch_under_the_current_phase_only(self, keystore):
        keystore.phase = "publish"
        keystore.mac_batch(self.MESSAGES, "ca")
        assert keystore.counts == {("sign", "publish"): len(self.MESSAGES)}
        keystore.phase = "setup"
        assert keystore.mac_batch([], "ca") == b""
        assert keystore.counts == {("sign", "publish"): len(self.MESSAGES)}
        assert keystore.sign_count == len(self.MESSAGES)

    @pytest.mark.parametrize("messages", [[], [b"x"]])
    def test_unknown_key_raises_before_counting(self, keystore, messages):
        with pytest.raises(UnknownKeyError):
            keystore.mac_batch(messages, "nobody")
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
        assert f.tails([x], 40, 0) == [b"".join(expected)]
        assert f.tails([x], 40, 0)[0][-f.width_bytes :] == f.iterate(x, 40) == naive_F(x, 40, width)

    def test_zero_steps_is_the_input(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        assert f.tails([x], 0, 0) == [x]
        assert f.apply_count == 0

    def test_counts_exactly_n_applications(self, rng):
        f = OneWayFunction()
        x = f.random_value(rng)
        f.tails([x], 365, 0)
        assert f.apply_count == 365

    def test_bad_width_rejected_without_counting(self):
        f = OneWayFunction()
        for bad in (b"\x00" * 12, b"\xff" * 13):
            with pytest.raises(WidthError):
                f.tails([b"\x00" * 13, bad], 5, 0)
        for n, first in ((-1, 0), (5, -1), (5, 6)):
            with pytest.raises(ValueError):
                f.tails([b"\x00" * 13], n, first)
        assert f.apply_count == 0


def reference_F(x: bytes, width_bits: int) -> bytes:
    """One application, from a fresh one-shot hashlib call."""
    width_bytes = (width_bits + 7) // 8
    digest = hashlib.blake2s(x, digest_size=width_bytes, person=b"owf-%d" % width_bits).digest()
    return bytes([digest[0] & (0xFF >> (width_bytes * 8 - width_bits))]) + digest[1:]


class TestOwfReference:
    """apply, tails and iterate continue a copy of a personalised BLAKE2s
    state; each must equal a one-shot hashlib.blake2s call per step."""

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
        assert f.tails([x], n, 0) == [b"".join(expected)]
        assert f.apply_count == 1 + n
        assert f.iterate(x, n) == expected[-1]
        assert f.apply_count == 1 + 2 * n
        # the first steps are walked, not kept, and counted per seed
        assert f.tails([x, x], n, n // 3) == [b"".join(expected[n // 3 :])] * 2
        assert f.apply_count == 1 + 4 * n

    def test_widths_with_one_byte_size_are_different_functions(self, rng):
        """Widths 97..104, 100 and 104 among them, all take 13 bytes. Each is
        its own function, not a masking of another: their outputs differ even
        in the 97 bits every one of them keeps."""
        functions = [OneWayFunction(width) for width in range(97, 105)]
        for _ in range(20):
            x = functions[0].random_value(rng)  # in the domain of every width
            kept = {bytes([y[0] & 0x01]) + y[1:] for y in (f.apply(x) for f in functions)}
            assert len(kept) == len(functions)

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
        cert = make_certificate(5, 0, 100, keystore, "ca")
        assert cert.verify(keystore, "ca")
        forged = Certificate(
            serial=6,
            not_before=cert.not_before,
            not_after=cert.not_after,
            issuer_signature=cert.issuer_signature,
        )
        assert not forged.verify(keystore, "ca")

    def test_empty_validity_rejected(self, keystore):
        with pytest.raises(ValueError):
            make_certificate(5, 100, 100, keystore, "ca")

    def test_serialization_is_stable(self, keystore):
        a = make_certificate(5, 0, 100, keystore, "ca")
        b = make_certificate(5, 0, 100, keystore, "ca")
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

    subject = text(f"subject-{cert.serial}")
    out = u64(cert.serial) + subject + u64(cert.not_before) + u64(cert.not_after)
    a = cert.crs_anchor
    if a is None:
        out += b"\x00"
    else:
        out += b"\x01" + u32(len(a.y)) + a.y + u32(len(a.n)) + a.n
        out += u32(a.lifetime_periods) + u64(a.period_length)
    return out + b"\x00"  # the absent segment id


BAD_FIELDS = pytest.mark.parametrize(
    "serial,not_before,not_after",
    [(-1, 0, 100), (2**64, 0, 100), (5, 100, 100), (5, 100, 50)],
)


class TestReader:
    """The one cursor every decoder reads through, against the pack helpers."""

    @settings(max_examples=60, deadline=None)
    @given(
        n32=st.integers(0, 2**32 - 1),
        n64=st.integers(0, 2**64 - 1),
        text=st.text(max_size=6),
        opt=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
        opt_text=st.one_of(st.none(), st.text(max_size=6)),
    )
    def test_reads_back_what_the_pack_helpers_write(self, n32, n64, text, opt, opt_text):
        data = (
            pack_u32(n32) + pack_u64(n64) + pack_str(text)
            + pack_opt_u64(opt) + pack_opt_str(opt_text)
        )
        r = Reader(data, "record")
        assert (r.uint(4), r.uint(8), r.text()) == (n32, n64, text)
        assert (r.uint(8) if r.bit() else None) == opt
        assert (r.text() if r.bit() else None) == opt_text
        r.done()
        assert r.pos == len(data)

    def test_done_rejects_every_byte_left(self):
        r = Reader(b"\x00\x00\x00\x07\xff", "record")
        assert r.uint(4) == 7
        with pytest.raises(DecodeError, match="record has 1 trailing bytes"):
            r.done()
        r.uint(1)
        r.done()

    def test_a_read_past_the_end_raises(self):
        r = Reader(b"\x00\x00\x00\x05abc", "record")
        with pytest.raises(DecodeError, match="record truncated: needs 9 bytes, has 7"):
            r.blob()
        with pytest.raises(DecodeError, match="truncated"):
            Reader(b"", "record").uint(1)

    @pytest.mark.parametrize("value", [2, 3, 0x80, 0xFF])
    def test_a_bit_is_0_or_1(self, value):
        assert Reader(b"\x00\x01", "record").bit() == 0
        with pytest.raises(DecodeError, match=f"record has {value} at byte 0"):
            Reader(bytes([value]), "record").bit()

    def test_text_must_be_utf8(self):
        with pytest.raises(DecodeError, match="record text is not UTF-8"):
            Reader(pack_u32(2) + b"\xc3\x28", "record").text()

    def test_an_error_is_a_value_error(self):
        """So the CLI, which exits 2 on a ValueError, exits 2 on it."""
        assert issubclass(DecodeError, ValueError)


class TestAnchorWire:
    @settings(max_examples=60, deadline=None)
    @given(
        y=st.binary(max_size=40),
        n=st.binary(max_size=40),
        lifetime=st.integers(0, 2**32 - 1),
        period=st.integers(0, 2**64 - 1),
    )
    def test_round_trip_and_every_truncation_and_extension(self, y, n, lifetime, period):
        anchor = CrsAnchor(y=y, n=n, lifetime_periods=lifetime, period_length=period)
        data = anchor.to_bytes()
        assert parse_anchor(data) == anchor
        for cut in range(len(data)):
            with pytest.raises(DecodeError, match="anchor truncated"):
                parse_anchor(data[:cut])
        for extra in (0, 1, 255):
            with pytest.raises(DecodeError, match="anchor has 1 trailing bytes"):
                parse_anchor(data + bytes([extra]))


# Issuer key ids: the empty id, and a non-ASCII one whose UTF-8 length is
# not its length in characters
ISSUER_KEY_IDS = ["ca", "", "ca-ü3"]


def issuer_key(keystore, rng, key_id):
    """Register `key_id` with the keystore (the fixture already holds "ca")."""
    if key_id != "ca":
        keystore.generate(key_id, rng)
    return key_id


class TestCertificateEncoding:
    @pytest.mark.parametrize("with_anchor", [False, True])
    @pytest.mark.parametrize("key_id", ISSUER_KEY_IDS)
    def test_signed_payload_is_pinned(self, keystore, rng, with_anchor, key_id):
        anchor = CrsAnchor(y=b"\x01" * 13, n=b"\x02" * 13, lifetime_periods=365, period_length=86_400)
        cert = make_certificate(
            SERIAL_MAX,
            2**40,
            2**64 - 1,
            keystore,
            issuer_key(keystore, rng, key_id),
            crs_anchor=anchor if with_anchor else None,
        )
        assert cert.signed_payload() == reference_certificate_payload(cert)
        assert cert.issuer_signature == keystore.sign(reference_certificate_payload(cert), key_id)
        assert cert.to_bytes() == cert.signed_payload() + cert.issuer_signature.to_bytes()

    @pytest.mark.parametrize("anchor_bytes", [None, (13, 13), (1, 32)])
    @pytest.mark.parametrize("key_id", ISSUER_KEY_IDS)
    @pytest.mark.parametrize("serial", [0, 7, 10**9, SERIAL_MAX])
    def test_wire_size_is_the_encoding_length(self, keystore, rng, anchor_bytes, key_id, serial):
        anchor = None
        if anchor_bytes is not None:
            y_len, n_len = anchor_bytes
            anchor = CrsAnchor(y=b"\x01" * y_len, n=b"\x02" * n_len, lifetime_periods=3, period_length=9)
        cert = make_certificate(
            serial, 0, 100, keystore, issuer_key(keystore, rng, key_id), crs_anchor=anchor
        )
        assert cert.wire_size == len(cert.to_bytes())

    @BAD_FIELDS
    def test_bad_fields_raise_before_signing(self, keystore, serial, not_before, not_after):
        with pytest.raises(ValueError):
            make_certificate(serial, not_before, not_after, keystore, "ca")
        assert keystore.sign_count == 0


class TestCertificateRecord:
    """Certificate and Signature are immutable value records, and every way
    of building a Certificate checks its fields."""

    @pytest.fixture
    def cert(self, keystore):
        anchor = CrsAnchor(y=b"\x01" * 13, n=b"\x02" * 13, lifetime_periods=3, period_length=9)
        return make_certificate(5, 0, 100, keystore, "ca", crs_anchor=anchor)

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
            Certificate(serial, not_before, not_after, cert.issuer_signature)
        with pytest.raises(ValueError):
            cert._replace(serial=serial, not_before=not_before, not_after=not_after)

    def test_equal_and_hashable_by_value(self, keystore, cert):
        twin = make_certificate(5, 0, 100, keystore, "ca", crs_anchor=cert.crs_anchor)
        assert twin == cert and hash(twin) == hash(cert)
        assert len({cert, twin, cert._replace(serial=6)}) == 2
        sig = cert.issuer_signature
        assert Signature(sig.key_id, bytes(sig.mac)) == sig
        assert hash(Signature(sig.key_id, bytes(sig.mac))) == hash(sig)
        assert len({sig, Signature("other", sig.mac)}) == 2

    def test_make_certificate_builds_what_the_constructor_builds(self, keystore, cert):
        direct = Certificate(
            serial=cert.serial,
            not_before=cert.not_before,
            not_after=cert.not_after,
            issuer_signature=cert.issuer_signature,
            crs_anchor=cert.crs_anchor,
        )
        assert type(cert) is type(direct) is Certificate
        assert tuple(cert) == tuple(direct) and cert == direct
        assert direct.verify(keystore, "ca")
        plain = make_certificate(7, 1, 2, keystore, "ca")
        assert plain.crs_anchor is None
        assert plain == Certificate(7, 1, 2, plain.issuer_signature)


class TestLedgerIssue:
    """One signed batch equals one make_certificate per input, and is counted once."""

    SERIALS = [5, 1, SERIAL_MAX, 0, 9]

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
    @pytest.mark.parametrize("key_id", ["ca", "ca-ü3"])
    def test_equals_one_make_certificate_per_input(self, keystore, rng, with_anchors, key_id):
        anchors = self.anchors(with_anchors)
        issuer_key(keystore, rng, key_id)
        ledger = Ledger()
        ledger.issue(self.SERIALS, anchors, 10, 100, keystore, key_id)
        batch = list(ledger.certificates.values())
        one_by_one = [
            make_certificate(serial, 10, 100, keystore, key_id, anchor)
            for serial, anchor in zip(self.SERIALS, anchors)
        ]
        assert list(ledger.certificates) == self.SERIALS
        assert [type(c) for c in batch] == [Certificate] * len(self.SERIALS)
        assert [tuple(c) for c in batch] == [tuple(c) for c in one_by_one]
        for cert in batch:
            assert cert.issuer_signature.key_id == key_id
            assert cert.issuer_signature == keystore.sign(reference_certificate_payload(cert), key_id)
            assert ledger.crs_anchor(cert.serial) == cert.crs_anchor

    def test_counts_the_batch_once_under_the_current_phase(self, keystore):
        keystore.phase = "issue_certificate"
        ledger = Ledger()
        ledger.issue(self.SERIALS, self.anchors(True), 0, 100, keystore, "ca")
        assert keystore.counts == {("sign", "issue_certificate"): len(self.SERIALS)}
        keystore.phase = "setup"
        ledger.issue([], [], 0, 100, keystore, "ca")
        assert keystore.counts == {("sign", "issue_certificate"): len(self.SERIALS)}
        assert len(ledger.certificates) == len(self.SERIALS)

    @pytest.mark.parametrize("bad_at", [0, 2, 4])
    @BAD_FIELDS
    def test_bad_fields_anywhere_raise_before_signing(
        self, keystore, bad_at, serial, not_before, not_after
    ):
        serials = list(self.SERIALS)
        serials[bad_at] = serial  # a good serial where the window is the bad field
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.issue(serials, self.anchors(False), not_before, not_after, keystore, "ca")
        assert keystore.counts == {}
        assert len(ledger.certificates) == 0

    @pytest.mark.parametrize("short", ["serials", "anchors"])
    def test_unequal_lengths_raise_before_signing(self, keystore, short):
        args = {"serials": self.SERIALS, "anchors": self.anchors(False)}
        args[short] = args[short][:-1]
        ledger = Ledger()
        with pytest.raises(ValueError):
            ledger.issue(args["serials"], args["anchors"], 0, 100, keystore, "ca")
        assert keystore.counts == {}
        assert len(ledger.certificates) == 0

    @pytest.mark.parametrize(
        "not_before, not_after", [(0, 2**64), (-5, 100), (2**64, 2**64 + 1), (-10, -5)]
    )
    def test_time_off_the_clock_signs_nothing(self, keystore, not_before, not_after):
        """Either window end outside the u64 clock raises OverflowError, as
        check_time does, before anything is signed or recorded."""
        keystore.phase = "issue_certificate"
        ledger = Ledger()
        ledger.issue([1, 2], [None, None], 0, 100, keystore, "ca")
        before = (list(ledger.certificates.items()), dict(keystore.counts))
        with pytest.raises(OverflowError, match="outside unsigned 64-bit range"):
            ledger.issue([3, 4], [None, None], not_before, not_after, keystore, "ca")
        assert (list(ledger.certificates.items()), keystore.counts) == before
        assert not ledger.is_issued(3) and not ledger.is_issued(4)

    def test_a_serial_issued_before_or_twice_raises(self, keystore):
        ledger = Ledger()
        ledger.issue([1, 2], [None, None], 0, 100, keystore, "ca")
        with pytest.raises(ValueError, match="serial 2 already issued"):
            ledger.issue([3, 2], [None, None], 0, 100, keystore, "ca")
        with pytest.raises(ValueError, match="serial 4 already issued"):
            ledger.issue([4, 5, 4], [None] * 3, 0, 100, keystore, "ca")
        assert list(ledger.certificates) == [1, 2]
        assert keystore.sign_count == 2

    def test_readers_take_fields_from_the_batch(self, keystore):
        """Lookups across batches of different windows, read without a record."""
        anchor = CrsAnchor(y=b"\x01" * 13, n=b"\x02" * 13, lifetime_periods=3, period_length=9)
        ledger = Ledger()
        ledger.issue([10, 30], [None, anchor], 0, 100, keystore, "ca")
        ledger.issue([], [], 50, 60, keystore, "ca")
        ledger.issue([20], [None], 50, 300, keystore, "ca")
        assert ledger.crs_anchor(30) == anchor and ledger.crs_anchor(20) is None
        assert ledger.non_expired_serials(99) == [10, 20, 30]
        assert ledger.non_expired_serials(100) == [20]
        assert (20 in ledger.certificates, 40 in ledger.certificates) == (True, False)
        with pytest.raises(KeyError):
            ledger.certificates[40]
        with pytest.raises(ValueError):
            ledger.revoke(20, 49)  # before the later batch's not_before
        assert ledger.revoke(20, 200).revoked_at == 200
        assert [r.serial for r in ledger.revoked_non_expired(250)] == [20]


def eager_certificates(serials, anchors, not_before, not_after, secret, key_id):
    """Oracle for Ledger.issue: every certificate built as a record at once,
    its MAC computed with hmac.new over Certificate._payload, as issuance
    did before batches were kept as one record."""
    out = []
    for serial, anchor in zip(serials, anchors, strict=True):
        unsigned = Certificate(serial, not_before, not_after, Signature(key_id, b""), anchor)
        mac = hmac.new(secret, unsigned._payload(), hashlib.sha256).digest()
        out.append(unsigned._replace(issuer_signature=Signature(key_id, mac)))
    return out


ORACLE_SECRET = b"issuance-oracle-key"

_anchors = st.none() | st.builds(
    CrsAnchor,
    y=st.binary(min_size=1, max_size=32),
    n=st.binary(min_size=1, max_size=32),
    lifetime_periods=st.integers(min_value=0, max_value=2**32 - 1),
    period_length=st.integers(min_value=0, max_value=TIME_MAX),
)


@st.composite
def issue_batches(draw, min_size=0, taken=frozenset()):
    """(serials, anchors, not_before, not_after) of a
    valid batch of 0-40 certificates whose serials are not in `taken`."""
    serials = draw(
        st.lists(
            st.integers(min_value=SERIAL_MIN, max_value=SERIAL_MAX).filter(
                lambda s: s not in taken
            ),
            unique=True,
            min_size=min_size,
            max_size=40,
        )
    )
    n = len(serials)
    anchors = draw(st.lists(_anchors, min_size=n, max_size=n))
    not_before = draw(st.integers(min_value=0, max_value=TIME_MAX - 1))
    not_after = draw(st.integers(min_value=not_before + 1, max_value=TIME_MAX))
    return serials, anchors, not_before, not_after


def oracle_keystore():
    ks = KeyStore()
    ks.register("ca", ORACLE_SECRET)
    ks.phase = "issue_certificate"
    return ks


class TestIssueAgainstEagerOracle:
    """Every record the ledger builds equals the eagerly built and signed
    certificate, and a bad input anywhere in a batch changes nothing."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_built_records_equal_the_oracle(self, data):
        keystore = oracle_keystore()
        ledger = Ledger()
        issued, taken = [], set()
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            batch = data.draw(issue_batches(taken=frozenset(taken)))
            signed = keystore.sign_count
            ledger.issue(*batch, keystore, "ca")
            assert keystore.sign_count - signed == len(batch[0])
            issued.append(batch)
            taken.update(batch[0])
        assert list(ledger.certificates) == [s for batch in issued for s in batch[0]]
        for batch in issued:
            expected = eager_certificates(*batch, ORACLE_SECRET, "ca")
            for want in expected:
                # the oracle's encoder against the field-by-field reference
                assert want.signed_payload() == reference_certificate_payload(want)
                got = ledger.certificates[want.serial]
                assert type(got) is Certificate
                assert tuple(got) == tuple(want)
                assert got.to_bytes() == want.to_bytes()
                assert got.verify(keystore, "ca")
                assert ledger.crs_anchor(want.serial) == want.crs_anchor

    @settings(max_examples=40, deadline=None)
    @given(batch=issue_batches(), chunk=st.integers(min_value=1, max_value=6))
    def test_chunks_of_any_size_give_the_oracle_records(self, batch, chunk):
        """Issuance encodes and MACs a batch a chunk at a time; the chunk
        edges fall anywhere in a batch, and every record still equals the
        oracle's and is counted once."""
        keystore = oracle_keystore()
        ledger = Ledger()
        with mock.patch.object(core, "_ISSUE_CHUNK", chunk):
            ledger.issue(*batch, keystore, "ca")
        assert keystore.sign_count == len(batch[0])
        expected = eager_certificates(*batch, ORACLE_SECRET, "ca")
        assert [tuple(c) for c in ledger.certificates.values()] == [tuple(c) for c in expected]

    def test_a_batch_of_several_chunks_equals_the_oracle(self):
        n = 2 * core._ISSUE_CHUNK + 5
        serials = list(range(1, n + 1))
        anchors = [None if s % 3 else CrsAnchor(b"y", b"n", 365, DAY) for s in serials]
        keystore = oracle_keystore()
        ledger = Ledger()
        ledger.issue(serials, anchors, 0, 30 * DAY, keystore, "ca")
        assert keystore.counts == {("sign", "issue_certificate"): n}
        expected = eager_certificates(serials, anchors, 0, 30 * DAY, ORACLE_SECRET, "ca")
        assert [tuple(c) for c in ledger.certificates.values()] == [tuple(c) for c in expected]

    FAULTS = [
        "bad serial", "empty window", "time off the clock", "repeated serial", "issued before"
    ]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), fault=st.sampled_from(FAULTS))
    def test_a_bad_input_anywhere_changes_nothing(self, data, fault):
        keystore = oracle_keystore()
        ledger = Ledger()
        first = data.draw(issue_batches(min_size=1))
        ledger.issue(*first, keystore, "ca")
        serials, anchors, not_before, not_after = data.draw(
            issue_batches(min_size=1, taken=frozenset(first[0]))
        )
        at = data.draw(st.integers(min_value=0, max_value=len(serials) - 1))
        error, match = ValueError, None
        if fault == "bad serial":
            serials[at] = data.draw(st.sampled_from([-1, SERIAL_MAX + 1, -(2**70), 2**80]))
        elif fault == "empty window":
            not_after = data.draw(st.integers(min_value=0, max_value=not_before))
        elif fault == "time off the clock":
            off = data.draw(st.integers(min_value=1, max_value=2**70))
            if data.draw(st.booleans()):
                not_before = -off
            else:
                not_after = TIME_MAX + off
            error, match = OverflowError, "outside unsigned 64-bit range"
        elif fault == "repeated serial":
            where = data.draw(st.integers(min_value=0, max_value=len(serials)))
            serials.insert(where, serials[at])
            anchors.insert(where, anchors[at])
            match = "already issued"
        else:
            serials[at] = data.draw(st.sampled_from(first[0]))
            match = "already issued"
        before = (list(ledger.certificates.items()), dict(keystore.counts))
        with pytest.raises(error, match=match):
            ledger.issue(serials, anchors, not_before, not_after, keystore, "ca")
        assert (list(ledger.certificates.items()), keystore.counts) == before
        assert ledger.non_expired_serials(first[2]) == sorted(first[0])
        assert not any(ledger.is_issued(s) for s in serials if s not in first[0])


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
            ledger.issue([serial], [None], not_before, not_before + lifetime, ks, "ca")
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
        ledger.issue([1], [None], 10, 100, keystore, "ca")
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
        ledger.issue([1], [None], 0, 100, keystore, "ca")
        ledger.issue([2], [None], 0, 300, keystore, "ca")
        ledger.revoke(1, 50)
        ledger.revoke(2, 50)
        assert [r.serial for r in ledger.revoked_non_expired(200)] == [2]


def test_time_overflow_guard():
    check_time(2**64 - 1)
    with pytest.raises(OverflowError):
        check_time(2**64)
