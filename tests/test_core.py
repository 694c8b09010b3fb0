"""Core primitives: signatures, the one-way function, certificates, ledger."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from revokebench.core import (
    Certificate,
    Ledger,
    OneWayFunction,
    ReasonCode,
    Signature,
    UnknownKeyError,
    WidthError,
    check_time,
    make_certificate,
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
