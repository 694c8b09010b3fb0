"""Per-certificate one-way-chain revocation status.

At issuance the CA commits to Y = F^L(Y0) and N = F(N0) inside the
certificate. On period i it releases Y_i = F^(L-i)(Y0) while the certificate
is good, or the revocation secret N0 once it is not. Anyone holding the
certificate checks F^i(Y_i) == Y (or F(N0) == N) offline; no directory has to
be trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import CrsAnchor, OneWayFunction, pack_u8, pack_u32, pack_u64


class CrsTokenKind(Enum):
    VALID = "valid"
    REVOKED = "revoked"


class CrsStatus(Enum):
    VALID_AT_PERIOD = "valid_at_period"
    REVOKED = "revoked"
    INVALID_TOKEN = "invalid_token"


@dataclass(frozen=True, slots=True)
class CrsSecret:
    """CA-private chain seeds; never serialized into any public document."""

    serial: int
    y0: bytes
    n0: bytes


@dataclass(frozen=True, slots=True)
class CrsToken:
    serial: int
    kind: CrsTokenKind
    period: int  # zero for revoked tokens
    value: bytes

    def to_bytes(self) -> bytes:
        tag = 1 if self.kind is CrsTokenKind.VALID else 0
        return pack_u64(self.serial) + pack_u8(tag) + pack_u32(self.period) + self.value


_KIND_BY_TAG = {1: CrsTokenKind.VALID, 0: CrsTokenKind.REVOKED}


def token_wire_size(f: OneWayFunction) -> int:
    return 8 + 1 + 4 + f.width_bytes


def parse_token(data: bytes, f: OneWayFunction) -> CrsToken:
    expected = token_wire_size(f)
    if len(data) != expected:
        raise ValueError(f"token must be exactly {expected} bytes")
    serial = int.from_bytes(data[0:8], "big")
    kind = _KIND_BY_TAG.get(data[8])
    if kind is None:
        raise ValueError(f"unknown token kind byte {data[8]}")
    period = int.from_bytes(data[9:13], "big")
    return CrsToken(serial=serial, kind=kind, period=period, value=data[13:])


class CrsAuthority:
    """CA-side chain state: setup, per-period token issuance, batched updates.

    The whole forward chain is materialized at setup (computing the anchor
    walks it anyway) and kept as one contiguous blob per certificate, so
    issuing the day-i token is a slice, not L-i fresh hash applications.

    Revocations are numbered in the order they arrive. A directory that
    publishes a period records revocation_count at that moment and later
    builds any token of that period with issue_token(..., as_of=count), which
    is the token publish_update would have built then.
    """

    def __init__(self, f: OneWayFunction) -> None:
        self.f = f
        self._chains: dict[int, bytes] = {}  # chain[j] = F^j(Y0), j = 0..L
        self._secrets: dict[int, CrsSecret] = {}
        self._lifetimes: dict[int, int] = {}
        self._revoked: dict[int, int] = {}  # serial -> order of its revocation

    def setup(self, serial: int, lifetime_periods: int, period_length: int, rng) -> tuple[CrsAnchor, CrsSecret]:
        """Create the two private seeds for a certificate and publish their anchors."""
        if lifetime_periods < 1:
            raise ValueError("lifetime must be at least one period")
        if serial in self._secrets:
            raise ValueError(f"serial {serial} already set up")
        f = self.f
        y0 = f.random_value(rng)
        n0 = f.random_value(rng)
        chain = f.chain(y0, lifetime_periods)
        secret = CrsSecret(serial=serial, y0=y0, n0=n0)
        self._chains[serial] = chain
        self._secrets[serial] = secret
        self._lifetimes[serial] = lifetime_periods
        anchor = CrsAnchor(
            y=chain[-f.width_bytes :],  # F^L(Y0)
            n=f.apply(n0),
            lifetime_periods=lifetime_periods,
            period_length=period_length,
        )
        return anchor, secret

    def revoke(self, serial: int) -> None:
        if serial not in self._secrets:
            raise KeyError(f"serial {serial} unknown to CRS authority")
        self._revoked.setdefault(serial, len(self._revoked))

    def is_revoked(self, serial: int) -> bool:
        return serial in self._revoked

    @property
    def revocation_count(self) -> int:
        """Revocations so far; the as_of cutoff that freezes today's state."""
        return len(self._revoked)

    def chain_value(self, serial: int, j: int) -> bytes:
        """F^j(Y0) for 0 <= j <= L, from the precomputed chain."""
        width = self.f.width_bytes
        return self._chains[serial][j * width : (j + 1) * width]

    def issue_token(self, serial: int, period: int, as_of: Optional[int] = None) -> CrsToken:
        """Day-i statement: Y_i = F^(L-i)(Y0) while good, N0 once revoked.

        Revocation is permanent: every period at or after the revocation
        publishes the same N0. With as_of, only the first as_of revocations
        count, so a token built late matches one built when revocation_count
        was as_of.
        """
        if serial not in self._secrets:
            raise KeyError(f"serial {serial} unknown to CRS authority")
        lifetime = self._lifetimes[serial]
        if not 1 <= period <= lifetime:
            raise ValueError(f"period {period} outside 1..{lifetime}")
        order = self._revoked.get(serial)
        if order is not None and (as_of is None or order < as_of):
            return CrsToken(
                serial=serial,
                kind=CrsTokenKind.REVOKED,
                period=0,
                value=self._secrets[serial].n0,
            )
        return CrsToken(
            serial=serial,
            kind=CrsTokenKind.VALID,
            period=period,
            value=self.chain_value(serial, lifetime - period),
        )

    def publish_update(self, periods: dict[int, int]) -> list[CrsToken]:
        """One token per live certificate for this update.

        periods maps serial -> that certificate's elapsed-period index;
        entries past their lifetime are dropped (expired certificates get no
        statements). The simulator's directory does not build the whole
        update; it builds each fetched token with issue_token(as_of=...).
        """
        out = []
        for serial in sorted(periods):
            period = periods[serial]
            if 1 <= period <= self._lifetimes.get(serial, 0):
                out.append(self.issue_token(serial, period))
        return out


def crs_verify(
    token: CrsToken,
    anchor: CrsAnchor,
    claimed_period: int,
    f: OneWayFunction,
) -> CrsStatus:
    """Offline check against the certificate's own anchors.

    The verifier chooses the exponent from its clock: a token is valid for
    claimed period i only if hashing it forward i times reproduces Y, which a
    stale replay cannot satisfy. A claimed period outside the certificate's
    lifetime means the certificate has expired and no token can stand.
    All failures collapse to invalid_token.
    """
    # Expiry cut-off before any chain work: past the last period nothing stands.
    if not 1 <= claimed_period <= anchor.lifetime_periods:
        return CrsStatus.INVALID_TOKEN
    try:
        f.check_width(token.value)
    except ValueError:
        return CrsStatus.INVALID_TOKEN
    if token.kind is CrsTokenKind.REVOKED:
        if f.apply(token.value) == anchor.n:
            return CrsStatus.REVOKED
        return CrsStatus.INVALID_TOKEN
    if token.period != claimed_period:
        return CrsStatus.INVALID_TOKEN
    if f.iterate(token.value, claimed_period) == anchor.y:
        return CrsStatus.VALID_AT_PERIOD
    return CrsStatus.INVALID_TOKEN
