"""Per-certificate one-way-chain revocation status.

At issuance the CA commits to Y = F^L(Y0) and N = F(N0) inside the
certificate. On period i it releases Y_i = F^(L-i)(Y0) while the certificate
is good, or the revocation secret N0 once it is not. Anyone holding the
certificate checks F^i(Y_i) == Y (or F(N0) == N) offline; no directory has to
be trusted.

The CA's cost is the chain walk: L + 1 applications per certificate. The
authority sets up all certificates issued at one instant as one batch, whose
chains one `OneWayFunction.tails` call walks; a large batch is walked in
chunks by this process and a forked child, each taking the next chunk from a
queue, so the walk uses two CPUs where there are two and neither waits long
for the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .core import CrsAnchor, OneWayFunction, Reader, pack_u8, pack_u32, pack_u64


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
    """Decode CrsToken.to_bytes() for values of f's width strictly; any
    other bytes, or a revoked token with a period, raise DecodeError."""
    r = Reader(data, "token")
    serial, tag, period = r.uint(8), r.uint(1), r.uint(4)
    value = r.take(f.width_bytes)
    r.done()
    kind = _KIND_BY_TAG.get(tag)
    if kind is None:
        raise r.error(f"has an unknown token kind byte {tag}")
    if kind is CrsTokenKind.REVOKED and period != 0:
        raise r.error(f"is revoked but has period {period}, not 0")
    return CrsToken(serial=serial, kind=kind, period=period, value=value)


class CrsAuthority:
    """CA-side chain state: setup, per-period token issuance, batched updates.

    Setup takes a batch of serials (the certificates of one issuance
    instant) and walks each whole forward chain F^0(Y0) .. F^L(Y0), since
    the anchor is its last value; the batch's chains are independent once
    their seeds are drawn, so one `OneWayFunction.tails` call walks them all
    and may share them out between two processes, and a second computes
    each anchor's F(N0). Of each walk it keeps, as one
    contiguous blob per certificate, only the values a token can still be
    built from: with setup(..., served=s), F^(L-s)(Y0) .. F^L(Y0), which
    serve periods 1..s; without a bound, the whole chain. Issuing the day-i
    token is then a slice, not L-i fresh hash applications, and a run that
    can ask only the first s periods holds s + 1 values per certificate
    instead of L + 1.

    Revocations are numbered in the order they arrive. A directory that
    publishes a period records revocation_count at that moment and later
    builds any token of that period with issue_token(..., as_of=count), which
    is the token publish_update would have built then.
    """

    def __init__(self, f: OneWayFunction) -> None:
        self.f = f
        # the tail F^first(Y0) .. F^L(Y0) of each chain, first = L + 1 - values held
        self._chains: dict[int, bytes] = {}
        self._secrets: dict[int, CrsSecret] = {}
        self._lifetimes: dict[int, int] = {}
        self._revoked: dict[int, int] = {}  # serial -> order of its revocation

    def setup(
        self,
        serials: Sequence[int],
        lifetime_periods: int,
        period_length: int,
        rng,
        served: Optional[int] = None,
    ) -> list[tuple[CrsAnchor, CrsSecret]]:
        """Create the two private seeds of each certificate and publish their anchors.

        Returns one (anchor, secret) per serial, in order. Every input is
        checked before anything is drawn, so a bad serial or bound sets up
        none of the batch. The seeds are drawn y0, n0 per serial, in order;
        all Y chains are walked by one `OneWayFunction.tails` call, and every
        F(N0) is computed by another.

        served, when given, is the last period any token will be asked for
        (at most the lifetime); only the chain values serving periods
        1..served are kept. Without it the whole chain is kept.
        """
        if lifetime_periods < 1:
            raise ValueError("lifetime must be at least one period")
        if served is not None and not 0 <= served <= lifetime_periods:
            raise ValueError(f"served period {served} outside 0..{lifetime_periods}")
        seen: set[int] = set()
        for serial in serials:
            if serial in seen or serial in self._secrets:
                raise ValueError(f"serial {serial} already set up")
            seen.add(serial)
        f = self.f
        seeds = [(f.random_value(rng), f.random_value(rng)) for _ in serials]
        first = 0 if served is None else lifetime_periods - served
        chains = f.tails([y0 for y0, _ in seeds], lifetime_periods, first)
        ns = f.tails([n0 for _, n0 in seeds], 1, 1)  # each F(N0)
        out = []
        for serial, (y0, n0), chain, n in zip(serials, seeds, chains, ns):
            secret = CrsSecret(serial=serial, y0=y0, n0=n0)
            self._chains[serial] = chain
            self._secrets[serial] = secret
            self._lifetimes[serial] = lifetime_periods
            anchor = CrsAnchor(
                y=chain[-f.width_bytes :],  # F^L(Y0)
                n=n,
                lifetime_periods=lifetime_periods,
                period_length=period_length,
            )
            out.append((anchor, secret))
        return out

    def revoke(self, serial: int) -> None:
        if serial not in self._secrets:
            raise KeyError(f"serial {serial} unknown to CRS authority")
        self._revoked.setdefault(serial, len(self._revoked))

    @property
    def revocation_count(self) -> int:
        """Revocations so far; the as_of cutoff that freezes today's state."""
        return len(self._revoked)

    def chain_value(self, serial: int, j: int) -> bytes:
        """F^j(Y0) for first <= j <= L, where first = L + 1 - values kept."""
        chain = self._chains[serial]
        width = self.f.width_bytes
        lifetime = self._lifetimes[serial]
        first = lifetime + 1 - len(chain) // width
        if not first <= j <= lifetime:
            raise ValueError(f"chain value {j} not kept: only {first}..{lifetime} are")
        return chain[(j - first) * width : (j - first + 1) * width]

    def issue_token(self, serial: int, period: int, as_of: Optional[int] = None) -> CrsToken:
        """Day-i statement: Y_i = F^(L-i)(Y0) while good, N0 once revoked.

        Revocation is permanent: every period at or after the revocation
        publishes the same N0. With as_of, only the first as_of revocations
        count, so a token built late matches one built when revocation_count
        was as_of. A period outside 1..L, or past the kept chain values,
        raises ValueError whether or not the certificate is revoked.
        """
        if serial not in self._secrets:
            raise KeyError(f"serial {serial} unknown to CRS authority")
        lifetime = self._lifetimes[serial]
        if not 1 <= period <= lifetime:
            raise ValueError(f"period {period} outside 1..{lifetime}")
        # F^(L-i)(Y0) is kept for i up to the number of values kept, less one.
        last = len(self._chains[serial]) // self.f.width_bytes - 1
        if period > last:
            raise ValueError(f"period {period} past the last kept period {last}")
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
