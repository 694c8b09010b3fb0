"""Windowed certificate revocation.

Issuer side: a revocation stays on the CRL for a bounded number of
consecutive publishing dates instead of until expiry. Client side: the
verifier cache algorithm with a clean timer (how fresh a certificate must be
to skip revalidation) and a revocation-window timer (how long the CRL is
still guaranteed to list anything missed).

The per-validation records (`WcrClientState`, `FreshFetch`, `CrlFetch`) are
tuples, not frozen dataclasses, because a validation builds one or two of
each: a tuple is built in one allocation, without a frozen dataclass's
`object.__setattr__` per field. They are immutable and compare and hash by
value, and they have no field invariants to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, Protocol

from .core import KeyStore, RevocationRecord, TIME_MAX
from .crl import CrlDocument, CrlIssuer, IssuanceSchedule


class WcrDecision(Enum):
    USE = "use"
    DROP = "drop"


# read per validation through module names, not the class (see crl._FULL)
_USE, _DROP = WcrDecision.USE, WcrDecision.DROP


class WcrIssuer:
    """Publishes the windowed CRL on a fixed period.

    A record's publishing date is the first date at or after its revocation
    instant; with window_size w it then appears on exactly w consecutive
    lists, and on every later list when window_size is None (infinite).
    """

    def __init__(
        self, keystore: KeyStore, key_id: str, period: int, window_size: Optional[int] = None
    ) -> None:
        if window_size is not None and window_size < 1:
            raise ValueError("revocation window size must be >= 1 or infinite")
        self.period = period
        self.window_size = window_size
        self._crl = CrlIssuer(keystore, key_id, IssuanceSchedule(base_period=period))

    def assigned_index(self, revoked_at: int) -> int:
        return -(-revoked_at // self.period)

    def issue(
        self, records: Iterable[RevocationRecord], publish_index: int, now: int
    ) -> CrlDocument:
        """The list of publishing date publish_index, issued at now: each of
        the records inside its window. As with `CrlIssuer.issue_full`, leaving
        out expired certificates is the caller's part."""
        window = self.window_size
        listed = []
        for record in records:
            if window is None:
                listed.append(record)
                continue
            first = self.assigned_index(record.revoked_at)
            if first <= publish_index <= first + window - 1:
                listed.append(record)
        return self._crl.issue_full(listed, now)


class WcrServices(Protocol):
    """Network side of the verifier cache algorithm, supplied by the caller."""

    def fetch_fresh_certificate(self, serial: int, now: int) -> "FreshFetch": ...

    def fetch_latest_crl(self, now: int) -> "CrlFetch": ...


class FreshFetch(NamedTuple):
    """The CA's answer to a fresh-certificate request: revoked, or the
    certificate as issued, which the client then holds; nbytes is the
    reply's size either way."""

    revoked: bool
    nbytes: int


class CrlFetch(NamedTuple):
    doc: CrlDocument
    nbytes: int  # zero when served from the client's own cache


@dataclass(frozen=True)
class WcrClientConfig:
    clean_duration: int
    crl_period: int
    window_size: Optional[int] = None  # None = infinity

    @property
    def window_duration(self) -> Optional[int]:
        if self.window_size is None:
            return None
        return (self.window_size - 1) * self.crl_period


class WcrClientState(NamedTuple):
    """One client's cache entry for one serial. `held` is whether the client
    holds that serial's certificate from a fresh fetch not since dropped;
    the algorithm reads no field of the certificate, so it is not kept."""

    serial: int
    held: bool = False
    clean_deadline: int = 0
    window_deadline: int = 0


# Action tags for the per-validation log (time, serial, action, bytes).
ACT_FRESH = "fresh_fetch"
ACT_CRL = "crl_fetch"
ACT_USE = "cache_use"
ACT_DROP = "drop"

Action = tuple[int, int, str, int]


def _armed(serial: int, anchor: int, config: WcrClientConfig) -> WcrClientState:
    # Deadlines are anchored to the publication date of the information just
    # consulted; a zero duration therefore always reads as expired.
    window = config.window_duration
    return WcrClientState(
        serial,
        True,
        anchor + config.clean_duration,
        TIME_MAX if window is None else anchor + window,
    )


def wcr_validate(
    state: WcrClientState,
    now: int,
    services: WcrServices,
    config: WcrClientConfig,
) -> tuple[WcrDecision, WcrClientState, list[Action]]:
    """One pass of the verifier cache algorithm for one certificate.

    Clean timer running -> use without revalidating. No certificate held, or both
    timers expired -> fetch fresh and arm both timers. Clean expired inside
    the revocation window -> the latest CRL is still guaranteed to list
    anything missed, so consult it (cached copy if current), drop if listed,
    otherwise re-arm and use.

    A service that raises passes its exception through before any state
    change: states are immutable, so the caller still holds the state it
    passed in and can retry from the same timers.
    """
    serial, held, clean_deadline, window_deadline = state

    if held and now < clean_deadline:
        return _USE, state, [(now, serial, ACT_USE, 0)]

    if not held or now >= window_deadline:
        grid = (now // config.crl_period) * config.crl_period
        revoked, nbytes = services.fetch_fresh_certificate(serial, now)
        fetch = (now, serial, ACT_FRESH, nbytes)
        if revoked:
            return _DROP, WcrClientState(serial), [fetch, (now, serial, ACT_DROP, 0)]
        armed = _armed(serial, grid, config)
        return _USE, armed, [fetch, (now, serial, ACT_USE, 0)]

    doc, nbytes = services.fetch_latest_crl(now)
    actions: list[Action] = [(now, serial, ACT_CRL, nbytes)] if nbytes else []
    if doc.lists(serial):
        actions.append((now, serial, ACT_DROP, 0))
        return _DROP, WcrClientState(serial), actions
    actions.append((now, serial, ACT_USE, 0))
    return _USE, _armed(serial, doc.this_update, config), actions
