"""Measurement accumulation and the final report.

Each report field is declared once, with its starting value, in
MetricsReport. Metrics is a MetricsReport that also carries the few sums
that are not reported, and finalize() copies the reported fields out.

Bytes are double-entry: the sending side and the receiving side of every
message are recorded, and must reconcile exactly. One call books one
message, both sides: note_message(channel, nbytes). The one fused form is
note_fetch, a client's directory request and its reply, which equals a
request count plus two note_message calls. Today both sides are recorded
with the same number, so conservation holds by construction; it becomes a
real check once the encoder's side and the decoder's side are measured
apart.
Publications are noted by the transport's CA push.

Validations are booked in sums, not one by one. Directory->client bytes move
only in validations and in prefetch events, and the engine books the bytes
each prefetch moves into `d2c_bytes_prefetched`; so the validations' bytes
are the channel's total less those, exactly. The revocation count only
grows, so the validations that are late (made once `revocations_total`
exceeds `late_revoked_threshold`) are all those from the first one on: the
engine marks that point once, with `mark_late`, and the late sums are the
totals less what it held then. `note_validation` is left with the one check
that is per validation, the decision against the ground truth.
Signatures are not noted here: at the end of a run the engine fills
signature_ops from the KeyStore's own per-phase counts.
Request rates are bucketed per interval; peak/mean statistics can exclude a
configurable warm-up so steady-state claims are not dominated by the cold
start every scheme shares.
"""

from __future__ import annotations

import json
from copy import copy
from dataclasses import dataclass, field, fields
from typing import Optional

CHANNELS = (
    "ca_to_directory",
    "directory_to_client",
    "client_to_directory",
    "ca_to_client",
    "client_to_ca",
)


@dataclass
class MetricsReport:
    """Every reported field, declared once with its starting value.

    Metrics accumulates into these same fields, and finalize() copies them
    into a fresh MetricsReport, so a field is added or renamed in one place.
    """

    scheme: str
    seed: int
    horizon: int
    population: int
    n_clients: int
    interval: int
    stat_warmup: int

    requests_per_interval: list[int] = field(default_factory=list)
    peak_request_rate: int = 0
    mean_request_rate: float = 0.0

    bytes_sent: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CHANNELS, 0))
    bytes_received: dict[str, int] = field(default_factory=lambda: dict.fromkeys(CHANNELS, 0))

    validations: int = 0
    validations_late: int = 0
    revocations_total: int = 0
    per_validation_d2c_bytes: float = 0.0
    per_validation_d2c_bytes_late: float = 0.0

    signature_ops: dict[str, int] = field(default_factory=dict)
    hash_ops: dict[str, int] = field(default_factory=dict)
    publications: dict[str, int] = field(default_factory=dict)
    base_crl_fetches: int = 0
    crt_recomputed_hashes: int = 0

    staleness_hist: dict[str, int] = field(default_factory=dict)
    false_valid: int = 0
    false_revocation: int = 0

    overlay: dict[str, int] = field(default_factory=dict)

    def conservation_delta(self) -> int:
        return sum(
            abs(self.bytes_sent.get(ch, 0) - self.bytes_received.get(ch, 0)) for ch in CHANNELS
        )

    def to_json(self) -> str:
        d = dict(self.__dict__)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def summary_row(self) -> dict:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "peak_request_rate": self.peak_request_rate,
            "mean_request_rate": round(self.mean_request_rate, 4),
            "ca_to_directory_bytes": self.bytes_sent.get("ca_to_directory", 0),
            "directory_to_client_bytes": self.bytes_sent.get("directory_to_client", 0),
            "per_validation_d2c_bytes": round(self.per_validation_d2c_bytes, 2),
            "per_validation_d2c_bytes_late": round(self.per_validation_d2c_bytes_late, 2),
            "ca_sign_ops": self.signature_ops.get("ca_sign", 0),
            "responder_sign_ops": self.signature_ops.get("responder_sign", 0),
            "publications": sum(self.publications.values()),
            "base_crl_fetches": self.base_crl_fetches,
            "false_valid": self.false_valid,
            "false_revocation": self.false_revocation,
        }

    def interval_rows(self) -> list[dict]:
        return [
            {"interval_index": i, "interval_start": i * self.interval, "requests": r}
            for i, r in enumerate(self.requests_per_interval)
        ]


@dataclass
class Metrics(MetricsReport):
    """Mutable accumulator over the report's own fields; finalize() freezes
    it into a MetricsReport. Only the fields below are not reported. The
    starting size of requests_per_interval depends on horizon and interval,
    so __post_init__ sizes it."""

    late_revoked_threshold: int = 0
    d2c_bytes_prefetched: int = 0
    # (validations, their directory->client bytes) before the first late one
    late_from: Optional[tuple[int, int]] = None

    def __post_init__(self) -> None:
        self.requests_per_interval = [0] * -(-self.horizon // self.interval)

    # -- transport ---------------------------------------------------------

    def note_message(self, channel: str, nbytes: int) -> None:
        """One message of nbytes on channel: its sending and receiving side."""
        self.bytes_sent[channel] += nbytes
        self.bytes_received[channel] += nbytes

    def note_fetch(self, now: int, request: int, reply: int) -> None:
        """A client's directory request and its reply, in one step. It equals
        counting the request in its interval plus
        note_message("client_to_directory", request) and
        note_message("directory_to_client", reply), fused because every
        per-serial validation makes one."""
        per_interval = self.requests_per_interval
        per_interval[min(now // self.interval, len(per_interval) - 1)] += 1
        sent, received = self.bytes_sent, self.bytes_received
        sent["client_to_directory"] += request
        received["client_to_directory"] += request
        sent["directory_to_client"] += reply
        received["directory_to_client"] += reply

    # -- operations --------------------------------------------------------

    def note_hash(self, actor: str, n: int) -> None:
        if n:
            self.hash_ops[actor] = self.hash_ops.get(actor, 0) + n

    def note_publication(self, kind: str, n: int = 1) -> None:
        self.publications[kind] = self.publications.get(kind, 0) + n

    # -- ground truth ------------------------------------------------------

    def validation_d2c_bytes(self) -> int:
        """The directory->client bytes moved by validations so far."""
        return self.bytes_received["directory_to_client"] - self.d2c_bytes_prefetched

    def mark_late(self, validations: int) -> None:
        """Record that the validations after the first `validations` are late."""
        self.late_from = (validations, self.validation_d2c_bytes())

    def note_validation(self, now: int, used: bool, truth_revoked_at: Optional[int]) -> None:
        """Compare a client decision against the ledger at the same instant.

        A drop of a never-revoked certificate is a false revocation (must
        never happen in any scheme); a use of a revoked one is a false valid,
        recorded with the age of the missed revocation.
        """
        if used:
            if truth_revoked_at is not None and truth_revoked_at <= now:
                self.false_valid += 1
                bucket = f"h{(now - truth_revoked_at) // 3600:06d}"
                self.staleness_hist[bucket] = self.staleness_hist.get(bucket, 0) + 1
        elif truth_revoked_at is None or truth_revoked_at > now:
            self.false_revocation += 1

    # -- finalize ----------------------------------------------------------

    def finalize(self) -> MetricsReport:
        first = min(self.stat_warmup // self.interval, len(self.requests_per_interval))
        window = self.requests_per_interval[first:] or [0]
        self.peak_request_rate = max(window)
        self.mean_request_rate = sum(window) / len(window)
        d2c = self.validation_d2c_bytes()
        if self.validations:
            self.per_validation_d2c_bytes = d2c / self.validations
        if self.late_from is not None:
            early, early_d2c = self.late_from
            self.validations_late = self.validations - early
            if self.validations_late:
                self.per_validation_d2c_bytes_late = (d2c - early_d2c) / self.validations_late
        return MetricsReport(**{f.name: copy(getattr(self, f.name)) for f in fields(MetricsReport)})
