"""Measurement accumulation and the final report.

Bytes are double-entry: the sending side and the receiving side of every
message are recorded, and must reconcile exactly. Today both sides are
recorded by the one transport routine, SchemeAdapter.transfer, with the same
number, so conservation holds by construction; it becomes a real check once
the encoder's side and the decoder's side are measured apart.
Scheme adapters count nothing themselves. Publications are noted by the
transport's CA push, and a validation's directory->client bytes are the
change the engine reads off bytes_received around the adapter's call.
Signatures are not noted here: at the end of a run the engine fills
signature_ops from the KeyStore's own per-phase counts.
Request rates are bucketed per interval; peak/mean statistics can exclude a
configurable warm-up so steady-state claims are not dominated by the cold
start every scheme shares.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    scheme: str
    seed: int
    horizon: int
    population: int
    n_clients: int
    interval: int
    stat_warmup: int

    requests_per_interval: list[int]
    peak_request_rate: int
    mean_request_rate: float

    bytes_sent: dict[str, int]
    bytes_received: dict[str, int]

    validations: int
    validations_late: int
    revocations_total: int
    per_validation_d2c_bytes: float
    per_validation_d2c_bytes_late: float

    signature_ops: dict[str, int]
    hash_ops: dict[str, int]
    publications: dict[str, int]
    base_crl_fetches: int
    crt_recomputed_hashes: int

    staleness_hist: dict[str, int]
    false_valid: int
    false_revocation: int

    overlay: dict[str, int]

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


class Metrics:
    """Mutable accumulator; finalize() freezes it into a MetricsReport."""

    def __init__(self, scheme: str, seed: int, horizon: int, population: int,
                 n_clients: int, interval: int, stat_warmup: int,
                 late_revoked_threshold: int) -> None:
        self.scheme = scheme
        self.seed = seed
        self.horizon = horizon
        self.population = population
        self.n_clients = n_clients
        self.interval = interval
        self.stat_warmup = stat_warmup
        self.late_revoked_threshold = late_revoked_threshold

        n_intervals = -(-horizon // interval)
        self.requests_per_interval = [0] * n_intervals
        self.bytes_sent = {ch: 0 for ch in CHANNELS}
        self.bytes_received = {ch: 0 for ch in CHANNELS}
        self.validations = 0
        self.validations_late = 0
        self.revocations_total = 0
        self.d2c_bytes_at_validation = 0
        self.d2c_bytes_at_validation_late = 0
        self.signature_ops: dict[str, int] = {}
        self.hash_ops: dict[str, int] = {}
        self.publications: dict[str, int] = {}
        self.base_crl_fetches = 0
        self.crt_recomputed_hashes = 0
        self.staleness_hist: dict[str, int] = {}
        self.false_valid = 0
        self.false_revocation = 0
        self.overlay: dict[str, int] = {}

    # -- transport ---------------------------------------------------------

    def note_sent(self, channel: str, nbytes: int) -> None:
        self.bytes_sent[channel] += nbytes

    def note_received(self, channel: str, nbytes: int) -> None:
        self.bytes_received[channel] += nbytes

    def note_request(self, now: int) -> None:
        idx = min(now // self.interval, len(self.requests_per_interval) - 1)
        self.requests_per_interval[idx] += 1

    # -- operations --------------------------------------------------------

    def note_hash(self, actor: str, n: int) -> None:
        if n:
            self.hash_ops[actor] = self.hash_ops.get(actor, 0) + n

    def note_publication(self, kind: str, n: int = 1) -> None:
        self.publications[kind] = self.publications.get(kind, 0) + n

    # -- ground truth ------------------------------------------------------

    def note_validation(
        self,
        now: int,
        used: bool,
        truth_revoked_at: Optional[int],
        d2c_bytes: int,
        revoked_count: int,
    ) -> None:
        """Compare a client decision against the ledger at the same instant.

        A drop of a never-revoked certificate is a false revocation (must
        never happen in any scheme); a use of a revoked one is a false valid,
        recorded with the age of the missed revocation.
        """
        self.validations += 1
        self.d2c_bytes_at_validation += d2c_bytes
        late = revoked_count > self.late_revoked_threshold
        if late:
            self.validations_late += 1
            self.d2c_bytes_at_validation_late += d2c_bytes
        truth_revoked = truth_revoked_at is not None and truth_revoked_at <= now
        if used and truth_revoked:
            self.false_valid += 1
            age_hours = (now - truth_revoked_at) // 3600
            bucket = f"h{age_hours:06d}"
            self.staleness_hist[bucket] = self.staleness_hist.get(bucket, 0) + 1
        elif not used and not truth_revoked:
            self.false_revocation += 1

    # -- finalize ----------------------------------------------------------

    def finalize(self) -> MetricsReport:
        first = min(self.stat_warmup // self.interval, len(self.requests_per_interval))
        window = self.requests_per_interval[first:] or [0]
        return MetricsReport(
            scheme=self.scheme,
            seed=self.seed,
            horizon=self.horizon,
            population=self.population,
            n_clients=self.n_clients,
            interval=self.interval,
            stat_warmup=self.stat_warmup,
            requests_per_interval=list(self.requests_per_interval),
            peak_request_rate=max(window),
            mean_request_rate=sum(window) / len(window),
            bytes_sent=dict(sorted(self.bytes_sent.items())),
            bytes_received=dict(sorted(self.bytes_received.items())),
            validations=self.validations,
            validations_late=self.validations_late,
            revocations_total=self.revocations_total,
            per_validation_d2c_bytes=(
                self.d2c_bytes_at_validation / self.validations if self.validations else 0.0
            ),
            per_validation_d2c_bytes_late=(
                self.d2c_bytes_at_validation_late / self.validations_late
                if self.validations_late
                else 0.0
            ),
            signature_ops=dict(sorted(self.signature_ops.items())),
            hash_ops=dict(sorted(self.hash_ops.items())),
            publications=dict(sorted(self.publications.items())),
            base_crl_fetches=self.base_crl_fetches,
            crt_recomputed_hashes=self.crt_recomputed_hashes,
            staleness_hist=dict(sorted(self.staleness_hist.items())),
            false_valid=self.false_valid,
            false_revocation=self.false_revocation,
            overlay=dict(sorted(self.overlay.items())),
        )
