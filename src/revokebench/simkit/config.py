"""Experiment description for the deterministic simulator.

The seed fully determines a run; two configs with equal workload fields (and
possibly different scheme fields) see identical issuance, revocation, and
validation event streams, which is what makes scheme comparisons paired.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Optional, Union, get_args, get_origin, get_type_hints

from ..core import DAY, HOUR, TIME_MAX, OneWayFunction
from ..crl import IssuanceSchedule


class Scheme(Enum):
    FULL_CRL = "full_crl"
    DELTA_CRL = "delta_crl"
    SLIDING_DELTA = "sliding_delta"
    SEGMENTED = "segmented"
    CRS = "crs"
    CRT = "crt"
    WCR = "wcr"
    OCSP = "ocsp"
    NAIVE_SIGNED_STATUS = "naive_signed_status"


class ConfigError(ValueError):
    """The configuration is internally inconsistent."""


# Fields that define the workload; compare() requires these to match.
WORKLOAD_FIELDS = (
    "seed",
    "horizon",
    "population",
    "annual_revocation_fraction",
    "annual_new_user_fraction",
    "validation_rate",
    "n_clients",
    "validation_pattern",
    "validation_gap",
    "cert_lifetime",
)


@dataclass(frozen=True)
class SimConfig:
    seed: int
    horizon: int
    population: int
    scheme: Scheme

    # Workload rates. 10% of certificates need revoking before expiry per
    # year; 5% of a year's certificates belong to brand-new users.
    annual_revocation_fraction: float = 0.10
    annual_new_user_fraction: float = 0.05
    validation_rate: float = 4.0  # mean validations per client per day
    n_clients: int = 100
    validation_pattern: str = "poisson"  # "poisson" | "fixed_gap"
    validation_gap: int = 0  # seconds between validations in fixed_gap mode
    cert_lifetime: int = 365 * DAY

    # Metrics shaping.
    interval: int = HOUR
    stat_warmup: int = 0  # peak/mean request rates exclude earlier intervals
    late_revoked_threshold: int = 0  # "late" per-validation bytes start here

    # CRL-family parameters. extra_delta_times injects freshest-delta
    # releases on an irregular schedule on top of the regular grid (the
    # pay-per-freshness pointer variant, minus any payment modeling).
    base_period: int = DAY
    delta_period: Optional[int] = None
    window_length: Optional[int] = None
    overissue_factor: int = 1
    segments: int = 4
    fetch_policy: str = "at_expiry"  # "at_expiry" | "uniform_random_window"
    fetch_window: int = 0
    extra_delta_times: tuple[int, ...] = field(default_factory=tuple)

    # CRS parameters.
    crs_period: int = DAY
    crs_lifetime_periods: int = 365
    crs_width_bits: int = 100

    # WCR parameters.
    wcr_window_size: Optional[int] = None  # None = infinity
    wcr_clean_duration: int = 0

    # OCSP parameters.
    ocsp_max_age: int = 0  # 0 = nonce mode
    ocsp_key_lifetime: int = 30 * DAY

    # Optional depender-graph distribution overlay for CA -> directory pushes.
    depender_nodes: int = 0
    depender_k: int = 3
    node_failures: tuple[tuple[int, int], ...] = field(default_factory=tuple)
    node_rejoins: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.horizon <= 0 or self.population < 0 or self.n_clients < 0:
            raise ConfigError("horizon must be positive; counts non-negative")
        if self.annual_revocation_fraction < 0 or self.annual_new_user_fraction < 0:
            raise ConfigError("fractions must be >= 0")
        if self.validation_rate < 0:
            raise ConfigError("validation_rate must be >= 0")
        if self.validation_pattern not in ("poisson", "fixed_gap"):
            raise ConfigError(f"unknown validation pattern {self.validation_pattern!r}")
        if self.validation_pattern == "fixed_gap" and self.validation_gap <= 0:
            raise ConfigError("fixed_gap pattern needs a positive validation_gap")
        if self.cert_lifetime <= 0:
            raise ConfigError("cert_lifetime must be positive")
        # Times in a run reach horizon + cert_lifetime, the last certificate's
        # expiry; the bound keeps one more lifetime of headroom on the u64 clock.
        if self.horizon + 2 * self.cert_lifetime > TIME_MAX:
            raise ConfigError("horizon + 2 * cert_lifetime leaves the unsigned 64-bit time range")
        if self.interval <= 0:
            raise ConfigError("interval must be positive")
        if self.stat_warmup < 0:
            raise ConfigError("stat_warmup must be >= 0")
        try:
            self.schedule
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.scheme in (Scheme.DELTA_CRL, Scheme.SLIDING_DELTA) and self.delta_period is None:
            raise ConfigError(f"{self.scheme.value} requires delta_period")
        if self.scheme is Scheme.SLIDING_DELTA and self.window_length is None:
            raise ConfigError("sliding_delta requires window_length")
        if self.scheme is Scheme.SEGMENTED and self.segments < 1:
            raise ConfigError("segmented scheme needs at least one segment")
        if self.fetch_policy not in ("at_expiry", "uniform_random_window"):
            raise ConfigError(f"unknown fetch policy {self.fetch_policy!r}")
        if self.fetch_policy == "uniform_random_window" and self.scheme is not Scheme.FULL_CRL:
            raise ConfigError("uniform_random_window fetches apply only to full_crl")
        if self.fetch_policy == "uniform_random_window" and self.fetch_window < 0:
            raise ConfigError("fetch_window must be >= 0")
        if self.crs_period <= 0 or self.crs_lifetime_periods < 1:
            raise ConfigError("crs period/lifetime must be positive")
        try:
            OneWayFunction(self.crs_width_bits)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        last_period = self.crs_last_period
        if self.scheme is Scheme.CRS and self.n_clients and last_period > self.crs_lifetime_periods:
            raise ConfigError(
                f"crs chain of {self.crs_lifetime_periods} periods is shorter than the "
                f"horizon: validations can claim period {last_period}"
            )
        if self.wcr_window_size is not None and self.wcr_window_size < 1:
            raise ConfigError("wcr window size must be >= 1 or None (infinity)")
        if self.extra_delta_times and self.scheme not in (
            Scheme.DELTA_CRL,
            Scheme.SLIDING_DELTA,
        ):
            raise ConfigError("extra_delta_times applies only to delta schemes")
        if self.ocsp_key_lifetime <= 0:
            raise ConfigError("ocsp_key_lifetime must be positive")
        for name in ("wcr_clean_duration", "ocsp_max_age", "depender_nodes"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if self.depender_nodes > 0 and self.depender_k < 1:
            raise ConfigError("an overlay needs depender_k >= 1")
        # Node 0 is the overlay's root, which never fails.
        for _, node in self.node_failures + self.node_rejoins:
            if not 1 <= node < self.depender_nodes:
                raise ConfigError(f"node {node} is not in 1 <= id < {self.depender_nodes}")

    @property
    def crs_last_period(self) -> int:
        """The last CRS period a run can ask for. The initial population is
        issued at time 0 and validations pick any issued certificate, expired
        ones too, so a validation before the horizon can claim this period
        whatever cert_lifetime is. The chain must reach it."""
        return (self.horizon - 1) // self.crs_period

    @property
    def schedule(self) -> IssuanceSchedule:
        """The CRL publishing schedule, the one place its rules are checked."""
        return IssuanceSchedule(
            base_period=self.base_period,
            delta_period=self.delta_period,
            overissue_factor=self.overissue_factor,
            window_length=self.window_length,
        )

    def workload_key(self) -> tuple:
        return tuple(getattr(self, name) for name in WORKLOAD_FIELDS)

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    @staticmethod
    def from_json_dict(d: dict) -> "SimConfig":
        """The config a JSON object describes; a value that its field's
        annotation does not admit raises ConfigError naming the field."""
        hints = get_type_hints(SimConfig)
        unknown = set(d) - hints.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = {}
        for f in fields(SimConfig):
            if f.name in d:
                try:
                    kwargs[f.name] = _from_json(d[f.name], hints[f.name])
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"config field {f.name!r} must be {f.type}, got {d[f.name]!r}"
                    ) from None
        return SimConfig(**kwargs)


def _from_json(value, annotation):
    """value, read from JSON, as the annotation asks, else TypeError or
    ValueError. An int is never a bool or a float, a float may be an int but
    not a bool, and a tuple is a JSON list."""
    origin, args = get_origin(annotation), get_args(annotation)
    if origin is Union:  # Optional[X]
        return None if value is None else _from_json(value, args[0])
    if origin is tuple:
        items = args[:1] * len(value) if args[1:] == (Ellipsis,) else args
        if type(value) is not list or len(items) != len(value):
            raise TypeError
        return tuple(map(_from_json, value, items))
    if issubclass(annotation, Enum):
        return annotation(value)
    if type(value) is annotation or (annotation is float and type(value) is int):
        return value
    raise TypeError
