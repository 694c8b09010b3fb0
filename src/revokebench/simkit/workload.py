"""Scheme-independent workload generation.

Everything here depends only on the seed and the workload fields of the
config, so paired comparisons across schemes replay the exact same issuance,
revocation, and validation streams.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass

from ..core import DAY
from .config import SimConfig

YEAR = 365 * DAY


def substream(seed: int, tag: str) -> random.Random:
    # Seeding with a string goes through SHA-512 internally, so sub-streams
    # are stable across processes and independent per tag.
    return random.Random(f"{seed}:{tag}")


@dataclass(frozen=True)
class Workload:
    issues: tuple[tuple[int, int], ...]  # (time, serial), time-sorted
    revocations: tuple[tuple[int, int], ...]  # (time, serial), time-sorted
    validations: tuple[tuple[int, int, int], ...]  # (time, client, serial), time-sorted


def generate_workload(config: SimConfig) -> Workload:
    rng_new = substream(config.seed, "new-users")
    rng_rev = substream(config.seed, "revocations")
    rng_val = substream(config.seed, "validations")

    issues: list[tuple[int, int]] = [(0, serial) for serial in range(1, config.population + 1)]
    next_serial = config.population + 1
    expected_new = config.population * config.annual_new_user_fraction * config.horizon / YEAR
    for _ in range(int(expected_new)):
        t = rng_new.randrange(1, max(2, config.horizon))
        issues.append((t, next_serial))
        next_serial += 1
    issues.sort()

    revocations: list[tuple[int, int]] = []
    for t0, serial in issues:
        exposure = min(config.horizon, t0 + config.cert_lifetime) - t0
        if exposure <= 1:
            continue
        p = config.annual_revocation_fraction * exposure / YEAR
        if rng_rev.random() < p:
            revocations.append((t0 + 1 + rng_rev.randrange(exposure - 1), serial))
    revocations.sort()

    issue_times = [t for t, _ in issues]
    issue_serials = [s for _, s in issues]

    validations: list[tuple[int, int, int]] = []
    if config.n_clients and config.population:
        per_day = config.validation_rate
        for client in range(config.n_clients):
            if config.validation_pattern == "fixed_gap":
                t = rng_val.randrange(config.validation_gap)
                while t < config.horizon:
                    validations.append((t, client, _pick(rng_val, issue_times, issue_serials, t)))
                    t += config.validation_gap
            else:
                if per_day <= 0:
                    continue
                t = 0
                while True:
                    t += max(1, int(rng_val.expovariate(per_day / DAY)))
                    if t >= config.horizon:
                        break
                    validations.append((t, client, _pick(rng_val, issue_times, issue_serials, t)))
    validations.sort()

    return Workload(
        issues=tuple(issues),
        revocations=tuple(revocations),
        validations=tuple(validations),
    )


def _pick(rng: random.Random, issue_times: list[int], issue_serials: list[int], t: int) -> int:
    """A uniformly random serial among certificates already issued at t."""
    n = bisect_right(issue_times, t)
    return issue_serials[rng.randrange(n)]
