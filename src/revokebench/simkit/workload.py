"""Scheme-independent workload generation.

Everything here depends only on the seed and the workload fields of the
config, so paired comparisons across schemes replay the exact same issuance,
revocation, and validation streams.

Draw order per sub-stream, which the loops below carry:

- "new-users": `randrange(1, max(2, horizon))` per new certificate, by serial.
- "revocations": per certificate in (time, serial) order with an exposure
  (to horizon or expiry) over 1 s, `random()`, then `randrange(exposure - 1)`
  if that fell below the revocation probability.
- "validations": per client, its first instant (fixed_gap: `randrange(gap)`;
  poisson: an exponential gap), then per validation the serial index, uniform
  over the certificates issued by then, and (poisson) the next gap. Both are
  spelled out as CPython 3.10-3.13 runs `randrange(n)` and `expovariate`;
  tests/test_workload.py holds them to the stdlib calls.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from math import log
from operator import itemgetter

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
    horizon, population = config.horizon, config.population
    rng_new = substream(config.seed, "new-users")
    rng_rev = substream(config.seed, "revocations")
    rng_val = substream(config.seed, "validations")

    expected_new = population * config.annual_new_user_fraction * horizon / YEAR
    issues = [(0, serial) for serial in range(1, population + 1)]
    issues += [
        (rng_new.randrange(1, max(2, horizon)), serial)
        for serial in range(population + 1, population + 1 + int(expected_new))
    ]
    issues.sort()

    revocations: list[tuple[int, int]] = []
    rev_random, issued_at = rng_rev.random, None
    for t0, serial in issues:
        if t0 != issued_at:  # exposure and p depend on the issue instant only
            issued_at = t0
            exposure = min(horizon, t0 + config.cert_lifetime) - t0
            p = config.annual_revocation_fraction * exposure / YEAR
        if exposure > 1 and rev_random() < p:
            revocations.append((t0 + 1 + rng_rev.randrange(exposure - 1), serial))
    revocations.sort()

    issue_times = [t for t, _ in issues]
    issue_serials = [s for _, s in issues]

    validations: list[tuple[int, int, int]] = []
    fixed = config.validation_pattern == "fixed_gap"
    if population and (fixed or config.validation_rate > 0):
        append, gap = validations.append, config.validation_gap
        val_random, getrandbits = rng_val.random, rng_val.getrandbits
        lambd = config.validation_rate / DAY
        for client in range(config.n_clients):
            t = rng_val.randrange(gap) if fixed else int(-log(1.0 - val_random()) / lambd) or 1
            renew = 0  # the pool size n holds until t reaches the next issue instant
            while t < horizon:
                if t >= renew:
                    n = bisect_right(issue_times, t)
                    k = n.bit_length()
                    renew = issue_times[n] if n < len(issue_times) else horizon
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                append((t, client, issue_serials[r]))
                t += gap if fixed else int(-log(1.0 - val_random()) / lambd) or 1
    # Clients run in order, each at strictly rising times: sorting on time keeps tuple order.
    validations.sort(key=itemgetter(0))

    return Workload(
        issues=tuple(issues),
        revocations=tuple(revocations),
        validations=tuple(validations),
    )
