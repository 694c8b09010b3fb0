"""The benchmark's workloads: seeded lists of simulator configs.

Each workload is a function of the seed and a scale factor and returns the
configs the benchmark hands to `Simulation(config)`. All configs of one
workload share their workload fields, so every scheme replays the same
issuance, revocation and validation streams. The benchmark always runs
scale 1; the smoke tests run a tiny scale so they finish in seconds.
See README.md for why each workload was chosen.
"""

from __future__ import annotations

import random

from revokebench.core import DAY, HOUR
from revokebench.simkit import Scheme, SimConfig


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def tradeoffs(seed: int, scale: float = 1.0) -> list[SimConfig]:
    """The nine configs of `revokebench sim --preset paper-tradeoffs`.

    Copied here rather than imported from the CLI, so that a later change to
    the preset does not silently change what the benchmark measures.
    """
    base = dict(
        seed=seed,
        horizon=60 * DAY,
        population=_scaled(2000, scale),
        n_clients=_scaled(40, scale),
        validation_rate=3.0,
        late_revoked_threshold=0,
    )
    return [
        SimConfig(scheme=Scheme.FULL_CRL, **base),
        SimConfig(scheme=Scheme.DELTA_CRL, delta_period=6 * HOUR, **base),
        SimConfig(
            scheme=Scheme.SLIDING_DELTA, delta_period=3 * HOUR, window_length=21 * DAY, **base
        ),
        SimConfig(scheme=Scheme.SEGMENTED, segments=8, **base),
        SimConfig(scheme=Scheme.CRS, **base),
        SimConfig(scheme=Scheme.CRT, **base),
        SimConfig(scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=12 * HOUR, **base),
        SimConfig(scheme=Scheme.OCSP, **base),
        SimConfig(scheme=Scheme.NAIVE_SIGNED_STATUS, **base),
    ]


def _overlay_churn(seed: int, nodes: int) -> dict:
    """Three node failures and two rejoins, drawn from the seed.

    At most two nodes are down at once, fewer than k = 3, so every live node
    keeps receiving pushes and every rejoin finds a live parent.
    """
    rng = random.Random(f"perfbench:{seed}:overlay")
    a, b, c = rng.sample(range(1, nodes), 3)
    return dict(
        depender_nodes=nodes,
        depender_k=3,
        node_failures=((5 * DAY, a), (9 * DAY, b), (15 * DAY, c)),
        node_rejoins=((12 * DAY, a), (20 * DAY, c)),
    )


def ca_churn(seed: int, scale: float = 1.0) -> list[SimConfig]:
    """Write-heavy CA side: many issuances and revocations, few validations."""
    base = dict(
        seed=seed,
        horizon=30 * DAY,
        population=_scaled(30_000, scale),
        annual_revocation_fraction=1.0,
        n_clients=_scaled(50, scale),
        validation_rate=2.0,
        **_overlay_churn(seed, 64),
    )
    return [
        SimConfig(scheme=Scheme.FULL_CRL, **base),
        SimConfig(
            scheme=Scheme.SLIDING_DELTA, delta_period=3 * HOUR, window_length=7 * DAY, **base
        ),
        SimConfig(scheme=Scheme.CRT, **base),
        SimConfig(scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=12 * HOUR, **base),
    ]


def validation_storm(seed: int, scale: float = 1.0) -> list[SimConfig]:
    """Read-heavy client side: many validations against few publications.

    A revocation fraction of 2.5 on 8,000 certificates over 14 days lists
    about 770 revocations, the list size of 20,000 certificates at 1.0,
    while issuing fewer certificates so that validation dominates.
    """
    base = dict(
        seed=seed,
        horizon=14 * DAY,
        population=_scaled(8_000, scale),
        annual_revocation_fraction=2.5,
        n_clients=_scaled(100, scale),
        validation_rate=16.0,
    )
    return [
        SimConfig(scheme=Scheme.FULL_CRL, **base),
        SimConfig(scheme=Scheme.DELTA_CRL, delta_period=6 * HOUR, **base),
        SimConfig(scheme=Scheme.SEGMENTED, segments=8, **base),
        SimConfig(scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=12 * HOUR, **base),
        SimConfig(scheme=Scheme.OCSP, **base),
        SimConfig(scheme=Scheme.CRT, **base),
    ]


WORKLOADS = {
    "tradeoffs": tradeoffs,
    "ca_churn": ca_churn,
    "validation_storm": validation_storm,
}
