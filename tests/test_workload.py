"""Workload generation: the generator draws exactly what the stdlib calls
would, and each sub-stream depends only on its own fields.

`reference_workload` is the generator as first written, with the stdlib's
`randrange` and `expovariate`. The generator in `simkit.workload` spells both
out as CPython 3.10-3.13 runs them, so this oracle is what flags a CPython
that draws them differently.
"""

import dataclasses
import random
from bisect import bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from revokebench.core import DAY
from revokebench.simkit import Scheme, SimConfig, generate_workload
from revokebench.simkit.workload import YEAR, Workload, substream


def reference_workload(config: SimConfig) -> Workload:
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


def config(**kwargs) -> SimConfig:
    kwargs.setdefault("seed", 1)
    kwargs.setdefault("horizon", 5 * DAY)
    kwargs.setdefault("population", 40)
    kwargs.setdefault("n_clients", 4)
    return SimConfig(scheme=Scheme.FULL_CRL, **kwargs)


@st.composite
def configs(draw) -> SimConfig:
    """Small workloads, at most a few hundred validations per client."""
    horizon = draw(st.integers(1, 10 * DAY))
    fields = dict(
        seed=draw(st.integers(0, 2**32)),
        horizon=horizon,
        population=draw(st.integers(0, 60)),
        annual_new_user_fraction=draw(st.sampled_from([0.0, 0.05, 3.0, 80.0])),
        annual_revocation_fraction=draw(st.sampled_from([0.0, 0.1, 1.0, 25.0])),
        cert_lifetime=draw(st.one_of(st.just(365 * DAY), st.integers(1, 2 * horizon))),
        n_clients=draw(st.integers(0, 5)),
    )
    if draw(st.booleans()):
        # From gaps at which clients share instants to gaps past the horizon.
        gap = draw(st.integers(max(1, horizon // 300), 2 * horizon))
        fields.update(validation_pattern="fixed_gap", validation_gap=gap)
    else:
        rate = draw(st.one_of(st.just(0.0), st.floats(0.01, 300 * DAY / horizon)))
        fields.update(validation_rate=rate)
    return config(**fields)


class TestOracle:
    @settings(max_examples=300, deadline=None)
    @given(configs())
    @example(config(population=0))
    @example(config(annual_new_user_fraction=40.0))
    @example(config(cert_lifetime=DAY, annual_new_user_fraction=20.0))
    @example(config(annual_revocation_fraction=0.0))
    @example(config(annual_revocation_fraction=30.0))
    @example(config(cert_lifetime=1, annual_revocation_fraction=1e9))  # exposure 1: no draw
    @example(config(n_clients=0))
    @example(config(validation_rate=0.0))
    @example(config(horizon=900, validation_pattern="fixed_gap", validation_gap=3, n_clients=5))
    @example(config(validation_pattern="fixed_gap", validation_gap=6 * DAY))
    def test_generator_equals_stdlib_reference(self, cfg):
        assert generate_workload(cfg) == reference_workload(cfg)

    def test_examples_reach_their_corners(self):
        grown = generate_workload(config(annual_new_user_fraction=40.0))
        assert max(serial for _, _, serial in grown.validations) > 40
        tied = generate_workload(
            config(horizon=900, validation_pattern="fixed_gap", validation_gap=3, n_clients=5)
        )
        times = [t for t, _, _ in tied.validations]
        assert len(set(times)) < len(times)
        sparse = generate_workload(config(validation_pattern="fixed_gap", validation_gap=6 * DAY))
        assert len(sparse.validations) <= 4


class TestSubStreams:
    @settings(max_examples=60, deadline=None)
    @given(configs(), st.integers(0, 5), st.sampled_from([0.0, 2.0, 50.0]), st.data())
    def test_client_fields_leave_issues_and_revocations(self, cfg, n_clients, rate, data):
        gap = data.draw(st.integers(max(1, cfg.horizon // 300), 2 * cfg.horizon))
        base = generate_workload(cfg)
        for changed in (
            dataclasses.replace(cfg, n_clients=n_clients),
            dataclasses.replace(cfg, validation_pattern="poisson", validation_rate=rate),
            dataclasses.replace(cfg, validation_pattern="fixed_gap", validation_gap=gap),
        ):
            other = generate_workload(changed)
            assert (other.issues, other.revocations) == (base.issues, base.revocations)

    @settings(max_examples=60, deadline=None)
    @given(configs(), st.sampled_from([0.0, 0.5, 4.0, 60.0]))
    def test_revocation_fraction_leaves_validations(self, cfg, fraction):
        changed = dataclasses.replace(cfg, annual_revocation_fraction=fraction)
        assert generate_workload(changed).validations == generate_workload(cfg).validations
