"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. Each criterion's simulator
runs are made once, in a module-scoped fixture, and the cross-cutting
criteria (byte conservation, no false revocations) quantify over every one
of them, whichever tests run and in whatever order.
"""

import math
import random
import time

import pytest

from revokebench.core import DAY, HOUR, KeyStore, OneWayFunction
from revokebench.crs import CrsAuthority, CrsStatus, crs_verify
from revokebench.crt import SIDE_LEFT, SIDE_RIGHT, crt_build, crt_prove, crt_verify, CrtVerdict
from revokebench.depender import build_graph, propagate, PropagationMessage, MessageKind
from revokebench.simkit import Scheme, SimConfig, compare, run

from wcr_baselines import wcr_equivalence_logs

MINUTES = 60


def ok(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_crs_year_of_daily_tokens():
    started = time.perf_counter()
    f = OneWayFunction(100)
    authority = CrsAuthority(f)
    rng = random.Random(365)
    [(anchor, _)] = authority.setup([1], 365, DAY, rng)
    [(revoked_anchor, _)] = authority.setup([2], 365, DAY, rng)
    authority.revoke(2)

    for i in range(1, 366):
        token = authority.issue_token(1, i)
        assert crs_verify(token, anchor, i, f) is CrsStatus.VALID_AT_PERIOD, i
        # the same token replayed at any later claimed period must fail
        later = i + 1 if i < 365 else 365 + 1
        assert crs_verify(token, anchor, later, f) is not CrsStatus.VALID_AT_PERIOD, i

    n0_token = authority.issue_token(2, 17)
    assert crs_verify(n0_token, revoked_anchor, 17, f) is CrsStatus.REVOKED

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    ok(1, f"365 daily tokens verify, replays fail, revocation token verifies ({elapsed:.2f}s)")


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_crt_eight_leaf_sibling_pin():
    ks = KeyStore()
    ks.generate("ca", random.Random(2))
    tree = crt_build([5, 10, 15, 20, 25, 30, 35], 0, DAY, ks, "ca")
    assert len(tree.leaves) == 8
    proof = crt_prove(tree, 14)
    assert proof.leaf_index == 2
    expected = (
        (tree.levels[0][3], SIDE_RIGHT),  # N_{0,3}
        (tree.levels[1][0], SIDE_LEFT),   # N_{1,0}
        (tree.levels[2][1], SIDE_RIGHT),  # N_{2,1}
    )
    assert proof.siblings == expected
    assert crt_verify(proof, 14, ks, "ca", 1) is CrtVerdict.VALID
    ok(2, "query answered by leaf L2 carries exactly {N_0,3; N_1,0; N_2,1}")


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_crt_proof_size_and_classification():
    started = time.perf_counter()
    ks = KeyStore()
    ks.generate("ca", random.Random(3))
    rng = random.Random(33)
    space = 10_000
    for n in (2**6, 2**8, 2**10, 2**12):
        revoked = set(rng.sample(range(1, space), n))
        tree = crt_build(revoked, 0, DAY, ks, "ca")
        bound = math.ceil(math.log2(n + 1))
        for serial in range(1, space + 1):
            proof = crt_prove(tree, serial)
            assert len(proof.siblings) <= bound, (n, serial)
            verdict = crt_verify(proof, serial, ks, "ca", 1)
            expected = CrtVerdict.REVOKED if serial in revoked else CrtVerdict.VALID
            assert verdict is expected, (n, serial)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    ok(3, f"proof sizes bounded and 4x10^4 classifications match membership ({elapsed:.2f}s)")


# -- 4 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def criterion_4_runs():
    runs = []
    for seed in range(20):
        config = SimConfig(
            seed=seed,
            horizon=90 * DAY,
            population=1500,
            scheme=Scheme.SLIDING_DELTA,
            n_clients=25,
            validation_pattern="fixed_gap",
            validation_gap=71 * HOUR,
            base_period=DAY,
            delta_period=15 * MINUTES,
            window_length=72 * HOUR,
        )
        runs.append((config, run(config)))
    return runs


def test_criterion_4_sliding_window_never_refetches_base(criterion_4_runs):
    for config, report in criterion_4_runs:
        assert report.base_crl_fetches == config.n_clients, (config.seed, report.base_crl_fetches)
        assert report.validations > 0
    ok(4, "20 seeds x 90 days: every client downloaded exactly one base CRL")


# -- 5 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def criterion_5_runs():
    runs = []
    for seed in range(10):
        def config(factor):
            return SimConfig(
                seed=seed,
                horizon=37 * DAY,
                population=600,
                scheme=Scheme.FULL_CRL,
                n_clients=400,
                validation_rate=6.0,
                base_period=DAY,
                overissue_factor=factor,
                stat_warmup=7 * DAY,
            )

        (_, single), (_, double) = compare([config(1), config(2)])
        runs.append((seed, single, double))
    return runs


def test_criterion_5_over_issuing_flattens_peaks(criterion_5_runs):
    for seed, single, double in criterion_5_runs:
        assert double.peak_request_rate < single.peak_request_rate, seed
        spread = abs(double.mean_request_rate - single.mean_request_rate)
        assert spread <= 0.05 * single.mean_request_rate, (seed, spread)
        assert double.publications["full_crl"] == 2 * single.publications["full_crl"], seed
    ok(5, "10 seeds: factor 2 lowers the peak, means within 5%, publications double")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_wcr_degenerate_equivalences():
    for seed in (0, 1, 2):
        base = dict(
            seed=seed,
            horizon=20 * DAY,
            population=300,
            n_clients=12,
            validation_rate=3.0,
            base_period=DAY,
        )
        # (a) both timers zero: window size 1 makes the window duration zero
        zero_timers = SimConfig(
            scheme=Scheme.WCR, wcr_window_size=1, wcr_clean_duration=0, **base
        )
        logs = wcr_equivalence_logs(zero_timers)
        wcr_actions, _ = logs["wcr"]
        fresh_actions, _ = logs["always_fresh"]
        assert "\n".join(wcr_actions) == "\n".join(fresh_actions), seed

        # (b) infinite window, clean timer = CRL period
        infinite_window = SimConfig(
            scheme=Scheme.WCR, wcr_window_size=None, wcr_clean_duration=DAY, **base
        )
        logs = wcr_equivalence_logs(infinite_window)
        _, wcr_decisions = logs["wcr"]
        _, crl_decisions = logs["plain_crl"]
        assert "\n".join(wcr_decisions) == "\n".join(crl_decisions), seed
    ok(6, "timers-0 matches always-fresh actions; infinite window matches plain-CRL decisions")


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_depender_k_resilience_is_tight():
    started = time.perf_counter()
    graph = build_graph(50, 3, random.Random(7))
    non_root = [n for n in graph.nodes if n != 0]

    def deliver(failed):
        message = PropagationMessage(sequence=graph.next_sequence, kind=MessageKind.OTHER)
        return propagate(graph, message, failed)

    for a in non_root:  # all 1-subsets
        report = deliver({a})
        assert not report.missed({a}), a
    for i, a in enumerate(non_root):  # all 2-subsets
        for b in non_root[i + 1 :]:
            report = deliver({a, b})
            assert not report.missed({a, b}), (a, b)

    victim = next(n for n in non_root if len(graph.nodes[n].parents) == 3)
    cut = set(graph.nodes[victim].parents)
    assert len(cut) == 3
    report = deliver(cut)
    assert not report.received[victim], "size-3 cut should block the victim"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    ok(7, f"all 1225 sub-k failure sets deliver; a 3-cut blocks its node ({elapsed:.2f}s)")


# -- 8 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def criterion_8_runs():
    base = dict(
        seed=88,
        horizon=260 * DAY,
        population=10_000,
        n_clients=40,
        validation_rate=2.0,
        base_period=DAY,
        late_revoked_threshold=500,
    )
    configs = [
        SimConfig(scheme=Scheme.CRS, **base),
        SimConfig(scheme=Scheme.CRT, **base),
        SimConfig(
            scheme=Scheme.SLIDING_DELTA, delta_period=3 * HOUR, window_length=21 * DAY, **base
        ),
        SimConfig(scheme=Scheme.FULL_CRL, **base),
    ]
    results = {r.scheme: r for _, r in compare(configs)}

    sig_base = dict(base)
    sig_base["horizon"] = 60 * DAY
    pair = compare(
        [
            SimConfig(scheme=Scheme.CRS, **sig_base),
            SimConfig(scheme=Scheme.NAIVE_SIGNED_STATUS, **sig_base),
        ]
    )
    return results, pair[0][1], pair[1][1]


def test_criterion_8_scheme_cost_ordering(criterion_8_runs):
    results, crs_report, naive_report = criterion_8_runs
    for report in results.values():
        assert report.revocations_total > 500, report.scheme
        assert report.validations_late > 0, report.scheme
    crs_b = results["crs"].per_validation_d2c_bytes_late
    crt_b = results["crt"].per_validation_d2c_bytes_late
    sld_b = results["sliding_delta"].per_validation_d2c_bytes_late
    ful_b = results["full_crl"].per_validation_d2c_bytes_late
    assert crs_b < crt_b < sld_b < ful_b, (crs_b, crt_b, sld_b, ful_b)

    crs_sigs = crs_report.signature_ops.get("ca_sign", 0)
    naive_sigs = naive_report.signature_ops.get("ca_sign", 0)
    ratio = naive_sigs / max(1, crs_sigs)
    assert ratio >= 100, (naive_sigs, crs_sigs)
    ok(
        8,
        "per-validation bytes (revoked>500): "
        f"crs {crs_b:.0f} < crt {crt_b:.0f} < sliding {sld_b:.0f} < full {ful_b:.0f}; "
        f"CA signing ratio naive/crs = {naive_sigs}/{crs_sigs} (>=100)",
    )


# -- 9 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def criterion_9_runs():
    config = SimConfig(
        seed=99,
        horizon=30 * DAY,
        population=800,
        scheme=Scheme.SLIDING_DELTA,
        n_clients=25,
        validation_rate=3.0,
        delta_period=HOUR,
        window_length=3 * DAY,
    )
    return run(config), run(config)


@pytest.fixture(scope="module")
def tracked(criterion_4_runs, criterion_5_runs, criterion_8_runs, criterion_9_runs):
    """Every simulator report of this module, made once per module."""
    reports = [report for _, report in criterion_4_runs]
    for _, single, double in criterion_5_runs:
        reports += [single, double]
    results, crs_report, naive_report = criterion_8_runs
    reports += [*results.values(), crs_report, naive_report]
    reports += criterion_9_runs
    return reports


def test_criterion_9_determinism_and_conservation(criterion_9_runs, tracked):
    first, second = criterion_9_runs
    assert first.to_json().encode() == second.to_json().encode()
    for report in tracked:
        assert report.conservation_delta() == 0, report.scheme
        assert report.bytes_sent == report.bytes_received, report.scheme
    ok(9, f"byte-identical reports; {len(tracked)} tracked runs reconcile to zero")


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_no_false_revocations_anywhere(tracked):
    assert tracked, "the criteria must have produced simulator runs"
    total_false_valid = 0
    for report in tracked:
        assert report.false_revocation == 0, report.scheme
        assert sum(report.staleness_hist.values()) == report.false_valid, report.scheme
        total_false_valid += report.false_valid
    # periodic schemes at 10k population necessarily show some missed
    # revocations between updates, so the histogram machinery is exercised
    assert total_false_valid > 0
    ok(
        10,
        f"zero false revocations across {len(tracked)} runs; "
        f"{total_false_valid} false-valids all recorded with their ages",
    )
