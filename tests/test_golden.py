"""Golden fence: pinned sha256 of reports, action logs and decision logs.

Each config is small and together they reach every scheme adapter and every
transport and cache path: over-issued CRLs fetched on a random window,
irregular extra deltas on both delta schemes, segmented CRLs three and
sixty-four ways, a CRT run whose pushes cross a depender overlay with a node
failure and a rejoin, OCSP in nonce mode (with one responder key and with a
key per hour) and with cached responses, and WCR at both degenerate corners
next to its always-fresh and plain-CRL baselines.

A refactor must leave every value unchanged. A deliberate change to what the
simulator reports updates the values in the same commit and says why.

Every horizon is shorter than cert_lifetime, so no certificate expires within
a run and the rule that drops expired certificates from a CRL never fires.
"""

import hashlib
import math
import os

import pytest

from revokebench import core
from revokebench import crs as crs_mod
from revokebench.core import DAY, HOUR
from revokebench.simkit import Scheme, SimConfig, run

from wcr_baselines import run_with_logs, wcr_equivalence_logs


def _base(seed: int) -> dict:
    return dict(
        seed=seed,
        horizon=12 * DAY,
        population=240,
        n_clients=8,
        validation_rate=4.0,
        annual_revocation_fraction=2.0,
    )


CONFIGS = {
    "full_crl": SimConfig(scheme=Scheme.FULL_CRL, **_base(1)),
    "full_crl_overissue_window": SimConfig(
        scheme=Scheme.FULL_CRL,
        overissue_factor=4,
        fetch_policy="uniform_random_window",
        fetch_window=6 * HOUR,
        **_base(2),
    ),
    "delta_crl_extra": SimConfig(
        scheme=Scheme.DELTA_CRL,
        delta_period=6 * HOUR,
        extra_delta_times=(5 * HOUR, 3 * DAY + 7 * HOUR),
        **_base(3),
    ),
    "sliding_delta_extra": SimConfig(
        scheme=Scheme.SLIDING_DELTA,
        delta_period=3 * HOUR,
        window_length=3 * DAY,
        extra_delta_times=(2 * DAY + HOUR,),
        **_base(4),
    ),
    "segmented_3": SimConfig(scheme=Scheme.SEGMENTED, segments=3, **_base(5)),
    "crs": SimConfig(scheme=Scheme.CRS, **_base(6)),
    "crt_overlay": SimConfig(
        scheme=Scheme.CRT,
        depender_nodes=12,
        depender_k=3,
        node_failures=((2 * DAY, 4),),
        node_rejoins=((5 * DAY, 4),),
        **_base(7),
    ),
    "wcr": SimConfig(
        scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=12 * HOUR, **_base(8)
    ),
    "ocsp_max_age": SimConfig(scheme=Scheme.OCSP, ocsp_max_age=6 * HOUR, **_base(9)),
    "naive_signed_status": SimConfig(scheme=Scheme.NAIVE_SIGNED_STATUS, **_base(10)),
    "wcr_zero_timers": SimConfig(
        scheme=Scheme.WCR, wcr_window_size=1, wcr_clean_duration=0, **_base(11)
    ),
    "wcr_infinite_window": SimConfig(
        scheme=Scheme.WCR, wcr_window_size=None, wcr_clean_duration=DAY, **_base(12)
    ),
    "ocsp_nonce": SimConfig(scheme=Scheme.OCSP, **_base(13)),
    "ocsp_hourly_keys": SimConfig(scheme=Scheme.OCSP, ocsp_key_lifetime=HOUR, **_base(14)),
    "segmented_64": SimConfig(scheme=Scheme.SEGMENTED, segments=64, **_base(15)),
}

# name -> (report.to_json(), action log, decision log)
GOLDEN = {
    "full_crl": (
        "0b1ec75514413056071df680038f9aa47ee381e773459d5debdd14ca147045e7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "bdb622cf15105e57b64d185bd6c8d8ae2a8eabfa558c2b3a352d8ab2663fca95",
    ),
    "full_crl_overissue_window": (
        "8c65c33b3c0c413aa71f9a78dc74f5161d11f3bc80831ab72b578a515932e7e3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "f4258a5ea7d53c5f7dc55ca808dcfca82c2394e968a343f728544165191d8e0e",
    ),
    "delta_crl_extra": (
        "5219ae27e3a5a3dc45f25373dcf5f8aa07460b594bdccd93d2577b4fd237ea20",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2f1514f4e44d82d22165b83d3da9bf4eadacdc42fec791b8f046a84e49a5e665",
    ),
    "sliding_delta_extra": (
        "76269604e2ab51d561e7e7e23876fd92a7691cdcc61096813211871516b6102b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "130cae5097cba72f5bb007eb69bff01c1b8656c4c2b916e54e78fba071d88bb6",
    ),
    "segmented_3": (
        "5cd182915140c50704a5cef40fe3efa60ba50879413515aea70a28ce1eb090d9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6ce1c8f7cfd10268567471a1e7e2102f36d7184b8aa5414466cf633537a3f009",
    ),
    "crs": (
        "3ac3561128d30ee77a85464da72b834f14c75e5d78520a2363ef574ed0732bb1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "8ccc63abbe616d73ecae8fe02013a5a9541568399cdb646a815b7d5792f513db",
    ),
    "crt_overlay": (
        "fd2ed1c8b69a22db9e83639acc391adf5dbb44e4e4c87a830ed2236d41772cda",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "7caa0c2bc3586960f55b83b82ff92afa6b393975550bf166744c1d1c29f3a413",
    ),
    "wcr": (
        "f0c876a2cf8e3d00b1fcc80734391850ef02a7146a7790500fe86bc413b6ca8e",
        "b14412ac5561bc06f5f6a9d0b59f86b4e1476e132ccd5034a2f40597b7ace223",
        "4bbedc736d6629e1e64198dc3782dbbaad84c3bc0bcca8d450cd66ef56a3821e",
    ),
    "ocsp_max_age": (
        "067d7fb3dab1d440e01844c0a449e86c44c1bc49e88d41f252d69f61a7fe0dab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "176eb8c6dce331fe00f1d5f43d2333d5b8d89d0f60b367fe7f88a613094df077",
    ),
    "naive_signed_status": (
        "92b0f2783e44cc740e6a6e82ca39bdab76c983374a51e81793cd2ab7573e19f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "947a03a8161dce2cdeda4144afc3afb6d98b50dec27ee84fcafc9fe7fe6bd821",
    ),
    "wcr_zero_timers": (
        "1d219d32836c27ac6dff8cde15ef9b104ecb03aa21714bbccdf34eed28198370",
        "1d6c38d672df1080d105b0a0bae7b5b82b00ab3b6a09d988e8031fe22afaf1db",
        "3c8c45b265ac35af1cfbf80bb2afce88a3adadbcdae800edaf162fc266dfe850",
    ),
    "wcr_infinite_window": (
        "da2704e282cd08d25afd16339fb76ff979071fa1cb47f58525ccf2998c830e24",
        "1821743bc2073608bf0401e4eff5fc1b033c4fc96504eaa698bbe8190a8ecd9f",
        "0249be2e6787568bf7ef6e0a56122c833407935eb21959a1b91eff3710fc7b60",
    ),
    "ocsp_nonce": (
        "96671674950f92db25b907a0b2f1b65af414f3a8c5b03ae890716ad45d1eabde",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "91d58715bec831e1a001ecc9d5f52126d37db429f4bf70b036d75d4ade0e54e5",
    ),
    "ocsp_hourly_keys": (
        "2bf29501b47bf5b3e8679eb29421b8c287591b324dd271f6de6736b96dea7555",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "968091b8a14f4461306b35be655b060523544ec3b6b64438d59f1b3da79b2834",
    ),
    "segmented_64": (
        "6bd018dd3a25d50453cd8f6410fb2a1db569f6c6730e45e6b0079e03dbe3bc7d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1c6e7a201983fa4d12fb80869cc230ce3782be02153adeca27f6db1c59371ad9",
    ),
}

# (WCR config, baseline) -> (action log, decision log)
GOLDEN_BASELINES = {
    ("wcr_zero_timers", "always_fresh"): (
        "1d6c38d672df1080d105b0a0bae7b5b82b00ab3b6a09d988e8031fe22afaf1db",
        "3c8c45b265ac35af1cfbf80bb2afce88a3adadbcdae800edaf162fc266dfe850",
    ),
    ("wcr_zero_timers", "plain_crl"): (
        "9375e1413d8d3ae78ec708e4fc99f8f01ae68f7254587ec05fb46cddfd75e529",
        "3c8c45b265ac35af1cfbf80bb2afce88a3adadbcdae800edaf162fc266dfe850",
    ),
    ("wcr_infinite_window", "always_fresh"): (
        "82afb547695f87806f2d4c6568f27da21b31dcc7f824b56178e7517b74957716",
        "0249be2e6787568bf7ef6e0a56122c833407935eb21959a1b91eff3710fc7b60",
    ),
    ("wcr_infinite_window", "plain_crl"): (
        "fd0e5723a3911fcd4e7039aa5e633b9bb532c999ad777fc4d562fc39b261680f",
        "0249be2e6787568bf7ef6e0a56122c833407935eb21959a1b91eff3710fc7b60",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_config_stays_inside_one_certificate_lifetime():
    for config in CONFIGS.values():
        assert config.horizon < config.cert_lifetime


def test_every_scheme_is_covered():
    assert {c.scheme for c in CONFIGS.values()} == set(Scheme)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_and_logs_match_golden(name):
    report, actions, decisions = run_with_logs(CONFIGS[name])
    got = (_sha(report.to_json()), _sha("\n".join(actions)), _sha("\n".join(decisions)))
    assert got == GOLDEN[name]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split walk forks a child")
@pytest.mark.parametrize("split", [True, False], ids=["split", "inline"])
@pytest.mark.parametrize("name", sorted(n for n, c in CONFIGS.items() if c.scheme is Scheme.CRS))
def test_crs_chain_walk_split_or_inline_matches_golden(name, split, monkeypatch):
    """Every CRS chain batch walked half in a forked child, or every batch
    walked in this process, whatever the CPUs: the report is the pinned one."""
    monkeypatch.setattr(core, "_SPLIT_APPLICATIONS", 0 if split else math.inf)
    monkeypatch.setattr(core, "_second_cpu", lambda: split)
    assert _sha(run(CONFIGS[name]).to_json()) == GOLDEN[name][0]


@pytest.mark.parametrize("name,baseline", sorted(GOLDEN_BASELINES))
def test_wcr_baseline_logs_match_golden(name, baseline):
    actions, decisions = wcr_equivalence_logs(CONFIGS[name])[baseline]
    assert (_sha("\n".join(actions)), _sha("\n".join(decisions))) == GOLDEN_BASELINES[
        (name, baseline)
    ]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_verification_per_arrival(name, monkeypatch):
    """A client verifies each document it receives once, on arrival, and
    never what it holds: one signature check per directory request, or for
    CRS one token check per request."""
    checked = []
    original = crs_mod.crs_verify

    def counted(*args):
        checked.append(args)
        return original(*args)

    monkeypatch.setattr(crs_mod, "crs_verify", counted)
    report = run(CONFIGS[name])
    requests = sum(report.requests_per_interval)
    if CONFIGS[name].scheme is Scheme.CRS:
        assert len(checked) == requests > 0
    else:
        assert report.signature_ops.get("client_verify", 0) == requests
