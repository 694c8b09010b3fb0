"""Simulator: determinism, conservation, workload pairing, fetch policies,
and the closed-form byte accounting the comparisons rest on."""

import dataclasses
import gc
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revokebench import crt as crt_mod
from revokebench.cli import _tradeoff_preset
from revokebench.core import (
    DAY,
    HOUR,
    Certificate,
    KeyStore,
    Ledger,
    OneWayFunction,
    RevocationRecord,
    Signature,
    make_certificate,
)
from revokebench.crl import CrlIssuer, CrlKind, IssuanceSchedule, check_status
from revokebench.crs import CrsToken, CrsTokenKind, token_wire_size
from revokebench.crt import CrtLeaf, CrtVerdict, crt_build, crt_prove, crt_verify
from revokebench.responder import OcspStatus, SignedStatusStatement, publish_statements
from revokebench import simkit
from revokebench.simkit import engine
from revokebench.simkit import (
    ConfigError,
    Scheme,
    SimConfig,
    compare,
    comparison_csv,
    generate_workload,
    run,
    schedule_staggered_fetch,
    Simulation,
)
from revokebench.simkit.metrics import CHANNELS, Metrics
from revokebench.simkit.schemes import (
    CrsAdapter,
    CrtAdapter,
    DeltaCrlAdapter,
    FullCrlAdapter,
    NaiveStatusAdapter,
    SchemeAdapter,
    SegmentedAdapter,
    SlidingDeltaAdapter,
    WcrAdapter,
    _SlidingClient,
)
from revokebench.simkit.workload import Workload, substream

from test_core import ORACLE_SECRET, eager_certificates
from test_golden import CONFIGS as GOLDEN
from test_responder import STATEMENT_SECRET, eager_statements
from wcr_baselines import AlwaysFreshAdapter, PlainCrlBaselineAdapter, run_with_logs


def cfg(**kwargs):
    kwargs.setdefault("seed", 11)
    kwargs.setdefault("horizon", 10 * DAY)
    kwargs.setdefault("population", 300)
    kwargs.setdefault("scheme", Scheme.FULL_CRL)
    kwargs.setdefault("n_clients", 15)
    kwargs.setdefault("validation_rate", 3.0)
    return SimConfig(**kwargs)


class TestDeterminism:
    def test_identical_config_identical_report(self):
        config = cfg(scheme=Scheme.SLIDING_DELTA, delta_period=HOUR, window_length=2 * DAY)
        assert run(config).to_json() == run(config).to_json()

    def test_seed_changes_output(self):
        a = run(cfg(seed=1)).to_json()
        b = run(cfg(seed=2)).to_json()
        assert a != b

    def test_workload_is_scheme_independent(self):
        a = generate_workload(cfg(scheme=Scheme.FULL_CRL))
        b = generate_workload(cfg(scheme=Scheme.CRT))
        assert a == b


class TestConservationAndTruth:
    @pytest.mark.parametrize(
        "scheme,extra",
        [
            (Scheme.FULL_CRL, {}),
            (Scheme.DELTA_CRL, {"delta_period": 6 * HOUR}),
            (Scheme.SLIDING_DELTA, {"delta_period": HOUR, "window_length": 2 * DAY}),
            (Scheme.SEGMENTED, {"segments": 4}),
            (Scheme.CRS, {"crs_lifetime_periods": 30}),
            (Scheme.CRT, {}),
            (Scheme.WCR, {"wcr_window_size": 3, "wcr_clean_duration": 6 * HOUR}),
            (Scheme.OCSP, {}),
            (Scheme.NAIVE_SIGNED_STATUS, {}),
        ],
    )
    def test_every_scheme_reconciles(self, scheme, extra):
        report = run(cfg(scheme=scheme, **extra))
        assert report.conservation_delta() == 0
        assert report.false_revocation == 0
        assert sum(report.staleness_hist.values()) == report.false_valid
        assert report.validations > 0

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_every_byte_is_booked_as_a_message(self, name, monkeypatch):
        """Bytes move between actors only through Metrics.note_message and
        its fused form for directory fetches, Metrics.note_fetch: what those
        two book per channel is all the report holds, on both sides."""
        booked = Counter()
        note_message, note_fetch = Metrics.note_message, Metrics.note_fetch

        def message(metrics, channel, nbytes):
            booked[channel] += nbytes
            note_message(metrics, channel, nbytes)

        def fetch(metrics, now, request, reply):
            booked["client_to_directory"] += request
            booked["directory_to_client"] += reply
            note_fetch(metrics, now, request, reply)

        monkeypatch.setattr(Metrics, "note_message", message)
        monkeypatch.setattr(Metrics, "note_fetch", fetch)
        report = run(GOLDEN[name])
        assert report.bytes_sent == {ch: booked[ch] for ch in CHANNELS} == report.bytes_received
        assert sum(booked.values()) > 0

    @pytest.mark.parametrize("scheme", [Scheme.FULL_CRL, Scheme.CRS])
    def test_every_issued_certificate_verifies(self, scheme, monkeypatch):
        """Issuance signs exactly the bytes signed_payload() encodes, with and
        without a CRS anchor in the certificate, one batch per issue instant:
        the t = 0 population and each later new user."""
        batches = []
        issue = Ledger.issue

        def counting(ledger, serials, *args, **kwargs):
            batches.append(list(serials))
            return issue(ledger, serials, *args, **kwargs)

        monkeypatch.setattr(Ledger, "issue", counting)
        sim = Simulation(cfg(scheme=scheme, crs_lifetime_periods=30, annual_new_user_fraction=2.0))
        report = sim.run()
        issues = sim.workload.issues
        certs = list(sim.ledger.certificates.values())
        assert [c.serial for c in certs] == [serial for _, serial in issues]
        assert len(certs) > 300 and len({t for t, _ in issues}) > 2
        assert batches == [[s for u, s in issues if u == t] for t in sorted({t for t, _ in issues})]
        assert report.signature_ops["ca_issue"] == len(certs)
        assert {c.crs_anchor is not None for c in certs} == {scheme is Scheme.CRS}
        assert all(c.verify(sim.keystore, sim.ca_key) for c in certs)
        for c in certs:
            rebuilt = make_certificate(
                c.serial, c.not_before, c.not_after, sim.keystore, sim.ca_key, c.crs_anchor
            )
            assert rebuilt == c

    def test_fresh_fetch_sizes_each_certificate_once(self, monkeypatch):
        """A certificate's size is fixed at issuance, so a run encodes each
        fresh-fetched certificate once, however often clients fetch it."""
        fetched, sized = Counter(), Counter()
        fresh_fetch, wire_size = SchemeAdapter.fresh_fetch, Certificate.wire_size.fget

        def counting_fetch(adapter, serial, now):
            fetched[serial] += 1
            return fresh_fetch(adapter, serial, now)

        def counting_size(cert):
            sized[cert.serial] += 1
            return wire_size(cert)

        monkeypatch.setattr(SchemeAdapter, "fresh_fetch", counting_fetch)
        monkeypatch.setattr(Certificate, "wire_size", property(counting_size))
        run(cfg(scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=6 * HOUR))
        assert sum(fetched.values()) > len(fetched) > 0
        assert sized == Counter(fetched.keys())

    def test_a_serial_issued_twice_raises(self):
        sim = Simulation(cfg())
        sim.workload = dataclasses.replace(sim.workload, issues=((0, 1), (0, 2), (0, 1)))
        with pytest.raises(ValueError, match="already issued"):
            sim.run()

    def test_population_zero_is_all_quiet(self):
        report = run(cfg(population=0))
        assert report.validations == 0
        assert report.peak_request_rate == 0
        assert all(v == 0 for v in report.bytes_sent.values())


def live_certificates() -> set[int]:
    return {id(o) for o in gc.get_objects() if isinstance(o, Certificate)}


class TestIssuanceMemory:
    """The ledger keeps each issuance batch as one record and builds a
    Certificate only when one is read, so nothing a run keeps is one."""

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(cfg(), id="full_crl"),
            pytest.param(
                cfg(scheme=Scheme.WCR, wcr_window_size=3, wcr_clean_duration=6 * HOUR), id="wcr"
            ),
        ],
    )
    def test_a_run_leaves_no_certificate_alive(self, config):
        # Certificate is a tuple subclass, which the collector never
        # untracks, so gc.get_objects() lists every one alive
        gc.collect()
        before = live_certificates()
        sim = Simulation(config)
        report = sim.run()
        gc.collect()
        assert live_certificates() - before == set()
        assert len(sim.ledger.certificates) == report.signature_ops["ca_issue"] >= 300
        if config.scheme is Scheme.WCR:  # the run did size fresh certificates
            assert sim.adapter.fresh_bytes

    def test_a_batch_takes_at_most_half_the_memory_of_its_records(self):
        n = 3_000
        serials = list(range(10_000, 10_000 + n))
        anchors = [None] * n
        keystore = KeyStore()
        keystore.register("ca", ORACLE_SECRET)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ledger = Ledger()
            ledger.issue(serials, anchors, 0, 30 * DAY, keystore, "ca")
            batched = tracemalloc.get_traced_memory()[0] - start
            start = tracemalloc.get_traced_memory()[0]
            # what the ledger kept before batches: serial -> built record
            records = dict(
                zip(serials, eager_certificates(serials, anchors, 0, 30 * DAY, ORACLE_SECRET, "ca"))
            )
            eager = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert list(ledger.certificates.values()) == list(records.values())
        assert batched / n <= eager / n / 2, (batched / n, eager / n)

    def test_issuance_keeps_no_per_certificate_string(self):
        """A 30,000-certificate batch keeps, its inputs included, the serial,
        the anchor slots, the MAC and the index entry of each certificate:
        under 200 bytes, where a subject string per certificate took it to
        about 250."""
        n = 30_000
        keystore = KeyStore()
        keystore.register("ca", ORACLE_SECRET)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            serials = list(range(10_000, 10_000 + n))
            anchors = [None] * n
            ledger = Ledger()
            ledger.issue(serials, anchors, 0, 30 * DAY, keystore, "ca")
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert len(ledger.certificates) == n
        assert kept / n < 200, kept / n


class TestStatementMemory:
    """A naive period is kept as one signed batch, and a statement is built
    only when a client reads it, so nothing a run keeps is one."""

    def test_a_naive_run_leaves_no_statement_alive(self):
        # SignedStatusStatement is a tuple subclass, which the collector
        # never untracks, so gc.get_objects() lists every one alive
        gc.collect()
        before = live_statements()
        sim = Simulation(cfg(scheme=Scheme.NAIVE_SIGNED_STATUS))
        report = sim.run()
        gc.collect()
        assert live_statements() - before == set()
        assert report.publications["status_statements"] >= 9 * 300
        assert report.signature_ops["client_verify"] > 0  # clients did read statements

    def test_a_batch_takes_at_most_half_the_memory_of_its_statements(self):
        """Built as a list of statements plus a serial -> statement dict, as
        a period was kept before batches, these 3,000 statements took
        801,264 bytes under tracemalloc, 267 a statement (Python 3.11.7,
        x86-64); the batch may take half of that."""
        n = 3_000
        serials = list(range(10_000, 10_000 + n))
        keystore = KeyStore()
        keystore.register("ca", STATEMENT_SECRET)
        ledger = Ledger()
        ledger.issue(serials, [None] * n, 0, 30 * DAY, keystore, "ca")
        for serial in serials[::10]:
            ledger.revoke(serial, HOUR)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            batch = publish_statements(ledger, 3, DAY, keystore, "ca")
            kept = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        assert list(batch.values()) == eager_statements(ledger, 3, DAY, STATEMENT_SECRET, "ca")
        assert kept / n <= 267 / 2, kept / n


def live_statements() -> set[int]:
    return {id(o) for o in gc.get_objects() if isinstance(o, SignedStatusStatement)}


class OrderRecording(FullCrlAdapter):
    """Logs every engine hook the run calls, with its time, in call order."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.log = []

    def anchors_for(self, serials, now):
        self.log.extend((now, "issue_certificate", serial) for serial in serials)
        return super().anchors_for(serials, now)

    def on_revoke(self, serial, now):
        self.log.append((now, "revoke", serial))
        super().on_revoke(serial, now)

    def on_publish(self, now, tag):
        self.log.append((now, "publish", tag))
        super().on_publish(now, tag)

    def validate(self, client, serial, now):
        self.log.append((now, "validate", (client, serial)))
        return super().validate(client, serial, now)

    def on_fetch(self, client, now):
        self.log.append((now, "fetch", client))
        super().on_fetch(client, now)


def expected_order(sim):
    """Every hook call of sim's run, sorted by (time, kind order, insertion order)."""
    config, w = sim.config, sim.workload
    publishes = sim.adapter.publish_events()
    fetches = schedule_staggered_fetch(
        range(config.n_clients),
        config.fetch_policy,
        [t for t, _ in publishes],
        config.fetch_window,
        config.horizon,
        substream(config.seed, "fetch"),
    )
    calls = (
        [(t, "issue_certificate", serial) for t, serial in w.issues]
        + [(t, "revoke", serial) for t, serial in w.revocations]
        + [(t, "publish", tag) for t, tag in publishes]
        + [(t, "validate", (client, serial)) for t, client, serial in w.validations]
        + [(t, "fetch", client) for t, client in fetches]
    )
    order = sorted(range(len(calls)), key=lambda i: (calls[i][0], engine.EVENT_ORDER[calls[i][1]], i))
    return [calls[i] for i in order]


TIED = Workload(
    issues=((0, 1), (0, 2), (0, 3), (DAY, 4)),
    revocations=((HOUR, 3), (DAY, 2)),
    validations=((HOUR, 1, 3), (DAY, 0, 1), (DAY, 1, 2), (DAY, 0, 4), (DAY + HOUR, 1, 2)),
)


class TestEventOrder:
    """The run calls the adapter in (time, kind order, insertion order),
    though it walks the validations rather than queueing them."""

    def test_same_instant_ties_run_in_kind_order(self):
        config = cfg(
            horizon=3 * DAY,
            population=3,
            n_clients=2,
            fetch_policy="uniform_random_window",
            fetch_window=1,  # each fetch lands on its publication's instant
        )
        sim = Simulation(config, adapter_factory=OrderRecording, workload=TIED)
        report = sim.run()
        log = sim.adapter.log
        assert log == expected_order(sim)
        # issue, revoke, publish, three validations and two fetches share t = DAY
        assert [kind for t, kind, _ in log if t == DAY] == [
            "issue_certificate", "revoke", "publish", "validate", "validate", "validate",
            "fetch", "fetch",
        ]
        # the last publication and its fetches come after the last validation
        assert log[-3:] == [(2 * DAY, "publish", "base"), (2 * DAY, "fetch", 0), (2 * DAY, "fetch", 1)]
        assert report.publications["full_crl"] == 3
        assert report.validations == len(TIED.validations)

    def test_generated_workload_runs_in_order(self):
        config = cfg(fetch_policy="uniform_random_window", fetch_window=2 * HOUR)
        sim = Simulation(config, adapter_factory=OrderRecording)
        sim.run()
        log = sim.adapter.log
        assert log == expected_order(sim)
        assert {kind for _, kind, _ in log} == set(engine.EVENT_ORDER) - {"node_fail", "node_rejoin"}

    def test_no_clients_runs_every_publication(self):
        sim = Simulation(cfg(n_clients=0), adapter_factory=OrderRecording)
        report = sim.run()
        publishes = sim.adapter.publish_events()
        assert [(t, tag) for t, kind, tag in sim.adapter.log if kind == "publish"] == publishes
        assert report.publications["full_crl"] == len(publishes) == 10
        assert report.validations == 0

    @pytest.mark.parametrize("stream", ["issues", "revocations", "validations"])
    def test_an_unsorted_given_workload_raises(self, stream):
        unsorted = dataclasses.replace(TIED, **{stream: tuple(reversed(getattr(TIED, stream)))})
        with pytest.raises(ConfigError, match=f"workload.{stream} is not time-sorted"):
            Simulation(cfg(population=3, n_clients=2), workload=unsorted)


class TestComparisons:
    def test_compare_requires_paired_workloads(self):
        with pytest.raises(ConfigError):
            compare([cfg(), cfg(population=400)])

    def test_compare_generates_the_shared_workload_once(self, monkeypatch):
        configs = [
            cfg(annual_new_user_fraction=2.0),
            cfg(scheme=Scheme.CRS, crs_lifetime_periods=30, annual_new_user_fraction=2.0),
            cfg(scheme=Scheme.OCSP, annual_new_user_fraction=2.0),
        ]
        separate = [run(c).to_json() for c in configs]
        generated = []

        def counting(config):
            generated.append(config)
            return generate_workload(config)

        monkeypatch.setattr(simkit, "generate_workload", counting)
        monkeypatch.setattr(engine, "generate_workload", counting)
        results = compare(configs)
        assert len(generated) == 1
        assert [c for c, _ in results] == configs
        assert [report.to_json() for _, report in results] == separate

    def test_compare_emits_one_row_per_scheme(self):
        results = compare([cfg(), cfg(scheme=Scheme.CRT)])
        text = comparison_csv(results)
        lines = text.strip().splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("full_crl")
        assert lines[2].startswith("crt")

    def test_crs_directory_bytes_are_closed_form(self):
        """Oracle: every CRS fetch moves exactly one token of fixed wire size,
        so directory->client bytes = requests * token size, independent of n."""
        report = run(cfg(scheme=Scheme.CRS, crs_lifetime_periods=30))
        token = token_wire_size(OneWayFunction(100))
        requests = sum(report.requests_per_interval)
        assert report.bytes_sent["directory_to_client"] == requests * token
        assert report.per_validation_d2c_bytes <= token

    def test_crs_update_bytes_linear_in_population(self):
        small = run(cfg(scheme=Scheme.CRS, crs_lifetime_periods=30, population=200))
        large = run(cfg(scheme=Scheme.CRS, crs_lifetime_periods=30, population=800))
        ratio = large.bytes_sent["ca_to_directory"] / small.bytes_sent["ca_to_directory"]
        assert 3.0 < ratio < 5.0  # ~4x population -> ~4x update bytes
        assert abs(large.per_validation_d2c_bytes - small.per_validation_d2c_bytes) < 2.0

    def test_crt_first_publication_bytes_are_the_encodings(self):
        """Oracle: the first CRT push carries every leaf, every internal node
        and the signed root as SignedRoot.to_bytes encodes it."""
        sim = Simulation(cfg(scheme=Scheme.CRT))
        for serial in range(1, 9):
            sim.ledger.issue([serial], [None], 0, 30 * DAY, sim.keystore, sim.ca_key)
        for serial in (2, 3, 7):
            sim.ledger.revoke(serial, 0)
        sim.adapter.on_publish(HOUR, "base")
        tree = sim.adapter.tree
        nodes = sum(len(level) for level in tree.levels[1:])
        expected = 16 * len(tree.leaves) + 32 * nodes + len(tree.signed_root.to_bytes())
        assert sim.metrics.bytes_sent["ca_to_directory"] == expected

    def test_proof_bytes_log_vs_list_bytes_linear(self, keystore, rng):
        """Oracle: closed-form wire accounting. Tree proofs grow ~log in the
        revoked count while full lists grow linearly."""
        proof_sizes = {}
        list_sizes = {}
        issuer = CrlIssuer(keystore, "ca", IssuanceSchedule(base_period=DAY))
        for n in (2**6, 2**8, 2**10, 2**12):
            revoked = sorted(rng.sample(range(1, 60_000), n))
            tree = crt_build(revoked, 0, DAY, keystore, "ca")
            probes = rng.sample(range(1, 60_000), 25)
            proof_sizes[n] = sum(crt_prove(tree, s).wire_size for s in probes) / 25
            records = [RevocationRecord(serial=s, revoked_at=0) for s in revoked]
            list_sizes[n] = issuer.issue_full(records, 0).wire_size
        for n in (2**8, 2**10, 2**12):
            assert proof_sizes[n] / proof_sizes[n // 4] < 1.5  # logarithmic-ish
            assert list_sizes[n] / list_sizes[n // 4] > 3.0  # linear-ish


class TestFetchPolicies:
    def _uniform_cfg(self, seed):
        # Over-issued documents (2 d lifetime, daily release) overlap, so a
        # prefetching client is never stale between scheduled fetches.
        return cfg(
            seed=seed,
            horizon=8 * DAY,
            population=400,
            n_clients=400,
            validation_rate=6.0,
            base_period=2 * DAY,
            overissue_factor=2,
            fetch_policy="uniform_random_window",
            fetch_window=16 * HOUR,
            stat_warmup=2 * DAY,
        )

    def _burst_cfg(self, seed):
        return cfg(
            seed=seed,
            horizon=8 * DAY,
            population=400,
            n_clients=400,
            validation_rate=6.0,
            base_period=DAY,
            stat_warmup=2 * DAY,
        )

    def test_uniform_window_bounds_peak_over_20_seeds(self):
        """Oracle: order statistics of uniform arrivals keep the peak within
        3x the mean; synchronized lazy expiry does not."""
        for seed in range(20):
            uniform = run(self._uniform_cfg(seed))
            burst = run(self._burst_cfg(seed))
            assert uniform.peak_request_rate <= 3 * uniform.mean_request_rate, seed
            assert burst.peak_request_rate > uniform.peak_request_rate, seed

    def test_synchronized_expiry_bursts(self):
        report = run(self._burst_cfg(3))
        assert report.peak_request_rate > 3 * report.mean_request_rate

    def test_window_zero_degenerates_to_at_expiry(self):
        inserts = schedule_staggered_fetch(
            range(10), "uniform_random_window", [0, 100], 0, 1000, random.Random(1)
        )
        assert inserts == []
        assert schedule_staggered_fetch(
            range(10), "at_expiry", [0, 100], 500, 1000, random.Random(1)
        ) == []

    def test_same_seed_same_policy_identical(self):
        a = run(self._uniform_cfg(5)).to_json()
        b = run(self._uniform_cfg(5)).to_json()
        assert a == b


class _FullMergeClient:
    """Reference for _SlidingClient: the same rules, but every accepted
    document is merged whole."""

    def __init__(self) -> None:
        self.base_seen = False
        self.covered_until = 0
        self.current_until = 0
        self.known: dict[int, int] = {}

    def accept(self, doc) -> bool:
        if doc.kind is CrlKind.FULL:
            self.known.update(doc.entries)
            self.base_seen = True
            self.covered_until = max(self.covered_until, doc.this_update)
            self.current_until = max(self.current_until, doc.next_update)
            return True
        if not self.base_seen:
            return False
        start = doc.window_start if doc.window_start is not None else doc.this_update
        if start > self.covered_until:
            return False
        self.known.update(doc.entries)
        if doc.this_update >= self.covered_until:
            self.covered_until = doc.this_update
            self.current_until = max(self.current_until, doc.next_update)
        return True


class TestSlidingClientEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_matches_check_status_over_document_cache(self, seed):
        """Dual route: the simulator's accumulated-knowledge client holds
        exactly what a client merging every document whole holds, after
        every accept, and agrees with crl.check_status over the full set of
        fetched documents on every certificate not yet expired. Certificates
        expire, and each document gets only the records not expired at its
        time, as Ledger.revoked_non_expired gives them."""
        rng = random.Random(seed)
        keystore = KeyStore()
        keystore.generate("ca", rng)
        issuer = CrlIssuer(
            keystore,
            "ca",
            IssuanceSchedule(base_period=1000, delta_period=200, window_length=1200),
        )
        records = [
            RevocationRecord(serial=s, revoked_at=rng.randrange(1, 20_000))
            for s in rng.sample(range(1, 300), 120)
        ]
        expiry = {r.serial: r.revoked_at + rng.randrange(1, 4000) for r in records}
        expiry.update((s, 10**9) for s in range(1, 300) if s not in expiry)

        def upto(t):
            return [r for r in records if r.revoked_at <= t < expiry[r.serial]]

        client, reference = _SlidingClient(), _FullMergeClient()
        docs = []
        pending = []
        t = 0
        for step in range(60):
            t += rng.randrange(100, 1500)
            tick = (t // 200) * 200
            if rng.random() < 0.25 or not docs:
                doc = issuer.issue_full(upto((tick // 1000) * 1000), (tick // 1000) * 1000)
            else:
                doc = issuer.issue_sliding_delta(upto(tick), tick)
            docs.append(doc)
            pending.append(doc)
            # ingest to a fixed point, the way check_status's replay is
            # order-independent: a doc rejected for a gap may chain once a
            # later base lands
            progress = True
            while progress:
                progress = False
                for queued in list(pending):
                    accepted = client.accept(queued)
                    assert reference.accept(queued) == accepted
                    assert client.known == reference.known, (step, queued.this_update)
                    assert (client.covered_until, client.current_until) == (
                        reference.covered_until,
                        reference.current_until,
                    )
                    if accepted:
                        pending.remove(queued)
                        progress = True
            live = [s for s in range(1, 300) if t < expiry[s]]
            for serial in rng.sample(live, min(10, len(live))):
                via_docs = check_status(serial, docs, t, keystore, "ca")
                assert client.status(serial, t) == via_docs, (step, serial, t)


class TestSchemesBehave:
    def test_ocsp_nonce_mode_one_request_per_validation(self):
        report = run(cfg(scheme=Scheme.OCSP))
        assert sum(report.requests_per_interval) == report.validations
        assert report.signature_ops["responder_sign"] == report.validations

    def test_ocsp_cached_mode_reduces_requests(self):
        fresh = run(cfg(scheme=Scheme.OCSP))
        cached = run(cfg(scheme=Scheme.OCSP, ocsp_max_age=12 * HOUR))
        assert sum(cached.requests_per_interval) < sum(fresh.requests_per_interval)
        assert cached.false_revocation == 0

    def test_naive_signs_population_every_period(self):
        report = run(cfg(scheme=Scheme.NAIVE_SIGNED_STATUS))
        published = report.publications["status_statements"]
        assert report.signature_ops["ca_sign"] == published
        assert published >= 9 * 300  # 9 update days, full population each

    @pytest.mark.parametrize(
        "name", [n for n, c in GOLDEN.items() if c.scheme is Scheme.NAIVE_SIGNED_STATUS]
    )
    def test_naive_pushed_bytes_are_the_statement_encodings(self, name):
        """Oracle: each period's pushed bytes are the encodings of its statements."""
        periods = []

        class Recording(NaiveStatusAdapter):
            def on_publish(self, now, tag):
                before = self.metrics.bytes_sent["ca_to_directory"]
                super().on_publish(now, tag)
                pushed = self.metrics.bytes_sent["ca_to_directory"] - before
                periods.append((pushed, list(self.statements.values())))

        Simulation(GOLDEN[name], adapter_factory=Recording).run()
        for pushed, statements in periods:
            assert pushed == sum(len(s.to_bytes()) for s in statements)
        statuses = {s.status for _, statements in periods for s in statements}
        assert statuses == {OcspStatus.GOOD, OcspStatus.REVOKED}

    def test_crs_ca_never_signs_updates(self):
        report = run(cfg(scheme=Scheme.CRS, crs_lifetime_periods=30))
        assert "ca_sign" not in report.signature_ops
        assert report.publications["crs_update"] == 9

    def test_overissue_doubles_publications(self):
        one = run(cfg(overissue_factor=1))
        two = run(cfg(overissue_factor=2))
        assert two.publications["full_crl"] == 2 * one.publications["full_crl"]

    @pytest.mark.parametrize(
        "scheme, deltas_h",
        [
            # a delta tick on a base instant is skipped, an extra one is not
            (Scheme.DELTA_CRL, [5, 6, 12, 18, 24, 30, 36, 42]),
            # sliding deltas go out on every tick, base instants included
            (Scheme.SLIDING_DELTA, [0, 5, 6, 12, 18, 24, 30, 36, 42]),
        ],
    )
    def test_irregular_freshest_deltas(self, scheme, deltas_h):
        """Pay-per-freshness pointers are modeled as extra delta releases on
        an irregular schedule; everything else about the scheme is unchanged.
        The extra times here fall off the grid (5 h), on a regular delta
        tick (12 h), on a base instant (24 h) and past the horizon (50 h)."""
        extra_times = tuple(t * HOUR for t in (5, 12, 24, 50))
        grid = dict(scheme=scheme, delta_period=6 * HOUR, window_length=2 * DAY)
        events = Simulation(
            cfg(horizon=2 * DAY, extra_delta_times=extra_times, **grid)
        ).adapter.publish_events()
        assert events == [(0, "base"), (DAY, "base")] + [(t * HOUR, "delta") for t in deltas_h]

        kind = "sliding_delta" if scheme is Scheme.SLIDING_DELTA else "delta_crl"
        base_report = run(cfg(**grid))
        frip_report = run(cfg(extra_delta_times=(5 * HOUR, 29 * HOUR, 31 * HOUR), **grid))
        assert frip_report.publications[kind] == base_report.publications[kind] + 3
        assert frip_report.false_revocation == 0
        with pytest.raises(ConfigError):
            cfg(scheme=Scheme.FULL_CRL, extra_delta_times=(100,))

    def test_depender_overlay_distributes_and_catches_up(self):
        config = cfg(
            scheme=Scheme.CRT,
            depender_nodes=20,
            depender_k=2,
            node_failures=((2 * DAY, 7),),
            node_rejoins=((6 * DAY, 7),),
        )
        report = run(config)
        assert report.overlay["messages"] == report.publications["crt_root"]
        # one failure < k: every live node still received every message
        assert report.overlay.get("missed", 0) == 0
        assert report.overlay["catchup_messages"] > 0  # node 7 replayed its gap
        assert report.conservation_delta() == 0


def published_crls(config, adapter_cls):
    """Every CRL the adapter publishes in a run, and the run's ledger."""
    docs = []

    class Recording(adapter_cls):
        def on_publish(self, now, tag):
            super().on_publish(now, tag)
            docs.append(self.current)

    sim = Simulation(config, adapter_factory=Recording)
    sim.run()
    return docs, sim.ledger


class TestWcrPublication:
    def test_infinite_window_lists_what_a_plain_crl_lists(self):
        config = cfg(
            seed=3,
            horizon=40 * DAY,
            cert_lifetime=10 * DAY,
            annual_revocation_fraction=5.0,
            scheme=Scheme.WCR,
            wcr_window_size=None,
        )
        wcr_docs, ledger = published_crls(config, WcrAdapter)
        plain_docs, _ = published_crls(config, PlainCrlBaselineAdapter)
        assert [(d.this_update, d.entries) for d in wcr_docs] == [
            (d.this_update, d.entries) for d in plain_docs
        ]
        for doc in wcr_docs:
            for serial, _ in doc.entries:
                assert doc.this_update < ledger.certificates[serial].not_after, serial
        # the run must revoke certificates that then expire, or nothing is tested
        expired = [
            s for s in ledger.revocations if ledger.certificates[s].not_after <= config.horizon
        ]
        assert expired


class EagerCrsAdapter(CrsAdapter):
    """Reference directory: every token of the period built at publication."""

    def on_publish(self, now: int, tag: str) -> None:
        grid = now // self.period
        tokens = self.authority.publish_update(
            {serial: grid - g for serial, g in self.issue_grid.items()}
        )
        self.tokens = {t.serial: t for t in tokens}
        self.ca_push("crs_update", len(tokens) * self.token_bytes)

    def directory_token(self, serial: int):
        return self.tokens[serial]


def crs_cfg(**kwargs):
    """Small and revocation-heavy, with new certificates arriving mid-run."""
    kwargs.setdefault("crs_lifetime_periods", 30)
    return cfg(
        scheme=Scheme.CRS,
        population=40,
        annual_revocation_fraction=20.0,
        annual_new_user_fraction=5.0,
        validation_rate=6.0,
        **kwargs,
    )


class TestCrsDirectory:
    def test_fetch_time_tokens_match_eager_reference(self):
        config = crs_cfg()
        workload = generate_workload(config)
        revoked_at = {serial: t for t, serial in workload.revocations}
        # A revocation after a day's publication, then a validation of that
        # serial later the same day: the published view must still say valid.
        assert any(
            serial in revoked_at
            and revoked_at[serial] % DAY > 0
            and revoked_at[serial] < t
            and revoked_at[serial] // DAY == t // DAY
            for t, _, serial in workload.validations
        )
        lazy, lazy_actions, lazy_decisions = run_with_logs(config)
        eager, eager_actions, eager_decisions = run_with_logs(
            config, adapter_factory=EagerCrsAdapter
        )
        assert lazy.to_json() == eager.to_json()
        assert lazy_decisions == eager_decisions
        assert lazy_actions == eager_actions
        assert lazy.false_valid > 0 and lazy.false_revocation == 0

    def test_pushed_bytes_skip_certificates_past_their_lifetime(self):
        config = crs_cfg(n_clients=0, crs_lifetime_periods=3)
        lazy = run(config)
        eager = Simulation(config, adapter_factory=EagerCrsAdapter).run()
        assert lazy.to_json() == eager.to_json()
        issued = len(generate_workload(config).issues)
        full = lazy.publications["crs_update"] * issued * token_wire_size(OneWayFunction(100))
        assert 0 < lazy.bytes_sent["ca_to_directory"] < full

    def test_directory_never_serves_n0_for_a_good_certificate(self):
        served = []

        class Recording(CrsAdapter):
            def directory_token(self, serial):
                token = super().directory_token(serial)
                served.append((serial, token, self.snapshot[0] * self.period))
                return token

        sim = Simulation(crs_cfg(), adapter_factory=Recording)
        sim.run()
        for serial, token, published_at in served:
            revoked_at = sim.ledger.revoked_at(serial)
            if token.kind is CrsTokenKind.REVOKED:
                assert revoked_at is not None and revoked_at <= published_at
            else:
                assert revoked_at is None or revoked_at > published_at
        assert {token.kind for _, token, _ in served} == set(CrsTokenKind)


class PreviousTokenAdapter(CrsAdapter):
    """A directory that serves each serial's genuine token of the period
    before the last published one. A certificate's first period has none
    before it but the anchor, so its genuine token is served there."""

    def directory_token(self, serial):
        grid, cutoff = self.snapshot
        period = max(1, grid - 1 - self.issue_grid[serial])
        return self.authority.issue_token(serial, period, as_of=cutoff)


class PreviousStatementsAdapter(NaiveStatusAdapter):
    """A directory that serves the genuine statements of the publication
    before the last one."""

    def __init__(self, sim):
        super().__init__(sim)
        self.latest = {}

    def on_publish(self, now, tag):
        previous = self.latest
        super().on_publish(now, tag)
        self.latest, self.statements = self.statements, previous


class TestClientsCheckTheirOwnPeriod:
    """A genuine document of the previous period fails, because the client
    checks it for the period of its own clock, not the one it carries."""

    @pytest.mark.parametrize(
        "config, factory",
        [
            (crs_cfg(), PreviousTokenAdapter),
            (cfg(scheme=Scheme.NAIVE_SIGNED_STATUS), PreviousStatementsAdapter),
        ],
        ids=["crs", "naive_signed_status"],
    )
    def test_previous_period_document_fails_verification(self, config, factory):
        sim = Simulation(config, adapter_factory=factory)
        with pytest.raises(AssertionError, match="genuine .* failed verification") as excinfo:
            sim.run()
        assert excinfo.traceback[-1].name == "fetch_verdict"


class TestCrsChainCoverage:
    """A chain of n periods serves validations up to period n; the anchor is period 0."""

    def test_short_chain_is_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(
                seed=1,
                horizon=10 * DAY,
                population=50,
                scheme=Scheme.CRS,
                n_clients=5,
                crs_lifetime_periods=3,
            )

    def test_one_period_short_is_rejected(self):
        with pytest.raises(ConfigError):
            crs_cfg(horizon=4 * DAY, crs_lifetime_periods=2)
        with pytest.raises(ConfigError):
            crs_cfg(horizon=4 * DAY + 1, crs_lifetime_periods=3)

    def test_short_certificate_lifetime_does_not_cover_for_the_chain(self):
        # Validations pick expired certificates too, so they claim late periods.
        with pytest.raises(ConfigError):
            crs_cfg(horizon=10 * DAY, crs_lifetime_periods=3, cert_lifetime=3 * DAY)

    def test_exactly_enough_runs_to_the_last_period(self):
        config = crs_cfg(horizon=4 * DAY, crs_lifetime_periods=3)
        workload = generate_workload(config)
        issued_at = {serial: t for t, serial in workload.issues}
        claimed = {t // DAY - issued_at[serial] // DAY for t, _, serial in workload.validations}
        assert max(claimed) == 3
        report = run(config)
        assert report.false_revocation == 0

    def test_zero_clients_are_never_rejected(self):
        run(crs_cfg(n_clients=0, crs_lifetime_periods=1))


def _claimable(config, issued_at):
    """The period a validation at the run's last instant claims for a
    certificate issued at issued_at, within the chain; no validation claims
    more."""
    last = (config.horizon - 1) // config.crs_period - issued_at // config.crs_period
    return max(0, min(config.crs_lifetime_periods, last))


class TestCrsRetention:
    """The authority keeps only the chain values a run can ask for."""

    @settings(max_examples=80, deadline=None)
    @given(
        lifetime=st.integers(min_value=1, max_value=30),
        period=st.integers(min_value=1, max_value=4),
        horizon=st.integers(min_value=1, max_value=140),
        data=st.data(),
    )
    def test_kept_values_build_every_servable_token(self, lifetime, period, horizon, data):
        issued_at = data.draw(st.integers(min_value=0, max_value=horizon), label="issued_at")
        config = SimConfig(seed=1, horizon=horizon, population=0, n_clients=0,
                           scheme=Scheme.CRS, crs_period=period, crs_lifetime_periods=lifetime)
        adapter = Simulation(config).adapter
        serial = 7
        [anchor] = adapter.anchors_for([serial], issued_at)
        authority = adapter.authority
        f = authority.f
        secret = authority._secrets[serial]
        served = _claimable(config, issued_at)
        assert anchor.y == f.iterate(secret.y0, lifetime)
        assert len(authority._chains[serial]) == (served + 1) * f.width_bytes
        for revoked in (False, True):
            if revoked:
                authority.revoke(serial)
            for p in range(1, served + 1):
                if revoked:
                    expected = CrsToken(serial, CrsTokenKind.REVOKED, 0, secret.n0)
                else:
                    value = f.iterate(secret.y0, lifetime - p)  # the full-chain oracle
                    expected = CrsToken(serial, CrsTokenKind.VALID, p, value)
                assert authority.issue_token(serial, p) == expected
            with pytest.raises(ValueError):
                authority.issue_token(serial, served + 1)

    def test_tradeoffs_config_holds_one_value_per_servable_period(self):
        config = next(c for c in _tradeoff_preset(1) if c.scheme is Scheme.CRS)
        sim = Simulation(config)
        sim.run()
        authority = sim.adapter.authority
        expected = sum(
            (_claimable(config, cert.not_before) + 1) * authority.f.width_bytes
            for cert in sim.ledger.certificates.values()
        )
        assert sum(map(len, authority._chains.values())) == expected


OVERLAY = {"scheme": Scheme.CRT, "depender_nodes": 8}


@pytest.mark.parametrize(
    "fields",
    [
        # a zero or negative key lifetime would make OcspAdapter add keys forever
        pytest.param({"scheme": Scheme.OCSP, "ocsp_key_lifetime": 0}, id="ocsp_key_lifetime_0"),
        pytest.param({"scheme": Scheme.OCSP, "ocsp_key_lifetime": -1}, id="ocsp_key_lifetime_neg"),
        # a negative warm-up would make peak/mean cover only the last intervals
        pytest.param({"stat_warmup": -1}, id="stat_warmup_neg"),
        # each of these ran as if it were 0
        pytest.param({"scheme": Scheme.CRT, "depender_nodes": -5}, id="depender_nodes_neg"),
        pytest.param({"scheme": Scheme.OCSP, "ocsp_max_age": -10}, id="ocsp_max_age_neg"),
        pytest.param(
            {"scheme": Scheme.WCR, "wcr_window_size": 3, "wcr_clean_duration": -100},
            id="wcr_clean_duration_neg",
        ),
        pytest.param({**OVERLAY, "node_rejoins": ((2 * DAY, 99),)}, id="node_99_of_8"),
        pytest.param({**OVERLAY, "node_failures": ((2 * DAY, 0),)}, id="node_0_root"),
        pytest.param({"scheme": Scheme.CRT, "node_failures": ((2 * DAY, 1),)}, id="no_overlay"),
        pytest.param({"scheme": Scheme.DELTA_CRL, "delta_period": -3600}, id="delta_period_neg"),
        # each of these constructed and then failed in Simulation() or mid-run
        pytest.param({**OVERLAY, "depender_k": 0}, id="depender_k_0"),
        pytest.param({"crs_width_bits": 7}, id="crs_width_bits_7"),
        pytest.param({"crs_width_bits": 257}, id="crs_width_bits_257"),
        pytest.param({"cert_lifetime": 0}, id="cert_lifetime_0"),
        # horizon + 2 * cert_lifetime must fit the u64 clock
        pytest.param({"cert_lifetime": 2**63}, id="cert_lifetime_past_u64"),
        # only full_crl handles scheduled fetches
        pytest.param(
            {"scheme": Scheme.CRT, "fetch_policy": "uniform_random_window", "fetch_window": HOUR},
            id="fetch_window_on_crt",
        ),
    ],
)
def test_config_rejected_at_construction(fields):
    with pytest.raises(ConfigError):
        cfg(**fields)


def test_largest_lifetime_that_fits_the_clock_runs():
    horizon = 2 * DAY
    lifetime = (2**64 - 1 - horizon) // 2
    report = run(cfg(horizon=horizon, population=20, n_clients=2, cert_lifetime=lifetime))
    assert report.false_revocation == 0
    with pytest.raises(ConfigError):
        cfg(horizon=horizon + 2, cert_lifetime=lifetime)


CRL_FAMILY = {
    "full_crl": {"scheme": Scheme.FULL_CRL},
    "full_crl_prefetch": {
        "scheme": Scheme.FULL_CRL,
        "base_period": 2 * DAY,
        "overissue_factor": 2,
        "fetch_policy": "uniform_random_window",
        "fetch_window": 16 * HOUR,
    },
    "delta_crl": {"scheme": Scheme.DELTA_CRL, "delta_period": 6 * HOUR},
    "sliding_delta": {
        "scheme": Scheme.SLIDING_DELTA,
        "delta_period": HOUR,
        "window_length": 2 * DAY,
    },
    "segmented": {"scheme": Scheme.SEGMENTED, "segments": 4},
    "wcr": {"scheme": Scheme.WCR, "wcr_window_size": 3, "wcr_clean_duration": 6 * HOUR},
}


def flip_bit(doc):
    """doc with one bit of its signature flipped."""
    mac = bytearray(doc.signature.mac)
    mac[0] ^= 1
    return dataclasses.replace(doc, signature=Signature(doc.signature.key_id, bytes(mac)))


def serving_flipped(adapter_cls, tag, attr):
    """adapter_cls whose directory serves every document its `tag`
    publications put in `attr` with one bit flipped."""

    class Tampered(adapter_cls):
        def on_publish(self, now, published):
            super().on_publish(now, published)
            if published == tag:
                doc = getattr(self, attr)
                if isinstance(doc, dict):
                    setattr(self, attr, {k: flip_bit(d) for k, d in doc.items()})
                else:
                    setattr(self, attr, flip_bit(doc))

    return Tampered


class FlippedTableAdapter(SegmentedAdapter):
    def __init__(self, sim):
        super().__init__(sim)
        self.table = flip_bit(self.table)


# name -> (config fields, adapter factory): every scheme, both OCSP modes,
# and WCR next to its two baselines
COUNTED = {
    **{
        name: (CRL_FAMILY[name], None)
        for name in ("full_crl", "full_crl_prefetch", "delta_crl", "sliding_delta", "segmented")
    },
    "crs": ({"scheme": Scheme.CRS, "crs_lifetime_periods": 30}, None),
    "crt": ({"scheme": Scheme.CRT}, None),
    "ocsp_nonce": ({"scheme": Scheme.OCSP}, None),
    "ocsp_cached": (
        {
            "scheme": Scheme.OCSP,
            "population": 20,
            "n_clients": 4,
            "validation_rate": 16.0,
            "ocsp_max_age": 12 * HOUR,
        },
        None,
    ),
    "naive_signed_status": ({"scheme": Scheme.NAIVE_SIGNED_STATUS}, None),
    "wcr": (CRL_FAMILY["wcr"], WcrAdapter),
    "always_fresh": (CRL_FAMILY["wcr"], AlwaysFreshAdapter),
    "plain_crl": (CRL_FAMILY["wcr"], PlainCrlBaselineAdapter),
}

# Clients that never verify a signature: CRS checks hash chains, and an
# always-fresh client trusts the certificate the CA hands it.
SILENT_CLIENTS = {"crs", "always_fresh"}


# KeyStore phase -> the hash_ops key of the CRT hashes computed in it
TREE_HASH_KEYS = {"publish": "ca_tree", "validate": "client_tree"}


def count_tree_hashes(monkeypatch, keystore):
    """Patch the CRT hash primitives to count their calls by
    (hash_ops key of the keystore's phase, primitive name)."""
    done = Counter()

    def counting(name):
        original = getattr(crt_mod, name)

        def counted(*args):
            done[TREE_HASH_KEYS[keystore.phase], name] += 1
            return original(*args)

        return counted

    for name in ("leaf_hash", "node_hash"):
        monkeypatch.setattr(crt_mod, name, counting(name))
    return done


class TestVerifyOnArrival:
    """Clients verify each signed document once, when it arrives, and the
    reported signature and hash counts are the work done."""

    @pytest.mark.parametrize("name", list(COUNTED))
    def test_reported_verifications_are_the_work_done(self, name, monkeypatch):
        """Oracle: the KeyStore's own sign and verify counts; for hash_ops,
        the calls of the CRT hash primitives and the one-way functions' own
        application counts."""
        fields, factory = COUNTED[name]
        sim = Simulation(cfg(**fields), adapter_factory=factory)
        hashed = count_tree_hashes(monkeypatch, sim.keystore)
        report = sim.run()
        expected = Counter(ca_chain=sim.f_ca.apply_count, client_chain=sim.f_client.apply_count)
        for (key, _), n in hashed.items():
            expected[key] += n
        assert report.hash_ops == {k: n for k, n in expected.items() if n}
        assert bool(hashed) == (name == "crt")
        assert bool(sim.f_ca.apply_count and sim.f_client.apply_count) == (name == "crs")
        ops = report.signature_ops
        verified = ops.get("client_verify", 0)
        assert (verified > 0) == (name not in SILENT_CLIENTS)
        assert sim.keystore.verify_count == verified
        signed = ("ca_setup", "ca_issue", "ca_sign", "responder_sign")
        assert sim.keystore.sign_count == sum(ops.get(k, 0) for k in signed)
        assert ops["ca_issue"] == len(sim.ledger.certificates)

    def test_signature_in_a_phase_without_report_key_raises(self):
        class RevokeSigning(FullCrlAdapter):
            def on_revoke(self, serial, now):
                self.keystore.sign(b"unreported", self.ca_key)

        sim = Simulation(cfg(annual_revocation_fraction=5.0), adapter_factory=RevokeSigning)
        with pytest.raises(KeyError, match="revoke"):
            sim.run()

    @pytest.mark.parametrize(
        "name,factory",
        [
            ("full_crl", serving_flipped(FullCrlAdapter, "base", "current")),
            ("full_crl_prefetch", serving_flipped(FullCrlAdapter, "base", "current")),
            ("delta_crl", serving_flipped(DeltaCrlAdapter, "base", "base")),
            ("delta_crl", serving_flipped(DeltaCrlAdapter, "delta", "delta")),
            ("sliding_delta", serving_flipped(SlidingDeltaAdapter, "base", "base")),
            ("sliding_delta", serving_flipped(SlidingDeltaAdapter, "delta", "delta")),
            ("segmented", serving_flipped(SegmentedAdapter, "base", "segdocs")),
            ("segmented", FlippedTableAdapter),
            ("wcr", serving_flipped(WcrAdapter, "base", "current")),
            ("wcr", serving_flipped(PlainCrlBaselineAdapter, "base", "current")),
        ],
        ids=[
            "full_crl",
            "full_crl_prefetch",
            "delta_crl-base",
            "delta_crl-delta",
            "sliding_delta-base",
            "sliding_delta-delta",
            "segmented-segment",
            "segmented-table",
            "wcr",
            "plain_crl",
        ],
    )
    def test_tampered_document_raises_at_fetch(self, name, factory):
        sim = Simulation(cfg(**CRL_FAMILY[name]), adapter_factory=factory)
        with pytest.raises(AssertionError, match="failed verification") as excinfo:
            sim.run()
        assert excinfo.traceback[-1].name == "fetch_doc"


class TestHashCounts:
    """Reported hash_ops equal the hashes the primitives computed (every
    COUNTED config: TestVerifyOnArrival)."""

    @pytest.mark.parametrize("n_revoked", [2, 4, 5, 100])
    def test_crt_first_publication_counts_only_computed_hashes(self, n_revoked, monkeypatch):
        """A first build promotes odd nodes unhashed: they are neither counted
        under ca_tree nor pushed to the directory."""
        sim = Simulation(cfg(scheme=Scheme.CRT, population=0))
        for serial in range(1, n_revoked + 1):
            sim.ledger.issue([serial], [None], 0, 30 * DAY, sim.keystore, sim.ca_key)
            sim.ledger.revoke(serial, 0)
        done = count_tree_hashes(monkeypatch, sim.keystore)
        sim.keystore.phase = "publish"
        sim.adapter.on_publish(HOUR, "base")
        leaves, nodes = done["ca_tree", "leaf_hash"], done["ca_tree", "node_hash"]
        assert leaves == n_revoked + 1
        assert sim.metrics.hash_ops == {"ca_tree": leaves + nodes}
        root = len(sim.adapter.tree.signed_root.to_bytes())
        assert sim.metrics.bytes_sent["ca_to_directory"] == 16 * leaves + 32 * nodes + root
        assert sim.metrics.publications == {"crt_root": 1}


class PerFetchCrtAdapter(CrtAdapter):
    """Reference directory: a new proof for every fetch, nothing shared."""

    def validate(self, client: int, serial: int, now: int):
        self.proofs.clear()
        return super().validate(client, serial, now)


def counting_prove(monkeypatch):
    """Patch crt_prove to record (root, leaf index) per call."""
    calls = []
    original = crt_mod.crt_prove

    def prove(tree, serial):
        proof = original(tree, serial)
        calls.append((tree.root, proof.leaf_index))
        return proof

    monkeypatch.setattr(crt_mod, "crt_prove", prove)
    return calls


class TestCrtProofSharing:
    """The CRT directory builds one proof per leaf per tree and serves it to
    every client that asks for that leaf."""

    def test_reports_and_logs_equal_the_per_fetch_reference(self, monkeypatch):
        config = cfg(
            scheme=Scheme.CRT,
            annual_revocation_fraction=5.0,
            validation_rate=12.0,
            depender_nodes=8,
            depender_k=2,
        )
        calls = counting_prove(monkeypatch)
        shared = run_with_logs(config)
        shared_calls = list(calls)
        calls.clear()
        reference = run_with_logs(config, adapter_factory=PerFetchCrtAdapter)
        assert shared[0].to_json() == reference[0].to_json()
        assert shared[1] == reference[1]
        assert shared[2] == reference[2]
        assert len(set(shared_calls)) == len(shared_calls)  # once per leaf per tree
        assert set(shared_calls) == set(calls)
        assert len(shared_calls) < len(calls)

    def test_one_gap_one_proof_until_a_publication_splits_it(self):
        sim = Simulation(cfg(scheme=Scheme.CRT, population=0))
        adapter = sim.adapter
        for serial in (10, 20, 30, 40):
            sim.ledger.issue([serial], [None], 0, 100 * DAY, sim.keystore, sim.ca_key)
        sim.ledger.revoke(10, 0)
        sim.ledger.revoke(40, 0)
        adapter.on_publish(0, "base")
        first_root = adapter.tree.signed_root

        received = sim.metrics.bytes_received
        assert adapter.validate(0, 20, HOUR) is True
        nbytes = received["directory_to_client"]
        assert nbytes > 0
        for client, serial in ((1, 30), (1, 20)):  # each client pays its fetch
            before = received["directory_to_client"]
            assert adapter.validate(client, serial, HOUR) is True
            assert received["directory_to_client"] - before == nbytes
        index = adapter.tree.leaf_for(20)
        assert adapter.tree.leaf_for(30) == index
        assert list(adapter.proofs) == [index]  # three fetches, one shared proof
        old = adapter.proofs[index]
        assert old.leaf == CrtLeaf(10, 40) and old.signed_root == first_root

        sim.ledger.revoke(30, 2 * HOUR)
        adapter.on_publish(DAY, "base")
        new_root = adapter.tree.signed_root
        assert new_root != first_root and new_root.issued_at == DAY

        assert adapter.validate(0, 20, DAY + HOUR) is True
        assert adapter.validate(1, 30, DAY + HOUR) is False
        good = adapter.proofs[adapter.tree.leaf_for(20)]
        bad = adapter.proofs[adapter.tree.leaf_for(30)]
        assert good.signed_root == bad.signed_root == new_root
        assert good.leaf == CrtLeaf(10, 30) and bad.leaf == CrtLeaf(30, 40)
        assert crt_verify(bad, 30, sim.keystore, sim.ca_key, DAY + HOUR) is CrtVerdict.REVOKED

        # cross-tree soundness: neither proof verifies under the other root
        for proof, root in ((old, new_root), (good, first_root), (bad, first_root)):
            grafted = dataclasses.replace(proof, signed_root=root)
            for serial in (20, 30):
                verdict = crt_verify(grafted, serial, sim.keystore, sim.ca_key, HOUR)
                assert verdict is CrtVerdict.PROOF_INVALID


class TestOcspMaxAge:
    """A cached OCSP response is verified once, when it arrives, and its
    verdict serves the client until the response is older than max-age."""

    def test_one_request_and_one_verification_until_max_age(self):
        max_age = 6 * HOUR
        sim = Simulation(cfg(scheme=Scheme.OCSP, population=0, ocsp_max_age=max_age))
        sim.ledger.issue([20], [None], 0, 100 * DAY, sim.keystore, sim.ca_key)
        sim.keystore.phase = "validate"

        def asked():
            return sum(sim.metrics.requests_per_interval), sim.keystore.verify_count

        assert sim.adapter.validate(0, 20, HOUR) is True
        assert asked() == (1, 1)
        assert sim.adapter.validate(0, 20, HOUR + max_age) is True  # exactly max-age old
        assert asked() == (1, 1)
        assert sim.adapter.validate(1, 20, HOUR + max_age) is True  # another client asks
        assert asked() == (2, 2)
        assert sim.adapter.validate(0, 20, HOUR + max_age + 1) is True
        assert asked() == (3, 3)


# name -> config fields: every scheme, both OCSP modes, and full_crl with
# the prefetch policy, the only one whose fetch events move bytes
BOOKED = {
    **CRL_FAMILY,
    "crs": {"scheme": Scheme.CRS, "crs_lifetime_periods": 30},
    "crt": {"scheme": Scheme.CRT},
    "ocsp_nonce": {"scheme": Scheme.OCSP},
    "ocsp_cached": {"scheme": Scheme.OCSP, "ocsp_max_age": 12 * HOUR},
    "naive_signed_status": {"scheme": Scheme.NAIVE_SIGNED_STATUS},
}


def per_validation_report(config, workload):
    """Oracle: the run booked one validation at a time. Every event,
    validations too, is queued in one list and run in (time, kind order,
    insertion order); each validation's directory->client bytes are read
    off the metrics around its call, and whether it is late is checked at
    each one."""
    sim = Simulation(config, workload=workload)
    calls = []

    def push(t, kind, payload):
        calls.append((t, engine.EVENT_ORDER[kind], len(calls), kind, payload))

    for t, serial in workload.issues:  # one issuance event per instant
        if calls and calls[-1][0] == t:
            calls[-1][4].append(serial)
        else:
            push(t, "issue_certificate", [serial])
    for t, serial in workload.revocations:
        push(t, "revoke", serial)
    publishes = sim.adapter.publish_events()
    for t, tag in publishes:
        push(t, "publish", tag)
    fetches = schedule_staggered_fetch(
        range(config.n_clients),
        config.fetch_policy,
        [t for t, _ in publishes],
        config.fetch_window,
        config.horizon,
        sim.rng_fetch,
    )
    for t, client in fetches:
        push(t, "fetch", client)
    for t, client, serial in workload.validations:
        push(t, "validate", (client, serial))
    calls.sort()

    metrics = sim.metrics
    received = metrics.bytes_received
    count = late = d2c = d2c_late = 0
    for t, order, seq, kind, payload in calls:
        if kind != "validate":
            sim._run_event(t, order, seq, kind, payload)
            continue
        client, serial = payload
        sim.keystore.phase = "validate"
        before = received["directory_to_client"]
        used = sim.adapter.validate(client, serial, t)
        nbytes = received["directory_to_client"] - before
        metrics.note_validation(t, used, sim.ledger.revoked_at(serial))
        count += 1
        d2c += nbytes
        if metrics.revocations_total > metrics.late_revoked_threshold:
            late += 1
            d2c_late += nbytes
    for pair, n in sim.keystore.counts.items():
        key = engine.SIGNATURE_KEYS[pair]
        metrics.signature_ops[key] = metrics.signature_ops.get(key, 0) + n
    metrics.note_hash("ca_chain", sim.f_ca.apply_count)
    metrics.note_hash("client_chain", sim.f_client.apply_count)
    return dataclasses.replace(
        metrics.finalize(),
        validations=count,
        validations_late=late,
        per_validation_d2c_bytes=d2c / count if count else 0.0,
        per_validation_d2c_bytes_late=d2c_late / late if late else 0.0,
    )


class TestValidationBooking:
    """The engine books validations in sums: the prefetched bytes apart,
    and the late ones from one mark on. That equals booking each one."""

    @settings(max_examples=60, deadline=None)
    @example(name="full_crl_prefetch", seed=11, threshold="middle")
    @given(
        name=st.sampled_from(sorted(BOOKED)),
        seed=st.integers(0, 2**16),
        threshold=st.sampled_from(["zero", "middle", "above"]),
    )
    def test_every_field_equals_the_per_validation_oracle(self, name, seed, threshold):
        config = cfg(seed=seed, population=120, annual_revocation_fraction=8.0, **BOOKED[name])
        workload = generate_workload(config)
        revocations = len(workload.revocations)
        late_revoked_threshold = {
            "zero": 0, "middle": revocations // 2, "above": revocations + 1
        }[threshold]
        config = dataclasses.replace(config, late_revoked_threshold=late_revoked_threshold)
        got = Simulation(config, workload=workload).run()
        want = per_validation_report(config, workload)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
        assert got.validations == len(workload.validations)
