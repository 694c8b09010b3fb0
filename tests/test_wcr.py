"""Windowed revocation: issuer window membership and the verifier cache flow."""

import random

import pytest

from revokebench.core import RevocationRecord, make_certificate
from revokebench.crl import CrlIssuer, IssuanceSchedule
from revokebench.wcr import (
    ACT_CRL,
    ACT_DROP,
    ACT_FRESH,
    ACT_USE,
    CrlFetch,
    FreshFetch,
    WcrClientConfig,
    WcrClientState,
    WcrDecision,
    WcrFetchError,
    WcrIssuer,
    wcr_validate,
)

PERIOD = 1000


def make_wcr_issuer(keystore, window):
    return WcrIssuer(keystore, "ca", PERIOD, window)


class TestIssuer:
    def test_infinite_window_equals_issue_full(self, keystore):
        records = [RevocationRecord(serial=s, revoked_at=s * 100) for s in (1, 2, 3)]
        wcr = make_wcr_issuer(keystore, None).issue(records, 5, 5000)
        plain = CrlIssuer(keystore, "ca", IssuanceSchedule(base_period=PERIOD)).issue_full(
            records, 5000
        )
        assert wcr.entries == plain.entries
        assert wcr.to_bytes() == plain.to_bytes()

    def test_window_one_lists_exactly_once(self, keystore):
        issuer = make_wcr_issuer(keystore, 1)
        record = RevocationRecord(serial=9, revoked_at=4500)  # assigned to date 5
        listings = [
            idx for idx in range(10) if issuer.issue([record], idx, idx * PERIOD).lists(9)
        ]
        assert listings == [5]

    def test_window_three_covers_three_dates(self, keystore):
        """Oracle: the explicit membership schedule for each publishing date."""
        issuer = make_wcr_issuer(keystore, 3)
        record = RevocationRecord(serial=9, revoked_at=4001)  # first date >= is 5
        for idx in range(12):
            doc = issuer.issue([record], idx, idx * PERIOD)
            assert doc.lists(9) == (5 <= idx <= 7)

    def test_revocation_on_publish_instant(self, keystore):
        issuer = make_wcr_issuer(keystore, 2)
        record = RevocationRecord(serial=9, revoked_at=5000)  # exactly date 5
        assert [i for i in range(10) if issuer.issue([record], i, i * PERIOD).lists(9)] == [5, 6]

    def test_expired_records_skipped(self, keystore):
        issuer = make_wcr_issuer(keystore, None)
        record = RevocationRecord(serial=9, revoked_at=100)
        doc = issuer.issue([record], 8, 8000, expiry={9: 7000})
        assert not doc.lists(9)

    @pytest.mark.parametrize("window", [0, -1])
    def test_window_below_one_rejected(self, keystore, window):
        with pytest.raises(ValueError, match="window size"):
            make_wcr_issuer(keystore, window)

    @pytest.mark.parametrize("period", [0, -PERIOD])
    def test_period_below_one_rejected(self, keystore, period):
        with pytest.raises(ValueError, match="base_period must be positive"):
            WcrIssuer(keystore, "ca", period)


class StubServices:
    """Scripted environment: a revocation instant, a CRL provider, fail flags."""

    def __init__(self, keystore, revoked_at=None, window=None):
        self.keystore = keystore
        self.revoked_at = revoked_at
        self.issuer = make_wcr_issuer(keystore, window)
        self.cert = make_certificate(9, "nine", 0, 10_000_000, keystore, "ca")
        self.cached = None
        self.fail_fresh = False
        self.fail_crl = False
        self.fresh_calls = 0
        self.crl_calls = 0

    def _records(self, now):
        if self.revoked_at is not None and self.revoked_at <= now:
            return [RevocationRecord(serial=9, revoked_at=self.revoked_at)]
        return []

    def fetch_fresh_certificate(self, serial, now):
        if self.fail_fresh:
            raise WcrFetchError("fresh endpoint down")
        self.fresh_calls += 1
        revoked = self.revoked_at is not None and self.revoked_at <= now
        return FreshFetch(revoked=revoked, certificate=None if revoked else self.cert, nbytes=120)

    def fetch_latest_crl(self, now):
        if self.fail_crl:
            raise WcrFetchError("directory down")
        if self.cached is not None and self.cached.covers(now):
            return CrlFetch(doc=self.cached, nbytes=0)
        self.crl_calls += 1
        idx = now // PERIOD
        self.cached = self.issuer.issue(self._records(idx * PERIOD), idx, idx * PERIOD)
        return CrlFetch(doc=self.cached, nbytes=self.cached.wire_size)


def config(clean, window):
    return WcrClientConfig(clean_duration=clean, crl_period=PERIOD, window_size=window)


class TestValidate:
    def test_first_encounter_fetches_fresh_and_arms(self, keystore):
        services = StubServices(keystore)
        state = WcrClientState(serial=9)
        decision, state, actions = wcr_validate(state, 1500, services, config(PERIOD, 4))
        assert decision is WcrDecision.USE
        assert [a[2] for a in actions] == [ACT_FRESH, ACT_USE]
        assert state.certificate is not None
        assert state.clean_deadline == 1000 + PERIOD  # grid-anchored
        assert state.window_deadline == 1000 + 3 * PERIOD

    def test_clean_timer_skips_all_network(self, keystore):
        services = StubServices(keystore)
        state = WcrClientState(serial=9)
        _, state, _ = wcr_validate(state, 1500, services, config(PERIOD, 4))
        calls = (services.fresh_calls, services.crl_calls)
        decision, state, actions = wcr_validate(state, 1700, services, config(PERIOD, 4))
        assert decision is WcrDecision.USE
        assert [a[2] for a in actions] == [ACT_USE]
        assert (services.fresh_calls, services.crl_calls) == calls

    def test_revoked_within_window_dropped_via_crl(self, keystore):
        """Oracle: direct ledger lookup at the same instant."""
        services = StubServices(keystore, revoked_at=2100, window=4)
        state = WcrClientState(serial=9)
        _, state, _ = wcr_validate(state, 1500, services, config(PERIOD, 4))
        decision, state, actions = wcr_validate(state, 3200, services, config(PERIOD, 4))
        truth_revoked = services.revoked_at <= 3200
        assert truth_revoked
        assert decision is WcrDecision.DROP
        assert [a[2] for a in actions] == [ACT_CRL, ACT_DROP]
        assert state.certificate is None

    def test_window_expiry_forces_fresh_fetch(self, keystore):
        services = StubServices(keystore)
        state = WcrClientState(serial=9)
        _, state, _ = wcr_validate(state, 500, services, config(PERIOD, 2))
        # window deadline = 0 + (2-1)*PERIOD = 1000
        decision, state, actions = wcr_validate(state, 1200, services, config(PERIOD, 2))
        assert decision is WcrDecision.USE
        assert [a[2] for a in actions] == [ACT_FRESH, ACT_USE]
        assert services.fresh_calls == 2

    def test_zero_timers_always_fresh(self, keystore):
        # Both timers zero: clean duration 0 and window size 1 (duration 0).
        services = StubServices(keystore)
        state = WcrClientState(serial=9)
        for t in (100, 101, 500, 2000):
            decision, state, actions = wcr_validate(state, t, services, config(0, 1))
            assert decision is WcrDecision.USE
            assert actions[0][2] == ACT_FRESH
        assert services.fresh_calls == 4

    def test_fetch_failure_leaves_state_untouched(self, keystore):
        services = StubServices(keystore)
        state = WcrClientState(serial=9)
        _, armed, _ = wcr_validate(state, 500, services, config(PERIOD, 10))
        services.fail_crl = True
        with pytest.raises(WcrFetchError):
            # clean expired, window (9 periods) still open -> CRL path fails
            wcr_validate(armed, 1200, services, config(PERIOD, 10))
        services.fail_fresh = True
        with pytest.raises(WcrFetchError):
            # past the window deadline -> fresh path fails
            wcr_validate(armed, 9500, services, config(PERIOD, 10))
        # frozen states: the caller still holds the pre-failure state unchanged
        assert armed.clean_deadline == PERIOD
        assert armed.window_deadline == 9 * PERIOD
        assert armed.certificate is not None



class TestRecords:
    """Client state and fetch results are immutable value records."""

    @staticmethod
    def records(keystore):
        cert = make_certificate(9, "nine", 0, 10_000, keystore, "ca")
        doc = make_wcr_issuer(keystore, 3).issue([], 0, 0)
        return [WcrClientState(9, cert, 5, 7), FreshFetch(False, cert, 120), CrlFetch(doc, 0)]

    def test_fields_cannot_be_set(self, keystore):
        for record in self.records(keystore):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.extra = 1

    def test_equal_and_hashable_by_value(self, keystore):
        for record, twin in zip(self.records(keystore), self.records(keystore)):
            assert record is not twin
            assert record == twin and hash(record) == hash(twin)
            changed = record._replace(**{record._fields[-1]: 99})
            assert len({record, twin, changed}) == 2

    def test_a_new_state_holds_nothing(self):
        state = WcrClientState(serial=9)
        assert state == WcrClientState(9, None, 0, 0)
        assert (state.certificate, state.clean_deadline, state.window_deadline) == (None, 0, 0)


class TestSafetyWindow:
    def test_never_uses_long_revoked_certificate(self, keystore):
        """A client with clean timer c never uses a certificate revoked more
        than c + one CRL period before now (randomized against the ledger)."""
        rng = random.Random(42)
        for trial in range(30):
            clean = rng.choice([0, 500, PERIOD, 2 * PERIOD])
            window = rng.choice([2, 3, 6])
            revoked_at = rng.randrange(1, 20 * PERIOD)
            services = StubServices(keystore, revoked_at=revoked_at, window=window)
            state = WcrClientState(serial=9)
            t = 0
            for _ in range(40):
                t += rng.randrange(1, PERIOD)
                decision, state, _ = wcr_validate(
                    state, t, services, config(clean, window)
                )
                if decision is WcrDecision.USE and revoked_at <= t:
                    staleness = t - revoked_at
                    assert staleness <= clean + PERIOD, (trial, t, revoked_at, clean)
