"""The two baselines WCR is checked against (McDaniel & Rubin), and logged runs.

WCR at its degenerate corners makes the same decisions as a client that
always fetches a fresh certificate (both timers zero) and as a plain-CRL
verifier (an infinite window with the clean timer at the CRL period).
Acceptance criterion 6 and the golden baseline pins check this. Nothing in
the simulator or the CLI runs the baselines, so they live with the tests.
"""

from __future__ import annotations

from typing import Optional

from revokebench import wcr as wcr_mod
from revokebench.crl import CrlDocument, CrlIssuer
from revokebench.simkit import ConfigError, MetricsReport, Scheme, SimConfig, Simulation
from revokebench.simkit.schemes import SchemeAdapter, _base_grid


def run_with_logs(
    config: SimConfig, adapter_factory=None
) -> tuple[MetricsReport, list[str], list[str]]:
    """The report of one run with its action and decision logs."""
    sim = Simulation(config, adapter_factory=adapter_factory, keep_logs=True)
    report = sim.run()
    return report, list(sim.action_log), list(sim.decision_log)


class _FreshBaseline(SchemeAdapter):
    """A baseline client: it starts from a fresh certificate fetched from the CA."""

    def fresh_decision(self, client: int, serial: int, now: int) -> bool:
        """Fetch a fresh certificate, then drop it if revoked or else use it."""
        fresh = self.fresh_fetch(serial, now)
        verdict = wcr_mod.ACT_DROP if fresh.revoked else wcr_mod.ACT_USE
        self.log_actions(
            client, [(now, serial, wcr_mod.ACT_FRESH, fresh.nbytes), (now, serial, verdict, 0)]
        )
        return not fresh.revoked


class AlwaysFreshAdapter(_FreshBaseline):
    """Baseline: only fresh certificates are ever used; nothing is published."""

    name = "always_fresh"

    def validate(self, client: int, serial: int, now: int) -> bool:
        return self.fresh_decision(client, serial, now)


class PlainCrlBaselineAdapter(_FreshBaseline):
    """Baseline plain-CRL verifier: acquire the certificate once, then check
    every use against the current CRL (cached while its validity lasts)."""

    name = "plain_crl"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = CrlIssuer(self.keystore, self.ca_key, self.config.schedule)
        self.current: Optional[CrlDocument] = None
        self.acquired: set[tuple[int, int]] = set()

    def publish_events(self) -> list[tuple[int, str]]:
        return _base_grid(self.config.horizon, self.config.base_period)

    def on_publish(self, now: int, tag: str) -> None:
        self.current = self.issuer.issue_full(self.ledger.revoked_non_expired(now), now)
        self.ca_push("full_crl", self.current.wire_size)

    def validate(self, client: int, serial: int, now: int) -> bool:
        if (client, serial) not in self.acquired:
            used = self.fresh_decision(client, serial, now)
            if used:
                self.acquired.add((client, serial))
            return used
        doc, nbytes = self.current_crl(client, now)
        actions = [(now, serial, wcr_mod.ACT_CRL, nbytes)] if nbytes else []
        revoked = doc.lists(serial)
        if revoked:
            self.acquired.discard((client, serial))
        actions.append((now, serial, wcr_mod.ACT_DROP if revoked else wcr_mod.ACT_USE, 0))
        self.log_actions(client, actions)
        return not revoked


def wcr_equivalence_logs(config: SimConfig) -> dict[str, tuple[list[str], list[str]]]:
    """Action and decision logs for a WCR config and its two baselines on the
    identical workload: the always-fresh policy and the plain-CRL verifier."""
    if config.scheme is not Scheme.WCR:
        raise ConfigError("expected a wcr config")
    out = {}
    _, actions, decisions = run_with_logs(config)
    out["wcr"] = (actions, decisions)
    _, actions, decisions = run_with_logs(config, adapter_factory=AlwaysFreshAdapter)
    out["always_fresh"] = (actions, decisions)
    _, actions, decisions = run_with_logs(config, adapter_factory=PlainCrlBaselineAdapter)
    out["plain_crl"] = (actions, decisions)
    return out
