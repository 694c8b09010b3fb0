"""Deterministic single-threaded event loop.

Events are processed in (time, kind order, insertion order); the kind order
puts issuance before revocation before publication before validation at any
shared instant, so a document published at t already reflects a revocation
at t and a validation at t sees the document. Every event is known before
the run starts and none is scheduled during it, so the events are sorted
once and popped in order.

Issuance is one event per instant: its payload is the serials issued then,
in workload order, and the CA signs them as one batch.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Callable, Optional

from .. import depender as dep_mod
from ..core import KeyStore, Ledger, OneWayFunction, make_certificates

# Not called here. perfbench/spans.py wraps this module's make_certificate
# name as the core.make_certificate span, which reads 0 now that issuance is
# batched; ROADMAP item 6 replaces the name-wrapping spans.
from ..core import make_certificate  # noqa: F401
from .config import ConfigError, SimConfig
from .metrics import Metrics, MetricsReport
from .schemes import ADAPTERS, SchemeAdapter
from .workload import Workload, generate_workload, substream

EVENT_ORDER = {
    "issue_certificate": 0,
    "revoke": 1,
    "publish": 2,
    "validate": 3,
    "fetch": 4,
    "node_fail": 5,
    "node_rejoin": 6,
}

# (KeyStore op, phase) -> signature_ops key; the phase is "setup", then the event kind
SIGNATURE_KEYS = {
    ("sign", "setup"): "ca_setup",
    ("sign", "issue_certificate"): "ca_issue",
    ("sign", "publish"): "ca_sign",
    ("sign", "validate"): "responder_sign",
    ("verify", "validate"): "client_verify",
    ("verify", "fetch"): "client_verify",
}


def schedule_staggered_fetch(
    clients,
    policy: str,
    publish_times: list[int],
    window: int,
    horizon: int,
    rng,
) -> list[tuple[int, int]]:
    """Fetch-event insertions for a client fetch policy.

    at_expiry inserts nothing (clients fetch lazily on their first stale
    validation); uniform_random_window spreads each client's fetch uniformly
    over the window following every publication.
    """
    if policy == "at_expiry":
        return []
    if policy != "uniform_random_window":
        raise ConfigError(f"unknown fetch policy {policy!r}")
    if window <= 0:
        return []
    out = []
    for t_pub in publish_times:
        for client in clients:
            t = t_pub + rng.randrange(window)
            if t < horizon:
                out.append((t, client))
    return out


class Simulation:
    def __init__(
        self,
        config: SimConfig,
        adapter_factory: Optional[Callable[["Simulation"], SchemeAdapter]] = None,
        keep_logs: bool = False,
        workload: Optional[Workload] = None,
    ) -> None:
        """`workload`, when given, must be `generate_workload` of a config
        with the same workload fields; otherwise it is generated here."""
        self.config = config
        self.ca_key = "ca"
        self.keystore = KeyStore()
        self.keystore.generate(self.ca_key, substream(config.seed, "keys"))
        self.f_ca = OneWayFunction(config.crs_width_bits)
        self.f_client = OneWayFunction(config.crs_width_bits)
        self.ledger = Ledger()
        self.rng_scheme = substream(config.seed, "scheme")
        self.rng_fetch = substream(config.seed, "fetch")
        self.rng_nonce = substream(config.seed, "nonce")
        self.metrics = Metrics(
            scheme=config.scheme.value,
            seed=config.seed,
            horizon=config.horizon,
            population=config.population,
            n_clients=config.n_clients,
            interval=config.interval,
            stat_warmup=config.stat_warmup,
            late_revoked_threshold=config.late_revoked_threshold,
        )
        self.workload = generate_workload(config) if workload is None else workload
        self.action_log: Optional[list[str]] = [] if keep_logs else None
        self.decision_log: Optional[list[str]] = [] if keep_logs else None
        self.keystore.phase = "setup"
        self.adapter = (adapter_factory or ADAPTERS[config.scheme])(self)

        self.overlay: Optional[dep_mod.DependerGraph] = None
        self.overlay_failed: set[int] = set()
        self._overlay_seq = 0
        if config.depender_nodes > 0:
            self.overlay = dep_mod.build_graph(
                config.depender_nodes, config.depender_k, substream(config.seed, "depender")
            )

    # -- overlay -------------------------------------------------------------

    def overlay_push(self) -> None:
        if self.overlay is None:
            return
        message = dep_mod.PropagationMessage(
            sequence=self._overlay_seq,
            payload=b"",
            origin=self.overlay.root,
            kind=dep_mod.MessageKind.FULL,
        )
        self._overlay_seq += 1
        report = dep_mod.propagate(self.overlay, message, self.overlay_failed)
        ov = self.metrics.overlay
        ov["messages"] = ov.get("messages", 0) + 1
        ov["forwards"] = ov.get("forwards", 0) + sum(report.forwards.values())
        ov["missed"] = ov.get("missed", 0) + len(report.missed(self.overlay_failed))

    def _overlay_rejoin(self, node: int) -> None:
        self.overlay_failed.discard(node)
        ov = self.metrics.overlay
        try:
            missed = dep_mod.rejoin(
                self.overlay, node, self.overlay.nodes[node].last_sequence, self.overlay_failed
            )
            ov["catchup_messages"] = ov.get("catchup_messages", 0) + len(missed)
        except dep_mod.CatchUpUnavailable:
            ov["catchup_unavailable"] = ov.get("catchup_unavailable", 0) + 1

    # -- run -----------------------------------------------------------------

    def run(self) -> MetricsReport:
        config = self.config
        events: list[tuple[int, int, int, str, object]] = []
        seq = 0

        def push(t: int, kind: str, payload: object) -> None:
            nonlocal seq
            events.append((t, EVENT_ORDER[kind], seq, kind, payload))
            seq += 1

        # issues are time-sorted, so each instant's serials are contiguous
        for t, issues in groupby(self.workload.issues, key=itemgetter(0)):
            push(t, "issue_certificate", [serial for _, serial in issues])
        for t, serial in self.workload.revocations:
            push(t, "revoke", serial)
        publish_events = self.adapter.publish_events()
        for t, tag in publish_events:
            push(t, "publish", tag)
        for t, client, serial in self.workload.validations:
            push(t, "validate", (client, serial))
        fetches = schedule_staggered_fetch(
            range(config.n_clients),
            config.fetch_policy,
            [t for t, _ in publish_events],
            config.fetch_window,
            config.horizon,
            self.rng_fetch,
        )
        for t, client in fetches:
            push(t, "fetch", client)
        for t, node in config.node_failures:
            push(t, "node_fail", node)
        for t, node in config.node_rejoins:
            push(t, "node_rejoin", node)

        # sorted in reverse so that each pop from the end is the next event
        # and drops the list's hold on it
        events.sort(reverse=True)
        adapter = self.adapter
        ledger = self.ledger
        metrics = self.metrics
        received = metrics.bytes_received

        while events:
            t, _, _, kind, payload = events.pop()
            self.keystore.phase = kind
            if kind == "issue_certificate":
                # CRS draws each chain seed from rng_scheme, in workload order
                anchors = [adapter.anchor_for(serial, t) for serial in payload]
                for cert in make_certificates(
                    payload,
                    [f"subject-{serial}" for serial in payload],
                    anchors,
                    t,
                    t + config.cert_lifetime,
                    self.keystore,
                    self.ca_key,
                ):
                    ledger.add_certificate(cert)
            elif kind == "revoke":
                ledger.revoke(payload, t)
                metrics.revocations_total += 1
                adapter.on_revoke(payload, t)
            elif kind == "publish":
                if ledger.certificates:  # a CA with nothing issued stays quiet
                    adapter.on_publish(t, payload)
            elif kind == "validate":
                client, serial = payload
                # a validation's bytes are what the transport moved during it
                before = received["directory_to_client"]
                used = adapter.validate(client, serial, t)
                d2c = received["directory_to_client"] - before
                metrics.note_validation(t, used, ledger.revoked_at(serial), d2c)
                if self.decision_log is not None:
                    verdict = "use" if used else "drop"
                    self.decision_log.append(f"{t},{client},{serial},{verdict}")
            elif kind == "fetch":
                adapter.on_fetch(payload, t)
            elif kind == "node_fail":
                self.overlay_failed.add(payload)
            elif kind == "node_rejoin":
                self._overlay_rejoin(payload)

        for pair, n in self.keystore.counts.items():
            key = SIGNATURE_KEYS[pair]  # a pair missing from the table raises
            metrics.signature_ops[key] = metrics.signature_ops.get(key, 0) + n
        metrics.note_hash("ca_chain", self.f_ca.apply_count)
        metrics.note_hash("client_chain", self.f_client.apply_count)
        return metrics.finalize()


def run(config: SimConfig) -> MetricsReport:
    return Simulation(config).run()


def run_with_logs(
    config: SimConfig,
    adapter_factory: Optional[Callable[[Simulation], SchemeAdapter]] = None,
) -> tuple[MetricsReport, list[str], list[str]]:
    sim = Simulation(config, adapter_factory=adapter_factory, keep_logs=True)
    report = sim.run()
    return report, list(sim.action_log), list(sim.decision_log)
