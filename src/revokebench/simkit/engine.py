"""Deterministic single-threaded event loop.

Events are processed in (time, kind order, insertion order); the kind order
puts issuance before revocation before publication before validation before
fetches and overlay node events at any shared instant, so a document
published at t already reflects a revocation at t and a validation at t sees
the document. Every event is known before the run starts and none is
scheduled during it.

Validations are most of the events and the workload already holds them
time-sorted, so they are never queued: the loop walks `workload.validations`
in order. The other events are sorted once; before each validation at t the
loop pops and runs every one whose (time, kind order) is below
(t, validate), that is, an earlier one, or an issuance, revocation or
publication at t. What is left after the last validation runs at the end.

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
        with the same workload fields; otherwise it is generated here. The
        run walks its streams in order, so a given workload whose streams
        are not time-sorted raises ConfigError."""
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
        if workload is None:
            workload = generate_workload(config)  # time-sorted by construction
        else:
            for name in ("issues", "revocations", "validations"):
                stream = getattr(workload, name)
                if any(a[0] > b[0] for a, b in zip(stream, stream[1:])):
                    raise ConfigError(f"workload.{name} is not time-sorted")
        self.workload = workload
        self.action_log: Optional[list[str]] = [] if keep_logs else None
        self.decision_log: Optional[list[str]] = [] if keep_logs else None
        self.keystore.phase = "setup"
        self.adapter = (adapter_factory or ADAPTERS[config.scheme])(self)

        self.overlay: Optional[dep_mod.DependerGraph] = None
        self.overlay_failed: set[int] = set()
        if config.depender_nodes > 0:
            self.overlay = dep_mod.build_graph(
                config.depender_nodes, config.depender_k, substream(config.seed, "depender")
            )

    # -- overlay -------------------------------------------------------------

    def overlay_push(self) -> None:
        if self.overlay is None:
            return
        message = dep_mod.PropagationMessage(
            sequence=self.overlay.next_sequence,
            payload=b"",
            origin=self.overlay.root,
            kind=dep_mod.MessageKind.FULL,
        )
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

    def _run_event(self, t: int, _order: int, _seq: int, kind: str, payload: object) -> None:
        """Run one event other than a validation."""
        self.keystore.phase = kind
        if kind == "issue_certificate":
            # CRS draws each chain seed from rng_scheme, in workload order
            anchor_for = self.adapter.anchor_for
            anchors = [anchor_for(serial, t) for serial in payload]
            add_certificate = self.ledger.add_certificate
            for cert in make_certificates(
                payload,
                [f"subject-{serial}" for serial in payload],
                anchors,
                t,
                t + self.config.cert_lifetime,
                self.keystore,
                self.ca_key,
            ):
                add_certificate(cert)
        elif kind == "revoke":
            self.ledger.revoke(payload, t)
            self.metrics.revocations_total += 1
            self.adapter.on_revoke(payload, t)
        elif kind == "publish":
            if self.ledger.certificates:  # a CA with nothing issued stays quiet
                self.adapter.on_publish(t, payload)
        elif kind == "fetch":
            self.adapter.on_fetch(payload, t)
        elif kind == "node_fail":
            self.overlay_failed.add(payload)
        elif kind == "node_rejoin":
            self._overlay_rejoin(payload)

    def run(self) -> MetricsReport:
        config = self.config
        # every event but validations, as (time, kind order, insertion order, kind, payload)
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
        run_event = self._run_event
        keystore = self.keystore
        # bound here, after any tracer has wrapped the class attributes
        validate = self.adapter.validate
        note_validation = self.metrics.note_validation
        revoked_at = self.ledger.revoked_at
        received = self.metrics.bytes_received
        decision_log = self.decision_log

        # validations are time-sorted, so walking them in order and running
        # every event that sorts before each one keeps the (time, kind order)
        validate_order = EVENT_ORDER["validate"]
        for t, client, serial in self.workload.validations:
            bound = (t, validate_order)
            while events and events[-1] < bound:
                run_event(*events.pop())
            keystore.phase = "validate"
            # a validation's bytes are what the transport moved during it
            before = received["directory_to_client"]
            used = validate(client, serial, t)
            d2c = received["directory_to_client"] - before
            note_validation(t, used, revoked_at(serial), d2c)
            if decision_log is not None:
                verdict = "use" if used else "drop"
                decision_log.append(f"{t},{client},{serial},{verdict}")
        while events:
            run_event(*events.pop())

        metrics = self.metrics
        for pair, n in keystore.counts.items():
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
