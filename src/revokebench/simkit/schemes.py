"""Scheme adapters: thin glue between the event loop and the scheme modules.

Each adapter owns the CA-side publishing schedule and the directory's stored
artifacts for one scheme. All status logic is delegated to the scheme
modules' public operations. Bytes move between actors through the transport
helpers only: `ca_push` books a publication and its one message with
`Metrics.note_message`, `fresh_fetch` books its request and reply with two,
and `dir_fetch` books a directory request and reply with the fused
`Metrics.note_fetch`. The engine reads a validation's directory->client
bytes off the metrics, and signatures are counted by the KeyStore under the
phase the engine names.

Adapters still count two things themselves: `fetch_doc` counts
`base_crl_fetches`, and `CrtAdapter` notes the `ca_tree` hashes and
`crt_recomputed_hashes` from `crt_update`'s stats and the `client_tree`
hashes from the proof length.

Every client follows one rule: it verifies what it receives, once, on
arrival, and decides from what it holds. Full, delta and segmented CRL clients
hold documents (`SchemeAdapter.document_decision`); CRT, CRS, naive and cached
OCSP clients hold a verdict per serial until its document lapses
(`SchemeAdapter.validate`); sliding-delta and WCR clients keep their own state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from collections.abc import Mapping
from typing import Optional

from .. import crs as crs_mod
from .. import crt as crt_mod
from .. import responder as resp_mod
from .. import wcr as wcr_mod
from ..core import CrsAnchor
from ..crl import (
    CrlDocument,
    CrlIssuer,
    CrlKind,
    CrlStatus,
    RedirectTable,
    make_redirect_table,
    resolve_segment,
)
# Clients verify each document in fetch_doc, so a validation only decides
# over what it holds. The name check_status is the per-validation decision
# that perfbench/spans.py times as crl.check_status.
from ..crl import decide_status as check_status
from .config import Scheme, SimConfig

REQUEST_BYTES = 16  # serial + timestamp framing for any directory/CA query
FRESH_STATUS_BYTES = 9  # status tag + framing around a fresh certificate


class SchemeAdapter:
    name = "base"

    def __init__(self, sim) -> None:
        self.sim = sim
        self.config = sim.config
        self.ledger = sim.ledger
        self.keystore = sim.keystore
        self.metrics = sim.metrics
        self.ca_key = sim.ca_key
        # client -> slot -> verified document (document_decision, current_crl)
        self.held: defaultdict[int, dict[str, CrlDocument]] = defaultdict(dict)
        # (client, serial) -> (use, lapses_at) (validate)
        self.verdicts: dict[tuple[int, int], tuple[bool, int]] = {}
        self.fresh_bytes: dict[int, int] = {}  # serial -> fresh reply size (fresh_fetch)

    # -- engine hooks --------------------------------------------------------

    def publish_events(self) -> list[tuple[int, str]]:
        return []

    def anchors_for(self, serials: list[int], now: int) -> list[Optional[CrsAnchor]]:
        """The CRS anchor to put in each certificate issued at now, in order."""
        return [None] * len(serials)

    def on_revoke(self, serial: int, now: int) -> None:
        pass

    def on_publish(self, now: int, tag: str) -> None:
        pass

    # -- the two client models ------------------------------------------------

    def validate(self, client: int, serial: int, now: int) -> bool:
        """The client's decision: True to use the certificate. Per-serial
        schemes keep this one: the client uses its verdict on the serial until
        it lapses, then `fetch_verdict(serial, now)` moves one document,
        verifies it once and returns the new (use, lapses_at)."""
        key = (client, serial)
        verdict = self.verdicts.get(key)
        if verdict is None or now >= verdict[1]:
            verdict = self.verdicts[key] = self.fetch_verdict(serial, now)
        return verdict[0]

    def document_decision(self, client: int, serial: int, now: int, offers, table=None) -> bool:
        """Decide over the documents the client holds in the slots of `offers`
        (slot -> the directory's document). While the answer is stale, fetch
        and verify the next offered document, hold it and decide again."""
        held = self.held[client]
        status = check_status(serial, filter(None, map(held.get, offers)), now, table)
        for slot, doc in offers.items():
            if status is not CrlStatus.STALE_INFORMATION:
                break
            if doc is not None:  # e.g. no delta since the last base
                self.fetch_doc(now, doc)
                held[slot] = doc
                status = check_status(serial, filter(None, map(held.get, offers)), now, table)
        return status is not CrlStatus.REVOKED

    # -- transport helpers ----------------------------------------------------

    def ca_push(self, kind: str, nbytes: int, count: int = 1) -> None:
        """Publish `count` documents of one kind, nbytes in all, to the directory."""
        self.metrics.note_publication(kind, count)
        self.metrics.note_message("ca_to_directory", nbytes)
        self.sim.overlay_push()

    def dir_fetch(self, now: int, nbytes: int, request: int = REQUEST_BYTES) -> None:
        """One client request of `request` bytes answered by the directory
        with nbytes, booked in one step."""
        self.metrics.note_fetch(now, request, nbytes)

    def fetch_doc(self, now: int, doc: CrlDocument | RedirectTable) -> None:
        """Fetch one signed document from the directory and verify it under
        the CA key. A client caches only what passed here."""
        self.dir_fetch(now, doc.wire_size)
        if not doc.verify(self.keystore, self.ca_key):
            raise AssertionError("genuine document failed verification")
        if isinstance(doc, CrlDocument) and doc.kind is CrlKind.FULL:
            self.metrics.base_crl_fetches += 1

    def current_crl(self, client: int, now: int) -> tuple[CrlDocument, int]:
        """The client's held CRL while it covers `now`, else the adapter's
        `current` CRL fetched and held. Returns the document and the bytes
        fetched (0 when held), which only action logs read."""
        held = self.held[client]
        doc = held.get("crl")
        if doc is not None and doc.covers(now):
            return doc, 0
        doc = self.current
        self.fetch_doc(now, doc)
        held["crl"] = doc
        return doc, doc.wire_size

    def fresh_fetch(self, serial: int, now: int) -> wcr_mod.FreshFetch:
        """Authoritative status query to the CA: the certificate as issued, unless
        revoked. Its signature is the one counted under ca_issue. The reply's
        size is fixed at issuance, so the certificate is built once, to size
        it, and not kept."""
        nbytes = self.fresh_bytes.get(serial)
        if nbytes is None:
            cert = self.ledger.certificates[serial]
            nbytes = self.fresh_bytes[serial] = cert.wire_size + FRESH_STATUS_BYTES
        self.metrics.note_message("client_to_ca", REQUEST_BYTES)
        self.metrics.note_message("ca_to_client", nbytes)
        return wcr_mod.FreshFetch(self.ledger.is_revoked(serial, now), nbytes)

    def log_actions(self, client: int, actions) -> None:
        if self.sim.action_log is not None:
            for t, serial, action, nbytes in actions:
                self.sim.action_log.append(f"{t},{client},{serial},{action},{nbytes}")


def _base_grid(horizon: int, period: int) -> list[tuple[int, str]]:
    return [(t, "base") for t in range(0, horizon, period)]


def _delta_grid(config: SimConfig, at_bases: bool) -> list[tuple[int, str]]:
    """Bases every base_period, then deltas every delta_period: on the base
    instants too only `at_bases`. The irregular extra delta times inside the
    horizon ride on top of the regular grid, base instants included."""
    horizon, base = config.horizon, config.base_period
    ticks = {t for t in range(0, horizon, config.delta_period) if at_bases or t % base}
    ticks.update(t for t in config.extra_delta_times if 0 < t < horizon)
    return _base_grid(horizon, base) + [(t, "delta") for t in sorted(ticks)]


# ---------------------------------------------------------------------------
# CRL family
# ---------------------------------------------------------------------------

class FullCrlAdapter(SchemeAdapter):
    name = "full_crl"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = CrlIssuer(self.keystore, self.ca_key, self.config.schedule)
        self.current: Optional[CrlDocument] = None

    def publish_events(self) -> list[tuple[int, str]]:
        return _base_grid(self.config.horizon, self.issuer.schedule.release_interval)

    def on_publish(self, now: int, tag: str) -> None:
        doc = self.issuer.issue_full(self.ledger.revoked_non_expired(now), now)
        self.current = doc
        self.ca_push("full_crl", doc.wire_size)

    def on_fetch(self, client: int, now: int) -> None:
        if self.current is not None:  # nothing published yet -> nothing to prefetch
            self.fetch_doc(now, self.current)
            self.held[client]["crl"] = self.current

    def validate(self, client: int, serial: int, now: int) -> bool:
        return self.document_decision(client, serial, now, {"crl": self.current})


class DeltaCrlAdapter(SchemeAdapter):
    name = "delta_crl"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = CrlIssuer(self.keystore, self.ca_key, self.config.schedule)
        self.base: Optional[CrlDocument] = None
        self.delta: Optional[CrlDocument] = None

    def publish_events(self) -> list[tuple[int, str]]:
        return _delta_grid(self.config, at_bases=False)

    def on_publish(self, now: int, tag: str) -> None:
        if tag == "base":
            self.base = self.issuer.issue_full(self.ledger.revoked_non_expired(now), now)
            self.delta = None
            self.ca_push("base_crl", self.base.wire_size)
        else:
            since = [
                r
                for r in self.ledger.revoked_non_expired(now)
                if r.revoked_at > self.base.this_update
            ]
            self.delta = self.issuer.issue_delta(since, self.base, now)
            self.ca_push("delta_crl", self.delta.wire_size)

    def validate(self, client: int, serial: int, now: int) -> bool:
        offers = {"delta": self.delta, "base": self.base}
        return self.document_decision(client, serial, now, offers)


class _SlidingClient:
    """Accumulated sliding-delta knowledge: a watermark plus merged entries.

    Semantically identical to crl.decide_status over every document the client
    has ever fetched (the module tests pin that equivalence); keeping the
    merged view bounds client memory by the revoked population instead of the
    fetch count. covered_until is the knowledge watermark; current_until is
    the furthest next_update among the base and the deltas chained onto it,
    since an older base can outlive newer short-period deltas.

    A delta that moves the watermark (this_update >= covered_until) merges
    only its entries revoked after covered_until. That is exact: after any
    accepted chain, `known` already holds every serial revoked by
    covered_until and not expired then, and a serial the delta lists is not
    expired at its this_update, so not at covered_until either. A base, or a
    delta older than the watermark, is merged whole. The premise is an
    honest issuer: each document lists every revocation in its window among
    the certificates not yet expired. A directory replaying old genuine
    documents keeps it, since an old delta is merged whole; ROADMAP item 15,
    which sets clients against a hostile directory, revisits it.
    """

    __slots__ = ("base_seen", "covered_until", "current_until", "known")

    def __init__(self) -> None:
        self.base_seen = False
        self.covered_until = 0
        self.current_until = 0
        self.known: dict[int, int] = {}

    def accept(self, doc: CrlDocument) -> bool:
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
            return False  # a gap: some revocation may have scrolled out of the window
        if doc.this_update >= self.covered_until:
            self.known.update(doc.revoked_after(self.covered_until))
            self.covered_until = doc.this_update
            self.current_until = max(self.current_until, doc.next_update)
        else:
            self.known.update(doc.entries)
        return True

    def status(self, serial: int, now: int) -> CrlStatus:
        if not self.base_seen or not now < self.current_until:
            return CrlStatus.STALE_INFORMATION
        return CrlStatus.REVOKED if serial in self.known else CrlStatus.NOT_REVOKED


class SlidingDeltaAdapter(SchemeAdapter):
    name = "sliding_delta"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = CrlIssuer(self.keystore, self.ca_key, self.config.schedule)
        self.base: Optional[CrlDocument] = None
        self.delta: Optional[CrlDocument] = None
        self.clients: dict[int, _SlidingClient] = {}

    def publish_events(self) -> list[tuple[int, str]]:
        # Sliding deltas are decoupled from bases: one goes out every delta
        # tick, base times included, so the latest delta always covers `now`.
        return _delta_grid(self.config, at_bases=True)

    def on_publish(self, now: int, tag: str) -> None:
        records = self.ledger.revoked_non_expired(now)
        if tag == "base":
            self.base = self.issuer.issue_full(records, now)
            self.ca_push("base_crl", self.base.wire_size)
        else:
            self.delta = self.issuer.issue_sliding_delta(records, now)
            self.ca_push("sliding_delta", self.delta.wire_size)

    def validate(self, client: int, serial: int, now: int) -> bool:
        state = self.clients.setdefault(client, _SlidingClient())
        status = state.status(serial, now)
        if status is CrlStatus.STALE_INFORMATION:
            delta = self.delta if self.delta is not None and self.delta.covers(now) else None
            if delta is not None:
                self.fetch_doc(now, delta)
                state.accept(delta)
            status = state.status(serial, now)
            if status is CrlStatus.STALE_INFORMATION:
                self.fetch_doc(now, self.base)
                state.accept(self.base)
                if delta is not None:
                    state.accept(delta)  # fetched above; chains onto the new base
                status = state.status(serial, now)
        return status is not CrlStatus.REVOKED


class SegmentedAdapter(SchemeAdapter):
    name = "segmented"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = CrlIssuer(self.keystore, self.ca_key, self.config.schedule)
        self.table = make_redirect_table(
            1, self._ranges(), self.keystore, self.ca_key
        )
        self.segdocs: dict[str, CrlDocument] = {}

    def _ranges(self) -> list[tuple[int, int, str]]:
        n = self.config.segments
        # The envelope spans every serial the CA could allocate this run.
        span = max(2 * self.config.population + 2, n + 1)
        width = -(-span // n)
        ranges = []
        lo = 0
        for i in range(n):
            hi = 2**64 - 2 if i == n - 1 else lo + width - 1
            ranges.append((lo, hi, f"seg{i:03d}"))
            lo = hi + 1
        return ranges

    def publish_events(self) -> list[tuple[int, str]]:
        return _base_grid(self.config.horizon, self.config.base_period)

    def on_publish(self, now: int, tag: str) -> None:
        docs = self.issuer.segment(self.ledger.revoked_non_expired(now), self.table, now)
        self.segdocs = {d.segment_id: d for d in docs}
        self.ca_push("segment_crl", sum(d.wire_size for d in docs), len(docs))
        if now == 0:
            self.ca_push("redirect_table", self.table.wire_size)

    def validate(self, client: int, serial: int, now: int) -> bool:
        if client not in self.held:  # a client's first validation fetches the table
            self.fetch_doc(now, self.table)
        seg = resolve_segment(serial, self.table)
        offers = {seg: self.segdocs.get(seg)}
        return self.document_decision(client, serial, now, offers, table=self.table)


# ---------------------------------------------------------------------------
# CRS
# ---------------------------------------------------------------------------

class CrsAdapter(SchemeAdapter):
    """Chain tokens served from a per-period view of the authority.

    A publication records only the period's grid index and the authority's
    revocation count. The directory then builds a token when a client
    fetches it, as of that count, so it is the token an eager publish_update
    would have pushed: a revocation after the publication shows from the
    next period on. Pushed bytes are still one token per certificate within
    its lifetime.
    """

    name = "crs"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.authority = crs_mod.CrsAuthority(sim.f_ca)
        self.period = self.config.crs_period
        self.lifetime = self.config.crs_lifetime_periods
        self.issue_grid: dict[int, int] = {}
        self.grids: list[int] = []  # issue grid per certificate, in issue order
        self.snapshot: Optional[tuple[int, int]] = None  # (grid, revocation count)
        self.token_bytes = crs_mod.token_wire_size(sim.f_ca)

    def anchors_for(self, serials: list[int], now: int) -> list[Optional[CrsAnchor]]:
        grid = now // self.period
        # No period past the run's last one is ever asked, so the authority
        # keeps only the chain values up to it. A new user can be issued at
        # the horizon itself, where that bound is 0.
        served = max(0, min(self.lifetime, self.config.crs_last_period - grid))
        issued = self.authority.setup(
            serials, self.lifetime, self.period, self.sim.rng_scheme, served=served
        )
        self.issue_grid.update(dict.fromkeys(serials, grid))
        self.grids += [grid] * len(serials)  # issues arrive in time order, so this stays sorted
        return [anchor for anchor, _ in issued]

    def on_revoke(self, serial: int, now: int) -> None:
        self.authority.revoke(serial)

    def publish_events(self) -> list[tuple[int, str]]:
        return [(t, "tokens") for t in range(self.period, self.config.horizon, self.period)]

    def on_publish(self, now: int, tag: str) -> None:
        grid = now // self.period
        self.snapshot = (grid, self.authority.revocation_count)
        # certificates with 1 <= grid - issue_grid <= lifetime
        live = bisect_right(self.grids, grid - 1) - bisect_left(self.grids, grid - self.lifetime)
        self.ca_push("crs_update", live * self.token_bytes)

    def directory_token(self, serial: int) -> crs_mod.CrsToken:
        """The serial's token in the last published period."""
        grid, cutoff = self.snapshot
        return self.authority.issue_token(serial, grid - self.issue_grid[serial], as_of=cutoff)

    def fetch_verdict(self, serial: int, now: int) -> tuple[bool, int]:
        """Fetch and verify the serial's token; it lapses when the next period starts."""
        grid = now // self.period
        lapses_at = (grid + 1) * self.period
        claimed = grid - self.issue_grid[serial]
        if claimed == 0:
            # The anchor inside the certificate is the period-0 statement.
            return True, lapses_at
        token = self.directory_token(serial)
        self.dir_fetch(now, self.token_bytes)
        anchor = self.ledger.crs_anchor(serial)
        result = crs_mod.crs_verify(token, anchor, claimed, self.sim.f_client)
        if result is crs_mod.CrsStatus.INVALID_TOKEN:
            raise AssertionError(f"genuine token failed verification for serial {serial}")
        return result is crs_mod.CrsStatus.VALID_AT_PERIOD, lapses_at


# ---------------------------------------------------------------------------
# CRT
# ---------------------------------------------------------------------------

class CrtAdapter(SchemeAdapter):
    name = "crt"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.tree: Optional[crt_mod.CrtTree] = None
        # leaf index -> the directory's proof on the current tree, built on
        # first request and shared by every client asking for that leaf
        self.proofs: dict[int, crt_mod.CrtProof] = {}

    def publish_events(self) -> list[tuple[int, str]]:
        return _base_grid(self.config.horizon, self.config.base_period)

    def on_publish(self, now: int, tag: str) -> None:
        want = {r.serial for r in self.ledger.revoked_non_expired(now)}
        have = set(self.tree.serials) if self.tree is not None else set()
        self.tree, stats = crt_mod.crt_update(
            self.tree,
            sorted(want - have),
            sorted(have - want),
            now,
            self.config.base_period,
            self.keystore,
            self.ca_key,
        )
        self.metrics.crt_recomputed_hashes += stats.recomputed_internal
        self.metrics.note_hash("ca_tree", stats.recomputed_internal + stats.recomputed_leaves)
        pushed = stats.recomputed_leaves * 16 + stats.recomputed_internal * 32
        self.proofs.clear()
        self.ca_push("crt_root", pushed + self.tree.signed_root.wire_size)

    def fetch_verdict(self, serial: int, now: int) -> tuple[bool, int]:
        """Fetch and verify the serial's proof on the current tree; it lapses with the root."""
        index = self.tree.leaf_for(serial)
        proof = self.proofs.get(index)
        if proof is None:
            proof = self.proofs[index] = crt_mod.crt_prove(self.tree, serial)
        self.dir_fetch(now, proof.wire_size)
        verdict = crt_mod.crt_verify(proof, serial, self.keystore, self.ca_key, now)
        self.metrics.note_hash("client_tree", len(proof.siblings) + 1)
        if verdict not in (crt_mod.CrtVerdict.REVOKED, crt_mod.CrtVerdict.VALID):
            raise AssertionError(f"genuine proof failed verification for serial {serial}")
        return verdict is crt_mod.CrtVerdict.VALID, proof.signed_root.next_update


# ---------------------------------------------------------------------------
# WCR
# ---------------------------------------------------------------------------

class _WcrServices:
    """One client's service endpoints backed by the simulated directory and CA."""

    def __init__(self, adapter: "WcrAdapter", client: int) -> None:
        self.adapter = adapter
        self.client = client

    def fetch_fresh_certificate(self, serial: int, now: int) -> wcr_mod.FreshFetch:
        return self.adapter.fresh_fetch(serial, now)

    def fetch_latest_crl(self, now: int) -> wcr_mod.CrlFetch:
        return wcr_mod.CrlFetch(*self.adapter.current_crl(self.client, now))


class WcrAdapter(SchemeAdapter):
    name = "wcr"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.issuer = wcr_mod.WcrIssuer(
            self.keystore, self.ca_key, self.config.base_period, self.config.wcr_window_size
        )
        self.client_config = wcr_mod.WcrClientConfig(
            clean_duration=self.config.wcr_clean_duration,
            crl_period=self.config.base_period,
            window_size=self.config.wcr_window_size,
        )
        self.current: Optional[CrlDocument] = None
        self.states: dict[tuple[int, int], wcr_mod.WcrClientState] = {}
        self.services: dict[int, _WcrServices] = {}

    def publish_events(self) -> list[tuple[int, str]]:
        return _base_grid(self.config.horizon, self.config.base_period)

    def on_publish(self, now: int, tag: str) -> None:
        self.current = self.issuer.issue(
            self.ledger.revoked_non_expired(now), now // self.config.base_period, now
        )
        self.ca_push("wcr_crl", self.current.wire_size)

    def validate(self, client: int, serial: int, now: int) -> bool:
        key = (client, serial)
        state = self.states.get(key)
        if state is None:
            state = wcr_mod.WcrClientState(serial)
        services = self.services.get(client)
        if services is None:
            services = self.services[client] = _WcrServices(self, client)
        decision, self.states[key], actions = wcr_mod.wcr_validate(
            state, now, services, self.client_config
        )
        self.log_actions(client, actions)
        return decision is wcr_mod.WcrDecision.USE


# ---------------------------------------------------------------------------
# OCSP and the naive signed-statement baseline
# ---------------------------------------------------------------------------

class OcspAdapter(SchemeAdapter):
    name = "ocsp"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        lifetime = self.config.ocsp_key_lifetime
        keys = [
            resp_mod.ResponderKey(key_id=f"resp{i:03d}", valid_from=t, valid_to=t + lifetime)
            for i, t in enumerate(range(0, self.config.horizon, lifetime))
        ]
        self.chain = resp_mod.make_key_chain(keys, self.keystore, self.ca_key, sim.rng_scheme)
        self.responder = resp_mod.OcspResponder(self.keystore, self.chain, self.ledger)

    def validate(self, client: int, serial: int, now: int) -> bool:
        if self.config.ocsp_max_age > 0:
            return super().validate(client, serial, now)
        return self.fetch_verdict(serial, now)[0]  # nonce mode: every validation asks

    def fetch_verdict(self, serial: int, now: int) -> tuple[bool, int]:
        """Ask the responder and verify its answer; it lapses past ocsp_max_age."""
        request = resp_mod.make_request(serial, now, self.sim.rng_nonce)
        response = self.responder.respond(request)
        self.dir_fetch(now, response.wire_size, request=request.wire_size)
        if not resp_mod.verify_response(response, request, self.keystore, self.chain):
            raise AssertionError("genuine responder answer failed verification")
        use = response.status is not resp_mod.OcspStatus.REVOKED
        return use, resp_mod.cached_until(response, self.config.ocsp_max_age)


class NaiveStatusAdapter(SchemeAdapter):
    name = "naive_signed_status"

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.statements: Mapping[int, resp_mod.SignedStatusStatement] = {}
        self.period = self.config.crs_period

    def publish_events(self) -> list[tuple[int, str]]:
        return [(t, "statements") for t in range(self.period, self.config.horizon, self.period)]

    def on_publish(self, now: int, tag: str) -> None:
        period = now // self.period
        self.statements = resp_mod.publish_statements(
            self.ledger, period, now, self.keystore, self.ca_key
        )
        self.ca_push("status_statements", self.statements.wire_size, len(self.statements))

    def fetch_verdict(self, serial: int, now: int) -> tuple[bool, int]:
        """Fetch and verify the serial's statement; it lapses when the next period starts."""
        period = now // self.period
        lapses_at = (period + 1) * self.period
        statement = self.statements.get(serial)
        if statement is None:
            return True, lapses_at  # none published since issuance: issuance is the statement
        self.dir_fetch(now, statement.wire_size)
        if not resp_mod.verify_statement(statement, self.keystore, self.ca_key, period):
            raise AssertionError("genuine statement failed verification")
        return statement.status is not resp_mod.OcspStatus.REVOKED, lapses_at


ADAPTERS = {
    Scheme.FULL_CRL: FullCrlAdapter,
    Scheme.DELTA_CRL: DeltaCrlAdapter,
    Scheme.SLIDING_DELTA: SlidingDeltaAdapter,
    Scheme.SEGMENTED: SegmentedAdapter,
    Scheme.CRS: CrsAdapter,
    Scheme.CRT: CrtAdapter,
    Scheme.WCR: WcrAdapter,
    Scheme.OCSP: OcspAdapter,
    Scheme.NAIVE_SIGNED_STATUS: NaiveStatusAdapter,
}
