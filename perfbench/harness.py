"""Runs one workload repeatedly and turns its runs into the benchmark's metrics.

A rep is one pass over every config of the workload: for each scheme the
harness times `Simulation(config)` (set-up) and `.run()`, then hashes the
report and applies the correctness gate. Reps repeat until the time budget is
spent; each end-to-end metric is the median over the untraced reps. Times of
the end-to-end metrics are stated at a reference machine speed measured by a
probe that runs alongside (see speed.py). With tracing on, reps alternate
untraced and traced, the per-layer metrics are medians over the traced reps,
and the ratio of the two medians of wall time is the tracing overhead.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from revokebench.simkit import MetricsReport, Scheme, SimConfig, Simulation
from revokebench.simkit import schedule_staggered_fetch, substream

from spans import SpanStats, Tracer
from speed import SpeedProbe

# (name, unit) of every metric the benchmark emits; BENCHMARK.json lists the same.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "events/s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("simkit.workload.generate_s", "s"),
    ("simkit.workload.events", "count"),
    ("simkit.engine.init_s", "s"),
    ("simkit.engine.loop_self_s", "s"),
    ("simkit.engine.events", "count"),
    ("simkit.schemes.validate.self_s", "s"),
    ("simkit.schemes.validate.p50_us", "us"),
    ("simkit.schemes.validate.p99_us", "us"),
    ("simkit.schemes.validate.samples", "count"),
    ("simkit.schemes.on_publish.self_s", "s"),
    ("simkit.schemes.cache_hit_ratio", "ratio"),
    *((f"simkit.scheme_s.{scheme.value}", "s") for scheme in Scheme),
    ("simkit.metrics.note_validation.s", "s"),
    ("core.make_certificate.s", "s"),
    ("core.make_certificate.calls", "count"),
    ("core.revoked_non_expired.s", "s"),
    ("core.revoked_non_expired.calls", "count"),
    ("core.sign_ops", "count"),
    ("core.verify_ops", "count"),
    ("core.owf_apply_ops", "count"),
    ("core.verify_per_validation", "ops/validation"),
    ("core.report_client_verify_ops", "count"),
    ("core.report_hash_ops", "count"),
    ("crl.issue.s", "s"),
    ("crl.issue.calls", "count"),
    ("crl.issue.bytes", "bytes"),
    ("crl.check_status.s", "s"),
    ("crl.check_status.calls", "count"),
    ("crs.setup.s", "s"),
    ("crs.publish_update.s", "s"),
    ("crs.tokens_built", "count"),
    ("crs.tokens_fetched_ratio", "ratio"),
    ("crs.verify.s", "s"),
    ("crt.build.s", "s"),
    ("crt.update.s", "s"),
    ("crt.update.reuse_ratio", "ratio"),
    ("crt.prove.s", "s"),
    ("crt.verify.s", "s"),
    ("wcr.issue.s", "s"),
    ("wcr.validate.s", "s"),
    ("responder.publish_statements.s", "s"),
    ("responder.verify_statement.s", "s"),
    ("responder.respond.s", "s"),
    ("responder.verify_response.s", "s"),
    ("depender.propagate.s", "s"),
    ("depender.propagate.calls", "count"),
    ("depender.rejoin.calls", "count"),
    ("depender.missed", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Untraced reps a run makes at least: a median, and a repeat to compare hashes.
MIN_REPS = 3
# Set-ups per scheme in an untraced rep. Set-up is short, so one timing of it
# is at the mercy of sub-second swings in machine speed.
SETUPS = 3


@dataclass
class SchemeRun:
    """One scheme's `Simulation(config).run()` and what the harness saw of it."""

    scheme: str
    setup_s: float  # median over the set-ups
    run_s: float
    report: Optional[MetricsReport] = None
    sha256: Optional[str] = None
    error: Optional[str] = None
    events: int = 0  # popped by the event loop
    workload_events: int = 0  # issues, revocations and validations generated
    sign_ops: int = 0
    verify_ops: int = 0
    owf_apply_ops: int = 0
    # Host (start, end) of every set-up, then of the run.
    intervals: list[tuple[float, float]] = field(default_factory=list)

    def at_reference_speed(self, probe: SpeedProbe) -> None:
        """Restate setup_s and run_s at the probe's reference speed."""
        if self.error is not None:
            return
        *setups, run = self.intervals
        self.setup_s = statistics.median(probe.reference_s(*iv) for iv in setups)
        self.run_s = probe.reference_s(*run)


def report_sha256(report: MetricsReport) -> str:
    """sha256 of the report exactly as `revokebench sim` writes report.json."""
    return hashlib.sha256((report.to_json() + "\n").encode()).hexdigest()


def loop_events(sim: Simulation) -> int:
    """Events the engine pushes, and so pops, in `sim.run()`.

    Recomputed from the simulation's inputs: adapters' publish schedules are
    pure, and the fetch schedule is replayed from its own seeded sub-stream.
    """
    config = sim.config
    w = sim.workload
    publishes = sim.adapter.publish_events()
    fetches = schedule_staggered_fetch(
        range(config.n_clients),
        config.fetch_policy,
        [t for t, _ in publishes],
        config.fetch_window,
        config.horizon,
        substream(config.seed, "fetch"),
    )
    return (
        len(w.issues) + len(w.revocations) + len(w.validations) + len(publishes)
        + len(fetches) + len(config.node_failures) + len(config.node_rejoins)
    )


def run_scheme(config: SimConfig, setups: int = SETUPS) -> SchemeRun:
    """Set the simulation up `setups` times, then run the last one.

    setup_s is the median of the set-up times; only one set-up counts
    toward the scheme's wall time.
    """
    intervals = []
    try:
        for _ in range(setups):
            sim = None  # free the previous simulation before building the next
            gc.collect()
            t0 = perf_counter()
            sim = Simulation(config)
            t1 = perf_counter()
            intervals.append((t0, t1))
        report = sim.run()
        t2 = perf_counter()
    except Exception:
        return SchemeRun(
            scheme=config.scheme.value,
            setup_s=statistics.median(b - a for a, b in intervals) if intervals else 0.0,
            run_s=0.0,
            error=traceback.format_exc(),
        )
    intervals.append((t1, t2))
    w = sim.workload
    return SchemeRun(
        scheme=config.scheme.value,
        setup_s=statistics.median(b - a for a, b in intervals[:-1]),
        run_s=t2 - t1,
        intervals=intervals,
        report=report,
        sha256=report_sha256(report),
        events=loop_events(sim),
        workload_events=len(w.issues) + len(w.revocations) + len(w.validations),
        sign_ops=sim.keystore.sign_count,
        verify_ops=sim.keystore.verify_count,
        owf_apply_ops=sim.f_ca.apply_count + sim.f_client.apply_count,
    )


def run_rep(configs: list[SimConfig], tracer: Optional[Tracer] = None) -> list[SchemeRun]:
    """One run of every config; traced reps set each simulation up once."""
    if tracer is None:
        return [run_scheme(c) for c in configs]
    runs = []
    with tracer.installed():
        for c in configs:
            with tracer.span(f"simkit.scheme.{c.scheme.value}"):
                runs.append(run_scheme(c, setups=1))
    return runs


def gate(run: SchemeRun, reference_sha: Optional[str], traced: bool = False) -> list[str]:
    """Reasons a scheme run fails the correctness gate; empty when it passes.

    reference_sha is the hash of the first untraced run of the same config
    and seed; a traced run must match it too, since tracing must not perturb
    results.
    """
    if run.error is not None:
        return ["raised"]
    reasons = []
    if run.report.false_revocation > 0:
        reasons.append("false_revocation")
    if run.report.conservation_delta() != 0:
        reasons.append("byte_conservation")
    if reference_sha is not None and run.sha256 != reference_sha:
        reasons.append("traced_report_differs" if traced else "repeat_report_differs")
    return reasons


def end_to_end(runs: list[SchemeRun]) -> dict[str, float]:
    """End-to-end metrics of one untraced rep, summed over its scheme runs."""
    run_s = sum(r.run_s for r in runs)
    return {
        "wall_s": sum(r.setup_s + r.run_s for r in runs),
        "setup_s": sum(r.setup_s for r in runs),
        "events_per_s": _ratio(sum(r.events for r in runs), run_s),
    }


def host_wall_s(runs: list[SchemeRun]) -> float:
    """wall_s of one rep in host seconds, as the clock read them."""
    total = 0.0
    for r in runs:
        if r.intervals:
            *setups, (t1, t2) = r.intervals
            total += statistics.median(b - a for a, b in setups) + t2 - t1
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def per_layer(tracer: Tracer, runs: list[SchemeRun]) -> dict[str, float]:
    """Per-layer metrics of one traced rep (all but trace.overhead_frac)."""
    spans = tracer.summary()
    counts = tracer.counts
    reports = [r.report for r in runs if r.report is not None]

    def stat(name: str) -> SpanStats:
        return spans.get(name, SpanStats())

    def total(name: str) -> float:
        return stat(name).total_s

    def self_s(name: str) -> float:
        return stat(name).self_s

    def calls(name: str) -> int:
        return stat(name).calls

    validations = sum(rep.validations for rep in reports)
    requests = sum(sum(rep.requests_per_interval) for rep in reports)
    crs_requests = sum(
        sum(rep.requests_per_interval) for rep in reports if rep.scheme == Scheme.CRS.value
    )
    verify_ops = sum(r.verify_ops for r in runs)
    samples = sorted(stat("simkit.schemes.validate").samples_us)

    out = {
        "simkit.workload.generate_s": total("simkit.workload.generate"),
        "simkit.workload.events": sum(r.workload_events for r in runs),
        "simkit.engine.init_s": total("simkit.engine.init"),
        "simkit.engine.loop_self_s": self_s("simkit.engine.run"),
        "simkit.engine.events": sum(r.events for r in runs),
        "simkit.schemes.validate.self_s": self_s("simkit.schemes.validate"),
        "simkit.schemes.validate.p50_us": _percentile(samples, 50),
        "simkit.schemes.validate.p99_us": _percentile(samples, 99),
        "simkit.schemes.validate.samples": len(samples),
        "simkit.schemes.on_publish.self_s": self_s("simkit.schemes.on_publish"),
        "simkit.schemes.cache_hit_ratio": 1.0 - _ratio(requests, validations),
    }
    for scheme in Scheme:
        out[f"simkit.scheme_s.{scheme.value}"] = sum(
            r.setup_s + r.run_s for r in runs if r.scheme == scheme.value
        )
    out.update({
        "simkit.metrics.note_validation.s": total("simkit.metrics.note_validation"),
        "core.make_certificate.s": total("core.make_certificate"),
        "core.make_certificate.calls": calls("core.make_certificate"),
        "core.revoked_non_expired.s": total("core.revoked_non_expired"),
        "core.revoked_non_expired.calls": calls("core.revoked_non_expired"),
        "core.sign_ops": sum(r.sign_ops for r in runs),
        "core.verify_ops": verify_ops,
        "core.owf_apply_ops": sum(r.owf_apply_ops for r in runs),
        "core.verify_per_validation": _ratio(verify_ops, validations),
        "core.report_client_verify_ops": sum(
            rep.signature_ops.get("client_verify", 0) for rep in reports
        ),
        "core.report_hash_ops": sum(sum(rep.hash_ops.values()) for rep in reports),
        "crl.issue.s": total("crl.issue"),
        "crl.issue.calls": calls("crl.issue"),
        "crl.issue.bytes": counts["crl.issue.bytes"],
        "crl.check_status.s": total("crl.check_status"),
        "crl.check_status.calls": calls("crl.check_status"),
        "crs.setup.s": total("crs.setup"),
        "crs.publish_update.s": total("crs.publish_update"),
        "crs.tokens_built": counts["crs.tokens_built"],
        "crs.tokens_fetched_ratio": _ratio(crs_requests, counts["crs.tokens_built"]),
        "crs.verify.s": total("crs.verify"),
        "crt.build.s": total("crt.build"),
        "crt.update.s": total("crt.update"),
        "crt.update.reuse_ratio": (
            1.0 - _ratio(counts["crt.update.recomputed"], counts["crt.update.internal_nodes"])
            if counts["crt.update.internal_nodes"]
            else 0.0
        ),
        "crt.prove.s": total("crt.prove"),
        "crt.verify.s": total("crt.verify"),
        "wcr.issue.s": total("wcr.issue"),
        "wcr.validate.s": total("wcr.validate"),
        "responder.publish_statements.s": total("responder.publish_statements"),
        "responder.verify_statement.s": total("responder.verify_statement"),
        "responder.respond.s": total("responder.respond"),
        "responder.verify_response.s": total("responder.verify_response"),
        "depender.propagate.s": total("depender.propagate"),
        "depender.propagate.calls": calls("depender.propagate"),
        "depender.rejoin.calls": calls("depender.rejoin"),
        "depender.missed": sum(rep.overlay.get("missed", 0) for rep in reports),
    })
    return out


@dataclass
class Rep:
    traced: bool
    runs: list[SchemeRun]
    layers: Optional[dict[str, float]] = None  # per-layer metrics of a traced rep


def run_workload(
    configs: list[SimConfig],
    seconds: float,
    trace: bool,
    spans_path: Optional[Path] = None,
    probe: Optional[SpeedProbe] = None,
) -> tuple[dict, list[Rep], list[str]]:
    """Run reps of the workload for about `seconds`.

    Returns the result line, the reps, and one line per scheme run that
    failed the gate.

    Untraced: at least MIN_REPS reps. Traced: untraced and traced reps
    alternate, ending on a traced one, at least one of each.
    """
    tracer = Tracer() if trace else None
    probe = probe or SpeedProbe()
    reps: list[Rep] = []
    began = perf_counter()
    with probe.running():
        while True:
            traced = trace and len(reps) % 2 == 1
            if traced:
                tracer.reset()
            runs = run_rep(configs, tracer if traced else None)
            reps.append(Rep(traced, runs, per_layer(tracer, runs) if traced else None))
            if trace and not traced:
                continue
            elapsed = perf_counter() - began
            # Stop when another rep of average length would overrun the budget.
            if len(reps) >= (2 if trace else MIN_REPS) and elapsed * (1 + 1 / len(reps)) > seconds:
                break
    for rep in reps:
        for run in rep.runs:
            run.at_reference_speed(probe)
    if trace and spans_path is not None:
        tracer.dump(spans_path)

    reference: dict[str, str] = {}
    failures: list[str] = []
    for i, rep in enumerate(reps):
        for run in rep.runs:
            if not rep.traced and run.sha256 is not None:
                reference.setdefault(run.scheme, run.sha256)
            reasons = gate(run, reference.get(run.scheme), rep.traced)
            if reasons:
                failures.append(f"rep {i} {run.scheme}: {', '.join(reasons)}")

    def median_wall(traced: bool) -> float:
        return statistics.median(
            end_to_end(rep.runs)["wall_s"] for rep in reps if rep.traced == traced
        )

    if trace:
        metrics = {
            name: statistics.median(rep.layers[name] for rep in reps if rep.traced)
            for name, _ in PER_LAYER
            if name != "trace.overhead_frac"
        }
        metrics["trace.overhead_frac"] = median_wall(True) / median_wall(False) - 1.0
        units = dict(PER_LAYER)
    else:
        per_rep = [end_to_end(rep.runs) for rep in reps]
        metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = dict(END_TO_END)
    result = {
        "correct": not failures,
        "attempted": sum(len(rep.runs) for rep in reps),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, reps, failures
