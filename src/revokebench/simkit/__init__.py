"""Deterministic discrete-event simulator for revocation-scheme trade-offs."""

from __future__ import annotations

import csv
import io

from .config import ConfigError, Scheme, SimConfig, WORKLOAD_FIELDS
from .engine import Simulation, run, run_with_logs, schedule_staggered_fetch
from .metrics import MetricsReport
from .schemes import AlwaysFreshAdapter, PlainCrlBaselineAdapter
from .workload import Workload, generate_workload, substream

__all__ = [
    "ConfigError",
    "Scheme",
    "SimConfig",
    "MetricsReport",
    "Simulation",
    "Workload",
    "run",
    "run_with_logs",
    "compare",
    "comparison_csv",
    "interval_csv",
    "generate_workload",
    "schedule_staggered_fetch",
    "substream",
    "wcr_equivalence_logs",
    "AlwaysFreshAdapter",
    "PlainCrlBaselineAdapter",
]


def compare(configs: list[SimConfig]) -> list[tuple[SimConfig, MetricsReport]]:
    """Run several configs over the identical workload and pair the reports.

    Configs may differ only in scheme fields; any difference in a workload
    field would break the paired-event property, so it is rejected. The
    workload is generated once and shared by every run.
    """
    if not configs:
        raise ConfigError("nothing to compare")
    key = configs[0].workload_key()
    for c in configs[1:]:
        if c.workload_key() != key:
            bad = [
                name
                for name in WORKLOAD_FIELDS
                if getattr(c, name) != getattr(configs[0], name)
            ]
            raise ConfigError(f"configs are not comparable; differing workload fields: {bad}")
    workload = generate_workload(configs[0])
    return [(c, Simulation(c, workload=workload).run()) for c in configs]


def comparison_csv(results: list[tuple[SimConfig, MetricsReport]]) -> str:
    buf = io.StringIO()
    rows = [report.summary_row() for _, report in results]
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def interval_csv(report: MetricsReport) -> str:
    buf = io.StringIO()
    rows = report.interval_rows()
    writer = csv.DictWriter(buf, fieldnames=["interval_index", "interval_start", "requests"])
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


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
