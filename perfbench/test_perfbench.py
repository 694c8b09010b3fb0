"""Tests of the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.02


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _tiny_run(workload: str = "tradeoffs") -> harness.SchemeRun:
    return harness.run_scheme(WORKLOADS[workload](seed=7, scale=TINY)[0])


def test_spec_names_the_benchmark_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == dict(harness.END_TO_END)
    assert _units("per_layer") == dict(harness.PER_LAYER)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, section):
    configs = WORKLOADS[workload](seed=7, scale=TINY)
    result, reps, failures = harness.run_workload(configs, seconds=0.001, trace=trace)
    assert failures == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == len(configs) * len(reps)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == _units(section)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert [rep.traced for rep in reps] == [False, True]


def test_configs_are_a_function_of_the_seed():
    for make in WORKLOADS.values():
        assert make(seed=3) == make(seed=3)
        assert {c.seed for c in make(seed=3)} == {3}


def test_gate_passes_a_genuine_run():
    run = _tiny_run()
    assert harness.gate(run, run.sha256) == []
    assert harness.gate(run, run.sha256, traced=True) == []


def test_gate_fails_a_false_revocation():
    run = _tiny_run()
    bad = replace(run, report=replace(run.report, false_revocation=1))
    assert harness.gate(bad, run.sha256) == ["false_revocation"]


def test_gate_fails_a_byte_conservation_mismatch():
    run = _tiny_run()
    received = dict(run.report.bytes_received)
    received["directory_to_client"] += 1
    bad = replace(run, report=replace(run.report, bytes_received=received))
    assert harness.gate(bad, run.sha256) == ["byte_conservation"]


def test_gate_fails_a_report_that_differs_from_its_reference():
    run = _tiny_run()
    assert harness.gate(run, "0" * 64) == ["repeat_report_differs"]
    assert harness.gate(run, "0" * 64, traced=True) == ["traced_report_differs"]


def test_a_scheme_run_that_raises_counts_as_failed(monkeypatch):
    def boom(self):
        raise RuntimeError("injected")

    monkeypatch.setattr(harness.Simulation, "run", boom)
    configs = WORKLOADS["tradeoffs"](seed=7, scale=TINY)[:2]
    result, reps, failures = harness.run_workload(configs, seconds=0.001, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 2 * len(reps)
    assert all(line.endswith("raised") for line in failures)


def test_tracing_restores_every_wrapped_name():
    from revokebench.simkit.schemes import ADAPTERS

    def snapshot():
        out = {}
        for module, attr, _ in spans.WRAPPED:
            owner = sys.modules[module]
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            out[(module, attr, tuple(path))] = vars(owner).get(attr)
        for cls in ADAPTERS.values():
            for attr, _ in spans.ADAPTER_HOOKS:
                out[(cls.__name__, attr)] = vars(cls).get(attr)
        return out

    before = snapshot()
    tracer = spans.Tracer()
    with tracer.installed():
        assert snapshot() != before
        harness.run_scheme(WORKLOADS["ca_churn"](seed=7, scale=TINY)[0])
    assert snapshot() == before
    stats = tracer.summary()
    assert stats["simkit.engine.run"].calls == 1
    assert stats["depender.propagate"].calls > 0


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    stats = tracer.summary()
    outer, inner, leaf = stats["outer"], stats["inner"], stats["leaf"]
    assert inner.calls == 2
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert inner.self_s == pytest.approx(inner.total_s - leaf.total_s)
    assert leaf.self_s == leaf.total_s


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "tradeoffs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_reference_time_takes_probes_out_and_scales_by_their_speed():
    probe = speed.SpeedProbe()
    ref = speed.PROBE_REF_S
    # Probes at twice the reference duration: the machine runs at half speed.
    probe.starts = [0.1 * i for i in range(1, 10)]
    probe.durations = [2 * ref] * 9
    # [0.05, 0.55] holds five probes, which are taken out before scaling.
    assert probe.reference_s(0.05, 0.55) == pytest.approx((0.5 - 5 * 2 * ref) / 2)
    # A short interval with no probe inside borrows the speed of its neighbours.
    assert probe.reference_s(0.31, 0.32) == pytest.approx(0.01 / 2)
    assert speed.SpeedProbe().reference_s(1.0, 1.5) == pytest.approx(0.5)


def test_probe_runs_while_armed_and_stops_after():
    probe = speed.SpeedProbe(interval_s=0.01)
    with probe.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    seen = len(probe.durations)
    assert seen > 0
    time.sleep(0.05)
    assert len(probe.durations) == seen
