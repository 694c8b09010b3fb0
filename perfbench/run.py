"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It imports `revokebench` from that
checkout's src/ and refuses to run without it. The last line of standard
output is the result as one JSON object; the lines before it name every
metric with its unit, the gate's verdict and the sha256 of every report.
With --trace 1 the spans of the last traced rep are written to
.perfbench_out/spans-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import revokebench
    except ImportError as exc:
        print(f"error: cannot import revokebench from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(revokebench.__file__).resolve().parent != SRC / "revokebench":
        print(f"error: revokebench was imported from {revokebench.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import harness
    from speed import PROBE_REF_S, SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    configs = WORKLOADS[args.workload](args.seed)
    probe = SpeedProbe()
    result, reps, failures = harness.run_workload(
        configs,
        args.seconds,
        bool(args.trace),
        spans_path=ROOT / ".perfbench_out" / f"spans-{args.workload}.json",
        probe=probe,
    )

    traced = sum(rep.traced for rep in reps)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reps={len(reps)} untraced={len(reps) - traced} traced={traced}")
    for i, rep in enumerate(reps):
        m = harness.end_to_end(rep.runs)
        schemes = " ".join(f"{run.scheme}={run.setup_s + run.run_s:.4f}" for run in rep.runs)
        print(f"rep {i} {'traced' if rep.traced else 'untraced'} "
              + " ".join(f"{name}={value:.6g}" for name, value in m.items())
              + f" host_wall_s={harness.host_wall_s(rep.runs):.6g} " + schemes)
    if len(probe.durations) >= 2:
        q = statistics.quantiles(probe.durations, n=10)
        print(f"speed probes={len(probe.durations)} p10={q[0] * 1e3:.4f}ms "
              f"median={statistics.median(probe.durations) * 1e3:.4f}ms p90={q[-1] * 1e3:.4f}ms "
              f"reference={PROBE_REF_S * 1e3:.4f}ms")
    hashes = sorted({(run.scheme, run.sha256) for rep in reps for run in rep.runs if run.sha256})
    for scheme, sha in hashes:
        print(f"report {scheme} sha256={sha}")
    for line in failures:
        print(f"FAILED {line}")
    for rep in reps:
        for run in rep.runs:
            if run.error:
                print(run.error, file=sys.stderr)
    print(f"failed_frac {result['failed'] / result['attempted']} fraction "
          f"({result['failed']} of {result['attempted']} scheme runs)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
