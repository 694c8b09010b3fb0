"""In-memory span recorder that wraps the program's public functions from outside.

Nothing under src/ knows about it: `Tracer.installed()` replaces each name in
WRAPPED by a timing wrapper where its caller looks it up, and puts the
original back on exit. A span is (name, parent, start, end); spans live in
flat arrays until the run ends. The program is single-threaded, so open
spans form a stack and a span's parent is the span open when it started.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

# (module, attribute, span name). The attribute is looked up in the module
# its caller reads it from: the engine imports make_certificate and
# generate_workload by name, the adapters call crs_mod.crs_verify and so on.
WRAPPED = (
    ("revokebench.simkit.engine", "generate_workload", "simkit.workload.generate"),
    ("revokebench.simkit.engine", "Simulation.__init__", "simkit.engine.init"),
    ("revokebench.simkit.engine", "Simulation.run", "simkit.engine.run"),
    ("revokebench.simkit.engine", "make_certificate", "core.make_certificate"),
    ("revokebench.simkit.metrics", "Metrics.note_validation", "simkit.metrics.note_validation"),
    ("revokebench.simkit.schemes", "check_status", "crl.check_status"),
    ("revokebench.core", "Ledger.revoked_non_expired", "core.revoked_non_expired"),
    ("revokebench.crl", "CrlIssuer.issue_full", "crl.issue"),
    ("revokebench.crl", "CrlIssuer.issue_delta", "crl.issue"),
    ("revokebench.crl", "CrlIssuer.issue_sliding_delta", "crl.issue"),
    ("revokebench.crl", "CrlIssuer.segment", "crl.issue"),
    ("revokebench.crs", "CrsAuthority.setup", "crs.setup"),
    ("revokebench.crs", "CrsAuthority.publish_update", "crs.publish_update"),
    ("revokebench.crs", "crs_verify", "crs.verify"),
    ("revokebench.crt", "crt_build", "crt.build"),
    ("revokebench.crt", "crt_update", "crt.update"),
    ("revokebench.crt", "crt_prove", "crt.prove"),
    ("revokebench.crt", "crt_verify", "crt.verify"),
    ("revokebench.wcr", "WcrIssuer.issue", "wcr.issue"),
    ("revokebench.wcr", "wcr_validate", "wcr.validate"),
    ("revokebench.responder", "publish_statements", "responder.publish_statements"),
    ("revokebench.responder", "verify_statement", "responder.verify_statement"),
    ("revokebench.responder", "OcspResponder.respond", "responder.respond"),
    ("revokebench.responder", "verify_response", "responder.verify_response"),
    ("revokebench.depender", "propagate", "depender.propagate"),
    ("revokebench.depender", "rejoin", "depender.rejoin"),
)

# Engine hooks wrapped on every adapter class in simkit.schemes.ADAPTERS.
ADAPTER_HOOKS = (("validate", "simkit.schemes.validate"), ("on_publish", "simkit.schemes.on_publish"))

# Spans whose individual durations are kept for percentiles.
SAMPLED = ("simkit.schemes.validate",)


def _count_crl_bytes(result, counts: Counter) -> None:
    docs = result if isinstance(result, list) else [result]
    counts["crl.issue.bytes"] += sum(d.wire_size for d in docs)


def _count_tokens(result, counts: Counter) -> None:
    counts["crs.tokens_built"] += len(result)


def _count_crt_update(result, counts: Counter) -> None:
    tree, stats = result
    counts["crt.update.recomputed"] += stats.recomputed_internal
    counts["crt.update.internal_nodes"] += sum(len(level) for level in tree.levels[1:])


# Counts taken at a span's boundary from the wrapped call's result.
BOUNDARY_COUNTS = {
    "crl.issue": _count_crl_bytes,
    "crs.publish_update": _count_tokens,
    "crt.update": _count_crt_update,
}


@dataclass
class SpanStats:
    """Totals over every span of one name."""

    total_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    samples_us: list[float] = field(default_factory=list)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay valid."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.counts.clear()
        self._stack.clear()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts
        hook = BOUNDARY_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(result, counts)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself, e.g. around one scheme run."""
        idx = len(self.name)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED and ADAPTER_HOOKS; restore them on exit."""
        from revokebench.simkit.schemes import ADAPTERS

        targets = []
        for module, attr, name in WRAPPED:
            owner = importlib.import_module(module)
            *path, attr = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            targets.append((owner, attr, name))
        for cls in ADAPTERS.values():
            targets.extend((cls, attr, name) for attr, name in ADAPTER_HOOKS)

        undo = []
        try:
            for owner, attr, name in targets:
                own = attr in vars(owner)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, name))
                undo.append((owner, attr, own, original))
            yield self
        finally:
            for owner, attr, own, original in reversed(undo):
                if own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def summary(self) -> dict[str, SpanStats]:
        """Busy time, self time and calls per span name.

        Self time is a span's duration minus the durations of its direct
        children. Spans of one thread nest, so children never overlap and
        their summed durations are the part of the parent they cover.
        """
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats = [SpanStats() for _ in self.names]
        sampled = {self._ids[n] for n in SAMPLED if n in self._ids}
        for i, nid in enumerate(self.name):
            st = stats[nid]
            st.total_s += dur[i] / 1e9
            st.self_s += (dur[i] - child[i]) / 1e9
            st.calls += 1
            if nid in sampled:
                st.samples_us.append(dur[i] / 1e3)
        return {n: st for n, st in zip(self.names, stats) if st.calls}

    def dump(self, path: Path) -> None:
        """Write the recorded spans as columns; times are ns from the first span."""
        t0 = min(self.start, default=0)
        doc = {
            "names": self.names,
            "columns": ["name", "parent", "start_ns", "end_ns"],
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "start_ns": [t - t0 for t in self.start],
            "end_ns": [t - t0 for t in self.end],
            "counts": dict(self.counts),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))
