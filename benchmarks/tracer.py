"""Per-layer tracing of dirtysim from outside the package.

`Tracer.installed()` wraps the public functions of each dirtysim module and
the hot methods of `Cache` and the replacement policies, and restores the
originals on exit.  Every wrapper keeps a call count and the span's self
time: its duration minus the time covered by the wrapped calls it made.
Spans are aggregated as they close rather than stored, because a traced
`latency-cdf` pass makes about half a million of them.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

# Outcome kinds as `OutcomeKind.value` spells them, and their metric names.
OUTCOMES = {
    "hit": "hit",
    "miss-fill-invalid": "fill",
    "miss-evict-clean": "evict_clean",
    "miss-evict-dirty": "evict_dirty",
    "uncached": "uncached",
}
# No workload reaches the hit or uncached path, so only these get a time.
TIMED_OUTCOMES = ("fill", "evict_clean", "evict_dirty")

# (module, function, span).  Several functions may share one span.
FUNCTIONS = (
    ("cache", "make_line", "cache.make_line"),
    ("seeding", "derive_seed", "seeding.derive_seed"),
    ("policy", "eviction_distance_experiment", "policy.experiment"),
    ("policy", "dirty_eviction_experiment", "policy.experiment"),
    ("measurement", "build_replacement_set", "measurement.build_rset"),
    ("measurement", "measure_replacement_latency", "measurement.probe"),
    ("measurement", "latency_cdf", "measurement.latency_cdf"),
    ("channel", "calibrate_thresholds", "channel.calibrate"),
    ("channel", "sender_encode", "channel.encode"),
    ("channel", "receiver_decode", "channel.decode"),
    ("channel", "run_channel", "channel.run"),
    ("analysis", "edit_distance", "analysis.edit_distance"),
    ("analysis", "align_by_preamble", "analysis.align"),
    ("analysis", "bit_error_rate", "analysis.ber"),
    ("analysis", "sweep_ber_vs_rate", "analysis.sweep"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_evict_prob", "cli.command"),
    ("cli", "cmd_dirty_evict", "cli.command"),
    ("cli", "cmd_latency_cdf", "cli.command"),
    ("cli", "cmd_run_channel", "cli.command"),
    ("cli", "cmd_sweep", "cli.command"),
    ("cli", "cmd_gadget", "cli.command"),
)

# (module, class, method, span), wrapped on the class itself.
METHODS = (
    ("cache", "Cache", "__init__", "cache.init"),
    ("cache", "Cache", "access", "cache.access"),
    ("policy", "TrueLRU", "select_victim", "policy.select_victim"),
    ("policy", "TreePLRU", "select_victim", "policy.select_victim"),
    ("policy", "RandomPolicy", "select_victim", "policy.select_victim"),
    ("policy", "TrueLRU", "on_access", "policy.on_access"),
    ("policy", "TreePLRU", "on_access", "policy.on_access"),
    ("policy", "RandomPolicy", "on_access", "policy.on_access"),
)

SPANS = tuple(dict.fromkeys(span for *_, span in FUNCTIONS + METHODS))


class Tracer:
    """Call counts, self times and layer counts of one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._child_s = [0.0]  # time covered by child spans, one per open span

    def wrap(self, span, fn, hook=None):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                own = elapsed - child_s.pop()
                child_s[-1] += elapsed
                calls[span] += 1
                self_s[span] += own
            if hook is not None:
                hook(args, kwargs, result, own)
            return result

        return traced

    # -- hooks that count work inside a span ---------------------------------

    def _on_access(self, args, kwargs, outcome, own):
        name = OUTCOMES.get(outcome.kind.value, "other")
        self.counts[f"cache.access.{name}"] += 1
        self.self_s[f"cache.access.{name}"] += own

    def _on_edit_distance(self, args, kwargs, result, own):
        a, b = args[:2]
        self.counts["analysis.edit_distance.cells"] += len(a) * len(b)

    def _on_experiment(self, args, kwargs, result, own):
        self.counts["policy.experiment.trials"] += result.trials

    def _on_probe(self, args, kwargs, sample, own):
        self.counts["measurement.probe.violations"] += sample.resident_hits > 0

    def _hook(self, span):
        return {
            "cache.access": self._on_access,
            "analysis.edit_distance": self._on_edit_distance,
            "policy.experiment": self._on_experiment,
            "measurement.probe": self._on_probe,
        }.get(span)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit.

        `channel` and `measurement` import `make_line`, `derive_seed` and the
        analysis functions by name, so each module's globals are scanned for
        the function object rather than patching only its home module.
        """
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "dirtysim" or name.startswith("dirtysim.")]
        patches = []  # (owner, attribute, original)
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"dirtysim.{modname}"], attr, None)
            if original is None:
                continue
            traced = self.wrap(span, original, self._hook(span))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, name, original))
                        setattr(module, name, traced)
        for modname, clsname, attr, span in METHODS:
            cls = getattr(sys.modules[f"dirtysim.{modname}"], clsname, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if original is None:
                continue
            patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original, self._hook(span)))
        try:
            yield self
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    def metrics(self):
        """Flat {metric: value} of this pass; `*_s` entries are times."""
        out = {}
        for span in SPANS:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for name in OUTCOMES.values():
            out[f"cache.access.{name}"] = self.counts[f"cache.access.{name}"]
        for name in TIMED_OUTCOMES:
            out[f"cache.access.{name}_self_s"] = self.self_s[f"cache.access.{name}"]
        for name in ("analysis.edit_distance.cells", "policy.experiment.trials"):
            out[name] = self.counts[name]
        probes = self.calls["measurement.probe"]
        violations = self.counts["measurement.probe.violations"]
        out["measurement.probe.violation_ratio"] = violations / probes if probes else 0.0
        return out
