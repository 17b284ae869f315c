"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of each layer module of plwe_audit
(campaign, samplers, rings, attacks, analysis) in every layer namespace that
binds them, so a call is caught where the caller looks the name up, e.g.
campaign.plwe_oracle_rq0, samplers.ring_mul or campaign.monte_carlo_delta.
Two methods are wrapped on their classes: RqContext.poly and
PlweInstance.generate.  Functions of fields are not wrapped: their time counts
to the layer that calls them.

Each call records a span (name, start, end, parent span, trial id).  Spans stay
in memory until write() dumps them.  A span's self time is its duration minus
the durations of its direct children, so the layer self times add up to the
duration of the root spans.  The tracer is single-threaded: spans made in
worker processes never reach it, so traced campaigns run with threads=1.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("campaign", "samplers", "rings", "attacks", "analysis")
METHODS = (("rings", "RqContext", "poly"), ("samplers", "PlweInstance", "generate"))
ORACLES = frozenset(
    f"samplers.{n}"
    for n in ("plwe_oracle", "uniform_oracle", "plwe_oracle_rq0", "uniform_oracle_rq0")
)
BASIC_ATTACKS = frozenset(
    f"attacks.{n}"
    for n in (
        "small_set_attack",
        "small_set_attack_trace",
        "small_values_attack",
        "small_values_attack_trace",
        "unbounded_small_values_attack",
    )
)
RAISED = "raised"


class Tracer:
    """Install with install(modules), run the traced work, then uninstall()."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index, trial id, note]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._trial = -1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        is_trial = name == "campaign.run_trial"
        is_attack = name in BASIC_ATTACKS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prev_trial = self._trial
            if is_trial:
                self._trial = int(args[1] if len(args) > 1 else kwargs["trial_index"])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._trial, ""]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = RAISED
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                self._trial = prev_trial
            if is_attack:
                span[5] = getattr(result, "kind", "")
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, modules: dict) -> None:
        """modules maps each name in LAYERS to the imported module."""
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer in LAYERS:
                    self._patch(mod, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                self._patch(cls, meth, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, meth, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-layer self time, per-name call counts, inclusive and self time,
        and the sample and chunk counts measured at the span boundaries."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        counts: Counter = Counter()
        root_wall = 0.0
        for i, (name, start, end, parent, _, note) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            layer_self[name.partition(".")[0]] += own
            calls[name] += 1
            incl[name] += dur
            self_s[name] += own
            parent_name = spans[parent][0] if parent >= 0 else ""
            if parent < 0:
                root_wall += dur
            if name in ORACLES and parent_name not in ORACLES:
                counts["oracle_calls"] += 1
                if parent_name != "samplers.sample_rq0":
                    counts["accepted"] += 1
            elif name == "samplers.sample_rq0" and note != RAISED:
                counts["accepted"] += 1
            elif name in BASIC_ATTACKS:
                counts["basic_attacks"] += 1
                if parent_name == "attacks.extended_attack":
                    counts["chunks_run"] += 1
                    if note not in ("not_plwe", RAISED):
                        counts["chunks_voting"] += 1
        return {
            "layer_self_s": layer_self,
            "layer_calls": {
                layer: sum(n for name, n in calls.items() if name.startswith(layer + "."))
                for layer in LAYERS
            },
            "calls": calls,
            "incl_s": incl,
            "self_s": self_s,
            "counts": counts,
            "root_wall_s": root_wall,
        }

    def write(self, path) -> None:
        """Dump the spans as gzip TSV: id, parent, trial, name, start, end,
        note; times in seconds from the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tparent\ttrial\tname\tstart_s\tend_s\tnote\n")
            for i, (name, start, end, parent, trial, note) in enumerate(self.spans):
                fh.write(
                    f"{i}\t{parent}\t{trial}\t{name}\t{start - t0:.9f}\t{end - t0:.9f}\t{note}\n"
                )
