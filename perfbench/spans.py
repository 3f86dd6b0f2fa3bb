"""Spans around fiberwatch's public functions, and the self times they give.

The tracer wraps functions from the benchmark's side: it rebinds a name in
every fiberwatch module namespace that holds the function (or on its
class, for a method). Calls inside a module resolve globals at call time,
so ``tsne`` reaches the wrapped ``kl_divergence`` too. Spans are kept in
memory; a span's self time is its duration minus the part of its interval
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                  # index into the span list; -1 at the top
    op: str | None               # the benchmark operation the span belongs to
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _forward_label(args, kwargs):
    train = args[2] if len(args) > 2 else kwargs.get("train", False)
    return "tensornet.forward_batch." + ("train" if train else "infer")


# label -> function (args, kwargs, result) -> counts recorded on the span.
COUNTERS = {
    "framing.primary_filter":
        lambda a, k, r: {"samples": int(_arg(a, k, 0, "stream").samples.size)},
    "framing.frame_matrix":
        lambda a, k, r: {"frames": int(r.shape[0] * r.shape[1])},
    "training.stream_features":
        lambda a, k, r: {"cells": len(r[1])},
    "features.blobs_from_windows":
        lambda a, k, r: {"windows": int(_arg(a, k, 0, "windows").shape[0]
                                        * _arg(a, k, 0, "windows").shape[1])},
    "tensornet.forward_batch":
        lambda a, k, r: {"rows": int(r[0].shape[0])},
    "tensornet.backward_batch":
        lambda a, k, r: {"rows": int(_arg(a, k, 2, "probs").shape[0])},
    "tracker.build_decision_map":
        lambda a, k, r: {"cells": int(r.decisions.size)},
    "tracker.glue_tracks":
        lambda a, k, r: {"tracks": len(r)},
    "embedding.tsne":
        lambda a, k, r: {"post_steps": max(0, _arg(a, k, 1, "cfg").iterations
                                           - _arg(a, k, 1, "cfg").exaggeration_iters)},
}
LABELS = {"tensornet.forward_batch": _forward_label}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, label: str, fn):
        count = COUNTERS.get(label)
        relabel = LABELS.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(relabel(args, kwargs) if relabel else label,
                        perf_counter(), 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count:
                span.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each (module, attribute) of ``targets`` wherever fiberwatch binds it."""
        for mod_name in {m for m, _ in targets}:
            importlib.import_module(f"fiberwatch.{mod_name}")
        modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("fiberwatch.") and mod is not None}
        for mod_name, attr in targets:
            owner_name, _, fn_name = attr.rpartition(".")
            label = f"{mod_name}.{fn_name}"
            if owner_name:
                owner = getattr(modules[mod_name], owner_name)
                orig = owner.__dict__[fn_name]
                self._rebind(owner, fn_name, self.wrap(label, orig))
                continue
            orig = getattr(modules[mod_name], fn_name)
            traced = self.wrap(label, orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebind(mod, key, traced)

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> list[float]:
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.end - s.start - covered_length(children[i], s.start, s.end)
            for i, s in enumerate(spans)]


def aggregate(spans: list[Span]) -> dict[str, dict]:
    """Per span name: summed self time, call count and summed counts."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row["self_s"] += own
        row["calls"] += 1
        for key, value in s.counts.items():
            row[key] += value
    return out


def child_calls(spans: list[Span], parent_name: str, child_name: str) -> int:
    """Calls of ``child_name`` made directly from a ``parent_name`` span."""
    return sum(1 for s in spans
               if s.name == child_name and s.parent >= 0
               and spans[s.parent].name == parent_name)
