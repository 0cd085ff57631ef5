"""Per-module spans and work counts, recorded from outside the program.

:class:`Tracer` replaces each exported function of every nomabeam module
with a wrapper, in every module namespace where that function is bound
(``from .channel import generate_user_channel`` binds it in sim_harness too),
so calls between modules are seen wherever they are made.  A call opens a
span unless the caller is already inside a span of the same module: that
time is the module's own either way, and skipping it keeps the cost of
tracing down.  Spans stay in memory until :meth:`Tracer.write_spans`.

A module's self time is the time its spans cover minus the time covered by
their direct child spans, which belong to other modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = (
    "array_geometry",
    "channel",
    "clustering",
    "beamforming",
    "link_metrics",
    "power_allocation",
    "baselines",
    "sim_harness",
    "cli",
)

PACKAGE = "nomabeam"


def exported_functions(module) -> dict[str, object]:
    """Functions a module exports: its ``__all__``, else its public names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return {
        name: getattr(module, name)
        for name in names
        if inspect.isfunction(getattr(module, name, None))
        and getattr(module, name).__module__ == module.__name__
    }


class Tracer:
    """Spans and call counts for one benchmark process.

    A span is ``(pass_id, layer, function, start_ns, end_ns, parent)`` where
    ``parent`` is the index of the enclosing span, or -1.  ``pass_id`` names
    the timed pass the span belongs to; spans of one pass share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.calls: Counter[str] = Counter()
        self.paths_drawn = 0
        self.distinct_users: set[tuple] = set()
        self.distinct_drops: set[tuple] = set()
        self.pass_id = -1
        self._stack: list[tuple[str, int]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- counters fed from call results -------------------------------------

    def _on_user_drawn(self, args, kwargs, user) -> None:
        self.paths_drawn += len(user.paths)
        los = user.paths[0].direction
        self.distinct_users.add((user.range_m, los.theta, los.phi))

    def _on_pairing(self, args, kwargs, cluster_set) -> None:
        dirs = args[0] if args else kwargs["dirs"]
        self.distinct_drops.add(tuple((d.theta, d.phi) for d in dirs))

    def reset_counts(self) -> None:
        self.calls.clear()
        self.paths_drawn = 0
        self.distinct_users.clear()
        self.distinct_drops.clear()

    # -- installing the wrappers --------------------------------------------

    def _wrap(self, fn, layer: str, key: str, hook):
        spans = self.spans
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                spans.append(None)
                parent = stack[-1][1] if stack else -1
                stack.append((layer, index))
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                    spans[index] = (self.pass_id, layer, key, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every exported function of every layer wherever it is bound."""
        hooks = {
            "channel.generate_user_channel": self._on_user_drawn,
            "clustering.beta_uc": self._on_pairing,
        }
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in exported_functions(module).items():
                key = f"{layer}.{name}"
                wrappers[id(fn)] = self._wrap(fn, layer, key, hooks.get(key))
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- reading the spans --------------------------------------------------

    def self_seconds(self) -> dict[int, dict[str, float]]:
        """Self time per layer, in seconds, for each pass that recorded spans."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for start, end, parent in ((s[3], s[4], s[5]) for s in spans if s is not None):
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[int, dict[str, int]] = {}
        for index, span in enumerate(spans):
            if span is None:
                continue
            pass_id, layer, _, start, end, _ = span
            per_layer = totals.setdefault(pass_id, dict.fromkeys(LAYERS, 0))
            per_layer[layer] += end - start - child_ns[index]
        return {
            pass_id: {layer: ns / 1e9 for layer, ns in per_layer.items()}
            for pass_id, per_layer in totals.items()
        }

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass,layer,function,start_ns,end_ns,parent\n")
            for span in self.spans:
                if span is not None:
                    fh.write(",".join(map(str, span)) + "\n")
