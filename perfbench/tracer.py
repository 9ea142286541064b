"""Span tracer that wraps isackit's public functions from outside the package.

`Tracer.install` replaces each target function in every loaded isackit module
namespace that holds it, so call sites that imported the name (for example
`constellation_ae.adam_step`, which is `neural.adam_step`) are traced as well.
Each call records a span (target, start, end, parent span). `restore` puts the
original objects back; `restored` confirms that it did.

Counters attached to a target add an integer derived from the call's bound
arguments, such as the element count an optimizer step updates. While
`recording` is false the wrappers call straight through and record nothing.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time


class Tracer:
    """Wraps `targets` ("module.function" names inside isackit) while installed.

    counters maps a counter name to (target, fn) where fn receives the call's
    inspect.BoundArguments (defaults applied) and returns an integer.
    """

    def __init__(self, targets, counters=None):
        self.targets = tuple(targets)
        self.counters = dict(counters or {})
        self.spans = []  # (target, start, end, parent index or -1)
        self.counts = collections.Counter()
        self._stack = []
        self._patched = []  # (module, attribute, original) of the last install
        self.installed = False
        self.recording = True

    # ------------------------------------------------------------ patching

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer is already installed")
        self._patched = []
        self.installed = True
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "isackit" or name.startswith("isackit."))]
        try:
            for target in self.targets:
                module_name, attr = target.rsplit(".", 1)
                original = getattr(sys.modules[f"isackit.{module_name}"], attr)
                wrapper = self._wrap(target, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
                            self._patched.append((module, name, original))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self.installed = False

    def restored(self) -> bool:
        """True when every attribute patched by the last install holds its
        original object again."""
        return not self.installed and all(
            getattr(module, name) is original for module, name, original in self._patched)

    def patched_names(self):
        """(module name, attribute) pairs replaced by the last install."""
        return [(m.__name__, name) for m, name, _ in self._patched]

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counters = [(name, count) for name, (tgt, count) in self.counters.items()
                    if tgt == target]
        signature = inspect.signature(fn) if counters else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if counters:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for name, count in counters:
                    counts[name] += int(count(bound))
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (target, start, clock(), parent)
                stack.pop()

        return traced

    # ------------------------------------------------------------ summaries

    def layer_stats(self) -> dict:
        """Per target: calls, self_s (span time minus child spans), total_s."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {t: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for t in self.targets}
        for i, (target, start, end, _) in enumerate(self.spans):
            entry = stats[target]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return stats

    def under(self, target: str, parent_target: str):
        """(calls, seconds) of `target` spans whose direct parent is a
        `parent_target` span."""
        calls, seconds = 0, 0.0
        for t, start, end, parent in self.spans:
            if t == target and parent >= 0 and self.spans[parent][0] == parent_target:
                calls += 1
                seconds += end - start
        return calls, seconds
