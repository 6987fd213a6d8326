"""In-memory spans for the traced benchmark run.

A span is [name, start, end, parent, job, extra]: ``parent`` is the index
of the enclosing span (-1 at the top), ``job`` the id of the job that
caused it ("setup" before timing starts) and ``extra`` a count the span
carries (partitions reduced, search evaluations, scan steps).  Spans stay
in a list until the run ends.

``Tracer.call`` records the benchmark's own calls into ``ksep``.
``Tracer.install`` additionally wraps the public names that one module
looks up in another, at the caller's module, so that work the program
does on its own (a plan build inside ``evaluate``, the state rebuild inside
``scan_noise``) gets a span as well.  A name that no longer exists is
skipped and listed in ``absent``.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

NAME, START, END, PARENT, JOB, EXTRA = range(6)


def search_evals(result, args, kwargs):
    """restarts * (max_iters + 1) + 1 for the SearchConfig among the arguments."""
    for value in (*args, *kwargs.values()):
        if hasattr(value, "restarts") and hasattr(value, "max_iters"):
            return value.restarts * (value.max_iters + 1) + 1
    return None


def partition_count(result, args, kwargs):
    terms = getattr(result, "partition_terms", None)
    return None if terms is None else len(terms)


def scan_steps(result, args, kwargs):
    trace = getattr(result, "trace", None)
    return None if trace is None else len(trace)


# (module, attribute, span name, how the result is summarized).  The
# attribute is patched where the caller looks it up: criterion builds its
# partition plans from its own ``enumerate_kpartitions``/``swap_sets``
# names, search reports through ``criterion.evaluate`` and rebuilds noisy
# states through its own ``white_noise``, the CLI evaluates through its own
# ``evaluate``/``evaluate_parallel``.
CROSS_MODULE = (
    ("ksep.criterion", "enumerate_kpartitions", "partitions.plan", "generator"),
    ("ksep.criterion", "swap_sets", "partitions.swap_sets", "count"),
    ("ksep.criterion", "evaluate", "criterion.evaluate", partition_count),
    ("ksep.search", "optimize_probe", "search.optimize_probe", search_evals),
    ("ksep.search", "white_noise", "states.white_noise", None),
    ("ksep.states", "DensityMatrix.validate", "states.validate", None),
    ("ksep.states", "check_density", "linalg.check_density", None),
    ("ksep.cli", "evaluate", "criterion.evaluate", partition_count),
    ("ksep.cli", "evaluate_parallel", "criterion.evaluate_parallel", partition_count),
)


class NullTracer:
    """Tracing off: calls go straight through."""

    enabled = False
    job = "setup"

    def call(self, name, fn, *args, extra=None, **kwargs):
        return fn(*args, **kwargs)


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.job = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, extra=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[EXTRA] = extra
        if idx in self._stack:
            self._stack.remove(idx)

    def call(self, name, fn, *args, extra=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span; extra(result, args, kwargs) sets its count."""
        idx = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(idx)
        if extra is not None:
            self.spans[idx][EXTRA] = extra(result, args, kwargs)
        return result

    # --- cross-module wrappers ----------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, kind in CROSS_MODULE:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                if f"{module_name}.{attr}" not in self.absent:
                    self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrapper(original, name, kind))
            self._patches.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, leaf, original = self._patches.pop()
            setattr(owner, leaf, original)

    def _wrapper(self, original, name, kind):
        tracer = self
        if kind == "generator":
            # the plan is built while the caller drains the generator, so the
            # span runs from the call until the last item
            def wrapper(*args, **kwargs):
                items = original(*args, **kwargs)
                idx = tracer.open(name)

                def drain():
                    count = 0
                    try:
                        for item in items:
                            count += 1
                            yield item
                    finally:
                        tracer.close(idx, count)

                return drain()

        elif kind == "count":
            # one call per partition: counting, not a span, keeps the plan
            # build's own timing honest
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                tracer.counts[name] += len(result)
                return result

        else:

            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, extra=kind, **kwargs)

        wrapper.__wrapped__ = original
        return wrapper

    # --- export ---------------------------------------------------------------

    def absorb(self, spans, counts, absent) -> None:
        """Append spans recorded in a child process, re-basing parent indices."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            if span[PARENT] >= 0:
                span[PARENT] += base
            self.spans.append(span)
        self.counts.update(counts)
        for name in absent:
            if name not in self.absent:
                self.absent.append(name)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent}


def durations(spans):
    """Inclusive and self seconds per span; self excludes direct children."""
    inclusive = [(s[END] - s[START]) if s[END] is not None else 0.0 for s in spans]
    self_time = list(inclusive)
    for idx, span in enumerate(spans):
        if span[PARENT] >= 0:
            self_time[span[PARENT]] -= inclusive[idx]
    return inclusive, self_time


def layer_self_seconds(spans) -> dict:
    """Self seconds per layer (the span name's prefix before the first dot)."""
    _, self_time = durations(spans)
    out: Counter = Counter()
    for span, sec in zip(spans, self_time):
        out[span[NAME].split(".", 1)[0]] += sec
    return dict(out)
