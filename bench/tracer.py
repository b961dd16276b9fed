"""Span recording for the traced benchmark run.

The traced run wraps, from outside the package, the calls each module makes
into the next (verify -> bounds -> space, tuning -> bounds) by replacing the
module attributes those calls look up, and restores them afterwards.  Each
call records one span: a name, its start and end and its parent span.
Spans stay in compact arrays in memory and are written out once, when the
run ends.

A layer's self time is the time its spans cover minus the part covered by
their child spans, minus the tracer's own cost: each span's wrapper work
inside its start and end, the wrapper work outside it that lands in its
parent, and each counted call's wrapper.  ``wrapper_costs`` measures these
on a function that does nothing.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np


def _noop(*args):
    return None


class Tracer:
    def __init__(self, costs: tuple[float, float, float] = (0.0, 0.0, 0.0)):
        """``costs``: seconds a span adds inside itself and to its parent, and
        a counted call adds to its span, as ``wrapper_costs`` measures them."""
        self.costs = costs
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._charged: Counter[int] = Counter()   # counted calls per span name
        self._patches: list[tuple[object, str, object]] = []

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def wrap(self, name: str, fn, skip: type[BaseException] | None = None):
        """``fn`` recording one span per call; a ``skip`` exception is counted."""
        code = self._code(name)
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        counts, clock = self.counts, time.perf_counter
        skip_key = name + ".skips"
        counted = skip or ()       # an empty tuple catches nothing

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except counted:
                counts[skip_key] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call of the benchmark's own under a span."""
        return self.wrap(name, fn)(*args, **kwargs)

    def patch(self, owner, attr: str, name: str, skip: type[BaseException] | None = None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, skip))

    def counter(self, fn, key: str):
        """``fn`` counting its calls under ``key`` and under the span it runs in."""
        counts, charged = self.counts, self._charged
        names, stack = self._name, self._stack

        def counted(*a):
            counts[key] += 1
            if len(stack) > 1:
                charged[names[stack[-1]]] += 1
            return fn(*a)

        return counted

    def count_arguments(self, owner, attr: str, key: str) -> None:
        """Count the calls ``owner.attr`` makes to the function it receives first."""
        original = getattr(owner, attr)

        def counting(fn, *args, **kwargs):
            return original(self.counter(fn, key), *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counting)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._start)

    def layers(self) -> dict[str, tuple[float, int]]:
        """Self seconds and span count of each span name."""
        if not len(self):
            return {}
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        inside, outside, counted = self.costs
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        children = np.bincount(parent[has_parent], minlength=dur.size)
        own = dur - covered - inside - outside * children
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        for code, n in self._charged.items():
            self_s[code] -= counted * n
        calls = np.bincount(name, minlength=len(self.names))
        return {n: (float(self_s[i]), int(calls[i])) for i, n in enumerate(self.names)}

    def cost_s(self) -> float:
        """Seconds of the tracer's own cost that ``layers`` subtracts."""
        inside, outside, counted = self.costs
        children = int(np.count_nonzero(np.frombuffer(self._parent, dtype=np.int32) >= 0))
        return len(self) * inside + children * outside + sum(self._charged.values()) * counted

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
        )


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float, float]:
    """Median seconds per call that a span adds inside its own start and end,
    that it adds outside them (so to its parent's self time), and that a
    counted call adds, each measured on a function that does nothing."""
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        probe = Tracer()
        span = probe.wrap("probe", _noop)
        counted = probe.counter(_noop, "probe")
        times = []
        for fn in (_noop, span, counted):
            t0 = clock()
            for _ in range(calls):
                fn()
            times.append(clock() - t0)
        plain, wrapped, counting = times
        inside = float(np.sum(np.frombuffer(probe._end) - np.frombuffer(probe._start))) / calls
        samples.append((inside, (wrapped - plain) / calls - inside, (counting - plain) / calls))
    return tuple(float(np.median(column)) for column in zip(*samples))


def install(tracer: Tracer, bb) -> None:
    """Wrap the calls between the package's modules; ``tracer.restore`` undoes it."""
    import bbbounds.bounds as bounds
    import bbbounds.space as space
    import bbbounds.tuning as tuning
    import bbbounds.verify as verify

    incompatible = bb.IncompatibleInstanceError
    # verify -> verify/space: instance generation (its Gram build is space)
    tracer.patch(verify, "generate_instance", "verify.generate")
    tracer.patch(verify.VariantTotals, "record", "verify.reduce")
    # verify -> bounds: one call per (instance, variant) check
    tracer.patch(verify, "_eval_on_context", "bounds.eval", skip=incompatible)
    # bounds -> bounds: the per-instance summaries shared by every check
    tracer.patch(bounds, "GramStats", "bounds.stats")
    tracer.patch(bounds, "CoeffStats", "bounds.stats")
    # bounds -> space: left-hand side with its direct-norm oracle, Gram builds
    tracer.patch(bounds, "combination_norm_sq", "space.oracle")
    tracer.patch(bounds, "gram_of_family", "space.gram")
    tracer.patch(space, "gram_of_family", "space.gram")
    # tuning -> bounds: every right-hand-side term the tuner evaluates
    tracer.patch(tuning, "_eval_on_context", "bounds.eval", skip=incompatible)
    for attr in ("_diag_value", "_offdiag_value", "_coarse_offdiag_value", "_cor32_rhs_factor", "_fourier_rhs"):
        tracer.patch(tuning, attr, "bounds.eval")
    tracer.count_arguments(tuning, "_minimize", "tuning.rhs_evals")
