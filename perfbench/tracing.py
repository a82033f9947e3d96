"""Layer tracer installed from outside the library.

`Tracer.install` wraps the public functions of the five library modules
(qubit, channels, criterion, photonics, cli) on every module binding that
holds them, the package namespace included, because names are imported
across modules (`cli.delta_v`, `criterion.luders_channel`, ...). It also
wraps the public methods of the classes those modules define, the
`__post_init__` validation of QState/Effect/Observable, and counts
`numpy.random.SeedSequence` and `numpy.random.default_rng` constructions.
`uninstall` puts every original back.

Spans (name, start, end, parent) are recorded only while an op is open. They
are folded into per-layer totals after each op; those of the first cycle
are kept in memory and written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("qubit", "channels", "criterion", "photonics", "cli")
VALIDATED = ("QState", "Effect", "Observable")


class Tracer:
    def __init__(self, mc):
        self.mc = mc
        self.names: list[str] = ["bench.op"]  # index 0: the root span of each op
        self.spans: list = []  # (name index, start ns, end ns, parent span index or -1)
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.gate_success_min = math.inf
        self.self_ns: Counter = Counter()  # per layer
        self.calls: Counter = Counter()  # per span name
        self.inclusive_ns: Counter = Counter()  # per span name
        self.kept: list = []  # spans of the first cycle, for `write`
        self._originals: list[tuple[object, str, object]] = []
        self._replacements = self._plan()

    # -- installation -------------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every binding the tracer wraps."""
        modules = {layer: importlib.import_module(f"{self.mc.__name__}.{layer}") for layer in LAYERS}
        plan = []
        wrappers: dict = {}
        for namespace in (self.mc, *modules.values()):
            for attr, value in vars(namespace).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                plan.append((namespace, attr, wrappers[value]))
        for layer, module in modules.items():
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                for attr, value in vars(cls).items():
                    validation = attr == "__post_init__" and cls.__name__ in VALIDATED
                    if inspect.isfunction(value) and (validation or not attr.startswith("_")):
                        plan.append((cls, attr, self._wrap(value, f"{layer}.{cls.__name__}.{attr}")))
        plan.append((np.random, "SeedSequence", self._count(np.random.SeedSequence, "seed_derivations")))
        plan.append((np.random, "default_rng", self._count(np.random.default_rng, "rng_setups")))
        return plan

    def install(self) -> None:
        for owner, attr, replacement in self._replacements:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        name_index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self._observe_gate if name == "photonics.gate_channel" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_index, start, end, parent)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, fn, counter: str):
        stack, counters = self.stack, self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                counters[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe_gate(self, result) -> None:
        _state, success = result
        self.gate_success_min = min(self.gate_success_min, success)

    # -- recording ------------------------------------------------------------

    @contextmanager
    def op(self):
        """Open the root span of one op; library spans nest under it."""
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.spans[index] = (0, start, end, -1)

    # -- results --------------------------------------------------------------

    def fold(self, keep: bool) -> None:
        """Add the recorded spans to the totals, keep them for `write` if asked, clear them."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name_index, start, end, _parent) in enumerate(self.spans):
            name = self.names[name_index]
            self.calls[name] += 1
            self.inclusive_ns[name] += end - start
            self.self_ns[name.partition(".")[0]] += end - start - child_ns[index]
        if keep:
            offset = len(self.kept)
            self.kept += [(n, s, e, p + offset if p >= 0 else -1) for n, s, e, p in self.spans]
        self.spans.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.kept}, handle, separators=(",", ":"))
