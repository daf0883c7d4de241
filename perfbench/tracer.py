"""Span recording around the simulator's public functions, from outside it.

`Tracer.install` replaces public functions of the traced modules with
wrappers that record one span per call: trace id (the experiment), name,
start, end, parent span and optional attributes. `Tracer.remove` puts the
originals back. The simulator's own modules are not edited: each module
calls its own functions and its sibling modules' functions through module
globals, so a patched module attribute is seen by every caller.

Spans stay in memory and are written out by the benchmark when it ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterable, Optional

TRACED_MODULES = ("orchestrator", "nn", "channel", "attacks", "llpf", "aggregation")

# span fields, stored as plain lists to keep per-call overhead small
TRACE, NAME, START, END, PARENT, ATTRS = range(6)


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _samples(index: int, name: str) -> Callable:
    return lambda args, kwargs, result: {"samples": len(_arg(args, kwargs, index, name))}


def _poisoned(samples: Iterable) -> int:
    return sum(s.provenance != "authentic" for s in samples)


def _poison_outcome(args, kwargs, result) -> dict:
    before = _arg(args, kwargs, 0, "caches")
    after_count = sum(_poisoned(c.samples) for c in result)
    return {"poisoned": after_count - sum(_poisoned(c.samples) for c in before)}


def _llpf_outcome(args, kwargs, result) -> dict:
    """Compare each filter input position with the output, by provenance."""
    before = _arg(args, kwargs, 2, "cache").samples
    replaced = [i for i, (a, b) in enumerate(zip(before, result.samples)) if a is not b]
    return {
        "scored": len(before),
        "poisoned": _poisoned(before),
        "replaced": len(replaced),
        "caught": _poisoned(before[i] for i in replaced),
    }


# attributes recorded for a few spans: work counts and LLPF provenance
HOOKS: dict[str, Callable] = {
    "nn.forward_batch": _samples(2, "xs"),
    "nn.batch_gradient": _samples(2, "inputs"),
    "llpf.filter_cache": _llpf_outcome,
    "attacks.poison_caches": _poison_outcome,
}


class Tracer:
    """Records spans for the functions it wraps until `remove` is called."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trace_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self, names: Optional[set] = None) -> "Tracer":
        """Wrap the public functions of every traced module (or only the
        qualified `names`, such as ``"orchestrator.run_round"``).

        A function imported into another traced module is wrapped there too,
        under the name of the module that defines it.
        """
        modules = {m: importlib.import_module(f"fedcsi.{m}") for m in TRACED_MODULES}
        owners = {mod.__name__: short for short, mod in modules.items()}
        for module in modules.values():
            for attr, fn in list(vars(module).items()):
                if not inspect.isfunction(fn) or fn.__name__.startswith("_"):
                    continue
                owner = owners.get(fn.__module__)
                name = f"{owner}.{fn.__name__}"
                if owner is None or (names is not None and name not in names):
                    continue
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, HOOKS.get(name)))
        return self

    def remove(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def _wrap(self, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.trace_id, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if hook is not None:
                span[ATTRS] = hook(args, kwargs, result)
            return result

        return wrapper


def durations(spans: list[list], trace_id: int, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[TRACE] == trace_id and s[NAME] == name]


def summarize(spans: list[list], trace_id: int) -> dict[str, dict]:
    """Per span name within one trace: total seconds, self seconds, calls and
    summed attributes. Self time is a span's duration minus its children's;
    calls are synchronous, so children never overlap each other.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[TRACE] == trace_id and s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, dict] = {}
    for index, s in enumerate(spans):
        if s[TRACE] != trace_id:
            continue
        entry = out.setdefault(s[NAME], defaultdict(float))
        duration = s[END] - s[START]
        entry["s"] += duration
        entry["self_s"] += duration - child_time[index]
        entry["calls"] += 1
        for key, value in (s[ATTRS] or {}).items():
            entry[key] += value
    return out


def time_under(spans: list[list], trace_id: int, name: str, ancestors: set) -> float:
    """Seconds spent in spans called `name` that run inside any of `ancestors`."""
    total = 0.0
    for s in spans:
        if s[TRACE] != trace_id or s[NAME] != name:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in ancestors:
            parent = spans[parent][PARENT]
        if parent >= 0:
            total += s[END] - s[START]
    return total
