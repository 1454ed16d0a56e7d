"""Spans and counters recorded around the calls into a package's modules.

A span is one call of a wrapped function: its name, the span that was open
when it started (its parent), and its start and end times.  A `Tracer`
keeps every span of a pass in memory; `write` saves them when the run
ends.

`patched` wraps every public function of the given modules and rebinds
every module attribute that refers to one of them, because a module that
did ``from .sampling import sample_wigner`` holds its own binding that a
patch of ``sampling`` alone would miss.  All bindings are restored on exit,
also when the traced code raises.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager

ROOT_STAGE = "other"


class Tracer:
    """Spans of one traced pass, in start order, plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []  # index of the parent span, -1 for a root
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def enter(self, name: str) -> None:
        self._stack.append(len(self.names))
        self.names.append(name)
        self.parents.append(self._stack[-2] if len(self._stack) > 1 else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def exit(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write(self, path) -> None:
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        payload = {
            "names": names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [index[n], p, s, e]
                for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
            ],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def self_times(parents, starts, ends) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest and never overlap, so the children's summed
    durations are the part of the parent's interval they cover.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def summarize(tracer: Tracer, layers, stages: dict, opaque=frozenset()) -> dict:
    """Calls per span name, self time per layer and self time per stage.

    A span's self time goes to the nearest of itself and its ancestors
    whose name is in ``layers`` (to None when there is none), so the
    layers' self times and the None entry add up to the wall time.  For
    stages, a span's self time goes to its own name's stage, or, if it has
    none, to the stage its parent's went to; below a name in ``opaque``
    every span counts as ``ROOT_STAGE``.
    """
    own = self_times(tracer.parents, tracer.starts, tracer.ends)
    calls: dict[str, int] = {}
    self_s: dict = {}
    stage_s: dict[str, float] = {}
    layer_of: list = []
    stage_of: list[str] = []
    hidden: list[bool] = []
    for i, name in enumerate(tracer.names):
        p = tracer.parents[i]
        layer = name if name in layers else (layer_of[p] if p >= 0 else None)
        if (p >= 0 and hidden[p]) or name in opaque:
            stage, hide = ROOT_STAGE, True
        else:
            stage = stages.get(name) or (stage_of[p] if p >= 0 else ROOT_STAGE)
            hide = False
        layer_of.append(layer)
        stage_of.append(stage)
        hidden.append(hide)
        calls[name] = calls.get(name, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + own[i]
        stage_s[stage] = stage_s.get(stage, 0.0) + own[i]
    wall = sum(e - s for p, s, e in zip(tracer.parents, tracer.starts, tracer.ends) if p < 0)
    return {"calls": calls, "self_s": self_s, "stage_s": stage_s,
            "counts": dict(tracer.counts), "wall_s": wall}


def public_functions(module):
    """(name, function) for each public function defined in ``module``."""
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def _wrap(tracer: Tracer, name: str, fn, hook):
    enter, leave = tracer.enter, tracer.exit
    signature = inspect.signature(fn) if hook is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(tracer, signature.bind(*args, **kwargs).arguments)
        enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            leave()

    return wrapper


def _counting(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


@contextmanager
def patched(tracer: Tracer, modules, hooks=None, counted=()):
    """Trace every public function of ``modules`` for the enclosed block.

    Span names are ``<last part of module name>.<function>``.  ``hooks``
    maps a span name to ``hook(tracer, bound_arguments)``, called before
    the function runs.  ``counted`` lists ``(owner, attribute, counter)``
    triples: each call of ``owner.attribute`` adds one to ``counter`` and
    records no span.
    """
    hooks = hooks or {}
    wrappers = {}  # id(original) -> (original, wrapper)
    for module in modules:
        prefix = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in public_functions(module):
            name = f"{prefix}.{attr}"
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn, hooks.get(name)))
    saved = []  # (namespace, attribute, original value)
    try:
        for owner, attr, counter in counted:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _counting(tracer, counter, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    saved.append((module, attr, value))
                    setattr(module, attr, pair[1])
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
