"""Per-module spans and call counts for the traced benchmark run.

:class:`Tracer` wraps the public callables of each curveq module in
place: module-level functions are replaced in their defining module and
in every curveq module that imported them by name, and the methods of
public classes are replaced on the class itself, so every call site goes
through the wrapper.  Wrappers record nothing outside an op, so input
generation and reference scans stay untraced.  ``uninstall`` restores
every original object.

A span is ``[name, start, end, parent, op]``: ``parent`` indexes the
enclosing span (-1 for none) and ``op`` is the benchmark op id.  Spans
and counts are kept in memory; :meth:`Tracer.write` dumps the spans as
JSON lines when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import Counter

__all__ = ["LAYERS", "UNTRACED", "Tracer", "self_times"]

# The package's modules are its layers.  ``oracles`` is the reference.
LAYERS = ("geometry", "rangetree", "nn_linf", "nn_translation", "nn_l2",
          "center", "dataio", "cli")

# Public names left unwrapped, with the reason.
UNTRACED = {
    "center.PrefixBitTree":
        "called once per vertex inside center_linf's sweeps; a span per call "
        "would cost more than the work it measures, so its time stays in "
        "center's self time",
}


class Tracer:
    """Records spans and per-op-kind call counts from curveq wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # (op kind, span name) -> calls
        self.wrapped: set[str] = set()
        self.skipped: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._kind = None
        self._undo: list[tuple] = []

    # -- installation ----------------------------------------------------

    def install(self, expected) -> None:
        """Wrap every layer's public callables.

        Names listed in a module's ``__all__`` but missing, and names in
        ``expected`` (``"module.Name"`` or ``"module.Class.method"``)
        that were not wrapped, go to ``skipped`` instead of raising.
        """
        mods = {name: importlib.import_module(f"curveq.{name}") for name in LAYERS}
        users = [importlib.import_module("curveq")] + list(mods.values())
        for layer, mod in mods.items():
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                qual = f"{layer}.{name}"
                if obj is None:
                    self.skipped.append(f"{qual}: not found")
                elif qual in UNTRACED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                elif inspect.isclass(obj):
                    self._wrap_class(qual, obj)
                elif inspect.isfunction(obj):
                    wrapper = self._wrapper(qual, obj)
                    for user in users:
                        if getattr(user, name, None) is obj:
                            self._patch(user, name, wrapper)
        self.skipped += [f"{n}: not wrapped" for n in expected if n not in self.wrapped]

    def _wrap_class(self, qual: str, cls) -> None:
        names = [n for n, v in vars(cls).items()
                 if inspect.isfunction(v) and not n.startswith("_")]
        if not dataclasses.is_dataclass(cls) and inspect.isfunction(vars(cls).get("__init__")):
            names.append("__init__")  # construction is the build step
        for n in names:
            self._patch(cls, n, self._wrapper(f"{qual}.{n}", vars(cls)[n]))

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)
        self.wrapped.add(wrapper.span_name)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _wrapper(self, span_name: str, fn):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([span_name, clock(), 0.0, stack[-1] if stack else -1, self._op])
            counts[self._kind, span_name] += 1
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.span_name = span_name
        return wrapper

    # -- ops --------------------------------------------------------------

    def run_op(self, op_id: int, kind: str, fn):
        """Call ``fn`` as op ``op_id`` under a root span named ``op``."""
        self._op, self._kind = op_id, kind
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter(), 0.0, -1, op_id])
        self.counts[kind, "op"] += 1
        self._stack.append(idx)
        try:
            return fn()
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()
            self._op = self._kind = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (name, start, end, parent, op) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(k, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out
