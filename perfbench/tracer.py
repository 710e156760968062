"""Span recorder that wraps package functions from outside the package.

A wrap point names the module or class whose attribute the caller looks up
at call time, so replacing the attribute there routes every call through the
recorder without editing the package. Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, unit]`` and written out at the end.
"""

from __future__ import annotations

import json
import time

_now = time.perf_counter_ns


class Tracer:
    """Records one span per wrapped call; ``unit`` tags the spans of one
    cell or sweep pass so they can be told apart afterwards."""

    def __init__(self):
        self.spans: list[list] = []
        self.unit = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            span = [label, 0, 0, stack[-1] if stack else -1, self.unit]
            spans.append(span)
            stack.append(idx)
            span[1] = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _now()
                stack.pop()

        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn`` inside a span recorded by the caller itself."""
        return self._wrap(fn, name)(*args)

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a recording wrapper. ``name`` is the span
        name, or a function of (args, kwargs) that returns it."""
        self.patch(owner, attr, self._wrap(owner.__dict__[attr], name))

    def wrap_tape_record(self, tape_cls) -> None:
        """Record ``Tape.record`` calls and wrap each backward callback in a
        span named after the forward span that recorded it (``x.fwd`` gives
        ``x.bwd``), so backward time is charged to the op that owns it."""
        original = tape_cls.__dict__["record"]
        spans, stack = self.spans, self._stack
        traced_record = self._wrap(original, "autodiff.Tape.record")

        def record(tape, op, out, backward_fn):
            owner = spans[stack[-1]][0] if stack else ""
            if owner.endswith(".fwd"):
                bwd_name = owner[: -len(".fwd")] + ".bwd"
            else:
                bwd_name = f"autodiff.{op}.bwd"
            return traced_record(tape, op, out, self._wrap(backward_fn, bwd_name))

        self.patch(tape_cls, "record", record)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent, "unit": unit}) + "\n")


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def under(spans, root_name: str) -> list[bool]:
    """Whether each span is, or descends from, a span named ``root_name``.
    Parents are always recorded before their children."""
    flags: list[bool] = []
    for name, _, _, parent, _ in spans:
        flags.append(name == root_name or (parent >= 0 and flags[parent]))
    return flags
