"""In-memory span tracer that wraps the program's public calls at run time.

The benchmark never edits the program: a traced run replaces selected
public functions and methods with thin wrappers that open a span on
entry and close it on exit, then restores the originals. A span is
``[name, start, end, parent]`` with ``parent`` the index of the span
that was open when it started (``-1`` at the root). Spans only open and
close inside synchronous code, so one stack is enough even under
asyncio: a coroutine never awaits while one of these spans is open,
except the benchmark's own phase span, which is the parent of
everything that runs during the phase.

A layer's self time is the total duration of its spans minus the part
covered by their child spans. Self times of all layers plus the
``unattributed`` remainder sum to the traced wall time exactly
(:func:`ledger`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict


class Tracer:
    """Span recorder and function patcher for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent]`` per span, in start order.
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        """Start a span; every span opened counts as one ``<name>.calls``."""
        self.counters[f"{name}.calls"] += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.spans[index][0]!r} closed out of order "
                f"(open: {self.spans[top][0]!r})"
            )

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper.

        ``owner`` is a class or a module. ``after(tracer, result, args,
        kwargs, state)`` books counters once the span has closed;
        ``state`` is what ``after.before(args, kwargs)`` returned on
        entry, when the hook has a ``before``. A module
        function is also replaced wherever another loaded ``repro``
        module imported it by name, so ``from x import f`` call sites
        are traced too.
        """
        raw = inspect.getattr_static(owner, attr)
        kind = None
        func = raw
        if isinstance(raw, classmethod):
            kind, func = classmethod, raw.__func__
        elif isinstance(raw, staticmethod):
            kind, func = staticmethod, raw.__func__
        tracer = self
        before = getattr(after, "before", None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            index = tracer.open(layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(tracer, result, args, kwargs, state)
            return result

        replacement = kind(wrapper) if kind is not None else wrapper
        self._set(owner, attr, raw, replacement)
        if inspect.ismodule(owner):
            for name, module in list(sys.modules.items()):
                if (
                    module is not owner
                    and name.split(".")[0] == "repro"
                    and module.__dict__.get(attr) is raw
                ):
                    self._set(module, attr, raw, replacement)

    def _set(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name self time: duration minus the children's durations."""
    own = [span[2] - span[1] for span in spans]
    for span, duration in zip(spans, list(own)):
        if span[3] >= 0:
            own[span[3]] -= duration
    totals: dict[str, float] = defaultdict(float)
    for span, seconds in zip(spans, own):
        totals[span[0]] += seconds
    return dict(totals)


def ledger(spans: list[list], wall_s: float) -> dict:
    """Self time per layer plus the unattributed rest of ``wall_s``.

    Root spans must lie inside the wall interval; the rows then sum to
    ``wall_s`` (up to float rounding).
    """
    layers = self_times(spans)
    covered = sum(span[2] - span[1] for span in spans if span[3] < 0)
    unattributed = wall_s - covered
    return {
        "wall_s": wall_s,
        "layers": layers,
        "unattributed_s": unattributed,
        "unattributed_share": unattributed / wall_s if wall_s > 0 else 0.0,
    }
