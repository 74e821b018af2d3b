"""Span recording around the program's layer boundaries, from outside.

`Tracer.wrap` replaces a module, class or instance attribute with a wrapper
that records one span per call: name, start, end, parent span, item id, a few
call attributes and whether it raised. Parents come from a thread-local stack,
so spans nest per thread and items running in parallel stay apart. Spans stay
in memory until `write` at the end of the run. A target that no longer exists
is listed in `missing` and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    item: object  # the unit of work the span belongs to, or None
    attrs: object
    failed: bool

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


_UNSET = object()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # --- patching ------------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Callable | None = None,
        item_of: Callable | None = None,
    ) -> None:
        """Trace calls to `owner.attr` as spans called `name`.

        `attrs(args, kwargs, result)` returns the span's attributes; `item_of(args)`
        marks the wrapped call as the unit of work that child spans belong to.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(name)
            return
        spans, local, ids = self.spans, self._local, self._ids

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.item = None
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            outer_item = local.item
            if item_of is not None:
                local.item = item_of(args)
            stack.append(span_id)
            result, failed = None, True
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                info = attrs(args, kwargs, result) if attrs is not None and not failed else None
                spans.append(Span(span_id, parent, name, start, end, local.item, info, failed))
                local.item = outer_item

        raw = vars(owner).get(attr, _UNSET) if hasattr(owner, "__dict__") else _UNSET
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _UNSET:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def current_item(self):
        return getattr(self._local, "item", None)

    # --- analysis --------------------------------------------------------------------

    def between(self, start: float, end: float) -> list[Span]:
        return [s for s in self.spans if start <= s.start and s.end <= end]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name,
                    "start": s.start, "end": s.end,
                    "item": getattr(s.item, "ref", s.item),
                    "failed": s.failed,
                }) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover, in ms.

    Children run on their parent's thread, one at a time, so their durations add.
    """
    child_ms: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_ms[s.parent] += s.ms
    return {s.id: max(0.0, s.ms - child_ms[s.id]) for s in spans}


def self_ms_by_layer(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[s.id]
    return dict(totals)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples (the layer was not called)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
