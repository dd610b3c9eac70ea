"""In-memory spans around hamid's public calls, recorded from outside.

Modules import one another's functions by name (``from .propagation import
propagate_with_gram``), so a call is wrapped where it is looked up: the
attribute of the calling module, such as ``hamid.newton.propagate_with_gram``.
Wrapping per caller also tells apart the same function called from two
places, e.g. the sweep's target propagation from Newton's final one.
"""
from __future__ import annotations

import importlib
import inspect
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

# A site is (calling module, attribute, span name, note); a note maps the
# call's bound arguments and its result to counts recorded on the span.


@dataclass
class Span:
    sid: int
    name: str
    site: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)
    # wall time the wrapper itself spent around the call: what tracing adds
    cost: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self, sites):
        self.sites = list(sites)
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, note in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, module_name, note))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, name: str, site: str, note) -> Callable:
        signature = inspect.signature(fn) if note is not None else None

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = Span(
                sid=len(self.spans),
                name=name,
                site=site,
                start=time.perf_counter(),
                parent=self._stack[-1].sid if self._stack else None,
            )
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.attrs.update(note(signature.bind(*args, **kwargs).arguments, result))
            span.cost = (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    def mark(self) -> int:
        """Index of the next span, for slicing out one unit of work."""
        return len(self.spans)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s.sid,
                            "name": s.name,
                            "site": s.site,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "cost": s.cost,
                            **s.attrs,
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> dict:
    """Span id -> duration minus the time its subtree spends in other layers.

    A child from the same layer (``newton.reduce_system`` under
    ``newton.identify``) stays part of the parent's self time; a child from
    another layer (``propagation.with_gram``) does not, and neither do the
    other-layer descendants of a same-layer child.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_id = {s.sid: s for s in spans}
    foreign: dict = {}
    for s in sorted(spans, key=lambda s: -s.sid):  # children before parents
        total = 0.0
        for c in children.get(s.sid, ()):
            total += c.duration if c.layer != s.layer else foreign[c.sid]
        foreign[s.sid] = total
    return {sid: by_id[sid].duration - foreign[sid] for sid in by_id}
