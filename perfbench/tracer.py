"""In-memory spans recorded around calls into the program's layers.

The traced run opens a span around each call it makes into a layer and
wraps the few public functions that a layer calls internally (for
example ``collect`` inside ``Simulator.run``).  A layer's *self* time is
its spans' duration minus the part covered by child spans, so the self
times of all spans add up to the time the top-level spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional


class Tracer:
    """Nested spans of one single-threaded traced run."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or None].
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        """Record a span named *name* around the body of the ``with``."""
        index = len(self.spans)
        parent: Optional[int] = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def wrapping(self, owner, attribute: str, name: str):
        """Record a span around every call of ``owner.attribute``.

        The original attribute is restored when the ``with`` ends.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, in seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            totals[name] += end - start
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)

    def covered_seconds(self) -> float:
        """Time covered by top-level spans (the sum of all self times)."""
        return sum(
            end - start
            for _name, start, end, parent in self.spans
            if parent is None
        )
