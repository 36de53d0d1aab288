"""Timing and span recording around the benchmark's calls into swtvc.

Every call the benchmark makes into the package goes through
``Recorder.call``, which returns the call's result and its duration.  With
``tracing`` on, the recorder also keeps one span per call and per benchmark
section: name, start, end, parent span and pass id.  Spans stay in memory
and are written out once, when the run ends.  A span's layer is the part of
its name before the first dot (``star.star_acov_solve`` -> ``star``).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Recorder:
    def __init__(self):
        self.tracing = False
        self.pass_id = None
        self.spans = []  # [name, start, end, parent index or None, pass id]
        self._open = []

    @contextmanager
    def span(self, name):
        if not self.tracing:
            yield
            return
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, perf_counter(), None, parent, self.pass_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return (result, seconds)."""
        with self.span(name):
            start = perf_counter()
            result = fn(*args, **kwargs)
            seconds = perf_counter() - start
        return result, seconds


def layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_times(spans, pass_id):
    """Per-layer (busy, self) seconds over the spans of one pass id.

    Busy time is the summed duration of the layer's outermost spans; self
    time subtracts the part covered by child spans.  Calls run one at a
    time, so child spans never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    busy: dict = {}
    own: dict = {}
    for i, (name, start, end, parent, pid) in enumerate(spans):
        if pid != pass_id:
            continue
        lay = layer(name)
        ancestor = parent
        while ancestor is not None and layer(spans[ancestor][0]) != lay:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            busy[lay] = busy.get(lay, 0.0) + (end - start)
        own[lay] = own.get(lay, 0.0) + (end - start) - child_time[i]
    return busy, own
