"""Approximation algorithms for always-star temporal graphs.

Both solvers only ever pick star-center appearances, so their output is a
subset of "one center per nonempty snapshot".  ``star_sc_solve`` takes all
of them; ``star_acov_solve`` slides a window over the lifetime and drops
centers whose edges are covered by other centers inside the window.  It
examines only the steps that can still change its cover, taken from a heap
of due steps, so its work follows those steps rather than the window
slots.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import heappop, heappush

from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    _star_centers,
)


def star_sc_solve(g: TemporalGraph, delta: int) -> Cover:
    """Cover containing the star center of every nonempty snapshot.

    ``delta`` only parameterizes the validity claim; the construction does
    not consult it.  Valid for every window size by definition.
    """
    _check_delta(g.T, delta)
    centers = _star_centers(g)
    # tuple.__new__, as Demand lists are built, skips the namedtuple's
    # Python-level __new__
    return {
        tuple.__new__(VertexAppearance, (centers[t], t))
        for t in range(1, g.T + 1)
        if centers[t] is not None
    }


def star_acov_solve(g: TemporalGraph, delta: int) -> Cover:
    """Sliding-window solver keeping only centers that are actually needed.

    Each window [t, end] examines its steps in order.  A step that is not
    yet in the cover is forced in when one of its edges has neither an
    included step nor a later step inside the window.  Otherwise it is
    excluded for this window only, and each of its edges without an
    included step is charged to its last step in the window, unless an
    earlier charge covered it already; charges go in order of that step,
    ties by edge id.

    Included steps never leave the cover and none lies after ``end``, so
    an edge has an included step in the window exactly when ``covered``,
    its latest included step, is at least ``t``.  The steps of (s, end]
    not in the cover are all undecided, so when a step s finds an edge
    uncovered, that edge's latest other candidate is its last appearance up
    to ``end`` (one binary search), provided it lies after s.

    A step whose edges all have ``covered`` at least ``t`` changes nothing
    at window t, and since ``covered`` only grows it changes nothing until
    the window passes the least of those values.  So only due steps are
    examined, from a min-heap of ``window * (T + 1) + step``: a nonempty
    step is first due at its first window, and a step left out at window t
    is due again one past the least ``covered`` of its edges (which is past
    t), or dropped once that lies beyond the step itself.  Steps of one
    window pop in increasing order, as a scan of the window would visit
    them, and nothing becomes due in the middle of a window, so the cover
    is the one the scan of every window slot makes.  Each examination costs
    O(1) per edge of the step, plus one binary search per uncovered edge
    and one heap operation: the work follows the steps that can still
    change the cover, not the (T - delta + 1) * delta window slots.
    """
    _check_delta(g.T, delta)
    centers = _star_centers(g)
    index, edges = g.time_index, g.edges
    included = bytearray(g.T + 1)
    covered = [0] * g.m  # latest included step at which each edge is active
    cover = set()

    def include(s):
        included[s] = 1
        cover.add(tuple.__new__(VertexAppearance, (centers[s], s)))
        for eid in index[s]:
            if covered[eid] < s:
                covered[eid] = s

    covered_at = covered.__getitem__
    stride, last = g.T + 1, g.T - delta + 1
    # each nonempty step is first due at its first window; the keys ascend
    # in s, so the list is already a heap, and plain ints, which the cyclic
    # GC does not track, keep a long sparse lifetime cheap
    due = [stride + s for s in range(1, min(delta, g.T + 1)) if index[s]]
    due += [(s - delta + 1) * stride + s for s in range(delta, g.T + 1) if index[s]]
    while due:
        t, s = divmod(heappop(due), stride)
        if t > last:
            break
        if included[s]:
            continue
        end = t + delta - 1
        plans = []  # (last step in the window, eid) of uncovered edges
        for eid in index[s]:
            if covered[eid] >= t:
                continue
            apps = edges[eid].appearances
            latest = apps[bisect_right(apps, end) - 1]
            if latest <= s:
                include(s)  # no other center can cover this edge
                break
            plans.append((latest, eid))
        else:
            # most constrained edge first, so one inclusion serves the rest
            plans.sort()
            for latest, eid in plans:
                if covered[eid] < t:
                    include(latest)
            again = min(map(covered_at, index[s])) + 1
            if again <= s:
                heappush(due, again * stride + s)

    return cover
