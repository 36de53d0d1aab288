"""Approximation algorithms for always-star temporal graphs.

Both solvers only ever pick star-center appearances, so their output is a
subset of "one center per nonempty snapshot".  ``star_sc_solve`` takes all
of them; ``star_acov_solve`` slides a window over the lifetime and drops
centers whose edges are covered by other centers inside the window.
"""

from __future__ import annotations

from bisect import bisect_right

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
    return {
        VertexAppearance(centers[t], t)
        for t in range(1, g.T + 1)
        if centers[t] is not None
    }


def star_acov_solve(g: TemporalGraph, delta: int) -> Cover:
    """Sliding-window solver keeping only centers that are actually needed.

    Each window [t, end] visits its steps in order.  A step that is not yet
    in the cover is forced in when one of its edges has neither an included
    step nor a later step inside the window.  Otherwise it is excluded for
    this window only, and each of its edges without an included step is
    charged to its last step in the window, unless an earlier charge
    covered it already; charges go in order of that step, ties by edge id.

    Included steps never leave the cover and none lies after ``end``, so
    an edge has an included step in the window exactly when ``covered``,
    its latest included step, is at least ``t``.  The steps of (s, end]
    not in the cover are all undecided, so when a step s finds an edge
    uncovered, that edge's latest other candidate is its last appearance up
    to ``end`` (one binary search), provided it lies after s.  A window
    costs O(1) for each edge of each undecided step, plus one binary search
    per edge without an included step: O(delta * d) plus those searches
    for snapshots of at most d edges.
    """
    _check_delta(g.T, delta)
    centers = _star_centers(g)
    index, edges = g.time_index, g.edges
    included = bytearray(g.T + 1)
    covered = [0] * g.m  # latest included step at which each edge is active
    cover = set()

    def include(s):
        included[s] = 1
        cover.add(VertexAppearance(centers[s], s))
        for eid in index[s]:
            if covered[eid] < s:
                covered[eid] = s

    for t in range(1, g.T - delta + 2):
        end = t + delta - 1
        for s in range(t, end + 1):
            if included[s]:
                continue
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
                for latest, eid in sorted(plans):
                    if covered[eid] < t:
                        include(latest)

    return cover
