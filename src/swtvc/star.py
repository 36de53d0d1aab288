"""Approximation algorithms for always-star temporal graphs.

Both solvers only ever pick star-center appearances, so their output is a
subset of "one center per nonempty snapshot".  ``star_sc_solve`` takes all
of them; ``star_acov_solve`` slides a window over the lifetime and drops
centers whose edges are covered by other centers inside the window.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    star_center_at,
)

_EXCLUDED, _AVAILABLE, _INCLUDED = 0, 1, 2


def _centers(g: TemporalGraph):
    """Per-time-step star center (None for empty snapshots).

    Raises NotAStarError on the first non-star snapshot, so calling this
    doubles as the always-star precondition check.
    """
    return [None] + [star_center_at(g, t) for t in range(1, g.T + 1)]


def star_sc_solve(g: TemporalGraph, delta: int) -> Cover:
    """Cover containing the star center of every nonempty snapshot.

    ``delta`` only parameterizes the validity claim; the construction does
    not consult it.  Valid for every window size by definition.
    """
    _check_delta(g, delta)
    centers = _centers(g)
    return {
        VertexAppearance(centers[t], t)
        for t in range(1, g.T + 1)
        if centers[t] is not None
    }


def star_acov_solve(g: TemporalGraph, delta: int) -> Cover:
    """Sliding-window solver keeping only centers that are actually needed.

    Every time step carries an inclusion status: included centers are in
    the output (and stay there), excluded ones are argued away for the
    current window only, available ones are undecided.  Per window, a
    center is forced in when one of its edges cannot be covered by any
    other non-excluded center in the window; otherwise the step is
    excluded and each of its edges is charged to an already included step
    or to the latest available step where the edge is active.  Exclusion
    does not carry over: the next window re-examines the step from
    scratch, because its former coverers may have slid out.

    An edge's steps inside the window come from two binary searches on its
    appearance list, so a window costs, for every edge of every undecided
    step in it, O(log |appearances|) plus its appearances in the window:
    at most O(delta * d * (delta + log T)) for snapshots of at most d edges.
    """
    _check_delta(g, delta)
    centers = _centers(g)
    index, edges = g.time_index, g.edges
    status = [_AVAILABLE if eids else _EXCLUDED for eids in index]

    cover = set()
    for t in range(1, g.T - delta + 2):
        end = t + delta - 1
        window = range(t, end + 1)
        # exclusions were only valid for the previous window
        for s in window:
            if status[s] == _EXCLUDED and index[s]:
                status[s] = _AVAILABLE

        for s in window:
            if status[s] != _AVAILABLE:
                continue
            plans = []  # (latest available other step or end + 1, eid, steps)
            for eid in index[s]:
                apps = edges[eid].appearances
                steps = apps[bisect_left(apps, t):bisect_right(apps, end)]
                included, latest = False, end + 1
                for u in steps:
                    if u == s:
                        continue
                    if status[u] == _INCLUDED:
                        included = True
                    elif status[u] == _AVAILABLE:
                        latest = u
                if not included and latest > end:
                    plans = None  # no other center can cover this edge
                    break
                plans.append((latest, eid, steps))
            if plans is None:
                cover.add(VertexAppearance(centers[s], s))
                status[s] = _INCLUDED
                continue

            status[s] = _EXCLUDED
            # most constrained edge first, so one inclusion serves the rest
            for latest, _, steps in sorted(plans):
                if not any(status[u] == _INCLUDED for u in steps):
                    cover.add(VertexAppearance(centers[latest], latest))
                    status[latest] = _INCLUDED

    return cover
