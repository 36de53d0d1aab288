"""Baseline solvers for general temporal graphs.

``d_approx_solve`` solves each single-edge temporal subgraph exactly and
takes the union (a d-approximation on always degree-at-most-d graphs).
``d_approx_s_solve`` is the engineered variant: the same solution computed
by walking the appearance lists instead of every time step.  It makes one
pass over each edge's sorted labels, hosting the edge's picks at the
endpoint ``chosen_endpoint`` names, all edges in one call of the shared
greedy ``_single_edge_picks``.  A label at least delta past the previous
pick is the next pick with no search; only a window starting right after
the previous pick takes a binary search, and a pick another edge already
made is looked up, not rebuilt: O(n + m + picks + s * log k) for k labels
per edge and s <= picks searched windows.  ``single_edge_exact`` is the
same greedy on one checked label list.
``d1_approx_solve`` covers two-edge paths through their middle vertex, a
heuristic with no proven bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .errors import OutOfRangeLabelError, OutOfRangeVertexError
from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    _check_int,
    _is_integer,
)


def single_edge_exact(appearances, T: int, delta: int):
    """Minimum set of chosen appearance steps covering every demand window.

    Greedy canonical form: walk demand windows left to right and, on the
    first uncovered one, take the largest appearance inside it.  Returns
    the chosen time steps in increasing order.  ``T`` must be an integer of
    at least 0 and the labels an iterable of integers in ``[1, T]``, in
    nondecreasing order; any other ``T``, label or label input is an
    OutOfRangeLabelError naming it.
    """
    _check_int(T, "T", 0, OutOfRangeLabelError)
    _check_delta(T, delta)
    try:
        # apart from list(), so a TypeError raised inside a label
        # generator is not reported as "not iterable"
        labels = iter(appearances)
    except TypeError:
        raise OutOfRangeLabelError(f"labels {appearances!r} are not iterable") from None
    apps = list(labels)
    before = 1
    for a in apps:
        if not _is_integer(a):
            raise OutOfRangeLabelError(f"label {a!r} is not an integer")
        if not (1 <= a <= T):
            raise OutOfRangeLabelError(f"label {a} outside [1, {T}]")
        if a < before:
            raise OutOfRangeLabelError(f"label {a} is smaller than the label {before} before it")
        before = a
    return sorted(t for _, t in _single_edge_picks((apps,), (0,), T - delta + 1, delta))


def _single_edge_picks(label_lists, hosts, last_start: int, delta: int) -> Cover:
    """``single_edge_exact``'s greedy on each sorted label sequence, unchecked:
    the set of ``(host, pick)`` appearances, each pick hosted by the
    sequence's vertex in ``hosts``.

    One label at a time, with ``last`` the previous pick: a label ``a``
    with ``a - delta >= last`` ends the first open window,
    ``[a - delta + 1, a]``, so it is the pick with no search.  Any other
    label lies before the end of the window starting at ``last + 1``;
    unless that window starts past ``last_start``, one binary search finds
    its last label.  A pick another sequence already made is looked up,
    not rebuilt."""
    cover = set()
    for apps, host in zip(label_lists, hosts):
        last = 0
        j = 0
        while j < len(apps):
            a = apps[j]
            if a - delta >= last:
                # a <= T, so its window [a - delta + 1, a] starts by last_start
                last = a
                j += 1
            elif last >= last_start:
                break
            else:
                # the window's last appearance, searched from j; j moves
                # just past it
                j = bisect_right(apps, last + delta, j)
                last = apps[j - 1]
            pick = (host, last)
            if pick not in cover:
                # tuple.__new__, as Demand lists are built, skips the
                # namedtuple's Python-level __new__; a shared pick keeps
                # the object built first
                cover.add(tuple.__new__(VertexAppearance, pick))
    return cover


def chosen_endpoint(g: TemporalGraph, eid: int) -> int:
    """Endpoint hosting a single-edge cover: larger degree, ties to ``u``,
    the smaller vertex id.  Shared endpoints shrink the union.

    An edge id outside ``[0, m)`` or not an integer is an
    OutOfRangeVertexError naming it.
    """
    edges = g.edges
    # an id that is not an integer fails as a TypeError in the comparison
    # or the index; only then is it named, so a valid id pays nothing
    try:
        if not (0 <= eid < len(edges)):
            raise OutOfRangeVertexError(f"edge id {eid} outside [0, {len(edges)})")
        u, v, _ = edges[eid]
    except TypeError:
        raise OutOfRangeVertexError(f"edge id {eid!r} is not an integer") from None
    return v if len(g.adjacency[v]) > len(g.adjacency[u]) else u


def d_approx_solve(g: TemporalGraph, delta: int) -> Cover:
    """Per-edge exact single-edge covers, union taken; iterates every time
    step of every edge (the original per-edge, per-step traversal)."""
    _check_delta(g.T, delta)
    T = g.T
    last_start = T - delta + 1
    cover = set()
    for eid, edge in enumerate(g.edges):
        active = bytearray(T + 1)
        for a in edge.appearances:
            active[a] = 1
        v = chosen_endpoint(g, eid)
        latest = 0  # largest appearance <= current window end
        for s in range(1, delta):
            if active[s]:
                latest = s
        last_chosen = 0
        for t in range(1, last_start + 1):
            window_end = t + delta - 1
            if active[window_end]:
                latest = window_end
            if latest >= t and last_chosen < t:
                cover.add(VertexAppearance(v, latest))
                last_chosen = latest
    return cover


def d_approx_s_solve(g: TemporalGraph, delta: int) -> Cover:
    """Same contract and same output set as ``d_approx_solve``; skips time
    steps without an edge appearance by walking the appearance lists, all
    edges in one greedy call, each hosted by ``chosen_endpoint``'s rule."""
    _check_delta(g.T, delta)
    degree = list(map(len, g.adjacency))
    edges = g.edges
    hosts = [v if degree[v] > degree[u] else u for u, v, _ in edges]
    return _single_edge_picks([e[2] for e in edges], hosts, g.T - delta + 1, delta)


def d1_approx_solve(g: TemporalGraph, delta: int) -> Cover:
    """Cover two-edge paths through their shared (middle) vertex.

    Demands are processed in (window, edge) order against a ledger of the
    window starts each edge already has covered, empty at first.  For an
    uncovered demand we scan the edge's in-window appearances from latest
    to earliest for an adjacent edge that is active there and still has an
    uncovered window start around that step; the shared endpoint then
    covers both.  Without such a partner we fall back to the single-edge
    rule.  The greedy never looks back, so an early pairing pick can end up
    subsumed by later picks; that slack is what the windowed star solver
    exploits on dense instances.

    The start order gives the ledger, one set of covered starts per edge,
    an invariant: a pick made while handling start t lies in
    [t, t+delta-1], so while start t is handled every demand start of an
    edge before t is in its set, and its starts from t on that are in the
    set run without a gap up to its latest covering pick.  So the starts
    around a step tp are all covered exactly when
    ``top = min(tp, T-delta+1)`` is: each ledger question, a demand's, a
    partner probe's or a settle's, is one set lookup, and a settle adds
    only ``range(t, top + 1)`` in one C-level ``set.update`` per edge.

    The open demands are found with a bucket queue, ``wait``, one list of
    edge ids per window start.  An edge waits first at its first demand
    start, and again one past each run of starts a settle adds to its set,
    so every edge with an uncovered demand at t waits at t.  At start t the
    list is sorted in place, so edges are taken in increasing id order, an
    edge already covered at t is skipped, and an edge with no appearance in
    the window moves on to its next demand start.  Nothing joins
    ``wait[t]`` while t is handled.  The work per start is one sort of the
    edges waiting there and two bisections per edge not yet covered; a
    covered demand is never visited on its own.
    """
    _check_delta(g.T, delta)
    last_start = g.T - delta + 1
    edges, index = g.edges, g.time_index
    done = [set() for _ in edges]  # eid -> covered window starts
    wait = [[] for _ in range(last_start + 1)]  # start -> waiting edge ids
    for eid, (_, _, apps) in enumerate(edges):
        wait[max(1, apps[0] - delta + 1)].append(eid)

    cover = set()
    for t in range(1, last_start + 1):
        eids = wait[t]
        eids.sort()
        for eid in eids:
            if t in done[eid]:
                continue
            edge = edges[eid]
            apps = edge.appearances
            lo = bisect_left(apps, t)
            hi = bisect_right(apps, t + delta - 1, lo)
            if lo == hi:
                # no demand at t: wait at the edge's next demand start
                if lo < len(apps):
                    wait[apps[lo] - delta + 1].append(eid)
                continue
            ends = (edge.u, edge.v)
            in_window = apps[lo:hi]

            # the snapshot lists edge ids in increasing order
            picked = None
            for tp in reversed(in_window):
                top = min(tp, last_start)
                for fid in index[tp]:
                    if fid != eid and top not in done[fid]:
                        fu, fv, _ = edges[fid]
                        if fu in ends or fv in ends:
                            picked = (fu if fu in ends else fv, tp)
                            break
                if picked:
                    break
            if picked is None:
                picked = (chosen_endpoint(g, eid), in_window[-1])

            cover.add(VertexAppearance(*picked))
            v, tp = picked
            top = min(tp, last_start)
            # tp <= t+delta-1, so the starts of tp before t are all covered
            starts = range(t, top + 1)
            for fid in index[tp]:
                fu, fv, _ = edges[fid]
                if (fu == v or fv == v) and top not in done[fid]:
                    done[fid].update(starts)
                    if top < last_start:
                        wait[top + 1].append(fid)
    return cover
