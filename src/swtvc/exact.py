"""Desk-scale exact solvers used as ground truth.

``exact_solve`` is a branch-and-bound over demands; ``brute_force_solve``
enumerates candidate subsets by increasing size and cross-checks the
oracle.  Candidate appearances are restricted to (v, t) where v has an
active edge at t; anything else covers nothing.  Both keep sets of
demands as integer bitmasks, bit i standing for demand i of ``demands()``.
"""

from __future__ import annotations

from itertools import combinations

from .degree import d_approx_s_solve
from .errors import BudgetExceededError, TooLargeError
from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    _window_starts,
    demands,
)


def _coverage(g: TemporalGraph, delta: int):
    """Demands, the sorted candidates (v, t) where v is an endpoint of an
    edge active at t, and per candidate the bitmask of demands it covers.

    Bit i of a mask is demand i in ``demands()`` order; the search's branch
    order, and with it which optimum comes back, depends on that numbering.
    """
    ds = demands(g, delta)
    index = {d: i for i, d in enumerate(ds)}
    hits = {}
    for t in range(1, g.T + 1):
        starts = _window_starts(t, g.T, delta)
        for eid in g.time_index[t]:
            e = g.edges[eid]
            mask = 0
            for w in starts:
                mask |= 1 << index[(eid, w)]
            for c in ((e.u, t), (e.v, t)):
                hits[c] = hits.get(c, 0) | mask
    cands = sorted(hits)
    return ds, cands, [hits[c] for c in cands]


def exact_solve(g: TemporalGraph, delta: int, budget: int = 2_000_000) -> Cover:
    """Minimum-cardinality valid cover via branch and bound.

    Branches over the candidates covering the open demand with the fewest
    covering candidates (fail-first, ties to the lowest demand id); prunes
    with a packing bound.  The search runs on an explicit stack in
    depth-first preorder, so its depth is not tied to the interpreter's
    recursion limit.  Each pending branch holds its own open-demand bitmask:
    memory is O(depth * fan-out * |demands| / 8) bytes.
    Raises BudgetExceededError after ``budget`` search nodes.
    """
    _check_delta(g, delta)
    ds, cands, masks = _coverage(g, delta)
    if not ds:
        return set()

    # candidates covering each demand, in candidate order
    by_demand = [[] for _ in ds]
    for ci, mask in enumerate(masks):
        while mask:
            low = mask & -mask
            by_demand[low.bit_length() - 1].append(ci)
            mask ^= low
    # one mask per fan-out value, least first: the first level an open set
    # meets holds the fail-first targets, its lowest bit the one taken
    by_fanout = {}
    for di, cis in enumerate(by_demand):
        by_fanout[len(cis)] = by_fanout.get(len(cis), 0) | 1 << di
    levels = [by_fanout[f] for f in sorted(by_fanout)]
    # complements, so a child's open set is one AND
    keep = [~mask for mask in masks]

    # warm start: the d-approximation is always valid
    best = d_approx_s_solve(g, delta)
    size, path = len(best), None
    max_cov = max(mask.bit_count() for mask in masks)

    # an entry is (picks, chosen path as nested (candidate, parent) pairs,
    # open demands); the path shares its prefix with its siblings'
    nodes = 0
    stack = [(0, None, (1 << len(ds)) - 1)]
    while stack:
        depth, chosen, remaining = stack.pop()
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        if not remaining:
            if depth < size:
                size, path = depth, chosen
        # packing bound: depth + ceil(|open| / max_cov) picks at least
        elif depth - (-remaining.bit_count() // max_cov) < size:
            for level in levels:
                target = remaining & level
                if target:
                    break
            depth += 1
            # pushed in reverse so they pop in candidate order
            for ci in reversed(by_demand[(target & -target).bit_length() - 1]):
                stack.append((depth, (ci, chosen), remaining & keep[ci]))
    if path is None:
        return best
    cover = set()
    while path is not None:
        ci, path = path
        cover.add(VertexAppearance(*cands[ci]))
    return cover


def brute_force_solve(g: TemporalGraph, delta: int, max_candidates: int = 24) -> Cover:
    """Exhaustive minimum cover by subset enumeration in increasing size."""
    _check_delta(g, delta)
    ds, cands, masks = _coverage(g, delta)
    if not ds:
        return set()
    if len(cands) > max_candidates:
        raise TooLargeError(
            f"{len(cands)} candidate appearances exceed limit {max_candidates}"
        )
    full = (1 << len(ds)) - 1
    for size in range(len(cands) + 1):
        for combo in combinations(range(len(cands)), size):
            acc = 0
            for ci in combo:
                acc |= masks[ci]
            if acc == full:
                return {VertexAppearance(*cands[ci]) for ci in combo}
    raise AssertionError("all candidates together must cover all demands")
