"""Desk-scale exact solvers used as ground truth.

``exact_solve`` is a branch-and-bound over demands; ``brute_force_solve``
enumerates candidate subsets by increasing size and cross-checks the
oracle.  Candidate appearances are restricted to (v, t) where v has an
active edge at t; anything else covers nothing.
"""

from __future__ import annotations

from itertools import combinations
from math import ceil

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
    edge active at t, and per candidate the set of demand indices it covers.

    The indices follow ``demands()`` order; the search's branch order, and
    with it which optimum comes back, depends on that numbering.
    """
    ds = demands(g, delta)
    index = {d: i for i, d in enumerate(ds)}
    hits = {}
    for t in range(1, g.T + 1):
        starts = _window_starts(t, g.T, delta)
        for eid in g.time_index[t]:
            e = g.edges[eid]
            ids = [index[(eid, w)] for w in starts]
            for v in (e.u, e.v):
                hits.setdefault((v, t), set()).update(ids)
    cands = sorted(hits)
    return ds, cands, [frozenset(hits[c]) for c in cands]


def exact_solve(g: TemporalGraph, delta: int, budget: int = 2_000_000) -> Cover:
    """Minimum-cardinality valid cover via branch and bound.

    Branches over the candidates covering the open demand with the fewest
    covering candidates (fail-first); prunes with a packing bound.  The
    search runs on an explicit stack in depth-first preorder, so its depth
    is not tied to the interpreter's recursion limit.  Pending branches
    share their parent's open-demand set: memory is O(depth * |demands|).
    Raises BudgetExceededError after ``budget`` search nodes.
    """
    _check_delta(g, delta)
    ds, cands, covered = _coverage(g, delta)
    if not ds:
        return set()

    # candidates covering each demand, and how many
    by_demand = [[] for _ in ds]
    for ci, hit in enumerate(covered):
        for di in hit:
            by_demand[di].append(ci)
    fanout = [len(cis) for cis in by_demand]

    # warm start: the d-approximation is always valid
    best = d_approx_s_solve(g, delta)
    max_cov = max(map(len, covered))

    # an entry is a chosen path, the demands open before its last pick and
    # the demands that pick covers; siblings share their parent's open set
    nodes = 0
    stack = [((), frozenset(range(len(ds))), frozenset())]
    while stack:
        chosen, remaining, hit = stack.pop()
        remaining -= hit
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        if not remaining:
            if len(chosen) < len(best):
                best = chosen
        elif len(chosen) + ceil(len(remaining) / max_cov) < len(best):
            target = min(remaining, key=fanout.__getitem__)
            # pushed in reverse so they pop in candidate order
            for ci in reversed(by_demand[target]):
                stack.append((chosen + (cands[ci],), remaining, covered[ci]))
    return {VertexAppearance(v, t) for v, t in best}


def brute_force_solve(g: TemporalGraph, delta: int, max_candidates: int = 24) -> Cover:
    """Exhaustive minimum cover by subset enumeration in increasing size."""
    _check_delta(g, delta)
    ds, cands, covered = _coverage(g, delta)
    if not ds:
        return set()
    if len(cands) > max_candidates:
        raise TooLargeError(
            f"{len(cands)} candidate appearances exceed limit {max_candidates}"
        )
    full = (1 << len(ds)) - 1
    masks = []
    for hit in covered:
        m = 0
        for di in hit:
            m |= 1 << di
        masks.append(m)
    for size in range(len(cands) + 1):
        for combo in combinations(range(len(cands)), size):
            acc = 0
            for ci in combo:
                acc |= masks[ci]
            if acc == full:
                return {VertexAppearance(*cands[ci]) for ci in combo}
    raise AssertionError("all candidates together must cover all demands")
