"""Desk-scale exact solvers used as ground truth.

``exact_solve`` is a branch-and-bound over demands; ``brute_force_solve``
enumerates candidate subsets by increasing size and cross-checks the
oracle.  Candidate appearances are restricted to (v, t) where v has an
active edge at t; anything else covers nothing.
"""

from __future__ import annotations

import sys
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


def _candidates(g: TemporalGraph):
    """All (v, t) pairs where v is an endpoint of an edge active at t."""
    seen = set()
    for t in range(1, g.T + 1):
        for eid in g.time_index[t]:
            e = g.edges[eid]
            seen.add((e.u, t))
            seen.add((e.v, t))
    return sorted(seen)


def _coverage(g: TemporalGraph, delta: int):
    """Candidates plus, per candidate, the set of demand indices it covers."""
    ds = demands(g, delta)
    index = {d: i for i, d in enumerate(ds)}
    cands = _candidates(g)
    covered = []
    for v, t in cands:
        hit = set()
        for eid in g.time_index[t]:
            e = g.edges[eid]
            if v == e.u or v == e.v:
                for w in _window_starts(t, g.T, delta):
                    hit.add(index[(eid, w)])
        covered.append(frozenset(hit))
    return ds, cands, covered


def exact_solve(g: TemporalGraph, delta: int, budget: int = 2_000_000) -> Cover:
    """Minimum-cardinality valid cover via branch and bound.

    Branches over the candidates covering the open demand with the fewest
    covering candidates (fail-first); prunes with a packing bound.  Raises
    BudgetExceededError after ``budget`` search nodes, and TooLargeError
    when the search would recurse past the interpreter's recursion limit.
    """
    _check_delta(g, delta)
    ds, cands, covered = _coverage(g, delta)
    if not ds:
        return set()

    # candidates covering each demand
    by_demand = [[] for _ in ds]
    for ci, hit in enumerate(covered):
        for di in hit:
            by_demand[di].append(ci)

    # warm start: the d-approximation is always valid
    incumbent = d_approx_s_solve(g, delta)
    best = [len(incumbent), set(incumbent)]
    max_cov = max((len(h) for h in covered), default=1) or 1

    nodes = [0]

    def dfs(chosen, remaining):
        nodes[0] += 1
        if nodes[0] > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        if not remaining:
            if len(chosen) < best[0]:
                best[0] = len(chosen)
                best[1] = set(chosen)
            return
        if len(chosen) + ceil(len(remaining) / max_cov) >= best[0]:
            return
        target = min(remaining, key=lambda di: len(by_demand[di]))
        for ci in by_demand[target]:
            chosen.append(cands[ci])
            dfs(chosen, remaining - covered[ci])
            chosen.pop()

    try:
        dfs([], frozenset(range(len(ds))))
    except RecursionError:
        # the search recurses once per chosen appearance
        raise TooLargeError(
            f"search depth exceeds the recursion limit of {sys.getrecursionlimit()}"
        ) from None
    return {VertexAppearance(v, t) for v, t in best[1]}


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
