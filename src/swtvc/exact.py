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
from .errors import BadConfigError, BudgetExceededError, TooLargeError
from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    _window_starts,
    demands,
)

# Node budget of ``exact_solve`` when the caller gives none.
DEFAULT_BUDGET = 2_000_000
# Memory cap of ``exact_solve``'s replay table, and the bytes charged per
# entry besides its mask's bits: about 150 for the int header, key tuple,
# count and dict slot (tracemalloc, CPython 3.11), with room for the
# dict's resizes.
_REPLAY_TABLE_BYTES = 32 * 2**20
_REPLAY_ENTRY_BYTES = 200
# Most candidate appearances ``brute_force_solve`` enumerates subsets of.
_BRUTE_FORCE_CANDIDATES = 24


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


def exact_solve(g: TemporalGraph, delta: int, budget: int = DEFAULT_BUDGET) -> Cover:
    """Minimum-cardinality valid cover via branch and bound.

    Branches over the candidates covering the open demand with the fewest
    covering candidates (fail-first, ties to the lowest demand id); prunes
    with a packing bound.  The search runs on an explicit stack in
    depth-first preorder, so its depth is not tied to the interpreter's
    recursion limit.

    While the incumbent size is unchanged, a node's subtree depends only on
    its open demands and its slack (incumbent size minus depth).  A replay
    table maps that pair to the node count of each finished subtree that
    improved nothing; a node that meets a recorded pair adds the count
    instead of searching again, since it would improve nothing again.  So
    covers, node counts and the point where the budget runs out are those
    of the plain search.  The table stops growing at about
    ``_REPLAY_TABLE_BYTES`` (each entry charged its mask's bytes plus
    ``_REPLAY_ENTRY_BYTES``).  Memory is O(depth * fan-out * |demands| / 8)
    bytes for the stacked open-demand bitmasks plus that capped table.
    Raises BudgetExceededError after ``budget`` search nodes, and
    BadConfigError before any search when ``budget`` is below 1.
    """
    _check_delta(g.T, delta)
    if budget < 1:
        raise BadConfigError(f"node budget must be at least 1, got {budget}")
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

    # (open demands, slack) -> node count of a finished subtree that left
    # the incumbent alone; it stops growing once full
    done = {}
    room = _REPLAY_TABLE_BYTES // (len(ds) // 8 + _REPLAY_ENTRY_BYTES)
    # an entry is (picks, chosen path as nested (candidate, parent) pairs,
    # open demands); the path shares its prefix with its siblings'.  Under
    # a branching node's children lies its exit marker (None, key, nodes
    # and incumbent size before the node).
    nodes = 0
    stack = [(0, None, (1 << len(ds)) - 1)]
    while stack:
        item = stack.pop()
        if item[0] is None:
            _, key, start, entry = item
            if size == entry and len(done) < room:
                done[key] = nodes - start
            continue
        depth, chosen, remaining = item
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"node budget {budget} exhausted")
        if not remaining:
            if depth < size:
                size, path = depth, chosen
        # packing bound: depth + ceil(|open| / max_cov) picks at least
        elif depth - (-remaining.bit_count() // max_cov) < size:
            key = (remaining, size - depth)
            if key in done:
                # the plain search would count the same nodes again
                nodes += done[key] - 1
                if nodes > budget:
                    raise BudgetExceededError(f"node budget {budget} exhausted")
                continue
            stack.append((None, key, nodes - 1, size))
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


def brute_force_solve(g: TemporalGraph, delta: int) -> Cover:
    """Exhaustive minimum cover by subset enumeration in increasing size.

    Raises TooLargeError past ``_BRUTE_FORCE_CANDIDATES`` (24) candidate
    appearances.
    """
    _check_delta(g.T, delta)
    ds, cands, masks = _coverage(g, delta)
    if not ds:
        return set()
    if len(cands) > _BRUTE_FORCE_CANDIDATES:
        raise TooLargeError(
            f"{len(cands)} candidate appearances exceed limit {_BRUTE_FORCE_CANDIDATES}"
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
