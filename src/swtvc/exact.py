"""Desk-scale exact solvers used as ground truth.

``exact_solve`` is a branch-and-bound over demands; ``brute_force_solve``
enumerates candidate subsets by increasing size and cross-checks the
oracle.  Candidate appearances are restricted to (v, t) where v has an
active edge at t; anything else covers nothing.  Both keep sets of
demands as integer bitmasks, numbered fail-first: a stable sort of
``demands()`` by how many candidates cover each demand, fewest first.  So
the demand ``exact_solve`` branches on, the open one with the fewest
covering candidates, ties in ``demands()`` order, is the lowest open bit.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations

from .degree import d_approx_s_solve
from .errors import BudgetExceededError, TooLargeError
from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_delta,
    _check_int,
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


def _candidates(g: TemporalGraph) -> list:
    """The sorted candidates (v, t) where v is an endpoint of an edge active
    at t."""
    return sorted({(x, a) for u, v, apps in g.edges for x in (u, v) for a in apps})


def _coverage(g: TemporalGraph, delta: int):
    """The ``_candidates``, per candidate the bitmask of demands it covers,
    and per demand its covering candidates in candidate order.

    Demands are numbered fail-first: a stable sort of ``demands()`` by the
    number of covering candidates.  The search's branch order, and with it
    which optimum comes back, depends on that numbering.  An edge u < v
    active inside the window is covered by u at each of those appearances,
    then by v at each, which is candidate order.
    """
    cands = _candidates(g)
    index = {c: ci for ci, c in enumerate(cands)}
    by_demand = []
    for eid, w in demands(g, delta):
        u, v, apps = g.edges[eid]
        span = apps[bisect_left(apps, w):bisect_left(apps, w + delta)]
        by_demand.append([index[(x, a)] for x in (u, v) for a in span])
    by_demand.sort(key=len)
    masks = [0] * len(cands)
    for di, cis in enumerate(by_demand):
        for ci in cis:
            masks[ci] |= 1 << di
    return cands, masks, by_demand


def exact_solve(g: TemporalGraph, delta: int, budget: int = DEFAULT_BUDGET) -> Cover:
    """Minimum-cardinality valid cover via branch and bound.

    Branches over the candidates covering the lowest open demand bit,
    which by ``_coverage``'s fail-first numbering is the open demand with
    the fewest covering candidates, ties in ``demands()`` order; prunes
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
    BadConfigError before any search when ``budget`` is not an integer of
    at least 1.
    """
    _check_delta(g.T, delta)
    _check_int(budget, "budget", 1)
    cands, masks, by_demand = _coverage(g, delta)
    if not by_demand:
        return set()

    # complements, so a child's open set is one AND
    keep = [~mask for mask in masks]

    # warm start: the d-approximation is always valid
    best = d_approx_s_solve(g, delta)
    size, path = len(best), None
    max_cov = max(mask.bit_count() for mask in masks)

    # (open demands, slack) -> node count of a finished subtree that left
    # the incumbent alone; it stops growing once full
    done = {}
    room = _REPLAY_TABLE_BYTES // (len(by_demand) // 8 + _REPLAY_ENTRY_BYTES)
    # an entry is (picks, chosen path as nested (candidate, parent) pairs,
    # open demands); the path shares its prefix with its siblings'.  Under
    # a branching node's children lies its exit marker (None, key, nodes
    # and incumbent size before the node).
    nodes = 0
    stack = [(0, None, (1 << len(by_demand)) - 1)]
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
            depth += 1
            # pushed in reverse so they pop in candidate order
            for ci in reversed(by_demand[(remaining & -remaining).bit_length() - 1]):
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
    appearances, checked before any demand is listed.  A graph without
    edges has neither candidates nor demands, and its cover is the empty
    subset.
    """
    _check_delta(g.T, delta)
    cands = _candidates(g)
    if len(cands) > _BRUTE_FORCE_CANDIDATES:
        raise TooLargeError(f"{len(cands)} candidate appearances exceed "
                            f"limit {_BRUTE_FORCE_CANDIDATES}")
    _, masks, by_demand = _coverage(g, delta)
    full = (1 << len(by_demand)) - 1
    for size in range(len(cands) + 1):
        for combo in combinations(range(len(cands)), size):
            acc = 0
            for ci in combo:
                acc |= masks[ci]
            if acc == full:
                return {VertexAppearance(*cands[ci]) for ci in combo}
    raise AssertionError("all candidates together must cover all demands")
