"""Temporal graph data model and sliding-window cover semantics.

A temporal graph is an underlying static graph whose edges carry strictly
increasing lists of discrete time labels (the steps at which the edge is
active).  Vertices are dense 0-based ids; time steps are 1-based and run up
to the lifetime ``T``.  The structure is indexed both ways: per time step
(all active edge ids) and per vertex (all incident edge ids), so snapshot
and adjacency lookups are direct array accesses.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, NamedTuple, Optional

from .errors import (
    BadConfigError,
    BadDeltaError,
    OutOfRangeLabelError,
    OutOfRangeVertexError,
    NotAStarError,
    SelfLoopError,
    TooLargeError,
)

#: Largest vertex count or lifetime ``build_graph`` accepts.  It allocates
#: one index list per vertex and per step up front, about 70 MiB per
#: million of either, so a huge header fails fast instead of exhausting memory.
MAX_SIZE = 10**7


class VertexAppearance(NamedTuple):
    """A vertex at one time step; the atom of every cover."""

    vertex: int
    time: int


class Demand(NamedTuple):
    """An (edge, window) pair that must be covered.

    ``window_start`` is the first time step of the window; the window spans
    ``[window_start, window_start + delta - 1]``.
    """

    edge: int
    window_start: int


class UnderlyingEdge(NamedTuple):
    u: int
    v: int
    appearances: tuple  # strictly increasing time labels


#: A cover is a duplicate-free set of vertex appearances.
Cover = set


@dataclass(frozen=True)
class TemporalGraph:
    """Immutable temporal graph with per-step and per-vertex edge indices.

    Every edge is stored as ``(u, v, appearances)`` with ``u < v`` and
    strictly increasing labels, and no two edges join the same pair; the
    helpers that pick endpoints and appearances read these orders rather
    than re-deriving them.

    ``time_index[t]`` (t in 1..T) holds the ids of edges active at step t;
    index 0 is unused.  ``adjacency[v]`` holds the ids of edges incident to
    vertex v (each edge id appears at both endpoints).
    """

    n: int
    T: int
    edges: tuple  # tuple[UnderlyingEdge, ...]
    time_index: tuple  # tuple[tuple[int, ...], ...], length T + 1
    adjacency: tuple  # tuple[tuple[int, ...], ...], length n

    @property
    def m(self) -> int:
        return len(self.edges)


def _check_size(n: int, T: int) -> None:
    if n > MAX_SIZE or T > MAX_SIZE:
        raise TooLargeError(
            f"graph too large: n={n}, T={T}; each must be at most {MAX_SIZE}")


def build_graph(n: int, T: int, edge_list: Iterable) -> TemporalGraph:
    """Construct a TemporalGraph from ``(u, v, appearance_list)`` triples.

    Endpoints are canonicalized to u < v and duplicate (u, v) entries are
    merged into one edge with the union of their labels; labels may come
    in any order and repeat, and are stored deduplicated and sorted.  Edge
    ids follow first-appearance order of the canonical pair in the input.
    ``appearance_list`` may be any iterable, read once.  Raises
    TooLargeError, before allocating anything, when ``n`` or ``T`` exceeds
    ``MAX_SIZE``.  An edge list that is not iterable, or an element of it
    that is not a ``(u, v, labels)`` triple, is an OutOfRangeVertexError
    naming it.  A vertex or label that is not an integer is an
    OutOfRangeVertexError or OutOfRangeLabelError naming it, a label list
    that is not iterable is an OutOfRangeLabelError naming its edge, and so
    is an ``n`` or ``T`` that is not an integer, naming both.
    """
    if not (_is_integer(n) and _is_integer(T)):
        raise OutOfRangeLabelError(f"n and T must be integers, got n={n!r} T={T!r}")
    if n < 0 or T < 0:
        raise OutOfRangeLabelError(f"n and T must be nonnegative, got n={n} T={T}")
    _check_size(n, T)
    # A value that is not an integer fails as a TypeError where it is
    # compared (a string, say) or used as an index (a float); each such
    # TypeError becomes the range error, so valid input pays no extra check.
    merged: dict = {}  # canonical pair -> label set; insertion order is edge id order
    try:
        edge_list = iter(edge_list)
    except TypeError:
        raise OutOfRangeVertexError(f"edge list {edge_list!r} is not iterable") from None
    for edge in edge_list:
        try:
            u, v, labels = edge
        except (TypeError, ValueError):
            raise OutOfRangeVertexError(
                f"edge {edge!r} is not a (u, v, labels) triple") from None
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u}")
        try:
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRangeVertexError(f"endpoint out of range in ({u}, {v})")
        except TypeError:
            raise OutOfRangeVertexError(f"endpoint not an integer in ({u!r}, {v!r})") from None
        key = (u, v) if u < v else (v, u)
        ts = merged.setdefault(key, set())
        try:
            labels = iter(labels)  # so only a label's own TypeError is caught
        except TypeError:
            raise OutOfRangeLabelError(
                f"labels {labels!r} on edge {key} are not iterable") from None
        try:
            for t in labels:
                if not (1 <= t <= T):
                    raise OutOfRangeLabelError(f"label {t} outside [1, {T}] on edge {key}")
                ts.add(t)
        except TypeError:
            raise OutOfRangeLabelError(f"label {t!r} on edge {key} is not an integer") from None

    return _assemble(n, T, merged.items())


def _assemble(n: int, T: int, items) -> TemporalGraph:
    """The graph of ``items``, ``((u, v), labels)`` pairs in edge id order.

    The caller has checked ``n`` and ``T``, made each pair canonical and
    distinct and checked every label's range; labels may be any collection
    of distinct labels, stored sorted.  An empty one is an
    OutOfRangeLabelError, and a vertex or label that is not an integer a
    range error naming it, as ``build_graph`` documents.
    """
    edges = []
    time_index = [[] for _ in range(T + 1)]
    adjacency = [[] for _ in range(n)]
    try:
        for eid, (key, ts) in enumerate(items):
            if not ts:
                raise OutOfRangeLabelError(f"edge {key} has no appearances")
            labels = tuple(sorted(ts))
            u, v = key
            # as UnderlyingEdge._make does, without the Python-level __new__
            edges.append(tuple.__new__(UnderlyingEdge, (u, v, labels)))
            for t in labels:
                time_index[t].append(eid)
            adjacency[u].append(eid)
            adjacency[v].append(eid)
    except TypeError:
        # t is the label that failed, or the edge's last one if an endpoint did
        if not _is_integer(t):
            raise OutOfRangeLabelError(f"label {t!r} on edge {key} is not an integer") from None
        raise OutOfRangeVertexError(f"endpoint not an integer in {key!r}") from None

    return TemporalGraph(
        n=n,
        T=T,
        edges=tuple(edges),
        time_index=tuple(map(tuple, time_index)),
        adjacency=tuple(map(tuple, adjacency)),
    )


def edges_at(g: TemporalGraph, t: int) -> tuple:
    """Ids of the edges active at time step ``t`` (direct index lookup).

    A step outside ``[1, T]`` or not an integer is an OutOfRangeLabelError
    naming it.
    """
    # a step that is not an integer fails as a TypeError in the comparison
    # or the index; only then is it named, so a valid step pays nothing
    try:
        if not (1 <= t <= g.T):
            raise OutOfRangeLabelError(f"time step {t} outside [1, {g.T}]")
        return g.time_index[t]
    except TypeError:
        raise OutOfRangeLabelError(f"time step {t!r} is not an integer") from None


def _center_rule(edges: tuple, active: tuple) -> int:
    """The only vertex that can be the center of the nonempty snapshot
    ``active``: the first edge's v when the last active edge holds it, else
    its u (the smaller endpoint, so a single edge yields u)."""
    u, v, _ = edges[active[0]]
    # two distinct edges share at most one endpoint, so the first edge's v
    # is the only candidate when another edge holds it, and u otherwise
    a, b, _ = edges[active[-1]]
    return v if len(active) > 1 and (a == v or b == v) else u


def star_center_at(g: TemporalGraph, t: int) -> Optional[int]:
    """Common endpoint of all edges active at ``t``.

    Returns None for an empty snapshot.  A single-edge snapshot yields the
    endpoint with the smaller vertex id.  Raises NotAStarError when no
    vertex is shared by every active edge.  The candidate comes from the
    same rule ``_star_centers`` uses, so both name the same center.
    """
    active = edges_at(g, t)
    if not active:
        return None
    edges = g.edges
    center = _center_rule(edges, active)
    for eid in active:
        a, b, _ = edges[eid]
        if a != center and b != center:
            raise NotAStarError(t)
    return center


def _star_centers(g: TemporalGraph) -> list:
    """``[None]`` then the star center of each step 1..T (None when empty).

    Raises NotAStarError at the first non-star snapshot, so this is the
    always-star precondition check as well.  Each snapshot is checked by
    one C-level ``issuperset`` against the set of its candidate's incident
    edges, built once per call the first time that vertex is a candidate.
    """
    edges, adjacency, time_index = g.edges, g.adjacency, g.time_index
    centers = [None] * (g.T + 1)
    incident = {}  # candidate vertex -> set of its incident edge ids
    for t in range(1, g.T + 1):
        active = time_index[t]
        if active:
            center = _center_rule(edges, active)
            around = incident.get(center)
            if around is None:
                around = incident[center] = set(adjacency[center])
            if not around.issuperset(active):
                raise NotAStarError(t)
            centers[t] = center
    return centers


def validate_always_star(g: TemporalGraph) -> Optional[int]:
    """None if every nonempty snapshot is a star, else the first offending t."""
    try:
        _star_centers(g)
    except NotAStarError as exc:
        return exc.time_step
    return None


def _is_integer(x) -> bool:
    """The one test of "is an integer" for Δ, labels and integer arguments:
    the type has ``__index__``, looked up on the type, so no bound method
    is made per call."""
    return hasattr(type(x), "__index__")


def _check_int(value, name: str, low: int, error=BadConfigError) -> None:
    """The one check of an integer argument: ``error`` naming ``name`` and
    ``value`` unless ``value`` is an integer of at least ``low``."""
    if not _is_integer(value):
        raise error(f"{name} {value!r} is not an integer")
    if value < low:
        raise error(f"{name} must be at least {low}, got {value}")


def _check_delta(T: int, delta: int) -> None:
    """The one check of Δ: an integer in ``[1, T]``, or any positive integer
    when ``T`` is 0."""
    _check_int(delta, "delta", 1, BadDeltaError)
    if T and delta > T:
        raise BadDeltaError(f"delta {delta} outside [1, {T}]")


def demands(g: TemporalGraph, delta: int) -> list:
    """All (edge, window) demands, sorted by (window_start, edge id).

    One sweep t = 1..T over ``time_index`` keeps ``inside[eid]``, the
    edge's appearances in the window ending at t, and ``live``, the sorted
    ids of the edges with a positive count: an edge is inserted when its
    count leaves 0 and removed when it returns to 0.  Once the window
    starting at w = t-delta+1 is complete, a copy of ``live`` is its
    bucket and the edges of step w leave.  That is O(1) Python-level work
    per appearance, a C-level sorted insert or delete when an edge enters
    or leaves, and one C-level copy per start; the buckets are then
    flattened into ``Demand``s in C-level loops.
    """
    _check_delta(g.T, delta)
    index = g.time_index
    inside = [0] * len(g.edges)
    live = []
    buckets = []  # buckets[w - 1]: the edges with a demand at start w
    for t in range(1, g.T + 1):
        for eid in index[t]:
            if not inside[eid]:
                insort(live, eid)
            inside[eid] += 1
        w = t - delta + 1
        if w >= 1:
            buckets.append(live[:])
            for eid in index[w]:
                inside[eid] -= 1
                if not inside[eid]:
                    del live[bisect_left(live, eid)]
    # each start repeated once per edge in its bucket, and each Demand made
    # by tuple.__new__ (as Demand._make does) rather than through the
    # namedtuple's Python-level __new__
    starts = chain.from_iterable(map(repeat, range(1, len(buckets) + 1), map(len, buckets)))
    return list(map(tuple.__new__, repeat(Demand),
                    zip(chain.from_iterable(buckets), starts)))


def validate_cover(g: TemporalGraph, delta: int, cover: Cover) -> Optional[Demand]:
    """None when ``cover`` is a valid delta-TVC, else the first uncovered demand.

    A demand (e, t) is covered when the cover holds some (w, t') with w an
    endpoint of e, t' in lambda(e) and t' inside the window starting at t.
    Failures are reported in (window_start, edge id) order: the witness is
    the same ``demands(g, delta)`` entry a scan of that list would stop at.

    A cover that is not iterable, or an element of it that is not a pair
    or whose vertex is not a number, is an OutOfRangeVertexError naming
    it; a time that is not a number is an OutOfRangeLabelError naming it.
    A float inside the ranges, such as ``(0, 1.5)``, is accepted: it
    covers what an equal integer would, so ``1.5`` covers nothing.

    Runs in O(appearances + |cover|) time with one dict lookup per
    appearance.  Each edge's sorted appearances are swept once.  An
    appearance that no cover vertex meets opens a candidate start, the
    earliest window start that holds it and no earlier covering appearance;
    a later covering appearance inside that window closes it, and a
    candidate still open a full window later, or at the end of the list, is
    the edge's first gap.
    """
    _check_delta(g.T, delta)
    at: dict = {}  # time step -> cover vertices at that step
    try:
        cover = iter(cover)
    except TypeError:
        raise OutOfRangeVertexError(f"cover {cover!r} is not iterable") from None
    for va in cover:
        # a malformed element fails as a TypeError or ValueError in the
        # unpack or a comparison; only then is it named, as in build_graph
        try:
            v, t = va
            if not (0 <= v < g.n):
                raise OutOfRangeVertexError(f"appearance vertex {v} outside [0, {g.n})")
        except (TypeError, ValueError):
            raise OutOfRangeVertexError(
                f"cover element {va!r} is not a (vertex, time) pair of integers") from None
        try:
            if not (1 <= t <= g.T):
                raise OutOfRangeLabelError(f"appearance time {t} outside [1, {g.T}]")
        except TypeError:
            raise OutOfRangeLabelError(
                f"appearance time {t!r} in cover element {va!r} is not an integer") from None
        at.setdefault(t, set()).add(v)

    first = None
    limit = g.T - delta + 1  # last window start still worth reporting
    for eid, (u, v, appearances) in enumerate(g.edges):
        last = 0  # latest covering appearance
        pending = 0  # earliest window start not known to be covered, 0 if none
        for a in appearances:
            if pending and a >= pending + delta:
                break  # the pending window closed without a covering appearance
            vs = at.get(a)
            if vs is not None and (u in vs or v in vs):
                last = a
                pending = 0
            elif not pending:
                pending = max(a - delta + 1, last + 1)
                if pending > limit:
                    pending = 0
                    break
        if pending:
            first = Demand(edge=eid, window_start=pending)
            # a later edge id only wins with a strictly earlier window start
            limit = pending - 1
    return first


def max_snapshot_degree(g: TemporalGraph) -> int:
    """Largest vertex degree over all snapshots (the class parameter d).

    Counted per vertex: its degree at step t is how many of its incident
    edges carry label t, so one ``Counter`` over those edges' labels gives
    its largest degree in O(appearances), in C-level loops.  A vertex with
    no more incident edges than the best degree so far cannot beat it and
    is skipped.
    """
    edges = g.edges
    best = 0
    for ids in g.adjacency:
        if len(ids) > best:
            counts = Counter(chain.from_iterable(edges[e].appearances for e in ids))
            best = max(best, max(counts.values()))
    return best
