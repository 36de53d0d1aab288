import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swtvc import (
    BadDeltaError,
    Demand,
    NotAStarError,
    OutOfRangeLabelError,
    OutOfRangeVertexError,
    SelfLoopError,
    TooLargeError,
    TvcError,
    brute_force_solve,
    build_graph,
    d1_approx_solve,
    d_approx_s_solve,
    d_approx_solve,
    demands,
    edges_at,
    exact_solve,
    max_snapshot_degree,
    run_benchmark,
    single_edge_exact,
    star_acov_solve,
    star_center_at,
    star_sc_solve,
    validate_always_star,
    validate_cover,
)

from swtvc.graph import (
    MAX_SIZE,
    TemporalGraph,
    UnderlyingEdge,
    _check_size,
)

from conftest import random_general_graph, random_star_graph


def edge_key(g, eid):
    e = g.edges[eid]
    return (e.u, e.v)


class TestBuildGraph:
    def test_example_graph(self, example_graph):
        g = example_graph
        assert g.m == 4
        assert {edge_key(g, e) for e in edges_at(g, 2)} == {(0, 3), (1, 3), (2, 3)}

    def test_empty_edge_set(self):
        g = build_graph(3, 5, [])
        assert g.m == 0
        assert all(edges_at(g, t) == () for t in range(1, 6))

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            build_graph(2, 1, [(0, 0, [1])])

    def test_out_of_range_vertex(self):
        with pytest.raises(OutOfRangeVertexError):
            build_graph(2, 3, [(0, 2, [1])])

    def test_out_of_range_label(self):
        with pytest.raises(OutOfRangeLabelError):
            build_graph(2, 3, [(0, 1, [4])])

    @pytest.mark.parametrize("edge, error, value", [
        ((0, 1, [1.5]), OutOfRangeLabelError, "1.5"),
        ((0, 1, [1, 2.0]), OutOfRangeLabelError, "2.0"),
        ((0, 1, ["a"]), OutOfRangeLabelError, "'a'"),
        ((0, 1, (t for t in [1, None])), OutOfRangeLabelError, "None"),
        ((0.0, 1, [1]), OutOfRangeVertexError, "0.0"),
        ((0, 1.0, [1]), OutOfRangeVertexError, "1.0"),
        (("a", 1, [1]), OutOfRangeVertexError, "'a'"),
    ])
    def test_non_integer_is_a_range_error_naming_it(self, edge, error, value):
        value = re.escape(value)
        with pytest.raises(error, match=f"{value}.*not an integer|not an integer.*{value}"):
            build_graph(3, 3, [(1, 2, [1]), edge])

    @pytest.mark.parametrize("labels", [5, None])
    def test_non_iterable_labels_are_a_range_error_naming_the_edge(self, labels):
        with pytest.raises(OutOfRangeLabelError,
                           match=re.escape(f"labels {labels!r} on edge (0, 1) are not iterable")):
            build_graph(2, 3, [(0, 1, labels)])

    @pytest.mark.parametrize("edge_list, message", [
        ([(0, 1)], "edge (0, 1) is not a (u, v, labels) triple"),
        ([(0, 1, [1], 9)], "edge (0, 1, [1], 9) is not a (u, v, labels) triple"),
        (None, "edge list None is not iterable"),
    ])
    def test_malformed_edge_list_is_a_vertex_error_naming_it(self, edge_list, message):
        with pytest.raises(OutOfRangeVertexError, match=re.escape(message)):
            build_graph(3, 3, edge_list)

    def test_malformed_edge_raised_in_input_order(self):
        # the label error of the first edge wins over the short second edge
        with pytest.raises(OutOfRangeLabelError):
            build_graph(3, 3, [(0, 1, [9]), (1, 2)])
        with pytest.raises(OutOfRangeVertexError, match="not a"):
            build_graph(3, 3, [(0, 1), (1, 2, [9])])

    def test_range_errors_before_assembly_errors(self):
        # 1.5 passes the range check and fails only when the graph is
        # assembled, after every edge's range check, so label 9 is named
        with pytest.raises(OutOfRangeLabelError,
                           match=re.escape("label 9 outside [1, 3] on edge (1, 2)")):
            build_graph(3, 3, [(0, 1, [1.5]), (1, 2, [9])])
        with pytest.raises(OutOfRangeLabelError,
                           match=re.escape("label 1.5 on edge (0, 1) is not an integer")):
            build_graph(3, 3, [(0, 1, [1.5])])

    def test_size_limit(self):
        with pytest.raises(TooLargeError):
            build_graph(MAX_SIZE + 1, 1, [])
        with pytest.raises(TooLargeError):
            build_graph(2, MAX_SIZE + 1, [(0, 1, [1])])

    def test_duplicates_merged_with_label_union(self):
        g = build_graph(3, 4, [(0, 1, [1, 3]), (1, 0, [2, 3])])
        assert g.m == 1
        assert g.edges[0].appearances == (1, 2, 3)

    def test_canonical_orientation(self):
        g = build_graph(3, 2, [(2, 0, [1])])
        assert (g.edges[0].u, g.edges[0].v) == (0, 2)

    def test_cross_index_consistency(self):
        g = random_general_graph(11)
        for eid, e in enumerate(g.edges):
            for t in range(1, g.T + 1):
                assert (eid in g.time_index[t]) == (t in e.appearances)
            for v in range(g.n):
                assert (eid in g.adjacency[v]) == (v in (e.u, e.v))


def build_graph_reference(n, T, edge_list):
    """``build_graph`` with a key-order list beside its label dict, kept
    frozen as the oracle of ``TestBuildGraphDifferential``."""
    if n < 0 or T < 0:
        raise OutOfRangeLabelError(f"n and T must be nonnegative, got n={n} T={T}")
    _check_size(n, T)
    merged: dict = {}
    order: list = []
    for u, v, labels in edge_list:
        if u == v:
            raise SelfLoopError(f"self-loop on vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeVertexError(f"endpoint out of range in ({u}, {v})")
        key = (u, v) if u < v else (v, u)
        if key not in merged:
            merged[key] = set()
            order.append(key)
        for t in labels:
            if not (1 <= t <= T):
                raise OutOfRangeLabelError(f"label {t} outside [1, {T}] on edge {key}")
            merged[key].add(t)

    edges = []
    for key in order:
        labels = tuple(sorted(merged[key]))
        if not labels:
            raise OutOfRangeLabelError(f"edge {key} has no appearances")
        edges.append(UnderlyingEdge(key[0], key[1], labels))

    time_index = [[] for _ in range(T + 1)]
    adjacency = [[] for _ in range(n)]
    for eid, edge in enumerate(edges):
        for t in edge.appearances:
            time_index[t].append(eid)
        adjacency[edge.u].append(eid)
        adjacency[edge.v].append(eid)

    return TemporalGraph(
        n=n,
        T=T,
        edges=tuple(edges),
        time_index=tuple(tuple(ids) for ids in time_index),
        adjacency=tuple(tuple(ids) for ids in adjacency),
    )


def random_triples(rng, n, T):
    """``(u, v, labels, kind)`` recipes: swapped endpoints, repeated pairs,
    unsorted and repeated labels, empty label lists, and now and then a
    self-loop or an out-of-range vertex or label.  ``kind`` says whether
    the labels are passed as a list, a tuple or a generator."""
    recipes = []
    for _ in range(rng.randint(0, 10)):
        if recipes and rng.random() < 0.3:
            u, v = rng.choice(recipes)[:2]
        elif n >= 2 and rng.random() < 0.97:
            u, v = rng.sample(range(n), 2)
        else:
            u = v = rng.randrange(max(n, 1))
        if rng.random() < 0.5:
            u, v = v, u
        if rng.random() < 0.03:
            u = rng.choice([-1, n])
        labels = [rng.randint(1, T) if T > 0 and rng.random() < 0.97
                  else rng.choice([-1, 0, T + 1]) for _ in range(rng.randint(0, 5))]
        recipes.append((u, v, labels, rng.choice(["list", "tuple", "generator"])))
    return recipes


def materialize(recipes):
    """A fresh edge list for ``recipes``; a generator is read only once."""
    wrap = {"list": list, "tuple": tuple, "generator": lambda ls: (t for t in ls)}
    return [(u, v, wrap[kind](labels)) for u, v, labels, kind in recipes]


def build_outcome(build, n, T, recipes):
    try:
        return build(n, T, materialize(recipes))
    except TvcError as exc:
        return (type(exc), str(exc))


class TestBuildGraphDifferential:
    """``build_graph`` against its frozen reference: an equal graph, or the
    same exception type and message."""

    def test_random_triples(self):
        rng = random.Random(20261019)
        outcomes = set()
        for _ in range(4000):
            n = -1 if rng.random() < 0.02 else rng.randint(0, 6)
            T = -1 if rng.random() < 0.02 else rng.choice([0, 1, 2, 3, 5, 8, 40])
            recipes = random_triples(rng, n, T)
            got = build_outcome(build_graph, n, T, recipes)
            assert got == build_outcome(build_graph_reference, n, T, recipes)
            outcomes.add(got[0] if isinstance(got, tuple) else "graph")
        # the corpus reaches every outcome
        assert outcomes == {"graph", SelfLoopError, OutOfRangeVertexError,
                            OutOfRangeLabelError}


class TestEdgesAt:
    def test_snapshots(self, example_graph):
        assert {edge_key(example_graph, e) for e in edges_at(example_graph, 3)} == {
            (2, 3), (0, 1)}

    def test_bad_time(self, example_graph):
        with pytest.raises(OutOfRangeLabelError):
            edges_at(example_graph, 0)
        with pytest.raises(OutOfRangeLabelError):
            edges_at(example_graph, 4)

    def test_matches_brute_scan(self):
        for seed in range(10):
            g = random_general_graph(seed)
            for t in range(1, g.T + 1):
                brute = {e for e, edge in enumerate(g.edges)
                         if t in edge.appearances}
                assert set(edges_at(g, t)) == brute


class TestStarCenter:
    def test_common_endpoint(self, example_graph):
        assert star_center_at(example_graph, 2) == 3

    def test_single_edge_smaller_id(self):
        g = build_graph(4, 1, [(1, 3, [1])])
        assert star_center_at(g, 1) == 1

    def test_disjoint_edges_not_a_star(self):
        g = build_graph(4, 1, [(0, 1, [1]), (2, 3, [1])])
        with pytest.raises(NotAStarError):
            star_center_at(g, 1)

    def test_empty_snapshot_is_none(self):
        g = build_graph(2, 2, [(0, 1, [1])])
        assert star_center_at(g, 2) is None


def star_center_reference(g, t):
    """Set-intersection star center: the endpoints common to all active
    edges, None when the snapshot is empty, the smaller endpoint of a
    lone edge."""
    active = edges_at(g, t)
    if not active:
        return None
    first = g.edges[active[0]]
    if len(active) == 1:
        return min(first.u, first.v)
    common = {first.u, first.v}
    for eid in active[1:]:
        e = g.edges[eid]
        common &= {e.u, e.v}
        if not common:
            raise NotAStarError(t)
    return next(iter(common))


def star_center_outcome(center_at, g, t):
    try:
        return center_at(g, t)
    except NotAStarError as exc:
        return ("not a star", exc.time_step)


class TestStarCenterDifferential:
    def check(self, graphs):
        for g in graphs:
            for t in range(1, g.T + 1):
                assert (star_center_outcome(star_center_at, g, t)
                        == star_center_outcome(star_center_reference, g, t))

    def test_random_general_graphs(self):
        # few vertices make snapshots of several edges that are stars,
        # triangles and matchings alike
        self.check(random_general_graph(seed, n=n, T=10, max_edges=8, app_prob=0.6)
                   for seed in range(150) for n in (3, 4, 6))

    def test_random_star_graphs(self):
        self.check(random_star_graph(seed, n=12, T=10, d=d, empty_prob=0.2)
                   for seed in range(40) for d in (1, 3, 6))


class TestValidateAlwaysStar:
    def test_periodic_family_is_star(self, periodic_worst_case):
        assert validate_always_star(periodic_worst_case) is None

    def test_first_offender(self, example_graph):
        assert validate_always_star(example_graph) == 3

    def test_empty_graph(self):
        assert validate_always_star(build_graph(3, 4, [])) is None


def max_snapshot_degree_reference(g):
    """``max_snapshot_degree`` as a per-step dict count, kept frozen as the
    oracle of ``TestMaxSnapshotDegreeDifferential``."""
    best = 0
    for t in range(1, g.T + 1):
        deg: dict = {}
        for eid in g.time_index[t]:
            e = g.edges[eid]
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        if deg:
            best = max(best, max(deg.values()))
    return best


class TestMaxSnapshotDegreeDifferential:
    """``max_snapshot_degree`` against its frozen per-step reference."""

    @pytest.mark.parametrize("n, T, edge_list, expected", [
        (4, 5, [], 0),  # no edges
        (3, 0, [], 0),  # T = 0
        (1, 4, [], 0),  # n = 1
        (6, 3, [(1, 4, [2])], 1),  # isolated vertices around one edge
        # vertex 0 reaches degree 2; vertex 2 then has 2 incident edges,
        # as many as the best so far, and degree 2 as well
        (4, 2, [(0, 1, [1]), (0, 2, [1]), (2, 3, [1])], 2),
        # vertex 0 reaches degree 1 over two steps; vertices 1 and 2 have
        # one incident edge each, as many as the best so far
        (3, 2, [(0, 1, [1]), (0, 2, [2])], 1),
        # vertex 1 ties vertex 0's degree 2 on edge count, with degree 1
        (4, 2, [(0, 1, [1]), (0, 2, [1]), (1, 3, [2])], 2),
        # vertex 1 ties the best so far (1) on edge count, vertex 2 beats
        # it with degree 2, and vertex 3 then ties that on edge count
        (5, 3, [(0, 1, [1]), (0, 3, [2]), (2, 3, [3]), (2, 4, [3])], 2),
    ])
    def test_edge_cases(self, n, T, edge_list, expected):
        g = build_graph(n, T, edge_list)
        assert max_snapshot_degree(g) == expected
        assert max_snapshot_degree_reference(g) == expected

    def test_random_general_graphs(self):
        for seed in range(300):
            g = random_general_graph(seed, n=1 + seed % 9, T=seed % 12,
                                     max_edges=seed % 17, app_prob=0.2 + 0.1 * (seed % 7))
            assert max_snapshot_degree(g) == max_snapshot_degree_reference(g), seed

    def test_random_star_graphs(self):
        for seed in range(120):
            for d in (1, 4, 9):
                g = random_star_graph(seed, n=10, T=seed % 15, d=d,
                                      underlying=seed % 2 == 0, empty_prob=0.2)
                assert max_snapshot_degree(g) == max_snapshot_degree_reference(g), (seed, d)


def demands_reference(g, delta):
    """(e, w) for every start w in 1..T-delta+1 whose window
    [w, w+delta-1] holds an appearance of e, sorted by (w, e)."""
    return [Demand(eid, w)
            for w in range(1, g.T - delta + 2)
            for eid, e in enumerate(g.edges)
            if any(w <= a <= w + delta - 1 for a in e.appearances)]


class TestDemands:
    def test_window_enumeration(self, example_graph):
        ds = demands(example_graph, 2)
        assert len(ds) == 8
        assert ds[0] == Demand(edge=0, window_start=1)
        assert {d for d in ds if d.window_start == 2} == {
            Demand(0, 2), Demand(1, 2), Demand(2, 2), Demand(3, 2)}

    def test_delta_t_single_window_per_edge(self, example_graph):
        ds = demands(example_graph, example_graph.T)
        assert len(ds) == example_graph.m
        assert all(d.window_start == 1 for d in ds)

    def test_empty_graph(self):
        assert demands(build_graph(2, 3, []), 2) == []

    def test_zero_lifetime(self):
        for delta in (1, 2):
            assert demands(build_graph(2, 0, []), delta) == []

    def test_delta_one_counts_appearances(self):
        for seed in range(6):
            g = random_general_graph(seed)
            total = sum(len(e.appearances) for e in g.edges)
            assert len(demands(g, 1)) == total

    def test_bad_delta(self, example_graph):
        with pytest.raises(BadDeltaError):
            demands(example_graph, 0)
        with pytest.raises(BadDeltaError):
            demands(example_graph, 4)

    def test_matches_window_definition(self):
        graphs = [random_general_graph(s, n=7, T=14, max_edges=9)
                  for s in range(25)]
        graphs += [random_star_graph(s, n=9, T=12, d=4) for s in range(10)]
        for g in graphs:
            for delta in range(1, g.T + 1):
                assert demands(g, delta) == demands_reference(g, delta)


def demand_buckets_reference(g, delta):
    """The edges with a demand at each window start (index 0 unused), one
    append per (start, edge) pair, kept frozen as the oracle of
    ``TestDemandBucketsDifferential``."""
    last_start = g.T - delta + 1
    buckets = [[] for _ in range(last_start + 1)]
    for eid, edge in enumerate(g.edges):
        reached = 0  # last start already listed for this edge
        for a in edge.appearances:
            hi = min(a, last_start)
            for w in range(max(reached + 1, a - delta + 1), hi + 1):
                buckets[w].append(eid)
            reached = hi
    return buckets


class TestDemandBucketsDifferential:
    """``demands()``' window sweep against its frozen per-appearance form,
    flattened to ``Demand``s in (start, edge id) order."""

    def check(self, g, deltas):
        for delta in deltas:
            expected = [Demand(eid, w)
                        for w, bucket in enumerate(demand_buckets_reference(g, delta))
                        for eid in bucket]
            assert demands(g, delta) == expected, (g, delta)

    def test_zero_lifetime(self):
        for n in (1, 2, 5):
            self.check(build_graph(n, 0, []), (1, 2, 3))

    def test_random_general_graphs(self):
        # every Δ from 1 to T; low appearance rates leave snapshots empty
        for seed in range(200):
            g = random_general_graph(seed, n=2 + seed % 6, T=seed % 20,
                                     max_edges=seed % 12, app_prob=0.1 + 0.1 * (seed % 6))
            self.check(g, range(1, g.T + 1))

    def test_long_sparse_lifetimes(self):
        rng = random.Random(11)
        for _ in range(150):
            T = rng.randint(1, 500)
            n = rng.randint(2, 7)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edge_list = [(u, v, rng.sample(range(1, T + 1), rng.randint(1, min(T, 4))))
                         for u, v in rng.sample(pairs, rng.randint(0, len(pairs)))]
            g = build_graph(n, T, edge_list)
            self.check(g, {1, min(2, T), rng.randint(1, T), max(T - 1, 1), T})

    def test_dense_snapshots(self):
        for seed in range(60):
            n = 3 + seed % 10
            T = seed % 25
            self.check(random_star_graph(seed, n=n, T=T, d=n - 1, empty_prob=0.2),
                       range(1, T + 1))
            self.check(random_general_graph(seed, n=n, T=T, max_edges=n * (n - 1) // 2,
                                            app_prob=0.9), range(1, T + 1))


#: Every entry point that checks its Δ, called as ``f(graph, delta)``:
#: ``run_benchmark`` before any cell runs, the others through `_check_delta`.
DELTA_ENTRY_POINTS = {
    "single_edge_exact": lambda g, delta: single_edge_exact([1, 2], g.T, delta),
    "star_sc_solve": star_sc_solve,
    "star_acov_solve": star_acov_solve,
    "d_approx_solve": d_approx_solve,
    "d_approx_s_solve": d_approx_s_solve,
    "d1_approx_solve": d1_approx_solve,
    "exact_solve": exact_solve,
    "brute_force_solve": brute_force_solve,
    "demands": demands,
    "validate_cover": lambda g, delta: validate_cover(g, delta, set()),
    "run_benchmark": lambda g, delta: run_benchmark([("g", g)], ["d-approx"], delta),
}


@pytest.mark.parametrize("entry", sorted(DELTA_ENTRY_POINTS))
@pytest.mark.parametrize("delta", [2.5, 2.0, "3", None])
def test_non_integer_delta_is_a_bad_delta(periodic_worst_case, entry, delta):
    with pytest.raises(BadDeltaError, match="not an integer"):
        DELTA_ENTRY_POINTS[entry](periodic_worst_case, delta)


@pytest.mark.parametrize("entry", sorted(DELTA_ENTRY_POINTS))
@pytest.mark.parametrize("delta", [0, -3])
@pytest.mark.parametrize("T", [0, 6])
def test_delta_below_one_has_one_wording(periodic_worst_case, entry, delta, T):
    g = periodic_worst_case if T else build_graph(2, 0, [])
    with pytest.raises(BadDeltaError, match=re.escape(f"delta must be at least 1, got {delta}")):
        DELTA_ENTRY_POINTS[entry](g, delta)


@pytest.mark.parametrize("entry", sorted(set(DELTA_ENTRY_POINTS) - {"run_benchmark"}))
def test_delta_above_lifetime_names_the_range(periodic_worst_case, entry):
    # run_benchmark records it in the instance's rows instead of raising
    with pytest.raises(BadDeltaError, match=re.escape("delta 7 outside [1, 6]")):
        DELTA_ENTRY_POINTS[entry](periodic_worst_case, 7)


class TestValidateCover:
    def test_known_valid_cover(self, example_graph):
        assert validate_cover(example_graph, 2, {(0, 1), (3, 2), (0, 3)}) is None

    def test_witness_in_window_edge_order(self, example_graph):
        assert validate_cover(example_graph, 2, {(3, 2)}) == Demand(edge=1,
                                                               window_start=1)

    def test_empty_graph_empty_cover(self):
        assert validate_cover(build_graph(2, 3, []), 2, set()) is None

    def test_out_of_range_appearance(self, example_graph):
        with pytest.raises(OutOfRangeVertexError):
            validate_cover(example_graph, 2, {(9, 1)})
        with pytest.raises(OutOfRangeLabelError):
            validate_cover(example_graph, 2, {(0, 9)})

    @pytest.mark.parametrize("element", [("a", 1), (0, 1, 2), (0,), 5, (None, 1)])
    def test_malformed_element_is_a_vertex_error_naming_it(self, example_graph,
                                                          element):
        with pytest.raises(OutOfRangeVertexError, match=re.escape(repr(element))):
            validate_cover(example_graph, 2, [element])

    @pytest.mark.parametrize("cover", [None, 5])
    def test_non_iterable_cover_is_a_vertex_error_naming_it(self, example_graph,
                                                           cover):
        with pytest.raises(OutOfRangeVertexError,
                           match=re.escape(f"cover {cover!r} is not iterable")):
            validate_cover(example_graph, 2, cover)

    @pytest.mark.parametrize("element", [(0, "a"), (0, None), (0, [1])])
    def test_non_integer_time_is_a_label_error_naming_it(self, example_graph,
                                                         element):
        with pytest.raises(OutOfRangeLabelError, match=re.escape(repr(element))):
            validate_cover(example_graph, 2, [element])

    def test_float_in_range_is_accepted(self, example_graph):
        # 1.0 covers what 1 does; 1.5 matches no label and covers nothing
        assert validate_cover(example_graph, 2, {(0.0, 1.0), (3, 2), (0, 3)}) is None
        assert validate_cover(example_graph, 2, {(0, 1.5), (3, 2), (0, 3)}) == Demand(1, 1)

    def test_superset_monotonicity(self, example_graph):
        base = {(0, 1), (3, 2), (0, 3)}
        assert validate_cover(example_graph, 2, base) is None
        assert validate_cover(example_graph, 2, base | {(2, 2), (1, 2)}) is None

    def test_tie_on_window_start_goes_to_lower_edge_id(self):
        # both edges are covered at their first appearance and uncovered
        # from window start 3 on
        g = build_graph(3, 6, [(0, 1, [1, 4]), (0, 2, [2, 4])])
        assert validate_cover(g, 2, {(1, 1), (2, 2)}) == Demand(0, 3)

    def test_later_edge_with_earlier_gap_wins(self):
        # edge 0 is first uncovered at start 4, edge 1 at start 2
        g = build_graph(4, 6, [(0, 1, [1, 5]), (2, 3, [3, 5])])
        assert validate_cover(g, 2, {(0, 1)}) == Demand(1, 2)
        assert validate_cover(g, 2, {(0, 1), (2, 3)}) == Demand(0, 4)

    def test_cover_vertex_at_inactive_step_does_not_cover(self):
        # vertex 0 is in the cover at step 3, where edge (0, 1) is inactive
        g = build_graph(2, 5, [(0, 1, [1, 5])])
        assert validate_cover(g, 3, {(0, 1), (0, 3)}) == Demand(0, 3)
        assert validate_cover(g, 3, {(0, 1), (1, 5)}) is None

    def test_appearance_after_last_window_start_covers_last_window(self):
        # T - delta + 1 = 4: step 6 lies only in the window starting at 4
        g = build_graph(2, 6, [(0, 1, [1, 6])])
        assert validate_cover(g, 3, {(0, 1), (1, 6)}) is None
        assert validate_cover(g, 3, {(0, 1)}) == Demand(0, 4)
        assert validate_cover(g, 3, {(1, 6)}) == Demand(0, 1)


def demand_scan(g, delta, cover):
    """Reference validator: the first demand, in ``demands()`` order, with
    no cover entry on an endpoint at an appearance inside its window."""
    for d in demands(g, delta):
        e = g.edges[d.edge]
        if not any((v, t) in cover
                   for t in e.appearances
                   if d.window_start <= t <= d.window_start + delta - 1
                   for v in (e.u, e.v)):
            return d
    return None


def random_covers(g, rng, count):
    """Empty, full and random covers; random entries may sit at steps the
    vertex has no edge or on vertices no edge touches."""
    useful = sorted({(v, t) for e in g.edges for t in e.appearances
                     for v in (e.u, e.v)})
    covers = [set(), set(useful)]
    for _ in range(count):
        density = rng.random()
        cover = {pair for pair in useful if rng.random() < density}
        if g.n and g.T:
            for _ in range(rng.randint(0, 3)):
                cover.add((rng.randrange(g.n), rng.randint(1, g.T)))
        covers.append(cover)
    return covers


class TestValidateCoverDifferential:
    def check(self, g, rng, count=12):
        for delta in range(1, max(g.T, 1) + 1):
            for cover in random_covers(g, rng, count):
                assert validate_cover(g, delta, cover) == demand_scan(g, delta, cover)

    def test_random_general_graphs(self):
        rng = random.Random(7)
        for seed in range(60):
            self.check(random_general_graph(seed, n=7, T=14, max_edges=9), rng)

    def test_random_star_graphs(self):
        rng = random.Random(11)
        for seed in range(20):
            self.check(random_star_graph(seed, n=9, T=12, d=4, empty_prob=0.2), rng)

    def test_edge_cases(self, example_graph, periodic_worst_case):
        rng = random.Random(3)
        # delta = 1 and delta = T are part of every 1..T sweep
        self.check(example_graph, rng, count=40)
        self.check(periodic_worst_case, rng, count=40)
        self.check(build_graph(3, 0, []), rng)
        self.check(build_graph(2, 1, [(0, 1, [1])]), rng)


@st.composite
def long_lifetime_graphs(draw):
    """Graphs with lifetimes up to 40; each edge has either a few
    appearances or all steps but a few."""
    T = draw(st.integers(1, 40))
    n = draw(st.integers(2, 5))
    steps = st.sets(st.integers(1, T), max_size=4)
    edge_list = []
    for _ in range(draw(st.integers(1, 5))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        if draw(st.booleans()):
            labels = sorted(draw(steps))
        else:
            missing = draw(steps)
            labels = [t for t in range(1, T + 1) if t not in missing]
        edge_list.append((u, v, labels or [draw(st.integers(1, T))]))
    return build_graph(n, T, edge_list)


@settings(max_examples=100, deadline=None)
@given(long_lifetime_graphs(), st.integers(0, 2**32))
def test_validate_cover_matches_scan_on_long_lifetimes(g, seed):
    # long lifetimes put many window starts between covering times, which
    # the T <= 14 corpora above cannot
    rng = random.Random(seed)
    for delta in range(1, g.T + 1):
        for cover in random_covers(g, rng, 2):
            assert validate_cover(g, delta, cover) == demand_scan(g, delta, cover)


@st.composite
def sparse_graphs_and_deltas(draw):
    """Lifetimes up to 300 (0 included) with a few appearances per edge,
    so most window starts hold no demand; Δ is 1, T or anything between."""
    T = draw(st.integers(0, 300))
    n = draw(st.integers(2, 6))
    edge_list = []
    for _ in range(draw(st.integers(0, 6)) if T else 0):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        labels = draw(st.sets(st.integers(1, T), min_size=1, max_size=4))
        edge_list.append((u, v, sorted(labels)))
    top = max(T, 1)
    delta = draw(st.one_of(st.just(1), st.just(top), st.integers(1, top)))
    return build_graph(n, T, edge_list), delta


@settings(max_examples=150, deadline=None)
@given(sparse_graphs_and_deltas())
def test_demands_match_reference_on_sparse_lifetimes(case):
    g, delta = case
    ds = demands(g, delta)
    assert ds == demands_reference(g, delta)
    assert all(type(d) is Demand for d in ds)
    assert [(d.edge, d.window_start) for d in ds] == [tuple(d) for d in ds]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, 8),
            st.lists(
                st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(
                    lambda p: p[0] != p[1]
                ),
                max_size=6,
            ),
        )
    ),
    st.randoms(use_true_random=False),
)
def test_round_trip_appearances(params, rnd):
    n, T, pairs = params
    edge_list = []
    for u, v in pairs:
        if u >= n or v >= n:
            continue
        labels = sorted(rnd.sample(range(1, T + 1), rnd.randint(1, T)))
        edge_list.append((u, v, labels))
    g = build_graph(n, T, edge_list)
    # reading back edges_at reconstructs exactly the merged labeling
    for eid, e in enumerate(g.edges):
        recon = tuple(t for t in range(1, T + 1) if eid in edges_at(g, t))
        assert recon == e.appearances
