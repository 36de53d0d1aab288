import random
import re
from bisect import bisect_left, bisect_right
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swtvc import (
    BadDeltaError,
    GeneratorConfig,
    OutOfRangeLabelError,
    VertexAppearance,
    build_graph,
    chosen_endpoint,
    d1_approx_solve,
    d_approx_s_solve,
    d_approx_solve,
    demands,
    exact_solve,
    generate_always_star,
    max_snapshot_degree,
    single_edge_exact,
    validate_cover,
    worst_case_acov_instance,
    worst_case_sc_instance,
)

from conftest import random_general_graph, random_star_graph


def brute_minimum_size(apps, T, delta):
    """Exhaustive minimum number of chosen appearance steps."""
    last_start = T - delta + 1
    windows = [t for t in range(1, last_start + 1)
               if any(t <= a <= t + delta - 1 for a in apps)]
    for size in range(len(apps) + 1):
        for combo in combinations(apps, size):
            if all(any(t <= c <= t + delta - 1 for c in combo) for t in windows):
                return size
    raise AssertionError


class TestSingleEdgeExact:
    def test_non_overlapping_appearances(self):
        assert single_edge_exact([1, 3], 3, 2) == [1, 3]

    def test_middle_appearance_suffices(self):
        assert single_edge_exact([1, 2, 3], 3, 2) == [2]

    def test_empty(self):
        assert single_edge_exact([], 5, 2) == []

    def test_bad_delta(self):
        with pytest.raises(BadDeltaError):
            single_edge_exact([1], 3, 0)

    @pytest.mark.parametrize("apps, named", [
        ([3, 1], "label 1 is smaller than the label 3"),
        ([1, 3, 2, 3], "label 2 is smaller than the label 3"),
        ([5], "label 5 outside [1, 3]"),
        ([0, 1], "label 0 outside [1, 3]"),
        ([1, 2.5], "label 2.5 is not an integer"),
        ([2.0], "label 2.0 is not an integer"),
        (["2"], "label '2' is not an integer"),
        ([1, None], "label None is not an integer"),
    ])
    def test_bad_label_is_a_range_error_naming_it(self, apps, named):
        with pytest.raises(OutOfRangeLabelError, match=re.escape(named)):
            single_edge_exact(apps, 3, 1)

    @pytest.mark.parametrize("labels", [5, None])
    def test_labels_not_iterable_is_a_range_error(self, labels):
        named = f"labels {labels} are not iterable"
        with pytest.raises(OutOfRangeLabelError, match=re.escape(named)):
            single_edge_exact(labels, 3, 1)

    def test_checks_t_then_delta_then_labels(self):
        with pytest.raises(OutOfRangeLabelError, match="T must be at least 0"):
            single_edge_exact(5, -1, 0)
        with pytest.raises(BadDeltaError):
            single_edge_exact(5, 3, 0)

    def test_repeated_labels_accepted(self):
        assert single_edge_exact([1, 1], 1, 1) == [1]
        assert single_edge_exact([1, 2, 2, 3], 3, 1) == [1, 2, 3]
        assert single_edge_exact((t for t in [2, 2, 3]), 3, 2) == [2]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        T = data.draw(st.integers(1, 10))
        delta = data.draw(st.integers(1, T))
        apps = sorted(data.draw(st.sets(st.integers(1, T), max_size=8)))
        chosen = single_edge_exact(apps, T, delta)
        assert set(chosen) <= set(apps)
        assert len(chosen) == brute_minimum_size(apps, T, delta)


def single_edge_exact_reference(apps, T, delta):
    """``single_edge_exact`` with its second bisection, kept frozen as the
    oracle of ``TestSingleEdgeExactDifferential``."""
    chosen = []
    last_start = T - delta + 1
    last = 0
    j = 0
    while j < len(apps):
        a = apps[j]
        t = max(last + 1, a - delta + 1)
        if t > last_start:
            break
        window_end = t + delta - 1
        pick = apps[bisect_right(apps, window_end) - 1]
        chosen.append(pick)
        last = pick
        j = bisect_right(apps, pick)
    return chosen


class TestSingleEdgeExactDifferential:
    """Sparse long lifetimes, past the brute-force test's T <= 10."""

    def test_sparse_long_lifetimes(self):
        rng = random.Random(7)
        for _ in range(400):
            T = rng.randint(1, 300)
            apps = sorted(rng.sample(range(1, T + 1), rng.randint(0, min(T, 25))))
            mid = rng.randint(1, T)
            for delta in {1, min(2, T), mid, max(T - 1, 1), T}:
                assert (single_edge_exact(apps, T, delta)
                        == single_edge_exact_reference(apps, T, delta))

    def test_empty_and_boundary_labels(self):
        for T in (1, 2, 299, 300):
            for apps in ([], [1], [T], [1, T]):
                for delta in (1, T // 2 or 1, T):
                    assert (single_edge_exact(apps, T, delta)
                            == single_edge_exact_reference(apps, T, delta))

    def test_repeated_labels(self):
        # nondecreasing lists: a repeat of a pick must not add a pick or
        # move the next window
        rng = random.Random(13)
        repeated_picks = 0
        for _ in range(2000):
            T = rng.randint(1, 40)
            apps = sorted(rng.randint(1, T) for _ in range(rng.randint(1, 12)))
            for delta in {1, min(2, T), min(3, T), rng.randint(1, T), T}:
                chosen = single_edge_exact(apps, T, delta)
                assert chosen == single_edge_exact_reference(apps, T, delta)
                repeated_picks += any(apps.count(t) > 1 for t in chosen)
        assert repeated_picks


def chosen_endpoint_reference(g, eid):
    """``chosen_endpoint`` with its explicit tie branch, kept frozen as the
    oracle of ``TestChosenEndpointDifferential``."""
    e = g.edges[eid]
    du = len(g.adjacency[e.u])
    dv = len(g.adjacency[e.v])
    if du != dv:
        return e.u if du > dv else e.v
    return min(e.u, e.v)


class TestChosenEndpointDifferential:
    def test_random_general_graphs(self):
        ties = 0
        for seed in range(200):
            g = random_general_graph(seed, n=7, T=6, max_edges=12, app_prob=0.5)
            for eid, (u, v, _) in enumerate(g.edges):
                assert chosen_endpoint(g, eid) == chosen_endpoint_reference(g, eid)
                ties += len(g.adjacency[u]) == len(g.adjacency[v])
        assert ties > 0  # the corpus reaches the tie branch


class TestDApprox:
    def test_periodic_family(self, periodic_worst_case):
        cover = d_approx_solve(periodic_worst_case, 3)
        assert cover == {(0, 2), (0, 3), (0, 5), (0, 6)}

    def test_single_edge_graph(self):
        g = build_graph(2, 3, [(0, 1, [1, 2, 3])])
        assert d_approx_solve(g, 2) == {(0, 2)}

    def test_empty_graph(self):
        assert d_approx_solve(build_graph(3, 4, []), 2) == set()

    def test_chosen_endpoint_prefers_degree(self, periodic_worst_case):
        # vertex 0 is the hub with degree 3
        for eid in range(periodic_worst_case.m):
            assert chosen_endpoint(periodic_worst_case, eid) == 0


class TestSparseVariantEquivalence:
    def test_set_equality_on_random_corpus(self):
        graphs = [random_general_graph(s, n=7, T=10, max_edges=8) for s in range(25)]
        graphs += [random_star_graph(s, n=9, T=12, d=4) for s in range(15)]
        for g in graphs:
            for delta in (1, 2, 3, g.T):
                assert d_approx_s_solve(g, delta) == d_approx_solve(g, delta)

    def test_sparse_instance_touches_only_appearances(self):
        T = 10 ** 6
        g = build_graph(2, T, [(0, 1, [1, T])])
        assert d_approx_s_solve(g, 2) == {(0, 1), (0, T)}


def one_list_picks_reference(apps, last_start, delta):
    """The single-edge greedy on one sorted label list, as ``d_approx_s_solve``
    called it once per edge before all edges shared one call; frozen as the
    oracle of ``TestDApproxSDifferential``."""
    chosen = []
    last = 0
    j = 0
    while j < len(apps):
        t = max(last + 1, apps[j] - delta + 1)
        if t > last_start:
            break
        j = bisect_right(apps, t + delta - 1)
        last = apps[j - 1]
        chosen.append(last)
    return chosen


def d_approx_s_reference(g, delta):
    """``d_approx_s_solve`` as one greedy call per edge, hosted by
    ``chosen_endpoint``; frozen as the oracle of ``TestDApproxSDifferential``."""
    last_start = g.T - delta + 1
    cover = set()
    for eid, edge in enumerate(g.edges):
        v = chosen_endpoint(g, eid)
        for t in one_list_picks_reference(edge.appearances, last_start, delta):
            cover.add(VertexAppearance(v, t))
    return cover


class TestDApproxSDifferential:
    """The one-call greedy returns the set of the per-edge form, and hosts
    every pick where ``chosen_endpoint`` does."""

    REACHED = ("delta 1", "delta T", "single label", "tie", "v hosts",
               "shared pick", "no search", "bisect")

    def check(self, g, deltas, reached):
        for delta in deltas:
            cover = d_approx_s_solve(g, delta)
            assert cover == d_approx_s_reference(g, delta)
            # shared picks are looked up as plain tuples; none may be kept
            assert all(type(va) is VertexAppearance for va in cover)
            reached["delta 1"] += delta == 1
            reached["delta T"] += delta == g.T
            self.count_picks(g, delta, reached)
        reached["single label"] += any(len(e.appearances) == 1 for e in g.edges)
        for eid, (u, v, _) in enumerate(g.edges):
            reached["tie"] += len(g.adjacency[u]) == len(g.adjacency[v])
            reached["v hosts"] += chosen_endpoint(g, eid) == v

    @staticmethod
    def count_picks(g, delta, reached):
        """Count the reference's picks by the branch of the greedy that
        makes them, and the (host, step) picks two or more edges share."""
        picked = set()
        for eid, edge in enumerate(g.edges):
            apps = edge.appearances
            host = chosen_endpoint(g, eid)
            last = 0
            for t in one_list_picks_reference(apps, g.T - delta + 1, delta):
                # the first label after the last pick ends its own window
                # exactly when it lies a full window past that pick
                first = apps[bisect_right(apps, last)]
                reached["no search" if first - delta >= last else "bisect"] += 1
                reached["shared pick"] += (host, t) in picked
                picked.add((host, t))
                last = t

    def test_random_general_graphs(self):
        rng = random.Random(11)
        reached = dict.fromkeys(self.REACHED, 0)
        for seed in range(300):
            n, T = rng.randint(2, 9), rng.randint(1, 40)
            g = random_general_graph(seed, n=n, T=T, max_edges=n * (n - 1) // 2,
                                     app_prob=rng.choice((0.05, 0.2, 0.5)))
            deltas = {d for d in (1, 2, 3, rng.randint(1, T), T) if d <= T}
            self.check(g, deltas, reached)
        assert all(reached.values()), reached

    def test_generator_stars_extreme_degrees(self):
        reached = dict.fromkeys(self.REACHED, 0)
        for seed in range(20):
            n = 3 + seed % 7
            for d in (1, n - 1):
                g = generate_always_star(GeneratorConfig(n=n, T=30, d=d, seed=seed))
                self.check(g, (1, 2, 3, 1 + seed % 30, 30), reached)
        assert all(reached.values()), reached

    def test_generator_stars_dense(self):
        reached = dict.fromkeys(self.REACHED, 0)
        for seed in range(6):
            n = 24 + 4 * seed
            for d in (20, n - 1):
                g = generate_always_star(GeneratorConfig(n=n, T=30, d=d, seed=seed))
                self.check(g, (1, 2, 3, 30), reached)
        assert all(reached.values()), reached

    def test_worst_case_families(self):
        reached = dict.fromkeys(self.REACHED, 0)
        for delta in range(2, 6):
            for reps in (1, 3):
                for g in (worst_case_acov_instance(delta, reps),
                          worst_case_acov_instance(delta, reps, 3 * delta)):
                    self.check(g, range(1, g.T + 1), reached)
            g = worst_case_sc_instance(delta)
            self.check(g, range(1, g.T + 1), reached)
        assert reached["delta 1"] and reached["delta T"], reached

    def test_empty_graphs(self):
        assert d_approx_s_solve(build_graph(3, 5, []), 2) == set()
        assert d_approx_s_solve(build_graph(3, 0, []), 1) == set()


class TestD1Approx:
    def test_periodic_family_trace(self, periodic_worst_case):
        cover = d1_approx_solve(periodic_worst_case, 3)
        assert cover == {(0, 2), (0, 3), (0, 5), (0, 6)}

    def test_single_edge_fallback_only(self):
        g = build_graph(2, 6, [(0, 1, [1, 2, 5])])
        for delta in (1, 2, 3):
            expected = {(0, t) for t in single_edge_exact([1, 2, 5], 6, delta)}
            assert d1_approx_solve(g, delta) == expected

    def test_empty_graph(self):
        assert d1_approx_solve(build_graph(3, 4, []), 2) == set()

    def test_middle_vertex_on_path(self):
        # path a-b-c active together: the shared vertex covers both edges
        g = build_graph(3, 2, [(0, 1, [1, 2]), (1, 2, [1, 2])])
        cover = d1_approx_solve(g, 2)
        assert cover == {(1, 2)}

    def test_exceeds_d_minus_1_times_opt(self):
        # the pairing greedy is a heuristic: here d - 1 = 1, yet it picks one
        # appearance more than the optimum
        g = generate_always_star(GeneratorConfig(
            n=3, T=4, d=2, seed=512, empty_snapshot_prob=0.3, persistence=0.5,
            center_switch_prob=0.5))
        cover = d1_approx_solve(g, 3)
        assert validate_cover(g, 3, cover) is None
        assert max_snapshot_degree(g) == 2
        assert len(exact_solve(g, 3)) == 2
        assert len(cover) == 3


def adjacency_d1(g, delta):
    """Reference: the earlier d-1-approx, which tests activity with
    per-edge appearance sets and scans each edge's underlying neighbours."""
    T = g.T
    last_start = T - delta + 1
    app_sets = [frozenset(e.appearances) for e in g.edges]

    ledger = [set() for _ in g.edges]  # eid -> open window starts
    order = []
    for eid, t in demands(g, delta):
        ledger[eid].add(t)
        order.append((t, eid))

    adjacent_cache = {}

    def adjacent_edges(eid):
        cached = adjacent_cache.get(eid)
        if cached is None:
            e = g.edges[eid]
            cached = sorted(
                f for f in set(g.adjacency[e.u]) | set(g.adjacency[e.v]) if f != eid
            )
            adjacent_cache[eid] = cached
        return cached

    def has_open_demand_around(fid, tp):
        lo = max(1, tp - delta + 1)
        hi = min(tp, last_start)
        open_starts = ledger[fid]
        return any(w in open_starts for w in range(lo, hi + 1))

    def settle(v, tp):
        for fid in g.adjacency[v]:
            if tp in app_sets[fid]:
                lo = max(1, tp - delta + 1)
                hi = min(tp, last_start)
                open_starts = ledger[fid]
                for w in range(lo, hi + 1):
                    open_starts.discard(w)

    cover = set()
    for t, eid in order:
        if t not in ledger[eid]:
            continue
        edge = g.edges[eid]
        apps = edge.appearances
        lo = bisect_left(apps, t)
        hi = bisect_right(apps, t + delta - 1)
        in_window = apps[lo:hi]

        picked = None
        for tp in reversed(in_window):
            for fid in adjacent_edges(eid):
                if tp in app_sets[fid] and has_open_demand_around(fid, tp):
                    f = g.edges[fid]
                    shared = ({edge.u, edge.v} & {f.u, f.v}).pop()
                    picked = (shared, tp)
                    break
            if picked:
                break
        if picked is None:
            picked = (chosen_endpoint(g, eid), in_window[-1])

        cover.add(VertexAppearance(*picked))
        settle(*picked)
    return cover


class TestD1ApproxDifferential:
    """d-1-approx returns the same set as the adjacency-scan reference."""

    def check(self, g, deltas=None):
        for delta in deltas or range(1, max(g.T, 1) + 1):
            assert d1_approx_solve(g, delta) == adjacency_d1(g, delta)

    def test_random_general_graphs(self):
        for seed in range(150):
            self.check(random_general_graph(seed, n=8, T=14, max_edges=12))

    def test_random_star_graphs(self):
        for seed in range(60):
            self.check(random_star_graph(seed, n=10, T=14, d=5, empty_prob=0.2))

    def test_worst_case_families(self):
        for delta in range(2, 6):
            for reps in (1, 3):
                self.check(worst_case_acov_instance(delta, reps))
                self.check(worst_case_acov_instance(delta, reps, 3 * delta))
            self.check(worst_case_sc_instance(delta))

    def test_empty_graphs(self):
        self.check(build_graph(3, 5, []))
        self.check(build_graph(3, 0, []))

    def test_long_window_stars(self):
        # settles clipped at the current start over long windows, and picks
        # past T - delta + 1 with delta much larger than d
        for seed in range(3):
            g = generate_always_star(GeneratorConfig(n=40, T=90, d=8, seed=seed))
            self.check(g, (1, 2, 3, 17, 64, 90))

    def test_bursty_sparse_graphs(self):
        # each present pair has 1-5 labels within 6 steps of a random start
        for seed in range(3):
            rng = random.Random(seed)
            edge_list = []
            for u, v in combinations(range(12), 2):
                if rng.random() < 0.3:
                    start = rng.randint(1, 395)
                    labels = rng.sample(range(start, start + 6), rng.randint(1, 5))
                    edge_list.append((u, v, sorted(labels)))
            self.check(build_graph(12, 400, edge_list), (1, 5, 24, 100, 400))

    def test_star_wide_window_shape(self):
        # the full-size star-wide-window benchmark shape: delta >> d
        for seed in (7, 8):
            g = generate_always_star(GeneratorConfig(n=1000, T=200, d=20, seed=seed))
            self.check(g, (64,))

    def test_star_dense_narrow_shape(self):
        # the full-size star-dense-narrow benchmark shape: d >> delta
        for seed in (7, 8):
            g = generate_always_star(GeneratorConfig(n=400, T=300, d=60, seed=seed))
            self.check(g, (3,))


class TestAllSolversValid:
    def test_on_random_corpus(self):
        for seed in range(20):
            g = random_general_graph(seed, n=8, T=9, max_edges=10)
            for delta in (1, 2, 4, g.T):
                for solver in (d_approx_solve, d_approx_s_solve, d1_approx_solve):
                    assert validate_cover(g, delta, solver(g, delta)) is None
