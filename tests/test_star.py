import gc
import tracemalloc
from bisect import bisect_right
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swtvc import (
    BadDeltaError,
    GeneratorConfig,
    NotAStarError,
    VertexAppearance,
    build_graph,
    exact_solve,
    generate_always_star,
    star_acov_solve,
    star_center_at,
    star_sc_solve,
    validate_always_star,
    validate_cover,
    worst_case_acov_instance,
    worst_case_sc_instance,
)
from swtvc.graph import _star_centers

from conftest import random_general_graph, random_star_graph


class TestStarSc:
    def test_periodic_family_all_centers(self, periodic_worst_case):
        cover = star_sc_solve(periodic_worst_case, 3)
        assert cover == {(0, t) for t in range(1, 7)}

    def test_static_star_realizes_ratio(self):
        g = worst_case_sc_instance(2)  # T=3, one edge active everywhere
        cover = star_sc_solve(g, 2)
        assert len(cover) == 3
        assert len(exact_solve(g, 2)) == 1

    def test_empty_graph(self):
        assert star_sc_solve(build_graph(3, 4, []), 2) == set()

    def test_valid_for_every_delta(self):
        g = random_star_graph(5, n=10, T=10, d=4, empty_prob=0.2)
        cover = star_sc_solve(g, 1)
        for delta in range(1, g.T + 1):
            assert validate_cover(g, delta, cover) is None

    def test_rejects_non_star(self, example_graph):
        with pytest.raises(NotAStarError):
            star_sc_solve(example_graph, 2)


class TestStarAcov:
    def test_periodic_family_output(self, periodic_worst_case):
        cover = star_acov_solve(periodic_worst_case, 3)
        assert cover == {(0, 2), (0, 3), (0, 5), (0, 6)}

    def test_static_star_matches_optimum(self):
        g = build_graph(2, 4, [(0, 1, [1, 2, 3, 4])])
        cover = star_acov_solve(g, 2)
        assert cover == {(0, 2), (0, 4)}
        assert len(exact_solve(g, 2)) == 2

    def test_delta_one_equals_sc(self):
        for seed in range(8):
            g = random_star_graph(seed, n=8, T=8, d=3, empty_prob=0.25)
            assert star_acov_solve(g, 1) == star_sc_solve(g, 1)

    def test_contained_in_sc(self):
        for seed in range(10):
            g = random_star_graph(seed, n=10, T=12, d=4)
            for delta in (1, 2, 3, 5):
                assert star_acov_solve(g, delta) <= star_sc_solve(g, delta)

    def test_validity_across_deltas(self):
        for seed in range(10):
            g = random_star_graph(seed, n=12, T=10, d=5, empty_prob=0.15)
            for delta in range(1, g.T + 1):
                cover = star_acov_solve(g, delta)
                assert validate_cover(g, delta, cover) is None

    def test_at_most_one_appearance_per_step(self):
        for seed in range(6):
            g = random_star_graph(seed, n=9, T=10, d=4)
            for delta in (2, 3, 4):
                for cover in (star_sc_solve(g, delta), star_acov_solve(g, delta)):
                    times = [t for _, t in cover]
                    assert len(times) == len(set(times))

    def test_rejects_non_star(self, example_graph):
        with pytest.raises(NotAStarError):
            star_acov_solve(example_graph, 2)

    def test_bad_delta(self, periodic_worst_case):
        with pytest.raises(BadDeltaError):
            star_acov_solve(periodic_worst_case, 0)
        with pytest.raises(BadDeltaError):
            star_acov_solve(periodic_worst_case, 7)

    def test_long_sparse_lifetime_memory(self):
        # a heap of due steps holds one entry per nonempty step, so on a
        # lifetime of few labels the solver's peak stays near that of the
        # T + 1 centers it reads; a bucket per window would not
        g = sparse_star(200_000)

        def peak(fn):
            fn()  # the first traced call counts one-time allocations
            gc.collect()
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        centers = peak(lambda: _star_centers(g))
        for delta in (3, 1_000):
            assert peak(lambda: star_acov_solve(g, delta)) <= 1.5 * centers

    def test_worst_case_family_tight_at_larger_delta(self):
        # the (delta-1) ratio is attained exactly far beyond delta 2..4
        for delta in range(2, 17):
            for reps in (1, 2, 3, 5):
                for leaves in (delta - 1, 3 * delta):
                    g = worst_case_acov_instance(delta, reps, leaves)
                    expected = g.T - ceil(g.T / delta)
                    assert len(star_acov_solve(g, delta)) == expected


_EXCLUDED, _AVAILABLE, _INCLUDED = 0, 1, 2


def ring_buffer_acov(g, delta):
    """Reference: the earlier ring-buffer implementation of star-acov, which
    rescans all delta slots of the window for every edge it plans."""
    centers = [None] + [star_center_at(g, t) for t in range(1, g.T + 1)]
    T = g.T
    if T == 0:
        return set()

    slot_edges = [frozenset()] * delta
    status = [_AVAILABLE] * delta

    def load(idx, t):
        es = frozenset(g.time_index[t])
        slot_edges[idx] = es
        status[idx] = _AVAILABLE if es else _EXCLUDED

    # during window t the slot (first + i) % delta holds time step t + i
    first = delta - 1
    for t in range(1, delta):
        load(t - 1, t)

    cover = set()
    for t in range(1, T - delta + 1 + 1):
        load(first, t + delta - 1)
        first = (first + 1) % delta

        for idx in range(delta):
            if status[idx] == _EXCLUDED and slot_edges[idx]:
                status[idx] = _AVAILABLE

        for i in range(delta):
            idx = (first + i) % delta
            if status[idx] == _INCLUDED or not slot_edges[idx]:
                continue

            def coverers(eid):
                included = None
                latest = None
                for j in range(delta):
                    if j == i:
                        continue
                    jdx = (first + j) % delta
                    if eid not in slot_edges[jdx]:
                        continue
                    if status[jdx] == _INCLUDED:
                        included = j
                    elif status[jdx] == _AVAILABLE:
                        latest = j
                return included, latest

            plans = [(eid, *coverers(eid)) for eid in sorted(slot_edges[idx])]
            if any(inc is None and lat is None for _, inc, lat in plans):
                cover.add(VertexAppearance(centers[t + i], t + i))
                status[idx] = _INCLUDED
                continue

            status[idx] = _EXCLUDED
            plans.sort(key=lambda p: (p[2] if p[2] is not None else delta, p[0]))
            for eid, inc, lat in plans:
                covered = inc is not None or any(
                    status[(first + j) % delta] == _INCLUDED
                    and eid in slot_edges[(first + j) % delta]
                    for j in range(delta) if j != i
                )
                if covered:
                    continue
                jdx = (first + lat) % delta
                cover.add(VertexAppearance(centers[t + lat], t + lat))
                status[jdx] = _INCLUDED

    return cover


def slot_scan_acov(g, delta):
    """Reference: the earlier star-acov loop, which examines every slot of
    every window, (T - delta + 1) * delta of them, in window order."""
    centers = [None] + [star_center_at(g, t) for t in range(1, g.T + 1)]
    index, edges = g.time_index, g.edges
    included = bytearray(g.T + 1)
    covered = [0] * g.m  # latest included step at which each edge is active
    cover = set()

    def include(s):
        included[s] = 1
        cover.add(VertexAppearance(centers[s], s))
        for eid in index[s]:
            if covered[eid] < s:
                covered[eid] = s

    for t in range(1, g.T - delta + 2):
        end = t + delta - 1
        for s in range(t, end + 1):
            if included[s]:
                continue
            plans = []  # (last step in the window, eid) of uncovered edges
            for eid in index[s]:
                if covered[eid] >= t:
                    continue
                apps = edges[eid].appearances
                latest = apps[bisect_right(apps, end) - 1]
                if latest <= s:
                    include(s)  # no other center can cover this edge
                    break
                plans.append((latest, eid))
            else:
                # most constrained edge first, so one inclusion serves the rest
                for latest, eid in sorted(plans):
                    if covered[eid] < t:
                        include(latest)

    return cover


def sparse_star(T):
    """Star on center 0 with seven labels spread over a long lifetime."""
    return build_graph(5, T, [(0, 1, [1, T // 3, T]), (0, 2, [2, T // 3 + 1]),
                              (0, 3, [T // 2]), (0, 4, [T - 1])])


class TestStarAcovDifferential:
    """star-acov returns the same set as the ring-buffer reference and, on
    corpora too large for that one, as the frozen slot scan."""

    def check(self, g):
        for delta in range(1, max(g.T, 1) + 1):
            assert star_acov_solve(g, delta) == ring_buffer_acov(g, delta)

    def test_random_star_graphs(self):
        for seed in range(80):
            self.check(random_star_graph(seed, n=10, T=14, d=5, empty_prob=0.2))
        for seed in range(10):
            self.check(random_star_graph(seed, n=40, T=30, d=12, underlying=True))

    def test_always_star_general_graphs(self):
        checked = 0
        for seed in range(400):
            g = random_general_graph(seed, n=6, T=12, max_edges=5, app_prob=0.3)
            if validate_always_star(g) is None:
                self.check(g)
                checked += 1
        assert checked >= 200

    def test_worst_case_families(self):
        for delta in range(2, 6):
            for reps in (1, 3):
                self.check(worst_case_acov_instance(delta, reps))
                self.check(worst_case_acov_instance(delta, reps, 3 * delta))
            self.check(worst_case_sc_instance(delta))

    def test_empty_graphs(self):
        self.check(build_graph(3, 5, []))
        self.check(build_graph(3, 0, []))

    def test_generator_stars_against_slot_scan(self):
        # sizes the ring buffer is too slow for: wide windows on a sparse
        # lifetime, and narrow ones on dense snapshots
        shapes = ((200, 200, 20, (2, 3, 16, 64, 128, 200)),
                  (100, 120, 60, (1, 2, 3, 5)))
        for n, T, d, deltas in shapes:
            for seed, (underlying, empty, persistence) in enumerate(
                    (u, e, p) for u in (False, True) for e in (0.0, 0.3)
                    for p in (0.0, 0.99)):
                g = generate_always_star(GeneratorConfig(
                    n=n, T=T, d=d, seed=seed, underlying_star=underlying,
                    empty_snapshot_prob=empty, persistence=persistence))
                for delta in deltas:
                    assert star_acov_solve(g, delta) == slot_scan_acov(g, delta)

    def test_worst_case_families_against_slot_scan(self):
        for delta in range(2, 33):
            for reps in (1, 3):
                g = worst_case_acov_instance(delta, reps, 3 * delta)
                assert star_acov_solve(g, delta) == slot_scan_acov(g, delta)

    def test_sparse_long_lifetime_against_slot_scan(self):
        g = sparse_star(5_000)
        for delta in (1, 2, 3, 7, 100, 4_900, 4_999, 5_000):
            assert star_acov_solve(g, delta) == slot_scan_acov(g, delta)

    def test_long_lifetime_wide_windows(self):
        # windows far wider than the T <= 30 corpus above, across persistence
        for persistence in (0.0, 0.5, 0.9):
            for seed in range(4):
                T = 60 + 10 * (seed % 3)
                cfg = GeneratorConfig(n=40, T=T, d=2 + 2 * seed, seed=seed,
                                      empty_snapshot_prob=0.1,
                                      persistence=persistence)
                g = generate_always_star(cfg)
                for delta in range(1, T + 1):
                    assert star_acov_solve(g, delta) == ring_buffer_acov(g, delta)


class TestAlwaysStarCheck:
    """``validate_always_star`` and the star solvers share one center scan,
    so they agree on which graphs are always-star and on the first
    non-star step, and the scan names the centers ``star_center_at`` does."""

    def check(self, g):
        # the per-step answers are the reference the scan must reproduce
        expected = [None]
        offender = None
        for t in range(1, g.T + 1):
            try:
                expected.append(star_center_at(g, t))
            except NotAStarError as exc:
                assert exc.time_step == t
                offender = t
                break
        assert validate_always_star(g) == offender
        if offender is None:
            assert _star_centers(g) == expected
            for t, center in enumerate(expected[1:], 1):
                assert all(center in g.edges[eid][:2] for eid in g.time_index[t])
        else:
            with pytest.raises(NotAStarError) as caught:
                _star_centers(g)
            assert caught.value.time_step == offender
        delta = max(1, min(3, g.T))
        for solve in (star_sc_solve, star_acov_solve):
            try:
                solve(g, delta)
            except NotAStarError as exc:
                assert exc.time_step == offender
            else:
                assert offender is None
        return expected

    def test_random_general_graphs(self):
        offenders = 0
        for seed in range(300):
            g = random_general_graph(seed, n=6, T=10, max_edges=6, app_prob=0.35)
            self.check(g)
            offenders += validate_always_star(g) is not None
        assert 50 <= offenders <= 250  # both outcomes are well exercised

    def test_random_star_graphs(self):
        for seed in range(60):
            g = random_star_graph(seed, n=10, T=14, d=5, empty_prob=0.2)
            assert validate_always_star(g) is None
            self.check(g)
        for seed in range(4):
            self.check(random_star_graph(seed, n=200, T=200, d=20, underlying=seed % 2))

    def test_one_edge_snapshot_names_smaller_endpoint(self):
        for u, v in ((2, 5), (5, 2)):
            assert self.check(build_graph(6, 2, [(u, v, [2])])) == [None, None, 2]

    def test_two_edge_snapshot_names_shared_endpoint(self):
        # the shared vertex as the smaller or the larger endpoint of either edge
        for first, second, shared in (((1, 3), (1, 4), 1), ((3, 1), (4, 3), 3),
                                      ((1, 3), (3, 4), 3), ((2, 4), (0, 4), 4),
                                      ((0, 4), (2, 4), 4), ((4, 0), (4, 2), 4)):
            g = build_graph(5, 1, [(*first, [1]), (*second, [1])])
            assert self.check(g) == [None, shared]

    def test_empty_graphs(self):
        assert self.check(build_graph(3, 5, [])) == [None] * 6
        assert self.check(build_graph(3, 0, [])) == [None]
        assert _star_centers(build_graph(0, 0, [])) == [None]


@st.composite
def small_star_graphs(draw):
    """Always-star graph with a freely drawn center and leaf set per step."""
    n = draw(st.integers(2, 6))
    T = draw(st.integers(1, 12))
    labels = {}
    for t in range(1, T + 1):
        if draw(st.booleans()):
            continue  # empty snapshot
        center = draw(st.integers(0, n - 1))
        others = [v for v in range(n) if v != center]
        for leaf in draw(st.sets(st.sampled_from(others), min_size=1)):
            key = (min(center, leaf), max(center, leaf))
            labels.setdefault(key, []).append(t)
    return build_graph(n, T, [(u, v, ts) for (u, v), ts in labels.items()])


@settings(max_examples=200, deadline=None)
@given(small_star_graphs())
def test_star_acov_matches_ring_buffer_on_random_stars(g):
    for delta in range(1, g.T + 1):
        assert star_acov_solve(g, delta) == ring_buffer_acov(g, delta)
