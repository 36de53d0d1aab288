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


class TestStarAcovDifferential:
    """star-acov returns the same set as the ring-buffer reference."""

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
    non-star step."""

    def check(self, g):
        offender = validate_always_star(g)
        delta = max(1, min(3, g.T))
        for solve in (star_sc_solve, star_acov_solve):
            try:
                solve(g, delta)
            except NotAStarError as exc:
                assert exc.time_step == offender
            else:
                assert offender is None

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

    def test_empty_graphs(self):
        self.check(build_graph(3, 5, []))
        self.check(build_graph(3, 0, []))


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
