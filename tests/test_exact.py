import pytest

from swtvc import (
    BudgetExceededError,
    TooLargeError,
    brute_force_solve,
    build_graph,
    d1_approx_solve,
    d_approx_solve,
    exact_solve,
    star_acov_solve,
    validate_always_star,
    validate_cover,
    worst_case_acov_instance,
    worst_case_sc_instance,
)

from conftest import random_general_graph, random_star_graph


class TestExactSolve:
    def test_example_graph_minimum(self, example_graph):
        cover = exact_solve(example_graph, 2)
        assert len(cover) == 3
        assert validate_cover(example_graph, 2, cover) is None

    def test_periodic_family_minimum(self, periodic_worst_case):
        cover = exact_solve(periodic_worst_case, 3)
        assert len(cover) == 2
        assert validate_cover(periodic_worst_case, 3, cover) is None

    def test_empty_graph(self):
        assert exact_solve(build_graph(3, 4, []), 2) == set()

    def test_budget_exceeded(self):
        g = random_general_graph(3, n=8, T=8, max_edges=10)
        with pytest.raises(BudgetExceededError):
            exact_solve(g, 2, budget=1)

    def test_search_deeper_than_recursion_limit(self):
        # OPT = 1200 chosen appearances, one recursion level each
        g = worst_case_acov_instance(3, 1200)
        with pytest.raises(TooLargeError):
            exact_solve(g, 3, budget=50_000)


class TestBruteForce:
    def test_example_graph(self, example_graph):
        assert len(brute_force_solve(example_graph, 2)) == 3

    def test_separated_appearances(self):
        g = build_graph(2, 3, [(0, 1, [1, 3])])
        assert len(brute_force_solve(g, 2)) == 2

    def test_empty_graph(self):
        assert brute_force_solve(build_graph(2, 3, []), 2) == set()

    def test_too_large(self):
        g = build_graph(4, 4, [(0, 1, [1, 2, 3, 4]), (2, 3, [1, 2, 3, 4])])
        with pytest.raises(TooLargeError):
            brute_force_solve(g, 2, max_candidates=4)


class TestOracleAgreement:
    def test_sizes_agree_on_tiny_corpus(self):
        count = 0
        seed = 0
        while count < 60:
            g = random_general_graph(seed, n=4, T=5, max_edges=4, app_prob=0.3)
            seed += 1
            if g.m == 0:
                continue
            for delta in (1, 2, 3):
                a = exact_solve(g, delta)
                b = brute_force_solve(g, delta, max_candidates=24)
                assert len(a) == len(b)
                assert validate_cover(g, delta, a) is None
            count += 1

    def test_never_larger_than_approximations(self):
        for seed in range(12):
            g = random_star_graph(seed, n=5, T=6, d=3)
            for delta in (1, 2, 3):
                opt = len(exact_solve(g, delta))
                assert opt <= len(d_approx_solve(g, delta))
                assert opt <= len(d1_approx_solve(g, delta))
                if validate_always_star(g) is None:
                    assert opt <= len(star_acov_solve(g, delta))

    def test_static_star_optimum_is_one(self):
        for delta in (2, 3, 4):
            g = worst_case_sc_instance(delta)
            assert len(exact_solve(g, delta)) == 1
