import gc
import random
import sys
import tracemalloc
from collections import Counter
from math import ceil

import pytest

from swtvc import (
    BadConfigError,
    BudgetExceededError,
    VertexAppearance,
    TooLargeError,
    brute_force_solve,
    build_graph,
    d1_approx_solve,
    d_approx_s_solve,
    d_approx_solve,
    demands,
    exact_solve,
    star_acov_solve,
    validate_always_star,
    validate_cover,
    worst_case_acov_instance,
    worst_case_sc_instance,
)

from swtvc import exact
from swtvc.exact import _coverage

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

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected_before_search(self, budget):
        # also on an empty graph, which needs no search node at all
        for g in (random_general_graph(3, n=8, T=8, max_edges=10),
                  build_graph(3, 4, [])):
            with pytest.raises(BadConfigError, match="at least 1"):
                exact_solve(g, 2, budget=budget)

    def test_search_deeper_than_recursion_limit_is_solved(self):
        # With delta = 1, edges (0,1) and (0,2) at steps 1..k need (0, t)
        # at each of them, and the four extra edges at step k + 1 need
        # (1, k+1) and (2, k+1): OPT = k + 2 picks, one search level each.
        # The extras give vertices 1 and 2 the larger degree, so the
        # d-approximation warm start takes both of them at every step and
        # the search has to reach a leaf to beat it.
        k = sys.getrecursionlimit()
        g = build_graph(7, k + 1, [(0, 1, range(1, k + 1)), (0, 2, range(1, k + 1)),
                                   (1, 3, [k + 1]), (1, 4, [k + 1]),
                                   (2, 5, [k + 1]), (2, 6, [k + 1])])
        assert len(d_approx_s_solve(g, 1)) == 2 * k + 2
        cover = exact_solve(g, 1)
        assert len(cover) == k + 2
        assert validate_cover(g, 1, cover) is None

    def test_deep_instance_runs_out_of_budget(self):
        # OPT = 1200 picks on the periodic family; a small budget stops the
        # search with the documented error, not a RecursionError
        g = worst_case_acov_instance(3, 1200)
        with pytest.raises(BudgetExceededError):
            exact_solve(g, 3, budget=200)

    def test_deep_search_memory_is_bounded(self):
        # 7 200 demands at depth ~1 200: open-demand sets of ints on the
        # stack peak near 500 MiB within 2 000 nodes, where bitmasks take
        # about 1 KiB each
        g = worst_case_acov_instance(3, 1200)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError):
                exact_solve(g, 3, budget=2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


class TestBruteForce:
    def test_example_graph(self, example_graph):
        assert len(brute_force_solve(example_graph, 2)) == 3

    def test_separated_appearances(self):
        g = build_graph(2, 3, [(0, 1, [1, 3])])
        assert len(brute_force_solve(g, 2)) == 2

    def test_empty_graph(self):
        assert brute_force_solve(build_graph(2, 3, []), 2) == set()

    def test_too_large(self):
        # 4 endpoints active at each of 7 steps: 28 candidates, over the 24 limit
        g = build_graph(4, 7, [(0, 1, range(1, 8)), (2, 3, range(1, 8))])
        with pytest.raises(TooLargeError):
            brute_force_solve(g, 2)

    def test_limit_checked_before_any_demand(self, monkeypatch):
        # 2 247 candidates and 38 974 demands: the limit fails first
        g = random_star_graph(1, n=1000, T=200, d=20)

        def fail(*args):
            raise AssertionError("demand masks built before the candidate limit")

        monkeypatch.setattr(exact, "_coverage", fail)
        with pytest.raises(TooLargeError, match="2247 candidate appearances"):
            brute_force_solve(g, 64)


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
                b = brute_force_solve(g, delta)
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


def reference_coverage(g, delta):
    """Reference: the earlier coverage scan, a sorted candidate list first,
    then each candidate's demands from the snapshot at its step."""
    ds = demands(g, delta)
    index = {d: i for i, d in enumerate(ds)}
    seen = set()
    for t in range(1, g.T + 1):
        for eid in g.time_index[t]:
            e = g.edges[eid]
            seen.add((e.u, t))
            seen.add((e.v, t))
    cands = sorted(seen)
    covered = []
    for v, t in cands:
        hit = set()
        for eid in g.time_index[t]:
            e = g.edges[eid]
            if v == e.u or v == e.v:
                for w in range(max(1, t - delta + 1), min(t, g.T - delta + 1) + 1):
                    hit.add(index[(eid, w)])
        covered.append(frozenset(hit))
    return ds, cands, covered


def recursive_exact_nodes(g, delta, budget):
    """Reference: the earlier branch and bound, one recursion level per
    chosen appearance, children visited in candidate order.  Returns the
    cover and how many search nodes it took to decide."""
    ds, cands, covered = reference_coverage(g, delta)
    if not ds:
        return set(), 0
    by_demand = [[] for _ in ds]
    for ci, hit in enumerate(covered):
        for di in hit:
            by_demand[di].append(ci)
    incumbent = d_approx_s_solve(g, delta)
    best = [len(incumbent), set(incumbent)]
    max_cov = max(len(h) for h in covered)
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
        target = min(sorted(remaining), key=lambda di: len(by_demand[di]))
        for ci in by_demand[target]:
            chosen.append(cands[ci])
            dfs(chosen, remaining - covered[ci])
            chosen.pop()

    dfs([], frozenset(range(len(ds))))
    return {VertexAppearance(v, t) for v, t in best[1]}, nodes[0]


class TestExactDifferential:
    """The explicit-stack search returns the recursive reference's cover, or
    runs out of budget exactly where it does; brute force sees the same
    candidates and coverage."""

    BUDGETS = (20_000, 40, 1)

    def check(self, g):
        """Compare at every delta and budget; returns the (budget, outcome)
        pairs seen."""
        outcomes = set()
        for delta in range(1, max(g.T, 1) + 1):
            ds, cands, covered = reference_coverage(g, delta)
            # demands renumbered fail-first: a stable sort on fan-out
            fanout = Counter(di for hit in covered for di in hit)
            order = sorted(range(len(ds)), key=lambda di: fanout[di])
            rank = {di: r for r, di in enumerate(order)}
            masks = [sum(1 << rank[di] for di in hit) for hit in covered]
            got_cands, got_masks, by_demand = _coverage(g, delta)
            assert (got_cands, got_masks) == (cands, masks)
            assert len(by_demand) == len(ds)
            # each demand's candidates are the set bits, in candidate order
            assert by_demand == [[ci for ci, mask in enumerate(masks) if mask >> di & 1]
                                 for di in range(len(ds))]
            for budget in self.BUDGETS:
                try:
                    expected, _ = recursive_exact_nodes(g, delta, budget)
                except BudgetExceededError:
                    outcomes.add((budget, "exhausted"))
                    with pytest.raises(BudgetExceededError):
                        exact_solve(g, delta, budget=budget)
                else:
                    outcomes.add((budget, "decided"))
                    assert exact_solve(g, delta, budget=budget) == expected
        return outcomes

    def test_random_general_graphs(self):
        outcomes = set()
        for seed in range(60):
            outcomes |= self.check(random_general_graph(seed, n=6, T=10, max_edges=7))
        # the corpus exercises both a decided and an exhausted search
        assert {(40, "decided"), (40, "exhausted"), (20_000, "decided")} <= outcomes

    def test_random_star_graphs(self):
        for seed in range(40):
            self.check(random_star_graph(seed, n=7, T=10, d=3, empty_prob=0.2))

    def test_worst_case_families(self):
        for delta in range(2, 5):
            for reps in (1, 3):
                self.check(worst_case_acov_instance(delta, reps))
                self.check(worst_case_acov_instance(delta, reps, delta + 2))
            self.check(worst_case_sc_instance(delta))

    def test_empty_graphs(self):
        self.check(build_graph(3, 5, []))
        self.check(build_graph(3, 0, []))


def rung_graph(seed, n=5, T=24, m=4, k=6):
    """``m`` distinct random pairs, each active at ``k`` random steps: the
    shape of the benchmark's T = 24 exact rung, small enough to decide.
    Its searches meet finished subtrees again and again."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return build_graph(n, T, [(u, v, sorted(rng.sample(range(1, T + 1), k)))
                              for u, v in pairs[:m]])


class TestExactReplay:
    """Replaying finished subtrees moves no outcome: where the reference
    decides in N nodes, ``exact_solve`` decides at budget N with its cover
    and runs out at budget N - 1."""

    REFERENCE_BUDGET = 30_000

    def sweep(self, cases):
        """Check every (graph, delta) the reference decides within
        ``REFERENCE_BUDGET`` nodes; returns how many it decided."""
        decided = 0
        for g, delta in cases:
            try:
                cover, n = recursive_exact_nodes(g, delta, self.REFERENCE_BUDGET)
            except BudgetExceededError:
                continue
            decided += 1
            # no demands take no node, but the smallest budget allowed is 1
            assert exact_solve(g, delta, budget=max(n, 1)) == cover
            if n > 1:
                with pytest.raises(BudgetExceededError):
                    exact_solve(g, delta, budget=n - 1)
        return decided

    @staticmethod
    def small_cases():
        for seed in range(40):
            g = random_general_graph(seed, n=6, T=10, max_edges=7)
            for delta in (1, 2, 3):
                yield g, delta

    @staticmethod
    def rung_cases():
        for seed in range(12):
            yield rung_graph(seed), 3

    def test_budget_sweep_small_graphs(self):
        assert self.sweep(self.small_cases()) >= 100

    def test_budget_sweep_rung_shape(self):
        assert self.sweep(self.rung_cases()) >= 3

    def test_capped_table(self, monkeypatch):
        # a cap of a few entries leaves every outcome as it was
        monkeypatch.setattr(exact, "_REPLAY_TABLE_BYTES", 2 * 2**10)
        assert self.sweep(self.small_cases()) >= 100
        assert self.sweep(self.rung_cases()) >= 3

    def test_table_memory_stays_under_its_cap(self, monkeypatch):
        # a star search that records hundreds of finished subtrees within
        # 5 000 nodes: its peak over a search without a table stays within
        # the cap, where the uncapped table takes several times the cap
        g = random_star_graph(0, n=40, T=100, d=5)
        cap = 16 * 2**10

        def peak(table_bytes):
            monkeypatch.setattr(exact, "_REPLAY_TABLE_BYTES", table_bytes)
            # a full collection left due by earlier tests would otherwise
            # land inside one search and empty the free lists it reuses
            gc.collect()
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError):
                    exact_solve(g, 3, budget=5_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the first traced search of a process also counts one-time
        # allocations that would inflate the baseline
        peak(0)
        without = peak(0)
        assert peak(32 * 2**20) - without > 2 * cap
        assert peak(cap) - without <= cap
