import random
import re
import tempfile
from pathlib import Path

import pytest

from swtvc import (
    BadConfigError,
    BadDeltaError,
    GeneratorConfig,
    TooLargeError,
    build_graph,
    generate_always_star,
    max_snapshot_degree,
    star_acov_solve,
    exact_solve,
    star_center_at,
    validate_always_star,
    worst_case_acov_instance,
    worst_case_sc_instance,
    write_native,
)
from swtvc.generator import _shuffle_tail


class TestGenerateAlwaysStar:
    def test_smallest_instance(self):
        g = generate_always_star(GeneratorConfig(n=2, T=1, d=1, seed=0))
        assert g.m == 1
        assert (g.edges[0].u, g.edges[0].v, g.edges[0].appearances) == (0, 1, (1,))

    def test_size_limit_before_generating(self):
        with pytest.raises(TooLargeError):
            generate_always_star(GeneratorConfig(n=10**12, T=4, d=3, seed=0))
        with pytest.raises(TooLargeError):
            worst_case_acov_instance(3, 10**11)
        with pytest.raises(TooLargeError):
            worst_case_acov_instance(3, 1, 10**11)
        with pytest.raises(TooLargeError):
            worst_case_sc_instance(10**11)

    def test_zero_degree_gives_empty_graph(self):
        g = generate_always_star(GeneratorConfig(n=1, T=5, d=0, seed=0))
        assert g.m == 0
        assert g.T == 5

    def test_always_star_and_degree_bound(self):
        cfg = GeneratorConfig(n=128, T=64, d=10, seed=0)
        g = generate_always_star(cfg)
        assert validate_always_star(g) is None
        assert max_snapshot_degree(g) <= 10
        assert max(len(g.time_index[t]) for t in range(1, 65)) <= 10

    def test_deterministic_serialization(self):
        cfg = GeneratorConfig(n=32, T=24, d=6, seed=7, empty_snapshot_prob=0.1)
        with tempfile.TemporaryDirectory() as d:
            p1, p2 = Path(d) / "a.tg", Path(d) / "b.tg"
            write_native(generate_always_star(cfg), p1)
            write_native(generate_always_star(cfg), p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_seeds_differ(self):
        a = generate_always_star(GeneratorConfig(n=16, T=16, d=4, seed=0))
        b = generate_always_star(GeneratorConfig(n=16, T=16, d=4, seed=1))
        assert [e.appearances for e in a.edges] != [e.appearances for e in b.edges]

    def test_underlying_star_fixed_center(self):
        g = generate_always_star(
            GeneratorConfig(n=20, T=30, d=5, seed=3, underlying_star=True))
        assert all(0 in (e.u, e.v) for e in g.edges)

    def test_center_varies_without_underlying_flag(self):
        g = generate_always_star(GeneratorConfig(n=64, T=40, d=3, seed=2))
        centers = {star_center_at(g, t) for t in range(1, 41)
                   if g.time_index[t]}
        assert len(centers) > 1

    def test_empty_snapshot_probability_one(self):
        g = generate_always_star(
            GeneratorConfig(n=8, T=10, d=3, seed=0, empty_snapshot_prob=1.0))
        assert g.m == 0

    def test_bad_configs(self):
        with pytest.raises(BadConfigError):
            generate_always_star(GeneratorConfig(n=2, T=4, d=5, seed=0))
        with pytest.raises(BadConfigError):
            generate_always_star(GeneratorConfig(n=1, T=4, d=1, seed=0))
        with pytest.raises(BadConfigError):
            generate_always_star(
                GeneratorConfig(n=4, T=4, d=2, seed=0, empty_snapshot_prob=1.5))


def shuffle_reference_star(cfg):
    """Reference for ``generate_always_star``: the same step loop with a
    full ``rng.shuffle`` of every candidate list.  Returns the edge list."""
    rng = random.Random(cfg.seed)
    labels = {}
    center = 0 if cfg.underlying_star else rng.randrange(cfg.n)
    leaves = []
    for t in range(1, cfg.T + 1):
        if cfg.d == 0:
            continue
        if cfg.empty_snapshot_prob and rng.random() < cfg.empty_snapshot_prob:
            continue
        if not cfg.underlying_star and rng.random() < cfg.center_switch_prob:
            center = rng.randrange(cfg.n)
            leaves = []
        leaves = [l for l in leaves if rng.random() < cfg.persistence]
        k = rng.randint(1, cfg.d)
        taken = set(leaves)
        candidates = [v for v in range(cfg.n) if v != center and v not in taken]
        rng.shuffle(candidates)
        while len(leaves) < k and candidates:
            leaves.append(candidates.pop())
        del leaves[k:]
        for leaf in leaves:
            key = (center, leaf) if center < leaf else (leaf, center)
            labels.setdefault(key, []).append(t)
    return [(u, v, tuple(ts)) for (u, v), ts in sorted(labels.items())]


def shuffle_configs():
    """Seeded generator configs: small random ones, and ones around the
    256 bit-length boundary of the shuffle's draws."""
    rng = random.Random(0)
    configs = [GeneratorConfig(n=1, T=6, d=0, seed=3),
               GeneratorConfig(n=2, T=9, d=1, seed=4)]
    for seed in range(300):
        n = rng.choice([1, 2, rng.randint(3, 12), rng.randint(13, 90)])
        configs.append(GeneratorConfig(
            n=n, T=rng.randint(0, 30),
            d=0 if n == 1 or seed % 10 == 0 else rng.randint(1, n - 1),
            seed=seed, underlying_star=seed % 3 == 0,
            empty_snapshot_prob=rng.choice([0.0, 0.3, 1.0]),
            persistence=rng.choice([0.0, 0.5, 0.9, 1.0]),
            center_switch_prob=rng.choice([0.0, 0.1, 1.0])))
    # around 256 the shuffle's draws change bit length; d = n-1 lets the
    # center and leaves exclude anything from one vertex to all n, and
    # lets a step pop every candidate
    for n in (255, 256, 257, 300):
        for d in (1, n - 1):
            for persistence in (0.0, 1.0):
                for underlying_star in (False, True):
                    configs.append(GeneratorConfig(
                        n=n, T=40, d=d, seed=n + d, underlying_star=underlying_star,
                        persistence=persistence, center_switch_prob=0.1))
    return configs


class TestShuffleTail:
    def check(self, length, count):
        seed = length * 1000 + count + 2
        full, tail = random.Random(seed), random.Random(seed)
        expected, got = list(range(length)), list(range(length))
        full.shuffle(expected)
        _shuffle_tail(tail, got, count)
        first = max(length - count, 0)
        assert got[first:] == expected[first:], (length, count)
        assert tail.getstate() == full.getstate(), (length, count)

    def test_tail_and_rng_state_match_shuffle(self):
        for length in range(131):
            for count in range(-2, length + 3):
                self.check(length, count)
        # the skipped draws run one bit length at a time; these lengths
        # start a draw loop just below, at and just above a boundary
        for length in (511, 512, 513, 1023, 1024, 1025):
            for count in (0, 1, 20, length):
                self.check(length, count)

    def test_generator_matches_full_shuffle(self):
        for cfg in shuffle_configs():
            g = generate_always_star(cfg)
            got = [(e.u, e.v, e.appearances) for e in g.edges]
            assert got == shuffle_reference_star(cfg), cfg

    def test_generator_graph_matches_build_graph(self):
        # the generator assembles its graph without build_graph's checks
        # and merge; the whole graph, indices included, must be the same
        configs = shuffle_configs() + [
            GeneratorConfig(n=1000, T=40, d=20, seed=1),  # star-wide-window's shape
            GeneratorConfig(n=400, T=40, d=60, seed=1),  # star-dense-narrow's shape
        ]
        for cfg in configs:
            g = generate_always_star(cfg)
            edge_list = [(e.u, e.v, list(e.appearances)) for e in g.edges]
            assert g == build_graph(cfg.n, cfg.T, edge_list), cfg


#: Values the worst-case builders reject as not an integer.
NON_INTEGERS = [2.5, 2.0, "3", None]


class TestWorstCaseAcovFamily:
    def test_reproduces_reference_instance(self, periodic_worst_case):
        g = periodic_worst_case
        assert g.n == 4 and g.T == 6
        apps = {(e.u, e.v): e.appearances for e in g.edges}
        assert apps[(0, 1)] == (1, 2, 4, 5)
        assert apps[(0, 2)] == (1, 2, 4, 5)
        assert apps[(0, 3)] == (1, 3, 4, 6)

    def test_periodicity_and_union_structure(self):
        g = worst_case_acov_instance(4, 3, 5)
        assert g.T == 12
        for t in range(1, g.T - 4 + 1):
            assert g.time_index[t] == g.time_index[t + 4]
        union = set()
        for off in range(2, 5):
            snap = set(g.time_index[off])
            assert snap
            assert not (snap & union)
            union |= snap
        assert union == set(g.time_index[1])

    def test_single_edge_case_is_exact_for_acov(self):
        g = worst_case_acov_instance(2, 4, 1)
        assert g.m == 1
        assert g.edges[0].appearances == tuple(range(1, 9))
        assert len(star_acov_solve(g, 2)) == len(exact_solve(g, 2))

    def test_size_formula(self):
        g = worst_case_acov_instance(4, 3, 3)
        assert len(star_acov_solve(g, 4)) == g.T - -(-g.T // 4)  # T - ceil(T/4)
        assert len(exact_solve(g, 4)) == -(-g.T // 4)

    def test_bad_configs(self):
        with pytest.raises(BadConfigError):
            worst_case_acov_instance(1, 2)
        with pytest.raises(BadConfigError):
            worst_case_acov_instance(3, 2, leaves=1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_delta_is_a_bad_delta(self, value):
        with pytest.raises(BadDeltaError, match="not an integer"):
            worst_case_acov_instance(value, 2)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_reps_is_a_bad_config(self, value):
        with pytest.raises(BadConfigError, match=re.escape(repr(value))):
            worst_case_acov_instance(3, value)

    @pytest.mark.parametrize("value", NON_INTEGERS[:-1])  # None is the default
    def test_non_integer_leaves_is_a_bad_config(self, value):
        with pytest.raises(BadConfigError, match=re.escape(repr(value))):
            worst_case_acov_instance(3, 2, value)


class TestWorstCaseScFamily:
    def test_structure(self):
        g = worst_case_sc_instance(3)
        assert g.T == 5 and g.m == 1
        assert g.edges[0].appearances == tuple(range(1, 6))

    def test_bad_config(self):
        with pytest.raises(BadConfigError):
            worst_case_sc_instance(1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_non_integer_delta_is_a_bad_delta(self, value):
        with pytest.raises(BadDeltaError, match="not an integer"):
            worst_case_sc_instance(value)
