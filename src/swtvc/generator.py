"""Seeded, reproducible instance generation.

``generate_always_star`` evolves one star across the lifetime: leaves
persist between snapshots with high probability, so consecutive snapshots
overlap the way real contact sequences do instead of being independent
draws.  All randomness comes from a Mersenne Twister seeded per config
(``random.Random(seed)``, never the process-global generator), so identical
configs yield identical graphs on every platform.  The two ``worst_case_*``
builders produce the adversarial families that realize the approximation
ratios exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BadConfigError, BadDeltaError
from .graph import (
    TemporalGraph, _assemble, _check_int, _check_size, _is_integer, build_graph)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the always-star generator.

    ``d`` bounds the number of leaves in any snapshot; ``underlying_star``
    pins one fixed center (vertex 0) across the whole lifetime;
    ``empty_snapshot_prob`` is the chance a snapshot carries no edges.
    ``persistence`` is the chance each leaf survives into the next
    snapshot; ``center_switch_prob`` is the chance (without the
    ``underlying_star`` flag) that the center moves, dropping all leaves.
    """

    n: int
    T: int
    d: int
    seed: int
    underlying_star: bool = False
    empty_snapshot_prob: float = 0.0
    persistence: float = 0.9
    center_switch_prob: float = 0.1

    def validate(self):
        """BadConfigError naming the field and its value unless ``n`` is an
        integer of at least 1, ``T``, ``d`` and ``seed`` integers of at least
        0, ``d`` at most ``n - 1`` and each probability a number in [0, 1];
        TooLargeError past the size limit."""
        for name, low in (("n", 1), ("T", 0), ("d", 0), ("seed", 0)):
            _check_int(getattr(self, name), name, low)
        # each step copies an n-long candidate list, long before build_graph
        # would refuse
        _check_size(self.n, self.T)
        if self.d > self.n - 1:
            raise BadConfigError(f"d={self.d} exceeds n-1={self.n - 1}")
        for name in ("empty_snapshot_prob", "persistence", "center_switch_prob"):
            value = getattr(self, name)
            try:
                if not (0.0 <= value <= 1.0):
                    raise BadConfigError(f"{name} {value!r} outside [0, 1]")
            except TypeError:
                raise BadConfigError(f"{name} {value!r} is not a number") from None


def generate_always_star(cfg: GeneratorConfig) -> TemporalGraph:
    """Random always-star temporal graph; deterministic per config."""
    cfg.validate()
    rng = random.Random(cfg.seed)
    labels = {}  # (u, v) -> list of time steps
    center = 0 if cfg.underlying_star else rng.randrange(cfg.n)
    leaves = []
    everyone = list(range(cfg.n))
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
        # every vertex but the center and the leaves, in increasing order:
        # vertex v sits at index v, so deleting from the top down keeps the
        # indices of those still to delete
        candidates = everyone[:]
        for v in sorted([center, *leaves], reverse=True):
            del candidates[v]
        _shuffle_tail(rng, candidates, k - len(leaves))
        while len(leaves) < k and candidates:
            leaves.append(candidates.pop())
        del leaves[k:]
        for leaf in leaves:
            key = (center, leaf) if center < leaf else (leaf, center)
            labels.setdefault(key, []).append(t)
    # pairs canonical, labels strictly increasing and in range, n and T
    # checked: nothing is left for build_graph's checks and merge
    return _assemble(cfg.n, cfg.T, sorted(labels.items()))


def _shuffle_tail(rng, x, count):
    """Leave in the last ``count`` slots of ``x`` what ``rng.shuffle(x)``
    would, and ``rng`` in the state ``shuffle`` would leave it in; the
    slots before them are not shuffled.

    ``random.Random.shuffle`` swaps ``x[i]`` with ``x[j]`` for i = len(x)-1
    down to 1, drawing j < i+1 by rejection sampling from
    ``getrandbits((i+1).bit_length())``, and never touches slot i again.
    This makes the same draws but swaps only the slots the caller pops, so
    generated instances are those of a full shuffle.
    """
    getrandbits = rng.getrandbits
    stop = max(len(x) - max(count, 0), 1)
    for i in range(len(x) - 1, stop - 1, -1):
        m = i + 1
        k = m.bit_length()
        j = getrandbits(k)
        while j >= m:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]
    # the draws for slots below stop, one bit length k at a time
    for k in range(stop.bit_length(), 1, -1):
        for m in range(min(stop, (1 << k) - 1), (1 << (k - 1)) - 1, -1):
            while getrandbits(k) >= m:
                pass


def _check_family_delta(delta) -> None:
    """A worst-case family's Δ: a BadDeltaError unless an integer, and a
    BadConfigError below 2."""
    if not _is_integer(delta):
        raise BadDeltaError(f"delta {delta!r} is not an integer")
    _check_int(delta, "delta", 2)


def worst_case_acov_instance(delta: int, reps: int, leaves: int = None) -> TemporalGraph:
    """Periodic family on which the sliding-window solver hits ratio delta-1.

    The lifetime is ``reps * delta``; snapshots repeat with period delta.
    The first snapshot of each period contains all edges, the remaining
    delta-1 snapshots split the edges into disjoint nonempty groups.  The
    center is vertex 0 throughout.
    """
    _check_family_delta(delta)
    _check_int(reps, "reps", 1)
    if leaves is None:
        leaves = delta - 1
    _check_int(leaves, "leaves", delta - 1)
    _check_size(leaves + 1, reps * delta)

    groups = delta - 1
    base, rem = divmod(leaves, groups)
    group_of = []
    for gidx in range(groups):
        group_of.extend([gidx] * (base + (1 if gidx < rem else 0)))

    T = reps * delta
    edge_list = []
    for i in range(leaves):
        ts = []
        for r in range(reps):
            start = r * delta
            ts.append(start + 1)  # all edges in the period's first snapshot
            ts.append(start + 2 + group_of[i])
        edge_list.append((0, i + 1, ts))
    return build_graph(leaves + 1, T, edge_list)


def worst_case_sc_instance(delta: int) -> TemporalGraph:
    """Static single-edge star realizing the 2*delta-1 ratio: one edge
    active at every step of a lifetime of 2*delta-1."""
    _check_family_delta(delta)
    T = 2 * delta - 1
    _check_size(2, T)
    return build_graph(2, T, [(0, 1, list(range(1, T + 1)))])

