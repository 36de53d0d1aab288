import os
import random

import pytest

from swtvc import (
    GeneratorConfig,
    build_graph,
    formats,
    generate_always_star,
    worst_case_acov_instance,
)


def open_descriptors():
    """The sorted descriptor numbers the process holds open, or None where
    neither ``/proc/self/fd`` nor ``/dev/fd`` lists them.  The listing's own
    descriptor is among them: the lowest free one, the same number in two
    listings of the same open descriptors, one more entry after a leak."""
    for where in ("/proc/self/fd", "/dev/fd"):
        try:
            return sorted(map(int, os.listdir(where)))
        except (OSError, ValueError):
            pass
    return None


@pytest.fixture(autouse=True)
def no_descriptor_left_open():
    """Fail a test that leaves a descriptor open.  Dev mode's ResourceWarning
    sees an io object that is never closed, not a raw descriptor."""
    before = open_descriptors()
    yield
    if before is not None:
        assert open_descriptors() == before, "the test left a descriptor open"


def take_3_bytes_per_write(monkeypatch):
    """Make each ``os.write`` the formats module makes write at most 3
    bytes; the list returned gets one entry per call."""
    calls = []
    write = os.write

    def write_3(fd, data):
        calls.append(fd)
        return write(fd, bytes(data[:3]))

    monkeypatch.setattr(formats.os, "write", write_3)
    return calls


@pytest.fixture
def example_graph():
    """4-vertex example: a=0, b=1, c=2, d=3; star snapshots except t=3."""
    return build_graph(
        4, 3, [(0, 3, [1, 2]), (0, 1, [1, 3]), (1, 3, [2]), (2, 3, [2, 3])]
    )


@pytest.fixture
def periodic_worst_case():
    """Delta=3 periodic family with two periods, center vertex 0."""
    return worst_case_acov_instance(3, 2, 3)


def random_star_graph(seed, n=8, T=8, d=3, underlying=False, empty_prob=0.0):
    cfg = GeneratorConfig(n=n, T=T, d=d, seed=seed, underlying_star=underlying,
                          empty_snapshot_prob=empty_prob)
    return generate_always_star(cfg)


def random_general_graph(seed, n=6, T=8, max_edges=6, app_prob=0.35):
    """Arbitrary (not necessarily star) temporal graph; may be empty."""
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    edge_list = []
    for u, v in pairs[: rng.randint(0, max_edges)]:
        labels = [t for t in range(1, T + 1) if rng.random() < app_prob]
        if labels:
            edge_list.append((u, v, labels))
    return build_graph(n, T, edge_list)
