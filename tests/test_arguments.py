"""Every integer argument of the public entry points, and the generator's
probabilities, rejects a value of the wrong type and a value below its
minimum with the documented TvcError subclass, naming the value."""

import re

import pytest

from swtvc import (
    BadConfigError,
    BadDeltaError,
    GeneratorConfig,
    OutOfRangeLabelError,
    OutOfRangeVertexError,
    build_graph,
    chosen_endpoint,
    convert_snap,
    edges_at,
    exact_solve,
    generate_always_star,
    run_benchmark,
    single_edge_exact,
    star_center_at,
    worst_case_acov_instance,
    worst_case_sc_instance,
)

NOT_INTEGERS = [2.5, 2.0, "3", None]

G = build_graph(3, 4, [(0, 1, [1, 2]), (1, 2, [3, 4])])


def generate(**fields):
    config = dict(n=5, T=4, d=2, seed=0)
    config.update(fields)
    return generate_always_star(GeneratorConfig(**config))


def convert(path, bucket_seconds):
    path.write_text("a b 0\nb c 3600\n")
    return convert_snap(path, bucket_seconds=bucket_seconds)


# argument, call with the value in its place, error for a value that is not
# an integer, a value below the minimum and its error, values not tried
CASES = [
    ("GeneratorConfig.n", lambda v, p: generate(n=v), BadConfigError, 0, BadConfigError, ()),
    ("GeneratorConfig.T", lambda v, p: generate(T=v), BadConfigError, -1, BadConfigError, ()),
    ("GeneratorConfig.d", lambda v, p: generate(d=v), BadConfigError, -1, BadConfigError, ()),
    ("GeneratorConfig.seed", lambda v, p: generate(seed=v), BadConfigError, -1,
     BadConfigError, ()),
    # probabilities: 2.5 and 2.0 lie above [0, 1], the others are not numbers
    ("GeneratorConfig.empty_snapshot_prob", lambda v, p: generate(empty_snapshot_prob=v),
     BadConfigError, -0.5, BadConfigError, ()),
    ("GeneratorConfig.persistence", lambda v, p: generate(persistence=v),
     BadConfigError, -0.5, BadConfigError, ()),
    ("GeneratorConfig.center_switch_prob", lambda v, p: generate(center_switch_prob=v),
     BadConfigError, -0.5, BadConfigError, ()),
    ("worst_case_acov_instance.delta", lambda v, p: worst_case_acov_instance(v, 2),
     BadDeltaError, 1, BadConfigError, ()),
    ("worst_case_acov_instance.reps", lambda v, p: worst_case_acov_instance(3, v),
     BadConfigError, 0, BadConfigError, ()),
    # None is the documented default, delta - 1
    ("worst_case_acov_instance.leaves", lambda v, p: worst_case_acov_instance(3, 2, v),
     BadConfigError, 1, BadConfigError, (None,)),
    ("worst_case_sc_instance.delta", lambda v, p: worst_case_sc_instance(v),
     BadDeltaError, 1, BadConfigError, ()),
    ("exact_solve.budget", lambda v, p: exact_solve(G, 2, budget=v),
     BadConfigError, 0, BadConfigError, ()),
    ("run_benchmark.repetitions",
     lambda v, p: run_benchmark([("g", G)], ["d-approx"], 2, repetitions=v),
     BadConfigError, 0, BadConfigError, ()),
    ("convert_snap.bucket_seconds", lambda v, p: convert(p, v),
     BadConfigError, 0, BadConfigError, ()),
    ("single_edge_exact.T", lambda v, p: single_edge_exact([1], v, 1),
     OutOfRangeLabelError, -1, OutOfRangeLabelError, ()),
    ("build_graph.n", lambda v, p: build_graph(v, 3, []),
     OutOfRangeLabelError, -1, OutOfRangeLabelError, ()),
    ("build_graph.T", lambda v, p: build_graph(2, v, []),
     OutOfRangeLabelError, -1, OutOfRangeLabelError, ()),
    ("edges_at.t", lambda v, p: edges_at(G, v), OutOfRangeLabelError, 0,
     OutOfRangeLabelError, ()),
    ("star_center_at.t", lambda v, p: star_center_at(G, v), OutOfRangeLabelError, 0,
     OutOfRangeLabelError, ()),
    ("chosen_endpoint.eid", lambda v, p: chosen_endpoint(G, v), OutOfRangeVertexError, -1,
     OutOfRangeVertexError, ()),
]


@pytest.mark.parametrize(
    "call, error, value",
    [pytest.param(call, error, value, id=f"{name}={value!r}")
     for name, call, error, _, _, skip in CASES
     for value in NOT_INTEGERS if value not in skip])
def test_not_an_integer(call, error, value, tmp_path):
    with pytest.raises(error, match=re.escape(repr(value))):
        call(value, tmp_path / "contacts.txt")


@pytest.mark.parametrize(
    "call, below, error",
    [pytest.param(call, below, error, id=f"{name}={below!r}")
     for name, call, _, below, error, _ in CASES])
def test_below_the_minimum(call, below, error, tmp_path):
    with pytest.raises(error, match=re.escape(repr(below))):
        call(below, tmp_path / "contacts.txt")


def test_chosen_endpoint_past_the_last_edge():
    with pytest.raises(OutOfRangeVertexError, match=re.escape(f"edge id {G.m} outside")):
        chosen_endpoint(G, G.m)
