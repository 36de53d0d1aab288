"""Tests of the benchmark itself, on the seconds-long smoke size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.use_checkout_src()

import workloads  # noqa: E402
from spans import Recorder, layer_times  # noqa: E402
from swtvc import Demand, build_graph, validate_cover  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# SHA-256 fingerprints for seed 1: instances and covers at smoke size, and
# the full-size instances.  A change to generator, format or solver output
# changes these.
SMOKE_FINGERPRINTS = {
    "star-wide-window": {
        "covers.d-1-approx":
            "96d6a48ba618b3d407d6358cacac0716d59b102ccd250e9b0f994c95741c156c",
        "covers.d-approx":
            "7aa409c01f860f93ef373cd7c99fbb9b1cc88b1ad4fd1f64df29fc1fe9c9e307",
        "covers.d-approx-s":
            "7aa409c01f860f93ef373cd7c99fbb9b1cc88b1ad4fd1f64df29fc1fe9c9e307",
        "covers.star-acov":
            "a25b80c513a0c02e40d72e72bd85d6c94f0e07622758c4a4477377370e0fcc48",
        "covers.star-sc":
            "151bda6870140df54beb039d96125d814bf9d915ecb37982fd2f9a841b4c6703",
        "instances":
            "4164106af10c7e7afa0846631bb6d2c15e25a8c6fca74ae98674c04c6c32bcc3",
    },
    "star-dense-narrow": {
        "covers.d-1-approx":
            "ae8f020a260cad7087d3d5041ba3ee75ec146f44fc5a936ce2f43b037e0eb93b",
        "covers.d-approx-s":
            "92f8cdb233d2a9f2b59737929de9b19d75b64c9eacfa4ce53836be6276a3e514",
        "covers.star-acov":
            "3a0c31d7b196136ff4bcb2b2a22f4a94076b9de55ba61bb74e7ab6749300f30c",
        "covers.star-sc":
            "2d09ed72320e192eb2e3a5e036fe7181edf08b2521a2224fe0e19977d7f3e3fa",
        "instances":
            "b4149a0756ec2f9222c71d658abc29355ad5e35430c772607cd82017cfd28768",
    },
    "contacts-sparse": {
        "instances":
            "3c2a5e2d652885e595c9bbdf194afee78db4128ec9b442fb3d970f8062fea353",
        "covers.d-1-approx":
            "be2e89d99bc1119b7f782ce83aa31e56582c3aa9574bbe1d0f9a8964d7424e07",
        "covers.d-approx":
            "ad11938203e1eae29ab2c4571231fd1b45f90c052b1707c3c8bbbe7c1e489464",
        "covers.d-approx-s":
            "ad11938203e1eae29ab2c4571231fd1b45f90c052b1707c3c8bbbe7c1e489464",
    },
    "exact-small": {
        "instances":
            "9ab9fff4c0caf2b2e43b432aa22900de6f80a1cb10dc1dcdaacb710c4bdd230d",
        "covers.brute-force":
            "d17ab88a928a165ec22632f05caff5dadbcae6b3c94792ae9b65d0ca35af3693",
        "covers.d-1-approx":
            "f4473502e88d28a44ea276c14f92926d9814b425613254442f2dca6bc1d10bba",
        "covers.d-approx":
            "898620a0d76a400fbd3d21218a53f404233f999e9028aa3a0cd1a894f8cd3636",
        "covers.d-approx-s":
            "898620a0d76a400fbd3d21218a53f404233f999e9028aa3a0cd1a894f8cd3636",
        "covers.exact":
            "8cc9a5fa13c607aad3ed5e08a600ffec5df97a15553f1ab815d87921eb65ecf8",
        "covers.star-acov":
            "891b95e6439d8ef9b0dbc2da8c6d91ffd5694366275d87ff5d94d50beb92b779",
        "covers.star-sc":
            "cb930732f69ed7145db1fd0f8cebbc6fab4544e71e120a9c1b66dbb185d55faa",
    },
}
FULL_INSTANCE_FINGERPRINTS = {
    "star-wide-window":
        "b9b928ed5c69d2f7ce6c86e47802981762383f2a5f8ac1e3c7e6cbc6f60f1d22",
    "star-dense-narrow":
        "60df80902ba63970ad0363a55829cd29284b792b041ecb5ea03876dbabce3ef0",
    "contacts-sparse":
        "732e7f2d9bf99ed58b34d431a98cd35543cdcab51c80f17b7585c4ec34ad5711",
    "exact-small":
        "e52ab654811641d0c28911586b76bdd2139a77968380970eec3d87f027af7983",
}


def bench_run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(run.WORKLOAD_NAMES) == set(workloads.PARAMS) == set(workloads.WORKLOAD_SOLVERS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench_run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        trace_file = ROOT / ".perfbench_out" / f"trace-{workload}-seed1.json"
        spans = json.loads(trace_file.read_text())["spans"]
        assert any(name == "bench.pass" for name, *_ in spans)


def test_exact_small_decides_some_but_not_all():
    out = workloads.run("exact-small", 1, 0.0, True, "smoke", ROOT / ".perfbench_out")
    metrics = {k: m["value"] for k, m in out["metrics"].items()}
    assert 0 < metrics["exact.decided"] < metrics["exact.attempted"]
    assert metrics["exact.brute_force_solve_s"] > 0
    for lay in workloads.LAYERS:
        assert metrics[f"{lay}.self_s"] <= metrics[f"{lay}.busy_s"] + 1e-12


def test_fingerprints_are_pinned():
    for workload in run.WORKLOAD_NAMES:
        out = workloads.run(workload, 1, 0.0, False, "smoke", ROOT / ".perfbench_out")
        assert out["correct"], out["failures"]
        assert out["fingerprints"] == SMOKE_FINGERPRINTS[workload], workload


def test_full_size_instances_are_pinned(tmp_path):
    for workload in run.WORKLOAD_NAMES:
        params = workloads.PARAMS[workload]["full"]
        bench = workloads.Bench(workload, params, tmp_path)
        rng = workloads.random.Random(f"{workload}:1")
        bench.setup(workloads.make_sources(workload, params, rng, tmp_path))
        assert not bench.failures
        got = workloads.combined_digest(sorted(bench.native_digests.items()))
        assert got == FULL_INSTANCE_FINGERPRINTS[workload], workload


def test_witness_recheck():
    g = build_graph(3, 4, [(0, 1, [1, 2]), (1, 2, [4])])
    cover = {(1, 2)}
    # window [3, 4] holds edge 1's appearance at 4, and nothing covers it
    assert workloads.witness_uncovered(g, 2, cover, Demand(edge=1, window_start=3))
    # edge 0 is covered by (1, 2) in windows starting at 1 and 2
    assert not workloads.witness_uncovered(g, 2, cover, Demand(edge=0, window_start=1))
    # window [3, 4] holds no appearance of edge 0: not a demand
    assert not workloads.witness_uncovered(g, 2, cover, Demand(edge=0, window_start=3))
    # window past the lifetime
    assert not workloads.witness_uncovered(g, 2, cover, Demand(edge=1, window_start=4))


def test_mutilated_cover_fails_first_at_the_chosen_window():
    g = build_graph(3, 8, [(0, 1, [2, 6]), (1, 2, [5])])
    cover = {(1, 2), (1, 5), (1, 6)}
    assert validate_cover(g, 3, cover) is None
    # edge 1 appears only at 5; the window starting at 3 ends there and
    # is the middle one of the window starts 1..6
    mutilated, start = workloads.mutilate(g, 3, cover)
    assert (mutilated, start) == ({(1, 2), (1, 6)}, 3)
    assert validate_cover(g, 3, mutilated) == Demand(edge=1, window_start=3)


def test_exceptions_are_counted_not_raised(tmp_path):
    bench = workloads.Bench("exact-small", {}, tmp_path)
    bench.label = "r0-0"

    def deep():
        raise RecursionError("maximum recursion depth exceeded")

    assert bench.attempt("exact.exact_solve", deep) is workloads.FAILED
    assert bench.attempt("graph.demands", lambda: 7) == 7
    assert bench.attempted == 2
    assert bench.failures == ["r0-0 exact.exact_solve: RecursionError: "
                              "maximum recursion depth exceeded"]


def test_layer_times_subtract_child_spans():
    rec = Recorder()
    rec.tracing = True
    rec.pass_id = "p"
    with rec.span("bench.pass"):
        rec.call("graph.demands", sum, range(1000))
        rec.call("graph.validate_cover", sum, range(1000))
    (name, start, end, parent, _), *children = rec.spans
    busy, own = layer_times(rec.spans, "p")
    assert busy["bench"] == pytest.approx(end - start)
    assert busy["graph"] == pytest.approx(sum(e - s for _, s, e, _, _ in children))
    assert own["bench"] == pytest.approx(busy["bench"] - busy["graph"])
    assert all(p == 0 for _, _, _, p, _ in children)


def test_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("exact-small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
