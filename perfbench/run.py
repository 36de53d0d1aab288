"""swtvc benchmark: measure one workload in this process.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload star-wide-window --seed 1 \
        --seconds 25 --trace 0

The benchmark imports swtvc from ``src/`` of the checkout it lives in,
generates the workload's inputs from ``--seed``, sets them up several
times, then runs passes for ``--seconds`` seconds, checking every output.
It prints one line per metric and, as its last line, a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Times
are medians over the run's setups or passes, in seconds at a reference
machine speed: each timed call is scaled by how long a fixed speed probe
took around it (see ``workloads.Bench.factor``), so that the 1.3-1.7x slow
phases of a shared machine do not show as changes of the code.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones, and the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.json``.  Without ``src/swtvc``
it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = tuple(w["name"] for w in
                       json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])


def use_checkout_src():
    """Put the checkout's ``src`` first on the import path; exit 2 if the
    package source is not there, so no other installed copy is measured."""
    src = ROOT / "src"
    if not (src / "swtvc" / "__init__.py").is_file():
        print(f"error: no swtvc package source under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(HERE)]
    import swtvc

    if Path(swtvc.__file__).resolve().parent != src / "swtvc":
        print(f"error: imported swtvc from {swtvc.__file__}", file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: seconds-long inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    use_checkout_src()
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), args.size, OUT)
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, digest in result["fingerprints"].items():
        print(f"{args.workload} fingerprint {name} {digest}")
    print(f"{args.workload} setups {result['setups']} passes {result['passes']}")
    print(f"{args.workload} speed {result['speed']:.4f} (median of the run's probes,"
          f" reference speed = 1)")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace = {key: result[key] for key in ("fingerprints", "failures", "spans")}
        trace["span_fields"] = ["name", "start", "end", "parent", "pass_id"]
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(trace))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()
