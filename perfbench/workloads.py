"""The benchmark's workloads, passes and correctness checks.

Each workload is one closed loop: a single caller runs one pass after the
other, and each pass waits for the previous one.  A pass runs every solver
of the workload on every instance, validates every cover, cross-checks the
solvers against each other and validates one mutilated cover per
instance.  All inputs come from the workload seed; swtvc only sees the
generated instances.

Why these four (window size delta against snapshot degree d):

* ``star-wide-window``: always-star, delta >> d.  Work that scales with the
  window (star-acov's coverer rescans, demand enumeration, d-1-approx's
  ledger probes) dominates, so window optimisations show here.
* ``star-dense-narrow``: always-star, d >> delta.  Per-snapshot and
  per-edge work dominates; window optimisations should leave it unchanged.
  d-approx is left out: it is O(m*T), tens of seconds at this size.
* ``contacts-sparse``: a general graph ingested from a synthetic SNAP-style
  contact file over a year of hourly buckets, mostly empty.  Stresses
  the formats layer, ``build_graph`` over a long lifetime, per-step vs
  appearance-walking solvers and one CLI round trip.  The star solvers
  are not run: the graph is not always-star.
* ``exact-small``: a ladder of small always-star and general instances,
  from trivially decided to past the exact solver's node budget, with
  brute force as a cross-check on the tiniest rung.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from swtvc import (
    BudgetExceededError,
    GeneratorConfig,
    brute_force_solve,
    build_graph,
    convert_snap,
    d1_approx_solve,
    d_approx_s_solve,
    d_approx_solve,
    demands,
    exact_solve,
    generate_always_star,
    max_snapshot_degree,
    parse_cover,
    parse_native,
    star_acov_solve,
    star_sc_solve,
    validate_always_star,
    validate_cover,
    write_cover,
    write_native,
)
from swtvc.cli import cli_dispatch

from spans import Recorder, layer_times

SOLVERS = {
    "star-sc": ("star.star_sc_solve", star_sc_solve),
    "star-acov": ("star.star_acov_solve", star_acov_solve),
    "d-approx": ("degree.d_approx_solve", d_approx_solve),
    "d-approx-s": ("degree.d_approx_s_solve", d_approx_s_solve),
    "d-1-approx": ("degree.d1_approx_solve", d1_approx_solve),
}
STAR_ONLY = {"star-sc", "star-acov"}

# Metric names, units and workloads, as declared next to the benchmark.
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

# Exact solver node budget on exact-small; its larger rungs exhaust it.
EXACT_BUDGET = 20_000
# Setup runs at least SETUP_MIN_REPS times and goes on until SETUP_SECONDS
# have passed (at most SETUP_MAX_REPS times); setup_s sums the per-step
# medians over these repetitions.
SETUP_MIN_REPS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPS = 100
# Seconds one ``speed_probe`` takes at the reference speed: its fast-phase
# time on the machine of the first baseline (2-core Intel Xeon at 2.1 GHz,
# Python 3.11).  Times are reported in seconds at this speed (see
# ``Bench.factor``).
PROBE_REF_S = 0.0047
# A call's speed factor is taken from this many probes just before it and
# as many just after it.
PROBE_NEIGHBOURS = 2
# The machine's speed is probed at least this often, and after any longer
# call, between calls and outside their timings.
PROBE_EVERY_S = 0.5
# Unix time 2010-01-01, the start of the synthetic contact log.
CONTACTS_EPOCH = 1_262_304_000

# Workload sizes.  "full" is what the benchmark measures; "smoke" is a
# seconds-long size of the same shape for the benchmark's own tests.
PARAMS = {
    # The star workloads generate several independent instances: times
    # summed over them vary less from seed to seed than one instance's.
    "star-wide-window": {
        "full": {"instances": 3, "n": 1000, "T": 200, "d": 20, "delta": 64},
        "smoke": {"instances": 2, "n": 30, "T": 40, "d": 4, "delta": 8},
    },
    "star-dense-narrow": {
        "full": {"instances": 3, "n": 400, "T": 300, "d": 60, "delta": 3},
        "smoke": {"instances": 2, "n": 40, "T": 60, "d": 12, "delta": 3},
    },
    "contacts-sparse": {
        "full": {"nodes": 800, "pairs": 1500, "contacts": 6000, "days": 365,
                 "bucket": 3600, "delta": 24},
        "smoke": {"nodes": 30, "pairs": 40, "contacts": 200, "days": 10,
                  "bucket": 3600, "delta": 24},
    },
    "exact-small": {
        # (count, kind, generator params, delta, brute-force cross-check).
        # Every instance with T <= 16 is decided well within the budget and
        # none of the T = 24 ones is, so the decided share is the same for
        # every seed; rungs that sat on the budget made the pass time swing
        # by a fifth between seeds.
        "full": {"rungs": [
            (8, "star", {"n": 3, "T": 6, "d": 2}, 3, True),
            (8, "general", {"n": 4, "T": 6, "m": 2, "k": 2}, 3, True),
            (16, "star", {"n": 6, "T": 12, "d": 2}, 3, False),
            (16, "general", {"n": 5, "T": 16, "m": 3, "k": 3}, 3, False),
            (16, "star", {"n": 8, "T": 12, "d": 3}, 4, False),
            (16, "star", {"n": 6, "T": 16, "d": 2}, 3, False),
            (16, "general", {"n": 6, "T": 16, "m": 4, "k": 3}, 4, False),
            (48, "general", {"n": 7, "T": 24, "m": 8, "k": 8}, 3, False),
        ]},
        "smoke": {"rungs": [
            (2, "star", {"n": 3, "T": 6, "d": 2}, 3, True),
            (2, "general", {"n": 4, "T": 6, "m": 2, "k": 2}, 3, True),
            (2, "star", {"n": 6, "T": 12, "d": 2}, 3, False),
            (1, "general", {"n": 7, "T": 24, "m": 8, "k": 8}, 3, False),
        ]},
    },
}

WORKLOAD_SOLVERS = {
    "star-wide-window": ("star-sc", "star-acov", "d-approx", "d-approx-s", "d-1-approx"),
    "star-dense-narrow": ("star-sc", "star-acov", "d-approx-s", "d-1-approx"),
    "contacts-sparse": ("d-approx", "d-approx-s", "d-1-approx"),
    "exact-small": ("star-sc", "star-acov", "d-approx", "d-approx-s", "d-1-approx"),
}

# Calls made while setting up an instance; all others happen in passes.
SETUP_CALLS = (
    "generator.generate_always_star",
    "formats.convert_snap",
    "formats.write_native",
    "formats.parse_native",
    "graph.build_graph",
    "graph.validate_always_star",
    "graph.max_snapshot_degree",
)
PASS_CALLS = (
    "formats.write_cover",
    "formats.parse_cover",
    "graph.demands",
    "graph.validate_cover",
    "star.star_sc_solve",
    "star.star_acov_solve",
    "degree.d_approx_solve",
    "degree.d_approx_s_solve",
    "degree.d1_approx_solve",
    "exact.exact_solve",
    "exact.brute_force_solve",
    "cli.cli_dispatch.convert-snap",
    "cli.cli_dispatch.solve",
    "cli.cli_dispatch.validate",
)
LAYERS = ("generator", "formats", "graph", "star", "degree", "exact", "cli", "bench")

def time_metric(call: str) -> str:
    """Per-layer metric name of a call: ``star.star_sc_solve`` ->
    ``star.star_sc_solve_s``, ``cli.cli_dispatch.solve`` ->
    ``cli.cli_dispatch_s.solve``."""
    parts = call.split(".")
    parts[1] += "_s"
    return ".".join(parts)


FAILED = object()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cover_bytes(cover) -> bytes:
    return "".join(f"{v} {t}\n" for v, t in sorted(cover)).encode()


def witness_uncovered(g, delta, cover, witness) -> bool:
    """Independent re-check that ``witness`` is a demand the cover misses:
    its window lies in the lifetime, holds an appearance of the edge, and
    no endpoint of the edge is in the cover at any of those appearances."""
    start = witness.window_start
    if not (1 <= start <= g.T - delta + 1):
        return False
    edge = g.edges[witness.edge]
    inside = [t for t in edge.appearances if start <= t < start + delta]
    return bool(inside) and not any(
        (edge.u, t) in cover or (edge.v, t) in cover for t in inside
    )


def mutilate(g, delta, cover):
    """``cover`` made invalid at one demand; returns the cover and the
    window start of its first uncovered demand, or None where that start
    is not known in advance.

    The demand is picked nearest the middle window start, so that
    validation, which reports failures in (window start, edge) order, scans
    about half of the demands before it stops, the same share for every
    seed.  Preferably its edge appears only once in the window, at ``a``,
    and no window starting earlier holds ``a``: removing both endpoints at
    ``a`` then uncovers that window and none before it.  Otherwise every
    appearance covering the demand is removed, which may uncover an
    earlier window too.
    """
    mid = (g.T - delta + 2) // 2
    best = None
    for eid, e in enumerate(g.edges):
        apps = e.appearances
        for i, a in enumerate(apps):
            start = max(1, a - delta + 1)
            alone = ((i == 0 or apps[i - 1] < start)
                     and (i + 1 == len(apps) or apps[i + 1] >= start + delta))
            key = (not alone, abs(start - mid), start, eid)
            if best is None or key < best[0]:
                best = (key, e, start, alone)
    _, edge, start, alone = best
    mutilated = {(v, t) for v, t in cover
                 if not (v in (edge.u, edge.v) and start <= t < start + delta
                         and t in edge.appearances)}
    return mutilated, start if alone else None


def exact_within_budget(g, delta, budget):
    """Optimal cover, or None when the node budget runs out."""
    try:
        return exact_solve(g, delta, budget=budget)
    except BudgetExceededError:
        return None


def random_general_edges(rng, n, T, m, k):
    """``m`` distinct random pairs, each active at ``k`` random steps."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return [(u, v, sorted(rng.sample(range(1, T + 1), k))) for u, v in pairs[:m]]


def write_contacts(rng, path, nodes, pairs, contacts, days, **_):
    """Synthetic SNAP-style ``src dst unix_ts`` log over ``days`` days.

    Node popularity is Zipf-like and each pair's share of the fixed total of
    ``contacts`` is Pareto-distributed, so pair activity is heavy-tailed;
    a pair's contacts come in bursts.  Two contacts pin the first and the
    last second, so the lifetime is the same for every seed.
    """
    span = days * 86400
    cum, total = [], 0.0
    for i in range(nodes):
        total += 1.0 / (i + 1) ** 0.8
        cum.append(total)
    population = range(nodes)
    chosen = set()
    while len(chosen) < pairs:
        u, v = rng.choices(population, cum_weights=cum, k=2)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    chosen = sorted(chosen)
    weights = [min(200.0, rng.paretovariate(1.1)) for _ in chosen]
    scale = (contacts - pairs) / sum(weights)
    names = [f"n{rng.randrange(10**9)}" for _ in range(nodes)]
    lines = []
    for (u, v), w in zip(chosen, weights):
        k = 1 + int(w * scale)
        while k > 0:
            t = rng.randrange(span)
            for _ in range(min(k, 1 + int(rng.expovariate(0.2)))):
                t += int(rng.expovariate(1 / 1800))
                a, b = (u, v) if rng.random() < 0.5 else (v, u)
                lines.append((t % span, names[a], names[b]))
                k -= 1
    (u0, v0), (u1, v1) = chosen[0], chosen[-1]
    lines += [(0, names[u0], names[v0]), (span - 1, names[u1], names[v1])]
    lines.sort()
    Path(path).write_text(
        "".join(f"{a} {b} {CONTACTS_EPOCH + t}\n" for t, a, b in lines)
    )


def speed_probe():
    """A fixed piece of pure-Python work of the kinds swtvc spends its time
    on: integer arithmetic, tuples, set and dict inserts and lookups, and a
    sort.  Its duration measures how fast the machine runs right now."""
    seen, index, acc = set(), {}, 0
    for i in range(8000):
        key = (i * 7919 % 10007, i & 1023)
        seen.add(key)
        index[key] = i
        acc += i * i % 97
    for key in sorted(seen)[::7]:
        acc += index[key]
    return acc


@dataclass
class Unit:
    """One setup repetition or one pass: when it ran, its counts, and its
    reference-speed seconds in total and between steps."""

    id: str
    group: str  # "setup", "warmup", "pass" (untraced) or "traced"
    traced: bool = False
    start: float = 0.0
    wall: float = 0.0
    probe_s: float = 0.0
    seconds: float = 0.0
    between: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass
class Source:
    """How to ingest one instance: the swtvc call that produces it."""

    label: str
    delta: int
    call: str
    fn: object
    args: tuple
    kwargs: dict
    d: int = None  # snapshot degree bound promised by the generator
    brute: bool = False


@dataclass
class Instance:
    label: str
    g: object
    delta: int
    star: bool
    brute: bool
    native: bytes


def make_sources(workload, params, rng, workdir):
    """Seeded inputs of one workload (their synthesis is not timed)."""
    if workload.startswith("star-"):
        return [Source(f"i{i}", params["delta"], "generator.generate_always_star",
                       generate_always_star,
                       (GeneratorConfig(n=params["n"], T=params["T"], d=params["d"],
                                        seed=rng.randrange(2**31)),), {}, d=params["d"])
                for i in range(params["instances"])]
    if workload == "contacts-sparse":
        path = workdir / "contacts.txt"
        write_contacts(rng, path, **params)
        return [Source("instance", params["delta"], "formats.convert_snap",
                       convert_snap, (path,), {"bucket_seconds": params["bucket"]})]
    sources = []
    for rung, (count, kind, p, delta, brute) in enumerate(params["rungs"]):
        for i in range(count):
            label = f"r{rung}-{i}"
            if kind == "star":
                cfg = GeneratorConfig(n=p["n"], T=p["T"], d=p["d"],
                                      seed=rng.randrange(2**31))
                sources.append(Source(label, delta, "generator.generate_always_star",
                                      generate_always_star, (cfg,), {}, p["d"], brute))
            else:
                edges = random_general_edges(rng, p["n"], p["T"], p["m"], p["k"])
                sources.append(Source(label, delta, "graph.build_graph", build_graph,
                                      (p["n"], p["T"], edges), {}, None, brute))
    return sources


class Bench:
    """One benchmark run: the recorder, operation counts and step timings.

    A step is one call on one instance, keyed ``(label, call, tag)``.  While
    a setup repetition or a pass (a ``Unit``) runs, each step's (start,
    seconds) samples are kept; when it ends they are folded into one
    reference-speed time per step, appended to the step's series of its
    unit group.  Between calls the machine's speed is probed.
    """

    def __init__(self, workload, params, workdir):
        self.workload = workload
        self.params = params
        self.workdir = workdir
        self.rec = Recorder()
        self.attempted = 0
        self.failures = []
        self.label = ""
        self.unit = Unit("", "setup")
        self.samples = {}  # step -> [(start, seconds)] of the running unit
        self.series = {}  # group -> step -> reference-speed seconds per unit
        self.probe_starts = array("d")
        self.probe_seconds = array("d")
        self.last_probe = float("-inf")
        self.native_digests = {}
        self.cover_digests = {}

    def attempt(self, call, fn, *args, tag="", **kwargs):
        """One operation, recorded as a step sample; returns its result, or
        FAILED after recording an exception of any type, so that one bad
        cell never aborts the run."""
        self.attempted += 1
        if perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.unit.probe_s += self.probe()
        start = perf_counter()
        try:
            result, seconds = self.rec.call(call, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a bad cell must not abort the run
            self.failures.append(f"{self.label} {call}: {type(exc).__name__}: {exc}")
            return FAILED
        if seconds >= PROBE_EVERY_S:
            self.unit.probe_s += self.probe()
        self.samples.setdefault((self.label, call, tag), []).append((start, seconds))
        return result

    def probe(self):
        """Time one ``speed_probe``; returns its seconds."""
        start = perf_counter()
        speed_probe()
        seconds = perf_counter() - start
        self.probe_starts.append(start)
        self.probe_seconds.append(seconds)
        self.last_probe = start + seconds
        return seconds

    def factor(self, start, end):
        """Reference-speed seconds per measured second over [start, end]:
        the reference probe time over the mean of the probes taken just
        before and just after.

        On a shared machine the same code runs 1.3-1.7x slower in phases
        that come and go over seconds to minutes; a phase slows probe and
        step alike.  One probe varies by a fifth from the next, so a few on
        each side are averaged.
        """
        before = bisect_right(self.probe_starts, start)
        after = bisect_left(self.probe_starts, end)
        around = (self.probe_seconds[max(0, before - PROBE_NEIGHBOURS):before]
                  + self.probe_seconds[after:after + PROBE_NEIGHBOURS])
        return PROBE_REF_S / statistics.fmean(around) if around else 1.0

    def measure(self, unit, fn, *args):
        """Run ``fn(*args)`` as one unit, then fold its step samples.

        The cyclic garbage collector stays on, as it is for any user of
        swtvc; a full collection before each unit starts every unit from
        the same collector state.
        """
        self.unit, self.samples = unit, {}
        self.rec.tracing, self.rec.pass_id = unit.traced, unit.id
        gc.collect()
        unit.start = perf_counter()
        with self.rec.span("bench.setup" if unit.group == "setup" else "bench.pass"):
            result = fn(*args)
        unit.wall = perf_counter() - unit.start
        for _ in range(PROBE_NEIGHBOURS):
            self.probe()  # after the unit's last step
        series = self.series.setdefault(unit.group, {})
        raw = steps = 0.0
        for step, samples in self.samples.items():
            seconds = sum(s * self.factor(t, t + s) for t, s in samples)
            series.setdefault(step, []).append(seconds)
            raw += sum(s for _, s in samples)
            steps += seconds
        unit.between = ((unit.wall - unit.probe_s - raw)
                        * self.factor(unit.start, unit.start + unit.wall))
        unit.seconds = steps + unit.between
        self.samples = {}
        return result

    def check(self, label, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {label}")
        return ok

    # -- setup ------------------------------------------------------------

    def setup(self, sources):
        """Ingest every instance: produce it, write and parse it natively,
        rebuild it from its edge list and characterise it."""
        instances = []
        for src in sources:
            self.label = src.label
            g0 = self.attempt(src.call, src.fn, *src.args, **src.kwargs)
            if g0 is FAILED:
                continue
            path = self.workdir / f"{src.label}.tvc"
            if self.attempt("formats.write_native", write_native, g0, path) is FAILED:
                continue
            g = self.attempt("formats.parse_native", parse_native, path)
            if g is FAILED:
                continue
            edge_list = [(e.u, e.v, e.appearances) for e in g.edges]
            rebuilt = self.attempt("graph.build_graph", build_graph, g.n, g.T, edge_list)
            offender = self.attempt("graph.validate_always_star", validate_always_star, g)
            degree = self.attempt("graph.max_snapshot_degree", max_snapshot_degree, g)
            native = path.read_bytes()
            self.check(f"{src.label}: parse_native(write_native(g)) == g", g == g0)
            self.check(f"{src.label}: build_graph(edges(g)) == g", rebuilt == g)
            if src.d is not None:
                self.check(f"{src.label}: generator output is always-star", offender is None)
                self.check(f"{src.label}: snapshot degree <= d",
                           degree is not FAILED and degree <= src.d)
            known = self.native_digests.setdefault(src.label, digest(native))
            self.check(f"{src.label}: same seed, same instance", known == digest(native))
            instances.append(Instance(src.label, g, src.delta, offender is None,
                                      src.brute, native))
        return instances

    # -- one pass ---------------------------------------------------------

    def run_pass(self, instances, contacts_path):
        """Every solver, validation and cross-check once; returns the
        pass's counts and cover sizes (its times are in ``unit``)."""
        out: dict = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        for inst in instances:
            self.label = inst.label
            self.guarded(self.instance_pass, inst, add)
        if contacts_path is not None and instances:
            self.label = instances[0].label
            self.guarded(self.cli_round_trip, instances[0], contacts_path)
        return out

    def guarded(self, fn, *args):
        """Run one instance's share of a pass; an exception the checks
        themselves raise (say, on a malformed witness or a missing output
        file) is counted as a failure and the run goes on."""
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - a bad cell must not abort the run
            self.attempted += 1
            self.failures.append(f"{self.label}: {type(exc).__name__}: {exc}")

    def instance_pass(self, inst, add):
        g, delta = inst.g, inst.delta
        covers = {}
        for algo in WORKLOAD_SOLVERS[self.workload]:
            if algo in STAR_ONLY and not inst.star:
                continue  # skipped: not an always-star instance
            call, fn = SOLVERS[algo]
            cover = self.attempt(call, fn, g, delta)
            if cover is not FAILED:
                covers[algo] = cover
        if self.workload == "exact-small":
            cover = self.attempt("exact.exact_solve", exact_within_budget,
                                 g, delta, EXACT_BUDGET)
            if cover is not FAILED:
                add("exact.attempted", 1)
                if cover is None:
                    add("exact.budget_exceeded", 1)
                else:
                    add("exact.decided", 1)
                    covers["exact"] = cover
        if inst.brute:
            cover = self.attempt("exact.brute_force_solve", brute_force_solve, g, delta)
            if cover is not FAILED:
                covers["brute-force"] = cover

        for algo, cover in covers.items():
            witness = self.attempt("graph.validate_cover", validate_cover,
                                   g, delta, cover, tag=algo)
            if witness is not FAILED:
                self.check(f"{inst.label} {algo}: cover validates", witness is None)
            known = self.cover_digests.setdefault((inst.label, algo),
                                                  digest(cover_bytes(cover)))
            self.check(f"{inst.label} {algo}: same cover every pass",
                       known == digest(cover_bytes(cover)))
            add(f"cover_size.{algo}", len(cover))
        self.cross_check(inst.label, covers)
        if covers:
            add("cover_size.best", min(len(c) for c in covers.values()))

        ds = self.attempt("graph.demands", demands, g, delta)
        n_demands = 0 if ds is FAILED else len(ds)
        add("graph.demands", n_demands)
        if "star-acov" in covers:
            add("acov.slots", (g.T - delta + 1) * delta)
        if "d-approx" in covers:
            add("d_approx.steps", g.m * g.T)
        if "d-1-approx" in covers:
            add("d1.demands", n_demands)

        base = covers.get("d-approx-s")
        if base:
            self.invalid_cover(inst, base)
            self.cover_round_trip(inst, base)

    def cross_check(self, label, covers):
        if "d-approx" in covers and "d-approx-s" in covers:
            self.check(f"{label}: d-approx and d-approx-s return the same set",
                       covers["d-approx"] == covers["d-approx-s"])
        if "star-sc" in covers and "star-acov" in covers:
            self.check(f"{label}: star-acov is a subset of star-sc",
                       covers["star-acov"] <= covers["star-sc"])
        if "exact" in covers:
            best = len(covers["exact"])
            for algo, cover in covers.items():
                if algo not in ("exact", "brute-force"):
                    self.check(f"{label}: exact <= {algo}", best <= len(cover))
            if "brute-force" in covers:
                self.check(f"{label}: exact == brute force",
                           best == len(covers["brute-force"]))

    def invalid_cover(self, inst, base):
        """Validate a mutilated valid cover and re-check the reported
        witness directly."""
        cover, start = mutilate(inst.g, inst.delta, base)
        witness = self.attempt("graph.validate_cover", validate_cover,
                               inst.g, inst.delta, cover, tag="invalid")
        if witness is FAILED:
            return
        self.check(f"{inst.label}: witness {witness} is uncovered",
                   witness is not None
                   and witness_uncovered(inst.g, inst.delta, cover, witness))
        if start is not None:
            self.check(f"{inst.label}: witness {witness} is the first, at window {start}",
                       witness is not None and witness.window_start == start)

    def cover_round_trip(self, inst, cover):
        path = self.workdir / f"{inst.label}.cover"
        if self.attempt("formats.write_cover", write_cover, cover, path) is FAILED:
            return
        parsed = self.attempt("formats.parse_cover", parse_cover, path)
        self.check(f"{inst.label}: parse_cover(write_cover(c)) == c", parsed == cover)

    def cli_round_trip(self, inst, contacts_path):
        """convert-snap -> solve --validate -> validate through
        ``cli_dispatch``; each must exit 0 and agree with the direct calls."""
        native = self.workdir / "cli.tvc"
        cover = self.workdir / "cli.cover"
        direct = self.workdir / f"{inst.label}.cover"
        delta = str(inst.delta)
        steps = [
            ("convert-snap", ["--input", str(contacts_path), "--output", str(native),
                              "--bucket-seconds", str(self.params["bucket"])]),
            ("solve", ["--algo", "d-approx-s", "--delta", delta, "--input", str(native),
                       "--output", str(cover), "--validate"]),
            ("validate", ["--input", str(native), "--delta", delta, "--cover", str(cover)]),
        ]
        for command, args in steps:
            text = io.StringIO()
            with redirect_stdout(text), redirect_stderr(text):
                code = self.attempt(f"cli.cli_dispatch.{command}", cli_dispatch,
                                    [command, *args])
            if code is FAILED:
                return
            self.check(f"cli {command} exits 0 ({text.getvalue().strip()!r})", code == 0)
        self.check("cli convert-snap writes the setup instance",
                   native.read_bytes() == inst.native)
        self.check("cli solve writes the direct d-approx-s cover",
                   direct.exists() and cover.read_bytes() == direct.read_bytes())


def median0(values):
    return statistics.median(values) if values else 0.0


def step_times(bench, group):
    """Per step, the median of its reference-speed time over the units of
    one group."""
    return {step: statistics.median(v) for step, v in bench.series.get(group, {}).items()}


def total(steps, call=None, tag=None):
    """Summed step times, optionally of one call and one tag."""
    return sum(seconds for (_, c, t), seconds in steps.items()
               if (call is None or c == call) and (tag is None or t == tag))


def validate_valid_s(steps):
    """Per instance, the mean ``validate_cover`` time over its valid
    covers, summed over instances."""
    per_label: dict = {}
    for (label, call, tag), seconds in steps.items():
        if call == "graph.validate_cover" and tag != "invalid":
            per_label.setdefault(label, []).append(seconds)
    return sum(statistics.fmean(v) for v in per_label.values())


def combined_digest(items) -> str:
    return digest("".join(f"{label} {d}\n" for label, d in items).encode())


def run(workload, seed, seconds, tracing, size, outdir):
    """Set up and measure one workload; returns the result record."""
    params = PARAMS[workload][size]
    workdir = Path(outdir) / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, params, seed, seconds, tracing, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(workload, params, seed, seconds, tracing, workdir):
    bench = Bench(workload, params, workdir)
    sources = make_sources(workload, params, random.Random(f"{workload}:{seed}"), workdir)
    contacts = sources[0].args[0] if workload == "contacts-sparse" else None

    setups = []
    start = perf_counter()
    while len(setups) < SETUP_MIN_REPS or (
            len(setups) < SETUP_MAX_REPS and perf_counter() - start < SETUP_SECONDS):
        setups.append(Unit(f"setup-{len(setups)}", "setup", tracing))
        instances = bench.measure(setups[-1], bench.setup, sources)

    # The first pass is a warm-up, left out of every time.  Peak memory is
    # read right after it, so that it covers setup and one pass however
    # many passes fit into the run.  With tracing, the passes after it
    # alternate untraced/traced, and the tracing overhead is the median
    # difference of each traced pass and the untraced one just before it.
    # No pass starts that would end, at the last pass's pace, after the
    # run's time is up.
    start = perf_counter()
    passes = [Unit("pass-0", "warmup")]
    passes[0].counts = bench.measure(passes[0], bench.run_pass, instances, contacts)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(passes) < (3 if tracing else 2) or (
            perf_counter() - start + passes[-1].wall <= seconds):
        traced = tracing and len(passes) % 2 == 0
        unit = Unit(f"pass-{len(passes)}", "traced" if traced else "pass", traced)
        unit.counts = bench.measure(unit, bench.run_pass, instances, contacts)
        passes.append(unit)

    untraced = [p for p in passes if p.group == "pass"]
    traced = [p for p in passes if p.group == "traced"]
    if tracing:
        values = per_layer_metrics(bench, instances, setups, untraced, traced)
    else:
        values = end_to_end_metrics(bench, setups, untraced, peak_rss_mib)

    algos = sorted({algo for _, algo in bench.cover_digests})
    fingerprints = {"instances": combined_digest(sorted(bench.native_digests.items()))}
    for algo in algos:
        fingerprints[f"covers.{algo}"] = combined_digest(sorted(
            (label, d) for (label, a), d in bench.cover_digests.items() if a == algo))
    failed = len(bench.failures)
    declared = SPEC["per_layer" if tracing else "end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
        "passes": len(passes),
        "setups": len(setups),
        "speed": statistics.median(PROBE_REF_S / s for s in bench.probe_seconds),
        "fingerprints": fingerprints,
        "failures": bench.failures,
        "spans": bench.rec.spans,
    }


def pass_seconds(bench, group, passes):
    """A pass with every step at its median time, plus the median time the
    benchmark spent between steps."""
    steps = step_times(bench, group)
    return steps, total(steps) + median0([p.between for p in passes])


def count(units, key):
    return median0([u.counts.get(key, 0) for u in units])


def end_to_end_metrics(bench, setups, passes, peak_rss_mib):
    steps, pass_s = pass_seconds(bench, "pass", passes)
    return {
        "setup_s": total(step_times(bench, "setup")),
        "pass_s": pass_s,
        "validate_s": validate_valid_s(steps),
        "validate_invalid_s": total(steps, "graph.validate_cover", "invalid"),
        "peak_rss_mib": peak_rss_mib,
        "solve_s.d-approx-s": total(steps, SOLVERS["d-approx-s"][0]),
        "solve_s.d-1-approx": total(steps, SOLVERS["d-1-approx"][0]),
        "cover_size.best": count(passes, "cover_size.best"),
        "cover_size.d-1-approx": count(passes, "cover_size.d-1-approx"),
    }


def per_layer_metrics(bench, instances, setups, untraced, traced):
    setup_steps = step_times(bench, "setup")
    steps = step_times(bench, "traced")
    out = {time_metric(c): total(setup_steps, c) for c in SETUP_CALLS}
    out.update({time_metric(c): total(steps, c) for c in PASS_CALLS})

    def per_unit(call, key):
        n = count(traced, key)
        return total(steps, call) / n * 1e9 if n else 0.0

    # the direct calls the three CLI dispatches wrap: convert_snap +
    # write_native; parse_native + solver + write_cover + validate_cover;
    # parse_native + parse_cover + validate_cover
    label = instances[0].label if instances else ""
    cli_s = sum(out[time_metric(f"cli.cli_dispatch.{c}")]
                for c in ("convert-snap", "solve", "validate"))
    wrapped = (total(setup_steps, "formats.convert_snap")
               + total(setup_steps, "formats.write_native")
               + 2 * total(setup_steps, "formats.parse_native")
               + steps.get((label, "degree.d_approx_s_solve", ""), 0.0)
               + steps.get((label, "formats.write_cover", ""), 0.0)
               + steps.get((label, "formats.parse_cover", ""), 0.0)
               + 2 * steps.get((label, "graph.validate_cover", "d-approx-s"), 0.0))
    n_demands = count(traced, "graph.demands")
    out.update({
        "formats.native_bytes": sum(len(i.native) for i in instances),
        "graph.edges": sum(i.g.m for i in instances),
        "graph.appearances": sum(len(e.appearances) for i in instances for e in i.g.edges),
        "graph.lifetime": sum(i.g.T for i in instances),
        "graph.demands": n_demands,
        "graph.validate_ns_per_demand": (validate_valid_s(steps) / n_demands * 1e9
                                         if n_demands else 0.0),
        "star.acov_ns_per_window_slot": per_unit("star.star_acov_solve", "acov.slots"),
        "degree.d_approx_ns_per_edge_step": per_unit("degree.d_approx_solve", "d_approx.steps"),
        "degree.d1_ns_per_demand": per_unit("degree.d1_approx_solve", "d1.demands"),
        "exact.attempted": count(traced, "exact.attempted"),
        "exact.decided": count(traced, "exact.decided"),
        "exact.budget_exceeded": count(traced, "exact.budget_exceeded"),
        "cli.overhead_s": cli_s - wrapped if cli_s else 0.0,
        "bench.ops_attempted": bench.attempted,
        "bench.ops_failed": len(bench.failures),
        "bench.failed_frac": len(bench.failures) / bench.attempted,
        "bench.passes": len(untraced) + len(traced),
        "bench.trace_overhead_s": median0([t.seconds - u.seconds
                                           for u, t in zip(untraced, traced)]),
    })
    # per layer: one setup plus one traced pass, each the median over its
    # units, at the reference speed
    spans = bench.rec.spans

    def layer_medians(units, col):
        per_unit_times = []
        for u in units:
            scale = bench.factor(u.start, u.start + u.wall)
            per_unit_times.append({k: v * scale for k, v in layer_times(spans, u.id)[col].items()})
        return {lay: median0([t.get(lay, 0.0) for t in per_unit_times]) for lay in LAYERS}

    for kind, col in (("busy_s", 0), ("self_s", 1)):
        in_setup, in_pass = layer_medians(setups, col), layer_medians(traced, col)
        for lay in LAYERS:
            out[f"{lay}.{kind}"] = in_setup[lay] + in_pass[lay]
    return out
