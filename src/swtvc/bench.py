"""Benchmark harness: timed repeated runs, geometric means, improvement
percentages and CSV reports."""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .degree import d1_approx_solve, d_approx_s_solve, d_approx_solve
from .errors import (
    BadConfigError,
    BadDeltaError,
    EmptyInputError,
    NonPositiveSampleError,
    NotAStarError,
    ParseError,
    TvcError,
)
from .exact import exact_solve
from .formats import _read_text, _write_bytes
from .graph import TemporalGraph, _check_int, validate_cover
from .star import star_acov_solve, star_sc_solve

CSV_HEADER = ["graph", "algo", "delta", "cover_size", "valid", "time_ms_geomean", "reps"]

ALGORITHMS: Dict[str, Callable] = {
    "star-sc": star_sc_solve,
    "star-acov": star_acov_solve,
    "d-approx": d_approx_solve,
    "d-approx-s": d_approx_s_solve,
    "d-1-approx": d1_approx_solve,
    "exact": exact_solve,
}


@dataclass
class BenchRecord:
    """One (instance, algorithm, delta) benchmark cell."""

    instance: str
    algorithm: str
    delta: int
    cover_size: Optional[int]
    valid: Optional[bool]
    time_ms: Optional[float]
    repetitions: int
    status: str = "ok"  # "ok", "skipped_not_always_star" or "error:..."

    def csv_row(self):
        if self.status == "ok":
            valid_field = "true" if self.valid else "false"
            return [
                self.instance,
                self.algorithm,
                self.delta,
                self.cover_size,
                valid_field,
                f"{self.time_ms:.6f}",
                self.repetitions,
            ]
        return [self.instance, self.algorithm, self.delta, "", self.status, "",
                self.repetitions]


def _check_sample(s: float) -> None:
    """NonPositiveSampleError naming ``s`` unless it is a finite number
    above 0; NaN fails both comparisons, and a value that is not a number
    fails them as a TypeError."""
    try:
        if 0 < s < math.inf:
            return
    except TypeError:
        pass
    raise NonPositiveSampleError(f"sample {s!r} is not a finite number above 0")


def geometric_mean(samples: Sequence[float]) -> float:
    if not samples:
        raise EmptyInputError("geometric mean of an empty sample set")
    for s in samples:
        _check_sample(s)
    return math.exp(sum(math.log(s) for s in samples) / len(samples))


def improvement(sigma_a: float, sigma_b: float) -> float:
    """Percent improvement of algorithm A over baseline B: (B/A - 1) * 100."""
    _check_sample(sigma_a)
    _check_sample(sigma_b)
    return (sigma_b / sigma_a - 1.0) * 100.0


def run_benchmark(
    instances: Iterable[Tuple[str, TemporalGraph]],
    algorithms: Sequence[str],
    delta: int,
    repetitions: int = 3,
) -> List[BenchRecord]:
    """Run each algorithm on each instance: one untimed validation run, then
    ``repetitions`` timed solve-only runs aggregated by geometric mean.

    Cells fail independently: a solver that raises NotAStarError (the star
    algorithms on a non-star input) is recorded as skipped, any other
    TvcError as ``error:<Name>``, and the batch goes on.  The caller writes
    the records out, e.g. with ``write_csv``.  Before any cell runs, raises
    BadDeltaError when ``delta`` is not an integer of at least 1 (a Δ above
    one instance's T stays that instance's ``error:BadDeltaError`` rows),
    and BadConfigError when ``repetitions`` is not an integer of at least 1
    or an algorithm is not in ``ALGORITHMS``.
    """
    _check_int(delta, "delta", 1, BadDeltaError)
    _check_int(repetitions, "repetitions", 1)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise BadConfigError(f"unknown algorithms: {unknown}")

    records = []
    for name, g in instances:
        for algo in algorithms:
            solver = ALGORITHMS[algo]
            try:
                cover = solver(g, delta)  # warm-up, also the validated run
                witness = validate_cover(g, delta, cover)
                samples = []
                for _ in range(repetitions):
                    t0 = time.perf_counter()
                    solver(g, delta)
                    samples.append(max(time.perf_counter() - t0, 1e-9) * 1000.0)
                records.append(
                    BenchRecord(name, algo, delta, len(cover), witness is None,
                                geometric_mean(samples), repetitions)
                )
            except TvcError as exc:
                status = ("skipped_not_always_star" if isinstance(exc, NotAStarError)
                          else f"error:{type(exc).__name__}")
                records.append(
                    BenchRecord(name, algo, delta, None, None, None, repetitions,
                                status=status)
                )
    return records


def write_csv(records: Sequence[BenchRecord], path) -> None:
    """``CSV_HEADER`` and one row per record, in the csv module's default
    dialect (rows end in ``\r\n``), written as UTF-8 like ``read_csv``
    reads it.  The rows are rendered before the file is opened."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(CSV_HEADER)
    writer.writerows(rec.csv_row() for rec in records)
    # an instance path from argv under a non-UTF-8 locale holds surrogate
    # escapes, written back as the path's own bytes
    _write_bytes(path, text.getvalue().encode("utf-8", "surrogateescape"))


def read_csv(path) -> List[Tuple[int, dict]]:
    """Rows of a benchmark CSV, each with the 1-based line it ends on;
    ParseError when a ``CSV_HEADER`` column is missing or a line is not
    UTF-8 or not CSV the csv module accepts (e.g. an oversized field)."""
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    try:
        missing = [c for c in CSV_HEADER if c not in (reader.fieldnames or ())]
        if missing:
            raise ParseError(1, f"not a benchmark CSV, missing columns {missing}")
        return [(reader.line_num, row) for row in reader]
    except csv.Error as exc:
        # DictReader.line_num lags behind on a failed row; its reader's does not
        raise ParseError(reader.reader.line_num, f"bad CSV: {exc}") from None


def _number(row: dict, column: str, line: int) -> float:
    """A benchmark CSV field as a finite number; ParseError otherwise."""
    try:
        value = float(row[column])
    except (TypeError, ValueError):  # TypeError: the row has no such field
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(line, f"bad {column} {row[column]!r}")
    return value


def compare_csv(path, algo_a: str, algo_b: str):
    """Size and time improvement of A over baseline B from a benchmark CSV.

    Only rows with valid covers are compared, restricted to (graph, delta)
    cells present for both algorithms; objectives are averaged first, as in
    the reported experiment tables.  A valid row whose cover size or time is
    not a finite number raises ParseError with the row's line.
    """
    by_cell = {}
    for line, r in read_csv(path):
        if r["valid"] == "true":
            by_cell.setdefault((r["graph"], r["delta"]), {})[r["algo"]] = (
                _number(r, "cover_size", line), _number(r, "time_ms_geomean", line))
    sizes_a, sizes_b, times_a, times_b = [], [], [], []
    for cell in by_cell.values():
        if algo_a in cell and algo_b in cell:
            (size_a, time_a), (size_b, time_b) = cell[algo_a], cell[algo_b]
            sizes_a.append(size_a)
            sizes_b.append(size_b)
            times_a.append(time_a)
            times_b.append(time_b)
    if not sizes_a:
        raise EmptyInputError(f"no common valid cells for {algo_a} and {algo_b}")
    mean = lambda xs: sum(xs) / len(xs)
    size_impr = improvement(mean(sizes_a), mean(sizes_b))
    time_impr = improvement(mean(times_a), mean(times_b))
    return size_impr, time_impr
