import csv
import hashlib
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swtvc import (
    ALGORITHMS,
    BadConfigError,
    BadDeltaError,
    EmptyInputError,
    NonPositiveSampleError,
    ParseError,
    TvcError,
    build_graph,
    geometric_mean,
    improvement,
    run_benchmark,
    worst_case_acov_instance,
    worst_case_sc_instance,
    write_csv,
    write_native,
    write_cover,
)
from swtvc import formats
from swtvc.bench import CSV_HEADER, compare_csv
from swtvc.cli import cli_dispatch

from conftest import random_star_graph, take_3_bytes_per_write


class TestMetrics:
    def test_geometric_mean(self):
        assert geometric_mean([2, 4, 8]) == pytest.approx(4.0)
        assert geometric_mean([5, 5, 5]) == pytest.approx(5.0)
        assert geometric_mean([1, 100]) == pytest.approx(10.0)

    def test_geometric_mean_errors(self):
        with pytest.raises(EmptyInputError):
            geometric_mean([])
        with pytest.raises(NonPositiveSampleError):
            geometric_mean([1.0, 0.0])
        for bad in (math.nan, math.inf, -math.inf, "2", None):
            with pytest.raises(NonPositiveSampleError, match=re.escape(repr(bad))):
                geometric_mean([bad, 1.0])

    def test_improvement(self):
        assert improvement(100, 150) == pytest.approx(50.0)
        assert improvement(7, 7) == pytest.approx(0.0)
        assert improvement(2450, 3441) == pytest.approx(40.45, abs=0.1)

    def test_improvement_errors(self):
        with pytest.raises(NonPositiveSampleError):
            improvement(0, 10)
        for bad in (math.nan, math.inf, -math.inf, "2", None):
            with pytest.raises(NonPositiveSampleError, match=re.escape(repr(bad))):
                improvement(bad, 1.0)
            with pytest.raises(NonPositiveSampleError, match=re.escape(repr(bad))):
                improvement(1.0, bad)


class TestRunBenchmark:
    def test_reference_cells(self, tmp_path, periodic_worst_case):
        out = tmp_path / "r.csv"
        records = run_benchmark(
            [("periodic", periodic_worst_case)], ["star-acov", "exact"], 3,
            repetitions=3)
        write_csv(records, out)
        sizes = {r.algorithm: r.cover_size for r in records}
        assert sizes == {"star-acov": 4, "exact": 2}
        assert all(r.valid for r in records)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_HEADER
        assert len(rows) == 3

    def test_star_algorithms_skipped_on_general_input(self, example_graph):
        records = run_benchmark([("ex", example_graph)], ["star-sc", "d-approx"], 2,
                                repetitions=1)
        by_algo = {r.algorithm: r for r in records}
        assert by_algo["star-sc"].status == "skipped_not_always_star"
        assert by_algo["d-approx"].status == "ok"
        assert by_algo["d-approx"].valid

    def test_empty_instance_list(self, tmp_path):
        out = tmp_path / "empty.csv"
        records = run_benchmark([], ["d-approx"], 2)
        write_csv(records, out)
        assert records == []
        assert out.read_text().strip() == ",".join(CSV_HEADER)

    def test_cell_errors_do_not_abort(self, example_graph):
        # delta larger than the lifetime fails per cell, not the batch
        records = run_benchmark([("ex", example_graph)], ["d-approx"], 9,
                                repetitions=1)
        assert records[0].status == "error:BadDeltaError"

    def test_star_algorithms_on_general_input_with_bad_delta(self, example_graph):
        # the solvers check delta before the star precondition, so the
        # star cells fail like every other algorithm's
        algos = ["star-sc", "star-acov", "d-approx", "exact"]
        records = run_benchmark([("ex", example_graph)], algos, 9, repetitions=1)
        assert [r.status for r in records] == ["error:BadDeltaError"] * 4

    def test_bad_delta_fails_before_any_cell(self, example_graph, monkeypatch):
        def fail(g, delta):
            raise AssertionError("a cell ran")

        monkeypatch.setitem(ALGORITHMS, "d-approx", fail)
        for delta in (0, -3, 2.5, 2.0, "3", None):
            with pytest.raises(BadDeltaError, match=re.escape(repr(delta))):
                run_benchmark([("ex", example_graph)], ["d-approx"], delta)

    def test_unknown_algorithm(self, example_graph):
        with pytest.raises(BadConfigError, match="no-such-algo"):
            run_benchmark([("ex", example_graph)], ["d-approx", "no-such-algo"], 2)

    def test_bad_repetitions(self, example_graph):
        for reps in (0, -1):
            with pytest.raises(BadConfigError, match="repetitions"):
                run_benchmark([("ex", example_graph)], ["d-approx"], 2,
                              repetitions=reps)

    def test_compare_csv_without_bench_columns(self, tmp_path):
        for text in ("a,b\n1,2\n", "", ",".join(CSV_HEADER[:-1]) + "\n"):
            out = tmp_path / "other.csv"
            out.write_text(text)
            with pytest.raises(ParseError):
                compare_csv(out, "star-acov", "star-sc")

    def test_compare_csv_bad_number_names_its_line(self, tmp_path):
        out = tmp_path / "cmp.csv"
        write_csv(run_benchmark([("g", random_star_graph(2, n=16, T=16, d=4))],
                                ["star-acov", "star-sc"], 3, repetitions=1), out)
        header, row_a, row_b = out.read_text().splitlines()
        for column, bad in (("cover_size", "x"), ("time_ms_geomean", "nan"),
                            ("time_ms_geomean", "inf"), ("cover_size", "")):
            fields = row_b.split(",")
            fields[CSV_HEADER.index(column)] = bad
            out.write_text("\n".join([header, row_a, ",".join(fields)]) + "\n")
            with pytest.raises(ParseError, match=f"line 3: bad {column}") as err:
                compare_csv(out, "star-acov", "star-sc")
            assert err.value.line == 3
        # a valid row cut short before its time column
        out.write_text("\n".join([header, row_a, row_b.rsplit(",", 2)[0]]) + "\n")
        with pytest.raises(ParseError, match="line 3: bad time_ms_geomean None"):
            compare_csv(out, "star-acov", "star-sc")

    def test_compare_csv(self, tmp_path):
        g = random_star_graph(2, n=16, T=16, d=4)
        out = tmp_path / "cmp.csv"
        write_csv(run_benchmark([("g", g)], ["star-acov", "star-sc"], 3), out)
        size_impr, time_impr = compare_csv(out, "star-acov", "star-sc")
        assert size_impr >= 0.0
        assert isinstance(time_impr, float)


_HEADER = (",".join(CSV_HEADER) + "\n").encode()
_ROW = b"g,star-sc,3,4,true,1.0,1\n"

#: (what is wrong, its 1-based line) -> benchmark CSV bytes compare rejects
BAD_CSVS = {
    ("non-UTF-8 byte", 3): _HEADER + _ROW + b"g,star-acov,3,\xff,true,1.0,1\n",
    ("field over the csv module's limit", 3):
        _HEADER + _ROW + b'g,star-acov,3,"' + b"9" * 131073 + b'",true,1.0,1\n',
}


# raw bytes, and byte strings built from tokens that come near a benchmark CSV
_csv_tokens = st.sampled_from([_HEADER, _ROW, b"star-acov", b"star-sc", b"g", b"3",
                               b"0", b"-1", b"1e999", b"nan", b"true", b",", b'"',
                               b"\n", b"\r", b"\x00", b"\xc3", b"\xff"])


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | st.lists(_csv_tokens, max_size=40).map(b"".join))
def test_compare_csv_accepts_or_raises_tvc_error_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any_bytes.csv"
    path.write_bytes(data)
    try:
        compare_csv(path, "star-acov", "star-sc")
    except TvcError:
        pass


def run_entry_point(argv, cwd, stdout=subprocess.PIPE, **env):
    """``python -m swtvc.cli argv`` in ``cwd``, as a shell runs it; stdout
    goes to a pipe unless another file is given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "swtvc.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60)


class TestCli:
    def test_generate_solve_validate_round(self, tmp_path):
        tg = tmp_path / "inst.tg"
        cov = tmp_path / "inst.cov"
        assert cli_dispatch(["generate", "--family", "worst-acov", "--delta", "3",
                             "--reps", "2", "--leaves", "3",
                             "--output", str(tg)]) == 0
        assert cli_dispatch(["solve", "--algo", "star-acov", "--delta", "3",
                             "--input", str(tg), "--output", str(cov),
                             "--validate"]) == 0
        assert cli_dispatch(["validate", "--input", str(tg), "--delta", "3",
                             "--cover", str(cov)]) == 0

    def test_solve_cover_size(self, tmp_path, capsys, periodic_worst_case):
        tg = tmp_path / "p.tg"
        write_native(periodic_worst_case, tg)
        assert cli_dispatch(["solve", "--algo", "star-acov", "--delta", "3",
                             "--input", str(tg)]) == 0
        assert "cover size 4" in capsys.readouterr().out

    def test_bad_delta_is_usage_error(self, tmp_path, periodic_worst_case):
        tg = tmp_path / "p.tg"
        write_native(periodic_worst_case, tg)
        assert cli_dispatch(["solve", "--algo", "star-sc", "--delta", "0",
                             "--input", str(tg)]) == 2

    def test_bench_delta_zero_is_usage_error(self, tmp_path, capsys, periodic_worst_case):
        tg = tmp_path / "p.tg"
        out = tmp_path / "b.csv"
        write_native(periodic_worst_case, tg)
        assert cli_dispatch(["bench", "--inputs", str(tg), "--algos", "d-approx",
                             "--delta", "0", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: delta must be at least 1, got 0")
        assert "run 'swtvc bench --help' for usage" in err
        assert not out.exists()

    def test_exact_deep_out_of_budget_exits_2(self, tmp_path, capsys):
        # OPT = 1200 picks, deeper than the recursion limit
        tg = tmp_path / "deep.tg"
        write_native(worst_case_acov_instance(3, 1200), tg)
        assert cli_dispatch(["solve", "--algo", "exact", "--delta", "3",
                             "--budget", "200", "--input", str(tg)]) == 2
        assert "node budget 200 exhausted" in capsys.readouterr().err

    def test_huge_header_exits_2(self, tmp_path, capsys):
        tg = tmp_path / "huge.tg"
        tg.write_text("1000000000000 0 1\n")
        assert cli_dispatch(["solve", "--algo", "star-acov", "--delta", "1",
                             "--input", str(tg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_argument_values_print_usage_hint(self, tmp_path, capsys,
                                                  periodic_worst_case):
        tg = tmp_path / "p.tg"
        write_native(periodic_worst_case, tg)
        raw = tmp_path / "raw.txt"
        raw.write_text("1 2 3600\n")
        for argv in (["solve", "--algo", "star-sc", "--delta", "0", "--input", str(tg)],
                     ["solve", "--algo", "exact", "--delta", "3", "--budget", "-5",
                      "--input", str(tg)],
                     ["solve", "--algo", "star-sc", "--delta", "3", "--budget", "5",
                      "--input", str(tg)],
                     ["generate", "--n", "1", "--output", str(tmp_path / "g.tg")],
                     ["bench", "--inputs", str(tg), "--algos", "d-approx", "--delta",
                      "3", "--reps", "0", "--output", str(tmp_path / "b.csv")],
                     ["convert-snap", "--input", str(raw), "--bucket-seconds", "0",
                      "--output", str(tmp_path / "c.tg")]):
            assert cli_dispatch(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert f"run 'swtvc {argv[0]} --help' for usage" in err

    def test_input_and_solver_errors_print_no_usage_hint(self, tmp_path, capsys):
        bad = tmp_path / "bad.tg"
        bad.write_text("not a header\n")
        huge = tmp_path / "huge.tg"
        huge.write_text("1000000000000 0 1\n")
        matching = tmp_path / "matching.tg"
        write_native(build_graph(4, 3, [(0, 1, [1]), (2, 3, [1])]), matching)
        deep = tmp_path / "deep.tg"
        write_native(worst_case_acov_instance(3, 20), deep)
        # ParseError, TooLargeError, NotAStarError, BudgetExceededError
        for algo, path, extra in (("star-acov", bad, []), ("star-acov", huge, []),
                                  ("star-acov", matching, []),
                                  ("exact", deep, ["--budget", "5"])):
            assert cli_dispatch(["solve", "--algo", algo, "--delta", "2",
                                 "--input", str(path), *extra]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "--help" not in err

    def test_unknown_subcommand_exits_2(self):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_solver_error_exits_2(self, tmp_path):
        # two disjoint edges at one step: star-acov raises NotAStarError
        tg = tmp_path / "matching.tg"
        write_native(build_graph(4, 3, [(0, 1, [1]), (2, 3, [1])]), tg)
        assert cli_dispatch(["solve", "--algo", "star-acov", "--delta", "2",
                             "--input", str(tg)]) == 2

    def test_invalid_cover_exits_1(self, tmp_path, example_graph, capsys):
        tg = tmp_path / "ex.tg"
        cov = tmp_path / "bad.cov"
        write_native(example_graph, tg)
        write_cover({(3, 2)}, cov)
        assert cli_dispatch(["validate", "--input", str(tg), "--delta", "2",
                             "--cover", str(cov)]) == 1
        out = capsys.readouterr().out
        assert "(0,1)" in out and "window_start=1" in out

    def test_solve_and_validate_report_invalid_alike(self, tmp_path, example_graph,
                                                     capsys, monkeypatch):
        tg = tmp_path / "ex.tg"
        cov = tmp_path / "bad.cov"
        write_native(example_graph, tg)
        write_cover({(3, 2)}, cov)
        assert cli_dispatch(["validate", "--input", str(tg), "--delta", "2",
                             "--cover", str(cov)]) == 1
        validate_line = capsys.readouterr().out.splitlines()[-1]
        monkeypatch.setitem(ALGORITHMS, "d-approx", lambda g, delta: {(3, 2)})
        assert cli_dispatch(["solve", "--algo", "d-approx", "--delta", "2",
                             "--input", str(tg), "--validate"]) == 1
        solve_line = capsys.readouterr().out.splitlines()[-1]
        assert solve_line == validate_line
        assert validate_line == "INVALID: uncovered demand edge=(0,1) window_start=1"

    def test_bench_and_compare(self, tmp_path):
        tg = tmp_path / "g.tg"
        out = tmp_path / "bench.csv"
        write_native(random_star_graph(0, n=12, T=12, d=3), tg)
        assert cli_dispatch(["bench", "--inputs", str(tg), "--algos",
                             "star-sc", "star-acov", "d-approx", "--delta", "3",
                             "--reps", "2", "--output", str(out)]) == 0
        assert cli_dispatch(["compare", "--csv", str(out), "--algo-a",
                             "star-acov", "--algo-b", "star-sc"]) == 0

    def test_bench_and_compare_non_ascii_name_under_c_locale(self, tmp_path):
        # LC_ALL defeats the C-locale coercion and PYTHONUTF8=0 the UTF-8
        # mode, so argv arrives surrogate-escaped and the locale is ASCII
        write_native(random_star_graph(0, n=12, T=12, d=3), tmp_path / "é.tg")
        for argv in (["bench", "--inputs", "é.tg", "--algos", "star-sc", "star-acov",
                      "--delta", "2", "--output", "b.csv"],
                     ["compare", "--csv", "b.csv", "--algo-a", "star-acov",
                      "--algo-b", "star-sc"]):
            result = run_entry_point(argv, tmp_path, PYTHONUTF8="0", LC_ALL="C")
            assert result.returncode == 0, result.stderr
        assert "é.tg,star-sc," in (tmp_path / "b.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("argv, code, stream, last_line", [
        (["solve", "--algo", "star-acov", "--delta", "3", "--input", "g.tg",
          "--output", "g.cov", "--validate"], 0, "stdout", "valid"),
        (["validate", "--input", "g.tg", "--delta", "3", "--cover", "empty.cov"],
         1, "stdout", "INVALID: uncovered demand"),
        (["solve", "--algo", "star-acov", "--delta", "1", "--input", "huge.tg"],
         2, "stderr", "error: "),
    ], ids=["valid", "invalid-cover", "huge-header"])
    def test_entry_point_exit_codes(self, tmp_path, argv, code, stream, last_line):
        write_native(random_star_graph(0, n=12, T=12, d=3), tmp_path / "g.tg")
        (tmp_path / "empty.cov").write_bytes(b"")
        (tmp_path / "huge.tg").write_text("1000000000000 0 1\n")
        result = run_entry_point(argv, tmp_path)
        assert result.returncode == code, result.stderr
        assert getattr(result, stream).decode().splitlines()[-1].startswith(last_line)
        assert b"--help" not in result.stderr
        assert b"Traceback" not in result.stderr

    def test_compare_without_bench_columns_exits_2(self, tmp_path, capsys):
        out = tmp_path / "other.csv"
        out.write_text("a,b\n1,2\n")
        assert cli_dispatch(["compare", "--csv", str(out), "--algo-a",
                             "star-acov", "--algo-b", "star-sc"]) == 2
        assert "missing columns" in capsys.readouterr().err

    def test_compare_bad_number_exits_2(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        out.write_text(",".join(CSV_HEADER) + "\n"
                       "g,star-acov,3,x,true,1.0,1\n"
                       "g,star-sc,3,4,true,1.0,1\n")
        assert cli_dispatch(["compare", "--csv", str(out), "--algo-a",
                             "star-acov", "--algo-b", "star-sc"]) == 2
        assert "line 2: bad cover_size 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", BAD_CSVS)
    def test_compare_unreadable_csv_exits_2(self, tmp_path, capsys, problem):
        out = tmp_path / "bench.csv"
        out.write_bytes(BAD_CSVS[problem])
        assert cli_dispatch(["compare", "--csv", str(out), "--algo-a",
                             "star-acov", "--algo-b", "star-sc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {problem[1]}: ")
        assert "Traceback" not in err

    def test_convert_snap(self, tmp_path):
        raw = tmp_path / "raw.txt"
        tg = tmp_path / "conv.tg"
        raw.write_text("1 2 3600\n2 1 7200\n2 3 7200\n")
        assert cli_dispatch(["convert-snap", "--input", str(raw),
                             "--output", str(tg)]) == 0
        assert tg.exists()

    def test_convert_snap_infinite_timestamp_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("1 2 3600\n2 1 inf\n")
        assert cli_dispatch(["convert-snap", "--input", str(raw),
                             "--output", str(tmp_path / "conv.tg")]) == 2
        assert "line 2: bad timestamp 'inf'" in capsys.readouterr().err

    def test_convert_snap_negative_fraction_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        raw.write_text("a b -0.5\nb c 3600\n")
        conv = tmp_path / "conv.tg"
        assert cli_dispatch(["convert-snap", "--input", str(raw),
                             "--output", str(conv)]) == 2
        assert capsys.readouterr().err == "error: line 1: timestamp -0.5 < 0\n"
        assert not conv.exists()

    def test_generate_worst_sc(self, tmp_path, capsys):
        tg = tmp_path / "wsc.tg"
        assert cli_dispatch(["generate", "--family", "worst-sc", "--delta", "3",
                             "--output", str(tg)]) == 0
        assert capsys.readouterr().out == f"wrote {tg}: n=2 m=1 T=5\n"
        assert formats.parse_native(tg) == worst_case_sc_instance(3)

    def test_bench_prints_a_skipped_cell(self, tmp_path, capsys):
        # two disjoint edges at one step: star-sc raises NotAStarError
        tg = tmp_path / "matching.tg"
        write_native(build_graph(4, 3, [(0, 1, [1]), (2, 3, [1])]), tg)
        assert cli_dispatch(["bench", "--inputs", str(tg), "--algos", "star-sc",
                             "--delta", "2", "--output", str(tmp_path / "b.csv")]) == 0
        assert f"{tg} star-sc: skipped_not_always_star\n" in capsys.readouterr().out

    def test_file_over_byte_limit_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FILE_BYTES", 16)
        big = tmp_path / "big.tg"
        big.write_bytes(b"0 1\n2 3\n4 5\n6 7\n\xff")  # 17 bytes, the last not UTF-8
        assert cli_dispatch(["validate", "--input", str(big), "--delta", "1",
                             "--cover", str(big)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {big}: file of 17 bytes; at most 16 are read\n"

    def test_directory_input_exits_2_naming_it(self, tmp_path, capsys):
        assert cli_dispatch(["validate", "--input", str(tmp_path), "--delta", "1",
                             "--cover", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("command", ["validate", "solve", "convert-snap"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, periodic_worst_case,
                                    command):
        tg, bad = tmp_path / "p.tg", tmp_path / "bad"
        write_native(periodic_worst_case, tg)
        bad.write_bytes(b"0 1\n\xff\n")
        argv = {
            "validate": ["validate", "--input", str(tg), "--delta", "1",
                         "--cover", str(bad)],
            "solve": ["solve", "--algo", "star-acov", "--delta", "1",
                      "--input", str(bad)],
            "convert-snap": ["convert-snap", "--input", str(bad),
                             "--output", str(tmp_path / "conv.tg")],
        }[command]
        assert cli_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "error: line 2: input is not UTF-8 text" in err
        assert "Traceback" not in err


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
class TestOutputIsStdout:
    """``--output /dev/stdout`` with stdout sent to a file leaves in it what
    a pipe shows: the output's bytes, then the status line."""

    ARGV = {
        "solve": ["solve", "--algo", "star-acov", "--delta", "3",
                  "--input", "p.tg", "--output"],
        "generate": ["generate", "--n", "6", "--t", "5", "--seed", "1",
                     "--output"],
    }

    @pytest.mark.parametrize("mode", ["wb", "ab"], ids=["redirect", "append"])
    @pytest.mark.parametrize("command", ARGV)
    def test_file_holds_what_a_pipe_shows(self, tmp_path, periodic_worst_case,
                                          command, mode):
        write_native(periodic_worst_case, tmp_path / "p.tg")
        argv = self.ARGV[command]
        written = run_entry_point([*argv, "written"], tmp_path)
        assert written.returncode == 0, written.stderr
        piped = run_entry_point([*argv, "/dev/stdout"], tmp_path)
        assert piped.returncode == 0, piped.stderr
        status = written.stdout.replace(b"written", b"/dev/stdout")
        assert piped.stdout == (tmp_path / "written").read_bytes() + status

        out = tmp_path / "out"
        out.write_bytes(b"before\n")
        with open(out, mode) as stdout:
            proc = run_entry_point([*argv, "/dev/stdout"], tmp_path, stdout=stdout)
        assert proc.returncode == 0, proc.stderr
        before = b"before\n" if mode == "ab" else b""
        assert out.read_bytes() == before + piped.stdout


# sha256 of the instance ``generate --family random-star --n 300 --t 40 --d 299
# --seed 2`` writes: with d = n - 1, a step may exclude every vertex
PINNED_INSTANCE = "0e6e9b72e57fac01ca2219164c8be432b8aac0d1f0f9d5f2dc5ec7bd9a0a4eff"

# (algo, delta, sha256 of the cover file ``solve`` writes on that instance)
PINNED_COVERS = [
    ("star-sc", 5, "d578a7d59c606867edabe203bd8a2a94a455c5cd04c7fd654fc5ac5552f31af6"),
    ("star-acov", 3, "c7df8ae41edad0b8b0e1462e3e5fb2d25a27efb8b5c5bea2493187da16995f45"),
    ("star-acov", 5, "c815ba87c50330e11482fb3a19fe2355b580cf5fe1644a308525f2013ecae439"),
    # at delta 1 every appearance is its own pick; delta 40 = T is one window
    ("d-approx-s", 1, "d12fbe4092061ddbaaac24736027a62bbf63a57ae02a2251f3641a28d6fcf7ab"),
    ("d-approx-s", 5, "f849cab776b9f0eac6b18fe83a7815e7a67d331bd9c5303f00bf4a004bedc0cc"),
    ("d-approx-s", 12, "6d094400128e8fe6ab30bd2d5b101e26d70071f8cd4d899be189077983bc15f7"),
    ("d-approx-s", 40, "2ff800c6ae552bce9368218a00ed40cdd3bb342abd1dccb44db9e912c23b722c"),
    ("d-1-approx", 1, "d578a7d59c606867edabe203bd8a2a94a455c5cd04c7fd654fc5ac5552f31af6"),
    ("d-1-approx", 5, "c815ba87c50330e11482fb3a19fe2355b580cf5fe1644a308525f2013ecae439"),
    # a window half the lifetime: most demand buckets hold many edges
    ("d-1-approx", 20, "c2a0405a6ad30f9db3ec245eee90d00ba04a5b814e8af12dbd13917a717ac476"),
    ("d-1-approx", 40, "dbb7eae90bf297bcc098d3e08d4ec36aa30db08e39f1af13673cc337ba3eb407"),
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPinnedCliOutputs:
    """The generator's instance and the solvers' covers on it, byte for
    byte, so an output that changes on any supported Python fails here."""

    @pytest.fixture(scope="class")
    def instance(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pinned") / "dense.tg"
        assert cli_dispatch(["generate", "--family", "random-star", "--n", "300",
                             "--t", "40", "--d", "299", "--seed", "2",
                             "--output", str(path)]) == 0
        return path

    def test_instance(self, instance):
        assert sha256(instance) == PINNED_INSTANCE

    @pytest.mark.parametrize("algo, delta, digest", PINNED_COVERS,
                             ids=[f"{algo}-{delta}" for algo, delta, _ in PINNED_COVERS])
    def test_cover(self, instance, tmp_path, algo, delta, digest):
        cover = tmp_path / "dense.cov"
        assert cli_dispatch(["solve", "--algo", algo, "--delta", str(delta),
                             "--input", str(instance), "--output", str(cover),
                             "--validate"]) == 0
        assert sha256(cover) == digest

    def test_over_longer_outputs(self, instance, tmp_path):
        """Generate and solve into files that exist and are longer."""
        tg, cover = tmp_path / "dense.tg", tmp_path / "dense.cov"
        stale = instance.read_bytes() + b"0 1 1 1\n" * 100
        tg.write_bytes(stale)
        cover.write_bytes(stale)
        assert cli_dispatch(["generate", "--family", "random-star", "--n", "300",
                             "--t", "40", "--d", "299", "--seed", "2",
                             "--output", str(tg)]) == 0
        assert sha256(tg) == PINNED_INSTANCE
        for algo, delta, digest in PINNED_COVERS[:2]:
            assert cli_dispatch(["solve", "--algo", algo, "--delta", str(delta),
                                 "--input", str(tg), "--output", str(cover)]) == 0
            assert sha256(cover) == digest


def test_pinned_outputs_through_short_writes(tmp_path, monkeypatch):
    """The pinned instance and a pinned cover, each written at most 3 bytes
    per ``os.write``."""
    calls = take_3_bytes_per_write(monkeypatch)
    instance, cover = tmp_path / "dense.tg", tmp_path / "dense.cov"
    assert cli_dispatch(["generate", "--family", "random-star", "--n", "300",
                         "--t", "40", "--d", "299", "--seed", "2",
                         "--output", str(instance)]) == 0
    algo, delta, digest = PINNED_COVERS[1]
    assert cli_dispatch(["solve", "--algo", algo, "--delta", str(delta),
                         "--input", str(instance), "--output", str(cover)]) == 0
    assert calls
    assert sha256(instance) == PINNED_INSTANCE
    assert sha256(cover) == digest
