import os
import re
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swtvc import (
    BadConfigError,
    DuplicateAppearanceError,
    EmptyInputError,
    NegativeTimestampError,
    OutOfRangeLabelError,
    OutOfRangeVertexError,
    ParseError,
    TooLargeError,
    TvcError,
    build_graph,
    convert_snap,
    parse_cover,
    parse_native,
    validate_cover,
    write_cover,
    write_native,
)
from swtvc import formats
from swtvc.bench import CSV_HEADER, BenchRecord, compare_csv, write_csv

from conftest import (
    open_descriptors,
    random_general_graph,
    random_star_graph,
    take_3_bytes_per_write,
)


class TestNativeFormat:
    def test_round_trip(self, tmp_path, example_graph):
        path = tmp_path / "g.tg"
        write_native(example_graph, path)
        assert parse_native(path) == example_graph

    def test_written_layout(self, tmp_path, example_graph):
        path = tmp_path / "g.tg"
        write_native(example_graph, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "4 4 3"
        assert lines[1] == "0 3 2 1 2"

    def test_round_trip_random(self, tmp_path):
        for seed in range(8):
            g = random_general_graph(seed)
            path = tmp_path / f"r{seed}.tg"
            write_native(g, path)
            assert parse_native(path) == g

    def test_empty_graph_with_lifetime(self, tmp_path):
        path = tmp_path / "e.tg"
        path.write_text("2 0 5\n")
        g = parse_native(path)
        assert g.m == 0 and g.T == 5 and g.n == 2

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.tg"
        path.write_text("# header comment\n2 1 3\n# edge\n0 1 2 1 3\n")
        assert parse_native(path).edges[0].appearances == (1, 3)

    def test_nonincreasing_labels_rejected(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("4 1 3\n0 3 2 2 1\n")
        with pytest.raises(ParseError):
            parse_native(path)

    def test_wrong_edge_count(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("2 2 3\n0 1 1 1\n")
        with pytest.raises(ParseError):
            parse_native(path)

    def test_repeated_pair_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "dup.tg"
        path.write_text("3 2 4\n0 1 1 1\n0 1 1 3\n")
        with pytest.raises(ParseError, match=r"^line 3: repeated edge \(0, 1\)"):
            parse_native(path)
        path.write_text("# c\n3 4 4\n0 1 1 1\n1 2 1 2\n# x\n0 1 1 3\n1 2 1 4\n")
        with pytest.raises(ParseError, match=r"^line 6: "):
            parse_native(path)
        # library callers still get the pair merged
        assert build_graph(3, 4, [(0, 1, [1]), (0, 1, [3])]).edges[0].appearances == (1, 3)

    def test_syntax_errors_come_before_range_errors(self, tmp_path):
        path = tmp_path / "dup.tg"
        # vertex 9 is out of range on line 4, but line 3 repeats a pair
        path.write_text("3 3 4\n0 1 1 1\n0 1 1 3\n1 9 1 1\n")
        with pytest.raises(ParseError, match=r"^line 3: repeated edge \(0, 1\)$"):
            parse_native(path)
        # the pair's first line carries a label past T
        path.write_text("3 2 4\n0 1 1 9\n0 1 1 3\n")
        with pytest.raises(ParseError, match=r"^line 3: repeated edge \(0, 1\)$"):
            parse_native(path)
        # with no syntax error, the range error is raised
        path.write_text("3 2 4\n0 1 1 9\n1 2 1 3\n")
        with pytest.raises(OutOfRangeLabelError, match=r"^label 9 outside \[1, 4\]"):
            parse_native(path)

    def test_label_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("2 1 3\n0 1 3 1 2\n")
        with pytest.raises(ParseError):
            parse_native(path)


class TestSizeLimit:
    def test_huge_native_header(self, tmp_path):
        path = tmp_path / "g.tg"
        for header in ("1000000000000 0 1", "2 0 100000000000"):
            path.write_text(header + "\n")
            with pytest.raises(TooLargeError):
                parse_native(path)

    def test_long_snap_span_in_one_second_buckets(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 0\n1 2 100000000\n")  # about 3 years
        with pytest.raises(TooLargeError):
            convert_snap(path, bucket_seconds=1)
        assert convert_snap(path, bucket_seconds=3600).T == 27778


READERS = {
    "parse_native": parse_native,
    "parse_cover": parse_cover,
    "convert_snap": convert_snap,
    "compare_csv": lambda path: compare_csv(path, "star-acov", "star-sc"),
}


class TestFileSizeLimit:
    @pytest.mark.parametrize("reader", READERS)
    def test_refused_before_decoding(self, tmp_path, monkeypatch, reader):
        monkeypatch.setattr(formats, "MAX_FILE_BYTES", 16)
        path = tmp_path / "big"
        path.write_bytes(b"0 1\n2 3\n4 5\n6 7\n\xff")  # 17 bytes, the last not UTF-8
        named = f"{path}: file of 17 bytes; at most 16 are read"
        with pytest.raises(TooLargeError, match=re.escape(named)):
            READERS[reader](path)

    @pytest.mark.parametrize("reader", READERS)
    def test_at_the_limit_is_read(self, tmp_path, monkeypatch, reader):
        monkeypatch.setattr(formats, "MAX_FILE_BYTES", 17)
        path = tmp_path / "big"
        path.write_bytes(b"0 1\n2 3\n4 5\n6 7\n\xff")
        with pytest.raises(ParseError, match="line 5: input is not UTF-8 text"):
            READERS[reader](path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_pipe_with_no_size_is_read(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "MAX_FILE_BYTES", 1)
        fifo = tmp_path / "cover.fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "w") as f:
                f.write("0 1\n2 3\n")

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        assert parse_cover(fifo) == {(0, 1), (2, 3)}
        writer.join(5)


# a file each reader accepts
READABLE = {
    "parse_native": b"2 1 3\n0 1 2 1 3\n",
    "parse_cover": b"0 1\n1 3\n",
    "convert_snap": b"a b 0\nb c 3600\n",
    "compare_csv": (",".join(CSV_HEADER) + "\r\ng,star-sc,3,4,true,1.0,1\r\n"
                    "g,star-acov,3,3,true,2.0,1\r\n").encode(),
}

WRITERS = {
    "write_native": lambda path: write_native(build_graph(2, 3, [(0, 1, [1, 3])]), path),
    "write_cover": lambda path: write_cover({(0, 1), (1, 3)}, path),
    # a non-ASCII name, and one that holds a surrogate escape and needs quotes
    "write_csv": lambda path: write_csv(
        [BenchRecord("é.tg", "star-sc", 3, 4, True, 1.25, 1),
         BenchRecord("g\udcff,1", "star-acov", 3, None, None, None, 1,
                     status="error:BadDeltaError")], path),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_short_writes_leave_the_same_bytes(tmp_path, monkeypatch, writer):
    whole, short = tmp_path / "whole", tmp_path / "short"
    WRITERS[writer](whole)
    calls = take_3_bytes_per_write(monkeypatch)
    WRITERS[writer](short)
    data = whole.read_bytes()
    assert len(calls) == -(-len(data) // 3) > 1
    assert short.read_bytes() == data


@pytest.mark.skipif(open_descriptors() is None, reason="no listing of open descriptors")
class TestDescriptorsClosed:
    """Every reader and writer closes the descriptor it opens, on success and
    on each error, and opens none when it fails before opening."""

    def check(self, call, error=None):
        before = open_descriptors()
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert open_descriptors() == before

    @pytest.mark.parametrize("reader", READERS)
    def test_reader_success(self, tmp_path, reader):
        path = tmp_path / "in"
        path.write_bytes(READABLE[reader])
        self.check(lambda: READERS[reader](path))

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_reader_cannot_open(self, tmp_path, reader, case):
        path = tmp_path / "missing" if case == "missing" else tmp_path
        self.check(lambda: READERS[reader](path), OSError)

    @pytest.mark.parametrize("reader", READERS)
    def test_reader_too_large(self, tmp_path, monkeypatch, reader):
        monkeypatch.setattr(formats, "MAX_FILE_BYTES", 4)
        path = tmp_path / "in"
        path.write_bytes(READABLE[reader])
        self.check(lambda: READERS[reader](path), TooLargeError)

    @pytest.mark.parametrize("reader", READERS)
    def test_reader_not_utf8(self, tmp_path, reader):
        path = tmp_path / "in"
        path.write_bytes(READABLE[reader] + b"\xff\n")
        self.check(lambda: READERS[reader](path), ParseError)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_writer_success(self, tmp_path, writer):
        path = tmp_path / "out"
        self.check(lambda: WRITERS[writer](path))
        assert path.stat().st_size > 0

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("case", ["directory", "missing-parent"])
    def test_writer_cannot_open(self, tmp_path, writer, case):
        path = tmp_path if case == "directory" else tmp_path / "missing" / "out"
        self.check(lambda: WRITERS[writer](path), OSError)

    def test_cover_element_check_opens_nothing(self, tmp_path):
        path = tmp_path / "c.cov"
        self.check(lambda: write_cover({(0, "x")}, path), OutOfRangeLabelError)
        assert not path.exists()


@pytest.mark.parametrize("reader", READERS)
def test_directory_error_names_its_path(tmp_path, reader):
    with pytest.raises(IsADirectoryError) as info:
        READERS[reader](tmp_path)
    assert str(info.value) == f"[Errno 21] Is a directory: '{tmp_path}'"


class TestConvertSnap:
    def test_bad_bucket_seconds(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 3600\n")
        for bucket in (0, -3600):
            with pytest.raises(BadConfigError, match="bucket_seconds"):
                convert_snap(path, bucket_seconds=bucket)

    def test_bucket_and_dedup(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 7200\n2 1 3600\n")
        g = convert_snap(path, bucket_seconds=3600)
        assert g.n == 2 and g.m == 1 and g.T == 2
        assert g.edges[0].appearances == (1, 2)

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("3 3 3600\n1 2 3600\n")
        g = convert_snap(path)
        assert g.n == 2 and g.m == 1

    def test_empty_input(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("")
        with pytest.raises(EmptyInputError):
            convert_snap(path)
        path.write_text("5 5 100\n")  # only a self-loop
        with pytest.raises(EmptyInputError):
            convert_snap(path)

    def test_negative_timestamp(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 -5\n")
        with pytest.raises(NegativeTimestampError):
            convert_snap(path)

    @pytest.mark.parametrize("ts", ["inf", "-inf", "1e400", "nan", "x"])
    def test_unusable_timestamp(self, tmp_path, ts):
        path = tmp_path / "raw.txt"
        path.write_text(f"1 2 0\n1 2 {ts}\n")
        with pytest.raises(ParseError) as exc:
            convert_snap(path)
        assert exc.value.line == 2

    def test_large_integer_timestamps_keep_their_low_bits(self, tmp_path):
        # one second apart, above 2**53, where a float rounds both alike
        path = tmp_path / "raw.txt"
        path.write_text("a b 9007199254740993\na c 9007199254740992\n")
        g = convert_snap(path, bucket_seconds=1)
        assert g.T == 2
        assert [e.appearances for e in g.edges] == [(2,), (1,)]

    @pytest.mark.parametrize("ts, step", [("1e3", 1), ("3600.5", 2), ("7200", 3)])
    def test_decimal_timestamps_truncated(self, tmp_path, ts, step):
        path = tmp_path / "raw.txt"
        path.write_text(f"1 2 0\n1 3 {ts}\n")
        g = convert_snap(path, bucket_seconds=3600)
        assert g.edges[1].appearances == (step,)

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("a b 0 weight=3\nb c 3600 x y z\n")
        g = convert_snap(path)
        assert g.n == 3 and g.m == 2 and g.T == 2

    def test_gap_handling(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("1 2 0\n1 2 36000\n")
        with_gaps = convert_snap(path, keep_gaps=True)
        assert with_gaps.T == 11
        compact = convert_snap(path, keep_gaps=False)
        assert compact.T == 2
        assert compact.edges[0].appearances == (1, 2)

    def test_first_appearance_id_order(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("zz aa 0\naa bb 0\n")
        g = convert_snap(path)
        # zz -> 0, aa -> 1, bb -> 2
        assert {(e.u, e.v) for e in g.edges} == {(0, 1), (1, 2)}


class TestCoverFiles:
    def test_round_trip(self, tmp_path):
        cover = {(0, 1), (3, 2), (0, 3)}
        path = tmp_path / "c.cov"
        write_cover(cover, path)
        assert parse_cover(path) == cover
        assert len(path.read_text().splitlines()) == 3

    def test_empty_cover(self, tmp_path):
        path = tmp_path / "c.cov"
        write_cover(set(), path)
        assert parse_cover(path) == set()

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "c.cov"
        path.write_text("0 1\n0 1\n")
        with pytest.raises(DuplicateAppearanceError):
            parse_cover(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "c.cov"
        path.write_text("0 1 2\n")
        with pytest.raises(ParseError):
            parse_cover(path)

    @pytest.mark.parametrize("cover, error, message", [
        ({(0, "x")}, OutOfRangeLabelError,
         "appearance time 'x' in cover element (0, 'x') is not an integer"),
        ({(0, 1.5)}, OutOfRangeLabelError,
         "appearance time 1.5 in cover element (0, 1.5) is not an integer"),
        ({(1,)}, OutOfRangeVertexError,
         "cover element (1,) is not a (vertex, time) pair of integers"),
        ([(0, 1), (1, 2, 3)], OutOfRangeVertexError,
         "cover element (1, 2, 3) is not a (vertex, time) pair of integers"),
        ({("a", 1)}, OutOfRangeVertexError,
         "cover element ('a', 1) is not a (vertex, time) pair of integers"),
        ({(0.0, 1)}, OutOfRangeVertexError,
         "cover element (0.0, 1) is not a (vertex, time) pair of integers"),
        (5, OutOfRangeVertexError, "cover 5 is not iterable"),
    ])
    def test_element_not_an_integer_pair_rejected_before_opening(
            self, tmp_path, cover, error, message):
        path = tmp_path / "c.cov"
        with pytest.raises(error) as info:
            write_cover(cover, path)
        assert str(info.value) == message
        assert not path.exists()

    @pytest.mark.parametrize("cover", [{(0, "x")}, {(1,)}, {("a", 1)}, 5])
    def test_rejection_worded_as_validate_cover(self, tmp_path, cover):
        g = build_graph(2, 3, [(0, 1, [1])])
        with pytest.raises(TvcError) as written:
            write_cover(cover, tmp_path / "c.cov")
        with pytest.raises(TvcError) as validated:
            validate_cover(g, 1, cover)
        assert type(written.value) is type(validated.value)
        assert str(written.value) == str(validated.value)

    def test_integer_types_written_as_integers(self, tmp_path):
        path = tmp_path / "c.cov"
        write_cover([(True, 2), (0, 3)], path)
        assert path.read_text() == "1 2\n0 3\n"
        assert parse_cover(path) == {(1, 2), (0, 3)}


class TestParseErrorLines:
    """Blank and comment lines count toward the reported 1-based line."""

    @staticmethod
    def line_of(parse, path):
        with pytest.raises(ParseError) as exc:
            parse(path)
        return exc.value.line

    def test_native(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("# instance\n\n2 1 3\n   \n# edge\n0 1 x 1\n")
        assert self.line_of(parse_native, path) == 6
        path.write_text("\n# no header\n2 x 3\n")
        assert self.line_of(parse_native, path) == 3
        path.write_text("\n# only comments\n")
        assert self.line_of(parse_native, path) == 1

    def test_snap(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("# contacts\n1 2 0\n\n1 2\n")
        assert self.line_of(convert_snap, path) == 4

    def test_cover(self, tmp_path):
        path = tmp_path / "c.cov"
        path.write_text("0 1\n# cover\n\n0 1 2\n")
        assert self.line_of(parse_cover, path) == 4

    @pytest.mark.parametrize("parse", [parse_native, convert_snap, parse_cover])
    def test_non_utf8(self, tmp_path, parse):
        path = tmp_path / "bad"
        path.write_bytes(b"\xff\n")
        assert self.line_of(parse, path) == 1
        path.write_bytes(b"# \xc3\xa9 is UTF-8\r\n\n0 1\x0c1 2 \xe9\n")
        assert self.line_of(parse, path) == 3  # a form feed does not end a line
        path.write_bytes(b"0 1\n\xc3")  # truncated two-byte sequence
        assert self.line_of(parse, path) == 2


# str.splitlines breaks lines at these; the parsers and the csv module do not
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    @pytest.mark.parametrize("sep", _NOT_LINE_BREAKS)
    def test_separator_inside_comment(self, tmp_path, sep):
        path = tmp_path / "in.txt"
        path.write_text(f"# exported{sep}v2\n2 1 3\n# edge{sep}list\n0 1 2 1 3\n",
                        encoding="utf-8")
        assert parse_native(path) == build_graph(2, 3, [(0, 1, [1, 3])])
        path.write_text(f"# cover{sep}v2\n0 1\n", encoding="utf-8")
        assert parse_cover(path) == {(0, 1)}
        path.write_text(f"# contacts{sep}v2\na b 0\n", encoding="utf-8")
        assert convert_snap(path) == build_graph(2, 1, [(0, 1, [1])])

    @pytest.mark.parametrize("sep", _NOT_LINE_BREAKS)
    def test_separator_is_whitespace_inside_a_line(self, tmp_path, sep):
        path = tmp_path / "in.txt"
        path.write_text(f"2 1 3\n0{sep}1 2 1{sep}3\n", encoding="utf-8")
        assert parse_native(path).edges[0].appearances == (1, 3)

    @pytest.mark.parametrize("parse", [parse_native, convert_snap, parse_cover])
    def test_bad_byte_line_after_separator(self, tmp_path, parse):
        path = tmp_path / "bad"
        path.write_bytes(b"2 1 3\n#a\x0cb\n\xff\n")
        with pytest.raises(ParseError, match=r"^line 3: input is not UTF-8 text$"):
            parse(path)
        path.write_bytes(b"#a\xe2\x80\xa8b\r\r\n\xff")  # U+2028, then \r and \r\n
        with pytest.raises(ParseError, match=r"^line 3: "):
            parse(path)


def test_generator_emits_via_native_writer(tmp_path):
    g = random_star_graph(4, n=12, T=10, d=3)
    path = tmp_path / "gen.tg"
    write_native(g, path)
    assert parse_native(path) == g


# raw bytes, and byte strings built from tokens that come near valid input
_tokens = st.sampled_from([b"0", b"1", b"2", b"9", b"-", b".", b"e", b" ", b"\t",
                           b"\n", b"\r", b"#", b"\xc3", b"\xa9", b"\xff"])


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=64) | st.lists(_tokens, max_size=40).map(b"".join))
def test_parsers_accept_or_raise_tvc_error_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "any_bytes_input"
    path.write_bytes(data)
    for parse in (parse_native, convert_snap, parse_cover):
        try:
            parse(path)
        except TvcError:
            pass
