"""File formats: the native temporal-graph format, cover files, and
conversion of raw timestamped contact lists (SNAP style).

Native format, line oriented text:
    n m T
    u v k t1 t2 ... tk      (one line per edge, u < v, k >= 1, labels increasing)
Each (u, v) pair is on one line only.  Lines starting with '#' are
comments; blank lines are ignored.  Lines end at ``\n``, ``\r\n`` or
``\r`` only, the breaks the csv module counts, so a form feed or another
Unicode separator inside a line is whitespace, not a line break.  The
fields of native and cover files are read with Python's ``int()``, so
``+2``, ``1_0`` and non-ASCII decimal digits such as ``٣`` are integers.

Each rule has one owner.  The parsers check the file syntax line by line:
field counts, integers, ``u < v``, increasing labels and, in a native
file, a pair repeated at a later line; each is a ParseError naming its
line.  ``build_graph`` checks the graph: the size limit, self-loops and
vertex and label ranges (TooLargeError, SelfLoopError,
OutOfRangeVertexError, OutOfRangeLabelError).  It alone merges repeated
pairs and dedups and sorts labels, so ``convert_snap`` hands it raw label
lists.  Syntax is checked before the graph, so a native file reports its
first syntax error before any range error, wherever the two lie.

Cover files hold one ``v t`` pair per line.  ``write_cover`` refuses an
element that is not a pair of integers before it opens the file, so
``parse_cover`` reads back whatever it writes.

Every file swtvc reads or writes goes through one of two helpers built
on os-level calls, with no io object between.  ``_read_text`` reads a
file whole, up to ``MAX_FILE_BYTES``: a file whose size is larger is a
TooLargeError naming its path and size, raised before any byte is read
or decoded, and a pipe or device with no size is one once more bytes
than that have arrived.  ``_write_bytes`` writes the bytes it is given,
so no platform translates line ends: native and cover files are UTF-8
with ``\n`` line ends everywhere.  It writes over an existing file in
place and then cuts it to the new length, instead of truncating it to
zero first, because on ext4 a file truncated to zero and written again
is flushed at ``close()``.  A write that fails part-way leaves the bytes
written so far and nothing after them.  Neither way is atomic.  The
file stdout writes to, such as ``/dev/stdout`` sent to a file, is written
through ``sys.stdout`` instead, in order with what it prints.  An
OSError names the path as ``open()`` does.
"""

from __future__ import annotations

import errno
import os
import stat
import sys
from operator import ge

from .errors import (
    DuplicateAppearanceError,
    EmptyInputError,
    NegativeTimestampError,
    OutOfRangeLabelError,
    OutOfRangeVertexError,
    ParseError,
    TooLargeError,
)
from .graph import (
    Cover,
    TemporalGraph,
    VertexAppearance,
    _check_int,
    _is_integer,
    build_graph,
)

#: Largest input file read, in bytes.  Decoding it to ``str`` and splitting
#: it into lines take several times its size, so a larger file is refused
#: before it is read.
MAX_FILE_BYTES = 2**30


def _split_lines(text: str) -> list:
    r"""``text`` split at ``\n``, ``\r\n`` and ``\r`` only, the line breaks
    the csv module counts; ``str.splitlines`` would also break at ``\v``,
    ``\f``, ``\x1c``-``\x1e``, ``\x85``, ``\u2028`` and ``\u2029``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


#: ``O_BINARY`` keeps Windows from translating line ends; elsewhere it is 0.
_BINARY = getattr(os, "O_BINARY", 0)


def _read_text(path) -> str:
    """The text of ``path``; input that is not UTF-8 raises ``ParseError``
    at the 1-based line of its first bad byte.  More than
    ``MAX_FILE_BYTES`` raises ``TooLargeError``: a file whose size says so
    before any byte is read, and a pipe, device or other file with no size
    once that many bytes and one more have arrived, so no more than the
    limit and one chunk are held.  An ``OSError`` names the path as
    ``open()`` does, a directory included."""
    fd = os.open(path, os.O_RDONLY | _BINARY)
    try:
        st = os.fstat(fd)
        # opening a directory read-only succeeds; open() refuses it by name
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    os.fspath(path))
        if st.st_size > MAX_FILE_BYTES:
            raise TooLargeError(
                f"{path}: file of {st.st_size} bytes; at most {MAX_FILE_BYTES} are read")
        # a regular file comes in one read and its EOF in a second; a pipe,
        # which has no size, in chunks, counted against the limit
        chunks, want, got = [], st.st_size + 1 if st.st_size else 1 << 16, 0
        while chunk := os.read(fd, want):
            chunks.append(chunk)
            got += len(chunk)
            if got > MAX_FILE_BYTES:
                raise TooLargeError(
                    f"{path}: more than {MAX_FILE_BYTES} bytes; at most"
                    f" {MAX_FILE_BYTES} are read")
    finally:
        os.close(fd)
    data = b"".join(chunks)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start].decode("utf-8")
        raise ParseError(len(_split_lines(before)), "input is not UTF-8 text") from None


def _stdout_buffer(st):
    """``sys.stdout``'s binary buffer when ``st`` is the file it writes to
    (same device and inode), else None.  No stat is made when
    ``sys.stdout`` has no file descriptor, as under ``redirect_stdout``."""
    try:
        fd = sys.stdout.fileno()
        buffer = sys.stdout.buffer
    except (AttributeError, OSError, ValueError):
        return None
    return buffer if os.path.samestat(st, os.fstat(fd)) else None


def _write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path``, created if it is missing, short writes
    included.  An existing file is written over in place and then cut to
    the bytes written, never truncated to zero first: on ext4, truncating
    a file to zero and writing it again makes ``close()`` start writeback
    (its "replace-via-truncate" heuristic), which costs several times the
    write.  A pipe or a device such as ``/dev/null`` is written and never
    cut.  A write that fails part-way leaves the bytes written so far and
    nothing after them, as truncating first would, and its ``OSError``
    propagates.  Neither way is atomic: a reader can see the file between
    the first write and the cut.

    The file stdout writes to, such as ``/dev/stdout`` sent to a file, is
    written through ``sys.stdout``'s buffer after a flush, and never cut:
    opened anew it would be written from offset 0, and what stdout writes
    before and after would land over the data."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | _BINARY, 0o666)
    try:
        st = os.fstat(fd)
        stdout = _stdout_buffer(st)
        if stdout is not None:
            sys.stdout.flush()
            stdout.write(data)
            stdout.flush()
            return
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(fd, view):]
        finally:
            # written from offset 0, a longer file keeps its size
            written = len(data) - len(view)
            if stat.S_ISREG(st.st_mode) and st.st_size > written:
                os.ftruncate(fd, written)
    finally:
        os.close(fd)


def _content_lines(path):
    """``(line number, stripped line)`` of each line of ``path`` that is
    neither blank nor a ``#`` comment; numbers are 1-based."""
    for lineno, raw in enumerate(_split_lines(_read_text(path)), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def write_native(g: TemporalGraph, path) -> None:
    lines = [f"{g.n} {g.m} {g.T}"]
    for e in g.edges:
        apps = " ".join(map(str, e.appearances))
        lines.append(f"{e.u} {e.v} {len(e.appearances)} {apps}")
    _write_bytes(path, ("\n".join(lines) + "\n").encode())


def parse_native(path) -> TemporalGraph:
    rows = list(_content_lines(path))
    if not rows:
        raise ParseError(1, "missing header line")

    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(lineno, f"header must be 'n m T', got {header!r}")
    try:
        n, m, T = (int(p) for p in parts)
    except ValueError:
        raise ParseError(lineno, f"non-integer header field in {header!r}")

    if len(rows) - 1 != m:
        raise ParseError(lineno, f"expected {m} edge lines, found {len(rows) - 1}")

    edge_list, seen = [], set()
    for lineno, line in rows[1:]:
        fields = line.split()
        try:
            nums = list(map(int, fields))
        except ValueError:
            raise ParseError(lineno, f"non-integer field in {line!r}")
        if len(nums) < 4:
            raise ParseError(lineno, "edge line needs 'u v k t1 ... tk'")
        u, v, k = nums[0], nums[1], nums[2]
        labels = nums[3:]
        if len(labels) != k:
            raise ParseError(lineno, f"declared {k} labels, found {len(labels)}")
        if u >= v:
            raise ParseError(lineno, f"endpoints must satisfy u < v, got {u} {v}")
        if any(map(ge, labels, labels[1:])):
            raise ParseError(lineno, f"labels not strictly increasing: {labels}")
        if (u, v) in seen:
            raise ParseError(lineno, f"repeated edge ({u}, {v})")
        seen.add((u, v))
        edge_list.append((u, v, labels))
    return build_graph(n, T, edge_list)


def convert_snap(path, bucket_seconds: int = 3600, keep_gaps: bool = True) -> TemporalGraph:
    """Build a temporal graph from ``src dst timestamp`` contact lines.

    Directions are dropped (endpoints canonicalized), self-loops and extra
    columns discarded, external keys remapped to dense ids in
    first-appearance order.  Timestamps are bucketed relative to the
    dataset minimum; with ``keep_gaps`` empty buckets stay as empty
    snapshots, otherwise time steps are compacted to the nonempty buckets.
    An integer timestamp is read exactly; a form like ``1e3`` or ``3600.5``
    goes through a float and is truncated, but a negative one such as
    ``-0.5`` is a NegativeTimestampError naming its line, as ``-1`` is.
    Raises BadConfigError when ``bucket_seconds`` is not an integer of at
    least 1.
    """
    _check_int(bucket_seconds, "bucket_seconds", 1)
    contacts = []
    ids = {}
    for lineno, line in _content_lines(path):
        fields = line.split()
        if len(fields) < 3:
            raise ParseError(lineno, f"need 'src dst timestamp', got {line!r}")
        src, dst = fields[0], fields[1]
        try:
            ts = int(fields[2])
        except ValueError:
            # a form like 1e3 or 3600.5; only it goes through a float, which
            # rounds integers past 2**53
            try:
                x = float(fields[2])
                ts = int(x)
            except (ValueError, OverflowError):  # not a number, nan, inf
                raise ParseError(lineno, f"bad timestamp {fields[2]!r}") from None
            if ts == 0 and x < 0:  # int() truncated a negative such as -0.5
                ts = x
        if ts < 0:
            raise NegativeTimestampError(f"line {lineno}: timestamp {ts} < 0")
        if src == dst:
            continue
        for key in (src, dst):
            if key not in ids:
                ids[key] = len(ids)
        contacts.append((ids[src], ids[dst], ts))

    if not contacts:
        raise EmptyInputError(f"no usable contacts in {path}")

    min_ts = min(ts for _, _, ts in contacts)
    labels = {}
    for a, b, ts in contacts:
        key = (a, b) if a < b else (b, a)
        t = (ts - min_ts) // bucket_seconds + 1
        labels.setdefault(key, []).append(t)

    if not keep_gaps:
        used = sorted({t for ts in labels.values() for t in ts})
        remap = {t: i + 1 for i, t in enumerate(used)}
        labels = {key: [remap[t] for t in ts] for key, ts in labels.items()}

    T = max(t for ts in labels.values() for t in ts)
    edge_list = [(u, v, ts) for (u, v), ts in sorted(labels.items())]
    return build_graph(len(ids), T, edge_list)


def _time_then_vertex(va) -> tuple:
    """``(t, v)`` of a cover element, checked as ``write_cover`` says."""
    try:
        v, t = va
    except (TypeError, ValueError):
        v = t = None  # not a pair: named by the vertex check
    if not _is_integer(v):
        raise OutOfRangeVertexError(
            f"cover element {va!r} is not a (vertex, time) pair of integers")
    if not _is_integer(t):
        raise OutOfRangeLabelError(
            f"appearance time {t!r} in cover element {va!r} is not an integer")
    return t, v


def write_cover(cover: Cover, path) -> None:
    """One ``v t`` line per appearance, by time, then vertex.

    Every element is checked before the file is opened, so the file holds
    only what ``parse_cover`` reads back.  In ``validate_cover``'s words, a
    cover that is not iterable, or an element that is not a pair of
    integers, is an OutOfRangeVertexError naming it, and a time that is not
    an integer is an OutOfRangeLabelError naming it.
    """
    try:
        cover = iter(cover)
    except TypeError:
        raise OutOfRangeVertexError(f"cover {cover!r} is not iterable") from None
    # %d writes an integer type such as bool as the integer it stands for
    lines = ["%d %d" % (v, t) for t, v in sorted(map(_time_then_vertex, cover))]
    _write_bytes(path, ("\n".join(lines) + ("\n" if lines else "")).encode())


def parse_cover(path) -> Cover:
    cover = set()
    for lineno, line in _content_lines(path):
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(lineno, f"cover line must be 'v t', got {line!r}")
        try:
            v, t = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(lineno, f"non-integer field in {line!r}")
        va = VertexAppearance(v, t)
        if va in cover:
            raise DuplicateAppearanceError(f"line {lineno}: repeated appearance {va}")
        cover.add(va)
    return cover
