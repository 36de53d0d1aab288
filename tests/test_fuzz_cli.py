"""A seeded fuzz test of the file-to-exit-code contract.

Mutated native, cover and contact files go through ``cli_dispatch``
(``solve`` with a random solver, ``validate`` and ``convert-snap``).
Whatever a file holds, no exception escapes, the exit code is 0, 1 or 2,
and a 2 comes with an ``error:`` line first on stderr.

Every number the mutations can put in a file is at most 10**5 or above
``swtvc.graph.MAX_SIZE`` (10**7), which is refused before anything is
allocated.  A declared n or T in between builds one Python list per
vertex and per step and takes seconds, so such values are left out until
building a graph costs what its edges cost rather than what n and T
declare.
"""

import random

import pytest

from swtvc import ALGORITHMS, build_graph
from swtvc import formats
from swtvc.cli import cli_dispatch

from conftest import random_general_graph, random_star_graph

#: Tokens a mutation writes.  ``+2``, ``1_0`` and the Arabic-Indic digit
#: three (U+0663, ``٣``) are integers to ``int()``, as the formats module
#: says; ``\r`` ends a line and U+2028 does not; ``\udcff`` is written as
#: the byte 0xff, which is not UTF-8.
TOKENS = ["0", "1", "2", "3", "4", "5", "6", "7", "-1", "-0.5", "100000",
          "10000001", "9" * 5000, "nan", "inf", "1e5", "3600.5", "0x10",
          "1_0", "+2", "\u0663", "x", "#", "\x00", "\r", "\f", "\u2028", " ",
          "\udcff"]

#: Graphs whose files are mutated: general ones, on which the star solvers
#: refuse to run, and always-star ones, on which they run.
NATIVE_BASES = [random_general_graph(seed) for seed in range(4)] + [
    random_star_graph(seed, n=6, T=6) for seed in range(4)]
CONTACTS = "# src dst ts\na b 0\nb c 3600\na c 7200 extra\nc c 10\nd a 100000\n"
CASES = 200


def mutate(rng, text):
    """``text`` with up to two mutations: mostly a token replaced, else a
    token dropped, repeated or inserted, or a line dropped, repeated or
    inserted.  Most mutations fail a syntax check, so a third of the cases
    are left whole and reach the solvers and the validator."""
    lines = [line.split(" ") for line in text.rstrip("\n").split("\n")]
    for _ in range(rng.randint(0, 2)):
        line = rng.choice(lines)
        i = rng.randrange(len(line))
        op = rng.randrange(12)
        if op < 6:
            line[i] = rng.choice(TOKENS)
        elif op == 6 and len(line) > 1:
            del line[i]
        elif op == 7:
            line.insert(i, line[i])
        elif op == 8:
            line.insert(i, rng.choice(TOKENS))
        elif op == 9 and len(lines) > 1:
            lines.remove(line)
        elif op == 10:
            lines.insert(rng.randrange(len(lines) + 1), list(line))
        else:
            lines.insert(rng.randrange(len(lines) + 1),
                         [rng.choice(TOKENS) for _ in range(rng.randint(1, 5))])
    return "".join(" ".join(line) + "\n" for line in lines)


def solve_argv(rng, native, out):
    algo = rng.choice(sorted(ALGORITHMS))
    budget = ["--budget", "20000"] if algo == "exact" else []
    return ["solve", "--algo", algo, "--delta", rng.choice(["0", "1", "2", "3", "9"]),
            "--input", str(native), "--output", str(out), "--validate", *budget]


@pytest.fixture(scope="module")
def bases(tmp_path_factory):
    """(native text, text of a d-approx cover at delta 2) of each base graph."""
    path = tmp_path_factory.mktemp("bases") / "base"
    texts = []
    for g in NATIVE_BASES:
        formats.write_native(g, path)
        native = path.read_text()
        formats.write_cover(ALGORITHMS["d-approx"](g, 2), path)
        texts.append((native, path.read_text()))
    return texts


class TestErrorContractFuzz:
    def run_case(self, capsys, argv, text):
        try:
            code = cli_dispatch(argv)
        except BaseException as exc:  # SystemExit included
            pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv[0], text, code)
        if code == 2:
            assert err.startswith("error:"), (argv[0], text, err)
        return code

    @pytest.mark.parametrize("kind", ["native", "cover", "contacts"])
    def test_exit_codes(self, tmp_path, capsys, bases, kind):
        rng = random.Random(19)
        inp, cover, out = tmp_path / "in", tmp_path / "cover", tmp_path / "out"
        seen = set()
        for _ in range(CASES):
            native, cover_text = rng.choice(bases)
            if kind == "native":
                mutated, text = inp, mutate(rng, native)
                argv = solve_argv(rng, inp, out)
            elif kind == "cover":
                inp.write_text(native)
                mutated, text = cover, mutate(rng, cover_text)
                argv = ["validate", "--input", str(inp), "--delta", "2",
                        "--cover", str(cover)]
            else:
                mutated, text = inp, mutate(rng, CONTACTS)
                argv = ["convert-snap", "--input", str(inp), "--output", str(out)]
            mutated.write_bytes(text.encode("utf-8", "surrogateescape"))
            seen.add(self.run_case(capsys, argv, text))
        # the mutations reach past the parsers; only validate sees an invalid cover
        assert seen == ({0, 1, 2} if kind == "cover" else {0, 2})

    def test_integer_literal_forms(self, tmp_path):
        path = tmp_path / "forms.tg"
        path.write_text("٣ 1 1_0\n0 +2 1 ٣\n", encoding="utf-8")
        assert formats.parse_native(path) == build_graph(3, 10, [(0, 2, [3])])
        path.write_text("+2 1_0\n٣ 3\n", encoding="utf-8")
        assert formats.parse_cover(path) == {(2, 10), (3, 3)}
