"""Graph and orientation text is read and written a piece at a time.

The streamed parser must equal parse_pairs_oracle, today's whole-text
parser, in values and in error messages, at any piece size; and reading
or writing a large file must not hold the token list of the whole file.
"""

import gc
import itertools
import tracemalloc

import pytest

from orientkit import graph as graph_module
from orientkit.construct import cograph_orient
from orientkit.graph import (Graph, format_graph, parse_pairs, read_graph,
                             read_pairs, write_graph)
from orientkit.instances import random_class_instance
from orientkit.orientation import (Orientation, format_orientation,
                                   read_orientation, write_orientation)
from orientkit.recognize import (CotreeJoin, CotreeLeaf, CotreeUnion,
                                 cograph_cotree, evaluate_cotree,
                                 quasi_threshold_cotree)
from oracles import (orient_large_corpus, parse_pairs_oracle,
                     recognizer_corpus, threshold_graph)


def outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as err:
        return type(err), str(err)


def assert_parses_as_oracle(text, tmp_path, header=None):
    """Text and file reads of text equal the oracle's parse of it."""
    want = outcome(parse_pairs_oracle, text, "graph", header)
    assert outcome(parse_pairs, text, "graph", header) == want
    path = tmp_path / "t.txt"
    path.write_text(text, encoding="utf-8")
    assert outcome(read_pairs, path, "graph", header) == want


def some_orientation(g):
    """Heads mixing both ends, so tails are not always the smaller id."""
    return Orientation(g, [v if (u + v) % 3 else u
                           for u, v in zip(g.lo, g.hi)])


# -- the parser against the oracle --------------------------------------------


def test_corpus_files_parse_as_the_oracle_at_small_pieces(monkeypatch,
                                                          tmp_path):
    corpus = [(g, 7) for g in recognizer_corpus()]
    corpus += [(g, 4096) for g in orient_large_corpus()]
    for g, piece in corpus:
        d = some_orientation(g)
        texts = [(format_graph(g), None),
                 (format_orientation(d), (g.n, g.m))]
        monkeypatch.setattr(graph_module, "_PIECE", piece)
        for text, header in texts:
            assert_parses_as_oracle(text, tmp_path, header)
        gpath, opath = tmp_path / "g.graph", tmp_path / "g.orient"
        write_graph(g, gpath)
        write_orientation(d, opath)
        assert read_graph(gpath) == g
        assert read_orientation(opath, g) == d
        monkeypatch.undo()
        # the files written in small pieces are today's bytes
        assert gpath.read_text(encoding="utf-8") == texts[0][0]
        assert opath.read_text(encoding="utf-8") == texts[1][0]


MALFORMED = [
    "",                                    # blank
    "\n\n  \n",
    "# only a comment\n# and another\n",   # comment-only
    "5\n",                                 # half a header
    "5 # m is missing\n",
    "x 1\n0 1\n",                          # int() on n, then on m
    "3 y\n0 1\n",
    "3 1\n0 1 2\n",                        # token counts
    "3 2\n0 1\n",
    "3 -1\n",
    "3 1\n0 x\n1 2\n",                     # a bad token, then a wrong count
    "3 2\n0 x\n1 y\n",                     # two bad tokens: the first wins
    "11 2\n007 +3\n1_0 10\n",              # spellings int() reads
    "11 1\n0 -1\n",
    "11 1\n0 11\n",
    "4 2\n0 1.5\n2 3\n",
    "-2 1\n0 1\n",
    "1000000000 1\n999999999 0\n",
]


# the default piece holds each of these texts whole, and the empty text
# as no piece at all
@pytest.mark.parametrize("piece", [1, 2, 3, 5, 8, 13, graph_module._PIECE])
def test_malformed_and_odd_texts_parse_as_the_oracle(monkeypatch, tmp_path,
                                                     piece):
    monkeypatch.setattr(graph_module, "_PIECE", piece)
    for text in MALFORMED:
        assert_parses_as_oracle(text, tmp_path)
    assert_parses_as_oracle("3 1\n0 1\n", tmp_path, header=(3, 1))
    assert_parses_as_oracle("3 1\n0 1\n", tmp_path, header=(3, 2))


def test_headers_pairs_and_comments_across_piece_boundaries(monkeypatch,
                                                            tmp_path):
    texts = [
        # the header split over lines, after blank and comment lines
        "\n# a graph\n\n   12\n\n 3 # three pairs\n0 1\n2 3\n4 5\n",
        "12\n3\n0\n1\n2 # 3 4\n3\n4\n5\n",
        # comments that hold digits and '#' at every column
        "6 3 #x\n0 1#2 3\n#4 5\n2 3\n  # 0 1\n4 5 ##\n",
        # other line breaks, which split comments as splitlines does
        "6 2\r\n0 1 # x\r2 3\x0c\n",
        "6 2\n0 1 # \x1c 4 5\n2 3\n",
        "6 2\n0 1 #   4 5\n",
        # a long line with no newline inside it
        "9 4 " + " ".join(map(str, range(8))) + "\n",
    ]
    for piece in range(1, 24):
        monkeypatch.setattr(graph_module, "_PIECE", piece)
        for text in texts:
            assert_parses_as_oracle(text, tmp_path)
            assert_parses_as_oracle(text.rstrip("\n"), tmp_path)


def test_a_huge_header_over_a_short_body_allocates_nothing_large(
        monkeypatch, tmp_path):
    text = "1000000000 1000000000\n" + "0 1\n" * 5   # a 20-byte body
    path = tmp_path / "huge.graph"
    path.write_text(text, encoding="utf-8")
    message = "expected 2000000000 endpoint tokens, got 10"
    for piece in (graph_module._PIECE, 4):
        monkeypatch.setattr(graph_module, "_PIECE", piece)
        for read, source in ((parse_pairs, text), (read_pairs, path)):
            gc.collect()
            tracemalloc.start()
            try:
                with pytest.raises(ValueError) as err:
                    read(source, "graph")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert str(err.value) == message
            assert peak < 64 * 2 ** 10, (read.__name__, piece, peak)


def test_tokens_past_the_2m_th_are_counted_not_stored(tmp_path):
    text = "3 1\n" + "0 1\n" * 100_000
    path = tmp_path / "long.graph"
    path.write_text(text, encoding="utf-8")
    for read, source in ((parse_pairs, text), (read_pairs, path)):
        gc.collect()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                read(source, "graph")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert str(err.value) == "expected 2 endpoint tokens, got 200000"
        # a piece's tokens, not the body's 200000
        assert peak < 2 ** 20, (read.__name__, peak)


# -- memory -------------------------------------------------------------------


def traced_peak(make):
    """(result of make(), the peak bytes traced while it ran)."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        got = make()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, peak - before


@pytest.fixture(scope="module")
def cograph_800_files(tmp_path_factory):
    g = random_class_instance("cograph", 800, 1)
    assert g.m == 105997
    d = cograph_orient(g, cograph_cotree(g).cotree)
    root = tmp_path_factory.mktemp("cograph-800")
    gpath, opath = root / "c.graph", root / "c.orient"
    write_graph(g, gpath)
    write_orientation(d, opath)
    return g, d, gpath, opath


def test_reading_a_cograph_800_peaks_under_7_mb(cograph_800_files):
    g, d, gpath, opath = cograph_800_files
    got, peak = traced_peak(lambda: read_graph(gpath))
    assert got == g
    assert peak <= 7e6, peak
    got, peak = traced_peak(lambda: read_orientation(opath, g))
    assert got == d
    assert peak <= 7e6, peak


def test_writing_a_cograph_800_orientation_peaks_under_4_mb(
        cograph_800_files, tmp_path):
    g, d, _, opath = cograph_800_files
    out = tmp_path / "c.orient"
    _, peak = traced_peak(lambda: write_orientation(d, out))
    assert peak <= 4e6, peak
    assert out.read_bytes() == opath.read_bytes()


# -- evaluate_cotree ----------------------------------------------------------


def test_evaluate_cotree_peaks_under_twice_its_graph():
    g = threshold_graph(500)
    cot = quasi_threshold_cotree(g)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        h = evaluate_cotree(cot, g.n)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h == g
    assert peak - before <= 2 * (held - before), (peak - before,
                                                  held - before)


def test_evaluate_cotree_checks_its_leaves():
    leaf = CotreeLeaf
    # an isolated leaf out of range or repeated raises, edge or no edge
    for tree, n, message in (
            (CotreeUnion((leaf(0), leaf(3))), 3,
             "cotree leaf 3 out of range for n=3"),
            (CotreeUnion((leaf(0), leaf(-1))), 3,
             "cotree leaf -1 out of range for n=3"),
            (CotreeUnion((leaf(1), leaf(1))), 3, "cotree leaf 1 repeats"),
            (CotreeJoin((leaf(2), CotreeUnion((leaf(0), leaf(2))))), None,
             "cotree leaf 2 repeats")):
        with pytest.raises(ValueError) as err:
            evaluate_cotree(tree, n)
        assert str(err.value) == message
    # leaves in any order, children spanning both sides of each other
    tree = CotreeJoin((CotreeUnion((leaf(4), leaf(0))), leaf(2),
                       CotreeUnion((leaf(3), leaf(1)))))
    assert evaluate_cotree(tree, 6) == Graph(6, [
        (u, v) for u, v in itertools.combinations(range(5), 2)
        if (u in (0, 4)) + (v in (0, 4)) != 2
        and (u in (1, 3)) + (v in (1, 3)) != 2])
