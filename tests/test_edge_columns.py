"""A Graph stores its edges as two int columns, lo and hi, whose entries (and
adj's) are one shared int object per vertex: no per-edge tuple or int.
The package's own edge walks read the columns; the edges property, a new
list of pairs on every read, is for callers outside it."""

import ast
import gc
import itertools
import random
import tracemalloc
from pathlib import Path

import pytest

from orientkit.graph import (Graph, disjoint_union, format_graph, join,
                             parse_graph, read_graph, write_graph)
from orientkit.instances import random_class_instance, reduce_vertex_cover
from orientkit.orientation import Orientation, parse_orientation
from oracles import (cubic_graph, from_arcs_oracle, orient_large_corpus,
                     recognizer_corpus, relabeled, threshold_graph)
from test_neighbour_fill import assert_fills_like_the_eager_build

SOURCES = sorted((Path(__file__).resolve().parent.parent
                  / "src" / "orientkit").glob("*.py"))


def _edges_reads(tree):
    """Line numbers of every .edges attribute in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "edges":
            yield node.lineno


def test_package_modules_walk_the_columns():
    assert SOURCES
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _edges_reads(ast.parse(path.read_text(
                 encoding="utf-8")))]
    assert found == []


def test_the_scan_sees_each_spelling():
    for text in ("g.edges", "for u, v in self.graph.edges: pass",
                 "list(zip(x.edges, heads))", "es = list(g.edges) + extra",
                 "self.edges = []"):
        assert list(_edges_reads(ast.parse(text))), text
    # the property's own definition and the columns are not reads
    for text in ("class G:\n    @property\n    def edges(self): pass",
                 "zip(g.lo, g.hi)", "edges = []"):
        assert not list(_edges_reads(ast.parse(text))), text


# -- storage ------------------------------------------------------------------


def _held(make):
    """(result of make(), bytes it still holds once make has returned, its
    traced peak)."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        got = make()
        gc.collect()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, after - before, peak - before


def _filled(g):
    """g, once its neighbour lists are built."""
    g.adj
    return g


def _one_int_per_vertex(g):
    """Every entry of lo, hi and adj is an int, one object per vertex."""
    entries = list(itertools.chain(g.lo, g.hi, *g.adj))
    assert all(type(x) is int for x in entries)
    assert len({id(x) for x in entries}) == len(set(entries))


def test_every_build_shares_one_int_per_vertex(tmp_path):
    g = random_class_instance("uniform-block", 200, 1)
    assert g.n > 256   # Python caches the ints up to 256 only
    path = tmp_path / "g.graph"
    write_graph(g, path)
    fresh = [(int(str(u)), int(str(v))) for u, v in g.edges]
    builds = [g, read_graph(path), Graph(g.n, fresh),
              Graph(g.n, fresh[::-1]), relabeled(g, 3),
              g.induced(range(1, g.n))[0], g.complement(),
              disjoint_union(g, g), join(g, g),
              reduce_vertex_cover(cubic_graph(10, 10), 6).graph,
              random_class_instance("cograph", 800, 1),
              random_class_instance("quasi-threshold", 800, 1)]
    for h in builds:
        assert_fills_like_the_eager_build(h)
        _one_int_per_vertex(h)
        assert h.edges == list(zip(h.lo, h.hi))
        assert all(map(int.__lt__, h.lo, h.hi))


def test_the_reduction_read_holds_under_52_bytes_per_edge(tmp_path):
    red = reduce_vertex_cover(cubic_graph(12, 12), 7).graph
    assert (red.n, red.m) == (8028, 67194)
    path = tmp_path / "red.graph"
    write_graph(red, path)
    g, held, _ = _held(lambda: _filled(read_graph(path)))
    assert g == red
    assert held / g.m <= 52, held / g.m
    # unfilled, as verify reads it: the columns and the vertex ints
    g, held, _ = _held(lambda: read_graph(path))
    assert g == red
    assert held / g.m <= 24, held / g.m


def test_reading_a_cograph_800_peaks_under_4_mb(tmp_path):
    path = tmp_path / "cograph.graph"
    write_graph(random_class_instance("cograph", 800, 1), path)
    g, _, peak = _held(lambda: read_graph(path))
    assert g.m == 105997
    assert peak <= 4e6, peak


def test_a_cograph_800_holds_under_4_5_mb():
    # the generator's graph, and one built from pairs of fresh ints, which
    # the graph must not keep
    g, held, _ = _held(lambda: _filled(
        random_class_instance("cograph", 800, 1)))
    assert g.m == 105997
    assert held <= 4.5e6, held
    fresh = [(int(str(u)), int(str(v))) for u, v in g.edges]
    h, held, _ = _held(lambda: _filled(Graph(g.n, fresh)))
    assert h == g
    assert held <= 4.5e6, held


def test_the_2100_vertex_threshold_graph_holds_under_40_mb():
    n = 2100
    g, held, _ = _held(lambda: _filled(Graph(n, ((u, v)
                                                 for v in range(1, n, 2)
                                                 for u in range(v)))))
    assert g.m == 1102500
    assert held <= 40e6, held


# -- orientations on the columns ----------------------------------------------


MALFORMED_ARCS = [(0, 1, 2), (0,), 5, None, "01", ("0", "1"), (0, None),
                  (None, 0), (-1, 0)]


def _result(fn, graph, arcs):
    """Heads that fn reads from arcs, or the type and message it raises."""
    try:
        got = fn(graph, arcs)
    except (ValueError, TypeError) as err:
        return type(err), str(err)
    return tuple(got.heads if isinstance(got, Orientation) else got)


def test_from_arcs_matches_the_lookup_on_both_paths():
    rng = random.Random(8)
    cases = 0
    for g in itertools.islice(recognizer_corpus(), 0, None, 7):
        if not g.m:
            continue
        arcs = [(u, v) if rng.random() < 0.5 else (v, u)
                for u, v in zip(g.lo, g.hi)]
        shuffled = arcs[:]
        rng.shuffle(shuffled)
        copies = [arcs, shuffled, arcs[:-1], arcs + arcs[:1],
                  [list(a) for a in arcs]]
        for bad in MALFORMED_ARCS:
            at = rng.randrange(g.m)
            copies.append(arcs[:at] + [bad] + arcs[at + 1:])
            copies.append(shuffled[:at] + [bad] + shuffled[at:])
        for copy in copies:
            want = _result(from_arcs_oracle, g, copy)
            assert _result(Orientation.from_arcs, g, copy) == want, copy
            cases += 1
    assert cases > 1000


def test_parsed_orientations_match_the_lookup():
    for g in orient_large_corpus():
        heads = [v if (u * 7 + v) % 3 else u for u, v in zip(g.lo, g.hi)]
        d = Orientation(g, heads)
        text = "".join(f"{t} {h}\n" for t, h in d.arcs())
        assert parse_orientation(f"{g.n} {g.m}\n" + text, g) == d
        lines = text.splitlines(keepends=True)
        random.Random(g.m).shuffle(lines)
        assert parse_orientation(f"{g.n} {g.m}\n" + "".join(lines), g) == d


def test_a_head_off_its_edge_names_the_edge():
    g = Graph(4, [(2, 3), (0, 1), (1, 2)])
    for heads, message in (([1, 2, 1], "head 1 is not an endpoint of (2,3)"),
                           ([2, 2, 3], "head 2 is not an endpoint of (0,1)"),
                           ([0, 3, 3], "head 3 is not an endpoint of (1,2)")):
        with pytest.raises(ValueError) as err:
            Orientation(g, heads)
        assert str(err.value) == message


def test_text_io_on_the_columns_is_byte_identical():
    for g in itertools.chain(orient_large_corpus(), [threshold_graph(40)]):
        text = format_graph(g)
        assert text == f"{g.n} {g.m}\n" + "".join(
            f"{u} {v}\n" for u, v in g.edges)
        assert parse_graph(text) == g
