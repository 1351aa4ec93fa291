"""Model construction, validation messages, and level-set surgery."""

from __future__ import annotations

import ast
import os
import random
import re
import subprocess
import sys
import tracemalloc
import types
from collections import Counter
from dataclasses import replace
from itertools import chain
from math import gcd
from pathlib import Path
from fractions import Fraction
from typing import Mapping, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reebtrees
from reebtrees import (
    BadLevelSet,
    GeneratorSpec,
    InfeasibleSpec,
    LevelPoset,
    OrderConflict,
    ReebError,
    ReebGraph,
    as_level,
    brute_force_iso,
    common_refinement,
    dump_text,
    enewick_to_reeb,
    format_level,
    load_text,
    make_graph,
    minimize_critical_set,
    parse_level,
    random_graph,
    refine_to_levels,
    validate,
)

from reebtrees.core import RESERVED_VERTEX_PREFIX, _dangling
from reebtrees.isomorphism import _prefilter

from conftest import corpus, dated_caterpillar, rename_graph, shuffle_ids
from test_enewick import dated_texts
from test_isomorphism import random_covers


class TestLevels:
    def test_coercions(self):
        assert as_level(3) == Fraction(3)
        assert as_level("-1.25") == Fraction(-5, 4)
        assert as_level("2/3") == Fraction(2, 3)
        assert as_level(Fraction(7, 2)) == Fraction(7, 2)

    def test_floats_refused(self):
        with pytest.raises(TypeError):
            as_level(0.5)

    def test_format_decimal_and_ratio(self):
        assert format_level(Fraction(3)) == "3"
        assert format_level(Fraction(-5, 4)) == "-1.25"
        assert format_level(Fraction(1, 3)) == "1/3"
        assert format_level(Fraction(7, 50)) == "0.14"
        assert format_level(Fraction(-1, 8)) == "-0.125"

    @given(st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**6))
    def test_format_parse_round_trip(self, x):
        assert parse_level(format_level(x)) == x


class TestLevelPoset:
    def test_trivial(self):
        p = LevelPoset.trivial(["a", "b"])
        assert p.is_trivial
        assert p.leq("a", "a")
        assert not p.leq("a", "b")

    def test_transitive_closure(self):
        p = LevelPoset(frozenset("abcd"), frozenset([("a", "b"), ("b", "c")]))
        assert p.leq("a", "c")
        assert p.strictly_above("a") == {"b", "c"}
        assert not p.leq("c", "a")
        assert not p.leq("a", "d")
        assert not p.has_cycle

    def test_cycle_detection(self):
        p = LevelPoset(frozenset("ab"), frozenset([("a", "b"), ("b", "a")]))
        assert p.has_cycle

    def test_cycle_beside_acyclic_parts(self):
        # A cycle beside acyclic parts, below them, and a loop on one element.
        for covers in (
            [("a", "b"), ("b", "a"), ("c", "d"), ("e", "f")],
            [("c", "a"), ("a", "b"), ("b", "a"), ("b", "d")],
            [("c", "c"), ("c", "d")],
        ):
            assert LevelPoset(frozenset("abcdef"), frozenset(covers)).has_cycle
        dag = frozenset([("a", "b"), ("c", "b"), ("b", "d")])
        assert not LevelPoset(frozenset("abcd"), dag).has_cycle


def test_make_graph_shape_errors():
    with pytest.raises(ValueError, match="vertex sets"):
        make_graph([0, 1], [["a"]], [[("e", "a", "b")]])
    with pytest.raises(ValueError, match="edge sets"):
        make_graph([0, 1], [["a"], ["b"]], [])
    with pytest.raises(ValueError, match="duplicate edge id"):
        make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b"), ("e", "a", "b")]])
    with pytest.raises(ValueError, match="cover lists"):
        make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]], vertex_covers=[[]])
    with pytest.raises(ValueError, match="label maps"):
        make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]], labels=[])


def test_valid_fixture(cycle_graph):
    assert validate(cycle_graph) == []


def test_degree_bookkeeping(cycle_graph):
    g = cycle_graph
    assert g.above_edges["r"] == ("e5", "e6")
    assert g.below_edges["r"] == ("e1", "e2", "e3")
    assert g.indeg("r") == 2
    assert g.outdeg("w") == 2
    assert g.indeg("w") == 0
    assert list(g.vertex_ids())[:3] == ["l2", "l3", "l4"]
    assert g.vertex_level["w"] == 3
    assert g.edge_gap["e5"] == 1


def test_validate_reports_empty_sets():
    g = make_graph([0, 1, 2], [["a"], [], ["c"]], [[("e", "a", "x")], []])
    report = validate(g)
    assert "empty vertex set at level 1" in report
    assert "empty edge set at gap 1" in report


def test_validate_reports_level_order():
    g = make_graph([1, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    assert "levels not strictly increasing at index 0 (1 >= 1)" in validate(g)


def test_validate_reports_duplicates_and_clashes():
    g = make_graph([0, 1], [["a"], ["a"]], [[("e", "a", "a")]])
    report = validate(g)
    assert "duplicate vertex id 'a' at levels 0 and 1" in report
    g2 = make_graph([0, 1], [["a"], ["e"]], [[("e", "a", "e")]])
    assert "id 'e' used as both vertex and edge" in validate(g2)


def test_validate_reports_dangling_targets():
    g = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "missing")]])
    assert any(x.startswith("dangling up_map target 'missing'") for x in validate(g))


def test_validate_reports_domain_mismatch():
    g = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    broken = replace(g, down_maps=({},))
    assert "down_map domain mismatch at gap 0" in validate(broken)


def test_validate_reports_order_list_lengths(cycle_graph):
    # One order per level and one per gap; a graph built with replace can
    # hold fewer or more, which validate reports instead of raising.
    g = replace(
        cycle_graph,
        vertex_orders=(LevelPoset(cycle_graph.vertex_sets[0], frozenset({("l2", "l3")})),
                       *cycle_graph.vertex_orders[1:]),
    )
    extra = LevelPoset.trivial(["x"])
    vs, es = g.vertex_orders, g.edge_orders
    for change, line in (
        ({"vertex_orders": vs[:-1]}, "vertex order list length mismatch (3 for 4 levels)"),
        ({"vertex_orders": (*vs, extra)}, "vertex order list length mismatch (5 for 4 levels)"),
        ({"edge_orders": es[:-1]}, "edge order list length mismatch (2 for 3 gaps)"),
        ({"edge_orders": (*es, extra)}, "edge order list length mismatch (4 for 3 gaps)"),
    ):
        assert validate(replace(g, **change)) == [line]
    assert validate(replace(g, vertex_orders=(), edge_orders=())) == [
        "vertex order list length mismatch (0 for 4 levels)",
        "edge order list length mismatch (0 for 3 gaps)",
    ]
    # So are the vertex sets, one per level, and the edge sets and maps, one
    # of each per gap; the checked skeleton raises the line.  A short list raised an
    # IndexError, and an extra up map went unread.
    g = random_graph(GeneratorSpec(seed=1, n_leaves=3, betti=1, levels=3))
    for change, line in (
        ({"down_maps": g.down_maps[:-1]}, "down map list length mismatch (1 for 2 gaps)"),
        ({"up_maps": g.up_maps[:-1]}, "up map list length mismatch (1 for 2 gaps)"),
        ({"vertex_sets": g.vertex_sets[:-1]}, "vertex set list length mismatch (2 for 3 levels)"),
        ({"up_maps": (*g.up_maps, {})}, "up map list length mismatch (3 for 2 gaps)"),
        ({"edge_sets": g.edge_sets[:-1]}, "edge set list length mismatch (1 for 2 gaps)"),
        ({"edge_sets": (*g.edge_sets, {"x"})}, "edge set list length mismatch (3 for 2 gaps)"),
    ):
        h = replace(g, **change)
        assert validate(h)[0] == line
        with pytest.raises(ValueError) as info:
            replace(h)._checked_skeleton
        assert str(info.value) == line
    # Levels and gaps are counted from the levels alone: a short vertex set
    # list blames no order list, and a short edge set list no map list.
    for change, lines in (
        ({"vertex_sets": g.vertex_sets[:-1]}, ["vertex set list length mismatch (2 for 3 levels)"]),
        (
            {"vertex_sets": g.vertex_sets[:-1], "vertex_orders": g.vertex_orders[:-1]},
            [
                "vertex set list length mismatch (2 for 3 levels)",
                "vertex order list length mismatch (2 for 3 levels)",
            ],
        ),
        ({"edge_sets": g.edge_sets[:-1]}, ["edge set list length mismatch (1 for 2 gaps)"]),
        (
            {"edge_sets": g.edge_sets[:-1], "edge_orders": g.edge_orders[:-1]},
            [
                "edge set list length mismatch (1 for 2 gaps)",
                "edge order list length mismatch (1 for 2 gaps)",
            ],
        ),
    ):
        report = validate(replace(g, **change))
        assert [x for x in report if "list length" in x] == lines


def test_validate_counts_label_maps_from_the_levels():
    # A correctly labelled graph with one edge set too few or too many gets
    # the edge set line alone, and no IndexError from the label maps; a
    # label list one too short or too long names both counts.
    g = make_graph(
        [0, 1, 2],
        [["a", "b"], ["c"], ["d"]],
        [[("e", "a", "c"), ("f", "b", "c")], [("h", "c", "d")]],
        labels=[{"e": "x", "f": "y"}, {"h": "z"}],
    )
    assert validate(g) == []
    for edge_sets, line in (
        (g.edge_sets[:-1], "edge set list length mismatch (1 for 2 gaps)"),
        ((*g.edge_sets, frozenset({"x"})), "edge set list length mismatch (3 for 2 gaps)"),
    ):
        report = validate(replace(g, edge_sets=edge_sets))
        assert line in report and not [x for x in report if "label" in x], report
    for labels, line in (
        (g.edge_labels[:-1], "label list length mismatch (1 for 2 gaps)"),
        ((*g.edge_labels, {"x": "w"}), "label list length mismatch (3 for 2 gaps)"),
    ):
        assert validate(replace(g, edge_labels=labels)) == [line]


def test_validate_reports_order_cycle():
    g = make_graph(
        [0, 1],
        [["a", "b"], ["c"]],
        [[("e", "a", "c"), ("f", "b", "c")]],
        vertex_covers=[[("a", "b"), ("b", "a")], []],
        edge_covers=[[]],
    )
    assert "non-poset vertex order at index 0 (cycle in covers)" in validate(g)


def test_validate_reports_only_the_cycle_under_renaming():
    # A 3-cycle in level 0's vertex order, and edge covers on the gap above
    # it whose down-map images are related only through the cycle.  Whether
    # the down map respects them would depend on where the cycle is cut, so
    # only the cycle is reported, whatever the ids.
    text = (Path(__file__).parent / "data" / "cyclic_vertex_order.json").read_text()
    graph, _ = load_text(text)
    for k in range(30):
        assert validate(rename_graph(graph, f"t{k}_")) == [
            "non-poset vertex order at index 0 (cycle in covers)"
        ]


def _long_chain(n: int, back_cover: bool = False):
    """n bottom vertices chained in one level order, all under one top."""
    vs = [f"v{i}" for i in range(n)]
    covers = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if back_cover else [])
    return make_graph(
        [0, 1],
        [vs, ["top"]],
        [[(f"e{i}", v, "top") for i, v in enumerate(vs)]],
        vertex_covers=[covers, []],
    )


def test_validate_long_order_chain():
    # Deeper than the interpreter's recursion limit.  Finding a cycle needs
    # no transitive closure, which would take O(n^2) memory on a chain.
    chain, cyclic = _long_chain(3000), _long_chain(3000, back_cover=True)
    tracemalloc.start()
    try:
        assert validate(chain) == []
        assert "non-poset vertex order at index 0 (cycle in covers)" in validate(cyclic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_validate_reports_non_monotone_attachment():
    # Edge order says e < f but their bottom endpoints are unrelated.
    g = make_graph(
        [0, 1],
        [["a", "b"], ["c"]],
        [[("e", "a", "c"), ("f", "b", "c")]],
        edge_covers=[[("e", "f")]],
    )
    assert "non-monotone down_map at gap 0: cover ('e', 'f')" in validate(g)
    ok = make_graph(
        [0, 1],
        [["a", "b"], ["c"]],
        [[("e", "a", "c"), ("f", "b", "c")]],
        vertex_covers=[[("a", "b")], []],
        edge_covers=[[("e", "f")]],
    )
    assert validate(ok) == []


def test_validate_reports_label_problems():
    g = make_graph(
        [0, 1],
        [["a", "b"], ["c"]],
        [[("e", "a", "c"), ("f", "b", "c")]],
        labels=[{"e": "x", "f": "x"}],
    )
    assert "non-bijective labels at gap 0" in validate(g)
    g2 = make_graph(
        [0, 1], [["a"], ["c"]], [[("e", "a", "c")]], labels=[{"wrong": "x"}]
    )
    assert "label domain mismatch at gap 0" in validate(g2)


def test_validate_reserved_prefix():
    g = make_graph([0, 1], [["cut:x"], ["b"]], [[("e", "cut:x", "b")]])
    assert "reserved id prefix 'cut:' on 'cut:x'" in validate(g)
    assert validate(g, allow_cut_ids=True) == []


def test_validate_reports_disconnection():
    g = make_graph(
        [0, 1],
        [["a", "b"], ["c", "d"]],
        [[("e", "a", "c"), ("f", "b", "d")]],
    )
    assert "disconnected graph (2 components)" in validate(g)


def reference_component_count(graph: ReebGraph) -> int:
    """validate's union-find over ids as it was before the linear sweep."""
    seen_v, seen_e = graph.vertex_level, graph.edge_gap
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    ids = set(seen_v) | set(seen_e)
    for x in ids:
        find(x)
    for i in range(graph.gap_count):
        for e in graph.edge_sets[i]:
            d = graph.down_maps[i].get(e)
            u = graph.up_maps[i].get(e)
            if d in seen_v:
                union(e, d)
            if u in seen_v:
                union(e, u)
    return len({find(x) for x in ids})


def pieces_graph(rng: random.Random, pieces: int) -> ReebGraph:
    """``pieces`` connected three-level pieces side by side, plus links that
    dangle at one end, edge ids equal to another piece's vertex ids and
    vertex ids repeated on another level."""
    vertices: list[list[str]] = [[], [], []]
    gaps: list[list[tuple[str, str, str]]] = [[], []]
    for p in range(pieces):
        ids = [[f"p{p}v{i}{j}" for j in range(rng.randint(1, 3))] for i in range(3)]
        for i in range(3):
            vertices[i] += ids[i]
        # Every vertex hangs on the first vertex of a neighbouring level.
        for i in range(2):
            lower, upper = ids[i], ids[i + 1]
            links = [(v, upper[0]) for v in lower] + [(lower[0], v) for v in upper[1:]]
            for j, (lo, hi) in enumerate(links):
                gaps[i].append((f"p{p}e{i}{j}", lo, hi))
            if rng.random() < 0.3:
                dangling = (rng.choice(lower), "zz") if rng.random() < 0.5 else ("zz", upper[0])
                gaps[i].append((f"p{p}d{i}", *dangling))
    everything = [v for level in vertices for v in level]
    for i in range(2):
        if rng.random() < 0.2:
            gaps[i].append((rng.choice(everything), rng.choice(vertices[i]), "zz"))
    if rng.random() < 0.2:
        vertices[rng.randrange(3)].append(rng.choice(everything))
    return make_graph([0, 1, 2], vertices, gaps)


def test_component_count_matches_union_find():
    rng = random.Random(616)
    counts: Counter = Counter()
    for _ in range(400):
        g = pieces_graph(rng, rng.randint(1, 4))
        n = reference_component_count(g)
        counts[n] += 1
        report = validate(g)
        expected = [f"disconnected graph ({n} components)"] if n > 1 else []
        assert [x for x in report if x.startswith("disconnected")] == expected
        counts["shared id"] += any("as both vertex and edge" in x for x in report)
        counts["dangling"] += any(x.startswith("dangling") for x in report)
    assert all(counts[key] >= 50 for key in (1, 2, 3, 4, "shared id", "dangling")), counts


class TestMinimize:
    def test_noop_when_every_level_matters(self, cycle_graph):
        assert minimize_critical_set(cycle_graph) is cycle_graph

    def test_splices_regular_runs(self):
        g = make_graph(
            [0, 1, 2, 3],
            [["a"], ["m"], ["m2"], ["b"]],
            [[("lo", "a", "m")], [("mid", "m", "m2")], [("hi", "m2", "b")]],
        )
        out = minimize_critical_set(g)
        assert out.levels == (0, 3)
        assert out.edge_sets == (frozenset({"lo"}),)
        assert out.down_maps[0]["lo"] == "a"
        assert out.up_maps[0]["lo"] == "b"
        assert validate(out) == []

    def test_merged_gap_drops_labels(self):
        g = make_graph(
            [0, 1, 2],
            [["a"], ["m"], ["b"]],
            [[("lo", "a", "m")], [("hi", "m", "b")]],
            labels=[{"lo": "x"}, {"hi": "y"}],
        )
        out = minimize_critical_set(g)
        assert out.levels == (0, 2)
        assert out.gap_labels(0) is None

    def test_refuses_to_discard_covers(self):
        g = make_graph(
            [0, 1, 2],
            [["a1", "a2"], ["m1", "m2"], ["b"]],
            [
                [("e1", "a1", "m1"), ("e2", "a2", "m2")],
                [("f1", "m1", "b"), ("f2", "m2", "b")],
            ],
            vertex_covers=[[], [("m1", "m2")], []],
        )
        with pytest.raises(OrderConflict, match="removable level 1"):
            minimize_critical_set(g)
        # Edge relations inside the spliced run are refused as well, even on
        # input that never passed validation.
        g2 = make_graph(
            [0, 1, 2],
            [["a1", "a2"], ["m1", "m2"], ["b"]],
            [
                [("e1", "a1", "m1"), ("e2", "a2", "m2")],
                [("f1", "m1", "b"), ("f2", "m2", "b")],
            ],
            edge_covers=[[("e1", "e2")], []],
        )
        with pytest.raises(OrderConflict, match="spliced run"):
            minimize_critical_set(g2)


class TestRefine:
    def test_insert_one_level(self):
        g = make_graph(
            [0, 2],
            [["a", "b"], ["c"]],
            [[("e", "a", "c"), ("f", "b", "c")]],
            edge_covers=[[("e", "f")]],
            vertex_covers=[[("a", "b")], []],
            labels=[{"e": "E", "f": "F"}],
        )
        out = refine_to_levels(g, [0, 1, 2])
        assert out.levels == (0, 1, 2)
        assert out.vertex_sets[1] == frozenset({"e@1", "f@1"})
        assert out.edge_sets[0] == frozenset({"e.lo", "f.lo"})
        assert out.edge_sets[1] == frozenset({"e.hi", "f.hi"})
        assert out.gap_labels(0) == {"e.lo": "E.lo", "f.lo": "F.lo"}
        assert out.gap_labels(1) == {"e.hi": "E.hi", "f.hi": "F.hi"}
        assert ("e@1", "f@1") in out.vertex_orders[1].covers
        assert ("e.lo", "f.lo") in out.edge_orders[0].covers
        assert ("e.hi", "f.hi") in out.edge_orders[1].covers
        assert validate(out) == []

    def test_rejects_shrinking_or_escaping(self):
        g = make_graph([0, 2], [["a"], ["c"]], [[("e", "a", "c")]])
        with pytest.raises(BadLevelSet, match="must contain the current"):
            refine_to_levels(g, [0, 1])
        with pytest.raises(BadLevelSet, match="strictly inside"):
            refine_to_levels(g, [-1, 0, 2])

    def test_minimize_undoes_refinement_geometry(self, cycle_graph):
        fine = refine_to_levels(cycle_graph, [0, "0.5", 1, 2, "5/2", 3])
        assert validate(fine) == []
        back = minimize_critical_set(fine)
        assert back.levels == cycle_graph.levels
        assert [len(es) for es in back.edge_sets] == [len(es) for es in cycle_graph.edge_sets]


def counts(graph: ReebGraph) -> tuple[list[int], list[int]]:
    """Per-level vertex and per-gap edge counts."""
    return [len(vs) for vs in graph.vertex_sets], [len(es) for es in graph.edge_sets]


def edge_structure_cases(cycle_graph):
    """Pairs over one range whose refined counts differ."""
    return [
        (
            make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]]),
            make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b"), ("f", "a", "b")]]),
        ),
        (cycle_graph, make_graph([0, 3], [["a"], ["b"]], [[("e", "a", "b")]])),
    ]


def test_common_refinement_and_edge_structure(cycle_graph):
    a = refine_to_levels(cycle_graph, [0, 1, "3/2", 2, 3])
    b = refine_to_levels(cycle_graph, [0, "1/2", 1, 2, 3])
    ra, rb = common_refinement(a, b)
    assert ra.levels == rb.levels == (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
    assert counts(ra) == counts(rb)


def test_edge_structure_range_mismatch(cycle_graph):
    shifted = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    assert _prefilter(cycle_graph, shifted, None, None) is None
    with pytest.raises(BadLevelSet):
        common_refinement(cycle_graph, shifted)


def test_edge_structure_detects_difference(cycle_graph):
    for a, b in edge_structure_cases(cycle_graph):
        assert _prefilter(a, b, None, None) is None


# The one-pass refinement must match, id for id and message for message, the
# level-at-a-time insertion it replaced; below is that code, kept verbatim
# apart from the entry point's name.


def _split_gap_id(edge: str, part: str) -> str:
    return f"{edge}.{part}"


def _insert_level(graph: ReebGraph, value: Fraction) -> ReebGraph:
    """Insert one level strictly inside an existing gap, splitting every
    crossing edge in two around a fresh regular vertex."""
    gap = None
    for i in range(graph.gap_count):
        if graph.levels[i] < value < graph.levels[i + 1]:
            gap = i
            break
    if gap is None:
        raise BadLevelSet(f"level {format_level(value)} does not fall inside a gap")

    crossing = sorted(graph.edge_sets[gap])
    mid_name = {e: f"{e}@{format_level(value)}" for e in crossing}
    lo_name = {e: _split_gap_id(e, "lo") for e in crossing}
    hi_name = {e: _split_gap_id(e, "hi") for e in crossing}

    existing = set(graph.vertex_level) | set(graph.edge_gap)
    for fresh in list(mid_name.values()) + list(lo_name.values()) + list(hi_name.values()):
        if fresh in existing:
            raise ValueError(f"refinement id collision on {fresh!r}")

    levels = list(graph.levels)
    levels.insert(gap + 1, value)
    vsets = list(graph.vertex_sets)
    vsets.insert(gap + 1, frozenset(mid_name.values()))
    vorders = list(graph.vertex_orders)
    mid_covers = frozenset(
        (mid_name[lo], mid_name[hi]) for lo, hi in graph.edge_orders[gap].covers
    )
    vorders.insert(gap + 1, LevelPoset(frozenset(mid_name.values()), mid_covers))

    lo_triples = [(lo_name[e], graph.down_maps[gap][e], mid_name[e]) for e in crossing]
    hi_triples = [(hi_name[e], mid_name[e], graph.up_maps[gap][e]) for e in crossing]

    def rebuild_gap(triples):
        dn = {ei: d for ei, d, _ in triples}
        up = {ei: u for ei, _, u in triples}
        return frozenset(dn), dn, up

    esets = list(graph.edge_sets)
    downs = list(graph.down_maps)
    ups = list(graph.up_maps)
    eorders = list(graph.edge_orders)
    labels = list(graph.edge_labels) if graph.edge_labels is not None else None

    lo_set, lo_dn, lo_up = rebuild_gap(lo_triples)
    hi_set, hi_dn, hi_up = rebuild_gap(hi_triples)
    esets[gap : gap + 1] = [lo_set, hi_set]
    downs[gap : gap + 1] = [lo_dn, hi_dn]
    ups[gap : gap + 1] = [lo_up, hi_up]
    old_covers = graph.edge_orders[gap].covers
    eorders[gap : gap + 1] = [
        LevelPoset(lo_set, frozenset((lo_name[a], lo_name[b]) for a, b in old_covers)),
        LevelPoset(hi_set, frozenset((hi_name[a], hi_name[b]) for a, b in old_covers)),
    ]
    if labels is not None:
        old = labels[gap]
        if old is None:
            labels[gap : gap + 1] = [None, None]
        else:
            labels[gap : gap + 1] = [
                {lo_name[e]: f"{old[e]}.lo" for e in crossing},
                {hi_name[e]: f"{old[e]}.hi" for e in crossing},
            ]

    return ReebGraph(
        levels=tuple(levels),
        vertex_sets=tuple(vsets),
        edge_sets=tuple(esets),
        down_maps=tuple(downs),
        up_maps=tuple(ups),
        vertex_orders=tuple(vorders),
        edge_orders=tuple(eorders),
        edge_labels=tuple(labels) if labels is not None else None,
    )


def reference_refine_to_levels(
    graph: ReebGraph, new_levels: Sequence[Fraction | int | str]
) -> ReebGraph:
    """Return an equivalent graph over a finer level set.

    ``new_levels`` must contain every current level, and inserted values must
    fall strictly inside the current range; otherwise BadLevelSet is raised.
    Split edges take ".lo"/".hi" id and label suffixes, and orders are
    inherited segment-wise.
    """
    target = sorted({as_level(x) for x in new_levels})
    current = set(graph.levels)
    if not current <= set(target):
        missing = sorted(current - set(target))
        raise BadLevelSet(
            "new level set must contain the current one; missing "
            + ", ".join(format_level(x) for x in missing)
        )
    if target[0] != graph.levels[0] or target[-1] != graph.levels[-1]:
        raise BadLevelSet("inserted levels must fall strictly inside the level range")
    out = graph
    for value in target:
        if value not in current:
            out = _insert_level(out, value)
    return out


def renamed(graph: ReebGraph, names: dict[str, str]) -> ReebGraph:
    """``graph`` with the ids in ``names`` replaced, everywhere they occur."""

    def m(x: str) -> str:
        return names.get(x, x)

    def poset(p: LevelPoset) -> LevelPoset:
        return LevelPoset(
            frozenset(map(m, p.elements)), frozenset((m(a), m(b)) for a, b in p.covers)
        )

    labels = graph.edge_labels and tuple(
        d and {m(e): lab for e, lab in d.items()} for d in graph.edge_labels
    )
    return ReebGraph(
        levels=graph.levels,
        vertex_sets=tuple(frozenset(map(m, vs)) for vs in graph.vertex_sets),
        edge_sets=tuple(frozenset(map(m, es)) for es in graph.edge_sets),
        down_maps=tuple({m(e): m(v) for e, v in d.items()} for d in graph.down_maps),
        up_maps=tuple({m(e): m(v) for e, v in d.items()} for d in graph.up_maps),
        vertex_orders=tuple(map(poset, graph.vertex_orders)),
        edge_orders=tuple(map(poset, graph.edge_orders)),
        edge_labels=labels,
    )


def random_pairs(rng: random.Random, ids) -> frozenset[tuple[str, str]]:
    ids = sorted(ids)
    pairs = ((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :])
    return frozenset(p for p in pairs if rng.random() < 0.3)


FRACTIONS = [Fraction(n, d) for d in (2, 3, 4, 5, 8) for n in range(1, d) if gcd(n, d) == 1]
SUFFIXES = (".lo", ".hi", ".hi.lo", ".hi.hi", ".lo.hi", "@1/2", "@0.5", "@1/3", ".hi@0.75")


def decorated(graph: ReebGraph, rng: random.Random) -> ReebGraph:
    """Covers, full or partly-None labels, and a few ids renamed to what a
    refinement could name a fresh id (collisions, or names it frees first)."""
    graph = replace(
        graph,
        vertex_orders=tuple(
            LevelPoset(vs, random_pairs(rng, vs)) for vs in graph.vertex_sets
        ),
        edge_orders=tuple(LevelPoset(es, random_pairs(rng, es)) for es in graph.edge_sets),
    )
    mode = rng.randrange(3)
    if mode:
        graph = replace(graph, edge_labels=tuple(
            None if mode == 2 and rng.random() < 0.4 else {e: "L" + e for e in es}
            for es in graph.edge_sets
        ))
    ids = [*graph.vertex_level, *graph.edge_gap]
    names: dict[str, str] = {}
    for _ in range(rng.randrange(3)):
        target = rng.choice(ids)
        name = rng.choice(list(graph.edge_gap)) + rng.choice(SUFFIXES)
        if target not in names and name not in ids and name not in names.values():
            names[target] = name
    return renamed(graph, names)


def random_levels(graph: ReebGraph, rng: random.Random) -> list:
    """Every current level, as int, str or Fraction, and 0-3 values per gap
    (halves, thirds and so on, often shared across gaps); now and then one
    current level dropped or a value outside the range."""
    out: list = []
    for i, x in enumerate(graph.levels):
        out.append(rng.choice([int(x), str(x), format_level(x), x]))
        if i + 1 < graph.level_count:
            for f in rng.sample(FRACTIONS, rng.randrange(4)):
                y = x + f
                out.append(rng.choice([y, str(y), format_level(y)]))
    if rng.random() < 0.05:
        out.remove(out[0] if rng.random() < 0.5 else rng.choice(out))
    if rng.random() < 0.05:
        out.append(rng.choice([-1, graph.levels[-1] + 1]))
    rng.shuffle(out)
    return out


def outcome(refine, graph: ReebGraph, levels):
    try:
        out = refine(graph, levels)
    except Exception as exc:
        return type(exc), str(exc)
    covers = [p.covers for p in (*out.vertex_orders, *out.edge_orders)]
    return out, dump_text(out), covers, out is graph


def crafted_cases():
    """Hand-built collisions and freed names."""
    half = ["0", "1/2", "1"]
    two = ["0", "0.25", "1/2", "1"]

    def gap(*edges, top=("t",)):
        return make_graph([0, 1], [["b"], list(top)], [[(e, "b", "t") for e in edges]])

    yield gap("other", "other.hi"), half  # the first .hi is taken
    yield gap("other", top=("t", "other@1/2")), half  # 1/2 is written 0.5
    yield gap("other", top=("t", "other@0.5")), half
    yield gap("other", top=("t", "other@1/3")), ["0", "1/3", "1"]
    yield gap("x", "x.hi.lo"), two  # x.hi.lo is split before x.hi.lo is made
    yield gap("x", "x.hi.lo"), half
    yield gap("x", "x.lo"), half
    yield gap("x", "x.hi.hi"), two
    yield gap("x", "x.hi@1/2"), two
    yield gap("x", "x.hi@0.5"), ["0", "0.25", "0.5", "1"]
    # Across gaps: a.lo is freed by the split of gap 0 before gap 1 names it.
    chain = make_graph(
        [0, 1, 2], [["b"], ["m"], ["t"]], [[("a.lo", "b", "m")], [("a", "m", "t")]]
    )
    yield chain, ["0", "1/2", "1", "3/2", "2"]
    yield chain, ["0", "1", "3/2", "2"]
    flipped = make_graph(
        [0, 1, 2], [["b"], ["m"], ["t"]], [[("a", "b", "m")], [("a.lo", "m", "t")]]
    )
    yield flipped, ["0", "1/2", "1", "3/2", "2"]
    yield flipped, ["0", "1", "3/2", "2"]


def refinement_cases():
    yield from crafted_cases()
    rng = random.Random(20261018)
    for seed in range(400):
        spec = GeneratorSpec(
            seed=seed,
            n_leaves=rng.randint(2, 4),
            betti=rng.randint(0, 3),
            levels=rng.randint(2, 5),
            max_indeg=rng.choice([2, 3]),
        )
        try:
            graph = decorated(random_graph(spec), rng)
        except InfeasibleSpec:
            continue
        for _ in range(5):
            yield graph, random_levels(graph, rng)


class TestRefineMatchesReference:
    def test_seeded_and_crafted_cases(self):
        # Where the reference refuses a fresh id already in use, the
        # refinement extends it instead; its result is checked against the
        # reference's refinement of a copy whose ids no fresh id can repeat.
        rng = random.Random(36)
        kinds = Counter()
        for graph, levels in refinement_cases():
            got = outcome(refine_to_levels, graph, levels)
            want = outcome(reference_refine_to_levels, graph, levels)
            if want[0] is ValueError:
                assert "refinement id collision" in want[1]
                out = got[0]
                assert out.levels == tuple(sorted(set(map(as_level, levels))))
                if not validate(graph):
                    assert validate(out) == []
                    kinds["valid collision"] += 1
                copy = reference_refine_to_levels(shuffle_ids(graph, rng)[0], levels)
                assert brute_force_iso(out, copy, use_labels=graph.has_full_labels)
                kinds["collision"] += 1
            else:
                assert got == want, (graph, levels)
                kinds[got[0].__name__ if isinstance(got[0], type) else "graph"] += 1
        assert sum(kinds.values()) > 1500, kinds
        assert min(kinds["graph"], kinds["BadLevelSet"], kinds["valid collision"]) >= 20, kinds

    def test_freed_names_are_legal(self):
        g = make_graph([0, 1], [["b"], ["t"]], [[("x", "b", "t"), ("x.hi.lo", "b", "t")]])
        out = refine_to_levels(g, [0, "1/4", "1/2", 1])
        assert out.edge_sets[1] == {"x.hi.lo", "x.hi.lo.hi.lo"}
        assert validate(out) == []
        taken = make_graph([0, 1], [["b"], ["t"]], [[("x", "b", "t"), ("x.lo", "b", "t")]])
        out = refine_to_levels(taken, [0, "1/2", 1])
        assert out.edge_sets == ({"x.lo'", "x.lo.lo"}, {"x.hi", "x.lo.hi"})
        assert validate(out) == []


class TestRefineWork:
    def test_one_graph_for_many_levels(self, cycle_graph, monkeypatch):
        built = []
        init = ReebGraph.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ReebGraph, "__init__", counting)
        fine = refine_to_levels(cycle_graph, [0, "1/4", "1/2", 1, "4/3", "5/3", 2, "5/2", 3])
        assert len(fine.levels) == 9
        assert len(built) == 1 and built[0] is fine

    def test_equal_levels_are_returned_untouched(self, cycle_graph, monkeypatch):
        other = replace(cycle_graph, edge_labels=None)
        assert refine_to_levels(cycle_graph, [3, 2, 1, 0]) is cycle_graph

        def refuse(*args):
            raise AssertionError("refined a pair with equal levels")

        monkeypatch.setattr(reebtrees.core, "refine_to_levels", refuse)
        ra, rb = common_refinement(cycle_graph, other)
        assert ra is cycle_graph and rb is other


def test_runtime_imports_only_stdlib():
    # -S keeps the site hooks (.pth files) of this interpreter from loading
    # their own modules; installed packages stay importable through the
    # site-packages paths, so an optional third-party import would show.
    src = str(Path(reebtrees.__file__).resolve().parents[1])
    code = (
        "import site, sys\n"
        "sys.path += site.getsitepackages()\n"
        "import reebtrees, reebtrees.cli\n"
        "print('\\n'.join(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "reebtrees" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"reebtrees", "__main__"}
    assert not foreign, sorted(foreign)


def test_public_names():
    for name in reebtrees.__all__:
        assert not isinstance(getattr(reebtrees, name), types.ModuleType), name
    assert {"reeb_iso", "hausdorff_distance"} <= set(reebtrees.__all__)


# minimize_critical_set as it was before it read the skeleton, kept verbatim
# apart from its name (and its regularity test's) as the reference for the
# differential below.
def _reference_is_regular(graph: ReebGraph, v: str) -> bool:
    return graph.indeg(v) == 1 and graph.outdeg(v) == 1


def reference_minimize_critical_set(graph: ReebGraph) -> ReebGraph:
    k = graph.level_count
    keep = [0]
    for i in range(1, k - 1):
        if any(not _reference_is_regular(graph, v) for v in graph.vertex_sets[i]):
            keep.append(i)
    keep.append(k - 1)
    if len(keep) == k:
        return graph

    for a, b in zip(keep, keep[1:]):
        if b - a == 1:
            continue
        for lvl in range(a + 1, b):
            if not graph.vertex_orders[lvl].is_trivial:
                raise OrderConflict(
                    f"removable level {lvl} carries nontrivial order relations"
                )
        for gap in range(a, b):
            if not graph.edge_orders[gap].is_trivial:
                raise OrderConflict(
                    f"gap {gap} inside a spliced run carries nontrivial order relations"
                )

    new_levels = [graph.levels[i] for i in keep]
    new_vsets = [graph.vertex_sets[i] for i in keep]
    new_vorders = [graph.vertex_orders[i] for i in keep]
    new_edges: list[list[tuple[str, str, str]]] = []
    new_eorders: list[LevelPoset] = []
    had_labels = graph.edge_labels is not None
    new_labels: list[Mapping[str, str] | None] = []

    for a, b in zip(keep, keep[1:]):
        if b - a == 1:
            triples = [
                (e, graph.down_maps[a][e], graph.up_maps[a][e])
                for e in sorted(graph.edge_sets[a])
            ]
            new_edges.append(triples)
            new_eorders.append(graph.edge_orders[a])
            new_labels.append(graph.gap_labels(a))
            continue
        triples = []
        for e in sorted(graph.edge_sets[a]):
            cur = e
            gap = a
            while gap < b - 1:
                mid = graph.up_maps[gap][cur]
                nxt = graph.above_edges[mid]
                cur = nxt[0]
                gap += 1
            triples.append((e, graph.down_maps[a][e], graph.up_maps[b - 1][cur]))
        new_edges.append(triples)
        new_eorders.append(LevelPoset.trivial(t[0] for t in triples))
        new_labels.append(None)

    out = make_graph(
        new_levels,
        new_vsets,
        new_edges,
        labels=new_labels if had_labels else None,
    )
    return replace(
        out,
        vertex_orders=tuple(new_vorders),
        edge_orders=tuple(new_eorders),
    )


def minimize_outcome(minimize, graph):
    try:
        return minimize(graph)
    except OrderConflict as exc:
        return str(exc)


def with_spare_levels(graph: ReebGraph, rng: random.Random) -> ReebGraph:
    """``graph`` refined at one to four new values inside its range."""
    lo, hi = graph.levels[0], graph.levels[-1]
    values = set(graph.levels)
    count = graph.level_count + rng.randint(1, 4)
    while len(values) < count:
        values.add(lo + (hi - lo) * Fraction(rng.randrange(1, 64), 64))
    return refine_to_levels(graph, sorted(values))


def test_minimize_matches_the_degree_rule():
    # Generator graphs (merges of in-degree 2 and 3) with spare levels, and
    # dated trees and networks built from eNewick, whose graphs carry the
    # skeleton their networks record.
    rng = random.Random(20261019)
    shapes = [(2, 0, 3), (3, 1, 3), (3, 2, 4), (4, 3, 5), (5, 4, 6), (4, 2, 2)]
    graphs = []
    for max_indeg in (2, 3):
        for g in corpus(shapes, range(30), max_indeg=max_indeg):
            graphs += [g, with_spare_levels(g, rng)]
    graphs += [dated_caterpillar(taxa, moved) for taxa in (3, 8, 20) for moved in (None, 1)]
    for text in dated_texts(20261019, 200):
        try:
            graphs.append(enewick_to_reeb(text))
        except ReebError:
            pass
    # Edges of a gap that opens a spliced run whose lower end is a
    # pass-through vertex: their long edges start below the run.
    spliced = below = 0
    for g in graphs:
        want = reference_minimize_critical_set(g)
        got = minimize_critical_set(g)
        assert got == want
        assert (got is g) == (want is g)
        spliced += got is not g
        keep = [g.levels.index(x) for x in got.levels]
        for a, b in zip(keep, keep[1:]):
            if b - a > 1:
                dn = g.down_maps[a]
                below += sum(dn[e] not in g._skeleton.vertex_level for e in g.edge_sets[a])
    assert spliced >= 400, spliced
    assert below >= 600, below


def test_minimize_refuses_orders_as_the_degree_rule_did():
    # Random vertex and edge covers on generator graphs with and without
    # spare levels, and the same edge covers alone: the same OrderConflict,
    # or the same graph.
    rng = random.Random(7)
    shapes = [(3, 1, 3), (3, 2, 4), (4, 3, 5)]
    kinds = Counter()
    for max_indeg in (2, 3):
        for g in corpus(shapes, range(40), max_indeg=max_indeg):
            for h in (g, with_spare_levels(g, rng)):
                ordered = random_covers(h, rng)
                for x in (ordered, replace(ordered, vertex_orders=h.vertex_orders)):
                    want = minimize_outcome(reference_minimize_critical_set, x)
                    assert minimize_outcome(minimize_critical_set, x) == want
                    kinds[want.split()[0] if isinstance(want, str) else "graph"] += 1
    assert kinds["removable"] >= 50 and kinds["gap"] >= 10 and kinds["graph"] >= 50, kinds


# validate as it was before its checks asked C-level questions first, kept
# verbatim (apart from its name) as the reference for the differential below.
def reference_validate(graph: ReebGraph, *, allow_cut_ids: bool = False) -> list[str]:
    """Check every structural invariant; return a list of violations.

    An empty list means the graph is valid.  ``allow_cut_ids`` is used when
    re-checking decomposition output, which legitimately carries vertices with
    the reserved "cut:" prefix.
    """
    report: list[str] = []
    k = graph.level_count
    if k < 2:
        report.append(f"fewer than 2 levels ({k})")
    for i in range(k - 1):
        if graph.levels[i] >= graph.levels[i + 1]:
            report.append(
                f"levels not strictly increasing at index {i} "
                f"({format_level(graph.levels[i])} >= {format_level(graph.levels[i + 1])})"
            )
    for i, vs in enumerate(graph.vertex_sets):
        if not vs:
            report.append(f"empty vertex set at level {i}")
    for i, es in enumerate(graph.edge_sets):
        if not es:
            report.append(f"empty edge set at gap {i}")

    seen_v: dict[str, int] = {}
    for i, vs in enumerate(graph.vertex_sets):
        for v in vs:
            if v in seen_v:
                report.append(f"duplicate vertex id {v!r} at levels {seen_v[v]} and {i}")
            else:
                seen_v[v] = i
    seen_e: dict[str, int] = {}
    for i, es in enumerate(graph.edge_sets):
        for e in es:
            if e in seen_e:
                report.append(f"duplicate edge id {e!r} at gaps {seen_e[e]} and {i}")
            else:
                seen_e[e] = i
    for shared in sorted(seen_v.keys() & seen_e.keys()):
        report.append(f"id {shared!r} used as both vertex and edge")
    if not allow_cut_ids:
        for x in sorted({x for x in chain(seen_v, seen_e) if x.startswith(RESERVED_VERTEX_PREFIX)}):
            report.append(f"reserved id prefix {RESERVED_VERTEX_PREFIX!r} on {x!r}")

    for i in range(graph.gap_count):
        es = graph.edge_sets[i]
        for name, mp, targets, lvl in (
            ("down_map", graph.down_maps[i], graph.vertex_sets[i], i),
            ("up_map", graph.up_maps[i], graph.vertex_sets[i + 1], i + 1),
        ):
            if mp.keys() != es:
                report.append(f"{name} domain mismatch at gap {i}")
            dangling = [e for e in es if e in mp and mp[e] not in targets]
            for e in sorted(dangling):
                report.append(_dangling(name, mp, e, lvl))

    def check_order(poset: LevelPoset, carrier: frozenset[str], what: str, i: int):
        if poset.elements != carrier:
            report.append(f"{what} order elements mismatch at index {i}")
        if not poset.covers:
            return
        for lo, hi in sorted(poset.covers):
            if lo not in carrier or hi not in carrier:
                report.append(
                    f"{what} order cover ({lo!r}, {hi!r}) references unknown id at index {i}"
                )
        if poset.has_cycle:
            report.append(f"non-poset {what} order at index {i} (cycle in covers)")

    for i, poset in enumerate(graph.vertex_orders):
        check_order(poset, graph.vertex_sets[i], "vertex", i)
    for i, poset in enumerate(graph.edge_orders):
        check_order(poset, graph.edge_sets[i], "edge", i)

    for i in range(graph.gap_count):
        eo, below, above = graph.edge_orders[i], *graph.vertex_orders[i:i + 2]
        # A cycle at either end leaves no order for a map to respect.
        if not eo.covers or eo.has_cycle or below.has_cycle or above.has_cycle:
            continue
        for lo, hi in sorted(eo.covers):
            dn = graph.down_maps[i]
            up = graph.up_maps[i]
            if lo in dn and hi in dn and not below.leq(dn[lo], dn[hi]):
                report.append(f"non-monotone down_map at gap {i}: cover ({lo!r}, {hi!r})")
            if lo in up and hi in up and not above.leq(up[lo], up[hi]):
                report.append(f"non-monotone up_map at gap {i}: cover ({lo!r}, {hi!r})")

    if graph.edge_labels is not None:
        if len(graph.edge_labels) != graph.gap_count:
            report.append("label list length mismatch")
        else:
            for i, m in enumerate(graph.edge_labels):
                if m is None:
                    continue
                if set(m) != graph.edge_sets[i]:
                    report.append(f"label domain mismatch at gap {i}")
                if len(set(m.values())) != len(m):
                    report.append(f"non-bijective labels at gap {i}")

    # Connectivity over the incidence structure, using only well-formed links:
    # a union-find over one integer per id (an id used as both vertex and
    # edge is one node), merging components as links join them.
    index = {x: n for n, x in enumerate(dict.fromkeys(chain(seen_v, seen_e)))}
    parent = list(range(len(index)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = len(index)
    for dn, up, es in zip(graph.down_maps, graph.up_maps, graph.edge_sets):
        for e in es:
            for end in (dn.get(e), up.get(e)):
                if end in seen_v:
                    ra, rb = find(index[e]), find(index[end])
                    if ra != rb:
                        parent[ra] = rb
                        components -= 1
    if components > 1:
        report.append(f"disconnected graph ({components} components)")
    return report


_REPEAT = re.compile(r"duplicate (vertex|edge) id (.*) at (?:levels|gaps) \d+ and (\d+)$")


def in_validates_order(lines):
    """reference_validate's ``lines`` (or what it raised) with its duplicate-id
    lines, which it lists in set order, put in validate's order: vertices
    before edges, then by the later level or gap, then by id."""
    if not isinstance(lines, list):
        return lines

    def key(line):
        what, shown, later = _REPEAT.match(line).groups()
        return what == "edge", int(later), ast.literal_eval(shown)

    spots = [n for n, line in enumerate(lines) if _REPEAT.match(line)]
    out = list(lines)
    for n, line in zip(spots, sorted((lines[n] for n in spots), key=key)):
        out[n] = line
    return out


# The lines of validate that ReebGraph._checked_skeleton raises: all but a
# reserved prefix, the orders' own structure and disconnection.
_SKELETON_FAULT = re.compile(
    r"fewer than 2 levels |levels not strictly increasing |empty (?:vertex|edge) set "
    r"|duplicate (?:vertex|edge) id |id .* used as both vertex and edge$"
    r"|(?:vertex set|edge set|down map|up map) list length mismatch "
    r"|(?:down|up)_map domain mismatch |dangling (?:down|up)_map "
    r"|(?:vertex|edge) order cover .* references unknown id "
    r"|label list length mismatch |label domain mismatch |non-bijective labels "
)


def reference_checked_skeleton(graph: ReebGraph):
    """The first line of reference_lines, in validate's order, that
    reports a fault of _SKELETON_FAULT, raised as ValueError; with no such
    line, ``_skeleton``."""
    for line in reference_lines(graph, allow_cut_ids=False):
        if _SKELETON_FAULT.match(line):
            raise ValueError(line)
    return graph._skeleton


def raised(f, graph):
    """``f(graph)``, or the class and message it raised."""
    try:
        return f(graph)
    except Exception as exc:
        return type(exc), str(exc)


def reference_lines(graph: ReebGraph, allow_cut_ids: bool) -> list[str]:
    """reference_validate's lines in validate's order, under validate's
    label rule: a label list not one map per gap (counted from the levels)
    is reported with both counts, and the maps that pair with a gap are
    still checked, as reference_validate checks the list cut or padded with
    None to one map per gap."""
    gaps = graph.level_count - 1
    labels = graph.edge_labels
    fitted = graph
    if labels is not None and len(labels) != gaps:
        fitted = replace(graph, edge_labels=(*labels, *[None] * gaps)[:gaps])
    lines = in_validates_order(reference_validate(fitted, allow_cut_ids=allow_cut_ids))
    if fitted is not graph:
        later = ("label", "non-bijective", "disconnected")
        at = next((n for n, x in enumerate(lines) if x.startswith(later)), len(lines))
        lines.insert(at, f"label list length mismatch ({len(labels)} for {gaps} gaps)")
    return lines


def reference_report(graph: ReebGraph, allow_cut_ids: bool):
    """reference_lines, or what it raised."""
    return raised(lambda x: reference_lines(x, allow_cut_ids), graph)


def tree_scale_text(rng: random.Random, kind: str, n: int) -> str:
    """A tree like the benchmark's: caterpillar, balanced or random binary,
    taxa t0..t{n-1}, internal nodes named, lengths in halves or whole."""
    fractional = rng.random() < 0.5
    subtrees = [f"t{k}" for k in range(n)]
    counter = 0

    def join(a: str, b: str) -> str:
        nonlocal counter
        counter += 1
        la, lb = (rng.choice(("0.5", "1", "1.5", "2", "2.5")) if fractional
                  else str(rng.randint(1, 4)) for _ in range(2))
        return f"({a}:{la},{b}:{lb})i{counter}"

    if kind == "caterpillar":
        node = subtrees[0]
        for leaf in subtrees[1:]:
            node = join(node, leaf)
        return node + ";"
    while len(subtrees) > 1:
        if kind == "random":
            i, j = sorted(rng.sample(range(len(subtrees)), 2))
            b = subtrees.pop(j)
            a = subtrees.pop(i)
            subtrees.append(join(a, b))
        else:
            paired = [join(subtrees[k], subtrees[k + 1]) for k in range(0, len(subtrees) - 1, 2)]
            subtrees = paired + subtrees[len(subtrees) - len(subtrees) % 2:]
    return subtrees[0] + ";"


def validate_bases() -> list[ReebGraph]:
    """Unmutated inputs: the fixtures under tests/data, the eNewick corpus,
    seeded dated networks, benchmark-shaped trees of 50-300 taxa and
    generator graphs."""
    data = Path(__file__).parent / "data"
    out = []
    for path in sorted(data.glob("*.json")):
        try:
            out.append(load_text(path.read_text())[0])
        except ReebError:
            pass
    out += [enewick_to_reeb(p.read_text()) for p in sorted((data / "newick_corpus").glob("*.enwk"))]
    for text in dated_texts(7, 600):
        try:
            out.append(enewick_to_reeb(text))
        except (ReebError, ValueError):
            pass
    rng = random.Random(4242)
    for kind in ("caterpillar", "balanced", "random"):
        for n in (50, 120, 300):
            out.append(enewick_to_reeb(tree_scale_text(rng, kind, n)))
    shapes = [(3, 1, 3), (4, 2, 4), (5, 3, 5), (3, 0, 3), (6, 4, 6), (4, 3, 8)]
    for seed in range(10):
        for n, s, lv in shapes:
            try:
                out.append(random_graph(GeneratorSpec(
                    seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=3
                )))
            except InfeasibleSpec:
                pass
    return out


def _retarget(g: ReebGraph, rng: random.Random, far: bool) -> ReebGraph:
    """One edge end moved to another vertex; ``far`` moves an up end two
    levels up where there is one."""
    i = rng.choice([i for i in range(g.gap_count) if g.edge_sets[i]])
    e = rng.choice(sorted(g.edge_sets[i]))
    if far and i + 2 < g.level_count:
        side, target = "up_maps", rng.choice(sorted(g.vertex_sets[i + 2]))
    else:
        side, target = rng.choice(("down_maps", "up_maps")), rng.choice(sorted(g.vertex_level))
    maps = list(getattr(g, side))
    maps[i] = {**maps[i], e: target}
    return replace(g, **{side: tuple(maps)})


def _dangle(g: ReebGraph, rng: random.Random) -> ReebGraph:
    i = rng.randrange(g.gap_count)
    es = sorted(g.edge_sets[i])
    if not es:
        return g
    e = rng.choice(es)
    if rng.random() < 0.5:
        downs = list(g.down_maps)
        downs[i] = {**downs[i], e: "zz"}
        return replace(g, down_maps=tuple(downs))
    ups = list(g.up_maps)
    ups[i] = {**ups[i], e: "zz"}
    return replace(g, up_maps=tuple(ups))


def _reuse_vertex(g: ReebGraph, rng: random.Random) -> ReebGraph:
    i = rng.randrange(g.level_count)
    v = rng.choice(sorted(g.vertex_level))
    vsets = list(g.vertex_sets)
    vsets[i] = vsets[i] | {v}
    orders = list(g.vertex_orders)
    orders[i] = LevelPoset(vsets[i], orders[i].covers)
    return replace(g, vertex_sets=tuple(vsets), vertex_orders=tuple(orders))


def _reuse_edge(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """An edge id of one gap added to another, joining that gap's levels."""
    e = rng.choice(sorted(g.edge_gap))
    i = rng.randrange(g.gap_count)
    if not (g.vertex_sets[i] and g.vertex_sets[i + 1]):
        return g
    lo, hi = rng.choice(sorted(g.vertex_sets[i])), rng.choice(sorted(g.vertex_sets[i + 1]))
    esets, downs, ups, orders = (list(x) for x in (g.edge_sets, g.down_maps, g.up_maps, g.edge_orders))
    esets[i] = esets[i] | {e}
    downs[i] = {**downs[i], e: lo}
    ups[i] = {**ups[i], e: hi}
    orders[i] = LevelPoset(esets[i], orders[i].covers)
    labels = g.edge_labels
    if labels is not None and labels[i] is not None:
        labels = (*labels[:i], {**labels[i], e: "again"}, *labels[i + 1:])
    return replace(g, edge_sets=tuple(esets), down_maps=tuple(downs), up_maps=tuple(ups),
                   edge_orders=tuple(orders), edge_labels=labels)


def _renamed(g: ReebGraph, old: str, new: str) -> ReebGraph:
    return renamed(g, {old: new})


def _both_kinds(g: ReebGraph, rng: random.Random) -> ReebGraph:
    return _renamed(g, rng.choice(sorted(g.edge_gap)), rng.choice(sorted(g.vertex_level)))


def _cut_id(g: ReebGraph, rng: random.Random) -> ReebGraph:
    old = rng.choice(sorted(g.vertex_level) + sorted(g.edge_gap))
    return _renamed(g, old, "cut:" + old)


def _drop(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """A vertex or an edge left out of its set (its order and maps keep it),
    or an edge left out of its set, maps and order alike."""
    if rng.random() < 0.4:
        i = rng.randrange(g.level_count)
        if not g.vertex_sets[i]:
            return g
        v = rng.choice(sorted(g.vertex_sets[i]))
        vsets = list(g.vertex_sets)
        vsets[i] = vsets[i] - {v}
        return replace(g, vertex_sets=tuple(vsets))
    i = rng.randrange(g.gap_count)
    if not g.edge_sets[i]:
        return g
    e = rng.choice(sorted(g.edge_sets[i]))
    esets = list(g.edge_sets)
    esets[i] = esets[i] - {e}
    if rng.random() < 0.5:
        return replace(g, edge_sets=tuple(esets))
    downs, ups, orders = list(g.down_maps), list(g.up_maps), list(g.edge_orders)
    downs[i] = {x: v for x, v in downs[i].items() if x != e}
    ups[i] = {x: v for x, v in ups[i].items() if x != e}
    orders[i] = LevelPoset(esets[i], frozenset(c for c in orders[i].covers if e not in c))
    labels = g.edge_labels
    if labels is not None and labels[i] is not None:
        labels = (*labels[:i], {x: y for x, y in labels[i].items() if x != e}, *labels[i + 1:])
    return replace(g, edge_sets=tuple(esets), down_maps=tuple(downs), up_maps=tuple(ups),
                   edge_orders=tuple(orders), edge_labels=labels)


def _order_cycle(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """Covers around a cycle on a level or a gap, now and then with an
    unknown id."""
    which = "vertex_orders" if rng.random() < 0.5 else "edge_orders"
    orders = list(getattr(g, which))
    i = rng.randrange(len(orders))
    xs = sorted(orders[i].elements)
    if len(xs) < 2:
        xs.append("ghost")
    ring = rng.sample(xs, min(len(xs), rng.randint(2, 4)))
    covers = set(zip(ring, ring[1:] + ring[:1]))
    if rng.random() < 0.2:
        covers.add((ring[0], "ghost"))
    orders[i] = LevelPoset(orders[i].elements, orders[i].covers | covers)
    return replace(g, **{which: tuple(orders)})


def _non_monotone(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """Random covers on a level and its gaps; the edge covers often go
    against the vertex order."""
    return random_covers(g, rng) if rng.random() < 0.3 else decorated(g, rng)


def _second_component(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """A separate path over the two lowest levels, or a vertex on its own."""
    vsets, esets = list(g.vertex_sets), list(g.edge_sets)
    downs, ups = list(g.down_maps), list(g.up_maps)
    vorders, eorders = list(g.vertex_orders), list(g.edge_orders)
    i = rng.randrange(g.level_count)
    vsets[i] = vsets[i] | {"lone0"}
    vorders[i] = LevelPoset(vsets[i], vorders[i].covers)
    if i + 1 < g.level_count and rng.random() < 0.6:
        vsets[i + 1] = vsets[i + 1] | {"lone1"}
        vorders[i + 1] = LevelPoset(vsets[i + 1], vorders[i + 1].covers)
        esets[i] = esets[i] | {"lonely"}
        downs[i] = {**downs[i], "lonely": "lone0"}
        ups[i] = {**ups[i], "lonely": "lone1"}
        eorders[i] = LevelPoset(esets[i], eorders[i].covers)
    return replace(g, vertex_sets=tuple(vsets), edge_sets=tuple(esets), down_maps=tuple(downs),
                   up_maps=tuple(ups), vertex_orders=tuple(vorders), edge_orders=tuple(eorders))


def _bad_labels(g: ReebGraph, rng: random.Random) -> ReebGraph:
    labels = [None if rng.random() < 0.2 else {e: "L" + e for e in es} for es in g.edge_sets]
    i = rng.randrange(g.gap_count)
    roll = rng.random()
    if roll < 0.3:
        labels = labels[:-1]
    elif roll < 0.6 or not g.edge_sets[i]:
        labels[i] = {**(labels[i] or {}), "stranger": "L?"}
    else:
        labels[i] = {e: "same" for e in g.edge_sets[i]}
    return replace(g, edge_labels=tuple(labels))


def _level_faults(g: ReebGraph, rng: random.Random) -> ReebGraph:
    """Two levels swapped or equal, or a level's vertices or a gap's edges
    emptied."""
    roll = rng.random()
    if roll < 0.5 and g.level_count > 1:
        levels = list(g.levels)
        i = rng.randrange(g.level_count - 1)
        levels[i + 1] = levels[i] if roll < 0.2 else levels[i] - 1
        return replace(g, levels=tuple(levels))
    if roll < 0.75:
        i = rng.randrange(g.level_count)
        vsets = list(g.vertex_sets)
        vsets[i] = frozenset()
        return replace(g, vertex_sets=tuple(vsets))
    i = rng.randrange(g.gap_count)
    esets = list(g.edge_sets)
    esets[i] = frozenset()
    return replace(g, edge_sets=tuple(esets))


MUTATIONS = (
    lambda g, rng: _retarget(g, rng, far=False),
    lambda g, rng: _retarget(g, rng, far=True),
    _dangle,
    _reuse_vertex,
    _reuse_edge,
    _both_kinds,
    _cut_id,
    _drop,
    _order_cycle,
    _non_monotone,
    _second_component,
    _bad_labels,
    _level_faults,
)


class TestValidateMatchesReference:
    def test_seeded_graphs_and_their_mutations(self):
        rng = random.Random(20261019)
        kinds: Counter = Counter()
        graphs = 0
        for base in validate_bases():
            small = sum(map(len, base.vertex_sets)) < 400
            inputs = [base]
            if base.gap_count:
                for _ in range(4 if small else 1):
                    g = base
                    for _ in range(rng.choice((1, 1, 1, 2, 3))):
                        try:
                            g = rng.choice(MUTATIONS)(g, rng)
                        except IndexError:  # an earlier mutation emptied what it picks from
                            pass
                    inputs.append(g)
            for g in inputs:
                for allow in (True, False):
                    want = reference_report(g, allow)
                    assert raised(lambda x: validate(x, allow_cut_ids=allow), g) == want
                kinds.update(line.split()[0] for line in want)
                kinds["ok" if not want else "reported"] += 1
                # A fresh copy for each, so neither reads the other's caches.
                want = raised(reference_checked_skeleton, replace(g))
                got = raised(lambda x: x._checked_skeleton, replace(g))
                assert got == want
                graphs += 1
        assert graphs >= 2000, graphs
        for kind in ("ok", "duplicate", "id", "reserved", "dangling", "down_map", "up_map",
                     "vertex", "edge", "non-poset", "non-monotone", "label", "non-bijective",
                     "disconnected", "levels", "empty"):
            assert kinds[kind] >= 10, (kind, kinds)
