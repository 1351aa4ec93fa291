"""Model construction, validation messages, and level-set surgery."""

from __future__ import annotations

import types
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reebtrees
from reebtrees import (
    BadLevelSet,
    LevelPoset,
    OrderConflict,
    as_level,
    common_refinement,
    edge_sequence,
    format_level,
    is_valid,
    make_graph,
    minimize_critical_set,
    parse_level,
    refine_to_levels,
    same_edge_structure,
    validate,
)


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
    assert is_valid(cycle_graph)


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


def test_validate_reports_order_cycle():
    g = make_graph(
        [0, 1],
        [["a", "b"], ["c"]],
        [[("e", "a", "c"), ("f", "b", "c")]],
        vertex_covers=[[("a", "b"), ("b", "a")], []],
        edge_covers=[[]],
    )
    assert "non-poset vertex order at index 0 (cycle in covers)" in validate(g)


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
    # Deeper than the interpreter's recursion limit.
    assert validate(_long_chain(3000)) == []
    assert "non-poset vertex order at index 0 (cycle in covers)" in validate(
        _long_chain(3000, back_cover=True)
    )


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
        assert edge_sequence(back).cardinalities == edge_sequence(cycle_graph).cardinalities


def test_common_refinement_and_edge_structure(cycle_graph):
    a = refine_to_levels(cycle_graph, [0, 1, "3/2", 2, 3])
    b = refine_to_levels(cycle_graph, [0, "1/2", 1, 2, 3])
    ra, rb = common_refinement(a, b)
    assert ra.levels == rb.levels == (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
    assert same_edge_structure(a, b)
    assert edge_sequence(ra).cardinalities == edge_sequence(rb).cardinalities


def test_edge_structure_range_mismatch(cycle_graph):
    shifted = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    assert not same_edge_structure(cycle_graph, shifted)
    with pytest.raises(BadLevelSet):
        common_refinement(cycle_graph, shifted)


def test_edge_structure_detects_difference():
    a = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    b = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b"), ("f", "a", "b")]])
    assert not same_edge_structure(a, b)


def test_public_names():
    for name in reebtrees.__all__:
        assert not isinstance(getattr(reebtrees, name), types.ModuleType), name
    assert {"reeb_iso", "hausdorff_distance"} <= set(reebtrees.__all__)
