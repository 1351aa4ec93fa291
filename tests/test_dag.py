"""Vertex classification and the two cycle-rank computations."""

from __future__ import annotations

import pytest

from reebtrees import (
    ReticulationConflict,
    VertexKind,
    betti_euler,
    betti_reticulation,
    build_dag_view,
    classify_vertex,
    make_graph,
    source_vertices,
)
from conftest import SAFE_SHAPES, corpus


def test_kind_values():
    assert VertexKind.TREE.value == "tree"
    assert VertexKind.RETICULATION.value == "reticulation"
    assert VertexKind.LEAF.value == "leaf"
    assert VertexKind.REGULAR.value == "regular"


def test_classification(cycle_graph):
    g = cycle_graph
    r = classify_vertex(g, "r")
    assert r.kind is VertexKind.RETICULATION
    assert (r.indegree, r.outdegree, r.level_index) == (2, 3, 1)
    assert not r.is_leaf
    assert classify_vertex(g, "a").kind is VertexKind.REGULAR
    assert classify_vertex(g, "b").kind is VertexKind.TREE
    assert classify_vertex(g, "w").kind is VertexKind.TREE
    for leaf in ("l1", "l2", "l3", "l4"):
        c = classify_vertex(g, leaf)
        assert c.kind is VertexKind.LEAF and c.is_leaf


def test_merge_leaf_is_both(triple_edge):
    c = classify_vertex(triple_edge, "r")
    assert c.kind is VertexKind.RETICULATION
    assert c.is_leaf
    assert c.indegree == 3


def test_lone_stem_counts_as_leaf():
    g = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
    c = classify_vertex(g, "b")
    assert c.is_leaf and c.indegree == 0 and c.outdegree == 1


def test_betti_agreement(cycle_graph, triple_edge):
    assert betti_euler(cycle_graph) == betti_reticulation(cycle_graph) == 1
    assert betti_euler(triple_edge) == betti_reticulation(triple_edge) == 2


def test_view_summary(cycle_graph):
    assert build_dag_view(cycle_graph) == 1
    classes = [classify_vertex(cycle_graph, v) for v in cycle_graph.vertex_ids()]
    assert sorted(c.vertex for c in classes if c.is_leaf) == ["l1", "l2", "l3", "l4"]
    assert [c.vertex for c in classes] == list(cycle_graph.vertex_ids())
    assert [c.kind for c in classes if c.vertex == "a"] == [VertexKind.REGULAR]


def test_betti_ignores_missing_down_targets():
    # Edges e2 and e3 end at "ghost", which is no vertex; validate reports
    # them, and the merge count leaves them out.
    from reebtrees import validate

    g = make_graph(
        [0, 1, 2],
        [["x"], ["m"], ["t"]],
        [[("e1", "x", "m"), ("e2", "ghost", "m"), ("e3", "ghost", "m")], [("f", "m", "t")]],
    )
    assert any("ghost" in line for line in validate(g))
    assert g.above_edges["ghost"] == ("e2", "e3")
    assert betti_reticulation(g) == 0


def test_multiple_sources_rejected(twin_peaks):
    assert source_vertices(twin_peaks) == ("s1", "s2")
    with pytest.raises(ReticulationConflict) as err:
        build_dag_view(twin_peaks)
    assert str(err.value) == (
        "cycle-rank mismatch: euler count 0 vs merge count 1 "
        "(2 source vertices: s1, s2)"
    )
    # Three sources over a bigon: the merge count is the Euler count plus
    # the sources less one.
    three = make_graph(
        [0, 1, 2],
        [["x", "y"], ["m"], ["s1", "s2", "s3"]],
        [
            [("f1", "x", "m"), ("f2", "y", "m")],
            [("g1", "m", "s1"), ("g2", "m", "s1"), ("g3", "m", "s2"), ("g4", "m", "s3")],
        ],
    )
    with pytest.raises(ReticulationConflict) as err:
        build_dag_view(three)
    assert str(err.value) == (
        "cycle-rank mismatch: euler count 1 vs merge count 3 "
        "(3 source vertices: s1, s2, s3)"
    )


def test_generated_graphs_classify_cleanly():
    for g in corpus(SAFE_SHAPES, range(5)):
        assert build_dag_view(g) == betti_euler(g) == betti_reticulation(g)
        assert sum(1 for _ in source_vertices(g)) == 1
