"""Shared fixtures: small handmade graphs plus corpus builders."""

from __future__ import annotations

import random
from typing import Callable

import pytest

from reebtrees import (
    GeneratorSpec,
    LevelPoset,
    ReebGraph,
    brute_force_iso,
    cophenetic_vector,
    decompose,
    glue_back,
    make_graph,
    network_to_reeb,
    parse_enewick,
    random_graph,
    reeb_iso,
    refine_to_levels,
    validate,
)
from reebtrees.phylo import network_factors


def rename_graph(graph: ReebGraph, tag: str = "z") -> ReebGraph:
    """Apply a trivial id bijection (prefix with the tag, reverse the rest) to
    every vertex and edge.  The result is isomorphic to the input by
    construction."""

    def m(x: str) -> str:
        return tag + x[::-1]

    return relabel(graph, m, m)


def shuffle_ids(graph: ReebGraph, rng: random.Random) -> tuple[ReebGraph, dict[str, str]]:
    """``graph`` under a random id bijection, whose new ids sort in an order
    unrelated to the old ones, and the bijection on its vertex ids."""
    vs, es = sorted(graph.vertex_level), sorted(graph.edge_gap)
    vertex = dict(zip(vs, (f"v{n}" for n in rng.sample(range(len(vs)), len(vs)))))
    edge = dict(zip(es, (f"e{n}" for n in rng.sample(range(len(es)), len(es)))))
    return relabel(graph, vertex.__getitem__, edge.__getitem__), vertex


def relabel(
    graph: ReebGraph, vertex: Callable[[str], str], edge: Callable[[str], str]
) -> ReebGraph:
    """``graph`` with every vertex id v renamed vertex(v) and every edge id e
    renamed edge(e); both must be injective."""

    def remap_poset(p: LevelPoset, m: Callable[[str], str]) -> LevelPoset:
        return LevelPoset(
            frozenset(m(x) for x in p.elements),
            frozenset((m(a), m(b)) for a, b in p.covers),
        )

    labels = None
    if graph.edge_labels is not None:
        labels = tuple(
            None if d is None else {edge(e): lab for e, lab in d.items()}
            for d in graph.edge_labels
        )
    return ReebGraph(
        levels=graph.levels,
        vertex_sets=tuple(frozenset(map(vertex, vs)) for vs in graph.vertex_sets),
        edge_sets=tuple(frozenset(map(edge, es)) for es in graph.edge_sets),
        down_maps=tuple({edge(e): vertex(v) for e, v in d.items()} for d in graph.down_maps),
        up_maps=tuple({edge(e): vertex(v) for e, v in d.items()} for d in graph.up_maps),
        vertex_orders=tuple(remap_poset(p, vertex) for p in graph.vertex_orders),
        edge_orders=tuple(remap_poset(p, edge) for p in graph.edge_orders),
        edge_labels=labels,
    )


def chain_with_bigons(levels: int, s: int) -> ReebGraph:
    """A path over ``levels`` levels with a doubled edge in each of its first
    s gaps; every factor is isomorphic to every other."""
    vertices = [[f"v{i}"] for i in range(levels)]
    edges = []
    for i in range(levels - 1):
        gap = [(f"c{i}", f"v{i}", f"v{i + 1}")]
        if i < s:
            gap.append((f"p{i}", f"v{i}", f"v{i + 1}"))
        edges.append(gap)
    return make_graph(list(range(levels)), vertices, edges)


def dated_caterpillar(taxa: int, moved: int | None = None) -> ReebGraph:
    """A caterpillar over ``taxa`` taxa at one time: internal node k at time
    k, with taxon t<k> and internal node k + 1 below it, down to a cherry.
    Every lineage has a pass-through vertex on every level it crosses, so
    the graph has taxa * (taxa + 1) / 2 vertices, of which 2 * taxa - 1 are
    critical.  ``moved`` puts that internal node half a unit later."""
    last = taxa - 2
    leaf = 2 * last + 2  # times in half units

    def half(k: int) -> int:
        return 2 * k + (k == moved)

    def length(k: int, below: int) -> str:
        d = below - half(k)
        return f"{d // 2}.5" if d % 2 else str(d // 2)

    text = f"(t{last}:{length(last, leaf)},t{last + 1}:{length(last, leaf)})i{last}"
    for k in range(last - 1, -1, -1):
        text = f"({text}:{length(k, half(k + 1))},t{k}:{length(k, leaf)})i{k}"
    return network_to_reeb(parse_enewick(text + ";"))


def deep_ordered_path(levels: int):
    """A path over ``levels`` levels whose bottom level holds two leaves
    with one vertex cover between them; the path is its own factor, so
    reeb_iso fingerprints it whole, cover included."""
    return make_graph(
        list(range(levels)),
        [["x", "y"]] + [[f"v{i}"] for i in range(1, levels)],
        [[("a", "x", "v1"), ("b", "y", "v1")]]
        + [[(f"e{i}", f"v{i}", f"v{i + 1}")] for i in range(1, levels - 1)],
        vertex_covers=[[("x", "y")]] + [[] for _ in range(1, levels)],
    )


def cut_id_clash(edge: str = "e2") -> ReebGraph:
    """A merge vertex r on level 0 whose arriving edges are e1 and e2, and a
    taxon on level 1 that already bears the cut leaf id of ``edge``.  The
    first cut choice keeps e1, so it detaches e2, and the second e1."""
    return make_graph(
        [0, 1, 2],
        [["r"], ["a", "b", f"cut:{edge}"], ["t"]],
        [
            [("e1", "r", "a"), ("e2", "r", "b")],
            [("g1", "a", "t"), ("g2", "b", "t"), ("g3", f"cut:{edge}", "t")],
        ],
    )


def two_cover_cut_leaf(covers: list[str]) -> ReebGraph:
    """Leaves a, b, c, cut:x and cut:y: cut:x is covered with each of
    ``covers`` (from a, b and c) in that order, and cut:y with b."""
    return make_graph(
        [0, 1, 2],
        [["cut:x", "cut:y", "a", "b", "c"], ["m", "n"], ["t"]],
        [
            [("e1", "cut:x", "m"), ("e2", "cut:y", "m"), ("e3", "a", "n"),
             ("e4", "b", "n"), ("e5", "c", "n")],
            [("g1", "m", "t"), ("g2", "n", "t")],
        ],
        vertex_covers=[[*((v, "cut:x") for v in covers), ("b", "cut:y")], [], []],
    )


def repeated_ids_graph() -> ReebGraph:
    """a, b, c and d on both of two levels, joined by one edge."""
    return make_graph([0, 1], [["a", "b", "c", "d"]] * 2, [[("e", "a", "b")]])


def gate_fault_graphs() -> dict[str, ReebGraph]:
    """Graphs that validate rejects for a fault that dist once answered
    (it printed 0), by name: an id used as both vertex and edge, an empty
    top level and its gap, and label maps, one that repeats a label and one
    that misses a key and holds a foreign one."""
    return {
        "shared-id": make_graph(
            [0, 1], [["a", "b"], ["t"]], [[("a2", "a", "t"), ("b", "b", "t")]]
        ),
        "empty-top": make_graph([0, 1, 2], [["a"], ["b"], []], [[("e", "a", "b")], []]),
        "bad-labels": make_graph(
            [0, 1, 2],
            [["a", "b"], ["m"], ["t"]],
            [[("e1", "a", "m"), ("e2", "b", "m")], [("g", "m", "t")]],
            labels=[{"e1": "x", "e2": "x"}, {"h": "y"}],
        ),
    }


def assert_cuts_take_fresh_ids(graph: ReebGraph) -> None:
    """What a graph that holds cut leaf ids gets from its cuts: every factor
    of decompose validates with cut ids allowed, puts its cut leaves on ids
    the graph does not hold and glues back to the graph exactly; the factor
    vectors are cophenetic_vector of each factor, in order; and reeb_iso
    finds the graph isomorphic to a renamed copy, both ways, as
    brute_force_iso does."""
    ids = set(graph.vertex_level) | set(graph.edge_gap)
    assert validate(graph, allow_cut_ids=True) == []
    factors = decompose(graph).factors
    for factor in factors:
        assert validate(factor.graph, allow_cut_ids=True) == []
        assert ids.isdisjoint(factor.cut_vertices)
        assert glue_back(factor) == graph
    vectors = network_factors(graph).vectors
    assert vectors == tuple(cophenetic_vector(f) for f in factors)
    renamed = rename_graph(graph)
    assert reeb_iso(graph, renamed) and reeb_iso(renamed, graph)
    assert brute_force_iso(graph, renamed)


def taken_refinement_id_pair() -> tuple[ReebGraph, ReebGraph]:
    """A graph a whose vertex e@0.5 bears the id that splitting its edge e
    at 1/2 makes, and a renamed copy of a refined to a level at 1/2."""
    a = make_graph([0, 1], [["x"], ["y", "e@0.5"]], [[("e", "x", "y"), ("g", "x", "e@0.5")]])
    return a, refine_to_levels(rename_graph(a), [0, "1/2", 1])


# Shapes (n_leaves, betti, levels) the seeded generator accepts for any seed:
# it can host at most (levels - 1) + (n_leaves - 1) merge vertices.
SAFE_SHAPES = [
    (1, 1, 2),
    (2, 0, 3),
    (2, 1, 3),
    (3, 2, 4),
    (4, 2, 2),
    (5, 3, 5),
    (8, 0, 6),
    (8, 4, 6),
]


def corpus(shapes, seeds, max_indeg: int = 2):
    for seed in seeds:
        for n, s, lv in shapes:
            yield random_graph(
                GeneratorSpec(
                    seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=max_indeg
                )
            )


@pytest.fixture
def cycle_graph() -> ReebGraph:
    """Four original leaves, eight edges, one merge vertex (r), one cycle."""
    return make_graph(
        [0, 1, 2, 3],
        [["l2", "l3", "l4"], ["r", "l1"], ["a", "b"], ["w"]],
        [
            [("e1", "l2", "r"), ("e2", "l3", "r"), ("e3", "l4", "r")],
            [("e5", "r", "a"), ("e6", "r", "b"), ("e4", "l1", "b")],
            [("e7", "a", "w"), ("e8", "b", "w")],
        ],
    )


@pytest.fixture
def triple_edge() -> ReebGraph:
    """Two vertices joined by three parallel edges; the bottom vertex is a
    merge vertex and a leaf at once, cycle rank two."""
    return make_graph(
        [0, 1],
        [["r"], ["u"]],
        [[("e1", "r", "u"), ("e2", "r", "u"), ("e3", "r", "u")]],
    )


@pytest.fixture
def twin_peaks() -> ReebGraph:
    """Two source vertices over one bottom vertex; the two cycle-rank
    computations disagree here."""
    return make_graph(
        [0, 1],
        [["bot"], ["s1", "s2"]],
        [[("a", "bot", "s1"), ("b", "bot", "s2")]],
    )


def _net_a() -> ReebGraph:
    return make_graph(
        [-7, -4, -3, -1],
        [["l1"], ["r", "l2"], ["beta", "m"], ["rho"]],
        [
            [("rl1", "l1", "r")],
            [("bl2", "l2", "beta"), ("br", "r", "beta"), ("mr", "r", "m")],
            [("rb", "beta", "rho"), ("rm", "m", "rho")],
        ],
    )


def _net_b() -> ReebGraph:
    return make_graph(
        [-7, -4, -3, -1],
        [["xl1"], ["xr", "xl2"], ["xbeta", "xm"], ["xrho"]],
        [
            [("xrl1", "xl1", "xr")],
            [("xbl2", "xl2", "xbeta"), ("xbr", "xr", "xbeta"), ("xmr", "xr", "xm")],
            [("xrb", "xbeta", "xrho"), ("xrm", "xm", "xrho")],
        ],
    )


@pytest.fixture
def net_a() -> ReebGraph:
    """One-cycle network over two dated taxa, ages 7 and 4."""
    return _net_a()


@pytest.fixture
def net_b() -> ReebGraph:
    """Same shape as net_a with the taxon ranks swapped."""
    return _net_b()


@pytest.fixture
def ranks_a():
    return {"l1": 1, "l2": 2}


@pytest.fixture
def ranks_b():
    return {"xl1": 2, "xl2": 1}
