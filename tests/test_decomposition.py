"""Cut enumeration, factor construction, and exact glue-back."""

from __future__ import annotations

import copy
import math
import random
from collections import Counter
from dataclasses import replace

import pytest

from reebtrees import (
    CutChoice,
    Factor,
    GeneratorSpec,
    InvalidChoice,
    LevelPoset,
    OrderConflict,
    ReticulationConflict,
    apply_choice,
    betti_euler,
    build_dag_view,
    classify_vertex,
    cut_options,
    decompose,
    decomposition_invariant,
    dump_text,
    enewick_to_reeb,
    enumerate_choices,
    factor_count,
    glue_back,
    load_text,
    make_choice,
    make_graph,
    network_distance,
    random_graph,
    validate,
)
from reebtrees.core import RESERVED_VERTEX_PREFIX
from reebtrees.decomposition import _cut_leaves
from reebtrees.phylo import network_factors
from conftest import SAFE_SHAPES, assert_cuts_take_fresh_ids, corpus, cut_id_clash, relabel
from test_enewick import CORPUS
from test_isomorphism import add_sources, random_covers


def test_cut_options_single_merge(cycle_graph):
    assert cut_options(cycle_graph) == (("r", ("e5", "e6")),)
    assert factor_count(cycle_graph) == 2


def test_choice_enumeration_order(triple_edge):
    choices = list(enumerate_choices(triple_edge))
    assert [c.kept for c in choices] == [
        (("r", "e1"),),
        (("r", "e2"),),
        (("r", "e3"),),
    ]


def test_make_choice_rejections(cycle_graph):
    with pytest.raises(InvalidChoice, match="not merge vertices: w"):
        make_choice(cycle_graph, {"r": "e5", "w": "e7"})
    with pytest.raises(InvalidChoice, match="no kept edge for: r"):
        make_choice(cycle_graph, {})
    with pytest.raises(InvalidChoice, match="does not arrive"):
        make_choice(cycle_graph, {"r": "e1"})
    choice = make_choice(cycle_graph, {"r": "e6"})
    assert choice.kept == (("r", "e6"),)


def test_apply_choice_details(cycle_graph):
    factor = apply_choice(cycle_graph, make_choice(cycle_graph, {"r": "e5"}))
    assert factor.detached == frozenset({"e6"})
    assert factor.cut_vertices == ("cut:e6",)
    assert dict(factor.reattach) == {"e6": "r"}
    g = factor.graph
    assert "cut:e6" in g.vertex_sets[1]
    assert g.down_maps[1]["e6"] == "cut:e6"
    assert ("r", "cut:e6") in g.vertex_orders[1].covers
    # The factor is a valid tree once the reserved ids are allowed.
    assert validate(g, allow_cut_ids=True) == []
    assert validate(g) != []
    assert betti_euler(g) == 0


@pytest.mark.parametrize("edge", ["e1", "e2"])
def test_cut_id_held_off_the_merge_level(edge):
    # The network holds cut:<edge> on level 1, so the choice that detaches
    # ``edge`` puts it on cut:<edge>', beside the held id; the other edge's
    # leaf keeps its plain name.
    g = cut_id_clash(edge)
    other = "e1" if edge == "e2" else "e2"
    factor = apply_choice(g, make_choice(g, {"r": other}))
    assert factor.cut_vertices == (f"cut:{edge}'",)
    assert factor.graph.down_maps[0][edge] == f"cut:{edge}'"
    assert {f"cut:{edge}", f"cut:{edge}'"} <= factor.graph.vertex_level.keys()
    assert apply_choice(g, make_choice(g, {"r": edge})).cut_vertices == (f"cut:{other}",)
    assert [f.cut_vertices for f in decompose(g).factors] == [
        (f"cut:{x}'" if x == edge else f"cut:{x}",) for x in ("e2", "e1")
    ]
    assert_cuts_take_fresh_ids(g)


def test_cut_leaf_naming_rule():
    # cut:<e>, extended with ' past every vertex id, edge id and leaf named
    # before it, in option order: a's cut:a is a vertex and cut:a' an edge,
    # so a gets cut:a'', and a' finds its cut:a' an edge and cut:a'' a's.
    g = make_graph(
        [0, 1, 2],
        [["r", "cut:a"], ["p", "q", "s"], ["t"]],
        [
            [("a", "r", "p"), ("a'", "r", "q"), ("b", "r", "s"), ("cut:a'", "cut:a", "s")],
            [("g1", "p", "t"), ("g2", "q", "t"), ("g3", "s", "t")],
        ],
    )
    options = cut_options(g)
    assert options == (("r", ("a", "a'", "b")),)
    assert _cut_leaves(g, options) == {
        "a": ("r", "cut:a''"), "a'": ("r", "cut:a'''"), "b": ("r", "cut:b")
    }
    assert_cuts_take_fresh_ids(g)


def test_decomposition_factors(cycle_graph):
    dec = decompose(cycle_graph)
    assert len(dec.factors) == 2
    assert [f.detached for f in dec.factors] == [
        frozenset({"e6"}),
        frozenset({"e5"}),
    ]
    for f in dec.factors:
        assert glue_back(f) == cycle_graph


def test_decompose_accepts_view_or_graph(triple_edge):
    dec = decompose(triple_edge)
    assert dec.graph is triple_edge and len(dec.factors) == 3


def test_triple_edge_factors(triple_edge):
    dec = decompose(triple_edge)
    assert [sorted(f.detached) for f in dec.factors] == [
        ["e2", "e3"],
        ["e1", "e3"],
        ["e1", "e2"],
    ]
    for f in dec.factors:
        assert betti_euler(f.graph) == 0
        assert glue_back(f) == triple_edge


def test_ordered_input_is_refused(cycle_graph):
    from dataclasses import replace

    from reebtrees import LevelPoset

    ordered = replace(
        cycle_graph,
        vertex_orders=(
            LevelPoset(cycle_graph.vertex_sets[0], frozenset({("l2", "l3")})),
        )
        + cycle_graph.vertex_orders[1:],
    )
    with pytest.raises(OrderConflict, match="vertex relations at level 0"):
        decompose(ordered)
    ordered_e = replace(
        cycle_graph,
        edge_orders=(
            LevelPoset(cycle_graph.edge_sets[0], frozenset({("e1", "e2")})),
        )
        + cycle_graph.edge_orders[1:],
    )
    with pytest.raises(OrderConflict, match="edge relations at gap 0"):
        decompose(ordered_e)


def test_factor_leaf_count_law():
    # Every factor of a graph with n original leaves and cycle rank s has
    # n + s leaves: the cut operation adds one leaf per removed unit of rank.
    for n, s, lv in SAFE_SHAPES:
        g = random_graph(GeneratorSpec(seed=11, n_leaves=n, betti=s, levels=lv))
        for f in decompose(g).factors:
            leaves = [v for v in f.graph.vertex_ids() if classify_vertex(f.graph, v).is_leaf]
            assert len(leaves) == n + s
            assert build_dag_view(f.graph) == 0


def test_factor_count_product_with_wide_merges():
    for seed in range(6):
        g = random_graph(
            GeneratorSpec(seed=seed, n_leaves=4, betti=4, levels=5, max_indeg=3)
        )
        expected = math.prod(len(edges) for _, edges in cut_options(g))
        assert len(decompose(g).factors) == factor_count(g) == expected


def test_glue_back_on_corpus_sample():
    for g in corpus(SAFE_SHAPES, range(3)):
        for f in decompose(g).factors:
            assert glue_back(f) == g


def test_glue_back_rejects_foreign_edge(cycle_graph):
    from dataclasses import replace

    from reebtrees import Factor

    dec = decompose(cycle_graph)
    broken = replace(dec.factors[0], reattach=(("e7", "r"),))
    with pytest.raises(ValueError, match="not attached to a cut vertex"):
        glue_back(broken)


def test_choices_cover_option_product():
    g = make_graph(
        [0, 1, 2],
        [["s1", "s2"], ["m1", "m2"], ["t"]],
        [
            [("a1", "s1", "m1"), ("a2", "s1", "m1"), ("b1", "s2", "m2"), ("b2", "s2", "m2")],
            [("c1", "m1", "t"), ("c2", "m2", "t")],
        ],
    )
    assert factor_count(g) == 4
    kept_sets = {c.kept for c in enumerate_choices(g)}
    assert len(kept_sets) == 4


def test_factors_share_untouched_levels():
    # Only a level holding a merge vertex gets a new vertex set, down map and
    # order in a factor; every other level, and every gap's edges, up map and
    # order, is the network's own object, and the network stays as it was.
    for seed in range(8):
        for n, s, lv in ((4, 4, 5), (3, 3, 4), (5, 5, 6), (6, 3, 5)):
            g = random_graph(
                GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=3)
            )
            before = copy.deepcopy(g)
            cut_levels = {g.vertex_level[v] for v, _ in cut_options(g)}
            for f in decompose(g).factors:
                fg = f.graph
                assert validate(fg, allow_cut_ids=True) == []
                for name in ("levels", "edge_sets", "up_maps", "edge_orders", "edge_labels"):
                    assert getattr(fg, name) is getattr(g, name)
                for i in range(g.level_count):
                    shared = [
                        fg.vertex_sets[i] is g.vertex_sets[i],
                        fg.vertex_orders[i] is g.vertex_orders[i],
                    ]
                    if i < g.gap_count:
                        shared.append(fg.down_maps[i] is g.down_maps[i])
                    assert shared == [i not in cut_levels] * len(shared)
                assert glue_back(f) == g
            assert g == before


def test_a_tree_is_its_own_factor():
    for seed in range(4):
        tree = random_graph(GeneratorSpec(seed=seed, n_leaves=5, betti=0, levels=4))
        (factor,) = decompose(tree).factors
        assert factor.graph is tree
        assert factor.detached == frozenset() and factor.reattach == ()
        assert glue_back(factor) == tree


# cut_options as it was before it read the skeleton: merge vertices found by
# their in-degree in the full graph, each with its arriving edges; kept (apart
# from its name and taking a graph) as the reference for the differential below.
def reference_cut_options(graph):
    merges = sorted((i, v) for v, i in graph.vertex_level.items() if graph.indeg(v) > 1)
    return tuple((v, graph.above_edges[v]) for _, v in merges)


def test_cut_options_match_the_degree_table():
    # Generator graphs with merges of in-degree 2 and 3 and s up to 6, every
    # factor of each, and the eNewick corpus, whose graphs carry the skeleton
    # their networks record.
    shapes = [
        (2, 1, 3), (3, 0, 4), (3, 2, 4), (4, 3, 5), (5, 4, 6), (5, 5, 6), (4, 6, 5), (6, 6, 6)
    ]
    graphs = [*corpus(shapes, range(57)), *corpus(shapes, range(57), max_indeg=3)]
    assert len(graphs) >= 900
    assert max(betti_euler(g) for g in graphs) == 6
    assert any(len(edges) == 3 for g in graphs for _, edges in cut_options(g))
    graphs += [enewick_to_reeb(f.read_text()) for f in sorted(CORPUS.glob("*.enwk"))]
    factors = 0
    for g in graphs:
        assert cut_options(g) == reference_cut_options(g)
        for f in decompose(g).factors:
            assert cut_options(f.graph) == reference_cut_options(f.graph) == ()
            factors += 1
    assert factors >= 10_000


# _detached and apply_choice as they were when every caller passed a view of
# the graph, apart from their names and apply_choice taking the graph itself;
# kept as the reference for the differential below.
def reference_detached(graph, options, choice):
    pairs = [(v, e) for v, edges in options for e in edges if e != choice.kept_map[v]]
    for _, e in pairs:
        if RESERVED_VERTEX_PREFIX + e in graph.vertex_level:
            raise ValueError(f"cut vertex id {RESERVED_VERTEX_PREFIX + e!r} already present")
    return pairs


def reference_apply_choice(graph, choice):
    options = dict(cut_options(graph))
    if set(choice.kept_map) != set(options):
        raise InvalidChoice("choice does not cover exactly the merge vertices")
    vsets = list(graph.vertex_sets)
    downs = list(graph.down_maps)
    orders = list(graph.vertex_orders)
    # Level -> (merge vertex, detached edge) pairs cut there.
    cuts = {}
    for retic, keep_edge in choice.kept:
        if keep_edge not in options[retic]:
            raise InvalidChoice(f"edge {keep_edge!r} does not arrive at {retic!r}")
    for retic, e in reference_detached(graph, options.items(), choice):
        cuts.setdefault(graph.vertex_level[retic], []).append((retic, e))
    for lvl, pairs in cuts.items():
        leaves = {e: RESERVED_VERTEX_PREFIX + e for _, e in pairs}
        vsets[lvl] = vsets[lvl].union(leaves.values())
        downs[lvl] = {**downs[lvl], **leaves}
        orders[lvl] = LevelPoset(
            vsets[lvl],
            orders[lvl].covers.union((retic, leaves[e]) for retic, e in pairs),
        )
    # A tree has nothing to cut and is its own single factor.
    fgraph = graph if not cuts else replace(
        graph, vertex_sets=tuple(vsets), down_maps=tuple(downs), vertex_orders=tuple(orders)
    )
    reattach = sorted((e, retic) for pairs in cuts.values() for retic, e in pairs)
    return Factor(
        graph=fgraph,
        choice=choice,
        detached=frozenset(e for e, _ in reattach),
        reattach=tuple(reattach),
    )


def test_apply_choice_matches_the_reference():
    """The same factor graphs, reattach lists and exceptions as the
    reference, on every fixture and corpus file, on generator graphs with
    merges of in-degree 2 and 3, on ordered and multi-source copies of them,
    and on graphs holding cut leaf ids; for up to 16 choices of each, and
    for choices that miss a merge, name a foreign edge or add a merge.

    Where the reference refuses a cut leaf id the graph holds, the factor
    is the reference's factor of the graph with those ids moved aside, once
    they and the new leaves are renamed back."""
    data = CORPUS.parent
    graphs = [load_text(f.read_text())[0] for f in sorted(data.glob("*.json"))]
    graphs += [enewick_to_reeb(f.read_text()) for f in sorted(CORPUS.glob("*.enwk"))]
    graphs += [cut_id_clash("e1"), cut_id_clash("e2")]
    shapes = [
        (2, 1, 3), (3, 0, 4), (3, 2, 4), (4, 3, 5), (5, 4, 6), (5, 5, 6), (4, 6, 5), (6, 6, 6)
    ]
    generated = [*corpus(shapes, range(57)), *corpus(shapes, range(57), max_indeg=3)]
    assert len(generated) >= 900
    rng = random.Random(26)
    graphs += generated
    graphs += [random_covers(g, rng) for g in generated[::4]]
    graphs += [add_sources(g, rng, rng.randint(1, 2)) for g in generated[1::4]]

    def outcome(apply, g, choice):
        try:
            return apply(g, choice)
        except Exception as exc:  # noqa: BLE001 - compared with the reference's
            return type(exc), str(exc)

    def moved_aside(g):
        held = {RESERVED_VERTEX_PREFIX + e for _, edges in cut_options(g) for e in edges}
        return lambda x: "held " + x if x in held else x

    seen = {"factors": 0, "held": 0, "InvalidChoice": 0, "ValueError": 0, "other": 0}
    for g in graphs:
        try:
            choices = list(enumerate_choices(g))
        except ValueError:  # validate's line for a graph that fails the checked skeleton
            choices = [CutChoice(kept=())]
        tried = choices[:12] + choices[12:][-4:]
        if choices[0].kept:
            (v, edges), *_ = cut_options(g)
            tried += [
                CutChoice(kept=choices[0].kept[1:]),
                CutChoice(kept=((v, "no such edge"), *choices[0].kept[1:])),
                CutChoice(kept=(*choices[0].kept, ("no such vertex", edges[0]))),
            ]
        for choice in tried:
            want = outcome(reference_apply_choice, g, choice)
            got = outcome(apply_choice, g, choice)
            if isinstance(want, Factor):
                assert isinstance(got, Factor)
                assert got.graph == want.graph
                assert got.reattach == want.reattach
                assert got == want
                assert got.cut_vertices == tuple(sorted(f"cut:{e}" for e in want.detached))
                seen["factors"] += 1
            elif want[1].endswith("already present"):
                move = moved_aside(g)
                aside = reference_apply_choice(relabel(g, move, move), choice)
                leaf = {got.graph.down_maps[g.vertex_level[m]][e]: e for e, m in got.reattach}
                back = relabel(got.graph, lambda x: RESERVED_VERTEX_PREFIX + leaf[x]
                               if x in leaf else move(x), move)
                assert back == aside.graph
                assert got.reattach == aside.reattach
                assert not leaf.keys() & g.vertex_level.keys()
                seen["held"] += 1
            else:
                assert got == want
                name = want[0].__name__
                seen[name if name in seen else "other"] += 1
    assert seen == {"factors": 12821, "held": 5, "InvalidChoice": 3882, "ValueError": 3, "other": 0}


def test_decompose_builds_its_option_table_once(monkeypatch, tmp_path, capsys):
    """decompose, decomposition_invariant, network_distance, CLI decompose
    and dist --matrix run the gate (build_dag_view) and name the cut leaves
    (_cut_leaves) once per input graph, not once per factor: each count is
    read through decomposition's binding, the only one the gate uses."""
    from reebtrees import cli, decomposition

    graphs = [
        random_graph(GeneratorSpec(seed=3, n_leaves=5, betti=6, levels=6, max_indeg=2)),
        random_graph(GeneratorSpec(seed=4, n_leaves=5, betti=6, levels=6, max_indeg=2)),
    ]
    calls = Counter()

    def counting(name):
        real = getattr(decomposition, name)

        def wrapper(graph, *rest):
            calls[name, id(graph)] += 1
            return real(graph, *rest)

        monkeypatch.setattr(decomposition, name, wrapper)

    counting("build_dag_view")
    counting("_cut_leaves")
    paths = [tmp_path / f"g{n}.json" for n in range(len(graphs))]
    for path, g in zip(paths, graphs):
        path.write_text(dump_text(g))

    def once_each(*used):
        assert sorted(calls.values()) == [1] * 2 * len(used), calls
        assert {key for _, key in calls} == {id(g) for g in used}
        calls.clear()

    assert len(decompose(graphs[0]).factors) == 64
    once_each(graphs[0])
    assert len(decomposition_invariant(graphs[0])) == 64
    once_each(graphs[0])
    network_distance(*graphs)
    once_each(*graphs)
    # The CLI loads its own graphs; each file's is counted once.
    assert cli.main(["decompose", str(paths[0])]) == 0
    assert capsys.readouterr().out.startswith("factors: 64\n")
    assert sorted(calls.values()) == [1, 1] and len({key for _, key in calls}) == 1
    calls.clear()
    assert cli.main(["dist", "--matrix", str(tmp_path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert sorted(calls.values()) == [1] * 4 and len({key for _, key in calls}) == 2


def test_two_gates_of_the_decomposition_api():
    """A graph with two sources has factors, which cut_options,
    factor_count, enumerate_choices and apply_choice give; decompose,
    decomposition_invariant and network_factors run the single-source gate
    and refuse it."""
    g = make_graph([0, 1], [["x"], ["p", "q"]], [[("e", "x", "p"), ("f", "x", "q")]])
    assert cut_options(g) == (("x", ("e", "f")),)
    assert factor_count(g) == 2
    choices = list(enumerate_choices(g))
    assert [c.kept for c in choices] == [(("x", "e"),), (("x", "f"),)]
    factors = [apply_choice(g, c) for c in choices]
    assert [f.cut_vertices for f in factors] == [("cut:f",), ("cut:e",)]
    assert all(glue_back(f) == g for f in factors)
    for call in (decompose, decomposition_invariant, network_factors):
        with pytest.raises(ReticulationConflict, match="2 source vertices: p, q"):
            call(g)
