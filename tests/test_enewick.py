"""Extended Newick parsing, writing, and the leveled-graph embedding."""

from __future__ import annotations

import copy
import pickle
import random
import re
import time
from collections import Counter
import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

from reebtrees import (
    GeneratorSpec,
    HybridArityError,
    NewickSyntaxError,
    PhyloNetwork,
    ReebError,
    ReebGraph,
    ReticulationConflict,
    TimeInconsistency,
    UnbalancedParens,
    betti_euler,
    betti_reticulation,
    build_dag_view,
    cophenetic_vector,
    dump_text,
    enewick,
    enewick_to_reeb,
    format_level,
    make_graph,
    network_distance,
    network_to_reeb,
    parse_enewick,
    random_graph,
    reeb_iso,
    reeb_to_network,
    validate,
    write_enewick,
)
from reebtrees.cli import main
from reebtrees.phylo import network_factors
from reebtrees.core import LevelPoset, _Skeleton
from reebtrees.enewick import NAME_CHARS

from conftest import dated_caterpillar
from test_acceptance import deep_caterpillar, long_comb

F = Fraction

CORPUS = Path(__file__).parent / "data" / "newick_corpus"


class TestParse:
    def test_plain_tree(self):
        net = parse_enewick("(A:2,B:1)r;")
        assert net.root == "r"
        assert net.times == {"r": F(0), "A": F(2), "B": F(1)}
        assert sorted(net.edges) == [("r", "A"), ("r", "B")]

    def test_one_hybrid(self):
        net = parse_enewick("((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;")
        assert net.times["#H1"] == F(2)
        assert net.times["C"] == F(3)
        assert net.edges.count(("x", "#H1")) == 1
        assert net.edges.count(("y", "#H1")) == 1

    def test_named_hybrid_takes_the_name(self):
        net = parse_enewick("((v:1)w#H3:1,w#H3:1)r;")
        assert "w" in net.times
        assert "#H3" not in net.times

    def test_decimal_lengths(self):
        net = parse_enewick("(A:0.5,B:1.25)r;")
        assert net.times["A"] == F(1, 2)
        assert net.times["B"] == F(5, 4)

    def test_whitespace_tolerated(self):
        net = parse_enewick(" ( A:1 ,\n B:2 ) r ;\n")
        assert net.root == "r"
        assert net.times["B"] == F(2)

    def test_unnamed_nodes_get_placeholders(self):
        net = parse_enewick("(A:1,B:2);")
        assert net.root == "@n0"

    def test_parallel_edges_through_hybrid(self):
        net = parse_enewick("(#H1:1,#H1:1)u;")
        assert net.edges == (("u", "#H1"), ("u", "#H1"))

    def test_times_made_when_read(self):
        # The network holds integer ticks; pickle and copy keep them, and a
        # network pickled when it held its times (pickle restores the
        # instance dict as saved) still reads them.
        net = parse_enewick("((A:0.5,B:1.25)x:1,C:2.25)r;")
        assert "_times" not in net.__dict__
        for copied in (pickle.loads(pickle.dumps(net)), copy.copy(net), copy.deepcopy(net)):
            assert copied == net and write_enewick(copied) == write_enewick(net)
        assert net.times == {"r": F(0), "x": F(1), "A": F(3, 2), "B": F(9, 4), "C": F(9, 4)}
        assert net.times["B"] is net.times["C"]  # one Fraction per distinct time
        old = object.__new__(PhyloNetwork)
        old.__dict__.update(root=net.root, times=dict(net.times), edges=net.edges)
        assert old == net and write_enewick(old) == write_enewick(net)


def expect(exc_type, text, message, line, col):
    with pytest.raises(exc_type) as info:
        parse_enewick(text)
    err = info.value
    assert message in str(err)
    assert (err.line, err.col) == (line, col)


class TestParseErrors:
    def test_unclosed_paren(self):
        expect(UnbalancedParens, "(A:1,B:1", "unclosed parenthesis", 1, 9)

    def test_unclosed_paren_line_tracking(self):
        expect(UnbalancedParens, "(A:1,\nB:1", "unclosed parenthesis", 2, 4)

    def test_extra_closing_paren(self):
        expect(UnbalancedParens, "(A:1)x)", "unmatched closing parenthesis", 1, 7)

    def test_missing_branch_length(self):
        expect(NewickSyntaxError, "((A:1,B:1)r;", "missing branch length", 1, 12)

    def test_invalid_branch_length(self):
        expect(NewickSyntaxError, "(A:x)r;", "invalid branch length", 1, 4)

    def test_truncated_decimal(self):
        expect(NewickSyntaxError, "(A:1.)r;", "invalid branch length", 1, 4)

    def test_zero_length(self):
        expect(
            TimeInconsistency,
            "((x3#H1:0)x2:1,x3#H1:1)x1;",
            "branch length must be positive",
            1,
            9,
        )

    def test_hybrid_seen_once(self):
        expect(
            HybridArityError,
            "(A:1,(B:1)#H7:1)r;",
            "hybrid tag #H7 appears only once",
            1,
            6,
        )

    def test_hybrid_defined_twice(self):
        expect(
            NewickSyntaxError,
            "((c:1)#H1:1,(d:1)#H1:1)r;",
            "hybrid #H1 defined more than once",
            1,
            2,
        )

    def test_hybrid_conflicting_names(self):
        expect(
            NewickSyntaxError,
            "(x#H1:1,y#H1:1)r;",
            "conflicting names for hybrid #H1: x, y",
            1,
            9,
        )

    def test_hybrid_time_disagreement(self):
        expect(
            TimeInconsistency,
            "((#H1:1)a:1,(#H1:2)b:1)r;",
            "hybrid #H1 occurs at times 3 and 2",
            1,
            3,
        )

    def test_empty_input(self):
        expect(NewickSyntaxError, "", "empty input", 1, 1)

    def test_only_whitespace(self):
        expect(NewickSyntaxError, "  \n ", "empty input", 2, 2)

    def test_empty_subtree(self):
        expect(NewickSyntaxError, ";", "empty subtree", 1, 1)

    def test_missing_semicolon(self):
        expect(NewickSyntaxError, "A", "expected ';' at end of input", 1, 2)

    def test_junk_separator(self):
        expect(NewickSyntaxError, "(A:1;B:2)r;", "expected ',' or ')', found ';'", 1, 5)

    def test_trailing_characters(self):
        expect(NewickSyntaxError, "(A:1,B:2)r; extra", "trailing characters", 1, 13)

    def test_hash_without_h(self):
        expect(NewickSyntaxError, "#x;", "expected 'H' after '#'", 1, 2)

    def test_hash_without_digits(self):
        expect(NewickSyntaxError, "#H;", "expected digits after '#H'", 1, 3)

    def test_duplicate_plain_name(self):
        expect(NewickSyntaxError, "(A:1,A:2)r;", "duplicate node name 'A'", 1, 2)

    @pytest.mark.parametrize(
        "text, message, col",
        [
            ("(A:\u00b2)r;", "invalid branch length", 4),
            ("(A:\u0661)r;", "invalid branch length", 4),
            ("(A:1.\u0661)r;", "invalid branch length", 4),
            ("(A#H\u00b2:1,B#H\u00b2:1)r;", "expected digits after '#H'", 5),
            ("(A#H\u0661:1,B#H\u0661:1)r;", "expected digits after '#H'", 5),
        ],
    )
    def test_only_ascii_digits(self, text, message, col):
        expect(NewickSyntaxError, text, message, 1, col)


class TestWrite:
    def test_children_sorted_and_fixed_point(self):
        src = "((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;"
        out = write_enewick(parse_enewick(src))
        assert out == "(((C:1)#H1:1,A:2)x:1,(#H1:1,B:2)y:1)r;"
        assert write_enewick(parse_enewick(out)) == out

    def test_unnamed_root_stays_unnamed(self):
        assert write_enewick(parse_enewick("(A:1,B:2);")) == "(A:1,B:2);"

    def test_zero_length_rejected(self):
        net = PhyloNetwork(root="r", times={"r": F(0), "a": F(0)}, edges=(("r", "a"),))
        with pytest.raises(ValueError, match="branch lengths must be positive"):
            write_enewick(net)

    def test_non_decimal_length_rejected(self):
        net = PhyloNetwork(
            root="r", times={"r": F(0), "a": F(1, 3)}, edges=(("r", "a"),)
        )
        with pytest.raises(ValueError, match="length 1/3 has no finite decimal form"):
            write_enewick(net)

    def test_name_sanitizing_with_collision(self):
        net = PhyloNetwork(
            root="r",
            times={"r": F(0), "a b": F(1), "a_b": F(1)},
            edges=(("r", "a b"), ("r", "a_b")),
        )
        # A writable name is never renamed: only the replaced one takes "_2".
        out = write_enewick(net)
        assert out == "(a_b_2:1,a_b:1)r;"
        back = parse_enewick(out)
        assert back.times.keys() == {"r", "a_b", "a_b_2"}
        assert ("r", "a_b") in back.edges and ("r", "a_b_2") in back.edges

    def test_replaced_names_skip_every_writable_name(self):
        net = PhyloNetwork(
            root="r",
            times={"r": F(0), "a b": F(1), "a:b": F(1), "a_b": F(1), "a_b_2": F(1)},
            edges=(("r", "a b"), ("r", "a:b"), ("r", "a_b"), ("r", "a_b_2")),
        )
        assert write_enewick(net) == "(a_b_3:1,a_b_4:1,a_b:1,a_b_2:1)r;"

    def test_corpus_sample_fixed_points(self):
        for name in ("net_00.enwk", "net_07.enwk", "net_23.enwk", "net_49.enwk"):
            text = (CORPUS / name).read_text().strip()
            assert write_enewick(parse_enewick(text)) == text


class TestEmbedding:
    def test_single_gap_edges(self):
        g = enewick_to_reeb("(A:1,B:1)r;")
        assert g.levels == (F(-1), F(0))
        assert g.vertex_sets == (frozenset({"A", "B"}), frozenset({"r"}))
        assert g.edge_sets == (frozenset({"A<r", "B<r"}),)

    def test_long_branch_subdivided(self):
        g = enewick_to_reeb("(A:2,B:1)r;")
        assert g.levels == (F(-2), F(-1), F(0))
        assert g.vertex_sets[1] == frozenset({"B", "A<r@-1"})
        assert g.edge_sets == (
            frozenset({"A<r:0"}),
            frozenset({"A<r:1", "B<r"}),
        )
        assert g.down_maps[0]["A<r:0"] == "A"
        assert g.up_maps[0]["A<r:0"] == "A<r@-1"
        assert g.up_maps[1]["A<r:1"] == "r"

    def test_parallel_edges_get_tilde_suffix(self):
        g = enewick_to_reeb("(#H1:1,#H1:1)u;")
        assert g.edge_sets == (frozenset({"#H1<u", "#H1<u~1"}),)

    def test_cycle_rank_counts_agree(self):
        g = enewick_to_reeb("((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;")
        assert build_dag_view(g) == 1
        assert betti_euler(g) == betti_reticulation(g) == 1

    def test_isolated_node_has_no_levels(self):
        with pytest.raises(ValueError, match="need at least two distinct time values"):
            enewick_to_reeb("A;")

    def test_upward_edge_rejected(self):
        net = PhyloNetwork(
            root="r", times={"r": F(0), "c": F(-1)}, edges=(("r", "c"),)
        )
        with pytest.raises(ValueError, match="does not go down in level"):
            network_to_reeb(net)


class TestContraction:
    def test_round_trip_restores_network(self):
        src = "((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;"
        net = parse_enewick(src)
        back = reeb_to_network(network_to_reeb(net))
        assert back.root == net.root
        assert dict(back.times) == dict(net.times)
        assert sorted(back.edges) == sorted(net.edges)

    def test_round_trip_written_form(self):
        for text in (
            "(((C:1)#H1:1,A:2)x:1,(#H1:1,B:2)y:1)r;",
            "(#H1:1,#H1:1,#H1:1)u;",
            "(A:0.5,(B:0.25,C:0.25)m:0.25)r;",
        ):
            g = enewick_to_reeb(text)
            assert write_enewick(reeb_to_network(g)) == text

    def test_net_a_serializes(self, net_a):
        # The intermediate vertex on the longer arm is a pass-through and
        # disappears; the merge vertex picks up a hybrid tag.
        out = write_enewick(reeb_to_network(net_a))
        assert out == "((l2:1,(l1:3)r#H1:1)beta:2,r#H1:3)rho;"

    def test_embedding_is_isomorphic_to_rewrite(self):
        src = "((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;"
        out = write_enewick(parse_enewick(src))
        assert reeb_iso(enewick_to_reeb(src), enewick_to_reeb(out))

    def test_multiple_sources_rejected(self, twin_peaks):
        with pytest.raises(ReticulationConflict):
            reeb_to_network(twin_peaks)


def reference_reeb_to_network(graph):
    """reeb_to_network as it walked the whole graph, before it read the
    skeleton: every chain of regular vertices followed edge by edge.  Its
    times are Fraction differences, one subtraction per level, as before
    reeb_to_network counted integer ticks."""
    root = next(v for v in graph.vertex_ids() if graph.indeg(v) == 0)
    build_dag_view(graph)
    f_root = graph.levels[graph.vertex_level[root]]

    def regular(v):
        return graph.indeg(v) == 1 and graph.outdeg(v) == 1

    nodes = [v for v in graph.vertex_ids() if not regular(v)]
    level_time = [f_root - x for x in graph.levels]
    times = {v: level_time[graph.vertex_level[v]] for v in nodes}
    edges = []
    for c in nodes:
        for e in graph.above_edges.get(c, ()):
            w = graph.up_maps[graph.edge_gap[e]][e]
            while regular(w):
                e2 = graph.above_edges[w][0]
                w = graph.up_maps[graph.edge_gap[e2]][e2]
            edges.append((w, c))
    return PhyloNetwork(root=root, times=times, edges=tuple(sorted(edges)))


def embedded_networks():
    """Graphs from the eNewick corpus, from the seeded dated networks (with
    hybrids, parallel branches and nodes of one parent and one child) and
    two dated caterpillars."""
    texts = [p.read_text() for p in sorted(CORPUS.glob("*.enwk"))]
    nets = [parse_enewick(t) for t in texts]
    nets += [o for o in map(lambda t: outcome(parse_enewick, t), dated_texts(7, 600))
             if isinstance(o, PhyloNetwork)]
    return [network_to_reeb(n) for n in nets] + [dated_caterpillar(40), dated_caterpillar(400)]


def shuffled_copy(net: PhyloNetwork, rng: random.Random, prefix: str) -> str:
    """The eNewick text of the tree ``net`` with every node renamed by
    ``prefix`` and each node's children in a shuffled order."""
    children: dict[str, list[str]] = {}
    for parent, child in net.edges:
        children.setdefault(parent, []).append(child)
    out: list[str] = []
    stack: list = [("node", net.root)]
    while stack:
        kind, v = stack.pop()
        if kind == "text":
            out.append(v)
            continue
        kids = children.get(v, [])
        rng.shuffle(kids)
        if kids:
            out.append("(")
            stack.append(("text", f"){prefix}{v}"))
        else:
            out.append(prefix + v)
        for k, c in enumerate(reversed(kids)):
            stack.append(("text", f":{format_level(net.times[c] - net.times[v])}"))
            stack.append(("node", c))
            if k < len(kids) - 1:
                stack.append(("text", ","))
    return "".join(out) + ";"


def tree_scale_shapes():
    """Trees shaped like the tree_scale benchmark's: caterpillars, balanced
    and random trees (joining two to four subtrees) of 240 to 280 taxa,
    with fractional or whole lengths, each with a renamed copy whose
    children are shuffled."""
    # (test_phylo imports this module.)
    from test_phylo import DECIMAL_LENGTHS, WHOLE_LENGTHS, random_enewick_tree

    rng = random.Random(20261020)
    graphs = []
    for k, shape in enumerate(("caterpillar", "balanced", "random") * 2):
        lengths = DECIMAL_LENGTHS if k < 3 else WHOLE_LENGTHS
        net = parse_enewick(random_enewick_tree(rng, shape, rng.randint(240, 280), lengths))
        graphs.append(network_to_reeb(net))
        graphs.append(enewick_to_reeb(shuffled_copy(net, rng, f"k{k}_")))
    return graphs


class TestRecordedSkeleton:
    def test_equals_the_graphs_own(self):
        kinds = Counter()
        for g in embedded_networks() + tree_scale_shapes():
            recorded = g._recipe.skeleton(g)
            kinds["recorded" if recorded else "fallback"] += 1
            if recorded:
                kinds["parallel"] += any("~" in e for ups in recorded.up.values() for _, e in ups)
                kinds["hybrid"] += any(len(above) > 1 for above in recorded.up.values())
            assert g._skeleton == _Skeleton.of(g)
            assert recorded in (None, g._skeleton)
        # Nodes of one parent and one child send the graph to its own pass.
        assert kinds["recorded"] >= 240 and kinds["fallback"] >= 100, kinds
        assert kinds["parallel"] >= 100 and kinds["hybrid"] >= 100, kinds

    def test_polytomies_stay_linear(self):
        # A 40,000-taxon star whose leaves sit on three levels, so that its
        # root has 40,000 long edges below it, of one to three gaps each.
        text = "(" + ",".join(f"t{k}:{1 + k % 3}" for k in range(40_000)) + ")r;"
        start = time.perf_counter()
        net = parse_enewick(text)
        g = network_to_reeb(net)
        recorded = g._skeleton
        out = write_enewick(reeb_to_network(g))
        assert time.perf_counter() - start < 2.0
        # The skeleton was read off the network: no field of the graph was built.
        assert not built(g) and len(recorded.down["r"]) == 40_000
        assert recorded == _Skeleton.of(g)
        assert enewick_to_reeb(out) == g

    def test_clashing_ids_fall_back(self):
        # A node named like a pass-through vertex shares its id, on its
        # level or on another, and a node whose name holds '<' repeats
        # another branch's edge id.  Ids the reader did not make fall back
        # even where none clashes.
        for net in (
            PhyloNetwork(
                root="r",
                times={"r": F(0), "c": F(2), "c<r@-1": F(1)},
                edges=(("r", "c"), ("r", "c<r@-1")),
            ),
            PhyloNetwork(
                root="r",
                times={"r": F(0), "x": F(1), "c": F(2), "c<r@-1": F(2)},
                edges=(("r", "c"), ("r", "x"), ("x", "c<r@-1")),
            ),
            PhyloNetwork(
                root="r",
                times={"r": F(0), "b": F(1), "c": F(1), "a": F(2), "a<b": F(2)},
                edges=(("r", "b"), ("r", "c"), ("b", "a"), ("c", "a<b"), ("c", "a")),
            ),
            PhyloNetwork(
                root="x y",
                times={"x y": F(0), "a:1": F(1), "b": F(2), "c": F(2)},
                edges=(("x y", "a:1"), ("x y", "b"), ("a:1", "b"), ("a:1", "c")),
            ),
        ):
            g = network_to_reeb(net)
            assert g._recipe.skeleton(g) is None
            assert g._skeleton == _Skeleton.of(g)

    def test_graphs_compare_without_it(self):
        text = "((A:2,(C:1)#H1:1)x:1,(#H1:1,B:2)y:1)r;"
        a, b = enewick_to_reeb(text), enewick_to_reeb(text)
        a._skeleton
        assert a == b and "_skeleton" in a.__dict__ and "_skeleton" not in b.__dict__
        assert "_recipe" not in dataclasses.replace(b).__dict__


def mixed_time_networks(seed: int, count: int) -> list[PhyloNetwork]:
    """Seeded networks whose times mix denominators: each node sits at a
    level drawn from -7/3, -1/2, 5/7, 0 and decimals of one to four
    fraction digits, and its time is the root's level minus its own.  Each
    has up to 10 nodes; about half have a hybrid (a node with a second
    parent, which may be its first one again)."""
    rng = random.Random(seed)
    nets = []
    for _ in range(count):
        pool = {F(-7, 3), F(-1, 2), F(5, 7), F(0)}
        while len(pool) < 12:
            digits = rng.randint(1, 4)
            pool.add(F(rng.randint(-3 * 10**digits, 3 * 10**digits), 10**digits))
        levels = sorted(rng.sample(sorted(pool), rng.randint(3, 8)), reverse=True)
        level = {"r": levels[0]}
        edges = []
        for k in range(1, rng.randint(3, 10)):
            parent = rng.choice([v for v in level if level[v] > levels[-1]])
            below = [x for x in levels if x < level[parent]]
            level[f"n{k}"] = rng.choice(below)
            edges.append((parent, f"n{k}"))
        if rng.random() < 0.5:
            child = rng.choice(sorted(level.keys() - {"r"}))
            above = [v for v in level if level[v] > level[child]]
            edges.append((rng.choice(above), child))
        nets.append(PhyloNetwork(
            root="r", times={v: levels[0] - x for v, x in level.items()}, edges=tuple(edges)
        ))
    return nets


class TestIntegerTimesMatchFractions:
    """reeb_to_network counts times in integer ticks, and write_enewick,
    network_to_reeb and the stamps read integer pairs; they give what the
    Fraction arithmetic they replaced gives (reference_reeb_to_network
    keeps it: one subtraction per level)."""

    def test_export(self):
        outcomes = Counter()
        for net in mixed_time_networks(20261020, 400):
            g = network_to_reeb(net)
            got, want = reeb_to_network(g), reference_reeb_to_network(g)
            assert got == want and all(type(t) is F for t in got.times.values())
            text = outcome(write_enewick, got)
            assert text == outcome(write_enewick, want)
            if isinstance(text, tuple):
                assert "no finite decimal form" in text[1], text
            outcomes["raised" if isinstance(text, tuple) else "written"] += 1
            outcomes["hybrid"] += len(set(c for _, c in net.edges)) < len(net.edges)
        assert min(outcomes.values()) >= 100, outcomes

    def test_stamps(self):
        # (test_phylo imports this module.)
        from test_phylo import reference_cophenetic_vector

        by_taxa: dict[int, list[ReebGraph]] = {}
        for net in mixed_time_networks(7, 300):
            if len(set(c for _, c in net.edges)) == len(net.edges):
                g = network_to_reeb(net)
                by_taxa.setdefault(len(cophenetic_vector(g).leaves), []).append(g)
        compared = 0
        for group in by_taxa.values():
            for ga, gb in zip(group, group[1:]):
                for mode in ("f", "-f"):
                    ref = reference_cophenetic_vector(ga, time_mode=mode).entries
                    assert cophenetic_vector(ga, time_mode=mode).entries == ref
                    other = reference_cophenetic_vector(gb, time_mode=mode).entries
                    diffs = [abs(x - y) for x, y in zip(ref, other)]
                    assert network_distance(ga, gb, time_mode=mode) == sum(diffs)
                    assert network_distance(ga, gb, p="inf", time_mode=mode) == max(diffs)
                compared += 1
        assert compared >= 100, compared


class TestExportMatchesReference:
    def test_embedded_networks(self):
        for g in embedded_networks():
            got = reeb_to_network(g)
            want = reference_reeb_to_network(g)
            assert got == want
            assert write_enewick(got) == write_enewick(want)

    def test_orders_contract_their_regular_vertices(self):
        # A vertex cover between two pass-through vertices keeps them
        # critical in the skeleton; export contracts them all the same.
        g = dated_caterpillar(6)
        level = next(i for i, vs in enumerate(g.vertex_sets) if sum("@" in v for v in vs) > 1)
        lo, hi = sorted(v for v in g.vertex_sets[level] if "@" in v)[:2]
        orders = list(g.vertex_orders)
        orders[level] = LevelPoset(g.vertex_sets[level], frozenset({(lo, hi)}))
        ordered = dataclasses.replace(g, vertex_orders=tuple(orders))
        assert {lo, hi} <= set(ordered._skeleton.vertex_level)
        assert reeb_to_network(ordered) == reference_reeb_to_network(ordered)
        assert write_enewick(reeb_to_network(ordered)) == write_enewick(reeb_to_network(g))


# The reader as it was before it read by offsets, kept verbatim (apart from
# the entry point's name) as the reference for the differential tests below.


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.i = 0
        self.line = 1
        self.col = 1

    def pos(self) -> tuple[int, int]:
        return (self.line, self.col)

    def peek(self) -> str:
        return self.text[self.i] if self.i < len(self.text) else ""

    def advance(self) -> str:
        ch = self.text[self.i]
        self.i += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def skip_ws(self) -> None:
        while self.peek() in (" ", "\t", "\r", "\n") and self.peek():
            self.advance()


@dataclass
class _Occ:
    pos: tuple[int, int]
    name: str | None = None
    tag: str | None = None
    children: list[tuple["_Occ", Fraction, tuple[int, int]]] = field(default_factory=list)
    time: Fraction = Fraction(0)


def _parse_name(cur: _Cursor) -> str:
    out = []
    while cur.peek() and NAME_CHARS.match(cur.peek()):
        out.append(cur.advance())
    return "".join(out)


def _parse_length(cur: _Cursor) -> tuple[Fraction, tuple[int, int]]:
    cur.skip_ws()
    pos = cur.pos()
    digits = []
    while cur.peek().isdigit():
        digits.append(cur.advance())
    if not digits:
        raise NewickSyntaxError("invalid branch length", *pos)
    if cur.peek() == ".":
        digits.append(cur.advance())
        if not cur.peek().isdigit():
            raise NewickSyntaxError("invalid branch length", *pos)
        while cur.peek().isdigit():
            digits.append(cur.advance())
    return Fraction("".join(digits)), pos


def _parse_node_end(cur: _Cursor, pos: tuple[int, int], children: list) -> _Occ:
    """The name and hybrid tag after a node's children, if any."""
    cur.skip_ws()
    name = _parse_name(cur)
    tag = None
    if cur.peek() == "#":
        cur.advance()
        if cur.peek() != "H":
            raise NewickSyntaxError("expected 'H' after '#'", *cur.pos())
        cur.advance()
        tpos = cur.pos()
        digits = []
        while cur.peek().isdigit():
            digits.append(cur.advance())
        if not digits:
            raise NewickSyntaxError("expected digits after '#H'", *tpos)
        tag = "".join(digits)
    if not children and not name and tag is None:
        raise NewickSyntaxError("empty subtree", *pos)
    return _Occ(pos=pos, name=name or None, tag=tag, children=children)


def _parse_subtree(cur: _Cursor) -> _Occ:
    """One subtree, read with an explicit stack of open parentheses, so the
    nesting depth is bounded by memory only."""
    open_nodes: list[tuple[tuple[int, int], list]] = []
    while True:
        cur.skip_ws()
        pos = cur.pos()
        if cur.peek() == "(":
            cur.advance()
            open_nodes.append((pos, []))
            continue
        occ = _parse_node_end(cur, pos, [])
        # Attach the finished node to its parent, closing parents as ')' come.
        while open_nodes:
            cur.skip_ws()
            if cur.peek() != ":":
                raise NewickSyntaxError("missing branch length", *cur.pos())
            cur.advance()
            length, lpos = _parse_length(cur)
            ppos, siblings = open_nodes[-1]
            siblings.append((occ, length, lpos))
            cur.skip_ws()
            ch = cur.peek()
            if ch == ",":
                cur.advance()
                break
            if ch == ")":
                cur.advance()
                open_nodes.pop()
                occ = _parse_node_end(cur, ppos, siblings)
                continue
            if ch == "":
                raise UnbalancedParens("unclosed parenthesis", *cur.pos())
            raise NewickSyntaxError(f"expected ',' or ')', found {ch!r}", *cur.pos())
        else:
            return occ


def reference_parse_enewick(text: str) -> PhyloNetwork:
    """Parse one network string.  Raises positioned errors on bad syntax,
    unmatched parentheses, single-use hybrid tags, nonpositive lengths, or
    inconsistent hybrid times."""
    cur = _Cursor(text)
    cur.skip_ws()
    if cur.peek() == "":
        raise NewickSyntaxError("empty input", *cur.pos())
    top = _parse_subtree(cur)
    cur.skip_ws()
    ch = cur.peek()
    if ch == ")":
        raise UnbalancedParens("unmatched closing parenthesis", *cur.pos())
    if ch != ";":
        if ch == "":
            raise NewickSyntaxError("expected ';' at end of input", *cur.pos())
        raise NewickSyntaxError(f"expected ';', found {ch!r}", *cur.pos())
    cur.advance()
    cur.skip_ws()
    if cur.peek() != "":
        raise NewickSyntaxError("trailing characters after ';'", *cur.pos())
    return _resolve(top)


def _resolve(top: _Occ) -> PhyloNetwork:
    occs: list[_Occ] = []
    stack = [top]
    top.time = Fraction(0)
    while stack:
        occ = stack.pop()
        occs.append(occ)
        for child, length, lpos in occ.children:
            if length <= 0:
                raise TimeInconsistency("branch length must be positive", *lpos)
            child.time = occ.time + length
            stack.append(child)

    by_tag: dict[str, list[_Occ]] = {}
    for occ in occs:
        if occ.tag is not None:
            by_tag.setdefault(occ.tag, []).append(occ)

    node_of: dict[int, str] = {}
    hybrid_id: dict[str, str] = {}
    for tag in sorted(by_tag):
        group = by_tag[tag]
        if len(group) == 1:
            raise HybridArityError(
                f"hybrid tag #H{tag} appears only once", *group[0].pos
            )
        defs = [o for o in group if o.children]
        if len(defs) > 1:
            raise NewickSyntaxError(
                f"hybrid #H{tag} defined more than once", *defs[1].pos
            )
        names = sorted({o.name for o in group if o.name})
        if len(names) > 1:
            raise NewickSyntaxError(
                f"conflicting names for hybrid #H{tag}: {', '.join(names)}",
                *group[0].pos,
            )
        t0 = group[0].time
        for o in group[1:]:
            if o.time != t0:
                raise TimeInconsistency(
                    f"hybrid #H{tag} occurs at times {t0} and {o.time}", *o.pos
                )
        hybrid_id[tag] = names[0] if names else f"#H{tag}"
        for o in group:
            node_of[id(o)] = hybrid_id[tag]

    counter = 0
    declared: dict[str, tuple[int, int]] = {}
    for occ in occs:
        if occ.tag is not None:
            continue
        if occ.name:
            node = occ.name
        else:
            node = f"@n{counter}"
            counter += 1
        node_of[id(occ)] = node
        if node in declared:
            raise NewickSyntaxError(f"duplicate node name {node!r}", *occ.pos)
        declared[node] = occ.pos
    for tag, node in hybrid_id.items():
        if node in declared:
            raise NewickSyntaxError(f"duplicate node name {node!r}", *by_tag[tag][0].pos)
        declared[node] = by_tag[tag][0].pos

    times: dict[str, Fraction] = {}
    edges: list[tuple[str, str]] = []
    for occ in occs:
        node = node_of[id(occ)]
        times[node] = occ.time
        for child, _length, _lpos in occ.children:
            edges.append((node, node_of[id(child)]))
    # No ancestry cycle can form: lengths are positive and hybrid copies share one time.
    return PhyloNetwork(root=node_of[id(top)], times=times, edges=tuple(edges))


def outcome(parse, text):
    """The parsed network, or the class, message, line and column raised."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def assert_same_outcomes(texts):
    for text in texts:
        # Non-ASCII digits are the one intended change: lengths and tags
        # take ASCII digits only.
        if any(ch.isdigit() and not ch.isascii() for ch in text):
            continue
        assert outcome(parse_enewick, text) == outcome(reference_parse_enewick, text), text


def fuzz_strings(seed, alphabet, count=10_000):
    """Criterion 10's fuzz inputs: random strings over ``alphabet`` and
    damaged corpus files, alternating."""
    rng = random.Random(seed)
    corpus_texts = [p.read_text().strip() for p in sorted(CORPUS.glob("*.enwk"))]
    for i in range(count):
        if i % 2 == 0:
            yield "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 50)))
            continue
        s = list(rng.choice(corpus_texts))
        for _ in range(rng.randrange(1, 4)):
            op = rng.randrange(3)
            pos = rng.randrange(len(s) + 1) if s else 0
            if op == 0 and s:
                s[min(pos, len(s) - 1)] = rng.choice(alphabet)
            elif op == 1:
                s.insert(pos, rng.choice(alphabet))
            elif s:
                del s[min(pos, len(s) - 1)]
        yield "".join(s)


FUZZ_ALPHABET = list("()#H:;,.0123456789ABxyz_- \n\t@[]")


class TestMatchesReference:
    def test_corpus(self):
        files = sorted(CORPUS.glob("*.enwk"))
        assert len(files) == 50
        assert_same_outcomes(p.read_text() for p in files)

    def test_criterion_10_fuzz(self):
        assert_same_outcomes(fuzz_strings(987654321, FUZZ_ALPHABET))

    def test_fuzz_with_carriage_returns(self):
        assert_same_outcomes(fuzz_strings(20261018, FUZZ_ALPHABET + ["\r"]))

    def test_deep_and_long_and_their_damage(self):
        rng = random.Random(4242)
        for text in (deep_caterpillar(2000), long_comb(2000)):
            variants = [text, text.replace(",", ",\r\n")]
            variants += [text[:cut] for cut in rng.sample(range(len(text)), 17)]
            for _ in range(17):
                at = rng.randrange(len(text) + 1)
                variants.append(text[:at] + rng.choice("(),:;#H.x0 \n\r") + text[at:])
            for _ in range(17):
                at = rng.randrange(len(text))
                variants.append(text[:at] + text[at + 1:])
            assert_same_outcomes(variants)


def test_positions_are_computed_only_for_rejections(monkeypatch):
    calls = []
    position = enewick._position

    def spy(text, offset):
        calls.append(offset)
        return position(text, offset)

    monkeypatch.setattr(enewick, "_position", spy)
    comb = long_comb(2000).replace(",", ",\n")
    assert len(parse_enewick(comb).times) == 2001
    assert calls == []
    # A syntax error, then one raised after the whole text is read.
    for text, where in ((comb[:-3], (2000, 10)), (comb.replace("t0001", "t0000"), (1, 2))):
        with pytest.raises(NewickSyntaxError) as info:
            parse_enewick(text)
        assert (info.value.line, info.value.col) == where
    assert len(calls) == 2


MIXED_DECIMALS = [
    "(A:1,B:0.5,C:2.125,D:007.50)r;",
    "((A:0.5,B:1)x:2.125,C:007.50)r;",
    "(A:1.0,B:1.000,C:01)r;",
    # A zero length after fractional ones, in each spelling.
    "(A:0.5,B:2.125,C:0)r;",
    "(A:0.5,(B:2.125,C:0.000)x:1)r;",
    "((A:007.50,B:0.0)x:0.25,C:1)r;",
    # Hybrid copies that agree in different spellings...
    "((C:1)#H1:1.5,(#H1:1.50,B:2)y:0.000001)r;",
    "(((C:0.5)#H1:2)x:1,#H1:3.000)r;",
    "(#H1:007.50,(C:1)#H1:7.5)r;",
    # ...and ones whose times differ only in the last digit.
    "((C:1)#H1:1.125,#H1:1.126)r;",
    "(((C:1)#H1:0.5)x:0.5,#H1:1.001)r;",
    "((C:1)#H1:2,#H1:2.0000000000000000000001)r;",
    "((C:0.25)#H1:1,(#H1:0.9,#H2:1)y:0.1,(D:1)#H2:1.1)r;",
]


def _decimal(ticks: int, digits: int, rng: random.Random) -> str:
    """``ticks / 10**digits`` as a decimal, spelled with or without leading
    zeros, trailing zeros and a fraction part where the value allows."""
    whole, frac = divmod(ticks, 10**digits)
    text = "0" * rng.randrange(2) + str(whole)
    frac_text = str(frac).rjust(digits, "0") if digits else ""
    if rng.random() < 0.5:
        frac_text = frac_text.rstrip("0")
    frac_text += "0" * rng.randrange(2)
    return f"{text}.{frac_text}" if frac_text else text


def dated_network_text(rng: random.Random) -> str:
    """A random dated network: a tree of up to 12 nodes, lengths of 0 to 3
    fraction digits, and up to 3 hybrids with extra parents that are often
    the defining parent (parallel edges).  A few lengths are zeroed or moved
    by one in their last digit, so every time error of the reader shows."""
    digits = rng.randrange(4)
    unit = 10**digits
    times = [0]
    parent = [None]
    for k in range(1, rng.randrange(2, 13)):
        p = rng.randrange(k)
        parent.append(p)
        times.append(times[p] + rng.randint(1, 3 * unit))
    extra: dict[int, list[int]] = {}  # hybrid -> its extra parents
    for h in rng.sample(range(1, len(times)), min(len(times) - 1, rng.randrange(4))):
        earlier = [p for p in range(len(times)) if times[p] < times[h]]
        for _ in range(rng.randint(1, 2)):
            p = parent[h] if rng.random() < 0.3 else rng.choice(earlier)
            extra.setdefault(p, []).append(h)
    tag = {h: str(j + 1) for j, h in enumerate(sorted({h for hs in extra.values() for h in hs}))}
    kids: dict[int, list[int]] = {}
    for k in range(1, len(times)):
        kids.setdefault(parent[k], []).append(k)

    def length(p: int, c: int) -> str:
        ticks = times[c] - times[p]
        roll = rng.random()
        if roll < 0.02:
            ticks = 0
        elif roll < 0.05:
            ticks += rng.choice((-1, 1)) if ticks > 1 else 1
        return _decimal(ticks, digits, rng)

    def name(k: int, defining: bool) -> str:
        label = f"n{k}" if (defining or rng.random() < 0.3) and rng.random() < 0.7 else ""
        return label + (f"#H{tag[k]}" if k in tag else "")

    out: list[str] = []
    stack: list = [("node", 0)]
    while stack:
        kind, item = stack.pop()
        if kind == "text":
            out.append(item)
            continue
        children = [(c, True) for c in kids.get(item, ())]
        children += [(h, False) for h in extra.get(item, ())]
        rng.shuffle(children)
        if not children:
            out.append(f"n{item}" + (f"#H{tag[item]}" if item in tag else ""))
            continue
        out.append("(")
        stack.append(("text", ")" + name(item, True)))
        for j, (c, defining) in enumerate(reversed(children)):
            if j:
                stack.append(("text", ","))
            stack.append(("text", ":" + length(item, c)))
            if defining:
                stack.append(("node", c))
            else:
                stack.append(("text", "#H" + tag[c]))
    return "".join(out) + ";"


def dated_texts(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [dated_network_text(rng) for _ in range(count)]


class TestIntegerTimesMatchReference:
    def test_mixed_decimal_counts(self):
        for text in MIXED_DECIMALS:
            assert outcome(parse_enewick, text) == outcome(reference_parse_enewick, text)
        assert parse_enewick(MIXED_DECIMALS[0]).times["D"] == F(15, 2)
        with pytest.raises(TimeInconsistency, match="occurs at times 563/500 and 9/8"):
            parse_enewick("((C:1)#H1:1.125,#H1:1.126)r;")

    def test_seeded_dated_networks(self):
        texts = dated_texts(20261018, 600)
        outcomes = [outcome(reference_parse_enewick, t) for t in texts]
        for text, expected in zip(texts, outcomes):
            assert outcome(parse_enewick, text) == expected, text
        # The sample covers every time error and plenty of hybrids.
        errors = Counter(
            "zero" if "positive" in o[1] else "hybrid" if "occurs at" in o[1] else o[0]
            for o in outcomes
            if isinstance(o, tuple)
        )
        assert errors["zero"] >= 20 and errors["hybrid"] >= 20, errors
        nets = [o for o in outcomes if isinstance(o, PhyloNetwork)]
        assert sum(len(set(n.edges)) < len(n.edges) for n in nets) >= 30
        assert sum(max(Counter(c for _, c in n.edges).values()) > 1 for n in nets) >= 100


# network_to_reeb as it was before it sorted times as integers, kept verbatim
# (apart from its name) as the reference for the differential below.
def reference_network_to_reeb(net: PhyloNetwork):
    f_values = {v: -t for v, t in net.times.items()}
    levels = sorted(set(f_values.values()))
    if len(levels) < 2:
        raise ValueError("need at least two distinct time values to build levels")
    index = {x: i for i, x in enumerate(levels)}

    vertices: list[set[str]] = [set() for _ in levels]
    for v, f in f_values.items():
        vertices[index[f]].add(v)
    gaps: list[list[tuple[str, str, str]]] = [[] for _ in range(len(levels) - 1)]

    pair_seen: dict[tuple[str, str], int] = {}
    for parent, child in net.edges:
        n = pair_seen.get((parent, child), 0)
        pair_seen[(parent, child)] = n + 1
        base = f"{child}<{parent}" if n == 0 else f"{child}<{parent}~{n}"
        lo = index[f_values[child]]
        hi = index[f_values[parent]]
        if hi <= lo:
            raise ValueError(f"edge {parent!r} -> {child!r} does not go down in level")
        if hi == lo + 1:
            gaps[lo].append((base, child, parent))
            continue
        prev = child
        for g in range(lo, hi):
            upper = (
                parent
                if g + 1 == hi
                else f"{base}@{format_level(levels[g + 1])}"
            )
            if g + 1 != hi:
                vertices[g + 1].add(upper)
            gaps[g].append((f"{base}:{g}", prev, upper))
            prev = upper
    return make_graph(levels, [sorted(vs) for vs in vertices], gaps)


class TestEmbeddingMatchesReference:
    def assert_same(self, nets):
        for net in nets:
            assert outcome(network_to_reeb, net) == outcome(reference_network_to_reeb, net)

    def test_seeded_dated_networks(self):
        outcomes = [outcome(parse_enewick, text) for text in dated_texts(7, 600)]
        nets = [o for o in outcomes if isinstance(o, PhyloNetwork)]
        assert len(nets) >= 300
        assert sum(len(set(n.edges)) < len(n.edges) for n in nets) >= 100
        self.assert_same(nets)

    def test_corpus_and_thirds(self):
        # Times in thirds and sevenths give levels without a decimal form.
        nets = [parse_enewick(p.read_text()) for p in sorted(CORPUS.glob("*.enwk"))]
        nets += [
            dataclasses.replace(n, times={v: t / 3 + F(1, 7) for v, t in n.times.items()})
            for n in nets
        ]
        self.assert_same(nets)

    def test_degenerate_networks(self):
        self.assert_same([
            PhyloNetwork(root="A", times={"A": F(0)}, edges=()),
            PhyloNetwork(root="r", times={"r": F(0), "c": F(-1)}, edges=(("r", "c"),)),
            PhyloNetwork(root="r", times={"r": F(0), "c": F(0)}, edges=(("r", "c"),)),
            # A node named like a pass-through vertex shares its id.
            PhyloNetwork(
                root="r",
                times={"r": F(0), "x": F(1), "c": F(2), "c<r@-1": F(1)},
                edges=(("r", "c"), ("r", "x"), ("x", "c<r@-1")),
            ),
        ])


# network_to_reeb's compact graphs against the reference embedding above,
# which builds every field with make_graph.

FIELDS = tuple(f.name for f in dataclasses.fields(ReebGraph))
DERIVED = ("vertex_sets", "edge_sets", "down_maps", "up_maps", "vertex_orders", "edge_orders")


def built(graph) -> bool:
    """Whether a compact graph has built its derived fields."""
    return any(name in vars(graph) for name in DERIVED)


def net_of(times, edges) -> PhyloNetwork:
    return PhyloNetwork(
        root=edges[0][0], times={v: F(t) for v, t in times.items()}, edges=tuple(edges)
    )


def adversarial_networks() -> list[PhyloNetwork]:
    """Networks that the compact graph's proofs do not cover: ids no reader
    makes, which may repeat generated ids, and shapes with an isolated
    node, two parentless nodes, a node of one parent and one child, or
    parallel branches."""
    return [
        # '<': a child's name holds its parent's edge, in one gap and across.
        net_of({"r": 0, "b": 1, "c": 1, "a": 2, "a<b": 2},
               [("r", "b"), ("r", "c"), ("b", "a"), ("c", "a<b"), ("c", "a")]),
        net_of({"r": 0, "a": 2, "b<r": 1, "b": 3}, [("r", "a"), ("r", "b<r"), ("b<r", "b")]),
        net_of({"r": 0, "x": 1, "y<z": 2}, [("r", "x"), ("x", "y<z")]),
        # '@': a node named like a pass-through vertex, on its level or another.
        net_of({"r": 0, "c": 2, "c<r@-1": 1}, [("r", "c"), ("r", "c<r@-1")]),
        net_of({"r": 0, "x": 1, "c": 2, "c<r@-1": 2}, [("r", "c"), ("r", "x"), ("x", "c<r@-1")]),
        net_of({"@r": 0, "@x": 1, "y": 2, "z": 1}, [("@r", "@x"), ("@r", "z"), ("@x", "y"), ("z", "y")]),
        # '~': a name like a parallel branch's.
        net_of({"r": 0, "a": 1, "b": 1}, [("r", "a"), ("r", "a"), ("r", "b")]),
        net_of({"r~1": 0, "a": 1, "b": 1}, [("r~1", "a"), ("r~1", "b")]),
        net_of({"r": 0, "a": 2, "a<r~1": 1}, [("r", "a"), ("r", "a"), ("r", "a<r~1")]),
        # ':': a name like a subdivided branch's edge.
        net_of({"r": 0, "a": 2, "a<r:0": 1, "b": 2}, [("r", "a"), ("r", "a<r:0"), ("a<r:0", "b")]),
        # The reserved prefix, on a node and so on its branch's edge ids.
        net_of({"r": 0, "cut:a": 2, "b": 1}, [("r", "cut:a"), ("r", "b")]),
        net_of({"cut:r": 0, "a": 1, "b": 1}, [("cut:r", "a"), ("cut:r", "b")]),
        net_of({"r": 0, "a": 1, "h": 2, "cut:h<r:0": 2},
               [("r", "a"), ("r", "h"), ("a", "h"), ("a", "cut:h<r:0")]),
        # An isolated node: a gap without edges, a second component.
        net_of({"r": 0, "a": 1, "b": 1, "z": 3}, [("r", "a"), ("r", "b")]),
        net_of({"r": 0, "a": 2, "b": 2, "z": 1}, [("r", "a"), ("r", "b")]),
        # Two parentless nodes: joined by a merge, or apart.
        net_of({"r": 0, "s": 0, "a": 1, "b": 1}, [("r", "a"), ("s", "a"), ("s", "b")]),
        net_of({"r": 0, "s": 1, "a": 2, "b": 2}, [("r", "a"), ("s", "a"), ("r", "b")]),
        net_of({"r": 0, "s": 1, "a": 2, "b": 3}, [("r", "a"), ("s", "b")]),
        # A node of one parent and one child.
        net_of({"r": 0, "m": 1, "a": 2, "b": 2}, [("r", "m"), ("m", "a"), ("r", "b")]),
        net_of({"r": 0, "m": 1, "a": 3}, [("r", "m"), ("m", "a")]),
        # Parallel branches, over one gap and over several.
        net_of({"r": 0, "h": 1}, [("r", "h"), ("r", "h")]),
        net_of({"r": 0, "a": 1, "h": 3}, [("r", "h"), ("r", "a"), ("r", "h"), ("a", "h")]),
        # Names with characters the writer replaces.
        net_of({"r s": 0, "a/b": 1, "c": 1}, [("r s", "a/b"), ("r s", "c")]),
    ]


def answers(make, net=None):
    """What a graph answers, read on a fresh graph from ``make`` each time,
    so that no answer reads another's caches: validate's lines, with and
    without cut ids, the checked skeleton or what it raises, every field,
    the JSON text, and the factor vectors and self-distance or what they
    raise."""
    from test_core import (
        in_validates_order, raised, reference_checked_skeleton, reference_validate,
    )

    check = (lambda g: g._checked_skeleton) if net else reference_checked_skeleton
    lines = validate if net else (lambda g, **kw: in_validates_order(reference_validate(g, **kw)))
    return (
        [lines(make(), allow_cut_ids=allow) for allow in (False, True)],
        raised(check, make()),
        [getattr(make(), name) for name in FIELDS],
        dump_text(make()),
        raised(lambda g: [(v.leaves, v._integer) for v in network_factors(g).vectors], make()),
        raised(lambda g: network_distance(g, make(), p=2), make()),
    )


def assert_compact_answers(net: PhyloNetwork) -> None:
    """The compact graph of ``net``, and its pickled and copied forms,
    answer as the reference embedding's graph does."""
    want = outcome(reference_network_to_reeb, net)
    if not isinstance(want, ReebGraph):
        assert outcome(network_to_reeb, net) == want
        return
    expected = answers(lambda: dataclasses.replace(want))
    for copier in (lambda g: g, lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy):
        assert answers(lambda: copier(network_to_reeb(net)), net) == expected
        g = copier(network_to_reeb(net))
        assert g == want and want == g and network_to_reeb(net) == g
    # Sets and maps take their ids in make_graph's order, which fixes the
    # order of validate's lines.
    g = network_to_reeb(net)
    for name in ("vertex_sets", "edge_sets", "down_maps", "up_maps"):
        assert list(map(list, getattr(g, name))) == list(map(list, getattr(want, name)))


def round_trip_networks() -> list[PhyloNetwork]:
    """Generator graphs of cycle rank 0 to 3 sent through write_enewick
    and back."""
    out = []
    for seed in range(12):
        for n, s, lv in [(3, 0, 3), (4, 1, 4), (5, 2, 5), (4, 3, 6), (6, 2, 4)]:
            try:
                g = random_graph(GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=3))
                out.append(parse_enewick(write_enewick(reeb_to_network(g))))
            except (ReebError, ValueError):
                pass
    return out


def swapped(net: PhyloNetwork, rng: random.Random) -> PhyloNetwork:
    """``net`` with the children of two branches exchanged where the times
    allow it: the same levels and nodes, mostly other branches."""
    edges = list(net.edges)
    for _ in range(20):
        i, j = rng.sample(range(len(edges)), 2) if len(edges) > 1 else (0, 0)
        (p, c), (q, d) = edges[i], edges[j]
        if net.times[p] < net.times[d] and net.times[q] < net.times[c]:
            edges[i], edges[j] = (p, d), (q, c)
            break
    return dataclasses.replace(net, edges=tuple(edges))


class TestCompactMatchesReference:
    def test_adversarial_networks(self):
        nets = adversarial_networks()
        for net in nets:
            assert_compact_answers(net)
        # Equality on every pair agrees with the built graphs'.
        refs = [outcome(reference_network_to_reeb, n) for n in nets]
        for a, ra in zip(nets, refs):
            for b, rb in zip(nets, refs):
                if isinstance(ra, ReebGraph) and isinstance(rb, ReebGraph):
                    assert (network_to_reeb(a) == network_to_reeb(b)) == (ra == rb)

    def test_clashing_ids_raise_when_embedded(self):
        # Two branches named "a<b<c" in one gap: make_graph's error, at once.
        net = net_of({"r": 0, "b<c": 1, "c": 1, "a": 2, "a<b": 2},
                     [("r", "b<c"), ("r", "c"), ("b<c", "a"), ("c", "a<b")])
        with pytest.raises(ValueError, match="duplicate edge id 'a<b<c' in gap 0"):
            network_to_reeb(net)
        with pytest.raises(ValueError, match="duplicate edge id 'a<b<c' in gap 0"):
            reference_network_to_reeb(net)

    def test_corpus_dated_and_generator_networks(self):
        nets = [parse_enewick(p.read_text()) for p in sorted(CORPUS.glob("*.enwk"))]
        nets += [o for o in (outcome(parse_enewick, t) for t in dated_texts(7, 600))
                 if isinstance(o, PhyloNetwork)]
        generated = round_trip_networks()
        assert len(generated) >= 40 and sum(len(set(c for _, c in n.edges)) < len(n.edges) for n in generated) >= 20
        nets += generated
        rng = random.Random(31)
        kinds = Counter()
        for net in nets:
            assert_compact_answers(net)
            # Equal and unequal pairs: a copy with shuffled branches, one
            # with two branches' children exchanged, one with a branch
            # doubled, the next network.
            shuffled = dataclasses.replace(net, edges=tuple(rng.sample(net.edges, len(net.edges))))
            doubled = dataclasses.replace(net, edges=(*net.edges, rng.choice(net.edges)))
            for other in (shuffled, swapped(net, rng), doubled, nets[(nets.index(net) + 1) % len(nets)]):
                same = network_to_reeb(net) == network_to_reeb(other)
                assert same == (reference_network_to_reeb(net) == reference_network_to_reeb(other))
                kinds[same] += 1
            kinds["plain"] += network_to_reeb(net).__dict__["_recipe"].plain
        assert kinds[True] >= 300 and kinds[False] >= 300 and kinds["plain"] >= 300, kinds

    def test_dated_caterpillars(self):
        for taxa in (3, 40, 1000):
            g = dated_caterpillar(taxa)
            text = write_enewick(reeb_to_network(g))
            assert not built(g)
            want = reference_network_to_reeb(parse_enewick(text))
            assert g == want
            assert validate(g) == []
            got = network_to_reeb(parse_enewick(text))
            for name in FIELDS:
                assert getattr(got, name) == getattr(want, name)
            del got, want

    def test_outputs_byte_identical(self):
        # Vectors and distances against the reference's graphs.
        nets = [parse_enewick(p.read_text()) for p in sorted(CORPUS.glob("*.enwk"))]
        nets += round_trip_networks()[::3]
        for a, b in zip(nets, nets[1:] + nets[:1]):
            for ga, gb in ((network_to_reeb(a), network_to_reeb(b)),
                           (reference_network_to_reeb(a), reference_network_to_reeb(b))):
                got = [outcome(lambda g: [(v.leaves, v._integer) for v in network_factors(g).vectors], ga),
                       outcome(lambda _: network_distance(ga, gb, p=2), None),
                       outcome(lambda _: network_distance(ga, ga), None)]
                if ga.__dict__.get("_recipe"):
                    compact = got
                else:
                    assert got == compact

    def test_cli_outputs_byte_identical(self, tmp_path, monkeypatch, capsys):
        from reebtrees import cli

        folder = tmp_path / "nets"
        folder.mkdir()
        for k, text in enumerate(t for t in dated_texts(11, 60) if isinstance(outcome(parse_enewick, t), PhyloNetwork)):
            (folder / f"d{k:02d}.enwk").write_text(text)
        for p in sorted(CORPUS.glob("*.enwk"))[:8]:
            (folder / p.name).write_text(p.read_text())
        (folder / "cat.enwk").write_text(write_enewick(reeb_to_network(dated_caterpillar(30))))
        files = sorted(str(f) for f in folder.iterdir())
        commands = [["dist", "--matrix", str(folder)], ["dist", "--matrix", str(folder), "--p", "inf"]]
        for f in files:
            commands += [["convert", f, "--to", "enwk"], ["convert", f, "--to", "json"],
                         ["validate", f], ["dist", f, files[0]]]

        def run():
            out = []
            for argv in commands:
                code = main(argv)
                out.append((code, *capsys.readouterr()))
            return out

        compact = run()
        monkeypatch.setattr(cli, "enewick_to_reeb", lambda text: reference_network_to_reeb(parse_enewick(text)))
        assert run() == compact
        codes = Counter(code for code, *_ in compact)
        assert codes[0] >= 150 and codes[1] >= 20, codes


class TestTreeScaleStaysCompact:
    def test_operation_builds_no_field(self):
        """The benchmark's operation: parse two trees, embed and validate
        them, take their distance, write the first back and compare it with
        its re-import.  Neither graph builds its derived fields."""
        from test_core import tree_scale_text

        rng = random.Random(4243)
        for kind in ("caterpillar", "balanced", "random"):
            n = 120
            text = tree_scale_text(rng, kind, n)
            other = re.sub(r"\b([ti][0-9]+)", r"r_\1", text)
            ranks = {f"t{k}": k for k in range(n)}
            for text_b, ranks_b in ((text, ranks), (other, {f"r_{t}": k for t, k in ranks.items()})):
                ga = network_to_reeb(parse_enewick(text))
                gb = network_to_reeb(parse_enewick(text_b))
                assert validate(ga) + validate(gb) == []
                assert network_distance(ga, gb, ranks_a=ranks, ranks_b=ranks_b) == 0
                again = network_to_reeb(parse_enewick(write_enewick(reeb_to_network(ga))))
                assert not again != ga
                assert not any(map(built, (ga, gb, again)))

    def test_networks_build_no_field(self):
        # Hybrids: the factor vectors' cut-id checks read no vertex either.
        stayed = 0
        for p in sorted(CORPUS.glob("*.enwk")):
            g, h = (enewick_to_reeb(p.read_text()) for _ in range(2))
            assert validate(g) == []
            assert network_distance(g, h, p=2) == 0
            want = reference_reeb_to_network(reference_network_to_reeb(parse_enewick(p.read_text())))
            assert write_enewick(reeb_to_network(g)) == write_enewick(want)
            # A node of one parent and one child sends the skeleton to its
            # own pass, which reads the fields.
            recorded = g._recipe.skeleton(g) is not None
            assert built(g) != recorded and built(h) != recorded
            stayed += recorded and build_dag_view(g) > 0
        assert stayed >= 10, stayed
