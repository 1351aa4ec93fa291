"""Cophenetic vectors, root extraction, and the distances built on them."""

from __future__ import annotations

import dataclasses
import math
import random
import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import reebtrees
from reebtrees import (
    CopheneticVector,
    CutChoice,
    DimensionMismatch,
    EmptySet,
    GeneratorSpec,
    IncompatibleShape,
    InfeasibleSpec,
    LevelPoset,
    NotATree,
    NotRooted,
    OrderConflict,
    ReebError,
    ReticulationConflict,
    apply_choice,
    cophenetic_vector,
    decompose,
    enewick_to_reeb,
    enumerate_choices,
    factor_count,
    hausdorff_distance,
    leaf_order,
    load_text,
    lp_distance,
    make_choice,
    make_graph,
    minimize_critical_set,
    network_distance,
    network_to_reeb,
    nth_root_fraction,
    parse_enewick,
    random_graph,
    reeb_to_network,
    validate,
)
from reebtrees.core import RESERVED_VERTEX_PREFIX, ReebGraph
from reebtrees.dag import betti_euler, build_dag_view
from reebtrees.decomposition import (
    Factor,
    _cut_table,
    _require_trivial_orders,
    cut_options,
)
from reebtrees.phylo import (
    NetworkFactors,
    _check_time_mode,
    _gray_code,
    _pack,
    _rows,
    _stamps,
    _swap,
    _taxa_below,
    _vector,
    _walk,
    network_factors,
)

from conftest import (
    SAFE_SHAPES,
    assert_cuts_take_fresh_ids,
    chain_with_bigons,
    corpus,
    dated_caterpillar,
    two_cover_cut_leaf,
)
from test_enewick import CORPUS, dated_texts

DATA = Path(__file__).parent / "data"

F = Fraction


def two_leaf_tree():
    return make_graph(
        [0, 1, 2],
        [["x", "y"], ["m"], ["t"]],
        [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
    )


def three_leaf_tree():
    # Leaf c reaches the root through a pass-through vertex, since an edge
    # may not skip a level.
    g = make_graph(
        [0, 1, 2],
        [["a", "b", "c"], ["m", "c1"], ["t"]],
        [
            [("e1", "a", "m"), ("e2", "b", "m"), ("e5", "c", "c1")],
            [("e3", "m", "t"), ("e4", "c1", "t")],
        ],
    )
    assert validate(g) == []
    return g


class TestLeafOrder:
    def test_unranked_by_level_then_id(self, cycle_graph):
        assert leaf_order(cycle_graph) == ("l2", "l3", "l4", "l1")

    def test_ranks_come_first(self, cycle_graph):
        order = leaf_order(cycle_graph, ranks={"l1": 1, "l2": 2})
        assert order == ("l1", "l2", "l3", "l4")
        assert order.index("l2") == 1

    def test_rank_values_not_positions(self, cycle_graph):
        # Ranks only need to be comparable, not contiguous.
        order = leaf_order(cycle_graph, ranks={"l4": -5, "l3": 100})
        assert order == ("l4", "l3", "l2", "l1")

    def test_factors_agree_on_cut_positions(self, net_a, ranks_a):
        dec = decompose(net_a)
        orders = [leaf_order(f, ranks=ranks_a) for f in dec.factors]
        assert orders[0] == ("l1", "l2", "cut:mr")
        assert orders[1] == ("l1", "l2", "cut:br")
        # Same slot for the cut leaf in every factor.
        for o in orders:
            assert o[:2] == ("l1", "l2")

    def test_cover_path_matches_factor_path(self, net_a, ranks_a):
        # Passing the bare graph loses the reattachment table, but the cover
        # recorded at the cut level carries the same merge vertex.
        factor = decompose(net_a).factors[0]
        via_factor = leaf_order(factor, ranks=ranks_a)
        via_graph = leaf_order(factor.graph, ranks=ranks_a)
        assert via_factor == via_graph

    def test_cut_leaf_under_two_covers_takes_the_least(self):
        # cut:x is covered with a and with c, cut:y with b: cut:x takes the
        # least, a, and sorts first, under either order of the covers
        # (test_hash_seed runs both graphs under several hash seeds).
        want = ("a", "b", "c", "cut:x", "cut:y")
        for covers in (["a", "c"], ["c", "a"]):
            g = two_cover_cut_leaf(covers)
            assert leaf_order(g) == cophenetic_vector(g).leaves == want

    def test_cut_leaf_without_provenance(self):
        # A hand-built graph may use the reserved prefix with no cover at
        # all; such leaves still sort deterministically, after originals.
        g = make_graph(
            [0, 1],
            [["cut:q", "a"], ["t"]],
            [[("e", "cut:q", "t"), ("f", "a", "t")]],
        )
        assert leaf_order(g) == ("a", "cut:q")

    def test_cut_leaves_sort_by_their_detached_edge(self):
        # Edges a < a! < b arrive at r, and the network holds cut:a and
        # cut:b, so a's leaf is cut:a', which sorts after cut:a! as an id.
        g, _ = load_text((DATA / "cut_id_clash.json").read_text())
        factor = decompose(g).factors[2]
        assert factor.choice.kept == (("r", "b"),)
        assert factor.cut_vertices == ("cut:a!", "cut:a'")
        order = ("r", "cut:b", "cut:a'", "cut:a!", "cut:a")
        assert leaf_order(factor) == leaf_order(factor.graph) == order
        assert network_factors(g).vectors[2].leaves == order
        assert_cuts_take_fresh_ids(g)


class TestCopheneticVector:
    def test_two_leaf_oracle(self):
        vec = cophenetic_vector(two_leaf_tree())
        assert vec.leaves == ("x", "y")
        assert vec.entries == (F(0), F(1), F(0))

    def test_three_leaf_oracle(self):
        vec = cophenetic_vector(three_leaf_tree())
        assert vec.leaves == ("a", "b", "c")
        # Pairs in order: (a,a) (a,b) (a,c) (b,b) (b,c) (c,c).
        assert vec.entries == (F(0), F(1), F(2), F(0), F(2), F(0))

    def test_net_a_factor_vectors(self, net_a, ranks_a):
        dec = decompose(net_a)
        v1 = cophenetic_vector(dec.factors[0], ranks=ranks_a, time_mode="-f")
        v2 = cophenetic_vector(dec.factors[1], ranks=ranks_a, time_mode="-f")
        assert v1.entries == (F(7), F(3), F(1), F(4), F(1), F(4))
        assert v2.entries == (F(7), F(1), F(1), F(4), F(3), F(4))

    def test_net_b_factor_vectors(self, net_b, ranks_b):
        dec = decompose(net_b)
        v3 = cophenetic_vector(dec.factors[0], ranks=ranks_b, time_mode="-f")
        v4 = cophenetic_vector(dec.factors[1], ranks=ranks_b, time_mode="-f")
        assert v3.entries == (F(4), F(3), F(1), F(7), F(1), F(4))
        assert v4.entries == (F(4), F(1), F(3), F(7), F(1), F(4))

    def test_time_mode_flips_sign(self, net_a, ranks_a):
        factor = decompose(net_a).factors[0]
        plain = cophenetic_vector(factor, ranks=ranks_a, time_mode="f")
        flipped = cophenetic_vector(factor, ranks=ranks_a, time_mode="-f")
        assert plain.entries == tuple(-x for x in flipped.entries)

    def test_entry_lookup_is_symmetric(self):
        vec = cophenetic_vector(three_leaf_tree())
        n = len(vec.leaves)
        for i in range(n):
            for j in range(n):
                assert vec.entry(i, j) == vec.entry(j, i)
        assert vec.entry(0, 1) == vec.entries[1]
        assert vec.entry(1, 2) == vec.entries[4]

    def test_entry_outside_the_leaves_raises(self):
        vec = cophenetic_vector(enewick_to_reeb("((A:1,B:1):1,C:2);"))
        assert len(vec.leaves) == 3
        for i, j in ((0, 3), (3, 0), (-1, 0), (0, -1), (3, 3)):
            with pytest.raises(IndexError, match=f"entry \\({i}, {j}\\) outside 3 leaves"):
                vec.entry(i, j)
        assert vec.entry(2, 0) == vec.entries[2]

    def test_diagonal_is_leaf_stamp(self):
        vec = cophenetic_vector(three_leaf_tree())
        assert [vec.entry(i, i) for i in range(3)] == [F(0), F(0), F(0)]

    def test_bad_time_mode(self):
        with pytest.raises(ValueError, match="time_mode must be 'f' or '-f'"):
            cophenetic_vector(two_leaf_tree(), time_mode="g")

    def test_merge_vertex_rejected(self, cycle_graph):
        with pytest.raises(NotATree, match="vertex 'r' has 2 edges arriving from above"):
            cophenetic_vector(cycle_graph)

    def test_two_roots_rejected(self):
        # Two disjoint stalks: tree-shaped everywhere, but no single crown.
        g = make_graph(
            [0, 1],
            [["p", "q"], ["s", "t"]],
            [[("ep", "p", "s"), ("eq", "q", "t")]],
        )
        with pytest.raises(NotRooted, match="2 source vertices, expected exactly 1"):
            cophenetic_vector(g)


def reference_cophenetic_vector(
    source: ReebGraph | Factor,
    *,
    ranks=None,
    time_mode: str = "f",
) -> CopheneticVector:
    """The chain/LCA construction the top-down pass replaced: for every pair
    of taxa, walk one taxon's ancestor chain until it meets the other's."""
    if time_mode not in ("f", "-f"):
        raise ValueError(f"time_mode must be 'f' or '-f', not {time_mode!r}")
    graph = source.graph if isinstance(source, Factor) else source
    for v in graph.vertex_level:
        if graph.indeg(v) > 1:
            raise NotATree(f"vertex {v!r} has {graph.indeg(v)} edges arriving from above")
    sources = [v for v in graph.vertex_ids() if graph.indeg(v) == 0]
    if len(sources) != 1:
        raise NotRooted(f"{len(sources)} source vertices, expected exactly 1")

    def parent(v: str) -> str | None:
        es = graph.above_edges.get(v, ())
        if not es:
            return None
        e = es[0]
        return graph.up_maps[graph.edge_gap[e]][e]

    def chain(v: str) -> list[str]:
        out = [v]
        while (p := parent(out[-1])) is not None:
            out.append(p)
        return out

    def stamp(v: str) -> Fraction:
        value = graph.levels[graph.vertex_level[v]]
        return value if time_mode == "f" else -value

    leaves = leaf_order(source, ranks=ranks)
    chains = {v: chain(v) for v in leaves}
    entries: list[Fraction] = []
    for i, li in enumerate(leaves):
        pos = {v: idx for idx, v in enumerate(chains[li])}
        for j in range(i, len(leaves)):
            if i == j:
                entries.append(stamp(li))
                continue
            lca = next(v for v in chains[leaves[j]] if v in pos)
            entries.append(stamp(lca))
    return CopheneticVector(leaves=leaves, entries=tuple(entries), time_mode=time_mode)


def random_enewick_tree(rng: random.Random, shape: str, n: int, lengths) -> str:
    """A seeded eNewick tree over taxa t0..t{n-1}.  "random" joins two to
    four subtrees at a time (multifurcations); mixed lengths make branches
    span several levels, so the embedding has pass-through vertices."""
    subtrees = [f"t{k}" for k in rng.sample(range(n), n)]
    counter = 0

    def join(parts):
        nonlocal counter
        counter += 1
        inner = ",".join(f"{p}:{rng.choice(lengths)}" for p in parts)
        return f"({inner})i{counter}"

    if shape == "caterpillar":
        node = subtrees[0]
        for leaf in subtrees[1:]:
            node = join([node, leaf])
        return node + ";"
    while len(subtrees) > 1:
        if shape == "balanced":
            subtrees = [join(subtrees[k:k + 2]) if k + 1 < len(subtrees) else subtrees[k]
                        for k in range(0, len(subtrees), 2)]
        else:
            k = min(rng.randint(2, 4), len(subtrees))
            picked = rng.sample(range(len(subtrees)), k)
            parts = [subtrees[i] for i in picked]
            subtrees = [t for i, t in enumerate(subtrees) if i not in picked]
            subtrees.append(join(parts))
    return subtrees[0] + ";"


DECIMAL_LENGTHS = ("0.25", "0.5", "1", "1.5", "2.75")
WHOLE_LENGTHS = ("1", "2", "3")


def seeded_trees():
    """(graph, ranks) over caterpillar, balanced and random shapes, with
    decimal and whole lengths, ranked and unranked."""
    rng = random.Random(20261018)
    out = []
    for shape in ("caterpillar", "balanced", "random"):
        for k in range(8):
            n = rng.randint(2, 40)
            lengths = DECIMAL_LENGTHS if k % 2 else WHOLE_LENGTHS
            graph = enewick_to_reeb(random_enewick_tree(rng, shape, n, lengths))
            perm = rng.sample(range(n), n)
            ranks = {f"t{i}": perm[i] for i in range(n)} if k % 3 else None
            out.append((graph, ranks))
    # Hand-written: a multifurcation with unary stretches, and one taxon.
    out.append((enewick_to_reeb("(a:1,b:2.5,c:1.5,(d:1,e:3,f:0.5)g:1,(h:4)u:0.5)r;"), None))
    out.append((enewick_to_reeb("(t0:1.5)r;"), None))
    return out


def seeded_factors():
    """(factor, ranks) of generator graphs with in-degree-3 merges, whose
    factors carry cut leaves; ranks cover the original taxa only."""
    out = []
    for seed in range(12):
        for n, s, levels in ((2, 2, 3), (3, 2, 4), (4, 3, 5), (3, 4, 5)):
            try:
                g = random_graph(GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=levels, max_indeg=3))
            except InfeasibleSpec:
                continue
            taxa = sorted(v for v in g.vertex_ids() if g.outdeg(v) == 0)
            ranks = {v: -i for i, v in enumerate(taxa)} if seed % 2 else None
            out.extend((f, ranks) for f in decompose(g).factors)
    return out


class TestTopDownMatchesReference:
    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_trees(self, time_mode):
        for graph, ranks in seeded_trees():
            got = cophenetic_vector(graph, ranks=ranks, time_mode=time_mode)
            assert got == reference_cophenetic_vector(graph, ranks=ranks, time_mode=time_mode)

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_generator_factors(self, time_mode):
        factors = seeded_factors()
        assert len(factors) >= 200
        assert any(any(x.startswith("cut:") for x in leaf_order(f)) for f, _ in factors)
        for factor, ranks in factors:
            got = cophenetic_vector(factor, ranks=ranks, time_mode=time_mode)
            assert got == reference_cophenetic_vector(factor, ranks=ranks, time_mode=time_mode)

    @pytest.mark.parametrize("p", [1, 2, 3, "inf"])
    def test_distances_see_entries_only(self, p):
        # Same taxon count, one side with quarter lengths and one with whole
        # lengths, so the two vectors' own scales differ.
        rng = random.Random(7)
        for n in (2, 9, 23):
            trees = [
                enewick_to_reeb(random_enewick_tree(rng, shape, n, lengths))
                for shape, lengths in (("random", DECIMAL_LENGTHS), ("balanced", WHOLE_LENGTHS),
                                       ("caterpillar", DECIMAL_LENGTHS))
            ]
            vecs = [cophenetic_vector(t, time_mode=m) for t in trees for m in ("f", "-f")]
            plain = [v.entries for v in vecs]
            assert lp_distance(vecs[0], vecs[2], p) == lp_distance(plain[0], plain[2], p)
            assert lp_distance(vecs[1], plain[4], p) == lp_distance(plain[1], plain[4], p)
            d = hausdorff_distance(vecs[:3], vecs[3:], p)
            assert type(d) is F
            assert d == hausdorff_distance(plain[:3], plain[3:], p)
            assert d == hausdorff_distance(vecs[:3], plain[3:], p)
            assert d == reference_hausdorff(plain[:3], plain[3:], p)
        factors = [f for f, _ in seeded_factors()]
        by_size: dict[int, list] = {}
        for f in factors:
            by_size.setdefault(len(leaf_order(f)), []).append(cophenetic_vector(f))
        for group in by_size.values():
            half = max(1, len(group) // 2)
            a, b = group[:half], group[half:] or group[:1]
            assert hausdorff_distance(a, b, p) == hausdorff_distance(
                [v.entries for v in a], [v.entries for v in b], p
            )

    def test_factor_skeleton_keeps_merge_vertices(self, net_a, ranks_a):
        # r keeps one of its two arriving edges and has one child, so it is
        # regular in each factor; the (r, cut leaf) cover keeps it critical.
        for factor in decompose(net_a).factors:
            g = factor.graph
            assert g.indeg("r") == g.outdeg("r") == 1
            assert "r" in g._skeleton.vertex_level
            got = cophenetic_vector(factor, ranks=ranks_a)
            assert got == reference_cophenetic_vector(factor, ranks=ranks_a)
        # The generator factors, compared above, hold many such merges.
        regular = sum(
            f.graph.indeg(m) == f.graph.outdeg(m) == 1
            for f, _ in seeded_factors() for m, _ in f.choice.kept
        )
        assert regular >= 100, regular

    def test_equality_hash_and_repr_ignore_integer_form(self):
        graph, ranks = seeded_trees()[5]
        one = cophenetic_vector(graph, ranks=ranks)
        two = cophenetic_vector(graph, ranks=ranks)
        bare = CopheneticVector(leaves=one.leaves, entries=one.entries, time_mode=one.time_mode)
        assert one == two == bare
        assert hash(one) == hash(two) == hash(bare)
        assert repr(one) == repr(bare)
        assert "_integer" not in repr(one)
        # A replaced vector keeps no integer form from its original.
        shifted = dataclasses.replace(one, entries=tuple(x + F(1, 3) for x in one.entries))
        assert lp_distance(one, shifted, 1) == F(len(one.entries), 3)


def factor_route(graph, ranks, time_mode):
    """The per-factor reference: a ReebGraph per factor, each with its own
    leaf order and walk."""
    return tuple(
        cophenetic_vector(f, ranks=ranks, time_mode=time_mode) for f in decompose(graph).factors
    )


def assert_factor_route(graph, ranks, time_mode):
    got = network_factors(graph, ranks=ranks, time_mode=time_mode).vectors
    want = factor_route(graph, ranks, time_mode)
    assert got == want
    assert [v._integer for v in got] == [v._integer for v in want]
    assert all(v._integer is not None for v in got)


def prefixed_sinks_network():
    """A merge vertex r, itself a taxon, on level 0 beside the prefixed sink
    cut:q, and a second prefixed sink cut:z on level 1; the cut leaves the
    merge makes, cut:e1 and cut:e2, sort among them by the keys leaf_order
    uses."""
    return make_graph(
        [0, 1, 2],
        [["r", "cut:q", "a0"], ["a", "b", "cut:z"], ["t"]],
        [
            [("e1", "r", "a"), ("e2", "r", "b"), ("e3", "cut:q", "a"), ("e4", "a0", "b")],
            [("g1", "a", "t"), ("g2", "b", "t"), ("g3", "cut:z", "t")],
        ],
    )


def clashing_network(edge: str):
    """A merge vertex r on level 0 whose arriving edges are e1 and e2, and a
    sink on level 0 that already bears the cut leaf id of ``edge``."""
    return make_graph(
        [0, 1, 2],
        [["r", f"cut:{edge}"], ["a", "b"], ["t"]],
        [
            [("e1", "r", "a"), ("e2", "r", "b"), ("e3", f"cut:{edge}", "a")],
            [("g1", "a", "t"), ("g2", "b", "t")],
        ],
    )


def nested_bigon_network():
    """Three merges of in-degree 2: the taxon z on level 0, m1 on level 1,
    whose two edges b1 and b2 both come from M on level 2, and M itself."""
    return make_graph(
        [0, 1, 2, 3, 4],
        [["a", "b", "c", "z"], ["m1", "y"], ["M", "x"], ["p", "q"], ["t"]],
        [
            [("c1", "a", "m1"), ("c2", "b", "m1"), ("c3", "c", "y"),
             ("c4", "z", "m1"), ("c5", "z", "y")],
            [("b1", "m1", "M"), ("b2", "m1", "M"), ("k1", "y", "x")],
            [("h1", "M", "p"), ("h2", "M", "q"), ("h3", "x", "q")],
            [("t1", "p", "t"), ("t2", "q", "t")],
        ],
    )


def rankings(graph):
    """Full, partial and no ranks for the taxa of ``graph``."""
    taxa = sorted(v for v in graph.vertex_ids() if graph.outdeg(v) == 0)
    full = {v: (7 * i) % 5 - 2 for i, v in enumerate(taxa)}
    return full, dict(list(full.items())[::2]), None


def renamed_vertices(graph, names):
    """``graph`` with the vertices in ``names`` renamed."""
    def f(v):
        return names.get(v, v)

    return make_graph(
        graph.levels,
        [[f(v) for v in vs] for vs in graph.vertex_sets],
        [
            [(e, f(graph.down_maps[i][e]), f(graph.up_maps[i][e])) for e in sorted(es)]
            for i, es in enumerate(graph.edge_sets)
        ],
    )


def ordered(graph, vertex_level=None, edge_gap=None):
    """``graph`` with one cover between the first two elements of a level or
    a gap."""
    if vertex_level is not None:
        vs = sorted(graph.vertex_sets[vertex_level])
        orders = list(graph.vertex_orders)
        orders[vertex_level] = LevelPoset(
            graph.vertex_sets[vertex_level], frozenset({(vs[0], vs[1])})
        )
        return dataclasses.replace(graph, vertex_orders=tuple(orders))
    es = sorted(graph.edge_sets[edge_gap])
    orders = list(graph.edge_orders)
    orders[edge_gap] = LevelPoset(graph.edge_sets[edge_gap], frozenset({(es[0], es[1])}))
    return dataclasses.replace(graph, edge_orders=tuple(orders))


class TestNetworkVectorsMatchFactorRoute:
    """network_factors reads every factor's vector off the network; the
    vectors, their order and integer forms equal those of decompose's
    factors, one cophenetic_vector each."""

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_generator_networks(self, time_mode):
        shapes = [(SAFE_SHAPES, 2), ([(2, 2, 3), (3, 2, 4), (4, 3, 5), (3, 4, 5)], 3)]
        cases = 0
        for seed in range(6):
            for group, max_indeg in shapes:
                for g in corpus(group, [seed], max_indeg):
                    taxa = sorted(v for v in g.vertex_ids() if g.outdeg(v) == 0)
                    full = {v: (7 * i) % 5 - 2 for i, v in enumerate(taxa)}
                    partial = dict(list(full.items())[::2])
                    for ranks in (full, partial, None):
                        assert_factor_route(g, ranks, time_mode)
                        cases += 1
        assert cases == 6 * 3 * (len(SAFE_SHAPES) + 4)

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    @pytest.mark.parametrize("s", range(7))
    def test_chain_with_bigons(self, s, time_mode):
        assert_factor_route(chain_with_bigons(12, s), None, time_mode)

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_dated_example(self, net_a, net_b, ranks_a, ranks_b, time_mode):
        assert_factor_route(net_a, ranks_a, time_mode)
        assert_factor_route(net_b, ranks_b, time_mode)
        assert_factor_route(net_a, None, time_mode)

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_sinks_that_carry_the_cut_prefix(self, time_mode):
        g = prefixed_sinks_network()
        vectors = network_factors(g, time_mode=time_mode).vectors
        assert [v.leaves for v in vectors] == [
            ("a0", "r", "cut:q", "cut:e2", "cut:z"),
            ("a0", "r", "cut:q", "cut:e1", "cut:z"),
        ]
        assert_factor_route(g, None, time_mode)
        assert_factor_route(g, {"a0": 3}, time_mode)

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_radix_three_digits_reflect(self, time_mode):
        # Factors come in Gray-code order, one merge's kept edge moving at a
        # time; merges of in-degree 3 make digits that run 0, 1, 2 and back.
        networks = 0
        for g in corpus([(6, 7, 6), (6, 8, 6), (7, 9, 6)], range(3), 3):
            assert 3 in {g.indeg(v) for v in g.vertex_level}
            for ranks in rankings(g):
                assert_factor_route(g, ranks, time_mode)
            networks += 1
        assert networks == 9

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_nested_bigon_and_reticulate_leaf(self, time_mode):
        # The bigon's swap moves m1's subtree between two children of M,
        # which itself moves; the swap at z moves a taxon, not a subtree.
        g = nested_bigon_network()
        assert cut_options(g) == (
            ("z", ("c4", "c5")), ("m1", ("b1", "b2")), ("M", ("h1", "h2"))
        )
        for ranks in rankings(g):
            assert_factor_route(g, ranks, time_mode)


def reference_sorted_taxa(sinks, ranks, level_of, merge_of):
    """The taxon sort as it was before it broke rank ties itself: ties keep
    the order of ``sinks``, which came in (level, id) order."""
    ranks = ranks or {}

    def original_key(v: str):
        if v in ranks:
            return (0, ranks[v], "")
        return (1, level_of[v], v)

    def cut_key(v: str):
        edge = v[len(RESERVED_VERTEX_PREFIX):]
        retic = merge_of.get(v)
        if retic is None:
            return (level_of[v], "", edge)
        return (level_of[retic], retic, edge)

    originals = [v for v in sinks if not v.startswith(RESERVED_VERTEX_PREFIX)]
    cuts = [v for v in sinks if v.startswith(RESERVED_VERTEX_PREFIX)]
    return sorted(originals, key=original_key), sorted(cuts, key=cut_key)


def reference_factor_vectors(graph, ranks, time_mode):
    """The factor vectors as they were read off the whole graph, before they
    read its skeleton: a children table over every edge, the sinks among
    every vertex id, and each detached edge hooked at its own upper end,
    pass-through vertices included.  The walk, the swaps and the Gray code
    are the library's own."""
    _require_trivial_orders(graph)
    options = cut_options(graph)
    _check_time_mode(time_mode)
    sources = [v for v in graph.vertex_level if v not in graph.above_edges]
    if len(sources) != 1:
        raise NotRooted(f"{len(sources)} source vertices, expected exactly 1")
    root = sources[0]

    merge_of = {RESERVED_VERTEX_PREFIX + e: m for m, edges in options for e in edges}
    level_of = {**graph.vertex_level, **{c: graph.vertex_level[m] for c, m in merge_of.items()}}
    sinks = [v for v in graph.vertex_ids() if v not in graph.below_edges]
    originals, cuts = reference_sorted_taxa([*sinks, *merge_of], ranks, level_of, merge_of)
    down = {e: v for dn in graph.down_maps for e, v in dn.items()}
    children = {v: [(down[e], e) for e in es] for v, es in graph.below_edges.items()}
    stampers = [*originals, *cuts, *(v for v, kids in children.items() if len(kids) > 1)]
    scale, stamp = _stamps(graph.levels, level_of, stampers, time_mode)
    hook = {}
    for _, edges in options:
        for e in edges:
            v = graph.up_maps[graph.edge_gap[e]][e]
            hook[e] = (v, graph.below_edges[v].index(e))

    first = {RESERVED_VERTEX_PREFIX + e for _, edges in options for e in edges[1:]}
    names = [*originals, *(c for c in cuts if c in first or c not in merge_of)]
    for _, edges in options:
        for e in edges[1:]:
            v, i = hook[e]
            children[v][i] = (RESERVED_VERTEX_PREFIX + e, e)
    if not options:
        scaled = _walk(root, children, names, stamp)
        return (_vector(tuple(names), scaled, scale, time_mode),)

    n = len(names)
    rows: list[list[int]] = [[]] * n
    for i, row in _rows(root, children, names, stamp):
        rows[i] = list(row)
    tails = [slice(i, None) for i in range(n)]
    radices = [len(edges) for _, edges in options]
    weights = [math.prod(radices[j + 1:]) for j in range(len(radices))]
    vectors: list = [None] * math.prod(radices)
    vectors[0] = _vector(tuple(names), _pack(rows, tails), scale, time_mode)
    place = {v: i for i, v in enumerate(names)}
    base = [place[RESERVED_VERTEX_PREFIX + edges[1]] for _, edges in options]
    index = 0
    for j, k, new in _gray_code(radices):
        m, edges = options[j]
        kept, cut = edges[new], RESERVED_VERTEX_PREFIX + edges[k]
        c = base[j] + min(k, new)
        v, i = hook[edges[k]]
        children[v][i] = (cut, edges[k])
        v, i = hook[kept]
        children[v][i] = (m, kept)
        names[c] = cut
        place[cut] = c
        _swap(rows, _taxa_below(m, children, place), c)
        index += (new - k) * weights[j]
        vectors[index] = _vector(tuple(names), _pack(rows, tails), scale, time_mode)
    return tuple(vectors)


def assert_reference_vectors(graph, ranks, time_mode):
    got = network_factors(graph, ranks=ranks, time_mode=time_mode).vectors
    want = reference_factor_vectors(graph, ranks, time_mode)
    assert got == want
    assert [v._integer for v in got] == [v._integer for v in want]


def rankings_with_ties(graph):
    """Full ranks, ranks shared by pairs of taxa, and none."""
    taxa = sorted(v for v in graph.vertex_ids() if graph.outdeg(v) == 0)
    full = {v: (7 * i) % 5 - 2 for i, v in enumerate(taxa)}
    return full, {v: i // 2 for i, v in enumerate(reversed(taxa))}, None


class TestSkeletonVectorsMatchReference:
    """The vectors, read off the skeleton, equal those the whole graph gave:
    leaves, entries, integer forms and order."""

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_newick_corpus(self, time_mode):
        paths = sorted(CORPUS.glob("*.enwk"))
        assert len(paths) >= 40
        for path in paths:
            graph = enewick_to_reeb(path.read_text())
            for ranks in rankings_with_ties(graph):
                assert_reference_vectors(graph, ranks, time_mode)

    def test_dated_networks(self):
        networks = 0
        for text in dated_texts(7, 600):
            try:
                graph = enewick_to_reeb(text)
            except ReebError:  # the sample holds every time error of the reader
                continue
            assert_reference_vectors(graph, rankings_with_ties(graph)[networks % 3], "-f")
            networks += 1
        assert networks >= 300

    @pytest.mark.parametrize("taxa", [2, 3, 40, 300])
    def test_dated_caterpillars(self, taxa):
        graph = dated_caterpillar(taxa)
        for ranks in rankings_with_ties(graph):
            assert_reference_vectors(graph, ranks, "-f")

    def test_generator_networks(self):
        # In-degree-3 merges and cycle ranks up to 9, so up to 512 factors.
        shapes = [
            (1, 1, 2), (2, 1, 3), (3, 2, 4), (4, 2, 2), (3, 3, 4), (4, 3, 5),
            (5, 4, 6), (4, 5, 6), (5, 6, 7), (6, 7, 6), (6, 8, 6), (7, 9, 6),
        ]
        networks, top = 0, 0
        for seed in range(112):
            for n, s, levels in shapes[: 12 if seed < 8 else 9]:
                for max_indeg in (2, 3):
                    try:
                        g = random_graph(GeneratorSpec(
                            seed=seed, n_leaves=n, betti=s, levels=levels, max_indeg=max_indeg
                        ))
                    except InfeasibleSpec:
                        continue
                    assert_reference_vectors(g, rankings_with_ties(g)[seed % 3], "f")
                    networks += 1
                    top = max(top, s)
        assert networks >= 2000 and top == 9, (networks, top)


def assert_public_form(vec: CopheneticVector, entries) -> None:
    """``vec`` equals, hashes, prints and reads entry by entry like the
    vector the public constructor builds from ``entries``."""
    want = CopheneticVector(leaves=vec.leaves, entries=tuple(entries), time_mode=vec.time_mode)
    assert vec == want and want == vec
    assert hash(vec) == hash(want)
    assert repr(vec) == repr(want)
    assert vec.entries == want.entries
    m = len(vec.leaves)
    pairs = [(i, j) for i in range(m) for j in range(m)]
    if len(pairs) > 400:
        pairs = random.Random(m).sample(pairs, 400)
    for i, j in pairs:
        assert vec.entry(i, j) == want.entry(i, j)
        assert type(vec.entry(i, j)) is Fraction


class TestSingleCopyVectors:
    """A vector from the row walk keeps its entries once, as integers over
    one scale, and still behaves as one built from its Fractions."""

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_trees_and_factors(self, time_mode):
        sources = [*seeded_trees(), *seeded_factors()]
        scales = set()
        for source, ranks in sources:
            vec = cophenetic_vector(source, ranks=ranks, time_mode=time_mode)
            want = reference_cophenetic_vector(source, ranks=ranks, time_mode=time_mode)
            assert_public_form(vec, want.entries)
            scales.add(vec._integer[0])
        assert len(sources) >= 100 and {1, 2, 4} <= scales, scales

    @pytest.mark.parametrize("time_mode", ["f", "-f"])
    def test_network_factors(self, time_mode):
        # Corpus networks, also at times in thirds and sevenths.
        graphs = [enewick_to_reeb(p.read_text()) for p in sorted(CORPUS.glob("*.enwk"))]
        graphs += [
            network_to_reeb(dataclasses.replace(n, times={v: t / 3 + Fraction(1, 7) for v, t in n.times.items()}))
            for n in map(parse_enewick, (p.read_text() for p in sorted(CORPUS.glob("*.enwk"))[::5]))
        ]
        graphs += list(corpus([(3, 2, 4), (4, 3, 5)], range(4), max_indeg=3))
        scales = set()
        for g in graphs:
            ranks = rankings_with_ties(g)[0]
            got = network_factors(g, ranks=ranks, time_mode=time_mode).vectors
            factors = decompose(g).factors
            assert len(got) == len(factors)
            for vec, f in zip(got, factors):
                want = reference_cophenetic_vector(f, ranks=ranks, time_mode=time_mode)
                assert_public_form(vec, want.entries)
                scales.add(vec._integer[0])
        assert 21 in scales and 1 in scales, scales

    def test_retained_size(self):
        """A 1000-taxon caterpillar's vector (500,500 entries) keeps one
        pointer per entry: at most 9 bytes an entry, where a second copy of
        the entries would take about 16.  Nor is a second copy held while
        the vector is built: the peak is at most 1.2 times what it keeps."""
        n = 1000
        text = "t0"
        for k in range(1, n):
            text = f"({text}:1,t{k}:{k})i{k}"
        graph = enewick_to_reeb(text + ";")
        cophenetic_vector(graph)  # the graph's own caches are not the vector's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            vec = cophenetic_vector(graph)
            now, peak = tracemalloc.get_traced_memory()
            retained = now - before
        finally:
            tracemalloc.stop()
        assert len(vec._integer[1]) == n * (n + 1) // 2 == 500_500
        assert retained <= 9 * 500_500, retained / 500_500
        assert peak - before <= 1.2 * retained, (peak - before) / retained


class TestSkeletonInputChecks:
    def test_vertex_id_on_two_levels(self):
        # vertex_level keeps the first level only, so the root looked like
        # an edge's lower end and the walk found no source.
        g = make_graph(
            [0, 1, 2], [["a"], ["b"], ["a"]], [[("e0", "a", "b")], [("e1", "b", "a")]]
        )
        message = "duplicate vertex id 'a' at levels 0 and 2"
        assert validate(g)[0] == message
        for call in (network_factors, cophenetic_vector, leaf_order):
            with pytest.raises(ValueError) as info:
                call(g)
            assert str(info.value) == message

    def test_edge_end_off_its_level(self):
        # With the edge renamed to sort before v5's other arriving edges,
        # the first factor keeps it, and the walk missed every taxon below
        # v5 (a bare KeyError); under its own name a later swap looped.
        text = (DATA / "self_targeted_edge.json").read_text().replace('"e9"', '"e10"')
        g, _ = load_text(text)
        message = "dangling up_map target 'v5' for edge 'e10' (expected a vertex at level 2)"
        assert message in validate(g)
        with pytest.raises(ValueError) as info:
            network_distance(g, g)
        assert str(info.value) == message

    def test_level_skipping_edge(self):
        # The four-level path a-m-n-b with edge lo retargeted from m to n:
        # every reader of the checked skeleton raises validate's line.
        g = make_graph(
            [0, 1, 2, 3],
            [["a"], ["m"], ["n"], ["b"]],
            [[("lo", "a", "n")], [("mid", "m", "n")], [("hi", "n", "b")]],
        )
        message = "dangling up_map target 'n' for edge 'lo' (expected a vertex at level 1)"
        assert validate(g) == [message]
        for call in (
            lambda x: network_distance(x, x),
            decompose,
            cophenetic_vector,
            minimize_critical_set,
            reeb_to_network,
        ):
            with pytest.raises(ValueError) as info:
                call(dataclasses.replace(g))
            assert str(info.value) == message

    def test_cover_naming_an_unknown_id(self):
        # The skeleton looks up both ends of every edge a cover names, so an
        # edge cover naming no edge of its gap raised a bare KeyError.  A
        # vertex cover naming no vertex of its level is refused the same way.
        # The decomposition's entry points read it through cut_options.
        edge, _ = load_text((DATA / "unknown_edge_cover.json").read_text())
        vertex = make_graph(
            [0, 1], [["a"], ["b"]], [[("e", "a", "b")]], vertex_covers=[[], [("ghost", "b")]]
        )
        for graph, line in (
            (edge, "edge order cover ('e', 'ghost') references unknown id at index 0"),
            (vertex, "vertex order cover ('ghost', 'b') references unknown id at index 1"),
        ):
            assert validate(graph) == [line]
            for call in (
                lambda x: network_distance(x, x),
                decompose,
                cophenetic_vector,
                leaf_order,
                minimize_critical_set,
                reeb_to_network,
                build_dag_view,
                cut_options,
                enumerate_choices,
                factor_count,
                lambda x: make_choice(x, {}),
                lambda x: apply_choice(x, CutChoice(kept=())),
            ):
                with pytest.raises(ValueError) as info:
                    call(dataclasses.replace(graph))
                assert str(info.value) == line


class TestGrayCode:
    @pytest.mark.parametrize("radices", [[], [2], [3], [2, 3, 2], [3, 3, 2, 4]])
    def test_every_word_once_one_digit_step_apart(self, radices):
        word = [0] * len(radices)
        seen = {tuple(word)}
        for j, old, new in _gray_code(radices):
            assert word[j] == old and abs(new - old) == 1 and 0 <= new < radices[j]
            word[j] = new
            seen.add(tuple(word))
        assert len(seen) == math.prod(radices)


class TestNetworkVectorsRaiseLikeDecompose:
    @pytest.mark.parametrize("where", [{"vertex_level": 0}, {"edge_gap": 0}])
    def test_order_conflict(self, cycle_graph, where):
        g = ordered(cycle_graph, **where)
        with pytest.raises(OrderConflict) as want:
            decompose(g)
        with pytest.raises(OrderConflict) as got:
            network_factors(g).vectors
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("edge", ["e1", "e2"])
    def test_cut_id_already_on_the_merge_level(self, edge):
        # The factor that detaches ``edge`` puts it on cut:<edge>', beside
        # the held id on its merge level, and the vectors agree with
        # decompose's factors.
        g = clashing_network(edge)
        assert_cuts_take_fresh_ids(g)
        assert [v.leaves for v in network_factors(g).vectors] == [
            ("r", f"cut:{edge}", f"cut:{x}'" if x == edge else f"cut:{x}")
            for x in ("e2", "e1")
        ]

    def test_cut_id_on_another_level(self):
        # A second leaf named cut:e1 would stand on levels 0 and 1, and
        # cophenetic_vector would raise NotATree on the factor; the leaf is
        # cut:e1' instead.
        g = make_graph(
            [0, 1, 2, 3],
            [["r"], ["a", "b", "cut:e1"], ["c", "p"], ["t"]],
            [
                [("e1", "r", "a"), ("e2", "r", "b")],
                [("g1", "a", "c"), ("g2", "b", "c"), ("g3", "cut:e1", "p")],
                [("h1", "c", "t"), ("h2", "p", "t")],
            ],
        )
        assert_cuts_take_fresh_ids(g)
        assert [f.cut_vertices for f in decompose(g).factors] == [("cut:e2",), ("cut:e1'",)]

    def test_cut_ids_on_every_level(self):
        # Generator networks with one or two vertices renamed to cut leaf
        # ids, on their merge's level or another; every factor takes fresh
        # leaf ids, in decompose and in the vectors alike.
        rng = random.Random(15)
        shapes = [(SAFE_SHAPES, 2), ([(2, 2, 3), (3, 2, 4), (4, 3, 5), (3, 4, 5)], 3)]
        seen = {True: 0, False: 0}
        networks = 0
        for seed in range(21):
            for group, max_indeg in shapes:
                for g in corpus([sh for sh in group if sh[1]], [seed], max_indeg):
                    options = cut_options(g)
                    level = {e: g.vertex_level[m] for m, edges in options for e in edges}
                    names = dict(zip(
                        rng.sample(sorted(g.vertex_level), rng.randint(1, 2)),
                        (f"cut:{e}" for e in rng.sample(sorted(level), 2)),
                    ))
                    for v, cut in names.items():
                        seen[g.vertex_level[v] == level[cut[4:]]] += 1
                    assert_cuts_take_fresh_ids(renamed_vertices(g, names))
                    networks += 1
        assert networks == 210
        assert min(seen.values()) >= 100, seen

    def test_cut_ids_held_on_first_edges_only(self):
        # The first choice keeps every first edge, so it names no held id;
        # the choices that detach c4 or h1 put them on cut:c4' and cut:h1'.
        g = renamed_vertices(nested_bigon_network(), {"a": "cut:c4", "c": "cut:h1"})
        assert_cuts_take_fresh_ids(g)
        leaves = {c for f in decompose(g).factors for c in f.cut_vertices}
        assert leaves == {"cut:c4'", "cut:c5", "cut:b1", "cut:b2", "cut:h1'", "cut:h2"}

    def test_bad_time_mode(self, net_a):
        with pytest.raises(ValueError, match="time_mode must be 'f' or '-f', not 'g'"):
            network_factors(net_a, time_mode="g").vectors

    def test_two_roots(self, twin_peaks):
        # decompose and network_factors run the cycle-rank check first, so
        # the reference cuts each choice itself, and the vectors are read
        # from a table built without the gate.
        with pytest.raises(NotRooted) as want:
            tuple(
                cophenetic_vector(apply_choice(twin_peaks, c), ranks=None, time_mode="f")
                for c in enumerate_choices(twin_peaks)
            )
        with pytest.raises(NotRooted) as got:
            table = _cut_table(twin_peaks, twin_peaks._skeleton)
            NetworkFactors(twin_peaks, betti_euler(twin_peaks), 1, None, "f", table).vectors
        assert str(got.value) == str(want.value) == "2 source vertices, expected exactly 1"


class TestNthRoot:
    def test_perfect_cube(self):
        assert nth_root_fraction(F(343, 1000), 3, 12) == F(7, 10)

    def test_perfect_square(self):
        assert nth_root_fraction(F(25), 2, 6) == F(5)

    def test_zero(self):
        assert nth_root_fraction(F(0), 4, 9) == F(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative radicand"):
            nth_root_fraction(F(-1), 2, 6)

    @given(
        x=st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
        p=st.integers(min_value=2, max_value=5),
        digits=st.integers(min_value=1, max_value=20),
    )
    def test_certified_bracket(self, x, p, digits):
        r = nth_root_fraction(x, p, digits)
        step = F(1, 10 ** (digits + 2))
        assert r**p <= x < (r + step) ** p

    @given(x=st.fractions(min_value=0, max_value=10**4, max_denominator=100))
    def test_square_root_error_bound(self, x):
        r = nth_root_fraction(x, 2, 10)
        assert abs(r * r - x) <= 2 * r * F(1, 10**10) + F(1, 10**20)


class TestLpDistance:
    def test_l1_exact(self):
        u = (F(7), F(3), F(1), F(4), F(1), F(4))
        v = (F(4), F(1), F(3), F(7), F(1), F(4))
        assert lp_distance(u, v, 1) == F(10)

    def test_linf_exact(self):
        u = (F(7), F(3), F(1), F(4), F(1), F(4))
        v = (F(4), F(3), F(1), F(7), F(1), F(4))
        assert lp_distance(u, v, "inf") == F(3)
        assert lp_distance(u, v, float("inf")) == F(3)

    def test_l2_pythagorean(self):
        assert lp_distance((F(0), F(0)), (F(3), F(4)), 2) == F(5)

    def test_accepts_plain_numbers(self):
        assert lp_distance([1, 2], [4, 6]) == F(7)
        assert lp_distance(["1/2", 0], [0, "1/2"], "inf") == F(1, 2)

    def test_accepts_vector_objects(self, net_a, ranks_a):
        dec = decompose(net_a)
        v1 = cophenetic_vector(dec.factors[0], ranks=ranks_a, time_mode="-f")
        v2 = cophenetic_vector(dec.factors[1], ranks=ranks_a, time_mode="-f")
        assert lp_distance(v1, v2, 1) == F(4)
        assert lp_distance(v1, v2, "inf") == F(2)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch, match="vector lengths differ: 2 vs 3"):
            lp_distance([1, 2], [1, 2, 3])

    def test_p_below_one(self):
        with pytest.raises(ValueError, match="p must be at least 1"):
            lp_distance([1], [2], 0)

    @given(
        u=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=3, max_size=3),
        v=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=3, max_size=3),
        w=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=20), min_size=3, max_size=3),
        p=st.sampled_from([1, "inf"]),
    )
    def test_metric_axioms_exact_norms(self, u, v, w, p):
        duv = lp_distance(u, v, p)
        assert duv >= 0
        assert lp_distance(u, u, p) == 0
        assert duv == lp_distance(v, u, p)
        assert duv <= lp_distance(u, w, p) + lp_distance(w, v, p)
        if u != v:
            assert duv > 0


def reference_hausdorff(set_a, set_b, p):
    """The full-table Hausdorff distance the integer kernel replaced: every
    pairwise cost as a Fraction, then max of row and column minima."""

    def cost(u, v):
        u, v = [F(x) for x in u], [F(x) for x in v]
        if len(u) != len(v):
            raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {len(v)}")
        diffs = [abs(x - y) for x, y in zip(u, v)]
        if p == "inf":
            return max(diffs, default=F(0))
        if p == 1:
            return sum(diffs, F(0))
        return sum(d**p for d in diffs)

    table = [[cost(u, v) for v in set_b] for u in set_a]
    from_a = max(min(row) for row in table)
    from_b = max(min(table[i][j] for i in range(len(set_a))) for j in range(len(set_b)))
    raw = max(from_a, from_b)
    return raw if p in (1, "inf") else nth_root_fraction(raw, p, 12)


@st.composite
def vector_set_pairs(draw):
    """Two vector sets of one dimension (possibly 0), drawn partly from a
    shared pool so that duplicates occur within and across the sets."""
    n = draw(st.integers(min_value=0, max_value=5))
    entry = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    vector = st.lists(entry, min_size=n, max_size=n)
    pool = draw(st.lists(vector, min_size=1, max_size=4))
    members = st.lists(st.sampled_from(pool) | vector, min_size=1, max_size=7)
    return draw(members), draw(members)


class TestHausdorff:
    @seed(20261018)
    @settings(max_examples=200, deadline=None)
    @given(sets=vector_set_pairs(), p=st.sampled_from([1, 2, 3, "inf"]))
    def test_matches_full_table(self, sets, p):
        a, b = sets
        d = hausdorff_distance(a, b, p)
        assert type(d) is F
        assert d == reference_hausdorff(a, b, p)

    @pytest.mark.parametrize(
        "a, b",
        [
            ([[1, 2]], [[1, 2], [1, 2, 3]]),
            ([[1, 2, 3], [1, 2]], [[1, 2, 3]]),
            ([[1]], [[1, 2], [3]]),
        ],
    )
    def test_length_mismatch(self, a, b):
        with pytest.raises(DimensionMismatch, match="vector lengths differ") as info:
            hausdorff_distance(a, b)
        with pytest.raises(DimensionMismatch) as expected:
            reference_hausdorff(a, b, 1)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize(
        "p", [0, -1, 1.5, "0", "1.5", "x", float("nan"), -math.inf], ids=repr
    )
    def test_bad_p_rejected_by_both(self, p):
        with pytest.raises(ValueError, match="p must be at least 1"):
            hausdorff_distance([[1, 2]], [[5, 7]], p)
        with pytest.raises(ValueError, match="p must be at least 1"):
            lp_distance([1, 2], [5, 7], p)

    @pytest.mark.parametrize("p", [1, 2, math.inf], ids=repr)
    def test_negative_digits_rejected_by_both(self, p):
        with pytest.raises(ValueError, match="digits must be at least 0, not -5"):
            hausdorff_distance([[1, 2]], [[5, 7]], p, digits=-5)
        with pytest.raises(ValueError, match="digits must be at least 0, not -5"):
            lp_distance([1, 2], [5, 7], p, digits=-5)
        assert lp_distance([0, 0], [3, 4], p, digits=0) == {1: 7, 2: 5, math.inf: 4}[p]

    def test_whole_number_p_of_any_type(self):
        for p in (2, 2.0, F(2), "2"):
            assert hausdorff_distance([[0, 0]], [[3, 4]], p) == F(5)
        for p in ("INF", "Infinity", math.inf):
            assert lp_distance([0, 0], [3, 4], p) == F(4)

    def test_empty_side_rejected(self):
        with pytest.raises(EmptySet, match="needs two nonempty collections"):
            hausdorff_distance([], [[F(1)]])
        with pytest.raises(EmptySet):
            hausdorff_distance([[F(1)]], [])

    def test_singletons_reduce_to_lp(self):
        u, v = [F(1), F(5)], [F(2), F(9)]
        for p in (1, 2, "inf"):
            assert hausdorff_distance([u], [v], p) == lp_distance(u, v, p)

    def test_subset_gives_farthest_extra_point(self):
        u, v = [F(0)], [F(6)]
        assert hausdorff_distance([u], [u, v], 1) == F(6)

    def test_symmetry(self):
        a = [[F(0), F(0)], [F(2), F(1)]]
        b = [[F(5), F(5)]]
        for p in (1, 2, "inf"):
            assert hausdorff_distance(a, b, p) == hausdorff_distance(b, a, p)

    def test_identical_sets_distance_zero(self):
        a = [[F(1), F(2)], [F(3), F(4)]]
        assert hausdorff_distance(a, list(reversed(a)), 2) == F(0)

    def test_p2_roots_once_at_the_end(self):
        # One candidate per side, 3-4-5 again, so the final answer is exact.
        a = [[F(0), F(0)], [F(100), F(100)]]
        b = [[F(3), F(4)], [F(100), F(100)]]
        assert hausdorff_distance(a, b, 2) == F(5)


class TestNetworkDistance:
    def test_cross_network_sup(self, net_a, net_b, ranks_a, ranks_b):
        d = network_distance(
            net_a, net_b, p="inf", ranks_a=ranks_a, ranks_b=ranks_b, time_mode="-f"
        )
        assert d == F(3)

    def test_cross_network_l1(self, net_a, net_b, ranks_a, ranks_b):
        d = network_distance(
            net_a, net_b, p=1, ranks_a=ranks_a, ranks_b=ranks_b, time_mode="-f"
        )
        assert d == F(10)

    def test_self_distance_zero(self, net_a, ranks_a):
        d = network_distance(
            net_a, net_a, p="inf", ranks_a=ranks_a, ranks_b=ranks_a, time_mode="-f"
        )
        assert d == F(0)

    def test_taxon_count_mismatch(self, net_a):
        with pytest.raises(IncompatibleShape, match="taxon counts differ: 2 vs 3"):
            network_distance(net_a, three_leaf_tree())

    def test_cycle_rank_mismatch(self, net_a):
        with pytest.raises(IncompatibleShape, match="cycle ranks differ: 1 vs 0"):
            network_distance(net_a, two_leaf_tree())

    def test_tree_inputs_work_too(self):
        # Trees are their own single factor, so this is just an lp distance.
        d = network_distance(two_leaf_tree(), two_leaf_tree(), p=1)
        assert d == F(0)


def reference_network_distance(
    a, b, *, p=1, digits=12, ranks_a=None, ranks_b=None, time_mode="f"
):
    """network_distance as it was before trees were compared row by row:
    the Hausdorff distance between the two factor vector sets, trees too."""
    na = network_factors(a, ranks=ranks_a, time_mode=time_mode)
    nb = network_factors(b, ranks=ranks_b, time_mode=time_mode)
    if na.taxa != nb.taxa:
        raise IncompatibleShape(f"taxon counts differ: {na.taxa} vs {nb.taxa}")
    if na.betti != nb.betti:
        raise IncompatibleShape(f"cycle ranks differ: {na.betti} vs {nb.betti}")
    return hausdorff_distance(na.vectors, nb.vectors, p, digits=digits)


def outcome_of(call, *args, **kw):
    """The value ``call`` returns, or the type and message of what it raises."""
    try:
        return call(*args, **kw)
    except Exception as err:
        return type(err), str(err)


def rank_choices(graph):
    """Full, partial, tied and no ranks for the taxa of ``graph``."""
    full, partial, _ = rankings(graph)
    _, tied, _ = rankings_with_ties(graph)
    return full, partial, tied, None


def seeded_tree_pairs():
    """(a, b) pairs of trees with one taxon count each: seeded eNewick trees
    whose two sides take decimal or whole lengths on their own, so that
    their scales often differ; dated caterpillars against copies with one
    internal node moved half a unit; every pair of the newick corpus trees
    with one taxon count, each tree with itself too."""
    rng = random.Random(20261020)
    pairs = []
    for k in range(420):
        n = rng.randint(2, 30)
        a, b = (
            enewick_to_reeb(random_enewick_tree(
                rng, rng.choice(("caterpillar", "balanced", "random")), n,
                rng.choice((DECIMAL_LENGTHS, WHOLE_LENGTHS)),
            ))
            for _ in range(2)
        )
        pairs.append((a, b))
    for taxa in (2, 3, 7, 20, 41):
        for moved in (None, 0, taxa // 2, taxa - 2):
            pairs.append((dated_caterpillar(taxa), dated_caterpillar(taxa, moved)))
    by_taxa: dict[int, list] = {}
    for path in sorted(CORPUS.glob("*.enwk")):
        graph = enewick_to_reeb(path.read_text())
        net = network_factors(graph)
        if net.betti == 0:
            by_taxa.setdefault(net.taxa, []).append(graph)
    pairs.extend((a, b) for group in by_taxa.values() for a in group for b in group)
    return pairs


NORMS = [1, 2, 3, "inf"]


class TestTreeDistanceMatchesReference:
    """Two trees are compared row by row, with no vector built; the answer
    is the Fraction the vector sets gave."""

    def test_seeded_tree_pairs(self):
        rng = random.Random(41)
        pairs = seeded_tree_pairs()
        assert len(pairs) >= 500
        scales_differ = 0
        for k, (a, b) in enumerate(pairs):
            ranks_a, ranks_b = rng.choice(rank_choices(a)), rng.choice(rank_choices(b))
            time_mode, digits = ("f", "-f")[k % 2], (0, 12)[k // 2 % 2]
            for p in NORMS:
                kw = dict(p=p, digits=digits, ranks_a=ranks_a, ranks_b=ranks_b,
                          time_mode=time_mode)
                got = network_distance(a, b, **kw)
                want = reference_network_distance(a, b, **kw)
                assert type(got) is F
                assert got == want, (k, kw)
            scale_a = cophenetic_vector(a)._integer[0]
            scales_differ += scale_a != cophenetic_vector(b)._integer[0]
        assert scales_differ >= 100, scales_differ

    def test_networks_keep_the_vector_sets(self):
        networks = [g for g in corpus(SAFE_SHAPES, range(3)) if network_factors(g).betti]
        networks += [
            g for g in (enewick_to_reeb(p.read_text()) for p in sorted(CORPUS.glob("*.enwk")))
            if network_factors(g).betti
        ]
        shapes: dict[tuple[int, int], list] = {}
        for g in networks:
            net = network_factors(g)
            shapes.setdefault((net.taxa, net.betti), []).append(g)
        compared = 0
        for group in shapes.values():
            for a, b in zip(group, group[1:] + group[:1]):
                for p in NORMS:
                    got = network_distance(a, b, p=p, time_mode="-f")
                    assert str(got) == str(reference_network_distance(a, b, p=p, time_mode="-f"))
                compared += 1
        assert compared >= 40, compared

    def test_raise_order(self, net_a):
        # Each case holds a fault at every later step too, so the first one
        # raised is pinned to the reference's.
        two = two_leaf_tree()
        duplicate_id = make_graph(
            [0, 1, 2], [["a"], ["b"], ["a"]], [[("e0", "a", "b")], [("e1", "b", "a")]]
        )
        two_sources = make_graph(
            [0, 1], [["p", "q"], ["s", "t"]], [[("ep", "p", "s"), ("eq", "q", "t")]]
        )
        bad = dict(p=0, digits=-1, time_mode="g")
        cases = [
            (duplicate_id, two_sources, bad, ValueError),
            (two, two_sources, bad, ReticulationConflict),
            (two, ordered(two, vertex_level=0), bad, OrderConflict),
            (two, three_leaf_tree(), bad, IncompatibleShape),
            (two, net_a, bad, IncompatibleShape),
            (two, two, bad, ValueError),
            (two, two, dict(bad, time_mode="f", ranks_a={"x": 1, "y": "z"},
                            ranks_b={"x": (1,), "y": 1}), TypeError),
            (two, two, dict(p=0, ranks_b={"x": (1,), "y": 1}), TypeError),
            (two, two, dict(p=0, digits=-1), ValueError),
            (two, two, dict(p=0), ValueError),
            (two, two, dict(p="2.5", digits=12), ValueError),
            (two, two, dict(p=2, digits=-3), ValueError),
        ]
        messages = set()
        for a, b, kw, error in cases:
            got = outcome_of(network_distance, a, b, **kw)
            assert got == outcome_of(reference_network_distance, a, b, **kw)
            assert got[0] is error
            messages.add(got[1])
        assert len(messages) == len(cases)

    def test_trees_read_no_factor_vector(self, monkeypatch, net_a, net_b, ranks_a, ranks_b):
        def refuse(net):
            raise AssertionError("factor vectors read")

        monkeypatch.setattr(reebtrees.phylo, "_factor_vectors", refuse)
        graph, ranks = seeded_trees()[5]
        assert network_distance(graph, graph, p=3, ranks_a=ranks, ranks_b=ranks) == 0
        assert network_distance(two_leaf_tree(), two_leaf_tree(), p="inf") == 0
        with pytest.raises(AssertionError, match="factor vectors read"):
            network_distance(net_a, net_b, ranks_a=ranks_a, ranks_b=ranks_b)


# Length alphabets whose decimal scales differ (1, 2, 4 and 5); with ("1",)
# every merge of one depth ties, within a tree and across the two.
SWEEP_LENGTHS = (("1",), ("1", "2"), ("0.5", "1", "1.5"), ("0.25", "0.5", "1"), ("0.2", "0.6", "1"))


def merge_levels(graph) -> list[Fraction]:
    """The level of every branching vertex of a tree's skeleton but its
    root, whose level both trees of a pair share."""
    sk = graph._checked_skeleton
    return [
        sk.levels[sk.vertex_level[v]]
        for v, kids in sk.down.items()
        if len(kids) > 1 and sk.up[v]
    ]


def sweep_tree_pairs():
    """(a, b) pairs of seeded trees with one taxon count: two to four
    subtrees joined at a time, lengths from SWEEP_LENGTHS drawn per side, so
    that taxa sit on many levels; b is either a tree of its own or a's text
    with about a third of its lengths drawn again and, half the time, its
    taxa renamed among themselves, so that many merges tie across the two."""
    rng = random.Random(20261022)
    pairs = []
    for k in range(320):
        n = rng.randint(2, 24)
        lengths_a, lengths_b = rng.choice(SWEEP_LENGTHS), rng.choice(SWEEP_LENGTHS)
        text_a = random_enewick_tree(rng, "random", n, lengths_a)
        if k % 2:
            text_b = random_enewick_tree(rng, rng.choice(("random", "caterpillar")), n, lengths_b)
        else:
            text_b = re.sub(
                r":[0-9.]+",
                lambda m: f":{rng.choice(lengths_b)}" if rng.random() < 0.35 else m.group(0),
                text_a,
            )
            if k % 4:
                perm = rng.sample(range(n), n)
                text_b = re.sub(r"\bt([0-9]+)\b", lambda m: f"t{perm[int(m.group(1))]}", text_b)
        pairs.append((enewick_to_reeb(text_a), enewick_to_reeb(text_b)))
    return pairs


class TestMergeSweepMatchesReference:
    """p = 1 and inf of two trees come from one merge sweep; each answer is
    the Fraction that the two vectors give."""

    def test_seeded_pairs(self):
        rng = random.Random(50)
        kinds = ("full ranks", "partial ranks", "tied ranks", "no ranks")
        seen = dict.fromkeys(
            ("polytomy", "many levels", "scales differ", "tie within", "tie across", *kinds), 0
        )
        compared = 0
        for k, (a, b) in enumerate(sweep_tree_pairs()):
            levels_a, levels_b = merge_levels(a), merge_levels(b)
            down = a._checked_skeleton.down
            seen["polytomy"] += any(len(kids) > 2 for kids in down.values())
            taxon_levels = {a._checked_skeleton.vertex_level[v] for v, x in down.items() if not x}
            seen["many levels"] += len(taxon_levels) > 2
            seen["scales differ"] += (
                cophenetic_vector(a)._integer[0] != cophenetic_vector(b)._integer[0]
            )
            seen["tie within"] += len(set(levels_a)) < len(levels_a)
            seen["tie across"] += bool(set(levels_a) & set(levels_b))
            i, j = rng.randrange(4), rng.randrange(4)
            ranks_a, ranks_b = rank_choices(a)[i], rank_choices(b)[j]
            seen[kinds[i]] += 1
            seen[kinds[j]] += 1
            for time_mode in ("f", "-f"):
                for p in (1, "inf"):
                    kw = dict(p=p, ranks_a=ranks_a, ranks_b=ranks_b, time_mode=time_mode)
                    got = network_distance(a, b, **kw)
                    assert type(got) is F
                    assert got == reference_network_distance(a, b, **kw), (k, kw)
                    compared += 1
        assert compared >= 1000, compared
        assert min(seen.values()) >= 60, seen

    def test_sweep_walks_no_row(self, monkeypatch):
        # The row walk serves p >= 2 only.
        def refuse(*args):
            raise AssertionError("rows walked")

        a, b = sweep_tree_pairs()[1]
        want = [reference_network_distance(a, b, p=p) for p in (1, "inf")]
        monkeypatch.setattr(reebtrees.phylo, "_layout", refuse)
        assert [network_distance(a, b, p=p) for p in (1, "inf")] == want
        with pytest.raises(AssertionError, match="rows walked"):
            network_distance(a, b, p=2)

    @pytest.mark.parametrize("p", [1, "inf"])
    def test_one_taxon(self, p):
        a, b = enewick_to_reeb("(t0:1.5)r;"), enewick_to_reeb("(t0:0.2)r;")
        assert network_distance(a, b, p=p) == F(13, 10)
        assert network_distance(a, b, p=p, time_mode="-f") == F(13, 10)
