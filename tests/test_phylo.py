"""Cophenetic vectors, root extraction, and the distances built on them."""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reebtrees import (
    CopheneticVector,
    DimensionMismatch,
    EmptySet,
    GeneratorSpec,
    IncompatibleShape,
    InfeasibleSpec,
    NotATree,
    NotRooted,
    build_dag_view,
    cophenetic_vector,
    decompose,
    enewick_to_reeb,
    hausdorff_distance,
    leaf_order,
    lp_distance,
    make_graph,
    network_distance,
    nth_root_fraction,
    random_graph,
)
from reebtrees.core import ReebGraph
from reebtrees.decomposition import Factor

F = Fraction


def two_leaf_tree():
    return make_graph(
        [0, 1, 2],
        [["x", "y"], ["m"], ["t"]],
        [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
    )


def three_leaf_tree():
    return make_graph(
        [0, 1, 2],
        [["a", "b", "c"], ["m"], ["t"]],
        [
            [("e1", "a", "m"), ("e2", "b", "m")],
            [("e3", "m", "t"), ("e4", "c", "t")],
        ],
    )


class TestLeafOrder:
    def test_unranked_by_level_then_id(self, cycle_graph):
        assert leaf_order(cycle_graph).leaves == ("l2", "l3", "l4", "l1")

    def test_ranks_come_first(self, cycle_graph):
        order = leaf_order(cycle_graph, ranks={"l1": 1, "l2": 2})
        assert order.leaves == ("l1", "l2", "l3", "l4")
        assert order.index("l2") == 1

    def test_rank_values_not_positions(self, cycle_graph):
        # Ranks only need to be comparable, not contiguous.
        order = leaf_order(cycle_graph, ranks={"l4": -5, "l3": 100})
        assert order.leaves == ("l4", "l3", "l2", "l1")

    def test_factors_agree_on_cut_positions(self, net_a, ranks_a):
        dec = decompose(build_dag_view(net_a))
        orders = [leaf_order(f, ranks=ranks_a) for f in dec.factors]
        assert orders[0].leaves == ("l1", "l2", "cut:mr")
        assert orders[1].leaves == ("l1", "l2", "cut:br")
        # Same slot for the cut leaf in every factor.
        for o in orders:
            assert o.leaves[:2] == ("l1", "l2")

    def test_cover_path_matches_factor_path(self, net_a, ranks_a):
        # Passing the bare graph loses the reattachment table, but the cover
        # recorded at the cut level carries the same merge vertex.
        factor = decompose(build_dag_view(net_a)).factors[0]
        via_factor = leaf_order(factor, ranks=ranks_a)
        via_graph = leaf_order(factor.graph, ranks=ranks_a)
        assert via_factor.leaves == via_graph.leaves

    def test_cut_leaf_without_provenance(self):
        # A hand-built graph may use the reserved prefix with no cover at
        # all; such leaves still sort deterministically, after originals.
        g = make_graph(
            [0, 1],
            [["cut:q", "a"], ["t"]],
            [[("e", "cut:q", "t"), ("f", "a", "t")]],
        )
        assert leaf_order(g).leaves == ("a", "cut:q")


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
        dec = decompose(build_dag_view(net_a))
        v1 = cophenetic_vector(dec.factors[0], ranks=ranks_a, time_mode="-f")
        v2 = cophenetic_vector(dec.factors[1], ranks=ranks_a, time_mode="-f")
        assert v1.entries == (F(7), F(3), F(1), F(4), F(1), F(4))
        assert v2.entries == (F(7), F(1), F(1), F(4), F(3), F(4))

    def test_net_b_factor_vectors(self, net_b, ranks_b):
        dec = decompose(build_dag_view(net_b))
        v3 = cophenetic_vector(dec.factors[0], ranks=ranks_b, time_mode="-f")
        v4 = cophenetic_vector(dec.factors[1], ranks=ranks_b, time_mode="-f")
        assert v3.entries == (F(4), F(3), F(1), F(7), F(1), F(4))
        assert v4.entries == (F(4), F(1), F(3), F(7), F(1), F(4))

    def test_time_mode_flips_sign(self, net_a, ranks_a):
        factor = decompose(build_dag_view(net_a)).factors[0]
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

    ordering = leaf_order(source, ranks=ranks)
    leaves = ordering.leaves
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
            out.extend((f, ranks) for f in decompose(build_dag_view(g)).factors)
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
        assert any(any(x.startswith("cut:") for x in leaf_order(f).leaves) for f, _ in factors)
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
            by_size.setdefault(len(leaf_order(f).leaves), []).append(cophenetic_vector(f))
        for group in by_size.values():
            half = max(1, len(group) // 2)
            a, b = group[:half], group[half:] or group[:1]
            assert hausdorff_distance(a, b, p) == hausdorff_distance(
                [v.entries for v in a], [v.entries for v in b], p
            )

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
        dec = decompose(build_dag_view(net_a))
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
