"""Cophenetic vectors, root extraction, and the distances built on them."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from reebtrees import (
    DimensionMismatch,
    EmptySet,
    IncompatibleShape,
    NotATree,
    NotRooted,
    build_dag_view,
    cophenetic_vector,
    decompose,
    hausdorff_distance,
    leaf_order,
    lp_distance,
    make_graph,
    network_distance,
    nth_root_fraction,
)

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
