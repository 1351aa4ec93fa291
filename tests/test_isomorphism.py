"""Canonical forms, the decomposition-based decision, and the search oracle."""

from __future__ import annotations

import random

import pytest

from reebtrees import (
    GeneratorSpec,
    LabelMismatch,
    MissingLabels,
    MorphismWitness,
    NotATree,
    SizeLimitExceeded,
    brute_force_iso,
    canonical_form,
    decompose,
    decomposition_invariant,
    labelled_iso,
    make_graph,
    random_graph,
    reeb_iso,
    refine_to_levels,
    verify_witness,
)
from conftest import SAFE_SHAPES, corpus, rename_graph


def small_tree(**kwargs):
    return make_graph(
        [0, 1, 2],
        [["x", "y"], ["m"], ["t"]],
        [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
        **kwargs,
    )


class TestCanonicalForm:
    def test_requires_a_tree(self, cycle_graph):
        with pytest.raises(NotATree, match="8 edges on 8 vertices"):
            canonical_form(cycle_graph)

    def test_requires_connectivity(self):
        g = make_graph(
            [0, 1],
            [["a", "b", "x"], ["c", "d", "y"]],
            [
                [
                    ("e1", "a", "c"),
                    ("e2", "b", "d"),
                    ("e3", "b", "d"),
                    ("e4", "x", "y"),
                    ("e5", "x", "y"),
                ]
            ],
        )
        with pytest.raises(NotATree, match="not connected"):
            canonical_form(g)

    def test_invariant_under_renaming(self):
        t = small_tree()
        assert canonical_form(t) == canonical_form(rename_graph(t))

    def test_depends_on_generated_order_not_presentation(self):
        a = small_tree(vertex_covers=[[("x", "y")], [], []])
        chain = make_graph(
            [0, 1, 2],
            [["x", "y", "z"], ["m"], ["t"]],
            [
                [("e", "x", "m"), ("f", "y", "m"), ("h", "z", "m")],
                [("g", "m", "t")],
            ],
            vertex_covers=[[("x", "y"), ("y", "z")], [], []],
        )
        redundant = make_graph(
            [0, 1, 2],
            [["x", "y", "z"], ["m"], ["t"]],
            [
                [("e", "x", "m"), ("f", "y", "m"), ("h", "z", "m")],
                [("g", "m", "t")],
            ],
            vertex_covers=[[("x", "y"), ("y", "z"), ("x", "z")], [], []],
        )
        # The stored covers differ but generate the same strict order.
        assert canonical_form(chain) == canonical_form(redundant)
        assert canonical_form(a) != canonical_form(small_tree())

    def test_order_direction_matters(self):
        lo = small_tree(edge_covers=[[("e", "f")], []])
        hi = small_tree(edge_covers=[[("f", "e")], []])
        # Swapping e and f is not available: their bottom vertices both map
        # through the same covers, so direction alone cannot distinguish
        # them... unless a rank pins the leaves down.
        assert canonical_form(lo) == canonical_form(hi)
        assert canonical_form(lo, leaf_ranks={"x": 1, "y": 2}) != canonical_form(
            hi, leaf_ranks={"x": 1, "y": 2}
        )

    def test_leaf_ranks_color_sinks(self):
        t = small_tree()
        plain = canonical_form(t)
        assert canonical_form(t, leaf_ranks={"x": 1, "y": 2}) == canonical_form(
            t, leaf_ranks={"y": 2, "x": 1}
        )
        assert canonical_form(t, leaf_ranks={"x": 1, "y": 2}) != plain
        # Ranks on non-sinks are ignored.
        assert canonical_form(t, leaf_ranks={"m": 5}) == plain

    def test_budget_limits_tie_breaking(self):
        leaves = [f"b{i}" for i in range(6)]
        g = make_graph(
            [0, 1],
            [leaves, ["top"]],
            [[(f"e{i}", b, "top") for i, b in enumerate(leaves)]],
            vertex_covers=[[("b0", "b1"), ("b2", "b3"), ("b4", "b5")], []],
        )
        with pytest.raises(SizeLimitExceeded):
            canonical_form(g, budget=4)
        assert canonical_form(g) == canonical_form(rename_graph(g))

    def test_factor_multiset_invariant(self, cycle_graph):
        inv = decomposition_invariant(cycle_graph)
        assert len(inv) == 2
        assert inv == decomposition_invariant(rename_graph(cycle_graph))


class TestReebIso:
    def test_identity_and_renaming(self, cycle_graph, triple_edge):
        for g in (cycle_graph, triple_edge):
            assert reeb_iso(g, g)
            assert reeb_iso(g, rename_graph(g))

    def test_range_mismatch_is_not_iso(self, cycle_graph):
        other = make_graph([0, 1], [["a"], ["b"]], [[("e", "a", "b")]])
        assert not reeb_iso(cycle_graph, other)

    def test_distinguishes_fixtures(self, cycle_graph, triple_edge):
        two_cycles = make_graph(
            [0, 1, 2, 3],
            [["l2", "l3", "l4"], ["r", "l1"], ["a", "b"], ["w"]],
            [
                [("e1", "l2", "r"), ("e2", "l3", "r"), ("e3", "l4", "r")],
                [("e5", "r", "a"), ("e6", "r", "b"), ("e4", "l1", "b")],
                [("e7", "a", "w"), ("e8", "b", "w"), ("e9", "b", "w")],
            ],
        )
        assert not reeb_iso(cycle_graph, two_cycles)

    def test_level_values_matter(self):
        a = make_graph([0, 1, 2], [["x", "y"], ["m"], ["t"]],
                       [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]])
        b = make_graph([0, "3/2", 2], [["x", "y"], ["m"], ["t"]],
                       [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]])
        # The branch point sits at a different height, which survives
        # refinement to the common level set.
        assert not reeb_iso(a, b)
        assert reeb_iso(a, rename_graph(a))

    def test_regular_marking_position_is_irrelevant(self):
        a = make_graph([0, 1, 2], [["x"], ["m"], ["t"]],
                       [[("e", "x", "m")], [("f", "m", "t")]])
        b = make_graph([0, "3/2", 2], [["x"], ["m"], ["t"]],
                       [[("e", "x", "m")], [("f", "m", "t")]])
        assert reeb_iso(a, b)

    def test_refinement_insensitive(self, cycle_graph):
        fine = refine_to_levels(cycle_graph, [0, "1/2", 1, 2, 3])
        assert reeb_iso(cycle_graph, fine)

    def test_leaf_ranks_constrain(self, net_a, net_b, ranks_a, ranks_b):
        assert reeb_iso(net_a, net_b)
        assert not reeb_iso(
            net_a, net_b, leaf_ranks_a=ranks_a, leaf_ranks_b=ranks_b
        )
        same = {"xl1": 1, "xl2": 2}
        assert reeb_iso(net_a, net_b, leaf_ranks_a=ranks_a, leaf_ranks_b=same)

    def test_multi_source_pair_falls_back(self, twin_peaks):
        assert reeb_iso(twin_peaks, rename_graph(twin_peaks))

    def test_one_sided_conflict_is_not_iso(self):
        clean = make_graph(
            [0, 1, 2],
            [["x"], ["m1", "m2"], ["t"]],
            [
                [("e1", "x", "m1"), ("e2", "x", "m2")],
                [("f1", "m1", "t"), ("f2", "m2", "t")],
            ],
        )
        # Same per-level counts, but m2 here is a second source.
        bent = make_graph(
            [0, 1, 2],
            [["x"], ["m1", "m2"], ["t"]],
            [
                [("e1", "x", "m1"), ("e2", "x", "m2")],
                [("f1", "m1", "t"), ("f2", "m1", "t")],
            ],
        )
        assert not reeb_iso(clean, bent)
        assert not brute_force_iso(clean, bent)

    def test_ordered_inputs_fall_back(self, cycle_graph):
        a = make_graph(
            [0, 1, 2, 3],
            [["l2", "l3", "l4"], ["r", "l1"], ["a", "b"], ["w"]],
            [
                [("e1", "l2", "r"), ("e2", "l3", "r"), ("e3", "l4", "r")],
                [("e5", "r", "a"), ("e6", "r", "b"), ("e4", "l1", "b")],
                [("e7", "a", "w"), ("e8", "b", "w")],
            ],
            vertex_covers=[[("l2", "l3")], [], [], []],
        )
        assert reeb_iso(a, rename_graph(a))
        assert not reeb_iso(a, cycle_graph)

    def test_agrees_with_search_on_corpus_sample(self):
        graphs = [g for g in corpus(SAFE_SHAPES[:5], range(3))]
        for i, g in enumerate(graphs):
            assert reeb_iso(g, rename_graph(g)) is True
            assert brute_force_iso(g, rename_graph(g)) is True
            h = graphs[(i + 1) % len(graphs)]
            assert reeb_iso(g, h) == brute_force_iso(g, h)

    def test_agrees_with_search_on_ranked_pairs(self):
        """Ranked pairs with merges of in-degree up to 3: renamed copies with
        ranks carried over or drawn afresh, and cross pairs unranked or
        against an empty rank table."""
        shapes = [
            (2, 1, 3, 2),
            (3, 2, 4, 2),
            (3, 2, 3, 3),
            (4, 3, 5, 3),
            (2, 2, 3, 3),
            (3, 1, 4, 2),
        ]
        graphs = [
            random_graph(
                GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            )
            for seed in range(60)
            for n, s, lv, d in shapes
        ]
        rng = random.Random(6)

        def sink_ranks(g):
            sinks = [v for v in g.vertex_ids() if g.outdeg(v) == 0]
            ranks = list(range(len(sinks)))
            rng.shuffle(ranks)
            return dict(zip(sinks, ranks))

        positive = 0
        for i, g in enumerate(graphs):
            ranks = sink_ranks(g)
            copy = rename_graph(g)
            carried = {"z" + v[::-1]: r for v, r in ranks.items()}  # rename_graph's ids
            h = graphs[(i + 1) % len(graphs)]
            pairs = [
                (g, copy, ranks, carried),
                (g, copy, ranks, sink_ranks(copy)),
                (g, h, None, None),
                (g, h, ranks, {}),
            ]
            for a, b, ranks_a, ranks_b in pairs:
                want = brute_force_iso(a, b, vertex_tags_a=ranks_a, vertex_tags_b=ranks_b)
                got = reeb_iso(a, b, leaf_ranks_a=ranks_a, leaf_ranks_b=ranks_b)
                assert got == want, (i, ranks_a, ranks_b)
                positive += want
        assert (len(graphs), positive) == (360, 468)


class TestLabelled:
    def test_needs_full_labels(self):
        with pytest.raises(MissingLabels):
            labelled_iso(small_tree(), small_tree())

    def labelled_pair(self):
        a = small_tree(labels=[{"e": "L", "f": "R"}, {"g": "S"}])
        b = make_graph(
            [0, 1, 2],
            [["p", "q"], ["c"], ["top"]],
            [[("u", "p", "c"), ("v", "q", "c")], [("w", "c", "top")]],
            labels=[{"u": "R", "v": "L"}, {"w": "S"}],
        )
        return a, b

    def test_unique_witness(self):
        a, b = self.labelled_pair()
        witness = labelled_iso(a, b)
        assert witness is not None
        assert witness.edge_maps[0] == {"e": "v", "f": "u"}
        assert witness.vertex_maps[0] == {"x": "q", "y": "p"}
        assert verify_witness(witness)

    def test_label_sets_must_match(self):
        a, b = self.labelled_pair()
        c = make_graph(
            [0, 1, 2],
            [["p", "q"], ["c"], ["top"]],
            [[("u", "p", "c"), ("v", "q", "c")], [("w", "c", "top")]],
            labels=[{"u": "R", "v": "OTHER"}, {"w": "S"}],
        )
        with pytest.raises(LabelMismatch, match="gap 0"):
            labelled_iso(a, c)

    def test_incompatible_attachment_returns_none(self):
        a = small_tree(labels=[{"e": "L", "f": "R"}, {"g": "S"}])
        skew = make_graph(
            [0, 1, 2],
            [["p", "q"], ["c", "d"], ["top"]],
            [
                [("u", "p", "c"), ("v", "q", "d")],
                [("w", "c", "top"), ("w2", "d", "top")],
            ],
            labels=[{"u": "L", "v": "R"}, {"w": "S", "w2": "S2"}],
        )
        assert labelled_iso(a, skew) is None

    def test_refinement_relabels_consistently(self):
        coarse = make_graph(
            [0, 2],
            [["x"], ["t"]],
            [[("e", "x", "t")]],
            labels=[{"e": "stem"}],
        )
        fine = refine_to_levels(coarse, [0, 1, 2])
        assert fine.gap_labels(0) == {"e.lo": "stem.lo"}
        witness = labelled_iso(coarse, fine)
        assert witness is not None and verify_witness(witness)

    def test_witness_verification_catches_tampering(self):
        a, b = self.labelled_pair()
        witness = labelled_iso(a, b)
        bad = MorphismWitness(
            source=witness.source,
            target=witness.target,
            vertex_maps=({"x": "p", "y": "q"},) + witness.vertex_maps[1:],
            edge_maps=witness.edge_maps,
        )
        assert not verify_witness(bad)


class TestBruteForce:
    def test_labels_can_block(self):
        a = small_tree(labels=[{"e": "L", "f": "R"}, {"g": "S"}])
        b = small_tree(labels=[{"e": "L", "f": "R"}, {"g": "S"}])
        twisted = small_tree(labels=[{"e": "R", "f": "L"}, {"g": "S"}])
        assert brute_force_iso(a, b, use_labels=True)
        # Swapping x and y still realizes the twisted labelling.
        assert brute_force_iso(a, twisted, use_labels=True)
        pinned = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m"], ["t"]],
            [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
            vertex_covers=[[("x", "y")], [], []],
            labels=[{"e": "L", "f": "R"}, {"g": "S"}],
        )
        pinned_twisted = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m"], ["t"]],
            [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
            vertex_covers=[[("x", "y")], [], []],
            labels=[{"e": "R", "f": "L"}, {"g": "S"}],
        )
        assert not brute_force_iso(pinned, pinned_twisted, use_labels=True)
        assert brute_force_iso(pinned, pinned_twisted)

    def test_use_labels_requires_labels(self):
        with pytest.raises(MissingLabels):
            brute_force_iso(small_tree(), small_tree(), use_labels=True)

    def test_sink_tags(self):
        t = small_tree()
        # x and y are interchangeable, so swapped tags still allow a match.
        assert brute_force_iso(
            t, t, vertex_tags_a={"x": 1, "y": 2}, vertex_tags_b={"x": 2, "y": 1}
        )
        lop = make_graph(
            [0, 1, 2],
            [["x"], ["y", "m"], ["t"]],
            [[("e", "x", "m")], [("f", "m", "t"), ("h", "y", "t")]],
        )
        assert brute_force_iso(
            lop, lop, vertex_tags_a={"x": 1, "y": 2}, vertex_tags_b={"x": 1, "y": 2}
        )
        # Here the sinks sit at different levels, so the tags must line up.
        assert not brute_force_iso(
            lop, lop, vertex_tags_a={"x": 1, "y": 2}, vertex_tags_b={"x": 2, "y": 1}
        )
        # Tags on non-sinks have no effect.
        assert brute_force_iso(t, t, vertex_tags_a={"m": 9}, vertex_tags_b={})

    def test_budget_exhaustion(self):
        leaves = [f"b{i}" for i in range(7)]
        g = make_graph(
            [0, 1],
            [leaves, ["top"]],
            [[(f"e{i}", b, "top") for i, b in enumerate(leaves)]],
        )
        with pytest.raises(SizeLimitExceeded, match="budget"):
            brute_force_iso(g, rename_graph(g), budget=5)
        assert brute_force_iso(g, rename_graph(g))

    def test_environment_budget(self, monkeypatch):
        t = small_tree()
        monkeypatch.setenv("REEB_SEARCH_BUDGET", "2")
        with pytest.raises(SizeLimitExceeded):
            brute_force_iso(t, rename_graph(t))
        monkeypatch.setenv("REEB_SEARCH_BUDGET", "100000")
        assert brute_force_iso(t, rename_graph(t))


def test_decomposition_invariant_separates(cycle_graph):
    dec = decompose(cycle_graph)
    forms = {canonical_form(f.graph) for f in dec.factors}
    # The two factors of this graph happen to be non-isomorphic trees.
    assert len(forms) == 2
