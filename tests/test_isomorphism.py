"""Canonical forms, the decomposition-based decision, and the search oracle."""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from typing import Mapping

import pytest

from reebtrees import (
    GeneratorSpec,
    LabelMismatch,
    LevelPoset,
    MissingLabels,
    MorphismWitness,
    NotATree,
    OrderConflict,
    ReebGraph,
    SizeLimitExceeded,
    apply_choice,
    brute_force_iso,
    canonical_form,
    common_refinement,
    cut_options,
    decompose,
    decomposition_invariant,
    enumerate_choices,
    labelled_iso,
    load_text,
    make_graph,
    minimize_critical_set,
    random_graph,
    reeb_iso,
    refine_to_levels,
    validate,
    verify_witness,
)
from reebtrees import decomposition, isomorphism
from reebtrees.isomorphism import _order_counts
from conftest import (
    SAFE_SHAPES,
    assert_cuts_take_fresh_ids,
    chain_with_bigons,
    corpus,
    cut_id_clash,
    dated_caterpillar,
    deep_ordered_path,
    rename_graph,
    shuffle_ids,
    taken_refinement_id_pair,
)


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
        # Edges one fewer than vertices, three sources: the two bigons
        # stall _centres' leaf peel, and the numbering from the first
        # centre left misses vertices.
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

    def test_twins_take_no_branches(self):
        """The cut leaves of a bouquet's factor hang from one vertex with the
        same partner: exchanging them is an automorphism, so no budget is
        spent on them."""
        d = 8
        g = make_graph([0, 1], [["r"], ["u"]], [[(f"e{i}", "r", "u") for i in range(d)]])
        (factor, *_) = decompose(g).factors
        assert len(factor.detached) == d - 1
        assert canonical_form(factor.graph, budget=0) == canonical_form(
            rename_graph(factor.graph), budget=0
        )

    def test_factor_multiset_invariant(self, cycle_graph):
        inv = decomposition_invariant(cycle_graph)
        assert len(inv) == 2
        assert inv == decomposition_invariant(rename_graph(cycle_graph))


class TestReebIso:
    def test_identity_and_renaming(self, cycle_graph, triple_edge):
        for g in (cycle_graph, triple_edge):
            assert reeb_iso(g, g)
            assert reeb_iso(g, rename_graph(g))

    def test_cut_id_held_off_the_merge_level(self):
        # The network holds cut:e1 or cut:e2 on level 1, where the first
        # factor would detach e2: its cut leaf takes a fresh id either way,
        # and the decision does not depend on which edge's id is held.
        for edge in ("e1", "e2"):
            g = cut_id_clash(edge)
            assert_cuts_take_fresh_ids(g)
            copy = rename_graph(g)
            assert reeb_iso(g, copy) and reeb_iso(copy, g)
            assert decomposition_invariant(g) == decomposition_invariant(copy)

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

    def test_conflicting_forced_vertex_map_returns_none(self):
        # The labels send x to p and y to q, and so their common parent c to
        # both m and n.
        a = make_graph(
            [0, 1, 2],
            [["x", "y"], ["c", "d"], ["top"]],
            [
                [("e1", "x", "c"), ("e2", "y", "c")],
                [("g1", "c", "top"), ("g2", "d", "top")],
            ],
            labels=[{"e1": "L", "e2": "R"}, {"g1": "S", "g2": "T"}],
        )
        b = make_graph(
            [0, 1, 2],
            [["p", "q"], ["m", "n"], ["top"]],
            [
                [("u1", "p", "m"), ("u2", "q", "n")],
                [("w1", "m", "top"), ("w2", "n", "top")],
            ],
            labels=[{"u1": "L", "u2": "R"}, {"w1": "S", "w2": "T"}],
        )
        assert labelled_iso(a, b) is None

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

    def test_different_level_ranges_are_not_isomorphic(self):
        # The other deciders answer no on spans [0, 1] and [0, 2]; refining
        # to common levels would raise BadLevelSet.
        a, b = (
            make_graph([0, top], [["x"], ["t"]], [[("e", "x", "t")]], labels=[{"e": "stem"}])
            for top in (1, 2)
        )
        assert labelled_iso(a, b) is None and labelled_iso(b, a) is None
        assert not reeb_iso(a, b) and not brute_force_iso(a, b, use_labels=True)

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

    def test_witness_verification_checks_everything(self):
        # Two branches x-m and y-n joined at t, with every level and gap
        # ordered and labelled, against a renamed copy: one tampering per
        # check of verify_witness.
        a = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m", "n"], ["t"]],
            [[("e", "x", "m"), ("f", "y", "n")], [("g", "m", "t"), ("h", "n", "t")]],
            vertex_covers=[[("x", "y")], [("m", "n")], []],
            edge_covers=[[("e", "f")], [("g", "h")]],
            labels=[{"e": "E", "f": "F"}, {"g": "G", "h": "H"}],
        )
        b = rename_graph(a)
        z = {x: "z" + x for x in "xymntefgh"}
        good = MorphismWitness(
            a, b,
            tuple({v: z[v] for v in vs} for vs in a.vertex_sets),
            tuple({e: z[e] for e in es} for es in a.edge_sets),
        )
        assert verify_witness(good)
        swap = {"x": "y", "y": "x", "m": "n", "n": "m", "e": "f", "f": "e", "g": "h", "h": "g"}

        def maps(which, i, changes=None, drop=None):
            ms = list(getattr(good, which))
            ms[i] = {k: v for k, v in {**ms[i], **(changes or {})}.items() if k != drop}
            return dataclasses.replace(good, **{which: tuple(ms)})

        def target(**kw):
            return dataclasses.replace(good, target=dataclasses.replace(b, **kw))

        tampered = {
            "levels": target(levels=(0, 1, 3)),
            "vertex map count": dataclasses.replace(good, vertex_maps=good.vertex_maps[:-1]),
            "edge map count": dataclasses.replace(good, edge_maps=good.edge_maps[:-1]),
            "vertex map domain": maps("vertex_maps", 0, drop="x"),
            "vertex map image": maps("vertex_maps", 0, {"x": "zy"}),
            "edge map domain": maps("edge_maps", 0, drop="e"),
            "edge map image": maps("edge_maps", 0, {"e": "zf"}),
            "down end": maps("vertex_maps", 0, {"x": "zy", "y": "zx"}),
            "up end": maps("vertex_maps", 1, {"m": "zn", "n": "zm"}),
            # The branches swapped: an automorphism of the graph, not of its orders.
            "vertex order": dataclasses.replace(
                good,
                vertex_maps=tuple({v: "z" + swap.get(v, v) for v in m} for m in good.vertex_maps),
                edge_maps=tuple({e: "z" + swap[e] for e in m} for m in good.edge_maps),
            ),
            "edge order": target(edge_orders=tuple(map(LevelPoset.trivial, b.edge_sets))),
            "label presence": target(edge_labels=(None, b.edge_labels[1])),
            "label value": target(edge_labels=({"ze": "F", "zf": "E"}, b.edge_labels[1])),
        }
        for check, witness in tampered.items():
            assert not verify_witness(witness), check


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


def test_taken_refinement_id_pair_is_decided():
    # Splitting a's edge e at 1/2 makes the id of a's vertex e@0.5, which
    # the refinement extends; the oracle then answers as reeb_iso does.
    a, b = taken_refinement_id_pair()
    ra, rb = common_refinement(a, b)
    assert ra.vertex_sets[1] == {"e@0.5'", "g@0.5"} and rb is b
    assert reeb_iso(a, b) and brute_force_iso(a, b) and brute_force_iso(b, a)
    path = make_graph(
        [0, "1/2", 1], [["x"], ["m"], ["y"]], [[("p", "x", "m")], [("q", "m", "y")]]
    )
    assert not reeb_iso(a, path) and not brute_force_iso(a, path)


def test_decomposition_invariant_separates(cycle_graph):
    dec = decompose(cycle_graph)
    forms = {canonical_form(f.graph) for f in dec.factors}
    # The two factors of this graph happen to be non-isomorphic trees.
    assert len(forms) == 2


class TestRoute:
    """Which route reeb_iso takes, seen through the functions it calls."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"canonical_form": 0, "brute_force_iso": 0, "apply_choice": 0}
        for name in counts:
            module = decomposition if name == "apply_choice" else isomorphism
            original = getattr(module, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return counts

    def test_level_count_mismatch_builds_nothing(self, calls, cycle_graph):
        wider = make_graph(
            [0, 1, 2, 3],
            [["l2", "l3", "l4", "l5"], ["r", "l1"], ["a", "b"], ["w"]],
            [
                [("e1", "l2", "r"), ("e2", "l3", "r"), ("e3", "l4", "r"), ("e0", "l5", "r")],
                [("e5", "r", "a"), ("e6", "r", "b"), ("e4", "l1", "b")],
                [("e7", "a", "w"), ("e8", "b", "w")],
            ],
        )
        assert not reeb_iso(cycle_graph, wider)
        assert calls == {"canonical_form": 0, "brute_force_iso": 0, "apply_choice": 0}

    def test_colour_mismatch_builds_nothing(self, calls):
        # Equal counts on every level and gap: two branches meet at the top
        # in one tree, while in the other both bottom edges meet at one
        # vertex and the second vertex of level 1 is a sink.
        late = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m", "n"], ["t"]],
            [
                [("e1", "x", "m"), ("e2", "y", "n")],
                [("f1", "m", "t"), ("f2", "n", "t")],
            ],
        )
        early = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m", "n"], ["t"]],
            [
                [("e1", "x", "m"), ("e2", "y", "m")],
                [("f1", "m", "t"), ("f2", "n", "t")],
            ],
        )
        assert validate(late) == validate(early) == []
        assert not reeb_iso(late, early)
        assert calls == {"canonical_form": 0, "brute_force_iso": 0, "apply_choice": 0}

    def test_renamed_chain_builds_no_fingerprint(self, calls):
        # One critical vertex per level: each name holds one vertex, so the
        # certificates decide and no factor is fingerprinted.
        g = chain_with_bigons(40, 6)
        assert reeb_iso(g, rename_graph(g))
        assert calls == {"canonical_form": 0, "brute_force_iso": 0, "apply_choice": 0}

    def test_network_with_tied_leaves_builds_no_fingerprint(self, calls):
        # Two unranked leaves under one parent of a network tie; they are
        # interchangeable, and the certificates decide.
        g = make_graph(
            [0, 1, 2],
            [["y1", "y2"], ["r"], ["t"]],
            [[("c1", "y1", "r"), ("c2", "y2", "r")], [("f", "r", "t"), ("g", "r", "t")]],
        )
        assert reeb_iso(g, rename_graph(g))
        assert calls == {"canonical_form": 0, "brute_force_iso": 0, "apply_choice": 0}

    def test_multi_source_pair_takes_the_oracle(self, calls, twin_peaks):
        # Its colours tie, so the fingerprint route decides.
        assert reeb_iso(twin_peaks, rename_graph(twin_peaks))
        assert calls["canonical_form"] == 2
        assert calls["brute_force_iso"] == 0


def swap_lower_ends(g, rng):
    """Exchange the lower endpoints of two edges of one gap; every degree
    stays the same.  None when no tried swap gives a valid graph."""
    gaps = [i for i in range(g.gap_count) if len(g.edge_sets[i]) >= 2]
    for _ in range(30):
        i = rng.choice(gaps)
        e, f = rng.sample(sorted(g.edge_sets[i]), 2)
        down = dict(g.down_maps[i])
        if down[e] == down[f] or g.up_maps[i][e] == g.up_maps[i][f]:
            continue
        down[e], down[f] = down[f], down[e]
        h = dataclasses.replace(
            g, down_maps=g.down_maps[:i] + (down,) + g.down_maps[i + 1 :]
        )
        if not validate(h):
            return h
    return None


def composed_maps(ra, rb, rng):
    """The map that two refinements' names compose to, for a pair that
    _refinements passed with both sides certified: each critical vertex of a
    to the vertex of b with its name, tied leaves paired in a random order,
    and each long edge of a that carries an edge-order relation to the one
    long edge of b between the images of its ends.  Asserts that the map
    keeps each vertex's long edges below, as (image of lower end,
    edge-order counts), which the stable names imply."""
    classes = defaultdict(lambda: ([], []))
    for side, r in enumerate((ra, rb)):
        for v, name in r.names.items():
            classes[name][side].append(v)
    phi = {}
    for xs, ys in classes.values():
        rng.shuffle(ys)
        phi.update(zip(xs, ys))
    down_a, down_b = ra.graph._skeleton.down, rb.graph._skeleton.down
    rel_a, rel_b = ra.edge_counts, rb.edge_counts
    for v, ends in down_a.items():
        mine = sorted([(phi[u], rel_a.get(e, (0, 0))) for u, e in ends])
        assert mine == sorted([(u, rel_b.get(f, (0, 0))) for u, f in down_b[phi[v]]])
    psi = {
        e: next(f for x, f in down_b[phi[w]] if x == phi[u])
        for w, ends in down_a.items() for u, e in ends if e in rel_a
    }
    return phi, psi


class Routes:
    """Records, per reeb_iso call, which route decided (colour, when both
    graphs are certified and their certificates decide, or fingerprint),
    with its answer, in ``decided``, and the witness that route's maps
    expand into; None when it found no isomorphism.  On every pair the
    colour route decides, the fingerprint route must agree, and the map the
    two namings compose to must keep every vertex's long edges below."""

    def __init__(self, monkeypatch):
        self.decided: Counter = Counter()
        self.witnesses: list = []
        self.pair = None
        self.rng = random.Random(5)
        self.factor_match = isomorphism._factor_match
        refinements = isomorphism._refinements

        def fingerprint(ra, rb, budget):
            maps = self.factor_match(ra, rb, budget)
            self._record("fingerprint", ra, rb, maps)
            return maps

        def refine(*args):
            self.pair = refinements(*args)
            return self.pair

        monkeypatch.setattr(isomorphism, "_factor_match", fingerprint)
        monkeypatch.setattr(isomorphism, "_refinements", refine)

    def _record(self, route, ra, rb, maps):
        self.decided[route, maps is not None] += 1
        self.witnesses.append(maps and isomorphism._witness(ra.graph, rb.graph, *maps))

    def decide(self, a, b, ranks_a, ranks_b):
        """reeb_iso on the pair; its answer and the list of witnesses it
        recorded (empty when the prefilter decided)."""
        self.witnesses.clear()
        self.pair = None
        got = reeb_iso(a, b, leaf_ranks_a=ranks_a, leaf_ranks_b=ranks_b)
        if self.pair is not None and all(r.certified for r in self.pair):
            ra, rb = self.pair
            maps = composed_maps(ra, rb, self.rng)
            assert (self.factor_match(ra, rb, None) is not None) == got
            self._record("colour", ra, rb, maps if got else None)
        return got, list(self.witnesses)


def test_reeb_iso_matches_oracle_with_witnesses(monkeypatch):
    """Generator graphs with merges of in-degree 2 and 3 and at most 16
    vertices, against renamed copies (ranks carried over, drawn afresh, or
    none) and renamed degree-preserving swaps.  Every positive answer
    carries a witness, from whichever route decided, that verifies."""
    routes = Routes(monkeypatch)
    shapes = [
        (2, 2, 3, 3),
        (3, 2, 4, 3),
        (3, 3, 4, 3),
        (4, 3, 5, 3),
        (3, 4, 5, 3),
        (2, 3, 4, 3),
        (4, 2, 4, 2),
    ]
    rng = random.Random(2026)
    pairs = positive = verified = 0
    for seed in range(90):
        for n, s, lv, d in shapes:
            g = random_graph(GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d))
            if sum(map(len, g.vertex_sets)) > 16:
                continue
            sinks = [v for v in g.vertex_ids() if g.outdeg(v) == 0]
            ranks = {v: rng.randrange(len(sinks)) for v in sinks}
            carried = {"z" + v[::-1]: r for v, r in ranks.items()}  # rename_graph's ids
            fresh = {v: rng.randrange(len(sinks)) for v in carried}
            copy = rename_graph(g)
            cases = [(copy, None, None), (copy, ranks, carried), (copy, ranks, fresh)]
            swapped = swap_lower_ends(g, rng)
            if swapped is not None:
                other = rename_graph(swapped)
                cases += [(other, None, None), (other, ranks, carried)]
            for b, ranks_a, ranks_b in cases:
                want = brute_force_iso(g, b, vertex_tags_a=ranks_a, vertex_tags_b=ranks_b)
                got, witnesses = routes.decide(g, b, ranks_a, ranks_b)
                assert got == want
                if witnesses:
                    (witness,) = witnesses
                    assert (witness is not None) == want
                    if want:
                        assert verify_witness(witness)
                        verified += 1
                pairs += 1
                positive += want
    assert (pairs, positive, verified) == (2884, 1576, 1576)
    assert routes.decided == {("colour", True): 1554, ("fingerprint", True): 22}


def random_tree_pair(rng):
    """Two leveled trees of one shape under unrelated ids, with random
    strict orders on every level and gap and random sink ranks.  The second
    keeps the first's orders and ranks, or draws either afresh."""
    n = rng.randint(2, 10)
    level = {0: 0}
    links = []
    for v in range(1, n):
        u = rng.randrange(v)
        level[v] = level[u] + rng.choice((-1, 1))
        links.append((u, v))
    low = min(level.values())
    level = {v: x - low for v, x in level.items()}
    k = max(level.values()) + 1
    gap_of = [min(level[u], level[v]) for u, v in links]
    density = rng.choice((0.0, 0.25, 0.5, 1.0))

    def orders():
        def chains(items):
            items = list(items)
            rng.shuffle(items)
            return [
                (x, y)
                for i, x in enumerate(items)
                for y in items[i + 1 :]
                if rng.random() < density
            ]

        vertex = [chains(v for v in level if level[v] == i) for i in range(k)]
        edge = [chains(j for j in range(len(links)) if gap_of[j] == i) for i in range(k - 1)]
        return vertex, edge

    def build(vertex_order, edge_order):
        vid = {v: f"v{x}" for v, x in zip(level, rng.sample(range(100), n))}
        eid = {j: f"e{x}" for j, x in zip(range(len(links)), rng.sample(range(100), len(links)))}
        gaps = [[] for _ in range(k - 1)]
        for j, (u, v) in enumerate(links):
            lo, hi = (u, v) if level[u] < level[v] else (v, u)
            gaps[gap_of[j]].append((eid[j], vid[lo], vid[hi]))
        g = make_graph(
            list(range(k)),
            [[vid[v] for v in level if level[v] == i] for i in range(k)],
            gaps,
            vertex_covers=[[(vid[x], vid[y]) for x, y in pairs] for pairs in vertex_order],
            edge_covers=[[(eid[x], eid[y]) for x, y in pairs] for pairs in edge_order],
        )
        return g, vid

    ranked = rng.random() < 0.5
    non_sinks = {u if level[u] > level[v] else v for u, v in links}
    sinks = [v for v in level if v not in non_sinks]
    ranks = {v: rng.randrange(3) for v in sinks}
    first = orders()
    a, vid_a = build(*first)
    b, vid_b = build(*(first if rng.random() < 0.4 else orders()))
    if not ranked:
        return a, b, None, None
    other = ranks if rng.random() < 0.6 else {v: rng.randrange(3) for v in sinks}
    return a, b, {vid_a[v]: r for v, r in ranks.items()}, {vid_b[v]: r for v, r in other.items()}


def crown_star_pair(rng):
    """A root over 2m leaves whose order joins each lower leaf to r upper
    ones (a union of r matchings, split between vertex and edge orders), and
    a second such star: regular orders like these leave colour refinement
    with tied cells, so only individualisation tells them apart."""
    m = rng.randint(2, 5)
    r = rng.randint(1, min(3, m))

    def relations():
        out = set()
        for _ in range(r):
            hi = rng.sample(range(m, 2 * m), m)
            out.update(zip(range(m), hi))
        return sorted(out)

    def star(rel, tag):
        leaves = [f"{tag}{i}" for i in range(2 * m)]
        vertex, edge = [], []
        for x, y in rel:
            if rng.random() < 0.5:
                vertex.append((leaves[x], leaves[y]))
            else:
                edge.append((f"{tag}e{x}", f"{tag}e{y}"))
        return make_graph(
            [0, 1],
            [leaves, ["top"]],
            [[(f"{tag}e{i}", leaf, "top") for i, leaf in enumerate(leaves)]],
            vertex_covers=[vertex, []],
            edge_covers=[edge],
        )

    rel = relations()
    if rng.random() < 0.5:
        lo, hi = rng.sample(range(m), m), rng.sample(range(m, 2 * m), m)
        perm = dict(zip(range(m), lo)) | dict(zip(range(m, 2 * m), hi))
        other = [(perm[x], perm[y]) for x, y in rel]
    else:
        other = relations()
    return star(rel, "p"), star(other, "q"), None, None


def test_canonical_form_matches_oracle_on_ordered_trees(monkeypatch):
    """Equal fingerprints exactly when the oracle finds a level-, order- and
    rank-preserving bijection, on random small trees with random vertex and
    edge orders and on regular crown stars, where ties survive refinement."""
    branched = []
    target = isomorphism._RootedTree.target

    def watching(self, col):
        cell = target(self, col)
        branched.append(cell is not None)
        return cell

    monkeypatch.setattr(isomorphism._RootedTree, "target", watching)
    rng = random.Random(500)
    outcomes = []
    for i in range(700):
        a, b, ranks_a, ranks_b = (crown_star_pair if i % 4 == 3 else random_tree_pair)(rng)
        want = brute_force_iso(a, b, vertex_tags_a=ranks_a, vertex_tags_b=ranks_b)
        got = canonical_form(a, leaf_ranks=ranks_a) == canonical_form(b, leaf_ranks=ranks_b)
        assert got == want, i
        outcomes.append(want)
    assert (outcomes.count(True), outcomes.count(False), sum(branched)) == (326, 374, 788)


def test_deep_ordered_path_takes_the_oracle_without_recursing():
    g = deep_ordered_path(600)
    assert validate(g) == []
    assert reeb_iso(g, rename_graph(g))
    assert brute_force_iso(g, rename_graph(g))
    twisted = dataclasses.replace(
        g, vertex_orders=(LevelPoset(g.vertex_sets[0], frozenset({("y", "x")})),) + g.vertex_orders[1:]
    )
    assert reeb_iso(g, twisted)  # x and y swap places
    unordered = dataclasses.replace(
        g, vertex_orders=(LevelPoset.trivial(g.vertex_sets[0]),) + g.vertex_orders[1:]
    )
    assert not reeb_iso(g, unordered)


def random_covers(g, rng):
    """``g`` with fresh random vertex covers on every level, and those random
    edge covers that are monotone under the down and up maps."""
    density = rng.choice((0.2, 0.5, 1.0))

    def chain(items):
        items = sorted(items)
        rng.shuffle(items)
        return [
            (x, y) for i, x in enumerate(items) for y in items[i + 1 :] if rng.random() < density
        ]

    vertex = tuple(LevelPoset(vs, frozenset(chain(vs))) for vs in g.vertex_sets)
    edge = []
    for i, es in enumerate(g.edge_sets):
        down, up = g.down_maps[i], g.up_maps[i]
        monotone = [
            (e, f)
            for e, f in chain(es)
            if vertex[i].leq(down[e], down[f]) and vertex[i + 1].leq(up[e], up[f])
        ]
        edge.append(LevelPoset(es, frozenset(monotone)))
    return dataclasses.replace(g, vertex_orders=vertex, edge_orders=tuple(edge))


def add_sources(g, rng, count):
    """``g`` with ``count`` new source vertices, each joined to one vertex of
    the level below it; the two cycle-rank counts then disagree."""
    vsets, esets = list(g.vertex_sets), list(g.edge_sets)
    downs, ups = list(g.down_maps), list(g.up_maps)
    vorders, eorders = list(g.vertex_orders), list(g.edge_orders)
    for j in range(count):
        i = rng.randrange(1, g.level_count)
        src, e = f"src{j}", f"esrc{j}"
        vsets[i] = vsets[i] | {src}
        esets[i - 1] = esets[i - 1] | {e}
        downs[i - 1] = {**downs[i - 1], e: rng.choice(sorted(vsets[i - 1]))}
        ups[i - 1] = {**ups[i - 1], e: src}
        vorders[i] = LevelPoset(vsets[i], vorders[i].covers)
        eorders[i - 1] = LevelPoset(esets[i - 1], eorders[i - 1].covers)
    return dataclasses.replace(
        g,
        vertex_sets=tuple(vsets),
        edge_sets=tuple(esets),
        down_maps=tuple(downs),
        up_maps=tuple(ups),
        vertex_orders=tuple(vorders),
        edge_orders=tuple(eorders),
    )


def renamed_ranks(ranks):
    """``ranks`` on rename_graph's ids."""
    return None if ranks is None else {"z" + v[::-1]: r for v, r in ranks.items()}


def test_reeb_iso_matches_oracle_on_ordered_and_multi_source_pairs(monkeypatch):
    """Generator graphs (s = 0..3, merges of in-degree 2 and 3) with random
    vertex and edge covers, with one or two extra sources, or with both;
    sinks ranked on every other graph.  Partners are renamed copies, copies
    with covers drawn afresh, and degree-preserving swaps.  The answer is
    the oracle's, the oracle is never consulted, and every positive answer
    carries a witness, from whichever route decided, that verifies."""
    routes = Routes(monkeypatch)
    oracle_calls = []
    oracle = isomorphism.brute_force_iso

    def counting(*args, **kwargs):
        oracle_calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(isomorphism, "brute_force_iso", counting)
    shapes = [
        (2, 0, 3, 2),
        (3, 0, 4, 2),
        (2, 1, 3, 2),
        (3, 2, 4, 3),
        (3, 3, 4, 3),
        (4, 2, 4, 2),
        (2, 3, 4, 3),
    ]
    rng = random.Random(1212)
    pairs = positive = verified = 0
    for seed in range(18):
        for n, s, lv, d in shapes:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            base = random_graph(spec)
            if sum(map(len, base.vertex_sets)) > 14:
                continue
            for kind in ("covers", "sources", "both"):
                plain = base if kind == "covers" else add_sources(base, rng, rng.randint(1, 2))
                g = plain if kind == "sources" else random_covers(plain, rng)
                assert validate(g) == []
                ranks = None
                if seed % 2:
                    ranks = {v: rng.randrange(-2, 2) for v in g.vertex_ids() if g.outdeg(v) == 0}
                partners = [g]
                if kind != "sources":
                    partners.append(random_covers(plain, rng))
                swapped = swap_lower_ends(g, rng)
                if swapped is not None:
                    partners.append(swapped)
                for partner in partners:
                    b = rename_graph(partner)
                    ranks_b = renamed_ranks(ranks)
                    want = brute_force_iso(g, b, vertex_tags_a=ranks, vertex_tags_b=ranks_b)
                    got, witnesses = routes.decide(g, b, ranks, ranks_b)
                    assert got == want, (seed, n, s, kind)
                    if witnesses:
                        (witness,) = witnesses
                        assert (witness is not None) == want
                        if want:
                            assert verify_witness(witness)
                            verified += 1
                    pairs += 1
                    positive += want
    assert oracle_calls == []
    # The lockstep refinements end every negative pair but one, so only 443
    # pairs reach a route.
    assert (pairs, positive, verified) == (900, 442, 442)
    assert routes.decided == {
        ("colour", True): 308, ("colour", False): 1, ("fingerprint", True): 134
    }


def retarget_lower_end(g, rng):
    """Move the lower end of one edge to another vertex of its level.  None
    when no tried move gives a valid graph."""
    for _ in range(30):
        i = rng.randrange(g.gap_count)
        e = rng.choice(sorted(g.edge_sets[i]))
        others = sorted(g.vertex_sets[i] - {g.down_maps[i][e]})
        if not others:
            continue
        down = {**g.down_maps[i], e: rng.choice(others)}
        h = dataclasses.replace(g, down_maps=g.down_maps[:i] + (down,) + g.down_maps[i + 1 :])
        if not validate(h):
            return h
    return None


def moved_level(g, rng):
    """``g`` with one interior level moved to another value strictly between
    its neighbours."""
    i = rng.randrange(1, g.level_count - 1)
    lo, hi = g.levels[i - 1], g.levels[i + 1]
    values = [lo + (hi - lo) * Fraction(k, 8) for k in range(1, 8)]
    value = rng.choice([x for x in values if x != g.levels[i]])
    return dataclasses.replace(g, levels=g.levels[:i] + (value,) + g.levels[i + 1 :])


def coarsened_or_refined(g, rng):
    """``g`` minimized, on three draws in ten when its orders allow it;
    otherwise ``g`` refined at one to three new values inside its range."""
    if rng.random() < 0.3:
        try:
            return minimize_critical_set(g)
        except OrderConflict:
            pass
    lo, hi = g.levels[0], g.levels[-1]
    values = set(g.levels)
    count = g.level_count + rng.randint(1, 3)
    while len(values) < count:
        values.add(lo + (hi - lo) * Fraction(rng.randrange(1, 32), 32))
    return refine_to_levels(g, sorted(values))


def test_skeleton_decision_matches_oracle_across_level_sets(monkeypatch):
    """reeb_iso decides on skeletons, so it never refines its inputs.
    Generator graphs with merges of in-degree 2 and 3, graphs with extra
    sources, and graphs with random vertex and edge orders, sinks ranked on
    every third; partners are renamed copies, degree-preserving swaps,
    retargeted edges and copies with one interior level moved, and one side
    or the other is refined at one to three new levels or minimized.  The
    answer is the oracle's on every pair, and every positive answer expands
    into a witness over the refined pair, from whichever route decided,
    that verifies."""
    routes = Routes(monkeypatch)
    shapes = [(2, 1, 3, 2), (3, 2, 4, 2), (3, 2, 4, 3), (2, 3, 4, 3), (4, 2, 4, 3), (3, 3, 4, 2)]
    # Levels to spare leave regular-only levels for minimization to splice.
    shapes += [(2, 1, 5, 2), (2, 2, 6, 2), (3, 2, 6, 3)]
    rng = random.Random(1919)
    pairs = positive = verified = 0
    for seed in range(16):
        for n, s, lv, d in shapes:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            base = random_graph(spec)
            if sum(map(len, base.vertex_sets)) > 14:
                continue
            for kind in ("plain", "sources", "covers"):
                g = {
                    "plain": base,
                    "sources": add_sources(base, rng, rng.randint(1, 2)),
                    "covers": random_covers(base, rng),
                }[kind]
                ranks = None
                if seed % 3 == 0:
                    ranks = {v: rng.randrange(-1, 2) for v in g.vertex_ids() if g.outdeg(v) == 0}
                partners = [g, swap_lower_ends(g, rng), retarget_lower_end(g, rng)]
                partners.append(moved_level(g, rng))
                for partner in filter(None, partners):
                    a, b = g, rename_graph(partner)
                    if rng.random() < 0.5:
                        b = coarsened_or_refined(b, rng)
                    else:
                        a = coarsened_or_refined(a, rng)
                    ranks_b = renamed_ranks(ranks)
                    want = brute_force_iso(a, b, vertex_tags_a=ranks, vertex_tags_b=ranks_b)
                    got, witnesses = routes.decide(a, b, ranks, ranks_b)
                    assert got == want, (seed, n, s, kind)
                    if want:
                        (witness,) = witnesses
                        assert verify_witness(witness)
                        assert witness.source.levels == tuple(sorted({*a.levels, *b.levels}))
                        verified += 1
                    pairs += 1
                    positive += want
    assert (pairs, positive, verified) == (1577, 570, 570)
    assert routes.decided == {
        ("colour", True): 497, ("fingerprint", True): 73, ("fingerprint", False): 1
    }


DATA = Path(__file__).parent / "data"
STAR_RANKS = {f"x{i}": i for i in range(1, 5)}


def ranked_star(covers, on_edges=False):
    """A root over leaves x1..x4 (ranked 1..4 by STAR_RANKS), with ``covers``
    (pairs of leaf numbers) among the leaves, or among their edges e1..e4."""
    tag = "e" if on_edges else "x"
    order = [(f"{tag}{i}", f"{tag}{j}") for i, j in covers]
    return make_graph(
        [0, 1],
        [list(STAR_RANKS), ["r"]],
        [[(f"e{i}", f"x{i}", "r") for i in range(1, 5)]],
        vertex_covers=[[] if on_edges else order, []],
        edge_covers=[order if on_edges else []],
    )


@pytest.mark.parametrize("on_edges", [False, True])
def test_crossed_covers_fail_the_colour_check(monkeypatch, on_edges):
    """Covers {(x1, x2), (x3, x4)} against {(x1, x4), (x3, x2)}: every leaf
    keeps its rank and its order counts, so the prefilter passes and both
    graphs are certified, and only their certificates, the order pairs by
    name, tell the pair apart.  The same covers listed in another order are
    the same graph."""
    a = ranked_star([(1, 2), (3, 4)], on_edges)
    ranks_b = renamed_ranks(STAR_RANKS)
    routes = Routes(monkeypatch)
    for covers, want in (([(1, 4), (3, 2)], False), ([(3, 4), (1, 2)], True)):
        b = rename_graph(ranked_star(covers, on_edges))
        pair = isomorphism._refinements(a, b, STAR_RANKS, ranks_b)
        assert pair is not None and all(r.certified for r in pair)
        assert (pair[0].certificate == pair[1].certificate) is want
        assert brute_force_iso(a, b, vertex_tags_a=STAR_RANKS, vertex_tags_b=ranks_b) is want
        got, (witness,) = routes.decide(a, b, STAR_RANKS, ranks_b)
        assert got is want and (witness is not None) is want
        assert witness is None or verify_witness(witness)
    assert routes.decided == {("colour", False): 1, ("colour", True): 1}


def test_crossed_cover_pair_in_tests_data():
    """The crossed pair kept for the command line (see test_cli), with its
    ranks embedded, is the vertex-cover pair above."""
    (a, ranks_a), (b, ranks_b) = (
        load_text((DATA / f"crossed_covers_{side}.json").read_text()) for side in "ab"
    )
    assert ranks_a == STAR_RANKS and ranks_b == renamed_ranks(STAR_RANKS)
    assert a == ranked_star([(1, 2), (3, 4)])
    assert b == rename_graph(ranked_star([(1, 4), (3, 2)]))


def test_parallel_ordered_edges_take_the_fingerprint_route(monkeypatch):
    """Three parallel long edges, two of them ordered: one critical vertex
    per level leaves each name one vertex's, but the ordered edges cannot be
    told from their parallel twin by their ends, so neither graph is
    certified and the pair falls back to the fingerprints, which agree with
    the oracle."""
    def bigons(order):
        return make_graph(
            [0, 1, 2],
            [["x"], ["m"], ["t"]],
            [[("e", "x", "m")], [("f", "m", "t"), ("g", "m", "t"), ("h", "m", "t")]],
            edge_covers=[[], order],
        )

    forms = []
    original = isomorphism.canonical_form

    def recording(*args, **kwargs):
        forms.append(original(*args, **kwargs))
        return forms[-1]

    monkeypatch.setattr(isomorphism, "canonical_form", recording)
    routes = Routes(monkeypatch)
    a = bigons([("f", "g")])
    for b in (rename_graph(a), rename_graph(bigons([("h", "f")]))):
        pair = isomorphism._refinements(a, b, None, None)
        assert pair is not None and len(set(pair[0].names.values())) == len(pair[0].names)
        assert not any(r.certified for r in pair)
        got, (witness,) = routes.decide(a, b, None, None)
        assert got == brute_force_iso(a, b) is True
        assert verify_witness(witness)
    assert routes.decided == {("fingerprint", True): 2}
    assert len(forms) >= 4


def star_with_leaves(covers, tied_covers=(), ties=2, bigon=True, on_edges=False):
    """The ranked star's leaves x1..x4, with ``covers``, and ``ties``
    unranked leaves y1.. with ``tied_covers`` (among their edges cy1.. with
    ``on_edges``), all under the root r, which a bigon (or, without
    ``bigon``, one edge) joins to the top t."""
    order = [(f"x{i}", f"x{j}") for i, j in covers]
    tag = "cy" if on_edges else "y"
    tied_order = [(f"{tag}{i}", f"{tag}{j}") for i, j in tied_covers]
    ys = [f"y{i}" for i in range(1, ties + 1)]
    return make_graph(
        [0, 1, 2],
        [[*STAR_RANKS, *ys], ["r"], ["t"]],
        [
            [(f"e{i}", f"x{i}", "r") for i in range(1, 5)] + [(f"c{y}", y, "r") for y in ys],
            [("f", "r", "t"), ("g", "r", "t")] if bigon else [("f", "r", "t")],
        ],
        vertex_covers=[order + ([] if on_edges else tied_order), [], []],
        edge_covers=[tied_order if on_edges else [], []],
    )


def test_tied_leaves_of_a_network_take_the_colour_route(monkeypatch):
    """Unranked leaves y1, y2 under the root of a network: their colours
    tie, but they hang from the same parent and carry no relation, so
    exchanging them is an automorphism and the colour route pairs them, on
    a tree as on a network.  It still tells the crossed covers apart.  Tied
    leaves that carry covers, on themselves or on their edges, here
    {(y1, y2), (y3, y4)} against the crossed, isomorphic
    {(y1, y4), (y3, y2)}, would fail a pairing in skeleton order: they take
    the fingerprint route, which agrees with the oracle."""
    ranks_b = renamed_ranks(STAR_RANKS)
    a = star_with_leaves([(1, 2), (3, 4)])
    cases = [
        (a, star_with_leaves([(3, 4), (1, 2)]), True, True),
        (a, star_with_leaves([(1, 4), (3, 2)]), True, False),
        (
            star_with_leaves([], [(1, 2), (3, 4)], ties=4),
            star_with_leaves([], [(1, 4), (3, 2)], ties=4),
            False,
            True,
        ),
        (
            star_with_leaves([], [(1, 2), (3, 4)], ties=4, on_edges=True),
            star_with_leaves([], [(1, 4), (3, 2)], ties=4, on_edges=True),
            False,
            True,
        ),
        (star_with_leaves([], bigon=False), star_with_leaves([], bigon=False), True, True),
    ]
    routes = Routes(monkeypatch)
    for a, b, paired, want in cases:
        b = rename_graph(b)
        pair = isomorphism._refinements(a, b, STAR_RANKS, ranks_b)
        assert pair is not None and len(set(pair[0].names.values())) < len(pair[0].names)
        assert pair[0].certified is pair[1].certified is paired
        assert brute_force_iso(a, b, vertex_tags_a=STAR_RANKS, vertex_tags_b=ranks_b) is want
        got, (witness,) = routes.decide(a, b, STAR_RANKS, ranks_b)
        assert got is want and (witness is not None) is want
        assert witness is None or verify_witness(witness)
    assert routes.decided == {
        ("colour", True): 2, ("colour", False): 1, ("fingerprint", True): 2
    }


def crossed_copy(g, rng):
    """``g`` with two stored covers (x, y) and (x', y') of one vertex or edge
    order, on four distinct elements, turned into (x, y') and (x', y), where
    every element keeps its (below, above) counts but the generated order
    changes.  None when no crossing gives a valid graph."""
    crossings = [
        (kind, i, *pair)
        for kind in ("vertex_orders", "edge_orders")
        for i, o in enumerate(getattr(g, kind))
        for pair in itertools.combinations(sorted(o.covers), 2)
        if len({*pair[0], *pair[1]}) == 4
    ]
    rng.shuffle(crossings)
    for kind, i, (x, y), (u, w) in crossings:
        orders = getattr(g, kind)
        covers = orders[i].covers - {(x, y), (u, w)} | {(x, w), (u, y)}
        crossed = LevelPoset(orders[i].elements, covers)
        if crossed.has_cycle or _order_counts([crossed]) != _order_counts([orders[i]]):
            continue
        if isomorphism._strict_pairs(crossed) == isomorphism._strict_pairs(orders[i]):
            continue
        h = dataclasses.replace(g, **{kind: orders[:i] + (crossed,) + orders[i + 1 :]})
        if not validate(h):
            return h
    return None


def test_colour_route_matches_oracle_on_fully_ranked_pairs(monkeypatch):
    """Generator graphs with random vertex and edge covers and every sink
    ranked apart, so the colours are mostly discrete, against renamed
    copies, degree-preserving swaps and crossed copies (see crossed_copy).
    The answer is the oracle's on every pair, every positive carries a
    verified witness, and the colour route gives both answers."""
    routes = Routes(monkeypatch)
    shapes = [(3, 1, 3, 2), (4, 2, 4, 2), (4, 2, 4, 3), (5, 3, 5, 3), (3, 2, 4, 3), (6, 3, 5, 2)]
    rng = random.Random(3030)
    pairs = positive = verified = 0
    for seed in range(200):
        for n, s, lv, d in shapes:
            base = random_graph(
                GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            )
            if sum(map(len, base.vertex_sets)) > 16:
                continue
            g = random_covers(base, rng)
            sinks = sorted(v for v in g.vertex_ids() if g.outdeg(v) == 0)
            ranks = dict(zip(sinks, rng.sample(range(len(sinks)), len(sinks))))
            partners = [g, swap_lower_ends(g, rng), crossed_copy(g, rng)]
            for partner in filter(None, partners):
                b, ranks_b = rename_graph(partner), renamed_ranks(ranks)
                want = brute_force_iso(g, b, vertex_tags_a=ranks, vertex_tags_b=ranks_b)
                got, witnesses = routes.decide(g, b, ranks, ranks_b)
                assert got == want, (seed, n, s)
                if want:
                    (witness,) = witnesses
                    assert verify_witness(witness)
                    verified += 1
                pairs += 1
                positive += want
    assert (pairs, positive, verified) == (2062, 1152, 1152)
    assert routes.decided == {
        ("colour", True): 532, ("colour", False): 18, ("fingerprint", True): 620,
        ("fingerprint", False): 12,
    }


def test_dated_caterpillar_decides_on_its_critical_vertices(monkeypatch):
    """400 taxa at one time under a caterpillar: 80,200 vertices, one per
    lineage and level, of which 2 * 400 - 1 are critical.  reeb_iso pairs
    it with a renamed copy on the colour route, since the two tied leaves of
    its cherry are interchangeable, and builds no fingerprint; a fingerprint
    numbers the critical vertices alone.  A copy with one internal node
    moved half a unit is told apart before any fingerprint."""
    taxa = 400
    g = dated_caterpillar(taxa)
    assert sum(map(len, g.vertex_sets)) == taxa * (taxa + 1) // 2
    assert len(g._skeleton.vertex_level) == 2 * taxa - 1
    forms = []
    original = isomorphism.canonical_form

    def recording(*args, **kwargs):
        forms.append(original(*args, **kwargs))
        return forms[-1]

    monkeypatch.setattr(isomorphism, "canonical_form", recording)
    assert reeb_iso(g, rename_graph(g)) is True
    assert forms == []
    assert len(isomorphism.canonical_form(g)._vertices) == 2 * taxa - 1
    forms.clear()
    assert reeb_iso(g, rename_graph(dated_caterpillar(taxa, moved=taxa // 2))) is False
    assert forms == []


def swap_forest(g, rng):
    """Exchange the lower endpoints of two edges of one gap, with no check of
    connectivity: a forest with trivial edge orders stays a forest with one
    arriving edge per vertex.  None when no gap offers such a pair."""
    for _ in range(30):
        i = rng.randrange(g.gap_count)
        if len(g.edge_sets[i]) < 2:
            continue
        e, f = rng.sample(sorted(g.edge_sets[i]), 2)
        down = dict(g.down_maps[i])
        if down[e] == down[f] or g.up_maps[i][e] == g.up_maps[i][f]:
            continue
        down[e], down[f] = down[f], down[e]
        return dataclasses.replace(g, down_maps=g.down_maps[:i] + (down,) + g.down_maps[i + 1 :])
    return None


def test_forest_fingerprints_match_oracle():
    """Factors of graphs with several sources are forests.  Their
    fingerprints, with cut leaves tagged, are equal exactly when the oracle
    finds an isomorphism with the same tags: against renamed copies of every
    factor of the graph, and against swaps."""
    rng = random.Random(31)
    outcomes = []
    for seed in range(25):
        for n, s, lv, d in [(2, 1, 3, 2), (3, 2, 4, 3), (3, 2, 3, 2), (4, 3, 5, 3)]:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            g = add_sources(random_graph(spec), rng, rng.randint(1, 2))
            factors = [apply_choice(g, c) for c in enumerate_choices(g)][:4]
            renamed = [
                (rename_graph(h.graph), renamed_ranks(dict.fromkeys(h.cut_vertices, -2)))
                for h in factors
            ]
            for f in factors:
                tags = dict.fromkeys(f.cut_vertices, -2)
                partners = list(renamed)
                swapped = swap_forest(f.graph, rng)
                if swapped is not None:
                    partners.append((swapped, tags))
                form = canonical_form(f.graph, leaf_ranks=tags)
                for h, tags_h in partners:
                    want = brute_force_iso(f.graph, h, vertex_tags_a=tags, vertex_tags_b=tags_h)
                    assert (canonical_form(h, leaf_ranks=tags_h) == form) == want
                    outcomes.append(want)
    assert (outcomes.count(True), outcomes.count(False)) == (928, 1048)


def cherries(k, cover):
    """A root over k cherries on three levels, with one vertex cover between
    two of the 2k leaves."""
    return make_graph(
        [0, 1, 2],
        [[f"{s}{i}" for i in range(k) for s in "xy"], [f"c{i}" for i in range(k)], ["r"]],
        [
            [(f"{s}e{i}", f"{s}{i}", f"c{i}") for i in range(k) for s in "xy"],
            [(f"f{i}", f"c{i}", "r") for i in range(k)],
        ],
        vertex_covers=[[cover], [], []],
    )


@pytest.mark.parametrize("k", [4, 6, 50, 200])
def test_ordered_cherries_need_no_search(k):
    """A cover inside a cherry is told from one across two cherries, and
    matched with one inside another cherry, within a budget of 100."""
    inside = cherries(k, ("x0", "y0"))
    assert not reeb_iso(inside, cherries(k, ("y0", "x1")), budget=100)
    assert reeb_iso(inside, cherries(k, ("x1", "y1")), budget=100)


def test_cut_leaves_match_only_cut_leaves():
    """In a, merge vertex m's cut leaf sits above t in m's cover (m, t); in b
    the edge from q to t is a real edge.  On uniform colours, which rule no
    factor out, only the cut leaves' tag keeps the input cover (m, t) from
    passing for a cut."""
    def graph(edges):
        return make_graph(
            [0, 1, 2],
            [["m", "t", "u"], ["k", "p", "q"], ["root"]],
            [
                [(f"{lo}{hi}{i}", lo, hi) for i, (lo, hi) in enumerate(edges)],
                [(f"f{x}", x, "root") for x in "kpq"],
            ],
            vertex_covers=[[("m", "t")], [], []],
        )

    a = graph([("m", "k"), ("m", "q"), ("t", "p"), ("u", "p")])
    b = graph([("m", "k"), ("m", "p"), ("t", "q"), ("u", "p")])
    assert validate(a) == validate(b) == []
    assert not brute_force_iso(a, b)
    ra, rb = (isomorphism._Refinement(g, None) for g in (a, b))
    for r in (ra, rb):
        r.names = dict.fromkeys(r.names, 0)
    assert isomorphism._factor_match(ra, rb, None) is None


def test_refined_count_mismatch_refines_nothing(monkeypatch):
    """Here a keeps one edge over the level that b inserts into its
    two-edge gap.  reeb_iso refines nothing at all: it compares skeletons.
    brute_force_iso refines the pair once and rejects it on the refined
    counts."""
    calls = []
    refine = isomorphism.common_refinement

    def counting(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(isomorphism, "common_refinement", counting)
    a = make_graph(
        [0, 1, 3],
        [["x", "y"], ["m"], ["t"]],
        [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
    )
    b = make_graph(
        [0, 2, 3],
        [["x", "y"], ["m"], ["t"]],
        [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
    )
    assert not reeb_iso(a, b)
    assert calls == []
    assert not brute_force_iso(a, b)
    assert calls == [(a, b)]
    calls.clear()
    assert reeb_iso(a, refine_to_levels(a, [0, 1, 2, 3]))
    assert calls == []


def search_outcome(search, pre, budget):
    try:
        return search(pre, budget)
    except SizeLimitExceeded as exc:
        return str(exc)


def test_search_matches_the_recursive_search():
    """The explicit-stack search gives the recursive one's answer, and runs
    out of budget exactly where it did, on generator pairs, ordered random
    trees and crown stars."""
    rng = random.Random(77)
    pairs = []
    for g in corpus(SAFE_SHAPES[:6], range(4), max_indeg=3):
        pairs.append((g, rename_graph(g), None, None))
        swapped = swap_lower_ends(g, rng)
        if swapped is not None:
            pairs.append((g, rename_graph(swapped), None, None))
    for i in range(120):
        pairs.append((crown_star_pair if i % 4 == 3 else random_tree_pair)(rng))
    outcomes = []
    for a, b, tags_a, tags_b in pairs:
        pre = isomorphism._prefilter(a, b, tags_a, tags_b)
        if pre is None:
            continue
        for budget in (1, 4, 16, 64, 256, None):
            want = search_outcome(reference_search, pre, budget)
            assert search_outcome(isomorphism._search, pre, budget) == want
            outcomes.append(want)
    limits = sum(isinstance(x, str) for x in outcomes)
    assert (outcomes.count(True), outcomes.count(False), limits) == (336, 23, 211)


def reference_search(pre: tuple[ReebGraph, ReebGraph, tuple, tuple], budget: int | None) -> bool:
    """The recursive backtracking that the explicit-stack search replaced,
    kept verbatim but for the module-qualified helpers: one Python frame per
    placed vertex and edge."""
    ra, rb, (vinv_a, einv_a), (vinv_b, einv_b) = pre
    k = ra.level_count

    nodes_left = [isomorphism._budget(budget)]
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    used_v: set[str] = set()
    used_e: set[str] = set()
    placed_v: dict[int, list[str]] = defaultdict(list)
    placed_e: dict[int, list[str]] = defaultdict(list)

    def rel(poset: LevelPoset, x: str, y: str) -> tuple[bool, bool]:
        return (poset.leq(x, y), poset.leq(y, x))

    def vertex_order_ok(i: int, x: str, y: str) -> bool:
        pa, pb = ra.vertex_orders[i], rb.vertex_orders[i]
        for x2 in placed_v[i]:
            if rel(pa, x, x2) != rel(pb, y, vmap[x2]):
                return False
        return True

    def edge_order_ok(i: int, e: str, e2: str) -> bool:
        pa, pb = ra.edge_orders[i], rb.edge_orders[i]
        for e3 in placed_e[i]:
            if rel(pa, e, e3) != rel(pb, e2, emap[e3]):
                return False
        return True

    def spend() -> None:
        nodes_left[0] -= 1
        if nodes_left[0] < 0:
            raise SizeLimitExceeded(
                f"isomorphism search budget of {isomorphism._budget(budget)} nodes exhausted"
            )

    def place_vertex(i: int, x: str, y: str) -> bool:
        if vinv_a[x] != vinv_b[y] or y in used_v:
            return False
        if not vertex_order_ok(i, x, y):
            return False
        vmap[x] = y
        used_v.add(y)
        placed_v[i].append(x)
        return True

    def unplace_vertex(i: int, x: str) -> None:
        used_v.discard(vmap.pop(x))
        placed_v[i].pop()

    def final_check() -> bool:
        for i in range(k):
            if not isomorphism._orders_equivalent(ra.vertex_orders[i], rb.vertex_orders[i], vmap):
                return False
        for i in range(ra.gap_count):
            if not isomorphism._orders_equivalent(ra.edge_orders[i], rb.edge_orders[i], emap):
                return False
        return True

    slots: list[tuple[str, int]] = []
    for i in range(k):
        slots.append(("V", i))
        if i < k - 1:
            slots.append(("E", i))

    def run_slot(si: int) -> bool:
        if si == len(slots):
            return final_check()
        kind, i = slots[si]
        if kind == "V":
            return fill_vertices(i, si)
        return fill_edges(i, si)

    def fill_vertices(i: int, si: int) -> bool:
        pend = [x for x in sorted(ra.vertex_sets[i]) if x not in vmap]
        if not pend:
            return run_slot(si + 1)
        x = pend[0]
        for y in sorted(rb.vertex_sets[i]):
            spend()
            if not place_vertex(i, x, y):
                continue
            if fill_vertices(i, si):
                return True
            unplace_vertex(i, x)
        return False

    def fill_edges(i: int, si: int) -> bool:
        pend = [e for e in sorted(ra.edge_sets[i]) if e not in emap]
        if not pend:
            return run_slot(si + 1)
        e = pend[0]
        want_down = vmap[ra.down_maps[i][e]]
        u = ra.up_maps[i][e]
        for e2 in sorted(rb.edge_sets[i]):
            spend()
            if e2 in used_e or einv_a[e] != einv_b[e2]:
                continue
            if rb.down_maps[i][e2] != want_down:
                continue
            if not edge_order_ok(i, e, e2):
                continue
            u2 = rb.up_maps[i][e2]
            forced = False
            if u in vmap:
                if vmap[u] != u2:
                    continue
            else:
                if not place_vertex(i + 1, u, u2):
                    continue
                forced = True
            emap[e] = e2
            used_e.add(e2)
            placed_e[i].append(e)
            if fill_edges(i, si):
                return True
            placed_e[i].pop()
            used_e.discard(e2)
            del emap[e]
            if forced:
                unplace_vertex(i + 1, u)
        return False

    return run_slot(0)


def reference_skeleton_prefilter(
    a: ReebGraph,
    b: ReebGraph,
    tags_a: Mapping[str, int] | None,
    tags_b: Mapping[str, int] | None,
) -> tuple[ReebGraph, ReebGraph, dict[str, tuple], dict[str, tuple]] | None:
    """reeb_iso's prefilter, on the two skeletons.  Checks the level range,
    then compares the critical vertices per level value, the long edges
    keyed by the values of their ends (and their edge-order counts), and the
    critical vertices' colours: (skeleton level, indegree, outdegree,
    elements below, elements above, sink tag).  Returns (a, b, colours_a,
    colours_b), or None when the pair cannot be isomorphic.

    Refinement copies an edge's order onto every level it inserts into the
    edge's gap, as a vertex order, so those levels hold critical vertices;
    a pair on different level sets whose edge orders are not all trivial is
    refined to the union of its levels first, and returned refined."""
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        return None
    if any(o.covers for g in (a, b) for o in g.edge_orders) and a.levels != b.levels:
        union = sorted(set(a.levels) | set(b.levels))
        a, b = refine_to_levels(a, union), refine_to_levels(b, union)
    sa, sb = a._skeleton, b._skeleton
    if sa.levels != sb.levels:
        return None
    if Counter(sa.vertex_level.values()) != Counter(sb.vertex_level.values()):
        return None

    def long_edges(graph: ReebGraph) -> list[tuple[int, ...]]:
        sk = graph._skeleton
        rel, lvl = _order_counts(graph.edge_orders), sk.vertex_level
        return sorted(
            (lvl[u], lvl[w], *rel.get(e, (0, 0))) for u, ds in sk.down.items() for w, e in ds
        )

    if long_edges(a) != long_edges(b):
        return None

    def colours(graph: ReebGraph, tags: Mapping[str, int] | None) -> dict[str, tuple]:
        sk, tags = graph._skeleton, tags or {}
        rel = _order_counts(graph.vertex_orders)
        return {
            v: (
                i, len(sk.up[v]), len(sk.down[v]), *rel.get(v, (0, 0)),
                -1 if sk.down[v] else tags.get(v, -1),
            )
            for v, i in sk.vertex_level.items()
        }

    ca, cb = colours(a, tags_a), colours(b, tags_b)
    if sorted(ca.values()) != sorted(cb.values()):
        return None
    return a, b, ca, cb


def reference_stable_colours(
    pre: tuple[ReebGraph, ReebGraph, dict[str, tuple], dict[str, tuple]]
) -> tuple[dict[str, object], dict[str, object]] | None:
    """Colour refinement of a prefiltered pair's skeletons, one palette for
    both sides.

    Starting from the prefilter's colours, sweeps run up the skeleton's
    levels, each critical vertex taking the colours of the lower ends of its
    long edges, then down the levels with the upper ends, until a round
    splits no class; the order of sweeps does not change the stable
    partition.  Every isomorphism preserves the colours after each sweep, so
    None is returned as soon as a swept level's colour counts differ between
    the sides; otherwise the colours of both sides' critical vertices."""
    skeletons = [g._skeleton for g in pre[:2]]
    cols: list[dict[str, object]] = [dict(c) for c in pre[2:]]
    k = len(skeletons[0].levels)
    rows = []  # per side, the critical vertices of each skeleton level
    for sk in skeletons:
        row: list[list[str]] = [[] for _ in range(k)]
        for v, i in sk.vertex_level.items():
            row[i].append(v)
        rows.append(row)

    def sweep(i: int, lower: bool) -> int | None:
        """Recolour level i on both sides; return its number of classes, or
        None when the two sides' colour counts there differ.  A colour is
        (level, class), so colours of different levels never meet."""
        sigs = []
        for sk, col, row in zip(skeletons, cols, rows):
            ends = sk.down if lower else sk.up
            sigs.append({v: (col[v], tuple(sorted([col[w] for w, _ in ends[v]]))) for v in row[i]})
        rank = {c: (i, n) for n, c in enumerate(sorted({*sigs[0].values(), *sigs[1].values()}))}
        for col, sig in zip(cols, sigs):
            for v, c in sig.items():
                col[v] = rank[c]
        count_a, count_b = (sorted(map(rank.__getitem__, sig.values())) for sig in sigs)
        return len(rank) if count_a == count_b else None

    # A sweep reads its own level and the levels on one side of it, and
    # refinement only adds classes, so a sweep is skipped when no level it
    # reads has split since it last ran (its own split at that run needs no
    # second run); the colours are stable once a round splits no level.
    order = [(i, True) for i in range(k)] + [(i, False) for i in range(k - 1, -1, -1)]
    classes = [0] * k
    split = [0] * k  # when each level last gained classes
    ran: dict[tuple[int, bool], int] = {}
    clock = 0
    while True:
        start = clock
        for i, lower in order:
            if ran.get((i, lower), -1) >= max(split[: i + 1] if lower else split[i:]):
                continue
            clock += 1
            n = sweep(i, lower)
            if n is None:
                return None
            ran[i, lower] = clock
            if n != classes[i]:
                classes[i], split[i] = n, clock
        if max(split) <= start:
            return cols[0], cols[1]


def one_level_refinement(g, rng):
    """``g`` refined at one new value strictly inside its level range."""
    lo, hi = g.levels[0], g.levels[-1]
    while True:
        value = lo + (hi - lo) * Fraction(rng.randrange(1, 16), 16)
        if value not in g.levels:
            return refine_to_levels(g, sorted([*g.levels, value]))


def test_skeleton_prefilter_matches_the_two_stage_reference():
    """The two graphs' refinements, run in lockstep, reject exactly the pairs
    that the former prefilter (per-level counts, long edges, colours) and
    the colour refinement in one palette rejected between them.  Generator
    graphs (s = 0..3, merges of in-degree 2 and 3), ordered copies and
    copies with extra sources, sinks ranked on every other graph; partners
    are renamed copies, copies with covers drawn afresh and
    degree-preserving swaps, each also refined at one new level."""
    shapes = [
        (2, 0, 3, 2),
        (3, 0, 4, 3),
        (2, 1, 3, 2),
        (3, 1, 4, 3),
        (3, 2, 4, 2),
        (3, 2, 4, 3),
        (4, 3, 5, 3),
        (2, 3, 4, 3),
    ]
    rng = random.Random(2424)
    pairs = rejected = graphs = 0
    for seed in range(20):
        for n, s, lv, d in shapes:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            base = random_graph(spec)
            for kind in ("plain", "covers", "sources"):
                g = {
                    "plain": base,
                    "covers": random_covers(base, rng),
                    "sources": add_sources(base, rng, rng.randint(1, 2)),
                }[kind]
                graphs += 1
                ranks = None
                if graphs % 2:
                    ranks = {v: rng.randrange(-1, 2) for v in g.vertex_ids() if g.outdeg(v) == 0}
                partners = [g, swap_lower_ends(g, rng)]
                if kind == "covers":
                    partners.append(random_covers(base, rng))
                for partner in filter(None, partners):
                    for b in (partner, one_level_refinement(partner, rng)):
                        b = rename_graph(b)
                        for x, y, tx, ty in ((g, b, ranks, renamed_ranks(ranks)),
                                             (b, g, renamed_ranks(ranks), ranks)):
                            ref = reference_skeleton_prefilter(x, y, tx, ty)
                            want = ref is None or reference_stable_colours(ref) is None
                            got = isomorphism._refinements(x, y, tx, ty) is None
                            assert got == want, (seed, n, s, kind)
                            pairs += 1
                            rejected += got
    assert (pairs, rejected) == (4044, 1580)


@pytest.mark.parametrize("style", ["rename_graph", "shuffle_ids"])
def test_refinement_names_do_not_depend_on_ids(style):
    """A graph and its renamed copy, under a fixed or a random id bijection,
    get equal steps, names that correspond through the renaming, and equal
    certificates.  Generator graphs (s = 0..3, merges of in-degree 2 and 3),
    with random covers, with extra sources, or with both, sinks ranked on
    every other graph."""
    shapes = [(2, 0, 3, 2), (3, 1, 4, 3), (3, 2, 4, 2), (4, 3, 5, 3), (2, 3, 4, 3)]
    rng, ids_rng = random.Random(4646), random.Random(47)
    graphs = certified = 0
    for seed in range(24):
        for n, s, lv, d in shapes:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            base = random_graph(spec)
            for kind in ("covers", "sources", "both"):
                plain = base if kind == "covers" else add_sources(base, rng, rng.randint(1, 2))
                g = plain if kind == "sources" else random_covers(plain, rng)
                ranks = None
                if graphs % 2:
                    ranks = {v: rng.randrange(-1, 2) for v in g.vertex_ids() if g.outdeg(v) == 0}
                if style == "rename_graph":
                    h, ids = rename_graph(g), {v: "z" + v[::-1] for v in g.vertex_level}
                else:
                    h, ids = shuffle_ids(g, ids_rng)
                ranks_h = ranks and {ids[v]: r for v, r in ranks.items()}
                ra, rb = isomorphism._Refinement(g, ranks), isomorphism._Refinement(h, ranks_h)
                assert list(ra.steps()) == list(rb.steps())
                assert {ids[v]: name for v, name in ra.names.items()} == rb.names
                assert ra.certified == rb.certified
                assert ra.certificate == rb.certificate
                graphs += 1
                certified += ra.certified
    assert (graphs, certified) == (360, 244)


def test_decomposition_invariant_agrees_with_reeb_iso():
    """The invariant lists the skeleton's level values, so it is equal
    exactly where reeb_iso finds an isomorphism of the pair refined to
    common levels.  Generator graphs (merges of in-degree 2 and 3, some
    with levels to spare) against renamed copies, renamed copies minimized
    or refined at one to three new levels, degree-preserving swaps and the
    graph of another seed; sinks ranked on every other graph."""
    shapes = [
        (2, 1, 3, 2),
        (3, 2, 4, 2),
        (3, 2, 4, 3),
        (2, 3, 4, 3),
        (4, 2, 4, 3),
        (3, 3, 4, 2),
        (2, 1, 5, 2),
        (2, 2, 6, 2),
        (3, 2, 6, 3),
    ]
    rng = random.Random(2525)
    pairs = positive = refined = 0
    for seed in range(27):
        for n, s, lv, d in shapes:
            g, other = (
                random_graph(GeneratorSpec(seed=x, n_leaves=n, betti=s, levels=lv, max_indeg=d))
                for x in (seed, seed + 100)
            )
            ranks = ranks_other = None
            if (seed + n) % 2:
                sinks = [v for v in g.vertex_ids() if g.outdeg(v) == 0]
                ranks = {v: rng.randrange(len(sinks)) for v in sinks}
                ranks_other = {
                    v: rng.randrange(len(sinks)) for v in other.vertex_ids() if other.outdeg(v) == 0
                }
            copy = rename_graph(g)
            partners = [
                (copy, renamed_ranks(ranks)),
                (coarsened_or_refined(copy, rng), renamed_ranks(ranks)),
                (swap_lower_ends(g, rng), ranks),
                (other, ranks_other),
            ]
            invariant = decomposition_invariant(g, leaf_ranks=ranks)
            for b, ranks_b in partners:
                if b is None:
                    continue
                same = decomposition_invariant(b, leaf_ranks=ranks_b) == invariant
                want = reeb_iso(g, b, leaf_ranks_a=ranks, leaf_ranks_b=ranks_b)
                assert same == want, (seed, n, s)
                pairs += 1
                positive += want
                refined += want and b.levels != g.levels
    assert (pairs, positive, refined) == (928, 552, 201)


def test_cut_views_give_cut_leaves_the_factor_graphs_order_pairs():
    """A factor of an ordered graph cut as a view of the skeleton gives each
    cut leaf the generated order pairs that apply_choice's factor graph gives
    it, on every factor of ordered generator graphs."""
    rng = random.Random(909)
    factors = leaves = 0
    for seed in range(150):
        for n, s, lv, d in [(3, 1, 3, 2), (3, 2, 4, 3), (4, 2, 4, 2), (4, 3, 5, 3)]:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv, max_indeg=d)
            g = random_covers(random_graph(spec), rng)
            sk = g._skeleton
            whole = isomorphism._skeleton_view(g, sk.levels, sk.vertex_level)
            options = cut_options(g)
            names = decomposition._cut_leaves(g, options)
            for choice in enumerate_choices(g):
                factor = apply_choice(g, choice)
                detached = decomposition._cuts(names, choice.kept_map)
                cut = isomorphism._cut(whole, g, detached)
                for leaf in factor.cut_vertices:
                    order = factor.graph.vertex_orders[factor.graph.vertex_level[leaf]]
                    want = {p for p in isomorphism._strict_pairs(order) if leaf in p}
                    assert {p for p in cut.vertex_pairs if leaf in p} == want, (seed, n, s)
                    leaves += 1
                factors += 1
    assert (factors, leaves) == (2413, 5508)
