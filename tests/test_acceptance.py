"""Acceptance gate: one test per shipped criterion, in order.

Each test prints a single "criterion N: PASS (...)" line on success (visible
with -s or -rA); a failing criterion shows up as a plain pytest failure.
Timed criteria measure wall-clock time on the spot.  Deep and long eNewick
inputs are checked beside criterion 10 (parsing, writing, vectors and
isomorphism), without any time bound.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from reebtrees import (
    GeneratorSpec,
    PositionedError,
    TimeInconsistency,
    apply_choice,
    betti_euler,
    betti_reticulation,
    brute_force_iso,
    build_dag_view,
    canonical_form,
    cophenetic_vector,
    decompose,
    enumerate_choices,
    factor_count,
    glue_back,
    hausdorff_distance,
    lp_distance,
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

from conftest import SAFE_SHAPES, chain_with_bigons, rename_graph

CORPUS_DIR = Path(__file__).parent / "data" / "newick_corpus"

F = Fraction

_corpus_cache: list = []


def corpus_graphs():
    """1000 seeded graphs shared by the corpus criteria (built once)."""
    if not _corpus_cache:
        for seed in range(125):
            for n, s, lv in SAFE_SHAPES:
                _corpus_cache.append(
                    random_graph(GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv))
                )
    return _corpus_cache


def leaf_count(g):
    return sum(1 for v in g.vertex_ids() if g.outdeg(v) == 0)


def note(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def four_leaf_cycle():
    return make_graph(
        [0, 1, 2, 3],
        [["l2", "l3", "l4"], ["r", "l1"], ["a", "b"], ["w"]],
        [
            [("e1", "l2", "r"), ("e2", "l3", "r"), ("e3", "l4", "r")],
            [("e5", "r", "a"), ("e6", "r", "b"), ("e4", "l1", "b")],
            [("e7", "a", "w"), ("e8", "b", "w")],
        ],
    )


def bottom_merge_leaf():
    return make_graph(
        [0, 1],
        [["r"], ["u"]],
        [[("e1", "r", "u"), ("e2", "r", "u"), ("e3", "r", "u")]],
    )


def timed(fn, repeats=5):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_01_one_cycle_splits_into_two_five_leaf_trees():
    g = four_leaf_cycle()
    decompose(g)  # warm caches before timing
    dec, seconds = timed(lambda: decompose(four_leaf_cycle()))
    assert len(dec.factors) == 2
    for f in dec.factors:
        assert leaf_count(f.graph) == 5
        assert betti_euler(f.graph) == 0
    assert sorted(sorted(f.detached) for f in dec.factors) == [["e5"], ["e6"]]
    assert seconds < 0.010
    note(1, f"2 factors, 5 leaves each, {seconds * 1000:.2f} ms")


def test_criterion_02_two_cycle_bouquet_factor_shape():
    g = bottom_merge_leaf()
    decompose(g)
    dec, seconds = timed(lambda: decompose(bottom_merge_leaf()))
    assert len(dec.factors) == 3
    assert seconds < 0.010
    # The paper's n + s leaves per factor: n sinks by leaf_count, s by betti_euler.
    expected = leaf_count(g) + betti_euler(g)
    for f in dec.factors:
        assert leaf_count(f.graph) == expected
    note(2, f"3 factors, {expected} leaves each, {seconds * 1000:.2f} ms")


def test_criterion_03_cycle_rank_formulas_agree_on_corpus():
    _corpus_cache.clear()
    start = time.perf_counter()
    graphs = corpus_graphs()
    for g in graphs:
        assert betti_euler(g) == betti_reticulation(g)
    seconds = time.perf_counter() - start
    assert len(graphs) >= 1000
    assert seconds < 5.0
    note(3, f"{len(graphs)} graphs, {seconds:.2f} s")


def test_criterion_04_factor_count_is_indegree_product():
    checked = 0
    for g in corpus_graphs():
        betti = build_dag_view(g)
        product = 1
        merges = 0
        for v in g.vertex_ids():
            d = g.indeg(v)
            if d >= 2:
                product *= d
                merges += d - 1
        assert factor_count(g) == product
        # The corpus is generated with merge width 2, so the product
        # collapses to a power of two with exponent the cycle rank.
        assert product == 2 ** betti
        checked += 1
    assert checked >= 1000
    note(4, f"{checked} graphs, counts match the in-degree product")


def test_criterion_05_every_factor_glues_back_exactly():
    factors = 0
    for g in corpus_graphs():
        for f in decompose(g).factors:
            assert glue_back(f) == g
            factors += 1
    assert factors >= 1000
    note(5, f"{factors} factors re-glued id-for-id")


def _perturb(g, rng):
    """Retarget one bottom attachment inside its level; None if the result
    is not a valid graph."""
    gap = rng.randrange(g.gap_count)
    edges = sorted(g.edge_sets[gap])
    e = rng.choice(edges)
    candidates = sorted(g.vertex_sets[gap])
    old = g.down_maps[gap][e]
    choices = [v for v in candidates if v != old]
    if not choices:
        return None
    new_down = [dict(m) for m in g.down_maps]
    new_down[gap][e] = rng.choice(choices)
    out = dataclasses.replace(g, down_maps=tuple(new_down))
    if validate(out):
        return None
    return out


def test_criterion_06_decision_procedure_matches_oracle():
    rng = random.Random(20240817)
    small_shapes = [(1, 1, 2), (2, 0, 3), (2, 1, 3), (4, 2, 2), (2, 1, 4), (3, 3, 3)]
    pool = []
    seed = 0
    while len(pool) < 240 and seed < 400:
        for shape in small_shapes:
            n, s, lv = shape
            try:
                g = random_graph(GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=lv))
            except Exception:
                continue
            if sum(len(vs) for vs in g.vertex_sets) <= 10:
                pool.append(g)
        seed += 1
    assert len(pool) >= 240

    pairs = []
    for g in pool:  # renamed copies: positives
        pairs.append((g, rename_graph(g)))
    for i in range(len(pool)):  # cross pairs: mostly negatives
        pairs.append((pool[i], pool[(i * 7 + 3) % len(pool)]))
    tries = 0
    while sum(1 for _ in pairs) < 1000 and tries < 4000:
        tries += 1
        g = rng.choice(pool)
        mutated = _perturb(g, rng)
        if mutated is not None:
            pairs.append((g, mutated))
    assert len(pairs) >= 1000

    start = time.perf_counter()
    agreements = 0
    for a, b in pairs:
        assert reeb_iso(a, b) == brute_force_iso(a, b)
        agreements += 1
    seconds = time.perf_counter() - start
    assert seconds < 60.0
    note(6, f"{agreements} pairs, full agreement, {seconds:.1f} s")


def _work(g):
    build_dag_view(g)
    first_choice = next(iter(enumerate_choices(g)))
    factor = apply_choice(g, first_choice)
    size = sum(len(vs) for vs in factor.graph.vertex_sets) + sum(
        len(es) for es in factor.graph.edge_sets
    )
    return factor_count(g) * size


def test_criterion_07_work_scales_with_two_power_s_and_size():
    per_2s = []
    for s in range(1, 7):
        g = chain_with_bigons(40, s)
        assert betti_euler(g) == s
        per_2s.append(_work(g) / 2**s)
    assert max(per_2s) / min(per_2s) <= 2.0

    per_v = []
    for levels in (20, 65, 110, 155, 200):
        g = chain_with_bigons(levels, 2)
        n_v = sum(len(vs) for vs in g.vertex_sets)
        assert n_v == levels
        per_v.append(_work(g) / n_v)
    assert max(per_v) / min(per_v) <= 2.0

    # The metric reflects a procedure that actually decides isomorphism.
    for levels, s in ((40, 3), (110, 2)):
        g = chain_with_bigons(levels, s)
        assert reeb_iso(g, rename_graph(g))
    assert not reeb_iso(chain_with_bigons(40, 2), chain_with_bigons(40, 3))
    note(7, f"2^s ratio spread {max(per_2s) / min(per_2s):.3f}, "
            f"size ratio spread {max(per_v) / min(per_v):.3f}")


def test_criterion_08_dated_example_distances(net_a, net_b, ranks_a, ranks_b):
    dec_a = decompose(net_a)
    dec_b = decompose(net_b)
    t1, t2 = (
        cophenetic_vector(f, ranks=ranks_a, time_mode="-f") for f in dec_a.factors
    )
    t3, t4 = (
        cophenetic_vector(f, ranks=ranks_b, time_mode="-f") for f in dec_b.factors
    )
    assert t1.entries == (F(7), F(3), F(1), F(4), F(1), F(4))
    assert t2.entries == (F(7), F(1), F(1), F(4), F(3), F(4))
    assert t3.entries == (F(4), F(3), F(1), F(7), F(1), F(4))
    assert t4.entries == (F(4), F(1), F(3), F(7), F(1), F(4))
    for u in (t1, t2):
        for v in (t3, t4):
            assert lp_distance(u, v, "inf") == F(3)
    assert hausdorff_distance([t1, t2], [t3, t4], "inf") == F(3)
    d = network_distance(
        net_a, net_b, p="inf", ranks_a=ranks_a, ranks_b=ranks_b, time_mode="-f"
    )
    assert d == F(3)
    note(8, "four sup distances and the set distance all equal 3 exactly")


def test_criterion_09_flat_branch_rejected_with_position():
    with pytest.raises(TimeInconsistency) as info:
        parse_enewick("((x3#H1:0)x2:1,x3#H1:1)x1;")
    err = info.value
    assert "branch length must be positive" in str(err)
    assert (err.line, err.col) == (1, 9)
    note(9, "zero-length branch rejected at line 1, col 9")


def test_criterion_10_parser_round_trip_and_fuzz():
    files = sorted(CORPUS_DIR.glob("*.enwk"))
    assert len(files) == 50
    for path in files:
        text = path.read_text().strip()
        net = parse_enewick(text)
        out = write_enewick(net)
        assert out == text
        again = parse_enewick(out)
        assert again.root == net.root
        assert dict(again.times) == dict(net.times)
        assert sorted(again.edges) == sorted(net.edges)

    rng = random.Random(987654321)
    alphabet = list("()#H:;,.0123456789ABxyz_- \n\t@[]")
    corpus_texts = [p.read_text().strip() for p in files]
    crashes = []
    for i in range(10_000):
        if i % 2 == 0:
            s = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 50)))
        else:
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
            s = "".join(s)
        try:
            parse_enewick(s)
        except PositionedError as exc:
            assert exc.line >= 1 and exc.col >= 1
        except Exception as exc:  # anything unpositioned is a crash
            crashes.append((repr(s), repr(exc)))
    assert not crashes, crashes[:5]
    note(10, "50-file fixed point, 10000 fuzz inputs, no crashes")


def deep_caterpillar(depth: int) -> str:
    """``depth`` nested parentheses: (((t0:1,t1:0.5)i1:1,t2:0.5)i2:1,...)."""
    text = "t0"
    for k in range(1, depth + 1):
        text = f"({text}:1,t{k}:0.5)i{k}"
    return text + ";"


def long_comb(taxa: int) -> str:
    """One root over ``taxa`` leaves, names in the order the writer uses."""
    lengths = ("1", "1.5", "2")
    return "(" + ",".join(f"t{k:04d}:{lengths[k % 3]}" for k in range(taxa)) + ")r;"


def test_deep_and_long_round_trip():
    for text, taxa in ((deep_caterpillar(2000), 2001), (long_comb(2000), 2000)):
        net = parse_enewick(text)
        assert write_enewick(net) == text
        graph = network_to_reeb(net)
        assert validate(graph) == []
        again = network_to_reeb(parse_enewick(write_enewick(reeb_to_network(graph))))
        assert again == graph
        assert len(cophenetic_vector(graph).entries) == taxa * (taxa + 1) // 2


def test_deep_and_long_damage_gives_positioned_errors():
    rng = random.Random(20261018)
    for text in (deep_caterpillar(2000), long_comb(2000)):
        for cut in rng.sample(range(len(text)), 8):
            with pytest.raises(PositionedError) as info:
                parse_enewick(text[:cut])
            assert info.value.line >= 1 and info.value.col >= 1
        for _ in range(8):
            at = rng.randrange(len(text) + 1)
            damaged = text[:at] + rng.choice("(),:;#H.x ") + text[at:]
            try:
                parse_enewick(damaged)
            except PositionedError as exc:
                assert exc.line >= 1 and exc.col >= 1


def test_deep_caterpillar_validates_on_the_command_line(tmp_path):
    path = tmp_path / "deep.enwk"
    path.write_text(deep_caterpillar(2000) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-m", "reebtrees", "validate", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_deep_caterpillar_isomorphism():
    graph = network_to_reeb(parse_enewick(deep_caterpillar(2000)))
    copy = rename_graph(graph)
    assert canonical_form(graph) == canonical_form(copy)
    assert reeb_iso(graph, copy) is True


def test_deep_caterpillar_iso_on_the_command_line(tmp_path):
    paths = [tmp_path / name for name in ("a.enwk", "b.enwk")]
    for path in paths:
        path.write_text(deep_caterpillar(2000) + "\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    done = subprocess.run(
        [sys.executable, "-m", "reebtrees", "iso", *map(str, paths)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "isomorphic\n"


def chain_lca_stamp(graph, x: str, y: str) -> Fraction:
    """Level of the lowest common ancestor of two taxa, by ancestor chains."""

    def chain(v: str) -> list[str]:
        out = [v]
        while graph.above_edges.get(out[-1]):
            e = graph.above_edges[out[-1]][0]
            out.append(graph.up_maps[graph.edge_gap[e]][e])
        return out

    above_x = set(chain(x))
    lca = next(v for v in chain(y) if v in above_x)
    return graph.levels[graph.vertex_level[lca]]


def test_long_caterpillar_vector_spot_checks():
    rng = random.Random(1500)
    n = 1500
    text = "t0"
    for k in range(1, n):
        text = f"({text}:{rng.choice(('0.5', '1', '2.25'))},t{k}:{rng.choice(('0.5', '3'))})i{k}"
    graph = network_to_reeb(parse_enewick(text + ";"))
    perm = rng.sample(range(n), n)
    ranks = {f"t{k}": perm[k] for k in range(n)}
    vec = cophenetic_vector(graph, ranks=ranks)
    assert len(vec.entries) == n * (n + 1) // 2
    pairs = [(0, 0), (0, n - 1), (n - 1, n - 1)]
    pairs += [tuple(sorted(rng.sample(range(n), 2))) for _ in range(20)]
    for i, j in pairs:
        assert vec.entry(i, j) == chain_lca_stamp(graph, vec.leaves[i], vec.leaves[j])
