"""End-to-end checks of the command line front end.

Every test but the ``python -m`` entry-point checks drives main() directly
with an argv list and inspects captured output.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import reebtrees
from reebtrees import (
    GeneratorSpec,
    IncompatibleShape,
    OrderConflict,
    ReebError,
    build_dag_view,
    classify_vertex,
    cophenetic_vector,
    decompose,
    dump_text,
    enewick_to_reeb,
    enumerate_choices,
    format_level,
    load_text,
    make_graph,
    minimize_critical_set,
    network_distance,
    random_graph,
    to_dot,
    to_jsonable,
    validate,
)
from reebtrees.cli import main

from conftest import (
    corpus,
    cut_id_clash,
    deep_ordered_path,
    gate_fault_graphs,
    rename_graph,
    repeated_ids_graph,
    taken_refinement_id_pair,
)
from test_isomorphism import random_covers

DATA = Path(__file__).parent / "data"
EDGE = {"id": "e", "down": "a", "up": "b"}
# Shape faults put into a two-level document, each with the line that
# reports it.
SHAPE_FAULTS = {
    "level": ({"levels": [True, "1"]}, "/levels/0: level must be a string or integer"),
    "edge": ({"edges": [[EDGE, EDGE]]}, "/edges/0/1/id: duplicate edge id 'e'"),
    "vertex": ({"vertices": [["a"], [7]]}, "/vertices/1/0: expected a string"),
}


def shape_fault_doc(fault: dict) -> dict:
    return {"levels": ["0", "1"], "vertices": [["a"], ["b"]], "edges": [[EDGE]],
            "vertex_orders": [[], []], "edge_orders": [[]], **fault}


def write_graph(tmp_path, name, graph, **kw):
    path = tmp_path / name
    path.write_text(dump_text(graph, **kw))
    return str(path)


def run_module(module, *args, **kw):
    """``python -m module args`` in a child process, as run_python runs it."""
    return run_python("-m", module, *args, **kw)


def run_python(*args, timeout=60, env=(), **kw):
    """``python args`` in a child process that imports this source tree,
    with the variables ``env`` added to its environment."""
    src = str(Path(reebtrees.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=env, timeout=timeout, **kw,
    )


def cap_memory():
    """Cap a child process's address space at 1 GiB."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def three_leaf_tree():
    # Leaf c reaches the root through a pass-through vertex, since an edge
    # may not skip a level.
    return make_graph(
        [0, 1, 2],
        [["a", "b", "c"], ["m", "c1"], ["t"]],
        [
            [("e1", "a", "m"), ("e2", "b", "m"), ("e5", "c", "c1")],
            [("e3", "m", "t"), ("e4", "c1", "t")],
        ],
    )


# Runs ``dist`` on the files it is given and prints its own peak RSS in MiB
# to stderr.  Linux carries a process's peak over exec, so that ru_maxrss
# starts at the size of the process that started it; the child reads the
# peak of its own address space (VmHWM) where /proc has it.
DIST_PEAK_RSS = """
import resource, sys
from reebtrees.cli import main
code = main(["dist", *sys.argv[1:]])
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib /= 1024 if sys.platform == "darwin" else 1
print(kib / 1024, file=sys.stderr)
sys.exit(code)
"""


def random_binary_tree(rng: random.Random, taxa: int) -> str:
    """eNewick text of a random binary tree over taxa t0..t<taxa - 1>: two
    subtrees picked at random are joined until one is left, on branches of
    1 to 3 units."""
    subtrees = [f"t{k}" for k in range(taxa)]
    for k in range(1, taxa):
        i, j = sorted(rng.sample(range(len(subtrees)), 2))
        b, a = subtrees.pop(j), subtrees.pop(i)
        subtrees.append(f"({a}:{rng.randint(1, 3)},{b}:{rng.randint(1, 3)})i{k}")
    return subtrees[0] + ";"


def mutate(doc: dict, rng: random.Random) -> str:
    """One fault put into a graph's JSON document ``doc``, in place; returns
    its kind.  An id reused on another level or gap is not repeated within
    one list, so that the document still loads."""
    vertices, edges = doc["vertices"], doc["edges"]
    gap = rng.randrange(len(edges))
    edge = rng.choice(edges[gap]) if edges[gap] else None
    kind = rng.choice(("retarget", "retarget up two", "dangle", "reuse vertex", "reuse edge",
                       "drop vertex", "drop edge", "unknown vertex cover", "unknown edge cover",
                       "swap levels", "edge id as vertex id", "empty top level", "bad labels"))
    if kind.startswith("retarget") and edge is not None:
        if kind == "retarget up two" and gap + 2 < len(vertices):
            edge["up"] = rng.choice(vertices[gap + 2] or ["zz"])
        else:
            end = rng.choice(("down", "up"))
            edge[end] = rng.choice(vertices[gap + (end == "up")] or ["zz"])
    elif kind == "dangle" and edge is not None:
        edge[rng.choice(("down", "up"))] = "zz"
    elif kind == "reuse vertex":
        i, j = rng.sample(range(len(vertices)), 2)
        v = rng.choice(vertices[j] or [None])
        if v is not None and v not in vertices[i]:
            vertices[i].append(v)
    elif kind == "reuse edge":
        i = rng.choice([i for i in range(len(edges)) if i != gap] or [gap])
        taken = edge is None or any(e["id"] == edge["id"] for e in edges[i])
        if not taken and vertices[i] and vertices[i + 1]:
            down, up = rng.choice(vertices[i]), rng.choice(vertices[i + 1])
            edges[i].append({"id": edge["id"], "down": down, "up": up})
    elif kind == "drop vertex":
        # Most often a vertex that a cover names, when one does.
        named = [(i, x) for i, covers in enumerate(doc["vertex_orders"]) for x in sum(covers, [])]
        spots = [(i, v) for i, vs in enumerate(vertices) for v in vs]
        i, v = rng.choice(named if named and rng.random() < 0.7 else spots)
        if v in vertices[i]:
            vertices[i].remove(v)
    elif kind == "drop edge" and edge is not None:
        edges[gap].remove(edge)
    elif kind.startswith("unknown"):
        what = "vertex" if kind == "unknown vertex cover" else "edge"
        i = rng.randrange(len(doc[f"{what}_orders"]))
        ids = vertices[i] if what == "vertex" else [e["id"] for e in edges[i]]
        pair = [rng.choice(ids or ["x"]), "ghost"]
        doc[f"{what}_orders"][i].append(pair[::rng.choice((1, -1))])
    elif kind == "swap levels":
        levels = doc["levels"]
        i = rng.randrange(len(levels) - 1)
        levels[i], levels[i + 1] = levels[i + 1], levels[i]
    elif kind == "edge id as vertex id" and edge is not None:
        v = rng.choice(sum(vertices, []) or ["a"])
        if all(e["id"] != v for e in edges[gap]):
            old, edge["id"] = edge["id"], v
            covers = doc["edge_orders"][gap]
            doc["edge_orders"][gap] = [[v if x == old else x for x in c] for c in covers]
    elif kind == "empty top level":
        vertices[-1], edges[-1] = [], []
        doc["vertex_orders"][-1], doc["edge_orders"][-1] = [], []
    elif kind == "bad labels":
        labels = [{e["id"]: "L" + e["id"] for e in es} for es in edges]
        ids = sorted(labels[gap])
        roll = rng.random()
        if roll < 0.4 and len(ids) > 1:
            labels[gap] = dict.fromkeys(ids, "same")
        elif roll < 0.7 and ids:
            del labels[gap][rng.choice(ids)]
        else:
            labels[gap]["stranger"] = "L?"
        doc["labels"] = labels
    return kind


class TestValidate:
    def test_ok(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_violations_listed(self, capsys, tmp_path):
        doc = {
            "levels": ["0", "1"],
            "vertices": [["a"], ["b"]],
            "edges": [[{"id": "e", "down": "a", "up": "zz"}]],
            "vertex_orders": [[], []],
            "edge_orders": [[]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "zz" in out

    def test_cut_prefix_needs_flag(self, capsys, tmp_path):
        g = make_graph(
            [0, 1],
            [["cut:x", "a"], ["t"]],
            [[("e", "cut:x", "t"), ("f", "a", "t")]],
        )
        path = write_graph(tmp_path, "g.json", g)
        assert main(["validate", path]) == 1
        assert main(["validate", "--allow-cut-ids", path]) == 0


    def test_non_ascii_digit_is_a_positioned_error(self, capsys, tmp_path):
        path = tmp_path / "net.enwk"
        path.write_text("(A:\u00b2)r;\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert "line 1, col 4: invalid branch length" in capsys.readouterr().err


class TestBetti:
    def test_agreeing_counts(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["betti", path]) == 0
        assert capsys.readouterr().out == "euler: 1\nmerges: 1\nagree: yes\n"

    def test_disagreeing_counts(self, capsys, tmp_path, twin_peaks):
        path = write_graph(tmp_path, "g.json", twin_peaks)
        assert main(["betti", path]) == 0
        assert capsys.readouterr().out == "euler: 0\nmerges: 1\nagree: no\n"


class TestClassify:
    def test_lists_every_vertex(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["classify", path]) == 0
        out = capsys.readouterr().out
        assert "r\t1\treticulation\tin=2\tout=3" in out
        assert "l1\t1\tleaf\tin=1\tout=0\tleaf" in out
        assert len(out.strip().splitlines()) == 8

    def test_conflicted_graph_is_an_error(self, capsys, tmp_path, twin_peaks):
        path = write_graph(tmp_path, "g.json", twin_peaks)
        assert main(["classify", path]) == 2
        assert "cycle-rank mismatch" in capsys.readouterr().err

    def test_classifies_each_vertex_once(self, capsys, tmp_path, monkeypatch):
        graph = random_graph(GeneratorSpec(seed=3, n_leaves=5, betti=4, levels=5, max_indeg=3))
        path = write_graph(tmp_path, "g.json", graph)
        calls = []
        original = reebtrees.cli.classify_vertex

        def counting(graph, v):
            calls.append(v)
            return original(graph, v)

        monkeypatch.setattr(reebtrees.cli, "classify_vertex", counting)
        assert main(["classify", path]) == 0
        vertices = sorted(graph.vertex_level)
        assert sorted(calls) == vertices
        assert len(capsys.readouterr().out.splitlines()) == len(vertices)

    def test_matches_the_library_on_every_fixture(self, capsys):
        # One line per vertex, in vertex_ids() order, as classify_vertex
        # classifies it; or validate's first line, or else the cycle-rank
        # check's error, with exit 2 and no output.
        fixtures = [*sorted(DATA.glob("*.json")), *sorted((DATA / "newick_corpus").glob("*"))]
        outcomes = {"vertices": 0, "errors": 0}
        for path in fixtures:
            text = path.read_text()
            graph = enewick_to_reeb(text) if path.suffix == ".enwk" else load_text(text)[0]
            code = main(["classify", str(path)])
            captured = capsys.readouterr()
            problems = validate(graph, allow_cut_ids=True)
            if problems:
                # Input that validate rejects is refused with its first line.
                expected = (2, "", f"error: {path}: {problems[0]}\n")
                assert (code, captured.out, captured.err) == expected, path
                outcomes["errors"] += 1
                continue
            try:
                build_dag_view(graph)
            except (ReebError, ValueError) as exc:
                assert (code, captured.out, captured.err) == (2, "", f"error: {exc}\n"), path
                outcomes["errors"] += 1
                continue
            lines = []
            for v in graph.vertex_ids():
                c = classify_vertex(graph, v)
                level = format_level(graph.levels[c.level_index])
                tail = "\tleaf" if c.is_leaf else ""
                lines.append(
                    f"{v}\t{level}\t{c.kind.value}\tin={c.indegree}\tout={c.outdegree}{tail}"
                )
            assert (code, captured.err) == (0, ""), path
            assert captured.out.splitlines() == lines, path
            outcomes["vertices"] += len(lines)
        assert outcomes["errors"] >= 2 and outcomes["vertices"] >= 500, outcomes


class TestMinimize:
    def test_writes_output_file(self, tmp_path):
        g = make_graph(
            [0, 1, 2],
            [["a", "b"], ["m"], ["t"]],
            [[("lo", "a", "m"), ("s", "b", "m")], [("hi", "m", "t")]],
        )
        # m joins two branches, nothing to splice; output equals input.
        src = write_graph(tmp_path, "g.json", g)
        out = tmp_path / "min.json"
        assert main(["minimize", src, "-o", str(out)]) == 0
        graph, _ = load_text(out.read_text())
        assert graph == g

    def test_drops_passthrough_level(self, capsys, tmp_path):
        # Level 1 holds only pass-through vertices, so it disappears.
        g = make_graph(
            [0, 1, 2],
            [["a", "b"], ["m", "m2"], ["t"]],
            [
                [("lo", "a", "m"), ("b0", "b", "m2")],
                [("hi", "m", "t"), ("b1", "m2", "t")],
            ],
        )
        src = write_graph(tmp_path, "g.json", g)
        assert main(["minimize", src]) == 0
        graph, _ = load_text(capsys.readouterr().out)
        assert graph.level_count == 2
        assert graph.edge_sets[0] == frozenset({"lo", "b0"})


class TestDecompose:
    def test_factor_listing(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["decompose", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "factors: 2"
        assert out[1] == "factor 0: keep [r<-e5] cut [e6]"
        assert out[2] == "factor 1: keep [r<-e6] cut [e5]"

    def test_tree_has_one_trivial_factor(self, capsys, tmp_path):
        path = write_graph(tmp_path, "g.json", three_leaf_tree())
        assert main(["decompose", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["factors: 1", "factor 0: keep [-] cut [-]"]

    def test_out_dir(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        target = tmp_path / "factors"
        assert main(["decompose", path, "--out-dir", str(target)]) == 0
        files = sorted(f.name for f in target.iterdir())
        assert files == ["factor_0000.json", "factor_0001.json"]
        graph, _ = load_text((target / "factor_0000.json").read_text())
        assert main(["validate", "--allow-cut-ids", str(target / "factor_0000.json")]) == 0

    @pytest.mark.parametrize("edge, detaching", [("e1", 1), ("e2", 0)])
    def test_cut_id_held_off_the_merge_level(self, capsys, tmp_path, edge, detaching):
        # Factor ``detaching`` detaches ``edge``, whose cut leaf id the
        # network holds, onto cut:<edge>'; the command lists and writes the
        # library's factors, each a valid tree.
        g = cut_id_clash(edge)
        path = write_graph(tmp_path, "g.json", g)
        target = tmp_path / "factors"
        assert main(["decompose", path, "--out-dir", str(target)]) == 0
        assert capsys.readouterr().out == (
            "factors: 2\nfactor 0: keep [r<-e1] cut [e2]\nfactor 1: keep [r<-e2] cut [e1]\n"
        )
        factors = decompose(g).factors
        assert factors[detaching].cut_vertices == (f"cut:{edge}'",)
        files = sorted(target.iterdir())
        assert [f.name for f in files] == ["factor_0000.json", "factor_0001.json"]
        for file, factor in zip(files, factors):
            assert load_text(file.read_text())[0] == factor.graph
            assert main(["validate", "--allow-cut-ids", str(file)]) == 0

    def test_factor_graphs_only_for_out_dir(self, capsys, monkeypatch, tmp_path):
        # The listing reads the choices and the cut table; a factor graph is
        # built only to be written.
        from reebtrees import cli

        calls = []
        real = cli._apply_choice

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_apply_choice", counting)
        g = random_graph(GeneratorSpec(seed=3, n_leaves=4, betti=3, levels=5, max_indeg=3))
        path = write_graph(tmp_path, "g.json", g)
        assert main(["decompose", path]) == 0
        listing = capsys.readouterr().out
        assert calls == []
        assert main(["decompose", path, "--out-dir", str(tmp_path / "factors")]) == 0
        assert capsys.readouterr().out == listing
        assert len(calls) == len(list(enumerate_choices(g))) == len(listing.splitlines()) - 1

    def test_factor_cap(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["decompose", path, "--max-factors", "1"]) == 2
        assert "2 factors exceed the cap of 1" in capsys.readouterr().err

    def test_level_orders_refused_as_by_the_library(self, capsys, tmp_path):
        # Merge r beside sink x on level 0, with the cover (r, x).
        g = make_graph(
            [0, 1, 2],
            [["r", "x"], ["a", "b"], ["t"]],
            [
                [("e1", "r", "a"), ("e2", "r", "b"), ("e3", "x", "a")],
                [("g1", "a", "t"), ("g2", "b", "t")],
            ],
            vertex_covers=[[("r", "x")], [], []],
        )
        assert validate(g) == []
        message = "decomposition needs trivial orders; vertex relations at level 0"
        with pytest.raises(OrderConflict, match=message):
            decompose(g)
        path = write_graph(tmp_path, "g.json", g)
        target = tmp_path / "factors"
        assert main(["decompose", path, "--out-dir", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not target.exists()


    def test_matches_the_library_on_every_fixture(self, capsys, tmp_path):
        # The same factors, cut sets and factor files, or the same error with
        # exit 2, no output and no factor directory; input that validate
        # rejects exits 2 with validate's first line.
        fixtures = [*sorted(DATA.glob("*.json")), *sorted((DATA / "newick_corpus").glob("*"))]
        outcomes = {"factors": 0, "errors": 0}
        for n, path in enumerate(fixtures):
            text = path.read_text()
            graph = enewick_to_reeb(text) if path.suffix == ".enwk" else load_text(text)[0]
            target = tmp_path / f"factors{n}"
            code = main(["decompose", str(path), "--out-dir", str(target)])
            captured = capsys.readouterr()
            problems = validate(graph, allow_cut_ids=True)
            if problems:
                expected = (2, "", f"error: {path}: {problems[0]}\n")
                assert (code, captured.out, captured.err) == expected, path
                assert not target.exists()
                outcomes["errors"] += 1
                continue
            try:
                dec = decompose(graph)
            except (ReebError, ValueError) as exc:
                assert (code, captured.out, captured.err) == (2, "", f"error: {exc}\n"), path
                assert not target.exists()
                outcomes["errors"] += 1
                continue
            assert (code, captured.err) == (0, ""), path
            lines = [f"factors: {len(dec.factors)}"]
            for k, f in enumerate(dec.factors):
                kept = " ".join(f"{v}<-{e}" for v, e in f.choice.kept) or "-"
                cut = ",".join(sorted(f.detached)) or "-"
                lines.append(f"factor {k}: keep [{kept}] cut [{cut}]")
                assert (target / f"factor_{k:04d}.json").read_text() == dump_text(f.graph)
            assert captured.out.splitlines() == lines, path
            assert len(list(target.iterdir())) == len(dec.factors)
            outcomes["factors"] += len(dec.factors)
        assert outcomes["errors"] >= 3 and outcomes["factors"] >= 60, outcomes


class TestInputErrors:
    @pytest.mark.parametrize("command", ["decompose", "classify", "minimize"])
    @pytest.mark.parametrize("name", ["duplicate_edge_id", "self_targeted_edge"])
    def test_reported_in_validates_words(self, capsys, command, name):
        # An id used twice or an edge end off its level is an input error:
        # the path and validate's first line, exit 2 and nothing on stdout.
        path = DATA / f"{name}.json"
        graph, _ = load_text(path.read_text())
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {validate(graph)[0]}\n"

    @pytest.mark.parametrize(
        "command", ["betti", "classify", "minimize", "decompose", "dist", "dist --matrix"]
    )
    def test_level_skipping_edge_is_refused(self, capsys, tmp_path, net_a, command):
        # The four-level path a-m-n-b with edge lo retargeted from m to n:
        # lo skips level 1, which validate and the checked skeleton reject.
        # dist reads the checked skeleton and names no path.
        g = make_graph(
            [0, 1, 2, 3],
            [["a"], ["m"], ["n"], ["b"]],
            [[("lo", "a", "n")], [("mid", "m", "n")], [("hi", "n", "b")]],
        )
        path = write_graph(tmp_path, "g.json", g)
        fault = "dangling up_map target 'n' for edge 'lo' (expected a vertex at level 1)"
        if command == "dist":
            argv, want = ["dist", path, path], f"error: {fault}\n"
        elif command == "dist --matrix":
            write_graph(tmp_path, "a.json", net_a)
            argv, want = ["dist", "--matrix", str(tmp_path)], f"error: {fault}\n"
        else:
            argv, want = [command, path], f"error: {path}: {fault}\n"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == want

    @pytest.mark.parametrize("kind", SHAPE_FAULTS)
    def test_shape_faults_are_positioned(self, capsys, tmp_path, kind):
        # A shape fault exits 2 with the pointer to the first one.
        fault, want = SHAPE_FAULTS[kind]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(shape_fault_doc(fault)))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {want}\n")

    def test_levels_that_do_not_increase_are_refused(self, capsys, tmp_path):
        # A generator graph with its levels 0 and 1 swapped: dist reads the
        # checked skeleton, which refuses the levels as validate words them,
        # and so do the library readers of that skeleton.
        g = random_graph(GeneratorSpec(seed=4, n_leaves=4, betti=2, levels=5))
        swapped = dataclasses.replace(g, levels=(g.levels[1], g.levels[0], *g.levels[2:]))
        fault = "levels not strictly increasing at index 0 (1 >= 0)"
        assert validate(swapped) == [fault]
        a, b = write_graph(tmp_path, "a.json", swapped), write_graph(tmp_path, "b.json", g)
        for argv in (["dist", a, b], ["dist", b, a], ["dist", "--matrix", str(tmp_path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {fault}\n"), argv
        for read in (lambda x: network_distance(x, g), decompose, minimize_critical_set):
            with pytest.raises(ValueError, match=re.escape(fault)):
                read(swapped)

    @pytest.mark.parametrize("name, fault", [
        ("shared-id", "id 'b' used as both vertex and edge"),
        ("empty-top", "empty vertex set at level 2"),
        ("bad-labels", "non-bijective labels at gap 0"),
    ], ids=["shared-id", "empty-top", "bad-labels"])
    def test_what_validate_rejects_dist_refuses(self, capsys, tmp_path, net_a, name, fault):
        # dist printed 0 and exited 0 on each: the checked skeleton raises
        # validate's first line, for dist as for the library readers.
        g = gate_fault_graphs()[name]
        assert validate(g)[0] == fault
        path = write_graph(tmp_path, "g.json", g)
        write_graph(tmp_path, "a.json", net_a)
        for argv in (["dist", path, path], ["dist", "--matrix", str(tmp_path)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: {fault}\n"), argv
        for read in (lambda x: network_distance(x, x), cophenetic_vector, decompose):
            with pytest.raises(ValueError, match=re.escape(fault)):
                read(g)

    @pytest.mark.parametrize("command", ["dist", "dist --matrix", "iso", "decompose"])
    def test_cover_naming_an_unknown_edge_is_refused(self, capsys, tmp_path, net_a, command):
        # The checked skeleton looks up the ends of every edge a cover
        # names; dist read this one as a KeyError traceback.
        path = str(DATA / "unknown_edge_cover.json")
        fault = "edge order cover ('e', 'ghost') references unknown id at index 0"
        if command == "dist":
            argv, want = ["dist", path, path], f"error: {fault}\n"
        elif command == "dist --matrix":
            write_graph(tmp_path, "a.json", net_a)
            (tmp_path / "b.json").write_text(Path(path).read_text())
            argv, want = ["dist", "--matrix", str(tmp_path)], f"error: {fault}\n"
        else:
            argv = [command, path, path] if command == "iso" else [command, path]
            want = f"error: {path}: {fault}\n"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == want

    def test_every_command_refuses_what_validate_rejects(
        self, capsys, tmp_path, monkeypatch, net_a
    ):
        # Generator graphs with random covers, mutated in their JSON form.
        # Every command returns; on an input that validate rejects, each
        # exits 2 with nothing on stdout, and validate exits 1.
        monkeypatch.setenv("REEB_SEARCH_BUDGET", "2000")
        rng = random.Random(36)
        folder = tmp_path / "matrix"
        folder.mkdir()
        write_graph(folder, "a.json", net_a)
        path = str(folder / "b.json")
        commands = [
            ["betti", path], ["classify", path], ["minimize", path], ["decompose", path],
            ["iso", path, path], ["iso", "--oracle", path, path], ["dist", path, path],
            ["dist", "--matrix", str(folder)],
            *(["convert", path, "--to", to] for to in ("json", "enwk", "dot")),
        ]
        shapes = [(2, 1, 3), (3, 1, 3), (3, 2, 4), (4, 2, 4), (4, 3, 5), (5, 3, 5)]
        kinds = Counter()
        for graph in corpus(shapes, range(70), max_indeg=3):
            if rng.random() < 0.7:
                graph = random_covers(graph, rng)
            doc = to_jsonable(graph)
            for _ in range(rng.choice((1, 1, 2))):
                kinds[mutate(doc, rng)] += 1
            Path(path).write_text(json.dumps(doc))
            rejected = validate(load_text(json.dumps(doc))[0], allow_cut_ids=True)
            kinds["rejected" if rejected else "accepted"] += 1
            assert main(["validate", path]) == (1 if rejected else 0)
            capsys.readouterr()
            for argv in commands:
                code = main(argv)
                captured = capsys.readouterr()
                if rejected:
                    assert (code, captured.out) == (2, ""), (argv, doc, captured.err)
        assert kinds["rejected"] + kinds["accepted"] >= 400, kinds
        assert min(kinds.values()) >= 20, kinds

    def test_repeated_ids_named_least_first(self, capsys, tmp_path):
        # a, b, c and d on levels 0 and 1: validate's first line names the
        # least id of the first level that repeats one (test_hash_seed runs
        # this graph under several hash seeds).
        path = write_graph(tmp_path, "dup.json", repeated_ids_graph())
        assert main(["betti", path]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: duplicate vertex id 'a' at levels 0 and 1\n"
        )


class TestIso:
    def test_positive(self, capsys, tmp_path, cycle_graph):
        a = write_graph(tmp_path, "a.json", cycle_graph)
        b = write_graph(tmp_path, "b.json", cycle_graph)
        assert main(["iso", a, b]) == 0
        assert capsys.readouterr().out == "isomorphic\n"

    def test_negative(self, capsys, tmp_path, cycle_graph, triple_edge):
        a = write_graph(tmp_path, "a.json", cycle_graph)
        b = write_graph(tmp_path, "b.json", triple_edge)
        assert main(["iso", a, b]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["plain", "oracle"])
    def test_crossed_covers_are_not_isomorphic(self, capsys, flags):
        # Ranked leaves, the same order counts, crossed covers: the pair
        # passes the prefilter, both graphs are certified, and their
        # certificates differ.
        pair = [str(DATA / f"crossed_covers_{side}.json") for side in "ab"]
        assert main(["iso", *flags, *pair]) == 1
        assert capsys.readouterr().out == "not isomorphic\n"

    def test_oracle_agrees(self, capsys, tmp_path, cycle_graph):
        a = write_graph(tmp_path, "a.json", cycle_graph)
        assert main(["iso", "--oracle", a, a]) == 0

    def test_labelled_needs_labels(self, capsys):
        src = str(DATA / "ordered_pair.json")
        assert main(["iso", "--labelled", src, src]) == 0
        assert capsys.readouterr().out == "isomorphic\n"

    @pytest.mark.parametrize(
        "flags",
        [[], ["--oracle"], ["--labelled"], ["--labelled", "--oracle"]],
        ids=["plain", "oracle", "labelled", "labelled-oracle"],
    )
    def test_different_level_ranges_are_not_isomorphic(self, capsys, flags):
        # One labelled edge spanning [0, 1] and one spanning [0, 2].
        pair = [str(DATA / "level_ranges" / f"{side}.json") for side in "ab"]
        assert main(["iso", *flags, *pair]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("not isomorphic\n", "")

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["skeleton", "oracle"])
    def test_taken_refinement_id_pair(self, capsys, tmp_path, flags):
        # Refining a to b's level 1/2 makes the id of a's vertex e@0.5.
        a, b = taken_refinement_id_pair()
        paths = [write_graph(tmp_path, "a.json", a), write_graph(tmp_path, "b.json", b)]
        assert main(["iso", *flags, *paths]) == 0
        assert capsys.readouterr().out == "isomorphic\n"

    def test_enwk_extension_sniffed(self, capsys, tmp_path):
        text = "(((C:1)#H1:1,A:2)x:1,(#H1:1,B:2)y:1)r;\n"
        a = tmp_path / "a.enwk"
        a.write_text(text)
        b = tmp_path / "b.enwk"
        b.write_text(text)
        assert main(["iso", str(a), str(b)]) == 0

    def test_embedded_ranks_break_symmetry(self, capsys, tmp_path, net_a, net_b, ranks_a, ranks_b):
        # Swapped ranks make the two networks distinguishable.
        a = write_graph(tmp_path, "a.json", net_a, leaf_ranks={"l1": 1, "l2": 2})
        b = write_graph(tmp_path, "b.json", net_b, leaf_ranks={"xl1": 2, "xl2": 1})
        assert main(["iso", a, b]) == 1

    def test_rank_files_override(self, capsys, tmp_path, net_a, net_b):
        a = write_graph(tmp_path, "a.json", net_a)
        b = write_graph(tmp_path, "b.json", net_b)
        ra = tmp_path / "ra.json"
        ra.write_text(json.dumps({"l1": 1, "l2": 2}))
        rb = tmp_path / "rb.json"
        rb.write_text(json.dumps({"xl1": 1, "xl2": 2}))
        assert main(["iso", a, b, "--ranks-a", str(ra), "--ranks-b", str(rb)]) == 0

    def test_deep_ordered_path_takes_the_oracle(self, tmp_path):
        # The vertex cover stays in the path's one factor, whose fingerprint
        # must not run out of Python stack on 600 levels.
        graph = deep_ordered_path(600)
        a = write_graph(tmp_path, "a.json", graph)
        b = write_graph(tmp_path, "b.json", rename_graph(graph))
        done = run_module("reebtrees", "iso", a, b, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "isomorphic\n"

    @pytest.mark.parametrize(
        "flags", [[], ["--oracle"], ["--labelled"]], ids=["plain", "oracle", "labelled"]
    )
    def test_invalid_graph_is_an_input_error(self, capsys, tmp_path, flags):
        good = make_graph(
            [0, 1, 2],
            [["x", "y"], ["m"], ["t"]],
            [[("e", "x", "m"), ("f", "y", "m")], [("g", "m", "t")]],
            labels=[{"e": "L", "f": "R"}, {"g": "S"}],
        )
        bad = dataclasses.replace(
            good, down_maps=({"e": "x", "f": "q"},) + good.down_maps[1:]
        )
        a = write_graph(tmp_path, "a.json", good)
        b = write_graph(tmp_path, "b.json", bad)
        # Each input is validated as it is read, so an invalid first input
        # is reported before a missing second one.
        for argv in ([a, b], [b, b], [b, str(tmp_path / "missing.json")]):
            assert main(["iso", *flags, *argv]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {b}: dangling down_map target 'q' for edge 'f' "
                "(expected a vertex at level 0)\n"
            )

    def test_cut_id_held_off_the_merge_level(self, capsys, tmp_path):
        # The first factor detaches e2 onto cut:e2', beside the held id.
        g = cut_id_clash("e2")
        a = write_graph(tmp_path, "a.json", g)
        b = write_graph(tmp_path, "b.json", rename_graph(g))
        for flags in ([], ["--oracle"]):
            assert main(["iso", *flags, a, b]) == 0
            assert main(["iso", *flags, b, a]) == 0
        assert capsys.readouterr().out == "isomorphic\n" * 4

    def test_factor_files_compare(self, capsys, tmp_path, cycle_graph):
        out = tmp_path / "factors"
        graph = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["decompose", graph, "--out-dir", str(out)]) == 0
        first, second = sorted(str(f) for f in out.glob("*.json"))
        capsys.readouterr()
        assert main(["iso", first, first]) == 0
        assert main(["iso", first, second]) == 1
        assert capsys.readouterr().out == "isomorphic\nnot isomorphic\n"

    @pytest.mark.parametrize("rank", ["null", "1.5", "true", '"x"'])
    def test_bad_rank_file(self, capsys, tmp_path, net_a, net_b, rank):
        a = write_graph(tmp_path, "a.json", net_a)
        b = write_graph(tmp_path, "b.json", net_b)
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"l1": {rank}, "l2": 2}}')
        for argv in (["iso", a, b, "--ranks-a", str(bad)], ["dist", b, a, "--ranks-b", str(bad)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: /l1: rank must be an integer\n"


class TestDist:
    def fixture_files(self, tmp_path, net_a, net_b):
        a = write_graph(tmp_path, "a.json", net_a, leaf_ranks={"l1": 1, "l2": 2})
        b = write_graph(tmp_path, "b.json", net_b, leaf_ranks={"xl1": 2, "xl2": 1})
        return a, b

    def test_sup_distance(self, capsys, tmp_path, net_a, net_b):
        a, b = self.fixture_files(tmp_path, net_a, net_b)
        assert main(["dist", a, b, "--p", "inf", "--time-mode=-f"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_default_p_is_one(self, capsys, tmp_path, net_a, net_b):
        a, b = self.fixture_files(tmp_path, net_a, net_b)
        assert main(["dist", a, b, "--time-mode=-f"]) == 0
        assert capsys.readouterr().out == "10\n"

    def test_certified_euclidean(self, capsys, tmp_path, net_a, net_b):
        a, b = self.fixture_files(tmp_path, net_a, net_b)
        assert main(["dist", a, b, "--p", "2", "--digits", "3", "--time-mode=-f"]) == 0
        assert capsys.readouterr().out == "5.09901\n"

    def test_incomparable(self, capsys, tmp_path, net_a):
        a = write_graph(tmp_path, "a.json", net_a)
        c = write_graph(tmp_path, "c.json", three_leaf_tree())
        assert main(["dist", a, c]) == 1
        assert "incomparable: taxon counts differ: 2 vs 3" in capsys.readouterr().out

    def test_level_order_refused_before_the_partner_is_read(self, capsys, tmp_path):
        # network_factors runs decompose's whole gate, level orders
        # included, on the first network before it reads the second: a
        # partner of another shape (3 taxa, not 2) is not compared, and a
        # partner that fails its own checks is not read.
        ordered = str(DATA / "ordered_pair.json")
        tree = write_graph(tmp_path, "c.json", three_leaf_tree())
        broken = str(DATA / "duplicate_edge_id.json")
        message = "decomposition needs trivial orders; vertex relations at level 0"
        for pair in ((ordered, tree), (tree, ordered), (ordered, broken)):
            assert main(["dist", *pair]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
            with pytest.raises(OrderConflict, match=message):
                network_distance(*(load_text(Path(f).read_text())[0] for f in pair))
        assert main(["dist", broken, ordered]) == 2
        assert capsys.readouterr() == ("", "error: duplicate edge id 'e0' at gaps 0 and 1\n")

    def test_matrix(self, capsys, tmp_path, net_a, net_b):
        self.fixture_files(tmp_path, net_a, net_b)
        write_graph(tmp_path, "c.json", three_leaf_tree())
        assert main(["dist", "--matrix", str(tmp_path), "--time-mode=-f"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == ",a.json,b.json,c.json"
        assert rows[1] == "a.json,0,10,NA"
        assert rows[2] == "b.json,10,0,NA"
        assert rows[3] == "c.json,NA,NA,0"

    def test_matrix_cells_match_network_distance(self, capsys, tmp_path):
        # Two shapes of max_indeg=3 networks, one s=0 tree sharing a taxon
        # count with the first shape, and seeded leaf ranks in every file.
        rng = random.Random(11)
        graphs = [
            *corpus([(4, 3, 5), (5, 2, 4)], range(3), max_indeg=3),
            *corpus([(4, 0, 4)], [0], max_indeg=3),
        ]
        for k, g in enumerate(graphs):
            leaves = [v for v in g.vertex_ids() if g.outdeg(v) == 0]
            ranks = dict(zip(leaves, rng.sample(range(1, len(leaves) + 1), len(leaves))))
            write_graph(tmp_path, f"n{k}.json", g, leaf_ranks=ranks)
        assert main(["dist", "--matrix", str(tmp_path), "--p", "2", "--time-mode=-f"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        names = sorted(f.name for f in tmp_path.iterdir())
        assert rows[0] == [""] + names
        loaded = [load_text((tmp_path / name).read_text()) for name in names]
        na = 0
        for (ga, ra), row in zip(loaded, rows[1:]):
            for (gb, rb), cell in zip(loaded, row[1:]):
                try:
                    d = network_distance(
                        ga, gb, p=2, ranks_a=ra, ranks_b=rb, time_mode="-f"
                    )
                except IncompatibleShape:
                    assert cell == "NA"
                    na += 1
                else:
                    assert cell == format_level(d)
        assert 0 < na < len(names) ** 2

    def test_matrix_decomposes_each_file_once(self, capsys, tmp_path, monkeypatch, net_a, net_b):
        self.fixture_files(tmp_path, net_a, net_b)
        write_graph(tmp_path, "c.json", three_leaf_tree())
        write_graph(tmp_path, "d.json", net_a, leaf_ranks={"l1": 2, "l2": 1})
        # The factor vectors of a network are built in one call per network.
        calls = []
        original = reebtrees.phylo._factor_vectors

        def counting(net):
            calls.append(net)
            return original(net)

        monkeypatch.setattr(reebtrees.phylo, "_factor_vectors", counting)
        assert main(["dist", "--matrix", str(tmp_path)]) == 0
        assert len(calls) == 4
        assert len({id(net.graph) for net in calls}) == 4

    def test_matrix_bad_file_prints_no_csv(self, capsys, tmp_path, net_a, twin_peaks):
        write_graph(tmp_path, "a.json", net_a)
        write_graph(tmp_path, "b.json", twin_peaks)
        assert main(["dist", "--matrix", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: cycle-rank mismatch" in captured.err

    @staticmethod
    def held_cut_id(covers=None):
        """A network whose merge level already holds the id of a cut leaf."""
        return make_graph(
            [0, 1, 2],
            [["r", "cut:e2"], ["a", "b"], ["t"]],
            [
                [("e1", "r", "a"), ("e2", "r", "b"), ("e3", "cut:e2", "a")],
                [("g1", "a", "t"), ("g2", "b", "t")],
            ],
            vertex_covers=covers,
        )

    @pytest.mark.parametrize(
        "covers, message",
        [
            ([[("cut:e2", "r")], [], []], "error: decomposition needs trivial orders; "
             "vertex relations at level 0"),
        ],
    )
    def test_matrix_undecomposable_file_prints_no_csv(
        self, capsys, tmp_path, net_a, covers, message
    ):
        # b.json orders its merge level.
        write_graph(tmp_path, "a.json", net_a)
        write_graph(tmp_path, "b.json", self.held_cut_id(covers))
        write_graph(tmp_path, "c.json", net_a)
        assert main(["dist", "--matrix", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"

    def test_matrix_file_holding_a_cut_leaf_id(self, capsys, tmp_path):
        # The factor that detaches e2 puts it on cut:e2', so b.json compares
        # with its copy c.json at distance 0.
        g = self.held_cut_id()
        write_graph(tmp_path, "b.json", g)
        write_graph(tmp_path, "c.json", g)
        assert main(["dist", "--matrix", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ",b.json,c.json\nb.json,0,0\nc.json,0,0\n"
        assert main(["dist", str(tmp_path / "b.json"), str(tmp_path / "c.json")]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("matrix", [False, True], ids=["pair", "matrix"])
    def test_edge_id_in_two_gaps_is_an_input_error(self, tmp_path, net_a, matrix):
        # Joined into one children table, the two edges would make a cycle
        # that the row walk never leaves; so would an edge whose upper end
        # sits on its own lower level, once a factor keeps it.  The child
        # process runs under a timeout and a memory cap, so that such a
        # regression fails.
        for name, message in (
            ("duplicate_edge_id.json", "duplicate edge id 'e0' at gaps 0 and 1"),
            (
                "self_targeted_edge.json",
                "dangling up_map target 'v5' for edge 'e9' (expected a vertex at level 2)",
            ),
        ):
            fixture = DATA / name
            if matrix:
                folder = tmp_path / fixture.stem
                folder.mkdir()
                write_graph(folder, "a.json", net_a)
                (folder / "b.json").write_text(fixture.read_text())
                args = ["--matrix", str(folder)]
            else:
                args = [str(fixture), str(fixture)]
            done = run_module("reebtrees", "dist", *args, timeout=30, preexec_fn=cap_memory)
            assert done.returncode == 2
            assert done.stdout == ""
            assert done.stderr == f"error: {message}\n"

    def test_matrix_takes_every_suffix_pair_mode_reads(self, capsys, tmp_path):
        texts = {
            "a.nwk": "((A:1,B:1):1,C:2);",
            "b.newick": "((A:1,C:1):1,B:2);",
            "c.ENWK": "((B:1,C:1):1,A:2);",
            "notes.txt": "((A:1,B:1):1,C:2);",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "d.json").mkdir()
        assert main(["dist", "--matrix", str(tmp_path)]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows] == ["", "a.nwk", "b.newick", "c.ENWK"]
        assert all(len(row) == 4 for row in rows)
        assert main(["dist", str(tmp_path / "a.nwk"), str(tmp_path / "b.newick")]) == 0
        assert capsys.readouterr().out == rows[1][2] + "\n"

    def test_two_large_trees_stream(self, tmp_path):
        # Pair dist on two trees builds no vector: at the default p = 1 one
        # merge sweep holds O(taxa) tables, so its peak stays near that of
        # parsing the two files (about 30 MiB); the two 4000-taxon vectors
        # it once built peaked at 150 MiB.
        rng = random.Random(4000)
        files = []
        for name in ("a.enwk", "b.enwk"):
            (tmp_path / name).write_text(random_binary_tree(rng, 4000))
            files.append(str(tmp_path / name))
        done = run_python("-c", DIST_PEAK_RSS, *files, timeout=120)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) > 0
        peak = float(done.stderr)
        print(f"dist of two 4000-taxon random binary trees: peak RSS {peak:.1f} MiB")
        assert peak < 50, peak

    def test_empty_matrix_dir(self, capsys, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["dist", "--matrix", str(empty)]) == 2
        assert "no graph files" in capsys.readouterr().err

    def test_two_files_required(self, capsys, tmp_path, net_a):
        a = write_graph(tmp_path, "a.json", net_a)
        with pytest.raises(SystemExit) as info:
            main(["dist", a])
        assert info.value.code == 64


class TestGenerate:
    def test_matches_library_output(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        code = main(
            ["generate", "--seed", "7", "--leaves", "4", "--betti", "2",
             "--levels", "4", "-o", str(out)]
        )
        assert code == 0
        spec = GeneratorSpec(seed=7, n_leaves=4, betti=2, levels=4)
        assert out.read_text() == dump_text(random_graph(spec))

    def test_infeasible_shape(self, capsys):
        code = main(
            ["generate", "--seed", "0", "--leaves", "1", "--betti", "0", "--levels", "3"]
        )
        assert code == 2
        assert "single-leaf tree" in capsys.readouterr().err


class TestConvert:
    def test_to_dot_matches_golden(self, capsys):
        src = str(DATA / "ordered_pair.json")
        assert main(["convert", src, "--to", "dot"]) == 0
        assert capsys.readouterr().out == (DATA / "ordered_pair.dot").read_text()

    def test_enwk_to_json_to_enwk(self, capsys, tmp_path):
        text = "(((C:1)#H1:1,A:2)x:1,(#H1:1,B:2)y:1)r;"
        src = tmp_path / "n.enwk"
        src.write_text(text + "\n")
        mid = tmp_path / "n.json"
        assert main(["convert", str(src), "--to", "json", "-o", str(mid)]) == 0
        assert main(["convert", str(mid), "--to", "enwk"]) == 0
        assert capsys.readouterr().out == text + "\n"

    def test_enwk_drops_orders_and_ranks(self, capsys):
        # eNewick holds nodes, branches and times only: the fixture's leaf
        # ranks and vertex covers are dropped, and nothing warns of it.
        src = DATA / "crossed_covers_a.json"
        graph, ranks = load_text(src.read_text())
        assert ranks and graph.vertex_orders[0].covers
        assert main(["convert", str(src), "--to", "enwk"]) == 0
        assert capsys.readouterr() == ("(x1:1,x2:1,x3:1,x4:1)r;\n", "")

    def test_json_identity(self, capsys, tmp_path, cycle_graph):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["convert", path, "--to", "json"]) == 0
        assert capsys.readouterr().out == dump_text(cycle_graph)

    @pytest.mark.parametrize("to", ["json", "enwk", "dot"])
    def test_invalid_input_is_refused(self, capsys, tmp_path, to):
        # The up map sends edge f to zz, which no level holds.
        g = make_graph(
            [0, 1], [["a", "b"], ["t"]], [[("e", "a", "t"), ("f", "b", "zz")]]
        )
        path = write_graph(tmp_path, "g.json", g)
        assert main(["convert", path, "--to", to]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: dangling up_map target 'zz' for edge 'f' "
            "(expected a vertex at level 1)\n"
        )

    def test_factor_files_convert(self, capsys, tmp_path, cycle_graph):
        # Cut ids are allowed, as for iso: factor files are valid inputs.
        out = tmp_path / "factors"
        graph = write_graph(tmp_path, "g.json", cycle_graph)
        assert main(["decompose", graph, "--out-dir", str(out)]) == 0
        capsys.readouterr()
        first = out / "factor_0000.json"
        assert main(["convert", str(first), "--to", "json"]) == 0
        assert capsys.readouterr().out == first.read_text()


class TestPlumbing:
    @pytest.mark.parametrize("module", ["reebtrees", "reebtrees.cli"])
    def test_python_dash_m(self, tmp_path, cycle_graph, module):
        path = write_graph(tmp_path, "g.json", cycle_graph)
        done = run_module(module, "betti", path)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "euler: 1\nmerges: 1\nagree: yes\n"

    def test_calls_in_one_process_see_only_their_own_arguments(
        self, capsys, tmp_path, net_a, net_b
    ):
        # main builds its parser once per process; no flag, default or exit
        # code carries over from one call to the next.
        prefixed = make_graph(
            [0, 1], [["cut:x", "a"], ["t"]], [[("e", "cut:x", "t"), ("f", "a", "t")]]
        )
        g = write_graph(tmp_path, "g.json", prefixed)
        a = write_graph(tmp_path, "a.json", net_a, leaf_ranks={"l1": 1, "l2": 2})
        b = write_graph(tmp_path, "b.json", net_b, leaf_ranks={"xl1": 2, "xl2": 1})
        calls = [
            (["validate", "--allow-cut-ids", g], 0, "ok\n"),
            (["dist", a, b, "--p", "inf", "--time-mode=-f"], 0, "3\n"),
            (["validate", g], 1, "reserved id prefix 'cut:' on 'cut:x'\n"),
            (["dist", a, b, "--time-mode=-f"], 0, "10\n"),
            (["decompose", a, "--max-factors", "1"], 2, ""),
            (["decompose", a], 0, "factors: 2\n"),
        ]
        for argv, code, out in calls:
            assert main(argv) == code, argv
            assert capsys.readouterr().out.startswith(out), argv
        assert reebtrees.cli._build_parser() is reebtrees.cli._build_parser()

    def test_stdin_dash(self, capsys, monkeypatch, cycle_graph):
        monkeypatch.setattr("sys.stdin", io.StringIO(dump_text(cycle_graph)))
        assert main(["validate", "-"]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_forced_format_beats_sniffing(self, capsys, tmp_path):
        path = tmp_path / "tree.json"  # json extension, newick payload
        path.write_text("(A:1,B:1)r;\n")
        assert main(["validate", str(path), "--format", "enwk"]) == 0

    def test_missing_file(self, capsys):
        assert main(["betti", "/no/such/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 64

    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 64

    @pytest.mark.parametrize("p", ["0", "-1", "1.5", "x"])
    def test_bad_p_value(self, capsys, tmp_path, net_a, p):
        a = write_graph(tmp_path, "a.json", net_a)
        assert main(["dist", a, a, "--p", p]) == 2
        assert "p must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("files", [["a.json", "a.json"], ["--matrix", "."]])
    def test_negative_digits(self, capsys, tmp_path, monkeypatch, net_a, files):
        write_graph(tmp_path, "a.json", net_a)
        monkeypatch.chdir(tmp_path)
        assert main(["dist", *files, "--p", "2", "--digits", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: digits must be at least 0, not -5\n"
