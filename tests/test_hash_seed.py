"""Outputs that do not depend on the string-hash seed.

Every CLI command, and the library results that no command prints (leaf
order, cophenetic vectors, factor vectors, the refinement's steps, names and
certificate), must depend on the input alone.  The test runs this file as a
script once per hash seed 0-3, with this interpreter and its -X dev and -W
flags.  Each child runs every call on every input in-process and prints one
JSON line per (call, inputs): the exit code and sha256 digests of stdout and
stderr, with its scratch directory's path replaced by <tmp>.  The inputs are
the tests/data fixtures, the eNewick corpus, seeded generator graphs (some
with covers, labels, leaf ranks or renamed copies) and graphs that once
gave hash-dependent output.  A change that makes an output independent of
the hash seed adds the input that showed it here.

Seeds 1-3 must match seed 0 line by line.  Seed 0's lines must also keep
two invariants: iso and iso --oracle answer alike on every pair, and where
validate --allow-cut-ids rejects an input, every command that validates its
input, and pair dist, exits 2 with nothing on stdout.

One child runs by hand as ``python tests/test_hash_seed.py``, with ``src``
on PYTHONPATH; PYTHONHASHSEED picks its seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import reebtrees
from reebtrees import GeneratorSpec, ReebError, dump_text, make_graph, random_graph
from reebtrees.cli import _load_graph, main
from reebtrees.phylo import network_factors

from conftest import (
    gate_fault_graphs, rename_graph, repeated_ids_graph, shuffle_ids, two_cover_cut_leaf,
)
from test_cli import SHAPE_FAULTS, shape_fault_doc
from test_isomorphism import random_covers

DATA = Path(__file__).parent / "data"
EMPTY = hashlib.sha256(b"").hexdigest()
# The commands that validate their input, and dist, which reads the checked
# skeleton: each refuses every input that validate --allow-cut-ids rejects.
REFUSING = {"betti", "classify", "minimize", "decompose", "convert", "iso", "dist"}
SHAPES = [(2, 0, 3, 2), (3, 1, 4, 2), (4, 2, 5, 3), (3, 3, 5, 3), (5, 2, 6, 2), (4, 1, 6, 3)]


class Sweep:
    """One child's records, [call, inputs, exit code, stdout digest, stderr
    digest], with paths under ``tmp`` shown as <tmp> and under tests/data
    as data; ``tmp`` holds the inputs made here and the factor files."""

    def __init__(self, tmp: Path) -> None:
        self.tmp, self.records = tmp, []

    def name(self, text: str) -> str:
        return text.replace(str(self.tmp), "<tmp>").replace(str(DATA), "data")

    def record(self, words: list[str], paths, code, out: str, err: str) -> None:
        digests = (hashlib.sha256(self.name(x).encode()).hexdigest() for x in (out, err))
        self.records.append([[*map(self.name, words)], [*map(self.name, paths)], code, *digests])

    def run(self, words: list[str], *paths: str, files: Path | None = None) -> str:
        """main(words + paths), recorded, with the bytes of the files it
        wrote into ``files`` after its stdout; returns its stdout."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*words, *paths])
        written = [f"{f.name}\n{f.read_text()}" for f in sorted(files.glob("*"))] if files else []
        self.record(words, paths, code, "".join([out.getvalue(), *written]), err.getvalue())
        return out.getvalue()

    def write(self, file: str, text: str) -> str:
        path = self.tmp / file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return str(path)

    def generate(self, file: str, seed: int, n: int, s: int, levels: int) -> str:
        shape = [f"--seed={seed}", f"--leaves={n}", f"--betti={s}", f"--levels={levels}"]
        return self.write(file, self.run(["generate", *shape, "--max-indeg=3"]))


def inputs(sweep: Sweep) -> tuple[list[tuple[str, str]], list[str]]:
    """Each input with its partner in the pair calls (itself by default),
    and the directories that dist --matrix reads."""
    pairs = []
    partners = {"crossed_covers_a": "crossed_covers_b", "level_ranges/a": "level_ranges/b"}
    for f in [*sorted(map(str, DATA.glob("*.json"))), *sorted(map(str, DATA.glob("*/*.*")))]:
        pairs.append((f, next((f.replace(a, b) for a, b in partners.items() if a in f), f)))
    clash, ordered = str(DATA / "cut_id_clash.json"), str(DATA / "ordered_pair.json")
    copy = dump_text(rename_graph(_load_graph(clash, None)[0]))
    pairs.append((clash, sweep.write("clash-copy.json", copy)))
    copy = sweep.run(["convert", "--to=json"], ordered)
    pairs.append((ordered, sweep.write("ordered-copy.json", copy)))
    # Generated graphs, matrices of them, and minimized copies.
    merges = [sweep.generate(f"merges/g{n}.json", n, 4, 3, 5) for n in range(1, 7)]
    gray = [sweep.generate(f"gray/g{n}.json", n, 5, 6, 6) for n in range(1, 7)]
    pairs += [(g, g) for g in merges]
    for n in range(1, 5):
        g = sweep.generate(f"iso-g{n}.json", n, 4, 3, 8)
        pairs.append((g, sweep.write(f"iso-m{n}.json", sweep.run(["minimize"], g))))
    # Seeded generator graphs, each with covers, labels or leaf ranks, or
    # none, against a copy under a fixed or a random id bijection.
    rng = random.Random(43)
    for seed in range(4):
        for n, s, levels, d in SHAPES:
            spec = GeneratorSpec(seed=seed, n_leaves=n, betti=s, levels=levels, max_indeg=d)
            g, kind, ranks = random_graph(spec), (seed + n) % 4, None
            if kind == 1:
                g = random_covers(g, rng)
            elif kind == 2:
                labels = [map(str, rng.sample(range(9), len(es))) for es in g.edge_sets]
                g = dataclasses.replace(g, edge_labels=tuple(
                    dict(zip(sorted(es), ls)) for es, ls in zip(g.edge_sets, labels)
                ))
            elif kind == 3:
                ranks = {v: rng.randrange(-1, 2) for v in g.vertex_ids() if g.outdeg(v) == 0}
            if seed % 2:
                copy, ids = rename_graph(g), {v: "z" + v[::-1] for v in g.vertex_level}
            else:
                copy, ids = shuffle_ids(g, rng)
            file = f"gen/{seed}-{n}-{s}-{levels}"
            pairs.append((
                sweep.write(f"{file}.json", dump_text(g, leaf_ranks=ranks)),
                sweep.write(f"{file}-copy.json", dump_text(
                    copy, leaf_ranks=ranks and {ids[v]: r for v, r in ranks.items()}
                )),
            ))
    # A cut leaf under two covers, in both orders; ids repeated on two
    # levels; an id used as both vertex and edge, an empty top level and bad
    # label maps; levels that do not increase; shape faults.
    made = {f"two-covers-{c}": two_cover_cut_leaf(list(c)) for c in ("ac", "ca")}
    made["dup"] = repeated_ids_graph()
    made.update(gate_fault_graphs())
    made["skip"] = make_graph(  # edge lo skips level 1
        [0, 1, 2, 3],
        [["a"], ["m"], ["n"], ["b"]],
        [[("lo", "a", "n")], [("mid", "m", "n")], [("hi", "n", "b")]],
    )
    texts = {file: dump_text(g) for file, g in made.items()}
    texts.update((k, json.dumps(shape_fault_doc(f))) for k, (f, _) in SHAPE_FAULTS.items())
    pairs += [(sweep.write(f"{file}.json", text),) * 2 for file, text in texts.items()]
    g = random_graph(GeneratorSpec(seed=4, n_leaves=4, betti=2, levels=5))
    swapped = dataclasses.replace(g, levels=(g.levels[1], g.levels[0], *g.levels[2:]))
    pairs.append((sweep.write("swapped.json", dump_text(swapped)),
                  sweep.write("unswapped.json", dump_text(g))))
    # Two trees whose merges all tie, within each and across the two, over
    # unranked taxa tied at one level: the sweep's order at one key.
    pairs.append((
        sweep.write("ties/a.enwk", "((A:1,B:1,C:1)x:1,(D:1,E:1)y:1,(F:1,G:1)z:1)r;\n"),
        sweep.write("ties/b.enwk", "((A:1,D:1)u:1,(B:1,F:1,G:1)v:1,(C:1,E:1)w:1)r;\n"),
    ))
    # A bad network beside a valid tree.
    ghost = (DATA / "unknown_edge_cover.json").read_text()
    for folder, text in (("skip", texts["skip"]), ("ghost", ghost)):
        sweep.write(f"{folder}/g.json", text)
        sweep.write(f"{folder}/a.enwk", "((A:1,B:1)x:1,C:2)r;\n")
    folders = [sweep.tmp / x for x in ("merges", "gray", "skip", "ghost")]
    return pairs, [str(DATA / "newick_corpus"), *map(str, folders)]


def library_reads(graph, ranks):
    """(name, result) of each library read on a valid graph; a refusal is
    its error's class and message."""

    def refinement():
        r = reebtrees.isomorphism._Refinement(graph, ranks)
        return list(r.steps()), sorted(r.names.items()), r.certified, r.certificate

    def vector():
        v = reebtrees.cophenetic_vector(graph, ranks=ranks)
        return v.leaves, v.entries

    def vectors():
        return [(v.leaves, v._integer) for v in network_factors(graph, ranks=ranks).vectors]

    for read, f in [
        ("leaf_order", lambda: reebtrees.leaf_order(graph, ranks=ranks)),
        ("cophenetic_vector", vector),
        ("vectors", vectors),
        ("_Refinement", refinement),
    ]:
        try:
            yield read, f()
        except (ReebError, ValueError) as exc:
            yield read, f"{type(exc).__name__}: {exc}"


def records(tmp: Path) -> list[list]:
    """The records of every call on every input."""
    sweep = Sweep(tmp)
    pairs, folders = inputs(sweep)
    for n, (a, b) in enumerate(pairs):
        for words in ("validate", "validate --allow-cut-ids", "betti", "classify", "minimize"):
            sweep.run(words.split(), a)
        out = tmp / "factors" / str(n)
        sweep.run(["decompose", f"--out-dir={out}"], a, files=out)
        for to in ("json", "enwk", "dot"):
            sweep.run(["convert", f"--to={to}"], a)
        try:
            graph, ranks = _load_graph(a, None)
        except (ReebError, ValueError):
            graph = None
        for flags in ([], ["--oracle"]):
            sweep.run(["iso", *flags], a, b)
            if graph and graph.has_full_labels:
                sweep.run(["iso", "--labelled", *flags], a, b)
        for p in ("1", "2", "inf"):
            for mode in ("f", "-f"):
                sweep.run(["dist", f"--p={p}", f"--time-mode={mode}"], a, b)
        if graph and not reebtrees.validate(graph, allow_cut_ids=True):
            for read, result in library_reads(graph, ranks):
                sweep.record(["lib", read], [a], 0, repr(result), "")
    for folder in folders:
        for p in ("1", "2", "inf"):
            sweep.run(["dist", f"--matrix={folder}", f"--p={p}"])
    return sweep.records


def test_outputs_do_not_depend_on_the_hash_seed():
    src = str(Path(reebtrees.__file__).resolve().parents[1])
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    flags = [*(["-X", "dev"] if sys.flags.dev_mode else []), *(f"-W{w}" for w in sys.warnoptions)]
    children = [
        subprocess.Popen(
            [sys.executable, *flags, __file__],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path,
                 "REEB_SEARCH_BUDGET": "100000"},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for seed in range(4)
    ]
    runs = []
    try:
        for seed, child in enumerate(children):
            out, err = child.communicate(timeout=300)
            assert (child.returncode, err) == (0, ""), seed
            runs.append([json.loads(line) for line in out.splitlines()])
    finally:
        for child in children:
            child.kill()
    base = runs[0]
    for seed, run in enumerate(runs[1:], 1):
        differ = next(((x, y) for x, y in zip(base, run) if x != y), None)
        assert differ is None, f"under hash seed {seed}, {differ[1]}; under seed 0, {differ[0]}"
        assert len(run) == len(base), seed
    # The invariants, on seed 0's answers.
    answers = {(tuple(call), tuple(inputs)): tuple(rest) for call, inputs, *rest in base}
    for (call, inputs), answer in answers.items():
        if call[0] == "iso" and "--oracle" not in call:
            assert answers[(*call, "--oracle"), inputs] == answer, inputs
    rejected = {
        inputs[0]
        for (call, inputs), (code, *_) in answers.items()
        if call == ("validate", "--allow-cut-ids") and code
    }
    for (call, inputs), (code, out, _) in answers.items():
        if call[0] in REFUSING and rejected.intersection(inputs):
            assert (code, out) == (2, EMPTY), (call, inputs)
    assert len(answers) > 2200 and len(rejected) >= 10, (len(answers), len(rejected))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        for record in records(Path(scratch)):
            print(json.dumps(record))
