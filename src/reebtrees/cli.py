"""Command line front end.

Exit codes: 0 for success (or a positive decision), 1 for a negative decision
(invalid graph, not isomorphic, incomparable networks), 2 for errors in the
input or the requested operation, 64 for usage mistakes.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from functools import cache
from pathlib import Path

from .core import format_level, minimize_critical_set, validate
from .dag import betti_euler, betti_reticulation, build_dag_view, classify_vertex
from .decomposition import _apply_choice, _choices, _cuts, _factor_table
from .enewick import enewick_to_reeb, reeb_to_network, write_enewick
from .errors import IncompatibleShape, ReebError
from .generator import GeneratorSpec, random_graph
from .isomorphism import brute_force_iso, labelled_iso, reeb_iso
from .phylo import _check_norm, hausdorff_distance, network_distance, network_factors
from .serialize import _check_ranks, dump_text, load_text, to_dot


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems get their own exit code
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


_ENWK_SUFFIXES = (".enwk", ".nwk", ".newick")


def _sniff(path: str) -> str:
    if path == "-":
        return "json"
    return "enwk" if Path(path).suffix.lower() in _ENWK_SUFFIXES else "json"


def _load_graph(path: str, fmt: str | None):
    text = _read_text(path)
    if (fmt or _sniff(path)) == "enwk":
        return enewick_to_reeb(text), None
    return load_text(text)


def _load_valid(path: str, fmt: str | None):
    """_load_graph, then validate with cut ids allowed, so that factor files
    written by decompose --out-dir load; raises on the first violation."""
    graph, ranks = _load_graph(path, fmt)
    problems = validate(graph, allow_cut_ids=True)
    if problems:
        raise ValueError(f"{path}: {problems[0]}")
    return graph, ranks


def _load_ranks(path: str | None, embedded):
    if path is None:
        return embedded
    import json

    return _check_ranks(json.loads(_read_text(path)), "")


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def cmd_validate(args) -> int:
    graph, _ = _load_graph(args.graph, args.format)
    problems = validate(graph, allow_cut_ids=args.allow_cut_ids)
    if not problems:
        print("ok")
        return 0
    for line in problems:
        print(line)
    return 1


def cmd_betti(args) -> int:
    graph, _ = _load_valid(args.graph, args.format)
    b1 = betti_euler(graph)
    b2 = betti_reticulation(graph)
    print(f"euler: {b1}")
    print(f"merges: {b2}")
    print(f"agree: {'yes' if b1 == b2 else 'no'}")
    return 0


def cmd_classify(args) -> int:
    graph, _ = _load_valid(args.graph, args.format)
    build_dag_view(graph)
    for v in graph.vertex_ids():
        c = classify_vertex(graph, v)
        level = format_level(graph.levels[c.level_index])
        tail = "\tleaf" if c.is_leaf else ""
        print(
            f"{c.vertex}\t{level}\t{c.kind.value}\tin={c.indegree}\tout={c.outdegree}{tail}"
        )
    return 0


def cmd_minimize(args) -> int:
    graph, ranks = _load_valid(args.graph, args.format)
    _write_out(dump_text(minimize_critical_set(graph), leaf_ranks=ranks), args.out)
    return 0


def cmd_decompose(args) -> int:
    graph, _ = _load_valid(args.graph, args.format)
    _, (options, leaves) = _factor_table(graph)  # the library decompose's gate
    total = math.prod(len(edges) for _, edges in options)
    if total > args.max_factors:
        print(
            f"error: {total} factors exceed the cap of {args.max_factors}",
            file=sys.stderr,
        )
        return 2
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    print(f"factors: {total}")
    for n, choice in enumerate(_choices(options)):
        kept = " ".join(f"{v}<-{e}" for v, e in choice.kept)
        cut = ",".join(sorted(e for _, e, _ in _cuts(leaves, choice.kept_map))) or "-"
        print(f"factor {n}: keep [{kept or '-'}] cut [{cut}]")
        if out_dir is not None:
            factor = _apply_choice(graph, leaves, choice)
            path = out_dir / f"factor_{n:04d}.json"
            path.write_text(dump_text(factor.graph), encoding="utf-8")
    return 0


def cmd_iso(args) -> int:
    graph_a, embedded_a = _load_valid(args.a, args.format)
    graph_b, embedded_b = _load_valid(args.b, args.format)
    if args.labelled:
        if args.oracle:
            same = brute_force_iso(graph_a, graph_b, use_labels=True)
        else:
            same = labelled_iso(graph_a, graph_b) is not None
        print("isomorphic" if same else "not isomorphic")
        return 0 if same else 1
    ranks_a = _load_ranks(args.ranks_a, embedded_a)
    ranks_b = _load_ranks(args.ranks_b, embedded_b)
    if args.oracle:
        same = brute_force_iso(
            graph_a, graph_b, vertex_tags_a=ranks_a, vertex_tags_b=ranks_b
        )
    else:
        same = reeb_iso(graph_a, graph_b, leaf_ranks_a=ranks_a, leaf_ranks_b=ranks_b)
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def cmd_dist(args) -> int:
    p = args.p
    _check_norm(p, args.digits)  # a bad --p or --digits fails before any file is read
    if args.matrix:
        directory = Path(args.matrix)
        suffixes = (".json", *_ENWK_SUFFIXES)
        files = sorted(
            (f for f in directory.glob("*") if f.suffix.lower() in suffixes and f.is_file()),
            key=lambda f: f.name,
        )
        if not files:
            print(f"error: no graph files in {directory}", file=sys.stderr)
            return 2
        loaded = [(f.name, *_load_graph(str(f), None)) for f in files]
        # Every file is decomposed once, in name order, before anything is
        # written: a bad file exits 2 with no partial CSV, and the error
        # reported is the first bad file's.
        nets = []
        for _, graph, ranks in loaded:
            net = network_factors(graph, ranks=ranks, time_mode=args.time_mode)
            nets.append(((net.taxa, net.betti), net.vectors))
        cells = [["0"] * len(nets) for _ in nets]
        for i, (shape_a, vectors_a) in enumerate(nets):
            for j in range(i + 1, len(nets)):
                shape_b, vectors_b = nets[j]
                if shape_a != shape_b:
                    value = "NA"
                else:
                    d = hausdorff_distance(vectors_a, vectors_b, p, digits=args.digits)
                    value = format_level(d)
                cells[i][j] = cells[j][i] = value
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([""] + [name for name, _, _ in loaded])
        for (name, _, _), row in zip(loaded, cells):
            writer.writerow([name, *row])
        return 0
    graph_a, embedded_a = _load_graph(args.a, args.format)
    graph_b, embedded_b = _load_graph(args.b, args.format)
    ranks_a = _load_ranks(args.ranks_a, embedded_a)
    ranks_b = _load_ranks(args.ranks_b, embedded_b)
    try:
        d = network_distance(
            graph_a,
            graph_b,
            p=p,
            digits=args.digits,
            ranks_a=ranks_a,
            ranks_b=ranks_b,
            time_mode=args.time_mode,
        )
    except IncompatibleShape as exc:
        print(f"incomparable: {exc}")
        return 1
    print(format_level(d))
    return 0


def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        seed=args.seed,
        n_leaves=args.leaves,
        betti=args.betti,
        levels=args.levels,
        max_indeg=args.max_indeg,
    )
    _write_out(dump_text(random_graph(spec)), args.out)
    return 0


def cmd_convert(args) -> int:
    graph, ranks = _load_valid(args.graph, args.format)
    if args.to == "json":
        _write_out(dump_text(graph, leaf_ranks=ranks), args.out)
    elif args.to == "dot":
        _write_out(to_dot(graph), args.out)
    else:
        _write_out(write_enewick(reeb_to_network(graph)) + "\n", args.out)
    return 0


@cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="reebtrees",
        description="Leveled graphs, their tree decompositions, and distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def graph_arg(p, name="graph"):
        p.add_argument(name, help="input file (JSON, or eNewick by extension); '-' for stdin")
        p.add_argument(
            "--format",
            choices=["json", "enwk"],
            help="force the input format instead of sniffing the extension",
        )

    p = sub.add_parser("validate", help="check structural invariants")
    graph_arg(p)
    p.add_argument(
        "--allow-cut-ids",
        action="store_true",
        help="accept the reserved prefix used by decomposition output",
    )
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("betti", help="report both cycle-rank computations")
    graph_arg(p)
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("classify", help="classify every vertex")
    graph_arg(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("minimize", help="drop levels holding only pass-through vertices")
    graph_arg(p)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("decompose", help="enumerate the tree factors")
    graph_arg(p)
    p.add_argument("--out-dir", help="write each factor as JSON into this directory")
    p.add_argument(
        "--max-factors",
        type=int,
        default=10000,
        help="refuse to enumerate more factors than this (default 10000)",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("iso", help="decide isomorphism of two graphs")
    p.add_argument("a", help="first graph file")
    p.add_argument("b", help="second graph file")
    p.add_argument("--format", choices=["json", "enwk"], help="force input format")
    p.add_argument("--labelled", action="store_true", help="compare with edge labels")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="use the backtracking search instead of the decomposition route",
    )
    p.add_argument("--ranks-a", help="JSON file of leaf ranks for the first graph")
    p.add_argument("--ranks-b", help="JSON file of leaf ranks for the second graph")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("dist", help="distance between two networks")
    p.add_argument("a", nargs="?", help="first graph file")
    p.add_argument("b", nargs="?", help="second graph file")
    p.add_argument("--format", choices=["json", "enwk"], help="force input format")
    p.add_argument("--p", default="1", help="norm parameter: a positive integer or inf")
    p.add_argument("--digits", type=int, default=12, help="certified digits for p >= 2")
    p.add_argument(
        "--time-mode",
        choices=["f", "-f"],
        default="f",
        help="stamp entries with the level value (f) or its negation (use --time-mode=-f)",
    )
    p.add_argument("--ranks-a", help="JSON file of leaf ranks for the first graph")
    p.add_argument("--ranks-b", help="JSON file of leaf ranks for the second graph")
    p.add_argument(
        "--matrix",
        help="directory of graph files; print the full pairwise CSV instead",
    )
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("generate", help="seeded random graph with exact shape")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--leaves", type=int, required=True)
    p.add_argument("--betti", type=int, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--max-indeg", type=int, default=2)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("convert", help="rewrite between json, enwk, and dot")
    graph_arg(p)
    p.add_argument("--to", choices=["json", "enwk", "dot"], required=True)
    p.add_argument("-o", "--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_convert)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "dist" and not args.matrix and (args.a is None or args.b is None):
        parser.error("dist needs two graph files unless --matrix is given")
    try:
        return args.func(args)
    except (ReebError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
