"""Extended Newick reading and writing.

The accepted grammar is the classic parenthesized tree with mandatory branch
lengths, where a node carrying ``#H<digits>`` may occur several times and all
its occurrences denote one network node.  At most one occurrence may carry
children (the defining site); lengths are unsigned decimals.  Parsing tracks
line and column so every rejection points at its cause.  Times are exact:
the root sits at time zero and each branch adds its length, and all copies of
a hybrid node must land on exactly the same time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .core import ReebGraph, format_level, make_graph
from .dag import build_dag_view
from .errors import (
    HybridArityError,
    NewickSyntaxError,
    TimeInconsistency,
    UnbalancedParens,
)

NAME_CHARS = re.compile(r"[A-Za-z0-9_.\-]")


@dataclass(frozen=True)
class PhyloNetwork:
    """Merged network: exact node times (root at 0) and parent-to-child
    edges.  Parallel edges are kept as repeated pairs."""

    root: str
    times: Mapping[str, Fraction]
    edges: tuple[tuple[str, str], ...]


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


def _parse_subtree(cur: _Cursor) -> _Occ:
    cur.skip_ws()
    pos = cur.pos()
    children: list[tuple[_Occ, Fraction, tuple[int, int]]] = []
    if cur.peek() == "(":
        cur.advance()
        while True:
            child = _parse_subtree(cur)
            cur.skip_ws()
            if cur.peek() != ":":
                raise NewickSyntaxError("missing branch length", *cur.pos())
            cur.advance()
            length, lpos = _parse_length(cur)
            children.append((child, length, lpos))
            cur.skip_ws()
            ch = cur.peek()
            if ch == ",":
                cur.advance()
                continue
            if ch == ")":
                cur.advance()
                break
            if ch == "":
                raise UnbalancedParens("unclosed parenthesis", *cur.pos())
            raise NewickSyntaxError(f"expected ',' or ')', found {ch!r}", *cur.pos())
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


def parse_enewick(text: str) -> PhyloNetwork:
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


def network_to_reeb(net: PhyloNetwork) -> ReebGraph:
    """Embed a network as a leveled graph with the level function set to the
    negated time, so the root is the unique vertex at the top level.  A branch
    spanning several levels is subdivided by pass-through vertices."""
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


def enewick_to_reeb(text: str) -> ReebGraph:
    return network_to_reeb(parse_enewick(text))


def reeb_to_network(graph: ReebGraph) -> PhyloNetwork:
    """Contract away pass-through vertices and report times counted down from
    the single source vertex.  Multi-source graphs are rejected by the
    classification step."""
    view = build_dag_view(graph)
    root = view.root
    f_root = graph.levels[graph.vertex_level[root]]

    def regular(v: str) -> bool:
        return graph.indeg(v) == 1 and graph.outdeg(v) == 1

    nodes = [v for v in graph.vertex_ids() if not regular(v)]
    times = {v: f_root - graph.levels[graph.vertex_level[v]] for v in nodes}
    edges: list[tuple[str, str]] = []
    for c in nodes:
        for e in graph.above_edges.get(c, ()):
            w = graph.up_maps[graph.edge_gap[e]][e]
            while regular(w):
                e2 = graph.above_edges[w][0]
                w = graph.up_maps[graph.edge_gap[e2]][e2]
            edges.append((w, c))
    return PhyloNetwork(root=root, times=times, edges=tuple(sorted(edges)))


def write_enewick(net: PhyloNetwork) -> str:
    """Serialize a network.  Node names outside the writable character set
    are replaced deterministically; branch lengths must admit a finite
    decimal form."""
    children: dict[str, list[str]] = {v: [] for v in net.times}
    parent_count: dict[str, int] = {v: 0 for v in net.times}
    for p, c in sorted(net.edges):
        children[p].append(c)
        parent_count[c] += 1

    hybrids = sorted(
        (v for v, n in parent_count.items() if n >= 2),
        key=lambda v: (net.times[v], v),
    )
    tag_of = {v: str(i + 1) for i, v in enumerate(hybrids)}

    safe: dict[str, str] = {}
    taken: set[str] = set()
    for v in sorted(net.times):
        # Ids synthesized by the parser for unnamed nodes stay unnamed,
        # except for plain leaves, which need some name to be readable back.
        if (v.startswith("@") or re.fullmatch(r"#H\d+", v)) and (
            children[v] or v in tag_of
        ):
            safe[v] = ""
            continue
        name = re.sub(r"[^A-Za-z0-9_.\-]", "_", v)
        candidate = name
        n = 2
        while candidate in taken:
            candidate = f"{name}_{n}"
            n += 1
        taken.add(candidate)
        safe[v] = candidate

    def fmt_length(x: Fraction) -> str:
        if x <= 0:
            raise ValueError("branch lengths must be positive")
        text = format_level(x)
        if "/" in text:
            raise ValueError(f"length {x} has no finite decimal form")
        return text

    defined: set[str] = set()

    def emit(v: str) -> str:
        tag = f"#H{tag_of[v]}" if v in tag_of else ""
        if tag and v in defined:
            return safe[v] + tag
        defined.add(v)
        if not children[v]:
            return safe[v] + tag
        parts = [
            f"{emit(c)}:{fmt_length(net.times[c] - net.times[v])}"
            for c in children[v]
        ]
        return "(" + ",".join(parts) + ")" + safe[v] + tag

    return emit(net.root) + ";"
