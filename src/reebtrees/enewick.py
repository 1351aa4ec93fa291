"""Extended Newick reading and writing.

The accepted grammar is the classic parenthesized tree with mandatory branch
lengths, where a node carrying ``#H<digits>`` may occur several times and all
its occurrences denote one network node.  At most one occurrence may carry
children (the defining site); lengths are unsigned ASCII decimals and tags
ASCII digits.  The reader matches anchored patterns at integer offsets into
the text and keeps offsets, not lines and columns; only a rejection converts
its offset to the line and column of its cause.  Times are exact: the root
sits at time zero and each branch adds its length, and all copies of a
hybrid node must land on exactly the same time.  Lengths are read as
integers over one power-of-ten scale per text, ``10**d`` where ``d`` is the
most fraction digits any length has, and times are summed and compared as
such integers; each distinct time becomes one ``Fraction`` at the end.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import itemgetter
from typing import Mapping, Sequence

from .core import ReebGraph, _Skeleton, format_level, make_graph
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


# White space, then a node's name and its "#H" hybrid tag; the name may be
# empty, and the groups after "#" are empty where the tag breaks off.
_LABEL = re.compile(rf"[ \t\r\n]*({NAME_CHARS.pattern}*)(?:#(H?)([0-9]*))?")
# White space, ':', white space, an unsigned decimal, white space and the
# character after it; a group is empty where the input breaks off, and a
# decimal that breaks off after its '.' ends in '.'.
_BRANCH = re.compile(
    r"[ \t\r\n]*(:?)[ \t\r\n]*((?:[0-9]+(?:\.[0-9]*)?)?)[ \t\r\n]*(.?)"
)
_SPACE = re.compile(r"[ \t\r\n]*")


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


@dataclass
class _Occ:
    pos: int
    name: str | None = None
    tag: str | None = None
    # (child, branch length as written, offset of the length)
    children: list[tuple["_Occ", str, int]] = field(default_factory=list)
    time: int = 0  # in units of the text's scale


def _parse_label(text: str, i: int, pos: int, children: list) -> tuple[_Occ, int]:
    """The name and hybrid tag at offset ``i``, after a node's children if
    any, for the node that starts at offset ``pos``."""
    m = _LABEL.match(text, i)
    name, h, tag = m.groups()
    if h == "":
        raise NewickSyntaxError("expected 'H' after '#'", *_position(text, m.start(2)))
    if tag == "":
        raise NewickSyntaxError(
            "expected digits after '#H'", *_position(text, m.start(3))
        )
    if not (children or name or tag):
        raise NewickSyntaxError("empty subtree", *_position(text, pos))
    return _Occ(pos=pos, name=name or None, tag=tag, children=children), m.end()


def _parse_subtree(text: str, i: int) -> tuple[_Occ, int]:
    """The subtree at offset ``i`` and the offset after it, read with an
    explicit stack of open parentheses, so the nesting depth is bounded by
    memory only."""
    open_nodes: list[tuple[int, list]] = []
    while True:
        i = _SPACE.match(text, i).end()
        if text.startswith("(", i):
            open_nodes.append((i, []))
            i += 1
            continue
        occ, i = _parse_label(text, i, i, [])
        # Attach the finished node to its parent, closing parents as ')' come.
        while open_nodes:
            m = _BRANCH.match(text, i)
            colon, length, ch = m.groups()
            if not colon:
                raise NewickSyntaxError(
                    "missing branch length", *_position(text, m.start(1))
                )
            if not length or length[-1] == ".":
                raise NewickSyntaxError(
                    "invalid branch length", *_position(text, m.start(2))
                )
            ppos, siblings = open_nodes[-1]
            siblings.append((occ, length, m.start(2)))
            i = m.end()
            if ch == ",":
                break
            if ch == ")":
                open_nodes.pop()
                occ, i = _parse_label(text, i, ppos, siblings)
                continue
            if ch == "":
                raise UnbalancedParens("unclosed parenthesis", *_position(text, i))
            raise NewickSyntaxError(
                f"expected ',' or ')', found {ch!r}", *_position(text, m.start(3))
            )
        else:
            return occ, i


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse one network string.  Raises positioned errors on bad syntax,
    unmatched parentheses, single-use hybrid tags, nonpositive lengths, or
    inconsistent hybrid times."""
    i = _SPACE.match(text).end()
    if i == len(text):
        raise NewickSyntaxError("empty input", *_position(text, i))
    top, i = _parse_subtree(text, i)
    i = _SPACE.match(text, i).end()
    ch = text[i:i + 1]
    if ch == ")":
        raise UnbalancedParens("unmatched closing parenthesis", *_position(text, i))
    if ch == "":
        raise NewickSyntaxError("expected ';' at end of input", *_position(text, i))
    if ch != ";":
        raise NewickSyntaxError(f"expected ';', found {ch!r}", *_position(text, i))
    i = _SPACE.match(text, i + 1).end()
    if i != len(text):
        raise NewickSyntaxError("trailing characters after ';'", *_position(text, i))
    return _resolve(top, text)


def _resolve(top: _Occ, text: str) -> PhyloNetwork:
    occs: list[_Occ] = []
    written: set[str] = set()
    stack = [top]
    while stack:
        occ = stack.pop()
        occs.append(occ)
        for child, length, _lpos in occ.children:
            written.add(length)
            stack.append(child)
    # One scale for the whole text: every length becomes an integer count of
    # 10**-digits, where digits is the most fraction digits of any length.
    digits = max((len(x) - x.find(".") - 1 for x in written if "." in x), default=0)
    scaled = {}
    for x in written:
        whole, _, frac = x.partition(".")
        scaled[x] = int(whole + frac.ljust(digits, "0"))
    scale = 10**digits
    for occ in occs:
        for child, length, lpos in occ.children:
            n = scaled[length]
            if n <= 0:
                raise TimeInconsistency(
                    "branch length must be positive", *_position(text, lpos)
                )
            child.time = occ.time + n

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
                f"hybrid tag #H{tag} appears only once", *_position(text, group[0].pos)
            )
        defs = [o for o in group if o.children]
        if len(defs) > 1:
            raise NewickSyntaxError(
                f"hybrid #H{tag} defined more than once", *_position(text, defs[1].pos)
            )
        names = sorted({o.name for o in group if o.name})
        if len(names) > 1:
            raise NewickSyntaxError(
                f"conflicting names for hybrid #H{tag}: {', '.join(names)}",
                *_position(text, group[0].pos),
            )
        t0 = group[0].time
        for o in group[1:]:
            if o.time != t0:
                raise TimeInconsistency(
                    f"hybrid #H{tag} occurs at times {Fraction(t0, scale)} "
                    f"and {Fraction(o.time, scale)}",
                    *_position(text, o.pos),
                )
        hybrid_id[tag] = names[0] if names else f"#H{tag}"
        for o in group:
            node_of[id(o)] = hybrid_id[tag]

    counter = 0
    declared: set[str] = set()
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
            raise NewickSyntaxError(
                f"duplicate node name {node!r}", *_position(text, occ.pos)
            )
        declared.add(node)
    for tag, node in hybrid_id.items():
        if node in declared:
            raise NewickSyntaxError(
                f"duplicate node name {node!r}", *_position(text, by_tag[tag][0].pos)
            )
        declared.add(node)

    # One Fraction per distinct time, shared by every node at that time.
    at: dict[int, Fraction] = {}
    times: dict[str, Fraction] = {}
    edges: list[tuple[str, str]] = []
    for occ in occs:
        node = node_of[id(occ)]
        t = at.get(occ.time)
        if t is None:
            t = at[occ.time] = Fraction(occ.time, scale)
        times[node] = t
        for child, _length, _lpos in occ.children:
            edges.append((node, node_of[id(child)]))
    # No ancestry cycle can form: lengths are positive and hybrid copies share one time.
    return PhyloNetwork(root=node_of[id(top)], times=times, edges=tuple(edges))


def network_to_reeb(net: PhyloNetwork) -> ReebGraph:
    """Embed a network as a leveled graph with the level function set to the
    negated time, so the root is the unique vertex at the top level.  A branch
    spanning several levels is subdivided by pass-through vertices.  The
    graph's skeleton is read off the network when first asked for (see
    _recorded_skeleton)."""
    # Nodes grouped by time, each time hashed once per node; the distinct
    # times are sorted as integers over their least common denominator.
    at: dict[Fraction, list[str]] = {}
    for v, t in net.times.items():
        at.setdefault(t, []).append(v)
    if len(at) < 2:
        raise ValueError("need at least two distinct time values to build levels")
    scale = math.lcm(*(t.denominator for t in at))
    by_level = sorted(
        at.items(), key=lambda kv: kv[0].numerator * (scale // kv[0].denominator), reverse=True
    )
    levels = [-t for t, _ in by_level]
    vertices = [vs for _, vs in by_level]
    level_of = {v: i for i, vs in enumerate(vertices) for v in vs}
    names = [format_level(x) for x in levels]
    gaps: list[list[tuple[str, str, str]]] = [[] for _ in range(len(levels) - 1)]

    # (parent, child, the branch's edge ids, lowest first), one per branch.
    branches: list[tuple[str, str, list[str]]] = []
    pair_seen: dict[tuple[str, str], int] = {}
    for parent, child in net.edges:
        n = pair_seen.get((parent, child), 0)
        pair_seen[(parent, child)] = n + 1
        base = f"{child}<{parent}" if n == 0 else f"{child}<{parent}~{n}"
        lo = level_of[child]
        hi = level_of[parent]
        if hi <= lo:
            raise ValueError(f"edge {parent!r} -> {child!r} does not go down in level")
        chain = [base] if hi == lo + 1 else [f"{base}:{g}" for g in range(lo, hi)]
        prev = child
        for g in range(lo, hi - 1):
            upper = f"{base}@{names[g + 1]}"
            vertices[g + 1].append(upper)
            gaps[g].append((chain[g - lo], prev, upper))
            prev = upper
        gaps[hi - 1].append((chain[-1], prev, parent))
        branches.append((parent, child, chain))
    graph = make_graph(levels, [sorted(vs) for vs in vertices], gaps)
    object.__setattr__(graph, "_skeleton_recipe", partial(_recorded_skeleton, level_of, branches))
    return graph


def _recorded_skeleton(
    level_of: dict[str, int],
    branches: Sequence[tuple[str, str, list[str]]],
    graph: ReebGraph,
) -> _Skeleton | None:
    """The skeleton of ``graph``, network_to_reeb's embedding of a network
    whose nodes sit at ``level_of`` and whose branches are ``branches``,
    read off the network: the nodes are the critical vertices, every level
    holds one, and each branch is one long edge, named by its lowest edge.
    None, so that the graph finds its skeleton itself, when that reading
    would be wrong: a node with one parent and one child is regular, and a
    generated id that another id repeats joins what should stay apart."""
    second = itemgetter(1)
    down: dict[str, list[tuple[str, str]]] = {v: [] for v in level_of}
    up: dict[str, list[tuple[str, str]]] = {v: [] for v in level_of}
    for parent, child, chain in branches:
        down[parent].append((child, chain[0]))
        up[child].append((parent, chain[0]))
    if any(len(a) == 1 == len(b) for a, b in zip(up.values(), down.values())):
        return None
    passing = sum(len(chain) - 1 for _, _, chain in branches)
    if (
        len(set().union(*graph.vertex_sets)) != len(level_of) + passing
        or len(set().union(*graph.edge_sets)) != len(branches) + passing
    ):
        return None
    return _Skeleton(
        levels=graph.levels,
        graph_level=tuple(range(graph.level_count)),
        vertex_level=level_of,
        down={v: tuple(sorted(ps, key=second)) if len(ps) > 1 else tuple(ps)
              for v, ps in down.items()},
        up={v: tuple(sorted(ps, key=second)) if len(ps) > 1 else tuple(ps)
            for v, ps in up.items()},
        chains={chain[0]: chain for _, _, chain in branches},
    )


def enewick_to_reeb(text: str) -> ReebGraph:
    return network_to_reeb(parse_enewick(text))


def reeb_to_network(graph: ReebGraph) -> PhyloNetwork:
    """The graph's skeleton as a network: its long edges, with times counted
    down from the single source vertex.  Ids used twice and edge ends off
    their levels raise ValueError, and multi-source graphs are rejected by
    the classification step.  A regular vertex is critical only for a
    level-order relation, and is contracted too."""
    build_dag_view(graph)
    sk = graph._skeleton
    root = next(v for v, above in sk.up.items() if not above)
    f_root = sk.levels[sk.vertex_level[root]]
    level_time = [f_root - x for x in sk.levels]
    regular = {v for v, above in sk.up.items() if len(above) == 1 and len(sk.down[v]) == 1}
    times = {v: level_time[i] for v, i in sk.vertex_level.items() if v not in regular}
    edges: list[tuple[str, str]] = []
    for c in times:
        for w, _ in sk.up[c]:
            while w in regular:
                w = sk.up[w][0][0]
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

    # Lengths as integer differences of times over one scale, the least
    # common denominator of the times; each distinct length is formatted once.
    scale = math.lcm(*{t.denominator for t in net.times.values()})
    ticks = {v: t.numerator * (scale // t.denominator) for v, t in net.times.items()}
    branch: dict[int, str] = {}

    def fmt_length(n: int) -> str:
        text = branch.get(n)
        if text is None:
            if n <= 0:
                raise ValueError("branch lengths must be positive")
            x = Fraction(n, scale)
            text = format_level(x)
            if "/" in text:
                raise ValueError(f"length {x} has no finite decimal form")
            branch[n] = text = ":" + text
        return text

    # Pre-order with an explicit stack of (kind, x, parent): a "node" x, a
    # "text" x, or the "length" of branch parent -> x, formatted after x.
    defined: set[str] = set()
    out: list[str] = []
    stack: list[tuple[str, str, str]] = [("node", net.root, "")]
    while stack:
        kind, v, parent = stack.pop()
        if kind == "text":
            out.append(v)
            continue
        if kind == "length":
            out.append(fmt_length(ticks[v] - ticks[parent]))
            continue
        tag = f"#H{tag_of[v]}" if v in tag_of else ""
        if tag and v in defined:
            out.append(safe[v] + tag)
            continue
        defined.add(v)
        if not children[v]:
            out.append(safe[v] + tag)
            continue
        out.append("(")
        stack.append(("text", ")" + safe[v] + tag, ""))
        for k, c in enumerate(reversed(children[v])):
            if k:
                stack.append(("text", ",", ""))
            stack.append(("length", c, v))
            stack.append(("node", c, ""))
    return "".join(out) + ";"
