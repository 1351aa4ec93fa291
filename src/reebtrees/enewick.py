"""Extended Newick reading and writing.

The accepted grammar is the classic parenthesized tree with mandatory branch
lengths, where a node carrying ``#H<digits>`` may occur several times and all
its occurrences denote one network node.  At most one occurrence may carry
children (the defining site); lengths are unsigned ASCII decimals and tags
ASCII digits.  The reader makes one match of one pattern per node and per
opening parenthesis (a node's label together with the branch above it),
records each node in flat lists, numbered as nodes end, and keeps offsets,
not lines and columns; only a rejection converts its offset to the line and
column of its cause.  Times are exact: the root sits at time zero and each
branch adds its length, and all copies of a hybrid node must land on
exactly the same time.  Lengths are read as integers over one power-of-ten
scale per text, ``10**d`` where ``d`` is the most fraction digits any
length has, and times are summed and compared as such integers.  The
network keeps them so: each distinct time becomes one ``Fraction``, shared
by its nodes, only when ``times`` is first read.  network_to_reeb and
write_enewick read the integers, and reeb_to_network counts times in
integer ticks of the graph's levels.  So none of the four makes a Fraction
per node: embedding makes one per level, the graph's levels, and writing
one per distinct branch length, to format it.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby, islice, repeat
from operator import ge, itemgetter

from .core import ReebGraph, _Skeleton, _compact_graph, _fields, format_level
from .dag import build_dag_view
from .errors import (
    HybridArityError,
    NewickSyntaxError,
    TimeInconsistency,
    UnbalancedParens,
)

NAME_CHARS = re.compile(r"[A-Za-z0-9_.\-]")


class _Times:
    """The ``times`` field of PhyloNetwork.  A network that the constructor
    builds holds the mapping it is given.  One that parse_enewick or
    reeb_to_network builds holds its times as integer ticks over one scale
    (``_ticks``, see _network) and makes their Fractions, one per distinct
    time, shared by its nodes, when ``times`` is first read."""

    def __get__(self, net, owner=None):
        if net is None:
            raise AttributeError("times")  # the field has no default
        held = net.__dict__
        if "times" in held:  # unpickled from a version that held times only
            held["_times"] = held.pop("times")
        if "_times" not in held:
            scale, ticks = held["_ticks"]
            at = {t: Fraction(t, scale) for t in set(ticks.values())}
            held["_times"] = dict(zip(ticks, map(at.__getitem__, ticks.values())))
        return held["_times"]

    def __set__(self, net, times) -> None:
        net.__dict__["_times"] = times


@dataclass(frozen=True)
class PhyloNetwork:
    """Merged network: exact node times (root at 0) and parent-to-child
    edges.  Parallel edges are kept as repeated pairs."""

    root: str
    times: Mapping[str, Fraction] = _Times()
    edges: tuple[tuple[str, str], ...]


def _network(
    root: str, edges: tuple[tuple[str, str], ...], scale: int, ticks: dict[str, int]
) -> PhyloNetwork:
    """The network whose node times are ``ticks`` over ``scale``, in that
    mapping's order; it makes no Fraction until its times are read."""
    net = object.__new__(PhyloNetwork)
    net.__dict__.update(root=root, edges=edges, _ticks=(scale, ticks))
    return net


# One node of the text per match: white space, then either an opening
# parenthesis (group 1) or a node's label and the branch above it: the name
# (2), which may be empty, the "H" (3) and the digits (4) of a "#H" tag,
# white space, ':' (5), white space, an unsigned decimal (6), white space
# and the character after it (7).  The groups after "#" are empty where the
# tag breaks off, the later ones where the input does, and a decimal that
# breaks off after its '.' ends in '.'.
_NODE = re.compile(
    rf"[ \t\r\n]*(?:(\()|({NAME_CHARS.pattern}*)(?:#(H?)([0-9]*))?"
    r"[ \t\r\n]*(:?)[ \t\r\n]*((?:[0-9]+(?:\.[0-9]*)?)?)[ \t\r\n]*(.?))"
)
_WHITE = " \t\r\n"
# What write_enewick leaves unnamed, and the characters it replaces.
_HYBRID_ID = re.compile(r"#H\d+")
_UNWRITABLE = re.compile(r"[^A-Za-z0-9_.\-]")


def _position(text: str, offset: int) -> tuple[int, int]:
    """Line and column, both counted from 1, of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def parse_enewick(text: str) -> PhyloNetwork:
    """Parse one network string.  Raises positioned errors on bad syntax,
    unmatched parentheses, single-use hybrid tags, nonpositive lengths, or
    inconsistent hybrid times.

    One pattern match per node and per opening parenthesis, with an
    explicit stack of open parentheses, so the nesting depth is bounded by
    memory only.  Nodes are numbered as they end, children before their
    parent, so the root is the last; each node's entries in the lists below
    sit at its number."""
    if not text.strip(_WHITE):
        raise NewickSyntaxError("empty input", *_position(text, len(text)))
    names: list[str] = []  # as written, "" for none
    places: list[int] = []  # offset of the node's '(', or of its label
    kids: list[Sequence[int]] = []
    lengths: list[str] = []  # the branch above the node, as written
    length_places: list[int] = []
    tags: dict[int, str] = {}
    open_nodes: list[tuple[int, list[int]]] = []  # (offset of '(', children)
    closed: tuple[int, list[int]] | None = None  # the node whose ')' was just read
    # Each match starts where the one before it ended, since the pattern
    # matches at every offset; only the last can be empty.
    for m in _NODE.finditer(text):
        opening, name, h, tag, colon, length, ch = m.groups()
        if opening:
            if closed is None:
                open_nodes.append((m.start(1), []))
                continue
            # A label cannot start with '(': the closed node's branch or the
            # end of the input is missing.
            if open_nodes:
                raise NewickSyntaxError("missing branch length", *_position(text, m.start(1)))
            raise NewickSyntaxError("expected ';', found '('", *_position(text, m.start(1)))
        if h == "":
            raise NewickSyntaxError("expected 'H' after '#'", *_position(text, m.start(3)))
        if tag == "":
            raise NewickSyntaxError("expected digits after '#H'", *_position(text, m.start(4)))
        if tag is not None:
            tags[len(names)] = tag
        names.append(name)
        if closed is None:
            if not (name or tag):
                raise NewickSyntaxError("empty subtree", *_position(text, m.start(2)))
            places.append(m.start(2))
            kids.append(())
        else:
            places.append(closed[0])
            kids.append(closed[1])
            closed = None
        if not open_nodes:
            break
        if not colon:
            raise NewickSyntaxError("missing branch length", *_position(text, m.start(5)))
        if not length or length[-1] == ".":
            raise NewickSyntaxError("invalid branch length", *_position(text, m.start(6)))
        open_nodes[-1][1].append(len(lengths))
        lengths.append(length)
        length_places.append(m.start(6))
        if ch == ",":
            continue
        if ch == ")":
            closed = open_nodes.pop()
            continue
        if ch == "":
            raise UnbalancedParens("unclosed parenthesis", *_position(text, m.end()))
        raise NewickSyntaxError(
            f"expected ',' or ')', found {ch!r}", *_position(text, m.start(7))
        )
    # The root's label is read; what follows it must be ';' and white space.
    i = m.start(5)
    ch = text[i:i + 1]
    if ch == ")":
        raise UnbalancedParens("unmatched closing parenthesis", *_position(text, i))
    if ch == "":
        raise NewickSyntaxError("expected ';' at end of input", *_position(text, i))
    if ch != ";":
        raise NewickSyntaxError(f"expected ';', found {ch!r}", *_position(text, i))
    rest = text[i + 1:].lstrip(_WHITE)
    if rest:
        raise NewickSyntaxError(
            "trailing characters after ';'", *_position(text, len(text) - len(rest))
        )
    return _resolve(text, names, places, kids, lengths, length_places, tags)


def _resolve(
    text: str,
    names: list[str],
    places: list[int],
    kids: list[Sequence[int]],
    lengths: list[str],
    length_places: list[int],
    tags: dict[int, str],
) -> PhyloNetwork:
    """The network of the nodes parse_enewick read, raising what no single
    node shows: a zero length, a hybrid tag's faults, a name used twice.
    Rejections are searched for in the order of a walk from the root that
    takes children last to first (``reversed(range(n))``), each node's
    branches first to last; the network's times and edges come in that
    order too."""
    n = len(names)
    walk = range(n - 1, -1, -1)
    # One scale for the whole text: every length becomes an integer count of
    # 10**-digits, where digits is the most fraction digits of any length.
    written = set(lengths)
    digits = max((len(x) - x.find(".") - 1 for x in written if "." in x), default=0)
    scaled = {}
    for x in written:
        whole, _, frac = x.partition(".")
        scaled[x] = int(whole + frac.ljust(digits, "0"))
    scale = 10**digits
    if 0 in scaled.values():
        c = next(c for k in walk for c in kids[k] if not scaled[lengths[c]])
        raise TimeInconsistency(
            "branch length must be positive", *_position(text, length_places[c])
        )
    step = list(map(scaled.__getitem__, lengths))
    time = [0] * n
    for k in walk:
        t = time[k]
        for c in kids[k]:
            time[c] = t + step[c]

    by_tag: dict[str, list[int]] = {}
    for k in sorted(tags, reverse=True):
        by_tag.setdefault(tags[k], []).append(k)
    ids = names.copy()
    hybrid_id: dict[str, str] = {}
    for tag in sorted(by_tag):
        group = by_tag[tag]
        if len(group) == 1:
            raise HybridArityError(
                f"hybrid tag #H{tag} appears only once", *_position(text, places[group[0]])
            )
        defs = [k for k in group if kids[k]]
        if len(defs) > 1:
            raise NewickSyntaxError(
                f"hybrid #H{tag} defined more than once", *_position(text, places[defs[1]])
            )
        hybrid_names = sorted({names[k] for k in group if names[k]})
        if len(hybrid_names) > 1:
            raise NewickSyntaxError(
                f"conflicting names for hybrid #H{tag}: {', '.join(hybrid_names)}",
                *_position(text, places[group[0]]),
            )
        t0 = time[group[0]]
        for k in group[1:]:
            if time[k] != t0:
                raise TimeInconsistency(
                    f"hybrid #H{tag} occurs at times {Fraction(t0, scale)} "
                    f"and {Fraction(time[k], scale)}",
                    *_position(text, places[k]),
                )
        hybrid_id[tag] = hybrid_names[0] if hybrid_names else f"#H{tag}"
        for k in group:
            ids[k] = hybrid_id[tag]

    # Unnamed nodes get "@n0", "@n1", ... in walk order.
    plain = [k for k in walk if k not in tags] if tags else walk
    if "" in names:
        counter = 0
        for k in plain:
            if not ids[k]:
                ids[k] = f"@n{counter}"
                counter += 1
    declared = {ids[k] for k in plain} if tags else set(ids)
    if len(declared) < len(plain):
        seen: set[str] = set()
        for k in plain:
            if ids[k] in seen:
                raise NewickSyntaxError(
                    f"duplicate node name {ids[k]!r}", *_position(text, places[k])
                )
            seen.add(ids[k])
    for tag, node in hybrid_id.items():
        if node in declared:
            raise NewickSyntaxError(
                f"duplicate node name {node!r}", *_position(text, places[by_tag[tag][0]])
            )
        declared.add(node)

    edges = [(ids[k], ids[c]) for k in walk for c in kids[k]]
    # No ancestry cycle can form: lengths are positive and hybrid copies share one time.
    return _network(ids[-1], tuple(edges), scale, dict(zip(ids[::-1], time[::-1])))


def network_to_reeb(net: PhyloNetwork) -> ReebGraph:
    """Embed a network as a leveled graph with the level function set to the
    negated time, so the root is the unique vertex at the top level.  A branch
    spanning several levels is subdivided by pass-through vertices.

    The graph is compact (see the core module's note): it holds the level
    values and an _Embedding, the nodes' levels and the branches, and builds
    its vertex and edge sets, maps and orders, with every pass-through id,
    when one of them is first read.  Its skeleton is read off the network
    when first asked for (see _Embedding.skeleton)."""
    scale, ticks = _ticks(net)
    # Level i holds the i-th latest time.
    order = sorted(set(ticks.values()), reverse=True)
    if len(order) < 2:
        raise ValueError("need at least two distinct time values to build levels")
    index = {x: i for i, x in enumerate(order)}
    level_of = dict(zip(ticks, map(index.__getitem__, ticks.values())))
    lows = map(level_of.__getitem__, map(_SECOND, net.edges))
    if any(map(ge, lows, map(level_of.__getitem__, map(_FIRST, net.edges)))):
        parent, child = next(e for e in net.edges if level_of[e[1]] >= level_of[e[0]])
        raise ValueError(f"edge {parent!r} -> {child!r} does not go down in level")
    embedding = _Embedding(level_of, net.edges)
    graph = _compact_graph(tuple(Fraction(-x, scale) for x in order), embedding)
    if not embedding.reader_ids:
        # Built now, so that an edge id used twice in a gap raises here, as
        # make_graph does.
        graph.vertex_sets
    return graph


def _ticks(net: PhyloNetwork) -> tuple[int, dict[str, int]]:
    """(scale, ticks): a common denominator of the network's times and each
    node's time times it, in the order of ``times``.  A network from
    parse_enewick or reeb_to_network holds them.  For any other, scale is
    the least common denominator, and each distinct time object is read
    once, as one integer pair."""
    held = net.__dict__.get("_ticks")
    if held is not None:
        return held
    times = net.times
    values = times.values()
    distinct = dict(zip(map(id, values), values))
    # numerator and denominator, which a float lacks: times are exact.
    pairs = {k: (t.numerator, t.denominator) for k, t in distinct.items()}
    scale = math.lcm(*(d for _, d in pairs.values()))
    of = {k: n * (scale // d) for k, (n, d) in pairs.items()}
    return scale, dict(zip(times, map(of.__getitem__, map(id, values))))


# The node ids the reader makes, one per line: a name, "@n<k>" for an
# unnamed node and "#H<k>" for an unnamed hybrid.
_READER_ID = rf"(?:{NAME_CHARS.pattern}+|@n[0-9]+|#H[0-9]+)"
_READER_IDS = re.compile(rf"{_READER_ID}(?:\n{_READER_ID})*")
_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)
# Of a (long edge, parent, child) row: (parent, long edge), (child, long edge).
_UPPER_END, _LOWER_END = itemgetter(1, 0), itemgetter(2, 0)


class _Embedding:
    """The compact form of a graph network_to_reeb builds: ``level_of``
    sends each node to its level index, and ``edges`` lists the branches as
    (parent, child) pairs, as the network does.  The graph's other fields
    follow from these and its levels (``fields``); so does its skeleton,
    except where ``skeleton`` returns None.

    Branch names: the branch from child c up to parent p is ``c<p``, and
    the n-th repeat of the pair ``c<p~n``.  A branch over one gap is one
    edge of that name; a longer one is cut into edges named by ':' and
    their gap's index, joined by pass-through vertices named by '@' and
    their level's format_level."""

    def __init__(self, level_of: dict[str, int], edges: Sequence[tuple[str, str]]):
        self.level_of = level_of
        self.edges = edges

    @cached_property
    def reader_ids(self) -> bool:
        """Whether every node id is one the reader makes.  Then no node id
        holds '<', ':' or '~', nor '@' but at the start of '@n<k>', and a
        generated id is the child's id, '<', then the parent's, read back
        unambiguously: no generated id repeats another or a node's, and
        none starts with the reserved prefix."""
        try:
            return _READER_IDS.fullmatch("\n".join(self.level_of)) is not None
        except TypeError:  # an id that is no string
            return False

    @cached_property
    def plain(self) -> bool:
        """Reader-made ids and exactly one node without a parent, which is
        then on the top level.  Every other node has a branch up across the
        gap above its level, so every gap has an edge, and the graph is
        connected with one source: validate has nothing to report and the
        skeleton's checks pass.  Two plain embeddings on equal levels build
        equal graphs exactly when their ``key``s are equal."""
        children = set(map(_SECOND, self.edges))
        return self.reader_ids and len(self.level_of) - len(children) == 1

    @cached_property
    def key(self) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """The nodes' levels and each branch's count."""
        return self.level_of, dict(Counter(self.edges))

    def bases(self) -> list[str]:
        """Each branch's name, in ``edges`` order."""
        bases = [f"{c}<{p}" for p, c in self.edges]
        if len(set(self.edges)) < len(self.edges):
            seen: dict[tuple[str, str], int] = {}
            for k, pair in enumerate(self.edges):
                n = seen[pair] = seen.get(pair, -1) + 1
                if n:
                    bases[k] += f"~{n}"
        return bases

    def fields(self, levels: Sequence[Fraction]) -> dict:
        """The graph's vertex and edge sets, maps and orders.  Each set and
        map takes its ids in the order make_graph would, and an edge id used
        twice in a gap raises make_graph's ValueError."""
        vertices: list[list[str]] = [[] for _ in levels]
        for v, i in self.level_of.items():
            vertices[i].append(v)
        gaps: list[list[tuple[str, str, str]]] = [[] for _ in levels[1:]]
        at_level = [f"@{format_level(x)}" for x in levels]
        for (parent, child), base in zip(self.edges, self.bases()):
            lo = self.level_of[child]
            hi = self.level_of[parent]
            if hi == lo + 1:
                gaps[lo].append((base, child, parent))
                continue
            below = child
            for g in range(lo, hi - 1):
                above = base + at_level[g + 1]
                vertices[g + 1].append(above)
                gaps[g].append((f"{base}:{g}", below, above))
                below = above
            gaps[hi - 1].append((f"{base}:{hi - 1}", below, parent))
        downs = []
        ups = []
        for g, gap in enumerate(gaps):
            downs.append({e: d for e, d, _ in gap})
            if len(downs[-1]) < len(gap):
                seen: set[str] = set()
                e = next(e for e, _, _ in gap if e in seen or seen.add(e))
                raise ValueError(f"duplicate edge id {e!r} in gap {g}")
            ups.append({e: u for e, _, u in gap})
        return _fields([frozenset(sorted(vs)) for vs in vertices], downs, ups)

    def skeleton(self, graph: ReebGraph) -> _Skeleton | None:
        """The skeleton of ``graph``, the graph this embedding builds, read
        off the network: the nodes are the critical vertices, every level
        holds one, and each branch is one long edge, named by its lowest
        edge.  None, so that the graph finds its skeleton itself, when that
        reading could be wrong: a node with one parent and one child is
        regular, and among ids the eNewick reader did not make one may
        repeat a generated id and join what should stay apart."""
        if not self.reader_ids:
            return None
        level_of = self.level_of
        # (long edge, parent, child) for every branch, by long edge.  A long
        # edge's name starts with its child's id and '<', which no reader id
        # holds, so each child's branches are consecutive; a stable sort by
        # parent then makes each parent's consecutive too, in the same order.
        named = [
            (base if level_of[p] == level_of[c] + 1 else f"{base}:{level_of[c]}", p, c)
            for (p, c), base in zip(self.edges, self.bases())
        ]
        named.sort()
        up = dict.fromkeys(level_of, ())
        up.update(_runs(list(map(_THIRD, named)), map(_UPPER_END, named)))
        named.sort(key=_SECOND)
        down = dict.fromkeys(level_of, ())
        down.update(_runs(list(map(_SECOND, named)), map(_LOWER_END, named)))
        # A node of one branch above and one below is regular.
        if (1, 1) in zip(map(len, up.values()), map(len, down.values())):
            return None
        return _Skeleton(
            levels=graph.levels,
            graph_level=tuple(range(graph.level_count)),
            vertex_level=level_of,
            down=down,
            up=up,
        )


def _runs(keys: list, items: Iterator) -> Iterator[tuple]:
    """(key, run) for each distinct key of ``keys``, in order, where equal
    keys must stand together and ``run`` is the tuple of the ``items`` that
    stand beside them.  Each tuple is filled straight from ``items``: each
    ``islice`` takes the next run from the one iterator, and ``tuple``
    consumes it before the next is made."""
    counts = Counter(keys)
    if len(counts) == len(keys):  # every run is one item long
        return zip(keys, zip(items))
    return zip(counts, map(tuple, map(islice, repeat(items), counts.values())))


def enewick_to_reeb(text: str) -> ReebGraph:
    return network_to_reeb(parse_enewick(text))


def reeb_to_network(graph: ReebGraph) -> PhyloNetwork:
    """The graph's skeleton as a network: its long edges, with times counted
    down from the single source vertex.  A graph that the checked skeleton
    refuses (see core.ReebGraph._checked_skeleton) raises ValueError, and
    multi-source graphs are rejected by the classification step.  A regular
    vertex is critical only for a level-order relation, and is contracted
    too."""
    build_dag_view(graph)
    sk = graph._skeleton
    root = next(v for v, above in sk.up.items() if not above)
    # Times as integer ticks below the root's level, each level read once.
    pairs = [x.as_integer_ratio() for x in sk.levels]
    scale = math.lcm(*(d for _, d in pairs))
    ticks = [n * (scale // d) for n, d in pairs]
    top = ticks[sk.vertex_level[root]]
    level_time = [top - t for t in ticks]
    regular = {v for v, above in sk.up.items() if len(above) == 1 and len(sk.down[v]) == 1}
    times = {v: level_time[i] for v, i in sk.vertex_level.items() if v not in regular}
    edges: list[tuple[str, str]] = []
    for c in times:
        for w, _ in sk.up[c]:
            while w in regular:
                w = sk.up[w][0][0]
            edges.append((w, c))
    return _network(root, tuple(sorted(edges)), scale, times)


def write_enewick(net: PhyloNetwork) -> str:
    """Serialize a network.  Node names outside the writable character set
    are replaced deterministically; branch lengths must admit a finite
    decimal form.

    Every id of writable characters is written as it is.  Ids the parser
    synthesized for unnamed nodes stay unnamed, except for plain leaves,
    which need some name to be readable back; any other id, in sorted
    order, has each unwritable character replaced by '_' and then, while
    another node is written with that name, '_2', '_3', ... appended."""
    # Times as integer ticks over one scale (see _ticks), so lengths are
    # integer differences; each distinct length is formatted once.
    scale, ticks = _ticks(net)
    edges = sorted(net.edges)
    children = {p: tuple(map(_SECOND, run)) for p, run in groupby(edges, _FIRST)}
    parent_count = Counter(map(_SECOND, edges))
    hybrids = sorted(
        (v for v, n in parent_count.items() if n >= 2),
        key=lambda v: (ticks[v], v),
    )
    tag_of = {v: str(i + 1) for i, v in enumerate(hybrids)}

    # Each node's label where it is not its id.  One search over all the
    # ids tells whether any holds an unwritable character.
    label: dict[str, str] = {}
    if _UNWRITABLE.search("".join(ticks)) is not None:
        unwritable = sorted(v for v in ticks if _UNWRITABLE.search(v))
        taken = set(ticks).difference(unwritable)
        for v in unwritable:
            if (v in children or v in tag_of) and (v.startswith("@") or _HYBRID_ID.fullmatch(v)):
                label[v] = ""
                continue
            name = candidate = _UNWRITABLE.sub("_", v)
            n = 2
            while candidate in taken:
                candidate = f"{name}_{n}"
                n += 1
            taken.add(candidate)
            label[v] = candidate
    for v, tag in tag_of.items():
        label[v] = f"{label.get(v, v)}#H{tag}"

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

    # Pre-order, with a stack of the open nodes, each with an iterator over
    # its children.  A hybrid's children are written where it is first met.
    # A branch's length follows its child's subtree.
    defined: set[str] = set()
    out: list[str] = []
    stack: list[tuple[str, Iterator[str]]] = []
    v = net.root
    while True:
        kids = children.get(v)
        if kids and v in tag_of:
            if v in defined:
                kids = None
            defined.add(v)
        if kids:
            out.append("(")
            rest = iter(kids)
            stack.append((v, rest))
            v = next(rest)
            continue
        out.append(label.get(v, v))
        # v's subtree is written: close each open node it was the last child of.
        while stack:
            parent, rest = stack[-1]
            out.append(fmt_length(ticks[v] - ticks[parent]))
            v = next(rest, None)
            if v is not None:
                out.append(",")
                break
            stack.pop()
            out.append(")" + label.get(parent, parent))
            v = parent
        else:
            return "".join(out) + ";"
