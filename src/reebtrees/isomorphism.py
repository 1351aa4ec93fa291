"""Isomorphism decisions for leveled graphs.

canonical_form fingerprints a leveled tree, or a forest with one tree per
source, together with its level orders, exactly: equal fingerprints mean a
level- and order-preserving bijection exists.  It reads the tree's critical
skeleton (see core._Skeleton), roots it at its source, builds integer
subtree codes depth by depth, refines them by the order relations and
individualises vertices where ties remain.

reeb_iso decides isomorphism of whole graphs on their skeletons: critical
vertices (sources, sinks, non-regular vertices and those that carry an
order relation or end an edge that does) joined by long edges.  An
isomorphism of the pair refined to common levels maps critical vertices to
critical vertices and long edges to long edges, and is fixed by what it does
there, so nothing is refined and no pass-through vertex is read.  After the
level range and the skeletons' level values are compared, each skeleton
gets one colour refinement of its own, with names ranked within the graph,
and the two are run in lockstep until a step differs.  Every isomorphism
keeps the names, so when each name holds one critical vertex per graph,
they fix the one candidate map, and comparing the two graphs' certificates
(their order pairs, named) decides; tied leaves with no order relation are
interchangeable, on a tree as on a network, and are allowed.  The
fingerprint route decides the other pairs: where other names tie, and where
an ordered long edge has a parallel twin.  It rests on the paper's glue-back
argument: one factor of a, with its (merge vertex, cut leaf) covers and its
cut leaves tagged, matches some factor of b exactly when a and b are
isomorphic.  A
factor is a view of the skeleton, with each detached long edge ending at
its cut leaf, named as decompose names it; no factor graph is built.  a's
first factor is fingerprinted once, then b's factors, skipping those the
names rule out, until the first match.
decomposition_invariant fingerprints every factor view of one graph the
same way.  Fingerprints of views list the skeleton's level values only, so
their bytes differ from those of the factors' graphs, and the invariant is
equal across pass-through levels.  brute_force_iso is a plain backtracking
matcher on the refined pair, kept as an independent oracle on anything
small.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .core import (
    LevelPoset,
    ReebGraph,
    _path_up,
    common_refinement,
)
from .decomposition import CutChoice, _choices, _cut_table, _cuts, _factor_table
from .errors import LabelMismatch, MissingLabels, NotATree, SizeLimitExceeded

DEFAULT_SEARCH_BUDGET = 10_000_000


def _budget(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    raw = os.environ.get("REEB_SEARCH_BUDGET", "")
    return int(raw) if raw else DEFAULT_SEARCH_BUDGET


def _strict_pairs(poset: LevelPoset) -> list[tuple[str, str]]:
    """All pairs x < y of the order generated by the stored covers.  Working
    with the generated order keeps everything independent of how the covers
    were presented."""
    return [(x, y) for x in sorted(poset.elements) for y in sorted(poset.strictly_above(x))]


def _order_pairs(orders: Iterable[LevelPoset]) -> list[tuple[str, str]]:
    """The _strict_pairs of every nontrivial order in ``orders``."""
    return [p for o in orders if o.covers for p in _strict_pairs(o)]


def _order_counts(orders: Iterable[LevelPoset]) -> dict[str, tuple[int, int]]:
    """(elements below, elements above) in the generated order, for every
    element that carries a relation; every other element has (0, 0)."""
    out: dict[str, tuple[int, int]] = {}
    for poset in orders:
        if poset.covers:
            above = {x: poset.strictly_above(x) for x in poset.elements}
            below = Counter(y for ups in above.values() for y in ups)
            out.update((x, (below[x], len(ups))) for x, ups in above.items() if ups or below[x])
    return out


def _colours(
    graph: ReebGraph, tags: Mapping[str, int] | None, use_labels: bool
) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Vertex and edge colours, which every isomorphism preserves: (indegree,
    outdegree, elements below, elements above, sink tag) for a vertex and
    (elements below, elements above, label or "") for an edge.  Below and
    above count the generated order; the tag is -1 off sinks and untagged."""
    tags = tags or {}
    vertex_rel = _order_counts(graph.vertex_orders)
    edge_rel = _order_counts(graph.edge_orders)
    vertex: dict[str, tuple] = {}
    edge: dict[str, tuple] = {}
    for vs in graph.vertex_sets:
        for v in vs:
            out = graph.outdeg(v)
            tag = tags.get(v, -1) if out == 0 else -1
            vertex[v] = (graph.indeg(v), out, *vertex_rel.get(v, (0, 0)), tag)
    for i, es in enumerate(graph.edge_sets):
        labels = graph.gap_labels(i) if use_labels else None
        for e in es:
            edge[e] = (*edge_rel.get(e, (0, 0)), labels[e] if labels else "")
    return vertex, edge


def _prefilter(
    a: ReebGraph,
    b: ReebGraph,
    tags_a: Mapping[str, int] | None,
    tags_b: Mapping[str, int] | None,
    use_labels: bool = False,
) -> tuple[ReebGraph, ReebGraph, tuple, tuple] | None:
    """brute_force_iso's prefilter.  Check level range, refine both to the
    union of their levels (common_refinement), compare the refined pair's
    per-level vertex and per-gap edge counts, then their colour multisets.
    Returns (ra, rb, colours_a, colours_b), or None when the pair cannot be
    isomorphic.  ``use_labels`` needs full labellings on both sides
    (MissingLabels, raised once the counts agree)."""
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        return None
    ra, rb = common_refinement(a, b)
    sets_a = (ra.vertex_sets, ra.edge_sets)
    sets_b = (rb.vertex_sets, rb.edge_sets)
    if [list(map(len, xs)) for xs in sets_a] != [list(map(len, ys)) for ys in sets_b]:
        return None
    if use_labels and not (ra.has_full_labels and rb.has_full_labels):
        raise MissingLabels("use_labels requires full labellings on both sides")
    ca = _colours(ra, tags_a, use_labels)
    cb = _colours(rb, tags_b, use_labels)
    for col_a, col_b, per_a, per_b in zip(ca, cb, sets_a, sets_b):
        for xs, ys in zip(per_a, per_b):
            if sorted(col_a[x] for x in xs) != sorted(col_b[y] for y in ys):
                return None
    return ra, rb, ca, cb


class _Refinement:
    """One colour refinement of a graph's skeleton, with its names ranked
    within the graph, so that they depend only on the graph and ``tags``,
    not on its ids.

    A critical vertex starts from (skeleton level, indegree, outdegree,
    elements below, elements above, sink tag).  Sweeps run up the levels,
    each vertex taking the names of the lower ends of its long edges, each
    paired with the edge's (elements below, elements above) in the generated
    edge order, then down the levels with the upper ends, until a round
    splits no class.  A sweep names each distinct signature of its level
    (level, rank) in sorted order.  ``steps`` yields the starting multiset,
    then each sweep's sorted distinct signatures with the multiset of the
    names they give; every isomorphism keeps them all, and two graphs whose
    steps are equal get names that correspond level by level."""

    def __init__(self, graph: ReebGraph, tags: Mapping[str, int] | None) -> None:
        self.graph, self.tags = graph, tags or {}
        sk = graph._skeleton
        rel = _order_counts(graph.vertex_orders)
        self.edge_counts = _order_counts(graph.edge_orders)
        self.names: dict[str, object] = {}
        self.rows: list[list[str]] = [[] for _ in sk.levels]  # each level's vertices
        for v, i in sk.vertex_level.items():
            tag = -1 if sk.down[v] else self.tags.get(v, -1)
            self.names[v] = (i, len(sk.up[v]), len(sk.down[v]), *rel.get(v, (0, 0)), tag)
            self.rows[i].append(v)

    def steps(self) -> Iterator[Sequence]:
        """The starting multiset, then each sweep's (sorted distinct
        signatures, sorted new names); the names are stable once it is
        exhausted."""
        names, rows, sk = self.names, self.rows, self.graph._skeleton
        get = self.edge_counts.get
        yield sorted(names.values())
        # A sweep reads its own level and the levels on one side of it, and
        # refinement only adds classes, so a sweep is skipped when no level
        # it reads has split since it last ran (its own split at that run
        # needs no second run); the names are stable once a round splits no
        # level.
        k = len(rows)
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
                ends = sk.down if lower else sk.up
                sigs = [
                    (names[v], tuple(sorted([(names[w], get(e, (0, 0))) for w, e in ends[v]])))
                    for v in rows[i]
                ]
                distinct = sorted(set(sigs))
                rank = {s: (i, n) for n, s in enumerate(distinct)}
                new = list(map(rank.__getitem__, sigs))
                yield distinct, sorted(new)
                names.update(zip(rows[i], new))
                ran[i, lower] = clock
                if len(distinct) != classes[i]:
                    classes[i], split[i] = len(distinct), clock
            if max(split) <= start:
                return

    @property
    def certified(self) -> bool:
        """Whether the stable names fix every isomorphism onto another graph
        with the same steps: each name holds one critical vertex, except
        that tied leaves with no order relation, on them or on their edges,
        share their parents (every other name is then one vertex's) and are
        interchangeable, on a tree as on a network; and no long edge that
        carries an edge-order relation has a parallel one.  Otherwise
        _factor_match decides.  Read once the steps are exhausted."""
        graph, sk, rel = self.graph, self.graph._skeleton, self.edge_counts
        count = Counter(self.names.values())
        ordered = {x for o in graph.vertex_orders for cover in o.covers for x in cover}
        for v, c in self.names.items():
            if count[c] > 1 and (sk.down[v] or v in ordered or any(e in rel for _, e in sk.up[v])):
                return False
        for ends in sk.down.values() if rel else ():
            if any(e in rel and sum(x == u for x, _ in ends) > 1 for u, e in ends):
                return False
        return True

    @property
    def certificate(self) -> tuple[list, list]:
        """The generated vertex-order pairs by name, and the generated
        edge-order pairs, each ordered long edge named by its ends' names.
        Two certified graphs with equal steps are isomorphic exactly when
        their certificates are equal: the stable names keep each vertex's
        long edges below, with their edge-order counts, and on a certified
        graph every vertex and ordered long edge in a pair has a name of its
        own."""
        names, sk, rel = self.names, self.graph._skeleton, self.edge_counts
        ends = {e: (names[u], names[w]) for w, ds in sk.down.items() for u, e in ds if e in rel}
        return (
            sorted((names[x], names[y]) for x, y in _order_pairs(self.graph.vertex_orders)),
            sorted((ends[e], ends[f]) for e, f in _order_pairs(self.graph.edge_orders)),
        )


def _refinements(
    a: ReebGraph,
    b: ReebGraph,
    tags_a: Mapping[str, int] | None,
    tags_b: Mapping[str, int] | None,
) -> tuple[_Refinement, _Refinement] | None:
    """reeb_iso's prefilter: the two graphs' refinements, run in lockstep to
    their stable names, or None at the first step that differs.

    After the level range, a pair whose edge orders are not all trivial is
    refined to the union of its levels (common_refinement, which copies an
    edge's order onto the levels it inserts, which so hold critical
    vertices), and the refinements read the refined graphs; the skeletons'
    level values must then agree.  Most negative pairs end at the
    starting multisets, before any sweep; the first round of sweeps compares
    the critical vertices per level and the long edges by the levels of
    their ends."""
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        return None
    if any(o.covers for g in (a, b) for o in g.edge_orders):
        a, b = common_refinement(a, b)
    if a._skeleton.levels != b._skeleton.levels:
        return None
    ra, rb = _Refinement(a, tags_a), _Refinement(b, tags_b)
    for x, y in zip_longest(ra.steps(), rb.steps()):
        if x != y:
            return None
    return ra, rb


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Opaque, totally ordered fingerprint of a leveled tree with orders."""

    data: bytes
    # Vertex ids in the canonical numbering the fingerprint is read from;
    # reeb_iso pairs two of them into a witness.
    _vertices: tuple[str, ...] = field(default=(), init=False, repr=False, compare=False)


@dataclass(frozen=True)
class _FactorView:
    """A tree or forest as canonical_form reads it, built on a skeleton (see
    core._Skeleton) and never as a graph.  A factor of a network is the
    network's skeleton with each detached long edge ending at its cut leaf,
    named by decomposition's cut table and placed as apply_choice places it.

    ``level`` numbers each vertex's level, an index into ``levels``, the
    values the fingerprint lists; ``down`` and ``up`` give each vertex's
    (neighbour, long edge) pairs below and above it; the pairs are those of
    the generated vertex and edge orders."""

    levels: tuple[Fraction, ...]
    level: Mapping[str, int]
    down: Mapping[str, Sequence[tuple[str, str]]]
    up: Mapping[str, Sequence[tuple[str, str]]]
    vertex_pairs: Sequence[tuple[str, str]]
    edge_pairs: Sequence[tuple[str, str]]


def _skeleton_view(
    graph: ReebGraph, levels: Sequence[Fraction], level: Mapping[str, int]
) -> _FactorView:
    """The graph's skeleton as a view with nothing cut, its levels numbered
    by ``level`` into ``levels``."""
    sk = graph._skeleton
    vertex_pairs, edge_pairs = _order_pairs(graph.vertex_orders), _order_pairs(graph.edge_orders)
    return _FactorView(tuple(levels), level, sk.down, sk.up, vertex_pairs, edge_pairs)


def _cut(view: _FactorView, graph: ReebGraph, detached: Sequence[tuple[str, ...]]) -> _FactorView:
    """``view`` of ``graph``'s skeleton with each detached (merge vertex,
    long edge, cut leaf) of decomposition._cuts cut there; only the lists of
    the ends that change are new."""
    if not detached:
        return view
    sk = graph._skeleton
    level, down, up = dict(view.level), dict(view.down), dict(view.up)
    vertex_pairs = list(view.vertex_pairs)
    for m, e, cut in detached:
        (u,) = [w for w, f in up[m] if f == e]
        up[m] = tuple(p for p in up[m] if p[1] != e)
        down[u] = tuple((cut, f) if f == e else (w, f) for w, f in down[u])
        level[cut], down[cut], up[cut] = level[m], (), ((u, e),)
        # The cover (m, cut) puts the cut leaf above m and above all below m.
        order = graph.vertex_orders[sk.graph_level[sk.vertex_level[m]]]
        below = [x for x in order.elements if m in order.strictly_above(x)] if order.covers else []
        vertex_pairs += [(x, cut) for x in (m, *below)]
    return replace(view, level=level, down=down, up=up, vertex_pairs=vertex_pairs)


class _RootedTree:
    """A tree rooted at one vertex and numbered breadth-first, so parents
    precede children and every depth is one contiguous index range.  Index i
    stands for its vertex and, below the root, for the edge to its parent."""

    def __init__(
        self,
        root: str,
        adj: Mapping[str, list[tuple[str, str]]],
        level: Mapping[str, int],
        tag: Callable[[str], int],
        vertex_pairs: list[tuple[str, str]],
        edge_pairs: list[tuple[str, str]],
    ) -> None:
        ids = [root]
        parent = [-1]
        index = {root: 0}
        edge_node: dict[str, int] = {}
        self.bounds = bounds = [0, 1]
        lo = 0
        while True:
            hi = len(ids)
            for i in range(lo, hi):
                for w, e in adj[ids[i]]:
                    if w not in index:
                        index[w] = edge_node[e] = len(ids)
                        ids.append(w)
                        parent.append(i)
            if len(ids) == hi:
                break
            bounds.append(len(ids))
            lo = hi
        self.ids, self.parent, self.n = ids, parent, len(ids)
        self.children: list[list[int]] = [[] for _ in ids]
        for i in range(1, self.n):
            self.children[parent[i]].append(i)
        # Partners are (kind, index): 0 below / 1 above a vertex, 2 below /
        # 3 above an edge, in the generated orders.
        self.partners: list[list[tuple[int, int]]] = [[] for _ in ids]
        self.vertex_pairs = [(index[x], index[y]) for x, y in vertex_pairs]
        self.edge_pairs = [(edge_node[e], edge_node[f]) for e, f in edge_pairs]
        for kind, pairs in ((0, self.vertex_pairs), (2, self.edge_pairs)):
            for i, j in pairs:
                self.partners[i].append((kind, j))
                self.partners[j].append((kind + 1, i))
        self.level = [level[v] for v in ids]
        self.tag = [tag(v) for v in ids]
        # A vertex is involved when it or a descendant carries a relation;
        # lone when the relations sit on it (or its parent edge) alone.
        involved = [bool(p) for p in self.partners]
        self.lone = list(involved)
        for i in range(self.n - 1, 0, -1):
            if involved[i]:
                involved[parent[i]] = True
                self.lone[parent[i]] = False
        self.involved = [i for i in range(self.n) if involved[i]]
        self.base = []
        for lvl, t, ps in zip(self.level, self.tag, self.partners):
            counts = [0, 0, 0, 0]
            for kind, _ in ps:
                counts[kind] += 1
            self.base.append((lvl, t, *counts))

    def _up(self, col: list) -> list[int]:
        """Subtree codes, deepest depth first, interned per depth."""
        sub = [0] * self.n
        code = 0
        b, children = self.bounds, self.children
        for d in range(len(b) - 2, -1, -1):
            lo, hi = b[d], b[d + 1]
            sigs = [
                (col[i], tuple(sorted([sub[c] for c in children[i]]))) for i in range(lo, hi)
            ]
            rank = {s: k for k, s in enumerate(sorted(set(sigs)), code)}
            code += len(rank)
            sub[lo:hi] = [rank[s] for s in sigs]
        return sub

    def _down(self, sub: list[int]) -> tuple[list[int], int]:
        """Codes of the root paths: equal exactly for vertices that an
        automorphism of the rooted, coloured tree exchanges.  Also returns
        how many there are."""
        ctx = [0] * self.n
        code = 1
        b, parent = self.bounds, self.parent
        for d in range(1, len(b) - 1):
            lo, hi = b[d], b[d + 1]
            sigs = [(ctx[parent[i]], sub[i]) for i in range(lo, hi)]
            rank = {s: k for k, s in enumerate(sorted(set(sigs)), code)}
            code += len(rank)
            ctx[lo:hi] = [rank[s] for s in sigs]
        return ctx, code

    def refine(self, col: list) -> list[int]:
        """Alternate tree codes with the colours of relation partners until
        no cell splits."""
        while True:
            sub = self._up(col)
            if not self.involved:
                return sub  # siblings with equal codes are then interchangeable
            ctx, cells = self._down(sub)
            sigs = [
                (c, tuple(sorted([(kind, ctx[j]) for kind, j in ps])))
                for c, ps in zip(ctx, self.partners)
            ]
            rank = {s: k for k, s in enumerate(sorted(set(sigs)))}
            col = [rank[s] for s in sigs]
            if len(rank) == cells:
                return col

    def target(self, col: list[int]) -> list[int] | None:
        """One member per twin class of the first cell of involved vertices
        that holds more than one class; None when no such cell is left.
        Twins are lone siblings with the same relation partners: exchanging
        them is an automorphism, so either gives the same result."""
        cells: dict[int, list[int]] = {}
        for i in self.involved:
            cells.setdefault(col[i], []).append(i)
        for c in sorted(cells):
            members = cells[c]
            if len(members) < 2:
                continue
            reps: dict[object, int] = {}
            for i in members:
                key = (self.parent[i], frozenset(self.partners[i])) if self.lone[i] else i
                reps.setdefault(key, i)
            if len(reps) > 1:
                return list(reps.values())
        return None

    def certificate(self, col: list[int]) -> tuple[tuple[int, ...], list[int]]:
        """The tree read in pre-order with children sorted by colour: level,
        rank and parent number of every vertex, then the numbered vertex and
        edge order pairs.  Also the visiting order."""
        order: list[int] = []
        num = [0] * self.n
        stack = [0]
        children = self.children
        while stack:
            i = stack.pop()
            num[i] = len(order)
            order.append(i)
            if children[i]:
                stack.extend(sorted(children[i], key=col.__getitem__, reverse=True))
        flat: list[int] = []
        for i in order:
            flat += (self.level[i], self.tag[i], num[self.parent[i]] if i else -1)
        for pairs in (self.vertex_pairs, self.edge_pairs):
            flat.append(len(pairs))
            for x, y in sorted((num[i], num[j]) for i, j in pairs):
                flat += (x, y)
        return tuple(flat), order


def _centres(adj: Mapping[str, list[tuple[str, str]]], n_v: int) -> list[str]:
    """The one or two centre vertices of a tree, by leaf peeling.  A graph
    that is no tree stalls the peeling on its cycles; the vertices left
    then root a numbering that misses some, which canonical_form refuses."""
    deg = {v: len(adj[v]) for v in adj}
    removed: set[str] = set()
    layer = [v for v in adj if deg[v] <= 1]
    remaining = n_v
    while remaining > 2 and layer:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for w, _ in adj[v]:
                if w not in removed:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(v for v in adj if v not in removed)


def canonical_form(
    source: ReebGraph | _FactorView,
    *,
    leaf_ranks: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> CanonicalForm:
    """Exact fingerprint of a leveled tree, or of a forest (see below).

    Two trees receive equal fingerprints precisely when some bijection of
    vertices and edges preserves levels, attachments, and the generated level
    orders in both directions.  ``leaf_ranks`` optionally colors bottom
    vertices (out-degree zero) with an integer, making the fingerprint
    sensitive to leaf identity; unranked leaves take -1.  Edge labels are
    deliberately ignored.  Accepts a graph, or a factor view that reeb_iso
    and decomposition_invariant build on a skeleton.

    The tree is read as its skeleton: a bijection of critical vertices and
    long edges that keeps levels fixes the rest.  It is rooted at its unique
    source, or, when it has several, at its centre (at each of two centres,
    keeping the least result).  A forest in which every vertex has at most
    one arriving edge, with several sources and so one tree per source, is
    also accepted: its sources hang under one virtual root a level above the
    top, which the numbering leaves out.  Anything else raises NotATree.
    Subtree codes are built bottom-up one depth at a time and interned to
    small integers, so nothing nests and nothing recurses; order relations
    then refine them by colour refinement.  Where vertices carrying relations still tie, one
    member of the first tied cell is individualised at a time and the least
    result is kept; siblings with equal codes and the same relation partners
    are interchangeable and never branched on.  Every individualisation
    counts against ``budget`` (default REEB_SEARCH_BUDGET, else 10**7), and
    SizeLimitExceeded is raised once it is spent.  The fingerprint lists the
    level values (a graph's levels; a view's own), then each critical
    vertex's level, rank and parent in the canonical numbering, then the
    numbered order pairs.  These bytes differ from those of releases that
    numbered every vertex, pass-through ones included, and of releases that
    read a nested code from the tree's centre and broke ties by trying
    permutations; compare fingerprints made by one version.
    """
    if isinstance(source, ReebGraph):
        sk = source._skeleton
        view = _skeleton_view(
            source, source.levels, {v: sk.graph_level[i] for v, i in sk.vertex_level.items()}
        )
        n_v = sum(len(vs) for vs in source.vertex_sets)
        n_e = sum(len(es) for es in source.edge_sets)
    else:
        view = source
        n_v, n_e = len(view.level), sum(len(es) for es in view.up.values())
    # A non-critical vertex and the edge below it merge into one long edge,
    # so a graph and its skeleton have the same edges minus vertices.
    level, down, up = view.level, view.down, view.up
    sources = [v for v in level if not up[v]]
    # A forest with one arriving edge per vertex has one source per tree.
    forest = len(sources) > 1 and all(len(es) <= 1 for es in up.values())
    if n_e != n_v - 1 and not forest:
        raise NotATree(f"{n_e} edges on {n_v} vertices")

    adj = {v: [*down[v], *up[v]] for v in level}
    if forest:
        # A virtual root (None, never a vertex id) one level above the top
        # holds the trees together; it is left out of the numbering.
        adj[None] = [(v, None) for v in sources]
        level = {**level, None: len(view.levels)}
        roots = [None]
    else:
        roots = sources if len(sources) == 1 else _centres(adj, len(level))

    ranks = leaf_ranks or {}

    def tag(v: str) -> int:
        return -1 if down.get(v) else ranks.get(v, -1)

    budget_value = _budget(budget)
    branches = 0
    best = None
    for root in roots:
        tree = _RootedTree(root, adj, level, tag, view.vertex_pairs, view.edge_pairs)
        if tree.n != len(view.level) + forest:
            raise NotATree("underlying graph is not connected")
        stack = [tree.base]
        while stack:
            col = tree.refine(stack.pop())
            cell = tree.target(col)
            if cell is None:
                cert, order = tree.certificate(col)
                if best is None or cert < best[0]:
                    best = (cert, [tree.ids[i] for i in order])
                continue
            branches += len(cell)
            if branches > budget_value:
                raise SizeLimitExceeded(
                    f"canonical search branches exceed budget {budget_value}"
                )
            for i in cell:
                split = [2 * c + 1 for c in col]
                split[i] -= 1
                stack.append(split)

    cert, vertices = best
    header = [len(view.levels)]
    for lv in view.levels:
        header += (lv.numerator, lv.denominator)
    form = CanonicalForm(data=",".join(map(str, header + list(cert))).encode("ascii"))
    object.__setattr__(form, "_vertices", tuple(vertices[forest:]))
    return form


def decomposition_invariant(
    graph: ReebGraph,
    *,
    leaf_ranks: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> tuple[CanonicalForm, ...]:
    """Sorted multiset of factor fingerprints; a complete isomorphism
    invariant, up to refinement to common levels, for single-source graphs
    with trivial level orders.  Checks what decompose checks, in its order.
    Every factor is a view cut from the graph's skeleton (see _factor_form),
    its cut leaves unranked, as in apply_choice's factor graphs.  The
    fingerprints list the skeleton's level values, so the invariant is equal
    across pass-through levels, and its bytes differ from those of releases
    that fingerprinted factor graphs.  reeb_iso does not call it: one factor of a decides."""
    _, (options, leaves) = _factor_table(graph)
    sk = graph._skeleton
    whole = _skeleton_view(graph, sk.levels, sk.vertex_level)
    return tuple(
        sorted(
            _factor_form(graph, whole, leaves, choice, leaf_ranks, -1, budget)[1]
            for choice in _choices(options)
        )
    )


def _factor_form(
    graph: ReebGraph,
    whole: _FactorView,
    leaves: Mapping[str, tuple[str, str]],
    choice: CutChoice,
    leaf_ranks: Mapping[str, int] | None,
    cut_rank: int,
    budget: int | None,
) -> tuple[_FactorView, CanonicalForm]:
    """The factor ``choice`` of ``graph`` as a view cut from ``whole``, the
    view of its skeleton, with ``leaves`` the graph's cut leaves, and its
    fingerprint with ``leaf_ranks`` on the sinks and ``cut_rank`` on the cut
    leaves (-1 leaves them unranked)."""
    detached = _cuts(leaves, choice.kept_map)
    view = _cut(whole, graph, detached)
    cuts = {leaf: cut_rank for *_, leaf in detached}
    return view, canonical_form(view, leaf_ranks={**(leaf_ranks or {}), **cuts}, budget=budget)


def _factor_match(
    ra: _Refinement, rb: _Refinement, budget: int | None
) -> tuple[dict[str, str], dict[str, str]] | None:
    """The fingerprint route on two refinements that _refinements returned,
    with their stable names and their graphs' leaf ranks.

    Glue-back: a level-, cover- and rank-preserving bijection between one
    factor of a and one factor of b that sends cut leaves to cut leaves
    extends to an isomorphism of a and b, and an isomorphism maps every
    factor of a onto a factor of b, keeping the names of each kept edge's
    endpoints.  Every factor keeps the input's level orders, and its cut
    leaves carry one rank below every rank of either side, so an input cover
    from a merge vertex to a sink cannot stand in for a cut.  A graph with
    several sources has forests for factors, one tree per source.  So a's
    first factor is fingerprinted once, and b's factors whose kept edges
    join the same names are fingerprinted one at a time until one matches.
    Factors are views of the skeletons (see _FactorView), numbered by the
    skeleton levels the two sides share.  Returns the pairing of the two
    matching views' canonical numberings, as vertex and long-edge maps (see
    _witness), or None when no factor of b matches."""
    a, b = ra.graph, rb.graph
    cut_rank = min([-1, *ra.tags.values(), *rb.tags.values()]) - 1

    def joins(graph: ReebGraph, names: Mapping[str, object], options) -> dict:
        """(merge vertex, arriving long edge) -> the names of its ends."""
        up = graph._skeleton.up
        return {(v, e): (names[v], names[u]) for v, _ in options for u, e in up[v]}

    whole_a, whole_b = (
        _skeleton_view(g, g._skeleton.levels, g._skeleton.vertex_level) for g in (a, b)
    )
    options_a, leaves_a = _cut_table(a, a._skeleton)
    options_b, leaves_b = _cut_table(b, b._skeleton)
    choice_a = next(_choices(options_a))
    kept_a = sorted(map(joins(a, ra.names, options_a).__getitem__, choice_a.kept))
    view_a, form_a = _factor_form(a, whole_a, leaves_a, choice_a, ra.tags, cut_rank, budget)
    # b keeps only edges whose ends' names a kept edge joins.
    join_b, pairs_a = joins(b, rb.names, options_b), set(kept_a)
    allowed = [(v, [e for e in es if join_b[v, e] in pairs_a]) for v, es in options_b]
    for choice in _choices(allowed):
        if sorted(map(join_b.__getitem__, choice.kept)) == kept_a:
            view_b, form_b = _factor_form(b, whole_b, leaves_b, choice, rb.tags, cut_rank, budget)
            if form_b == form_a:
                # In a factor each vertex has at most one long edge arriving
                # from above, so each long edge goes where its lower end goes.
                vmap = dict(zip(form_a._vertices, form_b._vertices))
                ups = view_a.up.items()
                return vmap, {e: view_b.up[vmap[w]][0][1] for w, es in ups for _, e in es}
    return None


def _witness(
    a: ReebGraph, b: ReebGraph, vertex_map: Mapping, edge_map: Mapping
) -> MorphismWitness:
    """Expand an isomorphism of two graphs' skeletons into one of the pair
    refined to common levels, level by level along each long edge:
    ``vertex_map`` pairs the critical vertices, and ``edge_map`` at least
    the long edges that carry an order relation, whose ids refinement keeps.
    Long edges with no relation and the same ends are interchangeable, so
    those are paired by their ends."""
    ra, rb = common_refinement(a, b)
    sa, sb = ra._skeleton, rb._skeleton
    related = [{e for o in g.edge_orders for cover in o.covers for e in cover} for g in (ra, rb)]
    spare: dict[tuple[str, str], list[str]] = defaultdict(list)
    for w, ups in sb.up.items():
        for u, f in ups:
            if f not in related[1]:
                spare[u, w].append(f)
    vertex_maps: list[dict[str, str]] = [{} for _ in ra.levels]
    edge_maps: list[dict[str, str]] = [{} for _ in ra.edge_sets]
    for v, i in sa.vertex_level.items():
        vertex_maps[sa.graph_level[i]][v] = vertex_map[v]
    for w, ups in sa.up.items():
        gap = sa.graph_level[sa.vertex_level[w]]
        for u, e in ups:
            f = edge_map[e] if e in related[0] else spare[vertex_map[u], vertex_map[w]].pop()
            top = sa.graph_level[sa.vertex_level[u]]
            path_a, path_b = _path_up(ra, e, gap, top), _path_up(rb, f, gap, top)
            for j, (x, y) in enumerate(zip(path_a, path_b)):
                edge_maps[gap + j][x] = y
                if j:
                    vertex_maps[gap + j][ra.down_maps[gap + j][x]] = rb.down_maps[gap + j][y]
    return MorphismWitness(ra, rb, tuple(vertex_maps), tuple(edge_maps))


def reeb_iso(
    a: ReebGraph,
    b: ReebGraph,
    *,
    leaf_ranks_a: Mapping[str, int] | None = None,
    leaf_ranks_b: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> bool:
    """Decide whether two leveled graphs are isomorphic once refined to a
    common level set.

    Both graphs are read as their cached skeletons (critical vertices and
    long edges; see core._Skeleton), so nothing is refined and the cost
    follows the critical vertices, not the levels.  The prefilter checks the
    level range and the skeletons' level values, then refines each graph's
    critical vertices to names ranked within that graph, the two in
    lockstep, and answers False at the first step that differs (see
    _Refinement and _refinements).  When both graphs are certified (each
    name holds one critical vertex, or leaves with no order relation, which
    are interchangeable), the names fix the one candidate map, and
    comparing the two graphs' certificates (their order pairs named)
    decides; no fingerprint is built.  Otherwise, where other names
    tie or where an ordered long edge has a parallel one, the fingerprint
    route decides (see _factor_match), on every input: single-source or
    not, with level orders or without.  a's first factor is fingerprinted,
    and b's factors that the names allow are fingerprinted one at a time
    until one matches.  So a decision builds at most 1 + (number of factors
    of b) fingerprints, and 2 when the first allowed factor of b matches; it
    builds no factor graph and no witness.  Optional leaf ranks constrain
    the bijection to respect the given integer on bottom vertices (unranked
    ones must map to unranked ones).  ``budget`` bounds the fingerprints'
    tie-breaking (see canonical_form); the certificate route takes no
    branches and never raises SizeLimitExceeded.
    """
    pair = _refinements(a, b, leaf_ranks_a, leaf_ranks_b)
    if pair is None:
        return False
    ra, rb = pair
    if ra.certified and rb.certified:
        return ra.certificate == rb.certificate
    return _factor_match(ra, rb, budget) is not None


@dataclass(frozen=True)
class MorphismWitness:
    """A concrete isomorphism: one vertex bijection per level and one edge
    bijection per gap, between the stored (already refined) graphs."""

    source: ReebGraph
    target: ReebGraph
    vertex_maps: tuple[Mapping[str, str], ...]
    edge_maps: tuple[Mapping[str, str], ...]


def _orders_equivalent(
    pa: LevelPoset, pb: LevelPoset, mapping: Mapping[str, str]
) -> bool:
    for x in pa.elements:
        image = {mapping[y] for y in pa.strictly_above(x)}
        if image != pb.strictly_above(mapping[x]):
            return False
    return True


def verify_witness(witness: MorphismWitness) -> bool:
    """Re-check a witness from scratch.  Independent of how it was found."""
    a, b = witness.source, witness.target
    if a.levels != b.levels:
        return False
    if len(witness.vertex_maps) != a.level_count:
        return False
    if len(witness.edge_maps) != a.gap_count:
        return False
    for i in range(a.level_count):
        vm = witness.vertex_maps[i]
        if set(vm) != a.vertex_sets[i]:
            return False
        if set(vm.values()) != b.vertex_sets[i] or len(set(vm.values())) != len(vm):
            return False
    for i in range(a.gap_count):
        em = witness.edge_maps[i]
        if set(em) != a.edge_sets[i]:
            return False
        if set(em.values()) != b.edge_sets[i] or len(set(em.values())) != len(em):
            return False
        for e in a.edge_sets[i]:
            if b.down_maps[i][em[e]] != witness.vertex_maps[i][a.down_maps[i][e]]:
                return False
            if b.up_maps[i][em[e]] != witness.vertex_maps[i + 1][a.up_maps[i][e]]:
                return False
    for i in range(a.level_count):
        if not _orders_equivalent(
            a.vertex_orders[i], b.vertex_orders[i], witness.vertex_maps[i]
        ):
            return False
    for i in range(a.gap_count):
        if not _orders_equivalent(
            a.edge_orders[i], b.edge_orders[i], witness.edge_maps[i]
        ):
            return False
    for i in range(a.gap_count):
        la, lb = a.gap_labels(i), b.gap_labels(i)
        if (la is None) != (lb is None):
            return False
        if la is not None and lb is not None:
            for e in a.edge_sets[i]:
                if lb[witness.edge_maps[i][e]] != la[e]:
                    return False
    return True


def labelled_iso(a: ReebGraph, b: ReebGraph) -> MorphismWitness | None:
    """Decide labelled isomorphism; labels leave no freedom, so the unique
    candidate map is constructed directly and checked.

    Both graphs must carry a full labelling (MissingLabels otherwise).  After
    refinement to common levels, per-gap label sets must coincide
    (LabelMismatch otherwise); note refinement rewrites a split edge's label
    with ".lo"/".hi" suffixes, so graphs over identical level sets compare
    with their labels untouched.  Returns a witness over the refined pair, or
    None when the level ranges differ or the forced map fails any check.
    """
    if not a.has_full_labels or not b.has_full_labels:
        raise MissingLabels("labelled comparison needs a full labelling on both sides")
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        return None
    ra, rb = common_refinement(a, b)
    if tuple(len(vs) for vs in ra.vertex_sets) != tuple(len(vs) for vs in rb.vertex_sets):
        return None
    edge_maps: list[dict[str, str]] = []
    for i in range(ra.gap_count):
        la = {ra.gap_labels(i)[e]: e for e in ra.edge_sets[i]}
        lb = {rb.gap_labels(i)[e]: e for e in rb.edge_sets[i]}
        if set(la) != set(lb):
            raise LabelMismatch(f"label sets differ at gap {i}")
        edge_maps.append({la[lab]: lb[lab] for lab in la})

    # Each edge forces its endpoints' images; a vertex forced two ways, or
    # not at all, fails verify_witness's endpoint or bijection check.
    vertex_maps: list[dict[str, str]] = [{} for _ in range(ra.level_count)]
    for i, em in enumerate(edge_maps):
        for e, e2 in em.items():
            vertex_maps[i][ra.down_maps[i][e]] = rb.down_maps[i][e2]
            vertex_maps[i + 1][ra.up_maps[i][e]] = rb.up_maps[i][e2]
    witness = MorphismWitness(
        source=ra,
        target=rb,
        vertex_maps=tuple(vertex_maps),
        edge_maps=tuple(edge_maps),
    )
    return witness if verify_witness(witness) else None


def brute_force_iso(
    a: ReebGraph,
    b: ReebGraph,
    *,
    use_labels: bool = False,
    vertex_tags_a: Mapping[str, int] | None = None,
    vertex_tags_b: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> bool:
    """Backtracking isomorphism search.  Correct on every input it finishes;
    raises SizeLimitExceeded once the node budget runs out (default from
    REEB_SEARCH_BUDGET or 10**7).

    Assignment proceeds level by level from the bottom, interleaving vertex
    and edge choices so that each placed edge immediately pins its upper
    endpoint.  Order relations are compared incrementally against everything
    already placed on the same level or gap; labels constrain edges only when
    ``use_labels`` is set.  ``vertex_tags_*`` add an integer color on bottom
    vertices, matching the leaf-rank convention used elsewhere.
    """
    pre = _prefilter(a, b, vertex_tags_a, vertex_tags_b, use_labels)
    return pre is not None and _search(pre, budget)


def _search(pre: tuple[ReebGraph, ReebGraph, tuple, tuple], budget: int | None) -> bool:
    """brute_force_iso's backtracking on a pair that passed ``_prefilter``,
    whose result ``pre`` is: the refined pair and both sides' colours.

    The search keeps its choice points on an explicit stack, one per placed
    vertex or edge, so no input depth reaches Python's recursion limit."""
    ra, rb, (vinv_a, einv_a), (vinv_b, einv_b) = pre
    k = ra.level_count

    nodes_left = [_budget(budget)]
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
                f"isomorphism search budget of {_budget(budget)} nodes exhausted"
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

    def place_edge(i: int, e: str, e2: str) -> bool | None:
        """Map e to e2 and, when still free, e's upper end to e2's.  None when
        e2 does not fit; otherwise whether the upper end was placed here."""
        if e2 in used_e or einv_a[e] != einv_b[e2]:
            return None
        if rb.down_maps[i][e2] != vmap[ra.down_maps[i][e]]:
            return None
        if not edge_order_ok(i, e, e2):
            return None
        u, u2 = ra.up_maps[i][e], rb.up_maps[i][e2]
        forced = u not in vmap
        if forced:
            if not place_vertex(i + 1, u, u2):
                return None
        elif vmap[u] != u2:
            return None
        emap[e] = e2
        used_e.add(e2)
        placed_e[i].append(e)
        return forced

    def unplace_edge(i: int, e: str, forced: bool) -> None:
        placed_e[i].pop()
        used_e.discard(emap.pop(e))
        if forced:
            unplace_vertex(i + 1, ra.up_maps[i][e])

    def final_check() -> bool:
        for i in range(k):
            if not _orders_equivalent(ra.vertex_orders[i], rb.vertex_orders[i], vmap):
                return False
        for i in range(ra.gap_count):
            if not _orders_equivalent(ra.edge_orders[i], rb.edge_orders[i], emap):
                return False
        return True

    # Slot 2i places the vertices of level i and slot 2i + 1 the edges of
    # gap i, so each placed edge pins its upper end before that level's turn.
    def choice_point(start: int) -> list | None:
        """[slot, element, candidates, placement] for the first element still
        unmapped from slot ``start`` on; None once everything is mapped."""
        for si in range(start, 2 * k - 1):
            mine, theirs, done = (
                (ra.vertex_sets, rb.vertex_sets, vmap)
                if si % 2 == 0
                else (ra.edge_sets, rb.edge_sets, emap)
            )
            x = next((x for x in sorted(mine[si // 2]) if x not in done), None)
            if x is not None:
                return [si, x, iter(sorted(theirs[si // 2])), None]
        return None

    top = choice_point(0)
    if top is None:
        return final_check()
    stack = [top]
    while stack:
        top = stack[-1]
        si, x, candidates, placed = top
        i, is_vertex = si // 2, si % 2 == 0
        if placed is not None:
            if is_vertex:
                unplace_vertex(i, x)
            else:
                unplace_edge(i, x, placed)
            top[3] = None
        for y in candidates:
            spend()
            placed = (place_vertex(i, x, y) or None) if is_vertex else place_edge(i, x, y)
            if placed is not None:
                break
        else:
            stack.pop()
            continue
        top[3] = placed
        nxt = choice_point(si)
        if nxt is not None:
            stack.append(nxt)
        elif final_check():
            return True
    return False
