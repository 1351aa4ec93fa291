"""Splitting a single-source leveled graph into trees by cutting merge points.

Every vertex where d >= 2 edges arrive from above contributes a factor of d to
the decomposition: each factor keeps exactly one arriving edge attached and
detaches the rest onto fresh leaf vertices at the same level.  Detached edges
remember their origin, so gluing is exact and id-for-id.  One table per
graph (_cut_leaves) names the leaf that edge ``e`` is detached onto, for
factor graphs, reeb_iso's factor views and the factor vectors alike:
``cut:<e>``, extended with ``'`` until it is free among the graph's ids and
the leaves named before it, so a cut never collides with an id.  The leaf
sits on the merge vertex's level, under the cover (merge vertex, cut leaf).
The merge vertices and their arriving edges are read off the graph's
critical skeleton (cut_options).  One gate, _factor_table, runs first in
decompose, CLI decompose, decomposition_invariant and network_factors:
build_dag_view's single-source check, then trivial level orders.
apply_choice and reeb_iso's factor views, which take graphs with level
orders or several sources, read the same table without it (_cut_table).

Every factor has n + s leaves, where n is the number of sinks of the graph and
s = sum(d - 1) over its merge vertices: each detached edge adds one cut leaf.

A factor differs from its graph only on the levels of its merge vertices.
Those levels get a new vertex set, down map and order; every other level's,
and every gap's edges, up map and order, are the graph's own objects, so
the up to 2^s factors of a graph share everything the cuts leave alone.
"""

from __future__ import annotations

import itertools
import math
from operator import lt
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .core import RESERVED_VERTEX_PREFIX, LevelPoset, ReebGraph, _Skeleton
from .dag import build_dag_view
from .errors import InvalidChoice, OrderConflict


@dataclass(frozen=True)
class CutChoice:
    """One kept arriving edge per merge vertex.

    ``kept`` pairs (merge_vertex, kept_edge), sorted by the merge vertex's
    (level index, id) so that choices compare deterministically.
    """

    kept: tuple[tuple[str, str], ...]

    @cached_property
    def kept_map(self) -> dict[str, str]:
        return dict(self.kept)


@dataclass(frozen=True)
class Factor:
    """One tree of the decomposition, plus the data needed to glue it back."""

    graph: ReebGraph
    choice: CutChoice
    detached: frozenset[str]
    reattach: tuple[tuple[str, str], ...]

    @cached_property
    def cut_vertices(self) -> tuple[str, ...]:
        g = self.graph
        return tuple(sorted(g.down_maps[g.vertex_level[m]][e] for e, m in self.reattach))


@dataclass(frozen=True)
class Decomposition:
    graph: ReebGraph
    factors: tuple[Factor, ...]


# A factor table: merge vertex -> arriving edges; edge -> (merge vertex, cut leaf).
_Options = tuple[tuple[str, tuple[str, ...]], ...]
_Leaves = dict[str, tuple[str, str]]


def cut_options(graph: ReebGraph) -> _Options:
    """Per merge vertex, the arriving edges one of which must be kept.

    Read off the graph's checked skeleton: merge vertices are ordered by
    (level index, id), and each lists the long edges arriving at it, named
    by their edges arriving there, by id.
    """
    return _options(graph._checked_skeleton)


def _options(sk: _Skeleton) -> _Options:
    """cut_options read off the skeleton ``sk``, checked or not."""
    # Vertices with two or more long edges arriving, picked out in C.
    merging = itertools.compress(sk.up, map(lt, itertools.repeat(1), map(len, sk.up.values())))
    merges = sorted((sk.vertex_level[v], v) for v in merging)
    return tuple((v, tuple(e for _, e in sk.up[v])) for _, v in merges)


def factor_count(graph: ReebGraph) -> int:
    return math.prod(len(edges) for _, edges in cut_options(graph))


def enumerate_choices(graph: ReebGraph) -> Iterator[CutChoice]:
    """All cut choices in lexicographic order over the option table."""
    return _choices(cut_options(graph))


def _choices(options: Sequence[tuple[str, Sequence[str]]]) -> Iterator[CutChoice]:
    """The cut choices of an option table, in lexicographic order."""
    vertices = tuple(v for v, _ in options)
    for picked in itertools.product(*(edges for _, edges in options)):
        yield CutChoice(kept=tuple(zip(vertices, picked)))


def make_choice(graph: ReebGraph, kept: Mapping[str, str]) -> CutChoice:
    """Build a choice from a {merge_vertex: kept_edge} mapping, rejecting
    anything that does not match the graph."""
    options = dict(cut_options(graph))
    extra = sorted(set(kept) - set(options))
    if extra:
        raise InvalidChoice(f"not merge vertices: {', '.join(extra)}")
    missing = sorted(set(options) - set(kept))
    if missing:
        raise InvalidChoice(f"no kept edge for: {', '.join(missing)}")
    for v, e in kept.items():
        if e not in options[v]:
            raise InvalidChoice(f"edge {e!r} does not arrive at {v!r}")
    return CutChoice(kept=tuple((v, kept[v]) for v in options))


def _require_trivial_orders(graph: ReebGraph) -> None:
    if not graph._ordered:
        return
    for where, orders in (
        ("vertex relations at level", graph.vertex_orders),
        ("edge relations at gap", graph.edge_orders),
    ):
        for i, poset in enumerate(orders):
            if not poset.is_trivial:
                raise OrderConflict(f"decomposition needs trivial orders; {where} {i}")


def _cut_leaves(graph: ReebGraph, options: Iterable[tuple[str, Sequence[str]]]) -> _Leaves:
    """The naming rule: each arriving edge ``e`` of ``options``, the graph's
    cut_options, -> (its merge vertex, the id of its cut leaf), in option
    order.  The id is ``cut:<e>``, extended with ``'`` until it is free
    among the graph's vertex ids, its edge ids and the leaves named before
    it, as refine_to_levels names its fresh ids.  No id of a plain compact
    graph (see core) has the prefix."""
    vertices, edges = (frozenset(), frozenset()) if graph._plain else graph._ids
    leaves: _Leaves = {}
    named: set[str] = set()
    for m, arriving in options:
        for e in arriving:
            leaf = RESERVED_VERTEX_PREFIX + e
            while leaf in vertices or leaf in edges or leaf in named:
                leaf += "'"
            named.add(leaf)
            leaves[e] = (m, leaf)
    return leaves


def _cuts(leaves: _Leaves, kept: Mapping[str, str]) -> list[tuple[str, str, str]]:
    """(merge vertex, detached edge, cut leaf) for every edge of ``leaves``
    (_cut_leaves) but the one ``kept`` maps its merge vertex to, in option
    order; with an empty ``kept``, every cut leaf any factor has."""
    return [(m, e, leaf) for e, (m, leaf) in leaves.items() if e != kept.get(m)]


def _factor_table(graph: ReebGraph) -> tuple[int, tuple[_Options, _Leaves]]:
    """The gate of every factor path, build_dag_view then trivial level
    orders; returns the cycle rank with the graph's _cut_table."""
    betti = build_dag_view(graph)
    _require_trivial_orders(graph)
    return betti, _cut_table(graph, graph._skeleton)


def _cut_table(graph: ReebGraph, sk: _Skeleton) -> tuple[_Options, _Leaves]:
    """The options read off ``sk``, a skeleton of ``graph``, checked or not,
    and the cut leaves they name; no gate: level orders and several
    sources pass."""
    options = _options(sk)
    return options, _cut_leaves(graph, options)


def apply_choice(graph: ReebGraph, choice: CutChoice) -> Factor:
    """Detach every non-kept arriving edge onto its cut leaf (_cut_leaves),
    adding the cover (merge vertex, cut leaf) to that level's order.

    Only the levels that receive a cut leaf get a new vertex set, down map
    and order; every other level of the factor is the network's own object,
    and a graph with no merge vertex is its factor's graph itself.
    """
    options, leaves = _cut_table(graph, graph._checked_skeleton)
    table = dict(options)
    if set(choice.kept_map) != set(table):
        raise InvalidChoice("choice does not cover exactly the merge vertices")
    for retic, keep_edge in choice.kept:
        if keep_edge not in table[retic]:
            raise InvalidChoice(f"edge {keep_edge!r} does not arrive at {retic!r}")
    return _apply_choice(graph, leaves, choice)


def _apply_choice(graph: ReebGraph, leaves: _Leaves, choice: CutChoice) -> Factor:
    """apply_choice of a choice that matches ``leaves``, the graph's
    _cut_leaves, which the caller computed once for all its choices."""
    vsets = list(graph.vertex_sets)
    downs = list(graph.down_maps)
    orders = list(graph.vertex_orders)
    # Level -> (merge vertex, detached edge, cut leaf) triples cut there.
    cuts: dict[int, list[tuple[str, str, str]]] = {}
    for cut in _cuts(leaves, choice.kept_map):
        cuts.setdefault(graph.vertex_level[cut[0]], []).append(cut)
    for lvl, level_cuts in cuts.items():
        moved = {e: leaf for _, e, leaf in level_cuts}
        vsets[lvl] = vsets[lvl].union(moved.values())
        downs[lvl] = {**downs[lvl], **moved}
        orders[lvl] = LevelPoset(
            vsets[lvl], orders[lvl].covers.union((m, leaf) for m, _, leaf in level_cuts)
        )
    # A tree has nothing to cut and is its own single factor.
    fgraph = graph if not cuts else replace(
        graph, vertex_sets=tuple(vsets), down_maps=tuple(downs), vertex_orders=tuple(orders)
    )
    reattach = sorted((e, m) for level_cuts in cuts.values() for m, e, _ in level_cuts)
    return Factor(
        graph=fgraph,
        choice=choice,
        detached=frozenset(e for e, _ in reattach),
        reattach=tuple(reattach),
    )


def decompose(graph: ReebGraph) -> Decomposition:
    """Full decomposition: one factor per cut choice, in enumeration order.

    The input must classify cleanly (single source) and carry trivial level
    orders, since the factors populate the orders themselves.  The option
    table is built once, not once per factor.
    """
    _, (options, leaves) = _factor_table(graph)
    return Decomposition(
        graph=graph,
        factors=tuple(_apply_choice(graph, leaves, c) for c in _choices(options)),
    )


def glue_back(factor: Factor) -> ReebGraph:
    """Reverse the cuts: drop the cut leaves and point every detached edge at
    its recorded merge vertex again.  Output is exactly the graph the factor
    came from; levels without a cut leaf are the factor's own objects."""
    g = factor.graph
    # Gap -> {detached edge: merge vertex} for the edges cut there.
    back: dict[int, dict[str, str]] = {}
    for e, retic in factor.reattach:
        gap = g.edge_gap[e]
        if not g.down_maps[gap][e].startswith(RESERVED_VERTEX_PREFIX):
            raise ValueError(f"edge {e!r} is not attached to a cut vertex")
        back.setdefault(gap, {})[e] = retic
    vsets = list(g.vertex_sets)
    downs = list(g.down_maps)
    orders = list(g.vertex_orders)
    for i, edges in back.items():
        vsets[i] = vs = vsets[i].difference(downs[i][e] for e in edges)
        downs[i] = {**downs[i], **edges}
        orders[i] = LevelPoset(
            vs, frozenset((a, b) for a, b in orders[i].covers if a in vs and b in vs)
        )
    return replace(
        g, vertex_sets=tuple(vsets), down_maps=tuple(downs), vertex_orders=tuple(orders)
    )
