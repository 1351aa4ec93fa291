"""Splitting a single-source leveled graph into trees by cutting merge points.

Every vertex where d >= 2 edges arrive from above contributes a factor of d to
the decomposition: each factor keeps exactly one arriving edge attached and
detaches the rest onto fresh leaf vertices at the same level.  Detached edges
remember their origin, so gluing is exact and id-for-id.  The leaf that edge
``e`` is detached onto is named ``cut:<e>``, an id that must be new to the
whole network: ``apply_choice`` and the factor vectors check it alike.
The merge vertices and their arriving edges are read off the graph's
critical skeleton (cut_options), the one table that decompose, the factor
vectors and reeb_iso share.

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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .core import RESERVED_VERTEX_PREFIX, LevelPoset, ReebGraph
from .dag import DagView, build_dag_view
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
        return tuple(sorted(RESERVED_VERTEX_PREFIX + e for e in self.detached))


@dataclass(frozen=True)
class Decomposition:
    view: DagView
    factors: tuple[Factor, ...]


def cut_options(source: ReebGraph | DagView) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Per merge vertex, the arriving edges one of which must be kept.

    Read off the graph's skeleton: merge vertices are ordered by (level
    index, id), and each lists the long edges arriving at it, named by
    their edges arriving there, by id.  Accepts a graph, as decompose does.
    """
    graph = source.graph if isinstance(source, DagView) else source
    sk = graph._skeleton
    merges = sorted((sk.vertex_level[v], v) for v, ups in sk.up.items() if len(ups) > 1)
    return tuple((v, tuple(e for _, e in sk.up[v])) for _, v in merges)


def factor_count(view: DagView) -> int:
    return math.prod(len(edges) for _, edges in cut_options(view))


def enumerate_choices(view: DagView) -> Iterator[CutChoice]:
    """All cut choices in lexicographic order over the option table."""
    return _choices(cut_options(view))


def _choices(options: Sequence[tuple[str, Sequence[str]]]) -> Iterator[CutChoice]:
    """The cut choices of an option table, in lexicographic order."""
    vertices = tuple(v for v, _ in options)
    for picked in itertools.product(*(edges for _, edges in options)):
        yield CutChoice(kept=tuple(zip(vertices, picked)))


def make_choice(view: DagView, kept: Mapping[str, str]) -> CutChoice:
    """Build a choice from a {merge_vertex: kept_edge} mapping, rejecting
    anything that does not match the graph."""
    options = dict(cut_options(view))
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
    for i, poset in enumerate(graph.vertex_orders):
        if not poset.is_trivial:
            raise OrderConflict(
                f"decomposition needs trivial orders; vertex relations at level {i}"
            )
    for i, poset in enumerate(graph.edge_orders):
        if not poset.is_trivial:
            raise OrderConflict(
                f"decomposition needs trivial orders; edge relations at gap {i}"
            )


def _detached(
    graph: ReebGraph, options: Iterable[tuple[str, Sequence[str]]], choice: CutChoice
) -> list[tuple[str, str]]:
    """The (merge vertex, detached edge) pairs of ``choice``, in option order.
    Raises if the network holds a detached edge's cut leaf id on any level."""
    pairs = [(v, e) for v, edges in options for e in edges if e != choice.kept_map[v]]
    for _, e in pairs:
        if RESERVED_VERTEX_PREFIX + e in graph.vertex_level:
            raise ValueError(f"cut vertex id {RESERVED_VERTEX_PREFIX + e!r} already present")
    return pairs


def _check_cut_ids(graph: ReebGraph, options: Sequence[tuple[str, Sequence[str]]]) -> None:
    """Raise what ``_detached`` raises for the first choice, in enumeration
    order, that detaches an edge whose cut leaf id the network holds; one
    lookup per arriving edge.

    The first choice keeps every merge's first edge and detaches the rest,
    so a held id on any other edge shows there.  Failing that, the first
    clashing choice keeps the first edge everywhere but at the last merge
    whose first edge is held, which keeps its second.
    """
    held = [
        (j, i) for j, (_, edges) in enumerate(options)
        for i, e in enumerate(edges) if RESERVED_VERTEX_PREFIX + e in graph.vertex_level
    ]
    if not held:
        return
    picked = [0] * len(options)
    if all(i == 0 for _, i in held):
        picked[held[-1][0]] = 1
    _detached(graph, options, CutChoice(
        kept=tuple((v, edges[i]) for (v, edges), i in zip(options, picked))
    ))


def apply_choice(view: DagView, choice: CutChoice) -> Factor:
    """Detach every non-kept arriving edge onto a fresh leaf ``cut:<edge>`` at
    the merge vertex's level, recording (kept leaf below merge vertex) in
    that level's order.  A cut leaf's id must be new to the whole network:
    a choice that detaches an edge whose cut leaf id the network already
    holds, on any level, raises ValueError.

    Only the levels that receive a cut leaf get a new vertex set, down map
    and order; every other level of the factor is the network's own object,
    and a graph with no merge vertex is its factor's graph itself.
    """
    graph = view.graph
    options = dict(cut_options(view))
    if set(choice.kept_map) != set(options):
        raise InvalidChoice("choice does not cover exactly the merge vertices")
    vsets = list(graph.vertex_sets)
    downs = list(graph.down_maps)
    orders = list(graph.vertex_orders)
    # Level -> (merge vertex, detached edge) pairs cut there.
    cuts: dict[int, list[tuple[str, str]]] = {}
    for retic, keep_edge in choice.kept:
        if keep_edge not in options[retic]:
            raise InvalidChoice(f"edge {keep_edge!r} does not arrive at {retic!r}")
    for retic, e in _detached(graph, options.items(), choice):
        cuts.setdefault(graph.vertex_level[retic], []).append((retic, e))
    for lvl, pairs in cuts.items():
        leaves = {e: RESERVED_VERTEX_PREFIX + e for _, e in pairs}
        vsets[lvl] = vsets[lvl].union(leaves.values())
        downs[lvl] = {**downs[lvl], **leaves}
        orders[lvl] = LevelPoset(
            vsets[lvl],
            orders[lvl].covers.union((retic, leaves[e]) for retic, e in pairs),
        )
    # A tree has nothing to cut and is its own single factor.
    fgraph = graph if not cuts else replace(
        graph, vertex_sets=tuple(vsets), down_maps=tuple(downs), vertex_orders=tuple(orders)
    )
    reattach = sorted((e, retic) for pairs in cuts.values() for retic, e in pairs)
    return Factor(
        graph=fgraph,
        choice=choice,
        detached=frozenset(e for e, _ in reattach),
        reattach=tuple(reattach),
    )


def decompose(source: ReebGraph | DagView) -> Decomposition:
    """Full decomposition: one factor per cut choice, in enumeration order.

    The input must classify cleanly (single source) and carry trivial level
    orders, since the factors populate the orders themselves.
    """
    view = source if isinstance(source, DagView) else build_dag_view(source)
    _require_trivial_orders(view.graph)
    return Decomposition(
        view=view, factors=tuple(apply_choice(view, c) for c in enumerate_choices(view))
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
