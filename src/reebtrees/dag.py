"""Vertex classes and cycle ranks of a leveled graph, read as a directed graph.

Edges are oriented downward (top endpoint to bottom endpoint), so a vertex's
in-degree counts edges arriving from the gap above and its out-degree counts
edges leaving into the gap below.  build_dag_view is the single-source check:
it counts the cycle rank on the graph's critical skeleton (core._Skeleton),
the one source of merge vertices that decompose, the distances and reeb_iso
read, and returns it once the merge count, read off the sources, agrees.
classify and reeb_to_network call it; every factor path goes through
decomposition's one gate (_factor_table), which calls it before it checks
the level orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import countOf

from .core import ReebGraph
from .errors import ReticulationConflict


class VertexKind(Enum):
    TREE = "tree"
    RETICULATION = "reticulation"
    LEAF = "leaf"
    REGULAR = "regular"


@dataclass(frozen=True)
class VertexClass:
    vertex: str
    level_index: int
    indegree: int
    outdegree: int
    kind: VertexKind
    is_leaf: bool


def classify_vertex(graph: ReebGraph, v: str) -> VertexClass:
    ind = graph.indeg(v)
    out = graph.outdeg(v)
    leaf = out == 0 or (out == 1 and ind == 0)
    if ind >= 2:
        kind = VertexKind.RETICULATION
    elif leaf:
        kind = VertexKind.LEAF
    elif ind == 1 and out == 1:
        kind = VertexKind.REGULAR
    else:
        kind = VertexKind.TREE
    return VertexClass(
        vertex=v,
        level_index=graph.vertex_level[v],
        indegree=ind,
        outdegree=out,
        kind=kind,
        is_leaf=leaf,
    )


def betti_euler(graph: ReebGraph) -> int:
    """First Betti number by Euler count: edges - vertices + 1 for a
    connected graph."""
    n_e = sum(len(es) for es in graph.edge_sets)
    n_v = sum(len(vs) for vs in graph.vertex_sets)
    return n_e - n_v + 1


def betti_reticulation(graph: ReebGraph) -> int:
    """First Betti number by merge count: the sum of (indegree - 1) over all
    vertices with indegree at least 2.  Edges sent to an id that is no
    vertex count for nothing."""
    level = graph.vertex_level
    return sum(len(es) - 1 for v, es in graph.above_edges.items() if v in level)


def source_vertices(graph: ReebGraph) -> tuple[str, ...]:
    """Vertices with no edge arriving from above, in deterministic order."""
    return tuple(v for v in graph.vertex_ids() if graph.indeg(v) == 0)


def build_dag_view(graph: ReebGraph) -> int:
    """The graph's cycle rank, once its two Betti computations agree.

    Both are read off the graph's checked skeleton, whose long edges and
    critical vertices have the graph's Euler count and merges; a graph that
    ``_checked_skeleton`` refuses raises its ValueError.  Each vertex adds
    its edges above less one to the merge count, and a source adds nothing,
    so that count is the Euler count plus the sources less one.  When the
    counts disagree the graph has multiple sources (several local maxima of
    the level function), the decomposition theory does not apply, and
    ReticulationConflict is raised carrying both values.
    """
    sk = graph._checked_skeleton
    b_euler = sum(map(len, sk.down.values())) - len(sk.vertex_level) + 1
    extra = countOf(sk.up.values(), ()) - 1
    if extra:
        sources = source_vertices(graph)
        raise ReticulationConflict(
            f"cycle-rank mismatch: euler count {b_euler} vs merge count {b_euler + extra} "
            f"({len(sources)} source vertices: {', '.join(sources)})"
        )
    return b_euler
