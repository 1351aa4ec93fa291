"""Cophenetic vectors of rooted trees and distances built on them.

A rooted tree here is a leveled graph in which every vertex has at most one
edge arriving from above; its taxa are the bottom vertices (out-degree zero).
The vector records, for every unordered pair of taxa, the level stamp of the
lowest common ancestor, with each taxon's own stamp on the diagonal.
Distances between vectors stay exact for the 1- and sup-norms; other p-norms
return a certified decimal approximation.  Whole networks are compared by the
Hausdorff distance between the vector sets of their tree factors.

The Hausdorff kernel works on integers: both sets are multiplied by the
least common multiple of their entries' denominators and stripped of
duplicate vectors, each directed distance stops scanning for a vector's
nearest neighbour once that vector cannot raise the maximum (the exact early
break of Taha & Hanbury, IEEE TPAMI 2015), and the scale is divided out once
at the end.  The lp distance is its case of two singletons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from operator import sub
from typing import Mapping, Sequence

from .core import RESERVED_VERTEX_PREFIX, ReebGraph
from .dag import DagView, build_dag_view
from .decomposition import Factor, decompose
from .errors import (
    DimensionMismatch,
    EmptySet,
    IncompatibleShape,
    NotATree,
    NotRooted,
)


@dataclass(frozen=True)
class LeafOrdering:
    """Taxa in comparison order: ranked originals first (by rank), then
    unranked originals, then cut leaves."""

    leaves: tuple[str, ...]

    def index(self, leaf: str) -> int:
        return self.leaves.index(leaf)


def _graph_of(source: ReebGraph | Factor) -> ReebGraph:
    return source.graph if isinstance(source, Factor) else source


def leaf_order(
    source: ReebGraph | Factor, *, ranks: Mapping[str, int] | None = None
) -> LeafOrdering:
    """Deterministic taxon order.

    Originals sort by caller-supplied rank when present, otherwise by (level,
    id).  Cut leaves introduced by decomposition sort by the merge vertex they
    came from, then by the detached edge, so factors of one decomposition
    agree on positions.
    """
    graph = _graph_of(source)
    ranks = dict(ranks or {})
    sinks = [v for v in graph.vertex_ids() if graph.outdeg(v) == 0]
    originals = [v for v in sinks if not v.startswith(RESERVED_VERTEX_PREFIX)]
    cuts = [v for v in sinks if v.startswith(RESERVED_VERTEX_PREFIX)]

    def original_key(v: str):
        if v in ranks:
            return (0, ranks[v], "")
        return (1, graph.vertex_level[v], v)

    reattach = source.reattach_map if isinstance(source, Factor) else {}

    def cut_key(v: str):
        edge = v[len(RESERVED_VERTEX_PREFIX):]
        retic = reattach.get(edge)
        if retic is None:
            for a, b in graph.vertex_orders[graph.vertex_level[v]].covers:
                if b == v:
                    retic = a
                    break
        if retic is None:
            return (graph.vertex_level[v], "", edge)
        return (graph.vertex_level[retic], retic, edge)

    ordered = sorted(originals, key=original_key) + sorted(cuts, key=cut_key)
    return LeafOrdering(leaves=tuple(ordered))


@dataclass(frozen=True)
class CopheneticVector:
    """Upper-triangle stamps, pairs (i, j) with i <= j in lexicographic
    order over the stored leaf order."""

    leaves: tuple[str, ...]
    entries: tuple[Fraction, ...]
    time_mode: str

    def entry(self, i: int, j: int) -> Fraction:
        if i > j:
            i, j = j, i
        m = len(self.leaves)
        offset = i * m - i * (i - 1) // 2 + (j - i)
        return self.entries[offset]


def cophenetic_vector(
    source: ReebGraph | Factor,
    *,
    ranks: Mapping[str, int] | None = None,
    time_mode: str = "f",
) -> CopheneticVector:
    """Stamps of pairwise lowest common ancestors.

    ``time_mode`` controls the reported numbers only: "f" stamps with the
    level value itself, "-f" with its negation (useful when levels encode a
    countdown to the present, so that stamps read as ages again).
    """
    if time_mode not in ("f", "-f"):
        raise ValueError(f"time_mode must be 'f' or '-f', not {time_mode!r}")
    graph = _graph_of(source)
    for v in graph.vertex_level:
        if graph.indeg(v) > 1:
            raise NotATree(f"vertex {v!r} has {graph.indeg(v)} edges arriving from above")
    sources = [v for v in graph.vertex_ids() if graph.indeg(v) == 0]
    if len(sources) != 1:
        raise NotRooted(f"{len(sources)} source vertices, expected exactly 1")

    def parent(v: str) -> str | None:
        es = graph.above_edges.get(v, ())
        if not es:
            return None
        e = es[0]
        return graph.up_maps[graph.edge_gap[e]][e]

    def chain(v: str) -> list[str]:
        out = [v]
        while (p := parent(out[-1])) is not None:
            out.append(p)
        return out

    def stamp(v: str) -> Fraction:
        value = graph.levels[graph.vertex_level[v]]
        return value if time_mode == "f" else -value

    ordering = leaf_order(source, ranks=ranks)
    leaves = ordering.leaves
    chains = {v: chain(v) for v in leaves}
    entries: list[Fraction] = []
    for i, li in enumerate(leaves):
        pos = {v: idx for idx, v in enumerate(chains[li])}
        for j in range(i, len(leaves)):
            if i == j:
                entries.append(stamp(li))
                continue
            lca = next(v for v in chains[leaves[j]] if v in pos)
            entries.append(stamp(lca))
    return CopheneticVector(leaves=leaves, entries=tuple(entries), time_mode=time_mode)


def _iroot(x: int, p: int) -> int:
    """Largest integer r with r**p <= x."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0 or p == 1:
        return x
    if p == 2:
        return math.isqrt(x)
    r = 1 << ((x.bit_length() + p - 1) // p)
    while True:
        nr = ((p - 1) * r + x // r ** (p - 1)) // p
        if nr >= r:
            break
        r = nr
    while r**p > x:
        r -= 1
    while (r + 1) ** p <= x:
        r += 1
    return r


def nth_root_fraction(value: Fraction, p: int, digits: int) -> Fraction:
    """Approximation of value**(1/p) with absolute error below 10**-digits,
    as an exact fraction over a power of ten."""
    if value < 0:
        raise ValueError("negative radicand")
    guard = digits + 2
    scale = 10 ** (p * guard)
    base = (value.numerator * scale) // value.denominator
    return Fraction(_iroot(base, p), 10**guard)


Entries = Sequence[Fraction]


def _entries_of(u: "CopheneticVector | Entries") -> tuple[Fraction, ...]:
    if isinstance(u, CopheneticVector):
        return u.entries
    return tuple(Fraction(x) for x in u)


def _is_inf(p) -> bool:
    return p == math.inf or (isinstance(p, str) and p.lower() in ("inf", "infinity"))


def _exponent(p) -> int | None:
    """The norm's exponent, or None for the sup norm.

    Accepts inf, "inf" and "infinity" in any case, or a whole number p >= 1
    (a string of digits too); anything else raises ValueError.
    """
    if _is_inf(p):
        return None
    try:
        q = int(p)
    except (TypeError, ValueError, OverflowError):
        q = 0
    if q < 1 or (not isinstance(p, str) and q != p):
        raise ValueError(f"p must be at least 1: a whole number or inf, not {p!r}")
    return q


def _check_lengths(rows_a: list[tuple], rows_b: list[tuple]) -> None:
    """Raise for the first pair, row by row, whose lengths differ."""
    n = len(rows_a[0])
    for v in rows_b:
        if len(v) != n:
            raise DimensionMismatch(f"vector lengths differ: {n} vs {len(v)}")
    for u in rows_a:
        if len(u) != n:
            raise DimensionMismatch(f"vector lengths differ: {len(u)} vs {n}")


def _scaled(rows: list[tuple[Fraction, ...]], scale: int) -> set[tuple[int, ...]]:
    """The distinct vectors among ``rows``, multiplied by ``scale``; every
    entry's denominator divides it, so the entries become integers."""
    return {tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows}


def _cost(q: int | None):
    """Pairwise cost on integer vectors: the sup or 1-norm of the
    difference, or for q >= 2 the sum of the q-th powers (the root waits)."""
    if q is None:
        return lambda u, v: max(map(abs, map(sub, u, v)), default=0)
    if q == 1:
        return lambda u, v: sum(map(abs, map(sub, u, v)))
    return lambda u, v: sum(map(pow, map(abs, map(sub, u, v)), repeat(q)))


def _directed(a: set, b: set, cost, worst: int) -> int:
    """max(worst, max over u in a of min over v in b of cost(u, v)).

    The scan of ``b`` for ``u`` stops as soon as its running minimum is at
    or below the maximum so far, since ``u`` can no longer raise it; a ``u``
    that is also in ``b`` is skipped outright (Taha & Hanbury 2015).
    """
    for u in a:
        if u in b:
            continue
        best = math.inf
        for v in b:
            c = cost(u, v)
            if c < best:
                best = c
                if best <= worst:
                    break
        else:
            worst = best
    return worst


def _hausdorff(set_a: Sequence, set_b: Sequence, p, digits: int) -> Fraction:
    q = _exponent(p)
    rows_a = [_entries_of(u) for u in set_a]
    rows_b = [_entries_of(v) for v in set_b]
    _check_lengths(rows_a, rows_b)
    scale = math.lcm(*{x.denominator for rows in (rows_a, rows_b) for row in rows for x in row})
    a, b = _scaled(rows_a, scale), _scaled(rows_b, scale)
    cost = _cost(q)
    raw = _directed(b, a, cost, _directed(a, b, cost, 0))
    if q is None or q == 1:
        return Fraction(raw, scale)
    return nth_root_fraction(Fraction(raw, scale**q), q, digits)


def lp_distance(u, v, p=1, *, digits: int = 12) -> Fraction:
    """Distance between two vectors: the Hausdorff distance between the
    singletons {u} and {v}.

    p=1 and p=inf are exact.  Integer p >= 2 goes through one certified root
    extraction, so the result is within 10**-digits of the true value.
    """
    return _hausdorff([u], [v], p, digits)


def hausdorff_distance(
    set_a: Sequence, set_b: Sequence, p=1, *, digits: int = 12
) -> Fraction:
    """Hausdorff distance between two finite vector sets.

    Exact throughout: both sets are multiplied by the least common multiple
    of all their entries' denominators, so every pairwise cost is computed
    on integers, and duplicate vectors are dropped, since the distance sees
    only sets.  Each directed distance uses the exact early break of Taha &
    Hanbury (IEEE TPAMI 2015): the scan for a vector's nearest neighbour
    stops once it cannot raise the maximum found so far.  The scale is
    divided out once at the end.

    For integer p >= 2 the max/min structure runs on exact p-th power sums
    and the root is taken once at the very end, so the certified error bound
    applies to the final number, not to every pairwise term.
    """
    if not set_a or not set_b:
        raise EmptySet("hausdorff distance needs two nonempty collections")
    return _hausdorff(set_a, set_b, p, digits)


@dataclass(frozen=True)
class NetworkFactors:
    """A network's taxon count and cycle rank, and the cophenetic vectors of
    its tree factors.

    The vectors are computed when first read, so two networks' shapes can be
    compared before either is decomposed.
    """

    view: DagView
    taxa: int
    ranks: Mapping[str, int] | None
    time_mode: str

    @property
    def betti(self) -> int:
        return self.view.betti

    @cached_property
    def vectors(self) -> tuple[CopheneticVector, ...]:
        return tuple(
            cophenetic_vector(f, ranks=self.ranks, time_mode=self.time_mode)
            for f in decompose(self.view).factors
        )


def network_factors(
    graph: ReebGraph,
    *,
    ranks: Mapping[str, int] | None = None,
    time_mode: str = "f",
) -> NetworkFactors:
    """Classify ``graph`` (a multi-source graph raises ReticulationConflict
    here) and count its taxa; its factor vectors follow on first use."""
    view = build_dag_view(graph)
    taxa = sum(1 for v in graph.vertex_ids() if graph.outdeg(v) == 0)
    return NetworkFactors(view, taxa, ranks, time_mode)


def network_distance(
    a: ReebGraph,
    b: ReebGraph,
    *,
    p=1,
    digits: int = 12,
    ranks_a: Mapping[str, int] | None = None,
    ranks_b: Mapping[str, int] | None = None,
    time_mode: str = "f",
) -> Fraction:
    """Hausdorff distance between the cophenetic vector sets of two networks'
    tree factors.

    Both networks must expose the same number of taxa and the same cycle
    rank; anything else raises IncompatibleShape, since their vectors would
    not even share a dimension.
    """
    na = network_factors(a, ranks=ranks_a, time_mode=time_mode)
    nb = network_factors(b, ranks=ranks_b, time_mode=time_mode)
    if na.taxa != nb.taxa:
        raise IncompatibleShape(f"taxon counts differ: {na.taxa} vs {nb.taxa}")
    if na.betti != nb.betti:
        raise IncompatibleShape(f"cycle ranks differ: {na.betti} vs {nb.betti}")
    return hausdorff_distance(na.vectors, nb.vectors, p, digits=digits)
