"""Cophenetic vectors of rooted trees and distances built on them.

A rooted tree here is a leveled graph in which every vertex has at most one
edge arriving from above; its taxa are the bottom vertices (out-degree zero).
The vector records, for every unordered pair of taxa, the level stamp of the
lowest common ancestor, with each taxon's own stamp on the diagonal.
Distances between vectors stay exact for the 1- and sup-norms; other p-norms
return a certified decimal approximation.  Whole networks are compared by the
Hausdorff distance between the vector sets of their tree factors.

Vectors are read off a graph's critical skeleton (core._Skeleton): its
sources, sinks, merge and branching vertices, joined by long edges through
the pass-through vertices, which stamp nothing.  A graph that
network_to_reeb embeds gets that skeleton from the network itself.  A
vector is built from one row of stamps against every taxon, which goes
from taxon to taxon in the taxon order: between two taxa only the range of
their lowest common ancestor changes, and it is filled again top-down along
the next taxon's ancestors.  That is O(taxa^2) slice work, and one
interpreted step per vertex on those paths: O(critical vertices) when the
taxon order follows the tree, at most taxa x depth.  Stamps are computed
once per level in integer form (times the LCM of their denominators), and
a vector keeps its entries once, in that form; its Fractions are made when
``entries`` is read.  Each taxon's row is gathered from its own place in
the taxon order on, straight into the vector's tuple, so a vector costs
one gather per entry and holds no second copy while it is built.

A network's factor vectors need no factor graph: a factor differs from its
network only in that each detached long edge ends at its own cut leaf, and
every factor has the same stamp levels.  The walk runs once, for the first
cut choice, over tables read off the skeleton once per network, and keeps
full rows.  The other choices follow in reflected mixed-radix Gray-code
order (Knuth, TAOCP 7.2.1.1), so each moves one merge's kept edge e to its
neighbour e' in the merge's sorted edge list.  Then the merge's subtree S
moves under the upper end of e', and the cut leaf c under that of e; c
keeps its place in the taxon order.  Stamps within S and between S and c
stay, and against every other taxon S takes c's old stamps and c the old
stamps of S.  So a factor after the first costs O(|S| * taxa) list updates
and one packing.

The Hausdorff kernel works on those integers: both sets are brought to the
least common multiple of their vectors' scales and stripped of duplicate
vectors, each directed distance stops scanning for a vector's nearest
neighbour once that vector cannot raise the maximum (the exact early break
of Taha & Hanbury, IEEE TPAMI 2015), and the scale is divided out once at
the end.  Plain sequences are converted once per call.  The lp distance is
its case of two singletons.

network_distance of two trees (cycle rank 0 on both sides) reads no
vector: each tree is its own one factor, so the distance is the lp
distance of their two vectors, a sum or a maximum over unordered pairs of
taxa that any order of the pairs gives alike.  Both trees are stamped at
the LCM of their scales, and a taxon pairs with the taxon at the same
place of the other tree's taxon order.  For p = 1 and inf, one sweep runs
upward over both trees' branching vertices, read as merge trees, in
O(taxa log taxa) time and O(taxa) memory.  The 1-norm counts, at each
merge, the pairs it joins that the other tree has joined already, through
contingency tables merged smaller into larger (the pair counting behind
the Rand index).  The sup norm asks, at each merge, the other tree's
largest stamp over the pairs it joins: one range maximum over that tree's
adjacent-taxon ancestors, which makes it the labelled interleaving
distance of the two merge trees (Gasparovic, Munch, Oudot, Turner, Wang &
Wang 2019).  Other p walk rows, in O(taxa^2) time: the first tree walks
its rows in its own pre-order, where a row's part from its taxon on is a
plain slice; the second walks the partners of those taxa in the same
sequence and gathers each row's part once; each pair of parts adds its
sum of p-th powers, unless they are equal, as the Hausdorff kernel skips
an equal vector.  That holds one row per tree, O(taxa) memory.  Networks
with cycle rank 1 or more, and the matrix of the command line, which
compares each network with every other, read the factor vectors.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, filterfalse, repeat
from operator import countOf, getitem, itemgetter, methodcaller, mul, sub
from typing import Iterator, Mapping, NamedTuple, Sequence

from .core import RESERVED_VERTEX_PREFIX, ReebGraph, _Skeleton
from .decomposition import Factor, _cuts, _factor_table
from .errors import (
    DimensionMismatch,
    EmptySet,
    IncompatibleShape,
    NotATree,
    NotRooted,
)


_FIRST = itemgetter(0)
_IS_CUT = methodcaller("startswith", RESERVED_VERTEX_PREFIX)


def _graph_of(source: ReebGraph | Factor) -> ReebGraph:
    return source.graph if isinstance(source, Factor) else source


def leaf_order(
    source: ReebGraph | Factor, *, ranks: Mapping[str, int] | None = None
) -> tuple[str, ...]:
    """Taxa in comparison order: ranked originals first (by rank), then
    unranked originals, then cut leaves.

    Originals sort by caller-supplied rank when present, otherwise by (level,
    id).  Cut leaves introduced by decomposition sort by the merge vertex they
    came from, then by the detached edge, so factors of one decomposition
    agree on positions; other sinks with the reserved prefix sort by (level,
    id) among them.  A cut leaf's merge vertex is the vertex its level's
    order covers it with; of several, the least id, whatever the hash seed
    or the order the covers are given in.
    """
    graph = _graph_of(source)
    sk = graph._checked_skeleton
    sinks = _sinks(sk)
    originals, cuts = _sorted_taxa(sinks, ranks, sk.vertex_level, _covered_cuts(graph, sk, sinks))
    return (*originals, *cuts)


def _sinks(sk: _Skeleton) -> list[str]:
    return [v for v, below in sk.down.items() if not below]


def _covered_cuts(
    graph: ReebGraph, sk: _Skeleton, sinks: Sequence[str]
) -> dict[str, tuple[str, str]]:
    """Each cut leaf among ``sinks`` -> its merge vertex and detached edge,
    as the graph's covers give them: its merge vertex is the one its level's
    order puts below it (of several, the least id: covers run in descending
    order, so it comes last), and its detached edge names the long edge
    above it."""
    cut_levels = {sk.vertex_level[v] for v in sinks if v.startswith(RESERVED_VERTEX_PREFIX)}
    covers = (c for i in cut_levels for c in graph.vertex_orders[sk.graph_level[i]].covers)
    return {b: (a, e) for a, b in sorted(covers, reverse=True) for _, e in sk.up[b][:1]}


def _sorted_taxa(
    sinks: Sequence[str],
    ranks: Mapping[str, int] | None,
    level_of: Mapping[str, int],
    cut_of: Mapping[str, tuple[str, str]],
) -> tuple[list[str], list[str]]:
    """The originals and the cut leaves among ``sinks``, each sorted in
    leaf_order's order, whatever the order of ``sinks``; ``cut_of`` sends a
    cut leaf to its merge vertex and its detached edge, read from the graph:
    an extended leaf id (see decomposition's naming rule) does not sort as its
    edge does.  Taxa of one rank keep (level, id) order."""
    ranks = ranks or {}
    cuts = list(filter(_IS_CUT, sinks))
    originals = list(filterfalse(_IS_CUT, sinks)) if cuts else list(sinks)
    # Ranked taxa by (rank, level, id), then the rest by (level, id): stable
    # sorts by id, then by level, then the ranked ones by rank.
    originals.sort()
    originals.sort(key=level_of.__getitem__)
    ranked = list(filter(ranks.__contains__, originals))
    ranked.sort(key=ranks.__getitem__)
    ranked += filterfalse(ranks.__contains__, originals)

    def cut_key(v: str):
        if v not in cut_of:
            return (level_of[v], "", v)
        retic, edge = cut_of[v]
        return (level_of[retic], retic, edge)

    return ranked, sorted(cuts, key=cut_key)


class _Entries:
    """The ``entries`` field of CopheneticVector.  A vector that the
    constructor builds holds the entries it is given.  One that
    cophenetic_vector or network_factors builds holds its stamps once, as
    integers over one scale (``_integer``), and makes its Fractions, one
    per distinct stamp, each time they are read."""

    def __get__(self, vec, owner=None):
        if vec is None:
            raise AttributeError("entries")  # the field has no default
        if "_entries" in vec.__dict__:
            return vec.__dict__["_entries"]
        scale, ints = vec._integer
        back = {x: Fraction(x, scale) for x in set(ints)}
        return tuple(map(back.__getitem__, ints))

    def __set__(self, vec, entries) -> None:
        vec.__dict__["_entries"] = entries


@dataclass(frozen=True)
class CopheneticVector:
    """Upper-triangle stamps, pairs (i, j) with i <= j in lexicographic
    order over the stored leaf order.

    Equality, hash and repr read ``entries``, however the vector stores
    them.  Two vectors with equal entries have the same integer form, since
    every stamp's level occurs on the diagonal or as some pair's lowest
    common ancestor, and so fixes the scale."""

    leaves: tuple[str, ...]
    entries: tuple[Fraction, ...] = _Entries()
    time_mode: str
    # (scale, ints): the entries times the LCM of their denominators, the
    # only copy of them in a vector from cophenetic_vector; None otherwise.
    _integer: tuple[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def entry(self, i: int, j: int) -> Fraction:
        m = len(self.leaves)
        if not (0 <= i < m and 0 <= j < m):
            raise IndexError(f"entry ({i}, {j}) outside {m} leaves")
        if i > j:
            i, j = j, i
        offset = i * m - i * (i - 1) // 2 + (j - i)
        if self._integer is None:
            return self.entries[offset]
        scale, ints = self._integer
        return Fraction(ints[offset], scale)


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

    Both passes run on the graph's skeleton, its critical vertices joined
    by long edges.  One depth-first pass numbers the taxa so that every
    vertex covers a contiguous range of them.  Then one row visits the
    taxa in ``leaf_order``: at each, the range of its lowest common
    ancestor with the taxon before it is filled again, each ancestor's
    range outside its child's with the ancestor's stamp, and the row's part
    from the taxon's own place on is gathered by one ``itemgetter`` into
    the vector's tuple.  That is O(taxa^2) work inside slice copies, and
    one interpreted step per vertex on those paths.  Stamps are taken once
    per level in integer form (times the LCM of the denominators of the
    levels that occur as stamps); the vector keeps that form, which the
    Hausdorff kernel reads, as its only copy of its entries.
    """
    _check_time_mode(time_mode)
    graph = _graph_of(source)
    sk = graph._checked_skeleton
    merges = {v for v, above in sk.up.items() if len(above) > 1}
    if merges:
        # The first merge the down maps reach, gap by gap.
        v = next(d for dn in graph.down_maps for d in dn.values() if d in merges)
        raise NotATree(f"vertex {v!r} has {len(sk.up[v])} edges arriving from above")
    sinks = _sinks(sk)
    root, originals, cuts, children, scale, stamp = _tree_table(
        sk, sinks, ranks, sk.vertex_level, _covered_cuts(graph, sk, sinks), time_mode
    )
    leaves = (*originals, *cuts)
    return _vector(leaves, _walk(root, children, leaves, stamp), scale, time_mode)


def _check_time_mode(time_mode: str) -> None:
    if time_mode not in ("f", "-f"):
        raise ValueError(f"time_mode must be 'f' or '-f', not {time_mode!r}")


def _tree_table(
    sk: _Skeleton,
    taxa: Sequence[str],
    ranks: Mapping[str, int] | None,
    level_of: Mapping[str, int],
    cut_of: Mapping[str, tuple[str, str]],
    time_mode: str,
) -> tuple[str, list[str], list[str], Mapping[str, Sequence[tuple]], int, dict[str, int]]:
    """What every row walk and merge sweep over ``sk`` reads: (root,
    originals, cuts, children, scale, stamp), the taxa sorted by
    _sorted_taxa, the skeleton's own ``down`` table as ``children`` (see
    _layout), and the integer stamps (_stamps) of every taxon and branching
    vertex, the only vertices that stamp a pair.  ``taxa`` and ``level_of``
    may hold cut leaves that ``sk`` lacks; ``cut_of`` is _sorted_taxa's."""
    root = _root(sk)
    originals, cuts = _sorted_taxa(taxa, ranks, level_of, cut_of)
    children = sk.down
    branching = [v for v, kids in children.items() if len(kids) > 1]
    stampers = [*originals, *cuts, *branching]
    scale, stamp = _stamps(sk.levels, level_of, stampers, time_mode)
    return root, originals, cuts, children, scale, stamp


def _root(sk: _Skeleton) -> str:
    sources = [v for v, above in sk.up.items() if not above]
    if len(sources) != 1:
        raise NotRooted(f"{len(sources)} source vertices, expected exactly 1")
    return sources[0]


def _stamps(
    levels: Sequence[Fraction], level_of: Mapping[str, int], stampers, time_mode: str
) -> tuple[int, dict[str, int]]:
    """(scale, stamp): the LCM of the denominators of the stampers' levels,
    and each stamper's integer stamp at that scale.  Each level is read
    once, as one integer pair."""
    at = list(map(level_of.__getitem__, stampers))
    pairs = {i: levels[i].as_integer_ratio() for i in set(at)}
    scale = math.lcm(*(d for _, d in pairs.values()))
    sign = 1 if time_mode == "f" else -1
    ints = {i: sign * n * (scale // d) for i, (n, d) in pairs.items()}
    return scale, dict(zip(stampers, map(ints.__getitem__, at)))


def _rows(
    root: str,
    children: Mapping[str, Sequence[tuple[str, str]]],
    leaves: Sequence[str],
    stamp: Mapping[str, int],
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(i, row) for every taxon of the tree below ``root``, where ``i`` is
    its place in ``leaves`` (the comparison order) and ``row`` its integer
    stamps against every taxon in that order; ``stamp`` holds the integer
    stamp of every taxon and branching vertex."""
    at, rows = _walk_rows(root, children, leaves, stamp)
    # (itemgetter of a single index returns the item, not a 1-tuple.)
    pick = itemgetter(*at) if len(leaves) > 1 else tuple
    for i, row in rows:
        yield i, pick(row)


def _layout(
    root: str, children: Mapping[str, Sequence[tuple[str, str]]], stamp: Mapping[str, int]
) -> tuple[list[str], dict[str, int], dict[str, tuple]]:
    """One pre-order pass over the tree below ``root``: (taxa, lo, up).
    ``children`` sends a vertex to its (child, long edge) pairs, in order,
    and has no or an empty entry for a taxon.  ``taxa`` lists the taxa in
    pre-order and ``lo`` sends each vertex to the place of its first taxon
    there, so that each vertex covers a range of places.  ``up`` sends each
    vertex below the root to its parent link: the parent, the parent's
    range and stamp, the lengths of that range's parts before and after
    the vertex's own, and its own range."""
    lo: dict[str, int] = {}
    hi: dict[str, int] = {}
    taxa: list[str] = []
    inner: list[str] = []
    stack = [(root, None)]
    while stack:
        v, _ = stack.pop()
        lo[v] = len(taxa)
        kids = children.get(v)
        if kids:
            inner.append(v)
            stack.extend(reversed(kids))
        else:
            taxa.append(v)
            hi[v] = len(taxa)
    # Reversed pre-order reaches every vertex after all the vertices below it.
    up = {}
    for a in reversed(inner):
        kids = children[a]
        s, la = stamp.get(a), lo[a]
        ha = hi[a] = hi[kids[-1][0]]
        for c, _ in kids:
            lc, hc = lo[c], hi[c]
            up[c] = (a, la, ha, s, lc - la, ha - hc, lc, hc)
    return taxa, lo, up


def _walk_rows(
    root: str,
    children: Mapping[str, Sequence[tuple[str, str]]],
    leaves: Sequence[str],
    stamp: Mapping[str, int],
) -> tuple[list[int], Iterator[tuple[int, list[int]]]]:
    """The row walk: (at, rows), where rows yields (i, row) for every taxon
    as _rows does, in the order of ``leaves``, but ``row`` in walk order,
    the taxon at place j of ``leaves`` at ``row[at[j]]``."""
    _, lo, up = _layout(root, children, stamp)
    return [lo[v] for v in leaves], _fill(root, lo, up, leaves, stamp)


def _fill(
    root: str,
    lo: Mapping[str, int],
    up: Mapping[str, tuple],
    leaves: Sequence[str],
    stamp: Mapping[str, int],
) -> Iterator[tuple[int, list[int]]]:
    """(i, row) for the taxon at each place i of ``leaves``, its row in the
    walk order of _layout, which gave ``lo`` and ``up``.  One row goes from
    taxon to taxon and is the caller's until it draws the next: between two
    taxa only the range of their lowest common ancestor changes, and it is
    filled again along the next taxon's ancestors, from the taxon up to
    that ancestor, each with its stamp outside its child's range."""
    row = [0] * len(leaves)
    last = -1  # the position of the taxon before
    for i, v in enumerate(leaves):
        c = v
        while c != root:
            c, la, ha, s, before, after, lc, hc = up[c]
            if before:
                row[la:lc] = [s] * before
            if after:
                row[hc:ha] = [s] * after
            if la <= last < ha:
                break
        last = lo[v]
        row[last] = stamp[v]
        yield i, row


def _walk(
    root: str,
    children: Mapping[str, Sequence[tuple[str, str]]],
    leaves: Sequence[str],
    stamp: Mapping[str, int],
) -> tuple[int, ...]:
    """The integer upper triangle of the tree below ``root`` over ``leaves``.
    The row walk yields the rows in that order, and each row's part from the
    taxon's own place on is gathered straight into the vector's tuple, which
    is allocated once at its full size: no n x n table and no second copy of
    the triangle is ever held."""
    n = len(leaves)
    at, rows = _walk_rows(root, children, leaves, stamp)
    tails = (itemgetter(*at[i:])(row) if i < n - 1 else (row[at[i]],) for i, row in rows)
    return tuple(_Sized(n * (n + 1) // 2, chain.from_iterable(tails)))


class _Sized:
    """``items`` with their ``count`` known, so that ``tuple`` allocates its
    result once, at full size."""

    def __init__(self, count: int, items: Iterator):
        self.count = count
        self.items = items

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator:
        return self.items


def _vector(
    leaves: tuple[str, ...], scaled: tuple[int, ...], scale: int, time_mode: str
) -> CopheneticVector:
    """A vector that holds its entries only as ``scaled`` over ``scale``."""
    vec = object.__new__(CopheneticVector)
    vec.__dict__.update(leaves=leaves, time_mode=time_mode, _integer=(scale, scaled))
    return vec


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


def _integer_form(u: "CopheneticVector | Entries") -> tuple[int, tuple[int, ...]]:
    """(scale, ints): the vector times the LCM of its entries' denominators.
    A vector from cophenetic_vector carries it; anything else is read as
    Fractions and converted here."""
    if isinstance(u, CopheneticVector):
        if u._integer is not None:
            return u._integer
        entries = u.entries
    else:
        entries = tuple(Fraction(x) for x in u)
    scale = math.lcm(*{x.denominator for x in entries})
    return scale, tuple(x.numerator * (scale // x.denominator) for x in entries)


def _is_inf(p) -> bool:
    return p == math.inf or (isinstance(p, str) and p.lower() in ("inf", "infinity"))


def _check_norm(p, digits: int) -> int | None:
    """The norm's exponent, or None for the sup norm.

    Accepts inf, "inf" and "infinity" in any case, or a whole number p >= 1
    (a string of digits too), and digits >= 0, the certified error being
    10**-digits; anything else raises ValueError.
    """
    if digits < 0:
        raise ValueError(f"digits must be at least 0, not {digits!r}")
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


def _rescaled(forms: list[tuple[int, tuple[int, ...]]], scale: int) -> set[tuple[int, ...]]:
    """The distinct vectors among ``forms``, each brought to the common
    ``scale``, a multiple of its own."""
    out = set()
    for own, row in forms:
        k = scale // own
        out.add(row if k == 1 else tuple(map(mul, row, repeat(k))))
    return out


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
    q = _check_norm(p, digits)
    forms_a = [_integer_form(u) for u in set_a]
    forms_b = [_integer_form(v) for v in set_b]
    _check_lengths([row for _, row in forms_a], [row for _, row in forms_b])
    scale = math.lcm(*{own for own, _ in forms_a + forms_b})
    a, b = _rescaled(forms_a, scale), _rescaled(forms_b, scale)
    cost = _cost(q)
    return _norm(_directed(b, a, cost, _directed(a, b, cost, 0)), scale, q, digits)


def _norm(raw: int, scale: int, q: int | None, digits: int) -> Fraction:
    """The distance whose integer cost at ``scale`` is ``raw``: the sup or
    1-norm, or for q >= 2 the certified root of a sum of q-th powers."""
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
    only sets.  Vectors from cophenetic_vector arrive with their integer
    form; other sequences are converted once per call.  Each directed
    distance uses the exact early break of Taha & Hanbury (IEEE TPAMI 2015):
    the scan for a vector's nearest neighbour stops once it cannot raise the
    maximum found so far.  The scale is divided out once at the end.

    For integer p >= 2 the max/min structure runs on exact p-th power sums
    and the root is taken once at the very end, so the certified error bound
    applies to the final number, not to every pairwise term.
    """
    if not set_a or not set_b:
        raise EmptySet("hausdorff distance needs two nonempty collections")
    return _hausdorff(set_a, set_b, p, digits)


@dataclass(frozen=True)
class NetworkFactors:
    """A network, its cycle rank and taxon count, and the cophenetic vectors
    of its tree factors, in ``enumerate_choices`` order.

    The vectors are computed when first read, so two networks' shapes can be
    compared before any vector is built.  They equal ``cophenetic_vector``
    of each factor of ``decompose(graph)``, but no factor graph is built: a
    factor differs from its network only in that each detached edge ends at
    its cut leaf.  Once per network come ``decompose``'s gate and factor
    table, which ``network_factors`` reads, then the skeleton's children
    table, the sorted taxa, the stamps, which every factor shares (each
    merge leaves a cut leaf at its level in every factor, and no cut changes
    an out-degree), and the row walk
    ``cophenetic_vector`` runs, for the first choice only.  The other
    choices follow in reflected Gray-code order, each one merge's kept edge
    moving to the next or previous edge; each costs one subtree swap in the
    full table of stamps, and its vector is placed at its
    ``enumerate_choices`` index.
    """

    graph: ReebGraph
    betti: int
    taxa: int
    ranks: Mapping[str, int] | None
    time_mode: str
    _table: tuple = field(repr=False)  # read with the gate, see network_factors

    @cached_property
    def vectors(self) -> tuple[CopheneticVector, ...]:
        return _factor_vectors(self)


def _factor_vectors(net: NetworkFactors) -> tuple[CopheneticVector, ...]:
    """``cophenetic_vector`` of every factor of ``decompose(net.graph)``, in
    its order, raising what that would raise first after the gate."""
    (options, leaves), time_mode = net._table, net.time_mode
    sk = net.graph._checked_skeleton
    cut_of, (root, originals, cuts, down, scale, stamp) = _network_table(net)
    # Arriving long edge of a merge -> (its upper end, its place among that
    # end's children).  Only those ends' children change from factor to
    # factor, so only theirs are copied.
    hook = {}
    children = dict(down)
    for m, _ in options:
        for v, e in sk.up[m]:
            hook[e] = (v, [f for _, f in down[v]].index(e))
            children[v] = list(down[v])

    # The first choice keeps every merge's first edge; each other edge ends
    # at its cut leaf.  A network sink may carry the prefix too; it is in
    # every factor.
    first = _cuts(leaves, {m: edges[0] for m, edges in options})
    held = {c for *_, c in first}
    names = [*originals, *(c for c in cuts if c in held or c not in cut_of)]
    for _, e, c in first:
        v, i = hook[e]
        children[v][i] = (c, e)
    if not options:
        scaled = _walk(root, children, names, stamp)
        return (_vector(tuple(names), scaled, scale, time_mode),)

    n = len(names)
    rows: list[list[int]] = [[]] * n
    for i, row in _rows(root, children, names, stamp):
        rows[i] = list(row)
    tails = [slice(i, None) for i in range(n)]
    radices = [len(edges) for _, edges in options]
    weights = [math.prod(radices[j + 1:]) for j in range(len(radices))]
    vectors: list = [None] * math.prod(radices)
    vectors[0] = _vector(tuple(names), _pack(rows, tails), scale, time_mode)
    place = {v: i for i, v in enumerate(names)}
    # A merge's cut leaves are consecutive taxa, in option order.  While it
    # keeps edges[k], its t-th cut leaf is that of edges[t] for t < k and of
    # edges[t + 1] otherwise, so a move to a neighbouring edge renames one
    # cut leaf in place: the one at min(k, new k).
    base = [place[leaves[edges[1]][1]] for _, edges in options]
    index = 0
    for j, k, new in _gray_code(radices):
        m, edges = options[j]
        kept, (_, cut) = edges[new], leaves[edges[k]]
        c = base[j] + min(k, new)
        v, i = hook[edges[k]]
        children[v][i] = (cut, edges[k])
        v, i = hook[kept]
        children[v][i] = (m, kept)
        names[c] = cut
        place[cut] = c
        _swap(rows, _taxa_below(m, children, place), c)
        index += (new - k) * weights[j]
        vectors[index] = _vector(tuple(names), _pack(rows, tails), scale, time_mode)
    return tuple(vectors)


def _network_table(net: NetworkFactors) -> tuple[dict[str, tuple[str, str]], tuple]:
    """(cut_of, _tree_table) of a network behind its gate, raising what
    cophenetic_vector of its first factor would raise first; the taxa are
    the network's sinks and every cut leaf any factor has, one per arriving
    edge of every merge, which cut_of sends to (merge vertex, edge)."""
    sk = net.graph._checked_skeleton
    _check_time_mode(net.time_mode)
    cut_of = {c: (m, e) for e, (m, c) in net._table[1].items()}
    level_of = sk.vertex_level
    if cut_of:
        level_of = {**level_of, **{c: level_of[m] for c, (m, _) in cut_of.items()}}
    taxa = [*_sinks(sk), *cut_of]
    return cut_of, _tree_table(sk, taxa, net.ranks, level_of, cut_of, net.time_mode)


def _gray_code(radices: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """The moves of the reflected mixed-radix Gray code over digits with
    ``radices`` (each at least 2), from all zeros: (digit, old value, new
    value), one digit moving by one each time, digit 0 fastest, until every
    word has been reached once.  Knuth, TAOCP 7.2.1.1, Algorithm H."""
    k = len(radices)
    word = [0] * k
    step = [1] * k
    focus = list(range(k + 1))
    while True:
        j = focus[0]
        focus[0] = 0
        if j == k:
            return
        word[j] += step[j]
        yield j, word[j] - step[j], word[j]
        if word[j] == 0 or word[j] == radices[j] - 1:
            step[j] = -step[j]
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1


def _taxa_below(
    v: str, children: Mapping[str, Sequence[tuple[str, str]]], place: Mapping[str, int]
) -> list[int]:
    """The places of the taxa of the tree below ``v`` (``v`` itself if it is
    one); ``children`` is _layout's."""
    out = []
    stack = [v]
    while stack:
        v = stack.pop()
        kids = children.get(v)
        if kids:
            stack.extend(map(_FIRST, kids))
        else:
            out.append(place[v])
    return out


def _swap(rows: list[list[int]], below: Sequence[int], c: int) -> None:
    """Update the full stamp table ``rows`` of a tree in which the subtree
    whose taxa sit at ``below`` and the taxon at ``c`` trade places.

    Stamps among ``below`` and ``c`` stay.  Against every other taxon, each
    taxon of ``below`` takes the stamps ``c`` had, and ``c`` those the
    subtree had, which all its taxa share.
    """
    rc = rows[c]
    rx = rows[below[0]]
    inside = {*below, c}
    for y, r in enumerate(rows):
        if y not in inside:
            b = r[c]
            r[c] = r[below[0]]
            for x in below:
                r[x] = b
    for x in below:
        own = rows[x]
        r = rc.copy()
        for y in below:
            r[y] = own[y]
        r[c] = own[c]
        rows[x] = r
    r = rx.copy()
    for x in below:
        r[x] = rc[x]
    r[c] = rc[c]
    rows[c] = r


def _pack(rows: list[list[int]], tails: list[slice]) -> tuple[int, ...]:
    """The upper triangle of a full table; ``tails[i]`` is ``slice(i, None)``."""
    return tuple(chain.from_iterable(map(getitem, rows, tails)))


def network_factors(
    graph: ReebGraph,
    *,
    ranks: Mapping[str, int] | None = None,
    time_mode: str = "f",
) -> NetworkFactors:
    """The cycle rank and factor table of ``graph`` behind the gate that
    ``decompose`` runs (a graph that core.ReebGraph._checked_skeleton
    refuses raises ValueError, a multi-source graph ReticulationConflict, a
    level order OrderConflict), and its taxon count; its factor vectors
    follow on first use."""
    betti, table = _factor_table(graph)
    taxa = countOf(graph._skeleton.down.values(), ())
    return NetworkFactors(graph, betti, taxa, ranks, time_mode, table)


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
    not even share a dimension.  Two trees build no vector: for p = 1 and
    inf one merge sweep compares them in O(taxa log taxa) time and O(taxa)
    memory, and for p >= 2 they are compared row by row in O(taxa^2) time
    and O(taxa) memory.  Networks of cycle rank 1 or more read their factor
    vectors (NetworkFactors.vectors) and the Hausdorff kernel.  Either way
    the same Fraction comes back, and the same errors are raised in the
    same order: the gate's of ``a``, then of ``b``, the shape checks, a bad
    ``time_mode``, then a bad ``p`` or ``digits``.
    """
    na = network_factors(a, ranks=ranks_a, time_mode=time_mode)
    nb = network_factors(b, ranks=ranks_b, time_mode=time_mode)
    if na.taxa != nb.taxa:
        raise IncompatibleShape(f"taxon counts differ: {na.taxa} vs {nb.taxa}")
    if na.betti != nb.betti:
        raise IncompatibleShape(f"cycle ranks differ: {na.betti} vs {nb.betti}")
    if na.betti == 0:
        return _tree_distance(na, nb, p, digits)
    return hausdorff_distance(na.vectors, nb.vectors, p, digits=digits)


def _tree_distance(na: NetworkFactors, nb: NetworkFactors, p, digits: int) -> Fraction:
    """network_distance of two trees, by the merge sweep for p = 1 and inf
    and row by row otherwise (see the module's docstring), raising what
    their factor vectors and the Hausdorff kernel would, in that order."""
    _, (root_a, originals_a, cuts_a, children_a, scale_a, stamp_a) = _network_table(na)
    _, (root_b, originals_b, cuts_b, children_b, scale_b, stamp_b) = _network_table(nb)
    q = _check_norm(p, digits)
    scale = math.lcm(scale_a, scale_b)
    if q is None or q == 1:
        # Keys: the stamps at the common scale, made to grow toward the root
        # in both time modes, which changes no |a - b|.
        sign = 1 if na.time_mode == "f" else -1
        a = _Keyed(root_a, [*originals_a, *cuts_a], children_a, stamp_a, sign * (scale // scale_a))
        b = _Keyed(root_b, [*originals_b, *cuts_b], children_b, stamp_b, sign * (scale // scale_b))
        raw = _sweep_sum(a, b) if q == 1 else _sweep_max(a, b)
        return Fraction(raw, scale)
    stamp_a = _scaled(stamp_a, scale // scale_a)
    stamp_b = _scaled(stamp_b, scale // scale_b)
    partner = dict(zip([*originals_a, *cuts_a], [*originals_b, *cuts_b]))
    # Tree a's rows in its own pre-order, where taxon i's row starts at i.
    walk, lo_a, up_a = _layout(root_a, children_a, stamp_a)
    rows_a = _fill(root_a, lo_a, up_a, walk, stamp_a)
    at, rows_b = _walk_rows(root_b, children_b, list(map(partner.__getitem__, walk)), stamp_b)
    cost = _cost(q)
    raw = 0
    last = len(walk) - 1
    for (i, row_a), (_, row_b) in zip(rows_a, rows_b):
        part = row_a[i:]
        # (itemgetter of a single index returns the item, not a 1-tuple.)
        other = [*itemgetter(*at[i:])(row_b)] if i < last else [row_b[at[i]]]
        if part != other:
            raw += cost(part, other)
    return _norm(raw, scale, q, digits)


def _scaled(stamp: dict[str, int], k: int) -> dict[str, int]:
    return stamp if k == 1 else {v: x * k for v, x in stamp.items()}


class _Keyed(NamedTuple):
    """A tree as the merge sweep reads it: its root, its taxa in comparison
    order (the taxon at place i pairs with the other tree's at place i),
    the skeleton's ``down`` table, and the integer stamps of its taxa and
    branching vertices, which times ``k`` are the keys: the stamps at the
    two trees' common scale, growing toward the root."""

    root: str
    taxa: list[str]
    children: Mapping[str, Sequence[tuple[str, str]]]
    stamp: Mapping[str, int]
    k: int


def _sweep_sum(a: _Keyed, b: _Keyed) -> int:
    """The sum of |a_ij - b_ij| over the two trees' vectors, in keys.

    Off the diagonal |a - b| = 2 max(a, b) - a - b, and max(a_ij, b_ij) is
    the key at which taxa i and j are first joined in both trees.  So one
    sweep runs over both trees' branching vertices by key, from the taxa
    up: a merge at key k adds -k for each pair across its children and 2k
    for each such pair that the other tree has joined already.  Those are
    counted by contingency tables: each component, on each side, maps the
    other side's components it meets to the number of taxa they share, so
    the pairs across X and Y joined in the other tree number the sum over
    its components Z of |X & Z| |Y & Z|.  The smaller table merges into
    the larger, each of its entries re-keying its component's entry on the
    other side, so a merge costs at most the taxa of its smaller part and
    the sweep O(taxa log taxa).  Merges at one key may run in any order: a
    pair that both trees join at k adds 2k at whichever comes second.
    """
    n = len(a.taxa)
    # A component's id is the place of one of its taxa; tables[id] is its
    # table, keyed by the other side's ids.  Taxon i starts alone, on both
    # sides, as component i.
    tables_a = [{i: 1} for i in range(n)]
    tables_b = [{i: 1} for i in range(n)]
    events = []
    for t, own, other in ((a, tables_a, tables_b), (b, tables_b, tables_a)):
        stamp, k, size, at = t.stamp, t.k, [1] * n, dict(zip(t.taxa, range(n)))
        events += [
            (stamp[v] * k, kids, v, own, other, size, at)
            for v, kids in t.children.items()
            if len(kids) > 1
        ]
    events.sort(key=_FIRST)
    raw = sum(abs(a.stamp[x] * a.k - b.stamp[y] * b.k) for x, y in zip(a.taxa, b.taxa))
    for key, kids, v, own, other, size, at in events:
        kids = iter(kids)
        x = at[next(kids)[0]]
        big = own[x]
        pairs = joint = 0
        for c, _ in kids:
            y = at[c]
            small = own[y]
            if len(small) > len(big):
                x, y, big, small = y, x, small, big
            pairs += size[x] * size[y]
            size[x] += size[y]
            for z, m in small.items():
                row = other[z]
                del row[y]
                j = big.get(z)
                if j is None:
                    big[z] = row[x] = m
                else:
                    joint += j * m
                    big[z] = row[x] = j + m
            own[y] = None
        at[v] = x
        raw += key * (2 * joint - pairs)
    return raw


def _sweep_max(a: _Keyed, b: _Keyed) -> int:
    """The largest |a_ij - b_ij| over the two trees' vectors, in keys.

    Off the diagonal every pair crosses two children of its lowest common
    ancestor v in tree a, where a_ij is v's key.  By the ultrametric
    inequality the largest b-entry over those pairs is b's over all pairs
    below v: the key of the lowest common ancestor in b of their partners,
    the largest among b's adjacent-taxon ancestors between the first and
    the last of them in b's pre-order.  So the largest b - a is one range
    maximum per branching vertex of a, and the largest a - b the same with
    the trees swapped.  That is the labelled interleaving distance of the
    two merge trees (Gasparovic, Munch, Oudot, Turner, Wang & Wang, 2019).
    """
    (place_a, gaps_a, inner_a), (place_b, gaps_b, inner_b) = _preorder(a), _preorder(b)
    worst = max(abs(a.stamp[x] * a.k - b.stamp[y] * b.k) for x, y in zip(a.taxa, b.taxa))
    directions = ((a, b, inner_a, place_b, gaps_b), (b, a, inner_b, place_a, gaps_a))
    for t, u, inner, place, gaps in directions:
        # Each vertex of t, from the taxa up -> the first and last places in
        # u of the partners of its taxa.
        ends = {x: (place[y],) * 2 for x, y in zip(t.taxa, u.taxa)}
        children, stamp, k = t.children, t.stamp, t.k
        spans = []
        for v in reversed(inner):
            kids = iter(children[v])
            first, last = ends[next(kids)[0]]
            for c, _ in kids:
                f, h = ends[c]
                if f < first:
                    first = f
                if h > last:
                    last = h
            ends[v] = first, last
            spans.append((first, last, stamp[v] * k))
        worst = max(worst, _excess(gaps, spans))
    return worst


def _preorder(t: _Keyed) -> tuple[dict[str, int], list[int], list[str]]:
    """(place, gaps, inner), read in one pre-order pass over tree ``t``:
    each taxon's place, the key of the lowest common ancestor of the taxa
    at places i and i + 1 as ``gaps[i]``, and the branching vertices."""
    children, stamp, k = t.children, t.stamp, t.k
    place: dict[str, int] = {}
    gaps: list[int] = []
    inner: list[str] = []
    stack = [(t.root, None)]
    while stack:
        v, gap = stack.pop()
        if gap is not None:
            # The taxon before is the last below v's left sibling.
            gaps.append(gap)
        kids = children[v]
        if not kids:
            place[v] = len(place)
        elif len(kids) == 1:
            stack.append((kids[0][0], None))
        else:
            inner.append(v)
            key = stamp[v] * k
            stack += [(c, key) for c, _ in kids[:0:-1]]
            stack.append((kids[0][0], None))
    return place, gaps, inner


def _excess(gaps: Sequence[int], spans: Sequence[tuple[int, int, int]]) -> int:
    """The largest max(gaps[first:last]) - key over (first, last, key) in
    ``spans`` (first < last), or 0: one pass over ``gaps`` keeps the
    places of its suffix maxima, whose values decrease, and answers each
    span at its last place by bisection.  O((gaps + spans) log gaps)
    time and O(gaps + spans) memory."""
    ending: list[list[tuple[int, int, int]]] = [[] for _ in range(len(gaps) + 1)]
    for span in spans:
        ending[span[1]].append(span)
    worst = 0
    places: list[int] = []
    tops: list[int] = []
    for last, x in enumerate(gaps, 1):
        while tops and tops[-1] <= x:
            tops.pop()
            places.pop()
        places.append(last - 1)
        tops.append(x)
        for first, _, key in ending[last]:
            worst = max(worst, tops[bisect_left(places, first)] - key)
    return worst
