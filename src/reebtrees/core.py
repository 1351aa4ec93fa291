"""Core leveled-graph model.

A graph here is a finite sequence of exact rational levels, a nonempty vertex
set on every level, a nonempty edge set over every gap between consecutive
levels, and total attachment maps sending each edge of gap i to its bottom
(down) endpoint on level i and its top (up) endpoint on level i + 1; no edge
skips a level.  Vertex and edge sets each carry a partial order stored as
covering relations, each cover between two ids of its level or gap.
Every rule that validate and ``_checked_skeleton`` (which the distances,
the decomposition and the export read) share is one generator of
validate's lines (_unordered_levels, _empty, _repeated_ids, _shared_ids,
_unattached, _unknown_covers, _mislabelled).  Everything is immutable
after construction.

Compact graphs.  A graph that network_to_reeb embeds stores only its level
values and a recipe (``_recipe``, an enewick._Embedding): each node's level
and each branch (parent, child, parallel index).  Its other fields,
``vertex_sets``, ``edge_sets``, ``down_maps``, ``up_maps``,
``vertex_orders`` and ``edge_orders``, with every pass-through id, are
derived: the first read of any of them builds all six (_Derived) from
finished sets and maps (_fields), and they stay.  ``edge_labels`` is
None.  A graph built by make_graph or load_text holds all its fields.

- ``==`` compares two compact graphs whose recipes are plain (node ids the
  eNewick reader makes, one parentless node) by their levels and recipes
  (nodes' levels, branch counts), which fix every field; any other pair
  compares fields, building them.  ``hash`` reads the fields, and fails on
  their maps, as for any graph.
- ``dataclasses.replace``, ``repr`` and ``dataclasses.asdict`` read every
  field, so they build them; replace returns a graph that holds all its
  fields and no recipe.
- pickle and ``copy`` carry the instance dictionary: a compact graph comes
  back compact, sharing (copy) or copying (deepcopy, pickle) its recipe.
- validate, ``_checked_skeleton`` and the decomposition's cut leaf names
  answer a plain compact graph unbuilt, since its recipe proves that
  validate has nothing to report, that the skeleton's checks pass and that
  no id has the reserved prefix; the order rule answers any compact graph
  unbuilt, since none has a relation.  So, unless a node has one parent
  and one child (see enewick._Embedding.skeleton), the skeleton, the
  vectors, ``network_distance``, ``reeb_to_network`` and ``write_enewick``
  build nothing.  Any other reader builds the fields and runs as for any graph:
  ``dump_text``, ``to_dot``, ``refine_to_levels``,
  ``minimize_critical_set``, ``classify``, ``decompose`` and ``reeb_iso``
  do.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat, starmap
from operator import attrgetter, eq, itemgetter, lt, methodcaller
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import BadLevelSet, OrderConflict

Level = Fraction

RESERVED_VERTEX_PREFIX = "cut:"


def as_level(value: Fraction | int | str) -> Fraction:
    """Coerce an exact value to a level.  Floats are refused on purpose."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_level(value)
    raise TypeError(f"level must be Fraction, int, or str, not {type(value).__name__}")


def parse_level(text: str) -> Fraction:
    """Parse "3", "-1.25", or "2/3" into an exact rational.  A plain integer
    (ASCII digits, an optional minus) skips the Fraction string parser."""
    text = text.strip()
    digits = text[1:] if text[:1] == "-" else text
    if digits.isdigit() and digits.isascii():
        return Fraction(int(text))
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(text)


def format_level(value: Fraction) -> str:
    """Exact textual form: a decimal when the denominator is 2^a * 5^b,
    otherwise "p/q"."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    twos = (den & -den).bit_length() - 1
    rest = den >> twos
    fives = 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    scaled = num * 10**shift // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


@dataclass(frozen=True)
class LevelPoset:
    """Partial order on one level's elements, stored as covering pairs."""

    elements: frozenset[str]
    covers: frozenset[tuple[str, str]]

    @staticmethod
    def trivial(elements: Iterable[str]) -> "LevelPoset":
        return LevelPoset(frozenset(elements), frozenset())

    @property
    def is_trivial(self) -> bool:
        return not self.covers

    @cached_property
    def _successors(self) -> dict[str, set[str]]:
        succ: dict[str, set[str]] = {}
        for lo, hi in self.covers:
            succ.setdefault(lo, set()).add(hi)
        return succ

    @cached_property
    def _sorted(self) -> list[str]:
        """Kahn's sort over the covers, lower ends first.  A cycle leaves its
        elements, and every element above one of them, unsorted."""
        succ = self._successors
        waiting: dict[str, int] = {}
        for _, hi in self.covers:
            waiting[hi] = waiting.get(hi, 0) + 1
        ready = [x for x in succ if x not in waiting]
        order = []
        while ready:
            x = ready.pop()
            order.append(x)
            for y in succ.get(x, ()):
                waiting[y] -= 1
                if not waiting[y]:
                    ready.append(y)
        return order

    @cached_property
    def _closure(self) -> dict[str, frozenset[str]]:
        """Strict upper sets, built in reverse sorted order; an unsorted
        element gets none."""
        succ = self._successors
        reach: dict[str, frozenset[str]] = {}
        for x in reversed(self._sorted):
            kids = succ.get(x, ())
            reach[x] = frozenset(kids).union(*(reach.get(y, ()) for y in kids))
        return reach

    @cached_property
    def has_cycle(self) -> bool:
        """A cycle leaves elements of the covers unsorted."""
        if not self.covers:
            return False
        return len(self._sorted) < len({x for cover in self.covers for x in cover})

    def leq(self, a: str, b: str) -> bool:
        return a == b or b in self._closure.get(a, frozenset())

    def strictly_above(self, a: str) -> frozenset[str]:
        return self._closure.get(a, frozenset())


class _Derived:
    """A ReebGraph field that a compact graph builds from its recipe, with
    the other derived fields, when it is first read (see the module's
    note).  The value an instance holds hides this descriptor, so a graph
    that make_graph builds reads its fields as plain attributes; to the
    dataclass the field has no default."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, graph, owner=None):
        recipe = None if graph is None else graph.__dict__.get("_recipe")
        if recipe is None:
            raise AttributeError(self.name)
        graph.__dict__.update(recipe.fields(graph.levels))
        return graph.__dict__[self.name]


@dataclass(frozen=True)
class ReebGraph:
    """Immutable leveled graph.

    ``levels[i]`` is the i-th level value, ``vertex_sets[i]`` the ids living on
    it.  ``edge_sets[i]`` spans the gap between levels i and i+1;
    ``down_maps[i]`` sends each of those edges to a vertex at level i and
    ``up_maps[i]`` to one at level i+1.  ``edge_labels`` is either None (no
    labelling) or one dict per gap, where a gap's entry may be None after a
    splice dropped it.
    """

    levels: tuple[Fraction, ...]
    vertex_sets: tuple[frozenset[str], ...] = _Derived()
    edge_sets: tuple[frozenset[str], ...] = _Derived()
    down_maps: tuple[Mapping[str, str], ...] = _Derived()
    up_maps: tuple[Mapping[str, str], ...] = _Derived()
    vertex_orders: tuple[LevelPoset, ...] = _Derived()
    edge_orders: tuple[LevelPoset, ...] = _Derived()
    edge_labels: tuple[Mapping[str, str] | None, ...] | None = None

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        mine, theirs = self.__dict__.get("_recipe"), other.__dict__.get("_recipe")
        if mine is not None and theirs is not None and mine.plain and theirs.plain:
            return self.levels == other.levels and mine.key == theirs.key
        return _field_values(self) == _field_values(other)

    @property
    def _plain(self) -> bool:
        """Whether this is a compact graph whose recipe proves it valid."""
        recipe = self.__dict__.get("_recipe")
        return recipe is not None and recipe.plain

    @property
    def _ordered(self) -> bool:
        """Whether some level's or gap's order has a relation; a compact
        graph's never has."""
        if "_recipe" in self.__dict__:
            return False
        covers = attrgetter("covers")
        return any(map(covers, self.vertex_orders)) or any(map(covers, self.edge_orders))

    @property
    def level_count(self) -> int:
        return len(self.levels)

    @property
    def gap_count(self) -> int:
        return len(self.edge_sets)

    @cached_property
    def vertex_level(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, vs in enumerate(self.vertex_sets):
            for v in vs:
                out.setdefault(v, i)
        return out

    @cached_property
    def edge_gap(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, es in enumerate(self.edge_sets):
            for e in es:
                out.setdefault(e, i)
        return out

    @cached_property
    def _ids(self) -> tuple[frozenset[str], frozenset[str]]:
        """The distinct vertex ids and the distinct edge ids, the one id
        pass that validate and the skeleton's checks share: an id used twice
        shows as a count above the set's size."""
        return frozenset().union(*self.vertex_sets), frozenset().union(*self.edge_sets)

    @cached_property
    def above_edges(self) -> dict[str, tuple[str, ...]]:
        """Vertex id -> edges attached to it from the gap above (down-map
        preimage), sorted for determinism."""
        acc: dict[str, list[str]] = {}
        for dn in self.down_maps:
            for e, v in dn.items():
                acc.setdefault(v, []).append(e)
        return {v: tuple(sorted(es)) for v, es in acc.items()}

    @cached_property
    def below_edges(self) -> dict[str, tuple[str, ...]]:
        """Vertex id -> edges attached from the gap below (up-map preimage)."""
        acc: dict[str, list[str]] = {}
        for up in self.up_maps:
            for e, v in up.items():
                acc.setdefault(v, []).append(e)
        return {v: tuple(sorted(es)) for v, es in acc.items()}

    def indeg(self, v: str) -> int:
        return len(self.above_edges.get(v, ()))

    def outdeg(self, v: str) -> int:
        return len(self.below_edges.get(v, ()))

    def vertex_ids(self) -> Iterator[str]:
        for vs in self.vertex_sets:
            yield from sorted(vs)

    @property
    def has_full_labels(self) -> bool:
        return self.edge_labels is not None and all(
            m is not None for m in self.edge_labels
        )

    def gap_labels(self, i: int) -> Mapping[str, str] | None:
        if self.edge_labels is None:
            return None
        return self.edge_labels[i]

    @cached_property
    def _skeleton(self) -> _Skeleton:
        # A compact graph's recipe reads the skeleton off the network it
        # embeds; it returns None where that reading could differ: a node
        # of one parent and one child, or ids the eNewick reader did not
        # make.
        recipe = self.__dict__.get("_recipe")
        return (recipe and recipe.skeleton(self)) or _Skeleton.of(self)

    @cached_property
    def _checked_skeleton(self) -> _Skeleton:
        """``_skeleton``, once validate reports nothing but three kinds of
        line; else validate's first other line, raised as ValueError.  The
        three are ids with the reserved prefix, which factor graphs carry;
        the level orders' own structure (list lengths, elements, cycles,
        maps that break an order), which the readers that use the orders
        refuse with OrderConflict; and disconnection, which leaves several
        sources, which the readers that need one refuse with
        ReticulationConflict or NotRooted.  A plain compact graph passes
        unread."""
        if self._plain:
            return self._skeleton
        # A graph with no cover anywhere skips the walk over its orders.
        orders = _orders(self) if self._ordered else ()
        strays = chain.from_iterable(starmap(_unknown_covers, orders))
        faults = chain(
            _unordered_levels(self), _empty(self), _repeated_ids(self), _shared_ids(self),
            _unattached(self), strays, _mislabelled(self),
        )
        fault = next(faults, None)
        if fault is not None:
            raise ValueError(fault)
        return self._skeleton


_field_values = attrgetter(*(f.name for f in fields(ReebGraph)))


def _compact_graph(levels: tuple[Fraction, ...], recipe) -> ReebGraph:
    """A graph on ``levels`` without labels whose other fields ``recipe``
    builds (``recipe.fields(levels)``) when one is first read."""
    graph = object.__new__(ReebGraph)
    graph.__dict__.update(levels=levels, edge_labels=None, _recipe=recipe)
    return graph


def _fields(
    vertex_sets: Sequence[frozenset[str]],
    down_maps: Sequence[dict[str, str]],
    up_maps: Sequence[dict[str, str]],
    vertex_covers: Sequence[frozenset[tuple[str, str]]] | None = None,
    edge_covers: Sequence[frozenset[tuple[str, str]]] | None = None,
) -> dict:
    """The fields of a graph from its finished vertex sets, maps and cover
    sets (one per level and one per gap; None for no relation anywhere);
    each gap's edges are its down map's keys."""
    edge_sets = tuple(map(frozenset, down_maps))
    none = repeat(frozenset())
    return dict(
        vertex_sets=tuple(vertex_sets),
        edge_sets=edge_sets,
        down_maps=tuple(down_maps),
        up_maps=tuple(up_maps),
        vertex_orders=tuple(map(LevelPoset, vertex_sets, vertex_covers or none)),
        edge_orders=tuple(map(LevelPoset, edge_sets, edge_covers or none)),
    )


@dataclass(frozen=True)
class _Skeleton:
    """A graph's critical vertices joined by long edges.

    A vertex is critical when it is not regular (one edge arriving from
    above, one leaving below), carries a level-order relation, or ends an
    edge that carries one; so sources and sinks are critical.  A long edge
    is a maximal path through non-critical vertices, named by its lowest
    edge: the edge arriving at its lower end, which is also the id a cut
    of that edge puts on its leaf.  An edge that carries a relation is a
    long edge on its own.

    ``levels`` holds the values of the levels with a critical vertex,
    increasing, and ``graph_level`` their indices in the graph;
    ``vertex_level`` sends a critical vertex to an index into ``levels``.
    ``down`` and ``up`` send every critical vertex to its (lower end, long
    edge) and (upper end, long edge) pairs, sorted by long edge.
    """

    levels: tuple[Fraction, ...]
    graph_level: tuple[int, ...]
    vertex_level: dict[str, int]
    down: dict[str, tuple[tuple[str, str], ...]]
    up: dict[str, tuple[tuple[str, str], ...]]

    @staticmethod
    def of(graph: ReebGraph) -> _Skeleton:
        """Regular vertices are the ends met once among the edges' lower ends
        and once among their upper ends.  Then one pass over the gaps from
        the bottom: a long edge starts at an edge whose lower end is critical
        and is carried up through non-critical vertices."""
        related = {x for o in graph.vertex_orders for cover in o.covers for x in cover}
        for dn, up, o in zip(graph.down_maps, graph.up_maps, graph.edge_orders):
            related.update(end for cover in o.covers for e in cover for end in (dn[e], up[e]))
        regular = _once(chain.from_iterable(dn.values() for dn in graph.down_maps))
        regular &= _once(chain.from_iterable(up.values() for up in graph.up_maps))
        regular -= related
        graph_level: list[int] = []
        vertex_level: dict[str, int] = {}
        for i, vs in enumerate(graph.vertex_sets):
            crit = vs - regular
            if crit:
                vertex_level.update(dict.fromkeys(crit, len(graph_level)))
                graph_level.append(i)
        down: dict[str, list[tuple[str, str]]] = {v: [] for v in vertex_level}
        up: dict[str, list[tuple[str, str]]] = {v: [] for v in vertex_level}
        through: dict[str, tuple[str, str]] = {}  # non-critical vertex -> (lower end, long edge)
        for dn, upm in zip(graph.down_maps, graph.up_maps):
            for e, d in dn.items():
                # A critical lower end is in no entry of ``through``.
                pair = through.pop(d, None) or (d, e)
                u = upm[e]
                if u in vertex_level:
                    down[u].append(pair)
                    up[pair[0]].append((u, pair[1]))
                else:
                    through[u] = pair
        return _Skeleton(
            levels=tuple(graph.levels[i] for i in graph_level),
            graph_level=tuple(graph_level),
            vertex_level=vertex_level,
            down={v: tuple(sorted(ps, key=itemgetter(1))) for v, ps in down.items()},
            up={v: tuple(sorted(ps, key=itemgetter(1))) for v, ps in up.items()},
        )


def _path_up(graph: ReebGraph, e: str, lo: int, hi: int) -> list[str]:
    """Edge ``e`` of gap ``lo``, then the one edge above each upper end in
    turn, up to gap ``hi - 1``; the ends between are regular vertices."""
    path = [e]
    for g in range(lo, hi - 1):
        path.append(graph.above_edges[graph.up_maps[g][path[-1]]][0])
    return path


def _repeated_ids(graph: ReebGraph) -> Iterator[str]:
    """validate's line for every vertex id met again on a later level, then
    every edge id met again in a later gap, by level or gap and then id."""
    vertices, edges = graph._ids
    for what, where, sets, ids in (
        ("vertex", "levels", graph.vertex_sets, vertices),
        ("edge", "gaps", graph.edge_sets, edges),
    ):
        if sum(map(len, sets)) > len(ids):
            first: dict[str, int] = {}
            for i, xs in enumerate(sets):
                for x in sorted(xs):
                    if x in first:
                        yield f"duplicate {what} id {x!r} at {where} {first[x]} and {i}"
                    else:
                        first[x] = i


def _unordered_levels(graph: ReebGraph) -> Iterator[str]:
    """validate's line for every level not below the next, by index."""
    levels = graph.levels
    if not _increasing(levels):
        for i, (lo, hi) in enumerate(zip(levels, levels[1:])):
            if lo >= hi:
                yield (
                    f"levels not strictly increasing at index {i} "
                    f"({format_level(lo)} >= {format_level(hi)})"
                )


def _empty(graph: ReebGraph) -> Iterator[str]:
    """validate's line for fewer than two levels, then for every empty
    vertex set and every empty edge set, by index."""
    if graph.level_count < 2:
        yield f"fewer than 2 levels ({graph.level_count})"
    for what, where, sets in (
        ("vertex", "level", graph.vertex_sets),
        ("edge", "gap", graph.edge_sets),
    ):
        if not all(sets):
            for i, xs in enumerate(sets):
                if not xs:
                    yield f"empty {what} set at {where} {i}"


def _shared_ids(graph: ReebGraph) -> Iterator[str]:
    """validate's line for every id used as both vertex and edge, by id."""
    vertices, edges = graph._ids
    for x in sorted(vertices & edges):
        yield f"id {x!r} used as both vertex and edge"


def _unattached(graph: ReebGraph) -> Iterator[str]:
    """validate's line for a list of vertex sets, edge sets, down maps or up
    maps not one per level or gap, both counted from the levels, then for
    every map whose domain is not its gap's edges and every edge end that
    is no vertex on the level next to its gap, over the gaps whose maps and
    levels pair up: gap by gap, the down map before the up map, a map's
    ends by edge id."""
    vsets, esets = graph.vertex_sets, graph.edge_sets
    downs, ups = graph.down_maps, graph.up_maps
    if (
        len(downs) == len(ups) == len(esets) == len(vsets) - 1 == len(graph.levels) - 1
        and all(map(eq, map(methodcaller("keys"), downs), esets))
        and all(map(eq, map(methodcaller("keys"), ups), esets))
        and all(vs.issuperset(dn.values()) for vs, dn in zip(vsets, downs))
        and all(vs.issuperset(up.values()) for vs, up in zip(vsets[1:], ups))
    ):
        return
    gaps = max(len(graph.levels) - 1, 0)
    for what, items, count, where in (
        ("vertex set", vsets, len(graph.levels), "levels"),
        ("edge set", esets, gaps, "gaps"),
        ("down map", downs, gaps, "gaps"),
        ("up map", ups, gaps, "gaps"),
    ):
        if len(items) != count:
            yield f"{what} list length mismatch ({len(items)} for {count} {where})"
    for i, (es, dn, up, below, above) in enumerate(zip(esets, downs, ups, vsets, vsets[1:])):
        for name, mp, targets, lvl in (
            ("down_map", dn, below, i),
            ("up_map", up, above, i + 1),
        ):
            if mp.keys() != es:
                yield f"{name} domain mismatch at gap {i}"
            for e in sorted(e for e in es if e in mp and mp[e] not in targets):
                yield _dangling(name, mp, e, lvl)


def _dangling(name: str, mp: Mapping[str, str], e: str, level: int) -> str:
    return f"dangling {name} target {mp[e]!r} for edge {e!r} (expected a vertex at level {level})"


def _orders(graph: ReebGraph) -> Iterator[tuple[str, int, LevelPoset, frozenset[str]]]:
    """Each level's order and vertex set, then each gap's order and edge
    set, with the kind and the index that validate's order lines name."""
    for what, orders, carriers in (
        ("vertex", graph.vertex_orders, graph.vertex_sets),
        ("edge", graph.edge_orders, graph.edge_sets),
    ):
        for i, (poset, carrier) in enumerate(zip(orders, carriers)):
            yield what, i, poset, carrier


def _unknown_covers(
    what: str, i: int, poset: LevelPoset, carrier: frozenset[str]
) -> Iterator[str]:
    """validate's line for every cover of ``poset``, the order of ``what``
    ``i``, that names an id outside ``carrier``, covers sorted."""
    if poset.covers and not carrier.issuperset(chain.from_iterable(poset.covers)):
        for lo, hi in sorted(poset.covers):
            if lo not in carrier or hi not in carrier:
                yield f"{what} order cover ({lo!r}, {hi!r}) references unknown id at index {i}"


def _mislabelled(graph: ReebGraph) -> Iterator[str]:
    """validate's line for a label list not one map per gap, counted from
    the levels, then, gap by gap, for a map whose keys are not its gap's
    edges and for one that gives two edges one label."""
    labels = graph.edge_labels
    if labels is None:
        return
    gaps = max(graph.level_count - 1, 0)
    if len(labels) != gaps:
        yield f"label list length mismatch ({len(labels)} for {gaps} gaps)"
    for i, (m, es) in enumerate(zip(labels, graph.edge_sets)):
        if m is None:
            continue
        if m.keys() != es:
            yield f"label domain mismatch at gap {i}"
        if len(set(m.values())) != len(m):
            yield f"non-bijective labels at gap {i}"


def _once(ends: Iterable[str]) -> set[str]:
    """The ids that occur exactly once among ``ends``."""
    seen: set[str] = set()
    again = {x for x in ends if x in seen or seen.add(x)}  # add() returns None
    return seen - again


def make_graph(
    levels: Sequence[Fraction | int | str],
    vertices: Sequence[Iterable[str]],
    edges: Sequence[Iterable[tuple[str, str, str]]],
    *,
    vertex_covers: Sequence[Iterable[tuple[str, str]]] | None = None,
    edge_covers: Sequence[Iterable[tuple[str, str]]] | None = None,
    labels: Sequence[Mapping[str, str] | None] | None = None,
) -> ReebGraph:
    """Assemble a graph from plain data.

    ``edges[i]`` holds (edge_id, down_vertex, up_vertex) triples for gap i.
    Shape errors (wrong list lengths, repeated edge id within a gap) raise
    ValueError; content-level problems are left for validate().
    """
    lv = tuple(map(as_level, levels))
    k = len(lv)
    if len(vertices) != k:
        raise ValueError(f"expected {k} vertex sets, got {len(vertices)}")
    if len(edges) != k - 1:
        raise ValueError(f"expected {k - 1} edge sets, got {len(edges)}")
    vsets = tuple(map(frozenset, map(map, repeat(str), vertices)))  # str of every id
    downs: list[dict[str, str]] = []
    ups: list[dict[str, str]] = []
    for i, gap in enumerate(edges):
        dn: dict[str, str] = {}
        up: dict[str, str] = {}
        for eid, lo, hi in gap:
            eid = str(eid)
            if eid in dn:
                raise ValueError(f"duplicate edge id {eid!r} in gap {i}")
            dn[eid] = str(lo)
            up[eid] = str(hi)
        downs.append(dn)
        ups.append(up)

    def cover_sets(covers, count, what):
        if covers is None:
            return None
        if len(covers) != count:
            raise ValueError(f"expected {count} {what} cover lists")
        return [frozenset((str(a), str(b)) for a, b in cov) for cov in covers]

    vcovers = cover_sets(vertex_covers, k, "vertex")
    ecovers = cover_sets(edge_covers, k - 1, "edge")
    lab: tuple[Mapping[str, str] | None, ...] | None = None
    if labels is not None:
        if len(labels) != k - 1:
            raise ValueError(f"expected {k - 1} label maps, got {len(labels)}")
        lab = tuple(dict(m) if m is not None else None for m in labels)
    return ReebGraph(levels=lv, edge_labels=lab, **_fields(vsets, downs, ups, vcovers, ecovers))


def validate(graph: ReebGraph, *, allow_cut_ids: bool = False) -> list[str]:
    """Check every structural invariant; return a list of violations.

    An empty list means the graph is valid.  ``allow_cut_ids`` is used when
    re-checking decomposition output, which legitimately carries vertices with
    the reserved "cut:" prefix.

    Each group of checks first asks, in a few passes of C-level set, map
    and count operations, whether it has anything to report; only a group
    that does walks its ids one by one, in the order that fixes the order
    of its lines.  A plain compact graph (see the module's note) has
    nothing to report, and is not read.
    """
    if graph._plain:
        return []
    report: list[str] = []
    k = graph.level_count
    vsets, esets = graph.vertex_sets, graph.edge_sets
    downs, ups = graph.down_maps, graph.up_maps
    # With fewer than two levels no level is out of order, so _empty's line
    # for that still comes first.
    report += _unordered_levels(graph)
    report += _empty(graph)

    seen_v, seen_e = graph._ids
    repeats = list(_repeated_ids(graph))
    report += repeats
    report += _shared_ids(graph)
    # One search of the ids joined finds every id with the prefix, and ids
    # that hold it further in, which the exact filter drops.
    if not allow_cut_ids and RESERVED_VERTEX_PREFIX in "\n".join(chain(seen_v, seen_e)):
        for x in sorted({x for x in chain(seen_v, seen_e) if x.startswith(RESERVED_VERTEX_PREFIX)}):
            report.append(f"reserved id prefix {RESERVED_VERTEX_PREFIX!r} on {x!r}")

    unattached = list(_unattached(graph))
    report += unattached

    # Trivial orders on exactly their level's ids or gap's edges, the common
    # case, have nothing to report here or in the map checks below.
    vorders, eorders = graph.vertex_orders, graph.edge_orders
    elements, covers = attrgetter("elements"), attrgetter("covers")
    gaps = max(k - 1, 0)
    if not (
        len(vorders) == len(vsets) == k
        and len(eorders) == len(esets) == gaps
        and all(map(eq, map(elements, vorders), vsets))
        and all(map(eq, map(elements, eorders), esets))
        and not any(map(covers, vorders))
        and not any(map(covers, eorders))
    ):
        for what, orders, count, where in (
            ("vertex", vorders, k, "levels"),
            ("edge", eorders, gaps, "gaps"),
        ):
            if len(orders) != count:
                report.append(
                    f"{what} order list length mismatch ({len(orders)} for {count} {where})"
                )
        for what, i, poset, carrier in _orders(graph):
            if poset.elements != carrier:
                report.append(f"{what} order elements mismatch at index {i}")
            report += _unknown_covers(what, i, poset, carrier)
            if poset.has_cycle:
                report.append(f"non-poset {what} order at index {i} (cycle in covers)")

        rows = zip(eorders, vorders, vorders[1:], downs, ups)
        for i, (eo, below, above, dn, up) in enumerate(rows):
            # A cycle at either end leaves no order for a map to respect.
            if not eo.covers or eo.has_cycle or below.has_cycle or above.has_cycle:
                continue
            for lo, hi in sorted(eo.covers):
                if lo in dn and hi in dn and not below.leq(dn[lo], dn[hi]):
                    report.append(f"non-monotone down_map at gap {i}: cover ({lo!r}, {hi!r})")
                if lo in up and hi in up and not above.leq(up[lo], up[hi]):
                    report.append(f"non-monotone up_map at gap {i}: cover ({lo!r}, {hi!r})")

    report += _mislabelled(graph)

    # Connectivity over the incidence structure, using only well-formed
    # links.  Where ids are unique and every edge joins its gap's two
    # levels, each component holds a source (its highest vertex is no lower
    # end of a gap's edge), so a graph with one source is connected and
    # needs no further pass.
    if not (repeats or unattached):
        lower_ends = set().union(*map(methodcaller("values"), downs[:graph.gap_count]))
        if len(seen_v) - len(lower_ends) == 1:
            return report
    # Otherwise a union-find over one integer per id (an id used as both
    # vertex and edge is one node), merging components as links join them.
    index = {x: n for n, x in enumerate(seen_v | seen_e)}
    parent = list(range(len(index)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = len(index)
    for dn, up, es in zip(downs, ups, esets):
        for e in es:
            for end in (dn.get(e), up.get(e)):
                if end in seen_v:
                    ra, rb = find(index[e]), find(index[end])
                    if ra != rb:
                        parent[ra] = rb
                        components -= 1
    if components > 1:
        report.append(f"disconnected graph ({components} components)")
    return report


def _increasing(levels: Sequence[Fraction]) -> bool:
    """Whether ``levels`` strictly increase, compared as integers over the
    least common denominator when they are all rational."""
    try:
        scale = math.lcm(*{x.denominator for x in levels})
        ints = [x.numerator * (scale // x.denominator) for x in levels]
    except AttributeError:
        ints = levels
    return all(map(lt, ints, ints[1:]))


def minimize_critical_set(graph: ReebGraph) -> ReebGraph:
    """Splice out interior levels on which every vertex is regular.

    The result has the same geometry with the smallest level set: it keeps
    the bottom and top levels and every level holding a vertex of the
    checked skeleton (_Skeleton) without exactly one long edge above and
    one below, so a graph that ``_checked_skeleton`` refuses raises
    ValueError with validate's line.  Raises OrderConflict when splicing
    would discard covers, since a merged chain cannot carry the per-gap
    order data.  Labels of merged gaps are dropped.
    """
    sk = graph._checked_skeleton
    k = graph.level_count
    keep = sorted({0, k - 1}.union(
        sk.graph_level[sk.vertex_level[v]]
        for v, above in sk.up.items()
        if len(above) != 1 or len(sk.down[v]) != 1
    ))
    if len(keep) == k:
        return graph

    for a, b in zip(keep, keep[1:]):
        if b - a == 1:
            continue
        for lvl in range(a + 1, b):
            if not graph.vertex_orders[lvl].is_trivial:
                raise OrderConflict(
                    f"removable level {lvl} carries nontrivial order relations"
                )
        for gap in range(a, b):
            if not graph.edge_orders[gap].is_trivial:
                raise OrderConflict(
                    f"gap {gap} inside a spliced run carries nontrivial order relations"
                )

    new_levels = [graph.levels[i] for i in keep]
    new_vsets = [graph.vertex_sets[i] for i in keep]
    new_vorders = [graph.vertex_orders[i] for i in keep]
    new_edges: list[list[tuple[str, str, str]]] = []
    new_eorders: list[LevelPoset] = []
    had_labels = graph.edge_labels is not None
    new_labels: list[Mapping[str, str] | None] = []

    for a, b in zip(keep, keep[1:]):
        if b - a == 1:
            triples = [
                (e, graph.down_maps[a][e], graph.up_maps[a][e])
                for e in sorted(graph.edge_sets[a])
            ]
            new_edges.append(triples)
            new_eorders.append(graph.edge_orders[a])
            new_labels.append(graph.gap_labels(a))
            continue
        # Every vertex strictly between a and b is regular and critical for
        # no relation, so each edge of gap a runs up its long edge to gap b - 1.
        triples = []
        for e in sorted(graph.edge_sets[a]):
            top = _path_up(graph, e, a, b)[-1]
            triples.append((e, graph.down_maps[a][e], graph.up_maps[b - 1][top]))
        new_edges.append(triples)
        new_eorders.append(LevelPoset.trivial(t[0] for t in triples))
        new_labels.append(None)

    out = make_graph(
        new_levels,
        new_vsets,
        new_edges,
        labels=new_labels if had_labels else None,
    )
    return replace(
        out,
        vertex_orders=tuple(new_vorders),
        edge_orders=tuple(new_eorders),
    )


def refine_to_levels(
    graph: ReebGraph, new_levels: Sequence[Fraction | int | str]
) -> ReebGraph:
    """Return an equivalent graph over a finer level set.

    ``new_levels`` must contain every current level, and inserted values must
    fall strictly inside the current range; otherwise BadLevelSet is raised.
    An edge ``e`` of a gap that receives new values x < y < ... is cut into
    segments ``e.lo``, ``e.hi.lo``, ... up to ``e.hi...hi``, joined by fresh
    regular vertices ``e@x``, ``e.hi@y``, ...; its label takes the same
    suffixes, and every new gap and level inherits the gap's covers, renamed.
    A fresh id already in use, or taken by an earlier fresh id, is extended
    with ``'`` until it is free (``e.lo'``), and later splits of that
    segment build on the extended id; so no id collides.  One pass over the
    gaps builds the result, so the cost is proportional to the refined
    graph; a call that inserts nothing returns ``graph`` itself.
    """
    target = sorted({as_level(x) for x in new_levels})
    current = set(graph.levels)
    if not current <= set(target):
        missing = sorted(current - set(target))
        raise BadLevelSet(
            "new level set must contain the current one; missing "
            + ", ".join(format_level(x) for x in missing)
        )
    if target[0] != graph.levels[0] or target[-1] != graph.levels[-1]:
        raise BadLevelSet("inserted levels must fall strictly inside the level range")
    # Inserted values, largest first, so that pop() yields them in order.
    pending = [x for x in reversed(target) if x not in current]
    if not pending:
        return graph

    # Ids in use, counted: a split frees its segment's old name once its
    # fresh ids are chosen.
    live = Counter(chain(*graph.vertex_sets, *graph.edge_sets))
    level_rows = zip(graph.levels, graph.vertex_sets, graph.vertex_orders)
    levels = [next(level_rows)]
    gaps = []

    def fresh(name):
        while live[name]:
            name += "'"
        live[name] += 1
        return name

    def renamed(covers, names):
        return frozenset((names[a], names[b]) for a, b in covers)

    def segment(seg, bottom, top, covers, label, suffix):
        es = frozenset(seg.values())
        return (
            es,
            {seg[e]: bottom[e] for e in seg},
            {seg[e]: top[e] for e in seg},
            LevelPoset(es, renamed(covers, seg)),
            label and {seg[e]: label[e] + suffix for e in seg},
        )

    gap_rows = zip(
        graph.edge_sets, graph.down_maps, graph.up_maps, graph.edge_orders,
        graph.edge_labels or (None,) * graph.gap_count,
    )
    for gap, level in zip(gap_rows, level_rows):
        if not pending or pending[-1] > level[0]:
            gaps.append(gap)
        else:
            # Keyed by the gap's own edges: the current top segment's name,
            # its bottom vertex and its label.
            edges, bottom, up, order, label = gap
            names = {e: e for e in edges}
            while pending and pending[-1] < level[0]:
                value = pending.pop()
                at = format_level(value)
                by_name = sorted(names, key=names.__getitem__)
                mid = {e: fresh(f"{names[e]}@{at}") for e in by_name}
                lo = {e: fresh(names[e] + ".lo") for e in by_name}
                hi = {e: fresh(names[e] + ".hi") for e in by_name}
                live.subtract(names.values())
                gaps.append(segment(lo, bottom, mid, order.covers, label, ".lo"))
                vs = frozenset(mid.values())
                levels.append((value, vs, LevelPoset(vs, renamed(order.covers, mid))))
                names, bottom = hi, mid
                label = label and {e: label[e] + ".hi" for e in names}
            gaps.append(segment(names, bottom, up, order.covers, label, ""))
        levels.append(level)
    levels, vsets, vorders = zip(*levels)
    esets, downs, ups, eorders, labels = zip(*gaps)
    return ReebGraph(
        levels=levels,
        vertex_sets=vsets,
        edge_sets=esets,
        down_maps=downs,
        up_maps=ups,
        vertex_orders=vorders,
        edge_orders=eorders,
        edge_labels=labels if graph.edge_labels is not None else None,
    )


def common_refinement(a: ReebGraph, b: ReebGraph) -> tuple[ReebGraph, ReebGraph]:
    """Refine both graphs to the union of their level sets."""
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        raise BadLevelSet("graphs span different level ranges")
    if a.levels == b.levels:
        return a, b
    union = sorted(set(a.levels) | set(b.levels))
    return refine_to_levels(a, union), refine_to_levels(b, union)
