"""Isomorphism decisions for leveled graphs.

canonical_form fingerprints a leveled tree together with its level orders,
exactly: equal fingerprints mean a level- and order-preserving bijection
exists.  reeb_iso and brute_force_iso decide isomorphism of whole graphs.
Both start with one shared prefilter, which refines the pair to common levels
and compares colour multisets per level and per gap.  reeb_iso then takes the
fingerprint route (decompose both sides into trees, compare fingerprint
multisets) or, when that route is closed, the oracle route: brute_force_iso,
a plain backtracking matcher usable as an independent oracle on anything
small.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping

from .core import LevelPoset, ReebGraph, common_refinement
from .dag import DagView, build_dag_view
from .decomposition import decompose
from .errors import (
    LabelMismatch,
    MissingLabels,
    NotATree,
    OrderConflict,
    ReticulationConflict,
    SizeLimitExceeded,
)

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


def _colours(
    graph: ReebGraph, tags: Mapping[str, int] | None, use_labels: bool
) -> tuple[dict[str, tuple], dict[str, tuple]]:
    """Vertex and edge colours, which every isomorphism preserves: (indegree,
    outdegree, elements below, elements above, sink tag) for a vertex and
    (elements below, elements above, label or "") for an edge.  Below and
    above count the generated order; the tag is -1 off sinks and untagged."""
    tags = tags or {}
    # Degrees straight from the maps: canonical_form runs this on every
    # factor, and the graph's cached adjacency would be built and kept for each.
    indeg: dict[str, int] = {}
    outdeg: dict[str, int] = {}
    for down, up in zip(graph.down_maps, graph.up_maps):
        for e, v in down.items():
            indeg[v] = indeg.get(v, 0) + 1
            outdeg[up[e]] = outdeg.get(up[e], 0) + 1
    vertex: dict[str, tuple] = {}
    edge: dict[str, tuple] = {}
    for vs, poset in zip(graph.vertex_sets, graph.vertex_orders):
        above = {x: poset.strictly_above(x) for x in poset.elements} if poset.covers else {}
        below = Counter(y for ups in above.values() for y in ups) if above else {}
        for v in vs:
            out = outdeg.get(v, 0)
            tag = tags.get(v, -1) if out == 0 else -1
            vertex[v] = (indeg.get(v, 0), out, below.get(v, 0), len(above.get(v, ())), tag)
    for i, (es, poset) in enumerate(zip(graph.edge_sets, graph.edge_orders)):
        above = {x: poset.strictly_above(x) for x in poset.elements} if poset.covers else {}
        below = Counter(y for ups in above.values() for y in ups) if above else {}
        labels = graph.gap_labels(i) if use_labels else None
        for e in es:
            edge[e] = (below.get(e, 0), len(above.get(e, ())), labels[e] if labels else "")
    return vertex, edge


def _prefilter(
    a: ReebGraph,
    b: ReebGraph,
    tags_a: Mapping[str, int] | None,
    tags_b: Mapping[str, int] | None,
    use_labels: bool = False,
) -> tuple[ReebGraph, ReebGraph, tuple, tuple] | None:
    """Check level range, refine, then compare per-level and per-gap counts
    and colour multisets.  Returns (ra, rb, colours_a, colours_b), or None
    when the pair cannot be isomorphic.  ``use_labels`` needs full labellings
    on both sides (MissingLabels, raised once the counts agree)."""
    if (a.levels[0], a.levels[-1]) != (b.levels[0], b.levels[-1]):
        return None
    ra, rb = common_refinement(a, b)
    sets_a = (ra.vertex_sets, ra.edge_sets)
    sets_b = (rb.vertex_sets, rb.edge_sets)
    if [list(map(len, s)) for s in sets_a] != [list(map(len, s)) for s in sets_b]:
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


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """Opaque, totally ordered fingerprint of a leveled tree with orders."""

    data: bytes


def canonical_form(
    graph: ReebGraph,
    *,
    leaf_ranks: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> CanonicalForm:
    """Exact fingerprint of a leveled tree.

    Two trees receive equal fingerprints precisely when some bijection of
    vertices and edges preserves levels, attachments, and the generated level
    orders in both directions.  ``leaf_ranks`` optionally colors bottom
    vertices (out-degree zero) with an integer, making the fingerprint
    sensitive to leaf identity; unranked leaves take -1.  Edge labels are
    deliberately ignored.

    The core is a bottom-up code over the tree rooted at its center, with
    explicit order relations appended under a canonical numbering.  When
    sibling subtrees tie and contain order-involved elements, all their
    arrangements are tried and the smallest serialization wins; the number of
    arrangements is capped by ``budget``.
    """
    n_v = sum(len(vs) for vs in graph.vertex_sets)
    n_e = sum(len(es) for es in graph.edge_sets)
    if n_e != n_v - 1:
        raise NotATree(f"{n_e} edges on {n_v} vertices")

    adj: dict[str, list[tuple[str, str]]] = {
        v: [] for vs in graph.vertex_sets for v in vs
    }
    for i in range(graph.gap_count):
        for e in graph.edge_sets[i]:
            d = graph.down_maps[i][e]
            u = graph.up_maps[i][e]
            adj[d].append((e, u))
            adj[u].append((e, d))

    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e, w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n_v:
        raise NotATree("underlying graph is not connected")

    vertex_pairs = [p for poset in graph.vertex_orders for p in _strict_pairs(poset)]
    edge_pairs = [p for poset in graph.edge_orders for p in _strict_pairs(poset)]
    involved_v = {x for p in vertex_pairs for x in p}
    involved_e = {x for p in edge_pairs for x in p}

    # Integer-only codes (level numerator and denominator, closure counts,
    # rank) keep the tuple comparisons below cheap.
    vcol, ecol = _colours(graph, leaf_ranks, False)
    vc: dict[str, tuple[int, int, int, int, int]] = {}
    for v in adj:
        lvl = graph.levels[graph.vertex_level[v]]
        vc[v] = (lvl.numerator, lvl.denominator, *vcol[v][2:])
    ec = {e: c[:2] for e, c in ecol.items()}

    # Tree center by iterative leaf peeling; one or two vertices survive.
    deg = {v: len(adj[v]) for v in adj}
    removed: set[str] = set()
    layer = sorted(v for v in adj if deg[v] <= 1)
    remaining = n_v
    while remaining > 2:
        nxt = []
        for v in layer:
            removed.add(v)
            remaining -= 1
            for e, w in adj[v]:
                if w in removed:
                    continue
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = sorted(nxt)
    centers = sorted(v for v in adj if v not in removed)

    budget_value = _budget(budget)
    candidates = []
    total_candidates = 0
    for root in centers:
        visited = {root}
        children: dict[str, list[tuple[str, str]]] = {v: [] for v in adj}
        order = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for e, w in sorted(adj[v]):
                if w in visited:
                    continue
                visited.add(w)
                children[v].append((e, w))
                order.append(w)
                stack.append(w)

        code: dict[str, tuple] = {}
        subflag: dict[str, bool] = {}
        for v in reversed(order):
            kids = sorted((ec[e], code[w]) for e, w in children[v])
            code[v] = (vc[v], tuple(kids))
            subflag[v] = v in involved_v or any(
                e in involved_e or subflag[w] for e, w in children[v]
            )

        def block_flagged(member: tuple[str, str]) -> bool:
            e, w = member
            return e in involved_e or subflag[w]

        options_by_vertex: dict[str, list[list[tuple[str, str]]]] = {}
        root_count = 1
        for v in order:
            kids = children[v]
            if not kids:
                options_by_vertex[v] = [[]]
                continue
            groups: dict[tuple, list[tuple[str, str]]] = {}
            for e, w in kids:
                groups.setdefault((ec[e], code[w]), []).append((e, w))
            group_options: list[list[list[tuple[str, str]]]] = []
            for key in sorted(groups):
                members = sorted(groups[key])
                flagged = [m for m in members if block_flagged(m)]
                plain = [m for m in members if not block_flagged(m)]
                if len(flagged) > 1:
                    root_count *= math.factorial(len(flagged))
                    if total_candidates + root_count > budget_value:
                        raise SizeLimitExceeded(
                            f"canonical arrangement count exceeds budget {budget_value}"
                        )
                    perms = [list(p) + plain for p in itertools.permutations(flagged)]
                else:
                    perms = [flagged + plain]
                group_options.append(perms)
            options_by_vertex[v] = [
                [m for part in combo for m in part]
                for combo in itertools.product(*group_options)
            ]
        total_candidates += root_count

        def numbered_pairs(arrangement: Mapping[str, list[tuple[str, str]]]):
            num: dict[str, int] = {}
            counter = 0
            walk: list[tuple[str, str]] = [("v", root)]
            while walk:
                kind, x = walk.pop()
                num[x] = counter
                counter += 1
                if kind == "v":
                    for e, w in reversed(arrangement[x]):
                        walk.append(("v", w))
                        walk.append(("e", e))
            vp = tuple(sorted((num[x], num[y]) for x, y in vertex_pairs))
            ep = tuple(sorted((num[x], num[y]) for x, y in edge_pairs))
            return (vp, ep)

        choice_vertices = [v for v in order if len(options_by_vertex[v]) > 1]
        best = None
        for combo in itertools.product(
            *(options_by_vertex[v] for v in choice_vertices)
        ):
            arrangement = {v: opts[0] for v, opts in options_by_vertex.items()}
            arrangement.update(zip(choice_vertices, combo))
            pairs = numbered_pairs(arrangement)
            if best is None or pairs < best:
                best = pairs
        candidates.append((code[root], best))

    final = min(candidates)
    return CanonicalForm(data=repr(final).encode("ascii"))


def decomposition_invariant(
    graph: ReebGraph | DagView,
    *,
    leaf_ranks: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> tuple[CanonicalForm, ...]:
    """Sorted multiset of factor fingerprints; a complete isomorphism
    invariant for single-source graphs with trivial level orders.  Accepts an
    already built view, as decompose does."""
    dec = decompose(graph)
    return tuple(
        sorted(
            canonical_form(f.graph, leaf_ranks=leaf_ranks, budget=budget)
            for f in dec.factors
        )
    )


def reeb_iso(
    a: ReebGraph,
    b: ReebGraph,
    *,
    leaf_ranks_a: Mapping[str, int] | None = None,
    leaf_ranks_b: Mapping[str, int] | None = None,
    budget: int | None = None,
) -> bool:
    """Decide whether two leveled graphs are isomorphic.

    The shared prefilter refines both graphs to a common level set and
    compares colour multisets.  When both sides then classify cleanly and
    carry trivial orders, the decision compares sorted factor fingerprints;
    otherwise it falls back to the backtracking oracle, which searches the
    prefiltered pair without filtering it again.  Optional leaf ranks
    constrain the bijection to respect the given integer on bottom vertices
    (unranked ones must map to unranked ones).
    """
    pre = _prefilter(a, b, leaf_ranks_a, leaf_ranks_b)
    if pre is None:
        return False
    ra, rb = pre[:2]

    def fallback() -> bool:
        return brute_force_iso(ra, rb, budget=budget, _pre=pre)

    try:
        va = build_dag_view(ra)
    except ReticulationConflict:
        va = None
    try:
        vb = build_dag_view(rb)
    except ReticulationConflict:
        vb = None
    if (va is None) != (vb is None):
        return False
    if va is None or vb is None:
        return fallback()
    try:
        inv_a = decomposition_invariant(va, leaf_ranks=leaf_ranks_a, budget=budget)
        inv_b = decomposition_invariant(vb, leaf_ranks=leaf_ranks_b, budget=budget)
    except OrderConflict:
        return fallback()
    return inv_a == inv_b


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
    None when the forced map fails any check.
    """
    if not a.has_full_labels or not b.has_full_labels:
        raise MissingLabels("labelled comparison needs a full labelling on both sides")
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

    vertex_map: dict[str, str] = {}

    def assign(x: str, y: str) -> bool:
        if x in vertex_map:
            return vertex_map[x] == y
        vertex_map[x] = y
        return True

    for i in range(ra.gap_count):
        for e, e2 in edge_maps[i].items():
            if not assign(ra.down_maps[i][e], rb.down_maps[i][e2]):
                return None
            if not assign(ra.up_maps[i][e], rb.up_maps[i][e2]):
                return None
    vertex_maps: list[dict[str, str]] = []
    for i in range(ra.level_count):
        vm = {v: vertex_map[v] for v in ra.vertex_sets[i] if v in vertex_map}
        if set(vm) != ra.vertex_sets[i]:
            return None
        if set(vm.values()) != rb.vertex_sets[i] or len(set(vm.values())) != len(vm):
            return None
        vertex_maps.append(vm)
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
    _pre: tuple[ReebGraph, ReebGraph, tuple, tuple] | None = None,
) -> bool:
    """Backtracking isomorphism search.  Correct on every input it finishes;
    raises SizeLimitExceeded once the node budget runs out (default from
    REEB_SEARCH_BUDGET or 10**7).

    Assignment proceeds level by level from the bottom, interleaving vertex
    and edge choices so that each placed edge immediately pins its upper
    endpoint.  Order relations are compared incrementally against everything
    already placed on the same level or gap; labels constrain edges only when
    ``use_labels`` is set.  ``vertex_tags_*`` add an integer color on bottom
    vertices, matching the leaf-rank convention used elsewhere.  ``_pre`` is
    the prefilter's result for this very pair and its tags, when the caller
    (reeb_iso's fallback) already has it.
    """
    pre = _prefilter(a, b, vertex_tags_a, vertex_tags_b, use_labels) if _pre is None else _pre
    return pre is not None and _search(pre, budget)


def _search(pre: tuple[ReebGraph, ReebGraph, tuple, tuple], budget: int | None) -> bool:
    """brute_force_iso's backtracking on a pair that passed ``_prefilter``,
    whose result ``pre`` is: the refined pair and both sides' colours."""
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

    def final_check() -> bool:
        for i in range(k):
            if not _orders_equivalent(ra.vertex_orders[i], rb.vertex_orders[i], vmap):
                return False
        for i in range(ra.gap_count):
            if not _orders_equivalent(ra.edge_orders[i], rb.edge_orders[i], emap):
                return False
        return True

    slots: list[tuple[str, int]] = []
    for i in range(k):
        slots.append(("V", i))
        if i < k - 1:
            slots.append(("E", i))

    def run_slot(si: int) -> bool:
        if si == len(slots):
            return final_check()
        kind, i = slots[si]
        if kind == "V":
            return fill_vertices(i, si)
        return fill_edges(i, si)

    def fill_vertices(i: int, si: int) -> bool:
        pend = [x for x in sorted(ra.vertex_sets[i]) if x not in vmap]
        if not pend:
            return run_slot(si + 1)
        x = pend[0]
        for y in sorted(rb.vertex_sets[i]):
            spend()
            if not place_vertex(i, x, y):
                continue
            if fill_vertices(i, si):
                return True
            unplace_vertex(i, x)
        return False

    def fill_edges(i: int, si: int) -> bool:
        pend = [e for e in sorted(ra.edge_sets[i]) if e not in emap]
        if not pend:
            return run_slot(si + 1)
        e = pend[0]
        want_down = vmap[ra.down_maps[i][e]]
        u = ra.up_maps[i][e]
        for e2 in sorted(rb.edge_sets[i]):
            spend()
            if e2 in used_e or einv_a[e] != einv_b[e2]:
                continue
            if rb.down_maps[i][e2] != want_down:
                continue
            if not edge_order_ok(i, e, e2):
                continue
            u2 = rb.up_maps[i][e2]
            forced = False
            if u in vmap:
                if vmap[u] != u2:
                    continue
            else:
                if not place_vertex(i + 1, u, u2):
                    continue
                forced = True
            emap[e] = e2
            used_e.add(e2)
            placed_e[i].append(e)
            if fill_edges(i, si):
                return True
            placed_e[i].pop()
            used_e.discard(e2)
            del emap[e]
            if forced:
                unplace_vertex(i + 1, u)
        return False

    return run_slot(0)
