"""JSON interchange format and DOT rendering.

The JSON layout mirrors the model directly: levels as exact strings, one
vertex list per level, one edge list per gap with explicit attachment, order
covers as [lower, upper] pairs, optional per-gap label maps, and an optional
leaf rank table.  dump_text is fully canonical (sorted keys, sorted lists,
two-space indent, trailing newline) so writing, reading, and writing again
reproduces the file byte for byte.

from_jsonable reads a document in one pass, group by group in document
order: top keys, levels, vertices, edges, vertex orders, edge orders,
labels, leaf ranks.  Each group is first read plainly: exact types, counts
and repeated ids are checked with no JSON pointer built, and the group's
sets and maps are built from its id lists in their order as it goes.  Only
a group that this refuses is walked item by item in document order, and
the walk raises the SchemaError of its first fault; the error reported for
a document is the one an item-by-item check of the whole document meets
first.  The walk also builds what the plain reading refused only for its
types (a str subclass, an integer level), with str() of every id.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .core import ReebGraph, _fields, format_level, parse_level
from .errors import SchemaError

TOP_KEYS = {
    "levels",
    "vertices",
    "edges",
    "vertex_orders",
    "edge_orders",
    "labels",
    "leaf_ranks",
}


def to_jsonable(
    graph: ReebGraph, *, leaf_ranks: Mapping[str, int] | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "levels": [format_level(x) for x in graph.levels],
        "vertices": [sorted(vs) for vs in graph.vertex_sets],
        "edges": [
            [
                {"id": e, "down": graph.down_maps[i][e], "up": graph.up_maps[i][e]}
                for e in sorted(graph.edge_sets[i])
            ]
            for i in range(graph.gap_count)
        ],
        "vertex_orders": [
            [list(pair) for pair in sorted(p.covers)] for p in graph.vertex_orders
        ],
        "edge_orders": [
            [list(pair) for pair in sorted(p.covers)] for p in graph.edge_orders
        ],
    }
    if graph.edge_labels is not None:
        doc["labels"] = [
            dict(sorted(m.items())) if m is not None else None
            for m in graph.edge_labels
        ]
    if leaf_ranks is not None:
        doc["leaf_ranks"] = dict(sorted(leaf_ranks.items()))
    return doc


def dump_text(graph: ReebGraph, *, leaf_ranks: Mapping[str, int] | None = None) -> str:
    return json.dumps(to_jsonable(graph, leaf_ranks=leaf_ranks), indent=2, sort_keys=True) + "\n"


def _want(cond: bool, message: str, pointer: str) -> None:
    if not cond:
        raise SchemaError(message, pointer)


def _check_level(value: Any, pointer: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError("level must be a string or integer", pointer)
    try:
        return parse_level(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {exc}", pointer) from None


def _check_str(value: Any, pointer: str) -> str:
    _want(isinstance(value, str), "expected a string", pointer)
    return value


def _check_pairs(value: Any, pointer: str) -> list[tuple[str, str]]:
    _want(isinstance(value, list), "expected a list of [lower, upper] pairs", pointer)
    out = []
    for n, pair in enumerate(value):
        here = f"{pointer}/{n}"
        _want(
            isinstance(pair, list) and len(pair) == 2,
            "expected a [lower, upper] pair",
            here,
        )
        out.append((_check_str(pair[0], f"{here}/0"), _check_str(pair[1], f"{here}/1")))
    return out


def _check_ranks(value: Any, pointer: str) -> dict[str, int]:
    """A leaf rank table: an object mapping ids to integers (not booleans)."""
    _want(isinstance(value, dict), "expected an object", pointer)
    if not {int}.issuperset(map(type, value.values())):
        for key, rank in value.items():
            _want(
                isinstance(rank, int) and not isinstance(rank, bool),
                "rank must be an integer",
                f"{pointer}/{key}",
            )
    return dict(value)


# Each group has a plain reader, which returns None at the first thing it
# does not accept, and a walk (see the module's note).


def _plain_levels(raw: Any) -> tuple[Fraction, ...] | None:
    """Each distinct level string is parsed once."""
    if type(raw) is not list or len(raw) < 2:
        return None
    for x in raw:
        if type(x) is not str:
            return None
    try:
        parsed = {x: parse_level(x) for x in set(raw)}
    except (ValueError, ZeroDivisionError):
        return None
    return tuple(map(parsed.__getitem__, raw))


def _walk_levels(raw: Any) -> tuple[Fraction, ...]:
    _want(isinstance(raw, list), "expected a list", "/levels")
    _want(len(raw) >= 2, "need at least two levels", "/levels")
    return tuple(_check_level(x, f"/levels/{i}") for i, x in enumerate(raw))


def _plain_vertices(raw: Any, k: int) -> list[frozenset[str]] | None:
    if type(raw) is not list or len(raw) != k:
        return None
    sets = []
    for vs in raw:
        if type(vs) is not list:
            return None
        for v in vs:
            if type(v) is not str:
                return None
        ids = frozenset(vs)
        if len(ids) < len(vs):
            return None
        sets.append(ids)
    return sets


def _walk_vertices(raw: Any, k: int) -> list[frozenset[str]]:
    _want(isinstance(raw, list), "expected a list", "/vertices")
    _want(len(raw) == k, f"expected {k} vertex lists", "/vertices")
    for i, vs in enumerate(raw):
        _want(isinstance(vs, list), "expected a list of ids", f"/vertices/{i}")
        ids: set[str] = set()
        for n, v in enumerate(vs):
            v = _check_str(v, f"/vertices/{i}/{n}")
            _want(v not in ids, f"duplicate vertex id {v!r}", f"/vertices/{i}/{n}")
            ids.add(v)
    return [frozenset(map(str, vs)) for vs in raw]


def _plain_edges(raw: Any, gaps: int) -> tuple[list[dict[str, str]], list[dict[str, str]]] | None:
    """Each gap's down and up maps, built while its edges are checked."""
    if type(raw) is not list or len(raw) != gaps:
        return None
    downs, ups = [], []
    for es in raw:
        if type(es) is not list:
            return None
        dn: dict[str, str] = {}
        up: dict[str, str] = {}
        for item in es:
            if type(item) is not dict or len(item) != 3:
                return None
            try:
                e, d, u = item["id"], item["down"], item["up"]
            except KeyError:
                return None
            if type(e) is not str or type(d) is not str or type(u) is not str or e in dn:
                return None
            dn[e] = d
            up[e] = u
        downs.append(dn)
        ups.append(up)
    return downs, ups


def _walk_edges(raw: Any, gaps: int) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    _want(isinstance(raw, list), "expected a list", "/edges")
    _want(len(raw) == gaps, f"expected {gaps} edge lists", "/edges")
    downs, ups = [], []
    for i, es in enumerate(raw):
        _want(isinstance(es, list), "expected a list of edge objects", f"/edges/{i}")
        dn: dict[str, str] = {}
        up: dict[str, str] = {}
        for n, item in enumerate(es):
            here = f"/edges/{i}/{n}"
            _want(isinstance(item, dict), "expected an edge object", here)
            _want(
                set(item) == {"id", "down", "up"},
                "edge object needs exactly the keys id, down, up",
                here,
            )
            e = str(_check_str(item["id"], f"{here}/id"))
            _want(e not in dn, f"duplicate edge id {e!r}", f"{here}/id")
            dn[e] = str(_check_str(item["down"], f"{here}/down"))
            up[e] = str(_check_str(item["up"], f"{here}/up"))
        downs.append(dn)
        ups.append(up)
    return downs, ups


def _plain_covers(raw: Any, count: int) -> list[frozenset[tuple[str, str]]] | None:
    if type(raw) is not list or len(raw) != count:
        return None
    out = []
    for pairs in raw:
        if type(pairs) is not list:
            return None
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                return None
            if type(pair[0]) is not str or type(pair[1]) is not str:
                return None
        out.append(frozenset(map(tuple, pairs)))
    return out


def _walk_covers(raw: Any, count: int, pointer: str) -> list[frozenset[tuple[str, str]]]:
    _want(isinstance(raw, list), "expected a list", pointer)
    _want(len(raw) == count, f"expected {count} cover lists", pointer)
    return [
        frozenset((str(a), str(b)) for a, b in _check_pairs(item, f"{pointer}/{i}"))
        for i, item in enumerate(raw)
    ]


def _plain_labels(raw: Any, gaps: int) -> tuple[dict[str, str] | None, ...] | None:
    if type(raw) is not list or len(raw) != gaps:
        return None
    for m in raw:
        if m is not None:
            if type(m) is not dict:
                return None
            for value in m.values():
                if type(value) is not str:
                    return None
    return tuple(None if m is None else dict(m) for m in raw)


def _walk_labels(raw: Any, gaps: int) -> tuple[dict[str, str] | None, ...]:
    _want(isinstance(raw, list), "expected a list or null", "/labels")
    _want(len(raw) == gaps, f"expected {gaps} label maps", "/labels")
    for i, m in enumerate(raw):
        if m is not None:
            _want(isinstance(m, dict), "expected an object or null", f"/labels/{i}")
            for key, value in m.items():
                _check_str(value, f"/labels/{i}/{key}")
    return tuple(None if m is None else dict(m) for m in raw)


_REQUIRED = ("levels", "vertices", "edges", "vertex_orders", "edge_orders")


def from_jsonable(doc: Any) -> tuple[ReebGraph, dict[str, int] | None]:
    """Rebuild a graph (and its optional leaf rank table) from parsed JSON.
    Shape problems raise SchemaError pointing at the offending node; semantic
    soundness is left to validate().  One pass, group by group (see the
    module's note)."""
    plain = type(doc) is dict and TOP_KEYS.issuperset(doc)
    if not (plain and all(map(doc.__contains__, _REQUIRED))):
        _want(isinstance(doc, dict), "expected a JSON object", "")
        for key in doc:
            _want(key in TOP_KEYS, f"unexpected key {key!r}", f"/{key}")
        for key in _REQUIRED:
            _want(key in doc, f"missing key {key!r}", "")

    raw = doc["levels"]
    levels = _plain_levels(raw) or _walk_levels(raw)
    k = len(levels)
    raw = doc["vertices"]
    vertex_sets = _plain_vertices(raw, k) or _walk_vertices(raw, k)
    raw = doc["edges"]
    downs, ups = _plain_edges(raw, k - 1) or _walk_edges(raw, k - 1)
    raw = doc["vertex_orders"]
    vertex_covers = _plain_covers(raw, k) or _walk_covers(raw, k, "/vertex_orders")
    raw = doc["edge_orders"]
    edge_covers = _plain_covers(raw, k - 1) or _walk_covers(raw, k - 1, "/edge_orders")

    labels = doc.get("labels")
    if labels is not None:
        labels = _plain_labels(labels, k - 1) or _walk_labels(labels, k - 1)
    leaf_ranks = doc.get("leaf_ranks")
    if leaf_ranks is not None:
        leaf_ranks = _check_ranks(leaf_ranks, "/leaf_ranks")

    fields = _fields(vertex_sets, downs, ups, vertex_covers, edge_covers)
    return ReebGraph(levels=levels, edge_labels=labels, **fields), leaf_ranks


def load_text(text: str) -> tuple[ReebGraph, dict[str, int] | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}", "") from None
    return from_jsonable(doc)


def _quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_label(v: str, level_text: str) -> str:
    esc = v.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + esc + "\\n" + level_text + '"'


def to_dot(graph: ReebGraph) -> str:
    """Graphviz rendering: one rank per level (top level first), solid edges
    pointing downward, dashed gray links for vertex order covers."""
    lines = [
        "digraph leveled {",
        "  rankdir=TB;",
        "  node [shape=ellipse, fontsize=10];",
    ]
    for i in reversed(range(graph.level_count)):
        lines.append(f"  subgraph level_{i} {{")
        lines.append("    rank=same;")
        for v in sorted(graph.vertex_sets[i]):
            label = _node_label(v, format_level(graph.levels[i]))
            lines.append(f"    {_quote(v)} [label={label}];")
        lines.append("  }")
    for i in range(graph.gap_count):
        labels = graph.gap_labels(i)
        for e in sorted(graph.edge_sets[i]):
            u = graph.up_maps[i][e]
            d = graph.down_maps[i][e]
            text = e if labels is None else f"{e} [{labels[e]}]"
            lines.append(f"  {_quote(u)} -> {_quote(d)} [label={_quote(text)}];")
    for poset in graph.vertex_orders:
        for lo, hi in sorted(poset.covers):
            lines.append(
                f"  {_quote(lo)} -> {_quote(hi)} "
                "[style=dashed, color=gray, constraint=false, arrowhead=none];"
            )
    lines.append("}")
    return "\n".join(lines) + "\n"
