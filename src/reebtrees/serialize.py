"""JSON interchange format and DOT rendering.

The JSON layout mirrors the model directly: levels as exact strings, one
vertex list per level, one edge list per gap with explicit attachment, order
covers as [lower, upper] pairs, optional per-gap label maps, and an optional
leaf rank table.  dump_text is fully canonical (sorted keys, sorted lists,
two-space indent, trailing newline) so writing, reading, and writing again
reproduces the file byte for byte.

from_jsonable reads a document in one pass, group by group in document
order: top keys, levels, vertices, edges, vertex orders, edge orders,
labels, leaf ranks.  Each group has one reader.  It tests every item's
exact type inline (a str id, an edge object of three keys, a pair of strs)
and builds the group's sets and maps from its id lists in their order as
it goes, with no JSON pointer built.  An item that fails the test goes to
a small helper (for vertex and cover lists, the list holding it), which
raises the SchemaError of the first fault in document order, or returns
str() of the ids of a str subclass; levels that are not all plain strings
are read one by one the same way.  So the error reported for a document
is the one an item-by-item check of the whole document meets first.
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


def _at(*path: Any) -> str:
    """The JSON pointer to ``path``; built only for an error."""
    return "".join(f"/{step}" for step in path)


def _string(value: Any, *path: Any) -> str:
    """``value`` as a str: an id or label that is an instance of str, or the
    error at ``path``."""
    if not isinstance(value, str):
        raise SchemaError("expected a string", _at(*path))
    return str(value)


def _check_level(value: Any, i: int) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError("level must be a string or integer", _at("levels", i))
    try:
        return parse_level(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {exc}", _at("levels", i)) from None


def _check_ranks(value: Any, pointer: str) -> dict[str, int]:
    """A leaf rank table: an object mapping ids to integers (not booleans)."""
    if not isinstance(value, dict):
        raise SchemaError("expected an object", pointer)
    for key, rank in value.items():
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise SchemaError("rank must be an integer", f"{pointer}/{key}")
    return dict(value)


def _lists(raw: Any, count: int, what: str, key: str) -> None:
    if not isinstance(raw, list):
        raise SchemaError("expected a list", _at(key))
    if len(raw) != count:
        raise SchemaError(f"expected {count} {what}", _at(key))


def _levels(raw: Any) -> tuple[Fraction, ...]:
    """Levels increase, so each string of a valid document is parsed once."""
    if not isinstance(raw, list):
        raise SchemaError("expected a list", "/levels")
    if len(raw) < 2:
        raise SchemaError("need at least two levels", "/levels")
    if {str}.issuperset(map(type, raw)):
        try:
            return tuple(map(parse_level, raw))
        except (ValueError, ZeroDivisionError):
            pass
    return tuple(_check_level(x, i) for i, x in enumerate(raw))


def _vertex_ids(vs: list, i: int) -> list[str]:
    """Level i's ids as strs, or the first fault among them."""
    seen: set[str] = set()
    for n, v in enumerate(vs):
        v = _string(v, "vertices", i, n)
        if v in seen:
            raise SchemaError(f"duplicate vertex id {v!r}", _at("vertices", i, n))
        seen.add(v)
    return list(map(str, vs))


def _vertices(raw: Any, k: int) -> list[frozenset[str]]:
    _lists(raw, k, "vertex lists", "vertices")
    sets: list[frozenset[str]] = []
    for vs in raw:
        if not isinstance(vs, list):
            raise SchemaError("expected a list of ids", _at("vertices", len(sets)))
        for v in vs:
            if type(v) is not str:
                vs = _vertex_ids(vs, len(sets))
                break
        ids = frozenset(vs)
        if len(ids) < len(vs):
            _vertex_ids(vs, len(sets))  # raises at the first repeat
        sets.append(ids)
    return sets


def _edge(item: Any, dn: dict[str, str], i: int, n: int) -> tuple[str, str, str]:
    """The id and ends of edge n of gap i as strs, or its first fault."""
    here = ("edges", i, n)
    if not isinstance(item, dict):
        raise SchemaError("expected an edge object", _at(*here))
    if item.keys() != {"id", "down", "up"}:
        raise SchemaError("edge object needs exactly the keys id, down, up", _at(*here))
    e = _string(item["id"], *here, "id")
    if e in dn:
        raise SchemaError(f"duplicate edge id {e!r}", _at(*here, "id"))
    return e, _string(item["down"], *here, "down"), _string(item["up"], *here, "up")


def _edges(raw: Any, gaps: int) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    """Each gap's down and up maps, built while its edges are checked.  An
    edge's index in its gap is the count of edges taken before it."""
    _lists(raw, gaps, "edge lists", "edges")
    downs: list[dict[str, str]] = []
    ups: list[dict[str, str]] = []
    for es in raw:
        if not isinstance(es, list):
            raise SchemaError("expected a list of edge objects", _at("edges", len(downs)))
        dn: dict[str, str] = {}
        up: dict[str, str] = {}
        for item in es:
            try:
                e, d, u = item["id"], item["down"], item["up"]
            except (KeyError, TypeError):
                e = d = u = None
            if not (
                type(item) is dict and len(item) == 3 and type(e) is str
                and type(d) is str and type(u) is str and e not in dn
            ):
                e, d, u = _edge(item, dn, len(downs), len(dn))
            dn[e] = d
            up[e] = u
        downs.append(dn)
        ups.append(up)
    return downs, ups


def _pairs(pairs: list, key: str, i: int) -> list[tuple[str, str]]:
    """Cover list i's pairs as pairs of strs, or the first fault among them."""
    out = []
    for n, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError("expected a [lower, upper] pair", _at(key, i, n))
        out.append((_string(pair[0], key, i, n, 0), _string(pair[1], key, i, n, 1)))
    return out


def _covers(raw: Any, count: int, key: str) -> list[frozenset[tuple[str, str]]]:
    _lists(raw, count, "cover lists", key)
    out: list[frozenset[tuple[str, str]]] = []
    for pairs in raw:
        if not isinstance(pairs, list):
            raise SchemaError("expected a list of [lower, upper] pairs", _at(key, len(out)))
        for pair in pairs:
            if not (
                type(pair) is list and len(pair) == 2
                and type(pair[0]) is str and type(pair[1]) is str
            ):
                pairs = _pairs(pairs, key, len(out))
                break
        out.append(frozenset(map(tuple, pairs)))
    return out


def _labels(raw: Any, gaps: int) -> tuple[dict[str, str] | None, ...]:
    if not isinstance(raw, list):
        raise SchemaError("expected a list or null", "/labels")
    if len(raw) != gaps:
        raise SchemaError(f"expected {gaps} label maps", "/labels")
    for i, m in enumerate(raw):
        if m is not None:
            if not isinstance(m, dict):
                raise SchemaError("expected an object or null", _at("labels", i))
            for key, value in m.items():
                if not isinstance(value, str):
                    raise SchemaError("expected a string", _at("labels", i, key))
    return tuple(None if m is None else dict(m) for m in raw)


def from_jsonable(doc: Any) -> tuple[ReebGraph, dict[str, int] | None]:
    """Rebuild a graph (and its optional leaf rank table) from parsed JSON.
    Shape problems raise SchemaError pointing at the offending node; semantic
    soundness is left to validate().  One pass, group by group (see the
    module's note)."""
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", "")
    for key in doc:
        if key not in TOP_KEYS:
            raise SchemaError(f"unexpected key {key!r}", _at(key))
    for key in ("levels", "vertices", "edges", "vertex_orders", "edge_orders"):
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", "")
    levels = _levels(doc["levels"])
    k = len(levels)
    vertex_sets = _vertices(doc["vertices"], k)
    downs, ups = _edges(doc["edges"], k - 1)
    vertex_covers = _covers(doc["vertex_orders"], k, "vertex_orders")
    edge_covers = _covers(doc["edge_orders"], k - 1, "edge_orders")
    labels = doc.get("labels")
    if labels is not None:
        labels = _labels(labels, k - 1)
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
