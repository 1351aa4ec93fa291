"""JSON interchange format and DOT rendering.

The JSON layout mirrors the model directly: levels as exact strings, one
vertex list per level, one edge list per gap with explicit attachment, order
covers as [lower, upper] pairs, optional per-gap label maps, and an optional
leaf rank table.  dump_text is fully canonical (sorted keys, sorted lists,
two-space indent, trailing newline) so writing, reading, and writing again
reproduces the file byte for byte.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Mapping

from .core import ReebGraph, format_level, make_graph, parse_level
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
    for key, rank in value.items():
        _want(
            isinstance(rank, int) and not isinstance(rank, bool),
            "rank must be an integer",
            f"{pointer}/{key}",
        )
    return dict(value)


def from_jsonable(doc: Any) -> tuple[ReebGraph, dict[str, int] | None]:
    """Rebuild a graph (and its optional leaf rank table) from parsed JSON.
    Shape problems raise SchemaError pointing at the offending node; semantic
    soundness is left to validate()."""
    _want(isinstance(doc, dict), "expected a JSON object", "")
    for key in doc:
        _want(key in TOP_KEYS, f"unexpected key {key!r}", f"/{key}")
    for key in ("levels", "vertices", "edges", "vertex_orders", "edge_orders"):
        _want(key in doc, f"missing key {key!r}", "")

    raw_levels = doc["levels"]
    _want(isinstance(raw_levels, list), "expected a list", "/levels")
    _want(len(raw_levels) >= 2, "need at least two levels", "/levels")
    levels = [_check_level(x, f"/levels/{i}") for i, x in enumerate(raw_levels)]
    k = len(levels)

    raw_vertices = doc["vertices"]
    _want(isinstance(raw_vertices, list), "expected a list", "/vertices")
    _want(len(raw_vertices) == k, f"expected {k} vertex lists", "/vertices")
    vertices: list[list[str]] = []
    for i, vs in enumerate(raw_vertices):
        _want(isinstance(vs, list), "expected a list of ids", f"/vertices/{i}")
        vertices.append(
            [_check_str(v, f"/vertices/{i}/{n}") for n, v in enumerate(vs)]
        )

    raw_edges = doc["edges"]
    _want(isinstance(raw_edges, list), "expected a list", "/edges")
    _want(len(raw_edges) == k - 1, f"expected {k - 1} edge lists", "/edges")
    edges: list[list[tuple[str, str, str]]] = []
    for i, es in enumerate(raw_edges):
        _want(isinstance(es, list), "expected a list of edge objects", f"/edges/{i}")
        gap: list[tuple[str, str, str]] = []
        ids: set[str] = set()
        for n, item in enumerate(es):
            here = f"/edges/{i}/{n}"
            _want(isinstance(item, dict), "expected an edge object", here)
            _want(
                set(item) == {"id", "down", "up"},
                "edge object needs exactly the keys id, down, up",
                here,
            )
            eid = _check_str(item["id"], f"{here}/id")
            _want(eid not in ids, f"duplicate edge id {eid!r}", f"{here}/id")
            ids.add(eid)
            gap.append(
                (eid, _check_str(item["down"], f"{here}/down"), _check_str(item["up"], f"{here}/up"))
            )
        edges.append(gap)

    raw_vo = doc["vertex_orders"]
    _want(isinstance(raw_vo, list), "expected a list", "/vertex_orders")
    _want(len(raw_vo) == k, f"expected {k} cover lists", "/vertex_orders")
    vertex_covers = [
        _check_pairs(item, f"/vertex_orders/{i}") for i, item in enumerate(raw_vo)
    ]
    raw_eo = doc["edge_orders"]
    _want(isinstance(raw_eo, list), "expected a list", "/edge_orders")
    _want(len(raw_eo) == k - 1, f"expected {k - 1} cover lists", "/edge_orders")
    edge_covers = [
        _check_pairs(item, f"/edge_orders/{i}") for i, item in enumerate(raw_eo)
    ]

    labels = None
    if "labels" in doc and doc["labels"] is not None:
        raw_labels = doc["labels"]
        _want(isinstance(raw_labels, list), "expected a list or null", "/labels")
        _want(len(raw_labels) == k - 1, f"expected {k - 1} label maps", "/labels")
        labels = []
        for i, m in enumerate(raw_labels):
            if m is None:
                labels.append(None)
                continue
            _want(isinstance(m, dict), "expected an object or null", f"/labels/{i}")
            clean: dict[str, str] = {}
            for key, value in m.items():
                clean[key] = _check_str(value, f"/labels/{i}/{key}")
            labels.append(clean)

    leaf_ranks = None
    if "leaf_ranks" in doc and doc["leaf_ranks"] is not None:
        leaf_ranks = _check_ranks(doc["leaf_ranks"], "/leaf_ranks")

    try:
        graph = make_graph(
            levels,
            vertices,
            edges,
            vertex_covers=vertex_covers,
            edge_covers=edge_covers,
            labels=labels,
        )
    except ValueError as exc:
        raise SchemaError(str(exc), "") from None
    return graph, leaf_ranks


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
