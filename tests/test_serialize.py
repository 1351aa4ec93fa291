"""JSON round trips, schema rejection pointers, and DOT output."""

from __future__ import annotations

import copy
import json
import random
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest

from reebtrees import (
    GeneratorSpec,
    SchemaError,
    validate,
    dump_text,
    enewick_to_reeb,
    from_jsonable,
    load_text,
    make_graph,
    random_graph,
    to_dot,
    to_jsonable,
)

DATA = Path(__file__).parent / "data"

# The loader as it was before it read each group plainly, the oracle of the
# differential tests below; its one change is the duplicate vertex id check
# (see test_duplicate_vertex_id_on_one_level).  Levels are parsed with the
# Fraction string parser throughout.

REFERENCE_TOP_KEYS = {
    "levels",
    "vertices",
    "edges",
    "vertex_orders",
    "edge_orders",
    "labels",
    "leaf_ranks",
}


def reference_want(cond: bool, message: str, pointer: str) -> None:
    if not cond:
        raise SchemaError(message, pointer)


def reference_parse_level(text: str) -> Fraction:
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den))
    return Fraction(text)


def reference_check_level(value: Any, pointer: str) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise SchemaError("level must be a string or integer", pointer)
    try:
        return reference_parse_level(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"not a rational number: {exc}", pointer) from None


def reference_check_str(value: Any, pointer: str) -> str:
    reference_want(isinstance(value, str), "expected a string", pointer)
    return value


def reference_check_pairs(value: Any, pointer: str) -> list[tuple[str, str]]:
    reference_want(isinstance(value, list), "expected a list of [lower, upper] pairs", pointer)
    out = []
    for n, pair in enumerate(value):
        here = f"{pointer}/{n}"
        reference_want(
            isinstance(pair, list) and len(pair) == 2,
            "expected a [lower, upper] pair",
            here,
        )
        out.append(
            (reference_check_str(pair[0], f"{here}/0"), reference_check_str(pair[1], f"{here}/1"))
        )
    return out


def reference_check_ranks(value: Any, pointer: str) -> dict[str, int]:
    reference_want(isinstance(value, dict), "expected an object", pointer)
    for key, rank in value.items():
        reference_want(
            isinstance(rank, int) and not isinstance(rank, bool),
            "rank must be an integer",
            f"{pointer}/{key}",
        )
    return dict(value)


def reference_from_jsonable(doc: Any):
    want, check_str = reference_want, reference_check_str
    want(isinstance(doc, dict), "expected a JSON object", "")
    for key in doc:
        want(key in REFERENCE_TOP_KEYS, f"unexpected key {key!r}", f"/{key}")
    for key in ("levels", "vertices", "edges", "vertex_orders", "edge_orders"):
        want(key in doc, f"missing key {key!r}", "")

    raw_levels = doc["levels"]
    want(isinstance(raw_levels, list), "expected a list", "/levels")
    want(len(raw_levels) >= 2, "need at least two levels", "/levels")
    levels = [reference_check_level(x, f"/levels/{i}") for i, x in enumerate(raw_levels)]
    k = len(levels)

    raw_vertices = doc["vertices"]
    want(isinstance(raw_vertices, list), "expected a list", "/vertices")
    want(len(raw_vertices) == k, f"expected {k} vertex lists", "/vertices")
    vertices: list[list[str]] = []
    for i, vs in enumerate(raw_vertices):
        want(isinstance(vs, list), "expected a list of ids", f"/vertices/{i}")
        level: list[str] = []
        for n, v in enumerate(vs):
            v = check_str(v, f"/vertices/{i}/{n}")
            want(v not in level, f"duplicate vertex id {v!r}", f"/vertices/{i}/{n}")
            level.append(v)
        vertices.append(level)

    raw_edges = doc["edges"]
    want(isinstance(raw_edges, list), "expected a list", "/edges")
    want(len(raw_edges) == k - 1, f"expected {k - 1} edge lists", "/edges")
    edges: list[list[tuple[str, str, str]]] = []
    for i, es in enumerate(raw_edges):
        want(isinstance(es, list), "expected a list of edge objects", f"/edges/{i}")
        gap: list[tuple[str, str, str]] = []
        ids: set[str] = set()
        for n, item in enumerate(es):
            here = f"/edges/{i}/{n}"
            want(isinstance(item, dict), "expected an edge object", here)
            want(
                set(item) == {"id", "down", "up"},
                "edge object needs exactly the keys id, down, up",
                here,
            )
            eid = check_str(item["id"], f"{here}/id")
            want(eid not in ids, f"duplicate edge id {eid!r}", f"{here}/id")
            ids.add(eid)
            gap.append(
                (eid, check_str(item["down"], f"{here}/down"), check_str(item["up"], f"{here}/up"))
            )
        edges.append(gap)

    raw_vo = doc["vertex_orders"]
    want(isinstance(raw_vo, list), "expected a list", "/vertex_orders")
    want(len(raw_vo) == k, f"expected {k} cover lists", "/vertex_orders")
    vertex_covers = [
        reference_check_pairs(item, f"/vertex_orders/{i}") for i, item in enumerate(raw_vo)
    ]
    raw_eo = doc["edge_orders"]
    want(isinstance(raw_eo, list), "expected a list", "/edge_orders")
    want(len(raw_eo) == k - 1, f"expected {k - 1} cover lists", "/edge_orders")
    edge_covers = [
        reference_check_pairs(item, f"/edge_orders/{i}") for i, item in enumerate(raw_eo)
    ]

    labels = None
    if "labels" in doc and doc["labels"] is not None:
        raw_labels = doc["labels"]
        want(isinstance(raw_labels, list), "expected a list or null", "/labels")
        want(len(raw_labels) == k - 1, f"expected {k - 1} label maps", "/labels")
        labels = []
        for i, m in enumerate(raw_labels):
            if m is None:
                labels.append(None)
                continue
            want(isinstance(m, dict), "expected an object or null", f"/labels/{i}")
            clean: dict[str, str] = {}
            for key, value in m.items():
                clean[key] = check_str(value, f"/labels/{i}/{key}")
            labels.append(clean)

    leaf_ranks = None
    if "leaf_ranks" in doc and doc["leaf_ranks"] is not None:
        leaf_ranks = reference_check_ranks(doc["leaf_ranks"], "/leaf_ranks")

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


def observed(graph, ranks) -> tuple:
    """Every field of a loaded graph in its iteration order, with the type
    of every id, so that a differential sees order as well as equality."""

    def items(m):
        return [(type(a), a, type(b), b) for a, b in m.items()]

    def poset(p):
        return [(type(x), x) for x in p.elements], list(p.covers)

    return (
        graph.levels,
        [[(type(v), v) for v in vs] for vs in graph.vertex_sets],
        [[(type(e), e) for e in es] for es in graph.edge_sets],
        [items(m) for m in graph.down_maps],
        [items(m) for m in graph.up_maps],
        [poset(p) for p in graph.vertex_orders],
        [poset(p) for p in graph.edge_orders],
        None if graph.edge_labels is None
        else [None if m is None else items(m) for m in graph.edge_labels],
        None if ranks is None else list(ranks.items()),
    )


def outcome(load, doc) -> tuple:
    try:
        graph, ranks = load(copy.deepcopy(doc))
    except SchemaError as exc:
        return "error", str(exc), exc.pointer, exc.reason
    return "graph", graph, observed(graph, ranks)


def minimal_doc():
    """Smallest well-formed document: one edge between two levels."""
    return {
        "levels": ["0", "1"],
        "vertices": [["a"], ["b"]],
        "edges": [[{"id": "e", "down": "a", "up": "b"}]],
        "vertex_orders": [[], []],
        "edge_orders": [[]],
    }


class TestRoundTrip:
    def test_golden_bytes_with_ranks(self):
        text = (DATA / "four_leaf_cycle.json").read_text()
        graph, ranks = load_text(text)
        assert ranks == {"l1": 1, "l2": 2, "l3": 3, "l4": 4}
        assert dump_text(graph, leaf_ranks=ranks) == text

    def test_golden_bytes_with_orders_and_labels(self):
        text = (DATA / "ordered_pair.json").read_text()
        graph, ranks = load_text(text)
        assert ranks is None
        assert graph.edge_labels is not None
        assert graph.vertex_orders[0].covers == frozenset({("p", "q")})
        assert dump_text(graph) == text

    def test_golden_bytes_triple_edge(self):
        text = (DATA / "triple_edge.json").read_text()
        graph, _ = load_text(text)
        assert dump_text(graph) == text

    def test_dump_is_idempotent(self, cycle_graph):
        once = dump_text(cycle_graph)
        graph, _ = load_text(once)
        assert dump_text(graph) == once
        assert graph == cycle_graph

    def test_jsonable_survives_json_module(self, net_a):
        doc = json.loads(json.dumps(to_jsonable(net_a)))
        graph, _ = from_jsonable(doc)
        assert graph == net_a

    def test_integer_levels_accepted(self):
        doc = minimal_doc()
        doc["levels"] = [0, 1]
        graph, _ = from_jsonable(doc)
        assert graph.levels == (0, 1)

    def test_newick_import_round_trips(self):
        g = enewick_to_reeb("(((C:1)#H1:1,A:2)x:1,(#H1:1,B:2)y:1)r;")
        graph, _ = load_text(dump_text(g))
        assert graph == g


def reject(doc, message, pointer):
    with pytest.raises(SchemaError) as info:
        from_jsonable(doc)
    assert message in info.value.reason
    assert info.value.pointer == pointer


class TestSchemaErrors:
    def test_not_an_object(self):
        reject([1, 2], "expected a JSON object", "/")

    def test_missing_levels(self):
        doc = minimal_doc()
        del doc["levels"]
        reject(doc, "missing key 'levels'", "/")

    def test_unexpected_key(self):
        doc = minimal_doc()
        doc["extra"] = True
        reject(doc, "unexpected key 'extra'", "/extra")

    def test_boolean_level(self):
        doc = minimal_doc()
        doc["levels"][0] = True
        reject(doc, "level must be a string or integer", "/levels/0")

    def test_unparseable_level(self):
        doc = minimal_doc()
        doc["levels"][1] = "three"
        reject(doc, "not a rational number", "/levels/1")

    def test_single_level(self):
        doc = minimal_doc()
        doc["levels"] = ["0"]
        reject(doc, "need at least two levels", "/levels")

    def test_vertex_list_count(self):
        doc = minimal_doc()
        doc["vertices"] = [["a"]]
        reject(doc, "expected 2 vertex lists", "/vertices")

    def test_vertex_id_not_string(self):
        doc = minimal_doc()
        doc["vertices"][1] = ["b", 7]
        reject(doc, "expected a string", "/vertices/1/1")

    def test_edge_object_wrong_keys(self):
        doc = minimal_doc()
        doc["edges"][0][0] = {"id": "e", "down": "a"}
        reject(doc, "edge object needs exactly the keys id, down, up", "/edges/0/0")

    def test_duplicate_edge_id(self):
        doc = minimal_doc()
        doc["edges"][0].append({"id": "e", "down": "a", "up": "b"})
        reject(doc, "duplicate edge id 'e'", "/edges/0/1/id")

    def test_duplicate_vertex_id_on_one_level(self):
        # Once merged into one vertex without a word; now refused where the
        # id is listed again, as an edge id repeated in its gap is.
        doc = minimal_doc()
        doc["vertices"][1] = ["b", "c", "b"]
        with pytest.raises(SchemaError) as info:
            from_jsonable(doc)
        assert str(info.value) == "/vertices/1/2: duplicate vertex id 'b'"

    def test_cover_pair_shape(self):
        doc = minimal_doc()
        doc["vertex_orders"][0] = [["a"]]
        reject(doc, "expected a [lower, upper] pair", "/vertex_orders/0/0")

    def test_label_value_not_string(self):
        doc = minimal_doc()
        doc["labels"] = [{"e": 3}]
        reject(doc, "expected a string", "/labels/0/e")

    def test_boolean_rank(self):
        doc = minimal_doc()
        doc["leaf_ranks"] = {"x": True}
        reject(doc, "rank must be an integer", "/leaf_ranks/x")

    def test_semantic_problems_deferred_to_validate(self):
        # Shape checks stop at the schema; a cover naming a foreign element
        # loads fine and is only flagged by validate().
        doc = minimal_doc()
        doc["vertex_orders"][0] = [["a", "zzz"]]
        graph, _ = from_jsonable(doc)
        assert any("zzz" in problem for problem in validate(graph))

    def test_not_valid_json(self):
        with pytest.raises(SchemaError) as info:
            load_text("{ nope")
        assert "not valid JSON" in info.value.reason
        assert info.value.pointer == "/"

    def test_str_includes_pointer(self):
        err = SchemaError("boom", "/levels/3")
        assert str(err) == "/levels/3: boom"
        assert str(SchemaError("boom", "")) == "/: boom"


class TestDot:
    def test_golden_dot(self):
        text = (DATA / "ordered_pair.json").read_text()
        graph, _ = load_text(text)
        assert to_dot(graph) == (DATA / "ordered_pair.dot").read_text()

    def test_rank_groups_top_first(self, cycle_graph):
        out = to_dot(cycle_graph)
        assert out.index("subgraph level_3") < out.index("subgraph level_0")
        assert out.count("rank=same;") == 4

    def test_quotes_escaped(self):
        g = make_graph(
            [0, 1],
            [['a"b'], ["t"]],
            [[("e", 'a"b', "t")]],
        )
        out = to_dot(g)
        assert '"a\\"b"' in out


def generator_doc(rng: random.Random) -> dict:
    """A generator graph's document with its lists shuffled, random covers
    (shape only; validate may refuse them), labels on some gaps, leaf ranks
    and, at times, integer levels."""
    spec = GeneratorSpec(
        seed=rng.randrange(10**6),
        n_leaves=rng.randint(2, 6),
        betti=rng.randint(0, 3),
        levels=rng.randint(4, 6),
        max_indeg=rng.choice((2, 3)),
    )
    graph = random_graph(spec)
    doc = to_jsonable(graph)
    for lists in (doc["vertices"], doc["edges"]):
        for items in lists:
            rng.shuffle(items)
    doc["vertex_orders"] = [
        [[rng.choice(vs), rng.choice(vs)] for _ in range(rng.randint(0, 3))]
        for vs in doc["vertices"]
    ]
    doc["edge_orders"] = [
        [[rng.choice(es)["id"], rng.choice(es)["id"]] for _ in range(rng.randint(0, 2))]
        for es in doc["edges"]
    ]
    if rng.random() < 0.5:
        doc["labels"] = [
            None if rng.random() < 0.3 else {e["id"]: f"t{rng.randrange(9)}" for e in es}
            for es in doc["edges"]
        ]
    if rng.random() < 0.5:
        leaves = [v for v in graph.vertex_level if graph.outdeg(v) == 0]
        doc["leaf_ranks"] = {v: rng.randint(-3, 9) for v in leaves}
    if rng.random() < 0.3:
        doc["levels"] = [int(x) for x in doc["levels"]]
    return doc


def fixture_docs() -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(DATA.glob("*.json"))]


# Values a mutation puts in place of another.  The level strings include
# ones Fraction parses ("+3", "007", "1e3"), ones it refuses ("2/0", a
# superscript digit) and more digits than int() converts.
ODD_VALUES = (
    True, False, None, 0, 7, -2, 1.5, "x", "", " 3", "+3", "007", "-0", "1e3", "2/0",
    "²", "٣", "-", "1_0", "3/4", " 1 / 2 ", "9" * 5000, [], ["0"], [1, 2], {},
    {"id": "q"},
)
LEVEL_STRINGS = (True, " 3", "+3", "007", "1e3", "2/0", "²", ["1"], "-5", "9" * 5000)


def slots(node):
    """Every (container, key) in a document, outermost first."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield node, key
            yield from slots(value)
    elif isinstance(node, list):
        for n, value in enumerate(node):
            yield node, n
            yield from slots(value)


def mutate(doc: dict, rng: random.Random) -> dict:
    """One to three seeded shape faults (or harmless changes) in a copy."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 3)):
        places = list(slots(doc))
        kind = rng.randrange(8)
        if kind == 0 and isinstance(doc.get("levels"), list) and doc["levels"]:
            doc["levels"][rng.randrange(len(doc["levels"]))] = rng.choice(LEVEL_STRINGS)
            continue
        if kind == 1:
            # An id, a cover end or a label value that is not a string.
            strings = [(c, k) for c, k in places if isinstance(c[k], str)]
            if strings:
                c, k = rng.choice(strings)
                c[k] = rng.choice((3, None, True, ["a"]))
                continue
        if kind == 2:
            # A list item listed twice: a vertex id, an edge object, a pair.
            lists = [c[k] for c, k in places if isinstance(c[k], list) and c[k]]
            if lists:
                items = rng.choice(lists)
                items.insert(rng.randrange(len(items) + 1), copy.deepcopy(rng.choice(items)))
                continue
        if kind == 3:
            dicts = [c[k] for c, k in places if isinstance(c[k], dict)] + [doc]
            target = rng.choice(dicts)
            if target and rng.random() < 0.5:
                del target[rng.choice(list(target))]
            else:
                target[rng.choice(("extra", "id", "labels", "leaf_ranks", "x"))] = rng.choice(
                    ODD_VALUES
                )
            continue
        if kind == 4:
            # A cover pair of the wrong shape.
            pairs = [c[k] for c, k in places if isinstance(c[k], list) and len(c[k]) == 2]
            if pairs:
                pair = rng.choice(pairs)
                if rng.random() < 0.5:
                    pair.append("z")
                else:
                    pair.pop()
                continue
        if kind == 5:
            lists = [c[k] for c, k in places if isinstance(c[k], list) and c[k]]
            if lists:
                rng.choice(lists).pop()
                continue
        c, k = rng.choice(places)
        c[k] = rng.choice(ODD_VALUES)
    return doc


class TestLoaderMatchesReference:
    def test_valid_documents(self):
        rng = random.Random(20261019)
        docs = fixture_docs() + [generator_doc(rng) for _ in range(150)]
        docs.append(minimal_doc())
        for doc in docs:
            ref = outcome(reference_from_jsonable, doc)
            assert ref[0] == "graph"
            got = outcome(from_jsonable, doc)
            assert got[1] == ref[1]
            assert got[2] == ref[2]

    def test_malformed_documents(self):
        rng = random.Random(32)
        bases = fixture_docs() + [generator_doc(rng) for _ in range(40)] + [minimal_doc()]
        counts = {"error": 0, "graph": 0}
        reasons = set()
        for _ in range(1500):
            doc = mutate(rng.choice(bases), rng)
            ref = outcome(reference_from_jsonable, doc)
            got = outcome(from_jsonable, doc)
            if ref[0] == "graph":
                assert got[0] == "graph", (got, doc)
                assert got[2] == ref[2]
            else:
                assert got == ref, doc
                reasons.add(ref[3].split(" ")[0])
            counts[ref[0]] += 1
        assert counts["error"] >= 1000 and counts["graph"] >= 50, counts
        assert {"level", "not", "expected", "duplicate", "unexpected", "missing", "edge",
                "rank", "need"} <= reasons, reasons

    def test_named_mutations(self):
        # Each fault the loader must name exactly as before, on a document
        # with covers, labels and ranks.
        base = generator_doc(random.Random(5))
        bottom = base["vertices"][0]
        base["vertex_orders"][0] = [[bottom[0], bottom[-1]]]
        base["labels"] = [{e["id"]: "t" for e in es} for es in base["edges"]]
        base["leaf_ranks"] = {v: 1 for v in bottom}
        assert outcome(from_jsonable, base)[0] == "graph"
        edge = base["edges"][1][0]
        vs = base["vertices"][1]

        class Name(str):
            pass

        class Ids(list):
            pass

        changes = [
            *(("levels", 1, value) for value in LEVEL_STRINGS),
            ("vertices", 1, [7]),
            ("edges", 0, [{**base["edges"][0][0], "id": 7}, *base["edges"][0][1:]]),
            ("edges", 1, [{"id": edge["id"], "down": edge["down"]}]),
            ("edges", 1, [{**edge, "extra": "x"}]),
            ("edges", 1, [edge, dict(edge)]),
            ("edges", 1, [edge, edge]),  # one object listed twice
            ("edges", 1, [{**edge, "down": 1, "up": 2}]),
            ("edges", 1, [{"id": None, "down": 1, "up": "x"}]),
            ("vertices", 2, base["vertices"][2] * 2),
            ("vertex_orders", 0, [["a"]]),
            ("vertex_orders", 0, [["a", "b", "c"]]),
            ("vertex_orders", 0, ["ab"]),
            ("vertex_orders", 0, [[1, "a"]]),
            ("edge_orders", 0, [["a", None]]),
            ("labels", 0, {edge["id"]: 3}),
            ("leaf_ranks", base["vertices"][0][0], True),
            ("vertices", 1, [*vs[:-1], Name(vs[-1])]),
            ("edges", 1, [{**edge, "id": Name(edge["id"])}, *base["edges"][1][1:]]),
            ("vertices", 1, Ids(vs)),
        ]
        errors = 0
        for group, key, value in changes:
            doc = copy.deepcopy(base)
            doc[group][key] = value
            ref = outcome(reference_from_jsonable, doc)
            assert outcome(from_jsonable, doc) == ref, (group, key, value)
            errors += ref[0] == "error"
        # " 3", "+3", "007", "1e3" and "-5" are levels Fraction reads, and
        # the last three changes keep the document well formed.
        assert errors == len(changes) - 8
        for key in ("levels", "edges", "extra"):
            doc = copy.deepcopy(base)
            if key in doc:
                del doc[key]
            else:
                doc[key] = 1
            assert outcome(from_jsonable, doc) == outcome(reference_from_jsonable, doc)

    def test_str_subclass_ids_become_str(self):
        class Name(str):
            pass

        doc = minimal_doc()
        doc["vertices"] = [[Name("a")], [Name("b")]]
        doc["edges"][0][0]["id"] = Name("e")
        doc["vertex_orders"][0] = [[Name("a"), Name("a")]]
        doc["labels"] = [{"e": Name("left")}]
        ref = outcome(reference_from_jsonable, doc)
        got = outcome(from_jsonable, doc)
        assert got[2] == ref[2]
        assert type(next(iter(got[1].vertex_sets[0]))) is str

    def test_canonical_fixtures_round_trip(self):
        for path in sorted(DATA.glob("*.json")):
            text = path.read_text()
            graph, ranks = load_text(text)
            assert dump_text(graph, leaf_ranks=ranks) == text, path
