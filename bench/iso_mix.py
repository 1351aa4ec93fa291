"""iso_mix: one reeb_iso (or labelled_iso) decision per operation.

A round holds, for s = 3..7 and for merge plans with no or one in-degree-3
merge, a generator graph (4 taxa, 5 levels) paired three ways (renamed copy,
degree-preserving swap, one-edge retarget), and for s = 5..7 a second graph
paired the first two ways (three graphs at s = 5); two fully labelled pairs;
40-level chains with 6, 7 (five of them) and 8 bigons; bouquets of 5, 6
and 7 parallel edges; and four pairs that are multi-source or carry level
orders, so reeb_iso falls back to search.  Answers come from construction or from brute_force_iso,
run while the round is built.
"""

from __future__ import annotations

import random

import reebtrees as rt

from common import Workload, build, generator_graph, parts, rename, shape


# Generator graphs drawn per cycle rank and merge plan in one round; a second
# draw adds a renamed and a swapped pair.  The extra draws at s = 5..7 put
# the median among the s=5 pairs: shorter operations slow down more, in
# relative terms, when the machine is busy, so a median among them would
# spread more from run to run.
DRAWS = {3: 1, 4: 1, 5: 3, 6: 2, 7: 2}
# Bigon counts of the chains in one round.  In a run of three rounds the
# eleventh-largest latency is then the middle one of the fifteen 7-bigon
# chains, below the three 8-bigon ones: a median of a group of like
# operations, so op_tail_ms does not hang on one noisy sample.
CHAINS = (6, 7, 7, 7, 7, 7, 8)


def _valid(p: dict) -> rt.ReebGraph | None:
    g = build(p)
    return None if rt.validate(g) else g


def swap(g: rt.ReebGraph, rng: random.Random) -> rt.ReebGraph | None:
    """Exchange the lower endpoints of two edges of one gap.  Every degree
    stays the same, so the pair passes the count and profile checks.  None
    when no tried swap gives a valid graph."""
    p = parts(g)
    gaps = [i for i, gap in enumerate(p["edges"]) if len(gap) >= 2]
    for _ in range(200):
        i = rng.choice(gaps)
        a, b = rng.sample(range(len(p["edges"][i])), 2)
        (ea, da, ua), (eb, db, ub) = p["edges"][i][a], p["edges"][i][b]
        if da == db or ua == ub:
            continue
        edges = [list(gap) for gap in p["edges"]]
        edges[i][a], edges[i][b] = (ea, db, ua), (eb, da, ub)
        h = _valid({**p, "edges": edges})
        if h is not None:
            return h
    return None


def swappable(draw, rng: random.Random) -> tuple[rt.ReebGraph, rt.ReebGraph]:
    """A graph from ``draw`` that admits a valid swap, and that swap."""
    for _ in range(100):
        g = draw()
        h = swap(g, rng)
        if h is not None:
            return g, h
    raise RuntimeError("no drawn graph admits a valid swap")


def retarget(g: rt.ReebGraph, rng: random.Random) -> rt.ReebGraph:
    """Move the lower endpoint of one edge to another vertex of its level."""
    p = parts(g)
    for _ in range(200):
        i = rng.randrange(len(p["edges"]))
        k = rng.randrange(len(p["edges"][i]))
        e, d, u = p["edges"][i][k]
        choices = [v for v in p["vertices"][i] if v != d]
        if not choices:
            continue
        edges = [list(gap) for gap in p["edges"]]
        edges[i][k] = (e, rng.choice(choices), u)
        h = _valid({**p, "edges": edges})
        if h is not None:
            return h
    raise RuntimeError("no valid retarget")


def second_source(g: rt.ReebGraph, rng: random.Random) -> rt.ReebGraph:
    """Add a second top vertex above a vertex one level down: the two
    cycle-rank counts then disagree and no decomposition exists."""
    p = parts(g)
    top = len(p["levels"]) - 1
    below = rng.choice(p["vertices"][top - 1])
    vertices = [list(vs) for vs in p["vertices"]]
    vertices[top].append("src2")
    edges = [list(gap) for gap in p["edges"]]
    edges[top - 1].append(("esrc2", below, "src2"))
    h = _valid({**p, "vertices": vertices, "edges": edges})
    if h is None:
        raise RuntimeError("second source gave an invalid graph")
    return h


def ordered(g: rt.ReebGraph, pick: int, flip: bool = False) -> rt.ReebGraph:
    """Order two vertices of the widest level, chosen by ``pick``; ``flip``
    reverses the pair."""
    p = parts(g)
    i = max(range(len(p["vertices"])), key=lambda k: (len(p["vertices"][k]), -k))
    a, b = sorted(random.Random(pick).sample(p["vertices"][i], 2))
    if flip:
        a, b = b, a
    covers = [list(c) for c in p["vertex_covers"]]
    covers[i].append((a, b))
    return build({**p, "vertex_covers": covers})


def labelled(g: rt.ReebGraph, rng: random.Random) -> rt.ReebGraph:
    p = parts(g)
    labels = []
    for gap in p["edges"]:
        names = rng.sample(range(len(gap)), len(gap))
        labels.append({e: f"L{n}" for (e, _, _), n in zip(gap, names)})
    return build({**p, "labels": labels})


def relabelled(g: rt.ReebGraph, rng: random.Random) -> rt.ReebGraph:
    """Rotate the labels of one gap with at least two edges."""
    p = parts(g)
    i = rng.choice([k for k, gap in enumerate(p["edges"]) if len(gap) >= 2])
    es = sorted(p["labels"][i])
    labels = [dict(m) for m in p["labels"]]
    labels[i] = {e: p["labels"][i][es[(k + 1) % len(es)]] for k, e in enumerate(es)}
    return build({**p, "labels": labels})


def chain(rng: random.Random, s: int, levels: int = 40) -> rt.ReebGraph:
    """A path over ``levels`` levels with a doubled edge in each of its
    first s gaps, as in acceptance criterion 7; the seed draws the level
    values only.  The bigon positions stay fixed because the decision's
    cost depends on them, and chains hold the tail of the latency."""
    values = [rng.randint(-20, 20)]
    for _ in range(levels - 1):
        values.append(values[-1] + rng.randint(1, 3))
    edges = []
    for i in range(levels - 1):
        gap = [(f"c{i}", f"v{i}", f"v{i + 1}")]
        if i < s:
            gap.append((f"p{i}", f"v{i}", f"v{i + 1}"))
        edges.append(gap)
    return rt.make_graph(values, [[f"v{i}"] for i in range(levels)], edges)


def bouquet(rng: random.Random, d: int) -> rt.ReebGraph:
    lo = rng.randint(-20, 20)
    return rt.make_graph(
        [lo, lo + rng.randint(1, 5)],
        [["r"], ["u"]],
        [[(f"e{i}", "r", "u") for i in range(d)]],
    )


class IsoMix(Workload):
    name = "iso_mix"

    def make_round(self, r: int) -> list[dict]:
        rng = self.rng(r)
        pairs: list[tuple[str, rt.ReebGraph, rt.ReebGraph, bool | None]] = []
        for s in range(3, 8):
            for triples in (0, 1):
                for draw in range(DRAWS[s]):
                    g, swapped = swappable(lambda: generator_graph(rng, s, triples, 4, 5), rng)
                    pairs.append(("renamed", g, g, True))
                    pairs.append(("swap", g, swapped, None))
                    if draw == 0:
                        pairs.append(("retarget", g, retarget(g, rng), None))
        g = labelled(generator_graph(rng, rng.choice((3, 4)), 0, 4, 5), rng)
        pairs.append(("labelled", g, g, True))
        pairs.append(("labelled", g, relabelled(g, rng), None))
        for s in CHAINS:
            g = chain(rng, s)
            pairs.append(("chain", g, g, True))
        for d in (5, 6, 7):
            g = bouquet(rng, d)
            pairs.append(("bouquet", g, g, True))
        g, swapped = swappable(
            lambda: second_source(generator_graph(rng, rng.choice((3, 4)), 0, 4, 5), rng), rng)
        pairs.append(("multi_source", g, g, True))
        pairs.append(("multi_source", g, swapped, None))
        g = generator_graph(rng, rng.choice((3, 4)), 1, 4, 5)
        pick = rng.randrange(1 << 30)
        pairs.append(("level_order", ordered(g, pick), ordered(g, pick), True))
        pairs.append(("level_order", ordered(g, pick), ordered(g, pick, flip=True), None))

        cases = []
        for k, (kind, a, b, expected) in enumerate(pairs):
            a, _ = rename(a, rng, f"r{r}k{k}a_")
            b, _ = rename(b, rng, f"r{r}k{k}b_")
            if expected is None:
                expected = rt.brute_force_iso(a, b, use_labels=kind == "labelled")
            cases.append({
                "kind": kind,
                "a": rt.dump_text(a),
                "b": rt.dump_text(b),
                "expected": expected,
                "props": {"kind": kind, "expected": expected, **shape(a)},
            })
        rng.shuffle(cases)
        return cases

    def prepare(self, case: dict):
        a, _ = rt.load_text(case["a"])
        b, _ = rt.load_text(case["b"])
        return case["kind"] == "labelled", a, b

    def call(self, args) -> bool:
        use_labels, a, b = args
        if use_labels:
            return rt.labelled_iso(a, b) is not None
        return rt.reeb_iso(a, b)

    def check(self, case: dict, out) -> tuple[int, int, int]:
        return 1, int(out != case["expected"]), 0
