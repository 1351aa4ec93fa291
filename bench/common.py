"""Helpers shared by the workloads: graph surgery on plain data, renaming,
seeded generator graphs and the latency statistics."""

from __future__ import annotations

import math
import random
from typing import Mapping

import reebtrees as rt


def parts(g: rt.ReebGraph) -> dict:
    """Plain-data form of a graph, the keyword arguments of ``build``."""
    return {
        "levels": list(g.levels),
        "vertices": [sorted(vs) for vs in g.vertex_sets],
        "edges": [
            [(e, g.down_maps[i][e], g.up_maps[i][e]) for e in sorted(g.edge_sets[i])]
            for i in range(g.gap_count)
        ],
        "vertex_covers": [sorted(p.covers) for p in g.vertex_orders],
        "edge_covers": [sorted(p.covers) for p in g.edge_orders],
        "labels": None if g.edge_labels is None else [dict(m) for m in g.edge_labels],
    }


def build(p: dict) -> rt.ReebGraph:
    return rt.make_graph(
        p["levels"],
        p["vertices"],
        p["edges"],
        vertex_covers=p["vertex_covers"],
        edge_covers=p["edge_covers"],
        labels=p["labels"],
    )


def rename(
    g: rt.ReebGraph,
    rng: random.Random,
    prefix: str,
    ranks: Mapping[str, int] | None = None,
) -> tuple[rt.ReebGraph, dict[str, int] | None]:
    """Isomorphic copy under a random id bijection.  The new ids sort in an
    order unrelated to the old ones, so id-dependent code paths see a
    different input.  Leaf ranks travel with their leaves."""
    vs = sorted(g.vertex_level)
    es = sorted(g.edge_gap)
    vnum = rng.sample(range(len(vs)), len(vs))
    enum_ = rng.sample(range(len(es)), len(es))
    m = {v: f"{prefix}v{n}" for v, n in zip(vs, vnum)}
    m.update({e: f"{prefix}e{n}" for e, n in zip(es, enum_)})
    p = parts(g)
    out = {
        "levels": p["levels"],
        "vertices": [[m[v] for v in level] for level in p["vertices"]],
        "edges": [[(m[e], m[d], m[u]) for e, d, u in gap] for gap in p["edges"]],
        "vertex_covers": [[(m[a], m[b]) for a, b in c] for c in p["vertex_covers"]],
        "edge_covers": [[(m[a], m[b]) for a, b in c] for c in p["edge_covers"]],
        "labels": None
        if p["labels"] is None
        else [None if lab is None else {m[e]: x for e, x in lab.items()} for lab in p["labels"]],
    }
    new_ranks = None if ranks is None else {m[v]: r for v, r in ranks.items()}
    return build(out), new_ranks


def merge_degrees(g: rt.ReebGraph) -> list[int]:
    return [g.indeg(v) for v in g.vertex_level if g.indeg(v) >= 2]


def taxa(g: rt.ReebGraph) -> list[str]:
    return sorted(v for v in g.vertex_level if g.outdeg(v) == 0)


def shape(g: rt.ReebGraph) -> dict:
    """Input properties carried into every per-operation record."""
    degs = merge_degrees(g)
    return {
        "s": sum(d - 1 for d in degs),
        "max_indeg": max(degs, default=1),
        "factors": math.prod(degs),
        "vertices": len(g.vertex_level),
        "taxa": len(taxa(g)),
        "depth": g.level_count,
    }


def generator_graph(
    rng: random.Random, s: int, triples: int, n_leaves: int, levels: int
) -> rt.ReebGraph:
    """A generator graph of cycle rank s with exactly ``triples`` merges of
    in-degree 3 and the rest of in-degree 2, so the factor count is the fixed
    3**triples * 2**(s - 2 * triples).  Seeds are drawn from ``rng`` until
    the generator meets that plan."""
    want = sorted([3] * triples + [2] * (s - 2 * triples))
    for _ in range(2000):
        spec = rt.GeneratorSpec(
            seed=rng.randrange(1 << 30),
            n_leaves=n_leaves,
            betti=s,
            levels=levels,
            max_indeg=3 if triples else 2,
        )
        try:
            g = rt.random_graph(spec)
        except rt.InfeasibleSpec:
            continue
        if sorted(merge_degrees(g)) == want:
            return g
    raise RuntimeError(f"no generator seed met the plan s={s} triples={triples}")


class Workload:
    """One seeded closed-loop workload.  Inputs are built one round at a
    time; a round holds one case of every kind the workload mixes, so every
    run covers the whole mix in the same proportions."""

    name = ""

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        self.counter = 0  # numbers the per-operation directories in workdir

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def make_round(self, round_index: int) -> list[dict]:
        """Serialized inputs, expected answers and input properties of one
        round of cases, in the order they run."""
        raise NotImplementedError

    def prepare(self, case: dict):
        """Fresh program objects (or files) for one operation; untimed."""
        raise NotImplementedError

    def call(self, args):
        """The timed operation."""
        raise NotImplementedError

    def check(self, case: dict, out) -> tuple[int, int, int]:
        """Checks attempted, failed, and failed of the known-defect kind."""
        raise NotImplementedError

    def cleanup(self, args) -> None:
        pass
