"""tree_scale: one pair of large eNewick trees (cycle rank 0) per operation.

The operation parses both strings, embeds and validates them, takes their
network distance with shared leaf ranks, writes the first back to eNewick
and parses that again.  The second tree is either the same string (a
self-distance) or a renamed copy with shuffled child order (a renamed-copy
distance); both must give 0, and the round trip must give an equal graph.

A round holds caterpillars of about 250 and 270 taxa, balanced binary trees
of about 240 and 280 taxa and random binary trees of about 260 and 280 taxa,
with fractional or integer branch lengths.  The cophenetic vector costs
about taxa^2 x depth, so these sizes keep one operation near 0.6 s and
caterpillar depth below 300.  Sizes vary by 2% only; the shapes are seeded.
"""

from __future__ import annotations

import random

import reebtrees as rt

from common import Workload, shape

# (shape, taxa, fractional lengths).  Sizes are set so that every kind
# costs about the same per operation: the latency distribution then has one
# mode, and its median and tail stay steady from run to run.
KINDS = (
    ("caterpillar", 250, True),
    ("caterpillar", 270, False),
    ("balanced", 240, True),
    ("balanced", 280, False),
    ("random", 260, True),
    ("random", 280, False),
)


def _length(rng: random.Random, fractional: bool) -> str:
    if fractional:
        return rng.choice(("0.5", "1", "1.5", "2", "2.5"))
    return str(rng.randint(1, 4))


def make_tree(rng: random.Random, kind: str, n: int, fractional: bool):
    """Nested (name, [(child, length), ...]) tuples; leaves have no
    children.  Taxa are t0..t{n-1}, internal nodes i0, i1, ..."""
    subtrees = [(f"t{k}", []) for k in range(n)]
    counter = 0

    def join(a, b):
        nonlocal counter
        counter += 1
        return (f"i{counter}", [(a, _length(rng, fractional)), (b, _length(rng, fractional))])

    if kind == "caterpillar":
        node = subtrees[0]
        for leaf in subtrees[1:]:
            node = join(node, leaf)
        return node
    while len(subtrees) > 1:
        if kind == "random":
            i, j = sorted(rng.sample(range(len(subtrees)), 2))
            b = subtrees.pop(j)
            a = subtrees.pop(i)
            subtrees.append(join(a, b))
        else:
            paired = [join(subtrees[k], subtrees[k + 1]) for k in range(0, len(subtrees) - 1, 2)]
            subtrees = paired + subtrees[len(subtrees) - len(subtrees) % 2:]
    return subtrees[0]


def write(node, names: dict[str, str] | None = None, rng: random.Random | None = None) -> str:
    """eNewick text; ``names`` renames nodes and ``rng`` shuffles children."""
    out: list[str] = []
    stack: list = [("node", node)]
    while stack:
        tag, item = stack.pop()
        if tag == "text":
            out.append(item)
            continue
        name, children = item
        label = names[name] if names else name
        if not children:
            out.append(label)
            continue
        kids = list(children)
        if rng is not None:
            rng.shuffle(kids)
        stack.append(("text", ")" + label))
        for k, (child, length) in enumerate(reversed(kids)):
            stack.append(("text", f":{length}"))
            stack.append(("node", child))
            if k < len(kids) - 1:
                stack.append(("text", ","))
        stack.append(("text", "("))
    return "".join(out) + ";"


def depth(node) -> int:
    best = 0
    stack = [(node, 0)]
    while stack:
        (_, children), d = stack.pop()
        best = max(best, d)
        stack.extend((c, d + 1) for c, _ in children)
    return best


class TreeScale(Workload):
    name = "tree_scale"

    def make_round(self, r: int) -> list[dict]:
        rng = self.rng(r)
        cases = []
        for k, (kind, n, fractional) in enumerate(KINDS):
            n = rng.randint(n - n // 50, n + n // 50)
            tree = make_tree(rng, kind, n, fractional)
            text = write(tree)
            ranks = {f"t{i}": i for i in range(n)}
            if k % 2:
                pair, other, other_ranks = "self", text, ranks
            else:
                pair = "renamed"
                names: dict[str, str] = {}
                stack = [tree]
                while stack:
                    name, children = stack.pop()
                    names[name] = f"r{r}k{k}_{name}"
                    stack.extend(c for c, _ in children)
                other = write(tree, names, rng)
                other_ranks = {names[t]: i for t, i in ranks.items()}
            cases.append({
                "a": text,
                "b": other,
                "ranks_a": ranks,
                "ranks_b": other_ranks,
                "props": {
                    "kind": kind,
                    "pair": pair,
                    "fractional": fractional,
                    "newick_depth": depth(tree),
                    "bytes": len(text),
                },
            })
        rng.shuffle(cases)
        return cases

    def prepare(self, case: dict):
        return case["a"], case["b"], dict(case["ranks_a"]), dict(case["ranks_b"])

    def call(self, args):
        text_a, text_b, ranks_a, ranks_b = args
        ga = rt.network_to_reeb(rt.parse_enewick(text_a))
        gb = rt.network_to_reeb(rt.parse_enewick(text_b))
        problems = rt.validate(ga) + rt.validate(gb)
        d = rt.network_distance(ga, gb, ranks_a=ranks_a, ranks_b=ranks_b)
        again = rt.network_to_reeb(rt.parse_enewick(rt.write_enewick(rt.reeb_to_network(ga))))
        return problems, d, ga, again

    def check(self, case: dict, out) -> tuple[int, int, int]:
        if out is None:
            return 3, 3, 0
        problems, d, ga, again = out
        case["props"].update(shape(ga))
        return 3, (problems != []) + (d != 0) + (again != ga), 0
