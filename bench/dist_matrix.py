"""dist_matrix: one in-process ``reebtrees dist --matrix DIR --p P`` call per
operation over a fresh corpus directory of JSON networks with embedded leaf
ranks.

Every corpus mixes shapes, so cells between different shapes are NA: the
paper's dated two-taxon example, and generator networks in four shape groups
from s=2 to s=5 with 5 to 8 taxa and merges of in-degree 2 and 3.  Two
groups hold a renamed copy of their first network with its ranks carried
over.  A round holds three corpora, one per norm (1, inf, 2); the cheaper a
norm, the more networks its s=3 group gets, so the three cost about the
same.  Equal costs keep the latency distribution in one mode, which keeps
its median and tail steady from run to run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import shutil
from fractions import Fraction

import reebtrees as rt
import reebtrees.cli

from common import Workload, generator_graph, rename, shape, taxa

# Shape groups of every corpus: cycle rank s, merges of in-degree 3, taxa,
# networks drawn, whether a renamed copy of the first one joins them.  None
# networks means the count the corpus's norm sets.
GROUPS = (
    (2, 0, 8, 2, False),
    (3, 1, 6, None, True),
    (4, 1, 5, 1, True),
    (5, 2, 7, 1, False),
)
# (norm, networks of the s=3 group, distance in the dated example).  The
# dated values follow from the four cophenetic vectors of acceptance
# criterion 8: sup 3, sum 10, Euclidean sqrt(26).
NORMS = (("1", 3, 10), ("inf", 4, 3), ("2", 2, 26))


def dated_pair():
    """The worked example of acceptance criterion 8: sup distance 3."""
    a = rt.make_graph(
        [-7, -4, -3, -1],
        [["l1"], ["r", "l2"], ["beta", "m"], ["rho"]],
        [
            [("rl1", "l1", "r")],
            [("bl2", "l2", "beta"), ("br", "r", "beta"), ("mr", "r", "m")],
            [("rb", "beta", "rho"), ("rm", "m", "rho")],
        ],
    )
    b = rt.make_graph(
        [-7, -4, -3, -1],
        [["xl1"], ["xr", "xl2"], ["xbeta", "xm"], ["xrho"]],
        [
            [("xrl1", "xl1", "xr")],
            [("xbl2", "xl2", "xbeta"), ("xbr", "xr", "xbeta"), ("xmr", "xr", "xm")],
            [("xrb", "xbeta", "xrho"), ("xrm", "xm", "xrho")],
        ],
    )
    return (a, {"l1": 1, "l2": 2}), (b, {"xl1": 2, "xl2": 1})


def corpus_shape(nets) -> dict:
    """Largest s, in-degree, taxon count and depth in a corpus, and its
    total factor and vertex counts."""
    shapes = [shape(g) for g, _, _, _ in nets]
    return {
        **{k: max(sh[k] for sh in shapes) for k in ("s", "max_indeg", "taxa", "depth")},
        **{k: sum(sh[k] for sh in shapes) for k in ("factors", "vertices")},
    }


def dated_ok(p: str, value: str, expected: int) -> bool:
    """Exact for p = 1 and inf; for p = 2 the printed value must be the
    square root of ``expected`` to within the CLI's 10**-12."""
    if p != "2":
        return value == str(expected)
    x = Fraction(value)
    return x * x <= expected < (x + Fraction(1, 10**12)) ** 2


class DistMatrix(Workload):
    name = "dist_matrix"

    def make_round(self, r: int) -> list[dict]:
        rng = self.rng(r)
        cases = []
        for k, (p, n_group, dated_value) in enumerate(NORMS):
            nets = []  # (graph, ranks, shape key, role)
            (a, ra), (b, rb) = dated_pair()
            nets.append((*rename(a, rng, f"r{r}k{k}da_", ra), (2, 1), "dated"))
            nets.append((*rename(b, rng, f"r{r}k{k}db_", rb), (2, 1), "dated"))
            for gi, (s, triples, n_taxa, count, renamed) in enumerate(GROUPS):
                for i in range(count or n_group):
                    g = generator_graph(rng, s, triples, n_taxa, 5)
                    nets.append((g, self._ranks(g, rng), (n_taxa, s), f"g{gi}n{i}"))
                if renamed:
                    g, ranks, key, _ = nets[-(count or n_group)]
                    nets.append((*rename(g, rng, f"r{r}k{k}g{gi}_", ranks), key, f"g{gi}copy"))
            names = [f"{n:03d}.json" for n in rng.sample(range(1000), len(nets))]
            role = {name: net[3] for name, net in zip(names, nets)}
            copies = [sorted(n for n in names if role[n] in (f"g{gi}n0", f"g{gi}copy"))
                      for gi, group in enumerate(GROUPS) if group[4]]
            cases.append({
                "p": p,
                "files": {name: rt.dump_text(g, leaf_ranks=rk) for name, (g, rk, _, _) in zip(names, nets)},
                "shape": {name: net[2] for name, net in zip(names, nets)},
                "renamed": copies,
                "dated": sorted(n for n in names if role[n] == "dated"),
                "dated_value": dated_value,
                "props": {"kind": "corpus", "p": p, "networks": len(nets), **corpus_shape(nets)},
            })
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _ranks(g: rt.ReebGraph, rng) -> dict[str, int]:
        leaves = taxa(g)
        return dict(zip(leaves, rng.sample(range(1, len(leaves) + 1), len(leaves))))

    def prepare(self, case: dict):
        self.counter += 1
        d = self.workdir / f"matrix{self.counter}"
        d.mkdir()
        for name, text in case["files"].items():
            (d / name).write_text(text, encoding="utf-8")
        return d, ["dist", "--matrix", str(d), "--p", case["p"]]

    def call(self, args):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = reebtrees.cli.main(args[1])
        return code, out.getvalue()

    def check(self, case: dict, out) -> tuple[int, int, int]:
        """One check per cell: NA exactly where taxon counts or cycle ranks
        differ; otherwise a zero diagonal, agreement with the mirror cell,
        zero within a renamed pair and the known value in the dated example.
        A cell failing only the renamed-pair check is the known
        id-dependence of network distances."""
        names = sorted(case["files"])
        n = len(names)
        if out is None or out[0] != 0:
            return n * n, n * n, 0
        rows = list(csv.reader(io.StringIO(out[1])))
        if len(rows) != n + 1 or rows[0] != [""] + names or any(
            len(row) != n + 1 or row[0] != name for row, name in zip(rows[1:], names)
        ):
            return n * n, n * n, 0
        cell = {(a, b): rows[i + 1][j + 1] for i, a in enumerate(names) for j, b in enumerate(names)}
        renamed = [set(pair) for pair in case["renamed"]]
        failed = known = 0
        for (a, b), value in cell.items():
            if case["shape"][a] != case["shape"][b]:
                ok, renamed_ok = value == "NA", True
            else:
                ok = value != "NA" and value == cell[(b, a)]
                if a == b:
                    ok = ok and value == "0"
                elif a in case["dated"]:
                    ok = ok and dated_ok(case["p"], value, case["dated_value"])
                renamed_ok = not ({a, b} in renamed and value != "0")
            if not (ok and renamed_ok):
                failed += 1
                known += ok
        return n * n, failed, known

    def cleanup(self, args) -> None:
        shutil.rmtree(args[0])
