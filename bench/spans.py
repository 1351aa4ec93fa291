"""Spans around the public functions of each reebtrees module.

While installed, every function listed in LAYERS is replaced, under every
name any reebtrees module binds it to, by a wrapper that records a span:
name, start, end, parent span and operation id.  Calls between modules and
within one module both go through module globals, so both are caught.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict

LAYERS = {
    "core": ("make_graph", "validate", "common_refinement"),
    "dag": ("build_dag_view",),
    "decomposition": ("decompose", "apply_choice"),
    "isomorphism": (
        "reeb_iso",
        "decomposition_invariant",
        "canonical_form",
        "brute_force_iso",
        "labelled_iso",
    ),
    "phylo": (
        "network_distance",
        "leaf_order",
        "cophenetic_vector",
        "hausdorff_distance",
        "lp_distance",
    ),
    "enewick": ("parse_enewick", "network_to_reeb", "reeb_to_network", "write_enewick"),
    "serialize": ("load_text", "dump_text", "to_dot"),
    "cli": ("main",),
    "generator": ("random_graph",),
}

# Layers used only while inputs are built; their metrics come from the
# traced set-up, every other layer's from spans inside operations.
SETUP_LAYERS = ("generator",)

# Work counts read off a call's arguments or result.
AMOUNTS = {
    "decomposition.decompose": lambda args, out: len(out.factors),
    "phylo.hausdorff_distance": lambda args, out: len(args[0]) * len(args[1]),
    "phylo.cophenetic_vector": lambda args, out: len(out.entries),
    "enewick.parse_enewick": lambda args, out: len(args[0].encode("utf-8")),
}

def function_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


# Span fields.
NAME, START, END, PARENT, OP, AMOUNT = range(6)


class Tracer:
    """Wrappers are built once; ``install`` and ``uninstall`` only swap the
    module bindings, so untraced operations run the plain functions."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | str | None = None
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "reebtrees"]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"reebtrees.{layer}")
            for fname in names:
                original = getattr(module, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is original:
                            self._bindings.append((m, attr, original, wrapper))

    def install(self) -> None:
        for m, attr, _, wrapper in self._bindings:
            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, original, _ in self._bindings:
            setattr(m, attr, original)

    def _wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, self._stack[-1] if self._stack else -1, self.op, 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                self._stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, out)
            return out

        return wrapper

    def routes(self) -> dict:
        """Route of every reeb_iso span, keyed by span index: oracle when
        brute_force_iso ran inside it, fingerprint when
        decomposition_invariant did, prefilter otherwise.  Also the
        canonical_form count inside each."""
        info: dict[int, dict] = {}
        for i, span in enumerate(self.spans):
            if span[NAME] == "isomorphism.reeb_iso" and span[OP] != "setup":
                info[i] = {"oracle": False, "fingerprint": False, "canonical": 0}
        if not info:
            return {}
        for span in self.spans:
            name = span[NAME]
            if name not in (
                "isomorphism.brute_force_iso",
                "isomorphism.decomposition_invariant",
                "isomorphism.canonical_form",
            ):
                continue
            p = span[PARENT]
            while p >= 0 and p not in info:
                p = self.spans[p][PARENT]
            if p < 0:
                continue
            if name == "isomorphism.brute_force_iso":
                info[p]["oracle"] = True
            elif name == "isomorphism.decomposition_invariant":
                info[p]["fingerprint"] = True
            else:
                info[p]["canonical"] += 1
        for d in info.values():
            d["route"] = "oracle" if d["oracle"] else "fingerprint" if d["fingerprint"] else "prefilter"
        return info

    def op_routes(self) -> dict:
        """Operation id -> route of the first reeb_iso decision in it."""
        out: dict = {}
        for i, d in sorted(self.routes().items()):
            out.setdefault(self.spans[i][OP], d["route"])
        return out

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Calls, total seconds (outermost spans only) and self seconds of
        every traced function, plus the per-layer work counts."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        amount: dict[str, int] = defaultdict(int)
        for i, span in enumerate(self.spans):
            name = span[NAME]
            in_setup = span[OP] == "setup"
            if in_setup != (name.split(".")[0] in SETUP_LAYERS):
                continue
            dur = span[END] - span[START]
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            amount[name] += span[AMOUNT]
            p = span[PARENT]
            while p >= 0 and self.spans[p][NAME] != name:
                p = self.spans[p][PARENT]
            if p < 0:
                total[name] += dur
        out: dict[str, float] = {}
        for name in function_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        routes = self.routes()
        decisions = len(routes)
        for route in ("prefilter", "fingerprint", "oracle"):
            out[f"isomorphism.route.{route}"] = sum(1 for d in routes.values() if d["route"] == route)
        out["isomorphism.fingerprints_per_decision"] = (
            sum(d["canonical"] for d in routes.values()) / decisions if decisions else 0.0
        )
        per_op = max(n_ops, 1)
        out["dag.build_dag_view.calls_per_op"] = calls["dag.build_dag_view"] / per_op
        out["phylo.network_distance.calls_per_op"] = calls["phylo.network_distance"] / per_op
        out["decomposition.factors"] = amount["decomposition.decompose"]
        out["phylo.vector_pairs"] = amount["phylo.hausdorff_distance"]
        out["phylo.vector_entries"] = amount["phylo.cophenetic_vector"]
        parse_s = total["enewick.parse_enewick"]
        out["enewick.parse_bytes_per_s"] = (
            amount["enewick.parse_enewick"] / parse_s if parse_s else 0.0
        )
        return out

    def dump(self, path) -> None:
        """One JSON array per span: name, start, end, parent, op, amount."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def startup_ms(src, repeats: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter start and of one that also
    imports the package from ``src``, in milliseconds; the second is
    returned net of the first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))

    def median_ms(code: str) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            times.append((time.perf_counter() - t0) * 1000.0)
        return statistics.median(times)

    bare = median_ms("pass")
    return bare, median_ms("import reebtrees") - bare
