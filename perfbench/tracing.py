"""Outside-in tracing of the solver layers.

The tracer replaces public functions with timing wrappers at the point where
their callers look them up (``treewidth.sumset``, ``vc_ilp.min_vertex_cover``,
``bip.solve``, ...), and puts every original back when it is done.  The
program itself is never edited.  Each wrapped call is a span with a name,
start, end, parent span and solve id; spans are kept in memory and written
out at the end.  A layer's self time is its span time minus the time of its
child spans; since one solve runs at a time, spans nest strictly and the
child time is a plain sum.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

from starforest.errors import ResourceLimitError

# Memory guard: planar_tw and vc_guess open about a thousand spans per solve.
# Aggregates keep counting after the cap; only the stored span list stops.
MAX_STORED_SPANS = 200_000

EMBEDS = "solve_h.embeds_star_forest"


def _observe_width(tr, args, result):
    tr.maximum("treewidth.width_max", result.width)


def _observe_family(tr, args, result):
    tr.add("treewidth.enum_star_vectors_dp.family_size", len(result.vectors))


def _observe_sumset(tr, args, result):
    pairs = len(args[0].members) * len(args[1].members)
    tr.add("combinatorics.sumset.pairs", pairs)
    tr.maximum("combinatorics.sumset.max_pairs", pairs)


def _observe_bip(tr, args, result):
    tr.add("bip.solve.vars", len(args[0].variables))
    tr.add("bip.solve.optimal", result.status == "optimal")


def _observe_embedding(tr, args, result):
    tr.add("solve_h.embeds_star_forest.found", result is not None)


# (module under starforest, attribute the caller looks up, span name, observer)
CALL_SITES = [
    ("graph", "parse_instance", "graph.parse_instance", None),
    ("solve_h", "max_matching", "graph.max_matching", None),
    ("vc_ilp", "min_vertex_cover", "graph.min_vertex_cover", None),
    ("treewidth", "solve_tw", "treewidth.solve_tw", None),
    ("treewidth", "heuristic_decomposition", "treewidth.heuristic_decomposition", _observe_width),
    ("treewidth", "enum_star_vectors_dp", "treewidth.enum_star_vectors_dp", _observe_family),
    ("eptas", "enum_star_vectors_dp", "treewidth.enum_star_vectors_dp", _observe_family),
    ("treewidth", "sumset", "combinatorics.sumset", _observe_sumset),
    ("solve_h", "enum_star_partitions", "combinatorics.enum_star_partitions", None),
    ("eptas", "solve_eptas", "eptas.solve_eptas", None),
    ("eptas", "prune_levels", "eptas.prune_levels", None),
    ("eptas", "best_common", "vectors.best_common", None),
    ("vectors", "best_common", "vectors.best_common", None),
    ("bip", "solve", "bip.solve", _observe_bip),
    ("vc_ilp", "solve_vc", "vc_ilp.solve_vc", None),
    ("vc_ilp", "twin_classes", "vc_ilp.twin_classes", None),
    ("vc_ilp", "build_vc_model", "vc_ilp.build_vc_model", None),
    ("component_ilp", "solve_cc", "component_ilp.solve_cc", None),
    ("component_ilp", "canonical_form", "component_ilp.canonical_form", None),
    ("component_ilp", "realisation_table", "component_ilp.realisation_table", None),
    ("component_ilp", "build_cc_model", "component_ilp.build_cc_model", None),
    ("component_ilp", "enum_star_vectors_brute", "oracle.enum_star_vectors_brute", None),
    ("solve_h", "embeds_star_forest", EMBEDS, _observe_embedding),
]
# generators: each next() is a span, each item is counted
GENERATOR_SITES = [
    ("vc_ilp", "enumerate_guesses", "vc_ilp.enumerate_guesses", "vc_ilp.guesses"),
]
# decision queries: counted as shortcuts when they finish without an embedding call
QUERY_SITES = [
    ("solve_h", "solve_h", "solve_h.solve_h"),
]

TRACED_MODULES = sorted(
    {site[0] for site in CALL_SITES + GENERATOR_SITES + QUERY_SITES}
)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, solve id)
        self.dropped_spans = 0
        self._stack: list[list] = []  # [span id, start, child time]
        self._next_id = 0
        self._solve = -1
        self._saved: list[tuple] = []

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self) -> None:
        self._stack.append([self._next_id, time.perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self, name: str) -> None:
        end = time.perf_counter()
        span_id, start, child = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, name, start, end, parent, self._solve))
        else:
            self.dropped_spans += 1

    def add(self, key: str, amount: float) -> None:
        self.totals[key] += amount

    def maximum(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    @contextlib.contextmanager
    def solve(self, solve_id: int):
        """Root span of one request; every layer span of the solve nests in it."""
        self._solve = solve_id
        self._enter()
        try:
            yield
        finally:
            self._exit("solve")

    # -- wrappers -----------------------------------------------------------

    def _call_wrapper(self, name, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            try:
                result = fn(*args, **kwargs)
            except ResourceLimitError:
                self.add(f"{name}.budget_exceeded", 1)
                raise
            finally:
                self._exit(name)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _generator_wrapper(self, name, fn, item_key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            try:
                while True:
                    self._enter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._exit(name)
                    self.add(item_key, 1)
                    yield item
            finally:
                items.close()

        return wrapper

    def _query_wrapper(self, name, fn):
        timed = self._call_wrapper(name, fn, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.calls[EMBEDS]
            result = timed(*args, **kwargs)
            if self.calls[EMBEDS] == before:
                self.add("solve_h.shortcuts", 1)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for mod_name, attr, name, observe in CALL_SITES:
                self._swap(mod_name, attr, lambda fn: self._call_wrapper(name, fn, observe))
            for mod_name, attr, name, item_key in GENERATOR_SITES:
                self._swap(mod_name, attr, lambda fn: self._generator_wrapper(name, fn, item_key))
            for mod_name, attr, name in QUERY_SITES:
                self._swap(mod_name, attr, lambda fn: self._query_wrapper(name, fn))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def _swap(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"starforest.{mod_name}")
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- results ------------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(json.dumps({
                "fields": ["id", "name", "start", "end", "parent", "solve"],
                "stored": len(self.spans),
                "dropped": self.dropped_spans,
            }) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

    def layer_metrics(self, solves: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over ``solves`` traced solves, keyed by name."""
        per = 1.0 / max(solves, 1)
        out: dict[str, tuple[float, str]] = {}

        def self_time(name):
            out[f"{name}.self_s"] = (self.self_s[name] * per, "s/solve")

        def calls(name):
            out[f"{name}.calls"] = (self.calls[name] * per, "calls/solve")

        def ratio(key, num, den):
            out[key] = (num / den if den else 0.0, "ratio")

        self_time("solve")
        self_time("graph.parse_instance")
        calls("graph.max_matching")
        self_time("graph.max_matching")
        self_time("graph.min_vertex_cover")
        self_time("treewidth.solve_tw")
        self_time("treewidth.heuristic_decomposition")
        calls("treewidth.enum_star_vectors_dp")
        self_time("treewidth.enum_star_vectors_dp")
        out["treewidth.enum_star_vectors_dp.family_size"] = (
            self.totals["treewidth.enum_star_vectors_dp.family_size"] * per, "vectors/solve")
        out["treewidth.width_max"] = (self.maxima["treewidth.width_max"], "width")
        calls("combinatorics.sumset")
        self_time("combinatorics.sumset")
        out["combinatorics.sumset.pairs"] = (
            self.totals["combinatorics.sumset.pairs"] * per, "pairs/solve")
        out["combinatorics.sumset.max_pairs"] = (
            self.maxima["combinatorics.sumset.max_pairs"], "pairs")
        self_time("combinatorics.enum_star_partitions")
        self_time("eptas.solve_eptas")
        self_time("eptas.prune_levels")
        calls("vectors.best_common")
        self_time("vectors.best_common")
        bip_calls = self.calls["bip.solve"]
        calls("bip.solve")
        self_time("bip.solve")
        ratio("bip.solve.optimal_ratio", self.totals["bip.solve.optimal"], bip_calls)
        out["bip.solve.vars_mean"] = (
            self.totals["bip.solve.vars"] / bip_calls if bip_calls else 0.0, "vars")
        out["bip.solve.budget_exceeded"] = (self.totals["bip.solve.budget_exceeded"], "count")
        guesses = self.totals["vc_ilp.guesses"]
        self_time("vc_ilp.solve_vc")
        out["vc_ilp.guesses"] = (guesses * per, "guesses/solve")
        self_time("vc_ilp.enumerate_guesses")
        self_time("vc_ilp.build_vc_model")
        ratio("vc_ilp.solve_ratio", bip_calls if guesses else 0, guesses)
        self_time("vc_ilp.twin_classes")
        self_time("component_ilp.solve_cc")
        calls("component_ilp.canonical_form")
        self_time("component_ilp.canonical_form")
        self_time("component_ilp.realisation_table")
        self_time("component_ilp.build_cc_model")
        self_time("oracle.enum_star_vectors_brute")
        self_time("solve_h.solve_h")
        embeds = self.calls[EMBEDS]
        calls(EMBEDS)
        self_time(EMBEDS)
        ratio(f"{EMBEDS}.found_ratio", self.totals[f"{EMBEDS}.found"], embeds)
        ratio("solve_h.shortcut_ratio", self.totals["solve_h.shortcuts"],
              self.calls["solve_h.solve_h"])
        out["tracing.spans"] = (self._next_id * per, "spans/solve")
        return out
