"""Span tracer and layer counters for the benchmark's traced runs.

The tracer wraps the public functions of each ``htgroth`` layer from the
outside.  A wrapped call records one span: its name, start and end
(``perf_counter_ns``), the span that was open when it started, and the id
of the benchmark op it belongs to.  Spans stay in memory and are written
out when the run ends.  Hot inner calls that would drown the trace in
spans (hull constructions, ``SymExpr`` arithmetic, ``GrothElement``
construction, cut-tuple enumeration) are counted instead.

A function is patched in every ``htgroth`` module that binds it, because
``cohomology`` and ``cli`` import most functions by name.  Nothing under
``src/`` is edited; :func:`import_layers` hands out fresh module objects,
so a tracer never outlives the import it patched.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time

LAYERS = ("symbolic", "segments", "diagrams", "modl", "jl_red", "cohomology", "jsonio", "cli")

# layer -> the public functions the workloads reach that get a span
SPANNED = {
    "segments": ("groth_product",),
    "diagrams": ("m_coeff", "n_coeff", "m_coeff_hull"),
    "modl": ("rl_reduce", "matched_strata"),
    "jl_red": ("run_cuts", "rectangle_cuts", "R_cell", "S_cell", "red_tau"),
    "cohomology": (
        "coh_intermediate",
        "coh_shriek",
        "euler_intermediate",
        "euler_shriek_expansion",
        "euler_master_identity",
        "euler_intermediate_profile",
        "euler_shriek_profile_expansion",
        "euler_oracle_violations",
        "check_se2",
        "check_hij",
        "inclusion_exclusion_ramified",
        "rl_hi_balance",
        "conj2_predicate",
        "torsion_detect",
    ),
    "jsonio": ("dumps", "groth_to_json", "sym_to_json", "sym_from_json"),
    "cli": ("main",),  # plus every cmd_* subcommand, found at install time
}

# span groups whose busy time is reported: name -> member spans
BUSY_GROUPS = {
    "jl_red.run_cuts": ("jl_red.run_cuts",),
    "jl_red.red_tau": ("jl_red.red_tau",),
    "segments.groth_product": ("segments.groth_product",),
    "cohomology.tables": ("cohomology.coh_shriek", "cohomology.coh_intermediate"),
    "cohomology.euler": tuple(
        f"cohomology.{n}" for n in SPANNED["cohomology"] if n.startswith("euler_")
    ),
    "cohomology.balance": ("cohomology.rl_hi_balance",),
    "modl.rl_reduce": ("modl.rl_reduce",),
}

SPAN_FIELDS = ["op", "name", "start_ns", "end_ns", "parent"]

SYMEXPR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")

# the per-layer metrics, in report order: name -> unit
PER_LAYER_UNITS = {
    "jl_red.run_cuts.calls": "count/op",
    "jl_red.run_cuts.busy_ms": "ms/op",
    "jl_red.tuples_scanned": "count/op",
    "jl_red.cuts_kept": "count/op",
    "jl_red.cut_yield": "ratio",
    "jl_red.cut_cache_hit_ratio": "ratio",
    "jl_red.cut_cache_misses": "count/op",
    "jl_red.cut_cache_miss_op_ratio": "ratio",
    "jl_red.cut_cache_size": "count",
    "jl_red.red_tau.busy_ms": "ms/op",
    "jl_red.self_ms": "ms/op",
    "diagrams.m_coeff.calls": "count/op",
    "diagrams.n_coeff.calls": "count/op",
    "diagrams.hull_builds": "count/op",
    "diagrams.busy_ms": "ms/op",
    "diagrams.self_ms": "ms/op",
    "segments.groth_terms_built": "count/op",
    "segments.groth_add.calls": "count/op",
    "segments.groth_product.busy_ms": "ms/op",
    "segments.self_ms": "ms/op",
    "symbolic.ops": "count/op",
    "cohomology.tables.busy_ms": "ms/op",
    "cohomology.euler.busy_ms": "ms/op",
    "cohomology.balance.busy_ms": "ms/op",
    "cohomology.self_ms": "ms/op",
    "modl.rl_reduce.calls": "count/op",
    "modl.rl_reduce.busy_ms": "ms/op",
    "modl.terms_collapsed": "count/op",
    "modl.classes_out": "count/op",
    "modl.self_ms": "ms/op",
    "jsonio.self_ms": "ms/op",
    "jsonio.bytes_out": "count/op",
    "cli.main.self_ms": "ms/op",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count/op",
    "trace.ops": "count",
}


def import_layers() -> dict:
    """Import every layer afresh (new module objects, empty caches)."""
    for name in [m for m in sys.modules if m == "htgroth" or m.startswith("htgroth.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"htgroth.{name}") for name in LAYERS}


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start ns, end ns, parent index, op]
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._name_index: dict[str, int] = {}
        self._cut_cache = None
        self._cache_start = None
        self._misses_at_op_start = 0

    # -- recording -----------------------------------------------------

    def add(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _spanned(self, name: str, fn, after=None):
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(spans)
            rec = [index, 0, 0, stack[-1] if stack else -1, self.op]
            spans.append(rec)
            stack.append(me)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_iter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] = self.counts.get(key, 0) + 1
                yield item

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, mods: dict):
        """Patch the layer modules in ``mods`` (as from :func:`import_layers`)."""
        hooks = {
            "jl_red.run_cuts": lambda args, res: self.add("jl_red.cuts_kept", len(res)),
            "modl.rl_reduce": self._after_rl_reduce,
            "jsonio.dumps": lambda args, res: self.add("jsonio.bytes_out", len(res.encode())),
        }
        targets = []
        for layer, names in SPANNED.items():
            names = list(names)
            if layer == "cli":
                names += sorted(n for n in vars(mods["cli"]) if n.startswith("cmd_"))
            for attr in names:
                name = f"{layer}.{attr}"
                targets.append((mods[layer], attr, name, hooks.get(name)))
        self._cut_cache = mods["jl_red"].rectangle_cuts
        packages = list(mods.values()) + [sys.modules["htgroth"]]
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            wrapped = self._spanned(name, original, after)
            for mod in packages:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        # counters only: too hot for spans
        diagrams, jl_red = mods["diagrams"], mods["jl_red"]
        diagrams.convex_hull = self._counted("diagrams.hull_builds", diagrams.convex_hull)
        jl_red.cut_tuples = self._counted_iter("jl_red.tuples_scanned", jl_red.cut_tuples)
        groth = mods["segments"].GrothElement
        groth.__add__ = self._counted("segments.groth_add.calls", groth.__add__)
        init = groth.__init__

        def counting_init(element, terms=None):
            init(element, terms)
            self.counts["segments.groth_terms_built"] = (
                self.counts.get("segments.groth_terms_built", 0) + len(element.terms)
            )

        groth.__init__ = counting_init
        sym = mods["symbolic"].SymExpr
        for op in SYMEXPR_OPS:
            setattr(sym, op, self._counted("symbolic.ops", vars(sym)[op]))
        self._cache_start = self._cut_cache.cache_info()

    def _after_rl_reduce(self, args, result):
        self.add("modl.terms_collapsed", len(args[0].terms))
        self.add("modl.classes_out", len(result))

    def begin_op(self, op: int):
        self.op = op
        self._misses_at_op_start = self._cut_cache.cache_info().misses

    def end_op(self):
        if self._cut_cache.cache_info().misses > self._misses_at_op_start:
            self.add("trace.ops_with_cut_miss")
        self.add("trace.ops")

    def finish(self):
        """Fold the cut-cache statistics since install into the counters."""
        end, start = self._cut_cache.cache_info(), self._cache_start
        self.add("jl_red.cut_cache_hits", end.hits - start.hits)
        self.add("jl_red.cut_cache_misses", end.misses - start.misses)
        self.counts["jl_red.cut_cache_size"] = end.currsize

    # -- persistence ---------------------------------------------------

    def to_json(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": self.counts}

    def merge(self, data: dict, op: int):
        """Append a trace recorded elsewhere (a child process) as op ``op``."""
        remap = []
        for name in data["names"]:
            index = self._name_index.setdefault(name, len(self.names))
            if index == len(self.names):
                self.names.append(name)
            remap.append(index)
        offset = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([remap[name], start, end, parent + offset if parent >= 0 else -1, op])
        for key, n in data["counts"].items():
            if key == "jl_red.cut_cache_size":
                self.counts[key] = max(self.counts.get(key, 0), n)
            else:
                self.add(key, n)

    def write(self, path):
        """Write the trace as gzipped JSON lines.

        The first line holds the span names and the field order, then one
        line per span ``[op, name index, start ns, end ns, parent index]``
        (parent -1 for a root span), then the counters.
        """
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": SPAN_FIELDS}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"[{op},{name},{start},{end},{parent}]\n")
            fh.write(json.dumps({"counts": self.counts}, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the per-layer report
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float, slowness: float = 1.0) -> dict:
    """Per-op layer metrics (see ``PER_LAYER_UNITS``) from a finished trace.

    Times are divided by ``slowness`` (the machine's slowness during the
    traced ops) to put them at reference speed, like the end-to-end times.
    """
    names, spans, counts = tracer.names, tracer.spans, tracer.counts
    ops = max(1, counts.get("trace.ops", 0))
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    layer_self: dict[str, int] = {}
    calls: dict[str, int] = {}
    for k, (name, start, end, _, _) in enumerate(spans):
        full = names[name]
        calls[full] = calls.get(full, 0) + 1
        layer = full.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + (end - start - child_ns[k])

    def busy_ns(members) -> int:
        """Time inside any member span, not counting nested members twice."""
        wanted = {names.index(m) for m in members if m in names}
        total = 0
        for name, start, end, parent, _ in spans:
            if name not in wanted:
                continue
            while parent >= 0 and spans[parent][0] not in wanted:
                parent = spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    diagram_members = [n for n in names if n.startswith("diagrams.")]

    def per_op_ms(ns: int) -> float:
        return ns / 1e6 / ops / slowness

    def per_op(key: str) -> float:
        return counts.get(key, 0) / ops

    scanned = counts.get("jl_red.tuples_scanned", 0)
    hits = counts.get("jl_red.cut_cache_hits", 0)
    misses = counts.get("jl_red.cut_cache_misses", 0)
    values = {
        "jl_red.run_cuts.calls": calls.get("jl_red.run_cuts", 0) / ops,
        "jl_red.run_cuts.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["jl_red.run_cuts"])),
        "jl_red.tuples_scanned": per_op("jl_red.tuples_scanned"),
        "jl_red.cuts_kept": per_op("jl_red.cuts_kept"),
        "jl_red.cut_yield": counts.get("jl_red.cuts_kept", 0) / scanned if scanned else 0.0,
        "jl_red.cut_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "jl_red.cut_cache_misses": per_op("jl_red.cut_cache_misses"),
        "jl_red.cut_cache_miss_op_ratio": counts.get("trace.ops_with_cut_miss", 0) / ops,
        "jl_red.cut_cache_size": counts.get("jl_red.cut_cache_size", 0),
        "jl_red.red_tau.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["jl_red.red_tau"])),
        "jl_red.self_ms": per_op_ms(layer_self.get("jl_red", 0)),
        "diagrams.m_coeff.calls": calls.get("diagrams.m_coeff", 0) / ops,
        "diagrams.n_coeff.calls": calls.get("diagrams.n_coeff", 0) / ops,
        "diagrams.hull_builds": per_op("diagrams.hull_builds"),
        "diagrams.busy_ms": per_op_ms(busy_ns(diagram_members)),
        "diagrams.self_ms": per_op_ms(layer_self.get("diagrams", 0)),
        "segments.groth_terms_built": per_op("segments.groth_terms_built"),
        "segments.groth_add.calls": per_op("segments.groth_add.calls"),
        "segments.groth_product.busy_ms": per_op_ms(
            busy_ns(BUSY_GROUPS["segments.groth_product"])
        ),
        "segments.self_ms": per_op_ms(layer_self.get("segments", 0)),
        "symbolic.ops": per_op("symbolic.ops"),
        "cohomology.tables.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["cohomology.tables"])),
        "cohomology.euler.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["cohomology.euler"])),
        "cohomology.balance.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["cohomology.balance"])),
        "cohomology.self_ms": per_op_ms(layer_self.get("cohomology", 0)),
        "modl.rl_reduce.calls": calls.get("modl.rl_reduce", 0) / ops,
        "modl.rl_reduce.busy_ms": per_op_ms(busy_ns(BUSY_GROUPS["modl.rl_reduce"])),
        "modl.terms_collapsed": per_op("modl.terms_collapsed"),
        "modl.classes_out": per_op("modl.classes_out"),
        "modl.self_ms": per_op_ms(layer_self.get("modl", 0)),
        "jsonio.self_ms": per_op_ms(layer_self.get("jsonio", 0)),
        "jsonio.bytes_out": per_op("jsonio.bytes_out"),
        "cli.main.self_ms": per_op_ms(layer_self.get("cli", 0)),
        "trace.overhead_ratio": traced_s / untraced_s,
        "trace.spans": len(spans) / ops,
        "trace.ops": counts.get("trace.ops", 0),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
