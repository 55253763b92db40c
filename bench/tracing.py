"""Span tracing of idealreg from outside the package.

`Tracer.install` replaces the functions and methods listed in `PROBES` by
timing wrappers, in every idealreg module that holds a reference to them
(a name imported with ``from .graded import degree_piece`` is a second
reference that must be patched as well).  `Tracer.uninstall` restores the
originals.  Nothing in ``src/`` is edited.

Each wrapped call is one frame on a stack, so a function's self time is
its duration minus the time of the wrapped calls made inside it.  Probes
marked ``span`` also keep a span record (name, start, end, parent span,
item id) in memory; hot leaf functions, called hundreds of thousands of
times per pass, are only counted and timed.  The hit ratios of the
``lru_cache``'d functions are read from ``cache_info()`` instead of being
wrapped.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute or Class.method, kind): kind "span" keeps span
# records, "count" only counts calls and self time.
PROBES = [
    ("linalg", "row_reduce", "span"),
    ("linalg", "rank", "span"),
    ("linalg", "kernel", "span"),
    ("linalg", "kernel_basis", "span"),
    ("linalg", "matmul", "span"),
    ("linalg", "intersect_rowspaces", "span"),
    ("linalg", "reduce_vector", "count"),
    ("linalg", "in_rowspace", "count"),
    ("fields", "field_of", "count"),
    ("graded", "degree_piece", "span"),
    ("graded", "quotient_basis", "span"),
    ("graded", "colon_piece", "span"),
    ("graded", "saturation_degree", "span"),
    ("graded", "hilbert_value", "count"),
    ("graded", "ideal_product", "span"),
    ("betti", "betti_table", "span"),
    ("betti", "regularity", "span"),
    ("betti", "_monomial_candidates", "span"),
    ("betti", "_homology_of_complex", "count"),
    ("betti", "_euler_check", "span"),
    ("betti", "StrandEngine.differential_rows", "span"),
    ("betti", "StrandEngine.rank", "span"),
    ("betti", "StrandEngine.betti", "span"),
    ("linforms", "verify_decomposition", "span"),
    ("linforms", "power_piece", "span"),
    ("linforms", "product_generators", "span"),
    ("linforms", "primary_components", "span"),
    ("linforms", "sum_ideal", "count"),
    ("linforms", "LinearIdeal.from_rows", "count"),
    ("quotients", "check_order", "span"),
    ("quotients", "search_order", "span"),
    ("quotients", "verify_certificate", "span"),
    ("quotients", "monomial_colon", "count"),
    ("polymatroid", "is_polymatroidal", "span"),
    ("polymatroid", "polymatroidal_product", "span"),
    ("polymatroid", "revlex_certificate", "span"),
    ("chains", "omega", "span"),
    ("chains", "certify_product", "span"),
    ("chains", "chain_ideal", "span"),
    ("chains", "sigma_compare", "count"),
    ("ideals", "MonomialIdeal.from_gens", "count"),
    ("ideals", "MonomialIdeal.product", "span"),
    ("ideals", "MonomialIdeal.hilbert_function", "count"),
    ("ideals", "MonomialIdeal.standard_divisors_of", "span"),
    ("ideals", "minimalize", "count"),
    ("monomials", "parse_monomial", "count"),
    ("monomials", "format_monomial", "count"),
    ("parsing", "parse_ideal_text", "span"),
    ("parsing", "parse_linforms_text", "span"),
]

# click command callbacks of the CLI, traced as "cli.<command>"
CLI_COMMANDS = ["betti"]

LRU_CACHES = [
    ("monomials", "monomial_basis"),
    ("monomials", "basis_index"),
    ("chains", "canonical_decomposition"),
]

LAYERS = [
    "linalg", "fields", "graded", "betti", "linforms", "quotients",
    "polymatroid", "chains", "ideals", "monomials", "parsing", "cli",
]


def _rows_nnz(args):
    return sum(len(r) for r in args[0])  # every caller passes a list


def _piece_computed(args):
    I, e = args
    return 0 if e in I._pieces else 1


def _candidates(result):
    return len(result)


def _with_homology(result):
    return 1 if any(result) else 0


# extra counters: probe name -> (counter name, function of the call
# arguments, evaluated before the call) or (counter name, function of the
# result, evaluated after it)
BEFORE = {
    "linalg.row_reduce": ("linalg.row_reduce.nnz_in", _rows_nnz),
    "graded.degree_piece": ("graded.degree_piece.computed", _piece_computed),
}
AFTER = {
    "betti._monomial_candidates": ("betti.mdeg.candidates", _candidates),
    "betti._homology_of_complex": ("betti.mdeg.with_homology", _with_homology),
}


class Tracer:
    """In-memory spans and per-function call counts and self times."""

    def __init__(self):
        self.names = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.spans = []  # (name id, start, end, parent span or -1, item id)
        self.item = -1
        self._stack = []  # frames [child time, innermost span index]
        self._undo = []
        self._item_span = self._wrap("item", lambda fn, *a: fn(*a), True)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, fn, record):
        nid = len(self.names)
        self.names.append(name)
        before = BEFORE.get(name)
        after = AFTER.get(name)
        perf = time.perf_counter
        stack = self._stack
        spans = self.spans
        calls = self.calls
        self_s = self.self_s
        counters = self.counters

        def wrapper(*args, **kwargs):
            if before is not None:
                counters[before[0]] += before[1](args)
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else -1
            if record:
                idx = len(spans)
                spans.append(None)
                frame = [0.0, idx]
            else:
                frame = [0.0, parent_span]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[idx] = (nid, t0, t1, parent_span, self.item)
            if after is not None:
                counters[after[0]] += after[1](result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, ir):
        """Wrap every probe in the idealreg modules held by `ir`."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "idealreg" or k.startswith("idealreg.")]
        for modname, attr, kind in PROBES:
            mod = getattr(ir, modname)
            name = f"{modname}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, kind == "span"))
                else:
                    wrapped = self._wrap(name, raw, kind == "span")
                self._set(cls, meth, wrapped)
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, kind == "span")
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapped)
        for cmd in CLI_COMMANDS:
            command = ir.cli.main.commands[cmd]
            self._set(command, "callback",
                      self._wrap(f"cli.{cmd}", command.callback, True))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def run_item(self, item_id, fn, *args):
        """Run one item under a root span named "item"."""
        self.item = item_id
        return self._item_span(fn, *args)

    # ------------------------------------------------------------- reports

    def write_spans(self, path, origin):
        """Write the spans as JSON, times in seconds from `origin`."""
        rows = [
            [nid, round(t0 - origin, 7), round(t1 - origin, 7), parent, item]
            for nid, t0, t1, parent, item in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent", "item"],
                       "spans": rows}, fh, separators=(",", ":"))


def cache_stats(ir):
    """Hits and misses of the lru_cache'd functions since their last clear."""
    out = {}
    for modname, attr in LRU_CACHES:
        info = getattr(getattr(ir, modname), attr).cache_info()
        out[f"{modname}.{attr}"] = (info.hits, info.misses)
    return out


def clear_caches(ir):
    """Empty the process-global caches, so that a pass starts cold."""
    for modname, attr in LRU_CACHES:
        getattr(getattr(ir, modname), attr).cache_clear()


def _ratio(num, den):
    return num / den if den else 0.0


# probes whose call count is reported as <probe>.calls
CALL_METRICS = [
    "linalg.row_reduce", "linalg.matmul", "fields.field_of",
    "graded.degree_piece", "betti.betti_table", "betti.regularity",
    "ideals.hilbert_function", "ideals.from_gens", "linforms.power_piece",
    "polymatroid.is_polymatroidal", "chains.sigma_compare",
]

# reported self times: metric name -> probe
SELF_METRICS = {
    "linalg.row_reduce.self_s": "linalg.row_reduce",
    "linalg.kernel.self_s": "linalg.kernel",
    "linalg.matmul.self_s": "linalg.matmul",
    "fields.field_of.self_s": "fields.field_of",
    "graded.degree_piece.self_s": "graded.degree_piece",
    "graded.quotient_basis.self_s": "graded.quotient_basis",
    "graded.colon_piece.self_s": "graded.colon_piece",
    "graded.saturation_degree.self_s": "graded.saturation_degree",
    "betti.strand.differential_rows.self_s": "betti.differential_rows",
    "betti.strand.rank.self_s": "betti.rank",
    "betti.strand.betti.self_s": "betti.betti",
    "betti.koszul_homology.self_s": "betti._homology_of_complex",
    "betti.euler.self_s": "betti._euler_check",
    "ideals.hilbert_function.self_s": "ideals.hilbert_function",
    "ideals.standard_divisors_of.self_s": "ideals.standard_divisors_of",
    "ideals.from_gens.self_s": "ideals.from_gens",
    "linforms.verify_decomposition.self_s": "linforms.verify_decomposition",
    "linforms.power_piece.self_s": "linforms.power_piece",
    "quotients.check_order.self_s": "quotients.check_order",
    "quotients.search_order.self_s": "quotients.search_order",
    "quotients.monomial_colon.self_s": "quotients.monomial_colon",
    "polymatroid.is_polymatroidal.self_s": "polymatroid.is_polymatroidal",
    "chains.omega.self_s": "chains.omega",
    "chains.certify_product.self_s": "chains.certify_product",
    "cli.betti.self_s": "cli.betti",
    "parsing.parse_ideal_text.self_s": "parsing.parse_ideal_text",
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, caches, traced_s, untraced_s):
    """The per-layer metrics of one traced pass, by their fixed names.

    A layer's calls and self time sum over its probes; the monomials layer
    also counts the lookups of its two cached bases.
    """
    calls, self_s, ctr = tracer.calls, tracer.self_s, tracer.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(
            v for k, v in calls.items() if k.split(".")[0] == layer)
        m[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".")[0] == layer)
    for key in ("monomials.monomial_basis", "monomials.basis_index"):
        m["monomials.calls"] += sum(caches[key])
    for probe in CALL_METRICS:
        m[f"{probe}.calls"] = calls[probe]
    for metric, probe in SELF_METRICS.items():
        m[metric] = self_s[probe]
    m["linalg.row_reduce.nnz_in"] = ctr["linalg.row_reduce.nnz_in"]
    piece_calls = calls["graded.degree_piece"]
    computed = ctr["graded.degree_piece.computed"]
    m["graded.degree_piece.computed"] = computed
    m["graded.degree_piece.hit_ratio"] = _ratio(piece_calls - computed, piece_calls)
    m["betti.strand.calls"] = sum(
        calls[f"betti.{meth}"] for meth in ("differential_rows", "rank", "betti"))
    cand = ctr["betti.mdeg.candidates"]
    hom = ctr["betti.mdeg.with_homology"]
    m["betti.mdeg.candidates"] = cand
    m["betti.mdeg.with_homology"] = hom
    m["betti.mdeg.yield"] = _ratio(hom, cand)
    m["betti.tables_per_result"] = _ratio(
        calls["betti.betti_table"], calls["betti.regularity"])
    m["quotients.colon_steps"] = calls["quotients.monomial_colon"]
    m["polymatroid.checks_per_product"] = _ratio(
        calls["polymatroid.is_polymatroidal"],
        calls["polymatroid.polymatroidal_product"])
    for key, (hits, misses) in caches.items():
        m[f"{key}.hit_ratio"] = _ratio(hits, hits + misses)
    m["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    return m
