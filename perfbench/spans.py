"""Span and counter recorder, and the per-layer metrics built from it.

Stdlib only.  `Recorder.instrument()` wraps the public entry points of
every package module from the outside: each wrapped call records a span
(name, layer, start, end, parent span, op id) in memory, and a few hooks
add counters at the same boundaries.  Nothing inside `src/` changes.

A layer is a package module.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested in one
thread, so the children never overlap.  Summed over all spans, self times
equal the time covered by root spans, so the layers' self times plus an
explicit unattributed remainder add up to the traced wall time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import time

LAYERS = ("glie", "cohomology", "linalg", "algebra", "operators", "search",
          "document", "bimodule", "deformation", "onstruct", "cli")

# Public entry points per layer: module-level functions, and methods as
# "Class.method".  Tensor constructors are timed without spans (TENSORS).
ENTRY_POINTS = {
    "glie": ("graded_bracket", "compose_bar", "derived_bracket",
             "rb_differential", "mc_check_algebra_bimodule",
             "twisted_mc_check", "rb_mc_equivalence", "structure_element",
             "embed_blocks", "restrict_blocks"),
    "cohomology": ("RBComplex.__init__", "RBComplex.dims",
                   "RBComplex.differential_matrix", "check_sign_relation",
                   "h0_description_check", "one_cocycle_check",
                   "ce_differential", "hochschild_module_differential",
                   "hochschild_to_ce_morphism_check"),
    "linalg": ("Matrix.rank", "Matrix.kernel_basis", "Matrix.solve",
               "Matrix.inverse"),
    "algebra": ("classify", "anti_flexible_report", "direct_sum",
                "semidirect_product", "deformed_product",
                "tensor_with_associative", "commutator_lie"),
    "operators": ("is_rota_baxter", "rb_graph_is_subalgebra", "is_nijenhuis",
                  "nijenhuis_power_suite", "nt_nijenhuis_equivalence",
                  "induced_pre_anti_flexible", "star_algebra",
                  "is_rb_morphism", "rb_morphism_graph_check",
                  "rb_morphism_preserves_pre_structure",
                  "is_lie_rota_baxter"),
    "search": ("search_algebras", "search_operators"),
    "document": ("load_document", "parse_document", "render_document"),
    "bimodule": ("is_bimodule", "regular_bimodule", "zero_bimodule",
                 "induced_bimodule_on_base", "lie_representation",
                 "tilde_bimodule", "dual_bimodule_candidate"),
    "deformation": ("is_valid_deformation", "is_closed_2cochain",
                    "is_nijenhuis_structure", "trivial_deformation_from",
                    "trivial_deformation_ledger", "nijenhuis_structure_powers",
                    "are_equivalent_deformations", "is_trivial_deformation",
                    "deformation_difference_is_exact"),
    "onstruct": ("is_on_structure", "pairwise_power_compatibility",
                 "star_deformed", "lemma_tilde_star_check",
                 "are_compatible_rb", "nijenhuis_from_compatible",
                 "deformed_rb_suite", "on_from_compatible"),
    "cli": ("main",),
}

# Dense tensor constructors: (module, class); each construction adds its
# entry count to linalg.tensor_entries.
TENSORS = (("linalg", "Matrix"), ("linalg", "MultiMap"), ("glie", "Cochain"))

BRACKETS = {"glie.graded_bracket", "glie.compose_bar", "glie.derived_bracket",
            "glie.rb_differential", "glie.mc_check_algebra_bimodule",
            "glie.twisted_mc_check", "glie.rb_mc_equivalence"}
EMBED_RESTRICT = {"glie.structure_element", "glie.embed_blocks",
                  "glie.restrict_blocks"}
ECHELON = {"linalg.Matrix.rank", "linalg.Matrix.kernel_basis",
           "linalg.Matrix.solve", "linalg.Matrix.inverse"}
PREDICATES = {f"operators.{name}" for name in (
    "is_rota_baxter", "rb_graph_is_subalgebra", "is_nijenhuis",
    "nijenhuis_power_suite", "nt_nijenhuis_equivalence", "is_rb_morphism",
    "rb_morphism_graph_check", "rb_morphism_preserves_pre_structure",
    "is_lie_rota_baxter")}

# Span fields.
NAME, LAYER, START, END, PARENT, OP = range(6)


class Recorder:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = collections.Counter()
        # tensor construction time by enclosing span index (-1: none)
        self.inner = collections.defaultdict(float)
        self.op = None
        # set when a search starts: the next predicate built is its first
        self.first_check_pending = False

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, layer, before=None, after=None):
        """`fn` recording one span per call.  `before(args)` runs before
        the call and its value is handed to `after(args, result, state,
        span_index)`, which runs only when the call returns."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if after is not None:
                after(args, result, state, index)
            return result

        return wrapper

    def instrument(self):
        """Wrap every entry point in every module namespace that holds it
        (the package imports names across modules), count tensor
        constructions, and return a function that undoes all of it."""
        import antiflex
        modules = {layer: importlib.import_module(f"antiflex.{layer}")
                   for layer in LAYERS}
        namespaces = [antiflex] + list(modules.values())
        undo = []

        def patch(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        hooks = self._hooks()
        for layer, names in ENTRY_POINTS.items():
            module = modules[layer]
            for dotted in names:
                name = f"{layer}.{dotted}"
                before, after = hooks.get(name, (None, None))
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    patch(cls, meth, self.wrap(cls.__dict__[meth], name, layer,
                                               before, after))
                    continue
                original = getattr(module, dotted)
                wrapped = self.wrap(original, name, layer, before, after)
                for ns in namespaces:
                    if ns.__dict__.get(dotted) is original:
                        patch(ns, dotted, wrapped)
        for layer, cls_name in TENSORS:
            cls = getattr(modules[layer], cls_name)
            patch(cls, "__init__", self._counting_init(cls.__init__))
        for factory in ("algebra_predicate", "operator_predicate"):
            patch(modules["search"], factory,
                  self._counting_factory(getattr(modules["search"], factory)))

        def restore():
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

        return restore

    def _counting_init(self, init):
        """Constructors run too often to keep a span each: their time is
        added to the linalg layer and taken off the enclosing span."""
        counters, stack, inner, clock = (self.counters, self.stack,
                                         self.inner, time.perf_counter)

        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            start = clock()
            try:
                init(obj, *args, **kwargs)
            finally:
                inner[stack[-1] if stack else -1] += clock() - start
            counters["linalg.tensors"] += 1
            counters["linalg.tensor_entries"] += len(obj.data)

        return wrapper

    def _counting_factory(self, factory):
        """Search builds one check per predicate and applies the first one
        to every candidate it examines; count those applications."""
        counters = self.counters

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            check = factory(*args, **kwargs)
            if not self.first_check_pending:
                return check
            self.first_check_pending = False

            def counted(candidate):
                counters["search.candidates_examined"] += 1
                return check(candidate)

            return counted

        return wrapper

    def _hooks(self):
        counters, spans = self.counters, self.spans

        def search_before(args):
            self.first_check_pending = True

        def search_after(args, result, state, index):
            counters["search.hits"] += len(result)

        def bracket_after(args, result, state, index):
            parent = spans[index][PARENT]
            if spans[index][NAME] == "glie.compose_bar" and parent >= 0 \
                    and spans[parent][NAME] == "glie.graded_bracket":
                return
            counters["glie.bracket_calls"] += 1
            counters["glie.entries_out"] += len(result.data)

        def matrix_before(args):
            # a degree already in the complex's cache builds no columns
            cx, degree = args[0], args[1]
            return degree in getattr(cx, "_matrices", {})

        def matrix_after(args, result, cached, index):
            if cached:
                return
            counters["cohomology.columns"] += result.cols
            counters["cohomology.matrix_entries"] += result.rows * result.cols
            counters["cohomology.matrix_nnz"] += sum(
                1 for x in result.data if x != 0)

        def echelon_after(args, result, state, index):
            counters["linalg.echelon_calls"] += 1

        def predicate_after(args, result, state, index):
            counters["operators.predicate_calls"] += 1

        def classify_after(args, result, state, index):
            counters["algebra.classify_calls"] += 1

        def parse_after(args, result, state, index):
            counters["document.bytes_parsed"] += len(
                args[0].encode("utf-8"))

        def main_after(args, result, state, index):
            counters[f"cli.exit_{result}"] += 1

        hooks = {
            "search.search_algebras": (search_before, search_after),
            "search.search_operators": (search_before, search_after),
            "glie.graded_bracket": (None, bracket_after),
            "glie.compose_bar": (None, bracket_after),
            "cohomology.RBComplex.differential_matrix": (matrix_before,
                                                         matrix_after),
            "algebra.classify": (None, classify_after),
            "document.parse_document": (None, parse_after),
            "cli.main": (None, main_after),
        }
        for name in ECHELON:
            hooks[name] = (None, echelon_after)
        for name in PREDICATES:
            hooks[name] = (None, predicate_after)
        return hooks

    # -- output ------------------------------------------------------------

    def dump(self, path, meta):
        """Write spans and counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta,
                       "fields": ["name", "layer", "start", "end", "parent",
                                  "op"],
                       "spans": self.spans,
                       "tensor_build_s_by_span": self.inner,
                       "counters": dict(self.counters)}, handle,
                      separators=(",", ":"))
            handle.write("\n")


def self_times(spans, inner=None):
    """Per-span self time: duration minus the durations of direct children
    and minus the tensor construction time recorded under it."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    for index, seconds in (inner or {}).items():
        if index >= 0:
            child[index] += seconds
    return [span[END] - span[START] - c for span, c in zip(spans, child)]


def layer_metrics(spans, inner, counters, traced_wall, untraced_wall,
                  returned_ops):
    """Every per-layer metric of the traced pass, as {name: value}.
    `cohomology.assemble_share` counts only the ops in `returned_ops`, the
    ids of ops that returned: a triple whose complex raises ComplexError
    stops before most of its assembly, and would hide the share that the
    well-defined complexes spend there."""
    selfs = self_times(spans, inner)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    tensor_build = sum(inner.values())
    by_layer["linalg"] += tensor_build
    by_name = collections.defaultdict(float)
    for span, s in zip(spans, selfs):
        by_layer[span[LAYER]] += s
        by_name[span[NAME]] += s

    def total(names):
        return sum(by_name[n] for n in names)

    def inclusive(predicate):
        return sum(span[END] - span[START] for span in spans if predicate(span))

    dims = "cohomology.RBComplex.dims"
    check_children = inclusive(
        lambda sp: sp[NAME] in ("linalg.Matrix.kernel_basis",
                                "linalg.Matrix.solve")
        and sp[PARENT] >= 0 and spans[sp[PARENT]][NAME] == dims)
    cohomology_time = inclusive(
        lambda sp: sp[NAME] in ("cohomology.RBComplex.__init__", dims)
        and (sp[PARENT] < 0 or spans[sp[PARENT]][LAYER] != "cohomology")
        and sp[OP] in returned_ops)
    assemble_incl = inclusive(
        lambda sp: sp[NAME] == "cohomology.RBComplex.differential_matrix"
        and sp[OP] in returned_ops)
    examined = counters.get("search.candidates_examined", 0)
    entries = counters.get("cohomology.matrix_entries", 0)

    out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    attributed = sum(by_layer.values())
    out.update({
        "glie.bracket_s": total(BRACKETS),
        "glie.bracket_calls": counters.get("glie.bracket_calls", 0),
        "glie.entries_out": counters.get("glie.entries_out", 0),
        "glie.embed_restrict_s": total(EMBED_RESTRICT),
        "cohomology.assemble_s": by_name["cohomology.RBComplex.differential_matrix"],
        "cohomology.assemble_share": (assemble_incl / cohomology_time
                                      if cohomology_time else 0.0),
        "cohomology.columns": counters.get("cohomology.columns", 0),
        "cohomology.matrix_nnz_frac": (counters.get("cohomology.matrix_nnz", 0)
                                       / entries if entries else 0.0),
        "cohomology.complex_check_s": by_name[dims] + check_children,
        "linalg.echelon_s": total(ECHELON),
        "linalg.echelon_calls": counters.get("linalg.echelon_calls", 0),
        "linalg.tensor_build_s": tensor_build,
        "linalg.tensors": counters.get("linalg.tensors", 0),
        "linalg.tensor_entries": counters.get("linalg.tensor_entries", 0),
        "algebra.classify_s": by_name["algebra.classify"],
        "algebra.classify_calls": counters.get("algebra.classify_calls", 0),
        "operators.predicate_s": total(PREDICATES),
        "operators.predicate_calls": counters.get("operators.predicate_calls", 0),
        "search.candidates_examined": examined,
        "search.hits": counters.get("search.hits", 0),
        "search.hit_ratio": (counters.get("search.hits", 0) / examined
                             if examined else 0.0),
        "document.load_s": total(("document.load_document",
                                  "document.parse_document")),
        "document.render_s": by_name["document.render_document"],
        "document.bytes_parsed": counters.get("document.bytes_parsed", 0),
        "bimodule.validate_s": by_name["bimodule.is_bimodule"],
        "deformation.check_s": by_layer["deformation"],
        "onstruct.check_s": by_layer["onstruct"],
        "cli.exit_0": counters.get("cli.exit_0", 0),
        "cli.exit_1": counters.get("cli.exit_1", 0),
        "cli.exit_2": counters.get("cli.exit_2", 0),
        "trace.spans": len(spans),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.unattributed_s": traced_wall - attributed,
        "trace.overhead_frac": (traced_wall / untraced_wall - 1
                                if untraced_wall else 0.0),
    })
    return out
