"""Command-line interface: ingest a workspace document, dispatch checks,
emit human or machine reports.

Exit status contract: 0 when every asserted check passes, 1 when some check
fails, 2 on input errors (malformed document, unknown command, missing
operator, bad shapes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

from .algebra import classify
from .bimodule import Bimodule, is_bimodule
from .cohomology import ComplexError, RBComplex
from .deformation import (InfinitesimalDeformation, is_closed_2cochain,
                          is_nijenhuis_structure, is_valid_deformation,
                          nijenhuis_structure_powers, trivial_deformation_from,
                          trivial_deformation_ledger)
from .document import (DeformationSection, WorkspaceDocument, load_document,
                       render_document)
from .glie import ClosureError, CochainSpace, DegreeCapError, derived_bracket
from .linalg import Matrix, render_rational
from .onstruct import is_on_structure, pairwise_power_compatibility
from .operators import (is_nijenhuis, is_rb_morphism, is_rota_baxter,
                        rb_graph_is_subalgebra, rb_morphism_graph_check)
from .search import SearchSpaceError, search_algebras, search_operators
from .glie import mc_check_algebra_bimodule

__all__ = ["main", "run_command"]


class CommandError(Exception):
    """Input-level failure; maps to exit status 2."""


class Report:
    """Accumulates verdicts and payloads; renders as text or one JSON object."""

    def __init__(self, command: str):
        self.command = command
        self.verdicts = {}
        self.witnesses = []
        self.payload = {}
        self.started = time.perf_counter()

    def verdict(self, name: str, ok: bool, asserted: bool = True):
        self.verdicts[name] = {"ok": bool(ok), "asserted": bool(asserted)}

    def from_check(self, name: str, check, asserted: bool = True):
        self.verdict(name, check.ok, asserted)
        for violation in check.violations:
            self.witnesses.append({
                "law": violation.law,
                "at": list(violation.where),
                "residual": _render_residual(violation.residual),
            })
        for key, value in check.notes.items():
            self.payload.setdefault("notes", {})[f"{name}.{key}"] = value

    def passed(self) -> bool:
        return all(v["ok"] for v in self.verdicts.values() if v["asserted"])

    def finish(self) -> dict:
        return {
            "command": self.command,
            "verdicts": self.verdicts,
            "witnesses": self.witnesses,
            "payload": self.payload,
            "elapsed_ms": round((time.perf_counter() - self.started) * 1000, 3),
            "ok": self.passed(),
        }


def _render_residual(residual) -> object:
    if residual is None:
        return None
    if isinstance(residual, Matrix):
        return [[render_rational(x) for x in residual.row(i)]
                for i in range(residual.rows)]
    if isinstance(residual, tuple):
        return [render_rational(x) for x in residual]
    if hasattr(residual, "data") and hasattr(residual, "arity"):
        return {"arity": residual.arity, "dim": residual.dim,
                "nonzeros": sum(1 for x in residual.data if x != 0)}
    return str(residual)


def _render_report_text(data: dict) -> str:
    lines = [f"command: {data['command']}"]
    width = max((len(k) for k in data["verdicts"]), default=0)
    for name, verdict in data["verdicts"].items():
        mark = "pass" if verdict["ok"] else "FAIL"
        note = "" if verdict["asserted"] else "  (informational)"
        lines.append(f"  {name.ljust(width)}  {mark}{note}")
    for witness in data["witnesses"]:
        lines.append(f"  witness: {witness['law']} at {tuple(witness['at'])}"
                     f" residual {witness['residual']}")
    if data["payload"]:
        lines.append("  payload:")
        for chunk in json.dumps(data["payload"], indent=2).splitlines():
            lines.append(f"    {chunk}")
    lines.append(f"  ok: {data['ok']}   ({data['elapsed_ms']} ms)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# document plumbing
# ---------------------------------------------------------------------------

def _need_bimodule(doc: WorkspaceDocument, which: str = "bimodule"):
    section = getattr(doc, which)
    if section is None:
        raise CommandError(f"document has no {which} section")
    return section


def _bimodule_object(doc: WorkspaceDocument, which: str = "bimodule"):
    section = _need_bimodule(doc, which)
    alg = doc.algebra.algebra if which == "bimodule" else doc.algebra2.algebra
    check = is_bimodule(alg, section.left, section.right)
    if not check.ok:
        raise CommandError(f"{which} section fails the bimodule axioms: "
                           f"{check.describe()}")
    return Bimodule(alg, section.left, section.right, check=False)


def _named_operator(doc: WorkspaceDocument, name: str) -> Matrix:
    if name not in doc.operators:
        raise CommandError(f"no operator named {name!r} in the document")
    return doc.operators[name]


def _named_operators(doc: WorkspaceDocument, names: Optional[str], count: int,
                     what: str) -> list:
    if not names:
        raise CommandError(f"{what} requires --ops with {count} names")
    parts = [p.strip() for p in names.split(",")]
    if len(parts) != count:
        raise CommandError(f"{what} requires exactly {count} operator names")
    return [_named_operator(doc, p) for p in parts]


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_check(args, doc: WorkspaceDocument) -> Report:
    what = args.what
    if args.power_cap < 0:
        raise CommandError(f"--power-cap must be nonnegative, got {args.power_cap}")
    report = Report(f"check {what}")
    alg = doc.algebra.algebra

    if what == "algebra":
        flags = classify(alg)
        report.verdict("anti_flexible", flags.anti_flexible)
        report.verdict("flexible", flags.flexible, asserted=False)
        report.verdict("associative", flags.associative, asserted=False)
        report.verdict("commutative", alg.is_commutative(), asserted=False)

    elif what == "bimodule":
        section = _need_bimodule(doc)
        report.from_check("bimodule_axioms",
                          is_bimodule(alg, section.left, section.right))

    elif what == "rb":
        mod = _bimodule_object(doc)
        if not args.op:
            raise CommandError("check rb requires --op NAME")
        op = _named_operator(doc, args.op)
        check = is_rota_baxter(alg, mod, op)
        report.from_check("rota_baxter", check)
        report.verdict("graph_subalgebra_agrees",
                       rb_graph_is_subalgebra(alg, mod, op) == check.ok)

    elif what == "nijenhuis":
        if not args.op:
            raise CommandError("check nijenhuis requires --op NAME")
        op = _named_operator(doc, args.op)
        report.from_check("nijenhuis", is_nijenhuis(alg, op))

    elif what == "nij-structure":
        mod = _bimodule_object(doc)
        alg_op, mod_op = _named_operators(doc, args.ops, 2, "check nij-structure")
        check = is_nijenhuis_structure(alg, mod, alg_op, mod_op)
        report.from_check("nijenhuis_structure", check)
        if check.ok and args.power_cap:
            for i in range(2, args.power_cap + 1):
                report.verdict(f"powers_{i}",
                               nijenhuis_structure_powers(alg, mod, alg_op,
                                                          mod_op, i))

    elif what == "on":
        mod = _bimodule_object(doc)
        op, alg_op, mod_op = _named_operators(doc, args.ops, 3, "check on")
        check = is_on_structure(alg, mod, op, alg_op, mod_op)
        report.from_check("on_structure", check)
        if check.ok and args.power_cap:
            sweep = pairwise_power_compatibility(alg, mod, op, alg_op, mod_op,
                                                 k_max=args.power_cap)
            report.payload["power_sweep"] = {
                f"{i},{j}": verdict for (i, j), verdict in sweep.items()}

    elif what == "morphism":
        if doc.algebra2 is None:
            raise CommandError("check morphism requires an algebra2 section")
        mod = _bimodule_object(doc)
        mod2 = _bimodule_object(doc, which="bimodule2")
        phi, psi, op, op2 = _named_operators(doc, args.ops, 4, "check morphism")
        alg2 = doc.algebra2.algebra
        check = is_rb_morphism(alg, mod, op, alg2, mod2, op2, phi, psi)
        report.from_check("rb_morphism", check)
        report.verdict("graph_route_agrees",
                       rb_morphism_graph_check(alg, mod, op, alg2, mod2, op2,
                                               phi, psi) == check.ok)
    else:
        raise CommandError(f"unknown check target {what!r}")
    return report


def _cmd_mc_check(args, doc: WorkspaceDocument) -> Report:
    report = Report("mc-check")
    alg = doc.algebra.algebra
    section = _need_bimodule(doc)
    mc = mc_check_algebra_bimodule(alg, section.left, section.right)
    flags = classify(alg)
    axioms = flags.anti_flexible and bool(
        is_bimodule(alg, section.left, section.right))
    report.verdict("maurer_cartan", mc)
    report.verdict("axioms", axioms, asserted=False)
    report.verdict("agreement", mc == axioms)
    return report


def _cmd_cohomology(args, doc: WorkspaceDocument) -> Report:
    report = Report("cohomology")
    alg = doc.algebra.algebra
    mod = _bimodule_object(doc)
    if not args.op:
        raise CommandError("cohomology requires --op NAME")
    op = _named_operator(doc, args.op)
    check = is_rota_baxter(alg, mod, op)
    report.from_check("rota_baxter", check)
    if not check.ok:
        return report
    cx = RBComplex(alg, mod, op)
    try:
        dims = cx.dims(args.max_degree)
    except ComplexError as exc:
        report.verdict("complex_property", False)
        report.payload["complex_error"] = str(exc)
        return report
    report.verdict("complex_property", True)
    report.payload["dimensions"] = dims.to_json()
    return report


def _cmd_deform(args, doc: WorkspaceDocument) -> Report:
    report = Report(f"deform {args.what}")
    alg = doc.algebra.algebra
    mod = _bimodule_object(doc)
    if args.what == "generate":
        alg_op, mod_op = _named_operators(doc, args.ops, 2, "deform generate")
        check = is_nijenhuis_structure(alg, mod, alg_op, mod_op)
        report.from_check("nijenhuis_structure", check)
        if not check.ok:
            return report
        defo = trivial_deformation_from(alg, mod, alg_op, mod_op)
        for name, ok in trivial_deformation_ledger(alg, mod, alg_op, mod_op,
                                                   defo).items():
            report.verdict(name, ok)
        report.verdict("valid_deformation",
                       is_valid_deformation(alg, mod, defo))
        out = WorkspaceDocument(doc.field, doc.algebra, doc.algebra2,
                                doc.bimodule, doc.bimodule2, doc.operators,
                                DeformationSection(defo.omega, defo.phi,
                                                   defo.psi))
        report.payload["document"] = json.loads(render_document(out))
    elif args.what == "verify":
        if doc.deformation is None:
            raise CommandError("document has no deformation section")
        defo = InfinitesimalDeformation(doc.deformation.omega,
                                        doc.deformation.phi,
                                        doc.deformation.psi)
        report.verdict("closed", is_closed_2cochain(alg, mod, defo),
                       asserted=False)
        report.verdict("valid", is_valid_deformation(alg, mod, defo))
    else:
        raise CommandError(f"unknown deform action {args.what!r}")
    return report


def _cmd_glie(args, doc: WorkspaceDocument) -> Report:
    if args.what != "bracket":
        raise CommandError(f"unknown glie action {args.what!r}")
    report = Report("glie bracket")
    alg = doc.algebra.algebra
    mod = _bimodule_object(doc)
    space = CochainSpace(alg, mod)
    if args.ops:
        first, second = _named_operators(doc, args.ops, 2, "glie bracket")
    elif args.op:
        first = second = _named_operator(doc, args.op)
    else:
        raise CommandError("glie bracket requires --op NAME or --ops A,B")
    try:
        out = derived_bracket(space, space.operator_cochain(first),
                              space.operator_cochain(second))
    except (ClosureError, DegreeCapError) as exc:
        report.verdict("closure", False)
        report.payload["error"] = str(exc)
        return report
    report.verdict("closure", True)
    report.payload["degree"] = out.degree
    report.payload["is_zero"] = out.is_zero()
    report.payload["values"] = {
        f"{i},{j}": [render_rational(x) for x in out.value((i, j))]
        for i in range(mod.mdim) for j in range(mod.mdim)}
    return report


def _cmd_search(args, doc: Optional[WorkspaceDocument]) -> Report:
    report = Report("search")
    coeffs = [c.strip() for c in (args.coeffs or "-1,0,1").split(",")]
    try:
        coeffs = [int(c) for c in coeffs]
    except ValueError:
        raise CommandError(f"bad coefficient grid {args.coeffs!r}") from None
    predicates = ([p.strip() for p in args.predicates.split(",")]
                  if args.predicates else [])
    try:
        if args.kind == "algebra":
            if args.dim is None:
                raise CommandError("search --kind algebra requires --dim")
            if args.dim > 2:
                raise CommandError("full algebra grids are limited to dim <= 2")
            hits = search_algebras(args.dim, coeffs, predicates,
                                   limit=args.limit, progress=True)
            report.payload["found"] = [
                {"dim": alg.dim,
                 "products": json.loads(_algebra_products_json(alg))}
                for alg in hits]
        elif args.kind == "operator":
            if doc is None:
                raise CommandError("operator search requires --fixture")
            alg = doc.algebra.algebra
            mod = (_bimodule_object(doc)
                   if args.shape in ("module-to-algebra", "module-endo")
                   else None)
            hits = search_operators(alg, mod, coeffs, predicates,
                                    shape=args.shape, limit=args.limit,
                                    progress=True)
            report.payload["found"] = [
                [[render_rational(x) for x in op.row(i)]
                 for i in range(op.rows)] for op in hits]
        else:
            raise CommandError(f"unknown search kind {args.kind!r}")
    except (SearchSpaceError, ValueError) as exc:
        raise CommandError(str(exc)) from None
    report.payload["count"] = len(report.payload["found"])
    return report


def _algebra_products_json(alg) -> str:
    from .document import _render_sparse_bilinear
    return json.dumps(_render_sparse_bilinear(alg.mul, alg.labels))


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiflex",
        description="checks and constructions for anti-flexible algebras, "
                    "Rota-Baxter operators and related structures")
    parser.add_argument("--fixture", help="path to a workspace JSON document")
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a named predicate")
    check.add_argument("what", choices=["algebra", "bimodule", "rb",
                                        "nijenhuis", "nij-structure", "on",
                                        "morphism"])
    check.add_argument("--op")
    check.add_argument("--ops")
    check.add_argument("--power-cap", type=int, default=0)

    sub.add_parser("mc-check", help="Maurer-Cartan check of mu + l + r")

    coh = sub.add_parser("cohomology", help="cochain complex dimensions")
    coh.add_argument("--op")
    coh.add_argument("--max-degree", type=int, default=3)

    deform = sub.add_parser("deform", help="deformation generators")
    deform.add_argument("what", choices=["generate", "verify"])
    deform.add_argument("--ops")

    glie = sub.add_parser("glie", help="graded bracket evaluation")
    glie.add_argument("what", choices=["bracket"])
    glie.add_argument("--op")
    glie.add_argument("--ops")

    search = sub.add_parser("search", help="brute-force enumeration oracle")
    search.add_argument("--kind", choices=["algebra", "operator"],
                        required=True)
    search.add_argument("--dim", type=int)
    search.add_argument("--coeffs")
    search.add_argument("--predicates")
    search.add_argument("--limit", type=int)
    search.add_argument("--shape", default="module-to-algebra",
                        choices=["module-to-algebra", "algebra-endo",
                                 "module-endo"])
    return parser


def run_command(args) -> Report:
    doc = None
    if args.fixture:
        doc = load_document(args.fixture)
    if args.command == "search":
        return _cmd_search(args, doc)
    if doc is None:
        raise CommandError("this command requires --fixture PATH")
    if args.command == "check":
        return _cmd_check(args, doc)
    if args.command == "mc-check":
        return _cmd_mc_check(args, doc)
    if args.command == "cohomology":
        return _cmd_cohomology(args, doc)
    if args.command == "deform":
        return _cmd_deform(args, doc)
    if args.command == "glie":
        return _cmd_glie(args, doc)
    raise CommandError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = run_command(args)
    except (CommandError, OSError, ValueError) as exc:
        # DocumentError and LinAlgError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = report.finish()
    if args.json:
        print(json.dumps(data, indent=2))
    else:
        print(_render_report_text(data), end="")
    return 0 if data["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
