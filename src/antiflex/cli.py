"""Command-line interface: ingest a workspace document, dispatch checks,
emit human or machine reports.

Exit status contract: 0 when every asserted check passes, 1 when some check
fails, 2 on input errors (malformed document, unknown command, missing
operator, bad shapes).

An argv reaches its command by one of two routes, both read off one table
of options and commands (`_OPTIONS` and `_SUBCOMMANDS`).  `_read_argv`
reads a well-formed argv directly: whole option strings, each given once,
plain values (ASCII digits for an int) and one command with its target.
Every other argv goes to argparse, which owns every refusal, usage line
and --help, so their bytes are argparse's own.  Both routes give the same
namespace.  Reports, text payloads included, are written by
`document.render_json`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from typing import Optional

from .algebra import anti_flexible_report, classify
from .cohomology import ComplexError, RBComplex
from .deformation import (_check_power, _closed_and_valid, _ledger,
                          _nijenhuis_structure, _structure_power, _trivial_deformation,
                          is_nijenhuis_structure, is_valid_deformation)
from .document import (WorkspaceDocument, _document_object, _render_matrix,
                       _render_sparse_bilinear, load_document, render_json)
from .glie import (ClosureError, CochainSpace, DegreeCapError,
                   _is_maurer_cartan, derived_bracket)
from .linalg import (LinAlgError, Matrix, MultiMap, parse_rational,
                     render_rational)
from .onstruct import _check_sweep_bound, _power_sweep, is_on_structure
from .operators import (is_nijenhuis, is_rb_morphism, is_rota_baxter,
                        rb_graph_is_subalgebra, rb_morphism_graph_check)
from .search import SearchSpaceError, search_algebras, search_operators

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

    def from_check(self, name: str, check):
        self.verdict(name, check.ok)
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
        return _render_matrix(residual)
    if isinstance(residual, tuple):
        return [render_rational(x) for x in residual]
    if isinstance(residual, MultiMap):
        return {"arity": residual.arity, "dim": residual.dim,
                "nonzeros": len(residual.entries)}
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
        for chunk in render_json(data["payload"]).splitlines():
            lines.append(f"    {chunk}")
    lines.append(f"  ok: {data['ok']}   ({data['elapsed_ms']} ms)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# document plumbing
# ---------------------------------------------------------------------------

def _need_bimodule(doc: WorkspaceDocument, which: str = "bimodule"):
    mod = getattr(doc, which)
    if mod is None:
        raise CommandError(f"document has no {which} section")
    return mod


def _bimodule_object(doc: WorkspaceDocument, which: str = "bimodule"):
    mod = _need_bimodule(doc, which)
    check = mod.validate()
    if not check.ok:
        raise CommandError(f"{which} section fails the bimodule axioms: "
                           f"{check.describe()}")
    return mod


def _named_operator(doc: WorkspaceDocument, name: str) -> Matrix:
    if name not in doc.operators:
        raise CommandError(f"no operator named {name!r} in the document")
    return doc.operators[name]


def _op(report: Report, args, doc: WorkspaceDocument) -> Matrix:
    """The operator named by --op."""
    if not args.op:
        raise CommandError(f"{report.command} requires --op NAME")
    return _named_operator(doc, args.op)


def _ops(report: Report, args, doc: WorkspaceDocument, count: int) -> list:
    """The `count` operators named by --ops."""
    if not args.ops:
        raise CommandError(f"{report.command} requires --ops with {count} names")
    parts = [p.strip() for p in args.ops.split(",")]
    if len(parts) != count:
        raise CommandError(
            f"{report.command} requires exactly {count} operator names")
    return [_named_operator(doc, p) for p in parts]


# ---------------------------------------------------------------------------
# command implementations: each fills the report run_command made for it
# ---------------------------------------------------------------------------

def _check_algebra(report: Report, args, doc: WorkspaceDocument) -> None:
    alg = doc.algebra
    flags = classify(alg)
    report.verdict("anti_flexible", flags.anti_flexible)
    report.verdict("flexible", flags.flexible, asserted=False)
    report.verdict("associative", flags.associative, asserted=False)
    report.verdict("commutative", alg.is_commutative(), asserted=False)


def _check_bimodule(report: Report, args, doc: WorkspaceDocument) -> None:
    report.from_check("bimodule_axioms", _need_bimodule(doc).validate())


def _check_rb(report: Report, args, doc: WorkspaceDocument) -> None:
    alg, mod = doc.algebra, _bimodule_object(doc)
    op = _op(report, args, doc)
    check = is_rota_baxter(alg, mod, op)
    report.from_check("rota_baxter", check)
    report.verdict("graph_subalgebra_agrees",
                   rb_graph_is_subalgebra(alg, mod, op) == check.ok)


def _check_nijenhuis(report: Report, args, doc: WorkspaceDocument) -> None:
    report.from_check("nijenhuis", is_nijenhuis(doc.algebra,
                                                _op(report, args, doc)))


def _check_nij_structure(report: Report, args, doc: WorkspaceDocument) -> None:
    if args.power_cap:
        _check_power(args.power_cap)
    alg, mod = doc.algebra, _bimodule_object(doc)
    alg_op, mod_op = _ops(report, args, doc, 2)
    check = is_nijenhuis_structure(alg, mod, alg_op, mod_op)
    report.from_check("nijenhuis_structure", check)
    if check.ok:  # the pair is verified above
        for i in range(2, args.power_cap + 1):
            report.verdict(f"powers_{i}",
                           _structure_power(alg, mod, alg_op, mod_op, i))


def _check_on(report: Report, args, doc: WorkspaceDocument) -> None:
    if args.power_cap:
        _check_sweep_bound(args.power_cap)
    alg, mod = doc.algebra, _bimodule_object(doc)
    op, alg_op, mod_op = _ops(report, args, doc, 3)
    check = is_on_structure(alg, mod, op, alg_op, mod_op)
    report.from_check("on_structure", check)
    if check.ok and args.power_cap:  # the triple is verified above
        sweep = _power_sweep(alg, mod, op, alg_op, mod_op, args.power_cap)
        report.payload["power_sweep"] = {
            f"{i},{j}": verdict for (i, j), verdict in sweep.items()}


def _check_morphism(report: Report, args, doc: WorkspaceDocument) -> None:
    if doc.algebra2 is None:
        raise CommandError("check morphism requires an algebra2 section")
    alg, alg2 = doc.algebra, doc.algebra2
    mod = _bimodule_object(doc)
    mod2 = _bimodule_object(doc, which="bimodule2")
    phi, psi, op, op2 = _ops(report, args, doc, 4)
    check = is_rb_morphism(alg, mod, op, alg2, mod2, op2, phi, psi)
    report.from_check("rb_morphism", check)
    report.verdict("graph_route_agrees",
                   rb_morphism_graph_check(alg, mod, op, alg2, mod2, op2,
                                           phi, psi) == check.ok)


def _mc_check(report: Report, args, doc: WorkspaceDocument) -> None:
    alg = doc.algebra
    mod = _need_bimodule(doc)
    mc = _is_maurer_cartan(mod)
    axioms = anti_flexible_report(alg).ok and bool(mod.validate())
    report.verdict("maurer_cartan", mc)
    report.verdict("axioms", axioms, asserted=False)
    report.verdict("agreement", mc == axioms)


def _cohomology(report: Report, args, doc: WorkspaceDocument) -> None:
    alg, mod = doc.algebra, _bimodule_object(doc)
    op = _op(report, args, doc)
    try:
        # the complex checks the Rota-Baxter identity itself
        cx = RBComplex(alg, mod, op)
    except ValueError:
        check = is_rota_baxter(alg, mod, op)
        if check.ok:
            raise
        report.from_check("rota_baxter", check)
        return
    report.verdict("rota_baxter", True)
    try:
        dims = cx.dims(args.max_degree)
    except ComplexError as exc:
        report.verdict("complex_property", False)
        report.payload["complex_error"] = str(exc)
        return
    report.verdict("complex_property", True)
    report.payload["dimensions"] = dims.to_json()


def _deform_generate(report: Report, args, doc: WorkspaceDocument) -> None:
    alg, mod = doc.algebra, _bimodule_object(doc)
    alg_op, mod_op = _ops(report, args, doc, 2)
    check, acted, twists = _nijenhuis_structure(alg, mod, alg_op, mod_op)
    report.from_check("nijenhuis_structure", check)
    if not check.ok:
        return
    defo = _trivial_deformation(alg, mod, alg_op, twists)  # checked above
    for name, ok in _ledger(alg, alg_op, mod_op, acted, defo, defo).items():
        report.verdict(name, ok)
    report.verdict("valid_deformation", is_valid_deformation(alg, mod, defo))
    report.payload["document"] = _document_object(
        dataclasses.replace(doc, deformation=defo))


def _deform_verify(report: Report, args, doc: WorkspaceDocument) -> None:
    alg, mod = doc.algebra, _bimodule_object(doc)
    defo = doc.deformation
    if defo is None:
        raise CommandError("document has no deformation section")
    closed, valid = _closed_and_valid(alg, mod, defo)
    report.verdict("closed", closed, asserted=False)
    report.verdict("valid", valid)


def _glie_bracket(report: Report, args, doc: WorkspaceDocument) -> None:
    mod = _bimodule_object(doc)
    space = CochainSpace(doc.algebra, mod)
    if args.ops:
        first, second = _ops(report, args, doc, 2)
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
        return
    report.verdict("closure", True)
    report.payload["degree"] = out.degree
    report.payload["is_zero"] = out.is_zero()
    report.payload["values"] = {
        f"{i},{j}": [render_rational(x) for x in out.value((i, j))]
        for i in range(mod.mdim) for j in range(mod.mdim)}


def _search(report: Report, args, doc: Optional[WorkspaceDocument]) -> None:
    coeffs = [c.strip() for c in (args.coeffs or "-1,0,1").split(",")]
    try:
        coeffs = [parse_rational(c) for c in coeffs]
    except LinAlgError:
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
                 "products": _render_sparse_bilinear(alg.mul, alg.labels)}
                for alg in hits]
        else:
            if doc is None:
                raise CommandError("operator search requires --fixture")
            mod = (_bimodule_object(doc)
                   if args.shape in ("module-to-algebra", "module-endo")
                   else None)
            hits = search_operators(doc.algebra, mod, coeffs, predicates,
                                    shape=args.shape, limit=args.limit,
                                    progress=True)
            report.payload["found"] = [_render_matrix(op) for op in hits]
    except (SearchSpaceError, ValueError) as exc:
        raise CommandError(str(exc)) from None
    report.payload["count"] = len(report.payload["found"])


# (command, target) -> handler; a command without targets has target None.
# The argparse choices of each command's targets are read from here.
COMMANDS = {
    ("check", "algebra"): _check_algebra,
    ("check", "bimodule"): _check_bimodule,
    ("check", "rb"): _check_rb,
    ("check", "nijenhuis"): _check_nijenhuis,
    ("check", "nij-structure"): _check_nij_structure,
    ("check", "on"): _check_on,
    ("check", "morphism"): _check_morphism,
    ("mc-check", None): _mc_check,
    ("cohomology", None): _cohomology,
    ("deform", "generate"): _deform_generate,
    ("deform", "verify"): _deform_verify,
    ("glie", "bracket"): _glie_bracket,
    ("search", None): _search,
}


def _targets(command: str) -> list:
    return [target for name, target in COMMANDS if name == command]


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

# The argv grammar: the keyword arguments of `add_argument` for each
# option, first the options before the command and then each command's own,
# with each command's help.  A command with targets also takes one target
# (`what`), chosen from its `COMMANDS` entries.  `_build_parser` builds
# argparse from this table and `_read_argv` reads well-formed argv by it,
# so it uses only the keywords `_read_argv` reads: help, action
# ("store_true"), type (int), default, choices and required.
_OPTIONS = {
    "--fixture": {"help": "path to a workspace JSON document"},
    "--json": {"action": "store_true",
               "help": "emit one machine-readable JSON object"},
}
_SUBCOMMANDS = {
    "check": ("run a named predicate", {
        "--op": {}, "--ops": {}, "--power-cap": {"type": int, "default": 0}}),
    "mc-check": ("Maurer-Cartan check of mu + l + r", {}),
    "cohomology": ("cochain complex dimensions", {
        "--op": {}, "--max-degree": {"type": int, "default": 3}}),
    "deform": ("deformation generators", {"--ops": {}}),
    "glie": ("graded bracket evaluation", {"--op": {}, "--ops": {}}),
    "search": ("enumerate grid candidates that pass every predicate", {
        "--kind": {"choices": ["algebra", "operator"], "required": True},
        "--dim": {"type": int},
        "--coeffs": {},
        "--predicates": {},
        "--limit": {"type": int},
        "--shape": {"default": "module-to-algebra",
                    "choices": ["module-to-algebra", "algebra-endo",
                                "module-endo"]}}),
}


@functools.cache  # once per process: the parser keeps no per-input state
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antiflex",
        description="checks and constructions for anti-flexible algebras, "
                    "Rota-Baxter operators and related structures")
    for flag, spec in _OPTIONS.items():
        parser.add_argument(flag, **spec)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in _SUBCOMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        targets = _targets(command)
        if targets != [None]:
            command_parser.add_argument("what", choices=targets)
        for flag, spec in options.items():
            command_parser.add_argument(flag, **spec)
    return parser


def _read_value(word: str, spec: dict):
    """The value `parse_args` reads for `word` as an option's argument, or
    None unless `word` is plain: not empty, not starting with '-', ASCII
    digits for an int, and one of the choices where there are any."""
    if not word or word[0] == "-":
        return None
    if spec.get("type") is int:
        if not (word.isascii() and word.isdigit()):
            return None
        try:
            word = int(word)
        except ValueError:  # over the interpreter's int digit limit
            return None
    if "choices" in spec and word not in spec["choices"]:
        return None
    return word


def _defaults(options: dict) -> dict:
    """The value argparse gives each option of `options` when it is absent,
    under the option's dest: --power-cap is power_cap."""
    return {flag[2:].replace("-", "_"): spec.get(
                "default", False if spec.get("action") == "store_true" else None)
            for flag, spec in options.items()}


def _read_argv(argv) -> Optional[argparse.Namespace]:
    """The namespace `_build_parser().parse_args(argv)` returns, read
    directly from a well-formed argv by the `_OPTIONS` and `_SUBCOMMANDS`
    table: whole option strings, each given once, with plain values (see
    `_read_value`); one command, with its target right after it when it
    takes one; and every required option.  None for any other argv, which
    argparse then reads, refuses or answers with help."""
    options = _OPTIONS
    values = _defaults(options)
    seen = set()
    i = 0
    while i < len(argv):
        word = argv[i]
        spec = options.get(word)
        if spec is None:
            if "command" in values or word not in _SUBCOMMANDS:
                return None
            values["command"] = word
            options = _SUBCOMMANDS[word][1]
            values.update(_defaults(options))
            i += 1
            targets = _targets(word)
            if targets != [None]:
                if i == len(argv) or argv[i] not in targets:
                    return None
                values["what"] = argv[i]
                i += 1
            continue
        if word in seen:
            return None
        seen.add(word)
        if spec.get("action") == "store_true":
            value = True
            i += 1
        else:
            value = _read_value(argv[i + 1], spec) if i + 1 < len(argv) else None
            if value is None:
                return None
            i += 2
        values[word[2:].replace("-", "_")] = value  # its dest, as in _defaults
    if "command" not in values or any(
            spec.get("required") and flag not in seen
            for flag, spec in options.items()):
        return None
    return argparse.Namespace(**values)


def run_command(args) -> Report:
    doc = load_document(args.fixture) if args.fixture else None
    target = getattr(args, "what", None)
    handler = COMMANDS[args.command, target]
    if doc is None and handler is not _search:
        raise CommandError("this command requires --fixture PATH")
    if getattr(args, "power_cap", 0) < 0:
        raise CommandError(f"--power-cap must be nonnegative, got {args.power_cap}")
    report = Report(args.command if target is None
                    else f"{args.command} {target}")
    handler(report, args, doc)
    return report


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv) or _build_parser().parse_args(argv)
    try:
        report = run_command(args)
    except (CommandError, OSError, ValueError) as exc:
        # DocumentError and LinAlgError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    data = report.finish()
    if args.json:
        print(render_json(data))
    else:
        print(_render_report_text(data), end="")
    return 0 if data["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
