"""Workspace documents: the JSON format the CLI ingests and emits.

A document carries one algebra (and optionally a second), optional bimodule
action data, named operator matrices, and an optional deformation generator;
it parses into the package's own `Algebra`, `Bimodule` (its axioms unchecked)
and `InfinitesimalDeformation`.  Rationals are bare integers or "p/q"
strings.  Parsing is strict: unknown keys, inconsistent dimensions, duplicate
or comma-bearing labels and malformed rationals are all errors naming the
offending path.  Rendering is canonical, so documents written by render
round-trip byte-identically; it refuses an operator with no rows, which
it would write as the [] that parsing refuses.

`load_document` reads the file on every call but parses its text only when
the text differs from that of the previous load: the parsed document of the
last text read is kept (one `functools.lru_cache` entry keyed by the whole
text, so an edited file is parsed again).  A refused text raises
`DocumentError` on every read, since the cache keeps no exception.  One
entry suffices for the traffic it serves, several commands in a row on one
document, and keeps at most one parsed document alive.  Sharing is safe
because a `WorkspaceDocument` is frozen, its `operators` is a read-only
mapping, and every value it holds is immutable (see `linalg`).
`parse_document` stays the uncached strict parser and returns a new
document on every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .algebra import Algebra
from .bimodule import Bimodule
from .deformation import InfinitesimalDeformation
from .linalg import (LinAlgError, Matrix, MultiMap, parse_rational,
                     render_rational)

__all__ = [
    "MAX_DIM",
    "DocumentError",
    "WorkspaceDocument",
    "parse_document",
    "render_document",
    "load_document",
]


# A document stores only the nonzero products of an algebra, but checks
# such as `classify` still visit all dim ** 3 basis triples, so a short
# document could ask for a huge sweep.  At the bound an empty-products
# document with a one-dimensional zero bimodule parses in about 1 ms, and
# `classify` takes 0.14 s on the zero algebra and 0.24 s on a direct sum
# of 32 dim-2 anti-flexible algebras, with a traced peak of about 2 KiB
# (`tests/classify_dims.py`, 2-core x86, Python 3.11.7): its time grows as
# dim ** 3 and its memory does not.
MAX_DIM = 64


class DocumentError(ValueError):
    """Malformed workspace document; the message names the offending path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _require_keys(obj: dict, path: str, required: Sequence[str],
                  optional: Sequence[str] = ()):
    if not isinstance(obj, dict):
        raise DocumentError(path, f"expected an object, got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise DocumentError(path, f"missing required key {key!r}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise DocumentError(f"{path}.{key}", "unknown key")


def _parse_rat(value, path: str):
    """A JSON int as it is; anything else (a "p/q" string, or a refusal
    worded by `parse_rational`) through `parse_rational`."""
    if type(value) is int:
        return value
    try:
        return parse_rational(value)
    except LinAlgError as exc:
        raise DocumentError(path, str(exc)) from None


def _parse_matrix(value, path: str, rows: Optional[int] = None,
                  cols: Optional[int] = None) -> Matrix:
    """The matrix of a list of rows, each entry read by `_parse_rat` and
    the whole handed to `Matrix._of_values`; [] is the 0 x cols matrix of
    a frame that expects no rows."""
    if value == [] and rows == 0:  # a 0 x cols matrix renders as []
        return Matrix._of_values(1, cols, 0, ())
    if not isinstance(value, list) or not value or not all(
            isinstance(r, list) for r in value):
        raise DocumentError(path, "expected a non-empty list of rows")
    ncols = len(value[0])
    items = []
    for i, row in enumerate(value):
        if len(row) != ncols:
            raise DocumentError(f"{path}[{i}]", "ragged row")
        items += [((j, i), _parse_rat(entry, f"{path}[{i}][{j}]"))
                  for j, entry in enumerate(row)]
    m = Matrix._of_values(1, ncols, len(value), items)
    if rows is not None and m.rows != rows:
        raise DocumentError(path, f"expected {rows} rows, got {m.rows}")
    if cols is not None and m.cols != cols:
        raise DocumentError(path, f"expected {cols} columns, got {m.cols}")
    return m


@dataclass(frozen=True)
class WorkspaceDocument:
    """A parsed document.  The field is always Q, so it is not stored.
    Frozen, with `operators` a read-only copy of the mapping given, so
    that `load_document` can hand the same document to every caller."""

    algebra: Algebra
    algebra2: Optional[Algebra]
    bimodule: Optional[Bimodule]  # actions unchecked, as written
    bimodule2: Optional[Bimodule]
    operators: Mapping[str, Matrix]
    deformation: Optional[InfinitesimalDeformation]

    def __post_init__(self):
        object.__setattr__(self, "operators",
                           MappingProxyType(dict(self.operators)))


def _parse_sparse_bilinear(obj, path: str, basis: Sequence[str]) -> MultiMap:
    """{"ei,ej": {"ek": coeff}} -> arity-2 map; absent entries are zero."""
    dim = len(basis)
    index = {label: i for i, label in enumerate(basis)}
    values = {}
    if not isinstance(obj, dict):
        raise DocumentError(path, "expected an object of sparse products")
    for pair_key in sorted(obj):
        parts = pair_key.split(",")
        if len(parts) != 2 or parts[0] not in index or parts[1] not in index:
            raise DocumentError(f"{path}.{pair_key}",
                                "key must be two basis labels joined by a comma")
        i, j = index[parts[0]], index[parts[1]]
        img = obj[pair_key]
        if not isinstance(img, dict):
            raise DocumentError(f"{path}.{pair_key}", "expected an object")
        for out_label in sorted(img):
            if out_label not in index:
                raise DocumentError(f"{path}.{pair_key}.{out_label}",
                                    "unknown basis label")
            values[(i, j, index[out_label])] = _parse_rat(
                img[out_label], f"{path}.{pair_key}.{out_label}")
    return MultiMap._of_values(2, dim, dim, values.items())


def _render_sparse_bilinear(mul: MultiMap, basis: Sequence[str]) -> dict:
    """The nonzero products of an arity-2 map in basis order."""
    out = {}
    for (i, j, k), x in sorted(mul.entries.items()):
        out.setdefault(f"{basis[i]},{basis[j]}", {})[basis[k]] = \
            render_rational(Fraction(x, mul.den))
    return out


def _parse_algebra(obj, path: str) -> Algebra:
    _require_keys(obj, path, ["dim", "basis", "products"])
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError(f"{path}.dim", "expected a nonnegative integer")
    if dim > MAX_DIM:
        raise DocumentError(f"{path}.dim",
                            f"dim {dim} asks for {dim ** 3} product slots; "
                            f"the bound is dim <= {MAX_DIM} ({MAX_DIM ** 3} slots)")
    basis = obj["basis"]
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise DocumentError(f"{path}.basis", f"expected {dim} string labels")
    if len(set(basis)) != dim:
        raise DocumentError(f"{path}.basis", "duplicate basis label")
    if any("," in b for b in basis):
        # a product key joins two labels with a comma
        raise DocumentError(f"{path}.basis", "basis labels may not contain ','")
    mul = _parse_sparse_bilinear(obj["products"], f"{path}.products", basis)
    return Algebra(mul, basis)


def _parse_bimodule(obj, path: str, base: Algebra) -> Bimodule:
    _require_keys(obj, path, ["mdim", "l", "r"])
    mdim = obj["mdim"]
    if not isinstance(mdim, int) or isinstance(mdim, bool) or mdim < 0:
        raise DocumentError(f"{path}.mdim", "expected a nonnegative integer")
    left, right = _parse_square_lists(obj, path, ("l", "r"), base.dim, mdim,
                                      " (one per basis element)")
    return Bimodule(base, left, right, check=False, mdim=mdim)


def _parse_square_lists(obj: dict, path: str, keys: Sequence[str], dim: int,
                        size: int, note: str) -> list:
    """For each key, obj[key] as a tuple of dim size x size matrices."""
    out = []
    for key in keys:
        mats = obj[key]
        if not isinstance(mats, list) or len(mats) != dim:
            raise DocumentError(f"{path}.{key}", f"expected {dim} matrices{note}")
        out.append(tuple(_parse_matrix(m, f"{path}.{key}[{i}]", size, size)
                         for i, m in enumerate(mats)))
    return out


def _parse_deformation(obj, path: str, mod: Bimodule) -> InfinitesimalDeformation:
    _require_keys(obj, path, ["omega", "phi", "psi"])
    omega = _parse_sparse_bilinear(obj["omega"], f"{path}.omega", mod.base.labels)
    phi, psi = _parse_square_lists(obj, path, ("phi", "psi"), mod.base.dim,
                                   mod.mdim, "")
    return InfinitesimalDeformation(omega, phi, psi, mod.mdim)


def parse_document(text: str) -> WorkspaceDocument:
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an integer literal over
        # Python's digit limit; RecursionError is nesting too deep to decode
        raise DocumentError("$", f"invalid JSON: {exc}") from None
    _require_keys(raw, "$", ["field", "algebra"],
                  ["algebra2", "bimodule", "bimodule2", "operators", "deformation"])
    if raw["field"] != "Q":
        raise DocumentError("$.field", "only the rational field 'Q' is supported")
    algebra = _parse_algebra(raw["algebra"], "$.algebra")
    algebra2 = (_parse_algebra(raw["algebra2"], "$.algebra2")
                if "algebra2" in raw else None)
    bimodule = (_parse_bimodule(raw["bimodule"], "$.bimodule", algebra)
                if "bimodule" in raw else None)
    if "bimodule2" in raw:
        if algebra2 is None:
            raise DocumentError("$.bimodule2", "bimodule2 requires algebra2")
        bimodule2 = _parse_bimodule(raw["bimodule2"], "$.bimodule2", algebra2)
    else:
        bimodule2 = None
    operators = {}
    if "operators" in raw:
        if not isinstance(raw["operators"], dict):
            raise DocumentError("$.operators", "expected an object")
        for name in sorted(raw["operators"]):
            operators[name] = _parse_matrix(raw["operators"][name],
                                            f"$.operators.{name}")
    deformation = None
    if "deformation" in raw:
        if bimodule is None:
            raise DocumentError("$.deformation", "deformation requires a bimodule")
        deformation = _parse_deformation(raw["deformation"], "$.deformation",
                                         bimodule)
    return WorkspaceDocument(algebra, algebra2, bimodule, bimodule2,
                             operators, deformation)


def _render_matrix(m: Matrix) -> list:
    return [[render_rational(x) for x in m.row(i)] for i in range(m.rows)]


def _render_algebra(alg: Algebra) -> dict:
    return {
        "dim": alg.dim,
        "basis": list(alg.labels),
        "products": _render_sparse_bilinear(alg.mul, alg.labels),
    }


def _document_object(doc: WorkspaceDocument) -> dict:
    """The JSON object `render_document` writes."""
    out = {"field": "Q", "algebra": _render_algebra(doc.algebra)}
    if doc.algebra2 is not None:
        out["algebra2"] = _render_algebra(doc.algebra2)
    for key in ("bimodule", "bimodule2"):
        mod = getattr(doc, key)
        if mod is not None:
            out[key] = {"mdim": mod.mdim,
                        "l": [_render_matrix(m) for m in mod.left],
                        "r": [_render_matrix(m) for m in mod.right]}
    if doc.operators:
        out["operators"] = {name: _render_matrix(m)
                            for name, m in sorted(doc.operators.items())}
    if doc.deformation is not None:
        out["deformation"] = {
            "omega": _render_sparse_bilinear(doc.deformation.omega,
                                             doc.algebra.labels),
            "phi": [_render_matrix(m) for m in doc.deformation.phi],
            "psi": [_render_matrix(m) for m in doc.deformation.psi],
        }
    return out


def render_document(doc: WorkspaceDocument) -> str:
    """The canonical text of doc, which `parse_document` reads back; an
    operator with no rows would be written as [], which parsing refuses,
    so it is refused here."""
    for name, m in sorted(doc.operators.items()):
        if not m.rows:
            raise DocumentError(f"$.operators.{name}",
                                f"a 0x{m.cols} operator has no rows to write")
    return json.dumps(_document_object(doc), indent=2, sort_keys=False) + "\n"


@functools.lru_cache(maxsize=1)
def _parsed(text: str) -> WorkspaceDocument:
    # `parse_document` is looked up at call time, so a wrapper put on the
    # module's name sees every parse
    return parse_document(text)


def load_document(path: str) -> WorkspaceDocument:
    """The document in the file at `path`, parsed once per distinct text
    read in a row (see the module docstring)."""
    with open(path, "r", encoding="utf-8") as handle:
        return _parsed(handle.read())
