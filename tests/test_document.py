"""Workspace document parsing, strictness, and canonical rendering."""

import json
import tracemalloc

import pytest

from antiflex.document import (MAX_DIM, DocumentError, parse_document,
                               render_document)
from tests.test_scaled_laws import run_in_child


MINIMAL = """
{
  "field": "Q",
  "algebra": {"dim": 1, "basis": ["e1"], "products": {"e1,e1": {"e1": 1}}}
}
"""


def test_minimal_document():
    doc = parse_document(MINIMAL)
    alg = doc.algebra
    assert alg.dim == 1
    assert alg.basis_product(0, 0) == (1,)


def test_roundtrip_is_stable():
    doc = parse_document(MINIMAL)
    text = render_document(doc)
    again = parse_document(text)
    assert render_document(again) == text


def test_rationals_parse_and_render():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {"e,e": {"e": "-3/2"}}},
        "operators": {"T": [["5/10"]]},
    })
    doc = parse_document(text)
    assert doc.algebra.basis_product(0, 0)[0] == -1.5
    assert doc.operators["T"][0, 0] == 0.5
    rendered = json.loads(render_document(doc))
    assert rendered["operators"]["T"] == [["1/2"]]


def test_division_by_zero_names_the_path():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {"e,e": {"e": "1/0"}}},
    })
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "$.algebra.products.e,e.e" in str(err.value)


def test_unknown_keys_rejected():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {}, "extra": 1},
    })
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "extra" in str(err.value)
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {}},
        "mystery": [],
    })
    with pytest.raises(DocumentError):
        parse_document(text)


def test_duplicate_labels_rejected():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 2, "basis": ["e", "e"], "products": {}},
    })
    with pytest.raises(DocumentError):
        parse_document(text)


def test_dimension_mismatches_rejected():
    base = {"field": "Q",
            "algebra": {"dim": 2, "basis": ["a", "b"], "products": {}}}
    bad_bimodule = dict(base, bimodule={"mdim": 2, "l": [[[0, 0], [0, 0]]],
                                        "r": [[[0, 0], [0, 0]]]})
    with pytest.raises(DocumentError):
        parse_document(json.dumps(bad_bimodule))
    ragged = dict(base, operators={"T": [[0, 1], [1]]})
    with pytest.raises(DocumentError):
        parse_document(json.dumps(ragged))


def test_unknown_basis_label_in_products():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {"e,x": {"e": 1}}},
    })
    with pytest.raises(DocumentError):
        parse_document(text)


def test_deformation_requires_bimodule():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {}},
        "deformation": {"omega": {}, "phi": [[[0]]], "psi": [[[0]]]},
    })
    with pytest.raises(DocumentError):
        parse_document(text)


def test_bimodule2_requires_algebra2():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {}},
        "bimodule2": {"mdim": 1, "l": [[[0]]], "r": [[[0]]]},
    })
    with pytest.raises(DocumentError):
        parse_document(text)


def test_zero_dimensional_algebra_document():
    text = json.dumps({"field": "Q",
                       "algebra": {"dim": 0, "basis": [], "products": {}}})
    doc = parse_document(text)
    assert doc.algebra.dim == 0
    assert render_document(parse_document(render_document(doc))) \
        == render_document(doc)


def test_full_document_roundtrip(a2, m_a2, t_inv):
    from antiflex.document import WorkspaceDocument
    doc = WorkspaceDocument(a2, None, m_a2, None, {"T": t_inv}, None)
    text = render_document(doc)
    back = parse_document(text)
    assert back.algebra.mul == a2.mul
    assert back.bimodule.left == m_a2.left
    assert back.operators["T"] == t_inv
    assert render_document(back) == text


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("section, key", [("algebra", "dim"),
                                          ("algebra2", "dim"),
                                          ("bimodule", "mdim"),
                                          ("bimodule2", "mdim")])
def test_boolean_dimensions_are_rejected(section, key, flag):
    """JSON true/false are not dimensions, though Python's bool is an int:
    each one fails at its own path instead of parsing as 1 or 0."""
    algebra = {"dim": 1, "basis": ["e"], "products": {}}
    bimodule = {"mdim": 1, "l": [[[0]]], "r": [[[0]]]}
    raw = {"field": "Q", "algebra": dict(algebra), "algebra2": dict(algebra),
           "bimodule": dict(bimodule), "bimodule2": dict(bimodule)}
    parse_document(json.dumps(raw))
    raw[section][key] = flag
    if key == "dim":
        raw[section]["basis"] = ["e"] if flag else []
    with pytest.raises(DocumentError) as info:
        parse_document(json.dumps(raw))
    assert info.value.path == f"$.{section}.{key}"
    assert str(info.value) == f"$.{section}.{key}: expected a nonnegative integer"


def _mdim_zero_document(a2, deformed: bool):
    from antiflex.bimodule import zero_bimodule
    from antiflex.deformation import InfinitesimalDeformation
    from antiflex.document import WorkspaceDocument
    mod = zero_bimodule(a2, 0)
    defo = InfinitesimalDeformation.zero(a2.dim, 0)
    return WorkspaceDocument(a2, a2, mod, mod, {}, defo if deformed else None)


@pytest.mark.parametrize("deformed", [False, True])
def test_mdim_zero_document_roundtrips(a2, deformed):
    text = render_document(_mdim_zero_document(a2, deformed))
    raw = json.loads(text)
    # each 0 x 0 action (and phi, psi) is written as []
    assert raw["bimodule"] == {"mdim": 0, "l": [[], []], "r": [[], []]}
    assert raw["bimodule2"] == raw["bimodule"]
    assert ("deformation" in raw) == deformed
    back = parse_document(text)
    assert back.bimodule.left[0].rows == back.bimodule.left[0].cols == 0
    assert render_document(back) == text


@pytest.mark.parametrize("mdim", [1, 2])
def test_empty_action_refused_unless_mdim_is_zero(mdim):
    zero = [[0] * mdim for _ in range(mdim)]
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 1, "basis": ["e"], "products": {}},
        "bimodule": {"mdim": mdim, "l": [[]], "r": [zero]},
    })
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == "$.bimodule.l[0]: expected a non-empty list of rows"


def test_empty_operator_still_refused():
    text = json.dumps({
        "field": "Q",
        "algebra": {"dim": 0, "basis": [], "products": {}},
        "bimodule": {"mdim": 0, "l": [], "r": []},
        "operators": {"T": []},
    })
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert str(err.value) == "$.operators.T: expected a non-empty list of rows"


@pytest.mark.parametrize("section", ["algebra", "algebra2"])
def test_labels_with_a_comma_are_refused(section):
    """A product key joins two labels with a comma, so "a,b" could not be
    read back once it carries a product."""
    algebra = {"dim": 1, "basis": ["e"], "products": {}}
    raw = {"field": "Q", "algebra": dict(algebra), "algebra2": dict(algebra)}
    raw[section] = {"dim": 2, "basis": ["a,b", "c"], "products": {}}
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert str(err.value) == f"$.{section}.basis: basis labels may not contain ','"


@pytest.mark.parametrize("text", [
    '{"field": "Q", "algebra": {"dim": ' + "1" * 5000 + '}}',
    "[" * 100000 + "]" * 100000,
])
def test_undecodable_json_is_a_document_error(text):
    """Integer literals over Python's digit limit and nesting too deep to
    decode fail at "$" like any other invalid JSON."""
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert err.value.path == "$"
    assert str(err.value).startswith("$: invalid JSON: ")


def test_bimodule_over_a_zero_dimensional_algebra_keeps_its_mdim():
    """There is no action matrix over a 0-dimensional algebra to read the
    module size from: the mdim written is the mdim read, and the document
    renders back byte for byte."""
    raw = {"field": "Q",
           "algebra": {"dim": 0, "basis": [], "products": {}},
           "bimodule": {"mdim": 3, "l": [], "r": []}}
    text = json.dumps(raw, indent=2) + "\n"
    doc = parse_document(text)
    assert doc.bimodule.mdim == 3
    assert render_document(doc) == text


def _algebra(dim):
    return {"dim": dim, "basis": [f"e{i}" for i in range(dim)],
            "products": {}}


def test_algebra_at_the_dim_bound_parses():
    doc = parse_document(json.dumps({"field": "Q",
                                     "algebra": _algebra(MAX_DIM)}))
    assert doc.algebra.dim == MAX_DIM


def test_empty_products_at_the_dim_bound_allocate_no_product_table():
    """An algebra stores only its nonzero products: a dim-64 document with
    none and a one-dimensional zero bimodule parses with a peak allocation
    under 1 MiB.  A dense table of all 64^3 product slots took 16 MiB."""
    zeros = [[[0]]] * MAX_DIM
    text = json.dumps({"field": "Q", "algebra": _algebra(MAX_DIM),
                       "bimodule": {"mdim": 1, "l": zeros, "r": zeros}})
    tracemalloc.start()
    try:
        doc = parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert doc.algebra.dim == MAX_DIM and doc.bimodule.mdim == 1
    assert doc.algebra.mul.is_zero()
    assert peak < 2 ** 20, peak


@pytest.mark.parametrize("section", ["algebra", "algebra2"])
def test_algebra_over_the_dim_bound_is_refused(section):
    """A dim whose dim ** 3 basis triples the checks would sweep is refused
    before any product is read."""
    dim = MAX_DIM + 1
    raw = {"field": "Q", "algebra": _algebra(1), "algebra2": _algebra(1)}
    raw[section] = _algebra(dim)
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(raw))
    assert str(err.value) == (
        f"$.{section}.dim: dim {dim} asks for {dim ** 3} product slots; "
        f"the bound is dim <= {MAX_DIM} ({MAX_DIM ** 3} slots)")


def test_property_documents_roundtrip_and_mutants_fail_cleanly():
    """The `hypothesis` property of `document_property.py`, run in a child
    interpreter (see `test_scaled_laws.run_in_child`)."""
    run_in_child("document_property.py")
