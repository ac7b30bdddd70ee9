"""Workspace documents as a `hypothesis` property over generated JSON:

(a) documents with dim 0-3 algebras, optional second algebra, bimodules,
    operators and deformation, their labels drawn from an alphabet with a
    comma, either fail at the offending basis path or re-render stably:
    render(parse(render(doc))) == render(doc);
(b) one mutation of a valid document (a value replaced by random JSON, a
    key dropped or added, or a rational replaced by "1e50", "1.5" or a
    5,000-digit integer) makes `parse_document` raise `DocumentError` or
    nothing else; the rational mutations must raise it.

`test_document.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/document_property.py`.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.document import DocumentError, parse_document, render_document

_HUGE = "7" * 5000  # over Python's 4,300-digit int conversion limit
_BAD_RATIONALS = ("1e50", "1.5", _HUGE)

_rationals = st.one_of(
    st.integers(-3, 3),
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 4)))

_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5)
    | st.floats(-2, 2, allow_nan=False) | st.text("ab,1/e", max_size=3),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text("ab,", max_size=3), inner,
                                     max_size=3)),
    max_leaves=6)


def _matrix(rows, cols):
    return st.lists(st.lists(_rationals, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def _matrices(count, size):
    return st.lists(_matrix(size, size), min_size=count, max_size=count)


def _bilinear(basis):
    """Sparse {"x,y": {"z": q}} tables over the labels."""
    if not basis:
        return st.just({})
    labels = st.sampled_from(basis)
    return st.dictionaries(st.tuples(labels, labels).map(",".join),
                           st.dictionaries(labels, _rationals, max_size=2),
                           max_size=4)


@st.composite
def _documents(draw, alphabet):
    def algebra():
        dim = draw(st.integers(0, 3))
        basis = draw(st.lists(st.text(alphabet, min_size=1, max_size=3),
                              min_size=dim, max_size=dim, unique=True))
        return {"dim": dim, "basis": basis, "products": draw(_bilinear(basis))}

    def bimodule(alg):
        # over a 0-dim algebra there is no matrix, and mdim is read as written
        mdim = draw(st.integers(0, 2))
        return {"mdim": mdim, "l": draw(_matrices(alg["dim"], mdim)),
                "r": draw(_matrices(alg["dim"], mdim))}

    raw = {"field": "Q", "algebra": algebra()}
    if draw(st.booleans()):
        raw["algebra2"] = algebra()
        if draw(st.booleans()):
            raw["bimodule2"] = bimodule(raw["algebra2"])
    if draw(st.booleans()):
        raw["operators"] = draw(st.dictionaries(
            st.sampled_from("NST"),
            st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
                lambda shape: _matrix(*shape)), max_size=3))
    if draw(st.booleans()):
        alg = raw["algebra"]
        raw["bimodule"] = mod = bimodule(alg)
        if draw(st.booleans()):
            raw["deformation"] = {
                "omega": draw(_bilinear(alg["basis"])),
                "phi": draw(_matrices(alg["dim"], mod["mdim"])),
                "psi": draw(_matrices(alg["dim"], mod["mdim"]))}
    return raw


def _nodes(value, path="$"):
    """(path, container, key) for every value below `value`, each path
    written as the parser names it."""
    if isinstance(value, dict):
        items = [(f"{path}.{key}", key, child) for key, child in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", i, child) for i, child in enumerate(value)]
    else:
        return
    for child_path, key, child in items:
        yield child_path, value, key
        yield from _nodes(child, child_path)


def _is_rational(path, value):
    return (not isinstance(value, (dict, list)) and path != "$.field"
            and not path.endswith((".dim", ".mdim"))
            and ".basis[" not in path)


def _check_roundtrip(raw):
    text = json.dumps(raw)
    comma = [f"$.{key}.basis" for key in ("algebra", "algebra2")
             if key in raw and any("," in b for b in raw[key]["basis"])]
    if comma:
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.path == comma[0]
        return
    once = render_document(parse_document(text))
    assert render_document(parse_document(once)) == once
    for key in ("bimodule", "bimodule2"):
        if key in raw:
            assert json.loads(once)[key]["mdim"] == raw[key]["mdim"]


def _check_mutant(raw, data):
    nodes = list(_nodes(raw))
    rationals = [n for n in nodes if _is_rational(n[0], n[1][n[2]])]
    kinds = ["replace", "drop", "add"] + (["rational"] if rationals else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "rational":
        path, container, key = data.draw(st.sampled_from(rationals))
        bad = data.draw(st.sampled_from(_BAD_RATIONALS))
        container[key] = "@HUGE@" if bad == _HUGE else bad
        text = json.dumps(raw).replace('"@HUGE@"', _HUGE)
        with pytest.raises(DocumentError) as err:
            parse_document(text)
        assert err.value.path == ("$" if bad == _HUGE else path)
        return
    if kind == "replace":
        _, container, key = data.draw(st.sampled_from(nodes))
        container[key] = data.draw(_json)
    else:
        dicts = [raw] + [c[k] for _, c, k in nodes if isinstance(c[k], dict)]
        target = data.draw(st.sampled_from(dicts))
        if kind == "add":
            target[data.draw(st.text("abdfx,", min_size=1, max_size=4))] = \
                data.draw(_json)
        elif target:
            del target[data.draw(st.sampled_from(sorted(target)))]
    try:
        parse_document(json.dumps(raw))
    except DocumentError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_documents("ab,"), _documents("ab"), st.data())
def test_documents_roundtrip_and_mutants_fail_cleanly(doc, valid, data):
    _check_roundtrip(doc)
    parse_document(json.dumps(valid))
    _check_mutant(valid, data)
