"""`document.render_json` against `json.dumps(value, indent=2)`, as a
`hypothesis` property over nested JSON values: text with non-ASCII
characters, control characters and lone surrogates, big ints, floats with
-0.0, 1e16, NaN and the infinities, and empty lists and objects, nested in
lists, tuples and objects.

`test_document.py` runs this file in a child interpreter; run it alone
with `python -m pytest tests/json_property.py`.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.document import render_json

_text = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x7f)),
    st.text(st.characters(codec=None, categories=["Cs", "Cc", "Lo"])),
    st.sampled_from(["", "\ud800", "a\udfffb", "\x00\x1f\x7f", "\u2028",
                     "\U0001f600", '"\\/']))
_scalars = (st.none() | st.booleans() | st.integers()
            | st.integers(-10 ** 60, 10 ** 60) | st.floats()
            | st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 2.0 ** 53,
                               float("nan"), float("inf"), float("-inf")])
            | _text)
_values = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_text, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=800, deadline=None)
@given(_values)
def test_render_json_equals_indented_json_dumps(value):
    assert render_json(value) == json.dumps(value, indent=2)
