"""`linalg.MultiMap` and `glie.Cochain` against the dense map of
`dense_multimap.py`, as a `hypothesis` property over arities 0-3, input and
output dimensions 0-3, mixed denominators and zero maps: the slots, values,
evaluation, permuted inputs, linear structure, equality and hashing, the
matrix round trip, and the embedding into and restriction from a two-block
sum space.

`test_linalg.py` runs this file in a child interpreter; run it alone with
`python -m pytest tests/multimap_property.py`.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from antiflex.glie import Cochain, embed_blocks, restrict_blocks
from antiflex.linalg import MultiMap
from tests import dense_bracket as dense
from tests.dense_multimap import DenseMap
from tests.test_scaled_laws import VALUES

# a third zeros, the rest with denominators 1, 2, 3 and 6
_entries = st.sampled_from(VALUES)


def _data(draw, size):
    if draw(st.integers(0, 4)) == 0:
        return [0] * size
    return draw(st.lists(_entries, min_size=size, max_size=size))


@st.composite
def _shapes(draw):
    arity, in_dim, out_dim = (draw(st.integers(0, 3)) for _ in range(3))
    size = in_dim ** arity * out_dim
    return arity, in_dim, out_dim, _data(draw, size), _data(draw, size)


def _embedded(ref, in_offset, out_offset, total):
    """The dense embedding of ref into maps on range(total)."""
    lo, hi = in_offset, in_offset + ref.in_dim

    def fn(idx):
        out = [0] * total
        if all(lo <= i < hi for i in idx):
            out[out_offset:out_offset + ref.out_dim] = ref.value(
                tuple(i - lo for i in idx))
        return out

    return DenseMap.from_function(ref.arity, total, fn)


def _check_lowest_terms(m):
    assert m.den > 0 and all(type(x) is int and x for x in m.entries.values())
    assert math.gcd(m.den, *m.entries.values()) == 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_shapes(), st.data())
def test_multimaps_equal_the_dense_map(shape, data):
    arity, in_dim, out_dim, values, other = shape
    ref, ref2 = (DenseMap(arity, in_dim, out_dim, v) for v in (values, other))
    maps = [(Cochain(arity, in_dim, out_dim, values),
             Cochain(arity, in_dim, out_dim, other))]
    if in_dim == out_dim:
        maps.append((MultiMap(arity, in_dim, values),
                     MultiMap(arity, in_dim, other)))
        (c, _), (m, _) = maps
        # a square cochain is the map with the same slots, hash included
        assert c == m and m == c and hash(c) == hash(m)
        assert MultiMap.from_function(arity, in_dim, ref.value) == m
    cells = list(itertools.product(range(in_dim), repeat=arity))
    args = [tuple(data.draw(_entries) for _ in range(in_dim))
            for _ in range(arity)]
    perm = data.draw(st.permutations(range(arity)))
    k = Fraction(data.draw(_entries))
    for f, g in maps:
        _check_lowest_terms(f)
        assert f.data == ref.data and all(type(x) is Fraction for x in f.data)
        assert f == ref and ref == f
        assert f.is_zero() == ref.is_zero() == (f.entries == {})
        assert f.den == 1 or not f.is_zero()
        for idx in cells:
            assert f.value(idx) == ref.value(idx)
        assert f.evaluate(*args) == ref.evaluate(*args)
        for got, want in ((f.permute_inputs(perm), ref.permute_inputs(perm)),
                          (f + g, ref + ref2), (f - g, ref - ref2),
                          (-f, -ref), (f.scale(k), ref.scale(k))):
            assert type(got) is type(f)
            _check_lowest_terms(got)
            assert got.data == want.data
        assert (f == g) == (ref.data == ref2.data) == (g == f)
        if f == g:
            assert hash(f) == hash(g)
        keys = itertools.product(*[range(in_dim)] * arity, range(out_dim))
        rebuilt = type(f)._of_values(arity, in_dim, out_dim, zip(keys, values))
        assert rebuilt == f and hash(rebuilt) == hash(f)
        if arity == 1:
            mat = ref.as_matrix()
            assert f.as_matrix() == mat
            assert type(f).from_matrix(mat) == f
    # the cochain into both layouts of a two-block sum space and back
    cochain = maps[0][0]
    total = in_dim + out_dim
    for in_offset, out_offset in ((out_dim, 0), (0, in_dim)):
        emb = embed_blocks(cochain, in_offset, out_offset, total)
        assert emb.data == _embedded(ref, in_offset, out_offset, total).data
        back, report = restrict_blocks(emb, in_offset, in_dim, out_offset,
                                       out_dim)
        assert report.ok and back == cochain and type(back) is Cochain
    # a map on the sum space with components outside the blocks
    stray = MultiMap(arity, total, _data(data.draw, total ** (arity + 1)))
    got = restrict_blocks(stray, 0, in_dim, in_dim, out_dim)
    want = dense.restrict_blocks(
        DenseMap(arity, total, total, stray.data), 0, in_dim, in_dim, out_dim)
    assert got[0] == want[0]
    assert repr(got[1].violations) == repr(want[1].violations)
