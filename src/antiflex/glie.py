"""The graded Lie bracket on multilinear maps whose degree-1 Maurer-Cartan
elements are anti-flexible structures, and the derived bracket on cochains
whose Maurer-Cartan elements are Rota-Baxter operators.

Composition convention.  For f of degree m (arity m+1) and g of degree n,
the base operation is the insertion sum

    (f o g)(x_1, ..., x_{m+n+1}) = sum_i (-1)^{(i-1)n} f(..., g(x_i, ...), ...)

and the bracket composition f ob g adds the signed pullback of f o g along
the full reversal of its arguments whenever both degrees are >= 1:

    f ob g = (f o g) + sign(rev) * (f o g) o rev.

With a degree-0 partner (a linear map) the composition stays plain, and a
constant (arity-0) partner inserts with alternating signs starting negative.
At bidegree (1,1) this reproduces the four-term pattern

    f(g(x1,x2),x3) - f(x1,g(x2,x3)) - f(g(x3,x2),x1) + f(x3,g(x2,x1)),

so [mu, mu] = 0 says exactly that the associator of mu is symmetric in its
outer arguments.  Reversal acts by an automorphism of the insertion algebra,
which is what the derived-bracket computations downstream rely on.

Representation.  Every bracket works on the entries of `linalg.MultiMap`s,
the one form of a multilinear map: the nonzero (i_1, ..., i_p, k) -> int
over one denominator, in lowest terms.  The insertion sum loops over the
nonzeros of f and, for each slot, over the entries of g whose output index
is that slot's input, so a composition costs O(nnz(f) nnz(g) arity) int
products whatever the dimension of the space; reversal, sums, `scale` and
`is_zero` act on the entries.  Structure elements are read from the
integer views of `Algebra` and `Bimodule`, and cochains are embedded into
and restricted from the sum space by moving their entries.  A dim-64
algebra with zero product and a one-dimensional module is checked without
touching its 65^4 slots.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .algebra import Algebra
from .bimodule import Bimodule
from .linalg import LinAlgError, Matrix, MultiMap, Vector
from .reports import CheckReport

__all__ = [
    "DEFAULT_ARITY_CAP",
    "HARD_ARITY_CAP",
    "DegreeCapError",
    "ClosureError",
    "compose_bar",
    "graded_bracket",
    "reversal",
    "structure_element",
    "mc_check_algebra_bimodule",
    "Cochain",
    "CochainSpace",
    "embed_blocks",
    "restrict_blocks",
    "derived_bracket",
    "rb_mc_equivalence",
    "rb_differential",
    "twisted_mc_check",
]

DEFAULT_ARITY_CAP = 5
HARD_ARITY_CAP = 7


class DegreeCapError(ValueError):
    """Requested bracket would exceed the configured arity cap."""


class ClosureError(ValueError):
    """A derived bracket produced components outside the cochain subspace."""


def _check_cap(arity: int, cap: Optional[int]) -> None:
    cap = DEFAULT_ARITY_CAP if cap is None else cap
    if cap > HARD_ARITY_CAP:
        raise DegreeCapError(f"cap {cap} exceeds hard ceiling {HARD_ARITY_CAP}")
    if arity > cap:
        raise DegreeCapError(f"result arity {arity} exceeds cap {cap}")


def _insertion_sum(f: MultiMap, g: MultiMap, signs: Sequence[int]) -> MultiMap:
    """The sum over the (0-based) slots of f of signs[slot] (+1, -1, or 0
    to skip the slot) times g grafted into that slot; arity
    f.arity + g.arity - 1.  An entry f[pre, t, post, k] meets every entry
    g[idx, t] whose output is t and adds their product at (pre, idx, post,
    k), so the cost is O(nnz(f) nnz(g) arity)."""
    by_out = {}
    for key, y in g.entries.items():
        by_out.setdefault(key[-1], []).append((key[:-1], y))
    acc = {}
    get = acc.get
    for key, x in f.entries.items():
        for slot, sign in enumerate(signs):
            hits = by_out.get(key[slot]) if sign else None
            if hits is None:
                continue
            pre, post, c = key[:slot], key[slot + 1:], sign * x
            for idx, y in hits:
                out = pre + idx + post
                acc[out] = get(out, 0) + c * y
    d = f.dim
    return MultiMap._of_ints(f.arity + g.arity - 1, d, d, acc, f.den * g.den)


def reversal(f: MultiMap) -> MultiMap:
    """Signed pullback along the full reversal of the arguments."""
    p = f.arity
    if p <= 1:
        return f
    sign = -1 if (p * (p - 1) // 2) % 2 else 1
    return f._like({key[p - 1::-1] + key[p:]: sign * x
                    for key, x in f.entries.items()}, f.den)


def compose_bar(f: MultiMap, g: MultiMap,
                cap: Optional[int] = None) -> MultiMap:
    """The bracket composition (see module docstring for the convention)."""
    if f.dim != g.dim:
        raise LinAlgError("maps live on different spaces")
    out_arity = f.arity + g.arity - 1
    if out_arity < 0:
        raise LinAlgError("cannot compose two constants")
    _check_cap(max(out_arity, f.arity, g.arity), cap)
    if f.arity == 0:
        return MultiMap.zero(out_arity, f.dim)
    if g.arity == 0:
        return _insertion_sum(f, g, [-1 if slot % 2 == 0 else 1
                                     for slot in range(f.arity)])
    n = g.arity - 1
    plain = _insertion_sum(f, g, [-1 if (slot * n) % 2 else 1
                                  for slot in range(f.arity)])
    if f.arity == 1 or g.arity == 1:
        return plain
    return plain + reversal(plain)


def graded_bracket(f: MultiMap, g: MultiMap,
                   cap: Optional[int] = None) -> MultiMap:
    """[f, g] = f ob g - (-1)^{mn} g ob f with m, n the degrees (arity - 1)."""
    m, n = f.arity - 1, g.arity - 1
    left = compose_bar(f, g, cap)
    right = compose_bar(g, f, cap)
    if (m * n) % 2:
        return left + right
    return left - right


# ---------------------------------------------------------------------------
# two-block spaces and the degree-1 structure element
# ---------------------------------------------------------------------------

def _product_entries(prod: list, d: int) -> dict:
    """{(i, j, k): x} from the sparse products of an integer view, e_i.e_j
    at pair index i*d + j."""
    return {(p // d, p % d, k): x for p, img in enumerate(prod) for k, x in img}


def _structure_element(mod: Bimodule) -> MultiMap:
    """mu + l + r on A + M (algebra block first), read from the integer
    view of mod."""
    prod, left, right, den = mod.int_view()
    d = mod.base.dim
    entries = _product_entries(prod, d)
    for i in range(d):
        # (e_i, m_j) -> l(e_i) m_j and (m_j, e_i) -> r(e_i) m_j
        for j, col in enumerate(left[i]):
            for k, x in col:
                entries[(i, d + j, d + k)] = x
        for j, col in enumerate(right[i]):
            for k, x in col:
                entries[(d + j, i, d + k)] = x
    total = d + mod.mdim
    return MultiMap._of_ints(2, total, total, entries, den)


def structure_element(product: MultiMap, left: Sequence[Matrix],
                      right: Sequence[Matrix], mdim: int) -> MultiMap:
    """The degree-1 element mu + l + r on the sum space (algebra block first).

    product is the arity-2 tensor of the algebra (dim d); left/right give one
    mdim x mdim matrix per algebra basis element.  The result is the bilinear
    map sending (a1, m1), (a2, m2) to (a1.a2, l(a1)m2 + r(a2)m1).
    """
    return _structure_element(Bimodule(Algebra(product), left, right,
                                       check=False, mdim=mdim))


def mc_check_algebra_bimodule(alg: Algebra, left: Sequence[Matrix],
                              right: Sequence[Matrix]) -> bool:
    """Whether mu + l + r squares to zero under the bracket composition.

    Agrees with (anti-flexible AND bimodule axioms); both directions are
    exercised by the test suite.
    """
    return _is_maurer_cartan(Bimodule(alg, left, right, check=False))


def _is_maurer_cartan(mod: Bimodule) -> bool:
    """`mc_check_algebra_bimodule` on the actions of mod over its base,
    with pi formed from mod's own integer view and module dimension."""
    pi = _structure_element(mod)
    return compose_bar(pi, pi, cap=HARD_ARITY_CAP).is_zero()


# ---------------------------------------------------------------------------
# cochains Hom(M^(x)n, A) and the derived bracket
# ---------------------------------------------------------------------------

class Cochain(MultiMap):
    """An element of Hom(M^(x)n, A): a MultiMap of arity n = degree from
    the module (in_dim = mdim) to the algebra (out_dim = adim), non-square
    in general, with coefficients indexed by (j_1, ..., j_n, k).  Only the
    constructor and the cochain names are its own."""

    __slots__ = ()

    def __init__(self, degree: int, mdim: int, adim: int, data: Sequence):
        self._setup(degree, mdim, adim, data)

    degree = property(lambda self: self.arity)
    mdim = property(lambda self: self.in_dim)
    adim = property(lambda self: self.out_dim)

    @staticmethod
    def zero(degree: int, mdim: int, adim: int) -> "Cochain":
        return Cochain._of_ints(degree, mdim, adim, {})

    @staticmethod
    def from_constant(v: Vector, mdim: int) -> "Cochain":
        return Cochain(0, mdim, len(v), v)


def embed_blocks(c: Cochain, in_offset: int, out_offset: int,
                 total: int) -> MultiMap:
    """Embed a cochain into multilinear maps on a two-block sum space:
    nonzero only when every input index lies in the input block (at
    in_offset, width c.mdim), with values placed in the output block."""
    if in_offset + c.mdim > total or out_offset + c.adim > total:
        raise LinAlgError("blocks do not fit in the sum space")
    n = c.degree
    return MultiMap._of_ints(n, total, total, {
        tuple(i + in_offset for i in key[:n]) + (key[n] + out_offset,): x
        for key, x in c.entries.items()}, c.den)


def restrict_blocks(mm: MultiMap, in_offset: int, in_dim: int,
                    out_offset: int, out_dim: int) -> Tuple[Cochain, CheckReport]:
    """Inverse of embed_blocks; the report flags components outside the
    embedded cochain subspace (closure violations): first an input tuple
    of the block with a value outside the output block, else an input
    tuple outside the block with a nonzero value, each the least such
    tuple."""
    report = CheckReport("cochain_restriction")
    n = mm.arity
    lo, hi = in_offset, in_offset + in_dim
    entries = {}
    stray_out, stray_in = [], []
    for key, x in mm.entries.items():
        idx, k = key[:-1], key[-1] - out_offset
        if not all(lo <= i < hi for i in idx):
            stray_in.append(idx)
        elif not 0 <= k < out_dim:
            stray_out.append(idx)
        else:
            entries[tuple(i - lo for i in idx) + (k,)] = x
    if stray_out:
        idx = min(stray_out)
        val = mm.value(idx)
        report.fail("component outside the output block",
                    tuple(i - lo for i in idx),
                    val[:out_offset] + val[out_offset + out_dim:])
    elif stray_in:
        idx = min(stray_in)
        report.fail("nonzero value outside the input block", idx, mm.value(idx))
    return Cochain._of_ints(n, in_dim, out_dim, entries, mm.den), report


class CochainSpace:
    """Bundles an algebra/bimodule pair with the embedding of Hom(M^(x)n, A)
    into multilinear maps on the sum space (algebra indices first)."""

    def __init__(self, alg: Algebra, mod: Bimodule):
        if mod.base != alg:
            raise LinAlgError("bimodule is over a different algebra")
        self.alg = alg
        self.mod = mod
        self.adim = alg.dim
        self.mdim = mod.mdim
        self.total = self.adim + self.mdim
        self.pi = _structure_element(mod)

    def embed(self, c: Cochain) -> MultiMap:
        if c.mdim != self.mdim or c.adim != self.adim:
            raise LinAlgError("cochain does not match this space")
        return embed_blocks(c, self.adim, 0, self.total)

    def restrict(self, mm: MultiMap) -> Tuple[Cochain, CheckReport]:
        return restrict_blocks(mm, self.adim, self.mdim, 0, self.adim)

    def operator_cochain(self, op: Matrix) -> Cochain:
        if op.rows != self.adim or op.cols != self.mdim:
            raise LinAlgError(
                f"operator must be {self.adim}x{self.mdim}, got {op.rows}x{op.cols}")
        return Cochain.from_matrix(op)


def derived_bracket(space: CochainSpace, p: Cochain, q: Cochain,
                    cap: Optional[int] = None) -> Cochain:
    """[[P, Q]] on Hom(M^(x)*, A), computed through the ambient bracket.

    Two-step definition: bracket mu+l+r with P, then with Q, with overall
    sign (-1)^{m+1} for P of degree m.  The sign is pinned by the degree-1
    self-bracket [[T,T]](u, v) = 2(Tu.Tv - T(l(Tu)v) - T(r(Tv)u)).  Raises
    ClosureError if the result does not lie in the cochain subspace.
    """
    m = p.degree
    _check_cap(max(m + 1, m + q.degree), cap)
    inner = graded_bracket(space.pi, space.embed(p), cap)
    outer = graded_bracket(inner, space.embed(q), cap)
    if m % 2 == 0:
        outer = -outer
    cochain, report = space.restrict(outer)
    if not report.ok:
        raise ClosureError(report.describe())
    return cochain


def rb_mc_equivalence(space: CochainSpace, op: Matrix) -> Tuple[bool, bool]:
    """([[T,T]] vanishes, T satisfies the Rota-Baxter identity)."""
    from .operators import is_rota_baxter

    t = space.operator_cochain(op)
    mc_zero = derived_bracket(space, t, t).is_zero()
    rb = bool(is_rota_baxter(space.alg, space.mod, op))
    return mc_zero, rb


def rb_differential(space: CochainSpace, op: Matrix, p: Cochain,
                    cap: Optional[int] = None) -> Cochain:
    """d_T = [[T, .]] for a Rota-Baxter operator T."""
    from .operators import is_rota_baxter

    is_rota_baxter(space.alg, space.mod, op).require("operator is not Rota-Baxter")
    return derived_bracket(space, space.operator_cochain(op), p, cap)


def twisted_mc_check(space: CochainSpace, op: Matrix,
                     other: Matrix) -> Tuple[bool, bool]:
    """(T + T' is Rota-Baxter,  d_T T' + (1/2)[[T',T']] = 0).

    The two verdicts coincide; the acceptance suite exercises this equality
    on random perturbations.
    """
    from .operators import is_rota_baxter

    is_rota_baxter(space.alg, space.mod, op).require("operator is not Rota-Baxter")
    sum_rb = bool(is_rota_baxter(space.alg, space.mod, op + other))
    tp = space.operator_cochain(other)
    twisted = derived_bracket(space, space.operator_cochain(op), tp) \
        + derived_bracket(space, tp, tp).scale(Fraction(1, 2))
    return sum_rb, twisted.is_zero()
