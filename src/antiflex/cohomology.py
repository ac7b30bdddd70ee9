"""The cochain complex of a Rota-Baxter operator and its cohomology.

The differential d_H is defined structurally: the operator induces an
algebra (M, star) together with actions (l_T, r_T) of M on A, and d_H is
(-1)^n times the bracket of the degree-1 element star + l_T + r_T with the
cochain, computed on the swapped sum space M + A (`RBComplex.differential`).
The degree-0 case is

    d_H(a)(m) = T(m).a - T(r(a)m) - a.T(m) + T(l(a)m),

and d_T f = (-1)^n d_H f relates it to the derived-bracket differential.

`RBComplex.differential_matrix` writes the same d_H pointwise from the
structure constants of star, l_T and r_T, the Hochschild-type differential
of (M, star) acting on A with the anti-flexible reversal term added.  For
c in A and f of degree n >= 1, with x = (x_1, ..., x_{n+1}) in M:

    d c(x) = l_T(x)c - r_T(x)c,
    Q(x)   = r_T(x_{n+1}) f(x_1..x_n) + (-1)^{n-1} l_T(x_1) f(x_2..x_{n+1})
             + (-1)^n sum_{s=0}^{n-1} (-1)^s f(x_1..x_s, x_{s+1} star x_{s+2}, ..),
    d f(x) = (-1)^n [Q(x) + [n >= 2] (-1)^{n(n+1)/2} Q(x_{n+1}, ..., x_1)].

The bracket route stays the definition and the oracle: the tests compare
the two column by column through degree 5 (the reversal sign first
differs from (-1)^(n+1) at n = 4), and the bracket route still checks
that nothing leaves the cochain block (pi(A, A) = 0 and f vanishes off
M^n, so the pointwise route has no such components to check).

`RBComplex` forms only the integer view of the induced structure: star,
l_T and r_T as sparse ints over one scale (`bimodule._induced_view`).  Its
`induced` bimodule and `star` algebra are built from that view on first
read, as `induced_bimodule_on_base` builds them.

The pointwise route stores each d_n once from the view as sparse int
columns, reading a basis tuple of M^(n+1) as its base-mdim number, on the
rows d_n can differ on.  For n >= 2 the reversal term swaps Q(x) and
Q(rev x), rev reversing the tuple, so d f(rev x) = s_n d f(x) for every f,
with s_n = (-1)^{n(n+1)/2}: every image of d_n has this symmetry, row
(rev x, k) of d_n is s_n times row (x, k), and a palindromic row is zero
when s_n = -1.  The store keeps the rows with x <= rev x.  Each Q-term
lands on the kept row of its tuple, times s_n when that row is the
reversed one and times 1 + s_n at a palindrome.  d_0 and d_1 have no
reversal term and keep every row.

Each d_n is assembled in two parts, the same for every degree; d_0 =
l_T(x)c - r_T(x)c is degree 0, whose Q has only its two action terms.
The layout (`_Layout`) says where each term of d_n lands: the kept row
and the fold multiplicity of each (n+1)-tuple, the rows of the action
terms of each column y, and the base of each star term of (y, s), to
which each star product adds its pair.  It depends on (mdim, adim, n)
alone, never on star, l_T or r_T, so one layout serves every complex of
its shape: `_layout` builds it on first use and keeps the 64 shapes read
last for the process.  It holds n mdim^n star bases and O(mdim^(n+1)
adim) rows and twins, the size of the twin table of d_n's rows.  The
numeric pass (`RBComplex._assemble`) is the only part that reads the
data: it walks the nonzero entries of the complex's star, l_T and r_T
through the layout.

`RBComplex.dims` reads the store alone.  It first checks d_n o d_{n-1} = 0
for n = 1..k in order, multiplying the columns sparsely, and only then
ranks each d_n with `linalg.int_cols_rank`; a triple that fails the check
costs no rank.  Both are exact on the store.  The ranks are, because a
dropped row is a signed copy of a kept one or zero, and a common scale
changes no rank.  The check is, because an entry x at row i of a stored
column of d_{n-1}, n - 1 >= 2, stands for s_{n-1} x at its twin row (rev,
k) as well, so the image is x d_n[:, i] + s_{n-1} x d_n[:, twin(i)] (one
term at a palindrome), and because the images of d_n have the reversal
symmetry, so they vanish when they vanish on the kept rows.  The first
failing column of d_{n-1}, and with it the ComplexError text, is the same
as on the full columns.  `_int_columns` is the signed expansion of the
store to every row; `differential_matrix`, its dense view, and the tests
read it, and `dims` expands nothing and builds no dense d_n.  The tests
keep the every-row assembly (`tests/slow_routes.py`) as the oracle of the
store, and the dense elimination as the oracle of the ranks.

Whether d squares to zero depends on the data.  `tests/test_cohomology.py`
pins a census: every anti-flexible dim-2 algebra over {-1, 0, 1} with its
regular bimodule and every nonzero Rota-Baxter operator over {-1, 0, 1},
616 pairs.  On the 360 commutative pairs d_n o d_{n-1} = 0 for n = 1..5.
On the 256 noncommutative ones d_2 o d_1 = 0, but d_3 o d_2, d_4 o d_3 and
d_5 o d_4 never vanish, on the 128 associative pairs too, and d_1 o d_0
fails on 96.  By the reversal class of pi_T = star + l_T + r_T
(`glie.reversal`), the 360 are exactly the pairs with pi_T in one
eigenspace (144 in V+, 216 in V-), and the 256 have it in neither.  So
dimension reports verify the complex property explicitly (and refuse to
report sham quotients).
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .algebra import Algebra, _structure_element
from .bimodule import (Bimodule, _induced_objects, _induced_view,
                       lie_representation)
from .glie import (Cochain, CochainSpace, DegreeCapError, derived_bracket,
                   embed_blocks, graded_bracket, restrict_blocks,
                   HARD_ARITY_CAP)
from .linalg import (LinAlgError, Matrix, MultiMap, basis_vector,
                     int_cols_rank, linear_combination, vec_add, vec_is_zero,
                     vec_sub)
# not called here: RBComplex gets the Rota-Baxter sweep through
# bimodule._induced_view, which keeps the star vectors the sweep forms and
# calls no is_rota_baxter; perfbench/test_perfbench.py reads the name here
from .operators import is_rota_baxter  # noqa: F401
from .reports import CheckReport

__all__ = [
    "RBComplex",
    "ComplexReport",
    "ComplexError",
    "check_sign_relation",
    "h0_description_check",
    "one_cocycle_check",
    "skew_symmetrize",
    "ce_differential",
    "hochschild_module_differential",
    "hochschild_to_ce_morphism_check",
    "DEFAULT_MAX_DEGREE",
]

DEFAULT_MAX_DEGREE = 3


class ComplexError(ValueError):
    """The differential fails to square to zero at the requested degree."""


class RBComplex:
    """Cochains Hom(M^(x)n, A) with the Hochschild-style differential of the
    induced structure; built once per (algebra, bimodule, operator) triple."""

    def __init__(self, alg: Algebra, mod: Bimodule, op: Matrix):
        self.alg = alg
        self.mod = mod
        self.op = op
        self.adim = alg.dim
        self.mdim = mod.mdim
        # the integer view (star, l_T, r_T) of the induced structure; raises
        # ValueError unless op is Rota-Baxter
        self._view = _induced_view(alg, mod, op)
        # degree -> the stored sparse int columns of d_degree (`_columns`)
        self._matrices = {}
        # the star products by output coordinate (`_star_by_output`), the one
        # table of the assembly that depends on the data; set here, so that
        # filling it keeps the instance's attribute layout, where a
        # cached_property would write through __dict__ and slow every later
        # attribute read of the complex
        self._products = None

    @functools.cached_property
    def induced(self) -> Bimodule:
        """The induced algebra (M, star) acting on A through l_T and r_T,
        as `induced_bimodule_on_base` builds it, from the view."""
        return _induced_objects(self._view, self.adim)

    @functools.cached_property
    def star(self) -> Algebra:
        return self.induced.base

    @functools.cached_property
    def space(self) -> CochainSpace:
        return CochainSpace(self.alg, self.mod)

    @functools.cached_property
    def pi_swapped(self) -> MultiMap:
        """star + l_T + r_T as the degree-1 structure element on M + A
        (module block first), read from the induced bimodule's view."""
        return _structure_element(self.induced)

    def cochain(self, degree: int, data) -> Cochain:
        return Cochain(degree, self.mdim, self.adim, data)

    def dim_cochains(self, degree: int) -> int:
        return self.mdim ** degree * self.adim

    def differential(self, f: Cochain) -> Cochain:
        """d_H f = (-1)^n [star + l_T + r_T, f] on the swapped space."""
        if f.mdim != self.mdim or f.adim != self.adim:
            raise LinAlgError("cochain does not match this complex")
        out = _bracket_on_blocks(self.pi_swapped, f)
        return out if f.degree % 2 == 0 else out.scale(-1)

    def derived_differential(self, f: Cochain) -> Cochain:
        """d_T f = [[T, f]], the derived-bracket route on A + M."""
        return derived_bracket(self.space, self.space.operator_cochain(self.op), f)

    def differential_matrix(self, degree: int) -> Matrix:
        """Flattened d_H: C^degree -> C^{degree+1} in the cochain coordinate
        order (j_1, ..., j_n, k), written pointwise from the structure
        constants (see the module docstring); equal to `differential` on
        every basis cochain.  The dense view of the expanded columns
        (`_int_columns`), built anew on each call."""
        return Matrix._of_view(1, self.dim_cochains(degree),
                               self.dim_cochains(degree + 1),
                               self._int_columns(degree), self._view[3])

    def _int_columns(self, degree: int) -> list:
        """The columns of d_degree with every row, as sorted (row, int)
        pairs: the matrix times the scale of the induced view.  The signed
        expansion of the store (`_columns`): row (rev(x), k) holds s_n times
        row (x, k).  Built anew on each call; `dims` never reads it."""
        cols = self._columns(degree)
        fold = self._fold(degree)
        if fold is None:
            return cols
        twin, sign = fold
        return [sorted(col + [(twin[r], sign * x) for r, x in col
                              if twin[r] != r]) for col in cols]

    def _columns(self, degree: int) -> list:
        """The columns of d_degree as sorted (row, int) pairs on the rows it
        can differ on: every row for degrees 0 and 1, and for n >= 2 the
        rows (x, k) with x <= rev(x) (see the module docstring); the matrix
        times the scale of the induced view.  Built once per degree and
        kept in `_matrices`."""
        _check_degree(degree)
        cols = self._matrices.get(degree)
        if cols is None:
            cols = self._matrices[degree] = self._assemble(degree)
        return cols

    def _assemble(self, n: int) -> list:
        """The store of d_n (`_columns`): the numeric pass over the layout
        of its shape (`_layout`), which walks only the sparse entries of
        star, l_T and r_T."""
        layout = _layout(self.mdim, self.adim, n)
        at, mult = layout.at, layout.mult
        # l_T and r_T as ints over the view's scale, in which d_n is linear;
        # actions[j][k] lists (kk, w), w != 0 the e_kk-coefficient of r_T
        # (j < mdim) or l_T (j - mdim) of that basis element on e_k
        _, left, right, _ = self._view
        actions = [*right, *left]
        products = self._star_by_output()
        cols = []
        for terms, stars in zip(layout.actions, layout.stars):
            # the star terms of (-1)^n Q at ys land on row r + k of the
            # column of e_k, for every k: summed once, at k = 0
            star = {}
            for base, w, digit, coeff in stars:
                for uv, c in products[digit]:
                    x = base + uv * w
                    mu = mult[x]
                    if mu:
                        r = at[x]
                        star[r] = star.get(r, 0) + coeff * mu * c
            for k in range(self.adim):
                column = {r + k: c for r, c in star.items()} if star else {}
                for j, row, c in terms:
                    for kk, w in actions[j][k]:
                        column[row + kk] = column.get(row + kk, 0) + c * w
                cols.append(sorted([(r, x) for r, x in column.items()
                                    if x]))
        return cols

    def _star_by_output(self) -> list:
        """The star products by output coordinate: u star v = sum_t c e_t
        puts (u * mdim + v, c) in products[t].  Built once and kept in
        `_products`."""
        if self._products is None:
            self._products = [[] for _ in range(self.mdim)]
            for uv, img in enumerate(self._view[0]):
                for t, c in img:
                    self._products[t].append((uv, c))
        return self._products

    def _fold(self, degree: int) -> Optional[tuple]:
        """(twin, s_degree) when the store of d_degree keeps only the
        canonical rows of pairs (degree >= 2, mdim >= 2), else None: the
        layout's pair (`_Layout.fold`)."""
        return _layout(self.mdim, self.adim, degree).fold

    def dims(self, max_degree: int = DEFAULT_MAX_DEGREE) -> "ComplexReport":
        """Exact cocycle/coboundary/cohomology dimensions up to max_degree.

        Asserts the complex property: each differential must send every
        column of the previous one to zero; a violation raises ComplexError
        rather than reporting bogus quotient dimensions.  Every d_n o
        d_{n-1} is checked, n = 1..max_degree in order, before any rank is
        taken, so a failing triple costs no rank.  Both the check and the
        ranks work on the stored sparse int columns of each d_n, on the
        rows it can differ on (ranks change neither under the common scale
        nor when signed copies of rows are dropped), so no column is
        expanded and no dense d_n is built.
        """
        _check_degree(max_degree)
        cols = []
        for n in range(max_degree + 1):
            cols.append(self._columns(n))
            if n:
                _check_composition(cols[n - 1], cols[n], n,
                                   self._fold(n - 1))
        rows = []
        prev_rank = 0
        for n, d_n in enumerate(cols):
            c = self.dim_cochains(n)
            rank = int_cols_rank(d_n)
            rows.append((n, c, c - rank, prev_rank, c - rank - prev_rank))
            prev_rank = rank
        return ComplexReport(rows)


def _check_composition(prev_cols: list, cols: list, n: int,
                       fold: Optional[tuple] = None) -> None:
    """ComplexError unless d_n (stored sparse int columns cols) sends every
    column of d_{n-1} (prev_cols) to zero.  With fold = (twin, s), the
    columns of d_{n-1} keep only canonical rows: an entry x at row i then
    stands for s x at row twin[i] too, unless i is a palindrome.  The
    images are compared on the rows cols keeps, which is exact since every
    image of d_n has the same reversal symmetry."""
    twin, sign = fold or (None, 0)
    for j, img in enumerate(prev_cols):
        acc = {}
        for i, x in img:
            for r, y in cols[i]:
                acc[r] = acc.get(r, 0) + x * y
            if twin is not None and twin[i] != i:
                x *= sign
                for r, y in cols[twin[i]]:
                    acc[r] = acc.get(r, 0) + x * y
        if any(acc.values()):
            raise ComplexError(
                f"image of d_{n - 1} not contained in kernel of d_{n}"
                f" (generator {j})")


def _reversal_sign(n: int) -> int:
    """s_n = (-1)^{n(n+1)/2}, the sign of the reversal term of d_n, for n
    >= 2; 0 below, where d_n has none."""
    if n < 2:
        return 0
    return -1 if (n * (n + 1) // 2) % 2 else 1


def _digit_reversal(m: int, length: int) -> list:
    """flip[x] for x < m**length: the number of the tuple of x's base-m
    digits (length of them) in reverse order."""
    flip = [0]
    for k in range(length):
        step = m ** k
        flip = [f + digit * step for f in flip for digit in range(m)]
    return flip


@functools.lru_cache(maxsize=64)
def _layout(m: int, a: int, n: int) -> "_Layout":
    """The layout of d_n for mdim m and adim a, built on first use; the 64
    shapes read last stay cached for the process."""
    return _Layout(m, a, n)


class _Layout:
    """Where each term of d_n: C^n -> C^(n+1) lands in its store, for mdim
    m and adim a, whatever the data (see the module docstring).  A tuple
    of basis indices is its base-m number; y < m**n numbers the columns
    (y, k), k < a, and ys[s] is the digit of y of weight m**(n - 1 - s).

    - at[x], mult[x] for each (n+1)-tuple x: a term of Q at x lands on row
      at[x] + kk of the store times mult[x].  With a reversal term (n >= 2)
      that is the lesser of x and rev(x), times s_n when it is rev(x) and
      times 1 + s_n at a palindrome; with none, row x * a + kk times 1.
    - actions[y]: (j, row, c) for the action terms of the columns y with
      mult != 0: r_T(x_{n+1}) at x = y * m + z (j = z) and l_T(x_1) at
      x = z * m**n + y (j = m + z), c their sign times mult[x].  These are
      the only terms of d_0, d c(x) = l_T(x)c - r_T(x)c.
    - stars[y]: (base, w, digit, coeff) for each s < n, ys[s] = digit of
      weight w replaced by a pair uv: that star term lands at x = base +
      uv * w with the sign coeff = (-1)^s, times mult[x].
    - fold: (twin, s_n) when the store keeps only canonical rows (n >= 2,
      m >= 2), else None, with twin the coordinate of (rev(x), k) for each
      coordinate x * a + k of C^(n+1).

    Nothing in it depends on the data, so one layout serves every complex
    of its shape; it is read, never written."""

    __slots__ = ("at", "mult", "actions", "stars", "fold")

    def __init__(self, m: int, a: int, n: int):
        size = m ** n
        rev = _reversal_sign(n)
        flip = _digit_reversal(m, n + 1) if rev and m > 1 else None
        if flip is None:
            at = [x * a for x in range(m * size)]
            mult = [1 + rev] * (m * size)
            self.fold = None
        else:
            at = [(x if x < f else f) * a for x, f in enumerate(flip)]
            mult = [1 if x < f else rev if x > f else 1 + rev
                    for x, f in enumerate(flip)]
            self.fold = (tuple([f * a + k for f in flip for k in range(a)]),
                         rev)
        self.at, self.mult = tuple(at), tuple(mult)
        # (-1)^n r_T(x_{n+1}) and (-1)^n (-1)^(n-1) l_T(x_1); d_0 = l_T - r_T
        right_sign, left_sign = (-1 if n % 2 else 1, -1) if n else (-1, 1)
        # by z, the action terms of every y, zipped into one tuple per y
        # (zip() yields nothing: with m = 0, d_0's one y has no terms)
        terms = [[(z, at[x], right_sign * mult[x])
                  for x in range(z, m * size, m)] for z in range(m)]
        terms += [[(m + z, at[x], left_sign * mult[x])
                   for x in range(z * size, (z + 1) * size)]
                  for z in range(m)]
        actions = zip(*terms) if m else [()] * size
        if rev < 0:  # mult is 0 at a palindrome: drop its terms
            actions = [tuple([t for t in ts if t[2]]) for ts in actions]
        self.actions = tuple(actions)
        # by s, the star bases of every y = (head, digit, tail), digit of
        # weight w, zipped likewise (d_0 has none)
        bases = []
        for s in range(n):
            w = m ** (n - 1 - s)
            step, coeff = m * m * w, -1 if s % 2 else 1
            bases.append([(head * step + tail, w, digit, coeff)
                          for head in range(m ** s) for digit in range(m)
                          for tail in range(w)])
        self.stars = tuple(zip(*bases) if n else [()] * size)


def _check_degree(degree: int) -> None:
    """Refuse a negative degree, and a degree whose cochains would exceed
    the arity ceiling of the bracket route, before any assembly."""
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    if degree + 1 > HARD_ARITY_CAP:
        raise DegreeCapError(
            f"degree {degree}: result arity {degree + 1} exceeds cap"
            f" {HARD_ARITY_CAP}")


def _bracket_on_blocks(pi: MultiMap, f: Cochain) -> Cochain:
    """[pi, f] with f embedded from the first block of pi's two-block sum
    space into the second; ComplexError if the bracket leaves that block."""
    k = f.mdim
    br = graded_bracket(pi, embed_blocks(f, 0, k, pi.dim), HARD_ARITY_CAP)
    out, report = restrict_blocks(br, 0, k, k, f.adim)
    if not report.ok:
        raise ComplexError(f"differential left the cochain space: {report.describe()}")
    return out


@dataclass
class ComplexReport:
    """Per-degree (n, dim C, dim Z, dim B, dim H) with exact integers."""

    degrees: list

    def __post_init__(self):
        for (n, c, z, b, h) in self.degrees:
            if not (0 <= b <= z <= c and h == z - b):
                raise ValueError(f"inconsistent dimension row {(n, c, z, b, h)}")

    def h(self, n: int) -> int:
        for row in self.degrees:
            if row[0] == n:
                return row[4]
        raise KeyError(n)

    def to_json(self) -> list:
        return [{"degree": n, "c": c, "z": z, "b": b, "h": h}
                for (n, c, z, b, h) in self.degrees]


def check_sign_relation(alg: Algebra, mod: Bimodule, op: Matrix, f: Cochain,
                        complex_: Optional[RBComplex] = None) -> bool:
    """d_T f = (-1)^n d_H f, comparing the two independently computed routes."""
    cx = complex_ if complex_ is not None else RBComplex(alg, mod, op)
    lhs = cx.derived_differential(f)
    rhs = cx.differential(f)
    if f.degree % 2:
        rhs = rhs.scale(-1)
    return lhs == rhs


def h0_description_check(alg: Algebra, mod: Bimodule, op: Matrix,
                         complex_: Optional[RBComplex] = None):
    """Compute H^0 two ways: kernel of the degree-0 differential, and the
    membership condition a.T(m) - T(m).a = T(l(a)m - r(a)m) for all m.

    Returns (basis, report); the report records whether the two subspaces
    coincide (they must).
    """
    cx = complex_ if complex_ is not None else RBComplex(alg, mod, op)
    d0 = cx.differential_matrix(0)
    kernel_a = d0.kernel_basis()

    rows = []
    for j in range(cx.mdim):
        tm = op.col(j)
        cond_cols = []
        for i in range(cx.adim):
            ei = basis_vector(i, cx.adim)
            lhs = vec_sub(alg.multiply(ei, tm), alg.multiply(tm, ei))
            rhs = op.apply(vec_sub(mod.left[i].col(j), mod.right[i].col(j)))
            cond_cols.append(vec_sub(lhs, rhs))
        for k in range(cx.adim):
            rows.append([cond_cols[i][k] for i in range(cx.adim)])
    membership = Matrix.from_rows(rows, cols=cx.adim)
    kernel_b = membership.kernel_basis()

    report = CheckReport("h0_two_routes")
    if len(kernel_a) != len(kernel_b):
        report.fail("subspace dimensions differ", (),
                    (len(kernel_a), len(kernel_b)))
    else:
        for v in kernel_a:
            if not vec_is_zero(membership.apply(v)):
                report.fail("kernel vector violates membership condition", (), v)
                break
        for v in kernel_b:
            if not vec_is_zero(d0.apply(v)):
                report.fail("membership vector not in differential kernel", (), v)
                break
    return kernel_a, report


def one_cocycle_check(alg: Algebra, mod: Bimodule, op: Matrix, f: Cochain,
                      complex_: Optional[RBComplex] = None) -> Tuple[bool, bool]:
    """(direct degree-1 cocycle condition, d_H f = 0); the two agree.

    The displayed condition is evaluated in its type-correct reading:

        T(u).f(v) + f(u).T(v) - T(r(f(v))u + l(f(u))v)
                              - f(l(T(u))v + r(T(v))u) = 0.
    """
    if f.degree != 1:
        raise LinAlgError("cocycle condition applies to degree-1 cochains")
    cx = complex_ if complex_ is not None else RBComplex(alg, mod, op)
    direct = True
    for u, v in itertools.product(range(mod.mdim), repeat=2):
        fu, fv = f.value((u,)), f.value((v,))
        tu, tv = op.col(u), op.col(v)
        term = vec_add(alg.multiply(tu, fv), alg.multiply(fu, tv))
        inner_m = vec_add(linear_combination(fv, mod.right).col(u),
                          linear_combination(fu, mod.left).col(v))
        star_uv = vec_add(linear_combination(tu, mod.left).col(v),
                          linear_combination(tv, mod.right).col(u))
        fs = f.evaluate(star_uv)
        total = vec_sub(vec_sub(term, op.apply(inner_m)), fs)
        if not vec_is_zero(total):
            direct = False
            break
    vanishing = cx.differential(f).is_zero()
    return direct, vanishing


# ---------------------------------------------------------------------------
# skew-symmetrization into the Chevalley-Eilenberg complex
# ---------------------------------------------------------------------------

def skew_symmetrize(f: Cochain) -> Cochain:
    """S_n(f)(a_1, ..., a_n) = sum_sigma sign(sigma) f(a_sigma(1), ...).

    Input and output are cochains with algebra-indexed inputs (here the
    mdim field is the input dimension)."""
    return functools.reduce(operator.add, (
        f.permute_inputs(p).scale(_perm_sign(p))
        for p in itertools.permutations(range(f.degree))))


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def is_alternating(f: Cochain) -> bool:
    """Whether f changes sign under every swap of two adjacent inputs."""
    n = f.degree
    negated = -f
    for a in range(n - 1):
        swap = list(range(n))
        swap[a], swap[a + 1] = a + 1, a
        if f.permute_inputs(swap) != negated:
            return False
    return True


def ce_differential(lie, rep, g: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential with coefficients in a representation:

        (dg)(x_1..x_{n+1}) = sum_i (-1)^{i+1} rho(x_i) g(.. x_i ..)
                           + sum_{i<j} (-1)^{i+j} g([x_i,x_j], .. x_i .. x_j ..)
    """
    n = g.degree
    d = lie.dim
    if g.mdim != d:
        raise LinAlgError("cochain inputs must match the Lie algebra dimension")
    data = []
    for idx in itertools.product(range(d), repeat=n + 1):
        acc = [Fraction(0)] * g.adim
        for i in range(n + 1):
            rest = idx[:i] + idx[i + 1:]
            term = rep.rho[idx[i]].apply(g.value(rest))
            sign = 1 if i % 2 == 0 else -1
            for k in range(g.adim):
                acc[k] += sign * term[k]
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                br = lie.bracket.value((idx[i], idx[j]))
                rest = tuple(x for t, x in enumerate(idx) if t != i and t != j)
                term = [Fraction(0)] * g.adim
                for s, c in enumerate(br):
                    if c:
                        val = g.value((s,) + rest)
                        for k in range(g.adim):
                            term[k] += c * val[k]
                sign = 1 if (i + j) % 2 == 0 else -1
                for k in range(g.adim):
                    acc[k] += sign * term[k]
        data.extend(acc)
    return Cochain(n + 1, d, g.adim, data)


def hochschild_module_differential(alg: Algebra, mod: Bimodule,
                                   f: Cochain) -> Cochain:
    """Differential of module-valued cochains Hom(A^(x)n, M), realized as the
    bracket with mu + l + r on A + M (sign +1 at degrees 0 and 1, classical
    alternation beyond)."""
    if f.mdim != alg.dim or f.adim != mod.mdim:
        raise LinAlgError("cochain shape does not match Hom(A^n, M)")
    out = _bracket_on_blocks(CochainSpace(alg, mod).pi, f)
    n = f.degree
    if n >= 1 and (n - 1) % 2:
        out = out.scale(-1)
    return out


def hochschild_to_ce_morphism_check(alg: Algebra, mod: Bimodule, f: Cochain) -> bool:
    """Whether skew-symmetrization intertwines the two differentials:
    S_{n+1}(d f) = d_CE(S_n f) over the commutator Lie algebra with the
    l - r representation."""
    rep = lie_representation(alg, mod)
    lhs = skew_symmetrize(hochschild_module_differential(alg, mod, f))
    rhs = ce_differential(rep.lie, rep, skew_symmetrize(f))
    return lhs == rhs
