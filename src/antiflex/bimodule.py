"""Bimodules over anti-flexible algebras and the representations derived
from them.

A bimodule is a pair of action maps (l, r) into gl(M), one matrix per basis
element of the base algebra, subject to the two coupled equations

    l(a.b) - l(a)l(b) = r(a)r(b) - r(b.a)
    l(a)r(b) - r(b)l(a) = l(b)r(a) - r(a)l(b)

checked on all basis pairs.  The action of any element a is
`linear_combination(a, left)` (or of `right`); the twists by a Nijenhuis
structure (N, S) read the actions of the N(e_i), each formed once by
`_image_actions`.

A bimodule keeps one integer view, built on first use (`Bimodule.int_view`):
the views that its base and each action keep (`MultiMap.int_view`),
written over one common denominator D by `linalg._rescaled`.  Each term of
both laws is quadratic in that data, so every int residual is exactly D**2
times the true one: the same pairs fail, and the witness is
Fraction(entry, D**2).

The Rota-Baxter identity of an operator T: M -> A, relative to a bimodule,
is swept here (`_rota_baxter_sweep`), since everything T induces is read
from that one sweep: the star algebra (M, star), laid out from the star
vectors `_star` forms (`_star_groups`, `_star_algebra_of`), the splitting
(>, <) (`operators.induced_pre_anti_flexible`), and the bimodule (l_T, r_T)
of (M, star) on A.  `operators.is_rota_baxter` returns the sweep's report,
and the derived-bracket checks of `glie` call the sweep directly.  Over an
algebra that is not the bimodule's base, the law reads the view of the
actions rebased onto it (`_rota_baxter_module`); a caller that reads that
view too hands the law the rebased bimodule, so the view is built once.
`_induced_view` contracts the views of the bimodule and of T (scale D_T):
star, l_T and r_T are linear in each, so all three are ints over D * D_T.
Its star products are the star vectors that its Rota-Baxter sweep forms,
so each basis pair is contracted once; it forms l_T and r_T together, one
pass per pair (m_i, e_j), from the view of the bimodule that sweep read
(rebased onto the algebra passed in, built once), and it reads whether the
base is anti-flexible from `anti_flexible_report`, which loops over the
triples with i < k only.  It forms that view alone, for
`cohomology.RBComplex`, which reads nothing else;
`induced_bimodule_on_base` returns the objects of the view, built from its
parts by `MultiMap._of_view`, which keep it as their own.

Every package import here sits at module level but one: `tilde_bimodule`
imports its check, `deformation._nijenhuis_structure`, in its body, since
that check reads `operators.is_nijenhuis` and `deformation.block_operator`,
which sit above this module.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .algebra import (Algebra, LieAlgebra, _multiply, _subtract_image,
                      anti_flexible_report, commutator_lie, deformed_product)
from .linalg import (LinAlgError, Matrix, MultiMap, _rescaled,
                     linear_combination)
from .reports import CheckReport, _law_report

__all__ = [
    "Bimodule",
    "LieRepresentation",
    "is_bimodule",
    "regular_bimodule",
    "zero_bimodule",
    "dual_bimodule_candidate",
    "lie_representation",
    "induced_bimodule_on_base",
    "tilde_bimodule",
]


class Bimodule:
    """Action data (l, r) of an algebra on an mdim-dimensional space; mdim is
    read from the matrices, or is the one given (default 0) if there are none."""

    __slots__ = ("base", "mdim", "left", "right", "_view")

    def __init__(self, base: Algebra, left: Sequence[Matrix], right: Sequence[Matrix],
                 check: bool = True, mdim: Optional[int] = None):
        self.base = base
        self.mdim = _action_dim(base.dim, left, right, mdim)
        self.left = tuple(left)
        self.right = tuple(right)
        self._view = None
        if check:
            self.validate().require("not a bimodule")

    def int_view(self) -> tuple:
        """(prod, left, right, den): the views of the base's products and of
        each action's columns, each rescaled from its own denominator to
        their common one."""
        if self._view is None:
            views = [self.base.int_view()] + [
                m.int_view() for m in self.left + self.right]
            den = math.lcm(*(v_den for _, v_den in views))
            prod, *cols = [_rescaled(groups, v_den, den)
                           for groups, v_den in views]
            d = self.base.dim
            self._view = (prod, cols[:d], cols[d:], den)
        return self._view

    def validate(self) -> CheckReport:
        """Both bimodule equations on all basis pairs, with residual witnesses."""
        return _view_report(self.base.dim, self.mdim, self.int_view())

    def __eq__(self, other):
        return (isinstance(other, Bimodule) and self.base == other.base
                and self.mdim == other.mdim and self.left == other.left
                and self.right == other.right)

    def __repr__(self):
        return f"Bimodule(base dim={self.base.dim}, mdim={self.mdim})"


def _action_dim(d: int, left: Sequence[Matrix], right: Sequence[Matrix],
                mdim: Optional[int] = None) -> int:
    """The common size of the square action matrices, one per basis element,
    which must equal mdim when given; with none, mdim (default 0)."""
    if len(left) != d or len(right) != d:
        raise LinAlgError("need one action matrix per algebra basis element")
    size = left[0].rows if d else mdim or 0
    if size < 0:
        raise LinAlgError(f"module dimension must be nonnegative, got {mdim}")
    if mdim not in (None, size):
        raise LinAlgError(f"action matrices are {size}x{size}, "
                          f"module dimension is {mdim}")
    for m in itertools.chain(left, right):
        if m.rows != size or m.cols != size:
            raise LinAlgError("action matrices must be square of equal size")
    return size


def _view_report(d: int, md: int, view: tuple) -> CheckReport:
    """Both bimodule equations on all basis pairs of a base of dimension d
    acting on an md-dimensional space, from the integer view (prod, left,
    right, den) of the pair."""
    prod, left, right, den = view
    eye = [[(j, 1)] for j in range(md)]

    def product_law(i, j):
        # l(ab) - l(a)l(b) - r(a)r(b) + r(ba)
        return _combination(md, [(x, left[k], eye) for k, x in prod[i * d + j]]
                            + [(x, right[k], eye) for k, x in prod[j * d + i]]
                            + [(-1, left[i], left[j]), (-1, right[i], right[j])])

    def commutation_law(i, j):
        # l(a)r(b) - r(b)l(a) - l(b)r(a) + r(a)l(b)
        return _combination(md, [(1, left[i], right[j]), (-1, right[j], left[i]),
                                 (-1, left[j], right[i]), (1, right[i], left[j])])

    def witness(res):
        return Matrix._of_ints(1, md, md, {(k % md, k // md): x
                                           for k, x in enumerate(res)},
                               den * den)

    return (CheckReport("bimodule")
            .sweep("l(ab)-l(a)l(b) = r(a)r(b)-r(ba)",
                   itertools.product(range(d), repeat=2), product_law, witness)
            .sweep("l(a)r(b)-r(b)l(a) = l(b)r(a)-r(a)l(b)",
                   itertools.product(range(d), repeat=2), commutation_law,
                   witness))


def is_bimodule(alg: Algebra, left: Sequence[Matrix], right: Sequence[Matrix]) -> CheckReport:
    """Both bimodule equations on all basis pairs, with residual witnesses."""
    return Bimodule(alg, left, right, check=False).validate()


def _rebased(alg: Algebra, mod: Bimodule) -> Bimodule:
    """mod, or its actions over alg when its base is another algebra."""
    same = mod.base is alg or mod.base == alg
    return mod if same else Bimodule(alg, mod.left, mod.right, check=False)


def _combination(md: int, terms: list) -> tuple:
    """sum c a b over the terms (c, a, b), row-major, for md x md matrices
    a and b given as sparse int columns."""
    acc = [0] * (md * md)
    for c, a, b in terms:
        for j, col in enumerate(b):
            for k, y in col:
                for i, x in a[k]:
                    acc[i * md + j] += c * x * y
    return tuple(acc)


def regular_bimodule(alg: Algebra) -> Bimodule:
    """Left/right multiplication actions of an anti-flexible algebra on itself."""
    if not anti_flexible_report(alg).ok:
        raise ValueError("regular bimodule requires an anti-flexible algebra")
    left = [alg.left_matrix(i) for i in range(alg.dim)]
    right = [alg.right_matrix(i) for i in range(alg.dim)]
    return Bimodule(alg, left, right)


def zero_bimodule(alg: Algebra, mdim: int) -> Bimodule:
    """Zero actions on a space of any dimension; always a bimodule."""
    z = Matrix.zeros(mdim, mdim)
    return Bimodule(alg, [z] * alg.dim, [z] * alg.dim, mdim=mdim)


def dual_bimodule_candidate(alg: Algebra, mod: Bimodule):
    """Candidate dual actions l*(a) = r(a)^T, r*(a) = l(a)^T, then validate.

    Returns (bimodule_or_None, report).  The convention is not assumed
    correct: the report carries the verdict and any violated equation.
    """
    dual = Bimodule(alg, [mod.right[i].transpose() for i in range(alg.dim)],
                    [mod.left[i].transpose() for i in range(alg.dim)],
                    check=False, mdim=mod.mdim)
    report = dual.validate()
    if not report.ok:
        report.notes["candidate"] = "transpose-swap dual convention fails for this algebra"
        return None, report
    return dual, report


class LieRepresentation:
    """A representation rho of a Lie algebra; mdim as `Bimodule` reads it."""

    __slots__ = ("lie", "mdim", "rho")

    def __init__(self, lie: LieAlgebra, rho: Sequence[Matrix],
                 mdim: Optional[int] = None):
        self.mdim = _action_dim(lie.dim, rho, rho, mdim)
        self.lie = lie
        self.rho = tuple(rho)
        self.validate().require("not a representation")

    def validate(self) -> CheckReport:
        def residual(i, j):
            lhs = linear_combination(self.lie.bracket.value((i, j)), self.rho)
            rhs = self.rho[i] @ self.rho[j] - self.rho[j] @ self.rho[i]
            return lhs - rhs

        return CheckReport("lie_representation").sweep(
            "rho([a,b]) = [rho(a),rho(b)]",
            itertools.product(range(self.lie.dim), repeat=2), residual)


def lie_representation(alg: Algebra, mod: Bimodule) -> LieRepresentation:
    """rho = l - r on the commutator Lie algebra of the base."""
    lie = commutator_lie(alg)
    rho = [mod.left[i] - mod.right[i] for i in range(alg.dim)]
    return LieRepresentation(lie, rho, mod.mdim)


def _check_shape(rows: int, cols: int, src_dim: int, dst_dim: int, what: str):
    if rows != dst_dim or cols != src_dim:
        raise LinAlgError(f"{what} must be {dst_dim}x{src_dim}, got {rows}x{cols}")


def _rota_baxter_sweep(alg: Algebra, mod: Bimodule, op: Matrix,
                       stars: Optional[list] = None) -> CheckReport:
    """T(m).T(n) = T(l(T(m))n + r(T(n))m) on all basis pairs of the module,
    the report `operators.is_rota_baxter` returns, appending to stars, when
    given, each e_i star e_j that the sweep forms, in product order: after
    a passing sweep, stars[i * mdim + j] is e_i star e_j as ints over
    den1 * den2."""
    residual, n, den1 = _rota_baxter_law(alg, mod, op.rows, op.cols, stars)
    return _law_report("rota_baxter", "T(m).T(n) = T(l(Tm)n + r(Tn)m)", op,
                       residual, n, den1)


def _rota_baxter_module(alg: Algebra, mod: Bimodule, rows: int,
                        cols: int) -> Bimodule:
    """The bimodule whose integer view the Rota-Baxter law of a rows x cols
    candidate contracts, after the law's shape check: mod, or its actions
    over alg (`_rebased`).  A caller that reads that view as well
    passes the law this bimodule, so that the view is built once."""
    _check_shape(rows, cols, mod.mdim, alg.dim, "Rota-Baxter candidate")
    return _rebased(alg, mod)


def _rota_baxter_law(alg: Algebra, mod: Bimodule, rows: int, cols: int,
                     stars: Optional[list] = None) -> tuple:
    """(residual, n, den1) of the Rota-Baxter identity for a rows x cols
    candidate, after its shape check: residual(tcols, i, j) is the int
    residual, a list, at the module basis pair (i, j), i, j < n, of the
    operator with sparse int columns tcols on the view of
    `_rota_baxter_module(alg, mod, rows, cols)`, scale den1.  It is a
    homogeneous quadratic in the entries of tcols.  The star product inside
    it is `_star`'s; residual appends it to stars, when given."""
    d, md = alg.dim, mod.mdim
    prod, left, right, den1 = _rota_baxter_module(alg, mod, rows,
                                                  cols).int_view()

    def residual(tcols, i, j):
        star = [0] * md
        _star(left, right, tcols, i, j, star, star)
        if stars is not None:
            stars.append(star)
        out = _multiply(prod, d, tcols[i], tcols[j], [0] * d)
        return _subtract_image(tcols, enumerate(star), out)

    return residual, md, den1


def _star(left: list, right: list, tcols: list, i: int, j: int,
          succ: list, prec: list) -> None:
    """Add m_i > m_j = l(T m_i) m_j into succ and m_i < m_j = r(T m_j) m_i
    into prec, dense int lists, from the sparse int action columns of a
    bimodule view over D and the int columns tcols of T over D_T, so over
    D * D_T.  With succ and prec one list, it gains m_i star m_j."""
    for a, x in tcols[i]:
        for p, y in left[a][j]:
            succ[p] += x * y
    for a, x in tcols[j]:
        for p, y in right[a][i]:
            prec[p] += x * y


def _star_groups(stars: list) -> list:
    """The dense int star vectors as the sparse groups of an integer view:
    at pair index i * md + j, the nonzero entries of e_i star e_j."""
    return [tuple((k, x) for k, x in enumerate(star) if x) for star in stars]


def _star_algebra_of(groups: list, md: int, den: int) -> Algebra:
    """The algebra on M, dim M = md, whose integer view is (groups, den),
    laid out as `_star_groups` gives it."""
    return Algebra(MultiMap._of_view(2, md, md, groups, den),
                   tuple(f"m{i + 1}" for i in range(md)))


def induced_bimodule_on_base(alg: Algebra, mod: Bimodule, op: Matrix) -> Bimodule:
    """Bimodule of the induced algebra (M, star) acting back on A.

    For a Rota-Baxter operator op: M -> A the actions are
        l(m)(a) = op(m).a - op(r(a)m),   r(m)(a) = a.op(m) - op(l(a)m),
    and the base algebra of the result is the star-product algebra on M.
    `mod` is trusted: its constructor validates it unless told not to.
    The objects of `_induced_view`, which is their integer view.
    """
    return _induced_objects(_induced_view(alg, mod, op), alg.dim)


def _induced_view(alg: Algebra, mod: Bimodule, op: Matrix) -> tuple:
    """(prod, left, right, scale): the integer view of the bimodule that
    `induced_bimodule_on_base` returns, formed without building it, with
    its checks in its order: LinAlgError unless op has the shape of a map
    M -> A, ValueError unless op is Rota-Baxter, and, when the base is not
    anti-flexible, unless the actions form a bimodule.  The Rota-Baxter
    sweep forms each star vector e_i star e_j once (`_star`), and the
    view's star products are those vectors, laid out by `_star_groups`.
    star, l_T and r_T are ints over scale = D * D_T."""
    mod = _rota_baxter_module(alg, mod, op.rows, op.cols)
    stars = []
    _rota_baxter_sweep(alg, mod, op, stars).require(
        "operator is not Rota-Baxter")
    (prod, left, right, den), (tcols, den_t) = mod.int_view(), op.int_view()
    d, md = alg.dim, mod.mdim
    # column j of l_T(m_i) is T(m_i).e_j - T(r(e_j)m_i), and of r_T(m_i)
    # e_j.T(m_i) - T(l(e_j)m_i)
    lt, rt = [], []
    for i in range(md):
        tcol = tcols[i]
        lcols, rcols = [], []
        for j in range(d):
            lacc, racc = [0] * d, [0] * d
            for a, x in tcol:
                for k, z in prod[a * d + j]:
                    lacc[k] += x * z
                for k, z in prod[j * d + a]:
                    racc[k] += x * z
            _subtract_image(tcols, right[j][i], lacc)
            _subtract_image(tcols, left[j][i], racc)
            lcols.append(tuple((k, x) for k, x in enumerate(lacc) if x))
            rcols.append(tuple((k, x) for k, x in enumerate(racc) if x))
        lt.append(lcols)
        rt.append(rcols)
    view = (_star_groups(stars), lt, rt, den * den_t)
    # a bimodule when the base is anti-flexible (the paper); else validate
    if not anti_flexible_report(alg).ok:
        _view_report(md, d, view).require("not a bimodule")
    return view


def _induced_objects(view: tuple, adim: int) -> Bimodule:
    """The bimodule over (M, star) on A, dim A = adim, whose integer view
    is `view` (from `_induced_view`)."""
    prod, left, right, scale = view
    out = Bimodule(_star_algebra_of(prod, len(left), scale),
                   [Matrix._of_view(1, adim, adim, c, scale) for c in left],
                   [Matrix._of_view(1, adim, adim, c, scale) for c in right],
                   check=False, mdim=adim)
    out._view = view
    return out


def tilde_bimodule(mod: Bimodule, alg_op: Matrix, mod_op: Matrix) -> Bimodule:
    """Actions twisted by a Nijenhuis structure (N on A, S on M), built by
    `_twisted_actions` with sign -1:

        l~(a) = l(N(a)) - l(a) S + S l(a),
        r~(a) = r(N(a)) - r(a) S + S r(a),

    as a bimodule over the deformed algebra A_N = (A, ._N), validated there.
    (l~, r~) is the transpose-swap dual of the sign +1 twist of the dual
    bimodule (r^T, l^T) by (N, S^T), so it is a bimodule over A_N when
    (N, S^T) is a Nijenhuis structure on that dual; a Nijenhuis structure
    (N, S) alone does not make it one.
    """
    from .deformation import _nijenhuis_structure

    report, acted, _ = _nijenhuis_structure(mod.base, mod, alg_op, mod_op)
    report.require("not a Nijenhuis structure")
    return _tilde_bimodule(mod, alg_op, mod_op, acted)


def _tilde_bimodule(mod: Bimodule, alg_op: Matrix, mod_op: Matrix,
                    acted: tuple) -> Bimodule:
    """`tilde_bimodule` for a caller that has checked (N, S) and formed
    acted = `_image_actions(mod, N)`."""
    return Bimodule(deformed_product(mod.base, alg_op),
                    *_twisted_actions(mod, acted, mod_op, -1), mdim=mod.mdim)


def _image_actions(mod: Bimodule, alg_op: Matrix) -> tuple:
    """(l(N(e_i)) for each i, r(N(e_i)) for each i), formed once."""
    return tuple(tuple(linear_combination(alg_op.col(i), acts)
                       for i in range(mod.base.dim))
                 for acts in (mod.left, mod.right))


def _twisted_actions(mod: Bimodule, acted: tuple, mod_op: Matrix,
                     sign: int) -> tuple:
    """(left, right) with act(N(e_i)) + sign (act(e_i) S - S act(e_i)) for
    act = l and r, acted = `_image_actions(mod, N)`: sign -1 gives l~ and r~
    (`tilde_bimodule`), sign +1 phi and psi (`trivial_deformation_from`)."""
    return tuple(tuple(a_n + (a @ mod_op - mod_op @ a).scale(sign)
                       for a, a_n in zip(acts, acts_n))
                 for acts, acts_n in zip((mod.left, mod.right), acted))
