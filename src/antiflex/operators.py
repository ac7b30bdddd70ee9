"""Operator-level predicates and constructions: Rota-Baxter operators,
Nijenhuis operators, graph characterizations, induced pre-anti-flexible
products, operator morphisms, and the Lie-algebra Rota-Baxter check.

Operators are plain Matrix values; a map M -> A is a (dim A) x (dim M)
matrix acting on coefficient columns.

`is_rota_baxter` and `is_nijenhuis` contract the integer views of the
bimodule (constants and actions over one scale D1) or algebra, and of the
operator (scale D2); each object builds its view once.  Both residuals are
linear in the constants and quadratic in the operator, so on the views they
are exactly D1*D2**2 times the true ones: the same basis pairs fail, and the
witness is rebuilt as Fraction(int_residual, D1*D2**2).  Each residual is
written once as a function of the operator's sparse int columns, the
Nijenhuis one here (`_nijenhuis_law`) and the Rota-Baxter one in
`bimodule._rota_baxter_law`, and `reports._law_report` runs either over the
basis pairs in a plain double loop that records only the first failure,
whose witness the report forms when it is read.  `is_rota_baxter` returns
the report of that sweep (`bimodule._rota_baxter_sweep`).  `search` calls
`bimodule._rota_baxter_module` and `_nijenhuis_law` for their shape
refusals and reads each law as a quadratic form in the entries off the
same views.  The induced products star, > and < are linear in both, so
ints over D1*D2.

The star contraction m_i star m_j = l(T m_i) m_j + r(T m_j) m_i is written
once (`bimodule._star`), and the splitting > and < here reads it too.
`star_algebra` hands the Rota-Baxter sweep a list, which keeps each star
vector the sweep forms, so it contracts each basis pair once, as
`bimodule._induced_view` does; both lay the vectors out as the sparse
groups of the star algebra's integer view (`bimodule._star_groups`), and
`bimodule._star_algebra_of` builds the algebra from them.
"""

from __future__ import annotations

import itertools
import math
from typing import Tuple

from .algebra import (Algebra, LieAlgebra, _check_base, _deformed,
                      _multiply, _semidirect_product, _shifted,
                      _structure_element, _subtract_image,
                      anti_flexible_report, deformed_product)
from .bimodule import (Bimodule, LieRepresentation, _check_shape,
                       _rota_baxter_module, _rota_baxter_sweep, _star,
                       _star_algebra_of, _star_groups)
from .glie import compose_bar, embed_blocks
from .linalg import (LinAlgError, Matrix, MultiMap, Vector, _rescaled,
                     basis_vector, linear_combination, vec_is_zero, vec_sub)
from .reports import CheckReport, _law_report

__all__ = [
    "is_rota_baxter",
    "rb_graph_is_subalgebra",
    "is_nijenhuis",
    "nijenhuis_power_suite",
    "nt_nijenhuis_equivalence",
    "PreAntiFlexible",
    "induced_pre_anti_flexible",
    "star_algebra",
    "is_rb_morphism",
    "rb_morphism_graph_check",
    "rb_morphism_preserves_pre_structure",
    "is_lie_rota_baxter",
]


def _check_operator_shape(op: Matrix, src_dim: int, dst_dim: int, what: str):
    _check_shape(op.rows, op.cols, src_dim, dst_dim, what)


def is_rota_baxter(alg: Algebra, mod: Bimodule, op: Matrix) -> CheckReport:
    """T(m).T(n) = T(l(T(m))n + r(T(n))m) on all basis pairs of the module."""
    return _rota_baxter_sweep(alg, mod, op)


def rb_graph_is_subalgebra(alg: Algebra, mod: Bimodule, op: Matrix) -> bool:
    """Whether Gr(T) = {(T(m), m)} is closed in the semidirect product.

    Independent route to the Rota-Baxter identity: multiplies embedded graph
    vectors inside the semidirect algebra and tests graph membership.
    """
    _check_operator_shape(op, mod.mdim, alg.dim, "Rota-Baxter candidate")
    semi = _semidirect_product(alg, mod)
    d, md = alg.dim, mod.mdim

    def embed(i: int) -> Vector:
        return tuple(op.col(i)) + basis_vector(i, md)

    for i, j in itertools.product(range(md), repeat=2):
        w = semi.multiply(embed(i), embed(j))
        a_part, m_part = w[:d], w[d:]
        if not vec_is_zero(vec_sub(a_part, op.apply(m_part))):
            return False
    return True


def is_nijenhuis(alg: Algebra, op: Matrix) -> CheckReport:
    """Vanishing Nijenhuis torsion: N(a).N(b) = N(Na.b + a.Nb - N(a.b))."""
    return _law_report("nijenhuis", "N(a)N(b) = N(Na.b + a.Nb - N(ab))", op,
                       *_nijenhuis_law(alg, op.rows, op.cols))


def _nijenhuis_law(alg: Algebra, rows: int, cols: int) -> tuple:
    """(residual, n, den1) of the Nijenhuis torsion for a rows x cols
    candidate, after its shape check, as `_rota_baxter_law` gives them for
    the Rota-Baxter identity: residual(ncols, i, j) at the algebra basis
    pair (i, j) on the view of alg."""
    if rows != cols or rows != alg.dim:
        raise LinAlgError("Nijenhuis candidate must be square of the algebra dimension")
    d = alg.dim
    prod, den1 = alg.int_view()

    def residual(ncols, i, j):
        out = _multiply(prod, d, ncols[i], ncols[j], [0] * d)
        inner = _deformed(prod, ncols, d, i, j, [0] * d)
        return _subtract_image(ncols, enumerate(inner), out)

    return residual, d, den1


def nijenhuis_power_suite(alg: Algebra, op: Matrix, k: int, l: int) -> dict:
    """Five exact checks on the powers of a Nijenhuis operator.

    Returns a dict of named booleans:
      deformed_anti_flexible   (A, ._{N^k}) is anti-flexible
      power_nijenhuis          N^l is Nijenhuis on (A, ._{N^k})
      tower_composition        (._{N^k})_{N^l} equals ._{N^{k+l}} as tensors
      linear_combinations      every a ._{N^k} + b ._{N^l} combination is
                               anti-flexible, verified coefficientwise in (a, b)
      power_homomorphism       N^l : (A, ._{N^{k+l}}) -> (A, ._{N^k})
    """
    if k < 0 or l < 0 or k > 3 or l > 3:
        raise ValueError("powers must lie in [0, 3]")
    is_nijenhuis(alg, op).require("operator is not Nijenhuis")

    nk = op.power(k)
    nl = op.power(l)
    alg_k = deformed_product(alg, nk)
    alg_l = deformed_product(alg, nl)
    alg_kl = deformed_product(alg, op.power(k + l))

    out = {}
    out["deformed_anti_flexible"] = anti_flexible_report(alg_k).ok
    out["power_nijenhuis"] = bool(is_nijenhuis(alg_k, nl))
    out["tower_composition"] = deformed_product(alg_k, nl).mul == alg_kl.mul

    # the anti-flexible defect of a product p is compose_bar(p, p), so the
    # defect of a p_k + b p_l has these three coefficients in (a, b)
    pk, pl = alg_k.mul, alg_l.mul
    coeff_sq_k = compose_bar(pk, pk)
    coeff_sq_l = compose_bar(pl, pl)
    coeff_mixed = compose_bar(pk, pl) + compose_bar(pl, pk)
    out["linear_combinations"] = (coeff_sq_k.is_zero() and coeff_sq_l.is_zero()
                                  and coeff_mixed.is_zero())
    out["power_homomorphism"] = _is_algebra_morphism(alg_kl, alg_k, nl)
    return out


def nt_operator(alg: Algebra, mod: Bimodule, op: Matrix) -> Matrix:
    """The block operator [[0, T], [0, 0]] on A + M (A indices first)."""
    _check_operator_shape(op, mod.mdim, alg.dim, "block entry T")
    d = alg.dim
    return embed_blocks(op, d, 0, d + mod.mdim).as_matrix()


def nt_nijenhuis_equivalence(alg: Algebra, mod: Bimodule, op: Matrix) -> Tuple[bool, bool]:
    """(is Rota-Baxter, induced block operator is Nijenhuis on the semidirect)."""
    rb = bool(is_rota_baxter(alg, mod, op))
    semi = _semidirect_product(alg, mod)
    nij = bool(is_nijenhuis(semi, nt_operator(alg, mod, op)))
    return rb, nij


class PreAntiFlexible:
    """Two products (prec, succ) subject to the splitting identities."""

    __slots__ = ("dim", "prec", "succ")

    def __init__(self, prec: MultiMap, succ: MultiMap):
        if prec.arity != 2 or succ.arity != 2 or prec.dim != succ.dim:
            raise LinAlgError("both products must be arity-2 tensors on the same space")
        self.prec = prec
        self.succ = succ
        self.dim = prec.dim
        self.validate().require("not pre-anti-flexible")

    def total(self) -> MultiMap:
        """The sum product a*b = a<b + a>b."""
        return self.prec + self.succ

    def validate(self) -> CheckReport:
        d = self.dim
        star = self.total()
        prec, succ = self.prec, self.succ

        def anti_flexible_law(i, j, k):
            ei, ek = basis_vector(i, d), basis_vector(k, d)
            lhs = vec_sub(prec.evaluate(succ.value((i, j)), ek),
                          succ.evaluate(ei, prec.value((j, k))))
            rhs = vec_sub(prec.evaluate(succ.value((k, j)), ei),
                          succ.evaluate(ek, prec.value((j, i))))
            return vec_sub(lhs, rhs)

        def splitting_law(i, j, k):
            ei, ek = basis_vector(i, d), basis_vector(k, d)
            lhs = vec_sub(succ.evaluate(star.value((i, j)), ek),
                          succ.evaluate(ei, succ.value((j, k))))
            rhs = vec_sub(prec.evaluate(prec.value((i, j)), ek),
                          prec.evaluate(ei, star.value((j, k))))
            return vec_sub(lhs, rhs)

        return (CheckReport("pre_anti_flexible")
                .sweep("(a>b)<c - a>(b<c) = (c>b)<a - c>(b<a)",
                       itertools.product(range(d), repeat=3), anti_flexible_law)
                .sweep("(a*b)>c - a>(b>c) = (a<b)<c - a<(b*c)",
                       itertools.product(range(d), repeat=3), splitting_law))


def induced_pre_anti_flexible(alg: Algebra, mod: Bimodule, op: Matrix) -> PreAntiFlexible:
    """The splitting on M induced by a Rota-Baxter operator:
    m > n = l(T(m))n and m < n = r(T(n))m."""
    is_rota_baxter(alg, mod, op).require("operator is not Rota-Baxter")
    md = mod.mdim
    _, left, right, den1 = mod.int_view()
    tcols, den2 = op.int_view()
    prec, succ = {}, {}
    for i, j in itertools.product(range(md), repeat=2):
        succ_ij, prec_ij = [0] * md, [0] * md
        _star(left, right, tcols, i, j, succ_ij, prec_ij)
        for p in range(md):
            prec[(i, j, p)], succ[(i, j, p)] = prec_ij[p], succ_ij[p]
    return PreAntiFlexible(MultiMap._of_ints(2, md, md, prec, den1 * den2),
                           MultiMap._of_ints(2, md, md, succ, den1 * den2))


def star_algebra(alg: Algebra, mod: Bimodule, op: Matrix) -> Algebra:
    """The induced algebra on M: m star n = r(T(n))m + l(T(m))n, from the
    star vectors that the Rota-Baxter sweep forms."""
    mod = _rota_baxter_module(alg, mod, op.rows, op.cols)
    stars = []
    _rota_baxter_sweep(alg, mod, op, stars).require(
        "operator is not Rota-Baxter")
    return _star_algebra_of(_star_groups(stars), mod.mdim,
                            mod.int_view()[3] * op.int_view()[1])


def _star_product(mod: Bimodule, op: Matrix) -> Algebra:
    """`star_algebra` without the Rota-Baxter check, for callers that have
    checked the operator already or form the product of any operator."""
    _, left, right, den1 = mod.int_view()
    tcols, den2 = op.int_view()
    md = mod.mdim
    stars = [[0] * md for _ in range(md * md)]
    for i, j in itertools.product(range(md), repeat=2):
        _star(left, right, tcols, i, j, stars[i * md + j], stars[i * md + j])
    return _star_algebra_of(_star_groups(stars), md, den1 * den2)


def _is_algebra_morphism(src: Algebra, dst: Algebra, phi: Matrix) -> bool:
    for i, j in itertools.product(range(src.dim), repeat=2):
        lhs = phi.apply(src.basis_product(i, j))
        rhs = dst.multiply(phi.col(i), phi.col(j))
        if not vec_is_zero(vec_sub(lhs, rhs)):
            return False
    return True


def is_rb_morphism(alg: Algebra, mod: Bimodule, op: Matrix,
                   alg2: Algebra, mod2: Bimodule, op2: Matrix,
                   phi: Matrix, psi: Matrix) -> CheckReport:
    """Morphism of Rota-Baxter operators: phi an algebra morphism with

        T' psi = phi T,
        l(phi(a)) psi(m) = psi(l(a)m),   r(phi(a)) psi(m) = psi(r(a)m).
    """
    _check_operator_shape(op, mod.mdim, alg.dim, "source operator")
    _check_operator_shape(op2, mod2.mdim, alg2.dim, "target operator")
    _check_operator_shape(phi, alg.dim, alg2.dim, "algebra map")
    _check_operator_shape(psi, mod.mdim, mod2.mdim, "module map")
    for name, a, m, t in (("source", alg, mod, op), ("target", alg2, mod2, op2)):
        is_rota_baxter(a, m, t).require(f"{name} operator is not Rota-Baxter")

    report = CheckReport("rb_morphism")
    if not _is_algebra_morphism(alg, alg2, phi):
        report.fail("phi(a.b) = phi(a).phi(b)", (), None)
        return report
    res = op2 @ psi - phi @ op
    if not res.is_zero():
        report.fail("T' psi = phi T", (), res)
        return report
    for i in range(alg.dim):
        pa = phi.col(i)
        left_res = linear_combination(pa, mod2.left) @ psi - psi @ mod.left[i]
        if not left_res.is_zero():
            report.fail("l(phi(a)) psi = psi l(a)", (i,), left_res)
            return report
        right_res = linear_combination(pa, mod2.right) @ psi - psi @ mod.right[i]
        if not right_res.is_zero():
            report.fail("r(phi(a)) psi = psi r(a)", (i,), right_res)
            return report
    return report


def rb_morphism_graph_check(alg: Algebra, mod: Bimodule, op: Matrix,
                            alg2: Algebra, mod2: Bimodule, op2: Matrix,
                            phi: Matrix, psi: Matrix) -> bool:
    """Graph route to the morphism property.

    Checks that the graph of (phi, psi) is closed under the componentwise
    product of the two semidirect algebras, and that (phi, psi) carries the
    graph of the source operator into the graph of the target one.  The
    product (x, Fx)(y, Fy) = (xy, Fx Fy) of two graph vectors is formed one
    component in each semidirect algebra.

    Runs on ints: each semidirect product is the integer view of
    `algebra._structure_element` (over the view's own denominator, which need
    not be the map's), F = phi + psi acts through the views of phi and psi
    rescaled to one denominator, and each comparison is cross-multiplied by
    the denominators of the other side.
    """
    _check_operator_shape(phi, alg.dim, alg2.dim, "algebra map")
    _check_operator_shape(psi, mod.mdim, mod2.mdim, "module map")
    _check_operator_shape(op, mod.mdim, alg.dim, "source operator")
    _check_operator_shape(op2, mod2.mdim, alg2.dim, "target operator")
    _check_base(alg, mod)
    _check_base(alg2, mod2)
    semi1, semi2 = _structure_element(mod), _structure_element(mod2)
    n1, n2, d1, d2 = semi1.dim, semi2.dim, alg.dim, alg2.dim
    (prod1, s1), (prod2, s2) = semi1.int_view(), semi2.int_view()
    (pcols, pden), (scols, sden) = phi.int_view(), psi.int_view()
    den = math.lcm(pden, sden)
    # the columns of F on A + M, over den
    fcols = (_rescaled(pcols, pden, den)
             + _shifted(_rescaled(scols, sden, den), d2))
    for i, j in itertools.product(range(n1), repeat=2):
        # F(e_i) F(e_j) over den**2 * s2 against F(e_i e_j) over den * s1
        lhs = _multiply(prod2, n2, fcols[i], fcols[j], [0] * n2)
        first = [(k, x * den * s2) for k, x in prod1[i * n1 + j]]
        if any(_subtract_image(fcols, first, [x * s1 for x in lhs])):
            return False
    (tcols, tden), (t2cols, t2den) = op.int_view(), op2.int_view()
    for i in range(mod.mdim):
        # F(T e_i, e_i) = (a, m) over den * tden lies on the graph of T'
        # (over t2den) when a * t2den = T'(m); image is -(a, m), on which
        # the linear condition reads the same
        image = _subtract_image(fcols, tcols[i] + ((d1 + i, tden),),
                                [0] * n2)
        acc = [x * t2den for x in image[:d2]]
        if any(_subtract_image(t2cols, enumerate(image[d2:]), acc)):
            return False
    return True


def rb_morphism_preserves_pre_structure(alg: Algebra, mod: Bimodule, op: Matrix,
                                        alg2: Algebra, mod2: Bimodule, op2: Matrix,
                                        phi: Matrix, psi: Matrix) -> bool:
    """Whether psi intertwines the induced pre-anti-flexible products."""
    is_rb_morphism(alg, mod, op, alg2, mod2, op2, phi, psi).require(
        "not a Rota-Baxter morphism")
    src = induced_pre_anti_flexible(alg, mod, op)
    dst = induced_pre_anti_flexible(alg2, mod2, op2)
    return (_is_algebra_morphism(Algebra(src.prec), Algebra(dst.prec), psi)
            and _is_algebra_morphism(Algebra(src.succ), Algebra(dst.succ), psi))


def is_lie_rota_baxter(lie: LieAlgebra, rep: LieRepresentation, op: Matrix) -> CheckReport:
    """[T(m), T(n)] = T(rho(Tm)n - rho(Tn)m) on all basis pairs."""
    _check_operator_shape(op, rep.mdim, lie.dim, "Lie Rota-Baxter candidate")

    def residual(i, j):
        tm, tn = op.col(i), op.col(j)
        inner = vec_sub(linear_combination(tm, rep.rho).col(j),
                        linear_combination(tn, rep.rho).col(i))
        return vec_sub(lie.bracket.evaluate(tm, tn), op.apply(inner))

    return CheckReport("lie_rota_baxter").sweep(
        "[Tm,Tn] = T(rho(Tm)n - rho(Tn)m)",
        itertools.product(range(rep.mdim), repeat=2), residual)
