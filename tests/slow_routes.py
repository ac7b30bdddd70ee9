"""Slow forms of routes the package now takes more directly, kept as their
oracles.

Each function here is the form the package used before the direct one:

- `evaluate_all_tuples`: `MultiMap.evaluate` over every basis tuple, which
  skips a tuple once a coefficient on it is zero;
- `graph_check_direct_sum`: `operators.rb_morphism_graph_check` multiplying
  graph vectors in the direct sum of the two semidirect products (through
  `evaluate_all_tuples`);
- `graph_check_fractions`: `operators.rb_morphism_graph_check` on Fraction
  vectors, one component in each semidirect algebra (`Algebra.multiply`,
  `Matrix.apply`);
- `int_columns_every_row`: the sparse int columns of d_n on every row of
  C^{n+1}, each Q-term placed at its tuple and again, times the reversal
  sign, at the reversed tuple, where `cohomology.RBComplex` stores d_n on
  the rows it can differ on, placing each term through the layout of its
  shape;
- `dims_rank_each_degree`: `cohomology.RBComplex.dims` ranking each d_n
  before it checks d_{n+1} o d_n, on the columns of
  `int_columns_every_row`, with the unfolded check;
- `variant_s_squared_displayed`: the S^2-variant note of
  `deformation.is_nijenhuis_structure` in its displayed form, with S^2,
  l(a)S^2 and S l(a) S built from scratch;
- `twisted_actions_each`: act(N(e_i)) + sign (act(e_i) S - S act(e_i)),
  forming the action of N(e_i) anew for each twist;
- `eq_4_7_each`: the (4.7) compatibility l(N(a))S = S phi(a), forming
  l(N(a)) anew;
- `nijenhuis_structure_each`: the dual-route report of
  `deformation.is_nijenhuis_structure` from the three forms above, each
  forming the actions of the N(e_i) on its own;
- `tilde_bimodule_each`: the sign -1 twist over A_N from
  `twisted_actions_each`, built and validated without checking (N, S);
- `structure_power_oracle`: the verdict of the whole dual-route report on
  (N^p, S^p);
- `ledger_rederived`: `deformation.trivial_deformation_ledger` with omega,
  phi and psi derived again from their formulas;
- `structure_elements_rebuilt`: pi and delta = omega + phi + psi on A + M
  as `deformation._context` formed them from a bare (omega, phi, psi),
  rebuilding delta's bimodule and integer view through the public
  `glie.structure_element` on each call, with the module size of a
  generator over a 0-dimensional algebra taken from the ambient bimodule;
- `verify_rebuilt`: (closed, valid) of `deform verify`, each verdict
  forming pi, delta and [pi, delta] on its own;
- `deform_generate_each`: `deform generate` as three formations: the
  structure report, then the generator, then the ledger, each forming the
  actions, the twists and A_N anew;
- `algebra_predicate_dispatched`, `operator_predicate_dispatched`: the
  search predicates that read their name on every application;
- `search_algebras_each`: `search.search_algebras` building every
  candidate of the grid from its Fraction constants with the public
  constructors and applying the dispatched predicates to it, in sweep
  order;
- `search_operators_each`: `search.search_operators` building every
  candidate of the grid as a Matrix and applying the dispatched predicates
  to it, in sweep order;
- `quadratic_law_probed`: the rota-baxter or nijenhuis law of the operator
  search, found by probing the int residual of `bimodule._rota_baxter_law`
  or `operators._nijenhuis_law` on unit cells and pairs of cells, where the
  search now reads its terms off the integer views.
- `direct_sum_from_products`, `tensor_from_products`: `direct_sum` and
  `tensor_with_associative` built from the dense Fraction product of
  every basis pair through `Algebra.from_products`, where the package
  builds them from the nonzero entries of the two factors;
- `Violation`: the frozen dataclass that `reports.Violation` was, which
  holds its witness from the start, where the package's forms a hot law's
  witness on its first read.

None of them calls the package's twist, (4.7) or S^2 helpers: the actions
of elements are `linear_combination` of the action matrices, and products
are `Matrix @`.  None imports `antiflex.deformation` beyond
`block_operator`; from `antiflex.search`, `search_operators_each` reads
only the ceiling, the progress interval and the refusal type, at call
time.
"""

import itertools
import sys
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from antiflex.algebra import (Algebra, _semidirect_product, classify,
                              deformed_product, direct_sum)
from antiflex.bimodule import Bimodule, _rebased, _rota_baxter_law
from antiflex.cohomology import ComplexError, ComplexReport, _check_degree
from antiflex.deformation import block_operator
from antiflex.glie import (HARD_ARITY_CAP, _structure_element, compose_bar,
                           graded_bracket, structure_element)
from antiflex.linalg import (LinAlgError, Matrix, MultiMap, basis_vector,
                             int_cols_rank, linear_combination, vec_is_zero,
                             vec_sub)
from antiflex.operators import (_check_operator_shape, _is_algebra_morphism,
                                _nijenhuis_law, is_nijenhuis, is_rota_baxter)
from antiflex.reports import CheckReport


@dataclass(frozen=True)
class Violation:
    law: str
    where: tuple
    residual: Any

    def describe(self) -> str:
        return f"{self.law} fails at basis tuple {self.where}: residual {self.residual}"


def evaluate_all_tuples(mm, *args):
    if len(args) != mm.arity:
        raise LinAlgError(f"expected {mm.arity} arguments, got {len(args)}")
    for a in args:
        if len(a) != mm.in_dim:
            raise LinAlgError("argument has wrong dimension")
    out_dim = mm.out_dim
    out = [Fraction(0)] * out_dim
    for idx in itertools.product(range(mm.in_dim), repeat=mm.arity):
        c = Fraction(1)
        for a, i in zip(args, idx):
            c *= a[i]
            if c == 0:
                break
        if c == 0:
            continue
        val = mm.value(idx)
        for k in range(out_dim):
            if val[k]:
                out[k] += c * val[k]
    return tuple(out)


def graph_check_direct_sum(alg, mod, op, alg2, mod2, op2, phi, psi):
    _check_operator_shape(phi, alg.dim, alg2.dim, "algebra map")
    _check_operator_shape(psi, mod.mdim, mod2.mdim, "module map")
    semi1 = _semidirect_product(alg, mod)
    semi2 = _semidirect_product(alg2, mod2)
    both = direct_sum(semi1, semi2)
    d1, n1 = alg.dim, alg.dim + mod.mdim

    def pair_map(x):
        a, m = x[:d1], x[d1:]
        return tuple(phi.apply(a)) + tuple(psi.apply(m))

    def embed(x):
        return tuple(x) + pair_map(x)

    for i, j in itertools.product(range(n1), repeat=2):
        u = embed(basis_vector(i, n1))
        v = embed(basis_vector(j, n1))
        w = evaluate_all_tuples(both.mul, u, v)
        first, second = w[:n1], w[n1:]
        if not vec_is_zero(vec_sub(second, pair_map(first))):
            return False
    for i in range(mod.mdim):
        graph_image = tuple(phi.apply(op.col(i))) + tuple(psi.col(i))
        expected = tuple(op2.apply(psi.col(i))) + tuple(psi.col(i))
        if not vec_is_zero(vec_sub(graph_image, expected)):
            return False
    return True


def graph_check_fractions(alg, mod, op, alg2, mod2, op2, phi, psi):
    _check_operator_shape(phi, alg.dim, alg2.dim, "algebra map")
    _check_operator_shape(psi, mod.mdim, mod2.mdim, "module map")
    semi1 = _semidirect_product(alg, mod)
    semi2 = _semidirect_product(alg2, mod2)
    d1, n1 = alg.dim, alg.dim + mod.mdim

    def pair_map(x):
        a, m = x[:d1], x[d1:]
        return tuple(phi.apply(a)) + tuple(psi.apply(m))

    images = [pair_map(basis_vector(i, n1)) for i in range(n1)]
    for i, j in itertools.product(range(n1), repeat=2):
        first = semi1.basis_product(i, j)
        second = semi2.multiply(images[i], images[j])
        if not vec_is_zero(vec_sub(second, pair_map(first))):
            return False
    for i in range(mod.mdim):
        graph_image = tuple(phi.apply(op.col(i))) + tuple(psi.col(i))
        expected = tuple(op2.apply(psi.col(i))) + tuple(psi.col(i))
        if not vec_is_zero(vec_sub(graph_image, expected)):
            return False
    return True


def int_columns_every_row(cx, degree):
    _check_degree(degree)
    m, a, n = cx.mdim, cx.adim, degree
    prod, left, right, _ = cx._view
    identity = [[(k, 1)] for k in range(a)]
    products = [[] for _ in range(m)]
    for uv, img in enumerate(prod):
        for t, c in img:
            products[t].append((uv, c))
    sign = -1 if n % 2 else 1
    outer = sign if n else -1
    rev = (-1 if (n * (n + 1) // 2) % 2 else 1) if n >= 2 else 0
    size = m ** n
    weights = [m ** (n - 1 - s) for s in range(n)]
    flip = [_reversed_digits(x, m, n + 1) for x in range(m * size)]
    cols = []
    for y in range(size):
        terms = []
        for z in range(m):
            terms.append((y * m + z, right[z], outer))
            terms.append((z * size + y, left[z], -sign * outer))
        for s, w in enumerate(weights):
            coeff = outer * sign * (-1 if s % 2 else 1)
            head, rest = divmod(y, w * m)
            digit, tail = divmod(rest, w)
            for uv, c in products[digit]:
                terms.append((head * m * m * w + uv * w + tail, identity,
                              coeff * c))
        if rev:
            terms += [(flip[x], action, rev * c) for x, action, c in terms]
        terms = [(x * a, action, c) for x, action, c in terms]
        for k in range(a):
            column = {}
            for row, action, c in terms:
                for kk, w in action[k]:
                    column[row + kk] = column.get(row + kk, 0) + c * w
            cols.append(sorted((r, x) for r, x in column.items() if x))
    return cols


def _reversed_digits(x, m, length):
    out = 0
    for _ in range(length):
        x, digit = divmod(x, m)
        out = out * m + digit
    return out


def dims_rank_each_degree(cx, max_degree):
    _check_degree(max_degree)
    rows = []
    prev_rank = 0
    prev_cols = []
    for n in range(max_degree + 1):
        cols = int_columns_every_row(cx, n)
        for j, img in enumerate(prev_cols):
            acc = {}
            for i, x in img:
                for r, y in cols[i]:
                    acc[r] = acc.get(r, 0) + x * y
            if any(acc.values()):
                raise ComplexError(
                    f"image of d_{n - 1} not contained in kernel of d_{n}"
                    f" (generator {j})")
        c = cx.dim_cochains(n)
        rank = int_cols_rank(cols)
        rows.append((n, c, c - rank, prev_rank, c - rank - prev_rank))
        prev_rank, prev_cols = rank, cols
    return ComplexReport(rows)


def variant_s_squared_displayed(mod, alg_op, mod_op, use_left):
    """l(Na)S = S l(Na) + l(a)S^2 - S l(a) S on every basis element a (or
    with r)."""
    actions = mod.left if use_left else mod.right
    s2 = mod_op @ mod_op
    for i in range(mod.base.dim):
        acted = linear_combination(alg_op.col(i), actions)
        res = acted @ mod_op - (mod_op @ acted + actions[i] @ s2
                                - mod_op @ actions[i] @ mod_op)
        if not res.is_zero():
            return False
    return True


def twisted_actions_each(mod, alg_op, mod_op, sign):
    def twisted(acts):
        return tuple(linear_combination(alg_op.col(i), acts)
                     + (acts[i] @ mod_op - mod_op @ acts[i]).scale(sign)
                     for i in range(mod.base.dim))

    return twisted(mod.left), twisted(mod.right)


def eq_4_7_each(mod, alg_op, mod_op, phi, use_left):
    actions = mod.left if use_left else mod.right
    for i in range(mod.base.dim):
        acted = linear_combination(alg_op.col(i), actions)
        if not (acted @ mod_op - mod_op @ phi[i]).is_zero():
            return False
    return True


def nijenhuis_structure_each(alg, mod, alg_op, mod_op):
    if alg_op.rows != alg.dim or mod_op.rows != mod.mdim:
        raise LinAlgError("operator shapes do not match the pair")
    primary = is_nijenhuis(_semidirect_product(alg, mod),
                           block_operator(alg_op, mod_op))
    phi, psi = twisted_actions_each(mod, alg_op, mod_op, 1)
    report = CheckReport("nijenhuis_structure")
    report.merge(primary)
    report.notes["primary_semidirect"] = primary.ok
    report.notes["secondary_componentwise"] = (
        is_nijenhuis(alg, alg_op).ok
        and eq_4_7_each(mod, alg_op, mod_op, phi, True)
        and eq_4_7_each(mod, alg_op, mod_op, psi, False))
    for side, use_left in (("left", True), ("right", False)):
        report.notes[f"variant_s_squared_{side}"] = \
            variant_s_squared_displayed(mod, alg_op, mod_op, use_left)
    return report


def tilde_bimodule_each(mod, alg_op, mod_op):
    return Bimodule(deformed_product(mod.base, alg_op),
                    *twisted_actions_each(mod, alg_op, mod_op, -1))


def structure_power_oracle(alg, mod, alg_op, mod_op, power):
    return bool(nijenhuis_structure_each(alg, mod, alg_op.power(power),
                                         mod_op.power(power)))


def ledger_rederived(alg, mod, alg_op, mod_op, defo):
    phi, psi = twisted_actions_each(mod, alg_op, mod_op, 1)
    out = {}
    out["omega_formula"] = defo.omega == deformed_product(alg, alg_op).mul
    out["omega_nijenhuis_compat"] = _is_algebra_morphism(
        Algebra(defo.omega), alg, alg_op)
    out["phi_formula"] = all(defo.phi[i] == phi[i] for i in range(alg.dim))
    out["phi_s_compat"] = eq_4_7_each(mod, alg_op, mod_op, defo.phi, True)
    out["psi_formula"] = all(defo.psi[i] == psi[i] for i in range(alg.dim))
    out["psi_s_compat"] = eq_4_7_each(mod, alg_op, mod_op, defo.psi, False)
    return out


Generator = namedtuple("Generator", "omega phi psi")


def structure_elements_rebuilt(alg, mod, defo):
    mdim = defo.phi[0].rows if defo.phi else 0
    if defo.omega.dim != alg.dim or (alg.dim and mdim != mod.mdim):
        raise LinAlgError("deformation does not match the ambient pair")
    return (_structure_element(_rebased(alg, mod)),
            structure_element(defo.omega, defo.phi, defo.psi, mod.mdim))


def verify_rebuilt(alg, mod, defo):
    pi, delta = structure_elements_rebuilt(alg, mod, defo)
    closed = graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero()
    pi, delta = structure_elements_rebuilt(alg, mod, defo)
    valid = (graded_bracket(pi, delta, HARD_ARITY_CAP).is_zero()
             and compose_bar(delta, delta, HARD_ARITY_CAP).is_zero())
    return closed, valid


def deform_generate_each(alg, mod, alg_op, mod_op):
    """(report, generator, ledger, valid); the last three are None when
    (N, S) is no Nijenhuis structure."""
    report = nijenhuis_structure_each(alg, mod, alg_op, mod_op)
    if not report.ok:
        return report, None, None, None
    defo = Generator(deformed_product(alg, alg_op).mul,
                     *twisted_actions_each(mod, alg_op, mod_op, 1))
    return (report, defo, ledger_rederived(alg, mod, alg_op, mod_op, defo),
            verify_rebuilt(alg, mod, defo)[1])


def algebra_predicate_dispatched(name):
    base = name[4:] if name.startswith("not-") else name
    if base not in ("anti-flexible", "flexible", "associative",
                    "commutative"):
        raise ValueError(f"unknown algebra predicate {name!r}")

    def check(alg):
        if base == "commutative":
            value = alg.is_commutative()
        else:
            value = getattr(classify(alg), base.replace("-", "_"))
        return not value if name.startswith("not-") else value

    return check


def operator_predicate_dispatched(name, alg, mod):
    base = name[4:] if name.startswith("not-") else name
    if base not in ("rota-baxter", "nijenhuis", "nonzero", "scalar",
                    "invertible"):
        raise ValueError(f"unknown operator predicate {name!r}")

    def check(op):
        if base == "rota-baxter":
            if mod is None:
                raise ValueError("rota-baxter predicate needs a bimodule")
            value = bool(is_rota_baxter(alg, mod, op))
        elif base == "nijenhuis":
            value = bool(is_nijenhuis(alg, op))
        elif base == "nonzero":
            value = not op.is_zero()
        elif base == "scalar":
            value = (op.is_square() and op == Matrix.identity(op.rows).scale(
                op[0, 0] if op.rows else 1))
        else:
            value = op.is_square() and op.inverse() is not None
        return not value if name.startswith("not-") else value

    return check


def _grid_each(coeffs, cells, progress):
    from antiflex import search
    values = sorted(set(Fraction(c) for c in coeffs))
    total = len(values) ** cells
    if total > search.CANDIDATE_CEILING:
        raise search.SearchSpaceError(
            f"{len(values)}^{cells} = {total} candidates exceed the "
            f"ceiling {search.CANDIDATE_CEILING}")
    count = 0
    for entries in itertools.product(values, repeat=cells):
        count += 1
        if progress and count % search.PROGRESS_EVERY == 0:
            print(f"search: {count}/{total} candidates scanned",
                  file=sys.stderr)
        yield entries


def search_algebras_each(dim, coeffs, predicates, limit=None):
    if dim < 0:
        raise ValueError(f"search dimension must be nonnegative, got {dim}")
    if limit is not None and limit < 0:
        raise ValueError(f"search limit must be nonnegative, got {limit}")
    checks = [algebra_predicate_dispatched(p) for p in predicates]
    hits = []
    for entries in _grid_each(coeffs, dim ** 3, False):
        if len(hits) == limit:
            break
        alg = Algebra(MultiMap(2, dim, entries))
        if all(check(alg) for check in checks):
            hits.append(alg)
    return hits


def search_operators_each(alg, mod, coeffs, predicates,
                          shape="module-to-algebra", limit=None,
                          progress=False):
    if shape not in ("module-to-algebra", "algebra-endo", "module-endo"):
        raise ValueError(f"unknown operator search shape {shape!r}")
    if shape != "algebra-endo" and mod is None:
        raise ValueError(f"{shape} search needs a bimodule")
    rows = mod.mdim if shape == "module-endo" else alg.dim
    cols = alg.dim if shape == "algebra-endo" else mod.mdim
    if limit is not None and limit < 0:
        raise ValueError(f"search limit must be nonnegative, got {limit}")
    checks = [operator_predicate_dispatched(p, alg, mod) for p in predicates]
    hits = []
    for entries in _grid_each(coeffs, rows * cols, progress):
        if len(hits) == limit:
            break
        op = Matrix(rows, cols, entries)
        if all(check(op) for check in checks):
            hits.append(op)
    return hits


def quadratic_law_probed(name, alg, mod, rows, cols):
    """The components of the "rota-baxter" or "nijenhuis" law of a rows x
    cols operator, each a dict {monomial: nonzero int coefficient} with a
    monomial (a, b), a <= b, standing for cell a * cell b (cell r * cols + c
    is the entry (r, c)); refused as the law refuses the frame.  A
    homogeneous quadratic Q is fixed by its values Q(E_a) = q_aa on the
    unit cells and Q(E_a + E_b) = q_aa + q_bb + q_ab on their pairs."""
    if name == "rota-baxter":
        if mod is None:
            raise ValueError("rota-baxter predicate needs a bimodule")
        residual, n, _ = _rota_baxter_law(alg, mod, rows, cols)
    else:
        residual, n, _ = _nijenhuis_law(alg, rows, cols)
    pairs = list(itertools.product(range(n), repeat=2))

    def at(units):
        tcols = [[] for _ in range(cols)]
        for c in units:
            tcols[c % cols].append((c // cols, 1))
        return [x for i, j in pairs for x in residual(tcols, i, j)]

    terms = {}
    diag = [at((a,)) for a in range(rows * cols)]
    for a, values in enumerate(diag):
        for t, q in enumerate(values):
            if q:
                terms.setdefault(t, {})[(a, a)] = q
    for a, b in itertools.combinations(range(rows * cols), 2):
        for t, (q, qa, qb) in enumerate(zip(at((a, b)), diag[a], diag[b])):
            if q != qa + qb:
                terms.setdefault(t, {})[(a, b)] = q - qa - qb
    return list(terms.values())


def direct_sum_from_products(alg, other):
    """`algebra.direct_sum` from the dense Fraction product of every basis
    pair of each summand, fed through `Algebra.from_products`."""
    products = {}
    for off, part in ((0, alg), (alg.dim, other)):
        for i, j in itertools.product(range(part.dim), repeat=2):
            products[(off + i, off + j)] = {
                off + k: x for k, x in enumerate(part.basis_product(i, j))}
    labels = (tuple(f"a.{x}" for x in alg.labels)
              + tuple(f"b.{x}" for x in other.labels))
    return Algebra.from_products(alg.dim + other.dim, products, labels)


def tensor_from_products(alg, other):
    """`algebra.tensor_with_associative` from the dense Fraction products
    of every pair of basis pairs, fed through `Algebra.from_products`."""
    if not classify(other).associative:
        raise ValueError("tensor factor must be associative")
    d1, d2 = alg.dim, other.dim
    products = {}
    for i, j, p, q in itertools.product(range(d1), range(d1), range(d2),
                                        range(d2)):
        va, vb = alg.basis_product(i, j), other.basis_product(p, q)
        products[(i * d2 + p, j * d2 + q)] = {
            k * d2 + r: a * b for k, a in enumerate(va)
            for r, b in enumerate(vb)}
    labels = tuple(f"{la}*{lb}" for la in alg.labels for lb in other.labels)
    return Algebra.from_products(d1 * d2, products, labels)
