"""Seeded, deterministic inputs for the benchmark, in plain Python data.

Nothing here imports the package: structures are plain tuples of
`Fraction`s, so the generator can be tested on its own and the package
only ever sees the finished inputs.

Conventions (matching the package and docs/document-format.md):

- an algebra is `(dim, c)` with `c` the flat structure-constant tuple in
  `(i, j, k)` order: `e_i . e_j = sum_k c[(i*dim + j)*dim + k] e_k`;
- a matrix is a tuple of row tuples; action matrices act on coefficient
  columns, and an operator `M -> A` has `dim` rows and `mdim` columns;
- a bimodule is `(mdim, left, right)` with one action matrix per algebra
  basis element.

A change of basis is a pair `(P, Q)` of invertible integer matrices whose
columns are the new algebra (resp. module) basis in old coordinates.  It
is an isomorphism of (algebra, bimodule, operator) triples, so every
verdict and every cohomology dimension is preserved.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact matrices as tuples of rows
# ---------------------------------------------------------------------------

def identity(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n))
                 for i in range(n))


def zeros(rows, cols):
    return tuple((ZERO,) * cols for _ in range(rows))


def matmul(a, b):
    cols = len(b[0]) if b else 0
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO)
                       for j in range(cols)) for i in range(len(a)))


def scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def inverse(a):
    """Exact Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(a)
    aug = [list(row) + list(ident) for row, ident in zip(a, identity(n))]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv_p = 1 / aug[col][col]
        aug[col] = [x * inv_p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def unimodular(rng, n, steps=3):
    """A random integer matrix of determinant +-1 with small entries: a
    signed permutation followed by `steps` column additions (multiplier
    +-1), so the result is dense for n >= 2."""
    m = [list(row) for row in signed_permutation(rng, n)]
    for _ in range(steps if n > 1 else 0):
        src, dst = rng.sample(range(n), 2)
        mult = rng.choice((-1, 1))
        for row in m:
            row[dst] += mult * row[src]
    return tuple(tuple(Fraction(x) for x in row) for row in m)


def signed_permutation(rng, n):
    """A random signed permutation matrix: a change of basis that keeps the
    sparsity and magnitudes of every structure constant."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return tuple(tuple(Fraction(signs[j]) if perm[j] == i else ZERO
                       for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# algebras, bimodules and operators in plain data
# ---------------------------------------------------------------------------

def algebra_from_products(dim, products):
    """`products` is a sparse {(i, j): {k: coeff}} table as in conftest."""
    c = [ZERO] * dim ** 3
    for (i, j), img in products.items():
        for k, coeff in img.items():
            c[(i * dim + j) * dim + k] = Fraction(coeff)
    return dim, tuple(c)


def direct_sum(alg, other):
    d1, c1 = alg
    d2, c2 = other
    d = d1 + d2
    c = [ZERO] * d ** 3
    for (dd, cc, off) in ((d1, c1, 0), (d2, c2, d1)):
        for i in range(dd):
            for j in range(dd):
                for k in range(dd):
                    c[((i + off) * d + j + off) * d + k + off] = \
                        cc[(i * dd + j) * dd + k]
    return d, tuple(c)


def regular_bimodule(alg):
    """Left and right multiplication matrices: column j of l_i is e_i . e_j,
    column j of r_i is e_j . e_i."""
    d, c = alg
    left = tuple(tuple(tuple(c[(i * d + j) * d + k] for j in range(d))
                       for k in range(d)) for i in range(d))
    right = tuple(tuple(tuple(c[(j * d + i) * d + k] for j in range(d))
                        for k in range(d)) for i in range(d))
    return d, left, right


def zero_bimodule(alg, mdim):
    z = zeros(mdim, mdim)
    return mdim, (z,) * alg[0], (z,) * alg[0]


def change_algebra(alg, p, p_inv):
    d, c = alg
    out = []
    for a in range(d):
        for b in range(d):
            img = [ZERO] * d
            for i in range(d):
                if p[i][a] == 0:
                    continue
                for j in range(d):
                    w = p[i][a] * p[j][b]
                    if w == 0:
                        continue
                    for k in range(d):
                        if c[(i * d + j) * d + k]:
                            img[k] += w * c[(i * d + j) * d + k]
            out.extend(sum((p_inv[t][k] * img[k] for k in range(d)), ZERO)
                       for t in range(d))
    return d, tuple(out)


def change_actions(mats, p, q, q_inv):
    """Actions of the new algebra basis f_a = sum_i P[i][a] e_i, written in
    the new module basis: Q^-1 (sum_i P[i][a] l_i) Q."""
    d = len(mats)
    mdim = len(q)
    out = []
    for a in range(d):
        acc = zeros(mdim, mdim)
        for i in range(d):
            if p[i][a]:
                acc = add(acc, scale(p[i][a], mats[i]))
        out.append(matmul(matmul(q_inv, acc), q))
    return tuple(out)


def change_triple(alg, mod, op, p, q):
    """The triple (A, M, T) written in the bases (P, Q)."""
    p_inv, q_inv = inverse(p), inverse(q)
    mdim, left, right = mod
    return (change_algebra(alg, p, p_inv),
            (mdim, change_actions(left, p, q, q_inv),
             change_actions(right, p, q, q_inv)),
            matmul(matmul(p_inv, op), q))


def conjugate(m, p):
    """An endomorphism written in the new basis P: P^-1 m P."""
    return matmul(matmul(inverse(p), m), p)


def fraction_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


# ---------------------------------------------------------------------------
# the frozen-anchor corpus (mirrors tests/conftest.py::cohomology_corpus)
# ---------------------------------------------------------------------------

def corpus():
    """(name, algebra, bimodule, operator, anchors, degree) in the given
    bases.  The anchors are the frozen (n, dim C, dim Z, dim B, dim H) rows
    of tests/conftest.py; `degree` is the degree the benchmark asks for."""
    a0_1 = algebra_from_products(1, {})
    a1 = algebra_from_products(1, {(0, 0): {0: 1}})
    a2 = algebra_from_products(2, {(0, 0): {1: 1}})
    a0_2 = algebra_from_products(2, {})
    a21 = direct_sum(a2, a1)
    return [
        ("A0_1/zero/T=id", a0_1, zero_bimodule(a0_1, 1), identity(1),
         [(0, 1, 1, 0, 1), (1, 1, 1, 0, 1), (2, 1, 1, 0, 1), (3, 1, 1, 0, 1)], 3),
        ("A1/reg/T=0", a1, regular_bimodule(a1), zeros(1, 1),
         [(0, 1, 1, 0, 1), (1, 1, 1, 0, 1), (2, 1, 1, 0, 1), (3, 1, 1, 0, 1)], 3),
        ("A2/reg/T_inv", a2, regular_bimodule(a2), fraction_rows([[2, 0], [0, 1]]),
         [(0, 2, 2, 0, 2), (1, 4, 2, 0, 2), (2, 8, 6, 2, 4), (3, 16, 8, 2, 6)], 3),
        ("A2/reg/T_nil", a2, regular_bimodule(a2), fraction_rows([[0, 0], [1, 0]]),
         [(0, 2, 2, 0, 2), (1, 4, 4, 0, 4), (2, 8, 8, 0, 8), (3, 16, 16, 0, 16)], 3),
        ("A0_2/reg/T_gen", a0_2, regular_bimodule(a0_2),
         fraction_rows([[1, 2], [3, 4]]),
         [(0, 2, 2, 0, 2), (1, 4, 4, 0, 4), (2, 8, 8, 0, 8), (3, 16, 16, 0, 16)], 3),
        ("A2A1/reg/T_blk", a21, regular_bimodule(a21),
         fraction_rows([[2, 0, 0], [0, 1, 0], [0, 0, 0]]),
         [(0, 3, 3, 0, 3), (1, 9, 5, 0, 5), (2, 27, 20, 4, 16)], 2),
    ]


# A non-Nijenhuis operator on A2 (e1.e1 = e2), as in tests/test_cli.py.
A2_BAD_N = fraction_rows([[0, 1], [0, 0]])


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def cycle_basis(rng, n, index, dense):
    """Change of basis for the algebra of cycle `index`: a dense unimodular
    or a sparse signed-permutation matrix (the identity in cycle 0), times
    k = index + 1.

    A GL_n(Z) change keeps the gcd of the structure constants and the gcd
    of the operator's entries.  The factor k multiplies the first by k and
    divides the second by k, and every input has a nonzero product or a
    nonzero operator, so no input of one cycle repeats in another cycle of
    the same run, however many cycles a run reaches (`fresh_triple` keeps
    the inputs of one cycle apart).  Module bases are left unscaled
    (`module_basis`)."""
    if dense:
        p = unimodular(rng, n)
    else:
        p = identity(n) if index == 0 else signed_permutation(rng, n)
    return scale(Fraction(index + 1), p)


def module_basis(rng, n, index, dense):
    if dense:
        return unimodular(rng, n)
    return identity(n) if index == 0 else signed_permutation(rng, n)


def fresh_triple(rng, seen, alg, mod, op, index, dense):
    """`(triple, P, Q)`: the triple in bases (P, Q) of cycle `index` (see
    `cycle_basis`) that give no input in `seen`; the triple is added to
    `seen`.  Isomorphic triples, and the two variants of a dim-1 entry,
    need this."""
    for _ in range(100):
        p = cycle_basis(rng, alg[0], index, dense)
        q = module_basis(rng, mod[0], index, dense)
        changed = change_triple(alg, mod, op, p, q)
        if changed not in seen:
            seen.add(changed)
            return changed, p, q
    raise ValueError("no basis gives a new input")


def cohomology_cycle(seed, index, triples, triple_mix):
    """Op list of cycle `index` of the `cohomology` workload.

    The cycle holds every anchor entry twice: once in a sparse basis and
    once in a dense unimodular basis (see `cycle_basis`).  It then holds
    `triple_mix` ops drawn from the recorded pool of noncommutative
    Rota-Baxter triples: `defect_rb` first, then pool triples with an
    expected ComplexError and with expected dimensions, in a sparse basis.
    The pool is shuffled once per seed and each cycle takes the next
    picks, going round it as often as the run needs.

    An op is `(label, alg, mod, op, degree, expected)`, where `expected`
    is a list of dimension rows or the string "ComplexError".
    """
    pool = random.Random(f"cohomology:{seed}")
    rng = random.Random(f"cohomology:{seed}:{index}")
    defect = [t for t in triples if t["defect"]]
    errors = [t for t in triples if t["outcome"] == "ComplexError"
              and not t["defect"]]
    finite = [t for t in triples if t["outcome"] != "ComplexError"]
    pool.shuffle(errors)
    pool.shuffle(finite)
    n_defect, n_error, n_finite = triple_mix
    ops = []
    seen = set()
    for name, alg, mod, op, anchors, degree in corpus():
        for variant, dense in (("sparse", False), ("dense", True)):
            changed, _p, _q = fresh_triple(rng, seen, alg, mod, op, index,
                                           dense)
            ops.append((f"{name}@{variant}{index}", *changed, degree,
                        anchors))
    picks = (defect[:n_defect]
             + [errors[(index * n_error + i) % len(errors)]
                for i in range(n_error)]
             + [finite[(index * n_finite + i) % len(finite)]
                for i in range(n_finite)])
    for t in picks:
        alg = (2, tuple(Fraction(x) for x in t["products"]))
        changed, _p, _q = fresh_triple(rng, seen, alg, regular_bimodule(alg),
                                       fraction_rows(t["op"]), index, False)
        ops.append((f"triple{t['index']}@{index}", *changed, t["degree"],
                    t["outcome"]))
    rng.shuffle(ops)
    return ops


def search_scale(seed, index):
    """Grid scale k of cycle `index` of the `search` workload: the grid is
    {-k, 0, k}.  Every law in the sweep is homogeneous, so the hits are k
    times the recorded hits of {-1, 0, 1}, in the same order, and every
    cycle does the same amount of work on a grid no other cycle of the run
    sees."""
    return random.Random(f"search:{seed}").randrange(1, 40) + index


# -- documents for the `cli` workload -----------------------------------------

COMMANDS = (
    ("check-algebra", ["check", "algebra"]),
    ("check-bimodule", ["check", "bimodule"]),
    ("check-rb", ["check", "rb", "--op", "T"]),
    ("check-nijenhuis", ["check", "nijenhuis", "--op", "N"]),
    ("check-nij-structure", ["check", "nij-structure", "--ops", "N,S",
                             "--power-cap", "3"]),
    ("check-on", ["check", "on", "--ops", "T,N,S", "--power-cap", "2"]),
    ("check-morphism", ["check", "morphism", "--ops", "phi,psi,T,T2"]),
    ("mc-check", ["mc-check"]),
    ("deform-generate", ["deform", "generate", "--ops", "N,S"]),
    ("deform-verify", ["deform", "verify"]),
    ("glie-bracket", ["glie", "bracket", "--op", "T"]),
    ("cohomology", ["cohomology", "--op", "T", "--max-degree", "2"]),
)

# Commands that read the operator N; a document whose N is not Nijenhuis
# fails exactly these (exit 1) and passes the rest.
USES_N = frozenset({"check-nijenhuis", "check-nij-structure", "check-on",
                    "deform-generate"})

SCALARS = tuple(Fraction(x) for x in ("2", "3", "-2", "1/2", "-1/3"))

CORRUPTIONS = ("zero-denominator", "unknown-key", "unknown-label",
               "ragged-operator", "truncated", "wrong-field")


def render_rational(q):
    q = Fraction(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _rows_json(m):
    return [[render_rational(x) for x in row] for row in m]


def _products_json(alg, labels):
    d, c = alg
    out = {}
    for i in range(d):
        for j in range(d):
            img = {labels[k]: render_rational(c[(i * d + j) * d + k])
                   for k in range(d) if c[(i * d + j) * d + k] != 0}
            if img:
                out[f"{labels[i]},{labels[j]}"] = img
    return out


def _bimodule_json(mod):
    mdim, left, right = mod
    return {"mdim": mdim, "l": [_rows_json(m) for m in left],
            "r": [_rows_json(m) for m in right]}


def document(alg, mod, op, second, lam, bad_n=None):
    """A workspace document holding every operator the command mix needs.

    `second` is (alg2, mod2, op2, phi, psi): the same triple in other bases
    and the isomorphism onto it.  N = lam id and S = lam id form a
    Nijenhuis structure, and (T, N, S) an ON-structure, on any pair; the
    deformation section is the trivial generator of (N, S), i.e. lam times
    the structure.  `bad_n` replaces N in a document built to fail.
    """
    d, c = alg
    mdim, left, right = mod
    alg2, mod2, op2, phi, psi = second
    labels = [f"e{i + 1}" for i in range(d)]
    labels2 = [f"f{i + 1}" for i in range(d)]
    n_op = bad_n if bad_n is not None else scale(lam, identity(d))
    return {
        "field": "Q",
        "algebra": {"dim": d, "basis": labels,
                    "products": _products_json(alg, labels)},
        "algebra2": {"dim": d, "basis": labels2,
                     "products": _products_json(alg2, labels2)},
        "bimodule": _bimodule_json(mod),
        "bimodule2": _bimodule_json(mod2),
        "operators": {
            "N": _rows_json(n_op),
            "S": _rows_json(scale(lam, identity(mdim))),
            "T": _rows_json(op),
            "T2": _rows_json(op2),
            "phi": _rows_json(phi),
            "psi": _rows_json(psi),
        },
        "deformation": {
            "omega": _products_json((d, tuple(lam * x for x in c)), labels),
            "phi": [_rows_json(scale(lam, m)) for m in left],
            "psi": [_rows_json(scale(lam, m)) for m in right],
        },
    }


def corrupt(doc, kind):
    """Document text that the strict parser must reject (exit 2)."""
    doc = json.loads(json.dumps(doc))
    if kind == "zero-denominator":
        doc["operators"]["T"][0][0] = "1/0"
    elif kind == "unknown-key":
        doc["algebra"]["comment"] = "not part of the format"
    elif kind == "unknown-label":
        doc["algebra"]["products"]["e1,e9"] = {"e1": 1}
    elif kind == "ragged-operator":
        doc["operators"]["T"].append(doc["operators"]["T"][0] + [0])
    elif kind == "wrong-field":
        doc["field"] = "R"
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if kind == "truncated":
        text = text[:len(text) // 2]
    return text


def cli_cycle(seed, index):
    """Documents of cycle `index` of the `cli` workload: every anchor entry
    of dim <= 2 in a sparse and in a dense basis (see `cycle_basis`); one
    A2 document is built to fail (N not Nijenhuis) and one document is
    malformed.

    A document is `(label, text, expected)` with `expected` mapping each
    command name of COMMANDS to its exit status.
    """
    rng = random.Random(f"cli:{seed}:{index}")
    entries = [e for e in corpus() if e[1][0] <= 2]
    docs = []
    seen = set()
    for name, alg, mod, op, _anchors, _degree in entries:
        d, m = alg[0], mod[0]
        for variant, dense in (("sparse", False), ("dense", True)):
            triple, p, q = fresh_triple(rng, seen, alg, mod, op, index,
                                        dense)
            p2, q2 = unimodular(rng, d), unimodular(rng, m)
            alg2, mod2, op2 = change_triple(alg, mod, op, p2, q2)
            phi = matmul(inverse(p2), p)
            psi = matmul(inverse(q2), q)
            lam = rng.choice(SCALARS)
            bad_n = conjugate(A2_BAD_N, p) if name.startswith("A2/") else None
            docs.append([f"{name}@{variant}{index}", triple,
                         (alg2, mod2, op2, phi, psi), lam, bad_n])
    failing = rng.choice([doc for doc in docs if doc[4] is not None])
    malformed = rng.choice(docs)
    kind = rng.choice(CORRUPTIONS)
    cycle = []
    for label, triple, second, lam, bad_n in docs:
        fails = failing[0] == label
        obj = document(*triple, second, lam, bad_n if fails else None)
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
        expected = {cmd: (1 if fails and cmd in USES_N else 0)
                    for cmd, _ in COMMANDS}
        cycle.append((label + ("/fail" if fails else ""), text, expected))
        if malformed[0] == label:
            cycle.append((f"{label}/{kind}", corrupt(obj, kind),
                          {cmd: 2 for cmd, _ in COMMANDS}))
    rng.shuffle(cycle)
    return cycle
