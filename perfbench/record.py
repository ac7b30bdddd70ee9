"""Record the brute-force oracle data the benchmark checks against.

    python3 perfbench/record.py

writes perfbench/data/oracle.json from the package in ./src:

- `search`: the dim-2 sweep `anti-flexible, not-associative` over the grid
  {-1, 0, 1}, and for each hit the `rota-baxter, nonzero` operator sweep
  over its regular bimodule, in sweep order.  A grid {-k, 0, k} has k times
  these hits in the same order, because every law involved is homogeneous.
- `triples`: every noncommutative Rota-Baxter triple of that sweep with the
  outcome of `RBComplex(...).dims(2)`: dimension rows or "ComplexError".
  `defect` marks the triple that tests/conftest.py calls `defect_rb`.

Run it again only when the meaning of a check changes on purpose; the
benchmark then compares against the new recording.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "data", "oracle.json")
COEFFS = (-1, 0, 1)
TRIPLE_DEGREE = 2


def _ints(data):
    return [int(x) for x in data]


def _defect_key(algebras):
    """The (algebra, operator) pair conftest's `defect_rb` fixture finds."""
    from antiflex.bimodule import regular_bimodule
    from antiflex.glie import Cochain, CochainSpace, HARD_ARITY_CAP, rb_differential
    from antiflex.search import search_operators
    scanned = 0
    for alg in algebras:
        mod = regular_bimodule(alg)
        hits = search_operators(alg, mod, COEFFS, ("rota-baxter", "nonzero"),
                                limit=4)
        if not hits:
            continue
        scanned += 1
        if scanned > 12:
            break
        space = CochainSpace(alg, mod)
        for op in hits:
            for pos in range(alg.dim):
                data = [0] * alg.dim
                data[pos] = 1
                c0 = Cochain(0, mod.mdim, alg.dim, data)
                once = rb_differential(space, op, c0, HARD_ARITY_CAP)
                if not rb_differential(space, op, once,
                                       HARD_ARITY_CAP).is_zero():
                    return _ints(alg.mul.data), _ints(op.data)
    raise SystemExit("no degree-0 square-defect triple in the grid")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from antiflex.bimodule import regular_bimodule
    from antiflex.cohomology import ComplexError, RBComplex
    from antiflex.search import search_algebras, search_operators

    algebras = search_algebras(2, COEFFS, ("anti-flexible", "not-associative"))
    operators = []
    triples = []
    noncomm = [alg for alg in algebras if not alg.is_commutative()]
    defect = _defect_key(noncomm)
    for index, alg in enumerate(algebras):
        if alg.is_commutative():
            operators.append(None)
            continue
        mod = regular_bimodule(alg)
        hits = search_operators(alg, mod, COEFFS, ("rota-baxter", "nonzero"))
        operators.append([_ints(op.data) for op in hits])
        for op in hits:
            try:
                outcome = [list(row) for row in
                           RBComplex(alg, mod, op).dims(TRIPLE_DEGREE).degrees]
            except ComplexError:
                outcome = "ComplexError"
            key = (_ints(alg.mul.data), _ints(op.data))
            triples.append({
                "index": len(triples),
                "algebra": index,
                "products": key[0],
                "op": [key[1][:2], key[1][2:]],
                "degree": TRIPLE_DEGREE,
                "outcome": outcome,
                "defect": key == defect,
            })
    data = {
        "search": {
            "coeffs": list(COEFFS),
            "algebra_predicates": ["anti-flexible", "not-associative"],
            "operator_predicates": ["rota-baxter", "nonzero"],
            "algebras": [_ints(alg.mul.data) for alg in algebras],
            "operators": operators,
        },
        "triples": triples,
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as handle:
        json.dump(data, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"{len(algebras)} algebras, {len(triples)} triples, "
          f"{sum(t['outcome'] == 'ComplexError' for t in triples)} ComplexError "
          f"-> {os.path.relpath(OUT, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
