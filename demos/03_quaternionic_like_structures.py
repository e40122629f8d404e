"""Quaternionic-like linear structures and their heaven spaces.

A structure is a holomorphically embedded sphere of subspaces of the
complexification of U.  Validation checks rank, reality, immersion,
injectivity and nonsplitting; analysis computes splitting types, the
classification label, the plus/minus section presentations and the
factorization identity psi_plus . psi_minus = rho_plus . iota . rho_minus*.
"""

import json

from qlike import analyze, dualize, heaven_data, minus_data, validate
from qlike.catalog import (build_conic_r3, build_quaternionic,
                           build_twisted_plane_c4)
from qlike.linalg import rank

for name, S in (("classical quaternionic structure on H", build_quaternionic(1)),
                ("conic structure on R^3", build_conic_r3()),
                ("complex line family in C^4", build_twisted_plane_c4())):
    print("=" * 70)
    print(name)
    print("=" * 70)
    report = validate(S)
    print("validation:", "PASS" if report.passed else "FAIL",
          [c.name + "=" + c.status for c in report.checks])
    a = analyze(S, report)
    print("splitting of the tautological family :", a.u_minus)
    print("splitting of the quotient            :", a.u_plus)
    print("label:", a.label, "   flags:", {k: v for k, v in a.flags.items()
                                           if k != "semantics"})
    hd = heaven_data(S)
    md = minus_data(hd)
    print("dim U+ = %d, dim E = %d, rank psi+ = %d"
          % (hd.u_plus_dim, hd.e_plus_dim, rank(hd.psi_plus)))
    print("dim U- = %d, rank psi- = %d" % (md.u_minus_dim,
                                           rank(md.psi_minus)))
    fact = a.factorization
    print("factorization identity: solvable=%s, solution space dim=%d"
          % (fact.solvable, fact.solution_dim))
    print("kernel/cokernel facts :", fact.facts)
    print()

print("=" * 70)
print("Duality swaps the two sides")
print("=" * 70)
conic = build_conic_r3()
dual = dualize(conic)
a = analyze(dual)
print("dual of the conic structure:", a.label,
      "minus:", a.u_minus, "plus:", a.u_plus)
print()
print("The dual structure as JSON:")
print(json.dumps(dual.to_json(), indent=1)[:400], "...")
