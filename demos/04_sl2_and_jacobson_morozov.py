"""Lie algebras by structure constants, sl(2)-triples, weight multiplicities.

The Jacobson-Morozov solver completes any ad-nilpotent element of a
semisimple algebra to a triple (E, H, F=Y) by two exact linear solves, and
weight multiplicities fall out of integer-eigenvalue kernels.
"""

from qlike import jacobson_morozov, sl2_decompose, validate_lie
from qlike.lie import sl_algebra, so_algebra
from qlike.scalars import ONE, ZERO

print("=" * 70)
print("Structure constants and the Killing form")
print("=" * 70)
for ma in (sl_algebra(2), sl_algebra(3), so_algebra(5)):
    info = validate_lie(ma.algebra)
    print("%-8s dim %2d  jacobi=%s  killing rank=%d  semisimple=%s"
          % (ma.algebra.name, ma.algebra.dim, info["jacobi"],
             info["killing_rank"], info["semisimple"]))

print()
print("=" * 70)
print("Triples through nilpotents of sl(3)")
print("=" * 70)

ma = sl_algebra(3)

def nil(entries):
    m = [[ZERO] * 3 for _ in range(3)]
    for (i, j) in entries:
        m[i][j] = ONE
    return ma.coordinates_of_matrix(m)

for name, y in (("regular (two lowering units)", nil([(1, 0), (2, 1)])),
                ("corner (single long root)", nil([(2, 0)]))):
    emb = jacobson_morozov(ma.algebra, y)
    h = ma.matrix_of(list(emb.h))
    diag = [str(h[i][i]) for i in range(3)]
    mult = sl2_decompose(ma.algebra.adjoint_representation(), emb)
    print("%-30s H = diag(%s)" % (name, ", ".join(diag)))
    print("   adjoint multiplicities a_j:", mult,
          "-> sum j*a_j =", sum(j * a for j, a in mult.items()))

print()
print("=" * 70)
print("Weight decomposition is basis independent")
print("=" * 70)
emb = jacobson_morozov(ma.algebra, nil([(1, 0), (2, 1)]))
print("defining representation of sl(3) restricted to the triple:",
      sl2_decompose(ma.defining_representation(), emb))
