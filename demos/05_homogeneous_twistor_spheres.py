"""Normal bundles of rational curves in homogeneous orbits.

A good quadruple (algebra, representation, sl(2)-embedding, irreducible
invariant subspace) sweeps a rational curve of kernel lines inside P(U);
the orbit through it is never materialized.  The normal bundle is the
twisted subquotient (W / L')(d) of the orbit's tangent family W by the
curve's osculating family L', and it is SL(2)-homogeneous, so it is read
off its fibre at one point: the weights of h there and the ranks of the
powers of e give every h0(N(t)).  Everything is closed-form checkable.
"""

import time

from qlike import catalog
from qlike.orbit import dimension_report, normal_bundle, veronese_curve

print("=" * 70)
print("Rational normal curves: the full projective space")
print("=" * 70)
for k in (1, 2, 3, 4, 5):
    q = catalog.build_veronese(k)
    t0 = time.time()
    report = normal_bundle(q)
    print("degree %d curve in P^%d: normal %-16s dim Z = %d   (%.2fs)"
          % (k, k, str(report.normal), report.dim_z, time.time() - t0))

print()
print("=" * 70)
print("Isotropic families: orthogonal and symplectic")
print("=" * 70)
for builder, label in ((catalog.build_so(5), "so(5), quadric threefold"),
                       (catalog.build_so(6), "so(6), quadric fourfold"),
                       (catalog.build_sp(4), "sp(4), isotropic planes"),
                       (catalog.build_sp(6), "sp(6), isotropic planes")):
    t0 = time.time()
    report = normal_bundle(builder)
    print("%-28s normal %-22s dim Z = %d  (%.2fs)"
          % (label, str(report.normal), report.dim_z, time.time() - t0))
print("note: so(5) and sp(4) agree, as the accidental isomorphism demands")

print()
print("=" * 70)
print("Nilpotent adjoint orbits")
print("=" * 70)
for algebra, nilp in (("sl(2)", "principal"), ("sl(3)", "principal"),
                      ("sl(3)", "minimal"), ("sl(4)", "principal"),
                      ("sl(4)", "minimal")):
    q = catalog.build_adjoint(algebra, nilp)
    expected = catalog.adjoint_expected(q)
    report = normal_bundle(q, expected=expected)
    dims = dimension_report(q, report)
    print("%-22s normal %-28s orbit dim %2d  dim Z %2d  closed-form "
          "match: %s" % (q.name, str(report.normal), dims["orbit_dim"],
                         dims["dim_Z"], report.match))

print()
print("=" * 70)
print("The kernel curve itself")
print("=" * 70)
d, v_u, v_e = veronese_curve(catalog.build_veronese(2))
print("degree-2 kernel curve in coordinates:", [str(f) for f in v_e])
