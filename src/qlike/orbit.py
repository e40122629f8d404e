"""Sphere orbits in homogeneous spaces and their normal bundles.

A good quadruple is a Lie algebra with a representation on E, an embedded
sl(2) and an invariant subspace U on which the sl(2) acts irreducibly and
nontrivially.  The rational curve swept inside P(U) by the kernels of the
nilpotent family

    A(z0, z1) = [[z0 z1, -z0^2], [z1^2, -z0 z1]]        (A(z)^2 = 0)

has first-order data along it: the tangent family W of the group orbit and
the osculating family L' of the curve itself.  The normal bundle of the
curve in the orbit is the subquotient (W / L') twisted by the curve degree,
and only this first-order data is ever materialized.

Constant rank is proven, not recomputed.  Every curve built here is an
SL(2)-orbit, so its first-order families have the same fibre rank at every
point (an equivariant bundle over a transitive base; Bott, "Homogeneous
vector bundles", Ann. of Math. 1957).  The proof uses only hypotheses that
:func:`validate_good_quadruple` checks:

* ``sl2-embedding`` and ``representation-identity`` make sigma o tau a
  representation of sl(2) on E.  It integrates to an SL(2) action on E
  with sigma(k) sigma(x) sigma(k)^-1 = sigma(Ad_k x) for x in g.
* ``u-invariant`` and ``u-irreducible-nontrivial`` make U isomorphic to
  V_d with d >= 1.  A linearly dependent ``u_basis`` already fails
  ``u-irreducible-nontrivial``: the kernel of the coordinate map is a
  trivial summand.
* For z != 0, A(z) = -z0^2 e + z1^2 f + z0 z1 h is a nonzero nilpotent of
  sl(2), hence conjugate to e.  On V_d it is one Jordan block, so its
  kernel is one line at every point: the nilpotent family has kernel
  rank 1 everywhere, and the curve v(z) spanning it has no base point.
* A(z) is the column z times the row (z1, -z0), so k A(z) k^-1 = A(k z)
  for k in SL(2), and sigma(k) ker A(z) = ker A(k z).  So sigma(k) maps
  sigma(g) v(z) + C v(z) onto the same space at k z, and the span of v
  and its derivatives at z onto the same span at k z.  SL(2) is
  transitive on P^1, so both raw column families have constant rank:
  each saturation is the bundle its columns span, and keeps the columns'
  own degrees where they are independent.

On the conic, W is the trivial bundle and L' keeps the derivative
columns' degrees d - 1 = 1:

>>> from qlike.catalog import build_veronese
>>> fams = orbit_tangent_family(build_veronese(2))
>>> fams.w.degrees, fams.l_prime.degrees
((0, 0, 0), (1, 1))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundles import (SplittingType, SubbundleFamily, saturate,
                      subquotient_splitting)
from .errors import InternalError, InvalidInput
from .forms import Z0, Z1
from .lie import LieAlgebra, Representation, Sl2Embedding, _multiplicities_from_h
from .linalg import kernel_basis, mat_vec, solve_matrix
from .polymatrix import PolyMatrix, _apply_scalar_matrix, graded_kernel
from .scalars import Scalar, scalar


@dataclass(frozen=True)
class GoodQuadruple:
    """(algebra, representation, sl(2)-embedding, invariant subspace)."""

    algebra: LieAlgebra
    sigma: Representation
    tau: Sl2Embedding
    u_basis: tuple                 # coordinate vectors spanning U inside E
    name: str = ""
    nilpotent: tuple = None        # the generating nilpotent, when known
    adjoint: bool = False

    def __post_init__(self):
        object.__setattr__(self, "u_basis",
                           tuple(tuple(scalar(c) for c in v)
                                 for v in self.u_basis))
        if any(len(v) != self.space_dim for v in self.u_basis):
            raise InvalidInput("u_basis vectors need %d coordinates" % self.space_dim)
        if self.nilpotent is not None:
            object.__setattr__(self, "nilpotent",
                               tuple(scalar(c) for c in self.nilpotent))

    @property
    def space_dim(self):
        return self.sigma.space_dim

    @property
    def u_dim(self):
        return len(self.u_basis)


def adjoint_quadruple(algebra: LieAlgebra, nilpotent, name) -> GoodQuadruple:
    """The adjoint quadruple through a nilpotent of a semisimple algebra:
    the sl(2) comes from the Jacobson-Morozov solver and U is its image."""
    from .lie import jacobson_morozov
    tau = jacobson_morozov(algebra, nilpotent, assume_semisimple=True)
    return GoodQuadruple(algebra, algebra.adjoint_representation(), tau,
                         (tuple(tau.e), tuple(tau.h), tuple(tau.f)),
                         name=name, nilpotent=tuple(tau.f), adjoint=True)


def adjoint_multiplicity_count(q: GoodQuadruple) -> int:
    """-2 + sum_j j a_j, with the multiplicities a_j recomputed live from
    the weight decomposition: for an adjoint quadruple, the number of
    degree-one summands of the normal bundle."""
    from .lie import sl2_decompose
    mult = sl2_decompose(q.sigma, q.tau)
    return -2 + sum(j * a for j, a in mult.items())


def _restricted_sl2_matrices(q: GoodQuadruple):
    """Matrices of sigma(tau(E|H|F)) restricted to U, or a diagnostic."""
    n, u = q.space_dim, q.u_dim
    ub = [[q.u_basis[j][i] for j in range(u)] for i in range(n)]
    # one solve for the E, H and F images side by side, each column apart
    image = [[] for _ in range(n)]
    for x in (q.tau.e, q.tau.h, q.tau.f):
        m = q.sigma.apply(list(x))
        cols = [mat_vec(m, list(q.u_basis[j])) for j in range(u)]
        for i in range(n):
            image[i].extend(col[i] for col in cols)
    coords = solve_matrix(ub, image)
    if coords is None:
        return None, "U not invariant"
    return [[row[b * u:(b + 1) * u] for row in coords] for b in range(3)], ""


def validate_good_quadruple(q: GoodQuadruple) -> dict:
    """Bracket/injectivity of tau, representation identity of sigma,
    invariance of U, and irreducible nontriviality of the restriction."""
    return _validate_quadruple(q)[0]


def _validate_quadruple(q: GoodQuadruple):
    """(the :func:`validate_good_quadruple` report, the restricted sl(2)
    matrices or None)."""
    report = {"checks": []}

    def add(name, ok, detail=""):
        report["checks"].append({"name": name, "status": "pass" if ok else "fail",
                                 "detail": detail})

    tau_ok = q.tau.check()
    add("sl2-embedding", tau_ok, "" if tau_ok else
        "bracket relations or injectivity fail")
    sigma_ok = q.sigma.check_identity()
    add("representation-identity", sigma_ok)
    restricted, diag = _restricted_sl2_matrices(q)
    add("u-invariant", restricted is not None, diag)
    degree = None
    if restricted is not None:
        s_h = restricted[1]
        try:
            mult = _multiplicities_from_h(s_h)
        except InternalError as exc:
            mult = None
            add("u-irreducible-nontrivial", False, str(exc))
        if mult is not None:
            nonzero = {j: a for j, a in mult.items() if a}
            if nonzero == {0: 1} or all(j == 0 for j in nonzero):
                add("u-irreducible-nontrivial", False,
                    "representation on U trivial")
            elif len(nonzero) == 1 and list(nonzero.values()) == [1]:
                degree = next(iter(nonzero))
                add("u-irreducible-nontrivial", True,
                    "U is the irreducible of dimension %d" % (degree + 1))
            else:
                add("u-irreducible-nontrivial", False,
                    "restriction is not a single irreducible: %r" % nonzero)
    report["valid"] = all(c["status"] == "pass" for c in report["checks"])
    report["curve_degree"] = degree
    return report, restricted


def veronese_curve(q: GoodQuadruple):
    """The gcd-reduced kernel curve of the nilpotent family on U.

    Returns (degree d, curve in U coordinates, curve in ambient E
    coordinates).  The kernel is one-dimensional at every point, as the
    module docstring proves from the validated hypotheses, and the degree
    is cross-checked against the weight decomposition of U.
    """
    report, restricted = _validate_quadruple(q)
    if not report["valid"]:
        raise InvalidInput("invalid quadruple: %s" % "; ".join(
            c["name"] for c in report["checks"] if c["status"] == "fail"))
    d = report["curve_degree"]
    s_e, s_h, s_f = restricted
    du = q.u_dim
    # entry (i, j) is -e_ij z0^2 + f_ij z1^2 + h_ij z0 z1
    quadrics = [Z0 * Z0, Z1 * Z1, Z0 * Z1]
    rows = [_apply_scalar_matrix([(-s_e[i][j], s_f[i][j], s_h[i][j])
                                  for j in range(du)], quadrics, 2)
            for i in range(du)]
    [(m, vec)] = graded_kernel(rows, du, expected_count=1)
    if m != d:
        raise InternalError("kernel curve degree %d disagrees with the "
                            "weight decomposition degree %d" % (m, d))
    v_u = list(vec)
    v_e = _apply_scalar_matrix([[v[i] for v in q.u_basis]
                                for i in range(q.space_dim)], v_u, d)
    return d, v_u, v_e


@dataclass
class TangentFamilies:
    degree: int
    curve: list                   # ambient coordinates of the curve
    w: SubbundleFamily            # orbit tangent family (saturated)
    l_prime: SubbundleFamily      # osculating family of the curve


def orbit_tangent_family(q: GoodQuadruple) -> TangentFamilies:
    """W = saturation of { sigma(x_i) v(z) } + C v(z); L' = saturation of
    the derivative columns.

    Both raw column families have constant rank along the curve, by the
    equivariance proof in the module docstring, so each saturation is the
    bundle its columns span and no syzygy degree count re-proves it.  The
    Euler relation, the rank of L' and the membership of v in L' are still
    checked exactly.
    """
    d, v_u, v_e = veronese_curve(q)
    n = q.space_dim
    raw_cols = [_apply_scalar_matrix(m, v_e, d) for m in q.sigma.matrices]
    raw_cols.append(list(v_e))
    raw = PolyMatrix.from_columns(n, raw_cols, [d] * len(raw_cols))
    w = saturate(raw)

    d0 = [f.d_z0() for f in v_e]
    d1 = [f.d_z1() for f in v_e]
    # Euler relation d*v = z0 dv/dz0 + z1 dv/dz1, exactly
    for f, a, b in zip(v_e, d0, d1):
        if f.scale(Scalar(d)) != Z0 * a + Z1 * b:
            raise InternalError("Euler relation failed on the curve")
    raw_l = PolyMatrix.from_columns(n, [d0, d1], [d - 1, d - 1])
    lp = saturate(raw_l)
    if lp.rank != 2:
        raise InvalidInput("curve not immersed")
    # v lies in L' pointwise (Euler); make the membership explicit
    from .polymatrix import solve_combination
    if solve_combination(lp.columns(), list(lp.degrees), v_e, d) is None:
        raise InternalError("curve left its own osculating family")
    return TangentFamilies(d, v_e, w, lp)


@dataclass
class NormalBundleReport:
    name: str
    curve_degree: int
    tangent_rank: int
    dim_z: int
    normal: SplittingType
    nonnegative: bool
    expected: SplittingType = None
    expected_source: str = ""
    match: bool = None
    checks: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "name": self.name,
            "curve_degree": self.curve_degree,
            "tangent_rank": self.tangent_rank,
            "dim_Z": self.dim_z,
            "normal": self.normal.to_json(),
            "nonnegative": self.nonnegative,
            "expected": self.expected.to_json() if self.expected else None,
            "expected_source": self.expected_source or None,
            "match": self.match,
            "checks": dict(self.checks),
        }


def normal_bundle(q: GoodQuadruple, expected: SplittingType = None,
                  expected_source: str = "") -> NormalBundleReport:
    """Splitting type of the normal bundle of the curve in its orbit.

    normal = (W / L') tensor O(d); all summands must be nonnegative, and the
    first-Chern bookkeeping sum(normal) = (c1(W) - c1(L')) + d*(rank W - 2)
    is asserted exactly.
    """
    fams = orbit_tangent_family(q)
    d = fams.degree
    r = fams.w.rank
    normal = subquotient_splitting(fams.l_prime, fams.w, twist=d)
    if normal.rank != r - 2:
        raise InternalError("normal rank %d, tangent rank %d" % (normal.rank, r))
    c1_w = -sum(fams.w.degrees)
    c1_l = -sum(fams.l_prime.degrees)
    c1_ok = normal.degree == (c1_w - c1_l) + d * (r - 2)
    if not c1_ok:
        raise InternalError("normal bundle first-Chern bookkeeping failed")
    if not normal.is_nonnegative():
        raise InternalError("negative summand in a homogeneous-orbit normal "
                            "bundle: %s" % normal)
    adjoint_formula_ok = None
    if q.adjoint:
        # every adjoint run re-derives the multiplicity formula live
        count = adjoint_multiplicity_count(q)
        adjoint_formula_ok = (normal == SplittingType.of([1] * count))
        if not adjoint_formula_ok:
            raise InternalError(
                "adjoint normal bundle %s disagrees with the multiplicity "
                "count %d" % (normal, count))
    match = None
    if expected is not None:
        match = normal == expected
    return NormalBundleReport(
        name=q.name,
        curve_degree=d,
        tangent_rank=r,
        dim_z=r - 1,
        normal=normal,
        nonnegative=True,
        expected=expected,
        expected_source=expected_source,
        match=match,
        checks={"c1_bookkeeping": c1_ok,
                "rank": normal.rank == r - 2,
                "dim_Z_consistency": (r - 1) == 1 + normal.rank,
                **({"adjoint_formula": adjoint_formula_ok}
                   if adjoint_formula_ok is not None else {})},
    )


def dimension_report(q: GoodQuadruple, report: NormalBundleReport = None) -> dict:
    """dim Z = rank W - 1; adjoint quadruples also cross-check against the
    nilpotent orbit dimension (algebra dim minus centralizer dim)."""
    report = report or normal_bundle(q)
    out = {"dim_Z": report.dim_z, "tangent_rank": report.tangent_rank}
    if q.adjoint and q.nilpotent is not None:
        ad_y = q.algebra.ad(list(q.nilpotent))
        centralizer = len(kernel_basis(ad_y))
        orbit_dim = q.algebra.dim - centralizer
        out["centralizer_dim"] = centralizer
        out["orbit_dim"] = orbit_dim
        out["orbit_consistency"] = (report.dim_z == orbit_dim - 1)
        if not out["orbit_consistency"]:
            raise InternalError(
                "dim Z = %d but the nilpotent orbit has dimension %d"
                % (report.dim_z, orbit_dim))
    return out
