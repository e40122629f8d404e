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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundles import (SplittingType, SubbundleFamily, saturate,
                      subquotient_splitting)
from .errors import InternalError, InvalidInput
from .forms import BinaryForm, Z0, Z1
from .lie import LieAlgebra, Representation, Sl2Embedding, _multiplicities_from_h
from .linalg import kernel_basis, mat_vec, solve_matrix
from .polymatrix import PolyMatrix, generic_rank, graded_kernel
from .scalars import ZERO, Scalar, scalar


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
        if self.nilpotent is not None:
            object.__setattr__(self, "nilpotent",
                               tuple(scalar(c) for c in self.nilpotent))

    @property
    def space_dim(self):
        return self.sigma.space_dim

    @property
    def u_dim(self):
        return len(self.u_basis)


def _restricted_sl2_matrices(q: GoodQuadruple):
    """Matrices of sigma(tau(E|H|F)) restricted to U, or a diagnostic."""
    n = q.space_dim
    ub = [[q.u_basis[j][i] for j in range(q.u_dim)] for i in range(n)]
    out = []
    for x in (q.tau.e, q.tau.h, q.tau.f):
        m = q.sigma.apply(list(x))
        image = [[ZERO] * q.u_dim for _ in range(n)]
        for j in range(q.u_dim):
            col = mat_vec(m, list(q.u_basis[j]))
            for i in range(n):
                image[i][j] = col[i]
        coords = solve_matrix(ub, image)
        if coords is None:
            return None, "U not invariant"
        out.append(coords)
    return out, ""


def validate_good_quadruple(q: GoodQuadruple) -> dict:
    """Bracket/injectivity of tau, representation identity of sigma,
    invariance of U, and irreducible nontriviality of the restriction."""
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
    return report


def veronese_curve(q: GoodQuadruple):
    """The gcd-reduced kernel curve of the nilpotent family on U.

    Returns (degree d, curve in U coordinates, curve in ambient E
    coordinates); the kernel is one-dimensional at every point and the
    degree is cross-checked against the weight decomposition of U.
    """
    report = validate_good_quadruple(q)
    if not report["valid"]:
        raise InvalidInput("invalid quadruple: %s" % "; ".join(
            c["name"] for c in report["checks"] if c["status"] == "fail"))
    d = report["curve_degree"]
    restricted, _ = _restricted_sl2_matrices(q)
    s_e, s_h, s_f = restricted
    du = q.u_dim
    z0z1 = Z0 * Z1
    z0sq = Z0 * Z0
    z1sq = Z1 * Z1
    rows = []
    for i in range(du):
        row = []
        for j in range(du):
            f = BinaryForm.zero(2)
            if not s_e[i][j].is_zero():
                f = f + z0sq.scale(-s_e[i][j])
            if not s_f[i][j].is_zero():
                f = f + z1sq.scale(s_f[i][j])
            if not s_h[i][j].is_zero():
                f = f + z0z1.scale(s_h[i][j])
            row.append(f)
        rows.append(row)
    rk = generic_rank(rows)
    if du - rk != 1:
        raise InvalidInput("kernel rank %d of the nilpotent family at a "
                           "generic point; expected 1" % (du - rk))
    gens = graded_kernel(rows, du, expected_count=1, cap=2 * du + 4,
                         context="kernel curve")
    m, vec = gens[0]
    if m != d:
        raise InternalError("kernel curve degree %d disagrees with the "
                            "weight decomposition degree %d" % (m, d))
    v_u = list(vec)
    n = q.space_dim
    v_e = []
    for i in range(n):
        s = BinaryForm.zero(d)
        for j in range(du):
            c = q.u_basis[j][i]
            if not c.is_zero() and not v_u[j].is_zero():
                s = s + v_u[j].scale(c)
        v_e.append(s)
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

    Constant-rank validation is exact first-Chern bookkeeping: the raw
    column family has constant pointwise rank iff the sum of its syzygy
    degrees equals (number of columns) * d - (sum of saturated basis
    degrees); a mismatch means the image sheaf degenerates somewhere along
    the sphere.
    """
    d, v_u, v_e = veronese_curve(q)
    n = q.space_dim
    raw_cols = []
    for i in range(q.algebra.dim):
        m = [list(r) for r in q.sigma.matrices[i]]
        col = []
        for r in range(n):
            s = BinaryForm.zero(d)
            for c in range(n):
                x = m[r][c]
                if not x.is_zero() and not v_e[c].is_zero():
                    s = s + v_e[c].scale(x)
            col.append(s)
        raw_cols.append(col)
    raw_cols.append(list(v_e))
    raw = PolyMatrix.from_columns(n, raw_cols, [d] * len(raw_cols))
    w = saturate(raw)
    _constant_rank_check(raw, w, "orbit tangent family not locally free along t")

    d0 = [f.d_z0() for f in v_e]
    d1 = [f.d_z1() for f in v_e]
    # Euler relation d*v = z0 dv/dz0 + z1 dv/dz1, exactly
    for f, a, b in zip(v_e, d0, d1):
        lhs = f.scale(Scalar(d))
        rhs = Z0 * a + Z1 * b if d >= 1 else BinaryForm.zero(0)
        if lhs != rhs:
            raise InternalError("Euler relation failed on the curve")
    raw_l = PolyMatrix.from_columns(n, [d0, d1], [d - 1, d - 1])
    lp = saturate(raw_l)
    if lp.rank != 2:
        raise InvalidInput("curve not immersed")
    _constant_rank_check(raw_l, lp, "curve not immersed")
    # v lies in L' pointwise (Euler); make the membership explicit
    from .polymatrix import solve_combination
    if solve_combination(lp.columns(), list(lp.degrees), v_e, d) is None:
        raise InternalError("curve left its own osculating family")
    return TangentFamilies(d, v_e, w, lp)


def _constant_rank_check(raw: PolyMatrix, sat: SubbundleFamily, message):
    rows = raw.transpose_relations()
    r = sat.rank
    cols = raw.cols
    if cols == r:
        return                    # free columns: nothing can drop
    shifts = [-dd for dd in raw.col_degrees]
    gens = graded_kernel(rows, cols, unknown_shifts=shifts,
                         expected_count=cols - r,
                         cap=sum(max(0, dd) for dd in raw.col_degrees) + cols + 2,
                         context="constant-rank bookkeeping")
    syz_sum = sum(m for m, _ in gens)
    if syz_sum != sum(raw.col_degrees) - sum(sat.degrees):
        raise InvalidInput(message)


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
        from .lie import sl2_decompose
        mult = sl2_decompose(q.sigma, q.tau)
        count = -2 + sum(j * a for j, a in mult.items())
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
