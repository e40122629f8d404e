"""Sphere orbits in homogeneous spaces and their normal bundles.

A good quadruple is a Lie algebra with a representation on E, an embedded
sl(2) and an invariant subspace U on which the sl(2) acts irreducibly and
nontrivially.  Its twistor sphere is the SL(2)-orbit of the highest-weight
line of U, the rational curve swept inside P(U) by the kernels of the
nilpotent family

    A(z0, z1) = [[z0 z1, -z0^2], [z1^2, -z0 z1]]        (A(z)^2 = 0)

It has first-order data along it: the tangent family W of the group orbit
and the osculating family L' of the curve itself.  The normal bundle of the
curve in the orbit is the subquotient N = (W / L') twisted by the curve
degree.  :func:`normal_bundle` reads N off its fibre at one point, a module
over the Borel subalgebra, with dense linear algebra of the fibre's size;
:func:`orbit_tangent_family` builds W and L' as polynomial families, and
with :func:`~qlike.bundles.subquotient_splitting` it is the independent
route that the tests compare against.

What the orbit gives in closed form is written down, not solved for, and
constant rank is proven, not recomputed.  Every curve built here is an
SL(2)-orbit, so its first-order families have the same fibre rank at every
point (an equivariant bundle over a transitive base; Bott, "Homogeneous
vector bundles", Ann. of Math. 1957).  The proofs use only hypotheses that
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
  rank 1 everywhere.
* A(z) is the column z times the row (z1, -z0), so k A(z) k^-1 = A(k z)
  for k in SL(2), and sigma(k) ker A(z) = ker A(k z).  So sigma(k) maps
  C v(z) and sigma(g) v(z) onto the same spaces at k z, and the span of
  v's derivatives at z onto the same span at k z.  SL(2) is
  transitive on P^1, so both raw column families have constant rank.

Three consequences replace solves:

* **The curve.**  ker e on U is one line C v0, of h-weight d.  Put
  w_k = f^k v0 / k! and v(z) = sum_k z0^(d-k) z1^k w_k.  Then h w_k =
  (d - 2k) w_k, e w_k = (d - k + 1) w_(k-1) and f w_k = (k + 1) w_(k+1),
  so the coefficient of z0^(d+1-j) z1^(j+1) in A(z) v(z) is
  (-(d - j) + j + (d - 2j)) w_j = 0.  The w_k are a basis of U (nonzero,
  of distinct weights), so v has no zero on P^1.  The kernel module of
  A(z) on U is a saturated line bundle O(-m), and v is a nowhere-zero
  section of it of degree d, so m = d and v generates it.  The graded
  kernel's generator is that generator scaled to make its last nonzero
  coordinate 1 (coordinate-major, z1-power order), which is the
  normalization :func:`veronese_curve` applies.
* **L'.**  At [1 : 0] the derivative columns are dv/dz0 = d v0 and
  dv/dz1 = w_1 = f v0, independent since their weights d and d - 2
  differ and both are nonzero.  With constant rank they have rank 2 at
  every point, so the map O(1 - d)^2 -> E they define is a subbundle, and
  the columns are a free basis of L' with degrees (d - 1, d - 1).
* **W.**  h v0 = d v0 with d >= 1, so v0 lies in sigma(g) v0, and by
  equivariance v(z) lies in sigma(g) v(z) at every point.  A covector
  killing the tangent columns kills v too, so appending v would leave
  every stage of their annihilator's graded kernel, and so the
  saturation, unchanged.

The normal bundle from one fibre.  Let B be the stabilizer of x = [1 : 0]
in SL(2), so P^1 = SL(2)/B, and b = span(h, e) its Lie algebra.  By the
equivariance above, L = C v, L' and W are SL(2)-stable subbundles of the
trivial bundle E x P^1, so N = (W / L') tensor L* is an equivariant bundle,
and an equivariant bundle is SL(2) x_B F for its fibre F at x, a
B-module (Bott, as above).  The fibre of O(-1) at x is the line C (1, 0),
of h-weight 1, so O(m) is the character of h-weight -m, and c1 of a bundle
is minus the trace of h on its fibre.  Here:

* W_x = sigma(g) v0, L'_x = span(v0, f v0) and L_x = C v0, so N has the
  fibre M = (W_x / L'_x) tensor (C v0)*, and N(t) has M tensor C_(-t).
  v0 = h v0 / d and f v0 lie in sigma(g) v0, so a basis of W_x can start
  with them, and sigma(h), sigma(e) act on W_x because x -> sigma(x) v0
  intertwines ad(h), ad(e) with sigma(h) - d, sigma(e).
* The sections of SL(2) x_B F form a finite-dimensional SL(2)-module, and
  Hom_SL(2)(V_j, sections) = Hom_B(V_j, F) (Frobenius reciprocity;
  Jantzen, *Representations of Algebraic Groups*, I.3.4).  As a b-module
  V_j is generated by its lowest weight vector u with the relations
  h u = -j u and e^(j+1) u = 0, so Hom_B(V_j, F) is the space of vectors
  of F of weight -j that e^(j+1) kills.  With complete reducibility,

      h0(N(t)) = sum_j (j + 1) dim{m in M of weight t - j : e^(j+1) m = 0}.

* For N = O(a_1) + ... + O(a_r), h0(N(t)) = sum_i max(a_i + t + 1, 0), so
  the number of a_i equal to a is h0(N(-a)) - 2 h0(N(-a-1)) + h0(N(-a-2)).
  If M's weights lie in [lo, hi], h0(N(t)) is 0 for t < lo, and linear for
  t >= hi (e^(t-w+1) then takes weight w past hi), so a lies in
  [-hi - 1, -lo].
* c1(W) = -tr sigma(h) on W_x and c1(L') = -(d + d - 2), from the weights
  of v0 and f v0.  The bookkeeping deg N = c1(W) - c1(L') + d (rank W - 2)
  then checks the h0 count against the trace.

On the conic, W_x is all of C^3, with weights 2, 0 and -2; M is the class
of the weight -2 vector, tensored with C v0* to weight -4, so N = O(4).

On the adjoint sl(2), v0 = e, f v0 = -h and f^2 v0 / 2 = -f, so
v(z) = z0^2 e - z0 z1 h - z1^2 f, divided by its last coefficient -1; the
curve is the nilpotent family itself.  On the conic, W is the trivial
bundle and L' has the derivative columns' degrees d - 1 = 1:

>>> from qlike.catalog import build_adjoint, build_veronese
>>> veronese_curve(build_adjoint("sl(2)", "principal"))[1]
[BinaryForm('-z0^2'), BinaryForm('z0*z1'), BinaryForm('z1^2')]
>>> fams = orbit_tangent_family(build_veronese(2))
>>> fams.w.degrees, fams.l_prime.degrees
((0, 0, 0), (1, 1))
>>> d, h, e = _tangent_fibre(build_veronese(2))
>>> d, [h[i][i] for i in range(3)]
(2, [Scalar('2'), Scalar('0'), Scalar('-2')])
>>> normal_bundle(build_veronese(2)).normal
SplittingType(summands=(4,))
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundles import SplittingType, SubbundleFamily, saturate
from .errors import InternalError, InvalidInput
from .forms import BinaryForm, Z0, Z1
from .lie import (LieAlgebra, Representation, Sl2Embedding,
                  _multiplicities_from_h, _weight_spaces)
from .linalg import (independent_rows, kernel_basis, mat_vec, rank,
                     solve_matrix, transpose)
from .polymatrix import PolyMatrix, _apply_scalar_matrix
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
            if len(self.nilpotent) != self.algebra.dim:
                raise InvalidInput("nilpotent needs %d coordinates"
                                   % self.algebra.dim)

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
    """The orbit of the highest-weight line of U, written down from v0.

    Returns (degree d, curve in U coordinates, curve in ambient E
    coordinates), with v(z) = sum_k z0^(d-k) z1^k sigma(f)^k v0 / k! for v0
    spanning ker sigma(e) on U, divided by its last nonzero coefficient
    (coordinate-major, z1-power order).  It spans the kernel of the
    nilpotent family at every point, as the module docstring proves from
    the validated hypotheses.
    """
    report, restricted = _validate_quadruple(q)
    if not report["valid"]:
        raise InvalidInput("invalid quadruple: %s" % "; ".join(
            c["name"] for c in report["checks"] if c["status"] == "fail"))
    d = report["curve_degree"]
    s_e, _, s_f = restricted
    w = kernel_basis(s_e)           # [v0], then sigma(f)^k v0 / k! appended
    if len(w) != 1:
        raise InternalError("highest weight space of dimension %d on an "
                            "irreducible U" % len(w))
    for k in range(1, d + 1):
        w.append([c / k for c in mat_vec(s_f, w[-1])])
    coords = range(q.u_dim)
    last = next(wk[i] for i in reversed(coords) for wk in reversed(w) if wk[i])
    v_u = [BinaryForm(d, [wk[i] / last for wk in w]) for i in coords]
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
    """W = saturation of { sigma(x_i) v(z) }; L' = the derivative columns.

    By the module docstring, the raw tangent columns already span v(z) and
    have constant rank along the curve, so their saturation is the bundle
    they span; the derivative columns are a free basis of the osculating
    bundle once their fibre at [1 : 0] has rank 2.  That rank and the Euler
    relation are still checked exactly.
    """
    d, v_u, v_e = veronese_curve(q)
    n = q.space_dim
    raw_cols = [_apply_scalar_matrix(m, v_e, d) for m in q.sigma.matrices]
    w = saturate(PolyMatrix.from_columns(n, raw_cols, [d] * len(raw_cols)))

    d0 = [f.d_z0() for f in v_e]
    d1 = [f.d_z1() for f in v_e]
    # Euler relation d*v = z0 dv/dz0 + z1 dv/dz1, exactly
    for f, a, b in zip(v_e, d0, d1):
        if f.scale(Scalar(d)) != Z0 * a + Z1 * b:
            raise InternalError("Euler relation failed on the curve")
    raw_l = PolyMatrix.from_columns(n, [d0, d1], [d - 1, d - 1])
    if rank(raw_l.evaluate(1, 0)) != 2:
        raise InvalidInput("curve not immersed")
    return TangentFamilies(d, v_e, w, SubbundleFamily(n, raw_l))


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


def _tangent_fibre(q: GoodQuadruple):
    """(d, sigma(h) on W_x, sigma(e) on W_x) at x = [1 : 0], in a basis of
    W_x = sigma(g) v0 that starts with v0 and f v0 (module docstring).

    v0 and f v0 are the z0^d and z0^(d-1) z1 coefficients of
    :func:`veronese_curve`'s curve, on one scale.
    """
    d, _, v_e = veronese_curve(q)
    v0 = [f.coeffs[0] for f in v_e]
    vectors = [v0, [f.coeffs[1] for f in v_e]]
    vectors += [mat_vec(m, v0) for m in q.sigma.matrices]
    rows = independent_rows(vectors)
    if rows[:2] != [0, 1]:
        raise InvalidInput("curve not immersed")
    basis = [vectors[i] for i in rows]
    images = [mat_vec(m, b) for m in (q.sigma.apply(list(q.tau.h)),
                                      q.sigma.apply(list(q.tau.e)))
              for b in basis]
    coords = solve_matrix(transpose(basis), transpose(images))
    if coords is None:
        raise InternalError("the orbit's tangent fibre is not invariant "
                            "under h and e")
    r = len(basis)
    return d, [row[:r] for row in coords], [row[r:] for row in coords]


def _homogeneous_splitting(h, e, bound):
    """Splitting type of the SL(2)-homogeneous bundle on P^1 whose fibre at
    [1 : 0] is the b-module with matrices h and e, by the h0 count of the
    module docstring; h's eigenvalues are sought in [-bound, bound]."""
    spaces = _weight_spaces(h, bound)
    lo, hi = min(spaces, default=0), max(spaces, default=0)
    killed = {}     # weight w -> dims killed by e, e^2, ... until e^k = 0
    for w, space in spaces.items():
        image, killed[w] = space, []
        for _ in range((hi - w) // 2 + 1):
            image = [mat_vec(e, v) for v in image]
            killed[w].append(len(space) - rank(image))

    def h0(t):
        return sum((t - w + 1) * dims[min(t - w, len(dims) - 1)]
                   for w, dims in killed.items() if w <= t)
    return SplittingType.of([a for a in range(-hi - 1, -lo + 1)
                             for _ in range(h0(-a) - 2 * h0(-a - 1)
                                            + h0(-a - 2))])


def normal_bundle(q: GoodQuadruple, expected: SplittingType = None,
                  expected_source: str = "") -> NormalBundleReport:
    """Splitting type of the normal bundle of the curve in its orbit.

    normal = (W / L') tensor O(d), read off the b-module of its fibre at
    [1 : 0] (module docstring); all summands must be nonnegative, and the
    first-Chern bookkeeping sum(normal) = (c1(W) - c1(L')) + d*(rank W - 2)
    is asserted exactly, with c1(W) from the trace of h on W's fibre.
    """
    d, h, e = _tangent_fibre(q)
    r = len(h)
    # W_x / L'_x: drop v0 and f v0, which span an h- and e-stable subspace
    quotient = _homogeneous_splitting([row[2:] for row in h[2:]],
                                      [row[2:] for row in e[2:]],
                                      q.space_dim - 1)
    normal = SplittingType.of([a + d for a in quotient.summands])
    if normal.rank != r - 2:
        raise InternalError("normal rank %d, tangent rank %d" % (normal.rank, r))
    c1_w = -sum(h[i][i] for i in range(r))
    c1_l = 2 - 2 * d
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
