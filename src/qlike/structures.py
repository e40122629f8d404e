"""Linear quaternionic-like structures.

A structure on U is a holomorphically embedded sphere of k-dimensional
subspaces U^z of the complexification of U, presented by a polynomial
spanning matrix z -> U^z and (in real mode) an antilinear conjugation
x -> C conj(x) compatible with the antipodal map of the sphere.

The module provides validation (rank, reality, immersion, injectivity,
nonsplitting; the curve checks live in :mod:`qlike.embedding`),
classification by splitting types, the plus/minus section-space
presentations ("heaven" data and its dual), and the verifier for the
factorization identity psi_plus . psi_minus = rho_plus . iota . rho_minus_star
together with its kernel/cokernel bookkeeping.
"""

from __future__ import annotations

from .bundles import (QuotientBundle, SplittingType, SubbundleFamily,
                      annihilator, family_contains, is_split_extension,
                      saturate, splitting_type, verify_canonical_sequences)
from .embedding import curve_checks
from .errors import InternalError, InvalidInput
from .forms import antipodal_transform, format_form, parse_form
from .linalg import (conj_matrix, identity, inverse, kernel_basis, mat_eq,
                     mat_mul, rank, transpose, zeros)
from .polymatrix import (PolyMatrix, _apply_scalar_matrix, _equation_rows,
                         _section_layout, solve_combination)
from .scalars import (ONE, ZERO, Scalar, clear_denominators, gaussian,
                      scalar)


class QLikeStructure:
    """Immutable spanning-matrix presentation of a sphere of subspaces."""

    __slots__ = ("dim", "k", "spanning", "conjugation", "complex_mode")

    def __init__(self, dim, k, spanning: PolyMatrix, conjugation=None,
                 complex_mode=False):
        if spanning.rows != dim:
            raise InvalidInput("spanning matrix has %d rows, dim is %d"
                               % (spanning.rows, dim))
        if conjugation is not None:
            conjugation = tuple(tuple(scalar(x) for x in row)
                                for row in conjugation)
            if len(conjugation) != dim or any(len(r) != dim for r in conjugation):
                raise InvalidInput("conjugation matrix must be %dx%d" % (dim, dim))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "spanning", spanning)
        object.__setattr__(self, "conjugation", conjugation)
        object.__setattr__(self, "complex_mode", bool(complex_mode))

    def __setattr__(self, name, value):
        raise AttributeError("QLikeStructure is immutable")

    def conjugation_matrix(self):
        if self.conjugation is None:
            return identity(self.dim)
        return [list(row) for row in self.conjugation]

    def to_json(self):
        data = {
            "mode": "complex" if self.complex_mode else "real",
            "dim": self.dim,
            "k": self.k,
            "spanning": [[format_form(f) for f in col]
                         for col in self.spanning.columns()],
        }
        if self.conjugation is not None:
            from .scalars import format_scalar
            data["conjugation"] = [[format_scalar(x) for x in row]
                                   for row in self.conjugation]
        return data

    @staticmethod
    def from_json(data):
        mode = data.get("mode", "real")
        dim, k, spanning = data["dim"], data["k"], data["spanning"]
        if mode not in ("real", "complex"):
            raise InvalidInput('mode must be "real" or "complex"')
        if type(dim) is not int or type(k) is not int:
            raise InvalidInput("dim and k must be integers")
        if not isinstance(spanning, list) or not all(
                isinstance(col, list) and all(isinstance(s, str) for s in col)
                for col in spanning):
            raise InvalidInput("spanning must be a list of lists of forms")
        cols = [[parse_form(s) for s in col] for col in spanning]
        if any(len(col) != dim for col in cols):
            raise InvalidInput("every spanning column needs %d entries" % dim)
        spanning = PolyMatrix.from_columns(dim, cols)
        # the constructor reads string and integer conjugation entries
        return QLikeStructure(dim, k, spanning,
                              data.get("conjugation"),
                              complex_mode=(mode == "complex"))

    def __repr__(self):
        return "QLikeStructure(dim=%d, k=%d, mode=%s)" % (
            self.dim, self.k, "complex" if self.complex_mode else "real")


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

class CheckResult:
    def __init__(self, name, status, detail=""):
        self.name = name
        self.status = status            # "pass" | "fail" | "warn"
        self.detail = detail


class ValidationReport:
    def __init__(self, checks=None, family: SubbundleFamily = None,
                 routes=None):
        self.checks = [] if checks is None else checks
        # the saturated family the checks ran on, for analyze (its
        # annihilator comes with it); not serialized
        self.family = family
        # how each curve check was decided, by "pluecker", "immersion" and
        # "injectivity": "modular:<p>" (a certificate modulo the prime p),
        # "exact" (which covers the rational-normal-curve rule of
        # qlike.embedding) or "sampled"; not serialized
        self.routes = {} if routes is None else routes

    def add(self, name, status, detail=""):
        self.checks.append(CheckResult(name, status, detail))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    def failed_names(self):
        return [c.name for c in self.checks if c.status == "fail"]

    def to_json(self):
        return {
            "passed": self.passed,
            "checks": [{"name": c.name, "status": c.status, "detail": c.detail}
                       for c in self.checks],
        }


def validate(S: QLikeStructure) -> ValidationReport:
    """Run the validity checks in order; rank failure aborts the rest."""
    report = ValidationReport()
    n, k = S.dim, S.k
    if k <= 0 or k >= n:
        report.add("codimension", "fail",
                   "not an embedding of positive codimension family (k=%d, dim=%d)"
                   % (k, n))
        return report
    report.add("codimension", "pass")
    family = saturate(S.spanning)
    if family.rank != k:
        report.add("generic-rank", "fail",
                   "spanning matrix has generic rank %d, expected k=%d"
                   % (family.rank, k))
        return report
    report.add("generic-rank", "pass")

    report.family = family
    report.add("saturation", "pass",
               "free basis degrees %s" % (list(family.degrees),))

    if not S.complex_mode:
        status, detail = _reality_check(S, family)
        report.add("reality", status, detail)

    checks, report.routes = curve_checks(family)
    for name, status, detail in checks:
        report.add(name, status, detail)

    split = is_split_extension(family)
    report.add("nonsplitting", "fail" if split else "pass",
               "holomorphic retraction exists" if split else "")
    return report


def _reality_check(S, family):
    C = S.conjugation_matrix()
    n = S.dim
    cbar = conj_matrix(C)
    prod = mat_mul(C, cbar)
    if not mat_eq(prod, identity(n)):
        return "fail", "C conj(C) is not the identity"
    # C applied to the antipodal transform of the basis must stay in the family
    for col, d in zip(family.columns(), family.degrees):
        twisted = [antipodal_transform(f) for f in col]
        moved = _apply_scalar_matrix(C, twisted)
        if not family_contains(family, moved, d):
            return "fail", "conjugation does not preserve the family"
    return "pass", ""


# --------------------------------------------------------------------------
# derived families and duality
# --------------------------------------------------------------------------

def minus_family(S: QLikeStructure) -> SubbundleFamily:
    """The tautological subbundle family (saturation of the spanning matrix)."""
    return saturate(S.spanning)


def dualize(S: QLikeStructure) -> QLikeStructure:
    """Structure on the dual space: z maps to the annihilator of U^z.

    Raises InvalidInput unless 0 < k < dim and the saturated family has
    rank k, since otherwise the dual's k = dim - k contradicts its span,
    and in real mode unless the conjugation matrix is invertible."""
    if S.k <= 0 or S.k >= S.dim:
        raise InvalidInput("cannot dualize: need 0 < k < dim (k=%d, dim=%d)"
                           % (S.k, S.dim))
    if not S.complex_mode and rank(S.conjugation_matrix()) < S.dim:
        raise InvalidInput("cannot dualize: the conjugation matrix is singular")
    fam = minus_family(S)
    if fam.rank != S.k:
        raise InvalidInput("cannot dualize: spanning matrix has generic rank "
                           "%d, expected k=%d" % (fam.rank, S.k))
    return _dual_structure(S, annihilator(fam))


def _dual_structure(S: QLikeStructure, ann: SubbundleFamily) -> QLikeStructure:
    """The dual of S, spanned by the annihilator ``ann`` of S's family."""
    conj = None
    if not S.complex_mode:
        # kappa*(phi) = D conj(phi) with D = (C^T)^{-1}
        conj = transpose(inverse(S.conjugation_matrix()))
    return QLikeStructure(S.dim, S.dim - S.k, ann.basis, conj,
                          complex_mode=S.complex_mode)


def check_morphism(S: QLikeStructure, S2: QLikeStructure, psi, T) -> bool:
    """Is (psi, T) a morphism, i.e. psi(U^z) inside V^{T(z)} for all z?

    psi is a dim(S2) x dim(S) scalar matrix; T an invertible 2x2 scalar
    matrix acting on the sphere coordinates.  In real mode T must commute
    with the antipodal involution (unit-quaternion Moebius map up to scale).
    Raises InvalidInput when either matrix has another shape.
    """
    if len(psi) != S2.dim or any(len(row) != S.dim for row in psi):
        raise InvalidInput("psi must be %dx%d" % (S2.dim, S.dim))
    if len(T) != 2 or any(len(row) != 2 for row in T):
        raise InvalidInput("T must be 2x2")
    T = [[scalar(x) for x in row] for row in T]
    det = T[0][0] * T[1][1] - T[0][1] * T[1][0]
    if det.is_zero():
        raise InvalidInput("T is not invertible")
    real_mode = not (S.complex_mode or S2.complex_mode)
    if real_mode and not _antipodal_equivariant(T):
        raise InvalidInput("T does not commute with the antipodal map")
    fam = minus_family(S)
    fam2 = minus_family(S2)
    moved_cols = []
    for col, d in zip(fam2.columns(), fam2.degrees):
        moved_cols.append([f.substitute(T[0][0], T[0][1], T[1][0], T[1][1])
                           for f in col])
    psi = [[scalar(x) for x in row] for row in psi]
    for col, d in zip(fam.columns(), fam.degrees):
        image = _apply_scalar_matrix(psi, col)
        sol = solve_combination(moved_cols, list(fam2.degrees), image, d)
        if sol is None:
            return False
    return True


def _antipodal_equivariant(T):
    # J conj(T) = lambda T J for some scalar lambda, J the antipodal matrix
    J = [[ZERO, Scalar(-1)], [ONE, ZERO]]
    lhs = mat_mul(J, conj_matrix(T))
    rhs = mat_mul(T, J)
    lam = None
    for i in range(2):
        for j in range(2):
            if not rhs[i][j].is_zero():
                lam = lhs[i][j] / rhs[i][j]
                break
        if lam is not None:
            break
    if lam is None:
        return False
    return mat_eq(lhs, [[x * lam for x in row] for row in rhs])


# --------------------------------------------------------------------------
# heaven-side and minus-side presentations
# --------------------------------------------------------------------------

class HeavenData:
    """Section-space presentation of the quotient side.

    U_plus is H^0 of the quotient bundle with its pairing-tuple basis;
    E_plus = H^0(O(1)) tensor H^0(quotient(-1)); psi_plus pairs a vector
    of U against the annihilator generators.  rho_plus, which multiplies a
    twisted section tuple by a linear form, is not stored: everything the
    analysis uses of it is read off the annihilator degrees
    (:func:`verify_factorization`).  Nor are the conjugations that real
    mode induces on U_plus and H_plus: once validate's reality check has
    passed, they square to +1 and -1 and psi_plus is equivariant, as
    :func:`heaven_data` proves.
    """

    def __init__(self, structure: QLikeStructure, family: SubbundleFamily,
                 ann: SubbundleFamily, u_plus_dim, h_plus_dim, e_plus_dim,
                 psi_plus):
        self.structure = structure
        self.family = family
        self.ann = ann
        self.u_plus_dim = u_plus_dim
        self.h_plus_dim = h_plus_dim
        self.e_plus_dim = e_plus_dim
        self.psi_plus = psi_plus


def heaven_data(S: QLikeStructure, family: SubbundleFamily = None) -> HeavenData:
    """Plus-side data of S.  ``family`` is S's saturated family when the
    caller has it (validate's); otherwise it is saturated here.  Either
    way its annihilator is the saturation's link, so analyze reads the
    splittings, canonical sequences and minus side without re-deriving.

    Plus-side genericity, V_z + im psi_plus = U_plus at every z (V_z: the
    sections vanishing at z), is proven here, not checked.  Annihilator
    degrees a_j are >= 0 (graded_kernel starts at stage 0), so evaluation
    ev_z: U_plus -> C^(n-k) is onto with kernel V_z, and ev_z(psi_plus(u))
    = (q_j(z) . u)_j = B(z)^T u for the annihilator basis B; so
    dim(V_z + im psi_plus) = u_dim - (n - k) + rank B(z), and genericity
    is rank B(z) = n - k.  Let F be the family's basis, of degrees e_i.
    B^T F = 0 and B has generic rank n - k, so B's (n-k)-minor at the rows
    I^c is lambda eps(I) times F's k-minor at I, for one rational function
    lambda, eps(I) being the sign of the permutation (I, I^c): these are
    the Pluecker coordinates of an orthogonal complement (Griffiths and
    Harris, *Principles of Algebraic Geometry*, 1.5).  F's minors have no
    common zero, as validate proves of its family (:func:`minus_data`) and
    as holds for any saturated one, so lambda is a polynomial, of degree
    sum a_j - sum e_i, which analyze's first-Chern check asserts is 0.  So
    lambda is a nonzero constant, B's minors have no common zero either,
    and rank B(z) = n - k at every z.  Run on the dual structure, as
    :func:`minus_data` does, the same statement is the minus side's.

    In real mode the induced conjugations on U_plus = H^0(Q) and H_plus =
    H^0(Q(-1)) are proven, not built.  Write a(p)(z) = conj(p(s z)) for
    the antipodal transform of a form, s(z0, z1) = (-conj z1, conj z0),
    and apply it entrywise to columns.  a is antilinear, a(g h) = a(g)
    a(h), and a(a(p)) = (-1)^(deg p) p, since s(s z) = -z.  Assume validate's
    reality check passed: C conj(C) = 1, and C a(f) lies in the family for
    each basis column f.  Let D = (C^T)^-1, q_j the annihilator basis, of
    degrees a_j.

    1. D a preserves the annihilator.  C a(g f) = a(g) C a(f), so C a maps
       the family's sections into themselves, and onto them, since
       (C a)^2 f = C conj(C) a(a(f)) = +-f.  For q killing the family and
       any family section f, (D a(q))^T (C a(f)) = a(q)^T a(f), as
       D^T C = 1, and that is conj((q^T f)(s z)) = 0.  So D a(q) kills
       every section of the family, and the annihilator, which holds every
       covector that does, contains it: D a(q_j) = sum_l G_jl q_l for
       forms G_jl of degree a_j - a_l, which always exist.
    2. The squares are fixed.  On the twist-m tuples, m = 0 for U_plus
       and m = -1 for H_plus, the induced map is kappa(f)_j =
       (-1)^(a_j) a(sum_l G_jl f_l).  D conj(D) = 1, as C conj(C) = 1, so
       D a(D a(q_j)) = (-1)^(a_j) q_j; expanding the left side by part 1
       gives sum_l a(G_jl) G_li = (-1)^(a_j) delta_ji, q being a free
       basis.  Then kappa(kappa(f))_j = (-1)^(a_j) sum_l (-1)^(a_l)
       a(G_jl) a(a(sum_i G_li f_i)), and a(a(.)) at degree a_l + m gives
       (-1)^(a_l + m), so kappa^2 = (-1)^m: +1 on U_plus, -1 on H_plus,
       the quaternionic lift of the antipodal map to O(1).  E_plus = S1
       tensor H_plus, with the antipodal structure z0 -> -z1, z1 -> z0 on
       S1, has the conjugation [[0, C_H], [-C_H, 0]] in z_a-major blocks,
       whose square is diag(-C_H conj(C_H), -C_H conj(C_H)) = +1.
    3. psi_plus is equivariant: psi_plus C = C_U conj(psi_plus).  With
       psi_plus(u)_j = q_j^T u, sum_l G_jl q_l^T u = (D a(q_j))^T u =
       a(q_j)^T C^-1 u, so kappa(psi_plus(u))_j = (-1)^(a_j)
       a(a(q_j))^T conj(C)^-1 conj(u) = q_j^T C conj(u), as conj(C)^-1 =
       C: the pairing commutes with the two conjugations.

    The dual structure's conjugation D is real (D conj(D) = 1), and part 1
    is its reality check, so the same holds on the minus side.
    ``tests/oracles.py:plus_conjugations`` builds C_U and C_H, and the
    tests check all three parts on it."""
    if family is None:
        family = saturate(S.spanning)
    ann = annihilator(family)
    degs = list(ann.degrees)
    n = S.dim
    u_dim = _section_layout(degs, 0)[2]
    h_dim = _section_layout(degs, -1)[2]

    # psi_plus: u in U maps to the tuple of pairings <q_j(.), u>, the
    # equations of the constant vectors u that every q_j kills
    psi = _equation_rows([[f.coeffs for f in col] for col in ann.columns()],
                         [0] * n, 0)
    return HeavenData(S, family, ann, u_dim, h_dim, 2 * h_dim, psi)


class MinusData:
    """Dual-side presentation, obtained from the heaven data of the dual
    structure by transposition.  Like rho_plus, rho_minus_star (the
    transpose of the dual's rho_plus) is not stored; it too is read off
    the annihilator degrees."""

    def __init__(self, dual_heaven: HeavenData, u_minus_dim, h_minus_dim,
                 e_minus_dim, psi_minus):
        self.dual_heaven = dual_heaven
        self.u_minus_dim = u_minus_dim
        self.h_minus_dim = h_minus_dim
        self.e_minus_dim = e_minus_dim
        self.psi_minus = psi_minus          # U_minus -> U


def minus_data(hd: HeavenData) -> MinusData:
    """Minus side of hd's structure, the transpose of the dual structure's
    plus side; the dual's family is hd.ann, whose annihilator is hd.family.

    Minus-side genericity, (V'_z)^perp meeting ker psi_minus trivially at
    every z (V'_z: the dual's sections vanishing at z), is the dual's
    plus-side genericity: ker psi_minus = (im dual.psi_plus)^perp, as
    psi_minus = dual.psi_plus^T, so the intersection is
    (V'_z + im dual.psi_plus)^perp.  By :func:`heaven_data` that is
    rank F(z) = k at every z for hd.family's basis F, which is validate's
    family.  validate proved that the Pluecker coordinates of F, the k x k
    minors of this very basis, have no common zero: by
    :mod:`qlike.embedding`'s rational-normal-curve rule (z0^d and z1^d lie
    in their span), or by the modular certificate or exact gcd of its
    ``_reduced_pluecker``, which raises InternalError otherwise.  So it
    holds at every z, with no check."""
    dual = heaven_data(_dual_structure(hd.structure, hd.ann), hd.ann)
    return MinusData(dual, dual.u_plus_dim, dual.h_plus_dim,
                     dual.e_plus_dim, transpose(dual.psi_plus))


# --------------------------------------------------------------------------
# the factorization identity and its kernel/cokernel bookkeeping
# --------------------------------------------------------------------------

class FactorizationReport:
    """Outcome of :func:`verify_factorization`.  ``solution_dim``, the
    dimension of the identity's homogeneous solutions, is always 0: the
    intertwiner is unique when it exists (the recurrence in
    :func:`verify_factorization`).  It stays in the report as
    ``solution_space_dim``."""

    def __init__(self, solvable, solution_dim, iso_found, dims, facts):
        self.solvable = solvable
        self.solution_dim = solution_dim
        self.iso_found = iso_found
        self.dims = dims
        self.facts = facts

    @property
    def passed(self):
        return self.solvable and all(self.facts.values())

    def to_json(self):
        return {
            "solvable": self.solvable,
            "solution_space_dim": self.solution_dim,
            "iso_found": self.iso_found,
            "dims": dict(self.dims),
            "facts": dict(self.facts),
            "passed": self.passed,
        }


def verify_factorization(hd: HeavenData, md: MinusData) -> FactorizationReport:
    """Build the intertwiner iota with
    psi_plus . psi_minus = rho_plus . iota . rho_minus_star, and check the
    kernel/cokernel correspondences it induces.

    iota is constrained to the compatible shape Omega tensor X, with
    Omega: (z0*, z1*) -> (-z1, z0) the canonical S1* ~ S1 twist on the first
    factor and X: H_minus -> H_plus arbitrary on the section factor; this is
    exactly the intertwining condition for the multiplication actions of
    z0, z1.  rho_plus and rho_minus_star are block-diagonal by summand, so
    the identity splits into one block per plus summand of degree a and
    minus summand of degree e.  In their monomial coordinates it reads

        L(s, t) = X(s, t-1) - X(s-1, t),   0 <= s <= a, 0 <= t <= e,

    for the block L of psi_plus . psi_minus and the a x e block X of the
    intertwiner, X being zero outside 0 <= s < a, 0 <= t < e.  The
    equations at s < a, t >= 1 give the recurrence
    X(s, t) = L(s, t+1) + X(s-1, t+1), which fixes X row by row from s = 0.

    The intertwiner is unique when it exists: a difference D of two
    solutions has D(s, t-1) = D(s-1, t) everywhere, so D(0, .) = D(-1, .)
    = 0 and, by induction on s, D = 0.  The recurrence's X is therefore
    checked against every entry of L; the identity is solvable exactly
    when it passes, the solution space has dimension 0, and an invertible
    iota exists exactly when rank X = hp.

    Only psi_plus and psi_minus are eliminated; everything about rho is
    read off the annihilator degrees, a_j on the plus side and e_l on the
    minus side.

    - Block j of rho_plus, S1 tensor S_(a_j - 1) -> S_(a_j), is onto when
      a_j >= 1: z0 and z1 times the monomials of degree a_j - 1 reach
      every monomial of degree a_j.  When a_j = 0 the block has no
      columns, and its one row is hit by nothing.  So rank rho_plus is
      u_plus - #{j : a_j = 0}.
    - The columns of rho_minus_star are the rows of the dual's rho_plus.
      Each column of that rho_plus holds a single 1, so those rows have
      disjoint supports, and only the rows at Z are zero, Z being the S_0
      coordinate of each degree-0 minus summand.  So ker rho_minus_star is
      spanned by the unit vectors at Z, its rank is u_minus - |Z|, and
      psi_minus sends that basis to its own columns at Z: fact c is a rank
      test of those columns against ker psi_plus.
    - Fact b says that rho_minus_star maps ker psi_minus bijectively onto
      iota^-1(ker rho_plus).  When the identity holds, take w in
      ker psi_minus; then rho_plus iota (rho_minus_star w) = psi_plus
      psi_minus w = 0.  So rho_minus_star always maps ker psi_minus into
      iota^-1(ker rho_plus).  With iota invertible that subspace has
      dimension dim ker rho_plus, and "bijectively onto" then means two
      things: dim ker psi_minus = dim ker rho_plus, and ker psi_minus meets
      span(Z) = ker rho_minus_star only in 0, that is, psi_minus's columns
      at Z are independent.

    L is the one product taken, in Gaussian integers with one common
    denominator per block (:func:`_intertwiner`).

    >>> from qlike.catalog import build_conic_r3
    >>> hd = heaven_data(build_conic_r3())
    >>> report = verify_factorization(hd, minus_data(hd))
    >>> report.solvable, report.solution_dim, report.iso_found
    (True, 0, True)
    """
    if hd.h_plus_dim != md.h_minus_dim:
        raise InternalError("twisted section dimensions disagree "
                            "(Serre-duality dimension identity broken)")
    n, hp = hd.structure.dim, hd.h_plus_dim
    up, um = hd.u_plus_dim, md.u_minus_dim
    plus_degrees = hd.ann.degrees
    minus_degrees = md.dual_heaven.ann.degrees
    X = _intertwiner(hd.psi_plus, md.psi_minus, plus_degrees, minus_degrees)
    solvable = X is not None

    # psi_minus's columns at Z, the images of ker rho_minus_star's basis
    _, offsets, _ = _section_layout(minus_degrees, 0)
    at_z = [[row[o] for row in md.psi_minus]
            for o, e in zip(offsets, minus_degrees) if e == 0]
    ker_psi_plus = kernel_basis(hd.psi_plus)
    rk_psi_minus = rank(md.psi_minus)
    rk_rho_plus = up - plus_degrees.count(0)
    dims = {
        "U": n,
        "U_plus": up,
        "U_minus": um,
        "E": hd.e_plus_dim,
        "H_plus": hp,
        "H_minus": md.h_minus_dim,
        "ker_psi_minus": um - rk_psi_minus,
        "ker_rho_plus": hd.e_plus_dim - rk_rho_plus,
        "ker_rho_minus_star": len(at_z),
        "ker_psi_plus": len(ker_psi_plus),
        "coker_rho_minus_star": md.e_minus_dim - (um - len(at_z)),
        "coker_psi_plus": up - (n - len(ker_psi_plus)),
        "coker_psi_minus": n - rk_psi_minus,
        "coker_rho_plus": up - rk_rho_plus,
    }
    facts = {
        "kernel_dims_match": dims["ker_psi_minus"] == dims["ker_rho_plus"],
        "psi_minus_maps_ker_rho_minus_star_onto_ker_psi_plus":
            _maps_onto(at_z, ker_psi_plus),
        "cokernel_dims_match_d":
            dims["coker_rho_minus_star"] == dims["coker_psi_plus"],
        "cokernel_dims_match_e":
            dims["coker_psi_minus"] == dims["coker_rho_plus"],
    }

    iota_found = solvable and (hp == 0 or rank(X) == hp)
    if solvable:
        facts["rho_minus_star_maps_ker_psi_minus_onto_iota_inv_ker_rho_plus"] = \
            (iota_found and facts["kernel_dims_match"]
             and rank(at_z) == len(at_z))
    return FactorizationReport(solvable, 0, iota_found, dims, facts)


def _intertwiner(psi_plus, psi_minus, plus_degrees, minus_degrees):
    """The section factor X of iota, built block by block by the
    recurrence of :func:`verify_factorization` from L = psi_plus .
    psi_minus, or None when it fails the identity on some entry of L.
    Rows follow rho_plus's layouts of the plus degrees, columns
    rho_minus_star's of the minus degrees.

    L is never formed in Scalars.  Block (j, l) of L is the product of
    psi_plus's rows of plus block j (a_j + 1 of them) and psi_minus's
    columns of minus block l (e_l + 1); with D_j the lcm of the
    denominators in those rows and E_l the lcm in those columns, the block
    of D_j E_l L is a Gaussian-integer matrix, computed in ints.  The
    recurrence and the identity are linear in the block, and the whole
    block is scaled by the one constant D_j E_l, so they run unchanged on
    the scaled block: its recurrence gives D_j E_l X, and each entry is
    divided once.  One factor per row would not do: the recurrence adds
    row s - 1 of X to row s of L, and the identity compares rows s and
    s - 1, so rows scaled differently would no longer add up."""
    row_len, row_u, _ = _section_layout(plus_degrees, 0)
    _, row_h, hp = _section_layout(plus_degrees, -1)
    col_len, col_u, _ = _section_layout(minus_degrees, 0)
    _, col_h, hm = _section_layout(minus_degrees, -1)
    lhs, dp, dm = _gaussian_product(psi_plus, transpose(psi_minus),
                                    row_len, col_len)
    X = zeros(hp, hm)
    for a, ru, rh in zip(plus_degrees, row_u, row_h):
        for e, cu, ch in zip(minus_degrees, col_u, col_h):
            den = dp[ru] * dm[cu]
            # the scaled block with a zero row a and a zero column e
            # appended: index -1 wraps to them, X's zeros at s, t = -1
            L = [row[cu:cu + e + 1] for row in lhs[ru:ru + a + 1]]
            B = [[(0, 0)] * (e + 1) for _ in range(a + 1)]
            for s in range(a):
                ls, bs, prev = L[s], B[s], B[s - 1]
                for t in range(e):
                    (lr, li), (pr, pi) = ls[t + 1], prev[t + 1]
                    bs[t] = (lr + pr, li + pi)
            for s in range(a + 1):
                ls, bs, prev = L[s], B[s], B[s - 1]
                for t in range(e + 1):
                    (lr, li), (xr, xi), (yr, yi) = ls[t], bs[t - 1], prev[t]
                    if lr != xr - yr or li != xi - yi:
                        return None
            for s in range(a):
                X[rh + s][ch:ch + e] = [gaussian(re, im, den) if re or im
                                        else ZERO for re, im in B[s][:e]]
    return X


def _gaussian_product(a, b, a_sizes, b_sizes):
    """``(p, da, db)`` with a_i . b_j = p[i][j] / (da[i] db[j]) for the
    rows a_i of ``a`` and b_j of ``b``, computed in Gaussian integers:
    ``p`` holds (re, im) int pairs, ``da`` and ``db`` one int per row.

    Each run of ``a_sizes`` consecutive rows of ``a`` is cleared over the
    lcm of its denominators, so the rows of a run share their ``da``;
    likewise ``b`` with ``b_sizes``.  No Scalar arithmetic is done."""
    a_dens, a_ints = _cleared(a, a_sizes)
    b_dens, b_ints = _cleared(b, b_sizes)
    # b's nonzero entries by coordinate, so that only products of two
    # nonzero entries are taken
    by_coordinate = [[] for _ in range(len(b_ints[0]) if b_ints else 0)]
    for j, row in enumerate(b_ints):
        for t, (yr, yi) in enumerate(row):
            if yr or yi:
                by_coordinate[t].append((j, yr, yi))
    product = []
    for row in a_ints:
        sr, si = [0] * len(b_ints), [0] * len(b_ints)
        for (xr, xi), entries in zip(row, by_coordinate):
            if xr or xi:
                for j, yr, yi in entries:
                    sr[j] += xr * yr - xi * yi
                    si[j] += xr * yi + xi * yr
        product.append(list(zip(sr, si)))
    return product, a_dens, b_dens


def _cleared(rows, sizes):
    """``(dens, ints)``: each run of ``sizes`` rows times the lcm of the
    run's denominators, as (re, im) int pairs, and that lcm once for each
    row."""
    dens, ints = [], []
    start = 0
    for size in sizes:
        run = rows[start:start + size]
        start += size
        d, pairs = clear_denominators([x for row in run for x in row])
        width = len(run[0]) if run else 0
        dens += [d] * size
        ints += [pairs[k * width:(k + 1) * width] for k in range(size)]
    return dens, ints


def _maps_onto(images, basis):
    """Whether the ``images`` of a basis form a basis of the span of the
    independent vectors ``basis``."""
    if len(images) != len(basis):
        return False
    if not images:
        return True
    if rank(images) != len(images):
        return False
    return rank(images + basis) == len(basis)


# --------------------------------------------------------------------------
# analysis / classification
# --------------------------------------------------------------------------

class AnalysisReport:
    def __init__(self, validation: ValidationReport, u_minus: SplittingType,
                 u_plus: SplittingType, label, flags, dims,
                 factorization: FactorizationReport, canonical_sequences,
                 serre_identity):
        self.validation = validation
        self.u_minus = u_minus
        self.u_plus = u_plus
        self.label = label
        self.flags = flags
        self.dims = dims
        self.factorization = factorization
        self.canonical_sequences = canonical_sequences
        self.serre_identity = serre_identity

    @property
    def passed(self):
        """The analysis verdict: factorization, Serre identity and
        canonical sequences all hold."""
        return (self.factorization.passed and self.serre_identity
                and self.canonical_sequences["ok"])

    def to_json(self):
        return {
            "validation": self.validation.to_json(),
            "splitting": {"u_minus": self.u_minus.to_json(),
                          "u_plus": self.u_plus.to_json()},
            "label": self.label,
            "flags": dict(self.flags),
            "dims": dict(self.dims),
            "factorization": self.factorization.to_json(),
            "canonical_sequences": self.canonical_sequences,
            "serre_identity": self.serre_identity,
        }


def analyze(S: QLikeStructure, validation: ValidationReport = None) -> AnalysisReport:
    """Splitting types, classification label, flags, and all verifications."""
    validation = validation or validate(S)
    if not validation.passed:
        raise InvalidInput("structure failed validation: %s"
                           % ", ".join(validation.failed_names()))
    hd = heaven_data(S, validation.family)
    st_minus = splitting_type(hd.family)
    st_plus = SplittingType.of(hd.ann.degrees)

    md = minus_data(hd)
    fact = verify_factorization(hd, md)

    all_minus_one = all(a == -1 for a in st_minus.summands)
    all_plus_one = all(a == 1 for a in st_plus.summands)
    if all_minus_one and all_plus_one and S.dim == 2 * S.k:
        label = "quaternionic"
    elif all_minus_one:
        label = "rho-quaternionic"
    elif all_plus_one:
        label = "rho-star-quaternionic"
    else:
        label = "general"

    dims = fact.dims
    flags = {
        "co_cr": label in ("quaternionic", "rho-quaternionic")
                 and dims["coker_rho_plus"] == 0,
        "cr": label in ("quaternionic", "rho-star-quaternionic")
              and dims["ker_psi_minus"] == 0
              and dims["ker_rho_minus_star"] == 0,
        "semantics": "interpretive",
    }

    seqs = verify_canonical_for(QuotientBundle(S.dim, hd.family), st_plus)
    serre = hd.h_plus_dim == md.h_minus_dim
    return AnalysisReport(validation, st_minus, st_plus, label, flags, dims,
                          fact, seqs, serre)


def verify_canonical_for(quotient, st):
    """Canonical-sequence checks of the quotient, whose splitting is st,
    or a skip when st is not nonnegative."""
    if not st.is_nonnegative():
        return {"skipped": "quotient not nonnegative", "ok": True}
    return verify_canonical_sequences(quotient)
