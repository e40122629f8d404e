"""Linear quaternionic-like structures.

A structure on U is a holomorphically embedded sphere of k-dimensional
subspaces U^z of the complexification of U, presented by a polynomial
spanning matrix z -> U^z and (in real mode) an antilinear conjugation
x -> C conj(x) compatible with the antipodal map of the sphere.

The module provides validation (rank, reality, immersion, injectivity,
nonsplitting; the curve checks live in :mod:`qlike.embedding`), classification by splitting types, the plus/minus section-space
presentations ("heaven" data and its dual), and the verifier for the
factorization identity psi_plus . psi_minus = rho_plus . iota . rho_minus_star
together with its kernel/cokernel bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bundles import (SAMPLE_POINTS, QuotientBundle, SplittingType,
                      SubbundleFamily, annihilator, family_contains,
                      is_split_extension, saturate, splitting_type,
                      verify_canonical_sequences)
from .embedding import _immersion_check, _injectivity_check, _reduced_pluecker
from .errors import InternalError, InvalidInput
from .forms import BinaryForm, antipodal_transform, format_form, parse_form
from .linalg import (conj_matrix, identity, inverse, kernel_basis, mat_eq,
                     mat_mul, mat_vec, rank, solve_affine, transpose, zeros)
from .polymatrix import PolyMatrix, solve_combination
from .scalars import ONE, ZERO, Scalar, scalar


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

@dataclass
class CheckResult:
    name: str
    status: str            # "pass" | "fail" | "warn"
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)
    # the saturated family the checks ran on, for analyze (its annihilator
    # comes with it); not serialized
    family: SubbundleFamily = field(default=None, compare=False, repr=False)
    # how each curve check was decided, by "pluecker", "immersion" and
    # "injectivity": "modular:<p>" (a certificate modulo the prime p),
    # "exact" or "sampled"; not serialized
    routes: dict = field(default_factory=dict, compare=False, repr=False)

    def add(self, name, status, detail=""):
        self.checks.append(CheckResult(name, status, detail))

    @property
    def passed(self):
        return all(c.status != "fail" for c in self.checks)

    @property
    def warnings(self):
        return [c for c in self.checks if c.status == "warn"]

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

    routes = report.routes
    gamma, routes["pluecker"] = _reduced_pluecker(family)
    if len(gamma) == 1:
        report.add("immersion", "fail", "constant map, not an embedding")
        report.add("injectivity", "fail", "constant map")
        routes["immersion"] = routes["injectivity"] = "exact"
    else:
        ok, routes["immersion"] = _immersion_check(gamma)
        report.add("immersion", "pass" if ok else "fail",
                   "" if ok else "critical point on the parameter sphere")
        status, detail, routes["injectivity"] = _injectivity_check(gamma)
        report.add("injectivity", status, detail)

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


def _apply_scalar_matrix(M, vec_forms):
    n = len(M)
    out = []
    for i in range(n):
        s = BinaryForm.zero(0)
        for j, f in enumerate(vec_forms):
            c = M[i][j]
            if c.is_zero() or f.is_zero():
                continue
            s = s + f.scale(c)
        out.append(s)
    return out


# --------------------------------------------------------------------------
# derived families and duality
# --------------------------------------------------------------------------

def minus_family(S: QLikeStructure) -> SubbundleFamily:
    """The tautological subbundle family (saturation of the spanning matrix)."""
    return saturate(S.spanning)


def dualize(S: QLikeStructure) -> QLikeStructure:
    """Structure on the dual space: z maps to the annihilator of U^z.

    Raises InvalidInput unless 0 < k < dim and the saturated family has
    rank k, since otherwise the dual's k = dim - k contradicts its span."""
    if S.k <= 0 or S.k >= S.dim:
        raise InvalidInput("cannot dualize: need 0 < k < dim (k=%d, dim=%d)"
                           % (S.k, S.dim))
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
    """
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

@dataclass
class HeavenData:
    """Section-space presentation of the quotient side.

    U_plus is H^0 of the quotient bundle with its pairing-tuple basis;
    E_plus = H^0(O(1)) tensor H^0(quotient(-1)); rho_plus multiplies a
    twisted section tuple by a linear form; psi_plus pairs a vector of U
    against the annihilator generators.
    """
    structure: QLikeStructure
    family: SubbundleFamily
    ann: SubbundleFamily
    u_plus_dim: int
    h_plus_dim: int
    e_plus_dim: int
    psi_plus: list
    rho_plus: list
    conj_u_plus: list = None
    conj_h_plus: list = None
    conj_e_plus: list = None


def _ann_offsets(degrees, twist):
    offsets = []
    acc = 0
    for e in degrees:
        offsets.append(acc)
        acc += max(0, e + twist + 1)
    return offsets, acc


def heaven_data(S: QLikeStructure, family: SubbundleFamily = None) -> HeavenData:
    """Plus-side data of S.  ``family`` is S's saturated family when the
    caller has it (validate's); otherwise it is saturated here.  Either
    way its annihilator is the saturation's link, so analyze reads the
    splittings, canonical sequences and minus side without re-deriving."""
    if family is None:
        family = saturate(S.spanning)
    ann = annihilator(family)
    degs = list(ann.degrees)
    n = S.dim
    off0, u_dim = _ann_offsets(degs, 0)
    offm1, h_dim = _ann_offsets(degs, -1)
    e_dim = 2 * h_dim

    # psi_plus: u in U maps to the tuple of pairings <q_j(.), u>
    psi = zeros(u_dim, n)
    for j, e in enumerate(degs):
        qcol = ann.basis.column(j)
        for l in range(n):
            f = qcol[l]
            if f.is_zero():
                continue
            for w, c in enumerate(f.coeffs):
                if not c.is_zero():
                    psi[off0[j] + w][l] = psi[off0[j] + w][l] + c

    # rho_plus: (z_a tensor h) maps to z_a * h, E basis is z_a-major
    rho = zeros(u_dim, e_dim)
    for a in range(2):
        for j, e in enumerate(degs):
            for t in range(max(0, e)):
                col = a * h_dim + offm1[j] + t
                # z0 * monomial(e-1, t) = monomial(e, t); z1 * ... = monomial(e, t+1)
                w = t + a
                rho[off0[j] + w][col] = ONE

    hd = HeavenData(S, family, ann, u_dim, h_dim, e_dim, psi, rho)

    # genericity: sections vanishing at z plus the image of psi_plus span U_plus
    for z0, z1 in SAMPLE_POINTS[:3]:
        ev = _evaluation_matrix(ann, degs, off0, u_dim, z0, z1)
        vanishing = kernel_basis(ev)
        image_vectors = [list(col) for col in zip(*psi)] if n else []
        if rank(vanishing + image_vectors) != u_dim:
            raise InternalError(
                "plus-side genericity failed at a sample point; "
                "this contradicts a validated structure")

    if not S.complex_mode:
        _attach_conjugations(hd)
    return hd


def _evaluation_matrix(ann, degs, offsets, u_dim, z0, z1):
    """Rows: values (f_j(z))_j of the coordinate basis of U_plus."""
    rows = len(degs)
    ev = zeros(rows, u_dim)
    z0, z1 = scalar(z0), scalar(z1)
    for j, e in enumerate(degs):
        for w in range(e + 1):
            ev[j][offsets[j] + w] = BinaryForm.monomial(e, w).evaluate(z0, z1)
    return ev


def _attach_conjugations(hd: HeavenData):
    """Real mode: induced antilinear involutions on U_plus, H_plus, E_plus.

    kappa(f)_j = (-1)^{e_j} * antipodal(sum_l G_lj f_l) where G expresses the
    conjugated-antipodal annihilator generators in the annihilator basis.
    """
    S = hd.structure
    ann = hd.ann
    degs = list(ann.degrees)
    C = S.conjugation_matrix()
    D = transpose(inverse(C))
    cols = ann.columns()
    G = []
    for j, e in enumerate(degs):
        moved = [antipodal_transform(f) for f in cols[j]]
        moved = _apply_scalar_matrix(D, moved)
        sol = solve_combination(cols, degs, moved, e)
        if sol is None:
            raise InternalError("dual conjugation does not preserve the "
                                "annihilator family")
        G.append(sol)          # G[j][l]: coefficient of q_l, degree e_j - e_l

    hd.conj_u_plus = _conj_matrix_on_sections(degs, G, 0)
    hd.conj_h_plus = _conj_matrix_on_sections(degs, G, -1)
    cu, ch = hd.conj_u_plus, hd.conj_h_plus
    if not mat_eq(mat_mul(cu, conj_matrix(cu)), identity(hd.u_plus_dim)):
        raise InternalError("conjugation on U_plus does not square to +1")
    if ch and not mat_eq(mat_mul(ch, conj_matrix(ch)),
                         [[-x for x in row] for row in identity(hd.h_plus_dim)]):
        raise InternalError("conjugation on H_plus does not square to -1")
    # E = S1 tensor H with the antipodal structure on S1 (z0 -> -z1, z1 -> z0)
    js = [[ZERO, ONE], [Scalar(-1), ZERO]]
    e_dim = hd.e_plus_dim
    h_dim = hd.h_plus_dim
    ce = zeros(e_dim, e_dim)
    for a in range(2):
        for b in range(2):
            c = js[a][b]
            if c.is_zero():
                continue
            for i in range(h_dim):
                for j in range(h_dim):
                    ce[a * h_dim + i][b * h_dim + j] = c * ch[i][j]
    hd.conj_e_plus = ce
    if not mat_eq(mat_mul(ce, conj_matrix(ce)), identity(e_dim)):
        raise InternalError("conjugation on E_plus does not square to +1")
    # psi_plus intertwines kappa_U and the section conjugation
    lhs = mat_mul(hd.psi_plus, C)
    rhs = mat_mul(cu, conj_matrix(hd.psi_plus))
    if not mat_eq(lhs, rhs):
        raise InternalError("psi_plus is not conjugation equivariant")


def _conj_matrix_on_sections(degs, G, twist):
    """Antilinear action on the tuple coordinates at the given twist,
    represented by the matrix A with kappa(x) = A conj(x)."""
    offsets, total = _ann_offsets(degs, twist)
    if total == 0:
        return []
    A = zeros(total, total)
    for j, ej in enumerate(degs):
        sign = -1 if ej % 2 else 1
        for l, el in enumerate(degs):
            g = G[j][l]
            if g.is_zero():
                continue
            # basis monomial (l, t) contributes antipodal(G[j][l] * mono)
            for t in range(max(0, el + twist + 1)):
                mono = BinaryForm.monomial(el + twist, t)
                prod = antipodal_transform(g * mono)
                if sign < 0:
                    prod = -prod
                for w, c in enumerate(prod.coeffs):
                    if not c.is_zero():
                        A[offsets[j] + w][offsets[l] + t] = \
                            A[offsets[j] + w][offsets[l] + t] + c
    return A


@dataclass
class MinusData:
    """Dual-side presentation, obtained from the heaven data of the dual
    structure by transposition."""
    structure: QLikeStructure
    dual_heaven: HeavenData
    u_minus_dim: int
    h_minus_dim: int
    e_minus_dim: int
    psi_minus: list          # U_minus -> U
    rho_minus_star: list     # U_minus -> E_minus
    ker_psi_minus: list = None   # kernel_basis(psi_minus); not serialized


def minus_data(hd: HeavenData) -> MinusData:
    """Minus side of hd's structure.  The dual structure's family is hd.ann,
    whose annihilator is hd.family, so neither is derived again."""
    S = hd.structure
    dual = heaven_data(_dual_structure(S, hd.ann), hd.ann)
    psi_minus = transpose(dual.psi_plus)
    ker_psi = kernel_basis(psi_minus)
    md = MinusData(S, dual, dual.u_plus_dim, dual.h_plus_dim,
                   dual.e_plus_dim, psi_minus, transpose(dual.rho_plus),
                   ker_psi)

    # minus-side genericity: (U_minus)^z meets ker psi_minus trivially
    if not ker_psi:
        return md
    degs = list(dual.ann.degrees)
    off0, u_dim = _ann_offsets(degs, 0)
    for z0, z1 in SAMPLE_POINTS[:3]:
        ev = _evaluation_matrix(dual.ann, degs, off0, u_dim, z0, z1)
        vanishing = kernel_basis(ev)          # (U_plus of dual)^z
        # (U_minus)^z is its annihilator inside the dual coordinates
        family_z = kernel_basis(vanishing) if vanishing else \
            [list(row) for row in identity(u_dim)]
        if _intersection_dim(family_z, ker_psi) != 0:
            raise InternalError(
                "minus-side genericity failed at a sample point; "
                "this contradicts a validated structure")
    return md


def _intersection_dim(basis_a, basis_b):
    if not basis_a or not basis_b:
        return 0
    ra = rank(basis_a)
    rb = rank(basis_b)
    return ra + rb - rank(basis_a + basis_b)


# --------------------------------------------------------------------------
# the factorization identity and its kernel/cokernel bookkeeping
# --------------------------------------------------------------------------

@dataclass
class FactorizationReport:
    solvable: bool
    solution_dim: int
    iso_found: bool
    dims: dict
    facts: dict

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
    """Solve for a compatible intertwiner iota with
    psi_plus . psi_minus = rho_plus . iota . rho_minus_star, and check the
    kernel/cokernel correspondences it induces.

    iota is constrained to the compatible shape (canonical S1* ~ S1 twist on
    the first factor, arbitrary on the section factor), which is exactly the
    intertwining condition for the multiplication actions of z0, z1.

    The linear system for iota's hp x hp unknowns decouples: rho_plus and
    rho_minus_star are block-diagonal by summand and preserve a monomial
    weight, so each equation touches few unknowns (connected components of
    at most 3 on the benchmark pool).  :func:`~qlike.linalg.solve_affine`
    eliminates each component once and returns the particular solution and
    the homogeneous solutions that ``solve`` and ``kernel_basis`` would.
    """
    if hd.h_plus_dim != md.h_minus_dim:
        raise InternalError("twisted section dimensions disagree "
                            "(Serre-duality dimension identity broken)")
    hp = hd.h_plus_dim
    lhs = mat_mul(hd.psi_plus, md.psi_minus)
    n_unknowns = hp * hp
    rows = hd.u_plus_dim * md.u_minus_dim
    a = zeros(rows, n_unknowns)
    b = [ZERO] * rows
    for i in range(hd.u_plus_dim):
        for j in range(md.u_minus_dim):
            b[i * md.u_minus_dim + j] = lhs[i][j]
    # iota = Omega tensor X, Omega: (z0*, z1*) -> (-z1, z0)
    omega = ((1, Scalar(-1)), (0, ONE))        # column a -> (row a', coeff)
    for g in range(hp):
        for bta in range(hp):
            u = g * hp + bta
            # iota columns: E_minus index (a, beta) -> row (a', g) with coeff
            for acol in range(2):
                arow, coeff = omega[acol]
                col_e = acol * hp + bta
                row_e = arow * hp + g
                # contribution to rho_plus . iota . rho_minus_star
                for i in range(hd.u_plus_dim):
                    rp = hd.rho_plus[i][row_e]
                    if rp.is_zero():
                        continue
                    for j in range(md.u_minus_dim):
                        rm = md.rho_minus_star[col_e][j]
                        if rm.is_zero():
                            continue
                        r = i * md.u_minus_dim + j
                        a[r][u] = a[r][u] + coeff * rp * rm
    x, homogeneous = solve_affine(a, b)
    solvable = x is not None

    # each map's kernel is taken once; its rank is read from the kernel
    kernels = {"psi_minus": md.ker_psi_minus,
               "rho_plus": kernel_basis(hd.rho_plus),
               "rho_minus_star": kernel_basis(md.rho_minus_star),
               "psi_plus": kernel_basis(hd.psi_plus)}
    dims = _correspondence_dims(hd, md, kernels)
    facts = {
        "kernel_dims_match": dims["ker_psi_minus"] == dims["ker_rho_plus"],
        "psi_minus_maps_ker_rho_minus_star_onto_ker_psi_plus":
            _check_fact_c(md, kernels),
        "cokernel_dims_match_d":
            dims["coker_rho_minus_star"] == dims["coker_psi_plus"],
        "cokernel_dims_match_e":
            dims["coker_psi_minus"] == dims["coker_rho_plus"],
    }

    iota_found = False
    if solvable:
        X = _find_invertible(x, homogeneous, hp)
        if X is not None:
            iota_found = True
            facts["rho_minus_star_maps_ker_psi_minus_onto_iota_inv_ker_rho_plus"] = \
                _check_fact_b(hd, md, X, omega, kernels)
        else:
            facts["rho_minus_star_maps_ker_psi_minus_onto_iota_inv_ker_rho_plus"] = False
    return FactorizationReport(solvable, len(homogeneous), iota_found, dims,
                               facts)


def _correspondence_dims(hd, md, kernels):
    """Kernel and cokernel dimensions, with each rank read from the
    ``kernels`` (kernel_basis of each map, by name): a matrix with rows has
    rank ncols - len(kernel), and one without rows has rank 0."""
    def rk(name, matrix):
        return len(matrix[0]) - len(kernels[name]) if matrix else 0

    rk_psi_minus = rk("psi_minus", md.psi_minus)
    rk_rho_plus = rk("rho_plus", hd.rho_plus)
    rk_rho_minus = rk("rho_minus_star", md.rho_minus_star)
    rk_psi_plus = rk("psi_plus", hd.psi_plus)
    return {
        "U": hd.structure.dim,
        "U_plus": hd.u_plus_dim,
        "U_minus": md.u_minus_dim,
        "E": hd.e_plus_dim,
        "H_plus": hd.h_plus_dim,
        "H_minus": md.h_minus_dim,
        "ker_psi_minus": md.u_minus_dim - rk_psi_minus,
        "ker_rho_plus": hd.e_plus_dim - rk_rho_plus,
        "ker_rho_minus_star": md.u_minus_dim - rk_rho_minus,
        "ker_psi_plus": hd.structure.dim - rk_psi_plus,
        "coker_rho_minus_star": md.e_minus_dim - rk_rho_minus,
        "coker_psi_plus": hd.u_plus_dim - rk_psi_plus,
        "coker_psi_minus": hd.structure.dim - rk_psi_minus,
        "coker_rho_plus": hd.u_plus_dim - rk_rho_plus,
    }


def _check_fact_c(md, kernels):
    """psi_minus restricted to ker rho_minus_star is a bijection onto
    ker psi_plus."""
    kernel_rms = kernels["rho_minus_star"]
    images = [mat_vec(md.psi_minus, v) for v in kernel_rms]
    kernel_pp = kernels["psi_plus"]
    if len(kernel_rms) != len(kernel_pp):
        return False
    if not images:
        return True
    if rank(images) != len(images):
        return False
    return rank(images + kernel_pp) == len(kernel_pp)


def _check_fact_b(hd, md, X, omega, kernels):
    """With iota fixed, rho_minus_star maps ker psi_minus bijectively onto
    iota^{-1}(ker rho_plus)."""
    hp = hd.h_plus_dim
    e_dim = hd.e_plus_dim
    iota = zeros(e_dim, e_dim)
    for acol in range(2):
        arow, coeff = omega[acol]
        for g in range(hp):
            for bta in range(hp):
                iota[arow * hp + g][acol * hp + bta] = coeff * X[g][bta]
    images = [mat_vec(md.rho_minus_star, v) for v in kernels["psi_minus"]]
    if images and rank(images) != len(images):
        return False
    moved = [mat_vec(iota, v) for v in images]
    kernel_rp = kernels["rho_plus"]
    if len(moved) != len(kernel_rp):
        return False
    if not moved:
        return True
    if rank(moved) != len(moved):
        return False
    return rank(moved + kernel_rp) == len(kernel_rp)


def _find_invertible(particular, homogeneous, hp):
    """Search the affine solution family for an invertible hp x hp matrix."""
    if hp == 0:
        return []

    def as_matrix(vec):
        return [[vec[g * hp + bta] for bta in range(hp)] for g in range(hp)]

    def invertible(m):
        return rank(m) == hp

    cand = as_matrix(particular)
    if invertible(cand):
        return cand
    for h in homogeneous:
        for t in range(1, 4):
            vec = [p + Scalar(t) * q for p, q in zip(particular, h)]
            cand = as_matrix(vec)
            if invertible(cand):
                return cand
    if len(homogeneous) >= 2:
        for i in range(len(homogeneous)):
            for j in range(i + 1, len(homogeneous)):
                for s in range(1, 3):
                    for t in range(1, 3):
                        vec = [p + Scalar(s) * u + Scalar(t) * v
                               for p, u, v in zip(particular, homogeneous[i],
                                                  homogeneous[j])]
                        cand = as_matrix(vec)
                        if invertible(cand):
                            return cand
    return None


# --------------------------------------------------------------------------
# analysis / classification
# --------------------------------------------------------------------------

@dataclass
class AnalysisReport:
    validation: ValidationReport
    u_minus: SplittingType
    u_plus: SplittingType
    label: str
    flags: dict
    dims: dict
    factorization: FactorizationReport
    canonical_sequences: dict
    serre_identity: bool

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
    if st_minus.degree + st_plus.degree != 0:
        raise InternalError("first Chern additivity failed")

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
