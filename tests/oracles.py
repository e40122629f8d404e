"""Independent oracles used to freeze expected values.

These deliberately take different routes than the library: determinants by
permutation expansion, section spaces by the (r+1)-minor membership system
rather than the annihilator kernel, twisted dimensions by the splitting
formula, kernels and solutions by Gauss-Jordan elimination in Q(i)
arithmetic, resultants over GF(p) by eliminating the Sylvester matrix, the
factorization's intertwiner from its dense system in all hp^2 unknowns
and from its recurrence on the Scalar product psi_plus . psi_minus, its
ranks from the kernels of all four maps (rho_plus and rho_minus_star
built as dense 0/1 matrices) rather than the annihilator degrees, and its
facts b and c from the images of those kernels, Q(i) arithmetic on a
pair of Fractions rather than a Gaussian integer over one denominator,
graded kernels by an exact elimination at every stage and
a selection among whole kernel vectors, a free basis's generators from
the whole solve W_F^-1 W, Lie brackets by walking the
structure-constant table pair by pair, Jacobson-Morozov's H system one
bracket per column, a matrix algebra's structure constants by one
elimination with every commutator as a right-hand side, the
irreducibility of an sl(2)-module by its weight decomposition,
nilpotency by the powers of ad y, the span of an sl(2)-triple by its
rank, the quaternionic structure on H^k interpolated through three
eigenspace fibres, and the conjugations a real structure induces on U_plus
and H_plus, which the library proves and never builds, by solving for
the conjugated annihilator in its own basis.
"""

from fractions import Fraction
from itertools import combinations, permutations

from qlike.forms import BinaryForm, antipodal_transform
from qlike.lie import LieAlgebra, combination
from qlike.linalg import (identity, independent_rows, inverse, kernel_basis,
                          mat_mul, mat_sub, mat_vec, rank, solve,
                          solve_matrix, transpose, zeros)
from qlike.modp import _eliminate_modp
from qlike.polymatrix import (PolyMatrix, _apply_scalar_matrix,
                              _degree_bound, _equation_rows, _section_layout,
                              solve_combination)
from qlike.scalars import I, ONE, ZERO, Scalar, clear_denominators, scalar


def naive_det(m):
    """Permutation-expansion determinant (small matrices only)."""
    n = len(m)
    if n == 0:
        return ONE
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ONE
        for i in range(n):
            term = term * m[i][perm[i]]
            if term.is_zero():
                break
        total = total + (term if sign > 0 else -term)
    return total


def naive_form_det(m):
    """Permutation-expansion determinant for matrices of forms."""
    n = len(m)
    if n == 0:
        return BinaryForm.constant(1)
    total = None
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = BinaryForm.constant(1)
        zero = False
        for i in range(n):
            f = m[i][perm[i]]
            if f.is_zero():
                zero = True
                break
            term = term * f
        if zero:
            continue
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    if total is None:
        deg = sum(f.degree for f in
                  (m[i][i] for i in range(n)))
        return BinaryForm.zero(deg)
    return total


def minor_system_h0(family, m):
    """dim of degree-m sections by the pointwise membership minor system.

    A vector v of degree-m forms lies in the fiber span everywhere iff all
    (k+1) x (k+1) minors of [basis | v] vanish identically; each minor is
    linear in v's coefficients.
    """
    n, k = family.ambient, family.rank
    if m < 0:
        return 0
    if k == 0:
        return 0
    cols = family.columns()
    cofactor = {}
    for rows in combinations(range(n), k):
        sub = [[cols[j][i] for j in range(k)] for i in rows]
        cofactor[rows] = naive_form_det(sub)
    unknowns = n * (m + 1)
    equations = []
    total_deg = sum(family.degrees) + m
    for big in combinations(range(n), k + 1):
        block = [[ZERO] * unknowns for _ in range(total_deg + 1)]
        hit = False
        for pos, alpha in enumerate(big):
            rest = tuple(r for r in big if r != alpha)
            minor = cofactor[rest]
            if minor.is_zero():
                continue
            sign = 1 if (k + pos) % 2 == 0 else -1
            for u, c in enumerate(minor.coeffs):
                if c.is_zero():
                    continue
                cc = c if sign > 0 else -c
                for t in range(m + 1):
                    block[u + t][alpha * (m + 1) + t] = \
                        block[u + t][alpha * (m + 1) + t] + cc
                    hit = True
        if hit:
            equations.extend(block)
    if not equations:
        return unknowns
    return len(kernel_basis(equations))


def splitting_h0(summands, m):
    return sum(max(0, a + m + 1) for a in summands)


def rref(a):
    """Reduced row echelon form over Q(i) (returns matrix and pivot list),
    computed with Scalar arithmetic throughout."""
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                mi = m[i]
                mr = m[r]
                for j in range(c, ncols):
                    if not mr[j].is_zero():
                        mi[j] = mi[j] - f * mr[j]
                mi[c] = ZERO
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    # exact division of Gaussian integers
    n = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) // n, (a[1] * b[0] - a[0] * b[1]) // n)


def exact_det(a):
    """Determinant over Q(i): Bareiss on the integerized matrix, with the
    row scales divided back out."""
    n = len(a)
    if n == 0:
        return ONE
    scales = []
    rows = []
    for row in a:
        l, ints = clear_denominators(row)
        scales.append(l)
        rows.append(ints)
    sign = 1
    prev = (1, 0)
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != (0, 0):
                pr = i
                break
        if pr is None:
            return ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        piv = rows[c][c]
        for i in range(c + 1, n):
            ric = rows[i][c]
            for j in range(c + 1, n):
                num = _gmul(piv, rows[i][j])
                sub = _gmul(ric, rows[c][j])
                rows[i][j] = _gdiv((num[0] - sub[0], num[1] - sub[1]), prev)
            rows[i][c] = (0, 0)
        prev = piv
    denom = 1
    for l in scales:
        denom *= l
    re, im = rows[n - 1][n - 1]
    return Scalar(re, im) * Scalar(Fraction(sign, denom))


def form_divmod_exact(f: BinaryForm, g: BinaryForm):
    """Exact quotient f / g of binary forms, or None if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero form")
    if f.is_zero():
        return BinaryForm.zero(max(f.degree - g.degree, 0))
    if f.degree < g.degree:
        return None
    d = f.degree - g.degree
    lead = 0
    while g.coeffs[lead].is_zero():
        lead += 1
    rem = list(f.coeffs)
    for i in range(lead):
        if not rem[i].is_zero():
            return None
    out = [ZERO] * (d + 1)
    for t in range(d + 1):
        c = rem[lead + t]
        if c.is_zero():
            continue
        factor = c / g.coeffs[lead]
        out[t] = factor
        for j in range(lead, g.degree + 1):
            rem[t + j] = rem[t + j] - factor * g.coeffs[j]
    if any(not c.is_zero() for c in rem):
        return None
    return BinaryForm(d, out)


def poly_mat_vec(M, vec):
    """Apply a PolyMatrix to a vector of forms (degrees must be compatible)."""
    out = []
    for i in range(M.rows):
        s = BinaryForm.zero(0)
        for j in range(M.cols):
            e = M.entries[i][j]
            f = vec[j]
            if e.is_zero() or f.is_zero():
                continue
            s = s + e * f
        out.append(s)
    return out


def sylvester_det_modp(f, g, df, dg, p):
    """Res_{df,dg}(f, g) over GF(p) as the determinant of the Sylvester
    matrix at the formal degrees df, dg (coefficient lists, constant first,
    possibly shorter than df + 1 and dg + 1), by elimination."""
    n = df + dg
    if n == 0:
        return 1
    m = [[0] * n for _ in range(n)]
    for r in range(dg):
        for i in range(df + 1):
            m[r][r + i] = f[df - i] if df - i < len(f) else 0
    for r in range(df):
        for i in range(dg + 1):
            m[dg + r][r + i] = g[dg - i] if dg - i < len(g) else 0
    pivots, swaps = _eliminate_modp(m, p)
    if len(pivots) < n:
        return 0
    det = p - 1 if swaps % 2 else 1
    for k, c in enumerate(pivots):
        det = (det * m[k][c]) % p
    return det


class PairScalar:
    """An element of Q(i) as the Fraction pair ``re + im*i``: the
    representation ``qlike.scalars.Scalar`` had before it stored a
    Gaussian-integer numerator over one denominator, kept with its
    arithmetic as the oracle for the new one."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def is_zero(self):
        return not self.re and not self.im

    def is_one(self):
        return self.re == 1 and not self.im

    def is_real(self):
        return not self.im

    def __add__(self, other):
        return PairScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return PairScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return PairScalar(-self.re, -self.im)

    def __mul__(self, other):
        a, b, c, d = self.re, self.im, other.re, other.im
        return PairScalar(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero PairScalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return PairScalar((a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self):
        return PairScalar(self.re, -self.im)

    def inverse(self):
        return PairScalar(1) / self

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im


def format_pair(s: PairScalar) -> str:
    """The canonical text form of ``qlike.scalars.format_scalar``, from the
    two Fractions."""
    if s.is_zero():
        return "0"
    parts = []
    if s.re:
        parts.append(str(s.re))
    if s.im:
        imag = "%s*i" % s.im
        if parts and s.im > 0:
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)


def plus_side_generic_by_sections(ann, z0, z1):
    """Plus-side genericity at [z0 : z1] on the whole section space: the
    degree-0 section tuples of the annihilator's degrees that vanish at the
    point, together with the image of psi_plus (the pairings of a constant
    vector u with the generators q_j, coefficient by coefficient), span
    U_plus."""
    def power(x, e):
        out = ONE
        for _ in range(e):
            out = out * x
        return out

    z0, z1 = Scalar(z0), Scalar(z1)
    degs = list(ann.degrees)
    blocks = [(j, t, d) for j, d in enumerate(degs) for t in range(d + 1)]
    u_dim = len(blocks)
    values = [[ZERO] * u_dim for _ in degs]
    for c, (j, t, d) in enumerate(blocks):
        values[j][c] = power(z0, d - t) * power(z1, t)
    vanishing = kernel_basis(values) if u_dim else []
    cols = ann.columns()
    image = [[ZERO if cols[j][i].is_zero() else cols[j][i].coeffs[t]
              for j, t, _ in blocks]
             for i in range(ann.ambient)]
    spanning = vanishing + image
    return (len(rref(spanning)[1]) if spanning else 0) == u_dim


def split_by_solve(A):
    """Whether A's inclusion has a retraction R with R . basis = identity,
    by solving for it: R's row i lives in Hom(O^n, O(-e_i)), which is 0
    when e_i > 0, and when every degree is 0 the basis is a constant matrix
    B, and B^T R^T = I is solved exactly."""
    k = A.rank
    if k == 0:
        return True
    if any(e > 0 for e in A.degrees):
        return False
    bmat = [[A.basis.entries[l][j].coeffs[0] for j in range(k)]
            for l in range(A.ambient)]
    return solve_matrix(transpose(bmat), identity(k)) is not None


def dense_rho(degrees):
    """The dense 0/1 matrix of rho_plus for the annihilator degrees
    ``degrees``: z_a tensor h in E_plus = S1 tensor H_plus, whose basis is
    z_a-major, maps to z_a * h in U_plus.  rho_minus_star is the transpose
    of this matrix for the dual's degrees."""
    degrees = list(degrees)
    lenm1, offm1, h_dim = _section_layout(degrees, -1)
    _, off0, u_dim = _section_layout(degrees, 0)
    rho = [[ZERO] * (2 * h_dim) for _ in range(u_dim)]
    for a in range(2):
        for j, length in enumerate(lenm1):
            for t in range(length):
                # z0 * monomial(e-1, t) = monomial(e, t); z1 * ... = monomial(e, t+1)
                rho[off0[j] + t + a][a * h_dim + offm1[j] + t] = ONE
    return rho


def plus_conjugations(hd):
    """``(C_U, C_H)``: the antilinear maps that a real structure induces on
    U_plus and H_plus, kappa(x) = C conj(x) on their tuple coordinates.
    Each conjugated antipodal generator D a(q_j), D = (C^T)^-1, is solved
    in the annihilator basis, D a(q_j) = sum_l G_jl q_l, and
    kappa(f)_j = (-1)^(a_j) a(sum_l G_jl f_l) is written out monomial by
    monomial.  The library builds neither map: :func:`heaven_data` proves
    what they satisfy."""
    ann = hd.ann
    degs = list(ann.degrees)
    D = transpose(inverse(hd.structure.conjugation_matrix()))
    cols = ann.columns()
    G = []
    for j, e in enumerate(degs):
        moved = _apply_scalar_matrix(D, [antipodal_transform(f)
                                         for f in cols[j]])
        sol = solve_combination(cols, degs, moved, e)
        assert sol is not None, "D a(q_%d) is not in the annihilator" % j
        G.append(sol)          # G[j][l]: coefficient of q_l, degree e_j - e_l

    def on_sections(twist):
        lengths, offsets, total = _section_layout(degs, twist)
        A = zeros(total, total)
        for j, ej in enumerate(degs):
            for l, el in enumerate(degs):
                if G[j][l].is_zero():
                    continue
                for t in range(lengths[l]):
                    image = antipodal_transform(
                        G[j][l] * BinaryForm.monomial(el + twist, t))
                    for w, c in enumerate(image.coeffs):
                        A[offsets[j] + w][offsets[l] + t] += \
                            -c if ej % 2 else c
        return A

    return on_sections(0), on_sections(-1)


def dense_intertwiner(hd, md):
    """``(X, homogeneous, invertible)`` for the factorization identity
    psi_plus . psi_minus = rho_plus . iota . rho_minus_star, from the dense
    system in the hp x hp unknowns of X, iota = Omega tensor X with
    Omega: (z0*, z1*) -> (-z1, z0): one particular solution X (None when
    the system is inconsistent), the homogeneous solutions, and whether X
    has rank hp (by Gauss-Jordan)."""
    hp = hd.h_plus_dim
    rho_plus = dense_rho(hd.ann.degrees)
    rho_minus_star = transpose(dense_rho(md.dual_heaven.ann.degrees))
    lhs = mat_mul(hd.psi_plus, md.psi_minus)
    rows = hd.u_plus_dim * md.u_minus_dim
    a = [[ZERO] * (hp * hp) for _ in range(rows)]
    b = [lhs[i][j] for i in range(hd.u_plus_dim)
         for j in range(md.u_minus_dim)]
    omega = ((1, Scalar(-1)), (0, ONE))        # column a -> (row a', coeff)
    for g in range(hp):
        for bta in range(hp):
            for acol in range(2):
                arow, coeff = omega[acol]
                for i in range(hd.u_plus_dim):
                    rp = rho_plus[i][arow * hp + g]
                    if rp.is_zero():
                        continue
                    for j in range(md.u_minus_dim):
                        rm = rho_minus_star[acol * hp + bta][j]
                        if not rm.is_zero():
                            r = i * md.u_minus_dim + j
                            a[r][g * hp + bta] += coeff * rp * rm
    x = solve(a, b)
    homogeneous = kernel_basis(a)
    if x is None:
        return None, homogeneous, False
    X = [x[g * hp:(g + 1) * hp] for g in range(hp)]
    return X, homogeneous, len(rref(X)[1]) == hp


def scalar_intertwiner(lhs, plus_degrees, minus_degrees):
    """The section factor X of iota from the Scalar matrix ``lhs`` =
    psi_plus . psi_minus, by the recurrence X(s, t) = L(s, t+1) +
    X(s-1, t+1) of ``structures.verify_factorization`` run on L's Scalar
    blocks, or None when some entry of L fails the identity."""
    _, row_u, _ = _section_layout(plus_degrees, 0)
    _, row_h, hp = _section_layout(plus_degrees, -1)
    _, col_u, _ = _section_layout(minus_degrees, 0)
    _, col_h, hm = _section_layout(minus_degrees, -1)
    X = [[ZERO] * hm for _ in range(hp)]
    for a, ru, rh in zip(plus_degrees, row_u, row_h):
        for e, cu, ch in zip(minus_degrees, col_u, col_h):
            B = [[ZERO] * (e + 1) for _ in range(a + 1)]
            for s in range(a):
                for t in range(e):
                    B[s][t] = lhs[ru + s][cu + t + 1] + B[s - 1][t + 1]
            for s in range(a + 1):
                for t in range(e + 1):
                    if lhs[ru + s][cu + t] != B[s][t - 1] - B[s - 1][t]:
                        return None
            for s in range(a):
                X[rh + s][ch:ch + e] = B[s][:e]
    return X


def scalar_factorization(hd, md):
    """``(X, solvable, iso_found, dims, facts)`` of the factorization check
    by its Scalar route: L = psi_plus . psi_minus by ``mat_mul``, X by
    :func:`scalar_intertwiner`, every rank from one ``kernel_basis`` of
    each of the four maps, fact c from the images of ker rho_minus_star
    under psi_minus, and fact b from the images of ker psi_minus under
    iota . rho_minus_star (X on both halves), one ``mat_vec`` per kernel
    vector.  Nothing is read off the annihilator degrees."""
    from qlike.structures import _maps_onto
    X = scalar_intertwiner(mat_mul(hd.psi_plus, md.psi_minus),
                           hd.ann.degrees, md.dual_heaven.ann.degrees)
    solvable = X is not None
    rho_plus = dense_rho(hd.ann.degrees)
    rho_minus_star = transpose(dense_rho(md.dual_heaven.ann.degrees))
    maps = {"psi_minus": md.psi_minus, "rho_plus": rho_plus,
            "rho_minus_star": rho_minus_star, "psi_plus": hd.psi_plus}
    kernels = {name: kernel_basis(m) for name, m in maps.items()}
    n, up, um = hd.structure.dim, hd.u_plus_dim, md.u_minus_dim
    # rank is ncols - dim ker for a matrix with rows, and 0 without rows
    rk = {name: len(m[0]) - len(kernels[name]) if m else 0
          for name, m in maps.items()}
    dims = {
        "U": n,
        "U_plus": up,
        "U_minus": um,
        "E": hd.e_plus_dim,
        "H_plus": hd.h_plus_dim,
        "H_minus": md.h_minus_dim,
        "ker_psi_minus": um - rk["psi_minus"],
        "ker_rho_plus": hd.e_plus_dim - rk["rho_plus"],
        "ker_rho_minus_star": um - rk["rho_minus_star"],
        "ker_psi_plus": n - rk["psi_plus"],
        "coker_rho_minus_star": md.e_minus_dim - rk["rho_minus_star"],
        "coker_psi_plus": up - rk["psi_plus"],
        "coker_psi_minus": n - rk["psi_minus"],
        "coker_rho_plus": up - rk["rho_plus"],
    }
    fact_c = _maps_onto([mat_vec(md.psi_minus, v)
                         for v in kernels["rho_minus_star"]],
                        kernels["psi_plus"])
    facts = {
        "kernel_dims_match": dims["ker_psi_minus"] == dims["ker_rho_plus"],
        "psi_minus_maps_ker_rho_minus_star_onto_ker_psi_plus": fact_c,
        "cokernel_dims_match_d":
            dims["coker_rho_minus_star"] == dims["coker_psi_plus"],
        "cokernel_dims_match_e":
            dims["coker_psi_minus"] == dims["coker_rho_plus"],
    }
    hp, h = hd.h_plus_dim, md.h_minus_dim
    iso_found = solvable and (hp == 0 or len(rref(X)[1]) == hp)
    if solvable:
        images = []
        for v in kernels["psi_minus"]:
            w = mat_vec(rho_minus_star, v)
            images.append(mat_vec(X, w[h:])
                          + [-y for y in mat_vec(X, w[:h])])
        facts["rho_minus_star_maps_ker_psi_minus_onto_iota_inv_ker_rho_plus"]\
            = iso_found and _maps_onto(images, kernels["rho_plus"])
    return X, solvable, iso_found, dims, facts


def _multiple_coeffs(gvec, shifts, m, mono1):
    """Stage-m coordinates, as Scalars, of z0^a z1^mono1 times the
    generator whose forms have the Scalar coefficients ``gvec``."""
    lengths, offsets, total = _section_layout(shifts, m)
    out = [ZERO] * total
    for j, f in enumerate(gvec):
        if lengths[j]:
            off = offsets[j] + mono1
            for u, c in enumerate(f):
                if c:
                    out[off + u] = c
    return out


def _decode(sol, shifts, m):
    """The forms whose stage-m coordinates are the Scalars ``sol``."""
    lengths, offsets, _ = _section_layout(shifts, m)
    return tuple(BinaryForm(m + s, sol[off:off + length]) if length else
                 BinaryForm.zero(max(m + s, 0))
                 for s, length, off in zip(shifts, lengths, offsets))


def graded_kernel_by_stages(relation_rows, n_unknowns, unknown_shifts=None, *,
                            expected_count):
    """``polymatrix.graded_kernel`` without its shortcuts: every stage up to
    the proven bound is eliminated exactly, and the new generators are the
    kernel vectors that ``independent_rows`` finds independent of the
    z-multiples of the earlier generators, all as whole vectors."""
    shifts = list(unknown_shifts or [0] * n_unknowns)
    if n_unknowns == 0 or expected_count == 0:
        return []
    bound = _degree_bound(relation_rows, shifts, expected_count)
    rows = [[f.coeffs for f in row] for row in relation_rows]
    gens = []
    known = []
    for m in range(-max(shifts), bound + 1):
        lengths, offsets, total = _section_layout(shifts, m)
        if total == 0:
            continue
        eq_rows = _equation_rows(rows, shifts, m)
        sols = kernel_basis(eq_rows) if eq_rows else identity(total)
        mults = [_multiple_coeffs(blocks, shifts, m, mono1)
                 for mg, blocks in known
                 for mono1 in range(m - mg, -1, -1)]
        vectors = mults + sols
        for i in independent_rows(vectors) if vectors else ():
            if i < len(mults):
                continue
            sol = vectors[i]
            gens.append((m, _decode(sol, shifts, m)))
            if len(gens) == expected_count:
                return gens
            known.append((m, [sol[off:off + length] for off, length
                              in zip(offsets, lengths)]))
    raise AssertionError("oracle short of %d generators by degree %d"
                         % (expected_count, bound))


def graded_kernel_from_basis_by_solve(columns, degrees):
    """``polymatrix.graded_kernel_from_basis`` with every row of
    W_F^-1 W built by one ``solve_matrix`` over all of W's columns, and the
    new generators selected among those whole vectors, as in
    :func:`graded_kernel_by_stages`."""
    if not columns:
        return []
    shifts = [0] * len(columns[0])
    blocks = [[f.coeffs for f in col] for col in columns]
    gens = []
    known = []
    for m in sorted(set(degrees)):
        lengths, offsets, total = _section_layout(shifts, m)
        span = [_multiple_coeffs(gvec, shifts, m, mono1)
                for gvec, d in zip(blocks, degrees) if d <= m
                for mono1 in range(m - d + 1)]
        free = sorted(total - 1 - c for c in independent_rows(
            [[v[c] for v in span] for c in reversed(range(total))]))
        sols = solve_matrix([[v[f] for f in free] for v in span], span)
        mults = [_multiple_coeffs(kblocks, shifts, m, mono1)
                 for mg, kblocks in known
                 for mono1 in range(m - mg, -1, -1)]
        vectors = mults + sols
        for i in independent_rows(vectors):
            if i < len(mults):
                continue
            sol = vectors[i]
            gens.append((m, _decode(sol, shifts, m)))
            known.append((m, [sol[off:off + length] for off, length
                              in zip(offsets, lengths)]))
    return gens


def table_bracket(g, x, y):
    """[x, y] = sum_ij x_i y_j [x_i, x_j], each [x_i, x_j] read from
    g.brackets, completed by antisymmetry and [x_i, x_i] = 0."""
    out = [ZERO] * g.dim
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            vec = g.brackets.get((min(i, j), max(i, j)))
            if i == j or vec is None or xi.is_zero() or yj.is_zero():
                continue
            coeff = xi * yj if i < j else -(xi * yj)
            for k, c in enumerate(vec):
                if not c.is_zero():
                    out[k] = out[k] + coeff * c
    return out


def table_ad(g, x):
    """ad(x), column j being table_bracket(x, e_j)."""
    return transpose([table_bracket(g, x, e) for e in identity(g.dim)])


def jacobson_morozov_by_brackets(g, y):
    """(E, H, F = y): H = ad_y(w) with [ad_y w, y] = -2y, its matrix built
    one bracket per column; then E from [H, E] = 2E and [E, y] = H."""
    ad_y = table_ad(g, y)
    cols = [table_bracket(g, mat_vec(ad_y, e), y) for e in identity(g.dim)]
    h = mat_vec(ad_y, solve(transpose(cols), [c * (-2) for c in y]))
    ad_h = table_ad(g, h)
    rows = [[c - Scalar(2) if i == j else c for j, c in enumerate(row)]
            for i, row in enumerate(ad_h)]
    rows += [[-c for c in row] for row in ad_y]
    return solve(rows, [ZERO] * g.dim + h), h, list(y)


def identity_by_all_pairs(rep):
    """rho([x_i, x_j]) == [rho(x_i), rho(x_j)] for every basis pair i < j,
    by dense matrix products, whatever built the representation."""
    g, mats = rep.algebra, rep.matrices
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            comm = mat_sub(mat_mul(mats[i], mats[j]),
                           mat_mul(mats[j], mats[i]))
            if comm != combination(mats, g.brackets.get((i, j), ())):
                return False
    return True


def algebra_by_wide_solve(name, basis_matrices):
    """The LieAlgebra of the basis matrices, every commutator expressed in
    the basis by one augmented solve (n^2 rows, one right-hand side per
    pair i < j)."""
    dim = len(basis_matrices)
    n = len(basis_matrices[0])
    coords = [[m[r][c] for m in basis_matrices]
              for r in range(n) for c in range(n)]
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rhs_cols = []
    for i, j in pairs:
        comm = mat_sub(mat_mul(basis_matrices[i], basis_matrices[j]),
                       mat_mul(basis_matrices[j], basis_matrices[i]))
        rhs_cols.append([comm[r][c] for r in range(n) for c in range(n)])
    rhs = [[col[r] for col in rhs_cols] for r in range(n * n)]
    sol = solve_matrix(coords, rhs) if pairs else []
    assert sol is not None, "commutator left the span of the basis"
    table = {(i, j): [sol[r][idx] for r in range(dim)]
             for idx, (i, j) in enumerate(pairs)}
    return LieAlgebra(dim, table, name)


def weight_route_irreducibility(s_h):
    """The ``u-irreducible-nontrivial`` verdict from the weight
    decomposition of sigma(h) on U: (status, curve degree or None).

    Each integer weight w in [-(N-1), N-1] gets an exact eigenspace; a_j is
    the number of weights j minus the number of weights j + 2, and U passes
    when exactly one a_j is nonzero, equal to 1, with j >= 1.  Eigenvalues
    that are not such integers, a negative a_j or a dimension count that
    does not add up fail, as invalid sl(2) data."""
    n = len(s_h)
    dims = {w: len(kernel_basis([[x - w if r == c else x
                                  for c, x in enumerate(row)]
                                 for r, row in enumerate(s_h)]))
            for w in range(1 - n, n)}
    mult = {j: dims[j] - dims.get(j + 2, 0) for j in range(n)}
    mult = {j: a for j, a in mult.items() if a}
    if (sum(dims.values()) != n or any(a < 0 for a in mult.values())
            or sum((j + 1) * a for j, a in mult.items()) != n):
        return "fail", None
    if len(mult) == 1 and list(mult.values()) == [1] and 0 not in mult:
        return "pass", next(iter(mult))
    return "fail", None


def is_ad_nilpotent(g, y):
    """Whether ad y is nilpotent, by its powers up to the dim g-th."""
    ad_y = g.ad([scalar(c) for c in y])
    power = ad_y
    for _ in range(g.dim):
        if all(x.is_zero() for row in power for x in row):
            return True
        power = mat_mul(power, ad_y)
    return all(x.is_zero() for row in power for x in row)


def sl2_check_by_rank(emb):
    """The triple's bracket relations, and rank(E, H, F) == 3."""
    g = emb.algebra
    e, h, f = list(emb.e), list(emb.h), list(emb.f)
    ok = (g.bracket(h, e) == [c * 2 for c in e]
          and g.bracket(h, f) == [c * (-2) for c in f]
          and g.bracket(e, f) == h)
    return ok and rank([e, h, f]) == 3


def left_quaternion_matrices(k):
    """Left multiplication by i, j, k on H^k in the real basis
    (1, i, j, k) per quaternionic coordinate."""
    blk_i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    blk_j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
    blk_k = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]

    def blow(blk):
        n = 4 * k
        out = zeros(n, n)
        for b in range(k):
            for r in range(4):
                for c in range(4):
                    if blk[r][c]:
                        out[4 * b + r][4 * b + c] = Scalar(blk[r][c])
        return out

    return blow(blk_i), blow(blk_j), blow(blk_k)


def eigenspace_minus_i(m):
    """Kernel of (m + i), i.e. the -i eigenspace of a complex structure."""
    n = len(m)
    shifted = [[m[r][c] + (I if r == c else ZERO) for c in range(n)]
               for r in range(n)]
    return kernel_basis(shifted)


def span_equal(u, v):
    """Do the row lists u and v span the same space?  By ranks."""
    ru = rank(u) if u else 0
    rv = rank(v) if v else 0
    if ru != rv:
        return False
    return rank(u + v) == ru if (u or v) else True


def quaternionic_by_interpolation(k):
    """The spanning matrix of the structure on H^k, interpolated exactly
    from three sample points of the sphere ([1:0] -> L_i, [0:1] -> -L_i,
    [1:1] -> L_j): columns P0 z0 + P1 M z1, P0 and P1 the -i eigenspaces
    at the first two points, and M the unique solution of
    (L_j + i)(P0 + P1 M) = 0."""
    n = 4 * k
    mi, mj, _ = left_quaternion_matrices(k)
    p0 = eigenspace_minus_i(mi)
    p1 = eigenspace_minus_i([[-x for x in row] for row in mi])
    assert len(p0) == len(p1) == 2 * k
    ji = [[mj[r][c] + (I if r == c else ZERO) for c in range(n)]
          for r in range(n)]
    a = mat_mul(ji, transpose(p1))
    b = mat_mul(ji, transpose(p0))
    m_sol = solve_matrix(a, [[-x for x in row] for row in b])
    assert m_sol is not None, "eigenspace interpolation inconsistent"
    p1m = mat_mul(transpose(p1), m_sol)
    cols = [[BinaryForm(1, (p0[a_idx][r], p1m[r][a_idx])) for r in range(n)]
            for a_idx in range(2 * k)]
    return PolyMatrix.from_columns(n, cols, [1] * (2 * k))
