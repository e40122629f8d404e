"""Lie algebras by structure constants, sl(2)-triples and weight decompositions.

Algebras are presented by a basis and exact structure constants over Q(i);
built-in constructors cover sl(n), so(n) (antisymmetric matrices) and sp(2m)
in documented standard bases.  The main operations: exact Jacobi/Killing
validation, a Cartan-free Jacobson-Morozov solver, and multiplicity
extraction for representations restricted along an sl(2)-embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, InvalidInput
from .linalg import (identity, kernel_basis, mat_mul, mat_sub, mat_vec, rank,
                     solve, zeros)
from .scalars import ONE, ZERO, Scalar, scalar


class LieAlgebra:
    """Finite-dimensional Lie algebra with exact structure constants.

    brackets[(i, j)] is the coordinate vector of [x_i, x_j] for i < j; the
    table is completed by antisymmetry and validated lazily by
    :func:`validate_lie`.
    """

    __slots__ = ("dim", "brackets", "name")

    def __init__(self, dim, brackets, name=""):
        table = {}
        for (i, j), vec in brackets.items():
            vec = tuple(scalar(c) for c in vec)
            if len(vec) != dim:
                raise InvalidInput("bracket [%d,%d] has wrong length" % (i, j))
            if i == j:
                if any(not c.is_zero() for c in vec):
                    raise InvalidInput("[x, x] must vanish")
                continue
            if i > j:
                i, j, vec = j, i, tuple(-c for c in vec)
            if (i, j) in table and table[(i, j)] != vec:
                raise InvalidInput("conflicting brackets for (%d, %d)" % (i, j))
            table[(i, j)] = vec
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "brackets", table)
        object.__setattr__(self, "name", name)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def bracket_basis(self, i, j):
        if i == j:
            return [ZERO] * self.dim
        if i < j:
            vec = self.brackets.get((i, j))
            return list(vec) if vec else [ZERO] * self.dim
        vec = self.brackets.get((j, i))
        return [-c for c in vec] if vec else [ZERO] * self.dim

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y."""
        x = [scalar(c) for c in x]
        y = [scalar(c) for c in y]
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero():
                continue
            for j, yj in enumerate(y):
                if yj.is_zero():
                    continue
                vec = self.bracket_basis(i, j)
                coeff = xi * yj
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        out[k] = out[k] + coeff * c
        return out

    def ad(self, x):
        """Matrix of ad(x) on the chosen basis."""
        cols = []
        for j in range(self.dim):
            e_j = [ZERO] * self.dim
            e_j[j] = ONE
            cols.append(self.bracket(x, e_j))
        return [[cols[j][i] for j in range(self.dim)] for i in range(self.dim)]

    def adjoint_representation(self):
        mats = []
        for i in range(self.dim):
            e_i = [ZERO] * self.dim
            e_i[i] = ONE
            mats.append(self.ad(e_i))
        return Representation(self, mats)

    def to_json(self):
        from .scalars import format_scalar
        out = []
        for (i, j), vec in sorted(self.brackets.items()):
            terms = [[k, format_scalar(c)] for k, c in enumerate(vec)
                     if not c.is_zero()]
            if terms:
                out.append([i, j, terms])
        return {"dim": self.dim, "name": self.name, "brackets": out}

    @staticmethod
    def from_json(data):
        from .scalars import parse_scalar
        dim = data["dim"]
        table = {}
        for i, j, terms in data["brackets"]:
            vec = [ZERO] * dim
            for k, text in terms:
                vec[k] = parse_scalar(text) if isinstance(text, str) else scalar(text)
            table[(i, j)] = vec
        return LieAlgebra(dim, table, data.get("name", ""))

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name or "?", self.dim)


@dataclass(frozen=True)
class Representation:
    """Matrices rho(x_i) acting on a space of dimension N."""

    algebra: LieAlgebra
    matrices: tuple

    def __init__(self, algebra, matrices):
        mats = tuple(tuple(tuple(scalar(x) for x in row) for row in m)
                     for m in matrices)
        if len(mats) != algebra.dim:
            raise InvalidInput("need one matrix per basis element")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrices", mats)

    @property
    def space_dim(self):
        return len(self.matrices[0]) if self.matrices else 0

    def apply(self, x):
        """Matrix of rho(x) for a coordinate vector x."""
        n = self.space_dim
        out = [[ZERO] * n for _ in range(n)]
        for i, xi in enumerate(x):
            xi = scalar(xi)
            if xi.is_zero():
                continue
            m = self.matrices[i]
            for r in range(n):
                row = m[r]
                for c in range(n):
                    if not row[c].is_zero():
                        out[r][c] = out[r][c] + xi * row[c]
        return out

    def check_identity(self):
        """rho([x_i, x_j]) == [rho(x_i), rho(x_j)] for all basis pairs."""
        g = self.algebra
        for i in range(g.dim):
            mi = [list(r) for r in self.matrices[i]]
            for j in range(i + 1, g.dim):
                mj = [list(r) for r in self.matrices[j]]
                comm = mat_sub(mat_mul(mi, mj), mat_mul(mj, mi))
                expect = self.apply(g.bracket_basis(i, j))
                if comm != expect:
                    return False
        return True


@dataclass(frozen=True)
class Sl2Embedding:
    """Images (E, H, F) of the standard sl(2) triple inside an algebra.

    Invariants: [H,E] = 2E, [H,F] = -2F, [E,F] = H, and the span of E, H, F
    is three-dimensional.
    """

    algebra: LieAlgebra
    e: tuple
    h: tuple
    f: tuple

    def __init__(self, algebra, e, h, f):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "e", tuple(scalar(c) for c in e))
        object.__setattr__(self, "h", tuple(scalar(c) for c in h))
        object.__setattr__(self, "f", tuple(scalar(c) for c in f))

    def check(self):
        g = self.algebra
        he = g.bracket(list(self.h), list(self.e))
        hf = g.bracket(list(self.h), list(self.f))
        ef = g.bracket(list(self.e), list(self.f))
        ok = (he == [c * 2 for c in self.e]
              and hf == [c * (-2) for c in self.f]
              and ef == list(self.h))
        three_dim = rank([list(self.e), list(self.h), list(self.f)]) == 3
        return ok and three_dim

    def to_json(self):
        from .scalars import format_scalar
        return {"E": [format_scalar(c) for c in self.e],
                "H": [format_scalar(c) for c in self.h],
                "F": [format_scalar(c) for c in self.f]}


# --------------------------------------------------------------------------
# constructors: sl(n), so(n), sp(2m) with documented standard bases
# --------------------------------------------------------------------------

def _matrix_unit(n, i, j):
    m = zeros(n, n)
    m[i][j] = ONE
    return m


def _algebra_from_matrices(name, basis_matrices):
    """Structure constants from explicit basis matrices.

    All commutators are expressed in the basis through a single elimination
    (one augmented solve with every bracket as a right-hand side)."""
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
    from .linalg import solve_matrix
    rhs = [[col[r] for col in rhs_cols] for r in range(n * n)]
    sol = solve_matrix(coords, rhs) if pairs else []
    if pairs and sol is None:
        raise InternalError("commutator left the span of the basis")
    table = {}
    for idx, (i, j) in enumerate(pairs):
        table[(i, j)] = [sol[r][idx] for r in range(dim)]
    return LieAlgebra(dim, table, name)


class MatrixAlgebra:
    """A LieAlgebra together with its defining basis matrices."""

    def __init__(self, algebra, basis_matrices, basis_labels):
        self.algebra = algebra
        self.basis_matrices = basis_matrices
        self.basis_labels = basis_labels

    @property
    def dim(self):
        return self.algebra.dim

    def defining_representation(self):
        return Representation(self.algebra, self.basis_matrices)

    def coordinates_of_matrix(self, m):
        n = len(m)
        coords = [[bm[r][c] for bm in self.basis_matrices]
                  for r in range(n) for c in range(n)]
        flat = [m[r][c] for r in range(n) for c in range(n)]
        vec = solve(coords, flat)
        if vec is None:
            raise InvalidInput("matrix is not in the algebra")
        return vec

    def matrix_of(self, x):
        n = len(self.basis_matrices[0])
        out = zeros(n, n)
        for i, xi in enumerate(x):
            xi = scalar(xi)
            if xi.is_zero():
                continue
            for r in range(n):
                for c in range(n):
                    b = self.basis_matrices[i][r][c]
                    if not b.is_zero():
                        out[r][c] = out[r][c] + xi * b
        return out


def sl_algebra(n) -> MatrixAlgebra:
    """sl(n): basis E_ij (i != j, row-major) then H_i = E_ii - E_{i+1,i+1}."""
    if n < 2:
        raise InvalidInput("sl(n) needs n >= 2")
    mats = []
    labels = []
    for i in range(n):
        for j in range(n):
            if i != j:
                mats.append(_matrix_unit(n, i, j))
                labels.append("E%d%d" % (i + 1, j + 1))
    for i in range(n - 1):
        m = zeros(n, n)
        m[i][i] = ONE
        m[i + 1][i + 1] = Scalar(-1)
        mats.append(m)
        labels.append("H%d" % (i + 1))
    return MatrixAlgebra(_algebra_from_matrices("sl(%d)" % n, mats), mats, labels)


def so_algebra(n) -> MatrixAlgebra:
    """so(n) as antisymmetric matrices: basis A_ij = E_ij - E_ji (i < j)."""
    if n < 3:
        raise InvalidInput("so(n) needs n >= 3")
    mats = []
    labels = []
    for i in range(n):
        for j in range(i + 1, n):
            m = zeros(n, n)
            m[i][j] = ONE
            m[j][i] = Scalar(-1)
            mats.append(m)
            labels.append("A%d%d" % (i + 1, j + 1))
    return MatrixAlgebra(_algebra_from_matrices("so(%d)" % n, mats), mats, labels)


def sp_algebra(two_m) -> MatrixAlgebra:
    """sp(2m) for the form omega(e_i, f_j) = delta_ij in the basis
    (e_1..e_m, f_1..f_m): block matrices [[A, B], [C, -A^T]] with B, C
    symmetric."""
    if two_m % 2 or two_m < 2:
        raise InvalidInput("sp(2m) needs an even dimension >= 2")
    m = two_m // 2
    mats = []
    labels = []
    for i in range(m):
        for j in range(m):
            big = zeros(two_m, two_m)
            big[i][j] = ONE
            big[m + j][m + i] = Scalar(-1)
            mats.append(big)
            labels.append("A%d%d" % (i + 1, j + 1))
    for i in range(m):
        for j in range(i, m):
            big = zeros(two_m, two_m)
            big[i][m + j] = ONE
            big[j][m + i] = ONE
            mats.append(big)
            labels.append("B%d%d" % (i + 1, j + 1))
    for i in range(m):
        for j in range(i, m):
            big = zeros(two_m, two_m)
            big[m + i][j] = ONE
            big[m + j][i] = ONE
            mats.append(big)
            labels.append("C%d%d" % (i + 1, j + 1))
    return MatrixAlgebra(_algebra_from_matrices("sp(%d)" % two_m, mats),
                         mats, labels)


_BUILTIN_CACHE = {}
_BUILDERS = {"sl(": sl_algebra, "so(": so_algebra, "sp(": sp_algebra}


def builtin_algebra(name) -> MatrixAlgebra:
    """Built-in constructor lookup; instances are cached (all immutable)."""
    name = name.replace(" ", "")
    if name in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[name]
    build = _BUILDERS.get(name[:3])
    if build is None or not name.endswith(")"):
        raise InvalidInput("unknown algebra %r" % name)
    try:
        size = int(name[3:-1])
    except ValueError:
        raise InvalidInput("algebra size must be an integer: %r" % name) \
            from None
    ma = build(size)
    _BUILTIN_CACHE[name] = ma
    return ma


# --------------------------------------------------------------------------
# validation, Jacobson-Morozov, decomposition
# --------------------------------------------------------------------------

def validate_lie(g: LieAlgebra) -> dict:
    """Jacobi identity, Killing form, semisimplicity (exact)."""
    dim = g.dim
    jacobi_ok = True
    basis = identity(dim)
    ads = [g.ad(basis[i]) for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            bij = g.bracket_basis(i, j)
            for k in range(j + 1, dim):
                t1 = g.bracket(bij, basis[k])
                t2 = g.bracket(g.bracket_basis(j, k), basis[i])
                t3 = g.bracket(g.bracket_basis(k, i), basis[j])
                if any(not (a + b + c).is_zero()
                       for a, b, c in zip(t1, t2, t3)):
                    jacobi_ok = False
                    break
            if not jacobi_ok:
                break
        if not jacobi_ok:
            break
    killing = zeros(dim, dim)
    for i in range(dim):
        for j in range(i, dim):
            tr = ZERO
            for r in range(dim):
                for c in range(dim):
                    a = ads[i][r][c]
                    if not a.is_zero():
                        b = ads[j][c][r]
                        if not b.is_zero():
                            tr = tr + a * b
            killing[i][j] = tr
            killing[j][i] = tr
    semisimple = jacobi_ok and rank(killing) == dim
    return {"jacobi": jacobi_ok, "killing_rank": rank(killing),
            "semisimple": semisimple}


def is_ad_nilpotent(g: LieAlgebra, y) -> bool:
    ad_y = g.ad([scalar(c) for c in y])
    power = ad_y
    for _ in range(g.dim):
        if all(x.is_zero() for row in power for x in row):
            return True
        power = mat_mul(power, ad_y)
    return all(x.is_zero() for row in power for x in row)


def jacobson_morozov(g: LieAlgebra, y, assume_semisimple=False) -> Sl2Embedding:
    """An sl(2)-triple (E, H, F=Y) through the nilpotent Y.

    Route: solve [H, Y] = -2Y with H in the image of ad(Y) (always possible
    in a semisimple algebra), then solve [H, X] = 2X, [X, Y] = H for X = E.
    Deterministic pivoting fixes the output; the bracket relations are
    verified exactly on the result.
    """
    if not assume_semisimple:
        info = validate_lie(g)
        if not info["semisimple"]:
            raise InvalidInput("algebra is not semisimple (Killing rank %d "
                               "of %d)" % (info["killing_rank"], g.dim))
    y = [scalar(c) for c in y]
    if len(y) != g.dim:
        raise InvalidInput("nilpotent has %d coordinates, the algebra has "
                           "dimension %d" % (len(y), g.dim))
    if all(c.is_zero() for c in y):
        raise InvalidInput("the zero element is not a usable nilpotent")
    if not is_ad_nilpotent(g, y):
        raise InvalidInput("element is not ad-nilpotent")
    dim = g.dim
    ad_y = g.ad(y)
    # unknown w with H = ad_y(w): ad(ad_y w)(y) = -2y
    cols = []
    for j in range(dim):
        e_j = [ZERO] * dim
        e_j[j] = ONE
        h_j = mat_vec(ad_y, e_j)
        cols.append(g.bracket(h_j, y))
    a = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    target = [c * (-2) for c in y]
    w = solve(a, target)
    if w is None:
        raise InternalError("no H with [H, Y] = -2Y in im(ad Y); "
                            "is the algebra semisimple?")
    h = mat_vec(ad_y, w)
    # X: [H, X] = 2X and [X, Y] = H simultaneously
    ad_h = g.ad(h)
    rows = []
    rhs = []
    for i in range(dim):
        row = [ad_h[i][j] - (Scalar(2) if i == j else ZERO) for j in range(dim)]
        rows.append(row)
        rhs.append(ZERO)
    # [X, Y] = -ad_y(X) ... [X, Y] = -[Y, X]
    for i in range(dim):
        rows.append([-ad_y[i][j] for j in range(dim)])
        rhs.append(h[i])
    x = solve(rows, rhs)
    if x is None:
        raise InternalError("Jacobson-Morozov system unsolvable on "
                            "semisimple input")
    emb = Sl2Embedding(g, x, h, y)
    if not emb.check():
        raise InternalError("constructed triple fails the bracket relations")
    return emb


def _multiplicities_from_h(h_mat):
    """Summand multiplicities a_j from the matrix of the H-action.

    a_j = #eigenvalues j minus #eigenvalues j+2; any irreducible inside a
    dim-N space has highest weight at most N-1, so integer eigenvalues are
    sought in [-(N-1), N-1] and a total shortfall is an invalid-data bug.
    """
    n = len(h_mat)
    if n == 0:
        return {}
    mult = {}
    found = 0
    for j in range(-(n - 1) if n > 1 else 0, n):
        shifted = [[h_mat[r][c] - (Scalar(j) if r == c else ZERO)
                    for c in range(n)] for r in range(n)]
        m = len(kernel_basis(shifted))
        if m:
            mult[j] = m
            found += m
    if found != n:
        raise InternalError("rho(H) is not diagonalizable with integer "
                            "eigenvalues; invalid sl(2) data")
    a = {}
    for j in range(0, n):
        aj = mult.get(j, 0) - mult.get(j + 2, 0)
        if aj < 0:
            raise InternalError("negative multiplicity in the weight ladder")
        if aj:
            a[j] = aj
    if sum((j + 1) * aj for j, aj in a.items()) != n:
        raise InternalError("multiplicities do not add up to the dimension")
    return a


def sl2_decompose(rep: Representation, emb: Sl2Embedding):
    """Multiplicities a_j of the irreducible dimension-(j+1) summands of the
    representation restricted along the embedding."""
    if rep.algebra.dim != emb.algebra.dim:
        raise InvalidInput("representation and embedding live on different "
                           "algebras")
    return _multiplicities_from_h(rep.apply(list(emb.h)))


def principal_sl2_matrices(n):
    """The irreducible action of the standard triple on dimension n:
    H = diag(n-1, n-3, ..., 1-n), E raises, F lowers with the classical
    integer coefficients."""
    e = zeros(n, n)
    f = zeros(n, n)
    h = zeros(n, n)
    for i in range(n):
        h[i][i] = Scalar(n - 1 - 2 * i)
    # basis v_0 (highest) .. v_{n-1}: F v_i = (i+1) v_{i+1}, E v_i = (n-i) v_{i-1}
    for i in range(n - 1):
        f[i + 1][i] = Scalar(i + 1)
        e[i][i + 1] = Scalar(n - 1 - i)
    return e, h, f


def wedge_square_representation(ma: MatrixAlgebra):
    """Induced action on wedge^2 of the defining space, basis e_i ^ e_j
    (i < j, lexicographic)."""
    n = len(ma.basis_matrices[0])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: a for a, p in enumerate(pairs)}
    mats = []
    for bm in ma.basis_matrices:
        big = zeros(len(pairs), len(pairs))
        for (i, j), col in index.items():
            # X(e_i ^ e_j) = X e_i ^ e_j + e_i ^ X e_j
            for r in range(n):
                c = bm[r][i]
                if not c.is_zero() and r != j:
                    a, b, sign = (r, j, ONE) if r < j else (j, r, Scalar(-1))
                    big[index[(a, b)]][col] = big[index[(a, b)]][col] + sign * c
            for r in range(n):
                c = bm[r][j]
                if not c.is_zero() and r != i:
                    a, b, sign = (i, r, ONE) if i < r else (r, i, Scalar(-1))
                    big[index[(a, b)]][col] = big[index[(a, b)]][col] + sign * c
        mats.append(big)
    return Representation(ma.algebra, mats), pairs
