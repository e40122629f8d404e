"""Lie algebras by structure constants, sl(2)-triples and weight decompositions.

Algebras are presented by a basis and exact structure constants over Q(i);
built-in constructors cover sl(n), so(n) (antisymmetric matrices) and sp(2m)
in documented standard bases.  The main operations: exact Jacobi/Killing
validation, a Cartan-free Jacobson-Morozov solver, and multiplicity
extraction for representations restricted along an sl(2)-embedding.

A representation decides its identity rho([x_i, x_j]) = [rho(x_i), rho(x_j)]
once, in :meth:`Representation.check_identity`, and keeps the verdict.
Three builders return representations whose identity holds by
construction; their ``identity_route`` reads "construction" and no check
runs.  Any other source (``Representation(...)`` called directly, explicit
matrices from a file, the adjoint of a table read from JSON) reads "exact"
and is checked entry by entry.  The three proofs:

* **The defining representation** of a :class:`MatrixAlgebra`,
  rho(x_i) = M_i.  The constructor accepts the structure constants c_ij^k
  only when ``combination`` rebuilds each commutator exactly:
  sum_k c_ij^k M_k == [M_i, M_j].  That is the identity on the pair
  (i, j), which is all the check would compare.
* **The adjoint of a table that a MatrixAlgebra built.**  The map
  phi(x) = sum_k x_k M_k is injective (the M_k are independent, a pivot
  block of full rank) and takes the table's bracket to the commutator:
  phi([x_i, x_j]) = [M_i, M_j] by the above, for i < j, and by
  antisymmetry of both sides for the other pairs.  The commutator of
  gl(n) satisfies Jacobi, so the images of the Jacobi sums vanish and, by
  injectivity, so do the sums.  For an antisymmetric table Jacobi is the
  identity of ad (:func:`validate_lie`).
* **The wedge square** of a MatrixAlgebra's defining space.
  :func:`wedge_square_representation` forms the derivation
  D(X)(e_i ^ e_j) = X e_i ^ e_j + e_i ^ X e_j: its loop adds
  X_ri e_r ^ e_j and, as e_i ^ e_r = -e_r ^ e_i, -X_rj e_r ^ e_i, each
  e_r ^ e_s written as +e_(r, s) for r < s, -e_(s, r) for r > s, and 0
  for r = s.  D is linear in X, and D(X) D(Y) - D(Y) D(X) = D([X, Y]),
  since the cross terms Y v ^ X w and X v ^ Y w cancel.  So
  rho([x_i, x_j]) = D(sum_k c_ij^k M_k) = D([M_i, M_j]) =
  [D(M_i), D(M_j)].

The proofs cover the matrices the constructor checked: a MatrixAlgebra
freezes its ``basis_matrices`` into tuples, and a builder proves nothing
once they have been replaced.  The table of a :class:`LieAlgebra` is a
read-only mapping.

The three built-in algebras are semisimple by construction:
:func:`sl_algebra`, :func:`so_algebra` and :func:`sp_algebra` mark the
LieAlgebra they build, and :func:`validate_lie` answers for a marked
table without forming its Killing form.  By the second proof, phi is an
isomorphism of the table's algebra onto the span L of the builder's
matrices, so the table satisfies Jacobi and it is enough that L is
semisimple.  L acts irreducibly on C^n.  Let W be a nonzero subspace that
L maps into itself, w in W with w_j != 0, E_ij the matrix units and e_i
the standard basis:

* **sl(n), n >= 2.**  E_ij w = w_j e_i, so e_i lies in W for each
  i != j, and then e_j = E_ji e_i.
* **so(n), n >= 3**, with A_ij = E_ij - E_ji.  For i != j pick k outside
  {i, j}: A_ik A_kj w = A_ik (w_j e_k - w_k e_j) = w_j e_i, so e_i lies
  in W for each i != j, and then e_j = A_ji e_i.
* **sp(2m), m >= 1**, indices 0..m-1 for the e's and m..2m-1 for the
  f's, with B_ii = E_(i, m+i), C_ii = E_(m+i, i) and A_ri = E_ri -
  E_(m+i, m+r).  If j = m + i, B_ii w = w_j e_i; if j = i, C_ii w =
  w_i e_(m+i) and B_ii e_(m+i) = e_i.  Either way e_i lies in W, then
  e_r = A_ri e_i for each r < m, and e_(m+r) = C_rr e_r.

Each L is also traceless: the E_ij (i != j) and H_i of sl(n), the
zero-diagonal A_ij of so(n), and the blocks [[A, B], [C, -A^T]] of
sp(2m).  A Lie algebra of traceless matrices acting irreducibly is
semisimple (Humphreys, *Introduction to Lie Algebras and Representation
Theory*, section 19.1), so by Cartan's criterion its Killing form has rank
dim, over C and so over Q(i), where the table's entries lie.  The mark
sits on the read-only table, so it holds even after ``basis_matrices``
has been replaced.

:func:`jacobson_morozov` decides nilpotency with its own H solve and
forms no powers of ad Y.  It seeks H = [Y, w] with [H, Y] = -2Y, that is
(ad Y)^2 w = 2Y, and on a semisimple algebra g this has a solution
exactly when Y is nilpotent:

* **Solvability over Q(i).**  The system is linear with coefficients in
  Q(i).  It has a solution over Q(i) exactly when it has one over C:
  both say rank (ad Y)^2 = rank [(ad Y)^2 | 2Y], and rank does not
  change with the field.
* **Nilpotent => solvable.**  A nilpotent Y != 0 lies in a triple
  (Y, H', F') (Jacobson-Morozov; Collingwood and McGovern, *Nilpotent
  Orbits in Semisimple Lie Algebras*, Thm 3.3.1), and then (E, H, Y) =
  (F', -H', Y) is a triple too.  (ad Y)^2 E = [Y, -H] = [H, Y] = -2Y, so
  w = -E solves the system: Y lies in (ad Y)^2(g).
* **Solvable => nilpotent.**  Over C, write Y = S + N (Jordan
  decomposition: ad S semisimple, ad N nilpotent, [S, N] = 0).  ad Y
  keeps each eigenspace g_c of ad S and acts there as c + ad N, which is
  invertible for c != 0.  On g_0 = ker ad S, which contains Y, S and N,
  it is ad N.  So the g_0 part w_0 of a solution gives
  2Y = (ad N)^2 w_0, and Y lies in [g_0, g_0].  g_0, the centralizer of
  a semisimple element, is reductive, g_0 = z + [g_0, g_0], with a
  centre z of semisimple elements that contains S.  N lies in
  [g_0, g_0]: write N = Z + D with Z in z and D = D_s + D_n in the
  semisimple [g_0, g_0], whose Jordan decomposition is g's; then
  (Z + D_s) + D_n is a Jordan decomposition of N, so Z = -D_s lies in
  z and in [g_0, g_0], and is 0.  Then S = Y - N lies in z and in
  [g_0, g_0] too, so S = 0 and Y = N is nilpotent.

So a failed H solve is bad input, "element is not ad-nilpotent".  Given
H, Morozov's lemma, for the nilpotent Y and -H = [Y, -w] in the image of
ad Y with [-H, Y] = 2Y, gives X with [-H, X] = -2X and [Y, X] = -H: the
X that the second solve seeks.  So a failed X solve, or a result that
fails :meth:`Sl2Embedding.check`, is a broken invariant.

:meth:`Sl2Embedding.check` reads the three-dimensional span of E, H and
F off H != 0.  Once [H, E] = 2E, [H, F] = -2F and [E, F] = H hold,
phi(a e + b h + c f) = a E + b H + c F is a homomorphism from sl(2): both
brackets are bilinear and antisymmetric, so the three basis pairs are all
there is to check.  Its kernel is an ideal of sl(2), which is simple, so
phi is injective or zero; and H = 0 forces E = [H, E] / 2 = 0 and
F = -[H, F] / 2 = 0.  So the span has dimension 3 exactly when H != 0.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import InternalError, InvalidInput
from .linalg import (independent_rows, inverse, kernel_basis, mat_mul,
                     mat_sub, mat_vec, rank, solve, zeros)
from .scalars import ONE, ZERO, Scalar, scalar


def combination(matrices, x):
    """The matrix sum_i x_i M_i for coordinates x and same-shape matrices M_i
    (a fresh list of rows)."""
    out = [[ZERO] * len(row) for row in matrices[0]]
    for xi, m in zip(x, matrices):
        if type(xi) is not Scalar:
            xi = scalar(xi)
        if xi.is_zero():
            continue
        for out_row, row in zip(out, m):
            for c, v in enumerate(row):
                if not v.is_zero():
                    out_row[c] = out_row[c] + xi * v
    return out


class LieAlgebra:
    """Finite-dimensional Lie algebra with exact structure constants.

    brackets[(i, j)] is the coordinate vector of [x_i, x_j] for i < j, in
    a read-only mapping; the table is completed by antisymmetry and
    validated lazily by :func:`validate_lie`.  ad is read off the matrices
    ad(x_i), built from the table on first use and kept; one bracket is
    summed from the table over the supports of its arguments.
    """

    __slots__ = ("dim", "brackets", "name", "_adjoint", "_commutators",
                 "_semisimple")

    def __init__(self, dim, brackets, name=""):
        if type(dim) is not int or dim < 1:
            raise InvalidInput("algebra dim must be a positive integer: %r" % (dim,))
        table = {}
        for (i, j), vec in brackets.items():
            if not all(type(x) is int and 0 <= x < dim for x in (i, j)):
                raise InvalidInput("bracket [%r, %r] needs basis indices below %d"
                                   % (i, j, dim))
            vec = tuple(c if type(c) is Scalar else scalar(c) for c in vec)
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
        object.__setattr__(self, "brackets", MappingProxyType(table))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_adjoint", None)
        # set by MatrixAlgebra, whose table holds commutators' coordinates
        object.__setattr__(self, "_commutators", False)
        # set by sl_algebra, so_algebra and sp_algebra (module docstring)
        object.__setattr__(self, "_semisimple", False)

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def bracket(self, x, y):
        """[x, y] for coordinate vectors x, y: sum_ij x_i y_j [x_i, x_j]
        over their supports, read from ``brackets`` (no ad table)."""
        out = [ZERO] * self.dim
        xs = [(i, a) for i, a in enumerate(map(scalar, x)) if a]
        ys = [(j, b) for j, b in enumerate(map(scalar, y)) if b]
        for i, a in xs:
            for j, b in ys:
                # the table holds i < j only, and never (i, i)
                vec = self.brackets.get((min(i, j), max(i, j)), ())
                c = a * b if i < j else -(a * b)
                for k, v in enumerate(vec):
                    if v:
                        out[k] = out[k] + c * v
        return out

    def ad(self, x):
        """Matrix of ad(x) on the chosen basis."""
        return combination(self.adjoint_representation().matrices, x)

    def adjoint_representation(self):
        """The matrices ad(x_i): column j of ad(x_i) is [x_i, x_j]; proven
        by construction for a MatrixAlgebra's table (module docstring)."""
        if self._adjoint is None:
            mats = [zeros(self.dim, self.dim) for _ in range(self.dim)]
            for (i, j), vec in self.brackets.items():
                for k, c in enumerate(vec):
                    if not c.is_zero():
                        mats[i][k][j], mats[j][k][i] = c, -c
            rep = Representation(self, mats)
            if self._commutators:
                rep._by_construction()
            object.__setattr__(self, "_adjoint", rep)
        return self._adjoint

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
                if type(k) is not int or not 0 <= k < len(vec):
                    raise InvalidInput("bracket coordinate %r is not a basis index"
                                       % (k,))
                vec[k] = parse_scalar(text) if isinstance(text, str) else scalar(text)
            table[(i, j)] = vec
        return LieAlgebra(dim, table, data.get("name", ""))

    def __repr__(self):
        return "LieAlgebra(%s, dim=%d)" % (self.name or "?", self.dim)


class Representation:
    """Matrices rho(x_i) acting on a space of dimension N.

    ``identity_route`` says how :meth:`check_identity` decides: by
    "construction" (no check; module docstring) or by an "exact" check,
    run once and kept.
    """

    def __init__(self, algebra, matrices):
        mats = tuple(tuple(tuple(x if type(x) is Scalar else scalar(x)
                                 for x in row) for row in m)
                     for m in matrices)
        if len(mats) != algebra.dim:
            raise InvalidInput("need one matrix per basis element")
        n = len(mats[0]) if mats else 0
        if any(len(m) != n or any(len(row) != n for row in m) for m in mats):
            raise InvalidInput("representation matrices must all be %d x %d" % (n, n))
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "identity_route", "exact")
        object.__setattr__(self, "_identity", None)

    def __setattr__(self, name, value):
        raise AttributeError("Representation is immutable")

    def _by_construction(self):
        """Mark the identity proven by this object's builder."""
        object.__setattr__(self, "identity_route", "construction")
        object.__setattr__(self, "_identity", True)
        return self

    @property
    def space_dim(self):
        return len(self.matrices[0]) if self.matrices else 0

    def apply(self, x):
        """Matrix of rho(x) for a coordinate vector x."""
        return combination(self.matrices, x)

    def check_identity(self):
        """rho([x_i, x_j]) == [rho(x_i), rho(x_j)] for all basis pairs,
        decided once per object."""
        if self._identity is not None:
            return self._identity
        # brackets[(i, j)] is [x_i, x_j] for i < j: read it there, so that
        # checking an explicit representation builds no ad table
        g, mats = self.algebra, self.matrices
        ok = all(mat_sub(mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i]))
                 == self.apply(g.brackets.get((i, j), ()))
                 for i in range(g.dim) for j in range(i + 1, g.dim))
        object.__setattr__(self, "_identity", ok)
        return ok


class Sl2Embedding:
    """Images (E, H, F) of the standard sl(2) triple inside an algebra.

    Invariants: [H,E] = 2E, [H,F] = -2F, [E,F] = H, and the span of E, H, F
    is three-dimensional, which given the first three is H != 0 (module
    docstring).
    """

    def __init__(self, algebra, e, h, f):
        e, h, f = (tuple(c if type(c) is Scalar else scalar(c) for c in v)
                   for v in (e, h, f))
        if any(len(v) != algebra.dim for v in (e, h, f)):
            raise InvalidInput("E, H and F need %d coordinates each" % algebra.dim)
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "f", f)

    def __setattr__(self, name, value):
        raise AttributeError("Sl2Embedding is immutable")

    def check(self):
        g = self.algebra
        he = g.bracket(list(self.h), list(self.e))
        hf = g.bracket(list(self.h), list(self.f))
        ef = g.bracket(list(self.e), list(self.f))
        ok = (he == [c * 2 for c in self.e]
              and hf == [c * (-2) for c in self.f]
              and ef == list(self.h))
        # the span is three-dimensional once H != 0 (module docstring)
        return ok and any(self.h)

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


class MatrixAlgebra:
    """A LieAlgebra together with its defining basis matrices.

    The basis matrices are frozen into tuples.  Coordinates are read off
    pivot cells: the first dim cells, in row-major order, on which the
    basis matrices are independent.  The pivot block (the basis matrices'
    entries there) is inverted once, and the coordinates x of a matrix m
    are the inverse times m's pivot entries.
    Coordinates in an independent basis are unique, so m lies in the
    algebra exactly when sum_i x_i M_i == m.  The structure constants are
    the coordinates of the basis commutators."""

    def __init__(self, name, basis_matrices):
        basis_matrices = tuple(tuple(tuple(row) for row in m)
                               for m in basis_matrices)
        # the builders' proofs hold while basis_matrices is this object
        self.basis_matrices = self._checked = basis_matrices
        n, dim = len(basis_matrices[0]), len(basis_matrices)
        cells = [(r, c) for r in range(n) for c in range(n)]
        values = [[m[r][c] for m in basis_matrices] for r, c in cells]
        pivots = independent_rows(values)
        if len(pivots) != dim:
            raise InternalError("basis matrices are linearly dependent")
        inv = inverse([values[k] for k in pivots])
        # each pivot cell with its column of the inverse, as the nonzero
        # (row, value) entries
        self._pivots = [(cells[k], [(i, row[a]) for i, row in enumerate(inv)
                                    if row[a]])
                        for a, k in enumerate(pivots)]
        not_closed = InternalError("commutator left the span of the basis")
        table = {(i, j): self._coordinates(
                     mat_sub(mat_mul(basis_matrices[i], basis_matrices[j]),
                             mat_mul(basis_matrices[j], basis_matrices[i])),
                     not_closed)
                 for i in range(dim) for j in range(i + 1, dim)}
        self.algebra = LieAlgebra(dim, table, name)
        object.__setattr__(self.algebra, "_commutators", True)

    @property
    def dim(self):
        return self.algebra.dim

    def defining_representation(self):
        """rho(x_i) = M_i, proven by construction (module docstring)."""
        return self._proven(Representation(self.algebra, self.basis_matrices))

    def _proven(self, rep):
        """rep, marked proven by construction unless basis_matrices were
        replaced after the constructor checked them."""
        return rep._by_construction() \
            if self.basis_matrices is self._checked else rep

    def _coordinates(self, m, error):
        """The coordinates of the square matrix m; raises ``error`` when m
        is not in the span of the basis."""
        x = [ZERO] * len(self.basis_matrices)
        for (r, c), column in self._pivots:
            v = m[r][c]
            if v:
                for i, w in column:
                    x[i] = x[i] + v * w
        if combination(self.basis_matrices, x) != [list(row) for row in m]:
            raise error
        return x

    def coordinates_of_matrix(self, m):
        n = len(self.basis_matrices[0])
        if len(m) != n or any(len(row) != n for row in m):
            raise InvalidInput("matrix must be %d x %d" % (n, n))
        return self._coordinates(m, InvalidInput("matrix is not in the "
                                                 "algebra"))

    def matrix_of(self, x):
        return combination(self.basis_matrices, x)


def _semisimple(ma):
    """ma, its algebra marked semisimple by construction (module
    docstring)."""
    object.__setattr__(ma.algebra, "_semisimple", True)
    return ma


def sl_algebra(n) -> MatrixAlgebra:
    """sl(n): basis E_ij (i != j, row-major) then H_i = E_ii - E_{i+1,i+1}."""
    if n < 2:
        raise InvalidInput("sl(n) needs n >= 2")
    mats = [_matrix_unit(n, i, j) for i in range(n) for j in range(n)
            if i != j]
    for i in range(n - 1):
        m = zeros(n, n)
        m[i][i] = ONE
        m[i + 1][i + 1] = Scalar(-1)
        mats.append(m)
    return _semisimple(MatrixAlgebra("sl(%d)" % n, mats))


def so_algebra(n) -> MatrixAlgebra:
    """so(n) as antisymmetric matrices: basis A_ij = E_ij - E_ji (i < j)."""
    if n < 3:
        raise InvalidInput("so(n) needs n >= 3")
    mats = []
    for i in range(n):
        for j in range(i + 1, n):
            m = zeros(n, n)
            m[i][j] = ONE
            m[j][i] = Scalar(-1)
            mats.append(m)
    return _semisimple(MatrixAlgebra("so(%d)" % n, mats))


def sp_algebra(two_m) -> MatrixAlgebra:
    """sp(2m) for the form omega(e_i, f_j) = delta_ij in the basis
    (e_1..e_m, f_1..f_m): block matrices [[A, B], [C, -A^T]] with B, C
    symmetric."""
    if two_m % 2 or two_m < 2:
        raise InvalidInput("sp(2m) needs an even dimension >= 2")
    m = two_m // 2
    mats = []
    for i in range(m):
        for j in range(m):
            big = zeros(two_m, two_m)
            big[i][j] = ONE
            big[m + j][m + i] = Scalar(-1)
            mats.append(big)
    for i in range(m):
        for j in range(i, m):
            big = zeros(two_m, two_m)
            big[i][m + j] = ONE
            big[j][m + i] = ONE
            mats.append(big)
    for i in range(m):
        for j in range(i, m):
            big = zeros(two_m, two_m)
            big[m + i][j] = ONE
            big[m + j][i] = ONE
            mats.append(big)
    return _semisimple(MatrixAlgebra("sp(%d)" % two_m, mats))


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


def named_nilpotent(ma: MatrixAlgebra, spec: str):
    """Named nilpotents for sl(n): "principal" (regular) and "minimal"."""
    if not ma.algebra.name.startswith("sl("):
        raise InvalidInput("named nilpotents are defined for sl(n); give a "
                           "coordinate vector for so/sp")
    n = len(ma.basis_matrices[0])
    m = zeros(n, n)
    if spec == "principal":
        for i in range(n - 1):
            m[i + 1][i] = ONE
    elif spec == "minimal":
        m[n - 1][0] = ONE
    else:
        raise InvalidInput("unknown nilpotent spec %r" % spec)
    return ma.coordinates_of_matrix(m)


# --------------------------------------------------------------------------
# validation, Jacobson-Morozov, decomposition
# --------------------------------------------------------------------------

def validate_lie(g: LieAlgebra) -> dict:
    """Jacobi identity, Killing form, semisimplicity (exact).

    The table is antisymmetric by construction, and then Jacobi holds
    exactly when ad is a representation: [[x_i, x_j], x_k] =
    [x_i, [x_j, x_k]] - [x_j, [x_i, x_k]] is ad([x_i, x_j]) =
    [ad x_i, ad x_j] applied to x_k.  An algebra that sl_algebra,
    so_algebra or sp_algebra built is semisimple by construction (module
    docstring), and its answer is given without a Killing form."""
    dim = g.dim
    if g._semisimple:
        return {"jacobi": True, "killing_rank": dim, "semisimple": True}
    adjoint = g.adjoint_representation()
    jacobi_ok = adjoint.check_identity()
    ads = adjoint.matrices
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
    killing_rank = rank(killing)
    return {"jacobi": jacobi_ok, "killing_rank": killing_rank,
            "semisimple": jacobi_ok and killing_rank == dim}


def jacobson_morozov(g: LieAlgebra, y) -> Sl2Embedding:
    """An sl(2)-triple (E, H, F=Y) through the nilpotent Y.

    Route: solve [H, Y] = -2Y with H in the image of ad(Y), which succeeds
    exactly when Y is nilpotent (module docstring), so a failure is bad
    input; then solve [H, X] = 2X, [X, Y] = H for X = E.  Deterministic
    pivoting fixes the output; the bracket relations are verified exactly
    on the result.  The algebra is validated first (:func:`validate_lie`,
    free for a built-in): a table that fails Jacobi or is not semisimple
    is bad input.
    """
    info = validate_lie(g)
    if not info["jacobi"]:
        raise InvalidInput("the bracket table fails the Jacobi identity")
    if not info["semisimple"]:
        raise InvalidInput("algebra is not semisimple (Killing rank %d "
                           "of %d)" % (info["killing_rank"], g.dim))
    y = [scalar(c) for c in y]
    if len(y) != g.dim:
        raise InvalidInput("nilpotent has %d coordinates, the algebra has "
                           "dimension %d" % (len(y), g.dim))
    if all(c.is_zero() for c in y):
        raise InvalidInput("the zero element is not a usable nilpotent")
    dim = g.dim
    ad_y = g.ad(y)
    # unknown w with H = ad_y(w): [ad_y w, y] = -ad_y ad_y w = -2y
    a = [[-c for c in row] for row in mat_mul(ad_y, ad_y)]
    w = solve(a, [c * (-2) for c in y])
    if w is None:
        # solvable exactly when y is nilpotent (module docstring)
        raise InvalidInput("element is not ad-nilpotent")
    h = mat_vec(ad_y, w)
    # X: [H, X] = 2X and [X, Y] = -ad_y(X) = H simultaneously
    ad_h = g.ad(h)
    rows = [[c - 2 if i == j else c for j, c in enumerate(row)]
            for i, row in enumerate(ad_h)]
    rows += [[-c for c in row] for row in ad_y]
    x = solve(rows, [ZERO] * dim + h)
    if x is None:
        # Morozov's lemma guarantees X (module docstring)
        raise InternalError("Jacobson-Morozov system unsolvable on "
                            "semisimple input")
    emb = Sl2Embedding(g, x, h, y)
    if not emb.check():
        raise InternalError("constructed triple fails the bracket relations")
    return emb


def _weight_spaces(h_mat, bound):
    """{w: basis of the w-eigenspace of h_mat} for its eigenvalues w, which
    are sought among the integers in [-bound, bound]; a shortfall means
    invalid sl(2) data."""
    spaces, found = {}, 0
    for w in range(-bound, bound + 1):
        if found == len(h_mat):
            break
        space = kernel_basis([[x - w if r == c else x
                               for c, x in enumerate(row)]
                              for r, row in enumerate(h_mat)])
        if space:
            spaces[w] = space
            found += len(space)
    if found != len(h_mat):
        raise InternalError("rho(H) is not diagonalizable with integer "
                            "eigenvalues; invalid sl(2) data")
    return spaces


def sl2_decompose(rep: Representation, emb: Sl2Embedding):
    """Multiplicities a_j of the irreducible dimension-(j+1) summands of the
    representation restricted along the embedding.

    a_j = #eigenvalues j of rho(H) minus #eigenvalues j+2; any irreducible
    inside a dim-N space has highest weight at most N-1, so integer
    eigenvalues are sought in [-(N-1), N-1].
    """
    if rep.algebra.dim != emb.algebra.dim:
        raise InvalidInput("representation and embedding live on different "
                           "algebras")
    n = rep.space_dim
    if n == 0:
        return {}
    mult = {j: len(s) for j, s in
            _weight_spaces(rep.apply(list(emb.h)), n - 1).items()}
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
    (i < j, lexicographic); proven by construction (module docstring)."""
    n = len(ma.basis_matrices[0])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: a for a, p in enumerate(pairs)}
    mats = []
    for bm in ma.basis_matrices:
        big = zeros(len(pairs), len(pairs))
        for (i, j), col in index.items():
            # X(e_i ^ e_j) = X e_i ^ e_j - X e_j ^ e_i
            for moved, kept, sign in ((i, j, ONE), (j, i, Scalar(-1))):
                for r in range(n):
                    c = bm[r][moved]
                    if not c.is_zero() and r != kept:
                        row = index[(min(r, kept), max(r, kept))]
                        big[row][col] += (sign if r < kept else -sign) * c
        mats.append(big)
    return ma._proven(Representation(ma.algebra, mats)), pairs
