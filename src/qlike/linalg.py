"""Exact dense linear algebra over Q(i).

Matrices are lists of rows of :class:`~qlike.scalars.Scalar`.  Every exact
elimination goes through one driver, :func:`_eliminate`, which stays in
Gaussian integers from denominator clearing through back-substitution.
Each right-hand-side column is cleared with one common factor, each row of
the coefficient matrix with its denominator lcm, and each cleared row (with
its right-hand sides) is divided by its Gaussian-integer content; none of
these steps changes the zero pattern, the row space, the solution set or
the column dependencies.  Single-step Bareiss elimination brings the
integer matrix to an echelon form whose pivots are leading minors, so
entries stay integral with linear bit growth.  A solution is
back-substituted with its free column set to the last pivot ``d`` before
it: by Cramer's rule every pivot value is then a Gaussian integer, each
step is an exact division, and each output entry is divided by ``d`` (and
the right-hand-side factor) once.  Pivoting is deterministic (first nonzero
in row-major order), and each output is the unique solution fixed by its
free variables, so results are reproducible byte for byte.

The pivot columns are the column rank profile: column c is a pivot exactly
when it is independent of the columns before it.  :func:`independent_rows`
relies on this to pick independent vectors in order.

Reduced form.  With ``reduced``, :func:`_bareiss` also clears the rows
above each pivot, with the same step (fraction-free Gauss-Jordan).  The
pivot row and the rows below it take the same values as without
``reduced``, since clearing a row above touches neither, so the new pivot
row y is 0 on the earlier pivot columns and the leading minor d_k on its
own column c.  Let A_k be the input rows (after the swaps) of the k + 1
pivots so far, B their square block on the pivot columns, det B = d_k,
and R the reduced row echelon form of A_k.  Row k of R is y / d_k.  Row i
above it is R'_i - R'_i[c] y / d_k, for R' that of the pivots before;
if row i holds x = d_(k-1) R'_i, the step (d_k x - x[c] y) / d_(k-1)
therefore leaves d_k R_i.  So after step k the pivot rows are
d_k R = d_k B^-1 A_k, whose entries are, by Cramer's rule, determinants
of B with one column replaced by a column of A_k: Gaussian integers, and
every division is exact.  At the end every pivot entry is the last pivot
d, the only nonzero entry of its column, and row k divided by d is row k
of the reduced row echelon form.

Modular proofs.  :func:`rank` and :func:`kernel_basis` first reduce the
cleared rows modulo p = ``modp.KERNEL_PRIMES[0]``.  A minor of A reduces
to the same minor of A mod p, so rank(A mod p) <= rank(A) <= min(rows,
cols) for every input ("Rank" in :mod:`qlike.modp`).  A rank modulo p
equal to min(rows, cols) therefore proves the rank, and one equal to ncols
proves the kernel trivial, with no exact elimination.  Below that, an
input with an entry wider than 30 bits (one CPython digit), whose Bareiss
pivots can grow to hundreds of bits while its kernel vectors stay small,
tries the modular kernel candidates (see "Kernels" in :mod:`qlike.modp`)
before the driver.  Each candidate is checked exactly in Z[i]: every
cleared row must be orthogonal to every vector.  A checked candidate is
byte-identical to the Bareiss output:

* the candidate holds one vector per free column fc of A mod p, namely
  e_fc plus entries on the pivots left of fc; these vectors are
  independent and lie in the kernel, so rank(A) <= ncols - |F_p| =
  rank(A mod p), and with the bound above the two ranks are equal;
* each fc in F_p depends on the columns before it, so it is free in A as
  well, and F_p, of the right size, is the true free set;
* a kernel vector is unique once its free column is fixed, so the
  Scalars equal those of Bareiss.

So a checked candidate also proves rank(A) = ncols - |F_p|.  When nothing
modular proves the answer, the driver computes it; an unlucky prime only
costs the modular attempt.

Kept vectors.  :func:`integer_kernel` takes rows already cleared, and a
``keep`` rule that picks, from the free columns alone, the kernel vectors
its caller reads; only those are back-substituted (or read off the
checked candidate).  Each is the vector fixed by its free column, so it
equals the one :func:`kernel_basis` returns.
"""

from __future__ import annotations

from bisect import bisect_left

from . import modp
from .scalars import (ONE, ZERO, clear_denominators, gaussian,
                      primitive_part)

# Gaussian integers are plain (re, im) int pairs inside this module.
_GZERO = (0, 0)
_GONE = (1, 0)


def _gdiv(a, b):
    # exact division in Z[i]; callers guarantee divisibility
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    return (re // n, im // n)


# one CPython digit: wider cleared entries make Bareiss grow long pivots
_WIDE = 1 << 30


def _is_wide(rows):
    """Whether some entry of the Gaussian-integer rows has more than 30
    bits."""
    for row in rows:
        for re, im in row:
            if abs(re) | abs(im) >= _WIDE:
                return True
    return False


def _kills(rows, entries):
    """Whether every Gaussian-integer row is orthogonal to the sparse
    vector ``entries`` of (column, (re, im)) pairs."""
    for row in rows:
        sr = si = 0
        for j, (xr, xi) in entries:
            ur, ui = row[j]
            if ur or ui:
                sr += ur * xr - ui * xi
                si += ur * xi + ui * xr
        if sr or si:
            return False
    return True


def _checked_kernel(rows, ncols):
    """The first candidate of :func:`modp.kernel_candidates` whose vectors
    all pass the exact check, or None when no candidate does."""
    for vectors in modp.kernel_candidates(rows, ncols):
        if all(_kills(rows, entries) for _, entries in vectors):
            return vectors
    return None


def _bareiss(rows, ncols, reduced=False):
    """Fraction-free echelon form in place; returns pivot column list.

    After processing pivot k the entries are (k+1) x (k+1) minors of the
    scaled input, so the single-step division by the previous pivot is
    always exact.  With ``reduced`` the rows above each pivot are cleared
    too, and row k divided by the last pivot is row k of the reduced row
    echelon form ("Reduced form" in the module docstring).
    """
    nrows = len(rows)
    pivots = []
    qr, qi = _GONE                      # the previous pivot
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c] != _GZERO:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
        row_r = rows[r]
        pr, pi = row_r[c]
        qn = qr * qr + qi * qi
        # a row above the pivot has entries left of c, where row_r is zero
        for i in range(0 if reduced else r + 1, nrows):
            if i == r:
                continue
            row_i = rows[i]
            ar, ai = row_i[c]
            for j in range(0 if i < r else c + 1, ncols):
                # row_i[j] = (pivot * row_i[j] - row_i[c] * row_r[j]) / previous
                xr, xi = row_i[j]
                yr, yi = row_r[j]
                if not (xr or xi or yr or yi):
                    continue
                nr = pr * xr - pi * xi - ar * yr + ai * yi
                ni = pr * xi + pi * xr - ar * yi - ai * yr
                if qi:
                    row_i[j] = ((nr * qr + ni * qi) // qn,
                                (ni * qr - nr * qi) // qn)
                else:
                    row_i[j] = (nr // qr, ni // qr)
            row_i[c] = _GZERO
        pivots.append(c)
        qr, qi = pr, pi
        r += 1
        if r == nrows:
            break
    return pivots


def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def conj_matrix(a):
    return [[x.conjugate() for x in row] for row in a]


def mat_mul(a, b):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x.is_zero():
                continue
            bt = b[t]
            for j in range(m):
                y = bt[j]
                if not y.is_zero():
                    oi[j] = oi[j] + x * y
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        s = ZERO
        for x, y in zip(row, v):
            if not x.is_zero() and not y.is_zero():
                s = s + x * y
        out.append(s)
    return out


def mat_sub(a, b):
    return [[x - y if y else x for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def _free_vector(rows, pivots, fc, ncols):
    """``(n, x)``: the solution of the echelon system ``rows`` that is 1 on
    column ``fc`` and 0 on the other free columns is x / n, for the int
    ``n > 0`` and the list ``x`` of its first ``ncols`` Gaussian-integer
    numerators.

    Only pivots left of ``fc`` can be nonzero.  Column ``fc`` is set to the
    last of their pivots ``d``, which makes every pivot value a minor
    (Cramer's rule), so each step divides exactly; the values are then
    put over n = d conj(d).
    """
    x = [_GZERO] * ncols
    m = bisect_left(pivots, fc)
    if m == 0:
        if fc < ncols:
            x[fc] = _GONE
        return 1, x
    d = rows[m - 1][pivots[m - 1]]
    vals = [(fc, d)]
    for k in range(m - 1, -1, -1):
        row = rows[k]
        sr = si = 0
        for j, (xr, xi) in vals:
            ur, ui = row[j]
            if ur or ui:
                sr += ur * xr - ui * xi
                si += ur * xi + ui * xr
        pc = pivots[k]
        vals.append((pc, _gdiv((-sr, -si), row[pc])))
    dr, di = d
    for j, (xr, xi) in vals:
        if j < ncols:
            x[j] = (xr * dr + xi * di, xi * dr - xr * di)
    return dr * dr + di * di, x


def _eliminate(a, ncols, rhs=(), cleared=None):
    """``(rows, pivots, solutions)`` of ``[A | b_1 | ...]`` for the
    right-hand sides ``b_k`` in ``rhs``.

    ``rows`` is the echelon form and ``pivots`` are A's pivot columns;
    ``solutions`` holds the solution of A x = b_k with every free variable
    0 for each ``b_k``, or is None if any is inconsistent.
    ``cleared`` may give A's rows already cleared of denominators, when
    ``rhs`` is empty.
    """
    if cleared is not None:
        sides = ()
        rows = [primitive_part(row) for row in cleared]
    else:
        # A x = D b for the column's common denominator D: the right sides
        # do not scale the rows of A
        sides = [clear_denominators(b) for b in rhs]
        rows = []
        for i, row in enumerate(a):
            l, ints = clear_denominators(row)
            if sides:
                ints += [(l * ib[i][0], l * ib[i][1]) for _, ib in sides]
            rows.append(primitive_part(ints))
    pivots = _bareiss(rows, ncols + len(sides))
    solutions = None
    if not pivots or pivots[-1] < ncols:
        # x = -(kernel vector of [A | D b] that is 1 on b's column)/D
        solutions = []
        for k, (l, _) in enumerate(sides):
            n, x = _free_vector(rows, pivots, ncols + k, ncols)
            solutions.append([gaussian(-re, -im, n * l) if re or im else ZERO
                              for re, im in x])
    return rows, [c for c in pivots if c < ncols], solutions


def _rank_modp(rows):
    """rank(A mod p) of the Gaussian-integer rows, p = KERNEL_PRIMES[0]: at
    most rank(A) (module docstring)."""
    p = modp.KERNEL_PRIMES[0]
    return modp.rank_modp(modp.reduce_modp(rows, p, modp.sqrt_minus_one(p)),
                          p)


def rank(a):
    if not a or not a[0]:
        return 0
    ncols = len(a[0])
    rows = [clear_denominators(row)[1] for row in a]
    full = min(len(rows), ncols)
    if _rank_modp(rows) == full:
        return full
    if _is_wide(rows):
        vectors = _checked_kernel(rows, ncols)
        if vectors is not None:
            return ncols - len(vectors)
    return len(_eliminate(a, ncols, cleared=rows)[1])


def independent_rows(vectors):
    """Indices of the vectors that are independent of all earlier ones.

    They are the pivot columns of the matrix whose columns are the vectors;
    clearing the denominators of each coordinate scales a row of that
    matrix, which leaves its column dependencies unchanged.
    """
    return _eliminate(transpose(vectors), len(vectors))[1]


def kernel_basis(a):
    """Basis of the right kernel, one vector per free column (that free
    variable 1, the others 0, pivots back-substituted).  Deterministic."""
    ncols = len(a[0]) if a else 0
    rows = [clear_denominators(row)[1] for row in a]
    if _rank_modp(rows) == ncols:
        return []
    return [[gaussian(re, im, den) if re or im else ZERO for re, im in x]
            for den, x in integer_kernel(rows, ncols)]


def integer_kernel(rows, ncols, keep=None):
    """The :func:`kernel_basis` vectors of the Gaussian-integer ``rows``
    (lists of ``ncols`` (re, im) pairs), with no modular rank first, each
    as ``(den, x)``: the int ``den > 0`` and the ``ncols`` Gaussian-integer
    numerators ``x`` of the vector x / den.  The rows may be overwritten.

    ``keep(free)``, given the free columns in order, returns the positions
    in that list of the vectors wanted, in order; only those are built.
    """
    if _is_wide(rows):
        vectors = _checked_kernel(rows, ncols)
        if vectors is not None:
            if keep is not None:
                vectors = [vectors[i] for i in keep(
                    [entries[-1][0] for _, entries in vectors])]
            out = []
            for den, entries in vectors:
                x = [_GZERO] * ncols
                for j, pair in entries:
                    x[j] = pair
                out.append((den, x))
            return out
    rows, pivots, _ = _eliminate(None, ncols, cleared=rows)
    pivot_set = set(pivots)
    free = [fc for fc in range(ncols) if fc not in pivot_set]
    if keep is not None:
        free = [free[i] for i in keep(free)]
    return [_free_vector(rows, pivots, fc, ncols) for fc in free]


def solve(a, b):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    x = _eliminate(a, len(a[0]) if a else 0, [b])[2]
    return None if x is None else x[0]


def solve_matrix(a, b):
    """Solve A X = B columnwise; None if any column is inconsistent."""
    ncols = len(a[0]) if a else 0
    cols = _eliminate(a, ncols, transpose(b))[2]
    if cols is None:
        return None
    return [[col[c] for col in cols] for c in range(ncols)]


def inverse(a):
    # A X = I has a solution exactly when the square matrix A is invertible
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    x = solve_matrix(a, identity(n))
    if x is None:
        raise ValueError("matrix is not invertible")
    return x
