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

Wide inputs.  When a cleared row of :func:`kernel_basis` or :func:`rank`
has an entry wider than 30 bits (one CPython digit), Bareiss pivots can
grow to hundreds of bits while the kernel vectors stay small, so these two
first try a modular route on the whole cleared matrix (see "Kernels" in
:mod:`qlike.modp`), and go to the driver when it proves nothing.  Each
modular kernel candidate is checked exactly in Z[i]: every cleared row must
be orthogonal to every vector.  A checked candidate is byte-identical to
the Bareiss output:

* rank(A mod p) <= rank(A), since minors reduce to minors;
* the candidate holds one vector per free column fc of A mod p, namely
  e_fc plus entries on the pivots left of fc; these vectors are
  independent and lie in the kernel, so rank(A) <= ncols - |F_p| =
  rank(A mod p), and the two ranks are equal;
* each fc in F_p depends on the columns before it, so it is free in A as
  well, and F_p, of the right size, is the true free set;
* a kernel vector is unique once its free column is fixed, so the
  Scalars equal those of Bareiss.

For the rank, a rank modulo p equal to min(rows, cols) is already a proof;
below that, a checked candidate proves rank(A) = ncols - |F_p| by the
same argument.
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


def _bareiss(rows, ncols):
    """Fraction-free echelon form in place; returns pivot column list.

    After processing pivot k the entries are (k+1) x (k+1) minors of the
    scaled input, so the single-step division by the previous pivot is
    always exact.
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
        for row_i in rows[r + 1:]:
            ar, ai = row_i[c]
            for j in range(c + 1, ncols):
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


def _free_vector(rows, pivots, fc, out, den=1):
    """Set in ``out`` the solution of the echelon system ``rows`` that is
    ``1/den`` on column ``fc`` and 0 on the other free columns; returns
    ``out``, whose length is the number of unknowns.

    Only pivots left of ``fc`` can be nonzero.  Column ``fc`` is set to the
    last of their pivots ``d``, which makes every pivot value a minor
    (Cramer's rule), so each step divides exactly; the entries are divided
    by ``d * den`` once at the end.
    """
    if fc < len(out):
        out[fc] = gaussian(1, 0, den)
    m = bisect_left(pivots, fc)
    if m == 0:
        return out
    d = rows[m - 1][pivots[m - 1]]
    x = [(fc, d)]
    for k in range(m - 1, -1, -1):
        row = rows[k]
        sr = si = 0
        for j, (xr, xi) in x:
            ur, ui = row[j]
            if ur or ui:
                sr += ur * xr - ui * xi
                si += ur * xi + ui * xr
        pc = pivots[k]
        x.append((pc, _gdiv((-sr, -si), row[pc])))
    dr, di = d[0] * den, d[1] * den
    n = dr * dr + di * di
    for j, (xr, xi) in x[1:]:
        out[j] = gaussian(xr * dr + xi * di, xi * dr - xr * di, n)
    return out


def _eliminate(a, ncols, rhs=(), kernel=False, cleared=None):
    """``(pivots, kernel, solutions)`` of ``[A | b_1 | ...]`` for the
    right-hand sides ``b_k`` in ``rhs``.

    ``pivots`` are A's pivot columns; ``kernel`` (empty unless asked for)
    has one vector per free column, that variable 1 and the other free ones
    0; ``solutions`` holds the solution of A x = b_k with every free
    variable 0 for each ``b_k``, or is None if any is inconsistent.
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
    kernel_vectors = []
    if kernel:
        pivot_set = set(pivots)
        kernel_vectors = [_free_vector(rows, pivots, fc, [ZERO] * ncols)
                          for fc in range(ncols) if fc not in pivot_set]
    solutions = None
    if not pivots or pivots[-1] < ncols:
        # x = -(kernel vector of [A | D b] that is 1 on b's column)/D
        solutions = [_free_vector(rows, pivots, ncols + k, [ZERO] * ncols,
                                  -l) for k, (l, _) in enumerate(sides)]
    return [c for c in pivots if c < ncols], kernel_vectors, solutions


def rank(a):
    if not a or not a[0]:
        return 0
    ncols = len(a[0])
    rows = [clear_denominators(row)[1] for row in a]
    if _is_wide(rows):
        # rank(A mod p) <= rank(A) <= min(rows, cols)
        full = min(len(rows), ncols)
        p = modp.KERNEL_PRIMES[0]
        reduced = modp.reduce_modp(rows, p, modp.sqrt_minus_one(p))
        if modp.rank_modp(reduced, p) == full:
            return full
        vectors = _checked_kernel(rows, ncols)
        if vectors is not None:
            return ncols - len(vectors)
    return len(_eliminate(a, ncols, cleared=rows)[0])


def independent_rows(vectors):
    """Indices of the vectors that are independent of all earlier ones.

    They are the pivot columns of the matrix whose columns are the vectors;
    clearing the denominators of each coordinate scales a row of that
    matrix, which leaves its column dependencies unchanged.
    """
    return _eliminate(transpose(vectors), len(vectors))[0]


def kernel_basis(a):
    """Basis of the right kernel, one vector per free column (that free
    variable 1, the others 0, pivots back-substituted).  Deterministic."""
    ncols = len(a[0]) if a else 0
    rows = [clear_denominators(row)[1] for row in a]
    if _is_wide(rows):
        vectors = _checked_kernel(rows, ncols)
        if vectors is not None:
            out = []
            for den, entries in vectors:
                v = [ZERO] * ncols
                for j, (xr, xi) in entries:
                    v[j] = gaussian(xr, xi, den)
                out.append(v)
            return out
    return _eliminate(a, ncols, kernel=True, cleared=rows)[1]


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
