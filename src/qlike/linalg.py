"""Exact dense linear algebra over Q(i).

Matrices are lists of rows of :class:`~qlike.scalars.Scalar`.  Elimination
runs fraction-free (single-step Bareiss over Gaussian integers, rows scaled
by their denominator lcm), so intermediate entries stay integral with
linear bit growth; only the final back-substitutions divide.  Pivoting is
deterministic (first nonzero in row-major order), so results are
reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd

from .scalars import ONE, ZERO, Scalar

# Gaussian integers are plain (re, im) int pairs inside this module.
_GZERO = (0, 0)
_GONE = (1, 0)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gdiv(a, b):
    # exact division in Z[i]; callers guarantee divisibility (Bareiss)
    n = b[0] * b[0] + b[1] * b[1]
    re = a[0] * b[0] + a[1] * b[1]
    im = a[1] * b[0] - a[0] * b[1]
    return (re // n, im // n)


def _int_rows(a):
    """Scale each row by its denominator lcm; returns Gaussian-int rows.

    Scaling by a positive integer changes neither the zero pattern nor the
    row space, so ranks, pivots and kernels are unaffected.
    """
    out = []
    for row in a:
        l = 1
        for x in row:
            dr = x.re.denominator
            di = x.im.denominator
            l = l * dr // _gcd(l, dr)
            l = l * di // _gcd(l, di)
        out.append([(int(x.re * l), int(x.im * l)) for x in row])
    return out


def _bareiss(rows, ncols):
    """Fraction-free echelon form in place; returns pivot column list.

    After processing pivot k the entries are (k+1) x (k+1) minors of the
    scaled input, so the single-step division by the previous pivot is
    always exact.
    """
    nrows = len(rows)
    pivots = []
    prev = _GONE
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != _GZERO:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            row_i = rows[i]
            row_r = rows[r]
            if ric == _GZERO:
                for j in range(c + 1, ncols):
                    if row_i[j] != _GZERO:
                        row_i[j] = _gdiv(_gmul(piv, row_i[j]), prev)
            else:
                for j in range(c + 1, ncols):
                    num = _gmul(piv, row_i[j])
                    sub = _gmul(ric, row_r[j])
                    row_i[j] = _gdiv((num[0] - sub[0], num[1] - sub[1]), prev)
                row_i[c] = _GZERO
        pivots.append(c)
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def _to_scalar(g):
    return Scalar(g[0], g[1])


def zeros(n, m):
    return [[ZERO] * m for _ in range(n)]


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i][i] = ONE
    return out


def copy_matrix(a):
    return [row[:] for row in a]


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
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def rank(a):
    if not a or not a[0]:
        return 0
    rows = _int_rows(a)
    return len(_bareiss(rows, len(a[0])))


def _back_substitute(rows, pivots, ncols, values):
    """Solve the triangular pivot system for the non-pivot assignment in
    ``values`` (a dict col -> Scalar); fills the pivot entries."""
    for idx in range(len(pivots) - 1, -1, -1):
        pc = pivots[idx]
        row = rows[idx]
        s = ZERO
        for j in range(pc + 1, ncols):
            rv = row[j]
            if rv == _GZERO:
                continue
            xj = values.get(j)
            if xj is not None and not xj.is_zero():
                s = s + _to_scalar(rv) * xj
        rhs = values.get(("rhs", idx))
        if rhs is not None:
            s = s - rhs
        piv = _to_scalar(row[pc])
        values[pc] = (-s) / piv
    return values


def kernel_basis(a):
    """Basis of the right kernel, one vector per free column (that free
    variable 1, the others 0, pivots back-substituted).  Deterministic."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    if ncols == 0:
        return []
    if nrows == 0:
        return [[ONE if i == j else ZERO for i in range(ncols)]
                for j in range(ncols)]
    rows = _int_rows(a)
    pivots = _bareiss(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        values = {c: ZERO for c in free}
        values[fc] = ONE
        _back_substitute(rows, pivots, ncols, values)
        basis.append([values.get(c, ZERO) for c in range(ncols)])
    return basis


def solve(a, b):
    """One exact solution of A x = b, or None if the system is inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [a[i][:] + [b[i]] for i in range(nrows)]
    rows = _int_rows(aug)
    pivots = _bareiss(rows, ncols + 1)
    if ncols in pivots:
        return None
    values = {c: ZERO for c in range(ncols) if c not in set(pivots)}
    for idx in range(len(pivots)):
        values[("rhs", idx)] = _to_scalar(rows[idx][ncols])
    _back_substitute(rows, pivots, ncols, values)
    return [values.get(c, ZERO) for c in range(ncols)]


def solve_matrix(a, b):
    """Solve A X = B columnwise; None if any column is inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    bcols = len(b[0]) if b else 0
    aug = [a[i][:] + b[i][:] for i in range(nrows)]
    rows = _int_rows(aug)
    pivots_all = _bareiss(rows, ncols + bcols)
    pivots = [p for p in pivots_all if p < ncols]
    if len(pivots) != len(pivots_all):
        return None
    x = zeros(ncols, bcols)
    free = [c for c in range(ncols) if c not in set(pivots)]
    for col in range(bcols):
        values = {c: ZERO for c in free}
        for idx in range(len(pivots)):
            values[("rhs", idx)] = _to_scalar(rows[idx][ncols + col])
        _back_substitute(rows, pivots, ncols, values)
        for c in range(ncols):
            x[c][col] = values.get(c, ZERO)
    return x


def inverse(a):
    n = len(a)
    if rank(a) != n:
        raise ValueError("matrix is not invertible")
    x = solve_matrix(a, identity(n))
    if x is None:
        raise ValueError("matrix is not invertible")
    return x


def exact_det(a) -> Scalar:
    """Determinant over Q(i): fraction-free on the integerized matrix, with
    the row scales divided back out."""
    n = len(a)
    if n == 0:
        return ONE
    scales = []
    rows = []
    for row in a:
        l = 1
        for x in row:
            dr = x.re.denominator
            di = x.im.denominator
            l = l * dr // _gcd(l, dr)
            l = l * di // _gcd(l, di)
        scales.append(l)
        rows.append([(int(x.re * l), int(x.im * l)) for x in row])
    sign = 1
    prev = _GONE
    for c in range(n):
        pr = None
        for i in range(c, n):
            if rows[i][c] != _GZERO:
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
            rows[i][c] = _GZERO
        prev = piv
    det_int = _to_scalar(rows[n - 1][n - 1])
    denom = 1
    for l in scales:
        denom *= l
    return det_int * Scalar(Fraction(sign, denom))


def rref(a):
    """Reduced row echelon form over Q(i) (returns matrix and pivot list).

    Kept for completeness and tests; the solvers above use the fraction-free
    path instead.
    """
    m = copy_matrix(a)
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


def span_equal(u, v):
    ru = rank(u) if u else 0
    rv = rank(v) if v else 0
    if ru != rv:
        return False
    return rank(u + v) == ru if (u or v) else True
