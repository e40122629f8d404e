"""Sound modular certificates: rank bounds and the injectivity resultant gcd.

Reduction modulo a prime p = 1 mod 4, sending i to a square root of -1 in
GF(p), is a ring map from the Gaussian integers onto GF(p).  Both
certificates below use only what such a map preserves.

Rank.  A minor of a Gaussian-integer matrix reduces to the same minor of
the reduced matrix, so the rank over GF(p) is at most the rank over Q(i).
Suppose W is a set of Gaussian-integer vectors proven (exactly) to lie in
the kernel of a matrix A with ncols columns.  Then rank(A) <= ncols -
rank(W) <= ncols - rank(W mod p), and rank(A mod p) <= rank(A).  When
rank(A mod p) + rank(W mod p) = ncols the two bounds meet, which proves
rank(A) = rank(A mod p) exactly.  A sum below ncols is merely
inconclusive.  :func:`rank_modp` computes the reduced ranks.

Injectivity.  The two-point minors are Gaussian-integer bivariates, so their
y-resultants are Gaussian-integer polynomials in x.  Any common zero of the
minor system makes every resultant vanish, hence the monic gcd G of the
resultants is nonconstant.  A monic divisor reduces to a divisor of the
reductions, and a monic polynomial keeps its degree under reduction.
Therefore: if the gcd of the reduced resultants is a nonzero constant for
one good prime, G is constant and the curve is injective.  A zero or
nonconstant modular gcd is merely inconclusive.  Scaling a minor by a
nonzero constant does not move its zeros, so the verdict holds for any
nonzero multiple of the minors.
"""

from __future__ import annotations

PRIMES = (998244353, 754974721, 167772161)

_SQRT_CACHE = {}


def sqrt_minus_one(p):
    if p in _SQRT_CACHE:
        return _SQRT_CACHE[p]
    for a in range(2, 100):
        if pow(a, (p - 1) // 2, p) == p - 1:
            root = pow(a, (p - 1) // 4, p)
            _SQRT_CACHE[p] = root
            return root
    raise ValueError("no square root of -1 mod %d" % p)


def reduce_modp(rows, p, ip):
    """Rows of (re, im) Gaussian-integer pairs reduced modulo p, with i
    sent to the square root ``ip`` of -1."""
    return [[(re + im * ip) % p for re, im in row] for row in rows]


def _eval_x_modp(h, x, dy, p):
    out = [0] * (dy + 1)
    xi = 1
    for row in h:
        for j, c in enumerate(row):
            if c:
                out[j] = (out[j] + c * xi) % p
        xi = (xi * x) % p
    return out


def _eliminate_modp(rows, p):
    """Gaussian elimination over GF(p) of rows with entries in [0, p), in
    place; returns the pivot values in order and the number of row swaps.
    The rank is the number of pivots."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    swaps = 0
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        if i != r:
            rows[r], rows[i] = rows[i], rows[r]
            swaps += 1
        row_r = rows[r]
        piv = row_r[c]
        inv = pow(piv, p - 2, p)
        nz = [j for j in range(c + 1, ncols) if row_r[j]]
        for row_i in rows[r + 1:]:
            if row_i[c]:
                f = (row_i[c] * inv) % p
                for j in nz:
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
                row_i[c] = 0
        pivots.append(piv)
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def rank_modp(rows, p):
    """Rank over GF(p) of integer rows with entries in [0, p); the rows are
    overwritten."""
    return len(_eliminate_modp(rows, p)[0])


def _sylvester_det_modp(f, g, df, dg, p):
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
    for piv in pivots:
        det = (det * piv) % p
    return det


def _interpolate_modp(xs, vals, p):
    """Newton interpolation in GF(p); coefficient list, constant first."""
    k = len(xs)
    coeffs = list(vals)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            denom = (xs[i] - xs[i - j]) % p
            coeffs[i] = ((coeffs[i] - coeffs[i - 1]) *
                         pow(denom, p - 2, p)) % p
    poly = [0]
    for i in range(k - 1, -1, -1):
        # poly = poly * (x - xs[i]) + coeffs[i]
        new = [0] * (len(poly) + 1)
        for d, c in enumerate(poly):
            if c:
                new[d + 1] = (new[d + 1] + c) % p
                new[d] = (new[d] - c * xs[i]) % p
        new[0] = (new[0] + coeffs[i]) % p
        poly = new
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _gcd_modp(a, b, p):
    a = [x % p for x in a]
    b = [x % p for x in b]
    while b and not b[-1]:
        b.pop()
    while a and not a[-1]:
        a.pop()
    while b:
        while len(a) >= len(b):
            f = (a[-1] * pow(b[-1], p - 2, p)) % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
            while a and not a[-1]:
                a.pop()
            if not a:
                break
        a, b = b, a
    return a


def bideg(h):
    """(x-degree, y-degree) of a bivariate stored as rows over x-powers."""
    dx = len(h) - 1
    dy = max((len(row) - 1 for row in h if row), default=0)
    return dx, dy


def resultant_gcd_is_constant(h_list, primes=PRIMES):
    """True when the monic gcd G of the true resultants Res_y(h1, h) is
    provably constant; ``h_list`` holds Gaussian-integer bivariates, rows
    over x-powers of y-coefficient lists of (re, im) int pairs.

    The reductions satisfy (R_H mod p) = lc_y(h1bar)^e * Res(h1bar, hbar)
    once h1's y-degree survives reduction, and Gbar divides every R_H mod p,
    so a constant gcd of { lc_y(h1bar) } + { Res(h1bar, hbar) } in GF(p)
    forces G constant.  Anything else is inconclusive, never a false pass.
    """
    ints = [h for h in h_list if any(c != (0, 0) for row in h for c in row)]
    if len(ints) < 2:
        return False
    ints.sort(key=lambda h: bideg(h)[1])
    h1_int = ints[0]
    _, d1y_int = bideg(h1_int)
    for p in primes:
        ip = sqrt_minus_one(p)
        h1 = reduce_modp(h1_int, p, ip)
        d1x, d1y = bideg(h1)
        if d1y != d1y_int:
            continue                       # h1 degenerated; try another prime
        if d1y == 0:
            # y-free constraints alone: a subset of the system, still sound
            acc = _poly_in_x(h1, p)
            if not acc:
                continue
            for h_int in ints[1:]:
                hx = _poly_in_x(reduce_modp(h_int, p, ip), p)
                if hx:
                    acc = _gcd_modp(acc, hx, p)
                    if len(acc) == 1:
                        return True
            continue
        lcf = [row[d1y] if len(row) > d1y else 0 for row in h1]
        while lcf and not lcf[-1]:
            lcf.pop()
        if not lcf:
            continue
        acc = list(lcf)
        if len(acc) == 1:
            acc = None                     # unit leading coefficient
        for h_int in ints[1:]:
            h = reduce_modp(h_int, p, ip)
            if not any(c for row in h for c in row):
                continue                   # reduced to zero: inconclusive term
            d2x, d2y = bideg(h)
            bound = d1x * d2y + d2x * d1y + 1
            xs = list(range(bound))
            vals = []
            for x in xs:
                f = _eval_x_modp(h1, x, d1y, p)
                g = _eval_x_modp(h, x, d2y, p)
                vals.append(_sylvester_det_modp(f, g, d1y, d2y, p))
            poly = _interpolate_modp(xs, vals, p)
            if not poly:
                continue                   # identically zero: inconclusive
            acc = poly if acc is None else _gcd_modp(acc, poly, p)
            if len(acc) == 1:
                return True
        if acc is not None and len(acc) == 1:
            return True
    return False


def _poly_in_x(h, p):
    """A y-free bivariate as a plain x-coefficient list (None if not y-free)."""
    out = []
    for row in h:
        if len(row) > 1:
            return None
        out.append(row[0] if row else 0)
    while out and not out[-1]:
        out.pop()
    return out
