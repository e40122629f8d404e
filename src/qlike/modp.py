"""Sound modular certificate for the injectivity resultant gcd.

The two-point minors have Gaussian-integer coefficients after clearing
denominators, so their y-resultants are Gaussian-integer polynomials in x.
Any common zero of the minor system makes every resultant vanish, hence the
monic gcd G of the resultants is nonconstant.  For a prime p = 1 mod 4 the
reduction map sends i to a square root of -1 in GF(p); a monic divisor
reduces to a divisor of the reductions, and a monic polynomial keeps its
degree under reduction.  Therefore: if the gcd of the reduced resultants is
a nonzero constant for one good prime, G is constant and the curve is
injective.  A zero or nonconstant modular gcd is merely inconclusive.
"""

from __future__ import annotations

from .scalars import clear_denominators

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


def _int_pairs_bivariate(h):
    """Clear the denominators of a rows-in-x of y-coefficient-lists
    polynomial with one common factor; returns rows of (re, im) int pairs."""
    _, flat = clear_denominators([c for row in h for c in row])
    it = iter(flat)
    return [[next(it) for _ in row] for row in h]


def _reduce_bivariate(h_int, p, ip):
    return [[(re + im * ip) % p for re, im in row] for row in h_int]


def _eval_x_modp(h, x, dy, p):
    out = [0] * (dy + 1)
    xi = 1
    for row in h:
        for j, c in enumerate(row):
            if c:
                out[j] = (out[j] + c * xi) % p
        xi = (xi * x) % p
    return out


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
    det = 1
    for c in range(n):
        piv = None
        for r in range(c, n):
            if m[r][c]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = p - det if det else 0
        det = (det * m[c][c]) % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            if m[r][c]:
                f_ = (m[r][c] * inv) % p
                for j in range(c, n):
                    if m[c][j]:
                        m[r][j] = (m[r][j] - f_ * m[c][j]) % p
    return det % p


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
    provably constant.

    The reductions satisfy (R_H mod p) = lc_y(h1bar)^e * Res(h1bar, hbar)
    once h1's y-degree survives reduction, and Gbar divides every R_H mod p,
    so a constant gcd of { lc_y(h1bar) } + { Res(h1bar, hbar) } in GF(p)
    forces G constant.  Anything else is inconclusive, never a false pass.
    """
    ints = [_int_pairs_bivariate(h) for h in h_list]
    ints = [h for h in ints if any(c != (0, 0) for row in h for c in row)]
    if len(ints) < 2:
        return False
    ints.sort(key=lambda h: bideg(h)[1])
    h1_int = ints[0]
    _, d1y_int = bideg(h1_int)
    for p in primes:
        ip = sqrt_minus_one(p)
        h1 = _reduce_bivariate(h1_int, p, ip)
        d1x, d1y = bideg(h1)
        if d1y != d1y_int:
            continue                       # h1 degenerated; try another prime
        if d1y == 0:
            # y-free constraints alone: a subset of the system, still sound
            acc = _poly_in_x(h1, p)
            if not acc:
                continue
            for h_int in ints[1:]:
                hx = _poly_in_x(_reduce_bivariate(h_int, p, ip), p)
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
            h = _reduce_bivariate(h_int, p, ip)
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
