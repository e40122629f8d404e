"""Sound modular certificates: rank bounds, coprime forms and the
injectivity resultant gcd; and kernel candidates for an exact check.

Reduction modulo a prime p = 1 mod 4, sending i to a square root of -1 in
GF(p), is a ring map from the Gaussian integers onto GF(p); its kernel is a
Gaussian prime pi over p.  Every certificate below uses only what such a
map preserves, and a failed certificate is merely inconclusive: the caller
then decides exactly.

Rank.  A minor of a Gaussian-integer matrix reduces to the same minor of
the reduced matrix, so the rank over GF(p) is at most the rank over Q(i).
:func:`rank_modp` computes the reduced ranks.

Kernels.  :func:`kernel_candidates` proposes the kernel basis of a
Gaussian-integer matrix from its reduced row echelon forms over GF(p),
one under each square root s and p - s of -1; they are the images of A
under the two Gaussian primes over p.  When both have the same pivots, an
entry a + b i of a kernel vector (a, b rational) reduces to x1 = a + b s
and x2 = a - b s, so a = (x1 + x2) / 2 and b = (x1 - x2) / 2s modulo p.
Primes with the same pivots are combined by Chinese remaindering, and
each part is recovered from its residue modulo the product M by rational
reconstruction (Wang, Guy and Davenport 1982), which is unique for
numerators and denominators below sqrt(M / 2).  An unlucky prime, or a
part past that bound, gives a wrong candidate or none; nothing here is
proven, and :func:`qlike.linalg.kernel_basis` checks each candidate
exactly before it trusts it.

Coprime forms.  Let G be the primitive gcd over Z[i] of Gaussian-integer
binary forms F_1, ..., F_s, not all zero.  Z[i] is a unique factorization
domain, so by Gauss's lemma G divides every F_j in Z[i][z0, z1]: F_j =
G H_j.  Reducing gives Fbar_j = Gbar Hbar_j, and Gbar is a nonzero form of
the same degree as G, because a primitive form has a coefficient outside
pi.  So Gbar divides every reduced form, and if the reduced forms are not
all zero and their gcd over GF(p) is constant, G is constant.  Over GF(p),
nonzero forms have a constant gcd exactly when their dehomogenizations
f(1, t) have a constant gcd and one of them does not vanish at (0 : 1),
that is, has a nonzero z1^d coefficient; such a form is also the witness
that the reductions are not all zero.  :func:`coprime_forms_prime` checks
this.

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

Formal degrees.  Each resultant is the determinant of the Sylvester matrix
built at the formal y-degrees of the two bivariates, so evaluating it at x
commutes with evaluating the bivariates, even at an x where a leading
coefficient vanishes.  :func:`_resultant_modp` computes that determinant by
the Euclidean algorithm, with Res_{m,n}(f, g) the Sylvester determinant of
f at formal degree m and g at formal degree n:

* Res_{0,n}(c, g) = c^n and Res_{m,0}(f, c) = c^m, even when the other
  operand is zero; otherwise a zero operand gives 0;
* Res_{m,n}(f, g) = 0 when both formal leading coefficients vanish;
* if f_m != 0 and g has actual degree n' < n, Res_{m,n}(f, g) =
  f_m^(n - n') Res_{m,n'}(f, g) (expand along the first column); if g_n != 0
  and f has actual degree m' < m, Res_{m,n}(f, g) =
  (-1)^(n (m - m')) g_n^(m - m') Res_{m',n}(f, g);
* at actual degrees m >= n, Res_{m,n}(f, g) = Res_{m,n}(f mod g, g), and
  at m < n, Res_{m,n}(f, g) = Res_{m,n}(f, g mod f): both are row
  operations on the Sylvester matrix at the formal degrees m, n.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isqrt

PRIMES = (998244353, 754974721, 167772161)
# the largest primes p = 1 mod 4 below 2^62, for the kernel candidates: one
# of them reconstructs parts of up to 30 bits over 30 bits
KERNEL_PRIMES = (4611686018427387817, 4611686018427387761,
                 4611686018427387737, 4611686018427387733)

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


def _eliminate_modp(rows, p, reduced=False):
    """Gaussian elimination over GF(p) of rows with entries in [0, p), in
    place; returns the pivot columns and the number of row swaps.  The rank
    is the number of pivots, and pivot k has the value
    ``rows[k][pivots[k]]``.  With ``reduced`` the rows end in reduced row
    echelon form: every pivot is 1 and the only nonzero entry of its
    column."""
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
        inv = pow(row_r[c], -1, p)
        nz = [j for j in range(c + 1, ncols) if row_r[j]]
        targets = rows[r + 1:]
        if reduced:
            for j in nz:
                row_r[j] = (row_r[j] * inv) % p
            row_r[c] = inv = 1
            targets += rows[:r]
        nz = [(j, row_r[j]) for j in nz]
        for row_i in targets:
            if row_i[c]:
                f = (row_i[c] * inv) % p
                for j, y in nz:
                    row_i[j] = (row_i[j] - f * y) % p
                row_i[c] = 0
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, swaps


def rank_modp(rows, p):
    """Rank over GF(p) of integer rows with entries in [0, p); the rows are
    overwritten."""
    return len(_eliminate_modp(rows, p)[0])


def kernel_candidates(rows, ncols):
    """Candidate right-kernel bases of Gaussian-integer rows of ``ncols``
    (re, im) pairs, at most one per prime; unproven (see "Kernels" in the
    module docstring), so the caller checks each exactly.

    A candidate has one ``(den, entries)`` per free column fc of the
    reduced rows, in column order: the integer ``den > 0`` and the
    Gaussian integers ``entries``, (column, (re, im)) pairs on fc and the
    pivots left of it, whose quotient is the vector that is 1 on fc.
    """
    pivots = None
    modulus = 1
    parts = []      # residues mod ``modulus``, one pair list per free column
    for p in KERNEL_PRIMES:
        s = sqrt_minus_one(p)
        r1 = reduce_modp(rows, p, s)
        r2 = reduce_modp(rows, p, p - s)
        piv = _eliminate_modp(r1, p, True)[0]
        if _eliminate_modp(r2, p, True)[0] != piv:
            continue
        # the vector of fc is -R[k][fc] on pivot k; each entry a + b i has
        # the images x1 = a + b s and x2 = a - b s
        half = (p + 1) // 2
        half_s = pow(2 * s, -1, p)
        pivot_set = set(piv)
        free = [c for c in range(ncols) if c not in pivot_set]
        new = [[((-u1 - u2) * half % p, (u2 - u1) * half_s % p)
                for u1, u2 in ((r1[k][fc], r2[k][fc])
                               for k in range(bisect_left(piv, fc)))]
               for fc in free]
        if piv != pivots:
            pivots, modulus, parts = piv, p, new
        else:
            # Chinese remaindering: x = a + modulus * ((b - a) / modulus mod p)
            inv = pow(modulus, -1, p)
            parts = [[(ar + modulus * ((br - ar) * inv % p),
                       ai + modulus * ((bi - ai) * inv % p))
                      for (ar, ai), (br, bi) in zip(old, cur)]
                     for old, cur in zip(parts, new)]
            modulus *= p
        bound = isqrt(modulus // 2)
        vectors = []
        for fc, residues in zip(free, parts):
            vec = _reconstruct(residues, modulus, bound)
            if vec is None:
                break
            den, nums = vec
            vectors.append((den, list(zip(pivots, nums)) + [(fc, (den, 0))]))
        else:
            yield vectors


def _reconstruct(residues, modulus, bound):
    """``(den, nums)`` with ``nums[k] / den`` congruent to the Gaussian
    residue pair ``residues[k]`` modulo ``modulus``, or None.

    Each part is reconstructed (Wang, Guy and Davenport 1982) after
    multiplying by the denominator found so far, so that once the common
    denominator is known the rest of the vector needs no Euclidean chain.
    """
    den = 1
    flat = []
    for pair in residues:
        for u in pair:
            w = u * den % modulus
            if w > modulus - bound:
                flat.append(w - modulus)
            elif w <= bound:
                flat.append(w)
            else:
                # extended Euclid on (modulus, w), stopped below the bound
                r0, r1, t0, t1 = modulus, w, 0, 1
                while r1 > bound:
                    q = r0 // r1
                    r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
                if abs(t1) > bound:
                    return None
                if t1 < 0:
                    r1, t1 = -r1, -t1
                den *= t1
                flat = [x * t1 for x in flat]
                flat.append(r1)
    return den, list(zip(flat[::2], flat[1::2]))


def _trim(a):
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _rem_modp(a, b, p):
    """Remainder of a by b over GF(p); ``b`` is trimmed and nonzero, ``a``
    trimmed."""
    a = list(a)
    nb = len(b)
    inv = pow(b[-1], p - 2, p)
    while len(a) >= nb:
        q = (a[-1] * inv) % p
        shift = len(a) - nb
        for i in range(nb - 1):
            a[shift + i] = (a[shift + i] - q * b[i]) % p
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _resultant_modp(f, g, m, n, p):
    """Res_{m,n}(f, g) over GF(p): the Sylvester determinant of ``f`` at
    formal degree m and ``g`` at formal degree n (coefficient lists, constant
    first, entries in [0, p), at most m + 1 and n + 1 entries), by the
    Euclidean algorithm in O(mn) with the rules in the module docstring."""
    f, g = _trim(f), _trim(g)
    res = 1
    while True:
        if m == 0:
            return (res * pow(f[0] if f else 0, n, p)) % p
        if n == 0:
            return (res * pow(g[0] if g else 0, m, p)) % p
        if not f or not g:
            return 0
        df, dg = len(f) - 1, len(g) - 1
        if df < m and dg < n:
            return 0
        if dg < n:
            res = (res * pow(f[-1], n - dg, p)) % p
            n = dg
        elif df < m:
            res = (res * pow(g[-1], m - df, p)) % p
            if (n * (m - df)) % 2:
                res = p - res if res else 0
            m = df
        elif m >= n:
            f = _rem_modp(f, g, p)
        else:
            g = _rem_modp(g, f, p)


def _interpolate_modp(xs, vals, p):
    """Newton interpolation in GF(p); coefficient list, constant first.
    Each node distance is inverted once."""
    k = len(xs)
    coeffs = list(vals)
    inverses = {}
    for j in range(1, k):
        dists = [(xs[i] - xs[i - j]) % p for i in range(j, k)]
        for dist in dists:
            if dist not in inverses:
                inverses[dist] = pow(dist, p - 2, p)
        # divided differences of order j, all from those of order j - 1
        coeffs[j:] = [((coeffs[i] - coeffs[i - 1]) * inverses[dist]) % p
                      for i, dist in zip(range(j, k), dists)]
    poly = []
    for i in range(k - 1, -1, -1):
        # poly = poly * (x - xs[i]) + coeffs[i]
        xi = xs[i]
        poly = [(a - xi * b) % p for a, b in zip([0] + poly, poly + [0])]
        poly[0] = (poly[0] + coeffs[i]) % p
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _gcd_modp(a, b, p):
    """A gcd over GF(p) of two coefficient lists with entries in [0, p)
    (not made monic; [] is the zero polynomial)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _rem_modp(a, b, p)
    return a


def coprime_forms_prime(reductions, primes=PRIMES):
    """The first prime of ``primes`` at which Gaussian-integer binary forms
    are proven to have a constant gcd over Q(i), or None when every prime is
    inconclusive (see the module docstring).

    ``reductions(p, ip)`` returns an iterable of the forms reduced modulo p
    with i sent to ``ip``, each as its d + 1 coefficients of z0^d,
    z0^(d-1) z1, ..., z1^d in [0, p).  It is read only until the proof is
    complete, so the forms may be produced lazily.
    """
    for p in primes:
        common = []        # gcd so far of the dehomogenizations f(1, t)
        finite = False     # some reduced form is nonzero at (0 : 1)
        for f in reductions(p, sqrt_minus_one(p)):
            finite = finite or f[-1] != 0
            if len(common) != 1:
                common = _gcd_modp(common, f, p)
            if finite and len(common) == 1:
                return p
    return None


def bideg(h):
    """(x-degree, y-degree) of a bivariate stored as rows over x-powers."""
    dx = len(h) - 1
    dy = max((len(row) - 1 for row in h if row), default=0)
    return dx, dy


def resultant_gcd_is_constant(h_list, primes=PRIMES):
    """The prime at which the monic gcd G of the true resultants
    Res_y(h1, h) is proven constant, or None; ``h_list`` holds
    Gaussian-integer bivariates, rows over x-powers of y-coefficient lists
    of (re, im) int pairs.

    The reductions satisfy (R_H mod p) = lc_y(h1bar)^e * Res(h1bar, hbar)
    once h1's y-degree survives reduction, and Gbar divides every R_H mod p,
    so a constant gcd of { lc_y(h1bar) } + { Res(h1bar, hbar) } in GF(p)
    forces G constant.  Anything else is inconclusive, never a false pass.
    Each Res(h1bar, hbar) is interpolated from its values at x = 0, 1, ...,
    computed by :func:`_resultant_modp` at the formal y-degrees.

    The caller's two-point minors are symmetric, H(x, y) = H(y, x), so a
    minor of y-degree 0 is constant, and such a minor proves injectivity
    before this is called: h1 has y-degree at least 1.
    """
    ints = [h for h in h_list if any(c != (0, 0) for row in h for c in row)]
    if len(ints) < 2:
        return None
    ints.sort(key=lambda h: bideg(h)[1])
    h1_int = ints[0]
    _, d1y_int = bideg(h1_int)
    for p in primes:
        ip = sqrt_minus_one(p)
        h1 = reduce_modp(h1_int, p, ip)
        d1x, d1y = bideg(h1)
        if d1y != d1y_int:
            continue                       # h1 degenerated; try another prime
        lcf = _trim(row[d1y] if len(row) > d1y else 0 for row in h1)
        if not lcf:
            continue
        acc = lcf if len(lcf) > 1 else None    # None: unit leading coefficient
        h1_at = []                             # h1(x, y) at x = 0, 1, ...
        for h_int in ints[1:]:
            h = reduce_modp(h_int, p, ip)
            if not any(c for row in h for c in row):
                continue                   # reduced to zero: inconclusive term
            d2x, d2y = bideg(h)
            bound = d1x * d2y + d2x * d1y + 1
            while len(h1_at) < bound:
                h1_at.append(_eval_x_modp(h1, len(h1_at), d1y, p))
            vals = [_resultant_modp(h1_at[x], _eval_x_modp(h, x, d2y, p),
                                    d1y, d2y, p)
                    for x in range(bound)]
            poly = _interpolate_modp(range(bound), vals, p)
            if not poly:
                continue                   # identically zero: inconclusive
            acc = poly if acc is None else _gcd_modp(acc, poly, p)
            if len(acc) == 1:
                return p
    return None
