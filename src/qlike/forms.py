"""Homogeneous binary forms over Q(i).

A form of degree d in the sphere coordinates (z0, z1) is stored as the
coefficient tuple of (z0^d, z0^(d-1) z1, ..., z1^d).  The zero form keeps an
explicit degree marker so that matrix columns stay honestly graded.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .scalars import (ONE, ZERO, Scalar, clear_denominators, format_scalar,
                      parse_scalar, primitive_part, scalar)


class BinaryForm:
    """Immutable homogeneous polynomial in z0, z1."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs):
        coeffs = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("degree %d needs %d coefficients, got %d"
                             % (degree, degree + 1, len(coeffs)))
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    def __reduce__(self):
        return BinaryForm, (self.degree, self.coeffs)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree=0):
        return BinaryForm(degree, (ZERO,) * (degree + 1))

    @staticmethod
    def constant(c):
        return BinaryForm(0, (scalar(c),))

    @staticmethod
    def monomial(degree, z1_power, coeff=ONE):
        coeffs = [ZERO] * (degree + 1)
        coeffs[z1_power] = scalar(coeff)
        return BinaryForm(degree, coeffs)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        a, b = self, other
        if a.degree != b.degree:
            if a.is_zero():
                return b
            if b.is_zero():
                return a
            raise ValueError("cannot add forms of degrees %d and %d"
                             % (a.degree, b.degree))
        return BinaryForm(a.degree, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return BinaryForm(self.degree, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            s = scalar(other)
            return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))
        d = self.degree + other.degree
        out = [ZERO] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return BinaryForm(d, out)

    __rmul__ = __mul__

    def scale(self, s: Scalar):
        return BinaryForm(self.degree, tuple(c * s for c in self.coeffs))

    # -- calculus / evaluation ----------------------------------------------

    def evaluate(self, z0, z1) -> Scalar:
        z0, z1 = scalar(z0), scalar(z1)
        d = self.degree
        pow0 = [ONE]
        pow1 = [ONE]
        for _ in range(d):
            pow0.append(pow0[-1] * z0)
            pow1.append(pow1[-1] * z1)
        total = ZERO
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                total = total + c * pow0[d - i] * pow1[i]
        return total

    def d_z0(self):
        """Partial derivative with respect to z0 (degree drops by one)."""
        d = self.degree
        if d == 0:
            return BinaryForm.zero(0)
        return BinaryForm(d - 1, tuple(self.coeffs[i] * (d - i) for i in range(d)))

    def d_z1(self):
        d = self.degree
        if d == 0:
            return BinaryForm.zero(0)
        return BinaryForm(d - 1, tuple(self.coeffs[i + 1] * (i + 1) for i in range(d)))

    def substitute(self, t00, t01, t10, t11):
        """p(z0, z1) -> p(t00 z0 + t01 z1, t10 z0 + t11 z1), exactly."""
        u = BinaryForm(1, (scalar(t00), scalar(t01)))
        v = BinaryForm(1, (scalar(t10), scalar(t11)))
        d = self.degree
        u_pows = [BinaryForm.constant(1)]
        v_pows = [BinaryForm.constant(1)]
        for _ in range(d):
            u_pows.append(u_pows[-1] * u)
            v_pows.append(v_pows[-1] * v)
        result = BinaryForm.zero(d)
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                result = result + (u_pows[d - i] * v_pows[i]).scale(c)
        return result

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        if self.is_zero():
            return hash(("BinaryForm", 0))
        return hash(("BinaryForm", self.degree, self.coeffs))

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return "BinaryForm(%r)" % format_form(self)


Z0 = BinaryForm(1, (ONE, ZERO))
Z1 = BinaryForm(1, (ZERO, ONE))


def antipodal_transform(p: BinaryForm) -> BinaryForm:
    """The antipodal-conjugation transform p(z0, z1) -> pbar(-z1, z0).

    Applying it twice multiplies a degree-d form by (-1)^d.
    """
    d = p.degree
    out = [ZERO] * (d + 1)
    for i, c in enumerate(p.coeffs):
        # z0^(d-i) z1^i  ->  (-z1)^(d-i) z0^i: lands at z1-power d-i
        cc = c.conjugate()
        out[d - i] = -cc if (d - i) % 2 else cc
    return BinaryForm(d, out)


def _z1_valuation(p: BinaryForm):
    # coeffs[v] multiplies z0^(d-v) z1^v, so z1^a | p iff coeffs[0..a-1] vanish
    v = 0
    while v <= p.degree and p.coeffs[v].is_zero():
        v += 1
    return v


def _z0_valuation(p: BinaryForm):
    v = 0
    while v <= p.degree and p.coeffs[p.degree - v].is_zero():
        v += 1
    return v


def _univariate_gcd(a, b):
    """Monic gcd of coefficient lists (t^0 first) over Q(i).

    Runs a primitive pseudo-remainder sequence over the Gaussian integers
    (denominators cleared up front, integer content stripped each step), so
    coefficient growth stays polynomial instead of the exponential blowup
    of naive rational Euclid.
    """
    ia = ip_gcd(_int_poly(a), _int_poly(b))
    if not ia:
        return [ZERO]
    lead = Scalar(ia[-1][0], ia[-1][1])
    inv = lead.inverse()
    return [Scalar(re, im) * inv for re, im in ia]


# -- primitive integer-pair polynomial toolkit -------------------------------
# coefficient lists of (re, im) Gaussian-integer pairs, constant term first;
# gcd chains stay integral and primitive, which keeps growth polynomial.

def ip_trim(a):
    while a and a[-1] == (0, 0):
        a.pop()
    return a


def ip_mul(a, b):
    if not a or not b:
        return []
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        if not ar and not ai:
            continue
        for j, (br, bi) in enumerate(b):
            if not br and not bi:
                continue
            cr, ci = out[i + j]
            out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return ip_trim(out)


def ip_add(a, b):
    m = max(len(a), len(b))
    out = []
    for i in range(m):
        ar, ai = a[i] if i < len(a) else (0, 0)
        br, bi = b[i] if i < len(b) else (0, 0)
        out.append((ar + br, ai + bi))
    return ip_trim(out)


def ip_sub(a, b):
    return ip_add(a, [(-br, -bi) for br, bi in b])


def ip_deriv(a):
    return ip_trim([(a[i][0] * i, a[i][1] * i) for i in range(1, len(a))])


def ip_scale(a, c):
    cr, ci = c
    return ip_trim([(ar * cr - ai * ci, ar * ci + ai * cr) for ar, ai in a])


def ip_gcd(ia, ib):
    """Primitive gcd via pseudo-remainders (Gaussian content stripped)."""
    ia = primitive_part(ip_trim(list(ia)))
    ib = primitive_part(ip_trim(list(ib)))
    while ib:
        ia = _pseudo_rem(ia, ib)
        ia = primitive_part(ia)
        ia, ib = ib, ia
    return ia


def _int_poly(coeffs):
    """Clear denominators to a Gaussian-integer pair list, trimmed."""
    return ip_trim(clear_denominators(coeffs)[1])


def _int_polys(forms):
    """Clear the denominators of several forms with one common factor; one
    untrimmed Gaussian-integer pair list per form, a pair per coefficient.
    Scaling a column of forms by a constant keeps its pointwise span and its
    syzygies."""
    _, flat = clear_denominators([c for f in forms for c in f.coeffs])
    it = iter(flat)
    return [[next(it) for _ in f.coeffs] for f in forms]


def _pseudo_rem(a, b):
    """Pseudo-remainder of integer-pair polynomials (leading-coefficient
    scaled division, exact over Z[i])."""
    a = list(a)
    lb = b[-1]
    nb = len(b)
    while len(a) >= nb:
        la = a[-1]
        shift = len(a) - nb
        for i in range(len(a) - 1):
            ar, ai = a[i]
            a[i] = (ar * lb[0] - ai * lb[1], ar * lb[1] + ai * lb[0])
        for i in range(nb - 1):
            br, bi = b[i]
            sr = la[0] * br - la[1] * bi
            si = la[0] * bi + la[1] * br
            ar, ai = a[shift + i]
            a[shift + i] = (ar - sr, ai - si)
        a.pop()
        while a and a[-1] == (0, 0):
            a.pop()
    return a


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two binary forms (gcd with the zero form is the other one)."""
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    a0, a1 = _z0_valuation(f), _z1_valuation(f)
    b0, b1 = _z0_valuation(g), _z1_valuation(g)
    core_f = _strip(f, a1, a0)
    core_g = _strip(g, b1, b0)
    # cores have nonzero ends, so p(1, t) keeps full degree and nonzero constant
    u = _univariate_gcd(list(core_f.coeffs), list(core_g.coeffs))
    core = BinaryForm(len(u) - 1, u)
    out = core
    for _ in range(min(a1, b1)):
        out = out * Z1
    for _ in range(min(a0, b0)):
        out = out * Z0
    return _monic(out)


def _strip(p: BinaryForm, v1, v0):
    d = p.degree - v1 - v0
    return BinaryForm(d, p.coeffs[v1:v1 + d + 1])


def _monic(p: BinaryForm) -> BinaryForm:
    if p.is_zero():
        return p
    lead = next(c for c in p.coeffs if not c.is_zero())
    return p.scale(lead.inverse())


# -- parsing / formatting ----------------------------------------------------

_FORM_TOKEN = _re.compile(
    r"""\s*(?:
        (?P<var>z[01])(?:\^(?P<pow>\d+))?
      | (?P<star>\*)
      | (?P<minus>-)
      | (?P<scal>\d+(?:/\d+)?)
      | (?P<ichr>i)
    )""",
    _re.VERBOSE,
)


def parse_form(text: str, degree=None) -> BinaryForm:
    """Parse a sum of monomial terms like "(1/2)*z0^2 - z0*z1 + (0+1*i)*z1^2".

    If ``degree`` is given the result is checked against it; the zero form
    ("0") takes that degree.
    """
    s = text.strip()
    if s in ("0", "(0)", ""):
        return BinaryForm.zero(degree or 0)
    parsed = []
    top = None
    for sign, term in _split_terms(s):
        coeff, p0, p1 = _parse_term(term)
        if sign < 0:
            coeff = -coeff
        if coeff.is_zero():
            continue
        parsed.append((coeff, p0, p1))
        deg = p0 + p1
        if top is None:
            top = deg
        elif deg != top:
            raise ValueError("inhomogeneous form literal %r" % text)
    if top is None:
        return BinaryForm.zero(degree or 0)
    coeffs = [ZERO] * (top + 1)
    for coeff, p0, p1 in parsed:
        coeffs[p1] = coeffs[p1] + coeff
    result = BinaryForm(top, coeffs)
    if degree is not None and not result.is_zero() and result.degree != degree:
        raise ValueError("expected degree %d, parsed degree %d from %r"
                         % (degree, result.degree, text))
    if degree is not None and result.is_zero():
        return BinaryForm.zero(degree)
    return result


def _split_terms(s):
    """Split on top-level +/- into (sign, term-text) pairs."""
    terms = []
    depth = 0
    cur = []
    pending = 1
    for ch in s:
        if ch == "(":
            depth += 1
            cur.append(ch)
        elif ch == ")":
            depth -= 1
            cur.append(ch)
        elif ch in "+-" and depth == 0:
            chunk = "".join(cur).strip()
            if chunk:
                terms.append((pending, chunk))
                cur = []
                pending = 1
            if ch == "-":
                pending = -pending
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError("unbalanced parentheses in %r" % s)
    chunk = "".join(cur).strip()
    if chunk:
        terms.append((pending, chunk))
    return terms


def _parse_term(term):
    """One product term -> (Scalar coefficient, z0 power, z1 power)."""
    coeff = ONE
    p0 = p1 = 0
    pos = 0
    n = len(term)
    while pos < n:
        if term[pos].isspace():
            pos += 1
            continue
        if term[pos] == "(":
            depth = 1
            j = pos + 1
            while j < n and depth:
                if term[j] == "(":
                    depth += 1
                elif term[j] == ")":
                    depth -= 1
                j += 1
            if depth:
                raise ValueError("unbalanced parentheses in term %r" % term)
            coeff = coeff * parse_scalar(term[pos + 1:j - 1])
            pos = j
            continue
        m = _FORM_TOKEN.match(term, pos)
        if not m or m.end() == pos:
            raise ValueError("bad form term %r at offset %d" % (term, pos))
        if m.group("var"):
            p = int(m.group("pow") or 1)
            if m.group("var") == "z0":
                p0 += p
            else:
                p1 += p
        elif m.group("scal"):
            coeff = coeff * parse_scalar(m.group("scal"))
        elif m.group("ichr"):
            coeff = coeff * Scalar(0, 1)
        elif m.group("minus"):
            coeff = -coeff
        pos = m.end()
    return coeff, p0, p1


def format_form(p: BinaryForm) -> str:
    """Canonical text form, parseable by :func:`parse_form`."""
    if p.is_zero():
        return "0"
    d = p.degree
    pieces = []
    for i, c in enumerate(p.coeffs):
        if c.is_zero():
            continue
        mono = _monomial_text(d - i, i)
        cs = format_scalar(c)
        needs_wrap = ("+" in cs[1:]) or ("i" in cs) or ("/" in cs)
        if mono == "":
            body = "(%s)" % cs if needs_wrap else cs
        elif c.is_one():
            body = mono
        elif c == Scalar(-1):
            body = "-" + mono
        elif needs_wrap:
            body = "(%s)*%s" % (cs, mono)
        else:
            body = "%s*%s" % (cs, mono)
        if not pieces:
            pieces.append(body)
        elif body.startswith("-"):
            pieces.append("- " + body[1:])
        else:
            pieces.append("+ " + body)
    return " ".join(pieces)


def _monomial_text(p0, p1):
    parts = []
    if p0 == 1:
        parts.append("z0")
    elif p0 > 1:
        parts.append("z0^%d" % p0)
    if p1 == 1:
        parts.append("z1")
    elif p1 > 1:
        parts.append("z1^%d" % p1)
    return "*".join(parts)
