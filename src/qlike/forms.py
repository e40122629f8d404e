"""Homogeneous binary forms over Q(i).

A form of degree d in the sphere coordinates (z0, z1) is stored as an int
denominator ``den > 0`` and d + 1 Gaussian-integer numerators ``num``,
``(re, im)`` int pairs in z1-power order: the form is the sum of the
``num[t] z0^(d-t) z1^t / den``.  The storage is in normal form: ``den`` has
no factor in common with all the numerators' parts, and the zero form has
``den == 1``.  So it is unique, and equality and hashing compare ints.  The
zero form keeps an explicit degree, so that matrix columns stay honestly
graded; the zero forms of every degree are equal.

Arithmetic runs on the numerators, through one set of integer polynomial
helpers (``ip_*``) that also carry the gcd chain and the Pluecker
coordinates of :mod:`qlike.embedding`.  ``coeffs`` is the view as Scalars,
for text I/O and for the matrices handed to :mod:`qlike.linalg`.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _igcd, lcm as _lcm

from .scalars import (ONE, ZERO, Scalar, clear_denominators, format_scalar,
                      gaussian, parse_scalar, primitive_part, scalar)


class BinaryForm:
    """An immutable binary form, stored as the module docstring says.

    ``BinaryForm(d, coeffs)`` takes the d + 1 coefficients in z1-power
    order, as Scalars, ints or Fractions; ``coeffs`` gives them back as
    Scalars.

    >>> f = BinaryForm(2, [Fraction(1, 2), 0, Scalar(0, 1)])
    >>> f.den, f.num
    (2, ((1, 0), (0, 0), (0, 2)))
    >>> f.coeffs
    (Scalar('1/2'), Scalar('0'), Scalar('1*i'))
    >>> f.scale(Scalar(2)).den, (f * Z1).num
    (1, ((0, 0), (1, 0), (0, 0), (0, 2)))
    >>> f.evaluate(1, 1), BinaryForm.zero(3) == BinaryForm.zero(0)
    (Scalar('1/2+1*i'), True)
    """

    __slots__ = ("degree", "den", "num")

    def __init__(self, degree, coeffs):
        coeffs = [c if isinstance(c, Scalar) else Scalar(c) for c in coeffs]
        if len(coeffs) != degree + 1:
            raise ValueError("degree %d needs %d coefficients, got %d"
                             % (degree, degree + 1, len(coeffs)))
        # each coefficient is in normal form, so over the lcm of their
        # denominators the numerators have no factor in common with it
        den, num = clear_denominators(coeffs)
        _set_degree(self, degree)
        _set_den(self, den)
        _set_num(self, tuple(num))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryForm is immutable")

    def __reduce__(self):
        return BinaryForm, (self.degree, self.coeffs)

    @property
    def coeffs(self):
        """The coefficients as Scalars, in z1-power order."""
        den = self.den
        return tuple(gaussian(re, im, den) for re, im in self.num)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(degree=0):
        return _form(degree, ())

    @staticmethod
    def constant(c):
        return BinaryForm(0, (scalar(c),))

    @staticmethod
    def monomial(degree, z1_power, coeff=ONE):
        c = scalar(coeff)
        num = [(0, 0)] * (degree + 1)
        num[z1_power] = (c.a, c.b)
        return _form(degree, num, c.d)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not any(map(any, self.num))

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
        if a.den == b.den:
            return _form(a.degree, ip_add(a.num, b.num), a.den)
        l = _lcm(a.den, b.den)
        return _form(a.degree, ip_add(ip_scale(a.num, (l // a.den, 0)),
                                      ip_scale(b.num, (l // b.den, 0))), l)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _form(self.degree, [(-re, -im) for re, im in self.num],
                     self.den)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self.scale(other)
        return _form(self.degree + other.degree, ip_mul(self.num, other.num),
                     self.den * other.den)

    __rmul__ = __mul__

    def scale(self, s: Scalar):
        s = scalar(s)
        return _form(self.degree, ip_scale(self.num, (s.a, s.b)),
                     self.den * s.d)

    # -- calculus / evaluation ----------------------------------------------

    def evaluate(self, z0, z1) -> Scalar:
        """The value at (z0, z1), built as one Scalar."""
        # (z0, z1) = (u, v) / e for Gaussian integers u, v; the value is
        # e^-d times the value at (u, v)
        if type(z0) is int and type(z1) is int:
            u, v, e = (z0, 0), (z1, 0), 1
        else:
            z0, z1 = scalar(z0), scalar(z1)
            e = _lcm(z0.d, z1.d)
            u = (z0.a * (e // z0.d), z0.b * (e // z0.d))
            v = (z1.a * (e // z1.d), z1.b * (e // z1.d))
        re, im = ip_value(self.num, u, v)
        return gaussian(re, im, self.den * e ** self.degree)

    def d_z0(self):
        """Partial derivative with respect to z0 (degree drops by one; a
        constant has the zero form of degree 0)."""
        # d_z1 with the roles of z0 and z1, so the order of num, swapped
        return _form(max(self.degree - 1, 0), ip_deriv(self.num[::-1])[::-1],
                     self.den)

    def d_z1(self):
        return _form(max(self.degree - 1, 0), ip_deriv(self.num), self.den)

    def substitute(self, t00, t01, t10, t11):
        """p(z0, z1) -> p(t00 z0 + t01 z1, t10 z0 + t11 z1), exactly."""
        t = [scalar(x) for x in (t00, t01, t10, t11)]
        # u, v are e times the linear forms: p(u, v) is e^d times the result
        e = _lcm(*[x.d for x in t])
        t = [(x.a * (e // x.d), x.b * (e // x.d)) for x in t]
        u, v, d = t[:2], t[2:], self.degree
        u_pows = [[(1, 0)]]
        v_pows = [[(1, 0)]]
        for _ in range(d):
            u_pows.append(ip_mul(u_pows[-1], u))
            v_pows.append(ip_mul(v_pows[-1], v))
        acc = []
        for i, c in enumerate(self.num):
            if c != (0, 0):
                acc = ip_add(acc, ip_scale(ip_mul(u_pows[d - i], v_pows[i]),
                                           c))
        return _form(d, acc, self.den * e ** d)

    # -- comparison ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if self.degree != other.degree:
            return self.is_zero() and other.is_zero()
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        if self.is_zero():
            return hash(("BinaryForm", 0))
        return hash(("BinaryForm", self.degree, self.den, self.num))

    def __str__(self):
        return format_form(self)

    def __repr__(self):
        return "BinaryForm(%r)" % format_form(self)


_new = object.__new__
_set_degree = BinaryForm.degree.__set__
_set_den = BinaryForm.den.__set__
_set_num = BinaryForm.num.__set__


def _form(degree, num, den=1):
    """The form of this degree with the numerators ``num`` over the int
    ``den > 0``, brought to normal form.  Entries missing at the top of
    ``num`` are zero, so a trimmed ``ip_*`` list will do."""
    if den != 1:
        g = den
        for re, im in num:
            g = _igcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            # a zero form ends with g == den, hence with denominator 1
            den //= g
            num = [(re // g, im // g) for re, im in num]
    num = tuple(num)
    if len(num) <= degree:
        num += ((0, 0),) * (degree + 1 - len(num))
    f = _new(BinaryForm)
    _set_degree(f, degree)
    _set_den(f, den)
    _set_num(f, num)
    return f


Z0 = BinaryForm(1, (1, 0))
Z1 = BinaryForm(1, (0, 1))


def antipodal_transform(p: BinaryForm) -> BinaryForm:
    """The antipodal-conjugation transform p(z0, z1) -> pbar(-z1, z0).

    Applying it twice multiplies a degree-d form by (-1)^d.
    """
    d = p.degree
    out = [None] * (d + 1)
    for i, (re, im) in enumerate(p.num):
        # z0^(d-i) z1^i  ->  (-z1)^(d-i) z0^i: lands at z1-power d-i
        out[d - i] = (-re, im) if (d - i) % 2 else (re, -im)
    return _form(d, out, p.den)


def _column_numerators(forms):
    """The forms times the lcm of their denominators, as untrimmed
    Gaussian-integer pair lists, a pair per coefficient.  Scaling a column
    of forms by a constant keeps its pointwise span and its syzygies."""
    l = _lcm(*[f.den for f in forms])
    return [f.num if f.den == l else ip_scale(f.num, (l // f.den, 0))
            for f in forms]


# -- integer polynomial helpers ----------------------------------------------
# Lists of (re, im) Gaussian-integer pairs, constant term first: a form's
# numerators are the list of p(1, t).  ip_mul, ip_add and ip_sub trim their
# results (a zero polynomial is the empty list); ip_scale and ip_deriv keep
# the length.  Gcd chains stay integral and primitive, which keeps
# coefficient growth polynomial.

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
    return ip_trim([(ar + br, ai + bi) for (ar, ai), (br, bi)
                    in zip_longest(a, b, fillvalue=(0, 0))])


def ip_sub(a, b):
    return ip_add(a, [(-br, -bi) for br, bi in b])


def ip_deriv(a):
    """d/dt, one entry shorter than ``a`` (trimmed when ``a`` is)."""
    return [(a[i][0] * i, a[i][1] * i) for i in range(1, len(a))]


def ip_scale(a, c):
    """``a`` times the Gaussian integer ``c``, entry by entry."""
    cr, ci = c
    if not ci:
        return [(ar * cr, ai * cr) for ar, ai in a]
    return [(ar * cr - ai * ci, ar * ci + ai * cr) for ar, ai in a]


def ip_value(a, u, v):
    """sum_i a_i u^(d-i) v^i for d = len(a) - 1: the binary form with
    numerators ``a`` at the Gaussian-integer point (u, v), by Horner's rule
    in v."""
    ur, ui = u
    vr, vi = v
    sr, si = a[-1]
    pr, pi = 1, 0                       # u^(d-i)
    for i in range(len(a) - 2, -1, -1):
        pr, pi = pr * ur - pi * ui, pr * ui + pi * ur
        sr, si = sr * vr - si * vi, sr * vi + si * vr
        cr, ci = a[i]
        if cr or ci:
            sr += cr * pr - ci * pi
            si += cr * pi + ci * pr
    return sr, si


def ip_gcd(ia, ib):
    """Primitive gcd via pseudo-remainders (Gaussian content stripped at
    each step: the primitive remainder sequence of Brown 1971)."""
    ia = primitive_part(ip_trim(list(ia)))
    ib = primitive_part(ip_trim(list(ib)))
    while ib:
        ia = _pseudo_rem(ia, ib)
        ia = primitive_part(ia)
        ia, ib = ib, ia
    return ia


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


def _valuation(num):
    """How many leading entries of ``num`` vanish."""
    v = 0
    while v < len(num) and num[v] == (0, 0):
        v += 1
    return v


def form_gcd(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Monic gcd of two binary forms (gcd with the zero form is the other one).

    The powers of z1 and z0 are split off first (they are the leading and
    trailing zero numerators); the cores left have nonzero ends, so p(1, t)
    keeps their full degree and a nonzero constant term, and their gcd is
    the primitive pseudo-remainder chain of :func:`ip_gcd`.
    """
    if f.is_zero():
        return _monic(g)
    if g.is_zero():
        return _monic(f)
    a1, b1 = _valuation(f.num), _valuation(g.num)
    a0, b0 = _valuation(f.num[::-1]), _valuation(g.num[::-1])
    core = ip_gcd(f.num[a1:f.degree + 1 - a0], g.num[b1:g.degree + 1 - b0])
    v1, v0 = min(a1, b1), min(a0, b0)
    return _monic(_form(v1 + len(core) - 1 + v0, [(0, 0)] * v1 + core))


def _monic(p: BinaryForm) -> BinaryForm:
    """``p`` over its first nonzero coefficient (the lowest z1 power)."""
    if p.is_zero():
        return p
    re, im = p.num[_valuation(p.num)]
    # over (re + im*i) / den: times den / (re + im*i), so den cancels
    return _form(p.degree, ip_scale(p.num, (re, -im)), re * re + im * im)


# -- parsing / formatting ----------------------------------------------------

_FORM_TOKEN = _re.compile(
    r"""\s*(?:
        (?P<var>z[01])(?:\^(?P<pow>\d+))?
      | (?P<star>\*)
      | (?P<scal>\d+(?:/\d+)?)
      | (?P<ichr>i)
    )""",
    _re.VERBOSE,
)


# the largest degree a form literal may have; it is checked before the
# coefficient list is allocated
MAX_FORM_DEGREE = 10000


def parse_form(text: str, degree=None) -> BinaryForm:
    """Parse a sum of monomial terms like "(1/2)*z0^2 - z0*z1 + (0+1*i)*z1^2".

    If ``degree`` is given the result is checked against it; the zero form
    ("0") takes that degree.  A term of degree above ``MAX_FORM_DEGREE``
    is rejected.
    """
    s = text.strip()
    if s in ("0", "(0)", ""):
        return BinaryForm.zero(degree or 0)
    parsed = []
    top = None
    for sign, term in _split_terms(s):
        coeff, p0, p1 = _parse_term(term)
        deg = p0 + p1
        if deg > MAX_FORM_DEGREE:
            raise ValueError("degree %d of a term of %r exceeds %d"
                             % (deg, text, MAX_FORM_DEGREE))
        if sign < 0:
            coeff = -coeff
        if coeff.is_zero():
            continue
        parsed.append((coeff, p0, p1))
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
    """Split on top-level +/- into (sign, term-text) pairs.  Signs may lead
    and repeat ("- -z0", "z0 + -z1"), but a term must follow them."""
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
    if not chunk:
        # s is not blank, so it ends in a sign
        raise ValueError("sign without a term at the end of %r" % s)
    terms.append((pending, chunk))
    return terms


def _parse_term(term):
    """One product term -> (Scalar coefficient, z0 power, z1 power).
    Factors multiply side by side ("2 z0") or joined by one "*", which
    needs a factor on each side."""
    coeff = ONE
    p0 = p1 = 0
    pos = 0
    n = len(term)
    after_factor = False
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
            after_factor = True
            continue
        m = _FORM_TOKEN.match(term, pos)
        if not m or m.end() == pos:
            raise ValueError("bad form term %r at offset %d" % (term, pos))
        star = m.group("star")
        if star and not after_factor:
            raise ValueError("'*' must join two factors in %r" % term)
        after_factor = not star
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
        pos = m.end()
    if not after_factor:
        raise ValueError("'*' must join two factors in %r" % term)
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
    return "*".join(v if p == 1 else "%s^%d" % (v, p)
                    for v, p in (("z0", p0), ("z1", p1)) if p)
