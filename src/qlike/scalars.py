"""Exact Gaussian-rational scalars.

Every number in this package is an element of Q(i), stored as a
Gaussian-integer numerator over one integer denominator: ``(a + b*i) / d``
with Python ints ``a``, ``b``, ``d``, ``d > 0`` and ``gcd(a, b, d) == 1``.
That normal form is unique, so equality is equality of the three ints.
Arithmetic runs on ints and takes at most one gcd per result, none when
both operands have ``d == 1``.  There is no floating point anywhere.
"""

from __future__ import annotations

import re as _re
import sys
from fractions import Fraction
from math import gcd as _igcd, lcm as _lcm


class Scalar:
    """An element of Q(i), immutable: ``(a + b*i) / d`` in normal form.

    ``Scalar(re, im)`` takes the real and imaginary parts as anything
    ``Fraction`` accepts; ``.re`` and ``.im`` give them back as Fractions.
    ``a``, ``b`` and ``d`` are the stored ints.

    >>> Scalar(1, 2) * Scalar(0, 1)
    Scalar('-2+1*i')
    >>> (Scalar(Fraction(1, 3)) + Scalar(Fraction(2, 3))).is_one()
    True
    >>> x = Scalar(Fraction(1, 2), Fraction(-2, 3))
    >>> x.a, x.b, x.d
    (3, -4, 6)
    >>> x.re, x.im
    (Fraction(1, 2), Fraction(-2, 3))
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # each part is in lowest terms, so over the lcm of their
            # denominators gcd(a, b, d) is already 1
            d = _lcm(re.denominator, im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        return gaussian, (self.a, self.b, self.d)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.a and not self.b

    def is_one(self):
        return self.a == 1 and self.d == 1 and not self.b

    def __bool__(self):
        return bool(self.a or self.b)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return _add(self.a, self.b, self.d, other.a, other.b, other.d)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        return _add(self.a, self.b, self.d, -other.a, -other.b, other.d)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b1 or b2:
            a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
        else:
            a, b = a1 * a2, 0
        d = self.d * other.d
        if d == 1:
            return _make(a, b, 1)
        return _reduced(a, b, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if b2:
            # multiply through by the conjugate of the divisor's numerator
            d2 = other.d
            a = (a1 * a2 + b1 * b2) * d2
            b = (b1 * a2 - a1 * b2) * d2
            d = self.d * (a2 * a2 + b2 * b2)
        elif a2:
            if a2 < 0:
                a1, b1, a2 = -a1, -b1, -a2
            a, b, d = a1 * other.d, b1 * other.d, self.d * a2
        else:
            raise ZeroDivisionError("division by zero Scalar")
        return _reduced(a, b, d)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self):
        if not self.b:
            return self
        return _make(self.a, -self.b, self.d)

    def inverse(self):
        return ONE / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return self.d == 1 and not self.b and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real Scalar hashes like the int or Fraction it equals
        if self.b:
            return hash((self.a, self.b, self.d))
        if self.d == 1:
            return hash(self.a)
        return _hash_rational(self.a, self.d)

    # -- text form -------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%r)" % format_scalar(self)


_new = object.__new__
_set_a = Scalar.a.__set__
_set_b = Scalar.b.__set__
_set_d = Scalar.d.__set__


def _make(a, b, d):
    """The Scalar (a + b*i) / d; the caller guarantees the normal form."""
    s = _new(Scalar)
    _set_a(s, a)
    _set_b(s, b)
    _set_d(s, d)
    return s


def _reduced(a, b, d):
    """The Scalar (a + b*i) / d for ints with d > 0."""
    g = _igcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def _add(a1, b1, d1, a2, b2, d2):
    """(a1 + b1*i) / d1 + (a2 + b2*i) / d2 for two normal forms.

    As in ``Fraction``: with g = gcd(d1, d2), no prime of d1/g or d2/g can
    divide the new numerator together with the denominator, so only a
    factor of g can cancel.  A zero sum has d1 == d2 (the normal form is
    unique), so it comes out as 0/1.
    """
    if d1 == d2 == 1:
        return _make(a1 + a2, b1 + b2, 1)
    g = _igcd(d1, d2)
    s, t = d1 // g, d2 // g
    a, b = a1 * t + a2 * s, b1 * t + b2 * s
    h = _igcd(a, b, g)
    if h == 1:
        return _make(a, b, s * d2)
    return _make(a // h, b // h, s * (d2 // h))


def _hash_rational(m, n):
    """``hash(Fraction(m, n))`` for coprime ``m`` and ``n > 1``, by the
    language's rule for hashing rational numbers, without a Fraction."""
    p = sys.hash_info.modulus
    if n % p == 0:
        h = sys.hash_info.inf
    else:
        h = abs(m) % p * pow(n, -1, p) % p
    if m < 0:
        h = -h
    return -2 if h == -1 else h


ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


def gaussian(a, b, d=1) -> Scalar:
    """The Scalar ``(a + b*i) / d`` for ints ``a``, ``b`` and ``d != 0``."""
    if d < 0:
        a, b, d = -a, -b, -d
    elif not d:
        raise ZeroDivisionError("zero denominator")
    return _reduced(a, b, d)


def scalar(re=0, im=0) -> Scalar:
    """Convenience constructor accepting ints, Fractions or strings (not
    floats, which are not exact, nor booleans)."""
    if isinstance(re, str):
        return parse_scalar(re)
    if isinstance(re, Scalar):
        return re
    for x in (re, im):
        if isinstance(x, float):
            raise TypeError("%r is a floating-point number, not an exact "
                            "scalar" % (x,))
        if isinstance(x, bool):
            raise TypeError("%r is a boolean, not a scalar" % (x,))
    return Scalar(re, im)


def clear_denominators(xs):
    """``(l, pairs)``: the least ``l > 0`` making every ``l * x`` in ``xs`` a
    Gaussian integer, and those integers as ``(re, im)`` int pairs.

    ``l`` is the lcm of the stored denominators, so no Fraction is built.
    """
    l = _lcm(*[x.d for x in xs])
    if l == 1:
        return 1, [(x.a, x.b) for x in xs]
    return l, [(x.a * (l // x.d), x.b * (l // x.d)) for x in xs]


def _gaussian_gcd(a, b):
    """gcd in Z[i] by norm-Euclidean division (nearest-integer quotient)."""
    while b != (0, 0):
        br, bi = b
        n = br * br + bi * bi
        ar, ai = a
        # a / b = (a conj(b)) / N(b), rounded to the nearest Gaussian integer
        qr_num = ar * br + ai * bi
        qi_num = ai * br - ar * bi
        qr = (2 * qr_num + n) // (2 * n)
        qi = (2 * qi_num + n) // (2 * n)
        rr = ar - (qr * br - qi * bi)
        ri = ai - (qr * bi + qi * br)
        a, b = b, (rr, ri)
    return a


def primitive_part(pairs):
    """``pairs`` (Gaussian integers as ``(re, im)``) divided by their
    Gaussian-integer content, up to a unit; all-zero input is returned as is.

    Dividing out only the rational-integer gcd is not enough: eliminations
    and pseudo-remainder chains over Z[i] accumulate Gaussian factors
    invisible to it, and coefficient sizes then grow.
    """
    g = 0
    for re, im in pairs:
        g = _igcd(g, re, im)
        if g == 1:
            break
    if g > 1:
        pairs = [(re // g, im // g) for re, im in pairs]
    # the content divides every norm, so it is gcd(G, pairs) for the norm
    # gcd G; starting from G, each Euclidean chain first reduces an entry
    # modulo G and then runs on numbers no larger than G
    norms = 0
    for re, im in pairs:
        norms = _igcd(norms, re * re + im * im)
        if norms == 1:
            return pairs
    if not norms:
        return pairs
    content = (norms, 0)
    for c in pairs:
        content = _gaussian_gcd(content, c)
        if content[0] * content[0] + content[1] * content[1] == 1:
            return pairs
    cr, ci = content
    n = cr * cr + ci * ci
    return [((ar * cr + ai * ci) // n, (ai * cr - ar * ci) // n)
            for ar, ai in pairs]


def format_scalar(s: Scalar) -> str:
    """Canonical text form: "a/b", "c/d*i" or "a/b+c/d*i" (denominator 1 omitted)."""
    if s.is_zero():
        return "0"
    parts = []
    if s.a:
        parts.append(_rational_text(s.a, s.d))
    if s.b:
        imag = _rational_text(s.b, s.d) + "*i"
        if parts and s.b > 0:
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)


def _rational_text(n, d):
    """``str(Fraction(n, d))`` for ``d > 0``."""
    g = _igcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else "%d/%d" % (n, d)


_TERM = _re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?:
        (?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*(?:\*\s*(?P<istar>i))?
      | (?P<ibare>i)
    )
    \s*
    """,
    _re.VERBOSE,
)


def parse_scalar(text: str) -> Scalar:
    """Parse "a/b", "a/b+c/d*i", "-i", "3*i" and the like.

    Only Gaussian rationals are accepted; anything else (radicals, floats,
    letters) raises ValueError — algebraic-number scalars are rejected at
    parse time.
    """
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1].strip()
    if not s:
        raise ValueError("empty scalar literal")
    pos = 0
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_real = seen_imag = False
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("bad scalar literal %r at offset %d" % (text, pos))
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ibare"):
            value = Fraction(1)
            imag = True
        else:
            den = int(m.group("den") or 1)
            if not den:
                raise ValueError("zero denominator in scalar literal %r"
                                 % text)
            value = Fraction(int(m.group("num")), den)
            imag = m.group("istar") is not None
        if imag:
            if seen_imag:
                raise ValueError("duplicate imaginary term in %r" % text)
            seen_imag = True
            im_part += sign * value
        else:
            if seen_real:
                raise ValueError("duplicate real term in %r" % text)
            seen_real = True
            re_part += sign * value
        pos = m.end()
    return Scalar(re_part, im_part)
