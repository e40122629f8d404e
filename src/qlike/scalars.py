"""Exact Gaussian-rational scalars.

Every number in this package is an element of Q(i): a pair of arbitrary
precision rationals (re + im*i) built on `fractions.Fraction`.  There is no
floating point anywhere; equality is exact equality.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd as _igcd, lcm as _lcm


class Scalar:
    """An element of Q(i), immutable.

    >>> Scalar(1, 2) * Scalar(0, 1)
    Scalar('-2+1*i')
    >>> (Scalar(Fraction(1, 3)) + Scalar(Fraction(2, 3))).is_one()
    True
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def _raw(re: Fraction, im: Fraction):
        # hot-path constructor: skips Fraction coercion of known Fractions
        s = object.__new__(Scalar)
        object.__setattr__(s, "re", re)
        object.__setattr__(s, "im", im)
        return s

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def is_one(self):
        return self.re == 1 and not self.im

    def is_real(self):
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Scalar._raw(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Scalar._raw(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __neg__(self):
        return Scalar._raw(-self.re, -self.im)

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b and not d:
            return Scalar._raw(a * c, _FR_ZERO)
        return Scalar._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        n = other.re * other.re + other.im * other.im
        if not n:
            raise ZeroDivisionError("division by zero Scalar")
        a, b, c, d = self.re, self.im, other.re, other.im
        return Scalar._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def conjugate(self):
        if not self.im:
            return self
        return Scalar._raw(self.re, -self.im)

    def inverse(self):
        return ONE / self

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.re == other and not self.im
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text form -------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "Scalar(%r)" % format_scalar(self)


_FR_ZERO = Fraction(0)

ZERO = Scalar(0)
ONE = Scalar(1)
I = Scalar(0, 1)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    raise TypeError("cannot coerce %r to Scalar" % (x,))


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

    Each part is ``numerator * (l // denominator)``, so no Fraction is built.
    """
    l = _lcm(*[x.re.denominator for x in xs], *[x.im.denominator for x in xs])
    return l, [(x.re.numerator * (l // x.re.denominator),
                x.im.numerator * (l // x.im.denominator)) for x in xs]


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
    if s.re:
        parts.append(str(s.re))
    if s.im:
        imag = "%s*i" % s.im
        if parts and s.im > 0:
            parts.append("+" + imag)
        else:
            parts.append(imag)
    return "".join(parts)


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
