import copy
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from oracles import form_divmod_exact

from qlike.forms import (MAX_FORM_DEGREE, BinaryForm, Z0, Z1,
                         antipodal_transform, form_gcd, format_form,
                         parse_form)
from qlike.scalars import ONE, Scalar, ZERO


def rand_scalar(rng, span=4):
    """A Gaussian rational with parts over denominators 1, 2 or 3."""
    return Scalar(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
                  Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def rand_form(rng, degree, span=4):
    return BinaryForm(degree, [rand_scalar(rng, span)
                               for _ in range(degree + 1)])


def storage(f):
    return f.degree, f.den, f.num


def assert_normal_form(f):
    assert f.den > 0 and len(f.num) == f.degree + 1
    assert gcd(f.den, *[x for pair in f.num for x in pair]) == 1
    if f.is_zero():
        assert f.den == 1


def test_antipodal_examples():
    assert antipodal_transform(parse_form("z0")) == parse_form("-z1")
    conic = parse_form("z0^2 + z1^2")
    assert antipodal_transform(conic) == conic
    once = antipodal_transform(parse_form("z0*z1"))
    assert once == parse_form("-z0*z1")
    assert antipodal_transform(once) == parse_form("z0*z1")


def test_antipodal_involution_property():
    rng = random.Random(5)
    for _ in range(60):
        d = rng.randint(0, 6)
        p = rand_form(rng, d)
        twice = antipodal_transform(antipodal_transform(p))
        assert twice == (p if d % 2 == 0 else -p)


def scalar_value(p, z0, z1):
    """p(z0, z1) summed term by term in Scalar arithmetic."""
    z0, z1 = Scalar(0) + z0, Scalar(0) + z1
    total = ZERO
    for i, c in enumerate(p.coeffs):
        term = c
        for _ in range(p.degree - i):
            term = term * z0
        for _ in range(i):
            term = term * z1
        total = total + term
    return total


def test_multiplication_against_evaluation():
    rng = random.Random(9)
    pts = [(1, 0), (0, 1), (1, 1), (2, -3), (1, 5),
           (Scalar(Fraction(1, 2)), Scalar(1, -1)),
           (Scalar(0, 2), Fraction(-2, 3))]
    for _ in range(40):
        a = rand_form(rng, rng.randint(0, 4))
        b = rand_form(rng, rng.randint(0, 4))
        prod = a * b
        for z0, z1 in pts:
            assert a.evaluate(z0, z1) == scalar_value(a, z0, z1)
            assert prod.evaluate(z0, z1) == \
                a.evaluate(z0, z1) * b.evaluate(z0, z1)


def test_euler_identity():
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 6)
        p = rand_form(rng, d)
        lhs = p.scale(Scalar(d))
        rhs = Z0 * p.d_z0() + Z1 * p.d_z1()
        assert lhs == rhs


def test_parse_format_round_trip():
    rng = random.Random(3)
    for _ in range(60):
        p = rand_form(rng, rng.randint(0, 5))
        assert parse_form(format_form(p)) == p
    p = parse_form("(1/2)*z0^2 - z0*z1 + (0+1*i)*z1^2")
    assert p.degree == 2
    assert p.coeffs[1] == Scalar(-1)
    assert p.coeffs[2] == Scalar(0, 1)


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))])
@pytest.mark.parametrize("text", ["0", "1", "z0", "(1/2)*z0^3 - i*z1^3",
                                  "(2+3*i)*z0*z1 + (1/7)*z1^2"])
def test_copy_and_pickle_round_trips(text, round_trip):
    f = parse_form(text)
    got = round_trip(f)
    assert got == f and hash(got) == hash(f)
    assert got.degree == f.degree


def test_parse_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        parse_form("z0^2 + z1")


@pytest.mark.parametrize("text", ["z0**2", "z0 +", "z0 -", "*z0", "z0*",
                                  "z0 * * z1", "-", "+", "- -", "2*",
                                  "(1/2)* - z1", "z0 + * z1"])
def test_parse_rejects_dangling_operators(text):
    # "*" joins two factors and a sign needs a term after it, so "z0**2"
    # is not 2*z0, nor "-" the zero form
    with pytest.raises(ValueError):
        parse_form(text)


def test_parse_bounds_the_degree_before_allocating():
    # a degree at the bound parses; one above it, or a huge exponent, even
    # under a zero coefficient, is refused with no coefficient list built
    assert parse_form("z0^%d" % MAX_FORM_DEGREE).degree == MAX_FORM_DEGREE
    tracemalloc.start()
    try:
        for text in ("z1^%d" % (MAX_FORM_DEGREE + 1), "z0^99999999999",
                     "z0^5000*z1^5001", "0*z0^99999999999"):
            with pytest.raises(ValueError, match="exceeds"):
                parse_form(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize("text, expected", [
    ("- - z0", "z0"),
    ("z0 + -z1", "z0 - z1"),
    ("+z0", "z0"),
    ("2 z0", "2*z0"),
    ("2*z0*z1", "2*z0*z1"),
    ("(1/2)*z0^2 - z0*z1 + (0+1*i)*z1^2", "(1/2)*z0^2 - z0*z1 + (1*i)*z1^2"),
    ("(1+2*i)*z0 - (3/4)*z1", "(1+2*i)*z0 + (-3/4)*z1"),
    ("3*i*z0^2", "(3*i)*z0^2"),
    ("i z1", "(1*i)*z1"),
    ("(2) z0", "2*z0"),
])
def test_parse_accepts_signs_juxtaposition_and_parentheses(text, expected):
    assert format_form(parse_form(text)) == expected
    assert parse_form(expected) == parse_form(text)


def test_divmod_exact():
    rng = random.Random(21)
    for _ in range(40):
        g = rand_form(rng, rng.randint(0, 3))
        if g.is_zero():
            continue
        q = rand_form(rng, rng.randint(0, 3))
        f = g * q
        got = form_divmod_exact(f, g)
        assert got == q
    assert form_divmod_exact(parse_form("z0^2"), parse_form("z1")) is None


def test_gcd_properties():
    rng = random.Random(33)
    for _ in range(25):
        g = rand_form(rng, rng.randint(1, 2))
        a = rand_form(rng, rng.randint(0, 2))
        b = rand_form(rng, rng.randint(0, 2))
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        got = form_gcd(g * a, g * b)
        # gcd is divisible by g (up to the gcd of the cofactors)
        assert form_divmod_exact(got, form_gcd(got, g)) is not None
        assert form_divmod_exact(g * a, form_gcd(got, g)) is not None
    got = form_gcd(parse_form("z0^2*z1 + z0*z1^2"), parse_form("z0*z1^3"))
    assert got == parse_form("z0*z1")


def test_substitute_is_ring_map():
    rng = random.Random(8)
    for t in [(2, 1, -1, 3),
              (Fraction(1, 2), Scalar(0, 1), Scalar(1, Fraction(-1, 3)), 2)]:
        for _ in range(20):
            a = rand_form(rng, rng.randint(0, 3))
            b = rand_form(rng, rng.randint(0, 3))
            lhs = (a * b).substitute(*t)
            rhs = a.substitute(*t) * b.substitute(*t)
            assert lhs == rhs
            # p(T z) at z = (2, -1)
            z0 = Scalar(0) + t[0] * 2 - t[1]
            z1 = Scalar(0) + t[2] * 2 - t[3]
            assert a.substitute(*t).evaluate(2, -1) == a.evaluate(z0, z1)


def test_normal_form_is_unique():
    # each group holds one form built by different routes
    half_z0 = parse_form("(1/2)*z0 + z1")
    groups = [
        [parse_form("z0^2 + (3/2)*z0*z1 - z1^2"),
         half_z0 * parse_form("2*z0 - z1"),
         parse_form("2*z0 - z1") * half_z0],
        [parse_form("z0*z1"), parse_form("(1/3)*z0") * parse_form("3*z1"),
         (Z0 * Z1).scale(Scalar(Fraction(2, 3))).scale(Fraction(3, 2))],
        [parse_form("(1/6)*z0 - (1/4)*i*z1"),
         BinaryForm(1, [Fraction(1, 6), Scalar(0, Fraction(-1, 4))]),
         parse_form("2*z0 - 3*i*z1").scale(Scalar(Fraction(1, 12)))],
    ]
    rng = random.Random(17)
    for _ in range(30):
        p = rand_form(rng, rng.randint(0, 4))
        c = rand_scalar(rng)
        if c.is_zero():
            continue
        groups.append([p, parse_form(format_form(p)),
                       p.scale(c).scale(c.inverse()),
                       BinaryForm(p.degree, p.coeffs)])
    for group in groups:
        first = group[0]
        for f in group:
            assert_normal_form(f)
            assert storage(f) == storage(first)
            assert f == first and hash(f) == hash(first)
            for round_trip in (copy.copy, copy.deepcopy,
                               lambda g: pickle.loads(pickle.dumps(g))):
                assert storage(round_trip(f)) == storage(first)
    zeros = [BinaryForm.zero(d) for d in range(4)] + [
        parse_form("0", 2), Z0 - Z0, parse_form("(1/2)*z0*z1").scale(ZERO),
        parse_form("(1/3)*z0^2") - parse_form("(1/3)*z0^2")]
    for f in zeros:
        assert_normal_form(f)
        assert f.den == 1 and f.num == ((0, 0),) * (f.degree + 1)
        assert f == zeros[0] and hash(f) == hash(zeros[0])
        assert pickle.loads(pickle.dumps(f)).degree == f.degree
