import copy
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import PairScalar, format_pair

from qlike.scalars import (I, ONE, ZERO, Scalar, format_scalar, parse_scalar,
                           scalar)

SETTINGS = settings(max_examples=200, deadline=None)
HASH_MODULUS = sys.hash_info.modulus


def rand_scalar(rng):
    return Scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
                  Fraction(rng.randint(-20, 20), rng.randint(1, 9)))


def test_basic_arithmetic():
    assert (ONE + I) * (ONE - I) == Scalar(2)
    assert I * I == Scalar(-1)
    assert (Scalar(3, 4) / Scalar(0, 1)) == Scalar(4, -3)
    assert Scalar(Fraction(1, 3)) + Scalar(Fraction(2, 3)) == ONE


def test_exactness_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        assert (a + b) - b == a
        if not b.is_zero():
            assert (a / b) * b == a


def test_parse_format_round_trip():
    rng = random.Random(1)
    for _ in range(100):
        s = rand_scalar(rng)
        assert parse_scalar(format_scalar(s)) == s
    assert parse_scalar("1/2+3/4*i") == Scalar(Fraction(1, 2), Fraction(3, 4))
    assert parse_scalar("-i") == Scalar(0, -1)
    assert parse_scalar("0") == ZERO
    assert parse_scalar("3*i") == Scalar(0, 3)
    assert parse_scalar("(1/2)") == Scalar(Fraction(1, 2))


@pytest.mark.parametrize("bad", ["sqrt(2)", "2^(1/2)", "1.5", "x", "1+2",
                                 "1/0", "3-2/0*i"])
def test_non_gaussian_rejected(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("bad", [True, False, 0.5])
def test_scalar_rejects_bool_and_float(bad):
    with pytest.raises(TypeError):
        scalar(bad)
    with pytest.raises(TypeError):
        scalar(1, bad)


def test_immutable():
    s = Scalar(1, 2)
    for name in ("a", "b", "d", "re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, 3)
    assert s == Scalar(1, 2)


ROUND_TRIPS = [copy.copy, copy.deepcopy,
               lambda x: pickle.loads(pickle.dumps(x))]


@pytest.mark.parametrize("round_trip", ROUND_TRIPS)
@pytest.mark.parametrize("value", [ZERO, ONE, I, Scalar(3), Scalar(1, 2),
                                   Scalar(Fraction(1, 2), Fraction(-2, 3)),
                                   Scalar(Fraction(7, 2 ** 120), 5 ** 60)])
def test_copy_and_pickle_round_trips(value, round_trip):
    got = round_trip(value)
    assert got == value and hash(got) == hash(value)
    assert (got.a, got.b, got.d) == (value.a, value.b, value.d)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def _fractions(bits):
    return st.builds(Fraction, st.integers(-2 ** bits, 2 ** bits),
                     st.integers(1, 2 ** bits))


# parts of zero, of units, and with numerators and denominators past 100 bits
_PARTS = st.one_of(st.just(Fraction(0)),
                   st.sampled_from([Fraction(1), Fraction(-1)]),
                   _fractions(4), _fractions(130))
_UNITS = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
VALUES = st.one_of(
    st.sampled_from([(Fraction(re), Fraction(im)) for re, im in _UNITS]),
    st.tuples(_PARTS, _PARTS), st.tuples(_PARTS, st.just(Fraction(0))))


def _check(s, o):
    """``s`` is a Scalar in normal form that agrees with the oracle ``o``."""
    assert type(s) is Scalar
    assert all(type(x) is int for x in (s.a, s.b, s.d))
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    assert type(s.re) is Fraction and type(s.im) is Fraction
    assert (s.re, s.im) == (o.re, o.im)
    assert s.is_zero() == o.is_zero() == (not s)
    assert s.is_one() == o.is_one()
    assert s.is_real() == o.is_real()
    text = format_scalar(s)
    assert text == format_pair(o)
    assert parse_scalar(text) == s


@SETTINGS
@given(VALUES, VALUES)
@example((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(-1, 3)))
def test_arithmetic_matches_pair_oracle(x, y):
    s, t = Scalar(*x), Scalar(*y)
    o, p = PairScalar(*x), PairScalar(*y)
    _check(s, o)
    _check(t, p)
    _check(s + t, o + p)
    _check(s - t, o - p)
    _check(s * t, o * p)
    _check(-s, -o)
    _check(s.conjugate(), o.conjugate())
    assert (s == t) == (o == p)
    assert (s != t) == (not o == p)
    if p.is_zero():
        with pytest.raises(ZeroDivisionError):
            s / t
        with pytest.raises(ZeroDivisionError):
            t.inverse()
    else:
        _check(s / t, o / p)
        _check(t.inverse(), p.inverse())


@SETTINGS
@given(VALUES, st.one_of(st.integers(-2 ** 130, 2 ** 130), _fractions(130)))
def test_mixed_operands_match_pair_oracle(x, n):
    s, o, p = Scalar(*x), PairScalar(*x), PairScalar(n)
    _check(s + n, o + p)
    _check(n + s, p + o)
    _check(s - n, o - p)
    _check(n - s, p - o)
    _check(s * n, o * p)
    _check(n * s, p * o)
    assert (s == n) == (o == p)
    if n:
        _check(s / n, o / p)
    if not o.is_zero():
        _check(n / s, p / o)


def _number(value, kind):
    """The value ``re + im*i`` as an int, a Fraction or a Scalar, falling
    back to a Scalar where the asked-for type cannot hold it."""
    re, im = value
    if kind == "int" and not im and re.denominator == 1:
        return int(re)
    if kind == "fraction" and not im:
        return re
    return Scalar(re, im)


_SMALL = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_NUMBERS = st.builds(_number,
                     st.one_of(st.tuples(_SMALL, st.just(Fraction(0))),
                               st.tuples(_SMALL, _SMALL), VALUES),
                     st.sampled_from(["int", "fraction", "scalar"]))


@SETTINGS
@given(_NUMBERS, _NUMBERS)
@example(Scalar(3), 3)
@example(Scalar(Fraction(-1, 2)), Fraction(-1, 2))
@example(Scalar(Fraction(1, HASH_MODULUS)), Fraction(1, HASH_MODULUS))
@example(Scalar(Fraction(-5, 3 * HASH_MODULUS)),
         Fraction(-5, 3 * HASH_MODULUS))
@example(Scalar(HASH_MODULUS - 1), HASH_MODULUS - 1)
@example(Scalar(2 ** 130 + 1), 2 ** 130 + 1)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert y == x
        assert hash(x) == hash(y)


def test_real_scalar_is_a_dict_key_for_its_number():
    table = {Scalar(3): "three", Scalar(Fraction(1, 2)): "half"}
    assert table.get(3) == "three"
    assert table.get(Fraction(1, 2)) == "half"
    assert {3: "three"}.get(Scalar(3)) == "three"
