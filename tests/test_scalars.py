import random
from fractions import Fraction

import pytest

from qlike.scalars import (I, ONE, ZERO, Scalar, format_scalar, parse_scalar,
                           scalar)


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
    with pytest.raises(AttributeError):
        s.re = Fraction(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
