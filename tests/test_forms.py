import copy
import pickle
import random

import pytest

from oracles import form_divmod_exact

from qlike.forms import (BinaryForm, Z0, Z1, antipodal_transform, form_gcd,
                         format_form, parse_form)
from qlike.scalars import ONE, Scalar, ZERO


def rand_form(rng, degree, span=4):
    return BinaryForm(degree, [Scalar(rng.randint(-span, span),
                                      rng.randint(-span, span))
                               for _ in range(degree + 1)])


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


def test_multiplication_against_evaluation():
    rng = random.Random(9)
    pts = [(1, 0), (0, 1), (1, 1), (2, -3), (1, 5)]
    for _ in range(40):
        a = rand_form(rng, rng.randint(0, 4))
        b = rand_form(rng, rng.randint(0, 4))
        prod = a * b
        for z0, z1 in pts:
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
    t = (2, 1, -1, 3)
    for _ in range(20):
        a = rand_form(rng, rng.randint(0, 3))
        b = rand_form(rng, rng.randint(0, 3))
        lhs = (a * b).substitute(*t)
        rhs = a.substitute(*t) * b.substitute(*t)
        assert lhs == rhs
