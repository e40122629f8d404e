"""The modular certificates of qlike.modp against oracles and planted
counterexamples."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlike.modp import (KERNEL_PRIMES, PRIMES, _interpolate_modp,
                        _resultant_modp, coprime_forms_prime, reduce_modp,
                        sqrt_minus_one)

from oracles import sylvester_det_modp

P = PRIMES[0]


def _coefficients(p, max_len):
    # zeros are drawn often, so formal leading coefficients vanish often
    entry = st.one_of(st.just(0), st.integers(1, p - 1))
    return st.lists(entry, min_size=0, max_size=max_len)


@pytest.mark.parametrize("p", [13, P])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_euclidean_resultant_matches_sylvester(p, data):
    m = data.draw(st.integers(0, 6))
    n = data.draw(st.integers(0, 6))
    f = data.draw(_coefficients(p, m + 1))
    g = data.draw(_coefficients(p, n + 1))
    assert _resultant_modp(f, g, m, n, p) == sylvester_det_modp(f, g, m, n, p)


@pytest.mark.parametrize("p", [13, P])
def test_resultant_degenerate_operands(p):
    # Res_{0,n}(c, g) = c^n even when g is zero, and symmetrically
    for n in range(4):
        for g in ([], [0, 0], [3, 0, 5]):
            want = pow(7, n, p)
            assert _resultant_modp([7], g[:n + 1], 0, n, p) == want
            assert sylvester_det_modp([7], g[:n + 1], 0, n, p) == want
            assert _resultant_modp(g[:n + 1], [7], n, 0, p) == want
    assert _resultant_modp([], [], 0, 0, p) == 1
    # a zero operand against a positive formal degree
    assert _resultant_modp([], [1, 1], 2, 1, p) == 0
    # both formal leading coefficients vanish
    assert _resultant_modp([1, 1, 0], [2, 0], 2, 1, p) == 0
    # f = y - 1, g = y - 2 at formal degree 2: a leading zero of g, and
    # Res_{1,2}(f, g) = 1^1 * Res_{1,1}(f, g) = 1 - 2
    expect = sylvester_det_modp([p - 1, 1], [p - 2, 1, 0], 1, 2, p)
    assert _resultant_modp([p - 1, 1], [p - 2, 1, 0], 1, 2, p) == expect
    assert expect == p - 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=12, unique=True),
       st.data())
def test_interpolation_reproduces_the_values(xs, data):
    # the interpolating polynomial of degree < k is unique, so agreeing on
    # every node means the output is the one earlier code produced
    vals = data.draw(st.lists(st.integers(0, P - 1), min_size=len(xs),
                              max_size=len(xs)))
    poly = _interpolate_modp(xs, vals, P)
    assert len(poly) <= len(xs)
    assert not poly or poly[-1] != 0
    for x, v in zip(xs, vals):
        assert sum(c * pow(x, i, P) for i, c in enumerate(poly)) % P == v


def _form_mul(a, b):
    """Product of Gaussian-integer forms as pair lists over z1 powers,
    keeping the full length deg(a) + deg(b) + 1."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            cr, ci = out[i + j]
            out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
    return out


def _certify(forms, primes=PRIMES):
    return coprime_forms_prime(lambda p, ip: reduce_modp(forms, p, ip),
                               primes)


def _gaussian_form(degree):
    pair = st.tuples(st.integers(-30, 30), st.integers(-30, 30))
    return st.lists(pair, min_size=degree + 1, max_size=degree + 1)


def _linear_factor():
    # z0 and z1 are drawn often: a factor vanishing at (0 : 1) or (1 : 0)
    # is the case a chart-only gcd misses
    nonzero = _gaussian_form(1).filter(lambda f: f != [(0, 0), (0, 0)])
    return st.one_of(st.just([(1, 0), (0, 0)]), st.just([(0, 0), (1, 0)]),
                     nonzero)


@settings(max_examples=300, deadline=None)
@given(st.lists(_linear_factor(), min_size=1, max_size=3),
       st.lists(st.integers(0, 4).flatmap(_gaussian_form), min_size=1,
                max_size=5))
def test_planted_common_factor_never_certified(linear, cofactors):
    factor = [(1, 0)]
    for f in linear:
        factor = _form_mul(factor, f)
    forms = [_form_mul(factor, h) for h in cofactors]
    assert _certify(forms) is None


@pytest.mark.parametrize("factor", [[(1, 0), (0, 0)], [(0, 0), (1, 0)],
                                    [(2, 1), (-3, 5)]])
def test_linear_common_factor_never_certified(factor):
    # z0, z1 and a general linear form times coprime cofactors
    cofactors = [[(1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0)],
                 [(1, 0), (1, 0), (1, 0)]]
    assert _certify([_form_mul(factor, h) for h in cofactors]) is None


def test_coprime_forms_certified_at_the_first_prime():
    z0sq = [(1, 0), (0, 0), (0, 0)]
    z1sq = [(0, 0), (0, 0), (1, 0)]
    assert _certify([z0sq, z1sq]) == PRIMES[0]
    # one nonzero constant is coprime to everything
    assert _certify([[(0, 0), (0, 0)], [(3, 0)]]) == PRIMES[0]


def test_zero_reductions_are_inconclusive():
    p = PRIMES[0]
    z0 = [(p, 0), (0, 0)]           # p * z0 and p * z1 both reduce to zero
    z1 = [(0, 0), (p, 0)]
    assert _certify([z0, z1], primes=(p,)) is None
    assert _certify([z0, z1], primes=PRIMES[1:]) == PRIMES[1]
    assert _certify([], primes=PRIMES) is None
    assert _certify([[(0, 0)]], primes=PRIMES) is None


def test_empty_prime_list_is_inconclusive():
    assert _certify([[(1, 0), (0, 0)], [(0, 0), (1, 0)]], primes=()) is None


def _is_prime(n):
    """Miller-Rabin with the first 12 primes as bases, deterministic below
    3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_kernel_primes_are_62_bit_primes_one_mod_four():
    assert _is_prime(PRIMES[0]) and not _is_prime(PRIMES[0] - 2)
    assert len(set(KERNEL_PRIMES)) == len(KERNEL_PRIMES)
    for p in KERNEL_PRIMES:
        assert _is_prime(p) and p % 4 == 1 and p.bit_length() == 62
        assert pow(sqrt_minus_one(p), 2, p) == p - 1
