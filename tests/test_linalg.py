import random

import pytest

from oracles import exact_det, naive_det, rref

from qlike.linalg import (identity, inverse, kernel_basis, mat_mul, mat_vec,
                          rank, solve, solve_matrix)
from qlike.scalars import I, ONE, Scalar, ZERO


def rand_matrix(rng, n, m, span=5):
    return [[Scalar(rng.randint(-span, span), rng.randint(-span, span))
             for _ in range(m)] for _ in range(n)]


def test_kernel_of_hermitian_like_rank_one():
    a = [[ONE, I], [-I, ONE]]
    k = kernel_basis(a)
    assert len(k) == 1
    v = k[0]
    assert all(x.is_zero() for x in mat_vec(a, v))
    # spanned by (-i, 1)
    assert (v[0] * ONE - v[1] * Scalar(0, -1)).is_zero()


def test_identity_solve():
    b = [Scalar(3), Scalar(-2, 1), Scalar(0, 5)]
    assert solve(identity(3), b) == b


def test_solve_multiply_back():
    rng = random.Random(7)
    done = 0
    while done < 25:
        a = rand_matrix(rng, 3, 3)
        if rank(a) != 3:
            continue
        b = [Scalar(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(3)]
        x = solve(a, b)
        assert x is not None
        assert mat_vec(a, x) == b
        done += 1


def test_inconsistent_system_reports_none():
    a = [[ONE, ONE], [ONE, ONE]]
    assert solve(a, [ONE, Scalar(2)]) is None


def test_kernel_dimension_and_membership():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rng.randint(1, 6)
        a = rand_matrix(rng, n, m, span=3)
        k = kernel_basis(a)
        assert len(k) == m - rank(a)
        for v in k:
            assert all(x.is_zero() for x in mat_vec(a, v))
        if k:
            assert rank(k) == len(k)


def test_rref_reduced_shape():
    rng = random.Random(23)
    for _ in range(10):
        a = rand_matrix(rng, 4, 5, span=3)
        r, pivots = rref(a)
        for row_idx, pc in enumerate(pivots):
            assert r[row_idx][pc] == ONE
            for other in range(len(r)):
                if other != row_idx:
                    assert r[other][pc].is_zero()


def test_exact_det_matches_naive():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n, span=4)
        assert exact_det(a) == naive_det(a)


def test_inverse_round_trip():
    rng = random.Random(41)
    done = 0
    while done < 10:
        a = rand_matrix(rng, 3, 3)
        if rank(a) != 3:
            continue
        assert mat_mul(a, inverse(a)) == identity(3)
        done += 1


def test_inverse_rejects_singular_and_nonsquare():
    singular = [[ONE, I], [Scalar(2), Scalar(0, 2)]]
    with pytest.raises(ValueError, match="not invertible"):
        inverse(singular)
    with pytest.raises(ValueError, match="not square"):
        inverse([[ONE, ZERO]])


def test_solve_matrix_columns():
    rng = random.Random(47)
    a = rand_matrix(rng, 3, 3)
    while rank(a) != 3:
        a = rand_matrix(rng, 3, 3)
    b = rand_matrix(rng, 3, 2)
    x = solve_matrix(a, b)
    assert mat_mul(a, x) == b
