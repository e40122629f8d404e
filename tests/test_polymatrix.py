import random

from oracles import poly_mat_vec

from qlike.forms import BinaryForm, Z0, Z1, parse_form
from qlike.polymatrix import (PolyMatrix, generic_rank, graded_kernel,
                              graded_kernel_basis, solve_combination)
from qlike.scalars import Scalar


def test_simple_syzygy():
    m = PolyMatrix(1, 2, (1, 1), [[Z0, Z1]])
    k = graded_kernel_basis(m)
    assert k.cols == 1 and k.col_degrees == (1,)
    assert k.column(0) == [parse_form("-z1"), parse_form("z0")]


def test_common_factor_stripped():
    m = PolyMatrix(1, 2, (2, 2), [[parse_form("z0^2"), parse_form("z0*z1")]])
    k = graded_kernel_basis(m)
    assert k.cols == 1 and k.col_degrees == (1,)
    assert k.column(0) == [parse_form("-z1"), parse_form("z0")]


def test_constant_identity_empty_kernel():
    m = PolyMatrix(2, 2, (0, 0), [[parse_form("1"), parse_form("0")],
                                  [parse_form("0"), parse_form("1")]])
    assert graded_kernel_basis(m).cols == 0


def test_kernel_columns_annihilate():
    rng = random.Random(3)
    for _ in range(15):
        n = rng.randint(1, 3)
        c = rng.randint(2, 4)
        d = rng.randint(0, 2)
        degs = [d] * c
        cols = [[BinaryForm(d, [Scalar(rng.randint(-3, 3)) for _ in range(d + 1)])
                 for _ in range(n)] for d in degs]
        m = PolyMatrix.from_columns(n, cols, degs)
        k = graded_kernel_basis(m)
        rk = generic_rank(m.transpose_relations())
        assert k.cols == c - rk
        for j in range(k.cols):
            image = poly_mat_vec(m, k.column(j))
            assert all(f.is_zero() for f in image)


def test_generic_rank_is_max_over_points():
    # rank drops at z1 = 0 but the generic rank is still 2
    m = [[Z0, BinaryForm.zero(1)], [BinaryForm.zero(1), Z1]]
    assert generic_rank(m) == 2
    # a genuinely rank-one matrix of forms
    m2 = [[Z0, Z1], [Z0, Z1]]
    assert generic_rank(m2) == 1


def test_twisted_kernel_degrees():
    # relation z0^2 g0 + z1 g1 = 0 with unknown shifts (0, 1): the minimal
    # generator is (z1, -z0^2) at stage 1
    rows = [[parse_form("z0^2"), Z1]]
    gens = graded_kernel(rows, 2, unknown_shifts=[0, 1], expected_count=1,
                         cap=10)
    assert len(gens) == 1
    m, vec = gens[0]
    assert m == 1
    assert vec[0].degree == 1 and vec[1].degree == 2
    assert (parse_form("z0^2") * vec[0] + Z1 * vec[1]).is_zero()


def test_solve_combination_round_trip():
    rng = random.Random(5)
    cols = [[Z0, Z1, BinaryForm.zero(1)], [BinaryForm.zero(1), Z0, Z1]]
    degs = [1, 1]
    for _ in range(10):
        c0 = BinaryForm(1, [Scalar(rng.randint(-3, 3)) for _ in range(2)])
        c1 = BinaryForm(1, [Scalar(rng.randint(-3, 3)) for _ in range(2)])
        target = [cols[0][i] * c0 + cols[1][i] * c1 for i in range(3)]
        sol = solve_combination(cols, degs, target, 2)
        assert sol is not None
        rebuilt = [cols[0][i] * sol[0] + cols[1][i] * sol[1] for i in range(3)]
        assert rebuilt == target
    # an unreachable target
    bad = [parse_form("z0^2"), BinaryForm.zero(2), BinaryForm.zero(2)]
    assert solve_combination(cols, degs, bad, 2) is None
