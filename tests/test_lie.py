import random

import pytest

from oracles import (algebra_by_wide_solve, identity_by_all_pairs,
                     is_ad_nilpotent, jacobson_morozov_by_brackets,
                     sl2_check_by_rank, table_ad, table_bracket)
from qlike import catalog, lie
from qlike.errors import InternalError, InvalidInput
from qlike.lie import (LieAlgebra, MatrixAlgebra, Representation,
                       Sl2Embedding, builtin_algebra, combination,
                       jacobson_morozov, named_nilpotent,
                       principal_sl2_matrices, sl2_decompose, sl_algebra,
                       so_algebra, sp_algebra, validate_lie,
                       wedge_square_representation)
from qlike.linalg import identity, inverse, mat_mul, rank, solve
from qlike.orbit import adjoint_quadruple
from qlike.sampling import random_nilpotent, random_quadruples
from qlike.scalars import ONE, Scalar, ZERO


def sl2_structure_constants():
    # basis (e, h, f): [h,e]=2e, [h,f]=-2f, [e,f]=h
    return LieAlgebra(3, {
        (0, 1): [Scalar(-2), ZERO, ZERO],
        (0, 2): [ZERO, ONE, ZERO],
        (1, 2): [ZERO, ZERO, Scalar(-2)],
    }, "sl2")


def test_validate_lie_sl2():
    rep = validate_lie(sl2_structure_constants())
    assert rep["jacobi"] and rep["semisimple"]


def heisenberg():
    return LieAlgebra(3, {(0, 1): [ZERO, ZERO, ONE]}, "heisenberg")


def perturbed_sl2():
    return LieAlgebra(3, {
        (0, 1): [Scalar(-1), ZERO, ZERO],   # perturbed [e,h]
        (0, 2): [ZERO, ONE, ZERO],
        (1, 2): [ZERO, ZERO, Scalar(-2)],
    }, "broken")


def test_validate_lie_heisenberg():
    # [x, y] = z, z central: Jacobi holds, Killing form vanishes
    rep = validate_lie(heisenberg())
    assert rep["jacobi"]
    assert rep["killing_rank"] == 0
    assert not rep["semisimple"]


def test_validate_lie_perturbed_constants_fail_jacobi():
    bad = perturbed_sl2()
    rep = validate_lie(bad)
    assert not rep["jacobi"]


def test_builtin_algebras_are_semisimple(monkeypatch):
    # a builder's table answers by construction (module docstring): the
    # dict an unmarked copy computes, with no rank taken
    ranks = []
    monkeypatch.setattr(lie, "rank", lambda m: ranks.append(m) or rank(m))
    for ma in ([sl_algebra(n) for n in range(2, 6)]
               + [so_algebra(n) for n in range(3, 7)]
               + [sp_algebra(n) for n in (2, 4, 6)]):
        g = ma.algebra
        marked = validate_lie(g)
        assert not ranks, g.name
        copy = LieAlgebra(g.dim, dict(g.brackets), g.name)
        assert validate_lie(copy) == marked == {
            "jacobi": True, "killing_rank": g.dim, "semisimple": True}
        assert len(ranks) == 1, g.name
        ranks.clear()


def test_defining_representations_satisfy_identity():
    for name in ("sl(3)", "so(5)", "sp(4)"):
        ma = builtin_algebra(name)
        assert ma.defining_representation().check_identity()


def test_jacobson_morozov_sl2_standard():
    ma = sl_algebra(2)
    y = ma.coordinates_of_matrix([[ZERO, ZERO], [ONE, ZERO]])
    emb = jacobson_morozov(ma.algebra, y)
    assert emb.check()
    assert list(emb.f) == list(y)
    h_mat = ma.matrix_of(list(emb.h))
    assert [h_mat[0][0], h_mat[1][1]] == [ONE, Scalar(-1)]


def diagonal_of_h(ma, emb):
    h = ma.matrix_of(list(emb.h))
    n = len(h)
    return sorted((h[i][i].re for i in range(n)), reverse=True)


def test_jacobson_morozov_sl3_principal():
    ma = sl_algebra(3)
    m = [[ZERO] * 3 for _ in range(3)]
    m[1][0] = ONE
    m[2][1] = ONE
    emb = jacobson_morozov(ma.algebra, ma.coordinates_of_matrix(m))
    assert emb.check()
    assert diagonal_of_h(ma, emb) == [2, 0, -2]


def test_jacobson_morozov_sl3_minimal():
    ma = sl_algebra(3)
    m = [[ZERO] * 3 for _ in range(3)]
    m[2][0] = ONE
    emb = jacobson_morozov(ma.algebra, ma.coordinates_of_matrix(m))
    assert emb.check()
    assert diagonal_of_h(ma, emb) == [1, 0, -1]


def test_jacobson_morozov_rejects_nonnilpotent():
    ma = sl_algebra(2)
    h = ma.coordinates_of_matrix([[ONE, ZERO], [ZERO, Scalar(-1)]])
    with pytest.raises(InvalidInput):
        jacobson_morozov(ma.algebra, h)


def _sp4_nilpotent(rng):
    # [[A, B], [0, -A^T]] with A strictly upper triangular and B symmetric
    # is strictly upper triangular in the order (e1, e2, f2, f1)
    while True:
        a, b11, b12, b22 = (Scalar(rng.randint(-2, 2)) for _ in range(4))
        m = [[ZERO, a, b11, b12], [ZERO, ZERO, b12, b22],
             [ZERO, ZERO, ZERO, ZERO], [ZERO, ZERO, -a, ZERO]]
        if any(x for row in m for x in row):
            return builtin_algebra("sp(4)").coordinates_of_matrix(m)


def _nilpotency_draws(name, rng):
    """Sparse and dense random integer elements, most of them not
    nilpotent, and random nilpotent ones."""
    dim = builtin_algebra(name).dim
    draws = []
    for weights in ((0, 0, 0, 1, -1), (0, 1, -1, 2, -2)):
        for _ in range(6):
            y = [Scalar(rng.choice(weights)) for _ in range(dim)]
            if any(y):
                draws.append(y)
    for _ in range(3):
        draws.append(_sp4_nilpotent(rng) if name == "sp(4)"
                     else random_nilpotent(rng, name)[1])
    return draws


@pytest.mark.parametrize("name", ["sl(2)", "sl(3)", "sl(4)", "so(5)",
                                  "sp(4)"])
def test_jacobson_morozov_rejects_exactly_the_non_nilpotent(name):
    # the H solve decides nilpotency (lie docstring): it fails exactly
    # where the powers of ad y do not reach zero
    g = builtin_algebra(name).algebra
    verdicts = set()
    for y in _nilpotency_draws(name, random.Random(name)):
        nilpotent = is_ad_nilpotent(g, y)
        verdicts.add(nilpotent)
        if nilpotent:
            assert list(jacobson_morozov(g, y).f) == y
        else:
            with pytest.raises(InvalidInput,
                               match="element is not ad-nilpotent"):
                jacobson_morozov(g, y)
    assert verdicts == {True, False}


MIXED_ELEMENTS = [((1, 1, -2), [(0, 1)]),
                  ((1, 1, -1, -1), [(0, 1), (2, 3)]),
                  ((2, 2, 2, -3, -3), [(0, 1), (1, 2), (3, 4)])]


@pytest.mark.parametrize("diagonal, units", MIXED_ELEMENTS)
def test_a_semisimple_plus_a_commuting_nilpotent_has_no_h(diagonal, units):
    # y = s + n with [s, n] = 0 and s, n != 0: in the proof's terms,
    # (ad y)^2 w = 2y has no solution, since s != 0
    n = len(diagonal)
    ma = sl_algebra(n)
    s = [[Scalar(d) if r == c else ZERO for c in range(n)]
         for r, d in enumerate(diagonal)]
    nil = [[ZERO] * n for _ in range(n)]
    for r, c in units:
        nil[r][c] = ONE
    assert mat_mul(s, nil) == mat_mul(nil, s)
    y = ma.coordinates_of_matrix([[a + b for a, b in zip(*rows)]
                                  for rows in zip(s, nil)])
    assert not is_ad_nilpotent(ma.algebra, y)
    with pytest.raises(InvalidInput, match="element is not ad-nilpotent"):
        jacobson_morozov(ma.algebra, y)


def _perturbed(emb, which, index):
    vectors = [list(emb.e), list(emb.h), list(emb.f)]
    vectors[which][index] = vectors[which][index] + ONE
    return Sl2Embedding(emb.algebra, *vectors)


def test_the_span_rule_gives_the_rank_rule_verdict():
    # once the bracket relations hold, H != 0 is rank(E, H, F) == 3 (lie
    # docstring): on valid triples, one-entry perturbations and zero
    triples = [jacobson_morozov(builtin_algebra(name).algebra, y)
               for name, y in catalog_nilpotents()]
    triples += [q.tau for q in (catalog.build_so(5), catalog.build_sp(4),
                                catalog.build_veronese(3))]
    verdicts = []
    for emb in triples:
        assert emb.check() and sl2_check_by_rank(emb)
        for which in range(3):
            for index in range(emb.algebra.dim):
                moved = _perturbed(emb, which, index)
                verdicts.append(moved.check())
                assert verdicts[-1] == sl2_check_by_rank(moved)
        scaled = Sl2Embedding(emb.algebra, [c * 2 for c in emb.e], emb.h,
                              [c / 2 for c in emb.f])
        assert scaled.check() and sl2_check_by_rank(scaled)
    assert not any(verdicts)
    for name in ("sl(2)", "sl(3)", "so(5)", "sp(4)"):
        g = builtin_algebra(name).algebra
        zero = Sl2Embedding(g, [ZERO] * g.dim, [ZERO] * g.dim, [ZERO] * g.dim)
        assert not zero.check() and not sl2_check_by_rank(zero)


def test_adjoint_quadruple_rejects_a_non_semisimple_table():
    # x is ad-nilpotent in the Heisenberg algebra, which has no sl(2)
    with pytest.raises(InvalidInput, match="not semisimple"):
        adjoint_quadruple(heisenberg(), [ONE, ZERO, ZERO], "heisenberg")


def test_sl2_decompose_adjoint_of_sl2():
    ma = sl_algebra(2)
    e, h, f = principal_sl2_matrices(2)
    emb = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    mult = sl2_decompose(ma.algebra.adjoint_representation(), emb)
    assert mult == {2: 1}


def test_sl2_decompose_adjoint_sl3():
    ma = sl_algebra(3)
    m = [[ZERO] * 3 for _ in range(3)]
    m[1][0] = ONE
    m[2][1] = ONE
    emb = jacobson_morozov(ma.algebra, ma.coordinates_of_matrix(m))
    assert sl2_decompose(ma.algebra.adjoint_representation(), emb) == \
        {2: 1, 4: 1}
    m2 = [[ZERO] * 3 for _ in range(3)]
    m2[2][0] = ONE
    emb2 = jacobson_morozov(ma.algebra, ma.coordinates_of_matrix(m2))
    assert sl2_decompose(ma.algebra.adjoint_representation(), emb2) == \
        {0: 1, 1: 2, 2: 1}


def test_decompose_basis_independent():
    rng = random.Random(19)
    ma = sl_algebra(3)
    e, h, f = principal_sl2_matrices(3)
    emb = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    rep = ma.defining_representation()
    base = sl2_decompose(rep, emb)
    for _ in range(3):
        g = [[Scalar(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
        if rank(g) != 3:
            continue
        gi = inverse(g)
        mats = [mat_mul(mat_mul(g, [list(r) for r in m]), gi)
                for m in rep.matrices]
        conj_rep = Representation(ma.algebra, mats)
        assert sl2_decompose(conj_rep, emb) == base


def test_principal_matrices_relations():
    for n in range(2, 7):
        e, h, f = principal_sl2_matrices(n)
        comm = mat_mul(e, f)
        fe = mat_mul(f, e)
        assert [[comm[i][j] - fe[i][j] for j in range(n)] for i in range(n)] == h


def test_wedge_square_identity():
    ma = sp_algebra(4)
    rep, pairs = wedge_square_representation(ma)
    assert rep.space_dim == 6
    assert rep.check_identity()


def test_algebra_json_round_trip():
    ma = sl_algebra(2)
    back = LieAlgebra.from_json(ma.algebra.to_json())
    assert back.dim == ma.algebra.dim
    mats = back.adjoint_representation().matrices
    for (i, j), vec in ma.algebra.brackets.items():
        assert tuple(row[j] for row in mats[i]) == tuple(vec)


ORACLE_ALGEBRAS = ["sl(2)", "sl(3)", "sl(4)", "sl(5)", "so(5)", "so(6)",
                   "sp(4)", "sp(6)", "heisenberg", "perturbed"]


def oracle_algebra(name):
    if name == "heisenberg":
        return heisenberg()
    if name == "perturbed":
        return perturbed_sl2()
    return builtin_algebra(name).algebra


@pytest.mark.parametrize("name", ORACLE_ALGEBRAS)
def test_ad_table_equals_the_table_walk(name):
    g = oracle_algebra(name)
    basis = identity(g.dim)
    mats = g.adjoint_representation().matrices
    for i in range(g.dim):
        assert [list(r) for r in mats[i]] == table_ad(g, basis[i])
    rng = random.Random(25)
    for _ in range(4):
        x, y = ([Scalar(rng.randint(-2, 2), rng.randint(-1, 1))
                 for _ in range(g.dim)] for _ in range(2))
        assert g.bracket(x, y) == table_bracket(g, x, y)
        assert g.ad(x) == table_ad(g, x)


def test_ad_table_is_built_on_first_use_and_kept():
    g = sl2_structure_constants()
    assert g._adjoint is None
    assert g.bracket([ONE, ZERO, ZERO], [ZERO, ZERO, ONE]) == [ZERO, ONE, ZERO]
    assert g.adjoint_representation() is g.adjoint_representation()


def catalog_nilpotents():
    out = [(name, named_nilpotent(builtin_algebra(name), spec))
           for name, spec in (("sl(2)", "principal"), ("sl(3)", "principal"),
                              ("sl(3)", "minimal"), ("sl(4)", "principal"),
                              ("sl(4)", "minimal"))]
    return out + [(q.algebra.name, q.tau.f)
                  for q in random_quadruples(4242, 7)]


def test_jacobson_morozov_triples_equal_the_bracket_route():
    for name, y in catalog_nilpotents():
        g = builtin_algebra(name).algebra
        emb = jacobson_morozov(g, y)
        assert (list(emb.e), list(emb.h), list(emb.f)) == \
            jacobson_morozov_by_brackets(g, y), name


def test_combination_is_the_weighted_sum():
    a = [[ONE, ZERO], [Scalar(2), ONE]]
    b = [[ZERO, Scalar(0, 1)], [ONE, ZERO]]
    assert combination([a, b], [3, Scalar(0, 1)]) == \
        [[Scalar(3), Scalar(-1)], [Scalar(6, 1), Scalar(3)]]
    assert combination([a, b], [0, 0]) == [[ZERO, ZERO], [ZERO, ZERO]]


WIDE_SOLVE_ALGEBRAS = ["sl(2)", "sl(3)", "sl(4)", "sl(5)", "sl(6)", "so(5)",
                       "so(6)", "so(7)", "sp(4)", "sp(6)"]


@pytest.mark.parametrize("name", WIDE_SOLVE_ALGEBRAS)
def test_structure_constants_equal_the_wide_solve(name):
    ma = builtin_algebra(name)
    assert ma.algebra.to_json() == \
        algebra_by_wide_solve(name, ma.basis_matrices).to_json()


@pytest.mark.parametrize("name", WIDE_SOLVE_ALGEBRAS)
def test_coordinates_of_matrix_equal_the_solve(name):
    ma = builtin_algebra(name)
    n = len(ma.basis_matrices[0])
    cells = [[bm[r][c] for bm in ma.basis_matrices]
             for r in range(n) for c in range(n)]
    rng = random.Random(26)
    for _ in range(3):
        x = [Scalar(rng.randint(-3, 3), rng.randint(-1, 1))
             for _ in range(ma.dim)]
        m = ma.matrix_of(x)
        flat = [m[r][c] for r in range(n) for c in range(n)]
        assert ma.coordinates_of_matrix(m) == solve(cells, flat) == x


@pytest.mark.parametrize("m", [[[ONE]], [[ONE, ZERO], [ZERO, ONE]],
                               [[ZERO] * 3, [ZERO] * 3, [ZERO] * 2]])
def test_coordinates_of_a_wrong_shape_matrix_are_rejected(m):
    with pytest.raises(InvalidInput, match="3 x 3"):
        sl_algebra(3).coordinates_of_matrix(m)


def test_coordinates_of_a_matrix_outside_the_algebra_are_rejected():
    with pytest.raises(InvalidInput, match="matrix is not in the algebra"):
        sl_algebra(3).coordinates_of_matrix(identity(3))
    symmetric = [[ZERO, ONE, ZERO], [ONE, ZERO, ZERO], [ZERO, ZERO, ZERO]]
    with pytest.raises(InvalidInput, match="matrix is not in the algebra"):
        so_algebra(3).coordinates_of_matrix(symmetric)


def _unit(i, j):
    m = [[ZERO] * 3 for _ in range(3)]
    m[i][j] = ONE
    return m


def test_a_basis_not_closed_under_the_bracket_is_an_internal_error():
    # [E12, E23] = E13 is not in the span of E12 and E23
    with pytest.raises(InternalError, match="commutator left the span"):
        MatrixAlgebra("upper", [_unit(0, 1), _unit(1, 2)])


def test_a_repeated_basis_matrix_is_an_internal_error():
    with pytest.raises(InternalError, match="linearly dependent"):
        MatrixAlgebra("repeated", [_unit(0, 1), _unit(0, 1)])


# --------------------------------------------------------------------------
# the representation identity: by construction for the builders, exactly
# (and once) for every other source
# --------------------------------------------------------------------------

def builder_representations():
    """Every builder's output on sl(2..6), so(5..7), sp(4) and sp(6), and
    the representations of random_quadruples(4242, 25) and of sl(5)
    draws, each object once."""
    reps = []
    for name in (["sl(%d)" % n for n in range(2, 7)]
                 + ["so(5)", "so(6)", "so(7)", "sp(4)", "sp(6)"]):
        ma = builtin_algebra(name)
        reps += [ma.defining_representation(),
                 ma.algebra.adjoint_representation(),
                 wedge_square_representation(ma)[0]]
    draws = (random_quadruples(4242, 25)
             + random_quadruples(5, 3, pool=("sl(5)",)))
    reps += [q.sigma for q in draws]
    return list({id(rep): rep for rep in reps}.values())


def test_builders_prove_the_identity_by_construction():
    for rep in builder_representations():
        assert rep.identity_route == "construction"
        assert rep.check_identity()
        assert identity_by_all_pairs(rep), rep.algebra.name


def one_entry_perturbed(mats):
    """The matrices as lists, with 1 added to the first entry of the first."""
    out = [[list(row) for row in m] for m in mats]
    out[0][0][0] += ONE
    return out


@pytest.mark.parametrize("name", ["sl(3)", "so(5)", "sp(4)"])
def test_representations_built_directly_are_checked_exactly(name):
    ma = builtin_algebra(name)
    for proven in (ma.defining_representation(),
                   ma.algebra.adjoint_representation(),
                   wedge_square_representation(ma)[0]):
        same = Representation(proven.algebra, proven.matrices)
        assert same.identity_route == "exact"
        assert same.check_identity() and identity_by_all_pairs(same)
        bad = Representation(proven.algebra,
                             one_entry_perturbed(proven.matrices))
        assert bad.identity_route == "exact"
        assert not identity_by_all_pairs(bad)
        assert not bad.check_identity()


def test_a_matrix_algebra_proves_only_the_matrices_it_checked():
    ma = sl_algebra(3)
    with pytest.raises(TypeError):
        ma.basis_matrices[0][0][0] = ONE
    with pytest.raises(TypeError):
        ma.algebra.brackets[(0, 1)] = [ONE] * ma.dim
    ma.basis_matrices = tuple(one_entry_perturbed(ma.basis_matrices))
    for rep in (ma.defining_representation(),
                wedge_square_representation(ma)[0]):
        assert rep.identity_route == "exact"
        assert not identity_by_all_pairs(rep)
        assert not rep.check_identity()
    # the table was read off the matrices the constructor checked
    adjoint = ma.algebra.adjoint_representation()
    assert adjoint.identity_route == "construction"
    assert identity_by_all_pairs(adjoint)


def test_tables_read_from_json_are_checked_exactly():
    back = LieAlgebra.from_json(sl_algebra(3).algebra.to_json())
    assert back.adjoint_representation().identity_route == "exact"
    assert back.adjoint_representation().check_identity()
    broken = perturbed_sl2().adjoint_representation()
    assert broken.identity_route == "exact"
    assert not identity_by_all_pairs(broken)
    assert not broken.check_identity()


def test_scalars_are_not_coerced_again(monkeypatch):
    calls = []
    coerce = lie.scalar
    monkeypatch.setattr(lie, "scalar",
                        lambda *args: calls.append(args) or coerce(*args))
    ma = sl_algebra(5)
    ma.defining_representation()
    ma.algebra.adjoint_representation()
    e, h, f = (ma.coordinates_of_matrix(m) for m in principal_sl2_matrices(5))
    Sl2Embedding(ma.algebra, e, h, f)
    combination(ma.basis_matrices, e)
    assert calls == []
    # anything that is not yet a Scalar still is coerced
    LieAlgebra(2, {(0, 1): [0, 1]})
    Representation(LieAlgebra(1, {}), [[[2]]])
    assert calls == [(0,), (1,), (2,)]
