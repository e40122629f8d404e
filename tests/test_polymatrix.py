import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import graded_kernel_by_stages, poly_mat_vec

from qlike import bundles, orbit, polymatrix
from qlike.bundles import saturate, subquotient_splitting
from qlike.catalog import catalog_entries, fixture_structures
from qlike.errors import InternalError
from qlike.forms import BinaryForm, Z0, Z1, parse_form
from qlike.modp import PRIMES
from qlike.polymatrix import (PolyMatrix, _degree_bound, generic_rank,
                              graded_kernel, graded_kernel_basis,
                              solve_combination)
from qlike.sampling import random_structures
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
    gens = graded_kernel(rows, 2, unknown_shifts=[0, 1], expected_count=1)
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


def split_by_degree(rows, shifts):
    """One row per (relation, degree deg f + shift) group: the system whose
    generic rank fixes the kernel's rank."""
    out = []
    for row in rows:
        for t in sorted({f.degree + s for f, s in zip(row, shifts) if f}):
            out.append([f if f and f.degree + s == t else BinaryForm.zero(0)
                        for f, s in zip(row, shifts)])
    return out


def test_generators_never_pass_the_proven_bound():
    # random relation systems, rows of mixed degrees, shifts in [-2, 2]
    rng = random.Random(18)
    reached = 0
    for _ in range(60):
        n = rng.randint(2, 4)
        shifts = [rng.randint(-2, 2) for _ in range(n)]
        rows = [[BinaryForm(d, [Scalar(rng.randint(-2, 2))
                                for _ in range(d + 1)])
                 if rng.random() < 0.7 else BinaryForm.zero(d)
                 for d in (rng.randint(0, 2) for _ in range(n))]
                for _ in range(rng.randint(1, n - 1))]
        count = n - generic_rank(split_by_degree(rows, shifts))
        bound = _degree_bound(rows, shifts, count) if count else None
        gens = graded_kernel(rows, n, unknown_shifts=shifts,
                             expected_count=count)
        assert len(gens) == count
        for m, vec in gens:
            assert m <= bound
            for row in rows:
                sums = {}
                for f, g in zip(row, vec):
                    if f and g:
                        p = f * g
                        sums[p.degree] = sums[p.degree] + p \
                            if p.degree in sums else p
                assert all(p.is_zero() for p in sums.values())
        reached += bool(gens) and gens[-1][0] == bound
    assert reached > 0


CONIC_RELATIONS = [[Z1, -Z0, BinaryForm.zero(1)],
                   [BinaryForm.zero(1), Z1, -Z0]]


def test_conic_reaches_the_bound():
    gens = graded_kernel(CONIC_RELATIONS, 3, expected_count=1)
    assert [m for m, _ in gens] == [2]
    assert _degree_bound(CONIC_RELATIONS, [0, 0, 0], 1) == 2
    assert list(gens[0][1]) == [Z0 * Z0, Z0 * Z1, Z1 * Z1]


def test_count_too_high_fails_at_the_bound():
    bound = _degree_bound(CONIC_RELATIONS, [0, 0, 0], 2)
    with pytest.raises(InternalError,
                       match="by degree %d, its proven bound" % bound):
        graded_kernel(CONIC_RELATIONS, 3, expected_count=2)


# -- the graded kernel against its stage-by-stage oracle -----------------------

def exact(gens):
    """Generators with each form's degree and exact numerators, so that zero
    forms of different degrees and reordered generators compare unequal."""
    return [(m, tuple((f.degree, f.den, f.num) for f in vec))
            for m, vec in gens]


def record_graded_kernels(monkeypatch):
    """Record (args, kwargs, generators) of every graded_kernel call made
    through polymatrix or bundles (orbit writes its curve down and calls
    none)."""
    calls = []
    real = polymatrix.graded_kernel

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    for module in (polymatrix, bundles):
        monkeypatch.setattr(module, "graded_kernel", recording)
    return calls


def assert_oracle_agrees(calls):
    assert calls
    for args, kwargs, out in calls:
        assert exact(out) == exact(graded_kernel_by_stages(*args, **kwargs))


def record_eliminations(monkeypatch):
    """The unknown counts of the systems the graded kernel eliminates
    exactly, one per stage that reaches kernel_basis."""
    widths = []
    real = polymatrix.kernel_basis

    def recording(rows):
        widths.append(len(rows[0]))
        return real(rows)

    monkeypatch.setattr(polymatrix, "kernel_basis", recording)
    return widths


@st.composite
def relation_systems(draw):
    """Relation rows of mixed-degree Gaussian forms, with unknown shifts;
    with five unknowns some stages hold several new kernel vectors after a
    first generator, which the selection's scan order decides."""
    n = draw(st.integers(2, 5))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    coeff = st.builds(Scalar, st.integers(-2, 2), st.integers(-1, 1))
    form = st.integers(0, 2).flatmap(
        lambda d: st.one_of(
            st.just(BinaryForm.zero(d)),
            st.lists(coeff, min_size=d + 1, max_size=d + 1).map(
                lambda cs, d=d: BinaryForm(d, cs))))
    rows = draw(st.lists(st.lists(form, min_size=n, max_size=n),
                         min_size=1, max_size=n - 1))
    return rows, shifts


@seed(20)
@settings(max_examples=400, deadline=None)
@given(relation_systems())
def test_graded_kernel_equals_the_oracle_on_drawn_systems(system):
    rows, shifts = system
    n = len(shifts)
    count = n - generic_rank(split_by_degree(rows, shifts))
    gens = graded_kernel(rows, n, unknown_shifts=shifts, expected_count=count)
    assert exact(gens) == exact(graded_kernel_by_stages(
        rows, n, unknown_shifts=shifts, expected_count=count))


def test_saturations_equal_the_oracle(monkeypatch):
    # each saturation runs one graded kernel for its annihilator, and a
    # second one over the annihilator's relations only when the spanning
    # columns are not already a free basis; either way the family is the
    # oracle's kernel of those relations
    structures = ([s for _, s in fixture_structures()]
                  + random_structures(123, 8))
    calls = record_graded_kernels(monkeypatch)
    kernels = []
    for s in structures:
        start = len(calls)
        fam = saturate(s.spanning)
        kernels.append(len(calls) - start)
        ann = calls[start][2]
        n = fam.ambient
        assert exact(zip(fam.degrees, fam.columns())) == exact(
            graded_kernel_by_stages([list(q) for _, q in ann], n,
                                    expected_count=n - len(ann)))
    # the first structure of the draw is not spanned by a free basis
    assert kernels == [1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1]
    assert_oracle_agrees(calls)


def test_twistor_catalog_graded_systems_equal_the_oracle(monkeypatch):
    # normal_bundle runs no graded kernel; the polynomial route it is
    # tested against (W's saturation and the subquotient) runs them all
    calls = record_graded_kernels(monkeypatch)
    for entry in catalog_entries():
        if entry.kind == "quadruple":
            fams = orbit.orbit_tangent_family(entry.build())
            subquotient_splitting(fams.l_prime, fams.w, twist=fams.degree)
    assert_oracle_agrees(calls)


def test_undercounting_rank_sends_every_stage_to_the_exact_path(monkeypatch):
    # a modular rank one short proves no stage empty: the conic's stages
    # 0, 1 and 2 (3, 6 and 9 unknowns) are all eliminated, as without the
    # skip, and the generator is the oracle's
    real = polymatrix.rank_modp
    monkeypatch.setattr(polymatrix, "rank_modp",
                        lambda rows, p: max(real(rows, p) - 1, 0))
    widths = record_eliminations(monkeypatch)
    gens = graded_kernel(CONIC_RELATIONS, 3, expected_count=1)
    assert widths == [3, 6, 9]
    assert exact(gens) == exact(graded_kernel_by_stages(
        CONIC_RELATIONS, 3, expected_count=1))


def test_coefficient_divisible_by_the_prime_falls_back(monkeypatch):
    # p z1 x0 - z0 x1 = z1 x1 - z0 x2 = 0 loses x0 modulo p, so the empty
    # stages 0 and 1 are eliminated exactly; the generator is
    # (z0^2 / p, z0 z1, z1^2) at stage 2
    p = PRIMES[0]
    rows = [[Z1.scale(Scalar(p)), -Z0, BinaryForm.zero(1)],
            [BinaryForm.zero(1), Z1, -Z0]]
    widths = record_eliminations(monkeypatch)
    gens = graded_kernel(rows, 3, expected_count=1)
    assert widths == [3, 6, 9]
    assert exact(gens) == exact(graded_kernel_by_stages(
        rows, 3, expected_count=1))
    assert list(gens[0][1]) == [(Z0 * Z0).scale(Scalar(1) / Scalar(p)),
                                Z0 * Z1, Z1 * Z1]


def test_saturate_eliminates_only_at_the_generator_stages(monkeypatch):
    # the conic: no stage of the annihilator before its generators (at
    # stage 1) is eliminated, and the saturation, whose spanning column is
    # a free basis, eliminates none; stage by stage it took 5 eliminations
    conic = PolyMatrix.from_columns(
        3, [[parse_form(t) for t in ("z0^2", "z0*z1", "z1^2")]], [2])
    draw = random_structures(20250808, 9)[8]
    widths = record_eliminations(monkeypatch)
    saturate(conic)
    assert len(widths) == 1
    del widths[:]
    # the slowest structure of the benchmark's draw: 10 stage by stage, 3
    # with a second graded kernel over the annihilator's relations
    saturate(draw.spanning)
    assert len(widths) == 1
