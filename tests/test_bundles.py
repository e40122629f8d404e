import copy
import functools
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import minor_system_h0, split_by_solve, splitting_h0

from qlike import bundles
from qlike.bundles import (QuotientBundle, SplittingType, SubbundleFamily,
                           annihilator, family_span_equal, h0_twist,
                           is_split_extension, saturate, splitting_type,
                           subquotient_splitting, verify_canonical_sequences)
from qlike.catalog import (build_conic_r3, build_quaternionic,
                           build_twisted_plane_c4, fixture_structures)
from qlike.errors import InternalError, InvalidInput
from qlike.forms import BinaryForm, Z0, Z1, parse_form
from qlike.linalg import rank
from qlike.polymatrix import (PolyMatrix, _apply_scalar_matrix, generic_rank,
                              graded_kernel)
from qlike.sampling import random_structures
from qlike.scalars import Scalar


def cols_matrix(ambient, *columns):
    cols = [[parse_form(s) for s in col] for col in columns]
    return PolyMatrix.from_columns(ambient, cols)


def trivial_full(n):
    cols = []
    for j in range(n):
        col = ["0"] * n
        col[j] = "1"
        cols.append(col)
    return saturate(cols_matrix(n, *cols))


QUAT_FAMILY = cols_matrix(4, ("z0", "z1", "0", "0"), ("0", "0", "z0", "z1"))
CONIC = cols_matrix(3, ("z0^2", "z0*z1", "z1^2"))


def test_saturate_free_basis_unchanged():
    fam = saturate(QUAT_FAMILY)
    assert fam.degrees == (1, 1)
    assert splitting_type(fam) == SplittingType.of([-1, -1])


def test_saturate_strips_rank_drop():
    m = cols_matrix(2, ("z0^2", "z0*z1"), ("z0*z1", "z1^2"))
    fam = saturate(m)
    assert fam.rank == 1 and fam.degrees == (1,)
    assert fam.basis.column(0) == [Z0, Z1]


def test_saturate_constant_column():
    fam = saturate(cols_matrix(2, ("1", "0")))
    assert fam.degrees == (0,)
    assert splitting_type(fam) == SplittingType.of([0])


def test_saturate_zero_columns():
    # rank 0: the linked annihilator is every functional, the same basis a
    # fresh annihilator computes
    fam = saturate(cols_matrix(3, ("0", "0", "0")))
    assert fam.rank == 0
    ann = annihilator(fam)
    assert ann.degrees == (0, 0, 0) and annihilator(ann) is fam
    assert ann.basis == annihilator(SubbundleFamily(3, fam.basis)).basis


def test_h0_twist_examples():
    fam = saturate(cols_matrix(2, ("z0", "z1")))
    assert h0_twist(fam, 1)[0] == 1
    full = trivial_full(2)
    for m in range(0, 3):
        assert h0_twist(full, m)[0] == 2 * (m + 1)
    q = QuotientBundle(2, fam)
    assert h0_twist(q, 0)[0] == 2


def test_h0_dimension_formula_window():
    rng = random.Random(6)
    samples = [saturate(QUAT_FAMILY), saturate(CONIC),
               saturate(cols_matrix(2, ("1", "0")))]
    for fam in samples:
        st = splitting_type(fam)
        total = sum(fam.degrees)
        for m in range(-total - 2, total + 3):
            dim, basis = h0_twist(fam, m)
            assert dim == splitting_h0(st.summands, m)
            assert len(basis) == dim


def test_h0_against_minor_system_oracle():
    for fam, ms in [(saturate(CONIC), (0, 1, 2, 3)),
                    (saturate(QUAT_FAMILY), (0, 1, 2))]:
        for m in ms:
            assert h0_twist(fam, m)[0] == minor_system_h0(fam, m)


def test_splitting_examples():
    assert splitting_type(saturate(QUAT_FAMILY)) == SplittingType.of([-1, -1])
    conic = saturate(CONIC)
    assert splitting_type(conic) == SplittingType.of([-2])
    assert splitting_type(QuotientBundle(3, conic)) == SplittingType.of([1, 1])
    assert splitting_type(trivial_full(2)) == SplittingType.of([0, 0])


def test_annihilator_examples_and_involution():
    fam = saturate(cols_matrix(2, ("z0", "z1")))
    ann = annihilator(fam)
    assert ann.degrees == (1,)
    assert ann.basis.column(0) == [parse_form("-z1"), Z0]
    quat = saturate(QUAT_FAMILY)
    ann_q = annihilator(quat)
    assert ann_q.degrees == (1, 1)
    assert splitting_type(QuotientBundle(4, quat)) == SplittingType.of([1, 1])
    const = saturate(cols_matrix(2, ("1", "0")))
    ann_c = annihilator(const)
    assert ann_c.degrees == (0,)
    # saturate links each family to its annihilator, which links back; the
    # involution is checked on link-free copies, so both steps are computed
    for fam2 in (fam, quat, const, saturate(CONIC)):
        fresh = annihilator(SubbundleFamily(fam2.ambient, fam2.basis))
        assert family_span_equal(annihilator(fresh), fam2)


def test_annihilator_pointwise_at_sample_points():
    fam = saturate(CONIC)
    ann = annihilator(fam)
    for z0, z1 in ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2)):
        fiber = fam.fiber_at(z0, z1)
        covecs = ann.fiber_at(z0, z1)
        k = fam.rank
        for j in range(ann.rank):
            for i in range(k):
                pairing = sum((covecs[r][j] * fiber[r][i]
                               for r in range(fam.ambient)), Scalar(0))
                assert pairing.is_zero()


def test_c1_additivity_random():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(2, 5)
        k = rng.randint(1, n - 1)
        cols = []
        for _ in range(k):
            d = rng.randint(0, 2)
            cols.append([BinaryForm(d, [Scalar(rng.randint(-3, 3))
                                        for _ in range(d + 1)])
                         for _ in range(n)])
        m = PolyMatrix.from_columns(n, cols)
        from qlike.polymatrix import generic_rank
        if generic_rank(m.transpose_relations()) != k:
            continue
        fam = saturate(m)
        st_sub = splitting_type(fam)
        st_quot = splitting_type(QuotientBundle(n, fam))
        assert st_sub.degree + st_quot.degree == 0


def test_subquotient_examples():
    fam = saturate(cols_matrix(2, ("z0", "z1")))
    assert subquotient_splitting(fam, fam, 0) == SplittingType.of([])
    assert subquotient_splitting(fam, trivial_full(2), 0) == \
        SplittingType.of([1])
    conic = saturate(CONIC)
    assert subquotient_splitting(conic, trivial_full(3), 2) == \
        SplittingType.of([3, 3])


def test_subquotient_sum_identity():
    # sum(subquotient(A, B, 0)) + sum(splitting(A)) == sum(splitting(B))
    cases = [
        (saturate(cols_matrix(2, ("z0", "z1"))), trivial_full(2)),
        (saturate(CONIC), trivial_full(3)),
        (saturate(cols_matrix(3, ("z0", "z1", "0"))),
         saturate(cols_matrix(3, ("z0", "z1", "0"), ("0", "z0", "z1")))),
    ]
    for a, b in cases:
        sq = subquotient_splitting(a, b, 0)
        assert sq.degree + splitting_type(a).degree == \
            splitting_type(b).degree
        assert sq.rank == b.rank - a.rank


def test_subquotient_not_nested():
    a = saturate(cols_matrix(2, ("z0", "z1")))
    b = saturate(cols_matrix(2, ("1", "0")))
    with pytest.raises(InvalidInput):
        subquotient_splitting(a, b, 0)


def test_split_extension():
    assert is_split_extension(saturate(cols_matrix(2, ("1", "0"))))
    assert not is_split_extension(saturate(cols_matrix(2, ("z0", "z1"))))
    assert not is_split_extension(saturate(QUAT_FAMILY))
    # read off the degrees, it agrees with solving for the retraction
    spans = [s.spanning for _, s in fixture_structures()]
    spans += [s.spanning for s in random_structures(20250808, 9)]
    spans += [cols_matrix(2, ("1", "0")),
              cols_matrix(4, ("1", "0", "i", "0"), ("0", "2", "0", "1-i")),
              cols_matrix(3, ("1", "0", "0"), ("0", "z0", "z1"))]
    families = [saturate(p) for p in spans]
    assert [f.degrees for f in families[-3:]] == [(0,), (0, 0), (0, 1)]
    assert [is_split_extension(f) for f in families] == \
        [split_by_solve(f) for f in families]
    assert [is_split_extension(f) for f in families[-3:]] == \
        [True, True, False]


def test_canonical_sequences_quaternionic_quotient():
    fam = saturate(QUAT_FAMILY)
    rep = verify_canonical_sequences(QuotientBundle(4, fam))
    assert (rep["h0_minus1"], rep["h0"], rep["h0_minus2"], rep["h1_minus2"]) \
        == (2, 4, 0, 0)
    assert rep["first_sequence"]["rank_additivity"]
    assert rep["first_sequence"]["c1_additivity"]
    assert rep["ok"]


def test_canonical_sequences_euler():
    # U = O(2) as the quotient of the trivial rank 3 by the conic annihilator
    conic = saturate(CONIC)
    denom = annihilator(conic)
    rep = verify_canonical_sequences(QuotientBundle(3, denom))
    assert rep["splitting"] == [2]
    assert (rep["h0_minus2"], rep["h0_minus1"], rep["h0"]) == (1, 2, 3)
    assert rep["ok"]


def test_canonical_sequences_trivial_line():
    fam = saturate(cols_matrix(2, ("1", "0")))
    rep = verify_canonical_sequences(QuotientBundle(2, fam))
    assert rep["splitting"] == [0]
    assert rep["h0_minus1"] == 0
    assert rep["h1_minus2"] == 1
    assert rep["ok"]


def test_serialization_round_trip():
    fam = saturate(CONIC)
    from qlike.bundles import SubbundleFamily
    back = SubbundleFamily.from_json(fam.to_json())
    assert family_span_equal(back, fam)


def _unlinked(fam):
    """A copy of ``fam`` that :func:`saturate` has not linked to its
    annihilator."""
    return SubbundleFamily(fam.ambient, fam.basis)


def _times_z0_plus_z1_last(fam):
    """``fam`` with its last column multiplied by z0 + z1: the same generic
    rank and annihilator, but not a free basis of the saturation."""
    cols = fam.columns()
    cols[-1] = [c * (Z0 + Z1) for c in cols[-1]]
    degrees = list(fam.degrees[:-1]) + [fam.degrees[-1] + 1]
    return SubbundleFamily(fam.ambient, PolyMatrix.from_columns(
        fam.ambient, cols, degrees))


def test_splitting_matches_exact_h0_second_differences():
    # on both sides of each structure, linked or not, the degree count gives
    # the splitting whose multiplicities are the second differences of the
    # exact h0 at lo .. hi; multiplying a column by z0 + z1 is rejected
    structures = ([s for _, s in fixture_structures()]
                  + random_structures(20250808, 20) + random_structures(123, 8))
    for s in structures:
        fam = saturate(s.spanning)
        for side in (fam, annihilator(fam)):
            st = splitting_type(side)
            assert splitting_type(_unlinked(side)) == st
            lo, hi = min(side.degrees), max(side.degrees)
            h = {m: bundles.h0_dimension_by_solve(side, m)
                 for m in range(lo - 2, hi + 1)}
            for m in range(lo, hi + 1):
                assert st.summands.count(-m) == \
                    h[m] - 2 * h[m - 1] + h[m - 2], (side, m)
            with pytest.raises(InternalError, match="not a free basis"):
                splitting_type(_times_z0_plus_z1_last(side))


def test_unsaturated_family_is_rejected():
    # z0 times a basis column: its degrees sum to 3, its annihilator's to 2
    unsaturated = SubbundleFamily(4, cols_matrix(
        4, ("z0^2", "z0*z1", "0", "0"), ("0", "0", "z0", "z1")))
    with pytest.raises(InternalError, match="sum to 3, annihilator's to 2"):
        splitting_type(unsaturated)


def test_splitting_of_a_linked_family_runs_no_elimination(monkeypatch):
    # the degree count reads the linked annihilator: no exact and no
    # modular elimination, on a family and on its quotient alike
    from qlike import linalg, modp
    structures = [s for _, s in fixture_structures()] + \
        random_structures(20250808, 4)
    families = [saturate(s.spanning) for s in structures]
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((linalg, "_eliminate"), (modp, "_eliminate_modp")):
        monkeypatch.setattr(module, name,
                            counting(name, getattr(module, name)))
    for fam in families:
        splitting_type(fam)
        splitting_type(QuotientBundle(fam.ambient, fam))
    assert calls == []


# -- saturation from the spanning columns against the two graded kernels -------

@functools.lru_cache(maxsize=None)
def spanning_pool():
    """The fixtures' and a draw's spanning matrices; the draw's first one
    is not a free basis of its saturation."""
    return tuple(s.spanning for s in [s for _, s in fixture_structures()]
                 + random_structures(123, 8))


GAUSSIAN = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def mixed_spanning(draw):
    """A pool matrix with the columns of each degree replaced by their
    product with an invertible Gaussian-integer matrix: the same module,
    so the same saturation."""
    P = draw(st.sampled_from(spanning_pool()))
    cols = P.columns()
    for d in sorted(set(P.col_degrees)):
        group = [j for j, e in enumerate(P.col_degrees) if e == d]
        k = len(group)
        mix = draw(st.lists(st.lists(GAUSSIAN, min_size=k, max_size=k),
                            min_size=k, max_size=k)
                   .filter(lambda M, k=k: rank(M) == k))
        rows = [_apply_scalar_matrix(mix, [cols[j][l] for j in group], d)
                for l in range(P.rows)]
        for i, j in enumerate(group):
            cols[j] = [row[i] for row in rows]
    return PolyMatrix.from_columns(P.rows, cols, P.col_degrees)


@st.composite
def unsaturated_spanning(draw):
    """A mixed pool matrix with one column times a linear form, or with a
    column repeated, or with a zero column added: the same saturation from
    columns that are not a free basis of it."""
    P = draw(mixed_spanning())
    cols, degrees = P.columns(), list(P.col_degrees)
    j = draw(st.integers(0, P.cols - 1))
    kind = draw(st.sampled_from(["times a linear form", "repeated", "zero"]))
    if kind == "times a linear form":
        a, b = draw(st.tuples(GAUSSIAN, GAUSSIAN).filter(any))
        line = Z0.scale(a) + Z1.scale(b)
        cols[j] = [f * line for f in cols[j]]
        degrees[j] += 1
    else:
        cols.append(cols[j] if kind == "repeated"
                    else [BinaryForm.zero(degrees[j])] * P.rows)
        degrees.append(degrees[j])
    return PolyMatrix.from_columns(P.rows, cols, degrees)


def saturate_by_two_kernels(P):
    """``saturate`` with the second graded kernel always run: (whether the
    degree rule takes P's columns as the basis, the family's JSON, the
    annihilator's JSON)."""
    n = P.rows
    r = generic_rank(P.transpose_relations())
    ann = graded_kernel(P.columns(), n, expected_count=n - r)
    gens = graded_kernel([list(q) for _, q in ann], n, expected_count=r)
    rule = P.cols == r and sum(P.col_degrees) == sum(m for m, _ in ann)
    if rule:
        # the degree count's consequence: P's degrees are the basis's
        assert sorted(P.col_degrees) == [m for m, _ in gens]
    return (rule, bundles._family_of(n, gens).to_json(),
            bundles._family_of(n, ann).to_json())


def saturate_with_route(P):
    """(whether the basis came from P's columns, the family's JSON, the
    linked annihilator's JSON)."""
    with mock.patch.object(bundles, "graded_kernel_from_basis",
                           wraps=bundles.graded_kernel_from_basis) as spy:
        fam = saturate(P)
    return spy.called, fam.to_json(), annihilator(fam).to_json()


@seed(21)
@settings(max_examples=100, deadline=None)
@given(mixed_spanning())
def test_saturation_of_a_mixed_basis_equals_two_kernels(P):
    assert saturate_with_route(P) == saturate_by_two_kernels(P)


@seed(21)
@settings(max_examples=100, deadline=None)
@given(unsaturated_spanning())
def test_saturation_of_an_unsaturated_family_equals_two_kernels(P):
    route, fam, ann = saturate_with_route(P)
    assert not route
    assert (route, fam, ann) == saturate_by_two_kernels(P)


@pytest.mark.parametrize("round_trip", [
    copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))])
def test_splitting_type_is_an_immutable_value(round_trip):
    st = SplittingType.of([1, 3, 1])
    got = round_trip(st)
    assert got == st and hash(got) == hash(st) and got != SplittingType.of([1])
    assert {st: 0}[got] == 0
    assert repr(got) == "SplittingType(summands=(3, 1, 1))"
    with pytest.raises(AttributeError):
        got.summands = ()
