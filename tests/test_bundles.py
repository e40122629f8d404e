import random

import pytest
from oracles import minor_system_h0, splitting_h0

from qlike import bundles
from qlike.bundles import (QuotientBundle, SplittingType, SubbundleFamily,
                           _certified_h0s, _h0_killed_by, annihilator,
                           family_span_equal, h0_twist, is_split_extension,
                           saturate, splitting_type, subquotient_splitting,
                           verify_canonical_sequences)
from qlike.catalog import (build_conic_r3, build_quaternionic,
                           build_twisted_plane_c4)
from qlike.errors import InternalError, InvalidInput
from qlike.forms import BinaryForm, Z0, Z1, parse_form
from qlike.polymatrix import PolyMatrix
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


def _twist_window(fam):
    return range(min(fam.degrees) - 2, max(fam.degrees) + 2)


def test_certified_h0_equals_exact_solve():
    # the splitting cross-check's window, on both sides of each structure:
    # every twist certifies, with the exact kernel dimension
    structures = [build_conic_r3(), build_quaternionic(1),
                  build_twisted_plane_c4()] + random_structures(123, 4)
    for s in structures:
        fam = saturate(s.spanning)
        ann = annihilator(fam)
        for f, a in ((fam, ann), (ann, fam)):
            window = _twist_window(f)
            certified = _certified_h0s(f, a, window)
            assert list(certified) == list(window)
            for m, h in certified.items():
                assert h is not None
                assert h == _h0_killed_by(a, m)


def test_unsaturated_family_fails_through_exact_fallback(monkeypatch):
    # z0 times a basis column: the z-multiples span too little to certify,
    # so the exact solve decides, and the cross-check rejects the degrees
    unsaturated = SubbundleFamily(4, cols_matrix(
        4, ("z0^2", "z0*z1", "0", "0"), ("0", "0", "z0", "z1")))
    exact = []

    def counting(ann, m):
        exact.append(m)
        return _h0_killed_by(ann, m)

    monkeypatch.setattr(bundles, "_h0_killed_by", counting)
    with pytest.raises(InternalError):
        splitting_type(unsaturated)
    assert exact


def test_nonzero_pairing_never_certifies():
    # (z1, z0) does not kill the fiber (z0, z1), yet at every twist the rank
    # of its equations plus the rank of the z-multiples is the column count;
    # only the exact pairing check stops a false certificate
    fam = saturate(cols_matrix(2, ("z0", "z1")))
    wrong = SubbundleFamily(2, cols_matrix(2, ("z1", "z0")))
    window = range(0, 5)
    assert all(h is None for h in _certified_h0s(fam, wrong, window).values())
    right = annihilator(fam)
    assert _certified_h0s(fam, right, window) == \
        {m: _h0_killed_by(right, m) for m in window}
