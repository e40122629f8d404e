import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlike import bundles, catalog, embedding, polymatrix

from qlike.bundles import SplittingType
from qlike.catalog import (build_conic_r3, build_quaternionic,
                           build_twisted_plane_c4,
                           _left_quaternion_matrices)
from qlike.errors import InvalidInput
from qlike.forms import BinaryForm, Z0, Z1, parse_form
from qlike.linalg import identity, mat_vec, rank
from qlike.polymatrix import PolyMatrix
from qlike.sampling import random_structures
from qlike.scalars import ONE, Scalar, ZERO
from qlike.embedding import _bivariate_two_point
from qlike.structures import (QLikeStructure, analyze, check_morphism, dualize,
                              heaven_data, minus_data, minus_family, validate,
                              verify_factorization)
from qlike.bundles import (SubbundleFamily, annihilator, family_span_equal,
                           saturate)
from qlike.modp import PRIMES
from qlike.serialize import canonical_json, digest, load_structure_file


CONIC = build_conic_r3()
QUAT = build_quaternionic(1)
PLANE = build_twisted_plane_c4()


def unlinked(family):
    """A copy of the family without the annihilator link saturate sets."""
    return SubbundleFamily(family.ambient, family.basis)


def check_status(report, name):
    return next(c.status for c in report.checks if c.name == name)


def factorization(s):
    hd = heaven_data(s)
    return verify_factorization(hd, minus_data(hd))


def test_validate_fixtures_pass():
    for s in (CONIC, QUAT, PLANE):
        report = validate(s)
        assert report.passed, report.to_json()


def test_validate_constant_map_fails():
    spanning = PolyMatrix.from_columns(3, [[parse_form("1"), parse_form("0"),
                                            parse_form("0")]])
    s = QLikeStructure(3, 1, spanning, None, complex_mode=True)
    report = validate(s)
    assert check_status(report, "immersion") == "fail"


def test_validate_degenerate_codimension():
    spanning = PolyMatrix.from_columns(2, [[Z0, Z1], [Z1, Z0]])
    s = QLikeStructure(2, 2, spanning, None, complex_mode=True)
    report = validate(s)
    assert not report.passed
    assert check_status(report, "codimension") == "fail"


def test_validate_rank_mismatch():
    spanning = PolyMatrix.from_columns(3, [[Z0, Z1, BinaryForm.zero(1)],
                                           [Z0, Z1, BinaryForm.zero(1)]])
    s = QLikeStructure(3, 2, spanning, None, complex_mode=True)
    report = validate(s)
    assert check_status(report, "generic-rank") == "fail"


def test_validate_noninjective_curve():
    # a double cover of a line: (z0^2 + z1^2, 2 z0 z1) type column in C^3
    col = [parse_form("z0^2"), parse_form("z1^2"), BinaryForm.zero(2)]
    s = QLikeStructure(3, 1, PolyMatrix.from_columns(3, [col]), None,
                       complex_mode=True)
    report = validate(s)
    assert check_status(report, "injectivity") == "fail"


def test_reality_check_conic():
    report = validate(CONIC)
    assert check_status(report, "reality") == "pass"
    # break the conjugation: identity does not preserve the conic family
    bad = QLikeStructure(3, 1, CONIC.spanning, None, complex_mode=False)
    report_bad = validate(bad)
    assert check_status(report_bad, "reality") == "fail"


def test_analyze_labels_and_flags():
    a_conic = analyze(CONIC)
    assert a_conic.label == "rho-star-quaternionic"
    assert a_conic.flags["cr"] and not a_conic.flags["co_cr"]
    assert a_conic.u_minus == SplittingType.of([-2])
    assert a_conic.u_plus == SplittingType.of([1, 1])

    a_quat = analyze(QUAT)
    assert a_quat.label == "quaternionic"
    assert a_quat.u_minus == SplittingType.of([-1, -1])
    assert a_quat.u_plus == SplittingType.of([1, 1])

    a_plane = analyze(PLANE)
    assert a_plane.label == "general"
    assert a_plane.u_minus == SplittingType.of([-2])
    assert a_plane.u_plus == SplittingType.of([1, 1, 0])


def test_heaven_data_dimension_table():
    hd = heaven_data(QUAT)
    assert (hd.u_plus_dim, hd.e_plus_dim) == (4, 4)
    assert rank(hd.psi_plus) == 4                      # bijective

    hd_c = heaven_data(CONIC)
    assert (hd_c.u_plus_dim, hd_c.e_plus_dim) == (4, 4)
    assert rank(hd_c.psi_plus) == 3                    # injective, coker 1

    hd_p = heaven_data(PLANE)
    assert (hd_p.u_plus_dim, hd_p.e_plus_dim) == (5, 4)
    assert rank(hd_p.psi_plus) == 4                    # injective, coker 1


def test_minus_data_dimension_table():
    md_q = minus_data(heaven_data(QUAT))
    assert md_q.u_minus_dim == 4
    assert rank(md_q.psi_minus) == 4                   # bijective

    md_c = minus_data(heaven_data(CONIC))
    assert md_c.u_minus_dim == 3
    assert rank(md_c.psi_minus) == 3                   # bijective

    md_p = minus_data(heaven_data(PLANE))
    assert md_p.u_minus_dim == 3
    assert rank(md_p.psi_minus) == 3                   # injective
    # image is the first three coordinates
    for v in ([ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]):
        pass
    image_rows = [[md_p.psi_minus[i][j] for i in range(4)] for j in range(3)]
    assert all(row[3].is_zero() for row in image_rows)


def test_factorization_fixture_tables():
    rep_q = factorization(QUAT)
    assert rep_q.passed and rep_q.iso_found
    assert rep_q.dims["ker_psi_minus"] == 0
    assert rep_q.dims["coker_rho_plus"] == 0

    rep_c = factorization(CONIC)
    assert rep_c.passed
    assert rep_c.dims["ker_psi_minus"] == rep_c.dims["ker_rho_plus"] == 0
    assert rep_c.dims["ker_rho_minus_star"] == rep_c.dims["ker_psi_plus"] == 0
    assert rep_c.dims["coker_rho_minus_star"] == \
        rep_c.dims["coker_psi_plus"] == 1
    assert rep_c.dims["coker_psi_minus"] == rep_c.dims["coker_rho_plus"] == 0

    rep_p = factorization(PLANE)
    assert rep_p.passed and rep_p.solvable


def test_serre_dimension_identity():
    for s in (CONIC, QUAT, PLANE):
        hd = heaven_data(s)
        md = minus_data(hd)
        assert hd.h_plus_dim == md.h_minus_dim
        assert hd.e_plus_dim == md.e_minus_dim


def test_dualize_involution_and_swap():
    for s in (CONIC, QUAT, PLANE):
        d = dualize(s)
        dd = dualize(d)
        assert family_span_equal(minus_family(dd), minus_family(s))
    a_dual = analyze(dualize(CONIC))
    assert a_dual.label == "rho-quaternionic"
    assert a_dual.flags["co_cr"] and not a_dual.flags["cr"]
    assert a_dual.u_minus == SplittingType.of([-1, -1])
    assert a_dual.u_plus == SplittingType.of([2])


def test_dual_conjugation_is_inverse_transpose():
    d = dualize(CONIC)
    assert d.conjugation is not None
    report = validate(d)
    assert report.passed


def test_real_mode_conjugation_squares():
    hd = heaven_data(QUAT)
    assert hd.conj_u_plus is not None
    assert hd.conj_h_plus is not None
    assert hd.conj_e_plus is not None
    hd_c = heaven_data(CONIC)
    assert hd_c.conj_e_plus is not None


def test_morphism_identity():
    ident = identity(3)
    assert check_morphism(CONIC, CONIC, ident, [[1, 0], [0, 1]])


def test_morphism_to_section_structure():
    # the plus map into the section space, with the induced line-pair family
    hd = heaven_data(CONIC)
    # U_plus = pairs (f1, f2) of linear forms; sections vanishing at z are
    # spanned by (z1 w0 - z0 w1) in each slot: a degree-1 spanning matrix
    cols = []
    for slot in range(2):
        col = [BinaryForm.zero(1)] * 4
        col[2 * slot] = Z1
        col[2 * slot + 1] = -Z0
        cols.append(col)
    target = QLikeStructure(4, 2, PolyMatrix.from_columns(4, cols),
                            None, complex_mode=True)
    source = QLikeStructure(3, 1, CONIC.spanning, None, complex_mode=True)
    assert check_morphism(source, target, hd.psi_plus, [[1, 0], [0, 1]])


def test_morphism_quaternion_examples():
    mi, mj, mk = _left_quaternion_matrices(1)
    ident = identity(4)
    # right multiplication by j commutes with the left structure maps
    rj = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
    assert check_morphism(QUAT, QUAT, rj, [[1, 0], [0, 1]])
    # left multiplication by j moves the sphere by the swap Moebius map
    assert check_morphism(QUAT, QUAT, mj, [[0, 1], [1, 0]])
    assert not check_morphism(QUAT, QUAT, mj, [[1, 0], [0, 1]])


def test_morphism_requires_equivariant_t_in_real_mode():
    with pytest.raises(InvalidInput):
        check_morphism(QUAT, QUAT, identity(4), [[1, 1], [0, 1]])


def test_random_structures_all_valid_and_factorize():
    structures = random_structures(123, 6)
    for s in structures:
        report = validate(s)
        assert report.passed
        fact = factorization(s)
        assert fact.solvable
        assert all(fact.facts.values()), fact.facts


def test_heaven_of_rho_quaternionic_is_bijective():
    # rho-quaternionic structures have psi_plus bijective (idempotent heaven)
    structures = random_structures(77, 4)
    for s in structures:
        a = analyze(s)
        if a.label in ("quaternionic", "rho-quaternionic"):
            hd = heaven_data(s)
            assert rank(hd.psi_plus) == hd.u_plus_dim == s.dim


def test_structure_json_round_trip():
    for s in (CONIC, QUAT, PLANE):
        back = QLikeStructure.from_json(s.to_json())
        assert back.dim == s.dim and back.k == s.k
        assert back.complex_mode == s.complex_mode
        assert family_span_equal(minus_family(back), minus_family(s))


# sha256 of the canonical JSON of analyze and dualize on the shipped
# fixtures; report bytes are part of the contract.
GOLDEN_DIGESTS = {
    "conic_r3.json": (
        "7c3e6681a9fc593f230a0af379aed79ba2d77d1f23dab0e933a3673fba7288b1",
        "f7b3cc064dc3f27de1ef2eb38434954f7c5526b837e058f3a960e7be57a8da38"),
    "quaternionic_h1.json": (
        "838e7454caff0b92d2196e3e5c8edc719e2ab7f78883d3273dcf198de9001aa4",
        "99d22d6fdf60ffb04f5a86e1b79e88e169a631a89bbc308187198d6ba15ad4a5"),
    "twisted_plane_c4.json": (
        "69917ad645fe66004c926df9228e8d8c1b2991fc0372ec2a3bece9c1cbecf974",
        "d6690b23f99592a37687dc15cf4433f784ca5d1605d61dd1f2b21abebcfbd5c1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_fixture_report_digests(name):
    path = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1",
                        name)
    s = load_structure_file(path)
    assert (digest(analyze(s).to_json()),
            digest(dualize(s).to_json())) == GOLDEN_DIGESTS[name]


def test_dual_family_is_the_annihilator():
    # minus_data takes the dual structure's family and annihilator from the
    # heaven data instead of deriving them again; that is exact only if
    # both derivations return these very bases (the second one is computed
    # on a link-free copy, so it does not read the link saturate set)
    for s in [CONIC, QUAT, PLANE] + random_structures(123, 4):
        fam = saturate(s.spanning)
        ann = annihilator(fam)
        assert saturate(ann.basis).basis == ann.basis
        assert annihilator(unlinked(ann)).basis == fam.basis


def test_saturation_hands_over_the_annihilator():
    # saturate links the family and the annihilator generators it built to
    # each other, and analyze reads the links in place of annihilator's
    # graded kernel; that is exact only if each link is the very basis a
    # fresh annihilator returns, from both sides
    for s in [CONIC, QUAT, PLANE] + random_structures(123, 4):
        fam = saturate(s.spanning)
        ann = annihilator(fam)
        assert annihilator(ann) is fam
        assert ann.basis == annihilator(unlinked(fam)).basis
        assert fam.basis == annihilator(unlinked(ann)).basis
        assert validate(s).family.basis == fam.basis


def test_each_family_and_annihilator_is_derived_once(monkeypatch):
    # count what bundles calls, and the graded kernel that
    # annihilator_generators runs inside polymatrix
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("graded_kernel", "annihilator_generators", "generic_rank"):
        monkeypatch.setattr(bundles, name,
                            counting(name, getattr(bundles, name)))
    monkeypatch.setattr(polymatrix, "graded_kernel", bundles.graded_kernel)
    for s in [CONIC, QUAT, PLANE] + random_structures(123, 4):
        v = validate(s)
        calls.clear()
        analyze(s, v)
        assert calls == Counter()
        dualize(s)
        # one saturation: its rank, the annihilator generators and the
        # graded kernel over them; the annihilator is the link
        assert calls == Counter({"generic_rank": 1,
                                 "annihilator_generators": 1,
                                 "graded_kernel": 2})


# sha256 of the canonical JSON of each minus family and of its annihilator
# for random_structures(123, 4), recorded before the graded kernel chose its
# generators with linalg.independent_rows; the choice fixes the generator
# vectors, not only their degrees.
FAMILY_DIGESTS = [
    ("6ed26aa32ebf38b7fad384167615510c626846ee9595123d3cc063bcbde21b72",
     "066ea9786a6e2fbc121b0460b63d2fc8fade92fd55960d08821928ab37cdbc5f"),
    ("bef30dca94f4c6905ea62ead6c05f5cffee60785456ede6da27bc9e24be12e6a",
     "925b1a24e1faf757423b089f28c58bab13d37f098b019ecfe466b9fba6b3a478"),
    ("9c4438019ab00ddc9d37cef0c53e7a55a05a5d64a27b442b9bcf1ba31363abe9",
     "3b01f15acbe1096d92689f4e874b4c3d81f2a4ddde5d3d28e1e0c3f742143f11"),
    ("ace54f2a5bb865ee24cbf032f86836b92c0481ccde9cf22b0c9e7a0ad38cfdad",
     "0e841a6017af71f62b1f91de1a5fad14b6287289b7f84668403d364ccde13fa3"),
]


def test_random_family_digests():
    got = []
    for s in random_structures(123, 4):
        fam = minus_family(s)
        got.append((digest(fam.to_json()), digest(annihilator(fam).to_json())))
    assert got == FAMILY_DIGESTS


def _gaussian_polys(max_degree):
    pair = st.tuples(st.integers(-50, 50), st.integers(-50, 50))
    return st.lists(pair, min_size=0, max_size=max_degree + 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6).flatmap(
    lambda d: st.tuples(st.just(d), _gaussian_polys(d), _gaussian_polys(d))))
def test_two_point_minor_times_diagonal(case):
    # H(x, y) (y - x) = pa(x) pb(y) - pb(x) pa(y), coefficient by coefficient
    d, pa, pb = case
    coeff = {}
    for i, (ar, ai) in enumerate(pa):
        for j, (br, bi) in enumerate(pb):
            for (x, y), sign in (((i, j), 1), ((j, i), -1)):
                cr, ci = coeff.get((x, y), (0, 0))
                coeff[x, y] = (cr + sign * (ar * br - ai * bi),
                               ci + sign * (ar * bi + ai * br))
    minor = {k: v for k, v in coeff.items() if v != (0, 0)}
    H = _bivariate_two_point(pa, pb, d)
    if H is None:
        assert not minor
        return
    assert H[-1] and all(row == [] or row[-1] != (0, 0) for row in H)
    times = {}
    for x, row in enumerate(H):
        for y, (hr, hi) in enumerate(row):
            for key, sign in (((x, y + 1), 1), ((x + 1, y), -1)):
                cr, ci = times.get(key, (0, 0))
                times[key] = (cr + sign * hr, ci + sign * hi)
    assert {k: v for k, v in times.items() if v != (0, 0)} == minor


# sha256 of the canonical JSON of validate on the shipped fixtures and on
# random_structures(123, 8), recorded before the Pluecker coordinates and
# the two-point minors moved to Gaussian-integer pairs; the verdicts and
# details must not move with the arithmetic.
VALIDATION_DIGESTS = [
    "70164cac4560c9f1eacda58d43c016421365720485572f255b2fe41b7e1354ff",
    "83ec94fb2773877236726c1349fb1b771ad86a64b5bae2d1c636d2d451a3ddf3",
    "d30df6b853069751f9f960a95deda78d274aee92e85ca12f3d8056147a0b1ba8",
    "1ac4063b63252ff9ee3c255f7bee4455abcbbb0cef8ab5f7d92a28c3a556b8bd",
    "c18a6f19b7c1eef95a7271695a6e982e55f38c02edf18a03df78f75b0490e88b",
    "28df9bbe6dd1d66593607804f3c61196d722dd89d7fd9619bc495de1260fe42f",
    "ed09eeb52c559161dd4adf670df3f5a4b3472a3ee75024d046a70fe243ac69c6",
    "8bb2e9f56a3e4ce6ffb9d61580d010444b09d245e8aa62e6f7dfbbd7a446997c",
    "6777673a2f0f9641a1b15da6b7444b170a3d5348098a9bb0f67d15e077163070",
    "adaea34a8a53023dfd2f7b2edd70b87478719f1e47d4bcbf5fdaa1b813ab62a4",
    "e912c8512bf6b6917637b290213447be16b2048ce00774a145376378c2598f71",
]


def test_validation_digests():
    folder = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1")
    structures = [load_structure_file(os.path.join(folder, name))
                  for name in sorted(GOLDEN_DIGESTS)]
    got = [digest(validate(s).to_json())
           for s in structures + random_structures(123, 8)]
    assert got == VALIDATION_DIGESTS


def _fixture_structures():
    folder = os.path.join(os.path.dirname(catalog.__file__), "fixtures", "v1")
    return [load_structure_file(os.path.join(folder, name))
            for name in sorted(GOLDEN_DIGESTS)]


def test_cusp_fails_immersion_through_the_exact_route():
    # [z0^3 : z0 z1^2 : z1^3] has a cusp at z1 = 0, so no modular
    # certificate exists and the exact Wronskian gcd decides the failure
    col = [parse_form("z0^3"), parse_form("z0*z1^2"), parse_form("z1^3")]
    s = QLikeStructure(3, 1, PolyMatrix.from_columns(3, [col]), None,
                       complex_mode=True)
    report = validate(s)
    assert check_status(report, "immersion") == "fail"
    assert report.routes["immersion"] == "exact"
    assert report.routes["pluecker"] == "modular:%d" % PRIMES[0]


def test_exact_curve_routes_keep_validation_digests(monkeypatch):
    # with no prime to certify at, the Pluecker gcd and immersion take the
    # exact route, and the reports must not move
    certify = embedding.coprime_forms_prime
    monkeypatch.setattr(embedding, "coprime_forms_prime",
                        lambda reductions, primes=(): certify(reductions, ()))
    reports = [validate(s)
               for s in _fixture_structures() + random_structures(123, 4)]
    assert all(r.routes["pluecker"] == r.routes["immersion"] == "exact"
               for r in reports)
    assert [digest(r.to_json()) for r in reports] == VALIDATION_DIGESTS[:7]


def test_routes_are_recorded_but_not_serialized():
    for s in _fixture_structures():
        report = validate(s)
        assert set(report.routes) == {"pluecker", "immersion", "injectivity"}
        assert all(route == "exact" or route.startswith("modular:")
                   for route in report.routes.values())
        text = canonical_json(report.to_json())
        report.routes.clear()
        assert canonical_json(report.to_json()) == text
        assert "modular" not in text
