import importlib.util
import os
import random
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from math import lcm

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qlike import (bundles, catalog, embedding, linalg, modp, polymatrix,
                   sampling, structures)

from oracles import (dense_intertwiner, left_quaternion_matrices,
                     plus_conjugations, plus_side_generic_by_sections,
                     scalar_factorization)
from qlike.bundles import SplittingType
from qlike.catalog import (build_conic_r3, build_quaternionic,
                           build_twisted_plane_c4)
from qlike.errors import InternalError, InvalidInput
from qlike.forms import (BinaryForm, Z0, Z1, ip_mul, ip_scale, ip_sub,
                         parse_form)
from qlike.linalg import identity, rank
from qlike.polymatrix import PolyMatrix, _section_layout
from qlike.sampling import random_structures
from qlike.scalars import I, ONE, Scalar, ZERO, gaussian
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
    # d = 0: the one constant coordinate spans all degree-0 forms, yet the
    # rational-normal-curve rule needs d >= 1
    assert [(c.status, c.detail) for c in report.checks
            if c.name in ("immersion", "injectivity")] == [
        ("fail", "constant map, not an embedding"), ("fail", "constant map")]
    assert report.routes["immersion"] == report.routes["injectivity"] == "exact"


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


DUAL_LABEL = {"quaternionic": "quaternionic", "general": "general",
              "rho-quaternionic": "rho-star-quaternionic",
              "rho-star-quaternionic": "rho-quaternionic"}


def test_dualize_swaps_the_labels_and_the_cr_flags():
    # the dual exchanges the two sides, so rho with rho-star and cr with
    # co_cr, on the fixtures and a draw that between them show every label
    seen = set()
    for s in _fixture_structures() + random_structures(123, 8):
        a, b = analyze(s), analyze(dualize(s))
        assert b.label == DUAL_LABEL[a.label]
        assert (b.flags["cr"], b.flags["co_cr"]) == (a.flags["co_cr"],
                                                     a.flags["cr"])
        seen.add(a.label)
    assert seen == set(DUAL_LABEL)


def test_dual_conjugation_is_inverse_transpose():
    d = dualize(CONIC)
    assert d.conjugation is not None
    report = validate(d)
    assert report.passed


def test_real_mode_conjugation_squares():
    # the three parts of heaven_data's real-mode proof, on the oracle's
    # C_U and C_H: C_U conj(C_U) = 1, C_H conj(C_H) = -1, E_plus = S1 tensor
    # H_plus with ce = [[0, C_H], [-C_H, 0]] and ce conj(ce) = 1, and
    # psi_plus C = C_U conj(psi_plus); on the real structures the digest
    # tool digests and on every coordinate change of the invariance test
    moved = [_moved_structure(s, g, T) for a, b in REAL_MOVES
             for s, g, T in _antipodal_moves(a, b)]
    for s in [s for _, s in _real_structures()] + moved:
        hd = heaven_data(s)
        cu, ch = plus_conjugations(hd)
        hp = hd.h_plus_dim
        assert linalg.mat_mul(cu, linalg.conj_matrix(cu)) == \
            identity(hd.u_plus_dim)
        assert linalg.mat_mul(ch, linalg.conj_matrix(ch)) == \
            [[-x for x in row] for row in identity(hp)]
        pad = [ZERO] * hp
        ce = [pad + row for row in ch] + [[-x for x in row] + pad
                                          for row in ch]
        assert len(ce) == hd.e_plus_dim
        assert linalg.mat_mul(ce, linalg.conj_matrix(ce)) == \
            identity(hd.e_plus_dim)
        assert linalg.mat_mul(hd.psi_plus, s.conjugation_matrix()) == \
            linalg.mat_mul(cu, linalg.conj_matrix(hd.psi_plus))


def test_real_analysis_solves_for_no_conjugation(monkeypatch):
    # heaven_data proves the induced conjugations, so analyze solves for no
    # conjugated annihilator generator on either side
    real = [s for _, s in _real_structures()]
    validations = [validate(s) for s in real]
    calls = []
    solve = structures.solve_combination

    def counting(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(structures, "solve_combination", counting)
    for s, report in zip(real, validations):
        assert analyze(s, report).passed
    assert calls == []


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
    mi, mj, mk = left_quaternion_matrices(1)
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


@pytest.mark.parametrize("rows, cols", [(2, 3), (3, 4), (4, 3)])
def test_morphism_rejects_psi_of_the_wrong_shape(rows, cols):
    psi = [[int(i == j) for j in range(cols)] for i in range(rows)]
    with pytest.raises(InvalidInput, match="psi must be 3x3"):
        check_morphism(CONIC, CONIC, psi, [[1, 0], [0, 1]])


def test_morphism_rejects_t_of_the_wrong_shape():
    with pytest.raises(InvalidInput, match="T must be 2x2"):
        check_morphism(CONIC, CONIC, identity(3), [[1, 0, 0], [0, 1, 0]])


def _unit_triangular(rng, n, lower):
    """A unitriangular matrix with entries in {-1, 0, 1} + {-1, 0, 1} i."""
    return [[ONE if i == j else
             Scalar(rng.randint(-1, 1), rng.randint(-1, 1))
             if (i > j) == lower else ZERO for j in range(n)]
            for i in range(n)]


def _moved_structure(S, g, T):
    """S' whose spanning columns are g . c(T z), c the columns of S, and
    whose conjugation, in real mode, is g C conj(g)^-1."""
    degrees = S.spanning.col_degrees
    cols = [polymatrix._apply_scalar_matrix(
                g, [f.substitute(*T[0], *T[1]) for f in col], d)
            for col, d in zip(S.spanning.columns(), degrees)]
    spanning = PolyMatrix.from_columns(S.dim, cols, degrees)
    C = None if S.complex_mode else linalg.mat_mul(
        linalg.mat_mul(g, S.conjugation_matrix()),
        linalg.inverse(linalg.conj_matrix(g)))
    return QLikeStructure(S.dim, S.k, spanning, C,
                          complex_mode=S.complex_mode)


def _invariants(report):
    data = report.to_json()
    checks = [(c["name"], c["status"]) for c in data.pop("validation")["checks"]]
    return checks, data


def _assert_coordinate_change_is_invisible(s, g, T):
    """S' = g . S o T is isomorphic to S, so every invariant analyze reports
    agrees, and (g, T^-1) is a morphism S -> S' where (g, T) is not."""
    moved = _moved_structure(s, g, T)
    assert _invariants(analyze(moved)) == _invariants(analyze(s))
    assert check_morphism(s, moved, g, linalg.inverse(T))
    assert not check_morphism(s, moved, g, T)
    return moved


def _coordinate_change(rng, n):
    return linalg.mat_mul(_unit_triangular(rng, n, False),
                          _unit_triangular(rng, n, True))


def test_analysis_is_invariant_under_a_change_of_coordinates():
    rng = random.Random(10)
    for step, s in enumerate(random_structures(20250808, 10)):
        T = ((1, 1, 0, 1), (2, 1, 1, 1))[step % 2]
        T = [[Scalar(T[0]), Scalar(T[1])], [Scalar(T[2]), Scalar(T[3])]]
        _assert_coordinate_change_is_invisible(
            s, _coordinate_change(rng, s.dim), T)


REAL_MOVES = [(ONE, ONE), (ONE + I, Scalar(2) - I)]


def _antipodal_moves(a, b):
    """(s, g, T) for the real fixtures: T = [[a, -conj(b)], [b, conj(a)]]
    commutes with the antipodal map, and g is a seeded coordinate change."""
    rng = random.Random(10)
    T = [[a, -b.conjugate()], [b, a.conjugate()]]
    return [(s, _coordinate_change(rng, s.dim), T)
            for s in (QUAT, CONIC, build_quaternionic(2))]


@pytest.mark.parametrize("a, b", REAL_MOVES, ids=["1,1", "1+i,2-i"])
def test_real_analysis_is_invariant_under_a_change_of_coordinates(a, b):
    # the moved structure is real for C' = g C conj(g)^-1, not for C
    for s, g, T in _antipodal_moves(a, b):
        moved = _assert_coordinate_change_is_invisible(s, g, T)
        assert validate(moved).passed
        old_c = QLikeStructure(s.dim, s.k, moved.spanning, s.conjugation)
        assert check_status(validate(old_c), "reality") == "fail"


def test_random_structures_all_valid_and_factorize():
    structures = random_structures(123, 6)
    for s in structures:
        report = validate(s)
        assert report.passed
        fact = factorization(s)
        assert fact.solvable
        assert all(fact.facts.values()), fact.facts


def test_intertwiner_recurrence_matches_dense_system():
    pool = ([CONIC, QUAT, PLANE, build_quaternionic(2)]
            + random_structures(1, 30))
    seen = Counter()
    for n, s in enumerate(pool):
        hd = heaven_data(s)
        md = minus_data(hd)
        perturbed = _with_psi_plus(hd, [row[:] for row in hd.psi_plus])
        perturbed.psi_plus[0][0] += ONE
        cases = [("given", hd), ("perturbed", perturbed)]
        if n < 4:
            # psi_plus = 0 is solved by X = 0, which is singular
            cases.append(("zero", _with_psi_plus(hd, [
                [ZERO] * len(row) for row in hd.psi_plus])))
        for kind, h in cases:
            X, homogeneous, invertible = dense_intertwiner(h, md)
            assert homogeneous == []
            fact = verify_factorization(h, md)
            assert fact.solvable == (X is not None)
            assert fact.solution_dim == 0
            assert fact.iso_found == invertible
            if X is not None:
                assert structures._intertwiner(
                    h.psi_plus, md.psi_minus, h.ann.degrees,
                    md.dual_heaven.ann.degrees) == X
                assert fact.facts["rho_minus_star_maps_ker_psi_minus_onto_"
                                  "iota_inv_ker_rho_plus"] == invertible
            seen[kind, fact.solvable, fact.iso_found] += 1
    assert seen == Counter({("given", True, True): len(pool),
                            ("perturbed", False, False): len(pool),
                            ("zero", True, False): 4})


def _with_psi_plus(hd, psi):
    """A copy of the heaven data hd with psi_plus replaced by psi."""
    return structures.HeavenData(hd.structure, hd.family, hd.ann,
                                 hd.u_plus_dim, hd.h_plus_dim, hd.e_plus_dim,
                                 psi)


def _perturbed(hd, row, column, delta):
    psi = [r[:] for r in hd.psi_plus]
    psi[row][column] += delta
    return _with_psi_plus(hd, psi)


def test_integer_route_matches_the_scalar_route():
    # the Gaussian-integer product with per-block denominators and the
    # ranks read off the annihilator degrees give the same X, verdicts,
    # dims and facts as mat_mul, the Scalar recurrence, the four kernels
    # and one mat_vec per kernel vector
    pool = ([CONIC, QUAT, PLANE, build_quaternionic(2)]
            + random_structures(1, 30))
    seen = Counter()
    for s in pool:
        hd = heaven_data(s)
        md = minus_data(hd)
        # a change to column c of psi_plus reaches L = psi_plus . psi_minus
        # exactly when row c of psi_minus is nonzero; it then breaks an
        # antidiagonal sum of a block, which every solvable L has zero
        c = next(c for c, row in enumerate(md.psi_minus) if any(row))
        last = len(hd.psi_plus) - 1
        den = _perturbed(hd, 0, c, gaussian(1, 1, 1000003))
        assert (lcm(*[x.d for x in den.psi_plus[0]])
                != lcm(*[x.d for x in hd.psi_plus[0]]))
        # i, not 1: where psi_minus is real only imaginary parts move
        cases = [("given", hd), ("last-plus-block",
                                 _perturbed(hd, last, c, I)),
                 ("row-denominator", den)]
        for kind, h in cases:
            X, solvable, iso_found, dims, facts = scalar_factorization(h, md)
            fact = verify_factorization(h, md)
            assert structures._intertwiner(
                h.psi_plus, md.psi_minus, h.ann.degrees,
                md.dual_heaven.ann.degrees) == X
            assert (fact.solvable, fact.iso_found, fact.dims, fact.facts) == \
                (solvable, iso_found, dims, facts)
            seen[kind, solvable] += 1
    assert seen == Counter({("given", True): len(pool),
                            ("last-plus-block", False): len(pool),
                            ("row-denominator", False): len(pool)})


DIGEST_TOOL = Path(__file__).resolve().parent.parent / "tools" / \
    "report_digest.py"


def _digest_tool():
    spec = importlib.util.spec_from_file_location("report_digest", DIGEST_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _constant_generator_structures():
    """The structures with degree-0 minus summands that
    tools/report_digest.py digests."""
    return _digest_tool().constant_generator_structures()


def _real_structures():
    """The real-mode structures that tools/report_digest.py digests."""
    return _digest_tool().real_structures()


def _psi_minus_edited(md, edit):
    psi = [row[:] for row in md.psi_minus]
    for row in psi:
        edit(row)
    return structures.MinusData(md.dual_heaven, md.u_minus_dim,
                                md.h_minus_dim, md.e_minus_dim, psi)


def test_degree_zero_minus_summands_match_the_scalar_route():
    # a degree-0 minus summand puts its S_0 coordinate z in ker
    # rho_minus_star, which none of the suite's random draws reaches.  psi_minus's column z
    # lies in ker psi_plus, so L = psi_plus . psi_minus, and with it the
    # identity, keeps its solutions when that column is zeroed, copied
    # onto a second degree-0 column, or moved (added to the next column
    # and zeroed).  Copied onto a column of positive degree, it breaks the
    # identity.  Moved on the dual plane, whose ker psi_minus is not zero,
    # only the independence of the columns at Z fails fact b.
    fact_b = "rho_minus_star_maps_ker_psi_minus_onto_iota_inv_ker_rho_plus"
    fact_c = "psi_minus_maps_ker_rho_minus_star_onto_ker_psi_plus"
    seen = Counter()
    for name, s in _constant_generator_structures():
        hd = heaven_data(s)
        md = minus_data(hd)
        degrees = md.dual_heaven.ann.degrees
        _, offsets, _ = _section_layout(degrees, 0)
        zs = [o for o, e in zip(offsets, degrees) if e == 0]
        z = zs[0]
        target = zs[1] if len(zs) > 1 else z + 1

        def zero(row):
            row[z] = ZERO

        def copy(row):
            row[target] = row[z]

        def move(row):
            row[z + 1], row[z] = row[z + 1] + row[z], ZERO

        cases = [("given", md), ("zeroed", _psi_minus_edited(md, zero)),
                 ("copied", _psi_minus_edited(md, copy)),
                 ("moved", _psi_minus_edited(md, move))]
        for kind, m in cases:
            X, solvable, iso_found, dims, facts = scalar_factorization(hd, m)
            fact = verify_factorization(hd, m)
            assert (fact.solvable, fact.iso_found, fact.dims, fact.facts) == \
                (solvable, iso_found, dims, facts), (name, kind)
            assert dims["ker_rho_minus_star"] == len(zs)
            seen[kind, solvable, facts["kernel_dims_match"],
                 facts.get(fact_b), facts[fact_c]] += 1
    assert seen == Counter({("given", True, True, True, True): 4,
                            ("zeroed", True, False, False, False): 4,
                            ("copied", True, False, False, False): 1,
                            ("copied", False, True, None, True): 1,
                            ("copied", False, False, None, True): 2,
                            ("moved", True, True, False, False): 1,
                            ("moved", True, False, False, False): 3})


def test_factorization_builds_no_scalar_product(monkeypatch):
    # verify_factorization forms every product in Gaussian integers
    pairs = []
    for s in _fixture_structures() + random_structures(20250808, 9):
        hd = heaven_data(s)
        pairs.append((hd, minus_data(hd)))

    def refuse(*args):
        raise AssertionError("Scalar product in verify_factorization")
    assert not hasattr(structures, "mat_vec")
    monkeypatch.setattr(structures, "mat_mul", refuse)
    monkeypatch.setattr(linalg, "mat_mul", refuse)
    monkeypatch.setattr(linalg, "mat_vec", refuse)
    for hd, md in pairs:
        assert verify_factorization(hd, md).passed


def test_sampler_redraws_bad_input_only(monkeypatch):
    calls = []

    def rejecting(s):
        calls.append(s)
        if len(calls) < 3:
            raise InvalidInput("rejected draw")
        return validate(s)

    monkeypatch.setattr(sampling, "validate", rejecting)
    assert len(random_structures(123, 1)) == 1 and len(calls) >= 3

    def broken(s):
        raise InternalError("broken invariant")

    # a broken invariant is not a bad draw: it reaches the caller (exit 3)
    monkeypatch.setattr(sampling, "validate", broken)
    with pytest.raises(InternalError, match="broken invariant"):
        random_structures(123, 1)


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
    # count the graded kernels and generic ranks that bundles runs
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("graded_kernel", "graded_kernel_from_basis", "generic_rank"):
        monkeypatch.setattr(bundles, name,
                            counting(name, getattr(bundles, name)))
    from_basis = []
    for s in [CONIC, QUAT, PLANE] + random_structures(123, 4):
        v = validate(s)
        calls.clear()
        analyze(s, v)
        assert calls == Counter()
        dualize(s)
        # one saturation: its rank, the annihilator generators, and its
        # basis from the spanning columns or, when they are not a free
        # basis, the graded kernel over the annihilator generators; the
        # annihilator is the link
        from_basis.append(calls["graded_kernel_from_basis"])
        assert calls == +Counter({"generic_rank": 1,
                                  "graded_kernel": 2 - from_basis[-1],
                                  "graded_kernel_from_basis": from_basis[-1]})
    assert from_basis == [1, 1, 1, 0, 1, 1, 1]


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
    # H(x, y) = H(y, x): a minor of y-degree 0 is constant, which is why
    # resultant_gcd_is_constant needs no branch for y-free minors
    entries = {(x, y): c for x, row in enumerate(H) for y, c in enumerate(row)
               if c != (0, 0)}
    assert entries == {(y, x): c for (x, y), c in entries.items()}


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


def column_structure(texts):
    """The complex structure of one column of forms, k = 1."""
    col = [parse_form(t) for t in texts]
    return QLikeStructure(len(col), 1, PolyMatrix.from_columns(len(col), [col]),
                          None, complex_mode=True)


def spans_all_forms(coords):
    """Whether the padded Pluecker forms span all forms of their degree
    d >= 1, by an exact rank."""
    d = len(coords[0]) - 1
    rows = [[Scalar(re, im) for re, im in g] for g in coords]
    return d >= 1 and rank(rows) == d + 1


def test_rational_normal_curves_agree_with_the_certificates():
    # every curve whose Pluecker forms span all degree-d forms skips the
    # certificates; run them anyway, and they must pass it too
    taken = 0
    for s in (_fixture_structures() + random_structures(20250808, 53)
              + random_structures(123, 8)):
        family = saturate(s.spanning)
        coords = embedding._pluecker_forms(family)
        if not spans_all_forms(coords):
            continue
        taken += 1
        gamma, _ = embedding._reduced_pluecker(coords)
        assert len(gamma) == len(coords[0])
        ok, _ = embedding._immersion_check(gamma)
        status, detail, _ = embedding._injectivity_check(gamma)
        checks, routes = embedding.curve_checks(family)
        assert checks == [("immersion", "pass" if ok else "fail", ""),
                          ("injectivity", status, detail)]
        assert set(routes.values()) == {"exact"}
    assert taken >= 40


def sphere_family_columns(degrees):
    """The spanning columns of a sphere family, as tools/report_digest.py
    builds them: degree-1 columns, most of whose minors vanish."""
    return _digest_tool().sphere_family_columns(degrees)


def test_short_modular_pluecker_rank_keeps_checks_and_routes(monkeypatch):
    # the modular rank agrees with the exact one on every curve here; read
    # short, the rational normal curve rule falls to the exact expansion
    # and its rank, and every check and route stays as it was
    families = [saturate(s.spanning) for s in
                _fixture_structures() + random_structures(20250808, 20)]
    families += [saturate(sphere_family_columns(degrees))
                 for degrees in ((2, 2, 1, 1, 1, 1), (4, 4, 4))]
    before = [embedding.curve_checks(f) for f in families]
    for f in families:
        coords = embedding._pluecker_forms(f)
        rows = [[Scalar(re, im) for re, im in g] for g in coords]
        assert embedding._pluecker_rank_modp(f) == rank(rows)
    expansions = []
    real = embedding._pluecker_coordinates

    def recording(family):
        expansions.append(family)
        return real(family)

    monkeypatch.setattr(embedding, "_pluecker_rank_modp", lambda family: 0)
    monkeypatch.setattr(embedding, "_pluecker_coordinates", recording)
    assert [embedding.curve_checks(f) for f in families] == before
    assert len(expansions) == len(families)
    assert sum(routes == dict.fromkeys(("pluecker", "immersion",
                                         "injectivity"), "exact")
               for _, routes in before) >= 15


def test_twisted_cubic_runs_no_certificate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rational normal curve needs no certificate")
    for name in ("coprime_forms_prime", "independent_rows",
                 "_wronskians_modp"):
        monkeypatch.setattr(embedding, name, refuse)
    monkeypatch.setattr(modp, "resultant_gcd_is_constant", refuse)
    report = validate(column_structure(["z0^3", "z0^2*z1", "z0*z1^2",
                                        "z1^3"]))
    assert report.passed, report.to_json()
    assert report.routes == dict.fromkeys(
        ("pluecker", "immersion", "injectivity"), "exact")


def test_smooth_quartic_takes_the_certificates():
    # (z0^4, z0^3 z1, z0 z1^3, z1^4) is embedded in P^3, but its forms
    # miss z0^2 z1^2: beta = d = 4, so the modular certificates decide it
    s = column_structure(["z0^4", "z0^3*z1", "z0*z1^3", "z1^4"])
    assert not spans_all_forms(
        embedding._pluecker_forms(saturate(s.spanning)))
    report = validate(s)
    assert report.passed, report.to_json()
    assert report.routes["pluecker"] == "modular:%d" % PRIMES[0]
    assert report.routes["immersion"] == "modular:%d" % PRIMES[0]


SAMPLE_POINTS = ((1, 0), (0, 1), (1, 1))
# z1, z0 and z0 - z1 vanish at the first, second and third sample point
MULTIPLIERS = (Z1, Z0, Z0 - Z1)


def times(family, j, form):
    """The family with generator j multiplied by ``form`` (not saturated)."""
    cols = family.columns()
    degs = list(family.degrees)
    cols[j] = [f * form for f in cols[j]]
    degs[j] += form.degree
    return SubbundleFamily(family.ambient, PolyMatrix.from_columns(
        family.ambient, cols, degs))


def fibre_full_rank(family, z):
    return rank(family.fiber_at(*z)) == family.rank


def test_plus_side_genericity_is_the_fibre_rank():
    # heaven_data proves genericity as the annihilator's full fibre rank;
    # the section-space statement that stands for must agree in both
    # directions, on saturated families (the plus sides of a structure and
    # of its dual) and on the same families with one generator multiplied
    # by a linear form, whose fibre drops rank at exactly one sample point
    for s in [CONIC, QUAT, PLANE] + random_structures(123, 4):
        fam = saturate(s.spanning)
        for side in (annihilator(fam), fam):
            assert min(side.degrees) >= 0
            for z in SAMPLE_POINTS:
                assert plus_side_generic_by_sections(side, *z)
                assert fibre_full_rank(side, z)
            for j in range(side.rank):
                for form, point in zip(MULTIPLIERS, SAMPLE_POINTS):
                    bent = times(side, j, form)
                    got = [plus_side_generic_by_sections(bent, *z)
                           for z in SAMPLE_POINTS]
                    assert got == [fibre_full_rank(bent, z)
                                   for z in SAMPLE_POINTS]
                    assert got == [z != point for z in SAMPLE_POINTS]


def complement_sign(rows, n):
    """The sign of the permutation (I, I^c) of range(n), I = ``rows``."""
    return (-1) ** sum(1 for i in rows for j in range(i) if j not in rows)


def test_annihilator_minors_are_a_constant_multiple():
    # heaven_data's proof: B^T F = 0 makes B's minor at I^c a constant
    # times eps(I) times F's minor at I, the degree sums being equal, so
    # B has full fibre rank wherever F has, and F has it everywhere
    draw = random.Random(32)
    points = list(SAMPLE_POINTS) + [
        tuple(Scalar(draw.randint(-9, 9), draw.randint(-9, 9))
              for _ in range(2)) for _ in range(4)]
    for s in (_fixture_structures() + random_structures(20250808, 53)
              + random_structures(123, 8)):
        family = validate(s).family
        ann = annihilator(family)
        n, k = family.ambient, family.rank
        assert sum(ann.degrees) == sum(family.degrees)
        f = dict(zip(combinations(range(n), k),
                     embedding._pluecker_coordinates(family)))
        b = dict(zip(combinations(range(n), n - k),
                     embedding._pluecker_coordinates(ann)))
        # B's minor at the complement of each row set of F
        b = {rows: b[tuple(j for j in range(n) if j not in rows)]
             for rows in f}
        i0 = next(rows for rows, minor in f.items() if minor)
        assert b[i0]
        for rows, minor in f.items():
            lhs = ip_mul(b[rows], f[i0])
            rhs = ip_mul(minor, b[i0])
            assert not ip_sub(
                ip_scale(lhs, (complement_sign(i0, n), 0)),
                ip_scale(rhs, (complement_sign(rows, n), 0)))
        for z in points:
            assert rank(family.fiber_at(*z)) == k
            assert rank(ann.fiber_at(*z)) == n - k


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_section_space_genericity_matches_fibre_rank(data):
    # the equivalence needs only nonnegative degrees, not saturation
    n = data.draw(st.integers(2, 4))
    coeff = st.builds(Scalar, st.integers(-2, 2), st.integers(-2, 2))
    cols, degs = [], []
    for _ in range(data.draw(st.integers(1, n - 1))):
        d = data.draw(st.integers(0, 2))
        col = [BinaryForm(d, data.draw(st.lists(coeff, min_size=d + 1,
                                                max_size=d + 1)))
               for _ in range(n)]
        assume(not all(f.is_zero() for f in col))
        cols.append(col)
        degs.append(d)
    fam = SubbundleFamily(n, PolyMatrix.from_columns(n, cols, degs))
    bend = data.draw(st.sampled_from((None,) + MULTIPLIERS))
    if bend is not None:
        fam = times(fam, data.draw(st.integers(0, fam.rank - 1)), bend)
    for z in SAMPLE_POINTS:
        assert plus_side_generic_by_sections(fam, *z) == \
            fibre_full_rank(fam, z)


def test_analyze_takes_ker_psi_plus_only(monkeypatch):
    # of structures' kernels, only verify_factorization's ker psi_plus is
    # left: rho's kernels are read off the annihilator degrees and psi_minus
    # is only ranked; no section values are evaluated, the
    # canonical-sequence check included
    kernels = Counter()

    def counting_kernel(a):
        kernels["kernel_basis"] += 1
        return kernel_basis(a)

    kernel_basis = structures.kernel_basis
    monkeypatch.setattr(structures, "kernel_basis", counting_kernel)
    for module in (polymatrix, bundles, structures):
        assert not hasattr(module, "_section_values")
    for s in _fixture_structures():
        v = validate(s)
        kernels.clear()
        analyze(s, v)
        assert kernels == Counter({"kernel_basis": 1})


def test_analysis_verdict_reads_the_canonical_sequences(monkeypatch):
    report = analyze(CONIC)
    assert report.passed
    failed = dict(report.canonical_sequences, ok=False)
    assert not structures.AnalysisReport(
        report.validation, report.u_minus, report.u_plus, report.label,
        report.flags, report.dims, report.factorization, failed,
        report.serre_identity).passed
    # the catalog's verdict reads it too
    entry = next(e for e in catalog.catalog_entries()
                 if e.kind != "quadruple")
    assert catalog.run_structure_entry(entry)["ok"]
    monkeypatch.setattr(structures, "verify_canonical_for",
                        lambda quotient, st: {"ok": False})
    assert not catalog.run_structure_entry(entry)["ok"]
