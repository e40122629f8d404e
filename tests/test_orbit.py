import functools
import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from oracles import identity_by_all_pairs, weight_route_irreducibility
from qlike import bundles, lie, orbit, polymatrix
from qlike.bundles import (SplittingType, family_span_equal, saturate,
                           subquotient_splitting)
from qlike.catalog import (adjoint_expected, build_adjoint, build_so,
                           build_sp, build_veronese, catalog_entries,
                           entry_by_name)
from qlike.errors import InvalidInput
from qlike.forms import Z0, Z1, format_form, parse_form
from qlike.lie import (Representation, sl_algebra, principal_sl2_matrices,
                       Sl2Embedding, sl2_decompose)
from qlike.linalg import (inverse, mat_mul, mat_sub, mat_vec, rank,
                          solve_matrix)
from qlike.orbit import (GoodQuadruple, _restricted_sl2_matrices,
                         adjoint_multiplicity_count, dimension_report,
                         normal_bundle, orbit_tangent_family,
                         validate_good_quadruple, veronese_curve)
from qlike.polymatrix import (PolyMatrix, _apply_scalar_matrix, generic_rank,
                              graded_kernel)
from qlike.sampling import random_quadruples
from qlike.scalars import ONE, Scalar, ZERO
from qlike.serialize import quadruple_from_json
from test_loader_fuzz import QUADRUPLE
from test_structures import _unit_triangular


def test_nilpotent_family_squares_to_zero():
    # A(z) = [[z0 z1, -z0^2], [z1^2, -z0 z1]] has A(z)^2 = 0 identically
    a = [[Z0 * Z1, -(Z0 * Z0)], [Z1 * Z1, -(Z0 * Z1)]]
    for i in range(2):
        for j in range(2):
            s = a[i][0] * a[0][j] + a[i][1] * a[1][j]
            assert s.is_zero()
    # and parametrizes the full projectivized nilpotent cone: the image
    # satisfies the cone equation diag^2 + offdiag-product = 0 and is a
    # degree-2 injective curve into the conic, hence onto
    diag, up, low = Z0 * Z1, -(Z0 * Z0), Z1 * Z1
    assert (diag * diag + up * low).is_zero()


def test_veronese_curve_defining_rep():
    q = build_veronese(1)
    d, v_u, v_e = veronese_curve(q)
    assert d == 1
    assert v_e == [Z0, Z1]


def test_veronese_curve_k2_is_square_of_line():
    q = build_veronese(2)
    d, v_u, v_e = veronese_curve(q)
    assert d == 2
    # kernel vector is proportional to the coefficient square of (z0, z1):
    # check rank-one of all 2x2 two-point minors against (z0^2, z0 z1, z1^2)
    square = [parse_form("z0^2"), parse_form("z0*z1"), parse_form("z1^2")]
    for pts in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 3)):
        vals = [f.evaluate(*pts) for f in v_e]
        ref = [f.evaluate(*pts) for f in square]
        for i in range(3):
            for j in range(3):
                assert (vals[i] * ref[j] - vals[j] * ref[i]).is_zero()


def test_adjoint_sl2_curve_is_nilpotent_family():
    q = build_adjoint("sl(2)", "principal")
    d, v_u, v_e = veronese_curve(q)
    assert d == 2
    fams = orbit_tangent_family(q)
    # the orbit equals the curve: W = L'
    assert fams.w.rank == 2
    assert family_span_equal(fams.w, fams.l_prime)


def test_orbit_tangent_veronese2_full():
    q = build_veronese(2)
    fams = orbit_tangent_family(q)
    assert fams.w.rank == 3
    assert list(fams.w.degrees) == [0, 0, 0]


def test_validate_diagnostics_u_not_invariant():
    ma = sl_algebra(3)
    e, h, f = principal_sl2_matrices(3)
    tau = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    # a single weight line is not invariant
    u = [tuple([ONE, ZERO, ZERO])]
    q = GoodQuadruple(ma.algebra, ma.defining_representation(), tau, tuple(u))
    report = validate_good_quadruple(q)
    assert not report["valid"]
    assert any(c["name"] == "u-invariant" and c["status"] == "fail"
               for c in report["checks"])


def test_validate_diagnostics_trivial_action():
    ma = sl_algebra(4)
    # embed sl(2) in the top-left block; U = the bottom-right weight space
    e = [[ZERO] * 4 for _ in range(4)]
    e[0][1] = ONE
    h = [[ZERO] * 4 for _ in range(4)]
    h[0][0] = ONE
    h[1][1] = Scalar(-1)
    f = [[ZERO] * 4 for _ in range(4)]
    f[1][0] = ONE
    tau = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    u = [tuple([ZERO, ZERO, ONE, ZERO]), tuple([ZERO, ZERO, ZERO, ONE])]
    q = GoodQuadruple(ma.algebra, ma.defining_representation(), tau, tuple(u))
    report = validate_good_quadruple(q)
    assert not report["valid"]
    assert any(c["name"] == "u-irreducible-nontrivial"
               and c["status"] == "fail" for c in report["checks"])


def test_normal_bundle_veronese_formula_small():
    for k, expected in ((1, []), (2, [4]), (3, [5, 5])):
        report = normal_bundle(build_veronese(k),
                               expected=SplittingType.of(expected))
        assert report.match is not False
        assert report.normal == SplittingType.of(expected)
        assert report.dim_z == k


def test_normal_bundle_adjoint_live_formula():
    q = build_adjoint("sl(3)", "minimal")
    expected = adjoint_expected(q)
    assert expected == SplittingType.of([1, 1])
    report = normal_bundle(q, expected=expected)
    assert report.match
    dims = dimension_report(q, report)
    assert dims["orbit_dim"] == 4 and dims["dim_Z"] == 3
    assert dims["orbit_consistency"]


def test_euler_relation_checked_on_curves():
    q = build_veronese(3)
    fams = orbit_tangent_family(q)
    d = fams.degree
    for f, a, b in zip(fams.curve, [g.d_z0() for g in fams.curve],
                       [g.d_z1() for g in fams.curve]):
        assert f.scale(Scalar(d)) == Z0 * a + Z1 * b


def test_so5_and_sp4_agree():
    r1 = normal_bundle(build_so(5))
    r2 = normal_bundle(build_sp(4))
    assert r1.normal == r2.normal == SplittingType.of([2, 2])
    assert r1.dim_z == r2.dim_z == 3


@pytest.mark.parametrize("q", [build_veronese(3), build_so(5), build_sp(4)],
                         ids=["veronese-3", "so-5", "sp-4"])
def test_restricted_triple_matches_one_solve_per_operator(q):
    # solving the E and F images side by side gives each the solution
    # with its free variables 0, the one a solve of its own returns
    want = [_restricted_by_one_solve(q, x) for x in (q.tau.e, q.tau.f)]
    assert _restricted_sl2_matrices(q) == (want, "")


def _restricted_by_one_solve(q, x):
    """sigma(x) on U, by a solve of its own (free variables 0)."""
    ub = [[v[i] for v in q.u_basis] for i in range(q.space_dim)]
    m = q.sigma.apply(list(x))
    cols = [mat_vec(m, list(v)) for v in q.u_basis]
    return solve_matrix(ub, [list(r) for r in zip(*cols)])


def _has_constant_rank(raw, sat):
    """The degree count behind a constant-rank claim: the columns of ``raw``
    span a subbundle at every point of the sphere iff their syzygies'
    degrees sum to sum(raw degrees) - sum(degrees of the saturation
    ``sat``).  The orbit module proves this count for its families and no
    longer runs it, so it lives here as an assertion, not as an oracle."""
    gens = graded_kernel(raw.transpose_relations(), raw.cols,
                         unknown_shifts=[-dd for dd in raw.col_degrees],
                         expected_count=raw.cols - sat.rank)
    return sum(m for m, _ in gens) == sum(raw.col_degrees) - sum(sat.degrees)


def test_constant_rank_check_sees_a_cusp():
    # the cusp (z0^3, z0 z1^2, z1^3) has independent derivative columns,
    # but their span drops rank at [1 : 0]: the saturation has degrees
    # (1, 2), one less in total than the raw columns' (2, 2)
    v = [parse_form(s) for s in ("z0^3", "z0*z1^2", "z1^3")]
    raw = PolyMatrix.from_columns(3, [[f.d_z0() for f in v],
                                      [f.d_z1() for f in v]], [2, 2])
    sat = saturate(raw)
    assert sat.degrees == (1, 2)
    assert not _has_constant_rank(raw, sat)


@functools.lru_cache(maxsize=None)
def _random_pool():
    return random_quadruples(4242, 7)


TWISTOR_POOL = ([(e.name, e.build) for e in catalog_entries()
                 if e.kind == "quadruple"]
                + [("random-%d" % i, lambda i=i: _random_pool()[i])
                   for i in range(7)])
POOL_BUILDS = dict(TWISTOR_POOL)
pool_names = pytest.mark.parametrize("name", list(POOL_BUILDS))


@functools.lru_cache(maxsize=None)
def _pool_entry(name):
    q = POOL_BUILDS[name]()
    return q, orbit_tangent_family(q)


def _nilpotent_family_rows(q):
    """A(z) = -z0^2 e + z1^2 f + z0 z1 h on U, as rows of forms; on an
    independent u_basis, h = [e, f] exactly."""
    (s_e, s_f), _ = _restricted_sl2_matrices(q)
    s_h = mat_sub(mat_mul(s_e, s_f), mat_mul(s_f, s_e))
    du = q.u_dim
    return [[(Z0 * Z0).scale(-s_e[i][j]) + (Z1 * Z1).scale(s_f[i][j])
             + (Z0 * Z1).scale(s_h[i][j]) for j in range(du)]
            for i in range(du)]


def _derivative_columns(fams, n):
    v = fams.curve
    return PolyMatrix.from_columns(n, [[f.d_z0() for f in v],
                                       [f.d_z1() for f in v]],
                                   [fams.degree - 1] * 2)


@pool_names
def test_orbit_families_have_constant_rank(name):
    # the equivariance proof in the orbit docstring, asserted: the raw
    # tangent and derivative columns along the curve span subbundles (the
    # latter against a saturation of its own, since L' is its columns), and
    # the nilpotent family on U has a one-dimensional generic kernel
    q, fams = _pool_entry(name)
    d, v, n = fams.degree, fams.curve, q.space_dim
    raw_cols = [_apply_scalar_matrix(m, v, d) for m in q.sigma.matrices]
    raw = PolyMatrix.from_columns(n, raw_cols, [d] * len(raw_cols))
    assert _has_constant_rank(raw, fams.w)
    raw_l = _derivative_columns(fams, n)
    assert _has_constant_rank(raw_l, saturate(raw_l))
    assert q.u_dim - generic_rank(_nilpotent_family_rows(q)) == 1


@pool_names
def test_curve_equals_the_nilpotent_family_graded_kernel(name):
    # the construction the closed-form curve replaces: the graded kernel of
    # A(z) on U, one generator of the weight-decomposition degree, equal
    # to the curve byte for byte
    q, _ = _pool_entry(name)
    d, v_u, _ = veronese_curve(q)
    [(m, vec)] = graded_kernel(_nilpotent_family_rows(q), q.u_dim,
                               expected_count=1)
    assert m == d
    assert [format_form(f) for f in vec] == [format_form(f) for f in v_u]


@pool_names
def test_osculating_family_is_its_own_saturation(name):
    # the construction the derivative columns replace: their saturation
    # spans L' with the columns' own degrees
    q, fams = _pool_entry(name)
    sat = saturate(_derivative_columns(fams, q.space_dim))
    assert sat.degrees == (fams.degree - 1,) * 2
    assert family_span_equal(sat, fams.l_prime)


@pool_names
def test_tangent_family_does_not_need_the_curve_column(name):
    # the curve column the W proof shows redundant: appended to the
    # tangent columns, it leaves their saturation the same byte for byte
    q, fams = _pool_entry(name)
    d, v, n = fams.degree, fams.curve, q.space_dim
    cols = [_apply_scalar_matrix(m, v, d) for m in q.sigma.matrices] + [v]
    with_v = saturate(PolyMatrix.from_columns(n, cols, [d] * len(cols)))
    assert with_v.to_json() == fams.w.to_json()


@pool_names
def test_fibre_route_equals_the_polynomial_route(name):
    # normal_bundle reads N off the b-module of one fibre; the oracle is the
    # subquotient of the saturated tangent family by the derivative columns
    q, fams = _pool_entry(name)
    report = normal_bundle(q)
    assert report.normal == subquotient_splitting(fams.l_prime, fams.w,
                                                  twist=fams.degree)
    assert report.tangent_rank == fams.w.rank
    d, h, _ = orbit._tangent_fibre(q)
    assert d == fams.degree
    assert -sum(h[i][i] for i in range(len(h))) == -sum(fams.w.degrees)


@pytest.mark.parametrize("entry", ["veronese:3", "adjoint:sl(3):minimal"])
def test_twistor_path_solve_counts(monkeypatch, entry):
    # one normal bundle runs no saturation, generic rank, graded kernel or
    # membership solve: the curve is written down and N comes from one fibre
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("saturate", "generic_rank", "graded_kernel",
             "graded_kernel_from_basis", "solve_combination")
    for module in (orbit, bundles, polymatrix):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(name, getattr(module, name)))
    q = POOL_BUILDS[entry]()
    calls.clear()
    normal_bundle(q)
    assert {name: calls[name] for name in names} == dict.fromkeys(names, 0)


@pytest.mark.parametrize("nilpotent, orbit_dim",
                         [("principal", 20), ("minimal", 8)])
def test_sl5_adjoint_normal_bundle_closed_form(nilpotent, orbit_dim):
    # past the polynomial route's reach (seconds per call): in sl(n) the
    # principal orbit has dimension n^2 - n, the minimal one 2n - 2, and
    # the adjoint normal bundle is O(1)^(orbit dimension - 2)
    q = build_adjoint("sl(5)", nilpotent)
    report = normal_bundle(q)
    assert report.normal == SplittingType.of([1] * (orbit_dim - 2))
    assert dimension_report(q, report)["orbit_dim"] == orbit_dim


def test_random_sl5_adjoints_have_the_adjoint_normal_bundle():
    # the nilpotent sampler covers sl(n) for every n: strictly upper
    # triangular draws, each a valid quadruple with N = O(1)^(dim O - 2)
    quadruples = random_quadruples(5, 4, pool=("sl(5)",))
    assert [q.algebra.name for q in quadruples] == ["sl(5)"] * 4
    for q in quadruples:
        assert validate_good_quadruple(q)["valid"], q.name
        report = normal_bundle(q, expected=adjoint_expected(q))
        assert report.match, q.name
        assert dimension_report(q, report)["orbit_consistency"], q.name


@pytest.mark.parametrize("k", [6, 7])
def test_rational_normal_curve_closed_form(k):
    # the degree-k rational normal curve in P^k has N = O(k + 2)^(k - 1)
    report = normal_bundle(build_veronese(k))
    assert report.normal == SplittingType.of([k + 2] * (k - 1))


def test_dependent_u_basis_fails_irreducibility():
    # the proof's hypothesis U = V_d needs an independent u_basis; a
    # dependent one puts its coordinate relations in ker sigma(e) beside v0
    q = build_adjoint("sl(2)", "principal")
    e, h, f = q.u_basis
    extra = tuple(a + b for a, b in zip(e, h))
    report = validate_good_quadruple(
        GoodQuadruple(q.algebra, q.sigma, q.tau, (e, h, f, extra)))
    assert not report["valid"]
    assert [c["name"] for c in report["checks"] if c["status"] == "fail"] \
        == ["u-irreducible-nontrivial"]


def test_representation_breaking_the_identity_is_invalid():
    # H sent to the identity: the sl(2) table and its embedding are intact,
    # but [sigma(E), sigma(F)] = diag(1, -1) is not sigma(H)
    q = quadruple_from_json(dict(QUADRUPLE, representation={"matrices": [
        [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]}))
    report = validate_good_quadruple(q)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["representation-identity"] == "fail"
    assert status["sl2-embedding"] == "pass"
    assert report["valid"] is False


def test_nilpotent_is_tau_f_of_an_adjoint_quadruple_only():
    adjoint = build_adjoint("sl(3)", "minimal")
    assert adjoint.nilpotent == adjoint.tau.f
    assert quadruple_from_json(QUADRUPLE).nilpotent is None


DIGEST_TOOL = Path(__file__).resolve().parent.parent / "tools" / \
    "report_digest.py"


@functools.lru_cache(maxsize=None)
def _invalid_quadruples():
    """The crafted invalid quadruples that tools/report_digest.py digests."""
    spec = importlib.util.spec_from_file_location("report_digest", DIGEST_TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return dict(tool.invalid_quadruples())


# U is invariant in these, so only the ker-e rule decides them
U_ONLY = ["trivial-u", "trivial-line", "dependent-u-basis", "block-sl2-on-c4",
          "adjoint-sl3-all-of-g"]


@pytest.mark.parametrize("name", list(POOL_BUILDS) + U_ONLY)
def test_irreducibility_equals_the_weight_route(name):
    q = _pool_entry(name)[0] if name in POOL_BUILDS else \
        _invalid_quadruples()[name]
    report = validate_good_quadruple(q)
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert [status.pop(k) for k in ("sl2-embedding", "representation-identity",
                                    "u-invariant")] == ["pass"] * 3
    assert (status["u-irreducible-nontrivial"], report["curve_degree"]) == \
        weight_route_irreducibility(_restricted_by_one_solve(q, q.tau.h))
    assert report["valid"] == (name in POOL_BUILDS)


def _adjoint_quadruples():
    return ([e.build() for e in catalog_entries()
             if e.expected_normal == "live-adjoint"]
            + list(_random_pool()) + random_quadruples(5, 4, pool=("sl(5)",)))


def test_adjoint_count_equals_the_weight_decomposition():
    for q in _adjoint_quadruples():
        mult = sl2_decompose(q.sigma, q.tau)
        assert adjoint_multiplicity_count(q) == \
            -2 + sum(j * a for j, a in mult.items()), q.name


def test_validation_and_adjoint_count_scan_no_weights(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("weight decomposition called")
    quadruples = ([POOL_BUILDS[name]() for name in ("veronese:3", "so:5")]
                  + list(_invalid_quadruples().values()))
    adjoints = _adjoint_quadruples()[:3]
    monkeypatch.setattr(lie, "sl2_decompose", refuse)
    monkeypatch.setattr(lie, "_weight_spaces", refuse)
    monkeypatch.setattr(orbit, "_weight_spaces", refuse)
    for q in quadruples + adjoints:
        validate_good_quadruple(q)
    for q in adjoints:
        adjoint_multiplicity_count(q)


def test_validating_a_defining_quadruple_builds_no_ad_table():
    q = build_veronese(5)
    assert validate_good_quadruple(q)["valid"]
    assert q.algebra._adjoint is None


def test_the_identity_is_checked_once_per_representation(monkeypatch):
    # explicit matrices take the exact route; the sl(2) table's three pairs
    # take two products each, on the first normal_bundle call only
    q = quadruple_from_json(QUADRUPLE)
    built = build_veronese(3)
    products = Counter()
    multiply = lie.mat_mul

    def counting(a, b):
        products["mat_mul"] += 1
        return multiply(a, b)
    monkeypatch.setattr(lie, "mat_mul", counting)
    assert q.sigma.identity_route == "exact"
    first = normal_bundle(q)
    assert products["mat_mul"] == 6
    assert normal_bundle(q).normal == first.normal
    assert products["mat_mul"] == 6
    # a builder's representation runs no check at all
    assert built.sigma.identity_route == "construction"
    normal_bundle(built)
    assert products["mat_mul"] == 6


def test_a_representation_breaking_the_identity_is_checked_exactly():
    # H sent to the identity, as in
    # test_representation_breaking_the_identity_is_invalid
    q = quadruple_from_json(dict(QUADRUPLE, representation={"matrices": [
        [[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, 1]]]}))
    assert q.sigma.identity_route == "exact"
    assert not identity_by_all_pairs(q.sigma)
    assert not q.sigma.check_identity()


def test_normal_bundle_is_invariant_under_a_change_of_basis_of_e():
    # sigma'(x) = P sigma(x) P^-1 and U' = P U present the same orbit, for
    # P = L U with L, U unitriangular Gaussian-integer matrices; sigma' is a
    # representation the identity check decides.  One sl(4) adjoint is
    # kept: each takes about a second.
    rng = random.Random(3)
    quadruples = ([entry_by_name(name).build() for name in (
                      "veronese:2", "veronese:3", "so:5", "sp:4",
                      "adjoint:sl(3):principal", "adjoint:sl(3):minimal",
                      "adjoint:sl(4):minimal")]
                  + [q for q in random_quadruples(4242, 3)
                     if q.name != "random-adjoint:sl(4)"])
    for q in quadruples:
        n = q.space_dim
        P = mat_mul(_unit_triangular(rng, n, True),
                    _unit_triangular(rng, n, False))
        P_inv = inverse(P)
        sigma = Representation(q.algebra, [mat_mul(mat_mul(P, m), P_inv)
                                           for m in q.sigma.matrices])
        moved = GoodQuadruple(q.algebra, sigma, q.tau,
                              [mat_vec(P, list(u)) for u in q.u_basis],
                              name=q.name, adjoint=q.adjoint)
        report, moved_report = normal_bundle(q), normal_bundle(moved)
        assert moved_report.to_json() == report.to_json(), q.name
        assert dimension_report(moved, moved_report) == \
            dimension_report(q, report), q.name
        assert sigma.identity_route == "exact"


def _invertible_integer_matrix(rng, n):
    while True:
        k = [[Scalar(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if rank(k) == n:
            return k


@pytest.mark.parametrize("algebra", ["sl(3)", "sl(4)"])
@pytest.mark.parametrize("nilpotent", ["principal", "minimal"])
def test_normal_bundle_is_invariant_under_conjugation_of_the_nilpotent(
        algebra, nilpotent):
    # y' = k y k^-1 lies in the orbit of y, and Jacobson-Morozov solves a
    # new triple through it, so the adjoint quadruple through y' has the
    # named entry's normal bundle and dimension report
    rng = random.Random(algebra + nilpotent)
    ma = lie.builtin_algebra(algebra)
    q = build_adjoint(algebra, nilpotent)
    report = normal_bundle(q)
    expected = (dict(report.to_json(), name=None), dimension_report(q, report))
    y = ma.matrix_of(lie.named_nilpotent(ma, nilpotent))
    for _ in range(2):
        k = _invertible_integer_matrix(rng, len(y))
        moved = build_adjoint(algebra, ma.coordinates_of_matrix(
            mat_mul(mat_mul(k, y), inverse(k))))
        assert moved.tau.f != q.tau.f
        moved_report = normal_bundle(moved)
        assert (dict(moved_report.to_json(), name=None),
                dimension_report(moved, moved_report)) == expected
