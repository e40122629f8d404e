"""Builders for the worked examples, with their expected answers.

Each entry records where its expectation comes from: "closed-form" (a stated
formula), "cross-check" (derived through an independent identity),
"degenerate-case", or "bookkeeping" (only rank/degree identities are
asserted, no full splitting).  Adjoint expectations are computed from the
nilpotent orbit's dimension at run time, never hard-coded, and
:func:`~qlike.orbit.normal_bundle` checks its answer against an independent
count, the dimension of ker sigma(e)
(:func:`~qlike.orbit.adjoint_multiplicity_count`).

The quaternionic structure on H^k is written down, not solved for.  On
the real basis (1, i, j, k) of one quaternionic coordinate, left
multiplication by i, j and k acts by

    L_i = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    L_j = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    L_k = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],

and :func:`build_quaternionic` takes two degree-1 columns per coordinate,
zero off its block:

    c = (-i z0, z0, z1, -i z1),   c' = (-z1, i z1, -i z0, z0).

At [1:0] they are (-i, 1, 0, 0) and (0, 0, -i, 1), and L_i maps them to
(-1, -i, 0, 0) and (0, 0, -1, -i), -i times themselves: the fibre is the
-i eigenspace of L_i.  In the same way the fibre at [0:1], spanned by
(0, 0, 1, -i) and (-1, i, 0, 0), is that of -L_i; at [1:1], spanned by
(-i, 1, 1, -i) and (-1, i, -i, 1), that of L_j; and at [1:i], spanned by
(-i, 1, i, 1) and (-i, -1, -i, 1), that of L_k.  In general the fibre at
z is the -i eigenspace of the complex structure

    J_z = ((|z0|^2 - |z1|^2) L_i + 2 Re(conj(z0) z1) L_j
           + 2 Im(conj(z0) z1) L_k) / (|z0|^2 + |z1|^2),

so the family runs once over the sphere of compatible complex
structures.  Each fibre has dimension 2k, half of 4k, so it is the whole
eigenspace.
"""

from __future__ import annotations

from .bundles import SplittingType
from .errors import InternalError, InvalidInput
from .forms import BinaryForm, parse_form
from .lie import (Sl2Embedding, builtin_algebra, combination,
                  named_nilpotent, principal_sl2_matrices, sl_algebra,
                  so_algebra, sp_algebra, wedge_square_representation)
from .linalg import identity, zeros
from .orbit import (GoodQuadruple, _centralizer_dim, _dimension_report,
                    adjoint_quadruple, normal_bundle)
from .polymatrix import PolyMatrix
from .scalars import I, ONE, ZERO, Scalar


# --------------------------------------------------------------------------
# homogeneous-space quadruples
# --------------------------------------------------------------------------

def build_veronese(k) -> GoodQuadruple:
    """sl(k+1) with its defining representation, the irreducible
    sl(2)-action, U the full space: the degree-k rational normal curve in
    projective k-space."""
    if k < 1:
        raise InvalidInput("veronese builder needs k >= 1")
    ma = sl_algebra(k + 1)
    e, h, f = principal_sl2_matrices(k + 1)
    tau = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    u_basis = [tuple(row) for row in identity(k + 1)]
    return GoodQuadruple(ma.algebra, ma.defining_representation(), tau,
                         tuple(u_basis), name="veronese:%d" % k)


def so3_triple_matrices(n):
    """The sl(2)-triple inside antisymmetric so(n) supported on the first
    three coordinates: H = -2i A12, E = A13 + i A23, F = -A13 + i A23."""
    def a(i, j):
        m = zeros(n, n)
        m[i][j] = ONE
        m[j][i] = Scalar(-1)
        return m

    h = combination([a(0, 1)], [Scalar(0, -2)])
    e = combination([a(0, 2), a(1, 2)], [ONE, I])
    f = combination([a(0, 2), a(1, 2)], [Scalar(-1), I])
    return e, h, f


def build_so(n) -> GoodQuadruple:
    """so(n) with its defining representation; the sl(2) is the rotation
    block on the first three coordinates and U is their span."""
    if n < 5:
        raise InvalidInput("so builder needs n >= 5")
    ma = so_algebra(n)
    e, h, f = so3_triple_matrices(n)
    tau = Sl2Embedding(ma.algebra, ma.coordinates_of_matrix(e),
                       ma.coordinates_of_matrix(h),
                       ma.coordinates_of_matrix(f))
    u_basis = [tuple(row) for row in identity(n)[:3]]
    return GoodQuadruple(ma.algebra, ma.defining_representation(), tau,
                         tuple(u_basis), name="so:%d" % n)


def build_sp(two_m) -> GoodQuadruple:
    """sp(2m) acting on wedge^2 of the defining space.

    Symplectic basis (e_1..e_m, f_1..f_m); p1 = <e1, e2>, p2 = <f1, f2>;
    U is the wedge-orthocomplement of wedge^2 p1 + wedge^2 p2 inside
    ker(omega) of wedge^2(p1 + p2)."""
    if two_m < 4 or two_m % 2:
        raise InvalidInput("sp builder needs even 2m >= 4")
    m = two_m // 2
    ma = sp_algebra(two_m)
    # sl(2) acting on p1 and dually on p2, zero elsewhere
    def tau_mat(x):
        big = zeros(two_m, two_m)
        for r in range(2):
            for c in range(2):
                v = x[r][c]
                if not v.is_zero():
                    big[r][c] = v          # action on e1, e2
                    big[m + c][m + r] = -v # minus transpose on f1, f2
        return big

    e2 = [[ZERO, ONE], [ZERO, ZERO]]
    h2 = [[ONE, ZERO], [ZERO, Scalar(-1)]]
    f2 = [[ZERO, ZERO], [ONE, ZERO]]
    tau = Sl2Embedding(ma.algebra,
                       ma.coordinates_of_matrix(tau_mat(e2)),
                       ma.coordinates_of_matrix(tau_mat(h2)),
                       ma.coordinates_of_matrix(tau_mat(f2)))
    sigma, pairs = wedge_square_representation(ma)
    index = {p: a for a, p in enumerate(pairs)}
    dim_e = len(pairs)

    def unit(p, coeff=ONE):
        v = [ZERO] * dim_e
        v[index[p]] = coeff
        return v

    u1 = unit((0, m + 1))                       # e1 ^ f2
    u2 = unit((1, m))                           # e2 ^ f1
    u3 = unit((0, m))                           # e1 ^ f1 - e2 ^ f2
    u3[index[(1, m + 1)]] = Scalar(-1)
    return GoodQuadruple(ma.algebra, sigma, tau, (tuple(u1), tuple(u2),
                                                  tuple(u3)),
                         name="sp:%d" % two_m)


def build_adjoint(algebra_name, nilpotent_spec) -> GoodQuadruple:
    """Adjoint quadruple through a named or given nilpotent of a built-in
    algebra (:func:`~qlike.orbit.adjoint_quadruple`)."""
    ma = builtin_algebra(algebra_name)
    if isinstance(nilpotent_spec, str):
        y = named_nilpotent(ma, nilpotent_spec)
        name = "adjoint:%s:%s" % (algebra_name, nilpotent_spec)
    else:
        y = list(nilpotent_spec)
        name = "adjoint:%s:custom" % algebra_name
    return adjoint_quadruple(ma.algebra, y, name)


def adjoint_expected(q: GoodQuadruple) -> SplittingType:
    """O(1)^(dim O - 2), for the orbit O of f and dim O = dim g - dim ker ad f.

    This is the count -2 + sum_j j a_j of
    :func:`~qlike.orbit.adjoint_multiplicity_count`, read off ker ad f in
    place of ker ad e: each summand V_j of g has one line in each, its
    lowest- and its highest-weight vector, so sum_j a_j = dim ker ad f, and
    sum_j (j + 1) a_j = dim g.
    """
    return _orbit_expected(q.algebra.dim,
                           _centralizer_dim(q.algebra, q.tau.f))


def _orbit_expected(algebra_dim, centralizer):
    """:func:`adjoint_expected` from ``centralizer`` = dim ker ad f."""
    count = algebra_dim - centralizer - 2
    if count < 0:
        raise InternalError("nilpotent orbit of dimension %d, below 2"
                            % (count + 2))
    return SplittingType.of([1] * count)


# --------------------------------------------------------------------------
# structure fixtures
# --------------------------------------------------------------------------

def build_quaternionic(k) -> QLikeStructure:
    """The classical structure on H^k, written down (module docstring):
    per quaternionic coordinate, the columns (-i z0, z0, z1, -i z1) and
    (-z1, i z1, -i z0, z0) on its real basis (1, i, j, k)."""
    from .structures import QLikeStructure
    if k < 1:
        raise InvalidInput("quaternionic builder needs k >= 1")
    n = 4 * k
    cols = []
    for b in range(k):
        for block in (("-i*z0", "z0", "z1", "-i*z1"),
                      ("-z1", "i*z1", "-i*z0", "z0")):
            texts = ["0"] * (4 * b) + list(block) + ["0"] * (n - 4 * b - 4)
            cols.append([parse_form(t, 1) for t in texts])
    spanning = PolyMatrix.from_columns(n, cols, [1] * (2 * k))
    return QLikeStructure(n, 2 * k, spanning, conjugation=None,
                          complex_mode=False)


def build_conic_r3() -> QLikeStructure:
    """Degree-two structure on a three-dimensional real space, conjugation
    antidiagonal(1, -1, 1)."""
    from .structures import QLikeStructure
    col = [parse_form("z0^2"), parse_form("z0*z1"), parse_form("z1^2")]
    spanning = PolyMatrix.from_columns(3, [col], [2])
    conj = [[0, 0, 1], [0, -1, 0], [1, 0, 0]]
    return QLikeStructure(3, 1, spanning, conj, complex_mode=False)


def build_twisted_plane_c4() -> QLikeStructure:
    """Complex-mode line family (z0^2, z0 z1, z1^2, 0) in C^4."""
    from .structures import QLikeStructure
    col = [parse_form("z0^2"), parse_form("z0*z1"), parse_form("z1^2"),
           BinaryForm.zero(2)]
    spanning = PolyMatrix.from_columns(4, [col], [2])
    return QLikeStructure(4, 1, spanning, None, complex_mode=True)


# --------------------------------------------------------------------------
# the catalog
# --------------------------------------------------------------------------

class CatalogEntry:
    def __init__(self, name, kind, build, expected_normal=None,
                 expected_source="", expected_dim_z=None, expected_label=None,
                 expected_minus: SplittingType = None, derived_checks=None):
        self.name = name
        self.kind = kind                    # "quadruple" | "structure"
        self.build = build                  # thunk
        # SplittingType | "live-adjoint" | None
        self.expected_normal = expected_normal
        self.expected_source = expected_source
        self.expected_dim_z = expected_dim_z
        self.expected_label = expected_label
        self.expected_minus = expected_minus
        self.derived_checks = {} if derived_checks is None else derived_checks


def catalog_entries():
    entries = [
        CatalogEntry("veronese:1", "quadruple", lambda: build_veronese(1),
                     SplittingType.of([]), "degenerate-case",
                     expected_dim_z=1),
        CatalogEntry("veronese:2", "quadruple", lambda: build_veronese(2),
                     SplittingType.of([4]), "closed-form", expected_dim_z=2),
        CatalogEntry("veronese:3", "quadruple", lambda: build_veronese(3),
                     SplittingType.of([5, 5]), "closed-form",
                     expected_dim_z=3),
        CatalogEntry("veronese:4", "quadruple", lambda: build_veronese(4),
                     SplittingType.of([6, 6, 6]), "closed-form",
                     expected_dim_z=4),
        CatalogEntry("veronese:5", "quadruple", lambda: build_veronese(5),
                     SplittingType.of([7, 7, 7, 7]), "closed-form",
                     expected_dim_z=5),
        CatalogEntry("so:5", "quadruple", lambda: build_so(5),
                     SplittingType.of([2, 2]), "cross-check",
                     expected_dim_z=3),
        CatalogEntry("so:6", "quadruple", lambda: build_so(6),
                     None, "bookkeeping", expected_dim_z=4,
                     derived_checks={"rank": 3, "sum": 6}),
        CatalogEntry("sp:4", "quadruple", lambda: build_sp(4),
                     SplittingType.of([2, 2]), "closed-form",
                     expected_dim_z=3),
        CatalogEntry("sp:6", "quadruple", lambda: build_sp(6),
                     SplittingType.of([2, 2, 1, 1, 1, 1]), "closed-form",
                     expected_dim_z=7),
        CatalogEntry("adjoint:sl(2):principal", "quadruple",
                     lambda: build_adjoint("sl(2)", "principal"),
                     "live-adjoint", "closed-form", expected_dim_z=1),
        CatalogEntry("adjoint:sl(3):principal", "quadruple",
                     lambda: build_adjoint("sl(3)", "principal"),
                     "live-adjoint", "closed-form", expected_dim_z=5),
        CatalogEntry("adjoint:sl(3):minimal", "quadruple",
                     lambda: build_adjoint("sl(3)", "minimal"),
                     "live-adjoint", "closed-form", expected_dim_z=3),
        CatalogEntry("adjoint:sl(4):principal", "quadruple",
                     lambda: build_adjoint("sl(4)", "principal"),
                     "live-adjoint", "closed-form", expected_dim_z=11),
        CatalogEntry("adjoint:sl(4):minimal", "quadruple",
                     lambda: build_adjoint("sl(4)", "minimal"),
                     "live-adjoint", "closed-form", expected_dim_z=5),
        CatalogEntry("quaternionic:1", "structure",
                     lambda: build_quaternionic(1),
                     expected_label="quaternionic",
                     expected_minus=SplittingType.of([-1, -1])),
        CatalogEntry("quaternionic:2", "structure",
                     lambda: build_quaternionic(2),
                     expected_label="quaternionic",
                     expected_minus=SplittingType.of([-1, -1, -1, -1])),
        CatalogEntry("conic-r3", "structure", build_conic_r3,
                     expected_label="rho-star-quaternionic",
                     expected_minus=SplittingType.of([-2])),
        CatalogEntry("twisted-plane-c4", "structure", build_twisted_plane_c4,
                     expected_label="general",
                     expected_minus=SplittingType.of([-2])),
    ]
    return entries


def entry_by_name(name):
    for e in catalog_entries():
        if e.name == name:
            return e
    raise InvalidInput("no catalog entry named %r" % name)


def run_quadruple_entry(entry: CatalogEntry) -> dict:
    if entry.kind != "quadruple":
        raise InvalidInput("catalog entry %r is a structure, not a "
                           "quadruple" % entry.name)
    q = entry.build()
    expected = entry.expected_normal
    source = entry.expected_source
    centralizer = None
    if expected == "live-adjoint":
        centralizer = _centralizer_dim(q.algebra, q.tau.f)
        expected = _orbit_expected(q.algebra.dim, centralizer)
    report = normal_bundle(q, expected=expected, expected_source=source)
    result = {
        "name": entry.name,
        "normal": report.to_json(),
        # live-adjoint entries are adjoint_quadruple's, whose nilpotent is
        # tau.f, so ker ad f serves both; the others are not adjoint
        "dimension": _dimension_report(report, q.algebra.dim, centralizer),
        "ok": (report.match is not False) and report.nonnegative,
    }
    if entry.expected_dim_z is not None:
        result["dim_z_ok"] = (report.dim_z == entry.expected_dim_z)
        result["ok"] = result["ok"] and result["dim_z_ok"]
    for key, want in entry.derived_checks.items():
        if key == "rank":
            got = report.normal.rank
        elif key == "sum":
            got = report.normal.degree
        else:
            continue
        result["derived_%s_ok" % key] = (got == want)
        result["ok"] = result["ok"] and (got == want)
    return result


def run_structure_entry(entry: CatalogEntry) -> dict:
    from .structures import analyze, validate
    S = entry.build()
    validation = validate(S)
    result = {"name": entry.name, "validation": validation.to_json()}
    if not validation.passed:
        result["ok"] = False
        return result
    report = analyze(S, validation)
    result["label"] = report.label
    result["splitting"] = report.to_json()["splitting"]
    ok = report.passed
    if entry.expected_label is not None:
        ok = ok and (report.label == entry.expected_label)
    if entry.expected_minus is not None:
        ok = ok and (report.u_minus == entry.expected_minus)
    result["ok"] = ok
    return result


def run_entry(entry: CatalogEntry) -> dict:
    if entry.kind == "quadruple":
        return run_quadruple_entry(entry)
    return run_structure_entry(entry)


def fixture_structures():
    """The three bundled structure fixtures, as (filename, structure)."""
    return [
        ("quaternionic_h1.json", build_quaternionic(1)),
        ("conic_r3.json", build_conic_r3()),
        ("twisted_plane_c4.json", build_twisted_plane_c4()),
    ]


def regenerate_fixtures(outdir) -> list:
    """Write the bundled fixtures deterministically; returns written paths."""
    import json
    import os
    os.makedirs(outdir, exist_ok=True)
    written = []
    for fname, S in fixture_structures():
        path = os.path.join(outdir, fname)
        with open(path, "w") as fh:
            json.dump(S.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written
