"""Subbundles and quotients of trivial bundles over the sphere.

Every bundle handled here is either a :class:`SubbundleFamily` (a saturated
rank-k subbundle of a trivial bundle, stored as a free basis of its graded
section module) or a :class:`QuotientBundle` (trivial bundle modulo such a
family).  Section modules of subbundles over the sphere are free, so all
section spaces have explicit finite bases and everything reduces to exact
linear algebra.  A family is saturated through its annihilator: the
saturation is the graded kernel of the annihilator's relations, unless a
degree count proves the spanning columns already a free basis of it, in
which case its generators come from those columns (:func:`saturate`).

Twist conventions: O(1) has section basis {z0, z1}; O(-1) is the tautological
line bundle.  A free basis column of degree e presents a line summand O(-e).
"""

from __future__ import annotations

from .errors import InternalError, InvalidInput
from .forms import BinaryForm, format_form, parse_form
from .linalg import kernel_basis
from .polymatrix import (PolyMatrix, _decode, _equation_rows, _section_layout,
                         generic_rank, graded_kernel, graded_kernel_from_basis,
                         solve_combination)


class SplittingType:
    """Multiset of line-bundle Chern numbers, sorted descending."""

    def __init__(self, summands):
        object.__setattr__(self, "summands", summands)

    def __setattr__(self, name, value):
        raise AttributeError("SplittingType is immutable")

    def __eq__(self, other):
        if type(other) is not SplittingType:
            return NotImplemented
        return self.summands == other.summands

    def __hash__(self):
        return hash(self.summands)

    def __repr__(self):
        return "SplittingType(summands=%r)" % (self.summands,)

    @staticmethod
    def of(values):
        return SplittingType(tuple(sorted(values, reverse=True)))

    @property
    def rank(self):
        return len(self.summands)

    @property
    def degree(self):
        return sum(self.summands)

    def is_nonnegative(self):
        return all(a >= 0 for a in self.summands)

    def negate(self):
        return SplittingType.of([-a for a in self.summands])

    def h0(self, m=0):
        return _section_layout(self.summands, m)[2]

    def to_json(self):
        return list(self.summands)

    def __str__(self):
        return "{%s}" % ", ".join(str(a) for a in self.summands)


class SubbundleFamily:
    """Saturated subbundle of the trivial rank-n bundle, by a free basis.

    The basis matrix is n x k with column degrees e_1 <= ... <= e_k; the
    represented bundle is isomorphic to O(-e_1) + ... + O(-e_k).
    """

    __slots__ = ("ambient", "basis", "_annihilator")

    def __init__(self, ambient, basis: PolyMatrix):
        if basis.rows != ambient:
            raise ValueError("basis rows != ambient rank")
        order = sorted(range(basis.cols), key=lambda j: (basis.col_degrees[j], j))
        cols = [basis.column(j) for j in order]
        degs = [basis.col_degrees[j] for j in order]
        basis = PolyMatrix.from_columns(ambient, cols, degs) if cols else \
            PolyMatrix(ambient, 0, (), [[] for _ in range(ambient)])
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_annihilator", None)

    def __setattr__(self, name, value):
        raise AttributeError("SubbundleFamily is immutable")

    @property
    def rank(self):
        return self.basis.cols

    @property
    def degrees(self):
        return self.basis.col_degrees

    def columns(self):
        return self.basis.columns()

    def fiber_at(self, z0, z1):
        """Scalar matrix whose columns span the fiber at [z0 : z1]."""
        return self.basis.evaluate(z0, z1)

    def to_json(self):
        return {
            "ambient": self.ambient,
            "columns": [[format_form(f) for f in col] for col in self.columns()],
            "degrees": list(self.degrees),
        }

    @staticmethod
    def from_json(data):
        cols = [[parse_form(s) for s in col] for col in data["columns"]]
        degs = data.get("degrees")
        pm = PolyMatrix.from_columns(data["ambient"], cols, degs)
        return SubbundleFamily(data["ambient"], pm)

    def __repr__(self):
        return "SubbundleFamily(ambient=%d, degrees=%r)" % (
            self.ambient, list(self.degrees))


class QuotientBundle:
    """(trivial rank-n bundle) / denominator."""

    def __init__(self, ambient, denominator: SubbundleFamily):
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientBundle is immutable")

    @property
    def rank(self):
        return self.ambient - self.denominator.rank


def _family_of(n, gens):
    """The family whose free basis is the (degree, column) pairs ``gens``."""
    return SubbundleFamily(n, PolyMatrix.from_columns(
        n, [list(v) for _, v in gens], [m for m, _ in gens]))


def _annihilator_generators(columns, n, rank):
    """(degree, covector) free generators of the functionals killing the
    pointwise span of ``columns``, of generic rank ``rank``."""
    return graded_kernel([list(col) for col in columns], n,
                         expected_count=n - rank)


def saturate(P: PolyMatrix) -> SubbundleFamily:
    """Free basis of the saturation of the image sheaf of P.

    The saturated module Sat is exactly { v : q . v = 0 for every
    annihilator generator q }, since kernels of maps into torsion-free
    modules are already saturated; its basis is the graded kernel of those
    relations.  That second graded kernel is skipped when P's columns are
    already a free basis of Sat, which a degree count decides.  Let r be
    P's generic rank, delta_i its column degrees and d_j the annihilator
    generators' degrees, and suppose P.cols = r.  P's columns lie in Sat,
    so sum_i O(-delta_i) -> Sat = sum_i O(-e_i) is an injective map between
    bundles of rank r.  Its determinant is a nonzero section of
    O(sum delta_i - sum e_i), and sum e_i = sum d_j by c1 additivity (the
    annihilator is the dual of the trivial bundle modulo Sat).  When
    sum delta_i = sum d_j that determinant is a nonzero constant, so P is
    a free basis of Sat, and each stage of the graded kernel is spanned by
    the z-multiples of P's columns:
    :func:`~qlike.polymatrix.graded_kernel_from_basis` returns the very
    generators the graded kernel would.  Otherwise the graded kernel runs.
    The conic has r = 1 and annihilator degrees [1, 1], which sum to its
    column degree 2:

    >>> from qlike.forms import parse_form
    >>> conic = PolyMatrix.from_columns(
    ...     3, [[parse_form(t) for t in ("z0^2", "z0*z1", "z1^2")]])
    >>> [m for m, _ in _annihilator_generators(conic.columns(), 3, 1)]
    [1, 1]
    >>> saturate(conic).columns()
    [[BinaryForm('z0^2'), BinaryForm('z0*z1'), BinaryForm('z1^2')]]

    The annihilator generators built on the way are the basis of the
    result's annihilator: saturating does not change which functionals kill
    the fibers, and the graded kernel's output depends only on that module.
    So the result and that annihilator family are linked to each other, and
    :func:`annihilator` of either returns the other.  Only saturate sets
    links.
    """
    n = P.rows
    r = generic_rank(P.transpose_relations())
    ann = _annihilator_generators(P.columns(), n, r)
    if P.cols == r and sum(P.col_degrees) == sum(m for m, _ in ann):
        gens = graded_kernel_from_basis(P.columns(), P.col_degrees)
    else:
        gens = _annihilator_generators([q for _, q in ann], n, n - r)
    fam = _family_of(n, gens)
    dual = _family_of(n, ann)
    object.__setattr__(fam, "_annihilator", dual)
    object.__setattr__(dual, "_annihilator", fam)
    return fam


def annihilator(A: SubbundleFamily) -> SubbundleFamily:
    """The rank (n-k) family of functionals killing A's fibers pointwise.

    Lives in the dual trivial bundle; annihilator(annihilator(A)) spans the
    same family as A.  The two families :func:`saturate` links return each
    other; for any other family it is computed, on every call.
    """
    if A._annihilator is not None:
        return A._annihilator
    n = A.ambient
    columns = A.columns()
    r = generic_rank(columns)
    if r != A.rank:
        raise InternalError("annihilator rank %d, expected %d"
                            % (n - r, n - A.rank))
    return _family_of(n, _annihilator_generators(columns, n, r))


def h0_dimension_by_solve(F: SubbundleFamily, m: int) -> int:
    """dim H^0(F(m)) = dim { v in S_m^n : <q, v> = 0 for every column q of
    F's annihilator }, by one direct degree-m kernel solve.

    Independent of the basis degrees, so it is the oracle against which
    :func:`splitting_type`'s degree count is tested.
    """
    if m < 0:
        return 0
    shifts = [0] * F.ambient
    relations = [[f.coeffs for f in col] for col in annihilator(F).columns()]
    eq = _equation_rows(relations, shifts, m)
    if not eq:
        return _section_layout(shifts, m)[2]
    return len(kernel_basis(eq))


def h0_twist(F, m: int):
    """(dimension, explicit basis) of twisted global sections.

    SubbundleFamily: basis vectors are n-tuples of degree-m forms, spanning
    the sections whose value lies in the fiber at every point.
    QuotientBundle: a section is a tuple (f_j), one form of degree m + e_j
    per annihilator generator q_j (its pairing coordinates), so the
    dimension is that of H^0 of the sum of the O(m + e_j).
    """
    if isinstance(F, SubbundleFamily):
        basis = []
        lengths = _section_layout([-e for e in F.degrees], m)[0]
        for j, length in enumerate(lengths):
            col = F.basis.column(j)
            for t in range(length):
                mono = BinaryForm.monomial(length - 1, t)
                basis.append([c * mono if not c.is_zero() else
                              BinaryForm.zero(m) for c in col])
        return len(basis), basis
    if isinstance(F, QuotientBundle):
        # the monomial basis of the layout, one coordinate at a time
        degs = annihilator(F.denominator).degrees
        total = _section_layout(degs, m)[2]
        basis = [list(_decode([(int(i == j), 0) for j in range(total)],
                              degs, m)) for i in range(total)]
        return len(basis), basis
    raise TypeError("h0_twist expects a SubbundleFamily or QuotientBundle")


def splitting_type(F) -> SplittingType:
    """Birkhoff-Grothendieck splitting type.

    A SubbundleFamily whose columns are a free basis of degrees delta_i
    splits as the sum of the O(-delta_i).  That they are a free basis is
    :func:`saturate`'s degree count.  Let d_j be the annihilator's column
    degrees.  The saturation Sat = { v : q . v = 0 for every annihilator
    column q } is a sum of O(-e_i), and 0 -> Sat -> O^n -> A* -> 0, A the
    annihilator, so sum e_i = sum d_j.  F's columns lie in Sat and have
    generic rank k: :func:`annihilator` checks that of an unlinked family,
    and :func:`saturate` builds its families so.  So sum_i O(-delta_i) ->
    Sat is injective, and its determinant is a nonzero section of
    O(sum delta_i - sum d_j).  Hence sum delta_i = sum d_j exactly when F
    is a free basis of Sat, and its splitting is then (-delta_i); any other
    family has sum delta_i > sum d_j and raises InternalError.  For the
    families :func:`saturate` links the annihilator is the link, so the
    check is one integer comparison.

    >>> from qlike.forms import parse_form
    >>> def family(*cols):
    ...     return SubbundleFamily(2, PolyMatrix.from_columns(
    ...         2, [[parse_form(t) for t in col] for col in cols]))
    >>> splitting_type(family(("z0", "z1")))
    SplittingType(summands=(-1,))
    >>> splitting_type(family(("z0^2", "z0*z1")))
    Traceback (most recent call last):
    ...
    qlike.errors.InternalError: not a free basis: degrees sum to 2, annihilator's to 1
    """
    if isinstance(F, QuotientBundle):
        ann = annihilator(F.denominator)
        return splitting_type(ann).negate()
    if not isinstance(F, SubbundleFamily):
        raise TypeError("splitting_type expects a bundle value")
    delta, d = sum(F.degrees), sum(annihilator(F).degrees)
    if delta != d:
        raise InternalError("not a free basis: degrees sum to %d, "
                            "annihilator's to %d" % (delta, d))
    return SplittingType.of([-e for e in F.degrees])


def family_contains(B: SubbundleFamily, column, degree) -> bool:
    """Is the given form-vector a section of B (pointwise in the fiber)?"""
    return solve_combination(B.columns(), B.degrees, column, degree) is not None


def family_span_equal(A: SubbundleFamily, B: SubbundleFamily) -> bool:
    """Pointwise span equality, decided by mutual module membership."""
    if A.ambient != B.ambient or A.rank != B.rank:
        return False
    for col, d in zip(A.columns(), A.degrees):
        if not family_contains(B, col, d):
            return False
    for col, d in zip(B.columns(), B.degrees):
        if not family_contains(A, col, d):
            return False
    return True


def coordinate_matrix(A: SubbundleFamily, B: SubbundleFamily):
    """Coordinates of A's basis columns in B's basis: columns c_i with
    A_i = B . c_i.  None where A is not pointwise contained in B."""
    coords = []
    for col, d in zip(A.columns(), A.degrees):
        c = solve_combination(B.columns(), B.degrees, col, d)
        if c is None:
            return None
        coords.append(c)
    return coords


def subquotient_splitting(A: SubbundleFamily, B: SubbundleFamily,
                          twist: int = 0) -> SplittingType:
    """Splitting type of (B/A) twisted by O(twist).

    Sections of the dual (B/A)* are the functional tuples g (one form of
    degree m + f_j per B-generator) annihilating A's coordinate columns, a
    graded kernel with twisted unknowns.  Its generator degrees are exactly
    the summands of B/A.
    """
    if A.ambient != B.ambient:
        raise InvalidInput("subquotient: ambient ranks differ")
    if A.rank > B.rank:
        raise InvalidInput("subquotient: rank A exceeds rank B")
    coords = coordinate_matrix(A, B)
    if coords is None:
        raise InvalidInput("not nested")
    if A.rank == B.rank:
        return SplittingType.of([])
    kB = B.rank
    relations = [list(c) for c in coords]          # one relation per A-column
    gens = graded_kernel(relations, kB, unknown_shifts=list(B.degrees),
                         expected_count=kB - A.rank)
    summands = [m for m, _ in gens]
    expected_sum = (sum(A.degrees) - sum(B.degrees))
    if sum(summands) != expected_sum:
        raise InternalError(
            "subquotient first-Chern bookkeeping failed: %r vs %d"
            % (summands, expected_sum))
    return SplittingType.of([m + twist for m in summands])


def is_split_extension(A: SubbundleFamily) -> bool:
    """Does the inclusion of A into the trivial bundle admit a holomorphic
    retraction R with R(z) basis(z) = identity?  Exactly when every degree
    of A is 0.

    R's row i lives in Hom(O^n, O(-e_i)).  If some e_i > 0 that space is 0,
    so row i of R . basis is zero and cannot be a row of the identity.  If
    every e_i is 0 the basis is a constant n x k matrix, and its k x k
    minors, the Pluecker coordinates, are constants with no common zero:
    :func:`~qlike.structures.validate` proves that of its family, and any
    free basis of a saturated family evaluates to a basis of every fibre.
    So some minor is nonzero, the columns are independent, and a left
    inverse of them is R.
    """
    return all(e == 0 for e in A.degrees)


def verify_canonical_sequences(Q: QuotientBundle) -> dict:
    """Dimension, rank, first-Chern and evaluation checks for the two
    canonical resolutions of a nonnegative bundle.

    The h^1 entry is computed from the splitting and cross-checked through
    the Serre-dual section space of the dual bundle.

    ``evaluation_surjective`` (H^0 maps onto every fibre) holds for every
    nonnegative splitting, so it is reported without a computation.  In
    the monomial basis of H^0 = sum_j S_(a_j), the value at [z0 : z1] of
    the basis section z0^(a_j - t) z1^t of summand j is nonzero only in
    entry j.  For a_j >= 0, one of z0^(a_j), z1^(a_j) is nonzero at every
    point, so each entry is hit, and there is one entry per annihilator
    generator: the evaluation has rank Q.rank.
    """
    ann_degrees = annihilator(Q.denominator).degrees
    st = SplittingType.of(ann_degrees)
    if not st.is_nonnegative():
        raise InvalidInput("not nonnegative: splitting %s" % st)
    h0 = st.h0(0)
    h0_m1 = st.h0(-1)
    h0_m2 = st.h0(-2)
    h1_m2 = sum(max(0, 1 - a) for a in st.summands)
    serre = st.negate().h0(0)
    report = {
        "splitting": st.to_json(),
        "h0": h0,
        "h0_minus1": h0_m1,
        "h0_minus2": h0_m2,
        "h1_minus2": h1_m2,
        "serre_h1_check": serre == h1_m2,
        "first_sequence": {
            "rank_additivity": h0_m1 + Q.rank == h0,
            "c1_additivity": st.degree == h0_m1,
        },
        "second_sequence": {
            "rank_additivity": h0_m2 - h0_m1 + Q.rank - h1_m2 == 0,
            "c1_additivity": st.degree == h0_m1,
        },
    }
    report["evaluation_surjective"] = True
    report["ok"] = all([
        report["serre_h1_check"],
        report["first_sequence"]["rank_additivity"],
        report["first_sequence"]["c1_additivity"],
        report["second_sequence"]["rank_additivity"],
    ])
    return report
