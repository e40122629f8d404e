"""Subbundles and quotients of trivial bundles over the sphere.

Every bundle handled here is either a :class:`SubbundleFamily` (a saturated
rank-k subbundle of a trivial bundle, stored as a free basis of its graded
section module) or a :class:`QuotientBundle` (trivial bundle modulo such a
family).  Section modules of subbundles over the sphere are free, so all
section spaces have explicit finite bases and everything reduces to exact
linear algebra.

Twist conventions: O(1) has section basis {z0, z1}; O(-1) is the tautological
line bundle.  A free basis column of degree e presents a line summand O(-e).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, InvalidInput
from .forms import BinaryForm, _int_polys, format_form, ip_add, ip_mul, parse_form
from .linalg import kernel_basis, rank as scalar_rank
from .modp import PRIMES, rank_modp, reduce_modp, sqrt_minus_one
from .polymatrix import (PolyMatrix, _equation_rows, annihilator_generators,
                         generic_rank, graded_kernel, solve_combination)

SAMPLE_POINTS = ((1, 0), (0, 1), (1, 1), (1, -1), (1, 2))


@dataclass(frozen=True)
class SplittingType:
    """Multiset of line-bundle Chern numbers, sorted descending."""

    summands: tuple

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

    def twist(self, m):
        return SplittingType.of([a + m for a in self.summands])

    def h0(self, m=0):
        return sum(max(0, a + m + 1) for a in self.summands)

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


@dataclass(frozen=True)
class QuotientBundle:
    """(trivial rank-n bundle) / denominator."""

    ambient: int
    denominator: SubbundleFamily

    @property
    def rank(self):
        return self.ambient - self.denominator.rank


def _family_of(n, gens):
    """The family whose free basis is the (degree, column) pairs ``gens``."""
    return SubbundleFamily(n, PolyMatrix.from_columns(
        n, [list(v) for _, v in gens], [m for m, _ in gens]))


def saturate(P: PolyMatrix) -> SubbundleFamily:
    """Free basis of the saturation of the image sheaf of P.

    Computed as annihilator-of-annihilator: the saturated module is exactly
    { v : q . v = 0 for every annihilator generator q }, and kernels of maps
    into torsion-free modules are already saturated.  The degree cap is the
    sum of P's column degrees + 1; failing to reach the free rank by then is
    a bug, not bad input.

    The annihilator generators built on the way are the basis of the
    result's annihilator: saturating does not change which functionals kill
    the fibers, and the graded kernel's output depends only on that module.
    So the result and that annihilator family are linked to each other, and
    :func:`annihilator` of either returns the other.  Only saturate sets
    links; a rank-0 result has none.
    """
    n = P.rows
    r = generic_rank(P.transpose_relations())
    if r == 0:
        return _family_of(n, [])
    ann = annihilator_generators(P.columns(), P.col_degrees, n, r)
    cap = sum(max(0, d) for d in P.col_degrees) + 1
    gens = graded_kernel([list(q) for _, q in ann], n, expected_count=r,
                         cap=cap, context="saturation")
    fam = _family_of(n, gens)
    if fam.rank != r:
        raise InternalError("saturation did not terminate")
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
    gens = annihilator_generators(columns, A.degrees, n, generic_rank(columns))
    if len(gens) != n - A.rank:
        raise InternalError("annihilator rank %d, expected %d"
                            % (len(gens), n - A.rank))
    return _family_of(n, gens)


def h0_dimension_by_solve(F: SubbundleFamily, m: int) -> int:
    """dim H^0(F(m)) by a direct degree-m solve against the annihilator.

    Independent of the basis degrees and of any modular reduction; the
    splitting cross-check runs the same solve wherever its certificate is
    inconclusive.
    """
    if m < 0:
        return 0
    return _h0_killed_by(annihilator(F), m)


def _h0_killed_by(ann: SubbundleFamily, m: int) -> int:
    """dim { v in S_m^n : <q, v> = 0 for every column q of ann }, via one
    kernel solve."""
    if m < 0:
        return 0
    n = ann.ambient
    relations = [list(col) for col in ann.columns()]
    eq = _equation_rows(relations, [0] * n, [m + 1] * n,
                        [i * (m + 1) for i in range(n)], m)
    if not eq:
        return n * (m + 1)
    return len(kernel_basis(eq))


def _certified_h0s(F: SubbundleFamily, ann: SubbundleFamily, twists):
    """{m: dim { v in S_m^n : <q, v> = 0 for every column q of ann }} for
    the twists, each proven by a modular rank certificate, or None where no
    prime certifies it.

    Lower bound: the rank modulo p of the equation matrix, whose rows are
    the pairings with ann's columns, each column cleared of denominators.
    Upper bound: the z-multiples of F's basis columns at degree m lie in
    its kernel once every column of ann pairs to zero with every column of
    F, which is checked exactly, as Gaussian-integer polynomial products.
    See :mod:`qlike.modp` for why meeting bounds prove the rank.
    """
    n = F.ambient
    fam = [_int_polys(col) for col in F.columns()]
    rels = [_int_polys(col) for col in ann.columns()]
    paired = all(not _pairing(q, f) for q in rels for f in fam)
    out = {}
    for m in twists:
        if m < 0:
            out[m] = 0                  # no sections in negative degree
        elif paired:
            out[m] = _certified_h0(rels, fam, F.degrees, n, m)
        else:
            out[m] = None
    return out


def _pairing(q, f):
    """<q, f> of two columns of Gaussian-integer polynomials."""
    acc = []
    for a, b in zip(q, f):
        acc = ip_add(acc, ip_mul(a, b))
    return acc


def _certified_h0(rels, fam, degrees, n, m):
    """The kernel dimension at twist m from the first prime whose two rank
    bounds meet; None if none does."""
    ncols = n * (m + 1)
    for p in PRIMES:
        ip = sqrt_minus_one(p)
        eq = []
        for q in rels:
            qp = reduce_modp(q, p, ip)
            block = [[0] * ncols for _ in range(max(map(len, qp)) + m)]
            for l, f in enumerate(qp):
                for u, a in enumerate(f):
                    if a:
                        for t in range(m + 1):
                            block[u + t][l * (m + 1) + t] = a
            eq.extend(block)
        witnesses = []
        for col, e in zip(fam, degrees):
            cp = reduce_modp(col, p, ip)
            for shift in range(m - e + 1):
                row = [0] * ncols
                for l, f in enumerate(cp):
                    off = l * (m + 1) + shift
                    row[off:off + len(f)] = f
                witnesses.append(row)
        r_eq = rank_modp(eq, p)
        if r_eq + rank_modp(witnesses, p) == ncols:
            return ncols - r_eq
    return None


def _quotient_sections(ann_degrees, m):
    """Pairing-tuple basis of H^0 of (trivial / A)(m), where A's annihilator
    has the given generator degrees."""
    basis = []
    for j, e in enumerate(ann_degrees):
        for t in range(max(0, m + e + 1)):
            tup = [BinaryForm.zero(max(m + d, 0)) for d in ann_degrees]
            tup[j] = BinaryForm.monomial(m + e, t)
            basis.append(tup)
    return basis


def h0_twist(F, m: int):
    """(dimension, explicit basis) of twisted global sections.

    SubbundleFamily: basis vectors are n-tuples of degree-m forms, spanning
    the sections whose value lies in the fiber at every point.
    QuotientBundle: a section is a tuple (f_j), one form of degree m + e_j
    per annihilator generator q_j (its pairing coordinates); the dimension is
    sum_j max(0, m + e_j + 1).
    """
    if isinstance(F, SubbundleFamily):
        basis = []
        for j in range(F.rank):
            e = F.degrees[j]
            col = F.basis.column(j)
            for t in range(max(0, m - e + 1)):
                mono = BinaryForm.monomial(m - e, t)
                basis.append([c * mono if not c.is_zero() else
                              BinaryForm.zero(m) for c in col])
        return len(basis), basis
    if isinstance(F, QuotientBundle):
        basis = _quotient_sections(annihilator(F.denominator).degrees, m)
        return len(basis), basis
    raise TypeError("h0_twist expects a SubbundleFamily or QuotientBundle")


def splitting_type(F) -> SplittingType:
    """Birkhoff-Grothendieck splitting type.

    For a SubbundleFamily the summands are the negated free-basis degrees;
    the result is cross-checked against the second differences of the
    twisted section dimensions h(m) = dim { v in S_m^n : <q, v> = 0 for
    every annihilator column q }.  Each h(m) is proven modulo a prime
    p = 1 mod 4: the rank of the pairing equations modulo p is at most
    their rank, and the z-multiples of F's basis at degree m, which pair to
    zero with the annihilator (checked exactly), bound the kernel from
    below.  When the two bounds meet h(m) is exact; otherwise the next
    prime is tried, and then the exact solve.  A family that is not
    saturated has too few z-multiples to certify, so it reaches the exact
    solve and fails the cross-check as before.
    """
    if isinstance(F, QuotientBundle):
        ann = annihilator(F.denominator)
        return splitting_type(ann).negate()
    if not isinstance(F, SubbundleFamily):
        raise TypeError("splitting_type expects a bundle value")
    st = SplittingType.of([-e for e in F.degrees])
    if F.rank:
        ann = annihilator(F)
        lo = min(F.degrees)
        hi = max(F.degrees)
        h = _certified_h0s(F, ann, range(lo - 2, hi + 2))
        for m, v in h.items():
            if v is None:
                h[m] = _h0_killed_by(ann, m)
        for m in range(lo, hi + 1):
            g_m = h[m] - h[m - 1]
            g_m1 = h[m - 1] - h[m - 2]
            mult = sum(1 for a in st.summands if a == -m)
            if mult != g_m - g_m1:
                raise InternalError(
                    "splitting cross-check failed at twist %d: "
                    "degree multiplicity %d vs second difference %d"
                    % (m, mult, g_m - g_m1))
    return st


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
    shifts = list(B.degrees)
    cap = sum(max(0, e) for e in A.degrees) + \
        sum(max(0, f) for f in B.degrees) + kB + 2
    gens = graded_kernel(relations, kB, unknown_shifts=shifts,
                         expected_count=kB - A.rank, cap=cap,
                         context="subquotient splitting")
    summands = [m for m, _ in gens]
    expected_sum = (sum(A.degrees) - sum(B.degrees))
    if sum(summands) != expected_sum:
        raise InternalError(
            "subquotient first-Chern bookkeeping failed: %r vs %d"
            % (summands, expected_sum))
    return SplittingType.of([m + twist for m in summands])


def is_split_extension(A: SubbundleFamily) -> bool:
    """Does the inclusion of A into the trivial bundle admit a holomorphic
    retraction R with R(z) basis(z) = identity?

    R's row i lives in Hom(O^n, O(-e_i)), i.e. forms of degree -e_i; the
    system is solved exactly (rows with e_i > 0 have no unknowns, so any
    required identity entry there already decides the answer).
    """
    k = A.rank
    if k == 0:
        return True
    n = A.ambient
    for i, e in enumerate(A.degrees):
        if e > 0:
            # row i of R is forced to zero; R.basis cannot hit the identity
            return False
    # all generator degrees zero: constant basis matrix, solve R B = I
    from .linalg import identity, solve_matrix
    bmat = [[A.basis.entries[l][j].coeffs[0] for j in range(k)]
            for l in range(n)]
    # R B = I transposes to B^T R^T = I with R^T the n x k unknown
    bt = [list(row) for row in zip(*bmat)]
    return solve_matrix(bt, identity(k)) is not None


def verify_canonical_sequences(Q: QuotientBundle) -> dict:
    """Dimension, rank, first-Chern and evaluation checks for the two
    canonical resolutions of a nonnegative bundle.

    The h^1 entry is computed from the splitting and cross-checked through
    the Serre-dual section space of the dual bundle.
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
    # evaluation surjectivity of H^0 onto three sample fibers
    basis = _quotient_sections(ann_degrees, 0)
    fibers_ok = True
    for z0, z1 in SAMPLE_POINTS[:3]:
        values = [[f.evaluate(z0, z1) for f in tup] for tup in basis]
        if scalar_rank(values) != Q.rank:
            fibers_ok = False
    report["evaluation_surjective"] = fibers_ok
    report["ok"] = all([
        report["serre_h1_check"],
        report["first_sequence"]["rank_additivity"],
        report["first_sequence"]["c1_additivity"],
        report["second_sequence"]["rank_additivity"],
        fibers_ok,
    ])
    return report
