"""Polynomial matrices and the graded kernel engine.

A :class:`PolyMatrix` presents a map of sheaves on the sphere by an n x m
matrix of binary forms, homogeneous of one degree per column.  The engine
below computes free generators of graded solution modules
``{ c : M(z) c(z) = 0 }`` degree by degree: at each degree the new generators
are the kernel vectors that :func:`~qlike.linalg.independent_rows` finds
independent of the z-multiples of the generators already found, so the
output degrees are minimal.  Kernels of maps into torsion-free modules are
saturated, hence free here (two variables), and the generator count equals
cols - generic rank; the loop stops exactly there.
"""

from __future__ import annotations

import os

from .errors import InternalError, InvalidInput
from .forms import BinaryForm
from .linalg import independent_rows, kernel_basis, rank, solve
from .scalars import ONE, ZERO, Scalar, scalar

DEFAULT_MAX_DEGREE = 64


def max_degree_cap():
    """The QLIKE_MAX_DEGREE cap on graded solves; a value that is not a
    nonnegative integer is bad input."""
    value = os.environ.get("QLIKE_MAX_DEGREE", "")
    if not value:
        return DEFAULT_MAX_DEGREE
    try:
        cap = int(value)
    except ValueError:
        cap = -1
    if cap < 0:
        raise InvalidInput("QLIKE_MAX_DEGREE must be a nonnegative integer, "
                           "got %r" % value)
    return cap


class PolyMatrix:
    """Immutable matrix of binary forms, column j homogeneous of degree d_j."""

    __slots__ = ("rows", "cols", "col_degrees", "entries")

    def __init__(self, rows, cols, col_degrees, entries):
        col_degrees = tuple(col_degrees)
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match shape %dx%d" % (rows, cols))
        if len(col_degrees) != cols:
            raise ValueError("need %d column degrees" % cols)
        for i in range(rows):
            for j in range(cols):
                e = entries[i][j]
                if not e.is_zero() and e.degree != col_degrees[j]:
                    raise ValueError(
                        "entry (%d, %d) has degree %d, column wants %d"
                        % (i, j, e.degree, col_degrees[j]))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "col_degrees", col_degrees)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @staticmethod
    def from_columns(ambient, columns, degrees=None):
        """Build from a list of columns (each a list of `ambient` forms)."""
        cols = len(columns)
        if degrees is None:
            degrees = []
            for col in columns:
                d = 0
                for f in col:
                    if not f.is_zero():
                        d = f.degree
                        break
                degrees.append(d)
        entries = [[columns[j][i] for j in range(cols)] for i in range(ambient)]
        return PolyMatrix(ambient, cols, degrees, entries)

    def column(self, j):
        return [self.entries[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def evaluate(self, z0, z1):
        z0, z1 = scalar(z0), scalar(z1)
        return [[e.evaluate(z0, z1) for e in row] for row in self.entries]

    def transpose_relations(self):
        """Rows-as-relations view: list of (row forms) used by the engine."""
        return [list(row) for row in self.entries]

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.col_degrees, self.entries) == \
               (other.rows, other.cols, other.col_degrees, other.entries)

    def __repr__(self):
        return "PolyMatrix(%dx%d, degrees=%r)" % (self.rows, self.cols,
                                                  list(self.col_degrees))


def generic_rank(rows_of_forms):
    """Generic rank of a matrix of forms, proven by point evaluation.

    A nonzero minor has degree at most the sum of per-column maxima, so
    sampling one more point than that bound realizes the generic rank.
    """
    if not rows_of_forms or not rows_of_forms[0]:
        return 0
    ncols = len(rows_of_forms[0])
    bound = 0
    for j in range(ncols):
        bound += max((row[j].degree for row in rows_of_forms
                      if not row[j].is_zero()), default=0)
    best = 0
    for t in range(bound + 1):
        pt = [[e.evaluate(ONE, Scalar(t)) for e in row] for row in rows_of_forms]
        best = max(best, rank(pt))
        if best == min(len(rows_of_forms), ncols):
            break
    return best


def graded_kernel(relation_rows, n_unknowns, unknown_shifts=None, *,
                  expected_count, cap, context="graded kernel"):
    """Minimal free generators of { c : sum_j M[i][j] * c_j = 0 for all i }.

    ``relation_rows`` is a list of rows, each a list of ``n_unknowns`` forms;
    ``unknown_shifts[j]`` twists the grading so that at stage m the unknown
    c_j runs over forms of degree m + shift_j.  Returns a list of
    ``(m, tuple_of_forms)`` pairs sorted by m (ties: discovery order).
    The generators of degree m are the kernel vectors at stage m that
    :func:`~qlike.linalg.independent_rows` finds independent of the
    z-multiples of the generators of lower degree (and of each other).
    It stops at ``expected_count`` generators (n_unknowns minus the generic
    rank) and fails past degree ``cap``, or QLIKE_MAX_DEGREE if lower.
    """
    shifts = list(unknown_shifts or [0] * n_unknowns)
    if len(shifts) != n_unknowns:
        raise ValueError("need one shift per unknown")
    if n_unknowns == 0 or expected_count == 0:
        return []
    cap = min(cap, max_degree_cap())

    gens = []
    m = -max(shifts)
    while m <= cap:
        lengths = [max(0, m + s + 1) for s in shifts]
        total = sum(lengths)
        if total > 0:
            offsets = [sum(lengths[:j]) for j in range(len(lengths))]
            eq_rows = _equation_rows(relation_rows, shifts, lengths, offsets, m)
            sols = kernel_basis(eq_rows) if eq_rows else \
                [[ONE if i == j else ZERO for i in range(total)] for j in range(total)]
            if sols:
                mults = [_multiple_coeffs(gvec, lengths, offsets, mono1)
                         for mg, gvec in gens
                         for mono1 in range(m - mg, -1, -1)]
                for i in independent_rows(mults + sols):
                    if i < len(mults):
                        continue
                    vec = _decode(sols[i - len(mults)], shifts, lengths,
                                  offsets, m)
                    gens.append((m, vec))
                    if len(gens) == expected_count:
                        return gens
        m += 1
    raise InternalError("%s did not terminate by degree %d" % (context, cap))


def _equation_rows(relation_rows, shifts, lengths, offsets, m):
    total = sum(lengths)
    out = []
    for row in relation_rows:
        by_degree = {}
        for j, f in enumerate(row):
            if lengths[j] == 0 or f.is_zero():
                continue
            D = f.degree + m + shifts[j]
            block = by_degree.get(D)
            if block is None:
                block = [[ZERO] * total for _ in range(D + 1)]
                by_degree[D] = block
            off = offsets[j]
            for u, a in enumerate(f.coeffs):
                if a.is_zero():
                    continue
                for t in range(lengths[j]):
                    block[u + t][off + t] = block[u + t][off + t] + a
        for D in sorted(by_degree):
            out.extend(by_degree[D])
    return out


def _multiple_coeffs(gvec, lengths, offsets, mono1):
    """Coefficient vector of z0^a z1^mono1 times a generator at this stage
    (the stage degree fixes a)."""
    total = sum(lengths)
    out = [ZERO] * total
    for j, f in enumerate(gvec):
        if lengths[j] == 0 or f.is_zero():
            continue
        off = offsets[j]
        # multiplying by z0^a z1^b shifts the z1-power index by b
        for u, c in enumerate(f.coeffs):
            if not c.is_zero():
                out[off + u + mono1] = out[off + u + mono1] + c
    return out


def _decode(sol, shifts, lengths, offsets, m):
    vec = []
    for j, L in enumerate(lengths):
        deg = m + shifts[j]
        if L == 0:
            vec.append(BinaryForm.zero(max(deg, 0)))
        else:
            vec.append(BinaryForm(deg, sol[offsets[j]:offsets[j] + L]))
    return tuple(vec)


def graded_kernel_basis(M: PolyMatrix) -> PolyMatrix:
    """Free generators of the syzygy module { c : M(z) c(z) = 0 }.

    Requires uniform column degrees, so that kernel vectors have one degree
    per generator and fit the PolyMatrix type (the generator degree is the
    common degree of its entries, and the generator count is
    cols - generic rank).  Mixed-degree relation systems go through
    :func:`graded_kernel` with explicit unknown shifts instead.
    """
    if len(set(M.col_degrees)) > 1:
        raise InvalidInput("graded_kernel_basis needs uniform column degrees;"
                           " use graded_kernel with unknown shifts")
    rows = M.transpose_relations()
    rk = generic_rank(rows)
    cap = sum(max(0, d) for d in M.col_degrees) + M.rows + 1
    gens = graded_kernel(rows, M.cols, expected_count=M.cols - rk, cap=cap,
                         context="syzygy computation")
    return PolyMatrix.from_columns(M.cols, [list(v) for _, v in gens],
                                   [m for m, _ in gens])


def annihilator_generators(columns, col_degrees, ambient, rank):
    """Free generators of { g in S^ambient : g . column = 0 for all columns }.

    These are the functional covectors killing the pointwise span of the
    column family; the result is automatically the saturated annihilator
    module.  ``rank`` is the columns' generic rank.  Returns a list of
    (degree, covector) pairs.
    """
    cap = sum(max(0, d) for d in col_degrees) + 2
    return graded_kernel([list(col) for col in columns], ambient,
                         expected_count=ambient - rank, cap=cap,
                         context="annihilator computation")


def solve_combination(columns, col_degrees, target, target_degree):
    """Write ``target`` as sum_i c_i * columns[i] with deg c_i = target_degree - d_i.

    Returns the coefficient forms, or None when target is not in the module
    generated by the columns.  For a free saturated basis the solution is
    unique when it exists.
    """
    ncols = len(columns)
    ambient = len(target)
    shifts = [-d for d in col_degrees]
    lengths = [max(0, target_degree + s + 1) for s in shifts]
    offsets = [sum(lengths[:j]) for j in range(ncols)]
    total = sum(lengths)
    if total == 0:
        if all(f.is_zero() for f in target):
            return list(_decode([], shifts, lengths, offsets, target_degree))
        return None
    if any(not f.is_zero() and f.degree != target_degree for f in target):
        return None
    # the target rides as one more unknown, of degree 0, so the last entry
    # of each row is its right-hand side
    relations = [[col[l] for col in columns] + [target[l]]
                 for l in range(ambient)]
    rows = _equation_rows(relations, shifts + [-target_degree],
                          lengths + [1], offsets + [total], target_degree)
    # no rows: every column and the target are zero, and c = 0 solves it
    a = [r[:total] for r in rows] or [[ZERO] * total]
    b = [r[total] for r in rows] or [ZERO]
    sol = solve(a, b)
    if sol is None:
        return None
    return list(_decode(sol, shifts, lengths, offsets, target_degree))

