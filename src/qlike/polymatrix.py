"""Polynomial matrices and the graded kernel engine.

A :class:`PolyMatrix` presents a map of sheaves on the sphere by an n x m
matrix of binary forms, homogeneous of one degree per column.  The engine
below computes free generators of graded solution modules
``{ c : M(z) c(z) = 0 }`` degree by degree: the generators of degree m are
the stage-m kernel vectors independent of the z-multiples of the generators
already found, so the output degrees are minimal.  Kernels of maps into
torsion-free modules are saturated, hence free here (two variables), and
the generator count equals cols - generic rank; the loop stops exactly
there, and it never passes a degree bound B that it proves first from its
input, so it takes no degree limit from its caller.  Twist c_j by its
shift s_j and split each relation by the degree t = deg f_ij + s_j of its
terms: the system is a map sum_j O(s_j) -> sum_g O(t_g) of generic rank
rho on the sphere, whose kernel is a subbundle sum_i O(-m_i) of rank
c = n - rho, with a generator at each stage m_i (Birkhoff-Grothendieck).
The image's determinant maps into the rho-th exterior power of the
target, so sum_i m_i = c1(image) -
sum_j s_j <= T - sum_j s_j, for T the sum of the rho largest t_g; and each
m_i >= -max s_j, as O(-m_i) maps into sum_j O(s_j).  So every m_i is at
most B = T - sum_j s_j + (c - 1) max s_j.  The conic's relations
z1 x0 - z0 x1 = z1 x1 - z0 x2 = 0 have t = (1, 1), rho = 2 and c = 1, so
B = 2, the degree of their one generator, the conic:

>>> from qlike.forms import BinaryForm, Z0, Z1
>>> rows = [[Z1, -Z0, BinaryForm.zero(1)], [BinaryForm.zero(1), Z1, -Z0]]
>>> _degree_bound(rows, [0, 0, 0], 1)
2
>>> graded_kernel(rows, 3, expected_count=1)
[(2, (BinaryForm('z0^2'), BinaryForm('z0*z1'), BinaryForm('z1^2')))]

Empty stages.  At stage m the generators found so far, of degrees m_g,
have M(m) = sum_g (m - m_g + 1) z-multiples.  Minimal generators of a free
graded module are a basis of it, so these multiples are independent exact
kernel vectors, and M(m) <= dim ker.  The equation rows of a relation,
scaled by a constant, have the same kernel, so reducing each relation's
Gaussian-integer numerators modulo p = ``modp.PRIMES[0]`` gives rows whose
rank r_p over GF(p) is at most the exact rank ("Rank" in :mod:`qlike.modp`):
dim ker <= T(m) - r_p, for T(m) the stage's unknowns.  When T(m) - r_p =
M(m) the multiples span the kernel, and the stage has no new generator;
only the other stages are eliminated exactly.  An unlucky prime merely
sends a stage to the exact path.  Two more facts spare most modular ranks:

* downward closure: c -> z0 c maps the stage-(m - 1) kernel injectively
  into the stage-m kernel, so a trivial kernel at stage m proves every
  stage below it trivial.  A stage with fewer equation rows R(m) than
  unknowns has a kernel, so the last stage with R(m) >= T(m) is the
  highest one that can be trivial; one modular rank there, when it
  equals T(m), skips it and every stage below it.  Otherwise the stages
  are scanned from the bottom;
* row count: the exact rank is at most R(m), so dim ker >= T(m) - R(m).
  When that exceeds M(m) the stage has a new generator, and it is
  eliminated with no modular rank.

The conic's stages 0, 1 and 2 have 3, 6 and 9 unknowns and 4, 6 and 8
rows.  Stage 1 has full rank modulo p, so stages 0 and 1 are empty, and
stage 2, with a spare unknown and no multiples, is the one eliminated:

>>> groups = _degree_groups(rows, [0, 0, 0])
>>> [(_section_layout([0, 0, 0], m)[2], _row_count(groups, m))
...  for m in (0, 1, 2)]
[(3, 4), (6, 6), (9, 8)]
>>> rows_p = _relations_modp([_column_numerators(row) for row in rows])
>>> _stage_rank_modp(rows_p, [0, 0, 0], 1)
6

Selection.  Each exact kernel vector sols[i] is 1 on its free column f_i,
0 on the other free columns and nonzero only on pivots left of f_i
(:func:`~qlike.linalg.kernel_basis`), so the map v -> (v[f_1], ..., v[f_K])
is an isomorphism from the kernel onto K-space that sends sols[i] to e_i.
Let A be the M x K matrix of the multiples' entries at f_1..f_K.  Then
sols[i] depends on the multiples and sols[:i] exactly when e_i, cut to its
coordinates i..K, lies in the row space of A[:, i:], that is when
rank A[:, i:] = 1 + rank A[:, i+1:]: when column i is a pivot of A's
columns scanned from right to left.  So the new generators are the
kernel vectors whose column of A is not such a pivot, and one
fraction-free echelon of A's rows with their columns reversed picks them.
A row of A is one multiple; the generators are kept as Gaussian-integer
numerators with their denominators dropped, which scales each multiple,
hence each row of A, by a nonzero constant and keeps the column pivots.

Every graded system, exact or modulo a prime, is built in this module's
section-space layout, and every generator goes from the integers of an
echelon to its forms with no Scalar in between.
"""

from __future__ import annotations

from .errors import InternalError, InvalidInput
from .forms import BinaryForm, _column_numerators, _form
from .linalg import _bareiss, integer_kernel, rank, solve
from .modp import PRIMES, rank_modp, reduce_modp, sqrt_minus_one
from .scalars import ZERO, clear_denominators

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


def _apply_scalar_matrix(M, forms, degree=0):
    """The forms sum_j M[i][j] * forms[j], one per row of the scalar matrix
    ``M``; a row with no term of nonzero scalar and form gives the zero
    form of ``degree``."""
    out = []
    for row in M:
        s = BinaryForm.zero(degree)
        for c, f in zip(row, forms):
            if c and f:
                s = s + f.scale(c)
        out.append(s)
    return out


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
        pt = [[e.evaluate(1, t) for e in row] for row in rows_of_forms]
        best = max(best, rank(pt))
        if best == min(len(rows_of_forms), ncols):
            break
    return best


def graded_kernel(relation_rows, n_unknowns, unknown_shifts=None, *,
                  expected_count):
    """Minimal free generators of { c : sum_j M[i][j] * c_j = 0 for all i }.

    ``relation_rows`` is a list of rows, each a list of ``n_unknowns`` forms;
    ``unknown_shifts[j]`` twists the grading so that at stage m the unknown
    c_j runs over forms of degree m + shift_j.  Returns a list of
    ``(m, tuple_of_forms)`` pairs sorted by m (ties: discovery order).
    Stages a modular rank proves empty are skipped: all those below the
    last stage with as many rows as unknowns when it has full rank, and
    any stage whose kernel dimension modulo p equals the count of
    z-multiples of the generators already found.  A stage with more spare
    unknowns than multiples is eliminated with no modular rank.  At an
    eliminated stage the generators of degree m are the exact kernel
    vectors independent of those multiples and of the kernel vectors
    before them, chosen on the kernel's free coordinates before they are
    built (see the module docstring for the proofs).  It stops at
    ``expected_count`` generators (n_unknowns minus the generic rank of the
    rows split by degree), and fails past the module's proven bound B
    (internal error).
    """
    shifts = list(unknown_shifts or [0] * n_unknowns)
    if len(shifts) != n_unknowns:
        raise ValueError("need one shift per unknown")
    if n_unknowns == 0 or expected_count == 0:
        return []
    bound = _degree_bound(relation_rows, shifts, expected_count)
    groups = _degree_groups(relation_rows, shifts)
    # scaling a relation keeps its kernel, so its numerators give the rows
    nums = [_column_numerators(row) for row in relation_rows]
    rows_p = _relations_modp(nums)
    m = -max(shifts)
    ranks = {}          # r_p of each stage ranked modulo p
    tall = [t for t in range(m, bound + 1)
            if _row_count(groups, t) >= _section_layout(shifts, t)[2]]
    if tall:
        top = tall[-1]
        ranks[top] = _stage_rank_modp(rows_p, shifts, top)
        if ranks[top] == _section_layout(shifts, top)[2]:
            m = top + 1         # the kernel is trivial up to stage top
    gens = []
    known = []          # (degree, coefficient blocks) of each generator
    while m <= bound:
        lengths, offsets, total = _section_layout(shifts, m)
        n_mults = sum(m - mg + 1 for mg, _ in known)
        if total - _row_count(groups, m) <= n_mults:
            if m not in ranks:
                ranks[m] = _stage_rank_modp(rows_p, shifts, m)
            if total - ranks[m] <= n_mults:
                m += 1
                continue
        wanted = expected_count - len(gens)
        for den, sol in integer_kernel(
                _equation_rows(nums, shifts, m, zero=(0, 0)), total,
                lambda free: _new_kernel_vectors(
                    free, known, shifts, m)[:wanted]):
            gens.append((m, _decode(sol, shifts, m, den)))
            known.append((m, _blocks(sol, offsets, lengths)))
        if len(gens) == expected_count:
            return gens
        m += 1
    raise InternalError("graded kernel short of %d generators by degree %d, "
                        "its proven bound" % (expected_count, bound))


def graded_kernel_from_basis(columns, degrees):
    """What :func:`graded_kernel` returns, with unknown shifts 0, for a
    system whose solution module is free on ``columns`` (lists of forms,
    column j homogeneous of degree ``degrees[j]``), without its relations.

    Stage m's kernel is then the span of the z-multiples of the columns of
    degree at most m, and new generators fall only at the columns'
    degrees.  Let W be the matrix whose rows are those multiples, built
    from the columns' Gaussian-integer numerators: scaling a column scales
    its rows of W, which changes neither W's row space nor W_F^-1 W below.
    The multiples of a free basis are independent, so W has full row rank.
    The kernel's free coordinates F are the pivots of W's columns scanned
    from the right: by matroid duality, the complement of the equation
    rows' pivots from the left.  Reverse W's columns and bring it to
    reduced row echelon form R: its pivots are F, read from the right, and
    R = W_F^-1 W (columns reversed) for the square block W_F = W[:, F],
    since R = E W for an invertible E, and R is the identity on F.  So the
    row of R with its pivot on F[i], read from the right, is the kernel
    vector that is 1 on F[i] and 0 on the rest of F, which is what
    :func:`~qlike.linalg.kernel_basis` returns.  One fraction-free
    Gauss-Jordan pass (``reduced`` :func:`~qlike.linalg._bareiss`) gives
    d R for its last pivot d, with every division exact ("Reduced form" in
    :mod:`qlike.linalg`), so each row of R is Gaussian-integer numerators
    over d, or, times conj(d), over the int d conj(d).  graded_kernel's
    rule picks the new generators from F alone, and only their rows are
    read.  It runs no stage above the largest column degree, so it needs
    no bound of its own.
    """
    if not columns:
        return []
    shifts = [0] * len(columns[0])
    # a zero entry may carry another degree than its column: it writes no
    # coordinate
    blocks = [[num if f else ()
               for f, num in zip(col, _column_numerators(col))]
              for col in columns]
    gens = []
    known = []
    for m in sorted(set(degrees)):
        lengths, offsets, total = _section_layout(shifts, m)
        rows = [_multiple_coeffs(gvec, shifts, m, mono1)[::-1]
                for gvec, d in zip(blocks, degrees) if d <= m
                for mono1 in range(m - d + 1)]
        pivots = _bareiss(rows, total, reduced=True)
        last = len(pivots) - 1
        free = [total - 1 - c for c in reversed(pivots)]
        dr, di = rows[last][pivots[last]]
        den = dr * dr + di * di
        for i in _new_kernel_vectors(free, known, shifts, m):
            vec = rows[last - i][::-1]          # d times the kernel vector
            sol = [(re * dr + im * di, im * dr - re * di) for re, im in vec]
            gens.append((m, _decode(sol, shifts, m, den)))
            known.append((m, _blocks(vec, offsets, lengths)))
    return gens


def _relations_modp(nums):
    """Each relation's Gaussian-integer numerators modulo ``PRIMES[0]``:
    untrimmed coefficient lists for :func:`_equation_rows`."""
    p = PRIMES[0]
    ip = sqrt_minus_one(p)
    return [reduce_modp(row, p, ip) for row in nums]


def _stage_rank_modp(rows_p, shifts, m):
    """The rank r_p of stage m's equation rows modulo ``PRIMES[0]``."""
    return rank_modp(_equation_rows(rows_p, shifts, m, zero=0), PRIMES[0])


def _new_kernel_vectors(free, known, shifts, m):
    """Positions, in the list ``free`` of a stage-m kernel's free columns,
    of the kernel vectors that are independent of the z-multiples of the
    ``known`` generators and of the vectors before them: the columns of A,
    the multiples' entries at the free columns, that are not pivots from
    the right (module docstring)."""
    if not known:
        # with no generator yet, every kernel vector is new
        return list(range(len(free)))
    rows = [_multiple_coeffs(blocks, shifts, m, mono1)
            for mg, blocks in known
            for mono1 in range(m - mg, -1, -1)]
    last = len(free) - 1
    pivots = set(_bareiss([[v[f] for f in reversed(free)] for v in rows],
                          len(free)))
    return [i for i in range(len(free)) if last - i not in pivots]


def _degree_groups(relation_rows, shifts):
    """(t, s) for each degree group of each relation: t = deg f + shift_j
    for its nonzero entries f, and s the largest shift_j among them."""
    groups = []
    for row in relation_rows:
        top = {}
        for f, shift in zip(row, shifts):
            if f:
                t = f.degree + shift
                top[t] = max(top.get(t, shift), shift)
        groups.extend(top.items())
    return groups


def _row_count(groups, m):
    """How many rows :func:`_equation_rows` builds at stage m: D + 1 for
    each group of degree D = t + m with an unknown of stage m."""
    return sum(t + m + 1 for t, s in groups if m + s >= 0)


def _degree_bound(relation_rows, shifts, count):
    """The bound B of the module docstring, for a kernel of rank count."""
    ts = [t for t, _ in _degree_groups(relation_rows, shifts)]
    return (sum(sorted(ts, reverse=True)[:len(shifts) - count])
            - sum(shifts) + (count - 1) * max(shifts))


# -- the section-space layout ------------------------------------------------
# A section (c_j) of the sum of the O(m + shift_j) is the vector whose block j
# holds the max(0, m + shift_j + 1) coefficients of c_j.  The builders take
# forms as coefficient sequences (BinaryForm.coeffs, or Gaussian-integer
# numerators as (re, im) pairs or their untrimmed reductions modulo a
# prime), and ``zero``, the zero of their entries, fills the other cells.
# A cell gets at most one coefficient ((u, t) -> (u + t, offset_j + t) is
# injective and the blocks are disjoint), so the builders assign.

def _section_layout(shifts, m):
    """(lengths, offsets, total) of the blocks at stage m."""
    lengths = [max(0, m + s + 1) for s in shifts]
    offsets = []
    total = 0
    for length in lengths:
        offsets.append(total)
        total += length
    return lengths, offsets, total


def _equation_rows(relation_rows, shifts, m, zero=ZERO):
    """Rows of sum_j f_ij * c_j = 0 on the stage-m coordinates of the c_j:
    one row per monomial of each relation's degree, a relation's entries
    grouped by degree, and no rows for a relation whose entries are zero."""
    lengths, offsets, total = _section_layout(shifts, m)
    out = []
    for row in relation_rows:
        by_degree = {}
        for j, f in enumerate(row):
            length = lengths[j]
            if not length or all(a == zero for a in f):
                continue
            D = len(f) - 1 + m + shifts[j]
            block = by_degree.get(D)
            if block is None:
                block = by_degree[D] = [[zero] * total for _ in range(D + 1)]
            off = offsets[j]
            for u, a in enumerate(f):
                if a != zero:
                    for t in range(length):
                        block[u + t][off + t] = a
        for D in sorted(by_degree):
            out.extend(by_degree[D])
    return out


def _multiple_coeffs(gvec, shifts, m, mono1):
    """Stage-m coordinates of z0^a z1^mono1 times the generator whose forms
    have the Gaussian-integer numerators ``gvec`` (the stage degree fixes
    a)."""
    _, offsets, total = _section_layout(shifts, m)
    out = [(0, 0)] * total
    for off, f in zip(offsets, gvec):
        # multiplying by z0^a z1^mono1 shifts the z1-power index by mono1;
        # a block of length 0 is empty in gvec too
        out[off + mono1:off + mono1 + len(f)] = f
    return out


def _blocks(sol, offsets, lengths):
    """The stage coordinates ``sol`` cut into the blocks of the unknowns."""
    return [sol[off:off + length] for off, length in zip(offsets, lengths)]


def _decode(nums, shifts, m, den=1):
    """The forms whose stage-m coordinates are the Gaussian-integer
    numerators ``nums`` over the int ``den > 0``."""
    lengths, offsets, _ = _section_layout(shifts, m)
    return tuple(_form(m + s, nums[off:off + length], den) if length else
                 BinaryForm.zero(max(m + s, 0))
                 for s, length, off in zip(shifts, lengths, offsets))


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
    gens = graded_kernel(rows, M.cols,
                         expected_count=M.cols - generic_rank(rows))
    return PolyMatrix.from_columns(M.cols, [list(v) for _, v in gens],
                                   [m for m, _ in gens])


def solve_combination(columns, col_degrees, target, target_degree):
    """Write ``target`` as sum_i c_i * columns[i] with deg c_i = target_degree - d_i.

    Returns the coefficient forms, or None when target is not in the module
    generated by the columns.  For a free saturated basis the solution is
    unique when it exists.
    """
    ambient = len(target)
    shifts = [-d for d in col_degrees]
    total = _section_layout(shifts, target_degree)[2]
    if total == 0:
        if all(f.is_zero() for f in target):
            return list(_decode([], shifts, target_degree))
        return None
    if any(not f.is_zero() and f.degree != target_degree for f in target):
        return None
    # the target rides as one more unknown, of degree 0 and so the last in
    # the layout, so the last entry of each row is its right-hand side
    relations = [[col[l].coeffs for col in columns] + [target[l].coeffs]
                 for l in range(ambient)]
    rows = _equation_rows(relations, shifts + [-target_degree], target_degree)
    # no rows: every column and the target are zero, and c = 0 solves it
    a = [r[:total] for r in rows] or [[ZERO] * total]
    b = [r[total] for r in rows] or [ZERO]
    sol = solve(a, b)
    if sol is None:
        return None
    den, nums = clear_denominators(sol)
    return list(_decode(nums, shifts, target_degree, den))
