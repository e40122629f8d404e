"""Property tests: the Gaussian-integer solvers and the vector selection
against the Q(i) RREF oracle, and the modular route of ``kernel_basis`` and
``rank`` on wide inputs with its Bareiss fallback.

Each solver output is unique (kernel vectors are fixed by their free
column, particular solutions set every free variable to 0), so the solvers
must agree with the oracle Scalar by Scalar, not only up to span.  Every
entry point also gets block matrices, whose nonzero pattern has several
connected components, zero rows and unknowns in no row.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import rref

from qlike import linalg, modp
from qlike.linalg import independent_rows, kernel_basis, mat_mul, mat_vec, \
    rank, solve, solve_matrix, transpose
from qlike.scalars import ONE, ZERO, Scalar

SETTINGS = settings(max_examples=150, deadline=None)


def _entries(kind):
    small = st.integers(-6, 6)
    if kind == "zero":
        return st.just(ZERO)
    if kind == "gaussian-int":
        return st.builds(Scalar, small, small)
    den = st.integers(1, 5)
    rational = st.builds(Fraction, small, den)
    return st.one_of(st.just(ZERO), st.builds(Scalar, rational, rational))


def _big_entries():
    # denominators past 100 bits: the right sides this elimination clears
    # with one common factor instead of scaling the rows of A
    den = st.integers(2 ** 100, 2 ** 160)
    num = st.integers(-2 ** 40, 2 ** 40)
    return st.one_of(st.just(ZERO),
                     st.builds(Scalar, st.builds(Fraction, num, den),
                               st.builds(Fraction, num, den)))


@st.composite
def matrices(draw, max_rows=5, max_cols=6):
    kind = draw(st.sampled_from(["zero", "gaussian-int", "rational"]))
    entries = _entries(kind)
    n = draw(st.integers(1, max_rows))
    m = draw(st.integers(1, max_cols))
    rows = [[draw(entries) for _ in range(m)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        # a combination of two rows makes the matrix rank-deficient
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        c = Scalar(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        rows.append([x + c * y for x, y in zip(rows[i], rows[j])])
    return rows


def _oracle_kernel(a):
    m = len(a[0])
    r, pivots = rref(a)
    out = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [ZERO] * m
        v[fc] = ONE
        for k, pc in enumerate(pivots):
            v[pc] = -r[k][fc]
        out.append(v)
    return out


def _oracle_solve_matrix(a, b):
    m = len(a[0])
    r, pivots = rref([ra + rb for ra, rb in zip(a, b)])
    if pivots and pivots[-1] >= m:
        return None
    x = [[ZERO] * len(b[0]) for _ in range(m)]
    for k, pc in enumerate(pivots):
        x[pc] = r[k][m:]
    return x


@st.composite
def right_sides(draw, a, ncols):
    """``ncols`` right-hand sides for ``a``, with small or >100-bit
    denominators: consistent ones built as A x0, or arbitrary ones
    (inconsistent whenever they leave the column space of A)."""
    entries = draw(st.sampled_from([_entries("rational"), _big_entries()]))
    if draw(st.booleans()):
        x0 = [[draw(entries) for _ in range(ncols)] for _ in a[0]]
        return mat_mul(a, x0)
    return [[draw(entries) for _ in range(ncols)] for _ in a]


@st.composite
def block_matrices(draw):
    """A block-diagonal matrix with its rows and columns shuffled, so that
    its nonzero pattern has several components; zero rows and columns in no
    row are mixed in."""
    blocks = draw(st.lists(matrices(max_rows=3, max_cols=3), min_size=1,
                           max_size=4))
    ncols = sum(len(blk[0]) for blk in blocks) + draw(st.integers(0, 2))
    a = []
    off = 0
    for blk in blocks:
        for r in blk:
            a.append([ZERO] * off + r + [ZERO] * (ncols - off - len(r)))
        off += len(blk[0])
    a += [[ZERO] * ncols for _ in range(draw(st.integers(0, 2)))]
    perm = draw(st.permutations(range(ncols)))
    return draw(st.permutations([[row[j] for j in perm] for row in a]))


def some_matrices():
    return matrices() | block_matrices()


# a wide (>30-bit) 2 x 2 component beside a narrow 1 x 2 one
W = Scalar(2 ** 40 + 1, 3)
WIDE_AND_NARROW = [[W, ZERO, Scalar(0, 5), ZERO],
                   [ZERO, ONE, ZERO, Scalar(2)],
                   [2 * W, ZERO, Scalar(7), ZERO]]


@SETTINGS
@given(some_matrices())
@example([[ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]])
@example([[Scalar(1, 1), Scalar(2, -1)], [Scalar(0, 2), Scalar(3, 1)]])
@example(WIDE_AND_NARROW)
def test_kernel_basis_matches_rref(a):
    k = kernel_basis(a)
    assert k == _oracle_kernel(a)
    r = rank(a)
    assert r == len(rref(a)[1]) == len(a[0]) - len(k)


@SETTINGS
@given(st.data())
def test_solve_matches_rref(data):
    a = data.draw(some_matrices())
    b = [row[0] for row in data.draw(right_sides(a, 1))]
    expected = _oracle_solve_matrix(a, [[x] for x in b])
    x = solve(a, b)
    if expected is None:
        assert x is None
    else:
        assert x == [row[0] for row in expected]
        assert mat_vec(a, x) == b


@SETTINGS
@given(st.data())
def test_solve_matrix_matches_rref(data):
    a = data.draw(some_matrices())
    b = data.draw(right_sides(a, data.draw(st.integers(1, 3))))
    assert solve_matrix(a, b) == _oracle_solve_matrix(a, b)


def test_inconsistent_big_denominator_system():
    big = Fraction(1, 3 ** 70)
    a = [[ONE, Scalar(0, 1)], [Scalar(2), Scalar(0, 2)]]
    assert solve(a, [Scalar(big), Scalar(2 * big)]) == \
        [Scalar(big), ZERO]
    assert solve(a, [Scalar(big), Scalar(big)]) is None


@st.composite
def vector_lists(draw):
    """Rows of a matrix, with repeated rows, zero rows and multiples by
    >100-bit denominators mixed in."""
    vs = draw(matrices())
    m = len(vs[0])
    for _ in range(draw(st.integers(0, 2))):
        v = vs[draw(st.integers(0, len(vs) - 1))]
        vs.insert(draw(st.integers(0, len(vs))), list(v))
    if draw(st.booleans()):
        vs.insert(draw(st.integers(0, len(vs))), [ZERO] * m)
    if draw(st.booleans()):
        c = draw(_big_entries())
        vs.append([c * x for x in vs[draw(st.integers(0, len(vs) - 1))]])
    if draw(st.booleans()):
        vs.append([draw(_big_entries()) for _ in range(m)])
    return vs


def _greedy_independent(vs):
    # v is kept when appending it makes the rank grow
    def oracle_rank(a):
        return len(rref(a)[1])
    return [i for i in range(len(vs))
            if oracle_rank(vs[:i + 1]) > oracle_rank(vs[:i])]


@SETTINGS
@given(vector_lists() | block_matrices().map(transpose))
@example([])
@example([[ZERO, ZERO], [ONE, ZERO], [ONE, ZERO], [ZERO, ZERO]])
@example([[Scalar(Fraction(1, 3 ** 70)), Scalar(0, 1)],
          [ONE, Scalar(0, 3 ** 70)], [ZERO, ONE]])
def test_independent_rows_is_greedy_selection(vs):
    assert independent_rows(vs) == _greedy_independent(vs)


@st.composite
def block_systems(draw):
    """``(a, b)`` for a block matrix ``a``: right-hand sides are A x0
    (consistent) or A x0 with entries changed (inconsistent when a changed
    row depends on others of its component, or is zero)."""
    a = draw(block_matrices())
    ncols = len(a[0])
    entries = draw(st.sampled_from([_entries("rational"), _big_entries()]))
    b = mat_vec(a, [draw(entries) for _ in range(ncols)])
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(a) - 1))
        b[i] = b[i] + draw(entries)
    return a, b


@SETTINGS
@given(block_systems())
@example(([[ZERO, ZERO], [ONE, ZERO]], [ONE, ONE]))          # zero row, b != 0
@example(([[ONE, ZERO], [ONE, ZERO], [ZERO, Scalar(2)]],     # one component
          [ONE, Scalar(2), Scalar(3)]))                      # inconsistent
@example(([[ZERO, Scalar(0, 3), ZERO]], [Scalar(1, 1)]))     # unknowns in no row
@example((WIDE_AND_NARROW, [W, Scalar(3), ONE]))
@example((WIDE_AND_NARROW, [W, Scalar(3), 2 * W]))
@example(([], []))
def test_solve_and_kernel_basis_match_rref(system):
    a, b = system
    x, kernel = solve(a, b), kernel_basis(a)
    if a:
        expected = _oracle_solve_matrix(a, [[y] for y in b])
        assert x == (None if expected is None
                     else [row[0] for row in expected])
        assert kernel == _oracle_kernel(a)
    else:
        assert (x, kernel) == ([], [])


# (1+2i)^30: a Gaussian content far larger than the entries it multiplies
CONTENT = ONE
for _ in range(30):
    CONTENT = CONTENT * Scalar(1, 2)


@SETTINGS
@given(st.data())
def test_row_content_leaves_outputs_unchanged(data):
    # each elimination divides its cleared rows by their Gaussian content;
    # scaling rows (and, for independent_rows, coordinates) by a large
    # content must change no output
    a = data.draw(matrices())
    b = data.draw(right_sides(a, 2))
    scaled = [data.draw(st.booleans()) for _ in a]
    sa = [[CONTENT * x for x in row] if s else row for row, s in zip(a, scaled)]
    sb = [[CONTENT * x for x in row] if s else row for row, s in zip(b, scaled)]
    assert rank(sa) == rank(a) == len(rref(a)[1])
    assert kernel_basis(sa) == kernel_basis(a) == _oracle_kernel(a)
    b0 = [row[0] for row in b]
    assert solve(sa, [row[0] for row in sb]) == solve(a, b0)
    assert solve_matrix(sa, sb) == solve_matrix(a, b) == \
        _oracle_solve_matrix(a, b)
    coords = [data.draw(st.booleans()) for _ in a[0]]
    sv = [[CONTENT * x if s else x for x, s in zip(v, coords)] for v in a]
    assert independent_rows(sv) == independent_rows(a) == \
        _greedy_independent(a)


# -- wide inputs: the modular route of kernel_basis and rank ---------------

def _wide_gaussian():
    # a Gaussian integer whose real part has 31 to 80 bits
    return st.integers(31, 80).flatmap(lambda bits: st.builds(
        Scalar, st.integers(2 ** (bits - 1), 2 ** bits - 1)
        | st.integers(1 - 2 ** bits, -2 ** (bits - 1)),
        st.integers(1 - 2 ** bits, 2 ** bits - 1)))


@st.composite
def wide_matrices(draw):
    """Small matrices, often rank-deficient, with rows scaled by 31-80-bit
    Gaussian integers, and rows of >100-bit rationals or big-rational
    multiples of other rows mixed in."""
    a = draw(matrices())
    a = [[c * x for x in row] if draw(st.booleans()) else row
         for row, c in zip(a, draw(st.lists(_wide_gaussian(),
                                            min_size=len(a),
                                            max_size=len(a))))]
    m = len(a[0])
    if draw(st.booleans()):
        a.append([draw(_big_entries()) for _ in range(m)])
    if draw(st.booleans()):
        c = draw(_big_entries())
        a.append([c * x for x in a[draw(st.integers(0, len(a) - 1))]])
    return draw(st.permutations(a))


@SETTINGS
@given(wide_matrices())
@example([[Scalar(2 ** 40 + 1), Scalar(0, 3)], [Scalar(2 ** 41 + 2),
                                                Scalar(0, 6)]])
@example([[Scalar(2 ** 40 + 1), ONE, Scalar(0, 3)],
          [Scalar(0, 2 ** 40 + 1), Scalar(0, 1), Scalar(-3)],
          [ZERO, Scalar(2 ** 33), ONE]])
def test_wide_kernel_basis_and_rank_match_rref(a):
    assert kernel_basis(a) == _oracle_kernel(a)
    assert rank(a) == len(rref(a)[1])


def _count_bareiss(monkeypatch):
    calls = []
    inner = linalg._bareiss

    def counted(rows, ncols):
        calls.append(ncols)
        return inner(rows, ncols)
    monkeypatch.setattr(linalg, "_bareiss", counted)
    return calls


def _product(xs):
    out = 1
    for x in xs:
        out *= x
    return out


def test_modular_success_skips_bareiss(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    c = Scalar(2 ** 40 + 15, 2 ** 35)
    one_prime = [[c, 2 * c, 3 * c], [2 * c, 4 * c, 6 * c],
                 [Scalar(1, 1) * c, ZERO, c]]
    # -Y/X needs two primes to reconstruct; the pivot divisible by the
    # first prime only makes it start over at the second
    p1 = modp.KERNEL_PRIMES[0]
    crt = [[Scalar(2 ** 45 + 11), Scalar(3 ** 28)]]
    restart = [[Scalar(p1), ONE]]
    for a in (one_prime, crt, restart):
        assert kernel_basis(a) == _oracle_kernel(a)
    # a rank mod p of min(rows, cols) is a proof, and below it a checked
    # kernel candidate is
    assert rank(one_prime[1:]) == 2 and rank(crt) == 1
    assert rank(one_prime) == 2 and rank([[c, 2 * c], [2 * c, 4 * c]]) == 1
    assert calls == []


def test_modular_failures_fall_back_to_bareiss(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    q = _product(modp.KERNEL_PRIMES)
    # a pivot divisible by every prime: each reduction moves it
    a = [[Scalar(q), ONE]]
    assert kernel_basis(a) == [[Scalar(Fraction(-1, q)), ONE]]
    assert rank([[Scalar(q), ONE], [Scalar(2 * q), Scalar(3)]]) == 2
    assert len(calls) == 2
    # a kernel vector past the reconstruction range of all the primes
    a = [[Scalar(q + 1), Scalar(q + 2)]]
    assert kernel_basis(a) == _oracle_kernel(a)
    assert len(calls) == 3
    # a rank-deficient matrix whose kernel candidates all fail the check
    assert rank([[Scalar(q), ONE], [Scalar(2 * q), Scalar(2)]]) == 1
    assert len(calls) == 4


def test_wide_rank_falls_back_when_no_candidate_checks(monkeypatch):
    calls = _count_bareiss(monkeypatch)
    c = Scalar(2 ** 40 + 15, 2 ** 35)
    a = [[c, 2 * c, ONE], [2 * c, 4 * c, Scalar(2)], [ONE, Scalar(0, 1), c]]
    assert rank(a) == len(rref(a)[1]) == 2
    assert calls == []
    inner = modp.kernel_candidates

    def spoiled(rows, ncols):
        # each candidate with one entry moved off the kernel
        for vectors in inner(rows, ncols):
            (den, entries), *rest = vectors
            (j, (xr, xi)), *others = entries
            yield [(den, [(j, (xr + 1, xi))] + others)] + rest
    monkeypatch.setattr(modp, "kernel_candidates", spoiled)
    assert rank(a) == 2
    assert len(calls) == 1
