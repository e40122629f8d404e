"""Seeded random generation of valid structures and quadruples.

Everything is driven by `random.Random(seed)` so failures are reproducible;
the generators rejection-sample through the validators.
"""

from __future__ import annotations

import random

from .errors import InvalidInput
from .forms import BinaryForm
from .lie import builtin_algebra
from .orbit import GoodQuadruple, adjoint_quadruple
from .polymatrix import PolyMatrix
from .scalars import Scalar, ZERO
from .structures import QLikeStructure, validate


def _random_scalar(rng, span=2):
    return Scalar(rng.randint(-span, span), rng.randint(-span, span))


def _random_form(rng, degree, span=2):
    coeffs = [_random_scalar(rng, span) for _ in range(degree + 1)]
    return BinaryForm(degree, coeffs)


# largest dim and column degree of a sampled structure; attempts for each
MAX_DIM, MAX_DEGREE, MAX_TRIES = 8, 3, 400


def random_structure(rng: random.Random) -> QLikeStructure:
    """A random valid complex-mode structure (validator-passing, warnings
    allowed), dim <= MAX_DIM and column degrees <= MAX_DEGREE."""
    for _ in range(MAX_TRIES):
        n = rng.randint(3, MAX_DIM)
        k = rng.randint(1, min(n - 1, 4))
        degrees = [rng.randint(1, MAX_DEGREE) for _ in range(k)]
        cols = [[_random_form(rng, d) for _ in range(n)] for d in degrees]
        # a draw that is not a valid structure is bad input, and is drawn
        # again; any other exception is a broken invariant and propagates
        try:
            spanning = PolyMatrix.from_columns(n, cols, degrees)
            S = QLikeStructure(n, k, spanning, None, complex_mode=True)
            report = validate(S)
        except InvalidInput:
            continue
        if report.passed:
            return S
    raise InvalidInput("could not sample a valid structure in %d tries"
                       % MAX_TRIES)


def random_structures(seed, count):
    """``count`` structures of :func:`random_structure` from one seed."""
    rng = random.Random(seed)
    return [random_structure(rng) for _ in range(count)]


def random_nilpotent(rng: random.Random, algebra_name):
    """A nonzero ad-nilpotent element in coordinates of the built-in basis."""
    ma = builtin_algebra(algebra_name)
    n = len(ma.basis_matrices[0])
    if algebra_name.startswith("sl"):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        while True:
            m = [[ZERO] * n for _ in range(n)]
            nonzero = False
            for (i, j) in upper:
                c = Scalar(rng.randint(-2, 2))
                if not c.is_zero():
                    nonzero = True
                m[i][j] = c
            if nonzero:
                return ma, ma.coordinates_of_matrix(m)
    if algebra_name == "so(5)":
        # N = v w^T - w v^T for isotropic orthogonal v, w is antisymmetric
        # with N^2 = 0; v runs over the isotropic conic in the first three
        # coordinates, w over the fixed isotropic line in the last two.
        while True:
            a = rng.randint(-2, 2)
            b = rng.randint(-2, 2)
            s = rng.randint(-2, 2)
            if (a == 0 and b == 0) or s == 0:
                continue
            v = [Scalar(a * a - b * b), Scalar(0, a * a + b * b),
                 Scalar(2 * a * b), ZERO, ZERO]
            w = [ZERO, ZERO, ZERO, Scalar(s), Scalar(0, s)]
            m = [[v[i] * w[j] - w[i] * v[j] for j in range(5)]
                 for i in range(5)]
            if any(not x.is_zero() for row in m for x in row):
                return ma, ma.coordinates_of_matrix(m)
    raise InvalidInput("no nilpotent sampler for %r" % algebra_name)


def random_adjoint_quadruple(rng: random.Random,
                             pool=("sl(3)", "sl(4)", "so(5)")) -> GoodQuadruple:
    name = rng.choice(list(pool))
    ma, y = random_nilpotent(rng, name)
    return adjoint_quadruple(ma.algebra, y, "random-adjoint:%s" % name)


def random_quadruples(seed, count, pool=("sl(3)", "sl(4)", "so(5)")):
    rng = random.Random(seed)
    return [random_adjoint_quadruple(rng, pool) for _ in range(count)]
