"""The embedding checks of validate: the Grassmann curve z -> U^z of a
structure must be immersed and injective.

The curve is read through its Pluecker coordinates, binary forms over the
Gaussian integers, of degree d, the sum of the family's degrees.
:func:`curve_checks` first decides both checks from the dimension of their
span.  When the coordinates span all d + 1 forms of degree d (d >= 1,
proven by an exact rank), the curve is a rational normal curve:

* z0^d and z1^d lie in the span, so the coordinates have no common zero;
* the coordinate vector is gamma = A nu_d, where nu_d = (z0^d, z0^(d-1)
  z1, ..., z1^d) is the degree-d rational normal curve and row i of A holds
  the coefficients of coordinate i.  A has rank d + 1, so it is injective,
  and gamma is embedded when nu_d is;
* nu_d is embedded (Harris, *Algebraic Geometry: A First Course*, Lecture
  1): in the chart z0 = 1 it is t -> (1, t, ..., t^d), whose second
  coordinate over its first recovers t and whose derivative (0, 1, ...) is
  never proportional to it; the chart z1 = 1 is the mirror image, and only
  z0 = 0 maps to a point with first coordinate 0.  So gamma is immersed
  and injective.

The twisted cubic takes this rule and runs no certificate:

>>> from qlike.bundles import saturate
>>> from qlike.forms import parse_form
>>> from qlike.polymatrix import PolyMatrix
>>> cubic = [parse_form(t) for t in ("z0^3", "z0^2*z1", "z0*z1^2", "z1^3")]
>>> checks, routes = curve_checks(saturate(PolyMatrix.from_columns(4, [cubic])))
>>> checks
[('immersion', 'pass', ''), ('injectivity', 'pass', '')]
>>> routes
{'pluecker': 'exact', 'immersion': 'exact', 'injectivity': 'exact'}

Otherwise (a span of dimension at most d, or d = 0, the constant map) each
check is first proven modulo a prime (:mod:`qlike.modp`) on a basis of the
span.  The exact route decides every failure and whatever the certificate
leaves open; only injectivity may end in sampling, which is reported as a
warning.  A smooth rational quartic in P^3 is one such curve:

>>> quartic = [parse_form(t) for t in ("z0^4", "z0^3*z1", "z0*z1^3", "z1^4")]
>>> checks, routes = curve_checks(saturate(PolyMatrix.from_columns(4, [quartic])))
>>> [status for _, status, _ in checks]
['pass', 'pass']
>>> routes["immersion"]
'modular:998244353'
"""

from __future__ import annotations

import itertools

# rank and resultant_gcd_is_constant are called through their modules, so
# that a tracer which rebinds them there (perfbench/tracer.py) sees the calls
from . import linalg, modp
from .bundles import SubbundleFamily
from .errors import InternalError
from .forms import (_column_numerators, _form, form_gcd, ip_add, ip_deriv,
                    ip_gcd, ip_mul, ip_scale, ip_sub, ip_trim)
from .linalg import independent_rows
from .modp import bideg, coprime_forms_prime, reduce_modp
from .scalars import Scalar


def _pluecker_coordinates(family: SubbundleFamily):
    """All k x k minors of the basis (rows sorted lexicographically), as
    trimmed Gaussian-integer pair lists.

    Each basis column is cleared of denominators first, so every minor is
    the true one times the same positive integer.
    """
    n, k = family.ambient, family.rank
    table = {(): [(1, 0)]}
    for j, col in enumerate(family.columns()):
        col = [ip_trim(list(f)) for f in _column_numerators(col)]
        new = {}
        for rows in itertools.combinations(range(n), j + 1):
            acc = []
            for pos, i in enumerate(rows):
                sub = table[rows[:pos] + rows[pos + 1:]]
                if not col[i] or not sub:
                    continue
                term = ip_mul(sub, col[i])
                acc = ip_sub(acc, term) if pos % 2 else ip_add(acc, term)
            new[rows] = acc
        table = new
    return [table[rows] for rows in itertools.combinations(range(n), k)]


def curve_checks(family: SubbundleFamily):
    """``(checks, routes)`` for the Grassmann curve of the saturated
    ``family``: ``checks`` holds the ``(name, status, detail)`` of
    immersion and injectivity, and ``routes`` says how "pluecker",
    "immersion" and "injectivity" were decided (see the module docstring).
    """
    coords = _pluecker_forms(family)
    d = len(coords[0]) - 1
    if d >= 1 and linalg.rank(_scalar_rows(coords)) == d + 1:
        # a rational normal curve: coprime, immersed and injective
        return ([("immersion", "pass", ""), ("injectivity", "pass", "")],
                dict.fromkeys(("pluecker", "immersion", "injectivity"),
                              "exact"))
    routes = {}
    gamma, routes["pluecker"] = _reduced_pluecker(coords)
    if len(gamma) == 1:
        routes["immersion"] = routes["injectivity"] = "exact"
        return ([("immersion", "fail", "constant map, not an embedding"),
                 ("injectivity", "fail", "constant map")], routes)
    ok, routes["immersion"] = _immersion_check(gamma)
    status, detail, routes["injectivity"] = _injectivity_check(gamma)
    return ([("immersion", "pass" if ok else "fail",
              "" if ok else "critical point on the parameter sphere"),
             ("injectivity", status, detail)], routes)


def _pluecker_forms(family: SubbundleFamily):
    """The nonzero Pluecker coordinates of ``family``, each padded to the
    d + 1 coefficients of a form of degree d, the sum of its degrees."""
    d = sum(family.degrees)
    coords = [g + [(0, 0)] * (d + 1 - len(g))
              for g in _pluecker_coordinates(family) if g]
    if not coords:
        raise InternalError("Pluecker image vanished on a rank-k family")
    return coords


def _scalar_rows(coords):
    return [[Scalar(re, im) for re, im in g] for g in coords]


def _reduced_pluecker(coords):
    """(gamma, route): a basis of the linear span of the Pluecker coordinate
    forms ``coords`` (from :func:`_pluecker_forms`), and how their gcd was
    proven constant.

    Injectivity and immersion of the Grassmann curve are equivalent to those
    of this reduced curve (the coordinates differ by an injective constant
    linear map).  The coordinates of a saturated family have no common zero;
    that invariant is proven modulo a prime by
    :func:`~qlike.modp.coprime_forms_prime`, and only when that is
    inconclusive by the exact chain of :func:`~qlike.forms.form_gcd`.  A
    nonconstant gcd is an internal error.
    """
    d = len(coords[0]) - 1
    p = coprime_forms_prime(lambda p, ip: reduce_modp(coords, p, ip))
    if p is None:
        g = _form(d, coords[0])
        for extra in coords[1:]:
            g = form_gcd(g, _form(d, extra))
            if g.degree == 0:
                break
        if g.degree > 0:
            raise InternalError("saturated family has nonreduced Pluecker "
                                "image")
    return ([coords[i] for i in independent_rows(_scalar_rows(coords))],
            "exact" if p is None else "modular:%d" % p)


def _wronskians_modp(gamma):
    """``reductions(p, ip)`` for :func:`~qlike.modp.coprime_forms_prime`:
    the homogeneous Wronskians d0 f_a d1 f_b - d1 f_a d0 f_b (a < b) of the
    coordinate forms ``gamma``, computed from their reductions (reduction is
    a ring map, so this is the reduction of the exact Wronskians)."""
    d = len(gamma[0]) - 1

    def reductions(p, ip):
        polys = reduce_modp(gamma, p, ip)
        d0 = [[(c * (d - i)) % p for i, c in enumerate(f[:d])] for f in polys]
        d1 = [[(c * i) % p for i, c in enumerate(f)][1:] for f in polys]
        for a, b in itertools.combinations(range(len(polys)), 2):
            a0, a1, b0, b1 = d0[a], d1[a], d0[b], d1[b]
            out = [0] * (2 * d - 1)
            for i in range(d):
                x0, x1 = a0[i], a1[i]
                if x0 or x1:
                    for j in range(d):
                        out[i + j] += x0 * b1[j] - x1 * b0[j]
            yield [c % p for c in out]

    return reductions


def _immersion_check(gamma):
    """(immersed, route) for the reduced curve with coordinate forms
    ``gamma`` (Gaussian-integer pair lists of length d + 1).

    The curve is immersed where its homogeneous Wronskians J_ab = d0 f_a
    d1 f_b - d1 f_a d0 f_b (degree 2d - 2) do not all vanish.  By Euler's
    relation z0 d0 f + z1 d1 f = d f, J_ab(1, t) is d times the affine
    Wronskian of the chart z0 = 1, and J_ab(t, 1) is -d times that of the
    chart z1 = 1, so one modular proof that the J_ab have a constant gcd
    covers both charts.  When it is inconclusive, each chart is decided
    exactly by the gcd of its affine Wronskians, over primitive integer-pair
    polynomials (scaling a coordinate does not move the Wronskian zero
    locus)."""
    p = coprime_forms_prime(_wronskians_modp(gamma))
    if p is not None:
        return True, "modular:%d" % p
    for chart in (0, 1):
        polys = [ip_trim(list(f) if chart == 0 else f[::-1]) for f in gamma]
        g = _gcd_until_constant(
            ip_sub(ip_mul(a, ip_deriv(b)), ip_mul(b, ip_deriv(a)))
            for a, b in itertools.combinations(polys, 2))
        if g is None or len(g) > 1:
            # no nonzero Wronskian, or a common zero: a critical point
            return False, "exact"
    return True, "exact"


def _gcd_until_constant(polys):
    """The gcd of the nonzero integer-pair polynomials ``polys`` yields,
    read only until it is constant; None when every one vanishes."""
    g = None
    for w in polys:
        if w:
            g = w if g is None else ip_gcd(g, w)
            if len(g) == 1:
                break
    return g


def _injectivity_check(gamma):
    """("pass"|"fail"|"warn", detail, route) for injectivity of the reduced
    curve with coordinate forms ``gamma`` (Gaussian-integer pair lists).

    Exact route: divide the two-point minors by the diagonal, then eliminate
    one variable by resultants; a constant gcd, proven modulo a prime by
    :func:`~qlike.modp.resultant_gcd_is_constant`, proves injectivity.  The
    first two nonzero minors are tried alone, then up to 30; a constant
    minor proves it outright.  When that is inconclusive or oversized, fall
    back to sampled pair distinctness with a warning, as documented.
    """
    beta = len(gamma)
    d = len(gamma[0]) - 1
    if d == 1:
        return "pass", "", "exact"
    if beta == 2:
        # a degree-d self-map of the sphere is injective only when linear
        return "fail", "curve lies on a line but has degree %d" % d, "exact"
    ipolys = [ip_trim(list(f)) for f in gamma]

    # point at infinity against the affine chart: a common root of the
    # cross terms is a finite parameter whose image equals gamma(infinity)
    inf_vals = [ip[-1] if len(ip) == d + 1 else (0, 0) for ip in ipolys]
    g_inf = _gcd_until_constant(
        ip_sub(ip_scale(ipolys[a], inf_vals[b]),
               ip_scale(ipolys[b], inf_vals[a]))
        for a, b in itertools.combinations(range(beta), 2))
    if g_inf is None:
        return "fail", "curve collapses to the point at infinity", "exact"
    if len(g_inf) > 1:
        return ("fail", "a finite parameter meets the point at infinity",
                "exact")

    minors = (h for a in range(beta) for b in range(a + 1, beta)
              for h in [_bivariate_two_point(ipolys[a], ipolys[b], d)]
              if h is not None)
    h_list = []
    # the first two minors almost always prove it; the rest only on demand
    for limit in (2, 30):
        size = len(h_list)
        for h in minors:
            if bideg(h) == (0, 0):
                return "pass", "", "exact"
            h_list.append(h)
            if len(h_list) >= limit:
                break
        if not h_list:
            return "fail", "all two-point minors vanish identically", "exact"
        if len(h_list) == size:
            break
        p = modp.resultant_gcd_is_constant(h_list)
        if p is not None:
            return "pass", "", "modular:%d" % p
    return _sampled_injectivity(gamma) + ("sampled",)


def _bivariate_two_point(pa, pb, d):
    """H(x, y) = (pa(x) pb(y) - pb(x) pa(y)) / (y - x), as rows in x.

    ``pa`` and ``pb`` are Gaussian-integer pair lists of degree at most d.
    Returned as a list over x-powers of trimmed y-coefficient pair lists;
    None when the minor vanishes identically.  The minor is antisymmetric,
    so the division is exact (synthetic division of the y-polynomial at
    the root y = x) and H has Gaussian-integer coefficients.
    """
    size = d + 1
    pa = list(pa) + [(0, 0)] * (size - len(pa))
    pb = list(pb) + [(0, 0)] * (size - len(pb))
    # c[j] = pa pb_j - pb pa_j, the coefficient of y^j, a polynomial in x
    c = [ip_sub(ip_scale(pa, u), ip_scale(pb, v)) for u, v in zip(pb, pa)]
    if not any(c):
        return None
    m = size - 1
    q = [None] * m
    q[m - 1] = c[m]
    for j in range(m - 1, 0, -1):
        q[j - 1] = ip_add(c[j], [(0, 0)] + q[j])  # q_{j-1} = c_j + x q_j
    if ip_add(c[0], [(0, 0)] + q[0]):
        raise InternalError("two-point minor not divisible by the diagonal")
    H = [ip_trim([qj[i] if i < len(qj) else (0, 0) for qj in q])
         for i in range(max(len(qj) for qj in q))]
    while H and not H[-1]:
        H.pop()
    return H if H else None


def _sampled_injectivity(gamma):
    import random
    d = len(gamma[0]) - 1
    gamma = [_form(d, f) for f in gamma]
    rng = random.Random(2025)
    pts = []
    while len(pts) < 25:
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if (a, b) not in pts and (a or b):
            pts.append((a, b))
    values = [[f.evaluate(a, b) for f in gamma] for a, b in pts]
    for (p, vp), (q, vq) in itertools.combinations(zip(pts, values), 2):
        # distinct points of the sphere with linearly dependent images
        if p[0] * q[1] != p[1] * q[0] and linalg.rank([vp, vq]) < 2:
            return "fail", "sampled pair with equal image"
    return "warn", "injectivity: sampled"
