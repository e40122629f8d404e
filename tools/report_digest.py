"""Print one sha256 per group of qlike's canonical outputs.

Two checkouts that print the same digests produce the same bytes on every
output below, so a refactor that claims byte-identical output is checked by
running this tool on both trees and comparing.  Stdlib only; run it from the
root of a checkout (it imports ``src/qlike`` and runs ``python -m qlike``
from there):

    python tools/report_digest.py [GROUP ...]

Groups (all of them by default):

* ``quadruples`` -- ``normal_bundle``, ``dimension_report`` and
  ``validate_good_quadruple`` JSON on the 14 catalog quadruples,
  ``random_quadruples(4242, 39)`` and ``random_quadruples(77, 6)``;
* ``algebras`` -- ``validate_lie`` and ``to_json`` of the built-in algebras
  sl(2..6), so(5), so(6), sp(4), sp(6) and sp(8);
* ``cli`` -- stdout, stderr and exit code of ``lie-jm`` on five named
  nilpotents, all 14 ``twistor --catalog`` quadruples, ``verify --suite
  core``, ``verify --suite catalog`` and ``verify --suite random --count 10
  --seed 5``;
* ``fixtures`` -- the same for ``analyze`` and ``dual`` on the 3 bundled
  structure fixtures;
* ``structures`` -- ``analyze`` JSON, in process, on
  ``random_structures(20250808, 53)`` and ``random_structures(123, 8)``;
* ``invalid`` -- ``valid``, ``curve_degree`` and each check's name and
  status (not its detail) from ``validate_good_quadruple`` on the crafted
  invalid quadruples of :func:`invalid_quadruples`;
* ``constant-generators`` -- ``analyze`` JSON on the complex structures
  of :func:`constant_generator_structures`, whose minus sides have
  degree-0 summands;
* ``real`` -- ``analyze`` and ``dualize`` JSON, in process, on the real
  structures of :func:`real_structures`;
* ``families`` -- the JSON of ``saturate(S.spanning)`` and of its
  annihilator, in process, on the 3 fixtures,
  ``random_structures(20250808, 53)``, ``random_structures(123, 8)`` and
  the sphere families of :func:`sphere_family_columns` for {5, 5},
  {5, 5, 5} and {6, 6, 6}.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join("src", "qlike", "fixtures", "v1")
ALGEBRAS = ("sl(2)", "sl(3)", "sl(4)", "sl(5)", "sl(6)", "so(5)", "so(6)",
            "sp(4)", "sp(6)", "sp(8)")
LIE_JM = (("sl(2)", "principal"), ("sl(3)", "principal"),
          ("sl(3)", "minimal"), ("sl(4)", "principal"), ("sl(4)", "minimal"))


def quadruples():
    from qlike import catalog, orbit, sampling
    qs = [e.build() for e in catalog.catalog_entries() if e.kind == "quadruple"]
    qs += sampling.random_quadruples(4242, 39) + sampling.random_quadruples(77, 6)
    for q in qs:
        nb = orbit.normal_bundle(q)
        yield {"name": q.name, "normal": nb.to_json(),
               "dimension": orbit.dimension_report(q, nb),
               "validation": orbit.validate_good_quadruple(q)}


def algebras():
    from qlike import lie
    for name in ALGEBRAS:
        g = lie.builtin_algebra(name).algebra
        yield {"name": name, "validate": lie.validate_lie(g),
               "json": g.to_json()}


def _run(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-m", "qlike"] + argv, cwd=ROOT,
                          env=env, capture_output=True, text=True)
    return {"argv": argv, "exit": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr}


def cli():
    from qlike import catalog
    for algebra, nilpotent in LIE_JM:
        yield _run(["lie-jm", "--algebra", algebra, "--nilpotent", nilpotent])
    for e in catalog.catalog_entries():
        if e.kind == "quadruple":
            yield _run(["twistor", "--catalog", e.name])
    for suite in ("core", "catalog"):
        yield _run(["verify", "--suite", suite])
    yield _run(["verify", "--suite", "random", "--count", "10", "--seed", "5"])


def fixtures():
    for name in sorted(os.listdir(FIXTURES)):
        for command in ("analyze", "dual"):
            yield _run([command, os.path.join(FIXTURES, name)])


def structures():
    from qlike import sampling
    from qlike.structures import analyze
    for S in (sampling.random_structures(20250808, 53)
              + sampling.random_structures(123, 8)):
        yield analyze(S).to_json()


def _block_sl4(u_basis):
    """sl(4) on C^4, with the standard sl(2) in the top-left 2 x 2 block."""
    from qlike import lie, orbit
    from qlike.linalg import zeros
    ma = lie.sl_algebra(4)
    triple = []
    for m in lie.principal_sl2_matrices(2):
        big = zeros(4, 4)
        big[0][:2], big[1][:2] = m[0], m[1]
        triple.append(ma.coordinates_of_matrix(big))
    return orbit.GoodQuadruple(ma.algebra, ma.defining_representation(),
                               lie.Sl2Embedding(ma.algebra, *triple),
                               tuple(u_basis))


def invalid_quadruples():
    """(name, quadruple) pairs that fail validation only on U: in all but
    the last, sl2-embedding, representation-identity and u-invariant pass."""
    from qlike import catalog, orbit
    from qlike.linalg import identity
    adj2 = catalog.build_adjoint("sl(2)", "principal")
    e, h, f = adj2.u_basis
    adj3 = catalog.build_adjoint("sl(3)", "principal")
    conic = catalog.build_veronese(2)
    return [
        ("trivial-u", _block_sl4(identity(4)[2:])),
        ("trivial-line", _block_sl4(identity(4)[3:])),
        ("dependent-u-basis", orbit.GoodQuadruple(
            adj2.algebra, adj2.sigma, adj2.tau,
            (e, h, f, tuple(a + b for a, b in zip(e, h))))),
        ("block-sl2-on-c4", _block_sl4(identity(4))),
        ("adjoint-sl3-all-of-g", orbit.GoodQuadruple(
            adj3.algebra, adj3.sigma, adj3.tau, tuple(identity(8)))),
        ("u-not-invariant", orbit.GoodQuadruple(
            conic.algebra, conic.sigma, conic.tau, tuple(identity(3)[:1]))),
    ]


def invalid():
    from qlike import orbit
    for name, q in invalid_quadruples():
        report = orbit.validate_good_quadruple(q)
        yield {"name": name, "valid": report["valid"],
               "curve_degree": report["curve_degree"],
               "checks": [[c["name"], c["status"]] for c in report["checks"]]}


def constant_generator_structures():
    """(name, structure) pairs of complex structures with a constant
    column, so that their minus sides have degree-0 summands and
    ker rho_minus_star is not zero; the random draws never have one."""
    from qlike.catalog import build_twisted_plane_c4
    from qlike.forms import BinaryForm
    from qlike.polymatrix import PolyMatrix
    from qlike.structures import QLikeStructure, dualize

    def structure(n, d, units):
        # the rational normal curve of degree d in the first d + 1
        # coordinates, plus the unit vectors at the indices ``units``
        curve = [BinaryForm.monomial(d, t) if t <= d else BinaryForm.zero(d)
                 for t in range(n)]
        columns = [curve] + [[BinaryForm.monomial(0, 0) if r == u
                              else BinaryForm.zero(0) for r in range(n)]
                             for u in units]
        spanning = PolyMatrix.from_columns(n, columns, [d] + [0] * len(units))
        return QLikeStructure(n, len(columns), spanning, None,
                              complex_mode=True)

    return [
        ("dual-twisted-plane-c4", dualize(build_twisted_plane_c4())),
        ("conic-c4-plus-e4", structure(4, 2, [3])),
        ("line-c5-plus-e4", structure(5, 1, [3])),
        ("twisted-cubic-c6-plus-e5-e6", structure(6, 3, [4, 5])),
    ]


def constant_generators():
    from qlike.structures import analyze
    for _, S in constant_generator_structures():
        yield analyze(S).to_json()


def real_structures():
    """(name, structure) pairs of real-mode structures: quaternionic:1-3,
    conic-r3 and the dual of each.  The random draws are complex only."""
    from qlike.catalog import build_conic_r3, build_quaternionic
    from qlike.structures import dualize
    pairs = [("quaternionic:%d" % k, build_quaternionic(k)) for k in (1, 2, 3)]
    pairs.append(("conic-r3", build_conic_r3()))
    return pairs + [("dual-" + name, dualize(S)) for name, S in pairs]


def real():
    from qlike.structures import analyze, dualize
    for name, S in real_structures():
        yield {"name": name, "analyze": analyze(S).to_json(),
               "dualize": dualize(S).to_json()}


def sphere_family_columns(degrees):
    """The spanning columns of the sphere family of N = sum of the O(a):
    block a of U = sum of the S^a in monomial coordinates, with the
    degree-1 columns z1 e_m - z0 e_(m+1), m < a."""
    from qlike.forms import BinaryForm, Z0, Z1
    from qlike.polymatrix import PolyMatrix
    n = sum(a + 1 for a in degrees)
    cols = []
    off = 0
    for a in degrees:
        for m in range(a):
            col = [BinaryForm.zero(1)] * n
            col[off + m], col[off + m + 1] = Z1, -Z0
            cols.append(col)
        off += a + 1
    return PolyMatrix.from_columns(n, cols, [1] * len(cols))


def families():
    from qlike import sampling
    from qlike.bundles import annihilator, saturate
    from qlike.serialize import load_structure_file
    spans = [load_structure_file(os.path.join(FIXTURES, name)).spanning
             for name in sorted(os.listdir(FIXTURES))]
    spans += [S.spanning for S in (sampling.random_structures(20250808, 53)
                                   + sampling.random_structures(123, 8))]
    spans += [sphere_family_columns(d) for d in ((5, 5), (5, 5, 5),
                                                 (6, 6, 6))]
    for P in spans:
        fam = saturate(P)
        yield {"family": fam.to_json(),
               "annihilator": annihilator(fam).to_json()}


GROUPS = {"quadruples": quadruples, "algebras": algebras, "cli": cli,
          "fixtures": fixtures, "structures": structures, "invalid": invalid,
          "constant-generators": constant_generators, "real": real,
          "families": families}


def group_digest(records):
    from qlike.serialize import canonical_json
    h = hashlib.sha256()
    for record in records:
        h.update(canonical_json(record).encode())
    return h.hexdigest()


def main(argv):
    sys.path.insert(0, SRC)
    names = argv[1:] or list(GROUPS)
    unknown = [n for n in names if n not in GROUPS]
    if unknown:
        sys.exit("unknown group(s) %s; choose from %s"
                 % (", ".join(unknown), ", ".join(GROUPS)))
    for name in names:
        print("%-11s %s" % (name, group_digest(GROUPS[name]())))


if __name__ == "__main__":
    main(sys.argv)
