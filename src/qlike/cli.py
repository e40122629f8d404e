"""Command-line front end.

Subcommands: analyze, dual, twistor, lie-jm, verify, catalog-regen.
Exit codes: 0 ok, 1 expectation mismatch, 2 bad input, 3 internal error.
JSON output is canonical and contains no timing, so identical inputs and
flags give byte-identical reports; the text rendering may add timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import InternalError, InvalidInput
from .serialize import canonical_json, digest, load_structure_file, \
    load_quadruple_file


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidInput as exc:
        print("error (bad input): %s" % exc, file=sys.stderr)
        return 2
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlike",
        description="Exact analysis of quaternionic-like structures and "
                    "homogeneous twistor spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate and analyze a structure file")
    p.add_argument("path")
    p.add_argument("--complex", action="store_true",
                   help="force complex mode (skip reality checks)")
    _output_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dual", help="emit the dual structure")
    p.add_argument("path")
    p.add_argument("--complex", action="store_true")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("twistor", help="normal bundle of a twistor sphere")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--catalog", help="catalog entry, e.g. veronese:3 or "
                                     "adjoint:sl(3):principal")
    g.add_argument("--file", help="quadruple JSON file")
    _output_flags(p)
    p.set_defaults(func=cmd_twistor)

    p = sub.add_parser("lie-jm", help="sl(2)-triple through a nilpotent")
    p.add_argument("--algebra", required=True,
                   help="built-in name, e.g. sl(3)")
    p.add_argument("--nilpotent", required=True,
                   help='named ("principal", "minimal") or a JSON vector')
    _output_flags(p)
    p.set_defaults(func=cmd_lie_jm)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=["core", "catalog", "random"],
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=6,
                   help="random suite: number of structures")
    _output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("catalog-regen", help="regenerate bundled fixtures")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog_regen)
    return parser


def _output_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--json", action="store_true", default=True,
                   help="canonical JSON output (default)")
    g.add_argument("--text", dest="json", action="store_false",
                   help="human-readable rendering")


def _emit(args, report, started=None):
    if args.json:
        # timing never enters the JSON report, keeping it byte-reproducible
        sys.stdout.write(canonical_json(report))
    else:
        _render_text(report)
        if started is not None:
            print("elapsed: %.3fs" % (time.time() - started))


def _render_text(report, indent=0):
    pad = "  " * indent
    if isinstance(report, dict):
        for key in report:
            value = report[key]
            if isinstance(value, (dict, list)) and value:
                print("%s%s:" % (pad, key))
                _render_text(value, indent + 1)
            else:
                print("%s%s: %s" % (pad, key, value))
    elif isinstance(report, list):
        for value in report:
            if isinstance(value, (dict, list)):
                _render_text(value, indent)
            else:
                print("%s- %s" % (pad, value))
    else:
        print("%s%s" % (pad, report))


# --------------------------------------------------------------------------

def _maybe_complex(S, flag):
    if flag and not S.complex_mode:
        from .structures import QLikeStructure
        return QLikeStructure(S.dim, S.k, S.spanning, None, complex_mode=True)
    return S


def cmd_analyze(args):
    started = time.time()
    from .structures import analyze, validate
    S = _maybe_complex(load_structure_file(args.path), args.complex)
    report = {"command": "analyze", "inputs_digest": digest(S.to_json())}
    validation = validate(S)
    if not validation.passed:
        report["validation"] = validation.to_json()
        report["verdict"] = "invalid"
        _emit(args, report, started)
        return 2
    analysis = analyze(S, validation)
    report.update(analysis.to_json())
    ok = analysis.factorization.passed and analysis.serre_identity \
        and analysis.canonical_sequences.get("ok", True)
    report["verdict"] = "ok" if ok else "checks-failed"
    _emit(args, report, started)
    if not ok:
        return 3
    return 0


def cmd_dual(args):
    from .structures import dualize
    S = _maybe_complex(load_structure_file(args.path), args.complex)
    sys.stdout.write(canonical_json(dualize(S).to_json()))
    return 0


def cmd_twistor(args):
    started = time.time()
    from . import catalog
    if args.catalog:
        entry = catalog.entry_by_name(args.catalog)
        result = catalog.run_quadruple_entry(entry)
        report = {"command": "twistor", "inputs_digest": digest(args.catalog)}
        report.update(result)
        _emit(args, report, started)
        if result["normal"]["match"] is False:
            return 1
        return 0 if result["ok"] else 1
    q = load_quadruple_file(args.file)
    from .orbit import dimension_report, normal_bundle
    nb = normal_bundle(q)
    dims = dimension_report(q, nb)
    report = {"command": "twistor", "inputs_digest": digest(args.file),
              "normal": nb.to_json(), "dimension": dims, "ok": True}
    _emit(args, report, started)
    return 0


def cmd_lie_jm(args):
    from .lie import builtin_algebra, jacobson_morozov, sl2_decompose
    from .catalog import named_nilpotent
    ma = builtin_algebra(args.algebra)
    if args.nilpotent in ("principal", "minimal"):
        y = named_nilpotent(ma, args.nilpotent)
    else:
        from .serialize import _parse_vector
        try:
            y = _parse_vector(json.loads(args.nilpotent))
        except (TypeError, ValueError) as exc:
            raise InvalidInput("bad nilpotent vector: %s" % exc)
    emb = jacobson_morozov(ma.algebra, y)
    mult = sl2_decompose(ma.algebra.adjoint_representation(), emb)
    triple = emb.to_json()
    report = {
        "command": "lie-jm",
        "algebra": args.algebra,
        "triple_EHF": triple,
        "triple_Y_first": {"Y": triple["F"], "H": triple["H"],
                           "X": triple["E"]},
        "adjoint_multiplicities": {str(j): a for j, a in sorted(mult.items())},
    }
    _emit(args, report)
    return 0


def cmd_catalog_regen(args):
    from . import catalog
    import os
    out = args.out
    if out is None:
        out = os.path.join(os.path.dirname(__file__), "fixtures", "v1")
    written = catalog.regenerate_fixtures(out)
    for path in written:
        print(path)
    return 0


# --------------------------------------------------------------------------
# verification suites
# --------------------------------------------------------------------------

def cmd_verify(args):
    started = time.time()
    if args.suite == "core":
        report = _suite_core()
    elif args.suite == "catalog":
        report = _suite_catalog()
    else:
        report = _suite_random(args.seed, args.count)
    ok = all(case["ok"] for case in report["cases"])
    report["pass"] = ok
    _emit(args, report, started)
    return 0 if ok else 1


def _suite_core():
    from .forms import antipodal_transform, parse_form
    from .polymatrix import PolyMatrix, graded_kernel_basis
    from .bundles import (QuotientBundle, SubbundleFamily, annihilator,
                          family_span_equal, is_split_extension, saturate,
                          splitting_type, subquotient_splitting,
                          verify_canonical_sequences)
    cases = []

    def case(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:          # a suite failure, not a crash
            ok, detail = False, "%s: %s" % (type(exc).__name__, exc)
        cases.append({"name": name, "ok": bool(ok), "detail": detail})

    def antipodal_involution():
        forms = [parse_form(s) for s in
                 ("z0", "z0^2 + z1^2", "z0*z1", "(1/2)*z0^3 - i*z1^3")]
        for f in forms:
            twice = antipodal_transform(antipodal_transform(f))
            want = f if f.degree % 2 == 0 else -f
            if twice != want:
                return False, "involution law failed on %s" % f
        return True, ""

    def syzygy_examples():
        M = PolyMatrix(1, 2, (1, 1), [[parse_form("z0"), parse_form("z1")]])
        K = graded_kernel_basis(M)
        if K.col_degrees != (1,):
            return False, "kernel of [z0 z1]"
        M2 = PolyMatrix(1, 2, (2, 2),
                        [[parse_form("z0^2"), parse_form("z0*z1")]])
        K2 = graded_kernel_basis(M2)
        if K2.col_degrees != (1,):
            return False, "common factor not stripped"
        ident = PolyMatrix(2, 2, (0, 0),
                           [[parse_form("1"), parse_form("0")],
                            [parse_form("0"), parse_form("1")]])
        if graded_kernel_basis(ident).cols != 0:
            return False, "identity kernel not empty"
        return True, ""

    def saturation_and_duality():
        cols = [[parse_form("z0^2"), parse_form("z0*z1"), parse_form("z1^2")]]
        fam = saturate(PolyMatrix.from_columns(3, cols, [2]))
        if list(splitting_type(fam).summands) != [-2]:
            return False, "conic splitting"
        # a link-free copy, so that both annihilators are computed
        ann = annihilator(SubbundleFamily(3, fam.basis))
        if not family_span_equal(annihilator(ann), fam):
            return False, "annihilator involution"
        if splitting_type(QuotientBundle(3, fam)).summands != (1, 1):
            return False, "conic quotient splitting"
        if is_split_extension(fam):
            return False, "conic family must not split"
        full = saturate(PolyMatrix.from_columns(
            3, [[parse_form(x) for x in col] for col in
                (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1"))]))
        sq = subquotient_splitting(fam, full, 2)
        if sq.summands != (3, 3):
            return False, "twisted subquotient"
        rep = verify_canonical_sequences(QuotientBundle(3, fam))
        return rep["ok"], ""

    case("antipodal-involution", antipodal_involution)
    case("graded-kernel-examples", syzygy_examples)
    case("saturation-duality-sequences", saturation_and_duality)
    return {"command": "verify", "suite": "core",
            "cases": sorted(cases, key=lambda c: c["name"])}


def _suite_catalog():
    from . import catalog
    cases = []
    for entry in catalog.catalog_entries():
        result = catalog.run_entry(entry)
        cases.append({"name": entry.name, "ok": bool(result["ok"]),
                      "detail": ""})
    return {"command": "verify", "suite": "catalog",
            "cases": sorted(cases, key=lambda c: c["name"])}


def _suite_random(seed, count):
    from .sampling import random_structures, random_quadruples
    from .structures import analyze, validate
    from .orbit import normal_bundle
    cases = []
    structures = random_structures(seed, count)
    for idx, S in enumerate(structures):
        name = "structure-%02d" % idx
        detail = ""
        try:
            report = analyze(S)
            ok = (report.factorization.passed and report.serre_identity
                  and report.canonical_sequences.get("ok", True))
            if not ok:
                detail = canonical_json(S.to_json()).strip()
        except Exception as exc:
            ok = False
            detail = "%s: %s | input %s" % (
                type(exc).__name__, exc, canonical_json(S.to_json()).strip())
        cases.append({"name": name, "ok": bool(ok), "detail": detail,
                      "label": report.label if ok else None,
                      "u_minus": report.u_minus.to_json() if ok else None})
    quadruples = random_quadruples(seed + 1, max(2, count // 2))
    for idx, q in enumerate(quadruples):
        name = "quadruple-%02d" % idx
        detail = ""
        normal = None
        try:
            nb = normal_bundle(q)
            ok = nb.nonnegative
            normal = nb.normal.to_json()
        except Exception as exc:
            ok = False
            detail = "%s: %s" % (type(exc).__name__, exc)
        cases.append({"name": name, "ok": bool(ok), "detail": detail,
                      "normal": normal})
    return {"command": "verify", "suite": "random", "seed": seed,
            "count": count, "cases": sorted(cases, key=lambda c: c["name"])}
