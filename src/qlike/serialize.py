"""Canonical JSON interchange: structures, quadruples, reports.

JSON dumps are canonical (sorted keys, fixed separators) so identical inputs
produce byte-identical reports; digests are sha256 of the canonical text.
"""

from __future__ import annotations

import json

from .errors import InvalidInput
from .scalars import parse_scalar, scalar


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def digest(obj) -> str:
    import hashlib          # only the commands that take a digest load it
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def _load_object(path, what):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise InvalidInput("cannot read %s file %s: %s" % (what, path, exc))
    if not isinstance(data, dict):
        raise InvalidInput("%s file %s must hold a JSON object" % (what, path))
    return data


def load_structure_file(path) -> QLikeStructure:
    from .structures import QLikeStructure
    data = _load_object(path, "structure")
    try:
        return QLikeStructure.from_json(data)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InvalidInput("bad structure file %s: %s" % (path, exc))


def _parse_vector(values):
    return [parse_scalar(v) if isinstance(v, str) else scalar(v)
            for v in values]


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "number",
               float: "number", bool: "boolean"}


def _bad_entry(data, key, wanted):
    """The error for a quadruple entry ``key`` that is missing or not what
    it must be, naming the JSON type it has."""
    if key not in data:
        return InvalidInput("quadruple JSON needs an %r entry" % key)
    value = data[key]
    got = "null" if value is None else "the %s %s" % (
        _JSON_TYPES[type(value)], json.dumps(value)[:40])
    return InvalidInput("quadruple entry %r must be %s, not %s"
                        % (key, wanted, got))


def quadruple_from_json(data) -> GoodQuadruple:
    """Assemble a quadruple from its JSON description.

    algebra: a built-in name ("sl(3)", "so(5)", "sp(4)") or a structure
    constant table; representation: "defining" | "adjoint" | "wedge-square"
    (matrix algebras only for the first and last); sl2: explicit {"E","H","F"}
    vectors or {"nilpotent": ...}; u_basis: vectors, "full", or "sl2-image".
    """
    from .lie import (LieAlgebra, Representation, Sl2Embedding,
                      builtin_algebra, jacobson_morozov, named_nilpotent,
                      wedge_square_representation)
    from .orbit import GoodQuadruple
    alg_spec = data.get("algebra")
    ma = None
    if isinstance(alg_spec, str):
        ma = builtin_algebra(alg_spec)
        algebra = ma.algebra
    elif isinstance(alg_spec, dict):
        algebra = LieAlgebra.from_json(alg_spec)
    else:
        raise _bad_entry(data, "algebra", "a built-in algebra name or a "
                         "structure constant table")

    rep_spec = data.get("representation", "adjoint")
    if rep_spec == "adjoint":
        sigma = algebra.adjoint_representation()
    elif rep_spec == "defining":
        if ma is None:
            raise InvalidInput("'defining' needs a built-in algebra name")
        sigma = ma.defining_representation()
    elif rep_spec == "wedge-square":
        if ma is None:
            raise InvalidInput("'wedge-square' needs a built-in algebra name")
        sigma, _ = wedge_square_representation(ma)
    elif isinstance(rep_spec, dict) and "matrices" in rep_spec:
        mats = [[[scalar(x) if not isinstance(x, str) else parse_scalar(x)
                  for x in row] for row in m] for m in rep_spec["matrices"]]
        sigma = Representation(algebra, mats)
    else:
        raise InvalidInput("bad representation spec %r" % (rep_spec,))

    sl2 = data.get("sl2")
    if isinstance(sl2, dict) and "nilpotent" in sl2:
        spec = sl2["nilpotent"]
        if isinstance(spec, str):
            if ma is None:
                raise InvalidInput("named nilpotents need a built-in algebra")
            y = named_nilpotent(ma, spec)
        else:
            y = _parse_vector(spec)
        tau = jacobson_morozov(algebra, y)
    elif isinstance(sl2, dict):
        missing = [key for key in "EHF" if key not in sl2]
        if missing:
            raise InvalidInput("'sl2' needs 'nilpotent' or all of E, H, F "
                               "(missing %s)" % ", ".join(missing))
        tau = Sl2Embedding(algebra, _parse_vector(sl2["E"]),
                           _parse_vector(sl2["H"]), _parse_vector(sl2["F"]))
    else:
        raise _bad_entry(data, "sl2", "an object with 'nilpotent' or E, H, F")

    u_spec = data.get("u_basis", "sl2-image")
    if u_spec == "full":
        n = sigma.space_dim
        u_basis = [tuple(scalar(1) if i == j else scalar(0) for i in range(n))
                   for j in range(n)]
    elif u_spec == "sl2-image":
        u_basis = [tuple(tau.e), tuple(tau.h), tuple(tau.f)]
    elif isinstance(u_spec, list):
        u_basis = [tuple(_parse_vector(v)) for v in u_spec]
    else:
        raise _bad_entry(data, "u_basis", "a list of vectors, \"full\" or "
                         "\"sl2-image\"")
    # the adjoint formula and the orbit-dimension check assume U = tau(sl2)
    return GoodQuadruple(algebra, sigma, tau, tuple(u_basis),
                         name=data.get("name", "file-quadruple"),
                         adjoint=(rep_spec == "adjoint"
                                  and u_spec == "sl2-image"))


def load_quadruple_file(path) -> GoodQuadruple:
    data = _load_object(path, "quadruple")
    try:
        return quadruple_from_json(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InvalidInput("bad quadruple file %s: %s" % (path, exc))
