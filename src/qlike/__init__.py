"""Exact-arithmetic engine for linear quaternionic-like structures and
homogeneous twistor spheres.

Everything is computed over the Gaussian rationals: binary forms, graded
kernels, subbundle/quotient decompositions over the sphere, section-space
("heaven") presentations, sl(2) representation theory and the normal bundles
of sphere orbits in homogeneous spaces.

``import qlike`` loads no submodule: each public name is imported from its
module on first access (PEP 562), so a command pays only for the modules it
runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it, in ``__all__`` order
_EXPORTS = {
    "scalars": ("Scalar", "scalar", "parse_scalar", "format_scalar"),
    "forms": ("BinaryForm", "Z0", "Z1", "antipodal_transform", "form_gcd",
              "parse_form", "format_form"),
    "polymatrix": ("PolyMatrix", "graded_kernel_basis"),
    "bundles": ("SplittingType", "SubbundleFamily", "QuotientBundle",
                "saturate", "annihilator", "h0_twist", "splitting_type",
                "subquotient_splitting", "is_split_extension",
                "verify_canonical_sequences"),
    "structures": ("QLikeStructure", "validate", "analyze", "dualize",
                   "heaven_data", "minus_data", "verify_factorization",
                   "check_morphism", "minus_family"),
    "lie": ("LieAlgebra", "Representation", "Sl2Embedding",
            "sl_algebra", "so_algebra", "sp_algebra",
            "validate_lie", "jacobson_morozov", "sl2_decompose"),
    "orbit": ("GoodQuadruple", "NormalBundleReport", "validate_good_quadruple",
              "veronese_curve", "orbit_tangent_family", "normal_bundle",
              "dimension_report"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "catalog", "__version__"]


def __getattr__(name):
    if name == "catalog":
        # importing a submodule binds it in this namespace
        return importlib.import_module(".catalog", __name__)
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + _MODULE_OF[name], __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
