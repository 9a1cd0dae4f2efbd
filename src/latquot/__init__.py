"""Exact arithmetic for lattice basis quality and index theory.

A lattice is given by the Gram matrix of a basis, with entries in Q.
The package computes the minimal basis norm product H_b, the Minkowski
product M, their ratio Q_b = H_b / M, the maximal index of a family of
minimal vectors together with the quotient group it generates, and the
closed form bounds that control these quantities in low rank.  All of
it is exact: no floats, every certificate is a rational identity.

Importing the package loads no submodule.  Each public name and each
submodule is imported on first access (PEP 562), so a program that uses
only the searches never compiles the code classification, the bounds or
the verification suites.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bounds": (
        "BoundContext", "conjectured_bound", "context_from", "crude_bound",
        "hermite_Hb_bound", "index3_psi_bound", "index3_sum_identity",
        "index4_m5_bound", "norm_e_index2_bound", "step_bound", "tuvw_bounds",
        "vdw_bound",
    ),
    "codes": (
        "Code", "WeightDistribution", "classify_binary", "code_qb_bound",
        "min_weight_support", "weight_distribution",
    ),
    "construct": (
        "centred_cubic", "code_lift", "fixture_inventory", "fixture_path",
        "named", "search_corpus", "zd_lift", "zn",
    ),
    "core": (
        "GramLattice", "HERMITE_POWER", "InvariantReport", "determinant",
        "inner", "load_lattice", "norm", "parse_lattice_json", "parse_lattice_text",
        "qform",
    ),
    "enumeration": (
        "Frame", "ShellListing", "invariant_report", "is_well_rounded",
        "minimum", "minkowski_M", "successive_minima", "vectors_up_to",
    ),
    "errors": (
        "CodeTooLight", "DimensionMismatch", "LatquotError", "MinimumDrops",
        "NotPositiveDefinite", "NotSymmetric", "ParseError",
        "ResourceExceeded", "UnknownLattice",
    ),
    "quality": (
        "QualityReport", "hermite_Hb", "qb",
    ),
    "reduction": (
        "ReducedBasis", "lll",
    ),
    "verify": (
        "VerificationCase", "run_suite",
    ),
    "watson": (
        "CosetVector", "IndexReport", "QuotientStructure", "maximal_index",
        "quotient_structure", "watson_condition", "watson_identity",
        "watson_index_bound",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "frames", "linalg", "sampling"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_HOME))
