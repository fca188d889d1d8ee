"""Computable combinatorics of dessins with any number of branch colors,
square-tiled translation surfaces, numerical monodromy of polynomial
covers, and the modular side of the square pillowcase family.

Submodules load on first use: ``import dessinry`` imports none of them,
``dessinry.enumerate_classes`` imports ``dessinry.enumeration`` (and what it
needs), and only ``modular`` and ``cm_values`` pull in mpmath, the one
runtime dependency; ``qseries``, the exact q-expansion of lambda*, does not.
"""

from importlib import import_module

__version__ = "0.1.0"

# Home module of every exported name, in the order of __all__.
_EXPORTS = {
    "errors": ("DessinryError",),
    "core": (
        "MonodromyTuple",
        "validate",
        "is_valid",
        "canonical_form",
        "isomorphic",
        "genus",
        "cycle_profile",
        "is_normal",
        "orientation_reverse",
        "centralizer_order",
    ),
    "enumeration": (
        "EnumerationResult",
        "enumerate_classes",
        "count_transitive_tuples",
        "hall_count",
        "WORK_LIMIT",
    ),
    "braid": (
        "EndomorphismTable",
        "OrbitResult",
        "word",
        "evaluate_word",
        "apply_endomorphism",
        "compose_tables",
        "chain_tables",
        "sigma_table",
        "sigma_inv_table",
        "pure_twist_table",
        "preset_pure_generators",
        "preset_gamma2",
        "braid_orbit",
    ),
    "origami": (
        "BipartiteOrigami",
        "validate_origami",
        "origami_to_dessin",
        "dessin_to_origami",
        "isomorphic_origami",
        "canonical_origami",
        "delta_hor",
        "delta_hor_inv",
        "delta_ver",
        "delta_ver_inv",
        "origami_orbit",
    ),
    "covers": (
        "CoverSpec",
        "poly_roots",
        "numerical_monodromy",
        "hurwitz_fs",
        "hurwitz_projection",
        "hurwitz_fiber",
        "hurwitz_cover",
        "belyi_cubic_cover",
        "classify_lift",
        "hurwitz_dessin",
        "BASE_POINT",
    ),
    "modular": (
        "UpperHalfPoint",
        "ModularValue",
        "eta",
        "weber_f",
        "weber_f1",
        "weber_f2",
        "lambda_star",
        "ap",
        "j_from_lambda_star",
        "j_oracle",
        "qseries_eval",
        "integrality_check",
    ),
    "qseries": ("QSeries", "lambda_star_qseries"),
    "cm_values": ("CM_ROWS", "cm_value", "eval_radical"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "perms"}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule also binds it as an attribute of the package.
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
