"""quadclass: exact class groups of quadratic fields via binary quadratic
forms, plus density experiments on 3-indivisibility of class numbers.

The names below are imported from their submodule when first used (PEP 562),
so ``import quadclass`` loads no submodule, and a single-discriminant query
never loads the experiments, the numpy batch or the process pool.
"""

from importlib import import_module

_EXPORTS = {
    "arith": (
        "Discriminant",
        "NotFundamental",
        "SquarefreeAPCount",
        "classify_discriminant",
        "count_squarefree_in_ap",
        "is_fundamental_discriminant",
        "is_squarefree",
        "kronecker",
        "mobius",
        "sieve_squarefree",
    ),
    "families": ("CongruenceFamily", "FamilyRejection", "suggest", "validate"),
    "forms": (
        "ClassGroupInfo",
        "ClassRep",
        "Form",
        "analytic_h_imaginary",
        "class_group_info",
        "compose",
        "enumerate_classes",
        "is_reduced",
        "principal_class",
        "reduce_form",
        "rho",
        "three_torsion_count",
        "unit_norm",
    ),
    "experiments": (
        "DensityReport",
        "DiscriminantSets",
        "Lambda3Certificate",
        "enumerate_s_plus",
        "imaginary_density",
        "indivisibility_density",
        "lambda_survey",
        "nh_average",
        "pair_experiment",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
