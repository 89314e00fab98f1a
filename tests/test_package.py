"""The package namespace: the names `quadclass` exports, each resolved from
its submodule when first used."""

import importlib

import pytest

import quadclass

EXPORTS = {
    "arith": ["Discriminant", "NotFundamental", "SquarefreeAPCount", "classify_discriminant",
              "count_squarefree_in_ap", "is_fundamental_discriminant", "is_squarefree",
              "kronecker", "mobius", "sieve_squarefree"],
    "families": ["CongruenceFamily", "FamilyRejection", "suggest", "validate"],
    "forms": ["ClassGroupInfo", "ClassRep", "Form", "analytic_h_imaginary", "class_group_info",
              "compose", "enumerate_classes", "is_reduced", "principal_class", "reduce_form",
              "rho", "three_torsion_count", "unit_norm"],
    "experiments": ["DensityReport", "DiscriminantSets", "Lambda3Certificate", "enumerate_s_plus",
                    "imaginary_density", "indivisibility_density", "lambda_survey", "nh_average",
                    "pair_experiment"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_lists_the_exports():
    assert quadclass.__all__ == NAMES


@pytest.mark.parametrize("module", EXPORTS)
def test_names_are_the_submodule_objects(module):
    sub = importlib.import_module(f"quadclass.{module}")
    for name in EXPORTS[module]:
        assert getattr(quadclass, name) is getattr(sub, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quadclass import *", namespace)
    assert set(NAMES) <= set(namespace)
    assert all(namespace[name] is getattr(quadclass, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(quadclass))
    assert "__version__" in dir(quadclass)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quadclass.no_such_name
    assert not hasattr(quadclass, "divisor_table")
