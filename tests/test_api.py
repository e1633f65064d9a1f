import importlib

import pytest

MODULES = [
    "ewdist",
    "ewdist.approx",
    "ewdist.cli",
    "ewdist.dist",
    "ewdist.elemental",
    "ewdist.goftests",
    "ewdist.pipelines",
    "ewdist.product",
    "ewdist.rng",
    "ewdist.specfun",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
