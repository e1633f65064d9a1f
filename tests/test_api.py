import importlib

import numpy as np
import pytest

from ewdist import approx, dist, product, specfun
from ewdist.approx import RatioSetting

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


S = RatioSetting(3, 2, 50, 50)

# Public numeric functions of one array argument, every entry in (0, 1)
SCALAR_OR_ARRAY = {
    "ln_gamma": specfun.ln_gamma,
    "ln_beta": lambda x: specfun.ln_beta(x, 2.0),
    "reg_inc_beta": lambda x: specfun.reg_inc_beta(x, 2.0, 3.0),
    "f_pdf": lambda x: dist.f_pdf(x, dist.FParams(3, 50)),
    "beta_pdf": lambda x: dist.beta_pdf(x, dist.BetaShape(2, 3)),
    "w_envelope_density": lambda x: approx.w_envelope_density(x, 3, 2),
    "u_envelope_upper_density": lambda x: approx.u_envelope_upper_density(x, S),
    "u_envelope_lower_density": lambda x: approx.u_envelope_lower_density(x, S),
    "joint_density": lambda x: approx.joint_density(x, 0.4, S),
    "marginal_w_density": lambda x: approx.marginal_w_density(x, S),
    **{
        f"{fn.__name__}[n2={n2}]": (lambda x, fn=fn, n2=n2: fn(product.ProductSpec(2, n2), x))
        for fn in (product.omega_pdf_numeric, product.omega_cdf_numeric)
        for n2 in (1, 3)
    },
}


@pytest.mark.parametrize("name", SCALAR_OR_ARRAY)
def test_scalar_in_float_out_array_in_array_out(name):
    fn = SCALAR_OR_ARRAY[name]
    one = fn(np.array([0.3]))
    for scalar in (0.3, np.float64(0.3), np.array(0.3)):
        out = fn(scalar)
        assert type(out) is float
        assert out == one[0]
    grid = np.array([[0.1, 0.2, 0.3], [0.6, 0.8, 0.9]])
    out = fn(grid)
    assert type(out) is np.ndarray and out.shape == grid.shape
    assert out[0, 2] == one[0]
