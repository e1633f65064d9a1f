import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import ewdist
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


def _write_mode_opens(tree):
    """(enclosing top-level name, line) of each `open(...)` call whose mode may write."""
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = (node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                    or [ast.Constant("r")])[0]
            if not isinstance(mode, ast.Constant) or set(mode.value) & set("wax+"):
                yield name, node.lineno


def test_every_output_file_is_opened_by_cli_write_alone():
    """cli._write removes what it opened when anything fails; no other code opens for writing."""
    found = [(path.stem, name)
             for path in sorted(Path(ewdist.__file__).parent.glob("*.py"))
             for name, _ in _write_mode_opens(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("cli", "_write")]
    # the scan sees a write-mode open wherever it is written
    planted = ast.parse("def f(p):\n    return open(p, 'a')\nopen('x', mode=m)\nopen('y')\n")
    assert list(_write_mode_opens(planted)) == [("f", 2), ("<module>", 3)]
