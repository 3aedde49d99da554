"""The package surface: `import hahnforge` loads no module, and each public
name is bound from its module on first read (PEP 562).  Every check runs in a
fresh interpreter, where nothing of the package is loaded yet."""

import os
import pathlib
import subprocess
import sys

import pytest

import hahnforge

# the public names as each module exported them to the package, in order
PUBLIC = {
    "errors": ["BoundViolation", "DivisionByZero", "FieldExtensionExceeded",
               "HahnForgeError", "NoProgress", "NotAUnit", "ParseError",
               "PrecisionLoss", "SigmaMismatch", "ZeroOrderType", "ZeroPolynomial"],
    "exactnum": ["FqElem", "PrimeConfig", "WittElem", "digit_decompose",
                 "find_modulus", "fq_poly_roots", "subfield_embedding",
                 "teichmueller"],
    "hahn_eqchar": ["EqHahn", "eval_poly"],
    "hahn_padic": ["FracDecomp", "PHahn", "decompose", "frak_a", "from_integer",
                   "mul_via_decomposition", "normalize", "recompose"],
    "indexcomb": ["Certificate", "certificate_residual", "enumerate_class",
                  "equivalent", "frak_a_power", "grouped_sum", "index_vec",
                  "kappa_of", "lambda_of", "multinomial", "reduce_index",
                  "sigma_of"],
    "newton": ["ExpandOptions", "NewtonPolygon", "RootBranch", "expand_root_padic",
               "expand_roots_eq", "polygon_of", "verify_root"],
    "ordinal": ["OMEGA", "ONE", "ZERO", "Ordinal", "prediction_filter",
                "replication_order_type"],
}


def fresh(code):
    """Run `code` in a fresh interpreter; its stdout, split into words."""
    src = pathlib.Path(hahnforge.__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return done.stdout.split()


def test_all_and_version_are_unchanged():
    assert hahnforge.__all__ == [n for names in PUBLIC.values() for n in names]
    assert hahnforge.__version__ == "0.1.0"


def test_import_loads_no_module():
    assert fresh("import sys, hahnforge; print(*sorted("
                 "m for m in sys.modules if m.startswith('hahnforge')))") == ["hahnforge"]


def test_star_import_binds_each_name_from_its_module():
    home = {name: module for module, names in PUBLIC.items() for name in names}
    out = fresh(
        "import importlib\n"
        "from hahnforge import *\n"
        f"for name, module in {home!r}.items():\n"
        "    mod = importlib.import_module('hahnforge.' + module)\n"
        "    print(name, globals()[name] is getattr(mod, name))")
    assert out == [w for name in home for w in (name, "True")]


def test_first_read_binds_one_module():
    # reading a name loads its module and the modules that one imports
    out = fresh("import sys, hahnforge\n"
                "cls = hahnforge.Ordinal\n"
                "import hahnforge.ordinal as om\n"
                "print(cls is om.Ordinal, hahnforge.Ordinal is cls, *sorted("
                "m for m in sys.modules if m.startswith('hahnforge.')))")
    assert out == ["True", "True", "hahnforge.errors", "hahnforge.exactnum",
                   "hahnforge.ordinal"]


def test_dir_lists_all_before_any_read():
    out = fresh("import hahnforge\n"
                "names = set(dir(hahnforge))\n"
                "print(all(n in names for n in hahnforge.__all__), "
                "'__version__' in names)")
    assert out == ["True", "True"]


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'hahnforge' has no attribute 'nope'$"):
        hahnforge.nope
    assert not hasattr(hahnforge, "parse_series")   # not public


def test_from_import_of_a_submodule_still_imports_it():
    assert fresh("from hahnforge import cli, parsing\n"
                 "import sys\n"
                 "print(cli is sys.modules['hahnforge.cli'], "
                 "parsing is sys.modules['hahnforge.parsing'])") == ["True", "True"]
