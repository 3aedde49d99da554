"""hahnforge: exact arithmetic for Hahn series at finite truncation.

Scalars (residue fields, truncated Witt rings, Teichmüller digits) live in
`exactnum`; series with rational exponents over them in `hahn_eqchar`
(characteristic p) and `hahn_padic` (mixed characteristic, with carry
normalization), both built on the truncated-series core in `series`.
`indexcomb` holds the multinomial index machinery behind powers of the
series sum_k p^(-1/p^k) and the certificate residual check; `newton`
expands polynomial roots by Newton polygons, including past geometric
exponent accumulation points; `ordinal` does Cantor-normal-form order-type
arithmetic for supports.  `cli` is the command-line surface.

`import hahnforge` loads none of them: the first read of a public name
imports its module (PEP 562), and `cli` and `parsing` hold `_OnFirstUse`
stand-ins for the modules they call, so a process compiles only the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

# the public names of each module, in `__all__` order
_PUBLIC = {
    "errors": "BoundViolation DivisionByZero FieldExtensionExceeded HahnForgeError "
              "NoProgress NotAUnit ParseError PrecisionLoss SigmaMismatch "
              "ZeroOrderType ZeroPolynomial",
    "exactnum": "FqElem PrimeConfig WittElem digit_decompose find_modulus "
                "fq_poly_roots subfield_embedding teichmueller",
    "hahn_eqchar": "EqHahn eval_poly",
    "hahn_padic": "FracDecomp PHahn decompose frak_a from_integer "
                  "mul_via_decomposition normalize recompose",
    "indexcomb": "Certificate certificate_residual enumerate_class equivalent "
                 "frak_a_power grouped_sum index_vec kappa_of lambda_of "
                 "multinomial reduce_index sigma_of",
    "newton": "ExpandOptions NewtonPolygon RootBranch expand_root_padic "
              "expand_roots_eq polygon_of verify_root",
    "ordinal": "OMEGA ONE ZERO Ordinal prediction_filter replication_order_type",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _OnFirstUse:
    """Stands in for the module `name` of this package in the namespace
    `space` until the first read of one of its attributes, which imports the
    module and puts it in the stand-in's place; later reads find the module
    itself, with no import statement per call."""

    def __init__(self, space, name):
        self.space, self.name = space, name

    def __getattr__(self, attr):
        module = importlib.import_module(f".{self.name}", __name__)
        self.space[self.name] = module
        return getattr(module, attr)
