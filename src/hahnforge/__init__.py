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
"""

from .errors import (
    BoundViolation,
    DivisionByZero,
    FieldExtensionExceeded,
    HahnForgeError,
    NoProgress,
    NotAUnit,
    ParseError,
    PrecisionLoss,
    SigmaMismatch,
    ZeroOrderType,
    ZeroPolynomial,
)
from .exactnum import (
    FqElem,
    PrimeConfig,
    WittElem,
    digit_decompose,
    find_modulus,
    fq_poly_roots,
    subfield_embedding,
    teichmueller,
)
from .hahn_eqchar import EqHahn, eval_poly
from .hahn_padic import (
    FracDecomp,
    PHahn,
    decompose,
    frak_a,
    from_integer,
    mul_via_decomposition,
    normalize,
    recompose,
)
from .indexcomb import (
    Certificate,
    certificate_residual,
    enumerate_class,
    equivalent,
    frak_a_power,
    grouped_sum,
    index_vec,
    kappa_of,
    lambda_of,
    multinomial,
    reduce_index,
    sigma_of,
)
from .newton import (
    ExpandOptions,
    NewtonPolygon,
    RootBranch,
    expand_root_padic,
    expand_roots_eq,
    polygon_of,
    verify_root,
)
from .ordinal import OMEGA, ONE, ZERO, Ordinal, prediction_filter, replication_order_type

__version__ = "0.1.0"

__all__ = [
    "BoundViolation", "DivisionByZero", "FieldExtensionExceeded",
    "HahnForgeError", "NoProgress", "NotAUnit", "ParseError", "PrecisionLoss",
    "SigmaMismatch", "ZeroOrderType", "ZeroPolynomial",
    "FqElem", "PrimeConfig", "WittElem", "digit_decompose", "find_modulus",
    "fq_poly_roots", "subfield_embedding", "teichmueller",
    "EqHahn", "eval_poly",
    "FracDecomp", "PHahn", "decompose", "frak_a", "from_integer",
    "mul_via_decomposition", "normalize", "recompose",
    "Certificate", "certificate_residual", "enumerate_class", "equivalent",
    "frak_a_power", "grouped_sum", "index_vec", "kappa_of", "lambda_of",
    "multinomial", "reduce_index", "sigma_of",
    "ExpandOptions", "NewtonPolygon", "RootBranch", "expand_root_padic",
    "expand_roots_eq", "polygon_of", "verify_root",
    "OMEGA", "ONE", "ZERO", "Ordinal", "prediction_filter",
    "replication_order_type",
]
