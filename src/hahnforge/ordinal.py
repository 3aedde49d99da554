"""Cantor-normal-form ordinal arithmetic below epsilon_0.

An Ordinal is a sequence of (exponent, coefficient) terms with exponents
themselves Ordinals, strictly decreasing, and positive integer coefficients;
the empty sequence is 0.  Addition absorbs low terms of the left operand;
multiplication right-distributes with the limit rule
a * w^g = w^(leading_exponent(a) + g), and since those pieces strictly fall
it appends them; powers are square-and-multiply over that product.

The support bookkeeping this module backs: a bounded-support series replicated
along p^(N t) for t = 0, 1, 2, ... has support order type a * w, whose normal
form is a single term w^(b1 + 1) -- so an infinite bounded support can never
replicate into the order types a power-series root is allowed to have.
"""

from __future__ import annotations

import functools

from .errors import ZeroOrderType
from .exactnum import _Frozen, _square_multiply

MAX_EXPONENT_DEPTH = 8

__all__ = [
    "Ordinal",
    "ZERO",
    "ONE",
    "OMEGA",
    "replication_order_type",
    "prediction_filter",
]


@functools.total_ordering
class Ordinal(_Frozen):
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self._set(terms=tuple(terms))

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are nonnegative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1
                                  and self.terms[0][0].is_zero())

    def leading_exponent(self) -> "Ordinal":
        if self.is_zero():
            raise ValueError("zero has no leading exponent")
        return self.terms[0][0]

    def depth(self) -> int:
        if not self.terms:
            return 0
        return 1 + max(e.depth() for e, _ in self.terms)

    # order ------------------------------------------------------------------

    def _cmp(self, other) -> int:
        for (e1, c1), (e2, c2) in zip(self.terms, other.terms):
            s = e1._cmp(e2)
            if s:
                return s
            if c1 != c2:
                return -1 if c1 < c2 else 1
        la, lb = len(self.terms), len(other.terms)
        return 0 if la == lb else (-1 if la < lb else 1)

    def __eq__(self, other):
        if isinstance(other, int) and other < 0:
            return False  # no ordinal is negative
        other = _ordinal(other)
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other):
        return self._cmp(_ordinal(other)) < 0

    def __hash__(self):
        """A finite ordinal n hashes as n, since it equals n."""
        if self.is_finite():
            return hash(self.terms[0][1] if self.terms else 0)
        return hash(self.terms)

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        other = _ordinal(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        beta = other.terms[0][0]
        kept = [t for t in self.terms if beta < t[0]]
        merged = list(other.terms)
        for e, c in self.terms:
            if e == beta:
                merged[0] = (beta, merged[0][1] + c)
        return Ordinal(tuple(kept) + tuple(merged))

    def __radd__(self, other):
        return _ordinal(other) + self

    def __rmul__(self, other):
        return _ordinal(other) * self

    def __mul__(self, other):
        other = _ordinal(other)
        if self.is_zero() or other.is_zero():
            return ZERO
        # the pieces a * w^gamma * c strictly fall with gamma, so the product
        # is their concatenation
        alpha1, c1 = self.terms[0]
        terms = []
        for gamma, c in other.terms:
            if gamma.is_zero():
                # the right factor's finite last term: scale the leading
                # term, keep the tail
                terms += ((alpha1, c1 * c),) + self.terms[1:]
            else:
                terms.append((alpha1 + gamma, c))
        return Ordinal(terms)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative ordinal powers are undefined")
        return _square_multiply(self, n, Ordinal.__mul__) if n else ONE

    # printing -----------------------------------------------------------------

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero():
                parts.append(str(c))
            elif e == ONE:
                parts.append("w" if c == 1 else f"w*{c}")
            else:
                base = f"w^({e})"
                parts.append(base if c == 1 else f"{base}*{c}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Ordinal({self})"


def _ordinal(x):
    """An int operand as its finite Ordinal; anything else as it is."""
    return Ordinal.from_int(x) if isinstance(x, int) else x


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal(((ONE, 1),))


def replication_order_type(alpha: Ordinal) -> Ordinal:
    """Order type of the support after replication along w, i.e. alpha * w.

    The normal form is the single term w^(b1 + 1) where b1 is alpha's
    leading exponent; alpha = 0 has no replication order type.
    """
    if alpha.is_zero():
        raise ZeroOrderType("replication of an empty support")
    return alpha * OMEGA


def prediction_filter(alpha: Ordinal) -> str:
    """'consistent' or 'contradicts' for a bounded support of order type alpha.

    Replication turns a bounded support of order type alpha into an algebraic
    value of order type alpha * w = w^(b1+1).  The only admissible order
    types are the finite ones, w, and w^w; w^(b1+1) is finite only for
    alpha = 0, equals w only when alpha is finite, and can never equal w^w
    because w is not a successor.  Hence infinite bounded supports are ruled
    out.
    """
    if alpha.is_finite():
        return "consistent"
    return "contradicts"
