"""Truncated-series core shared by the two Hahn-series rings.

A value is (cfg, terms, cap): `terms` is a tuple of (exponent, coefficient)
pairs with rational exponents (fractions.Fraction), strictly increasing, all
strictly below `cap`, and nonzero coefficients in F_{p^r}.  Everything below
the cap is exact; everything at or above it is unknown.  cap = INF marks an
exact finite series.  Zero with a finite cap means "zero up to O(base^cap)"
and has no valuation: an unresolved residual is never treated as exactly
zero.

The rings differ only in how coefficients combine -- no carries in
characteristic p (hahn_eqchar.EqHahn), Teichmüller carries in the p-adic case
(hahn_padic.PHahn) -- so they define addition, multiplication and
canonicalization; every operation that merely moves, filters or reads terms
lives here.  Values are immutable.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import PrecisionLoss
from .exactnum import FqElem, PrimeConfig, _square_multiply, subfield_embedding

INF = math.inf

__all__ = ["INF", "as_frac", "TruncatedSeries", "eval_poly"]


def as_frac(x):
    """Exponents and caps as Fraction; INF passes through unchanged."""
    if isinstance(x, Fraction) or x is INF or x == INF:
        return x
    return Fraction(x)


class TruncatedSeries:
    """Base of EqHahn and PHahn; BASE is the printed variable ("t" or "p").

    This constructor trusts its input to be canonical already (see the module
    docstring); ring classes that canonicalize override it, so operations here
    build results through _trusted and filter at the cap themselves.
    """

    __slots__ = ("cfg", "terms", "cap")
    BASE = None

    def __init__(self, cfg: PrimeConfig, terms, cap=INF):
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "cap", as_frac(cap))

    @classmethod
    def _trusted(cls, cfg, terms, cap):
        self = object.__new__(cls)
        TruncatedSeries.__init__(self, cfg, terms, cap)
        return self

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    # constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, cfg, cap=INF):
        return cls._trusted(cfg, (), cap)

    @classmethod
    def one(cls, cfg, cap=INF):
        return cls.monomial(cfg, 1, 0, cap)

    @classmethod
    def monomial(cls, cfg, coeff, exp, cap=INF):
        """coeff * base^exp below cap (no term when exp >= cap or coeff = 0)."""
        c, exp, cap = cfg.fq(coeff), as_frac(exp), as_frac(cap)
        terms = ((exp, c),) if exp < cap and not c.is_zero() else ()
        return cls._trusted(cfg, terms, cap)

    # predicates and views ----------------------------------------------------

    def is_exact(self) -> bool:
        return self.cap is INF or self.cap == INF

    def is_exact_zero(self) -> bool:
        return not self.terms and self.is_exact()

    def is_zero_below_cap(self) -> bool:
        return not self.terms

    def leading(self):
        """(exponent, coefficient) of the lowest term, or None."""
        return self.terms[0] if self.terms else None

    def valuation(self):
        """min Supp; +inf only for the exact zero series."""
        if self.terms:
            return self.terms[0][0]
        if self.is_exact():
            return INF
        raise PrecisionLoss(
            f"series vanishes below O({self.BASE}^{self.cap}); valuation unresolved")

    def val_lower_bound(self):
        if self.terms:
            return self.terms[0][0]
        return self.cap

    def coeff_at(self, exp) -> FqElem:
        exp = as_frac(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return self.cfg.fq(0)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"{type(self).__name__} expected")
        if not self.cfg.same_field(other.cfg):
            raise ValueError("PrimeConfig mismatch")

    # operations that move or filter terms -----------------------------------

    def __pow__(self, n: int):
        """Square-and-multiply: O(log n) ring multiplications."""
        if n < 0:
            raise ValueError(f"power exponent must be >= 0, got {n}")
        if n == 0:
            return type(self).one(self.cfg)
        return _square_multiply(self, n, operator.mul)

    def shift(self, exp):
        """Multiply by the monomial base^exp (exact: exponent translation)."""
        exp = as_frac(exp)
        cap = self.cap if self.is_exact() else self.cap + exp
        return self._trusted(self.cfg, ((e + exp, c) for e, c in self.terms), cap)

    def strip_leading(self):
        """Remove the lowest term (exact)."""
        if not self.terms:
            return self
        return self._trusted(self.cfg, self.terms[1:], self.cap)

    def truncate(self, cap):
        cap = min(self.cap, as_frac(cap))
        return self._trusted(self.cfg, (t for t in self.terms if t[0] < cap), cap)

    def embed(self, big: PrimeConfig):
        """The same series over an extension field (small r divides big r)."""
        return self._trusted(
            big, ((e, subfield_embedding(c, big)) for e, c in self.terms), self.cap)

    # comparisons -------------------------------------------------------------

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.cfg.same_field(other.cfg)
                and self.terms == other.terms
                and self.cap == other.cap)

    def __hash__(self):
        return hash((self.cfg.p, self.cfg.modulus, self.terms, self.cap))

    def agree_below(self, other, bound) -> bool:
        """Term-for-term equality at exponents < bound (bound within both caps)."""
        self._check(other)
        bound = as_frac(bound)
        if bound > self.cap or bound > other.cap:
            raise PrecisionLoss("agreement bound exceeds a cap")
        mine = [t for t in self.terms if t[0] < bound]
        theirs = [t for t in other.terms if t[0] < bound]
        return mine == theirs

    def __repr__(self):
        body = " + ".join(f"[{c}]*{self.BASE}^({e})" for e, c in self.terms) or "0"
        if not self.is_exact():
            body += f" + O({self.BASE}^({self.cap}))"
        return body


def eval_poly(coeffs, x):
    """Horner evaluation of the polynomial sum(coeffs[i] X^i) at x."""
    acc = type(x).zero(x.cfg)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc
