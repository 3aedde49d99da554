"""Truncated-series core shared by the two Hahn-series rings.

A value is (cfg, den, ints, cap): the terms c * base^(n/den) for the pairs
(n, c) of `ints`, n strictly increasing, all strictly below the Fraction
`cap`, c a nonzero element of F_{p^r} stored as its r-tuple of ints in
[0, p), the `coeffs` of an FqElem.  `den` is the lcm of the reduced exponent
denominators (1 for no terms), so equal values have equal (den, ints, cap).
FqElems are built only by the public views: `terms`, the (Fraction, FqElem)
view built on first read, `leading` and `coeff_at`.  Everything below
the cap is exact; everything at or above it is unknown.  cap = INF marks an
exact finite series.  Zero with a finite cap means "zero up to O(base^cap)"
and has no valuation: an unresolved residual is never treated as exactly
zero.

The rings differ only in how coefficients combine -- no carries in
characteristic p (hahn_eqchar.EqHahn), Teichmüller carries in the p-adic case
(hahn_padic.PHahn) -- so sum, difference, product and negation are written
once here: each builds one raw bag of ((k, coefficient tuple), int exponent)
items over a common den and hands it to the ring's canonicalizer,
`_canonical(cfg, bag, cap, den)`, as the parser's conversions do; a ring
also defines `_int_image(cfg, k)`, its image of an integer as a bag
multiplier.  Every operation that merely moves, filters or reads terms
lives here too.
Values are immutable.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction

from .errors import PrecisionLoss
from .exactnum import (FqElem, PrimeConfig, _Frozen, _square_multiply, fq_mul,
                       subfield_embedding)

INF = math.inf

__all__ = ["INF", "as_frac", "TruncatedSeries", "eval_poly"]


def as_frac(x):
    """Exponents and caps as Fraction; INF passes through unchanged."""
    if isinstance(x, Fraction) or x is INF or x == INF:
        return x
    return Fraction(x)


def ints_of(terms):
    """(den, int terms over den) of (Fraction exponent, FqElem) pairs, each
    coefficient as its tuple."""
    den = math.lcm(*(e.denominator for e, _ in terms))
    return den, [(e.numerator * (den // e.denominator), c.coeffs) for e, c in terms]


def is_inf(x):
    """Whether x is INF, for x a cap or bound: a Fraction, an int over a den,
    or INF, the one float among them (as_frac makes outside values so)."""
    return type(x) is float


def int_cap(cap, den):
    """n/den < cap exactly when n < int_cap(cap, den); INF for an exact cap."""
    if is_inf(cap):
        return INF
    return -(-cap.numerator * den // cap.denominator)


class TruncatedSeries(_Frozen):
    """Base of EqHahn and PHahn; BASE is the printed variable ("t" or "p").

    This constructor takes canonical (exponent, coefficient) pairs on trust
    (see the module docstring); ring classes that canonicalize override it,
    so operations here build results from int terms through _trusted, or
    from a raw bag through the ring's `_canonical(cfg, bag, cap, den)`.
    """

    __slots__ = ("cfg", "den", "ints", "cap", "_terms")
    BASE = None

    def __init__(self, cfg: PrimeConfig, terms, cap=INF):
        terms = tuple((as_frac(e), cfg.fq(c)) for e, c in terms)
        self._init_ints(cfg, *ints_of(terms), as_frac(cap))
        object.__setattr__(self, "_terms", terms)

    def _init_ints(self, cfg, den, ints, cap):
        """Set the slots: int terms over den, reduced by one gcd, and cap."""
        ints = tuple(ints)
        g = math.gcd(den, *[n for n, _ in ints]) if den > 1 else 1
        if g > 1:
            den //= g
            ints = tuple([(n // g, c) for n, c in ints])
        set_slot = object.__setattr__
        set_slot(self, "cfg", cfg)
        set_slot(self, "den", den)
        set_slot(self, "ints", ints)
        set_slot(self, "cap", cap)
        set_slot(self, "_terms", None)

    @classmethod
    def _trusted(cls, cfg, den, ints, cap):
        self = object.__new__(cls)
        self._init_ints(cfg, den, ints, cap)
        return self

    @property
    def terms(self):
        """The (Fraction exponent, FqElem) pairs, built on first read."""
        if self._terms is None:
            object.__setattr__(self, "_terms", tuple(
                (Fraction(n, self.den), FqElem(self.cfg, c)) for n, c in self.ints))
        return self._terms

    def ints_over(self, den):
        """The int terms over den, a multiple of self.den, as a list."""
        s = den // self.den
        return [(n * s, c) for n, c in self.ints]

    # constructors ------------------------------------------------------------

    @classmethod
    def zero(cls, cfg, cap=INF):
        return cls._trusted(cfg, 1, (), as_frac(cap))

    @classmethod
    def one(cls, cfg, cap=INF):
        return cls.monomial(cfg, 1, 0, cap)

    @classmethod
    def monomial(cls, cfg, coeff, exp, cap=INF):
        """coeff * base^exp below cap (no term when exp >= cap or coeff = 0)."""
        c, exp, cap = cfg.fq(coeff), as_frac(exp), as_frac(cap)
        ints = ((exp.numerator, c.coeffs),) if exp < cap and not c.is_zero() else ()
        return cls._trusted(cfg, exp.denominator, ints, cap)

    # predicates and views ----------------------------------------------------

    def is_exact(self) -> bool:
        return is_inf(self.cap)

    def is_exact_zero(self) -> bool:
        return not self.ints and self.is_exact()

    def is_zero_below_cap(self) -> bool:
        return not self.ints

    def leading(self):
        """(exponent, coefficient) of the lowest term, or None."""
        if self.ints:
            return self.valuation(), FqElem(self.cfg, self.ints[0][1])

    def valuation(self):
        """min Supp; +inf only for the exact zero series."""
        if self.ints:
            return Fraction(self.ints[0][0], self.den)
        if self.is_exact():
            return INF
        raise PrecisionLoss(
            f"series vanishes below O({self.BASE}^{self.cap}); valuation unresolved")

    def val_lower_bound(self):
        return self.valuation() if self.ints else self.cap

    def coeff_at(self, exp) -> FqElem:
        exp = as_frac(exp)
        x, rem = divmod(exp.numerator * self.den, exp.denominator)
        found = None if rem else dict(self.ints).get(x)
        return self.cfg.fq(0) if found is None else FqElem(self.cfg, found)

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"{type(self).__name__} expected")
        if not self.cfg.same_field(other.cfg):
            raise ValueError("PrimeConfig mismatch")

    # ring operations: one raw bag each, canonicalized by the ring ------------

    def __add__(self, other, k=1):
        """self + k*other for k = 1 or -1."""
        self._check(other)
        den = math.lcm(self.den, other.den)
        bag = [((1, c), x) for x, c in self.ints_over(den)]
        bag += [((k, c), x) for x, c in other.ints_over(den)]
        return self._canonical(self.cfg, bag, min(self.cap, other.cap), den)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        """-self: the bag of (-1, coefficient) items, canonicalized."""
        return self._canonical(self.cfg, [((-1, c), x) for x, c in self.ints],
                               self.cap, self.den)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return self.zero(self.cfg)
        cap = min(self.cap + other.val_lower_bound(),
                  other.cap + self.val_lower_bound())
        # Pairs at or above the cap are dropped (carries only rise), and equal
        # products enter the bag once as (count, product): a dense square has
        # far fewer distinct (exponent, coefficient pair) products than pairs.
        cfg, den = self.cfg, math.lcm(self.den, other.den)
        lim, b = int_cap(cap, den), other.ints_over(den)
        counts = Counter((xa + xb, ca, cb) for xa, ca in self.ints_over(den)
                         for xb, cb in b if xa + xb < lim)
        pairs = {(ca, cb) for _, ca, cb in counts}
        prods = {pair: fq_mul(cfg, *pair) for pair in pairs}
        bag = [((k, prods[ca, cb]), x) for (x, ca, cb), k in counts.items()]
        return self._canonical(cfg, bag, cap, den)

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
        den = math.lcm(self.den, exp.denominator)
        x = exp.numerator * (den // exp.denominator)
        cap = self.cap if self.is_exact() else self.cap + exp
        return self._trusted(self.cfg, den,
                             ((n + x, c) for n, c in self.ints_over(den)), cap)

    def strip_leading(self):
        """Remove the lowest term (exact)."""
        if not self.ints:
            return self
        return self._trusted(self.cfg, self.den, self.ints[1:], self.cap)

    def truncate(self, cap):
        cap = min(self.cap, as_frac(cap))
        lim = int_cap(cap, self.den)
        return self._trusted(self.cfg, self.den,
                             (t for t in self.ints if t[0] < lim), cap)

    def embed(self, big: PrimeConfig):
        """The same series over an extension field (small r divides big r)."""
        return self._trusted(big, self.den, (
            (n, subfield_embedding(FqElem(self.cfg, c), big).coeffs)
            for n, c in self.ints), self.cap)

    # comparisons -------------------------------------------------------------

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.cfg.same_field(other.cfg)
                and self.den == other.den
                and self.ints == other.ints
                and self.cap == other.cap)

    def __hash__(self):
        return hash((self.cfg.p, self.cfg.modulus, self.den, self.ints, self.cap))

    def agree_below(self, other, bound) -> bool:
        """Term-for-term equality at exponents < bound (bound within both caps)."""
        self._check(other)
        bound = as_frac(bound)
        if bound > self.cap or bound > other.cap:
            raise PrecisionLoss("agreement bound exceeds a cap")
        # both truncations have cap = bound and a canonical den
        return self.truncate(bound) == other.truncate(bound)

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
