"""Equal-characteristic Hahn series k((t^Q)) at finite truncation.

Values are truncated series in the sense of `series`: coefficient tuples
of F_{p^r}, rational exponents, exact below the cap.  Sum, difference,
product and negation are the series core's; this ring defines only their
canonicalization (`merged_terms`: in characteristic p there are no carries,
so equal exponents merge by summing coefficients mod p) and the image k mod p
of an integer k, plus `inverse` and `frobenius`.

Cap propagation:
    add:  cap = min(cap_a, cap_b)
    mul:  cap = min(cap_a + v(b), cap_b + v(a))   (v = valuation lower bound)

Arithmetic on exact inputs is exact.  Values are immutable and safe to
share between tasks.
"""

from __future__ import annotations

from .errors import DivisionByZero, PrecisionLoss
from .exactnum import PrimeConfig, _poly_powmod
from .series import INF, TruncatedSeries, as_frac, eval_poly, int_cap, ints_of

__all__ = ["EqHahn", "eval_poly", "INF"]


class EqHahn(TruncatedSeries):
    """Truncated Hahn series over F_{p^r} with rational exponents.

    The constructor canonicalizes: it merges equal exponents, drops zero
    coefficients and terms at or above the cap, and sorts.
    """

    __slots__ = ()
    BASE = "t"

    def __init__(self, cfg: PrimeConfig, terms, cap=INF):
        cap = as_frac(cap)
        den, ints = ints_of([(as_frac(e), cfg.fq(c)) for e, c in terms])
        bag = (((1, c), n) for n, c in ints)
        self._init_ints(cfg, den, merged_terms(cfg.p, den, bag, cap), cap)

    @staticmethod
    def from_int(cfg, n: int) -> "EqHahn":
        return EqHahn.monomial(cfg, n, 0)

    # ring operations ---------------------------------------------------------

    @classmethod
    def _canonical(cls, cfg, bag, cap, den):
        return cls._trusted(cfg, den, merged_terms(cfg.p, den, bag, cap), cap)

    @staticmethod
    def _int_image(cfg, k):
        """The image of the integer k as a bag multiplier: k mod p."""
        return k % cfg.p

    __mul__ = TruncatedSeries.__mul__  # own entry: perfbench/tracing.py wraps it

    def inverse(self, target_cap) -> "EqHahn":
        """Inverse up to O(t^target_cap): leading-term peel-off + geometric series.

        The result r satisfies self * r = 1 + O(t^(target_cap + v(self))).
        Monomials invert exactly.
        """
        target_cap = as_frac(target_cap)
        if not self.ints:
            if self.is_exact():
                raise DivisionByZero("inverse of the exact zero series")
            raise PrecisionLoss("cannot invert a series with no resolved term")
        v, lead = self.leading()
        scale = EqHahn.monomial(self.cfg, lead.inv(), -v)
        if len(self.ints) == 1 and self.is_exact():
            return scale
        if not self.is_exact() and target_cap > self.cap - 2 * v:
            raise PrecisionLoss(
                f"cap O(t^{self.cap}) too small to invert to O(t^{target_cap})")
        # u = self / (lead t^v) - 1 has positive valuation
        u = self.strip_leading() * scale
        vu = u.val_lower_bound()
        inner_cap = target_cap + v
        acc = EqHahn.one(self.cfg, inner_cap)
        power = EqHahn.one(self.cfg)
        k = 1
        while k * vu < inner_cap and power.ints:
            power = (power * (-u)).truncate(inner_cap)
            acc = acc + power
            k += 1
        return acc * scale  # cap inner_cap - v = target_cap

    def frobenius(self) -> "EqHahn":
        """x -> x^p: exponents scale by p, coefficients by the p-power map."""
        p, m = self.cfg.p, self.cfg.modulus
        cap = self.cap if self.is_exact() else self.cap * p
        return EqHahn._trusted(self.cfg, self.den, (
            (n * p, tuple(_poly_powmod(c, p, m, p))) for n, c in self.ints), cap)


def merged_terms(p, den, bag, cap):
    """The (n, coefficient tuple) terms over den of a bag of ((k, tuple), n)
    items: below cap, k times each tuple summed by exponent and reduced mod
    p, nonzero, sorted."""
    lim, merged = int_cap(cap, den), {}
    for (k, c), n in bag:
        if n < lim:
            if k != 1:
                c = [k * x for x in c]
            merged[n] = [x + y for x, y in zip(merged[n], c)] if n in merged else c
    out = ((n, tuple([x % p for x in merged[n]])) for n in sorted(merged))
    return [t for t in out if any(t[1])]
