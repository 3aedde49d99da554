"""Equal-characteristic Hahn series k((t^Q)) at finite truncation.

Values are truncated series in the sense of `series`: coefficients in
F_{p^r}, rational exponents, exact below the cap.

Cap propagation:
    add:  cap = min(cap_a, cap_b)
    mul:  cap = min(cap_a + v(b), cap_b + v(a))   (v = valuation lower bound)

In characteristic p there are no carries, so arithmetic on exact inputs is
exact.  Values are immutable and safe to share between tasks.
"""

from __future__ import annotations

from .errors import DivisionByZero, PrecisionLoss
from .exactnum import PrimeConfig
from .series import INF, TruncatedSeries, as_frac, eval_poly

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
        merged = {}
        for exp, coeff in terms:
            exp = as_frac(exp)
            if exp >= cap:
                continue
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = cfg.fq(coeff)
        items = sorted(((e, c) for e, c in merged.items() if not c.is_zero()),
                       key=lambda t: t[0])
        super().__init__(cfg, items, cap)

    @staticmethod
    def from_int(cfg, n: int) -> "EqHahn":
        return EqHahn.monomial(cfg, n, 0)

    # ring operations --------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        cap = min(self.cap, other.cap)
        return EqHahn(self.cfg, list(self.terms) + list(other.terms), cap)

    def __neg__(self):
        return EqHahn(self.cfg, [(e, -c) for e, c in self.terms], self.cap)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return EqHahn.zero(self.cfg)
        cap = min(self.cap + other.val_lower_bound(),
                  other.cap + self.val_lower_bound())
        out = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                if e >= cap:
                    continue
                prod = ca * cb
                out[e] = out[e] + prod if e in out else prod
        return EqHahn(self.cfg, out.items(), cap)

    def inverse(self, target_cap) -> "EqHahn":
        """Inverse up to O(t^target_cap): leading-term peel-off + geometric series.

        The result r satisfies self * r = 1 + O(t^(target_cap + v(self))).
        Monomials invert exactly.
        """
        target_cap = as_frac(target_cap)
        if not self.terms:
            if self.is_exact():
                raise DivisionByZero("inverse of the exact zero series")
            raise PrecisionLoss("cannot invert a series with no resolved term")
        v, lead = self.terms[0]
        if len(self.terms) == 1 and self.is_exact():
            return EqHahn.monomial(self.cfg, lead.inv(), -v)
        if not self.is_exact() and target_cap > self.cap - 2 * v:
            raise PrecisionLoss(
                f"cap O(t^{self.cap}) too small to invert to O(t^{target_cap})")
        lead_inv = lead.inv()
        # u = self / (lead t^v) - 1 has positive valuation
        u = EqHahn(self.cfg,
                   [(e - v, c * lead_inv) for e, c in self.terms[1:]],
                   (self.cap - v) if not self.is_exact() else INF)
        vu = u.val_lower_bound()
        inner_cap = target_cap + v
        acc = EqHahn.one(self.cfg, inner_cap)
        power = EqHahn.one(self.cfg)
        k = 1
        while k * vu < inner_cap and power.terms:
            power = (power * (-u)).truncate(inner_cap)
            acc = acc + power
            k += 1
        return EqHahn(self.cfg,
                      [(e - v, c * lead_inv) for e, c in acc.terms],
                      target_cap)

    def frobenius(self) -> "EqHahn":
        """x -> x^p: exponents scale by p, coefficients by the p-power map."""
        p = self.cfg.p
        cap = self.cap if self.is_exact() else self.cap * p
        return EqHahn(self.cfg, [(e * p, c ** p) for e, c in self.terms], cap)
