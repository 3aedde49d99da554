"""p-adic Hahn series W(F_{p^r})((p^Q)) at finite truncation.

The canonical form of a value is its standard expansion: a finite sorted map
from rational exponents to nonzero Teichmüller digits in F_{p^r}, plus a cap
below which the digits are exact (the error is O(p^cap); cap = +inf marks a
finite exact digit map).  Because digits add p-adically, sums and products of
digit terms generate carries; normalization is where all of them are resolved.
Sum, difference, product and negation are the series core's (see series);
this ring defines only their canonicalization, `normalize`.

Normalization works in the fractional-part coordinates: raw terms k*[d]*p^e
(the bag coefficient is an int k, an FqElem d or a pair (k, d), d an FqElem
or its coefficient tuple; any 2-tuple is read as such a pair) are bucketed
by e mod 1, and each capped bucket is summed as plain int coefficients:
every term adds k * p^(integer part - offset) times the coefficients of its
digit's Teichmüller lift, modulo p^ell, where ell is sized from the cap plus
the constant GUARD_DIGITS (carries only propagate upward).  `teichmueller`
is asked once per distinct (digit, ell) in a normalize call, not per
bucket, and only there is an FqElem built.  At r = 1 a capped bucket is one
int, summed as the bag is read: it is kept at the least integer part n_min
seen so far and rescaled when a lower one arrives, the digits [0] and [1]
are their own lifts, and a digit that needs a lift waits until the
bucket's ell is known.  At r > 1 a capped bucket is a list of its terms,
summed by _lift_sum, which decompose shares; an exact bucket is such a list
at every r (see below).  exactnum's digit_runs reads the digits below the cap of every
bucket in one call, each distinct bucket value once.  Digits are
coefficient tuples throughout, as a value stores them (see series).
Distinct fractional parts can never interact, which is why the bucketing
is sound.  Exponents are ints x standing for x/den, in the bag
(sums, products and certificate residuals pass den=) and in the output
value (see series); a bag of int exponents builds no Fraction at all.

The same fractional-part coordinates, kept as honest Witt values instead of
digits, form a second representation (FracDecomp).  Multiplication performed
entirely in those coordinates is the package's primary anti-bug oracle for
carry handling: see mul_via_decomposition, whose product entries recompose
reads back as digits.

Uncapped (exact) normalization passes a bucket of single digits at distinct
integer parts through as it is: that is already a standard expansion.  Any
other exact bucket is only summed when each of its coefficients has an
integer Teichmüller lift (digits 0, 1, p-1, whose lifts are 0, 1, -1); other
digits have infinite expansions whose termination cannot be certified at
finite truncation, so PrecisionLoss is raised and the caller must supply a
cap.

All values are immutable; operations are pure.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PrecisionLoss
from .exactnum import (FqElem, PrimeConfig, WittElem, _Frozen, _int_lift,
                       digit_runs, digit_decompose, neg_mod, teichmueller)
from .series import INF, TruncatedSeries, as_frac, is_inf

GUARD_DIGITS = 2  # carries only propagate upward: these absorb the cap boundary

__all__ = [
    "PHahn",
    "FracDecomp",
    "normalize",
    "from_integer",
    "frak_a",
    "decompose",
    "recompose",
    "mul_via_decomposition",
]


# ---------------------------------------------------------------------------
# normalization kernel
# ---------------------------------------------------------------------------

def _no_int_lift(cfg, coeffs):
    return PrecisionLoss(f"digit {FqElem(cfg, coeffs)} has no integer "
                         "Teichmüller lift; a cap is required")


def _bucket_exact(cfg, items, n_min):
    """Exact digits (coefficient tuples) of one bucket's (n, k, coeffs) items.

    Every digit must have an integer Teichmüller lift; the bucket sum is
    then a rational integer whose greedy digit expansion either terminates
    within l_max digits or raises PrecisionLoss.
    """
    p = cfg.p
    cur = 0
    for n, k, d in items:
        lift = _int_lift(d, p)
        if lift is None:
            raise _no_int_lift(cfg, d)
        cur += k * lift * p ** (n - n_min)
    digits, zeros = [], (0,) * (cfg.r - 1)
    while cur:
        if len(digits) >= cfg.l_max:
            raise PrecisionLoss(
                f"digit expansion did not terminate within l_max={cfg.l_max}")
        d = (cur % p,) + zeros
        digits.append(d)
        lift = _int_lift(d, p)
        if lift is None:
            raise _no_int_lift(cfg, d)
        cur = (cur - lift) // p
    return digits


def _lift_sum(cfg, items, n_min, ell, lifts):
    """Int coefficients of sum k * p^(n - n_min) * [d] over one bucket's
    (n, k, d) items, each [d] the `teichmueller` lift at length ell, asked
    once per (d, ell) in the memo `lifts`; correct mod p^ell, not reduced."""
    p, total = cfg.p, [0] * cfg.r
    for n, k, d in items:
        lift = lifts.get((d, ell))
        if lift is None:
            lift = lifts[d, ell] = teichmueller(FqElem(cfg, d), ell).coeffs
        m = k * p ** (n - n_min)
        for i, x in enumerate(lift):
            total[i] += m * x
    return total


def normalize(cfg: PrimeConfig, bag, cap, den: int = 1) -> "PHahn":
    """Standard expansion of a raw term bag, exact below cap.

    Bag items are (coefficient, exponent) pairs; a coefficient is an int n,
    an FqElem d (meaning its Teichmüller lift) or a product (k, d) of an int
    and a digit, given as an FqElem or as its coefficient tuple, and is read
    as the pair (n, [1]), (1, d) or (k, d).  Every
    exponent x stands for x/den (den a positive int): int exponents go in as
    they are, and Fraction exponents are scaled by the lcm of their
    denominators (den with them); all exponent work, the output included,
    is on ints, and no Fraction is built.  Terms are bucketed by the
    fractional part q of the exponent.  A capped bucket needs the digits
    below the cap, need = ceil(cap - q) - offset of them, and is summed mod
    p^ell, ell = need + GUARD_DIGITS, from the `teichmueller` lifts of its
    digits, asked once per (digit, ell) in a call: at r = 1 as one int,
    updated as each term is read, and otherwise as int coefficients, whose
    digits `digit_runs` reads for all buckets at once.  Buckets are visited
    in the order the bag first shows them (Fraction exponents after int
    ones), so the same bucket raises PrecisionLoss first.  Digits are
    coefficient tuples throughout, the output's included; an FqElem is
    built only as a `teichmueller` argument.  Any other coefficient raises
    TypeError.
    """
    cap = as_frac(cap)
    p, r = cfg.p, cfg.r
    one = (1,) + (0,) * (r - 1)
    exact = is_inf(cap)
    sums = r == 1 and not exact  # a bucket is summed as its items are read
    # x mod den -> [n_min, x, *lifted] if sums, else [(x div den, k, d)]
    buckets, fracs = {}, []
    while True:
        for coeff, exp in bag:
            t = type(coeff)
            if t is tuple and len(coeff) == 2:
                k, d = coeff
                if type(d) is not tuple:
                    if type(d) is not FqElem:
                        raise TypeError(f"unsupported bag coefficient {coeff!r}")
                    d = d.coeffs
            elif t is FqElem:
                k, d = 1, coeff.coeffs
            elif isinstance(coeff, int):
                k, d = coeff, one
            else:
                raise TypeError(f"unsupported bag coefficient {coeff!r}")
            if type(exp) is not int:
                fracs.append((as_frac(exp), k, d))
                continue
            n, q = divmod(exp, den)
            if not sums:
                buckets.setdefault(q, []).append((n, k, d))
                continue
            b = buckets.get(q)
            if b is None:
                b = buckets[q] = [n, 0]
            elif n < b[0]:  # x is kept at the least integer part n_min
                b[1] *= p ** (b[0] - n)
                b[0] = n
            if d[0] == 1:
                b[1] += k if n == b[0] else k * p ** (n - b[0])
            elif d[0]:  # its lift waits for the bucket's ell; [0] adds nothing
                b.append((n, k, d))
        if not fracs:
            break
        # x/den = (x * scale)/(den * scale): the buckets so far move to
        # q * scale, and the Fraction terms are read again on int exponents
        scale = math.lcm(*(x.denominator for x, _, _ in fracs))
        den *= scale
        buckets = {q * scale: b for q, b in buckets.items()}
        bag = [((k, d), x.numerator * (scale // x.denominator)) for x, k, d in fracs]
        fracs = []
    if not exact:  # ceil(cap - q/den) = -((q * cd - cn) // (cd * den))
        cn, cd = cap.numerator * den, cap.denominator
    out, runs, lifts = [], [], {}  # out: (exponent * den, digit)
    for q, b in buckets.items():
        if exact:
            n_min = min(b)[0]
            if (len({n for n, _, _ in b}) == len(b)
                    and all(k == 1 or (k == -1 and p > 2) for _, k, _ in b)):
                # single digits at distinct integer parts are already a
                # standard expansion ([p-1] is -1 exactly at odd p)
                out.extend((n * den + q, d if k == 1 else neg_mod(d, p))
                           for n, k, d in b if any(d))
            else:
                out.extend(((n_min + i) * den + q, d) for i, d in
                           enumerate(_bucket_exact(cfg, b, n_min)) if any(d))
            continue
        n_min = b[0] if sums else min(b)[0]
        need = -((q * cd - cn) // (cd * den)) - n_min
        if need <= 0:
            continue
        ell = need + GUARD_DIGITS
        if ell > cfg.l_max:
            raise PrecisionLoss(f"bucket needs Witt length {ell} > l_max={cfg.l_max}")
        if not sums:
            x = _lift_sum(cfg, b, n_min, ell, lifts)
        else:
            x = b[1]
            for n, k, d in b[2:]:  # the lifts that waited for this ell
                lift = lifts.get((d, ell))
                if lift is None:
                    lift = lifts[d, ell] = teichmueller(
                        FqElem(cfg, d), ell).coeffs[0]
                x += k * lift * p ** (n - n_min)
        runs.append((n_min * den + q, x, ell, need))
    out += digit_runs(cfg, runs, den)
    out.sort(key=lambda t: t[0])
    return PHahn._trusted(cfg, den, out, cap)


class PHahn(TruncatedSeries):
    """Truncated p-adic Hahn series in standard expansion.

    The constructor trusts its input to already be a standard expansion
    (strictly increasing exponents, nonzero digits, all below cap); use
    normalize()/from_integer()/frak_a() to build values from raw material.
    """

    __slots__ = ()
    BASE = "p"

    digits = TruncatedSeries.terms  # the (exponent, digit) pairs
    digit_at = TruncatedSeries.coeff_at

    def digit_bag(self):
        return [(d, e) for e, d in self.terms]

    # arithmetic: the series core's, canonicalized by normalize -------------

    @staticmethod
    def _canonical(cfg, bag, cap, den):
        return normalize(cfg, bag, cap, den=den)

    @staticmethod
    def _int_image(cfg, k):
        """The image of the integer k as a bag multiplier: k itself."""
        return k

    __mul__ = TruncatedSeries.__mul__  # own entry: perfbench/tracing.py wraps it


# ---------------------------------------------------------------------------
# embeddings of plain integers and the headline series
# ---------------------------------------------------------------------------

def from_integer(cfg: PrimeConfig, n: int, cap=INF) -> PHahn:
    """Standard expansion of the rational integer n, exact below cap.

    Negative n at p = 2 has the infinite complement expansion, so a finite
    cap is required there.
    """
    return normalize(cfg, [(n, 0)], cap)


def frak_a(cfg: PrimeConfig, cap, terms: int | None = None) -> PHahn:
    """Truncation of the series sum_k p^(-1/p^k) (digit [1] at -1/p^k).

    With terms=None all exponents below cap are emitted, which requires
    cap < 0; for cap >= 0 infinitely many digits would qualify and an
    explicit terms count must be supplied.
    """
    cap = as_frac(cap)
    if terms is not None and terms < 0:
        raise ValueError("terms must be >= 0")
    if terms is None and cap >= 0:
        raise ValueError(
            "cap >= 0 would need infinitely many digits; pass an explicit terms count")
    # exponents rise with k, so the first one at or above cap ends the series
    digits, k = [], 1
    while (terms is None or k <= terms) and Fraction(-1, cfg.p ** k) < cap:
        digits.append((Fraction(-1, cfg.p ** k), cfg.fq(1)))
        k += 1
    return PHahn(cfg, tuple(digits), cap)


# ---------------------------------------------------------------------------
# fractional-part decomposition (the second coordinate system)
# ---------------------------------------------------------------------------

class FracDecomp(_Frozen):
    """Coefficients c_q of the decomposition sum_q c_q p^q, q in [0,1).

    Each entry is (q, offset, unit): the coefficient is p^offset * unit with
    unit a WittElem whose precision records how many digits of c_q are known.
    Entries with negative valuation simply carry a negative offset.
    """

    __slots__ = ("cfg", "entries", "cap")

    def __init__(self, cfg, entries, cap):
        self._set(cfg=cfg, entries=tuple(entries), cap=as_frac(cap))

    def __eq__(self, other):
        return (isinstance(other, FracDecomp)
                and self.cfg.same_field(other.cfg)
                and self.entries == other.entries
                and self.cap == other.cap)

    def __repr__(self):
        parts = [f"{q}: p^{off} * ({unit})" for q, off, unit in self.entries]
        return "FracDecomp{" + ", ".join(parts) + f"; cap={self.cap}" + "}"


def decompose(x: PHahn, cover=None) -> FracDecomp:
    """Bucket the standard expansion by exponent fractional part.

    `cover` asks every entry to know its digits up to that exponent; it
    defaults to x.cap and may exceed it only when x is exact (a finite digit
    map determines c_q to any precision, its higher digits being zero).
    Terms n/den are bucketed by divmod(n, den); q is a Fraction per entry.
    Each bucket is summed by normalize's _lift_sum, with the `teichmueller`
    lifts asked once per (digit, length) in a call.
    """
    cfg, den = x.cfg, x.den
    cover = x.cap if cover is None else as_frac(cover)
    if not x.is_exact() and cover > x.cap:
        raise PrecisionLoss("cannot cover beyond the cap of a truncated value")
    buckets, lifts = {}, {}
    for e, d in x.ints:
        n, q = divmod(e, den)
        buckets.setdefault(q, []).append((n, 1, d))
    entries = []
    for q in sorted(buckets):
        items = buckets[q]
        n_min = items[0][0]
        prec = items[-1][0] - n_min + 1
        q = Fraction(q, den)
        if not is_inf(cover):
            prec = max(prec, math.ceil(cover - q) - n_min)
        pk = cfg.p ** prec
        total = _lift_sum(cfg, items, n_min, prec, lifts)
        entries.append((q, n_min, WittElem(cfg, tuple(x % pk for x in total), prec)))
    return FracDecomp(cfg, entries, x.cap)


def recompose(fd: FracDecomp, cap=None) -> PHahn:
    """Inverse of decompose below cap (defaults to the decomposition's cap)."""
    cap = fd.cap if cap is None else as_frac(cap)
    out = []
    for q, off, unit in fd.entries:
        if not is_inf(cap) and cap > q + off + unit.prec:
            raise PrecisionLoss("FracDecomp entry does not cover the requested cap")
        for i, d in enumerate(digit_decompose(unit)):
            e = q + off + i
            if not d.is_zero() and e < cap:
                out.append((e, d))
    out.sort(key=lambda t: t[0])
    return PHahn(fd.cfg, tuple(out), cap)


def mul_via_decomposition(a: PHahn, b: PHahn) -> PHahn:
    """Product computed entirely in FracDecomp coordinates.

    Pairwise Witt products with fractional-part wraparound (q1 + q2 >= 1
    moves one factor of p into the coefficient), summed per bucket into
    FracDecomp entries that recompose reads back as digits.
    Independent of the digit-bag route in PHahn.__mul__, which it cross
    checks.
    """
    cfg = a.cfg
    if a.is_exact_zero() or b.is_exact_zero():
        return PHahn.zero(cfg)
    cap = min(a.cap + b.val_lower_bound(), b.cap + a.val_lower_bound())
    if is_inf(cap):
        raise PrecisionLoss(
            "decomposition-route product needs a finite cap; truncate a factor")
    fa = decompose(a, cover=min(a.cap, cap - b.val_lower_bound()))
    fb = decompose(b, cover=min(b.cap, cap - a.val_lower_bound()))
    buckets = {}
    for q1, o1, w1 in fa.entries:
        for q2, o2, w2 in fb.entries:
            q = q1 + q2
            wrap = 0
            if q >= 1:
                q -= 1
                wrap = 1
            buckets.setdefault(q, []).append((o1 + o2 + wrap, w1 * w2))
    entries = []
    for q in sorted(buckets):
        items = buckets[q]
        o_min = min(o for o, _ in items)
        abs_prec = min(o + w.prec for o, w in items)
        rel = abs_prec - o_min
        if q + abs_prec < cap:
            raise PrecisionLoss("product bucket does not cover the requested cap")
        if rel <= 0:
            continue
        pk = cfg.p ** rel
        total = [0] * cfg.r
        for o, w in items:
            shift = cfg.p ** (o - o_min)
            total = [(x + y * shift) % pk for x, y in zip(total, w.coeffs)]
        entries.append((q, o_min, WittElem(cfg, tuple(total), rel)))
    return recompose(FracDecomp(cfg, entries, cap))
