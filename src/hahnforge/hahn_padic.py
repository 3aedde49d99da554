"""p-adic Hahn series W(F_{p^r})((p^Q)) at finite truncation.

The canonical form of a value is its standard expansion: a finite sorted map
from rational exponents to nonzero Teichmüller digits in F_{p^r}, plus a cap
below which the digits are exact (the error is O(p^cap); cap = +inf marks a
finite exact digit map).  Because digits add p-adically, sums and products of
digit terms generate carries; normalization is where all of them are resolved.

Normalization works in the fractional-part coordinates: raw terms k*[d]*p^e
(the bag coefficient is an int k, a digit d or a pair (k, d)) are bucketed by
e mod 1, and each capped bucket is summed as plain int coefficients: every
term adds k * p^(integer part - offset) times the coefficients of its
digit's Teichmüller lift, modulo p^ell, where ell is sized from the cap plus
the constant GUARD_DIGITS (carries only propagate upward).  `teichmueller`
is asked once per distinct (digit, ell) in a normalize call, not per bucket.
exactnum's digit_coeffs reads off only the digits below the cap, and an
FqElem is built for each nonzero one.  The digit streams of the
buckets are then merged.  Distinct fractional parts can never interact,
which is why the bucketing is sound.  Exponents are handled as ints x
standing for x/den: a caller that already counts exponents over a common
denominator (products, certificate residuals) passes den= and normalize
builds no Fraction until the output digits; Fraction exponents are scaled to
ints.

The same fractional-part coordinates, kept as honest Witt values instead of
digits, form a second representation (FracDecomp).  Multiplication performed
entirely in those coordinates is the package's primary anti-bug oracle for
carry handling: see mul_via_decomposition.

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
from .exactnum import (FqElem, PrimeConfig, WittElem, digit_coeffs,
                       digit_decompose, teichmueller)
from .series import INF, TruncatedSeries, as_frac

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


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


# ---------------------------------------------------------------------------
# normalization kernel
# ---------------------------------------------------------------------------

def _int_lift(coeffs, p):
    """Exact integer Teichmüller lift of the digit `coeffs`, or None when it
    does not exist."""
    if not any(coeffs[1:]):
        c0 = coeffs[0]
        if c0 == 0 or c0 == 1:
            return c0
        if c0 == p - 1 and p > 2:
            return -1
    return None


def _no_int_lift(cfg, coeffs):
    return PrecisionLoss(f"digit {FqElem(cfg, coeffs)} has no integer "
                         "Teichmüller lift; a cap is required")


def _bucket_exact(cfg, items, n_min):
    """Exact digits (coefficient tuples) of one fractional-part bucket.

    Every digit must have an integer Teichmüller lift; the bucket sum is
    then a rational integer whose greedy digit expansion either terminates
    within l_max digits or raises PrecisionLoss.
    """
    p = cfg.p
    cur = 0
    for n, k, d in items:
        lift = _int_lift(d.coeffs, p)
        if lift is None:
            raise _no_int_lift(cfg, d.coeffs)
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


def _bucket_capped(cfg, items, n_min, need, lifts):
    """The first `need` digits (coefficient tuples) of one bucket.

    Each item's Teichmüller lift is scaled by its integer multiplier; the sum
    of those int coefficient lists, reduced mod p^(need + GUARD_DIGITS), is
    read by `digit_coeffs`.  `lifts` maps (digit coeffs, Witt length) to the
    coefficients of `teichmueller`, shared by the buckets of one normalize.
    """
    ell = need + GUARD_DIGITS
    if ell > cfg.l_max:
        raise PrecisionLoss(
            f"bucket needs Witt length {ell} > l_max={cfg.l_max}")
    p = cfg.p
    total = [0] * cfg.r
    for n, k, d in items:
        lift = lifts.get((d.coeffs, ell))
        if lift is None:
            lift = lifts[d.coeffs, ell] = teichmueller(d, ell).coeffs
        m = k * p ** (n - n_min)
        for i, x in enumerate(lift):
            total[i] += m * x
    pk = p ** ell
    return digit_coeffs(cfg, [x % pk for x in total], ell, need)


def normalize(cfg: PrimeConfig, bag, cap, den: int = 1) -> "PHahn":
    """Standard expansion of a raw term bag, exact below cap.

    Bag items are (coefficient, exponent) pairs; a coefficient is an int n,
    an FqElem d (meaning its Teichmüller lift) or an (int, FqElem) product
    (k, d), and is read as the pair (n, [1]), (1, d) or (k, d).  Every
    exponent x stands for x/den (den a positive int): int exponents go in as
    they are, and Fraction exponents are scaled by the lcm of their
    denominators (den with them), so bucketing, cap tests and sorting run on
    ints and one Fraction is built per output digit.  Terms are bucketed by the
    fractional part q of the exponent; a capped bucket is summed as int
    coefficients mod p^(ceil(cap - q) - offset + GUARD_DIGITS) and its digits
    read up to the cap, and the buckets are merged.  An FqElem is built only
    for an output digit.
    """
    cap = as_frac(cap)
    one = cfg.fq(1)
    raw = []
    for coeff, exp in bag:
        if isinstance(coeff, FqElem):
            k, d = 1, coeff
        elif isinstance(coeff, int):
            k, d = coeff, one
        elif isinstance(coeff, tuple) and len(coeff) == 2:
            k, d = coeff
        else:
            raise TypeError(f"unsupported bag coefficient {coeff!r}")
        raw.append((exp if type(exp) is int else as_frac(exp), k, d))
    scale = math.lcm(*(x.denominator for x, _, _ in raw))
    den *= scale
    buckets = {}  # x mod den -> [(x div den, k, d)]
    for x, k, d in raw:
        n, q = divmod(x.numerator * (scale // x.denominator), den)
        buckets.setdefault(q, []).append((n, k, d))
    exact = cap is INF or cap == INF
    if not exact:  # ceil(cap - q/den) = -((q * cd - cn) // (cd * den))
        cn, cd = cap.numerator * den, cap.denominator
    out = []  # (exponent * den, digit)
    lifts = {}
    for q, items in buckets.items():
        n_min = min(n for n, _, _ in items)
        if exact:
            if (len({n for n, _, _ in items}) == len(items)
                    and all(k == 1 or (k == -1 and cfg.p > 2)
                            for _, k, _ in items)):
                # single digits at distinct integer parts are already a
                # standard expansion ([p-1] is -1 exactly at odd p)
                out.extend((n * den + q, d if k == 1 else d * cfg.fq(cfg.p - 1))
                           for n, k, d in items if not d.is_zero())
                continue
            digits = _bucket_exact(cfg, items, n_min)
        else:
            need = -((q * cd - cn) // (cd * den)) - n_min
            if need <= 0:
                continue
            digits = _bucket_capped(cfg, items, n_min, need, lifts)
        for i, d in enumerate(digits):
            if any(d):
                out.append(((n_min + i) * den + q, FqElem(cfg, d)))
    out.sort(key=lambda t: t[0])
    return PHahn(cfg, tuple((Fraction(x, den), d) for x, d in out), cap)


def _indexed(terms, den):
    """Terms as (exponent * den, digit index) pairs, and the distinct digits."""
    index, digits, out = {}, [], []
    for e, d in terms:
        i = index.setdefault(d.coeffs, len(digits))
        if i == len(digits):
            digits.append(d)
        out.append((e.numerator * (den // e.denominator), i))
    return out, digits


class PHahn(TruncatedSeries):
    """Truncated p-adic Hahn series in standard expansion.

    The constructor trusts its input to already be a standard expansion
    (strictly increasing exponents, nonzero digits, all below cap); use
    normalize()/from_integer()/frak_a() to build values from raw material.
    """

    __slots__ = ()
    BASE = "p"

    @property
    def digits(self):
        """The (exponent, digit) pairs of the standard expansion."""
        return self.terms

    digit_at = TruncatedSeries.coeff_at

    def digit_bag(self):
        return [(d, e) for e, d in self.terms]

    # arithmetic --------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        cap = min(self.cap, other.cap)
        return normalize(self.cfg, self.digit_bag() + other.digit_bag(), cap)

    def __neg__(self):
        p = self.cfg.p
        if p > 2:
            minus_one = self.cfg.fq(p - 1)  # [p-1] = -1 exactly for odd p
            return PHahn(self.cfg, tuple((e, d * minus_one) for e, d in self.terms),
                         self.cap)
        return normalize(self.cfg, [((-1, d), e) for e, d in self.terms], self.cap)

    def __sub__(self, other):
        self._check(other)
        cap = min(self.cap, other.cap)
        bag = self.digit_bag() + [((-1, d), e) for e, d in other.terms]
        return normalize(self.cfg, bag, cap)

    def __mul__(self, other):
        self._check(other)
        if self.is_exact_zero() or other.is_exact_zero():
            return PHahn.zero(self.cfg)
        cap = min(self.cap + other.val_lower_bound(),
                  other.cap + self.val_lower_bound())
        # Equal products enter the bag once as (count, digit): a dense square
        # has far fewer distinct (exponent, digit pair) products than pairs.
        # Exponents are counted as integers over a common denominator and
        # digits by index, so the pair loop does no Fraction or field work.
        den = math.lcm(*(e.denominator for e, _ in self.terms + other.terms))
        a, da = _indexed(self.terms, den)
        b, db = _indexed(other.terms, den)
        counts = {}
        for xa, ia in a:
            for xb, ib in b:
                key = (xa + xb, ia, ib)
                counts[key] = counts.get(key, 0) + 1
        digit = {}
        bag = []
        for (x, ia, ib), k in counts.items():
            d = digit.get((ia, ib))
            if d is None:
                d = digit[ia, ib] = da[ia] * db[ib]
            bag.append((d if k == 1 else (k, d), x))
        return normalize(self.cfg, bag, cap, den=den)


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

class FracDecomp:
    """Coefficients c_q of the decomposition sum_q c_q p^q, q in [0,1).

    Each entry is (q, offset, unit): the coefficient is p^offset * unit with
    unit a WittElem whose precision records how many digits of c_q are known.
    Entries with negative valuation simply carry a negative offset.
    """

    __slots__ = ("cfg", "entries", "cap")

    def __init__(self, cfg, entries, cap):
        object.__setattr__(self, "cfg", cfg)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "cap", as_frac(cap))

    def __setattr__(self, *a):
        raise AttributeError("FracDecomp is immutable")

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
    """
    cfg = x.cfg
    cover = x.cap if cover is None else as_frac(cover)
    if not x.is_exact() and cover > x.cap:
        raise PrecisionLoss("cannot cover beyond the cap of a truncated value")
    buckets = {}
    for e, d in x.terms:
        n = _floor(e)
        buckets.setdefault(e - n, []).append((n, d))
    entries = []
    for q in sorted(buckets):
        items = buckets[q]
        n_min = items[0][0]
        prec = items[-1][0] - n_min + 1
        if cover is not INF and cover != INF:
            prec = max(prec, math.ceil(cover - q) - n_min)
        pk = cfg.p ** prec
        total = [0] * cfg.r
        for n, d in items:
            lift = teichmueller(d, prec=prec)
            shift = cfg.p ** (n - n_min)
            total = [(a + b * shift) % pk for a, b in zip(total, lift.coeffs)]
        entries.append((q, n_min, WittElem(cfg, tuple(total), prec)))
    return FracDecomp(cfg, entries, x.cap)


def recompose(fd: FracDecomp, cap=None) -> PHahn:
    """Inverse of decompose below cap (defaults to the decomposition's cap)."""
    cap = fd.cap if cap is None else as_frac(cap)
    out = []
    for q, off, unit in fd.entries:
        if cap is not INF and cap != INF and cap > q + off + unit.prec:
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
    moves one factor of p into the coefficient), then digit extraction.
    Independent of the digit-bag route in PHahn.__mul__, which it cross
    checks.
    """
    cfg = a.cfg
    if a.is_exact_zero() or b.is_exact_zero():
        return PHahn.zero(cfg)
    cap = min(a.cap + b.val_lower_bound(), b.cap + a.val_lower_bound())
    if cap is INF or cap == INF:
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
    out = []
    for q in sorted(buckets):
        items = buckets[q]
        o_min = min(o for o, _ in items)
        abs_prec = min(o + w.prec for o, w in items)
        rel = abs_prec - o_min
        if cap is not INF and cap != INF and q + abs_prec < cap:
            raise PrecisionLoss("product bucket does not cover the requested cap")
        if rel <= 0:
            continue
        pk = cfg.p ** rel
        total = [0] * cfg.r
        for o, w in items:
            shift = cfg.p ** (o - o_min)
            total = [(x + y * shift) % pk for x, y in zip(total, w.coeffs)]
        unit = WittElem(cfg, tuple(total), rel)
        for i, d in enumerate(digit_decompose(unit)):
            e = q + o_min + i
            if not d.is_zero() and e < cap:
                out.append((e, d))
    out.sort(key=lambda t: t[0])
    return PHahn(cfg, tuple(out), cap)
