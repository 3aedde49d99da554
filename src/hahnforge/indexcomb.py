"""Finitely supported index sequences and the transcendence-certificate kernel.

An index vector is a tuple of naturals read at positions 1, 2, ... with
trailing zeros stripped; it indexes one multinomial term of a power of the
series sum_k p^(-1/p^k).  Three statistics drive everything:

    lam(a)   = sum_k -a_k / p^k          (the exponent the term lands on)
    sigma(a) = sum_k a_k                 (which power of the series it came from)
    kappa(a) = max { k : a_k > p-1 }, 0 for the empty set

A vector is reduced when kappa = 0.  Two vectors are equivalent when their
lam values differ by an integer; each class contains exactly one reduced
vector, found by carrying: rewrite the top over-full position kappa as
r + p*d, keep r there and move d one position down (position 1 discards d
into the integer part).  Carrying never increases sigma, strictly decreasing
it unless the vector was already reduced; that strictness is what the
certificate check below exploits.

A certificate is an integer coefficient vector (s_0, ..., s_{n+1}) with
nonzero ends, standing for a hypothetical degree-(n+1) polynomial relation.
grouped_sum collects one equivalence class's total coefficient; for the
all-ones vector of length n+1, the class is a singleton and the total is
s_{n+1} * (n+1)!, which cannot vanish -- the arithmetic heart of the
transcendence argument, reproduced here at finite truncation.

Both kernels are output-sensitive.  enumerate_class walks reverse carries
from the deepest position B to 1: times p^B, lam(k) - lam(k_red) in Z is one
congruence per position, entry = k_red entry - carry from below (mod p), and
each choice within the sigma budget is a distinct member.  certificate_residual
scales exponents by p^K, so A_K = {-p^(K-k): 1} has integer keys, and
normalize sees sum_i s_i * A_K^i once.  Its powers are taken on one of two
representations, picked from (p, degree d, K) alone by their work.  They span
the d*p^(K-1)+1 exponents from -d*p^(K-1) to 0, while the dict products hold
at most C(d+K, d) entries and make up to K updates per entry and power.
When the span is below K*C(d+K, d) (at the default K, every d >= 1 at p = 2
and 3), the powers are packed big ints: one fixed-width slot per exponent, a
product with A_K is K shifted adds, each one pass over machine words where
the dicts make one update per entry and step, and the slots are read back at
the end (Kronecker substitution).  Otherwise (p >= 5, K <= 1, or a K far
beyond the default) they stay dicts, whose size follows the distinct
exponents.  When both counts exceed PACKED_SLOTS_MAX, ValueError is raised
before any power is built.  frak_a_power takes A_K^i from the same kernel,
as the residual of the certificate (0, ..., 0, 1).
"""

from __future__ import annotations

import math
import sys
from array import array
from fractions import Fraction

from .errors import SigmaMismatch
from .exactnum import PrimeConfig, _Record
from .hahn_padic import PHahn, frak_a, from_integer, normalize
from .series import INF, as_frac

__all__ = [
    "index_vec",
    "lambda_of",
    "sigma_of",
    "kappa_of",
    "reduce_index",
    "equivalent",
    "enumerate_class",
    "multinomial",
    "Certificate",
    "frak_a_power",
    "grouped_sum",
    "certificate_residual",
]


def index_vec(entries) -> tuple:
    """Canonical index vector: naturals, trailing zeros stripped."""
    out = list(int(e) for e in entries)
    if any(e < 0 for e in out):
        raise ValueError("index entries must be naturals")
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def lambda_of(a, p: int) -> Fraction:
    return sum((Fraction(-ak, p ** k) for k, ak in enumerate(a, start=1)),
               Fraction(0))


def sigma_of(a) -> int:
    return sum(a)


def kappa_of(a, p: int) -> int:
    top = 0
    for k, ak in enumerate(a, start=1):
        if ak > p - 1:
            top = k
    return top


def is_reduced(a, p: int) -> bool:
    return kappa_of(a, p) == 0


def reduce_index(a, p: int) -> tuple:
    """The unique reduced vector equivalent to a.

    One pass from the last position down carries at every over-full
    position, as carries only move down; each carry preserves lam modulo Z
    (exactly, when it lands on a real position; by an integer discard when
    it falls off position 1).
    """
    work = list(index_vec(a))
    for k in range(len(work) - 1, -1, -1):
        d, work[k] = divmod(work[k], p)
        if k:
            work[k - 1] += d
        # k == 0: d leaves through the integer part
    return index_vec(work)


def equivalent(a, b, p: int) -> bool:
    diff = lambda_of(a, p) - lambda_of(b, p)
    return diff.denominator == 1


def class_position_bound(k_red, sigma_max: int, p: int) -> int:
    """Deepest position any class member with sigma <= sigma_max can use.

    A tail of depth m beyond the reduced support must carry itself away
    entirely: the deepest entry is a positive multiple of p and each
    intermediate level needs at least p-1 more, costing p + (m-1)(p-1).
    """
    base = len(k_red)
    extra = max(0, (sigma_max - p) // (p - 1) + 1)
    return base + extra


def enumerate_class(k_red, sigma_max: int, p: int, position_bound: int | None = None):
    """All vectors k with sigma(k) <= sigma_max and reduce(k) = k_red.

    Reverse carries from position_bound (default class_position_bound) down;
    output sorted by (sigma, entries) so downstream sums are deterministic.
    """
    k_red = index_vec(k_red)
    if not is_reduced(k_red, p):
        raise ValueError("k_red must be reduced")
    bound = class_position_bound(k_red, sigma_max, p) if position_bound is None \
        else position_bound
    if sigma_of(k_red) > sigma_max or len(k_red) > bound:
        return []
    red = k_red + (0,) * (bound - len(k_red))
    found = []
    stack = [(bound, 0, sigma_max, ())]  # position, carry in, sigma left, entries below
    while stack:
        j, carry, budget, below = stack.pop()
        if j == 0:  # position 1's carry has left through the integer part
            found.append(index_vec(below))
            continue
        r = red[j - 1]
        for kj in range((r - carry) % p, budget + 1, p):
            stack.append((j - 1, (kj + carry - r) // p, budget - kj, (kj,) + below))
    return sorted(found, key=lambda k: (sigma_of(k), k))


def multinomial(i: int, k) -> int:
    k = index_vec(k)
    if sigma_of(k) != i:
        raise SigmaMismatch(f"sigma({k}) = {sigma_of(k)} != {i}")
    out = math.factorial(i)
    for kj in k:
        out //= math.factorial(kj)
    return out


class Certificate(_Record):
    """Integer proxy for a hypothetical polynomial relation of degree n+1."""

    __slots__ = ("s", "cap")

    def __init__(self, s, cap):
        s = tuple(int(x) for x in s)
        if len(s) < 2:
            raise ValueError("certificate needs at least s_0 and s_1")
        if s[0] == 0 or s[-1] == 0:
            raise ValueError("s_0 and s_{n+1} must be nonzero")
        self._set(s=s, cap=as_frac(cap))

    @property
    def degree(self) -> int:
        return len(self.s) - 1


def frak_a_power(cfg: PrimeConfig, i: int, terms: int, cap=INF) -> PHahn:
    """i-th power of the terms-term truncation A_K, K = terms, below cap.

    The certificate kernel's residual of (0, ..., 0, 1); the tests hold it
    to the normalized multinomial terms (multinomial(i,k), p^lam(k)) over k
    on the first `terms` positions and to i-fold products of A_K.
    """
    if i < 0:
        raise ValueError("power must be >= 0")
    return normalize(cfg, _residual_bag(cfg.p, (0,) * i + (1,), terms), cap,
                     den=cfg.p ** terms)


def grouped_sum(k_red, cert: Certificate, p: int) -> Fraction:
    """Total coefficient of one equivalence class, as an exact rational.

    sum over class members k with sigma(k) <= n+1 of
        s_{sigma(k)} * multinomial(sigma(k), k) * p^(lam(k) - lam(k_red)).
    The exponent differences are nonpositive integers (carries through
    position 1 lower lam), so the value lives in Z[1/p].
    """
    k_red = index_vec(k_red)
    sigma_max = cert.degree
    base = lambda_of(k_red, p)
    total = Fraction(0)
    for k in enumerate_class(k_red, sigma_max, p):
        diff = lambda_of(k, p) - base
        assert diff.denominator == 1
        total += cert.s[sigma_of(k)] * multinomial(sigma_of(k), k) * \
            Fraction(p) ** int(diff)
    return total


# a residual's powers stay within this many packed slots or dict entries
PACKED_SLOTS_MAX = 1 << 22
# signed array typecodes by item size in bytes
_SIGNED = {array(code).itemsize: code for code in "bhilq"}


def certificate_residual(cfg: PrimeConfig, cert: Certificate,
                         terms: int | None = None) -> PHahn:
    """Standard expansion of sum_i s_i * A_K^i below the certificate cap.

    A_K is the terms-term truncation of the headline series (default
    K = degree + 2), powered on integer exponents by _residual_bag and fed
    through one global normalization so every carry is resolved jointly.
    """
    if terms is None:
        terms = cert.degree + 2
    return normalize(cfg, _residual_bag(cfg.p, cert.s, terms), cert.cap,
                     den=cfg.p ** terms)


def _residual_bag(p: int, s, terms: int) -> list:
    """The nonzero (coefficient, exponent) terms of sum_i s_i * A_K^i, K =
    terms, with exponents scaled by p^K, in the form with less work: packed
    when the span d*p^(K-1)+1, d = len(s) - 1, is below both K*C(d+K, d),
    the dict products' bound of K updates per entry and C(d+K, d) entries,
    and PACKED_SLOTS_MAX; else dict products; else (both span and entries
    over budget) ValueError before any power is built.  The terms go to
    normalize, whose r = 1 buckets sum them as they are read."""
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    d = len(s) - 1
    # a larger power of p makes a span (d >= 1) over budget all the same
    span = d * p ** min(terms - 1, PACKED_SLOTS_MAX.bit_length()) + 1 if terms else 1
    entries = math.comb(d + terms, d)
    if min(span, entries) > PACKED_SLOTS_MAX:
        raise ValueError(f"powers of A_K up to degree {d} at K = {terms} need "
                         f"more than {PACKED_SLOTS_MAX} exponent slots")
    if span < min(terms * entries, PACKED_SLOTS_MAX):
        return _residual_bag_packed(p, s, terms)
    return _residual_bag_dict(p, s, terms)


def _residual_bag_dict(p: int, s, terms: int) -> list:
    """The nonzero (coefficient, exponent) terms of sum_i s_i * A_K^i, with
    exponents scaled by p^K, by dict products: one entry per exponent."""
    steps = [-p ** (terms - k) for k in range(1, terms + 1)]
    power, total = {0: 1}, {}
    for i, si in enumerate(s):
        if i:
            nxt = {}
            for e, c in power.items():
                for step in steps:
                    nxt[e + step] = nxt.get(e + step, 0) + c
            power = nxt
        if si:
            for e, c in power.items():
                total[e] = total.get(e, 0) + si * c
    return [(c, e) for e, c in total.items() if c]


def _residual_bag_packed(p: int, s, terms: int) -> list:
    """_residual_bag_dict's terms by Kronecker substitution, terms >= 1.

    Slot j of an int holds the coefficient at scaled exponent -j, so A_K^i
    times A_K is the sum of K copies shifted by p^k slots.  Every power has
    nonnegative coefficients at most K^i (their sum), so the parts of
    sum_i s_i * A_K^i with s_i > 0 and with s_i < 0 are kept as two
    nonnegative ints whose slots stay below bound = sum |s_i| K^i.  A slot
    has a bit to spare above bound, so pos - neg + bias, where bias holds
    half the slot range in every slot, borrows across no slot, and XOR with
    bias leaves each slot's difference in two's complement.
    """
    bound = sum(abs(si) * terms ** i for i, si in enumerate(s))
    width = (bound.bit_length() + 8) // 8  # bytes per slot
    width = next((w for w in sorted(_SIGNED) if w >= width), width)
    slots = (len(s) - 1) * p ** (terms - 1) + 1
    shifts = [8 * width * p ** k for k in range(terms)]
    power, pos, neg = 1, 0, 0
    for i, si in enumerate(s):
        if i:
            power = sum(power << shift for shift in shifts)
        if si > 0:
            pos += si * power
        elif si < 0:
            neg -= si * power
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * slots, "little")
    raw = ((pos - neg + bias) ^ bias).to_bytes(slots * width, "little")
    if width in _SIGNED:
        coeffs = array(_SIGNED[width], raw)
        if sys.byteorder == "big":
            coeffs.byteswap()
    else:
        coeffs = [int.from_bytes(raw[j:j + width], "little", signed=True)
                  for j in range(0, len(raw), width)]
    return [(c, -j) for j, c in enumerate(coeffs) if c]


def certificate_residual_by_powers(cfg: PrimeConfig, cert: Certificate,
                                   terms: int | None = None) -> PHahn:
    """Independent route: sum s_i * (A_K ** i) with ring operations only.

    Powers are taken on a capped truncation (exact powering would need
    integer digit lifts, which fail for p >= 5), with enough headroom that
    every partial product still covers the certificate cap.
    """
    if terms is None:
        terms = cert.degree + 2
    work_cap = cert.cap + cert.degree + 1
    a = frak_a(cfg, work_cap, terms=terms)
    acc = PHahn.zero(cfg, cap=cert.cap)
    for i, si in enumerate(cert.s):
        if si == 0 or (i and not terms):  # A_0 is the exact zero
            continue
        term = from_integer(cfg, si, work_cap - min(0, i * a.val_lower_bound()))
        acc = acc + (term * a ** i).truncate(cert.cap)
    return acc
