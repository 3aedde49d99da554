"""Output oracles shared by the workloads.

The readers and formatters here are written against the documented text
format, not against the package's own parser and printer, so that a fault in
`parsing` shows up as a failed item instead of cancelling out.  The p-adic
check compares a standard expansion with its raw digit bag bucket by bucket
in Witt coordinates, with Teichmüller lifts of its own, a route that shares
no code with `normalize`, `teichmueller` or `decompose`.
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = math.inf


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def fmt_rational(x) -> str:
    if x == INF:
        return "inf"
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_fq(coeffs) -> str:
    """Residue-field element in the generator basis, highest power first."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            gpow = "g" if i == 1 else f"g^{i}"
            parts.append(gpow if c == 1 else f"{c}*{gpow}")
    return "+".join(parts) if parts else "0"


def fmt_series(items, cap, base: str) -> str:
    """Canonical series text from (exponent, coefficient vector) pairs."""
    parts = []
    for e, vec in items:
        body = f"[{fmt_fq(vec)}]"
        parts.append(body if e == 0 else f"{body}*{base}^({fmt_rational(e)})")
    if cap != INF:
        parts.append(f"O({base}^({fmt_rational(cap)}))")
    return " + ".join(parts) if parts else "0"


def fmt_input_line(terms, cap, base: str) -> str:
    """Input-syntax series from signed digit terms (sign, vec, exponent)."""
    text = ""
    for i, (sign, vec, e) in enumerate(terms):
        term = f"[{fmt_fq(vec)}]*{base}^({fmt_rational(e)})"
        if i == 0:
            text = ("-" if sign < 0 else "") + term
        else:
            text += (" - " if sign < 0 else " + ") + term
    if cap is not None:
        text += f" + O({base}^({fmt_rational(cap)}))"
    return text


def read_rational(text: str):
    text = text.strip()
    if text == "inf":
        return INF
    return Fraction(text)


def read_vec(text: str, r: int) -> list:
    """Coefficient vector of a generator-basis sum such as `2*g^2+g+3`."""
    vec = [0] * r
    for part in text.split("+"):
        if "g" not in part:
            vec[0] += int(part)
            continue
        coeff, _, gpow = part.partition("g")
        coeff = int(coeff.rstrip("*")) if coeff else 1
        power = int(gpow[1:]) if gpow.startswith("^") else 1
        if power >= r:
            raise ValueError(f"generator power {power} outside a degree-{r} field")
        vec[power] += coeff
    return vec


def read_series(text: str, base: str, r: int):
    """(items, cap) of a canonical series line; cap is INF when absent."""
    items, cap = [], INF
    if text.strip() == "0":
        return items, cap
    for part in text.strip().split(" + "):
        if part.startswith("O("):
            head = f"O({base}^("
            if not (part.startswith(head) and part.endswith("))")):
                raise ValueError(f"bad cap {part!r}")
            cap = Fraction(part[len(head):-2])
            continue
        if not part.startswith("["):
            raise ValueError(f"bad term {part!r}")
        body, _, rest = part[1:].partition("]")
        if rest == "":
            e = Fraction(0)
        elif rest.startswith(f"*{base}^(") and rest.endswith(")"):
            e = Fraction(rest[len(base) + 3:-1])
        else:
            raise ValueError(f"bad term {part!r}")
        items.append((e, read_vec(body, r)))
    return items, cap


# ---------------------------------------------------------------------------
# value checks
# ---------------------------------------------------------------------------

def eq_merge(terms, cap):
    """Equal-characteristic value of (sign, FqElem, exponent) terms below cap:
    merged per exponent, zero-free, sorted."""
    merged = {}
    for sign, c, e in terms:
        if e >= cap:
            continue
        c = c if sign > 0 else -c
        merged[e] = merged[e] + c if e in merged else c
    return sorted(((e, c) for e, c in merged.items() if not c.is_zero()),
                  key=lambda t: t[0])


def witt_lift(d, prec):
    """The Teichmüller lift of the digit d in W_prec, by the oracle's own
    route: x^(q^(prec-1)) for the naive lift x of d (x^q agrees with x mod p,
    and each q-th power gains a p-adic digit).  It calls no part of the
    package's digit machinery (`teichmueller`, `digit_decompose`, `decompose`),
    only WittElem ring arithmetic."""
    cfg = d.cfg
    return cfg.witt(list(d.coeffs), prec=prec) ** (cfg.q ** (prec - 1))


def _buckets(terms):
    """(sign, FqElem, exponent) terms grouped by the exponent's fractional
    part q, as (integer offset, sign, digit)."""
    out = {}
    for sign, d, e in terms:
        n = math.floor(e)
        out.setdefault(e - n, []).append((n, sign, d))
    return out


def _witt_sum(cfg, items, base, need):
    """sum(sign * [d] * p^(n - base)) mod p^need, as a coefficient vector."""
    p = cfg.p
    pk = p ** need
    acc = [0] * cfg.r
    for n, sign, d in items:
        if n - base >= need:
            continue
        lift = witt_lift(d, need - (n - base)).coeffs
        shift = p ** (n - base)
        acc = [(x + sign * y * shift) % pk for x, y in zip(acc, lift)]
    return acc


def padic_agrees(cfg, terms, cap, value) -> bool:
    """A standard expansion equals sum(sign * [d] * p^e) below cap.

    `terms` holds (sign, FqElem, exponent).  Both the terms and the digits of
    `value` are summed per fractional part of their exponents in Witt
    coordinates, with the oracle's own Teichmüller lifts (`witt_lift`), and
    the two sums must agree modulo the digits that lie at or above the cap.
    """
    if value.cap != cap or any(e >= cap for e, _ in value.digits):
        return False
    left = _buckets(terms)
    right = _buckets((1, d, e) for e, d in value.digits)
    for q in set(left) | set(right):
        items, digits = left.get(q, []), right.get(q, [])
        base = min(n for n, _, _ in items + digits)
        need = math.ceil(cap - q) - base
        if need > 0 and _witt_sum(cfg, items, base, need) != _witt_sum(cfg, digits, base, need):
            return False
    return True
