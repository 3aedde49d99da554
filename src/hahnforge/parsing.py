"""Concrete syntax: tokenizer, parsers and canonical printers.

Grammar (series expressions):

    expr   := term (('+'|'-') term)*
    term   := coeff '*'? base ('^' '(' rat ')')? | coeff | cap
    coeff  := '[' fqpoly ']' | int
    base   := 't' | 'p'
    cap    := 'O' '(' base '^' '(' rat ')' ')'
    rat    := int ('/' int)?

Rationals in exponents are always parenthesized and a leading '-' binds to
the rational, not to the term.  Polynomial expressions extend `term` with
X-power factors; ordinals use `w` for the first infinite ordinal; index
vectors are comma-separated naturals in parentheses.

Printers emit one canonical spelling per value (coefficients bracketed,
exponents parenthesized, terms sorted), so print-then-parse is the identity
on canonical forms and parse-then-print is the identity on ASTs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ParseError
from .exactnum import FqElem, _poly_powmod
from .hahn_eqchar import EqHahn
from .hahn_padic import PHahn, normalize
from .indexcomb import index_vec
from .ordinal import MAX_EXPONENT_DEPTH, ZERO, Ordinal
from .series import INF

__all__ = [
    "tokenize",
    "parse_series",
    "parse_poly",
    "parse_ordinal",
    "parse_index_vec",
    "parse_int_list",
    "parse_rational",
    "format_series",
    "printed_terms",
    "format_ast",
    "format_rational",
    "series_to_eq",
    "series_to_phahn",
    "poly_to_coeffs",
]


# ---------------------------------------------------------------------------
# tokens
# ---------------------------------------------------------------------------

_PUNCT = set("^*+-/()[],")


def tokenize(text: str):
    """(kind, value, col) triples; kind in {'int', 'name', 'punct', 'end'}."""
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j], i))
            i = j
        elif ch in _PUNCT:
            out.append(("punct", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", col=i,
                             expected="token")
    out.append(("end", None, n))
    return out


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, value=None):
        k, v, col = self.peek()
        if k != kind or (value is not None and v != value):
            raise ParseError(
                f"expected {value or kind}, found {v!r}", col=col,
                expected=value or kind)
        return self.next()

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            return self.next()
        return None

    def done(self):
        k, v, col = self.peek()
        if k != "end":
            raise ParseError(f"trailing input at {v!r}", col=col,
                             expected="end of input")


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

def _parse_rat(cur) -> Fraction:
    sign = -1 if cur.accept("punct", "-") else 1
    _, num, col = cur.expect("int")
    if cur.accept("punct", "/"):
        _, den, _ = cur.expect("int")
        if den == 0:
            raise ParseError("zero denominator", col=col, expected="nonzero")
        return Fraction(sign * num, den)
    return Fraction(sign * num)


def parse_rational(text: str) -> Fraction:
    cur = _Cursor(tokenize(text))
    value = _parse_rat(cur)
    cur.done()
    return value


def format_rational(x) -> str:
    """`a/b` in lowest terms, `a` for an integer, `inf` for INF."""
    # no Fraction is built or compared per printed term
    if isinstance(x, float) and x == INF:
        return "inf"
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# residue-field coefficients
# ---------------------------------------------------------------------------

def _parse_fqpoly(cur):
    """Bracket body: sum of c, g, c*g, g^k, c*g^k; returns ((coeff, gpow), ...)."""
    terms = []
    while True:
        sign = -1 if cur.accept("punct", "-") else 1
        tok = cur.peek()
        coeff, gpow = 1, 0
        if tok[0] == "int":
            coeff = cur.next()[1]
            if cur.accept("punct", "*"):
                cur.expect("name", "g")
                gpow = 1
            elif cur.accept("name", "g"):
                gpow = 1
        elif tok[0] == "name" and tok[1] == "g":
            cur.next()
            gpow = 1
        else:
            raise ParseError("expected coefficient or g", col=tok[2],
                             expected="int or g")
        if gpow and cur.accept("punct", "^"):
            _, gpow, _ = cur.expect("int")
        terms.append((sign * coeff, gpow))
        if not cur.accept("punct", "+"):
            nxt = cur.peek()
            if nxt[0] == "punct" and nxt[1] == "-":
                continue
            break
    return tuple(terms)


def _fq_from_ast(cfg, terms):
    """The bracket's terms summed by g-power; a power g^k with k >= r is
    reduced mod m(g) by square-and-multiply, in O(log k) products."""
    poly = [0] * cfg.r
    for coeff, gpow in terms:
        if gpow < cfg.r:
            poly[gpow] += coeff
        else:
            for i, x in enumerate(_poly_powmod([0, 1], gpow, cfg.modulus, cfg.p)):
                poly[i] += coeff * x
    return cfg.fq(poly)


# ---------------------------------------------------------------------------
# series expressions
# ---------------------------------------------------------------------------

def _parse_coeff(cur):
    if cur.accept("punct", "["):
        body = _parse_fqpoly(cur)
        cur.expect("punct", "]")
        return ("fq", body)
    tok = cur.peek()
    if tok[0] == "int":
        return ("int", cur.next()[1])
    return None


def _parse_series_term(cur, base_seen):
    """One term; returns ('term', sign, coeff, exp) or ('cap', exp), plus base."""
    k, v, col = cur.peek()
    if k == "name" and v == "O":
        cur.next()
        cur.expect("punct", "(")
        _, base, bcol = cur.expect("name")
        if base not in ("t", "p"):
            raise ParseError("cap base must be t or p", col=bcol,
                             expected="t or p")
        cur.expect("punct", "^")
        cur.expect("punct", "(")
        exp = _parse_rat(cur)
        cur.expect("punct", ")")
        cur.expect("punct", ")")
        return ("cap", exp), base
    coeff = _parse_coeff(cur)
    base = None
    exp = Fraction(0)
    star = coeff is not None and cur.accept("punct", "*") is not None
    k, v, col = cur.peek()
    if k == "name" and v in ("t", "p"):
        cur.next()
        base = v
        exp = Fraction(1)
        if cur.accept("punct", "^"):
            cur.expect("punct", "(")
            exp = _parse_rat(cur)
            cur.expect("punct", ")")
    elif star:
        raise ParseError("expected base after '*'", col=col, expected="t or p")
    elif coeff is None:
        raise ParseError("expected coefficient, base or cap", col=col,
                         expected="term")
    if coeff is None:
        coeff = ("int", 1)
    if base_seen is not None and base is not None and base != base_seen:
        raise ParseError("mixed series bases in one expression", col=col,
                         expected=base_seen)
    return ("term", coeff, exp), base


def parse_series(text: str, default_base: str = "t"):
    """AST ('series', base, terms, cap) with terms ((sign, coeff, exp), ...).

    A series with no base written (constants only) gets default_base.
    """
    cur = _Cursor(tokenize(text))
    terms = []
    cap = None
    base = None
    sign = -1 if cur.accept("punct", "-") else 1
    while True:
        node, b = _parse_series_term(cur, base)
        if base is None and b is not None:
            base = b
        if node[0] == "cap":
            cap = node[1]
        else:
            _, coeff, exp = node
            terms.append((sign, coeff, exp))
        if cur.accept("punct", "+"):
            sign = 1
        elif cur.accept("punct", "-"):
            sign = -1
        else:
            break
    cur.done()
    return ("series", base or default_base, tuple(terms), cap)


def _eq_coeff(cfg, sign, coeff):
    """A parsed signed coefficient as an F_q element."""
    if coeff[0] == "int":
        return cfg.fq(sign * coeff[1])
    c = _fq_from_ast(cfg, coeff[1])
    return -c if sign < 0 else c


def _padic_coeff(cfg, sign, coeff):
    """A parsed signed coefficient as a normalize bag coefficient."""
    return sign * coeff[1] if coeff[0] == "int" else (sign, _fq_from_ast(cfg, coeff[1]))


# the series base of each ring, and the error for any other base
_RING_BASES = {EqHahn: ("t", "equal-characteristic series use base t"),
               PHahn: ("p", "p-adic series use base p")}


def _check_base(base, ring):
    """Reject a base other than the ring's; None (no base written) passes."""
    want, message = _RING_BASES[ring]
    if base is not None and base != want:
        raise ParseError(message)


def series_to_eq(ast, cfg) -> EqHahn:
    _, base, terms, cap = ast
    _check_base(base, EqHahn)
    bag = [(exp, _eq_coeff(cfg, sign, coeff)) for sign, coeff, exp in terms]
    return EqHahn(cfg, bag, INF if cap is None else cap)


def series_to_phahn(ast, cfg) -> PHahn:
    _, base, terms, cap = ast
    _check_base(base, PHahn)
    bag = [(_padic_coeff(cfg, sign, coeff), exp) for sign, coeff, exp in terms]
    return normalize(cfg, bag, INF if cap is None else cap)


def printed_terms(value):
    """(numerator, denominator, coefficient text) of each term of a series
    in lowest terms: one gcd per term, one str per distinct coefficient."""
    den, text = value.den, {}
    for n, c in value.ints:
        s = text.get(c)
        if s is None:
            s = text[c] = str(FqElem(value.cfg, c))
        g = math.gcd(n, den)
        yield n // g, den // g, s


def format_series(value, base: str) -> str:
    """Canonical text for an EqHahn or PHahn value."""
    parts = []
    for num, den, c in printed_terms(value):
        exp = num if den == 1 else f"{num}/{den}"
        parts.append(f"[{c}]*{base}^({exp})" if num else f"[{c}]")
    if not value.is_exact():
        parts.append(f"O({base}^({format_rational(value.cap)}))")
    return " + ".join(parts) if parts else "0"


def format_ast(ast) -> str:
    """Canonical text for a series AST (used by the round-trip fuzz)."""
    _, base, terms, cap = ast
    parts = []
    for sign, coeff, exp in terms:
        if coeff[0] == "int":
            body = str(coeff[1])
        else:
            chunks = []
            for c, gpow in coeff[1]:
                if gpow == 0:
                    chunks.append(str(c))
                elif gpow == 1:
                    chunks.append("g" if c == 1 else f"{c}*g")
                else:
                    chunks.append(f"g^{gpow}" if c == 1 else f"{c}*g^{gpow}")
            body = "[" + "+".join(chunks) + "]"
        if exp == 0:
            term = body
        elif exp == 1:
            term = f"{body}*{base}"
        else:
            term = f"{body}*{base}^({format_rational(exp)})"
        parts.append(("- " if sign < 0 else "+ ") + term)
    if cap is not None:
        parts.append(f"+ O({base}^({format_rational(cap)}))")
    if not parts:
        return "0"
    head = parts[0]
    head = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([head] + parts[1:])


# ---------------------------------------------------------------------------
# polynomials in X over series
# ---------------------------------------------------------------------------

def parse_poly(text: str):
    """AST ('poly', base, pterms) with pterms ((sign, coeff, exp, xpow), ...)."""
    cur = _Cursor(tokenize(text))
    pterms = []
    base = None
    sign = -1 if cur.accept("punct", "-") else 1
    while True:
        coeff = None
        exp = Fraction(0)
        xpow = 0
        saw_factor = False
        while True:
            k, v, col = cur.peek()
            if k == "name" and v == "X":
                cur.next()
                power = 1
                if cur.accept("punct", "^"):
                    _, power, _ = cur.expect("int")
                xpow += power
                saw_factor = True
            elif k == "name" and v in ("t", "p"):
                if base is not None and v != base:
                    raise ParseError("mixed series bases", col=col,
                                     expected=base)
                base = v
                cur.next()
                e = Fraction(1)
                if cur.accept("punct", "^"):
                    cur.expect("punct", "(")
                    e = _parse_rat(cur)
                    cur.expect("punct", ")")
                exp += e
                saw_factor = True
            else:
                c = _parse_coeff(cur)
                if c is None:
                    break
                if coeff is None:
                    coeff = c
                elif coeff[0] == "int" and c[0] == "int":
                    coeff = ("int", coeff[1] * c[1])
                else:
                    raise ParseError("repeated coefficient factor", col=col,
                                     expected="single coefficient")
                saw_factor = True
            if not cur.accept("punct", "*"):
                k, v, _ = cur.peek()
                if k == "name" and v in ("X", "t", "p"):
                    continue
                break
        if not saw_factor:
            k, v, col = cur.peek()
            raise ParseError("expected polynomial term", col=col,
                             expected="term")
        pterms.append((sign, coeff or ("int", 1), exp, xpow))
        if cur.accept("punct", "+"):
            sign = 1
        elif cur.accept("punct", "-"):
            sign = -1
        else:
            break
    cur.done()
    return ("poly", base, tuple(pterms))


def poly_to_coeffs(ast, cfg, ring, coeff_cap=INF):
    """Materialize a poly AST as a coefficient list over the requested ring.

    A polynomial written in the other ring's base is a ParseError; one with
    constant coefficients only (base None) fits either ring.
    """
    _, base, pterms = ast
    _check_base(base, ring)
    degree = max(x for *_r, x in pterms)
    if ring is EqHahn:
        coeffs = [EqHahn.zero(cfg) for _ in range(degree + 1)]
        for sign, coeff, exp, xpow in pterms:
            term = EqHahn(cfg, [(exp, _eq_coeff(cfg, sign, coeff))], INF)
            coeffs[xpow] = coeffs[xpow] + term
        return coeffs
    bags = [[] for _ in range(degree + 1)]
    for sign, coeff, exp, xpow in pterms:
        bags[xpow].append((_padic_coeff(cfg, sign, coeff), exp))
    return [normalize(cfg, bag, coeff_cap) for bag in bags]


# ---------------------------------------------------------------------------
# ordinals and index vectors
# ---------------------------------------------------------------------------

def _depth_error():
    return ValueError(f"ordinal exponent depth exceeds {MAX_EXPONENT_DEPTH}")


def _parse_ordinal_expr(cur, nesting) -> Ordinal:
    if nesting > MAX_EXPONENT_DEPTH:
        raise _depth_error()
    total = ZERO
    while True:
        k, v, col = cur.peek()
        if k == "int":
            term = Ordinal.from_int(cur.next()[1])
        elif k == "name" and v == "w":
            cur.next()
            exp = Ordinal.from_int(1)
            if cur.accept("punct", "^"):
                cur.expect("punct", "(")
                exp = _parse_ordinal_expr(cur, nesting + 1)
                cur.expect("punct", ")")
            coeff = 1
            if cur.accept("punct", "*"):
                _, coeff, ccol = cur.expect("int")
                if coeff < 1:
                    raise ParseError("ordinal coefficients are positive",
                                     col=ccol, expected="positive int")
            term = Ordinal(((exp, coeff),))
        else:
            raise ParseError("expected ordinal term", col=col,
                             expected="w or int")
        total = total + term
        if not cur.accept("punct", "+"):
            return total


def parse_ordinal(text: str) -> Ordinal:
    """Ordinal in w-notation; ValueError past MAX_EXPONENT_DEPTH.

    Deeper exponents are rejected while parsing, before they can exhaust the
    interpreter's recursion limit.
    """
    cur = _Cursor(tokenize(text))
    value = _parse_ordinal_expr(cur, 0)
    cur.done()
    if value.depth() > MAX_EXPONENT_DEPTH:
        raise _depth_error()
    return value


def parse_index_vec(text: str) -> tuple:
    cur = _Cursor(tokenize(text))
    cur.expect("punct", "(")
    entries = []
    while not cur.accept("punct", ")"):
        _, n, _ = cur.expect("int")
        entries.append(n)
        if not cur.accept("punct", ","):
            cur.expect("punct", ")")
            break
    cur.done()
    return index_vec(entries)


def parse_int_list(text: str) -> tuple:
    """Comma separated ints, each an optional '-' and digits: `1,-2,0`."""
    cur = _Cursor(tokenize(text))
    entries = []
    while True:
        sign = -1 if cur.accept("punct", "-") else 1
        _, n, _ = cur.expect("int")
        entries.append(sign * n)
        if not cur.accept("punct", ","):
            break
    cur.done()
    return tuple(entries)


def format_index_vec(vec) -> str:
    return "(" + ",".join(str(v) for v in vec) + ")"
