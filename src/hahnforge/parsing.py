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

Every grammar reads the one `tokenize` list by index, in plain functions of
(toks, i) that return what they read and the next index; a token's value
alone tells its kind (punct and names are distinct strings, ints are ints,
the end is None).  An AST keeps Fraction exponents and enters a ring as sums
and products do (see series): one raw bag of ((k, coefficient tuple), int
exponent) items over the lcm of its exponent denominators, handed to the
ring's `_canonical`, with no FqElem built.

Printers emit one canonical spelling per value (coefficients bracketed,
exponents parenthesized, terms sorted), so print-then-parse is the identity
on canonical forms and parse-then-print is the identity on ASTs.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _OnFirstUse
from .errors import ParseError
from .exactnum import FqElem, _poly_powmod

# bound on first use: reading an ordinal loads no ring, nor reading a series
# the index or ordinal machinery
hahn_eqchar, hahn_padic, indexcomb, ordinal = (
    _OnFirstUse(globals(), name) for name in
    ("hahn_eqchar", "hahn_padic", "indexcomb", "ordinal"))

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

_PUNCT = frozenset("^*+-/()[],")


def tokenize(text: str):
    """(kind, value, col) triples; kind in {'int', 'name', 'punct', 'end'}.

    An int is a run of Unicode decimal digits, a name a run of letters; an
    int past sys.get_int_max_str_digits() is a ParseError at its column.
    """
    out = []
    append = out.append
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in _PUNCT:
            append(("punct", ch, i))
            i += 1
        elif ch == " " or ch.isspace():
            i += 1
        elif ch.isdecimal():
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            try:
                append(("int", int(text[i:j]), i))
            except ValueError:
                raise ParseError("integer literal too long", col=i,
                                 expected="int") from None
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and text[j].isalpha():
                j += 1
            append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", col=i,
                             expected="token")
    append(("end", None, n))
    return out


def _fail(toks, i, want):
    """The ParseError for token i where `want` was expected."""
    _, v, col = toks[i]
    return ParseError(f"expected {want}, found {v!r}", col=col, expected=want)


def _skip(toks, i, value):
    """The index after token i, which must be the punct or name `value`."""
    if toks[i][1] != value:
        raise _fail(toks, i, value)
    return i + 1


def _int(toks, i):
    """(value, i + 1) of the int token i."""
    kind, v, _ = toks[i]
    if kind != "int":
        raise _fail(toks, i, "int")
    return v, i + 1


def _minus(toks, i):
    """(-1, i + 1) after a '-' at token i, else (1, i)."""
    return (-1, i + 1) if toks[i][1] == "-" else (1, i)


def _end(toks, i):
    """Token i must end the input."""
    kind, v, col = toks[i]
    if kind != "end":
        raise ParseError(f"trailing input at {v!r}", col=col,
                         expected="end of input")


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

_ZERO, _ONE = Fraction(0), Fraction(1)


def _rat(toks, i):
    """(Fraction, next index) of rat, after an optional '-'."""
    sign, i = _minus(toks, i)
    num, j = _int(toks, i)
    if toks[j][1] != "/":
        return Fraction(sign * num), j
    den, j = _int(toks, j + 1)
    if den == 0:
        raise ParseError("zero denominator", col=toks[i][2], expected="nonzero")
    return Fraction(sign * num, den), j


def parse_rational(text: str) -> Fraction:
    toks = tokenize(text)
    value, i = _rat(toks, 0)
    _end(toks, i)
    return value


def format_rational(x) -> str:
    """`a/b` in lowest terms, `a` for an integer, `inf` for INF."""
    # no Fraction is built or compared per printed term
    if isinstance(x, float) and x == math.inf:
        return "inf"
    num, den = x.as_integer_ratio()
    return str(num) if den == 1 else f"{num}/{den}"


# ---------------------------------------------------------------------------
# residue-field coefficients
# ---------------------------------------------------------------------------

def _fqpoly(toks, i):
    """(((coeff, gpow), ...), next index) of a bracket body: a sum of c, g,
    c*g, g^k and c*g^k."""
    terms = []
    while True:
        sign, i = _minus(toks, i)
        kind, v, col = toks[i]
        coeff, gpow = 1, 0
        if kind == "int":
            coeff, i = v, i + 1
            if toks[i][1] == "*":
                i, gpow = _skip(toks, i + 1, "g"), 1
            elif toks[i][1] == "g":
                i, gpow = i + 1, 1
        elif v == "g":
            i, gpow = i + 1, 1
        else:
            raise ParseError("expected coefficient or g", col=col,
                             expected="int or g")
        if gpow and toks[i][1] == "^":
            gpow, i = _int(toks, i + 1)
        terms.append((sign * coeff, gpow))
        v = toks[i][1]
        if v == "+":
            i += 1
        elif v != "-":
            return tuple(terms), i


def _fq_from_ast(cfg, terms):
    """The bracket's terms summed by g-power as a reduced coefficient tuple;
    a power g^k with k >= r is reduced mod m(g) by square-and-multiply, in
    O(log k) products."""
    poly = [0] * cfg.r
    for coeff, gpow in terms:
        if gpow < cfg.r:
            poly[gpow] += coeff
        else:
            for i, x in enumerate(_poly_powmod([0, 1], gpow, cfg.modulus, cfg.p)):
                poly[i] += coeff * x
    return tuple([x % cfg.p for x in poly])


# ---------------------------------------------------------------------------
# series expressions
# ---------------------------------------------------------------------------

_INT_ONE = ("int", 1)
_SIGNS = {"+": 1, "-": -1}


def _coeff(toks, i):
    """(coefficient or None, next index): ('fq', body) or ('int', n)."""
    kind, v, _ = toks[i]
    if v == "[":
        body, i = _fqpoly(toks, i + 1)
        return ("fq", body), _skip(toks, i, "]")
    if kind == "int":
        return ("int", v), i + 1
    return None, i


def _power(toks, i):
    """(exponent, next index) of the base at token i: ^(rat), or 1."""
    if toks[i + 1][1] != "^":
        return _ONE, i + 1
    exp, i = _rat(toks, _skip(toks, i + 2, "("))
    return exp, _skip(toks, i, ")")


def parse_series(text: str, default_base: str = "t"):
    """AST ('series', base, terms, cap) with terms ((sign, coeff, exp), ...).

    A series with no base written (constants only) gets default_base.  A
    cap takes no sign, and only terms must agree on the base.
    """
    toks = tokenize(text)
    terms, cap, base = [], None, None
    sign, i = _minus(toks, 0)
    while True:
        if toks[i][1] == "O":
            i = _skip(toks, i + 1, "(")
            kind, b, col = toks[i]
            if kind != "name":
                raise _fail(toks, i, "name")
            if b != "t" and b != "p":
                raise ParseError("cap base must be t or p", col=col,
                                 expected="t or p")
            cap, i = _rat(toks, _skip(toks, _skip(toks, i + 1, "^"), "("))
            i = _skip(toks, _skip(toks, i, ")"), ")")
            base = base or b
        else:
            coeff, i = _coeff(toks, i)
            star = toks[i][1] == "*" and coeff is not None
            _, v, col = toks[i + star]
            i += star
            if v == "t" or v == "p":
                exp, i = _power(toks, i)
                if base is not None and v != base:
                    raise ParseError("mixed series bases in one expression",
                                     col=col, expected=base)
                base = v
            elif star:
                raise ParseError("expected base after '*'", col=col,
                                 expected="t or p")
            elif coeff is None:
                raise ParseError("expected coefficient, base or cap", col=col,
                                 expected="term")
            else:
                exp = _ZERO
            terms.append((sign, coeff or _INT_ONE, exp))
        sign = _SIGNS.get(toks[i][1])
        if sign is None:
            break
        i += 1
    _end(toks, i)
    return ("series", base or default_base, tuple(terms), cap)


# the error for a base other than the ring's, by the ring's base
_BASE_ERRORS = {"t": "equal-characteristic series use base t",
                "p": "p-adic series use base p"}


def _check_base(base, ring):
    """Reject a base other than the ring's; None (no base written) passes."""
    if base is not None and base != ring.BASE:
        raise ParseError(_BASE_ERRORS[ring.BASE])


def _int_bag(cfg, terms):
    """(den, bag) of signed AST terms (sign, coeff, exp): den is the lcm of
    the exponent denominators, and each term is one bag item ((k, coefficient
    tuple), n) for k times the tuple at the exponent n/den."""
    den = math.lcm(*[exp.denominator for _, _, exp in terms])
    one = (1,) + (0,) * (cfg.r - 1)
    return den, [
        ((sign * coeff[1], one) if coeff[0] == "int"
         else (sign, _fq_from_ast(cfg, coeff[1])),
         exp.numerator * (den // exp.denominator))
        for sign, coeff, exp in terms]


def _series_to(ast, cfg, ring):
    _, base, terms, cap = ast
    _check_base(base, ring)
    den, bag = _int_bag(cfg, terms)
    return ring._canonical(cfg, bag, math.inf if cap is None else cap, den)


def series_to_eq(ast, cfg) -> hahn_eqchar.EqHahn:
    return _series_to(ast, cfg, hahn_eqchar.EqHahn)


def series_to_phahn(ast, cfg) -> hahn_padic.PHahn:
    return _series_to(ast, cfg, hahn_padic.PHahn)


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
        parts.append(f"[{c}]" if not num else f"[{c}]*{base}^({num})" if den == 1
                     else f"[{c}]*{base}^({num}/{den})")
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
    toks = tokenize(text)
    pterms, base = [], None
    sign, i = _minus(toks, 0)
    while True:
        coeff, exp, xpow, saw_factor = None, _ZERO, 0, False
        while True:
            _, v, col = toks[i]
            if v == "X":
                power, i = (_int(toks, i + 2) if toks[i + 1][1] == "^"
                            else (1, i + 1))
                xpow += power
            elif v == "t" or v == "p":
                if base is not None and v != base:
                    raise ParseError("mixed series bases", col=col,
                                     expected=base)
                base = v
                e, i = _power(toks, i)
                exp += e
            else:
                c, i = _coeff(toks, i)
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
            v = toks[i][1]
            if v == "*":
                i += 1
            elif v != "X" and v != "t" and v != "p":
                break
        if not saw_factor:
            raise ParseError("expected polynomial term", col=toks[i][2],
                             expected="term")
        pterms.append((sign, coeff or _INT_ONE, exp, xpow))
        sign = _SIGNS.get(toks[i][1])
        if sign is None:
            break
        i += 1
    _end(toks, i)
    return ("poly", base, tuple(pterms))


def poly_to_coeffs(ast, cfg, ring, coeff_cap=math.inf):
    """Materialize a poly AST as a coefficient list over the requested ring,
    one int bag per X-power; coeff_cap caps only p-adic coefficients.

    A polynomial written in the other ring's base is a ParseError; one with
    constant coefficients only (base None) fits either ring.
    """
    _, base, pterms = ast
    _check_base(base, ring)
    den, items = _int_bag(cfg, [t[:3] for t in pterms])
    bags = [[] for _ in range(max(t[3] for t in pterms) + 1)]
    for item, t in zip(items, pterms):
        bags[t[3]].append(item)
    cap = coeff_cap if ring.BASE == "p" else math.inf
    return [ring._canonical(cfg, bag, cap, den) for bag in bags]


# ---------------------------------------------------------------------------
# ordinals and index vectors
# ---------------------------------------------------------------------------

def _depth_error():
    return ValueError(f"ordinal exponent depth exceeds {ordinal.MAX_EXPONENT_DEPTH}")


def _ordinal(toks, i, nesting):
    """(ordinal, next index) of a sum of ints and w-terms w^(expr)*c."""
    if nesting > ordinal.MAX_EXPONENT_DEPTH:
        raise _depth_error()
    total, Ordinal = ordinal.ZERO, ordinal.Ordinal
    while True:
        kind, v, col = toks[i]
        if kind == "int":
            term, i = Ordinal.from_int(v), i + 1
        elif v == "w":
            exp, i = Ordinal.from_int(1), i + 1
            if toks[i][1] == "^":
                exp, i = _ordinal(toks, _skip(toks, i + 1, "("), nesting + 1)
                i = _skip(toks, i, ")")
            coeff = 1
            if toks[i][1] == "*":
                coeff, i = _int(toks, i + 1)
                if coeff < 1:
                    raise ParseError("ordinal coefficients are positive",
                                     col=toks[i - 1][2], expected="positive int")
            term = Ordinal(((exp, coeff),))
        else:
            raise ParseError("expected ordinal term", col=col,
                             expected="w or int")
        total = total + term
        if toks[i][1] != "+":
            return total, i
        i += 1


def parse_ordinal(text: str) -> ordinal.Ordinal:
    """Ordinal in w-notation; ValueError past MAX_EXPONENT_DEPTH.

    Deeper exponents are rejected while parsing, before they can exhaust the
    interpreter's recursion limit.
    """
    toks = tokenize(text)
    value, i = _ordinal(toks, 0, 0)
    _end(toks, i)
    if value.depth() > ordinal.MAX_EXPONENT_DEPTH:
        raise _depth_error()
    return value


def parse_index_vec(text: str) -> tuple:
    toks = tokenize(text)
    i, entries = _skip(toks, 0, "("), []
    while toks[i][1] != ")":
        n, i = _int(toks, i)
        entries.append(n)
        if toks[i][1] != ",":
            break
        i += 1
    _end(toks, _skip(toks, i, ")"))
    return indexcomb.index_vec(entries)


def parse_int_list(text: str) -> tuple:
    """Comma separated ints, each an optional '-' and digits: `1,-2,0`."""
    toks = tokenize(text)
    i, entries = 0, []
    while True:
        sign, i = _minus(toks, i)
        n, i = _int(toks, i)
        entries.append(sign * n)
        if toks[i][1] != ",":
            break
        i += 1
    _end(toks, i)
    return tuple(entries)


def format_index_vec(vec) -> str:
    return "(" + ",".join(str(v) for v in vec) + ")"
