"""Every ParseError of the parsers and the CLI: its message and column.

Each row names a parsing entry point, an input and the error it raises.  The
same input then goes through `cli.run` by a verb that reads it with that
entry point, which must exit 2 with the single stderr line
`syntax error: <message> (col N)`.
"""

import io
from fractions import Fraction as Fr

import pytest
from hypothesis import example, given, settings, strategies as st

from hahnforge import parsing
from hahnforge.cli import run
from hahnforge.errors import ParseError
from hahnforge.exactnum import FqElem, PrimeConfig, _ResidueElem
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import PHahn, normalize
from hahnforge.parsing import (
    _fq_from_ast,
    format_series,
    parse_index_vec,
    parse_int_list,
    parse_ordinal,
    parse_poly,
    parse_rational,
    parse_series,
    poly_to_coeffs,
    series_to_eq,
    series_to_phahn,
    tokenize,
)
from hahnforge.series import INF

CFG = PrimeConfig.make(2)


def _verify_root(ring, poly="X", prefix="[1]"):
    return ["-p", "2", "verify-root", "--ring", ring, "--poly", poly,
            "--prefix", prefix, "--bound", "1"]


def _newton_solve(ring, poly):
    budget = ["--terms", "1"] if ring == "eq" else ["--cap", "1"]
    return ["-p", "2", "newton-solve", "--ring", ring, "--poly", poly] + budget


# entry point -> (library call on the text, CLI argv that parses the text)
ENTRIES = {
    "tokenize": (tokenize, lambda s: ["-p", "2", "val", s]),
    "series": (parse_series, lambda s: ["-p", "2", "val", s]),
    "rational": (parse_rational,
                 lambda s: ["-p", "2", "certificate-check", "1,0,1", "--cap", s]),
    "poly": (parse_poly, lambda s: _newton_solve("eq", s)),
    "ordinal": (parse_ordinal, lambda s: ["ordinal", "add", s, "1"]),
    "index": (parse_index_vec, lambda s: ["-p", "2", "reduce-index", s]),
    "int list": (parse_int_list,
                 lambda s: ["-p", "2", "certificate-check", "--cap", "1", "--", s]),
    "eq series": (lambda s: series_to_eq(parse_series(s), CFG),
                  lambda s: _verify_root("eq", prefix=s)),
    "padic series": (lambda s: series_to_phahn(parse_series(s), CFG),
                     lambda s: _verify_root("padic", prefix=s)),
    "eq poly": (lambda s: poly_to_coeffs(parse_poly(s), CFG, EqHahn),
                lambda s: _newton_solve("eq", s)),
    "padic poly": (lambda s: poly_to_coeffs(parse_poly(s), CFG, PHahn, Fr(4)),
                   lambda s: _newton_solve("padic", s)),
}

# a literal past CPython's default int-string limit of 4,300 digits
LONG_INT = "[" + "1" * 5000 + "]"

# (entry point, input, message, col)
ERRORS = [
    ("tokenize", "t $", "unexpected character '$'", 2),
    ("tokenize", "t^(\u00b2)", "unexpected character '\u00b2'", 3),
    ("tokenize", LONG_INT, "integer literal too long", 1),
    ("rational", "1/", "expected int, found None", 2),
    ("rational", "1 2", "trailing input at 2", 2),
    ("series", "t^(1/0)", "zero denominator", 3),
    ("series", "t^(1", "expected ), found None", 4),
    ("series", "t )", "trailing input at ')'", 2),
    ("series", "[+]", "expected coefficient or g", 1),
    ("series", "[1 + t", "expected coefficient or g", 5),
    ("series", "O(x^(1))", "cap base must be t or p", 2),
    ("series", "2*", "expected base after '*'", 2),
    ("series", "[1]*[g]", "expected base after '*'", 4),
    ("series", "+", "expected coefficient, base or cap", 0),
    ("series", "t + p", "mixed series bases in one expression", 4),
    ("eq series", "p^(1)", "equal-characteristic series use base t", 0),
    ("padic series", "t^(1)", "p-adic series use base p", 0),
    ("poly", "X*t + p", "mixed series bases", 6),
    ("poly", "2*[1]*X", "repeated coefficient factor", 2),
    ("poly", "X +", "expected polynomial term", 3),
    ("poly", "X^", "expected int, found None", 2),
    ("eq poly", "X^2-p", "equal-characteristic series use base t", 0),
    ("padic poly", "X^2-t", "p-adic series use base p", 0),
    ("ordinal", "w*0", "ordinal coefficients are positive", 2),
    ("ordinal", "w + t", "expected ordinal term", 4),
    ("ordinal", "w^(1", "expected ), found None", 4),
    ("index", "1,2", "expected (, found 1", 0),
    ("index", "(1,2", "expected ), found None", 4),
    ("index", "(1) 2", "trailing input at 2", 4),
    ("int list", "", "expected int, found None", 0),
    ("int list", "1,,1", "expected int, found ','", 2),
    ("int list", "1_0,1", "unexpected character '_'", 1),
    ("int list", "1,\u00b2", "unexpected character '\u00b2'", 2),
    ("int list", "+1,1", "expected int, found '+'", 0),
    ("int list", "1,1,", "expected int, found None", 4),
]

# errors only the CLI raises, all at col 0: (argv, message)
CLI_ERRORS = [
    (["-p", "2", "decompose", "t"], "decompose expects a p-adic series"),
    (["-p", "2", "add", "t", "p"], "operands use different bases"),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(""))
    return code, out.getvalue(), err.getvalue()


def _ids(rows):
    return [f"{entry}:{text if len(text) < 40 else f'{text[:8]}...({len(text)} chars)'}"
            for entry, text, *_ in rows]


@pytest.mark.parametrize("entry,text,message,col", ERRORS, ids=_ids(ERRORS))
def test_library_message_and_col(entry, text, message, col):
    with pytest.raises(ParseError) as info:
        ENTRIES[entry][0](text)
    assert (str(info.value), info.value.col) == (message, col)


@pytest.mark.parametrize("entry,text,message,col", ERRORS, ids=_ids(ERRORS))
def test_cli_syntax_error_line(entry, text, message, col):
    assert invoke(ENTRIES[entry][1](text)) == (
        2, "", f"syntax error: {message} (col {col})\n")


@pytest.mark.parametrize("argv,message", CLI_ERRORS,
                         ids=[m for _argv, m in CLI_ERRORS])
def test_cli_only_errors(argv, message):
    assert invoke(argv) == (2, "", f"syntax error: {message} (col 0)\n")


@pytest.mark.parametrize("ring,poly,prefix,message", [
    ("eq", "X^2-p", "t^(1/2)", "equal-characteristic series use base t"),
    ("padic", "X^2-t", "p^(1/2)", "p-adic series use base p"),
])
def test_verify_root_polynomial_base_must_match_ring(ring, poly, prefix, message):
    # newton-solve runs the same inputs through the "eq poly" and "padic poly"
    # rows of ERRORS; here the prefix has the ring's base
    assert invoke(_verify_root(ring, poly, prefix)) == (
        2, "", f"syntax error: {message} (col 0)\n")


@pytest.mark.parametrize("text,entries", [
    ("1,0,1", (1, 0, 1)), ("-1,1,-2", (-1, 1, -2)), ("1, 1", (1, 1)), ("7", (7,))])
def test_int_list_entries(text, entries):
    assert parse_int_list(text) == entries


def test_certificate_check_reads_negative_entries_after_dashes():
    by_list = invoke(["-p", "3", "certificate-check", "--cap", "2", "--", "-1,1,-1"])
    assert by_list[0] == 0 and by_list[2] == ""
    assert by_list == invoke(["-p", "3", "certificate-check", "--cap", "2", "--",
                              "-1, 1, -1"])


@pytest.mark.parametrize("ring", [EqHahn, PHahn])
def test_constant_polynomial_fits_either_ring(ring):
    coeffs = poly_to_coeffs(parse_poly("X^2 + X + 1"), CFG, ring, Fr(4))
    assert [c.is_exact_zero() for c in coeffs] == [False, False, False]


@pytest.mark.parametrize("ring,valuation", [("eq", "inf"), ("padic", "5")])
def test_constant_prefix_fits_either_ring(ring, valuation):
    # 1 is the exact root of X - 1: inf in t, the coefficient cap bound + 4 in p
    argv = ["-p", "3", "verify-root", "--ring", ring, "--poly", "X-1",
            "--prefix", "1", "--bound", "1"]
    assert invoke(argv) == (0, f"{valuation}\n", "")


@pytest.mark.parametrize("text,out", [("1", "[1]"), ("1 + 1", "0")])
def test_verb_series_without_base_stays_in_t(text, out):
    # at p = 2, 1 + 1 is 0 in t and [1]*p^(1) in p
    assert invoke(["-p", "2", "normalize", text]) == (0, f"{out}\n", "")


@pytest.mark.parametrize("p,r,body", [(2, 3, "g^5+g^3+1"), (3, 2, "g^5+g^3+1"),
                                      (3, 2, "2*g^4-g^2+g-g^4+2")])
def test_bracket_digit_is_one_field_reduction(monkeypatch, p, r, body):
    # g-powers >= r: summing by g-power and reducing once gives the sum of
    # the terms reduced one by one, as a reduced coefficient tuple; each
    # power g^k with k >= r is one square-and-multiply, and no field element
    # is built
    cfg = PrimeConfig.make(p, r)
    g = cfg.fq_gen()
    terms = parse_series(f"[{body}]")[2][0][1][1]
    want = cfg.fq(0)
    for coeff, gpow in terms:
        want = want + g ** gpow * coeff
    powers, built = [], []
    powmod, init = parsing._poly_powmod, _ResidueElem.__init__
    monkeypatch.setattr(parsing, "_poly_powmod",
                        lambda a, e, m, q: powers.append(e) or powmod(a, e, m, q))
    monkeypatch.setattr(FqElem, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    got = _fq_from_ast(cfg, terms)
    monkeypatch.undo()
    assert type(got) is tuple and got == want.coeffs
    assert powers == [gpow for _, gpow in terms if gpow >= r]
    assert built == []


@pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (5, 1)])
@pytest.mark.parametrize("k", [0, 1, "r", 10 ** 6, 10 ** 12])
def test_bracket_digit_power_is_reduced_by_squaring(p, r, k):
    # g^k needs O(log k) products mod m(g), not a list of k + 1 entries; at
    # r = 1 the generator is 0, so g^0 = 1 and every higher power is 0
    cfg = PrimeConfig.make(p, r)
    k = r if k == "r" else k
    terms = parse_series(f"[g^{k}]")[2][0][1][1]
    got = _fq_from_ast(cfg, terms)
    assert type(got) is tuple and got == (cfg.fq_gen() ** k).coeffs


@pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (5, 1)])
def test_bracket_digit_power_through_the_cli(p, r):
    want = PrimeConfig.make(p, r).fq_gen() ** 10 ** 12
    field = ["-p", str(p), "-r", str(r), "normalize"]
    got = invoke(field + ["[g^1000000000000]*p^(1)"])
    assert got == invoke(field + [f"[{want}]*p^(1)"])
    assert got[0] == 0 and (got[1] == "0\n") == (r == 1)


@pytest.mark.parametrize("argv,stdin", [
    (["-p", "2", "normalize", LONG_INT], ""),
    (["-p", "2", "normalize", "-"], f"[1]*p^(1)\n{LONG_INT}\n")],
    ids=["argument", "stdin batch"])
def test_long_int_literal_is_a_syntax_error(argv, stdin):
    # CPython's own int() error would end the call with exit 1; a batch
    # prints the lines before the bad one
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(stdin))
    assert (code, err.getvalue()) == (
        2, "syntax error: integer literal too long (col 1)\n")
    assert out.getvalue() == ("[1]*p^(1)\n" if stdin else "")


# ---------------------------------------------------------------------------
# the tokenizer's Unicode classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,tokens", [
    ("\u0663", [("int", 3, 0)]),              # ARABIC-INDIC DIGIT THREE
    ("1\u0663", [("int", 13, 0)]),
    ("\u00e9", [("name", "\u00e9", 0)]),      # LATIN SMALL LETTER E WITH ACUTE
    ("t\u00e9 2", [("name", "t\u00e9", 0), ("int", 2, 3)]),
    ("\u3000t", [("name", "t", 1)]),          # IDEOGRAPHIC SPACE
])
def test_tokenize_reads_unicode_digits_letters_and_spaces(text, tokens):
    assert tokenize(text) == tokens + [("end", None, len(text))]


@pytest.mark.parametrize("text,col", [("\u00b2", 0), ("\u00bd", 0), ("t\u00b2", 1),
                                      ("1\u00bd", 1), ("x_", 1)])
def test_tokenize_rejects_digits_that_are_not_decimal(text, col):
    # SUPERSCRIPT TWO is a digit and VULGAR FRACTION ONE HALF numeric, but
    # neither is a decimal digit or a letter; nor is an underscore
    with pytest.raises(ParseError) as info:
        tokenize(text)
    assert (str(info.value), info.value.col) == (
        f"unexpected character {text[col]!r}", col)


# ---------------------------------------------------------------------------
# the text path into the rings is on ints
# ---------------------------------------------------------------------------

# (converter, ring, text): the series and polynomial routes into each ring
CONVERSIONS = [
    (series_to_eq, EqHahn, "-[2*g+1]*t^(-3/2) + 2*t^(1/3) - [g^3]*t + 1 + O(t^(5))"),
    (series_to_phahn, PHahn, "-[2*g+1]*p^(-3/2) + 2*p^(1/3) - [g^3]*p + 1 + O(p^(5))"),
    (series_to_phahn, PHahn, "[1]*p^(-1/2) - [2]*p^(1/4) + 5"),
    (lambda ast, cfg: poly_to_coeffs(ast, cfg, EqHahn), EqHahn,
     "[g]*t^(-1/2)*X^2 - X + t^(-1/3) - 1"),
    (lambda ast, cfg, cap=Fr(3): poly_to_coeffs(ast, cfg, PHahn, cap), PHahn,
     "[g]*p^(-1/2)*X^2 - X + p^(-1/3) - 1"),
]


@pytest.mark.parametrize("convert,ring,text", CONVERSIONS,
                         ids=[f"{ring.__name__}:{text}" for _, ring, text in CONVERSIONS])
def test_conversion_builds_no_fqelem_and_no_fraction_exponent(monkeypatch, convert,
                                                             ring, text):
    """The AST's terms reach the ring's `_canonical` as one bag of
    ((k, coefficient tuple), int exponent) items per value, and the
    conversion builds no FqElem and no Fraction outside that hook."""
    cfg = PrimeConfig.make(3, 2)
    parse = parse_poly if "X" in text else parse_series
    ast = parse(text)
    want = convert(ast, cfg)
    built, fractions, bags = [], [], []
    init, new, canonical = _ResidueElem.__init__, Fr.__new__, ring._canonical

    def counting_canonical(cfg, bag, cap, den):
        # what the ring builds (lifts, say) is not the conversion's
        bags.append((len(built), len(fractions), bag, den))
        value = canonical(cfg, bag, cap, den)
        del built[bags[-1][0]:], fractions[bags[-1][1]:]
        return value

    monkeypatch.setattr(FqElem, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    monkeypatch.setattr(Fr, "__new__",
                        lambda cls, *a, **k: fractions.append(a) or new(cls, *a, **k))
    monkeypatch.setattr(ring, "_canonical", staticmethod(counting_canonical))
    got = convert(ast, cfg)
    monkeypatch.undo()
    assert got == want and bags
    assert (built, fractions) == ([], [])
    for _, _, bag, den in bags:
        assert type(den) is int and den > 0
        for (k, d), n in bag:
            assert type(k) is int and type(n) is int
            assert type(d) is tuple and len(d) == cfg.r
            assert all(type(x) is int and 0 <= x < cfg.p for x in d)
    if parse is parse_series:
        # the value of the (Fraction exponent, FqElem) route of the public
        # constructors: an int coefficient is an integer, a bracket a digit
        cap = INF if ast[3] is None else ast[3]
        coeffs = [(e, s * c[1] if c[0] == "int"
                   else (s, cfg.fq(_fq_from_ast(cfg, c[1]))))
                  for s, c, e in ast[2]]
        if ring is EqHahn:
            assert want == EqHahn(cfg, [(e, c if type(c) is int else c[1] * c[0])
                                        for e, c in coeffs], cap)
        else:
            assert want == normalize(cfg, [(c, e) for e, c in coeffs], cap)


# ---------------------------------------------------------------------------
# the index-based series parser against a cursor-object descent
# ---------------------------------------------------------------------------

class _Cursor:
    """The oracle's token cursor: one method call per token read."""

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


def _oracle_rat(cur):
    sign = -1 if cur.accept("punct", "-") else 1
    _, num, col = cur.expect("int")
    if cur.accept("punct", "/"):
        _, den, _ = cur.expect("int")
        if den == 0:
            raise ParseError("zero denominator", col=col, expected="nonzero")
        return Fr(sign * num, den)
    return Fr(sign * num)


def _oracle_fqpoly(cur):
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


def _oracle_coeff(cur):
    if cur.accept("punct", "["):
        body = _oracle_fqpoly(cur)
        cur.expect("punct", "]")
        return ("fq", body)
    tok = cur.peek()
    if tok[0] == "int":
        return ("int", cur.next()[1])
    return None


def _oracle_term(cur, base_seen):
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
        exp = _oracle_rat(cur)
        cur.expect("punct", ")")
        cur.expect("punct", ")")
        return ("cap", exp), base
    coeff = _oracle_coeff(cur)
    base = None
    exp = Fr(0)
    star = coeff is not None and cur.accept("punct", "*") is not None
    k, v, col = cur.peek()
    if k == "name" and v in ("t", "p"):
        cur.next()
        base = v
        exp = Fr(1)
        if cur.accept("punct", "^"):
            cur.expect("punct", "(")
            exp = _oracle_rat(cur)
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


def oracle_parse_series(text, default_base="t"):
    """The series grammar as a recursive descent over a cursor object."""
    cur = _Cursor(tokenize(text))
    terms, cap, base = [], None, None
    sign = -1 if cur.accept("punct", "-") else 1
    while True:
        node, b = _oracle_term(cur, base)
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


def _outcome(parse, text):
    try:
        return ("ast", parse(text))
    except ParseError as exc:
        return ("error", str(exc), exc.col, exc.expected)


_SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\u3000"])
_JUNK = st.lists(st.sampled_from(
    ["t", "p", "O", "g", "X", "w", "x", "[", "]", "(", ")", "^", "*", "+",
     "-", "/", ",", "0", "1", "2", "13", " ", "\u00e9", "\u0663"]),
    max_size=14).map("".join)
# (good spellings, flawed spellings) of each part of a term
_RATS = (["1", "-1", "0", "3/2", "-3/2", "2/4", "-1/9", "12", "1 / 3"],
         ["1/0", "", "1/", "-", "--1", "1/-2", "x"])
_COEFFS = (["2", "17", "0", "[1]", "[g^3+1]", "[2*g+1]", "[-g]", "[g-1]",
            "[1+-g]", "[2 g]", "[g^0]"],
           ["[+]", "[1", "[]", "[g^]", "[2*]", "[1]]", "[t]", "[2^3]", "[g*2]"])
_POWERS = (["", "^({})"], ["^", "^(", "^()", "^1", "^({}", "^(({}))"])


@st.composite
def series_texts(draw):
    """Series texts near the grammar: signed terms and caps in one base, a
    part now and then flawed or in the other base, with random whitespace
    between the parts; or tokens in no order."""
    if draw(st.integers(0, 4)) == 0:
        return draw(_JUNK)

    def pick(spellings, flaw=8):
        good, bad = spellings
        return draw(st.sampled_from(bad if draw(st.integers(1, flaw)) == flaw else good))

    base = draw(st.sampled_from("tp"))
    parts = [pick(([""] * 3 + ["-"], ["+", "--", "*", "-*"]))]
    for n in range(draw(st.integers(1, 4))):
        if n:
            parts.append(pick((["+", "-"], ["", "+-", "*"])))
        b = pick(([base], ["tp"[base == "t"], "x", "O"]), flaw=12)
        if draw(st.integers(0, 4)) == 0:
            parts += ["O", "(", b, "^", "(", pick(_RATS), ")", ")"]
            continue
        coeff = draw(st.sampled_from(["", "", "x"])) or pick(_COEFFS)
        if coeff == "x":  # a constant term
            parts.append(pick(_COEFFS))
            continue
        if coeff:
            parts += [coeff, pick((["*", ""], ["**", "*["]))]
        parts += [b, pick(_POWERS).format(pick(_RATS))]
    return "".join(draw(_SPACE) + part for part in parts) + draw(_SPACE)


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(series_texts())
@example("t + p^(1/0)").via("a base error after the term's own error")
@example("- O(t^(1)) + [2^3]").via("a cap takes no sign; ^ after a plain int")
def test_series_parser_matches_cursor_oracle(text):
    assert _outcome(parse_series, text) == _outcome(oracle_parse_series, text)


def _token_texts(text):
    return [str(v) for kind, v, _ in tokenize(text) if kind != "end"]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([(2, 1), (3, 2), (5, 2)]), st.sampled_from("tp"), st.data())
def test_canonical_forms_parse_as_the_oracle_parses_them(field, base, data):
    # a value's canonical text, and the same with random whitespace between
    # its tokens; a p-adic value is capped, since most digits have no
    # integer lift
    cfg = PrimeConfig.make(*field)
    terms = data.draw(st.lists(st.tuples(
        st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 9]),
        st.tuples(*[st.integers(0, cfg.p - 1)] * cfg.r)), max_size=5))
    caps = st.integers(-5, 40).map(lambda n: Fr(n, 3))
    if base == "t":
        cap = data.draw(st.one_of(st.just(INF), caps))
        value = EqHahn(cfg, [(Fr(n, d), c) for n, d, c in terms], cap)
    else:
        value = normalize(cfg, [((1, c), Fr(n, d)) for n, d, c in terms],
                          data.draw(caps))
    text = format_series(value, base)
    spaced = "".join(tok + data.draw(_SPACE) for tok in _token_texts(text))
    for t in (text, spaced):
        got = _outcome(parse_series, t)
        assert got == _outcome(oracle_parse_series, t) and got[0] == "ast"
