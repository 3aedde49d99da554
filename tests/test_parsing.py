"""Every ParseError of the parsers and the CLI: its message and column.

Each row names a parsing entry point, an input and the error it raises.  The
same input then goes through `cli.run` by a verb that reads it with that
entry point, which must exit 2 with the single stderr line
`syntax error: <message> (col N)`.
"""

import io
from fractions import Fraction as Fr

import pytest

from hahnforge.cli import run
from hahnforge.errors import ParseError
from hahnforge.exactnum import PrimeConfig
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import PHahn
from hahnforge.parsing import (
    _fq_from_ast,
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

# (entry point, input, message, col)
ERRORS = [
    ("tokenize", "t $", "unexpected character '$'", 2),
    ("tokenize", "t^(\u00b2)", "unexpected character '\u00b2'", 3),
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
    (["-p", "2", "newton-solve", "--ring", "eq", "--poly", "X"],
     "--terms is required for --ring eq"),
    (["-p", "2", "newton-solve", "--ring", "padic", "--poly", "X"],
     "--cap is required for --ring padic"),
    (["-p", "2", "add", "t", "p"], "operands use different bases"),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(""))
    return code, out.getvalue(), err.getvalue()


def _ids(rows):
    return [f"{row[0]}:{row[1]}" for row in rows]


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
    # the terms reduced one by one
    cfg = PrimeConfig.make(p, r)
    g = cfg.fq_gen()
    terms = parse_series(f"[{body}]")[2][0][1][1]
    want = cfg.fq(0)
    for coeff, gpow in terms:
        want = want + g ** gpow * coeff
    calls = []
    fq = PrimeConfig.fq
    monkeypatch.setattr(PrimeConfig, "fq",
                        lambda self, v: calls.append(v) or fq(self, v))
    assert _fq_from_ast(cfg, terms) == want
    assert len(calls) == 1


@pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (5, 1)])
@pytest.mark.parametrize("k", [0, 1, "r", 10 ** 6, 10 ** 12])
def test_bracket_digit_power_is_reduced_by_squaring(p, r, k):
    # g^k needs O(log k) products mod m(g), not a list of k + 1 entries; at
    # r = 1 the generator is 0, so g^0 = 1 and every higher power is 0
    cfg = PrimeConfig.make(p, r)
    k = r if k == "r" else k
    terms = parse_series(f"[g^{k}]")[2][0][1][1]
    assert _fq_from_ast(cfg, terms) == cfg.fq_gen() ** k


@pytest.mark.parametrize("p,r", [(2, 2), (3, 3), (5, 1)])
def test_bracket_digit_power_through_the_cli(p, r):
    want = PrimeConfig.make(p, r).fq_gen() ** 10 ** 12
    field = ["-p", str(p), "-r", str(r), "normalize"]
    got = invoke(field + ["[g^1000000000000]*p^(1)"])
    assert got == invoke(field + [f"[{want}]*p^(1)"])
    assert got[0] == 0 and (got[1] == "0\n") == (r == 1)
