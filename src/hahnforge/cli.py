"""Command-line front end.

One PrimeConfig per invocation (flags -p/-r/-L and friends, defaults
overridable through a JSON config file named by $HAHNFORGE_CONFIG); mixing
bases or configs inside one expression is a usage error.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 precision loss.

Verbs taking a single expression argument accept `-` to read a batch of
expressions from stdin, one per line, emitting one output line each.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import indexcomb, newton, ordinal
from .errors import HahnForgeError, ParseError, PrecisionLoss
from .exactnum import PrimeConfig
from .hahn_eqchar import EqHahn
from .hahn_padic import PHahn, decompose
from .parsing import (
    format_index_vec,
    format_ordinal,
    format_rational,
    format_series,
    parse_index_vec,
    parse_ordinal,
    parse_poly,
    parse_rational,
    parse_series,
    poly_to_coeffs,
    series_to_eq,
    series_to_phahn,
)
from .series import INF

_CONFIG_ENV = "HAHNFORGE_CONFIG"
_CONFIG_KEYS = ("p", "r", "L", "l_max", "max_field_degree", "stall_limit",
                "output")


def _env_defaults():
    path = os.environ.get(_CONFIG_ENV)
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    unknown = set(data) - set(_CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return data


def _build_parser(defaults):
    # the shared flags parse both before and after the verb (the subcommand
    # occurrence, parsed last, wins); unset values fall back to defaults here
    common = argparse.ArgumentParser(add_help=False)
    s = argparse.SUPPRESS
    common.add_argument("-p", type=int, default=s, help="prime (default 2)")
    common.add_argument("-r", type=int, default=s,
                        help="residue field extension degree (default 1)")
    common.add_argument("-L", type=int, default=s,
                        help="Witt truncation length (default 8)")
    common.add_argument("--l-max", type=int, default=s)
    common.add_argument("--max-degree", type=int, default=s,
                        help="field extension budget for root solving")
    common.add_argument("--stall-limit", type=int, default=s)
    common.add_argument("--json", action="store_true", default=s,
                        help="emit JSON instead of text")

    top = argparse.ArgumentParser(
        prog="hahnforge",
        description="exact Hahn-series arithmetic at finite truncation",
        parents=[common])
    sub = top.add_subparsers(dest="verb", required=True)

    for name in ("normalize", "val", "decompose"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("expr", help="series expression, or - for stdin batch")
    for name in ("add", "mul"):
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("lhs")
        sp.add_argument("rhs")
    sp = sub.add_parser("pow", parents=[common])
    sp.add_argument("expr")
    sp.add_argument("n", type=int)

    sp = sub.add_parser("newton-solve", parents=[common])
    sp.add_argument("--ring", choices=("eq", "padic"), required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--terms", type=int, help="term budget per branch (eq)")
    sp.add_argument("--cap", help="digit cap a/b (padic)")

    sp = sub.add_parser("verify-root", parents=[common])
    sp.add_argument("--ring", choices=("eq", "padic"), required=True)
    sp.add_argument("--poly", required=True)
    sp.add_argument("--prefix", required=True)
    sp.add_argument("--bound", required=True)

    sp = sub.add_parser("reduce-index", parents=[common])
    sp.add_argument("vec", help="index vector (a1,a2,...), or - for stdin")

    sp = sub.add_parser("enumerate-class", parents=[common])
    sp.add_argument("vec")
    sp.add_argument("--sigma-max", type=int, required=True)

    sp = sub.add_parser("certificate-check", parents=[common])
    sp.add_argument("coeffs", help="comma separated integers s_0,...,s_{n+1}")
    sp.add_argument("--cap", required=True)
    sp.add_argument("--terms", type=int,
                    help="truncation depth of the base series")

    sp = sub.add_parser("ordinal", parents=[common])
    sp.add_argument("op", choices=("add", "mul", "cmp"))
    sp.add_argument("lhs")
    sp.add_argument("rhs")

    sp = sub.add_parser("order-type-replicate", parents=[common])
    sp.add_argument("ordinal", help="ordinal in w-notation, or - for stdin")

    sp = sub.add_parser("prediction-check", parents=[common])
    sp.add_argument("ordinal", help="ordinal in w-notation, or - for stdin")
    return top


def _series_value(text, cfg):
    ast = parse_series(text)
    base = ast[1]
    if base == "p":
        return series_to_phahn(ast, cfg), "p"
    return series_to_eq(ast, cfg), "t"


def _series_json(value, base):
    if value.is_exact():
        cap = None
    else:
        c = Fraction(value.cap)
        cap = [c.numerator, c.denominator]
    key = "terms" if base == "t" else "digits"
    return {key: [[e.numerator, e.denominator, str(c)] for e, c in value.terms],
            "cap": cap}


def _emit_series(value, base, args, out):
    if args.json:
        print(json.dumps(_series_json(value, base), sort_keys=True), file=out)
    else:
        print(format_series(value, base), file=out)


def _batch(arg, stdin):
    if arg == "-":
        return [line.strip() for line in stdin if line.strip()]
    return [arg]


def _dispatch(args, cfg, out, stdin):
    verb = args.verb

    if verb in ("normalize", "val", "decompose"):
        for text in _batch(args.expr, stdin):
            value, base = _series_value(text, cfg)
            if verb == "normalize":
                _emit_series(value, base, args, out)
            elif verb == "val":
                v = value.valuation()
                if args.json:
                    print(json.dumps({"valuation": format_rational(v)}), file=out)
                else:
                    print(format_rational(v), file=out)
            else:
                if base != "p":
                    raise ParseError("decompose expects a p-adic series")
                fd = decompose(value)
                if args.json:
                    entries = [[q.numerator, q.denominator, off, str(unit),
                                unit.prec] for q, off, unit in fd.entries]
                    print(json.dumps({"entries": entries,
                                      "cap": format_rational(fd.cap)},
                                     sort_keys=True), file=out)
                else:
                    for q, off, unit in fd.entries:
                        print(f"q={format_rational(q)} offset={off} "
                              f"unit={unit} prec={unit.prec}", file=out)
        return 0

    if verb in ("add", "mul"):
        a, base_a = _series_value(args.lhs, cfg)
        b, base_b = _series_value(args.rhs, cfg)
        if base_a != base_b:
            raise ParseError("operands use different bases")
        value = a + b if verb == "add" else a * b
        _emit_series(value, base_a, args, out)
        return 0

    if verb == "pow":
        a, base = _series_value(args.expr, cfg)
        _emit_series(a ** args.n, base, args, out)
        return 0

    if verb == "newton-solve":
        ast = parse_poly(args.poly)
        opts = newton.ExpandOptions(max_field_degree=args.max_degree,
                                    stall_limit=args.stall_limit)
        if args.ring == "eq":
            if args.terms is None:
                raise ParseError("--terms is required for --ring eq")
            coeffs = poly_to_coeffs(ast, cfg, EqHahn)
            branches = newton.expand_roots_eq(coeffs, max_terms=args.terms, opts=opts)
            base = "t"
        else:
            if args.cap is None:
                raise ParseError("--cap is required for --ring padic")
            cap = parse_rational(args.cap)
            coeffs = poly_to_coeffs(ast, cfg, PHahn, coeff_cap=cap + 4)
            branches = newton.expand_root_padic(coeffs, cap=cap, opts=opts)
            base = "p"
        if args.json:
            payload = [{"terms": [[e.numerator, e.denominator, str(c)]
                                  for e, c in b.terms],
                        "bound": format_rational(b.residual_bound),
                        "field_degree": b.field_degree}
                       for b in branches]
            print(json.dumps(payload, sort_keys=True), file=out)
        else:
            for i, b in enumerate(branches, 1):
                body = format_series(b.value(), base)
                print(f"branch {i}: {body} (bound {format_rational(b.residual_bound)}, "
                      f"field degree {b.field_degree})", file=out)
        return 0

    if verb == "verify-root":
        ast = parse_poly(args.poly)
        bound = parse_rational(args.bound)
        ring = EqHahn if args.ring == "eq" else PHahn
        coeff_cap = INF if ring is EqHahn else bound + 4
        coeffs = poly_to_coeffs(ast, cfg, ring, coeff_cap=coeff_cap)
        prefix_ast = parse_series(args.prefix)
        prefix = series_to_eq(prefix_ast, cfg) if ring is EqHahn \
            else series_to_phahn(prefix_ast, cfg)
        val = newton.verify_root(coeffs, prefix, bound)
        if args.json:
            print(json.dumps({"valuation": format_rational(val)}), file=out)
        else:
            print(format_rational(val), file=out)
        return 0

    if verb == "reduce-index":
        for text in _batch(args.vec, stdin):
            vec = parse_index_vec(text)
            red = indexcomb.reduce_index(vec, cfg.p)
            print(format_index_vec(red), file=out)
        return 0

    if verb == "enumerate-class":
        vec = parse_index_vec(args.vec)
        members = indexcomb.enumerate_class(vec, args.sigma_max, cfg.p)
        if args.json:
            print(json.dumps([list(m) for m in members]), file=out)
        else:
            for m in members:
                print(format_index_vec(m), file=out)
        return 0

    if verb == "certificate-check":
        s = tuple(int(x) for x in args.coeffs.split(","))
        cap = parse_rational(args.cap)
        cert = indexcomb.Certificate(s, cap=cap)
        residual = indexcomb.certificate_residual(cfg, cert, terms=args.terms)
        k_star = (1,) * cert.degree
        grouped = indexcomb.grouped_sum(k_star, cert, cfg.p)
        nonzero = not residual.is_zero_below_cap()
        if args.json:
            print(json.dumps({
                "residual": _series_json(residual, "p"),
                "nonzero": nonzero,
                "kstar": list(k_star),
                "kstar_coefficient": format_rational(grouped),
            }, sort_keys=True), file=out)
        else:
            print(f"residual: {format_series(residual, 'p')}", file=out)
            print(f"nonzero below cap: {'true' if nonzero else 'false'}", file=out)
            print(f"kstar {format_index_vec(k_star)} coefficient: "
                  f"{format_rational(grouped)}", file=out)
        return 0

    if verb == "ordinal":
        a = parse_ordinal(args.lhs)
        b = parse_ordinal(args.rhs)
        if args.op == "cmp":
            result = "less" if a < b else ("greater" if b < a else "equal")
            print(result, file=out)
        else:
            value = a + b if args.op == "add" else a * b
            print(format_ordinal(value), file=out)
        return 0

    if verb == "order-type-replicate":
        for text in _batch(args.ordinal, stdin):
            a = parse_ordinal(text)
            print(format_ordinal(ordinal.replication_order_type(a)), file=out)
        return 0

    if verb == "prediction-check":
        for text in _batch(args.ordinal, stdin):
            print(ordinal.prediction_filter(parse_ordinal(text)), file=out)
        return 0

    raise AssertionError(f"unhandled verb {verb}")


def run(argv, out=None, err=None, stdin=None):
    """Run one invocation; returns the exit code without calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        defaults = _env_defaults()
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: bad config file: {exc}", file=err)
        return 2
    parser = _build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # shared flags carry SUPPRESS defaults so either position wins; fill the
    # program defaults for whatever was never given
    fills = {
        "p": defaults.get("p", 2),
        "r": defaults.get("r", 1),
        "L": defaults.get("L", 8),
        "l_max": defaults.get("l_max", 128),
        "max_degree": defaults.get("max_field_degree", 6),
        "stall_limit": defaults.get("stall_limit", 3),
        "json": defaults.get("output") == "json",
    }
    for key, value in fills.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        cfg = PrimeConfig.make(args.p, args.r, L=args.L, l_max=args.l_max)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return 2
    try:
        return _dispatch(args, cfg, out, stdin)
    except ParseError as exc:
        print(f"syntax error: {exc} (col {exc.col})", file=err)
        return 2
    except PrecisionLoss as exc:
        print(f"precision loss: {exc}", file=err)
        return 3
    except HahnForgeError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except (ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except MemoryError:
        print("error: out of memory", file=err)
        return 1


def main(argv=None):
    sys.exit(run(argv if argv is not None else sys.argv[1:]))


if __name__ == "__main__":
    main()
