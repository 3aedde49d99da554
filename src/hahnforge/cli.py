"""Command-line front end.

One PrimeConfig per invocation (flags -p/-r and friends, defaults
overridable through a JSON config file named by $HAHNFORGE_CONFIG); mixing
bases or configs inside one expression is a usage error.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 precision loss.

Each verb is one `_VERBS` entry (argument specs, handler, batch argument);
the specs are (name, add_argument keywords) pairs, added after the shared
flags.  A handler maps (parsed args, PrimeConfig) to (text lines, JSON
payload), the payload a zero-argument callable that builds it, or None
(text-only verbs): --json prints payload() as one `json.dumps(...,
sort_keys=True)` line, so text mode never builds it; otherwise each line
is printed.  A batch argument given as `-` runs the handler once per
non-blank stdin line, set to the stripped line, printing each result
before it reads the next line.

The argparse tree is built once per process, on the first `run`, and shared
by every later call; each call's `out` and `err` reach it through a context
variable, so help and usage errors go to the streams of the call that
parsed, also when threads call `run` at the same time.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import os
import sys
import textwrap

from . import indexcomb, newton, ordinal
from .errors import HahnForgeError, ParseError, PrecisionLoss
from .exactnum import PrimeConfig
from .hahn_eqchar import EqHahn
from .hahn_padic import PHahn, decompose
from .parsing import (
    format_index_vec,
    format_rational,
    format_series,
    parse_index_vec,
    parse_int_list,
    parse_ordinal,
    parse_poly,
    parse_rational,
    parse_series,
    poly_to_coeffs,
    printed_terms,
    series_to_eq,
    series_to_phahn,
)
from .series import INF

# the int flags of every verb: (flag, attribute, config-file key, default,
# help); the config file may also set "output" ("json" turns on --json)
_SHARED = (
    ("-p", "p", "p", 2, "prime (default 2)"),
    ("-r", "r", "r", 1, "residue field extension degree (default 1)"),
    ("--l-max", "l_max", "l_max", 128, None),
    ("--max-degree", "max_degree", "max_field_degree", 6,
     "field extension budget for root solving"),
    ("--stall-limit", "stall_limit", "stall_limit", 3, None),
)


def _env_defaults():
    path = os.environ.get("HAHNFORGE_CONFIG")
    if not path:
        return {}
    import json
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("the config must be a JSON object")
    types = {key: int for _flag, _attr, key, _default, _help in _SHARED}
    types["output"] = str
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        # exact type: JSON true/false load as bools, which are ints to Python
        if type(value) is not types[key]:
            raise ValueError(f"config key {key!r} must be of type "
                             f"{types[key].__name__}, got {value!r}")
    return data


def _series_value(text, cfg):
    ast = parse_series(text)
    to_ring = series_to_phahn if ast[1] == "p" else series_to_eq
    return to_ring(ast, cfg), ast[1]


def _series_json(value, base):
    cap = None if value.is_exact() else list(value.cap.as_integer_ratio())
    terms = [list(t) for t in printed_terms(value)]
    return {"terms" if base == "t" else "digits": terms, "cap": cap}


def _series_out(value, base):
    return [format_series(value, base)], lambda: _series_json(value, base)


def _normalize(args, cfg):
    return _series_out(*_series_value(args.expr, cfg))


def _binary(op):
    def handler(args, cfg):
        a, base_a = _series_value(args.lhs, cfg)
        b, base_b = _series_value(args.rhs, cfg)
        if base_a != base_b:
            raise ParseError("operands use different bases")
        return _series_out(op(a, b), base_a)
    return handler


def _pow(args, cfg):
    a, base = _series_value(args.expr, cfg)
    return _series_out(a ** args.n, base)


def _val(args, cfg):
    v = format_rational(_series_value(args.expr, cfg)[0].valuation())
    return [v], lambda: {"valuation": v}


def _decompose(args, cfg):
    value, base = _series_value(args.expr, cfg)
    if base != "p":
        raise ParseError("decompose expects a p-adic series")
    fd = decompose(value)
    lines = [f"q={format_rational(q)} offset={off} unit={unit} prec={unit.prec}"
             for q, off, unit in fd.entries]
    return lines, lambda: {
        "entries": [[q.numerator, q.denominator, off, str(unit), unit.prec]
                    for q, off, unit in fd.entries],
        "cap": format_rational(fd.cap)}


def _newton_solve(args, cfg):
    ast = parse_poly(args.poly)
    opts = newton.ExpandOptions(max_field_degree=args.max_degree,
                                stall_limit=args.stall_limit)
    if args.ring == "eq":
        if args.terms is None:
            raise ParseError("--terms is required for --ring eq")
        coeffs = poly_to_coeffs(ast, cfg, EqHahn)
        branches = newton.expand_roots_eq(coeffs, max_terms=args.terms, opts=opts)
    else:
        if args.cap is None:
            raise ParseError("--cap is required for --ring padic")
        cap = parse_rational(args.cap)
        coeffs = poly_to_coeffs(ast, cfg, PHahn, coeff_cap=cap + 4)
        branches = newton.expand_root_padic(coeffs, cap=cap, opts=opts)
    base = "t" if args.ring == "eq" else "p"
    lines = [f"branch {i}: {format_series(b.value(), base)} (bound "
             f"{format_rational(b.residual_bound)}, field degree {b.field_degree})"
             for i, b in enumerate(branches, 1)]
    return lines, lambda: [
        {"terms": [[e.numerator, e.denominator, str(c)] for e, c in b.terms],
         "bound": format_rational(b.residual_bound),
         "field_degree": b.field_degree}
        for b in branches]


def _verify_root(args, cfg):
    ast = parse_poly(args.poly)
    bound = parse_rational(args.bound)
    ring = EqHahn if args.ring == "eq" else PHahn
    coeff_cap = INF if ring is EqHahn else bound + 4
    coeffs = poly_to_coeffs(ast, cfg, ring, coeff_cap=coeff_cap)
    to_ring = series_to_eq if ring is EqHahn else series_to_phahn
    # a constant prefix, like a constant polynomial, fits either ring
    prefix = to_ring(parse_series(args.prefix, default_base=ring.BASE), cfg)
    v = format_rational(newton.verify_root(coeffs, prefix, bound))
    return [v], lambda: {"valuation": v}


def _reduce_index(args, cfg):
    red = indexcomb.reduce_index(parse_index_vec(args.vec), cfg.p)
    return [format_index_vec(red)], None


def _enumerate_class(args, cfg):
    vec = parse_index_vec(args.vec)
    members = indexcomb.enumerate_class(vec, args.sigma_max, cfg.p)
    return ([format_index_vec(m) for m in members],
            lambda: [list(m) for m in members])


def _certificate_check(args, cfg):
    cert = indexcomb.Certificate(parse_int_list(args.coeffs),
                                 cap=parse_rational(args.cap))
    residual = indexcomb.certificate_residual(cfg, cert, terms=args.terms)
    k_star = (1,) * cert.degree
    grouped = format_rational(indexcomb.grouped_sum(k_star, cert, cfg.p))
    nonzero = not residual.is_zero_below_cap()
    lines = [f"residual: {format_series(residual, 'p')}",
             f"nonzero below cap: {'true' if nonzero else 'false'}",
             f"kstar {format_index_vec(k_star)} coefficient: {grouped}"]
    return lines, lambda: {"residual": _series_json(residual, "p"),
                           "nonzero": nonzero, "kstar": list(k_star),
                           "kstar_coefficient": grouped}


def _ordinal(args, cfg):
    a, b = parse_ordinal(args.lhs), parse_ordinal(args.rhs)
    if args.op == "cmp":
        return ["less" if a < b else ("greater" if b < a else "equal")], None
    return [str(a + b if args.op == "add" else a * b)], None


def _replicate(args, cfg):
    return [str(ordinal.replication_order_type(parse_ordinal(args.ordinal)))], None


def _prediction(args, cfg):
    return [ordinal.prediction_filter(parse_ordinal(args.ordinal))], None


_EXPR = [("expr", {"help": "series expression, or - for stdin batch"})]
_LHS_RHS = [("lhs", {}), ("rhs", {})]
_RING_POLY = [("--ring", {"choices": ("eq", "padic"), "required": True}),
              ("--poly", {"required": True})]
_ORDINAL = [("ordinal", {"help": "ordinal in w-notation, or - for stdin"})]

_VERBS = {
    "normalize": (_EXPR, _normalize, "expr"),
    "val": (_EXPR, _val, "expr"),
    "decompose": (_EXPR, _decompose, "expr"),
    "add": (_LHS_RHS, _binary(lambda a, b: a + b), None),
    "mul": (_LHS_RHS, _binary(lambda a, b: a * b), None),
    "pow": ([("expr", {}), ("n", {"type": int})], _pow, None),
    "newton-solve": (_RING_POLY + [
        ("--terms", {"type": int, "help": "term budget per branch (eq)"}),
        ("--cap", {"help": "digit cap a/b (padic)"})], _newton_solve, None),
    "verify-root": (_RING_POLY + [("--prefix", {"required": True}),
                                  ("--bound", {"required": True})], _verify_root, None),
    "reduce-index": ([("vec", {"help": "index vector (a1,a2,...), or - for stdin"})],
                     _reduce_index, "vec"),
    "enumerate-class": ([("vec", {}), ("--sigma-max", {"type": int, "required": True})],
                        _enumerate_class, None),
    "certificate-check": ([
        ("coeffs", {"help": "comma separated integers s_0,...,s_{n+1}"}),
        ("--cap", {"required": True}),
        ("--terms", {"type": int, "help": "truncation depth of the base series"})],
        _certificate_check, None),
    "ordinal": ([("op", {"choices": ("add", "mul", "cmp")})] + _LHS_RHS,
                _ordinal, None),
    "order-type-replicate": (_ORDINAL, _replicate, "ordinal"),
    "prediction-check": (_ORDINAL, _prediction, "ordinal"),
}

# options that take free text; argparse refuses a separate value beginning
# with '-' (`--cap -1/2`), so _glue_values hands it over as `--cap=-1/2`
_TEXT_OPTIONS = {name for specs, _handler, _batch in _VERBS.values()
                 for name, kw in specs
                 if name.startswith("--") and not {"type", "choices"} & set(kw)}


def _glue_values(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _TEXT_OPTIONS and arg.startswith("-") \
                and "--" not in out:
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


# the (out, err) of the `run` call that is parsing right now
_STREAMS = contextvars.ContextVar("streams")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that prints help to the `out` and usage errors to the
    `err` of the `run` call that is parsing.

    argparse's own methods write to sys.stdout and sys.stderr, which are not
    the streams an in-process caller of `run` passed.  The tree is built once
    per process and shared by every call, so the streams are not stored on
    it: `run` sets `_STREAMS` around `parse_args`, and each thread sees only
    the value it set.
    """

    def print_usage(self, file=None):
        super().print_usage(_STREAMS.get()[0] if file is None else file)

    def print_help(self, file=None):
        super().print_help(_STREAMS.get()[0] if file is None else file)

    def error(self, message):
        # argparse formats the message without the formatter, so a long one
        # (an unknown verb's names every verb) is wrapped here as help is
        self.print_usage(_STREAMS.get()[1])
        text, fmt = f"{self.prog}: error: {message}", _HelpFormatter(self.prog)
        if len(text) > fmt._width:
            text = "\n".join(fmt._split_lines(text, fmt._width))
        self.exit(2, text + "\n")

    def exit(self, status=0, message=None):
        if message:
            _STREAMS.get()[1].write(message)
        raise SystemExit(status)


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, wrapping help text at spaces only, so that a
    hyphenated verb in the verb list stays on one line."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width,
                             break_on_hyphens=False)


@functools.cache
def _parser():
    # built on the first `run`, not at import, and reused by every later one;
    # the shared flags parse both before and after the verb (the subcommand
    # occurrence, parsed last, wins); run fills the defaults of unset ones
    common = argparse.ArgumentParser(add_help=False)
    s = argparse.SUPPRESS
    for flag, attr, _key, _default, help_text in _SHARED:
        common.add_argument(flag, dest=attr, type=int, default=s, help=help_text)
    common.add_argument("--json", action="store_true", default=s,
                        help="emit JSON instead of text")
    top = _Parser(
        prog="hahnforge",
        description="exact Hahn-series arithmetic at finite truncation",
        parents=[common], formatter_class=_HelpFormatter)
    sub = top.add_subparsers(dest="verb", required=True, metavar="VERB",
                             help=", ".join(_VERBS))
    for verb, (specs, _handler, _batch) in _VERBS.items():
        sp = sub.add_parser(verb, parents=[common])
        for name, kw in specs:
            sp.add_argument(name, **kw)
    return top


def _dispatch(args, cfg, out, stdin):
    _specs, handler, batch = _VERBS[args.verb]
    texts = [None]
    if batch and getattr(args, batch) == "-":
        # lazily: each line's result is written before the next is read
        texts = filter(None, map(str.strip, stdin))
    for text in texts:
        if text is not None:
            setattr(args, batch, text)
        lines, payload = handler(args, cfg)
        if args.json and payload is not None:
            import json
            print(json.dumps(payload(), sort_keys=True), file=out)
        else:
            for line in lines:
                print(line, file=out)
    return 0


def run(argv, out=None, err=None, stdin=None):
    """Run one invocation; returns the exit code without calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        defaults = _env_defaults()
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=err)
        return 2
    streams = _STREAMS.set((out, err))
    try:
        args = _parser().parse_args(_glue_values(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    finally:
        _STREAMS.reset(streams)
    # shared flags carry SUPPRESS defaults so either position wins; fill the
    # config-file or program default of whatever was never given
    for _flag, attr, key, default, _help in _SHARED:
        if not hasattr(args, attr):
            setattr(args, attr, defaults.get(key, default))
    if not hasattr(args, "json"):
        args.json = defaults.get("output") == "json"
    try:
        cfg = PrimeConfig.make(args.p, args.r, l_max=args.l_max)
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
    except (HahnForgeError, ValueError, ArithmeticError, RecursionError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except MemoryError:
        print("error: out of memory", file=err)
        return 1


def main(argv=None):
    try:
        code = run(argv if argv is not None else sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout is gone (`hahnforge ... | head -1`): point
        # stdout at devnull, so that the interpreter's last flush does not
        # fail again, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
