"""Command-line front end.

One PrimeConfig per invocation (flags -p/-r and friends, defaults
overridable through a JSON config file named by $HAHNFORGE_CONFIG); mixing
bases or configs inside one expression is a usage error.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 precision loss.

Each verb is one `_VERBS` entry (argument specs, handler, batch argument).
A spec is a (name, keywords) pair: a name that begins with `-` is an
option, any other a positional, and the keywords are `type` (int),
`choices`, `required`, `when` (an (option, value) pair that makes the
option required) and `help`.  A handler maps (parsed args,
PrimeConfig) to (text lines, JSON payload), the payload a zero-argument
callable that builds it, or None (text-only verbs): --json prints
payload() as one `json.dumps(..., sort_keys=True)` line, so text mode
never builds it; otherwise each line is printed.  A batch argument given
as `-` runs the handler once per non-blank stdin line, set to the stripped
line, printing each result before it reads the next line.

`_read` reads argv against `_SHARED` and the verb's specs, and usage and
help text come from the same table.  Shared flags go before or after the
verb, and the last of a repeated option wins.  Every option takes the next
argument as its value, whatever it begins with, or the text after its `=`;
`-` alone and an argument that begins with `-` and a digit are values, and
`--` ends the options.  Nothing is kept between calls: help goes to the
`out` and a usage error to the `err` of the call, wrapped at the terminal
width of that moment.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import _OnFirstUse
from .errors import HahnForgeError, ParseError, PrecisionLoss
from .exactnum import PrimeConfig

# bound on first use, so that a process compiles only the modules its verb runs
hahn_eqchar, hahn_padic, indexcomb, newton, ordinal, parsing = (
    _OnFirstUse(globals(), name) for name in
    ("hahn_eqchar", "hahn_padic", "indexcomb", "newton", "ordinal", "parsing"))

# the flags of every verb: `default` is the program default, `key` the
# config-file key where it is not the attribute, and `const` the value of
# a flag that takes none (the config file's "output": "json" is --json)
_SHARED = [
    ("-p", {"type": int, "default": 2, "help": "prime (default 2)"}),
    ("-r", {"type": int, "default": 1, "help": "residue field degree (default 1)"}),
    ("--l-max", {"type": int, "default": 128}),
    ("--max-degree", {"type": int, "default": 6, "key": "max_field_degree",
                      "help": "field extension budget for root solving"}),
    ("--stall-limit", {"type": int, "default": 3}),
    ("--json", {"const": "json", "key": "output", "help": "emit JSON instead of text"}),
]


def _attr(name):
    return name.lstrip("-").replace("-", "_")


def _defaults():
    """Each shared flag's value before argv is read, by flag: the config
    file's if $HAHNFORGE_CONFIG names one, else the program's."""
    path, data = os.environ.get("HAHNFORGE_CONFIG"), {}
    if path:
        import json
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("the config must be a JSON object")
        types = {kw.get("key", _attr(n)): kw.get("type", str) for n, kw in _SHARED}
        if unknown := set(data) - set(types):
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            # exact type: JSON true/false load as bools, which are ints to Python
            if type(value) is not types[key]:
                raise ValueError(f"config key {key!r} must be of type "
                                 f"{types[key].__name__}, got {value!r}")
    return {n: data.get(kw.get("key", _attr(n)), kw.get("default"))
            for n, kw in _SHARED}


def _series_value(text, cfg):
    ast = parsing.parse_series(text)
    to_ring = parsing.series_to_phahn if ast[1] == "p" else parsing.series_to_eq
    return to_ring(ast, cfg)


def _series_json(value):
    cap = None if value.is_exact() else list(value.cap.as_integer_ratio())
    terms = [list(t) for t in parsing.printed_terms(value)]
    return {"terms" if value.BASE == "t" else "digits": terms, "cap": cap}


def _series_out(value):
    return [parsing.format_series(value, value.BASE)], lambda: _series_json(value)


def _normalize(args, cfg):
    return _series_out(_series_value(args.expr, cfg))


def _binary(op):
    def handler(args, cfg):
        a, b = _series_value(args.lhs, cfg), _series_value(args.rhs, cfg)
        if a.BASE != b.BASE:
            raise ParseError("operands use different bases")
        return _series_out(op(a, b))
    return handler


def _pow(args, cfg):
    return _series_out(_series_value(args.expr, cfg) ** args.n)


def _val(args, cfg):
    v = parsing.format_rational(_series_value(args.expr, cfg).valuation())
    return [v], lambda: {"valuation": v}


def _decompose(args, cfg):
    value = _series_value(args.expr, cfg)
    if value.BASE != "p":
        raise ParseError("decompose expects a p-adic series")
    fd = hahn_padic.decompose(value)
    lines = [f"q={parsing.format_rational(q)} offset={off} unit={unit} prec={unit.prec}"
             for q, off, unit in fd.entries]
    return lines, lambda: {
        "entries": [[q.numerator, q.denominator, off, str(unit), unit.prec]
                    for q, off, unit in fd.entries],
        "cap": parsing.format_rational(fd.cap)}


def _newton_solve(args, cfg):
    ast = parsing.parse_poly(args.poly)
    opts = newton.ExpandOptions(max_field_degree=args.max_degree,
                                stall_limit=args.stall_limit)
    if args.ring == "eq":
        coeffs = parsing.poly_to_coeffs(ast, cfg, hahn_eqchar.EqHahn)
        branches = newton.expand_roots_eq(coeffs, max_terms=args.terms, opts=opts)
    else:
        cap = parsing.parse_rational(args.cap)
        coeffs = parsing.poly_to_coeffs(ast, cfg, hahn_padic.PHahn, coeff_cap=cap + 4)
        branches = newton.expand_root_padic(coeffs, cap=cap, opts=opts)
    lines = [f"branch {i}: {parsing.format_series(b.value(), b.ring.BASE)} (bound "
             f"{parsing.format_rational(b.residual_bound)}, "
             f"field degree {b.field_degree})"
             for i, b in enumerate(branches, 1)]
    return lines, lambda: [
        {"terms": [[e.numerator, e.denominator, str(c)] for e, c in b.terms],
         "bound": parsing.format_rational(b.residual_bound),
         "field_degree": b.field_degree}
        for b in branches]


def _verify_root(args, cfg):
    ast = parsing.parse_poly(args.poly)
    bound = parsing.parse_rational(args.bound)
    eq = args.ring == "eq"
    ring = hahn_eqchar.EqHahn if eq else hahn_padic.PHahn
    # the cap applies to p-adic coefficients only
    coeffs = parsing.poly_to_coeffs(ast, cfg, ring, coeff_cap=bound + 4)
    to_ring = parsing.series_to_eq if eq else parsing.series_to_phahn
    # a constant prefix, like a constant polynomial, fits either ring
    prefix = to_ring(parsing.parse_series(args.prefix, default_base=ring.BASE), cfg)
    v = parsing.format_rational(newton.verify_root(coeffs, prefix, bound))
    return [v], lambda: {"valuation": v}


def _reduce_index(args, cfg):
    red = indexcomb.reduce_index(parsing.parse_index_vec(args.vec), cfg.p)
    return [parsing.format_index_vec(red)], None


def _enumerate_class(args, cfg):
    vec = parsing.parse_index_vec(args.vec)
    members = indexcomb.enumerate_class(vec, args.sigma_max, cfg.p)
    return ([parsing.format_index_vec(m) for m in members],
            lambda: [list(m) for m in members])


def _certificate_check(args, cfg):
    cert = indexcomb.Certificate(parsing.parse_int_list(args.coeffs),
                                 cap=parsing.parse_rational(args.cap))
    residual = indexcomb.certificate_residual(cfg, cert, terms=args.terms)
    k_star = (1,) * cert.degree
    grouped = parsing.format_rational(indexcomb.grouped_sum(k_star, cert, cfg.p))
    nonzero = not residual.is_zero_below_cap()
    lines = [f"residual: {parsing.format_series(residual, residual.BASE)}",
             f"nonzero below cap: {'true' if nonzero else 'false'}",
             f"kstar {parsing.format_index_vec(k_star)} coefficient: {grouped}"]
    return lines, lambda: {"residual": _series_json(residual),
                           "nonzero": nonzero, "kstar": list(k_star),
                           "kstar_coefficient": grouped}


def _ordinal(args, cfg):
    a, b = parsing.parse_ordinal(args.lhs), parsing.parse_ordinal(args.rhs)
    if args.op == "cmp":
        return ["less" if a < b else ("greater" if b < a else "equal")], None
    return [str(a + b if args.op == "add" else a * b)], None


def _of_ordinal(name):
    """The handler that prints ordinal.<name> of its argument."""
    return lambda args, cfg: (
        [str(getattr(ordinal, name)(parsing.parse_ordinal(args.ordinal)))], None)


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
        ("--terms", {"type": int, "when": ("--ring", "eq"),
                     "help": "term budget per branch (eq)"}),
        ("--cap", {"when": ("--ring", "padic"), "help": "digit cap a/b (padic)"})],
        _newton_solve, None),
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
    "ordinal": ([("op", {"choices": ("add", "mul", "cmp"), "help": "add, mul or cmp"})]
                + _LHS_RHS, _ordinal, None),
    "order-type-replicate": (_ORDINAL, _of_ordinal("replication_order_type"),
                             "ordinal"),
    "prediction-check": (_ORDINAL, _of_ordinal("prediction_filter"), "ordinal"),
}

_TOP = _SHARED + [("VERB", {"choices": _VERBS, "help": ", ".join(_VERBS)})]


class _Usage(Exception):
    """A usage error from `_read`, with args (verb or None, message); a
    message of None asks for help."""


def _read(argv):
    """Read argv against `_SHARED` and the verb's specs into a namespace of
    every spec's attribute: a shared flag not given holds its config-file
    or program default, any other option not given holds None.  Raises
    `_Usage`, or OSError or ValueError for a bad config file."""
    values, verb, specs, extras, options = _defaults(), None, _TOP, [], True
    for tok in (tokens := iter(argv)):
        name, eq, text = tok.partition("=")
        if options and tok == "--":
            options = False
            continue
        if options and name in ("-h", "--help"):
            raise _Usage(verb, None)
        # `-` alone, and `-` with a digit (`-1`, `-1/2`), is a value
        if options and tok[:1] == "-" and tok[1:2] not in "0123456789":
            kw = dict(specs).get(name)
            if kw is None or "const" in kw and eq:
                extras.append(tok)
                continue
            text = kw.get("const") or (text if eq else next(tokens, None))
            if text is None:
                raise _Usage(verb, f"argument {name}: expected one argument")
        else:  # the next positional in spec order
            free = [(n, kw) for n, kw in specs if n[0] != "-" and n not in values]
            if not free:
                extras.append(tok)
                continue
            (name, kw), text = free[0], tok
        if text not in kw.get("choices", (text,)):
            raise _Usage(verb, f"argument {name}: invalid choice: {text!r} (choose "
                               f"from {', '.join(map(repr, kw['choices']))})")
        try:
            values[name] = kw.get("type", str)(text)
        except ValueError:
            raise _Usage(verb, f"argument {name}: invalid int value: {text!r}")
        if name == "VERB":
            verb, specs = text, _SHARED + _VERBS[text][0]
    need = [n for n, kw in specs if n not in values and (
        kw.get("required", n[0] != "-") or kw.get("when") in values.items())]
    if need:
        raise _Usage(verb, "the following arguments are required: " + ", ".join(need))
    if extras:
        raise _Usage(verb, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(verb=verb, **{_attr(n): values.get(n) for n, _kw in specs})


def _form(name, kw):
    """How a spec reads in usage: a positional by its name, an option with
    the name of its value or with its choices, in brackets unless required."""
    meta = "{%s}" % ",".join(kw["choices"]) if "choices" in kw else _attr(name).upper()
    form = name if name[0] != "-" or "const" in kw else f"{name} {meta}"
    return form if kw.get("required", name[0] != "-") else f"[{form}]"


def _wrap(words, width, indent=""):
    """Fill words into lines of at most `width` columns, every line after
    the first led by `indent`; a word wider than that stands alone."""
    lines = words[:1]
    for word in words[1:]:
        glued = f"{lines[-1]} {word}"
        lines[-1:] = [glued] if len(glued) <= width else [lines[-1], indent + word]
    return lines


def _screen(verb, message, out, err):
    """Print the usage of the verb (None: of the top level) and the usage
    error `message` to `err`, or the help to `out` if it is None, wrapped
    two columns short of the terminal's width; return the exit code."""
    import shutil
    width = shutil.get_terminal_size().columns - 2
    prog = f"hahnforge {verb or ''}".rstrip()
    specs = _SHARED + _VERBS[verb][0] if verb else _TOP
    forms = [_form(n, kw) for n, kw in specs]
    # items align after the verb, or after `usage:` where that cannot fit them
    indent = len(f"usage: {prog} ")
    indent = indent if indent + max(map(len, forms)) <= width else len("usage: ")
    lines = _wrap([f"usage: {prog}", "[-h]"] + forms, width, " " * indent)
    if message is None:
        lines += ["", "arguments:"]
        for left, text in [("-h, --help", "show this help message and exit")] + [
                (_form(n, kw).strip("[]"), kw.get("help", "")) for n, kw in specs]:
            lines += _wrap([f"  {left:20} " if text else f"  {left}"] + text.split(),
                           width, " " * 24)
    else:
        lines += _wrap(f"{prog}: error: {message}".split(), width)
    print(*lines, sep="\n", file=out if message is None else err)
    return 0 if message is None else 2


def _dispatch(args, cfg, out, stdin):
    _specs, handler, batch = _VERBS[args.verb]
    batched = batch and getattr(args, batch) == "-"
    # lazily: each line's result is written before the next is read
    for text in filter(None, map(str.strip, stdin)) if batched else [None]:
        if batched:
            setattr(args, batch, text)
        lines, payload = handler(args, cfg)
        if args.json == "json" and payload is not None:
            import json
            lines = [json.dumps(payload(), sort_keys=True)]
        for line in lines:
            print(line, file=out)
    return 0


def run(argv, out=None, err=None, stdin=None):
    """Run one invocation; returns the exit code without calling sys.exit."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    stdin = stdin if stdin is not None else sys.stdin
    try:
        args = _read(argv)
    except (OSError, ValueError) as exc:
        print(f"error: bad config file: {exc}", file=err)
        return 2
    except _Usage as exc:
        return _screen(*exc.args, out, err)
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
