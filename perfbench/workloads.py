"""The benchmark's workloads: seeded item lists and the oracle for every item.

An item is one `hahnforge.cli.run` call or one library call.  Each workload
builds its item list `k` from (seed, k) alone, and every item carries the
check of its own output.  The runner never calls a check inside a timed
region.
"""

from __future__ import annotations

import importlib.util
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hahnforge import cli as hf_cli
from hahnforge.exactnum import PrimeConfig, WittElem
from hahnforge.hahn_eqchar import EqHahn
from hahnforge.hahn_padic import (
    FracDecomp,
    PHahn,
    frak_a,
    mul_via_decomposition,
    normalize,
    recompose,
)
from hahnforge.indexcomb import Certificate, certificate_residual_by_powers
from hahnforge.newton import verify_root
from hahnforge.parsing import format_series, parse_series, series_to_eq, series_to_phahn

from oracles import (
    INF,
    eq_merge,
    fmt_fq,
    fmt_input_line,
    fmt_rational,
    fmt_series,
    padic_agrees,
    read_rational,
    read_series,
    read_vec,
)


@dataclass
class Item:
    key: str
    meta: dict            # p, r, verb, family: the input mix
    run: Callable[[], object]
    check: Callable[[object], bool]
    rung: str | None = None


def _rng(seed, workload, pass_no):
    return random.Random(f"{seed}:{workload}:{pass_no}")


def _cli(argv, stdin_text=""):
    def run():
        out = io.StringIO()
        code = hf_cli.run(argv, out=out, err=io.StringIO(),
                          stdin=io.StringIO(stdin_text))
        return code, out.getvalue()
    return run


def _digit(rng, cfg):
    """A uniformly drawn nonzero element of F_q."""
    n = rng.randrange(1, cfg.q)
    return cfg.fq([n // cfg.p ** i % cfg.p for i in range(cfg.r)])


def _terms(rng, cfg, lo, hi, count):
    """Signed digit terms (sign, FqElem, exponent) at distinct exponents in [lo, hi)."""
    pool = sorted({Fraction(n, d) for d in (1, 2, 3, 4)
                   for n in range(math.ceil(lo * d), math.ceil(hi * d))})
    exps = sorted(rng.sample(pool, count))
    return [(rng.choice((1, -1)), _digit(rng, cfg), e) for e in exps]


def _line(terms, cap, base):
    return fmt_input_line([(s, d.coeffs, e) for s, d, e in terms], cap, base)


def _field_args(cfg):
    return ["-p", str(cfg.p), "-r", str(cfg.r)]


# ---------------------------------------------------------------------------
# cli_golden
# ---------------------------------------------------------------------------

class CliGolden:
    """Every golden CLI case, repeated in a seeded shuffled order."""

    name = "cli_golden"
    REPEAT = 4

    def __init__(self, root, seed):
        spec = importlib.util.spec_from_file_location(
            "golden_cases", root / "tests" / "golden_cases.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        self.cases = list(module.CASES)
        self.golden = {name: (root / "tests" / "golden" / f"{name}.txt").read_text()
                       for name, _ in self.cases}
        self.seed = seed

    def fields(self):
        out = set()
        for _, argv in self.cases:
            p = int(argv[argv.index("-p") + 1]) if "-p" in argv else 2
            r = int(argv[argv.index("-r") + 1]) if "-r" in argv else 1
            out.add((p, r))
        return sorted(out)

    def items(self, pass_no):
        order = [c for c in self.cases for _ in range(self.REPEAT)]
        _rng(self.seed, self.name, pass_no).shuffle(order)
        out = []
        for name, argv in order:
            verb = next(a for a in argv if a[0].isalpha())
            expected = self.golden[name]
            out.append(Item(
                key=name,
                meta={"p": int(argv[argv.index("-p") + 1]) if "-p" in argv else 2,
                      "r": int(argv[argv.index("-r") + 1]) if "-r" in argv else 1,
                      "verb": verb, "family": name},
                run=_cli(argv),
                check=lambda res, expected=expected: res == (0, expected)))
        return out


# ---------------------------------------------------------------------------
# series_stream
# ---------------------------------------------------------------------------

SERIES_FIELDS = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]
BATCH_VERBS = [("normalize", "t"), ("normalize", "p"), ("val", "t"), ("val", "p"),
               ("decompose", "p")]
LIBRARY_OPS = ["add", "mul", "pow"]
BATCH_LINES = 6


def _series_line(rng, cfg, base):
    """A line with a known outcome: p-adic lines always carry a finite cap."""
    if base == "p":
        cap = rng.randint(2, 8)
        return _terms(rng, cfg, -2, cap, rng.randint(1, 4)), cap
    cap = rng.choice([None, 2, 3, 4, 5, 6, 7, 8])
    return _terms(rng, cfg, -3, cap or 4, rng.randint(1, 4)), cap


def _check_normalize_line(cfg, base, terms, cap, out):
    items, ocap = read_series(out, base, cfg.r)
    if fmt_series(items, ocap, base) != out:
        return False
    if base == "t":
        merged = eq_merge(terms, INF if cap is None else cap)
        if fmt_series([(e, c.coeffs) for e, c in merged],
                      INF if cap is None else cap, "t") != out:
            return False
    else:
        exps = [e for e, _ in items]
        if exps != sorted(set(exps)) or any(e >= ocap for e in exps):
            return False
        value = PHahn(cfg, tuple((e, cfg.fq(v)) for e, v in items), ocap)
        if not padic_agrees(cfg, terms, Fraction(cap), value):
            return False
    # re-normalizing the printed text reproduces it
    convert = series_to_phahn if base == "p" else series_to_eq
    return format_series(convert(parse_series(out), cfg), base) == out


def _check_decompose_line(cfg, line, cap, entry_lines):
    x = series_to_phahn(parse_series(line), cfg)
    entries = []
    for text in entry_lines:
        fields = dict(part.split("=", 1) for part in text.split(" "))
        prec = int(fields["prec"])
        vec = read_vec(fields["unit"], cfg.r)
        entries.append((Fraction(fields["q"]), int(fields["offset"]),
                        WittElem(cfg, tuple(vec), prec)))
    return recompose(FracDecomp(cfg, entries, Fraction(cap))) == x


def _batch_item(cfg, verb, base, lines):
    texts = [_line(t, c, base) for t, c in lines]

    def check(res):
        code, out = res
        if code != 0:
            return False
        outs = out.splitlines()
        if verb == "decompose":
            pos = 0
            for (terms, cap), text in zip(lines, texts):
                x = series_to_phahn(parse_series(text), cfg)
                count = len({e - math.floor(e) for e, _ in x.digits})
                if not _check_decompose_line(cfg, text, cap, outs[pos:pos + count]):
                    return False
                pos += count
            return pos == len(outs)
        if len(outs) != len(lines):
            return False
        for (terms, cap), o in zip(lines, outs):
            if verb == "val":
                if o != fmt_rational(min(e for _, _, e in terms)):
                    return False
            elif not _check_normalize_line(cfg, base, terms, cap, o):
                return False
        return True

    return Item(key="\n".join([verb] + texts),
                meta={"p": cfg.p, "r": cfg.r, "verb": verb, "family": f"batch_{base}"},
                run=_cli(_field_args(cfg) + [verb, "-"], "\n".join(texts) + "\n"),
                check=check)


def _padic_operand(rng, cfg):
    cap = rng.randint(2, 5)
    terms = _terms(rng, cfg, -1, cap, rng.randint(1, 3))
    return normalize(cfg, [((s, d), e) for s, d, e in terms], cap)


def _eq_operand(rng, cfg):
    cap = rng.choice([None, 2, 4, 6])
    terms = _terms(rng, cfg, -2, cap or 4, rng.randint(1, 3))
    return EqHahn(cfg, [(e, d if s > 0 else -d) for s, d, e in terms],
                  INF if cap is None else cap)


def _library_item(rng, cfg, op, base):
    make = _padic_operand if base == "p" else _eq_operand
    a, b, c = make(rng, cfg), make(rng, cfg), make(rng, cfg)
    n = rng.randint(2, 3)

    def same_below_common_cap(x, y):
        cap = min(x.cap, y.cap)
        return x.truncate(cap) == y.truncate(cap)

    def check(res):
        if op == "add":
            if res != b + a:
                return False
            cap = min(a.cap, b.cap)
            if base == "p":
                terms = [(1, d, e) for e, d in a.digits + b.digits]
                return padic_agrees(cfg, terms, cap, res)
            merged = eq_merge([(1, d, e) for e, d in a.terms + b.terms], cap)
            return res.terms == tuple(merged) and res.cap == cap
        if op == "mul":
            if base == "p":
                return res == mul_via_decomposition(a, b)
            return res == b * a and same_below_common_cap((a + b) * c, a * c + b * c)
        acc = a
        for _ in range(n - 1):
            acc = mul_via_decomposition(acc, a) if base == "p" else acc * a
        return res == acc

    run = {"add": lambda: a + b, "mul": lambda: a * b, "pow": lambda: a ** n}[op]
    return Item(key=f"{op}:{a!r}:{b!r}:{n}",
                meta={"p": cfg.p, "r": cfg.r, "verb": op, "family": f"library_{base}"},
                run=run, check=check)


class SeriesStream:
    """Stdin batches through normalize/val/decompose plus in-process ring items."""

    name = "series_stream"

    def __init__(self, root, seed):
        self.seed = seed
        self.cfgs = {pr: PrimeConfig.make(*pr) for pr in SERIES_FIELDS}

    def fields(self):
        return list(SERIES_FIELDS)

    def items(self, pass_no):
        rng = _rng(self.seed, self.name, pass_no)
        out = []
        for i, pr in enumerate(SERIES_FIELDS):
            cfg = self.cfgs[pr]
            for verb, base in BATCH_VERBS:
                lines = [_series_line(rng, cfg, base) for _ in range(BATCH_LINES)]
                out.append(_batch_item(cfg, verb, base, lines))
            # each field gets both bases and each op both bases over the
            # fields; batches stay the majority, so the median item is a batch
            for j, op in enumerate(LIBRARY_OPS):
                out.append(_library_item(rng, cfg, op, "tp"[(i + j) % 2]))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# newton_roots
# ---------------------------------------------------------------------------

def _read_branches(out, base, p, r):
    """(cfg, terms, bound) per printed branch line."""
    branches = []
    for line in out.splitlines():
        head, sep, rest = line.partition(": ")
        if not (head.startswith("branch ") and sep):
            raise ValueError(f"bad branch line {line!r}")
        body, _, tail = rest.rpartition(" (bound ")
        bound_text, _, degree_text = tail.rstrip(")").partition(", field degree ")
        degree = int(degree_text)
        bcfg = PrimeConfig.make(p, degree) if degree != r else None
        items, cap = read_series(body, base, degree)
        if cap != INF:
            raise ValueError("a root prefix is an exact finite term map")
        branches.append((bcfg, items, read_rational(bound_text)))
    return branches


def _newton_item(family, cfg, poly, coeffs, count, ring, budget, extra=None):
    base = "t" if ring == "eq" else "p"
    flag = "--terms" if ring == "eq" else "--cap"
    argv = _field_args(cfg) + ["newton-solve", "--ring", ring, "--poly", poly,
                               flag, str(budget)]

    def check(res):
        code, out = res
        if code != 0:
            return False
        branches = _read_branches(out, base, cfg.p, cfg.r)
        if len(branches) != count:
            return False
        for bcfg, items, bound in branches:
            field = bcfg or cfg
            big = [c.embed(bcfg) for c in coeffs] if bcfg else coeffs
            terms = tuple((e, field.fq(v)) for e, v in items)
            prefix = EqHahn(field, terms) if ring == "eq" else PHahn(field, terms, INF)
            verify_root(big, prefix, bound)      # raises when the bound fails
        return extra is None or extra(branches)

    return Item(key=" ".join(argv),
                meta={"p": cfg.p, "r": cfg.r, "verb": f"newton-{ring}", "family": family},
                run=_cli(argv), check=check)


def _eq_poly(cfg, degree, monomials):
    """Coefficient list from {power: (FqElem, exponent)}."""
    coeffs = [EqHahn.zero(cfg) for _ in range(degree + 1)]
    for power, (c, e) in monomials.items():
        coeffs[power] = EqHahn.monomial(cfg, c, e)
    return coeffs


def _padic_poly(cfg, degree, bags, cap):
    """Coefficient list as the CLI builds it: every coefficient known below cap + 4."""
    return [normalize(cfg, bags.get(i, []), cap + 4) for i in range(degree + 1)]


def _deviation_check(cfg):
    """Criterion 7: the root agrees with frak_a below 1/p - 1/p^2 and differs there."""
    p = cfg.p
    deviation = Fraction(1, p) - Fraction(1, p * p)

    def extra(branches):
        alpha = [items for bcfg, items, _ in branches
                 if bcfg is None and all(e != 0 for e, _ in items)]
        if len(alpha) != 1:
            return False
        below = tuple((e, cfg.fq(v)) for e, v in alpha[0] if e < deviation)
        at = [cfg.fq(v) for e, v in alpha[0] if e == deviation]
        return (below == frak_a(cfg, Fraction(0), terms=len(below)).digits
                and at == [cfg.fq(1)])
    return extra


class NewtonRoots:
    """newton-solve items from root families with a known outcome."""

    name = "newton_roots"
    LARGE_Q = (31, 2)

    def __init__(self, root, seed):
        self.seed = seed
        self.cfgs = {pr: PrimeConfig.make(*pr) for pr in self.fields()}

    def fields(self):
        return [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), self.LARGE_Q]

    def items(self, pass_no):
        rng = _rng(self.seed, self.name, pass_no)
        cfgs = self.cfgs
        e0 = Fraction(0)                  # exponent of a constant coefficient
        out = []
        for r in (1, 2):
            # X^2 + X + c t^(-a) at p = 2: two branches
            cfg = cfgs[(2, r)]
            c, a = _digit(rng, cfg), rng.choice((1, 3, 5, 7))
            out.append(_newton_item(
                "eq_quadratic_p2", cfg, f"X^2+X+[{fmt_fq(c.coeffs)}]*t^(-{a})",
                _eq_poly(cfg, 2, {0: (c, -a), 1: (1, e0), 2: (1, e0)}),
                2, "eq", rng.choice((3, 4))))
        for p in (2, 3, 5):
            for r in (1, 2):
                # Artin-Schreier X^p - X - c t^(-a): p branches
                cfg = cfgs[(p, r)]
                c = _digit(rng, cfg)
                a = rng.choice([a for a in (1, 2, 3, 4) if a % p])
                out.append(_newton_item(
                    "eq_artin_schreier", cfg,
                    f"X^{p}-X-[{fmt_fq(c.coeffs)}]*t^(-{a})",
                    _eq_poly(cfg, p, {0: (-c, -a), 1: (-1, e0), p: (1, e0)}),
                    p, "eq", 3))
        cfg = cfgs[(2, 1)]
        out.append(_newton_item(
            "eq_field_extension", cfg, "X^2+X+1",
            _eq_poly(cfg, 2, {0: (1, e0), 1: (1, e0), 2: (1, e0)}), 2, "eq", 2))
        # large q: X^2 + X + c t^(-a) with -c a square, so the roots stay in F_q
        cfg = cfgs[self.LARGE_Q]
        u, a = _digit(rng, cfg), rng.choice((1, 3))
        c = -(u * u)
        out.append(_newton_item(
            "eq_large_q", cfg, f"X^2+X+[{fmt_fq(c.coeffs)}]*t^(-{a})",
            _eq_poly(cfg, 2, {0: (c, -a), 1: (1, e0), 2: (1, e0)}), 2, "eq", 3))
        for p in (2, 3):
            # X^p - X - p^(-1): the transfinite deviation from frak_a
            cfg = cfgs[(p, 1)]
            cap = Fraction(1, p)
            coeffs = _padic_poly(cfg, p, {0: [(-1, Fraction(-1))], 1: [(-1, e0)],
                                          p: [(1, e0)]}, cap)
            out.append(_newton_item(
                "padic_deviation", cfg, f"X^{p}-X-p^(-1)", coeffs, p, "padic",
                fmt_rational(cap), extra=_deviation_check(cfg)))
        for p in (5, 7):
            # square roots X^2 - [u] p^k: two branches, in F_p or in F_{p^2}
            cfg = cfgs[(p, 1)]
            u, k, cap = _digit(rng, cfg), rng.randint(1, 3), rng.randint(2, 3)
            coeffs = _padic_poly(cfg, 2, {0: [((-1, u), Fraction(k))],
                                          2: [(1, e0)]}, Fraction(cap))
            out.append(_newton_item(
                "padic_sqrt", cfg, f"X^2-[{fmt_fq(u.coeffs)}]*p^({k})", coeffs, 2,
                "padic", cap))
        rng.shuffle(out)
        return out


# ---------------------------------------------------------------------------
# certificate_ladder
# ---------------------------------------------------------------------------

LADDER = [(2, 4), (2, 5), (2, 6), (2, 7), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
          (5, 2), (5, 3), (5, 4), (5, 5)]
LADDER_RUNGS = [f"p{p}_d{degree}" for p, degree in LADDER]


def _certificate_item(cfg, s, cap):
    degree = len(s) - 1
    argv = ["-p", str(cfg.p), "certificate-check", "--cap", str(cap), "--",
            ",".join(str(x) for x in s)]
    expected = []

    def check(res):
        if not expected:
            residual = certificate_residual_by_powers(
                cfg, Certificate(tuple(s), cap=Fraction(cap)))
            body = fmt_series([(e, d.coeffs) for e, d in residual.digits],
                              residual.cap, "p")
            kstar = ",".join(["1"] * degree)
            expected.append(
                f"residual: {body}\n"
                f"nonzero below cap: {'true' if residual.digits else 'false'}\n"
                f"kstar ({kstar}) coefficient: {s[-1] * math.factorial(degree)}\n")
        return res == (0, expected[0])

    return Item(key=" ".join(argv),
                meta={"p": cfg.p, "r": 1, "verb": "certificate-check",
                      "family": "all_ones" if set(s) == {1} else "random_s"},
                run=_cli(argv), check=check, rung=f"p{cfg.p}_d{degree}")


class CertificateLadder:
    """certificate-check on a degree ladder; the same rungs in every pass."""

    name = "certificate_ladder"

    def __init__(self, root, seed):
        rng = _rng(seed, self.name, 0)
        self.rungs = []
        for p, degree in LADDER:
            cfg = PrimeConfig.make(p)
            # the p = 2 ladder is the all-ones certificate; the others draw a
            # random sign for every entry, so the multinomial bag and the size
            # of its coefficients, hence the cost, are the same for every seed
            s = [1] * (degree + 1) if p == 2 else \
                [rng.choice((-1, 1)) for _ in range(degree + 1)]
            self.rungs.append(_certificate_item(cfg, s, 1 + degree % 3))

    def fields(self):
        return sorted({(p, 1) for p, _ in LADDER})

    def items(self, pass_no):
        return list(self.rungs)


WORKLOADS = {w.name: w for w in (CliGolden, SeriesStream, CertificateLadder, NewtonRoots)}
