import io
import json
import os
import pathlib
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from golden_cases import CASES, JSON_CASES

from hahnforge import cli
from hahnforge.cli import run
from hahnforge.exactnum import PrimeConfig
from hahnforge.hahn_padic import PHahn
from hahnforge.parsing import (
    format_ast,
    format_series,
    parse_poly,
    parse_rational,
    parse_series,
    series_to_eq,
    series_to_phahn,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def invoke(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err, stdin=io.StringIO(stdin_text))
    return code, out.getvalue(), err.getvalue()


class TestGolden:
    def test_at_least_25_cases_cover_every_verb(self):
        assert len(CASES) >= 25
        verbs = {"normalize", "add", "mul", "pow", "val", "decompose",
                 "newton-solve", "verify-root", "reduce-index",
                 "enumerate-class", "certificate-check", "ordinal",
                 "order-type-replicate", "prediction-check"}
        seen = set()
        for _name, argv in CASES:
            seen.update(v for v in argv if v in verbs)
        assert seen == verbs

    @pytest.mark.parametrize("name,argv", CASES + JSON_CASES,
                             ids=[c[0] for c in CASES + JSON_CASES])
    def test_byte_exact(self, name, argv):
        code, out, err = invoke(argv)
        assert code == 0, err
        expected = (GOLDEN_DIR / f"{name}.txt").read_text()
        assert out == expected

    def test_outputs_stable_across_runs(self):
        for name, argv in CASES[:6]:
            assert invoke(argv)[1] == invoke(argv)[1]


class TestExitCodes:
    def test_unknown_verb_is_usage_error(self):
        code, _out, _err = invoke(["frobnicate"])
        assert code == 2

    def test_help_and_usage_errors_use_the_given_streams(self, capsys):
        for argv in (["-h"], ["val", "-h"]):
            code, out, err = invoke(argv)
            assert (code, err) == (0, "")
            assert out.startswith("usage: hahnforge")
        for argv in (["frobnicate"], ["val"], ["-p", "x", "val", "t"]):
            code, out, err = invoke(argv)
            assert (code, out) == (2, "")
            assert err.startswith("usage: hahnforge") and "error: " in err
        assert capsys.readouterr() == ("", "")

    def test_terms_over_the_step_budget_names_the_budget(self):
        code, out, err = invoke(["-p", "2", "newton-solve", "--ring", "eq",
                                 "--poly", "X^2+X+t^(-1)", "--terms", "2000"])
        assert (code, out) == (1, "")
        assert err == "error: max_terms=2000 reaches the step budget max_steps=120\n"

    @pytest.mark.parametrize("columns", [60, 80, 200])
    def test_help_lists_the_verbs_within_the_width(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = invoke(["-h"])
        assert (code, err) == (0, "")
        assert max(len(line) for line in out.splitlines()) <= columns
        words = out.split()
        assert "VERB" in words
        assert all(f"{verb}," in words or verb in words for verb in cli._VERBS)

    @pytest.mark.parametrize("columns", [60, 80, 100])
    @pytest.mark.parametrize("verb", list(cli._VERBS))
    def test_verb_help_fits_the_width(self, monkeypatch, columns, verb):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = invoke([verb, "-h"])
        assert (code, err) == (0, "")
        assert max(len(line) for line in out.splitlines()) <= columns

    @pytest.mark.parametrize("ring,given,missing", [
        ("eq", ["--cap", "1"], "--terms"), ("padic", ["--terms", "3"], "--cap")],
        ids=["eq-terms", "padic-cap"])
    def test_ring_without_its_budget_is_usage_error(self, ring, given, missing):
        # a usage error, not a syntax error at a column that does not exist
        usage = invoke(["newton-solve", "-h"])[1].split("\n\n")[0]
        argv = ["-p", "2", "newton-solve", "--ring", ring, "--poly", "X", *given]
        assert invoke(argv) == (2, "", f"{usage}\nhahnforge newton-solve: error: "
                                       f"the following arguments are required: {missing}\n")

    def test_syntax_error_is_usage_error(self):
        code, _out, err = invoke(["-p", "2", "val", "t^("])
        assert code == 2 and "syntax" in err

    @pytest.mark.parametrize("argv,col", [
        (["-p", "2", "normalize", "[1]*p^(\u00b2)"], 7),
        (["-p", "2", "reduce-index", "(1,\u00b2)"], 3),
        (["ordinal", "add", "w^(\u00b2)", "1"], 3),
    ], ids=["series", "index", "ordinal"])
    def test_superscript_digit_is_syntax_error(self, argv, col):
        # a superscript two passes str.isdigit but int() rejects it
        assert invoke(argv) == (
            2, "", f"syntax error: unexpected character '\u00b2' (col {col})\n")

    def test_precision_loss_exit_3(self):
        # valuation of a series that vanishes below a finite cap
        code, _out, err = invoke(["-p", "2", "val", "O(t^(1))"])
        assert code == 3 and "precision" in err.lower()

    @pytest.mark.parametrize("argv", [
        ["add", "[2]*p^(1)", "[1]*p^(2)"],
        ["normalize", "[2]*p^(1)+[1]*p^(2)"],
    ])
    def test_exact_sum_without_collision_needs_no_lift(self, argv):
        # digit 2 has no integer lift at p = 5, but nothing is combined
        assert invoke(["-p", "5", *argv]) == (0, "[2]*p^(1) + [1]*p^(2)\n", "")

    def test_domain_error_exit_1(self):
        code, _out, _err = invoke([
            "-p", "2", "verify-root", "--ring", "eq",
            "--poly", "X^2+X+t^(-1)", "--prefix", "t^(-1/2)", "--bound", "0"])
        assert code == 1

    def test_stalled_residual_is_domain_error(self):
        # after the term [1]*t^(-2) the residual valuation is still -2: one
        # stalled step, fatal at limit 1 and not at the default limit 3
        argv = ["newton-solve", "--ring", "eq",
                "--poly", "X^2+t^(-2)*X+[1]*t^(-2)", "--terms", "6"]
        assert invoke(["-p", "2", "--stall-limit", "1", *argv]) == (
            1, "", "error: residual valuation stalled at -2 after 1 steps\n")
        code, out, err = invoke(["-p", "2", *argv])
        assert (code, err) == (0, "") and out.count("branch ") == 2

    def test_nonprime_rejected(self):
        code, _out, _err = invoke(["-p", "4", "val", "t^(1)"])
        assert code == 2

    def test_l_max_below_one_is_usage_error(self):
        code, out, err = invoke(["-p", "2", "--l-max", "0", "normalize", "p+p"])
        assert (code, out, err) == (2, "", "error: l_max must be >= 1\n")

    def test_r_below_one_is_usage_error(self):
        code, out, err = invoke(["-r", "0", "val", "1"])
        assert (code, out, err) == (2, "", "error: r must be >= 1\n")

    @pytest.mark.parametrize("columns", [60, 80, 200])
    def test_unknown_verb_error_wraps_to_the_width(self, monkeypatch, columns):
        monkeypatch.setenv("COLUMNS", str(columns))
        code, out, err = invoke(["frobnicate"])
        assert (code, out) == (2, "")
        assert max(len(line) for line in err.splitlines()) <= columns
        words = err[err.index("hahnforge: error: "):].split()
        assert "'frobnicate'" in words
        # every verb is named whole, hyphenated ones unbroken
        assert all(f"'{verb}'," in words or f"'{verb}')" in words
                   for verb in cli._VERBS)

    @pytest.mark.parametrize("columns", [80, 200])
    @pytest.mark.parametrize("argv,help_argv,message", [
        (["newton-solve", "--poly", "X"], ["newton-solve", "-h"],
         "hahnforge newton-solve: error: the following arguments are required: --ring"),
        (["-p", "x", "val", "t"], ["-h"],
         "hahnforge: error: argument -p: invalid int value: 'x'"),
    ], ids=["missing-ring", "bad-p"])
    def test_short_usage_error_is_one_line(self, monkeypatch, columns, argv,
                                           help_argv, message):
        monkeypatch.setenv("COLUMNS", str(columns))
        usage = invoke(help_argv)[1].split("\n\n")[0]
        assert invoke(argv) == (2, "", f"{usage}\n{message}\n")

    def test_mixed_bases_rejected(self):
        code, _out, _err = invoke(["-p", "2", "add", "t^(1)", "p^(1)"])
        assert code == 2

    def test_deep_ordinal_is_domain_error(self):
        deep = "w^(" * 3000 + "1" + ")" * 3000
        code, out, err = invoke(["ordinal", "add", deep, "1"])
        assert code == 1 and out == ""
        assert err == "error: ordinal exponent depth exceeds 8\n"

    def test_recursion_error_is_domain_error(self, monkeypatch):
        def overflow(*_args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("hahnforge.cli._dispatch", overflow)
        code, _out, err = invoke(["ordinal", "add", "w", "1"])
        assert code == 1 and err.count("\n") == 1

    def test_memory_error_is_domain_error(self, monkeypatch):
        def exhaust(*_args):
            raise MemoryError()

        monkeypatch.setattr("hahnforge.indexcomb.reduce_index", exhaust)
        code, out, err = invoke(["reduce-index", "(3,1)"])
        assert (code, out, err) == (1, "", "error: out of memory\n")

    def test_negative_terms_is_domain_error(self):
        code, out, err = invoke(["certificate-check", "--cap", "1",
                                 "--terms", "-3", "1,1"])
        assert (code, out, err) == (1, "", "error: terms must be >= 0, got -3\n")


class TestDashValues:
    # the value follows the option as a separate argument and begins with '-'
    @pytest.mark.parametrize("option,argv", [
        ("--cap", ["certificate-check", "--cap", "-1/2", "1,1"]),
        ("--bound", ["-p", "2", "verify-root", "--ring", "eq",
                     "--poly", "X^2+X+t^(-1)", "--prefix", "t^(-1/2)+t^(-1/4)",
                     "--bound", "-1/4"]),
        ("--poly", ["-p", "2", "newton-solve", "--ring", "eq",
                    "--poly", "-X^2+X+t^(-1)", "--terms", "3"]),
        ("--prefix", ["-p", "3", "verify-root", "--ring", "padic",
                      "--poly", "X^2-p", "--prefix", "-[1]*p^(1/2)",
                      "--bound", "1"]),
    ], ids=["cap", "bound", "poly", "prefix"])
    def test_separate_value_matches_equals_form(self, option, argv):
        i = argv.index(option)
        glued = argv[:i] + [f"{option}={argv[i + 1]}"] + argv[i + 2:]
        result = invoke(argv)
        assert result[0] == 0 and result[1] and result == invoke(glued)

    def test_positional_after_double_dash(self):
        assert invoke(["-p", "3", "val", "--", "-t^(1/2)"]) == (0, "1/2\n", "")
        # after `--` an option name is a positional value, and nothing is glued
        code, out, err = invoke(["val", "--", "--cap", "-1"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: -1" in err


class TestArgvForms:
    """Forms the reader keeps or drops, beyond the README's grammar."""

    def test_prefix_of_an_option_is_not_the_option(self):
        # dropped: `--ca` is not read as `--cap`
        code, out, err = invoke(["certificate-check", "1,1", "--cap", "1",
                                 "--ca", "1"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --ca 1\n")

    def test_short_flag_with_attached_value_is_unknown(self):
        # dropped: `-p3` is not `-p 3`; `-p 3` and `-p=3` are the forms
        code, out, err = invoke(["-p3", "val", "t^(1)"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: -p3\n")
        assert invoke(["-p=3", "val", "t^(1)"]) == invoke(["-p", "3", "val", "t^(1)"])

    def test_flag_takes_no_value(self):
        code, out, err = invoke(["--json=1", "val", "t^(1)"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --json=1\n")

    def test_last_of_a_repeated_option_wins(self):
        solve = ["-p", "2", "newton-solve", "--ring", "eq", "--poly", "X^2+X+t^(-1)"]
        golden = (GOLDEN_DIR / "newton_eq_abhyankar.txt").read_text()
        assert invoke(solve + ["--terms", "2", "--terms", "3"]) == (0, golden, "")
        assert invoke(solve + ["--terms", "3", "--terms", "2"])[1] != golden
        # a shared flag after the verb counts as well
        assert invoke(["-p", "3", "val", "t^(-1/2)", "-p", "2"]) == (0, "-1/2\n", "")

    def test_negative_number_is_a_value(self):
        assert invoke(["pow", "t^(1)", "-1"]) == (
            1, "", "error: power exponent must be >= 0, got -1\n")
        # `-` and a digit is a value, so the series grammar reads it
        assert invoke(["val", "-1/2"]) == (
            2, "", "syntax error: trailing input at '/' (col 2)\n")


class TestCachedParser:
    """Every `run` call reads its own argv and writes to its own streams."""

    def test_interleaved_callers_keep_their_own_streams(self, capsys):
        argvs = [["-h"], ["val", "-h"], ["frobnicate"], ["-p", "x", "val", "t"]]
        callers = [(argvs, io.StringIO(), io.StringIO(), []),
                   (argvs[::-1], io.StringIO(), io.StringIO(), [])]
        for step in range(len(argvs)):
            for mine, out, err, codes in callers:
                codes.append(run(mine[step], out=out, err=err, stdin=io.StringIO()))
        for mine, out, err, codes in callers:
            alone = [invoke(argv) for argv in mine]
            assert codes == [code for code, _o, _e in alone]
            assert sorted(codes) == [0, 0, 2, 2]
            assert out.getvalue() == "".join(o for _c, o, _e in alone)
            assert err.getvalue() == "".join(e for _c, _o, e in alone)
        assert capsys.readouterr() == ("", "")

    def test_threads_keep_their_own_streams(self, capsys):
        # more threads than cores, and a short switch interval, so that the
        # threads switch inside parse_args; each thread has its own verb, so
        # text that reached another thread's streams would show
        verbs, loops = ("val", "pow", "add", "ordinal"), 20
        streams = {v: (io.StringIO(), io.StringIO()) for v in verbs}

        def work(verb):
            out, err = streams[verb]
            for _ in range(loops):
                for argv in ([verb], ["-h"], [verb, "-h"]):
                    run(argv, out=out, err=err, stdin=io.StringIO())

        threads = [threading.Thread(target=work, args=(v,)) for v in verbs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for verb, (out, err) in streams.items():
            assert out.getvalue() == (invoke(["-h"])[1] + invoke([verb, "-h"])[1]) * loops
            assert err.getvalue() == invoke([verb])[2] * loops
            assert f"usage: hahnforge {verb} " in err.getvalue()
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["-h"], ["newton-solve", "-h"]],
                             ids=["top", "verb"])
    def test_help_follows_columns_per_call(self, monkeypatch, argv):
        screens = []
        for columns in ("60", "200", "60"):
            monkeypatch.setenv("COLUMNS", columns)
            screens.append(invoke(argv))
        assert screens[0] != screens[1] and screens[2] == screens[0]

    def test_usage_error_leaves_no_state(self):
        for name, argv in CASES:
            assert invoke(["-p", "x"] + argv)[0] == 2
            assert invoke(argv) == (0, (GOLDEN_DIR / f"{name}.txt").read_text(), "")

    def test_flags_do_not_carry_into_the_next_call(self):
        two = ["normalize", "[1]*p^(0) + [1]*p^(0) + O(p^(2))"]
        plain = (0, "[1]*p^(1) + O(p^(2))\n", "")
        assert invoke(two) == plain
        assert invoke(["-p", "5", "--json"] + two) == (
            0, '{"cap": [2, 1], "digits": [[0, 1, "2"], [1, 1, "4"]]}\n', "")
        assert invoke(two) == plain
        solve = ["-p", "2", "newton-solve", "--ring", "eq", "--poly", "X^2+X+t^(-1)"]
        assert invoke(solve + ["--terms", "3"]) == (
            0, (GOLDEN_DIR / "newton_eq_abhyankar.txt").read_text(), "")
        usage = invoke(["newton-solve", "-h"])[1].split("\n\n")[0]
        assert invoke(solve) == (2, "", f"{usage}\nhahnforge newton-solve: error: "
                                        "the following arguments are required: --terms\n")


class TestPow:
    def test_large_exponent_is_logarithmic(self, monkeypatch):
        # About 12 ms on a 2-vCPU VM; multiplying n times would take about
        # 100 s.  The product count is the exact check, the budget a loose one.
        products = []
        mul = PHahn.__mul__

        def counting_mul(a, b):
            products.append(1)
            return mul(a, b)

        monkeypatch.setattr(PHahn, "__mul__", counting_mul)
        start = time.perf_counter()
        code, out, err = invoke(["-p", "2", "pow", "[1]*p^(1) + O(p^(3))",
                                 "1000000"])
        elapsed = time.perf_counter() - start
        assert code == 0, err
        assert out == "[1]*p^(1000000) + O(p^(1000002))\n"
        assert len(products) <= 2 * (1000000).bit_length()
        assert elapsed < 2.0


class TestStdinBatch:
    def test_reduce_index_batch(self):
        code, out, _ = invoke(["reduce-index", "-p", "2", "-"],
                              stdin_text="(2)\n(0,2)\n(0,1,2)\n")
        assert code == 0
        assert out.splitlines() == ["()", "(1)", "(1)"]

    def test_prediction_batch(self):
        code, out, _ = invoke(["prediction-check", "-"],
                              stdin_text="3\nw\nw^(w)\n")
        assert out.splitlines() == ["consistent", "contradicts", "contradicts"]
        assert code == 0

    SERIES_BATCHES = [
        (["-p", "2", "normalize", "-"],
         "t^(-1/2) + t^(1/4)\n\n[1]*p^(-1/2) + [1]*p^(-1/2) + O(p^(3))\n",
         ["[1]*t^(-1/2) + [1]*t^(1/4)", "[1]*p^(1/2) + O(p^(3))"],
         ['{"cap": null, "terms": [[-1, 2, "1"], [1, 4, "1"]]}',
          '{"cap": [3, 1], "digits": [[1, 2, "1"]]}']),
        (["-p", "2", "val", "-"],
         "t^(-1/2) + t^(1/4)\n  [1]*p^(1/3) + O(p^(2))  \n",
         ["-1/2", "1/3"],
         ['{"valuation": "-1/2"}', '{"valuation": "1/3"}']),
        # a zero below its cap has no digit entries: no text line at all
        (["-p", "3", "decompose", "-"],
         "[2] + [1]*p^(1) + O(p^(3))\nO(p^(2))\n",
         ["q=0 offset=0 unit=2 prec=3"],
         ['{"cap": "3", "entries": [[0, 1, 0, "2", 3]]}',
          '{"cap": "2", "entries": []}']),
    ]

    @pytest.mark.parametrize("argv,stdin_text,text,as_json", SERIES_BATCHES,
                             ids=["normalize", "val", "decompose"])
    def test_series_batch(self, argv, stdin_text, text, as_json):
        code, out, err = invoke(argv, stdin_text)
        assert (code, err) == (0, "") and out.splitlines() == text
        code, out, err = invoke(["--json"] + argv, stdin_text)
        assert (code, err) == (0, "") and out.splitlines() == as_json

    def test_empty_batch_prints_nothing(self):
        assert invoke(["-p", "3", "decompose", "-"], "O(p^(2))\n") == (0, "", "")
        assert invoke(["--json", "val", "-"], "\n\n") == (0, "", "")

    @pytest.mark.parametrize("flags,want", [
        ([], ["1/3", "-1/2", "2", "0", "3"]),
        (["--json"], ['{"valuation": "%s"}' % v for v in ("1/3", "-1/2", "2", "0", "3")]),
    ], ids=["text", "json"])
    def test_results_are_written_as_lines_are_read(self, flags, want):
        class SourceStopped(Exception):
            pass

        def source():
            yield from ["[1]*p^(1/3)\n", "\n", "t^(-1/2) + t^(1/4)\n",
                        "  [1]*p^(2) + O(p^(3)) \n", "1\n", "t^(3)\n"]
            raise SourceStopped

        # every line before the failing read has its result in `out`
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(SourceStopped):
            run(flags + ["-p", "2", "val", "-"], out=out, err=err, stdin=source())
        assert out.getvalue().splitlines() == want and err.getvalue() == ""


def package_modules_after(code):
    """The package's modules in sys.modules after `code` runs in a fresh
    interpreter, as a set of their names."""
    src = pathlib.Path(cli.__file__).parents[1]
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sorted("
         "m for m in sys.modules if m.split('.')[0] == 'hahnforge')))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    return set(done.stdout.split())


CLI_BASE = {"hahnforge", "hahnforge.cli", "hahnforge.errors", "hahnforge.exactnum"}


def run_in_fresh(*argv):
    return f"import io, hahnforge.cli as c; c.run({list(argv)!r}, io.StringIO(), io.StringIO())"


class TestColdStart:
    def test_import_loads_no_dataclasses_inspect_or_json(self):
        # nor argparse, or the gettext it imports: the CLI reads argv itself
        src = pathlib.Path(cli.__file__).parents[1]
        done = subprocess.run(
            [sys.executable, "-c", "import sys, hahnforge.cli; print(sorted("
             "m for m in ('dataclasses', 'inspect', 'json', 'argparse', 'gettext') "
             "if m in sys.modules))"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")

    def test_import_loads_only_errors_and_exactnum(self):
        assert package_modules_after("import hahnforge.cli") == CLI_BASE

    @pytest.mark.parametrize("argv", [["-h"], ["frobnicate"], ["normalize", "-h"],
                                      ["-p", "x", "val", "t"]],
                             ids=["help", "unknown-verb", "verb-help", "bad-p"])
    def test_help_and_usage_errors_load_nothing_more(self, argv):
        assert package_modules_after(run_in_fresh(*argv)) == CLI_BASE

    def test_normalize_loads_no_newton_indexcomb_or_ordinal(self):
        loaded = package_modules_after(run_in_fresh("-p", "3", "normalize", "1+p^(1)"))
        assert loaded == CLI_BASE | {"hahnforge.parsing", "hahnforge.series",
                                     "hahnforge.hahn_padic"}

    def test_ordinal_loads_no_ring(self):
        loaded = package_modules_after(run_in_fresh("ordinal", "add", "w", "w"))
        assert loaded == CLI_BASE | {"hahnforge.parsing", "hahnforge.ordinal"}

    def test_each_handler_binds_its_modules_in_the_cli(self):
        # the stand-ins give way to the modules themselves on first use
        loaded = package_modules_after(
            run_in_fresh("-p", "2", "certificate-check", "1,0,1", "--cap", "1")
            + "\nimport sys"
            "\nassert c.indexcomb is sys.modules['hahnforge.indexcomb']"
            "\nassert c.parsing is sys.modules['hahnforge.parsing']"
            "\nassert type(c.newton).__name__ == '_OnFirstUse'")
        assert "hahnforge.newton" not in loaded


class TestPayloadOnlyUnderJson:
    def test_text_mode_builds_no_json_payload(self, monkeypatch):
        def refuse(value):
            raise RuntimeError("a JSON payload was built in text mode")

        monkeypatch.setattr(cli, "_series_json", refuse)
        argv = ["-p", "2", "certificate-check", "1,0,1", "--cap", "1"]
        assert invoke(argv) == (
            0, (GOLDEN_DIR / "certificate_quadratic.txt").read_text(), "")
        assert invoke(["normalize", "-"], "[1]*p^(0) + [1]*p^(0) + O(p^(3))\n") == (
            0, "[1]*p^(1) + O(p^(3))\n", "")


class TestSeriesBase:
    @pytest.mark.parametrize("verb", ["add", "mul"])
    @pytest.mark.parametrize("lhs,rhs", [("t", "p"), ("p", "t")])
    def test_operands_of_different_bases_are_a_syntax_error(self, verb, lhs, rhs):
        assert invoke(["-p", "3", verb, lhs, rhs]) == (
            2, "", "syntax error: operands use different bases (col 0)\n")


class TestClosedPipe:
    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        # 20,000 output lines are far more than a pipe buffer holds, so the
        # command is still printing when its reader goes away
        batch = tmp_path / "batch.txt"
        batch.write_text("".join(f"[1]*p^({i % 7}) + O(p^({i % 7 + 3}))\n"
                                 for i in range(20000)))
        src = pathlib.Path(cli.__file__).parents[1]
        with open(batch, "rb") as stdin:
            proc = subprocess.Popen(
                [sys.executable, "-m", "hahnforge.cli", "-p", "2", "normalize", "-"],
                stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)})
            first = proc.stdout.readline()
            proc.stdout.close()
            # wait before reading stderr: a child that never exits then fails
            # the test at the timeout instead of hanging it
            try:
                code = proc.wait(timeout=60)
            finally:
                proc.kill()
            err = proc.stderr.read()
            proc.stderr.close()
        assert first == b"[1] + O(p^(3))\n"
        assert b"Traceback" not in err
        assert code == 1


class TestConfigFile:
    def test_env_defaults_apply(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"p": 3, "output": "json"}))
        monkeypatch.setenv("HAHNFORGE_CONFIG", str(cfgfile))
        code, out, _ = invoke(["normalize", "2*p^(0) + O(p^(4))"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"digits", "cap"}
        assert payload["digits"][0] == [0, 1, "2"]   # p=3 digits of 2

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"p": 3}))
        monkeypatch.setenv("HAHNFORGE_CONFIG", str(cfgfile))
        code, out, _ = invoke(["-p", "2", "val", "t^(-1/2)"])
        assert code == 0 and out.strip() == "-1/2"

    @pytest.mark.parametrize("text,message", [
        ("5", "the config must be a JSON object"),
        ("[1, 2]", "the config must be a JSON object"),
        ('{"p": "3"}', "config key 'p' must be of type int, got '3'"),
        ('{"r": true}', "config key 'r' must be of type int, got True"),
        ('{"stall_limit": 2.0}',
         "config key 'stall_limit' must be of type int, got 2.0"),
        ('{"output": 5}', "config key 'output' must be of type str, got 5"),
    ], ids=["int", "list", "str", "bool", "float", "output"])
    def test_bad_config_type_is_usage_error(self, tmp_path, monkeypatch, text,
                                            message):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(text)
        monkeypatch.setenv("HAHNFORGE_CONFIG", str(cfgfile))
        # rejected even where a flag would override the value
        assert invoke(["-p", "2", "-r", "1", "val", "t^(1)"]) == (
            2, "", f"error: bad config file: {message}\n")

    def test_bad_config_is_usage_error(self, tmp_path, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"nope": 1}))
        monkeypatch.setenv("HAHNFORGE_CONFIG", str(cfgfile))
        assert invoke(["val", "t^(1)"])[0] == 2

    def test_witt_length_is_not_a_cli_setting(self, tmp_path, monkeypatch):
        # normalize sizes its Witt rings from the cap, so no verb reads L
        assert invoke(["-p", "2", "-L", "8", "val", "t^(1)"])[0] == 2
        code, _out, err = invoke(["-p", "2", "val", "t^(1)", "-L", "8"])
        assert code == 2
        assert "unrecognized arguments: -L 8" in err
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"L": 8}))
        monkeypatch.setenv("HAHNFORGE_CONFIG", str(cfgfile))
        assert invoke(["val", "t^(1)"]) == (
            2, "", "error: bad config file: unknown config keys: ['L']\n")


class TestParseExamples:
    def test_two_term_padic_literal(self):
        cfg = PrimeConfig.make(2)
        ast = parse_series("[1]*p^(-1/2) + [1]*p^(-1/4)")
        v = series_to_phahn(ast, cfg)
        assert [e for e, _ in v.digits] == [Fr(-1, 2), Fr(-1, 4)]

    def test_implied_unit_coefficient(self):
        cfg = PrimeConfig.make(3)
        v = series_to_eq(parse_series("t^(-1)"), cfg)
        assert v.terms == ((Fr(-1), cfg.fq(1)),)

    def test_f4_coefficient_roundtrip(self):
        cfg = PrimeConfig.make(2, r=2)
        text = "[g+1]*t^(1/3) + O(t^(2))"
        v = series_to_eq(parse_series(text), cfg)
        assert format_series(v, "t") == text

    def test_unary_minus_binds_to_rational(self):
        v = parse_rational("-1/2")
        assert v == Fr(-1, 2)
        ast = parse_series("t^(-1/2)")
        assert ast[2][0][2] == Fr(-1, 2)

    def test_poly_grammar(self):
        ast = parse_poly("X^2 - t*X - t")
        assert ast[1] == "t"
        assert sorted(x for *_h, x in ast[2]) == [0, 1, 2]


def random_ast(rng):
    base = rng.choice("tp")
    n_terms = rng.randrange(1, 5)
    terms = []
    exp_pool = sorted({Fr(n, d) for n in range(-8, 9) for d in (1, 2, 3, 4)})
    for _ in range(n_terms):
        sign = rng.choice((1, -1))
        if rng.random() < 0.5:
            coeff = ("int", rng.randrange(0, 30))
        else:
            gpows = sorted(rng.sample(range(4), rng.randrange(1, 3)),
                           reverse=True)
            coeff = ("fq", tuple((rng.randrange(1, 7), gp) for gp in gpows))
        terms.append((sign, coeff, rng.choice(exp_pool)))
    cap = rng.choice(exp_pool) if rng.random() < 0.5 else None
    # a constant expression prints without any base token, so base 'p' would
    # not survive the trip; keep at least one base-bearing atom
    if base == "p" and cap is None and all(t[2] == 0 for t in terms):
        sign, coeff, _ = terms[0]
        terms[0] = (sign, coeff, Fr(1, 2))
    return ("series", base, tuple(terms), cap)


class TestRoundTrip:
    def test_ast_print_parse_fuzz(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            ast = random_ast(rng)
            text = format_ast(ast)
            again = parse_series(text)
            assert again == ast, text

    @pytest.mark.parametrize("p,r", [(2, 1), (3, 2), (5, 1)])
    def test_canonical_value_roundtrip(self, p, r):
        cfg = PrimeConfig.make(p, r)
        rng = random.Random(p + r)
        exp_pool = sorted({Fr(n, d) for n in range(-6, 7) for d in (1, 2, 3)})
        for _ in range(300):
            exps = sorted(rng.sample(exp_pool, rng.randrange(0, 4)))
            digits = []
            for e in exps:
                n = rng.randrange(1, cfg.q)
                vec = []
                for _i in range(cfg.r):
                    vec.append(n % cfg.p)
                    n //= cfg.p
                if any(vec):
                    digits.append((e, cfg.fq(vec)))
            from hahnforge.hahn_padic import PHahn
            value = PHahn(cfg, tuple(digits), Fr(8))
            text = format_series(value, "p")
            parsed = series_to_phahn(parse_series(text), cfg)
            assert parsed == value
            assert format_series(parsed, "p") == text


# the fuzz below builds argv from these pools: good and bad values of every
# kind, and small ints only, so that no budget a large value needs is reached
FUZZ_SERIES = ["t^(-1/2)+t^(1/4)", "[1]*p^(-1/2) + O(p^(2))", "[g+1]*t^(1/3)",
               "O(t^(1))", "2*p^(0) + O(p^(4))", "t^(", "[1]*q^(1)", "1", "-"]
FUZZ_POLYS = ["X^2+X+t^(-1)", "X^2-X-p^(-1)", "X^2-p", "X^2+X+1", "X^2+", "X"]
FUZZ_RATIONALS = ["-1/4", "0", "1/2", "2", "1/0", "x"]
FUZZ_INTS = ["-1", "0", "1", "2", "3", "4"]
FUZZ_ORDINALS = ["w", "w^(2)*3 + w", "5", "w^(", "w*", "-"]
FUZZ_VECTORS = ["(0,2)", "(1)", "(3,1)", "(1,", "()", "-"]
# each verb's arguments in order, one pool per token; verify-root glues its
# last value so that the whole call fits in 8 tokens
FUZZ_SHAPES = {
    "normalize": [FUZZ_SERIES],
    "val": [FUZZ_SERIES],
    "decompose": [FUZZ_SERIES],
    "add": [FUZZ_SERIES, FUZZ_SERIES],
    "mul": [FUZZ_SERIES, FUZZ_SERIES],
    "pow": [FUZZ_SERIES, FUZZ_INTS],
    "newton-solve": [["--ring"], ["eq", "padic"], ["--poly"], FUZZ_POLYS,
                     ["--terms", "--cap"], FUZZ_INTS + FUZZ_RATIONALS],
    "verify-root": [["--ring"], ["eq", "padic"], ["--poly"], FUZZ_POLYS,
                    ["--prefix"], FUZZ_SERIES,
                    ["--bound=" + b for b in FUZZ_RATIONALS]],
    "reduce-index": [FUZZ_VECTORS],
    "enumerate-class": [FUZZ_VECTORS, ["--sigma-max"], FUZZ_INTS],
    "certificate-check": [["1,0,1", "2,1", "1", "1,x"], ["--cap"], FUZZ_RATIONALS],
    "ordinal": [["add", "mul", "cmp", "pow"], FUZZ_ORDINALS, FUZZ_ORDINALS],
    "order-type-replicate": [FUZZ_ORDINALS],
    "prediction-check": [FUZZ_ORDINALS],
}
FUZZ_FLAGS = {"-p": ["2", "3", "4", "-1"], "-r": ["0", "1", "2", "3"],
              "--l-max": ["0", "2", "4"], "--max-degree": ["0", "2", "4"],
              "--stall-limit": ["0", "1", "3"], "--terms": FUZZ_INTS}
FUZZ_STDIN = ["", "t^(1)\n", "[1]*p^(0) + O(p^(2))\n\n(0,2)\n", "w\n5\n",
              "t^(\n"]


def fuzz_argv():
    """Up to 8 tokens: a verb with its arguments drawn from the pools and
    shared flags around it, cut at 8; or tokens drawn from all pools in no
    order at all."""
    flag = st.sampled_from(sorted(FUZZ_FLAGS)).flatmap(
        lambda f: st.sampled_from(FUZZ_FLAGS[f]).map(lambda v: [f, v]))
    extra = st.one_of(flag, st.sampled_from(["--json", "-h", "--"]).map(lambda w: [w]))
    call = st.sampled_from(sorted(FUZZ_SHAPES)).flatmap(
        lambda verb: st.tuples(*map(st.sampled_from, FUZZ_SHAPES[verb])).map(
            lambda args: [verb, *args]))
    shaped = st.tuples(st.lists(flag, max_size=1), call.map(lambda c: [c]),
                       st.lists(extra, max_size=2))
    tokens = sorted({t for shape in FUZZ_SHAPES.values() for pool in shape
                     for t in pool} | set(FUZZ_SHAPES) | set(FUZZ_FLAGS))
    return st.one_of(
        shaped.map(lambda parts: [t for chunks in parts for chunk in chunks
                                  for t in chunk][:8]),
        st.lists(st.sampled_from(tokens), max_size=8))


class TestNeverATraceback:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(fuzz_argv(), st.sampled_from(FUZZ_STDIN))
    def test_every_argv_ends_in_an_exit_code(self, argv, stdin_text):
        code, _out, err = invoke(argv, stdin_text)
        assert code in (0, 1, 2, 3)
        if code in (1, 3):
            assert err.endswith("\n") and err.count("\n") == 1, err
