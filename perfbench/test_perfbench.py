"""Tests of the benchmark itself: its oracles reject corrupted outputs, the
traced replay reproduces the untraced outputs, and BENCHMARK.json lists the
metrics the runner emits.

    python3 -m pytest perfbench
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as runner  # noqa: E402
import sets  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hahnforge import exactnum, hahn_padic  # noqa: E402
from hahnforge.hahn_padic import PHahn  # noqa: E402

SEED = 7


def first_list(name, only=None):
    """(items, outputs) of list 0 of a workload, every output passing its oracle."""
    workload = workloads.WORKLOADS[name](ROOT, SEED)
    items = [i for i in workload.items(0) if only is None or only(i)]
    outputs = [i.run() for i in items]
    assert all(runner.verdicts(items, outputs))
    return items, outputs


def failed_after_corrupting(run, pick, change):
    """Outputs the oracles reject once the first output matching `pick` is changed."""
    items, outputs = run
    outputs = list(outputs)
    index = next(i for i, item in enumerate(items) if pick(item))
    outputs[index] = change(outputs[index])
    return runner.verdicts(items, outputs).count(False)


def flip_last_digit(res):
    code, text = res
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return code, text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def test_cli_golden_checker():
    run = first_list("cli_golden")
    pick = lambda i: i.key == "normalize_padic_int"  # noqa: E731
    assert failed_after_corrupting(run, pick, flip_last_digit) == 1


def test_series_stream_checker_normalize_digit():
    run = first_list("series_stream")

    def flip_first_digit(res):
        code, text = res
        # in F_3 the nonzero digits 1 and 2 swap
        return code, re.sub(r"\[([12])\]",
                            lambda m: "[2]" if m.group(1) == "1" else "[1]", text, count=1)

    pick = lambda i: i.meta == {"p": 3, "r": 1, "verb": "normalize",  # noqa: E731
                                "family": "batch_p"}
    assert failed_after_corrupting(run, pick, flip_first_digit) == 1


def test_series_stream_checker_library_product():
    run = first_list("series_stream")

    def flip_leading_digit(res):
        (e, d), rest = res.digits[0], res.digits[1:]
        return PHahn(res.cfg, ((e, d + d),) + rest, res.cap)

    pick = lambda i: i.meta == {"p": 3, "r": 1, "verb": "mul",  # noqa: E731
                                "family": "library_p"}
    assert failed_after_corrupting(run, pick, flip_leading_digit) == 1


def test_series_stream_checker_wrong_lift(monkeypatch):
    """A `teichmueller` that returns the naive lift (not multiplicative) makes
    the p-adic normalize outputs wrong; the oracle, whose lifts are its own,
    must count them failed."""
    workload = workloads.WORKLOADS["series_stream"](ROOT, SEED)
    items = [i for i in workload.items(0)
             if i.meta["verb"] == "normalize" and i.meta["family"] == "batch_p"]
    assert runner.verdicts(items, [i.run() for i in items]).count(False) == 0

    def naive_lift(a, prec=None):
        return a.cfg.witt(list(a.coeffs), prec=a.cfg.L if prec is None else prec)

    monkeypatch.setattr(hahn_padic, "teichmueller", naive_lift)
    monkeypatch.setattr(exactnum, "teichmueller", naive_lift)
    outputs = []
    for item in items:
        try:
            outputs.append(item.run())
        except Exception as exc:
            outputs.append(("raised", type(exc).__name__, str(exc)))
    assert runner.verdicts(items, outputs).count(False) > len(items) // 2


def test_certificate_ladder_checker():
    run = first_list("certificate_ladder", only=lambda i: i.rung in ("p2_d4", "p3_d2"))

    def bump_coefficient(res):
        code, text = res
        head, _, value = text.rstrip("\n").rpartition(": ")
        return code, f"{head}: {int(value) + 1}\n"

    assert failed_after_corrupting(run, lambda i: i.rung == "p3_d2", bump_coefficient) == 1


def test_newton_roots_checker_bound():
    run = first_list("newton_roots")

    def raise_bound(res):
        code, text = res
        return code, re.sub(r"\(bound ([^,]+),",
                            lambda m: f"(bound {Fraction(m.group(1)) + 1},", text, count=1)

    pick = lambda i: i.meta["family"] == "eq_quadratic_p2"  # noqa: E731
    assert failed_after_corrupting(run, pick, raise_bound) == 1


def test_newton_roots_checker_deviation():
    run = first_list("newton_roots")

    def drop_deviation_term(res):
        code, text = res
        # branch 2 is the root without a constant term; its first digit past
        # the headline series sits at 1/2 - 1/4
        first, alpha = text.splitlines()
        return code, f"{first}\n{alpha.replace(' + [1]*p^(1/4)', '')}\n"

    pick = lambda i: i.key.endswith("X^2-X-p^(-1) --cap 1/2")  # noqa: E731
    assert failed_after_corrupting(run, pick, drop_deviation_term) == 1


@pytest.mark.parametrize("name", ["cli_golden", "series_stream", "newton_roots"])
def test_traced_replay_reproduces_outputs(name):
    workload = workloads.WORKLOADS[name](ROOT, SEED)
    plain = runner.Loop(workload)
    plain.run_pass(0)
    tracer = tracing.Tracer()
    traced = runner.Loop(workload, tracer, reference=plain)
    original = exactnum.teichmueller
    uninstall = tracer.install()
    try:
        assert hahn_padic.teichmueller is not original
        traced.run_pass(0)
    finally:
        uninstall()
    assert hahn_padic.teichmueller is original
    assert plain.failed == 0 and traced.attempted == plain.attempted
    assert traced.failed == 0          # every traced output equals the untraced one
    metrics = tracer.layer_metrics(1, sum(traced.passes[0].raw))
    assert metrics["cli.run.calls"] > 0
    assert metrics["cli.run.self_s"] > 0


def test_replay_counts_a_changed_output():
    workload = workloads.WORKLOADS["cli_golden"](ROOT, SEED)
    loop = runner.Loop(workload)
    loop.run_pass(0)
    outputs, ok = loop.expected[0]
    loop.expected[0] = ([(1, "")] + outputs[1:], ok)
    loop.run_pass(0)
    assert loop.failed == 1


def test_benchmark_json_lists_every_emitted_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    loop = runner.Loop(workloads.WORKLOADS["cli_golden"](ROOT, SEED))
    loop.run_pass(0)
    emitted = runner.end_to_end(loop, 0.05)
    assert [m["name"] for m in spec["end_to_end"]] == list(emitted)
    assert all(m["unit"] == emitted[m["name"]]["unit"] for m in spec["end_to_end"])
    specs = tracing.metric_specs(workloads.LADDER_RUNGS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == specs


def write_set(path, collection, seeds, wall):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with open(path, "w", encoding="utf-8") as fh:
        for seed in seeds:
            metrics = {m["name"]: {"value": wall + seed / 1000, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
            fh.write(json.dumps({"workload": "cli_golden", "seed": seed,
                                 "collection": collection, "result": result}) + "\n")


def test_compare_needs_one_collection_and_common_seeds(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_set(a, "one", range(1, 11), 1.0)
    write_set(b, "two", range(1, 11), 0.5)
    with pytest.raises(SystemExit):
        sets.main(["compare", str(a), str(b)])
    write_set(b, "one", range(11, 21), 0.5)
    sets.main(["compare", str(a), str(b)])
    assert "no seed run on both sides" in capsys.readouterr().out
    write_set(b, "one", range(1, 11), 0.5)
    sets.main(["compare", str(a), str(b)])
    row = capsys.readouterr().out.splitlines()[-1]
    assert row.startswith("| cli_golden (10 pairs) |") and "**improved**" in row
