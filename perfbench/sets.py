"""Result sets: collect a base and a change alternately, report spread, compare.

    python3 perfbench/sets.py collect --base DIR --change DIR --out-base A.jsonl
                                      --out-change B.jsonl [--workloads w1,w2]
                                      [--seeds 1-10]
    python3 perfbench/sets.py spread A.jsonl
    python3 perfbench/sets.py compare A.jsonl B.jsonl

`collect` runs perfbench/run.py of two checkouts, the base (parent) and the
change, with BENCHMARK.json's run_seconds and tracing off.  It alternates
them seed by seed and swaps which side runs first from one seed to the next,
so slow periods of the host fall on both sides alike; every run appends one
JSON line (meta and result lines, run duration, side, order and the id of
the collection) to its side's file.  Give the same checkout as base and
change to see how far two sets of unchanged code differ.  `spread` prints,
per workload and end-to-end metric, the median, the quartiles and the
interquartile range as a share of the median, against the metric's bound
from BENCHMARK.json.  `compare` refuses sets that one `collect` did not
write together, pairs runs by seed, and prints one row per workload: for
each end-to-end metric the medians and quartiles of the base set A and the
changed set B and a verdict -- improved, within bound, worse or unresolved
-- by the pairing rule of the choosing-metrics method: B improves when it
wins at least nine tenths of the pairs and the medians differ by more than
A's own interquartile range; a metric whose spread in A exceeds its bound is
unresolved unless every B run beats every A run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(root, name, seed, seconds):
    """One trace-0 run of the benchmark of checkout `root`; None if it failed."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        print(f"{root} {name} seed {seed}: exit {done.returncode}\n{done.stderr}",
              file=sys.stderr)
        return None
    return {"workload": name, "seed": seed, "run_s": time.perf_counter() - start,
            "meta": json.loads(lines[-2])["meta"], "result": json.loads(lines[-1])}


def collect(args):
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    sides = [("base", Path(args.base).resolve(), args.out_base),
             ("change", Path(args.change).resolve(), args.out_change)]
    collection = uuid.uuid4().hex
    files = {side: open(out, "a", encoding="utf-8") for side, _, out in sides}
    try:
        for n, seed in enumerate(parse_seeds(args.seeds)):
            # workloads interleaved, so slow periods of the host spread over
            # all; the side that runs first swaps from one seed to the next
            for name in names:
                for order, (side, root, _) in enumerate(sides[::-1] if n % 2 else sides):
                    record = run_once(root, name, seed, spec["run_seconds"])
                    if record is None:
                        continue
                    record.update(side=side, order=order, collection=collection)
                    files[side].write(json.dumps(record) + "\n")
                    files[side].flush()
                    res = record["result"]
                    print(f"{side} {name} seed {seed}: attempted {res['attempted']} "
                          f"failed {res['failed']} in {record['run_s']:.1f} s",
                          file=sys.stderr)
    finally:
        for fh in files.values():
            fh.close()


def load_set(path):
    """{workload: {seed: result}} and the set of collection ids in the file."""
    runs, collections = {}, set()
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
            collections.add(rec.get("collection"))
    return runs, collections


def summary(values):
    """(median, q1, q3) in the quartile convention of statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(args):
    spec = load_spec()
    runs, _ = load_set(args.set)
    print("| workload | metric | runs | median | q1 | q3 | spread | bound | flag |")
    print("|---|---|---|---|---|---|---|---|---|")
    for name, by_seed in runs.items():
        results = list(by_seed.values())
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med, q1, q3 = summary(values)
            share = (q3 - q1) / med
            flag = "over" if share > m["bound"] else \
                ("wide" if share > m["bound"] / 3 else "ok")
            print(f"| {name} | {m['name']} | {len(values)} | {med:.6g} | {q1:.6g} | "
                  f"{q3:.6g} | {share:.3%} | {m['bound']} | {flag} |")
        print(f"| {name} | fail_frac | {len(results)} | {failed}/{attempted} | | | | | "
              f"{'ok' if failed == 0 else 'FAILED'} |")


def verdict(a, b, bound, better):
    """Verdict of set B against base set A for one metric (lists paired by seed)."""
    sign = 1 if better == "lower" else -1
    a_med, a_q1, a_q3 = summary(a)
    b_med, _, _ = summary(b)
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if wins >= 0.9 * len(a) and sign * (a_med - b_med) > a_q3 - a_q1:
        return "improved"
    if (a_q3 - a_q1) / a_med > bound and not all_better:
        return "unresolved"
    if sign * (b_med - a_med) / a_med > bound:
        return "worse"
    return "within bound"


def compare(args):
    spec = load_spec()
    (base, base_ids), (new, new_ids) = load_set(args.base), load_set(args.new)
    if None in base_ids or base_ids != new_ids:
        sys.exit("compare: the sets were not collected together by one "
                 "`sets.py collect --base ... --change ...`; host speed drifts "
                 "between collections, so their difference is not the change's")
    metrics = spec["end_to_end"]
    print("| workload | " + " | ".join(m["name"] for m in metrics) + " | fail_frac |")
    print("|---" * (len(metrics) + 2) + "|")
    for name in base:
        common = sorted(set(base[name]) & set(new.get(name, {})))
        if not common:
            print(f"| {name} | no seed run on both sides |")
            continue
        a_runs = [base[name][s] for s in common]
        b_runs = [new[name][s] for s in common]
        cells = []
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in a_runs]
            b = [r["metrics"][m["name"]]["value"] for r in b_runs]
            am, aq1, aq3 = summary(a)
            bm, bq1, bq3 = summary(b)
            cells.append(f"{am:.4g} [{aq1:.4g}, {aq3:.4g}] -> {bm:.4g} [{bq1:.4g}, "
                         f"{bq3:.4g}] {(bm - am) / am:+.1%} "
                         f"**{verdict(a, b, m['bound'], m['better'])}**")
        fails = [f"{sum(r['failed'] for r in runs) / sum(r['attempted'] for r in runs):.3g}"
                 for runs in (a_runs, b_runs)]
        print(f"| {name} ({len(common)} pairs) | " + " | ".join(cells) +
              f" | {' -> '.join(fails)} |")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--base", required=True, help="checkout of the parent commit")
    c.add_argument("--change", required=True, help="checkout of the change")
    c.add_argument("--out-base", required=True)
    c.add_argument("--out-change", required=True)
    c.add_argument("--workloads")
    c.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("set")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new")
    args = ap.parse_args(argv)
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
