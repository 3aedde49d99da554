"""hahnforge benchmark: one workload, one closed-loop process, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One caller sends the next item only after the
previous one returns; a pass is the workload's whole item list and passes
repeat until `--seconds` of timed work is spent.  Every output is checked
against an independent oracle between passes, outside the timed region.
The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one `{"meta": ...}` line (git sha, Python version, nproc, seed,
input mix, raw timings).  Timings are rescaled to a reference host speed
(hostspeed.py), read before each pass and after every SEGMENT_S of items,
because the host's own speed drifts by up to a factor of two.  `--trace 0`
reports the end-to-end metrics; `--trace 1` replays the untraced passes
with spans around every layer and reports per-layer metrics, writing the
spans to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from hostspeed import REFERENCE_S, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 15
POOL = 16

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import hahnforge.cli
from hahnforge.exactnum import PrimeConfig
for p, r in {fields!r}:
    PrimeConfig.make(p, r)
print(repr(time.perf_counter() - t0))
"""


def setup_seconds(fields):
    """Median time, in fresh interpreters, to import the CLI and build the
    configs, rescaled by the host speed read right before and after each
    interpreter; also the median of the raw times."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = reference_seconds()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD.format(fields=fields)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        after = reference_seconds()
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * 2 * REFERENCE_S / (before + after))
    return statistics.median(scaled), statistics.median(raw)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdicts(items, outputs):
    """Per item, whether its output passes its oracle (a raised item never does)."""
    out = []
    for item, res in zip(items, outputs):
        if isinstance(res, tuple) and res and res[0] == "raised":
            out.append(False)
            continue
        try:
            out.append(bool(item.check(res)))
        except Exception:  # the oracle rejected a malformed output
            out.append(False)
    return out


@dataclass
class Pass:
    times: list                   # rescaled seconds per item, in run order
    raw: list                     # measured seconds per item
    rungs: dict                   # rung label -> rescaled seconds of its items

    @property
    def seconds(self):
        return sum(self.times)


class Loop:
    """Closed loop over POOL seeded item lists; pass n runs list n mod POOL.

    The first outputs of each list go through the items' oracles; every later
    pass of that list must reproduce them exactly, so each output is checked
    at the cost of a comparison.  Checks run between passes, outside the
    timed region.  A loop built with `reference=` replays the reference's
    lists and compares with its outputs (the traced run).

    The host's speed is read (hostspeed.reference_seconds) before a pass and
    after every stretch of items that took SEGMENT_S or more, outside the
    timed items; each item's time is rescaled by the mean of the readings at
    the two ends of its stretch.
    """

    SEGMENT_S = 0.2

    def __init__(self, workload, tracer=None, reference=None):
        self.workload = workload
        self.tracer = tracer
        self.replay = reference is not None
        self.lists = reference.lists if reference else {}        # k -> items
        self.expected = reference.expected if reference else {}  # k -> (outputs, verdicts)
        self.failed = 0
        self.attempted = 0
        self.mix = {key: Counter() for key in ("p", "r", "verb", "family")}
        self.passes = []
        self.samples = {}         # id(item) -> its rescaled seconds in every pass
        self.readings = []        # every reference_seconds() reading

    def run_pass(self, k):
        if k not in self.lists:
            self.lists[k] = self.workload.items(k)
        items = self.lists[k]
        outputs, raw, times = [], [], []
        clock = time.perf_counter
        tracer = self.tracer
        # every pass starts from the same collector state, and the cyclic
        # collector scans only what the pass itself allocates
        gc.collect()
        gc.freeze()
        before = reference_seconds()
        self.readings.append(before)
        segment = 0.0
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.item_id = i
            t0 = clock()
            try:
                res = item.run()
            except Exception as exc:  # a crash is a failed item, not a dead run
                res = ("raised", type(exc).__name__, str(exc))
            t1 = clock()
            outputs.append(res)
            raw.append(t1 - t0)
            segment += t1 - t0
            if segment >= self.SEGMENT_S or i == len(items) - 1:
                after = reference_seconds()
                self.readings.append(after)
                scale = 2 * REFERENCE_S / (before + after)
                times.extend(t * scale for t in raw[len(times):])
                before, segment = after, 0.0
        if tracer is not None:
            tracer.end_pass()
        if k in self.expected:
            ref, ok = self.expected[k]
            self.failed += sum(not (v and a == b) for a, b, v in zip(outputs, ref, ok))
        else:
            ok = verdicts(items, outputs)
            self.expected[k] = (outputs, ok)
            self.failed += ok.count(False)
        self.attempted += len(items)
        rungs = Counter()
        for item, t in zip(items, times):
            self.samples.setdefault(id(item), []).append(t)
            for key, counter in self.mix.items():
                counter[str(item.meta[key])] += 1
            if item.rung:
                rungs[item.rung] += t
        self.passes.append(Pass(times, raw, rungs))

    def run_for(self, seconds):
        """Passes until `seconds` of timed work is spent (at least one pass); a
        replay stops after the reference's last list."""
        spent = 0.0
        n = 0
        while not self.replay or n < len(self.lists):
            self.run_pass(n % POOL)
            n += 1
            last = sum(self.passes[-1].raw)
            spent += last
            if spent + last > seconds:
                return

    def input_mix(self):
        return {key: {k: round(v / self.attempted, 4) for k, v in sorted(c.items())}
                for key, c in self.mix.items()}

    def rung_seconds(self):
        """Median over passes of each rung's time."""
        per = {}
        for p in self.passes:
            for rung, t in p.rungs.items():
                per.setdefault(rung, []).append(t)
        return {rung: statistics.median(ts) for rung, ts in per.items()}


def end_to_end(loop, setup_s):
    """Item percentiles are taken over items, each at its median over the
    passes that ran it, so noise inside a run does not reorder items."""
    item_ms = [statistics.median(ts) * 1e3 for ts in loop.samples.values()]
    values = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(p.seconds for p in loop.passes), "s"),
        "item_ms_p50": (percentile(item_ms, 50), "ms"),
        "item_ms_p90": (percentile(item_ms, 90), "ms"),
        "item_ms_p99": (percentile(item_ms, 99), "ms"),
        "top_rung_s": (statistics.median(max(p.times) for p in loop.passes), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hahnforge").is_dir():
        print(f"perfbench: no package source at {ROOT / 'src' / 'hahnforge'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import tracing
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    except OSError as exc:
        print(f"perfbench: missing workload input: {exc}", file=sys.stderr)
        return 2
    fields = workload.fields()

    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "seconds": args.seconds}
    from hahnforge.exactnum import PrimeConfig
    for p, r in fields:
        PrimeConfig.make(p, r)

    if args.trace == 0:
        setup_s, meta["raw_setup_s"] = setup_seconds(fields)
        loop = Loop(workload)
        loop.run_for(args.seconds)
        metrics = end_to_end(loop, setup_s)
        failed, attempted = loop.failed, loop.attempted
    else:
        loop = Loop(workload)
        loop.run_for(args.seconds / 2)
        tracer = tracing.Tracer()
        traced = Loop(workload, tracer, reference=loop)
        uninstall = tracer.install()
        try:
            traced.run_for(args.seconds / 2)
        finally:
            uninstall()
        # traced outputs were compared with the untraced ones of the same lists
        failed = loop.failed + traced.failed
        attempted = loop.attempted + traced.attempted
        n = len(traced.passes)
        values = tracer.layer_metrics(n, sum(sum(p.raw) for p in traced.passes))
        values["trace.overhead_frac"] = (
            statistics.median(p.seconds for p in traced.passes)
            / statistics.median(p.seconds for p in loop.passes[:n]) - 1)
        rungs = loop.rung_seconds()
        for rung in workloads.LADDER_RUNGS:
            values[f"certificate_ladder.rung.{rung}_s"] = rungs.get(rung, 0.0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracing.metric_specs(workloads.LADDER_RUNGS)}
        tracer.write(OUT_DIR / f"spans-{args.workload}-s{args.seed}.tsv")

    meta["passes"] = len(loop.passes)
    meta["raw_wall_s"] = statistics.median(sum(p.raw) for p in loop.passes)
    meta["reference_ms"] = statistics.median(loop.readings) * 1e3
    meta["input_mix"] = loop.input_mix()
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
