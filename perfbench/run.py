"""Cold-start benchmark of ehrhil: each timed pass in a fresh interpreter.

One workload, as the benchmark driver runs it:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload, untraced, as one table; also rewrites BENCHMARK.json:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root; the library is imported from ./src.  Each
timed pass runs in a fresh interpreter (perfbench/child.py), one after
another: ehrhil is a single-threaded batch program, so the load is a closed
loop with one caller.  A run repeats cold passes until --seconds have gone
by (at least one pass), then starts set-up-only interpreters until it holds
SETUP_SAMPLES set-up times.  pass_s, peak_rss_mb and setup_s are medians
over the run's passes; an item's time is its median over the passes, and
item_s.p50 and item_s.tail are percentiles over the items.  Times are
scaled to a reference machine speed (see child.py); the unscaled wall
times are printed too.  With --trace 1 the run alternates untraced and
traced passes and reports the per-layer metrics of the traced ones
(perfbench/tracing.py), plus the tracing overhead.

The last line of output is one JSON object with the keys correct, attempted
and failed (checks, summed over the run's passes) and metrics.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_SECONDS = 20
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

WORKLOADS = {
    "suite": "the ten ROADMAP graphs x five kinds through the whole certify "
             "chain, edges flipped by the seed; exact-LP cell construction "
             "is about 95% of it",
    "certify": "the certify chain on the nine suite graphs besides K4: "
               "candidate filter, cell certification and vertex LPs",
    "dilate": "lattice-point counts and Hilbert values for k up to 40 on "
              "complexes built in set-up; no LP in the timed pass",
    "normal": "minimal monomial witnesses on homogenized complexes: "
              "thousands of small equality-constrained LPs",
    "pulling": "0/1 polytopes: face lattice, face() construction, pulling "
               "and the sampled compressedness test",
}
# A cold suite pass takes 45 s, so a run holds one; its item percentiles then
# follow the seed's orientation (one item's build varies up to 2x with it)
# and machine noise, beyond any bound.  The benchmark driver runs the
# others; `--all` and the trace self-check run the suite too.
DRIVER_WORKLOADS = ("certify", "dilate", "normal", "pulling")

# (name, unit, better, bound)
END_TO_END = (
    ("pass_s", "s", "lower", 0.2),
    ("item_s.p50", "s", "lower", 0.25),
    ("item_s.tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def manifest():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": WORKLOADS[n]}
                      for n in DRIVER_WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in tracing.per_layer_metrics()],
    }


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def tail_percentile(n):
    """The highest whole percentile with at least ten items beyond it."""
    return max((p for p in range(50, 100)
                if n - math.ceil(p * n / 100) >= 10), default=50)


def spawn(workload, seed, mode):
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed),
         repr(t0), mode],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} {mode} pass exited with "
                         f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run(workload, seed, seconds, trace):
    """Run cold passes for `seconds`; return the passes of each mode."""
    modes = ("pass", "trace") if trace else ("pass",)
    runs = {m: [] for m in modes}
    setups = []
    start = time.monotonic()
    i = 0
    while (time.monotonic() - start < seconds
           or not all(runs.values())):
        mode = modes[i % len(modes)]
        i += 1
        result = spawn(workload, seed, mode)
        runs[mode].append(result)
        if mode == "pass":
            setups.append(result)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup"))
    return runs, setups


def end_to_end(passes, setups):
    med = statistics.median
    item_s = [med(times) for times in zip(*(p["item_s"] for p in passes))]
    tail = tail_percentile(len(item_s))
    metrics = {
        "pass_s": med(p["pass_s"] for p in passes),
        "item_s.p50": percentile(item_s, 50),
        "item_s.tail": percentile(item_s, tail),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "setup_s": med(s["setup_s"] for s in setups),
    }
    return metrics, tail, len(item_s)


def per_layer(passes, traced):
    med = statistics.median
    metrics = {name: med(t["layers"][name] for t in traced)
               for name in traced[0]["layers"]}
    metrics["trace.pass_s"] = med(t["pass_s"] for t in traced)
    metrics["trace.untraced_pass_s"] = med(p["pass_s"] for p in passes)
    metrics["trace.overhead_s"] = (metrics["trace.pass_s"]
                                   - metrics["trace.untraced_pass_s"])
    return metrics


def layer_shares(layers):
    """Share of the traced self time that each layer and each span takes."""
    self_s = {span: layers[f"{span}.self_share"] for span in tracing.SPANS}
    total = sum(self_s.values()) or 1.0
    spans = {span: s / total for span, s in self_s.items()}
    shares = {}
    for span, share in spans.items():
        layer = span.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + share
    return shares, spans


def report(workload, seed, seconds, trace):
    """Print the run in words, then the result line; return the result."""
    runs, setups = run(workload, seed, seconds, trace)
    passes = runs["pass"]
    units = {n: u for n, u, *_ in END_TO_END}
    units.update((n, u) for n, u, _ in tracing.per_layer_metrics())
    e2e, tail, n_items = end_to_end(passes, setups)
    everything = [p for mode in runs.values() for p in mode]
    attempted = sum(p["attempted"] for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    print(f"{workload}, seed {seed}: {len(passes)} untraced pass(es), "
          f"{len(setups)} set-ups, {n_items} items per pass, "
          f"item_s.tail is p{tail}")
    for name, value in e2e.items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    med = statistics.median
    print(f"  unscaled wall time: pass {med(p['wall_s'] for p in passes):.6g} s"
          f", set-up {med(s['setup_wall_s'] for s in setups):.6g} s")
    print(f"  {'fail_ratio':<12} {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} checks)")
    for failure in sorted(set(failures)):
        print(f"  FAILED {failure}")
    metrics = e2e
    if trace:
        metrics = per_layer(passes, runs["trace"])
        shares, span_shares = layer_shares(metrics)
        print("  traced self time by layer: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda kv: -kv[1])))
        top = sorted(span_shares.items(), key=lambda kv: -kv[1])[:6]
        print("  by span: " + ", ".join(f"{s} {v:.1%}" for s, v in top))
        print(f"  tracing overhead {metrics['trace.overhead_s']:.4g} s "
              f"on {metrics['trace.untraced_pass_s']:.4g} s")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ehrhil" / "__init__.py").is_file():
        print(f"error: no ehrhil sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.all:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(manifest(), indent=2) + "\n")
        results = [report(w, args.seed, args.seconds, False)
                   for w in WORKLOADS]
        return 0 if all(r["correct"] for r in results) else 1
    if args.workload is None:
        parser.error("give --workload NAME or --all")
    print(json.dumps(report(args.workload, args.seed, args.seconds,
                            bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
