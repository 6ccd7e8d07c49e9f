"""One cold pass of one workload, in the fresh interpreter run.py starts.

    python3 perfbench/child.py WORKLOAD SEED T0 MODE

T0 is the starting program's ``time.monotonic()`` just before it started
this interpreter (the clock is system-wide), so ``setup_s`` covers the
interpreter start, the import of ``ehrhil``, input generation and whatever
the workload builds before its timed pass.  MODE is ``setup`` (stop before
the pass), ``pass`` or ``trace`` (a pass with the layer spans installed).
Prints one JSON object on its last line of output.

Speed scaling.  The machine the benchmark runs on is shared: for seconds
to minutes at a time the same code runs 30-60 % slower.  So a timer signal
runs a fixed pure-Python probe every PROBE_EVERY_S, wherever the program
is, and each timed interval is reported as its wall time minus the probes
inside it, times PROBE_REF_S over the median probe around it: wall seconds
at the speed where the probe takes PROBE_REF_S.  A change to ehrhil cannot
move the probe, so it moves the scaled times in full.  The raw wall times
are reported beside them.
"""

import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

PROBE_LOOPS = 40_000
PROBE_REF_S = 0.0022  # the probe on an undisturbed 2-vCPU x86 VM, Python 3.11
PROBE_EVERY_S = 0.05
SMOOTH_S = 0.25


def probe():
    """Seconds a fixed integer loop takes: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples taken on a timer signal, and intervals scaled by them."""

    def __init__(self):
        self.starts = []  # time.monotonic() at each probe's start
        self.seconds = []  # each probe's duration

    def _sample(self, *_):
        self.starts.append(time.monotonic())
        self.seconds.append(probe())

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def scaled(self, a, b):
        """Seconds of work in [a, b] at the reference speed.

        The speed is the median probe over [a, b] widened by SMOOTH_S on
        each side, so that one disturbed probe does not decide it.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        work = b - a - sum(self.seconds[lo:hi])
        first = min(bisect.bisect_left(self.starts, a - SMOOTH_S),
                    max(lo - 1, 0))
        last = max(bisect.bisect_right(self.starts, b + SMOOTH_S), hi + 1)
        return work * PROBE_REF_S / statistics.median(
            self.seconds[first:last])


SPEED = SpeedProbe()
ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = Path(__file__).resolve().parent / "out"


def require_cold():
    """No pass may start with a filled cache: it would time cache hits."""
    from ehrhil import graphs
    from ehrhil.constructions import build_family

    warm = [fn.__name__ for fn in (
        build_family, graphs.chromatic_bf, graphs.int_flow_bf,
        graphs.mod_flow_bf, graphs.int_tension_bf, graphs.mod_tension_bf)
        if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"caches not empty before the pass: {warm}")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, step, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{step}: {what}")


def run_pass(steps, tracer):
    """Run the steps; return the (start, end) of each and the checks."""
    checks = Checks()
    spans = []
    for step in steps:
        if tracer:
            tracer.step = step.id
        t = time.monotonic()
        try:
            step.run(lambda ok, what: checks.expect(step.id, ok, what))
        except Exception as exc:  # a library error fails this step only
            checks.expect(step.id, False, f"{type(exc).__name__}: {exc}")
        spans.append((t, time.monotonic()))
    return spans, checks


def main(argv):
    workload, seed, t0, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import workloads

    steps = workloads.SETUPS[workload](seed)
    require_cold()
    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    setup_end = time.monotonic()
    spans, checks = run_pass(steps, tracer) if mode != "setup" else ([], None)
    SPEED.stop()
    boot_s = SPEED.starts[0] - t0  # interpreter start, before any probe
    out = {"setup_wall_s": setup_end - t0,
           "setup_s": boot_s + SPEED.scaled(SPEED.starts[0], setup_end)}
    if checks:
        step_s = [SPEED.scaled(a, b) for a, b in spans]
        wall_s = sum(b - a for a, b in spans)
        out.update(wall_s=wall_s, pass_s=sum(step_s),
                   item_s=[s for s, step in zip(step_s, steps) if step.item],
                   peak_rss_mb=resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss / 1024,
                   attempted=checks.attempted, failures=checks.failures)
        if tracer:
            out["layers"] = tracer.metrics(wall_s)
            tracer.dump(SPAN_DIR / f"spans-{workload}-{seed}.jsonl")
    print(json.dumps(out))


if __name__ == "__main__":
    SPEED.start()  # before the import of ehrhil, which set-up includes
    sys.path.insert(0, str(ROOT / "src"))
    main(sys.argv[1:])
