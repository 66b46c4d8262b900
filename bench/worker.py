"""One benchmark worker: a fresh process that imports lkbrep from the
checkout, makes the workload's inputs, runs ops back to back (one
closed-loop client) and checks their outputs after the timed section.

Prints one JSON object as its last stdout line.  Started by run.py.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import types

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = ("ring", "linalg", "complexes", "homology", "action", "arrangement", "cli")


def import_lkbrep():
    """The lkbrep modules from the checkout's src/, never an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import importlib

    lkbrep = importlib.import_module("lkbrep")
    if not os.path.abspath(lkbrep.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"lkbrep imported from {lkbrep.__file__}, not from {src}")
    return types.SimpleNamespace(**{name: importlib.import_module(f"lkbrep.{name}")
                                    for name in LAYERS})


# wall time between two reference samples inside an op
REFERENCE_EVERY_S = 0.01


def reference_loop():
    """A fixed loop of dict and int work, about half a millisecond, that
    calls nothing of lkbrep.  Its time tracks the speed the host gives this
    process, which other tenants of the machine change by half and more,
    for fractions of a second up to minutes."""
    d = {}
    for i in range(2500):
        k = i * 7919 % 1009
        d[k] = d.get(k, 0) + i * i
    return d


class Reference:
    """Samples the reference loop's time every REFERENCE_EVERY_S while an
    op runs, from a SIGALRM handler in the op's own thread, so that the
    samples see the host's speed during the op itself."""

    def __init__(self):
        self.samples = []   # since the last op started
        self.spent = 0.0    # time of every sample so far
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def clock(self):
        """perf_counter less the time of every sample so far: the clock
        that op latencies and traced spans are read from."""
        spent = self.spent  # read first: a sample landing next adds to the reading
        return time.perf_counter() - spent

    def __enter__(self):
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def run_ops(wl, lk, specs, run, seconds, max_ops=None, start=0, ref=None):
    """Run ops on inputs start, start + 1, ... until their summed latency
    reaches `seconds` (at least one op), or exactly `max_ops` of them.
    An op's latency leaves out the reference samples taken inside it; its
    reference time is the mean of those samples and one taken right after
    it.  An exception of any type fails its op and the loop goes on.
    Returns [(spec index, latency, reference time, reduced, error)]."""
    records = []
    busy = 0.0
    ref = ref or Reference()
    while (len(records) < max_ops) if max_ops is not None else (not records or busy < seconds):
        idx = (start + len(records)) % len(specs)
        spec = specs[idx]
        t0 = ref.clock()
        try:
            with ref:
                raw = run(lk, spec)
            err = None
        except Exception as exc:
            raw, err = None, f"{type(exc).__name__}: {exc}"
        latency = ref.clock() - t0
        busy += latency
        ref.sample()
        reduced = None
        if err is None:
            try:
                reduced = wl.reduce(lk, spec, raw)
            except Exception as exc:
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        del raw
        records.append((idx, latency, statistics.fmean(ref.samples), reduced, err))
    return records


def check_ops(wl, lk, specs, records):
    """Per op: (latency, reference time, attempted units, failed units, message)."""
    check = wl.checker(lk)
    out = []
    for idx, latency, ref, reduced, err in records:
        if err is not None:
            out.append((latency, ref, wl.units_per_op, wl.units_per_op, err))
            continue
        try:
            attempted, failed, msg = check(specs[idx], reduced)
        except Exception as exc:
            attempted, failed, msg = wl.units_per_op, wl.units_per_op, f"check error: {exc!r}"
        out.append((latency, ref, attempted, failed, msg))
    return out


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--max-ops", type=int)
    p.add_argument("--start", type=int, default=0, help="index of the first input")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", help="trace the run and write its spans here")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    wl = WORKLOADS[args.workload]
    ref = Reference()
    with ref:
        lk = import_lkbrep()
        specs = wl.setup(lk, args.seed, args.tiny, args.workdir)
    ready_at = time.monotonic()
    # set-up is scaled like an op: the samples taken during it are left
    # out of its time, and their mean with one more is its reference time
    setup_ref_s = sum(ref.samples)
    ref.sample()
    setup = {"ready_at": ready_at, "setup_ref_s": setup_ref_s,
             "setup_reference_s": statistics.fmean(ref.samples)}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    run = wl.run
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer(clock=ref.clock)
        tracer.install({name: getattr(lk, name) for name in LAYERS})
        if tracer.missing:
            print(f"trace: not found, not traced: {tracer.missing}", file=sys.stderr)
        run = tracer.wrap("bench.op", run)
    records = run_ops(wl, lk, specs, run, args.seconds, args.max_ops, args.start, ref)
    result = dict(setup, rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if tracer is not None:  # before the checks, whose calls are not ops
        result["layers"] = tracer.metrics()
        tracer.write(args.spans)
    ops = check_ops(wl, lk, specs, records)
    for msg in [op[4] for op in ops if op[3]][:5]:
        print(f"{wl.name}: failed op: {msg}", file=sys.stderr)
    result["ops"] = [list(op[:4]) for op in ops]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
