"""lkbrep benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --all [--seed <n>] [--seconds <s>]

One workload run starts fresh worker processes (the library memoises per
process, and a CLI user pays those cold caches on every invocation), runs
the workload's ops back to back as one closed-loop client for --seconds of
op time, and checks every output after the timed section.  Set-up time is
sampled in several extra workers that only import the library and make
the inputs.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Op times are reported in reference loops: an op's latency divided by the
time of a fixed loop of plain Python (worker.reference_loop) that a timer
runs every 10 ms inside the op, in the op's own thread, and once after it;
the samples' own time is left out of the latency.  The host this runs on
is shared, and the speed it gives one process drifts by half and more
within a second and between minutes; the ratio moves with lkbrep's own
cost and far less with the host.  Set-up time is scaled the same way and
given in seconds at the loop's idle speed.  The raw medians, in ms, are
printed on the line before the result.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
ops of an untraced pass of half the run are repeated with every layer
boundary wrapped in spans, and the metrics are the per-layer ones plus
the tracing overhead.  --all runs every workload both ways and prints a
table.  The first stdout line records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workloads gated by BENCHMARK.json; arrangements-h1-wide runs only in --all
GATED = ("verify-sweep", "braid-words", "arrangements-h1", "arrangements-build")

END_TO_END = [
    # op times are in reference loops: latency / time of the benchmark's
    # fixed reference loop run beside the op (worker.reference_loop)
    ("ok_per_kloop", "1/kloop"),  # correct ops per 1000 reference loops of op time
    ("op_p50_loops", "loops"),    # latency of correct ops
    ("op_p90_loops", "loops"),
    ("ok_share", "share"),   # correct ops / attempted ops (1 - fail_share)
    ("setup_s", "s"),        # worker start until lkbrep imported and inputs made
    ("peak_rss_mb", "MB"),   # peak resident memory of a timed worker
]
PER_LAYER_UNITS = [(m, unit) for m, unit, _, _ in PER_LAYER] + [
    ("trace.wall_s", "s"),            # op time of the traced pass
    ("trace.overhead_share", "share"),  # (traced - untraced) / untraced op time
]
SETUP_SAMPLES = 6     # set-up-only workers per run, besides the timed ones
DEADLINE_S = 170      # a run ends within this, worker time included
# nominal time of one reference loop, the tenth percentile of its time on
# an idle core of a 2-core x86 Xeon host; setup_s is set-up time in
# reference loops, given in seconds at this speed
REFERENCE_LOOP_S = 0.0005


class BenchError(RuntimeError):
    pass


def commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {"python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
            "commit": commit(), "seed": seed, "loadavg": os.getloadavg()}


class Runner:
    """Starts the worker processes of one run, one after another, and keeps
    the set-up time each of them reports."""

    def __init__(self, wl, seed, tiny, workdir, deadline):
        self.wl, self.seed, self.tiny = wl, seed, tiny
        self.workdir, self.deadline = workdir, deadline
        self.setups = []

    def spawn(self, *extra):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", self.wl.name,
               "--seed", str(self.seed), "--workdir", self.workdir, *extra]
        if self.tiny:
            cmd.append("--tiny")
        started = time.monotonic()
        left = self.deadline - started
        if left <= 0:
            raise BenchError("run deadline passed")
        try:
            # a fixed hash seed keeps set and dict orders, and so the work
            # done, the same from run to run
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=left,
                                  env=dict(os.environ, PYTHONHASHSEED="0"))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.wl.name} worker did not finish within {left:.0f} s") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{self.wl.name} worker exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # (wall seconds, reference loops) from start to ready
        setup = result["ready_at"] - started
        self.setups.append((setup, (setup - result["setup_ref_s"]) / result["setup_reference_s"]))
        return result

    def sample_setup(self):
        for _ in range(SETUP_SAMPLES):
            self.spawn("--setup-only")

    def timed_pass(self, seconds, ops=None, spans=None):
        """Worker results of one pass: `seconds` of op time, or `ops` ops."""
        extra = ["--spans", spans] if spans else []
        if not self.wl.one_op_per_process:
            budget = ["--max-ops", str(ops)] if ops else ["--seconds", str(seconds)]
            return [self.spawn(*budget, *extra)]
        results, busy = [], 0.0
        while True:
            results.append(self.spawn("--max-ops", "1", "--start", str(len(results)), *extra))
            latency = results[-1]["ops"][0][0]
            busy += latency
            # start another only if it should fit the budget
            if len(results) == ops or (ops is None and busy + latency > seconds):
                return results


def _ops(results):
    """[latency, reference-loop time, attempted, failed] of every op of a pass."""
    return [op for r in results for op in r["ops"]]


def counts(results):
    ops = _ops(results)
    return sum(op[2] for op in ops), sum(op[3] for op in ops)


def loops(op):
    """An op's latency in reference loops timed beside it."""
    return op[0] / op[1]


def end_to_end(results, setups):
    ops = _ops(results)
    attempted, failed = counts(results)
    ok = [op for op in ops if op[3] == 0] or ops
    rel = [loops(op) for op in ok]
    return {
        "ok_per_kloop": 1000 * sum(op[3] == 0 for op in ops) / sum(loops(op) for op in ops),
        "op_p50_loops": statistics.median(rel),
        "op_p90_loops": (statistics.quantiles(rel, n=10, method="inclusive")[8]
                         if rel[1:] else rel[0]),
        "ok_share": (attempted - failed) / attempted,
        "setup_s": REFERENCE_LOOP_S * statistics.median(loops for _, loops in setups),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }


def raw_times(results, setups):
    """Median latency of correct ops, of one reference loop and of set-up,
    in ms: the unscaled times behind the metrics, printed beside the result."""
    ops = _ops(results)
    ok = [op for op in ops if op[3] == 0] or ops
    return {"op_p50_ms": 1000 * statistics.median(op[0] for op in ok),
            "reference_loop_ms": 1000 * statistics.median(op[1] for op in ops),
            "setup_ms": 1000 * statistics.median(wall for wall, _ in setups)}


def per_layer(base, traced):
    out = {}
    for r in traced:
        for metric, value in r["layers"].items():
            if metric in ("ring.max_coeff_bits", "ring.max_terms"):
                out[metric] = max(out.get(metric, 0), value)
            else:
                out[metric] = out.get(metric, 0) + value
    out["trace.wall_s"] = sum(op[0] for op in _ops(traced))
    # in reference loops, so that a change of host speed between the
    # passes does not show as overhead
    base_loops = sum(loops(op) for op in _ops(base))
    out["trace.overhead_share"] = sum(loops(op) for op in _ops(traced)) / base_loops - 1
    return out


def run_workload(name, seed, seconds, trace, tiny=False):
    """The result object of one run (end-to-end metrics, or per-layer ones
    when traced) and the raw times of its untraced ops."""
    wl = WORKLOADS[name]
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{name}")
    os.makedirs(workdir)
    try:
        runner = Runner(wl, seed, tiny, workdir, time.monotonic() + DEADLINE_S)
        if trace:
            base = runner.timed_pass(seconds / 2)
            traced = runner.timed_pass(None, ops=len(_ops(base)),
                                       spans=os.path.join(WORK, f"spans-{name}.bin"))
            values, units, results = per_layer(base, traced), PER_LAYER_UNITS, base + traced
        else:
            runner.sample_setup()
            results = base = runner.timed_pass(seconds)
            values, units = end_to_end(results, runner.setups), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted, failed = counts(results)
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units}},
            raw_times(base, runner.setups))


def print_table(name, seed, seconds, plain, raw, traced):
    wl = WORKLOADS[name]
    print(f"\n== {name}: {wl.why}")
    print(f"   seed {seed}, {seconds} s of op time; ops attempted {plain['attempted']}, "
          f"failed {plain['failed']}, fail_share {plain['failed'] / plain['attempted']:.4f}")
    for metric, m in plain["metrics"].items():
        print(f"   {metric:<34} {m['value']:>14.6g} {m['unit']}")
    for metric, value in raw.items():
        print(f"   {metric:<34} {value:>14.6g} ms (raw)")
    wall = traced["metrics"]["trace.wall_s"]["value"]
    print(f"   per layer (traced pass; % of trace.wall_s = {wall:.3f} s)")
    for metric, m in traced["metrics"].items():
        share = f"{100 * m['value'] / wall:6.1f}%" if m["unit"] == "s" and wall else ""
        print(f"   {metric:<34} {m['value']:>14.6g} {m['unit']:<6} {share}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smallest inputs, for the tests")
    args = p.parse_args(argv)
    if not args.all and not args.workload:
        p.error("give --workload or --all")
    if not os.path.exists(os.path.join(ROOT, "src", "lkbrep", "__init__.py")):
        print(f"no lkbrep sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(args.seed)}))
    try:
        if not args.all:
            result, raw = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                       args.tiny)
            print(json.dumps({"raw": raw}))
            print(json.dumps(result))
            return 0
        for name in list(GATED) + ["arrangements-h1-wide"]:
            plain, raw = run_workload(name, args.seed, args.seconds, 0, args.tiny)
            traced, _ = run_workload(name, args.seed, args.seconds, 1, args.tiny)
            print_table(name, args.seed, args.seconds, plain, raw, traced)
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
