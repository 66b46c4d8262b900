"""Tests of the benchmark itself: python3 -m pytest bench/tests -q"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.GATED)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == run.PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.GATED)
def test_tiny_run_emits_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert set(json.loads(lines[-2])["raw"]) == {"op_p50_ms", "reference_loop_ms", "setup_ms"}
    assert set(env) == {"python", "nproc", "commit", "seed", "loadavg"} and env["seed"] == 3
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_verify_reaches_names_bound_by_other_modules():
    proc = bench("--workload", "verify-sweep", "--seed", "1", "--seconds", "0.5",
                 "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    m = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    # kernel_rank is called through the cli namespace, field_kernel_raw
    # through homology's, __rmul__ for int * polynomial
    assert m["homology.kernel_rank_s"] > 0 and m["linalg.kernel_s"] > 0
    assert m["ring.mul_calls"] > 0 and m["ring.div_calls"] > 0 and m["ring.rf_calls"] > 0
    header, spans = tracing.read_spans(os.path.join(BENCH, ".work", "spans-verify-sweep.bin"))
    assert len(spans) == header["count"] > 0
    assert all(parent < i for i, (_, parent, _, _, _) in enumerate(spans))
    assert all(end >= start for _, _, start, end, _ in spans)


def test_wrong_chamber_count_counts_as_failed():
    wl = workloads.WORKLOADS["arrangements-build"]
    lines = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 1)]
    good = checks.arrangement_counts(lines)
    assert good["chambers"] == 1 + 4 + 2 + 1 + 1
    bad = dict(good, chambers=good["chambers"] + 1)
    specs = [(lines, None), (lines, None)]
    ops = worker.check_ops(wl, None, specs, [(0, 0.1, 0.001, good, None),
                                             (1, 0.2, 0.001, bad, None)])
    assert [op[3] for op in ops] == [0, 1]
    metrics = run.end_to_end([{"ops": [list(op[:4]) for op in ops], "rss_mb": 1.0}],
                             [(0.1, 200)])
    assert metrics["ok_share"] == 0.5
    assert metrics["op_p50_loops"] == pytest.approx(100)  # only the correct op's latency


def test_h1_rank_and_torsion_are_checked():
    lines = [(1, 0, 0), (0, 1, 0)]
    got = dict(checks.arrangement_counts(lines), h1_rank=2, h1_torsion=[])
    assert checks.check_arrangement(lines, got, h1=True) == []
    assert checks.check_arrangement(lines, dict(got, h1_rank=3), h1=True)
    assert checks.check_arrangement(lines, dict(got, h1_torsion=[2]), h1=True)


def test_zaslavsky_matches_the_documented_example():
    # x=1, x=2, y=1, y=2, x-y=0: 12 chambers and 30 Salvetti edges
    counts = checks.arrangement_counts([(1, 0, 1), (1, 0, 2), (0, 1, 1), (0, 1, 2), (1, -1, 0)])
    assert counts["chambers"] == 12 and counts["sal_edges"] == 30


def test_an_exception_fails_its_op_and_the_run_goes_on():
    class Flaky(workloads.Workload):
        def run(self, lk, spec):
            if spec == 0:
                raise AssertionError("boom")
            return spec

        def reduce(self, lk, spec, raw):
            return raw

        def checker(self, lk):
            return lambda spec, reduced: (1, 0, None)

    wl = Flaky()
    records = worker.run_ops(wl, None, [0, 1, 2], wl.run, seconds=0, max_ops=3)
    assert "AssertionError: boom" in records[0][4]
    assert [op[3] for op in worker.check_ops(wl, None, [0, 1, 2], records)] == [1, 0, 0]


def test_op_time_leaves_out_the_reference_samples_taken_inside_it():
    class Sleepy(workloads.Workload):
        def run(self, lk, spec):
            t_end = time.perf_counter() + 0.1
            while time.perf_counter() < t_end:
                pass

        def reduce(self, lk, spec, raw):
            return raw

    wl = Sleepy()
    ref = worker.Reference()
    records = worker.run_ops(wl, None, [0], wl.run, seconds=0, max_ops=1, ref=ref)
    _, latency, reference, _, err = records[0]
    assert err is None
    # about 0.1 s / REFERENCE_EVERY_S samples were taken inside, one after
    assert len(ref.samples) >= 3
    assert latency == pytest.approx(0.1 - sum(ref.samples[:-1]), abs=0.01)
    assert reference == pytest.approx(sum(ref.samples) / len(ref.samples))


@pytest.fixture(scope="module")
def lk():
    return worker.import_lkbrep()


@pytest.mark.parametrize("name", run.GATED + ("arrangements-h1-wide",))
def test_inputs_come_from_the_seed(lk, name, tmp_path):
    wl = workloads.WORKLOADS[name]

    def data(seed):
        return [spec[0] if isinstance(spec, tuple) else spec
                for spec in wl.setup(lk, seed, False, str(tmp_path))]

    assert data(5) == data(5)
    assert data(5) != data(6)  # the verify sweep passes it to `verify --seed`


def test_braid_check_catches_a_wrong_entry(lk):
    wl = workloads.WORKLOADS["braid-words"]
    spec = ((1, -2, 2, 1), lk.action.BraidWord(3, (1, -2, 2, 1)))
    nums, den = wl.reduce(lk, spec, lk.action.lkb_word(spec[1]))
    check = wl.checker(lk)
    assert check(spec, (nums, den)) == (1, 0, None)
    nums[1][2] += 1
    assert check(spec, (nums, den))[1] == 1


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "braid-words", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
