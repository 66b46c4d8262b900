"""Workload definitions: seeded inputs, the op each input drives, and the
independent check of its output.

Every op calls the public library or the CLI entry point exactly as a user
would.  `reduce` runs between ops, outside the timed section, and keeps
only what the check needs; `check` runs after the timed section.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from checks import (
    PointEvaluator,
    WordProduct,
    arrangement_counts,
    check_arrangement,
    normalise_line,
)


def run_cli(lk, argv):
    """(exit code, stdout text) of one in-process CLI invocation."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = lk.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
    return rc, buf.getvalue()


class Workload:
    name = ""
    why = ""
    # ops counted per input: one per check row for the verify sweep
    units_per_op = 1
    # run each op in its own fresh worker process
    one_op_per_process = False

    def setup(self, lk, seed, tiny, workdir):
        """The op inputs, made from the seed alone."""
        raise NotImplementedError

    def run(self, lk, spec):
        raise NotImplementedError

    def reduce(self, lk, spec, raw):
        """What the check needs from the raw output."""
        raise NotImplementedError

    def checker(self, lk):
        """fn(spec, reduced) -> (attempted, failed, first failure message)."""
        raise NotImplementedError


class VerifySweep(Workload):
    name = "verify-sweep"
    why = ("the ROADMAP headline check, `lkbrep verify --max-n 4` in a cold process per "
           "sweep: Bareiss-heavy (kernel-rank-and-span), almost no Smith work, no arrangement code")
    units_per_op = 12
    one_op_per_process = True

    pool = 32
    # a sweep to 6 takes about 20 s and to 5 about 4 s, one or a few
    # samples a run; to 4 it takes about 1 s, some 20 sweeps a run, and
    # Bareiss elimination is still most of it (kernel_rank 2/3 of the
    # traced time, field_kernel_raw 2/5)
    max_n = 4

    def setup(self, lk, seed, tiny, workdir):
        # rows for n >= 4 only (eigen-structure) are not run below 4, so
        # tiny runs sweep to 4 as well
        return [["verify", "--max-n", str(self.max_n), "--seed", str(seed * self.pool + i),
                 "--format", "json"] for i in range(self.pool)]

    def run(self, lk, argv):
        return run_cli(lk, argv)

    def reduce(self, lk, argv, raw):
        rc, text = raw
        rows = json.loads(text)["rows"] if rc == 0 else []
        return rc, [(r["check"], r["passed"]) for r in rows]

    def checker(self, lk):
        def check(argv, reduced):
            rc, rows = reduced
            attempted = max(self.units_per_op, len(rows))
            if rc != 0:
                return attempted, attempted, f"exit code {rc}"
            bad = [name for name, passed in rows if passed is not True]
            failed = len(bad) + attempted - len(rows)
            return attempted, failed, f"rows not passed: {bad}" if failed else None
        return check


class BraidWords(Workload):
    name = "braid-words"
    why = ("random words, n=6, length 16, through action.lkb_word: long "
           "products of growing dense polynomials in the ring and Matrix.mul")
    pool = 2000

    def setup(self, lk, seed, tiny, workdir):
        n, length = (3, 4) if tiny else (6, 16)
        rng = random.Random(seed)
        letters = [k for k in range(1 - n, n) if k]
        words = [tuple(rng.choice(letters) for _ in range(length)) for _ in range(self.pool)]
        return [(w, lk.action.BraidWord(n, w)) for w in words]

    def run(self, lk, spec):
        return lk.action.lkb_word(spec[1])

    def reduce(self, lk, spec, m):
        # the frozen matrix wire format: every Laurent entry is {"terms": ...}
        entries = m.to_json_obj()["entries"]
        if any(set(e) != {"terms"} for row in entries for e in row):
            return "an entry is not a Laurent polynomial"
        return _evaluator.matrix(_term_maps(entries))

    def checker(self, lk):
        words = {}

        def check(spec, reduced):
            letters, word = spec
            if isinstance(reduced, str):
                return 1, 1, reduced
            if word.n not in words:
                gens = {}
                for k in range(1, word.n):
                    g = lk.action.lkb_generator(k, word.n).to_json_obj()["entries"]
                    nums, den = _evaluator.matrix(_term_maps(g))
                    gens[k] = [[Fraction(v, den) for v in row] for row in nums]
                words[word.n] = WordProduct(gens)
            bad = words[word.n].check(letters, *reduced)
            return 1, len(bad), bad[0] if bad else None
        return check


_evaluator = PointEvaluator()


def _term_maps(entries):
    """{(ex, ey): coefficient} per entry of a matrix in its JSON form."""
    return [[{(ex, ey): int(c) for ex, ey, c in e["terms"]} for e in row] for row in entries]


def _sizes(lo, hi, count):
    """Line counts cycling through lo..hi, so every run has the same mix."""
    return [lo + i % (hi - lo + 1) for i in range(count)]


def family_lines(rng, m):
    """m distinct lines x=c, y=c, x-y=c, x+y=c with |c| <= 3, spread over
    the four directions as evenly as m allows, so that arrangements of one
    size differ in where lines meet but not in how many are parallel.

    Every intersection point has denominator at most 2, so no edge probe of
    the facet enumeration can cross a line: these inputs stay clear of the
    chamber bug of ROADMAP item 1."""
    directions = [(1, 0), (0, 1), (1, -1), (1, 1)]
    rng.shuffle(directions)
    lines = []
    for k, (a, b) in enumerate(directions):
        count = m // 4 + (k < m % 4)
        lines += [(a, b, c) for c in rng.sample(range(-3, 4), count)]
    return lines


def wide_lines(rng, m, bound=50):
    """m distinct lines with integer coefficients in [-bound, bound]."""
    lines = []
    while len(lines) < m:
        a, b, c = (rng.randint(-bound, bound) for _ in range(3))
        if (a or b) and normalise_line(a, b, c) not in lines:
            lines.append(normalise_line(a, b, c))
    return lines


def chambers_lost(lines):
    """How many chambers the lines make fewer than lines in general
    position with the same parallel classes: one per vertex they lose to
    multiple points."""
    pairs = sum(a1 * b2 != a2 * b1 for i, (a1, b1, _) in enumerate(lines)
                for a2, b2, _ in lines[i + 1:])
    return 1 + len(lines) + pairs - arrangement_counts(lines)["chambers"]


def _arrangement_json(lines):
    return {"lines": [{"a": str(a), "b": str(b), "c": str(c)} for a, b, c in lines]}


class ArrangementsH1(Workload):
    name = "arrangements-h1"
    why = ("`lkbrep arrangement` on 5 lines, 3 in 4 inputs with a triple point: Smith "
           "normal form is most of an op from 5 lines on")
    pool = 400
    sizes = (5, 5)
    tiny_sizes = (3, 3)
    # chambers lost to multiple points, cycled over the inputs.  An op's
    # cost steps with the chamber count: on 5 lines, none lost costs about
    # 1.6 times one lost, and free draws give the two in near equal shares,
    # which puts the median on the step and lets it jump from seed to
    # seed.  This fixed mix keeps p50 and p90 inside the two groups.
    lost_cycle = (0, 1, 1, 1)

    def make_lines(self, rng, m):
        return family_lines(rng, m)

    def setup(self, lk, seed, tiny, workdir):
        rng = random.Random(seed)
        specs = []
        for i, m in enumerate(_sizes(*(self.tiny_sizes if tiny else self.sizes), self.pool)):
            lines = self.make_lines(rng, m)
            if self.lost_cycle:
                while chambers_lost(lines) != self.lost_cycle[i % len(self.lost_cycle)]:
                    lines = self.make_lines(rng, m)
            path = os.path.join(workdir, f"{self.name}-{i:04d}.json")
            with open(path, "w") as fh:
                json.dump(_arrangement_json(lines), fh)
            specs.append((lines, ["arrangement", "--input", path, "--format", "json"]))
        return specs

    def run(self, lk, spec):
        return run_cli(lk, spec[1])

    def reduce(self, lk, spec, raw):
        rc, text = raw
        if rc != 0:
            return f"exit code {rc}"
        out = json.loads(text)
        return {
            "chambers": out["facets"]["chambers"],
            "sal_vertices": out["salvetti"]["vertices"],
            "sal_edges": out["salvetti"]["edges"],
            "sal_two_cells": out["salvetti"]["two_cells"],
            "h1_rank": out["h1"]["rank"],
            "h1_torsion": out["h1"]["torsion"],
        }

    def checker(self, lk):
        def check(spec, reduced):
            if isinstance(reduced, str):
                return 1, 1, reduced
            bad = check_arrangement(spec[0], reduced, h1=True)
            return 1, len(bad), "; ".join(bad) or None
        return check


class ArrangementsH1Wide(ArrangementsH1):
    name = "arrangements-h1-wide"
    why = ("`lkbrep arrangement` on 3-7 lines with coefficients in [-50, 50]: "
           "shows the chamber bug (ROADMAP item 1) as failed ops; not gated")
    sizes = (3, 7)
    lost_cycle = None

    def make_lines(self, rng, m):
        return wide_lines(rng, m)


class ArrangementsBuild(Workload):
    name = "arrangements-build"
    why = ("build_facets + build_salvetti on 12 lines with many triple and "
           "quadruple points: the cyclic-order and wall scans, no Smith")
    pool = 400

    def setup(self, lk, seed, tiny, workdir):
        rng = random.Random(seed)
        specs = []
        for _ in range(self.pool):
            lines = family_lines(rng, 4 if tiny else 12)
            specs.append((lines, lk.arrangement.load_arrangement(_arrangement_json(lines))))
        return specs

    def run(self, lk, spec):
        fc = lk.arrangement.build_facets(spec[1])
        return fc, lk.arrangement.build_salvetti(fc)

    def reduce(self, lk, spec, raw):
        fc, sc = raw
        nv, ne, nc = sc.counts()
        return {"chambers": len(fc.chambers), "sal_vertices": nv,
                "sal_edges": ne, "sal_two_cells": nc}

    def checker(self, lk):
        def check(spec, reduced):
            bad = check_arrangement(spec[0], reduced)
            return 1, len(bad), "; ".join(bad) or None
        return check


WORKLOADS = {w.name: w for w in (VerifySweep(), BraidWords(), ArrangementsH1(),
                                  ArrangementsBuild(), ArrangementsH1Wide())}
