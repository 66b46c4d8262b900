"""Command-line front end: construction, computation, and the full
verification suite, in plain text or machine-readable JSON.

Exit codes: 0 success, 1 a verification failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import arrangement as arr
from . import complexes as cx
from .action import (
    BraidWord,
    chain_action,
    check_braid_relations,
    eigen_structure_check,
    fork_basis_action,
    fork_in_e_basis,
    h1_action,
    homology_action,
    lkb_generator,
    lkb_generator_inverse,
    lkb_word,
    verify_fork_boundary,
)
from .complexes import label_str, pair_list, sal_an_mod_sigma2, sal_fn
from .homology import (
    h1_fn,
    integral_basis,
    kernel_rank,
    reduce_to_integral_basis,
    v_membership,
    verify_eta_triangular,
)
from .linalg import VerificationError
from .ring import LaurentPolynomial


def _write(args, text):
    text = text if text.endswith("\n") else text + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _emit(args, text_lines, json_obj):
    if args.format == "json":
        _write(args, json.dumps(json_obj, sort_keys=True))
    else:
        _write(args, "\n".join(text_lines))


def cmd_rep(args):
    n = args.n
    if args.word is not None:
        m = lkb_word(BraidWord.parse(n, args.word))
        title = f"word [{args.word.strip()}] on {m.nrows} basis vectors"
    elif args.k is not None:
        m = lkb_generator(args.k, n)
        title = f"generator {args.k} of the braid group on {n} strands"
    else:
        lines = []
        obj = {}
        for k in range(1, n):
            g = lkb_generator(k, n)
            lines += [f"generator {k}:", g.pretty(), ""]
            obj[f"generator_{k}"] = g.to_json_obj(label_to_str=str)
        _emit(args, lines, obj)
        return 0
    _emit(args, [title, m.pretty()], m.to_json_obj(label_to_str=str))
    return 0


def cmd_complex(args):
    n = args.n
    if args.quotient:
        c = sal_an_mod_sigma2(n)
        nv, ne, nc = c.counts()
        lines = [f"symmetric-quotient complex, n={n}",
                 f"vertices {nv}, edges {ne}, 2-cells {nc}"]
        _emit(args, lines, c.to_json_obj())
        return 0
    tc = sal_fn(n)
    lines = [f"one-vertex complex, n={n}",
             f"vertices 1, edges {len(tc.basis1)}, 2-cells {len(tc.basis2)}",
             "twisted boundary:"]
    d = tc.differential_matrix()
    for j, cell in enumerate(tc.basis2):
        terms = [f"({d.entries[i][j]})*{label_str(e)}"
                 for i, e in enumerate(tc.basis1) if d.entries[i][j]]
        lines.append(f"  d {label_str(cell)} = " + (" + ".join(terms) if terms else "0"))
    _emit(args, lines, tc.to_json_obj())
    return 0


def cmd_homology(args):
    n = args.n
    rank = kernel_rank(n)
    h1rank, torsion, relations = h1_fn(n)
    eta = verify_eta_triangular(n)
    lines = [
        f"n={n}",
        f"kernel rank over Q(x,y): {rank} (expected {n * (n - 1) // 2}); spanning cycles verified",
        f"H1 rank {h1rank}, torsion {torsion or 'none'}, relations "
        + ("all hold" if all(relations.values()) else "FAIL"),
        f"eta-triangular check: {'pass' if eta['passed'] else 'FAIL'} (size {eta['size']})",
        "integral basis leading cells: "
        + ", ".join(f"A({i},{j})" for i, j in sorted(integral_basis(n))),
    ]
    obj = {
        "n": n,
        "kernel_rank": rank,
        "h1": {"rank": h1rank, "torsion": torsion, "relations": relations},
        "eta_triangular": eta["passed"],
    }
    _emit(args, lines, obj)
    return 0


def cmd_action(args):
    n = args.n
    ks = [args.k] if args.k is not None else list(range(1, n))
    lines = []
    obj = {"n": n}
    for k in ks:
        endo = chain_action(k, n)
        hm = homology_action(k, n)
        h1 = h1_action(k, n)
        lines += [f"generator {k}: chain map verified, weights preserved",
                  f"  homology action matches the matrix form; first homology swaps "
                  f"classes {h1['swaps'][0]} and {h1['swaps'][1]}",
                  hm.pretty()]
        obj[f"generator_{k}"] = {
            "homology_matrix": hm.to_json_obj(label_to_str=str),
            "h1_transposition": list(h1["swaps"]),
            "c2_matrix": endo.c2_matrix().to_json_obj(label_to_str=label_str),
        }
    _emit(args, lines, obj)
    return 0


def cmd_fork(args):
    n = args.n
    pairs = [(args.p, args.q)] if args.p is not None and args.q is not None else pair_list(n)
    lines = [f"n={n}"]
    obj = {"n": n, "forks": {}}
    for p, q in pairs:
        coords = fork_in_e_basis(p, q, n)
        if q > p + 1:
            verify_fork_boundary(p, q, n)
        desc = " + ".join(f"({c})*E({i},{j})" for (i, j), c in sorted(coords.items()))
        lines.append(f"fork ({p},{q}): boundary identity ok, expansion {desc}")
        obj["forks"][f"{p},{q}"] = {f"{i},{j}": str(c) for (i, j), c in sorted(coords.items())}
    _emit(args, lines, obj)
    return 0


def cmd_arrangement(args):
    try:
        with open(args.input) as fh:
            data = json.load(fh)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{args.input}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except RecursionError:
        print(f"{args.input}: JSON nested too deeply to read", file=sys.stderr)
        return 2
    except ValueError as exc:  # the integer-digit limit, or bytes that are not text
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2
    try:
        lines_in = arr.load_arrangement(data)
        fc = arr.build_facets(lines_in)
    except ValueError as exc:
        print(f"{args.input}: {exc}", file=sys.stderr)
        return 2
    sc = arr.build_salvetti(fc)
    rank, torsion, relations = arr.salvetti_h1(sc)
    nv, ne, nc = sc.counts()
    lines = [
        f"lines {len(fc.lines)}",
        f"facets: vertices {len(fc.vertices)}, edges {len(fc.edges)}, chambers {len(fc.chambers)}",
        f"Salvetti cells: vertices {nv}, edges {ne}, 2-cells {nc}",
        f"H1 torsion {torsion or 'none'}",
        f"chambers {len(fc.chambers)}, edges(Sal) {ne}, H1 rank {rank}",
    ]
    obj = {
        "lines": len(fc.lines),
        "facets": {"vertices": len(fc.vertices), "edges": len(fc.edges),
                   "chambers": len(fc.chambers)},
        "salvetti": {"vertices": nv, "edges": ne, "two_cells": nc},
        "h1": {"rank": rank, "torsion": torsion,
               "opposite_edge_classes_agree": relations},
        "complex": sc.to_json_obj(),
    }
    _emit(args, lines, obj)
    return 0


def _verify_rows(max_n, seed):
    """Run every check for n = 2..max_n; yield (name, range, passed, witness)."""
    import random

    ns = range(2, max_n + 1)

    def differential_forms():
        from lkbrep.ring import ONE, X, Y

        for n in ns:
            tc = sal_fn(n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    want = cx.Chain(1, {cx.edge_a(j): X - 1, cx.edge_b(i): 1 - X})
                    if tc.d_cols[cx.cell_A(i, j)] != want:
                        return False, {"n": n, "cell": f"A({i},{j})"}
            for i in range(1, n + 1):
                forms = {
                    1: cx.Chain(1, {cx.edge_a(i): 1 - Y, cx.edge_c(i): -ONE,
                                    cx.edge_c(i + 1): X}),
                    2: cx.Chain(1, {cx.edge_a(i): -Y, cx.edge_b(i): Y,
                                    cx.edge_c(i): -ONE, cx.edge_c(i + 1): ONE}),
                    3: cx.Chain(1, {cx.edge_b(i): Y - 1, cx.edge_c(i): -X,
                                    cx.edge_c(i + 1): ONE}),
                }
                for r, want in forms.items():
                    if tc.d_cols[cx.cell_B(i, r)] != want:
                        return False, {"n": n, "cell": f"B({i},{r})"}
        return True, None

    def kernel():
        for n in ns:
            if kernel_rank(n) != n * (n - 1) // 2:
                return False, {"n": n}
        return True, None

    def eta():
        for n in ns:
            if not verify_eta_triangular(n)["passed"]:
                return False, {"n": n}
        return True, None

    def h1():
        for n in ns:
            rank, torsion, relations = h1_fn(n)
            if rank != n + 1 or torsion or not all(relations.values()):
                return False, {"n": n, "rank": rank, "torsion": torsion}
        return True, None

    def integral():
        rng = random.Random(seed)
        for n in ns:
            basis = integral_basis(n)  # integrality, cycle, dual form checked inside
            rounds = 100 if n <= 5 else 10
            for _ in range(rounds):
                lams = {}
                for p in pair_list(n):
                    t = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-5, 5)
                         for _ in range(rng.randint(0, 2))}
                    lams[p] = LaurentPolynomial(t)
                u = cx.Chain.combination(2, [(lams[p], basis[p]) for p in pair_list(n)])
                got = reduce_to_integral_basis(u, n)
                for p in pair_list(n):
                    if got.get(p, LaurentPolynomial()) != lams[p]:
                        return False, {"n": n, "pair": list(p)}
        return True, None

    def matrix_relations():
        for n in ns:
            gens = [lkb_generator(k, n) for k in range(1, n)]
            if not all(r["passed"] for r in check_braid_relations(gens)):
                return False, {"n": n}
            for k in range(1, n):
                lkb_generator_inverse(k, n)  # raises if entries leave the ring
        return True, None

    def chain_map():
        for n in ns:
            for k in range(1, n):
                chain_action(k, n)  # hard error on chain-map or weight failure
                h1_action(k, n)  # hard error unless a_k and a_(k+1) are swapped
        return True, None

    def homology_matches():
        # equal entries make the matrix-level relations hold here as well
        for n in ns:
            for k in range(1, n):
                homology_action(k, n)  # hard error on any mismatch
        return True, None

    def proper_submodule():
        from lkbrep.homology import integral_x

        applicable = [n for n in ns if n >= 3]
        if not applicable:
            return None, None
        for n in applicable:
            if v_membership(integral_x(1, 3, n), n) is not None:
                return False, {"n": n}
        return True, None

    def eigen():
        applicable = [n for n in ns if n >= 4]
        if not applicable:
            return None, None
        for n in applicable:
            if not eigen_structure_check(n)["passed"]:
                return False, {"n": n}
        return True, None

    def forks():
        applicable = [n for n in ns if n >= 3]
        if not applicable:
            return None, None
        for n in applicable:
            for p in range(1, n):
                for q in range(p + 2, n + 1):
                    verify_fork_boundary(p, q, n)
            for p, q in pair_list(n):
                fork_in_e_basis(p, q, n)
            gens = [fork_basis_action(k, n) for k in range(1, n)]
            if not all(r["passed"] for r in check_braid_relations(gens)):
                return False, {"n": n}
        return True, None

    def quotient():
        for n in [n for n in ns if n <= 5]:
            c = sal_an_mod_sigma2(n)  # validates closure on construction
            if len(c.vertices) != (n + 1) * (n + 2) // 2:
                return False, {"n": n}
        return True, None

    checks = [
        ("differential-closed-forms", differential_forms),
        ("kernel-rank-and-span", kernel),
        ("eta-triangular", eta),
        ("h1-rank-and-relations", h1),
        ("integral-basis", integral),
        ("matrix-braid-relations", matrix_relations),
        ("chain-map-and-weights", chain_map),
        ("homology-action-matches", homology_matches),
        ("proper-submodule", proper_submodule),
        ("eigen-structure", eigen),
        ("fork-classes", forks),
        ("quotient-complex", quotient),
    ]
    for name, fn in checks:
        try:
            passed, witness = fn()
        except VerificationError as exc:
            passed, witness = False, {"error": str(exc)}
        yield name, passed, witness


def cmd_verify(args):
    rows = []
    failed = None
    for name, passed, witness in _verify_rows(args.max_n, args.seed):
        rows.append({"check": name, "n": f"2..{args.max_n}", "passed": passed})
        if passed is False and failed is None:
            failed = {"check": name, "witness": witness}
    width = max(len(r["check"]) for r in rows)
    lines = [f"verification sweep, n = 2..{args.max_n}"]
    for r in rows:
        status = "n/a" if r["passed"] is None else ("pass" if r["passed"] else "FAIL")
        lines.append(f"  {r['check']:<{width}}  {status}")
    obj = {"max_n": args.max_n, "seed": args.seed, "rows": rows, "first_failure": failed}
    _emit(args, lines, obj)
    if failed:
        sys.stderr.write(json.dumps(failed, sort_keys=True, default=str) + "\n")
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lkbrep",
        description="Exact computations around the Lawrence-Krammer-Bigelow "
                    "braid representation and Salvetti complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_n=True):
        if with_n:
            p.add_argument("--n", type=int, default=4, help="strand count (default 4)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("rep", help="representation matrices")
    common(p)
    p.add_argument("--k", type=int, help="generator index")
    p.add_argument("--word", help="space-separated signed generator indices")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("complex", help="cell complexes and twisted boundary")
    common(p)
    p.add_argument("--quotient", action="store_true",
                   help="emit the symmetric-quotient complex instead")
    p.set_defaults(func=cmd_complex)

    p = sub.add_parser("homology", help="kernel rank, integral basis, first homology")
    common(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("action", help="chain-level and homology action of generators")
    common(p)
    p.add_argument("--k", type=int, help="generator index (default: all)")
    p.set_defaults(func=cmd_action)

    p = sub.add_parser("fork", help="standard fork classes")
    common(p)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.set_defaults(func=cmd_fork)

    p = sub.add_parser("arrangement", help="facets, Salvetti complex and H1 of a line arrangement")
    common(p, with_n=False)
    p.add_argument("--input", required=True, help="arrangement JSON file")
    p.set_defaults(func=cmd_arrangement)

    p = sub.add_parser("verify", help="run the full verification suite")
    common(p, with_n=False)
    p.add_argument("--seed", type=int, default=0, help="randomized-check seed (default 0)")
    p.add_argument("--max-n", dest="max_n", type=int, default=6,
                   help="largest strand count swept (default 6)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "n") and args.n < 2:
        parser.error("--n must be at least 2")
    if hasattr(args, "max_n") and args.max_n < 2:
        parser.error("--max-n must be at least 2")
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # cmd_arrangement reports its own --input errors, so this is --out
        print(f"cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
