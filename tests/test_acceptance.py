"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion with its runtime.
"""

import json
import random
import time
from fractions import Fraction

from lkbrep.arrangement import (
    Line,
    build_facets,
    build_salvetti,
    cyclic_order_at_vertex,
    salvetti_h1,
)
from lkbrep.complexes import (
    Chain,
    cell_A,
    cell_B,
    edge_a,
    edge_b,
    edge_c,
    pair_list,
    sal_an_mod_sigma2,
    sal_fn,
)
from lkbrep.action import (
    chain_action,
    check_braid_relations,
    eigen_structure_check,
    fork_basis_action,
    fork_in_e_basis,
    homology_action,
    lkb_generator,
    lkb_generator_inverse,
    verify_fork_boundary,
)
from lkbrep.homology import (
    h1_fn,
    integral_basis,
    integral_x,
    kernel_rank,
    reduce_to_integral_basis,
    v_membership,
    verify_eta_triangular,
)
from lkbrep.linalg import Matrix
from lkbrep.ring import LaurentPolynomial, ONE, X, Y, ZERO


def report(num, text, t0):
    print(f"PASS criterion {num:2d} ({time.time() - t0:5.1f}s): {text}")


def test_criterion_01_differential_golden():
    t0 = time.time()
    for n in range(2, 7):
        tc = sal_fn(n)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert tc.d_cols[cell_A(i, j)] == Chain(
                    1, {edge_a(j): X - 1, edge_b(i): 1 - X})
        for i in range(1, n + 1):
            assert tc.d_cols[cell_B(i, 1)] == Chain(
                1, {edge_a(i): 1 - Y, edge_c(i): -ONE, edge_c(i + 1): X})
            assert tc.d_cols[cell_B(i, 2)] == Chain(
                1, {edge_a(i): -Y, edge_b(i): Y, edge_c(i): -ONE, edge_c(i + 1): ONE})
            assert tc.d_cols[cell_B(i, 3)] == Chain(
                1, {edge_b(i): Y - 1, edge_c(i): -X, edge_c(i + 1): ONE})
    report(1, "twisted boundary matches all four closed forms, n=2..6", t0)


def test_criterion_02_kernel_rank_and_eta():
    t0 = time.time()
    expected = {2: 1, 3: 3, 4: 6, 5: 10, 6: 15}
    for n in range(2, 7):
        assert kernel_rank(n) == expected[n]  # span of E cycles verified inside
        assert verify_eta_triangular(n)["passed"]
    report(2, "kernel rank n(n-1)/2 with spanning E cycles; eta triangular, n=2..6", t0)


def test_criterion_03_h1():
    t0 = time.time()
    for n in range(2, 7):
        rank, torsion, relations = h1_fn(n)
        assert rank == n + 1
        assert torsion == []
        assert all(relations.values())
    report(3, "H1 free of rank n+1 with the loop-class relations, n=2..6", t0)


def test_criterion_04_integral_basis():
    t0 = time.time()
    for n in range(2, 7):
        tc = sal_fn(n)
        basis = integral_basis(n)  # dual-form equality asserted on construction
        for p, u in basis.items():
            assert all(isinstance(c, LaurentPolynomial) for c in u.coeffs.values())
            assert not tc.differential(u)
    for n in range(2, 6):
        rng = random.Random(1000 + n)
        basis = integral_basis(n)
        for _ in range(100):
            lams = {}
            u = Chain(2)
            for p in pair_list(n):
                t = {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-9, 9)
                     for _ in range(rng.randint(0, 3))}
                lams[p] = LaurentPolynomial(t)
                u = u + basis[p].scaled(lams[p])
            got = reduce_to_integral_basis(u, n)
            for p in pair_list(n):
                assert got.get(p, ZERO) == lams[p]
    report(4, "integral basis cycles verified; 100 random reduction round-trips, n=2..5", t0)


def test_criterion_05_matrix_relations():
    t0 = time.time()
    for n in range(2, 7):
        gens = [lkb_generator(k, n) for k in range(1, n)]
        assert all(r["passed"] for r in check_braid_relations(gens))
        for k in range(1, n):
            gi = lkb_generator_inverse(k, n)  # raises if entries leave the ring
            size = n * (n - 1) // 2
            assert lkb_generator(k, n).mul(gi) == Matrix.identity(size, ONE)
    report(5, "braid and commutation relations for generator matrices; "
              "integral inverses, n=2..6", t0)


def test_criterion_06_chain_map_and_homology_action():
    t0 = time.time()
    for n in range(2, 7):
        for k in range(1, n):
            chain_action(k, n)       # chain-map identity + weight invariance
            m = homology_action(k, n)  # equality with the matrix form enforced
            assert m.entries == lkb_generator(k, n).entries
    report(6, "chain maps verified; homology action equals the matrix form, n=2..6", t0)


def test_criterion_07_proper_submodule():
    t0 = time.time()
    for n in range(3, 7):
        assert v_membership(integral_x(1, 3, n), n) is None
    report(7, "the (1,3) integral cycle lies outside the spanned submodule, n=3..6", t0)


def test_criterion_08_eigen_structure():
    t0 = time.time()
    for n in (4, 5):
        rep = eigen_structure_check(n)
        assert rep["passed"], [c for c in rep["checks"] if not c[1]]
    report(8, "eigen structure of the first generator and full-rank family, n=4,5", t0)


def test_criterion_09_forks():
    t0 = time.time()
    for n in range(3, 7):
        for p in range(1, n):
            for q in range(p + 2, n + 1):
                assert verify_fork_boundary(p, q, n)["passed"]
        for p, q in pair_list(n):
            coords = fork_in_e_basis(p, q, n)
            want = {(p, q): X ** (q - 1)}
            for k in range(p + 1, q):
                want[(p, k)] = -(X ** (k - 1)) * (X - 1)
            assert coords == want
    for n in range(2, 7):
        gens = [fork_basis_action(k, n) for k in range(1, n)]
        assert all(r["passed"] for r in check_braid_relations(gens))
    report(9, "fork boundary identity, E-basis expansion, fork-basis relations", t0)


def test_criterion_10_arrangements():
    t0 = time.time()
    rng = random.Random(0)
    built = 0
    while built < 50:
        lines = set()
        target = rng.randint(1, 6)
        while len(lines) < target:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            if a == 0 and b == 0:
                continue
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            lines.add(Line.from_rationals(a, b, c))
        fc = build_facets(sorted(lines))
        sc = build_salvetti(fc)  # boundary-word closure validated inside
        nv, ne, nc = sc.counts()
        assert nv == len(fc.chambers)
        assert ne == 2 * len(fc.edges)
        assert nc == sum(len(cyclic_order_at_vertex(fc, v))
                         for v in range(len(fc.vertices)))
        rank, torsion, _ = salvetti_h1(sc)
        assert rank == len(lines)
        assert torsion == []
        built += 1
    # the three worked examples
    fc = build_facets([Line.from_rationals(1, 0, 0)])
    assert (len(fc.vertices), len(fc.edges), len(fc.chambers)) == (0, 1, 2)
    assert build_salvetti(fc).counts() == (2, 2, 0)
    fc = build_facets([Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0)])
    assert (len(fc.vertices), len(fc.edges), len(fc.chambers)) == (1, 4, 4)
    assert build_salvetti(fc).counts() == (4, 8, 4)
    a2 = [Line.from_rationals(1, 0, 1), Line.from_rationals(1, 0, 2),
          Line.from_rationals(0, 1, 1), Line.from_rationals(0, 1, 2),
          Line.from_rationals(1, -1, 0)]
    fc = build_facets(a2)
    assert len(fc.vertices) == 4
    sc = build_salvetti(fc)
    assert sc.counts()[2] == 6 + 6 + 4 + 4
    assert salvetti_h1(sc)[0] == 5
    report(10, "50 random arrangements: H1 free of rank = line count; "
               "counts and closure; worked examples", t0)


def test_criterion_11_explicit_complex_reproduction():
    t0 = time.time()
    cx = sal_an_mod_sigma2(3)
    assert len(cx.vertices) == 10
    for i in range(1, 4):
        for j in range(i, 4):
            assert cx.edges[("a", i, j)] == (("P", i, j), ("P", i, j + 1))
            assert cx.edges[("abar", i, j)] == (("P", i, j + 1), ("P", i, j))
            assert cx.edges[("b", i, j)] == (("P", i + 1, j + 1), ("P", i, j + 1))
            assert cx.edges[("bbar", i, j)] == (("P", i, j + 1), ("P", i + 1, j + 1))
    for i in range(1, 5):
        assert cx.edges[("c", i)] == (("P", i, i), ("P", i, i))
    json.dumps(cx.to_json_obj())  # emittable
    for n in range(2, 7):
        assert kernel_rank(n) == n * (n - 1) // 2
        assert h1_fn(n)[0] == n + 1
    report(11, "quotient complex emitted with 10 vertices and its edge table; "
               "rank formulas reproduced", t0)
