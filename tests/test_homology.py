import random

import pytest

from lkbrep.complexes import (
    Chain, TwistedComplex, cell_A, cell_B, edge_a, edge_b, edge_c, pair_list, sal_fn)
from lkbrep.homology import (
    a_order_key,
    e_basis,
    e_cycle,
    h1_fn,
    integral_x,
    kernel_rank,
    reduce_to_integral_basis,
    v_chain,
    v_membership,
    verify_eta_triangular,
    LEAD,
)
from lkbrep import homology, linalg
from lkbrep.linalg import VerificationError, field_kernel_raw, field_rank
from lkbrep.ring import LaurentPolynomial, RationalFunction, ONE, X, Y, ZERO

LP = LaurentPolynomial
RF = RationalFunction


def test_v_chain_boundaries():
    tc = sal_fn(2)
    xy1 = X * Y + 1
    assert tc.differential(v_chain(1, "b", 2)) == Chain(
        1, {edge_b(1): (Y - 1) * xy1, edge_c(2): -(X - 1) * xy1})
    assert tc.differential(v_chain(1, "a", 2)) == Chain(
        1, {edge_a(1): -(Y - 1) * xy1, edge_c(1): (X - 1) * xy1})
    assert tc.differential(v_chain(1, "0", 2)) == Chain(
        1, {edge_c(1): xy1, edge_c(2): -xy1})
    for kind in ("b", "a", "0"):
        u = v_chain(1, kind, 3)
        assert all(l[0] == "B" for l in u.coeffs)
    with pytest.raises(ValueError):
        v_chain(3, "b", 2)


@pytest.mark.parametrize("n", range(2, 7))
def test_e_cycles_are_cycles(n):
    tc = sal_fn(n)
    for (i, j), u in e_basis(n).items():
        assert not tc.differential(u)
        assert u[cell_A(i, j)] == LEAD
        for p in pair_list(n):
            if p != (i, j):
                assert not u[cell_A(*p)]


def test_e_cycle_examples():
    assert not sal_fn(2).differential(e_cycle(1, 2, 2))
    assert e_cycle(1, 2, 3)[cell_A(1, 2)] == (Y - 1) * (X * Y + 1)
    assert not e_cycle(1, 2, 3)[cell_A(1, 3)]
    with pytest.raises(ValueError):
        e_cycle(2, 2, 3)
    with pytest.raises(ValueError):
        e_cycle(1, 4, 3)


@pytest.mark.parametrize("n,expected", [(2, 1), (3, 3), (4, 6)])
def test_kernel_rank_small(n, expected):
    assert kernel_rank(n) == expected == n * (n - 1) // 2


@pytest.mark.parametrize("n", (2, 3, 4))
def test_kernel_rank_matches_elimination_and_e_span(n):
    # Bareiss elimination is the oracle for the certified rank, and every
    # kernel vector it finds expands over the E cycles with coordinates
    # read off its A-block: LEAD * v = sum of v[A(p)] * E(p)
    tc = sal_fn(n)
    es = e_basis(n)
    vecs = field_kernel_raw(tc.differential_matrix())
    assert kernel_rank(n) == len(vecs)
    for num, _den in vecs:
        v = Chain(2, {cell: num[k] for k, cell in enumerate(tc.basis2)})
        rhs = Chain.combination(2, [(v[cell_A(*p)], es[p]) for p in pair_list(n)])
        assert v.scaled(LEAD) == rhs


@pytest.mark.parametrize("n", range(2, 7))
def test_kernel_rank_agrees_with_the_bareiss_rank(n):
    d = sal_fn(n).differential_matrix()
    assert kernel_rank(n) == d.ncols - field_rank(d)


def _corrupted_eta(corrupt):
    good = homology.eta_map

    def eta_map(n):
        cols = good(n)
        if corrupt == "zeroed-diagonal":
            # no image has a B(1,1) component, so row B(1,1) of eta o d is zero
            cols = {e: Chain(2, {c: v for c, v in u.coeffs.items() if c != cell_B(1, 1)})
                    for e, u in cols.items()}
        else:
            # a_2 enters the boundary of B(2,1), a column right of B(1,1)
            cols[edge_a(2)] = cols[edge_a(2)] + Chain(2, {cell_B(1, 1): ONE})
        return cols

    return eta_map


@pytest.mark.parametrize("corrupt", ["zeroed-diagonal", "above-diagonal"])
def test_kernel_rank_rejects_a_corrupted_eta(monkeypatch, corrupt):
    monkeypatch.setattr(homology, "eta_map", _corrupted_eta(corrupt))
    kernel_rank.cache_clear()
    try:
        report = verify_eta_triangular(3)
        want = (True, False) if corrupt == "zeroed-diagonal" else (False, True)
        assert (report["triangular"], report["diagonal_nonzero"]) == want
        with pytest.raises(VerificationError, match="eta"):
            kernel_rank(3)
    finally:
        kernel_rank.cache_clear()


@pytest.mark.parametrize("corrupt", ["repeated", "scaled"])
def test_kernel_rank_rejects_a_corrupted_e_a_block(monkeypatch, corrupt):
    bad = dict(e_basis(3))
    if corrupt == "repeated":
        bad[(1, 3)] = bad[(1, 2)]  # still a cycle, no longer independent
    else:
        bad[(2, 3)] = bad[(2, 3)].scaled(X)
    monkeypatch.setattr(homology, "e_basis", lambda n: bad)
    kernel_rank.cache_clear()
    try:
        with pytest.raises(VerificationError, match="A-block"):
            kernel_rank(3)
        # coordinates are read off the A-block only once it is certified
        with pytest.raises(VerificationError, match="A-block"):
            v_membership(e_cycle(1, 2, 3), 3)
    finally:
        kernel_rank.cache_clear()


@pytest.mark.parametrize("n", range(2, 7))
def test_eta_triangular(n):
    report = verify_eta_triangular(n)
    assert report["size"] == 3 * n
    assert report["passed"]


def test_eta_diagonal_specializes_nonzero():
    report = verify_eta_triangular(2)
    assert len(report["diagonal"]) == 6
    # reconstruct the diagonal entries and evaluate at (2, 3)
    from lkbrep.homology import eta_map

    tc = sal_fn(2)
    eta = eta_map(2)
    for i in (1, 2):
        for r in (1, 2, 3):
            b = cell_B(i, r)
            image = Chain(2)
            for e, coeff in tc.d_cols[b].coeffs.items():
                image = image + eta[e].scaled(coeff)
            val = image[b].evaluate(2, 3)
            assert val != 0 and val.denominator == 1


def test_v_membership_coordinates():
    assert v_membership(e_cycle(1, 2, 3), 3) == {(1, 2): ONE}
    # X(1,3) has A(1,2) coefficient xy+1, and (xy+1)/LEAD leaves the ring
    assert v_membership(integral_x(1, 3, 3), 3) is None
    assert v_membership(Chain(2), 3) == {}
    with pytest.raises(ValueError, match="not a cycle"):
        v_membership(Chain(2, {cell_B(1, 1): ONE}), 3)
    with pytest.raises(ValueError, match="Laurent"):
        v_membership(e_basis(3)[(1, 2)].scaled(RF(1, Y - 1)), 3)


def test_v_membership_laurent_round_trip():
    # a Laurent combination of E cycles comes back with its coordinates,
    # zero coordinates omitted
    rng = random.Random(9)
    n = 4
    es = e_basis(n)
    for _ in range(10):
        lams = {}
        for p in pair_list(n):
            lam = LP({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)})
            if lam:
                lams[p] = lam * (X * Y + 1) ** rng.randint(0, 1)
        u = Chain.combination(2, [(lam, es[p]) for p, lam in lams.items()])
        assert v_membership(u, n) == lams


def test_v_membership_examples():
    u = e_cycle(1, 2, 4).scaled(X * Y + 1)
    assert v_membership(u, 4) == {(1, 2): X * Y + 1}
    for n in range(3, 7):
        assert v_membership(integral_x(1, 3, n), n) is None


def test_a_order():
    pairs = sorted(pair_list(4), key=a_order_key)
    assert pairs == [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]


def test_integral_x_examples():
    assert integral_x(1, 2, 2) == e_cycle(1, 2, 2)
    want = Chain(2, {cell_A(1, 4): ONE, cell_A(1, 3): -ONE,
                     cell_A(2, 4): -ONE, cell_A(2, 3): ONE})
    assert integral_x(1, 4, 4) == want
    assert not sal_fn(3).differential(integral_x(1, 3, 3))
    with pytest.raises(ValueError):
        integral_x(2, 2, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_integral_x_all_cases(n):
    # construction asserts the cell form equals the E-combination and d = 0
    tc = sal_fn(n)
    for i, j in pair_list(n):
        u = integral_x(i, j, n)
        assert all(isinstance(c, LP) for c in u.coeffs.values())
        assert not tc.differential(u)


def test_reduce_examples():
    assert reduce_to_integral_basis(e_cycle(1, 2, 3), 3) == {(1, 2): ONE}
    assert reduce_to_integral_basis(integral_x(2, 4, 4), 4) == {(2, 4): ONE}
    u = integral_x(1, 3, 3).scaled(X - 1) + integral_x(1, 2, 3).scaled(X * Y)
    assert reduce_to_integral_basis(u, 3) == {(1, 3): X - 1, (1, 2): X * Y}
    with pytest.raises(ValueError):
        reduce_to_integral_basis(Chain(2, {cell_A(1, 2): ONE}), 3)


def random_lp(rng, deg=3, coeff=5):
    t = {}
    for _ in range(rng.randint(0, 3)):
        t[(rng.randint(-deg, deg), rng.randint(-deg, deg))] = rng.randint(-coeff, coeff)
    return LP(t)


@pytest.mark.parametrize("n", range(2, 6))
def test_reduce_random_round_trips(n):
    from lkbrep.homology import integral_basis

    rng = random.Random(100 + n)
    basis = integral_basis(n)
    for _ in range(25):
        lams = {p: random_lp(rng) for p in pair_list(n)}
        u = Chain(2)
        for p, lam in lams.items():
            u = u + basis[p].scaled(lam)
        got = reduce_to_integral_basis(u, n)
        for p in pair_list(n):
            assert got.get(p, ZERO) == lams[p]


@pytest.mark.parametrize("n", range(2, 6))
def test_successful_reduction_computes_no_boundary(monkeypatch, n):
    from lkbrep.homology import integral_basis

    rng = random.Random(200 + n)
    basis = integral_basis(n)  # built, and checked to be cycles, before counting
    cases = []
    for _ in range(10):
        lams = {p: random_lp(rng) for p in pair_list(n)}
        cases.append((lams, Chain.combination(2, [(lams[p], basis[p]) for p in pair_list(n)])))
    calls = []
    differential = TwistedComplex.differential

    def counted(self, u):
        calls.append(u)
        return differential(self, u)

    monkeypatch.setattr(TwistedComplex, "differential", counted)
    for lams, u in cases:
        got = reduce_to_integral_basis(u, n)
        assert {p: got.get(p, ZERO) for p in pair_list(n)} == lams
    assert calls == []


@pytest.mark.parametrize("u", [
    Chain(2, {cell_A(1, 2): ONE}),
    Chain(2, {cell_B(1, 1): ONE, cell_B(2, 3): X}),
    integral_x(1, 3, 3) + Chain(2, {cell_B(2, 1): Y}),
    Chain(1, {edge_a(1): ONE}),
    Chain(1),
    Chain(2, {cell_A(1, 2): RF(ONE, X - 1)}),
])
def test_reduce_rejects_what_is_not_an_integral_cycle(u):
    with pytest.raises(ValueError):
        reduce_to_integral_basis(u, 3)


@pytest.mark.parametrize("scale, message", [
    (2, r"leading coefficient at A\(1, 3\) is not divisible"),
    # divides, but doubles the leading coefficient instead of clearing it:
    # a descent that re-picked the largest cell would never end
    (-1, None),
])
def test_reduce_names_a_corrupted_leading_divisor(monkeypatch, scale, message):
    u = integral_x(1, 3, 3).scaled(X - 1) + integral_x(1, 2, 3).scaled(X * Y)
    divisor = homology._leading_divisor
    monkeypatch.setattr(homology, "_leading_divisor", lambda i, j: scale * divisor(i, j))
    with pytest.raises(VerificationError, match=message):
        reduce_to_integral_basis(u, 3)


def test_reduce_names_a_corrupted_basis_entry(monkeypatch):
    good = homology.integral_basis(3)
    u = good[(1, 3)].scaled(X - 1) + good[(1, 2)].scaled(X * Y)
    bad = dict(good)
    bad[(1, 2)] = good[(1, 2)] + Chain(2, {cell_B(1, 1): ONE})
    monkeypatch.setattr(homology, "integral_basis", lambda n: bad)
    with pytest.raises(VerificationError, match="nonzero chain"):
        reduce_to_integral_basis(u, 3)


@pytest.mark.parametrize("n", range(2, 7))
def test_h1(n):
    rank, torsion, relations = h1_fn(n)
    assert rank == n + 1
    assert torsion == []
    assert all(relations.values())
    assert f"b1-a1" in relations


@pytest.mark.parametrize("n", [2, 4])
def test_h1_runs_one_smith_decomposition(monkeypatch, n):
    calls = []
    smith = linalg.int_smith_transforms

    def counted(a):
        calls.append(a.nrows)
        return smith(a)

    monkeypatch.setattr(linalg, "int_smith_transforms", counted)
    rank, _, relations = h1_fn(n)
    assert rank == n + 1 and len(relations) == 2 * n
    assert len(calls) == 1
