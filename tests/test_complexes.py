import random

import pytest

from lkbrep.complexes import (
    CellComplex,
    Chain,
    cell_A,
    cell_B,
    cell_basis,
    edge_a,
    edge_b,
    edge_basis,
    edge_c,
    label_str,
    pair_list,
    sal_an_mod_sigma2,
    sal_fn,
    sal_weights,
    word_to_chain,
    word_weight,
)
from lkbrep.ring import LaurentPolynomial, ONE, X, Y, ZERO


def expected_d(cell, n):
    """Closed forms of the twisted boundary on each square 2-cell."""
    kind = cell[0]
    if kind == "A":
        _, i, j = cell
        return Chain(1, {edge_a(j): X - 1, edge_b(i): 1 - X})
    _, i, r = cell
    if r == 1:
        return Chain(1, {edge_a(i): 1 - Y, edge_c(i): -ONE, edge_c(i + 1): X})
    if r == 2:
        return Chain(1, {edge_a(i): -Y, edge_b(i): Y, edge_c(i): -ONE, edge_c(i + 1): ONE})
    return Chain(1, {edge_b(i): Y - 1, edge_c(i): -X, edge_c(i + 1): ONE})


def test_counts():
    for n in range(2, 7):
        tc = sal_fn(n)
        assert len(tc.basis0) == 1
        assert len(tc.basis1) == 3 * n + 1
        assert len(tc.basis2) == n * (n - 1) // 2 + 3 * n
    tc = sal_fn(2)
    assert len(tc.basis1) == 7
    assert len(tc.basis2) == 7
    with pytest.raises(ValueError):
        sal_fn(1)


@pytest.mark.parametrize("n", range(2, 7))
def test_differential_matches_closed_forms(n):
    tc = sal_fn(n)
    for cell in tc.basis2:
        assert tc.d_cols[cell] == expected_d(cell, n), cell


def test_differential_examples_n2():
    tc = sal_fn(2)
    assert tc.d_cols[cell_A(1, 2)] == Chain(1, {edge_a(2): X - 1, edge_b(1): 1 - X})
    assert tc.d_cols[cell_B(1, 1)] == Chain(
        1, {edge_a(1): 1 - Y, edge_c(1): -ONE, edge_c(2): X})
    u = Chain(2, {cell_B(1, 2): ONE})
    assert tc.differential(u) == Chain(
        1, {edge_a(1): -Y, edge_b(1): Y, edge_c(1): -ONE, edge_c(2): ONE})
    u = Chain(2, {cell_B(1, 3): ONE})
    assert tc.differential(u) == Chain(
        1, {edge_b(1): Y - 1, edge_c(1): -X, edge_c(2): ONE})
    assert tc.differential(Chain(2)) == Chain(1)


def test_word_to_chain_examples():
    w = sal_weights(3)
    word = [(edge_b(1), 1), (edge_a(2), 1), (edge_b(1), -1), (edge_a(2), -1)]
    assert word_to_chain(word, w) == Chain(1, {edge_a(2): X - 1, edge_b(1): 1 - X})
    assert word_to_chain([], w) == Chain(1)
    word = [(edge_a(1), 1), (edge_a(2), 1), (edge_a(1), -1)]
    assert word_to_chain(word, w) == Chain(1, {edge_a(1): 1 - X, edge_a(2): X})


def random_word(rng, n, length):
    edges = edge_basis(n)
    return [(edges[rng.randrange(len(edges))], rng.choice((1, -1))) for _ in range(length)]


def test_word_to_chain_cocycle_rule():
    rng = random.Random(7)
    w = sal_weights(4)
    for _ in range(100):
        u = random_word(rng, 4, rng.randint(0, 6))
        v = random_word(rng, 4, rng.randint(0, 6))
        lhs = word_to_chain(u + v, w)
        rhs = word_to_chain(u, w) + word_to_chain(v, w).scaled(word_weight(u, w))
        assert lhs == rhs


def test_word_to_chain_left_loop_equivariance():
    rng = random.Random(8)
    w = sal_weights(4)
    # prepending a loop of known total weight multiplies the rest of the
    # chain by that weight and adds the loop's own chain
    loop = [(edge_c(1), 1), (edge_a(2), 1), (edge_c(1), -1), (edge_a(2), -1)]
    assert word_weight(loop, w) == ONE
    for _ in range(50):
        u = random_word(rng, 4, rng.randint(0, 6))
        lhs = word_to_chain(loop + u, w)
        rhs = word_to_chain(loop, w) + word_to_chain(u, w)
        assert lhs == rhs


def test_untwist_columns():
    tc = sal_fn(2)
    m = tc.untwist()
    col = {e: m[(m.row_labels.index(e), m.col_labels.index(cell_A(1, 2)))]
           for e in tc.basis1}
    assert all(v == 0 for v in col.values())
    jb11 = m.col_labels.index(cell_B(1, 1))
    assert m[(m.row_labels.index(edge_c(1)), jb11)] == -1
    assert m[(m.row_labels.index(edge_c(2)), jb11)] == 1
    assert m[(m.row_labels.index(edge_a(1)), jb11)] == 0
    jb12 = m.col_labels.index(cell_B(1, 2))
    assert m[(m.row_labels.index(edge_a(1)), jb12)] == -1
    assert m[(m.row_labels.index(edge_b(1)), jb12)] == 1
    assert m[(m.row_labels.index(edge_c(1)), jb12)] == -1
    assert m[(m.row_labels.index(edge_c(2)), jb12)] == 1


def test_basis_order():
    assert edge_basis(2) == [("c", 1), ("c", 2), ("c", 3),
                             ("a", 1), ("a", 2), ("b", 1), ("b", 2)]
    assert cell_basis(3)[:3] == [("A", 1, 2), ("A", 1, 3), ("A", 2, 3)]
    assert pair_list(3) == [(1, 2), (1, 3), (2, 3)]


@pytest.mark.parametrize("n", range(2, 6))
def test_quotient_complex_closes(n):
    cx = sal_an_mod_sigma2(n)
    cx.validate()  # raises on any broken boundary word
    nv, ne, nc = cx.counts()
    assert nv == (n + 1) * (n + 2) // 2
    assert ne == (n + 1) + 4 * n * (n + 1) // 2
    assert nc == 4 * n * (n - 1) // 2 + 3 * n


def test_quotient_complex_rejects_small_n():
    with pytest.raises(ValueError):
        sal_an_mod_sigma2(1)


def test_quotient_complex_examples():
    cx = sal_an_mod_sigma2(3)
    assert len(cx.vertices) == 10
    # source/target table
    for i in range(1, 4):
        for j in range(i, 4):
            assert cx.edges[("a", i, j)] == (("P", i, j), ("P", i, j + 1))
            assert cx.edges[("abar", i, j)] == (("P", i, j + 1), ("P", i, j))
            assert cx.edges[("b", i, j)] == (("P", i + 1, j + 1), ("P", i, j + 1))
            assert cx.edges[("bbar", i, j)] == (("P", i, j + 1), ("P", i + 1, j + 1))
    assert cx.edges[("c", 2)] == (("P", 2, 2), ("P", 2, 2))
    cx2 = sal_an_mod_sigma2(2)
    assert len([c for c in cx2.cells if c[0] == "A"]) + \
        len([c for c in cx2.cells if c[0] == "B"]) == 10


def test_cell_complex_validation_catches_breaks():
    cx = CellComplex(["u", "v"], {"e": ("u", "v")}, {"D": [("e", 1)]})
    with pytest.raises(ValueError):
        cx.validate()  # e alone does not close up


def test_json_shapes():
    tc = sal_fn(2)
    obj = tc.to_json_obj()
    assert obj["weights"] == {"a": "x", "b": "x", "c": "y"}
    assert obj["basis"]["1"][0] == "c1"
    assert obj["differential"]["rows"] == 7
    assert label_str(cell_A(1, 2)) == "A(1,2)"
    assert label_str(edge_a(1)) == "a1"


def fold_combination(terms):
    """Reference for Chain.combination: scale each chain, then add it to a
    running sum, dropping cancelled coefficients after every step."""
    out = {}
    for factor, chain in terms:
        for label, c in chain.coeffs.items():
            s = out.get(label, ZERO) + factor * c
            if s:
                out[label] = s
            else:
                out.pop(label, None)
    return out


def random_coeff(rng):
    return LaurentPolynomial({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-4, 4)
                              for _ in range(rng.randint(0, 3))})


def random_factor(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return rng.choice([0, ZERO])
    return random_coeff(rng)


@pytest.mark.parametrize("n", range(2, 6))
def test_combination_matches_a_fold_of_sums(n):
    rng = random.Random(50 + n)
    for degree, labels in ((1, edge_basis(n)), (2, cell_basis(n))):
        for _ in range(40):
            chains = [Chain(degree, {l: random_coeff(rng) for l in rng.sample(labels, rng.randint(0, 4))})
                      for _ in range(rng.randint(0, 5))]
            terms = [(random_factor(rng), c) for c in chains]
            got = Chain.combination(degree, terms)
            assert got.degree == degree
            assert got.coeffs == fold_combination(terms)
            assert all(got.coeffs.values())


def test_combination_edge_cases():
    u = Chain(2, {cell_A(1, 2): X - 1, cell_B(1, 1): Y})
    v = Chain(2, {cell_A(1, 2): ONE, cell_B(2, 3): X})
    assert Chain.combination(2, []) == Chain(2)
    assert Chain.combination(2, [(0, u), (ZERO, v)]).coeffs == {}
    # sums that cancel store no zero coefficient
    assert Chain.combination(2, [(ONE, u), (-1, u)]).coeffs == {}
    w = Chain.combination(2, [(X, v), (-X, Chain(2, {cell_A(1, 2): ONE}))])
    assert w.coeffs == {cell_B(2, 3): X * X}
    assert Chain.combination(2, [(2, u), (X - 1, v)]) == u + u + v.scaled(X - 1)
    assert u - u == Chain(2) and not (u - u).coeffs
    with pytest.raises(ValueError):
        Chain.combination(2, [(ONE, u), (ONE, Chain(1, {edge_a(1): ONE}))])
    with pytest.raises(ValueError):
        Chain.combination(1, [(0, u)])  # zero factors are still degree-checked
    with pytest.raises(ValueError):
        u + Chain(1)
