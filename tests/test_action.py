import json
import random
from fractions import Fraction

import pytest

from lkbrep.action import (
    BraidWord,
    ChainEndo,
    chain_action,
    check_braid_relations,
    eigen_structure_check,
    fork_basis_action,
    fork_chain,
    fork_in_e_basis,
    h1_action,
    homology_action,
    lkb_generator,
    lkb_generator_inverse,
    lkb_word,
    s_edge_word,
    verify_fork_boundary,
    _fork_change_of_basis,
)
from lkbrep.complexes import (
    Chain,
    cell_B,
    edge_a,
    edge_b,
    edge_c,
    pair_list,
    sal_fn,
    sal_weights,
    word_weight,
)
from lkbrep import action
from lkbrep.homology import e_basis, integral_basis, v_membership
from lkbrep.linalg import Matrix, VerificationError, field_inv, field_rank
from lkbrep.ring import RationalFunction, rf_is_laurent, ONE, X, Y, ZERO


def pair_index(n):
    return {p: i for i, p in enumerate(pair_list(n))}


def test_lkb_generator_examples():
    g = lkb_generator(1, 2)
    assert g.entries == [[-X * X * Y]]
    g = lkb_generator(1, 3)
    idx = pair_index(3)
    col = g.col(idx[(1, 3)])
    assert col[idx[(2, 3)]] == ONE
    assert col[idx[(1, 2)]] == -X * Y * (X - 1)
    assert not col[idx[(1, 3)]]
    g = lkb_generator(2, 4)
    idx = pair_index(4)
    col = g.col(idx[(1, 4)])
    assert col[idx[(1, 4)]] == ONE
    assert col[idx[(2, 3)]] == -Y * (X - 1) * (X - 1)
    with pytest.raises(ValueError):
        lkb_generator(3, 3)


def test_lkb_word():
    assert lkb_word(BraidWord(3, ())) == Matrix.identity(3, ONE)
    w = lkb_word(BraidWord(3, (1, -1)))
    assert w == Matrix.identity(3, ONE)
    lhs = lkb_word(BraidWord.parse(3, "1 2 1"))
    rhs = lkb_word(BraidWord.parse(3, "2 1 2"))
    assert lhs == rhs
    with pytest.raises(ValueError):
        BraidWord(3, (3,))


@pytest.mark.parametrize("n", range(2, 5))
def test_generator_inverses_are_integral(n):
    for k in range(1, n):
        gi = lkb_generator_inverse(k, n)
        assert lkb_generator(k, n).mul(gi) == Matrix.identity(n * (n - 1) // 2, ONE)


@pytest.mark.parametrize("n", range(2, 6))
def test_generator_inverse_matches_field_inverse(n):
    for k in range(1, n):
        want = field_inv(lkb_generator(k, n)).map(rf_is_laurent)
        got = lkb_generator_inverse(k, n)
        assert got.entries == want.entries
        assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)


def test_generator_inverse_rejects_a_matrix_off_the_annihilator(monkeypatch):
    # 2I is invertible over Q(x, y) but the cubic does not kill it
    monkeypatch.setattr(action, "lkb_generator",
                        lambda k, n: Matrix.identity(3, ONE + ONE))
    lkb_generator_inverse.cache_clear()
    try:
        with pytest.raises(VerificationError, match=r"s \* s\^-1"):
            lkb_generator_inverse(1, 3)
    finally:
        lkb_generator_inverse.cache_clear()


def test_s_edge_word_examples():
    assert s_edge_word(1, edge_a(1), 3) == [(edge_a(1), 1), (edge_a(2), 1), (edge_a(1), -1)]
    assert s_edge_word(1, edge_c(2), 3) == [
        (edge_a(1), 1), (edge_b(2), 1), (edge_c(2), 1), (edge_b(2), -1), (edge_a(1), -1)]
    assert s_edge_word(1, edge_c(1), 3) == [(edge_c(1), 1)]
    assert s_edge_word(2, edge_b(3), 4) == [(edge_b(3), 1), (edge_b(2), 1), (edge_b(3), -1)]


def test_chain_action_examples():
    endo = chain_action(1, 2)
    assert endo.c2_cols[cell_B(1, 1)] == Chain(
        2, {cell_B(1, 1): ONE, cell_B(2, 1): X, cell_B(2, 3): -X * X})
    assert endo.c1_cols[edge_a(1)] == Chain(1, {edge_a(1): 1 - X, edge_a(2): X})
    w = sal_weights(2)
    word = s_edge_word(1, edge_a(1), 2)
    assert word_weight(word, w) == X == w[edge_a(1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_chain_map_and_weight_invariance(n):
    # chain_action raises if the chain-map identity or weight preservation fails
    for k in range(1, n):
        chain_action(k, n)


@pytest.mark.parametrize("n", range(2, 7))
def test_homology_action_matches_matrices(n):
    # homology_action raises on any deviation from the generator matrices
    for k in range(1, n):
        m = homology_action(k, n)
        assert m.entries == lkb_generator(k, n).entries


def test_homology_action_examples():
    idx = pair_index(2)
    m = homology_action(1, 2)
    assert m.entries == [[-X * X * Y]]
    m = homology_action(2, 3)
    idx = pair_index(3)
    col = m.col(idx[(1, 2)])
    assert col[idx[(1, 3)]] == X and col[idx[(1, 2)]] == ONE - X
    m = homology_action(2, 4)
    idx = pair_index(4)
    col = m.col(idx[(1, 4)])
    assert col[idx[(1, 4)]] == ONE and col[idx[(2, 3)]] == -Y * (X - 1) * (X - 1)


@pytest.mark.parametrize("corrupt", ["other-generator", "integral-cycles"])
def test_homology_action_rejects_a_corrupted_chain_model(monkeypatch, corrupt):
    if corrupt == "other-generator":
        # generator 2's model in place of generator 1's: a ring matrix, but
        # not the representation matrix
        real = action.chain_action
        monkeypatch.setattr(action, "chain_action", lambda k, n: real(3 - k, n))
        match = "deviates"
    else:
        # the image of X(1,3) under generator 1 has coordinates -xy/(y-1),
        # x/(y-1) and -x/(y-1) over the E cycles
        monkeypatch.setattr(action, "e_basis", integral_basis)
        match = "leaves the ring"
    homology_action.cache_clear()
    try:
        with pytest.raises(VerificationError, match=match):
            homology_action(1, 3)
    finally:
        homology_action.cache_clear()


def test_h1_action():
    rep = h1_action(1, 3)
    m = rep["matrix"]
    assert m.col(2) == [0, 0, 1, 0]  # a3 fixed
    assert m.col(3) == [0, 0, 0, 1]  # c1 fixed
    assert m.col(0) == [0, 1, 0, 0]  # a1 -> a2
    sq = m.mul(m)
    assert sq == Matrix.identity(4)
    for n in (2, 3, 4):
        for k in range(1, n):
            swap = {k - 1: k, k: k - 1}
            want = [[1 if i == swap.get(j, j) else 0 for j in range(n + 1)]
                    for i in range(n + 1)]
            assert h1_action(k, n)["matrix"].entries == want


def _edges_fixed(monkeypatch):
    # every edge sent to itself specializes to the identity, not the swap
    endo = chain_action(1, 3)
    fixed = ChainEndo(1, 3, {e: Chain(1, {e: ONE}) for e in endo.c1_cols}, endo.c2_cols)
    monkeypatch.setattr(action, "chain_action", lambda k, n: fixed)


def test_h1_action_rejects_a_non_transposition(monkeypatch, capsys):
    _edges_fixed(monkeypatch)
    with pytest.raises(VerificationError, match="swap"):
        h1_action(1, 3)
    from lkbrep.cli import main

    assert main(["action", "--n", "3", "--k", "1"]) == 1
    assert "verification failure" in capsys.readouterr().err


def test_verify_sweep_checks_h1_action(monkeypatch, capsys):
    _edges_fixed(monkeypatch)
    from lkbrep.cli import main

    assert main(["verify", "--max-n", "3", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["first_failure"]["check"] == "chain-map-and-weights"
    assert "swap" in report["first_failure"]["witness"]["error"]


@pytest.mark.parametrize("n", (4, 5))
def test_eigen_structure(n):
    report = eigen_structure_check(n)
    assert report["passed"], [c for c in report["checks"] if not c[1]]


def test_eigen_structure_partial_n3():
    assert eigen_structure_check(3)["passed"]


def _eigen_family(n, corrupt=None):
    """Run eigen_structure_check(n), optionally corrupting the family it
    hands to its basis certificate; return the report and the blocks."""
    seen = []
    real = action.is_block_triangular_basis

    def spy(blocks, idx):
        if corrupt is not None:
            blocks = corrupt(blocks, idx)
        seen.append((blocks, idx))
        return real(blocks, idx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(action, "is_block_triangular_basis", spy)
        report = eigen_structure_check(n)
    (blocks, idx), = seen
    return report, blocks, idx


@pytest.mark.parametrize("n", range(3, 7))
def test_eigen_basis_certificate_agrees_with_the_bareiss_rank(n):
    report, blocks, idx = _eigen_family(n)
    assert report["passed"]
    vecs = [v for _, vs in blocks for v in vs]
    fam = Matrix([[v[i] for v in vecs] for i in range(len(idx))])
    assert field_rank(fam) == len(idx) == len(vecs)
    for rows, (f, g) in (b for b in blocks if len(b[0]) == 2):
        (f1, f2), (g1, g2) = ([v[idx[p]] for p in rows] for v in (f, g))
        assert f1 * g2 - g1 * f2 == (X * Y - 1) * (X * X * Y + 1) * (X + 1)


def _with_block_3(blocks, vecs):
    # blocks[1] holds F(3), G(3) on the rows (1,3), (2,3)
    return blocks[:1] + [(blocks[1][0], vecs)] + blocks[2:]


@pytest.mark.parametrize("corrupt", ["zero-determinant", "outside-pattern", "missing-block"])
def test_eigen_basis_rejects_a_corrupted_family(corrupt):
    def zero_determinant(blocks, idx):
        # G(3) replaced by a multiple of F(3): its block determinant is zero
        f, _ = blocks[1][1]
        return _with_block_3(blocks, [f, [X * e for e in f]])

    def outside_pattern(blocks, idx):
        # F(3) gains an entry on a far row, a block below its own
        f, g = blocks[1][1]
        f = list(f)
        f[idx[(3, 4)]] = ONE
        return _with_block_3(blocks, [f, g])

    def missing_block(blocks, idx):
        # without E(3,4) the family no longer covers every row
        return blocks[:-1]

    fn = {"zero-determinant": zero_determinant, "outside-pattern": outside_pattern,
          "missing-block": missing_block}[corrupt]
    report, _, _ = _eigen_family(4, fn)
    failed = [name for name, ok in report["checks"] if not ok]
    assert failed == ["family is a basis"] and not report["passed"]


def test_fork_chain_examples():
    u = fork_chain(1, 2, 4, "class")
    assert u == e_basis(4)[(1, 2)].scaled(X)
    u = fork_chain(1, 3, 3, "X1")
    assert u == Chain(2, {cell_B(2, 1): X})
    assert not sal_fn(3).differential(fork_chain(1, 3, 3, "class"))
    with pytest.raises(ValueError):
        fork_chain(1, 2, 3, "X1")
    with pytest.raises(ValueError):
        fork_chain(3, 2, 3, "class")
    with pytest.raises(ValueError):
        verify_fork_boundary(1, 2, 3)


@pytest.mark.parametrize("n", range(3, 7))
def test_fork_boundary_identity(n):
    for p in range(1, n):
        for q in range(p + 2, n + 1):
            assert verify_fork_boundary(p, q, n)["passed"]


def test_fork_in_e_basis_examples():
    coords = fork_in_e_basis(1, 3, 3)
    assert coords == {(1, 3): X * X, (1, 2): -X * (X - 1)}
    assert fork_in_e_basis(1, 2, 3) == {(1, 2): X}
    coords = fork_in_e_basis(2, 4, 4)
    assert coords == {(2, 4): X ** 3, (2, 3): -X * X * (X - 1)}


@pytest.mark.parametrize("n", range(3, 7))
def test_fork_in_e_basis_all(n):
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            fork_in_e_basis(p, q, n)  # raises on any deviation


def test_fork_change_of_basis_is_triangular():
    n = 4
    cb = _fork_change_of_basis(n)
    pairs = pair_list(n)
    for a, p in enumerate(pairs):
        assert cb.entries[a][a] == X ** (p[1] - 1)
    for a in range(len(pairs)):
        for b in range(len(pairs)):
            if a > b:
                assert not cb.entries[a][b]


def test_fork_basis_action_n2():
    m = fork_basis_action(1, 2)
    assert m.entries == [[-X * X * Y]]


@pytest.mark.parametrize("n", range(2, 5))
def test_fork_basis_action_matches_rational_conjugation(n):
    # reference: invert the change of basis over Q(x, y), conjugate with
    # rational-function matrices, then map every entry back into the ring
    cb = _fork_change_of_basis(n)
    cbi = field_inv(cb)
    labels = [f"X({p},{q})" for p, q in pair_list(n)]
    for k in range(1, n):
        m = homology_action(k, n)
        prod = cbi.mul(m.map(RationalFunction)).mul(cb.map(RationalFunction))
        got = fork_basis_action(k, n)
        assert got.entries == prod.map(rf_is_laurent).entries
        assert got.row_labels == got.col_labels == labels


LEVELS = {"matrix": lkb_generator, "homology": homology_action, "fork": fork_basis_action}


@pytest.mark.parametrize("level", ["matrix", "homology", "fork"])
@pytest.mark.parametrize("n", range(2, 7))
def test_braid_relations_levels(n, level):
    gens = [LEVELS[level](k, n) for k in range(1, n)]
    assert all(r["passed"] for r in check_braid_relations(gens))


@pytest.mark.parametrize("n", range(2, 6))
def test_braid_relations_chain_level(n):
    # the complex has no 3-cells, so degree-2 homology is the cycle module
    # itself and the relations must hold exactly on the E cycles as chains
    def image(ks, u):
        for k in reversed(ks):
            u = chain_action(k, n).apply_c2(u)
        return u

    for u in e_basis(n).values():
        for k in range(1, n - 1):
            assert image((k, k + 1, k), u) == image((k + 1, k, k + 1), u)
            for l in range(k + 2, n):
                assert image((k, l), u) == image((l, k), u)


def test_far_commutation_n5_matrix():
    rep = check_braid_relations([lkb_generator(k, 5) for k in range(1, 5)])
    far = [r for r in rep if r["relation"] == "commute(1,4)"]
    assert far and far[0]["passed"]


def test_braid_relations_report_a_failure():
    a = Matrix([[1, 1], [0, 1]])
    two = Matrix([[2, 0], [0, 2]])
    rep = check_braid_relations([a, two, a])
    assert [(r["relation"], r["passed"]) for r in rep] == [
        ("braid(1,2)", False), ("braid(2,3)", False), ("commute(1,3)", True)]


def _det(rows):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[p], rows[c] = rows[c], rows[p]
            det = -det
        det *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            for j in range(c, len(rows)):
                rows[i][j] -= f * rows[c][j]
    return det


@pytest.mark.parametrize("n", range(2, 5))
def test_determinant_is_unit(n):
    # eigenvalue -x^2 y once, -x with multiplicity n-2, 1 on the rest, so the
    # determinant is the unit (-1)^(n-1) x^n y; compared at two points
    for k in range(1, n):
        g = lkb_generator(k, n)
        for x0, y0 in ((Fraction(2), Fraction(3)), (Fraction(-5, 7), Fraction(11, 3))):
            assert _det([[e.evaluate(x0, y0) for e in row] for row in g.entries]) == \
                (-1) ** (n - 1) * x0 ** n * y0


def test_specialized_action_matches_h1_permutation():
    # at x = y = 1 the homology matrix permutes index pairs via the
    # transposition reported on first homology, with a sign at the swapped
    # adjacent pair
    for n in (3, 4):
        for k in range(1, n):
            rep = h1_action(k, n)
            assert rep["swaps"] == (k, k + 1)
            perm = {k: k + 1, k + 1: k}
            m = homology_action(k, n)
            pairs = pair_list(n)
            idx = pair_index(n)
            for p in pairs:
                col = m.col(idx[p])
                image = tuple(sorted((perm.get(p[0], p[0]), perm.get(p[1], p[1]))))
                for q in pairs:
                    v = col[idx[q]]
                    got = sum(v.terms.values()) if v else 0
                    want = 0
                    if q == image:
                        want = -1 if p == (k, k + 1) else 1
                    assert got == want


def test_submodule_invariant_under_words():
    rng = random.Random(11)
    n = 4
    es = e_basis(n)
    pairs = pair_list(n)
    for _ in range(5):
        word = BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                                  for _ in range(rng.randint(1, 5))))
        m = lkb_word(word)
        coeffs = {p: Chain(2) for p in pairs}
        vec = [ZERO] * len(pairs)
        for a, p in enumerate(pairs):
            vec[a] = X ** rng.randint(-1, 1) * rng.randint(-2, 2)
        out = m.apply(vec)
        u = Chain(2)
        for a, p in enumerate(pairs):
            if out[a]:
                u = u + es[p].scaled(out[a])
        assert v_membership(u, n) is not None
