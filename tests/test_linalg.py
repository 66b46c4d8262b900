import json
import random
from fractions import Fraction

import pytest

from lkbrep import linalg
from lkbrep.linalg import (
    Matrix,
    field_inv,
    field_kernel,
    field_rank,
    field_solve,
    int_smith_transforms,
    int_unit_pivot_factors,
    ring_triangular_inverse,
    VerificationError,
)
from lkbrep.ring import LaurentPolynomial, RationalFunction, ONE, X, Y, ZERO

LP = LaurentPolynomial
RF = RationalFunction


def lp_matrix(rows):
    return Matrix([[e if isinstance(e, LP) else LP.constant(e) for e in row] for row in rows])


def test_mat_mul_examples():
    a = lp_matrix([[X, 1], [0, Y]])
    ident = Matrix.identity(2, ONE)
    assert a.mul(ident) == a
    assert Matrix([[X]]).mul(Matrix([[Y]])) == Matrix([[X * Y]])
    p = lp_matrix([[0, 1], [1, 0]])
    assert p.mul(p) == ident
    with pytest.raises(ValueError):
        a.mul(Matrix([[ONE]]))


def test_field_kernel_examples():
    z = lp_matrix([[0, 0, 0], [0, 0, 0]])
    basis = field_kernel(z)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert [1 if j == i else 0 for j in range(3)] == [1 if e == RF(1) else 0 for j, e in enumerate(v)]
    assert field_kernel(Matrix.identity(3, ONE)) == []
    (v,) = field_kernel(lp_matrix([[X - 1, 1 - X]]))
    assert v[0] == RF(1) and v[1] == RF(1)


def test_field_rank_examples():
    assert field_rank(Matrix.identity(4, ONE)) == 4
    outer = lp_matrix([[X * Y, X], [Y * Y, Y], [Y, 1]])  # columns proportional
    assert field_rank(outer) == 1
    assert field_rank(lp_matrix([[0]])) == 0


def test_field_rank_of_twisted_b_columns():
    from lkbrep.complexes import cell_B, sal_fn

    tc = sal_fn(2)
    cols = [tc.d_cols[cell_B(1, r)] for r in (1, 2, 3)]
    m = Matrix([[c[e] for c in cols] for e in tc.basis1],
               nrows=len(tc.basis1), ncols=3)
    assert field_rank(m) == 3


def test_rank_nullity_randomized():
    rng = random.Random(5)
    gens = [ZERO, ONE, X, Y, X - 1, Y - 1, X * Y + 1, -X, LP({(0, 0): 2})]
    for _ in range(20):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        a = Matrix([[gens[rng.randrange(len(gens))] for _ in range(n)] for _ in range(m)])
        assert field_rank(a) + len(field_kernel(a)) == n


def test_ring_triangular_inverse():
    a = lp_matrix([[X, 1 - X, Y], [0, -Y, X * X], [0, 0, 1]])
    inv = ring_triangular_inverse(a)
    assert a.mul(inv) == Matrix.identity(3, ONE)
    assert inv.mul(a) == Matrix.identity(3, ONE)
    with pytest.raises(VerificationError, match="unit"):
        ring_triangular_inverse(lp_matrix([[X + 1, 0], [0, 1]]))
    with pytest.raises(VerificationError, match=r"a \* a\^-1"):
        ring_triangular_inverse(lp_matrix([[1, 0], [X, 1]]))  # lower triangular


def test_field_solve_examples():
    ident = Matrix.identity(3, ONE)
    b = [RF(X), RF(Y - 1), RF(0)]
    assert field_solve(ident, b) == b
    assert field_solve(lp_matrix([[1, 0], [0, 0]]), [RF(0), RF(1)]) is None
    (sol,) = field_solve(lp_matrix([[X - 1]]), [RF(X * X - 2 * X + 1)])
    assert sol == RF(X - 1)


def test_field_inv_and_det():
    a = lp_matrix([[X, 1], [0, Y]])
    ainv = field_inv(a)
    prod = a.map(RF).mul(ainv)
    assert prod == Matrix.identity(2, RF(1))
    with pytest.raises(VerificationError, match="singular"):
        field_inv(lp_matrix([[X, X], [1, 1]]))


def naive_row_col_reduce(entries):
    """Reference Smith normal form: blunt repeated gcd reduction."""
    a = [list(r) for r in entries]
    m, n = len(a), len(a[0]) if a else 0
    factors = []
    t = 0
    while True:
        nz = [(i, j) for i in range(t, m) for j in range(t, n) if a[i][j]]
        if not nz:
            break
        i0, j0 = min(nz, key=lambda ij: abs(a[ij[0]][ij[1]]))
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            done = True
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    for j in range(n):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        done = False
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    for i in range(m):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        done = False
            if done:
                break
        bad = [(i, j) for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]]
        if bad:
            i, _ = bad[0]
            for j in range(n):
                a[t][j] += a[i][j]
            continue
        factors.append(abs(a[t][t]))
        t += 1
        if t >= min(m, n):
            break
    return factors


def smith_factors(a):
    """The invariant factors of an integer matrix: the nonzero diagonal of
    its Smith form."""
    d, _, _ = int_smith_transforms(a)
    return [f for f in (d.entries[i][i] for i in range(min(d.nrows, d.ncols))) if f]


def test_int_smith_examples():
    assert smith_factors(Matrix([[2, 0], [0, 3]])) == [1, 6]
    assert naive_row_col_reduce([[2, 0], [0, 3]]) == [1, 6]
    assert smith_factors(Matrix([[0, 0], [0, 0]])) == []
    assert smith_factors(Matrix.identity(3)) == [1, 1, 1]


def test_int_smith_randomized():
    rng = random.Random(6)
    for _ in range(30):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        a = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        d, u, v = int_smith_transforms(a)
        assert u.mul(a).mul(v) == d
        factors = smith_factors(a)
        assert factors == naive_row_col_reduce(a.entries)
        for i in range(len(factors) - 1):
            assert factors[i + 1] % factors[i] == 0
        for i in range(d.nrows):
            for j in range(d.ncols):
                if i != j:
                    assert d.entries[i][j] == 0


def sparse_columns(rows):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(rows[0]))]


def test_unit_pivot_factors_match_dense_smith(monkeypatch):
    calls = []
    smith = linalg.int_smith_transforms
    monkeypatch.setattr(linalg, "int_smith_transforms", lambda a: calls.append(a) or smith(a))
    assert int_unit_pivot_factors([]) == []
    assert int_unit_pivot_factors([{}, {3: 0}]) == []
    assert int_unit_pivot_factors(sparse_columns([[0, 0], [0, 0]])) == []
    assert int_unit_pivot_factors([{"b": 2, "a": -1}, {"a": 3}]) == [1, 6]
    assert calls == [Matrix([[6]])]
    rng = random.Random(23)
    remainders = 0
    for trial in range(150):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        # mostly sparse +-1 entries; some matrices also get entries that no
        # unit pivot clears, which leaves a remainder for the Smith form
        pool = [0, 0, 0, 1, -1] + ([2, -3, 4, 6] if trial % 3 == 0 else [])
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        calls.clear()
        got = int_unit_pivot_factors(sparse_columns(rows))
        remainders += bool(calls)
        assert len(calls) <= 1
        assert got == smith_factors(Matrix(rows))
    assert remainders >= 10


def fraction_det(rows):
    a = [[Fraction(e) for e in row] for row in rows]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return 0
        if p != c:
            a[p], a[c] = a[c], a[p]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_int_smith_dense_matrix_keeps_small_coefficients():
    # Euclid remainder chains on this matrix once grew entries past 246 bits
    # by the fifth pivot and did not finish in two minutes
    rows = [[-1, 0, -3, -5, -2, -5, -3, -6], [0, 0, -6, -2, 0, 2, 2, 3],
            [2, 1, -5, 6, -6, -5, -2, 1], [4, 4, 4, -1, 4, -5, 3, 0],
            [2, -2, -5, -3, -5, 0, -1, 4], [2, -1, -6, 0, -2, -4, -3, 5],
            [5, 0, -3, 0, 0, 6, 0, 3], [0, -6, -5, -4, 2, 1, 5, 1]]
    a = Matrix(rows)
    d, u, v = int_smith_transforms(a)
    assert u.mul(a).mul(v) == d
    factors = smith_factors(a)
    assert len(factors) == 8
    prod = 1
    for f in factors:
        prod *= f
    assert prod == abs(fraction_det(rows))
    assert max(abs(e).bit_length() for m in (d, u, v) for row in m.entries for e in row) < 128


def test_labels_and_json():
    a = Matrix([[X, ONE]], row_labels=["r"], col_labels=["u", "v"])
    obj = a.to_json_obj()
    assert obj["rows"] == 1 and obj["cols"] == 2
    assert obj["row_labels"] == ["r"] and obj["col_labels"] == ["u", "v"]
    assert obj["entries"][0][0] == {"terms": [[1, 0, "1"]]}
    json.dumps(obj)  # serializable
    with pytest.raises(ValueError):
        Matrix([[ONE, ONE]], col_labels=["dup", "dup"])


def test_determinism():
    a = lp_matrix([[X - 1, Y, 0], [X * Y + 1, 1, Y - 1]])
    one = [[str(e) for e in v] for v in field_kernel(a)]
    two = [[str(e) for e in v] for v in field_kernel(a)]
    assert json.dumps(one) == json.dumps(two)
