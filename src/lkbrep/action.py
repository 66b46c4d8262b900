"""The braid group action: representation matrices on the rank-n(n-1)/2
free module, the chain-level model of each generator on the one-vertex
complex, the induced action on degree-2 twisted homology, and the standard
fork classes with their change of basis.

Matrix bases are always ordered lexicographically in the index pair; the
chain model of a generator is verified on construction to commute with the
boundary and to preserve every edge weight, so any convention slip turns
into a hard error instead of a silently wrong matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .complexes import (
    Chain,
    cell_A,
    cell_B,
    edge_a,
    edge_b,
    edge_c,
    pair_list,
    sal_fn,
    word_to_chain,
    word_weight,
)
from .homology import e_basis, v_chain, v_membership
from .linalg import Matrix, VerificationError, ring_triangular_inverse
from .ring import ONE, X, Y, ZERO


@dataclass(frozen=True)
class BraidWord:
    """Word in the standard braid generators: letter k means the k-th
    generator, -k its inverse, 1 <= k <= n-1."""

    n: int
    letters: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        for k in self.letters:
            if not isinstance(k, int) or k == 0 or abs(k) > self.n - 1:
                raise ValueError(f"letter {k} out of range for n={self.n}")

    @classmethod
    def parse(cls, n, text):
        return cls(n, tuple(int(tok) for tok in text.split()))


def _pair_label(p):
    return f"e({p[0]},{p[1]})"


def _rho_image(k, i, j):
    """Image of the basis vector at (i, j) under the k-th generator, as a
    map pair -> coefficient (the seven-case table)."""
    if k == i - 1:
        return {(i - 1, j): X, (i, j): ONE - X}
    if k == i and i < j - 1:
        return {(i + 1, j): ONE, (k, k + 1): -X * Y * (X - 1)}
    if k == i and i == j - 1:
        return {(k, k + 1): -X * X * Y}
    if i < k < j - 1:
        return {(i, j): ONE, (k, k + 1): -Y * (X - 1) * (X - 1)}
    if k == j - 1 and i < j - 1:
        return {(i, j - 1): ONE, (k, k + 1): -X * Y * (X - 1)}
    if k == j:
        return {(i, j + 1): X, (i, j): ONE - X}
    return {(i, j): ONE}


@lru_cache(maxsize=None)
def lkb_generator(k, n):
    """Matrix of the k-th braid generator on the free module with basis
    indexed by pairs (i, j), columns holding images of basis vectors."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n={n}")
    pairs = pair_list(n)
    idx = {p: a for a, p in enumerate(pairs)}
    size = len(pairs)
    cols = []
    for p in pairs:
        col = [ZERO] * size
        for q, coeff in _rho_image(k, *p).items():
            col[idx[q]] = coeff
        cols.append(col)
    labels = [_pair_label(p) for p in pairs]
    return Matrix([[cols[j][i] for j in range(size)] for i in range(size)],
                  nrows=size, ncols=size, row_labels=labels, col_labels=labels)


@lru_cache(maxsize=None)
def lkb_generator_inverse(k, n):
    """Inverse generator matrix over the Laurent ring, from the cubic
    annihilator (t + x^2 y)(t + x)(t - 1) of every generator s:

        s^-1 = (s^2 + (x^2 y + x - 1) s + (x^3 y - x^2 y - x) I) / (x^3 y).

    The division is by a unit, so the candidate lies in the ring; it is
    accepted only if s * s^-1 = I holds exactly."""
    s = lkb_generator(k, n)
    s2 = s.mul(s)
    c1 = X * X * Y + X - 1
    c0 = X ** 3 * Y - X * X * Y - X
    unit_inv = (X ** 3 * Y) ** -1
    size = s.nrows
    inv = Matrix([[(s2[i, j] + c1 * s[i, j] + (c0 if i == j else ZERO)) * unit_inv
                   for j in range(size)] for i in range(size)],
                 nrows=size, ncols=size, row_labels=s.col_labels, col_labels=s.row_labels)
    if s.mul(inv) != Matrix.identity(size, ONE):
        raise VerificationError(f"generator {k} fails s * s^-1 = I for its cubic annihilator")
    return inv


def lkb_word(word):
    """Product of generator matrices along the word."""
    n = word.n
    size = n * (n - 1) // 2
    out = Matrix.identity(size, ONE)
    labels = [_pair_label(p) for p in pair_list(n)]
    out = Matrix(out.entries, row_labels=labels, col_labels=labels)
    for k in word.letters:
        g = lkb_generator(k, n) if k > 0 else lkb_generator_inverse(-k, n)
        out = out.mul(g)
    return out


def s_edge_word(k, e, n):
    """Image of an edge under the combinatorial model of the k-th
    generator, as an edge word."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n={n}")
    kind, i = e[0], e[1]
    if kind == "a":
        if k == i - 1:
            return [(edge_a(i - 1), 1)]
        if k == i:
            return [(edge_a(i), 1), (edge_a(i + 1), 1), (edge_a(i), -1)]
        return [(edge_a(i), 1)]
    if kind == "b":
        if k == i - 1:
            return [(edge_b(i), 1), (edge_b(i - 1), 1), (edge_b(i), -1)]
        if k == i:
            return [(edge_b(i + 1), 1)]
        return [(edge_b(i), 1)]
    if kind == "c":
        if k == i - 1:
            return [(edge_a(i - 1), 1), (edge_b(i), 1), (edge_c(i), 1),
                    (edge_b(i), -1), (edge_a(i - 1), -1)]
        return [(edge_c(i), 1)]
    raise ValueError(f"not an edge label: {e}")


def _u_chain(i):
    """The auxiliary square-cell combination absorbing the twist of the
    (i, i+1) cell."""
    xm1 = X - 1
    return Chain(2, {
        cell_B(i, 1): xm1, cell_B(i, 2): -xm1,
        cell_B(i + 1, 2): -xm1, cell_B(i + 1, 3): xm1,
        cell_A(i, i + 1): -Y})


def _s2_image(k, cell):
    """Image of a 2-cell under the chain model of the k-th generator."""
    kind = cell[0]
    if kind == "A":
        _, i, j = cell
        if k == i - 1:
            return Chain(2, {cell_A(i, j): ONE - X, cell_A(i - 1, j): X})
        if k == i and i < j - 1:
            return Chain(2, {cell_A(i + 1, j): ONE})
        if k == i and i == j - 1:
            return _u_chain(i)
        if i < j - 1 == k:
            return Chain(2, {cell_A(i, j - 1): ONE})
        if k == j:
            return Chain(2, {cell_A(i, j): ONE - X, cell_A(i, j + 1): X})
        return Chain(2, {cell_A(i, j): ONE})
    _, i, r = cell
    if r == 1:
        if k == i - 1:
            return Chain(2, {cell_B(i, 3): X})
        if k == i:
            return Chain(2, {cell_B(i, 1): ONE, cell_B(i + 1, 1): X,
                             cell_B(i + 1, 3): -X * X})
        return Chain(2, {cell_B(i, 1): ONE})
    if r == 2:
        if k == i - 1:
            return _u_chain(i - 1) + Chain(2, {
                cell_B(i, 3): ONE, cell_B(i - 1, 1): -X, cell_B(i - 1, 2): X})
        if k == i:
            return Chain(2, {cell_B(i, 1): ONE, cell_B(i + 1, 2): X,
                             cell_B(i + 1, 3): -X}) + _u_chain(i).scaled(Y)
        return Chain(2, {cell_B(i, 2): ONE})
    if r == 3:
        if k == i - 1:
            return Chain(2, {cell_B(i, 3): ONE, cell_B(i - 1, 3): X,
                             cell_B(i - 1, 1): -X * X}) + _u_chain(i - 1).scaled(-X * (Y - 1))
        if k == i:
            return _u_chain(i).scaled(Y - 1) + Chain(2, {cell_B(i, 1): X})
        return Chain(2, {cell_B(i, 3): ONE})
    raise ValueError(f"not a 2-cell label: {cell}")


@dataclass(frozen=True)
class ChainEndo:
    """Chain model of a braid generator: its action on 2-cells and on
    edges, stored column by column; d o c2 = c1 o d holds by construction."""

    k: int
    n: int
    c1_cols: dict
    c2_cols: dict

    def apply_c1(self, u):
        return Chain.combination(1, [(coeff, self.c1_cols[e]) for e, coeff in u.coeffs.items()])

    def apply_c2(self, u):
        return Chain.combination(2, [(coeff, self.c2_cols[cell])
                                     for cell, coeff in u.coeffs.items()])

    def c2_matrix(self):
        cs = sal_fn(self.n).basis2
        return Matrix([[self.c2_cols[c][r] for c in cs] for r in cs],
                      nrows=len(cs), ncols=len(cs), row_labels=cs, col_labels=cs)


@lru_cache(maxsize=None)
def chain_action(k, n):
    """Build the chain model of the k-th generator and verify that it is a
    chain map and that it preserves every edge weight."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"generator index {k} out of range for n={n}")
    tc = sal_fn(n)
    c1_cols = {e: word_to_chain(s_edge_word(k, e, n), tc.weights) for e in tc.basis1}
    c2_cols = {cell: _s2_image(k, cell) for cell in tc.basis2}
    endo = ChainEndo(k, n, c1_cols, c2_cols)
    for e in tc.basis1:
        if word_weight(s_edge_word(k, e, n), tc.weights) != tc.weights[e]:
            raise VerificationError(f"edge weight not preserved at {e}")
    for cell in tc.basis2:
        lhs = tc.differential(endo.c2_cols[cell])
        rhs = endo.apply_c1(tc.d_cols[cell])
        if lhs != rhs:
            raise VerificationError(f"chain-map identity fails at {cell}")
    return endo


@lru_cache(maxsize=None)
def homology_action(k, n):
    """Matrix of the k-th generator on degree-2 homology in the basis of E
    cycles; required to land in the Laurent ring and to agree with the
    representation matrix entry for entry."""
    endo = chain_action(k, n)
    pairs = pair_list(n)
    idx = {p: a for a, p in enumerate(pairs)}
    size = len(pairs)
    es = e_basis(n)
    cols = []
    for p in pairs:
        coords = v_membership(endo.apply_c2(es[p]), n)
        if coords is None:
            raise VerificationError(f"homology action at E{p} leaves the ring")
        col = [ZERO] * size
        for q, c in coords.items():
            col[idx[q]] = c
        cols.append(col)
    labels = [f"E({p[0]},{p[1]})" for p in pairs]
    got = Matrix([[cols[j][i] for j in range(size)] for i in range(size)],
                 nrows=size, ncols=size, row_labels=labels, col_labels=labels)
    want = lkb_generator(k, n)
    if got.entries != want.entries:
        raise VerificationError(f"homology action of generator {k} deviates from the matrix form")
    return got


def h1_action(k, n):
    """Induced permutation on integral first homology in the basis of the
    a classes and the first c class: the chain model specialized at
    x = y = 1 and projected along the relations c_i ~ c_1, b_i ~ a_i;
    required to be the transposition of a_k and a_(k+1)."""
    endo = chain_action(k, n)
    basis = [edge_a(i) for i in range(1, n + 1)] + [edge_c(1)]

    def project(edge):
        kind, i = edge[0], edge[1]
        out = [0] * (n + 1)
        out[n if kind == "c" else i - 1] = 1
        return out

    cols = []
    for e in basis:
        col = [0] * (n + 1)
        for f, coeff in endo.c1_cols[e].coeffs.items():
            m = sum(coeff.terms.values())
            if m:
                pr = project(f)
                col = [c + m * p for c, p in zip(col, pr)]
        cols.append(col)
    labels = [f"[a{i}]" for i in range(1, n + 1)] + ["[c1]"]
    mat = Matrix([[cols[j][i] for j in range(n + 1)] for i in range(n + 1)],
                 nrows=n + 1, ncols=n + 1, row_labels=labels, col_labels=labels)
    expected = [[0] * (n + 1) for _ in range(n + 1)]
    perm = {k - 1: k, k: k - 1}  # zero-based transposition of a_k, a_{k+1}
    for j in range(n + 1):
        expected[perm.get(j, j)][j] = 1
    if mat.entries != expected:
        raise VerificationError(f"generator {k} does not swap a{k} and a{k + 1} on first homology")
    return {"matrix": mat, "swaps": (k, k + 1)}


def eigen_structure_check(n):
    """Eigen-structure of the first generator on the E basis: one vector
    scaled by -x^2 y, a family scaled by -x, a fixed family, and the fixed
    far cells; the combined family must be a basis over Q(x, y).

    In the row order (1,2); (1,j), (2,j) for j >= 3; then the far cells,
    the family is block upper triangular: E(1,2) and the far cells are unit
    1x1 blocks, and F(j), G(j) form a 2x2 block with determinant
    (xy-1)(x^2y+1)(x+1).  is_block_triangular_basis checks exactly that."""
    if n < 3:
        raise ValueError("need n >= 3")
    pairs = pair_list(n)
    idx = {p: a for a, p in enumerate(pairs)}
    size = len(pairs)
    m = lkb_generator(1, n)

    def apply(vec):
        return m.apply(vec)

    def unit(p):
        v = [ZERO] * size
        v[idx[p]] = ONE
        return v

    def scaled(vec, c):
        return [c * e for e in vec]

    checks = []
    e12 = unit((1, 2))
    checks.append(("E(1,2) scaled by -x^2y", apply(e12) == scaled(e12, -X * X * Y)))
    blocks = [([(1, 2)], [e12])]
    xy1 = X * Y - 1
    x2y1 = X * X * Y + 1
    for j in range(3, n + 1):
        f = [ZERO] * size
        f[idx[(1, j)]] = xy1
        f[idx[(2, j)]] = -xy1
        f[idx[(1, 2)]] = Y * (ONE - X)
        checks.append((f"F({j}) scaled by -x", apply(f) == scaled(f, -X)))
        g = [ZERO] * size
        g[idx[(1, j)]] = X * x2y1
        g[idx[(2, j)]] = x2y1
        g[idx[(1, 2)]] = X * X * Y * (ONE - X)
        checks.append((f"G({j}) fixed", apply(g) == g))
        blocks.append(([(1, j), (2, j)], [f, g]))
    for i in range(3, n + 1):
        for j in range(i + 1, n + 1):
            v = unit((i, j))
            checks.append((f"E({i},{j}) fixed", apply(v) == v))
            blocks.append(([(i, j)], [v]))
    checks.append(("family is a basis", is_block_triangular_basis(blocks, idx)))
    return {"n": n, "checks": checks, "passed": all(ok for _, ok in checks)}


def is_block_triangular_basis(blocks, idx):
    """Whether a family of vectors is a basis over Q(x, y), certified by its
    block upper triangular shape.

    blocks is a list of (rows, vectors): the row labels of one diagonal
    block, 1x1 or 2x2, and as many vectors; idx maps every row label to its
    position.  The rows of all blocks must list every label once, every
    vector must vanish on the rows of later blocks, and every diagonal block
    must have a nonzero determinant.  The family's determinant is then the
    product of those, nonzero in the domain Z[x^+-1, y^+-1]."""
    if sorted(idx[p] for rows, _ in blocks for p in rows) != list(range(len(idx))):
        return False
    allowed = set()
    for rows, vecs in blocks:
        if len(rows) != len(vecs) or len(rows) > 2:
            return False
        allowed.update(idx[p] for p in rows)
        if any(e and r not in allowed for v in vecs for r, e in enumerate(v)):
            return False
        sub = [[v[idx[p]] for v in vecs] for p in rows]
        det = sub[0][0] if len(sub) == 1 else sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        if not det:
            return False
    return True


def fork_chain(p, q, n, part="class"):
    """Fork 2-chains: the disc chain over the first-kind square cells
    ("X1"), its companion with matching scaled boundary ("X2"), and the
    closed fork class itself ("class")."""
    if not 1 <= p < q <= n:
        raise ValueError(f"bad pair ({p}, {q}) for n={n}")
    if part in ("X1", "X2") and q <= p + 1:
        raise ValueError("parts X1 and X2 need q > p+1")
    if part == "X1":
        return Chain(2, {cell_B(k, 1): X ** (k - 1) for k in range(p + 1, q)})
    if part == "X2":
        lead = (Y - 1) * (X * Y + 1)
        a_cells = {cell_A(p, k): -(X ** (k - 1) * (X - 1) * lead) for k in range(p + 1, q)}
        a_cells[cell_A(p, q)] = X ** (q - 1) * lead
        return Chain.combination(2, [(X ** p * (X - 1), v_chain(p, "b", n)),
                                     (X ** (q - 1) * (X - 1), v_chain(q, "a", n)),
                                     (ONE, Chain(2, a_cells))])
    if part != "class":
        raise ValueError(f"unknown part {part!r}")
    if q == p + 1:
        return e_basis(n)[(p, q)].scaled(X ** p)
    u = fork_chain(p, q, n, "X2") - fork_chain(p, q, n, "X1").scaled(
        (X - 1) * (X - 1) * (X * Y + 1))
    if sal_fn(n).differential(u):
        raise VerificationError(f"fork class ({p},{q}) is not a cycle")
    return u


def verify_fork_boundary(p, q, n):
    """Check that the companion chain's boundary equals the scaled disc
    boundary, and that both equal the closed telescoping form."""
    if not (1 <= p and p + 1 < q <= n):
        raise ValueError("need p < q-1 <= n-1")
    tc = sal_fn(n)
    scale = (X - 1) * (X - 1) * (X * Y + 1)
    lhs = tc.differential(fork_chain(p, q, n, "X2"))
    rhs = tc.differential(fork_chain(p, q, n, "X1")).scaled(scale)
    closed = {edge_a(k): -(X ** (k - 1)) * (Y - 1) for k in range(p + 1, q)}
    closed[edge_c(p + 1)] = -(X ** p)
    closed[edge_c(q)] = X ** (q - 1)
    closed = Chain(1, closed).scaled(scale)
    if lhs != rhs or lhs != closed:
        raise VerificationError(f"fork boundary identity fails at ({p},{q})")
    return {"p": p, "q": q, "n": n, "passed": True}


def fork_in_e_basis(p, q, n):
    """Expansion of the fork class over the E cycles; must match the closed
    form x^(q-1) E(p,q) - sum over p<k<q of x^(k-1)(x-1) E(p,k)."""
    coords = v_membership(fork_chain(p, q, n, "class"), n)
    if coords is None:
        raise VerificationError("cycle unexpectedly falls outside the spanned submodule")
    want = {(p, q): X ** (q - 1)}
    for k in range(p + 1, q):
        want[(p, k)] = -(X ** (k - 1)) * (X - 1)
    if coords != want:
        raise VerificationError(f"fork expansion at ({p},{q}) deviates from the closed form")
    return coords


@lru_cache(maxsize=None)
def _fork_change_of_basis(n):
    """Columns are fork classes in E coordinates: triangular with monomial
    diagonal, hence invertible over the ring."""
    pairs = pair_list(n)
    idx = {p: a for a, p in enumerate(pairs)}
    size = len(pairs)
    cols = []
    for (p, q) in pairs:
        col = [ZERO] * size
        col[idx[(p, q)]] = X ** (q - 1)
        for k in range(p + 1, q):
            col[idx[(p, k)]] = -(X ** (k - 1)) * (X - 1)
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(size)] for i in range(size)],
                  nrows=size, ncols=size)


@lru_cache(maxsize=None)
def _fork_change_of_basis_inverse(n):
    return ring_triangular_inverse(_fork_change_of_basis(n))


@lru_cache(maxsize=None)
def fork_basis_action(k, n):
    """Generator matrix in the fork basis: conjugate the homology action by
    the change of basis, all in the Laurent ring.  The change of basis is
    upper triangular with monomial diagonal, so it is inverted once per n by
    back-substitution and accepted only if cb * cb^-1 = I holds exactly."""
    cb = _fork_change_of_basis(n)
    prod = _fork_change_of_basis_inverse(n).mul(homology_action(k, n)).mul(cb)
    labels = [f"X({p[0]},{p[1]})" for p in pair_list(n)]
    return Matrix(prod.entries, row_labels=labels, col_labels=labels)


def check_braid_relations(gens):
    """Verify, on the matrices gens = [s_1, ..., s_(n-1)] of one level
    (representation, homology or fork basis), the braid relation
    s_k s_(k+1) s_k = s_(k+1) s_k s_(k+1) for adjacent generators and
    commutation s_k s_l = s_l s_k for distant ones."""
    report = []
    for k in range(1, len(gens)):
        a, b = gens[k - 1], gens[k]
        lhs = a.mul(b).mul(a)
        rhs = b.mul(a).mul(b)
        report.append({"relation": f"braid({k},{k + 1})", "passed": lhs.entries == rhs.entries})
    for k in range(1, len(gens)):
        for l in range(k + 2, len(gens) + 1):
            a, b = gens[k - 1], gens[l - 1]
            report.append({"relation": f"commute({k},{l})",
                           "passed": a.mul(b).entries == b.mul(a).entries})
    return report
