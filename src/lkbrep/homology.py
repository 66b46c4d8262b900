"""Cycles and bases of the degree-2 twisted homology of the one-vertex
complex, and the integral first homology.

The distinguished cycles E(i, j) span the kernel of the twisted boundary
over Q(x, y), which is proven exactly in the Laurent ring: their A-block is
(y-1)(xy+1) times the identity, and the map eta composed with the boundary
is triangular with nonzero diagonal on the B cells.  The coordinates of a
cycle over the E cycles are then its A coefficients divided exactly by
(y-1)(xy+1).  The integral cycles form a basis of the kernel over the
Laurent ring itself, reached from any integral cycle by a descent on the
leading square cell.  A descent that succeeds writes its input as a
combination of basis cycles, so it certifies that the input is a cycle;
only a failed one computes a boundary, to tell a non-cycle from a defect
in the basis.  For first homology, the boundary is specialized at
x = y = 1 and reduced on unit pivots, and each relation is checked by an
explicit preimage.
"""

from __future__ import annotations

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
)
from .linalg import VerificationError, int_unit_pivot_factors
from .ring import LaurentPolynomial, lp_try_div_exact, ONE, X, Y, ZERO

LEAD = (Y - 1) * (X * Y + 1)  # coefficient of the A cell inside each E cycle


def v_chain(i, kind, n):
    """The auxiliary 2-chain supported on B(i, 1..3) whose boundary is a
    multiple of b_i and c_{i+1} (kind "b"), of a_i and c_i (kind "a"), or of
    c_i - c_{i+1} (kind "0")."""
    if not 1 <= i <= n:
        raise ValueError(f"index {i} out of range for n={n}")
    if kind == "b":
        coeffs = {cell_B(i, 1): -X * Y, cell_B(i, 2): X * (Y - 1), cell_B(i, 3): ONE}
    elif kind == "a":
        coeffs = {cell_B(i, 1): ONE, cell_B(i, 2): X * (Y - 1), cell_B(i, 3): -X * Y}
    elif kind == "0":
        coeffs = {cell_B(i, 1): -Y, cell_B(i, 2): Y - 1, cell_B(i, 3): -Y}
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return Chain(2, coeffs)


def e_cycle(i, j, n):
    """The cycle E(i, j): its only A-cell is A(i, j), with coefficient
    (y-1)(xy+1), completed by V-chains so that the boundary cancels."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    sq = (X - 1) * (X - 1)
    terms = [(ONE, Chain(2, {cell_A(i, j): LEAD})),
             (X - 1, v_chain(i, "b", n)), (X - 1, v_chain(j, "a", n))]
    terms += [(sq, v_chain(k, "0", n)) for k in range(i + 1, j)]
    return Chain.combination(2, terms)


@lru_cache(maxsize=None)
def e_basis(n):
    """All E cycles in pair order, verified to be cycles on construction."""
    tc = sal_fn(n)
    out = {}
    for i, j in pair_list(n):
        u = e_cycle(i, j, n)
        if tc.differential(u):
            raise VerificationError(f"E({i},{j}) is not a cycle")
        out[(i, j)] = u
    return out


@lru_cache(maxsize=None)
def kernel_rank(n):
    """Dimension over Q(x, y) of the kernel of the twisted boundary; also
    certifies that the E cycles span that kernel.

    The certificate is a two-sided bound, exact in the Laurent ring.  From
    below: the C(n, 2) E cycles are cycles (checked by e_basis) and are
    independent, because their A-block is exactly LEAD times the identity
    (checked here).  From above: eta composed with the boundary is
    triangular with nonzero diagonal on the 3n B cells
    (verify_eta_triangular), so its determinant is nonzero; the ring is a
    domain, so the boundary is injective on the span of the B cells and the
    kernel has dimension at most C(n, 2).  The bounds meet, so the E cycles
    span the kernel."""
    if n < 2:
        raise ValueError("need n >= 2")
    es = e_basis(n)
    pairs = pair_list(n)
    for p in pairs:
        for q in pairs:
            if es[p][cell_A(*q)] != (LEAD if q == p else ZERO):
                raise VerificationError(
                    f"A-block of the E cycles is not LEAD*I at E({p[0]},{p[1]}), A({q[0]},{q[1]})")
    if not verify_eta_triangular(n)["passed"]:
        raise VerificationError("eta o d is not triangular with nonzero diagonal on the B cells")
    return len(pairs)


def eta_map(n):
    """The degree-raising map on edges used to prove the kernel dimension
    bound; sends each edge into the span of the B cells over its index
    (the last c edge maps to zero)."""
    cols = {}
    for i in range(1, n + 1):
        cols[edge_a(i)] = Chain(2, {
            cell_B(i, 1): -(X * Y - Y + 1), cell_B(i, 2): -(Y - 1), cell_B(i, 3): Y})
        cols[edge_b(i)] = Chain(2, {
            cell_B(i, 1): -X * Y, cell_B(i, 2): X * (Y - 1), cell_B(i, 3): ONE})
        cols[edge_c(i)] = Chain(2, {
            cell_B(i, 1): -Y * (Y - 1), cell_B(i, 2): (Y - 1) * (Y - 1),
            cell_B(i, 3): -Y * (Y - 1)})
    cols[edge_c(n + 1)] = Chain(2)
    return cols


def verify_eta_triangular(n):
    """Build eta composed with the boundary on the span of the B cells, in
    the basis ordered B(1,1), B(1,2), B(1,3), B(2,1), ... (decreasing), and
    report whether the matrix is triangular with nonzero diagonal."""
    if n < 2:
        raise ValueError("need n >= 2")
    tc = sal_fn(n)
    eta = eta_map(n)
    blabels = [cell_B(i, r) for i in range(1, n + 1) for r in (1, 2, 3)]
    index = {b: k for k, b in enumerate(blabels)}
    size = len(blabels)
    mat = [[ZERO] * size for _ in range(size)]
    for col, b in enumerate(blabels):
        image = Chain.combination(2, [(coeff, eta[e]) for e, coeff in tc.d_cols[b].coeffs.items()])
        for lbl, coeff in image.coeffs.items():
            mat[index[lbl]][col] = coeff
    triangular = all(not mat[r][c] for r in range(size) for c in range(r + 1, size))
    diagonal = [mat[k][k] for k in range(size)]
    nonzero = all(bool(d) for d in diagonal)
    return {
        "size": size,
        "triangular": triangular,
        "diagonal": [str(d) for d in diagonal],
        "diagonal_nonzero": nonzero,
        "passed": triangular and nonzero,
    }


def _is_lp_chain(u):
    return all(isinstance(c, LaurentPolynomial) for c in u.coeffs.values())


def v_membership(u, n):
    """Coordinates of a cycle over the E cycles when they all lie in the
    Laurent ring, else None (the cycle sits outside the spanned submodule).

    The chain must have Laurent coefficients and be a cycle; anything else
    raises ValueError.  kernel_rank(n) certifies that the E cycles span the
    kernel with A-block LEAD times the identity, so a cycle u is the sum of
    (u[A(p)] / LEAD) E(p): each coordinate is an A coefficient divided
    exactly by LEAD.  The nonzero ones are returned, or None at the first
    division that leaves the ring.  The proper-submodule check rests on
    this: the A(1, 2) coordinate of X(1, 3) is (xy+1)/LEAD, which does not
    divide exactly."""
    if not _is_lp_chain(u):
        raise ValueError("expected a chain with Laurent coefficients")
    if sal_fn(n).differential(u):
        raise ValueError("input chain is not a cycle")
    kernel_rank(n)
    out = {}
    for p in pair_list(n):
        alpha = u[cell_A(*p)]
        if alpha:
            c = lp_try_div_exact(alpha, LEAD)
            if c is None:
                return None
            out[p] = c
    return out


def a_order_key(pair):
    """Total order on A cells: first by index spread, then by start index."""
    i, j = pair
    return (j - i, i)


def integral_x(i, j, n):
    """The integral basis cycle at leading cell A(i, j), given by its
    explicit cell form; the equivalent E-combination (after clearing its
    denominator) is asserted on construction, as is being a cycle."""
    if not 1 <= i < j <= n:
        raise ValueError(f"bad pair ({i}, {j}) for n={n}")
    xy1 = X * Y + 1
    if j == i + 1:
        u = e_cycle(i, j, n)
        denom, combo = ONE, {(i, j): ONE}
    elif i == 1 and j == 3:
        u = Chain(2, {
            cell_A(1, 2): xy1, cell_A(2, 3): xy1, cell_A(1, 3): -xy1,
            cell_B(2, 1): -(X - 1), cell_B(2, 2): X * X - 1, cell_B(2, 3): -(X - 1)})
        denom, combo = Y - 1, {(1, 2): ONE, (2, 3): ONE, (1, 3): -ONE}
    elif j == i + 2:
        u = Chain(2, {
            cell_A(i - 1, i): X * Y, cell_A(i, i + 1): Y * (X - 1),
            cell_A(i + 1, i + 2): -ONE, cell_A(i - 1, i + 1): -X * Y,
            cell_A(i, i + 2): ONE,
            cell_B(i, 2): X * (X - 1), cell_B(i, 3): -(X - 1),
            cell_B(i + 1, 2): -(X - 1), cell_B(i + 1, 3): X - 1})
        denom = LEAD
        combo = {(i - 1, i): X * Y, (i, i + 1): (X - 1) * Y, (i + 1, i + 2): -ONE,
                 (i - 1, i + 1): -X * Y, (i, i + 2): ONE}
    else:
        u = Chain(2, {
            cell_A(i, j): ONE, cell_A(i, j - 1): -ONE,
            cell_A(i + 1, j): -ONE, cell_A(i + 1, j - 1): ONE})
        denom = LEAD
        combo = {(i + 1, j - 1): ONE, (i, j - 1): -ONE, (i + 1, j): -ONE, (i, j): ONE}
    es = e_basis(n)
    rhs = Chain.combination(2, [(c, es[p]) for p, c in combo.items()])
    if u.scaled(denom) != rhs:
        raise VerificationError(f"cell form of X({i},{j}) disagrees with its E-combination")
    if sal_fn(n).differential(u):
        raise VerificationError(f"X({i},{j}) is not a cycle")
    return u


@lru_cache(maxsize=None)
def integral_basis(n):
    return {p: integral_x(p[0], p[1], n) for p in pair_list(n)}


def _leading_divisor(i, j):
    """Coefficient of the leading cell A(i, j) inside the basis cycle."""
    if j == i + 1:
        return LEAD
    if i == 1 and j == 3:
        return -(X * Y + 1)
    return ONE


def reduce_to_integral_basis(u, n):
    """Coordinates of an integral cycle over the integral basis.

    Descends on the A cells from the largest down: each coefficient must be
    exactly divisible by the leading coefficient of the matching basis
    cycle, whose multiple is subtracted in place.  A descent that ends at
    zero writes u as a Laurent combination of basis cycles, each checked to
    be a cycle on construction, so success certifies that u is a cycle and
    no boundary is computed.  A failed division or a nonzero leftover is a
    hard error, never absorbed: ValueError when u is not a cycle,
    VerificationError when it is."""
    if not _is_lp_chain(u):
        raise ValueError("expected a chain with Laurent coefficients")
    if u.degree != 2:
        raise ValueError("expected a chain of degree 2")
    basis = integral_basis(n)
    work = dict(u.coeffs)
    coords = {}
    for p in sorted(pair_list(n), key=a_order_key, reverse=True):
        alpha = work.get(cell_A(*p))
        if alpha is None:
            continue
        div = _leading_divisor(*p)
        lam = alpha if div == ONE else lp_try_div_exact(alpha, div)
        if lam is None:
            raise _reduction_error(u, n, f"leading coefficient at A{p} is not divisible by {div}")
        neg = -lam
        for cell, c in basis[p].coeffs.items():
            v = neg * c
            prev = work.get(cell)
            if prev is not None:
                v = prev + v
            if v:
                work[cell] = v
            else:
                work.pop(cell, None)
        coords[p] = lam
    if work:
        raise _reduction_error(u, n, "reduction left a nonzero chain with no A cells")
    return coords


def _reduction_error(u, n, message):
    """The error a failed descent raises: ValueError when the input is not a
    cycle, else VerificationError with the message, naming the basis."""
    if sal_fn(n).differential(u):
        return ValueError("input chain is not a cycle")
    return VerificationError(message)


def h1_fn(n):
    """Integral first homology of the one-vertex complex: (rank, torsion)
    of the cokernel of the untwisted boundary, plus a report confirming
    that each c_i - c_1 and b_i - a_i lies in the boundary image.

    The boundary at x = y = 1 is read as sparse integer columns and reduced
    by int_unit_pivot_factors; with one vertex, the rank is #edges -
    #factors.  Each relation has an explicit preimage, summed exactly over
    the columns: c_i - c_1 = d(B(1,1) + ... + B(i-1,1)) and
    b_i - a_i = dB(i,2) - dB(i,1).  A sum that misses its target raises
    VerificationError, since a failed preimage does not prove the relation
    false."""
    if n < 2:
        raise ValueError("need n >= 2")
    tc = sal_fn(n)
    cols = tc.untwist()
    factors = int_unit_pivot_factors(list(cols.values()))
    h1rank = len(tc.basis1) - len(factors)
    torsion = [d for d in factors if d != 1]
    relations = {}  # name -> (preimage as (coefficient, cell) pairs, target)
    for i in range(2, n + 2):
        relations[f"c{i}-c1"] = ([(1, cell_B(k, 1)) for k in range(1, i)],
                                 {edge_c(i): 1, edge_c(1): -1})
    for i in range(1, n + 1):
        relations[f"b{i}-a{i}"] = ([(1, cell_B(i, 2)), (-1, cell_B(i, 1))],
                                   {edge_b(i): 1, edge_a(i): -1})
    for name, (preimage, target) in relations.items():
        image = {}
        for k, cell in preimage:
            for e, v in cols[cell].items():
                image[e] = image.get(e, 0) + k * v
        if {e: v for e, v in image.items() if v} != target:
            raise VerificationError(f"H1 relation {name}: its preimage misses the target")
    return h1rank, torsion, {name: True for name in relations}
