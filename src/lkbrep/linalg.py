"""Deterministic dense linear algebra over the Laurent ring, over Q(x, y),
and over Z.

One Matrix class serves all three scalar domains (Laurent polynomials,
rational functions, plain ints).  Field computations clear denominators
row by row and run fraction-free (Bareiss) elimination over the ring, with
rational functions appearing only during back-substitution; pivots are
always the first nonzero entry scanning rows top-down and columns left to
right, so identical inputs give identical outputs.

The verification path runs no field elimination.  It rests on exact
certificates in the Laurent ring, such as a ring inverse accepted once
a * a^-1 = I holds exactly; the field functions serve as oracles for those
certificates.  Integer matrices are given as sparse columns and reduced on
their +-1 entries; only a remainder with no unit entry goes to the Smith
normal form.  Lattice membership needs no solver: a caller that knows a
preimage sums it exactly and compares.
"""

from __future__ import annotations

import heapq

from .ring import RationalFunction, VerificationError, ONE, ZERO, _as_rf, lp_try_div_exact


class Matrix:
    """Dense matrix with optional row/column labels.  Entries may be
    Laurent polynomials, rational functions, or ints; treat as immutable."""

    __slots__ = ("nrows", "ncols", "entries", "row_labels", "col_labels")

    def __init__(self, entries, nrows=None, ncols=None, row_labels=None, col_labels=None):
        self.entries = [list(row) for row in entries]
        self.nrows = len(self.entries) if nrows is None else nrows
        self.ncols = (len(self.entries[0]) if self.entries else 0) if ncols is None else ncols
        for row in self.entries:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")
        if len(self.entries) != self.nrows:
            raise ValueError("row count mismatch")
        if row_labels is not None and (len(row_labels) != self.nrows or len(set(row_labels)) != self.nrows):
            raise ValueError("bad row labels")
        if col_labels is not None and (len(col_labels) != self.ncols or len(set(col_labels)) != self.ncols):
            raise ValueError("bad column labels")
        self.row_labels = list(row_labels) if row_labels is not None else None
        self.col_labels = list(col_labels) if col_labels is not None else None

    @classmethod
    def identity(cls, n, one=1):
        zero = one * 0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        return all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.nrows)
            for j in range(self.ncols)
        )

    __hash__ = None

    def __getitem__(self, rc):
        return self.entries[rc[0]][rc[1]]

    def row(self, i):
        return list(self.entries[i])

    def col(self, j):
        return [self.entries[i][j] for i in range(self.nrows)]

    def map(self, fn):
        return Matrix(
            [[fn(e) for e in row] for row in self.entries],
            nrows=self.nrows,
            ncols=self.ncols,
            row_labels=self.row_labels,
            col_labels=self.col_labels,
        )

    def mul(self, other):
        if self.ncols != other.nrows:
            raise ValueError(f"dimension mismatch: {self.ncols} vs {other.nrows}")
        if self.ncols == 0:
            raise ValueError("cannot multiply through an empty inner dimension")
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, self.ncols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(out, nrows=self.nrows, ncols=other.ncols,
                      row_labels=self.row_labels, col_labels=other.col_labels)

    def apply(self, vec):
        """Matrix times column vector (a plain list)."""
        if self.ncols != len(vec):
            raise ValueError("dimension mismatch")
        out = []
        for i in range(self.nrows):
            acc = self.entries[i][0] * vec[0]
            for k in range(1, self.ncols):
                acc = acc + self.entries[i][k] * vec[k]
            out.append(acc)
        return out

    def to_json_obj(self, entry_to_json=None, label_to_str=str):
        if entry_to_json is None:
            entry_to_json = lambda e: e.to_json_obj() if hasattr(e, "to_json_obj") else e
        obj = {"rows": self.nrows, "cols": self.ncols}
        if self.row_labels is not None:
            obj["row_labels"] = [label_to_str(l) for l in self.row_labels]
        if self.col_labels is not None:
            obj["col_labels"] = [label_to_str(l) for l in self.col_labels]
        obj["entries"] = [[entry_to_json(e) for e in row] for row in self.entries]
        return obj

    def pretty(self, sep="  "):
        cells = [[str(e) for e in row] for row in self.entries]
        widths = [max((len(cells[i][j]) for i in range(self.nrows)), default=0) for j in range(self.ncols)]
        return "\n".join(
            "[ " + sep.join(cells[i][j].rjust(widths[j]) for j in range(self.ncols)) + " ]"
            for i in range(self.nrows)
        )


# ---------------------------------------------------------------------------
# certificates: cheap witnesses checked exactly

def ring_triangular_inverse(a):
    """Inverse over the Laurent ring of an upper-triangular matrix whose
    diagonal entries are signed monomials, by back-substitution; the result
    is accepted only if a * inverse = I holds exactly."""
    n = a.nrows
    if a.ncols != n:
        raise ValueError("inverse of a non-square matrix")
    ent = a.entries
    if not all(ent[i][i].is_unit_monomial() for i in range(n)):
        raise VerificationError("diagonal entry is not a unit of the ring")
    diag_inv = [ent[i][i] ** -1 for i in range(n)]
    cols = []
    for j in range(n):
        v = [ZERO] * n
        for i in range(j, -1, -1):
            acc = ONE if i == j else ZERO
            for l in range(i + 1, j + 1):
                if ent[i][l] and v[l]:
                    acc = acc - ent[i][l] * v[l]
            v[i] = acc * diag_inv[i]
        cols.append(v)
    inv = Matrix([[cols[j][i] for j in range(n)] for i in range(n)], nrows=n, ncols=n,
                 row_labels=a.col_labels, col_labels=a.row_labels)
    if a.mul(inv) != Matrix.identity(n, ONE):
        raise VerificationError("triangular inverse fails a * a^-1 = I")
    return inv


# ---------------------------------------------------------------------------
# field computations (entries: RationalFunction, LaurentPolynomial or int)


def _row_cleared(row):
    """Scale a row of rational functions by a common denominator, returning
    Laurent-polynomial entries (row scaling preserves kernels and ranks)."""
    rfs = [_as_rf(e) for e in row]
    if any(r is None for r in rfs):
        raise TypeError("entry is not coercible to a rational function")
    n = len(rfs)
    pre = [ONE] * (n + 1)
    for i, r in enumerate(rfs):
        pre[i + 1] = pre[i] * r.den
    suf = [ONE] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1] * rfs[i].den
    return [rfs[i].num * (pre[i] * suf[i + 1]) for i in range(n)]


def _div_ring(a, b):
    q = lp_try_div_exact(a, b)
    if q is None:
        raise VerificationError("fraction-free elimination produced a non-exact division")
    return q


def _bareiss_echelon(rows, ncols):
    """Fraction-free row echelon form.

    rows: list of Laurent-polynomial rows, modified copies returned.
    Returns (rows, pivots) where pivots is a list of (row, col) in
    increasing order.
    """
    rows = [list(r) for r in rows]
    nrows = len(rows)
    pivots = []
    prev = ONE
    r = 0
    for c in range(ncols):
        p = None
        for i in range(r, nrows):
            if rows[i][c]:
                p = i
                break
        if p is None:
            continue
        if p != r:
            rows[p], rows[r] = rows[r], rows[p]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            if not any(rows[i][j] for j in range(c, ncols)):
                continue
            fac = rows[i][c]
            for j in range(c, ncols):
                num = piv * rows[i][j] - fac * rows[r][j]
                rows[i][j] = _div_ring(num, prev) if prev != ONE else num
        prev = piv
        pivots.append((r, c))
        r += 1
        if r == nrows:
            break
    return rows, pivots


def field_rank(a):
    """Exact rank over Q(x, y)."""
    rows = [_row_cleared(a.row(i)) for i in range(a.nrows)]
    _, pivots = _bareiss_echelon(rows, a.ncols)
    return len(pivots)


def _back_substitute(rows, pivots, ncols, free_values):
    """Solve the echelon system rows * v = 0 given ring values for the
    non-pivot columns.

    Stays fraction-free: the vector is carried as (numerators, common
    denominator) with the denominator a product of pivots.  Returns
    (num, den) with v[j] = num[j] / den.
    """
    num = [ZERO] * ncols
    pivot_cols = {c for _, c in pivots}
    for c in range(ncols):
        if c not in pivot_cols:
            num[c] = free_values.get(c, ZERO)
    den = ONE
    for r, c in reversed(pivots):
        piv = rows[r][c]
        acc = ZERO
        for j in range(c + 1, ncols):
            if rows[r][j] and num[j]:
                acc = acc + rows[r][j] * num[j]
        for j in range(ncols):
            if num[j]:
                num[j] = num[j] * piv
        num[c] = -acc
        den = den * piv
    return num, den


def _verify_zero_combination(cleared_rows, num):
    # scaling a row or the vector by a nonzero ring element does not move
    # the combination off zero, so this checks the original a*v = 0 exactly
    for row in cleared_rows:
        acc = ZERO
        for j, e in enumerate(row):
            if e and num[j]:
                acc = acc + e * num[j]
        if acc:
            return False
    return True


def field_kernel_raw(a):
    """Right kernel basis in fraction-free form: a list of (numerators, den)
    pairs, each describing the vector numerators/den with ring entries."""
    cleared = [_row_cleared(a.row(i)) for i in range(a.nrows)]
    rows, pivots = _bareiss_echelon(cleared, a.ncols)
    pivot_cols = {c for _, c in pivots}
    basis = []
    for f in range(a.ncols):
        if f in pivot_cols:
            continue
        num, den = _back_substitute(rows, pivots, a.ncols, {f: ONE})
        if not _verify_zero_combination(cleared, num):
            raise VerificationError("kernel vector fails a*v = 0")
        basis.append((num, den))
    return basis


def field_kernel(a):
    """Basis of the right kernel over Q(x, y), one vector per free column,
    each re-verified to satisfy a*v = 0."""
    return [[RationalFunction(nj, den) for nj in num] for num, den in field_kernel_raw(a)]


def field_solve(a, b):
    """Some solution of a*x = b over Q(x, y), or None if inconsistent.
    Free variables are set to zero; the solution is re-verified."""
    if len(b) != a.nrows:
        raise ValueError("dimension mismatch")
    cleared = [_row_cleared(a.row(i) + [b[i]]) for i in range(a.nrows)]
    rows, pivots = _bareiss_echelon(cleared, a.ncols + 1)
    if any(c == a.ncols for _, c in pivots):
        return None
    num, den = _back_substitute(rows, pivots, a.ncols + 1, {a.ncols: -ONE})
    if not _verify_zero_combination(cleared, num):
        raise VerificationError("solve verification failed")
    return [RationalFunction(num[j], den) for j in range(a.ncols)]


def field_inv(a):
    """Inverse over Q(x, y); raises VerificationError if singular."""
    if a.nrows != a.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = a.nrows
    cols = []
    for j in range(n):
        e = [_as_rf(1) if i == j else _as_rf(0) for i in range(n)]
        x = field_solve(a, e)
        if x is None:
            raise VerificationError("matrix is singular over Q(x, y)")
        cols.append(x)
    return Matrix([[cols[j][i] for j in range(n)] for i in range(n)],
                  row_labels=a.col_labels, col_labels=a.row_labels)


# ---------------------------------------------------------------------------
# integer computations (unit pivots, with Smith normal form for the rest)


def _xgcd(a, b):
    """(g, s, c) with s*a + c*b = g = gcd(a, b) >= 0."""
    s0, s1, c0, c1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        c0, c1 = c1, c0 - q * c1
    return (a, s0, c0) if a >= 0 else (-a, -s0, -c0)


def int_smith_transforms(a):
    """Smith normal form with transforms: returns (d, u, v) with
    u*a*v = d, u and v unimodular, d diagonal with d_i | d_{i+1} >= 0.

    An entry of the pivot's row or column that the pivot divides is
    eliminated.  Any other entry takes one extended-gcd step on the two
    rows (or columns), which makes the pivot their gcd and so strictly
    shrinks it.  There are no chains of Euclid remainder steps, whose
    quotients multiply into the rest of the matrix and blow up its
    coefficients."""
    m, n = a.nrows, a.ncols
    d = [list(map(int, a.row(i))) for i in range(m)]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, k, q):  # row_i -= q * row_k
        for j in range(n):
            d[i][j] -= q * d[k][j]
        for j in range(m):
            u[i][j] -= q * u[k][j]

    def col_op(j, k, q):  # col_j -= q * col_k
        for i in range(m):
            d[i][j] -= q * d[i][k]
        for i in range(n):
            v[i][j] -= q * v[i][k]

    def gcd_rows(t, i):  # unimodular on rows t, i: d[t][t] <- gcd, d[i][t] <- 0
        g, s, c = _xgcd(d[t][t], d[i][t])
        p, q = d[t][t] // g, d[i][t] // g
        for mat in (d, u):
            rt, ri = mat[t], mat[i]
            mat[t] = [s * x + c * y for x, y in zip(rt, ri)]
            mat[i] = [p * y - q * x for x, y in zip(rt, ri)]

    def gcd_cols(t, j):  # unimodular on columns t, j: d[t][t] <- gcd, d[t][j] <- 0
        g, s, c = _xgcd(d[t][t], d[t][j])
        p, q = d[t][t] // g, d[t][j] // g
        for mat in (d, v):
            for row in mat:
                x, y = row[t], row[j]
                row[t], row[j] = s * x + c * y, p * y - q * x

    def swap_rows(i, k):
        d[i], d[k] = d[k], d[i]
        u[i], u[k] = u[k], u[i]

    def swap_cols(j, k):
        for row in d:
            row[j], row[k] = row[k], row[j]
        for row in v:
            row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(m, n):
        # deterministic pivot: smallest |entry|, then row, then column; no
        # later row can beat a unit
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] and (best is None or abs(d[i][j]) < best[0]):
                    best = (abs(d[i][j]), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            swap_rows(t, bi)
        if bj != t:
            swap_cols(t, bj)
        while True:
            # clear the pivot column, then the pivot row
            for i in range(t + 1, m):
                if d[i][t]:
                    if d[i][t] % d[t][t]:
                        gcd_rows(t, i)
                    else:
                        row_op(i, t, d[i][t] // d[t][t])
            for j in range(t + 1, n):
                if d[t][j]:
                    if d[t][j] % d[t][t]:
                        gcd_cols(t, j)
                    else:
                        col_op(j, t, d[t][j] // d[t][t])
            if any(d[i][t] for i in range(t + 1, m)):
                continue  # a gcd step on the row refilled the column
            bad = None
            if abs(d[t][t]) != 1:  # a unit pivot divides every entry
                for i in range(t + 1, m):
                    if any(d[i][j] % d[t][t] for j in range(t + 1, n)):
                        bad = i
                        break
            if bad is None:
                break
            row_op(t, bad, -1)  # pull the offending row in and restart
        if d[t][t] < 0:
            row_op(t, t, 2)  # negate row t
        t += 1

    dm = Matrix(d, nrows=m, ncols=n)
    return dm, Matrix(u, nrows=m, ncols=m), Matrix(v, nrows=n, ncols=n)


def int_unit_pivot_factors(columns):
    """Invariant factors d_1 | d_2 | ... of an integer matrix given as
    sparse columns, each a dict {row: entry} over sortable row keys.

    Only +-1 entries are pivots.  The shortest column is popped from a heap
    and pivots on its unit entry with the shortest row (ties to the smaller
    column, then row).  Subtracting multiples of the pivot column clears
    the pivot row from every other column; these column operations are
    unimodular, so dropping the pivot row and column leaves the Schur
    complement, updated in place, and each pivot is an invariant factor 1.
    Only what has no unit entry once the heap runs dry goes to
    int_smith_transforms."""
    cols = [{r: e for r, e in col.items() if e} for col in columns]
    rows = {}
    for j, col in enumerate(cols):
        for r in col:
            rows.setdefault(r, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, j = heapq.heappop(heap)
        col = cols[j]
        if size != len(col):
            continue  # a stale entry: the column changed or was eliminated
        units = [r for r, e in col.items() if e in (1, -1)]
        if not units:
            continue  # back on the heap if a later pivot changes it
        r = min(units, key=lambda r: (len(rows[r]), r))
        p = col[r]
        for k in [k for k in rows[r] if k != j]:
            other = cols[k]
            f = other[r] * p  # p = +-1, so this is other[r] / p
            for i, e in col.items():
                v = other.get(i, 0) - f * e
                if v:
                    if i not in other:
                        rows[i].add(k)
                    other[i] = v
                else:
                    del other[i]
                    rows[i].discard(k)
            heapq.heappush(heap, (len(other), k))
        for i in col:
            rows[i].discard(j)
        cols[j] = {}
        pivots += 1
    rest = [col for col in cols if col]
    factors = [1] * pivots
    if rest:
        keys = sorted(set().union(*rest))
        d, _, _ = int_smith_transforms(Matrix([[col.get(r, 0) for col in rest] for r in keys]))
        factors += [f for f in (d.entries[i][i] for i in range(min(len(keys), len(rest)))) if f]
    return factors
