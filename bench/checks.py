"""Output checks that do not use the code under test.

Arrangement checks recount the facets of a line arrangement from its lines
with plain Fraction geometry.  The braid check evaluates matrices at one
fixed rational point with integer arithmetic and compares them with a
product computed here from the evaluated generators.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# line arrangements


def normalise_line(a, b, c):
    """The line a*x + b*y = c with coprime integers and (a, b)
    lexicographically positive, so equal lines compare equal."""
    if a == 0 and b == 0:
        raise ValueError("degenerate line")
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    a, b, c = a // g, b // g, c // g
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    return a, b, c


def arrangement_counts(lines):
    """Expected counts for an arrangement of distinct lines (a, b, c).

    Chambers follow Zaslavsky: 1 + m + sum over vertices of (mult - 1).
    The Salvetti complex has one vertex per chamber, two directed edges per
    edge facet (a line with k vertices carries k + 1 of them) and one 2-cell
    per (vertex, chamber around it) pair, 2 * mult of them per vertex.
    """
    through = {}
    for i, (a1, b1, c1) in enumerate(lines):
        for j in range(i + 1, len(lines)):
            a2, b2, c2 = lines[j]
            det = a1 * b2 - a2 * b1
            if det:
                pt = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
                through.setdefault(pt, set()).update((i, j))
    mults = [len(s) for s in through.values()]
    per_line = [sum(1 for s in through.values() if i in s) for i in range(len(lines))]
    chambers = 1 + len(lines) + sum(k - 1 for k in mults)
    return {
        "chambers": chambers,
        "sal_vertices": chambers,
        "sal_edges": 2 * sum(k + 1 for k in per_line),
        "sal_two_cells": sum(2 * k for k in mults),
    }


def check_arrangement(lines, got, h1=False):
    """Failure messages comparing reported counts (and H1 when asked) with
    the expected ones; empty when the output is right."""
    want = arrangement_counts(lines)
    bad = [f"{key} {got[key]} != {want[key]}" for key in want if got[key] != want[key]]
    if h1:
        if got["h1_rank"] != len(lines):
            bad.append(f"h1_rank {got['h1_rank']} != {len(lines)}")
        if got["h1_torsion"]:
            bad.append(f"h1_torsion {got['h1_torsion']} != []")
    return bad


# ---------------------------------------------------------------------------
# braid matrices at a rational point

POINT = (Fraction(-3, 2), Fraction(5, 7))


class PointEvaluator:
    """Evaluates Laurent polynomials, given as {(ex, ey): int} maps, at
    POINT.  Every value is returned as an integer over the common
    denominator scale(bound), where bound caps |ex| and |ey|."""

    def __init__(self):
        self._tables = {}

    def tables(self, bound):
        if bound not in self._tables:
            (p, q), (r, s) = ((v.numerator, v.denominator) for v in POINT)
            # x^e = p^(e+B) q^(B-e) / (p q)^B, likewise for y
            xs = {e: p ** (e + bound) * q ** (bound - e) for e in range(-bound, bound + 1)}
            ys = {e: r ** (e + bound) * s ** (bound - e) for e in range(-bound, bound + 1)}
            self._tables[bound] = (xs, ys, (p * q * r * s) ** bound)
        return self._tables[bound]

    def matrix(self, rows):
        """(numerators, denominator) of a matrix of term maps at POINT."""
        bound = max((max(abs(ex), abs(ey)) for row in rows for terms in row for ex, ey in terms),
                    default=0)
        xs, ys, den = self.tables(bound)
        nums = [[sum(c * xs[ex] * ys[ey] for (ex, ey), c in terms.items()) for terms in row]
                for row in rows]
        return nums, den


def fraction_inverse(m):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [v - f * w for v, w in zip(a[r], a[c])]
    return [row[n:] for row in a]


def as_scaled_ints(m):
    """(integer matrix, denominator) with the same value as a Fraction matrix."""
    den = 1
    for row in m:
        for v in row:
            den = den * v.denominator // gcd(den, v.denominator)
    return [[int(v * den) for v in row] for row in m], den


def int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


class WordProduct:
    """Independent product of generator matrices at POINT.

    generators maps k to the Fraction matrix of generator k at POINT; the
    inverse generators are found here by Gauss-Jordan elimination."""

    def __init__(self, generators):
        self.factors = {}
        for k, g in generators.items():
            inv = fraction_inverse(g)
            self.factors[k] = as_scaled_ints(g)
            self.factors[-k] = as_scaled_ints(inv)

    def check(self, letters, nums, den):
        """Failure messages comparing nums/den with the product along the
        word; empty when every entry agrees."""
        size = len(nums)
        prod = [[int(i == j) for j in range(size)] for i in range(size)]
        pden = 1
        for k in letters:
            f, fden = self.factors[k]
            prod = int_matmul(prod, f)
            pden *= fden
        bad = [(i, j) for i in range(size) for j in range(size)
               if nums[i][j] * pden != prod[i][j] * den]
        return [f"entry {bad[0]} differs at {POINT} ({len(bad)} entries)"] if bad else []
