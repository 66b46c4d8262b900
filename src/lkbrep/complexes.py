"""The two explicit CW complexes for the doubly-punctured configuration
fibre, and the twisted chain complex carrying its local-coefficient homology.

Cell labels are plain tuples so they stay hashable, comparable and easy to
serialize:

    ("*",)             the unique vertex of the one-vertex complex
    ("a", i), ("b", i) loop edges, 1 <= i <= n, both weighted x
    ("c", i)           loop edges, 1 <= i <= n+1, weighted y
    ("A", i, j)        square 2-cells, 1 <= i < j <= n
    ("B", i, r)        square 2-cells, 1 <= i <= n, r in {1, 2, 3}

The symmetric-quotient complex (before the collapses that produce the
one-vertex complex) uses its own alphabet:

    ("P", i, j)                         vertices, 1 <= i <= j <= n+1
    ("c", i)                            loop edges at P(i, i)
    ("a", i, j), ("abar", i, j)         opposite edge pairs, 1 <= i <= j <= n
    ("b", i, j), ("bbar", i, j)         opposite edge pairs
    ("A", i, j, r)                      2-cells, i < j, 1 <= r <= 4
    ("B", i, r)                         2-cells, 1 <= r <= 3

Boundary words are sequences of (edge label, +-1).  The twisted boundary of
a 2-cell with boundary word w multiplies each letter by the weight of the
prefix walked so far (for an inverse letter the prefix includes that letter),
so loops of weight 1 contribute nothing.

The fixed basis orders are c_1..c_{n+1}, a_1..a_n, b_1..b_n for edges and
A-cells lexicographic in (i, j) followed by B-cells lexicographic in (i, r)
for 2-cells; every matrix in the package uses these orders.
"""

from __future__ import annotations

from functools import lru_cache

from .linalg import Matrix
from .ring import ONE, X, Y, ZERO, _as_lp

VERTEX = ("*",)


def edge_a(i):
    return ("a", i)


def edge_b(i):
    return ("b", i)


def edge_c(i):
    return ("c", i)


def cell_A(i, j):
    return ("A", i, j)


def cell_B(i, r):
    return ("B", i, r)


def edge_basis(n):
    return [edge_c(i) for i in range(1, n + 2)] + \
           [edge_a(i) for i in range(1, n + 1)] + \
           [edge_b(i) for i in range(1, n + 1)]


def pair_list(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def cell_basis(n):
    return [cell_A(i, j) for i, j in pair_list(n)] + \
           [cell_B(i, r) for i in range(1, n + 1) for r in (1, 2, 3)]


def label_str(label):
    kind = label[0]
    if kind == "*":
        return "*"
    if len(label) == 2 and kind in ("a", "b", "c"):
        return f"{kind}{label[1]}"
    return kind + "(" + ",".join(str(v) for v in label[1:]) + ")"


class Chain:
    """Finitely supported map from cell labels to ring (or field)
    coefficients; zero coefficients are never stored."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        self.degree = degree
        c = {}
        if coeffs:
            for label, v in coeffs.items():
                lp = _as_lp(v) if isinstance(v, int) else v
                if lp:
                    c[label] = lp
        self.coeffs = c

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Chain):
            return NotImplemented
        if self.degree != other.degree:
            return False
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[l] == other.coeffs[l] for l in self.coeffs)

    __hash__ = None

    def __getitem__(self, label):
        return self.coeffs.get(label, ZERO)

    def __neg__(self):
        return Chain(self.degree, {l: -c for l, c in self.coeffs.items()})

    def __add__(self, other):
        return Chain.combination(self.degree, ((ONE, self), (ONE, other)))

    def __sub__(self, other):
        return Chain.combination(self.degree, ((ONE, self), (-ONE, other)))

    def scaled(self, factor):
        return Chain.combination(self.degree, ((factor, self),))

    @staticmethod
    def combination(degree, terms):
        """The chain sum of factor * chain over the (factor, chain) pairs in
        terms, every chain of the given degree (ValueError otherwise).

        The sum accumulates into one dict, so it costs one pass over the
        terms' supports; zero factors are skipped, and coefficients that
        cancel are dropped once, at the end."""
        acc = {}
        for factor, chain in terms:
            if chain.degree != degree:
                raise ValueError("degree mismatch")
            if isinstance(factor, int):
                factor = _as_lp(factor)
            if not factor:
                continue
            for label, c in chain.coeffs.items():
                v = factor * c
                prev = acc.get(label)
                acc[label] = v if prev is None else prev + v
        out = Chain.__new__(Chain)
        out.degree = degree
        out.coeffs = {label: c for label, c in acc.items() if c}
        return out

    def support(self):
        return sorted(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({self.coeffs[l]})*{label_str(l)}" for l in self.support())

    def __repr__(self):
        return f"Chain({self.degree}, {self})"


def word_to_chain(word, weights):
    """Twisted 1-chain of an edge word under the given weight map.

    Walks the word keeping the weight of the prefix read so far; a letter
    traversed positively contributes +prefix, and an inverse letter first
    divides the prefix by its own weight and then contributes -prefix.
    """
    prefix = ONE
    coeffs = {}
    for edge, sign in word:
        w = weights[edge]
        if sign == 1:
            c = coeffs.get(edge, ZERO) + prefix
            prefix = prefix * w
        else:
            prefix = prefix * w ** -1
            c = coeffs.get(edge, ZERO) - prefix
        if c:
            coeffs[edge] = c
        elif edge in coeffs:
            del coeffs[edge]
    return Chain(1, coeffs)


def word_weight(word, weights):
    """Total weight of an edge word (the loop's image in the deck group)."""
    w = ONE
    for edge, sign in word:
        w = w * weights[edge] ** sign
    return w


class TwistedComplex:
    """Chain complex of free modules over the Laurent ring with a
    distinguished cell basis in each degree and the twisted differential
    C_2 -> C_1 stored column by column (the degree-1 differential is never
    needed here)."""

    __slots__ = ("n", "basis0", "basis1", "basis2", "d_cols", "weights")

    def __init__(self, basis0, basis1, basis2, d_cols, weights, n=None):
        self.n = n
        self.basis0 = list(basis0)
        self.basis1 = list(basis1)
        self.basis2 = list(basis2)
        self.d_cols = d_cols
        self.weights = weights

    def differential(self, u):
        """Extend d linearly from basis 2-cells to any degree-2 chain."""
        if u.degree != 2:
            raise ValueError("differential is defined on degree-2 chains")
        return Chain.combination(1, [(coeff, self.d_cols[label])
                                     for label, coeff in u.coeffs.items()])

    def differential_matrix(self):
        rows = []
        for e in self.basis1:
            rows.append([self.d_cols[c][e] for c in self.basis2])
        return Matrix(rows, nrows=len(self.basis1), ncols=len(self.basis2),
                      row_labels=self.basis1, col_labels=self.basis2)

    def untwist(self):
        """Ordinary cellular boundary matrix: every weight specialized to 1."""
        rows = []
        for e in self.basis1:
            row = []
            for c in self.basis2:
                v = self.d_cols[c][e]
                row.append(sum(v.terms.values()) if v else 0)
            rows.append(row)
        return Matrix(rows, nrows=len(self.basis1), ncols=len(self.basis2),
                      row_labels=self.basis1, col_labels=self.basis2)

    def to_json_obj(self):
        obj = {
            "basis": {
                "0": [label_str(l) for l in self.basis0],
                "1": [label_str(l) for l in self.basis1],
                "2": [label_str(l) for l in self.basis2],
            },
            "differential": self.differential_matrix().to_json_obj(label_to_str=label_str),
        }
        if self.n is not None:
            obj["n"] = self.n
            obj["weights"] = {"a": "x", "b": "x", "c": "y"}
        else:
            obj["weights"] = {label_str(e): str(w) for e, w in self.weights.items()}
        return obj


def sal_boundary_word(cell):
    """Boundary word of a 2-cell of the one-vertex complex."""
    kind = cell[0]
    if kind == "A":
        _, i, j = cell
        return [(edge_b(i), 1), (edge_a(j), 1), (edge_b(i), -1), (edge_a(j), -1)]
    _, i, r = cell
    if r == 1:
        return [(edge_a(i), 1), (edge_c(i + 1), 1), (edge_a(i), -1), (edge_c(i), -1)]
    if r == 2:
        return [(edge_c(i + 1), 1), (edge_b(i), 1), (edge_a(i), -1), (edge_c(i), -1)]
    if r == 3:
        return [(edge_c(i + 1), 1), (edge_b(i), 1), (edge_c(i), -1), (edge_b(i), -1)]
    raise ValueError(f"bad cell {cell}")


def sal_weights(n):
    w = {edge_c(i): Y for i in range(1, n + 2)}
    for i in range(1, n + 1):
        w[edge_a(i)] = X
        w[edge_b(i)] = X
    return w


@lru_cache(maxsize=None)
def sal_fn(n):
    """The one-vertex twisted complex on n punctures: 1 vertex, 3n+1 edges,
    n(n-1)/2 + 3n square 2-cells, with edge weights a, b -> x and c -> y."""
    if n < 2:
        raise ValueError("need n >= 2")
    weights = sal_weights(n)
    d_cols = {}
    for cell in cell_basis(n):
        d_cols[cell] = word_to_chain(sal_boundary_word(cell), weights)
    return TwistedComplex([VERTEX], edge_basis(n), cell_basis(n), d_cols, weights, n=n)


class CellComplex:
    """A 2-complex given combinatorially: vertices, directed edges with
    endpoints, and 2-cells with boundary words over the directed edges."""

    __slots__ = ("vertices", "edges", "cells")

    def __init__(self, vertices, edges, cells):
        self.vertices = list(vertices)
        self.edges = dict(edges)    # label -> (source, target)
        self.cells = dict(cells)    # label -> boundary word

    def counts(self):
        return len(self.vertices), len(self.edges), len(self.cells)

    def validate(self):
        """Check that every boundary word chains source-to-target and closes
        up at its basepoint; raises ValueError otherwise."""
        vset = set(self.vertices)
        for label, (src, tgt) in self.edges.items():
            if src not in vset or tgt not in vset:
                raise ValueError(f"edge {label} has endpoints outside the vertex set")
        for cell, word in self.cells.items():
            if not word:
                raise ValueError(f"2-cell {cell} has an empty boundary word")
            first, sign = word[0]
            pos = self.edges[first][0] if sign == 1 else self.edges[first][1]
            start = pos
            for edge, sign in word:
                src, tgt = self.edges[edge]
                if sign == 1:
                    if pos != src:
                        raise ValueError(f"boundary of {cell} breaks at {edge}")
                    pos = tgt
                else:
                    if pos != tgt:
                        raise ValueError(f"boundary of {cell} breaks at {edge}^-1")
                    pos = src
            if pos != start:
                raise ValueError(f"boundary of {cell} does not close up")

    def to_json_obj(self):
        return {
            "vertices": [label_str(v) for v in sorted(self.vertices)],
            "edges": {label_str(e): [label_str(s), label_str(t)]
                      for e, (s, t) in sorted(self.edges.items())},
            "cells": {label_str(c): [[label_str(e), sign] for e, sign in w]
                      for c, w in sorted(self.cells.items())},
        }


def _qa(i, j):
    return ("a", i, j)


def _qabar(i, j):
    return ("abar", i, j)


def _qb(i, j):
    return ("b", i, j)


def _qbbar(i, j):
    return ("bbar", i, j)


@lru_cache(maxsize=None)
def sal_an_mod_sigma2(n):
    """The symmetric-quotient complex before any collapse: (n+1)(n+2)/2
    vertices P(i, j), edge quadruples a/abar/b/bbar plus the c loops, and
    4 * C(n, 2) + 3n square 2-cells.  Validated on construction."""
    if n < 2:
        raise ValueError("need n >= 2")
    vertices = [("P", i, j) for i in range(1, n + 2) for j in range(i, n + 2)]
    edges = {}
    for i in range(1, n + 2):
        edges[edge_c(i)] = (("P", i, i), ("P", i, i))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            edges[_qa(i, j)] = (("P", i, j), ("P", i, j + 1))
            edges[_qabar(i, j)] = (("P", i, j + 1), ("P", i, j))
            edges[_qb(i, j)] = (("P", i + 1, j + 1), ("P", i, j + 1))
            edges[_qbbar(i, j)] = (("P", i, j + 1), ("P", i + 1, j + 1))
    cells = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            cells[("A", i, j, 1)] = [(_qb(i, j - 1), 1), (_qa(i, j), 1),
                                     (_qb(i, j), -1), (_qa(i + 1, j), -1)]
            cells[("A", i, j, 2)] = [(_qabar(i + 1, j), 1), (_qb(i, j - 1), 1),
                                     (_qabar(i, j), -1), (_qb(i, j), -1)]
            cells[("A", i, j, 3)] = [(_qa(i, j), 1), (_qbbar(i, j), 1),
                                     (_qa(i + 1, j), -1), (_qbbar(i, j - 1), -1)]
            cells[("A", i, j, 4)] = [(_qbbar(i, j), 1), (_qabar(i + 1, j), 1),
                                     (_qbbar(i, j - 1), -1), (_qabar(i, j), -1)]
    for i in range(1, n + 1):
        cells[("B", i, 1)] = [(_qa(i, i), 1), (_qbbar(i, i), 1), (edge_c(i + 1), 1),
                              (_qbbar(i, i), -1), (_qa(i, i), -1), (edge_c(i), -1)]
        cells[("B", i, 2)] = [(_qbbar(i, i), 1), (edge_c(i + 1), 1), (_qb(i, i), 1),
                              (_qa(i, i), -1), (edge_c(i), -1), (_qabar(i, i), -1)]
        cells[("B", i, 3)] = [(edge_c(i + 1), 1), (_qb(i, i), 1), (_qabar(i, i), 1),
                              (edge_c(i), -1), (_qabar(i, i), -1), (_qb(i, i), -1)]
    cx = CellComplex(vertices, edges, cells)
    cx.validate()
    return cx
