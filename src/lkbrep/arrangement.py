"""Exact facet combinatorics of real line arrangements and their Salvetti
complexes.

All geometry is done with rational arithmetic: every facet (vertex, open
edge, open chamber) stores an exact representative point and its sign
vector, one entry per line in {-1, 0, +1}.  Sign vectors name facets
uniquely, and three rules on them give every incidence the Salvetti complex
needs, so facets are found by lookup, never by search:

- the chamber on either side of an edge-facet differs from the edge only
  at the carrier line, where it has the side's sign;
- the wall between two adjacent chambers keeps their common signs and has
  0 where they differ;
- around a vertex the edge-facets lie on rays out of it, and the chamber
  between two consecutive rays carries the nonzero signs of both.

Geometry enters only to place representatives and to sort the rays around
a vertex counterclockwise.  Each chamber representative is checked against
its derived sign vector, and the chamber count against Zaslavsky's formula.

The Salvetti complex has one vertex per chamber, two opposite directed
edges per edge-facet, and one 2-cell per (vertex-facet, incident chamber)
pair whose boundary word walks once around the vertex each way.  Of the
two chambers over an edge-facet, the one with the lexicographically
smaller sign vector is taken as the edge's base chamber; counterclockwise
is the positive rotation sense.  These conventions only affect labels,
not any homology computed from the complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .complexes import CellComplex, TwistedComplex, word_to_chain
from .linalg import int_unit_pivot_factors
from .ring import LaurentPolynomial, VerificationError


@dataclass(frozen=True, order=True)
class Line:
    """The line a*x1 + b*x2 = c with coprime integer coefficients and
    lexicographically positive (a, b)."""

    a: int
    b: int
    c: int

    @classmethod
    def from_rationals(cls, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate line: a = b = 0")
        mult = 1
        for v in (a, b, c):
            mult = mult * v.denominator // gcd(mult, v.denominator)
        ai, bi, ci = int(a * mult), int(b * mult), int(c * mult)
        g = gcd(gcd(abs(ai), abs(bi)), abs(ci))
        ai, bi, ci = ai // g, bi // g, ci // g
        if ai < 0 or (ai == 0 and bi < 0):
            ai, bi, ci = -ai, -bi, -ci
        return cls(ai, bi, ci)

    def side(self, pt):
        v = self.a * pt[0] + self.b * pt[1] - self.c
        return 0 if v == 0 else (1 if v > 0 else -1)

    def direction(self):
        return (Fraction(-self.b), Fraction(self.a))

    def base_point(self):
        if self.a:
            return (Fraction(self.c, self.a), Fraction(0))
        return (Fraction(0), Fraction(self.c, self.b))


def intersect(l1, l2):
    """Intersection point of two lines, or None when parallel."""
    det = l1.a * l2.b - l2.a * l1.b
    if det == 0:
        return None
    x = Fraction(l1.c * l2.b - l2.c * l1.b, det)
    y = Fraction(l1.a * l2.c - l2.a * l1.c, det)
    return (x, y)


@dataclass(frozen=True)
class Vertex:
    point: tuple
    sign: tuple


@dataclass(frozen=True)
class EdgeFacet:
    line: int
    point: tuple
    sign: tuple
    vertices: tuple  # indices of incident vertices, 0 to 2 of them


@dataclass(frozen=True)
class Chamber:
    point: tuple
    sign: tuple


@dataclass(frozen=True)
class FacetComplex:
    lines: tuple
    vertices: tuple
    edges: tuple
    chambers: tuple


def _cleared(pt):
    """(p, q, r) with pt = (p/r, q/r) and r > 0 the least common denominator."""
    x, y = pt
    r = lcm(x.denominator, y.denominator)
    return x.numerator * (r // x.denominator), y.numerator * (r // y.denominator), r


def _sign_vector(lines, pt):
    """Line.side of every line at pt = (p/r, q/r): with r > 0, a*x + b*y - c
    has the sign of the integer a*p + b*q - c*r."""
    p, q, r = _cleared(pt)
    return tuple((v > 0) - (v < 0) for v in (l.a * p + l.b * q - l.c * r for l in lines))


def _with_sign(sign, k, s):
    return sign[:k] + (s,) + sign[k + 1:]


def _lookup(index, sign, message):
    if sign not in index:
        raise VerificationError(message)
    return index[sign]


def build_facets(lines):
    """Full facet enumeration of an arrangement of pairwise distinct lines,
    canonically sorted by sign vector."""
    lines = tuple(lines)
    if len(set(lines)) != len(lines):
        raise ValueError("duplicate lines in arrangement")

    points = {intersect(l1, l2) for l1, l2 in combinations(lines, 2)} - {None}
    vertices = sorted((Vertex(pt, _sign_vector(lines, pt)) for pt in points),
                      key=lambda v: v.sign)

    edges = []
    for li, line in enumerate(lines):
        d = line.direction()
        on_line = [vi for vi, v in enumerate(vertices) if v.sign[li] == 0]
        on_line.sort(key=lambda vi: vertices[vi].point[0] * d[0] + vertices[vi].point[1] * d[1])
        pts = [vertices[vi].point for vi in on_line]
        if not on_line:
            reps = [(line.base_point(), ())]
        else:
            reps = [((pts[0][0] - d[0], pts[0][1] - d[1]), (on_line[0],))]
            for k in range(len(on_line) - 1):
                reps.append((((pts[k][0] + pts[k + 1][0]) / 2, (pts[k][1] + pts[k + 1][1]) / 2),
                             tuple(sorted(on_line[k:k + 2]))))
            reps.append(((pts[-1][0] + d[0], pts[-1][1] + d[1]), (on_line[-1],)))
        for rep, incident in reps:
            sv = _sign_vector(lines, rep)
            if [k for k, s in enumerate(sv) if s == 0] != [li]:
                raise VerificationError("edge representative does not lie on its carrier only")
            edges.append(EdgeFacet(li, rep, sv, incident))
        if len(reps) != len(on_line) + 1:
            raise VerificationError("a line does not carry one more edge than it has vertices")

    chambers = {}
    for e in edges:
        for side in (-1, 1):
            sv = _with_sign(e.sign, e.line, side)
            if sv in chambers:
                continue
            # represent it halfway from the edge to the first other line met
            # along side * normal, or one normal length on when none is met
            na, nb = side * lines[e.line].a, side * lines[e.line].b
            p, q, r = _cleared(e.point)
            hits = [Fraction(l.c * r - l.a * p - l.b * q, (l.a * na + l.b * nb) * r)
                    for l in lines if l.a * na + l.b * nb != 0]
            t = min((h for h in hits if h > 0), default=Fraction(2)) / 2
            pt = (e.point[0] + t * na, e.point[1] + t * nb)
            if _sign_vector(lines, pt) != sv:
                raise VerificationError("chamber representative off its derived sign vector")
            chambers[sv] = Chamber(pt, sv)
    if not lines:
        chambers[()] = Chamber((Fraction(0), Fraction(0)), ())
    if len(chambers) != 1 + len(lines) + sum(v.sign.count(0) - 1 for v in vertices):
        raise VerificationError("chamber count differs from Zaslavsky's formula")

    edges.sort(key=lambda e: e.sign)
    chamber_list = sorted(chambers.values(), key=lambda c: c.sign)
    return FacetComplex(lines, tuple(vertices), tuple(edges), tuple(chamber_list))


def _ccw_key(center, p):
    """Exact sort key for the counterclockwise angle of p - center from the
    positive x-axis: the half-plane, then minus the cotangent."""
    dx, dy = p[0] - center[0], p[1] - center[1]
    return (dy < 0 or (dy == 0 and dx < 0), dy != 0, -dx / dy if dy else 0)


def cyclic_order_at_vertex(fc, vidx):
    """Chamber indices around a vertex, counterclockwise, starting at the
    chamber with the lexicographically smallest sign vector.  The edge-facets
    at the vertex lie on rays out of it; sorted counterclockwise, each
    consecutive pair bounds the chamber that carries the nonzero signs of
    both."""
    v = fc.vertices[vidx]
    rays = [e for e in fc.edges if vidx in e.vertices]
    rays.sort(key=lambda e: _ccw_key(v.point, e.point))
    if len(rays) != 2 * v.sign.count(0):
        raise VerificationError("wrong number of chambers around a vertex")
    chamber_at = {c.sign: ci for ci, c in enumerate(fc.chambers)}
    around = []
    for e1, e2 in zip(rays, rays[1:] + rays[:1]):
        if any(s1 and s2 and s1 != s2 for s1, s2 in zip(e1.sign, e2.sign)):
            raise VerificationError("consecutive rays around a vertex disagree in sign")
        sign = tuple(s1 or s2 for s1, s2 in zip(e1.sign, e2.sign))
        around.append(_lookup(chamber_at, sign, "no chamber between consecutive rays at a vertex"))
    start = min(range(len(around)), key=lambda i: fc.chambers[around[i]].sign)
    return around[start:] + around[:start]


def _edge_label(fidx, cidx):
    return ("s", fidx, cidx)


@dataclass(frozen=True)
class SalvettiComplex:
    """Combinatorial Salvetti complex: the underlying word complex plus,
    per directed edge, the carrier line of its edge-facet."""

    fc: FacetComplex
    complex: CellComplex
    edge_facet: dict   # directed edge label -> edge-facet index
    edge_line: dict    # directed edge label -> carrier line index

    def counts(self):
        return self.complex.counts()

    def to_json_obj(self):
        return self.complex.to_json_obj()


def build_salvetti(fc):
    """Salvetti complex of a facet complex: vertices from chambers, edge
    pairs from edge-facets, and one polygonal 2-cell per (vertex, chamber
    above it), with boundary words validated to close up."""
    vertices = [("w", ci) for ci in range(len(fc.chambers))]
    chamber_at = {c.sign: ci for ci, c in enumerate(fc.chambers)}
    edge_at = {e.sign: fi for fi, e in enumerate(fc.edges)}
    edges = {}
    edge_facet = {}
    edge_line = {}
    for fi, e in enumerate(fc.edges):
        lo, hi = (_lookup(chamber_at, _with_sign(e.sign, e.line, side),
                          "edge-facet without exactly two chambers") for side in (-1, 1))
        edges[_edge_label(fi, lo)] = (("w", lo), ("w", hi))
        edges[_edge_label(fi, hi)] = (("w", hi), ("w", lo))
        for ci in (lo, hi):
            edge_facet[_edge_label(fi, ci)] = fi
            edge_line[_edge_label(fi, ci)] = e.line

    def wall(c1, c2):
        sign = tuple(s1 if s1 == s2 else 0
                     for s1, s2 in zip(fc.chambers[c1].sign, fc.chambers[c2].sign))
        return _lookup(edge_at, sign, "consecutive chambers do not share a unique wall")

    cells = {}
    for vidx in range(len(fc.vertices)):
        cyc = cyclic_order_at_vertex(fc, vidx)
        m = len(cyc)
        s = m // 2
        for start_pos in range(m):
            rot = cyc[start_pos:] + cyc[:start_pos]
            word = [(_edge_label(wall(rot[i - 1], rot[i]), rot[i - 1]), 1)
                    for i in range(1, s + 1)]
            word += [(_edge_label(wall(rot[1 - i], rot[-i]), rot[1 - i]), -1)
                     for i in range(s, 0, -1)]
            cells[("A", vidx, rot[0])] = word
    cx = CellComplex(vertices, edges, cells)
    cx.validate()
    nv, ne, nc = cx.counts()
    if nv != len(fc.chambers):
        raise VerificationError("Salvetti vertex count differs from the chamber count")
    if ne != 2 * len(fc.edges):
        raise VerificationError("Salvetti edge count differs from twice the edge-facet count")
    if nc != sum(2 * v.sign.count(0) for v in fc.vertices):
        raise VerificationError("Salvetti 2-cell count differs from the vertex-chamber incidences")
    return SalvettiComplex(fc, cx, edge_facet, edge_line)


def _tree_phi(cx, edge_line, nlines):
    """phi(P(w)) for every vertex w, where P(w) is the 1-chain of the path
    from w to the root (the smallest vertex) in a BFS spanning tree and phi
    sends each directed edge to e_l of its carrier line l.  The tree proves
    that d1 has rank #vertices - 1; without one the complex is not
    connected."""
    adjacent = {v: [] for v in cx.vertices}
    for e, (src, tgt) in cx.edges.items():
        # P(w) is the step from w to its tree parent v, then P(v): the step
        # is -e when e runs v -> w and +e when e runs w -> v
        adjacent[src].append((tgt, edge_line[e], -1))
        adjacent[tgt].append((src, edge_line[e], 1))
    root = min(cx.vertices)
    phi = {root: [0] * nlines}
    order = [root]
    for v in order:
        for w, line, sign in adjacent[v]:
            if w not in phi:
                vec = list(phi[v])
                vec[line] += sign
                phi[w] = vec
                order.append(w)
    if len(phi) != len(cx.vertices):
        raise VerificationError("Salvetti complex is not connected")
    return phi


def salvetti_h1(sc):
    """First homology of the Salvetti complex, with a per-edge-facet report
    of whether the two opposite directed edges give the same homology
    class.

    Rank and torsion: d2's columns are the 2-cell words, reduced on unit
    pivots by int_unit_pivot_factors, and d1 has rank #vertices - 1 by a
    spanning tree.  The rank must equal the line count: H1 of the
    complement of m lines is Z^m (Orlik-Terao, ch. 5), and phi below maps
    each line's meridian e1 + e2 to 2 e_l, so the rank is at least m.

    Relations, by a witness: phi sends each directed edge to e_l of its
    carrier line l, in both directions.  Every 2-cell word crosses each
    line through its vertex once each way, so phi kills d2 (checked on
    every cell).  For opposite edges e1: u -> v and e2: v -> u the loop
    difference is e1 - e2 + 2 (P(v) - P(u)), P the tree paths to the root;
    a path from v to u crosses l an odd number of times, so phi of it has a
    nonzero l entry (checked), and the two classes differ."""
    cx = sc.complex
    nlines = len(sc.fc.lines)
    edge_line = sc.edge_line
    columns = []
    for cell, word in cx.cells.items():
        column = {}
        crossings = [0] * nlines
        for e, sign in word:
            column[e] = column.get(e, 0) + sign
            crossings[edge_line[e]] += sign
        if any(crossings):
            raise VerificationError(f"phi does not vanish on the boundary of 2-cell {cell}")
        columns.append(column)
    phi = _tree_phi(cx, edge_line, nlines)
    factors = int_unit_pivot_factors(columns)
    rank = len(cx.edges) - (len(cx.vertices) - 1) - len(factors)
    if rank != nlines:
        raise VerificationError(f"H1 rank {rank} differs from the line count {nlines}")
    torsion = [f for f in factors if f != 1]

    def loop_phi(e, line):  # entry `line` of phi(e + P(target) - P(source))
        src, tgt = cx.edges[e]
        return (edge_line[e] == line) + phi[tgt][line] - phi[src][line]

    by_facet = {}
    for e, fi in sc.edge_facet.items():
        by_facet.setdefault(fi, []).append(e)
    relations = {}
    for fi, (e1, e2) in sorted(by_facet.items()):
        line = sc.fc.edges[fi].line
        if loop_phi(e1, line) == loop_phi(e2, line):
            raise VerificationError(f"phi does not separate the opposite edges over edge-facet {fi}")
        relations[fi] = False
    return rank, torsion, relations


def salvetti_twisted_complex(sc, weights):
    """Twisted chain complex of a Salvetti complex: every directed edge is
    weighted by the unit attached to its carrier line; specializing all
    weights to 1 recovers the ordinary cellular boundary."""
    for li in range(len(sc.fc.lines)):
        if li not in weights:
            raise ValueError(f"missing weight for line {li}")
        w = weights[li]
        if not isinstance(w, LaurentPolynomial) or not w.is_unit_monomial():
            raise ValueError(f"weight of line {li} must be a unit monomial")
    cx = sc.complex
    basis1 = sorted(cx.edges)
    basis2 = sorted(cx.cells)
    wmap = {e: weights[sc.edge_line[e]] for e in basis1}
    d_cols = {cell: word_to_chain(cx.cells[cell], wmap) for cell in basis2}
    return TwistedComplex(sorted(cx.vertices), basis1, basis2, d_cols, wmap)


# An entry is refused before Fraction reads it when it has more digits, or a
# larger decimal exponent in magnitude, than this: "1e200000" alone builds a
# 664,000-bit integer that every later intersection multiplies.  JSON floats
# (at most 17 digits, exponents -324..308) pass.
MAX_DECIMAL_DIGITS = 400


def _check_decimal_size(text):
    """Raise ValueError when the decimal string text is too long to read
    (MAX_DECIMAL_DIGITS); malformed text is left for Fraction to reject."""
    if len(text) <= MAX_DECIMAL_DIGITS and "e" not in text and "E" not in text:
        return  # too short for too many digits, and no exponent
    mantissa, _, exponent = text.upper().partition("E")
    if sum(map(str.isdecimal, mantissa)) > MAX_DECIMAL_DIGITS:
        raise ValueError(f"more than {MAX_DECIMAL_DIGITS} digits")
    magnitude = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if magnitude.isdecimal() and (len(magnitude) > len(str(MAX_DECIMAL_DIGITS))
                                  or int(magnitude) > MAX_DECIMAL_DIGITS):
        raise ValueError(f"decimal exponent beyond {MAX_DECIMAL_DIGITS} in magnitude")


def load_arrangement(obj):
    """Arrangement from its JSON form {"lines": [{"a": .., "b": .., "c": ..}]}
    with rational entries given as "p/q" or integer strings (decimals are
    read too, up to MAX_DECIMAL_DIGITS digits and exponent)."""
    if not isinstance(obj, dict) or "lines" not in obj or not isinstance(obj["lines"], list):
        raise ValueError('expected an object of the form {"lines": [...]}')
    lines = []
    for pos, entry in enumerate(obj["lines"]):
        if not isinstance(entry, dict):
            raise ValueError(f"lines[{pos}]: expected an object")
        vals = []
        for key in ("a", "b", "c"):
            if key not in entry:
                raise ValueError(f"lines[{pos}].{key}: missing")
            try:
                text = str(entry[key])
                _check_decimal_size(text)
                vals.append(Fraction(text))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"lines[{pos}].{key}: {exc}") from exc
        try:
            lines.append(Line.from_rationals(*vals))
        except ValueError as exc:
            raise ValueError(f"lines[{pos}]: {exc}") from exc
    return lines
