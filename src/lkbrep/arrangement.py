"""Exact facet combinatorics of real line arrangements and their Salvetti
complexes.

All geometry is done with rational arithmetic: every facet (vertex, open
edge, open chamber) stores an exact representative point and its sign
vector, one entry per line in {-1, 0, +1}.  A facet F lies in the closure
of G exactly when the sign vector of F agrees with that of G wherever it
is nonzero, which is the only order relation the complex construction
needs.  Chambers of a line arrangement are convex, so the angle of
(representative - vertex) orders the chambers around a vertex correctly.

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
from functools import cmp_to_key
from math import gcd

from .complexes import CellComplex, TwistedComplex, word_to_chain
from .linalg import int_smith, int_solve
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


def sign_leq(sf, sg):
    """Closure order from sign vectors: F below G when F's nonzero signs
    all agree with G's."""
    return all(f == 0 or f == g for f, g in zip(sf, sg))


def _sign_vector(lines, pt):
    return tuple(l.side(pt) for l in lines)


def build_facets(lines):
    """Full facet enumeration of an arrangement of pairwise distinct lines,
    canonically sorted by sign vector."""
    lines = tuple(lines)
    if len(set(lines)) != len(lines):
        raise ValueError("duplicate lines in arrangement")

    points = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = intersect(lines[i], lines[j])
            if pt is not None:
                points.setdefault(pt, set()).update((i, j))
    vertices = [Vertex(pt, _sign_vector(lines, pt)) for pt in points]

    edges = []
    for li, line in enumerate(lines):
        d = line.direction()
        p0 = line.base_point()
        on_line = [v for v in vertices if v.sign[li] == 0]
        on_line.sort(key=lambda v: (v.point[0] - p0[0]) * d[0] + (v.point[1] - p0[1]) * d[1])

        def rep_between(v1, v2):
            return (Fraction(v1.point[0] + v2.point[0], 2),
                    Fraction(v1.point[1] + v2.point[1], 2))

        if not on_line:
            reps = [(p0, ())]
        else:
            reps = [((on_line[0].point[0] - d[0], on_line[0].point[1] - d[1]),
                     (vertices.index(on_line[0]),))]
            for v1, v2 in zip(on_line, on_line[1:]):
                reps.append((rep_between(v1, v2),
                             (vertices.index(v1), vertices.index(v2))))
            reps.append(((on_line[-1].point[0] + d[0], on_line[-1].point[1] + d[1]),
                         (vertices.index(on_line[-1]),)))
        for rep, incident in reps:
            sv = _sign_vector(lines, rep)
            if [k for k, s in enumerate(sv) if s == 0] != [li]:
                raise VerificationError("edge representative does not lie on its carrier only")
            edges.append(EdgeFacet(li, rep, sv, incident))
        if len(reps) != len(on_line) + 1:
            raise VerificationError("a line does not carry one more edge than it has vertices")

    maxcoef = max((max(abs(l.a), abs(l.b), abs(l.c)) for l in lines), default=1)
    eps0 = Fraction(1, 4 * (1 + maxcoef) * (1 + len(lines)))
    chambers = {}
    for e in sorted(edges, key=lambda e: e.sign):
        normal = (Fraction(lines[e.line].a), Fraction(lines[e.line].b))
        for side in (1, -1):
            eps = eps0
            while True:
                pt = (e.point[0] + side * eps * normal[0], e.point[1] + side * eps * normal[1])
                sv = _sign_vector(lines, pt)
                if 0 not in sv:
                    break
                eps = eps / 2
            if sv not in chambers:
                chambers[sv] = Chamber(pt, sv)
    if not lines:
        sv = ()
        chambers[sv] = Chamber((Fraction(0), Fraction(0)), sv)

    old_vertices = vertices
    vertices = sorted(vertices, key=lambda v: v.sign)
    vmap = {old_vertices.index(v): vertices.index(v) for v in old_vertices}
    edges = [EdgeFacet(e.line, e.point, e.sign, tuple(sorted(vmap[i] for i in e.vertices)))
             for e in edges]
    edges.sort(key=lambda e: e.sign)
    chamber_list = sorted(chambers.values(), key=lambda c: c.sign)
    return FacetComplex(lines, tuple(vertices), tuple(edges), tuple(chamber_list))


def _ccw_key(center):
    cx, cy = center

    def cmp(p1, p2):
        d1 = (p1[0] - cx, p1[1] - cy)
        d2 = (p2[0] - cx, p2[1] - cy)
        h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
        h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
        if h1 != h2:
            return -1 if h1 < h2 else 1
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if cross == 0:
            return 0
        return -1 if cross > 0 else 1

    return cmp


def cyclic_order_at_vertex(fc, vidx):
    """Chamber indices around a vertex, counterclockwise, starting at the
    chamber with the lexicographically smallest sign vector."""
    v = fc.vertices[vidx]
    around = [ci for ci, c in enumerate(fc.chambers) if sign_leq(v.sign, c.sign)]
    around.sort(key=cmp_to_key(
        lambda a, b: _ccw_key(v.point)(fc.chambers[a].point, fc.chambers[b].point)))
    nlines = sum(1 for s in v.sign if s == 0)
    if len(around) != 2 * nlines:
        raise VerificationError("wrong number of chambers around a vertex")
    start = min(range(len(around)), key=lambda i: fc.chambers[around[i]].sign)
    return around[start:] + around[:start]


def _edge_label(fidx, cidx):
    return ("s", fidx, cidx)


def _wall_between(fc, vidx, c1, c2):
    """The unique edge-facet through the vertex separating two consecutive
    chambers around it."""
    v = fc.vertices[vidx]
    found = [fi for fi, e in enumerate(fc.edges)
             if sign_leq(v.sign, e.sign)
             and sign_leq(e.sign, fc.chambers[c1].sign)
             and sign_leq(e.sign, fc.chambers[c2].sign)]
    if len(found) != 1:
        raise VerificationError("consecutive chambers do not share a unique wall")
    return found[0]


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
    edges = {}
    edge_facet = {}
    edge_line = {}
    for fi, e in enumerate(fc.edges):
        adj = [ci for ci, c in enumerate(fc.chambers) if sign_leq(e.sign, c.sign)]
        if len(adj) != 2:
            raise VerificationError("edge-facet without exactly two chambers")
        lo, hi = sorted(adj, key=lambda ci: fc.chambers[ci].sign)
        edges[_edge_label(fi, lo)] = (("w", lo), ("w", hi))
        edges[_edge_label(fi, hi)] = (("w", hi), ("w", lo))
        for ci in (lo, hi):
            edge_facet[_edge_label(fi, ci)] = fi
            edge_line[_edge_label(fi, ci)] = e.line
    cells = {}
    for vidx in range(len(fc.vertices)):
        cyc = cyclic_order_at_vertex(fc, vidx)
        m = len(cyc)
        s = m // 2
        for start_pos in range(m):
            rot = cyc[start_pos:] + cyc[:start_pos]
            word = []
            for i in range(1, s + 1):
                wall = _wall_between(fc, vidx, rot[i - 1], rot[i])
                word.append((_edge_label(wall, rot[i - 1]), 1))
            back = []
            for i in range(1, s + 1):
                d_prev = rot[-(i - 1)] if i > 1 else rot[0]
                d_cur = rot[-i]
                wall = _wall_between(fc, vidx, d_prev, d_cur)
                back.append((_edge_label(wall, d_prev), -1))
            word.extend(reversed(back))
            cells[("A", vidx, rot[0])] = word
    cx = CellComplex(vertices, edges, cells)
    cx.validate()
    nv, ne, nc = cx.counts()
    if nv != len(fc.chambers):
        raise VerificationError("Salvetti vertex count differs from the chamber count")
    if ne != 2 * len(fc.edges):
        raise VerificationError("Salvetti edge count differs from twice the edge-facet count")
    if nc != sum(len(cyclic_order_at_vertex(fc, v)) for v in range(len(fc.vertices))):
        raise VerificationError("Salvetti 2-cell count differs from the vertex-chamber incidences")
    return SalvettiComplex(fc, cx, edge_facet, edge_line)


def _loop_chains(cx):
    """Loop 1-chain of each directed edge once a spanning tree is chosen:
    the edge itself plus the tree path closing it up."""
    vs = sorted(cx.vertices)
    es = sorted(cx.edges)
    eidx = {e: i for i, e in enumerate(es)}
    parent = {vs[0]: None}
    order = [vs[0]]
    frontier = [vs[0]]
    while frontier:
        nxt = []
        for v in frontier:
            for e in es:
                src, tgt = cx.edges[e]
                if src == v and tgt not in parent:
                    parent[tgt] = (e, 1, v)
                    nxt.append(tgt)
                    order.append(tgt)
                elif tgt == v and src not in parent:
                    parent[src] = (e, -1, v)
                    nxt.append(src)
                    order.append(src)
        frontier = nxt
    if len(parent) != len(vs):
        raise VerificationError("Salvetti complex is not connected")

    path_cache = {vs[0]: [0] * len(es)}

    def path_to_root(v):
        if v not in path_cache:
            e, sgn, up = parent[v]
            vec = list(path_to_root(up))
            vec[eidx[e]] -= sgn  # walk v -> up against the tree edge direction
            path_cache[v] = vec
        return path_cache[v]

    loops = {}
    for e in es:
        src, tgt = cx.edges[e]
        vec = [0] * len(es)
        vec[eidx[e]] = 1
        down = path_to_root(tgt)
        upv = path_to_root(src)
        loops[e] = [a + b - c for a, b, c in zip(vec, down, upv)]
    return es, loops


def salvetti_h1(sc):
    """First homology of the Salvetti complex via Smith normal form, with a
    per-edge-facet report of whether the two opposite directed edges give
    the same homology class."""
    d1, d2 = sc.complex.boundary_matrices()
    _, rank1 = int_smith(d1)
    factors2, rank2 = int_smith(d2)
    rank = d1.ncols - rank1 - rank2
    torsion = [f for f in factors2 if f != 1]
    es, loops = _loop_chains(sc.complex)
    by_facet = {}
    for e in es:
        by_facet.setdefault(sc.edge_facet[e], []).append(e)
    relations = {}
    for fi, pair in sorted(by_facet.items()):
        e1, e2 = pair
        diff = [a - b for a, b in zip(loops[e1], loops[e2])]
        relations[fi] = int_solve(d2, diff) is not None
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


def load_arrangement(obj):
    """Arrangement from its JSON form {"lines": [{"a": .., "b": .., "c": ..}]}
    with rational entries given as "p/q" or integer strings."""
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
                vals.append(Fraction(str(entry[key])))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"lines[{pos}].{key}: {exc}") from exc
        try:
            lines.append(Line.from_rationals(*vals))
        except ValueError as exc:
            raise ValueError(f"lines[{pos}]: {exc}") from exc
    return lines
