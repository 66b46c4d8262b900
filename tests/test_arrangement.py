import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from lkbrep import arrangement, linalg
from lkbrep.arrangement import (
    Line,
    build_facets,
    build_salvetti,
    cyclic_order_at_vertex,
    intersect,
    load_arrangement,
    salvetti_h1,
    salvetti_twisted_complex,
)
from lkbrep.complexes import CellComplex
from lkbrep.linalg import field_kernel
from lkbrep.ring import LaurentPolynomial as LP, RationalFunction as RF, VerificationError, X


def lines_a2():
    """x1=1, x1=2, x2=1, x2=2, x1=x2."""
    return [
        Line.from_rationals(1, 0, 1),
        Line.from_rationals(1, 0, 2),
        Line.from_rationals(0, 1, 1),
        Line.from_rationals(0, 1, 2),
        Line.from_rationals(1, -1, 0),
    ]


def test_line_canonical_form():
    assert Line.from_rationals("1/2", 0, "3/2") == Line(1, 0, 3)
    assert Line.from_rationals(-2, 4, 6) == Line(1, -2, -3)
    assert Line.from_rationals(0, -3, 6) == Line(0, 1, -2)
    with pytest.raises(ValueError):
        Line.from_rationals(0, 0, 1)


def test_single_line():
    fc = build_facets([Line.from_rationals(1, 0, 0)])
    assert len(fc.vertices) == 0
    assert len(fc.edges) == 1
    assert len(fc.chambers) == 2


def test_two_crossing_lines():
    fc = build_facets([Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0)])
    assert len(fc.vertices) == 1
    assert len(fc.edges) == 4
    assert len(fc.chambers) == 4
    assert cyclic_order_at_vertex(fc, 0) and len(cyclic_order_at_vertex(fc, 0)) == 4
    # quadrants counterclockwise from the smallest sign vector (-1, -1)
    assert [c.sign for c in fc.chambers] == [(-1, -1), (-1, 1), (1, -1), (1, 1)]
    assert cyclic_order_at_vertex(fc, 0) == [0, 2, 3, 1]


def test_a2_facets_against_brute_force():
    lines = lines_a2()
    # oracle: intersect all pairs and dedupe
    pts = set()
    for i in range(5):
        for j in range(i + 1, 5):
            p = intersect(lines[i], lines[j])
            if p is not None:
                pts.add(p)
    assert pts == {(Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)),
                   (Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))}
    fc = build_facets(lines)
    assert len(fc.vertices) == 4
    assert {v.point for v in fc.vertices} == pts
    # every line carries one more edge than the vertices on it
    for li in range(5):
        on = sum(1 for v in fc.vertices if v.sign[li] == 0)
        carried = sum(1 for e in fc.edges if e.line == li)
        assert carried == on + 1
    assert len(fc.chambers) == 12


def test_a2_cyclic_orders():
    fc = build_facets(lines_a2())
    lengths = {}
    for vi, v in enumerate(fc.vertices):
        lengths[v.point] = len(cyclic_order_at_vertex(fc, vi))
    assert lengths[(Fraction(1), Fraction(1))] == 6
    assert lengths[(Fraction(2), Fraction(2))] == 6
    assert lengths[(Fraction(1), Fraction(2))] == 4
    assert lengths[(Fraction(2), Fraction(1))] == 4


def test_close_lines_give_seven_chambers():
    # three lines whose 3 crossings lie close together, so the triangle
    # between them is a thin chamber
    lines = [Line.from_rationals(1, -11, -12), Line.from_rationals(26, -32, 37),
             Line.from_rationals(31, -36, 47)]
    fc = build_facets(lines)
    assert (len(fc.vertices), len(fc.edges), len(fc.chambers)) == (3, 9, 7)
    for c in fc.chambers:
        assert tuple(l.side(c.point) for l in fc.lines) == c.sign


def zaslavsky_counts(coeffs):
    """Chambers, edge-facets and vertex-chamber incidences of the arrangement
    a*x + b*y = c over (a, b, c) in coeffs, from its crossings alone."""
    through = {}
    for i, (a1, b1, c1) in enumerate(coeffs):
        for a2, b2, c2 in coeffs[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det:
                pt = (Fraction(c1 * b2 - c2 * b1, det), Fraction(a1 * c2 - a2 * c1, det))
                through.setdefault(pt, set()).update(((a1, b1, c1), (a2, b2, c2)))
    chambers = 1 + len(coeffs) + sum(len(ls) - 1 for ls in through.values())
    edges = len(coeffs) + sum(len(ls) for ls in through.values())
    incidences = sum(2 * len(ls) for ls in through.values())
    return chambers, edges, incidences


def test_wide_coefficients_match_zaslavsky():
    rng = random.Random(2024)
    for _ in range(40):
        lines = set()
        target = rng.randint(3, 7)
        while len(lines) < target:
            a, b, c = (rng.randint(-50, 50) for _ in range(3))
            if a or b:
                lines.add(Line.from_rationals(a, b, c))
        lines = sorted(lines)
        chambers, edges, incidences = zaslavsky_counts([(l.a, l.b, l.c) for l in lines])
        fc = build_facets(lines)
        assert (len(fc.chambers), len(fc.edges)) == (chambers, edges)
        for facets in (fc.vertices, fc.edges, fc.chambers):
            assert [f.sign for f in facets] == sorted(f.sign for f in facets)
        for e in fc.edges:
            assert list(e.vertices) == sorted(e.vertices)
            assert all(fc.vertices[vi].sign[e.line] == 0 for vi in e.vertices)
        sc = build_salvetti(fc)
        assert sc.counts() == (chambers, 2 * edges, incidences)
        rank, torsion, relations = salvetti_h1(sc)
        assert (rank, torsion) == (len(lines), [])
        assert (rank, torsion) == dense_smith_h1(sc.complex)
        assert sorted(relations) == list(range(edges))
        assert all(v is False for v in relations.values())


def dense_smith_h1(cx):
    """(rank, torsion) of H1 from a dense d2 in Smith normal form."""
    es = sorted(cx.edges)
    eidx = {e: i for i, e in enumerate(es)}
    d2 = [[0] * len(cx.cells) for _ in es]
    for j, word in enumerate(cx.cells.values()):
        for e, sign in word:
            d2[eidx[e]][j] += sign
    d, _, _ = linalg.int_smith_transforms(linalg.Matrix(d2, nrows=len(es), ncols=len(cx.cells)))
    factors = [f for f in (d.entries[i][i] for i in range(min(d.nrows, d.ncols))) if f]
    return len(es) - (len(cx.vertices) - 1) - len(factors), [f for f in factors if f != 1]


def test_missing_facets_raise_verification_errors(monkeypatch):
    fc = build_facets(lines_a2())
    for ci in range(len(fc.chambers)):
        cut = dataclasses.replace(fc, chambers=fc.chambers[:ci] + fc.chambers[ci + 1:])
        with pytest.raises(VerificationError, match="edge-facet without exactly two chambers"):
            build_salvetti(cut)
        with pytest.raises(VerificationError):
            for vi in range(len(cut.vertices)):
                cyclic_order_at_vertex(cut, vi)
    for fi in range(len(fc.edges)):
        cut = dataclasses.replace(fc, edges=fc.edges[:fi] + fc.edges[fi + 1:])
        with pytest.raises(VerificationError):
            build_salvetti(cut)
    # two chambers that are not neighbours around a vertex share no wall
    order = arrangement.cyclic_order_at_vertex
    monkeypatch.setattr(arrangement, "cyclic_order_at_vertex",
                        lambda fc, vi: order(fc, vi)[::2] + order(fc, vi)[1::2])
    with pytest.raises(VerificationError, match="consecutive chambers do not share a unique wall"):
        build_salvetti(fc)


def test_duplicate_lines_rejected():
    with pytest.raises(ValueError):
        build_facets([Line.from_rationals(1, 0, 0), Line.from_rationals(2, 0, 0)])


def sign_leq(sf, sg):
    """Closure order from sign vectors: F below G when F's nonzero signs
    all agree with G's."""
    return all(f == 0 or f == g for f, g in zip(sf, sg))


def test_sign_order_matches_geometric_closure():
    rng = random.Random(12)
    for _ in range(8):
        nlines = rng.randint(1, 4)
        lines = set()
        while len(lines) < nlines:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if a or b:
                lines.add(Line.from_rationals(a, b, rng.randint(-2, 2)))
        fc = build_facets(sorted(lines))
        facets = [(v.point, v.sign) for v in fc.vertices] + \
                 [(e.point, e.sign) for e in fc.edges] + \
                 [(c.point, c.sign) for c in fc.chambers]

        def walk_sign(fp, gp, k):
            t = Fraction(1, 2 ** k)
            pt = (fp[0] + t * (gp[0] - fp[0]), fp[1] + t * (gp[1] - fp[1]))
            return tuple(l.side(pt) for l in fc.lines)

        for fp, fs in facets:
            for gp, gs in facets:
                if fs == gs:
                    continue
                if sign_leq(fs, gs):
                    # F in the closure of G: by convexity the whole walk from
                    # the F representative into G stays inside G
                    for k in range(1, 8):
                        assert walk_sign(fp, gp, k) == gs
                else:
                    # otherwise the walk leaves G once the offset is small
                    assert any(walk_sign(fp, gp, k) != gs for k in range(1, 41))
def salvetti_counts(lines):
    sc = build_salvetti(build_facets(lines))
    return sc.counts()


def test_salvetti_one_line():
    nv, ne, nc = salvetti_counts([Line.from_rationals(1, 0, 0)])
    assert (nv, ne, nc) == (2, 2, 0)


def test_salvetti_two_crossing_lines():
    nv, ne, nc = salvetti_counts([Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0)])
    assert (nv, ne, nc) == (4, 8, 4)
    # Euler characteristic of the complex equals 0 here
    assert nv - ne + nc == 0


def test_salvetti_a2():
    sc = build_salvetti(build_facets(lines_a2()))
    nv, ne, nc = sc.counts()
    assert nv == 12
    assert ne == 2 * len(sc.fc.edges)
    assert nc == 6 + 6 + 4 + 4


def test_salvetti_h1_examples():
    sc = build_salvetti(build_facets([Line.from_rationals(1, 0, 0)]))
    rank, torsion, relations = salvetti_h1(sc)
    assert (rank, torsion) == (1, [])
    assert relations == {0: False}
    sc = build_salvetti(build_facets(
        [Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0)]))
    rank, torsion, relations = salvetti_h1(sc)
    assert (rank, torsion) == (2, [])
    # the opposite directed edges over a facet are each half a loop around
    # the carrier, so their loop classes differ by an odd number of turns
    assert set(relations) == set(range(len(sc.fc.edges)))
    assert all(not v for v in relations.values())
    sc = build_salvetti(build_facets(lines_a2()))
    rank, torsion, relations = salvetti_h1(sc)
    assert (rank, torsion) == (5, [])
    assert set(relations) == set(range(len(sc.fc.edges)))
    assert all(not v for v in relations.values())


def count_smith_decompositions(monkeypatch):
    calls = []
    smith = linalg.int_smith_transforms

    def counted(a):
        calls.append(a.nrows)
        return smith(a)

    monkeypatch.setattr(linalg, "int_smith_transforms", counted)
    return calls


def test_salvetti_h1_runs_no_smith_decomposition(monkeypatch):
    calls = count_smith_decompositions(monkeypatch)
    for lines in ([Line.from_rationals(1, 0, 0)], lines_a2(),
                  fixed_input("family-08"), fixed_input("wide-32")):
        sc = build_salvetti(build_facets(lines))
        rank, torsion, relations = salvetti_h1(sc)
        assert (rank, torsion) == (len(lines), [])
        assert len(relations) == len(sc.fc.edges)
    assert calls == []


def fixed_input(name):
    path = Path(__file__).resolve().parent.parent / "data" / "arrangements" / f"{name}.json"
    return load_arrangement(json.loads(path.read_text()))


def test_salvetti_h1_rejects_a_corrupted_complex(monkeypatch):
    sc = build_salvetti(build_facets(lines_a2()))
    cells = sc.complex.cells
    cell = next(iter(cells))
    # a letter dropped from one boundary word: phi no longer kills it
    cut = {**cells, cell: cells[cell][1:]}
    bad = dataclasses.replace(sc, complex=CellComplex(sc.complex.vertices, sc.complex.edges, cut))
    with pytest.raises(VerificationError, match="phi does not vanish"):
        salvetti_h1(bad)
    # the 2-cells at one vertex deleted: phi kills every word left, but d2
    # loses rank
    kept = {c: word for c, word in cells.items() if c[1] != 0}
    bad = dataclasses.replace(sc, complex=CellComplex(sc.complex.vertices, sc.complex.edges, kept))
    with pytest.raises(VerificationError, match="H1 rank 9 differs from the line count 5"):
        salvetti_h1(bad)
    # one directed edge relabelled to another line
    edge, line = next(iter(sc.edge_line.items()))
    relabelled = {**sc.edge_line, edge: (line + 1) % 5}
    with pytest.raises(VerificationError, match="phi does not vanish"):
        salvetti_h1(dataclasses.replace(sc, edge_line=relabelled))
    # phi of the tree paths patched so that one relation's entry is zero
    tree_phi = arrangement._tree_phi

    def flattened(cx, edge_line, nlines):
        phi = tree_phi(cx, edge_line, nlines)
        (src, tgt), line = cx.edges[edge], edge_line[edge]
        phi[tgt][line] = phi[src][line]
        return phi

    monkeypatch.setattr(arrangement, "_tree_phi", flattened)
    with pytest.raises(VerificationError, match="phi does not separate"):
        salvetti_h1(sc)


def test_salvetti_h1_rejects_a_disconnected_complex():
    sc = build_salvetti(build_facets(lines_a2()))
    lone = ("w", len(sc.complex.vertices))
    cx = CellComplex(sc.complex.vertices + [lone], sc.complex.edges, sc.complex.cells)
    with pytest.raises(VerificationError, match="not connected"):
        salvetti_h1(dataclasses.replace(sc, complex=cx))


def test_sign_vector_matches_line_side():
    rng = random.Random(17)
    for _ in range(40):
        lines = random_arrangement(rng)
        points = [(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                   Fraction(rng.randint(-30, 30), rng.randint(1, 12))) for _ in range(5)]
        points += [pt for l1 in lines for l2 in lines if (pt := intersect(l1, l2))]
        for pt in points:
            assert arrangement._sign_vector(lines, pt) == tuple(l.side(pt) for l in lines)


def random_arrangement(rng, max_lines=6):
    lines = set()
    target = rng.randint(1, max_lines)
    while len(lines) < target:
        a = rng.randint(-3, 3)
        b = rng.randint(-3, 3)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        if a == 0 and b == 0:
            continue
        lines.add(Line.from_rationals(a, b, c))
    return sorted(lines)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_arrangements(seed):
    rng = random.Random(seed)
    for _ in range(4):
        lines = random_arrangement(rng)
        fc = build_facets(lines)
        sc = build_salvetti(fc)  # validates boundary words on construction
        nv, ne, nc = sc.counts()
        assert nv == len(fc.chambers)
        assert ne == 2 * len(fc.edges)
        assert nc == sum(len(cyclic_order_at_vertex(fc, v)) for v in range(len(fc.vertices)))
        assert nv - ne + nc == len(fc.chambers) - 2 * len(fc.edges) + nc
        rank, torsion, _ = salvetti_h1(sc)
        assert rank == len(lines)
        assert torsion == []


def test_twisted_complex_from_arrangement():
    lines = [Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0)]
    sc = build_salvetti(build_facets(lines))
    tc = salvetti_twisted_complex(sc, {0: X, 1: X})
    # all weights 1 is the untwisted boundary: evaluate the twisted one
    d = tc.differential_matrix()
    cols = tc.untwist()
    un = linalg.Matrix([[cols[c].get(e, 0) for c in tc.basis2] for e in tc.basis1])
    for i in range(d.nrows):
        for j in range(d.ncols):
            v = d.entries[i][j]
            assert (sum(v.terms.values()) if v else 0) == un.entries[i][j]
    # hand elimination: the four twisted columns satisfy l0 = -x*l1 and
    # l1 = -x*l0, forcing (1-x^2) l0 = 0, so the twisted kernel is trivial
    # even though the untwisted kernel below is one-dimensional
    assert len(field_kernel(d)) == 0
    assert len(field_kernel(un.map(lambda e: RF(LP.constant(e))))) == 1
    # one line, weight x: no 2-cells at all
    sc1 = build_salvetti(build_facets([Line.from_rationals(1, 0, 0)]))
    tc1 = salvetti_twisted_complex(sc1, {0: X})
    assert tc1.differential_matrix().ncols == 0
    with pytest.raises(ValueError):
        salvetti_twisted_complex(sc1, {0: X + 1})


def test_central_arrangement_six_lines():
    lines = [Line.from_rationals(1, 0, 0), Line.from_rationals(0, 1, 0),
             Line.from_rationals(1, -1, 0), Line.from_rationals(2, -1, 0),
             Line.from_rationals(3, -1, 0), Line.from_rationals(1, 1, 0)]
    fc = build_facets(lines)
    assert len(fc.vertices) == 1
    assert len(fc.edges) == 12
    assert len(fc.chambers) == 12
    assert len(cyclic_order_at_vertex(fc, 0)) == 12
    sc = build_salvetti(fc)
    assert sc.counts() == (12, 24, 12)
    for word in sc.complex.cells.values():
        assert len(word) == 12
    rank, torsion, _ = salvetti_h1(sc)
    assert (rank, torsion) == (6, [])


def test_load_arrangement():
    obj = {"lines": [{"a": "1", "b": "0", "c": "2"}, {"a": "1/2", "b": "1", "c": "0"}]}
    lines = load_arrangement(obj)
    assert lines[0] == Line(1, 0, 2)
    assert lines[1] == Line(1, 2, 0)
    with pytest.raises(ValueError):
        load_arrangement({"lines": [{"a": "1", "b": "0"}]})
    with pytest.raises(ValueError):
        load_arrangement({"nope": []})


def test_load_arrangement_bounds_decimal_size():
    bound = arrangement.MAX_DECIMAL_DIGITS

    def load(a):
        return load_arrangement({"lines": [{"a": a, "b": 1, "c": 0}]})

    # JSON floats at both ends of the double range, and decimal strings
    assert load(1.7976931348623157e308)[0].a > 0
    assert load(5e-324)[0].a > 0
    assert load("0.1") == [Line(1, 10, 0)]
    assert load(f"1e{bound}") == load(f"1E+{bound}") == [Line(10 ** bound, 1, 0)]
    assert load(f"1e-{bound}") == [Line(1, 10 ** bound, 0)]
    assert load("7" * bound)[0].a == int("7" * bound)
    for bad, message in [(f"1e{bound + 1}", "exponent"), (f"1e-{bound + 1}", "exponent"),
                         ("1e" + "0" * 500 + "401", "exponent"), ("1e" + "9" * 5000, "exponent"),
                         ("7" * (bound + 1), "digits"), ("1" * 300 + "/" + "3" * 101, "digits")]:
        with pytest.raises(ValueError, match=rf"lines\[0\]\.a: .*{message}"):
            load(bad)
    # malformed text still reaches Fraction's own message
    with pytest.raises(ValueError, match="Invalid literal"):
        load("1e")
