import json
import random
from fractions import Fraction

import pytest

from lkbrep.ring import (
    LaurentPolynomial,
    RationalFunction,
    lp_try_div_exact,
    rf_is_laurent,
    ONE,
    X,
    Y,
    ZERO,
)

LP = LaurentPolynomial
RF = RationalFunction


def random_lp(rng, max_deg=6, max_coeff=100, max_terms=5):
    t = {}
    for _ in range(rng.randint(0, max_terms)):
        e = (rng.randint(-max_deg, max_deg), rng.randint(-max_deg, max_deg))
        t[e] = rng.randint(-max_coeff, max_coeff)
    return LP(t)


def test_add_examples():
    assert (X - 1) + (1 - X) == ZERO
    assert ZERO + X * Y == X * Y
    assert (X * Y + 1) + (X * Y - 1) == 2 * X * Y


def test_mul_examples():
    assert (X - 1) * (X + 1) == X * X - 1
    f = 3 * X * Y ** 2 - 7
    assert f * ONE == f
    # hand expansion: (xy-1)(xy+1) = x^2 y^2 - 1
    assert (X * Y - 1) * (X * Y + 1) == X ** 2 * Y ** 2 - 1


def test_canonical_form():
    f = X + Y - X  # cancellation must leave no zero-coefficient term
    assert f.terms == Y.terms
    assert LP({(2, 0): 0}) == ZERO
    assert not ZERO.terms


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(1000):
        f, g, h = (random_lp(rng) for _ in range(3))
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h


def test_pow():
    assert (X + 1) ** 0 == ONE
    assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
    assert X ** -2 == LP({(-2, 0): 1})
    assert (-X * Y) ** -1 == LP({(-1, -1): -1})
    assert (-X) ** -2 == LP({(-2, 0): 1})
    with pytest.raises(ValueError):
        (X + 1) ** -1


def test_div_exact_examples():
    assert lp_try_div_exact(X ** 2 * Y ** 2 - 1, X * Y + 1) == X * Y - 1
    assert lp_try_div_exact(X ** 2 * Y + X, X) == X * Y + 1
    assert lp_try_div_exact(X * Y + 1, Y - 1) is None


def test_div_exact_errors():
    with pytest.raises(ZeroDivisionError):
        lp_try_div_exact(X, ZERO)
    # a divisor whose leading coefficient is not a unit takes the same path
    assert lp_try_div_exact(X, 2 * X + 1) is None
    assert lp_try_div_exact(4 * X * X - 1, 2 * X + 1) == 2 * X - 1


def test_div_exact_randomized_multiply_back():
    rng = random.Random(1)
    divisors = [X - 1, Y - 1, X * Y + 1, (Y - 1) * (X * Y + 1), X ** -1 * Y ** 2,
                2 * X + 3, 3 * X * Y - 2, LP.constant(5)]
    for _ in range(200):
        q = random_lp(rng, max_deg=3, max_coeff=9)
        g = divisors[rng.randrange(len(divisors))]
        f = q * g
        got = lp_try_div_exact(f, g)
        assert got == q
        assert got * g == f
    # a non-multiple is rejected: tack on a unit the divisor cannot absorb
    assert lp_try_div_exact((X - 1) * (X * Y + 1) + 1, X * Y + 1) is None


def test_eval_examples():
    assert ((X - 1) * (Y - 1)).evaluate(1, 1) == 0
    assert (X * Y + 1).evaluate(1, 1) == 2
    assert (X ** -1 * Y).evaluate(2, 3) == Fraction(3, 2)
    with pytest.raises(ValueError):
        X.evaluate(0, 1)


def test_eval_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(100):
        f, g = random_lp(rng, max_deg=4, max_coeff=10), random_lp(rng, max_deg=4, max_coeff=10)
        x0 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        y0 = Fraction(-rng.randint(1, 5), rng.randint(1, 5))
        assert (f * g).evaluate(x0, y0) == f.evaluate(x0, y0) * g.evaluate(x0, y0)
        assert (f + g).evaluate(x0, y0) == f.evaluate(x0, y0) + g.evaluate(x0, y0)


def test_rf_examples():
    assert RF(X ** 2 - 1, X - 1) == RF(X + 1)
    a = RF(X * Y + 3, Y - 1)
    assert not (a - a)
    assert RF(1, Y - 1) * RF(Y - 1) == RF(ONE)
    with pytest.raises(ZeroDivisionError):
        a / RF(ZERO)


def test_rf_normalization():
    a = RF(2 * X, 4 * Y)  # common content stripped, denominator monomial-free
    assert a.num == X * Y ** -1 and a.den == LP({(0, 0): 2})
    b = RF(X, 1 - Y)  # denominator sign fixed by leading coefficient
    assert b.den == Y - 1 and b.num == -X


def test_rf_eq_is_equivalence():
    rng = random.Random(3)
    samples = []
    while len(samples) < 12:
        n, d = random_lp(rng, 3, 9), random_lp(rng, 3, 9)
        if d:
            samples.append(RF(n, d))
    for a in samples:
        assert a == a
        for b in samples:
            assert (a == b) == (b == a)
            assert (a == b) == (a.num * b.den == b.num * a.den)
            for c in samples:
                if a == b and b == c:
                    assert a == c
    # scaling by a common nonzero factor never changes the class
    for a in samples:
        s = (X - 1) * Y ** -2
        assert a == RF(a.num * s, a.den * s)


def test_rf_field_ops():
    a = RF(X, Y - 1)
    b = RF(Y, X * Y + 1)
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a / a == RF(ONE)
    assert a - b == a + (-b)


def test_rf_is_laurent():
    assert rf_is_laurent(RF(X ** 2 * Y ** 2 - 1, X * Y + 1)) == X * Y - 1
    assert rf_is_laurent(RF(1, Y - 1)) is None
    f = 5 * X ** -3 + Y
    assert rf_is_laurent(RF(f)) == f
    # denominators with a non-unit leading coefficient
    assert rf_is_laurent(RF(2 * X ** 2 + X, 2 * X + 1)) == X
    assert rf_is_laurent(RF(X, 2 * X)) is None
    assert rf_is_laurent(RF(6 * X * Y + 2, 3 * X * Y + 1)) == LP({(0, 0): 2})


def test_monomial_order_total_and_multiplicative():
    from lkbrep.ring import _order_key

    rng = random.Random(13)
    for _ in range(300):
        a = (rng.randint(-5, 5), rng.randint(-5, 5))
        b = (rng.randint(-5, 5), rng.randint(-5, 5))
        c = (rng.randint(-5, 5), rng.randint(-5, 5))
        # total: equal keys only for equal exponent pairs
        assert (a == b) == (_order_key(a) == _order_key(b))
        # multiplicative: translation by c preserves strict comparisons
        shifted = lambda m: (m[0] + c[0], m[1] + c[1])
        assert (_order_key(a) < _order_key(b)) == \
            (_order_key(shifted(a)) < _order_key(shifted(b)))
    # graded lex with x before y: xy+1, y-1, x-1 all lead with coefficient 1
    for f in (X * Y + 1, Y - 1, X - 1):
        assert f.leading_term()[1] == 1


def test_str_rendering():
    assert str(ZERO) == "0"
    assert str(X ** 2 * Y - 1) == "x^2y - 1"
    assert str(-(X ** -1) + 2) == "2 - x^-1"
    assert str(3 * Y ** 2) == "3y^2"


def test_json_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        f = random_lp(rng)
        obj = f.to_json_obj()
        # serialized terms are ordered by the monomial order, descending
        keys = [(t[0], t[1]) for t in obj["terms"]]
        assert keys == [e for e, _ in f.sorted_terms()]
        assert LP.from_json_obj(json.loads(json.dumps(obj))) == f
