"""Exact arithmetic in the Laurent polynomial ring Z[x^+-1, y^+-1] and in its
fraction field Q(x, y).

A Laurent polynomial is stored as a map from exponent pairs (e_x, e_y) to
nonzero integer coefficients, so two equal ring elements always carry
identical term maps.  The monomial order used everywhere (leading terms,
division, printing, serialization) is graded lexicographic with x heavier
than y.

Rational functions are kept as numerator/denominator pairs and are *not*
reduced to lowest terms (no multivariate gcd); normalization only strips the
denominator's monomial factor, the common integer content, and fixes the
sign of the denominator's leading coefficient.  Equality is decided by
cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class VerificationError(RuntimeError):
    """A structural identity the computation relies on failed to hold."""


def _order_key(exps):
    # graded lex, x before y; total degree first, then x-exponent
    return (exps[0] + exps[1], exps[0])


class LaurentPolynomial:
    """Element of Z[x^+-1, y^+-1].  Treat instances as immutable."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff:
                    t[(exps[0], exps[1])] = coeff
        self.terms = t

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): int(c)})

    @classmethod
    def monomial(cls, coeff, ex, ey):
        return cls({(ex, ey): int(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_lp(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __neg__(self):
        return LaurentPolynomial({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        other = _as_lp(other)
        if other is None:
            return NotImplemented
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.terms = t
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_lp(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_lp(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_lp(other)
        if other is None:
            return NotImplemented
        t = {}
        for (ax, ay), ac in self.terms.items():
            for (bx, by), bc in other.terms.items():
                e = (ax + bx, ay + by)
                s = t.get(e, 0) + ac * bc
                if s:
                    t[e] = s
                elif e in t:
                    del t[e]
        out = LaurentPolynomial.__new__(LaurentPolynomial)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            # only units (+- monomials) are invertible in the Laurent ring
            if not self.is_unit_monomial():
                raise ValueError("negative power of a non-unit")
            (ex, ey), c = next(iter(self.terms.items()))
            cinv = 1 if c == 1 or k % 2 == 0 else -1
            return LaurentPolynomial({(k * ex, k * ey): cinv})
        out = ONE
        base = self
        e = k
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_unit_monomial(self):
        if len(self.terms) != 1:
            return False
        return abs(next(iter(self.terms.values()))) == 1

    def leading_term(self):
        """(exponent pair, coefficient) of the largest monomial present."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_order_key)
        return e, self.terms[e]

    def min_exponents(self):
        if not self.terms:
            return (0, 0)
        return (min(e[0] for e in self.terms), min(e[1] for e in self.terms))

    def shifted(self, dx, dy):
        """Multiply by the monomial x^dx y^dy."""
        return LaurentPolynomial({(e[0] + dx, e[1] + dy): c for e, c in self.terms.items()})

    def content(self):
        g = 0
        for c in self.terms.values():
            g = gcd(g, abs(c))
        return g

    def int_divided(self, d):
        return LaurentPolynomial({e: c // d for e, c in self.terms.items()})

    def evaluate(self, x0, y0):
        """Exact value at a nonzero rational point."""
        x0 = Fraction(x0)
        y0 = Fraction(y0)
        if x0 == 0 or y0 == 0:
            raise ValueError("evaluation point must have nonzero coordinates")
        total = Fraction(0)
        for (ex, ey), c in self.terms.items():
            total += c * x0 ** ex * y0 ** ey
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _order_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (ex, ey), c in self.sorted_terms():
            mono = ""
            if ex:
                mono += "x" if ex == 1 else f"x^{ex}"
            if ey:
                mono += "y" if ey == 1 else f"y^{ey}"
            mag = abs(c)
            body = str(mag) if not mono else (mono if mag == 1 else f"{mag}{mono}")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPolynomial({self})"

    def to_json_obj(self):
        return {"terms": [[e[0], e[1], str(c)] for e, c in self.sorted_terms()]}

    @classmethod
    def from_json_obj(cls, obj):
        return cls({(int(t[0]), int(t[1])): int(t[2]) for t in obj["terms"]})


def _as_lp(v):
    if isinstance(v, LaurentPolynomial):
        return v
    if isinstance(v, int):
        return LaurentPolynomial({(0, 0): v}) if v else ZERO
    return None


ZERO = LaurentPolynomial()
ONE = LaurentPolynomial({(0, 0): 1})
X = LaurentPolynomial({(1, 0): 1})
Y = LaurentPolynomial({(0, 1): 1})


def lp_try_div_exact(f, g):
    """Exact quotient f/g in Z[x^+-1, y^+-1], or None when g does not
    divide f; g may be any nonzero Laurent polynomial.

    Both operands are cleared to genuine polynomials (monomials are units)
    and long-divided over Z by decreasing leading term.  If g divides f,
    every leading-term quotient is an integer, so a nonzero remainder in
    that step, or a leading term of f not divisible by g's, proves that g
    does not divide f.  A quotient is returned only once q * g = f holds.
    """
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return ZERO
    fm = f.min_exponents()
    gm = g.min_exponents()
    g0 = g.shifted(-gm[0], -gm[1])
    ge, gc = g0.leading_term()
    rem = dict(f.shifted(-fm[0], -fm[1]).terms)
    q0 = {}
    while rem:
        fe = max(rem, key=_order_key)
        de = (fe[0] - ge[0], fe[1] - ge[1])
        if de[0] < 0 or de[1] < 0:
            return None
        qc, r = divmod(rem[fe], gc)
        if r:
            return None
        q0[de] = qc
        for (bx, by), bc in g0.terms.items():
            e = (de[0] + bx, de[1] + by)
            s = rem.get(e, 0) - qc * bc
            if s:
                rem[e] = s
            elif e in rem:
                del rem[e]
    q = LaurentPolynomial(q0).shifted(fm[0] - gm[0], fm[1] - gm[1])
    if q * g != f:
        raise VerificationError("exact division verification failed")
    return q


class RationalFunction:
    """Element of Q(x, y) as a numerator/denominator pair, not reduced to
    lowest terms; equality is cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _coerce_lp(num)
        den = _coerce_lp(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            self.num = ZERO
            self.den = ONE
            return
        # strip the denominator's monomial factor into the numerator
        dm = den.min_exponents()
        if dm != (0, 0):
            num = num.shifted(-dm[0], -dm[1])
            den = den.shifted(-dm[0], -dm[1])
        # strip common integer content
        g = gcd(num.content(), den.content())
        if g > 1:
            num = num.int_divided(g)
            den = den.int_divided(g)
        # fix the sign of the denominator's leading coefficient
        if den.leading_term()[1] < 0:
            num = -num
            den = -den
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rf(other)
        if other is None:
            return NotImplemented
        return other / self

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RationalFunction({self})"

    def to_json_obj(self):
        return {"num": self.num.to_json_obj(), "den": self.den.to_json_obj()}


def _coerce_lp(v):
    lp = _as_lp(v)
    if lp is None:
        raise TypeError(f"cannot interpret {v!r} as a Laurent polynomial")
    return lp


def _as_rf(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, (LaurentPolynomial, int)):
        return RationalFunction(v)
    return None


def rf_is_laurent(a):
    """The Laurent polynomial equal to a, or None if a lies outside the ring."""
    a = _as_rf(a)
    return lp_try_div_exact(a.num, a.den)
