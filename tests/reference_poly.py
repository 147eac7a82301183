"""Reference scalar layer: the plain ``Fraction`` polynomial and rational
function that ``capelli.ratfunc`` replaces with integer numerators over one
denominator.

``UniPoly`` keeps a tuple of ``Fraction`` coefficients, divides by long
division over Q and takes gcds by the Euclidean algorithm; ``RatFunc``
normalizes with that gcd to a coprime pair with a monic denominator.  Both
evaluate by the ``Fraction`` Horner loops of ``reference_eval``.  Only the
tests use them, to check every operation of the package's classes.

``square_op`` is the reference for ``capelli.bipoly.square_op``: it divides
f_x - f_y by x - y with a general peeling loop instead of the closed form.

``route_c`` and ``q_route_2`` are the references for the two pole-cancelling
limits, route c of ``capelli.eigenpoly`` and route 2 of
``capelli.knopsahi.q_poly``: each combination is formed in Q(kappa) with the
package's canonical ``RatFunc`` arithmetic, one normalization per
coefficient and operation, and then evaluated at k.
"""

from fractions import Fraction

import reference_eval
from capelli import knopsahi
from capelli.partitions import PClass, h_poly, paired
from capelli.ratfunc import RatFunc as QKappa, UniPoly as QPoly


class UniPoly:
    """Univariate polynomial over Q, ``Fraction`` coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def falling(cls, base, n):
        out = [cls((1,))]
        for t in range(n):
            out.append(out[-1] * (base - t))
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def scale(self, c):
        return UniPoly([a * c for a in self.coeffs])

    def divmod(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(other.coeffs)
        quot = [Fraction(0)] * max(len(rem) - dn + 1, 0)
        for shift in range(len(quot) - 1, -1, -1):
            q = rem[shift + dn - 1] / other.coeffs[-1]
            quot[shift] = q
            for i, b in enumerate(other.coeffs):
                rem[shift + i] -= q * b
        return UniPoly(quot), UniPoly(rem)

    def divexact(self, other):
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def gcd(self, other):
        """Monic gcd by the Euclidean algorithm over Q (gcd(0, 0) = 0)."""
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a.scale(1 / a.coeffs[-1]) if a else a

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, a):
        return reference_eval.horner(self.coeffs, Fraction(a))

    def value_and_slope(self, a):
        return reference_eval.horner_with_slope(self.coeffs, Fraction(a))

    def multiplicity(self, a):
        m, p, factor = 0, self, UniPoly((-Fraction(a), 1))
        while not p(a):
            p = p.divexact(factor)
            m += 1
        return m

    def __eq__(self, other):
        return self.coeffs == _as_poly(other).coeffs


def _as_poly(v):
    return v if isinstance(v, UniPoly) else UniPoly((v,))


class RatFunc:
    """Quotient of two reference ``UniPoly``: coprime, monic denominator, 0 as 0/1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num, den = _as_poly(num), _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = UniPoly((1,))
        else:
            g = num.gcd(den)
            num, den = num.divexact(g), den.divexact(g)
            lead = den.coeffs[-1]
            num, den = num.scale(1 / lead), den.scale(1 / lead)
        self.num, self.den = num, den

    def __add__(self, other):
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        return RatFunc(self.num * other.num, self.den * other.den)

    def eval(self, a):
        return self.num(a) / self.den(a)

    def _laurent(self, a):
        """(residue, regular value) at ``a`` from den = (x - a) * cofactor;
        None when ``a`` is no pole."""
        if self.den(a):
            return None
        cof = self.den.divexact(UniPoly((-Fraction(a), 1)))
        n0, n1 = self.num.value_and_slope(a)
        c0, c1 = cof.value_and_slope(a)
        return n0 / c0, (n1 - n0 / c0 * c1) / c0

    def residue(self, a):
        parts = self._laurent(a)
        return Fraction(0) if parts is None else parts[0]

    def regular_value(self, a):
        parts = self._laurent(a)
        return self.eval(a) if parts is None else parts[1]

    def derivative_at(self, a):
        return self.derivative().eval(a)

    def derivative(self):
        return RatFunc(self.num.derivative() * self.den - self.num * self.den.derivative(),
                       self.den * self.den)


def divide_x_minus_y(terms):
    """Exact quotient of {(i, j): c} by x - y, peeling the largest monomial;
    a nonzero remainder raises ``ArithmeticError``."""
    quot, rem = {}, dict(terms)

    def sub(k, c):
        s = rem.get(k)
        s = -c if s is None else s + -c
        if s:
            rem[k] = s
        elif k in rem:
            del rem[k]

    while rem:
        i, j = max(rem)
        if i == 0:
            raise ArithmeticError("polynomial is not divisible by x - y")
        c = rem[(i, j)]
        quot[(i - 1, j)] = quot.get((i - 1, j), Fraction(0)) + c
        # subtract c * (x - y) * x^(i-1) y^j
        sub((i, j), c)
        sub((i - 1, j + 1), -c)
    return quot


def square_op(f):
    """(f_x - f_y) / (4 (x - y)) of a ``capelli.bipoly.BiPoly`` as a term
    dict, through ``divide_x_minus_y``; zero coefficients are dropped."""
    g = {}
    for (i, j), c in f.terms.items():
        if i:
            g[(i - 1, j)] = g.get((i - 1, j), 0) + i * c
        if j:
            g[(i, j - 1)] = g.get((i, j - 1), 0) + -j * c
    quot = divide_x_minus_y({k: c for k, c in g.items() if c})
    return {k: c * Fraction(1, 4) for k, c in quot.items() if c}


def route_c(lam, k):
    """lim_{kappa -> k} (P_lam / H_lam + P_{lam+} / H_{lam+}) for k-quasiregular
    lam, by normalized ``body`` arithmetic in Q(kappa)."""
    lamd = paired(lam, k, PClass.QUASIREGULAR)
    combined = (knopsahi.ks_poly(lam).body.scale(QKappa(1, h_poly(lam)))
                + knopsahi.ks_poly(lamd).body.scale(QKappa(1, h_poly(lamd))))
    return combined.map_coeffs(lambda c: c.eval(k))


def q_route_2(lam, k):
    """lim_{kappa -> k} (P_lam - r_lam / (kappa - k) P_{lam+}) for k-singular
    lam, by normalized ``body`` arithmetic in Q(kappa)."""
    lamd = paired(lam, k, PClass.SINGULAR)
    pole = QKappa(knopsahi.r_coeff(lam, k), QPoly((-k, 1)))
    combo = knopsahi.ks_poly(lam).body - knopsahi.ks_poly(lamd).body.scale(pole)
    return combo.map_coeffs(lambda c: c.eval(k))
