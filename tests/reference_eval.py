"""Reference evaluators: the plain ``Fraction`` Horner loops and the generic
bivariate substitution that ``UniPoly.__call__``, ``value_and_slope`` and
``BiPoly.eval_at`` replace with integer arithmetic over one common denominator,
the term-by-term ``Fraction`` sum that ``hypergeom.pfq_terminating``
replaces with an inside-out sum on integers, F(s)'s closed form (at s = 0
its harmonic sums) in ``Fraction`` arithmetic, which ``identities.f_closed``
takes on integers, and H(s) as the pointwise ``Fraction`` sum of its terms E1(q, s), which
``identities.h_sum`` sums as integer pairs.

They work in any exact ring, so they also evaluate ``RatFunc`` coefficients
at ``RatFunc`` points, which the package's evaluators reject.
"""

import math
from fractions import Fraction

from capelli.hypergeom import falling
from capelli.identities import SamplePoleError


def horner(coeffs, a):
    """p(a) for coefficients lowest degree first, one ring operation at a time."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def horner_with_slope(coeffs, a):
    """(p(a), p'(a)) from one Horner pass in the ring of ``a``."""
    val = slope = Fraction(0)
    for c in reversed(coeffs):
        slope = slope * a + val
        val = val * a + c
    return val, slope


def eval2(f, a, b):
    """f(a, b) for a ``BiPoly`` over any exact ring, by power tables."""
    if not f.terms:
        return Fraction(0)
    imax = max(i for i, _ in f.terms)
    jmax = max(j for _, j in f.terms)
    apow, bpow = [Fraction(1)], [Fraction(1)]
    for _ in range(imax):
        apow.append(apow[-1] * a)
    for _ in range(jmax):
        bpow.append(bpow[-1] * b)
    acc = None
    for (i, j), c in f.terms.items():
        t = c * apow[i] * bpow[j]
        acc = t if acc is None else acc + t
    return acc


def pfq_terminating(numerator, denominator, argument):
    """The terminating pFq summed term by term, one ``Fraction`` operation at
    a time, up to the smallest |a| over non-positive integer upstairs."""
    n_max = min(-int(a) for a in numerator if Fraction(a).denominator == 1 and a <= 0)
    total = term = Fraction(1)
    for n in range(n_max):
        for a in numerator:
            term *= a + n
        for b in denominator:
            term /= b + n
        term = term * argument / (n + 1)
        total += term
    return total


def _nonzero(value, factor):
    if not value:
        raise SamplePoleError(factor)
    return value


def f_closed_s0(j, l, x, y):
    """F(0)'s closed form, the harmonic difference summed one ``Fraction``
    at a time; at each t the pole y+t is checked before x+t."""
    harm = sum(
        Fraction(1) / _nonzero(y + t, f"y+{t}") - Fraction(1) / _nonzero(x + t, f"x+{t}")
        for t in range(1, j + 1)
    )
    return falling(x + j + l, j + l) / math.factorial(j + l) * harm


def f_closed_s(s, j, l, x):
    """F(s)'s closed form for 1 <= s <= l, a falling-factorial quotient in x
    alone, one ``Fraction`` operation at a time."""
    return falling(x + j + l, l - s) * falling(x + j, j) / (
        s * math.factorial(l - s) * falling(j + l, j))


def e1_term(q, s, x, y, j):
    """One summand E1(q, s) of H(s) at an exact point, one ``Fraction``
    operation at a time; its y factor's pole is checked before its x
    factor's."""
    return (
        Fraction(math.factorial(q + s - 1), math.factorial(s))
        * math.comb(j, q)
        * (y + 2 * q + s)
        * falling(y + j, j - q)
        / _nonzero(falling(y + q + s + j, j + 1), f"(y+{q + s + j})_({j + 1})")
        * falling(x - y, q)
        * falling(x + j + s, s)
        / _nonzero(falling(x + q + s, q + s), f"(x+{q + s})_({q + s})")
    )


def h_sum(s, j, x, y):
    """H(s) as the sum of ``e1_term`` over q, the q = 0 term only for s >= 1."""
    return sum((e1_term(q, s, x, y, j) for q in range(1 if s == 0 else 0, j + 1)), Fraction(0))
