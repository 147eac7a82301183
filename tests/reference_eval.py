"""Reference evaluators: the plain ``Fraction`` Horner loops and the generic
bivariate substitution that ``UniPoly.__call__``, ``value_and_slope`` and
``BiPoly.eval_at`` replace with integer arithmetic over one common denominator,
the term-by-term ``Fraction`` sum that ``hypergeom.pfq_terminating``
replaces with an inside-out sum on integers, and the ``Fraction`` harmonic
sums of F(0)'s closed form that ``identities.f_closed`` takes on integers.

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
