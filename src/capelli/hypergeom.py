"""Terminating generalized hypergeometric series in exact rational arithmetic.

A series pFq(a1..ap; b1..bq; z) terminates when some numerator parameter is
a non-positive integer; only such series are evaluated here, so every value
is an exact ``Fraction``.  Gamma functions never appear: the right-hand side
of Dougall's very-well-poised 5F4 summation is pre-reduced to the Pochhammer
quotient

    (a+1)_(b) (a+b+c+1)_(d) / ( (a+c+1)_(d) (a+d+1)_(b) )    (rising factorials)

which is valid verbatim for non-negative integers b, c, d.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .ratfunc import as_ratio


def rising(a, n: int) -> Fraction:
    """Pochhammer a (a+1) ... (a+n-1); empty product is 1."""
    return _pochhammer(a, n, 1)


def falling(a, n: int) -> Fraction:
    """a (a-1) ... (a-n+1); empty product is 1."""
    return _pochhammer(a, n, -1)


def _pochhammer(a, n: int, step: int) -> Fraction:
    """prod_{t<n} (a + step*t) for a = p/q: the integer numerators p + step*t*q
    are multiplied and the product is normalized once over q**n.  ``a`` is an
    ``int`` or a ``Fraction``; anything else raises ``TypeError``."""
    p, q = as_ratio(a)
    num = 1
    for t in range(n):
        num *= p + step * t * q
        if not num:
            return Fraction(0)
    return Fraction(num, q**n) if n > 0 else Fraction(1)


def _is_nonpositive_int(a: Fraction) -> bool:
    return a.denominator == 1 and a <= 0


def pfq_terminating(numerator: Sequence, denominator: Sequence, argument=1) -> Fraction:
    """Exact finite sum of the terminating pFq(numerator; denominator; argument).

    The sum stops at the smallest |a| over non-positive-integer numerator
    parameters; a denominator parameter that vanishes before then is an error.
    """
    numerator = [Fraction(*as_ratio(a)) for a in numerator]
    denominator = [Fraction(*as_ratio(b)) for b in denominator]
    argument = Fraction(*as_ratio(argument))
    stops = [-int(a) for a in numerator if _is_nonpositive_int(a)]
    if not stops:
        raise ValueError("series does not terminate: no non-positive integer upstairs")
    n_max = min(stops)
    for b in denominator:
        if _is_nonpositive_int(b) and -int(b) < n_max:
            raise ValueError(f"denominator parameter {b} vanishes within the summation range")
    total = Fraction(1)
    term = Fraction(1)
    for n in range(n_max):
        for a in numerator:
            term *= a + n
        for b in denominator:
            term /= b + n
        term *= argument
        term /= n + 1
        total += term
    return total


def dougall_check(a, b: int, c: int, d: int) -> tuple[Fraction, Fraction]:
    """Both sides (lhs, rhs) of Dougall's 5F4 summation at unit argument.

    lhs = 5F4(a/2+1, a, -b, -c, -d; a/2, a+b+1, a+c+1, a+d+1; 1), summed
    exactly; rhs is the Pochhammer form of the Gamma quotient.  Requires
    a + b + c + d + 1 > 0, a != 0, and non-negative integers b, c, d.
    """
    a = Fraction(*as_ratio(a))
    if min(b, c, d) < 0:
        raise ValueError("b, c, d must be non-negative integers")
    if a + b + c + d + 1 <= 0:
        raise ValueError("requires a + b + c + d + 1 > 0")
    if not a:
        raise ValueError("a = 0 puts a zero in the denominator parameters")
    lhs = pfq_terminating(
        (a / 2 + 1, a, -b, -c, -d), (a / 2, a + b + 1, a + c + 1, a + d + 1)
    )
    rhs = (rising(a + 1, b) * rising(a + b + c + 1, d)) / (
        rising(a + c + 1, d) * rising(a + d + 1, b)
    )
    return lhs, rhs
