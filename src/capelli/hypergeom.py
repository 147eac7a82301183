"""Terminating generalized hypergeometric series in exact rational arithmetic.

A series pFq(a1..ap; b1..bq; z) terminates when some numerator parameter is
a non-positive integer; only such series are evaluated here, so every value
is an exact ``Fraction``.  Gamma functions never appear: the right-hand side
of Dougall's very-well-poised 5F4 summation is pre-reduced to the Pochhammer
quotient

    (a+1)_(b) (a+b+c+1)_(d) / ( (a+c+1)_(d) (a+d+1)_(b) )    (rising factorials)

which is valid verbatim for non-negative integers b, c, d.  Evaluation
runs on integers: a = p/q is read with ``ratfunc.as_ratio``, and each result
is one ``Fraction``.  The same integer kernels build the x and y tables
of the identity-e chain, and ``derivative_coeffs`` gives the constants of
the derivative identity's double sum as integers over one denominator.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .ratfunc import as_ratio


def falling(a, n: int) -> Fraction:
    """a (a-1) ... (a-n+1); empty product is 1.  ``a`` is an ``int`` or a
    ``Fraction``; anything else raises ``TypeError``."""
    p, q = as_ratio(a)
    return Fraction(pochhammer_num(p, q, n, -1), q**n) if n > 0 else Fraction(1)


def pochhammer_num(p: int, q: int, n: int, step: int) -> int:
    """prod_{t<n} (p + step*t*q), the Pochhammer product at p/q times q**n."""
    num = 1
    for t in range(n):
        num *= p + step * t * q
    return num


def harmonic_num(p: int, q: int, n: int) -> tuple[int, int]:
    """(prod, harm): prod = prod_{t=1..n} (p + t*q), and harm = q times the
    sum over t of prod without its t-th factor, built by the product rule
    with no division.  At y = p/q, prod / q**n = prod (y+t) and, when prod
    is not 0, harm / prod = sum 1/(y+t)."""
    prod, harm = 1, 0
    for t in range(1, n + 1):
        harm, prod = harm * (p + t * q) + q * prod, prod * (p + t * q)
    return prod, harm


def over_lcm(rows) -> tuple[list[list[int]], int]:
    """Rows of integer pairs (num, den), den != 0, as integer rows over one
    positive denominator, the lcm of every den."""
    den = math.lcm(*(d for row in rows for _, d in row))
    return [[n * (den // d) for n, d in row] for row in rows], den


def derivative_coeffs(i: int, j: int, n: int) -> tuple[list[list[tuple[int, int]]], int]:
    """The constants c(q, p) of the falling-factorial derivative identity's
    double sum as integers over one denominator: (rows, M), row q holding
    the pairs (p, M c(q, p)) for i+j-q <= p <= min(N-q, N-1), for
    q = 0..min(i, j); larger q have the factor i_(q) j_(q) = 0.

    c(q, p) = (-1)^(N+p+q+1) (N-p)_(q) i_(q) j_(q) (N-i-j)_(N-p-q) / ((N-p) q!),
    each falling factorial of an integer from ``pochhammer_num``, and M is
    the lcm of the (N-p) q!.
    """
    spans = [range(i + j - q, min(n - q, n - 1) + 1) for q in range(min(i, j) + 1)]
    rows, m = over_lcm([[((-1) ** (n + p + q + 1) * pochhammer_num(n - p, 1, q, -1)
                          * pochhammer_num(i, 1, q, -1) * pochhammer_num(j, 1, q, -1)
                          * pochhammer_num(n - i - j, 1, n - p - q, -1),
                          (n - p) * math.factorial(q)) for p in ps] for q, ps in enumerate(spans)])
    return [list(zip(ps, row)) for ps, row in zip(spans, rows)], m


def falling_table(p: int, q: int, d: int) -> list[tuple[int, int]]:
    """The integer pairs q^m (x_(m)(p/q), x_(m)'(p/q)) for m = 0..d.

    By the recurrence x_(m) = x_(m-1) * (x - m + 1) and its product rule.
    """
    val, slope = 1, 0
    out = [(val, slope)]
    for m in range(d):
        shift = p - m * q
        val, slope = val * shift, slope * shift + q * val
        out.append((val, slope))
    return out


def pfq_terminating(numerator: Sequence, denominator: Sequence, argument=1) -> Fraction:
    """Exact finite sum of the terminating pFq(numerator; denominator; argument).

    The sum stops at the smallest |a| over non-positive-integer numerator
    parameters; a denominator parameter that vanishes before then is an error.
    1 + r_0 (1 + r_1 (1 + ...)), r_n the term ratio, is summed inside out.
    """
    numerator = [as_ratio(a) for a in numerator]
    denominator = [as_ratio(b) for b in denominator]
    zp, zq = as_ratio(argument)
    stops = [-p for p, q in numerator if q == 1 and p <= 0]
    if not stops:
        raise ValueError("series does not terminate: no non-positive integer upstairs")
    n_max = min(stops)
    for p, q in denominator:
        if q == 1 and p <= 0 and -p < n_max:
            raise ValueError(f"denominator parameter {p} vanishes within the summation range")
    num = den = 1
    for n in range(n_max - 1, -1, -1):
        u, v = zp, zq * (n + 1)
        for p, q in numerator:
            u, v = u * (p + n * q), v * q
        for p, q in denominator:
            u, v = u * q, v * (p + n * q)
        num, den = v * den + u * num, v * den
    return Fraction(num, den)


def _falling_basis_at(points, x_rows, y_rows, shift: int) -> list[Fraction]:
    """sum_q (x-y-shift)_(q) <X_q, Y_q> at each point (x, y).  The rows are
    built at the first point with a given x = p/q by ``x_rows(p, q)``, or
    with a given y = p/q by ``y_rows(p, q)``; each returns (integer rows,
    one denominator), so no ``Fraction`` is built per x or per y.  Per
    point Horner's rule runs on integers and builds one ``Fraction``."""
    xs, ys, out = {}, {}, []
    for x, y in points:
        kx, ky = as_ratio(x), as_ratio(y)
        if kx not in xs:
            xs[kx] = x_rows(*kx)
        if ky not in ys:
            ys[ky] = y_rows(*ky)
        (px, qx), (py, qy), (xrows, xden), (yrows, yden) = kx, ky, xs[kx], ys[ky]
        den = qx * qy
        w, acc, scale = px * qy - py * qx - shift * den, 0, 1
        for q in range(len(yrows) - 1, -1, -1):
            acc = acc * (w - q * den) + scale * sum(map(operator.mul, yrows[q], xrows[q]))
            scale *= den
        out.append(Fraction(acc, xden * yden * scale // den))
    return out


def dougall_check(a, b: int, c: int, d: int) -> tuple[Fraction, Fraction]:
    """Both sides (lhs, rhs) of Dougall's 5F4 summation at unit argument.

    lhs = 5F4(a/2+1, a, -b, -c, -d; a/2, a+b+1, a+c+1, a+d+1; 1), summed
    exactly; rhs is the Pochhammer form of the Gamma quotient (the powers
    of q in a = p/q cancel).  Requires a + b + c + d + 1 > 0, a != 0, and
    non-negative integers b, c, d.
    """
    p, q = as_ratio(a)
    if min(b, c, d) < 0:
        raise ValueError("b, c, d must be non-negative integers")
    if p + (b + c + d + 1) * q <= 0:
        raise ValueError("requires a + b + c + d + 1 > 0")
    if not p:
        raise ValueError("a = 0 puts a zero in the denominator parameters")
    a = Fraction(p, q)
    lhs = pfq_terminating(
        (a / 2 + 1, a, -b, -c, -d), (a / 2, a + b + 1, a + c + 1, a + d + 1)
    )
    rhs = Fraction(
        pochhammer_num(p + q, q, b, 1) * pochhammer_num(p + (b + c + 1) * q, q, d, 1),
        pochhammer_num(p + (c + 1) * q, q, d, 1) * pochhammer_num(p + (d + 1) * q, q, b, 1),
    )
    return lhs, rhs
