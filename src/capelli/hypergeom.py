"""Terminating generalized hypergeometric series in exact rational arithmetic,
and the integer kernels of the identity-e chain.

A series pFq(a1..ap; b1..bq; z) terminates when some numerator parameter is
a non-positive integer; only such series are evaluated here, so every value
is exact.  Gamma functions never appear: the right-hand side of Dougall's
very-well-poised 5F4 summation is pre-reduced to the Pochhammer quotient

    (a+1)_(b) (a+b+c+1)_(d) / ( (a+c+1)_(d) (a+d+1)_(b) )    (rising factorials)

which is valid verbatim for non-negative integers b, c, d.  Evaluation
runs on integers: ``pfq_ratio`` sums a series whose parameters are integer
pairs (p, q), reduced or not, and returns one integer pair; the
``Fraction`` reader ``pfq_terminating`` splits its parameters with
``ratfunc.as_ratio``, and ``well_poised_5f4`` builds the very-well-poised
parameters that both Dougall's check and H(s)'s series route read.
``dougall_check`` builds its parameters as pairs from a = p/q and makes
only its two result ``Fraction``s.

The identity-e chain takes its integer parts from here: the x and y tables
(``falling_table``, ``harmonic_num``, ``pochhammer_num`` products over one
lcm with ``over_lcm``), the falling-basis Horner kernel that returns each
point as an integer pair (``_falling_basis_at``), the constants of the
derivative identity's double sum (``derivative_coeffs``) and of psi_1's
terms (``e_coeffs``), and H(s)'s terms E1(q, s) (``e1_num``).
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


def e_coeffs(d: int, j: int) -> tuple[list[range], list[list[tuple[int, int]]]]:
    """psi_1's ranges and constants: (spans, rows), spans[q] the r of row q,
    max(1, q) <= r <= d-j+q for q = 0..j, and rows[q] the integer pairs
    (num, den) of K(q, r) = (-1)^(r+q+1) r_(q) j_(q) (d-j)_(r-q) / (r q!),
    each falling factorial of an integer from ``pochhammer_num``."""
    spans = [range(max(1, q), d - j + q + 1) for q in range(j + 1)]
    return spans, [[((-1) ** (r + q + 1) * pochhammer_num(r, 1, q, -1) * pochhammer_num(j, 1, q, -1)
                      * pochhammer_num(d - j, 1, r - q, -1), r * math.factorial(q)) for r in rs]
                    for q, rs in enumerate(spans)]


def e1_num(q: int, s: int, j: int, x, y) -> tuple[int, int, int]:
    """E1(q, s) of H(s) at x = px/qx, y = py/qy as integers (num, yden, xden),
    E1 = num / (yden xden); yden = s! qy^(j+1) (y+q+s+j)_(j+1) and xden =
    qx^(q+s) (x+q+s)_(q+s) vanish with their factors, and the powers of
    qx and qy cancel.

    E1(q, s) = (q+s-1)!/s! binom(j, q) (y+2q+s) (y+j)_(j-q) (x-y)_(q)
    (x+j+s)_(s) / ((y+q+s+j)_(j+1) (x+q+s)_(q+s)), q + s >= 1.
    """
    (px, qx), (py, qy) = as_ratio(x), as_ratio(y)
    return (math.factorial(q + s - 1) * math.comb(j, q) * (py + (2 * q + s) * qy)
            * pochhammer_num(py + j * qy, qy, j - q, -1)
            * pochhammer_num(px * qy - py * qx, qx * qy, q, -1)
            * pochhammer_num(px + (j + s) * qx, qx, s, -1),
            math.factorial(s) * pochhammer_num(py + (q + s + j) * qy, qy, j + 1, -1),
            pochhammer_num(px + (q + s) * qx, qx, q + s, -1))


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
    """Exact finite sum of the terminating pFq(numerator; denominator; argument):
    each parameter read with ``as_ratio``, summed by ``pfq_ratio``."""
    return Fraction(*pfq_ratio([as_ratio(a) for a in numerator],
                               [as_ratio(b) for b in denominator], as_ratio(argument)))


def pfq_ratio(numerator, denominator, z=(1, 1)) -> tuple[int, int]:
    """The terminating pFq as an integer pair (num, den), den != 0, with every
    parameter and the argument ``z`` an integer pair (p, q), q > 0, reduced
    or not: a parameter is an integer when q divides p.

    The sum stops at the smallest |a| over non-positive-integer numerator
    parameters; a denominator parameter that vanishes before then is an error.
    1 + r_0 (1 + r_1 (1 + ...)), r_n the term ratio, is summed inside out.
    """
    stops = [-p // q for p, q in numerator if p <= 0 and not p % q]
    if not stops:
        raise ValueError("series does not terminate: no non-positive integer upstairs")
    n_max = min(stops)
    for p, q in denominator:
        if p <= 0 and not p % q and -p // q < n_max:
            raise ValueError(f"denominator parameter {p // q} vanishes within the summation range")
    zp, zq = z
    num = den = 1
    for n in range(n_max - 1, -1, -1):
        u, v = zp, zq * (n + 1)
        for p, q in numerator:
            u, v = u * (p + n * q), v * q
        for p, q in denominator:
            u, v = u * q, v * (p + n * q)
        num, den = v * den + u * num, v * den
    return num, den


def well_poised_5f4(a, b, c, d) -> tuple[int, int]:
    """The very-well-poised 5F4(a/2+1, a, b, c, d; a/2, a-b+1, a-c+1,
    a-d+1; 1) of Dougall's summation as an integer pair, its parameters
    integer pairs as ``pfq_ratio`` reads them."""
    p, q = a
    return pfq_ratio(((p + 2 * q, 2 * q), a, b, c, d),
                     ((p, 2 * q), *((p * v - u * q + q * v, q * v) for u, v in (b, c, d))))


def _falling_basis_at(points, x_rows, y_rows, shift: int) -> list[tuple[int, int]]:
    """sum_q (x-y-shift)_(q) <X_q, Y_q> at each point (x, y), as an integer
    pair (num, den), den > 0.  The rows are built at the first point with a
    given x = p/q by ``x_rows(p, q)``, or with a given y = p/q by
    ``y_rows(p, q)``; each returns (integer rows, one positive denominator).
    Per point Horner's rule runs on integers; no ``Fraction`` is built."""
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
        out.append((acc, xden * yden * scale // den))
    return out


def dougall_check(a, b: int, c: int, d: int) -> tuple[Fraction, Fraction]:
    """Both sides (lhs, rhs) of Dougall's 5F4 summation at unit argument.

    lhs = 5F4(a/2+1, a, -b, -c, -d; a/2, a+b+1, a+c+1, a+d+1; 1), summed
    exactly by ``well_poised_5f4`` on integer pairs built from a = p/q; rhs
    is the Pochhammer form of the Gamma quotient (the powers of q cancel).
    Requires a + b + c + d + 1 > 0, non-negative integers b, c, d, and a
    not 0 or a negative integer: there a/2 vanishes, a/2 + 1 stops the
    series early, or a denominator parameter vanishes.
    """
    p, q = as_ratio(a)
    if min(b, c, d) < 0:
        raise ValueError("b, c, d must be non-negative integers")
    if p + (b + c + d + 1) * q <= 0:
        raise ValueError("requires a + b + c + d + 1 > 0")
    if q == 1 and p <= 0:
        raise ValueError("a = 0 or a negative integer breaks the series")
    lhs = well_poised_5f4((p, q), (-b, 1), (-c, 1), (-d, 1))
    rhs = (pochhammer_num(p + q, q, b, 1) * pochhammer_num(p + (b + c + 1) * q, q, d, 1),
           pochhammer_num(p + (c + 1) * q, q, d, 1) * pochhammer_num(p + (d + 1) * q, q, b, 1))
    return Fraction(*lhs), Fraction(*rhs)
