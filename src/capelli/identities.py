"""Exact verification of the falling-factorial derivative identity and the
two-variable chain that reduces it to Dougall's summation.

The headline identity expresses

    d/dx ( x_(N-i) x_(N-j) / x_(N) )

as an explicit double sum of rational functions; it is checked as an exact
equality in Q(x), no sampling involved.  Both sides live over x_(N)^2: the
left side is the quotient-rule numerator n'd - nd' (n = x_(N-i) x_(N-j),
d = x_(N)), the right side an integer numerator over M x_(N)^2, M the lcm
of the denominators of its constants (``hypergeom.derivative_coeffs``).
Two rational functions over one denominator are equal exactly when their
numerators are, so the check compares M (n'd - nd') with the right
numerator.  Both are built on the integer coefficient tuples of
``falling_coeffs(m)`` (x_(m)) with ``ratfunc._convolve``, and compared in
one integer pass, with no ``UniPoly``, gcd, normalization or ``Fraction``;
canonical rational functions are built only to render a failure.

The chain (psi_L, psi_R, psi_1, psi_2, F(s), H(s)) lives in two variables;
it is verified by exact evaluation on tensor grids larger than the degree
bounds left after clearing the denominators.  psi_1, psi_2, F(s) and F(s)'s
closed form take whole point lists, read each point with ``as_ratio`` and
return each value as an integer pair (num, den): the factors of x alone and
of y alone (with their pole checks) are built once per distinct coordinate
as integer numerators over one denominator, and each point costs integer
arithmetic only.  The checks compare pairs by cross-multiplication,
a d' = a' d, and build ``Fraction``s only to render a failing witness.
psi_1 and F(s) read x_(m) off ``falling_table`` and build each y entry
from ``pochhammer_num`` products as one integer pair, a table over its
lcm; psi_2 keeps the monomial x_(d) as a cross-check, read with its slope
by one integer Taylor pass, and it and F(0)'s closed form take prod (y+t)
and sum 1/(y+t) from ``harmonic_num``.  On the diagonal ``local_values``
reads psi_R as the value of the right numerator over M x_(N)^2 and
d/dx psi_L as the slope of x_(d) over (x-N+1) ... (x-N+j).  H(s) sums its
terms E1(q, s) as integer pairs from ``hypergeom.e1_num`` over one running
denominator; its 5F4 route reads the very-well-poised series on integer
pairs and never reads that sum.

Empty products are 1 and empty sums are 0 throughout; these conventions are
load-bearing at the q = 0, j = 0 and s = 0 boundaries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .bipoly import falling_coeffs
from .hypergeom import (_falling_basis_at, derivative_coeffs, e1_num, e_coeffs, falling,
                        falling_table, harmonic_num, over_lcm, pochhammer_num, well_poised_5f4)
from .ratfunc import (RatFunc, UniPoly, _convolve, _taylor, as_ratio, local_values, render_frac,
                      render_ratfunc, render_unipoly)


# -- the derivative identity, as integer numerators over x_(N)^2 ----------------------


def lhs_derivative_num(i: int, j: int, n: int) -> list[int]:
    """The quotient-rule numerator n'd - nd' of d/dx (n / d), n = x_(N-i)
    x_(N-j) and d = x_(N), as integer coefficients, lowest degree first:
    the left side is it over d^2 = x_(N)^2."""
    _check_ijn(i, j, n)
    num, den = _convolve(falling_coeffs(n - i), falling_coeffs(n - j)), falling_coeffs(n)
    num1, den1 = ([k * c for k, c in enumerate(f)][1:] for f in (num, den))
    return [a - b for a, b in zip(_convolve(num1, den), _convolve(num, den1))]


def rhs_derivative_num(i: int, j: int, n: int) -> tuple[list[int], int]:
    """The double sum over (q, p) as (total, M): the sum is total / (M x_(N)^2),
    total an integer coefficient list, lowest degree first.

    The (q, p) term is c(q, p) x_(p-i) x_(p-j) (x-p+q) / (x_(p+1) (x-N+q)_(q)),
    and ``derivative_coeffs`` gives M c(q, p) as integers.  The term's
    denominator divides x_(N)^2 with cofactor (x-p-1)_(N-p-1) x_(N-q).  Over
    that shared denominator the p-dependent part B_p = x_(p-i) x_(p-j)
    (x-p-1)_(N-p-1) is built once per p, and the sum over p for each q is an
    integer combination of the B_p (x-p+q).
    """
    _check_ijn(i, j, n)
    rows, m = derivative_coeffs(i, j, n)
    # B_p for each p the rows hold, max(i, j) <= p < N, with the tail
    # (x-p-1)_(N-p-1) = x_(N) / x_(p+1) built from p = N-1 down
    body, tail = {}, (1,)
    for p in range(n - 1, max(i, j) - 1, -1):
        body[p] = _convolve(_convolve(falling_coeffs(p - i), falling_coeffs(p - j)), tail)
        tail = _convolve(tail, (-p, 1))
    total = []
    for q, row in enumerate(rows):
        acc = [0]
        for p, const in row:
            acc = _plus(acc, _convolve(body[p], (const * (q - p), const)))
        total = _plus(total, _convolve(acc, falling_coeffs(n - q)))
    return total, m


def _plus(a, b) -> list[int]:
    return [u + v for u, v in zip_longest(a, b, fillvalue=0)]


def _check_ijn(i: int, j: int, n: int) -> None:
    if min(i, j, n) < 0 or i + j > n:
        raise ValueError(f"need 0 <= i, j and i + j <= N; got ({i}, {j}, {n})")


def derivative_identity_check(i: int, j: int, n: int) -> tuple[bool, str, str]:
    """Both numerators over M x_(N)^2, compared on integer coefficients:
    equal numerators are equal rational functions.  Only a failure builds
    polynomials, to render each side in canonical form."""
    lhs, (total, m) = lhs_derivative_num(i, j, n), rhs_derivative_num(i, j, n)
    if not any(m * a - b for a, b in zip_longest(lhs, total, fillvalue=0)):
        return True, "-", "-"
    x_n = UniPoly(falling_coeffs(n))
    return (False, render_ratfunc(RatFunc(UniPoly(lhs), x_n * x_n), "x"),
            render_ratfunc(RatFunc(UniPoly(total), x_n * x_n.scale(m)), "x"))


def logderiv_check(n: int) -> tuple[bool, str, str]:
    """d/dx x_(N) = sum_{t=1}^{N} (-1)^(t+1)/t * N_(t) x_(N-t), as polynomials."""
    lhs, rhs = UniPoly(falling_coeffs(n)).derivative(), UniPoly.zero()
    for t in range(1, n + 1):
        c = Fraction((-1) ** (t + 1), t) * falling(n, t)
        rhs = rhs + UniPoly(falling_coeffs(n - t)).scale(c)
    if lhs == rhs:
        return True, "-", "-"
    return False, render_unipoly(lhs, "x"), render_unipoly(rhs, "x")


# -- the two-variable chain -----------------------------------------------------------


class SamplePoleError(ArithmeticError):
    """A sample point hit a vanishing factor; carries the factor description."""

    def __init__(self, factor: str):
        self.factor = factor
        super().__init__(f"sample point lies on a pole of {factor}")


def _nonzero(value, factor: str):
    if not value:
        raise SamplePoleError(factor)
    return value


def e_term(q: int, r: int, x: Fraction, y: Fraction, d: int, j: int) -> Fraction:
    """One summand E(q, r) of psi_1 at an exact point."""
    num = (
        Fraction((-1) ** (r + q + 1))
        * falling(r, q)
        * falling(x - y - d, q)
        * falling(j, q)
        * falling(d - j, r - q)
        * falling(x, d - r)
        * (y + r + q)
        * falling(y + r - 1, r - q)
    )
    den = (
        r
        * math.factorial(q)
        * _nonzero(falling(y + r + j, j + r), f"(y+{r}+{j})_({j + r})")
        * _nonzero(y + q, f"y+{q}")
    )
    return num / den


def psi1_at(points: Sequence[tuple[Fraction, Fraction]], d: int, j: int) -> list[tuple[int, int]]:
    """psi_1 = sum of E(q, r) at each point, as an integer pair (num, den),
    den > 0.  E(q, r) factors as K(q, r) x_(d-r) Y(q, r, y) (x-y-d)_(q):
    K constant (``e_coeffs``), x_(d-r) per x, and K Y per y = p/q as one
    integer pair.  The pole checks are e_term's, in its order: row by row
    (q), entry by entry (r), (y+r+j)_(j+r) and then y+q; an empty row
    checks nothing."""
    spans, consts = e_coeffs(d, j)

    def x_rows(p, q):
        # x_(d-r) over q**d, at index r - 1
        table = falling_table(p, q, d)
        fall = [table[d - r][0] * q**r for r in range(1, d + 1)]
        return [fall[rs.start - 1:rs.stop - 1] for rs in spans], q**d

    def y_rows(u, v):
        # K (y+r+q) (y+r-1)_(r-q) / ((y+r+j)_(j+r) (y+q)) at y = u/v, the powers of v cancelled
        return over_lcm([[(kn * (u + (r + q) * v)
                           * pochhammer_num(u + (r - 1) * v, v, r - q, -1) * v ** (j + q),
                           kd
                           * _nonzero(pochhammer_num(u + (r + j) * v, v, j + r, -1),
                                      f"(y+{r}+{j})_({j + r})")
                           * _nonzero(u + q * v, f"y+{q}")) for r, (kn, kd) in zip(rs, ks)]
                         for q, (rs, ks) in enumerate(zip(spans, consts))])

    return _falling_basis_at(points, x_rows, y_rows, d)


def psi2_at(points: Sequence[tuple[Fraction, Fraction]], d: int, j: int) -> list[tuple[int, int]]:
    """psi_2, the Leibniz expansion of d/dx psi_L with the pole variable
    renamed to y, as an integer pair (num, den), den > 0: x_(d) and its
    slope per x from one integer Taylor pass over its monomial
    coefficients; prod (y+t) and sum 1/(y+t) per y."""
    x_d = UniPoly(falling_coeffs(d))
    xs, ys, out = {}, {}, []
    for x, y in points:
        (px, qx), (p, q) = as_ratio(x), as_ratio(y)
        if (px, qx) not in xs:
            xs[px, qx] = _taylor(x_d, px, qx)
        if (p, q) not in ys:
            # q**j prod (y+t), and prod sum 1/(y+t); prod = 0 means q = 1 and y = -t
            prod, harm = harmonic_num(p, q, j)
            ys[p, q] = _nonzero(prod, f"y+{-p}") * q**j, harm * q**j, prod * prod
        ((fall, slope, _), xden), (u, v, yden) = xs[px, qx], ys[p, q]
        out.append((slope * u - fall * v, xden * yden))
    return out


def chain_bound(i: int, j: int, n: int) -> int:
    """Degree bound for the psi_1 = psi_2 comparison.

    After clearing the y-only denominators, both sides are polynomials with
    deg_x <= d and deg_y <= 2(d + j + 1); the bound is the max of the two
    plus margin, and a (bound+1) x (bound+1) tensor grid of exact equalities
    then settles the identity.
    """
    d = n - i
    return max(d + 2, 2 * (d + j + 2))


def chain_grid(i: int, j: int, n: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic tensor grid: x runs over integers above N (clear of
    every x_(p+1) factor); y runs over thirds, never an integer, so no
    y + c factor vanishes."""
    bound = chain_bound(i, j, n)
    xs = [Fraction(n + 1 + u) for u in range(bound + 1)]
    ys = [Fraction(1, 3) + v for v in range(bound + 1)]
    return [(xv, yv) for xv in xs for yv in ys]


def psi_chain_check(i: int, j: int, n: int) -> tuple[bool, str, str, int, int]:
    """The full chain on ``chain_grid``:

    psi_1 = psi_2 on the two-variable grid, and on the diagonal y = x - N,
    psi_R(x) = psi_1(x, x-N) and d/dx psi_L(x) = psi_2(x, x-N).  The outcome
    ends with the grid's size and degree bound; a failing one names its
    witness point after the left side.
    """
    _check_ijn(i, j, n)
    d = n - i
    pts = chain_grid(i, j, n)
    grid = len(pts), chain_bound(i, j, n)
    miss = _mismatch(pts, psi1_at(pts, d, j), psi2_at(pts, d, j), _at)
    if miss:
        return *miss, *grid
    # psi_R = total / (M x_(N)^2) and psi_L = x_(d) / ((x-N+1) ... (x-N+j)),
    # read at each diagonal x by local_values, one Fraction each; every
    # x >= N + 1 is a regular point of both denominators
    total, m = rhs_derivative_num(i, j, n)
    x_n = UniPoly(falling_coeffs(n))
    reads = ((UniPoly(total), x_n * x_n.scale(m), "value"),
             (UniPoly(falling_coeffs(d)), UniPoly.falling(UniPoly((j - n, 1)), j)[-1], "slope"))
    xs = sorted({x for x, _ in pts})
    diag = [(x, x - n) for x in xs]
    # at each x, psi_R against psi_1 and then d/dx psi_L against psi_2
    lhs = [as_ratio(local_values([f], g, x, kind)[0]) for x in xs for f, g, kind in reads]
    rhs = [v for pair in zip(psi1_at(diag, d, j), psi2_at(diag, d, j)) for v in pair]
    miss = _mismatch([x for x in xs for _ in reads], lhs, rhs, lambda x: f"x={render_frac(x)}")
    return (*miss, *grid) if miss else (True, "-", "-", *grid)


def _mismatch(points, lhs, rhs, where):
    """``(False, a, b)`` at the first point where the pairs (num, den) of
    ``lhs`` and ``rhs`` differ as fractions, compared by cross-multiplication:
    each side rendered from one ``Fraction``, the left one followed by
    ``at where(point)``.  None when every pair agrees."""
    for pt, (a, b), (c, d) in zip(points, lhs, rhs):
        if a * d != c * b:
            return (False, f"{render_frac(Fraction(a, b))} at {where(pt)}",
                    render_frac(Fraction(c, d)))
    return None


def _at(point) -> str:
    return f"({render_frac(point[0])},{render_frac(point[1])})"


# -- F(s) and H(s) ---------------------------------------------------------------------


def f_sum_at(points: Sequence[tuple[Fraction, Fraction]], s: int, j: int,
             l: int) -> list[tuple[int, int]]:
    """The defining sum of F(s) at each point, as an integer pair (num,
    den), den > 0; the q = 0 term exists only for s >= 1.  Term q is
    K(q) X_q(x) Y_q(y) (x-y)_(q), X_q = (x+j+l)_(j+l-q-s)."""
    qs = range(j + 1)

    def x_rows(p, q):
        table = falling_table(p + (j + l) * q, q, j + l - s)
        return [[table[j + l - t - s][0] * q ** (t + s)] for t in qs], q ** (j + l)

    def y_rows(p, q):
        # K(t) Y_t(y) at y = p/q, the powers of q cancelled; no q = 0 term at s = 0
        return over_lcm([[] if t < (s == 0) else
                         [(math.comb(j, t) * math.comb(l, s) * math.factorial(t + s - 1)
                           * (p + (2 * t + s) * q) * pochhammer_num(p + j * q, q, j - t, -1) * q**t,
                           math.factorial(j + l)
                           * _nonzero(pochhammer_num(p + (t + s + j) * q, q, j + 1, -1),
                                      f"(y+{t + s + j})_({j + 1})"))]
                         for t in qs])

    return _falling_basis_at(points, x_rows, y_rows, 0)


def f_closed(s: int, j: int, l: int, xs: Sequence[Fraction],
             ys: Sequence[Fraction]) -> list[tuple[int, int]]:
    """Closed forms at each (x, y), x in ``xs`` and then y in ``ys``, as
    integer pairs (num, den), den != 0: a falling-factorial quotient in x
    alone for 1 <= s <= l, one ``pochhammer_num`` pair per x, and for s = 0
    a harmonic difference times an x_(j+l)-type product, summed on integers
    with the factors of x built once per x and those of y once per y; at
    s = 0 a vanishing factor raises, y+t before x+t at each t."""
    if s >= 1:
        c = s * math.factorial(l - s) * math.perm(j + l, j)
        per_x = [(pochhammer_num(px + (j + l) * qx, qx, l - s, -1)
                  * pochhammer_num(px + j * qx, qx, j, -1), c * qx ** (j + l - s))
                 for px, qx in map(as_ratio, xs)]
        return [v for v in per_x for _ in ys]
    ys = [(*as_ratio(y), *harmonic_num(*as_ratio(y), j)) for y in ys]
    out = []
    for px, qx in map(as_ratio, xs):
        ux, hx = harmonic_num(px, qx, j)
        num = pochhammer_num(px + (j + l) * qx, qx, j + l, -1)
        den = qx ** (j + l) * math.factorial(j + l)
        for py, qy, uy, hy in ys:
            # the first vanishing factor, y+t before x+t at each t: y+t at t = -py, x+t at t = -px
            if not uy and (ux or py >= px):
                raise SamplePoleError(f"y+{-py}")
            _nonzero(ux, f"x+{-px}")
            # sum 1/(y+t) - sum 1/(x+t) = hy/uy - hx/ux
            out.append((num * (hy * ux - hx * uy), den * uy * ux))
    return out


def f_grid(j: int, l: int) -> tuple[list[Fraction], list[Fraction]]:
    """Pole-free samples with x - y - j > 0; sizes exceed the cleared degree
    bounds (x-degree <= j + l, y-degree <= 3j + 4 with margin)."""
    bx = j + l + 3
    by = 3 * j + 6
    ys = [Fraction(1, 3) + v for v in range(by + 1)]
    x0 = int(max(ys)) + j + 2
    xs = [Fraction(x0 + u) for u in range(bx + 1)]
    return xs, ys


def f_closed_form_check(j: int, l: int) -> tuple[bool, str, str, int]:
    """Defining sum vs closed form on ``f_grid`` for every integer s in
    [0, l].  The outcome ends with the grid's size."""
    if j < 0 or l < 0:
        raise ValueError("j and l must be non-negative")
    xs, ys = f_grid(j, l)
    pts = [(x, y) for x in xs for y in ys]
    for s in range(l + 1):
        miss = _mismatch(pts, f_sum_at(pts, s, j, l), f_closed(s, j, l, xs, ys),
                         lambda pt: f"s={s},{_at(pt)}")
        if miss:
            return *miss, len(pts)
    return True, "-", "-", len(pts)


def h_sum(s: int, j: int, x: Fraction, y: Fraction) -> Fraction:
    """H(s) = sum over q of E1(q, s) at (x, y), the q = 0 term only for
    s >= 1: each term an integer pair from ``e1_num``, summed over one
    running denominator, and one ``Fraction`` per call.  A vanishing factor
    raises, in q order, the y factor before the x factor at each q."""
    num, den = 0, 1
    for q in range(s == 0, j + 1):
        n, d = _e1(q, s, j, x, y)
        num, den = num * d + n * den, den * d
    return Fraction(num, den)


def _e1(q: int, s: int, j: int, x, y) -> tuple[int, int]:
    """E1(q, s) at (x, y) as (num, den); the y factor's pole is checked
    before the x factor's."""
    n, yden, xden = e1_num(q, s, j, x, y)
    return n, (_nonzero(yden, f"(y+{q + s + j})_({j + 1})")
               * _nonzero(xden, f"(x+{q + s})_({q + s})"))


def h_hypergeometric(s: int, j: int, x: Fraction, y: Fraction) -> Fraction:
    """H(s) through its very-well-poised 5F4 representation (s >= 1); only
    the first j + 1 terms of the series are nonzero.  E1(0, s) times the
    very-well-poised series at a = y + s, b = -j, c = s and d = y - x, its
    parameters integer pairs built from x = px/qx and y = py/qy."""
    if s < 1:
        raise ValueError("the 5F4 form is used for s >= 1")
    (px, qx), (py, qy) = as_ratio(x), as_ratio(y)
    n, d = _e1(0, s, j, x, y)
    num, den = well_poised_5f4((py + s * qy, qy), (-j, 1), (s, 1), (py * qx - px * qy, qx * qy))
    return Fraction(n * num, d * den)


def h_function_check(j: int, s: int, x: Fraction, y: Fraction) -> tuple[bool, str, str]:
    """H(s) = 1/s for integer s >= 1 (also matching the 5F4 route), and
    H(0) = sum 1/(y+t) - sum 1/(x+t); requires x, y, x - y - j > 0."""
    x, y = Fraction(*as_ratio(x)), Fraction(*as_ratio(y))
    if not (x > 0 and y > 0 and x - y - j > 0):
        raise ValueError("need x > 0, y > 0 and x - y - j > 0")
    got = h_sum(s, j, x, y)
    if s >= 1:
        expected = Fraction(1, s)
        via_5f4 = h_hypergeometric(s, j, x, y)
        return (got == expected == via_5f4, f"{render_frac(got)} at s={s}",
                f"{render_frac(expected)} (5F4: {render_frac(via_5f4)})")
    # sum 1/(y+t) - sum 1/(x+t) = hy/uy - hx/ux, uy and ux > 0
    (uy, hy), (ux, hx) = harmonic_num(*as_ratio(y), j), harmonic_num(*as_ratio(x), j)
    expected = Fraction(hy * ux - hx * uy, uy * ux)
    return got == expected, f"{render_frac(got)} at s=0", render_frac(expected)
