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
numerator on integer coefficients, with no gcd, normalization or
``Fraction``; it builds canonical rational functions only to render a
failure.  Each x_(m) is ``UniPoly(falling_coeffs(m))``.

The chain (psi_L, psi_R, psi_1, psi_2, F(s), H(s)) lives in two variables;
it is verified by exact evaluation on tensor grids larger than the degree
bounds left after clearing the denominators.  psi_1, psi_2 and F(s) take a
whole point list and read each point with ``as_ratio``: the factors of x
alone and of y alone (with their pole checks) are built once per distinct
coordinate as integer numerators over one denominator, and each point
costs integer arithmetic and one ``Fraction``.  F(s)'s closed form takes
one x and a list of y, and builds the factors of x once.  On the diagonal
``local_values`` reads psi_R as the value of the right numerator over
M x_(N)^2 and d/dx psi_L as the slope of x_(d) over (x-N+1) ... (x-N+j).
psi_1 and F(s) read x_(m) off ``falling_table`` and build each y entry
from ``pochhammer_num`` products as one integer pair, a table over its
lcm; psi_2 keeps the monomial x_(d) as a cross-check, and it and F(0)'s
closed form take prod (y+t) and sum 1/(y+t) from ``harmonic_num``.

Empty products are 1 and empty sums are 0 throughout; these conventions are
load-bearing at the q = 0, j = 0 and s = 0 boundaries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .bipoly import falling_coeffs
from .hypergeom import (_falling_basis_at, derivative_coeffs, falling, falling_table,
                        harmonic_num, over_lcm, pfq_terminating, pochhammer_num)
from .ratfunc import (RatFunc, UniPoly, as_ratio, common_denominator, local_values,
                      render_frac, render_ratfunc, render_unipoly)

X = UniPoly.x()


# -- the derivative identity, as integer numerators over x_(N)^2 ----------------------


def lhs_derivative_num(i: int, j: int, n: int) -> UniPoly:
    """The quotient-rule numerator n'd - nd' of d/dx (n / d), n = x_(N-i)
    x_(N-j) and d = x_(N): the left side is it over d^2 = x_(N)^2."""
    _check_ijn(i, j, n)
    num = UniPoly(falling_coeffs(n - i)) * UniPoly(falling_coeffs(n - j))
    den = UniPoly(falling_coeffs(n))
    return num.derivative() * den - num * den.derivative()


def rhs_derivative_num(i: int, j: int, n: int) -> tuple[UniPoly, int]:
    """The double sum over (q, p) as (total, M): the sum is total / (M x_(N)^2),
    and total has integer coefficients.

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
    body, tail = {}, UniPoly.one()
    for p in range(n - 1, max(i, j) - 1, -1):
        body[p] = UniPoly(falling_coeffs(p - i)) * UniPoly(falling_coeffs(p - j)) * tail
        tail = tail * UniPoly((-p, 1))
    total = UniPoly.zero()
    for q, row in enumerate(rows):
        acc = UniPoly.zero()
        for p, const in row:
            acc = acc + body[p] * UniPoly((const * (q - p), const))
        total = total + acc * UniPoly(falling_coeffs(n - q))
    return total, m


def _check_ijn(i: int, j: int, n: int) -> None:
    if min(i, j, n) < 0 or i + j > n:
        raise ValueError(f"need 0 <= i, j and i + j <= N; got ({i}, {j}, {n})")


def _outcome(lhs, rhs, render) -> tuple[bool, str, str]:
    """``(True, "-", "-")``, or both sides rendered in x when they differ."""
    return (True, "-", "-") if lhs == rhs else (False, render(lhs, "x"), render(rhs, "x"))


def derivative_identity_check(i: int, j: int, n: int) -> tuple[bool, str, str]:
    """Both numerators over M x_(N)^2, compared: equal numerators are equal
    rational functions.  A failure renders each side in canonical form."""
    lhs, (total, m) = lhs_derivative_num(i, j, n), rhs_derivative_num(i, j, n)
    x_n = UniPoly(falling_coeffs(n))
    return _outcome(lhs.scale(m), total,
                    lambda num, var: render_ratfunc(RatFunc(num, x_n * x_n.scale(m)), var))


def logderiv_check(n: int) -> tuple[bool, str, str]:
    """d/dx x_(N) = sum_{t=1}^{N} (-1)^(t+1)/t * N_(t) x_(N-t), as polynomials."""
    rhs = UniPoly.zero()
    for t in range(1, n + 1):
        c = Fraction((-1) ** (t + 1), t) * falling(n, t)
        rhs = rhs + UniPoly(falling_coeffs(n - t)).scale(c)
    return _outcome(UniPoly(falling_coeffs(n)).derivative(), rhs, render_unipoly)


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


def psi1_at(points: Sequence[tuple[Fraction, Fraction]], d: int, j: int) -> list[Fraction]:
    """psi_1 = sum of E(q, r) at each point.  E(q, r) factors as
    K(q, r) x_(d-r) Y(q, r, y) (x-y-d)_(q): K constant, x_(d-r) per x, and
    K Y per y = p/q as one integer pair.  The pole checks are e_term's, in
    its order: row by row (q), entry by entry (r), (y+r+j)_(j+r) and then
    y+q; an empty row checks nothing."""
    spans = [range(max(1, q), d - j + q + 1) for q in range(j + 1)]
    consts = [
        [(-1) ** (r + q + 1) * falling(r, q) * falling(j, q) * falling(d - j, r - q)
         / (r * math.factorial(q)) for r in rs]
        for q, rs in enumerate(spans)
    ]

    def x_rows(p, q):
        # x_(d-r) over q**d, at index r - 1
        table = falling_table(p, q, d)
        fall = [table[d - r][0] * q**r for r in range(1, d + 1)]
        return [fall[rs.start - 1:rs.stop - 1] for rs in spans], q**d

    def y_rows(u, v):
        # K (y+r+q) (y+r-1)_(r-q) / ((y+r+j)_(j+r) (y+q)) at y = u/v, the powers of v cancelled
        return over_lcm([[(k.numerator * (u + (r + q) * v)
                           * pochhammer_num(u + (r - 1) * v, v, r - q, -1) * v ** (j + q),
                           k.denominator
                           * _nonzero(pochhammer_num(u + (r + j) * v, v, j + r, -1),
                                      f"(y+{r}+{j})_({j + r})")
                           * _nonzero(u + q * v, f"y+{q}")) for r, k in zip(rs, ks)]
                         for q, (rs, ks) in enumerate(zip(spans, consts))])

    return _falling_basis_at(points, x_rows, y_rows, d)


def psi2_at(points: Sequence[tuple[Fraction, Fraction]], d: int, j: int) -> list[Fraction]:
    """psi_2, the Leibniz expansion of d/dx psi_L with the pole variable
    renamed to y: x_(d) and its slope per x, from one ``value_and_slope``;
    prod (y+t) and sum 1/(y+t) per y."""
    x_d = UniPoly(falling_coeffs(d))
    xs, ys, out = {}, {}, []
    for x, y in points:
        kx, (p, q) = as_ratio(x), as_ratio(y)
        if kx not in xs:
            xs[kx] = common_denominator(x_d.value_and_slope(Fraction(*kx)))
        if (p, q) not in ys:
            # q**j prod (y+t), and prod sum 1/(y+t); prod = 0 means q = 1 and y = -t
            prod, harm = harmonic_num(p, q, j)
            ys[p, q] = _nonzero(prod, f"y+{-p}") * q**j, harm * q**j, prod * prod
        ((fall, slope), xden), (u, v, yden) = xs[kx], ys[p, q]
        out.append(Fraction(slope * u - fall * v, xden * yden))
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
    for (x, y), a, b in zip(pts, psi1_at(pts, d, j), psi2_at(pts, d, j)):
        if a != b:
            return (False, f"{render_frac(a)} at ({render_frac(x)},{render_frac(y)})",
                    render_frac(b), *grid)
    # psi_R = total / (M x_(N)^2), read by integer Taylor passes and one
    # Fraction per point
    total, m = rhs_derivative_num(i, j, n)
    x_n = UniPoly(falling_coeffs(n))
    den = x_n * x_n.scale(m)
    # psi_L = x_(d) / ((x-N+1) ... (x-N+j)); every diagonal x >= N + 1 is a
    # regular point of the tail
    x_d, tail = UniPoly(falling_coeffs(d)), UniPoly.falling(UniPoly((j - n, 1)), j)[-1]
    diag = [(x, x - n) for x in sorted({x for x, _ in pts})]
    for (x, _), on_diag, rhs_d in zip(diag, psi1_at(diag, d, j), psi2_at(diag, d, j)):
        psi_r = local_values([total], den, x, "value")[0]
        dpsi_l = local_values([x_d], tail, x, "slope")[0]
        for lhs, rhs in ((psi_r, on_diag), (dpsi_l, rhs_d)):
            if lhs != rhs:
                return False, f"{render_frac(lhs)} at x={render_frac(x)}", render_frac(rhs), *grid
    return True, "-", "-", *grid


# -- F(s) and H(s) ---------------------------------------------------------------------


def f_sum_at(points: Sequence[tuple[Fraction, Fraction]], s: int, j: int, l: int) -> list[Fraction]:
    """The defining sum of F(s) at each point; the q = 0 term exists only
    for s >= 1.  Term q is K(q) X_q(x) Y_q(y) (x-y)_(q), X_q = (x+j+l)_(j+l-q-s)."""
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


def f_closed(s: int, j: int, l: int, x: Fraction, ys: Sequence[Fraction]) -> list[Fraction]:
    """Closed forms at (x, y) for each y in ``ys``: a falling-factorial
    quotient in x alone for 1 <= s <= l, and for s = 0 a harmonic difference
    times an x_(j+l)-type product, summed on integers with the factors of x
    built once; at s = 0 a vanishing factor raises, y+t before x+t at each t."""
    if s >= 1:
        return [
            falling(x + j + l, l - s)
            * falling(x + j, j)
            / (s * math.factorial(l - s) * _nonzero(falling(j + l, j), f"({j + l})_({j})"))
        ] * len(ys)
    px, qx = as_ratio(x)
    ux, hx = harmonic_num(px, qx, j)
    num, den, out = pochhammer_num(px + (j + l) * qx, qx, j + l, -1), qx ** (j + l), []
    for py, qy in map(as_ratio, ys):
        uy, hy = harmonic_num(py, qy, j)
        # the first vanishing factor, y+t before x+t at each t: y+t at t = -py, x+t at t = -px
        if not uy and (ux or py >= px):
            raise SamplePoleError(f"y+{-py}")
        _nonzero(ux, f"x+{-px}")
        # sum 1/(y+t) - sum 1/(x+t) = hy/uy - hx/ux
        out.append(Fraction(num * (hy * ux - hx * uy), den * math.factorial(j + l) * uy * ux))
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
        closed = (b for x in xs for b in f_closed(s, j, l, x, ys))
        for (x, y), a, b in zip(pts, f_sum_at(pts, s, j, l), closed):
            if a != b:
                return (False, f"{render_frac(a)} at s={s},({render_frac(x)},{render_frac(y)})",
                        render_frac(b), len(pts))
    return True, "-", "-", len(pts)


def e1_term(q: int, s: int, x: Fraction, y: Fraction, j: int) -> Fraction:
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


def h_sum(s: int, j: int, x: Fraction, y: Fraction) -> Fraction:
    return sum(e1_term(q, s, x, y, j) for q in range(1 if s == 0 else 0, j + 1))


def h_hypergeometric(s: int, j: int, x: Fraction, y: Fraction) -> Fraction:
    """H(s) through its very-well-poised 5F4 representation (s >= 1); only
    the first j + 1 terms of the series are nonzero."""
    if s < 1:
        raise ValueError("the 5F4 form is used for s >= 1")
    return e1_term(0, s, x, y, j) * pfq_terminating(
        (y / 2 + Fraction(s, 2) + 1, y + s, -j, s, y - x),
        (y / 2 + Fraction(s, 2), y + s + j + 1, y + 1, x + s + 1),
    )


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
    expected = sum(1 / (y + t) - 1 / (x + t) for t in range(1, j + 1))
    return got == expected, f"{render_frac(got)} at s=0", render_frac(expected)
