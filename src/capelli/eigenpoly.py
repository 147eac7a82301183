"""Eigenvalue polynomials of the Capelli basis, by independent routes.

For each partition lam and parameter k there is a unique symmetric
polynomial f_lam of degree |lam| whose generalized values on all partitions
of size <= |lam| are Kronecker deltas.  Depending on the class of lam it has
a closed form:

* regular:       f_lam = P_lam^k / H_lam(k)                         (route A)
* singular:      f_lam = 4 (l1 - l2 - k - 1) / H'_{lam+}(k) P_{lam+}^k  (route B)
* quasiregular:  f_lam = lim_{kappa->k} (P_lam/H_lam + P_{lam+}/H_{lam+})   (route C)
* quasiregular:  explicit combination of regularized polynomials with
  rational coefficients M_{lam,mu}                                  (route D)

Independently of all of these, the interpolation oracle solves the defining
linear system exactly in the symmetric falling-factorial basis (route
ORACLE).  Its matrix is built from the values and slopes of the 1-D falling
factorials x_(m) at each row's shifted point, the system is solved by
Bareiss fraction-free integer elimination, and ``from_falling`` expands the
solution into the monomial basis.  The oracle rests only on unique
solvability and reads no closed form, so when a closed form disagrees it is
the closed form that is reported as wrong.

Every route returns f_lam itself, a ``BiPoly`` with rational coefficients.
Which routes apply to which class is known here only, in ``ROUTES``.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .bipoly import BiPoly, from_falling, square_op
from .knopsahi import (
    eval_point,
    h_jump,
    ks_poly,
    q_poly,
    reg_part,
)
from .partitions import (
    PClass,
    Pair2,
    check_partition,
    classify,
    classify_at,
    ell,
    h_poly,
    nu,
    paired,
    size,
    upto,
)
from .ratfunc import PoleError, RatFunc, common_denominator


class Route(enum.Enum):
    A = "a"
    B = "b"
    C = "c"
    D = "d"
    ORACLE = "oracle"


# The routes that apply to each class, closed form first and the oracle last.
ROUTES: dict[PClass, tuple[Route, ...]] = {
    PClass.REGULAR: (Route.A, Route.ORACLE),
    PClass.SINGULAR: (Route.B, Route.ORACLE),
    PClass.QUASIREGULAR: (Route.C, Route.D, Route.ORACLE),
}


class SingularSystemError(ArithmeticError):
    """The interpolation linear system lost rank; contradicts uniqueness."""


# -- exact linear algebra -------------------------------------------------------


def gauss_solve(matrix: Sequence[Sequence[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square exact system by Bareiss fraction-free elimination.

    Each row of the augmented matrix is scaled by the lcm of its denominators
    to integers.  Bareiss elimination with row pivoting (Bareiss, Math. Comp.
    22, 1968) keeps every entry an integer minor: each update divides exactly
    by the previous pivot.  The last pivot D is then the determinant of the
    row-permuted integer matrix, so by Cramer's rule D * x is integral and
    back substitution runs in integers too; each component is normalized
    once, as x_i = (D x_i) / D.  A rank drop raises ``SingularSystemError``.
    """
    n = len(matrix)
    a = [common_denominator([*row, b])[0] for row, b in zip(matrix, rhs)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        top = a[col]
        p = top[col]
        for r in range(col + 1, n):
            row = a[r]
            f = row[col]
            if f:
                a[r] = [0] * (col + 1) + [
                    (p * v - f * w) // prev for v, w in zip(row[col + 1:], top[col + 1:])
                ]
            elif p != prev:
                a[r] = [0] * (col + 1) + [p * v // prev for v in row[col + 1:]]
        prev = p
    det = prev
    dx = [0] * n
    for i in reversed(range(n)):
        row = a[i]
        acc = det * row[n] - sum(row[j] * dx[j] for j in range(i + 1, n))
        dx[i] = acc // row[i]
    return [Fraction(v, det) for v in dx]


# -- the interpolation oracle -----------------------------------------------------


def _falling_table(p: Fraction, d: int) -> list[tuple[Fraction, Fraction]]:
    """The pairs (x_(m)(p), x_(m)'(p)) for m = 0..d.

    By the recurrence x_(m) = x_(m-1) * (x - m + 1) and its product rule.
    """
    val, slope = Fraction(1), Fraction(0)
    out = [(val, slope)]
    for m in range(1, d + 1):
        shift = p - (m - 1)
        val, slope = val * shift, slope * shift + val
        out.append((val, slope))
    return out


# (k, d) -> the evaluation matrix: row mu, column (a, b), both over upto(d)
_SYSTEMS: dict[tuple[Fraction, int], tuple[tuple[Fraction, ...], ...]] = {}


def _ev_matrix(k, d: int) -> tuple[tuple[Fraction, ...], ...]:
    """The oracle's matrix: entry (mu, (a, b)) is the generalized value at mu
    of the basis element g = x_(a) y_(b) + x_(b) y_(a) (x_(a) y_(a) when
    a = b) of the pair (a, b) in ``upto(d)``; cached in ``_SYSTEMS``.

    Row mu reads the falling tables at its shifted point (p, q) =
    ``eval_point(mu, k)``.  On a regular or quasiregular row the entry is
    g(p, q) = x_(a)(p) x_(b)(q) + x_(b)(p) x_(a)(q) (one product when a = b).
    On a k-singular row it is square_op(g)(p, q) = (g_x - g_y) / (4 (p - q)),
    with the partials taken from the slopes; there p - q = m1 - m2 - k - 1
    >= 1, so the quotient is defined.
    """
    key = (Fraction(k), d)
    cached = _SYSTEMS.get(key)
    if cached is not None:
        return cached
    parts = upto(d)
    rows = []
    for mu in parts:
        p, q = eval_point(mu, k)
        xp, xq = _falling_table(p, d), _falling_table(q, d)
        row = []
        if classify_at(mu, k) is PClass.SINGULAR:
            inv = 1 / (4 * (p - q))
            for a, b in parts:
                (pa, dpa), (pb, dpb) = xp[a], xp[b]
                (qa, dqa), (qb, dqb) = xq[a], xq[b]
                if a == b:
                    diff = dpa * qa - pa * dqa
                else:
                    diff = dpa * qb + dpb * qa - pa * dqb - pb * dqa
                row.append(diff * inv)
        else:
            for a, b in parts:
                if a == b:
                    row.append(xp[a][0] * xq[a][0])
                else:
                    row.append(xp[a][0] * xq[b][0] + xp[b][0] * xq[a][0])
        rows.append(tuple(row))
    matrix = tuple(rows)
    _SYSTEMS[key] = matrix
    return matrix


def interpolate_ev(values: Mapping[Pair2, Fraction], d: int, k) -> BiPoly:
    """Unique symmetric polynomial of degree <= d with the given generalized
    values on all partitions of size <= d.

    Solves the exact linear system in the symmetric falling basis; a rank
    drop raises ``SingularSystemError`` (it cannot happen legitimately).
    """
    parts = upto(d)
    rhs = [Fraction(values.get(mu, Fraction(0))) for mu in parts]
    coeffs = gauss_solve(_ev_matrix(k, d), rhs)
    terms = []
    for c, (a, b) in zip(coeffs, parts):
        terms.append((c, a, b))
        if a != b:
            terms.append((c, b, a))
    return from_falling(terms)


def eig_oracle(lam: Pair2, k: int) -> BiPoly:
    """Route ORACLE: solve gen_eval(f, mu) = delta_{lam,mu} directly."""
    check_partition(lam)
    return interpolate_ev({lam: Fraction(1)}, size(lam), k)


# -- closed-form routes ------------------------------------------------------------


def eig_regular(lam: Pair2, k: int) -> BiPoly:
    """Route A (k-regular lam): P_lam^k scaled by 1 / H_lam(k)."""
    if classify(lam, k) is not PClass.REGULAR:
        raise ValueError(f"{lam} is not {k}-regular; route a requires regular")
    h = Fraction(h_poly(lam)(k))
    if not h:
        raise AssertionError(f"H_{lam}({k}) = 0 on a regular partition")
    return reg_part(lam, k).scale(1 / h)


def eig_singular(lam: Pair2, k: int) -> BiPoly:
    """Route B (k-singular lam): rescaled specialization of P at the dagger."""
    lamd = paired(lam, k, PClass.SINGULAR)
    scale = Fraction(4 * (lam[0] - lam[1] - k - 1)) / h_poly(lamd).derivative()(k)
    return reg_part(lamd, k).scale(scale)


def eig_qreg_limit(lam: Pair2, k: int) -> BiPoly:
    """Route C (k-quasiregular lam): pole-cancelling limit of the H-normalized
    sum P_lam/H_lam + P_{lam+}/H_{lam+} at kappa = k."""
    lamd = paired(lam, k, PClass.QUASIREGULAR)
    combined = ks_poly(lam).body.scale(RatFunc(1, h_poly(lam))) + ks_poly(lamd).body.scale(
        RatFunc(1, h_poly(lamd))
    )
    try:
        return combined.map_coeffs(lambda c: c.eval(k))
    except PoleError as exc:  # the poles must cancel in the sum
        raise AssertionError(f"residual pole in route c for {lam}, k={k}: {exc}") from exc


def m_coeff(lam: Pair2, mu: Pair2, k: int) -> Fraction:
    """Expansion coefficient M_{lam,mu} of route D.

    For |mu| > 0:

        (-1)^(l+m1+m2) C(m1, m2) (l+m1)!
        --------------------------------------------------,   l = ell(lam)
        (k-l-m1-m2)! l! (l+m2+1)! (l+m1+m2)! m1

    and for mu = (0,0) the harmonic-sum expression
    (-1)^(l+1) / ((k-l)! (l+1)!^2) * (1 - sum_{j=l1-k}^{l1+l-k} (l+1)/j).
    """
    l = ell(lam, k)
    m1, m2 = check_partition(mu)
    if m1 + m2 > k - l:
        raise ValueError(f"{mu} exceeds the admissible size {k - l}")
    if m1 + m2 == 0:
        harm = sum(Fraction(l + 1, j) for j in range(lam[0] - k, lam[0] + l - k + 1))
        return Fraction((-1) ** (l + 1), math.factorial(k - l) * math.factorial(l + 1) ** 2) * (
            1 - harm
        )
    return Fraction(
        (-1) ** (l + m1 + m2) * math.comb(m1, m2) * math.factorial(l + m1),
        math.factorial(k - l - m1 - m2)
        * math.factorial(l)
        * math.factorial(l + m2 + 1)
        * math.factorial(l + m1 + m2)
        * m1,
    )


def eig_qreg_explicit(lam: Pair2, k: int) -> BiPoly:
    """Route D (k-quasiregular lam): explicit combination in the regularized
    basis,

        f_lam = (l+1)! / ((l1-k-1)! (l1+l-k)!) *
                ( R_{lam+} / (2k+2-l1+l2)!  +  sum_mu M_{lam,mu} R_{nu(lam,mu)} ).
    """
    lamd = paired(lam, k, PClass.QUASIREGULAR)
    l = ell(lam, k)
    l1, l2 = lam
    pre = Fraction(
        math.factorial(l + 1), math.factorial(l1 - k - 1) * math.factorial(l1 + l - k)
    )
    acc = reg_part(lamd, k).scale(Fraction(1, math.factorial(2 * k + 2 - l1 + l2)))
    for mu in upto(k - l):
        c = m_coeff(lam, mu, k)
        if c:
            acc = acc + reg_part(nu(lam, mu, k), k).scale(c)
    return acc.scale(pre)


def qreg_variation_body(lam: Pair2, k: int) -> BiPoly:
    """Fifth, assembly-level expression for the quasiregular case:

        f_lam = ( Q_{lam+} + h_jump(lam+, k) / H'_lam(k) * R_lam ) / H_{lam+}(k)

    with ``h_jump`` taken at the k-singular partner lam+.  Built entirely
    from the depolarization primitives, so it cross-checks them against the
    eigenvalue routes.
    """
    lamd = paired(lam, k, PClass.QUASIREGULAR)
    coeff = h_jump(lamd, k) / h_poly(lam).derivative()(k)
    body = q_poly(lamd, k) + reg_part(lam, k).scale(coeff)
    return body.scale(Fraction(1) / h_poly(lamd)(k))


# -- dispatch ---------------------------------------------------------------------


def applicable_routes(lam: Pair2, k: int) -> tuple[Route, ...]:
    return ROUTES[classify(lam, k)]


_ROUTE_FN = {
    Route.A: eig_regular,
    Route.B: eig_singular,
    Route.C: eig_qreg_limit,
    Route.D: eig_qreg_explicit,
    Route.ORACLE: eig_oracle,
}


def eigen(lam: Pair2, k: int, route: Route | None = None) -> BiPoly:
    """f_lam via the requested route, or the class-appropriate closed form."""
    if route is None:
        route = applicable_routes(lam, k)[0]
    return _ROUTE_FN[route](lam, k)


def restriction_pair(f: BiPoly, mus: Iterable[Pair2], k: int) -> list[tuple[Fraction, Fraction]]:
    """Jordan pairs (semisimple, nilpotent), in order, on the blocks ``mus``
    of the operator whose eigenvalue polynomial is ``f``; square_op(f) is
    built once for all of them.

    The semisimple part is f at the shifted point of mu, the nilpotent
    coefficient is square_op(f) there.  Only regular/quasiregular mu index a
    block.
    """
    sq = square_op(f)
    out = []
    for mu in mus:
        if classify(mu, k) is PClass.SINGULAR:
            raise ValueError(f"no block exists for {k}-singular {mu}")
        pt = eval_point(mu, k)
        out.append((f.eval2(*pt), sq.eval2(*pt)))
    return out
