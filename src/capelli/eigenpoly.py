"""Eigenvalue polynomials of the Capelli basis, by independent routes.

For each partition lam and parameter k there is a unique symmetric
polynomial f_lam of degree |lam| whose generalized values on all partitions
of size <= |lam| are Kronecker deltas.  Depending on the class of lam it has
a closed form:

* regular:       f_lam = P_lam^k / H_lam(k)                         (route a)
* singular:      f_lam = 4 (l1 - l2 - k - 1) / H'_{lam+}(k) P_{lam+}^k  (route b)
* quasiregular:  f_lam = lim_{kappa->k} (P_lam/H_lam + P_{lam+}/H_{lam+})   (route c)
* quasiregular:  explicit combination of regularized polynomials with
  rational coefficients M_{lam,mu}                                  (route d)

Independently of all of these, the interpolation oracle solves the defining
linear system exactly in the symmetric falling-factorial basis (route
oracle).  Its matrix is built as integer rows, its columns scaled by powers
of the denominator of k and each row with its scale, from the integer
values and slopes of the 1-D falling factorials x_(m) at each row's shifted
point, read off ``hypergeom.falling_table``.  Bareiss fraction-free
elimination factors it once per (k, d); each solve replays that elimination
on its right-hand side alone and hands back integer numerators over one
denominator, which ``from_falling`` expands into the monomial basis on
integers before one division per monomial.  The oracle rests only on unique
solvability and reads no closed form, so when a closed form disagrees it is
the closed form that is reported as wrong.

Every route returns f_lam itself, a ``BiPoly`` with rational coefficients.
A route is named once, in ``_ROUTE_FN``; which names apply to which class
is known here only, in ``ROUTES``, which the CLI's ``--route`` reads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .bipoly import BiPoly, from_falling
from .hypergeom import falling_table
from .knopsahi import (
    _limit_at,
    eval_point,
    gen_eval,
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
from .ratfunc import PoleError, as_ratio, common_denominator


class SingularSystemError(ArithmeticError):
    """The interpolation linear system lost rank; contradicts uniqueness."""


# -- exact linear algebra -------------------------------------------------------


def bareiss_factor(rows: list[list[int]], scales: list[int]) -> tuple:
    """Factor the square system with integer rows ``rows[i] / scales[i]``
    once, for any number of right-hand sides (``gauss_solve``); ``rows`` is
    consumed.  Column scales are the caller's: it solves for the unknowns
    divided by them, as ``interpolate_ev`` does.

    Bareiss fraction-free elimination with row pivoting (Bareiss, Math. Comp.
    22, 1968) keeps every entry an integer minor: each update divides exactly
    by the previous pivot.  The record, in the LU form of Nakos, Turner and
    Williams (ACM SIGSAM Bull. 31(3), 1997), holds the row scales, each
    step's pivot row and multipliers (its column below the pivot), and the
    eliminated upper rows.  Upper row i starts at column i, so its head is
    step i's pivot, and the last one is the determinant of the row-permuted
    integer matrix.  A rank drop raises ``SingularSystemError``.
    """
    n, steps, prev = len(rows), [], 1
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][0]), None)
        if piv is None:
            raise SingularSystemError(f"no pivot in column {col}")
        rows[col], rows[piv] = rows[piv], rows[col]
        top = rows[col]
        p = top[0]
        steps.append((piv, [row[0] for row in rows[col + 1:]]))
        for r in range(col + 1, n):
            f = rows[r][0]
            rows[r] = [(p * v - f * w) // prev for v, w in zip(rows[r][1:], top[1:])]
        prev = p
    return scales, steps, rows


def gauss_solve(system: tuple, rhs: Sequence[Fraction]) -> tuple[list[int], int]:
    """Solve a system factored by ``bareiss_factor`` for one right-hand side
    in O(n^2) integer operations, as integer numerators over one nonzero
    denominator: x_i = nums[i] / den.

    The rhs is read over one common denominator, a ``float`` or a ``str``
    raising ``TypeError``, and scaled as its rows were.  The elimination is
    replayed on it, each row swap at its own step.  With D the determinant,
    D x is integral by Cramer's rule, so back substitution runs in integers
    too, and the solution is the pair (D x, D den), left unreduced.
    """
    scales, steps, upper = system
    nums, den = common_denominator(rhs)
    b = [s * v for s, v in zip(scales, nums)]
    prev = 1
    for col, ((piv, mults), top) in enumerate(zip(steps, upper)):
        b[col], b[piv] = b[piv], b[col]
        p, v = top[0], b[col]
        for r, f in enumerate(mults, col + 1):
            b[r] = (p * b[r] - f * v) // prev
        prev = p
    dx = [0] * len(b)
    for i in reversed(range(len(b))):
        row = upper[i]
        dx[i] = (prev * b[i] - sum(c * x for c, x in zip(row[1:], dx[i + 1:]))) // row[0]
    return dx, prev * den


# -- the interpolation oracle -----------------------------------------------------


# (k, d) -> the oracle's system factored by ``bareiss_factor``; past
# _SYSTEMS_MAX the oldest goes first.  One t needs at most 15 systems
# (d <= 14) and the deligne sweep runs t-outer, so alone it factors none
# twice; in ``verify all`` it refactors some that the capelli suite evicted.
_SYSTEMS: dict[tuple[Fraction, int], tuple] = {}
_SYSTEMS_MAX = 32


def _ev_rows(k, d: int) -> tuple[list[list[int]], list[int]]:
    """The oracle's matrix as integer rows and their scales, its columns
    scaled by pd^a, pd the denominator of k.  Entry (mu, (a, b)), both over
    ``upto(d)`` (so a >= b), is ``rows[mu][(a, b)] / scales[mu]``, pd^a
    times the generalized value at mu of the basis element g = x_(a) y_(b)
    + x_(b) y_(a) (x_(a) y_(a) when a = b).

    Row mu reads ``falling_table`` at both coordinates of its shifted point
    (p, q) = ``eval_point(mu, k)``; q = m2 is an integer, and at p = pn / pd
    the table holds x_(m)(p) over pd^m.  On a regular or quasiregular row the
    entry is pd^a g(p, q) = pd^a x_(a)(p) x_(b)(q) + pd^a x_(b)(p) x_(a)(q)
    (one product when a = b), an integer, and the scale is 1.  On a
    k-singular row it is square_op(g)(p, q) = (g_x - g_y) / (4 (p - q)),
    with the partials taken from the slopes; such rows exist only at an
    integer k, where pd = 1, the scale is 4 (p - q), and p - q = m1 - m2 -
    k - 1 >= 1.
    """
    parts = upto(d)
    rows, scales = [], []
    for mu in parts:
        p, q = eval_point(mu, k)
        (pn, pd), qn = as_ratio(p), int(q)  # pd is the denominator of k
        xp, xq = falling_table(pn, pd, d), falling_table(qn, 1, d)
        if classify_at(mu, k) is PClass.SINGULAR:
            scales.append(4 * (pn - qn))
            term = lambda a, b: xp[a][1] * xq[b][0] - xp[a][0] * xq[b][1]
        else:
            scales.append(1)
            term = lambda a, b: xp[a][0] * xq[b][0]
        rows.append([term(a, b) + term(b, a) * pd ** (a - b) if a != b else term(a, a)
                     for a, b in parts])
    return rows, scales


def _ev_matrix(k, d: int) -> tuple:
    """The oracle's system for (k, d): ``_ev_rows`` factored once by
    ``bareiss_factor`` on a cache miss and kept in ``_SYSTEMS``, so each
    solve replays the elimination on its rhs alone.  Past ``_SYSTEMS_MAX``
    systems the oldest is dropped."""
    key = (Fraction(k), d)
    system = _SYSTEMS.get(key)
    if system is None:
        if len(_SYSTEMS) >= _SYSTEMS_MAX:
            del _SYSTEMS[next(iter(_SYSTEMS))]
        system = _SYSTEMS[key] = bareiss_factor(*_ev_rows(k, d))
    return system


def interpolate_ev(values: Mapping[Pair2, Fraction], d: int, k) -> BiPoly:
    """Unique symmetric polynomial of degree <= d with the given generalized
    values on all partitions of size <= d (a missing one is 0).

    Solves the exact linear system in the symmetric falling basis, whose
    columns ``_ev_rows`` scales by pd^a: the solution c' = c / pd^a comes
    back as integers over one denominator D, so pd^a c' are the numerators
    of c over D.  ``from_falling`` sums them on integers and each monomial
    divides once by D.  A value keyed outside ``upto(d)`` raises
    ``ValueError``, an inexact one ``TypeError``; a rank drop raises
    ``SingularSystemError`` (it cannot happen legitimately).
    """
    parts = upto(d)
    stray = set(values).difference(parts)
    if stray:
        raise ValueError(f"values keyed outside the partitions of size <= {d}: {sorted(stray)}")
    nums, den = gauss_solve(_ev_matrix(k, d), [values.get(mu, 0) for mu in parts])
    pd = as_ratio(k)[1]
    terms = []
    for c, (a, b) in zip(nums, parts):
        c *= pd ** a
        terms.append((c, a, b))
        if a != b:
            terms.append((c, b, a))
    return from_falling(terms).map_coeffs(lambda c: Fraction(c, den))


def eig_oracle(lam: Pair2, k: int) -> BiPoly:
    """Route oracle: solve gen_eval(f, mu) = delta_{lam,mu} directly."""
    check_partition(lam)
    return interpolate_ev({lam: Fraction(1)}, size(lam), k)


# -- closed-form routes ------------------------------------------------------------


def eig_regular(lam: Pair2, k: int) -> BiPoly:
    """Route a (k-regular lam): P_lam^k scaled by 1 / H_lam(k)."""
    if classify(lam, k) is not PClass.REGULAR:
        raise ValueError(f"{lam} is not {k}-regular; route a requires regular")
    h = h_poly(lam)(k)
    if not h:
        raise AssertionError(f"H_{lam}({k}) = 0 on a regular partition")
    return reg_part(lam, k).scale(1 / h)


def singular_scale(lam: Pair2, k: int) -> Fraction:
    """Route b's scale 4 (l1 - l2 - k - 1) / H'_{lam+}(k) for k-singular lam."""
    lamd = paired(lam, k, PClass.SINGULAR)
    return Fraction(4 * (lam[0] - lam[1] - k - 1)) / h_poly(lamd).derivative()(k)


def eig_singular(lam: Pair2, k: int) -> BiPoly:
    """Route b (k-singular lam): rescaled specialization of P at the dagger."""
    return reg_part(paired(lam, k, PClass.SINGULAR), k).scale(singular_scale(lam, k))


def eig_qreg_limit(lam: Pair2, k: int) -> BiPoly:
    """Route c (k-quasiregular lam): pole-cancelling limit of the H-normalized
    sum P_lam/H_lam + P_{lam+}/H_{lam+} at kappa = k.

    With a = den_lam H_lam and b = den_{lam+} H_{lam+}, the numerators
    n_lam b + n_{lam+} a over a b are cancelled exactly by
    ``knopsahi._limit_at`` on integers; no ``RatFunc`` is made.  A residual
    pole raises ``AssertionError``."""
    lamd = paired(lam, k, PClass.QUASIREGULAR)
    p, pd = ks_poly(lam), ks_poly(lamd)
    a, b = p.den * h_poly(lam), pd.den * h_poly(lamd)
    try:
        return _limit_at(((p.nums, b), (pd.nums, a)), a * b, k)
    except PoleError as exc:  # the poles must cancel in the sum
        raise AssertionError(f"residual pole in route c for {lam}, k={k}: {exc}") from exc


def m_coeff(lam: Pair2, mu: Pair2, k: int) -> Fraction:
    """Expansion coefficient M_{lam,mu} of route d.

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
    """Route d (k-quasiregular lam): explicit combination in the regularized
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


# The route functions by name, in one flat dict: perfbench's tracer rewraps its values.
_ROUTE_FN = {"a": eig_regular, "b": eig_singular, "c": eig_qreg_limit, "d": eig_qreg_explicit,
             "oracle": eig_oracle}

# The route names that apply to each class, closed form first and the oracle last.
ROUTES: dict[PClass, tuple[str, ...]] = {
    PClass.REGULAR: ("a", "oracle"),
    PClass.SINGULAR: ("b", "oracle"),
    PClass.QUASIREGULAR: ("c", "d", "oracle"),
}


def eigen(lam: Pair2, k: int, route: str | None = None) -> BiPoly:
    """f_lam via the named route, or the class's closed form, first in ``ROUTES``."""
    return _ROUTE_FN[route or ROUTES[classify(lam, k)][0]](lam, k)


def restriction_pair(f: BiPoly, mus: Iterable[Pair2], k: int) -> list[tuple[Fraction, Fraction]]:
    """Jordan pairs (semisimple, nilpotent), in order, on the blocks ``mus``
    of the operator whose eigenvalue polynomial is ``f``.

    Only a k-quasiregular mu indexes a multiplicity-2 block; any other
    raises ``ValueError`` before anything is evaluated.  Both parts are
    generalized values, read by one ``gen_eval`` call over the mus and then
    their singular partners: the semisimple part is the value at mu, f at
    its shifted point, and the nilpotent coefficient the value at the
    partner, whose shifted point is the coordinate swap of mu's.
    """
    mus = list(mus)
    partners = [paired(mu, k, PClass.QUASIREGULAR) for mu in mus]
    values = gen_eval(f, mus + partners, k)
    return list(zip(values[:len(mus)], values[len(mus):]))
