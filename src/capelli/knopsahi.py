"""Two-variable Knop-Sahi interpolation polynomials over Q(kappa).

For a partition lam = (l1, l2) with r = l1 - l2, the polynomial is the
explicit double sum

    P_lam(x, y) = sum_{i+j <= r}  r! (kappa+1)_(r-i) (kappa+1)_(r-j)
                  ------------------------------------------------  x_(l2+i) y_(l2+j)
                    i! j! (r-i-j)! (kappa+1)_(r)

in the falling-factorial basis, with coefficients in Q(kappa).  It is the
unique symmetric polynomial of degree <= |lam| that vanishes at the shifted
points (m1 - kappa - 1, m2) for every other partition mu = (m1, m2) of size
<= |lam| and takes the value H_lam(kappa) at lam itself.

Some coefficients have simple poles at non-negative integers kappa = k,
exactly when lam is k-singular.  This module reads the residue, finite part
and kappa-derivative at k (``sing_part``, ``reg_part`` and route 1 of
``q_poly``) and the pole set off the monomial numerators over their one
shared denominator, by one ``ratfunc.local_values`` call each; it computes the
residue scale r_lam by two independent formulas, builds the depolarized
polynomial Q_lam by two independent routes, and provides the generalized
evaluation functional used to characterize eigenvalue polynomials.

The pole-cancelling limits, route 2 of ``q_poly`` and route c of
``eigenpoly``, have a kernel of their own, ``_limit_at``: the numerators are
summed over one shared denominator on integers and the factor (kappa - k)^m
is divided out exactly by synthetic division, with no ``RatFunc``.  It is
not Taylor reading, so the two routes to Q_lam share no kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable, NamedTuple

from .bipoly import BiPoly, falling_expansion, from_falling, square_op
from .hypergeom import falling_table
from .partitions import (
    PClass, Pair2, check_partition, classify_at, h_poly, paired, size, upto,
)
from .ratfunc import PoleError, RatFunc, UniPoly, _convolve, as_ratio, local_values

KAPPA = UniPoly.x()


class KsPoly(NamedTuple):
    """One interpolation polynomial: falling-basis terms plus monomial form.

    ``cleared`` stores (numerator, m, n) of the falling basis over the shared
    denominator ``den`` = (kappa+1)_(r), whose roots -1, 0, ..., r-2 are
    simple.  ``nums`` is the same sum expanded into the monomial basis, a
    ``BiPoly`` of ``UniPoly`` numerators over ``den``, and ``body`` is
    ``nums`` with each coefficient normalized once in Q(kappa).  Keeping the
    cleared form makes evaluation at shifted points a single
    rational-function normalization instead of one per term.

    Values at kappa = k (``sing_part``, ``reg_part``, ``ks_pole_set`` and the
    kappa-derivative of route 1 of ``q_poly``) are read off ``nums`` and
    ``den`` by one ``local_values`` call, and the limits of route 2 and route
    c off the same pair by ``_limit_at``; they normalize nothing.  ``body``
    is read only by the CLI's ``ks`` rendering and by the regular and
    singular branches of ``deligne.cat_eig_formula``.
    """

    den: UniPoly
    cleared: tuple[tuple[UniPoly, int, int], ...]
    nums: BiPoly
    body: BiPoly


@lru_cache(maxsize=None)
def ks_poly(lam: Pair2) -> KsPoly:
    """Construct P_lam by expanding the defining double sum."""
    l1, l2 = check_partition(lam)
    r = l1 - l2
    fall = UniPoly.falling(KAPPA + 1, r)
    den = fall[r]
    cleared: list[tuple[UniPoly, int, int]] = []
    for i in range(r + 1):
        for j in range(r + 1 - i):
            scale = Fraction(
                math.factorial(r),
                math.factorial(i) * math.factorial(j) * math.factorial(r - i - j),
            )
            num = (fall[r - i] * fall[r - j]).scale(scale)
            cleared.append((num, l2 + i, l2 + j))
    nums = from_falling(cleared)
    body = nums.map_coeffs(lambda num: RatFunc(num, den))
    return KsPoly(den=den, cleared=tuple(cleared), nums=nums, body=body)


def shifted_eval(lam: Pair2, mu: Pair2) -> RatFunc:
    """P_lam(m1 - kappa - 1, m2) as an element of Q(kappa).

    The x-argument is linear in kappa and the y-argument is the integer m2,
    so each falling factorial is a small polynomial product or an integer,
    read from one table per argument (``UniPoly.falling`` and
    ``falling_table``); everything is accumulated over the shared
    denominator and normalized once.
    """
    p = ks_poly(lam)
    m1, m2 = check_partition(mu)
    xarg = UniPoly((m1 - 1, -1))
    xfall = UniPoly.falling(xarg, max(m for _, m, _ in p.cleared))
    yfall = falling_table(m2, 1, max(n for _, _, n in p.cleared))
    acc = UniPoly.zero()
    for num, m, n in p.cleared:
        yv = yfall[n][0]
        if not yv:
            continue
        acc = acc + (num * xfall[m]).scale(yv)
    return RatFunc(acc, p.den)


def characterization_holds(lam: Pair2) -> bool:
    """Vanishing at all other shifted points of size <= |lam|, value H_lam at lam."""
    target_h = RatFunc(h_poly(lam))
    for mu in upto(size(lam)):
        val = shifted_eval(lam, mu)
        if mu == lam:
            if val != target_h:
                return False
        elif val:
            return False
    return True


# -- pole structure ----------------------------------------------------------------


def _at_kappa(lam: Pair2, k: int, kind: str) -> BiPoly:
    """Coefficient-wise ``kind`` ("residue", "value" or "slope") of P_lam at
    kappa = k: one ``local_values`` call over ``nums`` and ``den``."""
    p = ks_poly(lam)
    terms = p.nums.terms
    return BiPoly(dict(zip(terms, local_values(list(terms.values()), p.den, k, kind))))


def ks_pole_set(lam: Pair2, k_max: int) -> set[int]:
    """Integer points k <= k_max where some coefficient of ``body`` has a pole.

    A pole is a nonzero residue; a pole of order two or more raises
    ``PoleError``.  That the set is the k-singular one is left to the
    callers that compare them.
    """
    return {k for k in range(k_max + 1) if _at_kappa(lam, k, "residue")}


def sing_part(lam: Pair2, k: int) -> BiPoly:
    """Coefficient-wise residue at kappa = k (zero unless lam is k-singular)."""
    return _at_kappa(lam, k, "residue")


def reg_part(lam: Pair2, k: int) -> BiPoly:
    """Coefficient-wise finite part at kappa = k.

    Equals the plain specialization P_lam^k whenever lam is not k-singular.
    """
    return _at_kappa(lam, k, "value")


def r_coeff(lam: Pair2, k: int) -> Fraction:
    """Residue scale r_lam for k-singular lam.

    Computed both as -H_lam(k) / H'_{lam+}(k) and by the closed product
    formula; the two must agree exactly.
    """
    lamd = paired(lam, k, PClass.SINGULAR)
    via_h = -h_poly(lam)(k) / h_poly(lamd).derivative()(k)
    l1, l2 = lam
    diff = l1 - l2
    closed = Fraction(
        (-1) ** (k + l1 + l2) * math.prod(range(diff - k, diff + 1)),
        math.factorial(2 * k + 2 - diff) * math.factorial(diff - k - 2),
    )
    if via_h != closed:
        raise AssertionError(f"r_{lam} mismatch: {via_h} vs {closed}")
    return via_h


def q_poly(lam: Pair2, k: int) -> BiPoly:
    """Depolarized polynomial Q_lam for k-singular lam, by two routes.

    Route 1: finite part of P_lam minus r_lam times the kappa-derivative of
    P_{lam+} at k, read by ``local_values``.  Route 2: coefficient-wise limit
    of P_lam - r_lam/(kappa-k) * P_{lam+}, its numerators
    n_lam den_{lam+} (kappa - k) - r_lam n_{lam+} den_lam over den_lam
    den_{lam+} (kappa - k) cancelled exactly by ``_limit_at``; a residual
    pole raises ``PoleError``.  Exact agreement is asserted.
    """
    lamd = paired(lam, k, PClass.SINGULAR)
    r = r_coeff(lam, k)

    route1 = reg_part(lam, k) - _at_kappa(lamd, k, "slope").scale(r)

    p, pd = ks_poly(lam), ks_poly(lamd)
    pole = UniPoly((-k, 1))
    route2 = _limit_at(((p.nums, pd.den * pole), (pd.nums, p.den.scale(-r))),
                       p.den * pd.den * pole, k)

    if route1 != route2:
        raise AssertionError(f"Q_{lam} routes disagree at k={k}")
    return route1


def _limit_at(parts: tuple[tuple[BiPoly, UniPoly], ...], den: UniPoly, k: int) -> BiPoly:
    """Coefficient-wise value at kappa = k of sum(nums * cof) / den over the
    pairs (nums, cof) of ``parts``, ``nums`` a ``BiPoly`` of ``UniPoly``
    numerators and ``cof`` a ``UniPoly`` cofactor: the exact cancellation of
    den's pole at k, on integer coefficient lists.

    m, the multiplicity of k in den, and (den / (kappa - k)^m)(k) are read
    once.  Each monomial's numerator is summed on integers, divided exactly
    by kappa - k m times and its quotient read at k, all by synthetic
    division, and one ``Fraction`` is built.  A nonzero remainder on the way
    is a residual pole: ``PoleError`` with its order.  No gcd, normalization
    or ``RatFunc`` is made.
    """
    m, dk = _deflate(den.nums, k, len(den.nums))
    out = {}
    for key in dict.fromkeys(key for nums, _ in parts for key in nums.terms):
        acc, s = [], 1
        for nums, cof in parts:
            c = nums.terms.get(key)
            if c:
                t = c.den * cof.den
                acc = [x * t + y * s for x, y in
                       zip_longest(acc, _convolve(c.nums, cof.nums), fillvalue=0)]
                s *= t
        j, v = _deflate(acc, k, m)
        if j < m:
            raise PoleError(k, m - j)
        out[key] = Fraction(v * den.den, s * dk)
    return BiPoly(out)


def _deflate(nums: list[int], k: int, stop: int) -> tuple[int, int]:
    """(j, q_j(k)) for the first j < stop with q_j(k) != 0, else (stop,
    q_stop(k)), where q_j = nums / (kappa - k)^j: the integer polynomial
    ``nums`` (lowest degree first) divided by kappa - k one synthetic
    division at a time, each remainder the value at k of what it divides."""
    c = list(reversed(nums))
    for j in range(stop + 1):
        for i in range(1, len(c)):
            c[i] += k * c[i - 1]
        t = c.pop() if c else 0
        if t or j == stop:
            return j, t


# -- generalized evaluation ---------------------------------------------------------


def eval_point(mu: Pair2, k) -> tuple[Fraction, Fraction]:
    """The shifted evaluation point (m1 - k - 1, m2); k is an ``int`` or a
    ``Fraction``, anything else raises ``TypeError``."""
    m1, m2 = check_partition(mu)
    p, q = as_ratio(k)
    return (Fraction((m1 - 1) * q - p, q), Fraction(m2))


def gen_eval(f: BiPoly, mus: Iterable[Pair2], k) -> list[Fraction]:
    """Generalized values of a symmetric polynomial ``f`` at the partitions
    ``mus``, in order.

    Plain evaluation at the shifted point for regular/quasiregular mu; the
    square_op value there when mu is k-singular (``classify_at``, so at a
    parameter that is not a non-negative integer the plain branch applies).
    square_op(f) is built once, and only when some mu is k-singular; each
    of f and square_op(f) is evaluated by one ``eval_at`` call over its
    points.  An asymmetric ``f`` raises ``ValueError`` either way.

    Takes rational-coefficient polynomials only (``eval_at`` raises
    ``TypeError`` otherwise); parameter-dependent input must be specialized
    first.
    """
    if not f.is_symmetric():
        raise ValueError("gen_eval requires a symmetric polynomial")
    singular = []
    pts = ([], [])  # regular/quasiregular, singular
    for mu in mus:
        s = classify_at(mu, k) is PClass.SINGULAR
        singular.append(s)
        pts[s].append(eval_point(mu, k))
    values = (iter(f.eval_at(pts[0])), iter(square_op(f).eval_at(pts[1]) if pts[1] else ()))
    return [next(values[s]) for s in singular]


def h_jump(lam: Pair2, k: int) -> Fraction:
    """beta'(k) - alpha'(k) for k-singular lam, with beta = H_lam and
    alpha(kappa) = -r_lam/(kappa-k) * H_{lam+}(kappa).  alpha'(k) is the
    slope at a simple root of kappa - k, where the numerator vanishes since
    H_{lam+}(k) = 0 for the quasiregular lam+; any other numerator raises
    ``PoleError``."""
    lamd = paired(lam, k, PClass.SINGULAR)
    alpha_num = h_poly(lamd).scale(-r_coeff(lam, k))
    alpha_slope = local_values([alpha_num], UniPoly((-k, 1)), k, "slope")[0]
    return h_poly(lam).derivative()(k) - alpha_slope


def tcheck_values(lam: Pair2, k: int) -> tuple[Fraction, Fraction]:
    """The pair (t1, t2) of generalized values of Q_lam at lam-dagger and lam:
    t1 = H_lam(k) and t2 = ``h_jump(lam, k)`` / (4 (k + 1 - l1 + l2))."""
    t2 = h_jump(lam, k) / (4 * (k + 1 - lam[0] + lam[1]))
    return h_poly(lam)(k), t2


# -- basis of regularized polynomials ------------------------------------------------


def reg_basis_triangular(k: int, d: int) -> bool:
    """Check that {reg_part(mu, k) : |mu| <= d} is unitriangular in the
    symmetric falling basis under graded-lex order."""
    parts = upto(d)
    index = {p: i for i, p in enumerate(parts)}
    for mu in parts:
        expansion = falling_expansion(reg_part(mu, k))
        for (a, b), c in expansion.items():
            key = (a, b) if a >= b else (b, a)
            row = index.get(key)
            if row is None or row > index[mu]:
                return False
            if row == index[mu] and c != 1:
                return False
    return True
