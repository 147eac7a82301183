"""Categorical eigenvalue polynomials via a Jordan-block model.

The invariant-operator algebra on symmetric powers of the generating object
of categorical dimension t is generated by two commuting operators C and E;
it acts faithfully on the generalized eigenblocks of C, and on each block
the action is a dual number value + nil*eps with eps^2 = 0.  That block
model is all this module keeps: on a block of size m, E acts as m, so an
operator is stored in the form binom(E, d) q(C) as the pair (d, q), blocks
are labelled by partitions with multiplicity 1 or 2 and carry their Casimir
value (``Block``), and evaluating an operator on a block gives a dual
number (``DualScalar``).

* every case split reads the class of a partition at kb = -t/2 through
  ``classify_at``, so every partition is regular unless t is a non-positive
  even integer;
* blocks of size d exist for the partitions of d that are not kb-singular,
  with multiplicity 2 exactly on the kb-quasiregular ones; ``blocks``
  builds each such tuple once per (d, t), in a bounded cache;
* ``l_op`` is the Lagrange factor over the size-d Casimir spectrum at a
  deformation parameter s, as its coefficients in Q(s);
* ``d_op`` combines one or two of these per the class of the partition and
  returns the combination at s = t as (d, q), where its coefficients
  provably have no pole (asserted there); ``block_eval`` reads binom(m, d)
  times q at the block's Casimir value, and its slope as the nil part on
  the multiplicity-2 blocks only: nothing on a block with binom(m, d) = 0,
  one ``UniPoly.value_and_slope`` on a multiplicity-2 block, one ``q(c)``
  on the others;
* ``block_values`` reads generalized values off the blocks (the nil part of
  a multiplicity-2 block is the value at its missing singular partner);
  ``cat_eig_from_blocks`` interpolates them and re-checks the result with
  ``gen_eval``; ``cat_eig_formula`` takes the closed forms' limits at
  kappa = kb = -t/2: route c, ``eig_qreg_limit``, for the quasiregular one,
  one scalar times one Knop-Sahi body at kb for the others.  The two must
  agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

from .bipoly import BiPoly
from .eigenpoly import eig_qreg_limit, interpolate_ev, singular_scale
from .knopsahi import gen_eval, ks_poly
from .partitions import (
    PClass,
    Pair2,
    c_cat,
    check_partition,
    classify_at,
    h_poly,
    h_value,
    of_size,
    paired,
    size,
)
from .ratfunc import PoleError, RatFunc, UniPoly, as_ratio

S = UniPoly.x()  # the deformation parameter s
T = UniPoly((0, -2))  # t = -2 kappa as a polynomial in kappa


def kbar(t: Fraction) -> Fraction:
    """kb = -t/2 for an ``int`` or ``Fraction`` t; anything else raises ``TypeError``."""
    p, q = as_ratio(t)
    return Fraction(-p, 2 * q)


class DualScalar(NamedTuple):
    """value + nil * eps with eps^2 = 0, over exact rationals."""

    value: Fraction
    nil: Fraction = Fraction(0)

    def is_zero(self) -> bool:
        return not self.value and not self.nil


ZERO = DualScalar(Fraction(0))


class Block(NamedTuple):
    """One indecomposable summand: partition label, the Casimir value
    c_cat(lam, t) by which C acts on it, and multiplicity."""

    lam: Pair2
    c: Fraction
    mult: int


# -- block decomposition -------------------------------------------------------------


def min_poly(d: int, t: Fraction) -> UniPoly:
    """Minimal polynomial of the Casimir on the degree-d symmetric power:

        prod_{0 <= a <= d, a = d mod 2} (x - a (a + t - 2)).

    Root coincidences (always in pairs, never triples) happen exactly for
    t a non-positive even integer, so the displayed product already carries
    each root with its multiplicity in the minimal polynomial.  The roots are
    the Casimir eigenvalues c_cat(lam, t) over the partitions of d.
    """
    out = UniPoly.one()
    for lam in of_size(d):
        out = out * UniPoly((-c_cat(lam, t), 1))
    return out


def blocks(d: int, t: Fraction) -> tuple[Block, ...]:
    """Indecomposable blocks of the degree-d symmetric power, graded-lex order.

    An enumeration like ``of_size``, built once per (d, t) and kept in a
    bounded cache keyed on the integer pair of t, so an ``int`` or
    ``Fraction`` t hits it and anything else still raises ``TypeError``.
    """
    return _blocks(d, *as_ratio(t))


@lru_cache(maxsize=32)  # one t at the size cap has 15 sizes; the sweep runs t-major
def _blocks(d: int, p: int, q: int) -> tuple[Block, ...]:
    t, kb = Fraction(p, q), Fraction(-p, 2 * q)
    out = []
    for lam in of_size(d):
        cls = classify_at(lam, kb)
        if cls is not PClass.SINGULAR:
            out.append(Block(lam=lam, c=c_cat(lam, t), mult=2 if cls is PClass.QUASIREGULAR else 1))
    return tuple(out)


def block_eval(op_t: tuple[int, UniPoly], blks: Sequence[Block]) -> list[DualScalar]:
    """Evaluate an operator binom(E, d) q(C), already specialized at s = t
    and given as (d, q), on each of ``blks``, in order.

    E acts as |lam|, and C as c + eps on multiplicity-2 blocks and as the
    plain scalar c otherwise.  So the value is binom(|lam|, d) q(c) and, on a
    multiplicity-2 block, the nil part is binom(|lam|, d) q'(c).  Where the
    binomial is 0 nothing is evaluated; otherwise q is read once, as
    ``value_and_slope`` on a multiplicity-2 block and ``q(c)`` on the others,
    and scaled only when the binomial exceeds 1.
    """
    d, q = op_t
    out = []
    for b in blks:
        if b.mult not in (1, 2):
            raise AssertionError(f"block {b.lam} has multiplicity {b.mult}, not 1 or 2")
        n = math.comb(size(b.lam), d)
        if not n:
            dv = ZERO
        elif b.mult == 2:
            dv = DualScalar(*q.value_and_slope(b.c))
        else:
            dv = DualScalar(q(b.c))
        out.append(dv if n <= 1 else DualScalar(n * dv.value, n * dv.nil))
    return out


# -- the deformed operators ------------------------------------------------------------


@lru_cache(maxsize=None)
def l_op(lam: Pair2) -> tuple[RatFunc, ...]:
    """The Lagrange factor of L_lam = binom(E, d) l_lam(C), d = |lam|:

        l_lam(C) = prod_{|nu|=d, nu != lam} (C - c_nu(s)) / (c_lam(s) - c_nu(s)),

    as its coefficients in Q(s), lowest power of C first; they are
    independent of t and have poles only at non-positive even integers.  The
    numerator has polynomial coefficients and the denominator is one
    polynomial, so each coefficient is normalized once.
    """
    check_partition(lam)
    num, den = [UniPoly.one()], UniPoly.one()
    c_lam = c_cat(lam, S)
    for nu_ in of_size(size(lam)):
        if nu_ != lam:
            c_nu = c_cat(nu_, S)
            # times (C - c_nu): coefficient i becomes num[i - 1] - c_nu num[i]
            num = [a - c_nu * b for a, b in zip([UniPoly.zero(), *num], [*num, UniPoly.zero()])]
            den = den * (c_lam - c_nu)
    return tuple(RatFunc(c, den) for c in num)


def d_op(lam: Pair2, t: Fraction) -> tuple[int, UniPoly]:
    """The operator at s = t, by case dispatch on the class of lam at kb = -t/2:

    (i)   kb-regular lam:        L_lam
    (ii)  kb-singular lam:       (c_{lam+}(s) - c_lam(s)) L_{lam+}
    (iii) kb-quasiregular lam:   L_lam + L_{lam+}

    lam+ has the size d of lam, so the result is binom(E, d) q(C), returned
    as (d, q).  Each combined Q(s) coefficient of q is evaluated once at
    s = t; a pole there would be a defect in the model and raises
    ``AssertionError``.
    """
    kb = kbar(t)
    cls = classify_at(lam, kb)
    if cls is PClass.SINGULAR:
        lamd = paired(lam, int(kb), cls)
        gap = RatFunc(c_cat(lamd, S) - c_cat(lam, S))
        coeffs = [gap * c for c in l_op(lamd)]
    elif cls is PClass.QUASIREGULAR:
        coeffs = [a + b for a, b in zip(l_op(lam), l_op(paired(lam, int(kb), cls)))]
    else:
        coeffs = l_op(lam)
    values = []
    for i, coeff in enumerate(coeffs):
        try:
            values.append(coeff.eval(t))
        except PoleError:
            raise AssertionError(f"coefficient of C^{i} has a pole at s={t}") from None
    return size(lam), UniPoly(values)


# -- eigenvalue polynomials, two ways ---------------------------------------------------


class InterpolationMismatch(AssertionError):
    """Block data disagreed with the interpolated polynomial."""


def block_values(lam: Pair2, t: Fraction) -> dict[Pair2, Fraction]:
    """Generalized values of d_op(lam, t) at every partition of size <= |lam|,
    read by one ``block_eval`` call off the blocks of those sizes: the value
    part at the block's partition and, on a multiplicity-2 block, the nil
    part at its missing singular partner.  Each singular partition is such a
    partner, so every partition gets exactly one value."""
    check_partition(lam)
    blks = [b for m in range(size(lam) + 1) for b in blocks(m, t)]
    kb = kbar(t)
    values: dict[Pair2, Fraction] = {}
    for b, dv in zip(blks, block_eval(d_op(lam, t), blks)):
        values[b.lam] = dv.value
        if b.mult == 2:
            values[paired(b.lam, int(kb), PClass.QUASIREGULAR)] = dv.nil
    return values


def cat_eig_from_blocks(lam: Pair2, t: Fraction) -> BiPoly:
    """Eigenvalue polynomial read off the block model: interpolates
    ``block_values`` (the projection onto operators of order <= |lam| is
    invisible on blocks of size <= |lam|) and re-checks the interpolant with
    ``gen_eval``.  That is the per-block check, since the shifted point of a
    quasiregular mu is the coordinate swap of its singular partner's and
    square_op(f) is symmetric."""
    values = block_values(lam, t)
    kb = kbar(t)
    f = interpolate_ev(values, size(lam), kb)
    for (mu, want), got in zip(values.items(), gen_eval(f, values, kb)):
        if got != want:
            raise InterpolationMismatch(f"generalized value mismatch at {mu} for t={t}")
    return f


def cat_eig_formula(lam: Pair2, t: Fraction) -> BiPoly:
    """Closed forms for the eigenvalue polynomial.

    A kb-regular lam (every lam unless t is a non-positive even integer)
    gives P_lam / H_lam at kappa = kb = -t/2.  The singular and quasiregular
    cases are kappa -> kb limits of

        singular:      (c_{lam+}(-2 kappa) - c_lam(-2 kappa)) P_{lam+} / H_{lam+}
        quasiregular:  P_lam / H_lam + P_{lam+} / H_{lam+}

    taken in Q(kappa): s = -2 kappa is an invertible affine change of
    variable, so they are the s -> t limits, pole orders included.  The
    quasiregular one is route c (a residual pole raises ``AssertionError``).
    P_{lam+} has no pole at kb, as lam+ is kb-quasiregular, so the singular
    one is the limit of ``_singular_ratio`` times P_{lam+} at kb.
    """
    kb = kbar(t)
    cls = classify_at(lam, kb)
    if cls is PClass.QUASIREGULAR:
        return eig_qreg_limit(lam, int(kb))
    if cls is PClass.SINGULAR:
        mu, scale = _singular_ratio(lam, int(kb))
    else:
        h_val = h_value(lam, kb)
        if not h_val:
            raise AssertionError(f"H_{lam}({kb}) = 0 outside the quasiregular case")
        mu, scale = lam, 1 / h_val
    return ks_poly(mu).body.map_coeffs(lambda c: c.eval(kb) * scale)


def _singular_ratio(lam: Pair2, k: int) -> tuple[Pair2, Fraction]:
    """lam+ and lim_{kappa -> k} (c_{lam+}(-2 kappa) - c_lam(-2 kappa)) /
    H_{lam+}(kappa) for k-singular lam; a pole there raises ``PoleError``."""
    lamd = paired(lam, k, PClass.SINGULAR)
    return lamd, RatFunc(c_cat(lamd, T) - c_cat(lam, T), h_poly(lamd)).eval(k)


def singular_scale_limit(lam: Pair2, k: int) -> tuple[Fraction, Fraction]:
    """Scalar bridge between the categorical and the plain singular formulas:

        lim_{kappa -> k} (c_{lam+}(-2 kappa) - c_lam(-2 kappa)) / H_{lam+}(kappa)
            = 4 (l1 - l2 - k - 1) / H'_{lam+}(k).

    It is the s -> -2k limit in s = -2 kappa, an invertible affine change of
    variable.  Returns both sides, exactly; the left one scales
    ``cat_eig_formula``'s singular form, the right one is route b's.
    """
    return _singular_ratio(lam, k)[1], singular_scale(lam, k)


# -- verification helpers ----------------------------------------------------------------


def min_poly_is_minimal(d: int, t: Fraction) -> bool:
    """The displayed product p is the minimal polynomial of C on the size-d
    blocks.

    p must be monic, of degree the sum over the blocks' distinct Casimir
    values of the largest multiplicity there (the degree of the minimal
    polynomial: C - c has nilpotency order ``mult`` on a block), annihilate
    every block, and have no proper monic divisor p / (x - u), u a root,
    that does.  Each such divisor q is read only on the blocks at c = u:
    (x - u) q = p annihilates every block, and x - u is invertible on a
    block at c != u, so q's value and slope vanish there already.  A root u
    that does not divide p raises ``ArithmeticError``.
    """
    p, blks = min_poly(d, t), blocks(d, t)
    at: dict[Fraction, list[Block]] = {}
    for b in blks:
        at.setdefault(b.c, []).append(b)

    def annihilated(poly: UniPoly, on: Sequence[Block]) -> bool:
        return all(dv.is_zero() for dv in block_eval((0, poly), on))

    degree = sum(max(b.mult for b in on) for on in at.values())
    # canonical numerators over a positive denominator: monic is nums[-1] == den
    if p.degree() != degree or p.nums[-1] != p.den or not annihilated(p, blks):
        return False
    roots = {c_cat(lam, t) for lam in of_size(d)}
    return not any(annihilated(p.divexact(UniPoly((-u, 1))), at.get(u, ())) for u in roots)
