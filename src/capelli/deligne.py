"""Categorical eigenvalue polynomials via a Jordan-block model.

The invariant-operator algebra on symmetric powers of the generating object
of categorical dimension t is generated by two commuting operators C and E;
it acts faithfully on the generalized eigenblocks of C, and on each block
the action is a dual number value + nil*eps with eps^2 = 0.  That block
model is all this module keeps: operators are ``BiPoly`` polynomials in
(C, E) with coefficients in Q(s), blocks are labelled by partitions with
multiplicity 1 or 2 and carry their Casimir value (``Block``), and
evaluating an operator on a block gives a dual number (``DualScalar``).

* every case split reads the class of a partition at kb = -t/2 through
  ``classify_at``, so every partition is regular unless t is a non-positive
  even integer;
* blocks of size d exist for the partitions of d that are not kb-singular,
  with multiplicity 2 exactly on the kb-quasiregular ones;
* ``l_op`` is the spectral projector-like element built from the size-d
  Casimir spectrum at a deformation parameter s;
* ``d_op`` combines one or two of these per the class of the partition and
  returns the combination at s = t, where its coefficients provably have no
  pole (asserted there); ``block_eval`` reads that rational polynomial
  p(C, E) off a list of blocks, and its C-derivative, built once per call,
  off the multiplicity-2 ones, one ``BiPoly.eval_at`` call per polynomial;
* ``block_values`` reads generalized values off the blocks (the nil part of
  a multiplicity-2 block is the value at its missing singular partner);
  ``cat_eig_from_blocks`` interpolates them and re-checks the result with
  ``gen_eval``; ``cat_eig_formula`` takes the closed forms' limits in
  Q(kappa) at kappa = kb, which are those at s = t since kappa = -s/2 is an
  invertible affine change of variable.  The two must agree exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .bipoly import BiPoly, falling_coeffs
from .eigenpoly import interpolate_ev, singular_scale
from .knopsahi import gen_eval, ks_poly
from .partitions import (
    PClass,
    Pair2,
    c_cat,
    check_partition,
    classify_at,
    h_poly,
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


def blocks(d: int, t: Fraction) -> list[Block]:
    """Indecomposable blocks of the degree-d symmetric power, graded-lex order."""
    kb = kbar(t)
    out = []
    for lam in of_size(d):
        cls = classify_at(lam, kb)
        if cls is not PClass.SINGULAR:
            out.append(Block(lam=lam, c=c_cat(lam, t), mult=2 if cls is PClass.QUASIREGULAR else 1))
    return out


def block_eval(op_t: BiPoly, blks: list[Block]) -> list[DualScalar]:
    """Evaluate an operator p(C, E), already specialized at s = t, on each
    of ``blks``, in order.

    C acts as c + eps on multiplicity-2 blocks and as the plain scalar c
    otherwise; E acts as |lam|.  So the value is p(c, e) and, on a
    multiplicity-2 block, the nil part is dp/dC (c, e).  p is evaluated by
    one ``eval_at`` call over all the blocks; dp/dC is built only when some
    block has multiplicity 2, and evaluated by one call over those blocks.
    """
    for b in blks:
        if b.mult not in (1, 2):
            raise AssertionError(f"block {b.lam} has multiplicity {b.mult}, not 1 or 2")
    pts = [(b.c, size(b.lam)) for b in blks]
    double = [pt for pt, b in zip(pts, blks) if b.mult == 2]
    nils = iter(op_t.partials()[0].eval_at(double) if double else ())
    return [DualScalar(v, next(nils)) if b.mult == 2 else DualScalar(v)
            for b, v in zip(blks, op_t.eval_at(pts))]


# -- the deformed operators ------------------------------------------------------------


@lru_cache(maxsize=None)
def l_op(lam: Pair2) -> BiPoly:
    """The normalized element

        prod_{i<d} (E - i) * prod_{|nu|=d, nu != lam} (C - c_nu(s))
        ---------------------------------------------------------,   d = |lam|,
        d! * prod_{|nu|=d, nu != lam} (c_lam(s) - c_nu(s))

    as a polynomial in (C, E) with coefficients in Q(s); they are independent
    of t and have poles only at non-positive even integers.  The numerator
    has polynomial coefficients and the denominator is one polynomial, so
    each monomial is normalized once.
    """
    check_partition(lam)
    d = size(lam)
    num = BiPoly({(0, j): UniPoly.const(c) for j, c in enumerate(falling_coeffs(d))})
    den = UniPoly.const(math.factorial(d))
    c_lam = c_cat(lam, S)
    for nu_ in of_size(d):
        if nu_ == lam:
            continue
        c_nu = c_cat(nu_, S)
        num = num * BiPoly({(1, 0): UniPoly.one(), (0, 0): -c_nu})
        diff = c_lam - c_nu
        if not diff:
            raise ArithmeticError(f"identically vanishing spectral gap {lam} vs {nu_}")
        den = den * diff
    return num.map_coeffs(lambda c: RatFunc(c, den))


def d_op(lam: Pair2, t: Fraction) -> BiPoly:
    """The operator at s = t, by case dispatch on the class of lam at kb = -t/2:

    (i)   kb-regular lam:        L_lam
    (ii)  kb-singular lam:       (c_{lam+}(s) - c_lam(s)) L_{lam+}
    (iii) kb-quasiregular lam:   L_lam + L_{lam+}

    Each combined Q(s) coefficient is evaluated once at s = t; a pole there
    would be a defect in the model and raises ``AssertionError``.
    """
    kb = kbar(t)
    cls = classify_at(lam, kb)
    if cls is PClass.SINGULAR:
        lamd = paired(lam, int(kb), cls)
        op = l_op(lamd).scale(RatFunc(c_cat(lamd, S) - c_cat(lam, S)))
    elif cls is PClass.QUASIREGULAR:
        op = l_op(lam) + l_op(paired(lam, int(kb), cls))
    else:
        op = l_op(lam)
    values = {}
    for key, coeff in op.terms.items():
        try:
            values[key] = coeff.eval(t)
        except PoleError:
            raise AssertionError(
                f"coefficient of C^{key[0]}E^{key[1]} has a pole at s={t}") from None
    return BiPoly(values)


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

    taken coefficient-wise in Q(kappa): s = -2 kappa is an invertible affine
    change of variable, so they are the s -> t limits, pole orders
    included.  Double poles cannot survive the combination and would raise.
    """
    kb = kbar(t)
    cls = classify_at(lam, kb)
    if cls is PClass.REGULAR:
        h_val = h_poly(lam)(kb)
        if not h_val:
            raise AssertionError(f"H_{lam}({kb}) = 0 outside the quasiregular case")
        return ks_poly(lam).body.map_coeffs(lambda c: c.eval(kb) / h_val)
    lamd = paired(lam, int(kb), cls)
    if cls is PClass.SINGULAR:
        scaled = [(lamd, RatFunc(c_cat(lamd, T) - c_cat(lam, T), h_poly(lamd)))]
    else:
        scaled = [(mu, RatFunc(1, h_poly(mu))) for mu in (lam, lamd)]
    body = sum((ks_poly(mu).body.scale(scale) for mu, scale in scaled), BiPoly.zero())
    return body.map_coeffs(lambda c: c.eval(kb))


def singular_scale_limit(lam: Pair2, k: int) -> tuple[Fraction, Fraction]:
    """Scalar bridge between the categorical and the plain singular formulas:

        lim_{kappa -> k} (c_{lam+}(-2 kappa) - c_lam(-2 kappa)) / H_{lam+}(kappa)
            = 4 (l1 - l2 - k - 1) / H'_{lam+}(k).

    It is the s -> -2k limit in s = -2 kappa, an invertible affine change of
    variable.  Returns both sides, exactly; the right one is route b's
    ``singular_scale``.
    """
    lamd = paired(lam, k, PClass.SINGULAR)
    ratio = RatFunc(c_cat(lamd, T) - c_cat(lam, T), h_poly(lamd))
    return ratio.eval(k), singular_scale(lam, k)


# -- verification helpers ----------------------------------------------------------------


def min_poly_is_minimal(d: int, t: Fraction) -> bool:
    """The displayed product annihilates every size-d block and no proper
    monic divisor does (checked by dropping one root multiplicity at a time)."""
    p = min_poly(d, t)
    blks = blocks(d, t)

    def annihilated(poly: UniPoly) -> bool:
        op = BiPoly({(i, 0): c for i, c in enumerate(poly.coeffs)})
        return all(dv.is_zero() for dv in block_eval(op, blks))

    if not annihilated(p):
        return False
    roots = {c_cat(lam, t) for lam in of_size(d)}
    return not any(annihilated(p.divexact(UniPoly((-u, 1)))) for u in roots)
