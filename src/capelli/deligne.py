"""Categorical eigenvalue polynomials via a Jordan-block model.

The invariant-operator algebra on symmetric powers of the generating object
of categorical dimension t is generated by two commuting operators C and E;
it acts faithfully on the generalized eigenblocks of C, and on each block
the action is a dual number value + nil*eps with eps^2 = 0.  That block
model is all this module keeps: operators are ``BiPoly`` polynomials in
(C, E) with coefficients in Q(s), blocks are labelled by partitions with
multiplicity 1 or 2 (``Block``), and evaluation is dual-number arithmetic
(``DualScalar``).

* blocks of size d exist for every partition of d when t is not a
  non-positive even integer; otherwise (with kb = -t/2) only for partitions
  that are not kb-singular, with multiplicity 2 exactly on the
  kb-quasiregular ones;
* ``l_op`` is the spectral projector-like element built from the size-d
  Casimir spectrum at a deformation parameter s;
* ``d_op`` combines one or two of these per the class of the partition, and
  its coefficients provably have no pole at s = t (asserted here); a check
  specializes it at s = t once, and ``block_eval`` reads the resulting
  rational polynomial p(C, E) and its C-derivative off each block;
* ``cat_eig_from_blocks`` reads generalized values off the blocks and
  interpolates the eigenvalue polynomial; ``cat_eig_formula`` evaluates the
  closed forms obtained from the interpolation polynomials under the
  substitution kappa := -s/2.  The two must agree exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bipoly import BiPoly, falling_coeffs, square_op
from .eigenpoly import interpolate_ev
from .knopsahi import eval_point, ks_poly
from .partitions import (
    PClass,
    Pair2,
    c_cat,
    check_partition,
    classify,
    h_poly,
    of_size,
    paired,
    size,
)
from .ratfunc import RatFunc, UniPoly

S = UniPoly.x()
HALF_NEG_S = UniPoly((0, Fraction(-1, 2)))  # the substitution kappa := -s/2


def is_even_nonpositive(t: Fraction) -> bool:
    t = Fraction(t)
    return t.denominator == 1 and t <= 0 and int(t) % 2 == 0


def kbar(t: Fraction) -> Fraction:
    return -Fraction(t) / 2


@dataclass(frozen=True)
class DualScalar:
    """value + nil * eps with eps^2 = 0, over exact rationals."""

    value: Fraction
    nil: Fraction = Fraction(0)

    def __add__(self, other: "DualScalar") -> "DualScalar":
        return DualScalar(self.value + other.value, self.nil + other.nil)

    def __mul__(self, other) -> "DualScalar":
        if isinstance(other, DualScalar):
            return DualScalar(
                self.value * other.value, self.value * other.nil + self.nil * other.value
            )
        return DualScalar(self.value * other, self.nil * other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "DualScalar":
        out = DualScalar(Fraction(1))
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.value and not self.nil


@dataclass(frozen=True)
class Block:
    """One indecomposable summand: partition label, parameter, multiplicity."""

    lam: Pair2
    t: Fraction
    mult: int


def c_cat_poly(lam: Pair2) -> UniPoly:
    """The Casimir eigenvalue a(a + s - 2), a = l1 - l2, as a polynomial in s."""
    a = lam[0] - lam[1]
    return UniPoly((a * (a - 2), a))


# -- block decomposition -------------------------------------------------------------


def min_poly(d: int, t: Fraction) -> UniPoly:
    """Minimal polynomial of the Casimir on the degree-d symmetric power:

        prod_{0 <= a <= d, a = d mod 2} (x - a (a + t - 2)).

    Root coincidences (always in pairs, never triples) happen exactly for
    t a non-positive even integer, so the displayed product already carries
    each root with its multiplicity in the minimal polynomial.
    """
    t = Fraction(t)
    out = UniPoly.one()
    for a in range(d % 2, d + 1, 2):
        root = a * (a + t - 2)
        out = out * UniPoly((-root, 1))
    return out


def blocks(d: int, t: Fraction) -> list[Block]:
    """Indecomposable blocks of the degree-d symmetric power, graded-lex order."""
    t = Fraction(t)
    out = []
    if is_even_nonpositive(t):
        k = int(kbar(t))
        for lam in of_size(d):
            cls = classify(lam, k)
            if cls is PClass.SINGULAR:
                continue
            out.append(Block(lam=lam, t=t, mult=2 if cls is PClass.QUASIREGULAR else 1))
    else:
        out.extend(Block(lam=lam, t=t, mult=1) for lam in of_size(d))
    return out


def block_eval(op_t: BiPoly, block: Block) -> DualScalar:
    """Evaluate an operator p(C, E), already specialized at s = t, on one block.

    C acts as c_cat(lam, t) + eps on multiplicity-2 blocks and as the plain
    scalar otherwise; E acts as |lam|.  So the value is p(c, e) and, on a
    multiplicity-2 block, the nil part is dp/dC (c, e).
    """
    c = c_cat(block.lam, block.t)
    e = Fraction(size(block.lam))
    value = op_t.eval2(c, e)
    if block.mult == 1:
        return DualScalar(value)
    if block.mult != 2:
        raise AssertionError(f"block {block.lam} has multiplicity {block.mult}, not 1 or 2")
    return DualScalar(value, op_t.partials()[0].eval2(c, e))


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
    c_lam = c_cat_poly(lam)
    for nu_ in of_size(d):
        if nu_ == lam:
            continue
        c_nu = c_cat_poly(nu_)
        num = num * BiPoly({(1, 0): UniPoly.one(), (0, 0): -c_nu})
        diff = c_lam - c_nu
        if not diff:
            raise ArithmeticError(f"identically vanishing spectral gap {lam} vs {nu_}")
        den = den * diff
    return num.map_coeffs(lambda c: RatFunc(c, den))


def d_op(lam: Pair2, t: Fraction) -> BiPoly:
    """Case dispatch on (t, class of lam at kb = -t/2):

    (i)   generic t, or kb-regular lam:   L_lam
    (ii)  kb-singular lam:                (c_{lam+}(s) - c_lam(s)) L_{lam+}
    (iii) kb-quasiregular lam:            L_lam + L_{lam+}

    Every combined coefficient must be regular at s = t; asserted here.
    """
    t = Fraction(t)
    if is_even_nonpositive(t):
        k = int(kbar(t))
        cls = classify(lam, k)
        if cls is PClass.SINGULAR:
            lamd = paired(lam, k, cls)
            gap = RatFunc(c_cat_poly(lamd) - c_cat_poly(lam))
            op = l_op(lamd).scale(gap)
        elif cls is PClass.QUASIREGULAR:
            op = l_op(lam) + l_op(paired(lam, k, cls))
        else:
            op = l_op(lam)
    else:
        op = l_op(lam)
    for key, coeff in op.terms.items():
        if coeff.valuation(t) < 0:
            raise AssertionError(f"coefficient of C^{key[0]}E^{key[1]} has a pole at s={t}")
    return op


# -- eigenvalue polynomials, two ways ---------------------------------------------------


class InterpolationMismatch(AssertionError):
    """Block data disagreed with the interpolated polynomial."""


def cat_eig_from_blocks(lam: Pair2, t: Fraction) -> BiPoly:
    """Eigenvalue polynomial read off the block model.

    Specializes d_op at s = t once and evaluates it on every block of size
    <= |lam| (the projection onto operators of order <= |lam| is invisible
    there), assembles the generalized values -- multiplicity-2 blocks
    contribute their nilpotent coefficient as the value at the missing
    singular partner -- and interpolates.  The interpolant is then
    re-checked against every block.
    """
    t = Fraction(t)
    check_partition(lam)
    d = size(lam)
    op_t = d_op(lam, t).map_coeffs(lambda c: c.eval(t))
    kb = kbar(t)
    integer_k = is_even_nonpositive(t)
    values: dict[Pair2, Fraction] = {}
    duals: list[tuple[Block, DualScalar]] = []
    for m in range(d + 1):
        for b in blocks(m, t):
            dv = block_eval(op_t, b)
            duals.append((b, dv))
            values[b.lam] = dv.value
            if b.mult == 2:
                values[paired(b.lam, int(kb), PClass.QUASIREGULAR)] = dv.nil
    f = interpolate_ev(values, d, kb)
    sq = square_op(f)
    for b, dv in duals:
        pt = eval_point(b.lam, kb)
        if f.eval2(*pt) != dv.value:
            raise InterpolationMismatch(f"value mismatch on block {b.lam} at t={t}")
        if b.mult == 2 and sq.eval2(*pt) != dv.nil:
            raise InterpolationMismatch(f"nil mismatch on block {b.lam} at t={t}")
    return f


def cat_eig_formula(lam: Pair2, t: Fraction) -> BiPoly:
    """Closed forms for the eigenvalue polynomial.

    Generic t (or regular lam): P_lam / H_lam at kappa = -t/2.  At
    non-positive even t the singular and quasiregular cases are s -> t
    limits computed by substituting kappa := -s/2 into the coefficients and
    taking exact regular values; double poles cannot survive the combination
    and would raise.
    """
    t = Fraction(t)
    check_partition(lam)
    kb = kbar(t)
    if is_even_nonpositive(t):
        k = int(kb)
        cls = classify(lam, k)
        if cls is PClass.SINGULAR:
            lamd = paired(lam, k, cls)
            gap = RatFunc((c_cat_poly(lamd) - c_cat_poly(lam)))
            scale = gap / RatFunc(h_poly(lamd).compose(HALF_NEG_S))
            body_s = ks_poly(lamd).body.map_coeffs(
                lambda c: c.substitute(HALF_NEG_S) * scale
            )
            return body_s.map_coeffs(lambda c: c.eval(t))
        if cls is PClass.QUASIREGULAR:
            lamd = paired(lam, k, cls)
            inv_h = RatFunc.one() / RatFunc(h_poly(lam).compose(HALF_NEG_S))
            inv_hd = RatFunc.one() / RatFunc(h_poly(lamd).compose(HALF_NEG_S))
            body_s = ks_poly(lam).body.map_coeffs(
                lambda c: c.substitute(HALF_NEG_S) * inv_h
            ) + ks_poly(lamd).body.map_coeffs(lambda c: c.substitute(HALF_NEG_S) * inv_hd)
            return body_s.map_coeffs(lambda c: c.eval(t))
    h = h_poly(lam)
    h_val = Fraction(h(kb))
    if not h_val:
        raise AssertionError(f"H_{lam}({kb}) = 0 outside the quasiregular case")
    return ks_poly(lam).body.map_coeffs(lambda c: c.eval(kb) / h_val)


def singular_scale_limit(lam: Pair2, k: int) -> tuple[Fraction, Fraction]:
    """Scalar bridge between the categorical and the plain singular formulas:

        lim_{s -> -2k} (c_{lam+}(s) - c_lam(s)) / H_{lam+}(-s/2)
            = 4 (l1 - l2 - k - 1) / H'_{lam+}(k).

    Returns both sides, exactly.
    """
    lamd = paired(lam, k, PClass.SINGULAR)
    ratio = RatFunc(c_cat_poly(lamd) - c_cat_poly(lam)) / RatFunc(
        h_poly(lamd).compose(HALF_NEG_S)
    )
    lhs = ratio.eval(Fraction(-2 * k))
    rhs = Fraction(4 * (lam[0] - lam[1] - k - 1)) / h_poly(lamd).derivative()(k)
    return lhs, rhs


# -- verification helpers ----------------------------------------------------------------


def min_poly_is_minimal(d: int, t: Fraction) -> bool:
    """The displayed product annihilates every size-d block and no proper
    monic divisor does (checked by dropping one root multiplicity at a time)."""
    t = Fraction(t)
    p = min_poly(d, t)
    blks = blocks(d, t)

    def annihilated(poly: UniPoly) -> bool:
        for b in blks:
            c_dual = DualScalar(c_cat(b.lam, t), Fraction(1 if b.mult == 2 else 0))
            acc = DualScalar(Fraction(0))
            power = DualScalar(Fraction(1))
            for coeff in poly.coeffs:
                acc = acc + power * coeff
                power = power * c_dual
            if not acc.is_zero():
                return False
        return True

    if not annihilated(p):
        return False
    roots = {Fraction(a * (a + t - 2)) for a in range(d % 2, d + 1, 2)}
    for u in roots:
        reduced = p.divexact(UniPoly((-u, 1)))
        if annihilated(reduced):
            return False
    return True
