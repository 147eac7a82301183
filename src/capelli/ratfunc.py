"""Exact univariate polynomials and rational functions over the rationals.

Everything in this package is computed over Q or over the rational function
field Q(kappa) in one formal parameter; there is no floating point anywhere.
This module provides the two scalar-level building blocks:

* ``UniPoly``  -- dense univariate polynomial with ``Fraction`` coefficients,
* ``RatFunc``  -- quotient of two ``UniPoly`` kept in a canonical form
  (gcd-reduced, monic denominator), so that structural equality is semantic
  equality.

``RatFunc`` knows about its local behaviour at a rational point: its
simple-pole residue, regular value and the value of the derivative.  These
are read off the local expansion instead of being built as new ``RatFunc``
values: at a simple pole ``a`` the denominator is split once as
``den = (x - a) * d1``, and with ``num``, ``num'``, ``d1`` and ``d1'``
evaluated at ``a``

    residue       = num(a) / d1(a),
    regular value = (num'(a) - residue * d1'(a)) / d1(a),

while at a regular point the value and the derivative come from one Horner
pass over ``num`` and ``den``.  None of this normalizes, so it costs no
polynomial gcd.  Poles of order two or more are treated as hard errors
(``PoleError``); the objects this package builds are guaranteed to have
simple poles only, so a higher-order pole always signals a bug upstream.

Evaluation (``UniPoly.__call__`` and ``value_and_slope``, and
``BiPoly.eval2``) takes ``int`` or ``Fraction`` points and coefficients and
reads each as numerator and denominator (``as_ratio``,
``common_denominator``): the work runs on integers over one common
denominator, and one ``Fraction`` is built per result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PoleError(ArithmeticError):
    """Evaluation or residue extraction hit a pole.

    ``order`` is the pole order at ``point`` (positive integer).
    """

    def __init__(self, point: Fraction, order: int, message: str | None = None):
        self.point = point
        self.order = order
        super().__init__(message or f"pole of order {order} at {point}")


def _trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class UniPoly:
    """Univariate polynomial over Q, coefficients stored lowest degree first.

    The zero polynomial is the empty tuple; otherwise the trailing
    coefficient is nonzero.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        # Fraction(c) on a Fraction costs as much as building one; keep it as is
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        object.__setattr__(self, "coeffs", _trim(coeffs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("UniPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls(())

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((1,))

    @classmethod
    def const(cls, c: Scalar) -> "UniPoly":
        return cls((c,))

    @classmethod
    def x(cls) -> "UniPoly":
        return cls((0, 1))

    @classmethod
    def falling(cls, base: "UniPoly", n: int) -> list["UniPoly"]:
        """[(base)_(0), ..., (base)_(n)] with (base)_(m) = base (base - 1) ...
        (base - m + 1), each built from the one before.  The one builder of
        falling products in a polynomial argument; (base)_(n) is the last entry."""
        out = [cls.one()]
        for t in range(n):
            out.append(out[-1] * (base - t))
        return out

    # -- basic queries -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1 by convention."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        return self + (-_as_poly(other))

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "UniPoly":
        c = Fraction(c)
        return UniPoly([a * c for a in self.coeffs])

    # -- division ------------------------------------------------------

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.leading()
        dn = len(other.coeffs)
        while len(rem) >= dn and any(rem):
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) < dn:
                break
            q = rem[-1] / dlead
            shift = len(rem) - dn
            quot[shift] = q
            for i, b in enumerate(other.coeffs):
                rem[shift + i] -= q * b
            rem.pop()
        return UniPoly(quot), UniPoly(rem)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd via the Euclidean algorithm (gcd(0, 0) = 0)."""
        a, b = self, other
        while b:
            a, b = b, a.divmod(b)[1]
        return a.monic() if a else a

    def monic(self) -> "UniPoly":
        if not self.coeffs:
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        return self if lead == 1 else self.scale(Fraction(1) / lead)

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, a: Scalar) -> Fraction:
        """p(a) for a rational ``a`` (``int`` or ``Fraction``): Horner's rule
        on the integer numerators over one common denominator, with a = p/q
        homogenized, and one ``Fraction`` built at the end.  Any other
        argument, or a coefficient that is not rational, raises ``TypeError``."""
        nums, d = common_denominator(self.coeffs)
        p, q = as_ratio(a)
        it = reversed(nums)
        acc, qk = next(it, 0), 1
        for c in it:
            qk *= q
            acc = acc * p + c * qk
        return Fraction(acc, d * qk)

    def value_and_slope(self, a: Scalar) -> tuple[Fraction, Fraction]:
        """The pair (p(a), p'(a)) from one integer Horner pass, as ``__call__``."""
        nums, d = common_denominator(self.coeffs)
        p, q = as_ratio(a)
        it = reversed(nums)
        val, slope, qk = next(it, 0), 0, 1
        for c in it:
            qk *= q
            slope = slope * p + val
            val = val * p + c * qk
        # val is over d q^deg and slope over d q^(deg - 1)
        return Fraction(val, d * qk), Fraction(slope * q, d * qk)

    def compose(self, inner: "UniPoly") -> "UniPoly":
        """Substitute ``inner`` for the variable."""
        acc = UniPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + UniPoly.const(c)
        return acc

    def multiplicity(self, a: Scalar) -> int:
        """Order of vanishing at the point ``a`` (0 if p(a) != 0)."""
        if not self.coeffs:
            raise ValueError("multiplicity undefined for the zero polynomial")
        a = Fraction(a)
        m, p = 0, self
        factor = UniPoly((-a, 1))
        while not p(a):
            p = p.divexact(factor)
            m += 1
        return m

    # -- protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.const(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_unipoly(self)


def common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: ``(nums, d)`` with
    ``coeffs[i] == nums[i] / d`` and ``d`` the lcm of the denominators.
    Reads only ``.numerator`` and ``.denominator``; a coefficient without
    them (a ``RatFunc``, say) raises ``TypeError``."""
    try:
        d = 1
        for c in coeffs:
            d = math.lcm(d, c.denominator)
        return [c.numerator * (d // c.denominator) for c in coeffs], d
    except AttributeError:
        raise TypeError("evaluation needs rational coefficients") from None


def as_ratio(a: Scalar) -> tuple[int, int]:
    """The point ``a`` as (p, q) with a = p / q and q > 0."""
    try:
        return a.numerator, a.denominator
    except AttributeError:
        raise TypeError(f"cannot evaluate at a {type(a).__name__}; need int or Fraction") from None


def _as_poly(v: "UniPoly | Scalar") -> UniPoly:
    if isinstance(v, UniPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return UniPoly.const(v)
    raise TypeError(f"cannot coerce {type(v).__name__} to UniPoly")


class RatFunc:
    """Quotient of two ``UniPoly`` in canonical form.

    Canonical form: numerator and denominator coprime, denominator monic,
    zero represented as 0/1.  All arithmetic re-normalizes, so ``==`` on the
    stored pair decides equality in Q(kappa); this is the workhorse identity
    check for the whole package.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: "UniPoly | Scalar", den: "UniPoly | Scalar" = 1):
        num, den = _as_poly(num), _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = UniPoly.one()
        else:
            g = num.gcd(den)
            if g.degree() > 0:
                num, den = num.divexact(g), den.divexact(g)
            lead = den.leading()
            if lead != 1:
                inv = Fraction(1) / lead
                num, den = num.scale(inv), den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatFunc is immutable")

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    # -- local analysis at a point ---------------------------------------------

    def eval(self, a: Scalar) -> Fraction:
        """Exact value at ``a``; raises ``PoleError`` (with the order) at a pole."""
        a = Fraction(a)
        d = self.den(a)
        if d:
            return self.num(a) / d
        raise PoleError(a, self.den.multiplicity(a))

    def _pole_cofactor(self, a: Fraction) -> UniPoly | None:
        """``d1`` with den = (x - a) * d1 when ``a`` is a simple pole, None
        when f is regular at ``a``; a pole of order two or more raises."""
        if self.den(a):
            return None
        cof = self.den.divexact(UniPoly((-a, 1)))
        if cof(a):
            return cof
        raise PoleError(a, self.den.multiplicity(a))

    def residue(self, a: Scalar) -> Fraction:
        """lim (x - a) * f; zero when f is regular at ``a``.

        Requires the pole (if any) to be simple; a double pole raises.
        """
        a = Fraction(a)
        cof = self._pole_cofactor(a)
        if cof is None:
            return Fraction(0)
        return self.num(a) / cof(a)

    def regular_value(self, a: Scalar) -> Fraction:
        """lim (f - residue/(x - a)); plain evaluation at regular points."""
        a = Fraction(a)
        cof = self._pole_cofactor(a)
        if cof is None:
            return self.eval(a)
        n0, n1 = self.num.value_and_slope(a)
        c0, c1 = cof.value_and_slope(a)
        return (n1 - n0 / c0 * c1) / c0

    def derivative_at(self, a: Scalar) -> Fraction:
        """f'(a) at a regular point ``a``; raises ``PoleError`` at a pole."""
        a = Fraction(a)
        d0, d1 = self.den.value_and_slope(a)
        if not d0:
            raise PoleError(a, self.den.multiplicity(a))
        n0, n1 = self.num.value_and_slope(a)
        return (n1 * d0 - n0 * d1) / (d0 * d0)

    # -- calculus and substitution ---------------------------------------------

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def substitute(self, inner: UniPoly) -> "RatFunc":
        """Substitute the polynomial ``inner`` for the variable."""
        den = self.den.compose(inner)
        if not den:
            raise ZeroDivisionError("substitution annihilates the denominator")
        return RatFunc(self.num.compose(inner), den)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self) -> str:
        return render_ratfunc(self)


def _as_ratfunc(v) -> "RatFunc":
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction, UniPoly)):
        return RatFunc(_as_poly(v))
    return NotImplemented


# -- rendering -----------------------------------------------------------------
#
# Deterministic plain-text forms used by the CLI and by reports: descending
# powers, no whitespace inside a polynomial, rationals always as p or p/q.


def render_frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def render_unipoly(p: UniPoly, var: str = "κ") -> str:
    if not p.coeffs:
        return "0"
    parts: list[str] = []
    for i in range(p.degree(), -1, -1):
        c = p[i]
        if not c:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = var
        else:
            mono = f"{var}^{i}"
        if not mono:
            body = render_frac(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = render_frac(abs(c)) + mono
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


def render_ratfunc(f: RatFunc, var: str = "κ") -> str:
    num = render_unipoly(f.num, var)
    if f.den.degree() == 0:
        return num
    den = render_unipoly(f.den, var)
    num_s = num if ("+" not in num[1:] and "-" not in num[1:]) else f"({num})"
    den_s = den if ("+" not in den[1:] and "-" not in den[1:] and "/" not in den) else f"({den})"
    return f"{num_s}/{den_s}"
