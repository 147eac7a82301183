"""Exact univariate polynomials and rational functions over the rationals.

Everything in this package is computed over Q or over the rational function
field Q(kappa) in one formal parameter; there is no floating point anywhere.
This module provides the two scalar-level building blocks:

* ``UniPoly``  -- dense univariate polynomial stored as integer numerators
  over one positive denominator coprime to their content,
* ``RatFunc``  -- quotient of two ``UniPoly`` kept in a canonical form
  (gcd-reduced, monic denominator), so that structural equality is semantic
  equality.

Both forms are canonical, and all the work runs on integers: sums and
products on the numerators, division as integer pseudo-division, and the
gcd as the primitive pseudo-remainder sequence over Z (Knuth, TAOCP vol. 2,
section 4.6.1), made monic at the end.  ``Fraction`` coefficients
(``UniPoly.coeffs``) are built only at the boundary, for rendering.

Local analysis at a rational point has one kernel, ``local_values``.  It
reads a list of numerators N over one shared denominator D, which need not
be coprime to them, at a = p/q: one integer Horner pass over D gives D(a),
D'(a) and D''(a)/2 with the point homogenized (Knuth, TAOCP vol. 2,
section 4.6.4), one pass per numerator gives N(a), N'(a) and N''(a)/2, and
at a simple root of D

    residue       = N(a) / D'(a),
    regular value = (N'(a) D'(a) - N(a) D''(a)/2) / D'(a)^2,
    slope         = (N''(a)/2 D'(a) - N'(a) D''(a)/2) / D'(a)^2   if N(a) = 0,

while at a regular point the residue is 0, the regular value N/D and the
slope (N' D - N D') / D^2.  Each result is one ``Fraction`` of integers; no
polynomial division, gcd or ``Fraction`` arithmetic runs.  A root of D of
order two or more is a hard error (``PoleError``); the objects this package
builds are guaranteed to have simple poles only, so a higher-order pole
always signals a bug upstream.  It is also the one place a slope of a
quotient is read, so ``RatFunc`` has no derivative of its own.

Evaluation (``UniPoly.__call__`` and ``value_and_slope``, ``RatFunc.eval``
and ``BiPoly.eval_at``) takes ``int`` or ``Fraction`` points and
reads each as numerator and denominator (``as_ratio``; ``UniPoly.__call__``
and ``RatFunc.eval`` share one integer Horner kernel, and ``BiPoly`` brings
its coefficients to one denominator with ``common_denominator`` once per
point list), and one ``Fraction`` is built per result.  A polynomial is
built from ``int`` or ``Fraction`` coefficients only, and
``local_values`` takes the same points: anything else, a ``float``
or a string, raises ``TypeError``.
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

    def __init__(self, point: Scalar, order: int, message: str | None = None):
        self.point = point
        self.order = order
        super().__init__(message or f"pole of order {order} at {point}")


class UniPoly:
    """Univariate polynomial over Q: integer numerators over one denominator.

    ``nums`` holds the integer numerators, lowest degree first, and ``den``
    the positive common denominator, so coefficient i is ``nums[i] / den``.
    The form is canonical: the last numerator is nonzero (the zero
    polynomial is ``()`` over 1) and ``den`` is coprime to the content, the
    gcd of the numerators.  So ``==`` and ``hash`` on the pair decide
    equality.  Arithmetic, division and gcds run on the integers; ``coeffs``
    is a ``Fraction`` view for rendering and other boundaries.  Instances
    are immutable and hashable.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        nums, den = common_denominator(list(coeffs))
        while nums and not nums[-1]:
            nums.pop()
        # the lcm of reduced denominators is already coprime to the content
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

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
        return bool(self.nums)

    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1 by convention."""
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as ``Fraction``s, lowest degree first."""
        return tuple(Fraction(n, self.den) for n in self.nums)

    # -- ring operations -----------------------------------------------

    def __add__(self, other: "UniPoly | Scalar") -> "UniPoly":
        other = _as_poly(other)
        a, b, den = self.nums, other.nums, self.den
        if not b:
            return self
        if not a:
            return other
        if den != other.den:
            g = math.gcd(den, other.den)
            ma, mb = other.den // g, den // g
            a, b, den = [c * ma for c in a], [c * mb for c in b], den * ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _reduced(out, den)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return _canonical(tuple(-c for c in self.nums), self.den)

    def __sub__(self, other: "UniPoly | Scalar") -> "UniPoly":
        return self + (-_as_poly(other))

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if type(other) is int:  # a bool takes the general path
            return self.scale(other)
        other = _as_poly(other)
        a, b = self.nums, other.nums
        if not a or not b:
            return UniPoly.zero()
        return _reduced(_convolve(a, b), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "UniPoly":
        p, q = as_ratio(c)
        return _reduced([n * p for n in self.nums], self.den * q)

    # -- division ------------------------------------------------------

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """(q, r) with self = q * other + r and deg r < deg other, from one
        integer pseudo-division of the numerators: with self = A / a and
        other = B / b, s A = Q B + R gives q = b Q / (a s) and r = R / (a s)."""
        if not other.nums:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, s = _pseudo_divmod(self.nums, other.nums)
        if other.den != 1:
            quot = [c * other.den for c in quot]
        return _reduced(quot, self.den * s), _reduced(rem, self.den * s)

    def divexact(self, other: "UniPoly") -> "UniPoly":
        q, r = self.divmod(other)
        if r:
            raise ArithmeticError("inexact polynomial division")
        return q

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd (gcd(0, 0) = 0) by the primitive pseudo-remainder
        sequence over Z: each remainder is divided by its content, so the
        numerators stay as small as the gcd's own."""
        a, b = _primitive(self.nums), _primitive(other.nums)
        if len(a) < len(b):
            a, b = b, a
        while b:
            if len(b) == 1:  # a nonzero constant divides everything
                return UniPoly.one()
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        if not a:
            return UniPoly.zero()
        # primitive, so its content is coprime to the leading coefficient
        return _canonical(a, a[-1]) if a[-1] > 0 else _canonical(tuple(-c for c in a), -a[-1])

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "UniPoly":
        return _reduced([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def __call__(self, a: Scalar) -> Fraction:
        """p(a) for a rational ``a`` (``int`` or ``Fraction``): Horner's rule
        on the integer numerators, with a = p/q homogenized, and one
        ``Fraction`` built at the end.  Any other argument raises
        ``TypeError``."""
        return Fraction(*_horner(self, a))

    def value_and_slope(self, a: Scalar) -> tuple[Fraction, Fraction]:
        """The pair (p(a), p'(a)) from one integer Horner pass, as ``__call__``."""
        p, q = as_ratio(a)
        it = reversed(self.nums)
        val, slope, qk = next(it, 0), 0, 1
        for c in it:
            qk *= q
            slope = slope * p + val
            val = val * p + c * qk
        # val is over den q^deg and slope over den q^(deg - 1)
        return Fraction(val, self.den * qk), Fraction(slope * q, self.den * qk)

    def multiplicity(self, a: Scalar) -> int:
        """Order of vanishing at the point ``a`` (0 if p(a) != 0)."""
        if not self.nums:
            raise ValueError("multiplicity undefined for the zero polynomial")
        m, p = 0, self
        factor = UniPoly((-a, 1))
        while not p(a):
            p = p.divexact(factor)
            m += 1
        return m

    # -- protocol -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == _as_poly(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return render_unipoly(self)


def _horner(poly: UniPoly, a: Scalar) -> tuple[int, int]:
    """``poly`` at a = p/q as the integer pair (value * den, den), den =
    poly.den q^deg: Horner's rule on the numerators with the point
    homogenized, the one kernel of ``UniPoly.__call__`` and ``RatFunc.eval``."""
    p, q = as_ratio(a)
    it = reversed(poly.nums)
    acc, qk = next(it, 0), 1
    for c in it:
        qk *= q
        acc = acc * p + c * qk
    return acc, poly.den * qk


def _taylor(poly: UniPoly, p: int, q: int) -> tuple[tuple[int, int, int], int]:
    """((t0, t1, t2), s) with poly(a) = t0/s, poly'(a) = t1/s and
    poly''(a)/2 = t2/s at a = p/q, s = poly.den q^deg: one Horner pass on
    the integer numerators with the point homogenized."""
    it = reversed(poly.nums)
    v0, v1, v2, qk = next(it, 0), 0, 0, 1
    for c in it:
        qk *= q
        v2 = v2 * p + v1
        v1 = v1 * p + v0
        v0 = v0 * p + c * qk
    # v1 is over q^(deg - 1) and v2 over q^(deg - 2)
    return (v0, v1 * q, v2 * q * q), poly.den * qk


# the Laurent order each kind reads: h^-1, h^0 and h^1 in h = x - a
_ORDER = {"residue": -1, "value": 0, "slope": 1}


def local_values(nums: list[UniPoly], den: UniPoly, a: Scalar, kind: str) -> list[Fraction]:
    """The residue, regular value or slope (``kind``) at ``a`` of each
    num / den, for numerators over one shared ``den`` that need not be
    coprime to them: the coefficient of h^-1, h^0 or h^1 in h = x - a.

    With Ni and Di the Taylor coefficients at ``a`` and a j-fold root of den
    there (j = 0 or 1), that coefficient is (Ni Dj - Ni-1 Dj+1) / Dj^2 at
    i = j - 1, j or j + 1, with Ni = 0 for i < 0.  A slope at a root needs
    N0 = 0, else it raises ``PoleError`` of order 1; a root of order two or
    more raises ``PoleError`` with its order."""
    p, q = as_ratio(a)
    (d0, d1, d2), sd = _taylor(den, p, q)
    if d0:
        i, dj, dk = _ORDER[kind], d0, d1
    elif d1:
        i, dj, dk = _ORDER[kind] + 1, d1, d2
    else:
        raise PoleError(a, den.multiplicity(a))
    if i < 0:  # the residue at a regular point
        return [Fraction(0)] * len(nums)
    out = []
    for num in nums:
        t, sn = _taylor(num, p, q)
        if i == 2 and t[0]:
            raise PoleError(a, 1)
        out.append(Fraction((t[i] * dj - (t[i - 1] * dk if i else 0)) * sd, sn * dj * dj))
    return out


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """The product of two nonempty integer coefficient lists, lowest degree
    first: the one polynomial product on numerators."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _canonical(nums: tuple[int, ...], den: int) -> UniPoly:
    """A ``UniPoly`` from numerators and a denominator already in canonical form."""
    p = object.__new__(UniPoly)
    object.__setattr__(p, "nums", nums)
    object.__setattr__(p, "den", den)
    return p


def _reduced(nums: list[int], den: int) -> UniPoly:
    """``nums / den`` for a nonzero ``den``, brought to canonical form."""
    while nums and not nums[-1]:
        nums.pop()
    if not nums:
        return _canonical((), 1)
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
    return _canonical(tuple(nums), den)


def _primitive(nums: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """The numerators divided by their content (the gcd, taken positive)."""
    g = math.gcd(*nums)
    return tuple(nums) if g == 1 else tuple(c // g for c in nums)


def _pseudo_divmod(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Integer pseudo-division with a running scale: (q, r, s) with
    s a = q b + r, deg r < deg b and s > 0.  At each step the partial
    remainder and quotient are multiplied by the least positive integer that
    makes the next quotient coefficient integral, so s is 1 whenever the
    division is exact over Z.  ``b`` is nonzero and trimmed."""
    rem, quot, s = list(a), [0] * max(len(a) - len(b) + 1, 0), 1
    lead, top = b[-1], len(b) - 1
    for shift in range(len(quot) - 1, -1, -1):
        r = rem[shift + top]
        if not r:
            continue
        m = abs(lead) // math.gcd(r, lead)
        if m != 1:
            rem = [c * m for c in rem[:shift + top + 1]]
            quot = [c * m for c in quot]
            s *= m
            r *= m
        c = quot[shift] = r // lead
        for i, y in enumerate(b, shift):
            rem[i] -= c * y
    del rem[top:]
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem, s


def common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: ``(nums, d)`` with
    ``coeffs[i] == nums[i] / d`` and ``d`` the lcm of the denominators.
    Reads only ``.numerator`` and ``.denominator``; a coefficient without
    them (a ``float`` or a ``RatFunc``, say) raises ``TypeError``."""
    try:
        d = 1
        for c in coeffs:
            d = math.lcm(d, c.denominator)
        return [c.numerator * (d // c.denominator) for c in coeffs], d
    except AttributeError:
        raise TypeError("need int or Fraction coefficients") from None


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
        return _reduced([v.numerator], v.denominator)
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
            lead, d = den.nums[-1], den.den
            if lead != d:  # divide both by the leading coefficient lead / d
                num = _reduced([c * d for c in num.nums], num.den * lead)
                den = _reduced(list(den.nums), lead)
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
        """Exact value at ``a``: num and den read at ``a`` by the integer
        Horner kernel of ``UniPoly.__call__``, and one ``Fraction`` built of
        their quotient; raises ``PoleError`` (with the order) at a pole."""
        dv, dd = _horner(self.den, a)
        if dv:
            nv, nd = _horner(self.num, a)
            return Fraction(nv * dd, nd * dv)
        raise PoleError(a, self.den.multiplicity(a))

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
    if not p:
        return "0"
    parts: list[str] = []
    for i, c in reversed(list(enumerate(p.coeffs))):
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
