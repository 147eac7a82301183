"""Sparse bivariate polynomials over a generic exact coefficient field.

Coefficients may be ``Fraction`` or ``RatFunc`` (anything with exact ring
arithmetic and a truthiness test for zero) for arithmetic, the basis
changes and ``square_op``.  Evaluation is rational only: ``eval_at`` takes
``Fraction`` or ``int`` coefficients and a list of points, brings the
coefficients to one common denominator once per call and sums each point
on integer numerators; a single point is a list of one.  A ``RatFunc``
coefficient must be specialized first.

The canonical internal form is the ordinary monomial basis; the
falling-factorial basis

    x_(m) = x (x-1) ... (x-m+1)

exists only at construction / extraction boundaries, where its triangularity
against the monomial basis makes both directions cheap and exact.

The module also houses the first-order symmetry operator

    sq(f) = (df/dx - df/dy) / (4 (x - y)).

For symmetric ``f`` the numerator is antisymmetric, and the quotient of each
antisymmetric pair of its terms by ``x - y`` has a closed form, so no
polynomial division runs.  A term whose mirror is not its negative is an
internal error (``ArithmeticError``), never dropped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence, Tuple

from .ratfunc import RatFunc, UniPoly, as_ratio, common_denominator, render_frac, render_ratfunc

Key = Tuple[int, int]


class BiPoly:
    """Sparse polynomial in x, y; ``terms`` maps (i, j) to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, object] = {}):  # the default is only read
        clean = {}
        for (i, j), c in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent pair ({i}, {j})")
            if c:
                clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("BiPoly is immutable")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    # -- queries ---------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        """Maximum of i + j over stored terms; -1 for the zero polynomial."""
        return max((i + j for i, j in self.terms), default=-1)

    def is_symmetric(self) -> bool:
        for (i, j), c in self.terms.items():
            if i != j and self.terms.get((j, i)) != c:
                return False
        return True

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            out[k] = c if s is None else s + c
        return BiPoly(out)

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return self + (-other)

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        out: dict[Key, object] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                p = c1 * c2
                s = out.get(k)
                out[k] = p if s is None else s + p
        return BiPoly(out)

    def scale(self, c) -> "BiPoly":
        if not c:
            return BiPoly.zero()
        return BiPoly({k: v * c for k, v in self.terms.items()})

    # -- calculus -------------------------------------------------------------

    def partials(self) -> tuple["BiPoly", "BiPoly"]:
        """Exact pair (df/dx, df/dy)."""
        fx: dict[Key, object] = {}
        fy: dict[Key, object] = {}
        for (i, j), c in self.terms.items():
            if i:
                fx[(i - 1, j)] = c * i
            if j:
                fy[(i, j - 1)] = c * j
        return BiPoly(fx), BiPoly(fy)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, points: Sequence[tuple]) -> list[Fraction]:
        """f at each (a, b) of ``points``, in order, for rational coefficients
        and rational points (``int`` or ``Fraction``); anything else, a
        ``RatFunc`` coefficient or a ``float`` coordinate say, raises
        ``TypeError``.  The coefficients go to integer numerators over their
        common denominator d once per call (not at all for an empty list).
        With a = p/q and b = r/s the sum at a point runs over integers, the
        numerators times p^i q^(I-i) r^j s^(J-j), I and J the largest
        exponents, and one ``Fraction`` divides it by d q^I s^J."""
        if not points:
            return []
        nums, d = common_denominator(self.terms.values())
        top_i = max((i for i, _ in self.terms), default=0)
        top_j = max((j for _, j in self.terms), default=0)
        keyed = list(zip(self.terms, nums))
        out = []
        for a, b in points:
            xs = _homogenized_powers(*as_ratio(a), top_i)
            ys = _homogenized_powers(*as_ratio(b), top_j)
            acc = 0
            for (i, j), c in keyed:
                acc += c * xs[i] * ys[j]
            out.append(Fraction(acc, d * xs[0] * ys[0]))
        return out

    def map_coeffs(self, transform: Callable) -> "BiPoly":
        """Apply ``transform`` to every coefficient, dropping resulting zeros."""
        return BiPoly({k: transform(c) for k, c in self.terms.items()})

    # -- protocol --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"BiPoly({self.terms!r})"

    def __str__(self) -> str:
        return render_bipoly(self)


def _homogenized_powers(p: int, q: int, n: int) -> list[int]:
    """[p^i q^(n-i) for i = 0..n], the powers of p/q over q^n."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * p)
    qk = 1
    for i in range(n - 1, -1, -1):
        qk *= q
        out[i] *= qk
    return out


# -- falling-factorial basis ---------------------------------------------------


@lru_cache(maxsize=None)
def falling_coeffs(m: int) -> tuple[int, ...]:
    """Monomial coefficients of x_(m), lowest degree first: the signed
    Stirling numbers of the first kind, read as integers off
    ``UniPoly.falling``, the one builder of falling products."""
    if m < 0:
        raise ValueError("falling factorial needs a non-negative exponent")
    return UniPoly.falling(UniPoly.x(), m)[m].nums


@lru_cache(maxsize=None)
def falling_term(m: int, n: int) -> BiPoly:
    """x_(m) * y_(n) expanded into the monomial basis (unit coefficient)."""
    xs = falling_coeffs(m)
    ys = falling_coeffs(n)
    out = {}
    for i, a in enumerate(xs):
        if not a:
            continue
        for j, b in enumerate(ys):
            if b:
                out[(i, j)] = a * b
    return BiPoly(out)


def from_falling(terms: Iterable[tuple[object, int, int]]) -> BiPoly:
    """Sum of coeff * x_(m) * y_(n) terms, in canonical monomial form.

    The terms accumulate into one dict; ``BiPoly`` drops the keys that
    cancel to zero."""
    acc: dict[Key, object] = {}
    for coeff, m, n in terms:
        if coeff:
            for k, v in falling_term(m, n).terms.items():
                s = acc.get(k)
                acc[k] = v * coeff if s is None else s + v * coeff
    return BiPoly(acc)


def falling_expansion(f: BiPoly) -> dict[Key, object]:
    """Coefficients of ``f`` in the (unique) falling-factorial basis.

    Peels from the top: x_(m) y_(n) = x^m y^n + componentwise-smaller
    monomials, so repeatedly removing the currently largest monomial
    terminates and is exact.  The remainder is one dict, updated in place
    by adding v * (-c), as a ``RatFunc`` has no subtraction.
    """
    out: dict[Key, object] = {}
    rem = dict(f.terms)
    while rem:
        top = max(rem, key=lambda k: (k[0] + k[1], k[0]))
        c = out[top] = rem.pop(top)
        neg = -c
        for k, v in falling_term(*top).terms.items():
            if k != top:
                s = rem.pop(k, None)
                s = v * neg if s is None else s + v * neg
                if s:
                    rem[k] = s
    return out


# -- the symmetry operator ----------------------------------------------------


def square_op(f: BiPoly) -> BiPoly:
    """(df/dx - df/dy) / (4 (x - y)) for symmetric ``f``.

    The numerator g is antisymmetric, a sum of c (x^i y^j - x^j y^i) over
    i > j, and each such pair is c (x - y) times the sum of x^(j+t)
    y^(i-1-t) over t < i - j: the quotient is read off g term by term.
    """
    if not f.is_symmetric():
        raise ValueError("square_op requires a symmetric polynomial")
    fx, fy = f.partials()
    g = (fx - fy).terms
    quot: dict[Key, object] = {}
    for (i, j), c in g.items():
        if g.get((j, i)) != -c:
            raise ArithmeticError("df/dx - df/dy is not antisymmetric")
        for t in range(i - j):
            k = (j + t, i - 1 - t)
            s = quot.get(k)
            quot[k] = c if s is None else s + c
    return BiPoly(quot).map_coeffs(lambda c: c * Fraction(1, 4))


# -- rendering ------------------------------------------------------------------


def _coeff_str(c) -> str:
    if isinstance(c, Fraction):
        return render_frac(c)
    if isinstance(c, RatFunc):
        return render_ratfunc(c)
    return str(c)


def _is_atom(s: str) -> bool:
    if s.startswith("-"):
        return False
    return all(ch not in s for ch in "+-/ ")


def render_bipoly(f: BiPoly, falling: bool = False) -> str:
    """Deterministic graded-lex rendering, e.g. ``x^2y + 2xy - (1/2)x``."""
    if falling:
        terms = falling_expansion(f)
        fmt = lambda v, e: f"{v}_({e})"
    else:
        terms = f.terms
        fmt = lambda v, e: v if e == 1 else f"{v}^{e}"
    if not terms:
        return "0"
    keys = sorted(terms, key=lambda k: (-(k[0] + k[1]), -k[0]))
    parts: list[str] = []
    for i, j in keys:
        c = terms[(i, j)]
        mono = (fmt("x", i) if i else "") + (fmt("y", j) if j else "")
        s = _coeff_str(c)
        # strip a leading minus only when the rest is a single term
        neg = s.startswith("-") and "+" not in s[1:] and "-" not in s[1:]
        if neg:
            s = s[1:]
        if mono:
            if s == "1":
                body = mono
            else:
                body = (s if _is_atom(s) else f"({s})") + mono
        else:
            body = s if _is_atom(s) else f"({s})"
        if not parts:
            parts.append(body if not neg else "-" + body)
        else:
            parts.append(f" {'-' if neg else '+'} {body}")
    return "".join(parts)
