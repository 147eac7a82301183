"""Integer partitions of length at most two and their k-classification.

A partition is a plain pair ``(l1, l2)`` with ``l1 >= l2 >= 0``.  For each
non-negative integer parameter ``k`` the partitions split into three classes
(regular / quasiregular / singular) that control everything downstream: pole
structure of the interpolation polynomials, which eigenvalue formula applies,
and which blocks exist on the categorical side.

The dagger involution

    (l1, l2) |-> (l2 + k + 1, l1 - k - 1)

pairs each k-singular partition with a k-quasiregular one of the same size;
for the self-paired regular boundary ``l1 - l2 = k + 1`` it is the identity,
and for the remaining regular partitions it leaves the partition lattice
(absence is a value, not an error).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import lru_cache

from .hypergeom import pochhammer_num
from .ratfunc import UniPoly, as_ratio

Pair2 = tuple[int, int]


class PClass(enum.Enum):
    REGULAR = "regular"
    QUASIREGULAR = "quasiregular"
    SINGULAR = "singular"


def check_partition(lam: Pair2) -> Pair2:
    l1, l2 = lam
    if not (isinstance(l1, int) and isinstance(l2, int) and l1 >= l2 >= 0):
        raise ValueError(f"{lam!r} is not a partition of length <= 2")
    return (l1, l2)


def size(lam: Pair2) -> int:
    return lam[0] + lam[1]


def classify(lam: Pair2, k: int) -> PClass:
    """Trichotomy: exactly one class holds for every (lam, k)."""
    l1, l2 = check_partition(lam)
    if k < 0:
        raise ValueError("classification parameter k must be >= 0")
    diff = l1 - l2
    if k + 2 <= diff <= 2 * k + 2:
        return PClass.SINGULAR
    if l1 >= k + 1 and diff <= k:
        return PClass.QUASIREGULAR
    return PClass.REGULAR


def classify_at(lam: Pair2, k) -> PClass:
    """The class of lam at a rational parameter k.

    The trichotomy exists only at a non-negative integer k; at any other
    rational parameter every partition behaves as regular.  k is an ``int``
    or a ``Fraction``; anything else raises ``TypeError``.
    """
    p, q = as_ratio(k)
    if q == 1 and p >= 0:
        return classify(lam, p)
    check_partition(lam)
    return PClass.REGULAR


def dagger(lam: Pair2, k: int) -> Pair2 | None:
    """The involution partner, or None when it is not a partition."""
    l1, l2 = check_partition(lam)
    cand = (l2 + k + 1, l1 - k - 1)
    if cand[0] >= cand[1] >= 0:
        return cand
    return None


def paired(lam: Pair2, k: int, cls: PClass) -> Pair2:
    """The dagger partner of a k-``cls`` partition (singular or quasiregular).

    The one class guard of the dagger pairs: raises ``ValueError`` unless lam
    is k-``cls``; the partner of such a partition always exists.
    """
    if classify(lam, k) is not cls:
        raise ValueError(f"{lam} is not {k}-{cls.value}")
    lamd = dagger(lam, k)
    assert lamd is not None
    return lamd


def h_poly(lam: Pair2) -> UniPoly:
    """The normalization polynomial

        H_lam(kappa) = (l1 - l2)! * l2! * (l1 - 1 - kappa)_(l2)

    of degree l2 in kappa.
    """
    l1, l2 = check_partition(lam)
    scale = math.factorial(l1 - l2) * math.factorial(l2)
    return UniPoly.falling(UniPoly((l1 - 1, -1)), l2)[-1].scale(scale)


def h_value(lam: Pair2, k) -> Fraction:
    """H_lam at a rational point kappa = k, on integers: with k = p/q,
    (l1 - 1 - k)_(l2) is ``pochhammer_num((l1 - 1) q - p, q, l2, -1)`` / q**l2.
    k is an ``int`` or a ``Fraction``; anything else raises ``TypeError``."""
    l1, l2 = check_partition(lam)
    p, q = as_ratio(k)
    scale = math.factorial(l1 - l2) * math.factorial(l2)
    return Fraction(scale * pochhammer_num((l1 - 1) * q - p, q, l2, -1), q**l2)


def c_super(lam: Pair2, k: int) -> Fraction:
    """Casimir eigenvalue (l2 - l1) (2k + 2 + l2 - l1)."""
    l1, l2 = check_partition(lam)
    return Fraction((l2 - l1) * (2 * k + 2 + l2 - l1))


def c_cat(lam: Pair2, t: Fraction | UniPoly) -> Fraction | UniPoly:
    """Categorical Casimir eigenvalue a (a + t - 2), a = l1 - l2, the one
    definition: at a rational dimension t = p/q as the one ``Fraction``
    a ((a - 2) q + p) / q, and as a polynomial in the deformation parameter
    s when t is ``UniPoly.x()``, or in kappa when t is -2 kappa."""
    l1, l2 = check_partition(lam)
    a = l1 - l2
    if isinstance(t, UniPoly):
        return a * (a - 2 + t)
    p, q = as_ratio(t)
    return Fraction(a * ((a - 2) * q + p), q)


def ell(lam: Pair2, k: int) -> int:
    """Depth l2 - l1 + k of a k-quasiregular partition; lies in [0, k]."""
    if classify(lam, k) is not PClass.QUASIREGULAR:
        raise ValueError(f"{lam} is not {k}-quasiregular")
    return lam[1] - lam[0] + k


def nu(lam: Pair2, mu: Pair2, k: int) -> Pair2:
    """Shifted partition (l1 - m1, l2 + m2) for mu of size <= k - ell(lam)."""
    l = ell(lam, k)
    m1, m2 = check_partition(mu)
    if m1 + m2 > k - l:
        raise ValueError(f"{mu} exceeds the admissible size {k - l}")
    out = (lam[0] - m1, lam[1] + m2)
    if out[0] < out[1] or out[1] < 0:
        raise ValueError(f"shift of {lam} by {mu} leaves the partition lattice")
    return out


# -- enumeration -----------------------------------------------------------------
#
# Graded-lexicographic order throughout: ascending size, then ascending l1.
# This is the canonical ordering for report output and for the interpolation
# basis, so it must never change.


@lru_cache(maxsize=None)
def of_size(d: int) -> tuple[Pair2, ...]:
    """All partitions of size exactly d, lex ascending: (ceil(d/2), ...) last."""
    if d < 0:
        raise ValueError("size must be >= 0")
    lo = (d + 1) // 2
    return tuple((l1, d - l1) for l1 in range(lo, d + 1))


@lru_cache(maxsize=None)
def upto(d: int) -> tuple[Pair2, ...]:
    """All partitions of size <= d in graded-lex order."""
    out: list[Pair2] = []
    for m in range(d + 1):
        out.extend(of_size(m))
    return tuple(out)
