"""``UniPoly`` and ``RatFunc`` against the plain ``Fraction`` reference of
``reference_poly``, operation by operation.

The package stores a polynomial as integer numerators over one positive
denominator coprime to their content; the reference stores ``Fraction``
coefficients.  The strategies reach the zero polynomial, constants, degree
15, and contents of either sign with up to 30 digits above and below the
line.
"""

import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_poly as ref
from capelli.ratfunc import PoleError, RatFunc, UniPoly, local_values

BIG = 10**30

small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
contents = st.one_of(
    st.just(Q(1)),
    st.builds(Q, st.integers(-BIG, BIG).filter(bool), st.integers(1, BIG)),
)
points = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=5))


@st.composite
def coeff_lists(draw, max_size=16):
    """Coefficients lowest degree first: small rationals times one content."""
    c = draw(contents)
    return [x * c for x in draw(st.lists(small, max_size=max_size))]


def _canonical(p: UniPoly) -> bool:
    nums, den = p.nums, p.den
    return (all(type(c) is int for c in nums) and type(den) is int and den > 0
            and (not nums or (nums[-1] != 0 and math.gcd(den, *nums) == 1))
            and (nums or den == 1))


def _same(got: UniPoly, want: ref.UniPoly) -> None:
    assert _canonical(got), (got.nums, got.den)
    assert got.coeffs == want.coeffs


def _both(coeffs):
    return UniPoly(coeffs), ref.UniPoly(coeffs)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists(), contents, points)
@example([], [], Q(1), 0)
@example([Q(-7, 3)], [Q(5)], Q(-1, 2), Q(1, 3))
def test_ring_and_calculus_match_reference(a, b, c, x):
    (p, rp), (q, rq) = _both(a), _both(b)
    _same(p, rp)
    _same(p + q, rp + rq)
    _same(p - q, rp - rq)
    _same(-p, -rp)
    _same(p * q, rp * rq)
    _same(p + c, rp + c)
    _same(p * c, rp * c)
    _same(p.scale(c), rp.scale(c))
    _same(p.derivative(), rp.derivative())
    assert p(x) == rp(x)
    assert p.value_and_slope(x) == rp.value_and_slope(x)
    assert (p == q) == (rp == rq) and (p == c) == (rp == c)
    assert p.degree() == rp.degree() and bool(p) == bool(rp)
    for got, want in zip(UniPoly.falling(q, 3), ref.UniPoly.falling(rq, 3)):
        _same(got, want)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(), coeff_lists().filter(any))
@example([Q(1), Q(2), Q(3)], [Q(4)])
@example([Q(10**30 + 1, 3), 0, Q(5, 7)], [Q(-2, 10**29), Q(3, 10**29)])
def test_division_matches_reference(a, b):
    (p, rp), (q, rq) = _both(a), _both(b)
    (quot, rem), (rquot, rrem) = p.divmod(q), rp.divmod(rq)
    _same(quot, rquot)
    _same(rem, rrem)
    _same((p * q).divexact(q), rp)
    if rem:
        with pytest.raises(ArithmeticError):
            p.divexact(q)


@settings(max_examples=80, deadline=None)
@given(coeff_lists(8), coeff_lists(8), coeff_lists(7))
@example([], [], [])
@example([Q(3)], [], [Q(-1), Q(1)])
def test_gcd_matches_euclid(a, b, common):
    (p, rp), (q, rq), (g, rg) = _both(a), _both(b), _both(common)
    _same((p * g).gcd(q * g), (rp * rg).gcd(rq * rg))
    _same(p.gcd(q), rp.gcd(rq))


@settings(max_examples=60, deadline=None)
@given(coeff_lists(10).filter(any), points, st.integers(0, 3))
def test_multiplicity_matches_reference(a, x, m):
    p, rp = _both(a)
    linear, rlinear = _both((-Q(x), 1))
    for _ in range(m):
        p, rp = p * linear, rp * rlinear
    assert p.multiplicity(x) == rp.multiplicity(x) >= m


@st.composite
def ratfunc_pairs(draw, pole_at=None):
    """(RatFunc, reference RatFunc) built from one unreduced pair with a
    common factor; ``pole_at`` adds one factor x - a to the denominator."""
    num, den, common = draw(coeff_lists(6)), draw(coeff_lists(6).filter(any)), draw(coeff_lists(4).filter(any))
    n, rn = _both(num)
    d, rd = _both(den)
    g, rg = _both(common)
    if pole_at is not None:
        lin, rlin = _both((-Q(pole_at), 1))
        d, rd = d * lin, rd * rlin
    return RatFunc(n * g, d * g), ref.RatFunc(rn * rg, rd * rg)


def _same_ratfunc(f: RatFunc, rf: ref.RatFunc) -> None:
    _same(f.num, rf.num)
    _same(f.den, rf.den)


@settings(max_examples=50, deadline=None)
@given(ratfunc_pairs(), ratfunc_pairs())
@example((RatFunc(UniPoly((1, 1))), ref.RatFunc(ref.UniPoly((1, 1)))),
         (RatFunc(UniPoly((0, Q(-4, 3))), UniPoly((0, 1))), ref.RatFunc(ref.UniPoly((Q(-4, 3),)))))
def test_ratfunc_matches_reference(fs, gs):
    (f, rf), (g, rg) = fs, gs
    _same_ratfunc(f, rf)
    _same_ratfunc(f + g, rf + rg)
    _same_ratfunc(f * g, rf * rg)
    _same_ratfunc(-f, -rf)
    assert (f == g) == (rf.num == rg.num and rf.den == rg.den)


@settings(max_examples=60, deadline=None)
@given(points.flatmap(lambda a: st.tuples(st.just(a), ratfunc_pairs(a) | ratfunc_pairs())))
def test_local_values_match_reference(case):
    a, (f, rf) = case
    order = f.den.multiplicity(a)
    if order > 1:
        with pytest.raises(PoleError):
            local_values([f.num], f.den, a, "residue")
        return
    # the reference splits den = (x - a) * cofactor
    assert local_values([f.num], f.den, a, "residue") == [rf.residue(a)]
    assert local_values([f.num], f.den, a, "value") == [rf.regular_value(a)]
    if order == 0:
        assert f.eval(a) == rf.eval(a)
        assert local_values([f.num], f.den, a, "slope") == [rf.derivative_at(a)]
