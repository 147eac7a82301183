from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_poly as ref
from capelli.ratfunc import PoleError, RatFunc, UniPoly, local_values


def P(*coeffs):
    return UniPoly(coeffs)


K = UniPoly.x()


def local(f, a, kind):
    """``local_values`` of the one rational function ``f``."""
    return local_values([f.num], f.den, a, kind)[0]


def ref_slope(num, den, a):
    """f'(a) for f = num / den from the ``Fraction`` reference's quotient rule."""
    return ref.RatFunc(ref.UniPoly(num.coeffs), ref.UniPoly(den.coeffs)).derivative_at(a)


class TestUniPoly:
    def test_trailing_zeros_trimmed(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert not P(0, 0)
        assert P().degree() == -1

    def test_arithmetic(self):
        assert (K + 1) * (K - 1) == P(-1, 0, 1)
        assert (K + 1) * (K + 1) * (K + 1) == P(1, 3, 3, 1)
        assert (K * K - 1) - (K * K) == P(-1)

    def test_divmod_exact(self):
        q, r = P(-1, 0, 1).divmod(P(-1, 1))
        assert q == P(1, 1) and not r
        assert P(-1, 0, 1).divexact(P(1, 1)) == P(-1, 1)
        with pytest.raises(ArithmeticError):
            P(1, 1).divexact(P(0, 1))

    def test_gcd_monic(self):
        g = (P(-1, 1) * P(2, 1)).gcd(P(-1, 1) * P(5, 1))
        assert g == P(-1, 1)
        assert P(0, 2).gcd(P(0, 0, 4)) == P(0, 1)

    def test_derivative_power_rule(self):
        # power rule holds coefficient-exactly
        p = P(Q(1, 3), -2, 0, 5)
        assert p.derivative() == P(-2, 0, 15)
        assert not P(7).derivative()

    def test_eval(self):
        p = P(1, 2, 1)  # (k+1)^2
        assert p(Q(1, 2)) == Q(9, 4)

    def test_multiplicity(self):
        p = P(-1, 1) * P(-1, 1) * P(3, 1)
        assert p.multiplicity(1) == 2
        assert p.multiplicity(-3) == 1
        assert p.multiplicity(5) == 0

    def test_falling(self):
        assert UniPoly.falling(K, 3) == [P(1), P(0, 1), P(0, -1, 1), P(0, 2, -3, 1)]
        assert UniPoly.falling(K, 0) == [P(1)]


class TestNormalization:
    def test_common_factor_cancellation(self):
        assert RatFunc(P(-1, 0, 1), P(-1, 1)) == RatFunc(P(1, 1))

    def test_zero_case(self):
        f = RatFunc(P(), P(5, 0, 0, 1))
        assert not f.num and f.den == P(1)

    def test_already_reduced_unchanged(self):
        f = RatFunc(P(2, 2), P(0, 1))
        assert f.num == P(2, 2) and f.den == P(0, 1)

    def test_monic_denominator(self):
        f = RatFunc(P(1), P(0, 2))
        assert f.den == P(0, 1) and f.num == P(Q(1, 2))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc(P(1), P())


class TestEval:
    def test_polynomial_point(self):
        assert RatFunc(P(1, 1)).eval(1) == 2

    def test_rational_point(self):
        f = RatFunc(P(2, 2), P(0, 1))  # 2(k+1)/k
        assert f.eval(1) == 4

    def test_pole_carries_order(self):
        f = RatFunc(P(2, 2), P(0, 1))
        with pytest.raises(PoleError) as err:
            f.eval(0)
        assert err.value.order == 1


class TestResidueAndRegularValue:
    def test_simple_pole_residue(self):
        assert local(RatFunc(P(2, 2), P(0, 1)), 0, "residue") == 2

    def test_regular_point_residue_zero(self):
        assert local(RatFunc(P(1, 1)), 0, "residue") == 0

    def test_double_pole_rejected(self):
        f = RatFunc(P(1), P(-1, 1) * P(-1, 1))
        with pytest.raises(PoleError):
            local(f, 1, "residue")
        with pytest.raises(PoleError):
            local(f, 1, "value")

    def test_regular_value_at_pole(self):
        assert local(RatFunc(P(2, 2), P(0, 1)), 0, "value") == 2

    def test_regular_value_at_regular_point(self):
        assert local(RatFunc(P(1, 1)), 0, "value") == 1

    def test_finite_part_matches_known_expansion(self):
        # 2k/(k-1) at 1: residue 2, finite part 2
        f = RatFunc(P(0, 2), P(-1, 1))
        assert local(f, 1, "residue") == 2
        assert local(f, 1, "value") == 2


class TestSlope:
    def test_constant_slope(self):
        assert local(RatFunc(P(0, -1)), Q(5, 2), "slope") == -1

    def test_inverse(self):
        assert local(RatFunc(P(1), P(0, 1)), Q(3), "slope") == Q(-1, 9)

    def test_quotient_rule(self):
        f = RatFunc(P(2, 2), P(0, 1))
        assert local(f, Q(-2, 3), "slope") == Q(-9, 2)


# -- property tests -----------------------------------------------------------

small_frac = st.fractions(min_value=-12, max_value=12, max_denominator=6)
polys = st.lists(small_frac, max_size=5).map(UniPoly)
nonzero_polys = polys.filter(bool)


@st.composite
def ratfuncs(draw):
    return RatFunc(draw(polys), draw(nonzero_polys))


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), small_frac)
def test_eval_is_ring_homomorphism(f, g, a):
    try:
        fa, ga = f.eval(a), g.eval(a)
    except PoleError:
        return
    assert (f + g).eval(a) == fa + ga
    assert (f * g).eval(a) == fa * ga


@settings(max_examples=60, deadline=None)
@given(ratfuncs().filter(bool), small_frac)
def test_regular_points_have_zero_residue(f, a):
    if f.den(a) != 0:
        assert local(f, a, "residue") == 0
        assert local(f, a, "value") == f.eval(a)


# -- local expansion at a point -------------------------------------------------


@st.composite
def simple_pole_or_regular(draw):
    """(f, a) with f canonical and at worst a simple pole at ``a``."""
    a = draw(small_frac)
    cofactor = draw(nonzero_polys.filter(lambda d: d(a) != 0))
    pole = draw(st.sampled_from((UniPoly.one(), UniPoly((-a, 1)))))
    return RatFunc(draw(polys), pole * cofactor), a


@settings(max_examples=150, deadline=None)
@given(simple_pole_or_regular())
def test_local_expansion_matches_definitions(case):
    f, a = case
    linear = RatFunc(UniPoly((-a, 1)))
    res = local(f, a, "residue")
    assert res == (f * linear).eval(a)
    assert local(f, a, "value") == (f + RatFunc(UniPoly((-res,)), UniPoly((-a, 1)))).eval(a)
    if f.den(a):
        assert res == 0
        assert local(f, a, "slope") == ref_slope(f.num, f.den, a)
    else:
        with pytest.raises(PoleError) as info:
            local(f, a, "slope")
        assert info.value.order == 1


@st.composite
def shared_denominators(draw):
    """(nums, den, a, j): numerators over one denominator with a root of
    order j at ``a``, an integer or a rational point, some numerators
    vanishing at ``a``; ``den`` is not reduced against them."""
    a = draw(st.one_of(st.integers(-6, 6), small_frac))
    j = draw(st.integers(0, 3))
    den = draw(nonzero_polys.filter(lambda d: d(a) != 0))
    for _ in range(j):
        den = den * UniPoly((-a, 1))
    vanish = st.tuples(polys, st.booleans()).map(lambda t: t[0] * UniPoly((-a, 1)) if t[1] else t[0])
    return draw(st.lists(vanish, min_size=1, max_size=4)), den, a, j


@settings(max_examples=150, deadline=None)
@given(shared_denominators())
def test_local_values_over_a_shared_denominator(case):
    nums, den, a, j = case
    kinds = ("residue", "value", "slope")
    if j > 1:
        for kind in kinds:
            with pytest.raises(PoleError) as info:
                local_values(nums, den, a, kind)
            assert (info.value.point, info.value.order) == (a, j)
        return
    fs = [RatFunc(num, den) for num in nums]
    res = [(f * RatFunc(UniPoly((-a, 1)))).eval(a) for f in fs]
    assert local_values(nums, den, a, "residue") == res
    poles = [RatFunc(UniPoly((-r,)), UniPoly((-a, 1))) for r in res]
    assert local_values(nums, den, a, "value") == [(f + p).eval(a) for f, p in zip(fs, poles)]
    if any(res):
        with pytest.raises(PoleError) as info:
            local_values(nums, den, a, "slope")
        assert (info.value.point, info.value.order) == (a, 1)
    else:
        assert local_values(nums, den, a, "slope") == [ref_slope(f.num, f.den, a) for f in fs]


@settings(max_examples=80, deadline=None)
@given(polys, st.one_of(st.integers(-30, 30), st.integers(-10 ** 30, 10 ** 30)))
@example(UniPoly((Q(1, 6), Q(-5, 4))), 0)
@example(UniPoly((Q(1, 6), Q(-5, 4))), -12)
def test_times_an_int_matches_the_general_product(p, n):
    # the int fast path against the product with a constant polynomial
    assert p * n == n * p == p * UniPoly((n,))
    assert p * True == p and p * False == UniPoly.zero()


@given(polys, small_frac)
def test_value_and_slope_is_one_horner_pass(p, a):
    assert p.value_and_slope(a) == (p(a), p.derivative()(a))


@pytest.mark.parametrize("order", [2, 3, 4])
def test_higher_order_poles_raise_with_their_order(order):
    a = Q(3)
    den = P(1, 0, 1)
    for _ in range(order):
        den = den * P(-a, 1)
    f = RatFunc(P(1, 1), den)
    reads = [lambda a, kind=kind: local(f, a, kind) for kind in ("residue", "value", "slope")]
    for read in (*reads, f.eval):
        with pytest.raises(PoleError) as info:
            read(a)
        assert (info.value.point, info.value.order) == (a, order)
        assert str(info.value) == f"pole of order {order} at 3"


SYMPY_CASES = [
    (P(0, 2), P(-1, 1), Q(1)),
    (P(1, 2, 3), P(0, 1) * P(2, 1), Q(0)),
    (P(Q(1, 2), -1, 0, 4), P(-3, 1) * P(1, 0, 1), Q(3)),
    (P(5, 0, 1), P(Q(2, 3), -1) * P(1, 1) * P(1, 1), Q(2, 3)),
    (P(1, 1, 1, 1), P(1, 2) * P(-1, 0, 1), Q(-1, 2)),
    (P(7, -3), P(4, 0, 1), Q(2)),
]


@pytest.mark.parametrize("num, den, a", SYMPY_CASES)
def test_local_expansion_against_sympy(num, den, a):
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x")

    def expr(p):
        return sum(sp.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(p.coeffs))

    f = RatFunc(num, den)
    g = expr(num) / expr(den)
    pt = sp.Rational(a.numerator, a.denominator)
    res = sp.residue(g, x, pt)
    assert local(f, a, "residue") == Q(str(res))
    assert local(f, a, "value") == Q(str(sp.limit(g - res / (x - pt), x, pt)))
    if den(a):
        assert local(f, a, "slope") == Q(str(sp.diff(g, x).subs(x, pt)))


@pytest.mark.parametrize("bad", [0.5, 1e-3, "1/3", None])
def test_inexact_or_foreign_input_raises_type_error(bad):
    with pytest.raises(TypeError):
        UniPoly([Q(1, 2), bad])
    p, f = P(-1, 0, 1), RatFunc(P(2, 2), P(0, 1))
    calls = (lambda: UniPoly((bad,)), lambda: RatFunc(bad), lambda: p + bad, lambda: p.scale(bad),
             lambda: p.multiplicity(bad), lambda: f.eval(bad), lambda: local(f, bad, "residue"),
             lambda: local(f, bad, "value"), lambda: local(f, bad, "slope"))
    for call in calls:
        with pytest.raises(TypeError):
            call()
