import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from capelli.bipoly import falling_coeffs
from capelli.hypergeom import (dougall_check, falling, falling_table, harmonic_num,
                               over_lcm, pfq_ratio, pfq_terminating, pochhammer_num)
from capelli.ratfunc import UniPoly


def rising(a, n: int) -> Q:
    """(a)_n = a (a+1) ... (a+n-1) from the integer kernel at a = p/q, as
    the right side of Dougall's summation reads it."""
    a = Q(a)
    return Q(pochhammer_num(a.numerator, a.denominator, n, 1), a.denominator ** max(n, 0))


class TestFactorials:
    def test_rising(self):
        assert rising(2, 3) == 24

    def test_falling(self):
        assert falling(3, 2) == 6

    def test_rising_hits_zero(self):
        assert rising(-1, 2) == 0

    def test_empty_products(self):
        assert rising(Q(7, 3), 0) == 1 == falling(Q(-5), 0)


def _naive(a, n: int, step: int) -> Q:
    """The step-by-step Fraction product prod_{t<n} (a + step*t)."""
    out = Q(1)
    for t in range(n):
        out *= Q(a) + step * t
    return out


rationals = st.fractions(min_value=-12, max_value=12, max_denominator=7)


@settings(max_examples=200, deadline=None)
@given(a=rationals, n=st.integers(min_value=-3, max_value=9))
@example(a=Q(2), n=5)        # the factor a - 2 hits zero
@example(a=Q(-3), n=4)       # rising: a + 3 hits zero
@example(a=Q(-7, 2), n=0)    # empty product
@example(a=Q(5, 3), n=-2)    # n < 0 is the empty product too
def test_factorials_match_naive_product(a, n):
    assert falling(a, n) == _naive(a, n, -1)
    assert rising(a, n) == _naive(a, n, 1)
    if a.denominator == 1:
        assert falling(int(a), n) == falling(a, n)
        assert rising(int(a), n) == rising(a, n)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(-20, 20).map(Q),
                 st.fractions(min_value=-20, max_value=20, max_denominator=7)))
def test_falling_table_matches_falling_coeffs(p):
    pn, pd = p.numerator, p.denominator
    table = falling_table(pn, pd, 14)
    assert all(type(v) is int for pair in table for v in pair)
    want = [UniPoly(falling_coeffs(m)).value_and_slope(p) for m in range(15)]
    assert table == [(pd ** m * v, pd ** m * s) for m, (v, s) in enumerate(want)]
    assert [v for v, _ in table] == [pochhammer_num(pn, pd, m, -1) for m in range(15)]


@settings(max_examples=150, deadline=None)
@given(y=st.one_of(st.integers(-9, 2).map(Q), rationals), n=st.integers(0, 9))
@example(y=Q(-3), n=5)  # one factor vanishes: harm is the product of the others
@example(y=Q(-7, 2), n=0)  # empty product and empty sum
def test_harmonic_num_matches_its_fraction_definition(y, n):
    """prod / q**n = prod (y+t), harm / q**n = sum_t prod_{u != t} (y+u),
    so harm / prod = sum 1/(y+t) wherever no factor vanishes."""
    p, q = y.numerator, y.denominator
    prod, harm = harmonic_num(p, q, n)
    assert type(prod) is int and type(harm) is int
    factors = [y + t for t in range(1, n + 1)]
    assert Q(prod, q**n) == _naive(y + 1, n, 1)
    assert Q(harm, q**n) == sum(math.prod(factors[:t] + factors[t + 1:]) for t in range(n))
    if prod:
        assert Q(harm, prod) == sum(1 / f for f in factors)


pairs = st.tuples(st.integers(-10**6, 10**6), st.integers(-60, 60).filter(bool))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.lists(pairs, max_size=4), max_size=4))
@example(rows=[])  # no entry: denominator 1
@example(rows=[[], [(3, -4), (-5, 6)], []])  # negative and shared denominators
def test_over_lcm_matches_its_fraction_definition(rows):
    """The rows over one positive denominator, the least one that clears them all."""
    nums, den = over_lcm(rows)
    assert type(den) is int and den > 0 and all(type(v) is int for row in nums for v in row)
    assert [[Q(v, den) for v in row] for row in nums] == [[Q(n, d) for n, d in row] for row in rows]
    assert den == math.lcm(*(abs(d) for row in rows for _, d in row))


@pytest.mark.parametrize("bad", [0.5, 1e-3, "1/3", None])
def test_inexact_or_foreign_input_raises_type_error(bad):
    calls = (lambda: falling(bad, 2), lambda: dougall_check(bad, 1, 1, 1),
             lambda: pfq_terminating((bad, -1), (1,)), lambda: pfq_terminating((-1,), (bad,)),
             lambda: pfq_terminating((-1,), (1,), bad))
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


class TestAgainstSympy:
    """Differential checks against an independent implementation."""

    @settings(max_examples=100, deadline=None)
    @given(a=rationals, n=st.integers(min_value=0, max_value=9))
    def test_factorials(self, sympy, a, n):
        sa = sympy.Rational(a.numerator, a.denominator)
        assert falling(a, n) == Q(str(sympy.ff(sa, n)))
        assert rising(a, n) == Q(str(sympy.rf(sa, n)))

    @settings(max_examples=100, deadline=None)
    @given(
        stops=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=2),
        upper=st.lists(rationals, max_size=3),
        lower=st.lists(st.fractions(min_value=Q(1, 7), max_value=9, max_denominator=7), max_size=3),
        past=st.lists(st.integers(min_value=0, max_value=3), max_size=2),
        z=st.one_of(st.just(Q(0)), rationals),
    )
    @example(stops=[3, 5], upper=[], lower=[Q(2)], past=[0], z=Q(2, 3))  # -b = n_max
    @example(stops=[4, 0], upper=[Q(1, 2)], lower=[], past=[0, 2], z=Q(-5))  # n_max = 0
    @example(stops=[6], upper=[Q(-2)], lower=[Q(1, 3)], past=[1], z=Q(0))
    def test_pfq_terminating(self, sympy, stops, upper, lower, past, z):
        """Up to two non-positive integers upstairs; non-positive integers
        downstairs with -b >= n_max, the boundary -b = n_max included."""
        num = [Q(-stop) for stop in stops] + upper
        n_max = min(-int(a) for a in num if a.denominator == 1 and a <= 0)
        den = lower + [Q(-n_max - k) for k in past]
        rat = lambda v: sympy.Rational(v.numerator, v.denominator)  # noqa: E731
        expected = sum(
            (
                sympy.Mul(*(sympy.rf(rat(a), n) for a in num))
                / sympy.Mul(*(sympy.rf(rat(b), n) for b in den))
                * rat(z) ** n / sympy.factorial(n)
                for n in range(n_max + 1)
            ),
            sympy.Integer(0),
        )
        assert pfq_terminating(num, den, z) == Q(str(expected))


class TestTerminatingSeries:
    def test_two_term_2f1(self):
        # 2F1(-1, b; c; 1) = 1 - b/c
        assert pfq_terminating((-1, 3), (5,), 1) == 1 - Q(3, 5)

    def test_zero_numerator_parameter(self):
        assert pfq_terminating((0, 7, Q(1, 2)), (2, 3), Q(9)) == 1

    def test_dougall_two_terms(self):
        assert pfq_terminating((2, 2, -1, -1, -1), (1, 4, 4, 4), 1) == Q(15, 16)

    def test_requires_termination(self):
        with pytest.raises(ValueError):
            pfq_terminating((Q(1, 2), 3), (5,), 1)

    def test_denominator_zero_in_range(self):
        with pytest.raises(ValueError):
            pfq_terminating((-3, 1), (-1,), 1)

    def test_denominator_zero_out_of_range_ok(self):
        # -b = -1 stops the sum before the denominator factor vanishes
        assert pfq_terminating((-1, 1), (-1,), 1) == 2

    def test_permutation_invariance(self):
        a = pfq_terminating((-2, 3, Q(1, 2)), (4, 5), Q(2, 3))
        b = pfq_terminating((3, Q(1, 2), -2), (5, 4), Q(2, 3))
        assert a == b


class TestDougall:
    def test_anchor_15_16(self):
        assert dougall_check(2, 1, 1, 1) == (Q(15, 16), Q(15, 16))

    def test_degenerate_b_zero(self):
        lhs, rhs = dougall_check(1, 0, 2, 3)
        assert lhs == rhs == 1

    def test_degenerate_d_zero(self):
        lhs, rhs = dougall_check(3, 2, 1, 0)
        assert lhs == rhs == 1

    def test_sweep_member(self):
        lhs, rhs = dougall_check(3, 2, 1, 2)
        assert lhs == rhs

    def test_rational_a(self):
        lhs, rhs = dougall_check(Q(3, 2), 1, 2, 1)
        assert lhs == rhs

    def test_preconditions(self):
        with pytest.raises(ValueError):
            dougall_check(0, 1, 1, 1)
        with pytest.raises(ValueError):
            dougall_check(2, -1, 0, 0)
        with pytest.raises(ValueError):
            dougall_check(-5, 1, 1, 1)

    def test_full_small_sweep(self):
        for a in range(1, 4):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        lhs, rhs = dougall_check(a, b, c, d)
                        assert lhs == rhs, (a, b, c, d)

    @pytest.mark.parametrize("a", [*range(-12, 0), Q(-7, 2), Q(-5, 3), Q(-1, 2)])
    def test_negative_a_raises_or_sums(self, a):
        """Over b, c, d <= 6 a negative a gives equal sides or ValueError,
        never unequal sides or another error: at a negative integer a,
        a/2 + 1 <= 0 would stop the series early (a = -6, b = 3, c = d = 6)
        or a denominator parameter would vanish (a = -2, b = c = d = 1), so
        every such call raises."""
        for b, c, d in itertools.product(range(7), repeat=3):
            try:
                lhs, rhs = dougall_check(a, b, c, d)
            except ValueError:
                assert a + b + c + d + 1 <= 0 or Q(a).denominator == 1, (a, b, c, d)
                continue
            assert lhs == rhs and Q(a).denominator > 1, (a, b, c, d)


@settings(max_examples=100, deadline=None)
@given(num=st.lists(st.fractions(-6, 6, max_denominator=4), min_size=1, max_size=4),
       den=st.lists(st.fractions(-8, 6, max_denominator=4), max_size=3),
       scale=st.lists(st.integers(1, 5), min_size=8, max_size=8))
def test_pfq_ratio_reads_unreduced_pairs(num, den, scale):
    """Each parameter as (k p, k q) gives the value or error of the reduced
    pairs: termination and vanishing are read off q | p, not q == 1."""
    def pairs(params, ks):
        return [(k * a.numerator, k * a.denominator) for a, k in zip(params, ks)]

    def outcome(params_num, params_den):
        try:
            return Q(*pfq_ratio(params_num, params_den, (2, 3)))
        except ValueError as err:
            return str(err)

    num = [Q(-3), *num]
    assert outcome(pairs(num, scale), pairs(den, scale[5:])) == outcome(
        pairs(num, [1] * 8), pairs(den, [1] * 8))
