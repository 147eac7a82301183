"""The integer evaluation kernel of ``UniPoly`` and ``BiPoly`` against the
plain ``Fraction`` references of ``reference_eval``.

The strategies reach the zero polynomial, constants, degree 20, 30-digit
numerators of either sign, ``int`` and ``Fraction`` points, and points whose
denominators have 30 digits.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_eval
from capelli.bipoly import BiPoly
from capelli.ratfunc import RatFunc, UniPoly

BIG = 10**30

rationals = st.one_of(
    st.integers(-BIG, BIG),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Q, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
points = st.one_of(
    st.integers(-BIG, BIG),
    st.integers(-3, 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.builds(Q, st.integers(-BIG, BIG), st.integers(1, BIG)),
)
# up to 21 coefficients: the zero polynomial, constants, ..., degree 20
unipolys = st.lists(rationals, max_size=21).map(UniPoly)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 20), st.integers(0, 20)), rationals, max_size=12
).map(BiPoly)


@settings(max_examples=200, deadline=None)
@given(unipolys, points)
@example(UniPoly(), Q(1, 3))
@example(UniPoly((Q(2, 3),)), Q(5, 7))
def test_call_matches_horner(p, a):
    got = p(a)
    assert type(got) is Q
    assert got == reference_eval.horner(p.coeffs, Q(a))


@settings(max_examples=200, deadline=None)
@given(unipolys, points)
@example(UniPoly(), Q(1, 3))
@example(UniPoly((Q(2, 3),)), Q(5, 7))
def test_value_and_slope_matches_horner(p, a):
    got = p.value_and_slope(a)
    assert all(type(v) is Q for v in got)
    assert got == reference_eval.horner_with_slope(p.coeffs, Q(a))


@settings(max_examples=200, deadline=None)
@given(bipolys, points, points)
@example(BiPoly(), Q(1, 3), Q(-2, 5))
@example(BiPoly({(0, 0): Q(7, 3)}), Q(1, 3), 4)
def test_one_point_eval_at_matches_power_tables(f, a, b):
    (got,) = f.eval_at([(a, b)])
    assert type(got) is Q
    assert got == reference_eval.eval2(f, Q(a), Q(b))


@settings(max_examples=200, deadline=None)
@given(bipolys, st.lists(st.tuples(points, points), max_size=6).flatmap(
    lambda pts: st.permutations(pts + pts[:2])))
@example(BiPoly({(2, 1): Q(5, 3)}), [])
@example(BiPoly({(3, 0): Q(BIG + 1, 7), (0, 2): -BIG}), [(Q(1, 3), 2), (Q(1, 3), 2), (BIG, Q(-BIG, 11))])
def test_eval_at_matches_pointwise_evaluation(f, pts):
    """Empty lists, repeated points, mixed ``int`` and ``Fraction``
    coordinates and 30-digit numerators, in the order given."""
    got = f.eval_at(pts)
    assert all(type(v) is Q for v in got)
    assert got == [reference_eval.eval2(f, Q(a), Q(b)) for a, b in pts]


@pytest.mark.parametrize("where", [0, 2, 5])
@pytest.mark.parametrize("point", [RatFunc(1), UniPoly.x(), 0.5])
def test_eval_at_rejects_a_non_rational_point_anywhere(where, point):
    f = BiPoly({(1, 1): Q(1), (0, 2): Q(-2, 3)})
    pts = [(Q(k, 3), k) for k in range(5)]
    for bad in ((point, 1), (1, point)):
        with pytest.raises(TypeError):
            f.eval_at(pts[:where] + [bad] + pts[where:])


def test_eval_at_rejects_ratfunc_coefficients():
    f = BiPoly({(1, 0): RatFunc(UniPoly((1, 1))), (0, 0): Q(1)})
    with pytest.raises(TypeError):
        f.eval_at([(Q(1), Q(2))])


@pytest.mark.parametrize("point", [RatFunc(1), UniPoly.x(), 0.5])
def test_non_rational_points_raise(point):
    p, f = UniPoly((1, 2)), BiPoly({(1, 1): Q(1)})
    for call in (lambda: p(point), lambda: p.value_and_slope(point),
                 lambda: f.eval_at([(point, 1)]), lambda: f.eval_at([(1, point)])):
        with pytest.raises(TypeError):
            call()
