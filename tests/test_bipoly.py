from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_poly
from capelli.bipoly import (
    BiPoly,
    falling_coeffs,
    falling_expansion,
    falling_term,
    from_falling,
    render_bipoly,
    square_op,
)
from capelli.ratfunc import RatFunc, UniPoly, local_values

X = BiPoly({(1, 0): Q(1)})
Y = BiPoly({(0, 1): Q(1)})
XY = BiPoly({(1, 1): Q(1)})


class TestFallingExpand:
    def test_empty(self):
        assert falling_coeffs(0) == (Q(1),)

    def test_two(self):
        # x(x-1) = x^2 - x
        assert falling_term(2, 0) == BiPoly({(2, 0): Q(1), (1, 0): Q(-1)})

    def test_three(self):
        # x(x-1)(x-2) = x^3 - 3x^2 + 2x
        assert falling_term(3, 0) == BiPoly({(3, 0): Q(1), (2, 0): Q(-3), (1, 0): Q(2)})


class TestFromFalling:
    def test_mixed_term(self):
        assert from_falling([(Q(1), 1, 1)]) == XY

    def test_single_variable(self):
        assert from_falling([(Q(1), 2, 0)]) == BiPoly({(2, 0): Q(1), (1, 0): Q(-1)})

    def test_collection(self):
        got = from_falling([(Q(1), 2, 1), (Q(1), 1, 2)])
        assert got == BiPoly({(2, 1): Q(1), (1, 2): Q(1), (1, 1): Q(-2)})


class TestToFallingCoeff:
    def test_diagonal(self):
        assert falling_expansion(XY).get((1, 1), 0) == 1

    def test_triangularity(self):
        # x^2 = x_(2) + x_(1)
        assert falling_expansion(BiPoly({(2, 0): Q(1)})).get((1, 0), 0) == 1

    def test_ratfunc_coefficients(self):
        kp1 = RatFunc(UniPoly((1, 1)))
        f = BiPoly({(1, 0): RatFunc(1), (0, 1): RatFunc(1), (0, 0): kp1})
        assert falling_expansion(f).get((0, 0), 0) == kp1


class TestEvalAtOnePoint:
    def test_integers(self):
        assert XY.eval_at([(Q(2), Q(3))]) == [6]

    def test_shifted_zero(self):
        k = 1
        f = X + Y + BiPoly({(0, 0): Q(k + 1)})
        assert f.eval_at([(Q(-k - 1), Q(0))]) == [0]

    def test_falling_point(self):
        assert falling_term(2, 0).eval_at([(Q(3), Q(0))]) == [6]


class TestSymmetry:
    def test_symmetric(self):
        assert XY.is_symmetric()

    def test_asymmetric(self):
        assert not BiPoly({(2, 1): Q(1)}).is_symmetric()

    def test_with_parameter_constant(self):
        kp1 = RatFunc(UniPoly((1, 1)))
        f = BiPoly({(1, 0): RatFunc(1), (0, 1): RatFunc(1), (0, 0): kp1})
        assert f.is_symmetric()


class TestSquareOp:
    def test_product(self):
        assert square_op(XY) == BiPoly({(0, 0): Q(-1, 4)})

    def test_function_of_sum(self):
        f = (X + Y) * (X + Y)
        assert not square_op(f)

    def test_power_sum(self):
        f = X * X + Y * Y
        assert square_op(f) == BiPoly({(0, 0): Q(1, 2)})

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            square_op(X)

    def test_non_antisymmetric_numerator_is_an_internal_error(self, monkeypatch):
        # past the symmetry check, x gives the numerator 1, its own mirror
        monkeypatch.setattr(BiPoly, "is_symmetric", lambda self: True)
        with pytest.raises(ArithmeticError):
            square_op(X)


class TestPartials:
    def test_product(self):
        assert XY.partials() == (Y, X)

    def test_square(self):
        fx, fy = (X * X).partials()
        assert fx == X.scale(Q(2)) and not fy

    def test_falling(self):
        fx, fy = falling_term(2, 0).partials()
        assert fx == BiPoly({(1, 0): Q(2), (0, 0): Q(-1)}) and not fy


class TestMapCoeffs:
    def test_residue(self):
        c = RatFunc(UniPoly((2, 2)), UniPoly((0, 1)))
        f = BiPoly({(1, 1): c})
        residue = lambda v: local_values([v.num], v.den, 0, "residue")[0]
        assert f.map_coeffs(residue) == BiPoly({(1, 1): Q(2)})

    def test_eval(self):
        f = BiPoly({(1, 0): RatFunc(UniPoly((1, 1)))})
        assert f.map_coeffs(lambda v: v.eval(1)) == BiPoly({(1, 0): Q(2)})


def test_render_deterministic():
    f = BiPoly({(2, 0): Q(1, 2), (1, 1): Q(1), (0, 2): Q(1, 2), (1, 0): Q(-1, 2)})
    assert render_bipoly(f) == "(1/2)x^2 + xy + (1/2)y^2 - (1/2)x"


# -- property tests ---------------------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
keys = st.tuples(st.integers(0, 5), st.integers(0, 5))
sparse = st.dictionaries(keys, coeffs, max_size=6).map(BiPoly)


@settings(max_examples=50, deadline=None)
@given(sparse)
def test_falling_monomial_round_trip(f):
    expansion = falling_expansion(f)
    back = from_falling([(c, m, n) for (m, n), c in expansion.items()])
    assert back == f


@settings(max_examples=50, deadline=None)
@given(sparse)
def test_square_op_clears_division(f):
    sym = f + BiPoly({(j, i): c for (i, j), c in f.terms.items()})
    quot = square_op(sym)
    fx, fy = sym.partials()
    xmy = X - Y
    assert xmy * quot.scale(Q(4)) == fx - fy


ratfuncs = st.builds(
    lambda num, den: RatFunc(UniPoly(num), UniPoly(den)),
    st.lists(st.integers(-3, 3), max_size=3),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
)
wide_keys = st.tuples(st.integers(0, 14), st.integers(0, 14))


def _symmetrized(terms) -> BiPoly:
    f = BiPoly(terms)
    return f + BiPoly({(j, i): c for (i, j), c in f.terms.items()})


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.dictionaries(wide_keys, coeffs, max_size=8),
                 st.dictionaries(keys, ratfuncs, max_size=4)).map(_symmetrized))
@example(BiPoly())
@example(BiPoly({(0, 0): Q(3)}))
@example(_symmetrized({(13, 0): Q(1), (12, 1): Q(-2, 3), (7, 5): Q(5)}))
@example(_symmetrized({(2, 1): RatFunc(UniPoly((1, 1)), UniPoly((0, 1)))}))
def test_square_op_matches_peeling_division(f):
    assert square_op(f).terms == reference_poly.square_op(f)


@settings(max_examples=50, deadline=None)
@given(sparse, sparse, coeffs, coeffs)
def test_eval_at_is_multiplicative(f, g, a, b):
    (fg,), (fv,), (gv,) = (h.eval_at([(a, b)]) for h in (f * g, f, g))
    assert fg == fv * gv


@settings(max_examples=40, deadline=None)
@given(coeffs, st.integers(0, 4), st.integers(0, 4))
def test_single_term_round_trip(c, m, n):
    assert falling_expansion(from_falling([(c, m, n)])).get((m, n), 0) == c
