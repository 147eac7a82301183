"""Differential checks of the core algebra against sympy, an independent
implementation: canonical rational functions and the polynomial gcd, the
falling-factorial basis and the square operator."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

sympy = pytest.importorskip("sympy")

from capelli.bipoly import BiPoly, falling_expansion, from_falling, square_op
from capelli.ratfunc import RatFunc, UniPoly

X, Y = sympy.symbols("x y")

small = st.fractions(min_value=-6, max_value=6, max_denominator=3)
unipolys = st.lists(small, max_size=4).map(UniPoly)
bipolys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), small, max_size=5
).map(BiPoly)


def _rat(c: Q):
    return sympy.Rational(c.numerator, c.denominator)


def _uni_expr(p: UniPoly):
    return sum((_rat(c) * X**i for i, c in enumerate(p.coeffs)), sympy.Integer(0))


def _bi_expr(f: BiPoly):
    return sum((_rat(c) * X**i * Y**j for (i, j), c in f.terms.items()), sympy.Integer(0))


def _bi_terms(expr) -> dict:
    """The monomial coefficients of a sympy polynomial in x, y as Fractions."""
    poly = sympy.Poly(sympy.expand(expr), X, Y)
    return {key: Q(str(c)) for key, c in poly.terms() if c}


def _coeffs(expr) -> tuple:
    """Coefficients of a sympy polynomial in x, lowest degree first."""
    return tuple(Q(str(c)) for c in reversed(sympy.Poly(expr, X).all_coeffs()))


def _check_canonical_form(num: UniPoly, den: UniPoly) -> None:
    """Coprime numerator and monic denominator, as sympy.cancel reduces them."""
    f = RatFunc(num, den)
    n, d = sympy.fraction(sympy.cancel(_uni_expr(num) / _uni_expr(den)))
    lead = sympy.Poly(d, X).LC()
    want_num, want_den = _coeffs(sympy.expand(n / lead)), _coeffs(sympy.expand(d / lead))
    assert f.num.coeffs == (want_num if num else ())
    assert f.den.coeffs == (want_den if num else (Q(1),))


def _check_gcd(a: UniPoly, b: UniPoly) -> None:
    got = a.gcd(b)
    want = sympy.Poly(sympy.gcd(_uni_expr(a), _uni_expr(b)), X)
    if want.is_zero:
        assert not got
    else:
        assert got.coeffs == _coeffs(want.monic().as_expr())


@settings(max_examples=80, deadline=None)
@given(unipolys, unipolys.filter(bool), unipolys.filter(bool))
def test_ratfunc_canonical_form_matches_cancel(num, den, common):
    _check_canonical_form(num * common, den * common)


@settings(max_examples=60, deadline=None)
@given(unipolys, unipolys, unipolys)
def test_gcd_matches_sympy_gcd(a, b, common):
    _check_gcd(a * common, b * common)


# integer content up to 10^30 of either sign, above or below the line
contents = st.builds(Q, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30))
wide_unipolys = st.builds(lambda p, c: p.scale(c), st.lists(small, max_size=7).map(UniPoly), contents)


@settings(max_examples=60, deadline=None)
@given(wide_unipolys, wide_unipolys.filter(bool), st.lists(small, min_size=2, max_size=4)
       .map(UniPoly).filter(lambda p: p.degree() > 0), contents)
def test_primitive_prs_with_large_content_matches_sympy(a, b, common, c):
    _check_gcd(a * common, (b * common).scale(c))
    _check_canonical_form(a * common, (b * common).scale(c))


def _roots(*roots, lead=1):
    """lead * prod (x - r) over ``roots``, repeated roots listed again."""
    out = UniPoly((lead,))
    for r in roots:
        out = out * UniPoly((-Q(r), 1))
    return out


GCD_CASES = {
    "large-content": (_roots(1, -2, lead=10**25), _roots(1, 5, lead=Q(-3, 10**20))),
    "negative-leading": (_roots(Q(1, 2), -3, lead=-7), _roots(-3, 4, 4, lead=Q(-5, 6))),
    "repeated-roots": (_roots(2, 2, 2, -1), _roots(2, 2, -1, -1)),
    "shared-roots": (_roots(1, 3, -4), _roots(3, -4, -4, Q(7, 2), lead=12)),
    "coprime": (_roots(0, 1, lead=-10**30), _roots(Q(-1, 3), lead=10**30 + 1)),
    "constant": (UniPoly((Q(-9, 4),)), _roots(6, 6)),
}


@pytest.mark.parametrize("num, den", GCD_CASES.values(), ids=GCD_CASES)
def test_gcd_and_canonical_form_cases_match_sympy(num, den):
    _check_gcd(num, den)
    _check_canonical_form(num, den)
    _check_canonical_form(den, num)


@settings(max_examples=60, deadline=None)
@given(bipolys)
def test_falling_expansion_matches_sympy_ff(f):
    expansion = falling_expansion(f)
    rebuilt = sum(
        (_rat(c) * sympy.ff(X, m) * sympy.ff(Y, n) for (m, n), c in expansion.items()),
        sympy.Integer(0),
    )
    assert _bi_terms(rebuilt) == f.terms


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(small, st.integers(0, 4), st.integers(0, 4)), max_size=5))
# x_(2) + x_(1) = x^2 cancels the x term; the two xy terms cancel outright
@example([(Q(1), 2, 0), (Q(1), 1, 0), (Q(3), 1, 1), (Q(-3), 1, 1)])
def test_from_falling_matches_sympy_ff(terms):
    want = sum(
        (_rat(c) * sympy.ff(X, m) * sympy.ff(Y, n) for c, m, n in terms), sympy.Integer(0)
    )
    assert from_falling(terms).terms == _bi_terms(want)


@settings(max_examples=60, deadline=None)
@given(bipolys)
def test_square_op_matches_sympy_diff_and_div(g):
    f = g + BiPoly({(j, i): c for (i, j), c in g.terms.items()})  # symmetrized
    expr = _bi_expr(f)
    quotient, remainder = sympy.div(
        sympy.diff(expr, X) - sympy.diff(expr, Y), 4 * (X - Y), X, Y
    )
    assert remainder == 0
    assert square_op(f).terms == _bi_terms(quotient)
