import inspect
import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_eval
import reference_poly
from capelli import hypergeom as hg
from capelli import identities as idn
from capelli import verify as vf
from capelli.hypergeom import falling
from capelli.ratfunc import RatFunc, UniPoly
from capelli.report import Check

X = UniPoly.x()


def RF(num, den=(1,)):
    return RatFunc(UniPoly(num), UniPoly(den))


def verify_derivative_identity(n_max: int) -> list[tuple[bool, str, str]]:
    """All triples 0 <= i + j <= N <= n_max, in deterministic order."""
    out = []
    for n in range(n_max + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out.append(idn.derivative_identity_check(i, j, n))
    return out


def x_falling_squared(n: int) -> UniPoly:
    x_n = UniPoly.falling(X, n)[-1]
    return x_n * x_n


def lhs_side(i: int, j: int, n: int) -> RatFunc:
    """The left side, its integer numerator over x_(N)^2."""
    return RatFunc(UniPoly(idn.lhs_derivative_num(i, j, n)), x_falling_squared(n))


def rhs_side(i: int, j: int, n: int) -> RatFunc:
    """The right side, its integer numerator over M x_(N)^2."""
    total, m = idn.rhs_derivative_num(i, j, n)
    return RatFunc(UniPoly(total), x_falling_squared(n).scale(m))


def values(pairs) -> list[Q]:
    """The integer pairs (num, den) of the chain's evaluators as fractions."""
    return [Q(a, b) for a, b in pairs]


class TestDerivativeIdentitySides:
    def test_quotient_collapses(self):
        # i = j = 0, N = 2: d/dx x_(2) = 2x - 1
        assert lhs_side(0, 0, 2) == RF((-1, 2))

    def test_partial_cancellation(self):
        # x_(1) x_(2) / x_(2) = x
        assert lhs_side(1, 0, 2) == RF((1,))

    def test_genuine_rational(self):
        # x_(1)^2 / x_(2) = x/(x-1), derivative -1/(x-1)^2
        assert lhs_side(1, 1, 2) == RF((-1,), (1, -2, 1))

    def test_rhs_matches(self):
        for args in [(0, 0, 2), (1, 0, 2), (1, 1, 2), (2, 1, 4), (0, 3, 5)]:
            assert rhs_side(*args) == lhs_side(*args)

    def test_precondition(self):
        with pytest.raises(ValueError):
            idn.lhs_derivative_num(2, 1, 2)
        with pytest.raises(ValueError):
            idn.rhs_derivative_num(2, 1, 2)

    def test_numerators_have_integer_coefficients(self):
        for args in [(0, 0, 2), (1, 1, 2), (2, 1, 4), (2, 2, 6), (3, 3, 10)]:
            total, m = idn.rhs_derivative_num(*args)
            assert all(type(c) is int for c in [*idn.lhs_derivative_num(*args), *total]) and m > 0


def rhs_per_term(i: int, j: int, n: int) -> RatFunc:
    """The derivative identity's double sum with one normalized RatFunc per
    (q, p) term: the reference for the shared-denominator build."""
    total = RatFunc(0)
    for q in range(0, min(i, j) + 1):
        for p in range(i + j - q, min(n - q, n - 1) + 1):
            const = (
                Q((-1) ** (n + p + q + 1))
                * falling(n - p, q)
                * falling(i, q)
                * falling(j, q)
                * falling(n - i - j, n - p - q)
            )
            if not const:
                continue
            num = (UniPoly.falling(X, p - i)[-1] * UniPoly.falling(X, p - j)[-1]
                   * UniPoly((-(p - q), 1)))
            den = UniPoly.falling(X, p + 1)[-1] * UniPoly.falling(X - (n - q), q)[-1]
            num, den = num.scale(const), den.scale((n - p) * math.factorial(q))
            total = total + RatFunc(num, den)
    return total


@pytest.mark.parametrize("n", range(11))
def test_rhs_matches_per_term_sum(n):
    for i in range(n + 1):
        for j in range(n + 1 - i):
            assert rhs_side(i, j, n) == rhs_per_term(i, j, n), (i, j, n)


@pytest.mark.parametrize("n", range(11))
def test_lhs_matches_the_reference_quotient_rule(n):
    """The left numerator over x_(N)^2 is d/dx (x_(N-i) x_(N-j) / x_(N)) as
    the reference rational functions of ``reference_poly`` differentiate it."""
    fall = reference_poly.UniPoly.falling(reference_poly.UniPoly((0, 1)), n)
    for i in range(n + 1):
        for j in range(n + 1 - i):
            want = reference_poly.RatFunc(fall[n - i] * fall[n - j], fall[n]).derivative()
            got = lhs_side(i, j, n)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs, want.den.coeffs), (i, j, n)


class TestSweeps:
    def test_small_exhaustive(self):
        reports = verify_derivative_identity(4)
        assert len(reports) == sum((n + 1) * (n + 2) // 2 for n in range(5))
        assert all(ok for ok, _, _ in reports)

    def test_logderiv(self):
        for n in range(11):
            assert idn.logderiv_check(n)[0]


class TestPsiChain:
    def test_spec_point(self):
        # i, j, N = 1, 1, 3 at (10, 1/3), and on the diagonal y = x - N
        pts = [(Q(10), Q(1, 3)), (Q(10), Q(7))]
        assert values(idn.psi1_at(pts, 2, 1)) == values(idn.psi2_at(pts, 2, 1))
        assert values(idn.psi1_at(pts[1:], 2, 1)) == [rhs_side(1, 1, 3).eval(Q(10))]
        # psi_L = x_(2) / (x - 2)
        ref = reference_poly
        psi_l = ref.RatFunc(ref.UniPoly((0, -1, 1)), ref.UniPoly((-2, 1)))
        assert values(idn.psi2_at(pts[1:], 2, 1)) == [psi_l.derivative_at(Q(10))]

    def test_grid(self):
        assert idn.psi_chain_check(2, 1, 4)[0]

    def test_degenerate_products(self):
        assert idn.psi_chain_check(0, 0, 2)[0]

    def test_pole_reported_with_factor(self):
        with pytest.raises(idn.SamplePoleError) as err:
            idn.psi1_at([(Q(10), Q(-1))], 3, 1)
        assert "y+" in str(err.value)


def psi1_pointwise(x, y, d: int, j: int) -> Q:
    """psi_1 as the plain sum of e_term over (q, r)."""
    return sum(
        (idn.e_term(q, r, x, y, d, j) for q in range(j + 1) for r in range(max(1, q), d - j + q + 1)),
        Q(0),
    )


def psi2_pointwise(x, y, d: int, j: int) -> Q:
    """psi_2 as the pointwise Leibniz formula, rebuilding x_(d) per point."""
    prod = Q(1)
    for t in range(1, j + 1):
        if not y + t:
            raise idn.SamplePoleError(f"y+{t}")
        prod *= y + t
    harm = sum(Q(1) / (y + t) for t in range(1, j + 1))
    dfall = UniPoly.falling(X, d)[-1].derivative()
    return -falling(x, d) / prod * harm + Q(dfall(x)) / prod


def _outcome(fn):
    """The values, or the factor of the pole that stopped the evaluation."""
    try:
        return fn()
    except idn.SamplePoleError as err:
        return ("pole", err.factor)


@st.composite
def point_lists(draw):
    """Non-tensor point lists that reuse a few x and y values; y ranges over
    integers too, so some lists hit a pole."""
    coord = st.fractions(min_value=-5, max_value=9, max_denominator=3)
    xs = draw(st.lists(coord, min_size=1, max_size=3))
    ys = draw(st.lists(coord, min_size=1, max_size=3))
    idx = st.tuples(st.integers(0, len(xs) - 1), st.integers(0, len(ys) - 1))
    return [(xs[a], ys[b]) for a, b in draw(st.lists(idx, min_size=1, max_size=7))]


@settings(max_examples=80, deadline=None)
@given(pts=point_lists(), d=st.integers(0, 5), data=st.data())
def test_psi_tables_match_pointwise(pts, d, data):
    j = data.draw(st.integers(0, d))
    assert _outcome(lambda: values(idn.psi1_at(pts, d, j))) == _outcome(
        lambda: [psi1_pointwise(x, y, d, j) for x, y in pts])
    assert _outcome(lambda: values(idn.psi2_at(pts, d, j))) == _outcome(
        lambda: [psi2_pointwise(x, y, d, j) for x, y in pts])


def test_psi_tables_match_pointwise_on_grids():
    for n in range(4):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                pts, d = idn.chain_grid(i, j, n), n - i
                want1 = [psi1_pointwise(x, y, d, j) for x, y in pts]
                want2 = [psi2_pointwise(x, y, d, j) for x, y in pts]
                assert values(idn.psi1_at(pts, d, j)) == want1
                assert values(idn.psi2_at(pts, d, j)) == want2


@pytest.mark.parametrize(
    "y, factor", [(Q(-1), "(y+1+1)_(2)"), (Q(-4), "(y+3+1)_(4)"), (Q(0), "y+0")]
)
def test_pole_factor_text_is_kept(y, factor):
    pts = [(Q(10), Q(1, 3)), (Q(11), y), (Q(10), y)]
    with pytest.raises(idn.SamplePoleError) as err:
        idn.psi1_at(pts, 3, 1)
    reference = _outcome(lambda: [psi1_pointwise(x, y, 3, 1) for x, y in pts])
    assert err.value.factor == factor and reference == ("pole", factor)


def f_sum_pointwise(s: int, j: int, l: int, x, y) -> Q:
    """The defining sum for F(s) at one point, term by term in ``Fraction``
    arithmetic; the q = 0 term exists only for s >= 1."""
    total = Q(0)
    for q in range(1 if s == 0 else 0, j + 1):
        den = falling(y + q + s + j, j + 1)
        if not den:
            raise idn.SamplePoleError(f"(y+{q + s + j})_({j + 1})")
        total += (
            (y + 2 * q + s)
            * math.comb(j, q)
            * math.comb(l, s)
            * Q(math.factorial(q + s - 1), math.factorial(j + l))
            * falling(y + j, j - q)
            / den
            * falling(x - y, q)
            * falling(x + j + l, j + l - q - s)
        )
    return total


@settings(max_examples=80, deadline=None)
@given(pts=point_lists(), j=st.integers(0, 3), l=st.integers(0, 3), data=st.data())
def test_f_sum_batch_matches_pointwise(pts, j, l, data):
    s = data.draw(st.integers(0, l))
    assert _outcome(lambda: values(idn.f_sum_at(pts, s, j, l))) == _outcome(
        lambda: [f_sum_pointwise(s, j, l, x, y) for x, y in pts])


@pytest.mark.parametrize(
    "s, y, factor", [(0, Q(-2), "(y+3)_(3)"), (1, Q(-2), "(y+3)_(3)"), (2, Q(-5), "(y+5)_(3)")]
)
def test_f_sum_pole_factor_text_is_kept(s, y, factor):
    pts = [(Q(10), Q(1, 3)), (Q(11), y), (Q(10), y)]
    with pytest.raises(idn.SamplePoleError) as err:
        idn.f_sum_at(pts, s, 2, 2)
    reference = _outcome(lambda: [f_sum_pointwise(s, 2, 2, x, y) for x, y in pts])
    assert err.value.factor == factor and reference == ("pole", factor)


@pytest.mark.parametrize("bad", [0.25, 8.0, "8", "1/3", None])
def test_inexact_or_foreign_input_raises_type_error(bad):
    """Every point of the chain is read with ``as_ratio``."""
    calls = (
        lambda: idn.psi1_at([(Q(7), bad)], 0, 0), lambda: idn.psi1_at([(bad, Q(1, 3))], 2, 1),
        lambda: idn.psi2_at([(Q(7), bad)], 2, 1), lambda: idn.psi2_at([(bad, Q(1, 3))], 2, 1),
        lambda: idn.f_sum_at([(Q(9), bad)], 1, 1, 1), lambda: idn.f_sum_at([(bad, Q(4))], 0, 1, 1),
        lambda: idn.h_function_check(1, 1, bad, Q(3)), lambda: idn.h_function_check(1, 1, Q(8), bad),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("evaluate", [idn.psi1_at, idn.psi2_at,
                                      lambda pts, d, j: idn.f_sum_at(pts, 1, j, d)])
def test_float_equal_to_an_exact_point_is_refused(evaluate):
    """A float equal to a point read before it is refused, not looked up in
    that point's tables."""
    for pts in ([(Q(7), Q(1, 4)), (Q(7), 0.25)], [(Q(7, 2), Q(1, 3)), (3.5, Q(1, 3))]):
        with pytest.raises(TypeError):
            evaluate(pts, 2, 1)


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.integers(-5, 0).map(Q), st.fractions(-5, 9, max_denominator=3)),
       y=st.one_of(st.integers(-5, 0).map(Q), st.fractions(-5, 9, max_denominator=3)),
       j=st.integers(0, 6), l=st.integers(0, 3))
@example(x=Q(-2), y=Q(-2), j=3, l=1)  # y+2 and x+2 vanish together: y+2 is named
@example(x=Q(-1), y=Q(-3), j=4, l=0)  # x+1 vanishes before y+3
@example(x=Q(-4), y=Q(-1), j=4, l=2)  # y+1 vanishes before x+4
@example(x=Q(-5), y=Q(1, 3), j=5, l=1)  # only x+5 vanishes, at the last t
@example(x=Q(-3), y=Q(0), j=2, l=2)  # x+3 lies past t = j: no pole
def test_f_closed_at_s0_matches_the_fraction_reference(x, y, j, l):
    """F(0)'s integer harmonic difference has the reference's value, or
    stops at the same pole factor."""
    assert _outcome(lambda: values(idn.f_closed(0, j, l, [x], [y]))[0]) == _outcome(
        lambda: reference_eval.f_closed_s0(j, l, x, y))


@settings(max_examples=100, deadline=None)
@given(x=st.fractions(-5, 9, max_denominator=3), j=st.integers(0, 6), l=st.integers(1, 3),
       data=st.data())
def test_f_closed_at_positive_s_matches_the_fraction_reference(x, j, l, data):
    """At 1 <= s <= l the closed form is the reference's quotient in x alone,
    the same at every y."""
    s = data.draw(st.integers(1, l))
    assert values(idn.f_closed(s, j, l, [x], [Q(1, 3), Q(-2)])) == [
        reference_eval.f_closed_s(s, j, l, x)] * 2


@settings(max_examples=100, deadline=None)
@given(xs=st.lists(st.one_of(st.integers(-5, 0).map(Q), st.fractions(-5, 9, max_denominator=3)),
                   max_size=3),
       ys=st.lists(st.one_of(st.integers(-5, 0).map(Q), st.fractions(-5, 9, max_denominator=3)),
                   max_size=5),
       j=st.integers(0, 5), l=st.integers(0, 3))
def test_f_closed_over_x_and_y_lists_matches_the_reference(xs, ys, j, l):
    """A list of x and a list of y, the factors of each built once: the
    reference's values in order, x-major, or the pole of the first point
    that has one."""
    assert _outcome(lambda: values(idn.f_closed(0, j, l, xs, ys))) == _outcome(
        lambda: [reference_eval.f_closed_s0(j, l, x, y) for x in xs for y in ys])


class TestFClosedForm:
    def test_single_point(self):
        for s in range(2):
            assert values(idn.f_sum_at([(Q(7), Q(5))], s, 1, 1)) == values(
                idn.f_closed(s, 1, 1, [Q(7)], [Q(5)]))

    def test_harmonic_case(self):
        for s in range(2):
            assert values(idn.f_sum_at([(Q(9), Q(4))], s, 2, 1)) == values(
                idn.f_closed(s, 2, 1, [Q(9)], [Q(4)]))

    def test_no_numerator_terms(self):
        # j = 0 makes F(0) an empty harmonic sum on both sides
        assert values(idn.f_sum_at([(Q(9), Q(4))], 0, 0, 2)) == [0] == [
            f_sum_pointwise(0, 0, 2, Q(9), Q(4))]
        assert values(idn.f_closed(0, 0, 2, [Q(9)], [Q(4)])) == [0]
        assert idn.f_closed_form_check(0, 2)[0]

    def test_default_grids(self):
        assert idn.f_closed_form_check(1, 2)[0]


class TestHFunction:
    def test_unit(self):
        assert idn.h_function_check(1, 1, Q(8), Q(3))[0] and idn.h_sum(1, 1, Q(8), Q(3)) == 1

    def test_half(self):
        assert idn.h_sum(2, 2, Q(12), Q(5)) == Q(1, 2)
        assert idn.h_function_check(2, 2, Q(12), Q(5))[0]

    def test_harmonic_difference(self):
        got = idn.h_sum(0, 2, Q(12), Q(5))
        assert got == (Q(1, 6) + Q(1, 7)) - (Q(1, 13) + Q(1, 14))
        assert idn.h_function_check(2, 0, Q(12), Q(5))[0]

    def test_series_route_agrees(self):
        for s in (1, 2, 3):
            assert idn.h_hypergeometric(s, 2, Q(12), Q(5)) == Q(1, s)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            idn.h_function_check(3, 1, Q(4), Q(2))


def test_h_sum_matches_the_pointwise_e1_sum_at_every_pole():
    """On a grid of integers and halves that meets the poles of both
    factors of E1(q, s), alone and at one point, the integer H(s) has the
    pointwise ``e1_term`` sum's value or raises with its factor text."""
    coords = [Q(v, 2) for v in range(-16, 7)]
    factors = set()
    for j in range(4):
        for s in range(4):
            for x in coords:
                for y in coords:
                    got = _outcome(lambda: idn.h_sum(s, j, x, y))
                    assert got == _outcome(lambda: reference_eval.h_sum(s, j, x, y)), (s, j, x, y)
                    if isinstance(got, tuple):
                        factors.add(got[1][1])  # "x" or "y", the factor's variable
    assert factors == {"x", "y"}
    # at x = y = -1 both factors of the q = 0 term vanish: the y factor is named
    assert _outcome(lambda: idn.h_sum(1, 0, Q(-1), Q(-1))) == ("pole", "(y+1)_(1)")


@pytest.mark.parametrize("s", [1, 2, 3])
def test_series_route_at_fractional_points(s):
    """The 5F4 route builds its parameters as integer pairs, reduced or not
    ((y+s)/2 over 2 qy, y - x over qx qy), whether or not they are integers:
    H(s) = 1/s at points with x - y - j > 0."""
    for j in range(4):
        for y in (Q(1, 3), Q(1, 2), Q(2), Q(5, 3), Q(7, 2), Q(3)):
            for x in (y + j + 1, y + j + Q(3, 2), Q(10 * j + 11, 3)):
                if x - y - j > 0:
                    assert idn.h_hypergeometric(s, j, x, y) == Q(1, s), (s, j, x, y)


def test_failing_psi_chain_record_names_its_witness(monkeypatch):
    """A grid mismatch gives the exact record: the grid's size and degree
    bound among the params, the witness point after the left side."""
    psi2_at = idn.psi2_at
    monkeypatch.setattr(idn, "psi2_at",
                        lambda pts, d, j: [(a + b, b) for a, b in psi2_at(pts, d, j)])
    assert vf.run_task(("psi-chain", (1, 2, 4))) == Check(
        name="psi-chain",
        params=(("i", "1"), ("j", "2"), ("N", "4"), ("points", "225"), ("degree_bound", "14")),
        status="fail",
        lhs="-747/98 at (5,1/3)",
        rhs="-649/98",
    )


def _plus_x(f):
    """x added to the right side: x times its shared denominator M x_(N)^2
    added to its integer numerator."""
    def wrong(i, j, n):
        total, m = f(i, j, n)
        return (UniPoly(total) + X * x_falling_squared(n).scale(m)).nums, m
    return wrong


def _plus_one(f):
    return lambda *args: f(*args) + 1


@pytest.mark.parametrize(
    "attr, wrong, task, want",
    [
        ("rhs_derivative_num", _plus_x, ("derivative-identity", (1, 1, 2)),
         Check("derivative-identity", (("i", "1"), ("j", "1"), ("N", "2")), "fail",
               "-1/(x^2-2x+1)", "(x^3-2x^2+x-1)/(x^2-2x+1)")),
        ("rhs_derivative_num", _plus_x, ("derivative-identity", (0, 0, 3)),
         Check("derivative-identity", (("i", "0"), ("j", "0"), ("N", "3")), "fail",
               "3x^2-6x+2", "3x^2-5x+2")),
        ("falling", _plus_one, ("falling-log-derivative", (3,)),
         Check("falling-log-derivative", (("N", "3"),), "fail",
               "3x^2-6x+2", "4x^2-15/2x+7/3")),
    ],
    ids=["derivative-1-1-2", "derivative-0-0-3", "logderiv-3"],
)
def test_failing_identity_records_render_both_sides(monkeypatch, attr, wrong, task, want):
    """A wrong right-hand side gives the exact record: both sides rendered
    in x, with no witness point, since the sides are whole functions."""
    monkeypatch.setattr(idn, attr, wrong(getattr(idn, attr)))
    assert vf.run_task(task) == want


def _recompiled(fn, old: str, new: str):
    """``fn`` compiled again from its own source, with ``old`` (which occurs
    there once) replaced by ``new``, over a copy of its module's globals."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    exec(source.replace(old, new), namespace)
    return namespace[fn.__name__]


def test_constant_without_its_factorial_fails_first_at_2_2_4(monkeypatch):
    """Each constant M c(q, p) read as M // (N-p) in place of M // ((N-p) q!):
    the q! of c(q, p) is lost, which matters from q = 2 on, so the sweep to
    N = 7 first fails at i = j = 2, N = 4, with both sides rendered."""
    wrong = _recompiled(hg.derivative_coeffs, "(n - p) * math.factorial(q))", "(n - p))")
    monkeypatch.setattr(idn, "derivative_coeffs", wrong)
    tasks = [t for t in vf.suite_tasks("identity-e", vf.Bounds(n_max=7))
             if t[0] == "derivative-identity"]
    assert next(c for c in map(vf.run_task, tasks) if c.status != "pass") == Check(
        "derivative-identity", (("i", "2"), ("j", "2"), ("N", "4")), "fail",
        "(-4x^2+12x-6)/(x^4-10x^3+37x^2-60x+36)",
        "(-4x^3+16x^2-20x+12)/(x^5-11x^4+47x^3-97x^2+96x-36)")


def test_psi2_on_the_diagonal_is_the_slope_of_psi_l():
    """psi_2(x, x-N) = d/dx psi_L(x), psi_L = x_(d) / ((x-N+1) ... (x-N+j))
    built as a product and differentiated by the ``reference_poly`` quotient
    rule, at the first diagonal points of ``chain_grid``."""
    ref_x = reference_poly.UniPoly((0, 1))
    for n in range(8):
        for i in range(n + 1):
            x_d = reference_poly.UniPoly.falling(ref_x, n - i)[-1]
            for j in range(n + 1 - i):
                den = reference_poly.UniPoly((1,))
                for t in range(1, j + 1):
                    den = den * reference_poly.UniPoly((t - n, 1))
                psi_l = reference_poly.RatFunc(x_d, den)
                xs = [Q(n + 1 + u) for u in range(3)]
                want = [psi_l.derivative_at(x) for x in xs]
                assert values(idn.psi2_at([(x, x - n) for x in xs], n - i, j)) == want, (n, i, j)
