from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_eval
import reference_poly
from capelli import eigenpoly as ep
from capelli import knopsahi as ks
from capelli import verify as vf
from capelli.bipoly import BiPoly, from_falling, square_op
from capelli.eigenpoly import ROUTES, SingularSystemError, gauss_solve
from capelli.knopsahi import eval_point, gen_eval
from capelli.partitions import PClass, classify, classify_at, paired, size, upto
from capelli.ratfunc import common_denominator

HALF_SQUARE = BiPoly(
    {(2, 0): Q(1, 2), (0, 2): Q(1, 2), (1, 1): Q(1), (1, 0): Q(1, 2), (0, 1): Q(1, 2)}
)


ORACLE_KS = [*range(7), Q(-5, 6), Q(1, 3)]


def gauss_jordan(matrix, rhs):
    """Reference solver: Gauss-Jordan elimination over Fractions."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise SingularSystemError(f"no pivot in column {col}")
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
        inv = Q(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def solved(system, rhs):
    """``gauss_solve``'s integer numerators over one denominator, as Fractions."""
    nums, den = gauss_solve(system, rhs)
    assert all(type(v) is int for v in (*nums, den)) and den, (nums, den)
    return [Q(v, den) for v in nums]


def factor(matrix):
    """Factor a rational matrix, each row over its own common denominator."""
    rows, scales = zip(*(common_denominator(row) for row in matrix))
    return ep.bareiss_factor(list(rows), list(scales))


def ev_rational_matrix(k, d):
    """The oracle's matrix in Fractions: each integer row over its scale."""
    rows, scales = ep._ev_rows(k, d)
    return [[Q(v, s) for v in row] for row, s in zip(rows, scales)]


def has_row_swap(system) -> bool:
    _, steps, _ = system
    return any(piv != col for col, (piv, _) in enumerate(steps))


def ev_matrix_by_eval2(k, d):
    """Reference build of the oracle matrix: expand each basis element to
    monomials and evaluate it, or its square_op on a k-singular row, with
    the power-table ``reference_eval.eval2``."""
    parts = upto(d)
    columns = []
    for a, b in parts:
        g = from_falling({(Q(1), a, b), (Q(1), b, a)})  # one term when a == b
        sq = square_op(g)
        col = []
        for mu in parts:
            poly = sq if classify_at(mu, k) is PClass.SINGULAR else g
            col.append(reference_eval.eval2(poly, *eval_point(mu, k)))
        columns.append(col)
    return tuple(zip(*columns))


fracs = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def systems(draw):
    n = draw(st.integers(1, 5))
    matrix = [draw(st.lists(fracs, min_size=n, max_size=n)) for _ in range(n)]
    if draw(st.booleans()):
        matrix[0][0] = Q(0)  # a zero leading pivot forces a row swap
    return matrix, draw(st.lists(fracs, min_size=n, max_size=n))


class TestGauss:
    def test_solves(self):
        a = [[Q(2), Q(1)], [Q(1), Q(3)]]
        assert solved(factor(a), [Q(5), Q(10)]) == [Q(1), Q(3)]

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            gauss_solve(factor([[Q(1), Q(2)], [Q(2), Q(4)]]), [Q(0), Q(0)])

    def test_rank_deficient_rationals_raise(self):
        a = [[Q(1, 2), Q(1, 3), Q(2, 7)], [Q(1, 4), Q(1, 6), Q(1, 7)], [Q(3), Q(-1, 5), Q(1)]]
        with pytest.raises(SingularSystemError):
            gauss_solve(factor(a), [Q(1, 3), Q(1, 6), Q(2)])

    def test_one_factorization_solves_many_right_hand_sides(self):
        # step 0 zeroes the pivot of row 1, so step 1 swaps rows 1 and 2
        a = [[Q(1), Q(1), Q(0)], [Q(1), Q(1), Q(1, 2)], [Q(0), Q(2, 3), Q(1)]]
        system = factor(a)
        assert has_row_swap(system)
        for rhs in ([Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)], [Q(1), Q(-1, 3), Q(5, 2)]):
            assert solved(system, rhs) == gauss_jordan(a, rhs)

    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_inexact_rhs_raises(self, value):
        with pytest.raises(TypeError):
            gauss_solve(factor([[Q(2)]]), [value])

    @settings(max_examples=100, deadline=None)
    @given(systems())
    @example(([[Q(0), Q(1, 2), Q(1)], [Q(2, 3), Q(0), Q(1)], [Q(1), Q(1), Q(0)]],
              [Q(1), Q(-1, 3), Q(5, 2)]))  # zero leading pivot: a row swap
    def test_matches_gauss_jordan(self, system):
        matrix, rhs = system
        try:
            want = gauss_jordan(matrix, rhs)
        except SingularSystemError:
            with pytest.raises(SingularSystemError):
                gauss_solve(factor(matrix), rhs)
        else:
            assert solved(factor(matrix), rhs) == want

    @pytest.mark.parametrize("k", ORACLE_KS)
    def test_matches_sympy_lusolve_on_oracle_systems(self, k):
        sympy = pytest.importorskip("sympy")
        for d in range(7):
            rows, scales = ep._ev_rows(k, d)
            n = len(rows)
            rhs = [Q(i + 1, 2 * i + 3) for i in range(n)]
            rat = lambda v: sympy.Rational(v.numerator, v.denominator)
            # row i of the system is rows[i] / scales[i], so its rhs is scaled alike
            want = sympy.Matrix(rows).LUsolve(sympy.Matrix([rat(s * v) for s, v in zip(scales, rhs)]))
            assert solved(ep._ev_matrix(k, d), rhs) == [Q(str(v)) for v in want], (k, d)


class TestOracleMatrix:
    @pytest.mark.parametrize("k", ORACLE_KS)
    def test_matches_eval2_build(self, k):
        pd = Q(k).denominator
        for d in range(9):
            rows, scales = ep._ev_rows(k, d)
            assert all(type(v) is int for row in rows for v in row), (k, d)
            assert all(type(s) is int and s > 0 for s in scales), (k, d)
            # row scale 1 but on a k-singular row, column (a, b) scaled by pd^max(a, b)
            assert all(s == 1 for s, mu in zip(scales, upto(d))
                       if classify_at(mu, k) is not PClass.SINGULAR), (k, d)
            want = [[s * v * pd ** max(a, b) for v, (a, b) in zip(row, upto(d))]
                    for s, row in zip(scales, ev_matrix_by_eval2(k, d))]
            assert rows == want, (k, d)

    @settings(max_examples=25, deadline=None)
    @given(st.tuples(st.integers(-100, 100), st.integers(2, 100)).map(lambda r: Q(*r))
           .filter(lambda k: k.denominator > 1),
           st.integers(0, 6), st.lists(fracs, min_size=16, max_size=16))
    @example(Q(-99, 100), 6, [Q(i - 7, i + 1) for i in range(16)])
    def test_interpolation_matches_rational_reference_at_fractional_k(self, k, d, values):
        """The column-scaled integer solve against Gauss-Jordan on the
        rational matrix, expanded by ``from_falling`` on Fractions."""
        parts = upto(d)  # |upto(6)| = 16
        rhs = values[:len(parts)]
        c = gauss_jordan(ev_matrix_by_eval2(k, d), rhs)
        want = from_falling([(v, a, b) for v, (a, b) in zip(c, parts)]
                            + [(v, b, a) for v, (a, b) in zip(c, parts) if a != b])
        assert ep.interpolate_ev(dict(zip(parts, rhs)), d, k) == want

    def test_systems_past_the_cap_drop_the_oldest(self, monkeypatch):
        monkeypatch.setattr(ep, "_SYSTEMS", {})
        keys = [(Q(n, 7), d) for n in range(20) for d in range(2)]
        assert len(keys) > ep._SYSTEMS_MAX == 32
        for k, d in keys:
            ep._ev_matrix(k, d)
            assert len(ep._SYSTEMS) <= ep._SYSTEMS_MAX
        assert list(ep._SYSTEMS) == keys[-ep._SYSTEMS_MAX:]

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.integers(0, 6).map(Q), st.integers(-9, 9).map(lambda n: Q(n, 2)),
                     st.integers(-9, 9).map(lambda n: Q(n, 3))),
           st.integers(0, 10), st.lists(fracs, min_size=36, max_size=36))
    @example(Q(0), 2, [Q(i - 3, i + 2) for i in range(36)])  # the first system with a row swap
    @example(Q(3), 10, [Q(2 * i - 5, 3) for i in range(36)])
    def test_factored_solve_matches_gauss_jordan(self, k, d, values):
        rhs = values[:len(upto(d))]  # |upto(10)| = 36
        assert solved(ep._ev_matrix(k, d), rhs) == gauss_jordan(ev_rational_matrix(k, d), rhs)

    def test_property_covers_row_swaps(self):
        assert has_row_swap(ep._ev_matrix(0, 2))
        assert has_row_swap(ep._ev_matrix(3, 10))

    def test_singular_rows_have_distinct_coordinates(self):
        for k in range(7):
            for mu in upto(12):
                if classify(mu, k) is PClass.SINGULAR:
                    p, q = eval_point(mu, k)
                    assert p - q >= 1, (mu, k)


class TestRegularRoute:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_row_normalization(self, k):
        got = ep.eig_regular((1, 0), k)
        assert got == BiPoly({(1, 0): Q(1), (0, 1): Q(1), (0, 0): Q(k + 1)})

    def test_hand_expansion(self):
        got = ep.eig_regular((2, 0), 1)
        expected = BiPoly(
            {(2, 0): Q(1, 2), (0, 2): Q(1, 2), (1, 1): Q(2), (1, 0): Q(3, 2), (0, 1): Q(3, 2), (0, 0): Q(1)}
        )
        assert got == expected

    def test_constant(self):
        assert ep.eig_regular((0, 0), 3) == BiPoly({(0, 0): Q(1)})

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            ep.eig_regular((3, 0), 1)


class TestSingularRoute:
    def test_anchor(self):
        assert ep.eig_singular((2, 0), 0) == BiPoly({(1, 1): Q(-4)})

    def test_delta_on_self(self):
        f = ep.eig_singular((3, 0), 1)
        assert gen_eval(f, [(3, 0)], 1) == [1]

    def test_vanishes_on_dagger(self):
        f = ep.eig_singular((3, 0), 1)
        assert gen_eval(f, [(2, 1)], 1) == [0]

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            ep.eig_singular((1, 0), 0)


class TestQuasiregularRoutes:
    def test_limit_anchor(self):
        assert ep.eig_qreg_limit((1, 1), 0) == HALF_SQUARE

    def test_limit_matches_oracle(self):
        assert ep.eig_qreg_limit((2, 1), 1) == ep.eig_oracle((2, 1), 1)

    def test_limit_matches_explicit(self):
        assert ep.eig_qreg_limit((2, 2), 1) == ep.eig_qreg_explicit((2, 2), 1)

    def test_limit_matches_q_kappa_reference(self):
        # the cleared-numerator cancellation against normalized Q(kappa) arithmetic
        pairs = [(lam, k) for k in range(5) for lam in upto(10)
                 if classify(lam, k) is PClass.QUASIREGULAR]
        assert len(pairs) > 30
        for lam, k in pairs:
            assert ep.eig_qreg_limit(lam, k) == reference_poly.route_c(lam, k), (lam, k)

    @pytest.mark.parametrize("lam, k", [((1, 1), 0), ((2, 1), 1), ((4, 3), 2)])
    def test_residual_pole_fails_route_c_and_its_record(self, monkeypatch, lam, k):
        # doubled numerators of P_{lam+} leave half its pole uncancelled
        lamd, real = paired(lam, k, PClass.QUASIREGULAR), ks.ks_poly

        def doubled(mu):
            p = real(mu)
            return p._replace(nums=p.nums.scale(2)) if mu == lamd else p

        monkeypatch.setattr(ep, "ks_poly", doubled)
        with pytest.raises(AssertionError, match="residual pole in route c"):
            ep.eig_qreg_limit(lam, k)
        check = vf.run_task(("eigen-routes", (lam, k)))
        assert check.status == "fail"
        assert check.lhs.startswith("error: AssertionError at eigenpoly.py:")
        assert "residual pole in route c" in check.lhs

    def test_explicit_anchor(self):
        assert ep.eig_qreg_explicit((1, 1), 0) == HALF_SQUARE

    def test_explicit_matches_oracle(self):
        assert ep.eig_qreg_explicit((2, 2), 1) == ep.eig_oracle((2, 2), 1)

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            ep.eig_qreg_limit((1, 0), 0)
        with pytest.raises(ValueError):
            ep.eig_qreg_explicit((2, 0), 0)


class TestMCoeff:
    def test_vanishing_harmonic(self):
        assert ep.m_coeff((1, 1), (0, 0), 0) == 0

    def test_base_harmonic(self):
        assert ep.m_coeff((2, 2), (0, 0), 1) == Q(-1, 2)

    def test_positive_size(self):
        assert ep.m_coeff((3, 2), (1, 0), 2) == Q(1, 2)

    def test_size_bound(self):
        with pytest.raises(ValueError):
            ep.m_coeff((2, 2), (1, 0), 1)


class TestOracle:
    def test_constant(self):
        assert ep.eig_oracle((0, 0), 0) == BiPoly({(0, 0): Q(1)})

    def test_matches_singular_route(self):
        assert ep.eig_oracle((2, 0), 0) == BiPoly({(1, 1): Q(-4)})

    def test_matches_quasiregular_routes(self):
        assert ep.eig_oracle((1, 1), 0) == HALF_SQUARE

    def test_interpolates_rational_values(self):
        # the value 1/2 at (1, 0), 0 at (0, 0): f = (x + y + 1) / 2 at k = 1
        got = ep.interpolate_ev({(1, 0): Q(1, 2)}, 1, 1)
        assert got == BiPoly({(1, 0): Q(1, 2), (0, 1): Q(1, 2), (0, 0): Q(1)})
        assert gen_eval(got, upto(1), 1) == [0, Q(1, 2)]

    @pytest.mark.parametrize("value", [0.5, "1/2"])
    def test_inexact_value_raises(self, value):
        with pytest.raises(TypeError):
            ep.interpolate_ev({(1, 0): value}, 1, 0)

    @pytest.mark.parametrize("mu", [(2, 0), (1, 1)])
    def test_value_outside_upto_d_raises(self, mu):
        with pytest.raises(ValueError, match="outside"):
            ep.interpolate_ev({(1, 0): Q(1), mu: Q(1)}, 1, 0)


class TestDispatch:
    def test_routes_by_class(self):
        assert ROUTES[classify((1, 0), 1)] == ("a", "oracle")
        assert ROUTES[classify((3, 0), 1)] == ("b", "oracle")
        assert ROUTES[classify((2, 1), 1)] == ("c", "d", "oracle")

    def test_route_agreement_sweep(self):
        for k in range(2):
            for lam in upto(5):
                bodies = [ep.eigen(lam, k, r) for r in ROUTES[classify(lam, k)]]
                assert all(b == bodies[0] for b in bodies), (lam, k)
                assert bodies[0].total_degree() == size(lam)

    def test_delta_property(self):
        for k in range(2):
            for lam in upto(5):
                mus = upto(size(lam))
                assert gen_eval(ep.eigen(lam, k), mus, k) == [int(mu == lam) for mu in mus]


class TestVariationAssembly:
    def test_base_case(self):
        assert ep.qreg_variation_body((1, 1), 0) == HALF_SQUARE

    def test_matches_routes(self):
        for k in range(3):
            for lam in upto(6):
                if ROUTES[classify(lam, k)][0] != "c":
                    continue
                assert ep.qreg_variation_body(lam, k) == ep.eigen(lam, k), (lam, k)

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            ep.qreg_variation_body((1, 0), 0)


class TestRestrictionPair:
    def test_identity_on_own_block(self):
        assert ep.restriction_pair(ep.eigen((1, 1), 0), [(1, 1)], 0) == [(1, 0)]

    def test_pure_nilpotent_on_dagger(self):
        assert ep.restriction_pair(ep.eigen((2, 0), 0), [(1, 1)], 0) == [(0, 1)]

    def test_order_exceeds_degree(self):
        # square_op of a linear symmetric f is zero
        assert ep.restriction_pair(ep.eigen((1, 0), 0), [(1, 1)], 0) == [(2, 0)]

    def test_pairs_in_point_order(self):
        f = ep.eigen((2, 1), 0)
        assert ep.restriction_pair(f, [(3, 3), (1, 1), (2, 2)], 0) == [
            (24, -1), (0, 0), (4, Q(-1, 2))]

    def test_pairs_are_read_at_the_block_point(self):
        # the nil part is the generalized value at the singular partner, whose
        # shifted point is the coordinate swap of mu's: square_op(f) is
        # symmetric.  f: symmetric, of degree 8, no vanishing coefficient
        f = BiPoly({(a, b): Q(1 + a * b, 1 + a + b) for a in range(9) for b in range(9 - a)})
        assert f.is_symmetric()
        for k in range(4):
            mus = [mu for mu in upto(8) if classify(mu, k) is PClass.QUASIREGULAR]
            pts = [eval_point(mu, k) for mu in mus]
            assert mus and ep.restriction_pair(f, mus, k) == list(
                zip(f.eval_at(pts), square_op(f).eval_at(pts))), k

    def test_singular_block_rejected(self):
        with pytest.raises(ValueError):
            ep.restriction_pair(ep.eigen((1, 0), 1), [(2, 1), (3, 0)], 1)

    def test_regular_block_rejected_before_evaluation(self, monkeypatch):
        def never(*args):
            raise AssertionError("evaluated before the blocks were checked")

        monkeypatch.setattr(ep, "gen_eval", never)
        with pytest.raises(ValueError, match=r"is not 1-quasiregular"):
            ep.restriction_pair(ep.eigen((1, 0), 1), [(2, 1), (1, 0)], 1)

    def test_asymmetric_f_rejected_without_points(self):
        with pytest.raises(ValueError):
            ep.restriction_pair(BiPoly({(1, 0): Q(1)}), [], 1)

    def test_no_points_build_no_square(self, monkeypatch):
        def never(f):
            raise AssertionError("square_op built for an empty point list")

        monkeypatch.setattr(ks, "square_op", never)
        assert ep.restriction_pair(ep.eigen((2, 0), 0), [], 0) == []
