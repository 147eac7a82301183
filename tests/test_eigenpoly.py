from fractions import Fraction as Q

import pytest

from capelli import eigenpoly as ep
from capelli.bipoly import BiPoly, square_op
from capelli.eigenpoly import Route, SingularSystemError, gauss_solve
from capelli.knopsahi import gen_eval
from capelli.partitions import size, upto

HALF_SQUARE = BiPoly(
    {(2, 0): Q(1, 2), (0, 2): Q(1, 2), (1, 1): Q(1), (1, 0): Q(1, 2), (0, 1): Q(1, 2)}
)


class TestGauss:
    def test_solves(self):
        a = [[Q(2), Q(1)], [Q(1), Q(3)]]
        assert gauss_solve(a, [Q(5), Q(10)]) == [Q(1), Q(3)]

    def test_singular_raises(self):
        with pytest.raises(SingularSystemError):
            gauss_solve([[Q(1), Q(2)], [Q(2), Q(4)]], [Q(0), Q(0)])


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
        assert gen_eval(f, (3, 0), 1) == 1

    def test_vanishes_on_dagger(self):
        f = ep.eig_singular((3, 0), 1)
        assert gen_eval(f, (2, 1), 1) == 0

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


class TestDispatch:
    def test_applicable_routes(self):
        assert ep.applicable_routes((1, 0), 1) == (Route.A, Route.ORACLE)
        assert ep.applicable_routes((3, 0), 1) == (Route.B, Route.ORACLE)
        assert ep.applicable_routes((2, 1), 1) == (Route.C, Route.D, Route.ORACLE)

    def test_route_agreement_sweep(self):
        for k in range(2):
            for lam in upto(5):
                bodies = [ep.eigen(lam, k, r) for r in ep.applicable_routes(lam, k)]
                assert all(b == bodies[0] for b in bodies), (lam, k)
                assert bodies[0].total_degree() == size(lam)

    def test_delta_property(self):
        for k in range(2):
            for lam in upto(5):
                f = ep.eigen(lam, k)
                for mu in upto(size(lam)):
                    assert gen_eval(f, mu, k) == Q(int(mu == lam))


class TestVariationAssembly:
    def test_base_case(self):
        assert ep.qreg_variation_body((1, 1), 0) == HALF_SQUARE

    def test_matches_routes(self):
        for k in range(3):
            for lam in upto(6):
                if ep.applicable_routes(lam, k)[0] is not Route.C:
                    continue
                assert ep.qreg_variation_body(lam, k) == ep.eigen(lam, k), (lam, k)

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            ep.qreg_variation_body((1, 0), 0)


def _pair(lam, mu, k):
    f = ep.eigen(lam, k)
    return ep.restriction_pair(f, square_op(f), mu, k)


class TestRestrictionPair:
    def test_identity_on_own_block(self):
        assert _pair((1, 0), (1, 0), 1) == (Q(1), Q(0))

    def test_pure_nilpotent_on_dagger(self):
        assert _pair((2, 0), (1, 1), 0) == (Q(0), Q(1))

    def test_order_exceeds_degree(self):
        assert _pair((1, 0), (0, 0), 1) == (Q(0), Q(0))

    def test_singular_block_rejected(self):
        with pytest.raises(ValueError):
            _pair((1, 0), (3, 0), 1)
