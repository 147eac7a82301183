from fractions import Fraction as Q

import pytest

import reference_eval
import reference_poly as ref
from capelli import knopsahi as ks
from capelli.bipoly import BiPoly, falling_expansion, from_falling
from capelli.partitions import PClass, classify, dagger, h_poly, size, upto
from capelli.ratfunc import PoleError, RatFunc, UniPoly


def RF(num, den=(1,)):
    return RatFunc(UniPoly(num), UniPoly(den))


class TestConstruction:
    def test_empty_partition(self):
        assert ks.ks_poly((0, 0)).body == BiPoly({(0, 0): RatFunc(1)})

    def test_single_row(self):
        body = ks.ks_poly((1, 0)).body
        expected = BiPoly({(1, 0): RF((1,)), (0, 1): RF((1,)), (0, 0): RF((1, 1))})
        assert body == expected

    def test_single_column(self):
        assert ks.ks_poly((1, 1)).body == BiPoly({(1, 1): RF((1,))})

    def test_leading_falling_coefficient_is_one(self):
        for lam in upto(6):
            body = ks.ks_poly(lam).body
            assert falling_expansion(body).get(lam, 0) == RatFunc(1)
            assert body.total_degree() == size(lam)
            assert body.is_symmetric()

    def test_shared_denominator_build_matches_per_term_sum(self):
        # the body is expanded over (kappa+1)_(r) and normalized once per
        # monomial; summing normalized falling terms must give the same body
        for lam in upto(8):
            p = ks.ks_poly(lam)
            per_term = from_falling((RatFunc(num, p.den), m, n) for num, m, n in p.cleared)
            assert p.body == per_term, lam


class TestFallingExpansion:
    # the in-place peel against the BiPoly peel of the reference, in value
    # and in insertion order (which the falling rendering follows)
    def test_reg_parts_match_the_reference_peel(self):
        for k in range(4):
            for mu in upto(8):
                f = ks.reg_part(mu, k)
                assert list(falling_expansion(f).items()) == \
                    list(ref.falling_expansion(f).items()), (mu, k)

    def test_ratfunc_bodies_match_the_reference_peel(self):
        for lam in upto(7):
            body = ks.ks_poly(lam).body
            assert list(falling_expansion(body).items()) == \
                list(ref.falling_expansion(body).items()), lam

    def test_body_is_read_lazily_and_kept(self):
        p = ks.ks_poly.__wrapped__((3, 1))
        assert "body" not in vars(p)
        assert p.body is p.body == ks.ks_poly((3, 1)).body
        doubled = p._replace(nums=p.nums.scale(2))
        assert doubled.body == p.body.map_coeffs(lambda c: c * 2)


class TestCharacterization:
    def test_vanishing_and_normalization(self):
        for lam in upto(5):
            assert ks.characterization_holds(lam)

    def test_shifted_eval_matches_body(self):
        lam = (3, 1)
        for mu in upto(4):
            x = RatFunc(UniPoly((mu[0] - 1, -1)))
            y = RatFunc(mu[1])
            # RatFunc coefficients at RatFunc points: only the generic
            # reference evaluates there
            assert ks.shifted_eval(lam, mu) == reference_eval.eval2(ks.ks_poly(lam).body, x, y)


class TestPoleSet:
    def test_singular_at_zero(self):
        assert ks.ks_pole_set((2, 0), 3) == {0}

    def test_equal_parts_never_singular(self):
        assert ks.ks_pole_set((1, 1), 5) == set()

    def test_row_of_three(self):
        # diff 3 lies in [k+2, 2k+2] only for k = 1
        assert ks.ks_pole_set((3, 0), 3) == {1}

    def test_matches_classification(self):
        for lam in upto(8):
            poles = ks.ks_pole_set(lam, 6)
            expected = {k for k in range(7) if classify(lam, k) is PClass.SINGULAR}
            assert poles == expected


class TestSingRegParts:
    def test_residue_part(self):
        assert ks.sing_part((2, 0), 0) == BiPoly({(1, 1): Q(2)})

    def test_no_pole_means_zero(self):
        assert not ks.sing_part((1, 0), 0)

    def test_scaled_dual(self):
        got = ks.sing_part((3, 0), 1)
        assert got == ks.reg_part((2, 1), 1).scale(Q(6))

    def test_regular_part_square(self):
        expected = BiPoly(
            {(2, 0): Q(1), (0, 2): Q(1), (1, 1): Q(2), (1, 0): Q(1), (0, 1): Q(1)}
        )
        assert ks.reg_part((2, 0), 0) == expected

    def test_regular_part_is_specialization_off_poles(self):
        assert ks.reg_part((1, 0), 2) == BiPoly({(1, 0): Q(1), (0, 1): Q(1), (0, 0): Q(3)})

    def test_constant(self):
        assert ks.reg_part((0, 0), 4) == BiPoly({(0, 0): Q(1)})


def _reference(c: RatFunc) -> ref.RatFunc:
    return ref.RatFunc(ref.UniPoly(c.num.coeffs), ref.UniPoly(c.den.coeffs))


@pytest.mark.parametrize("lam", upto(8))
def test_values_at_k_match_the_coefficientwise_reference(lam):
    """``sing_part``, ``reg_part``, the route-1 kappa-derivative and the pole
    set, read over the shared denominator, against the reference's local
    expansion of each canonical coefficient of ``body`` (k <= 6, the k cap)."""
    refs = {key: _reference(c) for key, c in ks.ks_poly(lam).body.terms.items()}
    poles = set()
    for k in range(7):
        assert ks.sing_part(lam, k) == BiPoly({key: r.residue(k) for key, r in refs.items()})
        assert ks.reg_part(lam, k) == BiPoly({key: r.regular_value(k) for key, r in refs.items()})
        orders = {r.den.multiplicity(k) for r in refs.values()}
        assert orders <= {0, 1}
        if 1 in orders:
            poles.add(k)
            with pytest.raises(PoleError) as info:
                ks._at_kappa(lam, k, "slope")
            assert (info.value.point, info.value.order) == (k, 1)
        else:
            slopes = {key: r.derivative_at(k) for key, r in refs.items()}
            assert ks._at_kappa(lam, k, "slope") == BiPoly(slopes)
    assert ks.ks_pole_set(lam, 6) == poles


@pytest.mark.parametrize("lam", upto(14))
def test_shared_denominator_is_squarefree(lam):
    # the local expansion over den reads simple roots only, up to the size cap 14
    den = ks.ks_poly(lam).den
    assert den.gcd(den.derivative()) == UniPoly.one()


class TestResidueScale:
    def test_base_case(self):
        assert ks.r_coeff((2, 0), 0) == 2

    def test_k_one(self):
        assert ks.r_coeff((3, 0), 1) == 6

    def test_formula_cross_check(self):
        # -H_(3,1)(0) / H'_(2,2)(0) = -4 / -2
        assert ks.r_coeff((3, 1), 0) == 2

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError):
            ks.r_coeff((1, 0), 0)

    def test_singular_part_identity(self):
        for k in range(3):
            for lam in upto(8):
                if classify(lam, k) is not PClass.SINGULAR:
                    continue
                lamd = dagger(lam, k)
                assert ks.sing_part(lam, k) == ks.reg_part(lamd, k).scale(ks.r_coeff(lam, k))


class TestQPoly:
    def test_base_value(self):
        expected = BiPoly(
            {(2, 0): Q(1), (0, 2): Q(1), (1, 1): Q(2), (1, 0): Q(1), (0, 1): Q(1)}
        )
        assert ks.q_poly((2, 0), 0) == expected

    @pytest.mark.parametrize("lam, k", [((3, 0), 1), ((4, 1), 1)])
    def test_route_agreement(self, lam, k):
        # q_poly asserts the limit route equals the derivative route
        assert ks.q_poly(lam, k).is_symmetric()

    def test_wrong_class_rejected(self):
        with pytest.raises(ValueError):
            ks.q_poly((1, 1), 0)

    def test_route_2_matches_q_kappa_reference(self):
        # q_poly asserts route 2 equals route 1, so this pins route 2 to the
        # normalized Q(kappa) limit
        pairs = [(lam, k) for k in range(5) for lam in upto(10)
                 if classify(lam, k) is PClass.SINGULAR]
        assert len(pairs) > 30
        for lam, k in pairs:
            assert ks.q_poly(lam, k) == ref.q_route_2(lam, k), (lam, k)

    @pytest.mark.parametrize("lam, k", [((2, 0), 0), ((3, 0), 1), ((5, 1), 2)])
    def test_perturbed_residue_scale_raises(self, monkeypatch, lam, k):
        # a wrong r_lam leaves a residual pole in route 2
        r = ks.r_coeff(lam, k)
        monkeypatch.setattr(ks, "r_coeff", lambda lam, k: r * 2)
        with pytest.raises(PoleError):
            ks.q_poly(lam, k)


class TestGenEval:
    @pytest.mark.parametrize("bad", [0.5, 0.0, "0", None])
    def test_rejects_inexact_parameter(self, bad):
        with pytest.raises(TypeError):
            ks.eval_point((2, 0), bad)
        with pytest.raises(TypeError):
            ks.gen_eval(BiPoly({(1, 1): Q(-4)}), [(2, 0)], bad)

    def test_normalized_row(self):
        for k in range(3):
            f = BiPoly({(1, 0): Q(1), (0, 1): Q(1), (0, 0): Q(k + 1)})
            assert ks.gen_eval(f, [(1, 0)], k) == [1]

    def test_singular_branch(self):
        assert ks.gen_eval(BiPoly({(1, 1): Q(-4)}), [(2, 0)], 0) == [1]

    def test_square_kills_sum_functions(self):
        f = BiPoly({(2, 0): Q(1, 2), (0, 2): Q(1, 2), (1, 1): Q(1), (1, 0): Q(1, 2), (0, 1): Q(1, 2)})
        assert ks.gen_eval(f, [(2, 0)], 0) == [0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            ks.gen_eval(BiPoly({(1, 0): Q(1)}), [(0, 0)], 0)

    @pytest.mark.parametrize("mu", [(2, 0), (1, 0)])  # 0-singular, regular
    def test_rejects_parameter_coefficients(self, mu):
        with pytest.raises(TypeError):
            ks.gen_eval(ks.ks_poly((2, 0)).body, [mu], 0)


class TestTCheck:
    def test_t1_is_h_value(self):
        t1, t2 = ks.tcheck_values((2, 0), 0)
        assert t1 == Q(h_poly((2, 0))(0)) == 2

    def test_value_at_dagger(self):
        t1, _ = ks.tcheck_values((2, 0), 0)
        q = ks.q_poly((2, 0), 0)
        assert ks.gen_eval(q, [(1, 1)], 0) == [t1]

    def test_value_at_self(self):
        lam, k = (3, 0), 1
        _, t2 = ks.tcheck_values(lam, k)
        q = ks.q_poly(lam, k)
        assert ks.gen_eval(q, [lam], k) == [t2]

    def test_delta_pattern(self):
        for lam, k in [((2, 0), 0), ((3, 0), 1), ((3, 1), 0), ((4, 0), 1)]:
            t1, t2 = ks.tcheck_values(lam, k)
            q = ks.q_poly(lam, k)
            lamd = dagger(lam, k)
            mus = upto(size(lam))
            want = [t1 * (mu == lamd) + t2 * (mu == lam) for mu in mus]
            assert ks.gen_eval(q, mus, k) == want


def test_h_jump_equals_inline_expression():
    # the expression tcheck_values and qreg_variation_body built inline, with
    # the slopes of the reference's quotient rule
    for k in range(4):
        for lam in upto(10):
            if classify(lam, k) is not PClass.SINGULAR:
                continue
            alpha_num = ref.UniPoly(h_poly(dagger(lam, k)).coeffs).scale(-ks.r_coeff(lam, k))
            alpha = ref.RatFunc(alpha_num, ref.UniPoly((-k, 1)))
            beta = ref.RatFunc(ref.UniPoly(h_poly(lam).coeffs))
            want = beta.derivative_at(k) - alpha.derivative_at(k)
            assert ks.h_jump(lam, k) == want, (lam, k)


class TestClosedFormHelpers:
    """Closed products for the dagger-pair normalization data, parametrized
    by lam = (d+k+1, d+l+1) quasiregular with dagger (d+k+l+2, d)."""

    @staticmethod
    def _fact(n):
        import math

        return math.factorial(n)

    def test_dagger_helper_values(self):
        import math

        for k in range(4):
            for l in range(k + 1):
                for d in range(4):
                    lam = (d + k + 1, d + l + 1)
                    lamd = (d + k + l + 2, d)
                    assert dagger(lam, k) == lamd
                    fall = Q(math.prod(range(l + 2, k + l + 3)))
                    want_r = Q((-1) ** l) * fall / (self._fact(k - l) * self._fact(l))
                    assert ks.r_coeff(lamd, k) == want_r, (lam, k)
                    want_h = Q(
                        self._fact(k + l + 2) * self._fact(d) * self._fact(d + l + 1),
                        self._fact(l + 1),
                    )
                    assert Q(h_poly(lamd)(k)) == want_h, (lam, k)
                    want_hprime = Q(
                        (-1) ** (l + 1)
                        * self._fact(k - l)
                        * self._fact(d + l + 1)
                        * self._fact(d)
                        * self._fact(l)
                    )
                    assert Q(h_poly(lam).derivative()(k)) == want_hprime, (lam, k)


def test_reg_basis_triangular_small():
    for k in range(3):
        assert ks.reg_basis_triangular(k, 5)
