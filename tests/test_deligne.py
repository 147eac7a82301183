import math
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from capelli import deligne as dl
from capelli import eigenpoly as ep
from capelli import knopsahi as ks
from capelli.bipoly import BiPoly, falling_coeffs
from capelli.config import Config
from capelli.deligne import Block, DualScalar
from capelli.partitions import PClass, c_cat, classify, of_size, paired, size, upto
from capelli.ratfunc import RatFunc, UniPoly
from capelli.verify import DEFAULT_T_LIST, Bounds, run_suite


def _at(coeffs, t: Q) -> UniPoly:
    """Specialize Q(s) coefficients of a polynomial in C at s = t."""
    return UniPoly(c.eval(t) for c in coeffs)


class TestMinPoly:
    def test_generic_two(self):
        assert dl.min_poly(2, Q(5)) == UniPoly((0, -10, 1))

    def test_coincident_roots(self):
        assert dl.min_poly(2, Q(0)) == UniPoly((0, 0, 1))

    def test_degree_one(self):
        assert dl.min_poly(1, Q(3)) == UniPoly((-2, 1))

    @pytest.mark.parametrize("t", [Q(0), Q(-2), Q(3), Q(1, 2), Q(-5, 3)])
    def test_minimality(self, t):
        for d in range(6):
            assert dl.min_poly_is_minimal(d, t)

    @pytest.mark.parametrize("d, t", [(3, Q(5)), (4, Q(-2)), (2, Q(0)), (4, Q(1, 2))], ids=str)
    def test_rejects_a_polynomial_that_is_not_minimal(self, monkeypatch, d, t):
        p = dl.min_poly(d, t)
        u = dl.blocks(d, t)[0].c
        mutants = {"extra root": p * (C - 99), "extra irreducible factor": p * (C * C + 1),
                   "not monic": p.scale(2), "one root doubled": p * (C - u),
                   "one root dropped": p.divexact(C - u)}
        for name, mutant in mutants.items():
            monkeypatch.setattr(dl, "min_poly", lambda d_, t_, mutant=mutant: mutant)
            assert not dl.min_poly_is_minimal(d, t), name


class TestBlocks:
    def test_generic(self):
        got = [(b.lam, b.mult) for b in dl.blocks(2, Q(7))]
        assert got == [((1, 1), 1), ((2, 0), 1)]

    def test_degenerate_drops_singular(self):
        got = [(b.lam, b.mult) for b in dl.blocks(2, Q(0))]
        assert got == [((1, 1), 2)]

    def test_trivial(self):
        assert [(b.lam, b.mult) for b in dl.blocks(0, Q(-4))] == [((0, 0), 1)]

    @pytest.mark.parametrize("bad", [0.5, 0.0, "0", None])
    def test_rejects_inexact_dimension(self, bad):
        # 0.5 == Q(1, 2) and 0.0 == 0 hash alike: the floats must miss the
        # block cache even with the exact values in it
        dl.blocks(2, Q(1, 2)), dl.blocks(2, 0)
        calls = (lambda: dl.blocks(2, bad), lambda: dl.d_op((1, 1), bad),
                 lambda: dl.cat_eig_from_blocks((1, 1), bad),
                 lambda: dl.cat_eig_formula((1, 1), bad), lambda: dl.min_poly_is_minimal(2, bad))
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_cache_stays_bounded_over_a_ceiling_sweep(self):
        # 3 t values at the size cap are 45 (d, t) pairs, more than the cache holds
        bounds = Bounds(deligne_size_max=14, minpoly_d_max=14, t_list=(Q(-2), Q(1, 2), Q(3)))
        assert run_suite("deligne", bounds).all_passed
        info = dl._blocks.cache_info()
        assert info.currsize <= info.maxsize <= 32


C = UniPoly.x()  # the Casimir as a polynomial in C


class TestBlockEval:
    def test_casimir_on_thick_block(self):
        b = Block(lam=(1, 1), c=Q(0), mult=2)
        assert dl.block_eval((0, C), [b]) == [DualScalar(Q(0), Q(1))]

    def test_euler_binomial(self):
        b = Block(lam=(3, 1), c=c_cat((3, 1), Q(7)), mult=1)
        assert dl.block_eval((2, UniPoly.one()), [b]) == [DualScalar(Q(6), Q(0))]

    def test_casimir_square_chain_rule(self):
        b = Block(lam=(1, 1), c=Q(0), mult=2)
        assert dl.block_eval((0, C * C), [b]) == [DualScalar(Q(0), Q(0))]

    def test_multiplicity_beyond_two_rejected(self):
        b = Block(lam=(1, 1), c=Q(0), mult=3)
        with pytest.raises(AssertionError, match="multiplicity 3"):
            dl.block_eval((0, C), [b])

    def test_values_in_block_order(self):
        op = (1, C + 1)  # E (C + 1)
        blks = [Block(lam=(1, 1), c=Q(0), mult=2), Block(lam=(2, 0), c=Q(14), mult=1),
                Block(lam=(0, 0), c=Q(0), mult=1)]
        assert dl.block_eval(op, blks) == [DualScalar(Q(2), Q(2)), DualScalar(Q(30), Q(0)),
                                           DualScalar(Q(0), Q(0))]


coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
ops = st.tuples(st.integers(0, 4), st.lists(coeffs, max_size=6))
block_list = [Block(lam=lam, c=c_cat(lam, t), mult=m) for lam in upto(4)
              for t in (Q(0), Q(-2), Q(3), Q(1, 2)) for m in (1, 2)]


@settings(max_examples=60, deadline=None)
@given(ops, st.sampled_from(block_list))
# binom(E, d) = 0 on a multiplicity-2 block, 1 on both multiplicities, and 3
# on both: the sweep's blocks only ever read 0 or 1
@example((3, [Q(1), Q(2), Q(3)]), Block(lam=(1, 1), c=c_cat((1, 1), Q(-2)), mult=2))
@example((2, [Q(1), Q(2), Q(3)]), Block(lam=(1, 1), c=c_cat((1, 1), Q(-2)), mult=2))
@example((2, [Q(1), Q(2), Q(3)]), Block(lam=(2, 0), c=c_cat((2, 0), Q(3)), mult=1))
@example((1, [Q(1, 2), Q(-1), Q(3)]), Block(lam=(2, 1), c=c_cat((2, 1), Q(1, 2)), mult=2))
@example((1, [Q(1, 2), Q(-1), Q(3)]), Block(lam=(2, 1), c=c_cat((2, 1), Q(1, 2)), mult=1))
def test_block_eval_is_dual_number_substitution(op, blk):
    # binom(E, d) q(C) with E -> |lam| and C -> c + nil*eps, eps^2 = 0:
    # C^i -> c^i + i c^(i-1) nil*eps
    d, a = op
    c, nil = blk.c, Q(1 if blk.mult == 2 else 0)
    n = math.comb(size(blk.lam), d)
    value = n * sum((a_i * c**i for i, a_i in enumerate(a)), Q(0))
    dc = n * sum((a_i * i * c ** (i - 1) * nil for i, a_i in enumerate(a) if i), Q(0))
    assert dl.block_eval((d, UniPoly(a)), [blk]) == [DualScalar(value, dc)]


def _blocks_two_branch(d, t):
    """Blocks of size d built with separate generic and even-t branches,
    each with its own class rule and each block's Casimir value from
    ``c_cat``: the reference ``blocks`` must reproduce."""
    if t.denominator == 1 and t <= 0 and t % 2 == 0:
        k = int(-t / 2)
        out = []
        for lam in of_size(d):
            cls = classify(lam, k)
            if cls is not PClass.SINGULAR:
                mult = 2 if cls is PClass.QUASIREGULAR else 1
                out.append(Block(lam=lam, c=c_cat(lam, t), mult=mult))
        return tuple(out)
    return tuple(Block(lam=lam, c=c_cat(lam, t), mult=1) for lam in of_size(d))


@pytest.mark.parametrize("t", DEFAULT_T_LIST + (Q(-8), Q(2), Q(1, 3)), ids=str)
def test_blocks_match_two_branch_build(t):
    for d in range(9):
        assert dl.blocks(d, t) == _blocks_two_branch(d, t), d


def _l_op_per_factor(lam):
    """L_lam, the normalized product in (C, E) built one factor at a time,
    each product normalized in Q(s): the reference that binom(E, d) times
    ``l_op`` must reproduce."""
    d = size(lam)
    op = BiPoly({(0, 0): RatFunc(1)})
    for i in range(d):
        op = op * BiPoly({(0, 1): RatFunc(1), (0, 0): RatFunc(-i)})
    denom = RatFunc(math.factorial(d))
    c_lam = c_cat(lam, dl.S)
    for nu in of_size(d):
        if nu == lam:
            continue
        c_nu = c_cat(nu, dl.S)
        op = op * BiPoly({(1, 0): RatFunc(1), (0, 0): -RatFunc(c_nu)})
        denom = denom * RatFunc(c_lam - c_nu)
    return op.scale(RatFunc(denom.den, denom.num))


def _binom_times_l(lam) -> BiPoly:
    """binom(E, d) l_lam(C), d = |lam|, expanded as a polynomial in (C, E)
    over Q(s): E's falling-factorial coefficients over d!, times l_op's."""
    d = size(lam)
    e_coeffs = [Q(e, math.factorial(d)) for e in falling_coeffs(d)]
    return BiPoly({(i, j): c * e for i, c in enumerate(dl.l_op(lam))
                   for j, e in enumerate(e_coeffs)})


class TestOperators:
    @pytest.mark.parametrize("lam", upto(8))
    def test_binom_times_l_equals_per_factor_product(self, lam):
        assert _binom_times_l(lam) == _l_op_per_factor(lam)

    def test_l_trivial(self):
        assert dl.l_op((0, 0)) == (RatFunc(1),)

    def test_l_size_one_is_constant(self):
        # one partition of 1, so l = 1 and L = binom(E, 1) = E
        assert dl.l_op((1, 0)) == (RatFunc(1),)

    def test_l_size_two(self):
        # C / (c_(2,0)(s) - c_(1,1)(s)) = C / (2s) for lam = (2,0)
        assert dl.l_op((2, 0)) == (RatFunc(0), RatFunc(1, UniPoly((0, 2))))

    @pytest.mark.parametrize("d", range(Config().size_cap + 1))
    def test_spectral_gaps_are_nonzero(self, d):
        # c_lam(s) - c_nu(s) = (a_lam - a_nu)(a_lam + a_nu + s - 2), a = l1 - l2, and a
        # is distinct for distinct partitions of d
        for lam in of_size(d):
            for nu in of_size(d):
                if nu != lam:
                    a, b = lam[0] - lam[1], nu[0] - nu[1]
                    gap = c_cat(lam, dl.S) - c_cat(nu, dl.S)
                    assert isinstance(gap, UniPoly) and gap, (lam, nu)
                    assert gap == UniPoly((a + b - 2, 1)) * (a - b), (lam, nu)

    def test_d_case_generic(self):
        assert dl.d_op((1, 0), Q(7)) == (1, UniPoly.one())

    def test_d_case_singular(self):
        got = dl.d_op((2, 0), Q(0))
        gap = RatFunc(c_cat((1, 1), dl.S) - c_cat((2, 0), dl.S))
        assert got == (2, _at([gap * c for c in dl.l_op((1, 1))], Q(0)))

    def test_d_case_quasiregular_pole_free(self):
        coeffs = [a + b for a, b in zip(dl.l_op((1, 1)), dl.l_op((2, 0)))]
        for coeff in coeffs:
            assert coeff.den(Q(0)) != 0
        assert dl.d_op((1, 1), Q(0)) == (2, _at(coeffs, Q(0)))

    def test_d_pole_is_an_assertion(self, monkeypatch):
        pole = RatFunc(UniPoly.one(), UniPoly((0, 1)))  # 1/s
        monkeypatch.setattr(dl, "l_op", lambda lam: (RatFunc(0), pole))
        with pytest.raises(AssertionError, match=r"^coefficient of C\^1 has a pole at s=0$"):
            dl.d_op((1, 0), Q(0))


class TestEigenvaluePolynomials:
    def test_generic_row(self):
        expected = BiPoly({(1, 0): Q(1), (0, 1): Q(1), (0, 0): Q(-5, 2)})
        assert dl.cat_eig_formula((1, 0), Q(7)) == expected
        assert dl.cat_eig_from_blocks((1, 0), Q(7)) == expected

    def test_noninteger_dimension(self):
        expected = BiPoly({(1, 0): Q(1), (0, 1): Q(1), (0, 0): Q(5, 6)})
        assert dl.cat_eig_formula((1, 0), Q(1, 3)) == expected

    def test_quasiregular_limit(self):
        expected = ep.eig_qreg_limit((1, 1), 0)
        assert dl.cat_eig_formula((1, 1), Q(0)) == expected
        assert dl.cat_eig_from_blocks((1, 1), Q(0)) == expected

    def test_singular_limit(self):
        assert dl.cat_eig_formula((2, 0), Q(0)) == BiPoly({(1, 1): Q(-4)})

    def test_constant(self):
        assert dl.cat_eig_from_blocks((0, 0), Q(1, 2)) == BiPoly({(0, 0): Q(1)})

    @pytest.mark.parametrize("t", [Q(-4), Q(0), Q(3), Q(1, 2)])
    def test_route_agreement_small(self, t):
        for lam in upto(4):
            assert dl.cat_eig_from_blocks(lam, t) == dl.cat_eig_formula(lam, t), (lam, t)

    @pytest.mark.parametrize(
        "lam, t, mu",
        [((1, 0), Q(7), (1, 0)), ((2, 0), Q(0), (2, 0)), ((1, 1), Q(0), (2, 0)),
         ((2, 1), Q(-5, 3), (0, 0))],
        ids=["value", "nil-of-singular", "nil-of-quasiregular", "fractional-t"],
    )
    def test_perturbed_interpolant_names_mu_and_t(self, monkeypatch, lam, t, mu):
        solve = dl.interpolate_ev

        def perturbed(values, d, kb):
            # off by the oracle's own delta at mu: one generalized value moves
            return solve(values, d, kb) + solve({mu: Q(1)}, d, kb)

        monkeypatch.setattr(dl, "interpolate_ev", perturbed)
        with pytest.raises(dl.InterpolationMismatch,
                           match=rf"^generalized value mismatch at \({mu[0]}, {mu[1]}\) for t={t}$"):
            dl.cat_eig_from_blocks(lam, t)

    def test_degenerates_to_plain_parameter(self):
        for k in range(3):
            for lam in upto(4):
                assert dl.cat_eig_formula(lam, Q(-2 * k)) == ep.eigen(lam, k)

    def test_quasiregular_limit_is_route_c(self):
        # the kappa -> kb limit of P_lam / H_lam + P_lam+ / H_lam+, term for term
        for k in range(4):
            for lam in upto(8):
                if classify(lam, k) is PClass.QUASIREGULAR:
                    assert dl.cat_eig_formula(lam, Q(-2 * k)) == ep.eig_qreg_limit(lam, k), (lam, k)


class TestScalarLimit:
    @pytest.mark.parametrize("lam, k", [((2, 0), 0), ((3, 0), 1), ((3, 1), 0), ((4, 0), 1)])
    def test_bridge(self, lam, k):
        lhs, rhs = dl.singular_scale_limit(lam, k)
        assert lhs == rhs

    def test_singular_formula_is_scaled_body(self):
        # P_lam+ is regular at kappa = k, so the limit is the scalar bridge times P_lam+(k)
        for k in range(4):
            for lam in upto(8):
                if classify(lam, k) is PClass.SINGULAR:
                    lamd = paired(lam, k, PClass.SINGULAR)
                    body = ks.ks_poly(lamd).body.map_coeffs(lambda c: c.eval(k))
                    lhs, _ = dl.singular_scale_limit(lam, k)
                    assert dl.cat_eig_formula(lam, Q(-2 * k)) == body.scale(lhs), (lam, k)

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            dl.singular_scale_limit((1, 0), 0)


class TestVanishingPattern:
    def test_identity_on_own_block(self):
        op = dl.d_op((1, 1), Q(0))
        blk = Block(lam=(1, 1), c=Q(0), mult=2)
        assert dl.block_eval(op, [blk]) == [DualScalar(Q(1), Q(0))]

    def test_nilpotent_on_dagger_block(self):
        op = dl.d_op((2, 0), Q(0))
        blk = Block(lam=(1, 1), c=Q(0), mult=2)
        assert dl.block_eval(op, [blk]) == [DualScalar(Q(0), Q(1))]

    def test_zero_on_smaller_blocks(self):
        op = dl.d_op((1, 1), Q(0))
        blks = dl.blocks(0, Q(0)) + dl.blocks(1, Q(0))
        assert dl.block_eval(op, blks) == [DualScalar(Q(0), Q(0))] * len(blks)


@pytest.mark.parametrize("t", DEFAULT_T_LIST)
def test_block_values_cover_each_partition_once(t):
    for lam in upto(6):
        assert dl.block_values(lam, t).keys() == set(upto(size(lam))), lam
