import math
from fractions import Fraction as Q

import pytest

from capelli import deligne as dl
from capelli import eigenpoly as ep
from capelli import knopsahi as ks
from capelli import partitions as pt
from capelli import verify as vf
from capelli.partitions import PClass
from capelli.ratfunc import UniPoly


class TestClassify:
    @pytest.mark.parametrize(
        "lam, k, expected",
        [
            ((1, 0), 1, PClass.REGULAR),
            ((2, 1), 1, PClass.QUASIREGULAR),
            ((3, 0), 1, PClass.SINGULAR),
            ((2, 0), 1, PClass.REGULAR),   # boundary diff = k+1
            ((5, 0), 1, PClass.REGULAR),   # diff >= 2k+3
            ((4, 0), 1, PClass.SINGULAR),  # diff = 2k+2
        ],
    )
    def test_examples(self, lam, k, expected):
        assert pt.classify(lam, k) is expected

    def test_trichotomy_exhaustive(self):
        for k in range(11):
            for l1 in range(51):
                for l2 in range(l1 + 1):
                    lam = (l1, l2)
                    diff = l1 - l2
                    regular = l1 <= k or diff == k + 1 or diff >= 2 * k + 3
                    qreg = l1 >= k + 1 and diff <= k
                    sing = k + 2 <= diff <= 2 * k + 2
                    assert regular + qreg + sing == 1
                    got = pt.classify(lam, k)
                    assert (got is PClass.REGULAR) == regular
                    assert (got is PClass.QUASIREGULAR) == qreg
                    assert (got is PClass.SINGULAR) == sing

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            pt.classify((1, 2), 0)


class TestClassifyAt:
    def test_matches_classify_at_integer_k(self):
        for k in range(7):
            for lam in pt.upto(10):
                want = pt.classify(lam, k)
                assert pt.classify_at(lam, k) is want
                assert pt.classify_at(lam, Q(k)) is want

    @pytest.mark.parametrize("k", [-1, -3, Q(1, 2), Q(-5, 6), Q(7, 3)])
    def test_regular_off_the_non_negative_integers(self, k):
        for lam in pt.upto(10):
            assert pt.classify_at(lam, k) is PClass.REGULAR

    @pytest.mark.parametrize("k", [0, -1, Q(1, 2)])
    def test_rejects_non_partition(self, k):
        with pytest.raises(ValueError):
            pt.classify_at((1, 2), k)

    @pytest.mark.parametrize("bad", [0.5, 0.0, "0", None])
    def test_rejects_inexact_parameter(self, bad):
        with pytest.raises(TypeError):
            pt.classify_at((2, 0), bad)


class TestDagger:
    def test_singular_to_quasiregular(self):
        assert pt.dagger((3, 0), 1) == (2, 1)

    def test_boundary_fixed_point(self):
        assert pt.dagger((2, 0), 1) == (2, 0)

    def test_outside_lattice(self):
        assert pt.dagger((1, 0), 1) is None

    def test_involution_swaps_classes(self):
        for k in range(5):
            for d in range(11):
                for lam in pt.of_size(d):
                    cls = pt.classify(lam, k)
                    if cls is PClass.REGULAR:
                        continue
                    lamd = pt.dagger(lam, k)
                    assert lamd is not None
                    assert pt.size(lamd) == pt.size(lam)
                    other = pt.classify(lamd, k)
                    assert {cls, other} == {PClass.QUASIREGULAR, PClass.SINGULAR}
                    assert pt.dagger(lamd, k) == lam

    def test_paired_is_the_dagger_of_its_class(self):
        for k in range(5):
            for lam in pt.upto(10):
                cls = pt.classify(lam, k)
                if cls is not PClass.REGULAR:
                    assert pt.paired(lam, k, cls) == pt.dagger(lam, k)


_GUARDED = [
    (pt.paired, PClass.SINGULAR),
    (pt.paired, PClass.QUASIREGULAR),
    (ep.eig_singular, PClass.SINGULAR),
    (ep.eig_qreg_limit, PClass.QUASIREGULAR),
    (ep.eig_qreg_explicit, PClass.QUASIREGULAR),
    (ep.qreg_variation_body, PClass.QUASIREGULAR),
    (ks.r_coeff, PClass.SINGULAR),
    (ks.q_poly, PClass.SINGULAR),
    (ks.tcheck_values, PClass.SINGULAR),
    (ks.h_jump, PClass.SINGULAR),
    (dl.singular_scale_limit, PClass.SINGULAR),
]


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize(
    "fn, cls", _GUARDED, ids=[f"{fn.__module__}.{fn.__name__}-{cls.value}" for fn, cls in _GUARDED]
)
def test_class_guard_rejects_every_other_class(fn, cls, k):
    for lam in pt.upto(6):
        if pt.classify(lam, k) is cls:
            continue
        args = (lam, k, cls) if fn is pt.paired else (lam, k)
        with pytest.raises(ValueError, match=f"is not {k}-{cls.value}"):
            fn(*args)


@pytest.mark.parametrize("k", range(4))
def test_singular_part_check_rejects_every_other_class(k):
    for lam in pt.upto(6):
        if pt.classify(lam, k) is PClass.SINGULAR:
            continue
        check = vf.check_singular_part(lam, k)
        assert check.status == "fail"
        assert check.lhs.startswith("error: ValueError at partitions.py:")
        assert check.lhs.endswith(f"is not {k}-singular")


class TestHPoly:
    def test_row(self):
        assert pt.h_poly((1, 0)) == UniPoly((1,))

    def test_column(self):
        assert pt.h_poly((1, 1)) == UniPoly((0, -1))

    def test_factorial_only(self):
        assert pt.h_poly((2, 0)) == UniPoly((2,))

    def test_is_the_scaled_product(self):
        # (l1 - l2)! l2! prod_{i < l2} (l1 - 1 - i - kappa), factor by factor
        for lam in pt.upto(14):
            l1, l2 = lam
            want = UniPoly((math.factorial(l1 - l2) * math.factorial(l2),))
            for i in range(l2):
                want = want * UniPoly((l1 - 1 - i, -1))
            assert pt.h_poly(lam) == want, lam

    def test_degree_is_second_part(self):
        for lam in pt.upto(8):
            assert pt.h_poly(lam).degree() == lam[1]

    def test_vanishing_pattern(self):
        # H_lam(k) = 0 exactly on quasiregular lam
        for k in range(4):
            for lam in pt.upto(8):
                vanishes = not pt.h_poly(lam)(k)
                assert vanishes == (pt.classify(lam, k) is PClass.QUASIREGULAR)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, Q(1, 2), Q(-5, 3), Q(7, 3)], ids=str)
    def test_value_is_the_polynomial_at_the_point(self, k):
        for lam in pt.upto(8):
            got = pt.h_value(lam, k)
            assert type(got) is Q and got == pt.h_poly(lam)(k), lam

    @pytest.mark.parametrize("bad", [0.5, "0", None])
    def test_value_rejects_inexact_point(self, bad):
        with pytest.raises(TypeError):
            pt.h_value((2, 1), bad)


class TestCasimir:
    def test_zero(self):
        assert pt.c_super((0, 0), 3) == 0

    def test_value(self):
        assert pt.c_super((3, 0), 1) == -3

    def test_dagger_coincidence(self):
        for k in range(5):
            for lam in pt.upto(10):
                if pt.classify(lam, k) is PClass.QUASIREGULAR:
                    lamd = pt.dagger(lam, k)
                    assert pt.c_super(lam, k) == pt.c_super(lamd, k)

    def test_categorical_values(self):
        assert pt.c_cat((0, 0), Q(5)) == 0
        assert pt.c_cat((2, 0), Q(0)) == 0
        assert pt.c_cat((3, 0), Q(-2)) == -3

    def test_categorical_specializes(self):
        for k in range(7):
            for lam in pt.upto(14):
                assert pt.c_cat(lam, Q(-2 * k)) == pt.c_super(lam, k)

    def test_categorical_in_kappa(self):
        # t = -2 kappa as a polynomial in kappa, read back at rational kappa
        for kappa in [Q(0), Q(1), Q(3), Q(-1, 2), Q(5, 3)]:
            for lam in pt.upto(8):
                assert pt.c_cat(lam, dl.T)(kappa) == pt.c_cat(lam, -2 * kappa), (lam, kappa)


class TestEll:
    @pytest.mark.parametrize("lam, k, expected", [((1, 1), 0, 0), ((2, 1), 1, 0), ((2, 2), 1, 1)])
    def test_examples(self, lam, k, expected):
        assert pt.ell(lam, k) == expected

    def test_range(self):
        for k in range(5):
            for lam in pt.upto(10):
                if pt.classify(lam, k) is PClass.QUASIREGULAR:
                    assert 0 <= pt.ell(lam, k) <= k

    def test_wrong_class(self):
        with pytest.raises(ValueError):
            pt.ell((1, 0), 1)


class TestNu:
    def test_zero_shift(self):
        assert pt.nu((1, 1), (0, 0), 0) == (1, 1)

    def test_size_violation(self):
        with pytest.raises(ValueError):
            pt.nu((2, 2), (1, 0), 1)

    def test_shift(self):
        assert pt.nu((3, 2), (1, 0), 1) == (2, 2)

    def test_never_singular(self):
        for k in range(4):
            for lam in pt.upto(9):
                if pt.classify(lam, k) is not PClass.QUASIREGULAR:
                    continue
                room = k - pt.ell(lam, k)
                for mu in pt.upto(room):
                    got = pt.nu(lam, mu, k)
                    assert pt.classify(got, k) is not PClass.SINGULAR


class TestEnumeration:
    def test_upto_graded_lex(self):
        assert pt.upto(2) == ((0, 0), (1, 0), (1, 1), (2, 0))

    def test_size_filter_drops_singular(self):
        kept = tuple(p for p in pt.of_size(3) if pt.classify(p, 1) is not PClass.SINGULAR)
        assert kept == ((2, 1),)

    def test_trivial(self):
        assert pt.upto(0) == ((0, 0),)

    def test_counts(self):
        for d in range(31):
            assert len(pt.upto(d)) == (d + 2) ** 2 // 4
