"""Call-count guards for the hot paths of the knop-sahi, capelli, identity-e
and deligne sweeps.

Each guard wraps a function with a counter and asserts how often it runs.
Nothing is timed, so the guards are deterministic.  A guard fails when a
change:

* normalizes, divides or takes a gcd where the residue, finite part or
  pole set of a Knop-Sahi polynomial at kappa = k is read off its local
  expansion, or reads the shared denominator more than once per
  ``local_values`` call (``sing_part`` / ``reg_part``, ``ks_pole_set``);
* builds the falling products of ``ks_poly`` or ``shifted_eval`` other than
  from one ``UniPoly.falling`` table, or the y-values of ``shifted_eval``
  other than from one ``falling_table``;
* normalizes a ``ks_poly`` coefficient more than once per monomial, or an
  ``l_op`` coefficient more than once;
* rebuilds the eigenvalue polynomial, or builds square_op(f) when no point
  reads it, in a jordan-restrictions check;
* builds the interpolation oracle's matrix from bivariate polynomials
  instead of 1-D falling tables, or factors an oracle system more than once
  per (k, d);
* renders a passing cross-route record's two equal sides twice, or a
  failing one's fewer than twice;
* does ``RatFunc`` work, reads q(C) where binom(E, d) is 0, reads a slope
  on a multiplicity-1 block, scales by the binomial or recomputes a
  Casimir value in ``block_eval``;
* rebuilds square_op(f) per point of a generalized-value check, or builds
  it when no point reads it;
* brings a polynomial's coefficients to a common denominator more than
  once per point-list evaluation;
* takes the partials of a block-model operator more than once, or
  specializes a block-model operator per block instead of once per check;
* makes a Q(kappa) product in a categorical closed form (only the singular
  scale is normalized);
* normalizes or takes a gcd in route c or in a whole ``q_poly`` call,
  whose pole-cancelling limits run on cleared integer numerators;
* normalizes, divides, takes a gcd, brings coefficients to a common
  denominator, calls ``falling`` or builds a ``Fraction`` in a passing
  derivative-identity check;
* builds x_(m) other than from the cached ``falling_coeffs`` table in
  psi-chain;
* normalizes, divides or takes a gcd in a passing psi-chain check or in
  ``tcheck_values`` / ``h_jump``, whose slopes ``local_values`` reads;
* renders a passing identity check;
* multiplies out an x-factor of psi_1 or F(s) per table entry instead of
  reading one ``falling_table`` per x, builds a y row from an x-derived
  product or from the harmonic kernel, or builds the factors of x in F(s)'s
  closed form per point instead of per x;
* builds a ``Fraction`` in psi_1, psi_2, F(s) or F(s)'s closed form, in a
  passing f-closed-form grid, per point of a passing psi-chain grid, or
  beyond the one result of ``h_sum`` and the two of ``dougall_check``;
* evaluates a polynomial, a rational function or the Casimir at a rational
  point with ``Fraction`` arithmetic instead of on integer numerators, or
  does ``Fraction`` arithmetic in the sum, product, scaling or gcd of
  ``UniPoly``s or in a terminating pFq;
* expands the oracle's solution with ``Fraction`` arithmetic instead of on
  its integer numerators.
"""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

import reference_eval
import reference_poly
from capelli import deligne as dl
from capelli import eigenpoly as ep
from capelli import hypergeom as hg
from capelli import identities as idn
from capelli import knopsahi as ks
from capelli import bipoly, ratfunc
from capelli import verify as vf
from capelli.bipoly import BiPoly, falling_coeffs
from capelli.partitions import PClass, c_cat, classify, classify_at, paired, size, upto
from capelli.ratfunc import PoleError, RatFunc, UniPoly


def _counter(monkeypatch, owner, name) -> list:
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _reads_at_k(monkeypatch, reads):
    """Run each of ``reads`` with every Fraction refusing arithmetic and
    count its work: (UniPoly divmods, gcds and RatFunc normalizations, the
    ``local_values`` calls, the Horner passes over their denominators)."""
    work = [_counter(monkeypatch, UniPoly, "divmod"), _counter(monkeypatch, UniPoly, "gcd"),
            _counter(monkeypatch, RatFunc, "__init__")]
    kernels = _counter(monkeypatch, ks, "local_values")
    passes = _counter(monkeypatch, ratfunc, "_taylor")
    _refuse_fraction_arithmetic(monkeypatch)
    for read in reads:
        read()
    monkeypatch.undo()
    dens = {id(args[1]) for args in kernels}
    return work, kernels, [args for args in passes if id(args[0]) in dens]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_singular_and_finite_parts_make_no_gcd(monkeypatch, k):
    # nor any divmod, normalization or Fraction arithmetic: one kernel call
    # per part, one Horner pass over the shared denominator per kernel call
    singular = [lam for lam in upto(10) if classify(lam, k) is PClass.SINGULAR]
    assert singular
    for lam in singular:
        ks.ks_poly(lam)  # build (and normalize) outside the counted region
    reads = [lambda lam=lam, part=part: part(lam, k)
             for lam in singular for part in (ks.sing_part, ks.reg_part)]
    work, kernels, den_passes = _reads_at_k(monkeypatch, reads)
    assert work == [[], [], []]
    assert len(kernels) == len(den_passes) == 2 * len(singular)


@pytest.mark.parametrize("lam", [(0, 0), (3, 0), (4, 2), (6, 1)])
def test_ks_poly_and_shifted_eval_take_one_falling_table(monkeypatch, lam):
    ks.ks_poly(lam)
    tables = _counter(monkeypatch, UniPoly, "falling")
    ks.ks_poly.__wrapped__(lam)  # bypass the cache so the body is built
    ks.shifted_eval(lam, (2, 1))
    # (kappa+1)_(m) for m <= r, then the x-argument 1 - kappa up to x_(l1)
    assert tables == [(ks.KAPPA + 1, lam[0] - lam[1]), (UniPoly((1, -1)), lam[0])]


@pytest.mark.parametrize("lam", [(0, 0), (3, 0), (4, 2), (6, 1)])
def test_shifted_eval_takes_each_y_value_once(monkeypatch, lam):
    ks.ks_poly(lam)
    ys = _counter(monkeypatch, ks, "falling_table")
    ks.shifted_eval(lam, (2, 1))
    # one table of (m2)_(n) at m2 = 1 for n up to l1, the largest y-exponent of P_lam
    assert ys == [(1, 1, lam[0])]


def test_ks_poly_normalizes_once_per_monomial(monkeypatch):
    build = ks.ks_poly.__wrapped__  # bypass the cache so every call builds
    for lam in upto(8):
        inits = _counter(monkeypatch, RatFunc, "__init__")
        body = build(lam).body
        assert len(inits) <= len(body.terms), lam
        monkeypatch.undo()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_jordan_check_builds_f_once(monkeypatch, k):
    # square_op counted wherever a module of the check's path binds the name
    owners = [m for m in (bipoly, ks, ep, vf) if hasattr(m, "square_op")]
    for lam in upto(5):
        # square_op(f) only when a quasiregular block of size <= |lam| reads it
        read = int(any(classify(mu, k) is PClass.QUASIREGULAR for mu in upto(size(lam))))
        eigen = _counter(monkeypatch, ep, "eigen")
        squares = [_counter(monkeypatch, m, "square_op") for m in owners]
        check = vf.check_restrictions(lam, k)
        assert check.status == "pass", check
        assert (len(eigen), sum(map(len, squares))) == (1, read), lam
        monkeypatch.undo()


@pytest.mark.parametrize("k, lam", [(6, (6, 6)), (2, (5, 3)), (Q(-5, 6), (4, 1))])
def test_cold_oracle_solves_once_without_bivariate_evaluation(monkeypatch, k, lam):
    monkeypatch.setattr(ep, "_SYSTEMS", {})
    # square_op counted wherever a module of the oracle's path binds the name
    owners = [m for m in (bipoly, ep) if hasattr(m, "square_op")]
    squares = [_counter(monkeypatch, m, "square_op") for m in owners]
    evals = _counter(monkeypatch, BiPoly, "eval_at")
    solves = _counter(monkeypatch, ep, "gauss_solve")
    routes = [_counter(monkeypatch, ep, name) for name in ("ks_poly", "reg_part")]
    ep.interpolate_ev({lam: Q(1)}, size(lam), k)
    assert (squares, evals, len(solves)) == ([[]] * len(owners), [], 1)
    assert routes == [[], []]  # the oracle reads no closed form


def test_cat_eigen_sweep_factors_each_oracle_system_once(monkeypatch):
    monkeypatch.setattr(ep, "_SYSTEMS", {})
    builds = _counter(monkeypatch, ep, "_ev_rows")
    factors = _counter(monkeypatch, ep, "bareiss_factor")
    solves = _counter(monkeypatch, ep, "gauss_solve")
    ts = [Q(-4), Q(0), Q(3), Q(1, 2), Q(-5, 3)]
    for t in ts:
        for lam in upto(5):
            check = vf.check_cat_routes(lam, t)
            assert check.status == "pass", check
    systems = {(dl.kbar(t), d) for t in ts for d in range(6)}
    assert (len(builds), len(factors), set(ep._SYSTEMS)) == (len(systems), len(systems), systems)
    assert len(solves) == len(ts) * len(upto(5))  # one solve per check


CROSS_ROUTE_CASES = [
    (vf.check_cat_routes, ((3, 1), Q(1, 2))),
    (vf.check_cat_routes, ((2, 0), Q(-2))),
    (vf.check_super_cat, ((3, 1), 1)),
    (vf.check_eigen_routes, ((3, 1), 1)),
    (vf.check_singular_part, ((2, 0), 0)),
]


@pytest.mark.parametrize("check, args", CROSS_ROUTE_CASES)
def test_passing_cross_route_check_renders_once(monkeypatch, check, args):
    renders = _counter(monkeypatch, vf, "render_bipoly")
    record = check(*args)
    assert record.passed and record.lhs == record.rhs, record
    assert len(renders) == 1


def test_failing_cat_eigen_check_renders_both_sides(monkeypatch):
    formula = dl.cat_eig_formula
    monkeypatch.setattr(dl, "cat_eig_formula", lambda lam, t: formula(lam, t).scale(Q(2)))
    renders = _counter(monkeypatch, vf, "render_bipoly")
    record = vf.check_cat_routes((3, 1), Q(1, 2))
    assert record.status == "fail" and record.lhs != record.rhs and len(renders) == 2


def test_l_op_normalizes_once_per_coefficient(monkeypatch):
    for lam in upto(6):
        dl.l_op.cache_clear()  # so the counted call builds
        inits = _counter(monkeypatch, RatFunc, "__init__")
        coeffs = dl.l_op(lam)
        assert len(inits) <= len(coeffs), lam
        monkeypatch.undo()


def test_ks_pole_set_makes_no_gcd(monkeypatch):
    # nor any divmod, normalization or Fraction arithmetic: one kernel call
    # per k, one Horner pass over the shared denominator per kernel call
    for lam in upto(10):
        ks.ks_poly(lam)  # build (and normalize) outside the counted region
    reads = [lambda lam=lam: ks.ks_pole_set(lam, 6) for lam in upto(10)]
    work, kernels, den_passes = _reads_at_k(monkeypatch, reads)
    assert work == [[], [], []]
    assert len(kernels) == len(den_passes) == 7 * len(upto(10))


def test_block_eval_makes_no_ratfunc_work(monkeypatch):
    for t in (Q(-2), Q(-4), Q(1, 2)):
        ops = {lam: dl.d_op(lam, t) for lam in upto(4)}
        blks = {lam: [b for m in range(size(lam) + 1) for b in dl.blocks(m, t)] for lam in ops}
        # the sweep's blocks: binom(|b|, |lam|) is 1 on the size-|lam| blocks, 0 below
        read = [b for lam in ops for b in blks[lam] if size(b.lam) == size(lam)]
        assert any(b.mult == 2 for b in read) == (t.denominator == 1 and t <= 0)
        evals = _counter(monkeypatch, RatFunc, "eval")
        inits = _counter(monkeypatch, RatFunc, "__init__")
        casimirs = _counter(monkeypatch, dl, "c_cat")  # each block carries its value
        # no bivariate evaluation: q read once per block that binom(E, d) keeps,
        # with its slope only where there is a nil part, and never scaled
        bivariate = [_counter(monkeypatch, BiPoly, name) for name in ("eval_at", "partials")]
        denominators = [_counter(monkeypatch, m, "common_denominator") for m in (bipoly, ratfunc)]
        slopes = _counter(monkeypatch, UniPoly, "value_and_slope")
        values = _counter(monkeypatch, UniPoly, "__call__")
        products = [_counter(monkeypatch, Q, name) for name in ("__mul__", "__rmul__")]
        for lam, op_t in ops.items():
            dl.block_eval(op_t, blks[lam])
        monkeypatch.undo()
        assert (evals, inits, casimirs) == ([], [], []), t
        assert bivariate == [[], []] and denominators == [[], []], t
        assert [args[1] for args in slopes] == [b.c for b in read if b.mult == 2], t
        assert [args[1] for args in values] == [b.c for b in read if b.mult == 1], t
        assert products == [[], []], t


@pytest.mark.parametrize("k", [0, 1, 2])
def test_generalized_value_checks_build_square_op_once(monkeypatch, k):
    owners = [m for m in (bipoly, ks, vf) if hasattr(m, "square_op")]
    for lam in upto(5):
        # built only when a k-singular mu of size <= |lam| reads it
        read = int(any(classify(mu, k) is PClass.SINGULAR for mu in upto(size(lam))))
        for check in ([vf.check_q_values] if classify(lam, k) is PClass.SINGULAR else []) + [
                vf.check_eigen_routes]:
            squares = [_counter(monkeypatch, m, "square_op") for m in owners]
            assert check(lam, k).status == "pass"
            assert sum(map(len, squares)) == read, (check.__name__, lam)
            monkeypatch.undo()


@pytest.mark.parametrize("k", [0, 1, 2])
def test_point_evaluators_take_one_common_denominator_per_polynomial(monkeypatch, k):
    f = ep.eigen((3, 1), k)
    mus = upto(6)
    regular = [mu for mu in mus if classify(mu, k) is not PClass.SINGULAR]
    quasi = [mu for mu in mus if classify(mu, k) is PClass.QUASIREGULAR]
    assert 1 < len(regular) < len(mus) and quasi  # both k-singular and other mu
    # (evaluator, points, polynomials evaluated): f, and square_op(f) when it is read
    cases = [(ks.gen_eval, mus, 2), (ks.gen_eval, mus * 3, 2), (ks.gen_eval, regular, 1),
             (ks.gen_eval, regular[:1], 1), (ep.restriction_pair, quasi, 2),
             (ep.restriction_pair, quasi[:1], 2)]
    for evaluate, pts, polys in cases:
        denominators = _counter(monkeypatch, bipoly, "common_denominator")
        evaluate(f, pts, k)
        assert len(denominators) == polys, (evaluate.__name__, len(pts))
        monkeypatch.undo()


def _partials_once_per_operator(calls) -> bool:
    return len(calls) == len({id(args[0]) for args in calls})


@pytest.mark.parametrize("t", [Q(-4), Q(0), Q(3), Q(1, 2)])
def test_block_model_takes_partials_once_per_operator(monkeypatch, t):
    for lam in upto(4):
        # f's, inside square_op, only when the re-check reads a singular mu
        read = int(any(classify_at(mu, dl.kbar(t)) is PClass.SINGULAR for mu in upto(size(lam))))
        partials = _counter(monkeypatch, BiPoly, "partials")
        dl.cat_eig_from_blocks(lam, t)
        assert len(partials) == read and _partials_once_per_operator(partials), lam
        monkeypatch.undo()


def _d_op_coefficients(lam, t) -> int:
    """How many Q(s) coefficients d_op(lam, t) has before it is specialized:
    those of l_lam, l_{lam+}, or their sum, per the class of lam at -t/2.
    lam+ has the size of lam, so each has one per partition of that size."""
    kb = dl.kbar(t)
    cls = classify_at(lam, kb)
    lens = set() if cls is PClass.SINGULAR else {len(dl.l_op(lam))}
    if cls is not PClass.REGULAR:
        lens.add(len(dl.l_op(paired(lam, int(kb), cls))))
    (n,) = lens
    return n


@pytest.mark.parametrize("t", [Q(-4), Q(0), Q(3), Q(1, 2)])
def test_deligne_checks_specialize_once(monkeypatch, t):
    for lam in upto(5):
        coefficients = _d_op_coefficients(lam, t)
        evals = _counter(monkeypatch, RatFunc, "eval")
        check = vf.check_vanishing_suite(lam, t)
        assert check.status == "pass", check
        assert len(evals) <= coefficients, lam
        evals.clear()
        dl.cat_eig_from_blocks(lam, t)
        assert len(evals) <= coefficients, lam
        monkeypatch.undo()


def test_cat_eig_formula_normalizes_once_per_scaled_term(monkeypatch):
    for mu in upto(6):
        ks.ks_poly(mu)  # build (and normalize) outside the counted region
    seen = set()
    for t in [Q(-4), Q(-2), Q(0), Q(3), Q(1, 2)]:
        kb = dl.kbar(t)
        for lam in upto(6):
            cls = classify_at(lam, kb)
            seen.add(cls)
            # route c cancels its pole on cleared numerators; otherwise one body is
            # specialized, then scaled by a scalar: no Q(kappa) product, and only
            # the singular scale's ratio is normalized
            bound = int(cls is PClass.SINGULAR)
            inits = _counter(monkeypatch, RatFunc, "__init__")
            dl.cat_eig_formula(lam, t)
            assert len(inits) <= bound, (lam, t, len(inits), bound)
            monkeypatch.undo()
    assert seen == set(PClass)


def test_pole_cancelling_limits_make_no_normalization(monkeypatch):
    """Route c at every quasiregular (lam, k) and a whole ``q_poly`` call at
    every singular one, |lam| <= 6 and k <= 3, make no ``RatFunc`` and take
    no gcd once ``ks_poly`` is warm; route c reads no ``local_values`` and
    ``q_poly`` only route 1's two, so neither limit shares route 1's kernel."""
    pairs = [(lam, k, classify(lam, k)) for k in range(4) for lam in upto(6)]
    qreg = [(lam, k) for lam, k, cls in pairs if cls is PClass.QUASIREGULAR]
    sing = [(lam, k) for lam, k, cls in pairs if cls is PClass.SINGULAR]
    assert qreg and sing
    for lam, k, cls in pairs:
        if cls is not PClass.REGULAR:
            for mu in (lam, paired(lam, k, cls)):
                ks.ks_poly(mu)  # build (and normalize) outside the counted region
    work = [_counter(monkeypatch, RatFunc, "__init__"), _counter(monkeypatch, UniPoly, "gcd")]
    kernels = _counter(monkeypatch, ks, "local_values")
    for lam, k in qreg:
        ep.eig_qreg_limit(lam, k)
    assert kernels == []
    for lam, k in sing:
        ks.q_poly(lam, k)
    assert work == [[], []]
    assert len(kernels) == 2 * len(sing)


def test_passing_derivative_identity_compares_integer_numerators(monkeypatch):
    """For every triple with N <= 7 a passing check makes no RatFunc
    normalization, gcd, polynomial division or ``common_denominator`` pass
    (so builds no ``UniPoly``), calls no ``falling`` and builds no
    ``Fraction``."""
    for n in range(8):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                work = [_counter(monkeypatch, owner, name) for owner, name in (
                    (UniPoly, "divmod"), (UniPoly, "gcd"), (RatFunc, "__init__"),
                    (ratfunc, "common_denominator"), (hg, "falling"), (idn, "falling"))]
                _refuse_fraction_arithmetic(monkeypatch)
                outcome = []
                made = _fraction_count(
                    monkeypatch, lambda: outcome.append(idn.derivative_identity_check(i, j, n)))
                assert (outcome, made, work) == ([(True, "-", "-")], 0, [[]] * 6), (i, j, n)


@pytest.mark.parametrize("i, j, n", [(0, 0, 2), (1, 1, 3), (0, 2, 4), (2, 1, 5)])
def test_psi_chain_builds_each_falling_polynomial_once(monkeypatch, i, j, n):
    falling_coeffs.cache_clear()
    builds = _counter(monkeypatch, UniPoly, "falling")
    assert idn.psi_chain_check(i, j, n)[0]
    misses = falling_coeffs.cache_info().misses
    assert misses <= n + 2
    # x_(m) comes from falling_coeffs only, one UniPoly.falling of x per
    # cache miss; otherwise UniPoly.falling builds just psi_L's tail
    # (x-N+j)_(j)
    others = [base for base, _ in builds if base != UniPoly.x()]
    assert (len(builds) - len(others), others) == (misses, [UniPoly((j - n, 1))])


def _normalizing_work(monkeypatch) -> list:
    """Counters on UniPoly divmods, gcds and RatFunc normalizations."""
    return [_counter(monkeypatch, UniPoly, "divmod"), _counter(monkeypatch, UniPoly, "gcd"),
            _counter(monkeypatch, RatFunc, "__init__")]


@pytest.mark.parametrize("i, j, n", [(0, 0, 2), (1, 1, 3), (0, 2, 4), (2, 1, 5)])
def test_passing_psi_chain_makes_no_normalization(monkeypatch, i, j, n):
    # d/dx psi_L on the diagonal is a slope from local_values
    work = _normalizing_work(monkeypatch)
    assert idn.psi_chain_check(i, j, n)[0]
    assert work == [[], [], []]


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_h_jump_makes_no_normalization(monkeypatch, k):
    # beta'(k) by UniPoly.derivative, alpha'(k) a slope from local_values
    singular = [lam for lam in upto(8) if classify(lam, k) is PClass.SINGULAR]
    assert singular
    work = _normalizing_work(monkeypatch)
    for lam in singular:
        ks.tcheck_values(lam, k)
    assert work == [[], [], []]


def test_passing_identity_checks_render_nothing(monkeypatch):
    renders = [_counter(monkeypatch, owner, name)
               for owner in (idn, ratfunc) for name in ("render_ratfunc", "render_unipoly")]
    for n in range(6):
        assert idn.logderiv_check(n)[0]
        for i in range(n + 1):
            for j in range(n + 1 - i):
                assert idn.derivative_identity_check(i, j, n)[0]
    assert renders == [[], [], [], []]


def _x_derived_kernel_calls(kernels, xs, ys) -> list:
    """The ``pochhammer_num(p, q, n, step)`` calls whose base p/q is not y + c
    for an integer c; ``xs`` and ``ys`` differ mod 1, so those are the calls
    on an x-derived argument."""
    assert not {x % 1 for x in xs} & {y % 1 for y in ys}
    return [a for a in kernels if Q(a[0], a[1]) % 1 not in {y % 1 for y in ys}]


@pytest.mark.parametrize("i, j, n", [(0, 0, 3), (1, 1, 3), (0, 2, 4), (1, 2, 5)])
def test_psi1_computes_x_factors_once_per_x(monkeypatch, i, j, n):
    pts, d = idn.chain_grid(i, j, n), n - i
    xs, ys = {x for x, _ in pts}, {y for _, y in pts}
    falls = _counter(monkeypatch, idn, "falling")
    kernels = _counter(monkeypatch, idn, "pochhammer_num")
    tables = _counter(monkeypatch, idn, "falling_table")
    harmonic = _counter(monkeypatch, idn, "harmonic_num")
    idn.psi1_at(pts, d, j)
    # on the chain grid every x exceeds every integer the constants use
    assert [a for a in falls if a[0] in xs] == []
    # x_(d-r) for r = 1..d read off one table per distinct x, on its integer
    # numerator; no x product multiplied out one entry at a time (the y rows
    # take theirs from the kernel), and no harmonic sum, which psi_2 reads
    assert (_x_derived_kernel_calls(kernels, xs, ys), harmonic) == ([], [])
    assert kernels or j == d  # d = j leaves only the empty q = 0 row
    assert sorted(tables) == sorted((x.numerator, 1, d) for x in xs)


@pytest.mark.parametrize("s, j, l", [(0, 0, 2), (0, 2, 1), (1, 1, 1), (2, 2, 3)])
def test_f_sum_computes_x_factors_once_per_x(monkeypatch, s, j, l):
    xs, ys = idn.f_grid(j, l)
    xs = xs + [Q(29, 2), Q(-7, 3)]
    pts = [(x, y) for x in xs for y in ys]
    falls = _counter(monkeypatch, idn, "falling")
    kernels = _counter(monkeypatch, idn, "pochhammer_num")
    tables = _counter(monkeypatch, idn, "falling_table")
    harmonic = _counter(monkeypatch, idn, "harmonic_num")
    idn.f_sum_at(pts, s, j, l)
    assert [a for a in falls if a[0] in xs] == [] and harmonic == []
    # the y rows take their products from the kernel, the x rows never;
    # s = j = 0 leaves only the empty q = 0 row
    assert _x_derived_kernel_calls(kernels, xs, ys) == [] and (kernels or s == j == 0)
    # (x+j+l)_(j+l-q-s) for q = 0..j read off one table per distinct x = p/q
    # at base x + j + l, as integers over q
    assert sorted(tables) == sorted(
        (x.numerator + (j + l) * x.denominator, x.denominator, j + l - s) for x in xs)


@pytest.mark.parametrize("j, l", [(0, 2), (1, 1), (2, 3)])
def test_f_closed_form_check_builds_x_factors_once_per_x(monkeypatch, j, l):
    xs, ys = idn.f_grid(j, l)
    closed = _counter(monkeypatch, idn, "f_closed")
    harmonic = _counter(monkeypatch, idn, "harmonic_num")
    kernels = _counter(monkeypatch, idn, "pochhammer_num")
    assert idn.f_closed_form_check(j, l)[0]
    # one call per s, over the whole grid
    assert [(a[0], a[3], a[4]) for a in closed] == [(s, xs, ys) for s in range(l + 1)]
    # at s = 0, (x+j+l)_(j+l) and prod (x+t) once per x (the xs are integers,
    # the ys thirds), prod (y+t) once per y; at s >= 1, (x+j+l)_(l-s) and
    # (x+j)_(j) once per x
    assert sorted(a for a in kernels if a[1] == 1) == sorted(
        [(x.numerator + j + l, 1, j + l, -1) for x in xs]
        + [k for s in range(1, l + 1) for x in xs
           for k in ((x.numerator + j + l, 1, l - s, -1), (x.numerator + j, 1, j, -1))])
    assert sorted(a for a in harmonic if a[1] == 1) == sorted((x.numerator, 1, j) for x in xs)
    assert sorted(a for a in harmonic if a[1] == 3) == sorted((y.numerator, 3, j) for y in ys)
    assert len(harmonic) == len(xs) + len(ys)


def _fraction_count(monkeypatch, call) -> int:
    """How many ``Fraction`` objects ``call()`` constructs, arithmetic
    results included (each is built through ``Fraction.__new__``)."""
    made = []
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", counted)
    call()
    monkeypatch.undo()
    return len(made)


CHAIN_EVALUATORS = {
    "psi1": lambda pts: idn.psi1_at(pts, 4, 2),
    "psi2": lambda pts: idn.psi2_at(pts, 4, 2),
    "f_sum_s0": lambda pts: idn.f_sum_at(pts, 0, 2, 2),
    "f_sum_s2": lambda pts: idn.f_sum_at(pts, 2, 2, 2),
}


@pytest.mark.parametrize("name", CHAIN_EVALUATORS)
def test_chain_evaluators_build_no_fraction(monkeypatch, name):
    """psi_1, psi_2 and F(s) return integer pairs: no ``Fraction`` per
    point, per x or per y, on a tensor list with repeats and on a
    scattered one."""
    evaluate = CHAIN_EVALUATORS[name]
    xs = [Q(10), Q(23, 2), Q(13), Q(40, 3)]
    ys = [Q(1, 3), Q(7, 5), Q(-5, 2)]
    for pts in ([(x, y) for x in xs for y in ys] * 2,
                [(xs[a], ys[b]) for a, b in [(0, 0), (3, 2), (0, 2), (3, 2), (1, 0), (1, 2)]]):
        assert _fraction_count(monkeypatch, lambda: evaluate(pts)) == 0


def test_f_closed_builds_no_fraction(monkeypatch):
    """F(s)'s closed form returns integer pairs: at s = 0 its harmonic
    difference is summed on integers, at s >= 1 each x gives one
    ``pochhammer_num`` pair, whatever j."""
    for j in range(5):
        for s in range(3):
            xs, ys = [Q(10), Q(23, 2), Q(-7, 3)], [Q(1, 3), Q(7, 5), Q(-5, 2)]
            assert _fraction_count(monkeypatch, lambda: idn.f_closed(s, j, 2, xs, ys)) == 0, (j, s)


def _counts_on_grids(monkeypatch, name, check, grids) -> list:
    """The ``Fraction`` count of ``check()`` with ``idn.<name>`` returning
    each of ``grids`` in turn, built outside the counted region; every
    check must pass."""
    counts, outcomes = [], []
    for grid in grids:
        monkeypatch.setattr(idn, name, lambda *args, grid=grid: grid)
        counts.append(_fraction_count(monkeypatch, lambda: outcomes.append(check()[0])))
    assert all(outcomes)
    return counts


@pytest.mark.parametrize("i, j, n", [(0, 0, 2), (1, 1, 3), (0, 2, 4), (2, 1, 5)])
def test_passing_psi_chain_builds_no_fraction_per_point(monkeypatch, i, j, n):
    """The grid is compared by cross-multiplication: more y values build no
    more ``Fraction``s.  The diagonal builds three per x: the point x - N
    and the two ``local_values`` readings."""
    pts = idn.chain_grid(i, j, n)
    xs = sorted({x for x, _ in pts})
    more = pts + [(x, Q(2, 7) + v) for x in xs for v in range(5)]
    counts = _counts_on_grids(monkeypatch, "chain_grid", lambda: idn.psi_chain_check(i, j, n),
                              [pts, more])
    assert counts == [3 * len(xs)] * 2


@pytest.mark.parametrize("j, l", [(0, 0), (0, 2), (1, 1), (2, 3), (3, 0)])
def test_passing_f_closed_form_builds_no_fraction(monkeypatch, j, l):
    """The grid is compared by cross-multiplication and both sides are
    integer pairs at every s: no ``Fraction`` is built, however many y
    values the grid has."""
    xs, ys = idn.f_grid(j, l)
    more = ys + [Q(2, 7) + v for v in range(5)]
    counts = _counts_on_grids(monkeypatch, "f_grid", lambda: idn.f_closed_form_check(j, l),
                              [(xs, ys), (xs, more)])
    assert counts == [0, 0]


def test_h_sum_builds_one_fraction(monkeypatch):
    """H(s)'s terms are integer pairs over one running denominator: one
    ``Fraction`` per call, whatever j and s."""
    for j in range(5):
        for s in range(4):
            for x, y in [(Q(10), Q(1, 3)), (Q(23, 2), Q(7, 5)), (Q(-7, 3), Q(-5, 2))]:
                assert _fraction_count(monkeypatch, lambda: idn.h_sum(s, j, x, y)) == 1, (j, s)


@pytest.mark.parametrize("a", [1, 2, 5, Q(3, 2), Q(-7, 2)])
def test_dougall_check_builds_only_its_two_results(monkeypatch, a):
    """The nine parameters are integer pairs and the series is summed on
    them: the two sides are the only ``Fraction``s built."""
    for b, c, d in [(1, 2, 3), (4, 4, 4), (0, 3, 5)]:
        assert _fraction_count(monkeypatch, lambda: hg.dougall_check(a, b, c, d)) == 2, (b, c, d)


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__", "__neg__")


def _refuse(self, *args):
    raise AssertionError("Fraction arithmetic in an integer kernel")


class _Opaque(Q):
    """A Fraction whose arithmetic raises, so an evaluator that gets one as a
    coefficient or a point may read only its numerator and denominator."""

    __add__ = __radd__ = __sub__ = __rsub__ = _refuse
    __mul__ = __rmul__ = __truediv__ = __rtruediv__ = __neg__ = _refuse


def _refuse_fraction_arithmetic(monkeypatch):
    """Make every Fraction refuse arithmetic until ``monkeypatch.undo()``."""
    for name in _ARITHMETIC:
        monkeypatch.setattr(Q, name, _refuse)


CASES = [
    ((), Q(1, 3)),
    ((Q(2, 3),), Q(-5, 7)),
    ((Q(1, 2), Q(-3, 7), Q(5, 3), 4), Q(-2, 5)),
    ((Q(10**30 + 1, 3), Q(-7, 10**20), Q(1, 6)), 3),
]


@pytest.mark.parametrize("coeffs, a", CASES)
def test_evaluation_does_no_fraction_arithmetic(monkeypatch, coeffs, a):
    p = UniPoly(coeffs)  # stored as integer numerators over one denominator
    assert all(type(c) is int for c in (*p.nums, p.den))
    f = BiPoly({(i, len(coeffs) - i): _Opaque(c) for i, c in enumerate(coeffs)})
    want = (reference_eval.horner(coeffs, Q(a)), reference_eval.horner_with_slope(coeffs, Q(a)),
            reference_eval.eval2(BiPoly({k: Q(c) for k, c in f.terms.items()}), Q(a), Q(a) + 2))
    pts = [(Q(a), Q(a) + 2), (Q(a) - 1, Q(1, 3)), (Q(a), Q(a) + 2), (Q(-7, 2), Q(a))]
    want_at = [reference_eval.eval2(BiPoly({k: Q(c) for k, c in f.terms.items()}), x, y)
               for x, y in pts]
    a_, b_ = _Opaque(a), _Opaque(Q(a) + 2)
    pts_ = [(_Opaque(x), _Opaque(y)) for x, y in pts]
    _refuse_fraction_arithmetic(monkeypatch)
    got = (p(a_), p.value_and_slope(a_), f.eval_at([(a_, b_)])[0])
    got_at = f.eval_at(pts_)
    monkeypatch.undo()
    assert (got, got_at) == (want, want_at)


PFQ_CASES = [
    ((Q(-3), Q(1, 2), Q(7, 3)), (Q(5, 2), Q(-4)), Q(2, 3)),
    ((Q(-4), Q(-2), Q(3)), (Q(-6), Q(1, 9)), Q(-5, 7)),
    ((Q(9, 2) / 2 + 1, Q(9, 2), Q(-3), Q(-2), Q(-4)), (Q(9, 4), Q(17, 2), Q(15, 2), Q(19, 2)), Q(1)),
    ((Q(0), Q(7)), (Q(2),), Q(9)),
]


@pytest.mark.parametrize("num, den, z", PFQ_CASES)
def test_pfq_terminating_does_no_fraction_arithmetic(monkeypatch, num, den, z):
    want = reference_eval.pfq_terminating(num, den, z)
    args = ([_Opaque(a) for a in num], [_Opaque(b) for b in den], _Opaque(z))
    _refuse_fraction_arithmetic(monkeypatch)
    got = hg.pfq_terminating(*args)
    monkeypatch.undo()
    assert got == want


@pytest.mark.parametrize("coeffs, a", CASES)
def test_ring_operations_and_gcd_do_no_fraction_arithmetic(monkeypatch, coeffs, a):
    p, q = UniPoly(coeffs), UniPoly((Q(-3, 5), 1, Q(7, 2)))
    common = UniPoly((Q(a), -2))
    rp, rq, rcommon = (reference_poly.UniPoly(c.coeffs) for c in (p, q, common))
    c_ = _Opaque(Q(a) - 1)
    _refuse_fraction_arithmetic(monkeypatch)
    got = (p + q, p * q, p.scale(c_), (p * common).gcd(q * common))
    monkeypatch.undo()
    want = (rp + rq, rp * rq, rp.scale(Q(a) - 1), (rp * rcommon).gcd(rq * rcommon))
    assert [g.coeffs for g in got] == [w.coeffs for w in want]


RATFUNC_CASES = [
    (RatFunc(UniPoly((1, 2, 3)), UniPoly((Q(-1, 2), 1))), Q(5, 3)),
    (RatFunc(UniPoly((Q(10**20 + 3, 7), 0, Q(-2, 9))),
             UniPoly((2, -3, 1)) * UniPoly((Q(1, 3), 1))), Q(-7, 4)),
    (RatFunc(UniPoly((0, 1)), UniPoly((Q(4, 9), 0, 1))), Q(-2, 3)),
    (RatFunc(5), 3),
    (RatFunc(0), Q(1, 2)),
]


@pytest.mark.parametrize("f, a", RATFUNC_CASES)
def test_ratfunc_eval_does_no_fraction_arithmetic(monkeypatch, f, a):
    want = f.num(a) / f.den(a)
    a_ = _Opaque(a)
    _refuse_fraction_arithmetic(monkeypatch)
    got = f.eval(a_)
    monkeypatch.undo()
    assert (got, type(got)) == (want, Q)


@pytest.mark.parametrize("den, a, order", [
    (UniPoly((-2, 1)), 2, 1),
    (UniPoly((Q(1, 3), 1)) * UniPoly((Q(1, 3), 1)) * UniPoly((1, 1)), Q(-1, 3), 2),
])
def test_ratfunc_eval_at_a_pole_raises_its_order(den, a, order):
    with pytest.raises(PoleError) as info:
        RatFunc(UniPoly((1, 1)), den).eval(a)
    assert (info.value.point, info.value.order) == (a, order)


@pytest.mark.parametrize("k, lam", [(Q(-5, 6), (4, 1)), (Q(1, 200), (3, 3)), (2, (5, 3))])
def test_oracle_expands_its_solution_on_integers(monkeypatch, k, lam):
    expand = ep.from_falling
    calls = []

    def on_integers(terms):
        calls.append(terms)
        with pytest.MonkeyPatch.context() as mp:
            _refuse_fraction_arithmetic(mp)
            return expand(terms)

    monkeypatch.setattr(ep, "from_falling", on_integers)
    f = ep.interpolate_ev({lam: Q(1)}, size(lam), k)
    mus = upto(size(lam))
    assert len(calls) == 1 and ks.gen_eval(f, mus, k) == [Q(mu == lam) for mu in mus]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 14).flatmap(lambda l1: st.tuples(st.just(l1), st.integers(0, l1))),
       st.one_of(st.integers(-100, 100), st.fractions(-100, 100, max_denominator=100)))
def test_casimir_at_a_rational_t_is_one_fraction_on_integers(lam, t):
    a = lam[0] - lam[1]
    with pytest.MonkeyPatch.context() as mp:
        _refuse_fraction_arithmetic(mp)
        got = c_cat(lam, _Opaque(t))
    assert (got, type(got)) == (a * (a - 2 + t), Q)
    at_s = c_cat(lam, UniPoly.x())  # the polynomial path stays
    assert type(at_s) is UniPoly and at_s == UniPoly((a * (a - 2), a))
