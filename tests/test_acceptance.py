"""Acceptance gate: one test per criterion, every comparison exact.

Each test prints a single ``[criterion N] ... PASS`` line on success (run
with ``pytest -s tests/test_acceptance.py`` to watch them); any failure is a
hard assert with the offending parameters.
"""

import hashlib
import json
import os
import pathlib
import tempfile
import time
from fractions import Fraction as Q

from capelli import deligne as dl
from capelli import eigenpoly as ep
from capelli import hypergeom as hg
from capelli import identities as idn
from capelli import knopsahi as ks
from capelli.bipoly import BiPoly
from capelli.partitions import PClass, classify, dagger, size, upto
from capelli.verify import DEFAULT_T_LIST

from cli_cases import REPORT_CASES, STDOUT_CASES
from test_cli import run_cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _done(n, text):
    print(f"[criterion {n}] {text}: PASS")


def test_c1_interpolation_characterization():
    """Vanishing/normalization identities in Q(kappa) for |lambda| <= 8,
    single-threaded within the stated two-minute budget."""
    start = time.monotonic()
    for lam in upto(8):
        assert ks.characterization_holds(lam), lam
    assert time.monotonic() - start < 120
    _done(1, "interpolation characterization, |lambda| <= 8, identity in Q(kappa)")


def test_c2_pole_structure():
    """Pole sets match the singular classification for |lambda| <= 10, k <= 6;
    every pole simple (asserted inside ks_pole_set)."""
    for lam in upto(10):
        got = ks.ks_pole_set(lam, 6)
        want = {k for k in range(7) if classify(lam, k) is PClass.SINGULAR}
        assert got == want, lam
    _done(2, "pole sets = singular parameters, all poles simple, |lambda| <= 10")


def test_c3_singular_part():
    """sing_part = r * P_dagger for every k-singular lambda, k <= 3,
    |lambda| <= 10; both r formulas agree (asserted inside r_coeff)."""
    cases = 0
    for k in range(4):
        for lam in upto(10):
            if classify(lam, k) is not PClass.SINGULAR:
                continue
            lamd = dagger(lam, k)
            r = ks.r_coeff(lam, k)
            assert ks.sing_part(lam, k) == ks.reg_part(lamd, k).scale(r), (lam, k)
            cases += 1
    assert cases > 0
    _done(3, f"singular part = r * dagger specialization ({cases} cases)")


def test_c4_eigen_route_agreement():
    """All applicable routes and the interpolation oracle agree for k <= 3,
    |lambda| <= 8, with the delta property and exact degree; includes the
    hand-checked anchors."""
    start = time.monotonic()
    assert ep.eigen((2, 0), 0) == BiPoly({(1, 1): Q(-4)})
    half = Q(1, 2)
    assert ep.eigen((1, 1), 0) == BiPoly(
        {(2, 0): half, (0, 2): half, (1, 1): Q(1), (1, 0): half, (0, 1): half}
    )
    for k in range(4):
        for lam in upto(8):
            bodies = [ep.eigen(lam, k, r) for r in ep.ROUTES[classify(lam, k)]]
            assert all(b == bodies[0] for b in bodies), (lam, k)
            f = bodies[0]
            assert f.total_degree() == size(lam), (lam, k)
            mus = upto(size(lam))
            assert ks.gen_eval(f, mus, k) == [int(mu == lam) for mu in mus], (lam, k)
    assert time.monotonic() - start < 300
    _done(4, "route agreement A/B/C/D/oracle + delta property, k <= 3, |lambda| <= 8")


def test_c5_derivative_identity():
    """Canonical rational-function equality for 0 <= i+j <= N <= 7, plus the
    j = 0 logarithmic-derivative expansion for N <= 10."""
    for n in range(8):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                assert idn.derivative_identity_check(i, j, n)[0], (i, j, n)
    for n in range(11):
        assert idn.logderiv_check(n)[0], n
    _done(5, "derivative identity (N <= 7) and log-derivative expansion (N <= 10)")


def test_c6_two_variable_chain():
    """psi chain, F(s) closed forms and H(s) values on deterministic
    pole-free grids exceeding the degree bounds, for N <= 5."""
    for n in range(6):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                assert idn.psi_chain_check(i, j, n)[0], (i, j, n)
    for j in range(6):
        for l in range(6 - j):
            assert idn.f_closed_form_check(j, l)[0], (j, l)
    for j in range(6):
        for s in range(4):
            for y in (Q(5, 3), Q(3)):
                x = y + j + 3
                assert idn.h_function_check(j, s, x, y)[0], (j, s)
    _done(6, "psi_1 = psi_2 chain, F(s) closed forms, H(s) = 1/s and H(0)")


def test_c7_dougall():
    """Dougall's summation for a in 1..5 and b, c, d in 0..4, with the
    15/16 anchor."""
    lhs, rhs = hg.dougall_check(2, 1, 1, 1)
    assert lhs == rhs == Q(15, 16)
    for a in range(1, 6):
        for b in range(5):
            for c in range(5):
                for d in range(5):
                    lhs, rhs = hg.dougall_check(a, b, c, d)
                    assert lhs == rhs, (a, b, c, d)
    _done(7, "Dougall 5F4 summation sweep incl. the 15/16 anchor")


def test_c8_deligne_degeneration():
    """Minimal polynomials, block/formula route equality, degeneration to the
    integer-parameter polynomials, dual-number vanishing suite, and the
    scalar bridge between the singular formulas."""
    start = time.monotonic()
    t_list = tuple(Q(v) for v in range(-6, 8)) + (Q(1, 2), Q(-5, 3))
    assert t_list == DEFAULT_T_LIST
    for t in t_list:
        for d in range(9):
            assert dl.min_poly_is_minimal(d, t), (d, t)
    for t in t_list:
        for lam in upto(6):
            assert dl.cat_eig_from_blocks(lam, t) == dl.cat_eig_formula(lam, t), (lam, t)
    for k in range(4):
        for lam in upto(6):
            assert dl.cat_eig_formula(lam, Q(-2 * k)) == ep.eigen(lam, k), (lam, k)
    # dual-number action pattern of d_op at s = t on all blocks of size <= |lambda|
    for t in (Q(0), Q(-2), Q(-4), Q(-6), Q(7), Q(1, 2)):
        for lam in upto(6):
            op_t = dl.d_op(lam, t)
            partner = None
            if t.denominator == 1 and t <= 0 and t % 2 == 0:
                kk = int(dl.kbar(t))
                if classify(lam, kk) is PClass.SINGULAR:
                    partner = dagger(lam, kk)
            blks = [blk for m in range(size(lam) + 1) for blk in dl.blocks(m, t)]
            for blk, got in zip(blks, dl.block_eval(op_t, blks)):
                if partner is not None:
                    want = dl.DualScalar(Q(0), Q(int(blk.lam == partner)))
                else:
                    want = dl.DualScalar(Q(int(blk.lam == lam)), Q(0))
                assert got == want, (lam, t, blk.lam)
    for k in range(4):
        for lam in upto(8):
            if classify(lam, k) is PClass.SINGULAR:
                lhs, rhs = dl.singular_scale_limit(lam, k)
                assert lhs == rhs, (lam, k)
    assert time.monotonic() - start < 300
    _done(8, "block model = closed forms over the t-list, incl. vanishing suite")


# sha256 of `capelli verify all --format json` at default bounds; the report
# is byte-identical for every --jobs
VERIFY_ALL_SHA256 = "7502efea60cdd8fac1a32eca82d25bc56337ca554e5c5161383e5aceaf058aa8"


def test_c9_cli_contract():
    """Golden-file byte equality for the documented invocations, the exit
    code contract, and a full default-bounds `verify all` through the CLI
    whose JSON report is green and byte-pinned."""
    for name, argv in STDOUT_CASES:
        code, out, _ = run_cli(argv)
        assert code == 0, argv
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), argv
    for name, argv in REPORT_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            target = pathlib.Path(tmp) / name
            code, _, _ = run_cli(argv + ["--out", str(target), "--jobs", "1"])
            assert code == 0, argv
            assert target.read_bytes() == (GOLDEN / name).read_bytes(), argv
    # spot-check the documented report: one derivative-identity record per
    # pair (i, j) with i + j <= N <= 7
    doc = json.loads((GOLDEN / "verify_identity_e_n7.json").read_text())
    n_pairs = sum((n + 1) * (n + 2) // 2 for n in range(8))
    assert sum(1 for c in doc["checks"] if c["name"] == "derivative-identity") == n_pairs
    assert doc["summary"]["failed"] == 0
    code, _, err = run_cli(["eig", "3,0", "--k", "1", "--route", "a"])
    assert code == 2 and "singular" in err
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        target = pathlib.Path(tmp) / "verify_all.json"
        code, _, err = run_cli(["verify", "all", "--format", "json", "--out", str(target),
                                "--jobs", str(os.cpu_count() or 1)])
        assert code in (0, 1), err
        data = target.read_bytes()
    doc = json.loads(data)
    assert code == 0, [c for c in doc["checks"] if c["status"] != "pass"][:3]
    assert hashlib.sha256(data).hexdigest() == VERIFY_ALL_SHA256, err
    assert time.monotonic() - start < 900
    _done(9, f"CLI goldens, exit codes, verify all green ({doc['summary']['total']} checks)")
