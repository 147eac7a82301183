import concurrent.futures
import hashlib
import inspect
import os
import pathlib
import re
import subprocess
import sys
from fractions import Fraction as Q

import pytest

from capelli import deligne as dl
from capelli import eigenpoly as ep
from capelli import hypergeom as hg
from capelli import identities as idn
from capelli import knopsahi as ks
from capelli import verify as vf
from capelli.config import Config
from capelli.partitions import classify
from capelli.ratfunc import UniPoly, local_values
from capelli.report import Check


def test_raising_check_names_type_and_frame(monkeypatch):
    double_pole = UniPoly((-3, 1)) * UniPoly((-3, 1))
    monkeypatch.setattr(ks, "characterization_holds",
                        lambda lam: local_values([UniPoly.one()], double_pole, 3, "residue"))
    check = vf.check_characterization((2, 0))
    assert check.status == "fail" and check.rhs == "-"
    assert re.fullmatch(r"error: PoleError at ratfunc\.py:\d+: pole of order 2 at 3", check.lhs)


def test_bare_assertion_still_names_its_frame(monkeypatch):
    def broken(lam):
        raise AssertionError  # bare, as an ``assert`` in library code raises

    monkeypatch.setattr(ks, "characterization_holds", broken)
    check = vf.check_characterization((1, 0))
    assert re.fullmatch(r"error: AssertionError at test_verify\.py:\d+", check.lhs)


def test_every_family_is_registered_once():
    used = {name for name, _ in vf.suite_tasks("all", vf.Bounds())}
    assert set(vf._TASKS) == used


# sha256 of repr(suite_tasks(suite, Bounds())) when the pole-set k and the
# log-derivative N range were the constants 6 and range(11)
_DEFAULT_TASK_DIGESTS = {
    "knop-sahi": "cac6e9e3ed19bd6a762f9f805a51a5948cf0a9ba6c0b559daa277d777e88b650",
    "capelli": "f2434aa5bc50bfc338a050d7824fc9b8351a84e6278efc05a4bdd140606d0dee",
    "identity-e": "27079a0b94082f4749e808cbe8ace41cab261c7241638dd5d07d5be657b7b46b",
    "dougall": "ac9503a0b0217c20e64ffc128dd716042472d9114a6251362702e1ff7315daab",
    "deligne": "ab46cdb356f098061e8de348e7f3f1b12d11561ddb2d8e6f6d5d0e906d0309a5",
    "all": "9c335a0c491b7c7018c6b1d31664a95153a54e1c994afa746b6f09601d9d733c",
}


@pytest.mark.parametrize("suite", vf.SUITES)
def test_default_config_keeps_every_task_list(suite):
    tasks = vf.suite_tasks(suite, vf.Bounds())
    assert tasks == vf.suite_tasks(suite, vf.Bounds(), Config())
    assert hashlib.sha256(repr(tasks).encode()).hexdigest() == _DEFAULT_TASK_DIGESTS[suite]


def test_caps_bound_pole_set_and_log_derivative():
    tasks = vf.suite_tasks("all", vf.Bounds(), Config(k_cap=3, n_cap=5))
    assert {args[1] for name, args in tasks if name == "pole-set"} == {3}
    assert [args[0] for name, args in tasks if name == "falling-log-derivative"] == list(range(6))


def test_run_suite_passes_its_config_on():
    report = vf.run_suite("knop-sahi", vf.Bounds(size_max=1, k_max=0), cfg=Config(k_cap=2))
    assert report.all_passed
    assert {dict(c.params)["k_max"] for c in report.checks if c.name == "pole-set"} == {"2"}


@pytest.mark.parametrize(
    "family, attr, args, values, params",
    [
        ("derivative-identity", "derivative_identity_check", (1, 1, 3), (),
         (("i", "1"), ("j", "1"), ("N", "3"))),
        ("falling-log-derivative", "logderiv_check", (4,), (), (("N", "4"),)),
        ("psi-chain", "psi_chain_check", (1, 1, 3), (9, 4),
         (("i", "1"), ("j", "1"), ("N", "3"), ("points", "9"), ("degree_bound", "4"))),
        ("f-closed-form", "f_closed_form_check", (1, 1), (12,),
         (("j", "1"), ("l", "1"), ("points", "12"))),
        # the family names the first of its points, x = y + j + 2 at y = 5/3
        ("h-function", "h_function_check", (1, 1), (),
         (("j", "1"), ("s", "1"), ("x", "14/3"), ("y", "5/3"))),
    ],
)
def test_identity_families_look_up_their_check_at_call_time(monkeypatch, family, attr, args,
                                                             values, params):
    # a wrapper installed on the identities module (a tracer, say) must be reached;
    # the labels past the args name the outcome's trailing values
    monkeypatch.setattr(idn, attr, lambda *a: (False, "a at p", "b", *values))
    assert vf.run_task((family, args)) == Check(family, params, "fail", "a at p", "b")


def _raise_boom(*args):
    raise ValueError("boom")


_BOOM_LINE = _raise_boom.__code__.co_firstlineno + 1
_H_SUM = idn.h_sum
_F_CLOSED = idn.f_closed
_BLOCK_EVAL = dl.block_eval
_RESTRICTION_PAIR = ep.restriction_pair
_EIGEN = ep.eigen
_LOCAL_VALUES = ks.local_values
_Q_SOURCE, _Q_START = inspect.getsourcelines(ks.q_poly)
_Q_ROUTES_LINE = _Q_START + next(i for i, line in enumerate(_Q_SOURCE) if "routes disagree" in line)


def _half_on_every_nil(op_t, blks):
    return [dl.DualScalar(d.value, d.nil + Q(1, 2)) for d in _BLOCK_EVAL(op_t, blks)]


def _value_as_nil(op_t, blks):
    """binom q in place of binom q' for the nil part of a multiplicity-2 block."""
    return [dl.DualScalar(d.value, d.value if b.mult == 2 else d.nil)
            for b, d in zip(blks, _BLOCK_EVAL(op_t, blks))]


def _slope_as_simple_nil(op_t, blks):
    """q'(c) as the nil part of a multiplicity-1 block, which has none."""
    return [d if b.mult == 2 else dl.DualScalar(d.value, op_t[1].value_and_slope(b.c)[1])
            for b, d in zip(blks, _BLOCK_EVAL(op_t, blks))]


def _value_without_d2(nums, den, a, kind):
    """The regular value with its D''/2 term dropped: den read through its
    linear Taylor part D(a) + D'(a)(x - a)."""
    if kind == "value":
        d0, d1 = den.value_and_slope(a)
        den = UniPoly((d0 - d1 * a, d1))
    return _LOCAL_VALUES(nums, den, a, kind)


def _one_on_every_slope(nums, den, a, kind):
    return [v + (kind == "slope") for v in _LOCAL_VALUES(nums, den, a, kind)]


def _one_on_every_nil(f, mus, k):
    return [(a, d_nil + 1) for a, d_nil in _RESTRICTION_PAIR(f, mus, k)]


@pytest.mark.parametrize(
    "owner, attr, stub, task, want",
    [
        (ks, "ks_pole_set", lambda lam, k: [0, 9], ("pole-set", ((3, 1), 6)),
         Check("pole-set", (("lambda", "3,1"), ("k_max", "6")), "fail", "[0, 9]", "[0]")),
        (dl, "min_poly_is_minimal", lambda d, t: False, ("min-poly", (3, Q(-5, 3))),
         Check("min-poly", (("d", "3"), ("t", "-5/3")), "fail",
               "annihilates all size-d blocks", "no proper divisor does")),
        (hg, "dougall_check", _raise_boom, ("dougall", (1, 2, 3, 4)),
         Check("dougall", (("a", "1"), ("b", "2"), ("c", "3"), ("d", "4")), "fail",
               f"error: ValueError at test_verify.py:{_BOOM_LINE}: boom")),
        (idn, "h_sum", lambda s, j, x, y: _H_SUM(s, j, x, y) + 1, ("h-function", (2, 1)),
         Check("h-function", (("j", "2"), ("s", "1"), ("x", "17/3"), ("y", "5/3")), "fail",
               "2 at s=1", "1 (5F4: 1)")),
        (idn, "f_closed", lambda *a: [(n + d, d) for n, d in _F_CLOSED(*a)],
         ("f-closed-form", (1, 1)),
         Check("f-closed-form", (("j", "1"), ("l", "1"), ("points", "60")), "fail",
               "245/4 at s=0,(12,1/3)", "249/4")),
        # d/dx psi_L is off by one at the first diagonal point
        (idn, "local_values", _one_on_every_slope, ("psi-chain", (1, 1, 3)),
         Check("psi-chain", (("i", "1"), ("j", "1"), ("N", "3"), ("points", "121"),
                             ("degree_bound", "10")), "fail", "3/2 at x=4", "1/2")),
        (ks, "gen_eval", lambda f, mus, k: [Q(1, 2)] * len(mus), ("eigen-routes", ((2, 1), 1)),
         Check("eigen-routes", (("lambda", "2,1"), ("k", "1")), "fail", "ev(f, 0,0) = 1/2", "0")),
        # t1 = H_(3,0)(1) = 6 at the dagger (2,1), which precedes (3,0)
        (ks, "tcheck_values", lambda lam, k: (Q(1), Q(2)), ("q-depolarized", ((3, 0), 1)),
         Check("q-depolarized", (("lambda", "3,0"), ("k", "1")), "fail", "ev(Q, 2,1) = 6", "1")),
        # the nil part on the (1,1) block is the value at its singular partner (2,0)
        (dl, "block_eval", _half_on_every_nil, ("block-vanishing", ((2, 0), Q(0))),
         Check("block-vanishing", (("lambda", "2,0"), ("t", "0")), "fail",
               "ev(D, 2,0) = 3/2", "1")),
        # binom(E, d) dropped: the operator reads nonzero on the smaller blocks
        (dl, "block_eval", lambda op_t, blks: _BLOCK_EVAL((0, op_t[1]), blks),
         ("block-vanishing", ((2, 0), Q(0))),
         Check("block-vanishing", (("lambda", "2,0"), ("t", "0")), "fail",
               "ev(D, 1,0) = -1", "0")),
        (dl, "block_eval", _value_as_nil, ("block-vanishing", ((2, 0), Q(0))),
         Check("block-vanishing", (("lambda", "2,0"), ("t", "0")), "fail",
               "ev(D, 2,0) = 0", "1")),
        # min_poly(0, t) = x on the multiplicity-1 block (0,0), c = 0: slope 1
        (dl, "block_eval", _slope_as_simple_nil, ("min-poly", (0, Q(-6))),
         Check("min-poly", (("d", "0"), ("t", "-6")), "fail",
               "annihilates all size-d blocks", "no proper divisor does")),
        (ep, "restriction_pair", _one_on_every_nil, ("jordan-restrictions", ((3, 0), 1)),
         Check("jordan-restrictions", (("lambda", "3,0"), ("k", "1")), "fail",
               "nil on 2,1 = 2", "1")),
        # f doubled: its nil parts still vanish on (2,1), whose partner is
        # not (2,1), but the value there is 2, not delta = 1
        (ep, "eigen", lambda *a: _EIGEN(*a).scale(Q(2)), ("jordan-restrictions", ((2, 1), 1)),
         Check("jordan-restrictions", (("lambda", "2,1"), ("k", "1")), "fail",
               "value on 2,1 = 2", "1")),
        # the first record the sweep fails: the finite part of P_(2,0) at a
        # pole is off, so the two routes to Q_(2,0) disagree
        (ks, "local_values", _value_without_d2, ("q-depolarized", ((2, 0), 0)),
         Check("q-depolarized", (("lambda", "2,0"), ("k", "0")), "fail",
               f"error: AssertionError at knopsahi.py:{_Q_ROUTES_LINE}: "
               "Q_(2, 0) routes disagree at k=0")),
        (ks, "local_values", _value_without_d2, ("super-cat-degeneration", ((1, 1), 0)),
         Check("super-cat-degeneration", (("lambda", "1,1"), ("k", "0")), "fail",
               "(1/2)x^2 + xy + (1/2)y^2 + (1/2)x + (1/2)y",
               "(1/2)x^2 + 2xy + (1/2)y^2 + (1/2)x + (1/2)y")),
    ],
    ids=["pole-set", "min-poly", "raising-dougall", "h-function-point", "f-closed-form-point",
         "psi-chain-diagonal", "eigen-routes",
         "q-depolarized", "block-vanishing-nil", "block-vanishing-binom-dropped",
         "block-vanishing-value-as-nil", "min-poly-slope-as-simple-nil",
         "jordan-restrictions-nil", "jordan-restrictions-value", "q-depolarized-no-d2",
         "super-cat-degeneration-no-d2"],
)
def test_failing_records_are_exact(monkeypatch, owner, attr, stub, task, want):
    monkeypatch.setattr(owner, attr, stub)
    assert vf.run_task(task) == want


@pytest.mark.parametrize("lam, k, route", [((2, 1), 1, "d"), ((2, 0), 1, "a"), ((3, 0), 1, "b")])
def test_super_cat_degeneration_compares_the_last_closed_form(monkeypatch, lam, k, route):
    """cat_eig_formula's quasiregular branch is route c itself, so the check
    compares route d there: a wrong route d must fail the record."""
    assert ep.ROUTES[classify(lam, k)][-2] == route
    good = ep._ROUTE_FN[route]
    monkeypatch.setitem(ep._ROUTE_FN, route, lambda lam, k: good(lam, k).scale(Q(2)))
    record = vf.run_task(("super-cat-degeneration", (lam, k)))
    assert record.status == "fail" and record.lhs != record.rhs


@pytest.mark.parametrize("field", ["psi_n_max", "deligne_size_max", "minpoly_d_max"])
def test_negative_sweep_bounds_are_rejected(field):
    with pytest.raises(vf.BoundsError, match="must be non-negative"):
        vf.Bounds(**{field: -1}).validate(Config())


@pytest.mark.parametrize(
    "bounds, message",
    [
        ({"a_max": 11}, "a-max = 11 exceeds the hard cap 10"),
        ({"bcd_max": 11}, "bcd-max = 11 exceeds the hard cap 10"),
        ({"a_max": 10**4, "bcd_max": 10**4}, "a-max = 10000 exceeds the hard cap 10"),
    ],
)
def test_dougall_bounds_are_capped_by_n_cap(bounds, message):
    # validate() alone: the oversized task list is never built
    with pytest.raises(vf.BoundsError, match=message):
        vf.Bounds(**bounds).validate(Config())


def test_dougall_cap_follows_configured_n_cap():
    vf.Bounds(a_max=3, bcd_max=3, n_max=3, psi_n_max=3).validate(Config(n_cap=3))
    with pytest.raises(vf.BoundsError, match="bcd-max = 4 exceeds the hard cap 3"):
        vf.Bounds(a_max=3, bcd_max=4, n_max=3, psi_n_max=3).validate(Config(n_cap=3))


@pytest.mark.parametrize(
    "t_list, message",
    [((), "t-list has 0 values; it needs 1 to 64"),
     ((Q(1),) * 65, "t-list has 65 values; it needs 1 to 64")],
    ids=["empty", "too-long"],
)
def test_t_list_length_is_bounded(t_list, message):
    # validate() alone: no sweep is built or run
    with pytest.raises(vf.BoundsError, match=message):
        vf.Bounds(t_list=t_list).validate(Config())
    vf.Bounds(t_list=(Q(1),) * vf.T_LIST_MAX).validate(Config())


def test_built_in_ceilings_bound_the_task_count():
    # The caps can only be lowered from their built-in values (14 / 10 / 6),
    # so every bound at its ceiling with the longest t-list is the largest
    # sweep any input can request.
    cfg = Config()
    assert (cfg.size_cap, cfg.n_cap, cfg.k_cap) == (14, 10, 6)
    top = vf.Bounds(k_max=6, size_max=12, n_max=10, psi_n_max=10, deligne_size_max=14,
                    minpoly_d_max=14, a_max=10, bcd_max=10,
                    t_list=tuple(Q(t, 3) for t in range(vf.T_LIST_MAX)))
    top.validate(cfg)
    for field in ("k_max", "size_max", "n_max", "psi_n_max", "deligne_size_max",
                  "minpoly_d_max", "a_max", "bcd_max"):
        with pytest.raises(vf.BoundsError, match="exceeds the hard cap"):
            top._replace(**{field: getattr(top, field) + 1}).validate(cfg)
    counts = {s: len(vf.suite_tasks(s, top, cfg)) for s in vf.SUITES if s != "all"}
    assert counts == {"knop-sahi": 332, "capelli": 686, "identity-e": 693,
                      "dougall": 13310, "deligne": 9678}
    assert len(vf.suite_tasks("all", top, cfg)) == 24699


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps
    in-process, so no worker is started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [
        (64, 8, 4),    # capped by the 4 tasks
        (64, 3, 3),    # capped by the CPU count
        (2, 8, 2),     # as requested
        (64, None, None),  # CPU count unknown: one worker, no pool
    ],
)
def test_pool_is_capped_by_tasks_and_cpus(monkeypatch, jobs, cpus, workers):
    bounds = vf.Bounds(a_max=4, bcd_max=0)
    assert len(vf.suite_tasks("dougall", bounds)) == 4
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    # run_suite imports the pool class only on its workers > 1 branch
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(vf.os, "cpu_count", lambda: cpus)
    report = vf.run_suite("dougall", bounds, jobs=jobs)
    assert _RecordingPool.sizes == ([] if workers is None else [workers])
    assert report.to_json() == vf.run_suite("dougall", bounds, jobs=1).to_json()


def test_import_leaves_the_process_pool_unloaded():
    """A serial sweep needs no process pool, and the package needs none of the
    stdlib that only introspection, tracebacks or CSV output use, so neither
    importing the CLI and the sweeps nor a serial sweep at small bounds may
    load them: each costs every ``capelli verify`` process start-up time and
    peak memory."""
    src = str(pathlib.Path(vf.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, capelli.cli, capelli.verify\n"
            "from fractions import Fraction as Q\n"
            "unwanted = {'multiprocessing', 'concurrent.futures.process', 'dataclasses', "
            "'inspect', 'ast', 'traceback', 'csv'}\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "bounds = capelli.verify.Bounds(k_max=1, size_max=2, n_max=2, psi_n_max=2, "
            "deligne_size_max=2, minpoly_d_max=2, a_max=2, bcd_max=2, "
            "t_list=(Q(-2), Q(0), Q(1, 2)))\n"
            "report = capelli.verify.run_suite('all', bounds, jobs=1)\n"
            "print(report.all_passed, sorted(unwanted & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\nTrue []\n", "")
