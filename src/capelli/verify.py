"""Verification sweeps over every exact identity the package implements.

Each suite enumerates a deterministic list of small, picklable tasks
``(family, args)``; a task runs one check and returns a ``Check`` record.
Sweeps run either serially or on a process pool -- results are gathered in
task order either way, so reports are byte-identical for identical
invocations regardless of worker count.

A check family is registered with the ``_family(name, *labels)`` decorator,
which files it in ``_TASKS`` under ``name``; it is the one place a ``Check``
record is built.  The decorated body takes the task args and returns the
outcome ``(ok, lhs, rhs, *values)``; the decorator renders the args, then
the trailing values, as the record's params, one per label (the identity-e
families report their grid sizes and witness points this way).

A failed comparison is data (status ``fail`` with both sides rendered), not
an exception; unexpected exceptions inside a check are also folded into a
failing record so one defect cannot take down a whole sweep.  Such a record
reads ``error: <type> at <file>:<line>: <message>``, naming the frame that
raised.
"""

from __future__ import annotations

import functools
import os
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple

from . import deligne as dl
from . import eigenpoly as ep
from . import hypergeom as hg
from . import identities as idn
from . import knopsahi as ks
from .bipoly import BiPoly, render_bipoly
from .config import Config
from .partitions import PClass, Pair2, classify, dagger, paired, size, upto
from .ratfunc import render_frac
from .report import Check, RunReport

# What a check body returns: ``(ok, lhs, rhs, *values)``, the values named by
# the family's labels past its args.
Outcome = tuple

DEFAULT_T_LIST: tuple[Fraction, ...] = tuple(Fraction(v) for v in range(-6, 8)) + (
    Fraction(1, 2),
    Fraction(-5, 3),
)
# Most t values a deligne sweep takes; every one adds a full pass over lambda.
T_LIST_MAX = 64


class BoundsError(ValueError):
    """A sweep bound or other capped integer lies outside [0, its hard cap]."""


def check_range(label: str, value: int, cap: int) -> None:
    """Raise ``BoundsError`` naming ``label`` unless 0 <= value <= cap."""
    if value < 0:
        raise BoundsError(f"{label} = {value} must be non-negative")
    if value > cap:
        raise BoundsError(f"{label} = {value} exceeds the hard cap {cap}")


# The sweep bounds in report order: each report key and the ``Config`` cap
# that bounds it.  The flag is ``--`` plus the key with ``-`` for ``_``, and
# the ``Bounds`` field is the key lower-cased.
BOUND_CAPS = {"k_max": "k_cap", "size_max": "size_cap", "N_max": "n_cap", "psi_N_max": "n_cap",
              "deligne_size_max": "size_cap", "minpoly_d_max": "size_cap", "a_max": "n_cap",
              "bcd_max": "n_cap"}


class Bounds(NamedTuple):
    """Sweep bounds; the defaults match the package's acceptance gates."""

    k_max: int = 3
    size_max: int = 8
    n_max: int = 7
    psi_n_max: int = 5
    deligne_size_max: int = 6
    minpoly_d_max: int = 8
    a_max: int = 5
    bcd_max: int = 4
    t_list: tuple[Fraction, ...] = DEFAULT_T_LIST

    def pole_size_max(self) -> int:
        return self.size_max + 2

    def validate(self, cfg: Config) -> None:
        for key, cap in BOUND_CAPS.items():
            check_range(key.replace("_", "-"), getattr(self, key.lower()), getattr(cfg, cap))
            if key == "size_max":
                check_range("size-max+2 (pole sweep)", self.pole_size_max(), cfg.size_cap)
        if not 0 < len(self.t_list) <= T_LIST_MAX:
            raise BoundsError(f"t-list has {len(self.t_list)} values; it needs 1 to {T_LIST_MAX}")


def _plam(lam: Pair2) -> str:
    return f"{lam[0]},{lam[1]}"


def _value_mismatch(poly: str, got: Iterable[tuple[Pair2, Fraction]],
                    want: Mapping[Pair2, Fraction]) -> Outcome | None:
    """The first generalized value in ``got`` that differs from ``want``
    (zero off its keys), as a failing outcome ``ev(poly, mu) = value``
    against the expected value; None when all agree."""
    for mu, value in got:
        expected = want.get(mu, Fraction(0))
        if value != expected:
            return False, f"ev({poly}, {_plam(mu)}) = {render_frac(value)}", render_frac(expected)
    return None


def _compare(a: BiPoly, b: BiPoly) -> Outcome:
    """``(a == b, lhs, rhs)`` with both sides rendered; equal sides render once."""
    lhs = render_bipoly(a)
    return (True, lhs, lhs) if a == b else (False, lhs, render_bipoly(b))


_TASKS: dict[str, Callable[..., Check]] = {}


def _family(name: str, *labels: str):
    """Register a check body as the family ``name`` in ``_TASKS``.

    ``labels`` name the task args, then the values the body returns past
    ``(ok, lhs, rhs)``; a pair renders as ``a,b``, anything else through
    ``str``.  An exception the body raises becomes a failing record whose
    params are the args alone.
    """

    def register(body: Callable[..., Outcome]) -> Callable[..., Check]:
        @functools.wraps(body)
        def check(*args) -> Check:
            try:
                ok, lhs, rhs, *values = body(*args)
            except Exception as exc:  # a defect inside a check is a failing record
                tb = exc.__traceback__
                while tb.tb_next:  # the frame that raised
                    tb = tb.tb_next
                where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
                message = f": {exc}" if str(exc) else ""
                lhs = f"error: {type(exc).__name__} at {where}{message}"
                ok, rhs, values = False, "-", ()
            params = tuple((k, _plam(v) if isinstance(v, tuple) else str(v))
                           for k, v in zip(labels, (*args, *values)))
            return Check(name, params, "pass" if ok else "fail", lhs, rhs)

        _TASKS[name] = check
        return check

    return register


# -- knop-sahi suite ----------------------------------------------------------------


@_family("characterization", "lambda")
def check_characterization(lam: Pair2) -> Outcome:
    return (ks.characterization_holds(lam),
            "P(mu1-kappa-1, mu2) over I(|lambda|)", "delta(lambda, mu) * H(kappa)")


@_family("pole-set", "lambda", "k_max")
def check_pole_set(lam: Pair2, k_max: int) -> Outcome:
    got = sorted(ks.ks_pole_set(lam, k_max))
    want = sorted(k for k in range(k_max + 1) if classify(lam, k) is PClass.SINGULAR)
    return got == want, str(got), str(want)


@_family("singular-part", "lambda", "k")
def check_singular_part(lam: Pair2, k: int) -> Outcome:
    lamd = paired(lam, k, PClass.SINGULAR)
    lhs = ks.sing_part(lam, k)
    rhs = ks.reg_part(lamd, k).scale(ks.r_coeff(lam, k))
    return _compare(lhs, rhs)


@_family("q-depolarized", "lambda", "k")
def check_q_values(lam: Pair2, k: int) -> Outcome:
    """Q_lam route agreement plus its generalized values t1/t2 pattern."""
    q = ks.q_poly(lam, k)  # asserts the two routes agree
    t1, t2 = ks.tcheck_values(lam, k)
    mus = upto(size(lam))
    got = zip(mus, ks.gen_eval(q, mus, k))
    return _value_mismatch("Q", got, {dagger(lam, k): t1, lam: t2}) or (
        True, f"t1={render_frac(t1)}", f"t2={render_frac(t2)}")


@_family("reg-basis-triangular", "k", "d")
def check_basis_triangular(k: int, d: int) -> Outcome:
    return (ks.reg_basis_triangular(k, d),
            "unitriangular in symmetric falling basis", "graded-lex order")


# -- capelli suite ---------------------------------------------------------------------


@_family("eigen-routes", "lambda", "k")
def check_eigen_routes(lam: Pair2, k: int) -> Outcome:
    cls = classify(lam, k)
    routes = ep.ROUTES[cls]
    bodies = [ep.eigen(lam, k, r) for r in routes]
    if cls is PClass.QUASIREGULAR:
        bodies.append(ep.qreg_variation_body(lam, k))
    oracle = bodies[len(routes) - 1]
    closed = bodies[0]
    if any(b != oracle for b in bodies):
        return False, render_bipoly(closed), render_bipoly(oracle)
    f = oracle
    if f.total_degree() != size(lam) or not f.is_symmetric():
        return False, f"degree {f.total_degree()}", f"expected {size(lam)}"
    mus = upto(size(lam))
    got = zip(mus, ks.gen_eval(f, mus, k))
    return _value_mismatch("f", got, {lam: Fraction(1)}) or _compare(closed, oracle)


@_family("jordan-restrictions", "lambda", "k")
def check_restrictions(lam: Pair2, k: int) -> Outcome:
    """Jordan data on the quasiregular blocks of size <= |lambda|.

    Only quasiregular blocks carry data (regular blocks have no nilpotent
    direction at all): the nilpotent coefficient must be 1 on the block
    whose singular partner is lambda and 0 on the others, and the
    semisimple part, f at the block's shifted point, must be delta_{mu,lambda}."""
    f = ep.eigen(lam, k)
    mus = [mu for mu in upto(size(lam)) if classify(mu, k) is PClass.QUASIREGULAR]
    for mu, (a, d_nil) in zip(mus, ep.restriction_pair(f, mus, k)):  # a = f at mu's point
        mud = paired(mu, k, PClass.QUASIREGULAR)
        want_nil = Fraction(int(mud == lam))
        if d_nil != want_nil:
            return False, f"nil on {_plam(mu)} = {render_frac(d_nil)}", render_frac(want_nil)
        want = Fraction(int(mu == lam))
        if a != want:
            return False, f"value on {_plam(mu)} = {render_frac(a)}", render_frac(want)
    return True, "nilpotent parts on quasiregular blocks", "delta on the dagger block"


# -- identity-e suite --------------------------------------------------------------------
# Each body looks its check up on ``idn`` at call time, so that a wrapper
# installed there (a tracer, a test) is reached.


@_family("derivative-identity", "i", "j", "N")
def check_derivative_identity(i: int, j: int, n: int) -> Outcome:
    return idn.derivative_identity_check(i, j, n)


@_family("falling-log-derivative", "N")
def check_logderiv(n: int) -> Outcome:
    return idn.logderiv_check(n)


@_family("psi-chain", "i", "j", "N", "points", "degree_bound")
def check_psi_chain(i: int, j: int, n: int) -> Outcome:
    return idn.psi_chain_check(i, j, n)


@_family("f-closed-form", "j", "l", "points")
def check_f_closed(j: int, l: int) -> Outcome:
    return idn.f_closed_form_check(j, l)


@_family("h-function", "j", "s", "x", "y")
def check_h_function(j: int, s: int) -> Outcome:
    """H(s) at four deterministic pole-free points per parameter pair; a
    failing record names its point as ``x`` and ``y``."""
    for y in (Fraction(5, 3), Fraction(3)):
        for x in (y + j + 2, y + j + 5):
            ok, lhs, rhs = idn.h_function_check(j, s, x, y)
            if not ok:
                return ok, lhs, rhs, x, y
    return True, "sum E1(q,s)", ("1/s and 5F4 route" if s else "harmonic difference")


# -- dougall suite --------------------------------------------------------------------------


@_family("dougall", "a", "b", "c", "d")
def check_dougall(a: int, b: int, c: int, d: int) -> Outcome:
    lhs, rhs = hg.dougall_check(a, b, c, d)
    return lhs == rhs, render_frac(lhs), render_frac(rhs)


# -- deligne suite ---------------------------------------------------------------------------


@_family("min-poly", "d", "t")
def check_min_poly(d: int, t: Fraction) -> Outcome:
    return (dl.min_poly_is_minimal(d, t),
            "annihilates all size-d blocks", "no proper divisor does")


@_family("cat-eigen", "lambda", "t")
def check_cat_routes(lam: Pair2, t: Fraction) -> Outcome:
    return _compare(dl.cat_eig_from_blocks(lam, t), dl.cat_eig_formula(lam, t))


@_family("super-cat-degeneration", "lambda", "k")
def check_super_cat(lam: Pair2, k: int) -> Outcome:
    """The categorical closed form at t = -2k against the class's last closed
    form: route d for quasiregular lambda, since ``cat_eig_formula``'s
    quasiregular branch is route c itself."""
    route = ep.ROUTES[classify(lam, k)][-2]
    return _compare(dl.cat_eig_formula(lam, Fraction(-2 * k)), ep.eigen(lam, k, route))


@_family("block-vanishing", "lambda", "t")
def check_vanishing_suite(lam: Pair2, t: Fraction) -> Outcome:
    """Generalized values of d_op at s = t on all partitions of size <= |lam|
    are delta_lam: on blocks, the dual number is (1,0) on the lam block,
    (0,1) on the dagger block when lam indexes no block itself, (0,0)
    everywhere else.  Includes the idempotent limit (the nil part on a
    quasiregular lam's own block is exactly zero)."""
    values = dl.block_values(lam, t)
    got = ((mu, values[mu]) for mu in upto(size(lam)))  # a missing value raises
    return _value_mismatch("D", got, {lam: Fraction(1)}) or (
        True, "dual action on blocks", "identity/nilpotent pattern")


@_family("singular-scale-limit", "lambda", "k")
def check_scalar_limit(lam: Pair2, k: int) -> Outcome:
    lhs, rhs = dl.singular_scale_limit(lam, k)
    return lhs == rhs, render_frac(lhs), render_frac(rhs)


# -- task plumbing -----------------------------------------------------------------------------

Task = tuple[str, tuple]


def run_task(task: Task) -> Check:
    name, args = task
    return _TASKS[name](*args)


def tasks_knopsahi(b: Bounds, cfg: Config) -> list[Task]:
    out: list[Task] = []
    out += [("characterization", (lam,)) for lam in upto(b.size_max)]
    out += [("pole-set", (lam, cfg.k_cap)) for lam in upto(b.pole_size_max())]
    for k in range(b.k_max + 1):
        for lam in upto(b.pole_size_max()):
            if classify(lam, k) is PClass.SINGULAR:
                out.append(("singular-part", (lam, k)))
                out.append(("q-depolarized", (lam, k)))
    out += [("reg-basis-triangular", (k, b.size_max)) for k in range(b.k_max + 1)]
    return out


def tasks_capelli(b: Bounds, cfg: Config) -> list[Task]:
    out: list[Task] = []
    for k in range(b.k_max + 1):
        for lam in upto(b.size_max):
            out.append(("eigen-routes", (lam, k)))
            out.append(("jordan-restrictions", (lam, k)))
    return out


def tasks_identity(b: Bounds, cfg: Config) -> list[Task]:
    out: list[Task] = []
    for n in range(b.n_max + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out.append(("derivative-identity", (i, j, n)))
    out += [("falling-log-derivative", (n,)) for n in range(cfg.n_cap + 1)]
    for n in range(b.psi_n_max + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out.append(("psi-chain", (i, j, n)))
    for j in range(b.psi_n_max + 1):
        for l in range(b.psi_n_max + 1 - j):
            out.append(("f-closed-form", (j, l)))
    for j in range(b.psi_n_max + 1):
        for s in range(4):
            out.append(("h-function", (j, s)))
    return out


def tasks_dougall(b: Bounds, cfg: Config) -> list[Task]:
    out: list[Task] = []
    for a in range(1, b.a_max + 1):
        for bb in range(b.bcd_max + 1):
            for c in range(b.bcd_max + 1):
                for d in range(b.bcd_max + 1):
                    out.append(("dougall", (a, bb, c, d)))
    return out


def tasks_deligne(b: Bounds, cfg: Config) -> list[Task]:
    out: list[Task] = []
    for t in b.t_list:
        out += [("min-poly", (d, t)) for d in range(b.minpoly_d_max + 1)]
    for t in b.t_list:
        for lam in upto(b.deligne_size_max):
            out.append(("cat-eigen", (lam, t)))
            out.append(("block-vanishing", (lam, t)))
    for k in range(b.k_max + 1):
        out += [("super-cat-degeneration", (lam, k)) for lam in upto(b.deligne_size_max)]
    for k in range(b.k_max + 1):
        for lam in upto(b.size_max):
            if classify(lam, k) is PClass.SINGULAR:
                out.append(("singular-scale-limit", (lam, k)))
    return out


_SUITE_TASKS = {
    "knop-sahi": tasks_knopsahi,
    "capelli": tasks_capelli,
    "identity-e": tasks_identity,
    "dougall": tasks_dougall,
    "deligne": tasks_deligne,
}
# The suite names in report order, then "all", which runs them all in that order.
SUITES = (*_SUITE_TASKS, "all")


def suite_tasks(suite: str, bounds: Bounds, cfg: Config = Config()) -> list[Task]:
    """The suite's tasks; the pole-set sweep runs to ``cfg.k_cap`` and the
    log-derivative sweep to ``cfg.n_cap``."""
    if suite == "all":
        return [task for tasks in _SUITE_TASKS.values() for task in tasks(bounds, cfg)]
    try:
        return _SUITE_TASKS[suite](bounds, cfg)
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")


def run_suite(suite: str, bounds: Bounds, params: tuple[tuple[str, str], ...] = (),
              jobs: int = 1, cfg: Config = Config()) -> RunReport:
    """Run one suite (or all) and assemble the report in task order."""
    tasks = suite_tasks(suite, bounds, cfg)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # serial sweeps skip its import

        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            checks = list(pool.map(run_task, tasks, chunksize=chunk))
    else:
        checks = [run_task(t) for t in tasks]
    return RunReport(command=f"verify {suite}", params=params, checks=checks)
