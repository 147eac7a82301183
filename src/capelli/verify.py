"""Verification sweeps over every exact identity the package implements.

Each suite enumerates a deterministic list of small, picklable tasks; a task
runs one check and returns a ``Check`` record.  Sweeps run either serially
or on a process pool -- results are gathered in task order either way, so
reports are byte-identical for identical invocations regardless of worker
count.

A failed comparison is data (status ``fail`` with both sides rendered), not
an exception; unexpected exceptions inside a check are also folded into a
failing record so one defect cannot take down a whole sweep.  Such a record
reads ``error: <type> at <file>:<line>: <message>``, naming the frame that
raised.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import deligne as dl
from . import eigenpoly as ep
from . import hypergeom as hg
from . import identities as idn
from . import knopsahi as ks
from .bipoly import render_bipoly, square_op
from .config import Config
from .partitions import PClass, Pair2, classify, dagger, size, upto
from .ratfunc import render_frac
from .report import Check, RunReport

SUITES = ("knop-sahi", "capelli", "identity-e", "dougall", "deligne", "all")

DEFAULT_T_LIST: tuple[Fraction, ...] = tuple(Fraction(v) for v in range(-6, 8)) + (
    Fraction(1, 2),
    Fraction(-5, 3),
)


class BoundsError(ValueError):
    """Requested sweep bounds exceed the configured hard caps."""


@dataclass(frozen=True)
class Bounds:
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
        for label, value, cap in (
            ("k-max", self.k_max, cfg.k_cap),
            ("size-max", self.size_max, cfg.size_cap),
            ("size-max+2 (pole sweep)", self.pole_size_max(), cfg.size_cap),
            ("N-max", self.n_max, cfg.n_cap),
            ("psi N-max", self.psi_n_max, cfg.n_cap),
            ("deligne size-max", self.deligne_size_max, cfg.size_cap),
            ("min-poly d-max", self.minpoly_d_max, cfg.size_cap),
            ("a-max", self.a_max, cfg.n_cap),
            ("bcd-max", self.bcd_max, cfg.n_cap),
        ):
            if value < 0:
                raise BoundsError(f"{label} = {value} must be non-negative")
            if value > cap:
                raise BoundsError(f"{label} = {value} exceeds the hard cap {cap}")


def _plam(lam: Pair2) -> str:
    return f"{lam[0]},{lam[1]}"


def _check(name, params, ok, lhs="-", rhs="-") -> Check:
    return Check(
        name=name,
        params=tuple((k, str(v)) for k, v in params),
        status="pass" if ok else "fail",
        lhs=lhs,
        rhs=rhs,
    )


def _guarded(name, params, fn) -> Check:
    try:
        return fn()
    except Exception as exc:  # a defect inside a check is a failing record
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
        message = f": {exc}" if str(exc) else ""
        lhs = f"error: {type(exc).__name__} at {where}{message}"
        return _check(name, params, False, lhs=lhs, rhs="-")


# -- knop-sahi suite ----------------------------------------------------------------


def check_characterization(lam: Pair2) -> Check:
    params = (("lambda", _plam(lam)),)

    def run() -> Check:
        ok = ks.characterization_holds(lam)
        return _check(
            "characterization", params, ok,
            lhs="P(mu1-kappa-1, mu2) over I(|lambda|)",
            rhs="delta(lambda, mu) * H(kappa)",
        )

    return _guarded("characterization", params, run)


def check_pole_set(lam: Pair2, k_max: int) -> Check:
    params = (("lambda", _plam(lam)), ("k_max", k_max))

    def run() -> Check:
        got = sorted(ks.ks_pole_set(lam, k_max))
        want = sorted(
            k for k in range(k_max + 1) if classify(lam, k) is PClass.SINGULAR
        )
        return _check("pole-set", params, got == want, lhs=str(got), rhs=str(want))

    return _guarded("pole-set", params, run)


def check_singular_part(lam: Pair2, k: int) -> Check:
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        lamd = dagger(lam, k)
        assert lamd is not None
        lhs = ks.sing_part(lam, k)
        rhs = ks.reg_part(lamd, k).scale(ks.r_coeff(lam, k))
        return _check(
            "singular-part", params, lhs == rhs,
            lhs=render_bipoly(lhs), rhs=render_bipoly(rhs),
        )

    return _guarded("singular-part", params, run)


def check_q_values(lam: Pair2, k: int) -> Check:
    """Q_lam route agreement plus its generalized values t1/t2 pattern."""
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        q = ks.q_poly(lam, k)  # asserts the two routes agree
        t1, t2 = ks.tcheck_values(lam, k)
        lamd = dagger(lam, k)
        for mu in upto(size(lam)):
            want = Fraction(0)
            if mu == lamd:
                want += t1
            if mu == lam:
                want += t2
            got = ks.gen_eval(q, mu, k)
            if got != want:
                return _check(
                    "q-depolarized", params, False,
                    lhs=f"ev(Q, {_plam(mu)}) = {render_frac(got)}",
                    rhs=render_frac(want),
                )
        return _check("q-depolarized", params, True,
                      lhs=f"t1={render_frac(t1)}", rhs=f"t2={render_frac(t2)}")

    return _guarded("q-depolarized", params, run)


def check_basis_triangular(k: int, d: int) -> Check:
    params = (("k", k), ("d", d))

    def run() -> Check:
        ok = ks.reg_basis_triangular(k, d)
        return _check("reg-basis-triangular", params, ok,
                      lhs="unitriangular in symmetric falling basis", rhs="graded-lex order")

    return _guarded("reg-basis-triangular", params, run)


# -- capelli suite ---------------------------------------------------------------------


def check_eigen_routes(lam: Pair2, k: int) -> Check:
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        routes = ep.applicable_routes(lam, k)
        bodies = [ep.eigen(lam, k, r).body for r in routes]
        if classify(lam, k) is PClass.QUASIREGULAR:
            bodies.append(ep.qreg_variation_body(lam, k))
        oracle = bodies[len(routes) - 1]
        closed = bodies[0]
        if any(b != oracle for b in bodies):
            return _check("eigen-routes", params, False,
                          lhs=render_bipoly(closed), rhs=render_bipoly(oracle))
        f = oracle
        if f.total_degree() != size(lam) or not f.is_symmetric():
            return _check("eigen-routes", params, False,
                          lhs=f"degree {f.total_degree()}", rhs=f"expected {size(lam)}")
        for mu in upto(size(lam)):
            want = Fraction(int(mu == lam))
            if ks.gen_eval(f, mu, k) != want:
                return _check("eigen-routes", params, False,
                              lhs=f"ev(f, {_plam(mu)})", rhs=render_frac(want))
        return _check("eigen-routes", params, True,
                      lhs=render_bipoly(closed), rhs=render_bipoly(oracle))

    return _guarded("eigen-routes", params, run)


def check_restrictions(lam: Pair2, k: int) -> Check:
    """Jordan data on every block of size <= |lambda|.

    The nilpotent coefficient matters only on quasiregular blocks (regular
    blocks have no nilpotent direction at all); there it must be the delta
    on the dagger block of a singular lambda.  Evaluation must also agree
    across each quasiregular/singular shifted-point pair."""
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        cls = classify(lam, k)
        lamd = dagger(lam, k)
        f = ep.eigen(lam, k).body
        sq = square_op(f)
        for mu in upto(size(lam)):
            mu_cls = classify(mu, k)
            if mu_cls is PClass.SINGULAR:
                continue
            d_val, d_nil = ep.restriction_pair(f, sq, mu, k)
            if mu_cls is PClass.QUASIREGULAR:
                want_nil = Fraction(int(cls is PClass.SINGULAR and mu == lamd))
                if d_nil != want_nil:
                    return _check("jordan-restrictions", params, False,
                                  lhs=f"nil on {_plam(mu)} = {render_frac(d_nil)}",
                                  rhs=render_frac(want_nil))
                mud = dagger(mu, k)
                assert mud is not None
                a = f.eval2(*ks.eval_point(mu, k))
                b = f.eval2(*ks.eval_point(mud, k))
                if a != b:
                    return _check("jordan-restrictions", params, False,
                                  lhs=f"f at {_plam(mu)} = {render_frac(a)}",
                                  rhs=f"f at {_plam(mud)} = {render_frac(b)}")
        return _check("jordan-restrictions", params, True,
                      lhs="nilpotent parts on quasiregular blocks",
                      rhs="delta on the dagger block")

    return _guarded("jordan-restrictions", params, run)


# -- identity-e suite --------------------------------------------------------------------


def _from_identity_report(rep: idn.IdentityReport) -> Check:
    lhs, rhs = "-", "-"
    if rep.witness is not None:
        lhs = f"{rep.witness.lhs} at {rep.witness.point}"
        rhs = rep.witness.rhs
    return Check(
        name=rep.name,
        params=tuple((k, str(v)) for k, v in rep.params),
        status=rep.status,
        lhs=lhs,
        rhs=rhs,
    )


def check_derivative_identity(i: int, j: int, n: int) -> Check:
    params = (("i", i), ("j", j), ("N", n))
    return _guarded(
        "derivative-identity", params,
        lambda: _from_identity_report(idn.derivative_identity_check(i, j, n)),
    )


def check_logderiv(n: int) -> Check:
    return _guarded("falling-log-derivative", (("N", n),),
                    lambda: _from_identity_report(idn.logderiv_check(n)))


def check_psi_chain(i: int, j: int, n: int) -> Check:
    params = (("i", i), ("j", j), ("N", n))
    return _guarded("psi-chain", params,
                    lambda: _from_identity_report(idn.psi_chain_check(i, j, n)))


def check_f_closed(j: int, l: int) -> Check:
    return _guarded("f-closed-form", (("j", j), ("l", l)),
                    lambda: _from_identity_report(idn.f_closed_form_check(j, l)))


def check_h_function(j: int, s: int) -> Check:
    """H(s) at two deterministic pole-free points per parameter pair."""
    params = (("j", j), ("s", s))

    def run() -> Check:
        for y in (Fraction(5, 3), Fraction(3)):
            for dx in (2, 5):
                x = y + j + dx
                rep = idn.h_function_check(j, s, x, y)
                if not rep.passed:
                    return _from_identity_report(rep)
        return _check("h-function", params, True, lhs="sum E1(q,s)",
                      rhs=("1/s and 5F4 route" if s else "harmonic difference"))

    return _guarded("h-function", params, run)


# -- dougall suite --------------------------------------------------------------------------


def check_dougall(a: int, b: int, c: int, d: int) -> Check:
    params = (("a", a), ("b", b), ("c", c), ("d", d))

    def run() -> Check:
        res = hg.dougall_check(a, b, c, d)
        return _check("dougall", params, res.equal,
                      lhs=render_frac(res.lhs), rhs=render_frac(res.rhs))

    return _guarded("dougall", params, run)


# -- deligne suite ---------------------------------------------------------------------------


def check_min_poly(d: int, t: Fraction) -> Check:
    params = (("d", d), ("t", render_frac(t)))

    def run() -> Check:
        ok = dl.min_poly_is_minimal(d, t)
        return _check("min-poly", params, ok,
                      lhs="annihilates all size-d blocks", rhs="no proper divisor does")

    return _guarded("min-poly", params, run)


def check_cat_routes(lam: Pair2, t: Fraction) -> Check:
    params = (("lambda", _plam(lam)), ("t", render_frac(t)))

    def run() -> Check:
        a = dl.cat_eig_from_blocks(lam, t)
        b = dl.cat_eig_formula(lam, t)
        return _check("cat-eigen", params, a == b,
                      lhs=render_bipoly(a), rhs=render_bipoly(b))

    return _guarded("cat-eigen", params, run)


def check_super_cat(lam: Pair2, k: int) -> Check:
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        a = dl.cat_eig_formula(lam, Fraction(-2 * k))
        b = ep.eigen(lam, k).body
        return _check("super-cat-degeneration", params, a == b,
                      lhs=render_bipoly(a), rhs=render_bipoly(b))

    return _guarded("super-cat-degeneration", params, run)


def check_vanishing_suite(lam: Pair2, t: Fraction) -> Check:
    """Dual-number pattern of d_op at s = t over all blocks of size <= |lam|:
    (1,0) on the lam block, (0,1) on the dagger block when lam indexes no
    block itself, (0,0) everywhere else.  Includes the idempotent limit (the
    nil part on a quasiregular lam's own block is exactly zero)."""
    params = (("lambda", _plam(lam)), ("t", render_frac(t)))

    def run() -> Check:
        op_t = dl.d_op(lam, t).map_coeffs(lambda c: c.eval(t))
        singular_partner = None
        if dl.is_even_nonpositive(t):
            k = int(dl.kbar(t))
            if classify(lam, k) is PClass.SINGULAR:
                singular_partner = dagger(lam, k)
        for m in range(size(lam) + 1):
            for blk in dl.blocks(m, t):
                got = dl.block_eval(op_t, blk)
                if singular_partner is not None:
                    want = dl.DualScalar(Fraction(0), Fraction(int(blk.lam == singular_partner)))
                else:
                    want = dl.DualScalar(Fraction(int(blk.lam == lam)), Fraction(0))
                if got != want:
                    return _check(
                        "block-vanishing", params, False,
                        lhs=f"on {_plam(blk.lam)}: ({render_frac(got.value)},{render_frac(got.nil)})",
                        rhs=f"({render_frac(want.value)},{render_frac(want.nil)})",
                    )
        return _check("block-vanishing", params, True,
                      lhs="dual action on blocks", rhs="identity/nilpotent pattern")

    return _guarded("block-vanishing", params, run)


def check_scalar_limit(lam: Pair2, k: int) -> Check:
    params = (("lambda", _plam(lam)), ("k", k))

    def run() -> Check:
        lhs, rhs = dl.singular_scale_limit(lam, k)
        return _check("singular-scale-limit", params, lhs == rhs,
                      lhs=render_frac(lhs), rhs=render_frac(rhs))

    return _guarded("singular-scale-limit", params, run)


# -- task plumbing -----------------------------------------------------------------------------

_TASKS = {
    "characterization": check_characterization,
    "pole-set": check_pole_set,
    "singular-part": check_singular_part,
    "q-depolarized": check_q_values,
    "reg-basis-triangular": check_basis_triangular,
    "eigen-routes": check_eigen_routes,
    "jordan-restrictions": check_restrictions,
    "derivative-identity": check_derivative_identity,
    "falling-log-derivative": check_logderiv,
    "psi-chain": check_psi_chain,
    "f-closed-form": check_f_closed,
    "h-function": check_h_function,
    "dougall": check_dougall,
    "min-poly": check_min_poly,
    "cat-eigen": check_cat_routes,
    "super-cat-degeneration": check_super_cat,
    "block-vanishing": check_vanishing_suite,
    "singular-scale-limit": check_scalar_limit,
}

Task = tuple[str, tuple]


def run_task(task: Task) -> Check:
    name, args = task
    return _TASKS[name](*args)


def tasks_knopsahi(b: Bounds) -> list[Task]:
    out: list[Task] = []
    out += [("characterization", (lam,)) for lam in upto(b.size_max)]
    pole_k = 6
    out += [("pole-set", (lam, pole_k)) for lam in upto(b.pole_size_max())]
    for k in range(b.k_max + 1):
        for lam in upto(b.pole_size_max()):
            if classify(lam, k) is PClass.SINGULAR:
                out.append(("singular-part", (lam, k)))
                out.append(("q-depolarized", (lam, k)))
    out += [("reg-basis-triangular", (k, b.size_max)) for k in range(b.k_max + 1)]
    return out


def tasks_capelli(b: Bounds) -> list[Task]:
    out: list[Task] = []
    for k in range(b.k_max + 1):
        for lam in upto(b.size_max):
            out.append(("eigen-routes", (lam, k)))
            out.append(("jordan-restrictions", (lam, k)))
    return out


def tasks_identity(b: Bounds) -> list[Task]:
    out: list[Task] = []
    for n in range(b.n_max + 1):
        for i in range(n + 1):
            for j in range(n + 1 - i):
                out.append(("derivative-identity", (i, j, n)))
    out += [("falling-log-derivative", (n,)) for n in range(11)]
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


def tasks_dougall(b: Bounds) -> list[Task]:
    out: list[Task] = []
    for a in range(1, b.a_max + 1):
        for bb in range(b.bcd_max + 1):
            for c in range(b.bcd_max + 1):
                for d in range(b.bcd_max + 1):
                    out.append(("dougall", (a, bb, c, d)))
    return out


def tasks_deligne(b: Bounds) -> list[Task]:
    out: list[Task] = []
    for t in b.t_list:
        out += [("min-poly", (d, t)) for d in range(b.minpoly_d_max + 1)]
    for t in b.t_list:
        for lam in upto(b.deligne_size_max):
            out.append(("cat-eigen", (lam, t)))
            out.append(("block-vanishing", (lam, t)))
    for k in range(min(b.k_max, 3) + 1):
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


def suite_tasks(suite: str, bounds: Bounds) -> list[Task]:
    if suite == "all":
        out: list[Task] = []
        for name in ("knop-sahi", "capelli", "identity-e", "dougall", "deligne"):
            out += _SUITE_TASKS[name](bounds)
        return out
    try:
        return _SUITE_TASKS[suite](bounds)
    except KeyError:
        raise ValueError(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")


def run_suite(suite: str, bounds: Bounds, params: tuple[tuple[str, str], ...] = (),
              jobs: int = 1) -> RunReport:
    """Run one suite (or all) and assemble the report in task order."""
    tasks = suite_tasks(suite, bounds)
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            checks = list(pool.map(run_task, tasks, chunksize=chunk))
    else:
        checks = [run_task(t) for t in tasks]
    return RunReport(command=f"verify {suite}", params=params, checks=checks)
