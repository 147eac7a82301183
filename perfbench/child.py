"""One repetition of a benchmark workload, in a fresh interpreter.

The harness starts this script once per repetition so that every sweep
starts with cold caches, as every ``capelli verify`` invocation does.  It
does the CLI's set-up (import, ``load_config``, ``Bounds.validate``,
``suite_tasks``), then runs each suite with ``run_suite`` and serializes it
with ``to_json``, and prints one JSON line describing the repetition.

Usage: child.py --suites S1,S2 --jobs N --bounds JSON --mode MODE [--spans PATH]

MODE is ``setup`` (stop before the first ``run_suite``), ``run`` (untraced)
or ``trace`` (every layer traced; meant for jobs=1, as the tracer cannot see
into pool workers).

In ``run`` mode at jobs=1 the child also splits the timed interval into
segments, one per verify task: a segment runs from the start of one task to
the start of the next (the first from the first ``run_suite`` call, the last
to the end of the last ``to_json``).  Before every task whose index is a
multiple of a fixed stride it times one unit of ``reference.py``, about
REF_UNITS units in all; their time is taken out of the segments, which add
up to ``wall_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction

from capelli import eigenpoly, verify
from capelli.config import load_config
from capelli.ratfunc import render_frac
from capelli.verify import Bounds, run_suite, suite_tasks

import reference
import tracer as tr

REF_UNITS = 48


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suites", required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--bounds", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    overrides = json.loads(args.bounds)
    if "t_list" in overrides:
        overrides["t_list"] = tuple(Fraction(t) for t in overrides["t_list"])
    bounds = Bounds(**overrides)
    bounds.validate(load_config())
    suites = args.suites.split(",")
    expected = {s: len(suite_tasks(s, bounds)) for s in suites}

    cold = all(c["currsize"] == 0 for c in tr.cache_infos({}).values()) and not eigenpoly._SYSTEMS
    t_ready = time.perf_counter()
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready, "cold": cold}))
        return

    tracer = None
    ref: list[float] = []
    marks: list[float] = []
    gaps: list[float] = []
    if args.mode == "trace":
        tracer = tr.Tracer()
        tracer.install()
    elif args.jobs == 1:
        stride = max(1, sum(expected.values()) // REF_UNITS)
        for family, fn in verify._TASKS.items():
            verify._TASKS[family] = _marked(fn, stride, marks, gaps, ref)

    pool_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    texts = []
    reports = []
    for suite in suites:
        report = run_suite(suite, bounds, params=cli_params(suite, bounds),
                           jobs=args.jobs)
        texts.append(report.to_json())
        reports.append(report)
    t_end = time.perf_counter()
    wall = t_end - t0
    cpu = time.process_time() - cpu0
    bounds_at = [t0, *marks, t_end]
    segments = [b - a - gap for a, b, gap in zip(bounds_at, bounds_at[1:], [*gaps, 0.0])]

    own = resource.getrusage(resource.RUSAGE_SELF)
    pool = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "t_ready": t_ready,
        "cold": cold,
        "wall_s": wall - sum(gaps),
        "ref": ref,
        "segments": segments,
        "cpu_s": cpu,
        "digests": {s: hashlib.sha256(t.encode()).hexdigest() for s, t in zip(suites, texts)},
        "expected_checks": expected,
        "checks": sum(r.total for r in reports),
        "failed": sum(r.failed for r in reports),
        "maxrss_kb": max(own.ru_maxrss, pool.ru_maxrss),
        "pool_cpu_s": (pool.ru_utime + pool.ru_stime
                       - pool_before.ru_utime - pool_before.ru_stime),
        "bounds": dict(cli_params("-", bounds)[1:]),
    }
    if tracer is not None:
        out["spans"] = tracer.stats()
        out["caches"] = tr.cache_infos(tracer.originals)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))


def _marked(fn, stride: int, marks: list[float], gaps: list[float], ref: list[float]):
    """``fn``, noting the time at which each call starts; every ``stride``-th
    call first times one reference unit, whose time goes to ``ref`` and
    ``gaps``."""
    def task(*args):
        gap = 0.0
        if len(marks) % stride == 0:
            t = time.perf_counter()
            reference.unit()
            gap = time.perf_counter() - t
            ref.append(gap)
        gaps.append(gap)
        marks.append(time.perf_counter())
        return fn(*args)
    return task


def cli_params(suite: str, b: Bounds) -> tuple[tuple[str, str], ...]:
    """The report params ``capelli verify`` passes to ``run_suite``."""
    return (
        ("suite", suite),
        ("k_max", str(b.k_max)),
        ("size_max", str(b.size_max)),
        ("N_max", str(b.n_max)),
        ("psi_N_max", str(b.psi_n_max)),
        ("deligne_size_max", str(b.deligne_size_max)),
        ("minpoly_d_max", str(b.minpoly_d_max)),
        ("a_max", str(b.a_max)),
        ("bcd_max", str(b.bcd_max)),
        ("t_list", ",".join(render_frac(t) for t in b.t_list)),
    )


if __name__ == "__main__":
    sys.exit(main())
