"""Verification-sweep benchmark for ``capelli verify``.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload kscap --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35   # every workload, one table
    python3 perfbench/run.py --smoke                                # tiny bounds, harness self-test

Each workload is a closed loop with one client: the harness starts one sweep
in a fresh child interpreter (``child.py``), waits for it, then starts the
next, so every repetition starts with cold caches like every CLI invocation.
The sweeps are exact and deterministic; ``--seed`` only shuffles the order in
which set-up probes and repetitions interleave.  Every repetition's report
digest is checked against the one recorded in ``workloads.py``.

``--trace 0`` repeats the sweep for about ``--seconds`` and reports the
end-to-end metrics of BENCHMARK.json:

* ``wall_s``, the time from the first ``run_suite`` call to the end of the
  last ``to_json``.  The child cuts that interval into one segment per verify
  task; the sum over segments of each segment's fastest time among the run's
  repetitions is the sweep's time in the host's fast state.
* ``setup_s``, the fastest time from spawning a child to its first
  ``run_suite`` (interpreter start, imports, ``load_config``,
  ``Bounds.validate``, ``suite_tasks``), over set-up probes and repetitions.
* ``peak_rss_mb``, the median of the sweep process's largest resident set.

The hosts this runs on are shared.  Their speed flips between a fast state
and one up to 1.8x slower every second or so, and at times stays slow for a
minute or more.  A whole sweep rarely runs in the fast state alone, but each
of its tasks does in some repetition, so the per-task minimum is far steadier
than any statistic of whole repetitions.  In a slow spell the fast state is
rare, and fewer tasks find it.  So the child also times a fixed unit of
stdlib-only work (``reference.py``) between tasks, at the same task indices
in every repetition, and the units' time is estimated as the tasks' is: the
mean over positions of each position's fastest time.  Both end-to-end times
are scaled by NOMINAL_UNIT_S over that estimate, so they read in seconds of
a host on which the unit takes NOMINAL_UNIT_S, and a spell that slows tasks
and units alike cancels.  The unscaled values and the median repetition are
printed beside them and kept in the record.

Failed work is reported in the result line's ``failed`` / ``attempted``
(their ratio is the failed fraction) and printed as ``failed_frac``.

``--trace 1`` runs the workload twice untraced, twice traced and twice on the
verify process pool with two workers, and reports the per-layer metrics: span
counts, self times and cache statistics of the traced repetitions, whose
counts must be identical, and the pool's worker CPU, idle time and parallel
efficiency against the untraced jobs=1 repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record (the
seed, the resolved bounds, machine facts, every repetition with its load
average) is printed before it and written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
from workloads import BOUNDS, DIGESTS, POOL_JOBS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
MIN_REPS = 3
BUDGET_S = 170.0  # a run of one workload must end well within 180 s


class Run:
    """Children spawned for one workload run, and their accounting."""

    def __init__(self, workload: Workload, bounds: str, deadline: float) -> None:
        self.workload = workload
        self.bounds = bounds
        self.deadline = deadline
        self.records: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples: dict[str, list[float]] = {}

    def spawn(self, mode: str, jobs: int = 1) -> dict | None:
        """Run one child to completion and check it.  Returns its record, or
        None if it crashed; a completed sweep with wrong output is returned
        too, counted as failed."""
        w = self.workload
        spans = None
        if mode == "trace":
            n = sum(r["mode"] == "trace" for r in self.records)
            spans = str(OUT_DIR / f"spans-{w.name}-{n}.bin.gz")
        cmd = [sys.executable, str(HERE / "child.py"), "--suites", ",".join(w.suites),
               "--jobs", str(jobs), "--bounds", json.dumps(BOUNDS[self.bounds]), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        rec = {"workload": w.name, "mode": mode, "jobs": jobs, "loadavg": list(os.getloadavg())}
        self.records.append(rec)
        self.attempted += 1
        t_spawn = time.perf_counter()
        out, err = _communicate(cmd, self.deadline - t_spawn)
        rec["elapsed_s"] = time.perf_counter() - t_spawn
        try:
            child = json.loads(out.splitlines()[-1])
        except (IndexError, ValueError):
            self._fail(rec, (err.strip().splitlines() or ["no output"])[-1])
            return None
        rec.update(child)
        rec["setup_s"] = child["t_ready"] - t_spawn
        if not child["cold"]:
            self._fail(rec, "caches not cold at the first run_suite")
        if mode == "setup":
            return rec
        self.attempted += child["checks"]
        self.failed += child["failed"]
        want = DIGESTS[self.bounds]
        rec["digest_ok"] = all(child["digests"][s] == want.get(s) for s in w.suites)
        if child["failed"] or not rec["digest_ok"]:
            self._fail(rec, "failed checks or report digest differs from the recorded one")
        return rec

    def _fail(self, rec: dict, error: str) -> None:
        rec["error"] = error
        self.failed += 1
        self.correct = False
        print(f"perfbench: {rec['workload']} {rec['mode']}: {error}", file=sys.stderr)


def _communicate(cmd: list[str], timeout: float) -> tuple[str, str]:
    """Run ``cmd`` in its own process group; kill the whole group (the child
    and any pool workers) if it outlives ``timeout``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CAPELLI_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        return proc.communicate(timeout=max(timeout, 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return out, err + "\ntimed out"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # reap stray pool workers, if any
        except ProcessLookupError:
            pass


# -- one workload -----------------------------------------------------------------


def run_untraced(w: Workload, rng: random.Random, seconds: float, bounds: str,
                 probes: int = SETUP_PROBES) -> tuple[Run, dict]:
    run = Run(w, bounds, time.perf_counter() + BUDGET_S)
    run.spawn("setup")  # writes the bytecode caches; its time is not a sample
    plan = ["setup"] * probes + ["run"]
    rng.shuffle(plan)
    start = time.perf_counter()
    reps: list[dict] = []
    for mode in plan:
        rec = run.spawn(mode)
        if rec is not None and mode == "run":
            reps.append(rec)
    while reps:
        # Start a repetition only if a typical one ends within the run, so
        # that a run lasts about ``seconds`` and no longer.
        cost = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= MIN_REPS and time.perf_counter() - start + cost > seconds:
            break
        if run.deadline - time.perf_counter() < 2 * cost:
            break
        rec = run.spawn("run")
        if rec is None:
            break
        reps.append(rec)
    run.samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in run.records[1:] if "setup_s" in r],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in reps],
        "ref_unit_s": [t for r in reps for t in r["ref"]],
    }
    if not reps:
        return run, {}
    if len({(len(r["segments"]), len(r["ref"])) for r in reps}) != 1:
        run.correct = False
        print(f"perfbench: {w.name}: repetitions ran different numbers of tasks", file=sys.stderr)
        return run, {}
    measured = {
        "wall_s": sum(min(seg) for seg in zip(*(r["segments"] for r in reps))),
        "setup_s": min(run.samples["setup_s"]),
        # The reference units' times, estimated as the tasks' are.
        "ref_unit_s": statistics.fmean(min(u) for u in zip(*(r["ref"] for r in reps))),
    }
    scale = reference.NOMINAL_UNIT_S / measured["ref_unit_s"]
    return run, {
        "wall_s": measured["wall_s"] * scale,
        "setup_s": measured["setup_s"] * scale,
        "peak_rss_mb": statistics.median(run.samples["peak_rss_mb"]),
        **{f"measured.{m}": v for m, v in measured.items()},
    }


def run_traced(w: Workload, rng: random.Random, bounds: str) -> tuple[Run, dict]:
    """Two untraced and two traced repetitions, and two on the verify process
    pool with POOL_JOBS workers, in shuffled order."""
    run = Run(w, bounds, time.perf_counter() + BUDGET_S)
    plan = ["run", "trace", "pool"] * 2
    rng.shuffle(plan)
    recs: dict[str, list[dict]] = {mode: [] for mode in plan}
    for mode in plan:
        rec = (run.spawn("run", jobs=POOL_JOBS) if mode == "pool" else run.spawn(mode))
        if rec is None:
            return run, {}
        recs[mode].append(rec)
    traced, pooled = recs["trace"], recs["pool"]
    untraced = min(r["wall_s"] for r in recs["run"])
    counts = [_counts(r) for r in traced]
    if counts[0] != counts[1]:
        run.correct = False
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        print(f"perfbench: {w.name}: traced counts differ between runs: {diff}", file=sys.stderr)

    def mean(f, recs=traced):
        return statistics.fmean(f(r) for r in recs)

    values = {
        "verify.checks": traced[0]["checks"],
        "verify.failed": traced[0]["failed"],
        "verify.pool_cpu_s": mean(lambda r: r["pool_cpu_s"], pooled),
        "verify.pool_idle_s": mean(lambda r: POOL_JOBS * r["wall_s"] - r["pool_cpu_s"], pooled),
        "verify.parallel_efficiency": untraced / (POOL_JOBS * min(r["wall_s"] for r in pooled)),
        # Fastest traced minus fastest untraced repetition.
        "trace.overhead_s": min(r["wall_s"] for r in traced) - untraced,
    }
    for name in {n for r in traced for n in r["spans"]}:
        for stat in ("calls", "s", "self_s"):
            values[f"{name}.{stat}"] = mean(lambda r: r["spans"].get(name, {}).get(stat, 0))
    for name, ci in traced[0]["caches"].items():
        values[f"{name}.misses"] = ci["misses"]
        looked_up = ci["hits"] + ci["misses"]
        values[f"{name}.hit_ratio"] = ci["hits"] / looked_up if looked_up else 0.0
    return run, values


def _counts(rec: dict) -> dict:
    out = {f"{n}.calls": s["calls"] for n, s in rec["spans"].items()}
    out.update({f"{n}.misses": c["misses"] for n, c in rec["caches"].items()})
    out["verify.checks"] = rec["checks"]
    return out


# -- output -----------------------------------------------------------------------------


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(ROOT / "src"),
        "loadavg": list(os.getloadavg()),
    }


def _git_sha() -> str | None:
    """HEAD of a git checkout at ROOT, read from the files (no git process)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _tree_digest(top: Path) -> str:
    """SHA-256 over the library sources, which identifies the code measured
    where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file() and p.suffix in (".py", ".json")):
        h.update(str(path.relative_to(top)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once at tiny bounds, untraced and traced")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "capelli" / "__init__.py").is_file():
        print(f"perfbench: no capelli sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    rng = random.Random(args.seed)
    names = list(WORKLOADS) if args.workload == "all" or args.smoke else [args.workload]
    rng.shuffle(names)
    passes = (0, 1) if args.smoke else (args.trace,)
    bounds = "smoke" if args.smoke else "bench"
    results = {}
    for trace in passes:
        for name in names:
            if trace:
                results[name, trace] = run_traced(WORKLOADS[name], rng, bounds)
            else:
                results[name, trace] = run_untraced(
                    WORKLOADS[name], rng, 0 if args.smoke else args.seconds, bounds,
                    probes=1 if args.smoke else SETUP_PROBES)

    runs = [run for run, _ in results.values()]
    if any(not values for _, values in results.values()):
        print("perfbench: a workload produced no measurement", file=sys.stderr)
        return 1
    record = {
        "seed": args.seed,
        "seconds": args.seconds,
        "bounds": {rec["workload"]: rec["bounds"]
                   for run in runs for rec in run.records if "bounds" in rec},
        "machine": machine_facts(),
        "runs": [{"workload": run.workload.name, "correct": run.correct,
                  "attempted": run.attempted, "failed": run.failed,
                  "samples": run.samples, "children": run.records}
                 for run in runs],
    }
    single = len(results) == 1
    metrics = {}
    for (name, trace), (run, values) in results.items():
        units = declared("per_layer" if trace else "end_to_end")
        prefix = "" if single else f"{name}."
        missing = sorted(set(units) - set(values))
        if missing:
            print(f"perfbench: {name}: no value for {missing}", file=sys.stderr)
            return 1
        metrics.update({prefix + m: {"value": values[m], "unit": u} for m, u in units.items()})
        _print_summary(name, trace, run, values, units)
    correct = all(run.correct for run in runs)
    attempted = sum(run.attempted for run in runs)
    failed = sum(run.failed for run in runs)

    tag = "smoke" if args.smoke else f"{args.workload}-trace{args.trace}-seed{args.seed}"
    (OUT_DIR / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for run in record["runs"]:  # the file keeps per-task and reference times; stdout does not
        run["samples"].pop("ref_unit_s", None)
        run["children"] = [{k: v for k, v in c.items() if k not in ("segments", "ref")}
                           for c in run["children"]]
    print("record " + json.dumps(record, separators=(",", ":")))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct or not args.smoke else 1


def _print_summary(name: str, trace: int, run: Run, values: dict, units: dict) -> None:
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"{name} ({'traced' if trace else 'untraced'}): "
          f"failed_frac {frac:.6g} ({run.failed}/{run.attempted})"
          f"{'' if run.correct else '  INCORRECT'}")
    for m, u in units.items():
        if trace and not values[m]:
            continue
        sample = run.samples.get(m)
        n = f"  n={len(sample)} median={statistics.median(sample):.6g}" if sample else ""
        print(f"  {m:<44} {values[m]:>14.6g} {u}{n}")
    for m in sorted(values):
        if m.startswith("measured."):
            print(f"  {m:<44} {values[m]:>14.6g} s  (unscaled)")


if __name__ == "__main__":
    # Turn SIGTERM into SystemExit so the running child's group is killed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
