"""Record this checkout's benchmark as ``BENCH_<label>.json``.

Usage, from the root of a source checkout:

    python3 scripts/bench_record.py LABEL [--parent PATH]

For each of the seeds 1, 2, ..., 10, one after another, it runs

    python3 perfbench/run.py --workload all --seconds S --seed N

with S the ``run_seconds`` of BENCHMARK.json (35), and reads the last two
lines that run prints: the ``record`` line (seed, resolved bounds, machine
facts, git SHA, per-run samples) and the final JSON line (``correct``,
``attempted``, ``failed`` and the metrics).  It writes
``BENCH_<label>.json`` at the checkout root with the git SHA, whether the
tracked files differ from it, the source digest, the checkout path's length
(the path length alone moves ``peak_rss_mb``), the machine facts, the bounds,
the seeds, ``correct`` / ``attempted`` / ``failed``, and for each end-to-end
metric of BENCHMARK.json on each workload its value per seed and the q1 /
median / q3 across seeds.

``--parent PATH`` names a second checkout, usually the parent commit's.  The
runs then alternate between the trees, and so does the tree that runs first
at a seed (parent 1, this 1, this 2, parent 2, parent 3, ...), so a change
of host state between runs falls on both trees alike and neither tree always
runs first.  The record gains a ``parent`` entry with the same per-tree
fields: SHA, dirtiness, source digest, path length, load
averages, the outcome counts and the per-seed metrics.  Both trees must
resolve the same bounds.  The record then also holds ``wins``: for each
workload and end-to-end metric, in how many of the seeds this checkout's
value beats the parent's, read by the metric's ``better`` in BENCHMARK.json
(a tie is no win): the ten pairs that a claimed gain is judged on.

Each tree's entry also records, as read before its first run, whether
PYTHONDONTWRITEBYTECODE is set and which modules of ``src/capelli`` have
cached bytecode for this interpreter.  ``run.py`` hands its environment to
every child, so without a cache each child compiles every module it
imports: on a 2-CPU host ``setup_s`` read 0.070-0.075 s without a cache and
0.045-0.048 s with one, and ``peak_rss_mb`` moves with it.  When the two
trees differ there, the script prints a one-line warning, since their
``setup_s`` and ``peak_rss_mb`` then compare compile costs as well.

Standard library only.  A run that fails or prints no such lines, or a
``--parent`` that is this checkout or has no ``perfbench/run.py`` ends the
script with status 2 and a one-line message.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = tuple(range(1, 11))


def run_once(root: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``perfbench/run.py --workload all`` run in the checkout ``root``:
    its record and its result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seconds", str(seconds), "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or len(lines) < 2 or not lines[-2].startswith("record "):
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"bench_record: {root}: seed {seed}: run.py exited "
                           f"{proc.returncode}: {tail}")
    return json.loads(lines[-2][len("record "):]), json.loads(lines[-1])


def git_dirty(root: Path) -> bool | None:
    """Whether tracked files differ from HEAD; None outside a git checkout."""
    try:
        out = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                             cwd=root, capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return bool(out.strip())


def bytecode_state(root: Path) -> dict:
    """Whether PYTHONDONTWRITEBYTECODE is set, and for each module of
    ``src/capelli`` whether its cached bytecode for this interpreter exists."""
    return {
        "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "cached": {path.stem: Path(importlib.util.cache_from_source(str(path))).is_file()
                   for path in sorted((root / "src" / "capelli").glob("*.py"))},
    }


def compile_state(bytecode: dict) -> tuple[bool, list[bool]]:
    """What decides whether a child compiles: the flag, and whether the
    modules have caches (none, all, or some), so that two trees whose module
    lists differ still compare."""
    return bytecode["dont_write_bytecode"], sorted(set(bytecode["cached"].values()))


def summarize(values: list[float]) -> dict:
    """q1 / median / q3 of the per-seed values (one value stands for all three)."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"values": values, "q1": q1, "median": median, "q3": q3}


def tree_record(root: Path, runs: list[tuple[dict, dict]], spec: dict, bytecode: dict) -> dict:
    """The per-tree part of a record: identity, bytecode state, outcome
    counts and, for each end-to-end metric on each workload, its per-seed
    values and quartiles."""
    records = [record for record, _ in runs]
    results = [result for _, result in runs]
    machine = records[0]["machine"]
    return {
        "git_sha": machine.get("git_sha"),
        "git_dirty": git_dirty(root),
        "src_sha256": machine.get("src_sha256"),
        "checkout_path_len": len(str(root)),
        "bytecode": bytecode,
        "loadavg": [r["machine"]["loadavg"] for r in records],
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            w["name"]: {m["name"]: {"unit": m["unit"], **summarize(
                [r["metrics"][f"{w['name']}.{m['name']}"]["value"] for r in results])}
                for m in spec["end_to_end"]}
            for w in spec["workloads"]
        },
    }


def wins(this: dict, parent: dict, spec: dict) -> dict:
    """For each workload and end-to-end metric, how many seeds this tree's
    value beats the parent's at the same seed, by the metric's ``better``."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return {
        w: {m: sum((a < b) if better[m] == "lower" else (a > b)
                   for a, b in zip(this[w][m]["values"], parent[w][m]["values"]))
            for m in metrics}
        for w, metrics in this.items()
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("label", help="names the output, BENCH_<label>.json")
    ap.add_argument("--parent", type=Path, metavar="PATH",
                    help="a second checkout whose runs alternate with this one's")
    args = ap.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        print(f"bench_record: label {args.label!r} is not [A-Za-z0-9_-]+", file=sys.stderr)
        return 2
    trees = [ROOT]
    if args.parent is not None:
        parent = args.parent.resolve()
        if parent == ROOT or not (parent / "perfbench" / "run.py").is_file():
            print(f"bench_record: --parent {args.parent}: not a second checkout with "
                  "perfbench/run.py", file=sys.stderr)
            return 2
        trees.insert(0, parent)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bytecode = {root: bytecode_state(root) for root in trees}
    if len(trees) > 1 and compile_state(bytecode[trees[0]]) != compile_state(bytecode[ROOT]):
        print(f"bench_record: warning: {trees[0]} and {ROOT} differ in cached bytecode, so "
              "their setup_s and peak_rss_mb also compare compile costs", file=sys.stderr)

    runs: dict[Path, list] = {root: [] for root in trees}
    try:
        for i, seed in enumerate(SEEDS):
            for root in trees if i % 2 == 0 else trees[::-1]:
                runs[root].append(run_once(root, seed, spec["run_seconds"]))
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    records = [record for tree in runs.values() for record, _ in tree]
    if any(r["bounds"] != records[0]["bounds"] for r in records):
        print("bench_record: the runs resolved different bounds", file=sys.stderr)
        return 2

    machine = runs[ROOT][0][0]["machine"]
    out = {
        "label": args.label,
        **tree_record(ROOT, runs[ROOT], spec, bytecode[ROOT]),
        "machine": {k: v for k, v in machine.items()
                    if k not in ("git_sha", "src_sha256", "loadavg")},
        "command": "perfbench/run.py --workload all",
        "seconds": spec["run_seconds"],
        "seeds": list(SEEDS),
        "bounds": records[0]["bounds"],
    }
    if len(trees) > 1:
        out["parent"] = tree_record(trees[0], runs[trees[0]], spec, bytecode[trees[0]])
        out["wins"] = wins(out["metrics"], out["parent"]["metrics"], spec)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench_record: wrote {path.name} ({len(records)} runs, correct={out['correct']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
