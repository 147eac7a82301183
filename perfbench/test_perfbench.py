"""Smoke tests of the benchmark harness, so that it cannot rot.

``run.py --smoke`` runs every workload once at tiny bounds, untraced and
traced, checking every report digest; it takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def test_smoke_reports_every_declared_metric():
    proc = _run(HERE.parent, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    for w in SPEC["workloads"]:
        for m in declared:
            assert metrics[f"{w['name']}.{m['name']}"]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert all(metrics[f"{w['name']}.{m['name']}"]["value"] > 0 for w in SPEC["workloads"])
    # identity bypasses the objects, routes, bivariate and block-model layers.
    for m in SPEC["per_layer"]:
        if m["name"].endswith(".calls") and m["name"].split(".")[0] in (
                "knopsahi", "eigenpoly", "bipoly", "deligne"):
            assert metrics[f"identity.{m['name']}"]["value"] == 0
    assert metrics["kscap.knopsahi.ks_poly.calls"]["value"] > 0
    assert metrics["identity.hypergeom.falling.calls"]["value"] > 0
    for w in SPEC["workloads"]:
        assert metrics[f"{w['name']}.verify.parallel_efficiency"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "kscap", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
