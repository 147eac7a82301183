"""``scripts/bench_record.py`` rejects a bad ``--parent`` with status 2 and
one line, before it starts any benchmark run, records each tree's bytecode
state, warning in one line when the two trees differ there, alternates the
tree that runs first at a seed, and counts per metric the seeds this tree
wins against the parent."""

import importlib.util
import json
import pathlib
import shutil

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("parent", ["missing", "empty", "self"])
def test_bad_parent_exits_2_with_one_line(bench_record, monkeypatch, tmp_path, capsys, parent):
    monkeypatch.setattr(bench_record, "run_once", lambda *a: pytest.fail("a run started"))
    (tmp_path / "empty").mkdir()
    path = {"missing": tmp_path / "missing", "empty": tmp_path / "empty",
            "self": bench_record.ROOT}[parent]
    assert bench_record.main(["x", "--parent", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"bench_record: --parent {path}: ")


def _tree(path: pathlib.Path, cached: bool) -> pathlib.Path:
    """A checkout with perfbench/run.py and two modules in src/capelli,
    each with cached bytecode for this interpreter or none."""
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text("")
    (path / "src" / "capelli").mkdir(parents=True)
    for name in ("a", "b"):
        module = path / "src" / "capelli" / f"{name}.py"
        module.write_text("x = 1\n")
        if cached:
            cache = pathlib.Path(importlib.util.cache_from_source(str(module)))
            cache.parent.mkdir(exist_ok=True)
            cache.write_bytes(b"")
    return path


def _fake_run(spec, value=lambda root, seed, metric: 1.0, calls=None):
    """``run_once`` stand-in: a record and a result line with every metric,
    each read from ``value``; ``calls`` collects (root, seed) in run order."""
    def run_once(root, seed, seconds):
        if calls is not None:
            calls.append((root, seed))
        record = {"bounds": {"w": 1}, "machine": {"git_sha": None, "src_sha256": "0",
                                                   "loadavg": [0.0, 0.0, 0.0]}}
        metrics = {f"{w['name']}.{m['name']}": {"value": value(root, seed, m["name"])}
                   for w in spec["workloads"] for m in spec["end_to_end"]}
        return record, {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return run_once


@pytest.mark.parametrize("parent_cached, warned", [(True, False), (False, True)])
def test_records_bytecode_and_warns_when_the_trees_differ(
        bench_record, monkeypatch, tmp_path, capsys, parent_cached, warned):
    root, parent = _tree(tmp_path / "this", True), _tree(tmp_path / "parent", parent_cached)
    shutil.copy(bench_record.ROOT / "BENCHMARK.json", root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_record, "ROOT", root)
    monkeypatch.setattr(bench_record, "run_once", _fake_run(spec))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_record.main(["x", "--parent", str(parent)]) == 0
    out = json.loads((root / "BENCH_x.json").read_text())
    assert out["bytecode"] == {"dont_write_bytecode": False, "cached": {"a": True, "b": True}}
    assert out["parent"]["bytecode"]["cached"] == {"a": parent_cached, "b": parent_cached}
    err = capsys.readouterr().err
    assert err.count("\n") == warned and ("warning" in err) == warned


def test_ten_seeds_alternate_and_count_the_wins(bench_record, monkeypatch, tmp_path):
    root, parent = _tree(tmp_path / "this", True), _tree(tmp_path / "parent", True)
    spec = json.loads((bench_record.ROOT / "BENCHMARK.json").read_text())
    # one metric where higher is better, to check that wins read ``better``
    spec["end_to_end"][1]["better"] = "higher"
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    first, second = (m["name"] for m in spec["end_to_end"][:2])

    def value(tree, seed, metric):
        # this tree is lower at seeds 1-7, equal at 8, higher at 9 and 10
        if tree == parent:
            return 1.0
        return 0.9 if seed <= 7 else 1.0 if seed == 8 else 1.1

    calls = []
    monkeypatch.setattr(bench_record, "ROOT", root)
    monkeypatch.setattr(bench_record, "run_once", _fake_run(spec, value, calls))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert bench_record.main(["x", "--parent", str(parent)]) == 0
    out = json.loads((root / "BENCH_x.json").read_text())
    # parent first at odd seeds, this tree first at even ones
    assert calls == [(tree, seed) for seed in range(1, 11)
                     for tree in ((parent, root) if seed % 2 else (root, parent))]
    assert out["seeds"] == list(range(1, 11))
    assert len(out["metrics"]["kscap"][first]["values"]) == 10
    for workload in (w["name"] for w in spec["workloads"]):
        assert out["wins"][workload][first] == 7
        assert out["wins"][workload][second] == 2


def test_no_wins_without_a_parent(bench_record, monkeypatch, tmp_path):
    root = _tree(tmp_path / "this", True)
    shutil.copy(bench_record.ROOT / "BENCHMARK.json", root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    monkeypatch.setattr(bench_record, "ROOT", root)
    monkeypatch.setattr(bench_record, "run_once", _fake_run(spec))
    assert bench_record.main(["x"]) == 0
    out = json.loads((root / "BENCH_x.json").read_text())
    assert out["seeds"] == list(range(1, 11)) and "wins" not in out
