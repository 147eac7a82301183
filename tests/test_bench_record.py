"""``scripts/bench_record.py`` rejects a bad ``--parent`` with status 2 and
one line, before it starts any benchmark run."""

import importlib.util
import pathlib

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
