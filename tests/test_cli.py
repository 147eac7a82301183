import contextlib
import io
import json
import pathlib

import pytest

jsonschema = pytest.importorskip("jsonschema")

from capelli import cli
from capelli.cli import main
from capelli.report import Check
from capelli import verify as vf
from cli_cases import REPORT_CASES, STDOUT_CASES

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name, argv", STDOUT_CASES, ids=[c[0] for c in STDOUT_CASES])
def test_stdout_golden(name, argv):
    code, out, _ = run_cli(argv)
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
def test_report_golden(name, argv, tmp_path):
    target = tmp_path / name
    code, out, err = run_cli(argv + ["--out", str(target), "--jobs", "1"])
    assert code == 0
    assert out == ""
    assert "passed" in err
    assert target.read_bytes() == (GOLDEN / name).read_bytes()


class TestExitCodes:
    def test_all_pass_is_zero(self):
        code, _, _ = run_cli(["verify", "dougall", "--a-max", "1", "--bcd-max", "1"])
        assert code == 0

    def test_failed_check_is_one(self, monkeypatch):
        broken = lambda a, b, c, d: Check(
            name="dougall", params=(), status="fail", lhs="1", rhs="2"
        )
        monkeypatch.setitem(vf._TASKS, "dougall", broken)
        code, _, err = run_cli(["verify", "dougall", "--a-max", "1", "--bcd-max", "0", "--jobs", "1"])
        assert code == 1
        assert "failed" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ks", "2"],                          # malformed partition
            ["ks", "1,2"],                        # not weakly decreasing
            ["eig", "3,0", "--k", "1", "--route", "a"],  # route/class mismatch
            ["deligne", "1,0", "--t", "x"],       # malformed rational
            ["verify", "capelli", "--size-max", "99"],   # cap exceeded
            ["ks", "1,0", "--format", "csv"],     # csv only for table/verify
            ["eig", "1,0", "--k", "9"],           # k above cap
            ["ks", "9,8"],                        # partition size above cap
            ["deligne", "8,8", "--t", "0"],       # partition size above cap
        ],
    )
    def test_usage_errors_are_two(self, argv):
        code, _, err = run_cli(argv)
        assert code == 2
        assert err

    def test_negative_table_size_is_one_line(self):
        code, out, err = run_cli(["table", "--size-max", "-1"])
        assert code == 2 and out == ""
        assert err == "capelli: error: --size-max must lie in [0, 14]\n"

    @pytest.mark.parametrize(
        "flag, label",
        [
            ("--psi-N-max", "psi N-max"),
            ("--deligne-size-max", "deligne size-max"),
            ("--minpoly-d-max", "min-poly d-max"),
        ],
    )
    def test_negative_sweep_bound_is_one_line(self, flag, label):
        code, out, err = run_cli(["verify", "deligne", flag, "-1"])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {label} = -1 must be non-negative\n"

    @pytest.mark.parametrize("flag, label", [("--a-max", "a-max"), ("--bcd-max", "bcd-max")])
    def test_dougall_bound_above_cap_is_one_line(self, monkeypatch, flag, label):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_suite", never)
        monkeypatch.setattr(vf, "suite_tasks", never)
        code, out, err = run_cli(["verify", "dougall", flag, "11"])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {label} = 11 exceeds the hard cap 10\n"

    def test_unknown_suite_is_two(self):
        code, _, _ = run_cli(["verify", "nonsense"])
        assert code == 2

    def test_route_error_names_the_class(self):
        code, _, err = run_cli(["eig", "3,0", "--k", "1", "--route", "a"])
        assert code == 2
        assert "1-singular" in err and "regular" in err

    @pytest.mark.parametrize(
        "lam, k, route, message",
        [
            ("3,0", "1", "a", "lambda is 1-singular; route a requires regular"),
            ("1,0", "0", "b", "lambda is 0-regular; route b requires singular"),
            ("2,2", "1", "b", "lambda is 1-quasiregular; route b requires singular"),
            ("1,0", "0", "c", "lambda is 0-regular; route c requires quasiregular"),
            ("3,0", "1", "c", "lambda is 1-singular; route c requires quasiregular"),
            ("1,0", "0", "d", "lambda is 0-regular; route d requires quasiregular"),
        ],
    )
    def test_wrong_route_is_one_line(self, lam, k, route, message):
        code, out, err = run_cli(["eig", lam, "--k", k, "--route", route])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {message}\n"

    @pytest.mark.parametrize(
        "t_list, message",
        [
            ("", "--t-list has an empty entry: ''"),
            ("1,,2", "--t-list has an empty entry: '1,,2'"),
            ("0, ", "--t-list has an empty entry: '0, '"),
            (",".join(["1"] * 65), "t-list has 65 values; it needs 1 to 64"),
        ],
        ids=["empty", "empty-entry", "blank-entry", "too-long"],
    )
    def test_bad_t_list_is_one_line(self, monkeypatch, t_list, message):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_suite", never)
        code, out, err = run_cli(["verify", "deligne", "--t-list", t_list])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {message}\n"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self):
        a = run_cli(["verify", "knop-sahi", "--k-max", "1", "--size-max", "4", "--format", "json", "--jobs", "1"])
        b = run_cli(["verify", "knop-sahi", "--k-max", "1", "--size-max", "4", "--format", "json", "--jobs", "1"])
        assert a == b and a[0] == 0

    def test_worker_count_does_not_change_bytes(self):
        argv = ["verify", "dougall", "--a-max", "2", "--bcd-max", "2", "--format", "json"]
        one = run_cli(argv + ["--jobs", "1"])
        two = run_cli(argv + ["--jobs", "2"])
        assert one[1] == two[1]
        assert one[0] == two[0] == 0


@pytest.fixture(scope="module")
def report():
    code, out, _ = run_cli(
        ["verify", "identity-e", "--N-max", "2", "--psi-N-max", "1", "--format", "json", "--jobs", "1"]
    )
    assert code == 0
    return json.loads(out)


class TestReportShape:
    def test_validates_against_shipped_schema(self, report):
        from importlib import resources

        schema = json.loads(
            resources.files("capelli").joinpath("schemas/report.schema.json").read_text()
        )
        jsonschema.validate(report, schema)

    def test_summary_consistent(self, report):
        checks = report["checks"]
        assert report["summary"]["total"] == len(checks)
        assert report["summary"]["passed"] == sum(1 for c in checks if c["status"] == "pass")
        assert report["summary"]["failed"] == report["summary"]["total"] - report["summary"]["passed"]

    def test_csv_header(self):
        code, out, _ = run_cli(
            ["verify", "dougall", "--a-max", "1", "--bcd-max", "0", "--format", "csv", "--jobs", "1"]
        )
        assert code == 0
        assert out.splitlines()[0] == "name,params,status,lhs,rhs"


class TestConfig:
    def test_config_file_tightens_cap(self, tmp_path):
        cfg = tmp_path / "capelli.conf"
        cfg.write_text("# local limits\nk_cap = 1\n")
        code, _, err = run_cli(["eig", "1,0", "--k", "2", "--config", str(cfg)])
        assert code == 2 and "k" in err

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CAPELLI_K_CAP", "0")
        code, _, _ = run_cli(["eig", "1,0", "--k", "1"])
        assert code == 2

    def test_default_k_from_config(self, tmp_path):
        cfg = tmp_path / "capelli.conf"
        cfg.write_text("default_k = 2\n")
        code, out, _ = run_cli(["eig", "1,0", "--config", str(cfg)])
        assert code == 0
        assert out.splitlines()[0] == "x + y + 3"

    def test_negative_jobs_env_is_one_line(self, monkeypatch):
        monkeypatch.setenv("CAPELLI_JOBS", "-3")
        code, out, err = run_cli(["verify", "dougall", "--a-max", "1", "--bcd-max", "0"])
        assert code == 2 and out == ""
        assert err == "capelli: error: jobs = -3 must be non-negative\n"

    def test_bad_config_rejected(self, tmp_path):
        cfg = tmp_path / "capelli.conf"
        cfg.write_text("nonsense = 3\n")
        code, _, _ = run_cli(["table", "--config", str(cfg)])
        assert code == 2

    def test_invalid_utf8_config_is_one_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"jobs=1\n\xff\n")
        code, out, err = run_cli(["table", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err.startswith(f"capelli: error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1 and "Traceback" not in err
