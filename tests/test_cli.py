import contextlib
import errno
import io
import json
import os
import pathlib
import string
import subprocess
import sys
from fractions import Fraction as Q
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from capelli import cli
from capelli import config
from capelli import eigenpoly as ep
from capelli.cli import main
from capelli.report import Check, RunReport
from capelli import verify as vf
from cli_cases import REPORT_CASES, STDOUT_CASES

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Every verify sweep-bound flag, in report order, with its default hard cap.
SWEEP_BOUND_CAPS = [("--k-max", 6), ("--size-max", 14), ("--N-max", 10), ("--psi-N-max", 10),
                    ("--deligne-size-max", 14), ("--minpoly-d-max", 14), ("--a-max", 10),
                    ("--bcd-max", 10)]


def _never_sweep(*args, **kwargs):
    raise AssertionError("the sweep must not start")


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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "--size-max", "-1"], "size-max = -1 must be non-negative"),
            (["table", "--size-max", "15"], "size-max = 15 exceeds the hard cap 14"),
            (["eig", "1,0", "--k", "9"], "k = 9 exceeds the hard cap 6"),
            (["table", "--k", "-1"], "k = -1 must be non-negative"),
            (["ks", "8,7"], "partition size = 15 exceeds the hard cap 14"),
            (["deligne", "8,8", "--t", "0"], "partition size = 16 exceeds the hard cap 14"),
            # the alias is reported under the canonical flag
            (["verify", "all", "--n-max", "-1"], "N-max = -1 must be non-negative"),
        ],
    )
    def test_capped_integer_is_one_line(self, monkeypatch, argv, message):
        def never(*args, **kwargs):
            raise AssertionError("nothing may be built")

        monkeypatch.setattr(cli, "upto", never)
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == f"capelli: error: {message}\n"

    def test_every_sweep_bound_flag_is_listed(self):
        assert [flag for flag, _ in SWEEP_BOUND_CAPS] == [
            "--" + key.replace("_", "-") for key in vf.BOUND_CAPS]

    @pytest.mark.parametrize("flag, cap", SWEEP_BOUND_CAPS)
    @pytest.mark.parametrize("suite", ["deligne", "all"])
    def test_negative_sweep_bound_is_one_line(self, monkeypatch, suite, flag, cap):
        monkeypatch.setattr(vf, "suite_tasks", _never_sweep)
        code, out, err = run_cli(["verify", suite, flag, "-1"])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {flag[2:]} = -1 must be non-negative\n"

    @pytest.mark.parametrize(
        "t, message",
        [
            ("7" * 5000, f"integer with more than {sys.get_int_max_str_digits()} digits, "
                         "got '{}'... (5000 characters)"),
            ("x" * 5000, "expected an integer or p/q rational, got '{}'... (5000 characters)"),
        ],
        ids=["over-digit-limit", "not-a-number"],
    )
    def test_long_t_is_one_short_line(self, t, message):
        code, out, err = run_cli(["deligne", "1,0", "--t", t])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {message.format(t[:32])}\n"

    @pytest.mark.parametrize("flag, cap", SWEEP_BOUND_CAPS)
    @pytest.mark.parametrize("suite", ["dougall", "all"])
    def test_sweep_bound_above_cap_is_one_line(self, monkeypatch, suite, flag, cap):
        monkeypatch.setattr(cli, "run_suite", _never_sweep)
        monkeypatch.setattr(vf, "suite_tasks", _never_sweep)
        code, out, err = run_cli(["verify", suite, flag, str(cap + 1)])
        assert code == 2 and out == ""
        assert err == f"capelli: error: {flag[2:]} = {cap + 1} exceeds the hard cap {cap}\n"

    def test_route_choices_are_the_route_table(self):
        names = sorted({r for routes in ep.ROUTES.values() for r in routes})
        assert names == ["a", "b", "c", "d", "oracle"]
        for name in names + ["all"]:
            assert cli.build_parser().parse_args(["eig", "1,0", "--route", name]).route == name
        for name in ["e", "A", "ORACLE"]:
            code, out, err = run_cli(["eig", "1,0", "--route", name])
            assert code == 2 and out == ""
            assert err == (f"capelli eig: error: argument --route: invalid choice: {name!r} "
                           "(choose from 'a', 'b', 'c', 'd', 'oracle', 'all')\n")

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

    @pytest.mark.parametrize("t", ["101", "-101/3", "1/101", "-100/101", "202/2"])
    def test_t_above_height_cap_is_one_line(self, monkeypatch, t):
        def never(*args, **kwargs):
            raise AssertionError("the computation must not start")

        monkeypatch.setattr(cli, "run_suite", never)
        monkeypatch.setattr(cli.dl, "cat_eig_formula", never)
        line = ("capelli: error: t needs numerator and denominator of at most 100 "
                f"in absolute value, got '{t}'\n")
        for argv in (["deligne", "1,0", f"--t={t}"], ["verify", "deligne", f"--t-list=1,{t}"]):
            assert run_cli(argv) == (2, "", line), argv

    @pytest.mark.parametrize("t", ["100", "-100/99", "1/100", "-99/100", "200/2"])
    def test_t_at_height_cap_is_accepted(self, t):
        assert cli.T_HEIGHT_MAX == 100
        code, out, err = run_cli(["deligne", "1,0", f"--t={t}"])
        assert code == 0 and out.startswith("f = ") and err == ""


class TestStdoutFailure:
    """A failed stdout write is a one-line usage error, with no second
    message when the interpreter flushes stdout at exit."""

    @staticmethod
    def _table(stdout):
        src = str(pathlib.Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        return subprocess.run([sys.executable, "-m", "capelli.cli", "table", "--size-max", "3"],
                              stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120)

    @staticmethod
    def _line(code: int) -> bytes:
        return f"capelli: error: cannot write stdout: [Errno {code}] {os.strerror(code)}\n".encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = self._table(full)
        assert (proc.returncode, proc.stderr) == (2, self._line(errno.ENOSPC))

    def test_pipe_with_closed_read_end(self):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = self._table(write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, self._line(errno.EPIPE))


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "argv, line",
        [
            ([], "capelli: error: the following arguments are required: command"),
            (["verify", "capelli", "--k-max", "abc"],
             "capelli verify: error: argument --k-max: invalid int value: 'abc'"),
            (["deligne", "1,0"], "capelli deligne: error: the following arguments are required: --t"),
            (["deligne", "1,0", "--t"], "capelli deligne: error: argument --t: expected one argument"),
            (["eig", "1,0", "--bogus"], "capelli: error: unrecognized arguments: --bogus"),
        ],
        ids=["bare", "bad-int", "missing-t", "t-without-value", "unknown-flag"],
    )
    def test_is_one_line(self, argv, line):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == line + "\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "deligne", "--t", "1"], "capelli: error: unrecognized arguments: --t 1"),
            (["table", "--size", "3"], "capelli: error: unrecognized arguments: --size 3"),
            (["ks", "1,0", "--o", "x"], "capelli: error: unrecognized arguments: --o x"),
            (["eig", "1,0", "--jobs", "1"], "capelli: error: unrecognized arguments: --jobs 1"),
        ],
        ids=["t-for-t-list", "size-for-size-max", "o-for-out", "jobs-on-eig"],
    )
    def test_abbreviation_or_foreign_flag_is_one_line(self, monkeypatch, tmp_path, argv, line):
        def never(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(cli, "run_suite", never)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert err == line + "\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("cmd", [["ks", "1,0"], ["eig", "1,0"], ["deligne", "1,0", "--t", "0"]])
    def test_csv_outside_table_and_verify_is_one_line(self, cmd):
        # as in test_bad_choice_is_one_line, the wording of the choices list
        # varies across Python versions
        code, out, err = run_cli(cmd + ["--format", "csv"])
        assert code == 2 and out == ""
        assert err.startswith(
            f"capelli {cmd[0]}: error: argument --format: invalid choice: 'csv' (choose from ")
        assert "pretty" in err and "json" in err and err.count("csv") == 1
        assert err.count("\n") == 1

    def test_n_max_alias_matches_full_flag(self, monkeypatch):
        seen = []

        def record(suite, bounds, params=(), jobs=1, cfg=None):
            seen.append((bounds.n_max, dict(params)["N_max"]))
            return RunReport(command=f"verify {suite}", params=params, checks=[])

        monkeypatch.setattr(cli, "run_suite", record)
        assert run_cli(["verify", "dougall", "--N-max", "3"]) == run_cli(
            ["verify", "dougall", "--n-max", "3"])
        assert seen == [(3, "3")] * 2

    def test_bad_choice_is_one_line(self):
        # the choices list after the message is worded differently across
        # Python versions; the line itself is what is pinned
        code, out, err = run_cli(["eig", "2,0", "--route", "z"])
        assert code == 2 and out == ""
        assert err.startswith("capelli eig: error: argument --route: invalid choice: 'z'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["ks", "2,0"], ["ks", "2,0", "--k", "0"]])
    def test_part_poly_is_a_bad_choice(self, argv):
        # --part takes reg|sing only.  Newer Pythons print the choices
        # unquoted; either way the whole line is pinned.
        code, out, err = run_cli(argv + ["--part", "poly"])
        assert code == 2 and out == ""
        line = "capelli ks: error: argument --part: invalid choice: 'poly' (choose from {})\n"
        assert err in (line.format("'reg', 'sing'"), line.format("reg, sing"))

    @pytest.mark.parametrize("t", ["-4/3", "-2", "-5/3"])
    def test_negative_t_parses_like_equals_form(self, t):
        spaced = run_cli(["deligne", "1,0", "--t", t])
        joined = run_cli(["deligne", "1,0", f"--t={t}"])
        assert spaced == joined
        assert spaced[0] == 0 and spaced[2] == ""

    def test_negative_t_list_parses_like_equals_form(self, monkeypatch):
        seen = []

        def record(suite, bounds, params=(), jobs=1, cfg=None):
            seen.append(bounds.t_list)
            return RunReport(command=f"verify {suite}", params=params, checks=[])

        monkeypatch.setattr(cli, "run_suite", record)
        spaced = run_cli(["verify", "deligne", "--t-list", "-5/3,1"])
        joined = run_cli(["verify", "deligne", "--t-list=-5/3,1"])
        assert spaced == joined and spaced[0] == 0
        assert seen == [(Q(-5, 3), Q(1))] * 2


class TestCapCeilings:
    def test_env_cap_above_default_is_one_line(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the table must not be built")

        monkeypatch.setattr(cli, "upto", never)
        monkeypatch.setenv("CAPELLI_SIZE_CAP", "100000")
        code, out, err = run_cli(["table", "--size-max", "100000"])
        assert code == 2 and out == ""
        assert err == "capelli: error: size_cap = 100000 exceeds its built-in ceiling 14\n"

    def test_config_cap_above_default_is_one_line(self, tmp_path):
        cfg = tmp_path / "capelli.conf"
        cfg.write_text("k_cap = 7\n")
        code, out, err = run_cli(["eig", "1,0", "--k", "7", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err == "capelli: error: k_cap = 7 exceeds its built-in ceiling 6\n"

    def test_cap_at_default_accepted(self, monkeypatch):
        monkeypatch.setenv("CAPELLI_N_CAP", "10")
        code, _, _ = run_cli(["verify", "dougall", "--a-max", "1", "--bcd-max", "0"])
        assert code == 0


_PARTITIONS = ["0,0", "1,0", "1,1", "2,0", "2,1", "2,2", "3,0", "3,1"]
_JUNK = ["", "x", "1,2", "-1,0", "9,9", "1/0", "0,,2", "-", "-x", "--bogus", "--"]
_OPTIONS = {
    "--k": ["0", "1", "2", "3", "6", "7", "-1"],
    "--t": ["-4", "-2", "0", "1/2", "-4/3", "3", "-5/3"],
    "--t-list": ["-5/3,1", "0,-2", "1/2", "-4/3"],
    "--route": ["a", "b", "c", "d", "oracle", "all", "z"],
    "--part": ["poly", "reg", "sing"],  # poly exercises the invalid-choice exit
    "--format": ["pretty", "json", "csv"],
    "--size-max": ["0", "2", "4", "6", "15", "-1"],
    "--k-max": ["0", "2", "7"],
    "--N-max": ["0", "3", "11"],
    "--deligne-size-max": ["0", "4", "-1"],
    "--a-max": ["1", "11"],
    "--jobs": ["0", "1", "2"],
}
_COMMAND_FLAGS = {
    "ks": ["--k", "--part", "--format"],
    "eig": ["--k", "--route", "--format"],
    "deligne": ["--format"],
    "table": ["--k", "--size-max", "--format"],
    "verify": ["--k-max", "--size-max", "--N-max", "--deligne-size-max", "--a-max",
               "--t-list", "--format", "--jobs"],
}
_POSITIONAL = {"ks": _PARTITIONS, "eig": _PARTITIONS, "deligne": _PARTITIONS, "table": [],
               "verify": ["knop-sahi", "capelli", "deligne", "all", "nonsense"]}


def _command_argv(cmd):
    """Mostly well-formed tokens for one subcommand, so that most draws run
    it; no drawn token abbreviates --out or --config."""
    option = st.sampled_from(_COMMAND_FLAGS[cmd] + ["--bogus"]).flatmap(
        lambda flag: st.sampled_from(_OPTIONS.get(flag, [""]) * 3 + _JUNK).map(
            lambda v: [flag, v]))
    return st.tuples(
        st.just([cmd]),
        st.sampled_from(_POSITIONAL[cmd] * 3 + _JUNK).map(lambda v: [v])
        if _POSITIONAL[cmd] else st.just([]),
        st.sampled_from([["--t", "1/2"], ["--t", "-2"], ["--t", "0"], []])
        if cmd == "deligne" else st.just([]),
        st.lists(option, max_size=3).map(lambda pairs: [tok for pair in pairs for tok in pair]),
        st.sampled_from([[], [], ["--falling"]]),
    ).map(lambda parts: [tok for part in parts for tok in part])


_argv = st.sampled_from(sorted(_COMMAND_FLAGS)).flatmap(_command_argv)
_ENV_KEYS = [f"CAPELLI_{name.upper()}" for name in
             ("size_cap", "n_cap", "k_cap", "default_k", "jobs")]
_setting_values = st.one_of(
    st.integers(-3, 20).map(str),
    st.sampled_from(["", "x", "1.5", "99999", " 3 ", "1_0"]),
    st.text(st.sampled_from(string.printable), max_size=5),
)
_config_lines = st.one_of(
    st.tuples(st.sampled_from(["size_cap", "n_cap", "k_cap", "default_k", "jobs", "nonsense"]),
              _setting_values).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(st.sampled_from(string.printable), max_size=8),
)


class TestBoundaryFuzz:
    """Every argv, config file and CAPELLI_* value either works or exits 2
    with one stderr line; a traceback is never acceptable."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        argv=_argv,
        config=st.one_of(st.none(), st.none(), st.none(),
                         st.lists(_config_lines, max_size=3).map("\n".join),
                         st.binary(max_size=6)),
        env=st.one_of(st.just({}), st.just({}), st.dictionaries(
            st.sampled_from(_ENV_KEYS), _setting_values, max_size=2)),
    )
    def test_exit_code_and_one_line(self, monkeypatch, tmp_path, argv, config, env):
        def no_sweep(suite, bounds, params=(), jobs=1, cfg=None):
            return RunReport(command=f"verify {suite}", params=params, checks=[])

        monkeypatch.setattr(cli, "run_suite", no_sweep)
        if config is not None:
            path = tmp_path / "fuzz.conf"
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(path)]
        with mock.patch.dict(os.environ):
            for key in [k for k in os.environ if k.startswith("CAPELLI_")]:
                del os.environ[key]
            os.environ.update(env)
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") <= 1, err


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

    def test_verify_sweeps_to_the_loaded_caps(self, monkeypatch):
        monkeypatch.setenv("CAPELLI_K_CAP", "2")
        monkeypatch.setenv("CAPELLI_N_CAP", "3")
        seen = []

        def record(suite, bounds, params=(), jobs=1, cfg=None):
            seen.append(vf.suite_tasks(suite, bounds, cfg))
            return RunReport(command=f"verify {suite}", params=params, checks=[])

        monkeypatch.setattr(cli, "run_suite", record)
        argv = ["verify", "all", "--k-max", "1", "--n-max", "2", "--psi-N-max", "2",
                "--a-max", "1", "--bcd-max", "1"]
        assert run_cli(argv)[0] == 0
        [tasks] = seen
        assert {args[1] for name, args in tasks if name == "pole-set"} == {2}
        assert max(args[0] for name, args in tasks if name == "falling-log-derivative") == 3

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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("#" + "x" * 4999, None),  # a comment, however long, is fine
            ("x" * 5000, "line 1: expected key=value, got '{}'... (5000 characters)"),
            ("jobs = " + "9" * 4993, "line 1: jobs needs an integer, got '{}'... (4993 characters)"),
        ],
        ids=["comment", "no-equals", "long-value"],
    )
    def test_long_config_line_is_one_short_line(self, tmp_path, line, message):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(["table", "--size-max", "1", "--config", str(cfg)])
        if message is None:
            assert (code, err) == (0, "")
            return
        value = line.partition("=")[2].strip() if "=" in line else line
        assert code == 2 and out == ""
        assert err == f"capelli: error: {message.format(value[:32])}\n"

    @pytest.mark.parametrize("extra", [0, 1], ids=["at-limit", "one-byte-over"])
    def test_config_longer_than_the_byte_limit_is_one_line(self, tmp_path, extra):
        cfg = tmp_path / "long.cfg"
        # "jobs=1\n", then one comment line that fills the file to the limit
        cfg.write_bytes(b"jobs=1\n#" + b"#" * (config.CONFIG_BYTES_MAX - 9 + extra) + b"\n")
        assert cfg.stat().st_size == config.CONFIG_BYTES_MAX + extra
        code, out, err = run_cli(["table", "--size-max", "1", "--config", str(cfg)])
        if not extra:
            assert (code, err) == (0, "")
            return
        assert code == 2 and out == ""
        assert err == (f"capelli: error: config file {cfg} is longer than "
                       f"{config.CONFIG_BYTES_MAX} bytes\n")

    def test_invalid_utf8_config_is_one_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"jobs=1\n\xff\n")
        code, out, err = run_cli(["table", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert err.startswith(f"capelli: error: cannot read config file {cfg}: 'utf-8' codec")
        assert err.count("\n") == 1 and "Traceback" not in err
