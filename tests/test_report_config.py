import json

import pytest
from hypothesis import example, given, settings, strategies as st

from capelli.config import Config, ConfigError, load_config, parse_config_text
from capelli.report import Check, RunReport, json_text


def _check(status):
    return Check(name="c", params=(("k", "1"),), status=status)


def reference_obj(rep: RunReport) -> dict:
    """The report as the object ``json_text`` renders; ``to_json`` must lay
    out the same bytes by hand."""
    return {
        "version": rep.version,
        "command": rep.command,
        "params": {k: v for k, v in rep.params},
        "checks": [
            {
                "name": c.name,
                "params": {k: v for k, v in c.params},
                "status": c.status,
                "lhs": c.lhs,
                "rhs": c.rhs,
            }
            for c in rep.checks
        ],
        "summary": {"total": rep.total, "passed": rep.passed, "failed": rep.failed},
    }


# quotes, backslashes, control characters, non-ASCII and astral text
_texts = (st.text(st.sampled_from('ab"\\/\x00\x1f\n\t\x7f\xe9\u2028\U0001d538'), max_size=6)
          | st.text(max_size=6))
_params = st.lists(st.tuples(_texts, _texts), max_size=3).map(tuple)
_checks = st.builds(Check, _texts, _params, st.sampled_from(["pass", "fail"]), _texts, _texts)
_reports = st.builds(RunReport, _texts, _params, st.lists(_checks, max_size=4), _texts)


class TestRunReport:
    def test_summary_counts(self):
        rep = RunReport(command="verify x", params=(), checks=[_check("pass"), _check("fail")])
        assert (rep.total, rep.passed, rep.failed) == (2, 1, 1)
        assert not rep.all_passed

    def test_json_roundtrip_deterministic(self):
        rep = RunReport(command="verify x", params=(("a", "1"),), checks=[_check("pass")])
        assert rep.to_json() == rep.to_json()
        obj = json.loads(rep.to_json())
        assert obj["summary"] == {"total": 1, "passed": 1, "failed": 0}
        assert obj["checks"][0]["params"] == {"k": "1"}

    @settings(max_examples=300, deadline=None)
    @given(_reports)
    @example(RunReport("verify x", (), []))  # empty params, zero checks
    def test_json_matches_the_reference_layout(self, rep):
        assert rep.to_json() == json_text(reference_obj(rep))

    def test_csv_quotes_commas(self):
        rep = RunReport(
            command="verify x",
            params=(),
            checks=[Check(name="n", params=(("lambda", "2,0"),), status="pass", lhs="a", rhs="b")],
        )
        lines = rep.to_csv().splitlines()
        assert lines[0] == "name,params,status,lhs,rhs"
        assert lines[1] == 'n,"lambda=2,0",pass,a,b'

    def test_pretty_flags_failures(self):
        rep = RunReport(command="verify x", params=(), checks=[_check("fail")])
        assert "FAIL" in rep.to_pretty()


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert (cfg.size_cap, cfg.n_cap, cfg.k_cap) == (14, 10, 6)

    def test_parse_and_comments(self):
        cfg = parse_config_text("# caps\nsize_cap = 9\n\njobs=2\n")
        assert cfg.size_cap == 9 and cfg.jobs == 2
        assert cfg.k_cap == 6  # untouched

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("sizecap = 9")

    def test_non_integer(self):
        with pytest.raises(ConfigError):
            parse_config_text("size_cap = big")

    @pytest.mark.parametrize(
        "load, message",
        [
            (lambda: parse_config_text("# caps\nsize_cap = big"),
             "line 2: size_cap needs an integer, got 'big'"),
            (lambda: load_config(environ={"CAPELLI_JOBS": "1.5"}),
             "CAPELLI_JOBS needs an integer, got '1.5'"),
        ],
        ids=["file", "env"],
    )
    def test_non_integer_names_its_source(self, load, message):
        with pytest.raises(ConfigError) as exc:
            load()
        assert str(exc.value) == message

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("k_cap = 4\n")
        cfg = load_config(str(path), environ={"CAPELLI_K_CAP": "2"})
        assert cfg.k_cap == 2

    def test_effective_jobs_positive(self):
        assert Config(jobs=3).effective_jobs() == 3
        assert Config(jobs=0).effective_jobs() >= 1

    @pytest.mark.parametrize(
        "text",
        ["size_cap = -1", "n_cap = -1", "k_cap = -1", "jobs = -3",
         "default_k = -1", "default_k = 7", "k_cap = 2\ndefault_k = 3"],
    )
    def test_out_of_range_values_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    def test_out_of_range_env_rejected(self):
        with pytest.raises(ConfigError, match="jobs = -3"):
            load_config(environ={"CAPELLI_JOBS": "-3"})
        with pytest.raises(ConfigError, match="default_k = 3"):
            load_config(environ={"CAPELLI_K_CAP": "2", "CAPELLI_DEFAULT_K": "3"})

    @pytest.mark.parametrize(
        "name, ceiling", [("size_cap", 14), ("n_cap", 10), ("k_cap", 6)]
    )
    def test_cap_above_built_in_default_rejected(self, name, ceiling):
        message = f"{name} = {ceiling + 1} exceeds its built-in ceiling {ceiling}"
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"{name} = {ceiling + 1}")
        with pytest.raises(ConfigError, match=message):
            load_config(environ={f"CAPELLI_{name.upper()}": str(ceiling + 1)})
        assert getattr(parse_config_text(f"{name} = {ceiling}"), name) == ceiling

    def test_boundary_values_accepted(self):
        cfg = parse_config_text("k_cap = 0\ndefault_k = 0\njobs = 0\nsize_cap = 0\nn_cap = 0")
        assert (cfg.k_cap, cfg.default_k, cfg.jobs) == (0, 0, 0)
