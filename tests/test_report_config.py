import pytest

from capelli.config import Config, ConfigError, load_config, parse_config_text
from capelli.report import Check, RunReport


def _check(status):
    return Check(name="c", params=(("k", "1"),), status=status)


class TestRunReport:
    def test_summary_counts(self):
        rep = RunReport(command="verify x", params=(), checks=[_check("pass"), _check("fail")])
        assert (rep.total, rep.passed, rep.failed) == (2, 1, 1)
        assert not rep.all_passed

    def test_json_roundtrip_deterministic(self):
        rep = RunReport(command="verify x", params=(("a", "1"),), checks=[_check("pass")])
        assert rep.to_json() == rep.to_json()
        obj = rep.to_obj()
        assert obj["summary"] == {"total": 1, "passed": 1, "failed": 0}
        assert obj["checks"][0]["params"] == {"k": "1"}

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
