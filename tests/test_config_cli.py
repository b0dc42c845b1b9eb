"""Configuration parsing and the command-line interface."""
import json
from pathlib import Path

import pytest

from stripflow.cli import CSV_HEADER, main
from stripflow.config import (ExperimentConfig, config_from_json,
                              config_from_text, config_to_text, load_config)
from stripflow.errors import ConfigError

TINY = """
pattern = ab
N_list = 1
T = 0.05
m = 8
K_rule = per_m 2
hole_halfwidth = 0.02
samples_per_strip = 400
seed = 3
space_samples = 120
time_samples = 2
output = out.csv
"""


def test_defaults():
    cfg = ExperimentConfig()
    assert cfg.N_list == (1, 2, 4, 8)
    assert cfg.T_for(4) == pytest.approx(0.04)
    assert cfg.m_for(4) == 64
    assert cfg.K_for(64) == 256
    assert cfg.samples_per_strip == 20000


def test_parse_text_and_json_mirror():
    cfg = config_from_text(TINY)
    assert cfg.N_list == (1,)
    assert cfg.T_rule == ("fixed", 0.05)
    assert cfg.m_for(1) == 8
    assert cfg.K_for(8) == 16
    mirror = {
        "pattern": "ab", "N_list": [1], "T": 0.05, "m": 8,
        "K_rule": ["per_m", 2], "hole_halfwidth": 0.02,
        "samples_per_strip": 400, "seed": 3, "space_samples": 120,
        "time_samples": 2, "output": "out.csv",
    }
    assert config_from_json(json.dumps(mirror)) == cfg


def test_config_round_trip():
    cfg = ExperimentConfig(N_list=(2,), seed=99)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_parse_errors():
    with pytest.raises(ConfigError):
        config_from_text("pattern = xy\n")
    with pytest.raises(ConfigError):
        config_from_text("mystery = 3\n")
    with pytest.raises(ConfigError):
        config_from_text("T_rule = a b c\n")
    with pytest.raises(ConfigError):
        config_from_json("[1, 2]")
    cfg = config_from_text("K = 10\nm = 16\n")
    with pytest.raises(ConfigError):
        cfg.K_for(cfg.m_for(1))  # 10 is not a multiple of 16


def test_load_config_by_suffix(tmp_path):
    p = tmp_path / "c.cfg"
    p.write_text(TINY)
    assert load_config(p) == config_from_text(TINY)
    j = tmp_path / "c.json"
    j.write_text(json.dumps({"pattern": "ab", "N_list": [1]}))
    assert load_config(j).N_list == (1,)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def _write_tiny(tmp_path, **overrides):
    text = TINY
    for key, value in overrides.items():
        text += f"{key} = {value}\n"
    p = tmp_path / "tiny.cfg"
    p.write_text(text)
    return p


def test_cli_validate_ok(tmp_path, capsys):
    assert main(["validate", str(_write_tiny(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert "all scenarios valid" in out


def test_cli_sweep_writes_csv_deterministically(tmp_path, capsys):
    cfg_path = _write_tiny(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(cfg_path)]) == 0
    capsys.readouterr()
    first = (tmp_path / "sweep.csv").read_bytes()
    assert first.decode().splitlines()[0] == CSV_HEADER
    assert main(["sweep", str(cfg_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_cli_empty_N_list(tmp_path, capsys):
    # an empty sweep is valid: header-only table, exit 0
    j = tmp_path / "none.json"
    j.write_text(json.dumps({"pattern": "ab", "N_list": [],
                             "output": str(tmp_path / "e.csv")}))
    assert main(["sweep", str(j)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == CSV_HEADER
    assert (tmp_path / "e.csv").read_text().strip() == CSV_HEADER


def test_cli_run_prints_breakdown(tmp_path, capsys):
    assert main(["run", str(_write_tiny(tmp_path))]) == 0
    out = capsys.readouterr().out
    assert CSV_HEADER in out
    assert "# class" in out


def test_cli_infeasible_exit_code(tmp_path, capsys):
    p = _write_tiny(tmp_path, phase_D="0.04")  # triple-overlap phase
    assert main(["validate", str(p)]) == 3
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "infeasible_scenario"


def test_cli_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("pattern = zz\n")
    assert main(["validate", str(p)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "invalid_config"


def test_cli_props_filter(tmp_path, capsys):
    assert main(["props", str(_write_tiny(tmp_path)), "--filter", "word"]) == 0
    out = capsys.readouterr().out
    assert "PASS word_algebra" in out


def test_cli_non_integer_workers_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("STRIPFLOW_WORKERS", "two")
    p = _write_tiny(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(p)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "invalid_config"


# Golden sweep CSVs: they may change only with a deliberate, documented
# output change.  The second config puts every sample on a bad orbit, which
# runs the closing-word path.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", ["small", "small_full_ramp"])
def test_cli_sweep_matches_golden_csv(name, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(GOLDEN / f"{name}.cfg"), "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    assert capsys.readouterr().out == out.read_text()


def test_cli_show_config(capsys):
    assert main(["show-config"]) == 0
    out = capsys.readouterr().out
    assert "pattern = ab" in out
